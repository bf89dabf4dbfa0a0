"""The eight exception types, one per rule: the base ``CsmSimError`` and seven that are one.

- ``ScenarioValidationError``: a value breaks its own rule, from a file, a recipe, a grid or a
  library call (a count, seed, tolerance, index, a context's id, an outcome sequence or a path
  of probability zero, a protocol's contexts or initial modality, a modality's context, a
  distribution, the ``meters``, ``state`` or ``phases`` read, a ``rho`` not Hermitian or whose
  spectrum is no distribution, the shape of each array and the finiteness of its entries);
- ``ScenarioParseError``: a scenario file is not valid JSON text;
- ``DimensionMismatch``: operands live in spaces of different dimension;
- ``RefusedInput``: a constructor refuses its matrix, a basis (``NonOrthonormalInput``) or an
  overlap matrix (``InvalidGramMatrix``), by its measured check or, with an infinite residual,
  by its shape or a non-finite entry;
- ``InternalConsistencyError``: a computed value breaks a property it has by construction.
"""


class CsmSimError(Exception):
    """Base class for all domain errors raised by csm_sim."""


class DimensionMismatch(CsmSimError, ValueError):
    """Operands live in spaces of different dimension."""


class RefusedInput(CsmSimError, ValueError):
    """A constructor refused its input matrix; ``residual`` is what its failed check measured,
    the largest double if that overflowed."""

    def __init__(self, message: str, residual: float = float("inf")):
        self.residual = residual  # infinite for a matrix unread, misshapen or not finite
        super().__init__(message)


class NonOrthonormalInput(RefusedInput):
    """An explicit basis fails the orthonormality tolerance; ``residual`` is max |B†B − I|."""


class InvalidGramMatrix(RefusedInput):
    """Overlap matrix not Hermitian, unit-diagonal and PSD; ``residual`` is max |G − G†|,
    max |diag G − 1|, or the negation of an eigenvalue below the PSD tolerance (infinite for a
    matrix unread, misshapen or with a non-finite entry)."""


class InternalConsistencyError(CsmSimError, RuntimeError):
    """A computed quantity violates a property it must satisfy by construction, by more than
    rounding (a probability outside [0, 1] past ``INPUT_TOL``): a bug, not a bad input."""


class ScenarioParseError(CsmSimError, ValueError):
    """Scenario file is not syntactically valid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line, self.column = line, column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ScenarioValidationError(CsmSimError, ValueError):
    """A recipe, a scenario file, a sweep grid or a library argument breaks its rule; ``field``
    names the offending value (``seed`` of a recipe made in code or of ``run_scenario``,
    ``contexts.x.seed`` of a file's, ``sweep.g[2]`` of a grid's)."""

    def __init__(self, field: str, reason: str):
        self.field, self.reason = field, reason
        super().__init__(f"{field}: {reason}")
