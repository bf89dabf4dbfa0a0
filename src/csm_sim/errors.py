"""Exception types shared across the package; a value that breaks its own rule, from a file, a
recipe, a grid or a library call (a count, a seed, a tolerance, the ``meters``, composite
``state`` or ``phases`` a library call reads), is a ScenarioValidationError."""


class CsmSimError(Exception):
    """Base class for all domain errors raised by csm_sim."""


class DimensionMismatch(CsmSimError, ValueError):
    """Operands live in spaces of different dimension."""


class IndexOutOfRange(CsmSimError, IndexError):
    """Outcome index not in [0, dim)."""


class RefusedInput(CsmSimError, ValueError):
    """A constructor refused its input matrix; ``residual`` is what its failed check measured."""

    def __init__(self, message: str, residual: float):
        self.residual = residual  # infinite for a matrix that is not square
        super().__init__(message)


class NonOrthonormalInput(RefusedInput):
    """An explicit basis fails the orthonormality tolerance; ``residual`` is max |B†B − I|."""


class InvalidGramMatrix(RefusedInput):
    """Overlap matrix not Hermitian with unit diagonal; ``residual``: max |G − G†| or |diag G − 1|."""


class NotPositiveSemidefinite(InvalidGramMatrix):
    """Overlap matrix has an eigenvalue below the PSD tolerance; ``residual`` is its negation."""


class InvalidDistribution(CsmSimError, ValueError):
    """Probability vector fails the [0,1] / sum-to-one checks."""


class LengthMismatch(CsmSimError, ValueError):
    """Outcome sequence length differs from the protocol length."""


class InitialMismatch(CsmSimError, ValueError):
    """First outcome of a sequence disagrees with the protocol's initial modality."""


class ZeroProbabilityPath(CsmSimError, ValueError):
    """Entropy production is undefined on a forward path of probability zero."""


class InternalConsistencyError(CsmSimError, RuntimeError):
    """A computed quantity violates a property it must satisfy by construction.

    Raised e.g. when a probability lands outside [0,1] by more than the
    validation tolerance, or when a quantity that must be real carries a
    larger imaginary residue; distinguishes genuine bugs from rounding.
    """


class ScenarioParseError(CsmSimError, ValueError):
    """Scenario file is not syntactically valid."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ScenarioValidationError(CsmSimError, ValueError):
    """A recipe, a scenario file, a sweep grid or a library argument breaks its rule; ``field``
    names the offending value (``seed`` of a recipe made in code or of ``run_scenario``,
    ``contexts.x.seed`` of a file's, ``sweep.g[2]`` of a grid's)."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
