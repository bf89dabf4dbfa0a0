"""Measurement contexts as orthonormal bases of C^N, and the Born probabilities between two.

A context is an ordered orthonormal basis of C^N; column ``j`` of
``Context.basis`` is the vector attached to outcome ``j``.  A modality is one
outcome of one context, i.e. a (context, index) pair carrying a rank-one
projector.  Changes of context are unitary matrices mapping one basis onto
another, and they compose as a group.

An admitted basis is held as its nearest unitary, as an admitted overlap matrix
(``qnd.Gram``) is held repaired: off by rounding, not by up to ``INPUT_TOL``.

Contexts compare by ``id``, not by matrix equality: whether two setups are
"the same context" is a protocol-level statement, so equality follows the
label chosen at construction time.

Two return routes through an intermediate context exist and they differ physically.  If an
outcome is realized in the intermediate context, probabilities add over intermediate outcomes
(``irreversible_return``); if none is realized, amplitudes add instead and the start outcome
is recovered with certainty (``reversible_return``).  ``interference_returns`` exposes the
amplitude sum with adjustable per-path phases, which is what an interferometer dials; it and
the phase sweep read the one path table ⟨u_k|v_j⟩⟨v_j|u_i⟩, ``_paths``.

:class:`Context` checks a basis matrix; a :class:`ContextSpec` checks every rule of
its kind when made, and :func:`build_context` and the public constructors, which
make one, trust it.  The package's value rules each have one owner here: ``_number``
and ``_integer`` (a finite real, an integer that is no bool, each with a floor) for every
recipe, document field, grid entry, count, seed and tolerance; ``check_index`` for every
index and outcome; ``clamp_probabilities`` for every computed probability and
``validate_distribution`` for every given one; ``_instance`` and ``_sequence`` for every
typed operand and sequence; ``_shown`` for every value a refusal quotes; ``_read_array`` for
every caller's matrix and vector (a density matrix too), its shape and its entries'
finiteness, so that only a length that differs from a partner's dim is left to
``DimensionMismatch``; ``_saturated`` for every residual a check of such a matrix measures;
``_hermitian`` for the Hermiticity residual and Hermitian part of an overlap or density
matrix; ``_Recipe`` for the kind and fields of both recipes, ``_square`` for a recipe
matrix's side, ``MAX_DIM`` for the largest side a recipe builds; ``INPUT_TOL``, the one floor
inputs are trusted to; ``_hold``, frozen fields, and ``_Value``, the frozen base of every
value type.

``INPUT_TOL`` (1e-10) sits far above rounding.  Against a 40-digit referee over dims 2–8
(``tests/test_precision.py``), the worst table kernel is off by 1.7·dim·eps, 3.0e-15 at dim 8,
some 33,000 times less; an entropy near a rank-deficient state, held there to a bound of its
own, was off by 20·dim·eps, 8.9e-15 at dim 2, some 11,000 times less.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError, NonOrthonormalInput
from .errors import ScenarioValidationError

# Validation tolerance for user-supplied matrices.
INPUT_TOL = 1e-10

# The largest dim a recipe builds (a context's, or a gram's meter count).  At it, one basis
# and its conjugate, 32 B per entry, fill the table budget, ``scenario.MAX_TABLE_BYTES``.
MAX_DIM = 4096

# The most entries a sweep's stacked table (the g sweep's reduced matrices, the m_count sweep's
# chain states) holds per chunk of its grid, one dim-64 matrix, or one point where that holds more.
_CHUNK_ENTRIES = 2**12


def clamp_probabilities(arr: np.ndarray) -> np.ndarray:
    """Computed probabilities snapped into [0, 1], each within ``INPUT_TOL`` of it.

    The one clamp of every computed probability: an excursion beyond ``INPUT_TOL``
    is a bug, not rounding, and raises :class:`InternalConsistencyError`, as NaN does.
    """
    arr = np.asarray(arr, dtype=float)
    if not (float(np.min(arr)) >= -INPUT_TOL and float(np.max(arr)) <= 1.0 + INPUT_TOL):
        raise InternalConsistencyError("probabilities outside [0,1] beyond tolerance")
    return np.clip(arr, 0.0, 1.0)


def validate_distribution(dist: np.ndarray, field: str = "dist") -> np.ndarray:
    """Weights within ``INPUT_TOL`` of [0, 1] and of sum 1, clipped; a refusal names ``field``."""
    return _distributions(_read_array(dist, field, float, "vector")[None], field)[0]


def _distributions(table: np.ndarray, field: str) -> np.ndarray:
    """A finite float table, each row :func:`validate_distribution`'s weights, clipped; the first
    row that is not is refused, with that function's reason."""
    outside = (table.min(axis=1) < -INPUT_TOL) | (table.max(axis=1) > 1.0 + INPUT_TOL)
    totals = table.sum(axis=1)
    first = np.argmax(outside | ~(np.abs(totals - 1.0) <= INPUT_TOL))  # row 0 if none is refused
    if outside[first]:
        raise ScenarioValidationError(field, "weights outside [0, 1]")
    if not abs(totals.item(first) - 1.0) <= INPUT_TOL:
        raise ScenarioValidationError(field, f"weights sum to {totals.item(first)!r}, not 1")
    return np.clip(table, 0.0, 1.0)


def _entropy(dist: np.ndarray) -> np.ndarray:
    """-Σ p log p in nats over the last axis of what :func:`_distributions` returned, 0·log 0 = 0:
    one entropy per row of a table, a 0-d one of a vector."""
    return -np.sum(dist * np.log(np.where(dist > 0.0, dist, 1.0)), axis=-1) + 0.0


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is none."""
    return not isinstance(value, bool) and isinstance(value, Integral)


def check_index(field: str, index, dim: int) -> None:
    """Refuse ``index`` unless it is an integer in [0, dim), naming it ``field``."""
    # a plain int skips the ABC check, ~10x the cost of the rest: verify reads dim² per step
    if type(index) is not int and not is_integer(index):
        raise ScenarioValidationError(field, f"{_shown(index)} is not an integer")
    if not 0 <= index < dim:
        raise ScenarioValidationError(field, f"{_shown(index, str)} not in [0, {dim})")


def _shown(value, show=repr) -> str:
    """``show(value)``; past ``str``'s digit limit, an integer's digit count, else its type."""
    try:
        return show(value)
    except ValueError:  # sys.get_int_max_str_digits() exceeded
        if not is_integer(value):
            return f"a {type(value).__name__} too long to show"
        k = int(math.log10(abs(value)))  # 10**k <= |value| < 10**(k + 1), or one off
        k += (abs(value) >= 10 ** (k + 1)) - (abs(value) < 10**k)
        return f"{'a negative' if value < 0 else 'an'} integer of {k + 1} digits"


def _read_array(value, refuse, dtype, shape) -> np.ndarray:
    """A new ``dtype`` array of ``value`` (complex, float, or None: float if real, else complex),
    non-empty and of the ``shape`` asked: ``"vector"``, ``"matrix"`` or ``"square matrix"``,
    every entry finite.  Another rank or side, no entry, a NaN or infinite entry (in either part
    of a complex one), or what numpy cannot read (a malformed string entry, ragged rows, an
    object with no such value, an integer past a double, a complex read real) is refused as
    ``refuse(reason)``, or as ``ScenarioValidationError(refuse, reason)`` for a field name."""
    try:
        if dtype is None:
            dtype = float if np.isrealobj(value) else complex
        array = np.array(value, dtype=dtype) if dtype is complex or np.isrealobj(value) else None
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None:
        reason = f"cannot read {_shown(value):.60} as a {getattr(dtype, '__name__', 'numeric')} array"
    elif not (array.size and array.ndim == (1 if shape == "vector" else 2)
              and (shape != "square matrix" or array.shape[0] == array.shape[1])):
        reason = f"need a non-empty {shape}, got shape {array.shape}"
    elif not np.isfinite(array).all():
        reason = f"need finite entries, got {array[~np.isfinite(array)][0].item()!r}"
    else:
        return array
    raise ScenarioValidationError(refuse, reason) if isinstance(refuse, str) else refuse(reason)


def _saturated(residual) -> float:
    """``residual`` as a float, the largest double if it overflowed (to inf, or to NaN by
    inf − inf, under ``np.errstate``): a check of finite entries reads a finite number."""
    return float(np.fmin(residual, sys.float_info.max))


def _hermitian(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """A square matrix's Hermiticity residual max |M − M†|, :func:`_saturated`, and its
    Hermitian part 0.5·M + 0.5·M†, halved first: a sum of finite entries may overflow."""
    with np.errstate(over="ignore"):
        residual = _saturated(np.max(np.abs(matrix - matrix.conj().T)))
    return residual, 0.5 * matrix + 0.5 * matrix.conj().T


def _frozen(value):
    """``value``, each array in it or in it as a tuple made read-only, a view's base too."""
    for array in value if isinstance(value, tuple) else (value,):
        while isinstance(array, np.ndarray):
            array.setflags(write=False)
            array = array.base
    return value


def _hold(obj, **fields) -> None:
    """Set the ``fields`` of the frozen ``obj``, each held as :func:`_frozen` leaves it."""
    for name, value in fields.items():
        object.__setattr__(obj, name, _frozen(value))


class _Value:
    """Base of the frozen value types, built as written: it generates no code.

    A subclass's own annotations, in order, name its constructor's parameters (``ARGS``),
    and a class attribute of the same name is a parameter's default.  The constructor sets
    them, then calls ``__post_init__``, which checks them and may set derived fields with
    :func:`_hold`.  Two objects of one class are equal, and hash alike, when their
    ``_key()``, by default the ``ARGS`` values, are; ``repr`` shows the ``ARGS``.  Setting
    or deleting an attribute raises ``dataclasses.FrozenInstanceError``.  A dataclass would
    do the same, but generates its methods from source at every import.
    """

    ARGS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.ARGS = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self.ARGS
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated {name!r}")
            values[name] = value
        for name in names:
            try:
                value = values[name] if name in values else getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}") from None
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.ARGS)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.ARGS)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _identity_residual(product: np.ndarray) -> float:
    return float(np.max(np.abs(product - np.eye(product.shape[1]))))


class Context(_Value):
    """An ordered orthonormal basis; column ``basis[:, j]`` is outcome ``j``'s vector, and
    ``id`` a string, its label.

    A matrix M within ``INPUT_TOL`` of orthonormal is admitted, and ``basis`` holds its nearest
    unitary M (1.5·I − 0.5·M†M), one Newton–Schulz step toward M's polar factor: O(residual²)
    from it, and M itself when M†M = I exactly, as for the identity.  ``orthonormality`` is
    max |M†M − I| of M as given, the largest double if it overflows.  ``adjoint`` is
    ``basis.conj().T`` and ``dim`` the side length, an integer >= 2 (``MAX_DIM`` bounds only a
    recipe's: a matrix given here is already made), both set once here; ``adjoint`` is
    read-only like ``basis``.  Overlaps with another context come from :meth:`overlaps`, one
    memoized table per partner, and the two return tables through an intermediate context
    from :meth:`return_tables`, memoized the same way.
    """

    id: str
    basis: np.ndarray

    def __post_init__(self):
        _instance("id", self.id, str)
        basis = _read_array(self.basis, NonOrthonormalInput, complex, "square matrix")
        dim = _integer("dim", basis.shape[0], 2)
        with np.errstate(over="ignore", invalid="ignore"):
            product = basis.conj().T @ basis
            residual = _saturated(_identity_residual(product))
        if not residual <= INPUT_TOL:
            raise NonOrthonormalInput(
                f"columns not orthonormal: residual {residual:.3e} exceeds {INPUT_TOL:.0e}",
                residual,
            )
        basis = basis @ (1.5 * np.eye(dim) - 0.5 * product)
        # A transposed view of a conjugate copy, held read-only with its base.  It
        # must stay a view: a C-ordered copy changes BLAS's summation order in
        # ``adjoint @ v``, and with it the last bits of every report.
        _hold(self, basis=basis, adjoint=basis.conj().T, dim=dim, orthonormality=residual,
              _overlaps={}, _returns={})

    def overlaps(self, other: "Context") -> np.ndarray:
        """Read-only table W[j, i] = ⟨v_j|u_i⟩: ``self``'s outcome j, ``other``'s outcome i.

        It is ``adjoint @ other.basis``, computed on first use and memoized per
        partner object.  The memo is keyed by identity, never by ``==``: two
        contexts with the same ``id`` label may hold different bases.  The
        partner is stored with its table, so its ``id()`` cannot be reused.
        """
        entry = self._overlaps.get(id(other))
        if entry is None:
            if other.dim != self.dim:
                raise DimensionMismatch(f"dims differ: {self.dim} vs {other.dim}")
            entry = self._overlaps[id(other)] = (other, _frozen(self.adjoint @ other.basis))
        return entry[1]

    def return_tables(self, mid: "Context") -> tuple[np.ndarray, np.ndarray]:
        """Read-only return tables [k, i] from outcome i back to outcome k through ``mid``.

        The reversible table is |Σ_j ⟨u_k|v_j⟩⟨v_j|u_i⟩|², one product of the two overlap
        tables, and the irreversible one Σ_j |⟨u_k|v_j⟩|² |⟨v_j|u_i⟩|² = TᵀT, T = |⟨v_j|u_i⟩|²:
        the ends of a meter's dial through ``mid``, all-ones and identity overlaps.  Both are
        computed on first use, clamped once by :func:`clamp_probabilities`, and memoized per
        intermediate object, keyed by identity as in :meth:`overlaps`.
        """
        entry = self._returns.get(id(mid))
        if entry is None:
            there = mid.overlaps(self)
            amps = self.overlaps(mid) @ there
            reversible = clamp_probabilities(amps.real**2 + amps.imag**2)
            t = there.real**2 + there.imag**2
            irreversible = clamp_probabilities(t.T @ t)
            entry = self._returns[id(mid)] = (mid, _frozen((reversible, irreversible)))
        return entry[1]

    def modality(self, index: int) -> "Modality":
        return Modality(self, index)

    # Identity is the label, not the matrix: two contexts with equal bases but
    # different ids are distinct protocol steps.
    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"Context(id={self.id!r}, dim={self.dim})"


class Modality(_Value):
    """One certain, repeatable outcome of one context; ``index`` is an integer, not a bool."""

    context: Context
    index: int

    def __post_init__(self):
        check_index("index", self.index, _instance("context", self.context, Context).dim)

    @property
    def dim(self) -> int:
        return self.context.dim

    @property
    def vector(self) -> np.ndarray:
        return self.context.basis[:, self.index]


def transition_matrix(frm: Context, to: Context) -> np.ndarray:
    """All N² outcome-to-outcome probabilities between two contexts.

    Entry (j, i) is the probability of outcome j of ``to`` given outcome i
    of ``frm``.  Entries are squared moduli of a unitary's entries, so every
    row and every column sums to 1 (doubly stochastic).
    """
    amps = to.overlaps(frm)
    return clamp_probabilities(amps.real**2 + amps.imag**2)


def irreversible_return(initial: Modality, intermediate: Context, final_index: int) -> float:
    """Return probability when an outcome is realized in the intermediate context.

    Probabilities add over the intermediate outcomes:
    Σ_j |⟨u_k|v_j⟩|² |⟨v_j|u_i⟩|², read off the memoized
    :meth:`Context.return_tables`.
    """
    check_index("final_index", final_index, initial.context.dim)
    return initial.context.return_tables(intermediate)[1].item(final_index, initial.index)


def reversible_return(initial: Modality, intermediate: Context, final_index: int) -> float:
    """Return probability when no intermediate outcome is realized.

    Amplitudes add over the intermediate outcomes, |Σ_j ⟨u_k|v_j⟩⟨v_j|u_i⟩|²;
    by the closure relation this is δ_{k,i}, but the sum is evaluated
    numerically (one product of the two overlap tables, memoized in
    :meth:`Context.return_tables`) rather than asserted, so the identity is a
    tested consequence.
    """
    check_index("final_index", final_index, initial.context.dim)
    return initial.context.return_tables(intermediate)[0].item(final_index, initial.index)


def interference_returns(initial: Modality, intermediate: Context, phases: np.ndarray) -> np.ndarray:
    """Amplitude-summed return probability to every outcome k, a phase dialed onto each path.

    |Σ_j e^{iφ_j} ⟨u_k|v_j⟩⟨v_j|u_i⟩|² for all k at once: row k of the
    table of path products holds the N paths from outcome i back to outcome
    k.  All phases zero reduces to :func:`reversible_return`.
    """
    phases = _read_array(phases, "phases", float, "vector")
    if phases.size != intermediate.dim:
        raise DimensionMismatch(f"need {intermediate.dim} phases, got shape {phases.shape}")
    amps = (np.exp(1j * phases) * _paths(initial, intermediate)).sum(axis=1)
    return clamp_probabilities(amps.real**2 + amps.imag**2)


def _paths(initial: Modality, intermediate: Context) -> np.ndarray:
    """The path table P[k, j] = ⟨u_k|v_j⟩⟨v_j|u_i⟩ from outcome i back to each outcome k through
    outcome j of ``intermediate``; the overlaps raise on a dim mismatch."""
    ctx = initial.context
    return ctx.overlaps(intermediate) * intermediate.overlaps(ctx)[:, initial.index]


def _number(field: str, value, least: float | None = None) -> float:
    """``value`` as a float, or the refusal of all but a finite real >= ``least``, bools too;
    an integer past a double is no finite real."""
    try:  # converted first: compared as it is, a float32 would cast the bound to inf
        number = float(value) if isinstance(value, (float, int, Real)) else math.nan
    except OverflowError:
        number = math.inf
    if isinstance(value, bool) or not math.isfinite(number):
        raise ScenarioValidationError(field, f"expected a number, got {_shown(value)}")
    if least is not None and number < least:
        raise ScenarioValidationError(field, f"must be >= {least}, got {_shown(value, str)}")
    return number


def _instance(field: str, value, cls):
    """``value``, or the refusal of anything but a ``cls``."""
    if not isinstance(value, cls):
        raise ScenarioValidationError(field, f"expected a {cls.__name__}, got {_shown(value):.60}")
    return value


def _sequence(field: str, value, cls=None) -> tuple:
    """``value`` as a tuple, each item a ``cls`` if given; refused as ``field`` or ``field[s]``."""
    try:
        items = tuple(value)
    except TypeError:
        reason = f"expected a sequence, got {_shown(value):.60}"
        raise ScenarioValidationError(field, reason) from None
    for s, item in enumerate(items if cls else ()):
        _instance(f"{field}[{s}]", item, cls)
    return items


def _integer(field: str, value, least: int | None = None, most: int | None = None) -> int:
    """``value`` as an int, or the refusal of anything but an integer in [``least``, ``most``]."""
    if type(value) is not int and not is_integer(value):  # a plain int skips the ABC check
        raise ScenarioValidationError(field, f"expected an integer, got {_shown(value)}")
    if least is not None and value < least:
        raise ScenarioValidationError(field, f"must be >= {least}, got {_shown(value, str)}")
    if most is not None and value > most:
        raise ScenarioValidationError(field, f"must be <= {most}")
    return int(value)


class _Recipe:
    """A frozen recipe, the first base of a :class:`_Value`.  Made, it refuses an unknown kind,
    a field its kind reads unset or one it ignores set, and holds an ``explicit`` matrix as a
    read-only complex copy; its ``_key`` is its kind, its ``dim`` (if it has one) and that
    field, a matrix as shape and bytes."""

    FIELDS: dict[str, tuple[str, ...]]
    WHAT: str  # the recipe's name in the refusal of an unknown kind

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in self.FIELDS):
            raise ScenarioValidationError("kind", f"unknown {self.WHAT} kind {_shown(self.kind)}")
        for name in sorted({name for names in self.FIELDS.values() for name in names}):
            needed = name in self.FIELDS[self.kind]
            if (getattr(self, name) is None) == needed:
                reason = "missing required key" if needed else "unknown key"
                raise ScenarioValidationError(name, reason)
        if self.kind == "explicit":
            _hold(self, matrix=_read_array(self.matrix, "matrix", complex, "matrix"))

    def _key(self) -> tuple:
        values = [getattr(self, name) for name in self.FIELDS[self.kind]]
        values = [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values]
        return (self.kind, getattr(self, "dim", None), *values)


def _square(matrix: np.ndarray, dim: int) -> None:
    """Refuse a recipe's matrix unless it is dim × dim, with a scenario's texts for rows."""
    if len(matrix) != dim:
        raise ScenarioValidationError("matrix", f"expected {dim} rows")
    if matrix.shape[1] != dim:
        raise ScenarioValidationError("matrix[0]", f"expected {dim} entries")


# The field each kind of context reads besides ``dim``: a file's context holds ``kind`` and it.
CONTEXT_FIELDS = {"computational": (), "fourier": (), "rotation": ("theta",), "haar": ("seed",),
                  "explicit": ("matrix",)}


class ContextSpec(_Recipe, _Value):
    """Recipe for a context, as a scenario file declares it; it checks itself when made.

    ``kind`` is a key of ``CONTEXT_FIELDS``, and only the field it reads is set: ``theta``
    (radians, finite), ``seed`` (an integer >= 0) or ``matrix`` (dim × dim, held as a
    read-only complex copy).  ``dim`` is an integer in [2, ``MAX_DIM``], and 2 for
    ``rotation``.  Two recipes are equal, and hash alike, when kind, dim and that field are.
    """

    FIELDS, WHAT = CONTEXT_FIELDS, "context"

    kind: str
    dim: int
    theta: float | None = None
    seed: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        dim = _integer("dim", self.dim, 2, MAX_DIM)
        if self.kind == "rotation" and dim != 2:
            reason = f"rotation contexts require dim 2, scenario has dim {dim}"
            raise ScenarioValidationError("dim", reason)
        _hold(self, dim=dim)
        if self.kind == "rotation":
            _hold(self, theta=_number("theta", self.theta))
        if self.kind == "haar":
            _hold(self, seed=_integer("seed", self.seed, 0))
        if self.kind == "explicit":
            _square(self.matrix, dim)


def computational_context(dim: int, id: str | None = None) -> Context:
    """Standard basis of C^dim."""
    return build_context(ContextSpec("computational", dim), id)


def fourier_context(dim: int, id: str | None = None) -> Context:
    """Discrete-Fourier basis, column j has entries exp(2πi·k·j/dim)/√dim."""
    return build_context(ContextSpec("fourier", dim), id)


def rotation_context(theta: float, id: str | None = None) -> Context:
    """Two-dimensional basis tilted by theta: column 0 is (cos θ/2, sin θ/2), so transition
    probabilities against the computational basis are cos²(θ/2) and sin²(θ/2)."""
    return build_context(ContextSpec("rotation", 2, theta=theta), id)


def haar_context(dim: int, seed: int, id: str | None = None) -> Context:
    """Haar-random basis; bit-identical for identical (dim, seed)."""
    return build_context(ContextSpec("haar", dim, seed=seed), id)


def build_context(spec: ContextSpec, id: str | None = None) -> Context:
    """The context a :class:`ContextSpec` describes, deterministic given the spec.

    The spec checked itself when made; only :class:`Context` can still refuse an
    ``explicit`` matrix (``NonOrthonormalInput``), and it holds an admitted one repaired.
    ``id`` is a string, or None or empty for the kind's default label; a Haar seed past
    ``str``'s digit limit cannot label its context, so it needs an ``id``.
    """
    if id is not None:
        _instance("id", id, str)
    kind, dim = spec.kind, spec.dim
    if kind == "computational":
        return Context(id or f"computational:{dim}", np.eye(dim, dtype=complex))
    if kind == "fourier":
        k = np.arange(dim)
        basis = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
        return Context(id or f"fourier:{dim}", basis)
    if kind == "rotation":
        half = 0.5 * spec.theta
        c, s = np.cos(half), np.sin(half)
        basis = np.array([[c, -s], [s, c]], dtype=complex)
        return Context(id or f"rotation:{spec.theta!r}", basis)
    if kind == "haar":
        try:
            id = id or f"haar:{dim}:{spec.seed}"
        except ValueError:  # sys.get_int_max_str_digits() exceeded
            reason = f"{_shown(spec.seed, str)} is too long for the default label; give an id"
            raise ScenarioValidationError("seed", reason) from None
        return Context(id, _haar_unitary(dim, spec.seed))
    return Context(id or "explicit", spec.matrix)


def context_change_unitary(frm: Context, to: Context) -> np.ndarray:
    """Unitary U mapping each basis vector of ``frm`` onto the same-index vector of ``to``.

    U = Σ_i |v_i⟩⟨u_i|, so U maps the projector set of ``frm`` onto that of
    ``to``; composing A→B with B→C gives A→C and every change has an inverse.
    """
    if frm.dim != to.dim:
        raise DimensionMismatch(f"dims differ: {frm.dim} vs {to.dim}")
    return to.basis @ frm.adjoint


def _haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary of the ``haar`` kind, bit-identical per (dim, seed): PCG64 complex
    Gaussians orthonormalized by QR, R's diagonal made real positive (which makes it Haar)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
