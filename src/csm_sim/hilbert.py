"""Measurement contexts as orthonormal bases of a finite-dimensional complex space.

A context is an ordered orthonormal basis of C^N; column ``j`` of
``Context.basis`` is the vector attached to outcome ``j``.  A modality is one
outcome of one context, i.e. a (context, index) pair carrying a rank-one
projector.  Changes of context are unitary matrices mapping one basis onto
another, and they compose as a group.

Contexts compare by ``id``, not by matrix equality: whether two setups are
"the same context" is a protocol-level statement, so equality follows the
label chosen at construction time.

:class:`Context` checks a basis matrix; a :class:`ContextSpec` checks every rule of
its kind when made, and :func:`build_context` and the public constructors, which
make one, trust it.  The package's value rules each have one owner here: ``_number``
and ``_integer`` (a finite real, an integer that is no bool, each with a floor) for every
recipe, document field, grid entry, count, seed and tolerance; ``_read_array`` for every
caller's matrix and vector; ``_Recipe`` for the kind and fields of both recipes;
``INPUT_TOL``, the one floor an input is trusted to; ``_hold`` for a frozen field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalConsistencyError,
    NonOrthonormalInput,
    ScenarioValidationError,
)

# Validation tolerance for user-supplied matrices.
INPUT_TOL = 1e-10


def clamp_probabilities(arr: np.ndarray) -> np.ndarray:
    """Computed probabilities snapped into [0, 1], each within ``INPUT_TOL`` of it.

    The one clamp of every computed probability: an excursion beyond ``INPUT_TOL``
    is a bug, not rounding, and raises :class:`InternalConsistencyError`, as NaN does.
    """
    arr = np.asarray(arr, dtype=float)
    if not (float(np.min(arr)) >= -INPUT_TOL and float(np.max(arr)) <= 1.0 + INPUT_TOL):
        raise InternalConsistencyError("probabilities outside [0,1] beyond tolerance")
    return np.clip(arr, 0.0, 1.0)


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is none."""
    return not isinstance(value, bool) and isinstance(value, Integral)


def check_index(what: str, index, dim: int) -> None:
    """Refuse ``index`` unless it is an integer in [0, dim)."""
    # a plain int skips the ABC check, ~10x the cost of the rest: verify reads dim² per step
    if type(index) is not int and not is_integer(index):
        raise IndexOutOfRange(f"{what} {index!r} is not an integer")
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"{what} {index} not in [0, {dim})")


def _read_array(value, refuse, dtype=complex) -> np.ndarray:
    """A new ``dtype`` (complex or float) array of ``value``, or the domain error
    ``refuse(reason)`` if numpy cannot read one (a malformed string entry, ragged rows, an
    object with no such value, an integer past a double, a complex value read as real)."""
    try:
        if dtype is complex or np.isrealobj(value):
            return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        pass
    raise refuse(f"cannot read {value!r:.60} as a {dtype.__name__} array")


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


def _identity_residual(product: np.ndarray) -> float:
    return float(np.max(np.abs(product - np.eye(product.shape[1]))))


def projector_residual(ctx: "Context") -> float:
    """Worst idempotence and trace residual of the projectors p_j = v_j v_j†.

    In closed form over the columns: p² − p = (‖v‖² − 1) p, whose largest
    entry is |‖v‖² − 1| · max_l |v_l|², and tr p = ‖v‖².  p − p† is left out:
    for ``np.outer(v, v.conj())`` it is only the rounding of one complex
    product per entry (at most 5.6e-17 over 200 Haar bases of dim 2–31),
    whatever the basis, so it measures nothing about the input.
    """
    weights = ctx.basis.real**2 + ctx.basis.imag**2
    norm_gap = np.abs(weights.sum(axis=0) - 1.0)
    return float(max(np.max(norm_gap * weights.max(axis=0)), np.max(norm_gap)))


def closure_residual(ctx: "Context") -> float:
    """Max-norm deviation of Σ_j p_j = B B† from the identity."""
    return _identity_residual(ctx.basis @ ctx.adjoint)


@dataclass(frozen=True, eq=False)
class Context:
    """An ordered orthonormal basis; column ``basis[:, j]`` is outcome ``j``'s vector.

    ``adjoint`` is ``basis.conj().T`` and ``dim`` the side length, both set
    once here; ``adjoint`` is read-only like ``basis``, and ``orthonormality``
    is the B†B residual measured when the basis was admitted (for an explicit
    basis, the residual of the matrix as given: see :func:`build_context`).
    Overlaps with another context come from :meth:`overlaps`, one memoized
    table per partner, and the two return tables through an intermediate
    context from :meth:`return_tables`, memoized per intermediate the same way.
    """

    id: str
    basis: np.ndarray
    adjoint: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)
    orthonormality: float = field(init=False, repr=False)
    _overlaps: dict = field(init=False, repr=False)
    _returns: dict = field(init=False, repr=False)

    def __post_init__(self):
        basis = _read_array(self.basis, lambda reason: NonOrthonormalInput(reason, np.inf))
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise NonOrthonormalInput(f"basis must be square, got shape {basis.shape}", np.inf)
        if basis.shape[0] < 2:
            raise DimensionMismatch(f"context dimension must be >= 2, got {basis.shape[0]}")
        # A transposed view of a conjugate copy, held read-only with its base.  It
        # must stay a view: a C-ordered copy changes BLAS's summation order in
        # ``adjoint @ v``, and with it the last bits of every report.
        adjoint = basis.conj().T
        residual = _identity_residual(adjoint @ basis)
        if not residual <= INPUT_TOL:
            raise NonOrthonormalInput(
                f"columns not orthonormal: residual {residual:.3e} exceeds {INPUT_TOL:.0e}",
                residual,
            )
        _hold(self, basis=basis, adjoint=adjoint, dim=basis.shape[0], orthonormality=residual,
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

        The reversible table is |Σ_j ⟨u_k|v_j⟩⟨v_j|u_i⟩|², one product of the
        two overlap tables; the irreversible one is Σ_j |⟨u_k|v_j⟩|² |⟨v_j|u_i⟩|²,
        which is TᵀT for T = |⟨v_j|u_i⟩|².  Both are computed on first use,
        clamped once by :func:`clamp_probabilities`, and memoized per
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


@dataclass(frozen=True)
class Modality:
    """One certain, repeatable outcome of one context; ``index`` is an integer, not a bool."""

    context: Context
    index: int

    def __post_init__(self):
        check_index("modality index", self.index, self.context.dim)

    @property
    def dim(self) -> int:
        return self.context.dim

    @property
    def vector(self) -> np.ndarray:
        return self.context.basis[:, self.index]


def _number(field: str, value, least: float | None = None) -> float:
    """``value`` as a float, or the refusal of all but a finite real >= ``least``, bools too."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ScenarioValidationError(field, f"expected a number, got {value!r}")
    if least is not None and value < least:
        raise ScenarioValidationError(field, f"must be >= {least}, got {value}")
    return float(value)


def _integer(field: str, value, least: int | None = None) -> int:
    """``value`` as an int, or the refusal of anything but an integer >= ``least``."""
    if not is_integer(value):
        raise ScenarioValidationError(field, f"expected an integer, got {value!r}")
    if least is not None and value < least:
        raise ScenarioValidationError(field, f"must be >= {least}, got {value}")
    return int(value)


class _Recipe:
    """A frozen recipe.  Made, it refuses an unknown kind, a field its kind reads unset or one
    it ignores set, and holds an ``explicit`` matrix as a read-only complex copy; it equals and
    hashes as its kind, its ``dim`` (if it has one) and that field, a matrix as shape and bytes."""

    FIELDS: dict[str, tuple[str, ...]]
    WHAT: str  # the recipe's name in the refusal of an unknown kind

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in self.FIELDS):
            raise ScenarioValidationError("kind", f"unknown {self.WHAT} kind {self.kind!r}")
        for name in sorted({name for names in self.FIELDS.values() for name in names}):
            needed = name in self.FIELDS[self.kind]
            if (getattr(self, name) is None) == needed:
                reason = "missing required key" if needed else "unknown key"
                raise ScenarioValidationError(name, reason)
        if self.kind == "explicit":
            matrix = _read_array(self.matrix, lambda why: ScenarioValidationError("matrix", why))
            _hold(self, matrix=matrix)

    def _key(self) -> tuple:
        values = [getattr(self, name) for name in self.FIELDS[self.kind]]
        values = [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values]
        return (self.kind, getattr(self, "dim", None), *values)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


# The field each kind of context reads besides ``dim``: a file's context holds ``kind`` and it.
CONTEXT_FIELDS = {"computational": (), "fourier": (), "rotation": ("theta",), "haar": ("seed",),
                  "explicit": ("matrix",)}


@dataclass(frozen=True, eq=False)
class ContextSpec(_Recipe):
    """Recipe for a context, as a scenario file declares it; it checks itself when made.

    ``kind`` is a key of ``CONTEXT_FIELDS``, and only the field it reads is set: ``theta``
    (radians, finite), ``seed`` (an integer >= 0) or ``matrix`` (dim × dim, held as a
    read-only complex copy).  ``dim`` is an integer >= 2, and 2 for ``rotation``.  Two
    recipes are equal, and hash alike, when kind, dim and that field are.
    """

    FIELDS, WHAT = CONTEXT_FIELDS, "context"

    kind: str
    dim: int
    theta: float | None = None
    seed: int | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        dim = _integer("dim", self.dim, 2)
        if self.kind == "rotation" and dim != 2:
            reason = f"rotation contexts require dim 2, scenario has dim {dim}"
            raise ScenarioValidationError("dim", reason)
        _hold(self, dim=dim)
        if self.kind == "rotation":
            _hold(self, theta=_number("theta", self.theta))
        if self.kind == "haar":
            _hold(self, seed=_integer("seed", self.seed, 0))
        if self.kind == "explicit":  # the parser's texts, which it gives while it reads rows
            if self.matrix.ndim != 2 or len(self.matrix) != dim:
                raise ScenarioValidationError("matrix", f"expected {dim} rows")
            if self.matrix.shape[1] != dim:
                raise ScenarioValidationError("matrix[0]", f"expected {dim} entries")


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
    ``explicit`` matrix (``NonOrthonormalInput``).  An admitted one may miss
    orthonormality by up to ``INPUT_TOL``, enough to push a return probability past
    the clamp; the context holds its polar factor W Vᴴ (from the SVD, the nearest
    unitary) instead, and ``orthonormality`` keeps the residual of the matrix as given.
    """
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
        return Context(id or f"haar:{dim}:{spec.seed}", _haar_unitary(dim, spec.seed))
    given = Context(id or "explicit", spec.matrix)
    w, _, vh = np.linalg.svd(given.basis)
    ctx = Context(given.id, w @ vh)
    _hold(ctx, orthonormality=given.orthonormality)
    return ctx


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
