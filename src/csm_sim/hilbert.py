"""Measurement contexts as orthonormal bases of a finite-dimensional complex space.

A context is an ordered orthonormal basis of C^N; column ``j`` of
``Context.basis`` is the vector attached to outcome ``j``.  A modality is one
outcome of one context, i.e. a (context, index) pair carrying a rank-one
projector.  Changes of context are unitary matrices mapping one basis onto
another, and they compose as a group.

Contexts compare by ``id``, not by matrix equality: whether two setups are
"the same context" is a protocol-level statement, so equality follows the
label chosen at construction time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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


def check_index(what: str, index, dim: int) -> None:
    """Refuse ``index`` unless it is an integer in [0, dim); a bool is not an integer here."""
    if isinstance(index, bool) or not isinstance(index, numbers.Integral):
        raise IndexOutOfRange(f"{what} {index!r} is not an integer")
    if not 0 <= index < dim:
        raise IndexOutOfRange(f"{what} {index} not in [0, {dim})")


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
        basis = np.array(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise NonOrthonormalInput(f"basis must be square, got shape {basis.shape}", np.inf)
        if basis.shape[0] < 2:
            raise DimensionMismatch(f"context dimension must be >= 2, got {basis.shape[0]}")
        # A transposed view of a read-only conjugate copy, so read-only too.  It
        # must stay a view: a C-ordered copy changes BLAS's summation order in
        # ``adjoint @ v``, and with it the last bits of every report.
        conjugate = basis.conj()
        conjugate.setflags(write=False)
        residual = _identity_residual(conjugate.T @ basis)
        if not residual <= INPUT_TOL:
            raise NonOrthonormalInput(
                f"columns not orthonormal: residual {residual:.3e} exceeds {INPUT_TOL:.0e}",
                residual,
            )
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "adjoint", conjugate.T)
        object.__setattr__(self, "dim", basis.shape[0])
        object.__setattr__(self, "orthonormality", residual)
        object.__setattr__(self, "_overlaps", {})
        object.__setattr__(self, "_returns", {})

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
            table = self.adjoint @ other.basis
            table.setflags(write=False)
            entry = self._overlaps[id(other)] = (other, table)
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
            reversible.setflags(write=False)
            irreversible.setflags(write=False)
            entry = self._returns[id(mid)] = (mid, (reversible, irreversible))
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


@dataclass(frozen=True)
class ContextSpec:
    """Declarative recipe for a context, as it appears in scenario files.

    ``kind`` is one of ``computational``, ``fourier``, ``rotation``, ``haar``
    or ``explicit``; ``theta`` (radians), ``seed`` and ``matrix`` apply to the
    kinds that need them.
    """

    kind: str
    dim: int
    theta: float | None = None
    seed: int | None = None
    matrix: np.ndarray | None = None


def computational_context(dim: int, id: str | None = None) -> Context:
    """Standard basis of C^dim."""
    return Context(id or f"computational:{dim}", np.eye(dim, dtype=complex))


def fourier_context(dim: int, id: str | None = None) -> Context:
    """Discrete-Fourier basis, column j has entries exp(2πi·k·j/dim)/√dim."""
    k = np.arange(dim)
    basis = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    return Context(id or f"fourier:{dim}", basis)


def rotation_context(theta: float, id: str | None = None) -> Context:
    """Two-dimensional basis tilted by theta.

    Column 0 is (cos θ/2, sin θ/2), column 1 its orthogonal complement, so
    transition probabilities against the computational basis are cos²(θ/2)
    and sin²(θ/2).
    """
    half = 0.5 * theta
    c, s = np.cos(half), np.sin(half)
    basis = np.array([[c, -s], [s, c]], dtype=complex)
    return Context(id or f"rotation:{float(theta)!r}", basis)


def haar_context(dim: int, seed: int, id: str | None = None) -> Context:
    """Haar-random basis; bit-identical for identical (dim, seed)."""
    return Context(id or f"haar:{dim}:{seed}", haar_random_unitary(seed, dim))


def build_context(spec: ContextSpec, id: str | None = None) -> Context:
    """Construct the context a :class:`ContextSpec` describes.

    Construction is deterministic given the spec, including the seed of the
    ``haar`` kind.

    Raises
    ------
    DimensionMismatch
        ``rotation`` requested with dim != 2, or dim < 2.
    NonOrthonormalInput
        ``explicit`` matrix fails the orthonormality tolerance.
    ScenarioValidationError
        A field the kind needs is missing, the kind is unknown, or a ``haar``
        seed is negative; ``field`` and ``reason`` read as the parser's.

    An admitted ``explicit`` matrix may miss orthonormality by up to
    ``INPUT_TOL``, enough to push a return probability past the clamp; the
    context holds its polar factor W Vᴴ (from the SVD, the nearest unitary)
    instead, and ``orthonormality`` keeps the residual of the matrix as given.
    """
    if spec.dim < 2:
        raise DimensionMismatch(f"context dimension must be >= 2, got {spec.dim}")
    if spec.kind == "computational":
        return computational_context(spec.dim, id)
    if spec.kind == "fourier":
        return fourier_context(spec.dim, id)
    if spec.kind == "rotation":
        if spec.dim != 2:
            raise DimensionMismatch(f"rotation contexts require dim 2, got {spec.dim}")
        if spec.theta is None:
            raise ScenarioValidationError("theta", "missing required key")
        return rotation_context(spec.theta, id)
    if spec.kind == "haar":
        if spec.seed is None:
            raise ScenarioValidationError("seed", "missing required key")
        if spec.seed < 0:
            raise ScenarioValidationError("seed", f"must be >= 0, got {spec.seed}")
        return haar_context(spec.dim, spec.seed, id)
    if spec.kind == "explicit":
        if spec.matrix is None:
            raise ScenarioValidationError("matrix", "missing required key")
        matrix = np.asarray(spec.matrix, dtype=complex)
        if matrix.shape != (spec.dim, spec.dim):
            raise DimensionMismatch(
                f"explicit matrix shape {matrix.shape} does not match dim {spec.dim}"
            )
        given = Context(id or "explicit", matrix)
        w, _, vh = np.linalg.svd(given.basis)
        ctx = Context(given.id, w @ vh)
        object.__setattr__(ctx, "orthonormality", given.orthonormality)
        return ctx
    raise ScenarioValidationError("kind", f"unknown context kind {spec.kind!r}")


def context_change_unitary(frm: Context, to: Context) -> np.ndarray:
    """Unitary U mapping each basis vector of ``frm`` onto the same-index vector of ``to``.

    U = Σ_i |v_i⟩⟨u_i|, so U maps the projector set of ``frm`` onto that of
    ``to``; composing A→B with B→C gives A→C and every change has an inverse.
    """
    if frm.dim != to.dim:
        raise DimensionMismatch(f"dims differ: {frm.dim} vs {to.dim}")
    return to.basis @ frm.adjoint


def haar_random_unitary(seed: int, dim: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic per seed.

    Draws a dim×dim matrix of independent standard complex Gaussians from a
    PCG64 generator and orthonormalizes it by QR, rescaling so that R's
    diagonal is real positive; that phase convention makes the distribution
    exactly Haar and the output reproducible.

    Parameters
    ----------
    seed : int
        PRNG seed; identical seeds give bit-identical matrices.
    dim : int
        Matrix dimension, >= 2.
    """
    if dim < 2:
        raise DimensionMismatch(f"dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
