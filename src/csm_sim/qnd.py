"""Indirect measurement through a meter, with tunable strength.

Instead of realizing an outcome in the intermediate (pointer) context directly, the system is
entangled with an auxiliary meter: branch ``j`` of the pointer context gets tagged with a meter
state ``|w_j⟩``.  Nothing observable depends on the meter states themselves, only on their
pairwise overlaps ⟨w_j|w_j'⟩, collected in a Hermitian positive-semidefinite matrix with unit
diagonal.  That overlap matrix is the strength dial: identity overlaps reproduce a projective
measurement of the pointer context, all-ones overlaps leave the system untouched, and everything
in between is a weak measurement.

The overlap matrix is a frozen :class:`Gram`, validated once at construction;
every function here takes one and trusts it, and :func:`build_gram` trusts its
:class:`GramSpec`, which checks its kind's rules when made.  Tolerance checks
read ``not residual <= tol``, so a NaN fails them.  One floor, ``INPUT_TOL``, bounds the
overlap matrix's PSD test, the rank cut and overlap residual of realized meter states, and a
composite state's distance from unit norm; an admitted state is read as its normalized ray.

There is one reduced-state kernel, :func:`_chain_states`, the closed form (b b†) ∘ conj(G)^m
with b_j = ⟨v_j|u_i⟩ over a chunk of chain lengths m: the ``m_count`` sweep reads it a chunk at a
time, and :func:`meter_chain_reduced_state`, which ``run``'s meter and ``verify`` read at m = 1,
is its one-length table.  Identity overlaps at m = 1 give the projective measurement's state.
The ``g`` sweep takes the dial's ends as diag|b|², b b† and ``Context.return_tables``, and
deflates the spectrum between them in ``runner``.  The entropy a meter leaves,
:func:`von_neumann_entropy`, is the Shannon entropy of that state's spectrum.  The composite
route (meter states realized from the overlaps, :func:`entangle`, :func:`reduced_system_state`)
is the referee of ``verify``.

Conventions: meter states are stored as the columns of an M×N complex matrix, with M the meter
dimension; composite amplitudes are indexed ``j * M + l`` for system branch ``j`` (pointer basis)
and meter component ``l``; composite and reduced density matrices use pointer-basis coordinates
on the system factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError, InvalidGramMatrix
from .errors import ScenarioValidationError
from .hilbert import INPUT_TOL, MAX_DIM, Context, Modality, _hold, _integer, _number, _read_array
from .hilbert import _entropy, _hermitian, _Recipe, _square, _Value
from .hilbert import clamp_probabilities, validate_distribution


class Gram(_Value):
    """Overlap matrix of N unit meter states: square, Hermitian, unit diagonal, PSD.

    Checked once here, by ``eigvalsh`` (smallest eigenvalue not below ``-INPUT_TOL``) of the
    Hermitian part of the given matrix with its diagonal set to 1, which ``matrix`` holds (the
    same bits for an exact input), with its eigenvalues, ascending, in ``eigvals`` and its side
    in ``dim``: admitted residuals of up to ``INPUT_TOL`` each would add up past the probability
    clamp.  A residual that overflows saturates at the largest double, as a basis's does.  Two
    overlap matrices are equal only if they are the same object.
    """

    matrix: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self):
        given = _read_array(self.matrix, InvalidGramMatrix, complex, "square matrix")
        hermitian, matrix = _hermitian(given)
        for what, residual in (
            ("is not Hermitian", hermitian),
            ("diagonal is not 1", float(np.max(np.abs(np.diagonal(given) - 1.0)))),
        ):
            if not residual <= INPUT_TOL:
                raise InvalidGramMatrix(
                    f"overlap matrix {what}: residual {residual:.3e} exceeds {INPUT_TOL:.0e}",
                    residual,
                )
        np.fill_diagonal(matrix, 1.0)
        eigvals = np.linalg.eigvalsh(matrix)
        if not eigvals[0] >= -INPUT_TOL:
            raise InvalidGramMatrix(
                f"smallest eigenvalue {eigvals[0]:.3e} below -{INPUT_TOL:.0e}", -float(eigvals[0])
            )
        _hold(self, matrix=matrix, eigvals=eigvals, dim=len(matrix))


def _strength(field: str, value) -> float:
    """A meter strength as a float, or the refusal of anything but a finite real in [0, 1]."""
    g = _number(field, value)
    if not 0.0 <= g <= 1.0:
        raise ScenarioValidationError(field, f"strength {g!r} outside [0, 1]")
    return g


def _chain_length(field: str, value) -> int:
    """A meter chain's length as an int, or the refusal of anything but an integer >= 0 that a
    double holds: past one, NumPy cannot raise the overlaps to it."""
    m_count = _integer(field, value, 0)
    _number(field, m_count)  # an integer past a double is no number
    return m_count


# The field each kind of overlap matrix reads: a file's gram object holds ``kind`` and it.
GRAM_FIELDS = {"uniform": ("g",), "explicit": ("matrix",)}


class GramSpec(_Recipe, _Value):
    """Recipe for an overlap matrix, as a scenario file declares it; it checks itself when made.

    ``kind`` is a key of ``GRAM_FIELDS``, and only the field it reads is set: ``g`` (a finite
    real in [0, 1], held as a float) or ``matrix`` (held as a read-only complex copy, which
    :class:`Gram` checks).  Two recipes are equal, and hash alike, when kind and that field are.
    """

    FIELDS, WHAT = GRAM_FIELDS, "gram"

    kind: str
    g: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "uniform":
            _hold(self, g=_strength("g", self.g))


def build_gram(spec: GramSpec, n: int) -> Gram:
    """The overlap matrix of ``n`` meter states that a :class:`GramSpec` describes.

    ``n`` is an integer in [0, ``MAX_DIM``], and an explicit matrix must be n × n
    (``ScenarioValidationError`` otherwise); :class:`Gram` refuses the empty matrix of ``n = 0``.
    """
    n = _integer("n", n, 0, MAX_DIM)
    if spec.kind == "explicit":
        _square(spec.matrix, n)
        return Gram(spec.matrix)
    gram = np.full((n, n), complex(spec.g))
    np.fill_diagonal(gram, 1.0)
    return Gram(gram)


def gram_uniform(n: int, g: float) -> Gram:
    """Overlap matrix with unit diagonal and constant off-diagonal ``g`` in [0, 1].

    ``g = 0`` is the projective-measurement limit (orthogonal meter states), ``g = 1`` the
    no-measurement limit (indistinguishable meter states); it is PSD on the whole range.
    """
    return build_gram(GramSpec("uniform", g=g), n)


def meter_states_from_gram(gram: Gram) -> np.ndarray:
    """Realize unit vectors whose pairwise overlaps reproduce ``gram``.

    Returns an M×N matrix whose column ``j`` is ``|w_j⟩``, with M the numerical rank of the
    overlap matrix (eigenvalues above ``INPUT_TOL``).  The construction is an eigendecomposition
    with eigenvalues sorted descending and each eigenvector's largest-magnitude component made
    real positive, so the output is deterministic given the input.  They reproduce the overlaps
    within ``INPUT_TOL``, the largest eigenvalue the rank cut may drop.
    """
    eigvals, eigvecs = np.linalg.eigh(gram.matrix)
    order = np.argsort(-eigvals, kind="stable")
    order = order[eigvals[order] > INPUT_TOL]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    pivot = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(len(eigvals))]
    eigvecs /= pivot / np.hypot(pivot.real, pivot.imag)  # libm's; np.abs of an array may differ
    states = np.sqrt(eigvals)[:, None] * eigvecs.conj().T
    residual = float(np.max(np.abs(states.conj().T @ states - gram.matrix)))
    if not residual <= INPUT_TOL:
        raise InternalConsistencyError(
            f"realized meter states reproduce overlaps only to {residual:.3e}"
        )
    return states


def _branch(initial: Modality, pointer: Context, n: int) -> np.ndarray:
    """b_j = ⟨v_j|u_i⟩ for every pointer outcome, once the three dims agree."""
    if not initial.dim == pointer.dim == n:
        raise DimensionMismatch(f"dims differ: {initial.dim}, {pointer.dim}, {n}")
    return pointer.adjoint @ initial.vector


def entangle(initial: Modality, pointer: Context, meters: np.ndarray) -> np.ndarray:
    """Composite state after the system-meter coupling.

    Branch ``j`` of the pointer context carries amplitude ⟨v_j|u_i⟩ and tags the meter
    with ``|w_j⟩``, column ``j`` of ``meters``, a non-empty M×N matrix; the returned vector
    holds amplitude ⟨v_j|u_i⟩ · (w_j)_l at index ``j * M + l``, as computed.  It is refused
    as :func:`reduced_system_state` refuses it: unless its norm is within ``INPUT_TOL`` of 1.
    """
    meters = _read_array(meters, "meters", complex, "matrix")
    m_dim, n = meters.shape
    state = (_branch(initial, pointer, n)[:, None] * meters.T).reshape(n * m_dim)
    _branches(state, pointer)
    return state


def meter_return_probabilities(initial: Modality, pointer: Context, gram: Gram) -> np.ndarray:
    """Probability of every outcome ``k`` back in the initial context after meter coupling.

    Quadratic form Σ_{j,j'} ⟨u_i|v_j⟩⟨v_j|u_k⟩ ⟨w_j|w_j'⟩ ⟨u_k|v_j'⟩⟨v_j'|u_i⟩ in the per-path
    amplitudes, one row of the path-amplitude matrix per ``k``; real up to rounding for a Hermitian
    overlap matrix.  Identity overlaps make it the probability-summed return, all-ones overlaps the
    amplitude-summed (certain) return.
    """
    branch = _branch(initial, pointer, gram.dim)
    paths = initial.context.overlaps(pointer) * branch  # ⟨u_k|v_j⟩⟨v_j|u_i⟩
    values = np.sum(paths.conj() * (paths @ gram.matrix.T), axis=1)
    residue = float(np.max(np.abs(values.imag)))
    if not residue <= INPUT_TOL:
        raise InternalConsistencyError(f"imaginary residue {residue!r} in return probabilities")
    return clamp_probabilities(values.real)


def _branches(state: np.ndarray, pointer: Context) -> np.ndarray:
    """The one reader of a composite state, a vector of N·M entries (else ``DimensionMismatch``):
    its unit ray as an N×M matrix, row ``j`` pointer branch ``j``'s meter.  A state of norm off 1
    by more than ``INPUT_TOL`` is refused."""
    state = _read_array(state, "state", complex, "vector")
    n = pointer.dim
    if state.size % n:
        raise DimensionMismatch(f"composite state of shape {state.shape} does not fit dim {n}")
    with np.errstate(over="ignore"):  # an overflowing norm is off 1 too
        norm = float(np.linalg.norm(state))
    if not abs(norm - 1.0) <= INPUT_TOL:
        reason = f"norm {norm!r} is off 1 by more than {INPUT_TOL:.0e}"
        raise ScenarioValidationError("state", reason)
    return (state / norm).reshape(n, state.size // n)


def composite_return_probabilities(
    state: np.ndarray, context: Context, pointer: Context
) -> np.ndarray:
    """Return probability of every outcome ``k`` read off an explicit composite state.

    Entry ``k`` is the expectation of (projector onto outcome ``k`` of ``context``) ⊗ 1 in
    ``state``; the overlap-matrix route of :func:`meter_return_probabilities` must reproduce it.
    """
    meter_components = context.overlaps(pointer) @ _branches(state, pointer)
    weights = meter_components.real**2 + meter_components.imag**2
    return clamp_probabilities(weights.sum(axis=1))


def reduced_system_state(state: np.ndarray, pointer: Context) -> np.ndarray:
    """System state after tracing out the meter, in pointer-basis coordinates.

    For the entangled state this gives element (j, j') = c_j c̄_j' ⟨w_j'|w_j⟩: off-diagonal
    coherence survives exactly to the extent the meter states overlap.
    """
    branches = _branches(state, pointer)
    return branches @ branches.conj().T


def _chain_states(initial: Modality, pointer: Context, gram: Gram, lengths):
    """:func:`meter_chain_reduced_state` at each length of ``lengths``, in order: one (chunk, N, N)
    table per chunk of at most 2**12 entries or of one length, b b†, r and θ formed once.  The
    first length whose m·max|θ| passes a double is refused."""
    branch = _branch(initial, pointer, gram.dim)
    overlap = gram.matrix.conj()  # ⟨w_j'|w_j⟩ = conj(gram)[j, j']
    outer, modulus = np.outer(branch, branch.conj()), np.minimum(np.abs(overlap), 1.0)
    upper = np.triu(np.angle(overlap), 1)  # angle(-1 + 0j) is π in both triangles
    angle, step = upper - upper.T, max(1, 2**12 // overlap.size)
    for start in range(0, len(lengths), step):
        m = np.array(lengths[start:start + step], dtype=float)[:, None, None]
        power = modulus**m
        phase = np.where(power > 0.0, angle, 0.0)
        with np.errstate(over="ignore"):
            live = m.ravel() * np.abs(phase).max(axis=(1, 2)) < np.inf
        if not live.all():
            reason = f"length {lengths[start + np.argmin(live)]:.3e} turns a unit overlap's phase"
            raise ScenarioValidationError("m_count", f"{reason} past a double")
        yield outer * (power * np.exp(1j * m * phase))


def meter_chain_reduced_state(
    initial: Modality, pointer: Context, gram: Gram, m_count: int
) -> np.ndarray:
    """Reduced system state after coupling to a chain of ``m_count`` identical meters.

    Each meter in the chain multiplies the (j, j') coherence by ⟨w_j'|w_j⟩, so the off-diagonal
    scales with the m_count-th power of the overlap while the diagonal stays put; ``m_count = 0``
    returns the pure pre-meter state.  The power's modulus is r^m, r = min(|⟨w_j'|w_j⟩|, 1), the
    Cauchy–Schwarz bound of unit states: an admitted overlap matrix may hold a modulus up to about
    ``INPUT_TOL`` above 1, which a long chain would grow past any state.  The phase m·θ, θ the
    upper triangle's arg minus its transpose, makes the power Hermitian bit for bit, and is 0 where
    r^m is.  ``m_count`` is an integer >= 0 that a double holds, as each m·|θ| must
    (``ScenarioValidationError`` otherwise).
    """
    return next(_chain_states(initial, pointer, gram, [_chain_length("m_count", m_count)]))[0]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(ρ log ρ) in nats: the Shannon entropy of ρ's spectrum, ``eigvalsh`` of ρ as given.

    ``rho`` is Hermitian within ``INPUT_TOL`` and its spectrum finite (finite entries can
    overflow it) and a distribution, clipped into [0, 1] (:func:`validate_distribution`), or it
    is refused as ``rho``.  An eigenvalue clipped to exactly 0 adds nothing; one ε above 0 ε·|log ε|.
    """
    rho = _read_array(rho, "rho", None, "square matrix")  # complex, or real symmetric
    residual = _hermitian(rho)[0]  # eigvalsh reads the lower triangle alone
    if not residual <= INPUT_TOL:
        raise ScenarioValidationError("rho", f"not Hermitian: residual {residual:.3e}")
    spectrum = np.linalg.eigvalsh(rho)
    if not np.isfinite(spectrum).all():
        bad = spectrum[~np.isfinite(spectrum)][0].item()
        raise ScenarioValidationError("rho", f"need finite eigenvalues, got {bad!r}")
    return _entropy(validate_distribution(spectrum, "rho"))
