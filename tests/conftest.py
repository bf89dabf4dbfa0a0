import math

import numpy as np
import pytest

import csm_sim as cs
from csm_sim.errors import InternalConsistencyError
from csm_sim.hilbert import INPUT_TOL, clamp_probabilities, validate_distribution
from csm_sim.qnd import _chain_states
from csm_sim.runner import _m_count_sweep_rows
from csm_sim.trajectory import CROSS_CHECK_TOL, _check_outcomes, _reference


@pytest.fixture
def z_context():
    return cs.computational_context(2)


@pytest.fixture
def x_context():
    return cs.rotation_context(np.pi / 2)


@pytest.fixture
def balanced(z_context, x_context):
    """Initial |0> of the computational qubit context plus the tilted context."""
    return z_context.modality(0), x_context


def random_unit_gram(n: int, seed: int) -> cs.Gram:
    """Random Hermitian PSD matrix with unit diagonal (complex entries)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = a @ a.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diagonal(gram)))
    gram = gram * np.outer(scale, scale)
    np.fill_diagonal(gram, 1.0)
    return cs.Gram(gram)


def near_unitary(seed: int, dim: int, fraction: float) -> np.ndarray:
    """A Haar basis perturbed so that its B†B residual is ``fraction`` of ``INPUT_TOL``.

    The perturbation is scaled to first order; the second-order term is ~1e-20.
    """
    rng = np.random.default_rng(seed)
    basis = cs.haar_context(dim, seed).basis
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    first_order = float(np.max(np.abs(basis.conj().T @ noise + noise.conj().T @ basis)))
    return basis + fraction * INPUT_TOL / first_order * noise


# Scalar routes to quantities the library computes as tables: independent
# referees, and single-path readers of the trajectory kernels.  Only tests
# read them, so they live here rather than in the package.


def born(a: cs.Modality, b: cs.Modality) -> float:
    """Born probability |⟨a|b⟩|² of two modalities, from their vectors alone."""
    amp = np.vdot(a.vector, b.vector)
    return amp.real * amp.real + amp.imag * amp.imag


def projector(m: cs.Modality) -> np.ndarray:
    """Rank-one projector |u⟩⟨u| of a modality."""
    return np.outer(m.vector, m.vector.conj())


def path_amplitudes(initial: cs.Modality, intermediate: cs.Context, final_index: int) -> np.ndarray:
    """Per-path amplitude products ⟨u_k|v_j⟩⟨v_j|u_i⟩ for every intermediate outcome j.

    The products ``interference_returns`` sums, in the same order, for final outcome k.
    """
    ctx = initial.context
    return ctx.overlaps(intermediate)[final_index] * intermediate.overlaps(ctx)[:, initial.index]


def chain_state(initial: cs.Modality, pointer: cs.Context, gram: cs.Gram, m: int) -> np.ndarray:
    """Reduced state after ``m`` meters by the per-point formula the chain kernel's table
    replaced: (b b†) ∘ r^m e^{i·m·θ}, each power formed on its own with a scalar exponent, θ 0
    where r^m is; ``m`` is a length whose phases a double holds."""
    branch = pointer.adjoint @ initial.vector
    overlap = gram.matrix.conj()
    modulus = np.minimum(np.abs(overlap), 1.0) ** m
    upper = np.triu(np.angle(overlap), 1)
    angle = np.where(modulus > 0.0, upper - upper.T, 0.0)
    return np.outer(branch, branch.conj()) * (modulus * np.exp(1j * m * angle))


CHAIN_BOUND = 8 * float(np.finfo(float).eps)  # a table entry against the per-point formula


def assert_chain_table_refereed(initial: cs.Modality, pointer: cs.Context, gram: cs.Gram, grid):
    """Every state of the chain kernel's tables over ``grid``, and every ``m_count`` sweep row,
    within ``CHAIN_BOUND`` of :func:`chain_state` at its length: the entries, the diagonal and
    the largest off-diagonal magnitude."""
    states = np.concatenate(list(_chain_states(initial, pointer, gram, grid)))
    rows = _m_count_sweep_rows(initial, pointer, gram, grid)
    assert len(states) == len(rows) == len(grid)
    off_diagonal = ~np.eye(gram.dim, dtype=bool)
    for m, state, row in zip(grid, states, rows):
        referee = chain_state(initial, pointer, gram, m)
        assert row["m_count"] == m
        assert np.max(np.abs(state - referee)) <= CHAIN_BOUND, m
        diagonal = np.array(row["diagonal"])
        assert np.max(np.abs(diagonal - referee.diagonal().real)) <= CHAIN_BOUND, m
        coherence = np.max(np.abs(referee[off_diagonal]))
        assert abs(row["max_coherence"] - coherence) <= CHAIN_BOUND, m


def point_mass(n: int, index: int) -> np.ndarray:
    """Distribution with all weight on outcome ``index`` of ``n``."""
    dist = np.zeros(n)
    dist[index] = 1.0
    return dist


def marginal_referee(protocol: cs.Protocol) -> np.ndarray:
    """Final marginal by the per-step route ``Protocol.marginal`` replaced.

    The initial point mass, validated and pushed through a freshly built
    transition table at every step, each product clamped.
    """
    dist = point_mass(protocol.dim, protocol.initial.index)
    for a, b in zip(protocol.contexts[:-1], protocol.contexts[1:]):
        dist = clamp_probabilities(cs.transition_matrix(a, b) @ validate_distribution(dist))
    return dist


def forward_weights(protocol: cs.Protocol, paths: np.ndarray) -> np.ndarray:
    """Step probabilities of each path of an (n_paths, len) table, shape (n_paths, len - 1).

    Step ``s`` reads entry (next, previous) of ``protocol.steps[s]``.
    """
    weights = np.empty((len(paths), len(protocol) - 1))
    for s, t in enumerate(protocol.steps):
        weights[:, s] = t[paths[:, s + 1], paths[:, s]]
    return weights


def backward_weights(protocol: cs.Protocol, paths: np.ndarray) -> np.ndarray:
    """Step probabilities of each time-reversed path, a route independent of the forward one.

    Step ``s`` reads entry (previous, next) of a fresh
    ``transition_matrix(contexts[s + 1], contexts[s])``.
    """
    c = protocol.contexts
    weights = np.empty((len(paths), len(c) - 1))
    for s in range(len(c) - 1):
        weights[:, s] = cs.transition_matrix(c[s + 1], c[s])[paths[:, s], paths[:, s + 1]]
    return weights


def _log_sums(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights).sum(axis=1)


def forward_log_prob(protocol: cs.Protocol, outcomes) -> float:
    """Log-probability of an outcome sequence under the forward protocol (checked sequence)."""
    path = np.array([_check_outcomes(protocol, outcomes)], dtype=np.intp)
    return float(_log_sums(forward_weights(protocol, path))[0])


def backward_log_prob(protocol: cs.Protocol, outcomes, final_dist) -> float:
    """Log-probability of the time-reversed path, its final outcome drawn from ``final_dist``."""
    path = np.array([outcomes], dtype=np.intp)
    reference = _reference(protocol, final_dist)[path[:, -1]]
    return float(_log_sums(np.column_stack([reference, backward_weights(protocol, path)]))[0])


def enumerated_ensemble(protocol: cs.Protocol) -> cs.TrajectoryEnsembleStats:
    """Exact ensemble by enumerating every path, the route ``exhaustive_entropy_production`` replaced.

    Builds the table of all ``dim ** (len - 1)`` outcome sequences.  A path's
    probability is the in-order product of its step probabilities; paths with
    a zero-probability step contribute nothing.  Every step's forward weight must
    match its backward one to ``CROSS_CHECK_TOL``, as ``Protocol`` checks its tables,
    so that forward minus backward log-probability telescopes to -log marginal[final],
    each live path's entropy production.  ``final_distribution`` is the path-weighted
    histogram of final outcomes.  Memory grows with the path count: desk scale only.
    """
    n_steps = len(protocol) - 1
    dim = protocol.dim
    path_count = dim**n_steps
    marginal = protocol.marginal
    paths = np.empty((path_count, n_steps + 1), dtype=np.intp)
    paths[:, 0] = protocol.initial.index
    paths[:, 1:] = np.indices((dim,) * n_steps).reshape(n_steps, path_count).T
    fwd, bwd = forward_weights(protocol, paths), backward_weights(protocol, paths)
    if not np.all(np.abs(fwd - bwd) <= CROSS_CHECK_TOL):
        raise InternalConsistencyError("referee: forward and backward weights differ")
    prob = np.ones(path_count)
    for s in range(n_steps):
        prob = prob * fwd[:, s]
    live = np.all(fwd > 0.0, axis=1)
    finals = paths[:, -1]
    delta = np.array([-math.log(w) if w > 0.0 else math.inf for w in marginal.tolist()])[finals]
    mean = math.fsum((prob[live] * delta[live]).tolist()) + 0.0
    final = np.bincount(paths[:, -1], weights=prob, minlength=dim)
    return cs.TrajectoryEnsembleStats(
        "exhaustive", path_count, mean, 0.0, final, cs.shannon_entropy(marginal)
    )


def partial_trace_meter(rho: np.ndarray, n: int, m: int) -> np.ndarray:
    """Trace the meter factor out of an (n·m)×(n·m) composite density matrix."""
    return np.trace(np.asarray(rho).reshape(n, m, n, m), axis1=1, axis2=3)
