"""Stochastic measurement trajectories and their entropy production.

A protocol is an ordered sequence of contexts with a known initial outcome
in the first one.  Running it realizes one outcome per context, each drawn
from the transition probabilities conditioned on the previous outcome; the
resulting outcome sequence is a trajectory.

Irreversibility is quantified per trajectory as the log-ratio of the
forward path probability to the probability of the time-reversed path,
where the reversed path starts by drawing the final outcome from a
reference distribution (by default the exact final marginal, i.e. the
unread-outcome case).  Because single-step transition probabilities are
symmetric, the conditional factors cancel pairwise and the log-ratio
telescopes to -log of the reference weight of the realized final outcome;
both routes are evaluated and cross-checked.  Averaged over trajectories,
the entropy production is the Shannon entropy of the final outcome
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InitialMismatch,
    InternalConsistencyError,
    LengthMismatch,
    ZeroProbabilityPath,
)
from .hilbert import Context, Modality
from .measurement import (
    born_probability,
    point_mass,
    propagate,
    transition_matrix,
    validate_distribution,
)
from .qnd import (
    entangle,
    meter_states_from_gram,
    reduced_system_state,
    validate_gram,
    von_neumann_entropy,
)

# Keep the exhaustive oracle at desk scale.
MAX_ENUMERATED_PATHS = 100_000

# Two evaluation routes of the same log-ratio must agree to this.
CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class Protocol:
    """Ordered sequence of contexts with a known initial outcome in the first."""

    contexts: tuple[Context, ...]
    initial: Modality

    def __post_init__(self):
        contexts = tuple(self.contexts)
        object.__setattr__(self, "contexts", contexts)
        if not contexts:
            raise LengthMismatch("protocol needs at least one context")
        dim = contexts[0].dim
        for ctx in contexts:
            if ctx.dim != dim:
                raise DimensionMismatch(f"context {ctx.id!r} has dim {ctx.dim}, expected {dim}")
        if self.initial.context != contexts[0]:
            raise InitialMismatch(
                f"initial modality lives in {self.initial.context.id!r}, "
                f"protocol starts in {contexts[0].id!r}"
            )

    @property
    def dim(self) -> int:
        return self.contexts[0].dim

    def __len__(self) -> int:
        return len(self.contexts)


@dataclass(frozen=True)
class Trajectory:
    """One realized outcome sequence with its likelihood and entropy production."""

    outcomes: tuple[int, ...]
    forward_log_prob: float
    entropy_production: float


@dataclass(frozen=True)
class TrajectoryEnsembleStats:
    """Monte Carlo summary of an ensemble of trajectories."""

    sample_count: int
    mean_entropy_production: float
    std_error: float
    final_distribution: np.ndarray
    shannon_entropy_final: float


@dataclass(frozen=True)
class ExhaustiveStats:
    """Exact ensemble statistics from enumerating every path."""

    path_count: int
    mean_entropy_production: float
    final_distribution: np.ndarray
    shannon_entropy_final: float


def step_transition_matrices(protocol: Protocol) -> list[np.ndarray]:
    """Transition matrix of every consecutive context pair."""
    return [
        transition_matrix(a, b)
        for a, b in zip(protocol.contexts[:-1], protocol.contexts[1:])
    ]


def final_marginal(protocol: Protocol) -> np.ndarray:
    """Exact outcome distribution in the last context (outcomes unread)."""
    dist = point_mass(protocol.dim, protocol.initial.index)
    for t in step_transition_matrices(protocol):
        dist = propagate(dist, t)
    return dist


def _check_outcomes(protocol: Protocol, outcomes) -> tuple[int, ...]:
    outcomes = tuple(int(j) for j in outcomes)
    if len(outcomes) != len(protocol):
        raise LengthMismatch(f"{len(outcomes)} outcomes for {len(protocol)} contexts")
    for ctx, j in zip(protocol.contexts, outcomes):
        if not 0 <= j < ctx.dim:
            raise IndexOutOfRange(f"outcome {j} not in [0, {ctx.dim})")
    return outcomes


def forward_log_prob(protocol: Protocol, outcomes) -> float:
    """Log-probability of an outcome sequence under the forward protocol.

    The initial outcome is known with certainty, so only the transitions
    contribute; a forbidden transition yields -inf.
    """
    outcomes = _check_outcomes(protocol, outcomes)
    if outcomes[0] != protocol.initial.index:
        raise InitialMismatch(
            f"sequence starts at {outcomes[0]}, protocol initial is {protocol.initial.index}"
        )
    total = 0.0
    for (a, b), (i, j) in zip(
        zip(protocol.contexts[:-1], protocol.contexts[1:]),
        zip(outcomes[:-1], outcomes[1:]),
    ):
        p = born_probability(Modality(a, i), Modality(b, j))
        if p == 0.0:
            return float("-inf")
        total += math.log(p)
    return total


def backward_log_prob(protocol: Protocol, outcomes, final_dist) -> float:
    """Log-probability of the time-reversed path.

    The reversed protocol draws the final outcome from ``final_dist`` and
    then runs the contexts in reverse order; the conditional factors equal
    the forward ones because single-step probabilities are symmetric.
    """
    outcomes = _check_outcomes(protocol, outcomes)
    final_dist = validate_distribution(final_dist)
    if final_dist.size != protocol.contexts[-1].dim:
        raise DimensionMismatch(
            f"final distribution size {final_dist.size} vs dim {protocol.contexts[-1].dim}"
        )
    weight = float(final_dist[outcomes[-1]])
    total = float("-inf") if weight == 0.0 else math.log(weight)
    for k in range(len(protocol) - 2, -1, -1):
        if total == float("-inf"):
            return total
        p = born_probability(
            Modality(protocol.contexts[k + 1], outcomes[k + 1]),
            Modality(protocol.contexts[k], outcomes[k]),
        )
        if p == 0.0:
            return float("-inf")
        total += math.log(p)
    return total


def entropy_production(protocol: Protocol, outcomes, final_dist) -> float:
    """Log-ratio of forward to backward path probability, in nats.

    Evaluated both as the explicit difference of the two log-probabilities
    and as -log of the reference weight of the realized final outcome (the
    telescoped form); the two must agree to ``CROSS_CHECK_TOL``.  Undefined
    on forward paths of probability zero.
    """
    return _log_ratio(protocol, outcomes, final_dist)[1]


def _log_ratio(protocol: Protocol, outcomes, final_dist) -> tuple[float, float]:
    """(forward log-probability, entropy production) of a path, cross-checked."""
    outcomes = _check_outcomes(protocol, outcomes)
    fwd = forward_log_prob(protocol, outcomes)
    if fwd == float("-inf"):
        raise ZeroProbabilityPath("forward path has probability zero")
    bwd = backward_log_prob(protocol, outcomes, final_dist)
    difference = fwd - bwd
    weight = float(np.asarray(final_dist, dtype=float)[outcomes[-1]])
    telescoped = float("inf") if weight == 0.0 else -math.log(weight)
    if math.isfinite(telescoped):
        if abs(difference - telescoped) > CROSS_CHECK_TOL:
            raise InternalConsistencyError(
                f"entropy production routes disagree: {difference!r} vs {telescoped!r}"
            )
    elif difference != telescoped:
        raise InternalConsistencyError(
            f"entropy production routes disagree: {difference!r} vs {telescoped!r}"
        )
    return fwd, telescoped + 0.0


def _draw_index(cum: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative weight exceeds ``u``.

    A zero-weight outcome never exceeds its predecessor's weight, so it is
    never drawn; past the rounded total, the last supported index is.
    """
    return min(
        int(np.searchsorted(cum, u, side="right")),
        int(np.searchsorted(cum, cum[-1], side="left")),
    )


def _sample_outcomes(
    step_cumulatives: list[np.ndarray], initial_index: int, rng: np.random.Generator
) -> list[int]:
    outcomes = [initial_index]
    for cum in step_cumulatives:
        outcomes.append(_draw_index(cum[:, outcomes[-1]], rng.random()))
    return outcomes


def sample_trajectory(protocol: Protocol, seed) -> Trajectory:
    """Draw one trajectory; deterministic given ``seed``.

    Each step draws the next outcome from the transition probabilities
    conditioned on the previous one, by inverse CDF over outcome index.
    Entropy production is evaluated against the exact final marginal, i.e.
    the unread-outcome reference.
    """
    cums = [np.cumsum(t, axis=0) for t in step_transition_matrices(protocol)]
    rng = np.random.default_rng(seed)
    outcomes = _sample_outcomes(cums, protocol.initial.index, rng)
    fwd, delta = _log_ratio(protocol, outcomes, final_marginal(protocol))
    return Trajectory(tuple(outcomes), fwd, delta)


# Samples per independently seeded block of the Monte Carlo ensemble.  Part of
# the random stream: changing it changes every estimate drawn from a seed.
BLOCK = 1 << 14


def _block_finals(step_cumulatives, initial: np.ndarray, uniforms) -> np.ndarray:
    """Final outcomes of a block of samples, each step drawn as :func:`_draw_index` does.

    ``uniforms`` yields one vector per step, shaped like ``initial``.  One
    ``searchsorted`` per distinct previous outcome keeps memory O(block).
    """
    state = initial
    for cum, u in zip(step_cumulatives, uniforms):
        nxt = np.empty_like(state)
        for prev in np.flatnonzero(np.bincount(state)):
            col = cum[:, prev]
            mask = state == prev
            nxt[mask] = np.minimum(
                np.searchsorted(col, u[mask], side="right"),
                np.searchsorted(col, col[-1], side="left"),
            )
        state = nxt
    return state


def _block_counts(
    step_cumulatives, initial_index: int, dim: int, seed: int, n_samples: int
) -> np.ndarray:
    """Final-outcome counts of each block of the ensemble, shape (blocks, dim).

    Block ``b`` holds samples ``[b*BLOCK, (b+1)*BLOCK)`` and draws from the
    ``b``-th child of ``SeedSequence(seed)``, so a full block's counts depend
    on (seed, b) alone, whatever the total sample count.
    """
    n_blocks = -(-n_samples // BLOCK)
    counts = np.empty((n_blocks, dim), dtype=np.int64)
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        rng = np.random.default_rng(child)
        size = min(BLOCK, n_samples - b * BLOCK)
        initial = np.full(size, initial_index, dtype=np.intp)
        uniforms = (rng.random(size) for _ in step_cumulatives)
        finals = _block_finals(step_cumulatives, initial, uniforms)
        counts[b] = np.bincount(finals, minlength=dim)
    return counts


def mean_entropy_production(
    protocol: Protocol, n_samples: int, seed: int
) -> TrajectoryEnsembleStats:
    """Monte Carlo estimate of the mean entropy production.

    Samples are drawn in blocks of ``BLOCK``, each from its own child of
    ``SeedSequence(seed)``, so the ensemble is reproducible given (seed,
    n_samples).  The reference distribution is the exact final marginal,
    whose Shannon entropy the mean estimates; entropy production depends
    only on the final outcome, so mean and std error come from its counts.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    cums = [np.cumsum(t, axis=0) for t in step_transition_matrices(protocol)]
    marginal = final_marginal(protocol)
    counts = _block_counts(cums, protocol.initial.index, protocol.dim, seed, n_samples).sum(0)
    realized = np.flatnonzero(counts)
    c = counts[realized].astype(float)
    deltas = -np.log(np.minimum(marginal[realized], 1.0))
    # fsum: summation error must stay below the std-error scale, which for a
    # near-constant ensemble is far tighter than pairwise summation delivers.
    mean = math.fsum((c * deltas).tolist()) / n_samples
    variance = math.fsum((c * (deltas - mean) ** 2).tolist()) / max(n_samples - 1, 1)
    std_error = math.sqrt(variance / n_samples)
    return TrajectoryEnsembleStats(
        sample_count=n_samples,
        mean_entropy_production=mean,
        std_error=std_error,
        final_distribution=marginal,
        shannon_entropy_final=shannon_entropy(marginal),
    )


def exhaustive_entropy_production(
    protocol: Protocol,
    final_dist: np.ndarray | None = None,
    max_paths: int = MAX_ENUMERATED_PATHS,
) -> ExhaustiveStats:
    """Exact expected entropy production by brute-force path enumeration.

    Walks every outcome sequence, accumulating path probability from the
    step matrices; each path's log-ratio goes through
    :func:`entropy_production`, i.e. the cross-checked forward/backward
    evaluation, so this is the referee for the sampled estimate.  Refuses
    instances beyond ``max_paths`` paths.
    """
    n_steps = len(protocol) - 1
    dim = protocol.dim
    path_count = dim**n_steps
    if path_count > max_paths:
        raise ValueError(f"{path_count} paths exceed the enumeration cap {max_paths}")
    marginal = final_marginal(protocol)
    reference = marginal if final_dist is None else validate_distribution(final_dist)
    if reference.size != protocol.contexts[-1].dim:
        raise DimensionMismatch(
            f"final distribution size {reference.size} vs dim {protocol.contexts[-1].dim}"
        )
    tms = step_transition_matrices(protocol)

    contributions = []
    accumulated = np.zeros(dim)
    stack = [((protocol.initial.index,), 1.0)]  # (outcomes so far, path probability)
    while stack:
        outcomes, prob = stack.pop()
        depth = len(outcomes) - 1
        if depth == n_steps:
            accumulated[outcomes[-1]] += prob
            contributions.append(prob * entropy_production(protocol, outcomes, reference))
            continue
        t = tms[depth]
        for nxt in range(dim):
            p = t[nxt, outcomes[-1]]
            if p > 0.0:
                stack.append((outcomes + (nxt,), prob * p))
    mean = math.fsum(contributions)
    return ExhaustiveStats(
        path_count=path_count,
        mean_entropy_production=mean + 0.0,
        final_distribution=accumulated,
        shannon_entropy_final=shannon_entropy(marginal),
    )


def shannon_entropy(dist: np.ndarray) -> float:
    """-Σ p log p in nats, with 0·log 0 = 0; lies in [0, log N]."""
    dist = validate_distribution(dist)
    p = np.minimum(dist[dist > 0.0], 1.0)
    return float(-np.sum(p * np.log(p))) + 0.0


def meter_protocol_entropy(initial: Modality, pointer: Context, gram: np.ndarray) -> float:
    """Entropy produced by a meter-mediated measurement of given strength.

    The entropy of the reduced system state after the meter coupling: equal
    to the Shannon entropy of the pointer outcome distribution for orthogonal
    meter states, zero for indistinguishable ones, and a continuous
    irreversibility gauge in between.
    """
    gram = validate_gram(gram)
    meters = meter_states_from_gram(gram)
    state = entangle(initial, pointer, meters)
    rho = reduced_system_state(state, gram, pointer)
    return von_neumann_entropy(rho)
