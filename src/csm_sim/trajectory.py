"""Stochastic measurement trajectories and their entropy production.

A protocol is an ordered sequence of contexts with a known initial outcome
in the first one.  Running it realizes one outcome per context, each drawn
from the transition probabilities conditioned on the previous outcome; the
resulting outcome sequence is a trajectory.  A :class:`Protocol` derives
what every trajectory kernel reads once, when it is made: the transition
table of each step and the exact final marginal.

Irreversibility is quantified per trajectory as the log-ratio of the
forward path probability to the probability of the time-reversed path,
where the reversed path starts by drawing the final outcome from a
reference distribution (by default the exact final marginal, i.e. the
unread-outcome case).  Because single-step transition probabilities are
symmetric, the conditional factors cancel pairwise and the log-ratio
telescopes to -log of the reference weight of the realized final outcome,
which is what every route returns.  One kernel, ``_step_gaps``, cross-checks
that cancellation: per step, the gap between the log of the forward table
and of the backward route's own table.  A single path sums its gaps; the
exact ensemble bounds the sum over every path in one max-plus and one
min-plus pass.  An entry of forward weight at most ``INPUT_TOL`` is rounding
residue, as where one context is measured twice, and carries no gap.
Averaged over trajectories, the entropy production is the Shannon entropy of
the final outcome distribution.  Sampled, or exact over every path, an
ensemble is one ``TrajectoryEnsembleStats``, whose ``mode`` says which; the
exact one builds no path, so no protocol is too long.

``CROSS_CHECK_TOL`` (1e-12) is some 40 times the largest path gap sum seen, 2.5e-14 over
3,000 random protocols of dims 2–8 and 2–6 contexts, and some 500 times the worst error of
the marginal and the exact mean against a 40-digit referee (``tests/test_precision.py``):
1.0·dim·eps, 1.8e-15 at dim 8.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError, ScenarioValidationError
from .hilbert import INPUT_TOL, Context, Modality, _hold, _instance, _integer, _sequence, _Value
from .hilbert import check_index, clamp_probabilities
from .measurement import transition_matrix, validate_distribution

# Two evaluation routes of the same log-ratio must agree to this.
CROSS_CHECK_TOL = 1e-12


class Protocol(_Value):
    """Ordered sequence of contexts with a known initial outcome in the first.

    Holds, set once here and read-only: ``dim``, that of every context; ``steps``, the
    transition table ``transition_matrix(contexts[s], contexts[s + 1])`` of every step; and
    ``marginal``, the exact outcome distribution in the last context with
    outcomes unread (the initial point mass pushed through ``steps``, each
    product clamped).  Equality and hash are those of (contexts, initial).
    """

    contexts: tuple[Context, ...]
    initial: Modality

    def __post_init__(self):
        contexts = _sequence("contexts", self.contexts, Context)
        if not contexts:
            raise ScenarioValidationError("contexts", "protocol needs at least one context")
        if _instance("initial", self.initial, Modality).context != contexts[0]:
            reason = (f"initial modality lives in {self.initial.context.id!r}, "
                      f"protocol starts in {contexts[0].id!r}")
            raise ScenarioValidationError("initial", reason)
        # a step's table refuses two contexts of different dims (``DimensionMismatch``)
        steps = tuple(transition_matrix(a, b) for a, b in zip(contexts[:-1], contexts[1:]))
        dim = contexts[0].dim
        marginal = np.zeros(dim)
        marginal[self.initial.index] = 1.0
        for t in steps:
            marginal = clamp_probabilities(t @ marginal)
        _hold(self, contexts=contexts, steps=steps, marginal=marginal, dim=dim)

    def __len__(self) -> int:
        return len(self.contexts)


class Trajectory(_Value):
    """One realized outcome sequence with its likelihood and entropy production."""

    outcomes: tuple[int, ...]
    forward_log_prob: float
    entropy_production: float


class TrajectoryEnsembleStats(_Value):
    """Summary of a trajectory ensemble; ``mode`` is ``"monte_carlo"`` or ``"exhaustive"``.

    ``sample_count`` counts the trajectories drawn, or the exact ensemble's paths."""

    mode: str
    sample_count: int
    mean_entropy_production: float
    std_error: float
    final_distribution: np.ndarray
    shannon_entropy_final: float


def _check_outcomes(protocol: Protocol, outcomes) -> tuple:
    """A validated outcome sequence of integers."""
    outcomes = _sequence("outcomes", outcomes)
    if len(outcomes) != len(protocol):
        reason = f"{len(outcomes)} outcomes for {len(protocol)} contexts"
        raise ScenarioValidationError("outcomes", reason)
    for s, j in enumerate(outcomes):
        check_index(f"outcomes[{s}]", j, protocol.dim)
    if outcomes[0] != protocol.initial.index:
        reason = f"sequence starts at {outcomes[0]}, not {protocol.initial.index}"
        raise ScenarioValidationError("outcomes[0]", reason)
    return outcomes


def _reference(protocol: Protocol, final_dist) -> np.ndarray:
    final_dist, dim = validate_distribution(final_dist, "final_dist"), protocol.contexts[-1].dim
    if final_dist.size != dim:
        raise DimensionMismatch(f"final distribution size {final_dist.size} vs dim {dim}")
    return final_dist


def _step_gaps(protocol: Protocol) -> list[np.ndarray]:
    """The cross-check kernel: per step ``s``, ``log T_s[j', j] - log T'_s[j, j']`` on live entries.

    ``T_s`` is ``protocol.steps[s]`` and ``T'_s`` the backward route's own table
    ``transition_matrix(contexts[s + 1], contexts[s])``; a path's gaps sum to forward
    minus backward log-probability less the telescoped term, which is 0 in exact
    arithmetic.  An entry is live when its forward weight exceeds ``INPUT_TOL``; below
    that it is rounding residue (~1e-33 where one Fourier or Haar context is measured
    twice), whose log ratio means nothing, and its gap reads 0.
    """
    c, gaps = protocol.contexts, []
    for s, t in enumerate(protocol.steps):
        live = t > INPUT_TOL
        gap = np.zeros_like(t)
        with np.errstate(divide="ignore"):  # a backward weight of 0 gives an infinite gap
            gap[live] = np.log(t[live]) - np.log(transition_matrix(c[s + 1], c[s]).T[live])
        gaps.append(gap)
    return gaps


def _single_path(protocol: Protocol, outcomes: tuple, reference: np.ndarray) -> tuple:
    """Forward log-probability and cross-checked entropy production of one path."""
    moves = list(zip(outcomes[1:], outcomes[:-1]))  # (next, previous) per step
    with np.errstate(divide="ignore"):
        fwd = float(np.log([t[move] for t, move in zip(protocol.steps, moves)]).sum())
    if fwd == -math.inf:
        raise ScenarioValidationError("outcomes", "forward path has probability zero")
    gap = sum(float(g[move]) for g, move in zip(_step_gaps(protocol), moves))
    if not abs(gap) <= CROSS_CHECK_TOL:
        raise InternalConsistencyError(f"entropy production routes disagree by {gap:.17g}")
    weight = float(reference[outcomes[-1]])
    return fwd, -math.log(weight) + 0.0 if weight > 0.0 else math.inf


def entropy_production(protocol: Protocol, outcomes, final_dist) -> float:
    """Log-ratio of forward to backward path probability, in nats.

    Returned in its telescoped form, -log of the reference weight of the realized
    final outcome, once the cross-check holds: the path's entries of the per-step gap
    tables (``_step_gaps``) sum to within ``CROSS_CHECK_TOL`` of 0, or the call raises
    ``InternalConsistencyError``.  A step of forward weight at most ``INPUT_TOL`` is
    rounding residue, as where one context is measured twice, and adds no gap.
    Undefined on a forward path of probability zero, refused as ``outcomes``.
    """
    outcomes = _check_outcomes(protocol, outcomes)
    return _single_path(protocol, outcomes, _reference(protocol, final_dist))[1]


def sample_trajectory(protocol: Protocol, seed) -> Trajectory:
    """Draw one trajectory; deterministic given ``seed``.

    Each step draws the next outcome from the transition probabilities
    conditioned on the previous one, by inverse CDF over outcome index.
    Entropy production is evaluated against the exact final marginal, i.e.
    the unread-outcome reference; a drawn path never has probability zero.
    ``seed`` is an integer >= 0, or a tuple of them, such as ``(2024, i)``.
    """
    parts = seed if isinstance(seed, tuple) else (seed,)  # n and (n,) seed the same stream
    rng = np.random.default_rng([_integer("seed", part, 0) for part in parts])
    cums = [np.cumsum(t, axis=0) for t in protocol.steps]
    initial = np.array([protocol.initial.index], dtype=np.intp)
    outcomes = tuple(_sample_paths(cums, initial, (rng.random(1) for _ in cums))[0].tolist())
    return Trajectory(outcomes, *_single_path(protocol, outcomes, protocol.marginal))


# Samples per independently seeded block of the Monte Carlo ensemble.  Part of
# the random stream: changing it changes every estimate drawn from a seed.
BLOCK = 1 << 14


def _sample_paths(step_cumulatives, initial: np.ndarray, uniforms) -> np.ndarray:
    """Outcome sequences of a block of samples, shape (samples, 1 + steps), by inverse CDF.

    Each step draws the smallest outcome whose cumulative weight in the
    previous outcome's column exceeds the sample's uniform (one vector per
    step in ``uniforms``), so a zero-weight outcome is never drawn; past the
    rounded total, the last supported one is.  That is
    ``searchsorted(col, u, "right")`` capped at ``last``, which is
    ``searchsorted(col, col[-1], "left")``.

    Every sample draws at once, by a branchless bisection over one flat table:
    the columns, padded with +inf to ``W`` entries (the least power of two
    >= dim), end to end.  A sample starts just before its column, and for
    ``step`` = W/2, ..., 1 moves up by ``step`` where the entry ``step`` above
    is ``<= u``.  It stops on the last entry ``<= u`` among the column's first
    ``W - 1`` (+inf never is), so one past it is the right-side search, cut at
    ``W - 1``.  The cut binds only when W = dim, at dim - 1, which ``last``
    never exceeds, so the capped draw is the same.  Per step this costs
    O(samples · log dim) time and O(samples + dim · W) memory, with no loop
    over outcomes.
    """
    paths = [initial]
    for cum, u in zip(step_cumulatives, uniforms):
        dim = cum.shape[0]
        width = 1 << (dim - 1).bit_length()
        table = np.full((cum.shape[1], width), np.inf)
        table[:, :dim] = cum.T
        table = table.ravel()
        last = np.count_nonzero(cum < cum[-1], axis=0)
        state = paths[-1]
        base = state * width
        pos = base - 1
        step = width >> 1
        while step:
            pos += (table[pos + step] <= u) * step
            step >>= 1
        paths.append(np.minimum(pos + 1 - base, last[state]))
    return np.stack(paths, axis=1)


# The ensemble keeps dim counts per block of BLOCK samples, at most this many in all.
MAX_COUNT_CELLS = 10**7


def max_trajectories(dim: int) -> int:
    """The largest sample count of a dim-``dim`` ensemble, from its memory for counts."""
    return MAX_COUNT_CELLS // dim * BLOCK


def _block_counts(
    step_cumulatives, initial_index: int, dim: int, seed: int, n_samples: int
) -> np.ndarray:
    """Final-outcome counts of each block of the ensemble, shape (blocks, dim).

    Block ``b`` holds samples ``[b*BLOCK, (b+1)*BLOCK)`` and draws from the
    ``b``-th child of ``SeedSequence(seed)``, so a full block's counts depend
    on (seed, b) alone, whatever the total sample count.  Each child is built
    when its block is drawn, as ``SeedSequence(seed, spawn_key=(b,))``, which
    is the child ``spawn`` would give without materializing all of them.
    """
    n_blocks = -(-n_samples // BLOCK)
    counts = np.empty((n_blocks, dim), dtype=np.int64)
    for b in range(n_blocks):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        size = min(BLOCK, n_samples - b * BLOCK)
        initial = np.full(size, initial_index, dtype=np.intp)
        uniforms = (rng.random(size) for _ in step_cumulatives)
        finals = _sample_paths(step_cumulatives, initial, uniforms)[:, -1]
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
    ``final_distribution`` is that exact marginal; ``mode`` is ``"monte_carlo"``.
    ``n_samples`` is an integer in [1, ``max_trajectories(dim)``] and ``seed`` one >= 0, not bools.
    """
    n_samples, seed = _integer("n_samples", n_samples, 1), _integer("seed", seed, 0)
    limit = max_trajectories(protocol.dim)
    if n_samples > limit:
        raise ScenarioValidationError("n_samples", f"must be <= {limit}")
    cums = [np.cumsum(t, axis=0) for t in protocol.steps]
    marginal = protocol.marginal
    counts = _block_counts(cums, protocol.initial.index, protocol.dim, seed, n_samples).sum(0)
    realized = np.flatnonzero(counts)
    c = counts[realized].astype(float)
    deltas = -np.log(marginal[realized])
    # fsum: summation error must stay below the std-error scale, which for a
    # near-constant ensemble is far tighter than pairwise summation delivers.
    mean = math.fsum((c * deltas).tolist()) / n_samples
    variance = math.fsum((c * (deltas - mean) ** 2).tolist()) / max(n_samples - 1, 1)
    std_error = math.sqrt(variance / n_samples)
    entropy = shannon_entropy(marginal)
    return TrajectoryEnsembleStats("monte_carlo", n_samples, mean, std_error, marginal, entropy)


def exhaustive_entropy_production(protocol: Protocol) -> TrajectoryEnsembleStats:
    """Exact mean entropy production over all ``dim ** (len - 1)`` paths, building none.

    A path's entropy production is -log marginal[final], so the mean is the fsum of
    marginal · -log marginal.  The cross-check of :func:`entropy_production` covers every
    path of positive weight: a max-plus and a min-plus pass over the per-step gap tables
    of ``_step_gaps`` bound the sum of a path's gaps over all of them in O(len · dim²).
    ``sample_count`` is the path count, ``std_error`` 0 and ``final_distribution`` the
    exact ``protocol.marginal``.
    """
    marginal = protocol.marginal
    reached = np.arange(protocol.dim) == protocol.initial.index
    hi = lo = np.zeros(protocol.dim)  # extreme gap sums over the paths to each outcome
    for t, gap in zip(protocol.steps, _step_gaps(protocol)):
        taken = (t > 0.0) & reached  # (next, previous)
        reached = taken.any(axis=1)
        hi = np.where(reached, np.where(taken, hi + gap, -np.inf).max(axis=1), 0.0)
        lo = np.where(reached, np.where(taken, lo + gap, np.inf).min(axis=1), 0.0)
    worst = float(np.max(np.abs([hi, lo])))
    if not worst <= CROSS_CHECK_TOL:
        raise InternalConsistencyError(f"entropy production routes disagree by {worst:.17g}")
    p = marginal[marginal > 0.0]
    mean = math.fsum((p * -np.log(p)).tolist()) + 0.0
    paths, entropy = protocol.dim ** (len(protocol) - 1), shannon_entropy(marginal)
    return TrajectoryEnsembleStats("exhaustive", paths, mean, 0.0, marginal, entropy)


def shannon_entropy(dist: np.ndarray) -> float:
    """-Σ p log p in nats, with 0·log 0 = 0; lies in [0, log N]."""
    dist = validate_distribution(dist)
    p = dist[dist > 0.0]
    return float(-np.sum(p * np.log(p))) + 0.0

