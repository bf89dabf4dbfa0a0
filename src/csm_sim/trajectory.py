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
unread-outcome case).  A single change of context has symmetric transition
probabilities, T(a→b) = T(b→a)ᵀ, so the conditional factors cancel pairwise
and the log-ratio telescopes to -log of the reference weight of the realized
final outcome, which is what every route returns.  A :class:`Protocol`
cross-checks that identity once, when it is made: per step, the forward table
and the transpose of the backward route's own table
``transition_matrix(contexts[s + 1], contexts[s])`` agree within
``CROSS_CHECK_TOL``, or it raises ``InternalConsistencyError``.  Every route
reads a protocol so checked.  The tables are compared, not their logs: a weight
t just above rounding comes from an overlap of ~√t whose own rounding puts its
log ratio ~eps/√t off, past any fixed bound, while the weights agree to eps.
Averaged over trajectories, the entropy production is the Shannon entropy of
the final outcome distribution, whose kernel sums a von Neumann entropy too.
Sampled or exact, an ensemble is one ``TrajectoryEnsembleStats``, whose ``mode``
says which.  Neither builds a path, so no protocol is too long: the exact one weighs
each final outcome by the marginal, the sampled one counts the final outcomes of
its trajectories in one multinomial draw over it.

``CROSS_CHECK_TOL`` (1e-12) is some 1,800 times the largest table residual seen,
5.6e-16 over 300 Haar/Fourier protocols of dims 2–64, and some 500 times the worst error of
the marginal and the exact mean against a 40-digit referee (``tests/test_precision.py``):
1.0·dim·eps, 1.8e-15 at dim 8.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError, ScenarioValidationError
from .hilbert import Context, Modality, _entropy, _hold, _instance, _integer, _sequence, _Value
from .hilbert import check_index, clamp_probabilities, transition_matrix, validate_distribution

# A step's forward table and its backward route's, transposed, must agree to this.
CROSS_CHECK_TOL = 1e-12


class Protocol(_Value):
    """Ordered sequence of contexts with a known initial outcome in the first.

    Holds, set once here and read-only: ``dim``, that of every context; ``steps``, the
    transition table ``transition_matrix(contexts[s], contexts[s + 1])`` of every step; and
    ``marginal``, the exact outcome distribution in the last context with
    outcomes unread (the initial point mass pushed through ``steps``, each
    product clamped).  Each step is cross-checked once, here: its table is within
    ``CROSS_CHECK_TOL`` of the transposed table ``transition_matrix(contexts[s + 1],
    contexts[s])`` of the backward route, entry by entry, or the protocol raises
    ``InternalConsistencyError``.  Equality and hash are those of (contexts, initial).
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
        for t, a, b in zip(steps, contexts, contexts[1:]):
            gap = float(np.max(np.abs(t - transition_matrix(b, a).T)))
            if not gap <= CROSS_CHECK_TOL:
                raise InternalConsistencyError(f"entropy production routes disagree by {gap:.17g}")
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


def _single_path(protocol: Protocol, outcomes: tuple, reference: np.ndarray) -> tuple:
    """Forward log-probability and entropy production of one path."""
    moves = list(zip(outcomes[1:], outcomes[:-1]))  # (next, previous) per step
    with np.errstate(divide="ignore"):
        fwd = float(np.log([t[move] for t, move in zip(protocol.steps, moves)]).sum())
    if fwd == -math.inf:
        raise ScenarioValidationError("outcomes", "forward path has probability zero")
    weight = float(reference[outcomes[-1]])
    return fwd, -math.log(weight) + 0.0 if weight > 0.0 else math.inf


def entropy_production(protocol: Protocol, outcomes, final_dist) -> float:
    """Log-ratio of forward to backward path probability, in nats.

    Returned in its telescoped form, -log of the reference weight of the realized
    final outcome, which the protocol's cross-check of its step tables, made when it
    was built, certifies for every path.  Undefined on a forward path of probability
    zero, refused as ``outcomes``.
    """
    outcomes = _check_outcomes(protocol, outcomes)
    return _single_path(protocol, outcomes, _reference(protocol, final_dist))[1]


def sample_trajectory(protocol: Protocol, seed) -> Trajectory:
    """Draw one trajectory; deterministic given ``seed``.

    Each step draws the next outcome from the transition probabilities
    conditioned on the previous one, by inverse CDF over outcome index: the
    smallest outcome whose cumulative weight exceeds a uniform draw, so a
    zero-weight outcome is never drawn; past the rounded total, the last
    supported one is.  Entropy production is evaluated against the exact
    final marginal, i.e. the unread-outcome reference; a drawn path never has
    probability zero.  ``seed`` is an integer >= 0, or a tuple of them, such as ``(2024, i)``.
    """
    parts = seed if isinstance(seed, tuple) else (seed,)  # n and (n,) seed the same stream
    rng = np.random.default_rng([_integer("seed", part, 0) for part in parts])
    outcomes = [protocol.initial.index]
    for t in protocol.steps:
        cum = np.cumsum(t[:, outcomes[-1]])
        last = int(np.searchsorted(cum, cum[-1], "left"))
        outcomes.append(min(int(np.searchsorted(cum, rng.random(), "right")), last))
    outcomes = tuple(outcomes)
    return Trajectory(outcomes, *_single_path(protocol, outcomes, protocol.marginal))


def mean_entropy_production(
    protocol: Protocol, n_samples: int, seed: int
) -> TrajectoryEnsembleStats:
    """Monte Carlo estimate of the mean entropy production, building no path.

    A trajectory's entropy production is -log of the exact final marginal at
    its final outcome, so the ensemble reads only its final-outcome counts:
    one multinomial draw of ``n_samples`` over the marginal's supported
    outcomes, from ``default_rng(seed)``, reproducible given (seed,
    n_samples).  The mean, whose expectation is the marginal's Shannon
    entropy, is the exact count-weighted sum of -log marginal rounded once.
    ``final_distribution`` is that exact marginal; ``mode`` is ``"monte_carlo"``.
    ``n_samples`` is an integer in [1, 2**63 - 1], the counts an int64 holds,
    and ``seed`` one >= 0, not bools.
    """
    n_samples = _integer("n_samples", n_samples, 1, np.iinfo(np.int64).max)
    seed = _integer("seed", seed, 0)
    marginal = protocol.marginal
    weights = marginal[marginal > 0.0]
    counts = np.random.default_rng(seed).multinomial(n_samples, weights / weights.sum())
    deltas = -np.log(weights)
    # Each -log is an exact p / q, q a power of 2, so the count-weighted sum is exact over
    # the largest q and one int division rounds it once: rounded per product, the mean of a
    # near-constant ensemble could miss by more than its std error.
    ratios = [d.as_integer_ratio() for d in deltas.tolist()]
    den = max(q for _, q in ratios)
    total = sum(c * p * (den // q) for c, (p, q) in zip(counts.tolist(), ratios))
    mean = total / (den * n_samples)
    variance = math.fsum((counts * (deltas - mean) ** 2).tolist()) / max(n_samples - 1, 1)
    std_error = math.sqrt(variance / n_samples)
    entropy = shannon_entropy(marginal)
    return TrajectoryEnsembleStats("monte_carlo", n_samples, mean, std_error, marginal, entropy)


def exhaustive_entropy_production(protocol: Protocol) -> TrajectoryEnsembleStats:
    """Exact mean entropy production over all ``dim ** (len - 1)`` paths, building none.

    A path's entropy production is -log marginal[final], so the mean is the fsum of
    marginal · -log marginal, which the protocol's cross-check of its step tables, made
    when it was built, certifies for every path of positive weight.  ``sample_count`` is
    the path count, ``std_error`` 0 and ``final_distribution`` the exact ``protocol.marginal``.
    """
    marginal = protocol.marginal
    p = marginal[marginal > 0.0]
    mean = math.fsum((p * -np.log(p)).tolist()) + 0.0
    paths, entropy = protocol.dim ** (len(protocol) - 1), shannon_entropy(marginal)
    return TrajectoryEnsembleStats("exhaustive", paths, mean, 0.0, marginal, entropy)


def shannon_entropy(dist: np.ndarray) -> float:
    """-Σ p log p in nats, with 0·log 0 = 0; lies in [0, log N]."""
    return float(_entropy(validate_distribution(dist)))

