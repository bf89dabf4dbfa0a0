"""Exact transition probabilities between measurement contexts.

Everything here is a pure function of context bases: the doubly stochastic
matrix of all N² squared-overlap (Born) probabilities linking the outcomes
of two contexts, and the probability of returning to the starting outcome
after passing through an intermediate context.

Every overlap between two contexts is read from the pair's table
``Context.overlaps`` (W[j, i] = ⟨v_j|u_i⟩), computed on first use and then
memoized; it raises ``DimensionMismatch`` for contexts of different dims, so
the functions that read it leave that check to it.  The two return
probabilities are memoized one level up, as whole tables over (final,
initial) outcome per (start context, intermediate) pair in
``Context.return_tables``, each clamped once, when made, so a scalar return
is one exact read of a table entry; a phase-dialed return is one table of
path products per phase vector, summed for every final outcome at once.

Two return routes exist and they differ physically. If an outcome is
realized in the intermediate context, probabilities add over intermediate
outcomes (``irreversible_return``); if none is realized, amplitudes add
instead and the start outcome is recovered with certainty
(``reversible_return``).  ``interference_returns`` exposes the amplitude sum
with adjustable per-path phases, which is what an interferometer dials.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DimensionMismatch, ScenarioValidationError
from .hilbert import INPUT_TOL, Context, Modality, _read_array, check_index, clamp_probabilities


def validate_distribution(dist: np.ndarray, field: str = "dist") -> np.ndarray:
    """Weights within ``INPUT_TOL`` of [0, 1] and of sum 1, clipped; a refusal names ``field``."""
    refuse = partial(ScenarioValidationError, field)
    dist = _read_array(dist, refuse, float, "vector")
    if float(np.min(dist)) < -INPUT_TOL or float(np.max(dist)) > 1.0 + INPUT_TOL:
        raise refuse("weights outside [0, 1]")
    total = float(np.sum(dist))
    if not abs(total - 1.0) <= INPUT_TOL:
        raise refuse(f"weights sum to {total!r}, not 1")
    return np.clip(dist, 0.0, 1.0)


def _entropy(dist: np.ndarray) -> float:
    """-Σ p log p in nats of what :func:`validate_distribution` returned, 0·log 0 = 0."""
    p = dist[dist > 0.0]
    return float(-np.sum(p * np.log(p))) + 0.0


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
    ctx = initial.context
    # paths[k, j] = ⟨u_k|v_j⟩⟨v_j|u_i⟩; the overlaps raise on a dim mismatch
    paths = ctx.overlaps(intermediate) * intermediate.overlaps(ctx)[:, initial.index]
    amps = (np.exp(1j * phases) * paths).sum(axis=1)
    return clamp_probabilities(amps.real**2 + amps.imag**2)

