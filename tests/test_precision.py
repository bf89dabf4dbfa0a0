"""A high-precision referee: each kernel whose value reaches a report, against its own formula
at 40 digits.

Every float64 input a kernel reads (a basis, an overlap matrix, a phase) is lifted exactly
into ``mpmath`` (each double is a 40-digit number), the kernel's formula is evaluated there,
and the float64 result must lie within ``BOUND · dim · eps`` of it, entry by entry.  The
referee shares no rounding with the kernels, so it sees an error below the float64 referees'
bounds (``verify`` at 1e-10, the oracle and the entropy cross-check at 1e-12), and one that
both of their routes share.  A kernel that clamps into [0, 1] is compared with its reference
clamped the same way.  The worst error of each kernel, in units of ``dim · eps``, is reported
to ``hypothesis.target``.

``von_neumann_entropy`` has a bound of its own, because −λ log λ has an infinite slope at 0:
near a rank-deficient state an eigenvalue a few eps off an exact 0 adds about eps · |log eps|.
So the eigenvalues ``eigvalsh`` returns are held to the same ``BOUND · dim · eps`` (Weyl's
inequality for a backward-stable solver), and the entropy to that shift carried through
−λ log λ per eigenvalue (:func:`conditioned`); its error as a share of that bound is reported.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import csm_sim as cs
from conftest import random_unit_gram
from csm_sim.runner import _g_spectra, _g_sweep_rows, _m_count_sweep_rows, _rows

EPS = float(np.finfo(float).eps)
BOUND = 16  # in units of dim · eps
DIGITS = 40


def lift(ctx: cs.Context) -> list[list]:
    """The basis as exact ``mpc`` entries, ``[row][column]``."""
    return [[mpmath.mpc(z) for z in row] for row in ctx.basis.tolist()]


def overlaps(a: list[list], b: list[list]) -> tuple[list[list], list[list]]:
    """W[j][i] = ⟨a_j|b_i⟩ for lifted bases, and its adjoint W†[i][j] = ⟨b_i|a_j⟩."""
    n = range(len(a))
    table = [[mpmath.fsum(mpmath.conj(a[l][j]) * b[l][i] for l in n) for i in n] for j in n]
    return table, [[mpmath.conj(table[j][i]) for j in n] for i in n]


def weight(z) -> mpmath.mpf:
    return z.real**2 + z.imag**2


def clamp(x) -> mpmath.mpf:
    return min(max(x, 0), 1)


def entropy(probs) -> mpmath.mpf:
    """-Σ p log p over the positive ``probs``."""
    return -mpmath.fsum(p * mpmath.log(p) for p in probs if p > 0)


def worst(values, reference: list, dim: int) -> float:
    """Largest entrywise |value − reference| in units of dim · eps; ``values`` is an array or a
    number, ``reference`` the same entries as nested lists."""
    exact = np.array(reference, dtype=object).ravel().tolist()
    pairs = zip(np.ravel(values).tolist(), exact, strict=True)
    return float(max(abs(x - r) for x, r in pairs)) / (dim * EPS)


def record(ratios: dict, kernel: str, ratio: float) -> None:
    ratios[kernel] = max(ratios.get(kernel, 0.0), ratio)


def check(ratios: dict) -> None:
    for kernel, ratio in ratios.items():
        target(ratio, label=kernel)
        assert ratio <= BOUND, f"{kernel} is off by {ratio:.2f} dim·eps"


@st.composite
def contexts(draw, dim: int, id: str) -> cs.Context:
    """A context of ``dim``, of any kind that dim admits."""
    kinds = ["computational", "fourier", "haar", "explicit"] + (["rotation"] if dim == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "rotation":
        spec = cs.ContextSpec(kind, 2, theta=draw(st.floats(-2 * math.pi, 2 * math.pi)))
    elif kind in ("haar", "explicit"):
        spec = cs.ContextSpec("haar", dim, seed=draw(st.integers(0, 2**32 - 1)))
        if kind == "explicit":
            spec = cs.ContextSpec(kind, dim, matrix=cs.build_context(spec).basis)
    else:
        spec = cs.ContextSpec(kind, dim)
    return cs.build_context(spec, id)


@st.composite
def protocols(draw):
    """A protocol of 2–6 contexts of one dim in 2–8, and a phase per outcome."""
    dim = draw(st.integers(2, 8))
    chain = [draw(contexts(dim, f"c{s}")) for s in range(draw(st.integers(2, 6)))]
    phases = np.array(draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim)))
    return cs.Protocol(chain, chain[0].modality(draw(st.integers(0, dim - 1)))), phases


@settings(max_examples=150, deadline=None)
@given(case=protocols())
def test_each_table_kernel_is_within_its_bound_of_the_40_digit_formula(case):
    protocol, phases = case
    ratios, dim, i = {}, protocol.dim, protocol.initial.index
    with mpmath.workdps(DIGITS):
        bases = [lift(ctx) for ctx in protocol.contexts]
        n = range(dim)
        marginal = [mpmath.mpf(k == i) for k in n]
        for s, (frm, to) in enumerate(zip(bases[:-1], bases[1:])):
            # transition_matrix(frm, to)[j, i] = |⟨to_j|frm_i⟩|², the table of step s
            steps = [[clamp(weight(w)) for w in row] for row in overlaps(to, frm)[0]]
            ratio = worst(cs.transition_matrix(*protocol.contexts[s:s + 2]), steps, dim)
            record(ratios, "transition_matrix", ratio)
            marginal = [clamp(mpmath.fsum(steps[j][i] * marginal[i] for i in n)) for j in n]
        start = bases[0]
        dial = [mpmath.expj(mpmath.mpf(phi)) for phi in phases.tolist()]
        for ctx, mid in zip(protocol.contexts[1:], bases[1:]):
            there, back = overlaps(mid, start)  # ⟨v_j|u_i⟩, ⟨u_k|v_j⟩
            reversible, irreversible = protocol.contexts[0].return_tables(ctx)
            amps = [[mpmath.fsum(back[k][j] * there[j][i] for j in n) for i in n] for k in n]
            ratio = worst(reversible, [[clamp(weight(a)) for a in row] for row in amps], dim)
            record(ratios, "reversible", ratio)
            t = [[weight(w) for w in row] for row in there]
            sums = [[clamp(mpmath.fsum(t[j][k] * t[j][i] for j in n)) for i in n] for k in n]
            record(ratios, "irreversible", worst(irreversible, sums, dim))
            # |Σ_j e^{iφ_j} ⟨u_k|v_j⟩⟨v_j|u_i⟩|² for every k
            dialed = [mpmath.fsum(dial[j] * back[k][j] * there[j][i] for j in n) for k in n]
            returns = cs.interference_returns(protocol.initial, ctx, phases)
            ratio = worst(returns, [clamp(weight(a)) for a in dialed], dim)
            record(ratios, "interference_returns", ratio)
        record(ratios, "marginal", worst(protocol.marginal, marginal, dim))
        mean = cs.exhaustive_entropy_production(protocol).mean_entropy_production
        record(ratios, "exhaustive_mean", worst(mean, [entropy(marginal)], dim))
    check(ratios)


@st.composite
def meters(draw):
    """An initial modality, a pointer, an overlap matrix (uniform, or explicit) and a chain
    length in 0–8."""
    dim = draw(st.integers(2, 8))
    start, pointer = draw(contexts(dim, "start")), draw(contexts(dim, "pointer"))
    if draw(st.booleans()):
        gram = cs.gram_uniform(dim, draw(st.floats(0, 1)))
    else:
        gram = random_unit_gram(dim, draw(st.integers(0, 2**32 - 1)))
    initial = start.modality(draw(st.integers(0, dim - 1)))
    return initial, pointer, gram, draw(st.integers(0, 8))


@settings(max_examples=60, deadline=None)
@given(case=meters())
def test_each_meter_kernel_is_within_its_bound_of_the_40_digit_formula(case):
    initial, pointer, gram, m = case
    ratios, dim, i = {}, initial.dim, initial.index
    with mpmath.workdps(DIGITS):
        n = range(dim)
        start, mid = lift(initial.context), lift(pointer)
        there, back = overlaps(mid, start)  # ⟨v_j|u_i⟩, ⟨u_k|v_j⟩
        overlap = [[mpmath.mpc(z) for z in row] for row in gram.matrix.tolist()]
        # Σ_{j,j'} conj(P_kj) P_kj' G[j, j'] with P_kj = ⟨u_k|v_j⟩⟨v_j|u_i⟩
        paths = [[back[k][j] * there[j][i] for j in n] for k in n]
        values = [mpmath.fsum(mpmath.conj(p[j]) * p[l] * overlap[j][l] for j in n for l in n)
                  for p in paths]
        probs = cs.meter_return_probabilities(initial, pointer, gram)
        ratio = worst(probs, [clamp(v.real) for v in values], dim)
        record(ratios, "meter_return_probabilities", ratio)
        # ρ[j, j'] = b_j conj(b_j') conj(G[j, j'])^m with b_j = ⟨v_j|u_i⟩
        b = [there[j][i] for j in n]
        reduced = [[b[j] * mpmath.conj(b[l]) * mpmath.conj(overlap[j][l]) ** m for l in n]
                   for j in n]
        rho = cs.meter_chain_reduced_state(initial, pointer, gram, m)
        record(ratios, "meter_chain_reduced_state", worst(rho, reduced, dim))
        # row m of the m_count sweep over lengths 0–8, read off one table of chain states
        grid = list(range(9))
        row = _rows("m_count", grid, _m_count_sweep_rows(initial, pointer, gram, grid))[m]
        diagonal = [reduced[j][j].real for j in n]
        record(ratios, "m_count_sweep.diagonal", worst(row["diagonal"], diagonal, dim))
        coherence = max(abs(reduced[j][l]) for j in n for l in n if j != l)
        record(ratios, "m_count_sweep.max_coherence", worst(row["max_coherence"], [coherence], dim))
    check(ratios)


def conditioned(eigvals: list, dim: int) -> mpmath.mpf:
    """The entropy's bound: each exact eigenvalue λ, clamped into [0, 1], may be returned off
    by δ = ``BOUND · dim · eps`` (Weyl), which moves −λ log λ by at most the largest
    |h(x) − h(λ)| over x in [λ − δ, λ + δ] ∩ [0, 1], for h(x) = −x log x.  h is concave with
    its peak at 1/e, so that is at an end of the interval or at 1/e.  The sum over eigenvalues,
    plus δ for the rounding of the sum itself."""
    delta = BOUND * dim * EPS
    total = mpmath.mpf(delta)
    for lam in (clamp(x) for x in eigvals):
        ends = [max(lam - delta, 0), min(lam + delta, 1)]
        points = ends + ([1 / mpmath.e] if ends[0] < 1 / mpmath.e < ends[1] else [])
        total += max(abs(entropy([x]) - entropy([lam])) for x in points)
    return total


def spectrum(rho: np.ndarray) -> list:
    """The 40-digit eigenvalues, ascending, of the Hermitian part of ``rho`` as given."""
    lifted = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in rho.tolist()])
    return sorted(mpmath.eighe((lifted + lifted.transpose_conj()) / 2, eigvals_only=True))


@st.composite
def g_sweep_points(draw):
    """An initial modality, a pointer and a strength g, drawn near 1 (a rank-deficient state)
    as often as not."""
    dim = draw(st.integers(2, 8))
    start, pointer = draw(contexts(dim, "start")), draw(contexts(dim, "pointer"))
    g = draw(st.one_of(st.floats(0, 1), st.floats(1 - 1e-12, 1), st.just(1.0)))
    return start.modality(draw(st.integers(0, dim - 1))), pointer, g


@settings(max_examples=60, deadline=None)
@given(case=g_sweep_points())
def test_von_neumann_entropy_is_within_its_conditioned_bound_on_both_g_sweep_routes(case):
    initial, pointer, g = case
    dim, ratios, shares = initial.dim, {}, {}
    rho0, rho1 = (cs.meter_chain_reduced_state(initial, pointer, cs.gram_uniform(dim, e), 1)
                  for e in (0.0, 1.0))
    routes = {
        # the state run's meter section reads, and the real symmetric matrix of a g sweep row
        "complex": cs.meter_chain_reduced_state(initial, pointer, cs.gram_uniform(dim, g), 1),
        "real": (1 - g) * rho0.real + g * np.abs(rho1),
    }
    # the g sweep row deflates the real route's matrix instead of handing it to eigvalsh
    [row] = _rows("g", [g], _g_sweep_rows(initial, pointer, None, [g]))
    with mpmath.workdps(DIGITS):
        for route, rho in routes.items():
            exact = spectrum(rho)
            record(ratios, f"eigvalsh[{route}]", worst(np.linalg.eigvalsh(rho), exact, dim))
            error = abs(cs.von_neumann_entropy(rho) - entropy(clamp(x) for x in exact))
            shares[route] = float(error / conditioned(exact, dim))
            if route == "real":
                error = abs(row["entropy"] - entropy(clamp(x) for x in exact))
                shares["g_sweep"] = float(error / conditioned(exact, dim))
    check(ratios)
    for route, share in shares.items():
        target(share, label=f"von_neumann_entropy[{route}]")
        assert share <= 1, f"von_neumann_entropy[{route}] is at {share:.3f} of its bound"


def dense(weights: list, g) -> list:
    """The 40-digit spectrum, ascending, of (1 - g)·diag(w²) + g·w wᵀ for the squared moduli
    ``weights`` = w², each lifted exactly."""
    w2 = [mpmath.mpf(x) for x in weights]
    w = [mpmath.sqrt(x) for x in w2]
    n, g = range(len(w2)), mpmath.mpf(g)
    matrix = mpmath.matrix([[(1 - g) * w2[j] * (j == k) + g * w[j] * w[k] for k in n] for j in n])
    return sorted(mpmath.eigsy(matrix, eigvals_only=True))


@st.composite
def tied_weights(draw):
    """Squared moduli of dim 2–8 that take at most three values, one of them possibly 0: ties,
    zero weights and both, normalized to sum 1 (equal values stay equal), and a grid of
    strengths in [0, 1] with both ends."""
    dim = draw(st.integers(2, 8))
    values = draw(st.lists(st.floats(0.01, 1.0) | st.just(0.0), min_size=3, max_size=3))
    levels = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
    raw = np.array([values[k] for k in levels])
    if raw.sum() == 0.0:
        raw[0] = 1.0
    inner = draw(st.lists(st.floats(0, 1) | st.floats(1 - 1e-12, 1), max_size=4))
    return raw / raw.sum(), [0.0, *inner, 1.0]


@settings(max_examples=60, deadline=None)
@given(case=tied_weights())
def test_the_deflated_g_spectrum_is_within_its_bound_of_the_40_digit_one(case):
    weights, grid = case
    dim, ratios = len(weights), {}
    spectra = _g_spectra(weights, grid)
    assert spectra[0].tolist() == weights.tolist()  # g = 0 is w² itself
    assert spectra[-1].tolist() == [1.0] + [0.0] * (dim - 1)  # g = 1 is the point mass
    with mpmath.workdps(DIGITS):
        for g, computed in zip(grid, spectra):
            assert len(computed) == dim
            record(ratios, "_g_spectra", worst(np.sort(computed), dense(weights.tolist(), g), dim))
    check(ratios)


@pytest.mark.parametrize("dim", [2, 3, 8, 64])
def test_a_fourier_pointer_from_the_computational_context_deflates_to_one_reduced_row(dim):
    # every |b_j|² is 1/dim up to rounding: one group, so (1 - g)/dim taken dim - 1 times and
    # (1 - g)/dim + g, held against that closed form at 40 digits
    initial, pointer = cs.computational_context(dim).modality(0), cs.fourier_context(dim)
    grid = np.linspace(0, 1, 11).tolist()
    rows = _rows("g", grid, _g_sweep_rows(initial, pointer, None, grid))
    b = pointer.adjoint @ initial.vector
    with mpmath.workdps(DIGITS):
        for row, computed in zip(rows, _g_spectra(b.real**2 + b.imag**2, grid)):
            g = mpmath.mpf(row["g"])
            exact = [(1 - g) / dim] * (dim - 1) + [(1 - g) / dim + g]
            assert worst(np.sort(computed), exact, dim) <= BOUND
            error = abs(row["entropy"] - entropy(exact))
            assert error <= conditioned(exact, dim), f"g = {row['g']}"
    assert rows[-1]["entropy"] == 0.0


@pytest.mark.parametrize("dim", [2, 5, 64])
def test_a_pointer_equal_to_the_start_context_leaves_a_pure_state_at_every_strength(dim):
    # b = e_i: dim - 1 zero weights deflate among themselves and the weight 1 is a group of its
    # own, so every strength's spectrum is exactly a point mass
    ctx = cs.computational_context(dim)
    grid = np.linspace(0, 1, 7).tolist()
    rows = _rows("g", grid, _g_sweep_rows(ctx.modality(dim - 1), ctx, None, grid))
    assert [row["entropy"] for row in rows] == [0.0] * 7
