"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
from conftest import path_amplitudes, random_unit_gram

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "balanced_qubit.json"


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _haar_pairs(dims, pairs_per_dim, seed0):
    for dim in dims:
        for p in range(pairs_per_dim):
            yield (
                cs.haar_context(dim, seed0 + 2 * p, id=f"a{dim}.{p}"),
                cs.haar_context(dim, seed0 + 2 * p + 1, id=f"b{dim}.{p}"),
            )


def test_criterion_01_identity_gram_reduces_to_probability_sum():
    tol = 1e-12
    start = time.perf_counter()
    worst = 0.0
    for a, b in _haar_pairs((2, 3, 5), 34, seed0=100):
        eye = cs.Gram(np.eye(a.dim))
        for i in range(a.dim):
            initial = a.modality(i)
            probs = cs.meter_return_probabilities(initial, b, eye)
            for k in range(a.dim):
                dev = abs(probs[k] - cs.irreversible_return(initial, b, k))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 1.0
    _line(1, "identity-overlap limit equals probability-summed return",
          ok, f"max dev {worst:.3e} (tol {tol:.0e}), {elapsed:.2f}s")
    assert worst <= tol
    assert elapsed < 1.0


def test_criterion_02_all_ones_gram_reduces_to_certain_return():
    tol = 1e-12
    start = time.perf_counter()
    worst = 0.0
    for a, b in _haar_pairs((2, 3, 5), 34, seed0=4000):
        ones = cs.Gram(np.ones((a.dim, a.dim)))
        for i in range(a.dim):
            probs = cs.meter_return_probabilities(a.modality(i), b, ones)
            worst = max(worst, float(np.max(np.abs(probs - np.eye(a.dim)[i]))))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 1.0
    _line(2, "all-ones-overlap limit restores the initial modality",
          ok, f"max dev {worst:.3e} (tol {tol:.0e}), {elapsed:.2f}s")
    assert worst <= tol
    assert elapsed < 1.0


def test_criterion_03_closure_and_interference():
    tol_closure, tol_fringe = 1e-10, 1e-12
    start = time.perf_counter()
    worst_closure = 0.0
    for dim in range(2, 9):
        a = cs.haar_context(dim, 7000 + dim)
        b = cs.haar_context(dim, 7100 + dim)
        for i in range(dim):
            initial = a.modality(i)
            for k in range(dim):
                dev = abs(cs.reversible_return(initial, b, k) - (1.0 if i == k else 0.0))
                worst_closure = max(worst_closure, dev)
    initial = cs.computational_context(2).modality(0)
    tilted = cs.rotation_context(np.pi / 2)
    worst_fringe = max(
        abs(cs.interference_returns(initial, tilted, np.array([0.0, phi]))[0]
            - np.cos(phi / 2) ** 2)
        for phi in np.linspace(0.0, 2 * np.pi, 100)
    )
    elapsed = time.perf_counter() - start
    ok = worst_closure <= tol_closure and worst_fringe <= tol_fringe and elapsed < 1.0
    _line(3, "amplitude-summed return is the identity; fringe matches cos^2(phi/2)",
          ok, f"closure dev {worst_closure:.3e}, fringe dev {worst_fringe:.3e}, {elapsed:.2f}s")
    assert worst_closure <= tol_closure
    assert worst_fringe <= tol_fringe
    assert elapsed < 1.0


def test_criterion_04_unistochasticity_500_pairs():
    tol = 1e-10
    start = time.perf_counter()
    worst = 0.0
    for a, b in _haar_pairs((2, 3, 5, 8), 125, seed0=20000):
        t = cs.transition_matrix(a, b)
        worst = max(
            worst,
            float(np.max(np.abs(t.sum(axis=0) - 1.0))),
            float(np.max(np.abs(t.sum(axis=1) - 1.0))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 1.0
    _line(4, "all transition matrices are doubly stochastic",
          ok, f"max sum dev {worst:.3e} over 500 pairs, {elapsed:.2f}s")
    assert worst <= tol
    assert elapsed < 1.0


def _small_protocols():
    z2 = cs.computational_context(2)
    z3 = cs.computational_context(3)
    protocols = [
        cs.Protocol((z2, cs.rotation_context(np.pi / 2)), z2.modality(0)),
        cs.Protocol((z2, cs.rotation_context(0.7), cs.fourier_context(2)), z2.modality(1)),
        cs.Protocol(
            (z2, cs.haar_context(2, 51), cs.haar_context(2, 52), cs.haar_context(2, 53)),
            z2.modality(0),
        ),
        cs.Protocol((z2, cs.rotation_context(2.2), z2, cs.rotation_context(1.1)), z2.modality(0)),
        cs.Protocol((z3, cs.fourier_context(3)), z3.modality(2)),
        cs.Protocol((z3, cs.haar_context(3, 61), cs.fourier_context(3)), z3.modality(0)),
        cs.Protocol(
            (z3, cs.haar_context(3, 62), cs.haar_context(3, 63), cs.haar_context(3, 64)),
            z3.modality(1),
        ),
        cs.Protocol((z3, cs.fourier_context(3), z3, cs.haar_context(3, 65)), z3.modality(0)),
    ]
    return protocols


def test_criterion_05_shannon_identity_exact():
    tol = 1e-12
    worst = 0.0
    for protocol in _small_protocols():
        exact = cs.exhaustive_entropy_production(protocol)
        target = cs.shannon_entropy(protocol.marginal)
        worst = max(worst, abs(exact.mean_entropy_production - target))
        assert exact.sample_count <= 3**4
    ok = worst <= tol
    _line(5, "exact mean entropy production equals final Shannon entropy",
          ok, f"max dev {worst:.3e} over {len(_small_protocols())} protocols (tol {tol:.0e})")
    assert worst <= tol


def test_criterion_06_shannon_identity_sampled():
    z = cs.computational_context(2)
    protocol = cs.Protocol((z, cs.rotation_context(np.pi / 2)), z.modality(0))
    start = time.perf_counter()
    stats = cs.mean_entropy_production(protocol, 100_000, seed=20260810)
    elapsed = time.perf_counter() - start
    dev = abs(stats.mean_entropy_production - math.log(2))
    bound = 3 * stats.std_error
    ok = dev <= bound and elapsed < 10.0
    _line(6, "sampled mean entropy production hits log 2 at 3 standard errors",
          ok, f"|mean-log2|={dev:.3e} <= 3se={bound:.3e}, {elapsed:.2f}s")
    assert dev <= bound
    assert elapsed < 10.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_criterion_06_holds_at_every_seed(seed):
    # the criterion's own assertion, whatever the seed: a mean rounded coarser than its
    # std error (here ~7e-19, against log 2's ulp of 1.1e-16) misses log 2 at some seeds
    z = cs.computational_context(2)
    protocol = cs.Protocol((z, cs.rotation_context(np.pi / 2)), z.modality(0))
    stats = cs.mean_entropy_production(protocol, 100_000, seed=seed)
    assert abs(stats.mean_entropy_production - math.log(2)) <= 3 * stats.std_error


def test_criterion_07_weak_to_strong_interpolation():
    tol = 1e-12
    initial = cs.computational_context(2).modality(0)
    pointer = cs.rotation_context(np.pi / 2)
    worst = 0.0
    entropies = []
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        gram = cs.gram_uniform(2, g)
        paths = path_amplitudes(initial, pointer, 0)
        oracle = sum(
            (paths[j].conjugate() * gram.matrix[j, jp] * paths[jp]).real
            for j in range(2)
            for jp in range(2)
        )
        got = cs.meter_return_probabilities(initial, pointer, gram)[0]
        worst = max(worst, abs(got - (1 + g) / 2), abs(got - oracle))
        rho = cs.meter_chain_reduced_state(initial, pointer, gram, 1)
        entropies.append(cs.von_neumann_entropy(rho))
    monotone = all(b < a for a, b in zip(entropies, entropies[1:]))
    endpoints = abs(entropies[0] - math.log(2)) <= tol and abs(entropies[-1]) <= tol
    ok = worst <= tol and monotone and endpoints
    _line(7, "return probability follows (1+g)/2 and entropy falls from log 2 to 0",
          ok, f"max prob dev {worst:.3e}, entropies {[round(e, 6) for e in entropies]}")
    assert worst <= tol
    assert monotone
    assert endpoints


def test_criterion_08_meter_chain_decoherence():
    tol = 1e-12
    initial = cs.computational_context(2).modality(0)
    pointer = cs.rotation_context(np.pi / 2)
    gram = cs.gram_uniform(2, 0.5)
    # referee: the composite route with orthogonal meter states (a completed measurement)
    meters = cs.meter_states_from_gram(cs.Gram(np.eye(2)))
    post = cs.reduced_system_state(cs.entangle(initial, pointer, meters), pointer)
    reference_diag = np.diagonal(post).real
    worst_off = worst_diag = 0.0
    for m in range(17):
        rho = cs.meter_chain_reduced_state(initial, pointer, gram, m)
        worst_off = max(worst_off, abs(abs(rho[0, 1]) - 0.5 * 0.5**m))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diagonal(rho).real - reference_diag))))
    ok = worst_off <= tol and worst_diag <= tol
    _line(8, "chain coherence decays as (1/2)g^M onto the post-measurement diagonal",
          ok, f"off-diag dev {worst_off:.3e}, diag dev {worst_diag:.3e} (tol {tol:.0e})")
    assert worst_off <= tol
    assert worst_diag <= tol


def test_criterion_09_two_form_consistency():
    tol = 1e-12
    rng = np.random.default_rng(424242)
    worst = 0.0
    for case in range(100):
        dim = (2, 3, 5)[case % 3]
        a = cs.haar_context(dim, 90000 + 2 * case)
        b = cs.haar_context(dim, 90001 + 2 * case)
        if case % 2:
            gram = random_unit_gram(dim, seed=500 + case)  # complex off-diagonals
        else:
            gram = cs.gram_uniform(dim, float(rng.uniform()))
        initial = a.modality(int(rng.integers(dim)))
        state = cs.entangle(initial, b, cs.meter_states_from_gram(gram))
        probs = cs.meter_return_probabilities(initial, b, gram)
        composite = cs.composite_return_probabilities(state, a, b)
        worst = max(worst, float(np.max(np.abs(probs - composite))))
    ok = worst <= tol
    _line(9, "overlap-matrix form agrees with the explicit composite-state expectation",
          ok, f"max dev {worst:.3e} over 100 cases incl. complex overlaps (tol {tol:.0e})")
    assert worst <= tol


def test_criterion_10_byte_identical_reports():
    scenario = cs.parse_scenario(SCENARIO)
    first = cs.report_to_json(cs.run_scenario(scenario, seed=42, n_samples=2000))
    second = cs.report_to_json(cs.run_scenario(scenario, seed=42, n_samples=2000))
    # the largest count costs no more: the ensemble draws its final counts in one multinomial
    n = 2**63 - 1
    largest = cs.report_to_json(cs.run_scenario(scenario, seed=42, n_samples=n))
    largest_again = cs.report_to_json(cs.run_scenario(scenario, seed=42, n_samples=n))
    ok = first == second and largest == largest_again
    _line(10, "reports byte-identical across repeated runs, up to the largest sample count",
          ok, f"{len(first)} and {len(largest)} bytes")
    assert first == second
    assert largest == largest_again
