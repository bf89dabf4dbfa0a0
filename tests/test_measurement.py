import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
from csm_sim.errors import DimensionMismatch, InternalConsistencyError, ScenarioValidationError
from csm_sim.hilbert import clamp_probabilities, validate_distribution
from conftest import born, path_amplitudes, point_mass


# Entry (j, i) of transition_matrix(a, b) is the Born probability |⟨b_j|a_i⟩|².


def test_born_same_modality_is_one():
    ctx = cs.haar_context(3, 9)
    assert cs.transition_matrix(ctx, ctx)[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_born_exclusive_modalities_are_zero():
    ctx = cs.haar_context(4, 2)
    assert cs.transition_matrix(ctx, ctx)[3, 0] == pytest.approx(0.0, abs=1e-12)


def test_born_balanced_half(balanced):
    initial, tilted = balanced
    assert cs.transition_matrix(initial.context, tilted)[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_born_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        cs.transition_matrix(cs.computational_context(2), cs.computational_context(3))


@settings(max_examples=30, deadline=None)
@given(
    seed_a=st.integers(0, 2**31 - 1),
    seed_b=st.integers(0, 2**31 - 1),
    dim=st.sampled_from([2, 3, 5]),
)
def test_born_symmetry_between_transition_tables(seed_a, seed_b, dim):
    # the backward trajectory route reads the swapped table; it must agree to rounding
    a = cs.haar_context(dim, seed_a)
    b = cs.haar_context(dim, seed_b)
    forward, backward = cs.transition_matrix(a, b), cs.transition_matrix(b, a)
    assert np.max(np.abs(forward - backward.T)) <= 1e-15
    for i in range(dim):
        for j in range(dim):
            assert abs(forward[j, i] - born(a.modality(i), b.modality(j))) <= 1e-14


def test_transition_same_context_identity():
    ctx = cs.haar_context(3, 4)
    np.testing.assert_allclose(cs.transition_matrix(ctx, ctx), np.eye(3), atol=1e-12)


def test_transition_rotation_pattern():
    z = cs.computational_context(2)
    for theta in (0.3, 1.1, 2.5):
        t = cs.transition_matrix(z, cs.rotation_context(theta))
        c2, s2 = np.cos(theta / 2) ** 2, np.sin(theta / 2) ** 2
        np.testing.assert_allclose(t, [[c2, s2], [s2, c2]], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.sampled_from([2, 3, 5, 8]),
)
def test_transition_unistochastic(seed, dim):
    t = cs.transition_matrix(cs.haar_context(dim, seed), cs.haar_context(dim, seed + 10**9))
    assert t.min() >= 0.0 and t.max() <= 1.0
    np.testing.assert_allclose(t.sum(axis=0), np.ones(dim), atol=1e-10)
    np.testing.assert_allclose(t.sum(axis=1), np.ones(dim), atol=1e-10)


# A protocol propagates its initial point mass through its step tables into
# ``Protocol.marginal``; these pin what that propagation gives.


def test_propagate_point_mass_gives_column():
    z = cs.computational_context(3)
    h = cs.haar_context(3, 1)
    protocol = cs.Protocol((z, h), z.modality(1))
    np.testing.assert_array_equal(protocol.marginal, protocol.steps[0][:, 1])


def test_propagate_identity_fixes_distribution():
    # a repeated context is an identity step, which keeps the point mass
    z = cs.haar_context(3, 4)
    protocol = cs.Protocol((z, z, z), z.modality(2))
    for t in protocol.steps:
        np.testing.assert_allclose(t, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(protocol.marginal, point_mass(3, 2), atol=1e-15)


def test_propagate_uniform_is_fixed_point():
    # the Fourier step makes the marginal uniform; doubly stochastic steps keep it
    z = cs.computational_context(5)
    protocol = cs.Protocol(
        (z, cs.fourier_context(5), cs.haar_context(5, 3), cs.haar_context(5, 8)), z.modality(4)
    )
    np.testing.assert_allclose(protocol.marginal, np.full(5, 0.2), atol=1e-12)


def test_nan_distribution_is_invalid_input():
    with pytest.raises(ScenarioValidationError, match=r"^dist: need finite entries, got nan$"):
        validate_distribution(np.array([np.nan, 0.5]))
    z = cs.computational_context(2)
    protocol = cs.Protocol((z, cs.fourier_context(2)), z.modality(0))
    with pytest.raises(ScenarioValidationError, match="^final_dist: need finite entries"):
        cs.entropy_production(protocol, (0, 1), np.array([np.nan, 0.5]))


def test_irreversible_same_context_is_delta():
    ctx = cs.haar_context(3, 6)
    for i in range(3):
        for k in range(3):
            assert cs.irreversible_return(ctx.modality(i), ctx, k) == pytest.approx(
                1.0 if i == k else 0.0, abs=1e-12
            )


def test_irreversible_balanced_half(balanced):
    initial, tilted = balanced
    assert cs.irreversible_return(initial, tilted, 0) == pytest.approx(0.5, abs=1e-12)


def test_irreversible_matches_brute_force_double_sum():
    z = cs.computational_context(2)
    for theta in (0.3, 1.1, 2.5):
        mid = cs.rotation_context(theta)
        # independent oracle: explicit sum over intermediate outcomes
        expected = sum(
            abs(np.vdot(z.basis[:, 0], mid.basis[:, j])) ** 2
            * abs(np.vdot(mid.basis[:, j], z.basis[:, 0])) ** 2
            for j in range(2)
        )
        got = cs.irreversible_return(z.modality(0), mid, 0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(np.cos(theta / 2) ** 4 + np.sin(theta / 2) ** 4, abs=1e-12)


def test_irreversible_rows_normalize():
    initial = cs.haar_context(5, 12).modality(2)
    mid = cs.haar_context(5, 13)
    total = sum(cs.irreversible_return(initial, mid, k) for k in range(5))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_reversible_is_identity_for_haar_n7():
    ctx = cs.haar_context(7, 21)
    mid = cs.haar_context(7, 22)
    got = np.array(
        [[cs.reversible_return(ctx.modality(i), mid, k) for i in range(7)] for k in range(7)]
    )
    np.testing.assert_allclose(got, np.eye(7), atol=1e-10)


def test_interference_zero_phases_reduce_to_reversible(balanced):
    initial, tilted = balanced
    phases = np.zeros(2)
    for k in range(2):
        assert cs.interference_returns(initial, tilted, phases)[k] == pytest.approx(
            cs.reversible_return(initial, tilted, k), abs=1e-15
        )


def test_interference_two_path_fringe(balanced):
    initial, tilted = balanced
    for phi in np.linspace(0.0, 2 * np.pi, 17):
        p, p_other = cs.interference_returns(initial, tilted, np.array([0.0, phi]))
        assert p == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)
        # outcomes across the return context stay normalized
        assert p + p_other == pytest.approx(1.0, abs=1e-12)


def test_interference_phase_average_gives_irreversible(balanced):
    # dialing a uniformly random phase destroys the coherent cross term
    initial, tilted = balanced
    rng = np.random.default_rng(99)
    phis = rng.uniform(0.0, 2 * np.pi, size=4000)
    samples = np.array(
        [cs.interference_returns(initial, tilted, np.array([0.0, phi]))[0] for phi in phis]
    )
    target = cs.irreversible_return(initial, tilted, 0)
    std_err = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - target) <= 3 * std_err


def test_interference_requires_full_phase_vector(balanced):
    initial, tilted = balanced
    with pytest.raises(DimensionMismatch):
        cs.interference_returns(initial, tilted, np.zeros(3))


def test_return_index_validation(balanced):
    initial, tilted = balanced
    with pytest.raises(ScenarioValidationError, match=r"^final_index: 2 not in \[0, 2\)$"):
        cs.irreversible_return(initial, tilted, 2)
    with pytest.raises(ScenarioValidationError, match=r"^final_index: -1 not in \[0, 2\)$"):
        cs.reversible_return(initial, tilted, -1)


@pytest.mark.parametrize("index", [True, 1.5, np.float64(1.0)])
def test_return_index_must_be_an_integer(balanced, index):
    # each of these once ended in a bare TypeError from the table read
    initial, tilted = balanced
    for read in (cs.reversible_return, cs.irreversible_return):
        with pytest.raises(ScenarioValidationError, match="^final_index: .* is not an integer$"):
            read(initial, tilted, index)


def test_return_index_admits_numpy_integers(balanced):
    initial, tilted = balanced
    for read in (cs.reversible_return, cs.irreversible_return):
        assert read(initial, tilted, np.int64(1)) == read(initial, tilted, 1)


def test_probability_vector_clamp_behaviour():
    clamped = clamp_probabilities(np.array([-1e-12, 0.25, 1.0 + 1e-12]))
    np.testing.assert_array_equal(clamped, [0.0, 0.25, 1.0])
    for bad in ([0.5, np.nan], [np.nan, np.nan], [0.5, 1.0 + 1e-6], [-1e-6, 0.5]):
        with pytest.raises(InternalConsistencyError):
            clamp_probabilities(np.array(bad))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 16))
def test_scalar_returns_match_table_referee(seed, dim):
    start, mid = cs.haar_context(dim, seed), cs.haar_context(dim, seed + 1)
    # both return tables are clamped when made, and the scalar readers return
    # their entries exactly
    tables = start.return_tables(mid)
    for table in tables:
        assert np.all((table >= 0.0) & (table <= 1.0))
    # whole-table referees from the bases alone: W[k, j] = ⟨u_k|v_j⟩
    w = start.basis.conj().T @ mid.basis
    reversible = np.abs(w @ w.conj().T) ** 2
    t = cs.transition_matrix(start, mid)
    irreversible = t.T @ t
    np.testing.assert_allclose(reversible, np.eye(dim), atol=1e-12)
    zero = np.zeros(dim)
    for i in range(dim):
        m = cs.Modality(start, i)
        for k in range(dim):
            assert cs.reversible_return(m, mid, k) == tables[0][k, i]
            assert cs.irreversible_return(m, mid, k) == tables[1][k, i]
            assert abs(cs.reversible_return(m, mid, k) - reversible[k, i]) <= 1e-12
            assert abs(cs.interference_returns(m, mid, zero)[k] - reversible[k, i]) <= 1e-12
            assert abs(cs.irreversible_return(m, mid, k) - irreversible[k, i]) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8))
def test_table_returns_match_per_call_products(seed, dim):
    start, mid = cs.haar_context(dim, seed), cs.haar_context(dim, seed + 1)
    b_adj = mid.basis.conj().T
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, dim)
    np.testing.assert_allclose(
        cs.transition_matrix(start, mid), np.abs(b_adj @ start.basis) ** 2, rtol=0, atol=1e-12
    )
    for i in range(dim):
        m = cs.Modality(start, i)
        to_mid = b_adj @ start.basis[:, i]  # B†u_i, the per-call product the table replaced
        for k in range(dim):
            from_mid = start.basis[:, k].conj() @ mid.basis  # u_k†B
            paths = from_mid * to_mid
            assert abs(cs.reversible_return(m, mid, k) - abs(paths.sum()) ** 2) <= 1e-12
            assert abs(
                cs.interference_returns(m, mid, phases)[k]
                - abs((np.exp(1j * phases) * paths).sum()) ** 2
            ) <= 1e-12
            irreversible = np.dot(np.abs(from_mid) ** 2, np.abs(to_mid) ** 2)
            assert abs(cs.irreversible_return(m, mid, k) - irreversible) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8))
def test_memoized_return_tables_match_path_sums(seed, dim):
    start, mid = cs.haar_context(dim, seed), cs.haar_context(dim, seed + 1)
    reversible, irreversible = start.return_tables(mid)
    squared = np.abs(mid.overlaps(start)) ** 2  # column i: |⟨v_j|u_i⟩|² over j
    for i in range(dim):
        m = cs.Modality(start, i)
        for k in range(dim):
            amp = path_amplitudes(m, mid, k).sum()
            assert abs(reversible[k, i] - abs(amp) ** 2) <= 1e-12
            assert abs(irreversible[k, i] - np.dot(squared[:, k], squared[:, i])) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8))
def test_interference_returns_match_per_outcome_path_sums(seed, dim):
    start, mid = cs.haar_context(dim, seed), cs.haar_context(dim, seed + 1)
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, dim)
    for i in range(dim):
        m = cs.Modality(start, i)
        returns = cs.interference_returns(m, mid, phases)
        for k in range(dim):
            # the same products summed in the same order: equal to the last bit
            amp = (np.exp(1j * phases) * path_amplitudes(m, mid, k)).sum()
            assert returns[k] == amp.real * amp.real + amp.imag * amp.imag
