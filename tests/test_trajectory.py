import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
import csm_sim.trajectory
from csm_sim.errors import (
    DimensionMismatch,
    InternalConsistencyError,
    ScenarioValidationError,
)
from csm_sim.hilbert import INPUT_TOL
from conftest import backward_log_prob, born, enumerated_ensemble, forward_log_prob
from conftest import marginal_referee, point_mass

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def balanced_protocol():
    z = cs.computational_context(2)
    x = cs.rotation_context(np.pi / 2)
    return cs.Protocol((z, x), z.modality(0))


def constant_protocol(n=3, dim=2):
    ctx = cs.computational_context(dim)
    return cs.Protocol((ctx,) * n, ctx.modality(0))


def test_protocol_validation():
    z = cs.computational_context(2)
    x = cs.rotation_context(0.4)
    with pytest.raises(ScenarioValidationError, match="^contexts: protocol needs at least one"):
        cs.Protocol((), z.modality(0))
    with pytest.raises(ScenarioValidationError, match="^initial: initial modality lives in"):
        cs.Protocol((z, x), x.modality(0))
    with pytest.raises(DimensionMismatch):
        cs.Protocol((z, cs.computational_context(3)), z.modality(0))


_PICK = st.tuples(st.sampled_from(("computational", "fourier", "haar")), st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 8), picks=st.lists(_PICK, min_size=1, max_size=6), initial=st.integers(0, 7))
def test_protocol_holds_its_step_tables_and_marginal(dim, picks, initial):
    build = {
        "computational": lambda seed: cs.computational_context(dim),
        "fourier": lambda seed: cs.fourier_context(dim),
        "haar": lambda seed: cs.haar_context(dim, seed),
    }
    contexts = tuple(build[kind](seed) for kind, seed in picks)
    protocol = cs.Protocol(contexts, contexts[0].modality(initial % dim))
    assert len(protocol.steps) == len(contexts) - 1
    for t, a, b in zip(protocol.steps, contexts, contexts[1:]):
        assert np.array_equal(t, cs.transition_matrix(a, b))
    assert np.array_equal(protocol.marginal, marginal_referee(protocol))
    for table in (*protocol.steps, protocol.marginal):
        with pytest.raises(ValueError):
            table[0] = 0.5
    twin = cs.Protocol(list(contexts), contexts[0].modality(initial % dim))
    assert twin == protocol and hash(twin) == hash(protocol)


def test_transition_tables_are_built_once_per_protocol(monkeypatch):
    # a protocol builds its n - 1 forward tables, then the backward route's n - 1 for
    # its cross-check; no route builds one after that
    calls = []
    real = csm_sim.trajectory.transition_matrix

    def counted(frm, to):
        calls.append((frm, to))
        return real(frm, to)

    monkeypatch.setattr(csm_sim.trajectory, "transition_matrix", counted)
    z = cs.computational_context(3)
    contexts = (z, cs.fourier_context(3), cs.haar_context(3, 1), cs.haar_context(3, 2))
    n = len(contexts)
    protocol = cs.Protocol(contexts, z.modality(1))
    forward = [(contexts[s], contexts[s + 1]) for s in range(n - 1)]
    backward = [(contexts[s + 1], contexts[s]) for s in range(n - 1)]
    assert calls == forward + backward
    cs.mean_entropy_production(protocol, 1000, 7)
    cs.exhaustive_entropy_production(protocol)
    trajectory = cs.sample_trajectory(protocol, 3)
    cs.entropy_production(protocol, trajectory.outcomes, protocol.marginal)
    assert len(calls) == 2 * (n - 1)


@pytest.mark.parametrize("outcomes", [(0, 1.7), (0, True), (False, 1), (0, "1"), (0, 1.0)])
def test_outcomes_must_be_integers(outcomes):
    # an int() cast would read (0, 1.7) as (0, 1)
    with pytest.raises(ScenarioValidationError, match=r"^outcomes\[[01]\]: .* is not an integer$"):
        cs.entropy_production(balanced_protocol(), outcomes, np.full(2, 0.5))


def test_outcomes_admit_numpy_integers():
    delta = cs.entropy_production(balanced_protocol(), np.array([0, 1]), np.full(2, 0.5))
    assert delta == -math.log(0.5)


def test_forward_log_prob_constant_chain_is_zero():
    assert forward_log_prob(constant_protocol(), (0, 0, 0)) == 0.0


def test_forward_log_prob_balanced_single_step():
    assert forward_log_prob(balanced_protocol(), (0, 0)) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_forward_log_prob_forbidden_transition_is_minus_inf():
    assert forward_log_prob(constant_protocol(), (0, 1, 1)) == float("-inf")


def test_forward_log_prob_input_checks():
    protocol = balanced_protocol()
    with pytest.raises(ScenarioValidationError, match="^outcomes: 1 outcomes for 2 contexts$"):
        forward_log_prob(protocol, (0,))
    with pytest.raises(ScenarioValidationError, match=r"^outcomes\[0\]: sequence starts at 1"):
        forward_log_prob(protocol, (1, 0))


def test_backward_log_prob_deterministic_chain():
    protocol = constant_protocol()
    assert backward_log_prob(protocol, (0, 0, 0), point_mass(2, 0)) == 0.0


def test_backward_log_prob_balanced_uniform():
    protocol = balanced_protocol()
    assert backward_log_prob(protocol, (0, 0), np.full(2, 0.5)) == pytest.approx(
        2 * math.log(0.5), abs=1e-12
    )


def test_backward_log_prob_zero_weight_is_minus_inf():
    protocol = balanced_protocol()
    assert backward_log_prob(protocol, (0, 0), point_mass(2, 1)) == float("-inf")


def test_entropy_production_point_mass_on_realized_outcome_is_zero():
    protocol = balanced_protocol()
    assert cs.entropy_production(protocol, (0, 1), point_mass(2, 1)) == 0.0


def test_entropy_production_uniform_reference_is_log2():
    protocol = balanced_protocol()
    for outcomes in ((0, 0), (0, 1)):
        assert cs.entropy_production(protocol, outcomes, np.full(2, 0.5)) == (
            -math.log(0.5)
        )


def test_entropy_production_quarter_weight_is_log4():
    protocol = balanced_protocol()
    assert cs.entropy_production(protocol, (0, 1), np.array([0.75, 0.25])) == pytest.approx(
        math.log(4), abs=1e-12
    )


def test_entropy_production_zero_forward_path_raises():
    with pytest.raises(ScenarioValidationError, match="forward path has probability zero") as err:
        cs.entropy_production(constant_protocol(), (0, 1, 1), np.full(2, 0.5))
    assert err.value.field == "outcomes"


def test_entropy_production_infinite_when_reference_misses():
    protocol = balanced_protocol()
    assert cs.entropy_production(protocol, (0, 0), point_mass(2, 1)) == float("inf")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.sampled_from([2, 3]),
    steps=st.integers(1, 3),
)
def test_telescoping_identity(seed, dim, steps):
    # log-ratio equals -log of the reference weight for any positive reference
    rng = np.random.default_rng(seed)
    contexts = tuple(cs.haar_context(dim, int(s)) for s in rng.integers(0, 10**6, steps + 1))
    protocol = cs.Protocol(contexts, contexts[0].modality(int(rng.integers(dim))))
    trajectory = cs.sample_trajectory(protocol, seed)
    reference = rng.uniform(0.1, 1.0, dim)
    reference /= reference.sum()
    delta = cs.entropy_production(protocol, trajectory.outcomes, reference)
    fwd = forward_log_prob(protocol, trajectory.outcomes)
    bwd = backward_log_prob(protocol, trajectory.outcomes, reference)
    assert delta == pytest.approx(-math.log(reference[trajectory.outcomes[-1]]), abs=1e-12)
    assert fwd - bwd == pytest.approx(delta, abs=1e-12)
    # scalar referee for the forward table: one Born probability per step
    modalities = [c.modality(j) for c, j in zip(protocol.contexts, trajectory.outcomes)]
    born_steps = [born(a, b) for a, b in zip(modalities, modalities[1:])]
    assert fwd == pytest.approx(sum(math.log(p) for p in born_steps), abs=1e-12)


def test_sample_trajectory_constant_protocol():
    trajectory = cs.sample_trajectory(constant_protocol(4), 5)
    assert trajectory.outcomes == (0, 0, 0, 0)
    assert trajectory.forward_log_prob == 0.0
    assert trajectory.entropy_production == 0.0


def test_sample_trajectory_deterministic_per_seed():
    protocol = balanced_protocol()
    assert cs.sample_trajectory(protocol, 11) == cs.sample_trajectory(protocol, 11)


def test_sample_trajectory_balanced_frequencies():
    protocol = balanced_protocol()
    finals = [cs.sample_trajectory(protocol, (17, i)).outcomes[-1] for i in range(5000)]
    freq = np.mean(finals)
    assert abs(freq - 0.5) <= 0.025  # ~3.5 sigma at n=5000


def test_sample_trajectory_nonnegative_entropy():
    protocol = balanced_protocol()
    for i in range(50):
        trajectory = cs.sample_trajectory(protocol, (23, i))
        assert trajectory.entropy_production >= 0.0
        assert trajectory.forward_log_prob <= 0.0


@pytest.mark.parametrize(
    "seed, reason",
    [
        (True, "expected an integer, got True"),
        (-1, "must be >= 0, got -1"),
        (1.5, "expected an integer, got 1.5"),
        ("3", "expected an integer, got '3'"),
        ((17, -1), "must be >= 0, got -1"),
        ((17, 1.5), "expected an integer, got 1.5"),
    ],
)
def test_sample_trajectory_refuses_a_seed_that_is_no_integer(seed, reason):
    # True once seeded a trajectory; -1, 1.5 and "3" ended in numpy's bare errors
    with pytest.raises(ScenarioValidationError) as caught:
        cs.sample_trajectory(balanced_protocol(), seed)
    assert (caught.value.field, caught.value.reason) == ("seed", reason)


def test_sample_trajectory_reads_a_tuple_seed_element_wise():
    protocol = balanced_protocol()
    assert cs.sample_trajectory(protocol, (17, np.int64(3))) == cs.sample_trajectory(protocol, (17, 3))
    assert cs.sample_trajectory(protocol, np.uint8(11)) == cs.sample_trajectory(protocol, 11)


def test_final_marginal_balanced():
    np.testing.assert_allclose(balanced_protocol().marginal, [0.5, 0.5], atol=1e-12)


def test_mean_entropy_production_deterministic_protocol():
    stats = cs.mean_entropy_production(constant_protocol(), 100, 3)
    assert stats.mean_entropy_production == 0.0
    assert stats.std_error == 0.0
    assert stats.shannon_entropy_final == 0.0


def _draw_index(cum, u):
    """Scalar referee for the sampling kernel: inverse-CDF draw from one column."""
    return min(
        int(np.searchsorted(cum, u, side="right")),
        int(np.searchsorted(cum, cum[-1], side="left")),
    )


def _haar_protocol(seed, dim, steps):
    rng = np.random.default_rng(seed)
    contexts = tuple(cs.haar_context(dim, int(s)) for s in rng.integers(0, 10**6, steps + 1))
    return cs.Protocol(contexts, contexts[0].modality(int(rng.integers(dim))))


class _Uniforms:
    """Stands in for ``np.random.default_rng``: each generator it makes draws ``values`` in turn."""

    def __init__(self, values):
        self.random = iter(values).__next__

    def __call__(self, seed):
        return self


def _reflection_protocol(weights):
    """A one-step protocol from the computational context's outcome ``j`` of largest weight,
    whose step column is ``weights`` up to rounding, its zeros exact: the basis is the
    Householder reflection taking e_j to sqrt(weights), whose row ``j`` that is, and which
    is the identity off the support of ``weights``."""
    v = np.sqrt(np.asarray(weights, dtype=float))
    j = int(np.argmax(v))
    u = -v
    u[j] += 1.0
    basis = np.eye(v.size) - 2.0 * np.outer(u, u) / (u @ u) if u.any() else np.eye(v.size)
    z = cs.computational_context(v.size)
    return cs.Protocol((z, cs.Context("reflection", basis)), z.modality(j))


def _column(protocol):
    return protocol.steps[0][:, protocol.initial.index]


def _drawn(protocol, uniforms):
    """The second outcome ``sample_trajectory`` draws from each of ``uniforms``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", _Uniforms(uniforms))
        return [cs.sample_trajectory(protocol, 0).outcomes[1] for _ in uniforms]


@pytest.mark.parametrize(
    "weights, u, expected",
    [
        ([0.0, 0.5, 0.5], 0.0, 1),  # rng.random() can return 0.0
        ([0.25, 0.75, 0.0], 1.0, 1),  # at the total: last supported index
        ([0.25, 0.75, 0.0], 1.5, 1),
    ],
)
def test_draws_never_return_zero_weight_outcome(weights, u, expected):
    protocol = _reflection_protocol(weights)
    assert _draw_index(np.cumsum(_column(protocol)), u) == expected
    assert _drawn(protocol, [u]) == [expected]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.one_of(st.integers(2, 8), st.sampled_from((16, 64, 257))),
    steps=st.integers(1, 4),
)
def test_sample_trajectory_matches_scalar_draws(seed, dim, steps):
    # Referee for the sampler: one uniform of default_rng(seed) per step, in order, each
    # drawn by inverse CDF from the previous outcome's column.
    protocol = _haar_protocol(seed, dim, steps)
    rng = np.random.default_rng(seed)
    path = [protocol.initial.index]
    for t in protocol.steps:
        path.append(_draw_index(np.cumsum(t, axis=0)[:, path[-1]], rng.random()))
    assert cs.sample_trajectory(protocol, seed).outcomes == tuple(path)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.one_of(st.integers(2, 8), st.sampled_from((64, 257))))
def test_sample_trajectory_never_draws_a_zero_weight_outcome_at_any_dim(seed, dim):
    # A column with zero-weight runs, trailing ones included, so the cap at the last
    # supported outcome binds; it is drawn on every entry of its cumulative sum, just past
    # its total, and 0.0.
    rng = np.random.default_rng(seed)
    weights = rng.random(dim) * (rng.random(dim) < rng.random())
    weights[rng.integers(dim)] = 1.0  # no empty column
    protocol = _reflection_protocol(weights / weights.sum())
    column = _column(protocol)
    cum = np.cumsum(column)
    uniforms = [*cum.tolist(), np.nextafter(cum[-1], 2.0), 0.0]
    drawn = _drawn(protocol, uniforms)
    assert drawn == [_draw_index(cum, v) for v in uniforms]
    assert np.all(column[drawn] > 0.0)


def test_mean_entropy_production_shannon_identity_within_errorbars():
    z = cs.computational_context(2)
    protocol = cs.Protocol((z, cs.rotation_context(0.8), cs.rotation_context(2.1)), z.modality(0))
    stats = cs.mean_entropy_production(protocol, 20_000, 31)
    assert stats.std_error > 0.0
    assert abs(stats.mean_entropy_production - stats.shannon_entropy_final) <= 3 * stats.std_error


def test_mean_entropy_production_rejects_zero_samples():
    with pytest.raises(ValueError):
        cs.mean_entropy_production(balanced_protocol(), 0, 1)
    with pytest.raises(ScenarioValidationError) as caught:
        cs.mean_entropy_production(balanced_protocol(), -3, 1)
    assert str(caught.value) == "n_samples: must be >= 1, got -3"


@pytest.mark.parametrize(
    "n_samples, seed, field, reason",
    [
        (True, 1, "n_samples", "expected an integer, got True"),
        (1.5, 1, "n_samples", "expected an integer, got 1.5"),
        ("10", 1, "n_samples", "expected an integer, got '10'"),
        (10, -1, "seed", "must be >= 0, got -1"),
        (10, 1.5, "seed", "expected an integer, got 1.5"),
        (10, False, "seed", "expected an integer, got False"),
    ],
)
def test_mean_entropy_production_refuses_a_count_or_seed_that_is_no_integer(
    n_samples, seed, field, reason
):
    # True once gave stats whose sample_count was True; -1 and 1.5 ended in
    # numpy's bare ValueError and TypeError
    with pytest.raises(ScenarioValidationError) as caught:
        cs.mean_entropy_production(balanced_protocol(), n_samples, seed)
    assert (caught.value.field, caught.value.reason) == (field, reason)


def test_mean_entropy_production_reads_numpy_integers_as_plain_ints():
    stats = cs.mean_entropy_production(balanced_protocol(), np.int64(10), np.uint8(3))
    plain = cs.mean_entropy_production(balanced_protocol(), 10, 3)
    assert type(stats.sample_count) is int
    assert stats.mean_entropy_production == plain.mean_entropy_production


def test_exhaustive_balanced_equals_log2():
    stats = cs.exhaustive_entropy_production(balanced_protocol())
    assert stats.sample_count == 2
    assert stats.mean_entropy_production == pytest.approx(math.log(2), abs=1e-12)
    np.testing.assert_allclose(stats.final_distribution, [0.5, 0.5], atol=1e-12)


def test_exhaustive_agrees_with_monte_carlo():
    z = cs.computational_context(2)
    protocol = cs.Protocol((z, cs.rotation_context(0.8), cs.fourier_context(2)), z.modality(0))
    exact = cs.exhaustive_entropy_production(protocol)
    sampled = cs.mean_entropy_production(protocol, 20_000, 5)
    assert abs(sampled.mean_entropy_production - exact.mean_entropy_production) <= max(
        3 * sampled.std_error, 1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 4),
    length=st.integers(2, 4),
    n_samples=st.integers(1, 50),
)
def test_sampled_and_enumerated_ensembles_share_one_type(seed, dim, length, n_samples):
    rng = np.random.default_rng(seed)
    contexts = tuple(cs.haar_context(dim, int(s)) for s in rng.integers(0, 10**6, length))
    protocol = cs.Protocol(contexts, contexts[0].modality(int(rng.integers(dim))))
    sampled = cs.mean_entropy_production(protocol, n_samples, seed)
    exact = cs.exhaustive_entropy_production(protocol)
    assert type(sampled) is type(exact) is cs.TrajectoryEnsembleStats
    assert (sampled.mode, exact.mode) == ("monte_carlo", "exhaustive")
    assert sampled.sample_count == n_samples
    assert exact.sample_count == dim ** (length - 1)
    assert exact.std_error == 0.0
    assert exact.shannon_entropy_final == sampled.shannon_entropy_final
    # both report the exact marginal the protocol holds
    assert exact.final_distribution is sampled.final_distribution is protocol.marginal


def test_exhaustive_serves_the_former_path_bound():
    # 8**7 paths, past the 100,000 an enumeration once refused
    ctx = cs.computational_context(8)
    protocol = cs.Protocol((ctx,) * 8, ctx.modality(0))
    stats = cs.exhaustive_entropy_production(protocol)
    assert stats.sample_count == 8**7 and type(stats.sample_count) is int
    assert abs(stats.mean_entropy_production - stats.shannon_entropy_final) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 4),
    steps=st.integers(1, 4),
    stall=st.integers(0, 4),
)
def test_exhaustive_matches_marginal_and_path_loop(seed, dim, steps, stall):
    # One step repeats the computational context, so every off-diagonal move of
    # that step has probability exactly zero.
    rng = np.random.default_rng(seed)
    z = cs.computational_context(dim)
    contexts = [cs.haar_context(dim, int(s)) for s in rng.integers(0, 10**6, steps)]
    contexts.insert(stall % steps, z)
    contexts.insert(stall % steps, z)
    protocol = cs.Protocol(tuple(contexts), contexts[0].modality(int(rng.integers(dim))))
    stats = cs.exhaustive_entropy_production(protocol)
    referee = enumerated_ensemble(protocol)
    marginal = protocol.marginal
    assert stats.sample_count == dim ** (len(protocol) - 1)
    assert stats.mean_entropy_production == pytest.approx(cs.shannon_entropy(marginal), abs=1e-12)
    np.testing.assert_allclose(stats.final_distribution, marginal, atol=1e-12)
    # the path-by-path loop the path table replaced: in-order products, zero paths skipped
    tms = protocol.steps
    contributions = []
    for tail in itertools.product(range(dim), repeat=len(tms)):
        path = (protocol.initial.index, *tail)
        probs = [t[j, i] for t, i, j in zip(tms, path, path[1:])]
        if all(p > 0.0 for p in probs):
            contributions.append(math.prod(probs) * cs.entropy_production(protocol, path, marginal))
    assert referee.mean_entropy_production == math.fsum(contributions)
    # the one pass over the step tables against the path table
    assert abs(stats.mean_entropy_production - referee.mean_entropy_production) <= 1e-14
    assert np.max(np.abs(stats.final_distribution - referee.final_distribution)) <= 1e-14


def _stalled_protocol(seed, dim, n_contexts, stall, repeated="computational"):
    """Haar contexts with one context object measured twice in a row somewhere.

    Repeating the computational context makes every off-diagonal move of that step
    probability exactly zero; repeating a Fourier or a Haar one leaves them at
    rounding residue, ~1e-33.
    """
    rng = np.random.default_rng(seed)
    contexts = [cs.haar_context(dim, int(s)) for s in rng.integers(0, 10**6, n_contexts - 1)]
    at = stall % (n_contexts - 1)
    twice = {
        "computational": cs.computational_context(dim),
        "fourier": cs.fourier_context(dim),
        "haar": contexts[at],
    }[repeated]
    contexts[at:at + 1] = [twice, twice]
    return cs.Protocol(tuple(contexts), contexts[0].modality(int(rng.integers(dim))))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 6),
    n_contexts=st.integers(2, 6),
    stall=st.integers(0, 5),
    repeated=st.sampled_from(["computational", "fourier", "haar"]),
)
def test_exhaustive_pass_matches_the_path_table(seed, dim, n_contexts, stall, repeated):
    protocol = _stalled_protocol(seed, dim, n_contexts, stall, repeated)
    assert dim ** (n_contexts - 1) <= 10**5  # the referee enumerates every path
    stats = cs.exhaustive_entropy_production(protocol)
    referee = enumerated_ensemble(protocol)
    assert stats.final_distribution is protocol.marginal
    assert stats.sample_count == referee.sample_count
    assert abs(stats.mean_entropy_production - referee.mean_entropy_production) <= 1e-14
    assert np.max(np.abs(stats.final_distribution - referee.final_distribution)) <= 1e-14


def _backward_off_by_1e9(monkeypatch, frm_id, to_id, previous, following):
    """Move entry (previous, following) of every table ``transition_matrix(frm, to)`` with
    these context ids by 1e-9.  Patched before a protocol is made, it reaches only the
    cross-check's backward route where ``(frm_id, to_id)`` is no forward step."""
    real = csm_sim.trajectory.transition_matrix

    def perturbed(frm, to):
        table = real(frm, to)
        if (frm.id, to.id) == (frm_id, to_id):
            table = table.copy()
            table[previous, following] += 1e-9
        return table

    monkeypatch.setattr(csm_sim.trajectory, "transition_matrix", perturbed)


def _stalled_qutrit():
    # step 0 stays in the computational basis, so every path reaches outcome 0 of
    # context 1 and no other
    z, stay = cs.computational_context(3), cs.Context("stay", np.eye(3))
    return (z, stay, cs.haar_context(3, 5)), z.modality(0)


@pytest.mark.parametrize(
    "frm_id, to_id, previous, following",
    [("haar:3:5", "stay", 0, 0), ("stay", "computational:3", 0, 1), ("haar:3:5", "stay", 1, 0)],
    ids=["live step", "zero-weight step", "unreached outcome"],
)
def test_cross_check_refuses_a_backward_route_off_by_1e9(
    monkeypatch, frm_id, to_id, previous, following
):
    # the tables are compared, not the paths, so an entry no path reads is refused too
    contexts, initial = _stalled_qutrit()
    clean = cs.Protocol(contexts, initial)
    assert [c.id for c in contexts] == ["computational:3", "stay", "haar:3:5"]
    assert clean.steps[1][0, 0] > 0.0 and clean.steps[0][1, 0] == 0.0
    _backward_off_by_1e9(monkeypatch, frm_id, to_id, previous, following)
    with pytest.raises(InternalConsistencyError, match="^entropy production routes disagree by"):
        cs.Protocol(contexts, initial)


@pytest.mark.parametrize("route", ["mean_entropy_production", "run_scenario"])
def test_a_sampled_ensemble_is_cross_checked(monkeypatch, route):
    # the sampled ensemble reads the protocol's tables only, so the check its protocol
    # made is the one it gets
    _backward_off_by_1e9(monkeypatch, "x", "z", 0, 1)
    scenario = cs.parse_scenario(SCENARIO_DIR / "balanced_qubit.json")
    z, x = cs.Context("z", np.eye(2)), cs.Context("x", cs.rotation_context(np.pi / 2).basis)
    with pytest.raises(InternalConsistencyError, match="^entropy production routes disagree by"):
        if route == "run_scenario":
            cs.run_scenario(scenario, 0, 1000)
        else:
            cs.mean_entropy_production(cs.Protocol((z, x), z.modality(0)), 1000, 0)


def _near(ctx: cs.Context, seed: int, eps: float) -> cs.Context:
    """``ctx`` turned by exp(-i·eps·H), H a random Hermitian matrix of norm 1: an admitted
    context some eps away, whose transition weights to ``ctx`` lie ~eps² off 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((ctx.dim,) * 2) + 1j * rng.standard_normal((ctx.dim,) * 2)
    values, vectors = np.linalg.eigh(a + a.conj().T)
    values /= np.max(np.abs(values))
    turn = (vectors * np.exp(-1j * eps * values)) @ vectors.conj().T
    return cs.Context("near", ctx.basis @ turn)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**31 - 1),
    exponent=st.floats(-6.0, -3.0),
    longer=st.booleans(),
)
def test_every_route_serves_a_protocol_through_a_near_context(dim, seed, exponent, longer):
    # weights just above rounding carry logs off by ~eps/√t; every route still serves
    a = cs.haar_context(dim, seed)
    near = _near(a, seed, 10.0**exponent)
    contexts = (near, a, near, a) if longer else (a, near, a)
    protocol = cs.Protocol(contexts, contexts[0].modality(seed % dim))
    stats = cs.exhaustive_entropy_production(protocol)
    assert stats.final_distribution is protocol.marginal
    # the referee compares weights, as the protocol does, so it serves this protocol too
    referee = enumerated_ensemble(protocol)
    assert abs(stats.mean_entropy_production - referee.mean_entropy_production) <= 1e-14
    assert np.max(np.abs(stats.final_distribution - referee.final_distribution)) <= 1e-14
    marginal = protocol.marginal
    for tail in itertools.product(range(dim), repeat=len(contexts) - 1):
        path = (protocol.initial.index, *tail)
        if all(t[j, i] > 0.0 for t, i, j in zip(protocol.steps, path, path[1:])):
            delta = cs.entropy_production(protocol, path, marginal)
            assert delta == -math.log(marginal[path[-1]]) + 0.0
    for i in range(5):
        trajectory = cs.sample_trajectory(protocol, (seed, i))
        assert trajectory.entropy_production == -math.log(marginal[trajectory.outcomes[-1]]) + 0.0


@pytest.mark.parametrize("repeated", ["fourier", "haar"])
def test_every_path_through_a_repeated_context_is_served(repeated):
    # Measured twice, a Fourier or Haar context moves off its outcome with weight
    # ~1e-33, not 0: such a path has positive weight, and its log ratio means nothing.
    # Each one is served, at -log marginal[final].
    protocol = _stalled_protocol(11, 3, 3, 1, repeated)
    assert 0.0 < protocol.steps[1][1, 0] <= INPUT_TOL
    for tail in itertools.product(range(3), repeat=2):
        path = (protocol.initial.index, *tail)
        if all(t[j, i] > 0.0 for t, i, j in zip(protocol.steps, path, path[1:])):
            delta = cs.entropy_production(protocol, path, protocol.marginal)
            assert delta == -math.log(protocol.marginal[path[-1]]) + 0.0
    for i in range(20):
        trajectory = cs.sample_trajectory(protocol, (5, i))
        assert trajectory.outcomes[1] == trajectory.outcomes[2]


def test_exhaustive_marginal_matches_propagation():
    z = cs.computational_context(3)
    protocol = cs.Protocol((z, cs.haar_context(3, 2), cs.fourier_context(3)), z.modality(2))
    stats = cs.exhaustive_entropy_production(protocol)
    np.testing.assert_allclose(stats.final_distribution, protocol.marginal, atol=1e-12)


def test_shannon_entropy_values():
    assert cs.shannon_entropy(point_mass(4, 2)) == 0.0
    assert cs.shannon_entropy(np.full(2, 0.5)) == pytest.approx(
        math.log(2), abs=1e-15
    )
    assert cs.shannon_entropy(np.array([0.25, 0.75])) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )
    with pytest.raises(ScenarioValidationError, match="^dist: weights sum to"):
        cs.shannon_entropy(np.array([0.5, 0.6]))


def test_meter_protocol_entropy_limits(balanced):
    # the entropy a meter leaves is that of the reduced state after one coupling
    initial, tilted = balanced
    for overlaps, entropy in ((np.ones((2, 2)), 0.0), (np.eye(2), math.log(2))):
        rho = cs.meter_chain_reduced_state(initial, tilted, cs.Gram(overlaps), 1)
        assert cs.von_neumann_entropy(rho) == pytest.approx(entropy, abs=1e-12)


def test_meter_protocol_entropy_intermediate_value(balanced):
    # reduced state has eigenvalues (3/4, 1/4) at g = 1/2
    initial, tilted = balanced
    rho = cs.meter_chain_reduced_state(initial, tilted, cs.gram_uniform(2, 0.5), 1)
    assert cs.von_neumann_entropy(rho) == pytest.approx(0.5623351446188083, abs=1e-12)


def test_meter_protocol_entropy_monotone_in_g(balanced):
    initial, tilted = balanced
    states = [cs.meter_chain_reduced_state(initial, tilted, cs.gram_uniform(2, g), 1)
              for g in np.linspace(0, 1, 9)]
    values = [cs.von_neumann_entropy(rho) for rho in states]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_ensemble_counts_are_one_multinomial_draw(seed, monkeypatch):
    # the ensemble draws its final counts once, from default_rng(seed), over the supported
    # outcomes of the exact marginal; the same (seed, n) give the same counts, summing to n
    z = cs.computational_context(3)
    protocol = cs.Protocol((z, cs.haar_context(3, seed), z), z.modality(0))
    draws, real = [], np.random.default_rng

    class Spy:
        def __init__(self, entropy):
            self.rng = real(entropy)

        def multinomial(self, n, pvals):
            draws.append((pvals, self.rng.multinomial(n, pvals)))
            return draws[-1][1]

    monkeypatch.setattr(np.random, "default_rng", Spy)
    n = 100_003
    first, again = (cs.mean_entropy_production(protocol, n, seed) for _ in range(2))
    monkeypatch.undo()
    assert first == again and len(draws) == 2
    (pvals, counts), (_, counts_again) = draws
    weights = protocol.marginal[protocol.marginal > 0.0]
    np.testing.assert_array_equal(pvals, weights / weights.sum())
    np.testing.assert_array_equal(counts, counts_again)
    np.testing.assert_array_equal(counts, real(seed).multinomial(n, pvals))
    assert counts.sum() == n
    deltas = -np.log(weights)
    exact = sum(int(c) * Fraction(float(d)) for c, d in zip(counts, deltas))
    assert first.mean_entropy_production == float(exact / n)


def test_the_ensemble_never_counts_an_outcome_of_weight_zero():
    # numpy's multinomial gives its last category what the others leave; drawn over every
    # outcome, a last one of weight 0 would take ~n·eps samples at the largest n, and the
    # mean would read -log 0
    protocol = _reflection_protocol([0.038, 0.566, 0.396, 0.0])
    assert protocol.marginal[-1] == 0.0
    for seed in range(20):
        stats = cs.mean_entropy_production(protocol, 2**63 - 1, seed)
        assert math.isfinite(stats.mean_entropy_production) and math.isfinite(stats.std_error)


def test_sampled_mean_lies_within_its_error_bars_over_seeds():
    # a qutrit protocol with three unequal final weights, so the std error is no rounding
    z = cs.computational_context(3)
    protocol = cs.Protocol((z, cs.haar_context(3, 11), cs.fourier_context(3)), z.modality(2))
    entropy = cs.shannon_entropy(protocol.marginal)
    for seed in range(50):
        stats = cs.mean_entropy_production(protocol, 10_000, seed)
        assert stats.std_error > 0.0
        assert abs(stats.mean_entropy_production - entropy) <= 4 * stats.std_error
