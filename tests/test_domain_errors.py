"""Malformed counts, seeds, tolerances, matrices and vectors end in a domain error, not a
bare numpy one.

Each entry point that reads a count, a seed, a tolerance or a caller's matrix or vector
either returns or raises :class:`CsmSimError`; anything else escaping fails the property.
An index, an outcome sequence, a protocol's contexts and initial modality, a modality's
context, a context's label, a runner's scenario, a distribution, a basis's side and a density
matrix each break a rule of their own, and each is refused as a
:class:`ScenarioValidationError` naming that value; an integer past a double is no number,
and a scenario document holds only values that ``json.loads`` returns.
An array of the wrong shape or with a NaN or infinite entry is refused by its own value's rule
too, and only one of the wrong length for the dimension it meets is a :class:`DimensionMismatch`.
A density matrix that is not Hermitian, or whose spectrum is no distribution, is no state and
is refused as ``rho`` with no warning; its residuals saturate at the largest double.
A sample count past what the sampler's counts can hold is refused as ``n_samples``.
"""

import json
import math
import sys
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csm_sim as cs
from csm_sim.errors import CsmSimError, DimensionMismatch, InvalidGramMatrix
from csm_sim.errors import NonOrthonormalInput, ScenarioValidationError
from csm_sim.hilbert import INPUT_TOL, MAX_DIM, is_integer
from csm_sim.qnd import build_gram
from csm_sim.runner import build_scenario_objects
from csm_sim.scenario import MAX_TABLE_BYTES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BALANCED = cs.parse_scenario(SCENARIOS / "balanced_qubit.json")

# Counts and seeds: bools, floats (NaN and inf included), negatives, strings, small integers.
NUMBERS = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-5, 12),
    st.text(max_size=3),
    st.sampled_from([np.float64(2.0), np.int64(3), None]),
)
ENTRIES = st.one_of(st.floats(-2, 2), st.text(max_size=2), st.booleans(), st.none())
# Matrices: strings, ragged and empty nestings, arrays of every rank up to 3, and
# precisions numpy's linalg does not read.
MATRICES = st.one_of(
    st.text(max_size=4),
    st.lists(st.lists(ENTRIES, max_size=3), max_size=3),
    st.sampled_from([[], [[]], np.zeros((0, 0)), np.zeros(2), np.eye(2), np.ones((2, 2, 2))]),
    st.sampled_from([1.0, np.nan * np.eye(2), np.array([["a", "b"], ["c", "d"]], dtype=object)]),
    st.sampled_from([np.eye(2, dtype=np.float16), np.eye(2, dtype=np.longdouble) / 2]),
)
# Vectors: lists of such entries or of any floats, complex ones, and integers past a double.
VECTORS = st.one_of(
    st.lists(ENTRIES, max_size=4),
    st.lists(st.floats(), min_size=2, max_size=2),
    st.sampled_from([[0.5 + 0j, 0.5], np.array([0.5 + 1j, 0.5]), [10**400, 0], [0.5, 0.5]]),
)


def returns_or_refuses(call):
    try:
        return call()
    except CsmSimError:
        return None


def _protocol():
    z = cs.computational_context(2)
    return cs.Protocol((z, cs.rotation_context(0.7), cs.fourier_context(2)), z.modality(0))


def _scenario_readers(seed, count, tolerance) -> None:
    """What ``run_scenario`` and ``verify_report`` read besides the scenario; a report is
    made only of an integer seed >= 0 and a finite tolerance >= 0, each echoed as read."""
    for exhaustive in (True, False):
        report = returns_or_refuses(lambda: cs.run_scenario(BALANCED, seed, count, exhaustive))
        if report is not None:
            assert is_integer(seed) and seed >= 0 and report["seed"] == seed
            assert is_integer(count) and count >= (0 if exhaustive else 1)
    report = returns_or_refuses(lambda: cs.verify_report(BALANCED, tolerance))
    if report is not None:
        assert not isinstance(tolerance, bool) and math.isfinite(tolerance) and tolerance >= 0
        assert report["tolerance"] == tolerance


def _vector_readers(vector) -> None:
    """A distribution, a composite state or a phase vector, each where a library call reads it."""
    protocol = _protocol()
    initial, tilted = protocol.initial, protocol.contexts[1]
    returns_or_refuses(lambda: cs.validate_distribution(vector))
    returns_or_refuses(lambda: cs.shannon_entropy(vector))
    returns_or_refuses(lambda: cs.entropy_production(protocol, (0, 0, 0), vector))
    returns_or_refuses(lambda: cs.reduced_system_state(vector, tilted))
    returns_or_refuses(lambda: cs.composite_return_probabilities(vector, initial.context, tilted))
    returns_or_refuses(lambda: cs.interference_returns(initial, tilted, vector))


@settings(max_examples=150, deadline=None)
@given(count=NUMBERS, seed=NUMBERS)
def test_counts_and_seeds_end_in_a_domain_error(count, seed):
    protocol = _protocol()
    returns_or_refuses(lambda: cs.sample_trajectory(protocol, seed))
    returns_or_refuses(lambda: cs.sample_trajectory(protocol, (count, seed)))
    returns_or_refuses(lambda: cs.mean_entropy_production(protocol, count, seed))
    returns_or_refuses(lambda: cs.mean_entropy_production(protocol, 10, seed))
    returns_or_refuses(lambda: cs.mean_entropy_production(protocol, count, 0))
    returns_or_refuses(lambda: cs.gram_uniform(count, 0.5))
    returns_or_refuses(lambda: build_gram(cs.GramSpec("explicit", matrix=np.eye(2)), count))
    _scenario_readers(seed, count, count)
    _vector_readers(count)
    _vector_readers([count, seed])


@settings(max_examples=150, deadline=None)
@given(matrix=MATRICES, dim=st.integers(2, 3), vector=VECTORS)
def test_matrices_end_in_a_domain_error(matrix, dim, vector):
    returns_or_refuses(lambda: cs.Context("x", matrix))
    returns_or_refuses(lambda: cs.Gram(matrix))
    returns_or_refuses(lambda: cs.build_context(cs.ContextSpec("explicit", dim, matrix=matrix)))
    gram = returns_or_refuses(lambda: build_gram(cs.GramSpec("explicit", matrix=matrix), dim))
    assert gram is None or gram.dim == dim
    initial = cs.computational_context(dim).modality(0)
    returns_or_refuses(lambda: cs.entangle(initial, cs.fourier_context(dim), matrix))
    returns_or_refuses(lambda: cs.von_neumann_entropy(matrix))
    _scenario_readers(matrix, vector, matrix)
    _vector_readers(matrix)
    _vector_readers(vector)


KINDS = st.sampled_from(["computational", "fourier", "haar"])


@st.composite
def contexts(draw, dim):
    kind = draw(KINDS)
    if kind == "haar":
        return cs.haar_context(dim, draw(st.integers(0, 99)))
    return cs.build_context(cs.ContextSpec(kind, dim))


def bad_indices(dim):
    """Anything but an integer in [0, dim): out of range, a bool, a float, a string, None."""
    return st.one_of(
        st.integers(max_value=-1), st.integers(min_value=dim), st.booleans(), st.floats(),
        st.text(max_size=2), st.none(),
    )


# Weights off [0, 1] or off sum 1, and vectors numpy cannot read as a real one.  The rule
# admits rounding within INPUT_TOL of either, so a bad list misses by at least twice that.
MARGIN = 2 * INPUT_TOL
BAD_DISTRIBUTIONS = st.one_of(
    st.lists(st.floats(-2, 2), max_size=4).filter(
        lambda w: not w or min(w) < -MARGIN or max(w) > 1 + MARGIN
        or abs(math.fsum(w) - 1) > MARGIN
    ),
    st.sampled_from([["a", 1], [[0.5], [0.5, 0.0]], [0.5 + 1j, 0.5], [[0.5, 0.5]], None]),
)
# States that are none: not Hermitian, or a spectrum off [0, 1], off sum 1 or past a double.
NON_STATES = [
    (2 * np.eye(2), "weights outside [0, 1]"),
    (np.diag([1.5, -0.5]), "weights outside [0, 1]"),
    (np.diag([0.5, 0.4]), "weights sum to 0.9, not 1"),
    (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian: residual 1.000e+00"),  # eigvalsh: log 2
    (np.full((2, 2), 1e308), "need finite eigenvalues, got inf"),  # finite entries
    (np.full((2, 2), 1e308 * (1 + 1j)), "not Hermitian: residual 1.798e+308"),
]
# Matrices that are not a non-empty square, ones numpy cannot read, and states that are none.
BAD_DENSITY_MATRICES = st.one_of(
    st.sampled_from([(0, 0), (2,), (1, 2), (3, 2), (2, 2, 2), ()]).map(np.ones),
    st.sampled_from([[[1.0, 0.0], [0.0]], "ab", [["a", "b"], ["c", "d"]], [[object()]]]),
    st.sampled_from([rho for rho, _ in NON_STATES]),
)


@st.composite
def index_refusals(draw):
    dim = draw(st.integers(2, 4))
    start, mid = draw(contexts(dim)), draw(contexts(dim))
    bad = draw(bad_indices(dim))
    read = draw(st.sampled_from([cs.reversible_return, cs.irreversible_return]))
    return draw(st.sampled_from([
        (partial(cs.Modality, start, bad), "index"),
        (partial(read, start.modality(dim - 1), mid, bad), "final_index"),
    ]))


# Values that are no sequence, nor a context or modality.
NOT_SEQUENCES = st.one_of(st.integers(), st.floats(), st.none(), st.booleans())
NOT_VALUES = st.one_of(NOT_SEQUENCES, st.text(max_size=2), st.just(np.eye(2)))


@st.composite
def protocol_refusals(draw):
    """No contexts, contexts that are no sequence or hold a non-context, an initial modality
    elsewhere or none, and a modality of no context."""
    dim, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    chain = tuple(draw(contexts(dim)) for _ in range(n))
    initial, elsewhere = chain[0].modality(0), cs.fourier_context(dim, "elsewhere")
    s = draw(st.integers(0, n - 1))
    stray = chain[:s] + (draw(NOT_VALUES),) + chain[s + 1:]
    return draw(st.sampled_from([
        (partial(cs.Protocol, (), initial), "contexts"),
        (partial(cs.Protocol, draw(NOT_SEQUENCES), initial), "contexts"),
        (partial(cs.Protocol, stray, initial), f"contexts[{s}]"),
        (partial(cs.Protocol, chain, elsewhere.modality(0)), "initial"),
        (partial(cs.Protocol, chain, draw(NOT_VALUES)), "initial"),
        (partial(cs.Modality, draw(NOT_VALUES), 0), "context"),
    ]))


@st.composite
def outcome_refusals(draw):
    """A sequence of the wrong length, one with a bad entry, one that starts elsewhere, and
    a value that is no sequence."""
    dim, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    chain = tuple(draw(contexts(dim)) for _ in range(n))
    protocol = cs.Protocol(chain, chain[0].modality(0))
    reference = np.full(dim, 1 / dim)
    good = [0] + [draw(st.integers(0, dim - 1)) for _ in range(n - 1)]
    length = draw(st.integers(0, 4).filter(lambda k: k != n))
    s = draw(st.integers(0, n - 1))
    entry = good[:s] + [draw(bad_indices(dim))] + good[s + 1:]
    start = [draw(st.integers(1, dim - 1))] + good[1:]
    case = draw(st.sampled_from([
        ([0] * length, "outcomes"), (entry, f"outcomes[{s}]"), (start, "outcomes[0]"),
        (draw(NOT_SEQUENCES), "outcomes"),
    ]))
    return partial(cs.entropy_production, protocol, case[0], reference), case[1]


@st.composite
def distribution_refusals(draw):
    weights = draw(BAD_DISTRIBUTIONS)
    z = cs.computational_context(2)
    protocol = cs.Protocol((z, z), z.modality(0))
    return draw(st.sampled_from([
        (partial(cs.validate_distribution, weights), "dist"),
        (partial(cs.shannon_entropy, weights), "dist"),
        (partial(cs.entropy_production, protocol, (0, 0), weights), "final_dist"),
    ]))


# A basis of side 1, whatever its finite entry, is refused before its orthonormality.
SIDE_REFUSALS = st.complex_numbers(allow_nan=False, allow_infinity=False).map(
    lambda z: (partial(cs.Context, "x", np.array([[z]])), "dim")
)
DENSITY_REFUSALS = BAD_DENSITY_MATRICES.map(
    lambda rho: (partial(cs.von_neumann_entropy, rho), "rho")
)
# A label that is no string, given to a context or to a recipe's build (where None asks for
# the kind's default).
BAD_IDS = st.one_of(st.sampled_from([["a"], b"a"]), st.integers(), st.floats())
SPECS = [cs.ContextSpec("computational", 2), cs.ContextSpec("fourier", 2),
         cs.ContextSpec("rotation", 2, theta=0.3), cs.ContextSpec("haar", 2, seed=1)]
ID_REFUSALS = st.one_of(
    st.one_of(BAD_IDS, st.none()).map(lambda bad: (partial(cs.Context, bad, np.eye(2)), "id")),
    st.tuples(st.sampled_from(SPECS), BAD_IDS).map(
        lambda case: (partial(cs.build_context, *case), "id")
    ),
)


# What is no scenario, given to each runner entry point: its document unread or its path too.
NOT_SCENARIOS = st.one_of(NOT_VALUES, st.sampled_from([BALANCED.raw, SCENARIOS / "x.json"]))
RUNNER_ENTRIES = [
    lambda scenario: cs.run_scenario(scenario, 0, 10),
    lambda scenario: cs.verify_report(scenario, 1e-10),
    lambda scenario: cs.sweep_rows(scenario, "g", [0.0]),
    cs.build_scenario_objects,
]
SCENARIO_REFUSALS = st.tuples(st.sampled_from(RUNNER_ENTRIES), NOT_SCENARIOS).map(
    lambda case: (partial(*case), "scenario")
)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(
    index_refusals(), protocol_refusals(), outcome_refusals(), distribution_refusals(),
    SIDE_REFUSALS, DENSITY_REFUSALS, ID_REFUSALS, SCENARIO_REFUSALS,
))
def test_each_value_rule_is_a_validation_error_naming_its_value(case):
    call, field = case
    with pytest.raises(ScenarioValidationError) as caught:
        call()
    assert caught.value.field == field


@pytest.mark.parametrize("weights, refused", [
    ([0.5, 0.5, -2e-10], True),  # below 0 by twice INPUT_TOL
    ([0.5, 0.5, -1e-94], False),  # rounding: once drawn as a bad list, it is clipped to 0
])
def test_the_distribution_rule_admits_only_rounding_off_its_bounds(weights, refused):
    if refused:
        with pytest.raises(ScenarioValidationError) as caught:
            cs.validate_distribution(weights)
        assert (caught.value.field, caught.value.reason) == ("dist", "weights outside [0, 1]")
    else:
        assert cs.validate_distribution(weights).tolist() == [0.5, 0.5, 0.0]


HUGE = 10**400  # an integer past a double


def _with(path: tuple, value):
    """``Scenario`` of the balanced document with ``value`` at ``path``."""
    doc = json.loads(json.dumps(BALANCED.raw))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return partial(cs.Scenario, doc)


def _explicit_x(entry):
    return _with(("contexts", "x"), {"kind": "explicit", "matrix": [[entry, 0], [0, 1]]})


@pytest.mark.parametrize("call, field", [
    (partial(cs.rotation_context, HUGE), "theta"),
    (partial(cs.gram_uniform, 2, HUGE), "g"),
    (partial(cs.verify_report, BALANCED, HUGE), "tolerance"),
    (partial(cs.sweep_rows, BALANCED, "phase", [HUGE]), "sweep.phase[0]"),
    (partial(cs.sweep_rows, BALANCED, "g", [0.5, HUGE]), "sweep.g[1]"),
    (_explicit_x(HUGE), "contexts.x.matrix[0][0]"),
    (_explicit_x([0, HUGE]), "contexts.x.matrix[0][0][1]"),
    (partial(cs.meter_chain_reduced_state, cs.computational_context(2).modality(0),
             cs.fourier_context(2), cs.gram_uniform(2, 0.5), HUGE), "m_count"),
    (partial(cs.sweep_rows, BALANCED, "m_count", [0, HUGE]), "sweep.m_count[1]"),
    (_with(("sweep", "m_count"), [HUGE]), "sweep.m_count[0]"),
])
def test_an_integer_past_a_double_is_no_number(call, field):
    with pytest.raises(ScenarioValidationError) as caught:
        call()
    assert (caught.value.field, caught.value.reason) == (field, f"expected a number, got {HUGE!r}")


def test_a_numpy_float32_is_read_as_the_number_it_holds():
    # compared as it was, a float32 cast the bound to inf, with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cs.gram_uniform(2, np.float32(0.5)).matrix[0, 1] == 0.5
        assert cs.rotation_context(np.float32(1.0)).id == "rotation:1.0"
        tolerance = cs.verify_report(BALANCED, np.float32(1e-10))["tolerance"]
        assert tolerance == float(np.float32(1e-10)) and type(tolerance) is float
        for bad in (np.float32("inf"), np.float32("-inf"), np.float32("nan")):
            with pytest.raises(ScenarioValidationError) as caught:
                cs.gram_uniform(2, bad)
            assert caught.value.reason == f"expected a number, got {bad!r}"


@pytest.mark.parametrize("n_samples", [2**63, 10**22, 10**30])
def test_a_sample_count_past_the_sampler_s_memory_is_refused(n_samples):
    # past an int64, numpy's multinomial would raise a bare OverflowError; an exhaustive
    # run, which samples nothing, refuses the same count, as the command line does
    protocol = build_scenario_objects(BALANCED).protocol
    for call in (partial(cs.run_scenario, BALANCED, 0, n_samples),
                 partial(cs.run_scenario, BALANCED, 0, n_samples, True),
                 partial(cs.mean_entropy_production, protocol, n_samples, 0)):
        with pytest.raises(ScenarioValidationError) as caught:
            call()
        assert (caught.value.field, caught.value.reason) == ("n_samples", f"must be <= {2**63 - 1}")


@pytest.fixture
def str_digit_limit():
    """``str``'s default digit limit for ints, 4,300, set for the test and restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


# A value past ``str``'s digit limit is named by its digit count; one at the limit, by itself.
@pytest.mark.parametrize("call, field, reason", [
    (partial(cs.run_scenario, BALANCED, n_samples=1), "seed", "must be >= 0, got {}"),
    (partial(cs.sample_trajectory, build_scenario_objects(BALANCED).protocol), "seed",
     "must be >= 0, got {}"),
    (partial(cs.verify_report, BALANCED), "tolerance", "expected a number, got {}"),
])
def test_an_integer_too_long_to_print_is_refused_by_its_digit_count(
    str_digit_limit, call, field, reason
):
    for value, shown in (
        (-(10**5000), "a negative integer of 5001 digits"),
        (-(10**4400) + 1, "a negative integer of 4400 digits"),  # either side of a power of 10
        (-(10**4400), "a negative integer of 4401 digits"),
        (-(10**str_digit_limit), f"a negative integer of {str_digit_limit + 1} digits"),
    ):
        with pytest.raises(ScenarioValidationError) as caught:
            call(value)
        assert (caught.value.field, caught.value.reason) == (field, reason.format(shown))
    # at the limit, the refusal quotes the value itself, as it always has
    value = -(10**str_digit_limit) + 1
    with pytest.raises(ScenarioValidationError) as caught:
        call(value)
    assert (caught.value.field, caught.value.reason) == (field, reason.format(value))


@pytest.mark.parametrize("call, field, reason", [
    (lambda v: cs.verify_report(BALANCED, v), "tolerance", "expected a number, got {}"),
    (lambda v: cs.Modality(cs.computational_context(2), v), "index", "{} not in [0, 2)"),
    (lambda v: cs.run_scenario(v, 0, 1), "scenario", "expected a Scenario, got {}"),
    (lambda v: cs.von_neumann_entropy(v), "rho", "cannot read {} as a float array"),
    (lambda v: cs.Scenario(dict(BALANCED.raw, schema_version=v)), "schema_version",
     "expected 1, got {}"),
    (lambda v: cs.Scenario(dict(BALANCED.raw, meter=dict(BALANCED.raw["meter"], pointer=v))),
     "meter.pointer", "undefined context {}"),
    (lambda v: cs.ContextSpec(v, 2), "kind", "unknown context kind {}"),
    # a size past the largest recipe, a Haar seed in its default label, a key in a field name,
    # and an integer no report can echo
    (lambda v: cs.computational_context(v), "dim", f"must be <= {MAX_DIM}"),
    (lambda v: cs.fourier_context(v), "dim", f"must be <= {MAX_DIM}"),
    (lambda v: cs.gram_uniform(v, 0.5), "n", f"must be <= {MAX_DIM}"),
    (lambda v: cs.Scenario(dict(BALANCED.raw, dim=v)), "dim", f"must be <= {MAX_DIM}"),
    (lambda v: cs.haar_context(2, v), "seed", "{} is too long for the default label; give an id"),
    (lambda v: cs.Scenario(dict(BALANCED.raw, contexts={**BALANCED.raw["contexts"],
                                                        v: {"kind": "computational"}})),
     "contexts", "expected string keys, got {}"),
    (lambda v: cs.Scenario(dict(BALANCED.raw, sweep={v: [0.5]})), "sweep.{}", "unknown key"),
    (lambda v: cs.Scenario(dict(BALANCED.raw, contexts={**BALANCED.raw["contexts"],
                                                        "y": {"kind": "haar", "seed": v}})),
     "contexts.y.seed", "expected a JSON value, got {}"),
])
def test_every_reader_names_an_integer_too_long_to_print_by_its_digit_count(
    str_digit_limit, call, field, reason
):
    with pytest.raises(ScenarioValidationError) as caught:
        call(10**5000)
    shown = "an integer of 5001 digits"
    assert (caught.value.field, caught.value.reason) == (field.format(shown), reason.format(shown))


@pytest.mark.parametrize("call, field", [
    (cs.computational_context, "dim"),
    (cs.fourier_context, "dim"),
    (lambda v: cs.haar_context(v, 0), "dim"),
    (lambda v: cs.gram_uniform(v, 0.5), "n"),
    (lambda v: build_gram(cs.GramSpec("explicit", matrix=np.eye(2)), v), "n"),
])
def test_a_size_past_the_largest_recipe_is_refused(call, field):
    # one basis and its conjugate at MAX_DIM fill the scenario's table budget
    assert 32 * MAX_DIM**2 == MAX_TABLE_BYTES
    for size in (MAX_DIM + 1, 10**6):
        with pytest.raises(ScenarioValidationError) as caught:
            call(size)
        assert (caught.value.field, caught.value.reason) == (field, f"must be <= {MAX_DIM}")


def test_a_value_holding_an_integer_too_long_to_print_is_named_by_its_type(str_digit_limit):
    with pytest.raises(ScenarioValidationError) as caught:
        cs.verify_report(BALANCED, Fraction(10**5000))
    assert caught.value.reason == "expected a number, got a Fraction too long to show"


@pytest.mark.parametrize("path, value, field, reason", [
    (("dim",), np.int64(2), "dim", "expected a JSON value, got np.int64(2)"),
    (("sweep", "g"), np.array([0.0, 0.5]), "sweep.g",
     "expected a JSON value, got array([0. , 0.5])"),
    (("sweep", "m_count"), (0, 1), "sweep.m_count", "expected a JSON value, got (0, 1)"),
    (("sweep", "phase", 1), np.float64(0.5), "sweep.phase[1]",
     "expected a JSON value, got np.float64(0.5)"),
    (("protocol", "sequence", 1), np.str_("x"), "protocol.sequence[1]",
     "expected a JSON value, got np.str_('x')"),
    (("protocol", "initial", "index"), np.uint8(0), "protocol.initial.index",
     "expected a JSON value, got np.uint8(0)"),
    (("contexts",), {**BALANCED.raw["contexts"], 1: {"kind": "fourier"}}, "contexts",
     "expected string keys, got 1"),
])
def test_a_scenario_holds_only_values_json_loads_returns(path, value, field, reason):
    # a report echoes the document: each of these once ended in a bare TypeError there
    make = _with(path, value)
    with pytest.raises(ScenarioValidationError) as caught:
        make()
    assert (caught.value.field, caught.value.reason) == (field, reason)


def array_readers(dim):
    """Each reader of a caller's array: the call, the shape it asks, and its own refusal (a
    ``RefusedInput`` class, or the field its ``ScenarioValidationError`` names)."""
    start, pointer = cs.computational_context(dim).modality(0), cs.fourier_context(dim)
    return [
        (partial(cs.Context, "x"), "square matrix", NonOrthonormalInput),
        (cs.Gram, "square matrix", InvalidGramMatrix),
        (cs.validate_distribution, "vector", "dist"),
        (partial(cs.interference_returns, start, pointer), "vector", "phases"),
        (partial(cs.entangle, start, pointer), "matrix", "meters"),
        (partial(cs.reduced_system_state, pointer=pointer), "vector", "state"),
        (cs.von_neumann_entropy, "square matrix", "rho"),
    ]


def fits(shape: tuple, asked: str) -> bool:
    rank = 1 if asked == "vector" else 2
    return len(shape) == rank and all(shape) and (asked != "square matrix" or len(set(shape)) == 1)


@st.composite
def misshapen_arrays(draw):
    """A reader and an array, or its nested list, of another rank, no entry, or unequal sides
    where a square is asked."""
    dim = draw(st.integers(2, 3))
    call, asked, owner = draw(st.sampled_from(array_readers(dim)))
    shape = draw(st.lists(st.integers(0, 3), max_size=3).map(tuple).filter(
        lambda shape: not fits(shape, asked)
    ))
    value = draw(st.sampled_from([np.full(shape, 0.5), np.full(shape, 0.5).tolist()]))
    return partial(call, value), f"need a non-empty {asked}, got shape {np.shape(value)}", owner


@st.composite
def wrong_lengths(draw):
    """A phase vector whose length is not the intermediate's dim, or a composite state whose
    length is no multiple of the pointer's."""
    dim = draw(st.integers(2, 3))
    start, pointer = cs.computational_context(dim).modality(0), cs.fourier_context(dim)
    length = draw(st.integers(1, 7))
    assume(length != dim)
    if draw(st.booleans()):
        call = partial(cs.interference_returns, start, pointer, np.zeros(length))
    else:
        assume(length % dim)
        call = partial(cs.reduced_system_state, np.full(length, length**-0.5), pointer)
    return call, None, DimensionMismatch


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(misshapen_arrays(), wrong_lengths()))
def test_a_shape_is_its_value_s_own_rule_and_only_a_length_a_dimension_clash(case):
    call, reason, owner = case
    with pytest.raises(CsmSimError) as caught:
        call()
    refused = caught.value
    if isinstance(owner, str):
        assert type(refused) is ScenarioValidationError
        assert (refused.field, refused.reason) == (owner, reason)
    else:
        assert type(refused) is owner
        if reason is not None:  # a basis or an overlap matrix of the wrong shape
            assert (str(refused), refused.residual) == (reason, math.inf)


def every_array_reader(dim):
    """``array_readers`` and the calls that reach one through a value of their own: a recipe's
    matrix, a distribution given to an entropy or as a reference, and a composite state given
    to the composite route."""
    start, pointer = cs.computational_context(dim).modality(0), cs.fourier_context(dim)
    protocol = cs.Protocol((start.context, pointer), start)
    return array_readers(dim) + [
        (lambda matrix: cs.ContextSpec("explicit", dim, matrix=matrix), "square matrix", "matrix"),
        (lambda matrix: cs.GramSpec("explicit", matrix=matrix), "square matrix", "matrix"),
        (cs.shannon_entropy, "vector", "dist"),
        (partial(cs.entropy_production, protocol, (0, 0)), "vector", "final_dist"),
        (partial(cs.composite_return_probabilities, context=start.context, pointer=pointer),
         "vector", "state"),
    ]


REAL_READS = ("dist", "final_dist", "phases")  # a complex entry there is unread


@st.composite
def non_finite_arrays(draw):
    """A reader and an array of the shape it asks, one entry NaN, +inf or -inf in its real
    or its imaginary part; the array, or its nested list."""
    dim = draw(st.integers(2, 3))
    call, asked, owner = draw(st.sampled_from(every_array_reader(dim)))
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    imaginary = draw(st.booleans())
    shape = (dim,) if asked == "vector" else (dim, dim)
    value = np.full(shape, 0.5, complex if imaginary else float)
    value.flat[draw(st.integers(0, value.size - 1))] = complex(0.5, bad) if imaginary else bad
    value = draw(st.sampled_from([value, value.tolist()]))
    unread = imaginary and owner in REAL_READS
    return partial(call, value), "cannot read " if unread else "need finite entries, got ", owner


@settings(max_examples=300, deadline=None)
@given(case=non_finite_arrays())
def test_a_non_finite_entry_is_refused_by_its_array_s_own_rule(case):
    call, reason, owner = case
    with pytest.raises(CsmSimError) as caught:
        call()
    refused = caught.value
    if isinstance(owner, str):
        assert type(refused) is ScenarioValidationError
        assert refused.field == owner and refused.reason.startswith(reason)
    else:
        assert type(refused) is owner
        assert str(refused).startswith(reason) and refused.residual == math.inf


@pytest.mark.parametrize("rho, reason", NON_STATES)
def test_a_density_matrix_that_is_no_state_is_refused_as_rho(rho, reason):
    # each once returned an entropy or ended in InternalConsistencyError, a library fault
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioValidationError) as caught:
            cs.von_neumann_entropy(rho)
    assert (caught.value.field, caught.value.reason) == ("rho", reason)
