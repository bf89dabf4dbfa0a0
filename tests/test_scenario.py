import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
import csm_sim.scenario
from csm_sim.cli import main
from csm_sim.errors import ScenarioParseError, ScenarioValidationError
from csm_sim.qnd import build_gram
from csm_sim.scenario import MAX_TABLE_BYTES, table_bytes

MINIMAL = {
    "schema_version": 1,
    "dim": 2,
    "contexts": {"c": {"kind": "computational"}},
    "protocol": {"initial": {"context": "c", "index": 0}, "sequence": ["c"]},
}


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return path


def test_minimal_scenario_parses(tmp_path):
    scenario = cs.parse_scenario(write(tmp_path, MINIMAL))
    assert scenario.dim == 2
    assert scenario.sequence == ("c",) and scenario.initial_index == 0
    assert scenario.pointer is None and scenario.gram is None and scenario.sweeps is None
    assert scenario.raw == MINIMAL
    assert cs.Scenario.ARGS == ("raw",) and scenario == cs.Scenario(MINIMAL)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        cs.parse_scenario("/nonexistent/scenario.json")


def test_syntax_error_carries_position(tmp_path):
    path = write(tmp_path, '{\n  "schema_version": 1,\n  "dim": oops\n}')
    with pytest.raises(ScenarioParseError) as err:
        cs.parse_scenario(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, key",
    [
        (json.dumps(MINIMAL)[:-1] + ', "dim": 3}', "dim"),
        (json.dumps(MINIMAL).replace('"contexts": {', '"contexts": {"c": {"kind": "fourier"}, '), "c"),
    ],
    ids=["dim", "context_name"],
)
def test_duplicate_keys_are_parse_errors(tmp_path, capsys, text, key):
    # json.loads alone would keep the last value of each
    path = write(tmp_path, text)
    with pytest.raises(ScenarioParseError, match=f"duplicate key '{key}'"):
        cs.parse_scenario(path)
    assert main(["run", str(path)]) == 2
    assert f"duplicate key '{key}'" in capsys.readouterr().err


def test_undefined_context_reference_is_named(tmp_path):
    doc = dict(MINIMAL, protocol={"initial": {"context": "c", "index": 0}, "sequence": ["c", "ghost"]})
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, doc))
    assert "ghost" in str(err.value)
    assert err.value.field == "protocol.sequence[1]"
    with pytest.raises(ScenarioValidationError) as made:  # made in process: once a KeyError in run
        cs.Scenario(doc)
    assert str(made.value) == str(err.value) == "protocol.sequence[1]: undefined context 'ghost'"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["contexts"]["c"].update(kind=["computational"]),
        lambda d: d["protocol"].update(sequence=[["c"]]),
        lambda d: d["protocol"]["initial"].update(context={"c": 1}),
        lambda d: d.update(meter={"pointer": ["c"], "gram": {"kind": "uniform", "g": 0.5}}),
        lambda d: d.update(meter={"pointer": "c", "gram": {"kind": [], "g": 0.5}}),
    ],
    ids=["context-kind", "sequence-name", "initial-context", "pointer", "gram-kind"],
)
def test_non_string_names_are_validation_errors(tmp_path, mutate):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))


def test_rotation_requires_dim_two(tmp_path):
    doc = {
        "schema_version": 1,
        "dim": 3,
        "contexts": {"r": {"kind": "rotation", "theta": 0.4}},
        "protocol": {"initial": {"context": "r", "index": 0}, "sequence": ["r"]},
    }
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, doc))
    assert err.value.field == "contexts.r.dim"


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, extra=1)))
    doc = dict(MINIMAL, contexts={"c": {"kind": "computational", "spin": 2}})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))
    doc = dict(MINIMAL, protocol={"initial": {"context": "c", "index": 0, "x": 1}, "sequence": ["c"]})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))


def test_a_missing_key_is_named_in_the_order_the_format_lists_them():
    # the required keys were once a set, whose order follows PYTHONHASHSEED
    required = ["schema_version", "dim", "contexts", "protocol"]
    for pair in itertools.combinations(required, 2):
        doc = {key: value for key, value in MINIMAL.items() if key not in pair}
        with pytest.raises(ScenarioValidationError) as err:
            cs.Scenario(doc)
        assert err.value.field == f"document.{pair[0]}"
    with pytest.raises(ScenarioValidationError) as err:
        cs.Scenario(dict(MINIMAL, protocol={}))
    assert err.value.field == "protocol.initial"


def test_schema_version_checked(tmp_path):
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, schema_version=2)))
    assert err.value.field == "schema_version"
    assert err.value.reason == "expected 1, got 2"


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_is_an_integer(tmp_path, version):
    # both once compared equal to 1 and were echoed into the report
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, schema_version=version)))
    assert err.value.field == "schema_version"
    assert err.value.reason == f"expected an integer, got {version!r}"


def test_initial_must_open_the_sequence(tmp_path):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "contexts": {"a": {"kind": "computational"}, "b": {"kind": "fourier"}},
        "protocol": {"initial": {"context": "b", "index": 0}, "sequence": ["a", "b"]},
    }
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, doc))
    assert err.value.field == "protocol.initial.context"


def test_initial_index_range(tmp_path):
    doc = dict(MINIMAL, protocol={"initial": {"context": "c", "index": 2}, "sequence": ["c"]})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))


def test_meter_parses_and_validates(tmp_path):
    doc = dict(
        MINIMAL,
        meter={"pointer": "c", "gram": {"kind": "uniform", "g": 0.3}},
    )
    scenario = cs.parse_scenario(write(tmp_path, doc))
    assert scenario.pointer == "c"
    assert scenario.gram.g == 0.3
    bad = dict(MINIMAL, meter={"pointer": "c", "gram": {"kind": "uniform", "g": 1.5}})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, bad))
    unresolved = dict(MINIMAL, meter={"pointer": "ghost", "gram": {"kind": "uniform", "g": 0.5}})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, unresolved))


def test_explicit_matrices_with_complex_entries(tmp_path):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "contexts": {
            "c": {"kind": "computational"},
            "y": {"kind": "explicit", "matrix": [[[0.7071067811865476, 0], [0, 0.7071067811865476]],
                                                   [[0, 0.7071067811865476], [0.7071067811865476, 0]]]},
        },
        "protocol": {"initial": {"context": "c", "index": 0}, "sequence": ["c", "y"]},
        "meter": {
            "pointer": "y",
            "gram": {"kind": "explicit", "matrix": [[1, [0, 0.5]], [[0, -0.5], 1]]},
        },
    }
    scenario = cs.parse_scenario(write(tmp_path, doc))
    assert scenario.contexts["y"].matrix[1, 0] == 0.7071067811865476j
    assert scenario.gram.matrix[0, 1] == 0.5j
    objects = cs.build_scenario_objects(scenario)
    assert objects.pointer.id == "y"
    np.testing.assert_allclose(objects.gram.matrix, [[1, 0.5j], [-0.5j, 1]])


def test_matrix_shape_validated(tmp_path):
    doc = dict(
        MINIMAL,
        contexts={"c": {"kind": "explicit", "matrix": [[1, 0]]}},
    )
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))


def test_sweep_validation(tmp_path):
    base = dict(MINIMAL, meter={"pointer": "c", "gram": {"kind": "uniform", "g": 0.5}})
    ok = cs.parse_scenario(write(tmp_path, dict(base, sweep={"m_count": [0, 3], "g": [0.0, 0.5]})))
    assert list(ok.sweeps.items()) == [("g", (0.0, 0.5)), ("m_count", (0, 3))]  # report order
    assert cs.Scenario(dict(base, sweep={})).sweeps == {}  # reported as {}, not null
    with pytest.raises(ScenarioValidationError):  # strength outside [0,1]
        cs.parse_scenario(write(tmp_path, dict(base, sweep={"g": [0.0, 1.5]})))
    with pytest.raises(ScenarioValidationError):  # negative chain length
        cs.parse_scenario(write(tmp_path, dict(base, sweep={"m_count": [-1]})))
    with pytest.raises(ScenarioValidationError):  # g sweep without meter
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, sweep={"g": [0.0]})))
    with pytest.raises(ScenarioValidationError):  # phase sweep needs a context change
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, sweep={"phase": [0.5]})))
    with pytest.raises(ScenarioValidationError):  # unknown grid name
        cs.parse_scenario(write(tmp_path, dict(base, sweep={"tilt": [1]})))


@pytest.mark.parametrize(
    "literal",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "1e999",
        pytest.param("1" + "0" * 400, id="401-digit-int"),
        pytest.param("1" * 5000, id="5000-digit-int"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, literal):
    text = json.dumps(dict(MINIMAL, contexts={"c": {"kind": "rotation", "theta": 0.5}}))
    text = text.replace("0.5", literal)
    with pytest.raises(ScenarioParseError):
        cs.parse_scenario(write(tmp_path, text))


def test_haar_seed_must_be_non_negative(tmp_path):
    doc = dict(MINIMAL, contexts={"c": {"kind": "haar", "seed": -3}})
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, doc))
    assert err.value.field == "contexts.c.seed"


def test_non_orthonormal_explicit_context_parses_but_fails_build(tmp_path):
    doc = dict(
        MINIMAL,
        contexts={"c": {"kind": "explicit", "matrix": [[1, 0.1], [0, 1]]}},
    )
    scenario = cs.parse_scenario(write(tmp_path, doc))
    [(name, err)] = cs.build_scenario_objects(scenario).refused
    assert name == "context[c].orthonormal"
    assert isinstance(err, cs.NonOrthonormalInput)
    with pytest.raises(cs.NonOrthonormalInput):
        cs.run_scenario(scenario, 0, 1)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dim_beyond_the_table_budget_is_refused_before_allocating(tmp_path, monkeypatch):
    huge = write(tmp_path, dict(MINIMAL, dim=10**18))

    def refused():
        with pytest.raises(ScenarioValidationError) as err:
            cs.parse_scenario(huge)
        assert err.value.field == "dim"

    assert _traced_peak(refused) < 1 << 20

    # a dim whose footprint is exactly the budget parses; one byte less of budget refuses it
    dim = 4096
    protocol = {"initial": {"context": "c", "index": 0}, "sequence": ["c", "c"]}
    doc = dict(MINIMAL, dim=dim, protocol=protocol)
    footprint = table_bytes(dim, 1, 1)
    path = write(tmp_path, doc, "edge.json")
    monkeypatch.setattr(csm_sim.scenario, "MAX_TABLE_BYTES", footprint)
    assert _traced_peak(lambda: cs.parse_scenario(path)) < 1 << 20
    monkeypatch.setattr(csm_sim.scenario, "MAX_TABLE_BYTES", footprint - 1)
    with pytest.raises(ScenarioValidationError, match="budget"):
        cs.parse_scenario(path)


def test_table_budget_admits_the_scaled_scenarios():
    # four contexts, five steps: the benchmark's dim-64 scenario and its dim-256 scale-up
    assert table_bytes(256, 4, 5) <= MAX_TABLE_BYTES


def _pairs(matrix):
    return [[[z.real, z.imag] for z in row] for row in matrix]


@st.composite
def _recipes(draw):
    """A one-context document with a uniform meter, and the recipes a library caller makes.

    Some draws break a rule of a context kind or of the gram: an unknown kind, a
    rotation outside dim 2, a theta that is no number, a seed that is negative or no
    integer, an explicit Haar matrix of the wrong shape, a strength outside [0, 1].
    """
    dim = draw(st.integers(2, 4))
    kinds = ["computational", "fourier", "rotation", "haar", "explicit", "spiral"]
    kind = draw(st.sampled_from(kinds))
    fields = {}
    if kind in ("rotation", "spiral"):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        fields["theta"] = draw(st.one_of(finite, st.text("ab", max_size=2), st.booleans()))
    elif kind == "haar":
        fields["seed"] = draw(st.one_of(st.integers(-3, 10), st.just(True), st.just(1.5)))
    elif kind == "explicit":
        rows, cols = draw(st.sampled_from([(dim, dim), (dim + 1, dim + 1), (dim, dim - 1)]))
        fields["matrix"] = cs.haar_context(rows, draw(st.integers(0, 2**31 - 1))).basis[:, :cols]
    g = draw(st.floats(-1.0, 2.0))
    written = {key: _pairs(value) if key == "matrix" else value for key, value in fields.items()}
    doc = {
        "schema_version": 1,
        "dim": dim,
        "contexts": {"c": {"kind": kind, **written}},
        "protocol": {"initial": {"context": "c", "index": 0}, "sequence": ["c"]},
        "meter": {"pointer": "c", "gram": {"kind": "uniform", "g": g}},
    }
    return doc, kind, dim, fields, g


def _refusal(make, prefix):
    try:
        return make()
    except ScenarioValidationError as err:
        return (prefix + err.field, err.reason)


@settings(max_examples=150, deadline=None)
@given(drawn=_recipes())
def test_a_file_and_the_library_agree_on_every_recipe(drawn):
    doc, kind, dim, fields, g = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        parsed = _refusal(lambda: cs.parse_scenario(path), "")
    spec = _refusal(lambda: cs.ContextSpec(kind, dim, **fields), "contexts.c.")
    gram = _refusal(lambda: cs.GramSpec("uniform", g=g), "meter.gram.")
    library = spec if isinstance(spec, tuple) else gram
    if isinstance(library, tuple):
        assert parsed == library  # the same field under its JSON path, the same reason
        return
    assert not isinstance(parsed, tuple), parsed
    basis = cs.build_context(spec).basis
    np.testing.assert_array_equal(cs.build_context(parsed.contexts["c"]).basis, basis)
    public = {
        "computational": lambda: cs.computational_context(dim),
        "fourier": lambda: cs.fourier_context(dim),
        "rotation": lambda: cs.rotation_context(fields["theta"]),
        "haar": lambda: cs.haar_context(dim, fields["seed"]),
    }
    if kind in public:
        np.testing.assert_array_equal(public[kind]().basis, basis)
    np.testing.assert_array_equal(
        build_gram(parsed.gram, dim).matrix, cs.gram_uniform(dim, g).matrix
    )
