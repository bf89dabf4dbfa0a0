import json
import tracemalloc

import numpy as np
import pytest

import csm_sim as cs
import csm_sim.scenario
from csm_sim.cli import main
from csm_sim.errors import ScenarioParseError, ScenarioValidationError
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
    assert scenario.protocol.sequence == ("c",)
    assert scenario.meter is None and scenario.sweep is None
    assert scenario.raw == MINIMAL


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
    assert err.value.field == "contexts.r"


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, extra=1)))
    doc = dict(MINIMAL, contexts={"c": {"kind": "computational", "spin": 2}})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))
    doc = dict(MINIMAL, protocol={"initial": {"context": "c", "index": 0, "x": 1}, "sequence": ["c"]})
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))


def test_schema_version_checked(tmp_path):
    with pytest.raises(ScenarioValidationError) as err:
        cs.parse_scenario(write(tmp_path, dict(MINIMAL, schema_version=2)))
    assert err.value.field == "schema_version"


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
    assert scenario.meter.pointer == "c"
    assert scenario.meter.gram.g == 0.3
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
    assert scenario.meter.gram.matrix[0, 1] == 0.5j
    contexts, protocol, pointer, gram = cs.build_scenario_objects(scenario)
    assert pointer.id == "y"
    np.testing.assert_allclose(gram.matrix, [[1, 0.5j], [-0.5j, 1]])


def test_matrix_shape_validated(tmp_path):
    doc = dict(
        MINIMAL,
        contexts={"c": {"kind": "explicit", "matrix": [[1, 0]]}},
    )
    with pytest.raises(ScenarioValidationError):
        cs.parse_scenario(write(tmp_path, doc))


def test_sweep_validation(tmp_path):
    base = dict(MINIMAL, meter={"pointer": "c", "gram": {"kind": "uniform", "g": 0.5}})
    ok = cs.parse_scenario(write(tmp_path, dict(base, sweep={"g": [0.0, 0.5], "m_count": [0, 3]})))
    assert ok.sweep.g == (0.0, 0.5)
    assert ok.sweep.m_count == (0, 3)
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
    with pytest.raises(cs.NonOrthonormalInput):
        cs.build_scenario_objects(scenario)


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
