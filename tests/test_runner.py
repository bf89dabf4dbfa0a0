import ast
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
import csm_sim.cli
import csm_sim.qnd
import csm_sim.runner
from conftest import (
    assert_chain_table_refereed,
    format_csv,
    g_spectra,
    support_entropy,
    sweep_table,
)
from csm_sim.errors import (
    InvalidGramMatrix,
    NonOrthonormalInput,
    ScenarioValidationError,
)
from csm_sim.hilbert import _CHUNK_ENTRIES, INPUT_TOL, _identity_residual
from csm_sim.runner import _m_count_sweep_rows, _rows, report_to_json, sweep_csv, sweep_rows

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PERFBENCH = SCENARIO_DIR.parent / "perfbench"
TABLES_D64 = PERFBENCH / "scenarios" / "seed0" / "tables_d64.json"
CHECKED_IN = sorted(SCENARIO_DIR.glob("*.json")) + sorted(
    path for path in TABLES_D64.parent.glob("*.json") if not path.name.endswith(".ref.json")
)


@pytest.fixture
def balanced_scenario():
    return cs.parse_scenario(SCENARIO_DIR / "balanced_qubit.json")


def test_build_objects_use_scenario_names(balanced_scenario):
    objects = cs.build_scenario_objects(balanced_scenario)
    assert set(objects.contexts) == {"z", "x"}
    assert [ctx.id for ctx in objects.protocol.contexts] == ["z", "x"]
    assert objects.protocol.initial.index == 0
    assert objects.pointer.id == "x"
    np.testing.assert_allclose(objects.gram.matrix, cs.gram_uniform(2, 0.5).matrix)
    assert objects.refused == ()
    # a partial build makes the contexts named, and the overlap matrix, but no protocol
    partial_build = cs.build_scenario_objects(balanced_scenario, ["z"])
    assert list(partial_build.contexts) == ["z"]
    assert partial_build.protocol is partial_build.pointer is None
    np.testing.assert_array_equal(partial_build.gram.matrix, objects.gram.matrix)
    for names in (5, ["z", 5]):
        with pytest.raises(ScenarioValidationError) as caught:
            cs.build_scenario_objects(balanced_scenario, names)
        assert caught.value.field.startswith("names")


def test_the_benchmark_set_up_builds_each_of_its_scenarios_without_a_refusal(monkeypatch):
    # perfbench/run.py's set-up step, read from its source and run here in process
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    [code] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and [target.id for target in node.targets] == ["SETUP_CODE"]]
    build, built = cs.build_scenario_objects, []
    monkeypatch.setattr(cs, "build_scenario_objects", lambda s: built.append(build(s)))
    paths = sorted(p for p in (PERFBENCH / "scenarios" / "seed0").glob("*.json")
                   if not p.name.endswith(".ref.json"))
    assert len(paths) == 3
    for path in paths:
        monkeypatch.setattr(sys, "argv", ["-c", str(path)])
        exec(code, {})
    assert [objects.refused for objects in built] == [()] * len(paths)
    assert all(objects.protocol is not None for objects in built)


def test_report_structure_and_values(balanced_scenario):
    report = cs.run_scenario(balanced_scenario, seed=7, n_samples=500)
    assert report["tool"] == "csm-sim"
    assert report["seed"] == 7
    assert report["scenario"] == balanced_scenario.raw
    results = report["results"]
    step = results["returns"][0]
    np.testing.assert_allclose(step["reversible"], [1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(step["irreversible"], [0.5, 0.5], atol=1e-12)
    meter = results["meter"]
    np.testing.assert_allclose(meter["return_probabilities"], [0.75, 0.25], atol=1e-12)
    assert meter["max_coherence"] == pytest.approx(0.25, abs=1e-12)
    assert meter["entropy"] == pytest.approx(0.5623351446188083, abs=1e-12)
    ensemble = results["ensemble"]
    assert ensemble["mode"] == "monte_carlo"
    assert ensemble["sample_count"] == 500
    assert ensemble["shannon_entropy_final"] == pytest.approx(np.log(2), abs=1e-12)
    # an empty sweep section is reported as one, no section as null
    no_sweep = {key: value for key, value in balanced_scenario.raw.items() if key != "sweep"}
    assert cs.run_scenario(cs.Scenario(no_sweep), 0, 10)["results"]["sweep"] is None
    assert cs.run_scenario(cs.Scenario(dict(no_sweep, sweep={})), 0, 10)["results"]["sweep"] == {}


def test_report_probabilities_in_range(balanced_scenario):
    report = cs.run_scenario(balanced_scenario, seed=3, n_samples=200)
    results = report["results"]
    gathered = list(results["meter"]["return_probabilities"])
    gathered += results["ensemble"]["final_distribution"]
    for entry in results["returns"]:
        gathered += entry["reversible"] + entry["irreversible"]
    for row in results["sweep"]["g"]:
        gathered += row["return_probabilities"]
    assert all(0.0 <= p <= 1.0 for p in gathered)
    assert sum(results["ensemble"]["final_distribution"]) == pytest.approx(1.0, abs=1e-10)


def test_sweep_sections_are_grid_complete(balanced_scenario):
    report = cs.run_scenario(balanced_scenario, seed=1, n_samples=100)
    sweep = report["results"]["sweep"]
    assert [row["g"] for row in sweep["g"]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert [row["m_count"] for row in sweep["m_count"]] == [0, 1, 2, 4, 8, 16]
    assert len(sweep["phase"]) == 5
    # balanced-case oracles: return (1+g)/2, chain coherence (1/2)g^m, fringe cos^2(phi/2)
    for row in sweep["g"]:
        assert row["return_probabilities"][0] == pytest.approx((1 + row["g"]) / 2, abs=1e-12)
    for row in sweep["m_count"]:
        assert row["max_coherence"] == pytest.approx(0.5 * 0.5 ** row["m_count"], abs=1e-12)
    for row in sweep["phase"]:
        assert row["return_probabilities"][0] == pytest.approx(
            np.cos(row["phase"] / 2) ** 2, abs=1e-12
        )


def test_exhaustive_mode(balanced_scenario):
    report = cs.run_scenario(balanced_scenario, seed=1, n_samples=0, exhaustive=True)
    ensemble = report["results"]["ensemble"]
    assert ensemble["mode"] == "exhaustive"
    assert ensemble["sample_count"] == 2
    assert ensemble["std_error"] == 0.0
    assert ensemble["mean_entropy_production"] == pytest.approx(np.log(2), abs=1e-12)


def test_reports_byte_identical_across_runs_and_sample_counts(balanced_scenario):
    for n in (400, 10**15, 2**63 - 1):
        first = cs.report_to_json(cs.run_scenario(balanced_scenario, seed=11, n_samples=n))
        assert cs.report_to_json(cs.run_scenario(balanced_scenario, seed=11, n_samples=n)) == first
        assert json.loads(first)["results"]["ensemble"]["sample_count"] == n


def verified(scenario, tolerance):
    """Whether ``verify_report`` passed, and its checks."""
    report = cs.verify_report(scenario, tolerance)
    return report["pass"], report["checks"]


METER_ROWS = ("gram_valid", "states_reproduce_overlaps", "composite_norm", "return_normalization",
              "return_two_form_agreement", "reduced_state", "reduced_state_two_form_agreement")


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.stem)
def test_verify_clean_scenario_passes(path):
    # every row passes, and the rows come in the report's order, read off the document:
    # per context, per step, the meter's when it has one, the protocol's marginal last
    doc = json.loads(path.read_text())
    ok, checks = verified(cs.parse_scenario(path), 1e-10)
    assert ok
    assert all(c["pass"] for c in checks)
    steps = range(len(doc["protocol"]["sequence"]) - 1)
    expected = [f"context[{name}].{row}" for name in doc["contexts"]
                for row in ("orthonormal", "projectors", "closure")]
    expected += [f"step[{s}].{row}" for s in steps
                 for row in ("unitarity", "transition_sums", "reversible_identity")]
    expected += [f"meter.{row}" for row in METER_ROWS] if "meter" in doc else []
    assert [c["name"] for c in checks] == [*expected, "protocol.final_marginal"]


def test_run_and_g_sweep_never_build_a_composite_state(monkeypatch):
    scenario = cs.parse_scenario(SCENARIO_DIR / "haar_octet.json")

    def refuse(*args, **kwargs):
        raise AssertionError("composite meter route called")

    for module in (csm_sim.qnd, csm_sim.runner):
        monkeypatch.setattr(module, "entangle", refuse)
        monkeypatch.setattr(module, "meter_states_from_gram", refuse)
    report = cs.run_scenario(scenario, seed=0, n_samples=100)
    assert report["results"]["meter"] is not None
    assert len(report["results"]["sweep"]["g"]) == len(scenario.sweeps["g"])
    assert len(cs.sweep_rows(scenario, "g", [0.0, 0.5, 1.0])) == 3
    # verify is where the composite referee runs, so the patch is live
    with pytest.raises(AssertionError, match="composite meter route"):
        cs.verify_report(scenario, 1e-10)


def test_verify_builds_each_context_once(balanced_scenario, monkeypatch):
    built = []
    real = csm_sim.runner.build_context

    def counting(spec, id=None):
        built.append(id)
        return real(spec, id=id)

    monkeypatch.setattr(csm_sim.runner, "build_context", counting)
    ok, _ = verified(balanced_scenario, 1e-10)
    assert ok
    assert sorted(built) == sorted(balanced_scenario.contexts)


def test_verify_keeps_one_overlap_table_per_partner(monkeypatch):
    scenario = cs.parse_scenario(TABLES_D64)
    built = {}
    real = csm_sim.runner.build_context

    def recording(spec, id=None):
        built[id] = real(spec, id=id)
        return built[id]

    monkeypatch.setattr(csm_sim.runner, "build_context", recording)
    ok, _ = verified(scenario, 1e-10)
    assert ok
    partners = {name: set() for name in built}
    sequence = scenario.sequence
    for a, b in zip(sequence[:-1], sequence[1:]):
        partners[a].add(b)
        partners[b].add(a)
    partners[sequence[0]].add(scenario.pointer)
    for name, ctx in built.items():
        held = [partner for partner, _ in ctx._overlaps.values()]
        assert len(held) == len(partners[name])
        assert {p.id for p in held} == partners[name]
        assert all(built[p.id] is p for p in held)
    # return tables: one pair per protocol step, held by the step's start context
    steps = {(a, b) for a, b in zip(sequence[:-1], sequence[1:])}
    held = {(name, mid.id) for name, ctx in built.items() for mid, _ in ctx._returns.values()}
    assert held == steps
    assert sum(len(ctx._returns) for ctx in built.values()) == len(steps)


def _projector_loop_residuals(basis):
    """The explicit O(N⁴) loop the closed forms replaced: (projectors, closure)."""
    dim = basis.shape[0]
    proj_residual = 0.0
    total = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        v = basis[:, j]
        p = np.outer(v, v.conj())
        proj_residual = max(
            proj_residual,
            float(np.max(np.abs(p @ p - p))),
            float(np.max(np.abs(p - p.conj().T))),
            abs(complex(np.trace(p)) - 1.0),
        )
        total += p
    return proj_residual, float(np.max(np.abs(total - np.eye(dim))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 12), perturb=st.booleans())
def test_closed_form_projector_residuals_match_explicit_loop(seed, dim, perturb):
    basis = cs.haar_context(dim, seed).basis
    if perturb:
        # a basis the context still accepts, off orthonormal by up to INPUT_TOL
        noise = np.random.default_rng(seed).standard_normal((dim, dim))
        basis = basis + 0.2 * INPUT_TOL / dim * noise
    cs.Context("explicit", basis)  # admitted, but held repaired: the rows read it as given
    ctx = SimpleNamespace(basis=basis, adjoint=basis.conj().T, orthonormality=0.0)
    objects = csm_sim.runner._Objects({"x": ctx}, None, None, None, ())
    rows = dict(csm_sim.runner._checks(SimpleNamespace(contexts={"x": None}), objects))
    assert list(rows) == ["context[x].orthonormal", "context[x].projectors", "context[x].closure"]
    projectors, closure = _projector_loop_residuals(basis)
    assert abs(rows["context[x].projectors"] - projectors) <= 1e-15
    assert abs(rows["context[x].closure"] - closure) <= 1e-15
    if perturb:
        assert closure > 1e-13  # the perturbation shows, well above rounding


@pytest.mark.parametrize("rho, residual", [
    (np.diag([0.5, 0.5]), 0.0),  # a state
    (np.array([[0.5, 0.25j], [0.25j, 0.5]]), 0.5),  # |ρ − ρ†| only
    (np.diag([0.75, 0.5]), 0.25),  # |tr ρ − 1| only
    (np.diag([1.25, -0.25]), 0.25),  # −λ_min only
])
def test_the_reduced_state_row_reads_each_flaw_of_the_chain_state(
    rho, residual, balanced_scenario, monkeypatch
):
    objects = cs.build_scenario_objects(balanced_scenario)
    monkeypatch.setattr(csm_sim.runner, "meter_chain_reduced_state", lambda *args: rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = dict(csm_sim.runner._checks(balanced_scenario, objects))
    assert rows["meter.reduced_state"] == residual


def _near(bound: float):
    """Zero, or a value of either sign whose magnitude lies within two decades of ``bound``."""
    magnitude = st.floats(-2.0, 2.0).map(lambda exponent: bound * 10.0**exponent)
    signed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda pair: pair[0] * pair[1])
    return st.just(0.0) | signed


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    context_gap=_near(INPUT_TOL),
    unread_gap=_near(INPUT_TOL),
    eigen_gap=_near(INPUT_TOL),
    asymmetry=_near(INPUT_TOL),
    diagonal_gap=_near(INPUT_TOL),
    log_tolerance=st.floats(-12.0, -3.0),
)
def test_verify_never_passes_what_construction_refuses(
    theta, context_gap, unread_gap, eigen_gap, asymmetry, diagonal_gap, log_tolerance
):
    # two explicit contexts and a gram around the bounds of their constructors; the one no
    # protocol step or sweep reads comes first, so that its refusal, if any, leads
    c, s = np.cos(theta), np.sin(theta)
    doc = {
        "schema_version": 1,
        "dim": 2,
        "contexts": {
            "z": {"kind": "computational"},
            "unread": {"kind": "explicit", "matrix": [[c, s], [-s, c + unread_gap]]},
            "x": {"kind": "explicit", "matrix": [[c, -s], [s, c + context_gap]]},
        },
        "protocol": {"initial": {"context": "z", "index": 0}, "sequence": ["z", "x"]},
        "meter": {
            "pointer": "x",
            "gram": {
                "kind": "explicit",
                "matrix": [[1 + diagonal_gap, 1 + eigen_gap], [1 + eigen_gap + asymmetry, 1]],
            },
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        scenario = cs.parse_scenario(path)
    ok, checks = verified(scenario, 10.0**log_tolerance)
    refused = cs.build_scenario_objects(scenario).refused
    # verify writes each refusal the one build recorded, in its order, as a failed row
    rows = [(c["name"], c["pass"], c["residual"], c["refused"]) for c in checks if "refused" in c]
    assert rows == [(name, False, err.residual, str(err)) for name, err in refused]
    assert not (ok and refused)
    if any(name.startswith("context[") for name, _ in refused):  # nothing else is built
        assert "meter.gram_valid" not in [check["name"] for check in checks]
    if refused:  # run and every sweep raise the first refusal
        first = refused[0][1]
        assert isinstance(first, (NonOrthonormalInput, InvalidGramMatrix))
        for call in (
            lambda: cs.run_scenario(scenario, 0, 10),
            lambda: sweep_rows(scenario, "g", [0.5]),
            lambda: sweep_rows(scenario, "m_count", [1]),
            lambda: sweep_rows(scenario, "phase", [0.5]),
        ):
            with pytest.raises(type(first)) as caught:
                call()
            assert (str(caught.value), caught.value.residual) == (str(first), first.residual)


def test_report_with_non_finite_value_is_domain_error():
    assert report_to_json({"x": 0.5}) == '{\n  "x": 0.5\n}\n'
    for value in (float("nan"), float("inf")):
        with pytest.raises(cs.CsmSimError):
            report_to_json({"results": {"mean": value}})


def test_report_with_an_integer_too_long_to_write_is_domain_error():
    with pytest.raises(cs.CsmSimError, match="^report holds an integer of 4516 digits, too long"):
        report_to_json({"n": 2**15000})


class _Float(float):
    def __repr__(self):
        return "not what json writes"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1])
    | st.floats(allow_nan=False, allow_infinity=False).map(_Float)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.text()
)
_REPORTS = st.recursive(
    _SCALARS | st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(report=_REPORTS, bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_report_bytes_are_those_of_json_dumps_and_a_non_finite_value_is_refused(report, bad):
    assert report_to_json(report) == json.dumps(report, indent=2, allow_nan=False) + "\n"
    # the non-finite value in a flat float list, alone, or among other values
    for poisoned in ([0.5, bad], bad, {"a": [report, [1, bad]]}, [report, bad]):
        with pytest.raises(cs.CsmSimError, match="non-finite"):
            report_to_json(poisoned)


def test_verify_reports_non_orthonormal_residual(tmp_path):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "contexts": {"bad": {"kind": "explicit", "matrix": [[1, 0.1], [0, 1]]}},
        "protocol": {"initial": {"context": "bad", "index": 0}, "sequence": ["bad"]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    ok, checks = verified(cs.parse_scenario(path), 1e-10)
    assert not ok
    failing = [c for c in checks if not c["pass"]]
    assert failing[0]["name"] == "context[bad].orthonormal"
    assert failing[0]["residual"] > 0.09


def test_verify_at_machine_epsilon_tolerance(tmp_path):
    # residuals sit at the rounding floor, so an impossible tolerance must fail
    doc = {
        "schema_version": 1,
        "dim": 8,
        "contexts": {"a": {"kind": "haar", "seed": 1}, "b": {"kind": "haar", "seed": 2}},
        "protocol": {"initial": {"context": "a", "index": 0}, "sequence": ["a", "b"]},
    }
    path = tmp_path / "haar.json"
    path.write_text(json.dumps(doc))
    scenario = cs.parse_scenario(path)
    ok_loose, _ = verified(scenario, 1e-10)
    assert ok_loose
    ok_tight, checks = verified(scenario, 1e-16)
    assert not ok_tight
    worst = max(c["residual"] for c in checks)
    assert 1e-16 < worst < 1e-12


def test_verify_report_shape(balanced_scenario):
    report = cs.verify_report(balanced_scenario, 1e-10)
    assert report["pass"] is True
    assert {"name", "residual", "pass"} <= set(report["checks"][0])


def test_sweep_rows_and_csv_format(balanced_scenario):
    rows = cs.sweep_rows(balanced_scenario, "g", [0.0, 0.5, 1.0])
    text = "".join(sweep_csv(balanced_scenario, "g", [0.0, 0.5, 1.0]))
    lines = text.strip().split("\n")
    assert lines[0] == "g,entropy,p_return_0,p_return_1"
    assert len(lines) == 4
    # %.17g round-trips doubles exactly
    assert float(lines[2].split(",")[1]) == rows[1]["entropy"]
    assert text == format_csv(*sweep_table("g", rows, 2))


# 9,001 points: three chunks of the CSV writer's 4,096 rows, the last one short
CHUNKED_GRIDS = {
    "g": np.linspace(0, 1, 9001).tolist(),
    "m_count": list(range(0, 18002, 2)),
    "phase": np.linspace(-10, 10, 9001).tolist(),
}


@pytest.mark.parametrize("param", sorted(CHUNKED_GRIDS))
def test_the_csv_written_a_chunk_at_a_time_is_the_rows_flattened(balanced_scenario, param):
    grid = CHUNKED_GRIDS[param]
    chunks = list(sweep_csv(balanced_scenario, param, grid))
    assert [chunk.count("\n") for chunk in chunks] == [1, 4096, 4096, 809]
    rows = sweep_rows(balanced_scenario, param, grid)
    assert "".join(chunks) == format_csv(*sweep_table(param, rows, 2))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("entry", [(0, 0), (5000, 2), (9000, 1)], ids=["first", "second", "third"])
def test_a_non_finite_csv_cell_is_refused_as_a_report_value_is(
    balanced_scenario, monkeypatch, tmp_path, capsys, bad, entry
):
    # both writers share one finiteness rule: neither writes inf or nan with exit 0, and the
    # CSV's refusal comes before its first byte wherever the entry lies
    kernel, *columns = csm_sim.runner._SWEEPS["m_count"]

    def spoiled(*args):
        table = kernel(*args)
        table[entry] = bad
        table[-1, -1] = -bad  # past the first: the refusal names the first in row order
        return table

    monkeypatch.setitem(csm_sim.runner._SWEEPS, "m_count", (spoiled, *columns))
    grid = CHUNKED_GRIDS["m_count"]
    with pytest.raises(cs.CsmSimError, match="non-finite") as refused:
        sweep_csv(balanced_scenario, "m_count", grid)
    with pytest.raises(cs.CsmSimError) as reported:
        report_to_json({"rows": [[0.5, bad]]})
    assert str(refused.value) == str(reported.value)
    out = tmp_path / "table.csv"
    argv = ["sweep", str(SCENARIO_DIR / "balanced_qubit.json"), "--param", "m_count"]
    argv += ["--from", "0", "--to", "18000", "--steps", "9001"]
    for target in ([], ["--out", str(out)]):
        assert csm_sim.cli.main([*argv, *target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": {reported.value}\n")
    assert not out.exists()


@pytest.mark.parametrize("grid", [[0.5, 1.5], [-0.1], [float("nan")]])
def test_g_sweep_refuses_a_strength_outside_the_unit_interval(balanced_scenario, grid):
    bad = next(g for g in grid if not 0.0 <= g <= 1.0)
    with pytest.raises(ScenarioValidationError) as per_point:
        cs.gram_uniform(2, bad)
    with pytest.raises(ScenarioValidationError) as swept:
        cs.sweep_rows(balanced_scenario, "g", grid)
    # a sweep grid is refused as the scenario file's is, by the rule of one strength and
    # naming its entry; a NaN is no number at all
    if np.isfinite(bad):
        assert str(per_point.value) == f"g: strength {bad!r} outside [0, 1]"
        assert str(swept.value) == f"sweep.g[{grid.index(bad)}]: strength {bad!r} outside [0, 1]"
    else:
        assert str(swept.value) == "sweep.g[0]: expected a number, got nan"


@pytest.mark.parametrize(
    "param, grid, reason",
    [
        ("tilt", [1.0], "sweep.tilt: unknown key"),
        ("m_count", [-1], "sweep.m_count[0]: must be >= 0, got -1"),
        ("phase", [float("nan")], "sweep.phase[0]: expected a number, got nan"),
        ("g", [0.5, 1.5], "sweep.g[1]: strength 1.5 outside [0, 1]"),
    ],
    ids=["unknown", "m_count", "phase", "g"],
)
def test_sweep_rows_refuses_a_bad_grid_as_the_parser_does(
    balanced_scenario, tmp_path, param, grid, reason
):
    with pytest.raises(ScenarioValidationError) as swept:
        cs.sweep_rows(balanced_scenario, param, grid)
    assert str(swept.value) == reason
    if np.isfinite(grid).all():  # a file cannot hold a NaN
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(balanced_scenario.raw, sweep={param: grid})))
        with pytest.raises(ScenarioValidationError) as parsed:
            cs.parse_scenario(path)
        assert str(parsed.value) == reason


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 8),
    initial_seed=st.integers(0, 2**31 - 1),
    pointer_seed=st.integers(0, 2**31 - 1),
    index=st.integers(0, 7),
    inner=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_g_sweep_from_two_endpoints_matches_one_gram_per_point(
    dim, initial_seed, pointer_seed, index, inner
):
    initial = cs.haar_context(dim, initial_seed).modality(index % dim)
    pointer = cs.haar_context(dim, pointer_seed)
    grid = [0.0, *inner, 1.0]
    rows = _rows("g", grid, csm_sim.runner._g_sweep_rows(initial, pointer, None, grid))
    assert [row["g"] for row in rows] == grid
    # the dial's ends are the return tables' columns, read as they are
    reversible, irreversible = initial.context.return_tables(pointer)
    assert rows[0]["return_probabilities"] == irreversible[:, initial.index].tolist()
    assert rows[-1]["return_probabilities"] == reversible[:, initial.index].tolist()
    for row, g in zip(rows, grid):  # the referee: one overlap matrix per grid point
        gram = cs.gram_uniform(dim, g)
        returns = cs.meter_return_probabilities(initial, pointer, gram)
        assert np.max(np.abs(np.array(row["return_probabilities"]) - returns)) <= 1e-12
        rho = cs.meter_chain_reduced_state(initial, pointer, gram, 1)
        assert abs(row["entropy"] - cs.von_neumann_entropy(rho)) <= 1e-12


EPS = float(np.finfo(float).eps)
PHASE_ROW_BOUND = 8 * EPS  # a probability against the per-point kernel or the return table
PHASE_SUM_BOUND = 16 * EPS  # a row's sum against 1; the per-point kernel's rows read as far


def _assert_phase_rows_refereed(rows, initial, varied, grid):
    """The phase sweep's rows, |a + e^{iφ}c|² from one path table, against the per-point kernel
    ``interference_returns(initial, varied, [0, φ, …, φ])``; the φ = 0 row, ``grid``'s first,
    against the reversible return table's column; and each row's sum against 1."""
    assert [row["phase"] for row in rows] == grid and grid[0] == 0.0
    table = np.array([row["return_probabilities"] for row in rows])
    for phi, p in zip(grid, table):
        phases = np.full(varied.dim, phi)
        phases[0] = 0.0
        referee = cs.interference_returns(initial, varied, phases)
        assert np.max(np.abs(p - referee)) <= PHASE_ROW_BOUND
        assert abs(math.fsum(p.tolist()) - 1.0) <= PHASE_SUM_BOUND
    reversible = initial.context.return_tables(varied)[0][:, initial.index]
    assert np.max(np.abs(table[0] - reversible)) <= PHASE_ROW_BOUND


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.stem)
def test_the_phase_sweep_s_rows_are_the_per_point_kernel_s(path):
    scenario = cs.parse_scenario(path)
    objects = cs.build_scenario_objects(scenario)
    initial, varied = objects.protocol.initial, objects.contexts[scenario.sequence[1]]
    grid = [0.0, *np.linspace(-2 * np.pi, 2 * np.pi, 13).tolist(), 1e10, -1e300, 1e300]
    _assert_phase_rows_refereed(sweep_rows(scenario, "phase", grid), initial, varied, grid)


# every length to 40, and long chains: one table at dims 2–8, a table per length at dim 64
CHAIN_GRID = [*range(41), 100, 1000, 10**6, 10**12, 10**100, 10**300]


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.stem)
def test_the_m_count_sweep_s_tables_are_the_per_point_formula_s(path):
    scenario = cs.parse_scenario(path)
    objects = cs.build_scenario_objects(scenario)
    assert sweep_rows(scenario, "m_count", CHAIN_GRID) == _rows("m_count", CHAIN_GRID, (
        _m_count_sweep_rows(objects.protocol.initial, objects.pointer, objects.gram, CHAIN_GRID)
    ))
    assert_chain_table_refereed(objects.protocol.initial, objects.pointer, objects.gram, CHAIN_GRID)


def test_a_length_refused_in_a_later_table_refuses_the_sweep():
    # signs ±1 give overlaps ±1, each of modulus 1; at dim 8 the 65th length opens a second table
    signs = np.where(np.arange(8) % 3, 1.0, -1.0)
    doc = json.loads((SCENARIO_DIR / "haar_octet.json").read_text())
    doc["meter"]["gram"] = {"kind": "explicit", "matrix": np.outer(signs, signs).tolist()}
    grid = [*range(64), 10**300, 10**308, 10**300]
    with pytest.raises(ScenarioValidationError) as caught:
        sweep_rows(cs.Scenario(doc), "m_count", grid)
    reason = "length 1.000e+308 turns a unit overlap's phase past a double"
    assert (caught.value.field, caught.value.reason) == ("m_count", reason)


def _g_grid(points: int) -> list[float]:
    """``points`` strengths over [0, 1], both ends among them, then one next to each end."""
    return [*np.linspace(0, 1, points).tolist(), 1e-300, 1 - 1e-16]


def _normalized(raw) -> np.ndarray:
    raw = np.array(raw, dtype=float)
    return raw / raw.sum()  # equal values stay equal


# squared moduli that deflate to k = 1, 2 and 3 reduced rows, the last two with zero weights:
# 4,096, 1,024 and 455 points to a chunk, so 9,003 points span 3, 9 and 20 chunks; then an
# untied dim-64 pointer, 64 rows and one point to a chunk, on fewer points
G_TABLES = [
    (1, _normalized([1, 1, 1, 1, 1]), _g_grid(9001)),
    (2, _normalized([0, 1, 1, 3, 3, 3]), _g_grid(9001)),
    (3, _normalized([0, 0, 2, 1, 1, 5, 5, 5]), _g_grid(9001)),
    (64, cs.validate_distribution(np.abs(cs.haar_context(64, 3).basis[0]) ** 2), _g_grid(901)),
]


@pytest.mark.parametrize("k, weights, grid", G_TABLES, ids=["k1", "k2", "k3", "k64"])
def test_the_g_table_is_the_per_point_spectra_bit_for_bit(monkeypatch, k, weights, grid):
    chunks, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: chunks.append(a.shape) or eigvalsh(a))
    table = csm_sim.runner._g_spectra(weights, grid)
    step = max(1, _CHUNK_ENTRIES // k**2)  # at most _CHUNK_ENTRIES entries, or one point
    assert chunks == [(len(grid[s:s + step]), k, k) for s in range(0, len(grid), step)]
    monkeypatch.undo()
    referee = np.array(g_spectra(weights, grid))
    assert table.dtype == float and table.shape == (len(grid), len(weights))
    assert table.tobytes() == referee.tobytes()


# pointers from the computational context's outcome 0 whose moduli fall into zero-weight and
# untied groups, at dims 8 to 64: there the row-wise sum runs over zeros the per-point one skipped
def _block_pointer(dim: int, block: int, seed: int) -> cs.Context:
    basis = np.eye(dim, dtype=complex)
    basis[:block, :block] = cs.haar_context(block, seed).basis if block > 1 else 1.0
    return cs.Context("pointer", basis)


@pytest.mark.parametrize("dim, block", [(8, 2), (8, 5), (16, 3), (16, 12), (64, 7), (64, 40)])
def test_the_g_rows_entropy_is_each_referee_row_s(dim, block):
    initial = cs.computational_context(dim).modality(0)
    grid = _g_grid(2001)
    for seed in range(3):
        pointer = _block_pointer(dim, block, seed)
        b = pointer.adjoint @ initial.vector
        rows = g_spectra(cs.validate_distribution(b.real**2 + b.imag**2, "rho"), grid)
        entropy = csm_sim.runner._g_sweep_rows(initial, pointer, None, grid)[:, 0]
        for value, row in zip(entropy.tolist(), rows):
            for referee in (cs.shannon_entropy(row), support_entropy(row)):
                assert abs(value - referee) <= 8 * EPS * max(1.0, abs(referee))


@pytest.mark.parametrize(
    "rows, reason",
    [  # a row outside [0, 1] whose sum is off too: the range is read first, as per point
        ({5000: [1.5, -0.4], 8000: [0.5, 0.6]}, "weights outside [0, 1]"),
        ({5000: [0.5, 0.5 + 1e-9], 8000: [2.0, -1.0]}, "weights sum to 1.000000001, not 1"),
    ],
    ids=["range", "sum"],
)
def test_a_g_row_that_is_no_distribution_is_refused_as_per_point(
    balanced_scenario, monkeypatch, tmp_path, capsys, rows, reason
):
    # past the first of the table's chunks; the first such row in grid order is named
    kernel = csm_sim.runner._g_spectra

    def spoiled(weights, grid):
        table = kernel(weights, grid)
        for index, row in rows.items():
            table[index] = row
        return table

    monkeypatch.setattr(csm_sim.runner, "_g_spectra", spoiled)
    with pytest.raises(ScenarioValidationError) as expected:
        cs.shannon_entropy(rows[5000])
    assert expected.value.reason == reason
    grid = _g_grid(9001)[:-2]
    for call in (sweep_rows, sweep_csv):
        with pytest.raises(ScenarioValidationError) as caught:
            call(balanced_scenario, "g", grid)
        assert (caught.value.field, caught.value.reason) == ("dist", reason)
    path, out = SCENARIO_DIR / "balanced_qubit.json", tmp_path / "table.csv"
    argv = ["sweep", str(path), "--param", "g", "--from", "0", "--to", "1", "--steps", "9001"]
    for target in ([], ["--out", str(out)]):
        assert csm_sim.cli.main([*argv, *target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {expected.value}\n"
    assert not out.exists()


def _haar_or_fourier(dim: int, seed: int, id: str) -> cs.Context:
    return cs.fourier_context(dim, id) if seed < 0 else cs.haar_context(dim, seed, id)


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.stem)
def test_the_step_rows_and_the_g_sweep_read_the_overlap_tables_the_build_holds(path, monkeypatch):
    scenario = cs.parse_scenario(path)
    objects = cs.build_scenario_objects(scenario)
    protocol, pointer = objects.protocol, objects.pointer
    rows = dict(csm_sim.runner._checks(scenario, objects))
    for s, (a, b) in enumerate(zip(protocol.contexts, protocol.contexts[1:])):
        w = b.overlaps(a)  # the table step s's transitions were read off
        assert rows[f"step[{s}].unitarity"] == _identity_residual(w.conj().T @ w)
    if pointer is None:
        return
    # the g sweep's weights |b_j|² are the column of the table its return tables were formed from
    initial, weights, kernel = protocol.initial, [], csm_sim.runner._g_spectra
    monkeypatch.setattr(
        csm_sim.runner, "_g_spectra", lambda held, grid: weights.append(held) or kernel(held, grid)
    )
    csm_sim.runner._g_sweep_rows(initial, pointer, objects.gram, [0.0, 0.5, 1.0])
    b = pointer.overlaps(initial.context)[:, initial.index]
    assert weights[0].tobytes() == (b.real**2 + b.imag**2).tobytes()


def _context_doc(seed: int) -> dict:
    return {"kind": "fourier"} if seed < 0 else {"kind": "haar", "seed": seed}


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 64),
    initial_seed=st.integers(-1, 2**31 - 1),  # -1: the Fourier context
    varied_seed=st.integers(-1, 2**31 - 1),
)
def test_the_unitarity_row_is_within_2_dim_eps_on_haar_and_fourier_pairs(
    dim, initial_seed, varied_seed
):
    # W†W of the held overlap table W = A†B, as the row reads it, and U†U of the change of
    # context U = B A† it is in other coordinates, as the row once formed it: each within
    # 2·dim·eps of the identity
    doc = {
        "schema_version": 1,
        "dim": dim,
        "contexts": {"a": _context_doc(initial_seed), "b": _context_doc(varied_seed)},
        "protocol": {"initial": {"context": "a", "index": 0}, "sequence": ["a", "b"]},
    }
    scenario = cs.Scenario(doc)
    row = dict(csm_sim.runner._checks(scenario, cs.build_scenario_objects(scenario)))
    a, b = _haar_or_fourier(dim, initial_seed, "a"), _haar_or_fourier(dim, varied_seed, "b")
    u = cs.context_change_unitary(a, b)
    for residual in (row["step[0].unitarity"], _identity_residual(u.conj().T @ u)):
        assert residual <= 2 * dim * EPS


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 16),
    initial_seed=st.integers(-1, 2**31 - 1),  # -1: the Fourier context
    varied_seed=st.integers(-1, 2**31 - 1),
    index=st.integers(0, 15),
    phases=st.lists(st.floats(-1e300, 1e300) | st.floats(-10.0, 10.0), max_size=6),
)
def test_the_phase_sweep_s_rows_are_the_per_point_kernel_s_on_haar_and_fourier_pairs(
    dim, initial_seed, varied_seed, index, phases
):
    initial = _haar_or_fourier(dim, initial_seed, "initial").modality(index % dim)
    varied = _haar_or_fourier(dim, varied_seed, "varied")
    grid = [0.0, *phases]
    rows = _rows("phase", grid, csm_sim.runner._phase_sweep_rows(initial, varied, None, grid))
    _assert_phase_rows_refereed(rows, initial, varied, grid)


_LOADS_RANDOM = (
    "import sys; from csm_sim.cli import main; "
    "code = main(sys.argv[1:]); print(code, 'numpy.random' in sys.modules)"
)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["sweep", "--param", "g", "--from", "0", "--to", "1", "--steps", "21"], False),
        (["sweep", "--param", "m_count", "--from", "0", "--to", "8", "--steps", "5"], False),
        (["run", "--trajectories", "10"], True),
    ],
)
def test_a_meter_sweep_builds_no_unread_haar_context(tmp_path, argv, loaded):
    # the Haar contexts r1 and r2 of tables_d64 are the only users of numpy.random
    # a g or m_count sweep could have; run builds them and samples
    src = Path(csm_sim.__file__).resolve().parent.parent
    command = [argv[0], str(TABLES_D64), *argv[1:], "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", _LOADS_RANDOM, *command],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert done.stdout.split() == ["0", str(loaded)]


GRIDS = {"g": np.linspace(0, 1, 11).tolist(), "m_count": list(range(9)),
         "phase": np.linspace(0, 2 * np.pi, 11).tolist()}


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.stem)
def test_the_g_sweep_s_ends_are_the_returns_through_the_pointer(path):
    # a report states each return once: the g = 0 and g = 1 rows are the irreversible and
    # reversible returns of every step whose intermediate is the pointer
    scenario = cs.parse_scenario(path)
    report = cs.run_scenario(scenario, 0, 10, exhaustive=True)["results"]
    through = [step for step in report["returns"] if step["intermediate"] == scenario.pointer]
    swept = [sweep_rows(scenario, "g", [0.0, 1.0])]
    if report["sweep"] is not None and "g" in report["sweep"]:
        swept.append(report["sweep"]["g"])
    ends = {0.0: "irreversible", 1.0: "reversible"}
    assert through
    for step in through:
        for rows in swept:
            for row in rows:
                if row["g"] in ends:
                    assert row["return_probabilities"] == step[ends[row["g"]]]


@pytest.mark.parametrize("path", CHECKED_IN, ids=lambda path: path.stem)
def test_the_g_sweep_s_entropy_is_exact_at_the_dial_s_ends(path):
    # g = 0 is the Shannon entropy of |b|², with no eigensolver, and g = 1 a pure state's 0
    scenario = cs.parse_scenario(path)
    objects = cs.build_scenario_objects(scenario)
    b = objects.pointer.adjoint @ objects.protocol.initial.vector
    swept = [sweep_rows(scenario, "g", [0.0, 0.5, 1.0])]
    report = cs.run_scenario(scenario, 0, 10)["results"]["sweep"]
    if report is not None and "g" in report:
        swept.append(report["g"])
    for rows in swept:
        ends = {row["g"]: row["entropy"] for row in rows if row["g"] in (0.0, 1.0)}
        assert ends == {0.0: cs.shannon_entropy(b.real**2 + b.imag**2), 1.0: 0.0}


def test_every_checked_in_scenario_runs_without_a_warning():
    # a warning is NumPy leaving its domain (an overflow, a NaN) on the way to a report
    assert len(CHECKED_IN) == 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in CHECKED_IN:
            scenario = cs.parse_scenario(path)
            for report in (cs.run_scenario(scenario, 0, 1000),
                           cs.run_scenario(scenario, 0, 0, exhaustive=True),
                           cs.verify_report(scenario, 1e-10)):
                report_to_json(report)
            for param, grid in GRIDS.items():  # each has a meter and two contexts to sweep
                sweep_rows(scenario, param, grid)
