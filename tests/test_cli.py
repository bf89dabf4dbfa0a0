import copy
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csm_sim as cs
import csm_sim.cli
from conftest import near_unitary
from csm_sim.cli import main
from csm_sim.errors import ScenarioValidationError
from csm_sim.hilbert import INPUT_TOL
from csm_sim.scenario import SWEEP_PARAMS

SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "balanced_qubit.json")


def test_run_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", SCENARIO, "--seed", "7", "--trajectories", "200", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 7
    assert report["results"]["ensemble"]["sample_count"] == 200


def test_run_stdout_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", SCENARIO, "--seed", "3", "--trajectories", "100", "--out", str(a)]) == 0
    assert main(["run", SCENARIO, "--seed", "3", "--trajectories", "100", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_exhaustive_flag(tmp_path):
    out = tmp_path / "exact.json"
    for trajectories in ("0", "5000"):
        argv = ["run", SCENARIO, "--trajectories", trajectories, "--exhaustive", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["results"]["ensemble"]["mode"] == "exhaustive"
        # nothing is sampled; the ensemble counts the paths it averages over
        assert report["n_samples"] == 0
        steps = len(report["scenario"]["protocol"]["sequence"]) - 1
        assert report["results"]["ensemble"]["sample_count"] == report["scenario"]["dim"] ** steps


def test_run_zero_trajectories_without_exhaustive_is_usage_error(capsys):
    assert main(["run", SCENARIO, "--trajectories", "0"]) == 2


def test_run_negative_trajectories_is_usage_error_in_both_modes(capsys):
    # the floor of the sample count is run_scenario's rule, refused in its words
    for flags, least in (([], 1), (["--exhaustive"], 0)):
        assert main(["run", SCENARIO, *flags, "--trajectories", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{SCENARIO}: n_samples: must be >= {least}, got -5\n"


def test_run_negative_seed_is_usage_error(capsys):
    assert main(["run", SCENARIO, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{SCENARIO}: seed: must be >= 0, got -1\n"
    assert captured.out == ""


def test_run_exhaustive_serves_the_former_path_bound(tmp_path, capsys):
    # 8**7 paths, past the 100,000 an enumeration once refused
    doc = {
        "schema_version": 1,
        "dim": 8,
        "contexts": {"c": {"kind": "computational"}},
        "protocol": {"initial": {"context": "c", "index": 0}, "sequence": ["c"] * 8},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--exhaustive"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    ensemble = json.loads(captured.out)["results"]["ensemble"]
    assert ensemble["mode"] == "exhaustive"
    assert ensemble["sample_count"] == 8**7
    assert abs(ensemble["mean_entropy_production"] - ensemble["shannon_entropy_final"]) <= 1e-12


@pytest.mark.parametrize(
    "twice", [{"kind": "fourier"}, {"kind": "haar", "seed": 4}], ids=["fourier", "haar"]
)
def test_run_exhaustive_serves_a_context_measured_twice(tmp_path, capsys, twice):
    # [z, f, f] and [z, h, h]: the repeated step's off-diagonal moves are rounding
    # residue, ~1e-33, which the cross-check once read and refused
    doc = {
        "schema_version": 1,
        "dim": 3,
        "contexts": {"z": {"kind": "computational"}, "f": twice},
        "protocol": {"initial": {"context": "z", "index": 0}, "sequence": ["z", "f", "f"]},
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--exhaustive"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    ensemble = json.loads(captured.out)["results"]["ensemble"]
    assert ensemble["sample_count"] == 9
    assert abs(ensemble["mean_entropy_production"] - ensemble["shannon_entropy_final"]) <= 1e-12


def test_non_finite_scenario_number_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    text = Path(SCENARIO).read_text()
    path.write_text(text.replace('"theta": 1.5707963267948966', '"theta": NaN'))
    assert "NaN" in path.read_text()
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_integer_too_large_for_a_double_is_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    text = Path(SCENARIO).read_text()
    path.write_text(text.replace('"theta": 1.5707963267948966', '"theta": 1' + "0" * 400))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_non_finite_report_value_is_domain_error(monkeypatch, capsys):
    monkeypatch.setattr(csm_sim.cli, "run_scenario", lambda *a, **k: {"mean": float("nan")})
    assert main(["run", SCENARIO]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "non-finite" in captured.err


def test_a_meter_chain_on_an_overlap_modulus_above_1_stays_a_state(tmp_path, capsys):
    # the gram's smallest eigenvalue is -5e-11, so it is admitted; its off-diagonal modulus
    # 1 + 5e-11 once grew the coherence to 2.6e21 at 1e12 meters and to inf past 1.4e13
    doc = {
        "schema_version": 1,
        "dim": 2,
        "contexts": {"z": {"kind": "computational"}, "x": {"kind": "fourier"}},
        "protocol": {"initial": {"context": "z", "index": 0}, "sequence": ["z", "x"]},
        "meter": {
            "pointer": "x",
            "gram": {"kind": "explicit", "matrix": [[1, 1.00000000005], [1.00000000005, 1]]},
        },
        "sweep": {"m_count": [0, 1, 10**12, 10**300]},
    }
    path = tmp_path / "above_1.json"
    path.write_text(json.dumps(doc))
    sweep = ["sweep", str(path), "--param", "m_count", "--from", "1e13", "--to", "2e13"]
    assert main([*sweep, "--steps", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split(",")[:2] for line in captured.out.splitlines()] == [
        ["m_count", "max_coherence"],
        ["10000000000000", "0.49999999999999989"],
        ["20000000000000", "0.49999999999999989"],
    ]
    assert main(["run", str(path), "--trajectories", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["results"]["sweep"]["m_count"]
    for row in rows:
        assert row["max_coherence"] <= max(row["diagonal"])
    assert main(["verify", str(path)]) == 0


def test_a_chain_length_whose_phase_passes_a_double_is_a_usage_error(tmp_path, capsys):
    # an overlap of -1 turns by m·π, past a double at m = 1e308: once two RuntimeWarnings, a
    # NaN and exit 1 on a document the scenario rules admit
    doc = json.loads(Path(SCENARIO).read_text())
    doc["meter"]["gram"] = {"kind": "explicit", "matrix": [[1, -1], [-1, 1]]}
    path = tmp_path / "negative_overlap.json"
    path.write_text(json.dumps(doc))
    sweep = ["sweep", str(path), "--param", "m_count", "--from", "1e308", "--to", "1e308"]
    assert main([*sweep, "--steps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{path}: m_count: length 1.000e+308 turns a unit overlap's phase past a double"
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "grid, ends, refused",
    [  # the first length in grid order past a double, not the largest; m·π passes at ~5.7e307
        ([0, 10**308, 17 * 10**307], ("0", "1.7e308", "3"), ("1.000e+308", "8.500e+307")),
        ([17 * 10**307, 10**308], ("1.7e308", "1e308", "2"), ("1.700e+308", "1.700e+308")),
    ],
)
def test_a_chain_sweep_refuses_its_first_length_whose_phase_passes_a_double(
    tmp_path, capsys, grid, ends, refused
):
    doc = json.loads(Path(SCENARIO).read_text())
    doc["sweep"] = {"m_count": grid}
    start, stop, steps = ends
    sweep = ["--param", "m_count", "--from", start, "--to", stop, "--steps", steps]
    for overlap, admitted in ((-1, False), (-0.5, True)):
        # r = 0.5 has r^m = 0 at each length here, so the phase π it would turn is not read
        doc["meter"]["gram"] = {"kind": "explicit", "matrix": [[1, overlap], [overlap, 1]]}
        path = tmp_path / f"overlap_{overlap}.json"
        path.write_text(json.dumps(doc))
        scenario = cs.Scenario(doc)
        if admitted:
            rows = cs.sweep_rows(scenario, "m_count", grid)
            assert [row["max_coherence"] == 0.0 for row in rows] == [m > 0 for m in grid]
            assert cs.run_scenario(scenario, 0, 10)["results"]["sweep"]["m_count"] == rows
            assert main(["run", str(path), "--trajectories", "10"]) == 0
            assert main(["sweep", str(path), *sweep]) == 0
            capsys.readouterr()
            continue
        for call in (lambda: cs.sweep_rows(scenario, "m_count", grid),
                     lambda: cs.run_scenario(scenario, 0, 10)):
            with pytest.raises(ScenarioValidationError) as caught:
                call()
            reason = f"length {refused[0]} turns a unit overlap's phase past a double"
            assert (caught.value.field, caught.value.reason) == ("m_count", reason)
        for argv, length in ((["run", str(path)], refused[0]),
                             (["sweep", str(path), *sweep], refused[1])):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"{path}: m_count: length {length} turns a unit overlap's phase past a double"
            ]


def test_an_exhaustive_path_count_too_long_to_write_is_domain_error(tmp_path, capsys):
    # 16**3572 paths, a count of 4,302 digits: past str's limit, so no JSON can hold it
    doc = {
        "schema_version": 1,
        "dim": 16,
        "contexts": {"z": {"kind": "computational"}, "x": {"kind": "fourier"}},
        "protocol": {
            "initial": {"context": "z", "index": 0},
            "sequence": ["z", "x"] * 1786 + ["z"],
        },
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: report holds an integer of 4302 digits, too long to write\n"
    assert main(["run", str(path), "--trajectories", "10"]) == 0


def test_verify_passes(capsys):
    assert main(["verify", SCENARIO, "--tolerance", "1e-10"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_fails_on_bad_context(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "dim": 2,
        "contexts": {"bad": {"kind": "explicit", "matrix": [[1, 0.1], [0, 1]]}},
        "protocol": {"initial": {"context": "bad", "index": 0}, "sequence": ["bad"]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "residual" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_verify_refuses_a_tolerance_that_is_not_finite_and_non_negative(capsys, tolerance):
    assert main(["verify", SCENARIO, "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # verify_report's rule, refused in its words
    reason = "must be >= 0, got -1.0" if tolerance == "-1" else f"expected a number, got {tolerance}"
    assert captured.err == f"{SCENARIO}: tolerance: {reason}\n"


def test_missing_file_is_usage_error(capsys):
    assert main(["run", "/no/such/file.json"]) == 2


def test_parse_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_validation_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"schema_version": 1, "dim": 2}))
    assert main(["run", str(path)]) == 2


G_SWEEP = ["--param", "g", "--from", "0", "--to", "1", "--steps", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{tmp}"],
        ["run", "{tmp}/undecodable.json"],
        ["verify", "{tmp}/deep.json"],
        ["run", SCENARIO, "--out", "{tmp}/missing/report.json"],
        ["run", SCENARIO, "--out", "{tmp}"],
        ["verify", SCENARIO, "--out", "{tmp}/missing/report.json"],
        ["verify", SCENARIO, "--out", "{tmp}"],
        ["sweep", SCENARIO, *G_SWEEP, "--out", "{tmp}/missing/table.csv"],
        ["sweep", SCENARIO, *G_SWEEP, "--out", "{tmp}"],
    ],
    ids=[
        "scenario-is-a-directory",
        "scenario-not-utf8",
        "scenario-nested-too-deep",
        "run-out-in-missing-directory",
        "run-out-is-a-directory",
        "verify-out-in-missing-directory",
        "verify-out-is-a-directory",
        "sweep-out-in-missing-directory",
        "sweep-out-is-a-directory",
    ],
)
def test_unreadable_scenario_and_unwritable_out_are_usage_errors(tmp_path, capsys, argv):
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe{")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", SCENARIO, "--param", "g", "--from", "0", "--to", "1", "--steps", "5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "g,entropy,p_return_0,p_return_1"
    assert len(lines) == 6
    mid = lines[3].split(",")
    assert float(mid[0]) == 0.5
    assert float(mid[2]) == pytest.approx(0.75, abs=1e-12)


def test_sweep_m_count_to_stdout(capsys):
    code = main(["sweep", SCENARIO, "--param", "m_count", "--from", "0", "--to", "4", "--steps", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("m_count,max_coherence")
    assert len(lines) == 6


def test_the_longest_chain_the_command_line_reaches_keeps_its_row(capsys):
    # a grid end is a double, so its integer always fits one: the ceiling refuses none of them
    argv = ["sweep", SCENARIO, "--param", "m_count", "--from", "0", "--to", "1e300", "--steps", "2"]
    assert main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[:2] == [str(int(1e300)), "0"]


def test_sweep_phase(capsys):
    code = main(["sweep", SCENARIO, "--param", "phase", "--from", "0", "--to", "3.14159", "--steps", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "phase,p_return_0,p_return_1"


def test_a_phase_grid_whose_span_passes_a_double_keeps_its_ends(capsys):
    # linspace forms stop − start, inf here, and once read the grid [nan, inf, 1e308]
    argv = ["sweep", SCENARIO, "--param", "phase", "--from=-1e308", "--to", "1e308", "--steps", "3"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [-1e308, 0.0, 1e308]


@pytest.mark.parametrize("ends", [("-1e-3", "0"), ("0", "-1e-3"), ("-2E+0", "-.5e1")])
def test_a_negative_grid_end_with_an_exponent_is_read_as_after_an_equals_sign(capsys, ends):
    # argparse reads "-1e-3" after a space as an option, not as a number
    start, stop = ends
    base = ["sweep", SCENARIO, "--param", "phase", "--steps", "3"]
    assert main([*base, f"--from={start}", f"--to={stop}"]) == 0
    joined = capsys.readouterr()
    assert main([*base, "--from", start, "--to", stop]) == 0
    assert capsys.readouterr() == joined
    assert joined.out.count("\n") == 4 and joined.err == ""


def test_sweep_invalid_steps(capsys):
    assert main(["sweep", SCENARIO, "--param", "g", "--from", "0", "--to", "1", "--steps", "0"]) == 2


def test_size_arguments_beyond_their_bounds_are_usage_errors(capsys):
    # dim 2: the sweep's bound is far below 10**15 and never allocated; the sample count's
    # is the library's, an int64's, in an exhaustive run too, which samples nothing
    too_many = [
        (["sweep", SCENARIO, "--param", "g", "--from", "0", "--to", "1",
          "--steps", str(csm_sim.cli.max_sweep_steps(2) + 1)], "sweep: --steps"),
        (["sweep", SCENARIO, "--param", "g", "--from", "0", "--to", "1", "--steps", str(10**15)],
         "sweep: --steps"),
        (["run", SCENARIO, "--trajectories", str(2**63)],
         f"{SCENARIO}: n_samples: must be <= {2**63 - 1}\n"),
        (["run", SCENARIO, "--exhaustive", "--trajectories", str(2**63)],
         f"{SCENARIO}: n_samples: must be <= {2**63 - 1}\n"),
    ]
    for argv, message in too_many:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)


def test_the_largest_sample_count_runs(capsys):
    assert main(["run", SCENARIO, "--trajectories", str(2**63 - 1)]) == 0
    ensemble = json.loads(capsys.readouterr().out)["results"]["ensemble"]
    assert ensemble["sample_count"] == 2**63 - 1


@pytest.mark.parametrize(
    "param, start", [("m_count", "-2"), ("m_count", "nan"), ("phase", "inf"), ("g", "-0.5")]
)
def test_sweep_invalid_grid_is_usage_error(capsys, param, start):
    argv = ["sweep", SCENARIO, "--param", param, "--from", start, "--to", "4", "--steps", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # refused by the check a scenario file's grid gets, with its message, naming the entry;
    # a non-finite end makes the first entry NaN or infinite
    reason = {
        "g": "strength -0.5 outside [0, 1]",
        "m_count": "must be >= 0, got -2" if start == "-2" else "expected an integer, got nan",
        "phase": "expected a number, got nan",
    }
    assert captured.err == f"{SCENARIO}: sweep.{param}[0]: {reason[param]}\n"


def _tree_paths(node, prefix=()):
    """Every key/index path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _tree_paths(child, prefix + (key,))


def _reject_constant(text):
    raise ValueError(f"non-strict JSON constant {text}")


DOC = json.loads(Path(SCENARIO).read_text())
DROP = object()
ODD_NUMBERS = [-1, -7, -2.5, 0.5, 1.5, -0.0, 1e-300, 10**18, -(10**18), 2**63, 10**400,
               1e300, -1e300, math.nan, math.inf, -math.inf]
OTHER_TYPES = [None, True, "z", [], {}, [0, 1], {"kind": "computational"}]
# values json.loads never returns: in process they reach Scenario as they are, and a file
# holds their JSON form
IN_PROCESS = [np.int64(2), np.int64(-1), np.uint64(2**64 - 1), np.float64(0.5), np.bool_(True),
              np.str_("x"), np.array([0.0, 0.5]), (0, 1), -(10**400), 10**309]
# stands for a size argument drawn from ODD_SIZES, each small enough to run or out of bounds
SIZE = object()
ODD_SIZES = ["-1", "0", "1", "3", "64", str(10**15), str(2**63), "9" * 400]
FUZZ_COMMANDS = [
    ["run", "--trajectories", SIZE],
    ["run", "--exhaustive", "--trajectories", SIZE],
    ["verify", "--out"],
    ["sweep", "--param", "g", "--from", "0", "--to", "1", "--steps", SIZE],
    ["sweep", "--param", "m_count", "--from", "0", "--to", "4", "--steps", SIZE],
    ["sweep", "--param", "phase", "--from", "0", "--to", "3", "--steps", SIZE],
]


def _mutate(doc, mutations):
    doc = copy.deepcopy(doc)
    for path, value in mutations:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped this path
        if not isinstance(parent, (dict, list)):
            continue  # retyped to a string, which indexes but cannot be assigned
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


@settings(max_examples=120, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(
            st.sampled_from(list(_tree_paths(DOC))),
            st.sampled_from([DROP] + ODD_NUMBERS + OTHER_TYPES + IN_PROCESS),
        ),
        min_size=1,
        max_size=4,
    ),
    command=st.sampled_from(FUZZ_COMMANDS),
    size=st.sampled_from(ODD_SIZES),
)
def test_mutated_scenarios_end_in_exit_code_never_traceback(mutations, command, size):
    mutant = _mutate(DOC, mutations)
    try:  # made in process, the document is a scenario or a domain error, and so is its report
        scenario = cs.Scenario(mutant)
        assert scenario.raw is mutant
        cs.report_to_json(cs.run_scenario(scenario, 0, 10))
    except cs.CsmSimError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "mutant.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(mutant, default=lambda value: value.tolist()))
        argv = [command[0], str(path), *(size if arg is SIZE else arg for arg in command[1:])]
        if argv[-1] == "--out":
            argv.append(str(report))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
        assert code in (0, 1, 2), err.getvalue()
        if code == 0 and command[0] == "run":
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        if code == 0 and command[0] == "verify":
            json.loads(report.read_text(), parse_constant=_reject_constant)
        if code == 0 and command[0] == "sweep":
            for line in out.getvalue().splitlines()[1:]:
                assert all(math.isfinite(float(cell)) for cell in line.split(","))


NO_METER = {key: value for key, value in DOC.items() if key not in ("meter", "sweep")}
ONE_CONTEXT = dict(NO_METER, protocol={"initial": {"context": "z", "index": 0}, "sequence": ["z"]})
# two faults: no meter, and an explicit basis construction refuses; the grid is refused first
NO_METER_X_OFF = dict(NO_METER, contexts=dict(NO_METER["contexts"], x={
    "kind": "explicit",
    "matrix": [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3) + 1e-8]],
}))


@pytest.mark.parametrize(
    "param, doc, reason",
    [
        ("g", NO_METER, "needs a meter section"),
        ("m_count", NO_METER, "needs a meter section"),
        ("phase", ONE_CONTEXT, "needs two protocol contexts"),
        ("g", NO_METER_X_OFF, "needs a meter section"),
    ],
)
def test_sweep_the_scenario_cannot_serve_is_a_usage_error_from_file_or_command_line(
    tmp_path, capsys, param, doc, reason
):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", str(path), "--param", param, "--from", "0", "--to", "1", "--steps", "2"]
    assert main(argv) == 2
    from_command_line = capsys.readouterr().err
    path.write_text(json.dumps(dict(doc, sweep={param: [0, 1]})))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == from_command_line == f"{path}: sweep.{param}: {reason}\n"


def _main(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _command_line_grids(draw):
    """(param, --from, --to, --steps), the ends reaching past the parameter's domain."""
    param = draw(st.sampled_from(SWEEP_PARAMS))
    if param == "phase":
        ends = st.floats(allow_nan=False, allow_infinity=False)
    else:
        ends = st.floats(*{"g": (-1.0, 2.0), "m_count": (-3.0, 10.0)}[param])
    return param, draw(ends), draw(ends), draw(st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(grid=_command_line_grids())
def test_a_grid_from_the_command_line_is_swept_or_refused_as_the_same_grid_in_the_file(grid):
    param, start, stop, steps = grid
    with np.errstate(invalid="ignore", over="ignore"):
        values = np.linspace(start, stop, steps)
    assume(np.isfinite(values).all())  # a file cannot hold the rest
    in_file = [int(round(v)) for v in values] if param == "m_count" else [float(v) for v in values]
    argv = ["--param", param, f"--from={start!r}", f"--to={stop!r}", "--steps", str(steps)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(DOC))
        code, table, err = _main(["sweep", str(path), *argv])
        path.write_text(json.dumps(dict(DOC, sweep=dict(DOC["sweep"], **{param: in_file}))))
        run_code, report, run_err = _main(["run", str(path), "--trajectories", "10"])
    assert (code, err) == (run_code, run_err)
    if code != 0:
        assert code == 2 and table == report == "" and len(err.splitlines()) == 1
        return
    rows = json.loads(report)["results"]["sweep"][param]
    header, expected = csm_sim.runner.sweep_table(param, rows, DOC["dim"])
    lines = table.splitlines()
    assert lines[0] == ",".join(header)
    assert [[float(cell) for cell in line.split(",")] for line in lines[1:]] == expected



EXPLICIT_COMMANDS = [
    ["run", "--trajectories", "50"],
    ["run", "--exhaustive"],
    ["verify"],
    ["sweep", "--param", "g", "--from", "0", "--to", "1", "--steps", "3"],
    ["sweep", "--param", "m_count", "--from", "0", "--to", "4", "--steps", "3"],
    ["sweep", "--param", "phase", "--from", "0", "--to", "3", "--steps", "3"],
]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 8),
    fraction=st.floats(0.0, 0.99),
    start_explicit=st.booleans(),
    index=st.integers(0, 7),
    g=st.floats(0.0, 1.0),
)
def test_every_admitted_explicit_basis_runs_verifies_and_sweeps(
    seed, dim, fraction, start_explicit, index, g
):
    # a basis within INPUT_TOL of orthonormal must not push a probability past the clamp
    matrix = near_unitary(seed, dim, fraction)
    try:
        cs.Context("b", matrix)
    except cs.NonOrthonormalInput:
        assume(False)
    start, other = ("b", "z") if start_explicit else ("z", "b")
    doc = {
        "schema_version": 1,
        "dim": dim,
        "contexts": {
            "z": {"kind": "computational"},
            "b": {"kind": "explicit", "matrix": [[[v.real, v.imag] for v in r] for r in matrix]},
        },
        "protocol": {
            "initial": {"context": start, "index": index % dim},
            "sequence": [start, other],
        },
        "meter": {"pointer": "b", "gram": {"kind": "uniform", "g": g}},
        "sweep": {"g": [0.0, g, 1.0], "m_count": [0, 1, 3], "phase": [0.0, 1.0]},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "explicit.json"
        path.write_text(json.dumps(doc))
        for command in EXPLICIT_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code == 0, (command, err.getvalue())


def _gram_at_bounds(seed, dim, rank, eigenvalue, diagonal, asymmetry) -> np.ndarray:
    """Overlaps of ``rank`` random unit vectors, pushed to the bounds ``Gram`` admits.

    Its smallest eigenvalue becomes ``-eigenvalue * INPUT_TOL``; a diagonal
    congruence, which keeps that eigenvalue to within a relative 1e-10, then
    sets the diagonal ``diagonal * INPUT_TOL`` off 1, and the upper triangle is
    moved by ``asymmetry * INPUT_TOL``, which ``eigvalsh`` (lower triangle)
    never reads.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    w /= np.linalg.norm(w, axis=0)
    gram = w.conj().T @ w
    values, vectors = np.linalg.eigh(gram)
    null = vectors[:, 0]
    gram -= (values[0] + eigenvalue * INPUT_TOL) * np.outer(null, null.conj())
    target = 1.0 + diagonal * INPUT_TOL * rng.choice([-1.0, 1.0], dim)
    scale = np.sqrt(target / np.diagonal(gram).real)
    gram *= np.outer(scale, scale)
    upper = np.triu_indices(dim, 1)
    gram[upper] += asymmetry * INPUT_TOL * np.exp(2j * np.pi * rng.random(len(upper[0])))
    return gram


GRAM_COMMANDS = [
    ["run", "--trajectories", "50"],
    ["verify"],
    ["sweep", "--param", "g", "--from", "0", "--to", "1", "--steps", "3"],
    ["sweep", "--param", "m_count", "--from", "0", "--to", "4", "--steps", "3"],
    ["sweep", "--param", "phase", "--from", "0", "--to", "3", "--steps", "3"],
]
NEAR_ONE = st.floats(0.9, 1.02)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(3, 6),
    rank=st.integers(1, 5),
    eigenvalue=NEAR_ONE,
    diagonal=NEAR_ONE,
    asymmetry=NEAR_ONE,
    pointer=st.sampled_from(["z", "h"]),
    index=st.integers(0, 5),
)
def test_explicit_grams_at_their_bounds_end_in_exit_code_never_traceback_or_nan(
    seed, dim, rank, eigenvalue, diagonal, asymmetry, pointer, index
):
    matrix = _gram_at_bounds(seed, dim, min(rank, dim - 1), eigenvalue, diagonal, asymmetry)
    try:
        cs.Gram(matrix)
        admitted = True
    except cs.InvalidGramMatrix:
        admitted = False
    doc = {
        "schema_version": 1,
        "dim": dim,
        "contexts": {"z": {"kind": "computational"}, "h": {"kind": "haar", "seed": seed}},
        "protocol": {"initial": {"context": "z", "index": index % dim}, "sequence": ["z", "h"]},
        "meter": {
            "pointer": pointer,
            "gram": {"kind": "explicit", "matrix": [[[v.real, v.imag] for v in r] for r in matrix]},
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gram.json"
        path.write_text(json.dumps(doc))
        for command in GRAM_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            why = (command, err.getvalue())
            if command[0] == "verify":
                assert "nan" not in out.getvalue(), why
            if code != 0:
                # verify fails on a measured residual; everything else on the refusal
                assert code == 1 and len(err.getvalue().splitlines()) == 1, why
                assert not admitted or command[0] == "verify", why
                continue
            assert admitted, command
            if command[0] == "run":
                json.loads(out.getvalue(), parse_constant=_reject_constant)
            if command[0] == "sweep":
                for line in out.getvalue().splitlines()[1:]:
                    assert all(math.isfinite(float(cell)) for cell in line.split(","))
