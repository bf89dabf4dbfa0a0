import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csm_sim as cs
from csm_sim.cli import main
from csm_sim.errors import ScenarioValidationError
from csm_sim.hilbert import INPUT_TOL

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _report(diagonal, entropy, mode="monte_carlo"):
    return json.dumps(
        {
            "results": {
                "meter": {"reduced_state_diagonal": diagonal, "entropy": entropy},
                "rows": [{"p": [0.25, 0.75]}, {"p": [0.5, 0.5]}],
                "mode": mode,
            }
        }
    )


def test_numeric_gap_on_json_and_text():
    # gaps are powers of two, so they are exact
    a = _report([0.5, 0.25, 0.25], 0.125)
    b = _report([0.5, 0.25 + 2**-48, 0.25 - 2**-50], 0.125 + 2**-45)
    assert compare_outputs.numeric_gap(a, a) == 0.0
    assert compare_outputs.numeric_gap(a, b) == 2**-45
    # a key, a list length or a string that differs is a structural difference
    assert compare_outputs.numeric_gap(a, _report([0.5, 0.5], 0.125)) is None
    assert compare_outputs.numeric_gap(a, _report([0.5, 0.25, 0.25], 0.125, "exhaustive")) is None
    assert compare_outputs.numeric_gap("PASS x  residual=0.5\n", "PASS x  residual=0.75\n") == 0.25
    assert compare_outputs.numeric_gap("PASS x  residual=0.5\n", "FAIL x  residual=0.5\n") is None


def test_gaps_are_grouped_by_key_path_with_indices_collapsed():
    a = _report([0.5, 0.25, 0.25], 0.125)
    b = json.loads(_report([0.5, 0.25 + 2**-48, 0.25 - 2**-50], 0.125 + 2**-45))
    b["results"]["rows"][1]["p"][0] = 0.5 + 2**-52
    grouped = compare_outputs.gaps_by_path(a, json.dumps(b))
    assert list(grouped) == [
        "results.meter.reduced_state_diagonal[*]",
        "results.meter.entropy",
        "results.rows[*].p[*]",
    ]
    count, largest = grouped["results.meter.reduced_state_diagonal[*]"]
    assert (count, largest) == (2, 2**-48)
    assert grouped["results.rows[*].p[*]"] == (1, 2**-52)
    assert compare_outputs.gaps_by_path(a, a) == {}
    assert compare_outputs.gaps_by_path(a, _report([0.5], 0.125)) is None
    assert compare_outputs.gaps_by_path("PASS\n", "PASS\n") is None


def test_a_list_entry_that_carries_a_name_is_keyed_by_it():
    a = {
        "checks": [
            {"name": "meter.reduced_state", "residual": 0.0}, {"name": "x", "residual": 0.5}
        ],
        "rows": [{"name": 3, "p": [0.5]}],
    }
    b = json.loads(json.dumps(a))
    b["checks"][0]["residual"] = 2**-52
    b["rows"][0]["p"][0] = 0.5 + 2**-50
    grouped = compare_outputs.gaps_by_path(json.dumps(a), json.dumps(b))
    # a name that is no string keys nothing
    assert grouped == {
        "checks[meter.reduced_state].residual": (1, 2**-52), "rows[*].p[*]": (1, 2**-50)
    }
    b["checks"][1]["name"] = "y"  # a renamed entry is a structural difference
    assert compare_outputs.gaps_by_path(json.dumps(a), json.dumps(b)) is None


def test_describe_lists_paths_for_json_and_aligned_lines_for_text():
    a = _report([0.5, 0.25, 0.25], 0.125)
    b = _report([0.5, 0.25, 0.25], 0.125 + 2**-45)
    notes = compare_outputs.describe((0, a, ""), (0, b, ""))
    assert notes == ["stdout: max gap 2.842e-14", "  results.meter.entropy: 1 value <= 2.8e-14"]
    before = "PASS  a  residual=0.0\nPASS  z  residual=0.0\n"
    after = "PASS  a  residual=0.0\nPASS  new  residual=0.0\nPASS  z  residual=0.0\n"
    notes = compare_outputs.describe((0, before, ""), (0, after, ""))
    assert notes == ["stdout: structure differs", "  + PASS  new  residual=0.0"]


def test_refusal_invocations_are_refused_with_one_stderr_line(tmp_path, capsys):
    runs = compare_outputs.invocations(tmp_path)
    refusals = [(label, argv) for label, argv in runs if label.startswith("refusal ")]
    admitted = [label for label, _ in runs if label.startswith("admitted ")]
    corpus = [label for label, _ in runs if label.startswith("corpus ")]
    per_scenario = len(compare_outputs.INVOCATIONS)
    assert len(admitted) == len(compare_outputs.ADMITTED)
    assert len(corpus) == 947 and len(runs) - len(corpus) == 112
    scenario_runs = len(runs) - len(refusals) - len(admitted) - len(corpus)
    assert scenario_runs == len(compare_outputs.scenarios()) * per_scenario
    assert per_scenario == 10
    assert len(refusals) == len(compare_outputs.REFUSALS) == 34
    for (label, argv), (name, _, _) in zip(refusals, compare_outputs.REFUSALS):
        # a sweep the scenario cannot serve, a sample count out of range, a
        # grid outside its parameter's domain (on the command line or in the
        # file), a recipe that breaks a rule of its kind, a flag out of range
        # and a chain length past a double's phase are usage errors; a refused
        # input fails
        usage = name in (
            "no_meter", "one_context", "unedited", "g_grid_0_1_2", "m_count_grid_-3_-1_1",
            "no_meter_and_explicit_x_off_by_1e-8", "x_haar_seed_-1", "gram_g_1.5",
            "x_rotation_in_dim_3", "schema_version_true", "sequence_names_nope",
            "initial_context_x", "initial_index_2", "pointer_nope", "unknown_top_level_key",
            "gram_negative_unit_overlap",
        )
        assert main(argv) == (2 if usage else 1), label
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, label
        if argv[0] == "verify" and not usage:
            assert " refused: " in err, label
            if "--out" in argv:  # the report is written, the refused check in it
                report = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
                refused = next(c for c in report["checks"] if not c["pass"])
                assert f"{refused['name']} refused: {refused['refused']}" in err, label
        elif not usage:
            # a sweep refuses with the message run gives, though it builds less
            assert main(["run", argv[1], "--trajectories", "10"]) == 1, label
            assert capsys.readouterr().err == err, label


def test_an_explicit_basis_near_the_floor_is_admitted_by_run_and_verify(tmp_path, capsys):
    runs = [(label, argv) for label, argv in compare_outputs.invocations(tmp_path)
            if label.startswith("admitted ")]
    assert [argv[0] for _, argv in runs] == [
        "run", "verify", "run", "run", "verify", "run", "verify", "sweep"]
    x = json.loads(Path(runs[0][1][1]).read_text())["contexts"]["x"]
    residual = cs.Context("x", np.array(x["matrix"])).orthonormality
    assert 0.98 * INPUT_TOL < residual <= INPUT_TOL
    # the third is h turned by 3e-5, written out: transition weights of ~1e-9 from h
    near = np.array(json.loads(Path(runs[2][1][1]).read_text())["contexts"]["near"]["matrix"])
    eps = 3e-5
    turn = np.array([[math.cos(eps), -1j * math.sin(eps)], [-1j * math.sin(eps), math.cos(eps)]])
    expected = cs.haar_context(2, 2).basis @ turn
    np.testing.assert_allclose(near @ [1, 1j], expected, rtol=0, atol=1e-15)
    # then a document without a meter and a one-context protocol, which no scenario file is
    meterless, single = (json.loads(Path(runs[k][1][1]).read_text()) for k in (3, 5))
    assert "meter" not in meterless and single["protocol"]["sequence"] == ["z"]
    # the last holds an overlap modulus of 1 + 5e-11, admitted, swept to 2e13 meters
    gram = json.loads(Path(runs[-1][1][1]).read_text())["meter"]["gram"]["matrix"]
    assert gram[0][1] == gram[1][0] == 1.00000000005
    checks = []
    for label, argv in runs:
        assert main(argv) == 0, label
        captured = capsys.readouterr()
        assert captured.err == "", label
        if argv[0] == "verify":
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["pass"] is True, label
            checks.append(len(report["checks"]))
    assert checks[1:] == [10, 14]
    for line in captured.out.splitlines()[1:]:  # the sweep's: no coherence past the diagonal
        m_count, coherence, *diagonal = map(float, line.split(","))
        assert coherence <= max(diagonal), line


def test_a_written_report_is_read_and_walked_value_by_value(tmp_path):
    runs = dict(compare_outputs.invocations(tmp_path))
    argv = runs["scenarios/balanced_qubit.json  verify report"]
    assert argv[2:] == ["--out", str(tmp_path / "report.json")]
    src = Path(__file__).resolve().parent.parent / "src"
    with compare_outputs.tree(src) as invoke:
        code, stdout, _, written = invoke(argv)
    assert code == 0 and stdout.startswith("PASS")
    assert json.loads(written)["pass"] is True
    assert not (tmp_path / "report.json").exists()  # removed, for the other tree to write
    moved = json.loads(written)
    assert moved["checks"][0]["residual"] == 0.0  # an exact basis, so the gap below is exact
    moved["checks"][0]["residual"] = 2**-60
    notes = compare_outputs.describe((0, stdout, "", written), (0, stdout, "", json.dumps(moved)))
    assert notes == [
        "report: max gap 8.674e-19",
        "  checks[context[z].orthonormal].residual: 1 value <= 8.7e-19",
    ]


def test_each_refusal_document_reads_alike_from_its_file_and_in_process(tmp_path):
    base = json.loads((compare_outputs.ROOT / "scenarios" / "balanced_qubit.json").read_text())
    names = [name for name, _, _ in compare_outputs.REFUSALS]
    assert "unedited" in names
    for name, edit, _ in compare_outputs.REFUSALS:
        doc = copy.deepcopy(base)
        edit(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        try:
            parsed = cs.parse_scenario(path)
        except ScenarioValidationError as err:
            with pytest.raises(ScenarioValidationError) as caught:
                cs.Scenario(doc)
            assert str(caught.value) == str(err), name
        else:
            assert cs.Scenario(doc) == parsed, name


def _as_a_process(src: Path, args: list[str]) -> tuple:
    """``compare_outputs``' former path: ``python3 -m csm_sim.cli args`` as its own process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-m", "csm_sim.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    written = ""
    if "--out" in args:
        out = Path(args[args.index("--out") + 1])
        written = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
    return done.returncode, done.stdout, done.stderr, written


def test_one_child_per_tree_reads_as_a_process_per_invocation(tmp_path):
    runs = dict(compare_outputs.invocations(tmp_path))
    chosen = [
        runs["scenarios/balanced_qubit.json  run seed 0"],
        runs["scenarios/balanced_qubit.json  verify report"],
        runs["refusal three_refusals  run"],
        ["sweep", "scenarios/balanced_qubit.json", "--from", "0", "--to", "1", "--steps", "3"],
    ]
    with compare_outputs.tree(ROOT / "src") as invoke:
        in_child = [invoke(args) for args in chosen]
    assert in_child == [_as_a_process(ROOT / "src", args) for args in chosen]
    assert [code for code, *_ in in_child] == [0, 0, 1, 2]
    assert json.loads(in_child[1][3])["pass"] is True  # the written report
    assert in_child[3][2].startswith("usage: csm-sim sweep ")  # argparse's, without --param


def test_the_child_prints_each_warning_once_per_invocation_and_a_traceback_on_a_fault(tmp_path):
    package = tmp_path / "csm_sim"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys, warnings\n"
        "def main(argv):\n"
        "    if argv == ['fault']:\n"
        "        raise RuntimeError('boom')\n"
        "    for _ in range(2):\n"
        "        warnings.warn('once per place', RuntimeWarning)\n"
        "    print('done')\n"
        "    return 0\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main(sys.argv[1:]))\n"
    )
    with compare_outputs.tree(tmp_path) as invoke:
        warned, again, fault = invoke(["warn"]), invoke(["warn"]), invoke(["fault"])
    assert warned == again == _as_a_process(tmp_path, ["warn"])
    assert warned[2].count("RuntimeWarning: once per place") == 1
    code, _, err, _ = fault
    assert code == 1 and err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: boom\n")
