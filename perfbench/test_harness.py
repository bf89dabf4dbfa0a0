"""Tests of the benchmark harness itself (not of csm_sim).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import csm_sim.cli
import csm_sim.runner
import scenario_gen
import trace_child
from tracer import Tracer, layer_metrics, summarize
from workloads import WORKLOADS, Step, steps

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SEED0 = HERE / "scenarios" / "seed0"

FAKE_INIT = """\
def parse_scenario(path):
    return path

def build_scenario_objects(scenario):
    return scenario
"""
# ``run`` prints a NaN-laden report with exit 0; every other command exits 1.
FAKE_CLI = """\
import sys

def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[0] == "run":
        print('{"seed": 0, "n_samples": 0, "results": {"ensemble": {"mean": NaN}}}')
        return 0
    return 1

if __name__ == "__main__":
    sys.exit(main())
"""


def test_failed_invocations_count_toward_failed_frac(tmp_path):
    package = tmp_path / "src" / "csm_sim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(FAKE_INIT)
    (package / "cli.py").write_text(FAKE_CLI)
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "exhaustive_qutrit9"]
    argv += ["--seed", "0", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    # warm-up and measured pass: 2 x (run, verify, sweep); one set-up run, two probes
    assert result["attempted"] == 6 + 1 + 2
    assert result["failed"] == 6
    assert result["correct"] is False
    assert "non-finite JSON constant NaN" in proc.stdout
    assert "verify: exit code 1" in proc.stdout


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "mc_qutrit"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_nan_report_and_nonzero_exit_are_failures():
    step = steps(WORKLOADS["mc_qutrit"], SEED0, 0)[0]
    ref = json.loads((SEED0 / "mc_qutrit.ref.json").read_text())
    assert "NaN" in checks.check(step, 0, '{"seed": NaN}', ref)
    assert "Infinity" in checks.check(step, 0, '{"seed": -Infinity}', ref)
    assert checks.check(step, 2, "", ref) == "run: exit code 2"


def test_verify_and_sweep_checks_reject_bad_output():
    ref = json.loads((SEED0 / "mc_qutrit.ref.json").read_text())
    with pytest.raises(checks.CheckFailed):
        checks.check_verify("FAIL  x  residual=1.0e-03\nall 1 checks passed at tolerance 1e-10\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_verify("PASS  x  residual=nan\nall 1 checks passed at tolerance 1e-10\n")
    rows = ref["cli_sweep"]["rows"]
    good = ",".join(ref["cli_sweep"]["header"]) + "\n"
    good += "".join(",".join(repr(v) for v in row) + "\n" for row in rows)
    checks.check_sweep(good, ref)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(good.replace(repr(rows[3][1]), "nan", 1), ref)


def test_generator_reproduces_checked_in_inputs(tmp_path):
    scenario_gen.write_inputs(scenario_gen.DEFAULT_SEED, tmp_path)
    for path in SEED0.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
    shipped = REPO / "scenarios" / "qutrit_fourier.json"
    assert json.loads(shipped.read_text()) == scenario_gen.QUTRIT_FOURIER


def test_other_seeds_get_other_haar_contexts():
    a, b = scenario_gen.tables_d64(0), scenario_gen.tables_d64(7)
    assert a["contexts"]["r1"] != b["contexts"]["r1"]
    assert scenario_gen.tables_d64(7) == b


def _small_plan() -> list[Step]:
    """mc_qutrit's commands with a short ensemble, to keep the test fast."""
    plan = steps(WORKLOADS["mc_qutrit"], SEED0, 0)
    run = plan[0]
    argv = run.argv[: run.argv.index("--trajectories") + 1] + ("300",)
    return [Step("run", argv, run.seed, 300, False), *plan[1:]]


def _traced_passes(n: int) -> dict:
    ref = json.loads((SEED0 / "mc_qutrit.ref.json").read_text())
    plan = _small_plan()
    tracer = Tracer()
    passes = []
    for i in range(n):
        timing, failures = trace_child.measure_pair(csm_sim.cli, plan, ref, tracer, f"pass{i}")
        assert failures == []
        passes.append(timing)
    return {"import_s": 0.1, "passes": passes}


def test_self_times_add_up_to_traced_wall_time():
    traced = _traced_passes(1)
    metrics, _ = layer_metrics(traced)
    summary = summarize(traced["passes"][0]["spans"])
    self_total = sum(entry["self_s"] for entry in summary.values())
    wall = metrics["trace.traced_wall_s"]
    # self times partition the root spans; outside them only the pass loop runs
    assert self_total == pytest.approx(summary["cli.main"]["total_s"], rel=1e-9)
    assert 0.0 <= wall - self_total <= 0.05 * wall + 0.002
    untraced = traced["passes"][0]["untraced_s"]
    assert wall - metrics["trace.overhead_s"] == pytest.approx(untraced, rel=1e-9)
    assert all(entry["self_s"] >= 0.0 for entry in summary.values())


def test_counts_repeat_exactly_and_originals_are_restored():
    original = csm_sim.runner.irreversible_return
    traced = _traced_passes(2)
    metrics, counts_repeat = layer_metrics(traced)
    assert counts_repeat
    assert metrics["trajectory.ensemble.samples"] == 300
    # run: 2 steps x 3 outcomes x 2 routes; verify: 2 steps x 3 x 3 outcome pairs
    assert metrics["measurement.return.calls"] == 2 * 3 * 2 + 2 * 3 * 3
    assert csm_sim.runner.irreversible_return is original


def test_missing_target_is_reported_not_raised():
    layers = {
        "gone": (("csm_sim.runner.no_such_function", "no_such_package.f"), None),
        "measurement.return": (
            ("csm_sim.runner.irreversible_return", "csm_sim.runner.no_such_kernel"),
            None,
        ),
    }
    tracer = Tracer(layers)
    tracer.install()
    try:
        csm_sim.runner.irreversible_return(
            csm_sim.computational_context(2).modality(0), csm_sim.fourier_context(2), 0
        )
    finally:
        tracer.uninstall()
    assert tracer.missing == [
        "csm_sim.runner.no_such_function",
        "no_such_package.f",
        "csm_sim.runner.no_such_kernel",
    ]
    assert tracer.missing_layers() == ["gone"]
    assert summarize(tracer.spans)["measurement.return"]["calls"] == 1
