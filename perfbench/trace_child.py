"""Traced run of one workload, in process, through ``csm_sim.cli.main``.

Started by ``run.py --trace 1`` in a fresh interpreter.  It times the CLI
import, runs one warm-up pass of the workload's commands (discarded), then
alternates untraced and traced passes until ``--seconds`` have elapsed.
Every pass's output is checked.  At the end it writes the spans and pass
times as one JSON document to ``--out``.

    PYTHONPATH=src python3 perfbench/trace_child.py --workload mc_qutrit \\
        --inputs perfbench/scenarios/seed0 --seed 0 --seconds 10 --out trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer
from workloads import WORKLOADS, steps


def run_pass(cli, plan, ref, tracer=None, label="") -> tuple[float, list[str]]:
    """Run every command once; returns wall seconds and the failures."""
    outputs = []
    start = perf_counter()
    for step in plan:
        if tracer is not None:
            tracer.request = f"{label}/{step.key}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is a failed invocation, not a crash
                code = f"uncaught {type(exc).__name__}: {exc}"
        outputs.append((step, code, stdout.getvalue()))
    wall = perf_counter() - start
    failures = []
    for step, code, text in outputs:
        failure = checks.check(step, code, text, ref) if isinstance(code, int) else code
        if failure:
            failures.append(failure)
    return wall, failures


def measure_pair(cli, plan, ref, tracer: Tracer, label: str) -> tuple[dict, list[str]]:
    """One untraced pass, then one traced pass: their wall times and spans."""
    untraced_s, failures = run_pass(cli, plan, ref)
    tracer.spans = []
    tracer.install()
    try:
        traced_s, failed = run_pass(cli, plan, ref, tracer, label)
    finally:
        tracer.uninstall()
    timing = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": tracer.spans}
    return timing, failures + failed


def trace_workload(workload: str, inputs: Path, seed: int, seconds: float) -> dict:
    start = perf_counter()
    cli = importlib.import_module("csm_sim.cli")
    import_s = perf_counter() - start

    plan = steps(WORKLOADS[workload], inputs, seed)
    ref = json.loads((inputs / f"{workload}.ref.json").read_text())
    _, failures = run_pass(cli, plan, ref)  # warm-up
    attempted = len(plan)
    passes = []
    tracer = Tracer()
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        timing, failed = measure_pair(cli, plan, ref, tracer, f"pass{len(passes)}")
        passes.append(timing)
        failures += failed
        attempted += 2 * len(plan)
    return {
        "import_s": import_s,
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "missing": tracer.missing,
        "missing_layers": tracer.missing_layers(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    result = trace_workload(args.workload, args.inputs, args.seed, args.seconds)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
