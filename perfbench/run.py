"""End-to-end and per-layer benchmark of the ``csm-sim`` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables_d64 --seed 0 --seconds 35 --trace 0

``--trace 0`` runs the workload's commands as separate ``csm-sim`` processes,
one at a time (a closed loop with one client), for ``--seconds`` after one
discarded warm-up pass, and reports the end-to-end metrics listed in
``BENCHMARK.json``.  ``--trace 1`` runs the same commands in one fresh
interpreter through ``csm_sim.cli.main`` with the layer tracer installed and
reports the per-layer metrics.  Every invocation's output is checked; the
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
from scenario_gen import inputs_for
from tracer import layer_metrics, summarize
from workloads import WORKLOADS, ensemble_size, steps

HERE = Path(__file__).resolve().parent
# On a shared 2-vCPU VM the machine speed drifted by up to 1.5x over minutes,
# and every timing in a run moved with it.  So each pass also times a probe
# that does not use csm_sim (a fresh interpreter, NumPy import, RNG set-up,
# small eigensolves and a Python loop), and every reported time is scaled by
# PROBE_REFERENCE_S / (median probe time of the run): seconds on a machine
# where the probe takes PROBE_REFERENCE_S.
PROBES_PER_PASS = 2
PROBE_REFERENCE_S = 0.25
PROBE_CODE = """\
import numpy as np
rngs = [np.random.default_rng((7, i)).random() for i in range(2000)]
a = np.random.default_rng(0).standard_normal((64, 64))
for _ in range(60):
    np.linalg.eigvalsh(a + a.T)
s = 0
for i in range(200_000):
    s += i * i
"""
INVOCATION_TIMEOUT_S = 150.0
# What set-up means: a fresh interpreter imports the package, parses the
# scenario and builds its objects, then exits.
SETUP_CODE = (
    "import sys, csm_sim; "
    "csm_sim.build_scenario_objects(csm_sim.parse_scenario(sys.argv[1]))"
)


# One BLAS thread: the program's matrices are at most 64 x 64, where a second
# thread only spins; with two, the same dim-64 verify took 1.5x the wall time
# and 3x the CPU time on a 2-core machine.
BLAS_THREADS = 1


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CSM_SIM_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def machine_record() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1] for line in f if line.startswith("model name"))
            cpu = cpu.strip()
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def invoke(argv: list[str], env: dict, out: Path, err: Path) -> tuple[int, float, int]:
    """Run one process to completion: exit code, wall seconds, peak RSS in KiB."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], INVOCATION_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


class Client:
    """The one closed-loop client: one invocation at a time; keeps counts and failures."""

    def __init__(self, root: Path, work: Path):
        self.env = child_env(root)
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kib = 0

    def run(self, argv: list[str]) -> tuple[int, float, str]:
        out, err = self.work / "stdout", self.work / "stderr"
        code, wall, rss = invoke([sys.executable, *argv], self.env, out, err)
        self.attempted += 1
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, wall, out.read_text()


def end_to_end(workload, inputs: Path, seed: int, seconds: float, client: Client) -> dict:
    plan = steps(workload, inputs, seed)
    ref = json.loads((inputs / f"{workload.name}.ref.json").read_text())
    walls: dict[str, list[float]] = {step.key: [] for step in plan} | {"setup": []}
    probe: list[float] = []
    scenario = str(inputs / f"{workload.name}.json")

    def timed(argv: list[str], what: str) -> float:
        code, wall, _ = client.run(argv)
        if code != 0:
            client.failures.append(f"{what}: exit code {code}")
        return wall

    def run_pass(keep: bool) -> None:
        for step in plan:
            code, wall, stdout = client.run(["-m", "csm_sim.cli", *step.argv])
            failure = checks.check(step, code, stdout, ref)
            if failure:
                client.failures.append(failure)
            if keep:
                walls[step.key].append(wall)
        if keep:
            walls["setup"].append(timed(["-c", SETUP_CODE, scenario], "setup"))
            probe.extend(timed(["-c", PROBE_CODE], "probe") for _ in range(PROBES_PER_PASS))

    run_pass(keep=False)  # warm-up: first runs are slower
    deadline = perf_counter() + seconds
    while not walls["run"] or perf_counter() < deadline:
        run_pass(keep=True)

    scale = PROBE_REFERENCE_S / statistics.median(probe)
    print(f"probe: median {PROBE_REFERENCE_S / scale:.4f} s, n={len(probe)}; scale {scale:.4f}")
    for key, values in walls.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(
            f"{key}_s unscaled: median {statistics.median(values):.4f}, quartiles "
            f"{q[0]:.4f}..{q[2]:.4f}, min {min(values):.4f}, max {max(values):.4f}, "
            f"n={len(values)}"
        )
    times = {f"{key}_s": scale * statistics.median(values) for key, values in walls.items()}
    return {
        **times,
        "ensemble_per_s": ensemble_size(workload, ref) / times["run_s"],
        "peak_rss_mb": client.peak_rss_kib / 1024.0,
    }


def per_layer(workload, inputs: Path, seed: int, seconds: float, client: Client) -> dict:
    out = client.work / "trace.json"
    code, _, _ = client.run(
        [
            str(HERE / "trace_child.py"),
            "--workload", workload.name,
            "--inputs", str(inputs),
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--out", str(out),
        ]
    )
    if code != 0 or not out.exists():
        err = (client.work / "stderr").read_text()
        raise SystemExit(f"traced run failed with exit code {code}:\n{err}")
    traced = json.loads(out.read_text())
    client.attempted += traced["attempted"]
    for failure in traced["failures"]:
        client.failures.append(failure)
    if traced["missing"]:
        print(f"missing trace targets: {', '.join(traced['missing'])}")
        print(f"missing spans (reported as 0): {', '.join(traced['missing_layers'])}")
    metrics, counts_repeat = layer_metrics(traced)
    if not counts_repeat:
        print("warning: span counts differ between traced passes")
    first = traced["passes"][0]
    summary = summarize(first["spans"])
    shares = sorted(
        ((v["total_s"] / first["traced_s"], k) for k, v in summary.items()), reverse=True
    )
    print(f"traced passes: {len(traced['passes'])}; share of traced time (first pass):")
    for share, name in shares:
        print(f"  {name:32s} {100 * share:6.2f} %  calls {summary[name]['calls']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "csm_sim" / "__init__.py").is_file():
        print("no csm_sim sources under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        client = Client(root, work)
        inputs = inputs_for(args.seed, work / "inputs")
        print("machine: " + json.dumps(machine_record()))
        measure = per_layer if args.trace else end_to_end
        values = measure(WORKLOADS[args.workload], inputs, args.seed, args.seconds, client)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    for failure in client.failures[:10]:
        print(f"FAILED {failure}")
    print(f"failed_frac: {len(client.failures)}/{client.attempted}")
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
