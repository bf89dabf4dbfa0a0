"""Command-line front end.

Three subcommands: ``run`` executes a scenario and emits a JSON report,
``verify`` measures every invariant residual against a tolerance, and
``sweep`` grids one parameter and emits a CSV table.  Exit codes: 0 on
success, 1 on verification or execution failure, 2 on usage, parse, read
and write errors (a sweep grid :func:`~csm_sim.scenario.sweep_grid` refuses,
such as one outside its parameter's domain, is a usage error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import CsmSimError, ScenarioParseError, ScenarioValidationError
from .runner import (
    format_csv,
    report_to_json,
    run_scenario,
    sweep_rows,
    sweep_table,
    verify_report,
)
from .scenario import SWEEP_PARAMS, parse_scenario
from .trajectory import BLOCK

# Bounds on the size arguments, from the memory each costs: a sweep holds
# dim + 2 numbers per grid point until its CSV is written, and the ensemble
# keeps dim counts per block of BLOCK samples.
MAX_SWEEP_CELLS = 10**7
MAX_COUNT_CELLS = 10**7


def max_sweep_steps(dim: int) -> int:
    return MAX_SWEEP_CELLS // (dim + 2)


def max_trajectories(dim: int) -> int:
    return MAX_COUNT_CELLS // dim * BLOCK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csm-sim",
        description="Scenario-driven simulator of context-to-context measurement statistics.",
    )
    parser.add_argument("--version", action="version", version=f"csm-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and emit a JSON report")
    run_p.add_argument("scenario", help="path to a scenario file")
    run_p.add_argument("--seed", type=int, default=0, help="ensemble seed (default 0)")
    run_p.add_argument(
        "--trajectories", type=int, default=10_000, help="Monte Carlo sample count"
    )
    run_p.add_argument(
        "--exhaustive",
        action="store_true",
        help="average over every path exactly instead of sampling",
    )
    run_p.add_argument("--out", help="write the report here instead of stdout")

    verify_p = sub.add_parser("verify", help="check every invariant at a tolerance")
    verify_p.add_argument("scenario", help="path to a scenario file")
    verify_p.add_argument(
        "--tolerance", type=float, default=1e-10, help="residual tolerance (default 1e-10)"
    )
    verify_p.add_argument("--out", help="also write the verification report here")

    sweep_p = sub.add_parser("sweep", help="grid one parameter and emit a CSV table")
    sweep_p.add_argument("scenario", help="path to a scenario file")
    sweep_p.add_argument(
        "--param", required=True, choices=SWEEP_PARAMS, help="parameter to sweep"
    )
    sweep_p.add_argument("--from", dest="start", type=float, required=True, help="first value")
    sweep_p.add_argument("--to", dest="stop", type=float, required=True, help="last value")
    sweep_p.add_argument("--steps", type=int, required=True, help="number of grid points")
    sweep_p.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to ``out``, or to stdout; exit code 2 if it cannot be written."""
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text)
    except OSError as err:
        print(f"{out or 'stdout'}: cannot write: {err.strerror or err}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args, scenario) -> int:
    least, limit = (0 if args.exhaustive else 1), max_trajectories(scenario.dim)
    if not least <= args.trajectories <= limit:
        print(f"run: --trajectories must be in [{least}, {limit}]", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run: --seed must be >= 0", file=sys.stderr)
        return 2
    report = run_scenario(
        scenario, seed=args.seed, n_samples=args.trajectories, exhaustive=args.exhaustive
    )
    return _emit(report_to_json(report), args.out)


def _cmd_verify(args, scenario) -> int:
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        print("verify: --tolerance must be finite and >= 0", file=sys.stderr)
        return 2
    report = verify_report(scenario, args.tolerance)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status}  {check['name']}  residual={check['residual']:.3e}")
    if args.out and _emit(report_to_json(report), args.out):
        return 2
    if not report["pass"]:
        first = next(c for c in report["checks"] if not c["pass"])
        # a refused input fails on the constructor's bound, whatever the tolerance
        reason = (
            f"refused: {first['refused']}" if "refused" in first
            else f"residual {first['residual']:.3e} exceeds tolerance {args.tolerance:.3e}"
        )
        print(f"verification failed: {first['name']} {reason}", file=sys.stderr)
        return 1
    print(f"all {len(report['checks'])} checks passed at tolerance {args.tolerance:.3e}")
    return 0


def _cmd_sweep(args, scenario) -> int:
    limit = max_sweep_steps(scenario.dim)
    if not 1 <= args.steps <= limit:
        print(f"sweep: --steps must be in [1, {limit}]", file=sys.stderr)
        return 2
    with np.errstate(invalid="ignore", over="ignore"):
        values = np.linspace(args.start, args.stop, args.steps)
    if not np.isfinite(values).all():
        print("sweep: grid values must be finite", file=sys.stderr)
        return 2
    if args.param == "m_count":
        values = [int(round(v)) for v in values]
    rows = sweep_rows(scenario, args.param, values)
    header, table = sweep_table(args.param, rows, scenario.dim)
    return _emit(format_csv(header, table), args.out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
    except OSError as err:
        print(f"{args.scenario}: cannot read: {err.strerror or err}", file=sys.stderr)
        return 2
    except (ScenarioParseError, ScenarioValidationError) as err:
        print(f"{args.scenario}: {err}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args, scenario)
        if args.command == "verify":
            return _cmd_verify(args, scenario)
        return _cmd_sweep(args, scenario)
    except ScenarioValidationError as err:  # a sweep grid sweep_grid refuses
        print(f"{args.scenario}: {err}", file=sys.stderr)
        return 2
    except CsmSimError as err:
        print(f"{args.scenario}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
