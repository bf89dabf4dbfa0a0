"""Command-line front end.

Three subcommands: ``run`` executes a scenario and emits a JSON report,
``verify`` measures every invariant residual against a tolerance, and
``sweep`` grids one parameter and emits a CSV table.  Exit codes: 0 on
success, 1 on verification or execution failure, 2 on usage, parse, read
and write errors (a sweep grid :func:`~csm_sim.scenario.sweep_grid` refuses,
such as one outside its parameter's domain, is a usage error).  The command
line checks only what the library cannot know: the memory budget of ``--steps``.
Every other rule of a flag (the seed, the sample count's bounds, the tolerance,
a grid's entries) is the library's, and its refusal is a usage error too.

:func:`entry` is the process: the ``csm-sim`` console script and ``python -m
csm_sim.cli`` both go through it, and it exits with :func:`main`'s code.
:func:`main` itself has no process-wide effect, so tests and tracers call it in
process; output that cannot be written is exit code 2 either way.
"""

from __future__ import annotations

import argparse
import math
import os
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

# The bound on ``--steps``, from the memory it costs: a sweep holds its rows, dim + 2 numbers per
# point, until its CSV is written; g and phase form them from grid × dim tables, m_count per chunk.
# Peak at the bound (x86-64 Linux), in GB: phase 1.2 at dim 64, 1.8 at dim 2; m_count 1.8 at dim 2.
MAX_SWEEP_CELLS = 10**7


def max_sweep_steps(dim: int) -> int:
    return MAX_SWEEP_CELLS // (dim + 2)


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
        "--param", required=True, choices=SWEEP_PARAMS, help="parameter to sweep: g dials "
        "(1 - g)I + gJ through the pointer, whatever gram the meter holds; m_count reads that gram",
    )
    sweep_p.add_argument("--from", dest="start", type=float, required=True, help="first value")
    sweep_p.add_argument("--to", dest="stop", type=float, required=True, help="last value")
    sweep_p.add_argument("--steps", type=int, required=True, help="number of grid points")
    sweep_p.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


def _grid_ends(argv: list[str]) -> list[str]:
    """``argv`` with each number after ``--from`` or ``--to`` joined to it (``--to=-1e-3``):
    argparse takes a negative number written with an exponent for an option."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--from", "--to"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to ``out``, or to stdout and flush it; exit code 2 if it cannot be written.

    Stdout's bytes go to its binary buffer until it has taken them all: unbuffered
    (``python -u``) that is the raw file, whose write may take only part of them, a
    count the text layer drops.  A stdout with no binary buffer (a ``StringIO``)
    takes the text.  Stdout that cannot be written is pointed at the null device, as
    the ``signal`` module's note on SIGPIPE does, so the flush at exit fails no more.
    """
    try:
        if out is None:
            sys.stdout.flush()  # text already in the text layer goes first
            stream = getattr(sys.stdout, "buffer", None)
            if stream is None:
                sys.stdout.write(text)
            else:
                data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
                while data:
                    data = data[stream.write(data):]
                stream.flush()
        else:
            Path(out).write_text(text)
    except OSError as err:
        print(f"{out or 'stdout'}: cannot write: {err.strerror or err}", file=sys.stderr)
        if out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2
    return 0


def _cmd_run(args, scenario) -> int:
    report = run_scenario(
        scenario, seed=args.seed, n_samples=args.trajectories, exhaustive=args.exhaustive
    )
    return _emit(report_to_json(report), args.out)


def _cmd_verify(args, scenario) -> int:
    report = verify_report(scenario, args.tolerance)
    lines = [
        f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}  residual={c['residual']:.3e}\n"
        for c in report["checks"]
    ]
    if _emit("".join(lines), None) or (args.out and _emit(report_to_json(report), args.out)):
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
    summary = f"all {len(lines)} checks passed at tolerance {args.tolerance:.3e}\n"
    return _emit(summary, None)


def _cmd_sweep(args, scenario) -> int:
    limit = max_sweep_steps(scenario.dim)
    if not 1 <= args.steps <= limit:
        print(f"sweep: --steps must be in [1, {limit}]", file=sys.stderr)
        return 2
    start, stop = args.start, args.stop
    with np.errstate(invalid="ignore", over="ignore"):
        if math.isfinite(start) and math.isfinite(stop) and not math.isfinite(stop - start):
            # linspace forms stop − start, past a double here: halving and doubling are exact
            values = (2.0 * np.linspace(0.5 * start, 0.5 * stop, args.steps)).tolist()
        else:
            values = np.linspace(start, stop, args.steps).tolist()
    if args.param == "m_count":  # a non-finite entry has no integer; sweep_grid refuses it
        values = [int(round(v)) if math.isfinite(v) else v for v in values]
    rows = sweep_rows(scenario, args.param, values)
    header, table = sweep_table(args.param, rows, scenario.dim)
    return _emit(format_csv(header, table), args.out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_grid_ends(sys.argv[1:] if argv is None else argv))
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
    except ScenarioValidationError as err:  # a flag the library refuses, a sweep grid too
        print(f"{args.scenario}: {err}", file=sys.stderr)
        return 2
    except CsmSimError as err:
        print(f"{args.scenario}: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run :func:`main` as the whole process, exiting with its code."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
