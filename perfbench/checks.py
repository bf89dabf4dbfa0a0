"""Correctness checks on what each ``csm-sim`` invocation prints.

Every check parses strictly (JSON without ``NaN`` or ``Infinity``, CSV of
finite numbers) and compares against the workload's reference values.  A
check that fails raises :class:`CheckFailed`; :func:`check` turns any
failure, including a malformed report, into a message.
"""

from __future__ import annotations

import json
import math

TABLE_TOL = 1e-9  # returns, meter, sweep tables, final distribution
SHANNON_TOL = 1e-12  # Shannon entropy of the final marginal
MC_SIGMAS = 5.0  # sampled mean within this many standard errors of the entropy,
# plus SHANNON_TOL for rounding: an ensemble whose every path produces the
# same entropy has a standard error of zero.


class CheckFailed(Exception):
    pass


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def close(actual, expected, tol: float, where: str = "") -> None:
    """Structural equality, with numbers equal to within ``tol``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            raise CheckFailed(f"{where}: keys differ")
        for key in expected:
            close(actual[key], expected[key], tol, f"{where}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise CheckFailed(f"{where}: length differs")
        for pos, (a, e) in enumerate(zip(actual, expected)):
            close(a, e, tol, f"{where}[{pos}]")
    elif isinstance(expected, float):
        if not isinstance(actual, (int, float)) or not abs(actual - expected) <= tol:
            raise CheckFailed(f"{where}: {actual!r} vs reference {expected!r}")
    elif actual != expected:
        raise CheckFailed(f"{where}: {actual!r} vs reference {expected!r}")


def check_run(text: str, ref: dict, seed: int, n_samples: int, exhaustive: bool) -> None:
    report = strict_json(text)
    if report["seed"] != seed or report["n_samples"] != n_samples:
        raise CheckFailed("report does not echo the seed and sample count")
    close(report["scenario"], ref["scenario"], 0.0, "scenario")
    results = report["results"]
    for section in ("returns", "meter", "sweep"):
        close(results[section], ref[section], TABLE_TOL, section)
    ens = results["ensemble"]
    close(ens["final_distribution"], ref["final_distribution"], TABLE_TOL, "final_distribution")
    entropy = ref["shannon_entropy_final"]
    close(ens["shannon_entropy_final"], entropy, SHANNON_TOL, "shannon_entropy_final")
    mean = ens["mean_entropy_production"]
    if exhaustive:
        if ens["mode"] != "exhaustive" or ens["sample_count"] != ref["path_count"]:
            raise CheckFailed(f"expected {ref['path_count']} enumerated paths")
        close(mean, entropy, SHANNON_TOL, "mean_entropy_production")
    else:
        if ens["mode"] != "monte_carlo" or ens["sample_count"] != n_samples:
            raise CheckFailed(f"expected {n_samples} sampled trajectories")
        if not abs(mean - entropy) <= MC_SIGMAS * ens["std_error"] + SHANNON_TOL:
            raise CheckFailed(
                f"sampled mean {mean!r} further than {MC_SIGMAS} std errors "
                f"({ens['std_error']!r}) from {entropy!r}"
            )


def check_verify(text: str) -> None:
    *lines, summary = text.rstrip("\n").split("\n")
    if not lines or not summary.startswith(f"all {len(lines)} checks passed at tolerance "):
        raise CheckFailed(f"verify summary line {summary!r}")
    for line in lines:
        status, _name, residual = line.split()
        value = float(residual.removeprefix("residual="))
        if status != "PASS" or not math.isfinite(value):
            raise CheckFailed(f"verify line {line!r}")


def check_sweep(text: str, ref: dict) -> None:
    if not text.endswith("\n"):
        raise CheckFailed("CSV does not end with a newline")
    header, *rows = text[:-1].split("\n")
    expected = ref["cli_sweep"]
    if header.split(",") != expected["header"]:
        raise CheckFailed(f"CSV header {header!r}")
    values = []
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        if not all(math.isfinite(c) for c in cells):
            raise CheckFailed(f"non-finite CSV cell in {row!r}")
        values.append(cells)
    close(values, expected["rows"], TABLE_TOL, "sweep")


def check(step, returncode: int, stdout: str, ref: dict) -> str | None:
    """None if the invocation succeeded with correct output, else why not."""
    if returncode != 0:
        return f"{step.key}: exit code {returncode}"
    try:
        if step.key == "run":
            check_run(stdout, ref, step.seed, step.n_samples, step.exhaustive)
        elif step.key == "verify":
            check_verify(stdout)
        else:
            check_sweep(stdout, ref)
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as err:
        return f"{step.key}: {type(err).__name__}: {err}"
    return None
