"""The benchmark's workloads: which ``csm-sim`` commands each one runs.

Every workload runs ``run``, ``verify`` and ``sweep`` on its own scenario,
one invocation at a time, so every end-to-end metric exists on every
workload; the ``run`` arguments decide which layer carries the load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from scenario_gen import CLI_SWEEP, program_seed


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int  # --trajectories of the run command
    exhaustive: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_qutrit", 100_000, False),
        Workload("tables_d64", 1_000, False),
        Workload("exhaustive_qutrit9", 0, True),
    )
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation; ``argv`` omits the program name."""

    key: str  # "run", "verify" or "sweep"
    argv: tuple[str, ...]
    seed: int = 0
    n_samples: int = 0
    exhaustive: bool = False


def steps(workload: Workload, inputs: Path, seed: int) -> list[Step]:
    scenario = str(inputs / f"{workload.name}.json")
    s = program_seed(seed)
    run = ["run", scenario, "--seed", str(s), "--trajectories", str(workload.n_samples)]
    if workload.exhaustive:
        run.append("--exhaustive")
    sweep = ["sweep", scenario, "--param", CLI_SWEEP["param"]]
    sweep += ["--from", str(CLI_SWEEP["from"]), "--to", str(CLI_SWEEP["to"])]
    sweep += ["--steps", str(CLI_SWEEP["steps"])]
    return [
        Step("run", tuple(run), s, workload.n_samples, workload.exhaustive),
        Step("verify", ("verify", scenario)),
        Step("sweep", tuple(sweep)),
    ]


def ensemble_size(workload: Workload, ref: dict) -> int:
    """Trajectories sampled, or paths enumerated, by one ``run``."""
    return ref["path_count"] if workload.exhaustive else workload.n_samples
