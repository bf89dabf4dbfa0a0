"""The whole CLI against the independent NumPy oracle of the benchmark.

``perfbench/scenario_gen.reference(doc)`` recomputes every ``run`` section and the
g-sweep CSV of a scenario from whole-table formulas and shares no code with
``csm_sim``.  Here random valid scenario documents go through ``run --exhaustive``,
``run --seed S`` and ``sweep --param g`` in process, and every number is compared with
the oracle's by ``perfbench/checks.close`` at ``ORACLE_TOL``.  A mismatch is a fault of
the program.  The largest gap of each document is reported to Hypothesis with
``target``, which both records it (``--hypothesis-show-statistics``) and steers the
search toward larger gaps.
"""

import importlib.util
import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

from csm_sim.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ORACLE_TOL = 1e-12
N_SAMPLES = 500  # per Monte Carlo run; its sampled mean is not compared, only the tables
CONTEXT_NAMES = ("a", "b", "c", "d")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"oracle_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
scenario_gen = _load("scenario_gen")


def _pairs(matrix: np.ndarray) -> list:
    """A complex matrix as a scenario file writes it: rows of ``[re, im]`` pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _haar(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _unit_gram(rng, dim: int, rank: int) -> np.ndarray:
    """Overlaps of ``dim`` random unit vectors in C^rank: PSD, Hermitian, unit diagonal."""
    w = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    w /= np.linalg.norm(w, axis=0)
    gram = w.conj().T @ w
    gram = 0.5 * (gram + gram.conj().T)
    np.fill_diagonal(gram, 1.0)
    return gram


@st.composite
def documents(draw) -> dict:
    """A valid scenario with a meter and every sweep grid it can serve."""
    dim = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["computational", "fourier", "haar", "explicit"] + ["rotation"] * (dim == 2)
    contexts = {}
    for name in CONTEXT_NAMES[: draw(st.integers(1, len(CONTEXT_NAMES)))]:
        kind = draw(st.sampled_from(kinds))
        contexts[name] = {"kind": kind}
        if kind == "rotation":
            contexts[name]["theta"] = draw(st.floats(-2 * math.pi, 2 * math.pi))
        elif kind == "haar":
            contexts[name]["seed"] = draw(st.integers(0, 2**31 - 1))
        elif kind == "explicit":
            contexts[name]["matrix"] = _pairs(_haar(rng, dim))
    names = sorted(contexts)
    sequence = draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
    if draw(st.booleans()):
        gram = {"kind": "uniform", "g": draw(st.floats(0.0, 1.0))}
    else:
        rank = draw(st.integers(1, dim))
        gram = {"kind": "explicit", "matrix": _pairs(_unit_gram(rng, dim, rank))}
    sweep = {
        "g": draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)),
        "m_count": draw(st.lists(st.integers(0, 8), min_size=1, max_size=4)),
    }
    if len(sequence) >= 2:
        phases = st.floats(-2 * math.pi, 2 * math.pi)
        sweep["phase"] = draw(st.lists(phases, min_size=1, max_size=4))
    return {
        "schema_version": 1,
        "dim": dim,
        "contexts": contexts,
        "protocol": {
            "initial": {"context": sequence[0], "index": draw(st.integers(0, dim - 1))},
            "sequence": sequence,
        },
        "meter": {"pointer": draw(st.sampled_from(names)), "gram": gram},
        "sweep": sweep,
    }


def _cli(path: Path, *args: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([args[0], str(path), *args[1:]])
    assert code == 0, args
    return out.getvalue()


def _gap(actual, expected) -> float:
    """Largest numeric gap between two structures ``checks.close`` has matched."""
    if isinstance(expected, dict):
        return max((_gap(actual[key], value) for key, value in expected.items()), default=0.0)
    if isinstance(expected, list):
        return max((_gap(a, e) for a, e in zip(actual, expected)), default=0.0)
    return abs(actual - expected) if isinstance(expected, float) else 0.0


def _compared(seed: int, text: str, ref: dict, exhaustive: bool) -> list[tuple]:
    """(where, reported, oracle) of every value a ``run`` report shares with the oracle."""
    report = checks.strict_json(text)
    results, ensemble = report["results"], report["results"]["ensemble"]
    assert (report["seed"], report["n_samples"]) == (seed, 0 if exhaustive else N_SAMPLES)
    assert ensemble["mode"] == ("exhaustive" if exhaustive else "monte_carlo")
    assert ensemble["sample_count"] == (ref["path_count"] if exhaustive else N_SAMPLES)
    compared = [(key, results[key], ref[key]) for key in ("returns", "meter", "sweep")]
    compared += [
        ("final_distribution", ensemble["final_distribution"], ref["final_distribution"]),
        ("shannon_entropy_final", ensemble["shannon_entropy_final"], ref["shannon_entropy_final"]),
    ]
    if exhaustive:  # the exact mean is the final marginal's Shannon entropy
        compared.append(("mean", ensemble["mean_entropy_production"], ref["shannon_entropy_final"]))
    return compared


@settings(max_examples=60, deadline=None)
@given(doc=documents(), seed=st.integers(0, 2**31 - 1))
def test_the_cli_reproduces_the_independent_oracle(doc, seed):
    ref = scenario_gen.reference(doc)
    grid = scenario_gen.CLI_SWEEP
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        exhaustive = _cli(path, "run", "--exhaustive")
        sampled = _cli(path, "run", "--seed", str(seed), "--trajectories", str(N_SAMPLES))
        table = _cli(
            path, "sweep", "--param", grid["param"], "--from", str(grid["from"]),
            "--to", str(grid["to"]), "--steps", str(grid["steps"]),
        )
    header, *rows = table.rstrip("\n").split("\n")
    assert header.split(",") == ref["cli_sweep"]["header"]
    compared = _compared(0, exhaustive, ref, True) + _compared(seed, sampled, ref, False)
    compared.append(("cli_sweep", [[float(c) for c in row.split(",")] for row in rows],
                     ref["cli_sweep"]["rows"]))
    checks.close(checks.strict_json(exhaustive)["scenario"], doc, 0.0, "scenario")
    for where, reported, oracle in compared:
        checks.close(reported, oracle, ORACLE_TOL, where)
    target(max(_gap(reported, oracle) for _, reported, oracle in compared),
           label="largest gap to the oracle")
