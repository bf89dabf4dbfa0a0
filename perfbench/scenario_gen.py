"""Benchmark inputs: workload scenarios and their reference values.

For a workload seed this writes, per workload, the scenario document
``<workload>.json`` and ``<workload>.ref.json``, the values a correct run
must reproduce.  The references come from a small NumPy oracle that shares
no code with ``csm_sim``: whole-table formulas straight from the scenario
definitions, so they can check any seed.

    python3 perfbench/scenario_gen.py --seed 0 --out perfbench/scenarios/seed0

The output for the default seed is checked in under ``scenarios/seed0``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
CHECKED_IN = Path(__file__).resolve().parent / "scenarios"

# The grid of the ``sweep`` command every workload runs.
CLI_SWEEP = {"param": "g", "from": 0.0, "to": 1.0, "steps": 21}

# Copy of the shipped ``scenarios/qutrit_fourier.json``, kept here so that the
# benchmark input cannot drift with the repository's example files.
QUTRIT_FOURIER = {
    "schema_version": 1,
    "dim": 3,
    "contexts": {
        "site": {"kind": "computational"},
        "wave": {"kind": "fourier"},
        "random": {"kind": "haar", "seed": 12},
    },
    "protocol": {
        "initial": {"context": "site", "index": 0},
        "sequence": ["site", "wave", "random"],
    },
    "meter": {
        "pointer": "wave",
        "gram": {
            "kind": "explicit",
            "matrix": [
                [1, [0.0, 0.4], 0.1],
                [[0.0, -0.4], 1, 0.2],
                [0.1, 0.2, 1],
            ],
        },
    },
    "sweep": {"g": [0.0, 0.5, 1.0], "m_count": [0, 2, 8]},
}


def program_seed(seed: int) -> int:
    """Non-negative seed handed to the program (``--seed`` and Haar seeds)."""
    return seed % 2**31


def _random_contexts(seed: int) -> dict:
    s = program_seed(seed)
    return {
        "site": {"kind": "computational"},
        "wave": {"kind": "fourier"},
        "r1": {"kind": "haar", "seed": 2 * s + 1},
        "r2": {"kind": "haar", "seed": 2 * s + 2},
    }


def tables_d64(seed: int) -> dict:
    """The ROADMAP's scaled dim-64 scenario: six steps, meter and three sweeps."""
    return {
        "schema_version": 1,
        "dim": 64,
        "contexts": _random_contexts(seed),
        "protocol": {
            "initial": {"context": "site", "index": 0},
            "sequence": ["site", "wave", "r1", "r2", "site", "wave"],
        },
        "meter": {"pointer": "wave", "gram": {"kind": "uniform", "g": 0.3}},
        "sweep": {
            "g": [float(v) for v in np.linspace(0.0, 1.0, 11)],
            "m_count": [0, 1, 2, 4, 8],
            "phase": [float(v) for v in np.linspace(0.0, np.pi, 11)],
        },
    }


def exhaustive_qutrit9(seed: int) -> dict:
    """Nine qutrit contexts, so exhaustive enumeration walks 3^8 paths."""
    return {
        "schema_version": 1,
        "dim": 3,
        "contexts": _random_contexts(seed),
        "protocol": {
            "initial": {"context": "site", "index": 0},
            "sequence": ["site", "wave", "r1", "r2"] * 2 + ["site"],
        },
        "meter": {"pointer": "wave", "gram": {"kind": "uniform", "g": 0.3}},
    }


SCENARIOS = {
    "mc_qutrit": lambda seed: QUTRIT_FOURIER,
    "tables_d64": tables_d64,
    "exhaustive_qutrit9": exhaustive_qutrit9,
}


# ---------------------------------------------------------------- oracle


def _complex_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(*v) if isinstance(v, list) else complex(v) for v in row] for row in rows]
    )


def _basis(spec: dict, dim: int) -> np.ndarray:
    """Columns are the outcome vectors, as the scenario format defines them."""
    kind = spec["kind"]
    if kind == "computational":
        return np.eye(dim, dtype=complex)
    if kind == "fourier":
        k = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    if kind == "rotation":
        c, s = np.cos(spec["theta"] / 2), np.sin(spec["theta"] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "haar":
        # QR of a complex Gaussian matrix with R's diagonal made real positive
        rng = np.random.default_rng(spec["seed"])
        z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))
    return _complex_matrix(spec["matrix"])


def _gram(spec: dict, dim: int) -> np.ndarray:
    if spec["kind"] == "uniform":
        gram = np.full((dim, dim), complex(spec["g"]))
        np.fill_diagonal(gram, 1.0)
        return gram
    return _complex_matrix(spec["matrix"])


def _uniform(dim: int, g: float) -> np.ndarray:
    return _gram({"kind": "uniform", "g": g}, dim)


def _entropy(p: np.ndarray) -> float:
    p = np.clip(p, 0.0, 1.0)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def _paths(start: np.ndarray, u: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """paths[k, j] = <u_k|v_j><v_j|u_i>: every return route through ``mid``."""
    return (mid.conj().T @ u).T.conj() * (mid.conj().T @ start)[None, :]


def _meter_returns(paths: np.ndarray, gram: np.ndarray) -> list[float]:
    return [float(v) for v in np.einsum("kj,jl,kl->k", paths.conj(), gram, paths).real]


def _reduced_state(branch: np.ndarray, gram: np.ndarray) -> np.ndarray:
    return np.outer(branch, branch.conj()) * gram.conj()


def _max_offdiag(m: np.ndarray) -> float:
    return float(np.max(np.abs(m[~np.eye(m.shape[0], dtype=bool)])))


def _g_rows(paths: np.ndarray, branch: np.ndarray, values) -> list[dict]:
    dim = branch.size
    return [
        {
            "g": float(g),
            "return_probabilities": _meter_returns(paths, _uniform(dim, g)),
            "entropy": _entropy(np.linalg.eigvalsh(_reduced_state(branch, _uniform(dim, g)))),
        }
        for g in values
    ]


def _floats(a) -> list[float]:
    return [float(v) for v in np.asarray(a).ravel()]


def reference(doc: dict) -> dict:
    """Values every correct ``run`` report and ``sweep`` table of ``doc`` holds.

    Every benchmark scenario has a meter section, which the g sweep needs.
    """
    dim = doc["dim"]
    bases = {name: _basis(spec, dim) for name, spec in doc["contexts"].items()}
    seq = doc["protocol"]["sequence"]
    u = bases[seq[0]]
    start = u[:, doc["protocol"]["initial"]["index"]]

    returns = []
    for step, name in enumerate(seq[1:], start=1):
        paths = _paths(start, u, bases[name])
        returns.append(
            {
                "step": step,
                "intermediate": name,
                "reversible": _floats(np.abs(paths.sum(axis=1)) ** 2),
                "irreversible": _floats((np.abs(paths) ** 2).sum(axis=1)),
            }
        )

    meter = None
    if "meter" in doc:
        pointer = bases[doc["meter"]["pointer"]]
        meter_paths = _paths(start, u, pointer)
        branch = pointer.conj().T @ start
        gram = _gram(doc["meter"]["gram"], dim)
        rho = _reduced_state(branch, gram)
        meter = {
            "pointer": doc["meter"]["pointer"],
            "return_probabilities": _meter_returns(meter_paths, gram),
            "reduced_state_diagonal": _floats(np.abs(branch) ** 2),
            "max_coherence": _max_offdiag(rho),
            "coherence_magnitudes": [_floats(row) for row in np.abs(rho)],
            "entropy": _entropy(np.linalg.eigvalsh(rho)),
        }

    sweep = None
    if "sweep" in doc:
        sweep = {}
        if "g" in doc["sweep"]:
            sweep["g"] = _g_rows(meter_paths, branch, doc["sweep"]["g"])
        if "m_count" in doc["sweep"]:
            sweep["m_count"] = [
                {
                    "m_count": m,
                    "diagonal": _floats(np.abs(branch) ** 2),
                    "max_coherence": _max_offdiag(_reduced_state(branch, gram**m)),
                }
                for m in doc["sweep"]["m_count"]
            ]
        if "phase" in doc["sweep"]:
            paths = _paths(start, u, bases[seq[1]])
            sweep["phase"] = []
            for phi in doc["sweep"]["phase"]:
                phases = np.full(dim, float(phi))
                phases[0] = 0.0
                sweep["phase"].append(
                    {
                        "phase": float(phi),
                        "return_probabilities": _floats(np.abs(paths @ np.exp(1j * phases)) ** 2),
                    }
                )

    marginal = np.zeros(dim)
    marginal[doc["protocol"]["initial"]["index"]] = 1.0
    for a, b in zip(seq[:-1], seq[1:]):
        marginal = (np.abs(bases[b].conj().T @ bases[a]) ** 2) @ marginal

    cli_grid = np.linspace(CLI_SWEEP["from"], CLI_SWEEP["to"], CLI_SWEEP["steps"])
    return {
        "scenario": doc,
        "path_count": dim ** (len(seq) - 1),
        "returns": returns,
        "meter": meter,
        "sweep": sweep,
        "final_distribution": _floats(marginal),
        "shannon_entropy_final": _entropy(marginal),
        "cli_sweep": {
            "header": ["g", "entropy"] + [f"p_return_{k}" for k in range(dim)],
            "rows": [
                [r["g"], r["entropy"], *r["return_probabilities"]]
                for r in _g_rows(meter_paths, branch, cli_grid)
            ],
        },
    }


def write_inputs(seed: int, out: Path) -> None:
    """Write every workload's scenario and reference for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, make in SCENARIOS.items():
        doc = make(seed)
        (out / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
        (out / f"{name}.ref.json").write_text(json.dumps(reference(doc), indent=1) + "\n")


def inputs_for(seed: int, scratch: Path) -> Path:
    """Directory holding the inputs for ``seed``: checked in, or written to ``scratch``."""
    if seed == DEFAULT_SEED:
        return CHECKED_IN / f"seed{DEFAULT_SEED}"
    write_inputs(seed, scratch)
    return scratch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    write_inputs(args.seed, Path(args.out))


if __name__ == "__main__":
    main()
