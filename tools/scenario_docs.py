"""Random scenario documents, drawn from a seed, for property tests and output diffs.

``document(seed)`` returns one document, a dict that ``json.dumps`` writes and
``csm_sim.Scenario`` reads.  The same seed gives the same document on every tree,
because it is drawn with plain NumPy (``numpy.random.default_rng(seed)``) and
every explicit matrix is written out.

A document has a dim of 2-6, 1-4 contexts and a protocol of 1-5 of them,
repeats allowed, and covers:

- every context kind: ``computational``, ``fourier``, ``rotation`` (dim 2, angles
  up to 1e300), ``haar`` (seeds up to 10**30, past int64) and ``explicit``: a
  random unitary, the same off unitary by up to 0.99 of the input floor, a Fourier
  basis with two columns mixed (a pointer whose branch moduli tie in part), or a
  near-identity turn ``near`` of an explicit context ``h``, and the sequence then
  ends ``h, near, h``;
- every overlap-matrix kind: ``uniform`` (g in [0, 1], or 0, 1, 1e-300) and
  ``explicit``: random PSD, rank-deficient, all ones, identity, signed unit
  overlaps (entries +1 and -1), and rank-deficient with its smallest eigenvalue
  moved to as far as -0.9 of the input floor, so that an overlap modulus can
  lie above 1;
- documents without a meter, and without a sweep section;
- sweep grids for ``g``, ``m_count`` (chain lengths up to 10**300) and ``phase``
  (phases up to 1e300), as far as the document can serve them.

One document in about twenty-five holds an input the program must refuse: an
explicit basis off unitary by 1.5-10 times the floor, or an overlap matrix whose
smallest eigenvalue lies below it.
"""

from __future__ import annotations

import numpy as np

INPUT_TOL = 1e-10  # csm_sim.hilbert.INPUT_TOL, kept here so that documents need no csm_sim


def _pairs(matrix: np.ndarray) -> list:
    """A complex matrix as a document writes it: rows of [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def _unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _off_unitary(rng, basis: np.ndarray, fraction: float) -> np.ndarray:
    """``basis`` perturbed so that its B†B residual is ``fraction`` of the floor (first order)."""
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    first_order = float(np.max(np.abs(basis.conj().T @ noise + noise.conj().T @ basis)))
    return basis + fraction * INPUT_TOL / first_order * noise


def _turned(rng, basis: np.ndarray, angle: float) -> np.ndarray:
    """``basis`` @ exp(-i·angle·H) for a random Hermitian H of unit largest eigenvalue."""
    a = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    values, vectors = np.linalg.eigh(a + a.conj().T)
    values /= np.max(np.abs(values))
    return basis @ (vectors * np.exp(-1j * angle * values)) @ vectors.conj().T


def _partial_fourier(rng, dim: int) -> np.ndarray:
    """A Fourier basis with two of its columns mixed by a random 2×2 unitary."""
    k = np.arange(dim)
    basis = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    cols = rng.choice(dim, 2, replace=False)
    basis[:, cols] = basis[:, cols] @ _unitary(rng, 2)
    return basis


def _context(rng, dim: int) -> dict:
    kinds = ["computational", "fourier", "haar", "explicit", "partial"]
    kind = rng.choice(kinds + ["rotation"] * (dim == 2))
    if kind == "rotation":
        theta = float(rng.choice([rng.uniform(-7, 7), 10.0 ** rng.uniform(0, 300)]))
        return {"kind": "rotation", "theta": theta}
    if kind == "haar":
        seed = int(rng.choice([int(rng.integers(2**32)), 2**63, 2**64 + 1, 10**30]))
        return {"kind": "haar", "seed": seed}
    if kind == "partial":
        return {"kind": "explicit", "matrix": _pairs(_partial_fourier(rng, dim))}
    if kind == "explicit":
        basis = _off_unitary(rng, _unitary(rng, dim), rng.choice([0.0, rng.uniform(0, 0.99)]))
        return {"kind": "explicit", "matrix": _pairs(basis)}
    return {"kind": str(kind)}


def _unit_diagonal(matrix: np.ndarray) -> np.ndarray:
    scale = 1.0 / np.sqrt(np.diagonal(matrix).real)
    return matrix * np.outer(scale, scale)


def _gram(rng, dim: int, refused: bool) -> dict:
    kind = "shifted" if refused else rng.choice(
        ["uniform", "random", "deficient", "ones", "identity", "signed", "shifted"]
    )
    if kind == "uniform":
        return {"kind": "uniform", "g": float(rng.choice([rng.uniform(), 0.0, 1.0, 1e-300]))}
    if kind == "ones":
        matrix = np.ones((dim, dim))
    elif kind == "identity":
        matrix = np.eye(dim)
    elif kind == "signed":
        signs = rng.choice([-1.0, 1.0], dim)
        matrix = np.outer(signs, signs)
    elif kind == "random":
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        matrix = _unit_diagonal(a @ a.conj().T)
    else:  # a rank below dim, and for "shifted" its smallest eigenvalue moved below 0
        rank = int(rng.integers(1, dim))
        w = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
        matrix = _unit_diagonal(w.conj().T @ w)
        if kind == "shifted":
            values, vectors = np.linalg.eigh(matrix)
            depth = rng.uniform(2, 10) if refused else rng.uniform(0, 0.9)
            shift = values[0] + depth * INPUT_TOL
            matrix = _unit_diagonal(matrix - shift * np.outer(vectors[:, 0], vectors[:, 0].conj()))
    return {"kind": "explicit", "matrix": _pairs(matrix)}


def _sweeps(rng, has_meter: bool, n_contexts: int) -> dict:
    grids = {}
    if has_meter and rng.random() < 0.8:
        ends = [0.0, 1.0][: int(rng.integers(0, 3))]
        grids["g"] = sorted({*ends, *rng.uniform(0, 1, int(rng.integers(1, 5))).tolist()})
    if has_meter and rng.random() < 0.8:
        short = [int(m) for m in rng.integers(0, 20, int(rng.integers(1, 4)))]
        long = [10 ** int(k) for k in rng.integers(1, 301, int(rng.integers(0, 3)))]
        huge = [int(rng.integers(1, 10**6)) * 10**294] * (rng.random() < 0.2)
        grids["m_count"] = short + long + huge
    if n_contexts >= 2 and rng.random() < 0.6:
        phases = rng.uniform(-7, 7, int(rng.integers(1, 4))).tolist()
        grids["phase"] = phases + [float(10.0 ** rng.uniform(0, 300))] * (rng.random() < 0.3)
    return grids


def document(seed: int) -> dict:
    """The scenario document of ``seed``, an integer >= 0; see the module docstring."""
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 2, 3, 4, 5, 6]))
    refusal = rng.random() < 0.04
    refused_part = rng.choice(["context", "gram"]) if refusal else None
    names = [f"c{k}" for k in range(int(rng.integers(1, 5)))]
    contexts = {name: _context(rng, dim) for name in names}
    if refused_part == "context":
        basis = _off_unitary(rng, _unitary(rng, dim), rng.uniform(1.5, 10))
        contexts[names[-1]] = {"kind": "explicit", "matrix": _pairs(basis)}
    length = int(rng.integers(1, 6))  # at most 6**4 paths, so that each can be enumerated
    sequence = [str(name) for name in rng.choice(names, length)]
    if rng.random() < 0.25 and length >= 3:  # h, near, h: transition weights near 0
        h = _unitary(rng, dim)
        contexts["h"] = {"kind": "explicit", "matrix": _pairs(h)}
        near = _turned(rng, h, 10.0 ** rng.uniform(-6, -3))
        contexts["near"] = {"kind": "explicit", "matrix": _pairs(near)}
        sequence[-3:] = ["h", "near", "h"]
    doc = {
        "schema_version": 1,
        "dim": dim,
        "contexts": contexts,
        "protocol": {
            "initial": {"context": sequence[0], "index": int(rng.integers(dim))},
            "sequence": sequence,
        },
    }
    has_meter = refused_part == "gram" or rng.random() < 0.75
    if has_meter:
        pointer = str(rng.choice(list(contexts)))
        doc["meter"] = {"pointer": pointer, "gram": _gram(rng, dim, refused_part == "gram")}
    grids = _sweeps(rng, has_meter, len(sequence))
    if grids:
        doc["sweep"] = grids
    return doc

