"""A symmetry referee: the physics' own invariances check every reported number.

A context is its set of modalities, which are rays, and changes of context form a unitary
group.  So no reported probability, entropy or coherence magnitude depends on the phase of a
basis vector, nor changes when one unitary acts on every context; and no number moves when
the outcomes of a context are relabelled, if no report is indexed by that context's outcomes.
This property runs one scenario and a transformed copy of it through
``run_scenario(..., exhaustive=True)`` and compares every number under ``results``, so it
needs no second implementation of any kernel.

The scenarios hold five explicit contexts ``a``–``e`` of one dim, built from Haar unitaries,
the protocol ``a, b, c, d, e``, a meter whose pointer is any of them, an explicit overlap
matrix, and g, m_count and phase sweeps.  The transforms are:

- ``unitary``: one Haar unitary V, every basis B replaced by V B;
- ``phases``: every column of every basis times its own phase;
- ``permutation``: the columns of ``c`` or ``d``, whichever is not the pointer, permuted.
  The initial context ``a``, the pointer and the last context ``e`` index reported numbers,
  and so does ``b``, the phase sweep's, whose reference path is outcome 0.

A float may move by rounding only, at most ``BOUND · dim · eps``.  The entropies are read
away from a rank-deficient state, where an eigenvalue a few eps off 0 adds about
eps · |log eps|: the overlap matrix is (1 − g) I + g R for a random unit-diagonal R, and
every g, the sweep's too, is at most 0.9.  The worst ratio of each transform is reported
to ``hypothesis.target``.
"""

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

import csm_sim as cs
from conftest import random_unit_gram

EPS = float(np.finfo(float).eps)
BOUND = 16  # in units of dim · eps, as in tests/test_precision.py
NAMES = ("a", "b", "c", "d", "e")


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def entries(matrix: np.ndarray) -> list:
    """A complex matrix as a document writes it, each entry an ``[re, im]`` pair."""
    return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]


def document(bases: dict, pointer: str, gram: np.ndarray, grids: dict) -> dict:
    return {
        "schema_version": 1,
        "dim": len(gram),
        "contexts": {name: {"kind": "explicit", "matrix": entries(basis)}
                     for name, basis in bases.items()},
        "protocol": {"initial": {"context": "a", "index": 0}, "sequence": list(NAMES)},
        "meter": {"pointer": pointer, "gram": {"kind": "explicit", "matrix": entries(gram)}},
        "sweep": grids,
    }


def numbers(value, path="results"):
    """Every number under ``value``, with its path; a string or None is yielded as it is."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from numbers(item, f"{path}[{k}]")
    else:
        yield path, value


@st.composite
def cases(draw):
    """A scenario document, its transformed copy, the transform's name and the dim."""
    dim = draw(st.sampled_from([2, 3, 5, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = {name: haar(rng, dim) for name in NAMES}
    pointer = draw(st.sampled_from(NAMES))
    g = draw(st.floats(0.0, 0.9))
    gram = (1 - g) * np.eye(dim) + g * random_unit_gram(dim, int(rng.integers(2**32))).matrix
    grids = {
        "g": draw(st.lists(st.floats(0.0, 0.9), min_size=1, max_size=3)),
        "m_count": draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)),
        "phase": draw(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3)),
    }
    kind = draw(st.sampled_from(["unitary", "phases", "permutation"]))
    if kind == "unitary":
        v = haar(rng, dim)
        moved = {name: v @ basis for name, basis in bases.items()}
    elif kind == "phases":
        moved = {name: basis * np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
                 for name, basis in bases.items()}
    else:
        name = draw(st.sampled_from([n for n in ("c", "d") if n != pointer]))
        moved = {**bases, name: bases[name][:, rng.permutation(dim)]}
    return (document(bases, pointer, gram, grids), document(moved, pointer, gram, grids),
            kind, dim)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_every_reported_number_is_invariant_under_the_physics_symmetries(case):
    doc, moved, kind, dim = case
    before, after = (
        list(numbers(cs.run_scenario(cs.Scenario(d), 0, 0, exhaustive=True)["results"]))
        for d in (doc, moved)
    )
    assert [path for path, _ in before] == [path for path, _ in after]
    ratio = 0.0
    for (path, x), (_, y) in zip(before, after):
        if isinstance(x, float):
            gap = abs(x - y) / (dim * EPS)
            assert gap <= BOUND, f"{kind}: {path} moved by {gap:.1f}·dim·eps: {x!r} -> {y!r}"
            ratio = max(ratio, gap)
        else:
            assert x == y, path
    target(ratio, label=kind)
