"""Malformed counts, seeds, tolerances, matrices and vectors end in a domain error, not a
bare numpy one.

Each entry point that reads a count, a seed, a tolerance or a caller's matrix or vector
either returns or raises :class:`CsmSimError`; anything else escaping fails the property.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
from csm_sim.errors import CsmSimError
from csm_sim.hilbert import is_integer
from csm_sim.qnd import build_gram, density_matrix_residuals

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BALANCED = cs.parse_scenario(SCENARIOS / "balanced_qubit.json")

# Counts and seeds: bools, floats (NaN and inf included), negatives, strings, small integers.
NUMBERS = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(-5, 12),
    st.text(max_size=3),
    st.sampled_from([np.float64(2.0), np.int64(3), None]),
)
ENTRIES = st.one_of(st.floats(-2, 2), st.text(max_size=2), st.booleans(), st.none())
# Matrices: strings, ragged and empty nestings, arrays of every rank up to 3, and
# precisions numpy's linalg does not read.
MATRICES = st.one_of(
    st.text(max_size=4),
    st.lists(st.lists(ENTRIES, max_size=3), max_size=3),
    st.sampled_from([[], [[]], np.zeros((0, 0)), np.zeros(2), np.eye(2), np.ones((2, 2, 2))]),
    st.sampled_from([1.0, np.nan * np.eye(2), np.array([["a", "b"], ["c", "d"]], dtype=object)]),
    st.sampled_from([np.eye(2, dtype=np.float16), np.eye(2, dtype=np.longdouble) / 2]),
)
# Vectors: lists of such entries or of any floats, complex ones, and integers past a double.
VECTORS = st.one_of(
    st.lists(ENTRIES, max_size=4),
    st.lists(st.floats(), min_size=2, max_size=2),
    st.sampled_from([[0.5 + 0j, 0.5], np.array([0.5 + 1j, 0.5]), [10**400, 0], [0.5, 0.5]]),
)


def returns_or_refuses(call):
    try:
        return call()
    except CsmSimError:
        return None


def _protocol():
    z = cs.computational_context(2)
    return cs.Protocol((z, cs.rotation_context(0.7), cs.fourier_context(2)), z.modality(0))


def _scenario_readers(seed, count, tolerance) -> None:
    """What ``run_scenario`` and ``verify_report`` read besides the scenario; a report is
    made only of an integer seed >= 0 and a finite tolerance >= 0, each echoed as read."""
    for exhaustive in (True, False):
        report = returns_or_refuses(lambda: cs.run_scenario(BALANCED, seed, count, exhaustive))
        if report is not None:
            assert is_integer(seed) and seed >= 0 and report["seed"] == seed
            assert is_integer(count) and count >= (0 if exhaustive else 1)
    report = returns_or_refuses(lambda: cs.verify_report(BALANCED, tolerance))
    if report is not None:
        assert not isinstance(tolerance, bool) and math.isfinite(tolerance) and tolerance >= 0
        assert report["tolerance"] == tolerance


def _vector_readers(vector) -> None:
    """A distribution, a composite state or a phase vector, each where a library call reads it."""
    protocol = _protocol()
    initial, tilted = protocol.initial, protocol.contexts[1]
    returns_or_refuses(lambda: cs.validate_distribution(vector))
    returns_or_refuses(lambda: cs.shannon_entropy(vector))
    returns_or_refuses(lambda: cs.entropy_production(protocol, (0, 0, 0), vector))
    returns_or_refuses(lambda: cs.reduced_system_state(vector, tilted))
    returns_or_refuses(lambda: cs.composite_return_probabilities(vector, initial.context, tilted))
    returns_or_refuses(lambda: cs.interference_returns(initial, tilted, vector))


@settings(max_examples=150, deadline=None)
@given(count=NUMBERS, seed=NUMBERS)
def test_counts_and_seeds_end_in_a_domain_error(count, seed):
    protocol = _protocol()
    returns_or_refuses(lambda: cs.sample_trajectory(protocol, seed))
    returns_or_refuses(lambda: cs.sample_trajectory(protocol, (count, seed)))
    returns_or_refuses(lambda: cs.mean_entropy_production(protocol, count, seed))
    returns_or_refuses(lambda: cs.mean_entropy_production(protocol, 10, seed))
    returns_or_refuses(lambda: cs.mean_entropy_production(protocol, count, 0))
    returns_or_refuses(lambda: cs.gram_uniform(count, 0.5))
    returns_or_refuses(lambda: build_gram(cs.GramSpec("explicit", matrix=np.eye(2)), count))
    _scenario_readers(seed, count, count)
    _vector_readers(count)
    _vector_readers([count, seed])


@settings(max_examples=150, deadline=None)
@given(matrix=MATRICES, dim=st.integers(2, 3), vector=VECTORS)
def test_matrices_end_in_a_domain_error(matrix, dim, vector):
    returns_or_refuses(lambda: cs.Context("x", matrix))
    returns_or_refuses(lambda: cs.Gram(matrix))
    returns_or_refuses(lambda: cs.build_context(cs.ContextSpec("explicit", dim, matrix=matrix)))
    gram = returns_or_refuses(lambda: build_gram(cs.GramSpec("explicit", matrix=matrix), dim))
    assert gram is None or gram.dim == dim
    initial = cs.computational_context(dim).modality(0)
    returns_or_refuses(lambda: cs.entangle(initial, cs.fourier_context(dim), matrix))
    returns_or_refuses(lambda: cs.von_neumann_entropy(matrix))
    returns_or_refuses(lambda: density_matrix_residuals(matrix))
    _scenario_readers(matrix, vector, matrix)
    _vector_readers(matrix)
    _vector_readers(vector)
