import numpy as np
import pytest

import csm_sim as cs


@pytest.fixture
def z_context():
    return cs.computational_context(2)


@pytest.fixture
def x_context():
    return cs.rotation_context(np.pi / 2)


@pytest.fixture
def balanced(z_context, x_context):
    """Initial |0> of the computational qubit context plus the tilted context."""
    return z_context.modality(0), x_context


def random_unit_gram(n: int, seed: int) -> cs.Gram:
    """Random Hermitian PSD matrix with unit diagonal (complex entries)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = a @ a.conj().T
    scale = 1.0 / np.sqrt(np.real(np.diagonal(gram)))
    gram = gram * np.outer(scale, scale)
    np.fill_diagonal(gram, 1.0)
    return cs.Gram(gram)
