import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import csm_sim as cs
from csm_sim.errors import DimensionMismatch, InvalidGramMatrix, ScenarioValidationError
from csm_sim.hilbert import INPUT_TOL
from csm_sim.qnd import build_gram
from conftest import assert_chain_table_refereed, near_unitary, partial_trace_meter
from conftest import path_amplitudes, random_unit_gram

EPS = float(np.finfo(float).eps)


def test_gram_uniform_limits():
    np.testing.assert_array_equal(cs.gram_uniform(3, 0.0).matrix, np.eye(3))
    np.testing.assert_array_equal(cs.gram_uniform(3, 1.0).matrix, np.ones((3, 3)))


def test_gram_uniform_eigenvalues():
    # 3x3 with off-diagonal 1/2: spectrum {2, 1/2, 1/2}
    eigs = np.linalg.eigvalsh(cs.gram_uniform(3, 0.5).matrix)
    np.testing.assert_allclose(eigs, [0.5, 0.5, 2.0], atol=1e-12)


def test_gram_uniform_range_check():
    # refused by the recipe, with the reasons a scenario file's gram gets
    with pytest.raises(ScenarioValidationError, match=r"^g: strength -0.1 outside \[0, 1\]$"):
        cs.gram_uniform(2, -0.1)
    with pytest.raises(ScenarioValidationError, match=r"^g: strength 1.1 outside \[0, 1\]$"):
        cs.gram_uniform(2, np.float64(1.1))
    with pytest.raises(ScenarioValidationError, match=r"^g: expected a number, got nan$"):
        cs.gram_uniform(2, float("nan"))


@pytest.mark.parametrize(
    "n, reason",
    [
        (-1, "must be >= 0, got -1"),
        (1.5, "expected an integer, got 1.5"),
        (True, "expected an integer, got True"),
    ],
)
def test_gram_uniform_refuses_a_meter_count_that_is_no_count(n, reason):
    # -1 and 1.5 once ended in numpy's bare ValueError and TypeError; 0 is the empty matrix
    with pytest.raises(ScenarioValidationError) as caught:
        cs.gram_uniform(n, 0.5)
    assert (caught.value.field, caught.value.reason) == ("n", reason)
    assert cs.gram_uniform(np.int64(2), 0.5).dim == 2


@pytest.mark.parametrize("matrix", ["ab", [[1, 2], [3]], [["1", "x"], ["0", "1"]], {"a": 1}])
def test_a_matrix_numpy_cannot_read_is_refused_by_each_constructor(matrix):
    # each once ended in numpy's bare "complex() arg is a malformed string" or ragged ValueError
    with pytest.raises(InvalidGramMatrix, match="^cannot read .* as a complex array$") as refused:
        cs.Gram(matrix)
    assert refused.value.residual == np.inf
    with pytest.raises(ScenarioValidationError, match="^matrix: cannot read .* complex array$"):
        cs.GramSpec("explicit", matrix=matrix)


def test_gram_specs_are_values():
    eye = cs.GramSpec("explicit", matrix=np.eye(2))
    assert eye == cs.GramSpec("explicit", matrix=[[1, 0], [0, 1]])
    assert hash(eye) == hash(cs.GramSpec("explicit", matrix=[[1, 0], [0, 1]]))
    assert eye != cs.GramSpec("explicit", matrix=np.eye(2).reshape(1, 4))  # same bytes, not shape
    assert eye != cs.GramSpec("explicit", matrix=np.ones((2, 2)))
    assert cs.GramSpec("uniform", g=0.5) == cs.GramSpec("uniform", g=np.float64(0.5))
    assert len({cs.GramSpec("uniform", g=0.5), cs.GramSpec("uniform", g=0.25), eye}) == 3
    assert eye != cs.GramSpec("uniform", g=0.5) and eye != "explicit"
    source = np.eye(2)
    spec = cs.GramSpec("explicit", matrix=source)
    source[0, 1] = 0.5  # the spec holds its own read-only copy
    assert spec == eye and not spec.matrix.flags.writeable


def test_validate_gram_rejects_bad_matrices():
    with pytest.raises(InvalidGramMatrix):
        cs.Gram(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not Hermitian
    with pytest.raises(InvalidGramMatrix):
        cs.Gram(np.array([[2.0, 0.0], [0.0, 1.0]]))  # diagonal not 1
    with pytest.raises(InvalidGramMatrix, match="smallest eigenvalue") as refused:
        cs.Gram(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    assert refused.value.residual == pytest.approx(1.0)
    with pytest.raises(InvalidGramMatrix):
        cs.Gram(np.ones(3))  # not square


@pytest.mark.parametrize(
    "make", [lambda: cs.Gram(np.zeros((0, 0))), lambda: cs.gram_uniform(0, 0.5)]
)
def test_an_empty_overlap_matrix_is_refused(make):
    # both once ended in numpy's bare "zero-size array" ValueError
    shape = r"^need a non-empty square matrix, got shape \(0, 0\)$"
    with pytest.raises(InvalidGramMatrix, match=shape) as refused:
        make()
    assert refused.value.residual == np.inf


@pytest.mark.parametrize(
    "fields, field, reason",
    [
        (("uniform",), "g", "missing required key"),
        (("explicit",), "matrix", "missing required key"),
        (("uniform", 0.5, np.eye(2)), "matrix", "unknown key"),
        (("spiral", 0.5), "kind", "unknown gram kind 'spiral'"),
        (("uniform", True), "g", "expected a number, got True"),
        (("uniform", "0.5"), "g", "expected a number, got '0.5'"),
        (("uniform", float("inf")), "g", "expected a number, got inf"),
        (("uniform", -0.25), "g", "strength -0.25 outside [0, 1]"),
    ],
)
def test_gram_spec_refuses_a_broken_rule_when_made(fields, field, reason):
    with pytest.raises(ScenarioValidationError) as caught:
        cs.GramSpec(*fields)
    assert (caught.value.field, caught.value.reason) == (field, reason)


def test_build_gram_makes_what_the_spec_describes():
    spec = cs.GramSpec("uniform", g=np.float64(0.25))
    assert type(spec.g) is float
    np.testing.assert_array_equal(build_gram(spec, 3).matrix, cs.gram_uniform(3, 0.25).matrix)
    matrix = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    explicit = build_gram(cs.GramSpec("explicit", matrix=matrix), 2)
    np.testing.assert_array_equal(explicit.matrix, matrix)
    # an explicit matrix must have the n rows and entries it is built for
    for n in (3, 1):
        with pytest.raises(ScenarioValidationError) as caught:
            build_gram(cs.GramSpec("explicit", matrix=matrix), n)
        assert (caught.value.field, caught.value.reason) == ("matrix", f"expected {n} rows")
    with pytest.raises(ScenarioValidationError) as caught:
        build_gram(cs.GramSpec("explicit", matrix=np.ones((2, 3))), 2)
    assert (caught.value.field, caught.value.reason) == ("matrix[0]", "expected 2 entries")


def test_gram_is_read_only():
    source = np.eye(2, dtype=complex)
    gram = cs.Gram(source)
    source[0, 1] = 0.5  # the Gram holds its own copy
    assert gram.matrix[0, 1] == 0.0
    for array in (gram.matrix, gram.eigvals):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_gram_holds_the_hermitian_part_with_unit_diagonal():
    exact = random_unit_gram(4, 3).matrix
    assert np.array_equal(cs.Gram(exact).matrix, exact)  # same bits for an exact input
    given = exact.copy()
    given[0, 1] += 0.9e-10j
    given[2, 2] += 0.9e-10
    gram = cs.Gram(given).matrix
    assert np.array_equal(gram, gram.conj().T)
    assert np.array_equal(gram.diagonal(), np.ones(4))
    assert gram[0, 1] == 0.5 * (given[0, 1] + given[1, 0].conjugate())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 6),
    defect=st.sampled_from(["nan", "hermitian", "diagonal", "psd"]),
)
def test_gram_rejects_invalid_matrices(seed, dim, defect):
    rng = np.random.default_rng(seed)
    matrix = random_unit_gram(dim, seed).matrix.copy()
    j, k = rng.choice(dim, size=2, replace=False)
    if defect == "nan":
        matrix[j, k] = np.nan
    elif defect == "hermitian":
        matrix[j, k] += 1e-6j
    elif defect == "diagonal":
        matrix[j, j] = 1.0 + 1e-6
    else:
        # uniform overlap g > 1 has eigenvalue 1 - g < 0; phases keep the spectrum
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        matrix = np.full((dim, dim), complex(rng.uniform(1.01, 2.0)))
        np.fill_diagonal(matrix, 1.0)
        matrix = phases[:, None] * matrix * phases.conj()[None, :]
    with pytest.raises(InvalidGramMatrix) as refused:
        cs.Gram(matrix)
    assert ("smallest eigenvalue" in str(refused.value)) == (defect == "psd")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix, reason, residual", [
    # the Hermitian part, once taken as 0.5 * (G + G†), overflowed to NaN eigenvalues
    ([[1, 1e308], [1e308, 1]], "smallest eigenvalue -1.000e+308 below -1e-10", 1e308),
    # G − G† overflows, and saturates at the largest double
    ([[1, 1e308], [-1e308, 1]], "overlap matrix is not Hermitian: residual 1.798e+308", None),
    ([[1e308 + 1e308j, 0], [0, 1]], "overlap matrix is not Hermitian: residual 1.798e+308", None),
])
def test_a_gram_near_a_double_s_limit_is_refused_with_a_finite_residual(matrix, reason, residual):
    with pytest.raises(InvalidGramMatrix) as refused:
        cs.Gram(np.array(matrix))
    assert str(refused.value).startswith(reason)
    assert refused.value.residual == (residual or np.finfo(float).max)


def test_meter_states_identity_gram_is_standard_basis():
    states = cs.meter_states_from_gram(cs.Gram(np.eye(3)))
    assert states.shape == (3, 3)
    np.testing.assert_array_equal(states, np.eye(3))


def test_meter_states_all_ones_gram_is_rank_one():
    states = cs.meter_states_from_gram(cs.Gram(np.ones((3, 3))))
    assert states.shape == (1, 3)
    np.testing.assert_allclose(states, np.ones((1, 3)), atol=1e-12)


def test_meter_states_reproduce_overlaps():
    gram = cs.gram_uniform(2, 0.5)
    states = cs.meter_states_from_gram(gram)
    np.testing.assert_allclose(states.conj().T @ states, gram.matrix, atol=1e-8)
    np.testing.assert_allclose(np.linalg.norm(states, axis=0), [1.0, 1.0], atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), real=st.booleans())
@example(seed=4, dim=2, real=True)  # gram_uniform(2, 0.5): eigenvector moduli tie
def test_each_meter_state_row_is_phased_at_its_largest_entry(seed, dim, real):
    # row a is √λ_a·conj(v_a / phase), phased so that the first largest-modulus entry of the
    # eigenvector v_a is real and positive.  Scaling by √λ_a can tie entries one rounding step
    # apart, so the pivot is one of the row's largest moduli within 4 eps; it is real bit for
    # bit when the overlaps are real, and within the rounding of v / (v / |v|) when complex
    grams = [random_unit_gram(dim, seed), cs.gram_uniform(dim, (seed % 9) / 8)]
    if real:
        a = np.random.default_rng(seed).standard_normal((dim, dim))
        scale = 1.0 / np.sqrt(np.sum(a * a, axis=1))
        grams[0] = cs.Gram(np.clip((a @ a.T) * np.outer(scale, scale), -1, 1))
    for gram in grams:
        slack = EPS if gram.matrix.imag.any() else 0.0
        for row in cs.meter_states_from_gram(gram):
            moduli = np.abs(row)
            largest = np.flatnonzero(moduli >= np.max(moduli) * (1 - 4 * EPS))
            assert any(row[k].real > 0 and abs(row[k].imag) <= slack * moduli[k] for k in largest)


def test_meter_states_of_tied_moduli_take_the_first_as_pivot():
    states = cs.meter_states_from_gram(cs.gram_uniform(2, 0.5))
    half = np.sqrt(0.5)
    np.testing.assert_allclose(states, [[np.sqrt(1.5) * half] * 2, [half * half, -half * half]])
    assert states[1, 0] > 0 > states[1, 1]


def test_meter_states_complex_gram_and_determinism():
    gram = random_unit_gram(4, seed=5)
    a = cs.meter_states_from_gram(gram)
    b = cs.meter_states_from_gram(gram)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a.conj().T @ a, gram.matrix, rtol=0, atol=INPUT_TOL)


def test_entangle_same_context_is_product_state():
    ctx = cs.computational_context(2)
    meters = cs.meter_states_from_gram(cs.Gram(np.eye(2)))
    state = cs.entangle(ctx.modality(0), ctx, meters)
    # single branch: |v_0>|w_0>
    np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-12)


def test_entangle_balanced_branches(balanced):
    initial, tilted = balanced
    meters = cs.meter_states_from_gram(cs.Gram(np.eye(2)))
    state = cs.entangle(initial, tilted, meters)
    branch = tilted.basis.conj().T @ initial.vector
    # amplitude layout j*M + l, meter tags on the diagonal slots
    expected = np.zeros(4, dtype=complex)
    expected[0] = branch[0]
    expected[3] = branch[1]
    np.testing.assert_allclose(state, expected, atol=1e-12)
    np.testing.assert_allclose(np.abs(branch), [2**-0.5, 2**-0.5], atol=1e-12)


def test_entangle_norm_for_random_inputs():
    for seed in range(5):
        initial = cs.haar_context(3, seed).modality(seed % 3)
        pointer = cs.haar_context(3, seed + 50)
        meters = cs.meter_states_from_gram(random_unit_gram(3, seed))
        state = cs.entangle(initial, pointer, meters)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


def _served(state, initial, pointer) -> None:
    """Every reader serves ``state``, and its traced state has trace 1 within 1e-14."""
    cs.composite_return_probabilities(state, initial.context, pointer)
    rho = cs.reduced_system_state(state, pointer)
    cs.von_neumann_entropy(rho)
    assert abs(np.trace(rho).real - 1.0) <= 1e-14


def test_entangle_takes_every_meter_set_the_meter_check_admits(balanced):
    # the meter check is the composite state's: its norm within INPUT_TOL of 1, only that
    initial, tilted = balanced
    z = cs.computational_context(2)
    for stretch in (1 + 0.9 * INPUT_TOL, 1 - 0.9 * INPUT_TOL):
        state = cs.entangle(initial, tilted, np.eye(2) * stretch)
        assert np.linalg.norm(state) == pytest.approx(stretch, rel=0, abs=1e-15)
        _served(state, initial, tilted)
    # a meter on a branch of amplitude 0 adds nothing to the norm
    _served(cs.entangle(z.modality(0), z, np.diag([1.0, 5.0])), z.modality(0), z)
    for stretch in (1 + 2 * INPUT_TOL, 1 + 9e-9):
        with pytest.raises(ScenarioValidationError) as caught:
            cs.entangle(z.modality(0), z, np.eye(2) * stretch)
        assert caught.value.field == "state"
    for meters in ("ab", np.zeros(2), np.zeros((0, 2))):
        with pytest.raises(ScenarioValidationError) as caught:
            cs.entangle(initial, tilted, meters)
        assert caught.value.field == "meters"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 2),
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),
    stretch=st.floats(-2.0, 2.0),
    fraction=st.floats(0.0, 0.99),
)
def test_every_state_entangle_returns_is_admitted(seed, dim, rank, stretch, fraction):
    # at the bounds: meters stretched up to 2 INPUT_TOL, bases orthonormal up to INPUT_TOL;
    # entangle refuses a state as the readers would, and every state it returns they serve
    rng = np.random.default_rng(seed)
    start = cs.Context("a", near_unitary(seed, dim, fraction))
    pointer = cs.Context("b", near_unitary(seed + 1, dim, fraction))
    initial = start.modality(int(rng.integers(dim)))
    meters = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    meters *= (1 + stretch * INPUT_TOL) / np.linalg.norm(meters, axis=0)
    try:
        state = cs.entangle(initial, pointer, meters)
    except ScenarioValidationError as refused:
        assert refused.field == "state"
        norm = np.linalg.norm((pointer.adjoint @ initial.vector)[:, None] * meters.T)
        assert abs(norm - 1.0) > INPUT_TOL * (1 - 1e-6)
        return
    _served(state, initial, pointer)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    m_dim=st.integers(1, 6),
    offset=st.floats(-0.999, 0.999),
)
def test_every_state_near_unit_norm_is_served(seed, dim, m_dim, offset):
    # a state of norm within INPUT_TOL of 1 is read as its unit ray; a second floor of
    # 1e-8 once let such a state past the readers and into the probability clamp
    rng = np.random.default_rng(seed)
    initial = cs.haar_context(dim, seed % 1000).modality(int(rng.integers(dim)))
    pointer = cs.haar_context(dim, seed % 1000 + 1)
    size = dim * m_dim
    # half the time on one entry, where a return probability reaches the norm squared
    if rng.integers(2):
        state = np.eye(size, dtype=complex)[int(rng.integers(size))]
    else:
        state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    state *= (1 + offset * INPUT_TOL) / np.linalg.norm(state)
    _served(state, initial, pointer)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 6),
    rank=st.integers(1, 5),
    edges=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
)
def test_meters_of_a_gram_at_its_psd_edge_are_served(seed, dim, rank, edges):
    # eigenvalues placed within INPUT_TOL of 0, on both sides: the rank cut drops them, the
    # realized meters reproduce the overlaps within INPUT_TOL, and the composite state they
    # make is admitted by entangle and by both readers
    rng = np.random.default_rng(seed)
    rank = min(rank, dim - 1)
    edge = np.resize(edges, dim - rank) * INPUT_TOL
    eigvals = np.concatenate([rng.uniform(0.5, 2.0, rank), edge])
    basis = cs.haar_context(dim, seed % 1000).basis
    matrix = (basis * eigvals) @ basis.conj().T
    scale = 1.0 / np.sqrt(np.diagonal(matrix).real)
    matrix = matrix * np.outer(scale, scale)
    try:
        gram = cs.Gram(matrix)
    except InvalidGramMatrix as err:  # the unit-diagonal scaling pushed an edge past -INPUT_TOL
        assert "smallest eigenvalue" in str(err)
        return
    meters = cs.meter_states_from_gram(gram)
    assert np.max(np.abs(meters.conj().T @ meters - gram.matrix)) <= INPUT_TOL
    initial = cs.haar_context(dim, seed % 1000 + 1).modality(int(rng.integers(dim)))
    pointer = cs.haar_context(dim, seed % 1000 + 2)
    _served(cs.entangle(initial, pointer, meters), initial, pointer)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "state", [[2, 0], [1e200, 0], [1 + 1e-9, 0]], ids=["norm_2", "norm_overflows", "norm_1e-9_off"]
)
def test_a_composite_state_off_unit_norm_is_refused(balanced, state):
    # [2, 0] once gave a reduced state of trace 4, and the composite route an
    # InternalConsistencyError; [1e200, 0] an inf matrix, with numpy's overflow warnings;
    # [1 + 1e-9, 0], inside a second floor of 1e-8, an InternalConsistencyError in the clamp
    initial, tilted = balanced
    for read in (
        lambda: cs.reduced_system_state(state, tilted),
        lambda: cs.composite_return_probabilities(state, initial.context, tilted),
    ):
        with pytest.raises(ScenarioValidationError) as caught:
            read()
        assert caught.value.field == "state"
        assert caught.value.reason.endswith("is off 1 by more than 1e-10")


def test_entangle_dim_mismatch(balanced):
    initial, _ = balanced
    meters = cs.meter_states_from_gram(cs.Gram(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        cs.entangle(initial, cs.haar_context(3, 1), meters)


def test_meter_return_identity_gram_matches_irreversible(balanced):
    initial, tilted = balanced
    probs = cs.meter_return_probabilities(initial, tilted, cs.Gram(np.eye(2)))
    for k in range(2):
        assert probs[k] == pytest.approx(cs.irreversible_return(initial, tilted, k), abs=1e-12)


def test_meter_return_all_ones_gram_is_delta(balanced):
    initial, tilted = balanced
    probs = cs.meter_return_probabilities(initial, tilted, cs.Gram(np.ones((2, 2))))
    np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)


def test_meter_return_balanced_interpolation(balanced):
    initial, tilted = balanced
    for g in (0.0, 0.25, 0.5, 1.0):
        gram = cs.gram_uniform(2, g)
        # independent oracle: explicit double sum over intermediate branches
        amps = tilted.basis.conj().T @ initial.vector
        back = initial.context.basis[:, 0].conj() @ tilted.basis
        paths = back * amps
        expected = sum(
            (paths[j].conjugate() * gram.matrix[j, jp] * paths[jp]).real
            for j in range(2)
            for jp in range(2)
        )
        got = cs.meter_return_probabilities(initial, tilted, gram)[0]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx((1 + g) / 2, abs=1e-12)


def test_meter_return_normalization_random_gram():
    initial = cs.haar_context(4, 3).modality(1)
    pointer = cs.haar_context(4, 7)
    gram = random_unit_gram(4, seed=11)
    total = cs.meter_return_probabilities(initial, pointer, gram).sum()
    assert total == pytest.approx(1.0, abs=1e-10)


def test_meter_return_monotone_in_g(balanced):
    initial, tilted = balanced
    values = [
        cs.meter_return_probabilities(initial, tilted, cs.gram_uniform(2, g))[0]
        for g in np.linspace(0, 1, 11)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_two_form_agreement_random_cases(balanced):
    initial, tilted = balanced
    gram = random_unit_gram(2, seed=3)
    meters = cs.meter_states_from_gram(gram)
    state = cs.entangle(initial, tilted, meters)
    probs = cs.meter_return_probabilities(initial, tilted, gram)
    composite = cs.composite_return_probabilities(state, initial.context, tilted)
    for k in range(2):
        assert probs[k] == pytest.approx(composite[k], abs=1e-12)


def _rank_deficient_gram(dim: int, rank: int, seed: int) -> cs.Gram:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
    w /= np.linalg.norm(w, axis=0)
    gram = w.conj().T @ w
    np.fill_diagonal(gram, 1.0)
    return cs.Gram(gram)


def _gram_of_kind(kind: str, dim: int, seed: int, rng) -> cs.Gram:
    if kind == "complex":
        return random_unit_gram(dim, seed)
    if kind == "rank_deficient":
        return _rank_deficient_gram(dim, int(rng.integers(1, dim)), seed)
    if kind == "identity":
        return cs.Gram(np.eye(dim))
    return cs.Gram(np.ones((dim, dim)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 6),
    kind=st.sampled_from(["complex", "rank_deficient", "all_ones"]),
)
def test_meter_return_table_matches_referees(seed, dim, kind):
    # Referees for the table: the explicit composite-state expectation, and the
    # per-k quadratic form over one outcome's path amplitudes at a time.
    rng = np.random.default_rng(seed)
    a = cs.haar_context(dim, int(rng.integers(10**6)))
    pointer = cs.haar_context(dim, int(rng.integers(10**6)))
    initial = a.modality(int(rng.integers(dim)))
    gram = _gram_of_kind(kind, dim, seed, rng)
    table = cs.meter_return_probabilities(initial, pointer, gram)
    state = cs.entangle(initial, pointer, cs.meter_states_from_gram(gram))
    composite = cs.composite_return_probabilities(state, a, pointer)
    assert table.shape == (dim,)
    for k in range(dim):
        paths = path_amplitudes(initial, pointer, k)
        oracle = sum(
            (paths[j].conjugate() * gram.matrix[j, jp] * paths[jp]).real
            for j in range(dim)
            for jp in range(dim)
        )
        assert table[k] == pytest.approx(oracle, abs=1e-12)
        assert table[k] == pytest.approx(composite[k], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(2, 8),
    kind=st.sampled_from(["complex", "rank_deficient", "identity", "all_ones"]),
)
def test_closed_form_meter_quantities_match_composite_route(seed, dim, kind):
    # The composite state, built from realized meter states, referees every
    # closed-form quantity that run and sweep report.
    rng = np.random.default_rng(seed)
    start = cs.haar_context(dim, int(rng.integers(10**6)))
    pointer = cs.haar_context(dim, int(rng.integers(10**6)))
    initial = start.modality(int(rng.integers(dim)))
    gram = _gram_of_kind(kind, dim, seed, rng)
    state = cs.entangle(initial, pointer, cs.meter_states_from_gram(gram))
    composite_rho = cs.reduced_system_state(state, pointer)
    rho = cs.meter_chain_reduced_state(initial, pointer, gram, 1)
    assert np.max(np.abs(rho - composite_rho)) <= 1e-12
    assert abs(cs.von_neumann_entropy(rho) - cs.von_neumann_entropy(composite_rho)) <= 1e-12
    returns = cs.composite_return_probabilities(state, start, pointer)
    assert returns.shape == (dim,)
    assert np.max(np.abs(returns - cs.meter_return_probabilities(initial, pointer, gram))) <= 1e-12


# A completed (projective) measurement is one link of orthogonal meter states.


def test_post_measurement_state_single_branch():
    ctx = cs.computational_context(2)
    rho = cs.meter_chain_reduced_state(ctx.modality(0), ctx, cs.Gram(np.eye(2)), 1)
    np.testing.assert_allclose(rho, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_post_measurement_state_balanced_blocks(balanced):
    initial, tilted = balanced
    orthogonal = cs.Gram(np.eye(2))
    rho = cs.meter_chain_reduced_state(initial, tilted, orthogonal, 1)
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    # dephasing the pure composite state across branches, then tracing out the
    # meter, gives the same matrix
    state = cs.entangle(initial, tilted, cs.meter_states_from_gram(orthogonal))
    pure = np.outer(state, state.conj())
    dephased = np.zeros_like(pure)
    for j in range(2):
        sl = slice(j * 2, (j + 1) * 2)
        dephased[sl, sl] = pure[sl, sl]
    np.testing.assert_allclose(rho, partial_trace_meter(dephased, 2, 2), atol=1e-12)
    np.testing.assert_allclose(np.diagonal(rho).real, [0.5, 0.5], atol=1e-12)


def test_reduced_state_all_ones_gram_keeps_coherence(balanced):
    initial, tilted = balanced
    state = cs.entangle(initial, tilted, cs.meter_states_from_gram(cs.Gram(np.ones((2, 2)))))
    rho = cs.reduced_system_state(state, tilted)
    branch = tilted.basis.conj().T @ initial.vector
    np.testing.assert_allclose(rho, np.outer(branch, branch.conj()), atol=1e-12)
    # pure: rho^2 = rho
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)


def test_reduced_state_identity_gram_dephases(balanced):
    initial, tilted = balanced
    state = cs.entangle(initial, tilted, cs.meter_states_from_gram(cs.Gram(np.eye(2))))
    rho = cs.reduced_system_state(state, tilted)
    branch = tilted.basis.conj().T @ initial.vector
    np.testing.assert_allclose(rho, np.diag(np.abs(branch) ** 2), atol=1e-12)


def test_reduced_state_off_diagonal_scales_with_g(balanced):
    initial, tilted = balanced
    for g in (0.0, 0.3, 0.7, 1.0):
        gram = cs.gram_uniform(2, g)
        state = cs.entangle(initial, tilted, cs.meter_states_from_gram(gram))
        rho = cs.reduced_system_state(state, tilted)
        assert abs(rho[0, 1]) == pytest.approx(g / 2, abs=1e-12)
        # element formula: rho_{jj'} = c_j conj(c_j') <w_j'|w_j>
        branch = tilted.basis.conj().T @ initial.vector
        np.testing.assert_allclose(
            rho, np.outer(branch, branch.conj()) * gram.matrix.conj(), atol=1e-12
        )


def test_reduced_state_diagonal_is_propagated_distribution():
    initial = cs.haar_context(3, 31).modality(0)
    pointer = cs.haar_context(3, 32)
    gram = random_unit_gram(3, seed=8)
    state = cs.entangle(initial, pointer, cs.meter_states_from_gram(gram))
    rho = cs.reduced_system_state(state, pointer)
    expected = cs.Protocol((initial.context, pointer), initial).marginal
    np.testing.assert_allclose(np.diagonal(rho).real, expected, atol=1e-12)


def test_partial_trace_matches_reduced_state(balanced):
    initial, tilted = balanced
    gram = cs.gram_uniform(2, 0.4)
    state = cs.entangle(initial, tilted, cs.meter_states_from_gram(gram))
    rho_full = np.outer(state, state.conj())
    np.testing.assert_allclose(
        partial_trace_meter(rho_full, 2, state.size // 2),
        cs.reduced_system_state(state, tilted),
        atol=1e-12,
    )


def test_meter_chain_zero_links_is_pure(balanced):
    initial, tilted = balanced
    rho = cs.meter_chain_reduced_state(initial, tilted, cs.gram_uniform(2, 0.5), 0)
    branch = tilted.basis.conj().T @ initial.vector
    np.testing.assert_allclose(rho, np.outer(branch, branch.conj()), atol=1e-12)


def test_meter_chain_single_link_matches_reduced_state(balanced):
    initial, tilted = balanced
    gram = cs.gram_uniform(2, 0.6)
    chained = cs.meter_chain_reduced_state(initial, tilted, gram, 1)
    state = cs.entangle(initial, tilted, cs.meter_states_from_gram(gram))
    np.testing.assert_allclose(chained, cs.reduced_system_state(state, tilted), atol=1e-12)


def test_meter_chain_geometric_decay(balanced):
    initial, tilted = balanced
    gram = cs.gram_uniform(2, 0.5)
    rho10 = cs.meter_chain_reduced_state(initial, tilted, gram, 10)
    assert abs(rho10[0, 1]) == pytest.approx(0.5 * 0.5**10, abs=1e-12)
    previous = 1.0
    for m in (1, 2, 4, 8, 16):
        rho = cs.meter_chain_reduced_state(initial, tilted, gram, m)
        off = abs(rho[0, 1])
        assert off == pytest.approx(0.5 * 0.5**m, abs=1e-12)
        assert off < previous
        previous = off
        # diagonal never moves; matrix stays a valid state
        np.testing.assert_allclose(np.diagonal(rho).real, [0.5, 0.5], atol=1e-12)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_meter_chain_complex_gram_phase_winds(balanced):
    initial, tilted = balanced
    gram = cs.Gram(np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    rho = cs.meter_chain_reduced_state(initial, tilted, gram, 3)
    branch = tilted.basis.conj().T @ initial.vector
    expected = branch[0] * branch[1].conjugate() * (-0.5j) ** 3
    assert rho[0, 1] == pytest.approx(expected, abs=1e-12)


@st.composite
def admitted_grams(draw):
    """An overlap matrix ``Gram`` admits, of dim 2–6: uniform, random full rank, or the
    overlaps of fewer unit states than its side (all ones among them), the last shifted as
    far as a smallest eigenvalue of -0.99·``INPUT_TOL`` and scaled back to a unit diagonal, so
    that an off-diagonal modulus can lie above 1."""
    with warnings.catch_warnings():  # as errors in the draws, not in hypothesis' own report
        warnings.simplefilter("error")
        dim = draw(st.integers(2, 6))
        kind = draw(st.sampled_from(["uniform", "random", "deficient"]))
        if kind == "uniform":
            return cs.gram_uniform(dim, draw(st.floats(0, 1)))
        if kind == "random":
            return random_unit_gram(dim, draw(st.integers(0, 2**32 - 1)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rank = draw(st.integers(1, dim - 1))
        w = np.ones((1, dim)) if draw(st.booleans()) else (
            rng.standard_normal((rank, dim)) + 1j * rng.standard_normal((rank, dim))
        )
        w /= np.linalg.norm(w, axis=0)
        matrix = w.conj().T @ w
        values, vectors = np.linalg.eigh(matrix)
        shift = values[0] + draw(st.floats(0, 0.99)) * INPUT_TOL
        matrix -= shift * np.outer(vectors[:, 0], vectors[:, 0].conj())
        scale = 1.0 / np.sqrt(np.diagonal(matrix).real)
        matrix *= np.outer(scale, scale)
        try:
            return cs.Gram(matrix)
        except InvalidGramMatrix:  # the scaling moved the eigenvalue past the floor, rarely
            assume(False)


CHAIN_LENGTHS = st.integers(0, 10**300) | st.sampled_from([10**k for k in (6, 12, 13, 100, 300)])


@settings(max_examples=100, deadline=None)
@given(
    gram=admitted_grams(),
    seed=st.integers(0, 2**31 - 1),
    fourier=st.booleans(),
    lengths=st.lists(CHAIN_LENGTHS, min_size=1, max_size=4),
)
@example(
    gram=cs.Gram(np.array([[1, 1.00000000005], [1.00000000005, 1]])),
    seed=0,
    fourier=True,
    lengths=[1, 10**12, 2 * 10**13, 10**300],
)
# a negative real overlap held as -1 + 0j in both triangles: angle gives +π to each, so the
# two phases of 10**300 links once failed to cancel and the state was not Hermitian
@example(gram=cs.Gram(np.array([[1, -1], [-1, 1]])), seed=0, fourier=False, lengths=[3, 10**300])
def test_a_meter_chain_of_every_admitted_length_stays_a_state(gram, seed, fourier, lengths):
    with warnings.catch_warnings():  # as errors in the calls, not in hypothesis' own report
        warnings.simplefilter("error")
        # each link multiplies a coherence by an overlap of unit states, of modulus at most 1
        dim = gram.dim
        initial = cs.haar_context(dim, seed).modality(seed % dim)
        pointer = cs.fourier_context(dim) if fourier else cs.haar_context(dim, seed + 1)
        for m in lengths:
            rho = cs.meter_chain_reduced_state(initial, pointer, gram, m)
            assert np.isfinite(rho).all()
            # b b† is Hermitian to rounding
            assert np.max(np.abs(rho - rho.conj().T)) <= 2 * EPS, m
            diagonal = rho.diagonal().real
            assert abs(diagonal.sum() - 1.0) <= 4 * dim * EPS
            bound = np.sqrt(np.outer(diagonal, diagonal)) * (1 + 8 * EPS)
            assert np.all(np.abs(rho) <= bound), m


@settings(max_examples=100, deadline=None)
@given(
    gram=admitted_grams(),
    seed=st.integers(0, 2**31 - 1),
    fourier=st.booleans(),
    lengths=st.lists(CHAIN_LENGTHS, max_size=6),
)
@example(gram=cs.Gram(np.array([[1, -1], [-1, 1]])), seed=0, fourier=False, lengths=[10**300])
def test_the_chain_tables_are_the_per_point_formula(gram, seed, fourier, lengths):
    # m = 2 first: NumPy squares a scalar exponent 2, and raises a table to its lengths by pow
    with warnings.catch_warnings():  # as errors in the calls, not in hypothesis' own report
        warnings.simplefilter("error")
        dim = gram.dim
        initial = cs.haar_context(dim, seed).modality(seed % dim)
        pointer = cs.fourier_context(dim) if fourier else cs.haar_context(dim, seed + 1)
        assert_chain_table_refereed(initial, pointer, gram, [2, 0, 1, 3, *lengths])


@pytest.mark.filterwarnings("error")
def test_a_chain_whose_phase_passes_a_double_is_refused_and_no_other(balanced):
    # m·π overflows at m = 1e308; a modulus below 1 raised that far is 0, which has no phase
    initial, tilted = balanced
    negative = cs.Gram(np.array([[1, -1], [-1, 1]]))
    with pytest.raises(ScenarioValidationError) as caught:
        cs.meter_chain_reduced_state(initial, tilted, negative, 10**308)
    assert caught.value.field == "m_count"
    assert caught.value.reason == "length 1.000e+308 turns a unit overlap's phase past a double"
    branch = tilted.basis.conj().T @ initial.vector
    pure = np.outer(branch, branch.conj())
    for gram, coherence in ((cs.gram_uniform(2, 0.5), 0.0), (cs.Gram(np.ones((2, 2))), 1.0)):
        rho = cs.meter_chain_reduced_state(initial, tilted, gram, 10**308)
        np.testing.assert_array_equal(rho.diagonal(), pure.diagonal())
        np.testing.assert_array_equal(rho[0, 1], coherence * pure[0, 1])


def test_meter_chain_refuses_a_negative_length(balanced):
    initial, tilted = balanced
    with pytest.raises(ScenarioValidationError) as caught:
        cs.meter_chain_reduced_state(initial, tilted, cs.gram_uniform(2, 0.5), -1)
    assert str(caught.value) == "m_count: must be >= 0, got -1"
    with pytest.raises(ValueError):
        cs.meter_chain_reduced_state(initial, tilted, cs.gram_uniform(2, 0.5), -1)


@pytest.mark.parametrize("m_count", [True, 1.5, np.float64(2.0)])
def test_meter_chain_refuses_a_length_that_is_no_integer(balanced, m_count):
    # 1.5 once returned a fractional power of the overlaps, which no chain of meters gives
    initial, tilted = balanced
    with pytest.raises(ScenarioValidationError) as caught:
        cs.meter_chain_reduced_state(initial, tilted, cs.gram_uniform(2, 0.5), m_count)
    assert str(caught.value) == f"m_count: expected an integer, got {m_count!r}"


def test_meter_chain_admits_numpy_integers(balanced):
    initial, tilted = balanced
    gram = cs.gram_uniform(2, 0.5)
    np.testing.assert_array_equal(
        cs.meter_chain_reduced_state(initial, tilted, gram, np.int64(3)),
        cs.meter_chain_reduced_state(initial, tilted, gram, 3),
    )


NON_FINITE_STATES = [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.full((2, 2), np.nan),
    np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex),
]


# a caller's non-finite state is the caller's: no state the library computes has such an entry
@pytest.mark.parametrize("rho", NON_FINITE_STATES)
def test_von_neumann_entropy_refuses_a_non_finite_state(rho):
    with pytest.raises(ScenarioValidationError, match="^rho: need finite entries, got "):
        cs.von_neumann_entropy(rho)


def test_von_neumann_entropy_values():
    assert cs.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert cs.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)
    rho = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert cs.von_neumann_entropy(rho) == pytest.approx(0.5623351446188083, abs=1e-12)
