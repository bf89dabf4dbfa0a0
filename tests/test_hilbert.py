import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csm_sim as cs
from csm_sim.errors import DimensionMismatch, NonOrthonormalInput, ScenarioValidationError
from conftest import near_unitary, projector


def orthonormality_residual(basis):
    """Referee: max-norm deviation of B†B from the identity."""
    return float(np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1]))))


def test_computational_basis_is_identity():
    ctx = cs.build_context(cs.ContextSpec("computational", 2))
    np.testing.assert_array_equal(ctx.basis, np.eye(2))


def test_rotation_half_pi_columns():
    ctx = cs.build_context(cs.ContextSpec("rotation", 2, theta=np.pi / 2))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    np.testing.assert_allclose(ctx.basis[:, 0], [c, s], atol=1e-15)
    np.testing.assert_allclose(ctx.basis[:, 1], [-s, c], atol=1e-15)


def test_haar_context_deterministic_and_orthonormal():
    a = cs.build_context(cs.ContextSpec("haar", 4, seed=42))
    b = cs.build_context(cs.ContextSpec("haar", 4, seed=42))
    np.testing.assert_array_equal(a.basis, b.basis)
    assert orthonormality_residual(a.basis) <= 1e-10
    c = cs.build_context(cs.ContextSpec("haar", 4, seed=43))
    assert not np.array_equal(a.basis, c.basis)


def test_fourier_context_orthonormal():
    for dim in (2, 3, 5, 8):
        assert orthonormality_residual(cs.fourier_context(dim).basis) <= 1e-12


def test_explicit_context_rejects_non_orthonormal():
    matrix = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NonOrthonormalInput) as refused:
        cs.build_context(cs.ContextSpec("explicit", 2, matrix=matrix))
    with pytest.raises(NonOrthonormalInput) as direct:
        cs.Context("explicit", matrix)
    assert str(refused.value) == str(direct.value)
    # NaN must not pass: the recipe refuses it when made, as it refuses a wrong shape
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ScenarioValidationError) as made:
        cs.ContextSpec("explicit", 2, matrix=nan)
    with pytest.raises(NonOrthonormalInput) as direct:
        cs.Context("explicit", nan)
    assert made.value.field == "matrix" and direct.value.residual == math.inf
    assert made.value.reason == str(direct.value) == "need finite entries, got (nan+0j)"


def test_a_residual_that_overflows_saturates_at_the_largest_double():
    # B†B overflows to entries like inf+nanj, with numpy's warnings, yet the refusal is finite
    for matrix in ([[1e300, 0.0], [0.0, 1.0]], [[1e300, 1e300], [1e300, -1e300]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonOrthonormalInput) as refused:
                cs.Context("x", np.array(matrix))
        assert refused.value.residual == sys.float_info.max
        assert str(refused.value) == "columns not orthonormal: residual 1.798e+308 exceeds 1e-10"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8), fraction=st.floats(0.0, 0.99))
def test_admitted_explicit_basis_is_replaced_by_its_polar_factor(seed, dim, fraction):
    matrix = near_unitary(seed, dim, fraction)
    ctx = cs.build_context(cs.ContextSpec("explicit", dim, matrix=matrix), id="b")
    # the residual reported is the one of the matrix as given ...
    assert ctx.orthonormality == orthonormality_residual(matrix)
    # ... while the basis held is the nearest unitary, W Vᴴ
    w, _, vh = np.linalg.svd(matrix)
    np.testing.assert_array_equal(ctx.basis, w @ vh)
    assert orthonormality_residual(ctx.basis) <= 1e-14
    assert np.max(np.abs(ctx.basis - matrix)) <= 1e-10
    assert ctx.id == "b"


def test_rotation_requires_dim_two():
    with pytest.raises(ScenarioValidationError) as caught:
        cs.build_context(cs.ContextSpec("rotation", 3, theta=0.3))
    assert caught.value.field == "dim"


def test_dimension_below_two_rejected():
    with pytest.raises(ScenarioValidationError, match="^dim: must be >= 2, got 1$"):
        cs.build_context(cs.ContextSpec("computational", 1))


def test_context_equality_is_by_id():
    a = cs.computational_context(2, id="left")
    b = cs.fourier_context(2, id="left")
    c = cs.computational_context(2, id="right")
    assert a == b
    assert a != c
    assert len({a, b, c}) == 2


def test_basis_is_immutable():
    ctx = cs.computational_context(3)
    with pytest.raises(ValueError):
        ctx.basis[0, 0] = 2.0


def test_adjoint_is_read_only_conjugate_transpose():
    ctx = cs.haar_context(4, 5)
    np.testing.assert_array_equal(ctx.adjoint, ctx.basis.conj().T)
    with pytest.raises(ValueError):
        ctx.adjoint[0, 1] = 2.0
    with pytest.raises(ValueError):
        ctx.adjoint.T[1, 0] = 2.0


def test_dim_is_a_read_only_field():
    ctx = cs.haar_context(5, 1)
    assert ctx.dim == 5 and cs.Modality(ctx, 2).dim == 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.dim = 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 16), perturb=st.booleans())
def test_orthonormality_field_is_the_residual_of_the_basis(seed, dim, perturb):
    basis = cs.haar_context(dim, seed).basis
    if perturb:
        basis = basis + 1e-12 * np.random.default_rng(seed).standard_normal((dim, dim))
    ctx = cs.Context("explicit", basis)
    assert ctx.orthonormality == orthonormality_residual(ctx.basis)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.orthonormality = 0.0


def test_overlaps_table_is_memoized_and_read_only():
    a, b = cs.haar_context(4, 5), cs.fourier_context(4)
    table = a.overlaps(b)
    np.testing.assert_array_equal(table, a.basis.conj().T @ b.basis)
    assert a.overlaps(b) is table
    assert b.overlaps(a) is not table
    with pytest.raises(ValueError):
        table[0, 1] = 2.0
    with pytest.raises(DimensionMismatch):
        a.overlaps(cs.computational_context(3))


def test_overlaps_are_keyed_by_object_not_label():
    start = cs.haar_context(3, 0)
    left = cs.Context("explicit", cs.haar_context(3, 1).basis)
    right = cs.Context("explicit", cs.haar_context(3, 2).basis)
    assert left == right  # both carry the label "explicit"
    for mid in (left, right):
        np.testing.assert_array_equal(start.overlaps(mid), start.adjoint @ mid.basis)
    assert not np.allclose(start.overlaps(left), start.overlaps(right))
    m = start.modality(0)
    for k in range(3):
        assert cs.reversible_return(m, left, k) == pytest.approx(float(k == 0), abs=1e-12)
        assert cs.reversible_return(m, right, k) == pytest.approx(float(k == 0), abs=1e-12)
    phases = np.array([0.0, 1.0, 2.5])
    returns = [cs.interference_returns(m, mid, phases)[0] for mid in (left, right)]
    assert abs(returns[0] - returns[1]) > 1e-3
    assert not np.allclose(cs.transition_matrix(left, start), cs.transition_matrix(right, start))


def test_return_tables_are_memoized_read_only_and_keyed_by_object():
    start = cs.haar_context(3, 0)
    left = cs.Context("explicit", cs.haar_context(3, 1).basis)
    right = cs.Context("explicit", cs.haar_context(3, 2).basis)
    assert left == right  # both carry the label "explicit"
    tables = start.return_tables(left)
    assert start.return_tables(left) is tables
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 1] = 2.0
    other = start.return_tables(right)
    assert other[0] is not tables[0] and other[1] is not tables[1]
    assert not np.allclose(tables[1], other[1])
    for mid, (reversible, irreversible) in ((left, tables), (right, other)):
        t = cs.transition_matrix(start, mid)
        np.testing.assert_allclose(irreversible, t.T @ t, rtol=0, atol=1e-15)
        np.testing.assert_allclose(reversible, np.eye(3), rtol=0, atol=1e-12)
    assert set(start._returns) == {id(left), id(right)}
    with pytest.raises(DimensionMismatch):
        start.return_tables(cs.computational_context(4))


def test_modality_index_range():
    ctx = cs.computational_context(2)
    with pytest.raises(ScenarioValidationError, match=r"^index: 2 not in \[0, 2\)$"):
        ctx.modality(2)
    with pytest.raises(ScenarioValidationError, match=r"^index: -1 not in \[0, 2\)$"):
        cs.Modality(ctx, -1)


@pytest.mark.parametrize("index", [True, False, 1.5, 1.0, "1", None])
def test_modality_index_must_be_an_integer(index):
    # a bool would index a spurious axis, and a float or string fails only later in numpy
    with pytest.raises(ScenarioValidationError, match="^index: .* is not an integer$"):
        cs.Modality(cs.computational_context(2), index)


def test_a_basis_of_side_one_is_refused_as_its_recipe_refuses_it():
    with pytest.raises(ScenarioValidationError) as caught:
        cs.Context("x", np.eye(1))
    assert (caught.value.field, caught.value.reason) == ("dim", "must be >= 2, got 1")


def test_an_empty_basis_is_refused_by_its_shape_as_an_empty_overlap_matrix_is():
    shape = r"^need a non-empty square matrix, got shape \(0, 0\)$"
    with pytest.raises(NonOrthonormalInput, match=shape) as refused:
        cs.Context("x", np.eye(0))
    assert refused.value.residual == np.inf


def test_modality_admits_numpy_integers():
    ctx = cs.computational_context(3)
    assert cs.Modality(ctx, np.int64(2)) == cs.Modality(ctx, 2)
    np.testing.assert_array_equal(cs.Modality(ctx, np.uint8(1)).vector, [0, 1, 0])


@pytest.mark.parametrize(
    "spec, field, reason",
    [
        (("rotation", 2), "theta", "missing required key"),
        (("haar", 3), "seed", "missing required key"),
        (("explicit", 2), "matrix", "missing required key"),
        (("spiral", 2), "kind", "unknown context kind 'spiral'"),
        (("haar", 3, None, -1), "seed", "must be >= 0, got -1"),
    ],
)
def test_build_context_refuses_an_incomplete_spec_as_the_parser_does(spec, field, reason):
    # the spec refuses when it is made, before build_context sees it
    with pytest.raises(ScenarioValidationError) as caught:
        cs.build_context(cs.ContextSpec(*spec))
    assert (caught.value.field, caught.value.reason) == (field, reason)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "make, field, reason",
    [
        (lambda: cs.haar_context(2, -3), "seed", "must be >= 0, got -3"),
        (lambda: cs.ContextSpec("haar", 3, seed=True), "seed", "expected an integer, got True"),
        (lambda: cs.ContextSpec("haar", 3, seed=1.5), "seed", "expected an integer, got 1.5"),
        (lambda: cs.rotation_context(float("nan")), "theta", "expected a number, got nan"),
        (lambda: cs.rotation_context(True), "theta", "expected a number, got True"),
        (lambda: cs.ContextSpec("computational", 2, seed=3), "seed", "unknown key"),
        (lambda: cs.ContextSpec("explicit", 3, matrix=np.eye(2)), "matrix", "expected 3 rows"),
        (
            lambda: cs.ContextSpec("explicit", 2, matrix=np.ones((2, 3))),
            "matrix[0]",
            "expected 2 entries",
        ),
        (lambda: cs.fourier_context(2.0), "dim", "expected an integer, got 2.0"),
        (lambda: cs.computational_context(1), "dim", "must be >= 2, got 1"),
        # the kind is checked first: a dim means nothing without it
        (lambda: cs.ContextSpec("spiral", True), "kind", "unknown context kind 'spiral'"),
    ],
)
def test_a_context_recipe_refuses_a_broken_rule_when_made(make, field, reason):
    # each refusal is a domain error naming the recipe's field; a bare numpy or
    # SeedSequence error, or a context with id "haar:3:True", was what some gave
    with pytest.raises(ScenarioValidationError) as caught:
        make()
    assert (caught.value.field, caught.value.reason) == (field, reason)


def test_a_context_recipe_holds_plain_numbers_and_the_default_ids_stay():
    spec = cs.ContextSpec("haar", np.int64(3), seed=np.uint8(5))
    assert (type(spec.dim), type(spec.seed)) == (int, int)
    assert cs.build_context(spec).id == cs.haar_context(3, 5).id == "haar:3:5"
    assert cs.computational_context(3).id == "computational:3"
    assert cs.fourier_context(3).id == "fourier:3"
    assert cs.rotation_context(np.float64(0.3)).id == "rotation:0.3"
    matrix = np.eye(2)
    spec = cs.ContextSpec("explicit", 2, matrix=matrix)
    assert cs.build_context(spec).id == "explicit"
    matrix[0, 0] = 2.0  # the spec holds its own read-only copy
    assert spec.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        spec.matrix[0, 0] = 2.0


@pytest.mark.parametrize("matrix", ["ab", [[1, 0], [0]], [["1", "x"], ["0", "1"]], {"a": 1}])
def test_a_matrix_numpy_cannot_read_is_refused_by_each_constructor(matrix):
    # each once ended in numpy's bare "complex() arg is a malformed string" or ragged ValueError
    with pytest.raises(NonOrthonormalInput, match="^cannot read .* as a complex array$") as refused:
        cs.Context("x", matrix)
    assert refused.value.residual == np.inf
    with pytest.raises(ScenarioValidationError) as caught:
        cs.ContextSpec("explicit", 2, matrix=matrix)
    assert caught.value.field == "matrix"
    assert caught.value.reason.startswith("cannot read ")


def test_context_specs_are_values():
    # two equal explicit specs once raised ValueError on == and TypeError on hash
    eye = cs.ContextSpec("explicit", 2, matrix=np.eye(2))
    same = cs.ContextSpec("explicit", np.int64(2), matrix=[[1, 0], [0, 1]])
    assert eye == same and hash(eye) == hash(same) and len({eye, same}) == 1
    assert eye != cs.ContextSpec("explicit", 2, matrix=np.eye(2)[::-1])
    assert cs.ContextSpec("haar", 3, seed=1) == cs.ContextSpec("haar", 3, seed=np.uint8(1))
    assert cs.ContextSpec("haar", 3, seed=1) != cs.ContextSpec("haar", 3, seed=2)
    assert cs.ContextSpec("haar", 3, seed=1) != cs.ContextSpec("haar", 4, seed=1)
    assert cs.ContextSpec("fourier", 3) != cs.ContextSpec("computational", 3)
    rotation = cs.ContextSpec("rotation", 2, theta=0.5)
    assert rotation == cs.ContextSpec("rotation", 2, theta=np.float64(0.5))
    assert cs.ContextSpec("computational", 2) != cs.GramSpec("uniform", g=0.5)


def test_projector_computational():
    ctx = cs.computational_context(2)
    np.testing.assert_array_equal(projector(ctx.modality(0)), [[1, 0], [0, 0]])


def test_projector_balanced_all_half():
    # outer product of (1/sqrt2, 1/sqrt2) with itself
    ctx = cs.rotation_context(np.pi / 2)
    np.testing.assert_allclose(projector(ctx.modality(0)), np.full((2, 2), 0.5), atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 5, 8]))
def test_projector_invariants(seed, dim):
    ctx = cs.haar_context(dim, seed)
    total = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        p = projector(ctx.modality(j))
        assert np.max(np.abs(p @ p - p)) <= 1e-12
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12
        assert abs(np.trace(p) - 1) <= 1e-12
        total += p
    # closure: the N projectors of a context resolve the identity
    assert np.max(np.abs(total - np.eye(dim))) <= 1e-10


def test_context_change_identity():
    ctx = cs.haar_context(3, 5)
    np.testing.assert_allclose(cs.context_change_unitary(ctx, ctx), np.eye(3), atol=1e-12)


def test_context_change_maps_columns():
    z = cs.computational_context(2)
    for theta in (0.3, 1.1, 2.5):
        tilted = cs.rotation_context(theta)
        u = cs.context_change_unitary(z, tilted)
        for i in range(2):
            np.testing.assert_allclose(u @ z.basis[:, i], tilted.basis[:, i], atol=1e-12)


def test_context_change_inverse_and_composition():
    a, b, c = (cs.haar_context(4, s) for s in (1, 2, 3))
    u_ab = cs.context_change_unitary(a, b)
    u_ba = cs.context_change_unitary(b, a)
    np.testing.assert_allclose(u_ba @ u_ab, np.eye(4), atol=1e-10)
    # apply Α→B then B→C: matches the direct A→C change
    u_bc = cs.context_change_unitary(b, c)
    np.testing.assert_allclose(u_bc @ u_ab, cs.context_change_unitary(a, c), atol=1e-10)


def test_context_change_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        cs.context_change_unitary(cs.computational_context(2), cs.computational_context(3))


def test_haar_unitary_deterministic():
    np.testing.assert_array_equal(cs.haar_context(2, 1).basis, cs.haar_context(2, 1).basis)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 5, 8, 13]))
def test_haar_unitary_properties(seed, dim):
    u = cs.haar_context(dim, seed).basis
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(dim), atol=1e-12)
