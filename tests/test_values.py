"""The frozen value types: constructor forms, equality and hash, frozenness and repr."""

import copy
import dataclasses

import numpy as np
import pytest

import csm_sim as cs
from csm_sim.errors import ScenarioValidationError

Z = cs.computational_context(2, "z")
X = cs.fourier_context(2, "x")
GRAM = cs.Gram(np.eye(2))
GRAM_SPEC = cs.GramSpec("uniform", g=0.5)
MARGINAL = np.array([0.5, 0.5])
DOC = {
    "schema_version": 1,
    "dim": 2,
    "contexts": {"z": {"kind": "computational"}, "x": {"kind": "fourier"}},
    "protocol": {"initial": {"context": "z", "index": 0}, "sequence": ["z", "x"]},
    "meter": {"pointer": "x", "gram": {"kind": "uniform", "g": 0.5}},
    "sweep": {"g": [0.0, 1.0]},
}


# (made positionally, made with keywords and defaults, its repr)
CASES = {
    "Context": (Z, cs.Context(id="z", basis=np.eye(2)), "Context(id='z', dim=2)"),
    "Modality": (
        cs.Modality(Z, 1), cs.Modality(index=1, context=Z),
        "Modality(context=Context(id='z', dim=2), index=1)",
    ),
    "ContextSpec": (
        cs.ContextSpec("haar", 3, None, 1), cs.ContextSpec(kind="haar", dim=3, seed=1),
        "ContextSpec(kind='haar', dim=3, theta=None, seed=1, matrix=None)",
    ),
    "Gram": (GRAM, GRAM, f"Gram(matrix={GRAM.matrix!r})"),
    "GramSpec": (
        cs.GramSpec("uniform", 0.5), GRAM_SPEC, "GramSpec(kind='uniform', g=0.5, matrix=None)"
    ),
    "Scenario": (cs.Scenario(DOC), cs.Scenario(raw=copy.deepcopy(DOC)), f"Scenario(raw={DOC!r})"),
    "Protocol": (
        cs.Protocol((Z, X), Z.modality(0)),
        cs.Protocol(initial=cs.Modality(Z, 0), contexts=[Z, X]),
        "Protocol(contexts=(Context(id='z', dim=2), Context(id='x', dim=2)), "
        "initial=Modality(context=Context(id='z', dim=2), index=0))",
    ),
    "Trajectory": (
        cs.Trajectory((0, 1), -0.5, 0.25),
        cs.Trajectory(entropy_production=0.25, forward_log_prob=-0.5, outcomes=(0, 1)),
        "Trajectory(outcomes=(0, 1), forward_log_prob=-0.5, entropy_production=0.25)",
    ),
    "TrajectoryEnsembleStats": (
        cs.TrajectoryEnsembleStats("exhaustive", 2, 0.5, 0.0, MARGINAL, 0.5),
        cs.TrajectoryEnsembleStats(
            mode="exhaustive", sample_count=2, mean_entropy_production=0.5, std_error=0.0,
            final_distribution=MARGINAL, shannon_entropy_final=0.5,
        ),
        "TrajectoryEnsembleStats(mode='exhaustive', sample_count=2, "
        "mean_entropy_production=0.5, std_error=0.0, final_distribution=array([0.5, 0.5]), "
        "shannon_entropy_final=0.5)",
    ),
}
# an array or a dict among the compared values makes the object unhashable
UNHASHABLE = {"Scenario", "TrajectoryEnsembleStats"}


@pytest.mark.parametrize("name", CASES)
def test_value_types_compare_hash_freeze_and_show_as_before(name):
    first, second, shown = CASES[name]
    assert type(first) is type(second) is getattr(cs, name)
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)
    assert repr(first) == shown
    assert first != object() and first != (first,)
    field = next(iter(vars(first)))
    for target in (field, "unheard_of"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, target, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(first, field)
    assert first == second


def test_value_types_refuse_a_call_their_signature_refuses():
    for bad in (
        lambda: cs.Modality(Z),
        lambda: cs.Modality(Z, 0, 1),
        lambda: cs.Modality(Z, 0, context=Z),
        lambda: cs.Modality(Z, 0, dim=2),
        lambda: cs.Context("z"),
        lambda: cs.Trajectory((0,), 0.0),
    ):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ScenarioValidationError):  # __post_init__ runs when made
        cs.Modality(Z, 2)


def test_equality_follows_each_types_own_rule():
    other_basis = cs.Context("z", np.array([[0, 1], [1, 0]]))
    assert other_basis == Z and hash(other_basis) == hash(Z)  # a context is its label
    assert cs.Gram(np.eye(2)) != GRAM  # an overlap matrix is itself only
    assert cs.ContextSpec("explicit", 2, matrix=np.eye(2)) == cs.ContextSpec(
        "explicit", 2, matrix=[[1, 0], [0, 1]]
    )
    assert cs.GramSpec("uniform", 0.5) != cs.GramSpec("uniform", 0.25)
    assert cs.Modality(Z, 0) != cs.Modality(Z, 1)
    assert cs.Modality(Z, 0) != cs.Modality(X, 0)
    # a protocol is its contexts and initial outcome, not the tables derived from them
    protocol = cs.Protocol((Z, X), Z.modality(0))
    assert protocol == cs.Protocol((other_basis, X), other_basis.modality(0))
    assert protocol != cs.Protocol((Z, X), Z.modality(1))
    stats = CASES["TrajectoryEnsembleStats"][0]
    copy = cs.TrajectoryEnsembleStats("exhaustive", 2, 0.5, 0.0, MARGINAL.copy(), 0.5)
    with pytest.raises(ValueError, match="ambiguous"):  # two arrays compare entry by entry
        stats == copy  # noqa: B015
