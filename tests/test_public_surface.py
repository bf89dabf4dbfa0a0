"""The package exports exactly these names; adding or removing one is a deliberate edit here."""

import warnings
from pathlib import Path

import pytest

import csm_sim

PUBLIC = [
    "Context",
    "ContextSpec",
    "CsmSimError",
    "DimensionMismatch",
    "Gram",
    "GramSpec",
    "InternalConsistencyError",
    "InvalidGramMatrix",
    "Modality",
    "NonOrthonormalInput",
    "Protocol",
    "RefusedInput",
    "Scenario",
    "ScenarioParseError",
    "ScenarioValidationError",
    "Trajectory",
    "TrajectoryEnsembleStats",
    "build_context",
    "build_scenario_objects",
    "composite_return_probabilities",
    "computational_context",
    "context_change_unitary",
    "entangle",
    "entropy_production",
    "exhaustive_entropy_production",
    "fourier_context",
    "gram_uniform",
    "haar_context",
    "interference_returns",
    "irreversible_return",
    "mean_entropy_production",
    "meter_chain_reduced_state",
    "meter_return_probabilities",
    "meter_states_from_gram",
    "parse_scenario",
    "reduced_system_state",
    "report_to_json",
    "reversible_return",
    "rotation_context",
    "run_scenario",
    "sample_trajectory",
    "shannon_entropy",
    "sweep_rows",
    "transition_matrix",
    "validate_distribution",
    "verify_report",
    "von_neumann_entropy",
]


def test_public_surface_is_pinned():
    assert sorted(csm_sim.__all__) == PUBLIC


def test_the_distribution_reads_its_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with warnings.catch_warnings():  # [tool.setuptools] in pyproject.toml is still "beta"
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["version"] == csm_sim.__version__
