"""Finite-dimensional simulator of context-to-context measurement statistics.

The library models a measurement setup as a *context* (an orthonormal basis
of C^N) whose outcomes, the *modalities*, are certain and repeatable within
that context but only probabilistically related to the outcomes of any
other context.  On top of that it provides: exact transition and return
probabilities (probability-summed vs. amplitude-summed routes through an
intermediate context), meter-mediated measurements of tunable strength
parametrized by the meter-state overlap matrix, decoherence under repeated
meter couplings, and stochastic trajectories with entropy production
statistics.
"""

from types import ModuleType as _Module

from ._version import __version__
from .errors import (
    CsmSimError,
    DimensionMismatch,
    IndexOutOfRange,
    InitialMismatch,
    InternalConsistencyError,
    InvalidDistribution,
    InvalidGramMatrix,
    InvalidMeterStates,
    LengthMismatch,
    NonOrthonormalInput,
    NotPositiveSemidefinite,
    RefusedInput,
    ScenarioParseError,
    ScenarioValidationError,
    ZeroProbabilityPath,
)
from .hilbert import (
    Context,
    ContextSpec,
    Modality,
    build_context,
    computational_context,
    context_change_unitary,
    fourier_context,
    haar_context,
    rotation_context,
)
from .measurement import (
    interference_returns,
    irreversible_return,
    reversible_return,
    transition_matrix,
    validate_distribution,
)
from .qnd import (
    Gram,
    GramSpec,
    composite_return_probabilities,
    entangle,
    gram_uniform,
    meter_chain_reduced_state,
    meter_protocol_entropy,
    meter_return_probabilities,
    meter_states_from_gram,
    reduced_system_state,
    von_neumann_entropy,
)
from .runner import (
    build_scenario_objects,
    report_to_json,
    run_scenario,
    sweep_rows,
    verify_report,
    verify_scenario,
)
from .scenario import MeterSpec, ProtocolSpec, Scenario, SweepSpec, parse_scenario
from .trajectory import (
    Protocol,
    Trajectory,
    TrajectoryEnsembleStats,
    entropy_production,
    exhaustive_entropy_production,
    mean_entropy_production,
    sample_trajectory,
    shannon_entropy,
)

# the names imported above, not the submodules that importing them binds
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
