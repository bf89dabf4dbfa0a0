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

Determinism: the same scenario, seed and sample count give a byte-identical
report, for one NumPy/BLAS build on one CPU kernel.  From dim 128 up, BLAS
sums a product in another order on more than one thread, which moves last
bits of the report; so importing this package sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where they are unset, before
NumPy loads.  A value the caller set is kept.  A program that imported NumPy
before this package keeps the threads NumPy started with, and child processes
inherit the setting.  Across CPU kernels, values agree to about 1e-15: over the
checked-in scenarios, no value moved by more than 1.8e-15 between OpenBLAS's
default, Haswell and Sandybridge kernels.

Collection: the collector is held off while this package's modules, and NumPy with
them, load, and the import ends with ``gc.freeze()``.  The objects alive when the
import ends (some twenty thousand, most of them NumPy's) live until the process
exits, so tracing them buys nothing: the thirty-odd collections their making would
run, about 3.5 ms, are skipped, and they are left out of later collections, the full
ones and those at interpreter shutdown, about a tenth of a short process's wall
time.  Cyclic garbage made during the import is reclaimed only at exit.  The
collector is then enabled or disabled as the caller left it, also when the import
raises, and ``gc.unfreeze()`` undoes the freeze.
"""

import gc as _gc
import os as _os
from types import ModuleType as _Module

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

_collecting = _gc.isenabled()
_gc.disable()
try:
    from ._version import __version__
    from .errors import (
        CsmSimError,
        DimensionMismatch,
        InternalConsistencyError,
        InvalidGramMatrix,
        NonOrthonormalInput,
        RefusedInput,
        ScenarioParseError,
        ScenarioValidationError,
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
    )
    from .scenario import Scenario, parse_scenario
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

    _gc.freeze()
finally:
    if _collecting:
        _gc.enable()
