"""Scenario execution: reports, invariant verification, parameter sweeps.

Reports are plain dicts of JSON-serializable values, built in a fixed key
order, so serializing one is byte-reproducible for identical inputs; the
Monte Carlo ensemble draws each block of samples from its own child of the
seed's ``SeedSequence``, so it is reproducible given (seed, sample count).

``run`` and ``verify`` build every context of a scenario.  A sweep checks
its grid with :func:`~csm_sim.scenario.sweep_grid` first, then builds only
the contexts its parameter reads, plus every explicit context and the overlap
matrix, the inputs construction can still refuse.  The ``g`` sweep evaluates
the meter kernels at ``g = 0`` and ``g = 1`` and interpolates.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._version import __version__
from .errors import CsmSimError, InvalidGramMatrix, NonOrthonormalInput, RefusedInput
from .hilbert import (
    Context,
    Modality,
    _identity_residual,
    _integer,
    _number,
    build_context,
    clamp_probabilities,
    closure_residual,
    context_change_unitary,
    projector_residual,
)
from .measurement import (
    interference_returns,
    irreversible_return,
    reversible_return,
    transition_matrix,
)
from .qnd import (
    Gram,
    build_gram,
    composite_return_probabilities,
    density_matrix_residuals,
    entangle,
    gram_uniform,
    meter_chain_reduced_state,
    meter_return_probabilities,
    meter_states_from_gram,
    reduced_system_state,
    von_neumann_entropy,
)
from .scenario import SWEEP_PARAMS, Scenario, sweep_grid
from .trajectory import Protocol, exhaustive_entropy_production, mean_entropy_production


def build_scenario_objects(scenario: Scenario):
    """Materialize the scenario: contexts by name, protocol, pointer, overlap matrix."""
    contexts = {
        name: build_context(spec, id=name) for name, spec in scenario.contexts.items()
    }
    protocol, pointer = _protocol_objects(scenario, contexts)
    gram = None if scenario.meter is None else build_gram(scenario.meter.gram, scenario.dim)
    return contexts, protocol, pointer, gram


def _protocol_objects(scenario: Scenario, contexts: dict[str, Context]):
    """Protocol and meter pointer (or None) over contexts already built."""
    first = contexts[scenario.protocol.initial_context]
    initial = Modality(first, scenario.protocol.initial_index)
    protocol = Protocol(tuple(contexts[name] for name in scenario.protocol.sequence), initial)
    pointer = None if scenario.meter is None else contexts[scenario.meter.pointer]
    return protocol, pointer


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _g_sweep_rows(initial: Modality, pointer: Context, _gram, grid) -> list[dict]:
    # The overlap matrix (1 - g) I + g J is linear in g, and so are the returns
    # and the reduced state; evaluate both at the ends and interpolate.
    ends = [gram_uniform(pointer.dim, g) for g in (0.0, 1.0)]
    p0, p1 = (meter_return_probabilities(initial, pointer, gram) for gram in ends)
    rho0, rho1 = (meter_chain_reduced_state(initial, pointer, gram, 1) for gram in ends)
    # rho0 is diagonal and rho1 = b b†, so with D = diag(b/|b|) (any phase where b_j = 0)
    # D†((1 - g) rho0 + g rho1)D = (1 - g) rho0 + g |b||b|ᵀ: same spectrum, real symmetric.
    diagonal, outer = rho0.real, np.abs(rho1)
    rows = []
    for g in grid:
        rows.append(
            {
                "g": float(g),
                "return_probabilities": _floats(clamp_probabilities((1 - g) * p0 + g * p1)),
                "entropy": von_neumann_entropy((1 - g) * diagonal + g * outer),
            }
        )
    return rows


def _m_count_sweep_rows(initial: Modality, pointer: Context, gram: Gram, grid) -> list[dict]:
    rows = []
    off_mask = ~np.eye(pointer.dim, dtype=bool)
    for m in grid:
        rho = meter_chain_reduced_state(initial, pointer, gram, m)
        rows.append(
            {
                "m_count": m,
                "diagonal": _floats(rho.diagonal().real),
                "max_coherence": float(np.max(np.abs(rho[off_mask]))),
            }
        )
    return rows


def _phase_sweep_rows(initial: Modality, intermediate: Context, _gram, grid) -> list[dict]:
    rows = []
    for phi in grid:
        # one reference path at phase zero, every other path shifted by phi
        phases = np.full(intermediate.dim, phi)
        phases[0] = 0.0
        rows.append(
            {
                "phase": phi,
                "return_probabilities": _floats(
                    interference_returns(initial, intermediate, phases)
                ),
            }
        )
    return rows


# Per parameter: its row kernel (initial modality, varied context, overlap matrix or
# None, admitted grid), its leading CSV columns, and the row key and prefix of the rest.
_SWEEPS = {
    "g": (_g_sweep_rows, ("g", "entropy"), ("return_probabilities", "p_return")),
    "m_count": (_m_count_sweep_rows, ("m_count", "max_coherence"), ("diagonal", "diag")),
    "phase": (_phase_sweep_rows, ("phase",), ("return_probabilities", "p_return")),
}


def _varied(scenario: Scenario, param: str) -> str:
    """Name of the context a sweep varies: the pointer, or the second protocol context."""
    return scenario.protocol.sequence[1] if param == "phase" else scenario.meter.pointer


def sweep_rows(scenario: Scenario, param: str, values) -> list[dict]:
    """Grid-complete sweep rows for one parameter; one row per grid point.

    Checks the grid with :func:`~csm_sim.scenario.sweep_grid` first, as the
    parser checks a file's, then builds only what ``param`` reads: the initial
    context, and the pointer (``g``, ``m_count``) or the second protocol context
    (``phase``).  It also builds every explicit context and the overlap matrix,
    the only inputs of a parsed scenario that construction can refuse, so a sweep
    refuses whatever ``run`` refuses, with the same error.
    """
    protocol, meter = scenario.protocol, scenario.meter
    grid = sweep_grid(param, values, meter is not None, len(protocol.sequence))
    varied = _varied(scenario, param)
    contexts = {
        name: build_context(spec, id=name)
        for name, spec in scenario.contexts.items()
        if name in (protocol.initial_context, varied) or spec.kind == "explicit"
    }
    gram = None if meter is None else build_gram(meter.gram, scenario.dim)
    initial = Modality(contexts[protocol.initial_context], protocol.initial_index)
    return _SWEEPS[param][0](initial, contexts[varied], gram, grid)


def sweep_table(param: str, rows: list[dict], dim: int) -> tuple[list[str], list[list]]:
    """Flatten sweep rows into a header and value rows for CSV output."""
    _, scalars, (vector, prefix) = _SWEEPS[param]
    header = [*scalars, *(f"{prefix}_{k}" for k in range(dim))]
    return header, [[*(row[key] for key in scalars), *row[vector]] for row in rows]


def format_csv(header: list[str], table: list[list]) -> str:
    lines = [",".join(header)]
    for row in table:
        cells = [str(v) if isinstance(v, int) else "%.17g" % v for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_scenario(
    scenario: Scenario,
    seed: int,
    n_samples: int,
    exhaustive: bool = False,
) -> dict:
    """Execute a scenario and return the report as a JSON-ready dict.

    Covers the exact return probabilities for every context change in the
    protocol, the meter quantities if a meter is configured, the trajectory
    ensemble (Monte Carlo, or exact over every path when ``exhaustive``), and
    the configured sweep grids.  Deterministic given (scenario, seed,
    n_samples); an exhaustive report samples nothing, so its ``n_samples`` is 0.
    ``seed`` is an integer >= 0 and ``n_samples`` one >= 1, or >= 0 when ``exhaustive``.
    """
    seed = _integer("seed", seed, 0)
    n_samples = _integer("n_samples", n_samples, 0 if exhaustive else 1)
    contexts, protocol, pointer, gram = build_scenario_objects(scenario)
    initial = protocol.initial
    dim = scenario.dim

    returns = []
    for step, name in enumerate(scenario.protocol.sequence[1:], start=1):
        ctx = contexts[name]
        returns.append(
            {
                "step": step,
                "intermediate": name,
                "reversible": [reversible_return(initial, ctx, k) for k in range(dim)],
                "irreversible": [irreversible_return(initial, ctx, k) for k in range(dim)],
            }
        )

    meter_section = None
    if pointer is not None:
        rho = meter_chain_reduced_state(initial, pointer, gram, 1)
        off_mask = ~np.eye(dim, dtype=bool)
        meter_section = {
            "pointer": scenario.meter.pointer,
            "return_probabilities": _floats(meter_return_probabilities(initial, pointer, gram)),
            "reduced_state_diagonal": _floats(rho.diagonal().real),
            "max_coherence": float(np.max(np.abs(rho[off_mask]))),
            "coherence_magnitudes": [_floats(np.abs(rho[j])) for j in range(dim)],
            "entropy": von_neumann_entropy(rho),
        }

    if exhaustive:
        stats = exhaustive_entropy_production(protocol)
    else:
        stats = mean_entropy_production(protocol, n_samples, seed)
    ensemble = {
        "mode": stats.mode,
        "sample_count": stats.sample_count,
        "mean_entropy_production": stats.mean_entropy_production,
        "std_error": stats.std_error,
        "final_distribution": _floats(stats.final_distribution),
        "shannon_entropy_final": stats.shannon_entropy_final,
    }

    sweep_section = None
    if scenario.sweep is not None:
        grids = {param: getattr(scenario.sweep, param) for param in SWEEP_PARAMS}
        sweep_section = {
            param: _SWEEPS[param][0](initial, contexts[_varied(scenario, param)], gram, grid)
            for param, grid in grids.items()
            if grid is not None
        }

    return {
        "tool": "csm-sim",
        "version": __version__,
        "seed": seed,
        "n_samples": 0 if exhaustive else n_samples,
        "scenario": scenario.raw,
        "results": {
            "returns": returns,
            "meter": meter_section,
            "ensemble": ensemble,
            "sweep": sweep_section,
        },
    }


def report_to_json(report: dict) -> str:
    """Serialize a report; a non-finite value is a domain error, never a bare ``NaN`` token."""
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise CsmSimError(f"report holds a non-finite number ({err})") from None


def verify_scenario(scenario: Scenario, tolerance: float) -> tuple[bool, list[dict]]:
    """Measure every invariant residual on the scenario's objects.

    Returns (all passed, checks); each check carries its name, the measured
    residual and whether it is within ``tolerance``.  A constructor's refusal
    is recorded as a failure whatever ``tolerance`` is, with the residual it
    measured and its message under ``refused``; dependent checks are skipped.
    The meter checks measure the closed-form quantities ``run`` reports
    against the explicit composite state, built here and nowhere else.
    ``tolerance`` is a finite number >= 0.
    """
    tolerance = _number("tolerance", tolerance, 0)
    checks: list[dict] = []

    def add(name: str, residual: float) -> None:
        ok = bool(residual <= tolerance)
        checks.append({"name": name, "residual": float(residual), "pass": ok})

    def refuse(name: str, err: RefusedInput) -> None:
        checks.append({"name": name, "residual": err.residual, "pass": False, "refused": str(err)})

    contexts: dict[str, Context] = {}
    for name, spec in scenario.contexts.items():
        try:
            ctx = build_context(spec, id=name)
        except NonOrthonormalInput as err:
            refuse(f"context[{name}].orthonormal", err)
            continue
        contexts[name] = ctx
        add(f"context[{name}].orthonormal", ctx.orthonormality)
        add(f"context[{name}].projectors", projector_residual(ctx))
        add(f"context[{name}].closure", closure_residual(ctx))

    if len(contexts) < len(scenario.contexts):
        return all(c["pass"] for c in checks), checks

    protocol, pointer = _protocol_objects(scenario, contexts)
    initial = protocol.initial
    dim = scenario.dim
    for step, (a, b) in enumerate(zip(protocol.contexts[:-1], protocol.contexts[1:])):
        u = context_change_unitary(a, b)
        add(f"step[{step}].unitarity", _identity_residual(u.conj().T @ u))
        t = transition_matrix(a, b)
        sums = max(
            float(np.max(np.abs(t.sum(axis=0) - 1.0))),
            float(np.max(np.abs(t.sum(axis=1) - 1.0))),
        )
        add(f"step[{step}].transition_sums", sums)
        starts = [Modality(a, i) for i in range(dim)]
        rev = np.array([[reversible_return(m, b, k) for m in starts] for k in range(dim)])
        add(f"step[{step}].reversible_identity", _identity_residual(rev))

    if scenario.meter is not None:
        try:
            gram = build_gram(scenario.meter.gram, dim)
        except InvalidGramMatrix as err:
            refuse("meter.gram_valid", err)
        else:
            add("meter.gram_valid", 0.0)
            meters = meter_states_from_gram(gram)
            add(
                "meter.states_reproduce_overlaps",
                float(np.max(np.abs(meters.conj().T @ meters - gram.matrix))),
            )
            state = entangle(initial, pointer, meters)
            add("meter.composite_norm", abs(float(np.linalg.norm(state)) - 1.0))
            probs = meter_return_probabilities(initial, pointer, gram)
            add("meter.return_normalization", abs(float(probs.sum()) - 1.0))
            composite = composite_return_probabilities(state, initial.context, pointer)
            add("meter.return_two_form_agreement", float(np.max(np.abs(probs - composite))))
            rho = meter_chain_reduced_state(initial, pointer, gram, 1)
            residuals = density_matrix_residuals(rho)
            add("meter.reduced_state", max(residuals.values()))
            traced = reduced_system_state(state, pointer)
            add("meter.reduced_state_two_form_agreement", float(np.max(np.abs(rho - traced))))

    # the marginal is clamped into [0, 1] when made, so its sum is all there is to measure
    add("protocol.final_marginal", abs(float(protocol.marginal.sum()) - 1.0))

    return all(c["pass"] for c in checks), checks


def verify_report(scenario: Scenario, tolerance: float) -> dict:
    ok, checks = verify_scenario(scenario, tolerance)
    return {
        "tool": "csm-sim",
        "version": __version__,
        "tolerance": float(tolerance),
        "pass": ok,
        "checks": checks,
    }
