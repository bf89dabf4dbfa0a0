"""The contract, checked on generated scenario documents (``tools/scenario_docs.py``).

For every document, with warnings as errors: each call returns or raises a ``CsmSimError``;
where the build refuses nothing, ``run`` (sampled and exhaustive), ``verify`` and each sweep
of the file return, and ``verify`` passes at 1e-10; the report's bytes repeat, every sweep row
is finite, ``run``'s sweep section is ``sweep_rows`` on its grid, the g sweep's ends are the
returns through the pointer bit for bit, ``verify``'s projector, closure and reduced-state
residuals are their formulas over the build bit for bit, the exhaustive mean is the enumerated
one, every chain state of the ``m_count`` grid is a Hermitian state, and every g row's entropy
is that of the undeflated spectrum.
"""

import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csm_sim as cs
from conftest import enumerated_ensemble
from csm_sim.errors import CsmSimError, RefusedInput, ScenarioValidationError

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scenario_docs, compare_outputs = _tool("scenario_docs"), _tool("compare_outputs")
EPS = float(np.finfo(float).eps)
LONG = sys.float_info.max / math.pi  # past it, m·arg of a unit overlap may pass a double


def _pinned(*edits, sweep=None) -> dict:
    """``scenarios/balanced_qubit.json`` under ``compare_outputs``' edits, and a sweep section."""
    doc = json.loads((ROOT / "scenarios" / "balanced_qubit.json").read_text())
    for edit in edits:
        edit(doc)
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


def _haar_x(seed: int):
    def edit(doc):
        doc["contexts"]["x"] = {"kind": "haar", "seed": seed}
    return edit


def _called(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except CsmSimError as err:
        return err


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, (int, float)) else []


def _chain_states_are_states(objects, grid):
    initial, pointer, gram = objects.protocol.initial, objects.pointer, objects.gram
    for m in grid:
        rho = cs.meter_chain_reduced_state(initial, pointer, gram, m)
        assert np.max(np.abs(rho - rho.conj().T)) <= 2 * EPS, m
        diagonal = rho.diagonal().real
        assert np.all(np.abs(rho) <= np.sqrt(np.outer(diagonal, diagonal)) * (1 + 8 * EPS)), m


def _residual_rows_read_the_build(objects, checks):
    """``verify``'s projector, closure and reduced-state residuals, bit for bit, from the held
    bases and the state one meter leaves."""
    residuals = {check["name"]: check["residual"] for check in checks}
    for name, ctx in objects.contexts.items():
        weights = ctx.basis.real**2 + ctx.basis.imag**2
        gap = np.abs(weights.sum(axis=0) - 1.0)
        projectors = max(np.max(gap * weights.max(axis=0)), np.max(gap))
        assert residuals[f"context[{name}].projectors"] == projectors, name
        closure = np.max(np.abs(ctx.basis @ ctx.adjoint - np.eye(ctx.dim)))
        assert residuals[f"context[{name}].closure"] == closure, name
    if objects.gram is not None:
        initial, pointer = objects.protocol.initial, objects.pointer
        rho = cs.meter_chain_reduced_state(initial, pointer, objects.gram, 1)
        smallest = np.linalg.eigvalsh(0.5 * rho + 0.5 * rho.conj().T)[0]
        hermiticity, trace = np.max(np.abs(rho - rho.conj().T)), abs(np.trace(rho) - 1.0)
        assert residuals["meter.reduced_state"] == max(hermiticity, trace, -smallest, 0.0)


def _g_rows_read_the_undeflated_spectrum(objects, rows):
    b = objects.pointer.adjoint @ objects.protocol.initial.vector
    w = np.abs(b)
    for row in rows:
        g = row["g"]
        spectrum = np.linalg.eigvalsh((1 - g) * np.diag(w * w) + g * np.outer(w, w))
        assert abs(row["entropy"] - cs.shannon_entropy(spectrum)) <= 1e-12, g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=st.integers(0, 2**32 - 1).map(scenario_docs.document))
# an overlap modulus above 1: a chain of 1e13 links once grew its coherence to inf
@example(doc=_pinned(compare_outputs._gram_modulus_above_1,
                     sweep={"m_count": [1, 10**12, 2 * 10**13, 10**300]}))
# an overlap of -1: at 1e300 links the state was not Hermitian, and at 1e308 it was NaN
@example(doc=_pinned(compare_outputs._gram_negative_unit_overlap,
                     sweep={"m_count": [3, 10**300, 10**308]}))
# transition weights of ~1e-9 between near contexts: the log-form cross-check refused them
@example(doc=_pinned(compare_outputs._near_context_between_haar_ones))
# a basis near the input floor, residuals past a double, a Haar seed past int64
@example(doc=_pinned(compare_outputs._explicit_x_near_the_floor))
@example(doc=_pinned(compare_outputs._explicit_x_1e300))
@example(doc=_pinned(compare_outputs._gram_explicit_1e308))
@example(doc=_pinned(_haar_x(2**64 + 1), compare_outputs._one_context))
def test_every_generated_document_keeps_the_contract(doc):
    with warnings.catch_warnings():  # as errors in the calls, not in hypothesis' own report
        warnings.simplefilter("error")
        _keeps_the_contract(doc)


def _keeps_the_contract(doc):
    scenario = cs.Scenario(json.loads(json.dumps(doc)))
    objects = cs.build_scenario_objects(scenario)
    verified = cs.verify_report(scenario, 1e-10)
    sweeps = scenario.sweeps or {}
    report = _called(lambda: cs.report_to_json(cs.run_scenario(scenario, 5, 50)))
    exhaustive = _called(lambda: cs.report_to_json(cs.run_scenario(scenario, 0, 0, True)))
    rows = {param: _called(cs.sweep_rows, scenario, param, grid) for param, grid in sweeps.items()}
    results = {"run": report, "exhaustive": exhaustive, **rows}
    if objects.refused:
        assert not verified["pass"]
        assert all(isinstance(result, RefusedInput) for result in results.values()), results
        return
    assert verified["pass"], [check for check in verified["checks"] if not check["pass"]]
    _residual_rows_read_the_build(objects, verified["checks"])
    long = [m for m in sweeps.get("m_count", ()) if m > LONG]
    for name, result in results.items():  # only a chain past LONG may be refused, as m_count
        if isinstance(result, CsmSimError):
            assert long and name in ("run", "exhaustive", "m_count"), (name, result)
            assert isinstance(result, ScenarioValidationError) and result.field == "m_count"
    if "m_count" in sweeps:
        _chain_states_are_states(objects, [m for m in sweeps["m_count"] if m <= LONG])

    stats = cs.exhaustive_entropy_production(objects.protocol)
    referee = enumerated_ensemble(objects.protocol)
    assert abs(stats.mean_entropy_production - referee.mean_entropy_production) <= 1e-14
    assert np.max(np.abs(stats.final_distribution - referee.final_distribution)) <= 1e-14
    for param, swept in rows.items():
        if not isinstance(swept, CsmSimError):
            assert all(math.isfinite(x) for x in _numbers(swept)), param
    if "g" in rows:
        _g_rows_read_the_undeflated_spectrum(objects, rows["g"])
    if isinstance(report, CsmSimError):
        return
    assert cs.report_to_json(cs.run_scenario(scenario, 5, 50)) == report
    results = json.loads(report)["results"]
    for param, swept in (results["sweep"] or {}).items():
        assert swept == rows[param], param
    if objects.pointer is not None:
        ends = {0.0: "irreversible", 1.0: "reversible"}
        swept = cs.sweep_rows(scenario, "g", [0.0, 1.0])
        for step in results["returns"]:
            if step["intermediate"] == scenario.pointer:
                for row in swept:
                    assert row["return_probabilities"] == step[ends[row["g"]]]
