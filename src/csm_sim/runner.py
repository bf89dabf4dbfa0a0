"""Scenario execution: reports, invariant verification, parameter sweeps.

Reports are plain dicts of JSON-serializable values, built in a fixed key
order, so serializing one is byte-reproducible for identical inputs; the
Monte Carlo ensemble draws its final-outcome counts in one multinomial from
the seed's generator, so it is reproducible given (seed, sample count).

A :class:`~csm_sim.scenario.Scenario` owns the rules of its document and checked them when made
(:func:`~csm_sim.scenario.parse_scenario` only reads the text), so these entry points read its
fields as they are and refuse anything but a scenario.  Each builds its objects through
:func:`build_scenario_objects`, which records every input construction refuses: ``run`` and
``sweep`` raise the first.  ``verify`` is one stream of rows over that build, :func:`_checks`: a
refusal is a failed row, and the rows that read a refused object are skipped.  ``run`` and
``verify`` build every context; a sweep checks its grid with :func:`~csm_sim.scenario.sweep_grid`
first, then builds only the contexts its parameter reads.  Every sweep is one table over its grid,
in its CSV's column order after the grid point: a report's rows are read off it (:func:`_rows`),
and :func:`sweep_csv` writes it 4,096 rows at a time.  The ``g`` sweep dials (1 − g)·I + g·J
through the pointer, whatever overlap matrix the document's meter holds, between the return tables
that ``run``'s ``returns`` read (``Context.return_tables``); its entropy is the Shannon entropy of
a diagonal-plus-rank-one spectrum (:func:`_g_spectra`), exact at both ends, deflated once for the
whole grid and solved a chunk at a time between them.  The ``m_count`` sweep reads the document's
overlap matrix, one table of chain states per chunk of the grid (``qnd._chain_states``); a chunk of
either holds ``hilbert._CHUNK_ENTRIES`` entries at most, or one point.  The ``phase`` sweep is the
fringe |a + e^{iφ}c|² of one path table (``hilbert._paths``): a the reference path, c the sum of
the paths the phase shifts, its returns clamped once, as the g sweep's are.  Neither writer, the
JSON report's nor the sweep's CSV, emits a non-finite number: each refuses one as a domain error
(:func:`_finite`), before its first byte.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from ._version import __version__
from .errors import CsmSimError, RefusedInput
from .hilbert import (
    _CHUNK_ENTRIES,
    Context,
    Modality,
    _distributions,
    _entropy,
    _hermitian,
    _identity_residual,
    _instance,
    _integer,
    _number,
    _paths,
    _sequence,
    _shown,
    _Value,
    build_context,
    clamp_probabilities,
    irreversible_return,
    reversible_return,
    validate_distribution,
)
from .qnd import (
    Gram,
    _chain_states,
    build_gram,
    composite_return_probabilities,
    entangle,
    meter_chain_reduced_state,
    meter_return_probabilities,
    meter_states_from_gram,
    reduced_system_state,
    von_neumann_entropy,
)
from .scenario import Scenario, sweep_grid
from .trajectory import (
    Protocol,
    exhaustive_entropy_production,
    mean_entropy_production,
)


class _Objects(_Value):
    """What :func:`build_scenario_objects` built, and the refusals it recorded."""

    contexts: dict
    protocol: Protocol | None
    pointer: Context | None
    gram: Gram | None
    refused: tuple


def build_scenario_objects(scenario: Scenario, names=None) -> _Objects:
    """The ``contexts`` named (all if ``names`` is None) and every explicit one, the only kind
    construction refuses; unless one was refused, the overlap matrix ``gram`` and, when ``names``
    is None, the ``protocol`` and ``pointer`` (each None if not built); and ``refused``, each
    (check name, :class:`RefusedInput`) construction raised, in document order, named as
    ``verify`` reports it."""
    _instance("scenario", scenario, Scenario)
    names = None if names is None else _sequence("names", names, str)
    contexts, refused = {}, []
    for name, spec in scenario.contexts.items():
        if names is None or name in names or spec.kind == "explicit":
            try:
                contexts[name] = build_context(spec, id=name)
            except RefusedInput as err:
                refused.append((f"context[{name}].orthonormal", err))
    protocol = pointer = gram = None
    if not refused and names is None:
        initial = Modality(contexts[scenario.sequence[0]], scenario.initial_index)
        protocol = Protocol(tuple(contexts[name] for name in scenario.sequence), initial)
        pointer = None if scenario.pointer is None else contexts[scenario.pointer]
    if not refused and scenario.gram is not None:
        try:
            gram = build_gram(scenario.gram, scenario.dim)
        except RefusedInput as err:
            refused.append(("meter.gram_valid", err))
    return _Objects(contexts, protocol, pointer, gram, tuple(refused))


def _g_spectra(weights: np.ndarray, grid) -> np.ndarray:
    """The spectrum of (1 - g)·diag(w²) + g·w wᵀ at every g of ``grid``, one row each, for the
    squared moduli ``weights`` = w², a distribution.

    g = 0 is w² and g = 1 the point mass [1, 0, …, 0]: w wᵀ has rank one and trace Σw² = 1.
    Between them the update deflates (Bunch, Nielsen and Sorensen 1978).  The moduli equal
    within 8·eps·max(w), LAPACK ``dlaed2``'s rule, form a group; a group of m with mean square
    c² keeps (1 - g)·c² m - 1 times (all m times if its weights are 0), and adds a row to the
    reduced k × k matrix (1 - g)·diag(c²) + g·z zᵀ, z² the group's Σw².  The grid deflates
    once, and a row holds the kept values, then the reduced spectrum: one ``eigvalsh`` over a
    stack of the reduced matrices per chunk of ``_CHUNK_ENTRIES`` entries at most, or one point.
    """
    n, ascending = len(weights), np.sort(weights)
    w = np.sqrt(ascending).tolist()
    tol = 8 * np.finfo(float).eps * w[-1]
    starts = [0]
    for k, modulus in enumerate(w):
        if modulus - w[starts[-1]] > tol:
            starts.append(k)
    sums = np.add.reduceat(ascending, starts)
    counts = np.diff([*starts, n])
    coupled = sums > 0.0
    kept = np.repeat(sums / counts, counts - coupled)
    diagonal, z = np.diag(sums[coupled] / counts[coupled]), np.sqrt(sums[coupled])
    g, outer = np.array(grid, dtype=float)[:, None, None], np.outer(z, z)
    table, step = np.empty((len(g), n)), max(1, _CHUNK_ENTRIES // outer.size)
    table[:, :len(kept)] = (1 - g[:, 0]) * kept
    for start in range(0, len(g), step):
        c = g[start:start + step]
        table[start:start + step, len(kept):] = np.linalg.eigvalsh((1 - c) * diagonal + c * outer)
    table[g.ravel() == 0.0], table[g.ravel() == 1.0] = weights, np.eye(1, n)
    return table


def _g_sweep_rows(initial: Modality, pointer: Context, _gram, grid) -> np.ndarray:
    # (1 - g) I + g J is linear in g, and so are the returns and the reduced state: interpolate
    # between the irreversible (g = 0) and reversible (g = 1) return tables, and diag|b|² and b b†.
    # With D = diag(b/|b|) (any phase where b_j = 0), D†((1 - g) diag|b|² + g b b†)D is
    # (1 - g) diag|b|² + g |b||b|ᵀ: same spectrum, real symmetric, a diagonal plus rank one.
    reversible, irreversible = initial.context.return_tables(pointer)
    p0, p1 = irreversible[:, initial.index], reversible[:, initial.index]
    b = pointer.overlaps(initial.context)[:, initial.index]  # b_j = ⟨v_j|u_i⟩, as the tables read
    weights = validate_distribution(b.real**2 + b.imag**2, "rho")  # Σ|b|² = 1, as g = 1 reads
    entropy = _entropy(_distributions(_g_spectra(weights, grid), "dist"))
    g = np.array(grid)[:, None]  # one row per grid point
    return np.column_stack([entropy, clamp_probabilities((1 - g) * p0 + g * p1)])


def _m_count_sweep_rows(initial: Modality, pointer: Context, gram: Gram, grid) -> np.ndarray:
    off_diagonal, coherence = ~np.eye(gram.dim, dtype=bool), []
    for states in _chain_states(initial, pointer, gram, grid):  # one table per chunk of the grid
        coherence.append(np.abs(states[:, off_diagonal]).max(axis=1))
    diagonal = np.broadcast_to(states[0].diagonal().real, (len(grid), gram.dim))
    return np.column_stack([np.concatenate(coherence), diagonal])  # a chain leaves |b_j|² put


def _phase_sweep_rows(initial: Modality, intermediate: Context, _gram, grid) -> np.ndarray:
    # one reference path a at phase zero, the sum c of every other path shifted by φ
    paths = _paths(initial, intermediate)
    a, c = paths[:, 0], paths[:, 1:].sum(axis=1)
    amps = a + np.exp(1j * np.array(grid))[:, None] * c
    return clamp_probabilities(amps.real**2 + amps.imag**2)


# Per parameter: its table kernel (initial modality, varied context, overlap matrix or None,
# admitted grid), the CSV's leading columns, and the row key and column prefix of the rest.
_SWEEPS = {
    "g": (_g_sweep_rows, ("g", "entropy"), ("return_probabilities", "p_return")),
    "m_count": (_m_count_sweep_rows, ("m_count", "max_coherence"), ("diagonal", "diag")),
    "phase": (_phase_sweep_rows, ("phase",), ("return_probabilities", "p_return")),
}


def _varied(scenario: Scenario, param: str) -> str:
    """Name of the context a sweep varies: the pointer, or the second protocol context."""
    return scenario.sequence[1] if param == "phase" else scenario.pointer


def _rows(param: str, grid, table: np.ndarray) -> list[dict]:
    """One dict per grid point: the point, the row's vector, then its leading scalars."""
    _, (name, *scalars), (vector, _) = _SWEEPS[param]
    return [{name: point, vector: row[len(scalars):], **dict(zip(scalars, row))}
            for point, row in zip(grid, table.tolist())]


def _sweep(scenario: Scenario, param: str, values) -> tuple:
    """The admitted grid and the sweep's table over it, as :func:`sweep_rows` reads them."""
    _instance("scenario", scenario, Scenario)
    grid = sweep_grid(param, values, scenario.pointer is not None, len(scenario.sequence))
    first, varied = scenario.sequence[0], _varied(scenario, param)
    objects = build_scenario_objects(scenario, (first, varied))
    if objects.refused:
        raise objects.refused[0][1]
    initial = Modality(objects.contexts[first], scenario.initial_index)
    return grid, _SWEEPS[param][0](initial, objects.contexts[varied], objects.gram, grid)


def sweep_rows(scenario: Scenario, param: str, values) -> list[dict]:
    """Grid-complete sweep rows for one parameter; one row per grid point.

    Checks the grid with :func:`~csm_sim.scenario.sweep_grid` first, as a
    scenario checks its document's, then builds through :func:`build_scenario_objects`
    only the contexts ``param`` reads: the initial one, and the pointer (``g``,
    ``m_count``) or the second protocol context (``phase``).  That build still makes
    every input construction can refuse, so a sweep refuses whatever ``run`` refuses,
    with the same error.  ``g`` dials (1 − g)·I + g·J through the pointer, whatever
    overlap matrix the document's meter holds; ``m_count`` reads that matrix.
    """
    return _rows(param, *_sweep(scenario, param, values))


def _finite(value: float) -> float:
    """``value``, the one rule of both writers: a non-finite number is a domain error."""
    if not math.isfinite(value):
        raise CsmSimError(f"report holds a non-finite number ({value!r}), which no writer emits")
    return value


def sweep_csv(scenario: Scenario, param: str, values):
    """The sweep :func:`sweep_rows` forms, as CSV: an iterator of its text, the header and then
    the rows 4,096 at a time, each chunk formed when read (a chain length written as an integer,
    every other number as ``%.17g``).  Every refusal comes before the iterator: the grid's, the
    build's, the table's, and a non-finite entry of the table (:func:`_finite`)."""
    grid, table = _sweep(scenario, param, values)
    _finite(float(table.flat[np.argmin(np.isfinite(table))]))  # its first non-finite entry
    _, scalars, (_, prefix) = _SWEEPS[param]
    header = ",".join([*scalars, *(f"{prefix}_{k}" for k in range(scenario.dim))]) + "\n"
    row = ("%d" if isinstance(grid[0], int) else "%.17g") + ",%.17g" * table.shape[1] + "\n"
    chunks = (zip(grid[k:k + 4096], table[k:k + 4096].tolist()) for k in range(0, len(grid), 4096))
    return chain([header], ("".join(row % (p, *cells) for p, cells in chunk) for chunk in chunks))


def run_scenario(scenario: Scenario, seed: int, n_samples: int, exhaustive: bool = False) -> dict:
    """Execute a scenario and return the report as a JSON-ready dict.

    Covers the exact return probabilities for every context change in the protocol, the meter
    quantities if a meter is configured, the trajectory ensemble (Monte Carlo, or exact over every
    path when ``exhaustive``), and the configured sweep grids.  Deterministic given (scenario,
    seed, n_samples); an exhaustive report samples nothing, so its ``n_samples`` is 0.  ``seed``
    is an integer >= 0 and ``n_samples`` one in [1, 2**63 - 1], or from 0 when ``exhaustive``.
    """
    _instance("scenario", scenario, Scenario)
    seed = _integer("seed", seed, 0)
    n_samples = _integer("n_samples", n_samples, 0 if exhaustive else 1, np.iinfo(np.int64).max)
    objects = build_scenario_objects(scenario)
    if objects.refused:
        raise objects.refused[0][1]
    contexts, protocol = objects.contexts, objects.protocol
    pointer, gram = objects.pointer, objects.gram
    initial = protocol.initial
    dim = scenario.dim

    returns = []
    for step, name in enumerate(scenario.sequence[1:], start=1):
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
        magnitudes = np.abs(rho)
        meter_section = {
            "pointer": scenario.pointer,
            "return_probabilities": meter_return_probabilities(initial, pointer, gram).tolist(),
            "reduced_state_diagonal": rho.diagonal().real.tolist(),
            "max_coherence": float(np.max(magnitudes[~np.eye(dim, dtype=bool)])),
            "coherence_magnitudes": magnitudes.tolist(),
            "entropy": von_neumann_entropy(rho),
        }

    if exhaustive:
        stats = exhaustive_entropy_production(protocol)
    else:
        stats = mean_entropy_production(protocol, n_samples, seed)
    ensemble = {name: getattr(stats, name) for name in stats.ARGS}  # each field, in order
    ensemble["final_distribution"] = stats.final_distribution.tolist()

    sweep_section = None
    if scenario.sweeps is not None:
        sweep_section = {
            param: _rows(param, grid, _SWEEPS[param][0](
                initial, contexts[_varied(scenario, param)], gram, grid))
            for param, grid in scenario.sweeps.items()
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


def _encode(value, indent: str) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` nested at ``indent``, string keys only.

    ``json.dumps`` takes its pure-Python encoder whenever it indents; here a list of
    finite floats, most of a report's bytes, is one C-speed ``join`` of ``float.__repr__``.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        try:
            return int.__repr__(value)
        except ValueError:  # sys.get_int_max_str_digits() exceeded
            raise CsmSimError(f"report holds {_shown(value)}, too long to write") from None
    if isinstance(value, float):
        return float.__repr__(_finite(value))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(map(isinstance, value, repeat(float))) and all(map(math.isfinite, value)):
            items = map(float.__repr__, value)
        else:
            items = (_encode(item, inner) for item in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{encode_basestring_ascii(key)}: {_encode(item, inner)}" for key, item in value.items()
        )
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_to_json(report: dict) -> str:
    """Serialize a report as ``json.dumps(report, indent=2, allow_nan=False)`` does, plus a
    newline; a non-finite value is a domain error, never a bare ``NaN`` token."""
    return _encode(report, "") + "\n"


def _checks(scenario: Scenario, objects: _Objects):
    """``verify``'s rows in report order: ``(name, residual)``, or ``(name, RefusedInput)`` where
    the build refused.  Rows that read a refused object are skipped: after a refused context,
    every row past the context rows; after a refused gram, the meter rows past its own."""
    refused = dict(objects.refused)
    for name in scenario.contexts:
        check = f"context[{name}].orthonormal"
        if check in refused:
            yield check, refused[check]
            continue
        ctx = objects.contexts[name]
        yield check, ctx.orthonormality
        # p_j = v_j v_j†: p² − p = (‖v‖² − 1) p, largest entry |‖v‖² − 1|·max_l |v_l|², and
        # tr p = ‖v‖².  p − p† of np.outer(v, v̄) is one rounding per entry, so it measures nothing.
        weights = ctx.basis.real**2 + ctx.basis.imag**2
        gap = np.abs(weights.sum(axis=0) - 1.0)
        projectors = max(np.max(gap * weights.max(axis=0)), np.max(gap))
        yield f"context[{name}].projectors", float(projectors)
        yield f"context[{name}].closure", _identity_residual(ctx.basis @ ctx.adjoint)

    protocol = objects.protocol
    if protocol is None:
        return
    initial, pointer, gram, dim = protocol.initial, objects.pointer, objects.gram, protocol.dim
    for step, (a, b, t) in enumerate(zip(protocol.contexts, protocol.contexts[1:], protocol.steps)):
        w = b.overlaps(a)  # t's table; W† is the change of context in a's coordinates
        yield f"step[{step}].unitarity", _identity_residual(w.conj().T @ w)
        sums = (float(np.max(np.abs(t.sum(axis) - 1.0))) for axis in (0, 1))
        yield f"step[{step}].transition_sums", max(sums)
        starts = [Modality(a, i) for i in range(dim)]
        rev = np.array([[reversible_return(m, b, k) for m in starts] for k in range(dim)])
        yield f"step[{step}].reversible_identity", _identity_residual(rev)

    if "meter.gram_valid" in refused:
        yield "meter.gram_valid", refused["meter.gram_valid"]
    elif gram is not None:
        yield "meter.gram_valid", 0.0
        meters = meter_states_from_gram(gram)
        overlaps = meters.conj().T @ meters
        yield "meter.states_reproduce_overlaps", float(np.max(np.abs(overlaps - gram.matrix)))
        state = entangle(initial, pointer, meters)
        yield "meter.composite_norm", abs(float(np.linalg.norm(state)) - 1.0)
        probs = meter_return_probabilities(initial, pointer, gram)
        yield "meter.return_normalization", abs(float(probs.sum()) - 1.0)
        composite = composite_return_probabilities(state, initial.context, pointer)
        yield "meter.return_two_form_agreement", float(np.max(np.abs(probs - composite)))
        rho = meter_chain_reduced_state(initial, pointer, gram, 1)
        hermiticity, part = _hermitian(rho)
        negativity = max(0.0, -float(np.linalg.eigvalsh(part)[0]))
        yield "meter.reduced_state", max(hermiticity, abs(np.trace(rho) - 1.0), negativity)
        traced = reduced_system_state(state, pointer)
        yield "meter.reduced_state_two_form_agreement", float(np.max(np.abs(rho - traced)))

    # the marginal is clamped into [0, 1] when made, so its sum is all there is to measure
    yield "protocol.final_marginal", abs(float(protocol.marginal.sum()) - 1.0)


def verify_report(scenario: Scenario, tolerance: float) -> dict:
    """Measure every invariant residual on the scenario's objects.

    Returns the report: tool, version, ``tolerance``, whether every check passed (``pass``)
    and the ``checks``, one per row of :func:`_checks` over :func:`build_scenario_objects`:
    each carries its name, the measured residual and whether it is within ``tolerance``.  A
    constructor's refusal fails whatever ``tolerance`` is, with the residual it measured and
    its message under ``refused``.  The meter checks measure the closed-form quantities
    ``run`` reports against the explicit composite state, built here and nowhere else.
    ``tolerance`` is a finite number >= 0.
    """
    _instance("scenario", scenario, Scenario)
    tolerance = _number("tolerance", tolerance, 0)
    checks = [
        {"name": name, "residual": value.residual, "pass": False, "refused": str(value)}
        if isinstance(value, RefusedInput)
        else {"name": name, "residual": float(value), "pass": bool(value <= tolerance)}
        for name, value in _checks(scenario, build_scenario_objects(scenario))
    ]
    return {
        "tool": "csm-sim",
        "version": __version__,
        "tolerance": tolerance,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
