"""Declarative scenario files.

A scenario is a single JSON document describing an experiment: the space
dimension, a named set of contexts, a protocol (ordered context names plus
the known initial outcome), an optional meter coupling, and optional
parameter grids.  Complex matrix entries are written either as plain
numbers or as two-element ``[re, im]`` arrays.

Parsing is strict: unknown or repeated keys are rejected, every referenced
name must resolve, and the document's ``dim`` bounds the tables.  The parser
reads the file format; a context or gram object becomes a ``ContextSpec`` or
``GramSpec``, which checks its kind's rules, and a sweep grid, from the file,
the command line or a library caller, is checked by :func:`sweep_grid`.  So a
scenario that parses will also build, except where :class:`~csm_sim.hilbert.Context`
or :class:`~csm_sim.qnd.Gram` refuses an explicit matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ScenarioParseError, ScenarioValidationError
from .hilbert import CONTEXT_FIELDS, ContextSpec, _integer, _number
from .qnd import GRAM_FIELDS, GramSpec, _strength

SCHEMA_VERSION = 1

SWEEP_PARAMS = ("g", "m_count", "phase")  # in report order

# Bytes the dim-sized arrays of a scenario may take, checked at parse time so
# that an oversized ``dim`` is refused before anything is built.  Transient
# products (B†B at construction, the residuals of ``verify``) add a few more
# dim² arrays on top.
MAX_TABLE_BYTES = 1 << 29


def table_bytes(dim: int, n_contexts: int, n_steps: int) -> int:
    """Bytes of the bases and of the overlap and return tables of a scenario.

    Per dim² entries: each context holds a complex basis and its conjugate
    (32 B), and each protocol step two complex overlap tables (32 B) and two
    real return tables (16 B).
    """
    return dim * dim * (32 * n_contexts + 48 * n_steps)


@dataclass(frozen=True)
class MeterSpec:
    pointer: str
    gram: GramSpec


@dataclass(frozen=True)
class ProtocolSpec:
    initial_context: str
    initial_index: int
    sequence: tuple[str, ...]


@dataclass(frozen=True)
class SweepSpec:
    g: tuple[float, ...] | None = None
    m_count: tuple[int, ...] | None = None
    phase: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Scenario:
    """Validated scenario plus the raw document it came from (for echoing)."""

    dim: int
    contexts: dict[str, ContextSpec]
    protocol: ProtocolSpec
    meter: MeterSpec | None
    sweep: SweepSpec | None
    raw: dict


def _require_keys(field: str, data: dict, required: set[str], allowed: set[str]) -> None:
    if not isinstance(data, dict):
        raise ScenarioValidationError(field, f"expected an object, got {type(data).__name__}")
    for key in data:
        if key not in allowed:
            raise ScenarioValidationError(f"{field}.{key}", "unknown key")
    for key in required:
        if key not in data:
            raise ScenarioValidationError(f"{field}.{key}", "missing required key")


def _complex_entry(field: str, value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(f"{field}[0]", value[0]), _number(f"{field}[1]", value[1]))
    raise ScenarioValidationError(field, f"expected a number or [re, im] pair, got {value!r}")


def _matrix(field: str, data, dim: int) -> np.ndarray:
    if not isinstance(data, list) or len(data) != dim:
        raise ScenarioValidationError(field, f"expected {dim} rows")
    rows = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioValidationError(f"{field}[{r}]", f"expected {dim} entries")
        rows.append([_complex_entry(f"{field}[{r}][{c}]", v) for c, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _recipe(field: str, data, dim: int, fields: dict[str, tuple[str, ...]], make):
    """``make(kind, **keys)`` of an object holding ``kind`` and exactly the keys ``fields`` lists.

    A matrix is read from its rows here; every other rule is the recipe's, refused under ``field``.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ScenarioValidationError(field, "expected an object with a 'kind' key")
    kind, keys = data["kind"], {}
    if _known(kind, fields):  # an unknown kind is the recipe's to refuse
        _require_keys(field, data, {"kind", *fields[kind]}, {"kind", *fields[kind]})
        keys = {key: data[key] for key in fields[kind]}
        if "matrix" in keys:
            keys["matrix"] = _matrix(f"{field}.matrix", keys["matrix"], dim)
    try:
        return make(kind, **keys)
    except ScenarioValidationError as err:
        raise ScenarioValidationError(f"{field}.{err.field}", err.reason) from None


def _known(value, names: dict) -> bool:
    # a list or object is unhashable, so test the type before the lookup
    return isinstance(value, str) and value in names


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioParseError(f"non-finite number {text} is not allowed")
    return value


def _integer_literal(text: str) -> int:
    # every number may end up as a float, so an integer must fit a double
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):
        raise ScenarioParseError(
            f"non-finite number: integer literal of {len(text)} characters overflows a double"
        ) from None
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads keeps the last of two equal keys without a word
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def sweep_grid(param: str, values, has_meter: bool, n_contexts: int) -> tuple:
    """``values`` as the grid of a ``param`` sweep, or the error that refuses it.

    ``param`` is one of ``SWEEP_PARAMS``; ``values`` is a non-empty list whose entries are
    each read by one value's rule, which names the entry it refuses: an integer >= 0
    (``m_count``), a strength as ``GramSpec`` reads ``g`` (``sweep.g[2]: strength 2.0
    outside [0, 1]``) or a finite number (``phase``).  The scenario has a meter (``g``,
    ``m_count``) or two protocol contexts (``phase``) to vary.
    """
    field = f"sweep.{param}"
    if param not in SWEEP_PARAMS:
        raise ScenarioValidationError(field, "unknown key")
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        raise ScenarioValidationError(field, "expected a non-empty list")
    entry = {"g": _strength, "m_count": partial(_integer, least=0), "phase": _number}[param]
    grid = tuple(entry(f"{field}[{i}]", v) for i, v in enumerate(values))
    if param != "phase" and not has_meter:
        raise ScenarioValidationError(field, "needs a meter section")
    if param == "phase" and n_contexts < 2:
        raise ScenarioValidationError(field, "needs two protocol contexts")
    return grid


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file.

    Raises
    ------
    OSError
        The file cannot be read: missing, a directory, or not permitted.
    ScenarioParseError
        Text that is not UTF-8, syntactically invalid JSON (with line/column),
        nesting too deep to parse, a key repeated within one object, or a
        non-finite number (``NaN``, ``Infinity``, or a float or integer
        literal that overflows a double).
    ScenarioValidationError
        Schema violation, naming the offending field; also a ``dim`` whose
        :func:`table_bytes` exceed ``MAX_TABLE_BYTES``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(
            text, object_pairs_hook=_unique_keys,
            parse_constant=_finite, parse_float=_finite, parse_int=_integer_literal,
        )
    except json.JSONDecodeError as err:
        raise ScenarioParseError(err.msg, err.lineno, err.colno) from err
    except (UnicodeDecodeError, RecursionError) as err:  # not UTF-8, or nested too deep
        raise ScenarioParseError(f"unreadable text: {err}") from None
    if not isinstance(raw, dict):
        raise ScenarioValidationError("document", "top level must be an object")

    _require_keys(
        "document",
        raw,
        {"schema_version", "dim", "contexts", "protocol"},
        {"schema_version", "dim", "contexts", "protocol", "meter", "sweep"},
    )
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ScenarioValidationError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {raw['schema_version']!r}"
        )
    dim = _integer("dim", raw["dim"], 2)

    if not isinstance(raw["contexts"], dict) or not raw["contexts"]:
        raise ScenarioValidationError("contexts", "expected a non-empty object")
    contexts = {
        name: _recipe(f"contexts.{name}", spec, dim, CONTEXT_FIELDS, partial(ContextSpec, dim=dim))
        for name, spec in raw["contexts"].items()
    }

    _require_keys("protocol", raw["protocol"], {"initial", "sequence"}, {"initial", "sequence"})
    _require_keys(
        "protocol.initial", raw["protocol"]["initial"], {"context", "index"}, {"context", "index"}
    )
    sequence = raw["protocol"]["sequence"]
    if not isinstance(sequence, list) or not sequence:
        raise ScenarioValidationError("protocol.sequence", "expected a non-empty list of names")
    for pos, name in enumerate(sequence):
        if not _known(name, contexts):
            raise ScenarioValidationError(
                f"protocol.sequence[{pos}]", f"undefined context {name!r}"
            )
    initial_context = raw["protocol"]["initial"]["context"]
    if not _known(initial_context, contexts):
        raise ScenarioValidationError(
            "protocol.initial.context", f"undefined context {initial_context!r}"
        )
    if initial_context != sequence[0]:
        raise ScenarioValidationError(
            "protocol.initial.context",
            f"{initial_context!r} is not the first context of the sequence ({sequence[0]!r})",
        )
    initial_index = _integer("protocol.initial.index", raw["protocol"]["initial"]["index"])
    if not 0 <= initial_index < dim:
        raise ScenarioValidationError(
            "protocol.initial.index", f"{initial_index} not in [0, {dim})"
        )
    protocol = ProtocolSpec(initial_context, initial_index, tuple(sequence))
    footprint = table_bytes(dim, len(contexts), len(sequence) - 1)
    if footprint > MAX_TABLE_BYTES:
        raise ScenarioValidationError(
            "dim",
            f"{dim} needs {footprint} bytes of bases and tables, "
            f"more than the budget of {MAX_TABLE_BYTES}",
        )

    meter = None
    if "meter" in raw:
        _require_keys("meter", raw["meter"], {"pointer", "gram"}, {"pointer", "gram"})
        pointer = raw["meter"]["pointer"]
        if not _known(pointer, contexts):
            raise ScenarioValidationError("meter.pointer", f"undefined context {pointer!r}")
        gram = _recipe("meter.gram", raw["meter"]["gram"], dim, GRAM_FIELDS, GramSpec)
        meter = MeterSpec(pointer, gram)

    sweep = None
    if "sweep" in raw:
        _require_keys("sweep", raw["sweep"], set(), set(SWEEP_PARAMS))
        sweep = SweepSpec(**{
            key: sweep_grid(key, entries, meter is not None, len(sequence))
            for key, entries in raw["sweep"].items()
        })

    return Scenario(dim, contexts, protocol, meter, sweep, raw)
