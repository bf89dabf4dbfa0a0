"""Declarative scenario files.

A scenario is a single JSON document describing an experiment: the space
dimension, a named set of contexts, a protocol (ordered context names plus
the known initial outcome), an optional meter coupling, and optional
parameter grids.  Complex matrix entries are written either as plain
numbers or as two-element ``[re, im]`` arrays.

:class:`Scenario` is the document, made from the object ``json.loads`` returns: it
owns every rule of the file format and checks each once, when made.  Unknown keys are
rejected, every referenced name must resolve, and ``dim`` bounds the tables.  A context
or gram object becomes a ``ContextSpec`` or ``GramSpec``, which checks its kind's rules,
and a sweep grid, from the file, the command line or a library caller, is checked by
:func:`sweep_grid`.  :func:`parse_scenario` reads the text, refusing what ``json.loads``
alone would admit (a repeated key, a non-finite number), and makes the scenario.  So a
scenario that is made will also build, except where :class:`~csm_sim.hilbert.Context` or
:class:`~csm_sim.qnd.Gram` refuses an explicit matrix.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ScenarioParseError, ScenarioValidationError
from .hilbert import CONTEXT_FIELDS, MAX_DIM, ContextSpec, _hold, _integer, _number, _shown, _Value
from .hilbert import check_index
from .qnd import GRAM_FIELDS, GramSpec, _chain_length, _strength

SCHEMA_VERSION = 1

SWEEP_PARAMS = ("g", "m_count", "phase")  # in report order

# Bytes the dim-sized arrays of a scenario may take, checked at parse time so
# that an oversized ``dim`` is refused before anything is built: one basis and its
# conjugate at the largest dim, 2**29.  Transient products (B†B at construction,
# the residuals of ``verify``) add a few more dim² arrays on top.
MAX_TABLE_BYTES = 32 * MAX_DIM * MAX_DIM


def table_bytes(dim: int, n_contexts: int, n_steps: int) -> int:
    """Bytes of the bases and of the overlap and return tables of a scenario.

    Per dim² entries: each context holds a complex basis and its conjugate
    (32 B), and each protocol step two complex overlap tables (32 B) and two
    real return tables (16 B).
    """
    return dim * dim * (32 * n_contexts + 48 * n_steps)


class Scenario(_Value):
    """A scenario document, ``raw``, refused at the first rule it breaks, naming the field.

    It holds ``raw`` as given, for a report to echo, so every value in it is one that
    ``json.loads`` returns; and what it read from it: ``dim``; ``contexts``, a ``ContextSpec``
    per name; ``sequence``, the protocol's context names, whose first is the initial context;
    ``initial_index``; ``pointer`` and ``gram`` (a ``GramSpec``), None without a meter;
    ``sweeps``, each grid by parameter in ``SWEEP_PARAMS`` order, None without a sweep section.
    Equality and ``repr`` follow ``raw``, a dict, so a scenario is unhashable.  The document is
    read once, when the scenario is made, and not copied: edit a copy of it, not the one a
    scenario holds.
    """

    raw: dict

    def __post_init__(self):
        raw = self.raw
        if not isinstance(raw, dict):
            raise ScenarioValidationError("document", "top level must be an object")
        _require_keys("document", raw, ("schema_version", "dim", "contexts", "protocol"),
                      ("meter", "sweep"))
        if _integer("schema_version", raw["schema_version"]) != SCHEMA_VERSION:
            reason = f"expected {SCHEMA_VERSION}, got {_shown(raw['schema_version'])}"
            raise ScenarioValidationError("schema_version", reason)
        dim = _integer("dim", raw["dim"], 2, MAX_DIM)

        if not isinstance(raw["contexts"], dict) or not raw["contexts"]:
            raise ScenarioValidationError("contexts", "expected a non-empty object")
        make_context = partial(ContextSpec, dim=dim)
        contexts = {
            name: _recipe(f"contexts.{_shown(name, str)}", spec, dim, CONTEXT_FIELDS,
                          make_context)
            for name, spec in raw["contexts"].items()
        }

        protocol = raw["protocol"]
        _require_keys("protocol", protocol, ("initial", "sequence"))
        initial = protocol["initial"]
        _require_keys("protocol.initial", initial, ("context", "index"))
        sequence = protocol["sequence"]
        if not isinstance(sequence, list) or not sequence:
            raise ScenarioValidationError("protocol.sequence", "expected a non-empty list of names")
        for pos, name in enumerate(sequence):
            if not _known(name, contexts):
                raise ScenarioValidationError(
                    f"protocol.sequence[{pos}]", f"undefined context {_shown(name)}"
                )
        first = initial["context"]
        if not _known(first, contexts):
            reason = f"undefined context {_shown(first)}"
            raise ScenarioValidationError("protocol.initial.context", reason)
        if first != sequence[0]:
            reason = f"{first!r} is not the first context of the sequence ({sequence[0]!r})"
            raise ScenarioValidationError("protocol.initial.context", reason)
        initial_index = _integer("protocol.initial.index", initial["index"])
        check_index("protocol.initial.index", initial_index, dim)
        footprint = table_bytes(dim, len(contexts), len(sequence) - 1)
        if footprint > MAX_TABLE_BYTES:
            raise ScenarioValidationError(
                "dim",
                f"{dim} needs {footprint} bytes of bases and tables, "
                f"more than the budget of {MAX_TABLE_BYTES}",
            )

        pointer = gram = None
        if "meter" in raw:
            _require_keys("meter", raw["meter"], ("pointer", "gram"))
            pointer = raw["meter"]["pointer"]
            if not _known(pointer, contexts):
                raise ScenarioValidationError("meter.pointer", f"undefined context {_shown(pointer)}")
            gram = _recipe("meter.gram", raw["meter"]["gram"], dim, GRAM_FIELDS, GramSpec)

        sweeps = None
        if "sweep" in raw:
            _require_keys("sweep", raw["sweep"], (), SWEEP_PARAMS)
            grids = {
                param: sweep_grid(param, values, pointer is not None, len(sequence))
                for param, values in raw["sweep"].items()
            }
            sweeps = {param: grids[param] for param in SWEEP_PARAMS if param in grids}

        for key, value in raw.items():
            _json_value(key, value)
        _hold(self, dim=dim, contexts=contexts, sequence=tuple(sequence),
              initial_index=initial_index, pointer=pointer, gram=gram, sweeps=sweeps)


def _json_value(field: str, value) -> None:
    """Refuse ``value`` unless it is one ``json.loads`` returns, so that a report can echo it:
    a dict of string keys, a list, a string, an int, a float, a bool or None, nested, each of
    that type exactly (a NumPy scalar, an array or a tuple is refused, naming its field), and
    an int within ``str``'s digit limit, the only ones ``json.loads`` reads or a report writes."""
    if type(value) is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise ScenarioValidationError(field, f"expected string keys, got {_shown(key):.60}")
            _json_value(f"{field}.{key}", item)
    elif type(value) is list:
        for i, item in enumerate(value):
            _json_value(f"{field}[{i}]", item)
    elif type(value) is int:
        try:
            str(value)
        except ValueError:  # sys.get_int_max_str_digits() exceeded
            reason = f"expected a JSON value, got {_shown(value)}"
            raise ScenarioValidationError(field, reason) from None
    elif type(value) not in (str, float, bool, type(None)):
        raise ScenarioValidationError(field, f"expected a JSON value, got {_shown(value):.60}")


def _require_keys(field: str, data: dict, required: tuple, optional: tuple = ()) -> None:
    """Refuse ``data`` unless it is an object of ``required`` keys and some ``optional`` ones:
    its first unknown key, else the first missing one in ``required``'s order."""
    if not isinstance(data, dict):
        raise ScenarioValidationError(field, f"expected an object, got {type(data).__name__}")
    for key in data:
        if key not in required and key not in optional:
            raise ScenarioValidationError(f"{field}.{_shown(key, str)}", "unknown key")
    for key in required:
        if key not in data:
            raise ScenarioValidationError(f"{field}.{key}", "missing required key")


def _complex_entry(field: str, value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(field, value))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(f"{field}[0]", value[0]), _number(f"{field}[1]", value[1]))
    raise ScenarioValidationError(field, f"expected a number or [re, im] pair, got {_shown(value)}")


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
        _require_keys(field, data, ("kind", *fields[kind]))
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
    each read by one value's rule, which names the entry it refuses: a chain length, an
    integer >= 0 that a double holds (``m_count``), a strength as ``GramSpec`` reads ``g``
    (``sweep.g[2]: strength 2.0 outside [0, 1]``) or a finite number (``phase``).  The
    scenario has a meter (``g``, ``m_count``) or two protocol contexts (``phase``) to vary.
    """
    field = f"sweep.{param}"
    if param not in SWEEP_PARAMS:
        raise ScenarioValidationError(field, "unknown key")
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        raise ScenarioValidationError(field, "expected a non-empty list")
    entry, grid = {"g": _strength, "m_count": _chain_length, "phase": _number}[param], []
    try:  # each rule reads the bare field; only the entry refused is named with its index
        for value in values:
            grid.append(entry(field, value))
    except ScenarioValidationError as err:
        raise ScenarioValidationError(f"{field}[{len(grid)}]", err.reason) from None
    if param != "phase" and not has_meter:
        raise ScenarioValidationError(field, "needs a meter section")
    if param == "phase" and n_contexts < 2:
        raise ScenarioValidationError(field, "needs two protocol contexts")
    return tuple(grid)


def parse_scenario(path: str | Path) -> Scenario:
    """The :class:`Scenario` a scenario file's text holds.

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
        A rule of the document that :class:`Scenario` refuses, naming the field;
        also a ``dim`` whose :func:`table_bytes` exceed ``MAX_TABLE_BYTES``.
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
    return Scenario(raw)
