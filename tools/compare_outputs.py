"""Diff the CLI output of two csm-sim source trees on every checked-in scenario.

Usage::

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a checkout root (its ``src`` is used) or a directory that
holds the ``csm_sim`` package.  The scenarios are those of the checkout this
script lives in: ``scenarios/*.json`` and ``perfbench/scenarios/seed0/*.json``
(reference files excluded).  On each scenario it runs

    run --seed 0 --trajectories 5000
    run --seed 7 --trajectories 5000
    run --seed 3 --trajectories 40000
    run --exhaustive
    verify
    verify --tolerance 0                (PASS and FAIL rows side by side, exit 1)
    verify --out REPORT                 (the full-precision report, compared too)
    sweep --param g       --from 0 --to 1    --steps 11
    sweep --param m_count --from 0 --to 8    --steps 9
    sweep --param phase   --from 0 --to 2*pi --steps 11

with both trees and compares stdout, stderr, exit code and the file an ``--out``
flag names.  Each tree serves all its invocations from one child process, with
its ``src`` as ``PYTHONPATH`` and BLAS on one thread, that calls
``csm_sim.cli.main`` on each with stdout and stderr captured (see ``tree``).  It
then runs the fixed list ``REFUSALS``: documents derived from
``scenarios/balanced_qubit.json``, written to a temporary directory, each with
an invocation the program must refuse, so that a changed exit code or refusal
message shows too.  Among them are a broken grid (in the file or on the
command line), a sweep the scenario cannot serve, an explicit matrix
construction refuses (an overlap matrix with a negative eigenvalue also under
``verify --out``, so that the refusal the report records is compared too, and
under it a basis and an overlap matrix whose residuals overflow a double, and a
document with two refused contexts and a refused overlap matrix under ``verify --out``,
``run`` and two sweeps, so that the order of refusals shows), a
context or gram recipe that breaks a rule of its kind (a negative Haar seed, a
strength outside [0, 1], a rotation in dim 3), a ``schema_version`` that is no
integer, a document rule (an undefined name in the sequence or as the pointer, an
initial context that is not the first, an initial index out of range, an unknown
top-level key), two flags whose rule only the library owns (``verify --tolerance -1``
and ``run --exhaustive --seed -1``), a negative grid end written with an
exponent (``--to -1e-3``), and a chain length of 1e308 under an overlap of -1, whose phase
m·π no double holds (``sweep --param m_count``).  Last it runs the short list ``ADMITTED``
the same way: an explicit basis off orthonormal by 0.99 of the input floor, which the program
admits and holds as its nearest unitary, under ``run --exhaustive`` and
``verify --out``; and, under ``run --exhaustive``, the sequence ``[z, x, h, near, h]``
through a Haar context ``h`` and an explicit context ``near`` 3e-5 from it, whose
transition weights of ~1e-9 must not trip the entropy-production cross-check; under
``run --exhaustive`` and ``verify --out``, a document without a meter and a one-context
protocol, which no checked-in scenario is; and, under ``sweep --param m_count`` at chain
lengths 1e13 and 2e13, an overlap matrix whose off-diagonal modulus is 1 + 5e-11 (smallest
eigenvalue -5e-11), whose coherence must not grow.  Then it runs a generated corpus: the
documents of ``tools/scenario_docs.document(seed)`` for the seeds of ``CORPUS`` (0-199, 947
invocations), with dims 2-6, explicit contexts, documents without a meter and one-context
protocols, each under ``run --seed 0 --trajectories 5000``, ``run --exhaustive`` and
``verify --out REPORT``, and under one ``sweep`` per grid its file declares, from the grid's
least entry to its largest in as many steps.  Some of them are refused by design.

Each invocation prints ``SAME`` or ``DIFF``; a difference also prints the
largest numeric gap between the two outputs (JSON reports, printed or written,
are walked value by value, other text compared number by number).  For a JSON
report it then prints, per key path, how many values moved and the largest
gap among them; in the path a list entry that carries a ``name`` is keyed by
it and any other list index is collapsed to ``[*]``, for example
``results.meter.reduced_state_diagonal[*]: 64 values <= 1.0e-14`` or
``checks[meter.reduced_state].residual: 1 value <= 2.2e-16``; for other
text it prints the lines that differ, aligned by ``difflib``.  Exits 1 if any
invocation differs.  The last two lines count the identical invocations, fixed and corpus.
"""

from __future__ import annotations

import contextlib
import copy
import difflib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
SHOWN_LINES = 10
REPORT = "REPORT"  # in an invocation, the file its --out flag writes, under the temporary directory

INVOCATIONS = [
    ("run seed 0", ["run", "--seed", "0", "--trajectories", "5000"]),
    ("run seed 7", ["run", "--seed", "7", "--trajectories", "5000"]),
    ("run seed 3 40000", ["run", "--seed", "3", "--trajectories", "40000"]),
    ("run exhaustive", ["run", "--exhaustive"]),
    ("verify", ["verify"]),
    ("verify tol 0", ["verify", "--tolerance", "0"]),
    ("verify report", ["verify", "--out", REPORT]),
    ("sweep g", ["sweep", "--param", "g", "--from", "0", "--to", "1", "--steps", "11"]),
    ("sweep m_count", ["sweep", "--param", "m_count", "--from", "0", "--to", "8", "--steps", "9"]),
    (
        "sweep phase",
        ["sweep", "--param", "phase", "--from", "0", "--to", repr(2 * math.pi), "--steps", "11"],
    ),
]


def _rotation_off_by_1e8() -> dict:
    c, s = math.cos(0.3), math.sin(0.3)
    return {"kind": "explicit", "matrix": [[c, -s], [s, c + 1e-8]]}


def _explicit_x_off_by_1e8(doc: dict) -> None:
    doc["contexts"]["x"] = _rotation_off_by_1e8()


def _explicit_x_near_the_floor(doc: dict) -> None:
    # [[c, -s], [s, c + δ]] has a B†B residual of 2cδ + δ²: here 0.99·INPUT_TOL
    c, s = math.cos(0.3), math.sin(0.3)
    doc["contexts"]["x"] = {"kind": "explicit", "matrix": [[c, -s], [s, c + 0.99e-10 / (2 * c)]]}


def _near_context_between_haar_ones(doc: dict) -> None:
    # near = haar(2, 2).basis @ [[cos ε, -i sin ε], [-i sin ε, cos ε]] at ε = 3e-5, written
    # out so that the document does not depend on the tree under test
    doc["contexts"]["h"] = {"kind": "haar", "seed": 2}
    matrix = [
        [[0.10031916610934692, 0.9550307098184778], [-0.26217900708093245, -0.09547029098518577]],
        [[-0.21918151068650107, -0.1726611525153324], [-0.864815088342586, 0.4174235915233653]],
    ]
    doc["contexts"]["near"] = {"kind": "explicit", "matrix": matrix}
    doc["protocol"]["sequence"] = ["z", "x", "h", "near", "h"]


def _gram_modulus_above_1(doc: dict) -> None:
    # smallest eigenvalue -5e-11, admitted: a chain of 1e13 meters once grew its coherence to inf
    doc["meter"]["gram"] = {"kind": "explicit", "matrix": [[1, 1 + 5e-11], [1 + 5e-11, 1]]}


def _gram_negative_unit_overlap(doc: dict) -> None:
    # overlap -1: at a chain length of 1e308 its phase m·π overflows a double
    doc["meter"]["gram"] = {"kind": "explicit", "matrix": [[1, -1], [-1, 1]]}


def _gram_eigenvalue_below_zero(doc: dict) -> None:
    doc["meter"]["gram"] = {"kind": "explicit", "matrix": [[1, 1 + 1e-9], [1 + 1e-9, 1]]}


def _explicit_x_1e300(doc: dict) -> None:
    doc["contexts"]["x"] = {"kind": "explicit", "matrix": [[1e300, 0], [0, 1]]}


def _gram_explicit_1e308(doc: dict) -> None:
    doc["meter"]["gram"] = {"kind": "explicit", "matrix": [[1, 1e308], [1e308, 1]]}


def _unread_explicit_off_by_1e8(doc: dict) -> None:
    doc["contexts"]["unread"] = _rotation_off_by_1e8()


def _three_refusals(doc: dict) -> None:
    _explicit_x_off_by_1e8(doc)
    _unread_explicit_off_by_1e8(doc)
    _gram_eigenvalue_below_zero(doc)


def _no_meter(doc: dict) -> None:
    del doc["meter"], doc["sweep"]


def _one_context(doc: dict) -> None:
    doc["protocol"]["sequence"] = ["z"]
    del doc["sweep"]


def _no_meter_and_explicit_x_off_by_1e8(doc: dict) -> None:
    _no_meter(doc)
    _explicit_x_off_by_1e8(doc)


def _g_grid_0_1_2(doc: dict) -> None:
    doc["sweep"]["g"] = [0, 1, 2]


def _m_count_grid_3_1_1(doc: dict) -> None:
    doc["sweep"]["m_count"] = [-3, -1, 1]


def _unedited(doc: dict) -> None:
    pass


def _x_haar_seed_minus_1(doc: dict) -> None:
    doc["contexts"]["x"] = {"kind": "haar", "seed": -1}


def _gram_g_1_5(doc: dict) -> None:
    doc["meter"]["gram"]["g"] = 1.5


def _x_rotation_in_dim_3(doc: dict) -> None:
    doc["dim"] = 3


def _schema_version_true(doc: dict) -> None:
    doc["schema_version"] = True


def _sequence_names_nope(doc: dict) -> None:
    doc["protocol"]["sequence"] = ["z", "nope"]


def _initial_context_x(doc: dict) -> None:
    doc["protocol"]["initial"]["context"] = "x"


def _initial_index_2(doc: dict) -> None:
    doc["protocol"]["initial"]["index"] = 2


def _pointer_nope(doc: dict) -> None:
    doc["meter"]["pointer"] = "nope"


def _unknown_top_level_key(doc: dict) -> None:
    doc["comment"] = "unread"


SWEEP_G = ["sweep", "--param", "g", "--from", "0", "--to", "1", "--steps", "3"]
SWEEP_PHASE = ["sweep", "--param", "phase", "--from", "0", "--to", "1", "--steps", "3"]

# (document name, edit of balanced_qubit.json, invocation)
REFUSALS = [
    ("explicit_x_off_by_1e-8", _explicit_x_off_by_1e8, ["verify", "--tolerance", "1e-6"]),
    ("gram_eigenvalue_-1e-9", _gram_eigenvalue_below_zero, ["verify", "--tolerance", "1e-6"]),
    # the written report carries the refusal's text and residual, compared value by value
    ("gram_eigenvalue_-1e-9", _gram_eigenvalue_below_zero, ["verify", "--out", REPORT]),
    # matrices near a double's limit: each residual stays finite, so the report is written
    ("explicit_x_1e300", _explicit_x_1e300, ["verify", "--out", REPORT]),
    ("gram_explicit_1e308", _gram_explicit_1e308, ["verify", "--out", REPORT]),
    ("no_meter", _no_meter, SWEEP_G),
    ("one_context", _one_context, SWEEP_PHASE),
    # a sweep builds only what it reads, but still refuses every input run refuses
    ("gram_eigenvalue_-1e-9", _gram_eigenvalue_below_zero, SWEEP_G),
    ("gram_eigenvalue_-1e-9", _gram_eigenvalue_below_zero, SWEEP_PHASE),
    ("unread_explicit_off_by_1e-8", _unread_explicit_off_by_1e8, SWEEP_G),
    # two refused contexts and a refused overlap matrix: verify records both contexts and
    # builds nothing after them; run and both sweeps raise the first, x
    ("three_refusals", _three_refusals, ["verify", "--out", REPORT]),
    ("three_refusals", _three_refusals, ["run"]),
    ("three_refusals", _three_refusals, SWEEP_G),
    ("three_refusals", _three_refusals, SWEEP_PHASE),
    # an exact ensemble ignores the sample count, but not a negative one
    ("unedited", _unedited, ["run", "--exhaustive", "--trajectories", "-1"]),
    # a sample is needed unless the run is exhaustive, and a sweep grid must lie in its domain
    ("unedited", _unedited, ["run", "--trajectories", "0"]),
    ("unedited", _unedited, ["sweep", "--param", "g", "--from", "0", "--to", "2", "--steps", "3"]),
    (
        "unedited",
        _unedited,
        ["sweep", "--param", "m_count", "--from", "-3", "--to", "1", "--steps", "3"],
    ),
    # the same two grids in the file, and a grid the scenario cannot serve,
    # which is refused before an input construction refuses is built
    ("g_grid_0_1_2", _g_grid_0_1_2, ["run"]),
    ("m_count_grid_-3_-1_1", _m_count_grid_3_1_1, ["run"]),
    ("no_meter_and_explicit_x_off_by_1e-8", _no_meter_and_explicit_x_off_by_1e8, SWEEP_G),
    # a context or gram recipe that breaks a rule of its kind
    ("x_haar_seed_-1", _x_haar_seed_minus_1, ["run"]),
    ("gram_g_1.5", _gram_g_1_5, ["run"]),
    ("x_rotation_in_dim_3", _x_rotation_in_dim_3, ["run"]),
    # an integer field read as an integer: true once compared equal to 1
    ("schema_version_true", _schema_version_true, ["run"]),
    # a rule of the document itself: names that resolve, the protocol's start, its keys
    ("sequence_names_nope", _sequence_names_nope, ["run"]),
    ("initial_context_x", _initial_context_x, ["run"]),
    ("initial_index_2", _initial_index_2, ["run"]),
    ("pointer_nope", _pointer_nope, ["run"]),
    ("unknown_top_level_key", _unknown_top_level_key, ["run"]),
    # flags whose rule only the library owns
    ("unedited", _unedited, ["verify", "--tolerance", "-1"]),
    ("unedited", _unedited, ["run", "--exhaustive", "--seed", "-1"]),
    # a negative grid end written with an exponent is read as a number, not as an option
    (
        "unedited",
        _unedited,
        ["sweep", "--param", "g", "--from", "0", "--to", "-1e-3", "--steps", "3"],
    ),
    # a chain length whose phase m·arg of a unit overlap no double holds
    (
        "gram_negative_unit_overlap",
        _gram_negative_unit_overlap,
        ["sweep", "--param", "m_count", "--from", "1e308", "--to", "1e308", "--steps", "1"],
    ),
]


# (document name, edit of balanced_qubit.json, invocation): inputs the program must admit
ADMITTED = [
    ("explicit_x_near_the_floor", _explicit_x_near_the_floor, ["run", "--exhaustive"]),
    ("explicit_x_near_the_floor", _explicit_x_near_the_floor, ["verify", "--out", REPORT]),
    ("near_context_between_haar_ones", _near_context_between_haar_ones, ["run", "--exhaustive"]),
    ("no_meter", _no_meter, ["run", "--exhaustive"]),
    ("no_meter", _no_meter, ["verify", "--out", REPORT]),
    ("one_context", _one_context, ["run", "--exhaustive"]),
    ("one_context", _one_context, ["verify", "--out", REPORT]),
    (
        "gram_modulus_above_1",
        _gram_modulus_above_1,
        ["sweep", "--param", "m_count", "--from", "1e13", "--to", "2e13", "--steps", "2"],
    ),
]


def package_dir(arg: str) -> Path:
    path = Path(arg).resolve()
    if (path / "src" / "csm_sim").is_dir():
        return path / "src"
    if (path / "csm_sim").is_dir():
        return path
    sys.exit(f"{arg}: no csm_sim package here or under src/")


def scenarios() -> list[Path]:
    found = sorted(ROOT.glob("scenarios/*.json"))
    found += sorted(p for p in ROOT.glob("perfbench/scenarios/seed0/*.json")
                    if not p.name.endswith(".ref.json"))
    return found


CORPUS = range(200)  # the seeds of scenario_docs.document
CORPUS_INVOCATIONS = [
    ["run", "--seed", "0", "--trajectories", "5000"], ["run", "--exhaustive"],
    ["verify", "--out", REPORT],
]


def _scenario_docs():
    path = ROOT / "tools" / "scenario_docs.py"
    spec = importlib.util.spec_from_file_location("scenario_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def invocations(tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every invocation: ``INVOCATIONS`` on each scenario, then ``REFUSALS``,
    then ``ADMITTED``, then ``CORPUS_INVOCATIONS`` and a sweep per grid on each document of
    ``CORPUS``.

    The edited and generated documents, and the files ``--out`` writes, go to ``tmp``.
    """

    def argv(args: list[str], scenario: Path) -> list[str]:
        args = [str(tmp / "report.json") if arg == REPORT else arg for arg in args]
        return [args[0], str(scenario), *args[1:]]

    found = []
    for scenario in scenarios():
        label = scenario.relative_to(ROOT)
        found += [(f"{label}  {name}", argv(args, scenario)) for name, args in INVOCATIONS]
    base = json.loads((ROOT / "scenarios" / "balanced_qubit.json").read_text())
    for kind, edits in (("refusal", REFUSALS), ("admitted", ADMITTED)):
        for name, edit, args in edits:
            doc = copy.deepcopy(base)
            edit(doc)
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(doc))
            found.append((f"{kind} {name}  {' '.join(args)}", argv(args, path)))
    document = _scenario_docs().document
    for seed in CORPUS:
        doc = document(seed)
        path = tmp / f"corpus_{seed:03d}.json"
        path.write_text(json.dumps(doc))
        sweeps = [  # from the file grid's least entry to its largest, in as many steps
            ["sweep", "--param", param, "--from", repr(float(min(grid))),
             "--to", repr(float(max(grid))), "--steps", str(len(grid))]
            for param, grid in doc.get("sweep", {}).items()
        ]
        for args in CORPUS_INVOCATIONS + sweeps:
            found.append((f"corpus {seed:03d}  {' '.join(args)}", argv(args, path)))
    return found


# The child process: one argv list per JSON line in, one JSON line [exit code, stdout, stderr,
# written report] out.  Each invocation ends as a process would: argparse's usage errors by
# their SystemExit code, an exception that escapes main in exit 1 with its traceback on stderr,
# each warning printed once per place, as in a fresh process.
CHILD = """
import contextlib, io, json, sys, traceback, warnings
from pathlib import Path
from csm_sim.cli import main

for line in iter(sys.stdin.readline, ""):
    args = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = main(args)
            except SystemExit as exit:
                code = exit.code
            except Exception:
                traceback.print_exc()
                code = 1
    written = ""
    if "--out" in args:  # read and removed, so the other tree's run writes it afresh
        path = Path(args[args.index("--out") + 1])
        written = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
    print(json.dumps([code, out.getvalue(), err.getvalue(), written]), flush=True)
"""


@contextlib.contextmanager
def tree(src: Path):
    """``invoke(args)``: exit code, stdout, stderr and the text of the file ``--out`` names (""
    if none) of ``csm-sim args``, run through ``csm_sim.cli.main`` in one child process, with
    ``src`` as its ``PYTHONPATH`` and BLAS on one thread, that serves every invocation."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with subprocess.Popen([sys.executable, "-c", CHILD], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as child:

        def invoke(args: list[str]) -> tuple[int, str, str, str]:
            child.stdin.write(json.dumps(args) + "\n")
            child.stdin.flush()
            line = child.stdout.readline()
            if not line:
                sys.exit(f"{src}: the child process ended at {args}")
            return tuple(json.loads(line))

        try:
            yield invoke
        finally:
            child.stdin.close()


def _moved_values(a, b, path: str = "") -> list[tuple[str, float]] | None:
    """(key path, |a - b|) of every number that differs, or None if the structures differ.

    In the path, a list entry is keyed by its ``name``, if it carries one, and by ``*``
    otherwise, so that a moved ``verify`` check is named.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return None
        parts = [_moved_values(a[k], b[k], f"{path}.{k}" if path else k) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [_moved_values(x, y, f"{path}[{_entry_key(x)}]") for x, y in zip(a, b)]
    elif isinstance(a, bool) or isinstance(b, bool):
        return [] if a == b else None
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return [] if a == b else [(path, abs(float(a) - float(b)))]
    else:
        return [] if a == b else None
    return None if None in parts else [moved for part in parts for moved in part]


def _entry_key(entry) -> str:
    named = isinstance(entry, dict) and isinstance(entry.get("name"), str)
    return entry["name"] if named else "*"


def _parse_pair(a: str, b: str) -> tuple | None:
    try:
        return json.loads(a), json.loads(b)
    except ValueError:
        return None


def gaps_by_path(a: str, b: str) -> dict[str, tuple[int, float]] | None:
    """Per key path, (count of moved values, largest gap), for two JSON outputs.

    None if either output is not JSON or the two differ in structure.
    """
    docs = _parse_pair(a, b)
    moves = None if docs is None else _moved_values(*docs)
    if moves is None:
        return None
    grouped: dict[str, tuple[int, float]] = {}
    for path, gap in moves:
        count, largest = grouped.get(path, (0, 0.0))
        grouped[path] = (count + 1, max(largest, gap))
    return grouped


def numeric_gap(a: str, b: str) -> float | None:
    """Largest numeric gap between two outputs, or None if they differ in structure."""
    docs = _parse_pair(a, b)
    if docs is not None:
        moves = _moved_values(*docs)
        return None if moves is None else max((gap for _, gap in moves), default=0.0)
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    pairs = zip(NUMBER.findall(a), NUMBER.findall(b))
    return max((abs(float(x) - float(y)) for x, y in pairs), default=0.0)


def describe(parent: tuple, change: tuple) -> list[str]:
    """Notes on how two (exit code, stdout, stderr[, written report]) results differ."""
    notes = []
    if parent[0] != change[0]:
        notes.append(f"exit code {parent[0]} -> {change[0]}")
    for name, a, b in zip(("stdout", "stderr", "report"), parent[1:], change[1:]):
        if a == b:
            continue
        gap = numeric_gap(a, b)
        notes.append(f"{name}: " + ("structure differs" if gap is None else f"max gap {gap:.3e}"))
        grouped = gaps_by_path(a, b)
        if grouped is not None:
            for path, (count, largest) in grouped.items():
                notes.append(f"  {path}: {count} value{'s' * (count != 1)} <= {largest:.1e}")
            continue
        # aligned by difflib, so a line inserted in one output shows alone
        diffs = [d for d in difflib.ndiff(a.splitlines(), b.splitlines()) if d[:1] in "-+"]
        notes += [f"  {d[0]} {d[2:].strip()}" for d in diffs[: 2 * SHOWN_LINES]]
        if len(diffs) > 2 * SHOWN_LINES:
            notes.append(f"  ... {len(diffs) - 2 * SHOWN_LINES} more differing lines")
    return notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = (package_dir(arg) for arg in argv)
    same = {"fixed": [0, 0], "corpus": [0, 0]}  # per kind: identical, all
    with tempfile.TemporaryDirectory() as tmp, tree(parent_src) as on_parent, \
            tree(change_src) as on_change:
        for label, args in invocations(Path(tmp)):
            parent, change = on_parent(args), on_change(args)
            counts = same["corpus" if label.startswith("corpus ") else "fixed"]
            counts[1] += 1
            if parent == change:
                counts[0] += 1
                print(f"SAME  {label}")
                continue
            print(f"DIFF  {label}")
            for note in describe(parent, change):
                print(f"      {note}")
    for kind, (identical, total) in same.items():
        print(f"{identical} of {total} {kind} invocations identical")
    return 0 if all(identical == total for identical, total in same.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
