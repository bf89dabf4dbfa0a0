"""The determinism contract across CPU kernels: the checked-in scenarios under OpenBLAS's
default kernel, ``OPENBLAS_CORETYPE=Haswell`` and ``OPENBLAS_CORETYPE=Sandybridge``.

OpenBLAS picks its kernel when NumPy loads, so each kernel runs in a child process of its
own, which returns every scenario's sampled (seed 0, 5,000 samples) and exhaustive report,
its ``verify`` report and its file's sweeps as JSON, a refusal as its text.  Structure and
every value that is no float must agree exactly; a float within 8·eps·max(1, |v|) of the
default kernel's v, and a ``verify`` residual, itself rounding-sized, within 2e-14.  A kernel this CPU cannot run falls
back to the default and moves nothing, so it is skipped by name rather than passed.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED_IN = sorted(ROOT.glob("scenarios/*.json")) + sorted(
    path for path in ROOT.glob("perfbench/scenarios/seed0/*.json")
    if not path.name.endswith(".ref.json")
)
EPS = float(np.finfo(float).eps)
VALUE_BOUND = 8 * EPS  # times max(1, |v|)
RESIDUAL_BOUND = 2e-14

CHILD = """
import json, sys
import csm_sim as cs

def called(call, *args):
    try:
        return call(*args)
    except cs.CsmSimError as err:  # compared as text, as the CLI would print it
        return {"refused": f"{type(err).__name__}: {err}"}

results = {}
for path in sys.argv[1:]:
    scenario = cs.parse_scenario(path)
    results[path] = {
        "sampled": called(cs.run_scenario, scenario, 0, 5000),
        "exhaustive": called(cs.run_scenario, scenario, 0, 0, True),
        "verify": called(cs.verify_report, scenario, 1e-10),
        "sweeps": {param: called(cs.sweep_rows, scenario, param, grid)
                   for param, grid in (scenario.sweeps or {}).items()},
    }
print(json.dumps(results))
"""


def _on_kernel(kernel: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    paths = [str(path.relative_to(ROOT)) for path in CHECKED_IN]
    done = subprocess.run([sys.executable, "-c", CHILD, *paths], capture_output=True,
                          text=True, env=env, cwd=ROOT, check=True)
    return json.loads(done.stdout)


def _floats(a, b, path: str = ""):
    """(key path, a, b) of every float pair; everything else must be equal, types included.
    A list entry that carries a ``name`` is keyed by it, any other index collapsed to ``*``."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), path
        for key in a:
            yield from _floats(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for x, y in zip(a, b):
            named = isinstance(x, dict) and isinstance(x.get("name"), str)
            yield from _floats(x, y, f"{path}[{x['name'] if named else '*'}]")
    elif type(a) is float:
        assert type(b) is float, path
        yield path, a, b
    else:
        assert type(a) is type(b) and a == b, path


@pytest.fixture(scope="module")
def default_kernel() -> dict:
    return _on_kernel(None)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_every_value_agrees_across_blas_kernels(kernel, default_kernel):
    worst = defaultdict(float)  # per key path, the largest gap over its bound
    moved = 0
    for path, a, b in _floats(default_kernel, _on_kernel(kernel)):
        if a == b:
            continue
        moved += 1
        residual = ".verify.checks[" in path and path.endswith("].residual")
        bound = RESIDUAL_BOUND if residual else VALUE_BOUND * max(1.0, abs(a))
        worst[path] = max(worst[path], abs(a - b) / bound)
    if not moved:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} moved no value: this CPU ran the default kernel")
    over = {path: ratio for path, ratio in worst.items() if ratio > 1.0}
    assert not over, over
