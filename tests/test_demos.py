import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Each demo's stdout, captured before its last edit; a demo must print it byte for byte.
EXPECTED = ROOT / "demos" / "expected"


def test_demos_found():
    assert len(DEMOS) >= 4
    assert sorted(path.stem for path in EXPECTED.glob("*.txt")) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
