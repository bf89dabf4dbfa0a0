"""A ``csm-sim`` process as a whole: its entry, its imports, its stdout and its BLAS threads."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from csm_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = str(ROOT / "scenarios" / "balanced_qubit.json")
TABLES_D64 = ROOT / "perfbench" / "scenarios" / "seed0" / "tables_d64.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environ(**env) -> dict:
    """The environment of a fresh interpreter on this checkout's sources; ``env`` entries of
    None are unset."""
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, value in env.items():
        environ.pop(name, None)
        if value is not None:
            environ[name] = value
    return environ


def _python(args, stdout=subprocess.PIPE, **env):
    """Run a fresh interpreter on this checkout's sources; ``env`` as :func:`_environ` reads it."""
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=_environ(**env),
        text=True, timeout=120,
    )


def test_importing_the_cli_generates_no_code():
    # a dataclass compiles its methods from "<string>" source: 64 at 12 classes
    code = (
        "import sys, numpy\n"
        "events = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and events.append(args[1]))\n"
        "import csm_sim.cli\n"
        "print(events.count('<string>'))\n"
    )
    done = _python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    # a freeze inside main would take this list out of the collector's view; the freeze count
    # cannot tell, because it falls when a frozen object dies, as a stale ABC cache does when
    # main first checks a type after the package's import froze it
    made_before = []
    assert main(["verify", SCENARIO]) == 0
    assert main(["run", SCENARIO, "--trajectories", "10"]) == 0
    assert any(obj is made_before for obj in gc.get_objects())
    assert gc.isenabled()


def test_importing_the_package_freezes_its_heap_and_the_entry_exits_with_mains_code():
    # the package's import, not the entry, freezes: a library caller skips the walk too, and
    # the collector's switch is the caller's, whichever way it was set
    for switch in ("enable", "disable"):
        code = (
            "import atexit, gc, sys\n"
            f"gc.{switch}()\n"
            "enabled, before = gc.isenabled(), gc.get_freeze_count()\n"
            "import csm_sim\n"
            "print('imported', before, gc.get_freeze_count() > 0, gc.isenabled() == enabled,\n"
            "      file=sys.stderr)\n"
            "import csm_sim.cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            f"sys.argv = ['csm-sim', 'verify', {SCENARIO!r}, '--tolerance', '-1']\n"
            "csm_sim.cli.entry()\n"
        )
        done = _python(["-c", code])
        assert done.returncode == 2, switch
        assert done.stderr == (
            f"imported 0 True True\n{SCENARIO}: tolerance: must be >= 0, got -1.0\nfrozen True\n"
        ), switch
    assert 'csm-sim = "csm_sim.cli:entry"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", SCENARIO, "--trajectories", "10"],
        ["verify", SCENARIO],
        ["sweep", SCENARIO, "--param", "g", "--from", "0", "--to", "1", "--steps", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_that_cannot_be_written_is_exit_two_with_one_line(argv, unbuffered):
    with open("/dev/full", "w") as full:
        done = _python(["-m", "csm_sim.cli", *argv], stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert (done.returncode, done.stderr) == (2, "stdout: cannot write: No space left on device\n")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(TABLES_D64)],
        ["sweep", str(TABLES_D64), "--param", "g", "--from", "0", "--to", "1", "--steps", "3000"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_whose_reader_leaves_early_is_exit_two_with_one_line(argv, unbuffered):
    # both outputs exceed the 64 KiB a pipe holds, so the reader leaves while they are written;
    # unbuffered, a partial write of the raw file once ended the output with exit code 0
    with subprocess.Popen(
        [sys.executable, "-m", "csm_sim.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=_environ(PYTHONUNBUFFERED=unbuffered),
    ) as child:
        assert len(os.read(child.stdout.fileno(), 1)) == 1
        child.stdout.close()
        stderr = child.stderr.read().decode()
    assert (child.returncode, stderr) == (2, "stdout: cannot write: Broken pipe\n")


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # from dim 128 up, two BLAS threads sum some products in another order than one
    doc = json.loads(TABLES_D64.read_text())
    doc["dim"] = 128
    del doc["sweep"]
    scenario = tmp_path / "d128.json"
    scenario.write_text(json.dumps(doc))
    code = (
        "import sys\n"
        "from csm_sim.cli import main\n"
        "run, verify = sys.argv[1:]\n"
        f"assert main(['run', {str(scenario)!r}, '--trajectories', '100', '--out', run]) == 0\n"
        f"assert main(['verify', {str(scenario)!r}, '--out', verify]) == 0\n"
    )
    outputs = []
    # one thread, a general setting of two (which OpenBLAS reads when its own is unset), none
    for env in ({"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "2"}, {}):
        run, verify = tmp_path / "run.json", tmp_path / "verify.json"
        unset = dict.fromkeys(BLAS_VARS)
        done = _python(["-c", code, str(run), str(verify)], **{**unset, **env})
        assert done.returncode == 0, done.stderr
        outputs.append((run.read_bytes(), verify.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
