"""Every CLI command runs on one OpenBLAS thread and hands the caller's
thread count back, so report bytes do not depend on the host's core count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entroloss
from entroloss import cli

SRC = str(Path(entroloss.__file__).resolve().parents[1])
OPENBLAS = cli._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy did not load an OpenBLAS with thread control")

# reads the thread count before and after `import entroloss`, finding the
# library on its own so that the first read runs no package code
THREADS_AROUND_IMPORT = """
import ctypes, numpy
with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
         "openblas_get_num_threads64_", "openblas_get_num_threads")
get = next(f for lib in libs for f in (getattr(ctypes.CDLL(lib), n, None) for n in names) if f is not None)
before = get()
import entroloss
print(before, get())
"""


def _env(**extra):
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), **extra)


@pytest.fixture
def three_threads():
    """The process runs on 3 OpenBLAS threads for the test, then on its own count again."""
    set_threads, get_threads = OPENBLAS
    own = get_threads()
    set_threads(3)
    yield get_threads
    set_threads(own)


def _quantity_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "command": "quantity",
                "quantity": {"name": "entropy", "state": {"kind": "diag", "values": [0.5, 0.5]}},
                "output": {"dir": str(tmp_path), "format": "json"},
            }
        )
    )
    return str(path)


@needs_openblas
@pytest.mark.parametrize(
    "outcome, expected",
    [("returns", 0), ("config error", 2), ("raises", RuntimeError)],
)
def test_command_runs_on_one_thread_and_restores_the_count(outcome, expected, tmp_path, monkeypatch, three_threads):
    seen = []
    command = cli.cmd_quantity

    def recorded(*args):
        seen.append(three_threads())
        if outcome == "config error":
            raise cli.ConfigError("bad key")
        if outcome == "raises":
            raise RuntimeError("command failed")
        return command(*args)

    monkeypatch.setattr(cli, "cmd_quantity", recorded)
    argv = ["--config", _quantity_config(tmp_path)]
    if expected is RuntimeError:
        with pytest.raises(RuntimeError):
            cli.run(argv)
    else:
        assert cli.run(argv) == expected
    assert seen == [1]
    assert three_threads() == 3


def test_cli_runs_without_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert cli.run(["--config", _quantity_config(tmp_path)]) == 0
    assert json.loads((tmp_path / "quantity.json").read_text())["provenance"] == "exact"


@needs_openblas
def test_import_leaves_the_thread_count_unchanged():
    proc = subprocess.run([sys.executable, "-c", THREADS_AROUND_IMPORT], env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


def test_suite_report_bytes_do_not_depend_on_the_thread_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"command": "suite", "seed": 12345, "suite": {"ids": ["P4", "C1", "T2"], "params": {"energy": 1.2}}})
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "entroloss.cli", "--config", str(config), "--out", str(out), "--format", "both"],
            env=_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    names = sorted(os.listdir(outputs[0]))
    assert names == sorted(os.listdir(outputs[1])) and len(names) == 9  # per suite: report, checks, series
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
