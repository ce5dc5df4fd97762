"""Every module imports cleanly when it is the first one loaded.

Each check runs in a fresh interpreter and registers the ``entroloss``
package without executing its ``__init__``, so the module under test, not
the package's import order, decides which modules load first.  A cycle
hidden by a function-level import would fail here once that import moves
to module top.
"""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

# located without running the package, so a broken import fails per module
SPEC = importlib.util.find_spec("entroloss")
SRC = str(Path(SPEC.origin).resolve().parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(SPEC.submodule_search_locations))

IMPORT_FIRST = """
import importlib.util, sys
pkg = importlib.util.module_from_spec(importlib.util.find_spec("entroloss"))
sys.modules["entroloss"] = pkg
importlib.import_module("entroloss." + sys.argv[1])
"""


def test_every_listed_module_is_covered():
    listed = {"operators", "info", "majorization", "energy", "channels", "roofs", "sequences", "suites", "rand", "cli"}
    assert listed <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FIRST, module], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
