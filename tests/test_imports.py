"""Every module imports cleanly when it is the first one loaded, and uses
every name it imports.

Each check runs in a fresh interpreter and registers the ``entroloss``
package without executing its ``__init__``, so the module under test, not
the package's import order, decides which modules load first.  A cycle
hidden by a function-level import would fail here once that import moves
to module top.
"""

import ast
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


# MODULES never lists __init__, whose imports are the package's exports
@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_imported_name(module):
    path = Path(SPEC.submodule_search_locations[0]) / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"


def _names_read(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_export_is_read_outside_the_unit_tests():
    """Every name the package exports is read by the library itself, a demo,
    the bench or the acceptance gate; a name only its unit tests read goes."""
    package = Path(SPEC.submodule_search_locations[0])
    root = Path(__file__).resolve().parents[1]
    readers = [package / f"{m}.py" for m in MODULES]
    readers += sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    readers.append(root / "tests" / "test_acceptance.py")
    read = set().union(*map(_names_read, readers))
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unread = sorted(exported - read)
    assert not unread, f"exports no reader outside the unit tests reads: {unread}"


def _private_definitions(tree: ast.Module) -> set:
    """The module-level private functions, classes and constants of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _loaded_or_imported(tree: ast.Module) -> set:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return read | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_private_helper_is_read_by_the_package():
    """A module-level private function, class or constant that no module of
    the package loads or imports is an orphan, left behind by a fold."""
    package = Path(SPEC.submodule_search_locations[0])
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    read = set().union(*map(_loaded_or_imported, trees.values()))
    orphans = sorted(f"{module}.{name}" for module, tree in trees.items() for name in _private_definitions(tree) - read)
    assert not orphans, f"private helpers no module of the package reads: {orphans}"
