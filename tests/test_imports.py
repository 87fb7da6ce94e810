"""Every ``repro`` import in the repository resolves.

Scripts, examples and benchmarks are not all run by the test suite, so
a deleted or renamed public name could leave a broken import there.
This parses every Python file with ``ast`` (imports inside functions
included) and resolves each imported name.
"""

import ast
import importlib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "scripts", "examples", "benchmarks", "tests")


def _repro_imports():
    """``(module, name, where)`` for every absolute ``repro`` import;
    ``name`` is None for a plain ``import repro.x``."""
    found = []
    for root in ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            where = path.relative_to(REPO)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    module = node.module or ""
                    if module.split(".")[0] == "repro":
                        found.extend((module, alias.name,
                                      f"{where}:{node.lineno}")
                                     for alias in node.names)
                elif isinstance(node, ast.Import):
                    found.extend((alias.name, None,
                                  f"{where}:{node.lineno}")
                                 for alias in node.names
                                 if alias.name.split(".")[0] == "repro")
    return found


def _resolves(module: str, name) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(mod, name):
        return True
    try:  # a submodule not yet imported by its package
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_repro_import_resolves():
    imports = _repro_imports()
    assert len(imports) > 1000  # the scan itself found the codebase
    unresolved = [f"{where}: from {module} import {name}"
                  for module, name, where in imports
                  if not _resolves(module, name)]
    assert not unresolved, "\n".join(unresolved)
