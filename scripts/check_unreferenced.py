#!/usr/bin/env python
"""List every ``def``/``class`` in ``src/`` that nothing refers to.

A definition is unreferenced when its name occurs, as a whole
identifier, nowhere in the searched tree except at the definition
sites of that name.  The search covers ``src tests scripts benchmarks
examples perfbench docs campaigns .github``, the top-level ``*.md``
files and ``pyproject.toml``, so a name that only a test, a doc or a
CI step uses still counts as used.  ``CHANGES.md`` is left out: it
logs the names of deleted definitions, which are not uses.  Dunder
names (``__init__``, ``__enter__``, ...) are called by Python itself
and are skipped.

Exits non-zero listing every unreferenced definition as
``path:line: name``.  Run from anywhere: paths are anchored to the
repo root.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent

SEARCH_DIRS = ("src", "tests", "scripts", "benchmarks", "examples",
               "perfbench", "docs", "campaigns", ".github")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def searched_files() -> List[Path]:
    files = [p for p in sorted(REPO.glob("*.md")) if p.name != "CHANGES.md"]
    files.append(REPO / "pyproject.toml")
    for name in SEARCH_DIRS:
        files += sorted(
            p for p in (REPO / name).rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        )
    return [p for p in files if p.is_file()]


def definitions() -> Dict[str, List[Tuple[Path, int]]]:
    """Every def/class name in ``src/`` with its definition sites."""
    sites: Dict[str, List[Tuple[Path, int]]] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, DEF_NODES):
                sites.setdefault(node.name, []).append((path, node.lineno))
    return sites


def main() -> int:
    uses: Counter = Counter()
    for path in searched_files():
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue  # binary or unreadable: holds no source names
        uses.update(IDENT_RE.findall(text))
    orphans = [
        (path, line, name)
        for name, where in definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and uses[name] <= len(where)
        for path, line in where
    ]
    for path, line, name in sorted(orphans):
        print(f"{path.relative_to(REPO)}:{line}: {name}")
    if orphans:
        print(f"{len(orphans)} unreferenced definition(s) in src/",
              file=sys.stderr)
        return 1
    print("no unreferenced definitions in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
