"""Module-level imports in the package that the module never reads.

No linter ships with the project, so this scans with the stdlib `ast`: an
import bound at module level and never read by name in the module fails,
unless its line carries `# noqa` (a re-export kept on purpose).
"""

import ast
from pathlib import Path

import tsurf

PACKAGE = Path(tsurf.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of `source` bind and that
    nothing in it reads, as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # names read only inside quoted annotations
    for node in ast.walk(tree):
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_the_scan_flags_unread_imports_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from json import (dumps,\n"
              "                  loads)\n"
              "from re import sub  # noqa: F401\n"
              "from fractions import Fraction as F\n"
              "def f(x: 'F') -> int:\n"
              "    return math.floor(x) + len(dumps(x))\n")
    assert unused_imports(source) == ["3: os", "4: loads"]


def test_package_modules_read_every_import():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) >= 12
    assert {name: names for name, names in found.items() if names} == {}
