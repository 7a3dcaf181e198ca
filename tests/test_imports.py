"""Module-level names in the package that nothing reads.

No linter ships with the project, so this scans with the stdlib `ast`: an
import bound at module level and never read by name in the module fails,
unless its line carries `# noqa` (a re-export kept on purpose), and so does
a private (underscore) module-level function, class or constant that no
module of the package reads outside its own definition. Public names are
API and stay out of the scan.
"""

import ast
from pathlib import Path

import tsurf

PACKAGE = Path(tsurf.__file__).parent


def _reads(tree) -> list[str]:
    """Every name read in the tree: loaded names, attributes, names
    imported from a module, and names read only inside quoted
    annotations, once per read."""
    read = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.append(node.id)
        elif isinstance(node, ast.Attribute):
            read.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read += [alias.name for alias in node.names]
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read += [n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                     if isinstance(n, ast.Name)]
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names that the modules' top levels define and that no
    module reads outside the definition itself, as "module:line: name"."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = {}
    for tree in trees.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, own = [node.name], _reads(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                own = _reads(node.value) if node.value else []
            else:
                continue
            for name in names:
                if (name.startswith("_") and not name.startswith("__")
                        and reads.get(name, 0) == own.count(name)):
                    unread.append(f"{module}:{node.lineno}: {name}")
    return unread


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


def test_the_scan_flags_unread_private_names():
    sources = {
        "a.py": ("import math\n"
                 "_LIMIT = 3\n"
                 "_UNREAD: int = 4\n"
                 "__all__ = ['f']\n"
                 "def _helper(x):\n"
                 "    return _helper(x - 1) if x else _LIMIT\n"
                 "class _Kept:\n"
                 "    pass\n"
                 "def f():\n"
                 "    return math.pi\n"),
        "b.py": ("from .a import _Kept\n"
                 "def _left(): pass\n"),
    }
    assert unread_private_names(sources) == [
        "a.py:3: _UNREAD", "a.py:5: _helper", "b.py:2: _left"]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
