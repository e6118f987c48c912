"""Every module uses what it imports.

A stdlib stand-in for a linter's unused-import rule (F401) over the package
and its tests: each name an import binds must be read somewhere in the
module or be listed in its ``__all__``.  An import whose line carries
``# noqa: F401`` is exempt (a name kept public on purpose), as are
``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_FILES = sorted([*(_ROOT / "src" / "qroutesim").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {bound}")
    return unused


def test_the_scan_covers_the_package_and_the_tests():
    names = {p.name for p in _FILES}
    assert {"qudit.py", "rat.py", "__init__.py", "test_imports.py", "conftest.py"} <= names


@pytest.mark.parametrize("path", _FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_and_a_tagged_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os, sys\n"
                   "from math import pi  # noqa: F401\n"
                   "from json import dumps as d, loads\n"
                   "__all__ = ['loads']\n"
                   "print(sys.argv, d)\n")
    assert [line.split(": ", 1)[1] for line in _unused_imports(mod)] == ["os"]
