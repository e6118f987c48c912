"""The package reorders small tensors in one way.

A source check beside the unused-import one: no module of the package calls
a ``take`` method or function (``data.take(index)``, ``np.take(...)``), so a
gather of a memoised flat index (``data.ravel()[index]``) stays the only
small-tensor reorder, and a `take` that costs about twice the gather does
not come back.  Docstrings and comments may name it.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "qroutesim").glob("*.py"))


def _take_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take"]


def test_the_scan_covers_the_package():
    assert {"qudit.py", "engine.py", "rat.py"} <= {p.name for p in _PACKAGE}


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_take_call(path):
    assert _take_calls(path) == []


def test_the_check_sees_a_take_call(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""a docstring may say data.take(index)"""\n'
                   "import numpy as np\n"
                   "a = np.arange(4)\n"
                   "b = a.take([1, 0])  # a method\n"
                   "c = np.take(a, [2])\n"
                   "d = a.ravel()[[3]]\n")
    assert _take_calls(mod) == ["mod.py:4", "mod.py:5"]
