"""Source checks beside the unused-import one.

The package reorders small tensors in one way: no module calls a ``take``
method or function (``data.take(index)``, ``np.take(...)``), so a gather of
a memoised flat index (``data.ravel()[index]``) stays the only small-tensor
reorder, and a `take` that costs about twice the gather does not come back.
Docstrings and comments may name it.

Only the command line reads the environment: no module but ``cli.py``
touches ``os.environ`` or ``os.getenv`` (or imports them from ``os``), so
``QROUTESIM_OUTDIR`` stays the one variable honoured and run settings stay
in config files and flags.
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


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in _ENV_NAMES for alias in node.names)}
    return [f"{path.name}:{n}" for n in sorted(lines)]


@pytest.mark.parametrize("path", [p for p in _PACKAGE if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_environment_read_outside_the_cli(path):
    assert _environment_reads(path) == []


def test_the_check_sees_an_environment_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""a docstring may say os.environ"""\n'
                   "import os\n"
                   "from os import environ, path\n"
                   "a = os.environ.get('X')  # a mapping\n"
                   "b = os.getenv('Y')\n"
                   "c = os.path.join('d', 'e')\n")
    assert _environment_reads(mod) == ["mod.py:3", "mod.py:4", "mod.py:5"]
