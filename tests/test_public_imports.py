"""The demos and the README import from the package top level.

Tier-1 never runs the demos, so a name dropped from ``recipnet/__init__``
would only show when someone runs one. These tests read the scripts and
the README's Python blocks with ``ast`` and check that every name in a
``from recipnet import ...`` resolves on the package.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import recipnet

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imported_names(source):
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "recipnet"
            and node.level == 0
            for alias in node.names]


def _resolves(name):
    return hasattr(recipnet, name) or importlib.util.find_spec(f"recipnet.{name}") is not None


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    names = _imported_names(path.read_text())
    assert names
    assert [n for n in names if not _resolves(n)] == []


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    names = [n for block in blocks for n in _imported_names(block)]
    assert names
    assert [n for n in names if not _resolves(n)] == []
