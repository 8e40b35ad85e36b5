"""The demos and the README import from the package top level.

Tier-1 never runs the demos, so a name dropped from ``recipnet/__init__``
would only show when someone runs one. These tests read the scripts and
the README's Python blocks with ``ast`` and check that every name in a
``from recipnet import ...`` resolves on the package, and that each
lazily loaded name is the object of the module that defines it.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
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


def test_package_exports_are_the_defining_modules_objects():
    # each top-level name loads on first use and is the very object of the
    # module that defines it; dir() and __all__ list every one of them
    for module, names in recipnet._EXPORTS.items():
        defining = importlib.import_module(f"recipnet.{module}")
        for name in names:
            assert getattr(recipnet, name) is getattr(defining, name), name
    assert set(recipnet.__all__) == {*recipnet._MODULE_OF, "__version__"}
    assert set(recipnet.__all__) <= set(dir(recipnet))
    with pytest.raises(AttributeError):
        recipnet.no_such_name


def test_spectral_stays_the_function_after_the_submodule_loads():
    # importing a submodule binds its name on the package; the spectral
    # function must win over the recipnet.spectral module of the same name
    code = ("import sys, recipnet.equilibrium; from recipnet import spectral; "
            "assert spectral is sys.modules['recipnet.spectral'].spectral, spectral; "
            "assert callable(spectral)")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
