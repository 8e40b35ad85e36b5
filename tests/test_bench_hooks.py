"""The benchmark's tracer and import probe look up package names by string.

``bench/trace_cli.py`` wraps ``(module, attribute)`` pairs by name and
``bench/probe.py`` imports modules in a fixed order; a refactor that drops
one of those names breaks a traced benchmark run. Both files are only
read here, never run as scripts.
"""

import importlib
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_targets_resolve():
    targets = runpy.run_path(str(BENCH / "trace_cli.py"))["TARGETS"]
    assert targets
    for module, attr, _name, _attrs in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("name", runpy.run_path(str(BENCH / "probe.py"))["IMPORT_ORDER"])
def test_probe_modules_import(name):
    importlib.import_module(f"recipnet.{name}")
