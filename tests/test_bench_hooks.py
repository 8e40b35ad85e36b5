"""The benchmark's tracer and import probe look up package names by string.

``bench/trace_cli.py`` wraps ``(module, attribute)`` pairs by name and
``bench/probe.py`` imports modules in a fixed order; a refactor that drops
one of those names, or a subcommand that calls a private reference past
the wrapper, breaks a traced benchmark run. Both files are only read
here, never run as scripts.
"""

import importlib
import json
import runpy
from pathlib import Path

import pytest

from conftest import K2_MODEL

BENCH = Path(__file__).resolve().parent.parent / "bench"
TARGETS = runpy.run_path(str(BENCH / "trace_cli.py"))["TARGETS"]

# subcommand -> the recipnet.cli names it calls, each through recipnet.cli
CALLS = {
    "analyze": {"validate_params", "group_rates", "build_jstar", "solve_equilibrium",
                "all_spectra", "order_groups"},
    "simulate": {"validate_params", "run"},
    "embed": {"validate_params", "solve_equilibrium", "estimate_pkl"},
    "diagnose": {"validate_params", "solve_equilibrium", "all_spectra", "tail_report"},
    "verify": {"validate_params", "verify_equivalence"},
}


def test_trace_targets_resolve():
    assert TARGETS
    for module, attr, _name, _attrs in TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("name", runpy.run_path(str(BENCH / "probe.py"))["IMPORT_ORDER"])
def test_probe_modules_import(name):
    importlib.import_module(f"recipnet.{name}")


def test_every_traced_cli_name_goes_through_its_wrapper(tmp_path, monkeypatch):
    # wrap each recipnet.cli target the way the tracer does (setattr on the
    # module), then run every subcommand and count the calls per name
    from recipnet import cli

    calls = []

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    names = [attr for module, attr, _name, _attrs in TARGETS if module == "recipnet.cli"]
    for name in names:
        monkeypatch.setattr(cli, name, counting(getattr(cli, name), name))
    # every wrapped name is called by some subcommand below
    assert set(names) == set().union(*CALLS.values(), {"main", "load_config"},
                                     {f"cmd_{command}" for command in CALLS})

    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": K2_MODEL,
        "sim": {"n_steps": 3000, "seed": 2},
        "embed": {"replicates": 2000, "kmax": 4, "lmax": 4},
        "diagnose": {"input": str(out / "simulate" / "degrees.csv")},
        "verify": {"n": 1, "replicates": 500},
    }))
    for command, called in CALLS.items():
        calls.clear()
        argv = [command, "--config", str(cfg), "--out", str(out / command)]
        assert cli.main(argv + (["--threads", "1"] if command == "embed" else [])) == 0
        expected = called | {"main", "load_config", f"cmd_{command}"}
        assert set(calls) == expected, command
