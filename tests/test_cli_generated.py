"""Generated config values for every subcommand.

Each example runs one subcommand on a small single-group config with one
model or config value replaced by a generated JSON value: any type, NaN,
an infinity, a huge number or a nested container. The run must exit 0
with strict JSON artifacts, or exit 2 with one ``recipnet: <Name>: ...``
line on stderr and no output directory: a value is refused before any
output is written, or it runs. The runs are derandomized, so every run
tries the same examples.
"""

import contextlib
import io
import json
import math
import shutil

import pytest

from recipnet.cli import COMMANDS, MODEL_KEYS, SCHEMA, main

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

MODEL = {"alpha": 0.5, "delta": 1.0, "pi": [1.0], "rho": [[0.5]]}
# small enough that every accepted value runs in a fraction of a second
BASE = {"sim": {"n_steps": 300, "snapshots": [100]},
        "embed": {"replicates": 300, "kmax": 5, "lmax": 5},
        "verify": {"n": 1, "replicates": 300}}
# the two paths are the test's own: a generated input path names a missing
# file (a runtime failure, exit 1), and a generated output path could be anywhere
KEYS = [("model", key) for key in sorted(MODEL_KEYS)] + [
    key for key in SCHEMA if key not in {("diagnose", "input"), ("output", "directory")}]
# keys whose every integer value is cheap to run or refused before it runs: a
# size key past memory is refused; replicates and repetitions cost time, not memory
HUGE_INT_KEYS = {key for key in KEYS if key[0] == "model" or key[1] in (
    "seed", "tol", "max_iter", "event_budget", "n_steps", "kmax", "lmax", "hill_k_rule")}

SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0, -0.0, 1.0, 0.5]
HUGE_INTS = [2**63, -(2**63) - 1, 2**64, 10**400]


def json_values(huge_ints: bool):
    leaves = (st.none() | st.booleans() | st.text(max_size=4) | st.sampled_from(SPECIAL)
              | st.floats() | st.integers(-3, 40)
              | (st.sampled_from(HUGE_INTS) if huge_ints else st.nothing()))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                        max_leaves=5)


@st.composite
def runs(draw):
    """A subcommand, a config key and the generated value that replaces it."""
    key = draw(st.sampled_from(KEYS))
    return draw(st.sampled_from(sorted(COMMANDS))), key, draw(json_values(key in HUGE_INT_KEYS))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated_cli")
    config = root / "simulate.json"
    config.write_text(json.dumps({"model": MODEL, "sim": {"n_steps": 2000}}))
    assert main(["simulate", "--config", str(config), "--out", str(root / "input")]) == 0
    return root


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(runs())
@example(("embed", ("model", "delta"), 1e308))
@example(("analyze", ("solver", "tol"), math.inf))
@example(("simulate", ("sim", "n_steps"), 2**63))
@example(("embed", ("embed", "kmax"), 10**12))
def test_generated_config_value_runs_or_exits_2(workdir, run):
    command, (section, key), value = run
    body = {"model": dict(MODEL), **json.loads(json.dumps(BASE)),
            "diagnose": {"input": str(workdir / "input" / "degrees.csv")}}
    body.setdefault(section, {})[key] = value
    config = workdir / "config.json"
    config.write_text(json.dumps(body))
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(out),
                     *(["--threads", "1"] if command == "embed" else [])])
    err = err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("recipnet: ") and err.count("\n") == 1, err
        assert err.split(": ")[1].isidentifier(), err
        assert not out.exists()
    else:
        for path in out.glob("*.json"):
            _strict(path.read_text())
