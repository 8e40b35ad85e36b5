import hashlib
import json

import numpy as np
import pytest

from recipnet import validate_params
from recipnet.cli import main

K2_MODEL = {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
            "rho": [[0.9, 0.9], [0.45, 0.45]]}


@pytest.fixture(scope="session")
def k1_ref():
    """Single-group reference: alpha=0.5, delta=1, rho=0.5."""
    return validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])


@pytest.fixture(scope="session")
def k2_ref():
    """Two-group reference: uniform pi, rho rows (0.9, 0.9) and (0.45, 0.45)."""
    return validate_params(**K2_MODEL)


def run_k2(tmp_path, command, body, *extra):
    """Run ``recipnet <command>`` on the two-group model with config ``body``
    (output in ``tmp_path/<command>``); return the output directory."""
    out = tmp_path / command
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(dict(body, model=K2_MODEL, output={"directory": str(out)})))
    assert main([command, "--config", str(cfg), *extra]) == 0
    return out


def sha256s(directory, names):
    """sha256 hex digest of each named file in ``directory``."""
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def random_params(rng, k_max=4, contraction=False):
    """A random valid parameter set; optionally inside the contraction region."""
    K = int(rng.integers(1, k_max + 1))
    alpha = float(rng.uniform(0.05, 0.95))
    pi = rng.dirichlet(np.ones(K))
    pi = pi / pi.sum()
    rho = rng.uniform(0.0, 1.0, size=(K, K))
    delta = float(rng.uniform(0.1, 3.0))
    params = validate_params(alpha=alpha, delta=delta, pi=pi, rho=rho)
    if contraction:
        from recipnet import build_jstar

        dmin = build_jstar(params).delta_min
        if delta <= dmin:
            delta = dmin + float(rng.uniform(0.05, 2.0))
            params = validate_params(alpha=alpha, delta=delta, pi=pi, rho=rho)
    return params
