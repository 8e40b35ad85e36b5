"""Single-purpose measurements run in a fresh process by the benchmark.

    python bench/probe.py imports SRC_DIR
        Incremental import time of each recipnet module, imported in
        dependency order. The package ``__init__`` (which imports every
        module) is bypassed, so each module is charged only for itself and
        for the third-party modules it is first to import. Prints JSON.

    python bench/probe.py degree-sum CONFIG.json
        Sum of n1 + n2 over ``sample_limit_pairs`` at the config's embed
        replicates and seed: an exact work count of the limit-law sampler,
        which draws the same replicates as ``estimate_pkl``. Prints JSON.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

# Each module follows every recipnet module it imports.
IMPORT_ORDER = ("params", "spectral", "equilibrium", "simulate", "branching",
                "io", "embedding", "tails", "cli")


def imports(src: str) -> dict:
    pkg = types.ModuleType("recipnet")
    pkg.__path__ = [f"{src}/recipnet"]
    sys.modules["recipnet"] = pkg
    out = {}
    for name in IMPORT_ORDER:
        t = time.perf_counter()
        importlib.import_module(f"recipnet.{name}")
        out[name] = time.perf_counter() - t
    return out


def degree_sum(config_path: str) -> dict:
    from recipnet.branching import sample_limit_pairs
    from recipnet.cli import _model, load_config
    from recipnet.equilibrium import solve_equilibrium

    cfg = load_config(config_path)
    emb = cfg["embed"]
    params = _model(cfg)
    sol = solve_equilibrium(params, tol=cfg["solver"]["tol"],
                            max_iter=cfg["solver"]["max_iter"])
    labels, n1, n2, failed = sample_limit_pairs(
        params, sol, replicates=emb["replicates"], seed=emb["seed"],
        event_budget=emb["event_budget"])
    ok = ~failed
    inside = ok & (n1 <= emb["kmax"]) & (n2 <= emb["lmax"])
    return {"degree_sum": int(n1.sum() + n2.sum()),
            "failed": int(failed.sum()),
            "overflow": int((ok & ~inside).sum()),
            "replicates": int(labels.size)}


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    result = imports(arg) if mode == "imports" else degree_sum(arg)
    print(json.dumps(result))
