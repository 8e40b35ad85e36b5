"""Workload definitions for the recipnet CLI benchmark: configs, steps, checks.

A workload is a fixed sequence of CLI subcommands on one generated config.
The config is a pure function of (workload, size, seed); the benchmark
passes only the generated file and paths to the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The two-group model of demos/configs/k2.json, copied so that the
# benchmark's inputs do not move when the demo configs do.
K2_MODEL = {"alpha": 0.5, "delta": 1.0, "pi": [0.5, 0.5],
            "rho": [[0.9, 0.9], [0.45, 0.45]]}

# "full" is what the benchmark measures; "tiny" runs the same steps and
# checks in seconds and exists for the harness self-test. grow-k2 runs
# 5e5 steps, not 1e6, so that three iterations of every workload fit
# one run and all runs fit the time a full benchmark pass may take.
# setup_samples and import_samples are fresh-process launches per run for
# setup_s and the <module>.import_s medians.
SIZES = {
    "full": {"n_steps": 500_000, "snapshots": [10_000, 100_000, 500_000],
             "replicates": 8_000_000, "kmax": 30, "verify_n": 3,
             "chains": 100_000, "threads_check_replicates": 131_072,
             "setup_samples": 3, "import_samples": 3},
    "tiny": {"n_steps": 20_000, "snapshots": [1_000, 20_000],
             "replicates": 200_000, "kmax": 30, "verify_n": 3,
             "chains": 2_000, "threads_check_replicates": 131_072,
             "setup_samples": 1, "import_samples": 1},
}

WORKLOADS = ("grow-k2", "limit-k2", "verify-k2")

@dataclass(frozen=True)
class Step:
    """One CLI subcommand launch: ``args`` start with the subcommand ``name``."""

    name: str
    args: tuple[str, ...]
    out: Path


def make_config(size: str, seed: int) -> dict:
    s = SIZES[size]
    return {
        "model": K2_MODEL,
        "sim": {"n_steps": s["n_steps"], "seed": seed, "snapshots": s["snapshots"],
                "emit_edges": True},
        "embed": {"replicates": s["replicates"], "kmax": s["kmax"],
                  "lmax": s["kmax"], "seed": seed},
        "verify": {"n": s["verify_n"], "replicates": s["chains"],
                   "repetitions": 1, "seed": seed},
    }


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def steps(workload: str, config: Path, out: Path, threads: int) -> list[Step]:
    """The workload's subcommands in launch order, writing under ``out``."""
    cfg = str(config)

    def step(name, sub, *extra):
        d = out / sub
        return Step(name, (name, "--config", cfg, "--out", str(d), *extra), d)

    if workload == "grow-k2":
        sim = step("simulate", "sim")
        return [sim, step("diagnose", "diag", "--input", str(sim.out / "degrees.csv"))]
    if workload == "limit-k2":
        return [step("analyze", "analyze"),
                step("embed", "embed", "--threads", str(threads))]
    if workload == "verify-k2":
        return [step("verify", "verify")]
    raise ValueError(f"unknown workload {workload!r}")


def hash_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[str(p.relative_to(root))] = h.hexdigest()
    return out


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_simulate(out: Path, cfg: dict, rho_star: float) -> list[str]:
    """Graph identities: one node and one edge per step plus reciprocal edges."""
    errs = []
    n = cfg["sim"]["n_steps"]
    s = _read_json(out / "summary.json")
    if s["nodes"] != n + 1:
        errs.append(f"summary nodes {s['nodes']} != n+1 = {n + 1}")
    if s["edges"] != s["nodes"] + s["reciprocal_edges"]:
        errs.append(f"summary edges {s['edges']} != nodes + reciprocal_edges")
    rows = _count_lines(out / "degrees.csv") - 1
    if rows != n + 1:
        errs.append(f"degrees.csv has {rows} rows, expected {n + 1}")
    with open(out / "edges.csv", "rb") as fh:
        data = fh.read()
    if data.count(b"\n") - 1 != s["edges"]:
        errs.append("edges.csv row count != summary edges")
    if data.count(b",1\n") != s["reciprocal_edges"]:
        errs.append("edges.csv reciprocal flags != summary reciprocal_edges")
    last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
    if int(last[0]) != n or int(last[1]) != s["edges"]:
        errs.append("trajectory.csv final row disagrees with summary")
    # |E(n)|/n -> 1 + rho*; the per-step reciprocation coin has sd <= 0.5
    tol = 8.0 / math.sqrt(n)
    if abs(s["edges_per_step"] - (1.0 + rho_star)) > tol:
        errs.append(f"edges_per_step {s['edges_per_step']} not within {tol:.3g} "
                    f"of 1 + rho* = {1.0 + rho_star}")
    return errs


def check_diagnose(out: Path, cfg: dict) -> list[str]:
    errs = []
    r = _read_json(out / "report.json")
    if r["n"] != cfg["sim"]["n_steps"] + 1:
        errs.append(f"report.json n {r['n']} != node count")
    for side in ("in", "out"):
        if r[f"hill_{side}"] is None:
            errs.append(f"no Hill estimate for {side}-degrees")
        elif _count_lines(out / f"hill_sweep_{side}.csv") < 2:
            errs.append(f"hill_sweep_{side}.csv is empty")
    return errs


def check_analyze(out: Path) -> list[str]:
    a = _read_json(out / "analyze.json")
    rho = a["equilibrium"]["rho_star"]
    if a.get("schema") != "recipnet/analyze/v1" or not (0.0 < rho < 1.0):
        return [f"analyze.json malformed or rho* = {rho} outside (0, 1)"]
    return []


def check_embed(out: Path, cfg: dict) -> list[str]:
    """No failed trajectories, and grid mass plus overflow equals one."""
    errs = []
    meta = _read_json(out / "pmf.json")
    if meta["failed"] != 0:
        errs.append(f"pmf.json failed = {meta['failed']}")
    if meta["replicates"] != cfg["embed"]["replicates"]:
        errs.append("pmf.json replicates != configured replicates")
    mass = 0.0
    rows = (out / "pmf.csv").read_text().splitlines()[1:]
    for line in rows:
        mass += float(line.rsplit(",", 1)[1])
    if len(rows) != (cfg["embed"]["kmax"] + 1) * (cfg["embed"]["lmax"] + 1):
        errs.append(f"pmf.csv has {len(rows)} cells")
    if abs(mass + meta["overflow_mass"] - 1.0) > 1e-9:
        errs.append(f"grid mass {mass} + overflow {meta['overflow_mass']} != 1")
    return errs


def check_verify(out: Path, cfg: dict) -> list[str]:
    v = _read_json(out / "verify.json")
    errs = []
    if v["total"] != cfg["verify"]["n"] * cfg["verify"]["repetitions"]:
        errs.append(f"verify.json total {v['total']} != configured n x repetitions")
    for r in v["runs"]:
        if r["impossible_support"]:
            errs.append(f"n={r['n']}: chain reached a state outside the exact support")
        if r["replicates"] != cfg["verify"]["replicates"]:
            errs.append(f"n={r['n']}: {r['replicates']} chains, expected "
                        f"{cfg['verify']['replicates']}")
    return errs


def check_step(step: Step, cfg: dict, rho_star: float | None) -> list[str]:
    """Output checks for one finished step; a raised error counts as a failure."""
    try:
        if step.name == "simulate":
            return check_simulate(step.out, cfg, rho_star)
        if step.name == "diagnose":
            return check_diagnose(step.out, cfg)
        if step.name == "analyze":
            return check_analyze(step.out)
        if step.name == "embed":
            return check_embed(step.out, cfg)
        if step.name == "verify":
            return check_verify(step.out, cfg)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"cannot check {step.name} outputs: {type(exc).__name__}: {exc}"]
    return []
