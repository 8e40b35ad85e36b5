"""Command line entry point: analyze / simulate / embed / diagnose / verify.

All subcommands read one JSON config file (strict keys, defaults filled
for absent optional sections), write machine-readable artifacts into the
output directory, and echo the effective config next to them so any run
can be reproduced bit-exactly from its own artifact directory.

``SCHEMA`` states each config key once, with its default and its check,
and ``FLAGS`` each flag once, with its subcommands and the keys it sets.

Exit codes: 0 success, 1 runtime failure, 2 config or validation error.
Failures print a single machine-parsable line to stderr of the form
``recipnet: <ErrorName>: <message>``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as rio
from .params import ParameterError, group_rates, validate_params

P_THRESHOLD = 0.001

# Names from the other modules, each loaded on first use through the
# package's table, so a subcommand imports only the modules it runs. Each
# stays a module attribute, and a cmd_* looks it up at call time, so a
# wrapper set with setattr is the one that runs.
_LAZY = {"build_jstar", "solve_equilibrium", "all_spectra", "order_groups", "SimConfig",
         "run", "estimate_pkl", "verify_equivalence", "DegreeDataset", "PeelOptions",
         "tail_report", "EmptySelection", "pair_table"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _load(*names) -> None:
    """Bind each lazy name that is not yet bound (a wrapper set earlier stays)."""
    for name in names:
        if name not in globals():
            __getattr__(name)


class ConfigError(ValueError):
    """Base class for configuration problems (exit code 2)."""


class ParseError(ConfigError):
    """Config file is not valid JSON or has a wrongly-typed section."""


class UnknownKey(ConfigError):
    """Config contains a key outside the schema."""


class BadInput(ConfigError):
    """diagnose's input snapshot cannot be read or lacks a needed column."""


class BadOutput(ConfigError):
    """The output directory cannot be made, e.g. its path names a file."""


MODEL_KEYS = {"alpha", "delta", "pi", "rho", "k"}


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise UnknownKey(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_at_least(default: int, lo: int):
    return default, (lambda v: _is_int(v) and v >= lo), f"an integer >= {lo}"


_SEED = _int_at_least(0, 0)
_QUANTILE = 0.999, (lambda v: _is_number(v) and 0.0 < v < 1.0), "a number in (0, 1)"

# (section, key) -> (default, check, what the value must be): the whole
# schema of every section but "model", in the key order of config.json
SCHEMA = {
    ("solver", "tol"): (1e-12, (lambda v: _is_number(v) and 0.0 < v < math.inf),
                        "a finite number > 0"),
    ("solver", "max_iter"): _int_at_least(10_000, 1),
    ("sim", "n_steps"): _int_at_least(100_000, 1),
    ("sim", "seed"): _SEED,
    ("sim", "snapshots"): ([], (lambda v: isinstance(v, list) and all(map(_is_int, v))),
                           "a list of integers"),
    ("sim", "emit_edges"): (False, (lambda v: isinstance(v, bool)), "true or false"),
    ("embed", "replicates"): _int_at_least(100_000, 1),
    ("embed", "kmax"): _int_at_least(30, 0),
    ("embed", "lmax"): _int_at_least(30, 0),
    ("embed", "event_budget"): _int_at_least(10_000_000, 1),
    ("embed", "seed"): _SEED,
    ("diagnose", "hill_k_rule"): ("sqrt", (lambda v: v == "sqrt" or (_is_int(v) and v >= 1)),
                                  "'sqrt' or an integer k >= 1"),
    ("diagnose", "radius_quantile"): _QUANTILE,
    ("diagnose", "distance_quantile"): _QUANTILE,
    ("diagnose", "input"): (None, (lambda v: v is None or isinstance(v, str)),
                            "a path string or null"),
    ("verify", "n"): (2, (lambda v: _is_int(v) and v in (1, 2, 3)), "1, 2 or 3"),
    ("verify", "replicates"): _int_at_least(100_000, 1),
    ("verify", "repetitions"): _int_at_least(1, 1),
    ("verify", "seed"): _SEED,
    ("output", "directory"): ("out", (lambda v: isinstance(v, str)), "a path string"),
}

# section -> {key: default}, filled in for absent keys
DEFAULTS = {section: {key: default for (sec, key), (default, _, _) in SCHEMA.items()
                      if sec == section}
            for section, _ in SCHEMA}

COMMANDS = {
    "analyze": "solve the equilibrium and report spectra/regularity",
    "simulate": "grow a graph and write degree/trajectory/edge tables",
    "embed": "Monte-Carlo the limiting joint degree pmf",
    "diagnose": "tail diagnostics for a degree CSV",
    "verify": "exact-vs-chain equivalence check",
}

# flag -> (subcommands that take it, config keys it sets, argparse options)
FLAGS = {
    "--config": (tuple(COMMANDS), (), {"required": True, "help": "path to JSON run config"}),
    "--seed": (tuple(COMMANDS), (("sim", "seed"), ("embed", "seed"), ("verify", "seed")),
               {"type": int, "help": "override the seed of the invoked workflow"}),
    "--out": (tuple(COMMANDS), (("output", "directory"),),
              {"help": "override output directory"}),
    "--n-steps": (("simulate",), (("sim", "n_steps"),), {"type": int}),
    "--replicates": (("embed", "verify"), (("embed", "replicates"), ("verify", "replicates")),
                     {"type": int}),
    "--kmax": (("embed",), (("embed", "kmax"), ("embed", "lmax")), {"type": int}),
    "--threads": (("embed",), (), {"type": int, "help": "N >= 1; embed tallies in this "
                                                        "process, so N changes no byte and "
                                                        "no speed"}),
    "--input": (("diagnose",), (("diagnose", "input"),), {"help": "degree snapshot CSV"}),
}


def _check_values(cfg: dict) -> None:
    """Raise ParseError naming the first config value that breaks its rule."""
    for (section, key), (_, ok, what) in SCHEMA.items():
        value = cfg[section][key]
        if not ok(value):
            raise ParseError(f"{section}.{key} must be {what}, got {value!r}")


def _unique_keys(pairs) -> dict:
    """json's object_pairs_hook: an object, or a ValueError on a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Strict parse of the run config; fills defaults for absent sections."""
    try:
        with open(path, encoding="utf-8") as fh:    # RFC 8259 8.1: JSON is UTF-8
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:   # not UTF-8, or a key repeated in one object
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested deeper than Python's recursion limit") from exc
    if not isinstance(raw, dict):
        raise ParseError("config root must be a JSON object")

    _check_keys("(root)", raw, {"model"} | set(DEFAULTS))
    if "model" not in raw:
        raise ParseError("config must contain a 'model' section")
    if not isinstance(raw["model"], dict):
        raise ParseError("'model' must be an object")
    _check_keys("model", raw["model"], MODEL_KEYS)
    for name in ("alpha", "delta", "pi", "rho"):   # the first missing, in a fixed order
        if name not in raw["model"]:
            raise ParseError(f"model section is missing '{name}'")

    cfg = {"model": dict(raw["model"])}
    for section, defaults in DEFAULTS.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ParseError(f"'{section}' must be an object")
        _check_keys(section, given, defaults)
        cfg[section] = {**defaults, **given}

    _check_values(cfg)
    return cfg


def apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(cfg)
    for flag, (_, keys, _) in FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)   # argparse's dest
        if value is not None:
            for section, key in keys:
                cfg[section][key] = value
    if getattr(args, "threads", None) is not None and args.threads < 1:
        raise ParseError(f"--threads must be an integer >= 1, got {args.threads}")
    _check_values(cfg)
    # checked once n_steps is final, so --n-steps can cover the file's snapshots
    sim = cfg["sim"]
    bad = [s for s in sim["snapshots"] if not 1 <= s <= sim["n_steps"]]
    if bad:
        raise ParseError(f"sim.snapshots must lie in [1, {sim['n_steps']}], got {bad}")
    _model(cfg)    # the model's checks, too, come before any output is written
    return cfg


def _model(cfg):
    return validate_params(**cfg["model"])


def _check_memory(cfg, command: str) -> None:
    """Refuse a run whose largest arrays, sized from the config, exceed RLIMIT_AS
    when it is set, else physical memory: simulate's graph state or embed's count
    vector. A simulate past int32 edges is refused first."""
    if command == "simulate":
        from .simulate import INT32_MAX
        n = cfg["sim"]["n_steps"]
        if 2 * n + 1 > INT32_MAX:
            raise ConfigError(f"sim.n_steps={n} implies up to {2 * n + 1} edges, over the "
                              f"{INT32_MAX} that int32 node ids, pools and degrees hold")
        # two int32 pools of 2n+1 entries; two int32 degree arrays and one int8
        # (int32 past 127 groups) group array of n+2 entries
        need = 8 * (2 * n + 1) + (9 if _model(cfg).K <= 127 else 12) * (n + 2)
        keys, array = f"sim.n_steps={n} needs", "graph state"
    elif command == "embed":
        kmax, lmax = cfg["embed"]["kmax"], cfg["embed"]["lmax"]
        need = _model(cfg).K * (kmax + 1) * (lmax + 1) * 8
        keys, array = f"embed.kmax={kmax} and embed.lmax={lmax} need", "count vector"
    else:
        return
    try:
        import resource
    except ImportError:     # not Unix: no limit to read
        return
    limit, what = resource.getrlimit(resource.RLIMIT_AS)[0], "RLIMIT_AS"
    if limit == resource.RLIM_INFINITY:
        limit, what = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    if need > limit:
        raise ConfigError(f"{keys} a {need}-byte {array}, over the {limit} bytes of {what}")


def _check_input(cfg, args) -> None:
    """Refuse a diagnose without an input, or whose input cannot be opened or
    has a header without the columns a degree snapshot needs, naming the key
    that gave the path. A bad row below a good header fails only at run time."""
    src = cfg["diagnose"]["input"]
    if src is None:
        raise ParseError("diagnose requires an input degree CSV "
                         "(--input or diagnose.input)")
    key = "--input" if args.input is not None else "diagnose.input"
    try:
        rio.check_degree_header(src)
    except OSError as exc:
        raise BadInput(f"{key} {src}: cannot read it: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise BadInput(f"{key} {src}: {exc}") from exc


def _spectra_payload(spectra, order):
    rows = []
    for s in spectra:
        rows.append({
            "group": s.group + 1,
            "lambda": s.lam,
            "lambda_prime": s.lam_prime,
            "D0": s.D0,
            "degenerate": s.degenerate,
            "u": None if s.u is None else list(s.u),
            "v": None if s.v is None else list(s.v),
            "a": s.a,
            "theta": s.theta,
        })
    return {"groups": rows, "descending_lambda_order": [int(i) + 1 for i in order.order],
            "non_distinct": order.non_distinct}


def cmd_analyze(cfg, out_dir: Path) -> None:
    _load("build_jstar", "solve_equilibrium", "all_spectra", "order_groups")
    params = _model(cfg)
    rates = group_rates(params)
    contraction = build_jstar(params)
    sol = solve_equilibrium(params, tol=cfg["solver"]["tol"],
                            max_iter=cfg["solver"]["max_iter"])
    spectra = all_spectra(params, rates)
    order = order_groups(spectra)
    report = {
        "schema": "recipnet/analyze/v1",
        "model": {"alpha": params.alpha, "gamma": params.gamma,
                  "delta": params.delta, "K": params.K,
                  "pi": list(params.pi), "rho": [list(r) for r in params.rho]},
        "rates": {"rho_row": list(rates.rho_row), "rho_col": list(rates.rho_col),
                  "rho0": rates.rho0},
        "contraction": {"norm1": contraction.norm1, "norm_fro": contraction.norm_fro,
                        "delta_min": contraction.delta_min,
                        "satisfied": contraction.satisfied},
        "equilibrium": {"x": list(sol.x), "y": list(sol.y),
                        "residual": sol.residual, "iterations": sol.iterations,
                        "damped": sol.damped, "rho_star": sol.rho_star,
                        "c_star": sol.c_star, "C_delta": sol.c_delta,
                        "H": [list(r) for r in sol.H], "lambda_H": sol.lambda_h,
                        "H_positive": sol.h_positive},
        "spectral": _spectra_payload(spectra, order),
        "regularity": {
            "alpha_gamma_positive": sol.regular.alpha_gamma_positive,
            "delta_condition": sol.regular.delta_condition,
            "max_row_rate_positive": sol.regular.max_row_rate_positive,
            "max_col_rate_positive": sol.regular.max_col_rate_positive,
            "lambda_H_lt_1": sol.regular.lambda_h_lt_1,
            "mrv_condition": sol.regular.mrv_condition,
            "hrv_condition": sol.regular.hrv_condition,
            "distinct_eigenvalues": sol.regular.distinct_eigenvalues,
            "star": sol.regular.star,
            "margins": sol.regular.margins,
        },
        "predicted": {
            "tail_indices": [sol.c_star / s.lam for s in order.ranked],
            "rays": [{"group": s.group + 1, "a": s.a, "theta": s.theta}
                     for s in order.ranked if not s.degenerate],
        },
    }
    rio.write_json(out_dir / "analyze.json", report)


def cmd_simulate(cfg, out_dir: Path) -> None:
    _load("SimConfig", "run")
    params = _model(cfg)
    sim = cfg["sim"]
    config = SimConfig(n_steps=sim["n_steps"], seed=sim["seed"],
                       snapshot_steps=tuple(sim["snapshots"]))
    result = run(params, config)
    state = result.state
    rio.write_degree_snapshot(out_dir / "degrees.csv", state)
    if len(result.trajectory.steps):
        rio.write_trajectory(out_dir / "trajectory.csv", result.trajectory)
    if sim["emit_edges"]:
        rio.write_edges(out_dir / "edges.csv", state)
    n = state.n
    summary = {
        "schema": "recipnet/simulate/v1",
        "n_steps": n,
        "seed": sim["seed"],
        "nodes": state.n_nodes,
        "edges": state.edge_count,
        "reciprocal_edges": state.reciprocal_count,
        "edges_per_step": state.edge_count / n,
        "group_in_edges": state.group_in_edges.tolist(),
        "group_out_edges": state.group_out_edges.tolist(),
        "group_in_per_step": [c / n for c in state.group_in_edges.tolist()],
        "group_out_per_step": [c / n for c in state.group_out_edges.tolist()],
        "group_node_counts": state.group_node_counts.tolist(),
    }
    rio.write_json(out_dir / "summary.json", summary)


def cmd_embed(cfg, out_dir: Path) -> None:
    _load("solve_equilibrium", "estimate_pkl")
    params = _model(cfg)
    sol = solve_equilibrium(params, tol=cfg["solver"]["tol"],
                            max_iter=cfg["solver"]["max_iter"])
    emb = cfg["embed"]
    est = estimate_pkl(params, sol, replicates=emb["replicates"],
                       kmax=emb["kmax"], lmax=emb["lmax"], seed=emb["seed"],
                       event_budget=emb["event_budget"])
    rio.write_pmf(out_dir, est)


def _fold_pair_table(src, K: int):
    """The (in, out) pair table of a degree snapshot, the only input of the
    tail statistics: each block's table joins the running one by
    ``pair_table``'s own rule, so no column per node is held."""
    _load("pair_table")
    table = None
    for ind, outd, _ in rio.read_degree_blocks(src, K):
        block = pair_table(ind, outd)
        table = block if table is None else pair_table(
            *(np.concatenate(pair) for pair in zip(table, block)))
    return table


def cmd_diagnose(cfg, out_dir: Path) -> None:
    src = cfg["diagnose"]["input"]
    _load("solve_equilibrium", "all_spectra", "DegreeDataset", "PeelOptions", "tail_report",
          "EmptySelection")
    params = _model(cfg)
    dataset = DegreeDataset(*_fold_pair_table(src, params.K))
    sol = solve_equilibrium(params, tol=cfg["solver"]["tol"],
                            max_iter=cfg["solver"]["max_iter"])
    spectra = all_spectra(params)
    opts = PeelOptions(radius_quantile=cfg["diagnose"]["radius_quantile"],
                       distance_quantile=cfg["diagnose"]["distance_quantile"])
    rule = cfg["diagnose"]["hill_k_rule"]
    try:
        report = tail_report(dataset, sol, spectra, options=opts,
                             hill_k=None if rule == "sqrt" else rule)
    except EmptySelection as exc:
        raise EmptySelection(f"{src}: {exc}") from exc

    hills = {"in": report.hill_in, "out": report.hill_out}
    for name, rep in hills.items():
        if rep is not None and rep.k_sweep is not None:
            rio.write_hill_sweep(out_dir / f"hill_sweep_{name}.csv", rep.k_sweep)
    rio.write_angular_hist(out_dir / "angular_hist.csv", report.angular_bins,
                           report.angular_counts)

    payload = {
        "schema": "recipnet/diagnose/v1",
        "n": dataset.n,
        **{f"hill_{name}": None if rep is None else
           {"k": rep.k, "index": rep.index_estimate, "se": rep.se}
           for name, rep in hills.items()},
        "marginal_skipped": report.marginal_skip,
        "radius_threshold": report.radius_threshold,
        "predicted_first_index": report.predicted_first_index,
        "predicted_rays": [
            {"group": g + 1, "lambda": lam, "a": a, "theta": th}
            for (g, lam, a, th) in report.predicted_rays
        ],
        "hrv": None,
        "hrv_skip_reason": report.hrv_skip_reason,
    }
    if report.hrv is not None:
        h = report.hrv
        payload["hrv"] = {
            "a1_used": h.a1_used,
            "removal_rule": h.removal_rule,
            "first_index": h.first_index,
            "second_index": h.second_index,
            "first_ray_theta": h.first_ray_estimate,
            "second_ray_theta": h.second_ray_estimate,
            "predicted": list(h.predicted),
            "n_removed": h.n_removed,
            "n_peeled": h.n_peeled,
            "degraded": list(h.degraded),
            "rays": [{**asdict(r), "group": r.group + 1} for r in h.rays],
        }
    rio.write_json(out_dir / "report.json", payload)


def cmd_verify(cfg, out_dir: Path) -> None:
    _load("verify_equivalence")
    params = _model(cfg)
    ver = cfg["verify"]
    runs = []
    passes = 0
    total = 0
    for n in range(1, ver["n"] + 1):
        for rep in range(ver["repetitions"]):
            report = verify_equivalence(params, n=n, replicates=ver["replicates"],
                                        seed=ver["seed"] + rep)
            ok = report.p_value > P_THRESHOLD and not report.impossible_support
            passes += ok
            total += 1
            runs.append({
                "n": report.n, "seed": ver["seed"] + rep,
                "replicates": report.replicates,
                # inf on impossible support, which strict JSON cannot hold
                "statistic": None if report.impossible_support else report.statistic,
                "df": report.df,
                "p_value": report.p_value, "max_abs_dev": report.max_abs_dev,
                "cells": report.n_cells, "merged": report.n_merged,
                "impossible_support": report.impossible_support,
                "pass": bool(ok),
            })
    payload = {
        "schema": "recipnet/verify/v1",
        "p_threshold": P_THRESHOLD,
        "passes": passes,
        "total": total,
        "runs": runs,
    }
    rio.write_json(out_dir / "verify.json", payload)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as ParseError instead of usage text and exit."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recipnet",
        description="Reciprocal preferential attachment: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag, (commands, _, options) in FLAGS.items():
            if name in commands:
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args)
        _check_memory(cfg, args.command)
        if args.command == "diagnose":
            _check_input(cfg, args)
        out_dir = Path(cfg["output"]["directory"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            key = "--out" if args.out is not None else "output.directory"
            raise BadOutput(f"{key} {out_dir}: cannot make it: {exc.strerror or exc}") from exc
        rio.write_json(out_dir / "config.json", cfg)
        globals()[f"cmd_{args.command}"](cfg, out_dir)   # a wrapper set with setattr runs
    except (ConfigError, ParameterError) as exc:
        print(f"recipnet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single boundary for exit code 1
        print(f"recipnet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(str(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
