"""Run ``recipnet.cli`` with spans around the public functions it calls.

Usage: python bench/trace_cli.py SPANS.json <subcommand> [cli args...]

The wrappers live here, not in the package: each replaces a name that
``recipnet.cli`` (or ``verify_equivalence``, for ``enumerate_graph_law``)
looks up at call time. Spans (name, start, end, parent, attrs) stay in
memory and are written to SPANS.json when the command exits. Times are
``time.perf_counter`` seconds, which share one monotonic clock across
processes on Linux.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_KB


def _size(path) -> int:
    return os.path.getsize(path)


def _pmf_bytes(args, kwargs, meta):
    directory = args[0]
    names = [meta["mixed_file"], *meta["group_files"].values()]
    return {"bytes": sum(_size(os.path.join(directory, n)) for n in names)}


def _sweep_len(args, kwargs, rep):
    return {"hill_sweep_len": sum(len(h.k_sweep) for h in (rep.hill_in, rep.hill_out)
                                  if h is not None and h.k_sweep is not None)}


# (module, attribute, span name, attrs(args, kwargs, result) -> dict)
TARGETS = [
    ("recipnet.cli", "main", "cli.main", None),
    ("recipnet.cli", "load_config", "cli.load_config", None),
    ("recipnet.cli", "cmd_analyze", "cli.analyze", None),
    ("recipnet.cli", "cmd_simulate", "cli.simulate", None),
    ("recipnet.cli", "cmd_embed", "cli.embed", None),
    ("recipnet.cli", "cmd_diagnose", "cli.diagnose", None),
    ("recipnet.cli", "cmd_verify", "cli.verify", None),
    ("recipnet.cli", "validate_params", "params.validate_params", None),
    ("recipnet.cli", "group_rates", "params.group_rates", None),
    ("recipnet.cli", "build_jstar", "equilibrium.build_jstar", None),
    ("recipnet.cli", "solve_equilibrium", "equilibrium.solve_equilibrium",
     lambda a, k, sol: {"iterations": int(sol.iterations)}),
    ("recipnet.cli", "all_spectra", "spectral.all_spectra", None),
    ("recipnet.cli", "order_groups", "spectral.order_groups", None),
    ("recipnet.cli", "run", "simulate.run",
     lambda a, k, res: {"n_steps": int(a[1].n_steps),
                        "edges": int(res.state.edge_count),
                        "reciprocal_edges": int(res.state.reciprocal_count)}),
    ("recipnet.cli", "estimate_pkl", "branching.estimate_pkl",
     lambda a, k, est: {"replicates": int(est.replicates), "failed": int(est.failed)}),
    ("recipnet.cli", "verify_equivalence", "embedding.verify_equivalence",
     lambda a, k, rep: {"replicates": int(rep.replicates), "p_value": float(rep.p_value)}),
    ("recipnet.embedding", "enumerate_graph_law", "embedding.enumerate_graph_law", None),
    ("recipnet.cli", "tail_report", "tails.tail_report", _sweep_len),
    ("recipnet.io", "write_edges", "io.write_edges",
     lambda a, k, _: {"rows": len(a[1]), "bytes": _size(a[0])}),
    ("recipnet.io", "write_degree_snapshot", "io.write_degree_snapshot",
     lambda a, k, _: {"rows": int(a[1].n_nodes), "bytes": _size(a[0])}),
    ("recipnet.io", "read_degree_snapshot", "io.read_degree_snapshot",
     lambda a, k, res: {"rows": len(res[0])}),
    ("recipnet.io", "write_trajectory", "io.write_trajectory",
     lambda a, k, _: {"bytes": _size(a[0])}),
    ("recipnet.io", "write_pmf", "io.write_pmf", _pmf_bytes),
    ("recipnet.io", "write_json", "io.write_json", lambda a, k, _: {"bytes": _size(a[0])}),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = {"id": sid, "name": name, "parent": parent, "rss_before_kb": rss_kb()}
            self.spans.append(span)
            self.stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if attrs_fn is not None:
                span.update(attrs_fn(args, kwargs, result))
            return result
        return traced

    def install(self):
        for mod_name, attr, name, attrs_fn in TARGETS:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, attrs_fn))


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import recipnet.cli as cli
    tracer.spans.append({"id": 0, "name": "cli.import", "parent": None,
                         "start": t0, "end": time.perf_counter()})
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"pid": os.getpid(), "command": cli_args[0],
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
