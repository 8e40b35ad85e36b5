"""Benchmark of the recipnet CLI, end to end and per layer.

    python3 bench/run.py --workload grow-k2 --seed 1 --seconds 20 --trace 0

Each workload is a fixed sequence of ``python -m recipnet.cli <sub>``
launches (one fresh process per subcommand) on a config generated from
``--seed``. The run repeats the workload at that seed for ``--seconds``
(at least twice, so artifacts can be compared byte for byte), checks the
outputs, and prints a table and, as its last line, one JSON object.

``--trace 0`` reports the end-to-end metrics: medians over iterations of
wall time, CPU time and peak RSS, and the median set-up (interpreter
start plus ``import recipnet.cli``) times the workload's process count.
``--trace 1`` is the traced run: it alternates traced iterations, whose
processes run under ``bench/trace_cli.py``, with untraced ones, and
reports the per-layer metrics from the spans plus ``trace.overhead_s``.

Details of each run (environment, per-iteration numbers, errors, spans)
go to ``bench/_work/results/``. ``--size tiny`` runs the same steps and
checks at sizes that take seconds; ``bench/selftest.py`` uses it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "_work"
RESULTS = WORK / "results"
BUDGET_S = 165.0          # every run must exit within 180 s
MIN_ITERATIONS = 2        # byte-identity needs a repeat at the same seed

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MODULES = ("cli", "simulate", "branching", "embedding", "tails", "io",
           "equilibrium", "spectral", "params")
PER_LAYER_UNITS = {
    "simulate.run_s": "s",
    "simulate.ns_per_step": "ns/step",
    "simulate.rss_bytes_per_step": "B/step",
    "simulate.edges": "count",
    "simulate.reciprocal_edges": "count",
    "io.write_edges.rows_per_s": "rows/s",
    "io.write_degree_snapshot.rows_per_s": "rows/s",
    "io.read_degree_snapshot.rows_per_s": "rows/s",
    "io.write_pmf_s": "s",
    "io.bytes_written": "B",
    "tails.tail_report_s": "s",
    "tails.hill_sweep_len": "count",
    "cli.diagnose.self_s": "s",
    "branching.estimate_pkl_s": "s",
    "branching.replicates_per_s": "1/s",
    "branching.failed": "count",
    "branching.degree_sum": "count",
    "embedding.verify_equivalence_s": "s",
    "embedding.chains_per_s": "1/s",
    "embedding.enumerate_graph_law_s": "s",
    "embedding.passes": "count",
    "embedding.min_p_value": "p",
    "equilibrium.solve_equilibrium_s": "s",
    "equilibrium.iterations": "count",
    "spectral.all_spectra_s": "s",
    **{f"{m}.import_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


class Abort(RuntimeError):
    """The run cannot continue (time budget spent or a set-up step failed)."""


@dataclass
class Proc:
    name: str
    code: int
    start: float
    end: float
    cpu_s: float
    maxrss_kb: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Launches program processes one at a time and books each as an operation."""

    def __init__(self, env: dict, log: Path, budget_s: float):
        self.env = env
        self.log = log
        self.deadline = time.perf_counter() + budget_s
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def book(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)
        return not errors

    def launch(self, name: str, argv: list[str], stdout: Path | None = None) -> Proc:
        """Run one process to completion; rusage covers it and its children.

        Output goes to the run's log, or standard output to ``stdout``.
        """
        with open(self.log, "ab") as log, open(stdout or os.devnull, "wb") as out:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            if start >= self.deadline:
                raise Abort("time budget spent")
            # own process group, so a kill also reaches embed's pool workers
            p = subprocess.Popen(argv, stdout=out if stdout else log, stderr=log,
                                 env=self.env, cwd=ROOT, start_new_session=True)
            timer = threading.Timer(self.deadline - start, _kill_group, (p,))
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                _kill_group(p)
                p.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
        return Proc(name, p.returncode, start, end, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss)

    def python(self, name: str, *args: str) -> Proc:
        return self.launch(name, [sys.executable, *args])

    def probe(self, what: str, *args: str) -> dict | None:
        """Run ``bench/probe.py``; its JSON output, or None after booking a failure."""
        out = self.log.with_name("probe.json")
        p = self.launch(what, [sys.executable, str(BENCH / "probe.py"), *args], stdout=out)
        if p.code != 0:
            self.book(what, [f"exit code {p.code}"])
            return None
        return json.loads(out.read_text())


def _kill_group(p: subprocess.Popen) -> None:
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median(xs):
    return statistics.median(xs) if xs else 0.0


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
            sha = r.stdout.strip() or None
        except OSError:
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "cache": cache_sizes()}


# ---------------------------------------------------------------- set-up


def measure_setup(runner: Runner, n_procs: int, n_samples: int) -> tuple[float, list[float]]:
    """Median of fresh ``import recipnet.cli`` launches, times the process count."""
    warm = runner.python("import-warmup", "-c", "import recipnet.cli")
    if not runner.book("import recipnet.cli", [] if warm.code == 0 else
                       [f"exit code {warm.code}"]):
        raise Abort("recipnet.cli does not import")
    samples = []
    for _ in range(n_samples):
        p = runner.python("import", "-c", "import recipnet.cli")
        runner.book("import recipnet.cli", [] if p.code == 0 else [f"exit code {p.code}"])
        samples.append(p.wall_s)
    return median(samples) * n_procs, samples


def threads_check(runner: Runner, size: str, seed: int, work: Path, nproc: int):
    """pmf files are byte-identical at --threads 1 and --threads min(2, nproc)."""
    cfg = wl.make_config(size, seed)
    cfg["embed"]["replicates"] = wl.SIZES[size]["threads_check_replicates"]
    path = wl.write_config(work / "threads" / "config.json", cfg)
    hashes = []
    for t in (1, min(2, nproc)):
        out = work / "threads" / f"t{t}"
        p = runner.python("embed", "-m", "recipnet.cli", "embed", "--config", str(path),
                          "--out", str(out), "--threads", str(t))
        errs = [f"exit code {p.code}"] if p.code else wl.check_embed(out, cfg)
        hashes.append({k: v for k, v in wl.hash_tree(out).items()
                       if k.startswith("pmf")})
        if t != 1 and not errs and hashes[0] != hashes[-1]:
            errs = [f"pmf files differ between --threads 1 and --threads {t}"]
        runner.book(f"embed --threads {t}", errs)


def reference_rho_star(runner: Runner, config: Path, work: Path) -> float | None:
    """rho* from an untimed ``analyze`` of the workload's config."""
    out = work / "reference"
    p = runner.python("analyze", "-m", "recipnet.cli", "analyze", "--config", str(config),
                      "--out", str(out))
    errs = [f"exit code {p.code}"] if p.code else wl.check_analyze(out)
    if not runner.book("reference analyze", errs):
        return None
    return json.loads((out / "analyze.json").read_text())["equilibrium"]["rho_star"]


# ------------------------------------------------------------ iterations


def run_iteration(runner: Runner, steps, traced: bool, spans_dir: Path) -> list[Proc]:
    procs = []
    for i, st in enumerate(steps):
        shutil.rmtree(st.out, ignore_errors=True)
        if traced:
            spans = spans_dir / f"{i}-{st.name}.json"
            argv = [str(BENCH / "trace_cli.py"), str(spans), *st.args]
        else:
            argv = ["-m", "recipnet.cli", *st.args]
        p = runner.python(st.name, *argv)
        procs.append(p)
        if p.code != 0:
            break
    return procs


def book_iteration(runner, steps, procs, cfg, rho_star, reference, check_content):
    """Exit codes, output checks and byte identity against the first iteration."""
    for i, st in enumerate(steps):
        if i >= len(procs):
            runner.book(st.name, ["not run: an earlier step failed"])
            continue
        if procs[i].code != 0:
            runner.book(st.name, [f"exit code {procs[i].code}"])
            continue
        errs = wl.check_step(st, cfg, rho_star) if check_content else []
        hashes = wl.hash_tree(st.out)
        if st.name not in reference:
            reference[st.name] = hashes
        elif hashes != reference[st.name]:
            diff = sorted(k for k in set(hashes) | set(reference[st.name])
                          if hashes.get(k) != reference[st.name].get(k))
            errs.append(f"artifacts differ from the first run at this seed: {diff}")
        runner.book(st.name, errs)


def iteration_summary(procs: list[Proc]) -> dict:
    return {"wall_s": procs[-1].end - procs[0].start,
            "cpu_s": sum(p.cpu_s for p in procs),
            "peak_rss_mb": max(p.maxrss_kb for p in procs) / 1024.0,
            "steps": {p.name: {"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                               "maxrss_kb": p.maxrss_kb, "code": p.code} for p in procs}}


# ------------------------------------------------------------ per-layer


def load_spans(spans_dir: Path) -> list[dict]:
    out = []
    for f in sorted(spans_dir.glob("*.json")):
        rec = json.loads(f.read_text())
        out.extend({**s, "process": rec["command"], "pid": rec["pid"]}
                   for s in rec["spans"])
    return out


def layer_metrics(spans: list[dict]) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def per(num, den):
        return num / den if den else 0.0

    def self_time(name):
        children = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[(s["pid"], s["parent"])] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - children[(s["pid"], s["id"])]
                   for s in by_name[name])

    n_steps = attr("simulate.run", "n_steps")
    rss_growth_kb = sum(s["maxrss_kb"] - s["rss_before_kb"] for s in by_name["simulate.run"])
    p_values = [s["p_value"] for s in by_name["embedding.verify_equivalence"]]
    io_names = [n for n in by_name if n.startswith("io.")]
    return {
        "simulate.run_s": total("simulate.run"),
        "simulate.ns_per_step": per(total("simulate.run") * 1e9, n_steps),
        "simulate.rss_bytes_per_step": per(rss_growth_kb * 1024.0, n_steps),
        "simulate.edges": attr("simulate.run", "edges"),
        "simulate.reciprocal_edges": attr("simulate.run", "reciprocal_edges"),
        "io.write_edges.rows_per_s": per(attr("io.write_edges", "rows"),
                                         total("io.write_edges")),
        "io.write_degree_snapshot.rows_per_s": per(attr("io.write_degree_snapshot", "rows"),
                                                   total("io.write_degree_snapshot")),
        "io.read_degree_snapshot.rows_per_s": per(attr("io.read_degree_snapshot", "rows"),
                                                  total("io.read_degree_snapshot")),
        "io.write_pmf_s": total("io.write_pmf"),
        "io.bytes_written": sum(attr(n, "bytes") for n in io_names),
        "tails.tail_report_s": total("tails.tail_report"),
        "tails.hill_sweep_len": attr("tails.tail_report", "hill_sweep_len"),
        "cli.diagnose.self_s": self_time("cli.diagnose"),
        "branching.estimate_pkl_s": total("branching.estimate_pkl"),
        "branching.replicates_per_s": per(attr("branching.estimate_pkl", "replicates"),
                                          total("branching.estimate_pkl")),
        "branching.failed": attr("branching.estimate_pkl", "failed"),
        "embedding.verify_equivalence_s": total("embedding.verify_equivalence"),
        "embedding.chains_per_s": per(attr("embedding.verify_equivalence", "replicates"),
                                      total("embedding.verify_equivalence")),
        "embedding.enumerate_graph_law_s": total("embedding.enumerate_graph_law"),
        "embedding.min_p_value": min(p_values) if p_values else 0.0,
        "equilibrium.solve_equilibrium_s": total("equilibrium.solve_equilibrium"),
        "equilibrium.iterations": attr("equilibrium.solve_equilibrium", "iterations"),
        "spectral.all_spectra_s": total("spectral.all_spectra"),
    }


def import_times(runner: Runner, samples: int) -> tuple[dict, int]:
    """Median <module>.import_s over fresh processes, and the sample count."""
    per_module = defaultdict(list)
    for _ in range(samples):
        res = runner.probe("import probe", "imports", str(ROOT / "src"))
        if res is not None:
            runner.book("import probe", [])
            for m, t in res.items():
                per_module[m].append(t)
    return ({f"{m}.import_s": median(per_module[m]) for m in MODULES},
            len(per_module["cli"]))


def degree_sum(runner: Runner, embed_out: Path) -> int:
    """branching.degree_sum, cross-checked against the embed step's pmf.json."""
    res = runner.probe("degree-sum probe", "degree-sum", str(embed_out / "config.json"))
    if res is None:
        return 0
    meta = json.loads((embed_out / "pmf.json").read_text())
    errs = []
    if res["failed"] != meta["failed"] or res["replicates"] != meta["replicates"]:
        errs.append("sample_limit_pairs and estimate_pkl disagree on failed/replicates")
    ok = res["replicates"] - res["failed"]
    if ok and abs(res["overflow"] / ok - meta["overflow_mass"]) > 1e-12:
        errs.append("sample_limit_pairs and estimate_pkl disagree on overflow mass")
    runner.book("degree-sum probe", errs)
    return res["degree_sum"]


# ------------------------------------------------------------------ main


def measure(args, runner: Runner, work: Path, env_info: dict) -> dict:
    size, seed, workload = args.size, args.seed, args.workload
    cfg = wl.make_config(size, seed)
    config = wl.write_config(work / "config.json", cfg)
    threads = min(2, env_info["nproc"])
    steps = wl.steps(workload, config, work / "out", threads)

    setup_s, setup_samples = measure_setup(runner, len(steps),
                                           wl.SIZES[size]["setup_samples"])
    threads_check(runner, size, seed, work, env_info["nproc"])
    rho_star = reference_rho_star(runner, config, work) if workload == "grow-k2" else None
    imports, n_imports = import_times(runner, wl.SIZES[size]["import_samples"]) \
        if args.trace else ({}, 0)

    reference: dict = {}
    untraced, traced, spans_all = [], [], []
    t0 = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - t0
        enough = (len(untraced) >= 1 and len(traced) >= 1) if args.trace \
            else len(untraced) >= MIN_ITERATIONS
        # stop where the run's length lands closest to --seconds
        if enough and elapsed + last / 2 >= args.seconds:
            break
        if time.perf_counter() + 1.3 * last > runner.deadline:
            break
        trace_now = bool(args.trace) and len(traced) < len(untraced)
        spans_dir = work / "spans" / str(len(traced))
        if trace_now:
            spans_dir.mkdir(parents=True)
        t_it = time.perf_counter()
        procs = run_iteration(runner, steps, trace_now, spans_dir)
        last = time.perf_counter() - t_it
        book_iteration(runner, steps, procs, cfg, rho_star, reference,
                       check_content=not reference)
        if len(procs) != len(steps) or any(p.code for p in procs):
            break
        (traced if trace_now else untraced).append(iteration_summary(procs))
        if trace_now:
            spans = load_spans(spans_dir)
            traced[-1]["layers"] = layer_metrics(spans)
            spans_all.append(spans)
    if len(untraced) + len(traced) < 2:
        runner.book("byte identity", ["fewer than two runs at this seed"])

    record = {"setup_samples_s": setup_samples, "untraced": untraced, "traced": traced}
    e2e = {
        "wall_s": median([u["wall_s"] for u in untraced]),
        "setup_s": setup_s,
        "cpu_s": median([u["cpu_s"] for u in untraced]),
        "peak_rss_mb": median([u["peak_rss_mb"] for u in untraced]),
    }
    if not args.trace:
        return {"metrics": e2e, "samples": {"setup_s": len(setup_samples),
                                            **{k: len(untraced) for k in e2e
                                               if k != "setup_s"}},
                "record": record}

    layers = {k: median([t["layers"][k] for t in traced]) for k in traced[0]["layers"]} \
        if traced else {}
    by_step = {st.name: st for st in steps}
    if "verify" in by_step and (by_step["verify"].out / "verify.json").exists():
        layers["embedding.passes"] = json.loads(
            (by_step["verify"].out / "verify.json").read_text())["passes"]
    if "embed" in by_step and traced:
        layers["branching.degree_sum"] = degree_sum(runner, by_step["embed"].out)
    layers.update(imports)
    if traced:
        layers["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                                      - e2e["wall_s"])
    metrics = {k: layers.get(k, 0) for k in PER_LAYER_UNITS}
    (RESULTS / f"{args.workload}-{size}-seed{seed}-spans.json").write_text(
        json.dumps(spans_all))
    samples = {k: n_imports if k in imports else len(traced) for k in metrics}
    return {"metrics": metrics, "samples": samples, "record": record}


def print_table(args, out: dict, runner: Runner, units: dict):
    print(f"{args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} operations={runner.attempted} failed={runner.failed}")
    print(f"{'metric':38s} {'value':>16s}  {'n':>3s}  unit")
    for k, v in out["metrics"].items():
        print(f"{k:38s} {v:16.6g}  {out['samples'][k]:3d}  {units[k]}")
    print(f"{'fail_frac':38s} {runner.failed / max(runner.attempted, 1):16.6g}  "
          f"{runner.attempted:3d}  failed/attempted")
    for e in runner.errors:
        print(f"ERROR {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    args = ap.parse_args(argv)
    # a terminated run still stops the processes it started (see Runner.launch)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "recipnet" / "cli.py").is_file():
        print(f"bench: no recipnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    runner = Runner(env, work / "program.log", BUDGET_S)

    env_info = environment()
    try:
        out = measure(args, runner, work, env_info)
    except Abort as exc:
        runner.book("run", [str(exc)])
        out = None
    finally:
        log = (work / "program.log").read_text(errors="replace")
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "environment": env_info,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "errors": runner.errors,
        "metrics": None if out is None else
        {k: {"value": v, "unit": units[k], "n": out["samples"][k]}
         for k, v in out["metrics"].items()},
        "record": None if out is None else out["record"],
    }
    if runner.errors:
        result["program_log_tail"] = log[-4000:]
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if out is None:
        print(f"bench: run aborted: {runner.errors[-1]}", file=sys.stderr)
        return 1

    print_table(args, out, runner, units)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
