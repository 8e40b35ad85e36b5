"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 bench/selftest.py

It checks that:
- every workload runs traced at ``--size tiny`` and one runs untraced;
  each reports ``correct: true`` and prints exactly the metrics that
  BENCHMARK.json lists, with their units;
- the output checks reject a tampered artifact;
- the benchmark refuses to run, without printing a result, in a tree that
  holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when all hold and 1 otherwise, naming each failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "_work" / "selftest"


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    p = run_bench(ROOT, workload, trace)
    tag = f"{workload} --trace {trace}"
    if p.returncode != 0:
        return [f"{tag}: exit code {p.returncode}: {p.stderr.strip()[-500:]}"]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    errs = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errs.append(f"{tag}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errs.append(f"{tag}: correct={res['correct']} failed={res['failed']}\n{p.stdout}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        errs.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                    f"{sorted(set(got.items()) ^ set(expected.items()))}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            errs.append(f"{tag}: {k} is not a number")
    if not trace:
        zero = [k for k, v in res["metrics"].items() if v["value"] <= 0]
        if zero:
            errs.append(f"{tag}: end-to-end metrics not positive: {zero}")
    return errs


def check_checks() -> list[str]:
    """Checks pass on real outputs and fail once an artifact is tampered with."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    cfg = wl.make_config("tiny", 7)
    config = wl.write_config(SCRATCH / "config.json", cfg)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    errs = []
    for st in wl.steps("grow-k2", config, SCRATCH / "out", 1) + \
            wl.steps("limit-k2", config, SCRATCH / "out", 1):
        p = subprocess.run([sys.executable, "-m", "recipnet.cli", *st.args], cwd=ROOT,
                           env=env, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            return [f"{st.name}: exit code {p.returncode}: {p.stderr.strip()}"]
    rho = json.loads((SCRATCH / "out/analyze/analyze.json").read_text())[
        "equilibrium"]["rho_star"]
    sim = wl.Step("simulate", (), SCRATCH / "out" / "sim")
    emb = wl.Step("embed", (), SCRATCH / "out" / "embed")
    for st in (sim, emb):
        if wl.check_step(st, cfg, rho):
            errs.append(f"{st.name}: checks fail on untouched outputs: "
                        f"{wl.check_step(st, cfg, rho)}")
    if not wl.check_step(sim, cfg, rho + 0.5):
        errs.append("simulate: a wrong rho* went unnoticed")
    summary = json.loads((sim.out / "summary.json").read_text())
    summary["reciprocal_edges"] += 1
    (sim.out / "summary.json").write_text(json.dumps(summary))
    if not wl.check_step(sim, cfg, rho):
        errs.append("simulate: a tampered summary.json went unnoticed")
    with open(emb.out / "pmf.csv", "a") as fh:
        fh.write("31,0,0.25\n")
    if not wl.check_step(emb, cfg, rho):
        errs.append("embed: extra pmf mass went unnoticed")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return errs


def check_no_sources() -> list[str]:
    """Without the program's sources the benchmark exits non-zero, silently."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work",
                                                                         "__pycache__"))
    p = run_bench(bare, "verify-k2", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        return [f"without sources: exit code {p.returncode}, stdout {p.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = check_no_sources() + check_checks()
    # a traced run also runs untraced iterations; one untraced run covers
    # the end-to-end metric set, which is the same for every workload
    errs += check_result("verify-k2", 0, spec)
    for workload in wl.WORKLOADS:
        errs += check_result(workload, 1, spec)
    for e in errs:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errs else "ok")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
