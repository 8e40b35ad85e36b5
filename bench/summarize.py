"""Summarize benchmark result files across seeds: median, quartiles, spread.

    python3 bench/summarize.py [RESULT.json ...] [--label NAME] [--out FILE]

Reads the per-run files that bench/run.py writes (default: every file in
bench/_work/results/ ending in -trace0.json or -trace1.json), groups them
by workload, size and trace mode, and reports for each metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), and
the spread (q3 - q1) / median. End-to-end spreads are compared with the
bounds in BENCHMARK.json. With ``--out`` the summary is also written as
JSON, which is how a point of bench/trajectory/ is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(files: list[Path]) -> dict:
    groups = defaultdict(list)
    for f in files:
        r = json.loads(f.read_text())
        if r["metrics"] is None:
            print(f"{f.name}: aborted run, left out", file=sys.stderr)
            continue
        groups[(r["workload"], r["size"], r["trace"])].append(r)
    out = {}
    for (workload, size, trace), runs in sorted(groups.items()):
        metrics = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None,
                             "unit": runs[0]["metrics"][name]["unit"], "runs": len(vals)}
        out[f"{workload}/{size}/trace{trace}"] = {
            "seeds": sorted(r["seed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    env = json.loads(files[0].read_text())["environment"] if files else {}
    return {"environment": env, "results": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", type=Path)
    ap.add_argument("--label", default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    files = args.files or sorted(
        p for p in (BENCH / "_work" / "results").glob("*.json")
        if p.name.endswith(("-trace0.json", "-trace1.json")))
    summary = summarize(files)
    if args.label:
        summary = {"label": args.label, **summary}
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for key, res in summary["results"].items():
        print(f"{key}: {len(res['seeds'])} runs, failed {res['failed']} of "
              f"{res['attempted']} operations")
        for name, m in res["metrics"].items():
            bound = bounds.get(name) if key.endswith("trace0") else None
            flag = ""
            if bound is not None and m["spread"] is not None:
                flag = f"bound {bound}" + ("  OVER A THIRD" if m["spread"] > bound / 3 else "")
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:38s} {m['median']:14.6g} [{m['q1']:.6g}, {m['q3']:.6g}] "
                  f"spread {spread} {m['unit']} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
