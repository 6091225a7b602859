"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py [--workload NAME ...] [--seeds 1-10] [--out FILE]

Runs ``bench/run.py`` once per seed for each workload (default: all), one
run after another, and prints for each metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to a third of the metric's bound.  It also reports whether the work
counts repeated exactly across the runs (they share inputs except on
n2-smooth-16, whose datum is drawn from the seed).  --out writes every run
and summary as JSON; baseline.json is that file at the seed commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import E2E, RUN_SECONDS
from workloads import WORKLOADS, seed_range

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail: "))[len("detail: "):])
    return {"seed": seed, "result": json.loads(lines[-1]), "counts": detail["counts"]}


def summarise(runs) -> dict:
    bounds = {name: bound for name, _, _, bound, _ in E2E}
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="repeatable; default all")
    p.add_argument("--seeds", default="1-10", help="inclusive seed range")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    report = {}
    for workload in args.workload or list(WORKLOADS):
        runs = []
        for seed in seed_range(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            limit = "" if s["bound"] is None else f"  (bound/3 {s['bound'] / 3:.3f})"
            print(f"  {name:26s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{limit}")
        counts = [r["counts"] for r in runs]
        print("  counts repeat across runs:", all(c == counts[0] for c in counts), flush=True)
        report[workload] = {"runs": runs, "summary": summary}
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
