"""maflow benchmark: run one workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload rough-fd-256 --seed 1 --seconds 5 --trace 0

Load model: one process, a closed loop with a single client.  Scenarios run
one at a time through ``cli.main(["run", ...])`` and then
``cli.main(["verify", ...])``; each starts after the previous one ends.
BLAS/OpenMP pools are pinned to one thread before numpy is imported.

--trace 0: set-up is timed in fresh interpreters (median of SETUP_PROBES),
one untimed warm-up pass runs each scenario on a shortened schedule, then
timed passes repeat until --seconds have elapsed (at least one).  The
end-to-end metrics are medians over the timed passes.

--trace 1: after the warm-up, one pass with only the coarse phase timers
gives the untraced wall time, then one pass with the public maflow functions
the workloads reach and numpy's FFTs wrapped gives the per-layer metrics.
The spans go to .bench_work/traces/<workload>-seed<seed>.json.

Every scenario run is checked against the stored seed-commit outcome (see
gate.py).  The last stdout line is the JSON result; lines before it name
each metric with its unit, the work counts and the environment.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_maflow():
    """Import maflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "maflow" / "__init__.py").is_file():
        raise BenchError(f"no maflow sources under {src}")
    sys.path.insert(0, str(src))
    import maflow

    if src.resolve() not in Path(maflow.__file__).resolve().parents:
        raise BenchError(f"imported maflow from {maflow.__file__}, not from {src}")
    return maflow


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    value = out.stdout.strip()
    return int(value) if value.isdigit() else None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": {
            level: _getconf(name)
            for level, name in (
                ("L1d", "LEVEL1_DCACHE_SIZE"),
                ("L2", "LEVEL2_CACHE_SIZE"),
                ("L3", "LEVEL3_CACHE_SIZE"),
            )
        },
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(docs, workdir: Path) -> list:
    """Set-up seconds from SETUP_PROBES fresh interpreters."""
    probe_dir = workdir / f"setup-{os.getpid()}"
    probe_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for label, doc in docs:
            p = probe_dir / f"{label}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        times = []
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), *paths],
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
                check=True,
            )
            times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
        return times
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def counts_of(result: dict) -> dict:
    """The work counts that must repeat exactly for the same code and seed."""
    return {
        "flow.steps": result["work"]["steps"],
        "flow.newton_iters": result["work"]["newton_iters"],
        "flow.linear_iters": result["work"]["linear_iters"],
        "io.write.files": result["io"]["write_files"],
        "io.write.bytes": result["io"]["write_bytes"],
    }


def gate_passes(passes, refs, seed):
    """(attempted, failed, problems) over every scenario run of the passes."""
    import gate

    attempted, failed, problems = 0, 0, []
    for result in passes:
        for entry in result["outcomes"]:
            attempted += 1
            found = gate.check(entry, gate.reference_for(refs, entry["label"], seed))
            if found:
                failed += 1
                problems.append({"label": entry["label"], "problems": found})
    return attempted, failed, problems


def run(args) -> dict:
    from harness import run_pass
    from spans import Recorder
    from workloads import documents, warmup_document

    import gate
    import metrics

    docs = documents(ROOT, args.workload, args.seed)
    refs = gate.load_references()
    WORK.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "environment": environment()}

    if not args.trace:
        detail["setup_s_samples"] = measure_setup(docs, WORK)

    rec = Recorder(full=False)
    with rec.installed():
        run_pass([(label, warmup_document(doc)) for label, doc in docs], WORK, rec, replay=False)
        passes = []
        start = time.perf_counter()
        while not passes or (not args.trace and time.perf_counter() - start < args.seconds):
            passes.append(run_pass(docs, WORK, rec))

    if args.trace:
        tracer = Recorder(full=True)
        with tracer.installed():
            traced = run_pass(docs, WORK, tracer)
        counted = passes + [traced]
        layer, layer_detail = metrics.layer_values(tracer, traced, passes[0]["wall_s"])
        detail["layer_detail"] = layer_detail
        detail["counts"] = dict(counts_of(traced), **{"grid.fft.calls": layer["grid.fft.calls"]["value"]})
        detail["trace_file"] = str(write_trace(tracer, args).relative_to(ROOT))
    else:
        counted = passes
        detail["counts"] = counts_of(passes[0])

    attempted, failed, problems = gate_passes(counted, refs, args.seed)
    detail["passes"] = len(passes)
    detail["counts_repeat"] = all(counts_of(p) == counts_of(counted[0]) for p in counted)
    detail["gate_problems"] = problems
    if args.trace:
        result_metrics = layer
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result_metrics, unbounded = metrics.e2e_metrics(
            passes, detail["setup_s_samples"], peak_rss_mb, attempted, failed
        )
        detail["unbounded"] = unbounded
        detail["pass_wall_s"] = [p["wall_s"] for p in passes]
    return {"detail": detail, "metrics": result_metrics, "attempted": attempted, "failed": failed}


def write_trace(rec, args) -> Path:
    out = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "span_fields": ["id", "parent", "name", "start", "end"],
        "spans": rec.spans,
        "dropped_hot_spans": rec.dropped,
        "stats_fields": ["calls", "total_s", "self_s"],
        "stats": rec.stats,
        "fft_bytes_computed": rec.fft_bytes,
    }
    out.write_text(json.dumps(payload))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_maflow()
    except (BenchError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    out = run(args)
    detail = out["detail"]
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in detail.get("unbounded", {}).items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (not bounded)")
    print(f"scenario runs: {out['attempted']} attempted, {out['failed']} failed")
    print("detail: " + json.dumps(detail))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
