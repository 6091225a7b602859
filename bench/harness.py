"""One workload pass: each scenario's ``maflow run`` and its archive replay.

Scenarios go through the same entry point the ``maflow`` command uses
(``cli.main``), one at a time, into a temporary directory that is removed
after the pass.  The caller installs a ``spans.Recorder`` around the pass;
its coarse groups give the integrate/checks/archive split and its flow hook
gives the step counts.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from pathlib import Path


def _call_cli(argv, rec):
    """cli.main(argv) with output captured; returns (exit code, reports, error)."""
    from maflow import cli

    rec.reports = []
    sink = io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails this scenario run, not the benchmark
        error = f"{type(exc).__name__}: {exc}"
    if error is None and code not in (0, 1):
        lines = sink.getvalue().strip().splitlines()
        error = lines[-1] if lines else f"exit {code}"
    reports = [[r.name, bool(r.passed), float(r.margin)] for r in rec.reports]
    return {"exit": code, "reports": reports}, error


def _replay(out: Path, doc: dict, rec):
    """Re-audit the archive with the scenario's own archive checks.

    An archive without a top-level manifest (the nef family) is replayed by
    loading each member archive; no checks run on it.
    """
    from maflow import cli
    from maflow import io as archive_io

    if not (out / "manifest.json").is_file():
        try:
            members = sorted(p for p in out.iterdir() if (p / "manifest.json").is_file())
            for member in members:
                archive_io.load_trajectory(member)
        except Exception as exc:  # a crash fails this scenario run, not the benchmark
            return {"exit": None, "reports": []}, f"{type(exc).__name__}: {exc}"
        return {"exit": 0, "reports": [], "members": len(members)}, None
    argv = ["verify", str(out), "--out", str(out / "replay")]
    for name in doc.get("checks", []):
        if name in cli.ARCHIVE_CHECKS:
            argv += ["--check", name]
    return _call_cli(argv, rec)


def run_pass(docs, workdir: Path, rec, replay: bool = True) -> dict:
    """Run every (label, doc) once; returns timings, outcomes and counts.

    The scenario documents are written before the clock starts; the archive
    directory is walked (for the written file and byte counts) and removed
    after it stops.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    try:
        paths = []
        for label, doc in docs:
            p = tmp / f"{label}.json"
            p.write_text(json.dumps(doc))
            paths.append(p)
        outcomes = []
        rec.reset()
        t0 = time.perf_counter()
        for (label, doc), path in zip(docs, paths):
            out = tmp / "runs" / label
            entry = {"label": label}
            entry["run"], entry["run_error"] = _call_cli(
                ["run", "--config", str(path), "--out", str(out)], rec
            )
            if replay and entry["run"]["exit"] in (0, 1):
                entry["replay"], entry["replay_error"] = _replay(out, doc, rec)
            outcomes.append(entry)
        wall = time.perf_counter() - t0
        files, size = 0, 0
        for dirpath, _, names in os.walk(tmp / "runs"):
            for name in names:
                files += 1
                size += os.path.getsize(os.path.join(dirpath, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "wall_s": wall,
        "integrate_s": rec.group_s["integrate"],
        "checks_s": rec.group_s["checks"],
        "archive_s": rec.group_s["archive"],
        "work": dict(rec.work),
        "io": {"write_files": files, "write_bytes": size, **rec.io},
        "outcomes": outcomes,
    }
