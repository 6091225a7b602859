"""The work ledger: what integrating and checking each bundled scenario costs, in counts.

work_ledger.json holds, for each bundled scenario, the flow runs it makes
(those inside its checks included), their backward-Euler steps, Newton
iterations, linear iterations, damped steps (a line search that cut the
Newton step), stored snapshots and the Newton iterations whose solve took
the V-cycle (`flow._vcycle_preconditioner`).  The counts repeat exactly for the same
code and numpy, so a change meant to keep every value must keep them too;
test_work_ledger.py compares them with the scenarios the session cache runs.

A change that alters the work on purpose regenerates the ledger (from the
repository root) and lists the old and new counts with the change; the
command prints them, old -> new, for each scenario whose entry changed:

    python tests/work_ledger.py
"""

import contextlib
import json
import sys
from pathlib import Path

LEDGER = Path(__file__).with_name("work_ledger.json")
KEYS = (
    "runs", "steps", "newton_iters", "linear_iters", "damped_steps", "snapshots", "vcycle_iters"
)


@contextlib.contextmanager
def counting(work: dict):
    """Add the work of every flow.run made inside the block to work (KEYS -> int).

    Steps are counted as `_advance` accepts them, so a run that fails still
    counts the steps it took; snapshots are those of the runs that return.
    """
    from maflow import cli, flow, io, psh, verify

    run, advance, vcycle = flow.run, flow._advance, flow._vcycle_preconditioner

    def counted_run(*args, **kwargs):
        work["runs"] += 1
        traj = run(*args, **kwargs)
        work["snapshots"] += len(traj.times)
        return traj

    def counted_advance(*args, **kwargs):
        step = advance(*args, **kwargs)
        diag = step[2]
        work["steps"] += 1
        work["newton_iters"] += diag["newton_iters"]
        work["linear_iters"] += diag["linear_iters"]
        work["damped_steps"] += int(diag["damping"] < 1.0)
        return step

    def counted_vcycle(*args, **kwargs):
        work["vcycle_iters"] += 1
        return vcycle(*args, **kwargs)

    modules = (cli, flow, io, psh, verify)
    sites = [(m, name) for m in modules for name, value in vars(m).items() if value is run]
    flow._advance, flow._vcycle_preconditioner = counted_advance, counted_vcycle
    for module, name in sites:
        setattr(module, name, counted_run)
    try:
        yield work
    finally:
        flow._advance, flow._vcycle_preconditioner = advance, vcycle
        for module, name in sites:
            setattr(module, name, run)


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from conftest import run_scenario
    from maflow.scenarios import available

    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    ledger = {stem: run_scenario(stem).work for stem in available()}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    for stem in sorted(old.keys() | ledger.keys()):
        before, after = old.get(stem, {}), ledger.get(stem, {})
        moved = [f"{k} {before.get(k)} -> {after.get(k)}" for k in KEYS if before.get(k) != after.get(k)]
        if moved:
            print(f"{stem}: {', '.join(moved)}")
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
