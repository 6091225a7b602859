"""Correctness gate: every scenario run must reproduce the seed-commit outcome.

A scenario run (its ``maflow run`` plus its archive replay) passes when the
exit codes match, the report names match in order, every PASS flag matches,
and every margin agrees with the stored reference within

    |margin - reference| <= MARGIN_ATOL + MARGIN_RTOL * |reference|

MARGIN_ATOL is ten times the default Newton tolerance (1e-10): margins are
built from Newton-converged states, so a change that only reorders
floating-point work may move them at that level and no further.  Both
tolerances are far tighter than the loosest pinned tolerance in
tests/test_acceptance.py (rel 1e-3).  Infinite margins must match exactly.

References live in reference.json next to this file, keyed by scenario
label; ``n2-smooth-16`` keeps one reference per recorded seed.  For a seed
without a recorded outcome the gate still requires the recorded exit codes,
report names and PASS flags, and requires the replayed margins to equal the
live ones; only the comparison with seed-commit margins is skipped.
"""

import json
import math
from pathlib import Path

MARGIN_ATOL = 1e-9
MARGIN_RTOL = 1e-7
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def _unpinned(outcome: dict) -> dict:
    return dict(outcome, reports=[[name, passed, None] for name, passed, _ in outcome["reports"]])


def reference_for(refs: dict, label: str, seed: int):
    entry = refs.get(label)
    if entry is None or "seeds" not in entry:
        return entry
    if str(seed) in entry["seeds"]:
        return entry["seeds"][str(seed)]
    recorded = next(iter(entry["seeds"].values()))
    return {"run": _unpinned(recorded["run"]), "replay": _unpinned(recorded["replay"]), "unpinned": True}


def _margin_ok(got: float, want) -> bool:
    if want is None:
        return True
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= MARGIN_ATOL + MARGIN_RTOL * abs(want)


def _compare(phase: str, got: dict, want: dict) -> list:
    if got is None:
        return [f"{phase}: did not run"]
    problems = []
    if got["exit"] != want["exit"]:
        problems.append(f"{phase}: exit {got['exit']} != {want['exit']}")
    if got.get("members") != want.get("members"):
        problems.append(f"{phase}: {got.get('members')} member archives, reference {want.get('members')}")
    names = [r[0] for r in got["reports"]]
    want_names = [r[0] for r in want["reports"]]
    if names != want_names:
        problems.append(f"{phase}: reports {names} != {want_names}")
        return problems
    for (name, passed, margin), (_, want_passed, want_margin) in zip(got["reports"], want["reports"]):
        if passed != want_passed:
            problems.append(f"{phase}: {name} passed={passed}, reference {want_passed}")
        if not _margin_ok(margin, want_margin):
            problems.append(f"{phase}: {name} margin {margin!r} != reference {want_margin!r}")
    return problems


def check(entry: dict, reference) -> list:
    """Problems with one scenario run; empty when it passes the gate."""
    problems = [f"{p}: {entry[p + '_error']}" for p in ("run", "replay") if entry.get(p + "_error")]
    if reference is None:
        return problems + [f"no reference outcome for {entry['label']}"]
    problems += _compare("run", entry["run"], reference["run"])
    problems += _compare("replay", entry.get("replay"), reference["replay"])
    if reference.get("unpinned") and not problems:
        live = {name: margin for name, _, margin in entry["run"]["reports"]}
        replayed = [[name, passed, live.get(name)] for name, passed, _ in entry["replay"]["reports"]]
        problems += _compare("replay vs run", entry["replay"], dict(entry["replay"], reports=replayed))
    return problems


def outcome_record(entry: dict) -> dict:
    """The part of a scenario run that becomes its reference."""
    return {"run": entry["run"], "replay": entry.get("replay")}
