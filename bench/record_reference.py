"""Record the correctness-gate references from the current code.

Usage (from the repository root, at the commit whose outcomes are the
reference):

    python3 bench/record_reference.py --n2-seeds 0-63

Runs one pass of every bundled-scenario workload and one n2-smooth-16 pass
per listed seed, and writes each scenario's exit codes, report names, PASS
flags and margins to bench/reference.json.
"""

import argparse
import json
import os
import sys

import gate
from harness import run_pass
from run import ROOT, THREAD_VARS, WORK, import_maflow
from spans import Recorder
from workloads import WORKLOADS, documents, seed_range


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n2-seeds", default="0-63", help="inclusive seed range, e.g. 0-63")
    p.add_argument("--commit", default="unknown", help="commit the references come from")
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_maflow()
    refs = {"_commit": args.commit}
    rec = Recorder(full=False)
    with rec.installed():
        for workload, spec in WORKLOADS.items():
            if not spec["stems"]:
                continue
            for entry in run_pass(documents(ROOT, workload, 0), WORK, rec)["outcomes"]:
                refs[entry["label"]] = gate.outcome_record(entry)
                print(entry["label"], json.dumps(refs[entry["label"]]), flush=True)
        seeds = {}
        for seed in seed_range(args.n2_seeds):
            (entry,) = run_pass(documents(ROOT, "n2-smooth-16", seed), WORK, rec)["outcomes"]
            seeds[str(seed)] = gate.outcome_record(entry)
            print("n2-smooth-16", seed, json.dumps(seeds[str(seed)]), flush=True)
        refs["n2-smooth-16"] = {"seeds": seeds}
    gate.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
