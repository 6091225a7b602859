"""Time a workload's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <root> <scenario.json>...

Measures ``import maflow`` plus building every problem (document, grid,
flow config, metric path, volume form, driving term, initial datum and its
grid sample) and prints {"setup_s": seconds} as JSON.
"""

import json
import sys
import time


def main(argv) -> int:
    root, paths = argv[0], argv[1:]
    sys.path.insert(0, f"{root}/src")
    t0 = time.perf_counter()
    from maflow import cli

    for path in paths:
        doc = cli.load_document(path)
        grid = cli.build_grid(doc)
        cfg = cli.build_flow_config(doc)
        cli.build_metric(doc, grid, cfg.horizon)
        cli.build_volume(doc, grid)
        cli.build_driving(doc)
        cli.build_initial(doc["initial"], grid.n).sample(grid)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
