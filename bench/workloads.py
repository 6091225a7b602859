"""The benchmark's workloads: which scenario documents one pass runs.

Three workloads replay bundled scenarios unchanged.  ``n2-smooth-16`` is a
benchmark-owned n = 2 document whose initial datum is drawn from the seed.
"""

import copy
import json
import math
import random
from pathlib import Path

# wavevectors of the three n2-smooth-16 modes, and the drawn bound on the
# summed symbol pi^2 * a_m * |k_m|^2 (at most 1/2, so I + H(phi0) >= 1/2)
N2_WAVEVECTORS = ((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0))
N2_BUDGET = (0.40, 0.50)
WARMUP_STEPS = 4

WORKLOADS = {
    "rough-fd-256": {
        "stems": ("06-kink-smoothing", "11-convergence-modes"),
        "why": "n=1 256^2 fd kink flow plus six-level cascade: stencil passes and FFT "
        "preconditioning dominate; only workload with mollification and convergence audits",
    },
    "steps-small": {
        "stems": ("02-constant-ode", "12-nef-start"),
        "why": "~13k steps on <=4096 points (8^2, 8^4 nef family): per-step Python "
        "overhead and many small archive files dominate, FFTs are tiny",
    },
    "n2-smooth-16": {
        "stems": (),
        "why": "n=2 at 16^4, spectral, seeded three-mode datum: complex h12 symbol "
        "and 2x2 cone algebra at a size where FFTs dominate",
    },
    "cone-degenerate": {
        "stems": ("07-derivative-asymptotics",),
        "why": "paraboloid corner at curvature 0.999 (128^2 fd): ~17 BiCGSTAB "
        "iterations per Newton step, so linear-solver iterations set the time",
    },
}


def seed_range(spec: str) -> list:
    """Seeds from an inclusive range such as "1-10" (or a single seed)."""
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def n2_document(seed: int) -> dict:
    """The n2-smooth-16 scenario with its three modes drawn from seed."""
    rng = random.Random(seed)
    budget = rng.uniform(*N2_BUDGET)
    weights = [rng.uniform(0.5, 1.0) for _ in N2_WAVEVECTORS]
    total = sum(weights)
    modes = []
    for w, k in zip(weights, N2_WAVEVECTORS):
        k2 = sum(v * v for v in k)
        amplitude = budget * (w / total) / (math.pi**2 * k2)
        modes.append([amplitude, list(k), rng.uniform(0.0, 2.0 * math.pi)])
    return {
        "name": "n2-smooth-16",
        "comment": "benchmark-owned n = 2 smooth flow at 16^4 with a seeded three-mode datum",
        "grid": {"n": 2, "resolution": 16},
        "metric": {"kind": "constant"},
        "volume": {"kind": "cosine", "amplitude": 0.2, "axis": 2},
        "driving": {"kind": "affine", "constant": 0.0, "slope": 0.5},
        "initial": {"kind": "fourier-sum", "modes": modes},
        "mode": "single",
        "flow": {
            "horizon": 0.1,
            "t_min": 0.001,
            "ratio": 1.2,
            "backend": "spectral",
            "probes": [0.05, 0.1],
        },
        "checks": ["apriori-bounds", "energy", "residual-certificate"],
        "seed": seed,
    }


def documents(root: Path, workload: str, seed: int) -> list:
    """[(label, doc)] for one pass of the workload, in run order."""
    if workload == "n2-smooth-16":
        return [("n2-smooth-16", n2_document(seed))]
    scen = root / "src" / "maflow" / "scenarios"
    return [(stem, json.loads((scen / f"{stem}.json").read_text())) for stem in WORKLOADS[workload]["stems"]]


def warmup_document(doc: dict) -> dict:
    """The same scenario cut to its first few schedule steps and no checks.

    Runs the same grid sizes, backends and code paths (so FFT plans, imports
    and allocator pools are warm) at a small fraction of the pass cost.
    """
    short = copy.deepcopy(doc)
    flow = short["flow"]
    t_min = float(flow.get("t_min", 1e-4))
    step = min(t_min * (float(flow.get("ratio", 1.05)) - 1.0), float(flow.get("dt_max") or math.inf))
    flow["horizon"] = t_min + WARMUP_STEPS * step
    flow["probes"] = []
    short["checks"] = []
    return short
