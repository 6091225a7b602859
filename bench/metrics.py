"""Metric definitions and the functions that compute them.

E2E lists the end-to-end metrics (untraced runs) with their regression
bound.  LAYER lists the per-layer metrics (traced run) with the end-to-end
metric and workload each should move.  ``python3 bench/metrics.py`` prints
the BENCHMARK.json these tables describe.

Only layer timings that every workload exercises are per-layer metrics, so
no timing reads a constant zero; the timings of functions that only some
workloads reach (psh.mollify.s, psh.energy.s, grid.fft.s, verify.<check>.s)
are printed in the traced run's detail and trace file.  No workload reaches
psh.capacity_lower_bound: the convergence check uses it only for data tagged
"bounded", and 11-convergence-modes starts from a Lipschitz kink.
"""

import json
import statistics
import sys

from workloads import WORKLOADS

RUN_SECONDS = 5

# The workloads BENCHMARK.json lists.  rough-fd-256 and steps-small stay
# runnable (and in baseline.json), but are left out: their passes last 15-50 s,
# so ten runs span up to eight minutes of host-load drift, and their ten-run
# wall_s spread reached 0.25 and 0.36 on a shared 2-vCPU host, beyond the
# largest bound a benchmark may set.  The two listed workloads stayed within
# 0.09-0.29 (cone-degenerate) and 0.08-0.23 (n2-smooth-16) over six sets.
BENCHMARK_WORKLOADS = ("n2-smooth-16", "cone-degenerate")

E2E = [
    ("wall_s", "s", "lower", 0.25, "one pass: every scenario's run (integrate, checks, archive write) plus its archive replay"),
    ("setup_s", "s", "lower", 0.25, "fresh interpreter: import maflow and build every problem of the workload"),
    ("peak_rss_mb", "MB", "lower", 0.1, "high-water RSS of the process that runs only this workload"),
    ("passed_frac", "ratio", "higher", 0.01, "scenario runs passing the correctness gate / runs attempted"),
]

# Printed with the end-to-end metrics (and kept in baseline.json) but not
# bounded in BENCHMARK.json.  On a shared host the split of a pass between
# integration, checks and archive I/O moves more from run to run than the
# pass does: over ten runs, integrate_s and steps_per_s spread up to 27% on
# steps-small, and checks_s and archive_s (0.03-1.5 s on three workloads)
# 33-42%, beyond the largest bound a benchmark may set.  failed_frac is 0
# whenever the gate passes, so passed_frac carries it.
E2E_UNBOUNDED = [
    ("integrate_s", "s", "time inside cli.integrate_scenario plus comparison-pair runs"),
    ("steps_per_s", "steps/s", "accepted backward-Euler steps in the pass / integrate_s"),
    ("checks_s", "s", "time in check execution, live and replayed"),
    ("archive_s", "s", "time in io.save_*/io.load_* and cli._save_nef (outermost calls)"),
    ("failed_frac", "ratio", "scenario runs failing the correctness gate / runs attempted"),
]

# (name, unit, better, moves): moves names the end-to-end metric and workload
LAYER = [
    ("grid.hessian.calls", "count", "lower", "integrate_s on n2-smooth-16, rough-fd-256"),
    ("grid.hessian.s", "s", "lower", "integrate_s on n2-smooth-16, rough-fd-256; flat on steps-small"),
    ("grid.fft.calls", "count", "lower", "integrate_s on n2-smooth-16, rough-fd-256; flat on steps-small"),
    ("grid.fft.bytes", "B-computed", "lower", "integrate_s on n2-smooth-16, rough-fd-256 (input+output array bytes)"),
    ("grid.self_s", "s", "lower", "integrate_s on rough-fd-256, cone-degenerate (fd stencils)"),
    ("fft.calls", "count", "lower", "integrate_s on n2-smooth-16, rough-fd-256"),
    ("fft.s", "s", "lower", "integrate_s on n2-smooth-16, rough-fd-256; flat on steps-small"),
    ("geometry.cone_test.calls", "count", "lower", "integrate_s on n2-smooth-16"),
    ("geometry.cone_test.s", "s", "lower", "integrate_s on n2-smooth-16; steps_per_s on steps-small"),
    ("geometry.det.s", "s", "lower", "integrate_s on n2-smooth-16; steps_per_s on steps-small"),
    ("geometry.trace_inv.calls", "count", "lower", "integrate_s on n2-smooth-16, cone-degenerate"),
    ("geometry.trace_inv.s", "s", "lower", "integrate_s on n2-smooth-16; steps_per_s on steps-small"),
    ("geometry.theta.s", "s", "lower", "steps_per_s on steps-small"),
    ("geometry.self_s", "s", "lower", "integrate_s on n2-smooth-16"),
    ("flow.run.calls", "count", "lower", "integrate_s on steps-small; flat on rough-fd-256"),
    ("flow.steps", "count", "lower", "steps_per_s on steps-small; flat on rough-fd-256"),
    ("flow.run.self_s", "s", "lower", "steps_per_s, integrate_s on steps-small; flat on rough-fd-256"),
    ("flow.step_us", "us", "lower", "steps_per_s on steps-small; flat on rough-fd-256"),
    ("flow.newton_iters", "count", "lower", "integrate_s on cone-degenerate only"),
    ("flow.linear_iters", "count", "lower", "integrate_s on cone-degenerate only"),
    ("flow.linear_per_newton", "ratio", "lower", "integrate_s on cone-degenerate only"),
    ("flow.damped_steps", "count", "lower", "integrate_s on cone-degenerate only"),
    ("flow.precond.fft.calls", "count", "lower", "integrate_s on cone-degenerate only"),
    ("flow.precond.fft.s", "s", "lower", "integrate_s on cone-degenerate only"),
    ("flow.self_s", "s", "lower", "steps_per_s on steps-small"),
    ("psh.sample.s", "s", "lower", "setup_s on every workload"),
    ("psh.mollify.calls", "count", "lower", "integrate_s on rough-fd-256"),
    ("psh.energy.calls", "count", "lower", "checks_s on rough-fd-256, n2-smooth-16"),
    ("psh.self_s", "s", "lower", "integrate_s, checks_s on rough-fd-256"),
    ("verify.checks.s", "s", "lower", "checks_s on rough-fd-256 (convergence), cone-degenerate (four checks)"),
    ("verify.reports.s", "s", "lower", "checks_s on every workload (write_reports)"),
    ("verify.self_s", "s", "lower", "checks_s on rough-fd-256, cone-degenerate"),
    ("io.write.files", "count", "lower", "archive_s on steps-small"),
    ("io.write.bytes", "B", "lower", "archive_s on steps-small; must not slow rough-fd-256"),
    ("io.write.s", "s", "lower", "archive_s on steps-small; must not slow rough-fd-256"),
    ("io.read.files", "count", "lower", "archive_s on steps-small"),
    ("io.read.bytes", "B", "lower", "archive_s on steps-small"),
    ("io.read.s", "s", "lower", "archive_s on steps-small"),
    ("io.manifest.s", "s", "lower", "archive_s on steps-small"),
    ("io.self_s", "s", "lower", "archive_s on steps-small"),
    ("cli.build.s", "s", "lower", "setup_s on every workload"),
    ("cli.self_s", "s", "lower", "wall_s on every workload (orchestration, printing)"),
    ("untraced_s", "s", "lower", "wall_s on every workload (time outside every span)"),
    ("trace_overhead", "ratio", "lower", "none: traced wall_s / untraced wall_s"),
]

CHECK_NAMES = {
    "check_apriori_bounds": "apriori-bounds",
    "check_convergence_modes": "convergence",
    "check_energy_monotonicity": "energy",
    "check_gradient_laplacian": "gradient-laplacian",
    "check_residual_certificate": "residual-certificate",
    "check_time_derivative": "time-derivative",
}

LAYERS = ("cli", "flow", "grid", "geometry", "psh", "verify", "io", "fft")


def e2e_metrics(passes, setup_times, peak_rss_mb, attempted, failed) -> tuple:
    """(bounded, unbounded) end-to-end metrics of one untraced run.

    Timings are medians over the run's timed passes.
    """

    def med(key):
        return statistics.median(p[key] for p in passes)

    values = {
        "wall_s": med("wall_s"),
        "integrate_s": med("integrate_s"),
        "checks_s": med("checks_s"),
        "archive_s": med("archive_s"),
        "steps_per_s": statistics.median(p["work"]["steps"] / p["integrate_s"] for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "passed_frac": (attempted - failed) / attempted,
        "failed_frac": failed / attempted,
    }
    bounded = {name: {"value": values[name], "unit": unit} for name, unit, *_ in E2E}
    unbounded = {name: {"value": values[name], "unit": unit} for name, unit, _ in E2E_UNBOUNDED}
    return bounded, unbounded


def _sum(stats, names, col):
    return sum(stats[n][col] for n in names if n in stats)


def _prefixed(stats, prefix):
    return [n for n in stats if n.startswith(prefix)]


def layer_values(rec, traced: dict, untraced_wall: float) -> tuple:
    """(per-layer metric values, detail values) from one traced pass."""
    s = rec.stats
    calls, total, self_ = 0, 1, 2

    def get(name, col):
        return s[name][col] if name in s else 0

    work = traced["work"]
    ffts = _prefixed(s, "fft.")
    saves = ("io.save_field", "io.save_trajectory", "io.save_cascade")
    loads = ("io.load_field", "io.load_trajectory", "io.load_cascade")
    builds = [n for n in s if n.startswith("cli.build_") or n == "cli.load_document"]
    checks = [n for n in s if n.startswith("verify.check_")]
    layer_self = {layer: _sum(s, [n for n in s if n.split(".", 1)[0] == layer], self_) for layer in LAYERS}
    untraced_s = traced["wall_s"] - rec.top_s
    v = {
        "grid.hessian.calls": get("grid.hessian_components", calls),
        "grid.hessian.s": get("grid.hessian_components", total),
        "grid.fft.calls": get("fft.grid", calls),
        "grid.fft.bytes": rec.fft_bytes.get("fft.grid", 0),
        "grid.self_s": layer_self["grid"],
        "fft.calls": _sum(s, ffts, calls),
        "fft.s": _sum(s, ffts, total),
        "geometry.cone_test.calls": get("geometry.comps_eig_min", calls),
        "geometry.cone_test.s": get("geometry.comps_eig_min", total),
        "geometry.det.s": get("geometry.comps_det", total),
        "geometry.trace_inv.calls": get("geometry.comps_trace_inv", calls),
        "geometry.trace_inv.s": get("geometry.comps_trace_inv", total),
        "geometry.theta.s": get("geometry.MetricPath.theta", total),
        "geometry.self_s": layer_self["geometry"],
        "flow.run.calls": get("flow.run", calls),
        "flow.steps": work["steps"],
        "flow.run.self_s": get("flow.run", self_),
        "flow.step_us": 1e6 * get("flow.run", total) / work["steps"],
        "flow.newton_iters": work["newton_iters"],
        "flow.linear_iters": work["linear_iters"],
        "flow.linear_per_newton": work["linear_iters"] / work["newton_iters"],
        "flow.damped_steps": work["damped_steps"],
        "flow.precond.fft.calls": get("fft.flow.precond", calls),
        "flow.precond.fft.s": get("fft.flow.precond", total),
        "flow.self_s": layer_self["flow"],
        "psh.sample.s": get("psh.RoughPotential.sample", total),
        "psh.mollify.calls": get("psh.mollify_decreasing", calls),
        "psh.energy.calls": get("psh.energy", calls),
        "psh.self_s": layer_self["psh"],
        "verify.checks.s": _sum(s, checks, total),
        "verify.reports.s": get("verify.write_reports", total),
        "verify.self_s": layer_self["verify"],
        "io.write.files": traced["io"]["write_files"],
        "io.write.bytes": traced["io"]["write_bytes"],
        "io.write.s": _sum(s, saves, self_),
        "io.read.files": traced["io"]["read_files"],
        "io.read.bytes": traced["io"]["read_bytes"],
        "io.read.s": _sum(s, loads, self_),
        "io.manifest.s": get("io.save_trajectory", self_),
        "io.self_s": layer_self["io"],
        "cli.build.s": _sum(s, builds, total),
        "cli.self_s": layer_self["cli"],
        "untraced_s": untraced_s,
        "trace_overhead": traced["wall_s"] / untraced_wall,
    }
    metrics = {name: {"value": v[name], "unit": unit} for name, unit, *_ in LAYER}
    detail = {
        "grid.fft.s": get("fft.grid", total),
        "psh.mollify.s": get("psh.mollify_decreasing", total),
        "psh.energy.s": get("psh.energy", total),
        "psh.fft.s": get("fft.psh", total),
        "linear_per_newton_base": {"linear_iters": work["linear_iters"], "newton_iters": work["newton_iters"]},
        "layer_self_s": layer_self,
        "accounted_s": sum(layer_self.values()) + untraced_s,
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": untraced_wall,
    }
    for n in checks:
        detail[f"verify.{CHECK_NAMES.get(n[len('verify.'):], n)}.s"] = s[n][self_]
    return metrics, detail


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name]["why"]} for name in BENCHMARK_WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound} for name, unit, better, bound, _ in E2E
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better, _ in LAYER],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
