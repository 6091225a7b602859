"""Span recorder that wraps maflow's public functions at their import sites.

Two modes share one recorder:

* untraced runs (``full=False``) wrap only the handful of calls the
  end-to-end metrics need: scenario integration, check execution, archive
  reads and writes, report writing and each flow run (for its step counts).
  The most a pass makes is one per archived field (about 30k on
  steps-small), a fraction of a percent of its time.
* traced runs (``full=True``) also wrap the public functions of the grid,
  geometry, flow, psh, verify, io and cli modules that the workloads reach,
  plus ``numpy.fft.fftn``/``ifftn``.

Every span records name, start, end and parent.  Self time is a span's
duration minus the time its children cover.  Aggregates cover every span;
the raw span list is capped for the per-iteration leaf spans (the rest are
counted in ``dropped``) so a traced pass of the many-step workload stays
small.
"""

import time
from pathlib import Path

# Coarse groups that feed the end-to-end split.  Only the outermost span of a
# group counts, so save_cascade -> save_trajectory -> save_field is timed once.
GROUPS = {
    "cli.integrate_scenario": "integrate",
    "cli.run_comparison_pair": "integrate",
    "cli.execute_checks": "checks",
    "cli._save_nef": "archive",
    "io.save_field": "archive",
    "io.load_field": "archive",
    "io.save_trajectory": "archive",
    "io.load_trajectory": "archive",
    "io.save_cascade": "archive",
    "io.load_cascade": "archive",
}

PHASE_TARGETS = (
    "cli.main",
    "cli.integrate_scenario",
    "cli.run_comparison_pair",
    "cli.execute_checks",
    "cli._save_nef",
    "io.save_field",
    "io.load_field",
    "io.save_trajectory",
    "io.load_trajectory",
    "io.save_cascade",
    "io.load_cascade",
    "verify.write_reports",
    "flow.run",
)

FULL_TARGETS = PHASE_TARGETS + (
    "cli.load_document",
    "cli.build_grid",
    "cli.build_flow_config",
    "cli.build_metric",
    "cli.build_volume",
    "cli.build_driving",
    "cli.build_initial",
    "cli.build_schedule",
    "cli.print_reports",
    "io.config_hash",
    "flow.run_cascade",
    "flow.run_nef",
    "flow.residual_certificate",
    "grid.hessian_components",
    "grid.gradient_sq",
    "grid.oscillation",
    "geometry.comps_det",
    "geometry.comps_eig_min",
    "geometry.comps_trace_inv",
    "geometry.comps_mixed",
    "geometry.certify_metric_path",
    "geometry.MetricPath.theta",
    "geometry.MetricPath.theta_dot",
    "psh.RoughPotential.sample",
    "psh.mollify_decreasing",
    "psh.energy",
    "psh.psh_margin",
    "verify.check_apriori_bounds",
    "verify.check_convergence_modes",
    "verify.check_energy_monotonicity",
    "verify.check_gradient_laplacian",
    "verify.check_residual_certificate",
    "verify.check_time_derivative",
)

# Leaf spans that occur per Newton iteration; past RAW_SPAN_CAP raw spans they
# are only aggregated.
RAW_SPAN_CAP = 50000
HOT = {
    "grid.hessian_components",
    "geometry.comps_det",
    "geometry.comps_eig_min",
    "geometry.comps_trace_inv",
    "geometry.MetricPath.theta",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Collects spans while its wrappers are installed (see ``installed``)."""

    def __init__(self, full: bool):
        self.full = full
        self.reset()

    def reset(self):
        self.stack = []  # frames: [span_id, name, start, child_seconds]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.group_s = dict.fromkeys(("integrate", "checks", "archive"), 0.0)
        self.group_depth = dict.fromkeys(("integrate", "checks", "archive"), 0)
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.dropped = 0
        self.top_s = 0.0  # summed duration of spans without a parent
        self.next_id = 1
        self.work = dict.fromkeys(("flows", "steps", "newton_iters", "linear_iters", "damped_steps"), 0)
        self.io = {"read_files": 0, "read_bytes": 0}
        self.fft_bytes = {}
        self.reports = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        frame = [self.next_id, name, 0.0, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        group = GROUPS.get(name)
        if group is not None:
            self.group_depth[group] += 1
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        span_id, name, start, child = frame
        self.stack.pop()
        dur = end - start
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent_id = parent[0]
        else:
            self.top_s += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        group = GROUPS.get(name)
        if group is not None:
            self.group_depth[group] -= 1
            if self.group_depth[group] == 0:
                self.group_s[group] += dur
        if len(self.spans) < RAW_SPAN_CAP or not (name in HOT or name.startswith("fft.")):
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def span(self, name, fn):
        """Wrap fn so each call is recorded as a span called name."""
        rec = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = rec._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit(frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def fft_span(self, fn):
        """FFT spans are named by the layer that called them.

        Under a grid span they are fft.grid; directly under a flow span (the
        preconditioner inside flow.run) fft.flow.precond; elsewhere
        fft.<layer>.  The byte count is computed as input plus output size.
        """
        rec = self

        def wrapper(a, *args, **kwargs):
            caller = layer_of(rec.stack[-1][1]) if rec.stack else "bench"
            name = "fft.flow.precond" if caller == "flow" else "fft." + caller
            frame = rec._enter(name)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                rec._exit(frame)
            rec.fft_bytes[name] = rec.fft_bytes.get(name, 0) + a.nbytes + out.nbytes
            return out

        return wrapper

    # -- hooks that read results, run after the span has closed ------------

    def _after_flow_run(self, args, kwargs, traj):
        w = self.work
        w["flows"] += 1
        for d in traj.diagnostics:
            w["steps"] += 1
            w["newton_iters"] += int(d["newton_iters"])
            w["linear_iters"] += int(d["linear_iters"])
            if float(d["damping"]) < 1.0:
                w["damped_steps"] += 1

    def _after_io_load_field(self, args, kwargs, result):
        if not self.full:  # the stat would add to the untraced archive_s
            return
        field, _ = result
        side = Path(args[0] if args else kwargs["path"]).with_suffix(".json")
        self.io["read_files"] += 2
        self.io["read_bytes"] += field.values.nbytes + side.stat().st_size

    def _after_verify_write_reports(self, args, kwargs, result):
        self.reports.extend(args[0] if args else kwargs["reports"])

    def installed(self):
        return _Installed(self)


class _Installed:
    """Context manager that patches every import site and restores them."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.patches = []

    def __enter__(self):
        import numpy as np

        from maflow import cli, flow, geometry, grid, io, psh, verify

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (cli, flow, geometry, grid, io, psh, verify)}
        rec = self.rec
        for name in FULL_TARGETS if rec.full else PHASE_TARGETS:
            module, attr = name.split(".", 1)
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(modules[module], cls_name)
                self._set(cls, meth, rec.span(name, cls.__dict__[meth]))
                continue
            orig = getattr(modules[module], attr)
            wrapped = rec.span(name, orig)
            for site in modules.values():
                for site_name, value in list(vars(site).items()):
                    if value is orig:
                        self._set(site, site_name, wrapped)
        if rec.full:
            for attr in ("fftn", "ifftn"):
                self._set(np.fft, attr, rec.fft_span(getattr(np.fft, attr)))
        return rec

    def _set(self, owner, name, value):
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches.clear()
        return False
