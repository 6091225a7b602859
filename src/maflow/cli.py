"""Command line driver: run scenarios, audit archives, export diagnostics.

A scenario is a JSON document describing the torus, the metric path, the
volume form, the driving term, the initial potential, the time stepping,
and the list of checks to execute.  ``maflow run`` integrates it, writes a
self-describing archive, and prints one PASS/FAIL line per check.
``maflow verify`` replays archive-based checks on saved runs, ``series``
exports a scalar diagnostic as CSV, ``regularize`` builds the decreasing
mollification ladder without flowing, and ``nef`` forces the semi-positive
family mode.

Exit codes: 0 every executed check passed, 1 at least one check failed,
2 usage or configuration problem, 3 numerical failure inside the solver.
"""

import argparse
import csv
import inspect
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as archive_io
from . import verify
from .errors import ConfigError, MissingSnapshotsError, NumericError
from .flow import DrivingTerm, FlowConfig, TrajectoryAudit, run, run_cascade, run_nef
from .geometry import MetricPath, VolumeForm, trace_inequality_slacks
from .grid import TorusGrid, oscillation
from .psh import RegularizationSchedule, RoughPotential, mollify_decreasing

NO_UNIQUENESS_NOTICE = (
    "NO-UNIQUENESS-CERTIFICATE: the driving term declares no usable "
    "monotonicity/smoothness bounds, so solutions from this datum need not "
    "be unique"
)


# ---------------------------------------------------------------------------
# scenario document parsing


def load_document(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no scenario document at {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    return doc


def _section(doc: dict, key: str, default=None) -> dict:
    sec = doc.get(key, default)
    if sec is None:
        raise ConfigError(f"scenario is missing the {key!r} section")
    if not isinstance(sec, dict):
        raise ConfigError(f"scenario section {key!r} must be an object")
    return sec


def build_grid(doc: dict) -> TorusGrid:
    sec = _section(doc, "grid")
    return TorusGrid(int(sec.get("n", 1)), int(sec.get("resolution", 64)))


def build_flow_config(doc: dict) -> FlowConfig:
    sec = _section(doc, "flow")
    extra = set(sec) - {f.name for f in fields(FlowConfig)}
    if extra:
        raise ConfigError(f"unknown flow settings: {sorted(extra)}")
    kwargs = dict(sec)
    if "probes" in kwargs:
        kwargs["probes"] = tuple(float(p) for p in kwargs["probes"])
    return FlowConfig(**kwargs)


def build_metric(doc: dict, grid: TorusGrid, horizon: float) -> MetricPath:
    sec = _section(doc, "metric", {"kind": "constant"})
    kind = sec.get("kind", "constant")
    if kind == "constant":
        return MetricPath.constant(grid, horizon, sec.get("matrix"))
    if kind == "affine":
        if "chi" not in sec:
            raise ConfigError("affine metric needs a 'chi' matrix")
        return MetricPath.affine(grid, horizon, np.asarray(sec["chi"], dtype=float))
    if kind == "nef":
        if "theta0" not in sec:
            raise ConfigError("nef metric needs a 'theta0' matrix")
        return MetricPath.nef(
            grid, horizon, np.asarray(sec["theta0"], dtype=float), eps=_nef_eps(sec)[-1]
        )
    raise ConfigError(f"unknown metric kind {kind!r}")


def _nef_eps(sec: dict) -> list:
    """The nef metric's eps schedule as floats; a single number is a one-member schedule."""
    eps = sec.get("eps", [0.2, 0.1, 0.05])
    if isinstance(eps, (int, float)):
        eps = [eps]
    if not isinstance(eps, list) or not eps:
        raise ConfigError("nef metric 'eps' must be a number or a nonempty list")
    return [float(e) for e in eps]


def build_volume(doc: dict, grid: TorusGrid) -> VolumeForm:
    sec = _section(doc, "volume", {"kind": "constant"})
    kind = sec.get("kind", "constant")
    if kind == "constant":
        return VolumeForm.constant(grid, float(sec.get("value", 1.0)))
    if kind == "cosine":
        a = float(sec.get("amplitude", 0.2))
        axis = int(sec.get("axis", 0))
        if not 0 <= axis < 2 * grid.n:
            raise ConfigError(f"volume axis {axis} out of range for n = {grid.n}")
        if abs(a) >= 1.0:
            raise ConfigError("cosine volume amplitude must satisfy |a| < 1")

        def fn(*coords):
            return 1.0 + a * np.cos(2.0 * np.pi * coords[axis])

        return VolumeForm.from_function(grid, fn)
    raise ConfigError(f"unknown volume kind {kind!r}")


def build_driving(doc: dict) -> DrivingTerm:
    sec = _section(doc, "driving", {"kind": "zero"})
    kind = sec.get("kind", "zero")
    if kind == "zero":
        return DrivingTerm.zero()
    if kind == "affine":
        return DrivingTerm.affine(
            float(sec.get("constant", 0.0)), float(sec.get("slope", 0.0))
        )
    if kind == "cosine":
        a = float(sec.get("amplitude", 0.1))
        axis = int(sec.get("axis", 0))

        def fn(*coords):
            return a * np.cos(2.0 * np.pi * coords[axis])

        return DrivingTerm.spatial(fn)
    if kind == "counterexample":
        return DrivingTerm.counterexample()
    raise ConfigError(f"unknown driving kind {kind!r}")


def build_initial(sec: dict, n: int) -> RoughPotential:
    if not isinstance(sec, dict):
        raise ConfigError("initial datum must be an object")
    kind = sec.get("kind", "constant")
    if kind == "constant":
        return RoughPotential.constant(float(sec.get("value", 0.0)))
    if kind == "fourier-sum":
        modes = sec.get("modes")
        if not modes:
            raise ConfigError("fourier-sum needs a nonempty 'modes' list")
        triples = []
        for m in modes:
            if len(m) != 3:
                raise ConfigError("each mode is [amplitude, wavevector, phase]")
            a, k, p = m
            triples.append((float(a), tuple(int(v) for v in k), float(p)))
        return RoughPotential.fourier_sum(triples, n=n)
    if kind == "max-kink":
        if "amplitude" in sec:
            return RoughPotential.max_kink(float(sec["amplitude"]))
        return RoughPotential.max_kink()
    if kind == "paraboloid":
        return RoughPotential.paraboloid(
            curvature=float(sec.get("curvature", 0.999)),
            center=sec.get("center"),
            n=n,
        )
    if kind == "log-pole":
        cap = sec.get("cap")
        return RoughPotential.log_pole(
            gamma=float(sec.get("gamma", 0.3)),
            center=sec.get("center"),
            cap=None if cap is None else float(cap),
            n=n,
        )
    if kind == "sqrt-log-pole":
        return RoughPotential.sqrt_log_pole(
            amplitude=float(sec.get("amplitude", 0.1)),
            center=sec.get("center"),
            n=n,
        )
    if kind == "snapshot":
        if "path" not in sec:
            raise ConfigError("snapshot initial datum needs a 'path'")
        fld, _ = archive_io.load_field(sec["path"])
        return RoughPotential.from_field(fld, sec.get("tag", "smooth"))
    raise ConfigError(f"unknown initial datum kind {kind!r}")


def build_schedule(sec: dict) -> RegularizationSchedule:
    if not isinstance(sec, dict):
        raise ConfigError("regularization schedule must be an object")
    if "deltas" in sec:
        return RegularizationSchedule(tuple(float(d) for d in sec["deltas"]))
    return RegularizationSchedule.geometric(
        delta0=float(sec.get("delta0", 0.125)),
        ratio=float(sec.get("ratio", 0.5)),
        levels=int(sec.get("levels", 5)),
    )


def resolve_mode(doc: dict, initial: RoughPotential) -> str:
    mode = doc.get("mode", "auto")
    if mode not in ("auto", "single", "cascade", "nef", "audit"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode != "auto":
        return mode
    if _section(doc, "metric", {"kind": "constant"}).get("kind") == "nef":
        return "nef"
    return "single" if initial.tag == "smooth" else "cascade"


# ---------------------------------------------------------------------------
# check execution


@dataclass
class RunContext:
    """Everything a check executor may need, built once per invocation."""

    doc: dict
    grid: TorusGrid
    cfg: FlowConfig
    path: MetricPath
    omega: VolumeForm
    F: DrivingTerm
    initial: RoughPotential
    initial_b: object = None
    traj: object = None
    traj_b: object = None
    cascade: object = None
    family: object = None
    seed: int = 0
    params: dict = field(default_factory=dict)
    audit: TrajectoryAudit = None  # traj's audit, shared by one execute_checks call


def _chk_comparison(ctx: RunContext, lam=None, tol=None, roles=("solution", "solution")):
    if lam is None:
        lam = float(ctx.F.defect) if ctx.F.defect is not None else 0.0
    return [
        verify.check_comparison(
            ctx.traj,
            ctx.traj_b,
            lam=float(lam),
            tol=tol,
            path=ctx.path,
            F=ctx.F,
            omega_form=ctx.omega,
            roles=tuple(roles),
        )
    ]


def _chk_apriori(ctx: RunContext, kcap=None):
    return verify.check_apriori_bounds(ctx.audit, kcap=kcap)


def _chk_time_derivative(ctx: RunContext, eps=None, slope_floor=0.9, bounded_variation=2.0):
    if eps is None:
        eps = verify.default_eps(ctx.traj, ctx.cfg.t_min)
    return verify.check_time_derivative(
        ctx.traj,
        float(eps),
        slope_floor=float(slope_floor),
        bounded_variation=float(bounded_variation),
    )


def _chk_gradient_laplacian(ctx: RunContext, pair_tol=1e-9):
    return verify.check_gradient_laplacian(ctx.audit, pair_tol=float(pair_tol))


def _chk_energy(ctx: RunContext, slack=1e-8):
    return [verify.check_energy_monotonicity(ctx.audit, slack=float(slack))]


def _chk_residual(ctx: RunContext):
    return [verify.check_residual_certificate(ctx.audit)]


def _chk_stability(ctx: RunContext, homotopy_samples=5, eps=None):
    return [
        verify.check_stability(
            ctx.initial.sample(ctx.grid),
            ctx.initial_b.sample(ctx.grid),
            ctx.path,
            ctx.F,
            ctx.omega,
            ctx.cfg,
            homotopy_samples=int(homotopy_samples),
            eps=eps,
        )
    ]


def _chk_uniqueness(ctx: RunContext, rate=None):
    sched_a = ctx.doc.get("schedule")
    sched_b = ctx.doc.get("schedule_b")
    schedules = (
        (build_schedule(sched_a), build_schedule(sched_b))
        if sched_a is not None and sched_b is not None
        else None
    )
    return [
        verify.check_uniqueness(
            ctx.initial,
            ctx.path,
            ctx.F,
            ctx.omega,
            ctx.cfg,
            schedules,
            rate=None if rate is None else float(rate),
        )
    ]


def _chk_convergence(ctx: RunContext, time_ladder=None, eps_cap=None, l1_tol=None, seed=None):
    return verify.check_convergence_modes(
        ctx.cascade,
        ctx.initial,
        path=ctx.path,
        omega_form=ctx.omega,
        time_ladder=None if time_ladder is None else [float(t) for t in time_ladder],
        eps_cap=eps_cap,
        l1_tol=l1_tol,
        seed=int(seed if seed is not None else ctx.seed or 7),
        audit=ctx.audit,
    )


def _chk_transform(ctx: RunContext, reduction_rate=None, rescale_rate=None):
    return verify.check_transform_roundtrip(
        ctx.initial.sample(ctx.grid),
        ctx.path,
        ctx.F,
        ctx.omega,
        ctx.cfg,
        reduction_rate=reduction_rate,
        rescale_rate=rescale_rate,
    )


def random_pd_pairs(n: int, samples: int, seed: int):
    """Seeded stack of positive definite Hermitian pairs, shape (m, n, n)."""
    rng = np.random.default_rng(seed)

    def stack():
        a = rng.standard_normal((samples, n, n)) + 1j * rng.standard_normal(
            (samples, n, n)
        )
        h = a @ np.conjugate(np.swapaxes(a, -1, -2))
        return h + 1e-6 * np.eye(n)[None, :, :]

    return stack(), stack()


def _chk_trace_inequality(ctx: RunContext, samples=1000, slack=1e-10, n=None):
    samples, slack = int(samples), float(slack)
    n = int(ctx.grid.n if n is None else n)
    wp, w = random_pd_pairs(n, samples, ctx.seed)
    lower, upper = trace_inequality_slacks(wp, w)
    worst = float(min(lower.min(), upper.min()))
    return [
        verify.MarginReport(
            name="trace-inequality",
            anchor="determinant-trace-chain",
            margin=worst + slack,
            constants={
                "samples": samples,
                "n": n,
                "seed": ctx.seed,
                "worst_lower": float(lower.min()),
                "worst_upper": float(upper.min()),
            },
        )
    ]


@dataclass(frozen=True)
class Check:
    """One check: executor(ctx, **check_params) runs it.

    needs names the RunContext objects it cannot run without, column the
    TrajectoryAudit column it reads from traj (convergence: the finest level)
    and archive whether `maflow verify` can replay it from saved archives.
    The executor's keyword parameters are the check_params keys it accepts.
    """

    executor: object
    needs: tuple = ()
    column: str = None
    archive: bool = False


CHECK_TABLE = {
    "comparison": Check(_chk_comparison, ("traj", "traj_b"), archive=True),
    "apriori-bounds": Check(_chk_apriori, ("traj",), archive=True),
    "time-derivative": Check(_chk_time_derivative, ("traj",), archive=True),
    "gradient-laplacian": Check(
        _chk_gradient_laplacian, ("traj",), column="sup-trace", archive=True
    ),
    "energy": Check(_chk_energy, ("traj",), column="energy", archive=True),
    "residual-certificate": Check(_chk_residual, ("traj",), column="step_residual", archive=True),
    "stability": Check(_chk_stability, ("initial_b",)),
    "uniqueness": Check(_chk_uniqueness),
    "convergence": Check(_chk_convergence, ("cascade",), column="energy", archive=True),
    "transform-roundtrip": Check(_chk_transform),
    "trace-inequality": Check(_chk_trace_inequality),
}

ARCHIVE_CHECKS = tuple(name for name, check in CHECK_TABLE.items() if check.archive)


def _check_params(doc: dict) -> dict:
    """The document's check_params; each entry must name a check and only its parameters."""
    params = doc.get("check_params", {})
    if not isinstance(params, dict):
        raise ConfigError("'check_params' must be an object")
    for name, p in params.items():
        if name not in CHECK_TABLE:
            raise ConfigError(f"check_params names unknown check {name!r}")
        if not isinstance(p, dict):
            raise ConfigError(f"check_params[{name!r}] must be an object")
        accepted = list(inspect.signature(CHECK_TABLE[name].executor).parameters)[1:]
        unknown = sorted(set(p) - set(accepted))
        if unknown:
            raise ConfigError(
                f"check_params[{name!r}] has unknown keys {unknown}; accepted: {accepted}"
            )
    return params


def _missing(ctx: RunContext, name: str) -> list:
    """The objects check name needs that ctx does not hold."""
    return [attr for attr in CHECK_TABLE[name].needs if getattr(ctx, attr) is None]


def execute_checks(names, ctx: RunContext):
    unknown = [name for name in names if name not in CHECK_TABLE]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r}; available: {sorted(CHECK_TABLE)}")
    if ctx.traj is not None:
        columns = [CHECK_TABLE[name].column for name in names if CHECK_TABLE[name].column]
        ctx.audit = TrajectoryAudit(ctx.traj, ctx.path, ctx.F, ctx.omega, columns)
    reports = []
    for name in names:
        missing = _missing(ctx, name)
        if missing:
            raise ConfigError(f"check {name!r} needs {missing[0].replace('_', ' ')}")
        reports.extend(CHECK_TABLE[name].executor(ctx, **ctx.params.get(name, {})))
    return reports


def print_reports(reports, stream=None):
    stream = stream or sys.stdout
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        margin = "-inf" if r.margin == -math.inf else f"{r.margin:+.6e}"
        line = f"{flag}  {r.name:<22s} margin={margin:<14s} [{r.anchor}]"
        notice = r.details.get("notice") if isinstance(r.details, dict) else None
        if notice:
            line += f"  {notice}"
        print(line, file=stream)


# ---------------------------------------------------------------------------
# subcommand: run


def _select_checks(doc: dict, args) -> list:
    if getattr(args, "check", None):
        return list(args.check)
    requested = doc.get("checks", [])
    if not isinstance(requested, list):
        raise ConfigError("'checks' must be a list of check names")
    return list(requested)


def _uncertified(F: DrivingTerm) -> bool:
    return F.defect is None or not F.smooth


def _ordering_report(name, anchor, family, **constants):
    """The ordering audit of a cascade or nef family as a margin report."""
    return verify.MarginReport(
        name=name,
        anchor=anchor,
        margin=family.monotone_tol - family.monotone_violation,
        constants={
            "violation": family.monotone_violation,
            "tol": family.monotone_tol,
            **constants,
        },
    )


def _context(doc: dict, grid: TorusGrid, cfg: FlowConfig, seed: int = None, **objects):
    """The scenario's problem on grid as a RunContext; seed defaults to the document's."""
    return RunContext(
        doc=doc,
        grid=grid,
        cfg=cfg,
        omega=build_volume(doc, grid),
        F=build_driving(doc),
        initial=build_initial(_section(doc, "initial"), grid.n),
        path=build_metric(doc, grid, cfg.horizon),
        seed=int(doc.get("seed", 0)) if seed is None else seed,
        params=_check_params(doc),
        **objects,
    )


def integrate_scenario(doc: dict, forced_mode: str = None):
    """Build the problem, integrate by mode, and return (mode, ctx, reports).

    reports carries the ordering audits that come for free with cascade and
    nef runs; the context holds the trajectory/cascade/family objects so the
    caller can execute the scenario's checks or save archives.
    """
    grid = build_grid(doc)
    cfg = build_flow_config(doc)
    ctx = _context(doc, grid, cfg)
    if doc.get("initial_b"):
        ctx.initial_b = build_initial(doc["initial_b"], grid.n)
    path, F, omega, initial = ctx.path, ctx.F, ctx.omega, ctx.initial
    mode = forced_mode or resolve_mode(doc, initial)

    reports = []
    if mode == "single":
        ctx.traj = run(initial.sample(grid), path, F, omega, cfg)
        if _uncertified(F):
            ctx.traj.notices.append(NO_UNIQUENESS_NOTICE)
    elif mode == "cascade":
        schedule = build_schedule(_section(doc, "schedule"))
        cascade = run_cascade(initial, schedule, path, F, omega, cfg)
        if _uncertified(F):
            cascade.notices.append(NO_UNIQUENESS_NOTICE)
        ctx.cascade = cascade
        ctx.traj = cascade.trajectories[-1]
        reports.append(_ordering_report("cascade-ordering", "decreasing-level-order", cascade))
    elif mode == "nef":
        sec = _section(doc, "metric")
        if sec.get("kind") != "nef":
            raise ConfigError("nef mode needs a metric of kind 'nef'")
        eps = _nef_eps(sec)
        theta0 = np.asarray(sec["theta0"], dtype=float)
        family = run_nef(theta0, eps, initial.sample(grid), F, omega, cfg)
        ctx.family = family
        ctx.traj = family.trajectories[-1]
        reports.append(
            _ordering_report(
                "nef-ordering",
                "eps-monotone-family",
                family,
                limit_gap=family.limit_gap,
                witness_margin=family.witness_margin,
            )
        )
    elif mode != "audit":
        raise ConfigError(f"unhandled mode {mode!r}")
    return mode, ctx, reports


def run_comparison_pair(ctx: RunContext):
    """Integrate the second datum so pairwise checks can run."""
    if ctx.initial_b is None:
        raise ConfigError("comparison check needs an 'initial_b' datum")
    ctx.traj_b = run(
        ctx.initial_b.sample(ctx.grid), ctx.path, ctx.F, ctx.omega, ctx.cfg
    )
    return ctx.traj_b


def cmd_run(args, forced_mode: str = None) -> int:
    doc = load_document(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed  # archived with the run, so verify replays the same draws
    out = Path(args.out) if args.out else Path(doc.get("out", "runs/latest"))

    mode, ctx, reports = integrate_scenario(doc, forced_mode)
    if mode == "single":
        archive_io.save_trajectory(out, ctx.traj, run_config=doc)
    elif mode == "cascade":
        archive_io.save_cascade(out, ctx.cascade, run_config=doc)
    elif mode == "nef":
        _save_nef(out, ctx.family, doc)

    names = _select_checks(doc, args)
    if "comparison" in names and ctx.traj_b is None:
        run_comparison_pair(ctx)
        archive_io.save_trajectory(out / "pair", ctx.traj_b, run_config=doc)

    reports.extend(execute_checks(names, ctx))
    if reports:
        stamp = archive_io.config_hash(doc)
        for r in reports:
            r.details.setdefault("config_hash", stamp)
        verify.write_reports(reports, out)
    print_reports(reports)
    print(f"archive: {out}")
    return 0 if all(r.passed for r in reports) else 1


def _save_nef(out, family, doc):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    dirs = {}
    for e, traj in zip(family.eps, family.trajectories):
        sub = out / f"eps_{e:.6g}".replace(".", "p")
        archive_io.save_trajectory(sub, traj, run_config=doc)
        dirs[f"{e:.12g}"] = sub.name
    if family.witness is not None:
        archive_io.save_trajectory(out / "witness", family.witness, run_config=doc)
    summary = {
        "format": "nef-family-v1",
        "config_hash": archive_io.config_hash(doc),
        "eps": list(family.eps),
        "members": dirs,
        "monotone_violation": family.monotone_violation,
        "monotone_tol": family.monotone_tol,
        "limit_gap": family.limit_gap,
        "witness_margin": family.witness_margin,
        "witness": "witness" if family.witness is not None else None,
        "notices": list(family.notices),
    }
    (out / "family.json").write_text(json.dumps(summary, indent=2))


# ---------------------------------------------------------------------------
# subcommand: verify


def _load_any(directory):
    """Load an archive directory as (kind, object, manifest)."""
    d = Path(directory)
    mpath = d / "manifest.json"
    if not mpath.is_file():
        raise ConfigError(f"no manifest.json under {d}")
    manifest = json.loads(mpath.read_text())
    if "cascade" in manifest:
        return "cascade", archive_io.load_cascade(d), manifest
    return "trajectory", archive_io.load_trajectory(d), manifest


def _context_from_manifest(manifest, loaded, kind, seed) -> RunContext:
    doc = manifest.get("run_config")
    if not isinstance(doc, dict):
        raise ConfigError(
            "archive has no stored scenario; re-run with a run_config to verify"
        )
    if kind == "cascade":
        traj = loaded.trajectories[-1]
        cascade = loaded
    else:
        traj = loaded
        cascade = None
    return _context(doc, traj.grid, traj.config, seed, traj=traj, cascade=cascade)


def cmd_verify(args) -> int:
    if len(args.archives) > 2:
        raise ConfigError("verify takes one archive, or two for comparison")
    kind, loaded, manifest = _load_any(args.archives[0])
    ctx = _context_from_manifest(manifest, loaded, kind, args.seed)
    if len(args.archives) == 2:
        kind_b, loaded_b, _ = _load_any(args.archives[1])
        ctx.traj_b = (
            loaded_b.trajectories[-1] if kind_b == "cascade" else loaded_b
        )

    if args.check:
        names = list(args.check)
    elif len(args.archives) == 2:
        names = ["comparison"]
    else:
        names = [name for name in ARCHIVE_CHECKS if not _missing(ctx, name)]
    bad = [n for n in names if n not in ARCHIVE_CHECKS]
    if bad:
        raise ConfigError(
            f"checks {bad} need the live scenario; run them via 'maflow run'"
        )

    reports = execute_checks(names, ctx)
    stamp = manifest.get("config_hash")
    if stamp:
        for r in reports:
            r.details.setdefault("config_hash", stamp)
    out = Path(args.out) if args.out else Path(args.archives[0])
    verify.write_reports(reports, out)
    print_reports(reports)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommand: series


def cmd_series(args) -> int:
    kind, loaded, manifest = _load_any(args.archive)
    traj = loaded.trajectories[-1] if kind == "cascade" else loaded
    path = None
    omega = None
    doc = manifest.get("run_config")
    if isinstance(doc, dict):
        omega = build_volume(doc, traj.grid)
        path = build_metric(doc, traj.grid, traj.config.horizon)
    rows = verify.trajectory_series(traj, args.quantity, path=path, omega_form=omega)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        target = out / f"series-{args.quantity}.csv"
        with open(target, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "value"])
            w.writerows(rows)
        print(f"wrote {target}")
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["t", "value"])
        w.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# subcommand: regularize


def cmd_regularize(args) -> int:
    doc = load_document(args.config)
    grid = build_grid(doc)
    initial = build_initial(_section(doc, "initial"), grid.n)
    schedule = build_schedule(_section(doc, "schedule"))
    ladder = mollify_decreasing(initial, schedule, grid)
    out = Path(args.out) if args.out else Path(doc.get("out", "runs/ladder"))
    out.mkdir(parents=True, exist_ok=True)
    archive_io.save_field(out, "base", ladder.base, 0.0)
    for j, fld in enumerate(ladder.levels):
        archive_io.save_field(out, f"level_{j:03d}", fld, 0.0)
    report = {
        "config_hash": archive_io.config_hash(doc),
        "deltas": list(ladder.deltas),
        "shifts": list(ladder.shifts),
        "margins": list(ladder.margins),
        "oscillation": oscillation(ladder.base),
    }
    (out / "ladder.json").write_text(json.dumps(report, indent=2))
    for j, (d, s, m) in enumerate(zip(ladder.deltas, ladder.shifts, ladder.margins)):
        print(f"level {j}: delta={d:.6g} shift={s:.3e} margin={m:+.3e}")
    print(f"archive: {out}")
    return 0


def cmd_nef(args) -> int:
    return cmd_run(args, forced_mode="nef")


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maflow",
        description="parabolic Monge-Ampere flows on flat tori: run, audit, export",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario and execute its checks")
    run_p.add_argument("--config", required=True, help="scenario JSON document")
    run_p.add_argument("--out", default=None, help="archive directory")
    run_p.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME",
        help="override the scenario's check list (repeatable)",
    )
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="re-audit one or two saved archives")
    ver_p.add_argument("archives", nargs="+", help="archive directory (two: compare)")
    ver_p.add_argument("--check", action="append", default=None, metavar="NAME")
    ver_p.add_argument("--out", default=None, help="where to write margin reports")
    ver_p.add_argument("--seed", type=int, default=None)
    ver_p.set_defaults(func=cmd_verify)

    ser_p = sub.add_parser("series", help="export a scalar diagnostic as CSV")
    ser_p.add_argument("archive")
    ser_p.add_argument("quantity", choices=verify.SERIES_QUANTITIES)
    ser_p.add_argument("--out", default=None)
    ser_p.set_defaults(func=cmd_series)

    reg_p = sub.add_parser(
        "regularize", help="build the decreasing mollification ladder only"
    )
    reg_p.add_argument("--config", required=True)
    reg_p.add_argument("--out", default=None)
    reg_p.set_defaults(func=cmd_regularize)

    nef_p = sub.add_parser("nef", help="run the semi-positive eps-shift family")
    nef_p.add_argument("--config", required=True)
    nef_p.add_argument("--out", default=None)
    nef_p.add_argument("--check", action="append", default=None, metavar="NAME")
    nef_p.add_argument("--seed", type=int, default=None)
    nef_p.set_defaults(func=cmd_nef)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingSnapshotsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for pair in exc.pairs:
            print(f"  missing snapshot pair: {pair}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
