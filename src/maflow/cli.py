"""Command line driver: run scenarios, audit archives, export diagnostics.

A scenario is a JSON document describing the torus, the metric path, the
volume form, the driving term, the initial potential, the time stepping,
and the list of checks to execute.  ``maflow run`` integrates it, writes a
self-describing archive, and prints one PASS/FAIL line per check.  A single
flow and its comparison pair stream each stored snapshot into the archive
as the run accepts it; everything is written to a staged directory beside
the output directory, which takes it only once the run ends normally.
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
import re
import reprlib
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from . import io as archive_io
from . import verify
from .errors import AT_LEAST_0, ConfigError, MissingSnapshotsError, NumericError, declared
from .errors import one_of, refuse_outside, signature
from .flow import (
    ARRAY_BUDGET,
    DrivingTerm,
    FlowConfig,
    Member,
    TrajectoryAudit,
    audit_array_bytes,
    cascade_members,
    kept_fields,
    nef_members,
    peak_array_bytes,
    run_cascade,
    run_family,
    run_nef,
)
from .geometry import MetricPath, VolumeForm
from .grid import TorusGrid, oscillation
from .psh import TAG, RegularizationSchedule, RoughPotential, mollify_decreasing

NO_UNIQUENESS_NOTICE = (
    "NO-UNIQUENESS-CERTIFICATE: the driving term declares no usable "
    "monotonicity/smoothness bounds, so solutions from this datum need not "
    "be unique"
)


# ---------------------------------------------------------------------------
# scenario document parsing: each value is typed, and held to its domain, by the
# annotation of the parameter it feeds, whose default is the document's (see README)

# the classes a scenario section builds; a section is an object
_SECTIONS = (
    TorusGrid,
    FlowConfig,
    MetricPath,
    VolumeForm,
    DrivingTerm,
    RoughPotential,
    RegularizationSchedule,
)


def _fits(value, annotation) -> bool:
    """Whether value is JSON of the annotated type; TypeError for an annotation no JSON fits."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Annotated:
        return _fits(value, args[0])
    if origin is types.UnionType:
        return any(_fits(value, a) for a in args)
    if origin in (list, tuple):
        if not isinstance(value, list):
            return False
        if origin is tuple and args[-1] is not Ellipsis:
            return len(value) == len(args) and all(map(_fits, value, args))
        return all(_fits(v, args[0]) for v in value)
    if annotation in (float, int):  # float takes any number; neither takes a bool
        return isinstance(value, (int, annotation)) and not isinstance(value, bool)
    if annotation in (str, bool, dict, types.NoneType):
        return isinstance(value, annotation)
    if annotation in _SECTIONS:
        return isinstance(value, dict)
    raise TypeError(f"no JSON value has the type {annotation!r}")


def _check(path: str, annotation, value):
    """value, once it is JSON of annotation's type in the domain annotation declares."""
    if _fits(value, annotation):
        refuse_outside(path, annotation, value)
        return value
    got = reprlib.repr(value)  # bounded: a long list shows its first items
    if annotation in _SECTIONS:
        noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", annotation.__name__).lower()
        raise ConfigError(f"{path}: a {noun} must be an object, got {got}")
    shown = annotation.__origin__ if hasattr(annotation, "__metadata__") else annotation
    raise ConfigError(f"{path} must be {inspect.formatannotation(shown)}, got {got}")


def _typed(path: str, fn, settings, given=()):
    """fn's parameters, once settings holds only fn's keyword parameters, each of its type.

    given names the parameters the program supplies, which settings may not
    set; path ("" at the top level) prefixes every key path.
    """
    _check(path or "scenario document", dict, settings)
    params = signature(fn).parameters
    accepted = [k for k in params if k not in given]
    prefix = f"{path}." if path else ""
    unknown = [prefix + k for k in settings if k not in accepted]
    if unknown:
        raise ConfigError(f"unknown {path or 'scenario'} settings: {unknown}; accepted: {accepted}")
    for key, value in settings.items():
        _check(prefix + key, params[key].annotation, value)
    missing = [k for k in accepted if k not in settings and params[k].default is params[k].empty]
    if missing:
        raise ConfigError(f"scenario is missing {prefix + missing[0]!r}")
    return params


def _call(path: str, fn, settings, **given):
    """fn(**settings) plus the given values fn names, once settings is typed.

    A ConfigError fn raises is prefixed with path, the section it builds.
    """
    params = _typed(path, fn, settings, given)
    try:
        return fn(**settings, **{k: v for k, v in given.items() if k in params})
    except ConfigError as exc:
        if str(exc).startswith(f"{path}."):  # it names its key path already
            raise
        raise ConfigError(f"{path}: {exc}") from None


def _build(path: str, table: dict, sec, **given):
    """The object a section describes: its kind, by default the first, picks the constructor."""
    _check(path, dict, sec)
    settings = dict(sec)
    kind = settings.pop("kind", next(iter(table)))
    _check(f"{path}.kind", str, kind)
    if kind not in table:
        raise ConfigError(f"unknown {path}.kind {kind!r}; available: {list(table)}")
    return _call(path, table[kind], settings, **given)


SEED = Annotated[int, AT_LEAST_0]


@declared
def _scenario(
    grid: TorusGrid,
    initial: RoughPotential,
    flow: FlowConfig = None,
    metric: MetricPath = None,
    volume: VolumeForm = None,
    driving: DrivingTerm = None,
    initial_b: RoughPotential = None,
    schedule: RegularizationSchedule = None,
    schedule_b: RegularizationSchedule = None,
    mode: Annotated[str, one_of("auto", "single", "cascade", "nef", "audit")] = None,
    checks: list[str] = None,
    check_params: dict = None,
    seed: SEED = None,
    out: str = None,
    name: str = None,
    comment: str = None,
):
    """The top-level keys of a scenario document; the code reading a key defaults it."""


def load_document(path) -> dict:
    doc = archive_io.read_json(path)
    _typed("", _scenario, doc)
    return doc


def _section(doc: dict, key: str) -> dict:
    if doc.get(key) is None:
        raise ConfigError(f"scenario is missing the {key!r} section")
    return doc[key]


@declared
def _nef_path(
    grid, horizon: float, theta0: list[list[float]],
    eps: Annotated[float | list[float], (np.size, "a number or nonempty list")] = (0.2, 0.1, 0.05),
) -> MetricPath:
    """theta0 + (t + eps) omega at the last eps of the schedule, a number being a
    one-member schedule, which only a single flow takes: nef mode flows every
    member (meta["eps_schedule"]) of two or more (`flow.nef_members`)."""
    schedule = np.atleast_1d(eps).tolist()
    path = MetricPath.nef(grid, horizon, theta0, eps=schedule[-1])
    path.meta["eps_schedule"] = schedule
    return path


@declared
def _cosine_volume(
    grid: TorusGrid, amplitude: Annotated[float, (lambda a: -1 < a < 1, "in (-1, 1)")] = 0.2,
    axis: int = 0,
) -> VolumeForm:
    """The density 1 + amplitude cos(2 pi x_axis)."""
    if not 0 <= axis < 2 * grid.n:
        raise ConfigError(f"volume.axis {axis} out of range for n = {grid.n}")
    return VolumeForm.from_function(
        grid, lambda *coords: 1.0 + amplitude * np.cos(2.0 * np.pi * coords[axis])
    )


def _cosine_driving(n: int, amplitude: float = 0.1, axis: int = 0) -> DrivingTerm:
    """The s-independent term amplitude cos(2 pi x_axis)."""
    if not 0 <= axis < 2 * n:
        raise ConfigError(f"driving.axis {axis} out of range for n = {n}")
    return DrivingTerm.spatial(lambda *coords: amplitude * np.cos(2.0 * np.pi * coords[axis]))


@declared
def _snapshot(path: str, tag: Annotated[str, TAG] = "smooth") -> RoughPotential:
    """The potential of a saved snapshot (its .bin or .json path) under a declared tag."""
    return RoughPotential.from_field(archive_io.load_field(path)[0], tag)


METRIC_KINDS = {"constant": MetricPath.constant, "affine": MetricPath.affine, "nef": _nef_path}
VOLUME_KINDS = {"constant": VolumeForm.constant, "cosine": _cosine_volume}
DRIVING_KINDS = {
    "zero": DrivingTerm.zero,
    "affine": DrivingTerm.affine,
    "cosine": _cosine_driving,
    "counterexample": DrivingTerm.counterexample,
}
INITIAL_KINDS = {
    "constant": RoughPotential.constant,
    "fourier-sum": RoughPotential.fourier_sum,
    "max-kink": RoughPotential.max_kink,
    "paraboloid": RoughPotential.paraboloid,
    "log-pole": RoughPotential.log_pole,
    "sqrt-log-pole": RoughPotential.sqrt_log_pole,
    "snapshot": _snapshot,
}


def build_grid(doc: dict) -> TorusGrid:
    return _call("grid", TorusGrid, _section(doc, "grid"))


def build_flow_config(doc: dict) -> FlowConfig:
    return _call("flow", FlowConfig, _section(doc, "flow"))


def build_metric(doc: dict, grid: TorusGrid, horizon: float) -> MetricPath:
    return _build("metric", METRIC_KINDS, doc.get("metric", {}), grid=grid, horizon=horizon)


def build_volume(doc: dict, grid: TorusGrid) -> VolumeForm:
    return _build("volume", VOLUME_KINDS, doc.get("volume", {}), grid=grid)


def build_driving(doc: dict) -> DrivingTerm:
    # a cosine term's axis must be a real axis of the document's grid
    return _build("driving", DRIVING_KINDS, doc.get("driving", {}), n=build_grid(doc).n)


def build_initial(sec: dict, n: int, key: str = "initial") -> RoughPotential:
    return _build(key, INITIAL_KINDS, sec, n=n)


def build_schedule(sec: dict, key: str = "schedule") -> RegularizationSchedule:
    _check(key, RegularizationSchedule, sec)
    ctor = RegularizationSchedule if "deltas" in sec else RegularizationSchedule.geometric
    return _call(key, ctor, sec)


# ---------------------------------------------------------------------------
# check execution


@dataclass
class RunContext:
    """Everything a check may take, built once per invocation.

    Its properties are computed when a check reads them: phi0 and psi0 are
    initial and initial_b sampled on grid, schedules is (schedule,
    schedule_b), or None unless both are given.
    """

    doc: dict
    grid: TorusGrid
    cfg: FlowConfig
    path: MetricPath
    omega: VolumeForm
    F: DrivingTerm
    initial: RoughPotential
    initial_b: object = None
    schedule: RegularizationSchedule = None
    schedule_b: RegularizationSchedule = None
    traj: object = None
    traj_b: object = None
    cascade: object = None
    family: object = None
    seed: int = 0
    params: dict = field(default_factory=dict)
    audit: TrajectoryAudit = None  # traj's audit, shared by one execute_checks call
    mode: str = None  # the mode `scenario` resolves for the run

    @property
    def phi0(self):
        return self.initial.sample(self.grid)

    @property
    def psi0(self):
        return self.initial_b.sample(self.grid)

    @property
    def schedules(self):
        both = self.schedule is not None and self.schedule_b is not None
        return (self.schedule, self.schedule_b) if both else None


# Each check is its verify function fn, called as fn(*_args(fn), **check_params):
# its keyword-only parameters are the check_params keys it accepts, typed by annotation.
CHECK_TABLE = {
    "comparison": verify.check_comparison,
    "apriori-bounds": verify.check_apriori_bounds,
    "time-derivative": verify.check_time_derivative,
    "gradient-laplacian": verify.check_gradient_laplacian,
    "energy": verify.check_energy_monotonicity,
    "residual-certificate": verify.check_residual_certificate,
    "stability": verify.check_stability,
    "uniqueness": verify.check_uniqueness,
    "convergence": verify.check_convergence_modes,
    "transform-roundtrip": verify.check_transform_roundtrip,
    "trace-inequality": verify.check_trace_inequality,
}

# the TrajectoryAudit column a check reads from traj (convergence: the finest level)
_COLUMNS = {
    "gradient-laplacian": "sup-trace",
    "energy": "energy",
    "convergence": "energy",
    "residual-certificate": "step_residual",
}

# the RunContext attribute a positional parameter takes, where the names differ
_ATTRIBUTES = {"phi": "traj", "psi": "traj_b", "omega_form": "omega", "run_seed": "seed"}


def _args(fn) -> tuple:
    """The RunContext attributes passed to fn's positional parameters, in order."""
    params = inspect.signature(fn).parameters.values()
    return tuple(_ATTRIBUTES.get(p.name, p.name) for p in params if p.kind != p.KEYWORD_ONLY)


def _needs(fn) -> tuple:
    """The RunContext objects check fn cannot run without: the runs' objects it
    takes, traj for an audit, and the second datum, initial_b, for psi0."""
    sources = [{"audit": "traj", "psi0": "initial_b"}.get(arg, arg) for arg in _args(fn)]
    needed = [s for s in sources if s in ("traj", "traj_b", "cascade", "initial_b")]
    return tuple(dict.fromkeys(needed))  # in order, once each


_NEEDS = {name: _needs(fn) for name, fn in CHECK_TABLE.items()}

# `maflow verify` replays the checks that need a run but not the second datum
ARCHIVE_CHECKS = tuple(name for name, needs in _NEEDS.items() if needs and "initial_b" not in needs)


def _check_params(doc: dict) -> dict:
    """The document's check_params, each entry typed by the keyword-only parameters of its check."""
    params = doc.get("check_params", {})
    for name, settings in params.items():
        if name not in CHECK_TABLE:
            raise ConfigError(f"check_params.{name} is no check; available: {sorted(CHECK_TABLE)}")
        fn = CHECK_TABLE[name]
        given = list(inspect.signature(fn).parameters)[: len(_args(fn))]  # the RunContext fills
        _typed(f"check_params.{name}", fn, settings, given)
    return params


def execute_checks(names, ctx: RunContext):
    """The reports of the named checks, run in order on ctx.

    Each check's function is called through the verify module, so a
    wrapper installed there sees the call.  ctx.audit, traj's audit with
    the columns the named checks read, is built when the first check that
    takes it runs, so the checks before it (the flows of stability, say)
    run without its arrays.
    """
    columns = [_COLUMNS[name] for name in names if name in _COLUMNS]
    ctx.audit = None
    reports = []
    for name in names:
        args = _args(CHECK_TABLE[name])
        _refuse_unmet(name, lambda attr: getattr(ctx, attr) is not None)
        if ctx.audit is None and ctx.traj is not None and "audit" in args:
            ctx.audit = TrajectoryAudit(ctx.traj, ctx.path, ctx.F, ctx.omega, columns)
        fn = getattr(verify, CHECK_TABLE[name].__name__)
        out = fn(*(getattr(ctx, arg) for arg in args), **ctx.params.get(name, {}))
        reports.extend(out if isinstance(out, list) else [out])
    return reports


def _refuse_unmet(name: str, has):
    """Refuse check name if has(attr) is false for a RunContext object it needs."""
    missing = [attr for attr in _NEEDS[name] if not has(attr)]
    if missing:
        raise ConfigError(f"check {name!r} needs {missing[0].replace('_', ' ')}")


def print_reports(reports):
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        margin = "-inf" if r.margin == -math.inf else f"{r.margin:+.6e}"
        line = f"{flag}  {r.name:<22s} margin={margin:<14s} [{r.anchor}]"
        notice = r.details.get("notice") if isinstance(r.details, dict) else None
        if notice:
            line += f"  {notice}"
        print(line)


# ---------------------------------------------------------------------------
# subcommand: run


# what each mode's run gives of the RunContext objects a check may need
_MODE_GIVES = {"single": ("traj",), "cascade": ("traj", "cascade"), "nef": ("traj",), "audit": ()}


def _resolve_checks(ctx: RunContext, names: list) -> list:
    """names, refused before any flow runs if one is unknown or lacks what ctx must give it.

    ctx's initial_b gives the second datum and its run (the comparison
    pair); its mode's run gives the rest (`_MODE_GIVES`).  A schedule that
    uniqueness cascades has two or more widths.
    """
    unknown = [name for name in names if name not in CHECK_TABLE]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r}; available: {sorted(CHECK_TABLE)}")
    has_b = ctx.initial_b is not None
    for name, needs in _NEEDS.items():
        if name in names and not has_b and {"traj_b", "initial_b"} & set(needs):
            raise ConfigError(f"check {name!r} needs an 'initial_b' datum")
    given = _MODE_GIVES[ctx.mode] + (("initial_b", "traj_b") if has_b else ())
    for name in names:
        _refuse_unmet(name, given.__contains__)
    for key in ("schedule", "schedule_b"):
        if "uniqueness" in names and getattr(ctx, key) is not None:
            _refuse_one_level(ctx, key)
    return names


def _refuse_unbounded_comparison(ctx: RunContext):
    """Refuse a comparison bound ctx's data make infinite: the pair's first snapshots
    are the data, its last time the horizon, and a default tol (None) is finite."""
    settings = _settings("comparison", ctx)
    lam = verify.comparison_lambda(ctx.F, settings["lam"])
    gap0 = float((ctx.phi0.values - ctx.psi0.values).max())
    verify.comparison_bound(lam, ctx.cfg.horizon, gap0, settings["tol"] or 0.0)


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
    """The scenario's problem on grid as a RunContext; seed defaults to the document's.

    Every section given is built, so typed, here, a schedule the run never reads too.
    """
    seed = _check("seed", SEED, doc.get("seed", 0) if seed is None else seed)  # or --seed
    return RunContext(
        doc=doc,
        grid=grid,
        cfg=cfg,
        omega=build_volume(doc, grid),
        F=build_driving(doc),
        initial=build_initial(_section(doc, "initial"), grid.n),
        path=build_metric(doc, grid, cfg.horizon),
        seed=seed,
        params=_check_params(doc),
        initial_b=(
            build_initial(doc["initial_b"], grid.n, "initial_b") if doc.get("initial_b") else None
        ),
        **{k: build_schedule(doc[k], k) for k in ("schedule", "schedule_b") if k in doc},
        **objects,
    )


def scenario(doc: dict, forced_mode: str = None) -> RunContext:
    """The problem `maflow run` integrates, each section built once, and its mode."""
    ctx = _context(doc, build_grid(doc), build_flow_config(doc))
    ctx.mode = resolve_mode(ctx, forced_mode)
    return ctx


def _refuse_one_level(ctx: RunContext, key: str):
    """Refuse by key a schedule a cascade flows that has fewer than two widths:
    one level leaves no pair of levels to order or converge."""
    _section(ctx.doc, key)  # a missing schedule is refused by name
    deltas = list(getattr(ctx, key).deltas)
    if len(deltas) < 2:
        raise ConfigError(f"{key} of a cascade needs two or more widths, got {deltas}")


def resolve_mode(ctx: RunContext, forced_mode: str = None) -> str:
    """The mode: forced, else the document's, else the one its metric and datum take.
    A cascade without a schedule of two or more widths, and a nef family
    without a nef metric, are refused (a nef family's metric.eps by
    `flow.nef_members`)."""
    mode = forced_mode or ctx.doc.get("mode", "auto")
    nef = ctx.doc.get("metric", {}).get("kind") == "nef"
    if mode == "auto":
        mode = "nef" if nef else "single" if ctx.initial.tag == "smooth" else "cascade"
    if mode == "cascade":
        _refuse_one_level(ctx, "schedule")
    if mode == "nef" and not nef:
        raise ConfigError("nef mode needs a metric of kind 'nef'")
    return mode


def integrate_scenario(ctx: RunContext, out: Path = None) -> list:
    """Integrate ctx by its mode, and return the reports that come with the run.

    They are the ordering audits that come for free with cascade and nef
    runs; ctx takes the trajectory/cascade/family objects so the caller can
    execute the scenario's checks or save archives.  Given out, a single
    flow streams its snapshots into that archive directory as it runs
    (`_streamed`); every other mode keeps them in memory.
    """
    path, F, omega, initial = ctx.path, ctx.F, ctx.omega, ctx.initial
    reports = []
    if ctx.mode == "single":
        (ctx.traj,) = run_family([_streamed(ctx, initial, out)], omega)
        if _uncertified(F):
            ctx.traj.notices.append(NO_UNIQUENESS_NOTICE)
    elif ctx.mode == "cascade":
        cascade = run_cascade(initial, ctx.schedule, path, F, omega, ctx.cfg)
        if _uncertified(F):
            cascade.notices.append(NO_UNIQUENESS_NOTICE)
        ctx.cascade = cascade
        ctx.traj = cascade.trajectories[-1]
        reports.append(_ordering_report("cascade-ordering", "decreasing-level-order", cascade))
    elif ctx.mode == "nef":
        eps = path.meta["eps_schedule"]
        family = run_nef(path.meta["theta0"], eps, initial.sample(ctx.grid), F, omega, ctx.cfg)
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
    return reports


def _streamed(ctx: RunContext, datum: RoughPotential, out: Path = None) -> Member:
    """The member that flows datum on ctx's grid, into an io.ArchiveStore at out when given."""
    store = None if out is None else (lambda: archive_io.ArchiveStore(out, ctx.grid))
    return Member(ctx.cfg, lambda: (datum.sample(ctx.grid), ctx.path, ctx.F), store)


def run_comparison_pair(ctx: RunContext, out: Path = None):
    """Integrate the second datum so pairwise checks can run, streamed into out when given."""
    (ctx.traj_b,) = run_family([_streamed(ctx, ctx.initial_b, out)], ctx.omega)
    return ctx.traj_b


def _cascades(ctx: RunContext, schedules) -> int:
    """The fields the cascades of ctx's datum under schedules keep: each level's
    snapshots, and the ladder's levels and base."""
    families = [cascade_members(ctx.initial, s, ctx.path, ctx.F, ctx.cfg)[1] for s in schedules]
    return sum(kept_fields(members) + len(members) + 1 for members in families)


# The fields each flow family of `maflow run` keeps in memory, from the RunContext and a
# check's settings.  A member makes its start and store only when it runs, so no datum is
# sampled (None) and no archive is made (Path()) here.
_KEPT = {
    "single": lambda ctx, _: kept_fields([_streamed(ctx, ctx.initial, Path())]),
    "cascade": lambda ctx, _: _cascades(ctx, [ctx.schedule]),
    "nef": lambda ctx, _: kept_fields(
        nef_members(ctx.path.meta["theta0"], ctx.path.meta["eps_schedule"], None, ctx.F, ctx.cfg)
    ),
    "audit": lambda ctx, _: 0,
    "stability": lambda ctx, s: kept_fields(
        verify.homotopy(None, None, ctx.path, ctx.F, ctx.cfg, s["homotopy_samples"])
    ),
    "uniqueness": lambda ctx, _: (
        0 if verify.uniqueness_refusals(ctx.F) else _cascades(ctx, ctx.schedules or ())
    ),
    "transform-roundtrip": lambda ctx, s: 2 * kept_fields(  # each run's pull-back too
        m for _, m in verify.transformed_runs(None, ctx.path, ctx.F, ctx.cfg, **s).values()
    ),
}


def array_estimate(ctx: RunContext, checks=()) -> int:
    """flow.peak_array_bytes of `maflow run` on ctx, with what its flows keep (`_KEPT`).

    The checks run one at a time and drop their flows when they return, so
    the one that keeps most counts.  Nothing grid-sized is made here.
    """
    kept = [_KEPT[name](ctx, _settings(name, ctx)) for name in checks if name in _KEPT]
    kept = _KEPT[ctx.mode](ctx, {}) + max(kept, default=0)
    return peak_array_bytes(ctx.grid, kept, ctx.cfg.backend)


def _settings(name: str, ctx: RunContext) -> dict:
    """Check name's settings: its keyword-only defaults, updated by the document's check_params."""
    params = inspect.signature(CHECK_TABLE[name]).parameters.values()
    defaults = {p.name: p.default for p in params if p.kind == p.KEYWORD_ONLY}
    return defaults | ctx.params.get(name, {})


def replay_estimate(directory, manifest: dict) -> int:
    """flow.audit_array_bytes of a replay of the archive in directory, with what it reads whole.

    The replay lays its snapshots out on the manifest's grid and audits them
    as it reads them; a cascade archive's ladder, every level and its base,
    is read into memory.  Nothing grid-sized is made here.
    """
    grid = archive_io.manifest_grid(directory, manifest)
    ladder = len(manifest["cascade"]["deltas"]) + 1 if manifest.get("cascade") else 0
    return audit_array_bytes(grid) + ladder * 8 * math.prod(grid.shape)


def _within_budget(what: str, grid: dict, estimate: int):
    """Refuse, before anything is allocated, a command whose arrays exceed flow.ARRAY_BUDGET."""
    if estimate > ARRAY_BUDGET:
        raise ConfigError(
            f"{what} on grid {grid} would hold about {estimate / 2**20:,.0f} MiB of "
            f"arrays, over the {ARRAY_BUDGET / 2**20:,.0f} MiB a run may hold (flow.ARRAY_BUDGET)"
        )


def cmd_run(args, forced_mode: str = None) -> int:
    doc = load_document(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed  # archived with the run, so verify replays the same draws
    out = Path(args.out) if args.out else Path(doc.get("out", "runs/latest"))
    ctx = scenario(doc, forced_mode)
    names = _resolve_checks(ctx, list(args.check or doc.get("checks", [])))
    _within_budget("the run", doc["grid"], array_estimate(ctx, names))
    if "comparison" in names:  # before any flow runs, once the data may be sampled
        _refuse_unbounded_comparison(ctx)

    # everything goes to a staged directory that reaches out only if the run ends normally
    with archive_io.staged(out) as stage:
        reports = integrate_scenario(ctx, stage)
        if ctx.mode == "single":
            archive_io.save_trajectory(stage, ctx.traj, run_config=doc)
        elif ctx.mode == "cascade":
            archive_io.save_cascade(stage, ctx.cascade, run_config=doc)
        elif ctx.mode == "nef":
            _save_nef(stage, ctx.family, doc)

        if "comparison" in names and ctx.traj_b is None:
            run_comparison_pair(ctx, stage / "pair")
            archive_io.save_trajectory(stage / "pair", ctx.traj_b, run_config=doc)

        reports.extend(execute_checks(names, ctx))
        if reports:
            stamp = archive_io.config_hash(doc)
            for r in reports:
                r.details.setdefault("config_hash", stamp)
            verify.write_reports(reports, stage)
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


def _without_trajectory(directory: Path):
    """Raise a ConfigError naming the mode of an archive that holds no trajectory of its own.

    A nef family (family.json) holds one archive per member, which the
    message names; an audit-mode run holds only its margin reports.  Other
    directories pass through.
    """
    if (directory / "family.json").is_file():
        members = sorted(p for p in directory.iterdir() if (p / "manifest.json").is_file())
        raise ConfigError(
            f"{directory} is a nef family archive with no trajectory of its own; "
            f"replay one member archive at a time: {', '.join(map(str, members)) or 'none found'}"
        )
    if any((directory / name).is_file() for name in ("margins.json", "margins.csv")):
        raise ConfigError(
            f"{directory} is an audit-mode archive: it holds only margin reports and "
            "no trajectory, so there is nothing to replay"
        )


# the manifest values `io.load_trajectory` takes as they are, typed as a document's
MANIFEST_TYPES = {
    "schedule": list[float], "stored_indices": list[int], "diagnostics": list[dict] | None
}


def _manifest(directory) -> dict:
    """The manifest of an archive directory, its values typed as a document's are.

    Each of MANIFEST_TYPES it holds is refused by file and key unless of its
    type, and flow_config unless it is a document's flow section.  A nef
    family or audit-mode archive, which has none, is refused by its mode
    (`_without_trajectory`).
    """
    where = Path(directory) / "manifest.json"
    if not where.is_file():
        _without_trajectory(Path(directory))
    manifest = _check(str(where), dict, archive_io.read_json(where))
    for key in MANIFEST_TYPES.keys() & manifest.keys():
        _check(f"{where} {key}", MANIFEST_TYPES[key], manifest[key])
    if manifest.get("flow_config") is not None:
        _typed(f"{where} flow_config", FlowConfig, manifest["flow_config"])
    return manifest


def _load_any(directory, manifest: dict = None):
    """Load an archive directory, whose manifest is read unless given, as (traj, cascade).

    traj is the trajectory the archive gives (a cascade's finest level);
    cascade is None for a single-trajectory archive.  `io.cascade_entry`'s
    and `replay_estimate`'s refusals come before anything is loaded.
    """
    manifest = manifest or _manifest(directory)
    if "cascade" in manifest:
        archive_io.cascade_entry(directory, manifest)
    estimate = replay_estimate(directory, manifest)
    _within_budget(f"the replay of {directory}", manifest["grid"], estimate)
    if "cascade" in manifest:
        cascade = archive_io.load_cascade(directory, manifest)
        return cascade.trajectories[-1], cascade
    return archive_io.load_trajectory(directory, manifest), None


def _flow_config(traj, directory) -> FlowConfig:
    """The flow config of an archive's trajectory, which the metric's horizon comes from.

    An archive of a trajectory no flow integrated (`io.save_trajectory` of
    a `flow.trajectory_from_family` one) has none, and is refused.
    """
    if traj.config is None:
        raise ConfigError(
            f"{directory} has a run_config but no flow_config: its trajectory was not "
            "integrated by a flow, so its metric path cannot be rebuilt"
        )
    return traj.config


def cmd_verify(args) -> int:
    if len(args.archives) > 2:
        raise ConfigError("verify takes one archive, or two for comparison")
    manifest = _manifest(args.archives[0])
    doc = manifest.get("run_config")
    if not isinstance(doc, dict):
        raise ConfigError(
            "archive has no stored scenario; re-run with a run_config to verify"
        )
    traj, cascade = _load_any(args.archives[0], manifest)
    cfg = _flow_config(traj, args.archives[0])
    ctx = _context(doc, traj.grid, cfg, args.seed, traj=traj, cascade=cascade)
    pair = Path(args.archives[0]) / "pair"
    if len(args.archives) == 2:
        ctx.traj_b = _load_any(args.archives[1])[0]
    elif (pair / "manifest.json").is_file():
        ctx.traj_b = _load_any(pair)[0]  # the second flow `run` archived for comparison

    if args.check:
        names = list(args.check)
    elif len(args.archives) == 2:
        names = ["comparison"]
    else:
        names = [name for name in doc.get("checks", []) if name in ARCHIVE_CHECKS]
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
    # without --out the replay goes beside, never over, the reports run wrote
    out = Path(args.out) if args.out else Path(args.archives[0]) / "replay"
    verify.write_reports(reports, out)
    print_reports(reports)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommand: series


def cmd_series(args) -> int:
    manifest = _manifest(args.archive)
    traj, _ = _load_any(args.archive, manifest)
    path = omega = None
    doc = manifest.get("run_config")
    if isinstance(doc, dict):
        omega = build_volume(doc, traj.grid)
        path = build_metric(doc, traj.grid, _flow_config(traj, args.archive).horizon)
    rows = verify.trajectory_series(traj, args.quantity, path=path, omega_form=omega)
    rows = [("t", "value"), *rows]
    if not args.out:
        csv.writer(sys.stdout).writerows(rows)
        return 0
    target = Path(args.out) / f"series-{args.quantity}.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {target}")
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
    archive_io.save_ladder(out, ladder)
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
    ver_p.add_argument(
        "--out", default=None, help="where to write margin reports (default: <archive>/replay)"
    )
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
