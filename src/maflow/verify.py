"""Margin checks: each quantitative estimate becomes a signed margin report.

Conventions shared by every check in this module:

* margins are signed and the check passes iff margin >= 0: the report
  type enforces it, since MarginReport.passed is read from the margin and
  cannot be set on its own;
* fitted constants come from ordinary least squares (np.polyfit), never from
  stochastic search, so reports are bit-reproducible given the same inputs;
* existence-of-a-constant checks (the fitted A, C families) report margin
  0.0 once the constant is finite and -inf otherwise (`_exists`), because
  the underlying estimate supplies no computable value to compare against.
  The constant itself is in report.constants and its stability under
  schedule refinement is a separate test;
* a check that needs snapshots the trajectory did not store raises
  MissingSnapshotsError, with the missing (s, t) time pairs attached
  where it needs pairs;
* the keyword-only parameters of a check_* function are its settings: a
  scenario's check_params entry for the check sets them, each typed and held
  to its domain by its annotation, and their defaults are the document's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .errors import AT_LEAST_0, AT_LEAST_1, ConfigError, MissingSnapshotsError, NotKahlerError
from .errors import NumericError, declared, each, one_of
from .flow import (
    DrivingTerm,
    FlowConfig,
    FlowTrajectory,
    Member,
    TrajectoryAudit,
    _distinct_sorted,
    _sampled_min,
    _transformed_time,
    finite_horizon,
    instantaneous_residuals,
    monotone_reduction,
    ordering_gap,
    reduction_rate as default_reduction_rate,
    residual_certificate,
    run_cascade,
    run_family,
    snapshot_sup,
    uniqueness_rescale,
)
from .geometry import MetricPath, VolumeForm, comps_trace, trace_inequality_slacks
from .grid import ScalarField, TorusGrid, gradient_sq, hessian_components, oscillation
from .io import _json_clean
from .psh import RoughPotential, capacity_lower_bound, energy

# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class MarginReport:
    """One verified inequality: signed worst margin plus fitted constants.

    passed is margin >= 0, read from the margin.  location is the (t, z...)
    point achieving the worst margin when the check has a pointwise reading,
    else None.  constants holds named fitted or explicit values; details
    holds series and notes.
    """

    name: str
    anchor: str
    margin: float
    location: tuple = None
    constants: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "anchor": self.anchor,
            "margin": _json_clean(self.margin),
            "passed": self.passed,
            "location": _json_clean(self.location),
            "constants": _json_clean(self.constants),
            "details": _json_clean(self.details),
        }

    def csv_row(self) -> list:
        parts = " ".join(f"{k}={_fmt(v)}" for k, v in self.constants.items())
        return [self.name, self.anchor, _fmt(self.margin), parts]


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.6g}"
    return str(v)


CSV_HEADER = ["check", "anchor", "margin", "constants"]


def write_reports(reports, directory):
    """Serialize reports to margins.json (one object each) and margins.csv."""
    import csv as _csv
    import json
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jpath = directory / "margins.json"
    cpath = directory / "margins.csv"
    jpath.write_text(json.dumps([r.as_dict() for r in reports], indent=2))
    with open(cpath, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in reports:
            w.writerow(r.csv_row())
    return jpath, cpath


def _exists(*constants) -> float:
    """The margin of an existence check: 0.0 when every constant is finite, else -inf."""
    return 0.0 if all(map(math.isfinite, constants)) else -math.inf


def _point(grid, flat_index: int) -> tuple:
    idx = np.unravel_index(int(flat_index), grid.shape)
    return tuple(
        float(np.broadcast_to(c, grid.shape)[idx]) for c in grid.coordinates()
    )


def comparison_tolerance(grid, backend: str, osc: float) -> float:
    """Discretization allowance for sup-norm comparisons of two runs."""
    if grid.n == 1 and backend == "fd":
        return 1e-9 * osc
    return 10.0 * grid.spacing**2 * osc


def default_eps(traj: FlowTrajectory, t_min: float) -> float:
    """The first stored time >= 10 t_min, else the last: the default t = eps probe."""
    later = [float(t) for t in traj.times if t >= 10.0 * t_min]
    return later[0] if later else float(traj.times[-1])


# ---------------------------------------------------------------------------
# comparison principle


# how far a declared sub- (super-) solution's residual may rise above (fall below) 0
ROLE_SLACK = 1e-8
ROLES = ("solution", "sub", "subsolution", "super", "supersolution")  # check_comparison's


def comparison_lambda(F: DrivingTerm = None, lam: float | None = None) -> float:
    """check_comparison's lam: by default F's certified monotonicity defect, or 0
    without one; a lam below that defect is refused."""
    if lam is None:
        return (F is not None and F.defect) or 0.0
    if F is not None and F.defect is not None and lam < F.defect - 1e-12:
        raise ConfigError(f"lambda = {lam} is below the certified monotonicity defect {F.defect}")
    return lam


def comparison_bound(lam: float, T: float, gap0: float, tol: float) -> float:
    """e^{lam T} max(gap0, 0) + tol, refused when not finite; 0 + tol for gap0 <= 0, however
    large lam T is."""
    try:
        bound = (math.exp(lam * T) * gap0 if gap0 > 0.0 else 0.0) + tol
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ConfigError(
            f"the comparison bound e^(lam T) max(gap0, 0) + tol is not finite for lam = {lam} "
            f"and horizon T = {T} (gap0 = {gap0:.6g}, tol = {tol:.6g}); lower lam or the horizon"
        )
    return bound


@declared
def check_comparison(
    phi: FlowTrajectory,
    psi: FlowTrajectory,
    path: MetricPath = None,
    F: DrivingTerm = None,
    omega_form: VolumeForm = None,
    *,
    lam: float | None = None,
    tol: float | None = None,
    roles: Annotated[tuple[str, str], each(one_of(*ROLES))] = ("solution", "solution"),
) -> MarginReport:
    """sup(phi_t - psi_t) against e^{lam T} max(sup(phi_0 - psi_0), 0).

    phi plays the sub-solution role and psi the super-solution role.  When
    path, F and omega_form are supplied the declared roles are re-verified
    from recomputed residual signs before any margin is claimed.  A pair
    that stores no snapshot after t = 0 compares nothing and is refused, as
    are a lam and a bound that `comparison_lambda` and `comparison_bound` refuse.
    """
    if phi.grid.n != psi.grid.n or phi.grid.resolution != psi.grid.resolution:
        raise ConfigError("mismatched discretizations: comparison needs one grid")
    worst, t_worst, j_worst = ordering_gap(psi, phi)
    if max(phi.times) <= 0.0:
        raise MissingSnapshotsError("comparison needs a stored snapshot after t = 0")
    lam = comparison_lambda(F, lam)
    grid = phi.grid
    backend = phi.config.backend if phi.config is not None else "spectral"
    osc = max(oscillation(phi.fields[0]), oscillation(psi.fields[0]))
    if tol is None:
        tol = comparison_tolerance(grid, backend, osc)

    details = {"roles": list(roles)}
    if path is not None and F is not None and omega_form is not None:
        for traj, role, side in ((phi, roles[0], "phi"), (psi, roles[1], "psi")):
            res = instantaneous_residuals(traj, path, F, omega_form)
            ext = dict(zip(("min", "max"), res["range"]))
            if res["cone_violation_at"] is not None:
                ext["cone_violation_at"] = res["cone_violation_at"]
            details[f"residual_range_{side}"] = ext
            if role in ("sub", "subsolution") and ext["max"] > ROLE_SLACK:
                raise ConfigError(
                    f"{side} declared a subsolution but its residual reaches {ext['max']:.3e}"
                )
            if role in ("super", "supersolution") and ext["min"] < -ROLE_SLACK:
                raise ConfigError(
                    f"{side} declared a supersolution but its residual reaches {ext['min']:.3e}"
                )

    gap0 = float((phi.fields[0].values - psi.fields[0].values).max())
    margin = comparison_bound(lam, float(phi.times[-1]), gap0, tol) - worst
    return MarginReport(
        name="comparison",
        anchor="sup-difference-exponential",
        margin=margin,
        location=(t_worst,) + _point(grid, j_worst),
        constants={"lambda": float(lam), "tol": tol, "initial_gap": gap0, "sup_gap": worst},
        details=details,
    )


# ---------------------------------------------------------------------------
# a priori sup bounds


def check_apriori_bounds(audit: TrajectoryAudit, *, kcap: float | None = None) -> list:
    """Two reports: explicit linear upper bound, fitted lower modulus.

    Upper: phi_t <= C t + max(sup phi_0, 0) with the explicit constant
    C = -inf F(t, z, 0) + n log(delta), delta from the metric-path
    certificate.  No fitting freedom.  The explicit constant is only valid
    for monotone driving terms (declared defect 0); otherwise the report is
    marked inapplicable and passes vacuously.  The margin includes t = 0,
    where the bound is attained (margin -0.0) whenever sup phi_0 >= 0, so
    the constant room_positive_t gives the same bound's room over the stored
    t > 0 snapshots only (inf when there are none).

    Lower: c_raw(t) = max(0, sup_z(phi_0 - phi_t)) is majorized by its
    running maximum c(t) (the smallest majorant that decreases to 0 as t
    does), and the check fits the smallest K with c(t) <= K (t log(1/t) + t).
    Passes iff K <= kcap, default 2n.  A trajectory that stores no snapshot
    at a time in (0, 2), where the fit runs, is refused
    (MissingSnapshotsError).  The audit supplies the trajectory, the
    driving term, the path certificate and the scratch array the walk forms
    each snapshot's excess and drop in, so the check makes no grid array
    beside the snapshots it reads.  Both bounds share one walk over the
    stored snapshots, which reads each of them at most once.
    """
    traj, F = audit.traj, audit.F
    grid = traj.grid
    n = grid.n
    monotone = F.defect is not None and F.defect == 0.0
    if monotone:
        delta = audit.certificate()
        coords = grid.coordinates()
        probes = _distinct_sorted(np.concatenate([traj.times, np.linspace(0.0, traj.times[-1], 33)]))
        # F(t, z, 0) at s = 0.0, a scalar, has the values of F at zero potentials
        inf_f = _sampled_min(lambda t, s: F(t, coords, s), probes, (0.0,))
        C = -inf_f + n * math.log(delta)

    scratch = audit.scratch  # each snapshot's excess and drop
    base = traj.fields[0].values
    M0 = max(float(base.max()), 0.0)
    sups, ts, c_raw, locs = [], [], [], []
    for k, t in enumerate(traj.times):
        in_lower = 0.0 < t and float(t) < 2.0
        if not (monotone or in_lower):
            continue
        values = base if k == 0 else traj.fields[k].values
        if monotone:  # each snapshot's sup, as snapshot_sup takes it
            excess = np.subtract(values, C * float(t), out=scratch)
            excess -= M0
            sups.append(snapshot_sup([(t, excess)]))
        if in_lower:
            drop = np.subtract(base, values, out=scratch)
            j = int(np.argmax(drop))
            ts.append(float(t))
            c_raw.append(max(0.0, float(drop.flat[j])))
            locs.append((float(t),) + _point(grid, j))
        del values  # before the next snapshot is read

    if monotone:
        # max keeps the first of equal sups, as snapshot_sup
        excess, t_worst, j_worst = max(sups, key=lambda s: s[0])
        later = max([-math.inf] + [s[0] for s in sups if s[1] > 0.0])
        upper = MarginReport(
            name="apriori-upper",
            anchor="explicit-linear-upper",
            margin=-excess,
            location=(t_worst,) + _point(grid, j_worst),
            constants={"C": C, "delta": delta, "M0": M0, "room_positive_t": -later},
            details={"applicable": True},
        )
    else:
        upper = MarginReport(
            name="apriori-upper",
            anchor="explicit-linear-upper",
            margin=0.0,
            constants={},
            details={
                "applicable": False,
                "reason": "explicit constant requires a monotone driving term",
            },
        )

    if kcap is None:
        kcap = 2.0 * n
    if not ts:
        raise MissingSnapshotsError("apriori-lower needs a stored snapshot at a time in (0, 2)")
    order = np.argsort(ts)
    ts = np.asarray(ts)[order]
    c = np.maximum.accumulate(np.asarray(c_raw)[order])
    form = ts * np.log(1.0 / ts) + ts
    ratios = c / form
    kidx = int(np.argmax(ratios))
    K = float(ratios[kidx])
    lower = MarginReport(
        name="apriori-lower",
        anchor="modulus-lower",
        margin=kcap - K,
        location=locs[order[kidx]],
        constants={"K": K, "kcap": kcap},
        details={"times": ts, "c": c},
    )
    return [upper, lower]


# ---------------------------------------------------------------------------
# time-derivative envelopes


def check_time_derivative(
    traj: FlowTrajectory,
    *,
    eps: float | None = None,
    slope_floor: float = 0.9,
    bounded_variation: float = 2.0,
) -> list:
    """Two reports on phidot: upper envelope constant, lower log-slope fit.

    Upper: the smallest C_up with t phidot_t(z) <= -phi_eps(z) + C_up over
    t in [eps, T].  Existence check: margin 0, constant reported.  eps
    defaults to `default_eps` at the run's t_min, so a trajectory with no
    flow config (`flow.trajectory_from_family`) needs it given.

    Lower: least-squares fit of min_z phidot_t against log t.  Passes iff
    the fitted slope >= slope_floor * n, or the series has total variation
    <= bounded_variation (a bounded derivative satisfies a log-divergent
    lower bound trivially; the slope fit is meaningless noise there).

    Both read each stored phidot once, in one walk.
    """
    if len(traj.times) < 2:
        raise ConfigError("time-derivative checks need at least two snapshots")
    if eps is None:
        if traj.config is None:
            raise ConfigError("time-derivative checks need eps on a trajectory with no flow config")
        eps = default_eps(traj, traj.config.t_min)
    first_pos = float(traj.times[1]) if traj.times[0] == 0.0 else float(traj.times[0])
    if eps < first_pos * (1.0 - 1e-12):
        raise ConfigError(f"eps = {eps} is below the first schedule time {first_pos}")
    k_eps = traj.index_of(eps)
    grid = traj.grid
    phi_eps = traj.fields[k_eps].values

    envelope, ts, ys = [], [], []
    for t, pd in zip(traj.times, traj.phidots):
        t = float(t)
        if pd is None:
            continue
        if t >= eps * (1.0 - 1e-12):  # each snapshot's sup, as snapshot_sup takes it
            envelope.append(snapshot_sup([(t, t * pd.values + phi_eps)]))
        if t > 0.0:
            ts.append(t)
            ys.append(float(pd.values.min()))

    # max keeps the first of equal sups, as snapshot_sup
    c_up, t_up, j_up = max(envelope, key=lambda s: s[0], default=(-math.inf, None, None))
    where = None if t_up is None else (t_up,) + _point(grid, j_up)
    upper = MarginReport(
        name="derivative-upper",
        anchor="derivative-envelope-upper",
        margin=_exists(c_up),
        location=where,
        constants={"C_up": c_up, "eps": float(eps)},
    )

    if len(ts) < 2:
        raise ConfigError("lower derivative fit needs at least two positive-time snapshots")
    x = np.log(np.asarray(ts))
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    variation = float(y.max() - y.min())
    n = grid.n
    if variation <= bounded_variation:
        margin = bounded_variation - variation
        clause = "bounded"
    else:
        margin = float(slope) - slope_floor * n
        clause = "slope"
    lower = MarginReport(
        name="derivative-lower",
        anchor="derivative-log-slope",
        margin=margin,
        constants={
            "slope": float(slope),
            "intercept": float(intercept),
            "offset": max(0.0, -float(intercept)),
            "variation": variation,
        },
        details={"clause": clause, "times": ts, "min_phidot": ys},
    )
    return [upper, lower]


# ---------------------------------------------------------------------------
# gradient and Laplacian growth


def check_gradient_laplacian(audit: TrajectoryAudit, *, pair_tol: float = 1e-9) -> list:
    """Two reports: exponential gradient constant, trace-oscillation fit.

    Gradient: the smallest C_g >= 0 with sup_z |grad phi_t|^2 <= e^{C_g/t}
    over positive stored times, i.e. C_g = max(0, max t log sup beta_t).

    Laplacian: over stored pairs (t/2, t), fits (A, C) in
    t log tr(omega_t) <= 2 A Osc(phi_{t/2}) + C by least squares on the
    slope and a zero-slack intercept.  Needs a snapshot after t = 0 and two
    such pairs; raises MissingSnapshotsError (listing any missing (t/2, t)
    pairs) otherwise.  omega_t is read from the audit's sup-trace column.
    """
    traj = audit.traj
    if max(traj.times) <= 0.0:
        raise MissingSnapshotsError("gradient-laplacian needs a stored snapshot after t = 0")
    backend = audit.backend

    c_g = 0.0
    g_where = None
    g_times, g_vals = [], []
    for k, t in enumerate(traj.times):
        if float(t) <= 0.0:
            continue
        beta = gradient_sq(traj.fields[k], backend).values
        s = float(beta.max())
        if s <= 0.0:
            continue
        v = float(t) * math.log(s)
        g_times.append(float(t))
        g_vals.append(v)
        if v > c_g:
            c_g = v
            g_where = (float(t),)
    gradient = MarginReport(
        name="gradient-bound",
        anchor="gradient-exp-constant",
        margin=_exists(c_g),
        location=g_where,
        constants={"C_g": c_g},
        details={"times": g_times, "t_log_sup_grad": g_vals},
    )

    xs, ys, pair_ts, missing = [], [], [], []
    for k, t in enumerate(traj.times):
        t = float(t)
        if t <= 0.0:
            continue
        try:
            kh = traj.index_of(t / 2.0, tol=pair_tol)
        except MissingSnapshotsError:
            missing.append((t / 2.0, t))
            continue
        tr = audit.value(k, "sup-trace")
        if tr <= 0.0:
            raise NumericError(f"non-positive metric trace at t = {t}")
        xs.append(oscillation(traj.fields[kh]))
        ys.append(t * math.log(tr))
        pair_ts.append(t)
    if len(xs) < 2:
        raise MissingSnapshotsError(
            "laplacian fit needs snapshots at (t/2, t) pairs; "
            f"missing {len(missing)} pairs, first few: {missing[:6]}",
            pairs=missing,
        )
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if float(xs.max() - xs.min()) <= 1e-14:
        slope = 0.0
    else:
        slope, _ = np.polyfit(xs, ys, 1)
    A = max(float(slope), 0.0) / 2.0
    C = float(np.max(ys - 2.0 * A * xs))
    laplacian = MarginReport(
        name="laplacian-bound",
        anchor="trace-oscillation-affine",
        margin=_exists(A, C),
        constants={"A": A, "C": C, "pairs": len(pair_ts)},
        details={"times": pair_ts, "t_log_sup_trace": ys, "osc_half": xs},
    )
    return [gradient, laplacian]


# ---------------------------------------------------------------------------
# energy monotonicity


def check_energy_monotonicity(audit: TrajectoryAudit, *, slack: float = 1e-8) -> MarginReport:
    """Fits the smallest C_E >= 0 making E(phi_t) + C_E t non-decreasing.

    Needs at least 16 snapshots for the drift fit to mean anything.  For a
    constant metric path the certificate delta gives a crude admissible
    drift cap 1 + log(delta) (unit reference volume) and the margin is
    measured against it; otherwise any finite C_E passes with margin 0 and
    the fitted value is in the constants.
    """
    traj = audit.traj
    if len(traj.times) < 16:
        raise ConfigError("energy monotonicity needs at least 16 snapshots")
    e = np.asarray([audit.value(k, "energy") for k in range(len(traj.times))])
    dts = np.diff(traj.times)
    drops = e[:-1] - e[1:] - slack
    rates = drops / dts
    c_e = max(0.0, float(rates.max()))
    kworst = int(np.argmax(rates))
    where = (float(traj.times[kworst + 1]),)
    if audit.path.kind == "constant":
        cap = 1.0 + math.log(audit.certificate())
        margin = cap - c_e
    else:
        cap = None
        margin = _exists(c_e)
    return MarginReport(
        name="energy-monotone",
        anchor="energy-drift",
        margin=margin,
        location=where,
        constants={"C_E": c_e, "cap": cap},
        details={"times": traj.times, "energies": e},
    )


# ---------------------------------------------------------------------------
# stability


def homotopy(phi0, psi0, path: MetricPath, F: DrivingTerm, cfg: FlowConfig, samples: int) -> list:
    """The members `check_stability` runs: from (1 - lam) phi0 + lam psi0, samples lam in [0, 1]."""
    if F.defect is None or F.defect > 0.0:
        raise ConfigError(
            "stability needs a monotone driving term (defect 0); apply the reduction first"
        )

    def start(lam):
        return ScalarField(phi0.grid, (1.0 - lam) * phi0.values + lam * psi0.values), path, F

    return [Member(cfg, functools.partial(start, lam)) for lam in np.linspace(0.0, 1.0, samples)]


@declared
def check_stability(
    phi0: ScalarField,
    psi0: ScalarField,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    *,
    homotopy_samples: Annotated[int, (lambda k: k >= 2, ">= 2")] = 5,
    eps: float | None = None,
) -> MarginReport:
    """Sup-norm contraction between two flows plus the homotopy-family audit.

    Runs the flows from phi0, psi0 and from the straight-line family between
    them (`homotopy`).  Contraction: |phi_t - psi_t|_sup <= |phi_0 - psi_0|_sup + tol at
    every snapshot.  Homotopy: the finite-difference-in-lambda derivative's
    sup norm is non-increasing in t.  Also reports the second-order
    difference quotient at t = eps as an empirical C(2, eps); that part is a
    diagnostic, not a gate.  An eps with no stored snapshot raises
    MissingSnapshotsError after the flow from phi0, before the others run.
    """
    members = homotopy(phi0, psi0, path, F, cfg, homotopy_samples)
    grid = phi0.grid
    tol = comparison_tolerance(grid, cfg.backend, max(oscillation(phi0), oscillation(psi0)))
    d0 = float(np.abs(phi0.values - psi0.values).max())

    (phi_run,) = run_family(members[:1], omega_form)
    if eps is None:
        eps = default_eps(phi_run, cfg.t_min)
    ke = phi_run.index_of(eps)  # a missing snapshot is refused before the other flows run
    runs = [phi_run, *run_family(members[1:], omega_form)]
    psi_run = runs[-1]

    d_max, t_c, j_c = snapshot_sup(
        (t, np.abs(f.values - g.values))
        for t, f, g in zip(phi_run.times, phi_run.fields, psi_run.fields)
    )
    margin_c = d0 + tol - d_max
    where = (t_c,) + _point(grid, j_c)
    ratio = d_max / d0 if d0 > 0.0 else 0.0

    dlam = 1.0 / (homotopy_samples - 1)
    tol_h = tol / dlam
    margin_h = math.inf
    for i in range(homotopy_samples - 1):
        prev = None
        for k in range(len(phi_run.times)):
            d = float(
                np.abs(runs[i + 1].fields[k].values - runs[i].fields[k].values).max()
            ) / dlam
            if prev is not None:
                margin_h = min(margin_h, prev - d + tol_h)
            prev = d

    def lap(vals):
        return 4.0 * comps_trace(hessian_components(vals, grid, cfg.backend))

    dl = float(
        np.abs(lap(phi_run.fields[ke].values) - lap(psi_run.fields[ke].values)).max()
    )
    c2 = dl / d0 if d0 > 0.0 else 0.0

    margin = min(margin_c, margin_h)
    return MarginReport(
        name="stability",
        anchor="contraction-homotopy",
        margin=margin,
        location=where,
        constants={"C0": ratio, "C2_eps": c2, "eps": float(eps), "tol": tol},
        details={"d0": d0, "homotopy_samples": homotopy_samples, "contraction_margin": margin_c,
                 "homotopy_margin": margin_h},
    )


# ---------------------------------------------------------------------------
# uniqueness via two regularization schedules


def uniqueness_refusals(F: DrivingTerm) -> list:
    """Why `check_uniqueness` refuses F, and runs no cascade: none for a certified F."""
    reasons = []
    if F.defect is None:
        reasons.append("no monotonicity certificate declared")
    elif F.defect > 0.0:
        reasons.append(f"monotonicity defect {F.defect} > 0; reduce first")
    if F.time_bound is None:
        reasons.append("time-derivative bound undeclared")
    if not F.smooth:
        reasons.append("driving term not declared smooth in s")
    return reasons


def check_uniqueness(
    initial: RoughPotential,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    schedules: tuple = None,
    *,
    rate: float | None = None,
) -> MarginReport:
    """Limits of two regularization cascades must agree within their gaps.

    Preconditions are a genuine certificate: the driving term must declare
    monotonicity defect 0, a finite time-derivative bound, and smoothness,
    and the exponential rescale certificate must exist for some admissible
    rate.  A term failing any of these gets a refusal report (margin -inf,
    details.certified False) rather than a margin; refusing is the correct
    answer for terms admitting several solutions.  Only a term that passes
    these preconditions needs schedules, one per cascade of the datum initial.
    """
    reasons = uniqueness_refusals(F)
    if reasons:
        return MarginReport(
            name="uniqueness",
            anchor="two-schedule-agreement",
            margin=-math.inf,
            constants={},
            details={
                "certified": False,
                "refusal": reasons,
                "notice": "NO-UNIQUENESS-CERTIFICATE",
            },
        )
    if schedules is None:
        raise ConfigError("uniqueness check needs 'schedule' and 'schedule_b'")

    grid = path.grid
    T = cfg.horizon
    if rate is None:
        c_prime = float(F.time_bound)
        rate = 0.5 * (c_prime + 1.0 / T) if c_prime < 1.0 / T else c_prime + 1.0
    sample = initial.sample(grid).values
    s_range = (float(sample.min()) - 1.0, float(sample.max()) + 1.0)
    transformed = uniqueness_rescale(F, path, rate, s_range=s_range)

    casc_a, casc_b = (run_cascade(initial, s, path, F, omega_form, cfg) for s in schedules)
    tol = comparison_tolerance(grid, cfg.backend, oscillation(casc_a.ladder.base))

    keys = sorted(set(casc_a.limit_gaps) & set(casc_b.limit_gaps), key=float)
    if not keys:
        raise ConfigError("no shared probe times between the two cascades")
    margin = math.inf
    where = None
    diffs = {}
    for key in keys:
        t = float(key)
        d = float(
            np.abs(casc_a.limit_at(t).values - casc_b.limit_at(t).values).max()
        )
        allowed = casc_a.gap_at(t) + casc_b.gap_at(t) + tol
        diffs[key] = {"difference": d, "allowed": allowed}
        if allowed - d < margin:
            margin = allowed - d
            where = (t,)
    return MarginReport(
        name="uniqueness",
        anchor="two-schedule-agreement",
        margin=margin,
        location=where,
        constants={"rate": float(rate), **transformed.certificate},
        details={"certified": True, "probes": diffs, "tol": tol},
    )


# ---------------------------------------------------------------------------
# convergence modes toward the initial data


def _tail_margin(values, slack: float) -> float:
    """Worst decreasing-step margin over the second half of a ladder."""
    v = list(values)
    if len(v) < 2:
        return math.inf
    start = max(0, (len(v) - 1) // 2)
    return min(v[m] - v[m + 1] + slack for m in range(start, len(v) - 1))


@declared
def check_convergence_modes(
    cascade,
    initial: RoughPotential,
    path: MetricPath = None,
    omega_form: VolumeForm = None,
    audit: TrajectoryAudit = None,
    run_seed: int = 0,
    *,
    time_ladder: list[float] | None = None,
    eps_cap: float | None = None,
    l1_tol: float | None = None,
    seed: Annotated[int | None, AT_LEAST_0] = None,
) -> list:
    """Distance-to-initial-data ladders, one report per applicable mode.

    The reference is the clamped grid sample of initial, the datum the
    cascade regularized.  Modes by initial's tag: L1 for every tag; sup for
    smooth and lipschitz; capacity of the deviation set (plus the
    mollification-ladder capacity route) for bounded; energy distance
    whenever the representative admits it.  Each ladder must be decreasing
    over its tail (the later, smaller times), and the L1 mode must also land
    below l1_tol, default 1e-2 times the oscillation.  The energy ladder reads
    audit, an audit of the finest level (built here when not given).  seed,
    by default run_seed or 7 when that is 0, seeds the capacity dictionaries.
    """
    traj = cascade.trajectories[-1]
    grid = traj.grid
    base = cascade.ladder.base
    tag = initial.tag

    if time_ladder is None:
        time_ladder = sorted((float(k) for k in cascade.limit_gaps), reverse=True)
        time_ladder = [t for t in time_ladder if t > 0.0]
    time_ladder = [float(t) for t in time_ladder]
    if len(time_ladder) < 3:
        raise ConfigError("convergence modes need a ladder of at least 3 probe times")
    fields = []
    missing = []
    for t in time_ladder:
        try:
            fields.append(traj.field_at(t))
        except MissingSnapshotsError:
            missing.append((t, t))
    if missing:
        raise MissingSnapshotsError(
            f"convergence ladder times not stored: {missing}", pairs=missing
        )

    osc = oscillation(base)
    slack = 1e-12 + 1e-9 * osc
    if l1_tol is None:
        l1_tol = 1e-2 * osc
    reports = []
    notes = {}

    d_l1 = [float(np.abs(f.values - base.values).mean()) for f in fields]
    m_dec = _tail_margin(d_l1, slack)
    m_final = l1_tol - d_l1[-1]
    margin = min(m_dec, m_final)
    reports.append(
        MarginReport(
            name="convergence-l1",
            anchor="initial-data-l1",
            margin=margin,
            location=(time_ladder[-1],),
            constants={"final": d_l1[-1], "tol": l1_tol},
            details={"times": time_ladder, "values": d_l1, "notes": notes},
        )
    )

    if tag in ("smooth", "lipschitz"):
        d_sup = [float(np.abs(f.values - base.values).max()) for f in fields]
        margin = _tail_margin(d_sup, slack)
        reports.append(
            MarginReport(
                name="convergence-sup",
                anchor="initial-data-sup",
                margin=margin,
                constants={"final": d_sup[-1]},
                details={"times": time_ladder, "values": d_sup},
            )
        )

    if tag == "bounded":
        if eps_cap is None:
            eps_cap = 0.05 * osc
        if seed is None:
            seed = run_seed or 7
        caps = []
        for f in fields:
            mask = np.abs(f.values - base.values) > eps_cap
            caps.append(capacity_lower_bound(grid, mask, dictionary_size=48, seed=seed))
        cap_slack = 1e-12 + 0.05 * max(caps) if caps else 0.0
        margin = _tail_margin(caps, cap_slack)
        reports.append(
            MarginReport(
                name="convergence-capacity",
                anchor="initial-data-capacity",
                margin=margin,
                constants={"eps": eps_cap, "final": caps[-1]},
                details={"times": time_ladder, "values": caps},
            )
        )
        lad_caps = []
        for level in cascade.ladder.levels:
            mask = level.values > base.values + eps_cap
            lad_caps.append(capacity_lower_bound(grid, mask, dictionary_size=48, seed=seed))
        margin = min(
            lad_caps[j] - lad_caps[j + 1] + 1e-12 for j in range(len(lad_caps) - 1)
        ) if len(lad_caps) > 1 else math.inf
        reports.append(
            MarginReport(
                name="convergence-capacity-ladder",
                anchor="ladder-capacity",
                margin=margin,
                constants={"eps": eps_cap, "final": lad_caps[-1]},
                details={"deltas": list(cascade.ladder.deltas), "values": lad_caps},
            )
        )

    if tag in ("smooth", "lipschitz", "bounded") and path is not None:
        if audit is None:
            audit = TrajectoryAudit(traj, path, omega_form=omega_form, columns=("energy",))
        try:
            e0 = energy(path.theta(0.0), base, audit.backend)
            d_e = [abs(audit.value(traj.index_of(t), "energy") - e0) for t in time_ladder]
        except NotKahlerError as exc:
            notes["energy_skipped"] = str(exc)
        else:
            margin = _tail_margin(d_e, slack)
            reports.append(
                MarginReport(
                    name="convergence-energy",
                    anchor="initial-data-energy",
                    margin=margin,
                    constants={"final": d_e[-1], "E0": e0},
                    details={"times": time_ladder, "values": d_e},
                )
            )
    return reports


# ---------------------------------------------------------------------------
# flow-level certificates wrapped as margin reports


def check_residual_certificate(audit: TrajectoryAudit) -> MarginReport:
    """Recomputed backward-Euler residuals stay within twice the Newton gate.

    A trajectory that stores no two consecutive schedule points leaves no
    residual to recompute: MissingSnapshotsError lists, for each stored
    snapshot after t = 0, the (previous schedule time, its time) pair.
    """
    cert = residual_certificate(audit)
    if cert["pairs"] == 0:
        traj = audit.traj
        missing = [
            (float(traj.schedule[i - 1]), float(t))
            for i, t in zip(traj.stored_indices[1:], traj.times[1:])
        ]
        raise MissingSnapshotsError(
            "residual certificate needs two consecutive schedule points stored", pairs=missing
        )
    margin = 2.0 * cert["tol"] - cert["max_residual"]
    return MarginReport(
        name="residual-certificate",
        anchor="recomputed-step-residuals",
        margin=margin,
        constants={"max_residual": cert["max_residual"], "pairs": cert["pairs"]},
    )


TRANSFORMS = {"reduction": monotone_reduction, "rescale": uniqueness_rescale}


def transformed_runs(phi0, path, F, cfg, reduction_rate=None, rescale_rate=None) -> dict:
    """label -> (transform, member) of each transform `check_transform_roundtrip` runs.

    The monotone reduction runs when F has a positive defect, the uniqueness
    rescale when F declares a time bound and rescale_rate is given.
    transform() builds the problem once, sampling its certificate over
    phi0's range padded by 1; the member flows it from phi0 over the
    transformed horizon, t_min at most half of it and no probes.
    """
    T = path.horizon
    rates = {}
    if F.defect is not None and F.defect > 0.0:
        rates["reduction"] = default_reduction_rate(reduction_rate, T)
    if F.time_bound is not None and rescale_rate is not None:
        rates["rescale"] = rescale_rate
    if not rates:
        raise ConfigError(
            "no transform applies: need a positive defect or a rescale rate with a declared time bound"
        )

    def transform(label, rate):
        s_range = (float(phi0.values.min()) - 1.0, float(phi0.values.max()) + 1.0)
        return TRANSFORMS[label](F, path, rate, s_range=s_range)

    runs = {}
    for label, rate in rates.items():
        if rate == 0.0 or not finite_horizon(rate, T):
            raise ConfigError(
                f"check_params.transform-roundtrip.{label}_rate {rate} gives no finite horizon"
            )
        horizon = _transformed_time(rate, T)
        tp = functools.cache(functools.partial(transform, label, rate))
        cfg_t = replace(cfg, horizon=horizon, t_min=min(cfg.t_min, 0.5 * horizon), probes=())
        runs[label] = tp, Member(cfg_t, lambda tp=tp: (phi0, tp().path, tp().driving))
    return runs


def check_transform_roundtrip(
    phi0: ScalarField,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    *,
    reduction_rate: float | None = None,
    rescale_rate: float | None = None,
) -> list:
    """Run each exponential transform (`transformed_runs`), pull back, and measure the residual.

    The pulled-back trajectory must satisfy the original equation: its
    instantaneous residual (phidot against the recomputed right-hand side)
    stays within 10x the Newton tolerance.  Produces one report per
    applicable transform: the monotone reduction when the term has a
    positive defect, the uniqueness rescale when a time bound is declared.
    Every transform is built, so refused, before any of them runs.
    """
    budget = 10.0 * cfg.newton_tol
    runs = transformed_runs(phi0, path, F, cfg, reduction_rate, rescale_rate)
    problems = {label: transform() for label, (transform, _) in runs.items()}
    trajectories = run_family([member for _, member in runs.values()], omega_form)
    reports = []
    for (label, tp), tilde in zip(problems.items(), trajectories):
        pulled = tp.pull_back(tilde)
        res = instantaneous_residuals(pulled, tp.base_path, tp.base_driving, omega_form)
        margin = budget - res["max_residual"]
        reports.append(
            MarginReport(
                name=f"transform-{label}",
                anchor="pulled-back-residual",
                margin=margin,
                constants={
                    "rate": tp.rate,
                    "max_residual": res["max_residual"],
                    "budget": budget,
                },
                details={"certificate": tp.certificate},
            )
        )
    return reports


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


@declared
def check_trace_inequality(
    grid: TorusGrid, seed: int, *, samples: Annotated[int, AT_LEAST_1] = 1000, slack: float = 1e-10,
    n: Annotated[int | None, one_of(1, 2)] = None,
) -> MarginReport:
    """Both trace/determinant inequalities on seeded positive definite pairs.

    The margin is the worst slack of either inequality plus slack; n
    defaults to the grid's complex dimension.  The closed forms are the
    n = 1 and n = 2 ones.
    """
    n = grid.n if n is None else n
    wp, w = random_pd_pairs(n, samples, seed)
    lower, upper = trace_inequality_slacks(wp, w)
    worst = float(min(lower.min(), upper.min()))
    return MarginReport(
        name="trace-inequality",
        anchor="determinant-trace-chain",
        margin=worst + slack,
        constants={
            "samples": samples,
            "n": n,
            "seed": seed,
            "worst_lower": float(lower.min()),
            "worst_upper": float(upper.min()),
        },
    )


# ---------------------------------------------------------------------------
# plot-ready series extraction


SERIES_QUANTITIES = (
    "sup",
    "inf",
    "osc",
    "min-phidot",
    "max-phidot",
    "sup-trace",
    "energy",
    "l1-dist-initial",
    "sup-dist-initial",
)


@declared
def trajectory_series(
    traj: FlowTrajectory,
    quantity: Annotated[str, one_of(*SERIES_QUANTITIES)],
    path: MetricPath = None,
    omega_form: VolumeForm = None,
) -> list:
    """(t, value) pairs of a named scalar diagnostic along the trajectory."""
    audit = None
    if quantity in ("energy", "sup-trace"):
        if path is None:
            raise ConfigError(f"quantity {quantity!r} needs the metric path")
        audit = TrajectoryAudit(traj, path, omega_form=omega_form, columns=(quantity,))
    base = traj.fields[0].values
    out = []
    for k, t in enumerate(traj.times):
        t = float(t)
        f = traj.fields[k]
        if quantity == "sup":
            v = float(f.values.max())
        elif quantity == "inf":
            v = float(f.values.min())
        elif quantity == "osc":
            v = oscillation(f)
        elif quantity in ("min-phidot", "max-phidot"):
            pd = traj.phidots[k]
            if pd is None:
                continue
            v = float(pd.values.min() if quantity == "min-phidot" else pd.values.max())
        elif audit is not None:
            v = audit.value(k, quantity)
        elif quantity == "l1-dist-initial":
            v = float(np.abs(f.values - base).mean())
        else:
            v = float(np.abs(f.values - base).max())
        out.append((t, v))
    return out
