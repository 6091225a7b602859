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
  MissingSnapshotsError with the missing (s, t) time pairs attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, MissingSnapshotsError, NotKahlerError, NumericError
from .flow import (
    DrivingTerm,
    FlowConfig,
    FlowTrajectory,
    TrajectoryAudit,
    _sampled_min,
    instantaneous_residuals,
    monotone_reduction,
    ordering_gap,
    residual_certificate,
    run,
    run_cascade,
    snapshot_sup,
    uniqueness_rescale,
)
from .geometry import MetricPath, VolumeForm, comps_trace
from .grid import ScalarField, gradient_sq, hessian_components, oscillation
from .io import _json_clean
from .psh import RoughPotential, capacity_lower_bound, energy

__all__ = [
    "MarginReport",
    "comparison_tolerance",
    "default_eps",
    "check_comparison",
    "check_apriori_bounds",
    "check_time_derivative",
    "check_gradient_laplacian",
    "check_energy_monotonicity",
    "check_stability",
    "check_uniqueness",
    "check_convergence_modes",
    "trajectory_series",
    "write_reports",
    "SERIES_QUANTITIES",
]


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


def write_reports(reports, directory, stem: str = "margins"):
    """Serialize reports to <stem>.json (one object each) and <stem>.csv."""
    import csv as _csv
    import json
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    jpath = directory / f"{stem}.json"
    cpath = directory / f"{stem}.csv"
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
# signed residuals (for sub/supersolution role verification)


def _signed_residual_extrema(audit: TrajectoryAudit) -> dict:
    """Range of phidot - RHS over stored snapshots with a recorded phidot.

    A snapshot outside the positive cone gives (-inf, inf) and its time.
    """
    lo, hi = math.inf, -math.inf
    for k, (t, pd) in enumerate(zip(audit.traj.times, audit.traj.phidots)):
        if pd is not None:
            r_lo, r_hi = audit.value(k, "phidot_range")
            if audit.row(k)["margin"] <= 0.0:
                return {"min": r_lo, "max": r_hi, "cone_violation_at": float(t)}
            lo, hi = min(lo, r_lo), max(hi, r_hi)
    return {"min": lo, "max": hi}


# ---------------------------------------------------------------------------
# comparison principle


def check_comparison(
    phi: FlowTrajectory,
    psi: FlowTrajectory,
    lam: float = 0.0,
    tol: float = None,
    path: MetricPath = None,
    F: DrivingTerm = None,
    omega_form: VolumeForm = None,
    roles: tuple = ("solution", "solution"),
    role_slack: float = 1e-8,
) -> MarginReport:
    """sup(phi_t - psi_t) against e^{lam T} max(sup(phi_0 - psi_0), 0).

    phi plays the sub-solution role and psi the super-solution role.  When
    path, F and omega_form are supplied the declared roles are re-verified
    from recomputed residual signs before any margin is claimed.
    """
    if phi.grid.n != psi.grid.n or phi.grid.resolution != psi.grid.resolution:
        raise ConfigError("mismatched discretizations: comparison needs one grid")
    worst, t_worst, j_worst = ordering_gap(psi, phi)
    if F is not None and F.defect is not None and lam < F.defect - 1e-12:
        raise ConfigError(
            f"lambda = {lam} is below the certified monotonicity defect {F.defect}"
        )
    grid = phi.grid
    backend = phi.config.backend if phi.config is not None else "spectral"
    osc = max(oscillation(phi.fields[0]), oscillation(psi.fields[0]))
    if tol is None:
        tol = comparison_tolerance(grid, backend, osc)

    details = {"roles": list(roles)}
    if path is not None and F is not None and omega_form is not None:
        for traj, role, side in ((phi, roles[0], "phi"), (psi, roles[1], "psi")):
            audit = TrajectoryAudit(traj, path, F, omega_form, columns=("phidot_range",))
            ext = _signed_residual_extrema(audit)
            details[f"residual_range_{side}"] = ext
            if role in ("sub", "subsolution") and ext["max"] > role_slack:
                raise ConfigError(
                    f"{side} declared a subsolution but its residual reaches {ext['max']:.3e}"
                )
            if role in ("super", "supersolution") and ext["min"] < -role_slack:
                raise ConfigError(
                    f"{side} declared a supersolution but its residual reaches {ext['min']:.3e}"
                )

    T = float(phi.times[-1])
    gap0 = float((phi.fields[0].values - psi.fields[0].values).max())
    bound = math.exp(lam * T) * max(gap0, 0.0) + tol
    margin = bound - worst
    return MarginReport(
        name="comparison",
        anchor="sup-difference-exponential",
        margin=margin,
        location=(t_worst,) + _point(grid, j_worst),
        constants={"lambda": lam, "tol": tol, "initial_gap": gap0, "sup_gap": worst},
        details=details,
    )


# ---------------------------------------------------------------------------
# a priori sup bounds


def check_apriori_bounds(audit: TrajectoryAudit, kcap: float = None) -> list:
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
    Passes iff K <= kcap, default 2n.  The audit supplies the trajectory,
    the driving term and the path certificate.
    """
    traj, F = audit.traj, audit.F
    grid = traj.grid
    n = grid.n
    reports = []

    monotone = F.defect is not None and F.defect == 0.0
    if not monotone:
        reports.append(
            MarginReport(
                name="apriori-upper",
                anchor="explicit-linear-upper",
                margin=0.0,
                constants={},
                details={
                    "applicable": False,
                    "reason": "explicit constant requires a monotone driving term",
                },
            )
        )
    else:
        delta = audit.certificate()
        coords = grid.coordinates()
        zeros = np.zeros(grid.shape)
        ts = np.unique(np.concatenate([traj.times, np.linspace(0.0, traj.times[-1], 33)]))
        inf_f = _sampled_min(lambda t, _: F(t, coords, zeros), ts, (0.0,))
        C = -inf_f + n * math.log(delta)
        M0 = max(float(traj.fields[0].values.max()), 0.0)
        snapshots = list(zip(traj.times, traj.fields))
        gap = lambda t, f: f.values - C * float(t) - M0
        excess, t_worst, j_worst = snapshot_sup((t, gap(t, f)) for t, f in snapshots)
        worst = -excess
        later = snapshot_sup((t, gap(t, f)) for t, f in snapshots if t > 0.0)[0]
        where = (t_worst,) + _point(grid, j_worst)
        reports.append(
            MarginReport(
                name="apriori-upper",
                anchor="explicit-linear-upper",
                margin=worst,
                location=where,
                constants={"C": C, "delta": delta, "M0": M0, "room_positive_t": -later},
                details={"applicable": True},
            )
        )

    if kcap is None:
        kcap = 2.0 * n
    base = traj.fields[0].values
    ts, c_raw, locs = [], [], []
    for k, t in enumerate(traj.times):
        if t <= 0.0 or float(t) >= 2.0:
            continue
        drop = base - traj.fields[k].values
        j = int(np.argmax(drop))
        ts.append(float(t))
        c_raw.append(max(0.0, float(drop.flat[j])))
        locs.append((float(t),) + _point(grid, j))
    if not ts:
        reports.append(
            MarginReport(
                name="apriori-lower",
                anchor="modulus-lower",
                margin=0.0,
                constants={"K": 0.0, "kcap": kcap},
                details={"note": "no positive times stored"},
            )
        )
        return reports
    order = np.argsort(ts)
    ts = np.asarray(ts)[order]
    c = np.maximum.accumulate(np.asarray(c_raw)[order])
    form = ts * np.log(1.0 / ts) + ts
    ratios = c / form
    kidx = int(np.argmax(ratios))
    K = float(ratios[kidx])
    reports.append(
        MarginReport(
            name="apriori-lower",
            anchor="modulus-lower",
            margin=kcap - K,
            location=locs[order[kidx]],
            constants={"K": K, "kcap": kcap},
            details={"times": ts, "c": c},
        )
    )
    return reports


# ---------------------------------------------------------------------------
# time-derivative envelopes


def check_time_derivative(
    traj: FlowTrajectory,
    eps: float,
    slope_floor: float = 0.9,
    bounded_variation: float = 2.0,
) -> list:
    """Two reports on phidot: upper envelope constant, lower log-slope fit.

    Upper: the smallest C_up with t phidot_t(z) <= -phi_eps(z) + C_up over
    t in [eps, T].  Existence check: margin 0, constant reported.

    Lower: least-squares fit of min_z phidot_t against log t.  Passes iff
    the fitted slope >= slope_floor * n, or the series has total variation
    <= bounded_variation (a bounded derivative satisfies a log-divergent
    lower bound trivially; the slope fit is meaningless noise there).
    """
    if len(traj.times) < 2:
        raise ConfigError("time-derivative checks need at least two snapshots")
    first_pos = float(traj.times[1]) if traj.times[0] == 0.0 else float(traj.times[0])
    if eps < first_pos * (1.0 - 1e-12):
        raise ConfigError(f"eps = {eps} is below the first schedule time {first_pos}")
    try:
        k_eps = traj.index_of(eps)
    except KeyError:
        raise MissingSnapshotsError(
            f"no stored snapshot at t = {eps} for the upper envelope",
            pairs=[(float(eps), float(eps))],
        ) from None
    grid = traj.grid
    phi_eps = traj.fields[k_eps].values

    c_up, t_up, j_up = snapshot_sup(
        (t, float(t) * pd.values + phi_eps)
        for t, pd in zip(traj.times, traj.phidots)
        if float(t) >= eps * (1.0 - 1e-12) and pd is not None
    )
    where = None if t_up is None else (t_up,) + _point(grid, j_up)
    upper = MarginReport(
        name="derivative-upper",
        anchor="derivative-envelope-upper",
        margin=_exists(c_up),
        location=where,
        constants={"C_up": c_up, "eps": float(eps)},
    )

    ts, ys = [], []
    for k, t in enumerate(traj.times):
        if float(t) <= 0.0 or traj.phidots[k] is None:
            continue
        ts.append(float(t))
        ys.append(float(traj.phidots[k].values.min()))
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


def check_gradient_laplacian(audit: TrajectoryAudit, pair_tol: float = 1e-9) -> list:
    """Two reports: exponential gradient constant, trace-oscillation fit.

    Gradient: the smallest C_g >= 0 with sup_z |grad phi_t|^2 <= e^{C_g/t}
    over positive stored times, i.e. C_g = max(0, max t log sup beta_t).

    Laplacian: over stored pairs (t/2, t), fits (A, C) in
    t log tr(omega_t) <= 2 A Osc(phi_{t/2}) + C by least squares on the
    slope and a zero-slack intercept.  Needs at least two such pairs;
    raises MissingSnapshotsError listing the missing (t/2, t) pairs
    otherwise.  omega_t is read from the audit's sup-trace column.
    """
    traj = audit.traj
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
        except KeyError:
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


def check_energy_monotonicity(audit: TrajectoryAudit, slack: float = 1e-8) -> MarginReport:
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


def check_stability(
    phi0: ScalarField,
    psi0: ScalarField,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    homotopy_samples: int = 5,
    eps: float = None,
) -> MarginReport:
    """Sup-norm contraction between two flows plus the homotopy-family audit.

    Runs the flows from phi0, psi0 and from the straight-line family between
    them.  Contraction: |phi_t - psi_t|_sup <= |phi_0 - psi_0|_sup + tol at
    every snapshot.  Homotopy: the finite-difference-in-lambda derivative's
    sup norm is non-increasing in t.  Also reports the second-order
    difference quotient at t = eps as an empirical C(2, eps); that part is a
    diagnostic, not a gate.
    """
    if F.defect is None or F.defect > 0.0:
        raise ConfigError(
            "stability needs a monotone driving term (defect 0); apply the reduction first"
        )
    grid = phi0.grid
    tol = comparison_tolerance(grid, cfg.backend, max(oscillation(phi0), oscillation(psi0)))
    d0 = float(np.abs(phi0.values - psi0.values).max())

    m = max(int(homotopy_samples), 2)
    lams = np.linspace(0.0, 1.0, m)
    runs = []
    for lam in lams:
        start = ScalarField(grid, (1.0 - lam) * phi0.values + lam * psi0.values)
        runs.append(run(start, path, F, omega_form, cfg))
    phi_run, psi_run = runs[0], runs[-1]

    d_max, t_c, j_c = snapshot_sup(
        (t, np.abs(f.values - g.values))
        for t, f, g in zip(phi_run.times, phi_run.fields, psi_run.fields)
    )
    margin_c = d0 + tol - d_max
    where = (t_c,) + _point(grid, j_c)
    ratio = d_max / d0 if d0 > 0.0 else 0.0

    dlam = 1.0 / (m - 1)
    tol_h = tol / dlam
    margin_h = math.inf
    for i in range(m - 1):
        prev = None
        for k in range(len(phi_run.times)):
            d = float(
                np.abs(runs[i + 1].fields[k].values - runs[i].fields[k].values).max()
            ) / dlam
            if prev is not None:
                margin_h = min(margin_h, prev - d + tol_h)
            prev = d

    if eps is None:
        eps = default_eps(phi_run, cfg.t_min)
    ke = phi_run.index_of(eps)

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
        details={"d0": d0, "homotopy_samples": m, "contraction_margin": margin_c,
                 "homotopy_margin": margin_h},
    )


# ---------------------------------------------------------------------------
# uniqueness via two regularization schedules


def check_uniqueness(
    phi0: RoughPotential,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    schedules: tuple = None,
    rate: float = None,
) -> MarginReport:
    """Limits of two regularization cascades must agree within their gaps.

    Preconditions are a genuine certificate: the driving term must declare
    monotonicity defect 0, a finite time-derivative bound, and smoothness,
    and the exponential rescale certificate must exist for some admissible
    rate.  A term failing any of these gets a refusal report (margin -inf,
    details.certified False) rather than a margin; refusing is the correct
    answer for terms admitting several solutions.  Only a term that passes
    these preconditions needs the two regularization schedules.
    """
    reasons = []
    if F.defect is None:
        reasons.append("no monotonicity certificate declared")
    elif F.defect > 0.0:
        reasons.append(f"monotonicity defect {F.defect} > 0; reduce first")
    if F.time_bound is None:
        reasons.append("time-derivative bound undeclared")
    if not F.smooth:
        reasons.append("driving term not declared smooth in s")
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
    sample = phi0.sample(grid).values
    s_range = (float(sample.min()) - 1.0, float(sample.max()) + 1.0)
    transformed = uniqueness_rescale(F, path, rate, s_range=s_range)

    casc_a = run_cascade(phi0, schedules[0], path, F, omega_form, cfg)
    casc_b = run_cascade(phi0, schedules[1], path, F, omega_form, cfg)
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


def check_convergence_modes(
    cascade,
    phi0: RoughPotential,
    path: MetricPath = None,
    omega_form: VolumeForm = None,
    time_ladder=None,
    eps_cap: float = None,
    l1_tol: float = None,
    seed: int = 7,
    audit: TrajectoryAudit = None,
) -> list:
    """Distance-to-initial-data ladders, one report per applicable mode.

    The reference is the clamped grid sample of phi0 retained by the
    cascade.  Modes: L1 for every tag; sup for smooth and lipschitz tags;
    capacity of the deviation set (plus the mollification-ladder capacity
    route) for the bounded tag; energy distance whenever the representative
    admits it.  Each ladder must be decreasing over its tail (the later,
    smaller times), and the L1 mode must also land below l1_tol, default
    1e-2 times the oscillation.  The energy ladder reads audit, an audit of
    the finest level (built here when not given).
    """
    traj = cascade.trajectories[-1]
    grid = traj.grid
    base = cascade.ladder.base
    tag = phi0.tag

    if time_ladder is None:
        time_ladder = sorted((float(k) for k in cascade.limit_gaps), reverse=True)
        time_ladder = [t for t in time_ladder if t > 0.0]
    if len(time_ladder) < 3:
        raise ConfigError("convergence modes need a ladder of at least 3 probe times")
    fields = []
    missing = []
    for t in time_ladder:
        try:
            fields.append(traj.field_at(t))
        except KeyError:
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
    """Recomputed backward-Euler residuals stay within twice the Newton gate."""
    cert = residual_certificate(audit)
    margin = 2.0 * cert["tol"] - cert["max_residual"]
    return MarginReport(
        name="residual-certificate",
        anchor="recomputed-step-residuals",
        margin=margin,
        constants={"max_residual": cert["max_residual"], "pairs": cert["pairs"]},
    )


def check_transform_roundtrip(
    phi0: ScalarField,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    reduction_rate: float = None,
    rescale_rate: float = None,
) -> list:
    """Run each exponential transform, pull back, and measure the residual.

    The pulled-back trajectory must satisfy the original equation: its
    instantaneous residual (phidot against the recomputed right-hand side)
    stays within 10x the Newton tolerance.  Produces one report per
    applicable transform: the monotone reduction when the term has a
    positive defect, the uniqueness rescale when a time bound is declared.
    """
    vals = phi0.values
    s_range = (float(vals.min()) - 1.0, float(vals.max()) + 1.0)
    budget = 10.0 * cfg.newton_tol
    reports = []
    jobs = []
    if F.defect is not None and F.defect > 0.0:
        jobs.append(("reduction", monotone_reduction(F, path, B=reduction_rate, s_range=s_range)))
    if F.time_bound is not None and rescale_rate is not None:
        jobs.append(("rescale", uniqueness_rescale(F, path, rescale_rate, s_range=s_range)))
    if not jobs:
        raise ConfigError(
            "no transform applies: need a positive defect or a rescale rate with a declared time bound"
        )
    for label, tp in jobs:
        tcfg = replace(
            cfg, horizon=tp.horizon, t_min=min(cfg.t_min, 0.5 * tp.horizon), probes=()
        )
        tilde = run(phi0, tp.path, tp.driving, omega_form, tcfg)
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


def trajectory_series(
    traj: FlowTrajectory,
    quantity: str,
    path: MetricPath = None,
    omega_form: VolumeForm = None,
) -> list:
    """(t, value) pairs of a named scalar diagnostic along the trajectory."""
    if quantity not in SERIES_QUANTITIES:
        raise ConfigError(
            f"unknown series quantity {quantity!r}; choose from {', '.join(SERIES_QUANTITIES)}"
        )
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
