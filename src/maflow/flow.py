"""Implicit time integration of the logarithmic Monge-Ampere flow.

The evolution solved here is

    d phi / dt = log det(theta_t + H(phi)) - log Omega - F(t, z, phi)

on the flat torus, with theta_t a MetricPath, Omega a VolumeForm and F a
DrivingTerm.  Time stepping is backward Euler on a geometric schedule
(anchored at t = 0, with requested probe times inserted exactly), and each
implicit step is solved by a damped inexact Newton iteration whose linear
systems go through right-preconditioned BiCGSTAB.  The preconditioner is a
solve of a shifted -(1/4) Laplacian (grid.solve_shifted_laplacian: real
FFTs at n = 1, per-axis matrices at n = 2) with a pointwise scaling built from
the harmonic mean of w's eigenvalues (w = theta + dd^c phi), matched to the
Jacobian at the stiffness of the current Newton residual, so it keeps up
where w nears the edge of the positive cone.

The right-hand side is written once (`_rhs`), for the Newton residual and
the stored phidot.  Checks read stored snapshots through `TrajectoryAudit`,
which builds each snapshot's form theta_t + dd^c phi_k at most once, keeps
only scalars, and reports a snapshot outside the positive cone instead of
taking the logarithm there.

Rough initial data never enter `run` directly: they are regularized by the
decreasing mollification ladder and integrated level by level (`run_cascade`),
with the pointwise ordering of levels checked at every snapshot.  That check,
the eps-shift family's (`run_nef`, members and the unshifted witness) and
verify's comparison principle share one test, `ordering_gap`, a case of
`snapshot_sup` (the sup over snapshots with its time and grid point).  The
exponential time changes phi~(t) = e^{rt} phi(tau(t)) are invertible problem
transforms built by `_time_change`; `monotone_reduction` (r < 0, restores
d F / d s >= 0) and `uniqueness_rescale` (r > 0, for the uniqueness
argument) add their preconditions and sampled certificates, each sample
grid's floor taken by `_sampled_min`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    CertificateError,
    ConeExitError,
    ConfigError,
    HorizonTooLongError,
    MonotonicityError,
    NewtonDivergedError,
    NotKahlerError,
    NumericError,
)
from . import geometry, psh
from .geometry import (
    MetricPath,
    VolumeForm,
    comps_det,
    comps_harmonic_mean,
    comps_trace,
    comps_trace_inv,
    cone_margin,
    kahler_form,
    lowest_eigenvalue,
)
from .grid import (
    ScalarField,
    TorusGrid,
    hessian_components,
    oscillation,
    quarter_laplacian_rayleigh,
    solve_shifted_laplacian,
)
from .psh import (
    PSH_TOL,
    MollificationLadder,
    RegularizationSchedule,
    RoughPotential,
    mollify_decreasing,
)

CASCADE_TOL_FACTOR = 1e-7
# Constant-data scenarios have zero oscillation, but Newton still leaves
# residuals of order newton_tol per step; the absolute floor keeps the
# monotonicity tolerance meaningful there.
CASCADE_TOL_STEPS = 50.0


# ---------------------------------------------------------------------------
# driving terms


def _sampled_min(fn, ts, ss) -> float:
    """The smallest value of fn(t, s) (an array or a scalar) over the grid ts x ss."""
    lo = math.inf
    for t in ts:
        for s in ss:
            lo = min(lo, float(np.min(fn(float(t), float(s)))))
    return lo


@dataclass(frozen=True)
class DrivingTerm:
    """The source term F(t, z, s) with its declared bounds.

    fn(t, coords, s) evaluates F; coords is the tuple of coordinate arrays of
    the grid, s the potential values (array or scalar).  ds and dt_partial
    are the partials in s and t when available in closed form; missing
    partials fall back to centered differences.

    defect is a certified C >= 0 with dF/ds >= -C (None means no certificate
    exists, as for the branch-point term below).  time_bound is C' with
    |dF/dt| <= C' (None: undeclared).  smooth is False for terms that are
    not Lipschitz in s.
    """

    name: str
    fn: object = field(repr=False)
    ds: object = field(default=None, repr=False)
    dt_partial: object = field(default=None, repr=False)
    defect: float | None = 0.0
    time_bound: float | None = 0.0
    smooth: bool = True
    params: dict = field(default_factory=dict)

    def __call__(self, t, coords, s):
        return self.fn(t, coords, s)

    def ds_at(self, t, coords, s):
        if self.ds is not None:
            return self.ds(t, coords, s)
        h = 1e-6 * max(1.0, float(np.max(np.abs(s))) if np.ndim(s) else abs(s))
        return (self.fn(t, coords, s + h) - self.fn(t, coords, s - h)) / (2.0 * h)

    def dt_at(self, t, coords, s):
        if self.dt_partial is not None:
            return self.dt_partial(t, coords, s)
        h = 1e-6 * max(1.0, abs(t))
        return (self.fn(t + h, coords, s) - self.fn(t - h, coords, s)) / (2.0 * h)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "DrivingTerm":
        return cls(
            "zero",
            lambda t, c, s: np.float64(0.0),
            ds=lambda t, c, s: np.float64(0.0),
            dt_partial=lambda t, c, s: np.float64(0.0),
        )

    @classmethod
    def affine(cls, constant: float = 0.0, slope: float = 0.0) -> "DrivingTerm":
        """F(t, z, s) = constant + slope * s."""
        c0, c1 = float(constant), float(slope)
        return cls(
            "affine",
            lambda t, c, s: c0 + c1 * s,
            ds=lambda t, c, s: np.float64(c1),
            dt_partial=lambda t, c, s: np.float64(0.0),
            defect=max(0.0, -c1),
            params={"constant": c0, "slope": c1},
        )

    @classmethod
    def spatial(cls, fn) -> "DrivingTerm":
        """s-independent F(z), the twisted-flow form."""
        return cls(
            "spatial",
            lambda t, c, s: fn(*c),
            ds=lambda t, c, s: np.float64(0.0),
            dt_partial=lambda t, c, s: np.float64(0.0),
        )

    @classmethod
    def counterexample(cls) -> "DrivingTerm":
        """F(s) = -2 sign(s) sqrt|s|: not Lipschitz at s = 0, dF/ds < 0.

        Both phi = 0 and phi = t^2 solve the flow with this term from zero
        initial data; no uniqueness certificate is ever issued for it.
        """

        def fn(t, c, s):
            return -2.0 * np.sign(s) * np.sqrt(np.abs(s))

        def ds(t, c, s):
            return -1.0 / np.sqrt(np.maximum(np.abs(s), 1e-30))

        return cls(
            "counterexample",
            fn,
            ds=ds,
            defect=None,
            time_bound=0.0,
            smooth=False,
        )

    # -- declared-bound audit --------------------------------------------------

    def verify_declared_bounds(self, grid: TorusGrid, t_range, s_range) -> dict:
        """Sample dF/ds and dF/dt over the run's range and audit the bounds.

        The samples form a 9 x 17 grid over t_range x s_range.  A declared
        defect or time bound that they violate by more than 1e-7 aborts the
        configuration; undeclared bounds (None) are reported but not checked.
        """
        tol = 1e-7
        coords = grid.coordinates()
        ts = np.linspace(t_range[0], t_range[1], 9)
        ss = np.linspace(s_range[0], s_range[1], 17)
        ds_min = _sampled_min(lambda t, s: self.ds_at(t, coords, s), ts, ss)
        dt_max = -_sampled_min(lambda t, s: -np.abs(self.dt_at(t, coords, s)), ts, ss)
        report = {
            "ds_min": ds_min,
            "dt_max": dt_max,
            "defect": self.defect,
            "time_bound": self.time_bound,
            "checked": True,
        }
        if self.defect is not None and ds_min < -self.defect - tol:
            raise ConfigError(
                f"driving term {self.name!r} violates its declared defect: "
                f"sampled dF/ds = {ds_min:.3e} < {-self.defect:.3e}"
            )
        if self.time_bound is not None and dt_max > self.time_bound + tol:
            raise ConfigError(
                f"driving term {self.name!r} violates its declared time bound: "
                f"sampled |dF/dt| = {dt_max:.3e} > {self.time_bound:.3e}"
            )
        return report


# ---------------------------------------------------------------------------
# schedules and configuration


@dataclass(frozen=True)
class FlowConfig:
    """Time-stepping policy.

    The schedule is t_k = t_min * ratio^k capped at dt_max per step, anchored
    with an initial step from t = 0 to t_min, ending exactly at the horizon.
    Probe times are inserted exactly (snapshots at probes are never
    interpolated).  store_every thins stored snapshots (probes, t = 0 and the
    horizon are always kept); per-step diagnostics are always complete.
    """

    horizon: float
    t_min: float = 1e-4
    ratio: float = 1.05
    dt_max: float | None = None
    newton_tol: float = 1e-10
    max_newton: int = 30
    backend: str = "spectral"
    probes: tuple = ()
    store_every: int = 1
    linear_rel_tol: float = 1e-2
    max_linear: int = 200
    min_damping: float = 2.0**-20

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not 0 < self.t_min <= self.horizon:
            raise ConfigError("t_min must lie in (0, horizon]")
        if not 1.0 < self.ratio <= 2.0:
            raise ConfigError(f"schedule ratio must be in (1, 2], got {self.ratio}")
        if self.dt_max is not None and self.dt_max <= 0:
            raise ConfigError("dt_max must be positive when set")
        if self.newton_tol <= 0 or self.max_newton < 1:
            raise ConfigError("invalid Newton settings")
        if self.backend not in ("spectral", "fd"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.store_every < 1:
            raise ConfigError("store_every must be >= 1")
        object.__setattr__(self, "probes", tuple(float(p) for p in self.probes))
        for p in self.probes:
            if not 0.0 < p <= self.horizon * (1 + 1e-12):
                raise ConfigError(f"probe time {p} outside (0, horizon]")

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["probes"] = list(self.probes)
        return d


def schedule_times(cfg: FlowConfig) -> np.ndarray:
    """The geometric schedule with the t = 0 anchor and exact probe times."""
    T = cfg.horizon
    times = [0.0]
    t = cfg.t_min
    while t < T * (1.0 - 1e-12):
        times.append(t)
        dt = t * (cfg.ratio - 1.0)
        if cfg.dt_max is not None:
            dt = min(dt, cfg.dt_max)
        t = t + dt
    times.append(T)
    coll = 1e-12 * max(1.0, T)
    for p in sorted(set(cfg.probes)):
        times = [s for s in times if abs(s - p) > coll]
        times.append(min(p, T))
    out = np.array(sorted(times))
    if np.any(np.diff(out) <= 0):
        out = np.unique(out)
    return out


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class FlowTrajectory:
    """Stored snapshots (t_k, phi_k, phidot_k) plus per-step diagnostics.

    phidot is the PDE right-hand side evaluated at the accepted state, never
    a finite difference in time.  diagnostics has one entry per schedule step
    regardless of snapshot thinning.
    """

    grid: TorusGrid
    times: np.ndarray
    fields: list
    phidots: list
    schedule: np.ndarray
    stored_indices: np.ndarray
    diagnostics: list
    config: object
    meta: dict = field(default_factory=dict)
    notices: list = field(default_factory=list)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        hits = np.nonzero(np.abs(self.times - t) <= tol * max(1.0, abs(t)))[0]
        if hits.size == 0:
            raise KeyError(f"no stored snapshot at t = {t}")
        return int(hits[0])

    def field_at(self, t: float) -> ScalarField:
        return self.fields[self.index_of(t)]

    def final(self) -> ScalarField:
        return self.fields[-1]


def trajectory_from_family(grid, times, value_fn, phidot_fn=None, meta=None) -> FlowTrajectory:
    """Wrap an analytic family t -> phi_t as a trajectory (for residual audits)."""
    ts = np.asarray([float(t) for t in times])
    fields = [value_fn(t) for t in ts]
    phidots = [phidot_fn(t) if phidot_fn is not None else None for t in ts]
    return FlowTrajectory(
        grid=grid,
        times=ts,
        fields=fields,
        phidots=phidots,
        schedule=ts,
        stored_indices=np.arange(len(ts)),
        diagnostics=[],
        config=None,
        meta=dict(meta or {"source": "analytic-family"}),
    )


# ---------------------------------------------------------------------------
# the implicit step


def _l2(a: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(a, a).real))


def _bicgstab(apply_op, precond, b: np.ndarray, rel_tol: float, max_iter: int):
    """Right-preconditioned BiCGSTAB on a matrix-free operator.

    Solves apply_op(x) = b through apply_op(precond(y)) = b, x = precond(y),
    updating x with the preconditioned directions so no solve is left at the
    end.  The recurrence residual is that of the unpreconditioned system, so
    the stopping test bounds |b - apply_op(x)| / |b|.  Returns
    (x, iterations, relative residual, converged).  A solve cut short
    returns the computed iterate with the smallest recurrence residual, not
    the last one.  Vectors are rebound, never updated in place, so b is
    neither copied nor modified and the best iterate is kept by reference.
    """
    bnorm = _l2(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    r = rhat = b
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    target = rel_tol * bnorm
    best, best_res = x, math.inf
    it = 0
    for it in range(1, max_iter + 1):
        rho_new = float(np.vdot(rhat, r).real)
        if abs(rho_new) < 1e-300:
            rhat = r
            rho_new = float(np.vdot(rhat, r).real)
            if abs(rho_new) < 1e-300:
                break
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        z = precond(p)
        v = apply_op(z)
        denom = float(np.vdot(rhat, v).real)
        if abs(denom) < 1e-300:
            break
        alpha = rho_new / denom
        x = x + alpha * z
        r = r - alpha * v
        res = _l2(r)
        if res <= target:
            return x, it, res / bnorm, True
        if res < best_res:
            best, best_res = x, res
        z = precond(r)
        t = apply_op(z)
        tt = float(np.vdot(t, t).real)
        if tt == 0.0:
            break
        omega = float(np.vdot(t, r).real) / tt
        x = x + omega * z
        r = r - omega * t
        res = _l2(r)
        if res <= target:
            return x, it, res / bnorm, True
        if res < best_res:
            best, best_res = x, res
        rho = rho_new
    if _l2(best) == 0.0:
        raise NumericError("linear solver stalled with a null direction")
    return best, it, best_res / bnorm, False


def _rhs(total, u, t, F, log_om, coords):
    """The flow's right-hand side log det(total) - log Omega - F(t, z, u).

    total is theta_t + H(u) as components; it must lie inside the cone.
    """
    return np.log(comps_det(total)) - log_om - F(t, coords, u)


def _cone_exit(message, total, grid):
    """ConeExitError at the grid point where the form total has its lowest eigenvalue."""
    worst, loc = lowest_eigenvalue(total, grid.shape)
    return ConeExitError(
        f"{message}: min eigenvalue {worst:.3e} at {loc}", location=loc, eigenvalue=worst
    )


def _jacobian(total, fs, dt, grid, backend):
    """The Newton operator v -> v/dt + F_s v - tr(w^-1 H(v)), w = total."""
    inv_dt = 1.0 / dt

    def apply(v):
        hv = hessian_components(v, grid, backend)
        return inv_dt * v - comps_trace_inv(total, hv) + fs * v

    return apply


def _preconditioner(total, R, fs, dt, grid, backend):
    """Right preconditioner matched to the Jacobian at the stiffness of R.

    With s = n / tr(w^-1) (the harmonic mean of w's eigenvalues), c the grid
    harmonic mean of s, l_R the Rayleigh quotient of R against -(1/4)
    Laplacian and kappa = dt l_R, the preconditioner is

        M^-1 r = (c (1/dt + max(0, mean F_s)) - (1/4) Laplacian)^-1 (D r),
        D = s (c + kappa) / (s + kappa).

    Frozen coefficients give J M^-1 = 1 at l = l_R at every point (F_s = 0).
    Where kappa << s, D -> c and M is the constant-coefficient operator
    1/dt - Laplacian/(4c) (1/dt - Laplacian/4 when w = I); where kappa >> s,
    D -> s and M follows the pointwise degeneracy of w at the cone's edge.
    """
    s = comps_harmonic_mean(total)
    c = 1.0 / float(np.mean(1.0 / s))
    kappa = dt * quarter_laplacian_rayleigh(R, grid, backend)
    scale = s * ((c + kappa) / (s + kappa))
    shift = c * (1.0 / dt + max(0.0, float(np.mean(fs))))
    return lambda r: solve_shifted_laplacian(scale * r, grid, backend, shift)


def _advance(prev_vals, t_from, t_to, path, F, omega_form, cfg, coords, warm=None):
    """One backward-Euler step; returns (values, phidot_values, diagnostics).

    warm, when given, is a one-element list holding
    hessian_components(prev_vals).  The step takes it out and puts back the
    Hessian of the returned values for the next step's warm start, so the
    caller holds no stale Hessian while Newton runs.
    """
    grid = path.grid
    dt = t_to - t_from
    if dt <= 0:
        raise ConfigError("time step must move forward")
    theta = path.theta(t_to)
    log_om = omega_form.log()
    u = prev_vals
    total, comps = kahler_form(theta, u, grid, cfg.backend, hessian=warm.pop() if warm else None)
    margin = cone_margin(total)
    if margin <= 0.0:
        raise _cone_exit(f"warm start leaves the positivity cone at t = {t_to:.6g}", total, grid)
    residual = math.inf
    damping_min = 1.0
    linear_total = 0
    linear_worst = 0.0
    linear_converged = True
    iters = 0
    while True:
        rhs = _rhs(total, u, t_to, F, log_om, coords)
        R = np.broadcast_to((u - prev_vals) / dt - rhs, grid.shape)
        residual = float(np.max(np.abs(R)))
        if residual <= cfg.newton_tol:
            break
        if iters >= cfg.max_newton:
            cause = "" if linear_converged else (
                f"; a linear solve did not converge (relative residual {linear_worst:.3e}"
                f" > {cfg.linear_rel_tol:g})"
            )
            raise NewtonDivergedError(
                f"Newton stalled at residual {residual:.3e} after {iters} iterations{cause}",
                residual=residual,
                iterations=iters,
                linear_converged=linear_converged,
            )
        fs = np.asarray(F.ds_at(t_to, coords, u), dtype=np.float64)
        # J correction = R; the Newton direction is -correction
        correction, lin_iters, lin_res, lin_ok = _bicgstab(
            _jacobian(total, fs, dt, grid, cfg.backend),
            _preconditioner(total, R, fs, dt, grid, cfg.backend),
            R,
            cfg.linear_rel_tol,
            cfg.max_linear,
        )
        linear_total += lin_iters
        linear_worst = max(linear_worst, lin_res)
        linear_converged = linear_converged and lin_ok
        lam = 1.0
        while True:
            trial = u - lam * correction
            t_total, t_comps = kahler_form(theta, trial, grid, cfg.backend)
            t_margin = cone_margin(t_total)
            if t_margin > 0.0:
                break
            lam *= 0.5
            if lam < cfg.min_damping:
                raise _cone_exit(
                    f"no damping factor >= {cfg.min_damping:.3g} keeps the step inside "
                    f"the cone at t = {t_to:.6g}",
                    t_total,
                    grid,
                )
        damping_min = min(damping_min, lam)
        u, comps, total, margin = trial, t_comps, t_total, t_margin
        iters += 1
    phidot = np.ascontiguousarray(np.broadcast_to(rhs, grid.shape))
    diag = {
        "t": float(t_to),
        "dt": float(dt),
        "newton_iters": iters,
        "residual": residual,
        "positivity_margin": margin,
        "damping": damping_min,
        "linear_iters": linear_total,
        "linear_rel_residual": linear_worst,
        "linear_converged": linear_converged,
    }
    if warm is not None:
        warm.append(comps)
    return np.ascontiguousarray(u), phidot, diag


def step(
    phi: ScalarField,
    t_from: float,
    t_to: float,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
) -> ScalarField:
    """Single backward-Euler step of the flow (warm start inside the cone)."""
    coords = phi.grid.coordinates()
    vals, _, _ = _advance(phi.values, t_from, t_to, path, F, omega_form, cfg, coords)
    return ScalarField(phi.grid, vals)


# ---------------------------------------------------------------------------
# full runs


def run(
    phi0: ScalarField,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    check_bounds: bool = True,
) -> FlowTrajectory:
    """Integrate the flow from smooth (or at worst Lipschitz) initial data.

    Initial data must be admissible for theta(0) up to the psh tolerance at
    the configured backend; rough singular data go through run_cascade.
    """
    grid = phi0.grid
    if path.grid is not grid and path.grid != grid:
        raise ConfigError("initial data and metric path live on different grids")
    if cfg.horizon > path.horizon * (1 + 1e-12):
        raise ConfigError("flow horizon exceeds the metric path horizon")
    notices = []
    # warm = [H(phi0)], the first step's warm start
    total0, *warm = kahler_form(path.theta(0.0), phi0.values, grid, cfg.backend)
    margin0 = cone_margin(total0)
    if margin0 < -PSH_TOL:
        raise _cone_exit("initial data inadmissible for theta(0)", total0, grid)
    coords = grid.coordinates()
    if check_bounds:
        lo = float(phi0.values.min())
        hi = float(phi0.values.max())
        pad = 1.0 + 0.5 * (hi - lo)
        F.verify_declared_bounds(grid, (0.0, cfg.horizon), (lo - pad, hi + pad))

    times = schedule_times(cfg)
    if margin0 > 0.0:
        rhs0 = _rhs(total0, phi0.values, 0.0, F, omega_form.log(), coords)
        phidot0 = ScalarField(grid, np.broadcast_to(rhs0, grid.shape))
    else:
        phidot0 = None
        notices.append("right-hand side undefined at t = 0 (cone boundary); phidot omitted there")
    del total0

    keep = np.zeros(len(times), dtype=bool)
    keep[0] = keep[-1] = True
    keep[:: cfg.store_every] = True
    for p in cfg.probes:
        keep[int(np.argmin(np.abs(times - p)))] = True

    stored_times = [0.0]
    fields = [phi0]
    phidots = [phidot0]
    stored_indices = [0]
    diagnostics = []
    vals = phi0.values
    for k in range(1, len(times)):
        vals, phidot_vals, diag = _advance(
            vals, times[k - 1], times[k], path, F, omega_form, cfg, coords, warm
        )
        diagnostics.append(diag)
        if keep[k]:
            stored_times.append(float(times[k]))
            fields.append(ScalarField(grid, vals))
            phidots.append(ScalarField(grid, phidot_vals))
            stored_indices.append(k)
    return FlowTrajectory(
        grid=grid,
        times=np.asarray(stored_times),
        fields=fields,
        phidots=phidots,
        schedule=times,
        stored_indices=np.asarray(stored_indices),
        diagnostics=diagnostics,
        config=cfg,
        meta={
            "driving": F.name,
            "path_kind": path.kind,
            "backend": cfg.backend,
            "initial_margin": margin0,
        },
        notices=notices,
    )


class TrajectoryAudit:
    """Scalars of each stored snapshot's form theta_t + H(phi_k), for the checks.

    The first read of snapshot k builds its form (one Hessian) and keeps only
    the cone margin and the requested columns: "sup-trace" (sup of the
    trace), "energy" (None past psh.energy's cone tolerance; reading it then
    raises NotKahlerError), "phidot_range" ((min, max) of phidot - RHS, None
    without a phidot) and "step_residual" (sup of the backward-Euler residual
    from snapshot k - 1, None unless the two are consecutive schedule points).
    Outside the positive cone both residual columns are infinite.  At most
    one form is alive at a time; certificate() is the metric path's
    volume-sandwich delta (geometry.certify_metric_path), computed once.
    """

    COLUMNS = ("sup-trace", "energy", "phidot_range", "step_residual")

    def __init__(self, traj: FlowTrajectory, path, F=None, omega_form=None, columns=COLUMNS):
        self.columns = frozenset(columns)
        if {"phidot_range", "step_residual"} & self.columns and (F is None or omega_form is None):
            raise ConfigError("residual columns need the driving term and the volume form")
        self.traj, self.path, self.F, self.omega_form = traj, path, F, omega_form
        self.backend = traj.config.backend if traj.config is not None else "spectral"
        self._rows = {}
        self._certificate = None

    def row(self, k: int) -> dict:
        """{"margin": cone margin, column: value, ...} of stored snapshot k."""
        if k not in self._rows:
            self._rows[k] = self._build(k)
        return self._rows[k]

    def _build(self, k: int) -> dict:
        traj, grid, cols = self.traj, self.traj.grid, self.columns
        t, fld, pd = float(traj.times[k]), traj.fields[k], traj.phidots[k]
        theta = self.path.theta(t)
        total = kahler_form(theta, fld.values, grid, self.backend)[0]
        row = {"margin": cone_margin(total)}
        if "sup-trace" in cols:
            row["sup-trace"] = float(np.max(comps_trace(total)))
        if "energy" in cols:
            try:
                row["energy"] = psh.energy(theta, fld, self.backend, form=total)
            except NotKahlerError:
                row["energy"] = None
        rhs = None
        if row["margin"] > 0.0 and {"phidot_range", "step_residual"} & cols:
            rhs = _rhs(total, fld.values, t, self.F, self.omega_form.log(), grid.coordinates())
        del total
        if "phidot_range" in cols:
            row["phidot_range"] = None
            if pd is not None and rhs is None:
                row["phidot_range"] = (-math.inf, math.inf)
            elif pd is not None:
                r = pd.values - rhs
                row["phidot_range"] = (float(r.min()), float(r.max()))
        if "step_residual" in cols:
            row["step_residual"] = None
            consecutive = k > 0 and traj.stored_indices[k] - traj.stored_indices[k - 1] == 1
            if consecutive and rhs is None:
                row["step_residual"] = math.inf
            elif consecutive:
                dt = traj.times[k] - traj.times[k - 1]
                R = (fld.values - traj.fields[k - 1].values) / dt - rhs
                row["step_residual"] = float(np.max(np.abs(R)))
        return row

    def value(self, k: int, column: str):
        """Column value at snapshot k; an energy past the cone raises NotKahlerError."""
        if column not in self.columns:
            raise ConfigError(f"audit was built without the {column!r} column")
        v = self.row(k)[column]
        if v is None and column == "energy":
            margin = self.row(k)["margin"]
            raise NotKahlerError(f"theta + H(phi) leaves the cone (min eig {margin:.3e})")
        return v

    def certificate(self) -> float:
        """The metric path's volume-sandwich delta, computed on first use."""
        if self._certificate is None:
            self._certificate = geometry.certify_metric_path(self.path, self.omega_form)
        return self._certificate


def residual_certificate(audit: TrajectoryAudit) -> dict:
    """Recompute backward-Euler residuals from stored snapshots alone.

    Covers every stored pair of consecutive schedule points; the recomputed
    residual must agree with the Newton acceptance (<= 2x its tolerance).  A
    snapshot outside the cone has residual inf.
    """
    steps = [audit.value(k, "step_residual") for k in range(1, len(audit.traj.times))]
    steps = [r for r in steps if r is not None]
    worst = max([0.0, *steps])
    cfg = audit.traj.config
    tol = cfg.newton_tol if cfg is not None else 1e-10
    return {"max_residual": worst, "pairs": len(steps), "tol": tol, "passes": worst <= 2.0 * tol}


def instantaneous_residuals(traj: FlowTrajectory, path, F, omega_form) -> dict:
    """sup |phidot - RHS| per snapshot, recomputed from the fields alone.

    Meaningful for analytic families and transformed/pulled-back
    trajectories, where phidot is supplied rather than defined as the RHS.
    A snapshot outside the cone has residual inf.
    """
    audit = TrajectoryAudit(traj, path, F, omega_form, columns=("phidot_range",))
    out = [
        math.nan if pd is None else max(map(abs, audit.value(k, "phidot_range")))
        for k, pd in enumerate(traj.phidots)
    ]
    finite = [v for v in out if not math.isnan(v)]
    return {
        "per_snapshot": out,
        "max_residual": max(finite) if finite else math.nan,
    }


def snapshot_sup(pairs):
    """(sup, t, flat index) over (t, array) pairs; ties go to the first maximiser.

    No pairs gives (-inf, None, None).
    """
    best, where, index = -math.inf, None, None
    for t, arr in pairs:
        j = int(np.argmax(arr))
        if arr.flat[j] > best:
            best, where, index = float(arr.flat[j]), float(t), j
    return best, where, index


def ordering_gap(upper: FlowTrajectory, lower: FlowTrajectory):
    """(gap, t, flat index) of the largest lower - upper over shared snapshots.

    gap > 0 means lower rose above upper at grid point flat index at time t
    (t as stored by lower).  Both trajectories must store the same snapshot
    times.
    """
    if len(lower.times) != len(upper.times) or not np.allclose(
        lower.times, upper.times, rtol=1e-9, atol=1e-12
    ):
        raise ConfigError("mismatched schedules: comparison needs shared snapshot times")
    return snapshot_sup(
        (t, low.values - up.values) for t, low, up in zip(lower.times, lower.fields, upper.fields)
    )


# ---------------------------------------------------------------------------
# the rough-data cascade


@dataclass
class CascadeResult:
    """Per-level runs of the decreasing regularization, plus ordering audit."""

    ladder: MollificationLadder
    trajectories: list
    times: np.ndarray
    monotone_violation: float
    monotone_tol: float
    limit_gaps: dict
    notices: list = field(default_factory=list)

    def limit_at(self, t: float) -> ScalarField:
        return self.trajectories[-1].field_at(t)

    def gap_at(self, t: float) -> float:
        key = f"{float(t):.12g}"
        return self.limit_gaps[key]


def cascade_tolerance(osc: float, newton_tol: float) -> float:
    return CASCADE_TOL_FACTOR * osc + CASCADE_TOL_STEPS * newton_tol


def _family_ordering(trajectories, tol: float, members: str) -> float:
    """The worst ordering_gap between adjacent members (-inf for one member).

    Each member must stay below the one before it; a gap above tol raises
    MonotonicityError naming the members.
    """
    worst = max(
        (ordering_gap(up, low)[0] for up, low in zip(trajectories, trajectories[1:])),
        default=-math.inf,
    )
    if worst > tol:
        raise MonotonicityError(
            f"{members} lost their ordering by {worst:.3e} (tol {tol:.3e})", violation=worst
        )
    return worst


def run_cascade(
    phi0: RoughPotential,
    schedule: RegularizationSchedule,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
) -> CascadeResult:
    """Regularize rough data, integrate every level, and audit the ordering.

    The mollification ladder decreases pointwise, so with a monotone driving
    term the level trajectories stay ordered at every snapshot; the worst
    violation is compared against the cascade tolerance.  The two finest
    levels give the reported limit-gap estimate at each probe time and at the
    horizon.
    """
    grid = path.grid
    if not phi0.flow_admissible():
        raise ConfigError(
            f"potential tag {phi0.tag!r} is not admissible as flow data"
        )
    ladder = mollify_decreasing(phi0, schedule, grid)
    lo = float(ladder.base.values.min())
    hi = float(ladder.base.values.max())
    pad = 1.0 + 0.5 * (hi - lo) + max(ladder.deltas) ** 2 * grid.n
    F.verify_declared_bounds(grid, (0.0, cfg.horizon), (lo - pad, hi + pad))
    trajectories = []
    for level in ladder.levels:
        trajectories.append(run(level, path, F, omega_form, cfg, check_bounds=False))

    tol = cascade_tolerance(oscillation(ladder.base), cfg.newton_tol)
    worst = _family_ordering(trajectories, tol, "cascade levels")

    limit_gaps = {}
    probe_times = set(float(p) for p in cfg.probes) | {float(cfg.horizon)}
    fine, coarse = trajectories[-1], trajectories[-2] if len(trajectories) > 1 else trajectories[-1]
    for t in sorted(probe_times):
        gap = float(np.max(np.abs(fine.field_at(t).values - coarse.field_at(t).values)))
        limit_gaps[f"{t:.12g}"] = gap
    return CascadeResult(
        ladder=ladder,
        trajectories=trajectories,
        times=trajectories[0].times,
        monotone_violation=worst,
        monotone_tol=tol,
        limit_gaps=limit_gaps,
    )


# ---------------------------------------------------------------------------
# exponential time-rescaling transforms


@dataclass
class TransformedProblem:
    """Invertible change of variables between two flow problems.

    The map is phi~(t) = e^{rate * t} phi(tau(t)) with
    tau(t) = (1 - e^{-rate t}) / rate; the transformed problem is again of
    flow form with the driving term and metric path stored here.  rate < 0 is
    the monotonicity reduction, rate > 0 the rescaling used by the
    uniqueness argument.
    """

    kind: str
    rate: float
    driving: DrivingTerm
    path: MetricPath
    horizon: float
    base_path: MetricPath
    base_driving: DrivingTerm
    certificate: dict

    def pull_back(self, traj: FlowTrajectory) -> FlowTrajectory:
        """Map a solved transformed trajectory back to the original problem."""
        B = self.rate
        times = np.array([_original_time(B, t) for t in traj.times])
        fields = []
        phidots = []
        for t, fld, pd in zip(traj.times, traj.fields, traj.phidots):
            scale = math.exp(-B * float(t))
            fields.append(ScalarField(traj.grid, scale * fld.values))
            if pd is None:
                phidots.append(None)
            else:
                phidots.append(ScalarField(traj.grid, pd.values - B * fld.values))
        return FlowTrajectory(
            grid=traj.grid,
            times=times,
            fields=fields,
            phidots=phidots,
            schedule=np.array([_original_time(B, t) for t in traj.schedule]),
            stored_indices=traj.stored_indices.copy(),
            diagnostics=list(traj.diagnostics),
            config=traj.config,
            meta={**traj.meta, "pulled_back_from": self.kind, "rate": B},
            notices=list(traj.notices),
        )


def _original_time(rate: float, t: float) -> float:
    """tau(t) = (1 - e^{-rate t}) / rate, the original time of transformed time t."""
    return (1.0 - math.exp(-rate * t)) / rate


def _transformed_time(rate: float, tau: float) -> float:
    """The inverse chart -log(1 - rate tau) / rate."""
    arg = 1.0 - rate * tau
    if arg <= 0:
        raise ConfigError(f"original time {tau} beyond the transform's reach")
    return -math.log(arg) / rate


def _time_change(kind: str, F: DrivingTerm, path: MetricPath, rate: float, defect):
    """The problem solved by phi~(t) = e^{rate t} phi(tau(t)), with an empty certificate.

    With e = e^{-rate t}, the driving term becomes -rate s + rate n t +
    F(tau, z, e s) and the path e^{rate t} theta(tau).
    """
    n = path.grid.n
    horizon = _transformed_time(rate, path.horizon)

    def tau(t):
        return _original_time(rate, t)

    def fn(t, coords, s):
        return -rate * s + rate * n * t + F.fn(tau(t), coords, math.exp(-rate * t) * s)

    def ds(t, coords, s):
        e = math.exp(-rate * t)
        return -rate + e * F.ds_at(tau(t), coords, e * s)

    new_path = MetricPath.from_callables(
        path.grid,
        horizon,
        lambda t: path.theta(tau(t)).scaled(math.exp(rate * t)),
        lambda t: path.theta(tau(t)).scaled(rate * math.exp(rate * t)) + path.theta_dot(tau(t)),
        meta={"transform_rate": rate, "base_kind": path.kind},
    )
    driving = DrivingTerm(
        name=f"{F.name}+{kind}",
        fn=fn,
        ds=ds,
        defect=defect,
        time_bound=None,
        smooth=F.smooth,
        params={"rate": rate, "base": F.name},
    )
    return TransformedProblem(kind, rate, driving, new_path, horizon, path, F, certificate={})


def monotone_reduction(
    F: DrivingTerm,
    path: MetricPath,
    B: float | None = None,
    s_range=(-2.0, 2.0),
) -> TransformedProblem:
    """Change of variables making the driving term monotone in s.

    Requires B < 0 with -B e^{BT} >= C, where C is the certified defect and
    T the path horizon; such a B exists precisely when C <= 1/(eT) (the
    maximum of -B e^{BT} over B < 0, attained at B = -1/T).  B = None picks
    that maximizer.
    """
    T = path.horizon
    C = F.defect
    ceiling = 1.0 / (math.e * T)
    if C is None or C > ceiling:
        raise HorizonTooLongError(
            f"no admissible rate exists: defect {C} exceeds 1/(eT) = {ceiling:.6g} "
            f"at horizon {T}"
        )
    if B is None:
        B = -1.0 / T
    if B >= 0:
        raise ConfigError("the monotonicity reduction needs a negative rate")
    boundary = -B * math.exp(B * T)
    if boundary < C * (1 - 1e-12):
        raise ConfigError(
            f"rate B = {B} violates -B e^(BT) >= C: {boundary:.6g} < {C:.6g}"
        )
    tp = _time_change("monotone-reduction", F, path, B, defect=0.0)
    coords = path.grid.coordinates()
    ds_floor = _sampled_min(
        lambda t, s: tp.driving.ds_at(t, coords, s),
        np.linspace(0.0, tp.horizon, 21),
        np.linspace(s_range[0], s_range[1], 21),
    )
    if ds_floor < -1e-9:
        raise CertificateError(
            "transformed term failed its monotonicity sample",
            report={"ds_min": ds_floor},
        )
    tp.certificate = {
        "ds_min": ds_floor,
        "boundary_slack": boundary - C,
        "defect": C,
        "ceiling": ceiling,
    }
    return tp


def uniqueness_rescale(
    F: DrivingTerm,
    path: MetricPath,
    A: float,
    s_range=(-2.0, 2.0),
) -> TransformedProblem:
    """Exponential rescaling with positive rate, as the uniqueness proof uses.

    Needs A > C' (the declared time bound), A * T < 1 so the transformed
    horizon is finite, and a sampled certificate that the transformed metric
    path is non-decreasing in time.
    """
    T = path.horizon
    if F.time_bound is None:
        raise CertificateError(
            "uniqueness rescaling needs a declared time bound on the driving term",
            report={"time_bound": None},
        )
    if not A > F.time_bound:
        raise ConfigError(f"rate A = {A} must exceed the time bound {F.time_bound}")
    if A * T >= 1.0:
        raise HorizonTooLongError(
            f"A*T = {A * T:.6g} >= 1: the rescaled horizon is infinite; shorten T"
        )
    tp = _time_change("uniqueness-rescale", F, path, A, defect=A + max(0.0, F.defect or 0.0))
    # e^{-At} times the transformed theta-dot, at 33 path times
    mono = math.inf
    for t in np.linspace(0.0, tp.horizon, 33):
        tau = _original_time(A, t)
        cand = path.theta(tau).scaled(A) + path.theta_dot(tau).scaled(math.exp(-A * t))
        mono = min(mono, cone_margin(cand.components()))
    if mono < -1e-10:
        raise CertificateError(
            "transformed metric path is not non-decreasing",
            report={"theta_monotone_margin": mono, "rate": A},
        )
    coords = path.grid.coordinates()

    def monotone_part_ds(t, s):
        # the transformed term's s-partial without the linear -A s
        e = math.exp(-A * t)
        return e * F.ds_at(_original_time(A, t), coords, e * s)

    part_floor = _sampled_min(
        monotone_part_ds, np.linspace(0.0, tp.horizon, 11), np.linspace(s_range[0], s_range[1], 11)
    )
    tp.certificate = {
        "theta_monotone_margin": mono,
        "monotone_part_ds_min": part_floor,
        "rate": A,
    }
    return tp


# ---------------------------------------------------------------------------
# nef-class regularization


@dataclass
class NefResult:
    """Flows at a decreasing ladder of cone shifts, with the ordering audit."""

    eps: tuple
    trajectories: list
    monotone_violation: float
    monotone_tol: float
    limit_gap: float
    witness: object
    witness_margin: float | None
    notices: list = field(default_factory=list)


def run_nef(
    theta0,
    eps_schedule,
    phi0: ScalarField,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
) -> NefResult:
    """Flow from a merely semi-positive reference form via eps-shifts.

    theta_t = theta0 + (t + eps) * omega for each eps in the decreasing
    schedule; solutions decrease pointwise as eps decreases, which is
    audited at every snapshot.  The eps = 0 flow (when it can be started) is
    the lower-bound witness: every shifted solution must dominate it.
    """
    grid = phi0.grid
    eps = tuple(float(e) for e in eps_schedule)
    if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] <= 0:
        raise ConfigError("eps schedule must be strictly decreasing and positive")
    notices = []
    trajectories = []
    for e in eps:
        path = MetricPath.nef(grid, cfg.horizon, theta0, eps=e)
        trajectories.append(run(phi0, path, F, omega_form, cfg))
    tol = cascade_tolerance(oscillation(phi0), cfg.newton_tol)
    worst = _family_ordering(trajectories, tol, "eps-trajectories")
    limit_gap = float(
        np.max(np.abs(trajectories[-1].final().values - trajectories[-2].final().values))
    )
    witness = None
    witness_margin = None
    try:
        path0 = MetricPath.nef(grid, cfg.horizon, theta0, eps=0.0)
        witness = run(phi0, path0, F, omega_form, cfg, check_bounds=False)
        # every member must dominate the witness: min(member - witness)
        witness_margin = -max(ordering_gap(traj, witness)[0] for traj in trajectories)
        if witness_margin < -tol:
            raise MonotonicityError(
                f"a shifted flow dropped below the unshifted witness by "
                f"{witness_margin:.3e}",
                violation=-witness_margin,
            )
    except (ConeExitError, NewtonDivergedError) as exc:
        notices.append(f"unshifted witness flow unavailable: {exc}")
    return NefResult(
        eps=eps,
        trajectories=trajectories,
        monotone_violation=worst,
        monotone_tol=tol,
        limit_gap=limit_gap,
        witness=witness,
        witness_margin=witness_margin,
        notices=notices,
    )
