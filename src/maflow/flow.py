"""Implicit time integration of the logarithmic Monge-Ampere flow.

The evolution solved here is

    d phi / dt = log det(theta_t + H(phi)) - log Omega - F(t, z, phi)

on the flat torus, with theta_t a MetricPath, Omega a VolumeForm and F a
DrivingTerm.  Time stepping is backward Euler on a geometric schedule
(anchored at t = 0, with requested probe times inserted exactly), and each
implicit step is solved by a damped inexact Newton iteration whose linear
systems go through right-preconditioned BiCGSTAB.  The preconditioner is an
FFT solve of a shifted -(1/4) Laplacian with a pointwise scaling built from
the harmonic mean of w's eigenvalues (w = theta + dd^c phi), matched to the
Jacobian at the stiffness of the current Newton residual, so it keeps up
where w nears the edge of the positive cone.

The right-hand side is written once (`_rhs`).  The Newton residual, the
stored phidot and the snapshot audits (`snapshot_rhs`, behind
`residual_certificate`, `instantaneous_residuals` and verify's role checks)
all evaluate it, and the audits report a snapshot outside the positive cone
instead of taking the logarithm there.

Rough initial data never enter `run` directly: they are regularized by the
decreasing mollification ladder and integrated level by level (`run_cascade`),
with the pointwise ordering of levels checked at every snapshot.  That check,
the eps-shift family's (`run_nef`, members and the unshifted witness) and
verify's comparison principle share one test, `ordering_gap`.  The
exponential change of variables that restores d F / d s >= 0, and its
companion used by the uniqueness argument, are provided as invertible
problem transforms.
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
    NumericError,
)
from .geometry import (
    MetricPath,
    VolumeForm,
    _worst_location,
    comps_det,
    comps_eig_min,
    comps_trace_inv,
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

    @classmethod
    def from_callable(cls, name, fn, **kwargs) -> "DrivingTerm":
        return cls(name, fn, **kwargs)

    # -- declared-bound audit --------------------------------------------------

    def verify_declared_bounds(
        self,
        grid: TorusGrid,
        t_range,
        s_range,
        t_samples: int = 9,
        s_samples: int = 17,
        tol: float = 1e-7,
    ) -> dict:
        """Sample dF/ds and dF/dt over the run's range and audit the bounds.

        A declared defect or time bound that the samples violate aborts the
        configuration; undeclared bounds (None) are reported but not checked.
        """
        coords = grid.coordinates()
        ts = np.linspace(t_range[0], t_range[1], t_samples)
        ss = np.linspace(s_range[0], s_range[1], s_samples)
        ds_min = math.inf
        dt_max = 0.0
        for t in ts:
            for s in ss:
                ds_min = min(ds_min, float(np.min(self.ds_at(float(t), coords, float(s)))))
                dt_max = max(dt_max, float(np.max(np.abs(self.dt_at(float(t), coords, float(s))))))
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
    (x, iterations, relative residual, converged).  Vectors are rebound,
    never updated in place, so b is neither copied nor modified.
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
    res = bnorm
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
        rho = rho_new
    if _l2(x) == 0.0:
        raise NumericError("linear solver stalled with a null direction")
    return x, it, res / bnorm, False


def _rhs(total, u, t, F, log_om, coords):
    """The flow's right-hand side log det(total) - log Omega - F(t, z, u).

    total is theta_t + H(u) as components; it must lie inside the cone.
    """
    return np.log(comps_det(total)) - log_om - F(t, coords, u)


def _cone_exit(message, total, grid):
    """ConeExitError at the grid point where the form total has its lowest eigenvalue."""
    eig = comps_eig_min(total)
    worst = float(np.min(eig))
    loc = _worst_location(eig, grid.shape)
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
    if len(total) == 1:
        s = total[0]
    else:
        s = 2.0 * comps_det(total) / (total[0] + total[1])
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
    theta = path.theta(t_to).components()
    log_om = omega_form.log()
    u = prev_vals
    comps = warm.pop() if warm else hessian_components(u, grid, cfg.backend)
    total = tuple(th + hc for th, hc in zip(theta, comps))
    margin = float(np.min(comps_eig_min(total)))
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
            t_comps = hessian_components(trial, grid, cfg.backend)
            t_total = tuple(th + hc for th, hc in zip(theta, t_comps))
            t_margin = float(np.min(comps_eig_min(t_total)))
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


def _initial_margin(phi0, path, backend):
    """(positivity margin, theta(0) + H(phi0), H(phi0)) of the initial data."""
    theta = path.theta(0.0).components()
    comps = hessian_components(phi0.values, phi0.grid, backend)
    total = tuple(th + hc for th, hc in zip(theta, comps))
    return float(np.min(comps_eig_min(total))), total, comps


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
    margin0, total0, comps0 = _initial_margin(phi0, path, cfg.backend)
    warm = [comps0]
    del comps0
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


def snapshot_rhs(traj: FlowTrajectory, k: int, path, F, omega_form, backend: str):
    """The right-hand side at stored snapshot k, or None outside the cone.

    None means theta_t + H(phi_k) has a non-positive eigenvalue somewhere,
    where the logarithm is undefined.  One Hessian per call.
    """
    t = float(traj.times[k])
    u = traj.fields[k].values
    comps = hessian_components(u, traj.grid, backend)
    total = tuple(th + hc for th, hc in zip(path.theta(t).components(), comps))
    if float(np.min(comps_eig_min(total))) <= 0.0:
        return None
    rhs = _rhs(total, u, t, F, omega_form.log(), traj.grid.coordinates())
    return np.broadcast_to(rhs, traj.grid.shape)


def residual_certificate(traj: FlowTrajectory, path, F, omega_form) -> dict:
    """Recompute backward-Euler residuals from stored snapshots alone.

    Covers every stored pair of consecutive schedule points; the recomputed
    residual must agree with the Newton acceptance (<= 2x its tolerance).  A
    snapshot outside the cone has residual inf.
    """
    cfg = traj.config
    backend = cfg.backend if cfg is not None else "spectral"
    worst = 0.0
    pairs = 0
    for i in range(1, len(traj.times)):
        if traj.stored_indices[i] - traj.stored_indices[i - 1] != 1:
            continue
        rhs = snapshot_rhs(traj, i, path, F, omega_form, backend)
        if rhs is None:
            worst = math.inf
        else:
            dt = traj.times[i] - traj.times[i - 1]
            R = (traj.fields[i].values - traj.fields[i - 1].values) / dt - rhs
            worst = max(worst, float(np.max(np.abs(R))))
        pairs += 1
    tol = cfg.newton_tol if cfg is not None else 1e-10
    return {"max_residual": worst, "pairs": pairs, "passes": worst <= 2.0 * tol}


def instantaneous_residuals(traj: FlowTrajectory, path, F, omega_form, backend=None) -> dict:
    """sup |phidot - RHS| per snapshot, recomputed from the fields alone.

    Meaningful for analytic families and transformed/pulled-back
    trajectories, where phidot is supplied rather than defined as the RHS.
    A snapshot outside the cone has residual inf.
    """
    backend = backend or (traj.config.backend if traj.config is not None else "spectral")
    out = []
    for k, pd in enumerate(traj.phidots):
        if pd is None:
            out.append(math.nan)
            continue
        rhs = snapshot_rhs(traj, k, path, F, omega_form, backend)
        out.append(math.inf if rhs is None else float(np.max(np.abs(pd.values - rhs))))
    finite = [v for v in out if not math.isnan(v)]
    return {
        "per_snapshot": out,
        "max_residual": max(finite) if finite else math.nan,
    }


# ---------------------------------------------------------------------------
# pointwise ordering of solution families


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
    gap, where, index = -math.inf, None, None
    for t, low, up in zip(lower.times, lower.fields, upper.fields):
        diff = low.values - up.values
        j = int(np.argmax(diff))
        if diff.flat[j] > gap:
            gap, where, index = float(diff.flat[j]), float(t), j
    return gap, where, index


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
    worst = max(
        (ordering_gap(up, low)[0] for up, low in zip(trajectories, trajectories[1:])),
        default=-math.inf,
    )
    if worst > tol:
        raise MonotonicityError(
            f"cascade levels lost their ordering by {worst:.3e} (tol {tol:.3e})",
            violation=worst,
        )

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

    def original_time(self, t: float) -> float:
        B = self.rate
        return (1.0 - math.exp(-B * t)) / B

    def transformed_time(self, tau: float) -> float:
        B = self.rate
        arg = 1.0 - B * tau
        if arg <= 0:
            raise ConfigError(f"original time {tau} beyond the transform's reach")
        return -math.log(arg) / B

    def pull_back(self, traj: FlowTrajectory) -> FlowTrajectory:
        """Map a solved transformed trajectory back to the original problem."""
        B = self.rate
        times = np.array([self.original_time(t) for t in traj.times])
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
            schedule=np.array([self.original_time(t) for t in traj.schedule]),
            stored_indices=traj.stored_indices.copy(),
            diagnostics=list(traj.diagnostics),
            config=traj.config,
            meta={**traj.meta, "pulled_back_from": self.kind, "rate": B},
            notices=list(traj.notices),
        )


def _transformed_parts(F: DrivingTerm, path: MetricPath, rate: float, horizon_t: float):
    B = rate
    n = path.grid.n

    def tau_of(t):
        return (1.0 - math.exp(-B * t)) / B

    def fn(t, coords, s):
        return -B * s + B * n * t + F.fn(tau_of(t), coords, math.exp(-B * t) * s)

    def ds(t, coords, s):
        e = math.exp(-B * t)
        return -B + e * F.ds_at(tau_of(t), coords, e * s)

    new_theta = lambda t: path.theta(tau_of(t)).scaled(math.exp(B * t))

    def new_theta_dot(t):
        e = math.exp(B * t)
        return path.theta(tau_of(t)).scaled(B * e) + path.theta_dot(tau_of(t))

    new_path = MetricPath.from_callables(
        path.grid,
        horizon_t,
        new_theta,
        new_theta_dot,
        meta={"transform_rate": B, "base_kind": path.kind},
    )
    return fn, ds, new_path


def _sample_ds_floor(term: DrivingTerm, grid, horizon, s_range, t_samples=21, s_samples=21):
    coords = grid.coordinates()
    lo = math.inf
    for t in np.linspace(0.0, horizon, t_samples):
        for s in np.linspace(s_range[0], s_range[1], s_samples):
            lo = min(lo, float(np.min(term.ds_at(float(t), coords, float(s)))))
    return lo


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
    horizon_t = -math.log(1.0 - B * T) / B
    fn, ds, new_path = _transformed_parts(F, path, B, horizon_t)
    new_term = DrivingTerm(
        name=f"{F.name}+monotone-reduction",
        fn=fn,
        ds=ds,
        defect=0.0,
        time_bound=None,
        smooth=F.smooth,
        params={"rate": B, "base": F.name},
    )
    ds_floor = _sample_ds_floor(new_term, path.grid, horizon_t, s_range)
    if ds_floor < -1e-9:
        raise CertificateError(
            "transformed term failed its monotonicity sample",
            report={"ds_min": ds_floor},
        )
    return TransformedProblem(
        kind="monotone-reduction",
        rate=B,
        driving=new_term,
        path=new_path,
        horizon=horizon_t,
        base_path=path,
        base_driving=F,
        certificate={
            "ds_min": ds_floor,
            "boundary_slack": boundary - C,
            "defect": C,
            "ceiling": ceiling,
        },
    )


def uniqueness_rescale(
    F: DrivingTerm,
    path: MetricPath,
    A: float,
    s_range=(-2.0, 2.0),
    samples: int = 33,
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
    horizon_t = -math.log(1.0 - A * T) / A
    fn, ds, new_path = _transformed_parts(F, path, A, horizon_t)
    grid = path.grid
    mono = math.inf
    for t in np.linspace(0.0, horizon_t, samples):
        tau = (1.0 - math.exp(-A * t)) / A
        cand = path.theta(tau).scaled(A) + path.theta_dot(tau).scaled(math.exp(-A * t))
        mono = min(mono, float(np.min(comps_eig_min(cand.components()))))
    if mono < -1e-10:
        raise CertificateError(
            "transformed metric path is not non-decreasing",
            report={"theta_monotone_margin": mono, "rate": A},
        )
    # the monotone part of the transformed term (linear -As removed)
    part_floor = math.inf
    coords = grid.coordinates()
    for t in np.linspace(0.0, horizon_t, 11):
        e = math.exp(-A * t)
        tau = (1.0 - e) / A
        for s in np.linspace(s_range[0], s_range[1], 11):
            part_floor = min(
                part_floor, float(np.min(e * F.ds_at(tau, coords, e * float(s))))
            )
    defect = A + max(0.0, F.defect if F.defect is not None else 0.0)
    new_term = DrivingTerm(
        name=f"{F.name}+uniqueness-rescale",
        fn=fn,
        ds=ds,
        defect=defect,
        time_bound=None,
        smooth=F.smooth,
        params={"rate": A, "base": F.name},
    )
    return TransformedProblem(
        kind="uniqueness-rescale",
        rate=A,
        driving=new_term,
        path=new_path,
        horizon=horizon_t,
        base_path=path,
        base_driving=F,
        certificate={
            "theta_monotone_margin": mono,
            "monotone_part_ds_min": part_floor,
            "rate": A,
        },
    )


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
    worst = max(ordering_gap(up, low)[0] for up, low in zip(trajectories, trajectories[1:]))
    if worst > tol:
        raise MonotonicityError(
            f"eps-trajectories lost their ordering by {worst:.3e} (tol {tol:.3e})",
            violation=worst,
        )
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
        witness = None
        witness_margin = None
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
