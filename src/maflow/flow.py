"""Implicit time integration of the logarithmic Monge-Ampere flow.

The evolution solved here is

    d phi / dt = log det(theta_t + H(phi)) - log Omega - F(t, z, phi)

on the flat torus, with theta_t a MetricPath, Omega a VolumeForm and F a
DrivingTerm.  Time stepping is backward Euler on a geometric schedule
(anchored at t = 0, with requested probe times inserted exactly), and each
implicit step is solved by a damped inexact Newton iteration whose linear
systems go through right-preconditioned BiCGSTAB.  The flow is smooth in t
for t > 0, so Newton starts from the quadratic through the last three
accepted states, evaluated at the new time (a line through two at the
second step; the first starts from phi0).  It starts from the last state
instead when that guess leaves the positive cone, and after a step that one
Newton iteration solved from its last state.  The preconditioner is a
solve of a shifted -(1/4) Laplacian (grid.solve_shifted_laplacian: real
FFTs at n = 1, per-axis matrices at n = 2) with a pointwise scaling built from
the harmonic mean of w's eigenvalues (w = theta + dd^c phi), matched to the
Jacobian at the stiffness of the current Newton residual, so it keeps up
where w nears the edge of the positive cone.  At n = 1 that solve inverts
the Laplacian the Hessian takes, so each Krylov step reads the Jacobian of
the preconditioned vector off the solve instead of taking a Hessian.

A flow state is evaluated in one place, `_Workspace`: its Hessian, the form
theta_t + dd^c phi with its cone margin, det and the right-hand side, and
the backward-Euler residual, each written into grid-shaped arrays (and at
n = 1 a spectrum-shaped one) that it passes as outputs to grid's
derivatives and geometry's form algebra.  The Newton correction is solved
in a `_Correction` in the correction's precision: in float64 in arrays of
its own, and in float32 in views of the workspace's float64 arrays that its
solve leaves idle.  Each `run` holds one workspace for its whole length and
cycles its accepted states through the workspace's iterate slots, so after
its first steps no array is new but the values of a driving term that makes
its own (an affine term writes into the workspace), at n = 1 and n = 2
alike.  A stored snapshot goes to the run's snapshot store when its step is
accepted: a list in memory by default, which copies it, or io.ArchiveStore,
which writes it to disk at once and reads it back when the trajectory is
indexed.
Checks read stored snapshots through `TrajectoryAudit`, which evaluates
each snapshot in its own workspace at most once, keeps only scalars, and
reports a snapshot outside the positive cone instead of taking the
logarithm there.

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

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
    add_shift,
    correction_dtype,
    hessian_components,
    inner,
    oscillation,
    quarter_laplacian_rayleigh,
    inverse_shifted_symbol,
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

    Called with out, a grid-shaped float64 array, a term built by `affine`
    writes its values there; every other term ignores out and returns values
    of its own.
    """

    name: str
    fn: object = field(repr=False)
    ds: object = field(default=None, repr=False)
    dt_partial: object = field(default=None, repr=False)
    defect: float | None = 0.0
    time_bound: float | None = 0.0
    smooth: bool = True
    # fn(t, coords, s, out) written into out, set by `affine` only
    _into: object = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, t, coords, s, out=None):
        if out is None or self._into is None:
            return self.fn(t, coords, s)
        return self._into(t, coords, s, out)

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

        def into(t, c, s, out):
            # the products and sums of c0 + c1 * s, so the same bits
            out = np.multiply(s, c1, out=out)
            out += c0
            return out

        term = cls(
            "affine",
            lambda t, c, s: c0 + c1 * s,
            ds=lambda t, c, s: np.float64(c1),
            dt_partial=lambda t, c, s: np.float64(0.0),
            defect=max(0.0, -c1),
        )
        object.__setattr__(term, "_into", into)
        return term

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
    probes: tuple[float, ...] = ()
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
    return _distinct_sorted(np.array(times))


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: np.unique's result, without the numpy.ma import it makes."""
    out = np.sort(values)
    keep = np.ones(out.shape, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class FlowTrajectory:
    """Stored snapshots (t_k, phi_k, phidot_k) plus per-step diagnostics.

    phidot is the PDE right-hand side evaluated at the accepted state, never
    a finite difference in time.  diagnostics has one entry per schedule step
    regardless of snapshot thinning.  fields and phidots are sequences:
    lists, or io.SnapshotSequence for a trajectory on disk.
    """

    grid: TorusGrid
    times: np.ndarray
    fields: Sequence
    phidots: Sequence
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
    return math.sqrt(inner(a, a))


def _form_arrays(grid: TorusGrid) -> tuple:
    """A new float64 form's arrays: one real array at n = 1, two and a complex h12 at n = 2."""
    if grid.n == 1:
        return (np.empty(grid.shape),)
    return np.empty(grid.shape), np.empty(grid.shape), np.empty(grid.shape, complex)


# Where a float32 Newton correction's arrays lie in its run's `_Workspace`:
# each array's name, the workspace array it is a view of and the first part
# of that array it takes.  A part holds one float32 grid array, counted
# through the workspace array's components in order (two in a float64
# field, four in a complex h12); a complex64 array (w12, h12) takes two.
# `_Correction` says why each workspace array is idle while it is lent.
_LENT = {
    # the form, det w and R that `operands` copies
    "w11": ("h", 0), "w22": ("h", 1), "w12": ("h", 2), "det": ("h", 4), "R": ("h", 5),
    # the shifted symbol the n = 2 preconditioner lays out
    "symbol": ("h", 6),
    # scratch, the preconditioner's scaling and H(v)'s h12
    "tmp0": ("tmp", 0), "tmp1": ("tmp", 1), "tmp2": ("tmp", 2), "scale": ("tmp", 3),
    "h12": ("tmp", 4),
    # BiCGSTAB's vectors, in its order: the iterate and the best one in det
    "x": ("det", 0),
    "r": ("w", 0), "p": ("w", 1), "v": ("w", 2), "z": ("w", 3), "t": ("w", 4),
    "best": ("det", 1),
}
_COPIES = ("w11", "w22", "w12", "det", "R")
_KRYLOV = ("x", "r", "p", "v", "z", "t", "best")
_COMPLEX = ("w12", "h12")
_N2_ONLY = (*_COMPLEX, "symbol")


def _correction_arrays(n: int, lent: bool) -> list:
    """The names of the grid-shaped arrays of a correction on an n-dimensional grid.

    copies exist only in a lent (float32) correction, and the complex
    arrays and the symbol only at n = 2.
    """
    return [
        name for name in _LENT
        if (lent or name not in _COPIES) and (n == 2 or name not in _N2_ONLY)
    ]


def _lent_view(ws, name: str, dtype) -> np.ndarray:
    """The dtype array `name` of a correction, a view of the workspace array `_LENT` gives it."""
    attr, part = _LENT[name]
    size = math.prod(ws.grid.shape)
    width = np.dtype(dtype).itemsize // 4
    arrays = getattr(ws, attr)
    for array in (arrays,) if isinstance(arrays, np.ndarray) else arrays:
        parts = array.reshape(-1).view(np.float32)
        if part * size < parts.size:
            return parts[part * size : (part + width) * size].view(dtype).reshape(ws.grid.shape)
        part -= parts.size // size
    raise ValueError(f"the workspace's {attr} has no part for {name}")


class _Correction:
    """The arrays a Newton correction is solved in, all in one precision, dtype.

    tmp is three real scratch arrays, hv (H(v) inside a `_jacobian` apply)
    shares tmp's first two, scale is the preconditioner's scaling and
    krylov BiCGSTAB's seven vectors (x, r, p, v, z, t, best).  symbol (None
    at n = 1) is the grid-shaped array the n = 2 preconditioner lays out
    shift + symbol of -(1/4) Laplacian in, once per Newton iteration, for
    every solve to divide by; its Rayleigh quotient leaves the symbol there
    first.  spectrum (None at n = 2) is a complex and a real array of the
    grid's spectrum_shape: the preconditioner's Rayleigh quotient writes the
    transform and the power spectrum into them, then the shift + symbol
    into the second, and every later solve or Hessian transforms into the
    first.  inverse (None at n = 2) is a complex array of that shape, into
    which the preconditioner lays out the reciprocal of the shift + symbol
    that every solve multiplies by.

    A float64 correction makes its arrays, as its operands are the
    workspace's own w, det and R, which stay live through the solve.  A
    float32 one (n = 2 only) makes none: each array, and copies, the form,
    det w and R that `operands` lays out once per Newton iteration, is a
    view of a float64 array of ws, the run's `_Workspace`, as `_LENT` lays
    out.  `_advance` leaves each of those arrays idle while the correction
    is alive:

    - the copies and the symbol lie in ws.h, which the margin that built w
      read last; the line search's Hessian overwrites them;
    - tmp, scale and hv's h12 lie in ws.tmp, the scratch of the workspace's
      evaluations, none of which runs during the solve; its second and third
      arrays are rhs and R, which the next `rhs_at` and `step_residual`
      rewrite, and `operands` has copied R;
    - r, p, v, z and t lie in ws.w, which `operands` has copied; the line
      search's margin rebuilds w;
    - x and best lie in ws.det, which `operands` copies first and only the
      next `rhs_at` rewrites, so the correction BiCGSTAB returns lasts
      through the line search.

    u is never lent, and rhs and R only as tmp.  Without ws, a float32
    correction's arrays are None.  `nbytes` counts what the constructor
    makes.
    """

    def __init__(self, grid: TorusGrid, dtype, ws=None):
        lent = dtype != np.float64
        cplx = np.result_type(dtype, np.complex64)

        def array(name):
            kind = cplx if name in _COMPLEX else dtype
            if not lent:
                return np.empty(grid.shape, kind)
            return None if ws is None else _lent_view(ws, name, kind)

        arrays = {name: array(name) for name in _correction_arrays(grid.n, lent)}
        self.dtype = dtype
        self.tmp = (arrays["tmp0"], arrays["tmp1"], arrays["tmp2"])
        self.hv = self.tmp[:1] if grid.n == 1 else (*self.tmp[:2], arrays["h12"])
        self.scale = arrays["scale"]
        self.symbol = arrays.get("symbol")
        self.krylov = tuple(arrays[name] for name in _KRYLOV)
        self.copies = tuple(arrays[name] for name in _COPIES) if lent else None
        self.spectrum = self.inverse = None
        if grid.n == 1:
            self.spectrum = np.empty(grid.spectrum_shape, cplx), np.empty(grid.spectrum_shape, dtype)
            self.inverse = np.empty(grid.spectrum_shape, cplx)

    @staticmethod
    def nbytes(grid: TorusGrid, dtype) -> int:
        """The bytes of the arrays a `_Correction(grid, dtype)` makes: none in float32."""
        if dtype != np.float64:
            return 0
        fields = sum(2 if name in _COMPLEX else 1 for name in _correction_arrays(grid.n, False))
        spectrum = 0
        if grid.n == 1:  # two complex arrays and a real one
            spectrum = 5 * math.prod(grid.spectrum_shape)
        return 8 * (fields * math.prod(grid.shape) + spectrum)

    def operands(self, total, det, R) -> tuple:
        """(total, det, R) in dtype: themselves in float64, copies in copies otherwise."""
        if self.copies is None:
            return total, det, R
        for dst, src in zip(self.copies, (*total, det, R)):
            np.copyto(dst, src)
        return self.copies[:-2], self.copies[-2], self.copies[-1]


# The arrays of a `_Workspace`, in the order it makes them: each one's name,
# the grid fields it takes and the array whose memory it shares, if any.  A
# field is one float64 grid array; a form takes one at n = 1 and four at
# n = 2 (two reals and a complex h12), and n = 1's spectrum (none at n = 2),
# a complex array of the grid's spectrum_shape, is counted in bytes.  The
# scratch tmp1 and tmp2 serve only `hessian` and `margin`, which run while
# rhs and R are idle: each later `rhs_at` and `step_residual` rewrites them.
_WORKSPACE = (
    ("u0", 1, None), ("u1", 1, None),  # the iterate slots, none with iterates=False
    ("h", "form", None), ("w", "form", None),
    ("det", 1, None), ("rhs", 1, None), ("R", 1, None),
    ("tmp0", 1, None), ("tmp1", 1, "rhs"), ("tmp2", 1, "R"),
    ("spectrum", "spectrum", None),
)


def _workspace_entries(iterates: bool) -> list:
    """The entries of `_WORKSPACE` a `_Workspace` makes: the iterate slots only with iterates."""
    return [entry for entry in _WORKSPACE if iterates or entry[0] not in ("u0", "u1")]


def _workspace_array(grid: TorusGrid, fields):
    """A new array of `_WORKSPACE`'s kind fields: a real field, a form's arrays or n = 1's spectrum."""
    if fields == "form":
        return _form_arrays(grid)
    if fields == "spectrum":
        return (np.empty(grid.spectrum_shape, complex),) if grid.n == 1 else None
    return np.empty(grid.shape)


def _workspace_bytes(grid: TorusGrid, fields) -> int:
    """The bytes of the array `_workspace_array(grid, fields)` makes."""
    if fields == "spectrum":
        return 16 * math.prod(grid.spectrum_shape) if grid.n == 1 else 0
    if fields == "form":
        fields = 1 if grid.n == 1 else 4
    return fields * 8 * math.prod(grid.shape)


class _Workspace:
    """The one evaluator of a flow state, in float64 grid-shaped arrays it reuses.

    `run` makes one and hands it to every `_advance`, so the Newton loop
    allocates no array; `TrajectoryAudit` makes one without iterates and
    builds every stored snapshot in it.  A state u at time t is evaluated in
    three calls, each overwriting the arrays it names: `hessian` (h =
    H(u)), `margin` (w = theta_t + h and its cone margin) and `rhs_at` (det
    w, into det at n = 2, and the right-hand side into rhs); `step_residual`
    then gives the sup of the backward-Euler residual R from a previous
    state.

    u holds the two iterate slots (none when made with iterates=False): the
    Newton iterate and the line search's trial, which swap roles when a
    trial is accepted; the extrapolated start of a step is written into
    u[0].  A step hands its accepted iterate over (`hand_over`) instead of
    copying it, and its slot is refilled when a slot is next needed, with
    the state `run` gave back through `recycle` if there is one and a new
    array otherwise; u[1] is None until then.  The line search overwrites h
    and w, as the accepted iterate needs neither once its Newton direction
    is solved; between steps h is H of the step's values, the warm start of
    a step that starts from them.  tmp is three real scratch arrays: the
    first its own, and the other two, which only `hessian` and `margin`
    use, rhs and R themselves, so a `hessian` or `margin` overwrites the
    last rhs and R.  spectrum (None at n = 2) holds the complex array that
    an n = 1 Hessian transforms into.

    The Newton correction is solved in correction, a `_Correction` in
    grid.correction_dtype (float32 at n = 2 from
    grid.SINGLE_PRECISION_RESOLUTION points per axis up, float64 elsewhere),
    made on a run's first Newton iteration, so an audit never makes one.  A
    float32 correction is views of h, tmp, w and det, which the solve
    leaves idle (`_Correction` says how); a float64 one makes its own
    arrays.  The arrays are declared in `_WORKSPACE`, which `nbytes` sums.
    """

    def __init__(self, grid: TorusGrid, backend: str, iterates: bool = True):
        arrays = {}
        for name, fields, shared in _workspace_entries(iterates):
            arrays[name] = arrays[shared] if shared else _workspace_array(grid, fields)
        self.grid, self.backend = grid, backend
        self.u = [arrays["u0"], arrays["u1"]] if iterates else []
        self._spare = None  # a state `run` gave back, the next slot to refill
        self.h, self.w = arrays["h"], arrays["w"]
        self.det, self.rhs, self.R = arrays["det"], arrays["rhs"], arrays["R"]
        self.tmp = (arrays["tmp0"], arrays["tmp1"], arrays["tmp2"])
        self.spectrum = arrays["spectrum"]

    @staticmethod
    def nbytes(grid: TorusGrid, iterates: bool = True) -> int:
        """The bytes of the arrays a `_Workspace` on grid makes (its correction aside)."""
        return sum(
            _workspace_bytes(grid, fields)
            for _, fields, shared in _workspace_entries(iterates)
            if shared is None
        )

    @functools.cached_property
    def correction(self) -> _Correction:
        return _Correction(self.grid, correction_dtype(self.grid), self)

    def recycle(self, state):
        """Take back a state that nothing reads any more, to refill the next slot.

        state must be writeable and must not be read again by its giver
        after the next `_advance` has read its history.
        """
        self._spare = state

    def _refill(self):
        spare, self._spare = self._spare, None
        return np.empty(self.grid.shape) if spare is None else spare

    def trial(self, u):
        """The iterate slot that u is not, refilled first if it was handed over."""
        if self.u[1] is None:
            self.u[1] = self._refill()
        return self.u[1] if u is self.u[0] else self.u[0]

    def hand_over(self, u):
        """Give up u, if it is an iterate slot, to the caller; the other slot becomes u[0]."""
        if u is self.u[1]:
            self.u[1] = None
        elif u is self.u[0]:
            self.u = [self.u[1] if self.u[1] is not None else self._refill(), None]

    def hessian(self, u):
        """h = H(u)."""
        hessian_components(u, self.grid, self.backend, self.h, self.tmp[2], self.spectrum)

    def margin(self, theta) -> float:
        """w = theta + h; returns the cone margin of w."""
        return cone_margin(kahler_form(theta, self.h, self.w), *self.tmp[:2])

    def rhs_at(self, u, t, F, log_om, coords) -> tuple:
        """(det w, log det w - log Omega - F(t, z, u)), the latter written into rhs.

        w must be theta_t + H(u) and lie inside the positive cone; log_om is
        log Omega.  F may write its values into tmp[0] (`DrivingTerm`).
        """
        det = comps_det(self.w, self.det, self.tmp[0])
        rhs = np.log(det, out=self.rhs)
        rhs -= log_om
        rhs -= F(t, coords, u, out=self.tmp[0])
        return det, rhs

    def step_residual(self, u, prev, dt) -> float:
        """sup |R|, R = (u - prev)/dt - rhs written into R; rhs is from the last `rhs_at`."""
        R = np.subtract(u, prev, out=self.R)
        R /= dt
        R -= self.rhs
        return float(np.max(np.abs(R, out=self.tmp[0])))


def _bicgstab(step, b: np.ndarray, rel_tol: float, max_iter: int, work):
    """Right-preconditioned BiCGSTAB on a matrix-free operator J with preconditioner M.

    Solves J x = b through J M^-1 y = b, x = M^-1 y, updating x with the
    preconditioned directions so no solve is left at the end.  The
    recurrence residual is that of the unpreconditioned system, so the
    stopping test bounds |b - J x| / |b|.  Returns (x, iterations, relative
    residual, converged).  A solve cut short returns the computed iterate
    with the smallest recurrence residual, not the last one, copied aside
    when it was reached.

    step(p, z, v) returns (M^-1 p, J M^-1 p), the two written into z and v
    when it can (`_krylov_step`); z and v are arrays of the solver's that
    alias neither p nor each other.  Every inner product is grid.inner.
    work, seven arrays shaped like b and of its dtype, holds the solver's
    vectors, updated in place; the returned iterate is one of them and lasts
    until work is next used.  b is only read.  Each scaled vector is formed
    in an array that is free at that point (v before the step overwrites
    it, z and t once read, and t before the step overwrites it), so no
    array is kept for scratch.
    """
    x, r, p, v, z, t, best = work
    x.fill(0.0)
    bnorm = _l2(b)
    if bnorm == 0.0:
        return x, 0, 0.0, True
    np.copyto(r, b)
    rhat = b
    rho = alpha = omega = 1.0
    for a in (v, p, best):
        a.fill(0.0)
    target = rel_tol * bnorm
    best_res = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        rho_new = inner(rhat, r)
        if abs(rho_new) < 1e-300:
            rhat = r.copy()
            rho_new = inner(rhat, r)
            if abs(rho_new) < 1e-300:
                break
        beta = (rho_new / rho) * (alpha / omega)
        # p = r + beta (p - omega v); the step overwrites v next
        p -= np.multiply(v, omega, out=v)
        p *= beta
        p += r
        z, v = step(p, z, v)
        denom = inner(rhat, v)
        if abs(denom) < 1e-300:
            break
        alpha = rho_new / denom
        x += np.multiply(z, alpha, out=z)
        # v is read again by the next p; the step overwrites t next
        r -= np.multiply(v, alpha, out=t)
        res = _l2(r)
        if res <= target:
            return x, it, res / bnorm, True
        if res < best_res:
            best_res = res
            np.copyto(best, x)
        z, t = step(r, z, t)
        tt = inner(t, t)
        if tt == 0.0:
            break
        omega = inner(t, r) / tt
        x += np.multiply(z, omega, out=z)
        r -= np.multiply(t, omega, out=t)
        res = _l2(r)
        if res <= target:
            return x, it, res / bnorm, True
        if res < best_res:
            best_res = res
            np.copyto(best, x)
        rho = rho_new
    if _l2(best) == 0.0:
        raise NumericError("linear solver stalled with a null direction")
    return best, it, best_res / bnorm, False


def _cone_exit(message, total, grid):
    """ConeExitError at the grid point where the form total has its lowest eigenvalue."""
    worst, loc = lowest_eigenvalue(total, grid.shape)
    return ConeExitError(
        f"{message}: min eigenvalue {worst:.3e} at {loc}", location=loc, eigenvalue=worst
    )


def _jacobian(total, det, fs, dt, ws):
    """The Newton operator v -> v/dt + F_s v - tr(w^-1 H(v)), w = total, det = det(w).

    It is called as apply(v, out=None), writes H(v) into ws.correction's hv
    and returns its result, written into out when given; total, det, v and
    out are in the correction's dtype.  ws is the run's workspace.
    """
    inv_dt = 1.0 / dt
    cor = ws.correction
    fs = np.asarray(fs, dtype=cor.dtype)
    spare = cor.tmp[2]

    def apply(v, out=None):
        hv = hessian_components(v, ws.grid, ws.backend, cor.hv, spare, cor.spectrum)
        tr = comps_trace_inv(total, hv, spare, hv, det)
        out = np.multiply(v, inv_dt, out=out)
        out -= tr
        out += np.multiply(fs, v, out=hv[0])
        return out

    return apply


def _preconditioner_terms(total, det, R, fs, dt, ws) -> tuple:
    """(D, sigma, shift) of `_preconditioner`, laid out in ws.correction.

    D is the pointwise scaling (in its scale), sigma the shift c (1/dt +
    max(0, mean F_s)), and shift what the solve takes, laid out once: at
    n = 2 sigma + the symbol of -(1/4) Laplacian in symbol, where the
    Rayleigh quotient leaves the symbol, and at n = 1 the reciprocal of
    that sum, in inverse (through spectrum[1]).  tmp is scratch here and
    free again on return.
    """
    grid, backend, cor = ws.grid, ws.backend, ws.correction
    a, b, _ = cor.tmp
    s = comps_harmonic_mean(total, a, b, det)
    c = 1.0 / float(np.mean(np.divide(1.0, s, out=b)))
    kappa = dt * quarter_laplacian_rayleigh(R, grid, backend, b, cor.symbol, cor.spectrum)
    scale = np.add(s, kappa, out=cor.scale)
    np.divide(c + kappa, scale, out=scale)
    scale *= s
    sigma = c * (1.0 / dt + max(0.0, float(np.mean(fs))))
    if grid.n == 2:
        return scale, sigma, add_shift(sigma, cor.symbol)
    return scale, sigma, inverse_shifted_symbol(grid, backend, sigma, cor.inverse, cor.spectrum[1])


def _preconditioner(total, det, R, fs, dt, ws):
    """Right preconditioner matched to the Jacobian at the stiffness of R.

    With s = n / tr(w^-1) (the harmonic mean of w's eigenvalues), c the grid
    harmonic mean of s, l_R the Rayleigh quotient of R against -(1/4)
    Laplacian and kappa = dt l_R, the preconditioner is

        M^-1 r = (sigma - (1/4) Laplacian)^-1 (D r),
        sigma = c (1/dt + max(0, mean F_s)),  D = s (c + kappa) / (s + kappa).

    Frozen coefficients give J M^-1 = 1 at l = l_R at every point (F_s = 0).
    Where kappa << s, D -> c and M is the constant-coefficient operator
    1/dt - Laplacian/(4c) (1/dt - Laplacian/4 when w = I); where kappa >> s,
    D -> s and M follows the pointwise degeneracy of w at the cone's edge.
    The Laplacian is the one the backend's Hessian takes, which is what
    lets `_krylov_step` skip the Hessian at n = 1.

    det is det(w).  It is called as apply(r, out=None) and writes D r into
    out (a new array when omitted), where the solve also lands.  ws is the
    run's workspace; total, det, R and r are in its correction's dtype, and
    D and every product are kept in the correction (`_preconditioner_terms`).
    """
    grid, backend, cor = ws.grid, ws.backend, ws.correction
    spare, spectrum = cor.tmp[2], cor.spectrum
    scale, _, shift = _preconditioner_terms(total, det, R, fs, dt, ws)

    def apply(r, out=None):
        z = np.multiply(scale, r, out=out)
        return solve_shifted_laplacian(z, grid, backend, shift, z, spare, spectrum)

    return apply


def _krylov_step(total, det, R, fs, dt, ws):
    """BiCGSTAB's step(p, z, v) -> (M^-1 p, J M^-1 p) for one Newton iteration.

    J is `_jacobian` and M^-1 `_preconditioner`, at the same arguments; z
    and v receive the two.  At n = 2 the step applies M^-1 and then J.  At
    n = 1 the preconditioner solves (sigma - (1/4) Laplacian) z = D p with
    the Laplacian of the Hessian H, so H(z) = sigma z - D p and

        J z = z/dt + F_s z - H(z)/w = a z + b p,
        a = 1/dt + F_s - sigma/w,  b = D/w,

    with a and b laid out here, in ws.correction's tmp[0] and tmp[1]: the
    step takes no Hessian, and it agrees with the composition to rounding.
    Until the solve ends, the correction's tmp (which its hv shares) belongs
    to the step, so no `_jacobian` may run on ws meanwhile.
    """
    if ws.grid.n == 2:
        precond = _preconditioner(total, det, R, fs, dt, ws)
        jacobian = _jacobian(total, det, fs, dt, ws)

        def step(p, z, v):
            z = precond(p, z)
            return z, jacobian(z, v)

        return step
    grid, backend, spectrum = ws.grid, ws.backend, ws.correction.spectrum
    scale, sigma, shift = _preconditioner_terms(total, det, R, fs, dt, ws)
    a, b, spare = ws.correction.tmp
    w = total[0]
    np.divide(sigma, w, out=a)
    np.subtract(fs, a, out=a)
    a += 1.0 / dt
    np.divide(scale, w, out=b)

    def step(p, z, v):
        z = np.multiply(scale, p, out=z)
        z = solve_shifted_laplacian(z, grid, backend, shift, z, None, spectrum)
        v = np.multiply(a, z, out=v)
        v += np.multiply(b, p, out=spare)
        return z, v

    return step


def _lagrange_weights(nodes, t) -> list:
    """The l_j with p(t) = sum_j l_j p(nodes[j]) for every p of degree < len(nodes)."""
    return [
        math.prod((t - nodes[m]) / (nodes[j] - nodes[m]) for m in range(len(nodes)) if m != j)
        for j in range(len(nodes))
    ]


def _extrapolate(states, t, out, scratch):
    """The polynomial through the accepted states (t_j, u_j), newest last, at t, into out.

    The weights sum to one, so it is written as the newest values plus
    weighted differences from them; scratch holds each difference.
    """
    weights = _lagrange_weights([s for s, _ in states], t)
    newest = states[-1][1]
    np.copyto(out, newest)
    for weight, (_, vals) in zip(weights, states[:-1]):
        diff = np.subtract(vals, newest, out=scratch)
        diff *= weight
        out += diff
    return out


def _advance(prev_vals, t_from, t_to, path, F, log_om, cfg, coords, ws, history=()):
    """One backward-Euler step; returns (values, phidot_values, diagnostics).

    history holds the accepted states (t, values) before (t_from,
    prev_vals), oldest first.  With history, Newton starts from the
    polynomial through them and (t_from, prev_vals), evaluated at t_to
    (`_extrapolate`: linear after one state, quadratic after two), with its
    Hessian taken directly; a guess outside the positive cone falls back to
    prev_vals, whose Hessian is then taken directly too.  Without history
    Newton starts from prev_vals.  The diagnostics' start names which
    ("extrapolated", "fallback" or "previous").

    ws is the run's workspace (`_Workspace`).  On entry its h must be
    H(prev_vals) when history is empty and is free otherwise; the guess is
    written into ws.u[0] through ws.tmp[0].  On return h = H(values), the
    next step's warm start.  The Newton loop works in ws's arrays and
    copies nothing out: values is the accepted iterate, which ws hands
    over (`_Workspace.hand_over`; prev_vals itself after 0 iterations), and
    phidot_values is ws.rhs, valid until ws next evaluates a state.  So a
    call allocates at most the iterate slot it hands over, and none when
    the caller has recycled a state into ws.  log_om is log Omega.  Each
    correction is solved in ws.correction (`_Correction`), in its dtype;
    the residual, the cone tests and the iterates stay float64.
    """
    grid = path.grid
    dt = t_to - t_from
    if dt <= 0:
        raise ConfigError("time step must move forward")
    theta = path.theta(t_to)
    u, start = prev_vals, "previous"
    if history:
        u = _extrapolate((*history, (t_from, prev_vals)), t_to, ws.u[0], ws.tmp[0])
        ws.hessian(u)
        start = "extrapolated"
    margin = ws.margin(theta)
    if margin <= 0.0 and start == "extrapolated":
        u, start = prev_vals, "fallback"
        ws.hessian(u)
        margin = ws.margin(theta)
    if margin <= 0.0:
        raise _cone_exit(f"warm start leaves the positivity cone at t = {t_to:.6g}", ws.w, grid)
    residual = math.inf
    damping_min = 1.0
    linear_total = 0
    linear_worst = 0.0
    linear_converged = True
    iters = 0
    while True:
        det, rhs = ws.rhs_at(u, t_to, F, log_om, coords)
        residual = ws.step_residual(u, prev_vals, dt)
        if iters == 0:
            initial_residual = residual
        if residual <= cfg.newton_tol:
            break
        if iters >= cfg.max_newton:
            cause = "" if linear_converged else (
                f"; a linear solve did not converge (relative residual {linear_worst:.3e}"
                f" > {cfg.linear_rel_tol:g})"
            )
            loc = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(ws.R)), grid.shape))
            raise NewtonDivergedError(
                f"Newton stalled at residual {residual:.3e} at {loc} after {iters} "
                f"iterations{cause}",
                residual=residual,
                iterations=iters,
                linear_converged=linear_converged,
                location=loc,
            )
        fs = np.asarray(F.ds_at(t_to, coords, u), dtype=np.float64)
        # J correction = R; the Newton direction is -correction
        cor = ws.correction
        w, det_w, b = cor.operands(ws.w, det, ws.R)
        correction, lin_iters, lin_res, lin_ok = _bicgstab(
            _krylov_step(w, det_w, b, fs, dt, ws), b, cfg.linear_rel_tol, cfg.max_linear, cor.krylov
        )
        linear_total += lin_iters
        linear_worst = max(linear_worst, lin_res)
        linear_converged = linear_converged and lin_ok
        trial = ws.trial(u)
        lam = 1.0
        while True:
            np.subtract(u, np.multiply(correction, lam, out=trial), out=trial)
            ws.hessian(trial)
            t_margin = ws.margin(theta)
            if t_margin > 0.0:
                break
            lam *= 0.5
            if lam < cfg.min_damping:
                raise _cone_exit(
                    f"no damping factor >= {cfg.min_damping:.3g} keeps the step inside "
                    f"the cone at t = {t_to:.6g}",
                    ws.w,
                    grid,
                )
        damping_min = min(damping_min, lam)
        u, margin = trial, t_margin
        iters += 1
    diag = {
        "t": float(t_to),
        "dt": float(dt),
        "start": start,
        "newton_iters": iters,
        "initial_residual": initial_residual,
        "residual": residual,
        "positivity_margin": margin,
        "damping": damping_min,
        "linear_iters": linear_total,
        "linear_rel_residual": linear_worst,
        "linear_converged": linear_converged,
    }
    ws.hand_over(u)
    return u, rhs, diag


# ---------------------------------------------------------------------------
# full runs


class _MemoryStore:
    """`run`'s default snapshot store, which keeps every stored snapshot in memory.

    A snapshot store takes each stored snapshot as it is accepted, through
    add(index, t, phi, phidot): index is its schedule index, and phi and
    phidot are grid-shaped float64 arrays (phidot None where the
    right-hand side is undefined).  They are the run's own arrays, which
    the run overwrites once add returns, so a store reads them during the
    call only and makes any field it keeps a copy; a read-only array (phi0's
    values) does not change and may be kept as it is.  A kept field must
    be finite, as a ScalarField is.  The store's fields and phidots are the
    trajectory's sequences of what it took.  io.ArchiveStore writes each
    snapshot to disk instead.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        self.fields, self.phidots = [], []

    def add(self, index: int, t: float, phi: np.ndarray, phidot: np.ndarray | None):
        self.fields.append(self._kept(phi))
        self.phidots.append(None if phidot is None else self._kept(phidot))

    def _kept(self, values) -> ScalarField:
        return ScalarField(self.grid, values.copy() if values.flags.writeable else values)


def stored_steps(cfg: FlowConfig, times=None) -> np.ndarray:
    """Which points of the schedule (schedule_times(cfg) unless given) a run stores.

    t = 0, the horizon, every store_every-th point and the points nearest
    the probes.
    """
    times = schedule_times(cfg) if times is None else times
    keep = np.zeros(len(times), dtype=bool)
    keep[0] = keep[-1] = True
    keep[:: cfg.store_every] = True
    for p in cfg.probes:
        keep[int(np.argmin(np.abs(times - p)))] = True
    return keep


# The most bytes of arrays `maflow run` or `maflow verify` lets one document
# hold at once, as `peak_array_bytes` estimates them.  A 32^4 n = 2 run holds
# about 143 MB; a 64^4 one would hold about 2.3 GB, and a 128^4 one about
# 37 GB.
ARRAY_BUDGET = 2 * 2**30
# Grid fields a run holds beside its workspace and correction: phi0 and the
# two states its ring holds beyond the workspace's slots.
RUN_FIELDS = 3
# Grid fields an audit holds beside its workspace: the snapshot it builds,
# the one before it and its phidot.
AUDIT_FIELDS = 3


def _buffer_bytes(grid: TorusGrid) -> int:
    """The bytes of the buffer numpy iterates a float64 operation on a broadcast operand in.

    Subtracting log Omega of a volume that varies along one axis takes one
    of np.getbufsize() elements, or of the grid's size when that is smaller.
    """
    return 8 * min(math.prod(grid.shape), np.getbufsize())


def audit_array_bytes(grid: TorusGrid) -> int:
    """About the most bytes of grid-sized arrays that a `TrajectoryAudit` on grid holds.

    It holds a workspace without iterates and AUDIT_FIELDS fields more, and
    evaluates in numpy's buffer (`_buffer_bytes`); the energy takes its
    scratch from the workspace.
    """
    field = 8 * math.prod(grid.shape)
    return _Workspace.nbytes(grid, iterates=False) + AUDIT_FIELDS * field + _buffer_bytes(grid)


def peak_array_bytes(grid: TorusGrid, kept_fields: int = 0) -> int:
    """About the most bytes of grid-sized arrays that a run on grid and its audit hold at once.

    The run holds its `_Workspace`, the arrays its `_Correction` makes
    (none in float32, where the correction lies in the workspace),
    RUN_FIELDS fields more and numpy's buffer; the audit, which comes after
    it, holds `audit_array_bytes`.  kept_fields fields, the snapshots a mode
    keeps in memory, are held through both, so the estimate is the larger
    phase plus them.  A check that runs flows of its own (stability,
    uniqueness, transform-roundtrip) holds more than this.
    """
    field = 8 * math.prod(grid.shape)
    correction = _Correction.nbytes(grid, correction_dtype(grid))
    run_phase = _Workspace.nbytes(grid) + correction + RUN_FIELDS * field + _buffer_bytes(grid)
    return max(run_phase, audit_array_bytes(grid)) + kept_fields * field


def run(
    phi0: ScalarField,
    path: MetricPath,
    F: DrivingTerm,
    omega_form: VolumeForm,
    cfg: FlowConfig,
    store=None,
) -> FlowTrajectory:
    """Integrate the flow from smooth (or at worst Lipschitz) initial data.

    Initial data must be admissible for theta(0) up to the psh tolerance at
    the configured backend; rough singular data go through run_cascade.  The
    driving term's declared bounds are audited over [0, horizon] and phi0's
    range, padded by 1 + half its oscillation (`verify_declared_bounds`).  The
    run makes one `_Workspace`, warm-started with H(phi0), passes it to every
    step and drops it on return.  Each step gets the two accepted states
    before its start as history, so Newton starts from the extrapolation
    through them and its start (`_advance`).  After a step that started from
    its last state and took at most one Newton iteration, the next step
    starts from its last state too, and extrapolation resumes once a step
    needs more.

    The states are one fixed set of arrays: each step hands its accepted
    iterate over, and the state that leaves the history with that step is
    recycled into the workspace as the slot to refill, unless it is phi0's
    (read-only) values or the history or the last state still holds it
    (a step of 0 Newton iterations returns its start).  After its third
    step a run allocates no state-sized array.  Each stored snapshot goes
    to store (by default one in memory) when its step is accepted, as the
    run's own arrays, so no workspace array reaches the trajectory;
    unstored steps copy nothing.
    """
    grid = phi0.grid
    if path.grid is not grid and path.grid != grid:
        raise ConfigError("initial data and metric path live on different grids")
    if cfg.horizon > path.horizon * (1 + 1e-12):
        raise ConfigError("flow horizon exceeds the metric path horizon")
    notices = []
    ws = _Workspace(grid, cfg.backend)
    ws.hessian(phi0.values)  # the first step's warm start
    margin0 = ws.margin(path.theta(0.0))
    if margin0 < -PSH_TOL:
        raise _cone_exit("initial data inadmissible for theta(0)", ws.w, grid)
    coords = grid.coordinates()
    log_om = omega_form.log()
    lo = float(phi0.values.min())
    hi = float(phi0.values.max())
    pad = 1.0 + 0.5 * (hi - lo)
    F.verify_declared_bounds(grid, (0.0, cfg.horizon), (lo - pad, hi + pad))

    times = schedule_times(cfg)
    keep = stored_steps(cfg, times)
    store = _MemoryStore(grid) if store is None else store
    phidot0 = None  # else ws.rhs, which the first step overwrites
    if margin0 > 0.0:
        phidot0 = ws.rhs_at(phi0.values, 0.0, F, log_om, coords)[1]
    else:
        notices.append("right-hand side undefined at t = 0 (cone boundary); phidot omitted there")
    store.add(0, 0.0, phi0.values, phidot0)
    stored_times = [0.0]
    stored_indices = [0]
    diagnostics = []
    vals = phi0.values
    history = []  # the accepted states before vals, oldest first
    extrapolate = False
    for k in range(1, len(times)):
        if len(history) == 2:
            # the oldest state leaves the history with this step, once read
            leaving = history[0][1]
            if leaving.flags.writeable and leaving is not history[1][1] and leaving is not vals:
                ws.recycle(leaving)
        new_vals, phidot_vals, diag = _advance(
            vals, times[k - 1], times[k], path, F, log_om, cfg, coords, ws,
            history if extrapolate else (),
        )
        history = [*history[-1:], (times[k - 1], vals)]
        # a step that one Newton iteration solved from its last state leaves
        # no room for a better start, so the next one starts there as well
        extrapolate = diag["start"] == "extrapolated" or diag["newton_iters"] > 1
        vals = new_vals
        diagnostics.append(diag)
        if keep[k]:
            stored_times.append(float(times[k]))
            store.add(k, float(times[k]), vals, phidot_vals)
            stored_indices.append(k)
    return FlowTrajectory(
        grid=grid,
        times=np.asarray(stored_times),
        fields=store.fields,
        phidots=store.phidots,
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
    Outside the positive cone both residual columns are infinite.  Every
    build evaluates the snapshot in the audit's one `_Workspace`, as a
    Newton iterate is evaluated (a workspace without iterates), and keeps
    no array of its own but the last snapshot it built, so builds in order
    read a trajectory on disk once;
    it reads a snapshot's phidot only for "phidot_range".
    certificate() is the metric path's volume-sandwich delta
    (geometry.certify_metric_path), computed once.
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
        self._ws = _Workspace(traj.grid, self.backend, iterates=False)
        # the energy's densities and scratch: tmp's reals (the second is rhs,
        # which `rhs_at` writes after) and, at n = 2, h's h12, as h is free
        # once `margin` has built w
        ws = self._ws
        self._energy_work = ws.tmp[:1] if traj.grid.n == 1 else (*ws.tmp[:2], ws.h[2])
        self._last = (None, None)  # (k, field) of the last build
        self._log_om = omega_form.log() if {"phidot_range", "step_residual"} & self.columns else None

    def row(self, k: int) -> dict:
        """{"margin": cone margin, column: value, ...} of stored snapshot k."""
        if k not in self._rows:
            self._rows[k] = self._build(k)
        return self._rows[k]

    def _build(self, k: int) -> dict:
        traj, ws, cols = self.traj, self._ws, self.columns
        t, fld = float(traj.times[k]), traj.fields[k]
        theta = self.path.theta(t)
        ws.hessian(fld.values)
        row = {"margin": ws.margin(theta)}
        if "sup-trace" in cols:
            row["sup-trace"] = float(np.max(comps_trace(ws.w, ws.tmp[0])))
        if "energy" in cols:
            try:
                work = self._energy_work
                row["energy"] = psh.energy(theta, fld, self.backend, ws.w, row["margin"], work)
            except NotKahlerError:
                row["energy"] = None
        rhs = None
        if row["margin"] > 0.0 and {"phidot_range", "step_residual"} & cols:
            rhs = ws.rhs_at(fld.values, t, self.F, self._log_om, traj.grid.coordinates())[1]
        if "phidot_range" in cols:
            row["phidot_range"] = None
            pd = traj.phidots[k]
            if pd is not None and rhs is None:
                row["phidot_range"] = (-math.inf, math.inf)
            elif pd is not None:
                r = np.subtract(pd.values, rhs, out=ws.tmp[0])
                row["phidot_range"] = (float(r.min()), float(r.max()))
        if "step_residual" in cols:
            row["step_residual"] = None
            consecutive = k > 0 and traj.stored_indices[k] - traj.stored_indices[k - 1] == 1
            if consecutive and rhs is None:
                row["step_residual"] = math.inf
            elif consecutive:
                dt = traj.times[k] - traj.times[k - 1]
                prev = self._last[1] if self._last[0] == k - 1 else traj.fields[k - 1]
                row["step_residual"] = ws.step_residual(fld.values, prev.values, dt)
        self._last = (k, fld)
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
    return {"max_residual": worst, "pairs": len(steps), "tol": tol}


def instantaneous_residuals(traj: FlowTrajectory, path, F, omega_form) -> dict:
    """phidot - RHS per snapshot, recomputed from the fields alone.

    Meaningful for analytic families and transformed/pulled-back
    trajectories, where phidot is supplied rather than defined as the RHS.
    per_snapshot is sup |phidot - RHS| (nan without a phidot) and
    max_residual the largest of them; range is the signed (min, max) over
    the snapshots with a phidot, and cone_violation_at the time of the first
    of them outside the positive cone (None if there is none), where the
    residual is inf and the range (-inf, inf).
    """
    audit = TrajectoryAudit(traj, path, F, omega_form, columns=("phidot_range",))
    out, lo, hi, exit_t = [], math.inf, -math.inf, None
    for k, (t, pd) in enumerate(zip(traj.times, traj.phidots)):
        if pd is None:
            out.append(math.nan)
            continue
        r_lo, r_hi = audit.value(k, "phidot_range")
        out.append(max(abs(r_lo), abs(r_hi)))
        lo, hi = min(lo, r_lo), max(hi, r_hi)
        if exit_t is None and audit.row(k)["margin"] <= 0.0:
            exit_t = float(t)
    finite = [v for v in out if not math.isnan(v)]
    return {
        "per_snapshot": out,
        "max_residual": max(finite) if finite else math.nan,
        "range": (lo, hi),
        "cone_violation_at": exit_t,
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
    horizon.  Each level's `run` audits the driving term's declared bounds.
    """
    grid = path.grid
    if not phi0.flow_admissible():
        raise ConfigError(
            f"potential tag {phi0.tag!r} is not admissible as flow data"
        )
    ladder = mollify_decreasing(phi0, schedule, grid)
    trajectories = [run(level, path, F, omega_form, cfg) for level in ladder.levels]

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
        lambda t: tuple(math.exp(rate * t) * a for a in path.theta(tau(t))),
        lambda t: tuple(
            rate * math.exp(rate * t) * a + b
            for a, b in zip(path.theta(tau(t)), path.theta_dot(tau(t)))
        ),
        meta={"transform_rate": rate, "base_kind": path.kind},
    )
    driving = DrivingTerm(
        name=f"{F.name}+{kind}",
        fn=fn,
        ds=ds,
        defect=defect,
        time_bound=None,
        smooth=F.smooth,
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
        e = math.exp(-A * t)
        cand = tuple(A * a + e * b for a, b in zip(path.theta(tau), path.theta_dot(tau)))
        mono = min(mono, cone_margin(cand))
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
        witness = run(phi0, path0, F, omega_form, cfg)
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
