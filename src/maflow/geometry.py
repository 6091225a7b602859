"""Kahler-side algebra: volume forms, metric paths, determinants and traces.

Everything is phrased against the flat reference form omega = identity, so a
"form" is a Hermitian matrix field and wedge-power ratios become determinant
and mixed-determinant ratios, which have closed forms for n <= 2.

This is the one module that knows the n <= 2 component layout (h11,) or
(h11, h22, h12) beyond storing it: the flow, the potentials and the checks
build theta_t + dd^c phi with `kahler_form`, test the positive cone with
`cone_margin` (`lowest_eigenvalue` also names the worst grid point) and take
traces with `comps_trace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NotKahlerError
from .grid import HermitianField, ScalarField, TorusGrid, hessian_components

PSD_TOL = 1e-10
PATH_SAMPLES = 64  # equispaced times at which certify_metric_path samples a path


# ---------------------------------------------------------------------------
# component-level helpers (shared by field ops and the flow hot path)


def comps_det(comps):
    if len(comps) == 1:
        return comps[0]
    h11, h22, h12 = comps
    return h11 * h22 - np.abs(h12) ** 2


def comps_eig_min(comps):
    if len(comps) == 1:
        return comps[0]
    h11, h22, h12 = comps
    mid = 0.5 * (h11 + h22)
    rad = np.sqrt(0.25 * (h11 - h22) ** 2 + np.abs(h12) ** 2)
    return mid - rad


def comps_trace(comps):
    if len(comps) == 1:
        return comps[0]
    return comps[0] + comps[1]


def comps_harmonic_mean(comps):
    """n / tr(w^-1), the harmonic mean of the eigenvalues of a positive definite w."""
    if len(comps) == 1:
        return comps[0]
    return 2.0 * comps_det(comps) / comps_trace(comps)


def cone_margin(comps) -> float:
    """Smallest eigenvalue over the grid; positive means inside the positive cone."""
    return float(np.min(comps_eig_min(comps)))


def kahler_form(theta: HermitianField, values, grid: TorusGrid, backend: str, hessian=None):
    """(theta + H(values), H(values)) as component tuples.

    hessian, when given, is H(values) already computed (a warm start); values
    is then not read and may be None.
    """
    if hessian is None:
        hessian = hessian_components(values, grid, backend)
    return tuple(th + hc for th, hc in zip(theta.components(), hessian)), hessian


def comps_trace_inv(base, alpha):
    """trace(base^{-1} alpha) for Hermitian component tuples; base must be PD."""
    if len(base) == 1:
        return alpha[0] / base[0]
    b11, b22, b12 = base
    a11, a22, a12 = alpha
    det = b11 * b22 - np.abs(b12) ** 2
    return (b22 * a11 + b11 * a22 - 2.0 * np.real(np.conj(b12) * a12)) / det


def comps_mixed(alpha, beta, j, n):
    """Mixed determinant density of alpha^j wedge beta^(n-j), closed form for n <= 2."""
    if not 0 <= j <= n:
        raise ConfigError(f"mixed index j={j} outside 0..{n}")
    if n == 1:
        return alpha[0] if j == 1 else beta[0]
    if j == 2:
        return comps_det(alpha)
    if j == 0:
        return comps_det(beta)
    a11, a22, a12 = alpha
    b11, b22, b12 = beta
    return 0.5 * (a11 * b22 + a22 * b11 - 2.0 * np.real(a12 * np.conj(b12)))


def lowest_eigenvalue(comps, grid_shape):
    """(lowest eigenvalue over the grid, its grid index); ties go to the first point."""
    eig = np.broadcast_to(comps_eig_min(comps), grid_shape)
    flat = int(np.argmin(eig))
    return float(eig.flat[flat]), tuple(int(i) for i in np.unravel_index(flat, grid_shape))


# ---------------------------------------------------------------------------
# volume forms


@dataclass(frozen=True)
class VolumeForm:
    """Strictly positive density against the Lebesgue volume of the torus."""

    grid: TorusGrid
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.density, dtype=np.float64)
        try:
            np.broadcast_shapes(d.shape, self.grid.shape)
        except ValueError:
            raise ConfigError("volume density not broadcastable to the grid") from None
        if not np.all(np.isfinite(d)) or d.min() <= 0.0:
            raise ConfigError("volume density must be finite and strictly positive")
        d = np.ascontiguousarray(d)
        d.flags.writeable = False
        object.__setattr__(self, "density", d)

    @classmethod
    def constant(cls, grid: TorusGrid, value: float = 1.0) -> "VolumeForm":
        return cls(grid, np.float64(value))

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "VolumeForm":
        return cls(grid, np.broadcast_to(fn(*grid.coordinates()), grid.shape).copy())

    def log(self) -> np.ndarray:
        return np.log(self.density)


# ---------------------------------------------------------------------------
# pointwise operations


def ma_density(
    theta: HermitianField,
    phi: ScalarField,
    omega_form: VolumeForm,
    backend: str = "spectral",
) -> ScalarField:
    """Monge-Ampere density (theta + H(phi))^n / Omega as a scalar field.

    Raises NotKahlerError (with the worst grid point) when theta + H(phi)
    fails to be positive definite somewhere.
    """
    total, _ = kahler_form(theta, phi.values, phi.grid, backend)
    worst, loc = lowest_eigenvalue(total, phi.grid.shape)
    if worst <= 0.0:
        raise NotKahlerError(
            f"metric form not positive definite: min eigenvalue {worst:.3e} at {loc}",
            location=loc,
            eigenvalue=worst,
        )
    dens = comps_det(total) / np.broadcast_to(omega_form.density, phi.grid.shape)
    return ScalarField(phi.grid, np.broadcast_to(dens, phi.grid.shape))


def _trace_slacks(wp, w, n):
    """Left and right slacks of the trace/determinant chain on component tuples."""
    ratio = comps_det(wp) / comps_det(w)
    tr_w_wp = np.real(comps_trace_inv(w, wp))
    lower = tr_w_wp / n - ratio ** (1.0 / n)
    upper = ratio * np.real(comps_trace_inv(wp, w)) ** (n - 1) - tr_w_wp / n
    return lower, upper


def trace_inequality_slacks(omega_prime_mats: np.ndarray, omega_mats: np.ndarray):
    """Slacks of the two-sided trace/determinant inequality on matrix stacks.

    For positive definite Hermitian pairs (w', w) the chain

        (det w' / det w)^(1/n)  <=  tr_w(w') / n  <=  (det w'/det w) * tr_{w'}(w)^(n-1)

    holds pointwise.  Input arrays have shape (..., n, n); the two returned
    arrays are the left and right slacks (nonnegative in exact arithmetic).
    """
    def comps(m):
        m = np.asarray(m)
        if m.shape[-1] == 1:
            return (m[..., 0, 0].real,)
        return (m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1])

    return _trace_slacks(comps(omega_prime_mats), comps(omega_mats), omega_mats.shape[-1])


def check_trace_inequality(omega_prime: HermitianField, omega: HermitianField) -> dict:
    """Grid-wide audit of the trace/determinant inequality chain.

    Returns the minimal left and right slacks and a pass flag at tolerance
    -1e-10 (slacks may round slightly negative for near-degenerate pairs).
    """
    for name, f in (("omega_prime", omega_prime), ("omega", omega)):
        worst = cone_margin(f.components())
        if worst <= 0.0:
            raise NotKahlerError(f"{name} is not positive definite (min eig {worst:.3e})")
    lower, upper = _trace_slacks(omega_prime.components(), omega.components(), omega.grid.n)
    lo, up = float(np.min(lower)), float(np.min(upper))
    return {
        "slack_lower": lo,
        "slack_upper": up,
        "passes": lo >= -PSD_TOL and up >= -PSD_TOL,
    }


# ---------------------------------------------------------------------------
# metric paths


class MetricPath:
    """Time-dependent family of Hermitian reference forms theta_t on [0, T].

    Kinds:
      constant : theta_t = theta (default: the reference identity form)
      affine   : theta_t = omega + t * chi with a constant Hermitian chi
      nef      : theta_t = theta0 + t * omega with constant PSD theta0
      custom   : arbitrary callables (used by the time-rescaling transforms,
                 possibly space-varying)
    """

    def __init__(self, grid, horizon, kind, theta_fn, theta_dot_fn, meta=None):
        if horizon <= 0:
            raise ConfigError(f"path horizon must be positive, got {horizon}")
        self.grid = grid
        self.horizon = float(horizon)
        self.kind = kind
        self._theta_fn = theta_fn
        self._theta_dot_fn = theta_dot_fn
        self.meta = dict(meta or {})

    def theta(self, t: float) -> HermitianField:
        return self._theta_fn(float(t))

    def theta_dot(self, t: float) -> HermitianField:
        return self._theta_dot_fn(float(t))

    @classmethod
    def constant(cls, grid: TorusGrid, horizon: float, matrix=None) -> "MetricPath":
        theta = (
            HermitianField.identity(grid)
            if matrix is None
            else HermitianField.from_matrix(grid, matrix)
        )
        zero = HermitianField.identity(grid, 0.0)
        return cls(grid, horizon, "constant", lambda t: theta, lambda t: zero)

    @classmethod
    def affine(cls, grid: TorusGrid, horizon: float, chi) -> "MetricPath":
        chi_f = HermitianField.from_matrix(grid, chi)
        ident = HermitianField.identity(grid)
        return cls(
            grid,
            horizon,
            "affine",
            lambda t: ident + chi_f.scaled(t),
            lambda t: chi_f,
            meta={"chi": np.asarray(chi, dtype=complex).tolist()},
        )

    @classmethod
    def nef(cls, grid: TorusGrid, horizon: float, theta0, eps: float = 0.0) -> "MetricPath":
        base = HermitianField.from_matrix(grid, theta0)
        if cone_margin(base.components()) < -PSD_TOL:
            raise ConfigError("nef path requires a positive semidefinite theta0")
        ident = HermitianField.identity(grid)
        return cls(
            grid,
            horizon,
            "nef",
            lambda t: base + ident.scaled(t + eps),
            lambda t: ident,
            meta={"theta0": np.asarray(theta0, dtype=complex).tolist(), "eps": eps},
        )

    @classmethod
    def from_callables(cls, grid, horizon, theta_fn, theta_dot_fn, meta=None) -> "MetricPath":
        return cls(grid, horizon, "custom", theta_fn, theta_dot_fn, meta)


@dataclass
class PathCertificate:
    """Sampled evidence for the standing assumptions on a metric path.

    All margins are computed on a finite time sample and adjusted by a
    first-order Lipschitz allowance derived from |theta_dot|; this is a
    certificate in the audit sense, not a proof.
    """

    kind: str
    samples: int
    sandwich_margin: float        # min eig of theta - omega/2 and 2*omega - theta
    monotone_margin: float        # min eig of theta - t * theta_dot
    delta: float                  # volume sandwich delta^-1 Omega <= theta^n <= delta Omega
    lipschitz_allowance: float
    nef_floor: float | None
    passed: bool


def certify_metric_path(path: MetricPath, omega_form: VolumeForm) -> PathCertificate:
    """Sample the standing assumptions along the path and report margins.

    Checks, at PATH_SAMPLES equispaced times covering [0, horizon]:
      * the metric sandwich omega/2 <= theta_t <= 2*omega,
      * monotone-compatibility theta_t - t * theta_dot_t >= 0,
      * the volume sandwich, recording the smallest admissible delta.

    The sandwich margins are reduced by L * dt / 2 where L bounds the sampled
    operator norm of theta_dot (first-order in-between-samples allowance).
    The nef kind is exempt from the lower sandwich bound at small times and
    reports the eigenvalue floor of theta(0) instead.
    """
    grid = path.grid
    ts = np.linspace(0.0, path.horizon, PATH_SAMPLES)
    sandwich = math.inf
    monotone = math.inf
    delta = 1.0
    lip = 0.0
    dens = np.broadcast_to(omega_form.density, grid.shape)
    for t in ts:
        th = path.theta(t)
        thd = path.theta_dot(t)
        lo = cone_margin((th - HermitianField.identity(grid, 0.5)).components())
        hi = cone_margin((HermitianField.identity(grid, 2.0) - th).components())
        if path.kind == "nef":
            sandwich = min(sandwich, hi)
        else:
            sandwich = min(sandwich, lo, hi)
        mono = cone_margin((th - thd.scaled(t)).components())
        monotone = min(monotone, mono)
        det = np.broadcast_to(comps_det(th.components()), grid.shape)
        if det.min() > 0:
            delta = max(delta, float((det / dens).max()), float((dens / det).max()))
        else:
            delta = math.inf
        lip = max(lip, float(np.max(np.abs(comps_eig_min(thd.components())))),
                  float(np.max(np.abs(comps_trace(thd.components())))))
    allowance = lip * (ts[1] - ts[0]) / 2.0
    nef_floor = None
    if path.kind == "nef":
        nef_floor = cone_margin(path.theta(0.0).components())
    passed = (
        sandwich - allowance >= -PSD_TOL
        and monotone >= -PSD_TOL
        and math.isfinite(delta)
    )
    return PathCertificate(
        kind=path.kind,
        samples=PATH_SAMPLES,
        sandwich_margin=sandwich - allowance,
        monotone_margin=monotone,
        delta=delta,
        lipschitz_allowance=allowance,
        nef_floor=nef_floor,
        passed=passed,
    )

