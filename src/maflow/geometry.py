"""Kahler-side algebra: forms, volume forms, metric paths, determinants, traces.

Everything is phrased against the flat reference form omega = identity, so a
"form" is a Hermitian matrix field and wedge-power ratios become determinant
and mixed-determinant ratios, which have closed forms for n <= 2.

A form is its component tuple: (h11,) at n = 1, (h11, h22, h12) at n = 2,
with h11 and h22 the real diagonal entries and h12 the complex entry above
the diagonal (the lower triangle is implied).  A component is a grid-shaped
array or a scalar (a spatially constant entry) and broadcasts against the
grid.  This module builds forms (`identity_form`, `form_from_matrix`, the
`MetricPath` families) and holds all of their algebra: the flow, the
potentials and the checks add theta_t to a Hessian taken by
grid.hessian_components with `kahler_form` (no grid derivative is taken
here), test the positive cone with `cone_margin` (`lowest_eigenvalue` also
names the worst grid point) and take traces with `comps_trace`; at n = 2
`comps_trace_inv` and `comps_mixed` share one kernel, the pairing x11 y22 +
x22 y11 - 2 Re(x12 conj(y12)) of two forms.
`certify_metric_path` samples a metric path's volume sandwich and returns
its delta, the one path fact the checks read.

The grid-shaped algebra (`comps_det`, `comps_eig_min`, `cone_margin`,
`comps_trace`, `comps_trace_inv`, `comps_harmonic_mean`, `kahler_form`)
takes optional output arrays: out for the result, scratch for partial
products, none aliasing an input unless the docstring allows it.  Called
without them a function returns new arrays; called with them it returns its
result and may write it there, with the same bits either way.  Callers use
the returned value: a result that is an input component (n = 1's
determinant, eigenvalue and harmonic mean) comes back unwritten, and so do
the determinant and eigenvalue of a constant form (scalar components),
which stay scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import TorusGrid

PSD_TOL = 1e-10
PATH_SAMPLES = 64  # equispaced times at which certify_metric_path samples a path


# ---------------------------------------------------------------------------
# forms as component tuples


def identity_form(n: int, scale: float = 1.0) -> tuple:
    """scale * I as a spatially constant form."""
    if n == 1:
        return (np.float64(scale),)
    return (np.float64(scale), np.float64(scale), np.complex128(0.0))


def form_from_matrix(mat, n: int) -> tuple:
    """Spatially constant form from an n x n matrix (Hermitian part taken)."""
    m = np.asarray(mat, dtype=np.complex128)
    if m.shape != (n, n):
        raise ConfigError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    m = 0.5 * (m + m.conj().T)
    if n == 1:
        return (m[0, 0].real,)
    return (m[0, 0].real, m[1, 1].real, m[0, 1])


def _square(x, out):
    # x ** 2 rounds as np.square on arrays, but through C pow on numpy scalars
    return x ** 2 if out is None else np.square(x, out=out)


def _constant(comps) -> bool:
    return all(np.ndim(c) == 0 for c in comps)


def comps_det(comps, out=None, scratch=None):
    """det w: h11 h22 - |h12|^2 at n = 2, h11 itself at n = 1.  scratch holds |h12|^2."""
    if len(comps) == 1:
        return comps[0]
    if _constant(comps):
        out = scratch = None
    h11, h22, h12 = comps
    sq = _square(np.abs(h12, out=scratch), scratch)
    return np.subtract(np.multiply(h11, h22, out=out), sq, out=out)


def comps_eig_min(comps, out=None, scratch=None):
    """The lowest eigenvalue (h11 + h22)/2 - sqrt((h11 - h22)^2/4 + |h12|^2)."""
    if len(comps) == 1:
        return comps[0]
    if _constant(comps):
        out = scratch = None
    h11, h22, h12 = comps
    rad = np.multiply(0.25, _square(np.subtract(h11, h22, out=out), out), out=out)
    rad = np.add(rad, _square(np.abs(h12, out=scratch), scratch), out=out)
    rad = np.sqrt(rad, out=out)
    mid = np.multiply(0.5, np.add(h11, h22, out=scratch), out=scratch)
    return np.subtract(mid, rad, out=out)


def comps_trace(comps, out=None):
    if len(comps) == 1:
        return comps[0]
    return np.add(comps[0], comps[1], out=out)


def comps_harmonic_mean(comps, out=None, scratch=None, det=None):
    """n / tr(w^-1), the harmonic mean of the eigenvalues of a positive definite w.

    det, when given, is comps_det(comps), already computed.
    """
    if len(comps) == 1:
        return comps[0]
    if det is None:
        det = comps_det(comps, out, scratch)
    s = np.multiply(2.0, det, out=out)
    return np.divide(s, comps_trace(comps, scratch), out=out)


def cone_margin(comps, out=None, scratch=None) -> float:
    """Smallest eigenvalue over the grid; positive means inside the positive cone."""
    return float(np.min(comps_eig_min(comps, out, scratch)))


def kahler_form(theta, hessian, out=None):
    """theta + H(phi) as a component tuple; theta is a form and hessian is H(phi)."""
    out = out or (None,) * len(theta)
    return tuple(np.add(th, hc, out=o) for th, hc, o in zip(theta, hessian, out))


def _pairing(x, y, out=None, real=None, cplx=None):
    """x11 y22 + x22 y11 - 2 Re(x12 conj(y12)), or det(x + y) - det x - det y, at n = 2.

    x22 y11 goes into real and conj(y12) into cplx, each once y's entry is
    read, so either may be y's own array; a constant y12 stays a scalar.
    """
    x11, x22, x12 = x
    y11, y22, y12 = y
    pair = np.multiply(x11, y22, out=out)
    pair = np.add(pair, np.multiply(x22, y11, out=real), out=out)
    prod = np.multiply(x12, np.conjugate(y12, out=cplx if np.ndim(y12) else None), out=cplx)
    return np.subtract(pair, np.multiply(2.0, prod.real, out=real), out=out)


def comps_trace_inv(base, alpha, out=None, scratch=None, det=None):
    """trace(base^{-1} alpha) for Hermitian component tuples; base must be PD.

    At n = 2 it is `_pairing(base, alpha)` / det(base); det, when given, is
    comps_det(base), computed once for many alphas.  scratch is a real and a
    complex array, as in comps_mixed, and may be alpha's h11 or h22 and its
    h12, which are then overwritten.
    """
    if len(base) == 1:
        return np.divide(alpha[0], base[0], out=out)
    det = comps_det(base) if det is None else det
    return np.divide(_pairing(base, alpha, out, *(scratch or ())), det, out=out)


def comps_mixed(alpha, beta, j, n, out=None, scratch=None):
    """Mixed determinant density of alpha^j wedge beta^(n-j), closed form for n <= 2.

    At n = 2 and j = 1 it is `_pairing(alpha, beta)` / 2.  scratch is a real
    and a complex array for the partial products; the determinants (j = 0,
    2) use only the real one.
    """
    if not 0 <= j <= n:
        raise ConfigError(f"mixed index j={j} outside 0..{n}")
    if n == 1:
        return alpha[0] if j == 1 else beta[0]
    real, cplx = scratch or (None, None)
    if j != 1:
        return comps_det(alpha if j == 2 else beta, out, real)
    if _constant((*alpha, *beta)):
        out = real = cplx = None
    return np.multiply(_pairing(alpha, beta, out, real, cplx), 0.5, out=out)


def lowest_eigenvalue(comps, grid_shape):
    """(lowest eigenvalue over the grid, its grid index); ties go to the first point."""
    eig = np.broadcast_to(comps_eig_min(comps), grid_shape)
    flat = int(np.argmin(eig))
    return float(eig.flat[flat]), tuple(int(i) for i in np.unravel_index(flat, grid_shape))


# ---------------------------------------------------------------------------
# volume forms


@dataclass(frozen=True)
class VolumeForm:
    """Strictly positive density against the Lebesgue volume of the torus.

    density is kept at the shape it is given, which must broadcast to the
    grid's: a density that varies along one axis holds N values, not the
    grid's N^(2n), and so does log().
    """

    grid: TorusGrid
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.density, dtype=np.float64)
        try:
            fits = np.broadcast_shapes(d.shape, self.grid.shape) == self.grid.shape
        except ValueError:
            fits = False
        if not fits:
            raise ConfigError("volume density not broadcastable to the grid")
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
        """fn of the grid's coordinates, at the broadcast shape it returns."""
        return cls(grid, np.array(fn(*grid.coordinates()), dtype=np.float64))

    def log(self) -> np.ndarray:
        return np.log(self.density)


# ---------------------------------------------------------------------------
# the trace/determinant inequality


def trace_inequality_slacks(omega_prime_mats: np.ndarray, omega_mats: np.ndarray):
    """Slacks of the two-sided trace/determinant inequality on matrix stacks.

    For positive definite Hermitian pairs (w', w) the chain

        (det w' / det w)^(1/n)  <=  tr_w(w') / n  <=  (det w'/det w) * tr_{w'}(w)^(n-1)

    holds pointwise.  Input arrays have shape (..., n, n), read by their
    diagonal and upper triangle (no Hermitian part is taken); the two
    returned arrays are the left and right slacks (nonnegative in exact
    arithmetic).
    """
    def comps(m):
        m = np.asarray(m)
        if m.shape[-1] == 1:
            return (m[..., 0, 0].real,)
        return (m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1])

    wp, w, n = comps(omega_prime_mats), comps(omega_mats), omega_mats.shape[-1]
    ratio = comps_det(wp) / comps_det(w)
    tr_w_wp = np.real(comps_trace_inv(w, wp))
    lower = tr_w_wp / n - ratio ** (1.0 / n)
    upper = ratio * np.real(comps_trace_inv(wp, w)) ** (n - 1) - tr_w_wp / n
    return lower, upper


# ---------------------------------------------------------------------------
# metric paths


class MetricPath:
    """Time-dependent family of reference forms theta_t on [0, T].

    theta(t) and theta_dot(t) return forms (component tuples).

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

    def theta(self, t: float) -> tuple:
        return self._theta_fn(float(t))

    def theta_dot(self, t: float) -> tuple:
        return self._theta_dot_fn(float(t))

    @classmethod
    def constant(
        cls, grid: TorusGrid, horizon: float, matrix: list[list[float]] | None = None
    ) -> "MetricPath":
        theta = identity_form(grid.n) if matrix is None else form_from_matrix(matrix, grid.n)
        zero = identity_form(grid.n, 0.0)
        return cls(grid, horizon, "constant", lambda t: theta, lambda t: zero)

    @classmethod
    def affine(cls, grid: TorusGrid, horizon: float, chi: list[list[float]]) -> "MetricPath":
        chi_f = form_from_matrix(chi, grid.n)
        ident = identity_form(grid.n)
        return cls(
            grid,
            horizon,
            "affine",
            lambda t: tuple(i + t * c for i, c in zip(ident, chi_f)),
            lambda t: chi_f,
            meta={"chi": np.asarray(chi, dtype=complex).tolist()},
        )

    @classmethod
    def nef(cls, grid: TorusGrid, horizon: float, theta0, eps: float = 0.0) -> "MetricPath":
        base = form_from_matrix(theta0, grid.n)
        if cone_margin(base) < -PSD_TOL:
            raise ConfigError("nef path requires a positive semidefinite theta0")
        ident = identity_form(grid.n)
        return cls(
            grid,
            horizon,
            "nef",
            lambda t: tuple(b + (t + eps) * i for b, i in zip(base, ident)),
            lambda t: ident,
            meta={"theta0": np.asarray(theta0, dtype=complex).tolist(), "eps": eps},
        )

    @classmethod
    def from_callables(cls, grid, horizon, theta_fn, theta_dot_fn, meta=None) -> "MetricPath":
        return cls(grid, horizon, "custom", theta_fn, theta_dot_fn, meta)


def certify_metric_path(path: MetricPath, omega_form: VolumeForm) -> float:
    """The path's volume-sandwich delta: the smallest delta >= 1 with

        delta^-1 Omega <= theta_t^n <= delta Omega

    at PATH_SAMPLES equispaced times covering [0, horizon]; inf when theta_t^n
    is not positive somewhere.  det theta_t^n and Omega are compared at
    their common broadcast shape, which holds every value the grid does.
    A sampled certificate in the audit sense, not a proof; the checks read
    log(delta).
    """
    dens = omega_form.density
    delta = 1.0
    for t in np.linspace(0.0, path.horizon, PATH_SAMPLES):
        det = comps_det(path.theta(t))
        if not np.min(det) > 0:
            return math.inf
        delta = max(delta, float(np.max(det / dens)), float(np.max(dens / det)))
    return delta
