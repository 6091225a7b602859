"""Flat-torus grids, scalar fields, and derivative backends.

The domain is the real torus R^{2n}/Z^{2n} seen as a complex n-torus with
coordinates z_j = x_j + i y_j, n in {1, 2}.  Real axes are stored in the
order (x_1, y_1, ..., x_n, y_n) and every axis carries N equispaced points
x = k/N.  The reference Kahler form is normalised to the identity matrix in
this frame, so "the potential phi is admissible" means I + H(phi) >= 0
pointwise, where H is the complex Hessian

    H_jk(phi) = d^2 phi / dz_j dzbar_k
              = 1/4 [ (d_{x_j} d_{x_k} + d_{y_j} d_{y_k}) phi
                      + i (d_{x_j} d_{y_k} - d_{y_j} d_{x_k}) phi ].

Classical normalisation factors 1/(2 i pi) are absorbed into this frame; the
flat metric has zero curvature, so no curvature terms appear anywhere
downstream.  The Hessian comes back as the component tuple (h11,) or
(h11, h22, h12), the one layout every Hermitian form in the package takes;
geometry builds forms and holds their algebra.

Two derivative backends are provided.  "spectral" differentiates exactly on
the grid's Fourier modes and is the default for smooth fields; "fd" uses
second-order centred differences and keeps the discrete maximum principle,
which is what the comparison-sensitive n=1 runs rely on.

Every derivative operator of the package lives here, built once per grid:
the Hessian, the -(1/4) Laplacian of either backend (the shifted solve at
the core of the flow's preconditioner, and the Rayleigh quotient that sets
the stiffness it is matched at) and Gaussian smoothing (mollification).
At n=1 they are Fourier symbols applied with real FFTs and np.roll
stencils.  At n=2 derivatives and the preconditioner's operator are per-axis
N x N matrices applied axis by axis (Trefethen, Spectral Methods in MATLAB,
ch. 3): 4-D FFTs cost more there than N x N products, while at n=1 the
dense products lose to the FFT.  Gaussian smoothing stays on real FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError

BACKENDS = ("spectral", "fd")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid on R^{2n}/Z^{2n}.

    n : complex dimension, 1 or 2.
    resolution : points per real axis, a power of two >= 8.
    """

    n: int
    resolution: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ConfigError(f"complex dimension must be 1 or 2, got {self.n}")
        N = self.resolution
        if N < 8 or (N & (N - 1)) != 0:
            raise ConfigError(f"resolution must be a power of two >= 8, got {N}")

    @property
    def real_dim(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.resolution,) * self.real_dim

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    def coordinates(self) -> tuple:
        """Broadcastable coordinate arrays, one per real axis (sparse meshgrid)."""
        return _grid_coordinates(self.n, self.resolution)


@lru_cache(maxsize=32)
def _grid_coordinates(n, N):
    axes = [np.arange(N) / N for _ in range(2 * n)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return tuple(_freeze(m) for m in mesh)


# ---------------------------------------------------------------------------
# scalar fields


@dataclass(frozen=True)
class ScalarField:
    """Real scalar sample on a grid.  Values are immutable after construction."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ConfigError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("field contains non-finite values")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "ScalarField":
        vals = np.broadcast_to(fn(*grid.coordinates()), grid.shape)
        return cls(grid, np.array(vals, dtype=np.float64))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def shifted(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.values + c)


# ---------------------------------------------------------------------------
# spectral layer: every Fourier symbol, in the real-FFT (rfftn) layout
#
# Mode k of a field is exp(2 pi i k.x) with integer k.  Every axis but the
# last carries the N wavenumbers 0..N/2-1, -N/2..-1; the last carries the
# N/2+1 non-negative ones.  Symbols are cached per grid and broadcast
# against the spectrum.


def _rfft(values, grid):
    return np.fft.rfftn(values, axes=tuple(range(grid.real_dim)))


def _irfft(hat, grid):
    return np.fft.irfftn(hat, s=grid.shape, axes=tuple(range(grid.real_dim)))


@lru_cache(maxsize=32)
def _wavenumbers(n, N, odd):
    """Integer wavenumbers per real axis, broadcastable against an rfftn spectrum.

    odd=True zeroes the unpaired Nyquist mode, as odd-order derivatives need.
    """
    dim = 2 * n
    out = []
    for axis in range(dim):
        k = np.fft.rfftfreq(N, 1.0 / N) if axis == dim - 1 else np.fft.fftfreq(N, 1.0 / N)
        if odd:
            k[N // 2] = 0.0
        shape = [1] * dim
        shape[axis] = k.size
        out.append(_freeze(k.reshape(shape)))
    return tuple(out)


@lru_cache(maxsize=32)
def _quarter_laplacian_symbol(n, N, backend):
    """Symbol of -(1/4) Laplacian: pi^2 |k|^2, or the fd stencil's eigenvalues."""
    ks = _wavenumbers(n, N, False)
    if backend == "spectral":
        return _freeze(np.pi**2 * sum(k * k for k in ks))
    h = 1.0 / N
    return _freeze((0.25 / h**2) * sum(2.0 - 2.0 * np.cos(2.0 * np.pi * k * h) for k in ks))


def solve_shifted_laplacian(
    values: np.ndarray, grid: TorusGrid, backend: str, shift: float, out=None, scratch=None
):
    """Solve (shift - (1/4) Laplacian) u = values, Laplacian as the backend discretises it.

    At n = 2, out and scratch (grid-shaped float arrays; out may be values,
    scratch may not) receive the per-axis products and u is written into
    out.  The n = 1 path (real FFTs) ignores them and returns a new array.
    """
    if grid.n == 2:
        q, symbol = _quarter_laplacian_basis(grid.resolution, backend)
        coef = _along_every_axis(q.T, values, out, scratch)
        coef /= np.add(shift, symbol, out=scratch)
        return _along_every_axis(q, coef, out, scratch)
    symbol = shift + _quarter_laplacian_symbol(grid.n, grid.resolution, backend)
    return _irfft(_rfft(values, grid) / symbol, grid)


def quarter_laplacian_rayleigh(
    values: np.ndarray, grid: TorusGrid, backend: str, out=None, scratch=None
) -> float:
    """Rayleigh quotient <v, -(1/4) Laplacian v> / <v, v>, Laplacian as the backend discretises it.

    values must not vanish identically.  At n = 2, out and scratch
    (grid-shaped float arrays, neither aliasing values) hold the per-axis
    products; n = 1 ignores them.
    """
    if grid.n == 2:
        q, symbol = _quarter_laplacian_basis(grid.resolution, backend)
        power = _along_every_axis(q.T, values, out, scratch).ravel()
        np.square(power, out=power)
        return float(power @ symbol.ravel() / np.sum(power))
    power = np.abs(_rfft(values, grid)) ** 2
    # interior last-axis modes stand for themselves and their conjugates
    N = grid.resolution
    power[..., 1 : (N + 1) // 2] *= 2.0
    symbol = _quarter_laplacian_symbol(grid.n, N, backend)
    return float(np.sum(power * symbol) / np.sum(power))


def gaussian_smooth(values: np.ndarray, grid: TorusGrid, delta: float) -> np.ndarray:
    """Convolution with the periodised kernel ~ exp(-|u|^2/delta^2) (mass one).

    Mode k is scaled by exp(-pi^2 delta^2 |k|^2).
    """
    symbol = _quarter_laplacian_symbol(grid.n, grid.resolution, "spectral")
    return _irfft(_rfft(values, grid) * np.exp(-(delta**2) * symbol), grid)


# ---------------------------------------------------------------------------
# per-axis matrices (n=2)
#
# Each operator is a product of N x N matrices, one per real axis.  Both
# backends' d2 is a symmetric circulant, so -(1/4) d2 is diagonal in one
# orthonormal per-axis basis Q: a product of Q^T on every axis, a divide by
# the summed symbol and a product of Q on every axis solves the shifted
# problem.


@lru_cache(maxsize=8)
def _axis_matrices(N, backend):
    """(d1, d2): first- and second-derivative matrices along one axis of N points.

    spectral: the exact DFT differentiation matrices.  The real part drops
    the unpaired Nyquist mode from d1 (its derivative is imaginary), as
    odd-order derivatives need.  fd: the centred stencils written as
    circulants.
    """
    eye = np.eye(N)
    if backend == "fd":
        h = 1.0 / N
        return _freeze(_fd_first(eye, h, 0)), _freeze(_fd_second(eye, h, 0))
    k = np.fft.fftfreq(N, 1.0 / N)
    modes = np.fft.fft(eye, axis=0)
    d1 = np.fft.ifft((2j * np.pi * k)[:, None] * modes, axis=0).real
    d2 = np.fft.ifft((-4.0 * np.pi**2 * k * k)[:, None] * modes, axis=0).real
    return _freeze(d1), _freeze(d2)


@lru_cache(maxsize=8)
def _quarter_laplacian_basis(N, backend):
    """(Q, symbol): -(1/4) Laplacian at n=2 is Q diag(symbol) Q^T on every axis.

    Q holds orthonormal eigenvectors of the per-axis -(1/4) d2 and symbol is
    the sum of their eigenvalues over the four axes, shaped like the grid.
    """
    lam, q = np.linalg.eigh(-0.25 * _axis_matrices(N, backend)[1])
    pair = lam[:, None] + lam[None, :]
    symbol = pair[:, :, None, None] + pair[None, None, :, :]
    return _freeze(q), _freeze(symbol)


def _along(m, values, axis, out=None):
    """m applied along one axis: out[.., i, ..] = sum_j m[i, j] values[.., j, ..].

    Reshapes only, so no moveaxis copy is made.  out, when given, is a
    contiguous array shaped like values (not aliasing it) that receives the
    product.
    """
    shape = values.shape
    N = shape[axis]
    if axis == values.ndim - 1:
        a, b, view = values.reshape(-1, N), m.T, (-1, N)
    else:
        before = int(np.prod(shape[:axis]))
        a, b, view = m, values.reshape(before, N, -1), (before, N, -1)
    if out is None:
        return np.matmul(a, b).reshape(shape)
    np.matmul(a, b, out=out.reshape(view))
    return out


def _along_every_axis(m, values, out=None, scratch=None):
    """m applied along every axis in turn.

    With out, the products alternate between scratch and out and end in out
    (values has an even number of axes); out may be values, scratch may not.
    """
    for axis in range(values.ndim):
        values = _along(m, values, axis, None if out is None else (scratch, out)[axis % 2])
    return values


# ---------------------------------------------------------------------------
# derivatives


def _fd_second(values, h, axis):
    return (np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)) / h**2


def _fd_first(values, h, axis):
    return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)


def hessian_components(
    values: np.ndarray, grid: TorusGrid, backend: str = "spectral", out=None, scratch=None
):
    """Raw complex-Hessian components of a real sample array.

    Returns (h11,) for n=1 and (h11, h22, h12) for n=2; for n=1 h11 is the
    quarter Laplacian (phi_xx + phi_yy)/4.  out, when given, is a form's
    arrays (none aliasing values) that receive the components and are
    returned; at n=2 scratch, a grid-shaped float array, holds partial
    products, and at n=1 the FFT or stencil temporaries are still new.
    """
    if backend not in BACKENDS:
        raise ConfigError(f"unknown derivative backend {backend!r}")
    if grid.n == 2:
        return _hessian_axes(values, grid, backend, out, scratch)
    h11 = None if out is None else out[0]
    if backend == "spectral":
        symbol = _quarter_laplacian_symbol(1, grid.resolution, "spectral")
        return (np.negative(_irfft(_rfft(values, grid) * symbol, grid), out=h11),)
    h = grid.spacing
    return (np.multiply(0.25, _fd_second(values, h, 0) + _fd_second(values, h, 1), out=h11),)


def _hessian_axes(values, grid, backend, out=None, scratch=None):
    """The n=2 Hessian (h11, h22, h12) from per-axis derivative matrices.

    Axes are (x1, y1, x2, y2); Re h12 = (x1x2 + y1y2)/4 and
    Im h12 = (x1y2 - y1x2)/4.  out and scratch as in hessian_components.
    """
    d1, d2 = _axis_matrices(grid.resolution, backend)
    h11, h22, h12 = out or (None, None, np.empty(values.shape, dtype=np.complex128))
    # the first derivatives sit in h11's and h22's arrays until h12 is done
    dx1 = _along(d1, values, 0, h11)
    dy1 = _along(d1, values, 1, h22)
    re, im = h12.real, h12.imag
    re[...] = _along(d1, dx1, 2, scratch)
    re += _along(d1, dy1, 3, scratch)
    im[...] = _along(d1, dx1, 3, scratch)
    im -= _along(d1, dy1, 2, scratch)
    h12 *= 0.25
    del dx1, dy1
    h11 = _along(d2, values, 0, h11)
    h11 += _along(d2, values, 1, scratch)
    h11 *= 0.25
    h22 = _along(d2, values, 2, h22)
    h22 += _along(d2, values, 3, scratch)
    h22 *= 0.25
    return h11, h22, h12


def gradient_sq(phi: ScalarField, backend: str = "spectral") -> ScalarField:
    """Squared norm of the (1,0)-gradient: sum_j |d phi / dz_j|^2.

    With d/dz_j = (d_{x_j} - i d_{y_j})/2 this equals
    (1/4) sum_j ((d_{x_j} phi)^2 + (d_{y_j} phi)^2), which is |grad phi|^2/4
    in real terms.  For a single mode a cos(2 pi x) the result is
    a^2 pi^2 sin^2(2 pi x).
    """
    grid = phi.grid
    acc = np.zeros(grid.shape)
    if grid.n == 2:
        d1 = _axis_matrices(grid.resolution, backend)[0]
        for axis in range(grid.real_dim):
            d = _along(d1, phi.values, axis)
            acc += d * d
    elif backend == "spectral":
        hat = _rfft(phi.values, grid)
        kd = _wavenumbers(grid.n, grid.resolution, True)
        for axis in range(grid.real_dim):
            d = _irfft(hat * (2j * np.pi) * kd[axis], grid)
            acc += d * d
    else:
        h = grid.spacing
        for axis in range(grid.real_dim):
            d = _fd_first(phi.values, h, axis)
            acc += d * d
    return ScalarField(grid, 0.25 * acc)


# ---------------------------------------------------------------------------
# norms


def oscillation(phi: ScalarField) -> float:
    return float(phi.values.max() - phi.values.min())
