"""Flat-torus grids, scalar and Hermitian fields, and derivative backends.

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
downstream.

Two derivative backends are provided.  "spectral" differentiates through the
FFT and is the default for smooth fields; "fd" uses second-order centred
differences and keeps the discrete maximum principle, which is what the
comparison-sensitive n=1 runs rely on.

Every Fourier symbol of the package lives here, built once per grid on real
FFTs: the spectral Hessian, the -(1/4) Laplacian of either backend (the
shifted solve at the core of the flow's preconditioner, and the Rayleigh
quotient that sets the stiffness it is matched at) and Gaussian smoothing
(mollification).
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
# fields


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


@dataclass(frozen=True)
class HermitianField:
    """Pointwise Hermitian n x n matrix field, stored by components.

    h11 (and h22 for n=2) are the real diagonal entries, h12 the complex
    off-diagonal entry of the upper triangle; the lower triangle is implied.
    Components may be full grid-shaped arrays or scalars (spatially constant
    matrix), and broadcasting is used throughout.
    """

    grid: TorusGrid
    h11: np.ndarray = field(repr=False)
    h22: np.ndarray = field(default=None, repr=False)
    h12: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        h11 = _freeze(np.asarray(self.h11, dtype=np.float64))
        object.__setattr__(self, "h11", h11)
        if self.grid.n == 2:
            if self.h22 is None or self.h12 is None:
                raise ConfigError("n=2 Hermitian field needs h22 and h12 components")
            object.__setattr__(self, "h22", _freeze(np.asarray(self.h22, dtype=np.float64)))
            object.__setattr__(self, "h12", _freeze(np.asarray(self.h12, dtype=np.complex128)))
        else:
            if self.h22 is not None or self.h12 is not None:
                raise ConfigError("n=1 Hermitian field has a single component")
        for comp in self.components():
            try:
                np.broadcast_shapes(comp.shape, self.grid.shape)
            except ValueError:
                raise ConfigError(
                    f"component shape {comp.shape} not broadcastable to {self.grid.shape}"
                ) from None

    @classmethod
    def identity(cls, grid: TorusGrid, scale: float = 1.0) -> "HermitianField":
        if grid.n == 1:
            return cls(grid, np.float64(scale))
        return cls(grid, np.float64(scale), np.float64(scale), np.complex128(0.0))

    @classmethod
    def from_matrix(cls, grid: TorusGrid, mat) -> "HermitianField":
        """Spatially constant field from an n x n matrix (Hermitian part taken)."""
        m = np.asarray(mat, dtype=np.complex128)
        if m.shape != (grid.n, grid.n):
            raise ConfigError(f"expected a {grid.n}x{grid.n} matrix, got shape {m.shape}")
        m = 0.5 * (m + m.conj().T)
        if grid.n == 1:
            return cls(grid, m[0, 0].real)
        return cls(grid, m[0, 0].real, m[1, 1].real, m[0, 1])

    def components(self) -> tuple:
        if self.grid.n == 1:
            return (self.h11,)
        return (self.h11, self.h22, self.h12)

    def det(self) -> np.ndarray:
        if self.grid.n == 1:
            return self.h11
        return self.h11 * self.h22 - np.abs(self.h12) ** 2

    def trace(self) -> np.ndarray:
        if self.grid.n == 1:
            return self.h11
        return self.h11 + self.h22

    def eig_min(self) -> np.ndarray:
        if self.grid.n == 1:
            return self.h11
        mid = 0.5 * (self.h11 + self.h22)
        rad = np.sqrt(0.25 * (self.h11 - self.h22) ** 2 + np.abs(self.h12) ** 2)
        return mid - rad

    def eig_max(self) -> np.ndarray:
        if self.grid.n == 1:
            return self.h11
        mid = 0.5 * (self.h11 + self.h22)
        rad = np.sqrt(0.25 * (self.h11 - self.h22) ** 2 + np.abs(self.h12) ** 2)
        return mid + rad

    def __add__(self, other: "HermitianField") -> "HermitianField":
        if self.grid != other.grid:
            raise ConfigError("cannot add Hermitian fields on different grids")
        if self.grid.n == 1:
            return HermitianField(self.grid, self.h11 + other.h11)
        return HermitianField(
            self.grid, self.h11 + other.h11, self.h22 + other.h22, self.h12 + other.h12
        )

    def __sub__(self, other: "HermitianField") -> "HermitianField":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "HermitianField":
        if self.grid.n == 1:
            return HermitianField(self.grid, c * self.h11)
        return HermitianField(self.grid, c * self.h11, c * self.h22, c * self.h12)

    def as_matrices(self) -> np.ndarray:
        """Dense (grid.shape + (n, n)) complex array, mostly for inspection."""
        n = self.grid.n
        out = np.zeros(self.grid.shape + (n, n), dtype=np.complex128)
        out[..., 0, 0] = np.broadcast_to(self.h11, self.grid.shape)
        if n == 2:
            out[..., 1, 1] = np.broadcast_to(self.h22, self.grid.shape)
            out[..., 0, 1] = np.broadcast_to(self.h12, self.grid.shape)
            out[..., 1, 0] = np.conj(out[..., 0, 1])
        return out


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
def _hessian_symbols(n, N):
    """Symbols of the real Hessian components, the factor 1/4 included.

    (h11,) for n=1 and (h11, h22, Re h12, Im h12) for n=2, with
    Re h12 = (x1x2 + y1y2)/4 and Im h12 = (x1y2 - y1x2)/4.  All are even
    in k, so each one maps a real field's spectrum back to a real field.
    """
    c = -np.pi**2
    k = _wavenumbers(n, N, False)
    if n == 1:
        return (_freeze(c * (k[0] ** 2 + k[1] ** 2)),)
    kd = _wavenumbers(n, N, True)
    return tuple(
        _freeze(c * s)
        for s in (
            k[0] ** 2 + k[1] ** 2,
            k[2] ** 2 + k[3] ** 2,
            kd[0] * kd[2] + kd[1] * kd[3],
            kd[0] * kd[3] - kd[1] * kd[2],
        )
    )


@lru_cache(maxsize=32)
def _quarter_laplacian_symbol(n, N, backend):
    """Symbol of -(1/4) Laplacian: pi^2 |k|^2, or the fd stencil's eigenvalues."""
    ks = _wavenumbers(n, N, False)
    if backend == "spectral":
        return _freeze(np.pi**2 * sum(k * k for k in ks))
    h = 1.0 / N
    return _freeze((0.25 / h**2) * sum(2.0 - 2.0 * np.cos(2.0 * np.pi * k * h) for k in ks))


def solve_shifted_laplacian(values: np.ndarray, grid: TorusGrid, backend: str, shift: float):
    """Solve (shift - (1/4) Laplacian) u = values, Laplacian as the backend discretises it."""
    symbol = shift + _quarter_laplacian_symbol(grid.n, grid.resolution, backend)
    return _irfft(_rfft(values, grid) / symbol, grid)


def quarter_laplacian_rayleigh(values: np.ndarray, grid: TorusGrid, backend: str) -> float:
    """Rayleigh quotient <v, -(1/4) Laplacian v> / <v, v>, Laplacian as the backend discretises it.

    values must not vanish identically.
    """
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
# derivatives


def _fd_second(values, h, axis):
    return (np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)) / h**2


def _fd_first(values, h, axis):
    return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)


def hessian_components(values: np.ndarray, grid: TorusGrid, backend: str = "spectral"):
    """Raw complex-Hessian components of a real sample array.

    Returns (h11,) for n=1 and (h11, h22, h12) for n=2; for n=1 h11 is the
    quarter Laplacian (phi_xx + phi_yy)/4.
    """
    if backend not in BACKENDS:
        raise ConfigError(f"unknown derivative backend {backend!r}")
    if backend == "spectral":
        return _hessian_spectral(values, grid)
    return _hessian_fd(values, grid)


def _hessian_spectral(values, grid):
    hat = _rfft(values, grid)
    syms = _hessian_symbols(grid.n, grid.resolution)
    if grid.n == 1:
        return (_irfft(hat * syms[0], grid),)
    s11, s22, s_re, s_im = syms
    h12 = _irfft(hat * s_re, grid) + 1j * _irfft(hat * s_im, grid)
    return _irfft(hat * s11, grid), _irfft(hat * s22, grid), h12


def _hessian_fd(values, grid):
    h = grid.spacing
    if grid.n == 1:
        lap = _fd_second(values, h, 0) + _fd_second(values, h, 1)
        return (0.25 * lap,)
    h11 = 0.25 * (_fd_second(values, h, 0) + _fd_second(values, h, 1))
    h22 = 0.25 * (_fd_second(values, h, 2) + _fd_second(values, h, 3))
    dx1 = _fd_first(values, h, 0)
    dy1 = _fd_first(values, h, 1)
    re = _fd_first(dx1, h, 2) + _fd_first(dy1, h, 3)
    im = _fd_first(dx1, h, 3) - _fd_first(dy1, h, 2)
    return h11, h22, 0.25 * (re + 1j * im)


def gradient_sq(phi: ScalarField, backend: str = "spectral") -> ScalarField:
    """Squared norm of the (1,0)-gradient: sum_j |d phi / dz_j|^2.

    With d/dz_j = (d_{x_j} - i d_{y_j})/2 this equals
    (1/4) sum_j ((d_{x_j} phi)^2 + (d_{y_j} phi)^2), which is |grad phi|^2/4
    in real terms.  For a single mode a cos(2 pi x) the result is
    a^2 pi^2 sin^2(2 pi x).
    """
    grid = phi.grid
    acc = np.zeros(grid.shape)
    if backend == "spectral":
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
# norms and distances


def oscillation(phi: ScalarField) -> float:
    return float(phi.values.max() - phi.values.min())


def restrict(phi: ScalarField, coarse: TorusGrid) -> ScalarField:
    """Exact restriction to a coarser grid whose points are a subset of the fine ones."""
    fine = phi.grid
    if coarse.n != fine.n or fine.resolution % coarse.resolution != 0:
        raise ConfigError("coarse grid is not nested in the fine grid")
    s = fine.resolution // coarse.resolution
    sl = (slice(None, None, s),) * fine.real_dim
    return ScalarField(coarse, phi.values[sl].copy())


def torus_separation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance on the torus between coordinate rows p and q."""
    d = np.abs(p - q)
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=-1))

