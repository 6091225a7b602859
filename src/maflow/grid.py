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
the stiffness it is matched at), a multigrid V-cycle for the n=1 fd
Laplacian shifted by a pointwise c (the preconditioner of n=1 fd Newton
corrections, whose coarsest 4^2 level LAPACK's inverse solves exactly) and
Gaussian smoothing (mollification).  One fd quarter Laplacian serves the
n=1 fd Hessian and the V-cycle's coarsest level; the cycle's float32 levels
take a neighbour sum of their own, which rounds at the scale of |x|, as a
preconditioner may, where the Hessian's second differences do not.
At n=1 they are Fourier symbols applied with real FFTs, and fd stencils
on flat views and slices.  At n=2 derivatives and the preconditioner's operator
are per-axis N x N matrices applied axis by axis (Trefethen, Spectral
Methods in MATLAB, ch. 3): 4-D FFTs cost more there than N x N products,
while at n=1 the dense products lose to the FFT.  Gaussian smoothing stays
on real FFTs.  This module is the only one that calls np.fft.

The operators the flow's Newton loop applies take optional output arrays,
as geometry's form algebra does: called without them they return new
arrays, called with them they write there, with the same bits either way.
At n=2 these are grid-shaped; at n=1 the FFT paths also take `spectrum`,
a complex and a real array of the grid's `spectrum_shape`, so that no
transform allocates.

The n=2 kernels the Newton correction applies (`hessian_components`,
`solve_shifted_laplacian`, `quarter_laplacian_rayleigh`) follow the dtype
of values: float32 values are multiplied by float32 copies of the per-axis
matrices, cached beside the float64 ones, and give float32 (and complex64)
results.  The flow solves its Newton correction in float32 on the grids
`correction_dtype` names, n=2 from SINGLE_PRECISION_RESOLUTION points per
axis up, and in float64 everywhere else; every other operator here is
float64 only, but for the V-cycle, which runs in float32 only.  The
n=2 caches hold N x N arrays only: the grid-shaped symbol the solve and
the Rayleigh quotient need is laid out into their scratch when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Annotated

import numpy as np

from .errors import ConfigError, declared, one_of

BACKENDS = ("spectral", "fd")

# The smallest n = 2 resolution whose Newton correction is solved in float32.
# On a 2-vCPU x86_64 VM with one OpenBLAS thread, a per-axis product at 16^4
# took 29 us in float32 against 60 us in float64, and a Newton operator
# apply 1.15 against 2.11 ms.  At 8^4 float32 raised scenario 12's Newton
# iterations from 8120 to 8281 (its one-iteration constant-data steps need
# a solve exact to float64) and its integration from 5.8-6.9 s to 9.1 s.
SINGLE_PRECISION_RESOLUTION = 16


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@declared
@dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid on R^{2n}/Z^{2n}: n is the complex dimension, resolution
    the points per real axis."""

    n: Annotated[int, one_of(1, 2)] = 1
    resolution: Annotated[int, (lambda N: N >= 8 and not N & (N - 1), "a power of two >= 8")] = 64

    @property
    def real_dim(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.resolution,) * self.real_dim

    @property
    def spectrum_shape(self) -> tuple:
        """Shape of a real-FFT spectrum: the grid's, with N/2+1 modes on the last axis."""
        return self.shape[:-1] + (self.resolution // 2 + 1,)

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    def coordinates(self) -> tuple:
        """Broadcastable coordinate arrays, one per real axis (sparse meshgrid)."""
        return _grid_coordinates(self.n, self.resolution)


def correction_dtype(grid: TorusGrid) -> type:
    """The precision the flow solves its Newton correction in on this grid.

    float32 at n = 2 from SINGLE_PRECISION_RESOLUTION up, where the per-axis
    products measure faster in it; float64 elsewhere.
    """
    if grid.n == 2 and grid.resolution >= SINGLE_PRECISION_RESOLUTION:
        return np.float32
    return np.float64


@lru_cache(maxsize=32)
def _grid_coordinates(n, N):
    axes = [np.arange(N) / N for _ in range(2 * n)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return tuple(_freeze(m) for m in mesh)


# ---------------------------------------------------------------------------
# scalar fields


def field_values(grid: TorusGrid, values) -> np.ndarray:
    """values as a float64 array, once it has the grid's shape and is finite (else ConfigError).

    A ScalarField's values pass this; values that already do are returned
    as they are, so nothing is copied or frozen.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.shape != grid.shape:
        raise ConfigError(f"field shape {v.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError("field contains non-finite values")
    return v


@dataclass(frozen=True)
class ScalarField:
    """Real scalar sample on a grid.  Values are immutable after construction."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(field_values(self.grid, self.values)))

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


def _rfft(values, grid, out=None):
    """The spectrum of values, into out when given.

    These are rfftn's calls, with the transform along every axis but the
    last done in place.
    """
    hat = np.fft.rfft(values, axis=-1, out=out)
    for axis in range(grid.real_dim - 2, -1, -1):
        np.fft.fft(hat, axis=axis, out=hat)
    return hat


def _irfft(hat, grid, out=None):
    """The real field of spectrum hat, into out when given; hat is overwritten.

    These are irfftn's calls, with the inverse along every axis but the last
    done in place in hat, so no temporary spectrum is made.
    """
    for axis in range(grid.real_dim - 1):
        np.fft.ifft(hat, axis=axis, out=hat)
    return np.fft.irfft(hat, n=grid.resolution, axis=-1, out=out)


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


@lru_cache(maxsize=32)
def _complex_quarter_laplacian_symbol(n, N):
    """The spectral symbol as complex c + 0i: the cast numpy makes for a product with a
    complex spectrum, made once instead of into a buffer per product."""
    return _freeze(_quarter_laplacian_symbol(n, N, "spectral").astype(complex))


@lru_cache(maxsize=32)
def _conjugate_weights(n, N):
    """Spectrum-shaped weights of real-FFT modes in a sum over all modes.

    Interior last-axis modes stand for themselves and their conjugates and
    weigh 2; last-axis modes 0 and N/2 weigh 1.  Full-shaped, not a
    broadcast row, so an in-place product with it needs no buffer.
    """
    w = np.ones(TorusGrid(n, N).spectrum_shape)
    w[..., 1 : (N + 1) // 2] = 2.0
    return _freeze(w)


def inverse_shifted_symbol(
    grid: TorusGrid, backend: str, shift: float, out=None, scratch=None
) -> np.ndarray:
    """1 / (shift + the symbol of -(1/4) Laplacian), complex, in the real-FFT layout.

    The n = 1 solve multiplies a spectrum by it.  numpy divides a complex
    a + ib by a real c, cast to c + 0i, as a (1/c) + i b (1/c), so the
    product rounds as the divide (up to the sign of a zero) and, laid out
    once, spares each solve the cast and the divide.  out (complex) and
    scratch (real, holding shift + symbol), both grid.spectrum_shape,
    receive them when given.
    """
    symbol = _quarter_laplacian_symbol(grid.n, grid.resolution, backend)
    inverse = np.divide(1.0, np.add(shift, symbol, out=scratch), out=scratch)
    if out is None:
        return inverse.astype(complex)
    # written by parts: a real result cast into out would take a buffer
    out.real, out.imag = inverse, 0.0
    return out


def solve_shifted_laplacian(
    values: np.ndarray, grid: TorusGrid, backend: str, shift, out=None, scratch=None, spectrum=None
):
    """Solve (shift - (1/4) Laplacian) u = values, Laplacian as the backend discretises it.

    shift is a float or the shifted symbol laid out once for many solves:
    at n = 1 inverse_shifted_symbol(grid, backend, shift), and at n = 2
    shift + the grid-shaped symbol that quarter_laplacian_rayleigh leaves
    in its scratch, in values' dtype.  u is written into out when given (a
    grid-shaped float array that may be values).  At n = 2 scratch, a
    grid-shaped float array not aliasing values or a laid-out shift, holds
    the per-axis products (and shift + symbol for a float shift, added
    into the symbol's own array: numpy sums an np.float64 shift and a
    float32 symbol in float64 and rounds once); at n = 1 spectrum[0] holds
    the transform.
    """
    if grid.n == 2:
        q = _quarter_laplacian_basis(grid.resolution, backend, values.dtype)[0]
        coef = _along_every_axis(q.T, values, out, scratch)
        if not np.ndim(shift):
            symbol = _laid_out_symbol(grid, backend, values.dtype, scratch)
            shift = np.add(shift, symbol, out=symbol)
        coef /= shift
        return _along_every_axis(q, coef, out, scratch)
    if not np.ndim(shift):
        shift = inverse_shifted_symbol(grid, backend, shift)
    hat = _rfft(values, grid, None if spectrum is None else spectrum[0])
    hat *= shift
    return _irfft(hat, grid, out)


def quarter_laplacian_rayleigh(
    values: np.ndarray, grid: TorusGrid, backend: str, out=None, scratch=None, spectrum=None
) -> float:
    """Rayleigh quotient <v, -(1/4) Laplacian v> / <v, v>, Laplacian as the backend discretises it.

    values must not vanish identically.  At n = 2, out and scratch
    (grid-shaped float arrays, neither aliasing values) hold the per-axis
    products, and scratch is left holding the grid-shaped symbol in values'
    dtype, which a shift added in place makes solve_shifted_laplacian's
    laid-out shift; at n = 1 spectrum holds the transform and the power
    spectrum.
    """
    if grid.n == 2:
        q = _quarter_laplacian_basis(grid.resolution, backend, values.dtype)[0]
        power = _along_every_axis(q.T, values, out, scratch)
        np.square(power, out=power)
        symbol = _laid_out_symbol(grid, backend, values.dtype, scratch)
        return inner(power, symbol) / float(np.sum(power))
    hat, power = spectrum or (None, None)
    power = np.abs(_rfft(values, grid, hat), out=power)
    np.square(power, out=power)
    power *= _conjugate_weights(grid.n, grid.resolution)
    mass = np.sum(power)
    power *= _quarter_laplacian_symbol(grid.n, grid.resolution, backend)
    return float(np.sum(power) / mass)


def gaussian_smooth(values: np.ndarray, grid: TorusGrid, delta: float) -> np.ndarray:
    """Convolution with the periodised kernel ~ exp(-|u|^2/delta^2) (mass one).

    Mode k is scaled by exp(-pi^2 delta^2 |k|^2), laid out per call from
    the per-axis wavenumbers, so no spectrum-sized array stays cached.
    """
    scale = sum(k * k for k in _wavenumbers(grid.n, grid.resolution, False))
    scale *= np.pi**2
    scale *= -(delta**2)
    hat = _rfft(values, grid)
    hat *= np.exp(scale, out=scale)
    return _irfft(hat, grid)


# ---------------------------------------------------------------------------
# per-axis matrices (n=2)
#
# Each operator is a product of N x N matrices, one per real axis.  Both
# backends' d2 is a symmetric circulant, so -(1/4) d2 is diagonal in one
# orthonormal per-axis basis Q: a product of Q^T on every axis, a divide by
# the shifted symbol (the eigenvalues summed over the four axes, plus the
# shift) and a product of Q on every axis solves the shifted problem.  Q and
# the eigenvalues summed over two axes are cached; the grid-shaped symbol
# is laid out from them where it is used, once per solve for a numeric
# shift, or once for many solves by the flow's preconditioner.


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
        up = np.eye(N, k=1) + np.eye(N, k=1 - N)  # row i picks point i + 1, periodic
        return _freeze(_fd_first(eye, h, 0)), _freeze((up + up.T - 2.0 * eye) / h**2)
    k = np.fft.fftfreq(N, 1.0 / N)
    modes = np.fft.fft(eye, axis=0)
    d1 = np.fft.ifft((2j * np.pi * k)[:, None] * modes, axis=0).real
    d2 = np.fft.ifft((-4.0 * np.pi**2 * k * k)[:, None] * modes, axis=0).real
    return _freeze(d1), _freeze(d2)


@lru_cache(maxsize=16)
def _hessian_matrices(N, backend, dtype=np.float64):
    """(d1 / 2, d2 / 4): _axis_matrices with the Hessian's factor 1/4 folded in, in dtype.

    Both factors are powers of two, so a product with them rounds exactly as
    the unscaled product then scaled.  Any dtype argument but the default
    gives cached copies of the float64 matrices (for a float64 dtype, the
    matrices themselves).
    """
    if dtype is not np.float64:
        return tuple(_freeze(a.astype(dtype, copy=False)) for a in _hessian_matrices(N, backend))
    d1, d2 = _axis_matrices(N, backend)
    return _freeze(0.5 * d1), _freeze(0.25 * d2)


@lru_cache(maxsize=16)
def _quarter_laplacian_basis(N, backend, dtype=np.float64):
    """(Q, pair) in dtype: -(1/4) Laplacian at n=2 is Q diag(symbol) Q^T on every axis.

    Q holds orthonormal eigenvectors of the per-axis -(1/4) d2 and pair
    (N x N) the sums of their eigenvalues over two axes, so the symbol, the
    sum over all four, is pair[i, j] + pair[k, l] at grid index (i, j, k,
    l).  Only these N x N arrays are cached: the grid-shaped symbol is laid
    out where it is used (`_laid_out_symbol`).  Another dtype gives cached
    copies, as in `_hessian_matrices`.
    """
    if dtype is not np.float64:
        basis = _quarter_laplacian_basis(N, backend)
        return tuple(_freeze(a.astype(dtype, copy=False)) for a in basis)
    lam, q = np.linalg.eigh(-_hessian_matrices(N, backend)[1])
    return _freeze(q), _freeze(lam[:, None] + lam[None, :])


def _laid_out_symbol(grid, backend, dtype, out=None):
    """The n = 2 grid-shaped symbol of `_quarter_laplacian_basis` in dtype, into out when given.

    Each value is pair[i, j] + pair[k, l] summed in float64 and rounded
    once into dtype, the bits of a float64 symbol cast to float32.  It is
    laid out N^3 values at a time, each block the add of two same-shaped
    copies of the pair sums: an add with a broadcast operand takes numpy's
    iteration buffer, up to 8192 values (two fields at 8^4), where a copy
    takes none.  A float32 block is summed in float64 and then cast.
    """
    N = grid.resolution
    pair = _quarter_laplacian_basis(N, backend)[1].reshape(-1)
    if out is None:
        out = np.empty(grid.shape, dtype)
    rows = out.reshape(pair.size, pair.size)
    lower = np.empty((N, pair.size))  # pair[k, l] in every row of a block
    np.copyto(lower, pair)
    block = None if out.dtype == np.float64 else np.empty_like(lower)
    for i in range(0, pair.size, N):
        upper = rows[i : i + N] if block is None else block
        np.copyto(upper, pair[i : i + N, None])
        np.add(upper, lower, out=upper)
        if block is not None:
            np.copyto(rows[i : i + N], block)
    return out


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
        before = math.prod(shape[:axis])
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


def _fd_quarter_laplacian(values, h, out=None, scratch=None):
    """(1/4) Laplacian of an m x m array, the fd stencil at spacing h, into out when given.

    The second differences (v[i+1] - 2 v[i]) + v[i-1], the columns' into out
    and the rows' into scratch, are written on flat C-order views, where a
    neighbour is m or 1 values away, and the wrap rows or columns afresh.
    Unlike a sum of the four neighbours, they do not round at the scale of
    |values|.  Their sum is scaled by 1/(4 h^2), a power of two at a spacing
    of 1/2^k.  out and scratch are C-contiguous (a reshape raises otherwise),
    shaped like values and aliasing neither it nor each other.
    """
    out = np.empty(values.shape) if out is None else out
    scratch = np.empty(values.shape) if scratch is None else scratch
    v = values.reshape(-1)
    for axis, o, d in ((0, out, len(values)), (1, scratch, 1)):
        f, ends, wraps = np.reshape(o, -1, copy=False), values.swapaxes(0, axis), o.swapaxes(0, axis)
        np.multiply(values, 2.0, out=o)
        np.subtract(v[d:], f[:-d], out=f[:-d])
        np.multiply(ends[-1], 2.0, out=wraps[-1])  # the last slab's next is the first
        np.subtract(ends[0], wraps[-1], out=wraps[-1])
        f[d:] += v[:-d]
        np.multiply(ends[0], 2.0, out=wraps[0])  # the first slab's previous is the last
        np.subtract(ends[1], wraps[0], out=wraps[0])
        wraps[0] += ends[-1]
    out += scratch
    out *= 0.25 / h**2
    return out


def _fd_first(values, h, axis, out=None):
    """(v[i+1] - v[i-1]) / (2 h) along axis, periodic, into out (not aliasing values) when given."""
    if out is None:
        out = np.empty(values.shape)
    v, o = values.swapaxes(0, axis), out.swapaxes(0, axis)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    np.subtract(v[1], v[-1], out=o[0])
    np.subtract(v[0], v[-2], out=o[-1])
    out /= 2.0 * h
    return out


def hessian_components(
    values: np.ndarray,
    grid: TorusGrid,
    backend: str = "spectral",
    out=None,
    scratch=None,
    spectrum=None,
):
    """Raw complex-Hessian components of a real sample array.

    Returns (h11,) for n=1 and (h11, h22, h12) for n=2; for n=1 h11 is the
    quarter Laplacian (phi_xx + phi_yy)/4.  out, when given, is a form's
    arrays (none aliasing values) that receive the components and are
    returned.  scratch, a grid-shaped float array, holds the n=2 partial
    products and the n=1 fd stencil along the second axis; spectrum[0]
    holds the n=1 spectral transform.
    """
    if backend not in BACKENDS:
        raise ConfigError(f"unknown derivative backend {backend!r}")
    if grid.n == 2:
        return _hessian_axes(values, grid, backend, out, scratch)
    h11 = None if out is None else out[0]
    if backend == "spectral":
        hat = _rfft(values, grid, None if spectrum is None else spectrum[0])
        hat *= _complex_quarter_laplacian_symbol(1, grid.resolution)
        h11 = _irfft(hat, grid, h11)
        return (np.negative(h11, out=h11),)
    return (_fd_quarter_laplacian(values, grid.spacing, h11, scratch),)


def _hessian_axes(values, grid, backend, out=None, scratch=None):
    """The n=2 Hessian (h11, h22, h12) from per-axis derivative matrices.

    Axes are (x1, y1, x2, y2); Re h12 = (x1x2 + y1y2)/4 and
    Im h12 = (x1y2 - y1x2)/4.  The factor 1/4 is in the cached matrices
    (d1/2 on each of the two axes of a mixed term, d2/4), so no pass scales
    the sums.  out and scratch as in hessian_components.
    """
    d1, d2 = _hessian_matrices(grid.resolution, backend, values.dtype)
    h12_dtype = np.result_type(values, np.complex64)
    h11, h22, h12 = out or (None, None, np.empty(values.shape, h12_dtype))
    # the first derivatives sit in h11's and h22's arrays until h12 is done
    dx1 = _along(d1, values, 0, h11)
    dy1 = _along(d1, values, 1, h22)
    re, im = h12.real, h12.imag
    re[...] = _along(d1, dx1, 2, scratch)
    re += _along(d1, dy1, 3, scratch)
    im[...] = _along(d1, dx1, 3, scratch)
    im -= _along(d1, dy1, 2, scratch)
    del dx1, dy1
    h11 = _along(d2, values, 0, h11)
    h11 += _along(d2, values, 1, scratch)
    h22 = _along(d2, values, 2, h22)
    h22 += _along(d2, values, 3, scratch)
    return h11, h22, h12


# ---------------------------------------------------------------------------
# multigrid (n=1 fd)
#
# A geometric-multigrid V-cycle for (c - (1/4) Laplacian) x = b on an n = 1
# fd grid, c > 0 pointwise (W. L. Briggs, V. E. Henson and S. F. McCormick,
# A Multigrid Tutorial, 2nd ed., SIAM 2000): damped Jacobi smoothing,
# full-weighting restriction of the residual and of c, bilinear
# prolongation, and the fd operator rediscretised on each level, the side
# halved down to MULTIGRID_COARSEST points, whose system is solved exactly
# by its inverse, LAPACK's (np.linalg.inv), laid out once per Newton
# iteration.  Its contraction per cycle does not grow with the grid, where a
# constant-coefficient preconditioner's iterations do once c spans decades,
# so it serves every side from 8 (one smoothed level over the 4^2 solve):
# on scenario 07's corner at dt = 1e-3 a cycle contracts the residual by
# 0.117 at 8^2, 0.152 at 16^2, 0.168 at 32^2 and 0.170 at 128^2.  The exact
# 4^2 solve keeps its rate flat in dt as well: at 64^2 a cycle contracts it
# by 0.171 at dt = 1e-3, 0.02 and 0.2, where three damped Jacobi sweeps on
# the 4^2 level instead gave 0.27, 0.34 and 0.52.  Correcting only the 4^2
# level's constant mode left the rate at 0.27, and halving down to one
# point held it but made the scenario's flow about 17% slower.
#
# The cycle only preconditions a BiCGSTAB solve to a relative 1e-2, so it
# runs in float32 only, while the operator BiCGSTAB applies is the flow's
# float64 Newton operator (C. T. Kelley, "Newton's method in mixed
# precision", SIAM Review 64, 2022): one cycle on 07's corner at 128^2
# leaves a residual of 0.0646 of a random right-hand side in either
# precision.  Each level solves its system over m^2/4 (m its side), d x -
# (the sum of x's four neighbours) = b, with b, c and d = c + 4 over m^2/4,
# by calls laid out once on 1-D or contiguous views and 0-d constants,
# strided views only copied: numpy allocates no iterator or buffer for
# those.

MULTIGRID_COARSEST = 4
# damped Jacobi's weight, and its sweeps before and after the coarse
# correction.  One sweep each way was no faster (07's flow at 128^2: 0.48
# against 0.46 s).
_JACOBI_WEIGHT = 0.8
_SWEEPS = 2
# 0.5 and 0.25 as 0-d float32 arrays, which a ufunc takes as they are
_HALF, _QUARTER = np.array(0.5, np.float32), np.array(0.25, np.float32)
_HALF.flags.writeable = _QUARTER.flags.writeable = False


def _multigrid_sides(N: int) -> tuple:
    """The sides of a V-cycle's coarse levels below N, halving down to MULTIGRID_COARSEST."""
    sides = []
    while N > MULTIGRID_COARSEST:
        N //= 2
        sides.append(N)
    return tuple(sides)


@lru_cache(maxsize=1)
def _coarsest_quarter_laplacian():
    """The matrix of -(1/4) Laplacian (fd) on the coarsest level's points, in C order."""
    m = MULTIGRID_COARSEST
    rows = [_fd_quarter_laplacian(e, 1.0 / m) for e in np.eye(m * m).reshape(m * m, m, m)]
    return _freeze(-np.reshape(rows, (m * m, m * m)))


def _neighbour_sum(x, out):
    """The calls that write into out the sum of each point's four periodic neighbours in x.

    x and out are C-contiguous m x m arrays, on whose flat views a point's
    neighbours are 1 and m values away: the first call sums the row
    neighbours but in the wrap columns, written next, and the rest add the
    column neighbours, the wrap rows apart.
    """
    m, v, o = len(x), x.reshape(-1), out.reshape(-1)
    return [
        partial(np.add, v[:-2], v[2:], o[1:-1]),
        partial(np.add, x[:, -1], x[:, 1], out[:, 0]),
        partial(np.add, x[:, -2], x[:, 0], out[:, -1]),
        partial(np.add, o[m:], v[:-m], o[m:]), partial(np.add, o[:m], v[-m:], o[:m]),
        partial(np.add, o[:-m], v[m:], o[:-m]), partial(np.add, o[-m:], v[:m], o[-m:]),
    ]


def _restriction(fine, coarse, scratch, scale=None):
    """The calls that write into coarse (m x m) the fold of fine (2m x 2m), times scale when given.

    The fold weights 1, 2, 1 along each axis, periodic, at the even points;
    full weighting is the fold over 16.  fine's rows fold first, into
    scratch's first 2m^2 values, on flat views a stride of two apart, and
    the first column, which they get wrong, is written afresh; coarse and
    scratch's next m^2 values then take copies of the even and odd rows of
    that, which fold along the columns.
    """
    m = len(coarse)
    work = scratch.reshape(-1)
    rows, odd = work[: 2 * m * m].reshape(2 * m, m), work[2 * m * m : 3 * m * m].reshape(m, m)
    v, f, c, o = fine.reshape(-1), rows.reshape(-1), coarse.reshape(-1), odd.reshape(-1)
    first, left = rows[:, 0], fine[:, 0]
    calls = [
        partial(np.add, v[1:-2:2], v[3::2], f[1:]), *[partial(np.add, f[1:], v[2::2], f[1:])] * 2,
        partial(np.add, fine[:, -1], fine[:, 1], first), *[partial(np.add, first, left, first)] * 2,
        partial(np.copyto, coarse, rows[0::2]), partial(np.copyto, odd, rows[1::2]),
        partial(np.add, c, c, c), partial(np.add, c, o, c),
        partial(np.add, c[m:], o[:-m], c[m:]), partial(np.add, coarse[0], odd[-1], coarse[0]),
    ]
    return calls if scale is None else [*calls, partial(np.multiply, c, scale, c)]


def _prolongation(coarse, fine, scratch, spare):
    """The calls that add to fine (2m x 2m) the bilinear interpolation of coarse (m x m), periodic.

    The means of coarse's neighbouring rows go to spare, and copies of
    coarse and of them to the even and odd rows of scratch's first 2m^2
    values; the means of their neighbouring columns go to spare's, on flat
    views, the last column written afresh.  Flat views a stride of two
    apart then add both into fine's even and odd columns.
    """
    m = len(coarse)
    rows, means = (a.reshape(-1)[: 2 * m * m].reshape(2 * m, m) for a in (scratch, spare))
    between = means.reshape(-1)[: m * m].reshape(m, m)
    c, b, r, s, v = (a.reshape(-1) for a in (coarse, between, rows, means, fine))
    return [
        partial(np.add, c[:-m], c[m:], b[:-m]), partial(np.add, coarse[-1], coarse[0], between[-1]),
        partial(np.multiply, b, _HALF, b),
        partial(np.copyto, rows[0::2], coarse), partial(np.copyto, rows[1::2], between),
        partial(np.add, r[:-1], r[1:], s[:-1]),
        partial(np.add, rows[:, -1], rows[:, 0], means[:, -1]),
        partial(np.multiply, s, _HALF, s),
        partial(np.add, v[0::2], r, v[0::2]), partial(np.add, v[1::2], s, v[1::2]),
    ]


class ShiftedVCycle:
    """A V-cycle approximating (c - (1/4) Laplacian)^-1 on an n = 1 fd grid of N^2 points, N >= 8.

    It makes its own arrays, all float32 (`nbytes` counts them): (d, dinv,
    b, x) per smoothed level, the fine one first, the coarsest c, b and x,
    its inverse, spread (its solve's scratch), scale, 4 / N^2, and halves,
    two scratch fields of N^2 values, each level's from their first values.
    `prepare` lays out every level from c.  A cycle makes the calls
    `__init__` lays out and allocates nothing; `prepare` only the inverse
    that LAPACK returns.
    """

    def __init__(self, N: int):
        *smoothed, q = _multigrid_sides(N)
        self.scale = np.array(4.0 / N**2, np.float32)
        self.halves = halves = np.empty((2, N * N), np.float32)
        self.levels = [tuple(np.empty((4, m, m), np.float32)) for m in (N, *smoothed)]
        self.coarsest_c, *self.coarsest = (np.empty((q, q), np.float32) for _ in range(3))
        self.inverse, self.spread = (np.empty((q * q, q * q), np.float32) for _ in range(2))
        # each level's c (then d) and (b, x), from the second down
        below = [(d, (b, x)) for d, _, b, x in self.levels[1:]] + [(self.coarsest_c, self.coarsest)]
        down, up, self.coarsening = [], [], []
        for (d, dinv, b, x), (coarse_d, (coarse_b, coarse_x)) in zip(self.levels, below):
            m = len(x)
            r, t = (half[: m * m].reshape(m, m) for half in halves)
            # b + (the neighbour sum of x) - d x, the residual over m^2/4, into r
            residual = [*_neighbour_sum(x, r), partial(np.add, r, b, r),
                        partial(np.multiply, d, x, t), partial(np.subtract, r, t, r)]
            sweep = [*residual, partial(np.multiply, dinv, r, r), partial(np.add, x, r, x)]
            # the fold over 16 times m^2/4 over the next level's: a quarter, or
            # 1 into the unscaled coarsest, as (2 MULTIGRID_COARSEST)^2/4 = 16
            scale = None if coarse_d is self.coarsest_c else _QUARTER
            self.coarsening += _restriction(d, coarse_d, t, scale)
            down += [partial(np.multiply, dinv, b, x), *sweep * (_SWEEPS - 1), *residual,
                     *_restriction(r, coarse_b, t, scale)]
            up[:0] = [*_prolongation(coarse_x, x, r, t), *sweep * _SWEEPS]
        # the coarsest operator is symmetric, and so its inverse: spread's row j
        # is b[j] times the inverse's row j, and its rows sum pairwise to x
        b, x, f = (a.reshape(-1) for a in (*self.coarsest, self.spread))
        down += [partial(np.copyto, self.spread, b[:, None]),
                 partial(np.multiply, self.spread, self.inverse, self.spread)]
        n = len(f)
        while n > len(b):
            n //= 2
            down.append(partial(np.add, f[:n], f[n : 2 * n], x if n == len(b) else f[:n]))
        self.calls = (*down, *up)

    @staticmethod
    def nbytes(N: int) -> int:
        """The bytes of the arrays a `ShiftedVCycle(N)` makes."""
        *smoothed, q = _multigrid_sides(N)
        levels = sum(4 * m * m for m in (N, *smoothed))
        return 4 * (2 * N * N + levels + 3 * q * q + 2 * q**4 + 1)

    def prepare(self, c):
        """Lay out each level's d and Jacobi weights, and the coarsest c and inverse, from c > 0."""
        fine = self.levels[0][0]
        np.copyto(fine, c)
        fine *= self.scale  # over N^2/4
        for call in self.coarsening:
            call()
        for d, dinv, _, _ in self.levels:
            d += 4.0
            np.divide(_JACOBI_WEIGHT, d, out=dinv)
        inverse = self.inverse  # the coarsest operator, then its inverse
        np.copyto(inverse, _coarsest_quarter_laplacian())
        inverse.reshape(-1)[:: len(inverse) + 1] += self.coarsest_c.reshape(-1)
        np.copyto(inverse, np.linalg.inv(inverse))

    def __call__(self, b, out):
        """The V-cycle from zero for the fine system with right-hand side b, into out (float64)."""
        _, _, rhs, x = self.levels[0]
        np.copyto(rhs, b)
        rhs *= self.scale  # over N^2/4
        for call in self.calls:
            call()
        np.copyto(out, x)
        return out


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
        d = np.empty(grid.shape)
        for axis in range(grid.real_dim):
            _fd_first(phi.values, grid.spacing, axis, d)
            acc += d * d
    return ScalarField(grid, 0.25 * acc)


# ---------------------------------------------------------------------------
# norms


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over every point of two real arrays of one shape.

    Every inner product of grid arrays goes through here.  np.vdot, np.dot
    and @ call BLAS, whose threaded kernels sum in an order set by the thread
    count, so their bits, and the Newton and linear counts that follow from
    them, would depend on it; einsum's loop sums in one order (J. Demmel and
    H. D. Nguyen, "Parallel reproducible summation", IEEE Trans. Computers
    64, 2015).  At 16384 float64 points on a 2-vCPU x86_64 VM it took 9 us,
    against 17 us for a product into scratch then np.add.reduce (np.vdot: 5).
    """
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def oscillation(phi: ScalarField) -> float:
    return float(phi.values.max() - phi.values.min())
