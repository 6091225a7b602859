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
At n=1 they are Fourier symbols applied with real FFTs, and fd stencils
built from slices.  At n=2 derivatives and the preconditioner's operator
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
of values: float32 values are multiplied by cached float32 copies of the
per-axis matrices and give float32 (and complex64) results.  The flow
solves its Newton correction in float32 on the grids `correction_dtype`
names, n=2 from SINGLE_PRECISION_RESOLUTION points per axis up, and in
float64 everywhere else; every other operator here is float64 only.  The
n=2 caches hold N x N arrays only: the grid-shaped symbol the solve and
the Rayleigh quotient need is laid out into their scratch when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError

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


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid on R^{2n}/Z^{2n}.

    n : complex dimension, 1 or 2.
    resolution : points per real axis, a power of two >= 8.
    """

    n: int = 1
    resolution: int = 64

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
    the per-axis products (and shift + symbol for a float shift); at n = 1
    spectrum[0] holds the transform.
    """
    if grid.n == 2:
        q = _per_axis(_quarter_laplacian_basis, values, grid.resolution, backend)[0]
        coef = _along_every_axis(q.T, values, out, scratch)
        if not np.ndim(shift):
            shift = add_shift(shift, _laid_out_symbol(grid, backend, values.dtype, scratch))
        coef /= shift
        return _along_every_axis(q, coef, out, scratch)
    if not np.ndim(shift):
        shift = inverse_shifted_symbol(grid, backend, shift)
    hat = _rfft(values, grid, None if spectrum is None else spectrum[0])
    hat *= shift
    return _irfft(hat, grid, out)


def add_shift(shift, symbol: np.ndarray) -> np.ndarray:
    """symbol += shift in place, with the bits of np.add(shift, symbol, out=symbol).

    numpy sums in the dtype the two promote to and rounds into symbol's, so
    an np.float64 shift (the flow's, as dt is one) on a float32 symbol sums
    in float64.  np.add would cast through numpy's buffer, up to 8192
    values (a quarter field at 16^4); here the sum is taken one slice
    along the first axis at a time (N^3 values at n = 2), copied up into
    a block of the promoted dtype, added and copied back down.
    """
    dtype = np.result_type(shift, symbol)
    if dtype == symbol.dtype:
        return np.add(shift, symbol, out=symbol)
    block = np.empty(symbol.shape[1:], dtype)
    for part in symbol:
        np.copyto(block, part)
        block += shift
        np.copyto(part, block)
    return symbol


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
        q = _per_axis(_quarter_laplacian_basis, values, grid.resolution, backend)[0]
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
        return _freeze(_fd_first(eye, h, 0)), _freeze(_fd_second(eye, h, 0))
    k = np.fft.fftfreq(N, 1.0 / N)
    modes = np.fft.fft(eye, axis=0)
    d1 = np.fft.ifft((2j * np.pi * k)[:, None] * modes, axis=0).real
    d2 = np.fft.ifft((-4.0 * np.pi**2 * k * k)[:, None] * modes, axis=0).real
    return _freeze(d1), _freeze(d2)


@lru_cache(maxsize=8)
def _hessian_matrices(N, backend):
    """(d1 / 2, d2 / 4): _axis_matrices with the Hessian's factor 1/4 folded in.

    Both factors are powers of two, so a product with them rounds exactly as
    the unscaled product then scaled.
    """
    d1, d2 = _axis_matrices(N, backend)
    return _freeze(0.5 * d1), _freeze(0.25 * d2)


@lru_cache(maxsize=8)
def _quarter_laplacian_basis(N, backend):
    """(Q, pair): -(1/4) Laplacian at n=2 is Q diag(symbol) Q^T on every axis.

    Q holds orthonormal eigenvectors of the per-axis -(1/4) d2 and pair
    (N x N) the sums of their eigenvalues over two axes, so the symbol, the
    sum over all four, is pair[i, j] + pair[k, l] at grid index (i, j, k,
    l).  Only these N x N arrays are cached: the grid-shaped symbol is laid
    out where it is used (`_laid_out_symbol`).
    """
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


@lru_cache(maxsize=8)
def _single(source, N, backend):
    """float32 copies of the arrays source(N, backend) returns."""
    return tuple(_freeze(a.astype(np.float32)) for a in source(N, backend))


def _per_axis(source, values, N, backend):
    """source(N, backend)'s arrays in the precision of values.

    source is _hessian_matrices or _quarter_laplacian_basis.
    """
    if values.dtype == np.float32:
        return _single(source, N, backend)
    return source(N, backend)


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


def _fd_second(values, h, axis, out=None):
    """((v[i+1] - 2 v[i]) + v[i-1]) / h^2 along axis, periodic, into out when given.

    out must not alias values.  The interior is updated in place on flat
    C-order views, where a neighbour is one axis stride away: numpy copies
    an operand of an in-place update that is a non-contiguous slice, but
    not a contiguous one.  The two end slabs, which the flat views get
    wrong, are then written afresh; for a 2-D array they are 1-D, so no
    copy is made anywhere.
    """
    if out is None:
        out = np.empty(values.shape)
    np.multiply(values, 2.0, out=out)
    d = math.prod(values.shape[axis + 1 :])
    v, o = values.reshape(-1), np.reshape(out, -1, copy=False)
    np.subtract(v[d:], o[:-d], out=o[:-d])
    o[d:] += v[:-d]
    v, o = values.swapaxes(0, axis), out.swapaxes(0, axis)
    for i in (0, -1):
        np.multiply(v[i], 2.0, out=o[i])
        np.subtract(v[i + 1], o[i], out=o[i])
        o[i] += v[i - 1]
    out /= h**2
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
    h = grid.spacing
    h11 = _fd_second(values, h, 0, h11)
    h11 += _fd_second(values, h, 1, scratch)
    return (np.multiply(0.25, h11, out=h11),)


def _hessian_axes(values, grid, backend, out=None, scratch=None):
    """The n=2 Hessian (h11, h22, h12) from per-axis derivative matrices.

    Axes are (x1, y1, x2, y2); Re h12 = (x1x2 + y1y2)/4 and
    Im h12 = (x1y2 - y1x2)/4.  The factor 1/4 is in the cached matrices
    (d1/2 on each of the two axes of a mixed term, d2/4), so no pass scales
    the sums.  out and scratch as in hessian_components.
    """
    d1, d2 = _per_axis(_hessian_matrices, values, grid.resolution, backend)
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
