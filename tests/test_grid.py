"""Grid, Hessian, and norm primitives against hand-computed oracles."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maflow import RoughPotential
from maflow.errors import ConfigError
from maflow.grid import (
    ScalarField,
    ShiftedVCycle,
    TorusGrid,
    _along,
    _along_every_axis,
    _axis_matrices,
    _coarsest_quarter_laplacian,
    _fd_first,
    _fd_quarter_laplacian,
    _multigrid_sides,
    _quarter_laplacian_basis,
    _quarter_laplacian_symbol,
    _prolongation,
    _restriction,
    gaussian_smooth,
    gradient_sq,
    hessian_components,
    inner,
    inverse_shifted_symbol,
    oscillation,
    quarter_laplacian_rayleigh,
    solve_shifted_laplacian,
)


def roll_second(v, h, axis):
    """The periodic centred second difference written with np.roll."""
    return (np.roll(v, -1, axis) - 2.0 * v + np.roll(v, 1, axis)) / h**2


def roll_first(v, h, axis):
    """The periodic centred first difference written with np.roll."""
    return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)


def mode_field(grid, amplitude=1.0, axis=0):
    coords = grid.coordinates()
    vals = amplitude * np.cos(2.0 * np.pi * coords[axis])
    return ScalarField(grid, np.broadcast_to(vals, grid.shape).copy())


def wave(grid, k):
    """cos 2 pi (k . x) sampled on the grid, k one integer per real axis."""
    phase = sum(kj * c for kj, c in zip(k, grid.coordinates()))
    return np.broadcast_to(np.cos(2.0 * np.pi * phase), grid.shape).copy()


class TestTorusGrid:
    def test_shapes_n1(self):
        g = TorusGrid(1, 16)
        assert g.shape == (16, 16)
        assert g.real_dim == 2
        assert g.spacing == pytest.approx(1.0 / 16)
        cx, cy = g.coordinates()
        assert cx.shape == (16, 1) and cy.shape == (1, 16)
        assert cx[1, 0] == pytest.approx(1.0 / 16)

    def test_shapes_n2(self):
        g = TorusGrid(2, 8)
        assert g.shape == (8, 8, 8, 8)
        assert len(g.coordinates()) == 4

    @pytest.mark.parametrize("bad", [4, 12, 24, 100])
    def test_resolution_must_be_power_of_two(self, bad):
        with pytest.raises(ConfigError):
            TorusGrid(1, bad)

    def test_dimension_must_be_one_or_two(self):
        with pytest.raises(ConfigError):
            TorusGrid(3, 16)


class TestHessian:
    def test_single_mode_spectral_exact(self):
        # the complex Hessian of cos(2 pi x1) is -pi^2 cos(2 pi x1)
        g = TorusGrid(1, 32)
        comps = hessian_components(mode_field(g).values, g, "spectral")
        expected = -np.pi**2 * np.cos(2.0 * np.pi * g.coordinates()[0])
        assert np.max(np.abs(comps[0] - np.broadcast_to(expected, g.shape))) < 1e-10

    def test_single_mode_fd_second_order(self):
        g = TorusGrid(1, 64)
        comps = hessian_components(mode_field(g).values, g, "fd")
        expected = np.broadcast_to(
            -np.pi**2 * np.cos(2.0 * np.pi * g.coordinates()[0]), g.shape
        )
        rel = np.max(np.abs(comps[0] - expected)) / np.pi**2
        # centred differences: relative error (pi h)^2 / 3 to leading order
        assert rel < 1.05 * (np.pi * g.spacing) ** 2 / 3.0

    def test_fd_refines_at_second_order(self):
        errs = []
        for N in (32, 64, 128):
            g = TorusGrid(1, N)
            comps = hessian_components(mode_field(g).values, g, "fd")
            expected = np.broadcast_to(
                -np.pi**2 * np.cos(2.0 * np.pi * g.coordinates()[0]), g.shape
            )
            errs.append(np.max(np.abs(comps[0] - expected)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_n2_mode_touches_single_component(self):
        g = TorusGrid(2, 8)
        comps = hessian_components(mode_field(g).values, g, "spectral")
        expected = np.broadcast_to(
            -np.pi**2 * np.cos(2.0 * np.pi * g.coordinates()[0]), g.shape
        )
        assert np.max(np.abs(comps[0] - expected)) < 1e-10
        assert np.max(np.abs(comps[1])) < 1e-12
        assert np.max(np.abs(comps[2])) < 1e-12

    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    @pytest.mark.parametrize("N", [8, 16])
    def test_n2_components_match_fft_and_stencil_formulas(self, N, backend):
        g = TorusGrid(2, N)
        v = np.random.default_rng(N).standard_normal(g.shape)
        h11, h22, h12 = hessian_components(v, g, backend)
        for got, want in zip((h11, h22, h12.real, h12.imag), hessian_oracle(v, g, backend)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # axes (x1, y1, x2, y2) = (0, 1, 2, 3); for cos 2 pi (x_a + x_b) the exact
    # h12 is -pi^2 cos times (re, im): Re h12 = (x1x2 + y1y2)/4 and
    # Im h12 = (x1y2 - y1x2)/4.
    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    @pytest.mark.parametrize(
        "axes, re, im",
        [((0, 2), 1.0, 0.0), ((1, 3), 1.0, 0.0), ((0, 3), 0.0, 1.0), ((1, 2), 0.0, -1.0)],
    )
    def test_n2_mixed_mode_splits_h12(self, backend, axes, re, im):
        g = TorusGrid(2, 8)
        k = [0, 0, 0, 0]
        for a in axes:
            k[a] = 1
        v = wave(g, k)
        h12 = hessian_components(v, g, backend)[2]
        # centred first differences scale each d/dx by sin(2 pi h) / (2 pi h)
        h = g.spacing
        scale = np.pi**2 if backend == "spectral" else (np.sin(2.0 * np.pi * h) / (2.0 * h)) ** 2
        assert np.max(np.abs(h12.real + re * scale * v)) < 1e-10
        assert np.max(np.abs(h12.imag + im * scale * v)) < 1e-10


def hessian_oracle(v, g, backend):
    """The n=2 Hessian through rfftn symbols (spectral) or np.roll stencils (fd).

    Returns (h11, h22, Re h12, Im h12).
    """
    if backend == "fd":
        h = g.spacing
        dx1 = roll_first(v, h, 0)
        dy1 = roll_first(v, h, 1)
        return (
            0.25 * (roll_second(v, h, 0) + roll_second(v, h, 1)),
            0.25 * (roll_second(v, h, 2) + roll_second(v, h, 3)),
            0.25 * (roll_first(dx1, h, 2) + roll_first(dy1, h, 3)),
            0.25 * (roll_first(dx1, h, 3) - roll_first(dy1, h, 2)),
        )
    N = g.resolution
    k = np.meshgrid(
        *[np.fft.fftfreq(N, 1.0 / N)] * 3, np.fft.rfftfreq(N, 1.0 / N), indexing="ij", sparse=True
    )
    kd = [np.where(np.abs(kj) == N // 2, 0.0, kj) for kj in k]  # no Nyquist in odd orders
    symbols = (
        k[0] ** 2 + k[1] ** 2,
        k[2] ** 2 + k[3] ** 2,
        kd[0] * kd[2] + kd[1] * kd[3],
        kd[0] * kd[3] - kd[1] * kd[2],
    )
    hat = np.fft.rfftn(v)
    axes = tuple(range(4))
    return tuple(np.fft.irfftn(-(np.pi**2) * s * hat, s=v.shape, axes=axes) for s in symbols)


def laplacian_oracle(v, g, backend):
    """The backend's Laplacian built independently: np.roll stencils or a complex FFT."""
    if backend == "fd":
        return sum(roll_second(v, g.spacing, axis) for axis in range(g.real_dim))
    N = g.resolution
    k = np.meshgrid(*[np.fft.fftfreq(N, 1.0 / N)] * g.real_dim, indexing="ij")
    k2 = sum(kj * kj for kj in k)
    return np.fft.ifftn(-4.0 * np.pi**2 * k2 * np.fft.fftn(v)).real


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(8, 8), (16, 32), (8, 8, 8, 8)])
def test_slice_stencils_match_the_roll_formula_bit_for_bit(shape, order):
    v = np.asarray(np.random.default_rng(len(shape)).standard_normal(shape), order=order)
    before = v.copy()
    h = 1.0 / shape[0]
    for axis in range(len(shape)):
        want = roll_first(v, h, axis).tobytes()
        assert _fd_first(v, h, axis).tobytes() == want
        out = np.full(shape, np.nan)
        assert _fd_first(v, h, axis, out) is out
        assert out.tobytes() == want
    assert v.tobytes() == before.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("N", [8, 32, 128])
def test_the_fd_quarter_laplacian_is_the_roll_formula_bit_for_bit(N, order):
    v = np.asarray(np.random.default_rng(N).standard_normal((N, N)), order=order)
    before, h = v.copy(), 1.0 / N
    # the columns' second difference plus the rows', each at spacing 2h
    want = (roll_second(v, 2.0 * h, 0) + roll_second(v, 2.0 * h, 1)).tobytes()
    assert _fd_quarter_laplacian(v, h).tobytes() == want
    out, scratch = np.full((N, N), np.nan), np.full((N, N), np.nan)
    assert _fd_quarter_laplacian(v, h, out, scratch) is out
    assert out.tobytes() == want
    assert v.tobytes() == before.tobytes()
    # an out with no flat C-order view is refused, not written through a copy
    for strided in (np.empty((N, N), order="F"), np.empty((N, N + 1))[:, :N]):
        with pytest.raises(ValueError):
            _fd_quarter_laplacian(v, h, strided, scratch)


def test_the_fd_quarter_laplacian_rounds_at_the_scale_of_the_differences():
    # scenario 07's corner at 256^2 against the correctly rounded stencil
    # (math.fsum of the four neighbours and -4 v): second differences taken
    # before any sum give a mean error of 4.7e-15; summing the four
    # neighbours first rounds at the scale of |v| and gave 5.4e-13, which
    # stalled Newton in the corner's first step at 256^2
    N = 256
    phi = RoughPotential.paraboloid(curvature=0.999).sample(TorusGrid(n=1, resolution=N)).values
    terms = [np.roll(phi, s, a).ravel().tolist() for a in (0, 1) for s in (1, -1)]
    terms.append((-4.0 * phi).ravel().tolist())
    exact = np.reshape([math.fsum(p) for p in zip(*terms)], (N, N)) * (N * N / 4)
    assert np.mean(np.abs(_fd_quarter_laplacian(phi, 1.0 / N) - exact)) <= 1e-14


@pytest.mark.parametrize("N", [8, 16])
def test_fd_circulants_are_the_roll_stencils_of_the_identity(N):
    d1, d2 = _axis_matrices(N, "fd")
    eye, h = np.eye(N), 1.0 / N
    assert d1.tobytes() == roll_first(eye, h, 0).tobytes()
    assert d2.tobytes() == roll_second(eye, h, 0).tobytes()


def hessian_with_quarter_passes(values, backend):
    """The n=2 Hessian from the unscaled per-axis d1 and d2, then a pass of *= 0.25 on each sum."""
    d1, d2 = (m.astype(values.dtype) for m in _axis_matrices(values.shape[0], backend))
    dx1, dy1 = _along(d1, values, 0), _along(d1, values, 1)
    h12 = np.empty(values.shape, np.result_type(values, np.complex64))
    h12.real[...] = _along(d1, dx1, 2)
    h12.real += _along(d1, dy1, 3)
    h12.imag[...] = _along(d1, dx1, 3)
    h12.imag -= _along(d1, dy1, 2)
    h12 *= 0.25
    h11 = _along(d2, values, 0) + _along(d2, values, 1)
    h11 *= 0.25
    h22 = _along(d2, values, 2) + _along(d2, values, 3)
    h22 *= 0.25
    return h11, h22, h12


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("N, dtype", [(8, np.float64), (16, np.float32)])
def test_n2_hessian_with_the_quarter_in_its_matrices_keeps_every_bit(N, dtype, backend):
    # scaling by a power of two is exact, so d1/2 and d2/4 round as the old passes did
    g = TorusGrid(2, N)
    v = np.random.default_rng(N).standard_normal(g.shape).astype(dtype)
    want = hessian_with_quarter_passes(v, backend)
    out = (np.empty(g.shape, dtype), np.empty(g.shape, dtype), np.empty(g.shape, want[2].dtype))
    got = hessian_components(v, g, backend, out, np.empty(g.shape, dtype))
    assert all(a is b for a, b in zip(got, out))
    for components in (got, hessian_components(v, g, backend)):
        assert [c.tobytes() for c in components] == [c.tobytes() for c in want]


def solve_and_rayleigh_with_the_symbol_cached_whole(values, backend, shift):
    """The n=2 solve and Rayleigh quotient with a grid-shaped symbol, shift added on each solve.

    The symbol is summed whole in float64 and cast whole to float32 for
    float32 values.
    """
    q, pair = _quarter_laplacian_basis(values.shape[0], backend)
    symbol = pair[:, :, None, None] + pair[None, None, :, :]
    q, symbol = q.astype(values.dtype), symbol.astype(values.dtype)
    coef = _along_every_axis(q.T, values)
    power = np.square(coef)
    rayleigh = inner(power, symbol) / float(np.sum(power))
    coef /= np.add(shift, symbol, out=np.empty_like(values))
    return _along_every_axis(q, coef), rayleigh


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("N, dtype", [(8, np.float64), (16, np.float64), (16, np.float32)])
# a number, and an np.float64 as the flow's shift is, which a float32 sum promotes
@pytest.mark.parametrize("shift", [3.0, np.float64(1.0) / 3.0])
def test_n2_solve_with_a_laid_out_symbol_keeps_every_bit(N, dtype, backend, shift):
    # the Rayleigh quotient leaves the symbol in its scratch, and the shift
    # added there once is what every solve divides by
    g = TorusGrid(2, N)
    v = np.random.default_rng(N).standard_normal(g.shape).astype(dtype)
    want, want_rayleigh = solve_and_rayleigh_with_the_symbol_cached_whole(v, backend, shift)
    out, scratch, symbol = (np.empty(g.shape, dtype) for _ in range(3))
    assert quarter_laplacian_rayleigh(v, g, backend, out, symbol) == want_rayleigh
    laid_out = np.add(shift, symbol, out=symbol)
    got = solve_shifted_laplacian(v, g, backend, laid_out, out, scratch)
    assert got is out and got.tobytes() == want.tobytes()
    # a shift given as a number is laid out by the solve itself
    assert solve_shifted_laplacian(v, g, backend, shift).tobytes() == want.tobytes()
    got = solve_shifted_laplacian(v, g, backend, shift, out, scratch)
    assert got.tobytes() == want.tobytes()
    assert quarter_laplacian_rayleigh(v, g, backend) == want_rayleigh


class TestSpectralLayer:
    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    @pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
    def test_shifted_laplacian_solve_inverts_backend_operator(self, n, N, backend):
        g = TorusGrid(n, N)
        v = np.random.default_rng(7).standard_normal(g.shape)
        lap = laplacian_oracle(v, g, backend)
        shift = 3.0
        u = solve_shifted_laplacian(shift * v - 0.25 * lap, g, backend, shift)
        assert np.max(np.abs(u - v)) < 1e-10

    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    @pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
    def test_rayleigh_quotient_matches_physical_space(self, n, N, backend):
        g = TorusGrid(n, N)
        v = np.random.default_rng(11).standard_normal(g.shape)
        want = np.sum(v * (-0.25 * laplacian_oracle(v, g, backend))) / np.sum(v * v)
        assert quarter_laplacian_rayleigh(v, g, backend) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    @pytest.mark.parametrize("N", [8, 16])
    def test_n2_solve_and_rayleigh_match_fft_symbol(self, N, backend):
        g = TorusGrid(2, N)
        v = np.random.default_rng(N + 1).standard_normal(g.shape)
        symbol = _quarter_laplacian_symbol(2, N, backend)
        hat = np.fft.rfftn(v)
        shift = 3.0
        want = np.fft.irfftn(hat / (shift + symbol), s=v.shape, axes=tuple(range(4)))
        got = solve_shifted_laplacian(v, g, backend, shift)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        power = np.abs(hat) ** 2
        power[..., 1 : N // 2] *= 2.0  # interior last-axis modes pair with their conjugates
        want = np.sum(power * symbol) / np.sum(power)
        assert quarter_laplacian_rayleigh(v, g, backend) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    def test_n2_kernels_follow_float32_values(self, backend):
        g = TorusGrid(2, 16)
        v = np.random.default_rng(13).standard_normal(g.shape)
        v32 = v.astype(np.float32)
        # a length-N dot product rounds by about N u at most; the solve chains eight
        bound = 8 * g.resolution * np.finfo(np.float32).eps / 2

        def close(got, want):
            return np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

        got = hessian_components(v32, g, backend)
        assert [c.dtype for c in got] == [np.float32, np.float32, np.complex64]
        assert all(map(close, got, hessian_components(v, g, backend)))
        got = solve_shifted_laplacian(v32, g, backend, 3.0)
        assert got.dtype == np.float32
        assert close(got, solve_shifted_laplacian(v, g, backend, 3.0))
        want = quarter_laplacian_rayleigh(v, g, backend)
        assert quarter_laplacian_rayleigh(v32, g, backend) == pytest.approx(want, rel=bound)

    @pytest.mark.parametrize("backend", ["spectral", "fd"])
    def test_n2_operators_reach_no_fft_once_built(self, backend, monkeypatch):
        g = TorusGrid(2, 8)
        v = np.random.default_rng(5).standard_normal(g.shape)

        def calls():
            return (
                hessian_components(v, g, backend),
                solve_shifted_laplacian(v, g, backend, 2.0),
                quarter_laplacian_rayleigh(v, g, backend),
                gradient_sq(ScalarField(g, v), backend),
            )

        calls()  # builds the cached matrices

        def refuse(*args, **kwargs):
            raise AssertionError("FFT reached on the n=2 path")

        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        calls()

    @pytest.mark.parametrize("n, N, k", [(1, 32, (2, -3)), (2, 8, (1, 0, -2, 3))])
    def test_gaussian_smooth_scales_single_mode(self, n, N, k):
        g = TorusGrid(n, N)
        v = wave(g, k)
        delta = 0.07
        factor = np.exp(-np.pi**2 * delta**2 * sum(kj * kj for kj in k))
        assert np.max(np.abs(gaussian_smooth(v, g, delta) - factor * v)) < 1e-12


class TestNorms:
    def test_gradient_sq_single_mode(self):
        # |d/dz cos(2 pi x)|^2 = pi^2 sin^2(2 pi x)
        g = TorusGrid(1, 32)
        gsq = gradient_sq(mode_field(g, amplitude=0.5))
        expected = 0.25 * np.pi**2 * np.sin(2.0 * np.pi * g.coordinates()[0]) ** 2
        assert np.max(np.abs(gsq.values - np.broadcast_to(expected, g.shape))) < 1e-10

    def test_oscillation_shift_invariant(self):
        g = TorusGrid(1, 16)
        f = mode_field(g, amplitude=0.3)
        assert oscillation(f) == pytest.approx(0.6)
        assert oscillation(f.shifted(5.0)) == pytest.approx(0.6)


@settings(max_examples=25, deadline=None)
@given(
    amp=st.floats(min_value=-0.04, max_value=0.04),
    shift=st.floats(min_value=-3.0, max_value=3.0),
)
def test_hessian_ignores_constants(amp, shift):
    g = TorusGrid(1, 16)
    base = mode_field(g, amplitude=amp)
    h0 = hessian_components(base.values, g, "spectral")[0]
    h1 = hessian_components(base.shifted(shift).values, g, "spectral")[0]
    assert np.max(np.abs(h0 - h1)) < 1e-9


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_the_n1_solve_multiplies_by_the_bits_of_the_divide(backend):
    g = TorusGrid(1, 32)
    rng = np.random.default_rng(11)
    hat = rng.standard_normal(g.spectrum_shape) + 1j * rng.standard_normal(g.spectrum_shape)
    hat[0, 0] = 3.0  # a real mode, as the mean of a real field gives
    inverse = inverse_shifted_symbol(g, backend, 2.5)
    assert inverse.dtype == complex and not np.any(inverse.imag)
    divided = hat / np.add(2.5, _quarter_laplacian_symbol(1, 32, backend))
    assert np.array_equal(hat * inverse, divided)
    out, scratch = np.empty(g.spectrum_shape, complex), np.empty(g.spectrum_shape)
    assert inverse_shifted_symbol(g, backend, 2.5, out, scratch) is out
    assert out.tobytes() == inverse.tobytes()


# -- the n = 1 fd V-cycle ---------------------------------------------------------

U = np.finfo(np.float64).eps / 2
U_CYCLE = np.finfo(np.float32).eps / 2  # the V-cycle runs in float32: 2^-24


@pytest.mark.parametrize("m", [4, 16])
def test_the_vcycle_transfers_are_the_roll_formulas(m):
    rng = np.random.default_rng(m)
    fine, coarse = rng.standard_normal((2 * m, 2 * m)), rng.standard_normal((m, m))
    # full weighting: 1/4, 1/2, 1/4 along each axis, taken at the even points
    folded = np.roll(fine, 1, 0) + 2 * fine + np.roll(fine, -1, 0)
    want = (np.roll(folded, 1, 1) + 2 * folded + np.roll(folded, -1, 1))[0::2, 0::2] / 16
    got = np.empty((m, m))
    for call in _restriction(fine, got, np.empty(4 * m * m), 1.0 / 16.0):
        call()
    # each side sums 16 weighted values (weights summing to 16) in 8 roundings
    # of partial sums below 16 max|fine|, then scales by 1/16 exactly
    assert np.max(np.abs(got - want)) <= 2 * 8 * U * np.max(np.abs(fine))
    # bilinear interpolation: the values at even points, means of 2 or 4 between
    down, right = np.roll(coarse, -1, 0), np.roll(coarse, -1, 1)
    want = np.zeros((2 * m, 2 * m))
    want[0::2, 0::2] = coarse
    want[1::2, 0::2] = (coarse + down) / 2
    want[0::2, 1::2] = (coarse + right) / 2
    want[1::2, 1::2] = (coarse + down + right + np.roll(down, -1, 1)) / 4
    base = rng.standard_normal((2 * m, 2 * m))
    got = base.copy()
    for call in _prolongation(coarse, got, np.empty(4 * m * m), np.empty(4 * m * m)):
        call()
    # each side rounds a mean of means and the add at most four times
    assert np.max(np.abs(got - base - want)) <= 2 * 4 * U * (
        np.max(np.abs(coarse)) + np.max(np.abs(base))
    )


def test_the_coarsest_operator_and_its_inverse():
    # the matrix is -(1/4) Laplacian of the 4^2 level, the fd stencil at h = 1/4
    q, m = _coarsest_quarter_laplacian(), _multigrid_sides(64)[-1]
    values = np.random.default_rng(1).standard_normal((m, m))
    want = -0.25 * (roll_second(values, 1 / m, 0) + roll_second(values, 1 / m, 1))
    assert np.allclose((q @ values.reshape(-1)).reshape(m, m), want, rtol=0, atol=1e-12)
    # the inverse a cycle lays out is that of q shifted by its coarsest c
    cycle, _ = corner_vcycle(64)
    matrix = q + np.diag(cycle.coarsest_c.reshape(-1))
    # LU with partial pivoting on a diagonally dominant matrix: a residual
    # within a few n u |matrix| |inverse| (N. J. Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 14)
    n = len(matrix)
    bound = 2 * n * U_CYCLE * np.max(np.abs(matrix) @ np.abs(cycle.inverse))
    assert np.max(np.abs(matrix @ cycle.inverse - np.eye(n))) <= bound


def shifted_operator(c, x):
    """A x = c x - H(x), H the n = 1 fd Hessian: the system a V-cycle prepared from c inverts."""
    return c * x - hessian_components(x, TorusGrid(n=1, resolution=len(x)), "fd")[0]


def corner_vcycle(N, dt=1e-3):
    """(cycle, c): a V-cycle for c - (1/4) Laplacian, c = w/dt and w = 1 + H of scenario 07's
    corner on N^2 fd points."""
    from maflow import RoughPotential

    grid = TorusGrid(n=1, resolution=N)
    phi = RoughPotential.paraboloid(curvature=0.999).sample(grid).values
    c = (1.0 + hessian_components(phi, grid, "fd")[0]) / dt
    cycle = ShiftedVCycle(N)
    cycle.prepare(c)
    return cycle, c


@pytest.mark.parametrize("N", [8, 16, 64])
def test_the_vcycle_is_linear_to_rounding(N):
    cycle, _ = corner_vcycle(N)
    a, b = np.random.default_rng(N).standard_normal((2, N, N))

    def V(rhs):
        return cycle(rhs, np.empty((N, N))).copy()

    # a power of two scales every value the cycle forms exactly
    assert np.array_equal(V(0.25 * a), 0.25 * V(a))
    # Each sweep x + dinv (b - A x) is non-expansive in the max norm (the
    # absolute row sums of I - dinv A are 1 - w + w / (1 + c h^2) <= 1),
    # full weighting and bilinear interpolation average, and each forms a
    # value in at most 16 roundings: 4 sweeps and 2 transfers per level, so
    # a cycle rounds each value at most 16 * 6 * levels times, each time
    # within u of values that the non-expansive steps keep below the
    # cycle's output.  Three cycles are compared.
    levels = len(_multigrid_sides(N)) + 1
    bound = 3 * 16 * 6 * levels * U_CYCLE * max(np.max(np.abs(V(v))) for v in (a, b, a + b))
    assert np.max(np.abs(V(a + b) - V(a) - V(b))) <= bound


@pytest.mark.parametrize("N", [8, 16, 64])
def test_the_vcycle_applies_the_operator_it_inverts(N):
    # c, h and the stencil: (c - (1/4) Laplacian) x, the fd Laplacian
    cycle, c = corner_vcycle(N)
    x = np.random.default_rng(3).standard_normal((N, N))
    want = c * x - 0.25 * (roll_second(x, 1 / N, 0) + roll_second(x, 1 / N, 1))
    got = shifted_operator(c, x)
    # the stencils' terms reach (c + 2 N^2) |x|, each rounded a few times
    assert np.max(np.abs(got - want)) <= 8 * U * np.max((c + 2 * N * N) * np.abs(x))
    # one cycle from zero already removes most of the residual
    b = np.random.default_rng(4).standard_normal((N, N))
    residual = b - shifted_operator(c, cycle(b, np.empty((N, N))).copy())
    assert np.linalg.norm(residual) < 0.25 * np.linalg.norm(b)


def test_a_vcycle_allocates_nothing():
    # every call it makes is laid out at construction, on 1-D or contiguous
    # operands that numpy iterates without buffers, or copies of strided views
    cycle, _ = corner_vcycle(128)
    b, out = np.random.default_rng(7).standard_normal((2, 128, 128))
    cycle(b, out)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cycle(b, out)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an array, even a view or a 0-d one, takes at least its header: more
    # than the iterator of the loop over the calls
    assert after == before and peak - before < sys.getsizeof(np.empty(()))


def test_the_float32_vcycle_holds_no_more_than_the_float64_one():
    # the float64 cycle held 700,800 B at 128^2; its coarse levels take half
    # as many bytes in float32, and its scratch is a float32 pair
    assert ShiftedVCycle.nbytes(128) <= 700_800
