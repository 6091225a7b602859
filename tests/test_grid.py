"""Grid, Hessian, and norm primitives against hand-computed oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maflow.errors import ConfigError
from maflow.grid import (
    HermitianField,
    ScalarField,
    TorusGrid,
    _fd_second,
    gaussian_smooth,
    gradient_sq,
    hessian_components,
    oscillation,
    quarter_laplacian_rayleigh,
    restrict,
    solve_shifted_laplacian,
    torus_separation,
)


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


def laplacian_oracle(v, g, backend):
    """The backend's Laplacian built independently: fd stencils or a complex FFT."""
    if backend == "fd":
        return sum(_fd_second(v, g.spacing, axis) for axis in range(g.real_dim))
    N = g.resolution
    k = np.meshgrid(*[np.fft.fftfreq(N, 1.0 / N)] * g.real_dim, indexing="ij")
    k2 = sum(kj * kj for kj in k)
    return np.fft.ifftn(-4.0 * np.pi**2 * k2 * np.fft.fftn(v)).real


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

    @pytest.mark.parametrize("n, N, k", [(1, 32, (2, -3)), (2, 8, (1, 0, -2, 3))])
    def test_gaussian_smooth_scales_single_mode(self, n, N, k):
        g = TorusGrid(n, N)
        v = wave(g, k)
        delta = 0.07
        factor = np.exp(-np.pi**2 * delta**2 * sum(kj * kj for kj in k))
        assert np.max(np.abs(gaussian_smooth(v, g, delta) - factor * v)) < 1e-12


class TestHermitianField:
    def test_identity_spectrum(self):
        g = TorusGrid(2, 8)
        ident = HermitianField.identity(g)
        assert float(np.min(ident.eig_min())) == pytest.approx(1.0)
        assert float(np.max(ident.det())) == pytest.approx(1.0)
        assert float(np.max(ident.trace())) == pytest.approx(2.0)

    def test_from_matrix_eigenvalues(self):
        g = TorusGrid(2, 8)
        h = HermitianField.from_matrix(g, [[2.0, 1.0], [1.0, 2.0]])
        assert float(np.min(h.eig_min())) == pytest.approx(1.0)
        assert float(np.max(h.eig_max())) == pytest.approx(3.0)
        assert float(np.max(h.det())) == pytest.approx(3.0)


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

    def test_restrict_nested(self):
        fine = TorusGrid(1, 32)
        coarse = TorusGrid(1, 16)
        f = mode_field(fine)
        r = restrict(f, coarse)
        assert r.grid is coarse
        assert r.values[0, 0] == pytest.approx(f.values[0, 0])
        assert r.values[1, 0] == pytest.approx(f.values[2, 0])

    def test_restrict_rejects_non_nested(self):
        with pytest.raises(ConfigError):
            restrict(mode_field(TorusGrid(1, 16)), TorusGrid(2, 8))

    def test_torus_separation_wraps(self):
        p = np.array([[0.05, 0.0]])
        q = np.array([[0.95, 0.0]])
        assert torus_separation(p, q)[0] == pytest.approx(0.1)


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
