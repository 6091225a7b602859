"""Metric paths, volume sandwiches, and the pointwise matrix inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maflow.errors import ConfigError, NotKahlerError
from maflow.geometry import (
    MetricPath,
    VolumeForm,
    certify_metric_path,
    check_trace_inequality,
    comps_det,
    comps_eig_min,
    comps_harmonic_mean,
    comps_trace,
    comps_trace_inv,
    cone_margin,
    kahler_form,
    lowest_eigenvalue,
    ma_density,
    trace_inequality_slacks,
)
from maflow.grid import HermitianField, ScalarField, TorusGrid


class TestVolumeForm:
    def test_constant_log(self):
        g = TorusGrid(1, 16)
        om = VolumeForm.constant(g, 2.0)
        assert float(np.max(om.log())) == pytest.approx(np.log(2.0))
        assert float(np.min(om.log())) == pytest.approx(np.log(2.0))

    def test_from_function(self):
        g = TorusGrid(1, 16)
        om = VolumeForm.from_function(
            g, lambda x, y: 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
        )
        assert om.density.shape == g.shape
        assert float(om.density.max()) == pytest.approx(1.5)


class TestMaDensity:
    def test_flat_density_is_one(self):
        g = TorusGrid(1, 16)
        dens = ma_density(
            HermitianField.identity(g),
            ScalarField.constant(g, 0.0),
            VolumeForm.constant(g, 1.0),
        )
        assert np.max(np.abs(dens.values - 1.0)) < 1e-12

    def test_single_mode_density(self):
        g = TorusGrid(1, 32)
        a = 0.01
        x = g.coordinates()[0]
        phi = ScalarField(
            g, np.broadcast_to(a * np.cos(2.0 * np.pi * x), g.shape).copy()
        )
        dens = ma_density(
            HermitianField.identity(g), phi, VolumeForm.constant(g, 1.0)
        )
        expected = 1.0 - a * np.pi**2 * np.cos(2.0 * np.pi * x)
        assert np.max(np.abs(dens.values - np.broadcast_to(expected, g.shape))) < 1e-10

    def test_raises_outside_cone(self):
        g = TorusGrid(1, 32)
        x = g.coordinates()[0]
        phi = ScalarField(
            g, np.broadcast_to(0.2 * np.cos(2.0 * np.pi * x), g.shape).copy()
        )
        with pytest.raises(NotKahlerError) as exc:
            ma_density(HermitianField.identity(g), phi, VolumeForm.constant(g, 1.0))
        # the form is 1 - 0.2 pi^2 cos(2 pi x): lowest on the line x = 0, first at y = 0
        assert exc.value.location == (0, 0)
        assert exc.value.eigenvalue == pytest.approx(1.0 - 0.2 * np.pi**2, rel=1e-12)


def random_hermitian(rng, grid, shift=0.0):
    """Seeded Hermitian field (complex h12 for n = 2) and its dense matrices."""
    shape = grid.shape
    if grid.n == 1:
        comps = (rng.standard_normal(shape) + shift,)
    else:
        h12 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        comps = (rng.standard_normal(shape) + shift, rng.standard_normal(shape) + shift, h12)
    mats = np.zeros(shape + (grid.n, grid.n), dtype=complex)
    mats[..., 0, 0] = comps[0]
    if grid.n == 2:
        mats[..., 1, 1] = comps[1]
        mats[..., 0, 1] = comps[2]
        mats[..., 1, 0] = np.conj(comps[2])
    return comps, mats


@pytest.mark.parametrize("n", [1, 2])
def test_component_algebra_matches_dense_oracle(n):
    rng = np.random.default_rng(11 + n)
    grid = TorusGrid(n, 8)
    alpha, a = random_hermitian(rng, grid)
    base, b = random_hermitian(rng, grid, shift=10.0)
    assert float(np.linalg.eigvalsh(b).min()) > 0.0  # base is positive definite
    assert np.allclose(comps_det(alpha), np.linalg.det(a).real, atol=1e-12)
    assert np.allclose(comps_eig_min(alpha), np.linalg.eigvalsh(a)[..., 0], atol=1e-12)
    assert cone_margin(alpha) == pytest.approx(float(np.linalg.eigvalsh(a).min()), abs=1e-12)
    assert np.allclose(comps_trace(alpha), np.trace(a, axis1=-2, axis2=-1).real, atol=1e-12)
    b_inv = np.linalg.inv(b)
    tr_inv = np.trace(b_inv @ a, axis1=-2, axis2=-1)
    assert np.allclose(comps_trace_inv(base, alpha), tr_inv.real, atol=1e-12)
    assert np.max(np.abs(tr_inv.imag)) < 1e-12
    harmonic = n / np.trace(b_inv, axis1=-2, axis2=-1).real
    assert np.allclose(comps_harmonic_mean(base), harmonic, atol=1e-12)


def test_kahler_form_adds_theta_to_the_hessian():
    g = TorusGrid(2, 8)
    x1, y1, x2, y2 = g.coordinates()
    phi = np.broadcast_to(0.01 * np.cos(2.0 * np.pi * (x1 + y2)), g.shape)
    theta = HermitianField.from_matrix(g, [[2.0, 0.5j], [-0.5j, 1.0]])
    total, hess = kahler_form(theta, phi, g, "spectral")
    for t, th, h in zip(total, theta.components(), hess):
        assert np.array_equal(t, th + h)
    again, reused = kahler_form(theta, None, g, "spectral", hessian=hess)
    assert reused is hess
    assert all(np.array_equal(a, b) for a, b in zip(again, total))


class TestMetricPath:
    def test_constant_path_certificate_is_tight(self):
        g = TorusGrid(1, 16)
        path = MetricPath.constant(g, 0.5)
        assert certify_metric_path(path, VolumeForm.constant(g, 1.0)) == pytest.approx(1.0)

    def test_affine_path_certificate(self):
        # theta_t = (1 + 0.2 t) I so the volume ratio peaks at 1 + 0.2 T
        g = TorusGrid(1, 16)
        path = MetricPath.affine(g, 0.5, [[0.2]])
        delta = certify_metric_path(path, VolumeForm.constant(g, 1.0))
        assert delta == pytest.approx(1.1, rel=1e-12)

    def test_nef_path_needs_semipositive_reference(self):
        g = TorusGrid(2, 8)
        with pytest.raises(ConfigError):
            MetricPath.nef(g, 0.1, [[1.0, 0.0], [0.0, -0.1]])

    def test_nef_path_degenerate_reference_allowed(self):
        g = TorusGrid(2, 8)
        path = MetricPath.nef(g, 0.1, [[1.0, 0.0], [0.0, 0.0]], eps=0.05)
        theta = path.theta(0.0).components()
        # eigenvalues 0.05 and 1.05
        assert cone_margin(theta) == pytest.approx(0.05)
        assert float(np.max(comps_trace(theta))) == pytest.approx(1.1)


class TestTraceInequality:
    def test_identity_pair_has_zero_slack(self):
        m = np.eye(2)[None, :, :]
        lower, upper = trace_inequality_slacks(m, m)
        assert lower[0] == pytest.approx(0.0, abs=1e-14)
        assert upper[0] == pytest.approx(1.0)

    def test_hand_computed_pair(self):
        # w' = diag(2, 1), w = I: (det w')^(1/2) = sqrt(2), tr/2 = 1.5,
        # right side = det(w') * tr_{w'}(w) = 2 * 1.5 = 3
        wp = np.diag([2.0, 1.0])[None, :, :].astype(complex)
        w = np.eye(2)[None, :, :].astype(complex)
        lower, upper = trace_inequality_slacks(wp, w)
        assert lower[0] == pytest.approx(1.5 - np.sqrt(2.0))
        assert upper[0] == pytest.approx(3.0 - 1.5)

    def test_grid_audit_passes_for_shifted_mode(self):
        g = TorusGrid(1, 16)
        x = g.coordinates()[0]
        h = HermitianField(
            g, np.broadcast_to(1.0 + 0.3 * np.cos(2 * np.pi * x), g.shape).copy()
        )
        result = check_trace_inequality(h, HermitianField.identity(g))
        assert result["passes"]

    def test_grid_audit_rejects_degenerate(self):
        g = TorusGrid(1, 16)
        with pytest.raises(NotKahlerError):
            check_trace_inequality(
                HermitianField.identity(g, 0.0), HermitianField.identity(g)
            )


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_trace_inequality_random_pd_pairs(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
    b = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
    wp = a @ np.conjugate(np.swapaxes(a, -1, -2)) + 1e-6 * np.eye(2)
    w = b @ np.conjugate(np.swapaxes(b, -1, -2)) + 1e-6 * np.eye(2)
    lower, upper = trace_inequality_slacks(wp, w)
    assert float(lower.min()) >= -1e-10
    assert float(upper.min()) >= -1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_lowest_eigenvalue_names_the_first_worst_point(n):
    grid = TorusGrid(n, 8)
    comps, mats = random_hermitian(np.random.default_rng(5), grid)
    eig = np.linalg.eigvalsh(mats)[..., 0]
    value, index = lowest_eigenvalue(comps, grid.shape)
    assert value == pytest.approx(float(eig.min()), rel=1e-12)
    assert index == np.unravel_index(int(np.argmin(eig)), grid.shape)
    # a constant form ties everywhere: the first grid point wins
    flat = HermitianField.identity(grid, 0.5).components()
    assert lowest_eigenvalue(flat, grid.shape) == (0.5, (0,) * (2 * n))
