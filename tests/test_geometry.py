"""Forms, metric paths, volume sandwiches, and the pointwise matrix inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maflow.errors import ConfigError
from maflow.geometry import (
    MetricPath,
    VolumeForm,
    certify_metric_path,
    comps_det,
    comps_eig_min,
    comps_harmonic_mean,
    comps_mixed,
    comps_trace,
    comps_trace_inv,
    cone_margin,
    form_from_matrix,
    identity_form,
    kahler_form,
    lowest_eigenvalue,
    trace_inequality_slacks,
)
from maflow.grid import (
    TorusGrid,
    hessian_components,
    inverse_shifted_symbol,
    quarter_laplacian_rayleigh,
    solve_shifted_laplacian,
)


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
        # kept at the broadcast shape the function returns: one value per x
        x = g.coordinates()[0]
        assert om.density.shape == (16, 1)
        assert np.array_equal(om.density, 1.0 + 0.5 * np.cos(2.0 * np.pi * x))
        assert float(om.density.max()) == pytest.approx(1.5)
        assert om.log().shape == (16, 1)

    def test_a_density_must_broadcast_to_the_grid_itself(self):
        g = TorusGrid(1, 16)
        with pytest.raises(ConfigError, match="not broadcastable"):
            VolumeForm(g, np.ones((2, 16, 16)))
        with pytest.raises(ConfigError, match="not broadcastable"):
            VolumeForm.from_function(g, lambda x, y: np.ones((8, 1)))


class TestForms:
    def test_identity_spectrum(self):
        ident = identity_form(2)
        assert cone_margin(ident) == pytest.approx(1.0)
        assert float(comps_det(ident)) == pytest.approx(1.0)
        assert float(comps_trace(ident)) == pytest.approx(2.0)

    def test_from_matrix_eigenvalues(self):
        h = form_from_matrix([[2.0, 1.0], [1.0, 2.0]], 2)
        # eigenvalues 1 and 3
        assert cone_margin(h) == pytest.approx(1.0)
        assert float(comps_trace(h)) == pytest.approx(4.0)
        assert float(comps_det(h)) == pytest.approx(3.0)

    def test_from_matrix_takes_the_hermitian_part(self):
        h11, h22, h12 = form_from_matrix([[2.0, 1.0 + 2.0j], [3.0, 1.0]], 2)
        assert (h11, h22) == (2.0, 1.0)
        assert h12 == pytest.approx(2.0 + 1.0j)  # (1 + 2i + conj(3)) / 2

    @pytest.mark.parametrize("n, mat", [(1, np.eye(2)), (2, [[1.0]]), (2, [1.0, 1.0])])
    def test_from_matrix_refuses_a_wrong_shape(self, n, mat):
        with pytest.raises(ConfigError, match=f"expected a {n}x{n} matrix"):
            form_from_matrix(mat, n)


class TestMaDensity:
    """det(theta + H(phi)), the Monge-Ampere density against Omega = 1."""

    def test_flat_density_is_one(self):
        g = TorusGrid(1, 16)
        total = kahler_form(identity_form(1), hessian_components(np.zeros(g.shape), g, "spectral"))
        assert np.max(np.abs(comps_det(total) - 1.0)) < 1e-12

    def test_single_mode_density(self):
        g = TorusGrid(1, 32)
        a = 0.01
        x = g.coordinates()[0]
        phi = np.broadcast_to(a * np.cos(2.0 * np.pi * x), g.shape)
        total = kahler_form(identity_form(1), hessian_components(phi, g, "spectral"))
        expected = 1.0 - a * np.pi**2 * np.cos(2.0 * np.pi * x)
        assert np.max(np.abs(comps_det(total) - np.broadcast_to(expected, g.shape))) < 1e-10


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
    theta = form_from_matrix([[2.0, 0.5j], [-0.5j, 1.0]], 2)
    hess = hessian_components(phi, g, "spectral")
    total = kahler_form(theta, hess)
    for t, th, h in zip(total, theta, hess, strict=True):
        assert np.array_equal(t, th + h)


def same_bits(got, want) -> bool:
    """got has want's dtype and bits, a scalar want broadcast to got's shape."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == np.broadcast_to(want, got.shape).tobytes()


def leaves(x) -> list:
    return [a for item in x for a in leaves(item)] if isinstance(x, tuple) else [x]


def assert_output_arrays_change_nothing(fn, args, bufs, written=None):
    """fn(*args, *bufs) has the bits of fn(*args) and leaves every input as it was.

    written, when given, lists the arrays that the result must be.  Returns
    fn(*args, *bufs).
    """
    inputs = [a for a in leaves(args) if isinstance(a, np.ndarray)]
    before = [a.copy() for a in inputs]
    want = fn(*args)
    got = fn(*args, *bufs)
    assert all(same_bits(g, w) for g, w in zip(leaves(got), leaves(want), strict=True))
    assert all(same_bits(a, b) for a, b in zip(inputs, before, strict=True))
    if written is not None:
        assert all(g is w for g, w in zip(leaves(got), written, strict=True))
    return got


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n", [1, 2])
def test_form_algebra_and_hessian_write_into_output_arrays_bit_for_bit(n, backend, varying_form):
    grid, theta, phi = varying_form(n)
    v = np.random.default_rng(5).standard_normal(grid.shape)

    def real():
        return np.full(grid.shape, np.nan)

    def form():
        return (real(),) if n == 1 else (real(), real(), np.full(grid.shape, np.nan, complex))

    h = hessian_components(phi, grid, backend)
    w = kahler_form(theta, h)
    alpha = hessian_components(v, grid, backend)
    if n == 2:
        assert np.ptp(w[2].imag) > 0.0 and all(np.ndim(c) == 0 for c in theta)
    out = form()
    assert_output_arrays_change_nothing(hessian_components, (v, grid, backend), (out, real()), out)
    out = form()
    assert_output_arrays_change_nothing(kahler_form, (theta, h), (out,), out)
    of_one_form = ((comps_det, 2), (comps_eig_min, 2), (comps_harmonic_mean, 2), (comps_trace, 1))
    for fn, buffers in of_one_form:
        out = real()
        # a result that is an input component (n = 1) comes back unwritten
        written = [w[0]] if n == 1 else [out]
        assert_output_arrays_change_nothing(fn, (w,), (out, real())[:buffers], written)
    assert_output_arrays_change_nothing(cone_margin, (w,), (real(), real()))
    out = real()
    assert_output_arrays_change_nothing(comps_trace_inv, (w, alpha), (out, form()), [out])
    det, want = comps_det(w), comps_trace_inv(w, alpha)
    assert same_bits(comps_trace_inv(w, alpha, real(), form(), det), want)
    # scratch may be alpha itself, which is then overwritten
    scratch = tuple(a.copy() for a in alpha)
    assert same_bits(comps_trace_inv(w, scratch, real(), scratch, det), want)
    assert same_bits(comps_harmonic_mean(w, real(), real(), det), comps_harmonic_mean(w))
    # mixed densities against a constant and a space-varying second form
    for beta in (theta, alpha):
        for j in range(n + 1):
            scratch = (real(), np.full(grid.shape, np.nan, complex))
            assert_output_arrays_change_nothing(comps_mixed, (w, beta, j, n), (real(), scratch))
    # constant forms: scalar components, broadcast against the grid; the
    # second one's |h12|^2 rounds differently through C pow and np.square
    odd = 0.2432588650874949
    for const in [theta] + [form_from_matrix([[1.2, odd], [odd, 0.9]], 2)] * (n == 2):
        for fn in (comps_det, comps_eig_min, comps_harmonic_mean, cone_margin):
            assert_output_arrays_change_nothing(fn, (const,), (real(), real()))
        assert_output_arrays_change_nothing(comps_trace, (const,), (real(),))
        assert_output_arrays_change_nothing(comps_trace_inv, (const, alpha), (real(), form()))


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_n1_derivatives_write_into_workspace_arrays_bit_for_bit(backend):
    grid = TorusGrid(n=1, resolution=16)
    v = np.random.default_rng(9).standard_normal(grid.shape)

    def nans(shape=grid.shape, dtype=float):
        return np.full(shape, np.nan, dtype)

    def spectrum():
        return nans(grid.spectrum_shape, complex), nans(grid.spectrum_shape)

    out = (nans(),)
    args = (v, grid, backend)
    assert_output_arrays_change_nothing(hessian_components, args, (out, nans(), spectrum()), out)
    assert_output_arrays_change_nothing(quarter_laplacian_rayleigh, args, (None, None, spectrum()))
    # one inverse shift + symbol laid out for many solves gives the float shift's bits
    denom = assert_output_arrays_change_nothing(
        inverse_shifted_symbol,
        (grid, backend, 3.0),
        (nans(grid.spectrum_shape, complex), nans(grid.spectrum_shape)),
    )
    want = solve_shifted_laplacian(v, grid, backend, 3.0)
    out = nans()
    got = assert_output_arrays_change_nothing(
        solve_shifted_laplacian, (*args, denom), (out, None, spectrum()), [out]
    )
    assert same_bits(got, want)
    # out may be values itself
    values = v.copy()
    got = solve_shifted_laplacian(values, grid, backend, denom, values, None, spectrum())
    assert got is values and same_bits(got, want)


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
        theta = path.theta(0.0)
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

    def test_stacks_are_read_by_their_upper_triangle(self):
        # no Hermitian part is taken: the lower off-diagonal entry is never read
        wp = np.array([[[2.0, 0.5 + 0.5j], [7.0, 1.0]]])
        hermitian = np.array([[[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]]])
        w = np.eye(2)[None, :, :].astype(complex)
        for got, want in zip(trace_inequality_slacks(wp, w), trace_inequality_slacks(hermitian, w)):
            assert np.array_equal(got, want)


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
    flat = identity_form(n, 0.5)
    assert lowest_eigenvalue(flat, grid.shape) == (0.5, (0,) * (2 * n))
