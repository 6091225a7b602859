"""Initial-data catalog, regularization ladder, capacity, and energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maflow import psh
from maflow.errors import ConfigError, NotKahlerError, RepairTooLargeError
from maflow.geometry import cone_margin, identity_form, kahler_form
from maflow.grid import ScalarField, TorusGrid, hessian_components, oscillation
from maflow.psh import (
    FLOW_ADMISSIBLE_TAGS,
    PSH_TOL,
    RegularizationSchedule,
    RoughPotential,
    capacity_lower_bound,
    drift,
    energy,
    mollify_decreasing,
    psh_margin,
)


class TestCatalog:
    def test_tags(self):
        assert RoughPotential.constant(1.0).tag == "smooth"
        assert RoughPotential.fourier_sum([(0.01, (1, 0), 0.0)]).tag == "smooth"
        assert RoughPotential.max_kink().tag == "lipschitz"
        assert RoughPotential.paraboloid().tag == "lipschitz"
        assert RoughPotential.log_pole(0.2, cap=-1.0).tag == "bounded"
        unbounded = RoughPotential.log_pole(0.2)
        assert unbounded.tag == "unbounded-positive-lelong"
        assert not unbounded.flow_admissible()
        assert RoughPotential.sqrt_log_pole(0.1).tag == "unbounded-zero-lelong"
        for tag in FLOW_ADMISSIBLE_TAGS:
            assert tag != "unbounded-positive-lelong"

    def test_max_kink_values(self):
        g = TorusGrid(1, 32)
        a = 1.0 / (2.0 * np.pi**2)
        f = RoughPotential.max_kink().sample(g)
        x = np.broadcast_to(g.coordinates()[0], g.shape)
        assert np.allclose(f.values, np.maximum(a * np.cos(2 * np.pi * x), 0.0))
        assert oscillation(f) == pytest.approx(a)

    def test_max_kink_margin_is_half(self):
        # amplitude 1/(2 pi^2): the active half contributes -cos/2, so the
        # worst eigenvalue of I + H is 1/2 away from the cone boundary
        g = TorusGrid(1, 256)
        f = RoughPotential.max_kink().sample(g)
        assert psh_margin(f, backend="fd") == pytest.approx(0.5, abs=0.02)

    def test_margin_of_mixed_n2_mode_matches_dense_eigenvalues(self):
        # cos(2 pi (x1 + y2)) has d_x1 d_y2 phi != 0, so Im h12 != 0
        g = TorusGrid(2, 8)
        x1, y1, x2, y2 = g.coordinates()
        phi = ScalarField(g, np.broadcast_to(0.03 * np.cos(2.0 * np.pi * (x1 + y2)), g.shape).copy())
        h11, h22, h12 = hessian_components(phi.values, g, "spectral")
        assert float(np.max(np.abs(h12.imag))) > 0.01
        mats = np.zeros(g.shape + (2, 2), dtype=complex)
        mats[..., 0, 0] = 1.0 + h11
        mats[..., 1, 1] = 1.0 + h22
        mats[..., 0, 1] = h12
        mats[..., 1, 0] = np.conj(h12)
        expected = float(np.linalg.eigvalsh(mats).min())
        assert psh_margin(phi) == pytest.approx(expected, abs=1e-12)
        # I + H has eigenvalues 1 and 1 - 2 pi^2 a cos: h12 doubles the drop of h11
        assert expected == pytest.approx(1.0 - 2.0 * np.pi**2 * 0.03, abs=1e-10)

    def test_paraboloid_is_periodic_square_distance(self):
        g = TorusGrid(1, 64)
        b = 0.9
        f = RoughPotential.paraboloid(curvature=b).sample(g)
        x = np.broadcast_to(g.coordinates()[0], g.shape)
        y = np.broadcast_to(g.coordinates()[1], g.shape)

        def per_sq(u, c):
            d = np.abs(u - c) % 1.0
            return np.minimum(d, 1.0 - d) ** 2

        manual = -b * (per_sq(x, 0.5) + per_sq(y, 0.5))
        assert np.max(np.abs(f.values - manual)) < 1e-14
        assert f.values.max() == pytest.approx(0.0)
        assert f.values.min() == pytest.approx(-b * 0.5)

    def test_paraboloid_sits_on_cone_edge(self):
        # Hessian is -b away from the cut locus, so the fd margin approaches
        # 1 - b; the kink itself looks convex to centred differences
        g = TorusGrid(1, 128)
        f = RoughPotential.paraboloid(curvature=0.999).sample(g)
        m = psh_margin(f, backend="fd")
        assert m >= -PSH_TOL
        assert m == pytest.approx(1.0 - 0.999, abs=5e-4)

    def test_paraboloid_rejects_bad_curvature(self):
        with pytest.raises(ConfigError):
            RoughPotential.paraboloid(curvature=1.5)
        with pytest.raises(ConfigError):
            RoughPotential.paraboloid(curvature=0.5, center=(0.5,), n=1)

    @pytest.mark.parametrize("make", [RoughPotential.log_pole, RoughPotential.sqrt_log_pole])
    @pytest.mark.parametrize("center, n", [((0.5, 0.5), 2), ((0.5,) * 4, 1)])
    def test_a_pole_refuses_a_center_of_the_wrong_length(self, make, center, n):
        # the distance proxy zips coordinates with the center: a short one
        # would put the pole on a plane, a long one would be ignored in part
        with pytest.raises(ConfigError, match=f"center needs {2 * n} coordinates"):
            make(center=center, n=n)

    def test_log_pole_clamps_to_floor(self):
        g = TorusGrid(1, 64)
        f = RoughPotential.log_pole(0.3, center=(0.5, 0.5)).sample(g)
        assert np.isfinite(f.values).all()
        assert f.values.min() >= -40.0

    def test_fourier_sum_n2_wavevector_length(self):
        with pytest.raises(ConfigError):
            RoughPotential.fourier_sum([(0.01, (1, 0), 0.0)], n=2)


class TestMollification:
    def test_drift_formula(self):
        assert drift(1, 0.25) == pytest.approx(0.0625)
        assert drift(2, 0.1) == pytest.approx(0.02)

    def test_schedule_validation(self):
        sched = RegularizationSchedule.geometric(0.25, 0.5, 5)
        assert sched.deltas == tuple(0.25 * 0.5**j for j in range(5))
        sched.validate_for_grid(TorusGrid(1, 256))
        with pytest.raises(ConfigError):
            sched.validate_for_grid(TorusGrid(1, 16))

    def test_ladder_decreases_pointwise(self):
        g = TorusGrid(1, 64)
        sched = RegularizationSchedule.geometric(0.25, 0.5, 4)
        ladder = mollify_decreasing(RoughPotential.max_kink(), sched, g)
        assert len(ladder.levels) == 4
        for a, b in zip(ladder.levels, ladder.levels[1:]):
            assert float((a.values - b.values).min()) >= -1e-12
        for lvl in ladder.levels:
            assert float((lvl.values - ladder.base.values).min()) >= -1e-12

    def test_ladder_margins_nonnegative(self):
        g = TorusGrid(1, 64)
        sched = RegularizationSchedule.geometric(0.25, 0.5, 4)
        ladder = mollify_decreasing(RoughPotential.max_kink(), sched, g)
        assert all(m >= -PSH_TOL for m in ladder.margins)

    def test_smooth_data_needs_no_repair_shift(self):
        g = TorusGrid(1, 64)
        sched = RegularizationSchedule.geometric(0.25, 0.5, 3)
        ladder = mollify_decreasing(
            RoughPotential.fourier_sum([(0.01, (1, 0), 0.0)]), sched, g
        )
        assert max(abs(s) for s in ladder.shifts) < 1e-10

    def test_a_repair_beyond_its_allowance_is_refused(self, monkeypatch):
        # the delta = 0.125 level lifted by 1.0 lies above the 0.25 level by
        # about 1 - (drift(0.25) - drift(0.125)) = 0.953, more than the
        # allowance 10 * drift(0.25) = 0.625 that a repair of the 0.25 level may take
        # (the admissibility gate, smoothed at 4 / 32 = 0.125 too, keeps its
        # margin, as a constant has no Hessian)
        smooth = psh.gaussian_smooth

        def lifted(values, grid, delta):
            return smooth(values, grid, delta) + (1.0 if delta == 0.125 else 0.0)

        monkeypatch.setattr(psh, "gaussian_smooth", lifted)
        sched = RegularizationSchedule((0.25, 0.125))
        with pytest.raises(RepairTooLargeError) as refused:
            mollify_decreasing(RoughPotential.max_kink(), sched, TorusGrid(1, 32))
        assert str(refused.value) == "monotonicity repair 9.659e-01 exceeds allowance 6.250e-01"
        assert refused.value.allowance == 10.0 * drift(1, 0.25) == 0.625
        assert refused.value.shift == pytest.approx(0.9659, abs=5e-5)

    def test_bulk_violation_is_rejected(self):
        g = TorusGrid(1, 64)
        sched = RegularizationSchedule.geometric(0.25, 0.5, 3)
        bad = RoughPotential.fourier_sum([(0.5, (1, 0), 0.0)])
        with pytest.raises(Exception):
            mollify_decreasing(bad, sched, g)


class TestCapacity:
    def test_lower_bound_at_least_mask_volume(self):
        g = TorusGrid(1, 32)
        x = np.broadcast_to(g.coordinates()[0], g.shape)
        mask = x < 0.5
        cap = capacity_lower_bound(g, mask, dictionary_size=16, seed=3)
        assert cap >= 0.5 - 1e-12

    def test_monotone_in_mask(self):
        g = TorusGrid(1, 32)
        x = np.broadcast_to(g.coordinates()[0], g.shape)
        small = capacity_lower_bound(g, x < 0.25, dictionary_size=16, seed=3)
        large = capacity_lower_bound(g, x < 0.75, dictionary_size=16, seed=3)
        assert large >= small

    def test_deterministic_for_seed(self):
        g = TorusGrid(1, 32)
        x = np.broadcast_to(g.coordinates()[0], g.shape)
        a = capacity_lower_bound(g, x < 0.3, dictionary_size=24, seed=7)
        b = capacity_lower_bound(g, x < 0.3, dictionary_size=24, seed=7)
        assert a == b


class TestEnergy:
    def test_constant_potential(self):
        g = TorusGrid(1, 16)
        ident = identity_form(g.n)
        assert energy(ident, ScalarField.constant(g, 0.7)) == pytest.approx(0.7)
        assert energy(ident, ScalarField.constant(g, -2.0)) == pytest.approx(-2.0)

    def test_single_mode_quadratic_value(self):
        # E(a cos 2 pi x) = -a^2 pi^2 / 4 + O(a^3)
        g = TorusGrid(1, 64)
        a = 1e-3
        x = g.coordinates()[0]
        phi = ScalarField(
            g, np.broadcast_to(a * np.cos(2 * np.pi * x), g.shape).copy()
        )
        e = energy(identity_form(g.n), phi)
        assert e == pytest.approx(-(a**2) * np.pi**2 / 4.0, rel=1e-2)

    def test_translation_covariance(self):
        g = TorusGrid(1, 32)
        x = g.coordinates()[0]
        phi = ScalarField(
            g, np.broadcast_to(0.01 * np.cos(2 * np.pi * x), g.shape).copy()
        )
        ident = identity_form(g.n)
        assert energy(ident, phi.shifted(1.3)) == pytest.approx(
            energy(ident, phi) + 1.3
        )

    def test_monotone_in_potential(self):
        g = TorusGrid(1, 32)
        x = g.coordinates()[0]
        lo = ScalarField(
            g, np.broadcast_to(0.01 * np.cos(2 * np.pi * x), g.shape).copy()
        )
        hi = lo.shifted(0.05)
        ident = identity_form(g.n)
        assert energy(ident, hi) >= energy(ident, lo)

    @pytest.mark.parametrize("n", [1, 2])
    def test_given_form_margin_and_arrays_keep_the_bits(self, n, varying_form):
        grid, theta, phi = varying_form(n)
        fld = ScalarField(grid, phi)
        form = kahler_form(theta, hessian_components(phi, grid, "spectral"))
        real = np.full(grid.shape, np.nan)
        work = (real,) if n == 1 else (real, real.copy(), np.full(grid.shape, np.nan, complex))
        want = energy(theta, fld)
        got = energy(theta, fld, "spectral", form, cone_margin(form), work)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # the margin given is the one tested, not recomputed
        with pytest.raises(NotKahlerError, match="-1.000e-05"):
            energy(theta, fld, "spectral", form, -1e-5, work)

    def test_rejects_inadmissible(self):
        g = TorusGrid(1, 32)
        x = g.coordinates()[0]
        phi = ScalarField(
            g, np.broadcast_to(0.3 * np.cos(2 * np.pi * x), g.shape).copy()
        )
        with pytest.raises(NotKahlerError):
            energy(identity_form(g.n), phi)


@settings(max_examples=20, deadline=None)
@given(
    delta=st.floats(min_value=0.07, max_value=0.3),
    amp=st.floats(min_value=0.001, max_value=0.03),
)
def test_mollified_level_stays_admissible(delta, amp):
    g = TorusGrid(1, 32)
    sched = RegularizationSchedule((delta,))
    ladder = mollify_decreasing(
        RoughPotential.fourier_sum([(amp, (1, 0), 0.0)]), sched, g
    )
    assert psh_margin(ladder.levels[0]) >= -PSH_TOL
