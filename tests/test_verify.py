"""Margin reports: contracts of every verifier against hand-made trajectories."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from maflow import (
    ConfigError,
    DrivingTerm,
    FlowConfig,
    HermitianField,
    MarginReport,
    MetricPath,
    MissingSnapshotsError,
    RegularizationSchedule,
    RoughPotential,
    ScalarField,
    TorusGrid,
    VolumeForm,
    check_apriori_bounds,
    check_comparison,
    check_energy_monotonicity,
    check_gradient_laplacian,
    check_stability,
    check_time_derivative,
    check_uniqueness,
    comparison_tolerance,
    run,
    run_cascade,
    write_reports,
)
from maflow import verify
from maflow.flow import (
    TrajectoryAudit,
    instantaneous_residuals,
    residual_certificate,
    trajectory_from_family,
)
from maflow.verify import (
    CSV_HEADER,
    _signed_residual_extrema,
    _tail_margin,
    check_convergence_modes,
    check_residual_certificate,
    check_transform_roundtrip,
    trajectory_series,
)


def const_family(grid, times, level_fn, phidot_fn=None):
    """Spatially constant trajectory with value level_fn(t) at time t."""
    pf = None
    if phidot_fn is not None:
        pf = lambda t: ScalarField(grid, np.full(grid.shape, phidot_fn(t)))
    return trajectory_from_family(
        grid,
        times,
        lambda t: ScalarField(grid, np.full(grid.shape, level_fn(t))),
        phidot_fn=pf,
    )


@pytest.fixture(scope="module")
def grid8():
    return TorusGrid(n=1, resolution=8)


# -- tolerances ----------------------------------------------------------------


def test_comparison_tolerance_branches():
    g1 = TorusGrid(n=1, resolution=32)
    g2 = TorusGrid(n=2, resolution=8)
    assert comparison_tolerance(g1, "fd", 2.0) == pytest.approx(2e-9)
    assert comparison_tolerance(g1, "spectral", 2.0) == pytest.approx(
        10.0 * (1 / 32) ** 2 * 2.0
    )
    assert comparison_tolerance(g2, "fd", 1.0) == pytest.approx(10.0 * (1 / 8) ** 2)


# -- comparison ------------------------------------------------------------------


def test_comparison_margin_formula_on_constant_pair(grid8):
    times = np.linspace(0.0, 1.0, 5)
    phi = const_family(grid8, times, lambda t: 0.5)
    psi = const_family(grid8, times, lambda t: 0.3)
    rep = check_comparison(phi, psi, lam=1.0, tol=1e-3)
    # bound e^{lam T} * 0.2 + tol versus a persistent gap of 0.2
    assert rep.margin == pytest.approx(0.2 * (math.e - 1.0) + 1e-3, rel=1e-12)
    assert rep.passed
    assert rep.constants["initial_gap"] == pytest.approx(0.2)
    assert rep.constants["sup_gap"] == pytest.approx(0.2)


def test_comparison_rejects_mismatched_inputs(grid8):
    times = np.linspace(0.0, 0.5, 4)
    phi = const_family(grid8, times, lambda t: 0.0)
    other = const_family(TorusGrid(n=1, resolution=16), times, lambda t: 0.0)
    with pytest.raises(ConfigError, match="one grid"):
        check_comparison(phi, other)
    psi = const_family(grid8, np.linspace(0.0, 0.5, 5), lambda t: 0.0)
    with pytest.raises(ConfigError, match="shared snapshot times"):
        check_comparison(phi, psi)


def test_comparison_requires_lambda_at_least_the_defect(grid8):
    times = np.linspace(0.0, 0.5, 4)
    phi = const_family(grid8, times, lambda t: 0.0)
    psi = const_family(grid8, times, lambda t: 0.0)
    with pytest.raises(ConfigError, match="defect"):
        check_comparison(phi, psi, lam=0.0, F=DrivingTerm.affine(0.0, -0.5))


def test_comparison_verifies_declared_roles(grid8):
    path = MetricPath.constant(grid8, 1.0)
    omega = VolumeForm.constant(grid8)
    F = DrivingTerm.zero()
    times = np.linspace(0.0, 1.0, 4)
    # phidot = -0.1 < RHS = 0: a strict subsolution
    sub = const_family(grid8, times, lambda t: 0.0, phidot_fn=lambda t: -0.1)
    sol = const_family(grid8, times, lambda t: 0.0, phidot_fn=lambda t: 0.0)
    rep = check_comparison(
        sub, sol, path=path, F=F, omega_form=omega, roles=("sub", "solution")
    )
    assert rep.passed
    assert rep.details["residual_range_phi"]["max"] == pytest.approx(-0.1)
    with pytest.raises(ConfigError, match="supersolution"):
        check_comparison(
            sub, sol, path=path, F=F, omega_form=omega, roles=("super", "solution")
        )


def test_residual_audits_agree_on_a_cone_exit():
    # theta = -I is negative definite, yet det(theta + H(0)) = 1 > 0 at n = 2:
    # the right-hand side is undefined, and a determinant test would miss it
    grid = TorusGrid(n=2, resolution=8)
    neg, zero = HermitianField.identity(grid, -1.0), HermitianField.identity(grid, 0.0)
    path = MetricPath.from_callables(grid, 1.0, lambda t: neg, lambda t: zero)
    omega, F = VolumeForm.constant(grid), DrivingTerm.zero()
    traj = const_family(grid, [0.0, 0.5], lambda t: 0.0, phidot_fn=lambda t: 0.0)
    audit = TrajectoryAudit(traj, path, F, omega)
    assert _signed_residual_extrema(audit) == {
        "min": -math.inf,
        "max": math.inf,
        "cone_violation_at": 0.0,
    }
    assert instantaneous_residuals(traj, path, F, omega)["per_snapshot"] == [math.inf] * 2
    assert residual_certificate(audit)["max_residual"] == math.inf


# -- a priori bounds ---------------------------------------------------------------


def test_apriori_upper_explicit_constant(grid8):
    path = MetricPath.constant(grid8, 0.5)
    omega = VolumeForm.constant(grid8)
    F = DrivingTerm.affine(0.7, 0.0)  # monotone, F(t, z, 0) = 0.7
    times = np.array([0.0, 0.1, 0.25, 0.5])
    traj = const_family(grid8, times, lambda t: -0.7 * t)
    upper, lower = check_apriori_bounds(TrajectoryAudit(traj, path, F, omega))
    assert upper.details["applicable"]
    # flat metric path: C = -inf F + n log 1 = -0.7, trajectory saturates it
    assert upper.constants["C"] == pytest.approx(-0.7, rel=1e-12)
    assert upper.constants["delta"] == pytest.approx(1.0)
    assert upper.margin == pytest.approx(0.0, abs=1e-12)
    assert upper.constants["room_positive_t"] == pytest.approx(0.0, abs=1e-12)
    assert upper.passed and lower.passed


def test_apriori_upper_room_after_t0_on_a_flow_run():
    # sup phi_0 > 0 attains the bound at t = 0, so the margin reads -0.0; the
    # maximum principle lowers sup phi_t below it at every t > 0
    grid = TorusGrid(n=1, resolution=16)
    phi0 = ScalarField.from_function(grid, lambda x, y: 0.02 * np.cos(2.0 * np.pi * x))
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.5)
    path = MetricPath.constant(grid, cfg.horizon)
    omega = VolumeForm.constant(grid)
    F = DrivingTerm.zero()
    traj = run(phi0, path, F, omega, cfg)
    upper = check_apriori_bounds(TrajectoryAudit(traj, path, F, omega))[0]
    assert upper.details["applicable"]
    assert upper.margin == 0.0 and math.copysign(1.0, upper.margin) < 0.0
    assert upper.constants["room_positive_t"] > 0.0


def test_apriori_upper_is_vacuous_without_monotonicity(grid8):
    path = MetricPath.constant(grid8, 0.5)
    omega = VolumeForm.constant(grid8)
    times = np.array([0.0, 0.1, 0.5])
    traj = const_family(grid8, times, lambda t: 5.0 * t)  # would break the bound
    audit = TrajectoryAudit(traj, path, DrivingTerm.affine(0.0, -0.3), omega)
    upper = check_apriori_bounds(audit)[0]
    assert upper.passed
    assert not upper.details["applicable"]


@pytest.mark.parametrize("k0,expect_pass", [(1.0, True), (3.0, False)])
def test_apriori_lower_modulus_fit(grid8, k0, expect_pass):
    path = MetricPath.constant(grid8, 0.5)
    omega = VolumeForm.constant(grid8)
    times = np.array([0.0, 0.05, 0.1, 0.2, 0.4])
    form = lambda t: t * math.log(1.0 / t) + t if t > 0 else 0.0
    traj = const_family(grid8, times, lambda t: -k0 * form(t))
    lower = check_apriori_bounds(TrajectoryAudit(traj, path, DrivingTerm.zero(), omega))[1]
    assert lower.constants["K"] == pytest.approx(k0, rel=1e-12)
    assert lower.margin == pytest.approx(2.0 - k0, rel=1e-12)  # cap 2n, n = 1
    assert lower.passed is expect_pass


# -- time-derivative envelopes -------------------------------------------------------


def test_derivative_upper_constant_and_bounded_clause(grid8):
    times = np.array([0.0, 0.25, 0.5, 1.0])
    traj = const_family(grid8, times, lambda t: 0.0, phidot_fn=lambda t: 2.0)
    upper, lower = check_time_derivative(traj, eps=0.25)
    assert upper.constants["C_up"] == pytest.approx(2.0)  # sup t*phidot = T*2
    assert upper.passed
    assert lower.details["clause"] == "bounded"
    assert lower.margin == pytest.approx(2.0)  # variation 0 against allowance 2


def test_derivative_log_slope_clause(grid8):
    times = np.concatenate([[0.0], np.geomspace(0.01, 1.0, 12)])
    traj = const_family(
        grid8,
        times,
        lambda t: 0.0,
        phidot_fn=lambda t: math.log(t) + 5.0 if t > 0 else 0.0,
    )
    _, lower = check_time_derivative(traj, eps=0.01)
    assert lower.details["clause"] == "slope"
    assert lower.constants["slope"] == pytest.approx(1.0, rel=1e-9)
    assert lower.margin == pytest.approx(1.0 - 0.9, rel=1e-9)
    assert lower.passed


def test_derivative_eps_gating(grid8):
    times = np.array([0.0, 0.1, 0.2, 0.4])
    traj = const_family(grid8, times, lambda t: 0.0, phidot_fn=lambda t: 1.0)
    with pytest.raises(ConfigError, match="below the first schedule time"):
        check_time_derivative(traj, eps=0.01)
    with pytest.raises(MissingSnapshotsError) as exc:
        check_time_derivative(traj, eps=0.3)
    assert exc.value.pairs == [(0.3, 0.3)]


# -- gradient and Laplacian ------------------------------------------------------------


def test_gradient_laplacian_needs_dyadic_pairs(grid8):
    times = np.array([0.0, 0.3, 0.5])
    traj = const_family(grid8, times, lambda t: 0.0)
    audit = TrajectoryAudit(traj, MetricPath.constant(grid8, 0.5), columns=("sup-trace",))
    with pytest.raises(MissingSnapshotsError) as exc:
        check_gradient_laplacian(audit)
    assert exc.value.pairs == [(0.15, 0.3), (0.25, 0.5)]


def test_gradient_laplacian_fits_on_dyadic_ladder(grid8):
    x, y = grid8.coordinates()
    mode = 0.05 * np.cos(2 * np.pi * x) * np.ones_like(y)
    times = np.array([0.0, 0.125, 0.25, 0.5])
    traj = trajectory_from_family(
        grid8, times, lambda t: ScalarField(grid8, math.exp(-t) * mode)
    )
    audit = TrajectoryAudit(traj, MetricPath.constant(grid8, 0.5), columns=("sup-trace",))
    gradient, laplacian = check_gradient_laplacian(audit)
    assert gradient.passed
    assert gradient.constants["C_g"] >= 0.0
    assert laplacian.passed
    assert laplacian.constants["pairs"] == 2


# -- energy monotonicity ----------------------------------------------------------------


def test_energy_needs_sixteen_snapshots(grid8):
    path = MetricPath.constant(grid8, 1.0)
    omega = VolumeForm.constant(grid8)
    traj = const_family(grid8, np.linspace(0.0, 1.0, 8), lambda t: t)
    with pytest.raises(ConfigError, match="16"):
        check_energy_monotonicity(TrajectoryAudit(traj, path, omega_form=omega, columns=("energy",)))


def test_energy_drift_zero_for_increasing_energy(grid8):
    path = MetricPath.constant(grid8, 1.0)
    omega = VolumeForm.constant(grid8)
    traj = const_family(grid8, np.linspace(0.0, 1.0, 17), lambda t: t - 0.3)
    rep = check_energy_monotonicity(TrajectoryAudit(traj, path, omega_form=omega, columns=("energy",)))
    assert rep.constants["C_E"] == 0.0
    assert rep.constants["cap"] == pytest.approx(1.0)  # 1 + log delta, delta = 1
    assert rep.margin == pytest.approx(1.0)
    assert rep.passed


def test_energy_drift_detects_decreasing_energy(grid8):
    path = MetricPath.constant(grid8, 1.0)
    omega = VolumeForm.constant(grid8)
    traj = const_family(grid8, np.linspace(0.0, 1.0, 17), lambda t: -2.0 * t)
    rep = check_energy_monotonicity(TrajectoryAudit(traj, path, omega_form=omega, columns=("energy",)))
    assert rep.constants["C_E"] == pytest.approx(2.0, rel=1e-4)
    assert not rep.passed


# -- stability ----------------------------------------------------------------------------


def test_stability_requires_monotone_driving(grid8):
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.05)
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.3)
    zero = ScalarField(grid8, np.zeros(grid8.shape))
    with pytest.raises(ConfigError, match="monotone"):
        check_stability(zero, zero, path, DrivingTerm.affine(0.0, -0.5), omega, cfg)


def test_stability_contracts_a_constant_shift(grid8):
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.05)
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.3)
    x, y = grid8.coordinates()
    base = 0.01 * np.cos(2 * np.pi * x) * np.ones_like(y)
    phi0 = ScalarField(grid8, base)
    psi0 = ScalarField(grid8, base - 0.1)
    rep = check_stability(phi0, psi0, path, DrivingTerm.affine(0.0, 1.0), omega, cfg)
    assert rep.passed
    assert rep.details["d0"] == pytest.approx(0.1)
    assert rep.constants["C0"] <= 1.0 + 1e-12  # never expands the initial gap


# -- uniqueness certificates ---------------------------------------------------------------


def test_uniqueness_refuses_the_branching_term(grid8):
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.05)
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.3)
    rep = check_uniqueness(
        RoughPotential.constant(0.0),
        path,
        DrivingTerm.counterexample(),
        omega,
        cfg,
        schedules=None,
    )
    assert not rep.passed
    assert rep.margin == -math.inf
    assert rep.details["certified"] is False
    assert rep.details["notice"] == "NO-UNIQUENESS-CERTIFICATE"
    assert rep.details["refusal"] == [
        "no monotonicity certificate declared",
        "driving term not declared smooth in s",
    ]


def test_uniqueness_refusal_reasons_cover_each_gap(grid8):
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.05)
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.3)
    datum = RoughPotential.constant(0.0)

    rep = check_uniqueness(
        datum, path, DrivingTerm.affine(0.0, -0.2), omega, cfg, schedules=None
    )
    assert rep.details["refusal"] == ["monotonicity defect 0.2 > 0; reduce first"]

    undeclared = DrivingTerm("no-time-bound", lambda t, c, s: 0.0 * s, time_bound=None)
    rep = check_uniqueness(datum, path, undeclared, omega, cfg, schedules=None)
    assert rep.details["refusal"] == ["time-derivative bound undeclared"]


def test_uniqueness_certifies_two_schedule_agreement():
    grid = TorusGrid(n=1, resolution=64)
    omega = VolumeForm.constant(grid)
    path = MetricPath.constant(grid, 0.02)
    cfg = FlowConfig(horizon=0.02, t_min=1e-3, ratio=1.3, backend="fd")
    rep = check_uniqueness(
        RoughPotential.max_kink(),
        path,
        DrivingTerm.affine(0.0, 1.0),
        omega,
        cfg,
        schedules=(
            RegularizationSchedule.geometric(0.25, 0.5, 3),
            RegularizationSchedule.geometric(0.3, 0.6, 3),
        ),
    )
    assert rep.details["certified"] is True
    assert set(rep.details["probes"]) == {"0.02"}
    assert rep.passed
    entry = rep.details["probes"]["0.02"]
    assert entry["difference"] <= entry["allowed"]


# -- residual and transform wrappers ----------------------------------------------------------


def test_residual_certificate_wrapper(grid8):
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.05)
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.3)
    x, y = grid8.coordinates()
    phi0 = ScalarField(grid8, 0.02 * np.cos(2 * np.pi * x) * np.ones_like(y))
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    rep = check_residual_certificate(TrajectoryAudit(traj, path, DrivingTerm.zero(), omega))
    assert rep.anchor == "recomputed-step-residuals"
    assert rep.passed
    assert rep.margin >= 0.0


def test_transform_roundtrip_reports(grid8):
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.3)
    cfg = FlowConfig(horizon=0.3, t_min=1e-3, ratio=1.3)
    x, y = grid8.coordinates()
    phi0 = ScalarField(grid8, 0.02 * np.cos(2 * np.pi * x) * np.ones_like(y))
    reports = check_transform_roundtrip(
        phi0, path, DrivingTerm.affine(0.1, -0.2), omega, cfg, rescale_rate=2.0
    )
    assert [r.name for r in reports] == ["transform-reduction", "transform-rescale"]
    for rep in reports:
        assert rep.anchor == "pulled-back-residual"
        assert rep.passed, rep.constants
    with pytest.raises(ConfigError, match="no transform applies"):
        check_transform_roundtrip(phi0, path, DrivingTerm.zero(), omega, cfg)


def test_transform_roundtrip_keeps_the_solver_settings(grid8, monkeypatch):
    configs = []
    real_run = verify.run

    def spy(phi0, path, F, omega_form, cfg, **kwargs):
        configs.append(cfg)
        return real_run(phi0, path, F, omega_form, cfg, **kwargs)

    monkeypatch.setattr(verify, "run", spy)
    omega = VolumeForm.constant(grid8)
    path = MetricPath.constant(grid8, 0.3)
    cfg = FlowConfig(
        horizon=0.3,
        t_min=1e-3,
        ratio=1.3,
        probes=(0.25,),  # beyond the reduced horizon 0.3 log 2
        linear_rel_tol=5e-3,
        max_linear=40,
        min_damping=2.0**-12,
    )
    phi0 = ScalarField(grid8, np.zeros(grid8.shape))
    check_transform_roundtrip(phi0, path, DrivingTerm.affine(0.1, -0.2), omega, cfg)
    (tcfg,) = configs
    assert tcfg.horizon == pytest.approx(0.3 * math.log(2.0))
    assert tcfg == replace(cfg, horizon=tcfg.horizon, probes=())


# -- convergence modes --------------------------------------------------------------------------


def test_convergence_needs_three_ladder_times():
    grid = TorusGrid(n=1, resolution=64)
    omega = VolumeForm.constant(grid)
    path = MetricPath.constant(grid, 0.01)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.4, backend="fd")
    kink = RoughPotential.max_kink()
    casc = run_cascade(
        kink,
        RegularizationSchedule.geometric(0.25, 0.5, 2),
        path,
        DrivingTerm.zero(),
        omega,
        cfg,
    )
    with pytest.raises(ConfigError, match="at least 3 probe times"):
        check_convergence_modes(casc, kink)


def test_tail_margin_uses_second_half():
    assert _tail_margin([5.0, 4.0, 3.0, 2.0, 1.0], 0.0) == pytest.approx(1.0)
    # early-ladder noise is ignored; a late increase is not
    assert _tail_margin([3.0, 9.0, 1.0, 0.5, 0.7], 0.0) == pytest.approx(-0.2)
    assert _tail_margin([1.0], 0.0) == math.inf


# -- report serialization --------------------------------------------------------------------------


def test_write_reports_round_trip(tmp_path):
    reports = [
        MarginReport(
            name="demo",
            anchor="demo-anchor",
            margin=0.25,
            location=(0.1, 0.5),
            constants={"C": 2.0},
        ),
        MarginReport(
            name="refused",
            anchor="two-schedule-agreement",
            margin=-math.inf,
            details={"refusal": ["no monotonicity certificate declared"]},
        ),
    ]
    jpath, cpath = write_reports(reports, tmp_path)
    data = json.loads(jpath.read_text())
    assert [d["check"] for d in data] == ["demo", "refused"]
    assert set(data[0]) == {
        "check", "anchor", "margin", "passed", "location", "constants", "details",
    }
    assert data[1]["margin"] is None  # -inf has no JSON number
    assert data[1]["details"]["refusal"] == ["no monotonicity certificate declared"]
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3
    assert rows[1][0] == "demo" and rows[1][1] == "demo-anchor"


# -- series extraction ---------------------------------------------------------------------------


def test_trajectory_series_quantities(grid8):
    times = np.array([0.0, 0.5, 1.0])
    traj = const_family(grid8, times, lambda t: 1.0 + t)
    sup = trajectory_series(traj, "sup")
    assert [v for _, v in sup] == pytest.approx([1.0, 1.5, 2.0])
    osc = trajectory_series(traj, "osc")
    assert [v for _, v in osc] == pytest.approx([0.0, 0.0, 0.0])
    dist = trajectory_series(traj, "sup-dist-initial")
    assert [v for _, v in dist] == pytest.approx([0.0, 0.5, 1.0])
    # phidot-based series skip snapshots without a stored derivative
    assert trajectory_series(traj, "min-phidot") == []
    with pytest.raises(ConfigError, match="unknown series quantity"):
        trajectory_series(traj, "volume")
    with pytest.raises(ConfigError, match="needs the metric path"):
        trajectory_series(traj, "energy")
