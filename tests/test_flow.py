"""Time stepper, schedules, transforms, cascades, and the nef family."""

import math

import numpy as np
import pytest

from maflow import (
    ConeExitError,
    ConfigError,
    CertificateError,
    DrivingTerm,
    FlowConfig,
    HorizonTooLongError,
    MetricPath,
    MonotonicityError,
    NewtonDivergedError,
    RegularizationSchedule,
    RoughPotential,
    ScalarField,
    TorusGrid,
    VolumeForm,
    run,
    run_cascade,
    run_nef,
)
from maflow import flow, psh
from maflow.flow import (
    TrajectoryAudit,
    instantaneous_residuals,
    monotone_reduction,
    ordering_gap,
    residual_certificate,
    schedule_times,
    step,
    trajectory_from_family,
    uniqueness_rescale,
)


def make_problem(resolution=8, horizon=0.1, backend="spectral", **cfg_kw):
    grid = TorusGrid(n=1, resolution=resolution)
    path = MetricPath.constant(grid, horizon)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=horizon, backend=backend, **cfg_kw)
    return grid, path, omega, cfg


# -- configuration validation ------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"horizon": 0.0},
        {"horizon": 0.1, "t_min": 0.2},
        {"horizon": 0.1, "ratio": 1.0},
        {"horizon": 0.1, "ratio": 2.5},
        {"horizon": 0.1, "dt_max": -1e-3},
        {"horizon": 0.1, "backend": "upwind"},
        {"horizon": 0.1, "probes": (0.2,)},
        {"horizon": 0.1, "store_every": 0},
    ],
)
def test_flow_config_rejects_bad_settings(kw):
    with pytest.raises(ConfigError):
        FlowConfig(**kw)


# -- the schedule ------------------------------------------------------------


def test_schedule_is_geometric_until_capped():
    cfg = FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.5)
    times = schedule_times(cfg)
    assert times[0] == 0.0
    assert times[1] == cfg.t_min
    # interior points follow t_{k+1} = ratio * t_k exactly
    interior = times[1:-1]
    np.testing.assert_allclose(interior[1:] / interior[:-1], 1.5, rtol=1e-12)
    assert times[-1] == cfg.horizon
    assert np.all(np.diff(times) > 0)


def test_schedule_respects_dt_max():
    cfg = FlowConfig(horizon=0.5, t_min=1e-3, ratio=1.9, dt_max=0.02)
    times = schedule_times(cfg)
    assert np.max(np.diff(times)) <= 0.02 + 1e-15


def test_probe_times_appear_exactly():
    probe = 0.0371
    cfg = FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.5, probes=(probe,))
    times = schedule_times(cfg)
    assert probe in times  # exact float membership, not merely close


# -- the integrator against a hand-computable recurrence ----------------------


def test_constant_data_matches_backward_euler_recurrence():
    # F = s on flat data: each step solves (u - prev)/dt = -u exactly,
    # i.e. u = prev / (1 + dt), independent of any spatial discretization.
    grid, path, omega, cfg = make_problem(horizon=0.3, t_min=1e-3, ratio=1.3)
    c = 0.7
    phi0 = ScalarField(grid, np.full(grid.shape, c))
    traj = run(phi0, path, DrivingTerm.affine(0.0, 1.0), omega, cfg)

    expected = c
    sched = traj.schedule
    values = {0.0: c}
    for k in range(1, len(sched)):
        expected = expected / (1.0 + (sched[k] - sched[k - 1]))
        values[float(sched[k])] = expected
    for t, fld in zip(traj.times, traj.fields):
        ref = values[float(t)]
        assert abs(float(fld.values.max()) - ref) < 1e-7
        assert float(np.ptp(fld.values)) < 1e-12  # stays spatially flat


def test_probe_snapshots_survive_thinning():
    grid, path, omega, cfg = make_problem(
        horizon=0.1, t_min=1e-3, ratio=1.2, store_every=7, probes=(0.05,)
    )
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert 0.05 in traj.times
    assert traj.times[0] == 0.0 and traj.times[-1] == cfg.horizon
    assert len(traj.times) < len(traj.schedule)
    fld = traj.field_at(0.05)
    assert fld.values.shape == grid.shape


def test_stored_phidot_is_the_pde_right_hand_side():
    grid, path, omega, cfg = make_problem(horizon=0.05, t_min=1e-3, ratio=1.3)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.01 * np.cos(2 * np.pi * x) * np.ones_like(y))
    F = DrivingTerm.affine(0.0, 0.5)
    traj = run(phi0, path, F, omega, cfg)
    rep = instantaneous_residuals(traj, path, F, omega)
    assert rep["max_residual"] <= 1e-12


def test_recomputed_step_residuals_meet_newton_tolerance():
    grid, path, omega, cfg = make_problem(horizon=0.05, t_min=1e-3, ratio=1.3)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.02 * np.sin(2 * np.pi * x) * np.ones_like(y))
    F = DrivingTerm.zero()
    traj = run(phi0, path, F, omega, cfg)
    cert = residual_certificate(TrajectoryAudit(traj, path, F, omega, columns=("step_residual",)))
    assert cert["passes"]
    assert cert["pairs"] == len(traj.times) - 1
    assert cert["max_residual"] <= 2.0 * cfg.newton_tol


def audited_run():
    grid, path, omega, cfg = make_problem(horizon=0.05, t_min=1e-3, ratio=1.3)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.02 * np.sin(2 * np.pi * x) * np.ones_like(y))
    F = DrivingTerm.affine(0.0, 0.5)
    return run(phi0, path, F, omega, cfg), path, F, omega


def is_scalar(v):
    return type(v) is float


def test_audit_rows_hold_only_floats_none_or_float_pairs():
    traj, path, F, omega = audited_run()
    audit = TrajectoryAudit(traj, path, F, omega)
    for k in range(len(traj.times)):
        row = audit.row(k)
        assert set(row) == {"margin", *TrajectoryAudit.COLUMNS}
        for v in row.values():
            pair = type(v) is tuple and len(v) == 2 and all(map(is_scalar, v))
            assert v is None or is_scalar(v) or pair, (k, v)
    assert audit.row(0)["step_residual"] is None  # no snapshot before t = 0
    assert audit.row(1)["margin"] > 0.0


def test_step_residual_audit_never_evaluates_the_energy(monkeypatch):
    traj, path, F, omega = audited_run()

    def no_energy(*args, **kwargs):
        raise AssertionError("the energy was evaluated")

    monkeypatch.setattr(psh, "energy", no_energy)
    audit = TrajectoryAudit(traj, path, F, omega, columns=("step_residual",))
    cert = residual_certificate(audit)
    assert cert["passes"]
    assert cert["pairs"] == len(traj.times) - 1
    with pytest.raises(ConfigError, match="without the 'energy' column"):
        audit.value(1, "energy")


def test_audit_refuses_residual_columns_without_the_driving_term():
    traj, path, _, omega = audited_run()
    with pytest.raises(ConfigError, match="driving term"):
        TrajectoryAudit(traj, path, omega_form=omega, columns=("step_residual",))


def test_inadmissible_initial_data_is_refused():
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    # amplitude 0.2 > 1/pi^2 pushes I + Hess outside the positive cone
    phi0 = ScalarField(grid, 0.2 * np.cos(2 * np.pi * x) * np.ones_like(y))
    with pytest.raises(ConeExitError) as info:
        run(phi0, path, DrivingTerm.zero(), omega, cfg)
    # I + H(phi0) = 1 - 0.2 pi^2 cos(2 pi x) is lowest at x = 0
    assert info.value.location[0] == 0
    assert info.value.eigenvalue == pytest.approx(1.0 - 0.2 * np.pi**2, rel=1e-12)


def test_warm_start_outside_the_cone_names_the_worst_point():
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    phi = ScalarField(grid, 0.2 * np.cos(2 * np.pi * x) * np.ones_like(y))
    with pytest.raises(ConeExitError) as info:
        step(phi, 0.0, 0.01, path, DrivingTerm.zero(), omega, cfg)
    assert info.value.location[0] == 0
    assert info.value.eigenvalue == pytest.approx(1.0 - 0.2 * np.pi**2, rel=1e-12)


def test_exhausted_damping_names_the_worst_point(monkeypatch):
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    # a Newton direction 1e9 cos(2 pi x) (the negated correction) so large
    # that every damped trial leaves the cone, worst at x = 0
    correction = -1e9 * np.cos(2 * np.pi * x) * np.ones_like(y)
    monkeypatch.setattr(flow, "_bicgstab", lambda *a, **k: (correction, 1, 0.0, True))
    phi0 = ScalarField(grid, 0.02 * np.sin(2 * np.pi * y) * np.ones_like(x))
    with pytest.raises(ConeExitError) as info:
        run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert info.value.location[0] == 0
    assert info.value.eigenvalue < 0.0


def test_run_reuses_each_accepted_hessian_bitwise():
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.05 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
    F = DrivingTerm.affine(slope=0.5)
    traj = run(phi0, path, F, omega, cfg)
    phi = phi0
    for t_from, t_to in zip(traj.schedule[:-1], traj.schedule[1:]):
        phi = step(phi, t_from, t_to, path, F, omega, cfg)
    assert np.array_equal(phi.values, traj.final().values)


# -- the Newton solve: preconditioned BiCGSTAB -----------------------------------


def constant_metric_system(n, backend, level=0.3):
    """Newton operator, preconditioner and right-hand side for w = level * I."""
    grid = TorusGrid(n=n, resolution=16 if n == 1 else 8)
    w = np.full(grid.shape, level)
    total = (w,) if n == 1 else (w, w, np.zeros(grid.shape, dtype=complex))
    R = np.random.default_rng(3).standard_normal(grid.shape)
    dt, fs = 0.01, np.asarray(0.5)
    return (
        flow._jacobian(total, fs, dt, grid, backend),
        flow._preconditioner(total, R, fs, dt, grid, backend),
        -R,
    )


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n", [1, 2])
def test_preconditioner_inverts_the_jacobian_for_a_constant_metric(n, backend):
    jac, precond, b = constant_metric_system(n, backend)
    x, iters, rel_res, converged = flow._bicgstab(jac, precond, b, 1e-12, 1)
    assert (iters, converged) == (1, True)
    assert rel_res <= 1e-12
    assert flow._l2(b - jac(x)) <= 1e-12 * flow._l2(b)


def degenerate_problem(**cfg_kw):
    """Scenario 07's paraboloid corner (curvature 0.999) on a 32^2 fd grid."""
    grid = TorusGrid(n=1, resolution=32)
    phi0 = RoughPotential.paraboloid(curvature=0.999).sample(grid)
    cfg = FlowConfig(horizon=0.003, t_min=1e-3, ratio=1.2, backend="fd", **cfg_kw)
    return phi0, MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid), cfg


def test_degenerate_run_needs_few_linear_iterations_per_newton_step():
    phi0, path, omega, cfg = degenerate_problem()
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    newton = sum(d["newton_iters"] for d in traj.diagnostics)
    linear = sum(d["linear_iters"] for d in traj.diagnostics)
    # linear/Newton is 428/51 = 8.4 under the unscaled shifted-Laplacian
    # preconditioner 1/dt - Laplacian/4, and 207/48 = 4.3 under this one
    assert linear / newton < 6.35
    assert all(d["linear_converged"] for d in traj.diagnostics)
    assert max(d["linear_rel_residual"] for d in traj.diagnostics) <= cfg.linear_rel_tol


def test_bicgstab_reports_a_solve_it_cut_short():
    phi0, path, omega, cfg = degenerate_problem()
    grid = phi0.grid
    dt = cfg.t_min
    comps = flow.hessian_components(phi0.values, grid, "fd")
    total = tuple(th + hc for th, hc in zip(path.theta(dt).components(), comps))
    R = -np.log(total[0])  # the first Newton residual: u = phi0, F = 0, Omega = 1
    fs = np.asarray(0.0)
    args = (
        flow._jacobian(total, fs, dt, grid, "fd"),
        flow._preconditioner(total, R, fs, dt, grid, "fd"),
        R,
        cfg.linear_rel_tol,
    )
    _, iters, rel_res, converged = flow._bicgstab(*args, 1)
    assert (iters, converged) == (1, False)
    assert rel_res > cfg.linear_rel_tol
    _, _, rel_res, converged = flow._bicgstab(*args, cfg.max_linear)
    assert converged and rel_res <= cfg.linear_rel_tol


def test_newton_stall_names_the_unconverged_linear_solve():
    phi0, path, omega, cfg = degenerate_problem(max_linear=1, max_newton=3)
    with pytest.raises(NewtonDivergedError) as info:
        run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert info.value.linear_converged is False
    assert "linear solve did not converge" in str(info.value)


def test_newton_survives_unconverged_linear_solves():
    phi0, path, omega, cfg = degenerate_problem(max_linear=2)
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert any(not d["linear_converged"] for d in traj.diagnostics)
    assert all(d["residual"] <= cfg.newton_tol for d in traj.diagnostics)


def test_unconverged_solves_return_their_best_iterate():
    # the last iterate of a 4-iteration solve reached relative residual 2.57
    phi0, path, omega, cfg = degenerate_problem(max_linear=4)
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert any(not d["linear_converged"] for d in traj.diagnostics)
    assert max(d["linear_rel_residual"] for d in traj.diagnostics) <= 1.0


def test_horizon_beyond_metric_path_is_a_config_error():
    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 0.05)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=0.1)
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ConfigError):
        run(phi0, path, DrivingTerm.zero(), omega, cfg)


def test_lying_declared_bounds_abort_the_run():
    grid, path, omega, cfg = make_problem()
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    liar = DrivingTerm(
        name="liar",
        fn=lambda t, coords, s: -3.0 * s,
        ds=lambda t, coords, s: -3.0,
        defect=0.0,  # claims monotone; actual dF/ds = -3
        time_bound=0.0,
        smooth=True,
    )
    with pytest.raises(ConfigError, match="defect"):
        run(phi0, path, liar, omega, cfg)


def test_declared_bound_audit_reports_sampled_extremes():
    grid = TorusGrid(n=1, resolution=8)
    rep = DrivingTerm.affine(0.3, -0.25).verify_declared_bounds(
        grid, (0.0, 0.5), (-1.0, 1.0)
    )
    assert rep["checked"]
    assert rep["ds_min"] == pytest.approx(-0.25, abs=1e-12)
    assert rep["dt_max"] == pytest.approx(0.0, abs=1e-12)
    assert rep["defect"] == pytest.approx(0.25)


# -- analytic families for audits ---------------------------------------------


def test_family_wrapper_certifies_an_exact_solution():
    # phi(t) = c e^{-t} solves phi' = log det(I) - log 1 - phi for F = s.
    grid, path, omega, _ = make_problem(horizon=1.0)
    c = 0.4
    times = np.linspace(0.0, 1.0, 9)
    traj = trajectory_from_family(
        grid,
        times,
        lambda t: ScalarField(grid, np.full(grid.shape, c * math.exp(-t))),
        phidot_fn=lambda t: ScalarField(
            grid, np.full(grid.shape, -c * math.exp(-t))
        ),
    )
    rep = instantaneous_residuals(traj, path, DrivingTerm.affine(0.0, 1.0), omega)
    assert rep["max_residual"] <= 1e-12
    assert traj.config is None


# -- pointwise ordering of solution families -----------------------------------


def flat_family(grid, times, level):
    """Spatially constant trajectory at a fixed level."""
    return trajectory_from_family(
        grid, times, lambda t: ScalarField(grid, np.full(grid.shape, level))
    )


def test_ordering_gap_locates_the_largest_rise_of_lower_over_upper():
    grid = TorusGrid(n=1, resolution=8)
    times = np.linspace(0.0, 0.3, 4)
    bump = np.zeros(grid.shape)
    bump[5, 2] = 1.0
    upper = flat_family(grid, times, 0.0)
    lower = trajectory_from_family(
        grid, times, lambda t: ScalarField(grid, t * bump - 0.1)
    )
    gap, t, index = ordering_gap(upper, lower)
    assert gap == pytest.approx(0.2, rel=1e-12)
    assert t == pytest.approx(0.3, rel=1e-12)
    assert np.unravel_index(index, grid.shape) == (5, 2)
    # swapped roles: upper - lower peaks at 0.1, first reached at t = 0, point 0
    assert ordering_gap(lower, upper) == (pytest.approx(0.1, rel=1e-12), 0.0, 0)
    # an ordered pair has a negative gap
    assert ordering_gap(flat_family(grid, times, 0.5), upper)[0] == pytest.approx(-0.5)


def test_ordering_gap_needs_shared_snapshot_times():
    grid = TorusGrid(n=1, resolution=8)
    times = np.linspace(0.0, 0.3, 4)
    upper = flat_family(grid, times, 0.0)
    for other in (times + 1e-3, times[:-1]):
        with pytest.raises(ConfigError, match="shared snapshot times"):
            ordering_gap(upper, flat_family(grid, other, 0.0))


def fake_runs(monkeypatch, levels):
    """flow.run returns flat trajectories at the given levels, in call order."""
    queue = list(levels)

    def fake(phi0, path, F, omega_form, cfg, check_bounds=True):
        return flat_family(phi0.grid, schedule_times(cfg), queue.pop(0))

    monkeypatch.setattr(flow, "run", fake)


def test_cascade_refuses_levels_that_lose_their_order(monkeypatch):
    grid = TorusGrid(n=1, resolution=64)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.4, backend="fd")
    fake_runs(monkeypatch, [0.0, 0.25, 0.375])  # each finer level rises above
    with pytest.raises(MonotonicityError, match="cascade levels") as info:
        run_cascade(
            RoughPotential.max_kink(),
            RegularizationSchedule.geometric(delta0=0.25, ratio=0.5, levels=3),
            MetricPath.constant(grid, 0.01),
            DrivingTerm.zero(),
            VolumeForm.constant(grid),
            cfg,
        )
    assert info.value.violation == pytest.approx(0.25)


@pytest.mark.parametrize(
    "levels, match, violation",
    [
        ([0.0, 0.125], "eps-trajectories", 0.125),  # the smaller shift rises above
        ([0.5, 0.25, 0.75], "witness", 0.5),  # ordered members, witness above both
    ],
    ids=["members", "witness"],
)
def test_nef_refuses_a_misordered_family(monkeypatch, levels, match, violation):
    grid = TorusGrid(n=1, resolution=8)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.3)
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    fake_runs(monkeypatch, levels)
    with pytest.raises(MonotonicityError, match=match) as info:
        run_nef(
            np.array([[1.0]]), (0.2, 0.1), phi0, DrivingTerm.zero(), VolumeForm.constant(grid), cfg
        )
    assert info.value.violation == pytest.approx(violation)


# -- rough-data cascades -------------------------------------------------------


def test_cascade_orders_levels_and_reports_limit_gaps():
    grid = TorusGrid(n=1, resolution=64)
    path = MetricPath.constant(grid, 0.02)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=0.02, t_min=1e-3, ratio=1.4, backend="fd", probes=(0.01,))
    schedule = RegularizationSchedule.geometric(delta0=0.25, ratio=0.5, levels=3)
    res = run_cascade(
        RoughPotential.max_kink(), schedule, path, DrivingTerm.zero(), omega, cfg
    )
    assert len(res.trajectories) == 3
    assert res.monotone_violation <= res.monotone_tol
    assert set(res.limit_gaps) == {"0.01", "0.02"}
    assert res.gap_at(0.01) == res.limit_gaps["0.01"]
    final = res.limit_at(0.02)
    np.testing.assert_array_equal(
        final.values, res.trajectories[-1].field_at(0.02).values
    )


def test_cascade_refuses_non_admissible_tags():
    grid = TorusGrid(n=1, resolution=32)
    path = MetricPath.constant(grid, 0.01)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.4, backend="fd")
    pole = RoughPotential.log_pole(gamma=0.2, center=(0.5, 0.5), cap=None, n=1)
    with pytest.raises(ConfigError, match="not admissible"):
        run_cascade(
            pole,
            RegularizationSchedule.geometric(levels=2),
            path,
            DrivingTerm.zero(),
            omega,
            cfg,
        )


# -- exponential time reparameterizations --------------------------------------


def test_monotone_reduction_default_rate_and_certificate():
    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 1.0)
    F = DrivingTerm.affine(0.0, -0.2)  # defect 0.2 < 1/e
    tp = monotone_reduction(F, path)
    assert tp.kind == "monotone-reduction"
    assert tp.rate == pytest.approx(-1.0)
    assert tp.horizon == pytest.approx(math.log(2.0))
    assert tp.driving.defect == 0.0
    assert tp.certificate["ds_min"] >= -1e-9
    assert tp.certificate["boundary_slack"] == pytest.approx(
        math.exp(-1.0) - 0.2, rel=1e-12
    )
    # the two time charts invert one another
    for tau in (0.0, 0.3, 0.9):
        t = flow._transformed_time(tp.rate, tau)
        assert flow._original_time(tp.rate, t) == pytest.approx(tau)


def test_monotone_reduction_threshold_is_sharp():
    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 1.0)
    ceiling = 1.0 / math.e
    ok = monotone_reduction(DrivingTerm.affine(0.0, -ceiling * (1 - 1e-9)), path)
    assert ok.certificate["boundary_slack"] >= 0.0
    with pytest.raises(HorizonTooLongError):
        monotone_reduction(DrivingTerm.affine(0.0, -ceiling * (1 + 1e-9)), path)


def test_monotone_reduction_rejects_bad_rates_and_missing_defects():
    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 1.0)
    F = DrivingTerm.affine(0.0, -0.2)
    with pytest.raises(ConfigError):
        monotone_reduction(F, path, B=0.5)  # needs a negative rate
    with pytest.raises(ConfigError):
        monotone_reduction(F, path, B=-0.05)  # too weak: -B e^{BT} < defect
    with pytest.raises(HorizonTooLongError):
        monotone_reduction(DrivingTerm.counterexample(), path)  # defect is None


def test_uniqueness_rescale_certificate_and_guards():
    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 0.5)
    F = DrivingTerm.affine(0.0, 1.0)  # time_bound 0
    tp = uniqueness_rescale(F, path, A=1.0)
    assert tp.kind == "uniqueness-rescale"
    assert tp.rate == 1.0
    assert tp.driving.defect == pytest.approx(1.0)
    assert tp.certificate["theta_monotone_margin"] >= -1e-10
    assert tp.horizon == pytest.approx(-math.log(1.0 - 0.5))

    undeclared = DrivingTerm("no-time-bound", lambda t, c, s: 0.0 * s, time_bound=None)
    with pytest.raises(CertificateError):
        uniqueness_rescale(undeclared, path, A=1.0)
    with pytest.raises(ConfigError):
        uniqueness_rescale(F, path, A=0.0)  # must exceed the time bound
    with pytest.raises(HorizonTooLongError):
        uniqueness_rescale(F, path, A=2.5)  # A*T = 1.25 >= 1


def test_pull_back_rescales_fields_and_times():
    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 0.5)
    tp = uniqueness_rescale(DrivingTerm.affine(0.0, 1.0), path, A=1.0)
    times = np.array([0.0, 0.2, tp.horizon])
    fam = trajectory_from_family(
        grid,
        times,
        lambda t: ScalarField(grid, np.full(grid.shape, 1.0)),
        phidot_fn=lambda t: ScalarField(grid, np.zeros(grid.shape)),
    )
    pulled = tp.pull_back(fam)
    np.testing.assert_allclose(
        pulled.times, [(1.0 - math.exp(-t)) for t in times], rtol=1e-14
    )
    for t, fld in zip(times, pulled.fields):
        np.testing.assert_allclose(fld.values, math.exp(-t), rtol=1e-14)
    # phidot picks up the -A*phi drift term
    np.testing.assert_allclose(pulled.phidots[1].values, -1.0, rtol=1e-14)


# an affine path theta(tau) = I + tau chi at n = 2 and a driving term affine in
# (t, s), so the time change has closed forms
CHI = np.diag([-0.3, 0.2])
AFFINE_TS = (0.4, 0.25, -0.5)  # F(t, z, s) = a + b t + c s


def affine_time_change(kind, rate):
    grid = TorusGrid(n=2, resolution=8)
    path = MetricPath.affine(grid, 1.0, CHI)
    a, b, c = AFFINE_TS
    F = DrivingTerm(
        "affine-ts",
        lambda t, z, s: a + b * t + c * s,
        ds=lambda t, z, s: np.float64(c),
        time_bound=abs(b),
    )
    return grid, flow._time_change(kind, F, path, rate, defect=0.0)


TIME_CHANGES = [("monotone-reduction", -0.5), ("uniqueness-rescale", 0.8)]


@pytest.mark.parametrize("kind, r", TIME_CHANGES)
def test_time_change_driving_term_has_its_closed_form(kind, r):
    grid, tp = affine_time_change(kind, r)
    a, b, c = AFFINE_TS
    coords = grid.coordinates()
    assert tp.horizon == pytest.approx(-math.log(1.0 - r) / r, rel=1e-14)
    assert tp.driving.name == f"affine-ts+{kind}"
    for t in np.linspace(0.0, tp.horizon, 5):
        tau, e = (1.0 - math.exp(-r * t)) / r, math.exp(-r * t)
        assert flow._original_time(tp.rate, t) == pytest.approx(tau, rel=1e-14, abs=1e-15)
        for s in (-1.5, 0.0, 0.7):
            expected = -r * s + r * grid.n * t + (a + b * tau + c * e * s)
            assert tp.driving(t, coords, s) == pytest.approx(expected, rel=1e-13, abs=1e-14)
            assert tp.driving.ds_at(t, coords, s) == pytest.approx(-r + e * c, rel=1e-13)


@pytest.mark.parametrize("kind, r", TIME_CHANGES)
def test_time_change_path_derivative_matches_a_centred_difference(kind, r):
    _, tp = affine_time_change(kind, r)

    def entries(form):  # (h11, h22, h12) of a spatially constant form
        return np.ravel(np.asarray(form.components()))

    h = 1e-5
    for t in np.linspace(0.1, tp.horizon - 0.1, 4):
        tau = (1.0 - math.exp(-r * t)) / r
        closed = math.exp(r * t) * (np.eye(2) + tau * CHI)
        np.testing.assert_allclose(entries(tp.path.theta(t)), [*np.diag(closed), 0.0], rtol=1e-13)
        centred = (entries(tp.path.theta(t + h)) - entries(tp.path.theta(t - h))) / (2.0 * h)
        np.testing.assert_allclose(entries(tp.path.theta_dot(t)), centred, rtol=1e-8, atol=1e-9)


def test_rescale_monotone_margin_has_its_closed_form():
    # e^{-At} d/dt[e^{At} theta(tau)] = A theta(tau) + e^{-At} chi = A I + chi for
    # every t, since A tau + e^{-At} = 1: the margin is A + min eig(chi)
    grid = TorusGrid(n=2, resolution=8)
    A = 0.8
    tp = uniqueness_rescale(DrivingTerm.affine(0.0, 1.0), MetricPath.affine(grid, 1.0, CHI), A)
    assert tp.certificate["theta_monotone_margin"] == pytest.approx(A - 0.3, abs=1e-13)
    assert tp.certificate["monotone_part_ds_min"] == pytest.approx(math.exp(-A * tp.horizon))


# -- the nef family -------------------------------------------------------------


@pytest.mark.parametrize(
    "eps",
    [
        (0.1,),
        (0.1, 0.1),
        (0.05, 0.1),
        (0.2, 0.1, 0.0),
    ],
)
def test_nef_eps_schedule_validation(eps):
    grid = TorusGrid(n=1, resolution=8)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.3)
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ConfigError):
        run_nef(np.array([[0.0]]), eps, phi0, DrivingTerm.zero(), omega, cfg)


def test_nef_family_orders_by_eps_and_keeps_a_witness():
    grid = TorusGrid(n=1, resolution=8)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=0.01, t_min=1e-4, ratio=1.2)
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    theta0 = np.array([[1.0]])  # strictly positive: the eps = 0 flow exists
    res = run_nef(theta0, (0.2, 0.1), phi0, DrivingTerm.zero(), omega, cfg)
    assert res.eps == (0.2, 0.1)
    assert len(res.trajectories) == 2
    assert res.monotone_violation <= res.monotone_tol
    assert res.witness is not None
    assert res.witness_margin is not None
    assert res.witness_margin <= res.monotone_tol
