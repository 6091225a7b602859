"""Time stepper, schedules, transforms, cascades, and the nef family."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from maflow import flow, geometry, psh
from maflow import grid as grid_module
from maflow.flow import (
    TrajectoryAudit,
    instantaneous_residuals,
    monotone_reduction,
    ordering_gap,
    residual_certificate,
    schedule_times,
    trajectory_from_family,
    uniqueness_rescale,
)
from maflow.verify import check_apriori_bounds, check_residual_certificate


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


def test_schedule_step_bytes_are_a_list_slot_a_float_and_a_float64():
    # schedule_times appends each time to a list, then copies the list into an array
    slot = sys.getsizeof([0.0, 0.0]) - sys.getsizeof([0.0])
    assert flow.SCHEDULE_STEP_BYTES == slot + sys.getsizeof(0.0) + np.dtype(np.float64).itemsize


@pytest.mark.parametrize(
    "kw, steps",
    [
        ({"horizon": 0.1, "dt_max": 1e-12}, 1e11),
        ({"horizon": 1e12, "dt_max": 0.01}, 1e14),
        ({"horizon": 1.0, "t_min": 1e-3, "ratio": 1 + 1e-12}, 6.9e12),
    ],
)
def test_an_unbounded_schedule_is_refused_before_it_is_built(monkeypatch, kw, steps):
    def unbuilt(cfg):
        raise AssertionError("schedule_times was called")

    monkeypatch.setattr(flow, "schedule_times", unbuilt)
    with pytest.raises(ConfigError) as info:
        FlowConfig(**kw)
    message = str(info.value)
    assert all(key in message for key in ("horizon", "t_min", "ratio", "dt_max"))
    assert math.isclose(float(re.search(r"about (\S+) steps", message)[1]), steps, rel_tol=0.01)


def test_the_schedule_bound_is_within_a_few_steps_of_every_bundled_schedule():
    from maflow import cli
    from maflow.scenarios import available, scenario_path

    for stem in available():
        cfg = cli.build_flow_config(json.loads(scenario_path(stem).read_text()))
        steps = len(schedule_times(cfg))
        assert steps <= flow.schedule_steps(cfg) <= steps + 4, stem


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    horizon=st.floats(1e-3, 10.0),
    t_min=st.floats(1e-5, 1e-2),
    ratio=st.floats(1.01, 2.0),
    dt_max=st.none() | st.floats(1e-3, 1.0),
    probes=st.lists(st.floats(0.01, 1.0), max_size=3),
)
def test_the_schedule_bound_is_never_below_the_schedule(horizon, t_min, ratio, dt_max, probes):
    t_min = min(t_min, horizon)
    cfg = FlowConfig(horizon, t_min, ratio, dt_max, probes=[p * horizon for p in probes])
    steps = len(schedule_times(cfg))
    assert steps <= flow.schedule_steps(cfg) <= steps + 4 + len(probes)


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
    # one Newton iteration solves each step from its last state, so every
    # step starts there: an extrapolated start would only add work
    assert {(d["start"], d["newton_iters"]) for d in traj.diagnostics} == {("previous", 1)}


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
    assert cert["pairs"] == len(traj.times) - 1
    assert cert["max_residual"] <= 2.0 * cfg.newton_tol


# -- a manufactured solution: the integrator's orders of accuracy ---------------
#
# phi_e = 0.02 e^{-t} (cos 2 pi x + 0.5 sin 2 pi y) solves the n = 1 flow with
# theta = 1, Omega = 1 and F(t, z, s) = log(1 + H(phi_e)) - d_t phi_e + (s - phi_e),
# c = 1, so dF/ds = 1 and the defect is 0.  H(phi_e) = (1/4) Laplacian phi_e =
# -pi^2 phi_e in closed form, and d_t phi_e = -phi_e, so F = log(1 - pi^2 phi_e) + s.
# (P. J. Roache, J. Fluids Eng. 124 (2002) 4-10.)


def manufactured(t, x, y):
    return 0.02 * math.exp(-t) * (np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * y))


MANUFACTURED_F = DrivingTerm(
    "manufactured",
    lambda t, c, s: np.log(1.0 - np.pi**2 * manufactured(t, *c)) + s,
    ds=lambda t, c, s: np.float64(1.0),
    defect=0.0,
    time_bound=None,
)


def manufactured_error(resolution, backend, dt_max, horizon=0.1):
    """sup |phi - phi_e| at the horizon of a run from phi_e(0)."""
    grid = TorusGrid(n=1, resolution=resolution)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, np.broadcast_to(manufactured(0.0, x, y), grid.shape))
    cfg = FlowConfig(horizon=horizon, t_min=1e-4, ratio=1.1, dt_max=dt_max, backend=backend)
    path, omega = MetricPath.constant(grid, horizon), VolumeForm.constant(grid)
    traj = run(phi0, path, MANUFACTURED_F, omega, cfg)
    return float(np.max(np.abs(traj.final().values - manufactured(horizon, x, y))))


def test_a_manufactured_solution_converges_at_first_order_in_time():
    # phi_e has modes of degree 1 only, which the spectral Hessian takes
    # exactly at 16^2, so the error is backward Euler's: C1 dt + C2 dt^2 + ...
    # With r = C2 dt / C1, the order observed over (2 dt, dt) is
    # 1 + log2((1 + 2r) / (1 + r)) = 1 + (r - 3r^2/2 + ...) / ln 2, and halving
    # dt halves r, so each order's distance from 1 is about half the last:
    # between 0.35 and 0.65 of it while |r| <= 0.2.  (The steps below dt_max
    # near t = 0 add an error of order dt_max^2, a part of C2.)
    errors = [manufactured_error(16, "spectral", dt) for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    gaps = [p - 1.0 for p in orders]
    assert abs(gaps[0]) < 0.2  # |r| < 0.12 at dt = 2e-3
    assert all(0.35 <= b / a <= 0.65 for a, b in zip(gaps, gaps[1:]))


def test_a_manufactured_solution_converges_at_second_order_in_space_on_fd():
    # The fd error is S h^2 (1 + q_s) + E_t: the centred stencils' relative
    # error on a mode of wavenumber 2 pi is q_s = (2 pi h)^2 / 12 to leading
    # order, and E_t is the time error of the schedule, which the spectral run
    # on the same schedule measures (it has no spatial error).  With q the
    # sum of the two relative parts, the order observed over (h, h/2) is
    # 2 + log2((1 + q_h) / (1 + q_{h/2})), within log2((1 + q) / (1 - q)) of 2
    # for q the largest |q| of the three grids.
    dt_max, resolutions = 5e-4, (16, 32, 64)
    errors = [manufactured_error(N, "fd", dt_max) for N in resolutions]
    time_error = manufactured_error(16, "spectral", dt_max)
    q = (2 * np.pi / resolutions[0]) ** 2 / 12 + time_error / errors[-1]
    assert q < 0.1
    band = math.log2((1 + q) / (1 - q))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(abs(p - 2.0) <= band for p in orders)


# -- exact symmetries and the product split at n = 2 ---------------------------
#
# At 16^4 the Newton correction is solved in float32 (grid.correction_dtype),
# so these check the float32 n = 2 kernels against answers the code does not
# give itself.  An accepted state's step residual is at most newton_tol, and
# the step's operator I/dt - L + F_s (L the linearised Monge-Ampere operator,
# F_s >= 0) has an inverse of sup norm at most dt by the maximum principle,
# which the spectral backend keeps up to roundoff on these smooth fields.  So
# a state lies within dt * newton_tol of the exact backward-Euler state from
# its start, and since the exact step moves no two starts further apart, a
# final state lies within horizon * newton_tol of the exact discrete one.
# Runs whose exact discrete states agree exactly differ by at most the sum
# of those distances, rounding included (about 1e-15 here).

ORACLE_T, NEWTON_TOL = 0.01, 1e-10


def symmetry_run(values):
    """The final state of the n = 2 flow from values: identity metric, constant Omega and F."""
    grid = TorusGrid(n=2, resolution=16)
    cfg = FlowConfig(horizon=ORACLE_T, t_min=1e-3, ratio=1.5, newton_tol=NEWTON_TOL)
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid, 1.3)
    # F independent of z and s, so every map below carries the problem to itself
    F = DrivingTerm.affine(constant=0.2)
    return run(ScalarField(grid, values), path, F, omega, cfg).final().values


@pytest.fixture(scope="module")
def symmetric_base():
    grid = TorusGrid(n=2, resolution=16)
    assert grid_module.correction_dtype(grid) == np.float32
    x1, y1, x2, y2 = (2 * np.pi * c for c in grid.coordinates())
    # not of the form a(z1) + b(z2), so h12 is not zero
    phi0 = (
        0.01 * np.cos(x1 + x2)
        + 0.006 * np.sin(y1 - 2 * y2)
        + 0.005 * np.cos(x1 + y1 + y2)
        + 0.004 * np.sin(2 * x1 - y2)
    )
    phi0 = np.ascontiguousarray(np.broadcast_to(phi0, grid.shape))
    return phi0, symmetry_run(phi0)


@pytest.mark.parametrize(
    "symmetry",
    [
        lambda v: v.transpose(2, 3, 0, 1),  # (z1, z2) -> (z2, z1)
        lambda v: np.roll(v, (3, 5), axis=(0, 3)),  # 3 grid points along x1, 5 along y2
        lambda v: v + 0.7,  # H(phi + c) = H(phi), and F does not read s
    ],
    ids=["swap", "translate", "constant"],
)
def test_an_n2_flow_commutes_with_the_symmetries_of_its_problem(symmetric_base, symmetry):
    phi0, final = symmetric_base
    moved = symmetry_run(np.ascontiguousarray(symmetry(phi0)))
    assert np.max(np.abs(moved - symmetry(final))) <= 2 * ORACLE_T * NEWTON_TOL


def product_split_run(n, data, f, omega, backend):
    """The final state of the flow from data(coordinates), F = f(coordinates) + s / 2."""
    grid = TorusGrid(n=n, resolution=16)
    coords = grid.coordinates()
    F = DrivingTerm(
        "split", lambda t, c, s: f(*c) + 0.5 * s, ds=lambda t, c, s: np.float64(0.5)
    )
    cfg = FlowConfig(
        horizon=ORACLE_T, t_min=1e-3, ratio=1.5, newton_tol=NEWTON_TOL, backend=backend
    )
    phi0 = ScalarField(grid, np.ascontiguousarray(np.broadcast_to(data(*coords), grid.shape)))
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid, omega)
    return run(phi0, path, F, omega, cfg).final().values


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_an_n2_flow_of_a_sum_over_the_two_factors_is_the_sum_of_two_n1_flows(backend):
    # With data a(z1) + b(z2), F = f1(z1) + f2(z2) + s / 2, the identity
    # metric and Omega = 1.5 * 1.0, h12 = 0 and log det splits into the two
    # n = 1 equations, step by step: the n = 2 backward-Euler states are the
    # sums of those of the two n = 1 flows on the same schedule.  Three runs,
    # so three horizon * newton_tol distances.
    tau = 2 * np.pi

    def a(x, y):
        return 0.01 * np.cos(tau * x) + 0.006 * np.sin(tau * (x - 2 * y))

    def b(x, y):
        return 0.008 * np.sin(tau * (2 * x + y)) + 0.005 * np.cos(tau * y)

    def f1(x, y):
        return 0.3 * np.cos(tau * y)

    def f2(x, y):
        return 0.2 * np.sin(tau * x)

    whole = product_split_run(
        2, lambda x1, y1, x2, y2: a(x1, y1) + b(x2, y2),
        lambda x1, y1, x2, y2: f1(x1, y1) + f2(x2, y2), 1.5, backend,
    )
    first = product_split_run(1, a, f1, 1.5, backend)
    second = product_split_run(1, b, f2, 1.0, backend)
    parts = first[:, :, None, None] + second[None, None, :, :]
    assert np.max(np.abs(whole - parts)) <= 3 * ORACLE_T * NEWTON_TOL


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


def fresh_row(audit, k):
    """Snapshot k's audit row computed on new arrays throughout."""
    traj, grid, backend = audit.traj, audit.traj.grid, audit.backend
    t, fld, pd = float(traj.times[k]), traj.fields[k], traj.phidots[k]
    theta = audit.path.theta(t)
    total = geometry.kahler_form(theta, flow.hessian_components(fld.values, grid, backend))
    row = {"margin": geometry.cone_margin(total)}
    row["sup-trace"] = float(np.max(geometry.comps_trace(total)))
    row["energy"] = psh.energy(theta, fld, backend, form=total)
    rhs = np.log(geometry.comps_det(total)) - audit.omega_form.log()
    rhs = rhs - audit.F(t, grid.coordinates(), fld.values)
    r = pd.values - rhs
    row["phidot_range"] = (float(r.min()), float(r.max()))
    row["step_residual"] = None
    if k > 0:
        R = (fld.values - traj.fields[k - 1].values) / (traj.times[k] - traj.times[k - 1]) - rhs
        row["step_residual"] = float(np.max(np.abs(R)))
    return row


@pytest.mark.parametrize("n, backend", [(1, "spectral"), (1, "fd"), (2, "spectral"), (2, "fd")])
def test_audit_rows_built_in_its_arrays_match_fresh_arrays(n, backend, varying_form):
    grid, _, phi = varying_form(n)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.5, backend=backend)
    path = MetricPath.constant(grid, cfg.horizon)
    omega = VolumeForm.from_function(grid, lambda *c: 1.0 + 0.2 * np.cos(2 * np.pi * c[-1]))
    F = DrivingTerm.affine(0.0, 0.5)
    traj = run(ScalarField(grid, phi), path, F, omega, cfg)
    audit = TrajectoryAudit(traj, path, F, omega)
    # built last to first, so each build overwrites another snapshot's arrays
    for k in reversed(range(len(traj.times))):
        assert audit.row(k) == fresh_row(audit, k)
    # the audit evaluates states only, in the workspace a run makes: it never
    # makes a Newton correction's arrays
    assert "correction" not in vars(audit._ws)
    made = distinct_bytes(arrays_in(vars(audit._ws).values()))
    assert made == flow._Workspace.nbytes(grid)


def test_an_n1_audit_holds_no_det():
    # det w is w itself at n = 1, so no workspace makes det there
    traj, path, F, omega = audited_run()
    audit = TrajectoryAudit(traj, path, F, omega)
    assert residual_certificate(audit)["pairs"] > 0
    assert audit._ws.det is None and "det" not in audit._ws.lenders
    # at 128^2: h, w, rhs, R and tmp[0], a spectrum, AUDIT_FIELDS fields and
    # numpy's 8192-element buffer
    field, spectrum = 8 * 128**2, 16 * 128 * 65
    assert flow.audit_array_bytes(TorusGrid(1, 128)) == 8 * field + spectrum + 8 * 8192


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n, resolution", [(1, 16), (1, 128), (2, 8), (2, 16)])
def test_a_run_holds_more_than_the_audit_after_it(n, resolution, backend):
    # three states and phi0 against the audit's three fields, in one workspace and buffer
    grid = TorusGrid(n, resolution)
    assert flow.peak_array_bytes(grid, backend=backend) > flow.audit_array_bytes(grid)


def test_step_residual_audit_never_evaluates_the_energy(monkeypatch):
    traj, path, F, omega = audited_run()

    def no_energy(*args, **kwargs):
        raise AssertionError("the energy was evaluated")

    monkeypatch.setattr(psh, "energy", no_energy)
    audit = TrajectoryAudit(traj, path, F, omega, columns=("step_residual",))
    cert = residual_certificate(audit)
    assert cert["max_residual"] <= 2.0 * cert["tol"]
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


def advance(phi, t_from, t_to, path, F, omega, cfg, history=()):
    """One backward-Euler step from phi after the accepted states history.

    It runs on a new workspace warm-started by H(phi), writes a new state,
    and returns the new values and the step's diagnostics.
    """
    ws = flow._Workspace(phi.grid, cfg.backend)
    ws.hessian(phi.values)
    coords = phi.grid.coordinates()
    vals, _, diag = flow._advance(
        phi.values, t_from, t_to, path, F, omega.log(), cfg, coords, ws,
        np.empty(phi.grid.shape), history,
    )
    return vals, diag


def test_warm_start_outside_the_cone_names_the_worst_point():
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    phi = ScalarField(grid, 0.2 * np.cos(2 * np.pi * x) * np.ones_like(y))
    with pytest.raises(ConeExitError) as info:
        advance(phi, 0.0, 0.01, path, DrivingTerm.zero(), omega, cfg)
    assert info.value.location[0] == 0
    assert info.value.eigenvalue == pytest.approx(1.0 - 0.2 * np.pi**2, rel=1e-12)


def test_exhausted_damping_names_the_worst_point(monkeypatch):
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    # a Newton direction 1e9 cos(2 pi x) (the negated correction) so large
    # that every damped trial leaves the cone, worst at x = 0
    # (writable: each rejected trial halves the correction in place)
    correction = -1e9 * np.cos(2 * np.pi * x) * np.ones_like(y)
    monkeypatch.setattr(flow, "_bicgstab", lambda *a, **k: (correction, 1, 0.0, True))
    phi0 = ScalarField(grid, 0.02 * np.sin(2 * np.pi * y) * np.ones_like(x))
    with pytest.raises(ConeExitError) as info:
        run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert info.value.location[0] == 0
    assert info.value.eigenvalue < 0.0


def smooth_run():
    """A 16^2 spectral run from a smooth datum under F = s/2, 143 steps."""
    grid, path, omega, cfg = make_problem(resolution=16)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.05 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
    F = DrivingTerm.affine(slope=0.5)
    return run(phi0, path, F, omega, cfg), phi0, path, F, omega, cfg


def test_run_reuses_each_accepted_hessian_bitwise():
    traj, phi0, path, F, omega, cfg = smooth_run()
    grid = phi0.grid
    # each step here gets the run's history on a new workspace, so every
    # Hessian it reads is computed afresh
    states = [(0.0, phi0.values)]
    for t_to in traj.schedule[1:]:
        t_from, vals = states[-1]
        vals, diag = advance(
            ScalarField(grid, vals), t_from, t_to, path, F, omega, cfg, tuple(states[-3:-1])
        )
        assert diag == traj.diagnostics[len(states) - 1]
        states.append((float(t_to), vals))
    assert np.array_equal(states[-1][1], traj.final().values)
    starts = [d["start"] for d in traj.diagnostics]
    assert starts[0] == "previous" and set(starts[1:]) == {"extrapolated"}


def test_newton_starts_from_the_extrapolated_state():
    # 594 Newton iterations when every step starts from the last accepted
    # state, 471 from the quadratic through the last three
    traj = smooth_run()[0]
    assert sum(d["newton_iters"] for d in traj.diagnostics) <= 480
    first, second = traj.diagnostics[:2]
    # the first step starts from phi0, whose residual is |phidot(0)|
    assert first["initial_residual"] == pytest.approx(float(np.max(np.abs(traj.phidots[0].values))))
    assert second["initial_residual"] < first["initial_residual"]


def cos_potential(grid, amplitude):
    """amplitude cos(2 pi x): theta + H of it is 1 - amplitude pi^2 cos(2 pi x) at n = 1."""
    x, y = grid.coordinates()
    return amplitude * np.cos(2 * np.pi * x) * np.ones_like(y)


def test_a_guess_outside_the_cone_falls_back_to_the_last_state():
    grid, path, omega, cfg = make_problem(resolution=16)
    phi = ScalarField(grid, cos_potential(grid, 0.05))
    # the linear guess 0.05 + (0.05 + 0.1) = 0.2 > 1/pi^2 leaves the cone
    history = ((0.0, cos_potential(grid, -0.1)),)
    vals, diag = advance(phi, 0.01, 0.02, path, DrivingTerm.zero(), omega, cfg, history)
    assert diag["start"] == "fallback"
    assert diag["residual"] <= cfg.newton_tol and diag["newton_iters"] > 0
    # the fallback takes H(phi) afresh: the step is that without a history
    want, plain = advance(phi, 0.01, 0.02, path, DrivingTerm.zero(), omega, cfg)
    assert plain["start"] == "previous"
    assert np.array_equal(vals, want)
    assert {**diag, "start": "previous"} == plain


@pytest.mark.parametrize("probe", [None, 0.0371])
def test_extrapolation_reproduces_quadratics_on_the_schedule(probe):
    cfg = FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.5, probes=() if probe is None else (probe,))
    times = schedule_times(cfg)
    grid = TorusGrid(n=1, resolution=8)
    x, y = grid.coordinates()
    a, b, c = np.cos(2 * np.pi * x) * np.ones_like(y), np.sin(2 * np.pi * y), x * y

    def quadratic(t):
        return a + t * (b + t * c)

    # every step with two accepted states before it; with the probe, steps
    # into and out of the shortened step that ends on it
    ks = range(3, len(times))
    if probe is not None:
        k = int(np.flatnonzero(times == probe)[0])
        assert times[k] - times[k - 1] < (cfg.ratio - 1.0) * times[k - 1]
        ks = (k, k + 1, k + 2)
    out, scratch = np.empty(grid.shape), np.empty(grid.shape)
    for k in ks:
        nodes = times[k - 3 : k]
        weights = flow._lagrange_weights(nodes, times[k])
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-13)
        for m in range(3):
            assert math.fsum(w * s**m for w, s in zip(weights, nodes)) == pytest.approx(
                times[k] ** m, rel=1e-12
            )
        states = [(s, quadratic(s)) for s in nodes]
        got = flow._extrapolate(states, times[k], out, scratch)
        assert got is out
        np.testing.assert_allclose(got, quadratic(times[k]), rtol=0, atol=1e-14)
        # two states give the line through them
        lines = [(s, a + s * b) for s in nodes[1:]]
        got = flow._extrapolate(lines, times[k], out, scratch)
        np.testing.assert_allclose(got, a + times[k] * b, rtol=0, atol=1e-14)


@pytest.mark.parametrize("older", [1, 2])
def test_extrapolation_may_write_over_its_oldest_state(older):
    # the line (one state before the newest) and the quadratic (two)
    grid = TorusGrid(n=1, resolution=8)
    x, y = grid.coordinates()
    times = schedule_times(FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.3))[3 : 3 + older + 2]
    states = [
        (s, np.cos(2 * np.pi * (x + s)) * np.sin(2 * np.pi * y) + s * x * y) for s in times[:-1]
    ]
    scratch = np.empty(grid.shape)
    want = flow._extrapolate(states, times[-1], np.empty(grid.shape), scratch)
    oldest = states[0][1]
    got = flow._extrapolate(states, times[-1], oldest, scratch)
    assert got is oldest
    assert got.tobytes() == want.tobytes()


def test_a_rejected_trial_on_the_iterate_in_place_halves_the_correction(monkeypatch):
    grid, path, omega, cfg = make_problem(resolution=16, newton_tol=5.0)
    # the linear guess 2 (-0.08) - (-0.21) = 0.05 (cos 2 pi x) lies inside the
    # cone, so Newton starts from it, its iterate the state the step writes
    prev = ScalarField(grid, cos_potential(grid, -0.08))
    history = ((0.0, cos_potential(grid, -0.21)),)
    guess = flow._extrapolate((*history, (0.01, prev.values)), 0.02, np.empty(grid.shape),
                              np.empty(grid.shape))
    # a correction twice guess - prev: the full step, near -0.21 cos, leaves
    # the cone (0.21 pi^2 > 1); the half step lands near prev, residual about
    # |log(1 - 0.08 pi^2)| = 1.6 against 13 at the guess, below newton_tol
    correction = 2.0 * (guess - prev.values)
    halved = 0.5 * correction
    monkeypatch.setattr(flow, "_bicgstab", lambda *a, **k: (correction, 1, 0.0, True))
    vals, diag = advance(prev, 0.01, 0.02, path, DrivingTerm.zero(), omega, cfg, history)
    assert diag["start"] == "extrapolated" and diag["newton_iters"] == 1
    assert diag["damping"] == 0.5
    # the correction is halved in place, exactly
    assert np.array_equal(correction, halved)
    # the iterate went guess -> fl(guess - c) -> fl(. + c) -> fl(. - c/2):
    # three roundings, and one more in the reference guess - c/2, each of a
    # value below |guess| + |c| (to first order) by at most eps/2 of it
    bound = 2 * np.finfo(np.float64).eps * (np.abs(guess) + 2 * np.abs(halved))
    assert np.all(np.abs(vals - (guess - halved)) <= bound)


def test_a_rejected_first_trial_from_the_last_state_halves_the_correction(monkeypatch):
    grid, path, omega, cfg = make_problem(resolution=16, horizon=0.2, newton_tol=1.5)
    # without a history Newton starts from a copy of prev = 0.09 cos, residual
    # |log(1 - 0.09 pi^2)| = 2.2 > newton_tol; the full step to -0.13 cos leaves
    # the cone (0.13 pi^2 > 1); the half step to -0.02 cos has residual about
    # 0.11 / dt + |log(1 - 0.02 pi^2)| = 0.77 below it
    prev = ScalarField(grid, cos_potential(grid, 0.09))
    correction = cos_potential(grid, 0.22)
    halved = 0.5 * correction
    monkeypatch.setattr(flow, "_bicgstab", lambda *a, **k: (correction, 1, 0.0, True))
    vals, diag = advance(prev, 0.0, 0.2, path, DrivingTerm.zero(), omega, cfg)
    assert diag["start"] == "previous" and diag["newton_iters"] == 1
    assert diag["damping"] == 0.5
    assert np.array_equal(correction, halved)
    # the iterate went prev (copied exactly) -> fl(prev - c) -> fl(. + c) ->
    # fl(. - c/2), and the reference is fl(prev - c/2): four roundings of
    # values below |prev| + |c| (to first order), each by at most eps/2 of it
    bound = 2 * np.finfo(np.float64).eps * (np.abs(prev.values) + 2 * np.abs(halved))
    assert np.all(np.abs(vals - (prev.values - halved)) <= bound)


@pytest.mark.parametrize(
    "amplitude, older, start",
    [
        (0.0, None, "previous"),  # 0 is the flow's fixed point under F = 0: no iteration
        (0.05, None, "previous"),
        (0.05, 0.04, "extrapolated"),  # the guess 0.06 cos lies inside the cone
        (0.05, -0.1, "fallback"),  # the guess 0.2 cos does not (0.2 pi^2 > 1)
    ],
)
def test_a_step_returns_the_state_it_is_given(amplitude, older, start):
    grid, path, omega, cfg = make_problem(resolution=16)
    prev = cos_potential(grid, amplitude)
    before = prev.copy()
    history = () if older is None else ((0.0, cos_potential(grid, older)),)
    ws = flow._Workspace(grid, cfg.backend)
    ws.hessian(prev)
    state = np.full(grid.shape, np.nan)
    vals, _, diag = flow._advance(
        prev, 0.01, 0.02, path, DrivingTerm.zero(), omega.log(), cfg, grid.coordinates(), ws,
        state, history,
    )
    assert diag["start"] == start
    assert (diag["newton_iters"] == 0) == (amplitude == 0.0)
    assert vals is state and np.array_equal(prev, before)
    if amplitude == 0.0:
        assert np.array_equal(vals, prev)


@pytest.mark.parametrize("amplitude", [0.0, 0.05])
def test_run_hands_step_k_the_state_k_mod_3(monkeypatch, amplitude):
    # at 0 every step starts from its last state and takes no Newton
    # iteration; at 0.05 the steps extrapolate
    grid, path, omega, cfg = make_problem(resolution=16)
    phi0 = ScalarField(grid, cos_potential(grid, amplitude))
    laid_out, advance_step, layouts, calls = flow._laid_out, flow._advance, [], []

    def laid(grid, owners, *args, **kwargs):
        arrays = laid_out(grid, owners, *args, **kwargs)
        if owners == ("state",):
            layouts.append(tuple(arrays.values()))
        return arrays

    def step(*args):
        out = advance_step(*args)
        calls.append((args[0], args[9], out[0]))  # its start, its state and its values
        return out

    monkeypatch.setattr(flow, "_laid_out", laid)
    monkeypatch.setattr(flow, "_advance", step)
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    (states,) = layouts
    assert calls[0][0] is phi0.values
    for k, (start, state, vals) in enumerate(calls, 1):
        assert state is states[k % 3] and vals is state
        assert k == 1 or start is calls[k - 2][2]
    starts = {d["start"] for d in traj.diagnostics}
    assert starts == ({"previous"} if amplitude == 0.0 else {"previous", "extrapolated"})
    assert (max(d["newton_iters"] for d in traj.diagnostics) == 0) == (amplitude == 0.0)


def warm_problem(n, resolution, backend, corner=False):
    """A smooth datum's values, a run's config, path and volume, and F = 0 on a grid.

    With corner, the datum is scenario 07's paraboloid corner (n = 1), whose
    form is degenerate.  F = 0 makes no array of its own, so what a step
    allocates is the flow's.
    """
    grid = TorusGrid(n=n, resolution=resolution)
    c = grid.coordinates()
    phi = 0.02 * np.cos(2 * np.pi * c[0]) * np.sin(2 * np.pi * c[1])
    phi = phi + 0.01 * np.cos(2 * np.pi * (c[0] + c[-1]))
    if corner:
        phi = RoughPotential.paraboloid(curvature=0.999).sample(grid).values
    cfg = FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.2, backend=backend)
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    return np.broadcast_to(phi, grid.shape).copy(), cfg, path, omega, DrivingTerm.zero()


def warm_step_peak(n, resolution, backend, corner=False):
    """(peak, kept) of the 10th backward-Euler step called directly, in grid fields.

    The steps run on one workspace with the run's history, step k writing
    states[k % 3] of three, as `run` gives them: from the fourth step on
    the oldest history state, which the guess is written over.  Below half
    a field, a peak is numpy's casting buffers (at most 8192 elements
    each), not an array.
    """
    vals, cfg, path, omega, F = warm_problem(n, resolution, backend, corner)
    grid, log_om = path.grid, omega.log()
    c = grid.coordinates()
    ws = flow._Workspace(grid, backend)
    ws.hessian(vals)
    times = schedule_times(cfg)
    states = [np.empty(grid.shape) for _ in range(3)]
    history = []

    def step(k):
        return flow._advance(vals, times[k - 1], times[k], path, F, log_om, cfg, c, ws,
                             states[k % 3], history)

    for k in range(1, 10):
        new = step(k)[0]
        history, vals = [*history[-1:], (times[k - 1], vals)], new
    read_after, oldest = (history[-1][1], vals), history[0][1]
    before = [a.copy() for a in read_after]
    tracemalloc.start()
    try:
        out = step(10)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[2]["start"] == "extrapolated" and out[2]["newton_iters"] > 1
    # the step wrote only the state it was given, the oldest of its history, and returns it
    assert all(np.array_equal(a, b) for a, b in zip(read_after, before))
    assert out[0] is oldest
    return peak / vals.nbytes, kept / vals.nbytes


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_a_warm_n2_step_allocates_only_what_it_returns(backend):
    # its values are one of the caller's states; its phidot is the workspace's rhs
    peak, kept = warm_step_peak(2, 8, backend)
    assert peak < 0.5 and kept < 0.1


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_a_warm_float32_n2_step_allocates_only_what_it_returns(backend):
    # the correction's float32 arrays are made by the earlier steps
    assert grid_module.correction_dtype(TorusGrid(2, 16)) == np.float32
    peak, kept = warm_step_peak(2, 16, backend)
    assert peak < 0.5 and kept < 0.1


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_a_warm_n1_step_allocates_only_what_it_returns(backend):
    # transforms and stencils land in the workspace
    peak, kept = warm_step_peak(1, 64, backend)
    assert peak < 0.5 and kept < 0.1


def vcycle_steps(monkeypatch) -> list:
    """A list that gets the dt of each Newton iteration whose solve takes the V-cycle."""
    real, steps = flow._vcycle_preconditioner, []

    def recorded(w, fs, dt, cor):
        steps.append(dt)
        return real(w, fs, dt, cor)

    monkeypatch.setattr(flow, "_vcycle_preconditioner", recorded)
    return steps


def vcycles_made(monkeypatch) -> tuple:
    """(made, iterations): made gets len(iterations) for each V-cycle made, and
    iterations an entry for each Newton iteration begun."""
    krylov_step, iterations, made = flow._krylov_step, [], []

    def counted(*args):
        iterations.append(None)
        return krylov_step(*args)

    class Counted(flow.ShiftedVCycle):
        def __init__(self, N):
            made.append(len(iterations))
            super().__init__(N)

    monkeypatch.setattr(flow, "_krylov_step", counted)
    monkeypatch.setattr(flow, "ShiftedVCycle", Counted)
    return made, iterations


def test_an_n1_fd_correction_makes_one_vcycle_and_takes_it_on_every_newton_iteration(monkeypatch):
    # a smooth datum, whose form never degenerates
    made, iterations = vcycles_made(monkeypatch)
    steps = vcycle_steps(monkeypatch)
    vals, cfg, path, omega, F = warm_problem(1, 128, "fd")
    traj = run(ScalarField(path.grid, vals), path, F, omega, cfg)
    assert made == [0]  # with the correction, before the first Newton iteration's solve
    newton = sum(d["newton_iters"] for d in traj.diagnostics)
    assert len(steps) == len(iterations) == newton > 0


def test_a_warm_vcycle_step_allocates_only_what_it_returns(monkeypatch):
    # the correction laid out the cycle's arrays when the first Newton
    # iteration made it
    steps = vcycle_steps(monkeypatch)
    peak, kept = warm_step_peak(1, 128, "fd", corner=True)
    times = schedule_times(warm_problem(1, 128, "fd", corner=True)[1])
    assert steps[-1] == times[10] - times[9]  # the 10th step's solves took it
    assert peak < 0.5 and kept < 0.1


class _NullStore:
    """A snapshot store that keeps nothing, so a run's memory is the integration's."""

    def __init__(self):
        self.fields, self.phidots = [], []

    def add(self, index, t, phi, phidot):
        pass


def traced_run_steps(monkeypatch, n, resolution, backend, first):
    """[(peak, kept)] in grid fields of each step of a run from step first on.

    Both are counted from the memory held as the step starts: what the step
    allocated at its peak, and what it left allocated (its diagnostics
    aside, a few hundred bytes), so a run that holds a fixed set of arrays
    keeps none.
    """
    vals, cfg, path, omega, F = warm_problem(n, resolution, backend)
    advance_step, steps = flow._advance, []

    def step(*args, **kwargs):
        if len(steps) + 1 < first:
            steps.append(None)
            return advance_step(*args, **kwargs)
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = advance_step(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        steps.append((peak - held, current - held))
        return out

    monkeypatch.setattr(flow, "_advance", step)
    try:
        traj = run(ScalarField(path.grid, vals), path, F, omega, cfg, _NullStore())
    finally:
        tracemalloc.stop()
    assert len(steps) == len(traj.schedule) - 1 > first
    starts = {d["start"] for d in traj.diagnostics[first - 1 :]}
    assert starts == {"extrapolated"} and min(d["newton_iters"] for d in traj.diagnostics) > 0
    return [(peak / vals.nbytes, kept / vals.nbytes) for peak, kept in steps[first - 1 :]]


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n, resolution", [(1, 64), (2, 8)])
def test_a_warm_step_in_a_run_allocates_no_state(monkeypatch, n, resolution, backend):
    # each step writes one of the three states the run laid out
    for peak, kept in traced_run_steps(monkeypatch, n, resolution, backend, 10):
        assert peak < 0.5 and kept < 0.1


def test_a_16_4_run_allocates_no_state_after_its_third_step(monkeypatch):
    # the run lays its three states out before its first step, so from step 2
    # on (the first with a history) no step makes one
    steps = traced_run_steps(monkeypatch, 2, 16, "spectral", 2)
    assert max(peak for peak, _ in steps) < 0.5
    assert max(kept for _, kept in steps) < 0.1


def test_a_16_4_run_leaves_no_grid_sized_array_in_grids_caches():
    # the symbols are laid out where they are used, the preconditioner's and
    # mollification's; the caches keep N x N arrays and wavenumbers
    vals, cfg, path, omega, F = warm_problem(2, 16, "spectral")
    caches = [fn for fn in vars(grid_module).values() if hasattr(fn, "cache_clear")]
    for fn in caches:
        fn.cache_clear()
    tracemalloc.start()
    try:
        traj = run(ScalarField(path.grid, vals), path, F, omega, cfg, _NullStore())
        grid_module.gaussian_smooth(vals, path.grid, 0.05)
        held = tracemalloc.get_traced_memory()[0]
        for fn in caches:
            fn.cache_clear()
        cached = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(d["newton_iters"] for d in traj.diagnostics) > 0
    # less than one float32 grid array, the smallest a grid-sized one can be
    assert 0 < cached < 4 * vals.size


def arrays_in(values) -> list:
    """The arrays among values and inside their tuples and lists."""
    found = []
    for v in values:
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, (tuple, list)):
            found += arrays_in(v)
    return found


def stepped_workspace(n, resolution, backend, dtype):
    """A workspace after one backward-Euler step of Newton iterations on it.

    Returns it, its correction's arrays and the states the step read and wrote.
    """
    grid = TorusGrid(n=n, resolution=resolution)
    assert grid_module.correction_dtype(grid) == dtype
    c = grid.coordinates()
    phi = 0.02 * np.cos(2 * np.pi * c[0]) * np.sin(2 * np.pi * c[1])
    phi = np.broadcast_to(phi, grid.shape).copy()
    cfg = FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.2, backend=backend)
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    ws = flow._Workspace(grid, backend)
    ws.hessian(phi)
    assert "correction" not in vars(ws)
    states = (phi, np.empty(grid.shape))
    diag = flow._advance(phi, 0.0, 1e-3, path, DrivingTerm.affine(slope=0.5), omega.log(),
                         cfg, c, ws, states[1])[2]
    assert diag["newton_iters"] > 0
    correction = arrays_in(vars(ws.correction).values())
    complex_dtype = np.result_type(dtype, np.complex64)
    # h12 (and at n = 1 the transform) complex of the correction's precision
    assert any(np.iscomplexobj(a) for a in correction)
    assert all(a.dtype == (complex_dtype if np.iscomplexobj(a) else dtype) for a in correction)
    return ws, correction, states


@pytest.mark.parametrize("n, resolution, backend, dtype", [(2, 8, "spectral", np.float64)])
def test_the_correction_has_its_own_arrays_in_its_own_precision(n, resolution, backend, dtype):
    # the float64 n = 2 correction solves in w, det and R themselves, live through the solve
    ws, correction, states = stepped_workspace(n, resolution, backend, dtype)
    state = arrays_in(v for k, v in vars(ws).items() if k != "correction")
    assert not any(np.shares_memory(a, b) for a in correction for b in (*state, *states))


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_a_float32_correction_lies_in_the_workspace_arrays_its_solve_leaves_idle(backend):
    ws, correction, states = stepped_workspace(2, 16, backend, np.float32)
    cor = ws.correction
    assert flow._Correction.nbytes(ws.grid, np.float32, ws.backend) == 0

    def within(names):
        return arrays_in(getattr(ws, name) for name in names)

    lenders = within(("h", "w", "tmp", "det"))
    # every array is a view of h, w, tmp or det, never of a state
    assert all(any(np.shares_memory(a, b) for b in lenders) for a in correction)
    assert not any(np.shares_memory(a, b) for a in correction for b in states)
    # no two arrays overlap, hv's reals being tmp's own
    distinct = {id(a): a for a in correction}.values()
    assert len(distinct) == 18
    assert not any(np.shares_memory(a, b) for a in distinct for b in distinct if a is not b)
    # rhs and R are lent only as the workspace's tmp[1] and tmp[2], which they are:
    # to the correction's tmp[2] and scale, and H(v)'s h12
    assert ws.tmp[1] is ws.rhs and ws.tmp[2] is ws.R
    in_rhs_or_r = [a for a in distinct if any(np.shares_memory(a, b) for b in (ws.rhs, ws.R))]
    assert {id(a) for a in in_rhs_or_r} == {id(cor.tmp[2]), id(cor.scale), id(cor.hv[2])}
    # the copies do not overlap what they copy
    assert not any(np.shares_memory(a, b) for a in cor.copies for b in within(("w", "det", "R")))
    # x and best, which outlive the solve, overlap no array the line search writes
    x, best = cor.krylov[0], cor.krylov[-1]
    assert not any(np.shares_memory(a, b) for a in (x, best) for b in within(("h", "w", "tmp")))


def test_the_declared_float32_placements_lie_apart_in_idle_lenders():
    # read from flow._ARRAYS alone at n = 2, allocating nothing: the float32
    # parts each array takes, and those each float64 workspace array holds
    width, room = {"real": 1, "complex": 2}, {"real": 2, "complex": 4}
    rows = [row for row in flow._ARRAYS if row[3] in (None, 2)]
    lenders = {row[0]: row[2] for row in rows if row[1] == "ws"}
    correction = [row for row in rows if row[1] in ("cor", "copy")]
    # a float32 correction makes no array: each one is placed
    assert correction and all(len(row) == 6 for row in correction)
    taken = {}
    for name, _, kind, _, lender, part in correction:
        # inside its lender
        assert 0 <= part and part + width[kind] <= room[lenders[lender]]
        taken.setdefault(lender, []).append((part, part + width[kind], name))
    # no two placements overlap
    for spans in taken.values():
        spans.sort()
        assert all(end <= start for (_, end, _), (start, _, _) in zip(spans, spans[1:]))
    # every lender is the workspace's: a run's states are never lent
    assert taken.keys() <= lenders.keys()
    # rhs and R only to the correction's tmp2, scale and H(v)'s h12
    lent_rhs_or_r = {name for lender in ("rhs", "R") for *_, name in taken[lender]}
    assert lent_rhs_or_r == {"tmp2", "scale", "h12"}


def rows_lent_off_n2(rows) -> list:
    """The rows among `_ARRAYS`-like rows that name a lender yet exist at an n other than 2."""
    return [row for row in rows if len(row) == 6 and row[3] != 2]


def test_only_float32_corrections_are_lent():
    # a lender row is a float32 correction's, and float32 is at n = 2 only
    assert rows_lent_off_n2(flow._ARRAYS) == []
    assert any(len(row) == 6 for row in flow._ARRAYS)
    planted = (("best", "cor", "real", 1, "rhs", 0), ("tmp0", "cor", "real", None, "tmp0", 0))
    assert rows_lent_off_n2(flow._ARRAYS + planted) == list(planted)


def distinct_bytes(arrays) -> int:
    """The bytes of the memory blocks the arrays view, each counted once."""
    bases = {}
    for a in arrays:
        base = a if a.base is None else a.base
        bases[id(base)] = base.nbytes
    return sum(bases.values())


@pytest.mark.parametrize(
    "n, resolution, dtype",
    [(1, 8, np.float64), (1, 16, np.float64), (1, 32, np.float64), (1, 128, np.float64),
     (1, 256, np.float64), (2, 8, np.float64), (2, 16, np.float32), (2, 8, np.float32)],
)
def test_the_workspace_and_correction_count_the_bytes_they_make(n, resolution, dtype):
    # on fd grids, where every n = 1 correction makes a V-cycle
    grid = TorusGrid(n=n, resolution=resolution)
    ws = flow._Workspace(grid, "fd")
    made = arrays_in(vars(ws).values())
    assert distinct_bytes(made) == flow._Workspace.nbytes(grid)
    correction = flow._Correction(grid, dtype, ws)
    cor = arrays_in(vars(correction).values())
    # a float64 correction owns every array it makes, a float32 one none
    own = [a for a in cor if not any(np.shares_memory(a, b) for b in made)]
    assert len(own) == (len(cor) if dtype == np.float64 else 0)
    cycles = flow._Correction.cycles(grid, ws.backend)
    assert cycles == (n == 1) == (correction.vcycle is not None)
    cycle_bytes = 0
    if cycles:  # the cycle, made with the correction, owns its arrays too
        cycle = arrays_in(vars(correction.vcycle).values())
        assert {a.dtype for a in cycle} == {np.dtype(np.float32)}
        assert not any(np.shares_memory(a, b) for a in cycle for b in made + own)
        cycle_bytes = distinct_bytes(cycle)
        assert cycle_bytes == grid_module.ShiftedVCycle.nbytes(resolution)
    assert distinct_bytes(own) + cycle_bytes == flow._Correction.nbytes(grid, dtype, ws.backend)


# -- the Newton solve: preconditioned BiCGSTAB -----------------------------------


def newton_operators(total, R, fs, dt, grid, backend):
    """The Newton operator, its preconditioner and BiCGSTAB's step at the form total.

    The operator and preconditioner share a new workspace; the step gets one
    of its own, as at n = 1 it keeps its coefficients in arrays that the
    operator's Hessian overwrites.
    """
    ws, step_ws = flow._Workspace(grid, backend), flow._Workspace(grid, backend)
    det = geometry.comps_det(total)
    return (
        flow._jacobian(total, det, fs, dt, ws),
        flow._preconditioner(total, det, R, fs, dt, ws),
        flow._krylov_step(total, det, R, fs, dt, step_ws),
    )


def krylov(b):
    """BiCGSTAB's seven vectors for a right-hand side shaped like b."""
    return [np.empty_like(b) for _ in range(7)]


def constant_metric_system(n, backend, level=0.3):
    """Newton operator, preconditioner, BiCGSTAB step and right-hand side for w = level * I."""
    grid = TorusGrid(n=n, resolution=16 if n == 1 else 8)
    w = np.full(grid.shape, level)
    total = (w,) if n == 1 else (w, w, np.zeros(grid.shape, dtype=complex))
    R = np.random.default_rng(3).standard_normal(grid.shape)
    return (*newton_operators(total, R, np.asarray(0.5), 0.01, grid, backend), -R)


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n", [1, 2])
def test_preconditioner_inverts_the_jacobian_for_a_constant_metric(n, backend):
    jac, precond, step, b = constant_metric_system(n, backend)
    if (n, backend) == (1, "fd"):  # whose Krylov step is the V-cycle's, which is not exact

        def step(p, z, v):
            z = precond(p, z)
            return z, jac(z, v)

    x, iters, rel_res, converged = flow._bicgstab(step, b, 1e-12, 1, krylov(b))
    assert (iters, converged) == (1, True)
    assert rel_res <= 1e-12
    assert flow._l2(b - jac(x)) <= 1e-12 * flow._l2(b)


@pytest.mark.parametrize("fs_kind", ["scalar", "array"])
@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n", [1, 2])
def test_newton_kernels_match_their_reference(n, backend, fs_kind, varying_form):
    grid, theta, phi = varying_form(n)
    total = geometry.kahler_form(theta, flow.hessian_components(phi, grid, backend))
    x1 = grid.coordinates()[0]
    fs = np.asarray(0.5) if fs_kind == "scalar" else 0.5 + 0.2 * np.cos(2 * np.pi * x1)
    dt = 2.0**-7  # v / dt and (1 / dt) v round alike
    rng = np.random.default_rng(7)
    v, R = rng.standard_normal((2, *grid.shape))
    hv = flow.hessian_components(v, grid, backend)
    want = v / dt - geometry.comps_trace_inv(total, hv) + fs * v
    jac, precond, _ = newton_operators(total, R, fs, dt, grid, backend)
    assert np.array_equal(jac(v), want)
    out = np.empty(grid.shape)
    assert jac(v, out) is out and np.array_equal(out, want)
    # the preconditioner from geometry's harmonic mean and grid's fresh-array solve
    s = geometry.comps_harmonic_mean(total)
    c = 1.0 / float(np.mean(1.0 / s))
    kappa = dt * flow.quarter_laplacian_rayleigh(R, grid, backend)
    scale = s * ((c + kappa) / (s + kappa))
    shift = c * (1.0 / dt + max(0.0, float(np.mean(fs))))
    want = flow.solve_shifted_laplacian(scale * v, grid, backend, shift)
    assert np.array_equal(precond(v), want)
    got = precond(v, out)
    assert np.array_equal(got, want)
    # the solve lands in out at n = 1 (real FFTs) and n = 2 (per-axis products)
    assert got is out


@pytest.mark.parametrize("dt", [1e-5, 1e-3, 1e-1])
@pytest.mark.parametrize("fs_kind", ["scalar", "array"])
@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_the_n1_krylov_step_is_the_preconditioner_then_the_jacobian(
    backend, fs_kind, dt, varying_form, monkeypatch
):
    grid, theta, phi = varying_form(1)
    total = geometry.kahler_form(theta, flow.hessian_components(phi, grid, backend))
    assert np.ptp(total[0]) > 0.0
    x1 = grid.coordinates()[0]
    fs = np.asarray(0.5) if fs_kind == "scalar" else 0.5 + 0.2 * np.cos(2 * np.pi * x1)
    if backend == "fd":  # 1/dt + min F_s < 0, where the V-cycle's guard fails
        fs = fs - 2.0 / dt
    cycled = vcycle_steps(monkeypatch)
    p, R = np.random.default_rng(5).standard_normal((2, *grid.shape))
    jac, precond, step = newton_operators(total, R, fs, dt, grid, backend)
    assert cycled == []  # the fused FFT step
    want_z = precond(p)
    want_v = jac(want_z)
    z, v = np.empty(grid.shape), np.empty(grid.shape)
    got_z, got_v = step(p, z, v)
    assert got_z is z and got_v is v
    assert np.array_equal(z, want_z)
    # The step writes v = a z + b p, a = 1/dt + F_s - sigma/w and b = D/w,
    # where the composition subtracts the Hessian H(z)/w.  The two agree
    # exactly up to the solve's backward error e (H(z) = sigma z - D p - e)
    # and the rounding of each side.  A transform pair or stencil over M
    # points carries e within about log2(M) u of its largest term, (sigma +
    # lambda_max) |z|, lambda_max the largest eigenvalue of -(1/4) Laplacian,
    # and every other term rounds a few times at most; 2 log2(M) u times the
    # largest term bounds both.  Measured: 0.7-1.6 u times it.
    scale, sigma, _ = flow._preconditioner_terms(
        total, geometry.comps_det(total), R, fs, dt, flow._Workspace(grid, backend)
    )
    lam = float(np.max(grid_module._quarter_laplacian_symbol(1, grid.resolution, backend)))
    w = total[0]
    terms = (1.0 / dt + np.abs(fs) + (sigma + lam) / w) * np.abs(z) + np.abs(scale * p) / w
    u = np.finfo(np.float64).eps / 2
    assert np.max(np.abs(v - want_v)) <= 2 * math.log2(z.size) * u * np.max(terms)


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_the_n2_krylov_step_is_the_preconditioner_then_the_jacobian(backend, varying_form):
    grid, theta, phi = varying_form(2)
    total = geometry.kahler_form(theta, flow.hessian_components(phi, grid, backend))
    fs = 0.5 + 0.2 * np.cos(2 * np.pi * grid.coordinates()[0])
    p, R = np.random.default_rng(5).standard_normal((2, *grid.shape))
    jac, precond, step = newton_operators(total, R, fs, 2.0**-7, grid, backend)
    want_z = precond(p)
    want_v = jac(want_z)
    z, v = np.empty(grid.shape), np.empty(grid.shape)
    got_z, got_v = step(p, z, v)
    assert got_z is z and got_v is v
    assert np.array_equal(z, want_z) and np.array_equal(v, want_v)


@pytest.mark.parametrize("n, backend", [(1, "spectral"), (1, "fd"), (2, "spectral")])
def test_every_krylov_step_but_the_n1_fft_one_takes_one_hessian(n, backend, monkeypatch):
    # n = 1 fd: every step is the V-cycle's, as F_s = 0.5 > 0 keeps its operator positive
    grid = TorusGrid(n=n, resolution=16 if n == 1 else 8)
    c = grid.coordinates()
    phi0 = 0.02 * np.cos(2 * np.pi * c[0]) * np.sin(2 * np.pi * c[1])
    phi0 = ScalarField(grid, np.broadcast_to(phi0, grid.shape))
    cfg = FlowConfig(horizon=0.003, t_min=1e-3, ratio=1.2, backend=backend)
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    calls = {"inside": 0, "outside": 0, "steps": 0}
    inside = []
    hessian, bicgstab, krylov_step = flow.hessian_components, flow._bicgstab, flow._krylov_step

    def counted_hessian(*args, **kwargs):
        calls["inside" if inside else "outside"] += 1
        return hessian(*args, **kwargs)

    def counted_bicgstab(*args, **kwargs):
        inside.append(True)
        try:
            return bicgstab(*args, **kwargs)
        finally:
            inside.pop()

    def counted_krylov_step(*args, **kwargs):
        step = krylov_step(*args, **kwargs)

        def counted(*a):
            calls["steps"] += 1
            return step(*a)

        return counted

    monkeypatch.setattr(flow, "hessian_components", counted_hessian)
    monkeypatch.setattr(flow, "_bicgstab", counted_bicgstab)
    monkeypatch.setattr(flow, "_krylov_step", counted_krylov_step)
    traj = run(phi0, path, DrivingTerm.affine(slope=0.5), omega, cfg)
    assert sum(d["newton_iters"] for d in traj.diagnostics) > 0
    assert calls["steps"] >= sum(d["linear_iters"] for d in traj.diagnostics) > 0
    assert calls["outside"] > 0  # the line search still takes its Hessians here
    # each step is one half of a BiCGSTAB iteration
    assert calls["inside"] == (0 if backend == "spectral" and n == 1 else calls["steps"])


@pytest.mark.parametrize("fs_kind", ["scalar", "array"])
@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_float32_newton_kernels_match_their_float64_reference(backend, fs_kind, varying_form):
    grid, theta, phi = varying_form(2, resolution=16)
    total = geometry.kahler_form(theta, flow.hessian_components(phi, grid, backend))
    det = geometry.comps_det(total)
    x1 = grid.coordinates()[0]
    fs = np.asarray(0.5) if fs_kind == "scalar" else 0.5 + 0.2 * np.cos(2 * np.pi * x1)
    dt = 2.0**-7
    v, R = np.random.default_rng(7).standard_normal((2, *grid.shape))
    hv = flow.hessian_components(v, grid, backend)
    want_jac = v / dt - geometry.comps_trace_inv(total, hv) + fs * v
    reference = flow._Workspace(grid, backend)
    reference.correction = flow._Correction(grid, np.float64, reference)
    want_pre = flow._preconditioner(total, det, R, fs, dt, reference)(v)
    ws = flow._Workspace(grid, backend)
    assert ws.correction.dtype == np.float32
    w, det32, R32 = ws.correction.operands(total, det, R)
    assert R32.dtype == np.float32 and np.array_equal(R32, R.astype(np.float32))
    jac = flow._jacobian(w, det32, fs, dt, ws)
    precond = flow._preconditioner(w, det32, R32, fs, dt, ws)
    v32, out = v.astype(np.float32), np.empty(grid.shape, np.float32)
    # a length-N dot product rounds by at most about N u; an apply chains at
    # most eight per-axis products (the preconditioner's round trip)
    bound = 8 * grid.resolution * np.finfo(np.float32).eps / 2
    for op, want in ((jac, want_jac), (precond, want_pre)):
        got = op(v32, out)
        assert got is out
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    # BiCGSTAB in float32 vectors: the residual it reports is the float64 operator's
    step = flow._krylov_step(w, det32, R32, fs, dt, ws)
    x, _, rel_res, converged = flow._bicgstab(step, R32, 1e-4, 200, ws.correction.krylov)
    assert converged and x.dtype == np.float32
    jac64 = flow._jacobian(total, det, fs, dt, reference)
    true_res = flow._l2(R - jac64(x.astype(np.float64))) / flow._l2(R)
    assert true_res == pytest.approx(rel_res, abs=1e-6)


def test_a_float32_correction_keeps_the_float64_newton_counts(monkeypatch):
    grid = TorusGrid(n=2, resolution=16)
    x1, y1, x2, _ = grid.coordinates()
    phi0 = np.cos(2 * np.pi * (x1 + x2)) * 0.02 + np.sin(2 * np.pi * y1) * 0.01
    phi0 = ScalarField(grid, np.broadcast_to(phi0, grid.shape))
    cfg = FlowConfig(horizon=0.02, t_min=1e-3, ratio=1.2)
    path = MetricPath.constant(grid, cfg.horizon)
    omega = VolumeForm(grid, 1.0 + 0.2 * np.cos(2 * np.pi * x2))
    F = DrivingTerm.affine(slope=0.5)
    assert grid_module.correction_dtype(grid) == np.float32
    single = run(phi0, path, F, omega, cfg)
    monkeypatch.setattr(grid_module, "SINGLE_PRECISION_RESOLUTION", 32)
    assert grid_module.correction_dtype(grid) == np.float64
    double = run(phi0, path, F, omega, cfg)

    def counts(traj):
        return [(d["newton_iters"], d["linear_iters"]) for d in traj.diagnostics]

    assert counts(single) == counts(double)
    assert max(d["newton_iters"] for d in single.diagnostics) > 1
    assert np.max(np.abs(single.final().values - double.final().values)) <= cfg.newton_tol


def test_a_lent_float32_correction_gives_the_bits_of_one_in_memory_of_its_own(monkeypatch):
    # a view overwritten while the correction still reads it would change the bits
    grid = TorusGrid(n=2, resolution=16)
    x1, y1, x2, _ = grid.coordinates()
    phi0 = np.cos(2 * np.pi * (x1 + x2)) * 0.02 + np.sin(2 * np.pi * y1) * 0.01
    phi0 = ScalarField(grid, np.broadcast_to(phi0, grid.shape))
    cfg = FlowConfig(horizon=0.02, t_min=1e-3, ratio=1.2)
    path = MetricPath.constant(grid, cfg.horizon)
    omega = VolumeForm(grid, 1.0 + 0.2 * np.cos(2 * np.pi * x2))
    F = DrivingTerm.affine(slope=0.5)
    lent = run(phi0, path, F, omega, cfg)

    def apart(ws):  # lent by a workspace of its own
        if "_apart" not in vars(ws):
            ws._apart = flow._Correction(grid, np.float32, flow._Workspace(grid, ws.backend))
        return ws._apart

    monkeypatch.setattr(flow._Workspace, "correction", property(apart))
    own = run(phi0, path, F, omega, cfg)
    assert max(d["newton_iters"] for d in lent.diagnostics) > 1
    assert lent.diagnostics == own.diagnostics
    for a, b in zip(lent.fields + lent.phidots, own.fields + own.phidots, strict=True):
        assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_w_times_the_n1_newton_operator_is_symmetric(backend, varying_form):
    # w J = w (1/dt + F_s) - Laplacian/4 at n = 1, a symmetric matrix for both backends
    grid, theta, phi = varying_form(1)
    total = geometry.kahler_form(theta, flow.hessian_components(phi, grid, backend))
    assert np.ptp(total[0]) > 0.0
    fs = 0.5 + 0.2 * np.cos(2 * np.pi * grid.coordinates()[0])
    ws = flow._Workspace(grid, backend)
    jac = flow._jacobian(total, geometry.comps_det(total), fs, 0.01, ws)
    columns = [jac(e.reshape(grid.shape)).ravel() for e in np.eye(phi.size)]
    wJ = total[0].reshape(-1, 1) * np.stack(columns, axis=1)
    assert np.max(np.abs(wJ - wJ.T)) <= 1e-13 * np.max(np.abs(wJ))


def degenerate_problem(resolution=32, **cfg_kw):
    """Scenario 07's paraboloid corner (curvature 0.999) on an fd grid, to t = 0.003 unless given."""
    grid = TorusGrid(n=1, resolution=resolution)
    phi0 = RoughPotential.paraboloid(curvature=0.999).sample(grid)
    cfg = FlowConfig(**{"horizon": 0.003, "t_min": 1e-3, "ratio": 1.2, "backend": "fd", **cfg_kw})
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


def test_the_corner_takes_its_first_step_at_256_squared():
    # Newton meets its absolute newton_tol 1e-10 (residual 8.4e-11 after 10
    # iterations) only while the fd Hessian rounds at the scale of the
    # second differences; a stencil summing four neighbours first stalled
    # here at 1.98e-10
    phi0, path, omega, cfg = degenerate_problem(256, horizon=1e-3)
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert [d["residual"] <= cfg.newton_tol for d in traj.diagnostics] == [True]


def cycle_contraction(phi0, dt) -> float:
    """The slowest contraction of the residual per V-cycle on the corner's first Newton system.

    The system is A x = b with A = w/dt - H, w = 1 + H(phi0) and b random,
    H the fd Hessian; ten steps of the stationary iteration x += V(b - A x)
    from x = 0, whose ratios of successive residual norms rise towards the
    cycle's rate.
    """
    grid = phi0.grid
    c = (1.0 + flow.hessian_components(phi0.values, grid, "fd")[0]) / dt
    cycle = grid_module.ShiftedVCycle(grid.resolution)
    cycle.prepare(c)
    b = np.random.default_rng(0).standard_normal(grid.shape)
    x, r, e = np.zeros(grid.shape), np.empty(grid.shape), np.empty(grid.shape)
    norms = []
    for _ in range(10):
        np.subtract(b, c * x - flow.hessian_components(x, grid, "fd")[0], out=r)
        norms.append(flow._l2(r))
        x += cycle(r, e)
    return max(later / earlier for earlier, later in zip(norms, norms[1:]))


def test_vcycle_solves_take_as_few_iterations_at_every_size(monkeypatch):
    # the FFT path took 2.6, 4.1, 6.1 and 8.1 linear iterations per Newton
    # iteration here
    steps = vcycle_steps(monkeypatch)
    for N in (16, 32, 64, 128):
        phi0, path, omega, cfg = degenerate_problem(N, horizon=0.02)
        # The stationary iteration contracts the residual by rho per cycle,
        # so it reaches linear_rel_tol after log(tol) / log(rho) cycles.
        # BiCGSTAB, which accelerates it, applies the cycle twice per
        # iteration: half as many iterations.  rho does not grow with N.
        rho = cycle_contraction(phi0, cfg.t_min)
        bound = math.log(cfg.linear_rel_tol) / (2.0 * math.log(rho))
        steps.clear()
        traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
        newton = sum(d["newton_iters"] for d in traj.diagnostics)
        linear = sum(d["linear_iters"] for d in traj.diagnostics)
        assert len(steps) == newton  # every solve took the cycle
        assert linear / newton <= bound


@pytest.mark.parametrize("dt", [1e-3, 0.02, 0.2])
def test_the_float32_vcycle_keeps_the_recorded_contraction(dt):
    # the multigrid comment in grid records 0.171 per cycle on the corner at
    # 64^2 for each of these dt, measured when the cycle ran in float64
    phi0 = degenerate_problem(64)[0]
    assert abs(cycle_contraction(phi0, dt) - 0.171) <= 1e-3


def test_bicgstab_reports_a_solve_it_cut_short():
    phi0, path, omega, cfg = degenerate_problem()
    grid = phi0.grid
    dt = cfg.t_min
    comps = flow.hessian_components(phi0.values, grid, "fd")
    total = tuple(th + hc for th, hc in zip(path.theta(dt), comps))
    R = -np.log(total[0])  # the first Newton residual: u = phi0, F = 0, Omega = 1
    jac, _, step = newton_operators(total, R, np.asarray(0.0), dt, grid, "fd")
    b = R.copy()

    def solve(max_iter):
        x, iters, rel_res, converged = flow._bicgstab(step, R, cfg.linear_rel_tol, max_iter, krylov(R))
        # the recurrence residual it reports is the returned iterate's
        assert flow._l2(R - jac(x)) / flow._l2(R) == pytest.approx(rel_res, abs=1e-10)
        return iters, rel_res, converged

    iters, rel_res, converged = solve(1)
    assert (iters, converged) == (1, False)
    assert rel_res > cfg.linear_rel_tol
    _, rel_res, converged = solve(cfg.max_linear)
    assert converged and rel_res <= cfg.linear_rel_tol
    assert np.array_equal(R, b)  # the right-hand side is only read


# Scenario 07's corner at its 128^2 fd size, three steps, whose Newton
# corrections take the V-cycle; prints the per-step Newton and linear counts
# and a digest of every stored field's bits.
DEGENERATE_RUN = """
import hashlib, json
from maflow import DrivingTerm, FlowConfig, MetricPath, RoughPotential, TorusGrid, VolumeForm, run
grid = TorusGrid(n=1, resolution=128)
phi0 = RoughPotential.paraboloid(curvature=0.999).sample(grid)
cfg = FlowConfig(horizon=0.00144, t_min=1e-3, ratio=1.2, backend="fd")
path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
bits = hashlib.sha256(b"".join(f.values.tobytes() for f in traj.fields)).hexdigest()
counts = [[d["newton_iters"], d["linear_iters"]] for d in traj.diagnostics]
print(json.dumps({"points": grid.resolution**2, "counts": counts, "bits": bits}))
"""


# Two steps at 16^4, n = 2, whose Newton correction is solved in float32;
# prints what DEGENERATE_RUN prints.
FLOAT32_N2_RUN = """
import hashlib, json
from maflow import DrivingTerm, FlowConfig, MetricPath, RoughPotential, TorusGrid, VolumeForm, run
from maflow.grid import correction_dtype
grid = TorusGrid(n=2, resolution=16)
assert correction_dtype(grid).__name__ == "float32"
phi0 = RoughPotential.fourier_sum([[0.01, [1, 0, 0, 0], 0.0], [0.005, [0, 1, 1, 0], 0.7]], n=2)
cfg = FlowConfig(horizon=0.0012, t_min=1e-3, ratio=1.2)
path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
traj = run(phi0.sample(grid), path, DrivingTerm.affine(0.0, 0.5), omega, cfg)
bits = hashlib.sha256(b"".join(f.values.tobytes() for f in traj.fields)).hexdigest()
counts = [[d["newton_iters"], d["linear_iters"]] for d in traj.diagnostics]
print(json.dumps({"points": grid.resolution**4, "counts": counts, "bits": bits}))
"""


def test_n1_and_n2_runs_have_the_same_bits_under_one_and_two_blas_threads():
    # a threaded BLAS dot product sums in an order set by its thread count
    src = str(Path(flow.__file__).resolve().parents[1])
    for script, linear_floor in ((DEGENERATE_RUN, 20), (FLOAT32_N2_RUN, 4)):
        outcomes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=600, check=True,
            )
            outcomes.append(json.loads(proc.stdout.splitlines()[-1]))
        one, two = outcomes
        assert one["points"] >= 16384 and sum(c[1] for c in one["counts"]) > linear_floor
        assert one == two


def test_newton_stall_names_the_unconverged_linear_solve():
    phi0, path, omega, cfg = degenerate_problem(max_linear=1, max_newton=3)
    with pytest.raises(NewtonDivergedError) as info:
        run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert info.value.linear_converged is False
    assert "linear solve did not converge" in str(info.value)


def test_newton_stall_names_the_worst_residual_point(monkeypatch):
    grid, path, omega, cfg = make_problem(resolution=16, max_newton=1)
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.05 * np.cos(2 * np.pi * x) * np.ones_like(y))
    # a zero correction leaves R = -log(1 - 0.05 pi^2 cos(2 pi x)) - 3 < 0,
    # largest in size at x = 1/2 and largest signed at x = 0
    zero = np.zeros(grid.shape)
    monkeypatch.setattr(flow, "_bicgstab", lambda *a, **k: (zero, 1, 0.0, True))
    with pytest.raises(NewtonDivergedError) as info:
        run(phi0, path, DrivingTerm.affine(constant=-3.0), omega, cfg)
    assert info.value.location[0] == grid.resolution // 2
    assert info.value.residual == pytest.approx(3.0 + math.log(1.0 + 0.05 * np.pi**2), rel=1e-12)
    assert info.value.iterations == 1
    assert f"at {info.value.location}" in str(info.value)


def test_newton_survives_unconverged_linear_solves():
    phi0, path, omega, cfg = degenerate_problem(max_linear=2)
    traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
    assert any(not d["linear_converged"] for d in traj.diagnostics)
    assert all(d["residual"] <= cfg.newton_tol for d in traj.diagnostics)


def test_unconverged_solves_return_their_best_iterate():
    # The corner smoothed at width 0.08 on a spectral grid, whose solves the
    # FFT step preconditions (on fd the V-cycle converges first): the last
    # iterate of a 2-iteration solve reached relative residual 9.14.
    phi0, path, omega, cfg = degenerate_problem(backend="spectral", max_linear=2)
    grid = phi0.grid
    phi0 = ScalarField(grid, grid_module.gaussian_smooth(phi0.values, grid, 0.08))
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


@pytest.mark.parametrize("family", ["single", "cascade", "nef"])
def test_lying_declared_bounds_abort_the_run(family):
    grid, path, omega, cfg = make_problem(resolution=64, horizon=0.01, t_min=1e-3, ratio=1.4)
    phi0 = ScalarField(grid, np.zeros(grid.shape))
    liar = DrivingTerm(
        name="liar",
        fn=lambda t, coords, s: -3.0 * s,
        ds=lambda t, coords, s: -3.0,
        defect=0.0,  # claims monotone; actual dF/ds = -3
        time_bound=0.0,
        smooth=True,
    )
    with pytest.raises(ConfigError, match="'liar' violates its declared defect"):
        if family == "single":
            run(phi0, path, liar, omega, cfg)
        elif family == "cascade":
            schedule = RegularizationSchedule.geometric(delta0=0.25, ratio=0.5, levels=3)
            run_cascade(RoughPotential.max_kink(), schedule, path, liar, omega, cfg)
        else:
            run_nef(np.array([[1.0]]), (0.2, 0.1), phi0, liar, omega, cfg)


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

    def fake(phi0, path, F, omega_form, cfg, store=None):
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


POLE_WIDTHS = RegularizationSchedule.geometric(delta0=0.25, ratio=0.5, levels=4)


def pole_cascade(datum):
    """datum's cascade over POLE_WIDTHS on 64^2 fd, F = 0, to t = 0.1 with a probe at 0.01."""
    grid = TorusGrid(n=1, resolution=64)
    cfg = FlowConfig(horizon=0.1, t_min=1e-3, ratio=1.3, backend="fd", probes=(0.01,))
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    return run_cascade(datum, POLE_WIDTHS, path, DrivingTerm.zero(), omega, cfg), path, omega


def infimum_drops_per_width(cascade, t: float) -> np.ndarray:
    """How far the levels' infimum at time t falls from each width to the next, over the width."""
    infima = [float(traj.field_at(t).values.min()) for traj in cascade.trajectories]
    return -np.diff(infima) / np.asarray(POLE_WIDTHS.deltas[:-1])


def test_a_zero_lelong_poles_infima_converge_like_the_widths_and_a_log_poles_do_not():
    # The source paper's theorem: from data with zero Lelong numbers the flow
    # is smooth at every t > 0.  Were the level at width delta that smooth
    # limit (Lipschitz, constant L) mollified at width delta, it would lie
    # within L delta of it, and the ladder's drift n delta^2 adds at most
    # delta; so the infimum falls by at most (L + 1)(delta + delta/2) from one
    # width to the next.  The drop over the width is then bounded, and the
    # infima converge geometrically, like the widths: the test asks that the
    # drop over the width does not grow.  With Lelong number gamma > 0 a
    # halving of the width drops the datum's infimum by gamma log 2 however
    # small the width; at t = 0.01 the flow has not yet smoothed that pole
    # away, and the drop over the width grows.
    smooth, path, omega = pole_cascade(RoughPotential.sqrt_log_pole(amplitude=0.1))
    for t in (0.01, 0.1):
        drops = infimum_drops_per_width(smooth, t)
        assert np.all(drops > 0.0) and np.all(np.diff(drops) <= 0.0), (t, drops)
    control, _, _ = pole_cascade(RoughPotential.log_pole(gamma=0.1, cap=-40.0))
    drops = infimum_drops_per_width(control, 0.01)
    assert np.all(np.diff(drops) > 0.0), drops

    audit = TrajectoryAudit(smooth.trajectories[-1], path, DrivingTerm.zero(), omega)
    reports = check_apriori_bounds(audit) + [check_residual_certificate(audit)]
    assert [r.name for r in reports] == ["apriori-upper", "apriori-lower", "residual-certificate"]
    assert all(r.passed for r in reports), [(r.name, r.margin) for r in reports]


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
        return np.asarray(form)

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
