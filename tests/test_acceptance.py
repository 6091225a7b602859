"""Acceptance gate: one test per quantitative anchor, tolerances pinned.

Every criterion either reuses a bundled scenario (run once per session via
the conftest cache) or builds its own small problem.  Each test finishes by
printing a single "criterion NN PASS" line with the measured numbers; run
pytest with -s to see them.
"""

import json
import math

import numpy as np
import pytest

from maflow import (
    DrivingTerm,
    FlowConfig,
    HorizonTooLongError,
    MetricPath,
    RegularizationSchedule,
    RoughPotential,
    ScalarField,
    TorusGrid,
    VolumeForm,
    check_comparison,
    check_convergence_modes,
    check_time_derivative,
    comparison_tolerance,
    monotone_reduction,
    oscillation,
    run,
    run_cascade,
    trajectory_series,
)
from maflow import cli
from maflow.flow import instantaneous_residuals, schedule_times, trajectory_from_family
from maflow.geometry import trace_inequality_slacks
from maflow.verify import random_pd_pairs


def flat_problem(resolution, horizon, **cfg_kw):
    grid = TorusGrid(n=1, resolution=resolution)
    path = MetricPath.constant(grid, horizon)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=horizon, **cfg_kw)
    return grid, path, omega, cfg


def random_admissible(grid, rng, n_modes=3, amp=0.0015):
    x, y = grid.coordinates()
    vals = np.zeros(grid.shape)
    waves = [(1, 0), (0, 1), (1, 1)]
    for kx, ky in waves[:n_modes]:
        a = rng.uniform(-amp, amp)
        p = rng.uniform(0.0, 2 * np.pi)
        vals = vals + a * np.cos(2 * np.pi * (kx * x + ky * y) + p)
    return vals


def test_criterion_01_nonuniqueness_witness(scenario):
    outcome = scenario("01-counterexample")
    ctx = outcome.ctx
    F = ctx.F
    times = schedule_times(ctx.cfg)

    def family(value_fn, phidot_fn):
        return trajectory_from_family(
            ctx.grid,
            times,
            lambda t: ScalarField(ctx.grid, np.full(ctx.grid.shape, value_fn(t))),
            phidot_fn=lambda t: ScalarField(
                ctx.grid, np.full(ctx.grid.shape, phidot_fn(t))
            ),
        )

    stationary = family(lambda t: 0.0, lambda t: 0.0)
    quadratic = family(lambda t: t * t, lambda t: 2.0 * t)
    res0 = instantaneous_residuals(stationary, ctx.path, F, ctx.omega)
    res1 = instantaneous_residuals(quadratic, ctx.path, F, ctx.omega)
    assert res0["max_residual"] <= 1e-12
    assert res1["max_residual"] <= 1e-12

    refusal = outcome.report("uniqueness")
    assert not refusal.passed
    assert refusal.margin == -math.inf
    assert refusal.details["certified"] is False
    assert refusal.details["notice"] == "NO-UNIQUENESS-CERTIFICATE"
    print(
        f"criterion 01 PASS: residuals {res0['max_residual']:.2e} / "
        f"{res1['max_residual']:.2e} <= 1e-12, certifier refused "
        f"({'; '.join(refusal.details['refusal'])})"
    )


def test_criterion_02_constant_data_ode(scenario):
    outcome = scenario("02-constant-ode")
    traj = outcome.ctx.traj
    c = -1.0
    rel = max(
        abs(float(f.values.max()) - c * math.exp(-t)) / abs(c * math.exp(-t))
        for t, f in zip(traj.times, traj.fields)
    )
    assert rel <= 1e-3

    errs = []
    dts = [4e-3, 2e-3, 1e-3]
    for dt in dts:
        grid, path, omega, cfg = flat_problem(
            8, 0.5, t_min=dt, ratio=2.0, dt_max=dt
        )
        phi0 = ScalarField(grid, np.full(grid.shape, c))
        t2 = run(phi0, path, DrivingTerm.affine(0.0, 1.0), omega, cfg)
        errs.append(abs(float(t2.final().values.max()) - c * math.exp(-0.5)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.8 <= o <= 1.2 for o in orders)
    print(
        f"criterion 02 PASS: rel sup err {rel:.3e} <= 1e-3 at dt_max=1e-4, "
        f"refinement orders {orders[0]:.3f}, {orders[1]:.3f} in [0.8, 1.2]"
    )


def test_criterion_03_linearized_mode_decay(scenario):
    from scipy.integrate import solve_ivp

    outcome = scenario("03-mode-decay")
    traj = outcome.ctx.traj
    a0 = 0.5 * oscillation(traj.fields[0])
    a1 = 0.5 * oscillation(traj.field_at(0.1))
    rate = -math.log(a1 / a0) / 0.1
    assert abs(rate - math.pi**2) <= 0.01 * math.pi**2

    m = 256
    xs = np.arange(m) / m
    wave = 2.0 * np.pi * np.fft.fftfreq(m, d=1.0 / m)
    u0 = 1e-3 * np.cos(2 * np.pi * xs)

    def rhs(t, u):
        uxx = np.real(np.fft.ifft(-(wave**2) * np.fft.fft(u)))
        with np.errstate(invalid="ignore"):  # rejected trial steps may overshoot
            return np.log1p(0.25 * uxx)

    sol = solve_ivp(
        rhs, (0.0, 0.1), u0, method="RK45", rtol=1e-10, atol=1e-13, t_eval=[0.1]
    )
    ref = sol.y[:, -1]
    amp_oracle = 0.5 * (float(ref.max()) - float(ref.min()))
    assert abs(a1 - amp_oracle) <= 0.01 * amp_oracle
    print(
        f"criterion 03 PASS: decay rate {rate:.5f} vs pi^2 = {math.pi**2:.5f} "
        f"({abs(rate - math.pi**2) / math.pi**2:.2%}), amplitude vs explicit "
        f"fine-grid oracle {abs(a1 - amp_oracle) / amp_oracle:.2%}"
    )


def test_criterion_04_comparison_under_ordered_data(scenario):
    grid, path, omega, cfg = flat_problem(
        16, 0.05, t_min=1e-3, ratio=1.3, backend="fd"
    )
    F = DrivingTerm.zero()
    worst = math.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        upper_vals = random_admissible(grid, rng)
        gap = rng.uniform(0.005, 0.01) + random_admissible(grid, rng, 1, 0.001)
        assert float(gap.min()) > 0.0
        upper = run(ScalarField(grid, upper_vals), path, F, omega, cfg)
        lower = run(ScalarField(grid, upper_vals - gap), path, F, omega, cfg)
        rep = check_comparison(lower, upper, lam=0.0)
        assert rep.passed, f"seed {seed}: ordering lost by {-rep.margin:.3e}"
        worst = min(worst, rep.margin)

    injected = scenario("04-comparison-pair").report("comparison")
    assert injected.passed
    assert injected.constants["lambda"] == pytest.approx(0.3)
    print(
        f"criterion 04 PASS: 20 seeded ordered pairs stay ordered within "
        f"1e-9*Osc (worst margin {worst:.3e}); injected-defect pair meets the "
        f"e^(lambda T) bound with margin {injected.margin:.3e}"
    )


def test_criterion_05_sup_norm_contraction(scenario):
    grid, path, omega, cfg = flat_problem(16, 0.1, t_min=1e-3, ratio=1.3)
    F = DrivingTerm.affine(0.0, 0.7)
    worst = math.inf
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        va = random_admissible(grid, rng) + rng.uniform(-0.05, 0.05)
        vb = random_admissible(grid, rng) + rng.uniform(-0.05, 0.05)
        phi0, psi0 = ScalarField(grid, va), ScalarField(grid, vb)
        d0 = float(np.abs(va - vb).max())
        budget = d0 + 1e-9 * max(oscillation(phi0), oscillation(psi0))
        ta = run(phi0, path, F, omega, cfg)
        tb = run(psi0, path, F, omega, cfg)
        for k in range(len(ta.times)):
            dk = float(np.abs(ta.fields[k].values - tb.fields[k].values).max())
            worst = min(worst, budget - dk)
            assert dk <= budget, f"seed {seed}: expansion at t={ta.times[k]}"

    bundled = scenario("05-contraction-pair").report("stability")
    assert bundled.passed
    print(
        f"criterion 05 PASS: 10 seeded pairs contract in sup norm "
        f"(worst slack {worst:.3e}); bundled homotopy audit margin "
        f"{bundled.margin:.3e}"
    )


def test_criterion_06_kink_smoothing_across_resolutions():
    sup_traces = {}
    laplacians = {}
    kink = RoughPotential.max_kink()
    for N in (128, 256, 512):
        grid, path, omega, cfg = flat_problem(
            N, 0.01, t_min=2e-4, ratio=1.4, backend="fd", probes=(0.01,)
        )
        phi0 = kink.sample(grid)
        from maflow.grid import hessian_components

        h = hessian_components(phi0.values, grid, "fd")
        laplacians[N] = float(np.max(4.0 * np.real(h[0])))
        traj = run(phi0, path, DrivingTerm.zero(), omega, cfg)
        rows = trajectory_series(traj, "sup-trace", path=path)
        sup_traces[N] = dict((round(t, 12), v) for t, v in rows)[0.01]
    vals = [sup_traces[N] for N in (128, 256, 512)]
    spread = (max(vals) - min(vals)) / (sum(vals) / 3.0)
    assert spread < 0.20
    r1 = laplacians[256] / laplacians[128]
    r2 = laplacians[512] / laplacians[256]
    assert r1 >= 1.9 and r2 >= 1.9
    print(
        f"criterion 06 PASS: sup trace at t=0.01 spreads {spread:.2%} < 20% "
        f"across N=128/256/512 while the initial discrete Laplacian grows "
        f"x{r1:.2f}, x{r2:.2f} per doubling"
    )


def test_criterion_07_derivative_asymptotics(scenario):
    outcome = scenario("07-derivative-asymptotics")
    lower = outcome.report("derivative-lower")
    upper = outcome.report("derivative-upper")
    assert lower.passed
    assert lower.details["clause"] == "slope"
    assert 0.9 <= lower.constants["slope"] <= 1.3  # n = 1
    assert upper.passed and math.isfinite(upper.constants["C_up"])

    doc = dict(outcome.ctx.doc)
    doc["flow"] = {**doc["flow"], "ratio": 1.095}
    ctx2 = cli.scenario(doc, forced_mode="single")
    cli.integrate_scenario(ctx2)
    upper2 = check_time_derivative(ctx2.traj, eps=0.0125)[0]
    drift = abs(upper2.constants["C_up"] - upper.constants["C_up"]) / abs(
        upper.constants["C_up"]
    )
    assert drift < 0.10
    print(
        f"criterion 07 PASS: min phidot log-slope {lower.constants['slope']:.3f} "
        f"in [0.9, 1.3] over [1e-3, 1e-1]; C_up = {upper.constants['C_up']:.4f} "
        f"drifts {drift:.2%} < 10% under schedule refinement"
    )


def test_criterion_08_explicit_upper_bound_everywhere(scenario):
    from maflow.scenarios import available

    audited = []
    skipped = []
    for stem in available():
        outcome = scenario(stem)
        if outcome.ctx.traj is None:
            skipped.append(stem)
            continue
        upper = cli.execute_checks(["apriori-bounds"], outcome.ctx)[0]
        assert upper.name == "apriori-upper"
        assert upper.passed, f"{stem}: explicit upper bound broken by {-upper.margin:.3e}"
        if upper.details.get("applicable"):
            assert upper.margin >= 0.0
        audited.append((stem, upper.margin, bool(upper.details.get("applicable"))))
    assert len(audited) >= 11
    explicit = sum(1 for _, _, app in audited if app)
    print(
        f"criterion 08 PASS: explicit linear upper bound holds with margin >= 0 "
        f"on {explicit} applicable scenarios ({len(audited)} trajectories audited; "
        f"audit-only scenarios skipped: {', '.join(skipped)})"
    )


def test_criterion_09_energy_drift_vanishes(scenario):
    c3 = scenario("03-mode-decay").report("energy-monotone")
    c9 = scenario("09-energy-monotone").report("energy-monotone")
    for rep, label in ((c3, "F = 0"), (c9, "F = s")):
        assert rep.passed
        assert rep.constants["C_E"] <= 1e-8, f"{label}: C_E = {rep.constants['C_E']}"
    print(
        f"criterion 09 PASS: fitted energy drift C_E = {c3.constants['C_E']:.1e} "
        f"(F = 0) and {c9.constants['C_E']:.1e} (F = s), both <= 1e-8"
    )


def test_criterion_10_two_schedule_uniqueness(scenario):
    outcome = scenario("10-cascade-uniqueness")
    rep = outcome.report("uniqueness")
    assert rep.details["certified"] is True
    assert rep.passed
    grid = outcome.ctx.grid
    osc = oscillation(outcome.ctx.initial.sample(grid))
    probe = rep.details["probes"]["0.05"]
    assert probe["difference"] <= 5e-3 * osc
    print(
        f"criterion 10 PASS: two mollification schedules agree at t=0.05 to "
        f"{probe['difference']:.3e} <= 5e-3*Osc = {5e-3 * osc:.3e} "
        f"(certificate rate {rep.constants['rate']:.1f})"
    )


def test_criterion_11_convergence_modes(scenario):
    outcome = scenario("11-convergence-modes")
    l1 = outcome.report("convergence-l1")
    sup = outcome.report("convergence-sup")
    ladder = [0.1 * 2.0**-m for m in range(8)]
    assert l1.details["times"] == pytest.approx(ladder)
    assert l1.passed and sup.passed
    base_osc = oscillation(outcome.ctx.cascade.ladder.base)
    assert l1.constants["final"] <= 1e-2 * base_osc

    # smooth tag: the sup-mode ladder applies and decreases
    grid, path, omega, cfg = flat_problem(
        128, 0.1, t_min=2e-4, ratio=1.3, probes=tuple(ladder)
    )
    smooth = RoughPotential.fourier_sum([(0.03, (1, 0), 0.0)])
    casc_s = run_cascade(
        smooth,
        RegularizationSchedule.geometric(0.25, 0.5, 5),
        path,
        DrivingTerm.zero(),
        omega,
        cfg,
    )
    reps_s = {r.name: r for r in check_convergence_modes(casc_s, smooth, path, omega)}
    assert reps_s["convergence-sup"].passed
    assert reps_s["convergence-l1"].passed

    # bounded tag: capacity of the deviation set decreases along the ladder
    gridb, pathb, omegab, cfgb = flat_problem(
        64, 0.1, t_min=1e-3, ratio=1.3, backend="fd", probes=tuple(ladder)
    )
    pole = RoughPotential.log_pole(gamma=0.15, center=(0.5, 0.5), cap=-0.5, n=1)
    casc_b = run_cascade(
        pole,
        RegularizationSchedule.geometric(0.25, 0.5, 4),
        pathb,
        DrivingTerm.zero(),
        omegab,
        cfgb,
    )
    reps_b = {r.name: r for r in check_convergence_modes(casc_b, pole, pathb, omegab)}
    assert reps_b["convergence-capacity"].passed
    assert reps_b["convergence-capacity-ladder"].passed

    # energy mode matches the single-mode closed form
    traj3 = scenario("03-mode-decay").ctx.traj
    path3 = scenario("03-mode-decay").ctx.path
    omega3 = scenario("03-mode-decay").ctx.omega
    series = dict(trajectory_series(traj3, "energy", path=path3, omega_form=omega3))
    a = 1e-3
    assert series[0.0] == pytest.approx(-(a * a * math.pi**2 / 4.0), rel=1e-3)
    worst_rel = 0.0
    for t in (0.05, 0.1):
        # single mode to first order in a^2: the quadratic term decays like
        # e^{-2 pi^2 t} while the mean drifts down by the same order, and the
        # two combine into -(a^2 pi^2 / 8)(1 + e^{-2 pi^2 t})
        closed = -(a * a * math.pi**2 / 8.0) * (1.0 + math.exp(-2.0 * math.pi**2 * t))
        num = series[t]
        worst_rel = max(worst_rel, abs(num - closed) / abs(closed))
    assert worst_rel <= 0.05
    print(
        f"criterion 11 PASS: L1 ladder decreasing with final "
        f"{l1.constants['final']:.3e} <= 1e-2*Osc; sup mode passes for the "
        f"lipschitz and smooth tags; capacity modes pass for the bounded tag; "
        f"energy matches the closed form to {worst_rel:.2%} <= 5%"
    )


def test_criterion_12_nef_family_oracle(scenario):
    from scipy.integrate import quad

    outcome = scenario("12-nef-start")
    family = outcome.ctx.family
    worst = 0.0
    for e, traj in zip(family.eps, family.trajectories):
        for t in (0.005, 0.01):
            oracle, est = quad(
                lambda s: math.log((1.0 + e + s) * (e + s)), 0.0, t, epsabs=1e-13
            )
            got = float(traj.field_at(t).values.max())
            flat = float(np.ptp(traj.field_at(t).values))
            assert flat <= 1e-9  # constant data stay constant
            worst = max(worst, abs(got - oracle))
    assert worst <= 1e-6

    scale = max(
        float(np.abs(traj.final().values).max()) for traj in family.trajectories
    )
    assert family.monotone_violation <= 1e-7 * scale
    assert family.witness is not None
    assert family.witness_margin <= family.monotone_tol
    print(
        f"criterion 12 PASS: diag(1,0) members match the ODE quadrature oracle "
        f"to {worst:.2e} <= 1e-6; eps-monotonicity violation "
        f"{family.monotone_violation:.2e} <= 1e-7*sup|phi| = {1e-7 * scale:.2e}; "
        f"unshifted witness flow present"
    )


def test_criterion_13_trace_inequality_sweep(scenario):
    bundled = scenario("13-trace-inequality").report("trace-inequality")
    assert bundled.passed
    wp, w = random_pd_pairs(2, 1000, 1234)
    lower, upper = trace_inequality_slacks(wp, w)
    worst = min(float(lower.min()), float(upper.min()))
    assert worst >= -1e-10
    print(
        f"criterion 13 PASS: 1000 seeded PD pairs keep both trace inequalities "
        f"with worst slack {worst:.3e} >= -1e-10"
    )


def test_criterion_14_transform_round_trips(scenario):
    outcome = scenario("14-transform-roundtrip")
    red = outcome.report("transform-reduction")
    res = outcome.report("transform-rescale")
    budget = 10.0 * outcome.ctx.cfg.newton_tol
    for rep in (red, res):
        assert rep.passed
        assert rep.constants["max_residual"] <= budget

    grid = TorusGrid(n=1, resolution=8)
    path = MetricPath.constant(grid, 1.0)
    ceiling = 1.0 / math.e  # 1/(eT) at T = 1
    ok = monotone_reduction(DrivingTerm.affine(0.0, -ceiling * (1.0 - 1e-9)), path)
    assert ok.certificate["boundary_slack"] >= 0.0
    with pytest.raises(HorizonTooLongError):
        monotone_reduction(DrivingTerm.affine(0.0, -ceiling * (1.0 + 1e-9)), path)
    print(
        f"criterion 14 PASS: pulled-back residuals {red.constants['max_residual']:.2e} "
        f"(reduction) and {res.constants['max_residual']:.2e} (rescale) <= 10x "
        f"Newton tol; admissibility boundary enforced exactly at C = 1/(eT)"
    )
