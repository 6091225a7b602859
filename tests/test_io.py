"""Snapshot archives: bit-exact round trips and manifest hygiene."""

import json

import numpy as np
import pytest

from maflow import (
    ConfigError,
    DrivingTerm,
    FlowConfig,
    MetricPath,
    RegularizationSchedule,
    RoughPotential,
    ScalarField,
    TorusGrid,
    VolumeForm,
    run,
    run_cascade,
)
from maflow.io import (
    config_hash,
    load_cascade,
    load_field,
    load_trajectory,
    save_cascade,
    save_field,
    save_trajectory,
)


def small_run(probes=(0.02,)):
    grid = TorusGrid(n=1, resolution=16)
    path = MetricPath.constant(grid, 0.05)
    omega = VolumeForm.constant(grid)
    # non-default solver settings, so an archive must carry every field
    cfg = FlowConfig(
        horizon=0.05,
        t_min=1e-3,
        ratio=1.3,
        probes=probes,
        linear_rel_tol=5e-3,
        max_linear=7,
        min_damping=2.0**-12,
    )
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.02 * np.cos(2 * np.pi * x) * np.ones_like(y))
    traj = run(phi0, path, DrivingTerm.affine(0.0, 0.5), omega, cfg)
    return grid, traj


def test_field_round_trip_is_bit_exact(tmp_path):
    grid = TorusGrid(n=1, resolution=16)
    rng = np.random.default_rng(3)
    fld = ScalarField(grid, rng.standard_normal(grid.shape))
    save_field(tmp_path, "snap", fld, 0.125)
    back, sidecar = load_field(tmp_path / "snap.json")
    assert back.values.tobytes() == fld.values.tobytes()
    assert set(sidecar) == {"n", "resolution", "time", "name"}
    assert sidecar["time"] == 0.125
    assert sidecar["name"] == "snap"


def test_field_round_trip_four_axes(tmp_path):
    grid = TorusGrid(n=2, resolution=8)
    rng = np.random.default_rng(4)
    fld = ScalarField(grid, rng.standard_normal(grid.shape))
    save_field(tmp_path, "snap", fld, 0.0)
    back, _ = load_field(tmp_path / "snap.bin")
    assert back.values.shape == (8, 8, 8, 8)
    assert back.values.tobytes() == fld.values.tobytes()


def test_field_loader_validates_byte_count_and_sidecar(tmp_path):
    grid = TorusGrid(n=1, resolution=8)
    fld = ScalarField(grid, np.zeros(grid.shape))
    bin_path, json_path = save_field(tmp_path, "snap", fld, 0.0)
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="bytes"):
        load_field(json_path)
    json_path.unlink()
    with pytest.raises(ConfigError, match="sidecar"):
        load_field(bin_path)


def test_config_hash_ignores_key_order():
    a = {"grid": {"n": 1, "resolution": 32}, "seed": 7}
    b = {"seed": 7, "grid": {"resolution": 32, "n": 1}}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "seed": 8})


def test_trajectory_round_trip(tmp_path):
    _, traj = small_run()
    doc = {"name": "demo", "flow": {"horizon": 0.05}}
    save_trajectory(tmp_path, traj, run_config=doc)

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format"] == "trajectory-archive-v1"
    assert manifest["config_hash"] == config_hash(doc)
    assert manifest["run_config"] == doc

    back = load_trajectory(tmp_path)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.schedule, traj.schedule)
    np.testing.assert_array_equal(back.stored_indices, traj.stored_indices)
    assert back.config == traj.config
    assert back.notices == traj.notices
    for f0, f1 in zip(traj.fields, back.fields):
        assert f0.values.tobytes() == f1.values.tobytes()
    for p0, p1 in zip(traj.phidots, back.phidots):
        assert (p0 is None) == (p1 is None)
        if p0 is not None:
            assert p0.values.tobytes() == p1.values.tobytes()


def test_trajectory_loader_rejects_foreign_manifests(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "other-v2"}))
    with pytest.raises(ConfigError, match="format"):
        load_trajectory(tmp_path)
    with pytest.raises(ConfigError, match="manifest"):
        load_trajectory(tmp_path / "nowhere")


def test_cascade_round_trip(tmp_path):
    grid = TorusGrid(n=1, resolution=64)
    path = MetricPath.constant(grid, 0.01)
    omega = VolumeForm.constant(grid)
    cfg = FlowConfig(horizon=0.01, t_min=1e-3, ratio=1.4, backend="fd")
    casc = run_cascade(
        RoughPotential.max_kink(),
        RegularizationSchedule.geometric(0.25, 0.5, 3),
        path,
        DrivingTerm.zero(),
        omega,
        cfg,
    )
    save_cascade(tmp_path, casc)
    back = load_cascade(tmp_path)
    assert back.ladder.deltas == casc.ladder.deltas
    assert back.ladder.shifts == casc.ladder.shifts
    assert back.monotone_violation == casc.monotone_violation
    assert back.monotone_tol == casc.monotone_tol
    assert back.limit_gaps == casc.limit_gaps
    assert back.ladder.base.values.tobytes() == casc.ladder.base.values.tobytes()
    for l0, l1 in zip(casc.ladder.levels, back.ladder.levels):
        assert l0.values.tobytes() == l1.values.tobytes()
    fine0, fine1 = casc.trajectories[-1], back.trajectories[-1]
    for f0, f1 in zip(fine0.fields, fine1.fields):
        assert f0.values.tobytes() == f1.values.tobytes()
    with pytest.raises(ConfigError, match="cascade"):
        save_trajectory(tmp_path / "plain", fine0)
        load_cascade(tmp_path / "plain")
