"""Snapshot archives: bit-exact round trips and manifest hygiene."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
from maflow import io as archive_io
from maflow.io import (
    config_hash,
    load_cascade,
    load_field,
    load_trajectory,
    save_cascade,
    save_field,
    save_trajectory,
)
from maflow.scenarios import available, scenario_path


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


def bundled_documents() -> list:
    return [json.loads(scenario_path(stem).read_text()) for stem in available()]


def test_config_hash_is_hashlibs_sha256_of_every_bundled_document():
    docs = bundled_documents()
    assert len(docs) == 14
    for doc in docs:
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        assert config_hash(doc) == hashlib.sha256(canon.encode("ascii")).hexdigest()


# Hashes every bundled document with CPython's built-in SHA-256 modules
# hidden, so io falls back to hashlib; prints the module it bound and the digests.
WITHOUT_BUILTIN_SHA256 = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from maflow import io
from maflow.scenarios import available, scenario_path
docs = [json.loads(scenario_path(stem).read_text()) for stem in available()]
print(json.dumps([io.sha256.__module__, [io.config_hash(doc) for doc in docs]]))
"""


def test_config_hash_falls_back_to_hashlib_with_the_same_digest():
    src = str(Path(archive_io.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_BUILTIN_SHA256],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    module, digests = json.loads(proc.stdout)
    # hashlib's own sha256, where this process bound the built-in one
    assert module == hashlib.sha256.__module__ != archive_io.sha256.__module__
    assert digests == [config_hash(doc) for doc in bundled_documents()]


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


# ---------------------------------------------------------------------------
# snapshots streamed into the archive while the run integrates

N1_SMOOTH = {
    "grid": {"n": 1, "resolution": 16},
    "driving": {"kind": "affine", "constant": 0.0, "slope": 0.5},
    "initial": {"kind": "fourier-sum", "modes": [[0.01, [1, 0], 0.0], [0.004, [1, 2], 1.0]]},
    "flow": {"horizon": 0.05, "t_min": 1e-3, "ratio": 1.3, "store_every": 3, "probes": [0.02]},
}
# theta0 + t I with theta0 semi-positive: at t = 0 the form sits on the cone's boundary, so
# the first snapshot stores no phidot; the n = 2 datum varies along the positive direction only
N1_BOUNDARY = {
    "grid": {"n": 1, "resolution": 8},
    "metric": {"kind": "nef", "theta0": [[0.0]], "eps": 0.0},
    "initial": {"kind": "constant", "value": 0.25},
    "mode": "single",
    "flow": {"horizon": 0.02, "t_min": 1e-3, "ratio": 1.3, "store_every": 2},
}
N2_BOUNDARY = {
    "grid": {"n": 2, "resolution": 8},
    "metric": {"kind": "nef", "theta0": [[1.0, 0.0], [0.0, 0.0]], "eps": 0.0},
    "initial": {"kind": "fourier-sum", "modes": [[0.01, [1, 0, 0, 0], 0.5]]},
    "mode": "single",
    "flow": {"horizon": 0.02, "t_min": 1e-3, "ratio": 1.3, "store_every": 2},
}


def archive_files(directory):
    """{relative path: bytes} of every file under directory, reports aside."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.startswith("margins.")
    }


def run_cli(doc, tmp_path, out=None):
    """(exit code, archive) of `maflow run` on doc, with no checks unless doc names some."""
    from maflow import cli

    cfg = tmp_path / "doc.json"
    cfg.write_text(json.dumps({"checks": [], **doc}))
    out = out or tmp_path / "streamed"
    return cli.main(["run", "--config", str(cfg), "--out", str(out)]), out


@pytest.mark.parametrize("doc", [N1_SMOOTH, N1_BOUNDARY, N2_BOUNDARY], ids=["n1", "n1-edge", "n2-edge"])
def test_a_streamed_archive_is_the_in_memory_archive(tmp_path, monkeypatch, doc):
    from maflow import cli
    from maflow import io as archive_io

    written = []
    # every snapshot file, the streamed ones and save_field's, is written here
    real_save = archive_io._save_values
    monkeypatch.setattr(archive_io, "_save_values", lambda *a: written.append(a[1]) or real_save(*a))
    code, streamed = run_cli(doc, tmp_path)
    assert code == 0
    assert len(written) == len(set(written)) == len(list(streamed.glob("*.bin")))  # each once
    monkeypatch.undo()
    full = {"checks": [], **doc}
    ctx = cli.scenario(full)
    cli.integrate_scenario(ctx)
    assert ctx.mode == "single" and isinstance(ctx.traj.fields, list)
    save_trajectory(tmp_path / "memory", ctx.traj, run_config=full)
    assert archive_files(streamed) == archive_files(tmp_path / "memory")
    assert len(ctx.traj.times) < len(ctx.traj.schedule)  # store_every thinned the snapshots
    if doc is not N1_SMOOTH:
        assert ctx.traj.phidots[0] is None


def test_lazy_sequences_read_bitwise_read_only_fields(tmp_path):
    from maflow import cli

    _, streamed = run_cli(N2_BOUNDARY, tmp_path)
    ctx = cli.scenario({"checks": [], **N2_BOUNDARY})
    cli.integrate_scenario(ctx)
    memory = ctx.traj
    back = load_trajectory(streamed)
    for lazy, kept in ((back.fields, memory.fields), (back.phidots, memory.phidots)):
        assert len(lazy) == len(kept) >= 4
        for k in (0, 1, -1, -2, -len(kept)):
            a, b = lazy[k], kept[k]
            assert (a is None) == (b is None)
            if a is not None:
                assert a.values.tobytes() == b.values.tobytes()
                assert not a.values.flags.writeable
        read = list(lazy)
        assert [f is None for f in read] == [f is None for f in kept]
        assert all(
            f.values.tobytes() == g.values.tobytes() for f, g in zip(read, kept) if f is not None
        )
        with pytest.raises(IndexError):
            lazy[len(kept)]
    assert back.phidots[0] is None


def test_a_run_keeps_no_stored_snapshot_in_memory(tmp_path):
    import tracemalloc

    doc = {
        "grid": {"n": 2, "resolution": 8},
        "initial": {
            "kind": "fourier-sum",
            "modes": [[0.004, [1, 0, 0, 1], 0.0], [0.003, [0, 1, 1, 0], 1.0]],
        },
        "initial_b": {"kind": "fourier-sum", "modes": [[0.003, [1, 1, 0, 0], 0.5]]},
        "flow": {"horizon": 0.05, "t_min": 1e-3, "ratio": 1.1},
        "checks": ["residual-certificate", "energy", "comparison"],
    }
    assert run_cli(doc, tmp_path, out=tmp_path / "warm")[0] == 0  # grid caches and imports
    tracemalloc.start()
    try:
        code, out = run_cli(doc, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    snapshots = json.loads((out / "manifest.json").read_text())["snapshots"]
    stored = len(snapshots) + sum(s["phidot"] for s in snapshots)
    assert len(snapshots) >= 20
    assert (out / "pair" / "manifest.json").is_file()
    # one run's snapshots: the flow and its comparison pair each store as many
    assert peak < stored * 8**4 * 8


# -- a run's states reach its store as its own arrays --------------------------


def same_snapshots(a, b) -> bool:
    """Whether two sequences of fields (None allowed) have the same bits."""
    pairs = list(zip(a, b, strict=True))
    return all(
        (x is None and y is None) or (x is not None and y is not None and x.values.tobytes() == y.values.tobytes())
        for x, y in pairs
    )


def recorded_arrays(monkeypatch):
    """The list every array flow lays out from now on is appended to.

    Those are a run's states and the arrays of its workspace and Newton
    correction, which no stored snapshot may share memory with.
    """
    from maflow import flow

    made, laid_out = [], flow._laid_out

    def recorded(*args, **kwargs):
        arrays = laid_out(*args, **kwargs)
        made.extend(arrays.values())
        return arrays

    monkeypatch.setattr(flow, "_laid_out", recorded)
    return made


def assert_no_run_array_in(traj, made):
    kept = [f.values for f in (*traj.fields, *traj.phidots) if f is not None]
    assert any(a.ndim == len(traj.grid.shape) for a in made)
    assert not any(np.shares_memory(k, a) for k in kept for a in made)


def store_problem(case):
    """(phi0, path, F, omega, cfg) of a run whose steps take 0 Newton iterations, or of a smooth one."""
    grid = TorusGrid(n=1, resolution=16)
    cfg = FlowConfig(horizon=0.05, t_min=1e-3, ratio=1.3, store_every=2, probes=(0.02,))
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    if case == "constant":
        return ScalarField.constant(grid, 0.25), path, DrivingTerm.zero(), omega, cfg
    x, y = grid.coordinates()
    phi0 = ScalarField(grid, 0.02 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y))
    return phi0, path, DrivingTerm.affine(0.0, 0.5), omega, cfg


@pytest.mark.parametrize("case", ["constant", "smooth", "fallback"])
def test_memory_and_archive_stores_take_the_same_bits(tmp_path, monkeypatch, case):
    from maflow import flow
    from maflow.io import ArchiveStore

    if case == "fallback":
        # the 6th extrapolated guess leaves the cone, so that step falls back
        extrapolate, calls = flow._extrapolate, []

        def far_guess(states, t, out, scratch):
            calls.append(t)
            out = extrapolate(states, t, out, scratch)
            if len(calls) == 6:
                out += 10.0 * np.cos(2 * np.pi * np.arange(out.shape[0]) / out.shape[0])[:, None]
            return out

        monkeypatch.setattr(flow, "_extrapolate", far_guess)
    problem = store_problem(case)
    made = recorded_arrays(monkeypatch)
    kept = run(*problem)
    assert_no_run_array_in(kept, made)
    if case == "fallback":
        calls.clear()
    grid = problem[0].grid
    streamed = run(*problem, store=ArchiveStore(tmp_path, grid))
    starts = [d["start"] for d in kept.diagnostics]
    assert starts == [d["start"] for d in streamed.diagnostics]
    if case == "constant":
        assert sum(d["newton_iters"] for d in kept.diagnostics) == 0
    assert ("fallback" in starts) == (case == "fallback")
    assert same_snapshots(kept.fields, streamed.fields)
    assert same_snapshots(kept.phidots, streamed.phidots)
    assert len(kept.fields) == len(kept.stored_indices) < len(kept.schedule)


def test_cascade_levels_take_the_bits_of_streamed_runs(tmp_path, monkeypatch):
    from maflow.io import ArchiveStore

    grid = TorusGrid(n=1, resolution=16)
    cfg = FlowConfig(horizon=0.02, t_min=1e-3, ratio=1.3, backend="fd")
    path, omega = MetricPath.constant(grid, cfg.horizon), VolumeForm.constant(grid)
    F = DrivingTerm.affine(0.0, 0.5)
    rough = RoughPotential.max_kink()
    schedule = RegularizationSchedule(deltas=(0.25, 0.125))
    made = recorded_arrays(monkeypatch)
    cascade = run_cascade(rough, schedule, path, F, omega, cfg)
    for j, (level, traj) in enumerate(zip(cascade.ladder.levels, cascade.trajectories)):
        assert_no_run_array_in(traj, made)
        streamed = run(level, path, F, omega, cfg, store=ArchiveStore(tmp_path / f"{j}", grid))
        assert same_snapshots(traj.fields, streamed.fields)
        assert same_snapshots(traj.phidots, streamed.phidots)
