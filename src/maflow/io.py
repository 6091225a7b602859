"""Snapshot files and trajectory archives.

A field snapshot is raw IEEE-754 binary64, little-endian, row-major over
the grid axes, next to a JSON sidecar {n, resolution, time, name}.  A
trajectory archive is a directory of snapshots plus manifest.json carrying
the config hash, the full step schedule, per-step diagnostics, notices and
metadata.  Round trips reproduce every field bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .flow import FlowConfig, FlowTrajectory
from .grid import ScalarField, TorusGrid

__all__ = [
    "config_hash",
    "save_field",
    "load_field",
    "save_trajectory",
    "load_trajectory",
    "save_cascade",
    "load_cascade",
    "read_json",
]


def config_hash(obj) -> str:
    """sha256 of the canonical JSON form (sorted keys, tight separators)."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def save_field(directory, name: str, field: ScalarField, time: float):
    """Write <name>.bin (binary64 LE row-major) and <name>.json sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(field.values, dtype="<f8")
    bin_path = directory / f"{name}.bin"
    bin_path.write_bytes(data.tobytes(order="C"))
    sidecar = {
        "n": field.grid.n,
        "resolution": field.grid.resolution,
        "time": float(time),
        "name": name,
    }
    json_path = directory / f"{name}.json"
    json_path.write_text(json.dumps(sidecar, indent=2))
    return bin_path, json_path


def load_field(path) -> tuple:
    """Read a snapshot from its .bin or .json path; returns (field, sidecar)."""
    path = Path(path)
    if path.suffix == ".bin":
        side_path = path.with_suffix(".json")
    else:
        side_path = path
    if not side_path.exists():
        raise ConfigError(f"missing snapshot sidecar {side_path}")
    sidecar = read_json(side_path)
    for key in ("n", "resolution", "time", "name"):
        if key not in sidecar:
            raise ConfigError(f"snapshot sidecar {side_path} lacks {key!r}")
    grid = TorusGrid(int(sidecar["n"]), int(sidecar["resolution"]))
    raw = side_path.with_suffix(".bin").read_bytes()
    expect = int(np.prod(grid.shape)) * 8
    if len(raw) != expect:
        raise ConfigError(
            f"snapshot {side_path.stem} has {len(raw)} bytes, expected {expect}"
        )
    return ScalarField(grid, np.frombuffer(raw, dtype="<f8").reshape(grid.shape)), sidecar


def read_json(path):
    """The JSON in path; a missing or unreadable file is a ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def save_trajectory(directory, traj: FlowTrajectory, run_config: dict = None, extra: dict = None) -> Path:
    """Archive a trajectory: snapshots plus manifest.json.

    run_config, when given, is the full scenario document; its hash is the
    config hash recorded in the manifest.  Otherwise the flow config alone
    is hashed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg_dict = asdict(traj.config) if traj.config is not None else None
    hashed = run_config if run_config is not None else (cfg_dict or {})
    snapshots = []
    for k, t in enumerate(traj.times):
        name = f"phi_{int(traj.stored_indices[k]):06d}"
        save_field(directory, name, traj.fields[k], float(t))
        has_pd = traj.phidots[k] is not None
        if has_pd:
            save_field(directory, name.replace("phi_", "phidot_"), traj.phidots[k], float(t))
        snapshots.append({"name": name, "time": float(t), "phidot": has_pd})
    manifest = {
        "format": "trajectory-archive-v1",
        "config_hash": config_hash(hashed),
        "run_config": run_config,
        "flow_config": cfg_dict,
        "grid": {"n": traj.grid.n, "resolution": traj.grid.resolution},
        "schedule": [float(t) for t in traj.schedule],
        "stored_indices": [int(i) for i in traj.stored_indices],
        "snapshots": snapshots,
        "diagnostics": traj.diagnostics,
        "notices": list(traj.notices),
        "meta": _json_clean(traj.meta),
    }
    if extra:
        manifest.update(_json_clean(extra))
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def _json_clean(obj):
    """obj with numpy scalars and arrays as JSON types; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def load_trajectory(directory, manifest: dict = None) -> FlowTrajectory:
    directory = Path(directory)
    manifest = manifest or read_json(directory / "manifest.json")
    if manifest.get("format") != "trajectory-archive-v1":
        raise ConfigError(f"unrecognized archive format in {directory}")
    grid = TorusGrid(int(manifest["grid"]["n"]), int(manifest["grid"]["resolution"]))
    cfg = FlowConfig(**manifest["flow_config"]) if manifest.get("flow_config") else None
    fields, phidots, times = [], [], []
    for snap in manifest["snapshots"]:
        f, side = load_field(directory / f"{snap['name']}.json")
        if f.grid != grid:
            raise ConfigError("snapshot grid disagrees with the manifest grid")
        fields.append(f)
        times.append(float(snap["time"]))
        if snap.get("phidot"):
            name = snap["name"].replace("phi_", "phidot_")
            phidots.append(load_field(directory / f"{name}.json")[0])
        else:
            phidots.append(None)
    return FlowTrajectory(
        grid=grid,
        times=np.asarray(times),
        fields=fields,
        phidots=phidots,
        schedule=np.asarray(manifest["schedule"]),
        stored_indices=np.asarray(manifest["stored_indices"], dtype=int),
        diagnostics=list(manifest.get("diagnostics") or []),
        config=cfg,
        meta=dict(manifest.get("meta") or {}),
        notices=list(manifest.get("notices") or []),
    )


def save_cascade(directory, cascade, run_config: dict = None) -> Path:
    """Archive a cascade: the limit trajectory plus the mollification ladder.

    The limit-level trajectory is archived at the top of the directory; the
    clamped base sample and each ladder level go to ladder/ so capacity and
    convergence checks can be replayed from disk.
    """
    directory = Path(directory)
    ladder_dir = directory / "ladder"
    extra = {
        "cascade": {
            "deltas": [float(d) for d in cascade.ladder.deltas],
            "shifts": [float(s) for s in cascade.ladder.shifts],
            "margins": [float(m) for m in cascade.ladder.margins],
            "monotone_violation": cascade.monotone_violation,
            "monotone_tol": cascade.monotone_tol,
            "limit_gaps": {k: float(v) for k, v in cascade.limit_gaps.items()},
            "notices": list(cascade.notices),
        }
    }
    path = save_trajectory(directory, cascade.trajectories[-1], run_config, extra)
    save_field(ladder_dir, "base", cascade.ladder.base, 0.0)
    for j, level in enumerate(cascade.ladder.levels):
        save_field(ladder_dir, f"level_{j:03d}", level, 0.0)
    return path


def load_cascade(directory, manifest: dict = None):
    """Rebuild a CascadeResult holding the limit trajectory and the ladder."""
    from .flow import CascadeResult
    from .psh import MollificationLadder

    directory = Path(directory)
    manifest = manifest or read_json(directory / "manifest.json")
    info = manifest.get("cascade")
    if not info:
        raise ConfigError(f"{directory} is not a cascade archive")
    traj = load_trajectory(directory, manifest)
    ladder_dir = directory / "ladder"
    base, _ = load_field(ladder_dir / "base.json")
    levels = []
    for j in range(len(info["deltas"])):
        f, _ = load_field(ladder_dir / f"level_{j:03d}.json")
        levels.append(f)
    ladder = MollificationLadder(
        grid=traj.grid,
        deltas=tuple(info["deltas"]),
        levels=levels,
        shifts=tuple(info["shifts"]),
        margins=tuple(info["margins"]),
        base=base,
    )
    return CascadeResult(
        ladder=ladder,
        trajectories=[traj],
        times=traj.times,
        monotone_violation=info["monotone_violation"],
        monotone_tol=info["monotone_tol"],
        limit_gaps=dict(info["limit_gaps"]),
        notices=list(info.get("notices") or []),
    )
