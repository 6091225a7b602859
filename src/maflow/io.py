"""Snapshot files and trajectory archives.

A field snapshot is raw IEEE-754 binary64, little-endian, row-major over
the grid axes, next to a JSON sidecar {n, resolution, time, name}.  A
trajectory archive is a directory of snapshots plus manifest.json carrying
the config hash, the full step schedule, per-step diagnostics, notices and
metadata.  Round trips reproduce every field bit-exactly.

`ArchiveStore` is a snapshot store of `flow.run` that writes each stored
snapshot into its archive as the run accepts it; its trajectory, like one
`load_trajectory` returns, holds `SnapshotSequence`s, which read a snapshot
from disk when it is indexed.  `staged` gives a command a directory to
write into that replaces its output directory only once the command ends
normally.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .flow import FlowConfig, FlowTrajectory
from .grid import ScalarField, TorusGrid, field_values

try:  # the built-in SHA-256 first (see config_hash)
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "config_hash",
    "save_field",
    "load_field",
    "SnapshotSequence",
    "ArchiveStore",
    "save_trajectory",
    "load_trajectory",
    "save_cascade",
    "save_ladder",
    "load_cascade",
    "read_json",
    "staged",
]

MANIFEST_KEYS = ("grid", "schedule", "stored_indices", "snapshots")  # load_trajectory needs each


def config_hash(obj) -> str:
    """sha256 of the canonical JSON form (sorted keys, tight separators).

    The digest is hashlib.sha256's, taken with CPython's built-in SHA-256
    module when the interpreter has one: importing hashlib maps and
    initialises OpenSSL's libcrypto, about 3.6 MB of resident memory and
    5 ms, for the one small document a run hashes.
    """
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return sha256(canon.encode("ascii")).hexdigest()


def save_field(directory, name: str, field: ScalarField, time: float):
    """Write <name>.bin (binary64 LE row-major) and <name>.json sidecar."""
    return _save_values(directory, name, field.grid, field.values, time)


def _save_values(directory, name: str, grid: TorusGrid, values: np.ndarray, time: float):
    """`save_field` of the field on grid with these values, which are only read."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    bin_path = directory / f"{name}.bin"
    np.ascontiguousarray(values, dtype="<f8").tofile(bin_path)
    sidecar = {
        "n": grid.n,
        "resolution": grid.resolution,
        "time": float(time),
        "name": name,
    }
    json_path = directory / f"{name}.json"
    json_path.write_text(_indented_flat_json(sidecar))
    return bin_path, json_path


def _indented_flat_json(record: dict) -> str:
    """json.dumps(record, indent=2) of a dict of scalars, from json's C encoder.

    indent selects the pure-Python encoder, whose nested functions are
    reference cycles left to the garbage collector on every call; each key
    and value encoded alone takes the C encoder and leaves none.
    """
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in record.items())
    return "{\n" + lines + "\n}"


def _read_sidecar(side_path: Path) -> dict:
    """The sidecar at side_path; a missing file or key is a ConfigError naming it."""
    if not side_path.exists():
        raise ConfigError(f"missing snapshot sidecar {side_path}")
    sidecar = read_json(side_path)
    for key in ("n", "resolution", "time", "name"):
        if key not in sidecar:
            raise ConfigError(f"snapshot sidecar {side_path} lacks {key!r}")
    return sidecar


def _check_size(bin_path: Path, size: int, grid: TorusGrid):
    expect = math.prod(grid.shape) * 8
    if size != expect:
        raise ConfigError(f"snapshot {bin_path} has {size} bytes, expected {expect}")


def _read_snapshot(bin_path: Path, grid: TorusGrid) -> ScalarField:
    """The snapshot in bin_path as a field on grid; a missing file or a wrong size is a
    ConfigError naming it.

    The field's values are a read-only view of the bytes read, so nothing
    is copied; this reads a small snapshot in about half the time that
    np.fromfile takes.
    """
    try:
        raw = bin_path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {bin_path}: {exc.strerror}") from None
    _check_size(bin_path, len(raw), grid)
    return ScalarField(grid, np.frombuffer(raw, dtype="<f8").reshape(grid.shape))


def load_field(path) -> tuple:
    """Read a snapshot from its .bin or .json path; returns (field, sidecar)."""
    path = Path(path)
    side_path = path.with_suffix(".json") if path.suffix == ".bin" else path
    sidecar = _read_sidecar(side_path)
    grid = TorusGrid(int(sidecar["n"]), int(sidecar["resolution"]))
    return _read_snapshot(side_path.with_suffix(".bin"), grid), sidecar


def read_json(path):
    """The JSON in path; a missing or unreadable file is a ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def staged(out):
    """A new directory beside out to write out's contents into; they reach out on a normal exit.

    Then the staged directory becomes out when out does not exist, and
    otherwise every staged file replaces its namesake in out, manifest.json
    files last.  On an exception, or when nothing was staged for an out
    that does not exist, the staged directory is removed with every parent
    of out it made, so out and its parents stay as they were.
    """
    out = Path(out)
    made = [p for p in (out.parent, *out.parent.parents) if not p.exists()]  # deepest first
    out.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    stage = holder / out.name  # made by mkdir, so it gets out's usual mode
    stage.mkdir()
    try:
        yield stage
    except BaseException:
        _discard(holder, made)
        raise
    if not out.exists() and not any(stage.iterdir()):
        _discard(holder, made)  # nothing was written, so nothing appears
        return
    try:
        if out.exists():
            _move_into(stage, out)
        else:
            stage.rename(out)
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def _discard(holder: Path, made: list):
    shutil.rmtree(holder, ignore_errors=True)
    for parent in made:
        with contextlib.suppress(OSError):
            parent.rmdir()


def _move_into(src: Path, dst: Path):
    """Move every file under src to the same place under dst, manifest.json files last."""
    manifests = []
    for root, _, names in os.walk(src):
        target = dst / Path(root).relative_to(src)
        target.mkdir(exist_ok=True)
        for name in names:
            move = (os.path.join(root, name), target / name)
            if name == "manifest.json":
                manifests.append(move)
            else:
                os.replace(*move)
    for move in manifests:
        os.replace(*move)


def _snapshot_name(index: int) -> str:
    return f"phi_{int(index):06d}"


def _phidot_name(name: str) -> str:
    return name.replace("phi_", "phidot_")


class SnapshotSequence(Sequence):
    """Snapshots on one grid, each read from directory/<name>.bin when it is indexed.

    names holds one entry per snapshot, None for an absent one (a phidot
    that was not stored), which reads as None.  Every read is a new
    read-only field; nothing is cached.
    """

    def __init__(self, directory, grid: TorusGrid, names=()):
        self.directory, self.grid, self.names = Path(directory), grid, list(names)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, k: int) -> ScalarField | None:
        name = self.names[k]
        return None if name is None else _read_snapshot(self.directory / f"{name}.bin", self.grid)


class ArchiveStore:
    """A snapshot store of `flow.run` that writes every snapshot into directory as it arrives.

    Each snapshot is written as `save_trajectory` would write it, so a
    trajectory built on this store is archived by writing its manifest only.
    add takes the run's arrays, as every snapshot store does (see
    `flow._MemoryStore`), checks them as a ScalarField would and writes
    them at once, so it keeps and copies nothing.  fields and phidots are
    `SnapshotSequence`s of what has been written.
    """

    def __init__(self, directory, grid: TorusGrid):
        self.fields = SnapshotSequence(directory, grid)
        self.phidots = SnapshotSequence(directory, grid)

    def add(self, index: int, t: float, phi: np.ndarray, phidot: np.ndarray | None):
        name, grid = _snapshot_name(index), self.fields.grid
        _save_values(self.fields.directory, name, grid, field_values(grid, phi), t)
        self.fields.names.append(name)
        if phidot is not None:
            phidot = field_values(grid, phidot)
            _save_values(self.fields.directory, _phidot_name(name), grid, phidot, t)
        self.phidots.names.append(None if phidot is None else _phidot_name(name))


def _streamed_into(directory: Path, traj: FlowTrajectory) -> bool:
    """Whether traj's snapshots are already the files save_trajectory would write in directory."""
    fields = traj.fields
    return (
        isinstance(fields, SnapshotSequence)
        and isinstance(traj.phidots, SnapshotSequence)
        and directory.resolve() == fields.directory.resolve() == traj.phidots.directory.resolve()
        and fields.names == [_snapshot_name(i) for i in traj.stored_indices]
    )


def save_trajectory(directory, traj: FlowTrajectory, run_config: dict = None, extra: dict = None) -> Path:
    """Archive a trajectory: snapshots plus manifest.json, written last.

    A trajectory an `ArchiveStore` streamed into directory already has its
    snapshots there, so only the manifest is written.  run_config, when
    given, is the full scenario document; its hash is the config hash
    recorded in the manifest.  Otherwise the flow config alone is hashed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    streamed = _streamed_into(directory, traj)
    cfg_dict = asdict(traj.config) if traj.config is not None else None
    hashed = run_config if run_config is not None else (cfg_dict or {})
    snapshots = []
    for k, t in enumerate(traj.times):
        name = _snapshot_name(traj.stored_indices[k])
        if streamed:
            has_pd = traj.phidots.names[k] is not None
        else:
            save_field(directory, name, traj.fields[k], float(t))
            phidot = traj.phidots[k]
            has_pd = phidot is not None
            if has_pd:
                save_field(directory, _phidot_name(name), phidot, float(t))
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


def _check_snapshot(directory: Path, name: str, grid: TorusGrid):
    """Snapshot name in directory must be on grid, with a .bin of its size; else a
    ConfigError naming the file."""
    sidecar = _read_sidecar(directory / f"{name}.json")
    if (sidecar["n"], sidecar["resolution"]) != (grid.n, grid.resolution):
        raise ConfigError(f"snapshot {name} grid disagrees with the manifest grid")
    bin_path = directory / f"{name}.bin"
    try:
        size = bin_path.stat().st_size
    except OSError:
        raise ConfigError(f"missing snapshot file {bin_path}") from None
    _check_size(bin_path, size, grid)


def load_trajectory(directory, manifest: dict = None) -> FlowTrajectory:
    """The trajectory archived in directory, whose snapshots are read when indexed.

    Every snapshot's sidecar and .bin size are checked first, so a missing,
    truncated or foreign snapshot file, like a manifest without one of
    MANIFEST_KEYS, is a ConfigError naming it.
    """
    directory = Path(directory)
    where = directory / "manifest.json"
    manifest = manifest or read_json(where)
    if manifest.get("format") != "trajectory-archive-v1":
        raise ConfigError(f"unrecognized archive format in {directory}")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ConfigError(f"{where} lacks {missing[0]!r}")
    try:
        grid = TorusGrid(int(manifest["grid"]["n"]), int(manifest["grid"]["resolution"]))
        snaps = [(s["name"], float(s["time"]), bool(s.get("phidot"))) for s in manifest["snapshots"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} has a malformed grid or snapshot entry ({exc!r})") from None
    fields = SnapshotSequence(directory, grid, [name for name, _, _ in snaps])
    phidots = SnapshotSequence(directory, grid, [_phidot_name(n) if pd else None for n, _, pd in snaps])
    for name in fields.names + phidots.names:
        if name is not None:
            _check_snapshot(directory, name, grid)
    cfg = FlowConfig(**manifest["flow_config"]) if manifest.get("flow_config") else None
    return FlowTrajectory(
        grid=grid,
        times=np.asarray([t for _, t, _ in snaps]),
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
    save_ladder(directory / "ladder", cascade.ladder)
    return path


def save_ladder(directory, ladder):
    """Write a mollification ladder's base and levels as base and level_NNN at t = 0.

    `load_cascade` reads them back from a cascade archive's ladder/.
    """
    save_field(directory, "base", ladder.base, 0.0)
    for j, level in enumerate(ladder.levels):
        save_field(directory, f"level_{j:03d}", level, 0.0)


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
        monotone_violation=info["monotone_violation"],
        monotone_tol=info["monotone_tol"],
        limit_gaps=dict(info["limit_gaps"]),
        notices=list(info.get("notices") or []),
    )
