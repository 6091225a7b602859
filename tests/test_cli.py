"""Command-line driver: exit statuses, archives, reports, and series export."""

import ast
import contextlib
import copy
import csv
import functools
import io as _io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maflow import ConfigError, cli
from maflow.io import config_hash, load_trajectory, save_trajectory
from maflow.scenarios import available, scenario_path


def base_doc(out, **overrides):
    doc = {
        "name": "cli-test",
        "grid": {"n": 1, "resolution": 16},
        "metric": {"kind": "constant"},
        "volume": {"kind": "constant"},
        "driving": {"kind": "affine", "constant": 0.0, "slope": 0.5},
        "initial": {"kind": "fourier-sum", "modes": [[0.01, [1, 0], 0.0]]},
        "flow": {"horizon": 0.05, "t_min": 1e-3, "ratio": 1.3},
        "checks": ["residual-certificate"],
        "out": str(out),
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, name="scenario.json", **overrides):
    doc = base_doc(tmp_path / "out", **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path, doc


def test_bundled_scenarios_are_listed():
    stems = available()
    assert len(stems) == 14
    assert stems[0].startswith("01-")
    assert scenario_path(stems[0]).is_file()
    with pytest.raises(FileNotFoundError, match="01-"):
        scenario_path("no-such-scenario")


def test_run_archives_reload_bit_exact(tmp_path):
    cfg_path, doc = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(doc)

    reloaded = load_trajectory(out)
    _, ctx, _ = cli.integrate_scenario(doc)
    assert len(reloaded.fields) == len(ctx.traj.fields)
    for a, b in zip(reloaded.fields, ctx.traj.fields):
        assert a.values.tobytes() == b.values.tobytes()

    margins = json.loads((out / "margins.json").read_text())
    assert all(m["details"]["config_hash"] == manifest["config_hash"] for m in margins)
    rows = list(csv.reader((out / "margins.csv").open()))
    assert rows[0] == ["check", "anchor", "margin", "constants"]


@pytest.mark.parametrize(
    "overrides,expected",
    [
        ({}, "single"),
        ({"initial": {"kind": "max-kink"}, "grid": {"n": 1, "resolution": 64},
          "flow": {"horizon": 0.01, "t_min": 1e-3, "ratio": 1.4, "backend": "fd"},
          "schedule": {"delta0": 0.25, "ratio": 0.5, "levels": 3}}, "cascade"),
        ({"metric": {"kind": "nef", "theta0": [[1.0]], "eps": [0.2, 0.1]},
          "initial": {"kind": "constant", "value": 0.0},
          "flow": {"horizon": 0.005, "t_min": 1e-4, "ratio": 1.3}}, "nef"),
        ({"mode": "audit"}, "audit"),
    ],
)
def test_mode_resolution(tmp_path, overrides, expected):
    doc = base_doc(tmp_path / "out", **overrides)
    mode, _, _ = cli.integrate_scenario(doc)
    assert mode == expected


def test_uncertified_driving_term_is_flagged(tmp_path):
    doc = base_doc(
        tmp_path / "out",
        driving={"kind": "counterexample"},
        initial={"kind": "constant", "value": 0.0},
        flow={"horizon": 0.01, "t_min": 1e-3, "ratio": 1.4},
        checks=[],
    )
    mode, ctx, _ = cli.integrate_scenario(doc)
    assert mode == "single"
    assert any("NO-UNIQUENESS-CERTIFICATE" in n for n in ctx.traj.notices)


def test_exit_one_on_failing_check(tmp_path):
    cfg_path, _ = write_doc(
        tmp_path,
        driving={"kind": "counterexample"},
        initial={"kind": "constant", "value": 0.0},
        flow={"horizon": 0.01, "t_min": 1e-3, "ratio": 1.4},
        checks=["uniqueness"],
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    text = (tmp_path / "out" / "margins.json").read_text()
    assert '"certified": false' in text  # a refusal, written as a JSON boolean
    (report,) = json.loads(text)
    assert report["details"]["certified"] is False


def test_certified_uniqueness_needs_both_schedules(tmp_path, capsys):
    # slope 0.5: defect 0, time bound 0, smooth, so the certified path runs
    cfg_path, _ = write_doc(
        tmp_path,
        mode="audit",
        schedule={"delta0": 0.25, "ratio": 0.5, "levels": 3},
        checks=["uniqueness"],
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "'schedule_b'" in capsys.readouterr().err


def test_exit_two_on_configuration_problems(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == 2
    cfg_path, _ = write_doc(tmp_path, flow={"horizon": 0.05, "cadence": 3})
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert "unknown flow settings" in capsys.readouterr().err
    cfg_path, _ = write_doc(tmp_path, checks=["spectra"])
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    with pytest.raises(SystemExit) as exc:  # argparse usage error
        cli.main(["run"])
    assert exc.value.code == 2


@pytest.mark.parametrize("eps, message", [(0.1, "eps schedule"), ([], "nonempty list")])
def test_nef_mode_refuses_fewer_than_two_eps(tmp_path, capsys, eps, message):
    cfg_path, _ = write_doc(
        tmp_path,
        metric={"kind": "nef", "theta0": [[1.0]], "eps": eps},
        initial={"kind": "constant", "value": 0.0},
        flow={"horizon": 0.005, "t_min": 1e-4, "ratio": 1.3},
        checks=[],
    )
    assert cli.main(["nef", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_exit_three_on_numeric_failure(tmp_path, capsys):
    cfg_path, _ = write_doc(
        tmp_path,
        initial={"kind": "fourier-sum", "modes": [[0.2, [1, 0], 0.0]]},
    )
    assert cli.main(["run", "--config", str(cfg_path)]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_verify_replays_archive_checks(tmp_path):
    cfg_path, doc = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    rc = cli.main(["verify", str(out), "--check", "residual-certificate"])
    assert rc == 0
    margins = json.loads((out / "replay" / "margins.json").read_text())
    assert margins[0]["check"] == "residual-certificate"
    assert margins[0]["details"]["config_hash"] == config_hash(doc)


def test_verify_reports_missing_snapshot_pairs(tmp_path, capsys):
    cfg_path, _ = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    rc = cli.main(["verify", str(out), "--check", "gradient-laplacian"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing snapshot pair:" in err


def test_verify_rejects_live_only_checks(tmp_path, capsys):
    cfg_path, _ = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert cli.main(["verify", str(out), "--check", "stability"]) == 2
    assert "need the live scenario" in capsys.readouterr().err


def test_verify_compares_two_archives(tmp_path):
    doc_a = base_doc(tmp_path / "outA")
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(doc_a))
    doc_b = base_doc(tmp_path / "outB")
    doc_b["initial"]["modes"] = [[0.01, [1, 0], 0.0], [-0.05, [0, 0], 0.0]]
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(doc_b))
    assert cli.main(["run", "--config", str(cfg_a), "--out", str(tmp_path / "outA")]) == 0
    assert cli.main(["run", "--config", str(cfg_b), "--out", str(tmp_path / "outB")]) == 0
    rc = cli.main(["verify", str(tmp_path / "outA"), str(tmp_path / "outB")])
    assert rc == 0
    margins = json.loads((tmp_path / "outA" / "replay" / "margins.json").read_text())
    assert [m["check"] for m in margins] == ["comparison"]
    assert margins[0]["passed"]


def test_series_oscillation_of_flat_run_is_zero(tmp_path, capsys):
    cfg_path, _ = write_doc(
        tmp_path, initial={"kind": "constant", "value": 0.3}, checks=[]
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["series", str(out), "osc"]) == 0
    rows = list(csv.reader(_io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["t", "value"]
    assert len(rows) > 2
    assert all(float(v) == 0.0 for _, v in rows[1:])


def test_series_writes_csv_file(tmp_path):
    cfg_path, _ = write_doc(tmp_path, checks=[])
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert cli.main(["series", str(out), "sup", "--out", str(tmp_path / "csv")]) == 0
    target = tmp_path / "csv" / "series-sup.csv"
    rows = list(csv.reader(target.open()))
    assert rows[0] == ["t", "value"]
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == pytest.approx(0.01, rel=1e-9)
    with pytest.raises(SystemExit):  # unknown quantity is an argparse error
        cli.main(["series", str(out), "volume"])


def test_series_min_phidot_tracks_log_time(tmp_path, scenario):
    """Near-degenerate Lipschitz data: min phidot follows n log t + O(1)."""
    outcome = scenario("07-derivative-asymptotics")
    arch = tmp_path / "arch"
    save_trajectory(arch, outcome.ctx.traj, run_config=outcome.ctx.doc)
    assert cli.main(["series", str(arch), "min-phidot", "--out", str(tmp_path)]) == 0
    rows = list(csv.reader((tmp_path / "series-min-phidot.csv").open()))
    pts = [(float(t), float(v)) for t, v in rows[1:] if float(t) > 0]
    ts = np.array([t for t, _ in pts])
    ys = np.array([v for _, v in pts])
    slope, _ = np.polyfit(np.log(ts), ys, 1)
    assert 0.9 <= slope <= 1.3
    resid = ys - np.log(ts)  # n = 1
    assert float(resid.max() - resid.min()) <= 1.0


def test_regularize_builds_ladder_archive(tmp_path, capsys):
    cfg_path, doc = write_doc(
        tmp_path,
        grid={"n": 1, "resolution": 64},
        initial={"kind": "max-kink"},
        mode="cascade",
        flow={"horizon": 0.01, "t_min": 1e-3, "ratio": 1.4, "backend": "fd"},
        schedule={"delta0": 0.25, "ratio": 0.5, "levels": 3},
        checks=[],
    )
    out = tmp_path / "lad"
    assert cli.main(["regularize", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "ladder.json").read_text())
    assert set(report) == {"config_hash", "deltas", "shifts", "margins", "oscillation"}
    assert report["config_hash"] == config_hash(doc)
    assert len(report["deltas"]) == 3
    assert "level 0: delta=0.25" in capsys.readouterr().out
    # the same files, byte for byte, as the ladder/ of the document's cascade archive
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    files = [name + suffix for name in ("base", "level_000", "level_001", "level_002")
             for suffix in (".bin", ".json")]
    ladder = tmp_path / "out" / "ladder"
    assert sorted(p.name for p in ladder.iterdir()) == sorted(files)
    for name in files:
        assert (out / name).read_bytes() == (ladder / name).read_bytes()


def test_nef_family_archive_layout(tmp_path):
    cfg_path, doc = write_doc(
        tmp_path,
        metric={"kind": "nef", "theta0": [[1.0]], "eps": [0.2, 0.1]},
        initial={"kind": "constant", "value": 0.0},
        flow={"horizon": 0.005, "t_min": 1e-4, "ratio": 1.3},
        checks=[],
    )
    out = tmp_path / "out"
    assert cli.main(["nef", "--config", str(cfg_path)]) == 0
    family = json.loads((out / "family.json").read_text())
    assert family["format"] == "nef-family-v1"
    assert family["config_hash"] == config_hash(doc)
    assert family["eps"] == [0.2, 0.1]
    assert family["witness"] == "witness"
    for member in family["members"].values():
        assert (out / member / "manifest.json").is_file()
    assert (out / "witness" / "manifest.json").is_file()
    assert family["monotone_violation"] <= family["monotone_tol"]


# a schedule with two (t/2, t) pairs and more than 16 snapshots, so every
# archive check that reads the trajectory audit has something to read
AUDITED = {
    "flow": {"horizon": 0.1, "t_min": 1e-3, "ratio": 1.3, "probes": [0.025, 0.05, 0.1]},
    "checks": ["apriori-bounds", "energy", "residual-certificate", "gradient-laplacian"],
}


def test_verify_replays_the_run_margins_bitwise(tmp_path):
    cfg_path, _ = write_doc(tmp_path, **AUDITED)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    live = json.loads((out / "margins.json").read_text())
    checks = [a for name in AUDITED["checks"] for a in ("--check", name)]
    assert cli.main(["verify", str(out), *checks, "--out", str(tmp_path / "replay")]) == 0
    replay = json.loads((tmp_path / "replay" / "margins.json").read_text())
    assert [r["check"] for r in replay] == [r["check"] for r in live] == [
        "apriori-upper",
        "apriori-lower",
        "energy-monotone",
        "residual-certificate",
        "gradient-bound",
        "laplacian-bound",
    ]
    for a, b in zip(live, replay):
        assert (a["margin"], a["location"], a["constants"]) == (
            b["margin"],
            b["location"],
            b["constants"],
        )


def count_calls(monkeypatch, module, name):
    """Count calls of module.name from every maflow module that holds it."""
    from maflow import flow, geometry, grid, psh, verify

    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in (cli, flow, geometry, grid, psh, verify):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def run_counting_checks(monkeypatch, cfg_path, module, name):
    """(calls of module.name inside the check phase, stored snapshots) of a run."""
    calls = count_calls(monkeypatch, module, name)
    real_execute = cli.execute_checks
    seen = {}

    def execute(names, ctx):
        before = len(calls)
        reports = real_execute(names, ctx)
        seen["calls"] = len(calls) - before
        seen["snapshots"] = len(ctx.traj.times)
        return reports

    monkeypatch.setattr(cli, "execute_checks", execute)
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    return seen["calls"], seen["snapshots"]


def test_checks_build_each_snapshot_form_once(tmp_path, monkeypatch):
    from maflow import grid

    cfg_path, _ = write_doc(
        tmp_path, flow=AUDITED["flow"], checks=["energy", "residual-certificate"]
    )
    hessians, snapshots = run_counting_checks(
        monkeypatch, cfg_path, grid, "hessian_components"
    )
    assert snapshots >= 16
    assert hessians == snapshots


def test_checks_certify_the_metric_path_once(tmp_path, monkeypatch):
    from maflow import geometry

    cfg_path, _ = write_doc(tmp_path, flow=AUDITED["flow"], checks=["apriori-bounds", "energy"])
    certificates, _ = run_counting_checks(
        monkeypatch, cfg_path, geometry, "certify_metric_path"
    )
    assert certificates == 1


def seeded_cascade_doc(tmp_path):
    # the capacity check draws its dictionary from the scenario's seed
    return write_doc(
        tmp_path,
        grid={"n": 1, "resolution": 32},
        driving={"kind": "zero"},
        initial={"kind": "log-pole", "gamma": 0.05, "cap": -0.2},
        mode="cascade",
        flow={"horizon": 0.01, "t_min": 1e-3, "ratio": 1.4, "backend": "fd",
              "probes": [0.01, 0.005, 0.0025]},
        schedule={"delta0": 0.25, "ratio": 0.5, "levels": 3},
        checks=["convergence"],
        seed=3,
    )[0]


def assert_verify_replays(tmp_path, run_argv):
    """A plain convergence replay reproduces every live margin and constant."""
    out = tmp_path / "out"
    code = cli.main(run_argv)
    live = json.loads((out / "margins.json").read_text())
    live = [r for r in live if r["check"] != "cascade-ordering"]  # not a replayed check
    replay_dir = tmp_path / "replay"
    assert cli.main(["verify", str(out), "--check", "convergence", "--out", str(replay_dir)]) == code
    replay = json.loads((replay_dir / "margins.json").read_text())
    assert "convergence-capacity" in [r["check"] for r in live]
    assert [(r["check"], r["margin"], r["constants"]) for r in replay] == [
        (r["check"], r["margin"], r["constants"]) for r in live
    ]


def test_verify_replays_a_cascade_with_the_run_seed(tmp_path):
    cfg_path = seeded_cascade_doc(tmp_path)
    assert_verify_replays(tmp_path, ["run", "--config", str(cfg_path)])


def test_verify_replays_a_run_seed_override(tmp_path):
    cfg_path = seeded_cascade_doc(tmp_path)
    assert_verify_replays(tmp_path, ["run", "--config", str(cfg_path), "--seed", "5"])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["run_config"]["seed"] == 5


def scenario_09_with(tmp_path, check_params):
    doc = json.loads(scenario_path("09-energy-monotone").read_text())
    doc.update(check_params=check_params, out=str(tmp_path / "out"))
    path = tmp_path / "09.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "check_params, named",
    [({"energy": {"slak": 1.0}}, "slak"), ({"energi": {"slack": 1.0}}, "energi")],
)
def test_misspelled_check_params_exit_two(tmp_path, capsys, check_params, named):
    cfg_path = scenario_09_with(tmp_path, check_params)
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused before integrating


VALID_SCHEDULE_B = {"schedule_b": {"delta0": 0.25, "ratio": 0.5, "levels": 3}}


@pytest.mark.parametrize(
    "changes, argv, named",
    [
        ({"checks": ["spectra"]}, [], "unknown check 'spectra'"),
        ({}, ["--check", "spectra"], "unknown check 'spectra'"),
        ({}, ["--check", "stability"], "'stability' needs an 'initial_b'"),
        ({}, ["--check", "comparison"], "'comparison' needs an 'initial_b'"),
        ({"schedule_b": "x"}, ["--check", "uniqueness"], "schedule must be an object"),
        # malformed values and keys: each is refused with its key path
        ({"flow.horizon": []}, [], "flow.horizon"),
        ({"flow.horizon": True}, [], "flow.horizon"),
        ({"grid.resolution": "x"}, [], "grid.resolution"),
        ({"grid.resolution": 16.7}, [], "grid.resolution"),
        ({"flow.probes": 0.1}, [], "flow.probes"),
        ({"flow.store_every": 1.5}, [], "flow.store_every"),
        ({"initial": {"kind": "fourier-sum", "modes": [[1, 2, 3]]}}, [], "initial.modes"),
        ({"driving": {"kind": "cosine", "axis": 9}}, [], "driving.axis"),
        ({"schedule.delta0": "x", **VALID_SCHEDULE_B}, ["--check", "uniqueness"], "schedule.delta0"),
        ({"check_params.energy.slack": "x"}, [], "check_params.energy.slack"),
        ({"seed": "x"}, [], "seed"),
        ({"chekcs": ["energy"]}, [], "chekcs"),
        ({"grid.resolutoin": 16}, [], "grid.resolutoin"),
        ({"volume.valeu": 1.0}, [], "volume.valeu"),
        ({"initial.valeu": -1.0}, [], "initial.valeu"),
        ({"schedule.delta0": "x"}, [], "schedule.delta0"),  # a section the run never reads
    ],
)
def test_bad_check_settings_exit_two_before_integrating(tmp_path, capsys, changes, argv, named):
    cfg_path = scenario_09_changed(tmp_path, changes)
    assert cli.main(["run", "--config", str(cfg_path), *argv]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def scenario_09_changed(tmp_path, changes):
    cfg_path = scenario_09_with(tmp_path, {})
    doc = json.loads(cfg_path.read_text())
    for key, value in changes.items():  # a dotted key sets a value inside a section
        *sections, last = key.split(".")
        node = doc
        for sec in sections:
            node = node.setdefault(sec, {})
        node[last] = value
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"grid.resolution": 12}, "grid: resolution must be a power of two >= 8, got 12"),
        ({"flow.ratio": 3.0}, "flow: schedule ratio must be in (1, 2], got 3.0"),
        ({"initial": {"kind": "paraboloid", "curvature": 1.5}}, "initial: paraboloid curvature"),
    ],
)
def test_a_range_error_names_its_section(tmp_path, capsys, changes, named):
    cfg_path = scenario_09_changed(tmp_path, changes)
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The check_params keys each check accepts: the keyword-only parameters of its verify function.
CHECK_SETTINGS = {
    "comparison": {"lam", "tol", "roles"},
    "apriori-bounds": {"kcap"},
    "time-derivative": {"eps", "slope_floor", "bounded_variation"},
    "gradient-laplacian": {"pair_tol"},
    "energy": {"slack"},
    "residual-certificate": set(),
    "stability": {"homotopy_samples", "eps"},
    "uniqueness": {"rate"},
    "convergence": {"time_ladder", "eps_cap", "l1_tol", "seed"},
    "transform-roundtrip": {"reduction_rate", "rescale_rate"},
    "trace-inequality": {"samples", "slack", "n"},
}


@pytest.mark.parametrize("name", sorted(CHECK_SETTINGS))
def test_each_check_accepts_its_settings_and_no_other(name):
    assert set(CHECK_SETTINGS) == set(cli.CHECK_TABLE)
    with pytest.raises(ConfigError) as exc:
        cli._check_params({"check_params": {name: {"no_such_setting": 1.0}}})
    accepted = ast.literal_eval(str(exc.value).split("accepted: ")[1])
    assert set(accepted) == CHECK_SETTINGS[name]


def test_a_check_wrapped_in_its_module_still_takes_its_settings(tmp_path, monkeypatch):
    # a wrapper of *args, **kwargs over every module-level name bound to the
    # check, as a tracer installs it, keeps the settings and sees the call
    from maflow import flow, geometry, grid, io, psh, verify

    orig, calls = verify.check_energy_monotonicity, []

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return orig(*args, **kwargs)

    for module in (cli, flow, geometry, grid, io, psh, verify):
        for name, value in list(vars(module).items()):
            if value is orig:
                monkeypatch.setattr(module, name, wrapper)
    cfg_path = scenario_09_with(tmp_path, {"energy": {"slack": 1e-8}})
    assert cli.main(["run", "--config", str(cfg_path), "--check", "energy"]) == 0
    assert calls == [{"slack": 1e-8}]


# A valid 16^2 document with a short horizon and no checks.  Each mutation
# below changes one value of it, so a refusal must name that value's key path.
MUTATION_BASE = {
    "grid": {"n": 1, "resolution": 16},
    "metric": {"kind": "constant"},
    "volume": {"kind": "cosine", "amplitude": 0.2, "axis": 0},
    "driving": {"kind": "affine", "constant": 0.0, "slope": 0.5},
    "initial": {"kind": "fourier-sum", "modes": [[0.01, [1, 0], 0.0]]},
    "flow": {"horizon": 0.004, "t_min": 1e-3, "ratio": 1.5, "probes": [0.004]},
    "check_params": {"energy": {"slack": 1e-8}},
    "checks": [],
    "seed": 0,
}
REQUIRED = ("grid", "initial", "flow", "flow.horizon", "initial.modes")
REPLACEMENTS = ("x", True, None, 2.5, 3, [], {})


def locations(node, at=()):
    """The index path (dict keys and list positions) of every value below node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield at + (key,)
        yield from locations(child, at + (key,))


def json_type(value) -> str:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


def run_captured(doc):
    """(exit code, stderr) of `maflow run` on doc, in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "doc.json"
        cfg_path.write_text(json.dumps(doc))
        err = _io.StringIO()
        with contextlib.redirect_stdout(_io.StringIO()), contextlib.redirect_stderr(err):
            argv = ["run", "--config", str(cfg_path), "--out", str(Path(tmp) / "out")]
            code = cli.main(argv)
    return code, err.getvalue()


def test_the_mutation_base_document_runs():
    assert run_captured(MUTATION_BASE) == (0, "")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_document_exits_two_naming_its_key(data):
    doc = copy.deepcopy(MUTATION_BASE)
    spots = list(locations(doc))
    how = data.draw(st.sampled_from(["type", "spelling", "drop"]))
    if how == "drop":
        at = tuple(data.draw(st.sampled_from(REQUIRED)).split("."))
    elif how == "spelling":
        at = data.draw(st.sampled_from([a for a in spots if isinstance(a[-1], str)]))
    else:
        at = data.draw(st.sampled_from(spots))
    parent = functools.reduce(lambda node, key: node[key], at[:-1], doc)
    if how == "drop":
        del parent[at[-1]]
    elif how == "spelling":
        at = at[:-1] + (at[-1] + at[-1][-1],)
        parent[at[-1]] = parent.pop(at[-1][:-1])
    else:
        old = json_type(parent[at[-1]])
        parent[at[-1]] = data.draw(
            st.sampled_from([v for v in REPLACEMENTS if json_type(v) != old])
        )
    code, err = run_captured(doc)  # raises if an exception leaves cli.main
    assert code == 2
    assert ".".join(k for k in at if isinstance(k, str)) in err


def test_check_params_of_a_skipped_check_are_accepted(tmp_path):
    cfg_path, _ = write_doc(tmp_path, check_params={"energy": {"slack": 1.0}})
    assert cli.main(["run", "--config", str(cfg_path), "--check", "residual-certificate"]) == 0


def run_scenario(stem, out):
    assert cli.main(["run", "--config", str(scenario_path(stem)), "--out", str(out)]) == 0
    return json.loads((out / "margins.json").read_text())


@pytest.mark.parametrize("stem", ["03-mode-decay", "04-comparison-pair", "09-energy-monotone"])
def test_plain_verify_replays_the_documents_archive_checks(tmp_path, stem):
    live = run_scenario(stem, tmp_path / "out")
    assert cli.main(["verify", str(tmp_path / "out"), "--out", str(tmp_path / "replay")]) == 0
    replay = json.loads((tmp_path / "replay" / "margins.json").read_text())
    assert [r["check"] for r in replay] == [r["check"] for r in live]


def test_plain_verify_keeps_the_reports_run_wrote(tmp_path):
    initial_b = {"kind": "fourier-sum", "modes": [[0.02, [0, 1], 0.0]]}
    cfg_path, _ = write_doc(
        tmp_path, initial_b=initial_b, checks=["stability", "residual-certificate"]
    )
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    written = {name: (out / name).read_bytes() for name in ("margins.json", "margins.csv")}
    assert cli.main(["verify", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in written} == written
    replay = json.loads((out / "replay" / "margins.json").read_text())
    assert [r["check"] for r in replay] == ["residual-certificate"]  # stability is live-only


def test_verify_replays_the_archived_comparison_pair(tmp_path):
    live = run_scenario("04-comparison-pair", tmp_path / "out")
    replay_dir = tmp_path / "replay"
    argv = ["verify", str(tmp_path / "out"), "--check", "comparison", "--out", str(replay_dir)]
    assert cli.main(argv) == 0
    replay = json.loads((replay_dir / "margins.json").read_text())
    live = [r for r in live if r["check"] == "comparison"]
    assert [r["check"] for r in replay] == ["comparison"]
    assert [r["margin"] for r in replay] == [r["margin"] for r in live]


@pytest.mark.parametrize("argv", [["verify"], ["series", "osc"]])
def test_a_truncated_manifest_exits_two_naming_it(tmp_path, capsys, argv):
    cfg_path, _ = write_doc(tmp_path, checks=[])
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text()[:100])
    assert cli.main([argv[0], str(out), *argv[1:]]) == 2
    assert str(manifest) in capsys.readouterr().err


def test_verify_names_a_nef_family_archive_and_its_members(tmp_path, capsys):
    # the layout `maflow nef` writes: family.json beside one archive per member
    family = tmp_path / "family"
    for member in ("eps_0p2", "eps_0p1", "witness"):
        (family / member).mkdir(parents=True)
        (family / member / "manifest.json").write_text("{}")
    (family / "family.json").write_text(json.dumps({"format": "nef-family-v1"}))
    assert cli.main(["verify", str(family)]) == 2
    err = capsys.readouterr().err
    assert "nef family archive" in err and "manifest.json" not in err
    for member in ("eps_0p2", "eps_0p1", "witness"):
        assert str(family / member) in err


def test_verify_names_an_audit_mode_archive(tmp_path, capsys):
    # an audit-mode run writes only its margin reports
    audit = tmp_path / "audit"
    audit.mkdir()
    (audit / "margins.json").write_text("[]")
    (audit / "margins.csv").write_text("check,margin\n")
    assert cli.main(["verify", str(audit)]) == 2
    err = capsys.readouterr().err
    assert "audit-mode archive" in err and "nothing to replay" in err
    assert "manifest.json" not in err


def test_verify_parses_a_cascade_manifest_once(tmp_path, monkeypatch):
    from maflow import io as archive_io

    cli.main(["run", "--config", str(seeded_cascade_doc(tmp_path))])
    real, names = archive_io.read_json, []
    def read_json(path):
        names.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(archive_io, "read_json", read_json)
    cli.main(["verify", str(tmp_path / "out"), "--out", str(tmp_path / "replay")])
    assert names.count("manifest.json") == 1


# ---------------------------------------------------------------------------
# a run that fails leaves its output directory as it found it

# theta(t) = (1 - 20 t) I leaves the cone at t = 0.05, after several stored snapshots
CONE_EXIT = {
    "metric": {"kind": "affine", "chi": [[-20.0]]},
    "initial": {"kind": "constant", "value": 0.0},
    "flow": {"horizon": 0.1, "t_min": 1e-3, "ratio": 1.3},
}


def tree(directory):
    """{relative path: bytes or None for a directory} of everything under directory."""
    return {
        str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
        for p in sorted(directory.rglob("*"))
    }


@pytest.mark.parametrize("state", ["absent", "empty", "older-archive"])
def test_a_failed_run_leaves_out_unchanged(tmp_path, capsys, monkeypatch, state):
    from maflow import io as archive_io

    out = tmp_path / "runs" / "out"
    if state == "empty":
        out.mkdir(parents=True)
    elif state == "older-archive":
        older, _ = write_doc(tmp_path, name="older.json")
        assert cli.main(["run", "--config", str(older), "--out", str(out)]) == 0
    before = tree(tmp_path)
    added = []
    real_add = archive_io.ArchiveStore.add
    monkeypatch.setattr(
        archive_io.ArchiveStore, "add", lambda self, *a: added.append(a[0]) or real_add(self, *a)
    )
    cfg_path, _ = write_doc(tmp_path, name="failing.json", **CONE_EXIT)
    before[cfg_path.name] = cfg_path.read_bytes()
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "leaves the positivity cone" in capsys.readouterr().err
    assert len(added) >= 5  # the run streamed snapshots before it failed
    assert tree(tmp_path) == before


def test_a_run_over_an_older_archive_replaces_its_files(tmp_path):
    out = tmp_path / "out"
    longer = {"horizon": 0.2, "t_min": 1e-3, "ratio": 1.3}
    first, _ = write_doc(tmp_path, name="first.json", flow=longer)
    assert cli.main(["run", "--config", str(first), "--out", str(out)]) == 0
    second, _ = write_doc(tmp_path, name="second.json")
    assert cli.main(["run", "--config", str(second), "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert cli.main(["run", "--config", str(second), "--out", str(fresh)]) == 0
    names = {p.name for p in fresh.iterdir()}
    assert {p.name for p in out.iterdir()} > names  # the longer run's later snapshots stay
    assert all((out / n).read_bytes() == (fresh / n).read_bytes() for n in names)
    assert not any(p.name.startswith(".") for p in tmp_path.iterdir())  # no staging left


# ---------------------------------------------------------------------------
# a damaged archive exits 2 and names what is wrong


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_verify_names_a_damaged_snapshot_file(tmp_path, capsys, damage):
    cfg_path, _ = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    snap = out / "phi_000000.bin"
    if damage == "missing":
        snap.unlink()
    else:
        snap.write_bytes(snap.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="phi_000000.bin"):
        load_trajectory(out)  # before any snapshot is read
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert "phi_000000.bin" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["grid", "snapshots", "schedule"])
def test_verify_names_a_key_the_manifest_lacks(tmp_path, capsys, key):
    cfg_path, _ = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest[key]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 2
    assert repr(key) in capsys.readouterr().err


# -- the array estimate and the refusal of a run that cannot fit -----------------


def n2_doc(resolution, out=None):
    """A smooth n = 2 flow with a cosine volume and the audit's checks, on resolution^4."""
    modes = [[0.012, [1, 0, 1, 0], 0.3], [0.011, [0, 1, 0, 1], 1.1], [0.014, [1, 1, 0, 0], 2.0]]
    doc = base_doc(
        out,
        grid={"n": 2, "resolution": resolution},
        volume={"kind": "cosine", "amplitude": 0.2, "axis": 2},
        initial={"kind": "fourier-sum", "modes": modes},
        mode="single",
        flow={"horizon": 0.1, "t_min": 1e-3, "ratio": 1.2, "probes": [0.05, 0.1]},
        checks=["apriori-bounds", "energy", "residual-certificate"],
    )
    return doc


@pytest.mark.parametrize("resolution", [8, 16])
def test_the_array_estimate_is_within_a_tenth_of_the_traced_peak(tmp_path, resolution):
    import tracemalloc

    doc = n2_doc(resolution)
    for attempt in range(2):  # the first pass fills the operators' caches
        tracemalloc.start()
        try:
            _, ctx, _ = cli.integrate_scenario(doc, out=tmp_path / f"run{attempt}")
            run_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cli.execute_checks(doc["checks"], ctx)
            checks_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the run, not the audit after it, holds the most
    assert run_peak > checks_peak
    assert cli.array_estimate(doc) == pytest.approx(run_peak, rel=0.1)


def test_the_readme_quotes_the_array_estimate_of_an_n2_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split())
    match = re.search(r"16\^4 comes to about ([\d.]+) MB and at 32\^4 to about (\d+) MB", text)
    assert match is not None
    # quoted to one decimal and to the megabyte
    assert f"{cli.array_estimate(n2_doc(16)) / 1e6:.1f}" == match[1]
    assert f"{cli.array_estimate(n2_doc(32)) / 1e6:.0f}" == match[2]


# Runs and then verifies a scenario document; prints whether numpy.ma and
# OpenSSL's hashlib backend were imported.
RUN_AND_VERIFY = """
import sys
from maflow import cli
codes = [cli.main(["run", "--config", sys.argv[1]]), cli.main(["verify", sys.argv[2]])]
print(codes, "numpy.ma" in sys.modules, "_hashlib" in sys.modules)
"""


def test_run_and_verify_leave_numpy_ma_unimported(tmp_path):
    # importing numpy.ma costs about 1.3 MB of resident memory; np.unique makes it.
    # _hashlib maps OpenSSL's libcrypto, about 3.6 MB; importing hashlib makes it
    cfg_path, _ = write_doc(tmp_path, checks=["apriori-bounds", "residual-certificate"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_AND_VERIFY, str(cfg_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0] False False"


def test_a_run_too_large_to_fit_exits_two_before_it_allocates(tmp_path, capsys, monkeypatch):
    import tracemalloc

    def integrate(*args, **kwargs):
        raise AssertionError("a refused run was integrated")

    monkeypatch.setattr(cli, "integrate_scenario", integrate)
    doc = n2_doc(128, tmp_path / "out")
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = cli.main(["run", "--config", str(cfg_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    # one 128^4 field is 2 GiB; the refusal made nothing near one
    assert peak < 2**20
    estimate = cli.array_estimate(doc)
    assert estimate > cli.ARRAY_BUDGET
    err = capsys.readouterr().err
    assert f"{estimate / 2**20:,.0f} MiB" in err and "flow.ARRAY_BUDGET" in err
    assert not (tmp_path / "out").exists()


def test_a_replay_too_large_to_fit_exits_two_before_it_loads(tmp_path, capsys, monkeypatch):
    import tracemalloc

    cfg_path, _ = write_doc(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    # the archive's scenario, as the replay estimates it, is on a 128^4 grid
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["run_config"]["grid"] = {"n": 2, "resolution": 128}
    (out / "manifest.json").write_text(json.dumps(manifest))

    def load(*args, **kwargs):
        raise AssertionError("a refused replay was loaded")

    monkeypatch.setattr(cli.archive_io, "load_trajectory", load)
    monkeypatch.setattr(cli.archive_io, "load_cascade", load)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    estimate = cli.replay_estimate(manifest["run_config"], manifest)
    assert estimate > cli.ARRAY_BUDGET
    err = capsys.readouterr().err
    assert f"{estimate / 2**20:,.0f} MiB" in err and "flow.ARRAY_BUDGET" in err
    assert not (out / "replay").exists()


def test_a_mode_adds_the_snapshots_it_keeps_in_memory(tmp_path):
    from maflow import flow

    doc = n2_doc(8)
    grid = cli.build_grid(doc)
    field = 8 * 8**4
    stored = int(np.count_nonzero(flow.stored_steps(cli.build_flow_config(doc))))
    assert cli.array_estimate(doc) == flow.peak_array_bytes(grid)
    # a cascade keeps every level's fields and phidots, and its ladder
    cascade = {**doc, "mode": "cascade", "schedule": {"deltas": [0.25, 0.125]}}
    assert cli.array_estimate(cascade) == flow.peak_array_bytes(grid) + (4 * stored + 3) * field
    # a nef family keeps every member's and the witness's
    metric = {"kind": "nef", "theta0": [[1.0, 0.0], [0.0, 0.0]], "eps": [0.2, 0.1]}
    nef = {**doc, "mode": "nef", "metric": metric}
    assert cli.array_estimate(nef) == flow.peak_array_bytes(grid) + 6 * stored * field


def test_a_replay_estimate_adds_the_ladder_a_cascade_archive_reads():
    from maflow import flow

    doc = n2_doc(8)
    grid = cli.build_grid(doc)
    assert cli.replay_estimate(doc, {}) == flow.audit_array_bytes(grid)
    # the audit phase, without a run's iterates and correction, is the smaller
    assert flow.audit_array_bytes(grid) < flow.peak_array_bytes(grid)
    cascade = {**doc, "mode": "cascade", "schedule": {"deltas": [0.25, 0.125]}}
    ladder = 3 * 8 * 8**4  # two levels and their base
    assert cli.replay_estimate(cascade, {"cascade": {}}) == flow.audit_array_bytes(grid) + ladder


def test_a_broadcast_volume_gives_the_bits_of_its_full_grid_copy():
    from maflow import geometry
    from maflow.flow import TrajectoryAudit, run

    doc = json.loads(scenario_path("08-twisted-upper-bound").read_text())
    grid, cfg = cli.build_grid(doc), cli.build_flow_config(doc)
    ctx = cli._context(doc, grid, cfg)
    omega = ctx.omega
    assert omega.density.shape == (grid.resolution, 1)  # varies along x only
    full = geometry.VolumeForm(grid, np.broadcast_to(omega.density, grid.shape).copy())
    phi0 = ctx.initial.sample(grid)
    trajs = [run(phi0, ctx.path, ctx.F, volume, cfg) for volume in (omega, full)]
    for a, b in zip(trajs[0].fields + trajs[0].phidots, trajs[1].fields + trajs[1].phidots):
        assert a.values.tobytes() == b.values.tobytes()
    assert trajs[0].diagnostics == trajs[1].diagnostics
    audits = [TrajectoryAudit(trajs[0], ctx.path, ctx.F, volume) for volume in (omega, full)]
    for k in range(len(trajs[0].times)):
        assert audits[0].row(k) == audits[1].row(k)
    assert audits[0].certificate() == audits[1].certificate() > 1.0
