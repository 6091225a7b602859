"""Command-line driver: exit statuses, archives, reports, and series export."""

import csv
import io as _io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from maflow import cli
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
    margins = json.loads((out / "margins.json").read_text())
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
    margins = json.loads((tmp_path / "outA" / "margins.json").read_text())
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
    doc = {
        "grid": {"n": 1, "resolution": 64},
        "initial": {"kind": "max-kink"},
        "schedule": {"delta0": 0.25, "ratio": 0.5, "levels": 3},
    }
    cfg_path = tmp_path / "ladder.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "lad"
    assert cli.main(["regularize", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "ladder.json").read_text())
    assert set(report) == {"config_hash", "deltas", "shifts", "margins", "oscillation"}
    assert report["config_hash"] == config_hash(doc)
    assert len(report["deltas"]) == 3
    for j in range(3):
        assert (out / f"level_{j:03d}.bin").is_file()
    assert (out / "base.bin").is_file()
    assert "level 0: delta=0.25" in capsys.readouterr().out


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


def test_check_params_of_a_skipped_check_are_accepted(tmp_path):
    cfg_path, _ = write_doc(tmp_path, check_params={"energy": {"slack": 1.0}})
    assert cli.main(["run", "--config", str(cfg_path), "--check", "residual-certificate"]) == 0
