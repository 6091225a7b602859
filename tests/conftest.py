"""Shared fixtures: bundled scenarios run once per session and are cached."""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from maflow import cli, geometry
from maflow.grid import TorusGrid
from maflow.scenarios import scenario_path
from work_ledger import KEYS, counting


@dataclass
class ScenarioOutcome:
    stem: str
    mode: str
    ctx: cli.RunContext
    reports: list = field(default_factory=list)
    work: dict = field(default_factory=dict)  # its flow runs' counts (work_ledger.KEYS)

    def report(self, name: str):
        hits = [r for r in self.reports if r.name == name]
        if not hits:
            raise KeyError(
                f"{self.stem} produced no report {name!r}; "
                f"have {[r.name for r in self.reports]}"
            )
        return hits[0]


_CACHE: dict = {}


def run_scenario(stem: str) -> ScenarioOutcome:
    """Integrate a bundled scenario and execute its declared checks, once, counting the work."""
    if stem in _CACHE:
        return _CACHE[stem]
    doc = json.loads(scenario_path(stem).read_text())
    with counting(dict.fromkeys(KEYS, 0)) as work:
        ctx = cli.scenario(doc)
        reports = cli.integrate_scenario(ctx)
        names = list(doc.get("checks", []))
        if "comparison" in names and ctx.traj_b is None and ctx.initial_b is not None:
            cli.run_comparison_pair(ctx)
        reports = list(reports) + cli.execute_checks(names, ctx)
    outcome = ScenarioOutcome(stem=stem, mode=ctx.mode, ctx=ctx, reports=reports, work=work)
    _CACHE[stem] = outcome
    return outcome


@pytest.fixture(scope="session")
def scenario():
    return run_scenario


def _varying_form(n: int, resolution: int = 8):
    """(grid, theta, phi): a constant theta and a potential whose theta + H(phi)
    varies in space; at n = 2 its h12 is complex and varies too.  resolution
    is the n = 2 grid's."""
    if n == 1:
        grid = TorusGrid(n=1, resolution=16)
        x, y = grid.coordinates()
        phi = 0.01 * np.cos(2 * np.pi * (x + y)) + 0.008 * np.sin(2 * np.pi * (2 * y - x))
        theta = geometry.form_from_matrix([[1.2]], 1)
    else:
        grid = TorusGrid(n=2, resolution=resolution)
        x1, y1, x2, y2 = grid.coordinates()
        phi = 0.01 * np.cos(2 * np.pi * (x1 + y2)) + 0.008 * np.sin(2 * np.pi * (y1 - x2 + x1))
        theta = geometry.form_from_matrix([[1.2, 0.1 + 0.2j], [0.1 - 0.2j, 0.9]], 2)
    return grid, theta, np.broadcast_to(phi, grid.shape).copy()


@pytest.fixture
def varying_form():
    return _varying_form
