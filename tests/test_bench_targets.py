"""The names the benchmark reads from maflow resolve and keep their meaning.

bench/spans.py wraps each name in PHASE_TARGETS and FULL_TARGETS at run time,
and bench/harness.py replays the scenario checks listed in cli.ARCHIVE_CHECKS
and reads each report's name, passed flag and margin.  A renamed or deleted
name would crash the benchmark, so it fails here.
"""

import math
import runpy
from pathlib import Path

import pytest

from maflow import cli, flow, geometry, grid, io, psh, verify

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (cli, flow, geometry, grid, io, psh, verify)}


def resolves(name: str) -> bool:
    module, attr = name.split(".", 1)
    owner = MODULES.get(module)
    if owner is None:
        return False
    if "." in attr:  # a method, patched on its class
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls is not None and callable(vars(cls).get(meth))
    return callable(getattr(owner, attr, None))


def test_every_span_target_resolves():
    spans = runpy.run_path(str(SPANS))
    targets = dict.fromkeys(spans["PHASE_TARGETS"] + spans["FULL_TARGETS"])
    assert [name for name in targets if not resolves(name)] == []


def test_archive_checks_name_checks_of_the_table():
    assert type(cli.ARCHIVE_CHECKS) is tuple
    assert cli.ARCHIVE_CHECKS
    assert set(cli.ARCHIVE_CHECKS) <= set(cli.CHECK_TABLE)


@pytest.mark.parametrize("margin", [0.0, -0.0, 1e-300, -1e-300, 2.5, -2.5, math.inf, -math.inf])
def test_report_passed_is_margin_nonnegative(margin):
    report = verify.MarginReport(name="demo", anchor="demo-anchor", margin=margin)
    assert report.passed is (margin >= 0.0)
    assert report.as_dict()["passed"] is (margin >= 0.0)
    with pytest.raises(TypeError):
        verify.MarginReport(name="demo", anchor="demo-anchor", margin=margin, passed=True)
