"""The benchmark's traced names resolve on the maflow modules.

bench/spans.py wraps each name in PHASE_TARGETS and FULL_TARGETS at run time;
a renamed or deleted function would crash the benchmark, so it fails here.
"""

import runpy
from pathlib import Path

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
