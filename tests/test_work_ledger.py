"""The work each bundled scenario does matches the checked-in ledger exactly."""

import json

from maflow.scenarios import available
from work_ledger import LEDGER


def test_every_bundled_scenario_does_the_ledgers_work(scenario):
    # python tests/work_ledger.py regenerates the ledger after a deliberate change
    ledger = json.loads(LEDGER.read_text())
    assert {stem: scenario(stem).work for stem in available()} == ledger
