"""Full-budget golden search outcomes, outside the tier-1 suite (under 30 s).

The tier-1 goldens (`tests/test_catalog_goldens.py`) stop every run at 60
simulations. Here the same 11 catalog entries x 3 modes x seeds 0-2 run at
the default budget of 300, so a change that moves a trajectory late in a
run, or only on entries that rarely falsify early, fails too. Outcomes
must match `data/catalog_goldens_full.json` under the tier-1 rules.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_catalog_goldens_full.py

Re-record, only when a change of search behaviour is intended:

    PYTHONPATH=src python benchmarks/test_catalog_goldens_full.py
"""

import json
import sys
from pathlib import Path

import pytest

from athena.catalog import catalog_ids
from athena.harness import MODES

# the tier-1 goldens module holds the run and compare rules both tables share
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_catalog_goldens import check_covers_catalog, check_outcomes, record  # noqa: E402

GOLDENS = Path(__file__).parent / "data" / "catalog_goldens_full.json"
BUDGET = 300


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def test_full_goldens_cover_catalog(goldens):
    check_covers_catalog(goldens, BUDGET)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("entry", catalog_ids())
def test_full_budget_outcomes_match_goldens(goldens, entry, mode):
    check_outcomes(goldens, entry, mode)


if __name__ == "__main__":
    record(GOLDENS, BUDGET)
