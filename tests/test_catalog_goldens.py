"""Golden search outcomes for every catalog entry in every fitness mode.

For each of the 11 catalog entries and the 3 modes, seeds 0-2 run at a
budget of 60 simulations, and each run's `found`, `iterations`,
`best_robustness` and `best_combined` must match `data/catalog_goldens.json`:
the first two exactly, the floats within a relative 1e-6 (null stands for a
non-finite score, as in reports). A change that moves any search trajectory
on any entry fails here.

Re-record, only when a change of search behaviour is intended, from the
repository root:

    PYTHONPATH=src python tests/test_catalog_goldens.py
"""

import json
import math
from pathlib import Path

import pytest

from athena.catalog import catalog_ids
from athena.harness import MODES, ExperimentConfig, json_float, run_experiment
from athena.search import SearchConfig

GOLDENS = Path(__file__).parent / "data" / "catalog_goldens.json"
SEEDS = 3
BUDGET = 60
RTOL = 1e-6


def outcomes(entry: str, mode: str, budget: int = BUDGET) -> list[dict]:
    cfg = ExperimentConfig(
        entry=entry,
        mode=mode,
        repetitions=SEEDS,
        base_seed=0,
        search=SearchConfig(max_iterations=budget),
    )
    rows = run_experiment(cfg, jobs=1).rows
    assert all(row.error is None for row in rows), [row.error for row in rows]
    return [
        {
            "seed": row.seed,
            "found": row.found,
            "iterations": row.iterations,
            "best_robustness": json_float(row.best_robustness),
            "best_combined": json_float(row.best_combined),
        }
        for row in rows
    ]


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-12)


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def check_covers_catalog(goldens: dict, budget: int) -> None:
    assert goldens["budget"] == budget
    assert sorted(goldens["outcomes"]) == sorted(
        f"{entry}/{mode}" for entry in catalog_ids() for mode in MODES
    )


def check_outcomes(goldens: dict, entry: str, mode: str) -> None:
    want = goldens["outcomes"][f"{entry}/{mode}"]
    got = outcomes(entry, mode, goldens["budget"])
    assert len(got) == len(want) == SEEDS
    for g, w in zip(got, want):
        assert (g["seed"], g["found"], g["iterations"]) == (
            w["seed"],
            w["found"],
            w["iterations"],
        ), (entry, mode, g, w)
        for key in ("best_robustness", "best_combined"):
            assert _close(g[key], w[key]), (entry, mode, key, g[key], w[key])


def record(path: Path, budget: int) -> None:
    path.parent.mkdir(exist_ok=True)
    table = {
        f"{entry}/{mode}": outcomes(entry, mode, budget)
        for entry in catalog_ids()
        for mode in MODES
    }
    path.write_text(
        json.dumps({"seeds": SEEDS, "budget": budget, "outcomes": table}, indent=1)
        + "\n"
    )
    print(f"wrote {len(table)} entry/mode outcomes to {path}")


def test_goldens_cover_catalog(goldens):
    check_covers_catalog(goldens, BUDGET)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("entry", catalog_ids())
def test_outcomes_match_goldens(goldens, entry, mode):
    check_outcomes(goldens, entry, mode)


if __name__ == "__main__":
    record(GOLDENS, BUDGET)
