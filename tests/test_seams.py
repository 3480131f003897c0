"""The layer-timing contract of perfbench/seams.py, checked on short runs.

`perfbench/run.py --trace 1` times each layer by rebinding the names the
search looks up at call time (`Seams`), and fails its run when a seam is
missing or sees a call count the search cannot produce: one `simulate`
per iteration, one `robustness` and one `manual_fitness` per assessed
candidate. This suite runs each perfbench workload's problem for a few
iterations under those seams, as the benchmark does, and requires the
counts to hold and the timed runs to repeat the untimed ones. It imports
`seams` and changes nothing in it.
"""

import sys
from pathlib import Path

import pytest

import athena
import athena.harness
from athena.harness import config_from_dict, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from seams import Seams  # noqa: E402

# the problems of perfbench/run.py's three workloads: the AT2 and CC1
# catalog entries and its inline passthrough problem
WORKLOADS = {
    "at2_budget": {"entry": "AT2", "mode": "athena"},
    "cc1_falsify": {"entry": "CC1", "mode": "athena"},
    "passthrough_spec": {
        "plant": "passthrough",
        "formula": "G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1)))"
        " and G[0,100] (F[0,20] (y <= 2))",
        "manual": "scale(mean(y,[0,60]),[0,1]) - scale(ptp(x,[30,120]),[0,1])"
        " + 0.5 * scale(max(y - x,[10,90]),[0,1]) - 0.1 * slope_up(x,[0,120])",
        "assumption": "x:linear:0,1:9",
        "auto_scale": 2.0,
        "step": 0.01,
        "mode": "athena",
    },
}


def _fingerprints(seams):
    return [
        (seed, r.found, r.iterations_used, r.best_robustness, r.best_combined, r.history)
        for seed, _, r in seams.take_results()
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_hold_and_timing_changes_nothing(workload):
    cfg = config_from_dict(
        dict(WORKLOADS[workload], repetitions=2, base_seed=5, search={"max_iterations": 20})
    )
    runs = []
    for timed in (False, True):
        seams = Seams(athena, timed=timed)
        with seams:
            report = run_experiment(cfg, jobs=1, timestamp=False)
        assert all(row.error is None for row in report.rows)
        if timed:
            seams.check_counts()
            assert seams.calls("simulate") == seams.iterations > 0
        runs.append(_fingerprints(seams))
    untimed, timed = runs
    assert len(untimed) == 2
    assert timed == untimed
