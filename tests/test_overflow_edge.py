"""End-to-end runs on input boxes near the float maximum.

Each box is at most 1.7e308 wide, so its width is finite. On the wider
boxes the linear and pchip samples pass their overflow bound, and on
chasing_cars every box passes the superposition bound, so the runs take
the paths past those bounds. Every run finishes with no numpy warning
(pyproject turns warnings into errors), every row's error is None or a
ValueError, and the report parses as strict JSON, with no NaN or
Infinity constant.
"""

import json

import pytest

from athena.harness import ExperimentConfig, parse_assumption, run_experiment
from athena.models import builtin
from athena.search import SearchConfig

# plant: (formula, manual, the swept port, the other ports' boxes)
PLANTS = {
    "chasing_cars": (
        "G[0,100] (y5 - y4 <= 40)",
        "scale(max(brake,[0,100]),[0,1]) - scale(min(throttle,[0,100]),[0,1])"
        " + scale(mean(throttle,[0,50]),[0,1])",
        "throttle",
        ";brake:pchip:0,1:3",
    ),
    "at_lite": (
        "G[0,20] (Speed < 120)",
        "scale(max(Brake,[0,25]),[0,325]) - scale(mean(Throttle,[0,17]),[0,100])",
        "Throttle",
        ";Brake:pchip:0,325:3",
    ),
    "passthrough": (
        "G[0,10] (y < 2)",
        "scale(max(x,[0,10]),[0,1]) - scale(mean(x,[0,5]),[0,1])",
        "x",
        "",
    ),
}

# kind, range and count of the swept port
BOXES = [
    f"{kind}:{span}:{n}"
    for kind, n in (("pchip", 7), ("linear", 4), ("pconst", 3), ("const", 1))
    for span in ("1e305,1e306", "-8e307,8e307", "0,1.7e308")
]


def strict_json(text: str):
    """`json.loads` that rejects NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_runs_finish_with_ordinary_rows_and_strict_json(plant, box):
    formula, manual, port, others = PLANTS[plant]
    cfg = ExperimentConfig(
        plant=builtin(plant),
        formula_text=formula,
        manual_text=manual,
        assumption=parse_assumption(f"{port}:{box}{others}"),
        repetitions=2,
        search=SearchConfig(max_iterations=4),
    )
    report = run_experiment(cfg)
    for row in report.rows:
        assert row.error is None or row.error.startswith("ValueError: ")
    strict_json(json.dumps(report.to_dict(timing=False)))


@pytest.mark.parametrize(
    "manual",
    ["scale(max(2 * y - 2 * x,[0,1]),[0,1])", "max(2 * y - 2 * x,[0,1])"],
    ids=["scaled", "unscaled"],
)
def test_nan_window_ends_the_run_with_an_error_row(manual):
    # 2 * y and 2 * x overflow to inf, and their difference is NaN: scaled
    # or not, the manual fitness is NaN, which ends each run at its first
    # simulation with the same error, not with a score
    cfg = ExperimentConfig(
        plant=builtin("passthrough"),
        formula_text="G[0,1] (y >= 0)",
        manual_text=manual,
        assumption=parse_assumption("x:linear:1.5e308,1.7e308:2"),
        step=0.5,
        repetitions=2,
        search=SearchConfig(max_iterations=5),
    )
    for row in run_experiment(cfg).rows:
        assert row.iterations == 1
        assert row.best_combined is None
        assert row.error == "ValueError: fitness parts must be finite, got fa=1.0, fm=nan"
