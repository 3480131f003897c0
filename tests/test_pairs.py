"""The summary of `benchmarks/pairs.py`, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_higher_is_better_counts_wins_losses_and_no_ties():
    s = pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 4.0, 3.0, 6.0], "higher")
    assert s["parent"] == (2.0, 3.0, 4.0)
    assert s["change"] == (2.0, 3.0, 4.0)
    assert (s["wins"], s["losses"], s["pairs"]) == (3, 1, 5)


def test_lower_is_better_reverses_the_direction():
    s = pairs.summarize([10.0, 20.0, 30.0, 40.0], [9.0, 21.0, 30.0, 35.0], "lower")
    assert (s["wins"], s["losses"], s["pairs"]) == (2, 1, 4)
    assert s["parent"] == (17.5, 25.0, 32.5)
    assert s["change"] == (18.0, 25.5, 31.25)


def test_one_pair_is_its_own_quartiles():
    s = pairs.summarize([4394.0], [4394.0], "higher")
    assert s["parent"] == s["change"] == (4394.0, 4394.0, 4394.0)
    assert (s["wins"], s["losses"]) == (0, 0)


def test_unequal_sides_are_rejected():
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "higher")


@pytest.mark.parametrize(
    "text, seeds", [("41-44", [41, 42, 43, 44]), ("7", [7]), ("3-3", [3])]
)
def test_seed_ranges(text, seeds):
    assert pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["5-4", "-1", "a-b", ""])
def test_bad_seed_ranges(text):
    with pytest.raises(ValueError):
        pairs.parse_seeds(text)


def test_only_the_last_report_line_is_read():
    out = '{"metrics": {}}\n{"correct": true, "failed": 0, "metrics": {}}\n\n'
    assert pairs.last_report(out) == {"correct": True, "failed": 0, "metrics": {}}
    assert pairs.last_report("perfbench: CHECK FAILED\n") is None
    assert pairs.last_report("") is None
