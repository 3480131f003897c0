"""The summary of `benchmarks/ab.py`, on fixed numbers, and one small run
of a tree against itself."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_minimum_median_wins_and_ratio():
    s = ab.summarize([1.0, 1.2, 1.1, 1.3], [0.9, 1.25, 1.0, 1.2])
    assert s["parent"] == (1.0, 1.15)
    assert s["change"] == (0.9, 1.1)
    assert (s["wins"], s["rounds"]) == (3, 4)
    assert s["ratio"] == 1.15 / 1.1
    lo, hi = s["interval"]
    assert lo <= s["ratio"] <= hi


def test_a_tie_is_no_win():
    s = ab.summarize([2.0, 3.0], [2.0, 3.5])
    assert s["wins"] == 0


def test_identical_sides_hold_one():
    times = [0.21, 0.19, 0.24, 0.2, 0.23, 0.18, 0.22, 0.2, 0.25, 0.19, 0.21, 0.2]
    s = ab.summarize(times, list(times))
    assert s["ratio"] == 1.0 and s["interval"] == (1.0, 1.0)
    # the same times in another order, as two copies of one tree give
    s = ab.summarize(times, times[6:] + times[:6])
    lo, hi = s["interval"]
    assert lo < 1.0 < hi


def test_a_clear_speedup_excludes_one():
    parent = [1.0, 1.02, 0.99, 1.01, 1.03, 1.0, 0.98, 1.01, 1.02, 1.0]
    change = [t / 1.1 for t in parent]
    s = ab.summarize(parent, change)
    assert s["wins"] == 10
    assert s["interval"][0] > 1.0


def test_the_interval_is_reproducible():
    parent, change = [1.0, 1.3, 1.1, 1.2, 0.9], [1.1, 1.0, 1.2, 0.95, 1.05]
    assert ab.summarize(parent, change) == ab.summarize(parent, change)


@pytest.mark.parametrize("parent, change", [([1.0, 2.0], [1.0]), ([], [])])
def test_unequal_or_empty_sides_are_rejected(parent, change):
    with pytest.raises(ValueError):
        ab.summarize(parent, change)


def test_a_tree_against_itself(capsys):
    # each side is the tree's own package under its own name
    try:
        rc = ab.main(
            ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "cc1_falsify",
             "--seeds", "41-42"]
        )
        parent, change = sys.modules["athena_parent"], sys.modules["athena_change"]
        assert parent is not change
        assert parent.models._operators is not change.models._operators
        assert parent.models._operators and change.models._operators
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] in ("athena_parent", "athena_change")]:
            del sys.modules[name]
    out = capsys.readouterr().out
    assert rc == 0
    assert f"cc1_falsify: {ab.ROUNDS} ABBA rounds of seeds 41-42 (2 runs each)" in out
    assert "fingerprints: identical on all 2 seeds" in out
