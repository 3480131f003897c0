"""Tests for the experiment runner and the rank-sum comparison."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from athena.catalog import catalog, catalog_ids
from athena.harness import (
    ExperimentConfig,
    compare_reports,
    config_from_dict,
    parse_assumption,
    rank_sum,
    resolve,
    run_experiment,
    write_report,
)
from athena.models import Passthrough, PlantModel, PortSpec
from athena.search import SearchConfig
from athena.signals import InterpolationKind
from oracles import rank_sum_brute


def fast_config(**overrides):
    """Small passthrough experiment that falsifies about half the box."""
    base = dict(
        plant=Passthrough(),
        formula_text="G[0,10] (x < 0.5)",
        assumption=parse_assumption("x:const:0,1:1"),
        mode="athena",
        repetitions=6,
        base_seed=9,
        search=SearchConfig(max_iterations=40),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class Runaway(PlantModel):
    """v' = v^2 from v=1, whatever the input: every simulation diverges."""

    name = "runaway"
    port_spec = PortSpec(inputs=("u",), outputs=("v",))
    state_dim = 1

    def initial_state(self):
        return np.array([1.0])

    def derivative(self, state, u):
        return state * state

    def output(self, state, u):
        return state.copy()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestRankSum:
    def test_separated_groups(self):
        u, p = rank_sum([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == 0.1

    def test_identical_groups(self):
        u, p = rank_sum([3, 1, 2], [1, 2, 3])
        assert p == 1.0
        assert u == 4.5

    def test_single_pair(self):
        assert rank_sum([1], [2]) == (0.0, 1.0)

    def test_u_statistics_sum_to_pair_count(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.integers(0, 5, size=rng.integers(1, 7)).tolist()
            b = rng.integers(0, 5, size=rng.integers(1, 7)).tolist()
            u_a, p_ab = rank_sum(a, b)
            u_b, p_ba = rank_sum(b, a)
            assert u_a + u_b == pytest.approx(len(a) * len(b), abs=1e-12)
            assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_exact_path_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for n1, n2 in itertools.product(range(1, 5), range(1, 5)):
            for _ in range(4):
                a = rng.integers(0, 4, size=n1).tolist()
                b = rng.integers(0, 4, size=n2).tolist()
                u, p = rank_sum(a, b)
                u_ref, p_ref = rank_sum_brute(a, b)
                assert u == pytest.approx(u_ref, abs=1e-12)
                assert p == pytest.approx(p_ref, abs=1e-12)

    def test_exact_path_with_uneven_sizes(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 6, size=3).tolist()
        b = rng.integers(0, 6, size=12).tolist()
        u, p = rank_sum(a, b)
        u_ref, p_ref = rank_sum_brute(a, b)
        assert u == pytest.approx(u_ref, abs=1e-12)
        assert p == pytest.approx(p_ref, abs=1e-12)

    def test_normal_path_matches_scipy_without_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.permutation(100)[:12].tolist()
            b = (rng.permutation(100)[:15] + 0.5).tolist()
            u, p = rank_sum(a, b)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                           method="asymptotic")
            assert u == pytest.approx(float(ref.statistic), abs=1e-9)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_normal_path_matches_scipy_with_ties(self):
        rng = np.random.default_rng(23)
        a = rng.integers(0, 6, size=20).tolist()
        b = rng.integers(1, 7, size=18).tolist()
        u, p = rank_sum(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic")
        assert u == pytest.approx(float(ref.statistic), abs=1e-9)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_all_equal_normal_path(self):
        u, p = rank_sum([5.0] * 9, [5.0] * 9)
        assert p == 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rank_sum([], [1.0])
        with pytest.raises(ValueError, match="nonempty"):
            rank_sum([1.0], [])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rank_sum([1.0, math.nan], [2.0])


class TestParseAssumption:
    def test_two_ports(self):
        a = parse_assumption("Throttle:pchip:0,100:7;Brake:pchip:0,325:3")
        throttle, brake = a.ports
        assert throttle.port == "Throttle"
        assert throttle.kind is InterpolationKind.PCHIP
        assert (throttle.lo, throttle.hi, throttle.n) == (0.0, 100.0, 7)
        assert (brake.port, brake.lo, brake.hi, brake.n) == ("Brake", 0.0, 325.0, 3)

    def test_single_constant_port(self):
        a = parse_assumption("x:const:-1,1:1")
        assert a.dim == 1
        assert a.ports[0].kind is InterpolationKind.CONSTANT

    def test_spaces_tolerated(self):
        a = parse_assumption(" x : linear : 0 , 2 : 2 ")
        assert a.ports[0].kind is InterpolationKind.LINEAR
        assert a.ports[0].hi == 2.0

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x:pchip:0,1",
            "x:pchip:0:2",
            "x:pchip:zero,1:2",
            "x:pchip:0,1:2;",
            "x:warp:0,1:2",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_assumption(text)


class TestExperimentConfig:
    def test_entry_and_inline_exclusive(self):
        with pytest.raises(ValueError, match="exclusive"):
            ExperimentConfig(entry="CC1", formula_text="G[0,1] (x < 1)")

    def test_inline_needs_parts(self):
        with pytest.raises(ValueError, match="inline"):
            ExperimentConfig(plant=Passthrough(), formula_text="G[0,1] (x < 1)")

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            fast_config(mode="hybrid")

    def test_p_only_for_athena(self):
        with pytest.raises(ValueError, match="athena"):
            fast_config(mode="manual", p=0.5)
        with pytest.raises(ValueError, match="athena"):
            fast_config(mode="automatic", p_schedule=(1.0, 0.0))

    def test_effective_p(self):
        assert fast_config(mode="automatic").effective_p == 1.0
        assert fast_config(mode="manual").effective_p == 0.0
        assert fast_config(mode="athena").effective_p == 0.5
        assert fast_config(mode="athena", p=0.25).effective_p == 0.25

    def test_repetitions_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            fast_config(repetitions=0)


class TestRunExperiment:
    def test_rows_and_seeds(self):
        report = run_experiment(fast_config())
        assert len(report.rows) == 6
        assert [row.seed for row in report.rows] == [9, 10, 11, 12, 13, 14]
        assert [row.index for row in report.rows] == list(range(6))
        assert report.percentage == 100.0 * report.found / 6

    def test_unfalsifiable_reports_zero(self):
        report = run_experiment(
            fast_config(formula_text="G[0,10] (x < 2)", repetitions=4)
        )
        assert report.found == 0
        assert report.percentage == 0.0
        assert report.iteration_stats() is None
        assert all(row.best_robustness >= 1.0 for row in report.rows)

    def test_iteration_stats_over_found_only(self):
        report = run_experiment(fast_config(repetitions=10))
        stats = report.iteration_stats()
        found_iters = [row.iterations for row in report.rows if row.found]
        assert stats["min"] == min(found_iters)
        assert stats["max"] == max(found_iters)
        assert stats["mean"] == pytest.approx(np.mean(found_iters))
        assert stats["stddev"] == pytest.approx(np.std(found_iters))

    def test_deterministic_given_seed(self):
        cfg = fast_config()
        a = run_experiment(cfg).to_dict(timing=False)
        b = run_experiment(cfg).to_dict(timing=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_parallel_matches_serial(self):
        cfg = fast_config(repetitions=8)
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        assert serial.rows == parallel.rows

    def test_run_errors_recorded_not_fatal(self):
        cfg = fast_config(
            assumption=parse_assumption("z:const:0,1:1"), repetitions=3
        )
        report = run_experiment(cfg)
        assert report.found == 0
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.error is not None
            assert "PortMismatchError" in row.error
            assert row.best_robustness is None

    def test_modes_align_by_seed(self):
        auto = run_experiment(fast_config(mode="automatic"))
        manual = run_experiment(fast_config(mode="manual"))
        assert [r.seed for r in auto.rows] == [r.seed for r in manual.rows]
        assert auto.p == 1.0
        assert manual.p == 0.0

    def test_schedule_reported(self):
        report = run_experiment(fast_config(p_schedule=(1.0, 0.0), repetitions=2))
        payload = report.to_dict(timing=False)
        assert payload["p_schedule"] == [1.0, 0.0]

    def test_bad_jobs_env_rejected(self, monkeypatch):
        for raw in ("abc", "0", "-2", "1.5"):
            monkeypatch.setenv("ATHENA_JOBS", raw)
            with pytest.raises(ValueError, match="ATHENA_JOBS"):
                run_experiment(fast_config(repetitions=1))

    def test_jobs_env_read(self, monkeypatch):
        monkeypatch.setenv("ATHENA_JOBS", " 1 ")
        assert len(run_experiment(fast_config(repetitions=2)).rows) == 2


class TestResolve:
    def test_problem_holds_fitness_once(self):
        problem = resolve(fast_config(mode="automatic", auto_scale=2.0))
        assert problem.fitness.p == 1.0
        assert problem.fitness.auto_scale == 2.0
        assert str(problem.fitness.formula) == "G[0,10] (x < 0.5)"
        assert problem.grid.end == 10.0 and problem.grid.step == 0.05

    @pytest.mark.parametrize("entry_id", catalog_ids())
    def test_inline_matches_catalog_grid(self, entry_id):
        e = catalog(entry_id)
        inline = ExperimentConfig(
            plant=e.make_plant(),
            formula_text=e.formula_text,
            manual_text=e.manual_text,
            assumption=e.assumption,
            auto_scale=e.auto_scale,
            step=e.step,
        )
        grid = resolve(ExperimentConfig(entry=entry_id)).grid
        assert resolve(inline).grid == grid
        assert e.grid() == grid


class TestReportFiles:
    def test_write_and_reread(self, tmp_path):
        cfg = fast_config()
        report = run_experiment(cfg)
        json_path, csv_path = write_report(
            report, str(tmp_path / "exp"), timestamp=False
        )
        payload = json.loads(Path(json_path).read_text())
        assert payload["percentage"] == report.percentage
        assert payload["found"] == report.found
        assert len(payload["runs"]) == 6
        assert "timestamp" not in payload
        assert "wall_clock_seconds" not in payload
        header = Path(csv_path).read_text().splitlines()[0]
        assert header == "run,seed,found,iterations,best_robustness,best_combined,error"

    def test_timestamp_fields_present_by_default(self, tmp_path):
        report = run_experiment(fast_config(repetitions=2))
        json_path, _ = write_report(report, str(tmp_path / "exp"))
        payload = json.loads(Path(json_path).read_text())
        assert "timestamp" in payload
        assert payload["wall_clock_seconds"] >= 0.0

    def test_reports_byte_identical_without_timing(self, tmp_path):
        cfg = fast_config()
        write_report(run_experiment(cfg), str(tmp_path / "a"), timestamp=False)
        write_report(run_experiment(cfg), str(tmp_path / "b"), timestamp=False)
        for name in ("json", "runs.csv"):
            a = (tmp_path / f"a.{name}").read_bytes()
            assert a == (tmp_path / f"b.{name}").read_bytes()

    def test_csv_floats_roundtrip(self, tmp_path):
        report = run_experiment(fast_config())
        _, csv_path = write_report(report, str(tmp_path / "exp"), timestamp=False)
        lines = Path(csv_path).read_text().splitlines()[1:]
        for row, line in zip(report.rows, lines):
            cells = line.split(",")
            assert float(cells[4]) == row.best_robustness

    def test_out_field_writes_files(self, tmp_path):
        cfg = fast_config(out=str(tmp_path / "auto"))
        run_experiment(cfg, timestamp=False)
        assert (tmp_path / "auto.json").exists()
        assert (tmp_path / "auto.runs.csv").exists()

    def test_all_diverged_report_is_valid_json(self, tmp_path):
        cfg = fast_config(
            plant=Runaway(),
            formula_text="G[0,2] (v < 10)",
            assumption=parse_assumption("u:const:0,1:1"),
            step=0.01,
            repetitions=2,
            search=SearchConfig(max_iterations=3),
            out=str(tmp_path / "runaway"),
        )
        report = run_experiment(cfg, timestamp=False)
        assert all(math.isinf(row.best_robustness) for row in report.rows)
        text = (tmp_path / "runaway.json").read_text()
        payload = json.loads(text, parse_constant=reject_constant)
        for row in payload["runs"]:
            assert row["error"] is None
            assert row["iterations"] == 3
            assert row["best_robustness"] is None
            assert row["best_combined"] == 1.0

    def test_percentage_consistency(self, tmp_path):
        report = run_experiment(fast_config(repetitions=10))
        payload = report.to_dict(timing=False)
        recomputed = 100.0 * sum(r["found"] for r in payload["runs"]) / len(payload["runs"])
        assert payload["percentage"] == recomputed


class TestCompareReports:
    def test_compare_two_reports(self):
        a = run_experiment(fast_config(repetitions=10)).to_dict(timing=False)
        b = run_experiment(fast_config(repetitions=10, base_seed=40)).to_dict(timing=False)
        result = compare_reports(a, b)
        assert 0.0 < result["p_value"] <= 1.0
        assert result["percentage_delta"] == a["percentage"] - b["percentage"]
        assert result["found_a"] == a["found"]

    def test_compare_skips_rank_sum_when_empty(self):
        found = run_experiment(fast_config(repetitions=4)).to_dict(timing=False)
        empty = run_experiment(
            fast_config(formula_text="G[0,10] (x < 2)", repetitions=4)
        ).to_dict(timing=False)
        result = compare_reports(found, empty)
        assert result["p_value"] is None
        assert result["u_a"] is None
        assert result["percentage_b"] == 0.0

    def test_compare_identical_reports(self):
        a = run_experiment(fast_config(repetitions=10)).to_dict(timing=False)
        result = compare_reports(a, a)
        assert result["p_value"] == 1.0
        assert result["percentage_delta"] == 0.0


class TestConfigFromDict:
    def test_full_inline_config(self):
        cfg = config_from_dict(
            {
                "plant": "passthrough",
                "formula": "G[0,10] (x < 0.5)",
                "assumption": "x:const:0,1:1",
                "auto_scale": 2.0,
                "step": 0.1,
                "mode": "athena",
                "p": 0.75,
                "repetitions": 3,
                "base_seed": 11,
                "search": {"max_iterations": 25, "restart_after": 10},
                "out": "report",
            }
        )
        assert cfg.plant.name == "passthrough"
        assert cfg.auto_scale == 2.0
        assert cfg.step == 0.1
        assert cfg.p == 0.75
        assert cfg.repetitions == 3
        assert cfg.search.max_iterations == 25
        assert cfg.search.restart_after == 10
        assert cfg.search.cooling == 0.97
        assert cfg.out == "report"

    def test_catalog_config(self):
        cfg = config_from_dict({"entry": "CC1", "mode": "manual", "repetitions": 2})
        assert cfg.entry == "CC1"
        assert cfg.effective_p == 0.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            config_from_dict({"entry": "CC1", "reps": 2})

    def test_unknown_search_key_rejected(self):
        with pytest.raises(ValueError, match="unknown search"):
            config_from_dict({"entry": "CC1", "search": {"seed": 4}})

    def test_schedule_parsed(self):
        cfg = config_from_dict({"entry": "CC1", "p_schedule": [1.0, 0.0]})
        assert cfg.p_schedule == (1.0, 0.0)
