"""Tests for the experiment runner and the rank-sum comparison."""

import dataclasses
import importlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from athena.catalog import catalog, catalog_ids
from athena.errors import MissingChannelError, ParseError, PortMismatchError
from athena.fitness import FitnessAssessment, parse_manual
from athena.harness import (
    ExperimentConfig,
    ExperimentReport,
    _run_one,
    compare_reports,
    config_from_dict,
    parse_assumption,
    rank_sum,
    resolve,
    run_experiment,
    write_report,
)
from athena.models import Passthrough, PlantModel, PortSpec, builtin
from athena.search import SearchConfig, falsify
from athena.signals import InterpolationKind, TimeGrid
from athena.stl import parse
from oracles import rank_sum_brute


# a manual term that is infinite on every trace of the chasing_cars configs
# below, since the lead car starts 40 m ahead: scoring the first simulation
# raises ValueError
INFINITE_MANUAL = "max(y5,[0,10]) * 1e308"
INFINITE_ERROR = "ValueError: fitness parts must be finite"


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


def unchecked_port_mismatch(cfg):
    """The problem of `cfg` with an assumption port the plant does not
    have, built past `resolve`, which rejects it."""
    z = parse_assumption("z:const:0,1:1")
    return dataclasses.replace(resolve(cfg), assumption=z)


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


class OutputOverflow(PlantModel):
    """s' = u + 1 from s=0: the state stays finite, the output s * 1e309
    does not once s > 0."""

    name = "output_overflow"
    port_spec = PortSpec(inputs=("u",), outputs=("y",))
    state_dim = 1

    def derivative(self, state, u):
        return u + 1.0

    def output(self, state, u):
        return state * 1e308 * 10


class BrokenPlant(Passthrough):
    """A user plant with a programming error in its dynamics."""

    def fast_sim(self, u, grid):
        raise TypeError("bug in a user plant")


class FailsOnThirdCall(Passthrough):
    """A user plant whose domain ends on its third simulation."""

    def __init__(self):
        self.calls = 0

    def fast_sim(self, u, grid):
        self.calls += 1
        if self.calls == 3:
            raise ValueError("input outside the plant's domain")
        return super().fast_sim(u, grid)


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

    def test_normal_path_tie_heavy_matches_enumeration(self):
        # both groups >= 8 take the normal branch; U still comes from the
        # midranks, which the enumeration oracle computes independently
        a = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 1.0]
        b = [2.0, 3.0, 3.0, 3.0, 1.0, 3.0, 2.0, 3.0, 3.0]
        u, p = rank_sum(a, b)
        u_ref, _ = rank_sum_brute(a, b)
        assert u == pytest.approx(u_ref, abs=1e-12)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic")
        assert u == pytest.approx(float(ref.statistic), abs=1e-12)
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

    def test_overflowing_width_rejected(self):
        # hi - lo overflows to inf, so no uniform draw over the box exists
        with pytest.raises(ValueError, match="width hi - lo must be finite"):
            parse_assumption("x:linear:-1e308,1e308:3")
        assert parse_assumption("x:linear:-8e307,8e307:3").ports[0].lo == -8e307


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

    def test_entry_and_auto_scale_exclusive(self):
        # a catalog entry fixes its own auto_scale
        with pytest.raises(ValueError, match="exclusive"):
            ExperimentConfig(entry="AT1", auto_scale=5.0)
        with pytest.raises(ValueError, match="exclusive"):
            config_from_dict({"entry": "AT1", "auto_scale": 5})

    def test_p_and_p_schedule_exclusive(self):
        with pytest.raises(ValueError, match="exclusive"):
            config_from_dict({"entry": "AT1", "p": 0.9, "p_schedule": [1, 0]})
        with pytest.raises(ValueError, match="exclusive"):
            fast_config(p=0.9, p_schedule=(1.0, 0.0))

    def test_effective_p(self):
        assert fast_config(mode="automatic").effective_p == 1.0
        assert fast_config(mode="manual").effective_p == 0.0
        assert fast_config(mode="athena").effective_p == 0.5
        assert fast_config(mode="athena", p=0.25).effective_p == 0.25

    def test_repetitions_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            fast_config(repetitions=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("repetitions", 2.5, "repetitions must be an integer, got 2.5"),
            ("repetitions", True, "repetitions must be an integer, got True"),
            ("base_seed", -1, "base_seed must be >= 0, got -1"),
            ("base_seed", 1.0, "base_seed must be an integer, got 1.0"),
        ],
    )
    def test_counts_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError) as info:
            fast_config(**{field: value})
        assert str(info.value) == message


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
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 < 40)",
            manual_text=INFINITE_MANUAL,
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
            repetitions=3,
        )
        report = run_experiment(cfg)
        assert report.found == 0
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.error.startswith(INFINITE_ERROR)
            assert row.best_robustness is None
        # a problem built without resolve fails falsify's own checks
        problem = unchecked_port_mismatch(fast_config())
        row = _run_one((problem, cfg.search, 0))
        assert not row.found
        assert "PortMismatchError" in row.error
        assert row.best_robustness is None

    def test_errored_rows_count_the_simulations_run(self):
        # every run simulates once, then its manual score is infinite
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 < 40)",
            manual_text=INFINITE_MANUAL,
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
            repetitions=2,
            search=SearchConfig(max_iterations=5),
        )
        report = run_experiment(cfg, jobs=1)
        assert report.errored == 2
        for row in report.rows:
            assert row.iterations == 1
            assert row.error.startswith(INFINITE_ERROR)
        assert report.simulations == 2
        assert [r["iterations"] for r in report.to_dict()["runs"]] == [1, 1]

    def test_error_mid_run_counts_the_simulations_before_it(self):
        cfg = fast_config(
            plant=FailsOnThirdCall(),
            formula_text="G[0,10] (x < 2)",
            repetitions=1,
        )
        (row,) = run_experiment(cfg, jobs=1).rows
        assert row.error == "ValueError: input outside the plant's domain"
        assert row.iterations == 2

    def test_error_before_any_simulation_counts_none(self):
        cfg = fast_config(repetitions=2)
        problem = unchecked_port_mismatch(cfg)
        rows = tuple(_run_one((problem, cfg.search, i)) for i in range(2))
        report = ExperimentReport(cfg, problem, rows, wall_clock=0.0)
        assert [row.iterations for row in report.rows] == [0, 0]
        assert report.simulations == 0

    def test_programming_error_propagates(self):
        with pytest.raises(TypeError, match="bug in a user plant"):
            run_experiment(fast_config(plant=BrokenPlant(), repetitions=2))

    def test_at_lite_rpm_overflow_scored_as_diverged(self):
        # every throttle in the box overflows RPM; each simulation diverges
        # and the search moves on, so no row errors and nothing warns
        cfg = ExperimentConfig(
            plant=builtin("at_lite"),
            formula_text="G[0,10] (RPM < 4750)",
            assumption=parse_assumption(
                "Throttle:const:2e307,3e307:1;Brake:const:0,325:1"
            ),
            repetitions=2,
            search=SearchConfig(max_iterations=5),
        )
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.error is None
            assert not row.found
            assert row.iterations == 5
            assert row.best_robustness == math.inf

    def test_generic_output_overflow_scored_as_diverged(self):
        # a user plant on the generic RK4 whose output overflows while its
        # state stays finite: every simulation diverges, no row errors
        cfg = ExperimentConfig(
            plant=OutputOverflow(),
            formula_text="G[0,1] (y < 10)",
            assumption=parse_assumption("u:const:0,1:1"),
            step=0.25,
            repetitions=2,
            search=SearchConfig(max_iterations=4),
        )
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.error is None
            assert not row.found
            assert row.iterations == 4
            assert row.best_robustness == math.inf

    def test_modes_align_by_seed(self):
        auto = run_experiment(fast_config(mode="automatic"))
        manual = run_experiment(fast_config(mode="manual"))
        assert [r.seed for r in auto.rows] == [r.seed for r in manual.rows]
        assert auto.config.effective_p == 1.0
        assert manual.config.effective_p == 0.0

    def test_schedule_reported(self):
        report = run_experiment(fast_config(p_schedule=(1.0, 0.0), repetitions=2))
        payload = report.to_dict(timing=False)
        assert payload["p_schedule"] == [1.0, 0.0]

    def test_bad_jobs_env_rejected(self, monkeypatch):
        for raw in ("abc", "0", "-2", "1.5"):
            monkeypatch.setenv("ATHENA_JOBS", raw)
            with pytest.raises(ValueError, match="ATHENA_JOBS"):
                run_experiment(fast_config(repetitions=1))

    def test_nonpositive_jobs_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs must be a positive integer"):
                run_experiment(fast_config(repetitions=1), jobs=jobs)

    def test_jobs_env_read(self, monkeypatch):
        monkeypatch.setenv("ATHENA_JOBS", " 1 ")
        assert len(run_experiment(fast_config(repetitions=2)).rows) == 2


def count_parses(monkeypatch):
    """The names of the parsers `catalog.parsed` calls, one per call, from
    now until the test ends."""
    # the module, which the package's `catalog` function shadows
    module = importlib.import_module("athena.catalog")
    calls = []
    for name in ("parse", "parse_manual"):
        real = getattr(module, name)

        def counted(text, real=real, name=name):
            calls.append(name)
            return real(text)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestResolve:
    def test_inline_texts_parsed_once(self, monkeypatch):
        calls = count_parses(monkeypatch)
        # texts no other test resolves, so the first resolve parses them
        cfg = fast_config(formula_text="G[0,10] (x < 0.4375)", manual_text="mean(x,[0,3.25])")
        first = resolve(cfg)
        assert sorted(calls) == ["parse", "parse_manual"]
        second = resolve(cfg)
        assert len(calls) == 2
        assert second.fitness.formula is first.fitness.formula
        assert second.fitness.manual is first.fitness.manual

    def test_bad_inline_formula_raises_on_every_resolve(self, monkeypatch):
        calls = count_parses(monkeypatch)
        cfg = fast_config(formula_text="G[0,10] (x <")
        for n in (1, 2):
            with pytest.raises(ParseError, match="expected a number"):
                resolve(cfg)
            assert calls == ["parse"] * n

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


    def test_horizon_between_samples_rounds_the_grid_up(self):
        cfg = fast_config(formula_text="G[0,10.02] (x < 2)", repetitions=2)
        grid = resolve(cfg).grid
        assert grid.step == 0.05 and grid.n_samples == 202
        assert grid.end == pytest.approx(10.05, abs=1e-12)
        for row in run_experiment(cfg, jobs=1).rows:
            assert row.error is None and row.iterations == 40

    def test_unknown_formula_channel_rejected_before_any_run(self):
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y9 <= 40)",
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
            repetitions=2,
        )
        for run in (resolve, run_experiment):
            with pytest.raises(MissingChannelError, match="'y9' not in trace; trace has y1"):
                run(cfg)

    def test_unknown_manual_channel_rejected_before_any_run(self):
        cfg = fast_config(manual_text="mean(x,[0,5]) - max(z,[0,5])")
        with pytest.raises(MissingChannelError, match="'z' not in trace; trace has y, x"):
            resolve(cfg)

    def test_manual_window_past_grid_rejected_before_any_run(self):
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 <= 40)",
            manual_text="max(throttle,[0,150])",
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
        )
        with pytest.raises(ValueError, match="window end 150.0 exceeds grid end 100.0"):
            resolve(cfg)

    def test_port_mismatch_rejected_before_any_run(self):
        cfg = fast_config(assumption=parse_assumption("z:const:0,1:1"))
        for run in (resolve, run_experiment):
            with pytest.raises(PortMismatchError, match="do not match plant inputs"):
                run(cfg)

    def test_interval_between_samples_rejected_before_any_run(self):
        cfg = fast_config(formula_text="F[0.01,0.02] (y > 0)")
        for run in (resolve, run_experiment):
            with pytest.raises(ValueError, match=r"interval \[0.01,0.02\] selects no grid"):
                run(cfg)

    @pytest.mark.parametrize(
        "manual, message",
        [
            # throttle's 7 control points are 16.7 s apart
            ("slope_up(throttle,[1,2])", r"need >= 2 control points inside \[1.0, 2.0\], got 0"),
            ("slope_down(throttle,[10,20])", r"inside \[10.0, 20.0\], got 1"),
            ("slope_up(y5,[0,100])", "slope term needs the control points of input 'y5'"),
            ("1 + slope_up(speed,[0,100])", "control points of input 'speed'"),
        ],
    )
    def test_bad_slope_term_rejected_before_any_run(self, manual, message):
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 <= 40)",
            manual_text=manual,
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
        )
        for run in (resolve, run_experiment):
            with pytest.raises(ValueError, match=message):
                run(cfg)

    def test_slope_window_with_two_control_points_accepted(self):
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 <= 40)",
            manual_text="slope_up(throttle,[0,16.7]) + slope_down(brake,[0,100])",
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
            repetitions=1,
        )
        (row,) = run_experiment(cfg).rows
        assert row.error is None

    def test_bad_slope_term_fails_falsify_before_any_simulation(self):
        # x has one control point, at t=0
        plant = FailsOnThirdCall()
        fitness = FitnessAssessment(parse("G[0,10] (x < 0.5)"), parse_manual("slope_up(x,[0,10])"))
        assumption = parse_assumption("x:const:0,1:1")
        with pytest.raises(ValueError, match=r"inside \[0.0, 10.0\], got 1"):
            falsify(plant, assumption, fitness, SearchConfig(), TimeGrid(10.0, 0.05))
        assert plant.calls == 0

    def test_inputs_and_outputs_both_accepted(self):
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 <= 40 or throttle > 2)",
            manual_text="max(y5 - brake,[0,100]) + slope_up(throttle,[0,100])",
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
        )
        assert resolve(cfg).grid.end == 100.0


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

    def test_errored_and_simulations_written(self, tmp_path):
        # every run simulates once, then its manual score is infinite
        cfg = fast_config(
            plant=builtin("chasing_cars"),
            formula_text="G[0,10] (y5 - y4 < 40)",
            manual_text=INFINITE_MANUAL,
            assumption=parse_assumption("throttle:pchip:0,1:7;brake:pchip:0,1:3"),
            repetitions=3,
        )
        for name in ("a", "b"):
            write_report(run_experiment(cfg, jobs=1), str(tmp_path / name), timestamp=False)
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["errored"] == cfg.repetitions
        assert payload["simulations"] == cfg.repetitions
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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

    @pytest.mark.parametrize("schedule", [[1, 0, 5], [1], []], ids=["three", "one", "empty"])
    def test_schedule_needs_two_endpoints(self, schedule):
        with pytest.raises(ValueError, match="p_schedule must be two endpoints"):
            config_from_dict({"entry": "AT1", "p_schedule": schedule})
        with pytest.raises(ValueError, match="p_schedule must be two endpoints"):
            fast_config(p_schedule=tuple(schedule))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"search": {"sigma": math.nan}}, "sigma must be finite, got nan"),
            ({"search": {"t0": math.nan}}, "t0 must be finite, got nan"),
            ({"search": {"threshold": math.nan}}, "threshold must be finite, got nan"),
            ({"search": {"max_iterations": 5.5}}, "max_iterations must be an integer, got 5.5"),
            ({"search": {"sigma": "0.1"}}, "sigma must be a number, got '0.1'"),
            ({"repetitions": 2.5}, "repetitions must be an integer, got 2.5"),
            ({"repetitions": "2"}, "repetitions must be an integer, got '2'"),
            ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
            ({"base_seed": 0.5}, "base_seed must be an integer, got 0.5"),
            ({"p": "0.5"}, "p must be a number, got '0.5'"),
            ({"p": True}, "p must be a number, got True"),
            ({"p": math.nan}, "p must be finite, got nan"),
            ({"p_schedule": ["1", "0"]}, "p_schedule start must be a number, got '1'"),
            ({"p_schedule": [1.0, math.inf]}, "p_schedule end must be finite, got inf"),
            ({"p_schedule": [1.0, 2.0]}, "p_schedule end must lie in [0, 1], got 2.0"),
            ({"p_schedule": 1}, "p_schedule must be two endpoints (start, end), got 1"),
            ({"p_schedule": "10"}, "p_schedule must be two endpoints (start, end), got '10'"),
        ],
    )
    def test_bad_numbers_rejected_at_config(self, raw, message):
        with pytest.raises(ValueError) as info:
            config_from_dict({"entry": "CC1", **raw})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "auto_scale, message",
        [
            (math.nan, "auto_scale must be finite, got nan"),
            (math.inf, "auto_scale must be finite, got inf"),
            (-math.inf, "auto_scale must be finite, got -inf"),
        ],
    )
    def test_non_finite_auto_scale_rejected_at_config(self, auto_scale, message):
        raw = {
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "assumption": "x:const:0,1:1",
            "auto_scale": auto_scale,
        }
        with pytest.raises(ValueError) as info:
            config_from_dict(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("step", True, "step must be a number, got True"),
            ("step", "0.1", "step must be a number, got '0.1'"),
            ("step", math.nan, "step must be finite, got nan"),
            ("step", 0, "step must be positive, got 0"),
            ("auto_scale", "2", "auto_scale must be a number, got '2'"),
            ("auto_scale", "inf", "auto_scale must be a number, got 'inf'"),
            ("auto_scale", True, "auto_scale must be a number, got True"),
            ("auto_scale", -1.0, "auto_scale must be positive, got -1.0"),
        ],
    )
    def test_step_and_auto_scale_are_numbers_not_coerced(self, key, value, message):
        raw = {
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "assumption": "x:const:0,1:1",
            key: value,
        }
        with pytest.raises(ValueError) as info:
            config_from_dict(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "key, value",
        [
            ("entry", 5),
            ("plant", ["passthrough"]),
            ("formula", 5),
            ("manual", ["x"]),
            ("assumption", 5),
            ("out", 5),
            ("entry", None),
        ],
    )
    def test_text_fields_must_be_strings(self, key, value):
        # checked before any field is parsed or any run spends its budget
        raw = {"entry": "AT1"} if key in ("entry", "out") else {
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "manual": "max(x,[0,10])",
            "assumption": "x:const:0,1:1",
        }
        raw[key] = value
        with pytest.raises(ValueError) as info:
            config_from_dict(raw)
        assert str(info.value) == f"{key} must be a string, got {value!r}"

    def test_integer_step_and_auto_scale_are_kept_as_floats(self):
        cfg = config_from_dict({
            "plant": "passthrough",
            "formula": "G[0,10] (x < 0.5)",
            "assumption": "x:const:0,1:1",
            "step": 1,
            "auto_scale": 2,
        })
        assert (cfg.step, cfg.auto_scale) == (1.0, 2.0)
        assert type(cfg.step) is float and type(cfg.auto_scale) is float

    def test_one_number_rule(self):
        import athena.fitness
        import athena.harness
        from athena.errors import check_number

        assert not hasattr(athena.fitness, "_check_number")
        assert not hasattr(athena.harness, "_check_number")
        assert athena.harness.check_number is athena.fitness.check_number is check_number

    def test_schedule_parsed(self):
        cfg = config_from_dict({"entry": "CC1", "p_schedule": [1.0, 0.0]})
        assert cfg.p_schedule == (1.0, 0.0)


class TestRejections:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ExperimentConfig(entry="AT1", p=1.5), "p must lie in [0, 1]"),
            (
                lambda: config_from_dict({"entry": "AT1", "search": [300]}),
                "search must be a mapping of SearchConfig fields",
            ),
        ],
        ids=["athena-p-outside-unit", "search-not-mapping"],
    )
    def test_bad_config_names_its_fault(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
