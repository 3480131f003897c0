"""Tests for simulating only the leading samples of the trace the score
reads.

`FitnessAssessment.reads` counts the samples robustness at t=0 and the
manual windows over plant outputs read; `falsify` simulates the plant on
that prefix of the grid (`search.check_problem`). A manual window over plant inputs only reads the
encoded inputs on the whole grid instead. The score must be the one the
whole trace gives, and the count must be minimal.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from athena.catalog import catalog, catalog_ids
from athena.errors import DivergenceError, HorizonError, MissingChannelError
from athena.fitness import (
    Add,
    Const,
    FitnessAssessment,
    ManualFitnessExpr,
    Scale,
    assess,
    parse_manual,
)
from athena.harness import (
    MODES,
    ExperimentConfig,
    Problem,
    _run_one,
    parse_assumption,
    resolve,
    run_experiment,
)
from athena.models import Passthrough, PlantModel, PortSpec, builtin, simulate
from athena import search
from athena.search import SearchConfig, encode_inputs, falsify, simulation_grid
from athena.signals import (
    TIME_TOL,
    Signal,
    TimeGrid,
    WindowStatKind,
    uniform_control_times,
    window_samples,
    window_stat,
)
from athena.stl import Trace, formula_samples, parse, robustness

# every channel the formulas below name
CHANNELS = ("x", "Speed", "RPM", "y1", "y2", "y3", "y4", "y5")


def unchecked_problem(cfg: ExperimentConfig) -> Problem:
    """The problem an inline config names, built without the checks of
    `resolve`, as a direct caller of `falsify` may build it."""
    formula = parse(cfg.formula_text)
    fitness = FitnessAssessment(formula, manual=parse_manual(cfg.manual_text))
    grid = simulation_grid(cfg.plant, formula, cfg.step or 0.05)
    return Problem(cfg.plant, cfg.assumption, grid, fitness)


def prefix_grid(grid: TimeGrid, n: int) -> TimeGrid:
    return TimeGrid((n - 1) * grid.step, grid.step)


def prefix_trace(trace: Trace, n: int) -> Trace:
    grid = prefix_grid(trace.grid, n)
    return Trace(grid, {k: v[:n] for k, v in trace.channels.items()})


def simulate_prefix(plant, inputs, grid, n):
    """Simulate the first n samples of `inputs`, as `falsify` does."""
    if n == grid.n_samples:
        return simulate(plant, inputs, grid).trace
    short = prefix_grid(grid, n)
    return simulate(plant, {k: s.prefix(short) for k, s in inputs.items()}, short).trace


def score_prefix(fitness, plant, inputs, controls, grid, n):
    """Score the first n samples with the full-grid inputs, as `falsify` does."""
    trace = simulate_prefix(plant, inputs, grid, n)
    if n == grid.n_samples:
        return assess(fitness, trace, controls=controls)
    return assess(fitness, trace, controls=controls, inputs=Trace(grid, inputs))


def control_times(problem):
    grid = problem.grid
    return {p.port: uniform_control_times(grid, p.n) for p in problem.assumption.ports}


def samples_read(problem, fitness=None):
    """The leading samples the score of `problem`, or `fitness` on its
    plant and grid, reads."""
    spec = problem.plant.port_spec
    fitness = fitness or problem.fitness
    return fitness.reads(problem.grid, spec.inputs, spec.outputs, control_times(problem))


def samples_read_from_trace(problem):
    """The samples the score would read if every window read the trace:
    the plant's inputs count as outputs."""
    spec = problem.plant.port_spec
    channels = spec.outputs + spec.inputs
    return problem.fitness.reads(problem.grid, (), channels, control_times(problem))


def candidates(problem, count, seed):
    rng = np.random.default_rng(seed)
    a = problem.assumption
    for _ in range(count):
        controls = a.control_points(rng.uniform(a.lower, a.upper), problem.grid)
        yield controls, encode_inputs(a, controls, problem.grid)


class TestCatalogPrefix:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("entry", catalog_ids())
    def test_prefix_score_equals_full_score(self, entry, mode):
        problem = resolve(ExperimentConfig(entry=entry, mode=mode))
        grid = problem.grid
        n = samples_read(problem)
        for controls, inputs in candidates(problem, 4, seed=len(entry)):
            full = simulate(problem.plant, inputs, grid).trace
            want = assess(problem.fitness, full, controls=controls)
            got = score_prefix(problem.fitness, problem.plant, inputs, controls, grid, n)
            assert got == want

    @pytest.mark.parametrize(
        "entry, n", [("AT1", 501), ("AT2", 501), ("AT6a", 661), ("AT6b", 661), ("AT6c", 661)]
    )
    def test_at_lite_prefix_outputs_bit_identical(self, entry, n):
        # n is what the score would read if its manual windows read the
        # trace; falsify simulates the shorter prefix read from the outputs
        problem = resolve(ExperimentConfig(entry=entry))
        grid = problem.grid
        assert samples_read_from_trace(problem) == n < grid.n_samples
        for _, inputs in candidates(problem, 4, seed=7):
            full = simulate(problem.plant, inputs, grid).trace
            for k in (samples_read(problem), n):
                part = simulate_prefix(problem.plant, inputs, grid, k)
                for name in problem.plant.port_spec.outputs:
                    assert np.array_equal(part.channel(name), full.channel(name)[:k])

    @pytest.mark.parametrize(
        "entry, n",
        [("AT1", 401), ("AT2", 201), ("AT6a", 601), ("AT6b", 601), ("AT6c", 601)]
        + [(e, None) for e in ("CC1", "CC2", "CC3", "CC4", "CC5")]
        + [("CCx", 1001)],
    )
    def test_samples_simulated(self, entry, n):
        # None: all of the grid
        problem = resolve(ExperimentConfig(entry=entry))
        assert samples_read(problem) == (n or problem.grid.n_samples)

    @pytest.mark.parametrize(
        "entry, outputs",
        [(e, ("y1", "y2", "y3", "y4", "y5")) for e in ("CC1", "CC2", "CC4", "CC3", "CC5", "CCx")]
        + [(e, ("Speed", "RPM", "Gear")) for e in ("AT1", "AT2", "AT6a", "AT6b", "AT6c")],
    )
    def test_channels_simulated(self, entry, outputs, monkeypatch):
        # every iteration simulates the problem's own plant, every output of
        # it, whatever outputs the score names
        seen = []

        def spy(plant, inputs, grid):
            sim = simulate(plant, inputs, grid)
            seen.append((plant, tuple(n for n in outputs if n in sim.trace.names)))
            return sim

        monkeypatch.setattr(search, "simulate", spy)
        p = resolve(ExperimentConfig(entry=entry))
        assert p.plant.port_spec.outputs == outputs
        search_cfg = SearchConfig(max_iterations=3, seed=1)
        result = falsify(p.plant, p.assumption, p.fitness, search_cfg, p.grid)
        assert result.iterations_used > 0
        assert seen == [(p.plant, outputs)] * result.iterations_used

    def test_passthrough_simulates_its_output(self, monkeypatch):
        # falsify simulates the problem's own plant, every output of it
        p = resolve(
            ExperimentConfig(
                plant=Passthrough(),
                formula_text="G[0,10] (y - x >= 0)",
                assumption=parse_assumption("x:linear:0,1:3"),
            )
        )
        seen = []

        def spy(plant, inputs, grid):
            seen.append(plant)
            return simulate(plant, inputs, grid)

        monkeypatch.setattr(search, "simulate", spy)
        search_cfg = SearchConfig(max_iterations=3, seed=1)
        result = falsify(p.plant, p.assumption, p.fitness, search_cfg, p.grid)
        assert seen == [p.plant] * result.iterations_used

    @pytest.mark.parametrize("entry", catalog_ids())
    def test_found_failure_replays_on_the_whole_plant(self, entry):
        # the whole plant and grid give the robustness the search reported,
        # exactly
        p = resolve(ExperimentConfig(entry=entry))
        for seed in range(3):
            result = falsify(p.plant, p.assumption, p.fitness, SearchConfig(seed=seed), p.grid)
            if result.found:
                tc = result.failure
                trace = simulate(p.plant, tc.inputs, p.grid).trace
                rho = robustness(p.fitness.formula, trace)
                assert math.isclose(rho, tc.robustness, rel_tol=0, abs_tol=0.0)

    @pytest.mark.parametrize("entry", ["CC1", "CC2", "CC3", "CC4", "CC5"])
    def test_cc_entries_read_the_whole_grid(self, entry):
        problem = resolve(ExperimentConfig(entry=entry))
        assert samples_read(problem) == problem.grid.n_samples

    def test_ccx_reads_half_the_grid(self):
        problem = resolve(ExperimentConfig(entry="CCx"))
        assert problem.grid.n_samples == 2001
        assert samples_read(problem) == 1001


class TestMinimalCount:
    @pytest.mark.parametrize(
        "text",
        [catalog(e).formula_text for e in catalog_ids()]
        + [
            "F[0.3,2.7] (x > 0)",
            "not (G[1,3] (x < 1) or F[0,0.25] (x > 2))",
            "G[0,1] (F[0.5,1.5] (x > 0)) -> F[0,3.05] (x < 1)",
        ],
    )
    @pytest.mark.parametrize("step", [0.05, 0.1, 0.25])
    def test_one_sample_shorter_raises(self, text, step):
        formula = parse(text)
        n = formula_samples(formula, step)
        full = _const_trace(dict.fromkeys(CHANNELS, 0.0), TimeGrid((n + 10) * step, step))
        assert robustness(formula, prefix_trace(full, n)) == robustness(formula, full)
        with pytest.raises(HorizonError):
            robustness(formula, prefix_trace(full, n - 1))

    def test_count_is_window_ends_along_the_deepest_path(self):
        f = parse("G[0,2] (F[0,1] (x > 0)) and F[0,4] (x > 0)")
        assert formula_samples(f, 0.5) == 1 + max(4 + 2, 8)

    def test_formula_part_sets_the_count(self):
        fit = FitnessAssessment(
            parse("G[0,10] (x < 1)"), manual=parse_manual("mean(x,[0,5])")
        )
        assert fit.reads(TimeGrid(50.0, 0.05), (), ("x",), {}) == 201

    def test_no_temporal_operator_reads_two_samples(self):
        f = parse("x < 1")
        assert formula_samples(f, 0.05) == 1
        assert FitnessAssessment(f).reads(TimeGrid(10.0, 0.05), (), ("x",), {}) == 2

    def test_slope_terms_read_no_samples(self):
        grid = TimeGrid(10.0, 0.05)
        fit = FitnessAssessment(parse("x < 1"), manual=parse_manual("slope_up(x,[0,10])"))
        times = {"x": uniform_control_times(grid, 3)}
        assert fit.reads(grid, ("x",), (), times) == 2
        # a slope term over a name that is not a plant input is rejected
        with pytest.raises(ValueError, match="needs the control points of input 'x'"):
            fit.reads(grid, (), ("x",), {})

    def test_capped_at_the_grid(self):
        grid = TimeGrid(50.0, 0.05)
        fit = FitnessAssessment(parse("x < 1"), manual=parse_manual("mean(x,[0,50])"))
        assert fit.reads(grid, (), ("x",), {}) == 1001
        # a window past the grid end is rejected, not capped
        past = FitnessAssessment(parse("x < 1"), manual=parse_manual("mean(x,[0,60])"))
        with pytest.raises(ValueError, match="window end 60.0 exceeds grid end 50.0"):
            past.reads(grid, (), ("x",), {})


class TestWindowBoundaries:
    GRID = TimeGrid(10.0, 0.05)

    @pytest.mark.parametrize(
        "b, n",
        [
            (0.5, 11),  # on a sample
            (0.52, 12),  # between samples: the prefix must reach past b
            (0.5 + 5e-10, 11),  # within TIME_TOL past a sample
            (0.5 - 5e-10, 11),  # within TIME_TOL before a sample
            (0.5 + 2e-9, 12),  # just outside TIME_TOL
            (0.55 - 2e-9, 12),
            (10.0, 201),  # the grid end
            (10.0 + 5e-10, 201),
            (10.3, 201),  # past the grid end: all of it, where window_stat raises
            (math.inf, 201),
        ],
    )
    def test_window_samples(self, b, n):
        assert window_samples((0.0, b), self.GRID) == n

    @pytest.mark.parametrize("b", [0.5, 0.52, 0.5 + 5e-10, 0.5 - 5e-10, 0.5 + 2e-9, 3.33])
    @pytest.mark.parametrize("stat", list(WindowStatKind))
    def test_window_stat_same_on_prefix(self, b, stat):
        values = np.random.default_rng(3).normal(size=self.GRID.n_samples)
        n = window_samples((0.0, b), self.GRID)
        short = prefix_grid(self.GRID, n)
        want = window_stat(values, self.GRID, stat, (0.2, b))
        assert window_stat(values[:n], short, stat, (0.2, b)) == want
        with pytest.raises(ValueError, match="exceeds grid end"):
            window_stat(values[: n - 1], prefix_grid(self.GRID, n - 1), stat, (0.2, b))

    @pytest.mark.parametrize("b", [0.52, 0.5 + 5e-10, 0.5 - 5e-10, 0.5 + 2e-9])
    def test_formula_window_with_tolerance(self, b):
        f = parse(f"G[0,{b!r}] (x < 1)")
        k_hi = math.floor((b + TIME_TOL) / 0.05)
        assert formula_samples(f, 0.05) == 1 + k_hi
        full = _const_trace({"x": 0.0}, self.GRID)
        with pytest.raises(HorizonError):
            robustness(f, prefix_trace(full, k_hi))


class TestInputWindows:
    AT1 = "G[0,20] (Speed < 120)"

    def at1(self, manual):
        return FitnessAssessment(parse(self.AT1), manual=parse_manual(manual))

    def test_input_only_windows_read_no_samples(self):
        fit = self.at1("max(Brake,[0,25]) - min(Throttle,[0,17])")
        problem = resolve(ExperimentConfig(entry="AT1"))
        assert samples_read(problem, fit) == 401
        # without input names every window reads the trace
        assert samples_read_from_trace(replace(problem, fitness=fit)) == 501

    @pytest.mark.parametrize("manual", ["mean(Speed - Throttle,[0,25])", "max(RPM,[0,25])"])
    def test_window_naming_an_output_extends_the_prefix(self, manual):
        problem = resolve(ExperimentConfig(entry="AT1"))
        fit = self.at1(manual)
        grid = problem.grid
        n = samples_read(problem, fit)
        assert n == 501
        for controls, inputs in candidates(problem, 4, seed=5):
            full = simulate(problem.plant, inputs, grid).trace
            want = assess(fit, full, controls=controls)
            assert score_prefix(fit, problem.plant, inputs, controls, grid, n) == want

    def test_mixed_window_reads_the_trace_and_input_window_the_inputs(self):
        # full-grid inputs that differ from the trace's own input channels
        # show which of the two each window reads on a prefix trace
        problem = resolve(ExperimentConfig(entry="AT1"))
        grid = problem.grid
        ((_, inputs),) = candidates(problem, 1, seed=3)
        part = simulate_prefix(problem.plant, inputs, grid, 501)
        shifted = Trace(grid, {k: s.values + 1.0 for k, s in inputs.items()})
        fit = self.at1("mean(Speed - Throttle,[0,25]) + max(Brake,[0,25])")
        mixed, input_only = fit.manual.left, fit.manual.right
        mean, peak = WindowStatKind.MEAN, WindowStatKind.MAX
        on_trace = window_stat(mixed.channel.values(part), part.grid, mean, (0.0, 25.0))
        assert mixed.evaluate(part, inputs=shifted) == on_trace
        from_inputs = window_stat(shifted.channel("Brake"), grid, peak, (0.0, 25.0))
        assert input_only.evaluate(part, inputs=shifted) == from_inputs
        # without the inputs both read the trace
        own = window_stat(part.channel("Brake"), part.grid, peak, (0.0, 25.0))
        assert input_only.evaluate(part) == own != from_inputs
        assert mixed.evaluate(part) == on_trace

    def test_input_window_past_the_prefix_reads_the_full_grid_input(self):
        problem = resolve(ExperimentConfig(entry="AT2"))
        grid = problem.grid
        n = samples_read(problem)
        assert n == 201
        window = problem.fitness.manual.left.child
        assert str(window) == "mean(Brake,[0,25])"
        assert window.names <= set(problem.plant.port_spec.inputs)
        ((_, inputs),) = candidates(problem, 1, seed=2)
        part = simulate_prefix(problem.plant, inputs, grid, n)
        want = window_stat(inputs["Brake"].values, grid, WindowStatKind.MEAN, (0.0, 25.0))
        assert window.evaluate(part, inputs=Trace(grid, inputs)) == want
        # on the prefix trace alone the window would pass the grid end
        with pytest.raises(ValueError, match="exceeds grid end"):
            window.evaluate(part)

    def test_window_naming_an_unknown_channel_is_an_error_row(self):
        cfg = ExperimentConfig(
            plant=builtin("at_lite"),
            formula_text="G[0,10] (RPM < 4750)",
            manual_text="mean(Gear9,[0,25]) - mean(Throttle,[0,8])",
            assumption=catalog("AT2").assumption,
            repetitions=2,
            search=SearchConfig(max_iterations=5),
        )
        # resolve rejects it before any run; built by hand, the problem
        # errors in falsify's checks, before its first simulation
        for run in (resolve, lambda cfg: run_experiment(cfg, jobs=1)):
            with pytest.raises(MissingChannelError, match="Gear9"):
                run(cfg)
        problem = unchecked_problem(cfg)
        with pytest.raises(MissingChannelError, match="Gear9"):
            samples_read(problem)
        row = _run_one((problem, cfg.search, 0))
        assert row.error.startswith("MissingChannelError: ")
        assert "Gear9" in row.error
        assert row.iterations == 0

    def test_direct_falsify_with_an_unknown_channel_never_simulates(self, monkeypatch):
        problem = unchecked_problem(
            ExperimentConfig(
                plant=builtin("at_lite"),
                formula_text="G[0,10] (RPM < 4750)",
                manual_text="mean(Gear9,[0,25])",
                assumption=catalog("AT2").assumption,
            )
        )
        calls = []

        def spy(plant, inputs, grid):
            calls.append(grid)
            return simulate(plant, inputs, grid)

        monkeypatch.setattr(search, "simulate", spy)
        with pytest.raises(MissingChannelError, match="Gear9") as info:
            falsify(
                problem.plant,
                problem.assumption,
                problem.fitness,
                SearchConfig(max_iterations=5),
                problem.grid,
            )
        assert getattr(info.value, "simulations", 0) == 0
        assert calls == []


CC_OUTPUTS = ("y1", "y2", "y3", "y4", "y5")

# the inline problem of the passthrough benchmark workload
PASSTHROUGH_SPEC = ExperimentConfig(
    plant=Passthrough(),
    formula_text="G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1)))"
    " and G[0,100] (F[0,20] (y <= 2))",
    manual_text="scale(mean(y,[0,60]),[0,1]) - scale(ptp(x,[30,120]),[0,1])"
    " + 0.5 * scale(max(y - x,[10,90]),[0,1]) - 0.1 * slope_up(x,[0,120])",
    assumption=parse_assumption("x:linear:0,1:9"),
    auto_scale=2.0,
    step=0.01,
)


@dataclass(frozen=True)
class PeakY1(ManualFitnessExpr):
    """A manual node type defined outside `athena.fitness`: the peak of the
    trace's y1."""

    def evaluate(self, trace, controls=None, inputs=None):
        return float(trace.channel("y1").max())


class TestReads:
    @pytest.mark.parametrize(
        "entry, samples",
        [("AT1", 401), ("AT2", 201)]
        + [(e, 601) for e in ("AT6a", "AT6b", "AT6c")]
        + [("CCx", 1001)]
        + [(e, 2001) for e in ("CC1", "CC2", "CC3", "CC5")]
        # CC4's requirement spans 115 s, so its grid holds 2301 samples
        + [("CC4", 2301), (None, 12001)],
    )
    def test_catalog_table(self, entry, samples):
        cfg = ExperimentConfig(entry=entry) if entry else PASSTHROUGH_SPEC
        p = resolve(cfg)
        assert samples_read(p) == samples
        grid = search.check_problem(p.plant, p.assumption, p.fitness, p.grid)
        assert grid.n_samples == samples and grid.step == p.grid.step
        assert (grid is p.grid) == (samples == p.grid.n_samples)

    def unknown_node_problem(self, manual):
        p = resolve(ExperimentConfig(entry="CC1"))
        return replace(p, fitness=replace(p.fitness, manual=manual))

    @pytest.mark.parametrize(
        "manual",
        [PeakY1(), Add(parse_manual("max(brake,[0,10])"), Scale(PeakY1(), 0.0, 1000.0))],
        ids=["alone", "nested"],
    )
    def test_unknown_node_reads_every_sample_and_output(self, manual, monkeypatch):
        # CC1's formula names y4 and y5 only; the node reads y1 as well
        p = self.unknown_node_problem(manual)
        assert samples_read(p) == p.grid.n_samples
        assert search.check_problem(p.plant, p.assumption, p.fitness, p.grid) is p.grid
        seen = []

        def spy(plant, inputs, grid):
            seen.append((plant.port_spec.outputs, grid is p.grid))
            return simulate(plant, inputs, grid)

        monkeypatch.setattr(search, "simulate", spy)
        search_cfg = SearchConfig(max_iterations=5, seed=0)
        result = falsify(p.plant, p.assumption, p.fitness, search_cfg, p.grid)
        assert len(result.history) == result.iterations_used
        assert seen == [(CC_OUTPUTS, True)] * result.iterations_used

    def test_constant_reads_nothing(self):
        p = resolve(ExperimentConfig(entry="CC1"))
        assert samples_read(p, replace(p.fitness, manual=Const(1.0))) == 2001

    @pytest.mark.parametrize(
        "formula, manual, error",
        [
            # each fault, then the next once the earlier ones are mended
            (
                "G[0,10] (y9 < 1)",
                "mean(z,[0,150]) + slope_up(y1,[0,10])",
                "MissingChannelError: \"channel 'y9' not in trace; "
                "trace has y1, y2, y3, y4, y5, throttle, brake\"",
            ),
            (
                "F[0.01,0.02] (y5 < 1)",
                "mean(z,[0,150]) + slope_up(y1,[0,10])",
                "MissingChannelError: \"channel 'z' not in trace; "
                "trace has y1, y2, y3, y4, y5, throttle, brake\"",
            ),
            (
                "F[0.01,0.02] (y5 < 1)",
                "mean(y1,[0,150]) + max(y2,[0.01,0.02]) + slope_up(y1,[0,10])",
                "ValueError: window end 150.0 exceeds grid end 100.0",
            ),
            (
                "F[0.01,0.02] (y5 < 1)",
                "max(y2,[0.01,0.02]) + slope_up(y1,[0,10])",
                "ValueError: window [0.01, 0.02] contains no grid samples",
            ),
            (
                "F[0.01,0.02] (y5 < 1)",
                "mean(y1,[0,50]) + slope_up(y1,[0,10]) - slope_up(throttle,[0,10])",
                "ValueError: slope term needs the control points of input 'y1'",
            ),
            (
                "F[0.01,0.02] (y5 < 1)",
                "mean(y1,[0,50]) + slope_up(throttle,[0,10])",
                "ValueError: need >= 2 control points inside [0.0, 10.0], got 1",
            ),
            (
                "F[0.01,0.02] (y5 < 1)",
                "mean(y1,[0,50]) + slope_up(throttle,[0,100])",
                "ValueError: interval [0.01,0.02] selects no grid samples at step 0.05",
            ),
        ],
    )
    def test_error_order(self, formula, manual, error):
        cfg = ExperimentConfig(
            plant=builtin("chasing_cars"),
            formula_text=formula,
            manual_text=manual,
            assumption=catalog("CC1").assumption,
        )
        with pytest.raises((MissingChannelError, ValueError)) as info:
            resolve(cfg)
        assert f"{type(info.value).__name__}: {info.value}" == error
        with pytest.raises(type(info.value)) as again:
            samples_read(unchecked_problem(cfg))
        assert str(again.value) == str(info.value)


class LateBlowUp(PlantModel):
    """y = x, plus an unstable internal state that overflows at about 7.9 s
    on a 0.1 s grid."""

    name = "late_blow_up"
    port_spec = PortSpec(inputs=("x",), outputs=("y",))
    state_dim = 1
    default_horizon = 10.0

    def initial_state(self):
        return np.ones(1)

    def derivative(self, state, u):
        return 200.0 * state

    def output(self, state, u):
        return u[:1]


class TestFalsifyPrefix:
    def test_simulates_the_prefix_and_keeps_full_inputs(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="AT1"))
        seen = []

        def spy(plant, inputs, grid):
            seen.append((grid, {k: s.grid for k, s in inputs.items()}))
            return simulate(plant, inputs, grid)

        monkeypatch.setattr(search, "simulate", spy)
        result = falsify(
            problem.plant,
            problem.assumption,
            problem.fitness,
            SearchConfig(max_iterations=300, seed=0),
            problem.grid,
        )
        assert result.found
        assert len(seen) == result.iterations_used
        for grid, input_grids in seen:
            assert grid.n_samples == 401 and grid.step == problem.grid.step
            assert set(input_grids.values()) == {grid}
        for signal in result.failure.inputs.values():
            assert signal.grid == problem.grid

    def test_whole_grid_passed_as_it_is(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="CC1"))
        seen = []

        def spy(plant, inputs, grid):
            seen.append(grid is problem.grid)
            return simulate(plant, inputs, grid)

        monkeypatch.setattr(search, "simulate", spy)
        falsify(
            problem.plant,
            problem.assumption,
            problem.fitness,
            SearchConfig(max_iterations=5, seed=0),
            problem.grid,
        )
        assert seen == [True] * 5

    def test_divergence_after_prefix_is_scored_normally(self):
        plant = LateBlowUp()
        grid = TimeGrid(10.0, 0.1)
        x = Signal(grid, np.full(grid.n_samples, 0.2))
        with pytest.raises(DivergenceError):
            simulate(plant, {"x": x}, grid)
        fit = FitnessAssessment(parse("G[0,1] (y < 0.5)"), p=1.0)
        assumption = parse_assumption("x:const:0,1:1")
        assert search.check_problem(plant, assumption, fit, grid).n_samples == 11
        seen = []
        result = falsify(
            plant,
            assumption,
            fit,
            SearchConfig(max_iterations=40, seed=1),
            grid,
            observer=lambda i, v, f: seen.append((float(v[0]), f)),
        )
        # a diverged simulation would score 1.0; these are 0.5 - x
        for x0, f in seen:
            assert f == pytest.approx(0.5 - x0)
        assert result.found
        assert result.failure.robustness < 0

    def test_manual_window_past_grid_end_errors_before_simulating(self):
        # the window is resolved on the grid before the first simulation
        cfg = ExperimentConfig(
            plant=Passthrough(),
            formula_text="G[0,10] (x < 2)",
            manual_text="mean(x,[0,12])",
            assumption=parse_assumption("x:const:0,1:1"),
            repetitions=2,
            search=SearchConfig(max_iterations=5),
        )
        message = "window end 12.0 exceeds grid end 10.0"
        with pytest.raises(ValueError, match=message):
            resolve(cfg)
        # falsify keeps the check for a problem built without resolve
        row = _run_one((unchecked_problem(cfg), cfg.search, 0))
        assert row.error == f"ValueError: {message}"
        assert row.iterations == 0


def _const_trace(channels: dict[str, float], grid: TimeGrid) -> Trace:
    return Trace(grid, {k: np.full(grid.n_samples, v) for k, v in channels.items()})
