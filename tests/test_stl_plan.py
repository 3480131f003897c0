"""Tests for the cached STL plan and the sliced channel-expression evaluation.

Robustness and satisfaction by the plan must equal the whole-trace walk it
replaced (`oracles.walk_reference`, bit for bit) and the naive recursive
semantics. A channel expression evaluated over a sample range must be
bitwise the same range of the zero-seeded whole-trace sum, and a manual
window must give what `window_stat` gives on the whole-trace values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.catalog import catalog, catalog_ids
from athena.errors import HorizonError, MissingChannelError
from athena.fitness import FitnessAssessment, WindowStat, parse_manual
from athena.harness import ExperimentConfig, Problem, _run_one, resolve, run_experiment
from athena.models import PlantModel, PortSpec, builtin, simulate
from athena.search import SearchConfig, simulation_grid
from athena.signals import (
    Signal,
    TimeGrid,
    WindowStatKind,
    uniform_control_times,
    window_stat,
)
from athena.stl import (
    AtomExpr,
    Globally,
    Predicate,
    Trace,
    formula_samples,
    parse,
    robustness,
    satisfied,
)

from oracles import (
    naive_robustness,
    naive_satisfied,
    robustness_reference,
    satisfied_reference,
    values_reference,
    walk_reference,
)

PASSTHROUGH = (
    "G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1))) and G[0,100] (F[0,20] (y <= 2))"
)

# root And/Or/Implies/Not over temporal nodes, G[0,0], k_lo > 0, windows
# off the step and nested chains; every one is read on grids of step 0.5
ZOO = [
    "G[0,2] (x < 3) and F[1,4] (y > 0)",
    "F[0.5,2] (x > 1) or G[0,3] (y < 2)",
    "G[0,2] (x > 0) -> F[1,3] (y > 0)",
    "not (G[0,3] (F[0,1] (x > 2)))",
    "not (F[0,4] (x - 2 * y > 1)) and not (G[0,1] (y < -5))",
    "G[0,0] (x < 3)",
    "F[0,0] (G[0,0] (abs(x - y) > 1))",
    "G[1.5,4] (x + y >= -2)",
    "F[2,2] (y <= 1)",
    "G[0.3,2.7] (x - y <= 0)",
    "F[0.26,1.24] (G[0.74,2.01] (x > -4))",
    "G[0,5] (F[0,2] (G[0.5,1] (x > 0)))",
    "F[0,3] (G[1,2] (F[0,1.5] (G[0,0.5] (y - x < 4))))",
    "G[0,1] (F[0.5,1.5] (x > 0)) -> F[0,3.05] (x < 1)",
    "G[0,3] (x > 0 -> F[0,2] (y > 0)) or not (F[1,2] (abs(y) < 1))",
    "x < 3 and y > -2 or x > 8",
    "G[1,2] (abs(x) < 6 -> y < 3) and F[0.5,4.5] (x + y > -5)",
    "(G[0,2] (x < 3) and F[0,4] (y > 0)) and G[0,6] (F[0,1] (x > -9))",
]

CATALOG_CHANNELS = ("Speed", "RPM", "Gear", "y1", "y2", "y3", "y4", "y5")


def random_trace(rng, grid, names, tie=False):
    """Uniform channels, or small integers with many ties when `tie`."""
    n = grid.n_samples
    if tie:
        return Trace(grid, {k: rng.integers(-3, 4, n).astype(float) for k in names})
    return Trace(grid, {k: rng.uniform(-10, 10, n) for k in names})


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_plan_matches_walk(f, trace):
    rho = robustness(f, trace)
    assert same_bits(rho, robustness_reference(f, trace))
    assert satisfied(f, trace) is satisfied_reference(f, trace)
    return rho


class TestPlanMatchesWalk:
    @pytest.mark.parametrize("text", ZOO)
    @pytest.mark.parametrize("tie", [False, True], ids=["uniform", "ties"])
    def test_zoo(self, text, tie):
        f = parse(text)
        rng = np.random.default_rng(len(text))
        grid = TimeGrid(12.0, 0.5)
        for _ in range(25):
            trace = random_trace(rng, grid, ("x", "y"), tie)
            rho = assert_plan_matches_walk(f, trace)
            assert rho == naive_robustness(f, trace)
            assert satisfied(f, trace) == naive_satisfied(f, trace)

    @pytest.mark.parametrize("entry", catalog_ids())
    def test_catalog_formulas_on_their_grids(self, entry):
        e = catalog(entry)
        rng = np.random.default_rng(len(entry))
        for tie in (False, True):
            for _ in range(5):
                trace = random_trace(rng, e.grid(), CATALOG_CHANNELS, tie)
                assert_plan_matches_walk(e.formula, trace)

    @pytest.mark.parametrize("entry", catalog_ids())
    def test_catalog_formulas_match_naive_on_a_coarse_grid(self, entry):
        f = catalog(entry).formula
        grid = TimeGrid.reaching(max(formula_samples(f, 1.0), 3) + 4.0, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(3):
            trace = random_trace(rng, grid, CATALOG_CHANNELS)
            assert assert_plan_matches_walk(f, trace) == naive_robustness(f, trace)
            assert satisfied(f, trace) == naive_satisfied(f, trace)

    def test_passthrough_formula(self):
        f = parse(PASSTHROUGH)
        rng = np.random.default_rng(0)
        fine = TimeGrid(120.0, 0.01)
        for _ in range(4):
            assert_plan_matches_walk(f, random_trace(rng, fine, ("x", "y")))
        coarse = TimeGrid(120.0, 1.0)
        trace = random_trace(rng, coarse, ("x", "y"))
        assert assert_plan_matches_walk(f, trace) == naive_robustness(f, trace)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.0, 3.0),
        width=st.floats(0.0, 4.0),
        step=st.sampled_from([0.1, 0.25, 0.5, 0.3]),
        globally=st.booleans(),
        outer=st.sampled_from([None, (0.0, 1.0), (0.4, 2.2)]),
        seed=st.integers(0, 2**16),
    )
    def test_single_and_nested_windows(self, a, width, step, globally, outer, seed):
        op = "G" if globally else "F"
        text = f"{op}[{a:.4f},{a + width:.4f}] (x > 0)"
        if outer is not None:
            text = f"G[{outer[0]},{outer[1]}] (F[0,0.5] ({text}))"
        try:
            f = parse(text)
            n = formula_samples(f, step)
        except ValueError:
            return  # the interval holds no sample at this step
        grid = TimeGrid.reaching((n + 3) * step, step)
        trace = random_trace(np.random.default_rng(seed), grid, ("x",))
        assert_plan_matches_walk(f, trace)

    def test_same_plan_for_zero_signs_keeps_each_bound(self):
        # equal formulas share a plan; each is still read with its own bound
        grid = TimeGrid(2.0, 0.5)
        trace = Trace(grid, {"x": np.zeros(grid.n_samples)})
        pos = Globally(0.0, 1.0, Predicate(AtomExpr((("x", 1.0),)), "<=", 0.0))
        neg = Globally(0.0, 1.0, Predicate(AtomExpr((("x", 1.0),)), "<=", -0.0))
        assert pos == neg and hash(pos) == hash(neg)
        for f in (pos, neg, pos):
            assert same_bits(robustness(f, trace), robustness_reference(f, trace))
        assert math.copysign(1.0, robustness(neg, trace)) == -1.0
        assert math.copysign(1.0, robustness(pos, trace)) == 1.0


def walk_error(f, trace):
    try:
        walk_reference(f, trace, lambda p, e: e, np.negative)
    except (HorizonError, MissingChannelError) as exc:
        return type(exc), str(exc)
    return None


def plan_error(f, trace):
    try:
        robustness(f, trace)
    except (HorizonError, MissingChannelError) as exc:
        return type(exc), str(exc)
    return None


class TestShortTrace:
    @pytest.mark.parametrize(
        "text",
        [t for t in ZOO if formula_samples(parse(t), 0.5) > 2]
        + [PASSTHROUGH]
        + [catalog(e).formula_text for e in catalog_ids()],
    )
    def test_one_sample_short_raises_the_walks_horizon_error(self, text):
        f = parse(text)
        step = 0.5
        n = formula_samples(f, step)
        names = ("x", "y") + CATALOG_CHANNELS
        exact = random_trace(np.random.default_rng(1), TimeGrid((n - 1) * step, step), names)
        assert same_bits(robustness(f, exact), robustness_reference(f, exact))
        short = random_trace(np.random.default_rng(1), TimeGrid((n - 2) * step, step), names)
        error = plan_error(f, short)
        assert error is not None and error[0] is HorizonError
        assert error == walk_error(f, short)

    @pytest.mark.parametrize(
        "text",
        [
            "z > 0 and G[0,5] (x > 0)",
            "G[0,5] (x > 0) and z > 0",
            "G[0,1] (z > 0) or G[0,5] (x > 0)",
            "G[0,5] (F[0,1] (z > 0)) or G[0,1] (x > 0)",
            "not (F[0,2] (x > 0) -> G[0,3] (y > 0))",
        ],
    )
    def test_first_error_is_the_walks(self, text):
        f = parse(text)
        for end in (1.0, 2.0, 2.5, 4.0):
            short = random_trace(np.random.default_rng(2), TimeGrid(end, 0.5), ("x", "y"))
            assert plan_error(f, short) == walk_error(f, short)


class TestExpressionValues:
    GRID = TimeGrid(5.0, 0.5)

    @pytest.mark.parametrize(
        "terms",
        [
            (("x", 1.0),),
            (("x", -1.0),),
            (("x", 1.0), ("y", -0.5)),
            (("y", 0.5), ("x", 1.0), ("x", -1.0)),
            (("x", 0.0), ("y", 1.0)),
        ],
    )
    @pytest.mark.parametrize("const", [0.0, -0.0, 2.5, -1.0])
    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("fill", ["negative_zero", "mixed_zero", "uniform"])
    def test_bitwise_equal_to_zero_seeded_sum(self, terms, const, absolute, fill):
        n = self.GRID.n_samples
        rng = np.random.default_rng(3)
        if fill == "negative_zero":
            channels = {"x": np.full(n, -0.0), "y": np.full(n, -0.0)}
        elif fill == "mixed_zero":
            channels = {k: rng.choice([-0.0, 0.0, 1.0, -1.0], n) for k in ("x", "y")}
        else:
            channels = {k: rng.uniform(-5, 5, n) for k in ("x", "y")}
        trace = Trace(self.GRID, channels)
        expr = AtomExpr(terms, const, absolute)
        whole = values_reference(expr, trace)
        assert same_bits(expr.values(trace), whole)
        for start, stop in [(0, n), (0, 1), (3, 7), (4, n), (n - 1, n)]:
            assert same_bits(expr.values(trace, start, stop), whole[start:stop])

    def test_constant_only(self):
        trace = Trace(self.GRID, {"x": np.zeros(self.GRID.n_samples)})
        for const in (0.0, -0.0, 3.0):
            expr = AtomExpr((), const)
            assert same_bits(expr.values(trace, 2, 5), values_reference(expr, trace)[2:5])

    def test_range_does_not_copy_the_trace_or_write_it(self):
        trace = Trace(self.GRID, {"x": np.arange(self.GRID.n_samples, dtype=float)})
        out = AtomExpr((("x", 1.0),)).values(trace, 0, 4)
        assert not np.shares_memory(out, trace.channel("x"))


class TestWindowOnASlice:
    GRID = TimeGrid(10.0, 0.05)

    @pytest.mark.parametrize("stat", list(WindowStatKind))
    @pytest.mark.parametrize(
        "window",
        [
            (0.0, 10.0),
            (0.2, 0.5),
            (0.2, 0.52),
            (0.2 - 5e-10, 0.5 + 5e-10),
            (0.2 + 5e-10, 0.5 - 5e-10),
            (0.2 + 2e-9, 0.5 - 2e-9),
            (3.33, 7.77),
            (9.95, 10.0 + 5e-10),
            (0.0, 0.05),
        ],
    )
    @pytest.mark.parametrize("text", ["y", "y - 0.5 * x", "abs(x + y - 1)", "2 * x - y + 0"])
    def test_equals_window_stat_of_whole_values(self, stat, window, text):
        expr = parse(f"{text} > 0").expr
        rng = np.random.default_rng(4)
        trace = random_trace(rng, self.GRID, ("x", "y"))
        node = WindowStat(expr, stat, window)
        want = window_stat(expr.values(trace), self.GRID, stat, window)
        assert node.evaluate(trace) == want
        assert want == window_stat(values_reference(expr, trace), self.GRID, stat, window)

    @pytest.mark.parametrize(
        "window, message",
        [
            ((0.0, 10.5), "window end 10.5 exceeds grid end 10.0"),
            ((0.0, 10.0 + 2e-9), "exceeds grid end 10.0"),
            ((0.01, 0.02), "window [0.01, 0.02] contains no grid samples"),
            ((2.0, 1.0), "window must satisfy 0 <= a < b, got [2.0, 1.0]"),
        ],
    )
    def test_bad_window_same_error(self, window, message):
        trace = random_trace(np.random.default_rng(5), self.GRID, ("x",))
        node = WindowStat(parse("x > 0").expr, WindowStatKind.MEAN, window)
        with pytest.raises(ValueError) as got:
            node.evaluate(trace)
        with pytest.raises(ValueError) as want:
            window_stat(trace.channel("x"), self.GRID, WindowStatKind.MEAN, window)
        assert str(got.value) == str(want.value)
        assert message in str(got.value)


class TestBadWindowBeforeSimulating:
    def config(self, manual):
        return ExperimentConfig(
            plant=builtin("chasing_cars"),
            formula_text="G[0,50] (y5 - y4 <= 40)",
            manual_text=manual,
            assumption=catalog("CC1").assumption,
            repetitions=2,
            search=SearchConfig(max_iterations=5),
        )

    @pytest.mark.parametrize(
        "manual, error",
        [
            ("max(y5 - y4,[0,150])", "ValueError: window end 150.0 exceeds grid end 100.0"),
            (
                "max(y5 - y4,[10.01,10.02])",
                "ValueError: window [10.01, 10.02] contains no grid samples",
            ),
            (
                "scale(mean(throttle,[0,50]),[0,1]) - min(y1,[0,101])",
                "ValueError: window end 101.0 exceeds grid end 100.0",
            ),
        ],
    )
    def test_error_row_records_no_simulation(self, manual, error):
        cfg = self.config(manual)
        # resolve rejects the config before any run
        for run in (resolve, lambda cfg: run_experiment(cfg, jobs=1)):
            with pytest.raises(ValueError) as info:
                run(cfg)
            assert f"ValueError: {info.value}" == error
        # falsify keeps the check for a problem built without resolve
        formula = parse(cfg.formula_text)
        grid = simulation_grid(cfg.plant, formula, 0.05)
        assert grid == TimeGrid(100.0, 0.05)
        fitness = FitnessAssessment(formula, manual=parse_manual(manual))
        problem = Problem(cfg.plant, cfg.assumption, grid, fitness)
        for i in range(cfg.repetitions):
            row = _run_one((problem, cfg.search, i))
            assert (row.error, row.iterations) == (error, 0)

    def test_check_windows(self):
        grid = TimeGrid(100.0, 0.05)
        spec = builtin("chasing_cars").port_spec
        ports = catalog("CC1").assumption.ports
        times = {p.port: uniform_control_times(grid, p.n) for p in ports}
        formula = parse("G[0,50] (y5 - y4 <= 40)")

        def reads(manual):
            fitness = FitnessAssessment(formula, manual=manual)
            return fitness.reads(grid, spec.inputs, spec.outputs, times)

        good = "max(y5 - y4,[0,100]) + mean(y1,[10.01,10.06]) - slope_up(throttle,[0,200])"
        reads(parse_manual(good))
        reads(None)
        with pytest.raises(ValueError, match="window end 100.5 exceeds grid end 100.0"):
            reads(parse_manual("ptp(y1,[0,100.5])"))


class BlockPlant(PlantModel):
    """Returns a fixed output block, whatever the input."""

    name = "block"
    port_spec = PortSpec(inputs=("u",), outputs=("a", "b", "c"))

    def __init__(self, block):
        self.block = block

    def fast_sim(self, u, grid):
        return self.block


class TestSimulatedTrace:
    GRID = TimeGrid(1.0, 0.1)

    def inputs(self):
        return {"u": Signal(self.GRID, np.linspace(0.0, 1.0, self.GRID.n_samples))}

    def test_channels_are_read_only_copies_of_the_block(self):
        block = np.random.default_rng(6).normal(size=(self.GRID.n_samples, 3))
        inputs = self.inputs()
        trace = simulate(BlockPlant(block), inputs, self.GRID).trace
        assert list(trace.channels) == ["a", "b", "c", "u"]
        want = block.copy()
        block[:] = 0.0
        for j, name in enumerate("abc"):
            values = trace.channel(name)
            assert same_bits(values, want[:, j])
            assert values.flags.c_contiguous and not values.flags.writeable
        assert trace.channel("u") is inputs["u"].values

    @pytest.mark.parametrize("bad", [(3, 1, math.inf), (5, 2, math.nan), (0, 1, -math.inf)])
    def test_non_finite_output_names_the_first_bad_channel(self, bad):
        block = np.ones((self.GRID.n_samples, 3))
        row, col, value = bad
        block[row, col] = value
        block[-1, 2] = math.nan
        name = "abc"[col]
        with pytest.raises(ValueError) as exc:
            simulate(BlockPlant(block), self.inputs(), self.GRID)
        assert str(exc.value) == f"channel {name!r}: signal values must be finite"

    def test_wrong_sample_count_same_error(self):
        block = np.ones((self.GRID.n_samples - 1, 3))
        with pytest.raises(ValueError) as exc:
            simulate(BlockPlant(block), self.inputs(), self.GRID)
        assert str(exc.value) == "channel 'a': signal needs 11 samples, got shape (10,)"
