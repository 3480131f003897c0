"""Tests for simulating a linear plant by superposition.

On interpolated inputs, `simulate` computes a `LinearPlant`'s outputs as
Y0 + K x over the inputs' interpolation coefficients x, instead of calling
`fast_sim`. The plant is affine by construction, so no declaration is
checked. The outputs must agree with `fast_sim`'s within the stated bound
(`AFFINE_RTOL`) and replay bit for bit from a test case's inputs. Where a
bound does not rule out an overflow, the plant runs its own `fast_sim`,
whose outcome, a DivergenceError or the outputs, plain copies of the
inputs give bit for bit. K is built by the first `simulate` that needs
it, not by `resolve`. Every other plant and input keeps `fast_sim`. Each
output row is formed only when read, bitwise as a row of the whole
product, and a sum of outputs is one product by its composed operator,
within the same bound of the per-channel sum, where no product can
overflow, and within the operators' byte budget.
"""

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from athena import models
from athena.catalog import catalog
from athena.cli import cli
from athena.errors import DivergenceError
from athena import signals
from athena.harness import (
    ExperimentConfig,
    parse_assumption,
    resolve,
    run_experiment,
)
from athena.models import (
    AFFINE_RTOL,
    ChasingCars,
    simulate,
)
from athena.search import (
    Assumption,
    PortAssumption,
    SearchConfig,
    check_problem,
    encode_inputs,
    falsify,
)
from athena.signals import (
    ControlPoints,
    InterpolatedSignal,
    InterpolationKind,
    Signal,
    TimeGrid,
    interpolate,
    uniform_control_times,
)
from athena.fitness import WindowStat, _leaves
from athena.stl import Eventually, Globally, Not, Predicate, Trace, parse, robustness

CC_ENTRIES = ["CC1", "CC2", "CC3", "CC4", "CC5", "CCx"]


def _fast(plant, inputs, grid):
    """`fast_sim` on the inputs' samples, as (outputs, samples) rows."""
    u = np.column_stack([inputs[name].values for name in plant.port_spec.inputs])
    return plant.fast_sim(u, grid).T


def _rows(trace, names):
    return np.array([trace.channel(y) for y in names])


def _candidate_inputs(problem, vector, sim_grid):
    a, grid = problem.assumption, problem.grid
    inputs = encode_inputs(a, a.control_points(vector, grid), grid)
    if sim_grid is grid:
        return inputs
    return {name: signal.prefix(sim_grid) for name, signal in inputs.items()}


def _bound(direct):
    return AFFINE_RTOL * max(1.0, float(np.abs(direct).max()))


class TestAgainstFastSim:
    @pytest.mark.parametrize("entry", CC_ENTRIES)
    def test_random_candidates_within_bound(self, entry):
        # the grid falsify simulates: CCx's 1001-sample prefix, and the
        # whole grid elsewhere
        problem = resolve(ExperimentConfig(entry=entry))
        a = problem.assumption
        sim_grid = check_problem(problem.plant, a, problem.fitness, problem.grid)
        if entry == "CCx":
            assert sim_grid.n_samples == 1001
        rng = np.random.default_rng(7)
        for _ in range(20):
            inputs = _candidate_inputs(problem, rng.uniform(a.lower, a.upper), sim_grid)
            assert all(isinstance(s, InterpolatedSignal) for s in inputs.values())
            trace = simulate(problem.plant, inputs, sim_grid).trace
            got = _rows(trace, problem.plant.port_spec.outputs)
            direct = _fast(problem.plant, inputs, sim_grid)
            assert np.abs(got - direct).max() <= _bound(direct)

    @pytest.mark.parametrize(
        "kind, n",
        [
            (InterpolationKind.PCHIP, 5),
            (InterpolationKind.LINEAR, 4),
            (InterpolationKind.PIECEWISE_CONSTANT, 3),
            (InterpolationKind.CONSTANT, 1),
        ],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_every_interpolation_kind(self, kind, n):
        grid = TimeGrid(30.0, 0.1)
        cc = ChasingCars()
        rng = np.random.default_rng(3)
        inputs = {
            name: interpolate(
                ControlPoints(uniform_control_times(grid, n), rng.uniform(0, 1, n)), kind, grid
            )
            for name in cc.port_spec.inputs
        }
        got = _rows(simulate(cc, inputs, grid).trace, cc.port_spec.outputs)
        direct = _fast(cc, inputs, grid)
        assert np.abs(got - direct).max() <= _bound(direct)

    def test_inputs_adopted_as_from_rows_adopts_them(self):
        # on the grid itself, and on an equal grid that is another object,
        # which goes through the checking constructor
        grid = TimeGrid(30.0, 0.1)
        cc = ChasingCars()
        cp = ControlPoints(uniform_control_times(grid, 3), [0.2, 0.9, 0.4])
        for g in (grid, TimeGrid(30.0, 0.1)):
            inputs = {
                name: interpolate(cp, InterpolationKind.PCHIP, g) for name in cc.port_spec.inputs
            }
            trace = simulate(cc, inputs, grid).trace
            assert isinstance(trace, models._SuperposedTrace)
            want = Trace.from_rows(grid, (), np.empty((0, grid.n_samples)), inputs)._store
            assert list(want) == list(cc.port_spec.inputs)
            # the input entries follow the outputs' and are from_rows' own
            held = list(trace._store)[len(cc.port_spec.outputs) :]
            assert held == list(want)
            assert all(trace._store[name] is want[name] for name in want)

    def test_one_adoption_rule_for_every_trace_build(self):
        # the constructor, from_rows and the superposed trace hold the same
        # input entries, on the grid itself and on an equal grid, and each
        # rejects a signal on another grid as the constructor does
        grid = TimeGrid(30.0, 0.1)
        cc = ChasingCars()
        cp = ControlPoints(uniform_control_times(grid, 3), [0.2, 0.9, 0.4])
        empty = np.empty((0, grid.n_samples))
        plans = tuple(interpolate(cp, InterpolationKind.PCHIP, grid).plan for _ in range(2))
        op = models._operator(cc, plans, grid)
        builds = [
            lambda inputs: Trace(grid, inputs),
            lambda inputs: Trace.from_rows(grid, (), empty, inputs),
            lambda inputs: models._SuperposedTrace.adopting(op, np.zeros(6), 0.0, inputs, grid),
        ]
        for g in (grid, TimeGrid(30.0, 0.1), TimeGrid(30.0, 0.05)):
            inputs = {
                name: interpolate(cp, InterpolationKind.PCHIP, g) for name in cc.port_spec.inputs
            }
            for build in builds:
                if g != grid:
                    with pytest.raises(ValueError, match="'throttle': not sampled on the trace"):
                        build(inputs)
                    continue
                store = build(inputs)._store
                assert list(store)[-len(inputs) :] == list(inputs)
                assert all(store[name] is signal for name, signal in inputs.items())
            if g == grid:
                trace = simulate(cc, inputs, grid).trace
                assert isinstance(trace, models._SuperposedTrace)
                assert all(trace._store[name] is signal for name, signal in inputs.items())

    def test_inputs_stay_in_the_trace_as_given(self):
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        inputs = _candidate_inputs(problem, a.lower + 0.3 * a.width, grid)
        trace = simulate(problem.plant, inputs, grid).trace
        for name, signal in inputs.items():
            assert trace.channel(name) is signal.values
        assert not trace.channel("y5").flags.writeable


class TestBitwise:
    @pytest.mark.parametrize("entry", ["CC1", "CC3"])
    def test_each_output_as_the_whole_plant_computes_it(self, entry):
        # an output read alone, as a score reads it, has the bits it has
        # when every output is formed
        problem = resolve(ExperimentConfig(entry=entry))
        a, grid = problem.assumption, problem.grid
        inputs = _candidate_inputs(problem, a.lower + 0.6 * a.width, grid)
        whole = simulate(problem.plant, inputs, grid).trace.channels
        for y in problem.plant.port_spec.outputs:
            read = simulate(problem.plant, inputs, grid).trace
            assert np.array_equal(read.channel(y), whole[y])

    def test_test_case_replays_exactly(self):
        problem = resolve(ExperimentConfig(entry="CC1"))
        result = falsify(
            problem.plant, problem.assumption, problem.fitness, SearchConfig(seed=0), problem.grid
        )
        case = result.failure
        assert all(isinstance(s, InterpolatedSignal) for s in case.inputs.values())
        trace = simulate(problem.plant, case.inputs, problem.grid).trace
        assert robustness(problem.fitness.formula, trace) == case.robustness

    @pytest.mark.parametrize("m", [2, 17, 1000, 1001, 1025, 1998])
    def test_prefix_outputs_are_the_whole_grid_outputs(self, m):
        # no sample of either grid is formed in the product's remainder
        grid = TimeGrid(100.0, 0.05)
        prefix = TimeGrid((m - 1) * 0.05, 0.05)
        assert prefix.n_samples == m
        cc = ChasingCars()
        rng = np.random.default_rng(m)
        whole = {
            name: interpolate(
                ControlPoints(uniform_control_times(grid, 7), rng.uniform(0, 1, 7)),
                InterpolationKind.PCHIP,
                grid,
            )
            for name in cc.port_spec.inputs
        }
        inputs = {name: signal.prefix(prefix) for name, signal in whole.items()}
        got = _rows(simulate(cc, inputs, prefix).trace, cc.port_spec.outputs)
        want = _rows(simulate(cc, whole, grid).trace, cc.port_spec.outputs)
        assert np.array_equal(got, want[:, :m])

    @pytest.mark.parametrize("entry", ["CC1", "CC2", "CC3", "CC4", "CC5"])
    def test_found_failures_are_failures_of_fast_sim(self, entry):
        # the test case's inputs rebuilt as plain signals run fast_sim, not
        # Y0 + K x: each failure the search found on the superposed outputs
        # is a failure of the plant itself, at the reported robustness to
        # the stated bound (each atom is a difference of two positions)
        p = resolve(ExperimentConfig(entry=entry))
        found = 0
        for seed in range(3):
            config = SearchConfig(seed=seed)
            result = falsify(p.plant, p.assumption, p.fitness, config, p.grid)
            if not result.found:
                continue
            found += 1
            case = result.failure
            inputs = {name: Signal(p.grid, s.values) for name, s in case.inputs.items()}
            trace = simulate(p.plant, inputs, p.grid).trace
            rho = robustness(p.fitness.formula, trace)
            positions = _rows(trace, p.plant.port_spec.outputs)
            assert rho < config.threshold
            assert abs(rho - case.robustness) <= 2 * _bound(positions)
        assert found

    def test_plain_signals_keep_fast_sim(self):
        grid = catalog("CC1").grid()
        cc = ChasingCars()
        u = np.random.default_rng(0).uniform(0.0, 1.0, (grid.n_samples, 2))
        inputs = {name: Signal(grid, u[:, j]) for j, name in enumerate(cc.port_spec.inputs)}
        trace = simulate(cc, inputs, grid).trace
        assert np.array_equal(_rows(trace, cc.port_spec.outputs), cc.fast_sim(u, grid).T)


class TestCoefficients:
    def test_constructor_drops_them_and_prefix_keeps_them(self):
        grid = TimeGrid(10.0, 0.5)
        cp = ControlPoints(uniform_control_times(grid, 3), [0.2, 0.9, 0.4])
        signal = interpolate(cp, InterpolationKind.PCHIP, grid)
        assert isinstance(signal, InterpolatedSignal)
        plain = Signal(grid, signal.values)
        assert type(plain) is Signal
        assert not hasattr(plain, "coefficients")
        short = signal.prefix(TimeGrid(5.0, 0.5))
        assert isinstance(short, InterpolatedSignal)
        assert short.plan is signal.plan
        assert short.coefficients is signal.coefficients

    def test_no_public_constructor(self):
        grid = TimeGrid(1.0, 0.5)
        with pytest.raises(TypeError):
            InterpolatedSignal(grid, np.zeros(3))

    @pytest.mark.parametrize("kind", list(InterpolationKind), ids=lambda k: k.value)
    def test_basis_times_coefficients_gives_the_samples(self, kind):
        grid = TimeGrid(10.0, 0.25)
        n = 1 if kind is InterpolationKind.CONSTANT else 5
        values = np.random.default_rng(1).uniform(-2.0, 3.0, n)
        signal = interpolate(ControlPoints(uniform_control_times(grid, n), values), kind, grid)
        coefficients = signal.coefficients
        assert not coefficients.flags.writeable
        assert len(coefficients) == (2 * n if kind is InterpolationKind.PCHIP else n)
        assert np.array_equal(coefficients[:n], values)
        basis = signal.plan.basis()
        assert basis.shape == (grid.n_samples, len(coefficients))
        assert signal.plan.grid == grid
        assert np.allclose(basis @ coefficients, signal.values, rtol=0, atol=1e-12)

    def test_held_and_linear_coefficients_are_the_control_values(self):
        grid = TimeGrid(10.0, 0.5)
        cp = ControlPoints(uniform_control_times(grid, 4), [1.0, 2.0, 0.0, 5.0])
        for kind in (InterpolationKind.LINEAR, InterpolationKind.PIECEWISE_CONSTANT):
            assert interpolate(cp, kind, grid).coefficients is cp.values

    @pytest.mark.parametrize("kind", list(InterpolationKind), ids=lambda k: k.value)
    def test_carried_floats_are_the_coefficients(self, kind):
        # linear and pchip signals carry the coefficients as the Python
        # floats their plan made, bit for bit with the array, signed zeros
        # included, and a prefix carries the same list; the held kinds
        # carry none
        grid = TimeGrid(10.0, 0.25)
        n = 1 if kind is InterpolationKind.CONSTANT else 6
        values = [-0.0, 0.0, 3.3, 3.3, -1e-310, 2.5][:n]
        signal = interpolate(ControlPoints(uniform_control_times(grid, n), values), kind, grid)
        floats = signal._floats
        if kind in (InterpolationKind.CONSTANT, InterpolationKind.PIECEWISE_CONSTANT):
            assert floats is None
        else:
            assert floats == signal.coefficients.tolist()
            assert [math.copysign(1.0, c) for c in floats] == [
                math.copysign(1.0, c) for c in signal.coefficients
            ]
            assert np.array_equal(
                np.array(floats).view(np.int64), signal.coefficients.view(np.int64)
            )
        assert signal.prefix(TimeGrid(5.0, 0.25))._floats is floats

    def test_non_finite_coefficient_sum_runs_fast_sim(self):
        # finite samples, but their coefficients' magnitudes overflow a sum
        grid = TimeGrid(10.0, 0.5)
        times = [0.0, 5.0, 10.0]
        signal = interpolate(ControlPoints(times, [1e308] * 3), InterpolationKind.PCHIP, grid)
        assert isinstance(signal, InterpolatedSignal)
        # formed at once, past the pchip bound
        assert signal._values is not None
        assert (signal.values == 1e308).all()
        cc = ChasingCars()
        zero = interpolate(ControlPoints(times, [0.0] * 3), InterpolationKind.PCHIP, grid)
        simulate(cc, {"throttle": zero, "brake": zero}, grid)  # builds the operator
        inputs = {"throttle": signal, "brake": zero}
        with _counting_fast_sim() as fast_sim:
            outcome = _outcome(cc, inputs, grid)
        assert fast_sim.call_count == 1
        assert _same_outcome(outcome, _outcome(cc, _plain(inputs, grid), grid))


class TestDivergence:
    def test_oversized_box_raises_divergence_at_first_non_finite_sample(self):
        grid = catalog("CC1").grid()
        box = Assumption(
            (
                PortAssumption("throttle", InterpolationKind.PCHIP, 0.0, 1e306, 7),
                PortAssumption("brake", InterpolationKind.PCHIP, 0.0, 1.0, 3),
            )
        )
        cc = ChasingCars()
        vector = np.concatenate([np.full(7, 1e306), np.zeros(3)])
        inputs = encode_inputs(box, box.control_points(vector, grid), grid)
        assert all(isinstance(s, InterpolatedSignal) for s in inputs.values())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                simulate(cc, inputs, grid)
            # the plant's own first non-finite state
            with pytest.raises(DivergenceError) as own:
                _fast(cc, inputs, grid)
        assert 0 < info.value.time < grid.end
        assert info.value.time == own.value.time

    def test_oversized_box_diverges_in_the_search(self):
        cfg = ExperimentConfig(
            plant=ChasingCars(),
            formula_text="G[0,100] (y5 - y4 <= 40)",
            assumption=parse_assumption("throttle:pchip:1e305,1e306:7;brake:pchip:0,1:3"),
            repetitions=1,
            search=SearchConfig(max_iterations=5),
        )
        row = run_experiment(cfg).rows[0]
        assert (row.error, row.found, row.iterations) == (None, False, 5)
        assert row.best_combined == 1.0


class TestOtherPlants:
    @pytest.mark.parametrize("entry", ["AT1", "AT2"])
    def test_at_lite_never_superposes(self, entry, monkeypatch):
        monkeypatch.setattr(models, "_superposed", lambda *a: pytest.fail("superposed"))
        problem = resolve(ExperimentConfig(entry=entry))
        falsify(
            problem.plant,
            problem.assumption,
            problem.fitness,
            SearchConfig(seed=0, max_iterations=20),
            problem.grid,
        )

    def test_passthrough_never_superposes(self, monkeypatch):
        monkeypatch.setattr(models, "_superposed", lambda *a: pytest.fail("superposed"))
        cfg = ExperimentConfig(
            plant=models.Passthrough(),
            formula_text="G[0,10] (y < 2)",
            assumption=parse_assumption("x:linear:0,1:4"),
            repetitions=1,
            search=SearchConfig(max_iterations=20),
        )
        assert run_experiment(cfg).rows[0].error is None


class TestOperatorCache:
    def test_shared_across_runs(self):
        models._operators.clear()
        problem = resolve(ExperimentConfig(entry="CC1"))
        # the first simulation builds the operator the runs use
        assert not models._operators
        for seed in range(3):
            falsify(
                problem.plant,
                problem.assumption,
                problem.fitness,
                SearchConfig(seed=seed, max_iterations=10),
                problem.grid,
            )
        assert len(models._operators) == 1
        (op,) = models._operators.values()
        K, y0 = op.K, op.y0
        # five outputs, 20 coefficients, 2001 samples padded to 2016: 1.6 MB
        assert K.shape == (5, 20, 2016) and y0.shape == (5, 2016)
        assert K.nbytes == 1612800
        assert not K[..., 2001:].any() and not y0[:, 2001:].any()
        assert not K.flags.writeable and not y0.flags.writeable

    def test_replay_of_a_found_failure_reuses_the_search_operator(self):
        # the search and the replay simulate the same plant on the same
        # grid and plans, so the replay builds no operator of its own
        models._operators.clear()
        problem = resolve(ExperimentConfig(entry="CC1"))
        result = falsify(
            problem.plant, problem.assumption, problem.fitness, SearchConfig(seed=0), problem.grid
        )
        assert result.found
        keys = list(models._operators)
        trace = simulate(problem.plant, result.failure.inputs, problem.grid).trace
        assert list(models._operators) == keys
        rho = robustness(problem.fitness.formula, trace)
        assert np.float64(rho).view(np.int64) == np.float64(result.failure.robustness).view(np.int64)

    @pytest.mark.parametrize("entry", ["CC3", "CCx"])
    def test_one_operator_holds_every_output(self, entry):
        models._operators.clear()
        problem = resolve(ExperimentConfig(entry=entry))
        falsify(
            problem.plant,
            problem.assumption,
            problem.fitness,
            SearchConfig(seed=0, max_iterations=5),
            problem.grid,
        )
        (op,) = models._operators.values()
        outputs = problem.plant.port_spec.outputs
        assert outputs == ("y1", "y2", "y3", "y4", "y5")
        assert op.rows == {name: k for k, name in enumerate(outputs)}
        assert op.K.shape[0] == op.y0.shape[0] == 5

    def test_bounded_in_bytes_oldest_dropped_first(self, monkeypatch):
        # 21 samples padded to 32, 5 outputs, 2n coefficients: (2n + 1) x
        # 1280 bytes
        budget = 48_000
        monkeypatch.setattr(models, "SUPERPOSITION_CACHE_BYTES", budget)
        models._operators.clear()
        grid = TimeGrid(10.0, 0.5)
        cc = ChasingCars()
        for n in range(2, 10):
            cp = ControlPoints(uniform_control_times(grid, n), np.ones(n))
            signal = interpolate(cp, InterpolationKind.LINEAR, grid)
            simulate(cc, {"throttle": signal, "brake": signal}, grid)
            kept = [op.nbytes for op in models._operators.values()]
            assert sum(kept) <= budget
            newest, *_ = reversed(models._operators.values())
            assert newest.K.shape == (5, 2 * n, 32)
        # the newest two fit, the third newest did not
        assert kept == [(2 * n + 1) * 1280 for n in (8, 9)]

    def test_operator_over_the_budget_is_not_built(self, monkeypatch):
        monkeypatch.setattr(models, "SUPERPOSITION_CACHE_BYTES", 1000)
        models._operators.clear()
        grid = TimeGrid(10.0, 0.5)
        cc = ChasingCars()
        cp = ControlPoints(uniform_control_times(grid, 4), [0.2, 0.9, 0.4, 0.7])
        signal = interpolate(cp, InterpolationKind.PCHIP, grid)
        inputs = {"throttle": signal, "brake": signal}
        trace = simulate(cc, inputs, grid).trace
        assert not models._operators
        assert np.array_equal(_rows(trace, cc.port_spec.outputs), _fast(cc, inputs, grid))


class TestOverflowBound:
    def test_largest_magnitudes_of_the_operator(self):
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        models._operators.clear()
        simulate(problem.plant, _candidate_inputs(problem, a.lower, grid), grid)
        (op,) = models._operators.values()
        assert op.k_max == np.abs(op.K).max()
        assert op.y0_max == np.abs(op.y0).max()

    def test_past_the_bound_the_plant_runs_fast_sim(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid, plant = problem.assumption, problem.grid, problem.plant
        inputs = _candidate_inputs(problem, a.lower + 0.7 * a.width, grid)
        outputs = plant.port_spec.outputs
        simulate(plant, inputs, grid)  # builds the operator
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x: checked.append(1) or isfinite(x))
        _rows(simulate(plant, inputs, grid).trace, outputs)
        assert checked == []
        monkeypatch.undo()
        # forced past the bound, the plant's own outputs bit for bit
        monkeypatch.setattr(models, "_SUPERPOSED_SAFE", 0.0)
        with _counting_fast_sim() as fast_sim:
            got = _rows(simulate(plant, inputs, grid).trace, outputs)
        assert fast_sim.call_count == 1
        assert np.array_equal(got.view(np.int64), _fast(plant, inputs, grid).view(np.int64))


def _counting_fast_sim():
    """`LinearPlant.fast_sim`, wrapped to count its calls; a subclass that
    inherits it still reaches superposition."""
    fast_sim = models.LinearPlant.fast_sim
    return mock.patch.object(models.LinearPlant, "fast_sim", autospec=True, side_effect=fast_sim)


def _plain(inputs, grid):
    return {name: Signal(grid, signal.values) for name, signal in inputs.items()}


def _outcome(plant, inputs, grid):
    """Every output row of `simulate`, or the time of its DivergenceError."""
    try:
        return _rows(simulate(plant, inputs, grid).trace, plant.port_spec.outputs)
    except DivergenceError as exc:
        return exc.time


def _same_outcome(a, b):
    """The same divergence time, or the same outputs bit for bit."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and a == b
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPastTheBound:
    """Where the inputs' coefficients fail the superposition bound,
    `simulate` runs the plant's own `fast_sim` on their samples, so its
    outcome is the one plain copies of the inputs give: the same
    DivergenceError time, or the same outputs bit for bit."""

    @pytest.mark.parametrize(
        "box, diverges",
        [
            ("throttle:pchip:1e305,1e306:7;brake:pchip:0,1:3", True),
            ("throttle:linear:-8e307,8e307:4;brake:pchip:0,1:3", True),
            ("throttle:pchip:0,1:7;brake:pconst:0,1e306:3", True),
            ("throttle:const:-1e306,1e306:1;brake:linear:0,1:3", True),
            # past the bound, yet every output finite
            ("throttle:pchip:1e295,1e297:7;brake:pchip:0,1:3", False),
            ("throttle:linear:-1e297,1e297:4;brake:pchip:0,1:3", False),
            ("throttle:pchip:0,1:7;brake:pconst:1e295,1e297:3", False),
            ("throttle:const:-1e297,1e297:1;brake:linear:0,1:3", False),
        ],
    )
    def test_the_outcome_of_plain_copies(self, box, diverges):
        a = parse_assumption(box)
        grid = catalog("CC1").grid()
        cc = ChasingCars()
        rng = np.random.default_rng(11)
        for _ in range(15):
            vector = a.lower + a.width * rng.random(a.dim)
            inputs = encode_inputs(a, a.control_points(vector, grid), grid)
            assert all(isinstance(s, InterpolatedSignal) for s in inputs.values())
            models._operator(cc, tuple(s.plan for s in inputs.values()), grid)
            with _counting_fast_sim() as fast_sim:
                got = _outcome(cc, inputs, grid)
            assert isinstance(got, float) is diverges
            assert _same_outcome(got, _outcome(cc, _plain(inputs, grid), grid))
            # past the bound: the plant's own scan, once
            assert fast_sim.call_count == 1

    def test_below_the_bound_no_fast_sim(self):
        a = parse_assumption("throttle:pchip:0,1:7;brake:pconst:0,1:3")
        grid = catalog("CC1").grid()
        cc = ChasingCars()
        inputs = encode_inputs(a, a.control_points(a.lower + 0.3 * a.width, grid), grid)
        simulate(cc, inputs, grid)  # builds the operator
        with _counting_fast_sim() as fast_sim:
            trace = simulate(cc, inputs, grid).trace
            _rows(trace, cc.port_spec.outputs)
        assert fast_sim.call_count == 0
        assert isinstance(trace, models._SuperposedTrace)


class TestResolveOnce:
    def test_second_resolve_makes_no_simulation(self, monkeypatch):
        # nor does the first: K is built by the first simulation
        models._operators.clear()
        calls = []
        fast_sim = ChasingCars.fast_sim
        monkeypatch.setattr(
            ChasingCars, "fast_sim", lambda self, u, grid: calls.append(1) or fast_sim(self, u, grid)
        )
        for _ in range(2):
            resolve(ExperimentConfig(entry="CC1"))
        assert calls == []
        assert not models._operators

    def test_repeated_check_makes_no_simulation_and_builds_no_plan(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="CC1"))
        args = (problem.plant, problem.assumption, problem.fitness, problem.grid)
        models._operators.clear()
        monkeypatch.setattr(signals, "_checked_plan", lambda *a: pytest.fail("plan looked up"))
        monkeypatch.setattr(ChasingCars, "fast_sim", lambda *a: pytest.fail("simulated"))
        monkeypatch.setattr(signals._PchipPlan, "samples", lambda *a: pytest.fail("sampled"))
        for _ in range(2):
            check_problem(*args)
        assert not models._operators


class TestCsvRoundTrip:
    def test_falsify_csv_simulate_robustness(self, tmp_path, capsys):
        # the inputs re-read from CSV are plain signals, simulated by
        # fast_sim, so robustness agrees to the stated bound, not bitwise
        base = str(tmp_path / "tc")
        assert cli(["falsify", "--catalog", "CC1", "--seed", "0", "--out", base]) == 0
        with open(base + ".json") as fh:
            reported = json.load(fh)["testcase"]["robustness"]
        capsys.readouterr()
        trace_csv = str(tmp_path / "trace.csv")
        assert cli(["simulate", "--plant", "chasing_cars", "--inputs", base + ".inputs.csv",
                    "--out", trace_csv]) == 0
        formula = catalog("CC1").formula_text
        assert cli(["robustness", "--formula", formula, "--trace", trace_csv]) == 0
        rho = float(capsys.readouterr().out)
        positions = np.loadtxt(trace_csv, delimiter=",", skiprows=1)[:, 1:6]
        # robustness of y5 - y4 moves by at most the bound on each output
        assert abs(rho - reported) <= 2 * AFFINE_RTOL * max(1.0, np.abs(positions).max())
        assert math.isfinite(rho) and rho < 0


def _sums(formula, manual):
    """The channel expressions of two or more terms that a score reads."""

    def walk(f):
        if isinstance(f, Predicate):
            yield f.expr
        elif isinstance(f, (Not, Globally, Eventually)):
            yield from walk(f.child)
        else:
            yield from walk(f.left)
            yield from walk(f.right)

    exprs = list(walk(formula))
    if manual is not None:
        exprs += [leaf.channel for leaf in _leaves(manual) if isinstance(leaf, WindowStat)]
    return [e for e in exprs if len(e.terms) > 1]


class TestComposition:
    """A sum of output channels read on a superposed trace is one product
    by the composed operator; its channels' rows are not formed for it."""

    @pytest.mark.parametrize("entry", CC_ENTRIES)
    def test_within_bound_of_the_per_channel_sum(self, entry):
        problem = resolve(ExperimentConfig(entry=entry))
        a = problem.assumption
        sim_grid = check_problem(problem.plant, a, problem.fitness, problem.grid)
        exprs = _sums(problem.fitness.formula, problem.fitness.manual)
        assert exprs
        rng = np.random.default_rng(11)
        for _ in range(20):
            inputs = _candidate_inputs(problem, rng.uniform(a.lower, a.upper), sim_grid)
            trace = simulate(problem.plant, inputs, sim_grid).trace
            composed = [expr.values(trace) for expr in exprs]
            # no output's entry is an array: no row was formed
            assert not any(
                isinstance(trace._store[name], np.ndarray) for name in problem.plant.port_spec.outputs
            )
            # a trace of the same channel values sums them per channel
            plain = Trace(trace.grid, trace.channels)
            bound = _bound(_rows(plain, problem.plant.port_spec.outputs))
            for expr, values in zip(exprs, composed):
                assert np.abs(values - expr.values(plain)).max() <= bound

    @pytest.mark.parametrize("entry", CC_ENTRIES)
    def test_channels_are_the_rows_of_the_whole_product(self, entry):
        problem = resolve(ExperimentConfig(entry=entry))
        a = problem.assumption
        sim_grid = check_problem(problem.plant, a, problem.fitness, problem.grid)
        rng = np.random.default_rng(12)
        for _ in range(5):
            inputs = _candidate_inputs(problem, rng.uniform(a.lower, a.upper), sim_grid)
            trace = simulate(problem.plant, inputs, sim_grid).trace
            op = models._operator(problem.plant, tuple(s.plan for s in inputs.values()), sim_grid)
            x = np.concatenate([s.coefficients for s in inputs.values()])
            whole = np.matmul(x, op.K)
            whole += op.y0
            for k, name in enumerate(problem.plant.port_spec.outputs):
                assert np.array_equal(trace.channel(name), whole[k, : sim_grid.n_samples])

    def test_channels_forms_every_output_in_order(self):
        problem = resolve(ExperimentConfig(entry="CC4"))
        a = problem.assumption
        plant = problem.plant
        inputs = _candidate_inputs(problem, a.lower + 0.4 * a.width, problem.grid)
        trace = simulate(plant, inputs, problem.grid).trace
        want = [*plant.port_spec.outputs, *plant.port_spec.inputs]
        assert list(trace.names) == want
        assert not any(isinstance(trace._store[name], np.ndarray) for name in want)
        channels = trace.channels
        assert list(channels) == want
        assert all(isinstance(trace._store[name], np.ndarray) for name in want)
        for name in plant.port_spec.outputs:
            assert channels[name] is trace.channel(name)
            assert not channels[name].flags.writeable
        for name, signal in inputs.items():
            assert channels[name] is signal.values

    @pytest.mark.parametrize(
        "kinds",
        [
            (InterpolationKind.PCHIP, InterpolationKind.PCHIP),
            (InterpolationKind.LINEAR, InterpolationKind.PIECEWISE_CONSTANT),
            (InterpolationKind.CONSTANT, InterpolationKind.PCHIP),
        ],
        ids=lambda ks: "-".join(k.value for k in ks),
    )
    def test_x_and_bound_of_the_concatenated_coefficients(self, kinds):
        # x and its bound are those of the concatenated coefficient arrays,
        # summed left to right on their Python floats, bit for bit
        grid = TimeGrid(30.0, 0.1)
        cc = ChasingCars()
        rng = np.random.default_rng(7)
        for _ in range(5):
            inputs = {}
            for name, kind in zip(cc.port_spec.inputs, kinds):
                n = 1 if kind is InterpolationKind.CONSTANT else 5
                values = rng.uniform(-1.0, 1.0, n)
                values[0] = -0.0
                cp = ControlPoints(uniform_control_times(grid, n), values)
                inputs[name] = interpolate(cp, kind, grid)
            trace = simulate(cc, inputs, grid).trace
            assert isinstance(trace, models._SuperposedTrace)
            op = models._operator(cc, tuple(s.plan for s in inputs.values()), grid)
            x = np.concatenate([s.coefficients for s in inputs.values()])
            size = sum(map(abs, x.tolist()))
            bound = size * op.k_max * (1.0 + models._SUPERPOSED_MARGIN) + op.y0_max
            assert np.array_equal(trace._x.view(np.int64), x.view(np.int64))
            assert np.float64(trace._bound).view(np.int64) == np.float64(bound).view(np.int64)

    def test_composed_sums_are_kept_per_trace(self):
        # a second read of a composed sum gives the same array, and a sum
        # that is not composed stays None, kept as such
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        plant = problem.plant
        inputs = _candidate_inputs(problem, a.lower + 0.5 * a.width, grid)
        trace = simulate(plant, inputs, grid).trace
        expr = problem.fitness.formula.child.expr
        first = trace.composed(expr)
        assert first is not None
        assert trace.composed(expr) is first
        # a term that names no output of the operator is not composed
        other = parse("G[0,100] (y5 - throttle <= 40)").child.expr
        assert trace.composed(other) is None
        assert other.terms in trace._sums and trace._sums[other.terms] is None
        op = models._operator(plant, tuple(s.plan for s in inputs.values()), grid)
        assert other.terms in op.sums and op.sums[other.terms] is None
        with mock.patch.object(models._Operator, "_compose") as compose:
            assert trace.composed(other) is None
            again = simulate(plant, inputs, grid).trace
            assert again.composed(other) is None
            assert again.composed(expr) is not None
        compose.assert_not_called()

    def test_a_cc1_iteration_forms_no_output_row(self, monkeypatch):
        traces = []

        def recorded(*args):
            sim = simulate(*args)
            traces.append(sim.trace)
            return sim

        monkeypatch.setattr("athena.search.simulate", recorded)
        problem = resolve(ExperimentConfig(entry="CC1"))
        search = SearchConfig(seed=4, max_iterations=5)
        falsify(problem.plant, problem.assumption, problem.fitness, search, problem.grid)
        assert traces
        for trace in traces:
            assert isinstance(trace, models._SuperposedTrace)
            # neither output's entry is an array: no row was formed
            assert not isinstance(trace._store["y4"], np.ndarray)
            assert not isinstance(trace._store["y5"], np.ndarray)

    def test_overflowing_products_keep_the_per_channel_sum(self):
        # each output is finite, but 1e306 * y5 overflows, and the sum of
        # the products may be inf - inf: the sum is taken per channel, with
        # the NaNs a trace of the same channel values gives
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        plant = problem.plant
        inputs = _candidate_inputs(problem, a.upper, grid)
        trace = simulate(plant, inputs, grid).trace
        formula = parse("G[0,100] (1e306 * y5 - 1e306 * y4 <= 40)")
        expr = formula.child.expr
        assert trace.composed(expr) is None
        plain = Trace(grid, trace.channels)
        with np.errstate(over="ignore", invalid="ignore"):
            got = expr.values(trace)
            want = expr.values(plain)
            assert np.isnan(want).any()
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            rho = robustness(formula, trace)
            assert np.float64(rho).view(np.int64) == np.float64(robustness(formula, plain)).view(np.int64)

    def test_outputs_under_the_bound_but_not_their_sum_keep_the_per_channel_sum(
        self, monkeypatch
    ):
        # the bound on x shows every output finite, and the composed
        # operator of y5 - y4 finite, but not 2 x the bound: the sum is
        # taken per channel, bitwise as on a trace of the same values
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        plant = problem.plant
        inputs = _candidate_inputs(problem, a.lower + 0.8 * a.width, grid)
        op = models._operator(plant, tuple(s.plan for s in inputs.values()), grid)
        x = np.concatenate([s.coefficients for s in inputs.values()])
        bound = np.abs(x).sum() * op.k_max * (1.0 + models._SUPERPOSED_MARGIN) + op.y0_max
        assert 2.0 * (op.k_max * (1.0 + models._SUPERPOSED_MARGIN) + op.y0_max) < 1.5 * bound
        monkeypatch.setattr(models, "_SUPERPOSED_SAFE", 1.5 * bound)
        trace = simulate(plant, inputs, grid).trace
        assert isinstance(trace, models._SuperposedTrace)
        expr = problem.fitness.formula.child.expr
        assert trace.composed(expr) is None
        assert op.sums[expr.terms] is not None
        got = expr.values(trace)
        assert np.array_equal(got, expr.values(Trace(grid, trace.channels)))

    def test_sums_count_toward_the_cache_budget(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        plant = problem.plant
        inputs = _candidate_inputs(problem, a.lower + 0.4 * a.width, grid)
        expr = problem.fitness.formula.child.expr
        plans = tuple(s.plan for s in inputs.values())
        # room for the platoon's operator alone: y5 - y4 is summed per
        # channel, bitwise as on a trace of the same channel values
        models._operators.clear()
        op = models._operator(plant, plans, grid)
        monkeypatch.setattr(models, "SUPERPOSITION_CACHE_BYTES", op.nbytes + 1000)
        trace = simulate(plant, inputs, grid).trace
        assert trace.composed(expr) is None
        assert op.nbytes == op.K.nbytes + op.y0.nbytes
        assert np.array_equal(expr.values(trace), expr.values(Trace(grid, trace.channels)))
        # with room for one row more, the sum is composed, its 322 KB are
        # counted with its operator, and older operators make room for them
        models._operators.clear()
        cp = ControlPoints(uniform_control_times(grid, 3), [0.2, 0.9, 0.4])
        linear = interpolate(cp, InterpolationKind.LINEAR, grid).plan
        other = models._operator(plant, (linear, linear), grid)
        op = models._operator(plant, plans, grid)
        row = op.K[0].nbytes + op.y0[0].nbytes
        monkeypatch.setattr(models, "SUPERPOSITION_CACHE_BYTES", op.nbytes + row + other.nbytes - 1)
        trace = simulate(plant, inputs, grid).trace
        assert trace.composed(expr) is not None
        assert op.K[0].nbytes == 322_560
        assert op.nbytes == op.K.nbytes + op.y0.nbytes + row
        assert list(models._operators.values()) == [op]
        assert sum(o.nbytes for o in models._operators.values()) <= models.SUPERPOSITION_CACHE_BYTES
