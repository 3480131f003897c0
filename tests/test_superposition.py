"""Tests for simulating an affine plant by superposition.

On interpolated inputs, `simulate` computes an `affine` plant's outputs as
Y0 + K x over the inputs' interpolation coefficients x, instead of calling
`fast_sim`. The outputs must agree with `fast_sim`'s within the stated
bound (`AFFINE_RTOL`), replay bit for bit from a test case's inputs, and
raise DivergenceError where they overflow, checked only when a bound does
not rule that out. A false `affine` declaration is rejected by every
`check_problem`, so at every resolve and by a direct `falsify`; a probe
that passed is kept with its operator, so checking the same problem again
makes no simulation. Every other plant and input keeps `fast_sim`.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from athena import models
from athena.catalog import catalog
from athena.cli import cli
from athena.errors import DivergenceError
from athena import signals
from athena.harness import (
    ExperimentConfig,
    _run_one,
    parse_assumption,
    resolve,
    run_experiment,
)
from athena.models import (
    AFFINE_RTOL,
    AutoTransmissionLite,
    ChasingCars,
    check_affine,
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
from athena.stl import robustness

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
        # the grid and the outputs falsify simulates: CCx's 1001-sample
        # prefix of all five positions, y4 and y5 on CC1
        problem = resolve(ExperimentConfig(entry=entry))
        a = problem.assumption
        sim_grid, sim_plant = check_problem(problem.plant, a, problem.fitness, problem.grid)
        if entry == "CCx":
            assert sim_grid.n_samples == 1001
        rng = np.random.default_rng(7)
        for _ in range(20):
            inputs = _candidate_inputs(problem, rng.uniform(a.lower, a.upper), sim_grid)
            assert all(isinstance(s, InterpolatedSignal) for s in inputs.values())
            trace = simulate(sim_plant, inputs, sim_grid).trace
            got = _rows(trace, sim_plant.port_spec.outputs)
            direct = _fast(sim_plant, inputs, sim_grid)
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
        problem = resolve(ExperimentConfig(entry=entry))
        a, grid = problem.assumption, problem.grid
        _, read_plant = check_problem(problem.plant, a, problem.fitness, grid)
        inputs = _candidate_inputs(problem, a.lower + 0.6 * a.width, grid)
        whole = simulate(problem.plant, inputs, grid).trace
        read = simulate(read_plant, inputs, grid).trace
        for y in read_plant.port_spec.outputs:
            assert np.array_equal(read.channel(y), whole.channel(y))

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
        assert type(Signal(grid, np.zeros(grid.n_samples)).prefix(TimeGrid(5.0, 0.5))) is Signal

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

    def test_non_finite_coefficient_sum_gives_a_plain_signal(self):
        # finite samples, but their coefficients' magnitudes overflow a sum
        grid = TimeGrid(10.0, 0.5)
        cp = ControlPoints([0.0, 5.0, 10.0], [1e308, 1e308, 1e308])
        signal = interpolate(cp, InterpolationKind.PCHIP, grid)
        assert type(signal) is Signal
        assert (signal.values == 1e308).all()


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
            # the first sample at which Y0 + K x is not finite
            op = models._operator(cc, tuple(s.plan for s in inputs.values()), grid)
            x = np.concatenate([s.coefficients for s in inputs.values()])
            with np.errstate(over="ignore", invalid="ignore"):
                rows = x @ op.K + op.y0
        first = int(np.argmin(np.isfinite(rows).all(axis=0)))
        assert 0 < first < grid.n_samples
        assert info.value.time == first * grid.step

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

    def test_midpoint_too_large_to_superpose_passes_the_probe(self):
        # the box midpoint's pchip coefficients sum past the float maximum,
        # so its signal is plain and `simulate` would not superpose it
        cfg = ExperimentConfig(
            plant=ChasingCars(),
            formula_text="G[0,100] (y5 - y4 <= 40)",
            assumption=parse_assumption("throttle:pchip:1e308,1.7e308:7;brake:pchip:0,1:3"),
            repetitions=1,
            search=SearchConfig(max_iterations=5),
        )
        row = run_experiment(cfg).rows[0]
        assert (row.error, row.found, row.iterations) == (None, False, 5)


class TestDeclaration:
    def test_only_chasing_cars_declares_affine(self):
        assert ChasingCars.affine
        assert not AutoTransmissionLite.affine
        assert not models.Passthrough.affine
        assert not models.PlantModel.affine

    def test_false_declaration_rejected_at_resolve(self, monkeypatch):
        class AffineAT(AutoTransmissionLite):
            affine = True

        entered = []
        monkeypatch.setattr("athena.harness.falsify", lambda *a, **k: entered.append(1))
        cfg = ExperimentConfig(
            plant=AffineAT(),
            formula_text=catalog("AT1").formula_text,
            assumption=catalog("AT1").assumption,
            step=catalog("AT1").step,
            repetitions=1,
        )
        with pytest.raises(ValueError, match="at_lite: declares outputs affine"):
            run_experiment(cfg)
        assert entered == []

    def test_false_declaration_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(AutoTransmissionLite, "affine", True)
        monkeypatch.setattr("athena.cli.falsify", lambda *a, **k: pytest.fail("searched"))
        rc = cli(["falsify", "--catalog", "AT1", "--out", str(tmp_path / "tc")])
        assert rc == 2
        assert "declares outputs affine" in capsys.readouterr().err
        assert not (tmp_path / "tc.json").exists()

    def test_false_declaration_rejected_by_falsify(self, monkeypatch):
        # a problem built without resolve is rejected as resolve rejects it,
        # before the first simulation
        class AffineAT(AutoTransmissionLite):
            affine = True

        e = catalog("AT1")
        cfg = ExperimentConfig(
            plant=AffineAT(),
            formula_text=e.formula_text,
            assumption=e.assumption,
            step=e.step,
            repetitions=1,
        )
        with pytest.raises(ValueError, match="at_lite: declares outputs affine") as by_resolve:
            resolve(cfg)
        problem = dataclasses.replace(resolve(ExperimentConfig(entry="AT1")), plant=AffineAT())
        monkeypatch.setattr("athena.search.simulate", lambda *a: pytest.fail("simulated"))
        search = SearchConfig(seed=0, max_iterations=50)
        with pytest.raises(ValueError) as by_falsify:
            falsify(problem.plant, problem.assumption, problem.fitness, search, problem.grid)
        assert str(by_falsify.value) == str(by_resolve.value)
        assert getattr(by_falsify.value, "simulations", 0) == 0
        row = _run_one((problem, search, 0))
        assert (row.error, row.iterations) == (f"ValueError: {by_resolve.value}", 0)

    def test_check_affine_passes_chasing_cars_and_other_plants(self):
        grid = TimeGrid(20.0, 0.05)
        cp = ControlPoints(uniform_control_times(grid, 4), [0.1, 0.8, 0.3, 0.5])
        signal = interpolate(cp, InterpolationKind.PCHIP, grid)
        check_affine(ChasingCars(), {"throttle": signal, "brake": signal}, grid)
        check_affine(AutoTransmissionLite(), {"Throttle": signal, "Brake": signal}, grid)


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
        # resolve's probe built the operator the runs use
        assert len(models._operators) == 1
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
        # y4 and y5, 20 coefficients, 2001 samples padded to 2016: 645 KB
        assert K.shape == (2, 20, 2016) and y0.shape == (2, 2016)
        assert K.nbytes == 645120
        assert not K[..., 2001:].any() and not y0[:, 2001:].any()
        assert not K.flags.writeable and not y0.flags.writeable

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
        check_affine(cc, inputs, grid)
        trace = simulate(cc, inputs, grid).trace
        assert not models._operators
        assert np.array_equal(_rows(trace, cc.port_spec.outputs), _fast(cc, inputs, grid))


class TestOverflowBound:
    def test_largest_magnitudes_of_the_operator(self):
        models._operators.clear()
        resolve(ExperimentConfig(entry="CC1"))
        (op,) = models._operators.values()
        assert op.k_max == np.abs(op.K).max()
        assert op.y0_max == np.abs(op.y0).max()

    def test_unchecked_rows_equal_checked_ones(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="CC1"))
        a, grid = problem.assumption, problem.grid
        inputs = _candidate_inputs(problem, a.lower + 0.7 * a.width, grid)
        outputs = problem.plant.port_spec.outputs
        simulate(problem.plant, inputs, grid)  # builds the operator
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x: checked.append(1) or isfinite(x))
        fast = _rows(simulate(problem.plant, inputs, grid).trace, outputs)
        assert checked == []
        # forced down the checked path, the same product gives the same bits
        monkeypatch.setattr(models, "_SUPERPOSED_SAFE", 0.0)
        slow = _rows(simulate(problem.plant, inputs, grid).trace, outputs)
        assert checked == [1]
        assert np.array_equal(fast.view(np.int64), slow.view(np.int64))


class TestResolveOnce:
    def test_second_resolve_makes_no_simulation(self, monkeypatch):
        resolve(ExperimentConfig(entry="CC1"))
        calls = []
        fast_sim = ChasingCars.fast_sim
        monkeypatch.setattr(
            ChasingCars, "fast_sim", lambda self, u, grid: calls.append(1) or fast_sim(self, u, grid)
        )
        resolve(ExperimentConfig(entry="CC1"))
        assert calls == []

    def test_false_declaration_rejected_on_every_resolve(self):
        class AffineAT(AutoTransmissionLite):
            affine = True

        cfg = ExperimentConfig(
            plant=AffineAT(),
            formula_text=catalog("AT1").formula_text,
            assumption=catalog("AT1").assumption,
            step=catalog("AT1").step,
        )
        for _ in range(2):
            with pytest.raises(ValueError, match="declares outputs affine"):
                resolve(cfg)
        # only probes that passed are kept
        (op,) = [op for key, op in models._operators.items() if key[0] is AffineAT]
        assert op.probes == set()

    def test_repeated_check_makes_no_simulation_and_builds_no_plan(self, monkeypatch):
        problem = resolve(ExperimentConfig(entry="CC1"))
        args = (problem.plant, problem.assumption, problem.fitness, problem.grid)
        models._operators.clear()
        check_problem(*args)
        (op,) = models._operators.values()
        assert len(op.probes) == 1
        # the probe interpolates from the control-time arrays a run decodes
        # with, so `interpolate` finds each plan by identity
        monkeypatch.setattr(signals, "_checked_plan", lambda *a: pytest.fail("plan looked up"))
        monkeypatch.setattr(ChasingCars, "fast_sim", lambda *a: pytest.fail("simulated"))
        # nor is the probe sampled: its coefficients find it among the
        # probes that passed
        monkeypatch.setattr(signals._PchipPlan, "_sum", lambda *a: pytest.fail("sampled"))
        for _ in range(2):
            check_problem(*args)
        assert len(op.probes) == 1

    def test_one_passed_probe_kept_per_problem(self):
        models._operators.clear()
        resolve(ExperimentConfig(entry="CC1"))
        (op,) = models._operators.values()
        assert len(op.probes) == 1
        resolve(ExperimentConfig(entry="CC1"))
        assert len(op.probes) == 1


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
