"""Tests for the annealing falsification loop and its input encoding."""

import math
import struct
import warnings

import numpy as np
import pytest

from athena.catalog import catalog
from athena.errors import HorizonError, PortMismatchError
from athena.fitness import FitnessAssessment, parse_manual
from athena.models import PlantModel, PortSpec, Passthrough, simulate
from athena.search import (
    Assumption,
    PortAssumption,
    SearchConfig,
    encode_inputs,
    falsify,
    propose,
)
from athena.signals import (
    ControlPoints,
    InterpolationKind,
    TimeGrid,
    WindowStatKind,
    interpolate,
    uniform_control_times,
)
from athena.stl import parse, robustness, satisfied

GRID10 = TimeGrid(10.0, 0.1)

PCHIP = InterpolationKind.PCHIP
CONST = InterpolationKind.CONSTANT
LINEAR = InterpolationKind.LINEAR


def box(lo=0.0, hi=1.0, n=1, kind=CONST, port="x"):
    return Assumption((PortAssumption(port, kind, lo, hi, n),))


def speed_fitness(text, auto_scale=1.0, **kw):
    return FitnessAssessment(formula=parse(text), auto_scale=auto_scale, **kw)


class TestAssumption:
    def test_layout(self):
        a = Assumption(
            (
                PortAssumption("throttle", PCHIP, 0.0, 1.0, 7),
                PortAssumption("brake", PCHIP, 0.0, 1.0, 3),
            )
        )
        assert a.dim == 10
        assert a.slices() == (slice(0, 7), slice(7, 10))
        assert np.array_equal(a.lower, np.zeros(10))
        assert np.array_equal(a.upper, np.ones(10))

    def test_mixed_ranges(self):
        a = Assumption(
            (
                PortAssumption("Throttle", PCHIP, 0.0, 100.0, 2),
                PortAssumption("Brake", PCHIP, 0.0, 325.0, 2),
            )
        )
        assert np.array_equal(a.lower, [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(a.upper, [100.0, 100.0, 325.0, 325.0])

    def test_bad_range(self):
        with pytest.raises(ValueError):
            PortAssumption("x", PCHIP, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            PortAssumption("x", PCHIP, 0.0, np.inf, 2)

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            PortAssumption("x", CONST, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            PortAssumption("x", PCHIP, 0.0, 1.0, 1)

    def test_duplicate_port(self):
        p = PortAssumption("x", CONST, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Assumption((p, p))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Assumption(())

    def test_vector_validation(self):
        a = box(n=3, kind=LINEAR)
        with pytest.raises(ValueError):
            a.validate_vector([0.5, 0.5])
        with pytest.raises(ValueError):
            a.validate_vector([0.5, 1.5, 0.5])
        with pytest.raises(ValueError):
            a.validate_vector([0.5, np.nan, 0.5])
        got = a.validate_vector([0.0, 0.5, 1.0])
        assert got.dtype == float


class TestEncodeInputs:
    def test_two_port_slicing(self):
        grid = TimeGrid(100.0, 0.5)
        a = Assumption(
            (
                PortAssumption("throttle", PCHIP, 0.0, 1.0, 7),
                PortAssumption("brake", PCHIP, 0.0, 1.0, 3),
            )
        )
        rng = np.random.default_rng(11)
        vec = rng.uniform(0.0, 1.0, 10)
        got = encode_inputs(a, a.control_points(vec, grid), grid)
        assert set(got) == {"throttle", "brake"}
        want_throttle = interpolate(
            ControlPoints(uniform_control_times(grid, 7), vec[:7]), PCHIP, grid
        )
        want_brake = interpolate(
            ControlPoints(uniform_control_times(grid, 3), vec[7:]), PCHIP, grid
        )
        assert np.array_equal(got["throttle"].values, want_throttle.values)
        assert np.array_equal(got["brake"].values, want_brake.values)

    def test_zero_vector_gives_zero_signals(self):
        grid = TimeGrid(50.0, 0.1)
        a = Assumption(
            (
                PortAssumption("Throttle", PCHIP, 0.0, 100.0, 7),
                PortAssumption("Brake", PCHIP, 0.0, 325.0, 3),
            )
        )
        got = encode_inputs(a, a.control_points(np.zeros(10), grid), grid)
        assert np.all(got["Throttle"].values == 0.0)
        assert np.all(got["Brake"].values == 0.0)

    def test_single_constant_point(self):
        a = box(lo=0.0, hi=10.0, n=1, kind=CONST)
        got = encode_inputs(a, a.control_points([5.0], GRID10), GRID10)
        assert np.all(got["x"].values == 5.0)

    def test_length_mismatch(self):
        a = box(n=3, kind=LINEAR)
        with pytest.raises(ValueError):
            encode_inputs(a, a.control_points([0.1, 0.2], GRID10), GRID10)

    def test_out_of_range_value(self):
        a = box(n=1, kind=CONST)
        with pytest.raises(ValueError):
            encode_inputs(a, a.control_points([1.5], GRID10), GRID10)

    def test_control_points_round_trip(self):
        a = box(n=4, kind=LINEAR, lo=-2.0, hi=2.0)
        vec = [-1.0, 0.5, 2.0, -2.0]
        cps = a.control_points(vec, GRID10)
        assert np.array_equal(cps["x"].times, [0.0, 10.0 / 3.0, 20.0 / 3.0, 10.0])
        assert np.array_equal(cps["x"].values, vec)


class TestPropose:
    def test_temperature_floor(self):
        a = box(n=4, kind=LINEAR)
        current = np.full(4, 0.5)
        rng = np.random.default_rng(5)
        deltas = []
        for _ in range(2000):
            nxt = propose(current, a, 0.0, rng)
            deltas.extend(nxt - current)
        std = np.std(deltas)
        assert 0.004 < std < 0.006
        assert any(d != 0.0 for d in deltas)

    def test_std_scales_with_temperature(self):
        a = box(n=4, kind=LINEAR)
        current = np.full(4, 0.5)
        rng = np.random.default_rng(5)
        hot = np.std([propose(current, a, 1.0, rng) - current for _ in range(2000)])
        cool = np.std([propose(current, a, 0.5, rng) - current for _ in range(2000)])
        assert 0.09 < hot < 0.11
        assert 0.045 < cool < 0.055

    def test_nan_current_rejected(self):
        a = catalog("CC1").assumption
        current = np.full(a.dim, 0.5)
        current[0] = np.nan
        with pytest.raises(ValueError, match="assumption box"):
            propose(current, a, 1.0, np.random.default_rng(0))

    def test_clamped_to_box(self):
        a = box(n=3, kind=LINEAR)
        current = np.array([0.0, 0.5, 1.0])
        rng = np.random.default_rng(9)
        for _ in range(500):
            nxt = propose(current, a, 30.0, rng)
            assert np.all(nxt >= 0.0) and np.all(nxt <= 1.0)

    def test_deterministic_given_seed(self):
        a = box(n=5, kind=LINEAR)
        current = np.full(5, 0.25)
        seq_a = []
        rng = np.random.default_rng(42)
        for t in (1.0, 0.5, 0.1, 0.0):
            seq_a.append(propose(current, a, t, rng))
        rng = np.random.default_rng(42)
        for t, want in zip((1.0, 0.5, 0.1, 0.0), seq_a):
            assert np.array_equal(propose(current, a, t, rng), want)


class FragileIntegrator(PlantModel):
    """y' = u normally; the derivative explodes once u crosses 0.7."""

    name = "fragile"
    port_spec = PortSpec(inputs=("u",), outputs=("y",))
    state_dim = 1

    def derivative(self, state, u):
        if u[0] > 0.7:
            return state * state + 1e160
        return np.array([u[0]])

    def output(self, state, u):
        return state.copy()


class TestFalsify:
    def analytic_run(self, seed, **cfg_kw):
        cfg = SearchConfig(seed=seed, **cfg_kw)
        return falsify(
            Passthrough(),
            box(),
            speed_fitness("G[0,10] (x < 0.5)"),
            cfg,
            GRID10,
        )

    def test_analytic_passthrough_rate(self):
        found = sum(self.analytic_run(seed).found for seed in range(100))
        assert found >= 99

    def test_failure_record_shape(self):
        result = self.analytic_run(7)
        assert result.found
        tc = result.failure
        assert tc.robustness < 0.0
        assert tc.seed == 7
        assert 0 <= tc.iteration < 300
        assert result.iterations_used == tc.iteration + 1
        assert len(result.history) == result.iterations_used
        assert tc.vector.shape == (1,)
        with pytest.raises(ValueError):
            tc.vector[0] = 0.0

    def test_failure_replays_bitwise(self):
        result = self.analytic_run(11)
        tc = result.failure
        inputs = encode_inputs(box(), box().control_points(tc.vector, GRID10), GRID10)
        sim = simulate(Passthrough(), inputs, GRID10)
        formula = parse("G[0,10] (x < 0.5)")
        rho = robustness(formula, sim.trace)
        assert rho == tc.robustness
        assert rho < 0.0
        assert not satisfied(formula, sim.trace)

    def test_unfalsifiable_reports_nff(self):
        for seed in range(5):
            result = falsify(
                Passthrough(),
                box(),
                speed_fitness("G[0,10] (x < 2)"),
                SearchConfig(seed=seed, max_iterations=80),
                GRID10,
            )
            assert not result.found
            assert result.failure is None
            assert result.best_robustness >= 1.0
            assert result.iterations_used == 80
            assert len(result.history) == 80

    def test_replay_determinism(self):
        first = self.analytic_run(3)
        second = self.analytic_run(3)
        assert first.history == second.history
        assert first.found == second.found
        assert first.iterations_used == second.iterations_used
        assert np.array_equal(first.failure.vector, second.failure.vector)
        assert first.failure.robustness == second.failure.robustness

    def test_best_tracks_history_minimum(self):
        result = falsify(
            Passthrough(),
            box(),
            speed_fitness("G[0,10] (x < 2)", auto_scale=3.0),
            SearchConfig(seed=1, max_iterations=60),
            GRID10,
        )
        assert result.best_combined == min(f for _, _, f in result.history)
        assert result.iterations_used <= 60

    def test_candidates_stay_in_box(self):
        seen = []
        falsify(
            Passthrough(),
            box(lo=-3.0, hi=-1.0),
            speed_fitness("G[0,10] (x > -4)", auto_scale=2.0),
            SearchConfig(seed=5, max_iterations=70, restart_after=10),
            GRID10,
            observer=lambda i, vec, f: seen.append((i, vec)),
        )
        assert len(seen) == 70
        assert [i for i, _ in seen] == list(range(70))
        for _, vec in seen:
            assert np.all(vec >= -3.0) and np.all(vec <= -1.0)

    def test_divergent_candidates_are_penalized_not_fatal(self):
        result = falsify(
            FragileIntegrator(),
            box(port="u"),
            speed_fitness("G[0,10] (y < 9)"),
            SearchConfig(seed=0, max_iterations=40),
            GRID10,
        )
        assert not result.found
        assert len(result.history) == 40
        assert (1.0, 1.0, 1.0) in result.history
        assert any(h != (1.0, 1.0, 1.0) for h in result.history)
        assert result.best_robustness >= 2.0

    def test_stall_triggers_restart(self):
        # flat fitness: every candidate clamps to automatic = 1, so the
        # best never improves after iteration 0 and the chain must restart
        flat = speed_fitness("G[0,10] (x < 2)", auto_scale=0.001)

        def run(restart_after):
            seen = []
            falsify(
                Passthrough(),
                box(),
                flat,
                SearchConfig(seed=123, max_iterations=10, restart_after=restart_after),
                GRID10,
                observer=lambda i, vec, f: seen.append(vec),
            )
            return seen

        with_restarts = run(3)
        without = run(10**6)
        for i in range(4):
            assert np.array_equal(with_restarts[i], without[i])
        assert not np.array_equal(with_restarts[4], without[4])

    def test_custom_threshold_stops_early(self):
        result = falsify(
            Passthrough(),
            box(),
            speed_fitness("G[0,10] (x < 0.5)"),
            SearchConfig(seed=2, max_iterations=300, threshold=0.4),
            GRID10,
        )
        assert result.found
        assert result.failure.robustness < 0.4

    def test_schedule_reaches_history(self):
        manual = parse_manual("scale(mean(x,[0,10]),[0,1])")
        cfg = FitnessAssessment(
            formula=parse("G[0,10] (x < 2)"),
            manual=manual,
            p=1.0,
            auto_scale=1.0,
            p_schedule=(1.0, 0.0),
        )
        result = falsify(
            Passthrough(),
            box(),
            cfg,
            SearchConfig(seed=4, max_iterations=20),
            GRID10,
        )
        assert len(result.history) == 20
        for i, (fa, fm, f) in enumerate(result.history):
            p_eff = 1.0 + (0.0 - 1.0) * i / 19.0
            assert f == p_eff * fa + (1.0 - p_eff) * fm
        assert result.history[0][2] == result.history[0][0]
        assert result.history[19][2] == result.history[19][1]

    def test_horizon_checked_before_search(self):
        with pytest.raises(HorizonError):
            falsify(
                Passthrough(),
                box(),
                speed_fitness("G[0,20] (x < 0.5)"),
                SearchConfig(seed=0),
                GRID10,
            )

    def test_port_mismatch_rejected(self):
        with pytest.raises(PortMismatchError):
            falsify(
                Passthrough(),
                box(port="u"),
                speed_fitness("G[0,10] (x < 0.5)"),
                SearchConfig(seed=0),
                GRID10,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(cooling=1.0)
        with pytest.raises(ValueError):
            SearchConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SearchConfig(restart_after=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("t0", math.nan, "t0 must be finite, got nan"),
            ("t0", math.inf, "t0 must be finite, got inf"),
            ("sigma", math.nan, "sigma must be finite, got nan"),
            ("sigma", math.inf, "sigma must be finite, got inf"),
            ("threshold", math.nan, "threshold must be finite, got nan"),
            ("threshold", -math.inf, "threshold must be finite, got -inf"),
            ("sigma", "0.1", "sigma must be a number, got '0.1'"),
            ("cooling", None, "cooling must be a number, got None"),
            ("threshold", True, "threshold must be a number, got True"),
            ("max_iterations", 5.5, "max_iterations must be an integer, got 5.5"),
            ("max_iterations", "300", "max_iterations must be an integer, got '300'"),
            ("restart_after", 10.0, "restart_after must be an integer, got 10.0"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", False, "seed must be an integer, got False"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_constant_names_its_field(self, field, value, message):
        with pytest.raises(ValueError) as info:
            SearchConfig(**{field: value})
        assert str(info.value) == message

    def test_numpy_numbers_accepted(self):
        cfg = SearchConfig(max_iterations=np.int64(5), seed=np.int32(2), sigma=np.float64(0.2))
        assert cfg.max_iterations == 5 and cfg.seed == 2 and cfg.sigma == 0.2


class TestOverflowInTheScore:
    """A window whose mean or range passes the float maximum is infinite
    and raises no numpy warning: `falsify` scores through `robustness` and
    `manual_fitness`, which ignore overflow, and `ptp` subtracts Python
    floats."""

    def test_huge_box_scores_as_before_without_a_warning(self):
        fitness = FitnessAssessment(
            formula=parse("G[0,10] (y >= 0)"),
            auto_scale=2.0,
            manual=parse_manual("scale(mean(y,[0,10]),[0,1])"),
        )
        a = box(1e308, 1.7e308, 3, LINEAR)
        grid = TimeGrid(10.0, 0.1)
        # as `-W error` would
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = falsify(Passthrough(), a, fitness, SearchConfig(max_iterations=5, seed=3), grid)
            # the mean overflows in numpy outside a run
            with pytest.raises(RuntimeWarning, match="overflow"):
                WindowStatKind.MEAN.of(np.full(101, 1.5e308))
        # the scores a run gave when numpy warned: each mean is inf, which
        # scale clamps to 1, and the least sample is the box's lower bound
        assert result.history == ((1.0, 1.0, 1.0),) * 5
        assert result.best_robustness == 1e308

    @pytest.mark.parametrize(
        "chunk",
        [[-1.7e308, 1.7e308], [1e308, -1e308, 0.5], [-0.0, 0.0], [0.0, -0.0], [-0.0], [2.5, -1.25]],
    )
    def test_ptp_is_the_numpy_difference(self, chunk):
        chunk = np.array(chunk)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = WindowStatKind.PEAK_TO_PEAK.of(chunk)
        with np.errstate(over="ignore"):
            want = float(chunk.max() - chunk.min())
        assert struct.pack("d", got) == struct.pack("d", want)
