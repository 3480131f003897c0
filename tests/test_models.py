import numpy as np
import pytest

from athena.errors import DivergenceError, PortMismatchError
from athena.models import (
    AutoTransmissionLite,
    ChasingCars,
    Passthrough,
    PlantModel,
    PortSpec,
    builtin,
    simulate,
)
from athena.signals import ControlPoints, InterpolationKind, Signal, TimeGrid, interpolate

from oracles import at_lite_reference, reference_rk4


def const_inputs(model, grid, values):
    return {
        name: Signal(grid, np.full(grid.n_samples, float(values[name])))
        for name in model.port_spec.inputs
    }


class TestPortSpec:
    def test_builtin_ports(self):
        cc = builtin("chasing_cars")
        assert cc.port_spec.inputs == ("throttle", "brake")
        assert cc.port_spec.outputs == ("y1", "y2", "y3", "y4", "y5")
        assert cc.default_horizon == 100.0
        at = builtin("at_lite")
        assert at.port_spec.inputs == ("Throttle", "Brake")
        assert at.port_spec.outputs == ("Speed", "RPM", "Gear")
        assert at.default_horizon == 50.0
        pt = builtin("passthrough")
        assert pt.port_spec == PortSpec(("x",), ("y",))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("water_tank")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PortSpec(("a", "a"), ("y",))
        with pytest.raises(ValueError):
            PortSpec(("a",), ("y", "y"))
        with pytest.raises(ValueError):
            PortSpec(("a",), ("a",))
        with pytest.raises(ValueError):
            PortSpec(("a",), ())


class TestPassthrough:
    def test_identity_exact(self):
        grid = TimeGrid(10.0, 0.5)
        rng = np.random.default_rng(0)
        vals = rng.uniform(-3, 3, grid.n_samples)
        res = simulate(builtin("passthrough"), {"x": Signal(grid, vals)}, grid)
        assert np.array_equal(res.trace.channel("y"), vals)
        assert np.array_equal(res.trace.channel("x"), vals)

    def test_trace_holds_outputs_and_inputs(self):
        grid = TimeGrid(5.0, 1.0)
        res = simulate(builtin("passthrough"), {"x": Signal(grid, np.zeros(6))}, grid)
        assert set(res.trace.channels) == {"x", "y"}
        assert res.trace.grid == grid


class TestPortChecks:
    def test_missing_input(self):
        grid = TimeGrid(5.0, 1.0)
        cc = builtin("chasing_cars")
        with pytest.raises(PortMismatchError):
            simulate(cc, {"throttle": Signal(grid, np.zeros(6))}, grid)

    def test_extra_input(self):
        grid = TimeGrid(5.0, 1.0)
        pt = builtin("passthrough")
        sigs = {"x": Signal(grid, np.zeros(6)), "z": Signal(grid, np.zeros(6))}
        with pytest.raises(PortMismatchError):
            simulate(pt, sigs, grid)

    def test_grid_mismatch(self):
        pt = builtin("passthrough")
        other = TimeGrid(5.0, 0.5)
        with pytest.raises(ValueError):
            simulate(pt, {"x": Signal(other, np.zeros(11))}, TimeGrid(5.0, 1.0))


class BlowUp(PlantModel):
    """v' = v^2 from v=1 escapes to infinity just after t=1."""

    name = "blow_up"
    port_spec = PortSpec(inputs=(), outputs=("v",))
    state_dim = 1

    def initial_state(self):
        return np.array([1.0])

    def derivative(self, state, u):
        return state * state

    def output(self, state, u):
        return state.copy()


class TestDivergence:
    def test_error_names_time(self):
        grid = TimeGrid(2.0, 0.01)
        with pytest.raises(DivergenceError) as exc:
            simulate(BlowUp(), {}, grid)
        assert 0.9 <= exc.value.time <= 2.0


def cc_reference_deriv(model):
    K, C, gap = model.SPRING, model.DAMPING, model.REST_GAP

    def deriv(state, u):
        pos = state[:5]
        vel = state[5:]
        dv = [model.ACCEL_GAIN * u[0] - model.BRAKE_GAIN * u[1] - model.DRAG * vel[0]]
        for k in range(1, 5):
            dv.append(K * ((pos[k - 1] - pos[k]) - gap) - C * vel[k] + C * vel[k - 1])
        return list(vel) + dv

    return deriv


class TestChasingCars:
    def test_unforced_is_equilibrium(self):
        grid = TimeGrid(20.0, 0.1)
        cc = builtin("chasing_cars")
        res = simulate(cc, const_inputs(cc, grid, {"throttle": 0, "brake": 0}), grid)
        for name, want in zip(("y1", "y2", "y3", "y4", "y5"), (0, 10, 20, 30, 40)):
            assert np.allclose(res.trace.channel(name), want, rtol=0, atol=1e-9)

    def test_forced_matches_fine_reference(self):
        grid = TimeGrid(10.0, 0.1)
        cc = builtin("chasing_cars")
        res = simulate(cc, const_inputs(cc, grid, {"throttle": 1, "brake": 0}), grid)
        ref_states = reference_rk4(
            cc_reference_deriv(cc),
            [40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5,
            10.0,
            0.001,
            lambda t: (1.0, 0.0),
        )
        ref = np.array(ref_states[::100])
        for j, name in enumerate(("y5", "y4", "y3", "y2", "y1")):
            assert np.allclose(res.trace.channel(name), ref[:, j], rtol=0, atol=1e-4)

    def test_fast_matches_generic(self):
        grid = TimeGrid(10.0, 0.05)
        cc = builtin("chasing_cars")
        cp_t = ControlPoints([0.0, 4.0, 10.0], [0.2, 1.0, 0.0])
        cp_b = ControlPoints([0.0, 10.0], [0.0, 0.6])
        sigs = {
            "throttle": interpolate(cp_t, InterpolationKind.PCHIP, grid),
            "brake": interpolate(cp_b, InterpolationKind.LINEAR, grid),
        }
        fast = simulate(cc, sigs, grid)
        samples = list(zip(sigs["throttle"].values, sigs["brake"].values))
        ref_states = reference_rk4(
            cc_reference_deriv(cc),
            [40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5,
            grid.end,
            grid.step,
            lambda t: samples[round(t / grid.step)],
        )
        ref = np.array(ref_states)
        for j, name in enumerate(("y5", "y4", "y3", "y2", "y1")):
            got = fast.trace.channel(name)
            assert np.allclose(got, ref[:, j], rtol=0, atol=1e-9)

    def test_determinism_bit_identical(self):
        grid = TimeGrid(100.0, 0.01)
        cc = builtin("chasing_cars")
        sigs = const_inputs(cc, grid, {"throttle": 0.8, "brake": 0.1})
        a = simulate(cc, sigs, grid)
        b = simulate(cc, sigs, grid)
        for name in a.trace.channels:
            assert np.array_equal(a.trace.channel(name), b.trace.channel(name))

    def test_full_horizon_bounded(self):
        grid = TimeGrid(100.0, 0.01)
        cc = builtin("chasing_cars")
        res = simulate(cc, const_inputs(cc, grid, {"throttle": 1, "brake": 0}), grid)
        for name in cc.port_spec.outputs:
            assert np.max(np.abs(res.trace.channel(name))) < 1e4

    def test_halving_dt_converged(self):
        cc = builtin("chasing_cars")
        sigs_of = lambda grid: {
            "throttle": interpolate(
                ControlPoints([0.0, 50.0, 100.0], [1.0, 0.0, 1.0]),
                InterpolationKind.PCHIP,
                grid,
            ),
            "brake": interpolate(
                ControlPoints([0.0, 100.0], [0.0, 0.5]), InterpolationKind.LINEAR, grid
            ),
        }
        g1 = TimeGrid(100.0, 0.01)
        g2 = TimeGrid(100.0, 0.005)
        r1 = simulate(cc, sigs_of(g1), g1)
        r2 = simulate(cc, sigs_of(g2), g2)
        for name in cc.port_spec.outputs:
            assert np.max(np.abs(r1.trace.channel(name) - r2.trace.channel(name)[::2])) < 1e-3


class TestAutoTransmissionLite:
    def test_full_throttle_properties(self):
        at = builtin("at_lite")
        grid = TimeGrid(50.0, 0.01)
        res = simulate(at, const_inputs(at, grid, {"Throttle": 100, "Brake": 0}), grid)
        speed = res.trace.channel("Speed")
        gear = res.trace.channel("Gear")
        assert np.all(np.diff(speed) >= -1e-12)
        assert gear[0] == 1.0
        assert gear[-1] == 4.0
        assert np.all(np.diff(gear) >= 0)

    def test_full_throttle_fine_step_properties(self):
        at = builtin("at_lite")
        grid = TimeGrid(50.0, 0.0001)
        res = simulate(at, const_inputs(at, grid, {"Throttle": 100, "Brake": 0}), grid)
        speed = res.trace.channel("Speed")
        assert np.all(np.diff(speed) >= -1e-12)
        assert res.trace.channel("Gear")[-1] == 4.0

    def test_rpm_formula_at_rest(self):
        at = builtin("at_lite")
        grid = TimeGrid(1.0, 0.1)
        res = simulate(at, const_inputs(at, grid, {"Throttle": 100, "Brake": 0}), grid)
        assert res.trace.channel("RPM")[0] == 600.0

    def test_brake_never_reverses(self):
        at = builtin("at_lite")
        grid = TimeGrid(30.0, 0.01)
        res = simulate(at, const_inputs(at, grid, {"Throttle": 0, "Brake": 325}), grid)
        assert np.all(res.trace.channel("Speed") >= 0.0)

    def test_fast_matches_generic(self):
        at = builtin("at_lite")
        grid = TimeGrid(20.0, 0.02)
        sigs = {
            "Throttle": interpolate(
                ControlPoints([0.0, 8.0, 20.0], [80.0, 20.0, 100.0]),
                InterpolationKind.PCHIP,
                grid,
            ),
            "Brake": interpolate(
                ControlPoints([0.0, 20.0], [0.0, 120.0]), InterpolationKind.LINEAR, grid
            ),
        }
        fast = simulate(at, sigs, grid)
        speed, rpm, gear = at_lite_reference(
            at, sigs["Throttle"].values.tolist(), sigs["Brake"].values.tolist(), grid.step
        )
        assert np.array_equal(fast.trace.channel("Gear"), gear)
        for name, ref in (("Speed", speed), ("RPM", rpm)):
            assert np.allclose(fast.trace.channel(name), ref, rtol=0, atol=1e-12)

    def test_hysteresis_dwell(self):
        # throttle pulse pushes past 15 mph then coasts back below 12
        at = builtin("at_lite")
        grid = TimeGrid(50.0, 0.01)
        sigs = {
            "Throttle": interpolate(
                ControlPoints([0.0, 4.0, 4.5, 50.0], [30.0, 30.0, 0.0, 0.0]),
                InterpolationKind.LINEAR,
                grid,
            ),
            "Brake": interpolate(
                ControlPoints([0.0, 50.0], [0.0, 0.0]), InterpolationKind.LINEAR, grid
            ),
        }
        res = simulate(at, sigs, grid)
        speed = res.trace.channel("Speed")
        gear = res.trace.channel("Gear")
        assert speed.max() > 15.0
        assert gear.max() == 2.0
        in_between = (speed < 14.9) & (speed > 12.1)
        assert np.any(in_between & (gear == 2.0))
        assert gear[-1] == 1.0
