import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import athena
from athena.catalog import catalog
from athena.errors import DivergenceError, PortMismatchError, ignoring_overflow
from athena import models
from athena.models import (
    AFFINE_RTOL,
    AutoTransmissionLite,
    ChasingCars,
    LinearPlant,
    Passthrough,
    PlantModel,
    PortSpec,
    builtin,
    simulate,
)
from athena.search import encode_inputs
from athena.signals import (
    ControlPoints,
    InterpolationKind,
    Signal,
    TimeGrid,
    interpolate,
    uniform_control_times,
)

from oracles import affine_recurrence, at_lite_reference, reference_rk4


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


class PassthroughWithOwnSim(Passthrough):
    """A user subclass of the identity plant with its own `fast_sim`."""

    def fast_sim(self, u, grid):
        out = u.copy()
        out[1, 0] = np.inf
        return out


class TestPassthroughAdoptsItsOutput:
    """simulate copies x once, into the input block, and the trace adopts
    that column as y: no second copy and no finiteness pass."""

    def test_no_finiteness_pass(self, monkeypatch):
        grid = TimeGrid(120.0, 0.01)
        x = Signal(grid, np.random.default_rng(1).uniform(-2.0, 2.0, grid.n_samples))
        calls = []
        isfinite = np.isfinite

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        trace = simulate(builtin("passthrough"), {"x": x}, grid).trace
        assert calls == []
        y = trace.channel("y")
        assert np.array_equal(y, x.values)
        assert not y.flags.writeable and y.flags.c_contiguous
        assert not np.shares_memory(y, x.values)
        assert trace.channel("x") is x.values

    def test_user_subclass_with_own_sim_is_checked(self):
        assert Passthrough._fresh_rows and not PassthroughWithOwnSim._fresh_rows
        grid = TimeGrid(2.0, 0.5)
        with pytest.raises(ValueError, match="channel 'y': signal values must be finite"):
            simulate(PassthroughWithOwnSim(), {"x": Signal(grid, np.zeros(5))}, grid)


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


    def test_inputs_in_any_order_or_on_an_equal_grid(self):
        at = builtin("at_lite")
        grid = TimeGrid(5.0, 0.5)
        sigs = const_inputs(at, grid, {"Throttle": 60, "Brake": 10})
        want = simulate(at, sigs, grid).trace
        equal = TimeGrid(5.0, 0.5)
        for given in (
            {"Brake": sigs["Brake"], "Throttle": sigs["Throttle"]},
            const_inputs(at, equal, {"Throttle": 60, "Brake": 10}),
        ):
            got = simulate(at, given, grid).trace
            assert list(got.channels) == list(want.channels)
            for name in want.channels:
                assert np.array_equal(got.channel(name), want.channel(name))


class NaNOutput(PlantModel):
    """A user plant whose own `fast_sim` returns a non-finite output."""

    name = "nan_output"
    port_spec = PortSpec(inputs=("u",), outputs=("y",))

    def fast_sim(self, u, grid):
        out = u.copy()
        out[2, 0] = np.nan
        return out


class NaNTransmission(AutoTransmissionLite):
    """A user subclass of a built-in plant that replaces its `fast_sim`."""

    def fast_sim(self, u, grid):
        out = np.array(super().fast_sim(u, grid))
        out[1, 1] = np.inf
        return out


class TestFreshRows:
    """at_lite's `fast_sim` checks its fresh rows, which the trace adopts;
    every user-defined `fast_sim` is still copied and checked."""

    def test_at_lite_makes_one_finiteness_pass(self, monkeypatch):
        at = builtin("at_lite")
        grid = TimeGrid(10.0, 0.05)
        sigs = const_inputs(at, grid, {"Throttle": 80, "Brake": 5})
        calls = []
        isfinite = np.isfinite

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        trace = simulate(at, sigs, grid).trace
        assert calls == [(2, grid.n_samples)]
        assert not trace.channel("Speed").flags.writeable
        rows = trace.channel("Speed").base
        assert rows is not None and rows.shape == (3, grid.n_samples)
        assert rows.flags.c_contiguous and not rows.flags.writeable

    def test_user_plant_with_non_finite_output_is_rejected(self):
        grid = TimeGrid(2.0, 0.5)
        sigs = {"u": Signal(grid, np.zeros(5))}
        assert not NaNOutput._fresh_rows
        with pytest.raises(ValueError, match="channel 'y': signal values must be finite"):
            simulate(NaNOutput(), sigs, grid)

    def test_user_subclass_of_at_lite_is_checked(self):
        at = NaNTransmission()
        assert AutoTransmissionLite._fresh_rows and not at._fresh_rows
        grid = TimeGrid(2.0, 0.5)
        sigs = const_inputs(at, grid, {"Throttle": 50, "Brake": 0})
        with pytest.raises(ValueError, match="channel 'RPM': signal values must be finite"):
            simulate(at, sigs, grid)


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


class OutputOverflow(PlantModel):
    """s' = 1 from s=0: the state stays finite, the output s * 1e309 does
    not once s > 0."""

    name = "output_overflow"
    port_spec = PortSpec(inputs=(), outputs=("y",))
    state_dim = 1

    def derivative(self, state, u):
        return np.ones(1)

    def output(self, state, u):
        return state * 1e308 * 10


class TestDivergence:
    def test_error_names_time(self):
        grid = TimeGrid(2.0, 0.01)
        with pytest.raises(DivergenceError) as exc:
            simulate(BlowUp(), {}, grid)
        assert 0.9 <= exc.value.time <= 2.0

    def test_output_overflow_names_first_row(self):
        # the output at t=0 is 0; from the first step on it overflows to inf
        grid = TimeGrid(1.0, 0.25)
        with pytest.raises(DivergenceError) as exc:
            simulate(OutputOverflow(), {}, grid)
        assert exc.value.time == 0.25


class GenericCars(PlantModel):
    """The platoon as a user-defined plant: a derivative and an output map,
    with the `fast_sim` inherited from PlantModel."""

    name = "generic_cars"
    port_spec = ChasingCars.port_spec
    state_dim = 10

    def __init__(self):
        self._deriv = cc_reference_deriv(ChasingCars)

    def initial_state(self):
        return np.array([40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5)

    def derivative(self, state, u):
        return np.array(self._deriv(state, u))

    def output(self, state, u):
        return state[[4, 3, 2, 1, 0]]


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


def assert_matches_cc_reference(plant):
    grid = TimeGrid(10.0, 0.05)
    cp_t = ControlPoints([0.0, 4.0, 10.0], [0.2, 1.0, 0.0])
    cp_b = ControlPoints([0.0, 10.0], [0.0, 0.6])
    sigs = {
        "throttle": interpolate(cp_t, InterpolationKind.PCHIP, grid),
        "brake": interpolate(cp_b, InterpolationKind.LINEAR, grid),
    }
    fast = simulate(plant, sigs, grid)
    samples = list(zip(sigs["throttle"].values, sigs["brake"].values))
    ref_states = reference_rk4(
        cc_reference_deriv(ChasingCars),
        [40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5,
        grid.end,
        grid.step,
        lambda t: samples[round(t / grid.step)],
    )
    ref = np.array(ref_states)
    for j, name in enumerate(("y5", "y4", "y3", "y2", "y1")):
        got = fast.trace.channel(name)
        assert np.allclose(got, ref[:, j], rtol=0, atol=1e-9)


# (samples, step): n - 1 = 1 and 2 (the last pass adds to one row), 20,
# 25, the CCx prefix, 1997 (prime), the CC1 grid, 2300, and the CC4 size
# at step 0.01
SCAN_GRIDS = [
    (2, 0.05), (3, 0.05), (21, 0.05), (26, 0.05), (1001, 0.05), (1998, 0.05),
    (2001, 0.05), (2301, 0.05), (10001, 0.01),
]


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
        assert_matches_cc_reference(builtin("chasing_cars"))

    def test_user_plant_inherits_generic_fast_sim(self):
        assert_matches_cc_reference(GenericCars())

    @pytest.mark.parametrize("n, step", SCAN_GRIDS)
    def test_blocked_scan_matches_sequential(self, n, step):
        cc = ChasingCars()
        grid = TimeGrid((n - 1) * step, step)
        assert grid.n_samples == n
        u = np.random.default_rng(n).uniform(0.0, 1.0, (n, 2))
        Pt, Q, r = cc._step_ops(step)
        forcing = np.hstack([u[:-1], 0.5 * (u[:-1] + u[1:]), u[1:]]) @ Q + r
        ref = np.array(affine_recurrence(Pt.T.tolist(), forcing.tolist(), cc.x0))
        got = cc.fast_sim(u, grid)
        assert got.shape == (n, 5)
        assert np.allclose(got, ref[:, [4, 3, 2, 1, 0]], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, step", SCAN_GRIDS)
    def test_cached_step_ops_keep_every_bit(self, n, step, monkeypatch):
        cc = ChasingCars()
        grid = TimeGrid((n - 1) * step, step)
        u = np.random.default_rng(n).uniform(0.0, 1.0, (n, 2))
        ops = cc._step_ops(step)
        assert cc._step_ops(step) is ops
        assert not any(op.flags.writeable for op in ops)
        cached = cc.fast_sim(u, grid)
        build = ChasingCars._step_ops.__func__.__wrapped__
        monkeypatch.setattr(ChasingCars, "_step_ops", classmethod(build))
        assert np.array_equal(cc.fast_sim(u, grid), cached)

    @settings(max_examples=60, deadline=None)
    @given(grid=st.sampled_from(SCAN_GRIDS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_a_shorter_run_is_bitwise_the_prefix_of_the_whole_run(self, grid, seed, data):
        n, step = grid
        u = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2))
        full = ChasingCars().fast_sim(u, TimeGrid((n - 1) * step, step))
        # with m - 1 a power of two the last pass adds to one row
        powers = [2**k + 1 for k in range(14) if 2**k < n]
        m = data.draw(st.integers(2, n) | st.sampled_from(powers), label="m")
        prefix = TimeGrid((m - 1) * step, step)
        assert prefix.n_samples == m
        assert np.array_equal(ChasingCars().fast_sim(u[:m], prefix), full[:m])

    def test_cc1_grid_output_does_not_depend_on_blas_threads(self, tmp_path):
        # fast_sim on a sample block, and the superposed path on the CC1
        # candidate its control values encode, on the CC1 grid and on a
        # grid of the CC4 size, 10001 samples
        grids = [catalog("CC1").grid(), TimeGrid(100.0, 0.01)]
        script = (
            "import numpy as np\n"
            "from athena.catalog import catalog\n"
            "from athena.models import ChasingCars, simulate\n"
            "from athena.search import encode_inputs\n"
            "from athena.signals import TimeGrid\n"
            "cc = ChasingCars()\n"
            "a = catalog('CC1').assumption\n"
            f"for g, (end, step) in enumerate({[(g.end, g.step) for g in grids]!r}):\n"
            "    grid = TimeGrid(end, step)\n"
            "    u = np.random.default_rng(g).uniform(0.0, 1.0, (grid.n_samples, 2))\n"
            f"    out = {str(tmp_path)!r} + f'/{{g}}-'\n"
            "    np.save(out + 'full.npy', cc.fast_sim(u, grid))\n"
            "    inputs = encode_inputs(a, a.control_points(u[0, 0] * a.upper, grid), grid)\n"
            "    trace = simulate(cc, inputs, grid).trace\n"
            "    rows = [trace.channel(y) for y in cc.port_spec.outputs]\n"
            "    np.save(out + 'sup_full.npy', np.array(rows))\n"
        )
        src = str(Path(athena.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        cc = ChasingCars()
        a = catalog("CC1").assumption
        for g, grid in enumerate(grids):
            u = np.random.default_rng(g).uniform(0.0, 1.0, (grid.n_samples, 2))
            out = tmp_path / f"{g}-"
            assert np.array_equal(np.load(f"{out}full.npy"), cc.fast_sim(u, grid))
            inputs = encode_inputs(a, a.control_points(u[0, 0] * a.upper, grid), grid)
            trace = simulate(cc, inputs, grid).trace
            rows = np.array([trace.channel(y) for y in cc.port_spec.outputs])
            assert np.array_equal(np.load(f"{out}sup_full.npy"), rows)

    @pytest.mark.parametrize("throttle, time", [(1e307, 2.85), (1e305, 45.9)])
    def test_overflow_raises_divergence_without_warning(self, throttle, time):
        # the sequential recurrence first overflows at the same samples
        grid = TimeGrid(100.0, 0.05)
        cc = builtin("chasing_cars")
        sigs = const_inputs(cc, grid, {"throttle": throttle, "brake": 0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                simulate(cc, sigs, grid)
        assert exc.value.time == pytest.approx(time, abs=1e-9)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_input_left_unwritten(self, writeable):
        grid = TimeGrid(10.0, 0.05)
        u = np.random.default_rng(0).uniform(0.0, 1.0, (grid.n_samples, 2))
        want = u.copy()
        u.setflags(write=writeable)
        out = builtin("chasing_cars").fast_sim(u, grid)
        assert out.shape == (grid.n_samples, 5)
        assert np.array_equal(u, want)

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


def _platoon_matrices():
    """A, B and d of the platoon, read off `cc_reference_deriv`: the
    derivative at zero is d, and its change along each state and each
    input a column of A and of B."""
    deriv = cc_reference_deriv(ChasingCars)
    d = np.array(deriv([0.0] * 10, (0.0, 0.0)))
    A = np.column_stack([np.array(deriv(list(e), (0.0, 0.0))) - d for e in np.eye(10)])
    B = np.column_stack([np.array(deriv([0.0] * 10, tuple(e))) - d for e in np.eye(2)])
    return A, B, d


class LinearCars(LinearPlant):
    """The platoon as a user-defined linear plant: the matrices of the
    reference derivative, with the `fast_sim` inherited from LinearPlant."""

    name = "linear_cars"
    port_spec = ChasingCars.port_spec
    A, B, d = _platoon_matrices()
    x0 = [40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5
    output_states = (4, 3, 2, 1, 0)


def _interpolated_inputs(plant, grid, rng):
    """One interpolated input per port of `plant`, of a random kind."""
    inputs = {}
    for name in plant.port_spec.inputs:
        kind = rng.choice(list(InterpolationKind))
        n = 1 if kind is InterpolationKind.CONSTANT else int(rng.integers(2, 6))
        cp = ControlPoints(uniform_control_times(grid, n), rng.uniform(-1.0, 1.0, n))
        inputs[name] = interpolate(cp, kind, grid)
    return inputs


def assert_linear_plant_matches_references(plant, grid, inputs):
    """`fast_sim` matches the plain RK4 oracle to `assert_matches_cc_reference`'s
    atol, and the superposed `simulate` matches `fast_sim` to AFFINE_RTOL's
    bound."""
    names = plant.port_spec.inputs
    u = np.column_stack([inputs[name].values for name in names]) if names else np.empty(
        (grid.n_samples, 0)
    )
    A, B, d = plant.A, plant.B, plant.d
    samples = [tuple(row) for row in u.tolist()]
    ref = np.array(
        reference_rk4(
            lambda y, v: (A @ np.array(y) + B @ np.array(v, dtype=float) + d).tolist(),
            plant.x0.tolist(),
            grid.end,
            grid.step,
            lambda t: samples[round(t / grid.step)],
        )
    )
    direct = plant.fast_sim(u, grid)
    assert np.allclose(direct, ref[:, list(plant.output_states)], rtol=0, atol=1e-9)
    trace = simulate(plant, inputs, grid).trace
    assert isinstance(trace, models._SuperposedTrace) == bool(names)
    got = np.column_stack([trace.channel(y) for y in plant.port_spec.outputs])
    assert np.abs(got - direct).max() <= AFFINE_RTOL * max(1.0, float(np.abs(direct).max()))


@st.composite
def stable_linear_plants(draw):
    """A LinearPlant subclass of 1-4 states, 0-2 inputs and 1-4 outputs,
    whose A has every eigenvalue at real part -0.5 or less, with a grid
    and interpolated inputs."""
    n = draw(st.integers(1, 4), label="states")
    m = draw(st.integers(0, 2), label="inputs")
    k = draw(st.integers(1, n), label="outputs")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.uniform(-1.0, 1.0, (n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    plant = type(
        "RandomLinear",
        (LinearPlant,),
        {
            "name": "random_linear",
            "port_spec": PortSpec([f"u{j}" for j in range(m)], [f"y{i}" for i in range(k)]),
            "A": A,
            "B": rng.uniform(-1.0, 1.0, (n, m)),
            "d": rng.uniform(-1.0, 1.0, n),
            "x0": rng.uniform(-1.0, 1.0, n),
            "output_states": tuple(rng.permutation(n)[:k].tolist()),
        },
    )()
    step = draw(st.sampled_from([0.05, 0.1]), label="step")
    grid = TimeGrid(draw(st.integers(1, 200), label="steps") * step, step)
    return plant, grid, _interpolated_inputs(plant, grid, rng)


def _declared(**fields):
    """A LinearPlant class of a valid declaration with `fields` replaced,
    and those given as None left out."""
    declaration = {
        "name": "bad_plant",
        "port_spec": PortSpec(("u",), ("y1", "y2")),
        "A": -np.eye(2),
        "B": np.ones((2, 1)),
        "d": np.zeros(2),
        "x0": np.zeros(2),
        "output_states": (0, 1),
    }
    declaration.update(fields)
    declared = {key: value for key, value in declaration.items() if value is not None}
    return type("Declared", (LinearPlant,), declared)


class FlaggedAffine(PlantModel):
    """A plain plant that sets the `affine` attribute of earlier versions."""

    name = "flagged_affine"
    port_spec = PortSpec(inputs=("u",), outputs=("y",))
    affine = True

    def __init__(self):
        self.calls = 0

    def fast_sim(self, u, grid):
        self.calls += 1
        return 2.0 * u


class OwnSimCars(ChasingCars):
    """A platoon whose subclass overrides `fast_sim`."""

    def __init__(self):
        self.calls = 0

    def fast_sim(self, u, grid):
        self.calls += 1
        return super().fast_sim(u, grid)


class TestLinearPlant:
    def test_only_chasing_cars_is_a_linear_plant(self):
        assert isinstance(builtin("chasing_cars"), LinearPlant)
        assert not isinstance(builtin("at_lite"), LinearPlant)
        assert not isinstance(builtin("passthrough"), LinearPlant)

    def test_declaration_is_kept_read_only(self):
        for field in ("A", "B", "d", "x0"):
            value = getattr(LinearCars, field)
            assert value.dtype == np.float64 and not value.flags.writeable
        assert LinearCars.output_states == (4, 3, 2, 1, 0)

    def test_declared_platoon_matches_the_references(self):
        assert_matches_cc_reference(LinearCars())
        grid = TimeGrid(20.0, 0.05)
        plant = LinearCars()
        rng = np.random.default_rng(5)
        assert_linear_plant_matches_references(plant, grid, _interpolated_inputs(plant, grid, rng))

    @settings(max_examples=100, deadline=None)
    @given(case=stable_linear_plants())
    def test_random_stable_plants_match_the_references(self, case):
        assert_linear_plant_matches_references(*case)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"A": np.ones((2, 3))}, "A"),
            ({"A": np.ones(2)}, "A"),
            ({"A": "stiff"}, "A"),
            ({"B": np.ones((2, 2))}, "B"),
            ({"B": np.ones((3, 1))}, "B"),
            ({"d": np.zeros(3)}, "d"),
            ({"x0": np.zeros(1)}, "x0"),
            ({"A": [[-1.0, 0.0], [0.0, np.nan]]}, "A"),
            ({"B": [[np.inf], [0.0]]}, "B"),
            ({"d": [0.0, -np.inf]}, "d"),
            ({"x0": [np.nan, 0.0]}, "x0"),
            ({"output_states": (0, 2)}, "output_states"),
            ({"output_states": (-1, 0)}, "output_states"),
            ({"output_states": (1, 1)}, "output_states"),
            ({"output_states": (0,)}, "output_states"),
            ({"output_states": (0, 0.5)}, "output_states"),
            ({"output_states": 0}, "output_states"),
        ],
    )
    def test_malformed_declaration_is_rejected(self, fields, field):
        with pytest.raises(ValueError, match=f"^bad_plant: {field} "):
            _declared(**fields)

    def test_undeclared_field_is_rejected(self):
        with pytest.raises(ValueError, match="^bad_plant: x0 is not declared"):
            _declared(x0=None)

    def test_affine_attribute_of_a_plain_plant_runs_its_fast_sim(self):
        grid = TimeGrid(10.0, 0.5)
        cp = ControlPoints(uniform_control_times(grid, 3), [0.2, 0.9, 0.4])
        x = interpolate(cp, InterpolationKind.PCHIP, grid)
        plant = FlaggedAffine()
        keys = list(models._operators)
        trace = simulate(plant, {"u": x}, grid).trace
        assert plant.calls == 1
        assert np.array_equal(trace.channel("y"), 2.0 * x.values)
        assert list(models._operators) == keys

    def test_subclass_with_its_own_fast_sim_runs_it(self):
        grid = TimeGrid(10.0, 0.5)
        cp = ControlPoints(uniform_control_times(grid, 3), [0.2, 0.9, 0.4])
        x = interpolate(cp, InterpolationKind.PCHIP, grid)
        plant = OwnSimCars()
        keys = list(models._operators)
        trace = simulate(plant, {"throttle": x, "brake": x}, grid).trace
        assert plant.calls == 1
        assert not isinstance(trace, models._SuperposedTrace)
        assert list(models._operators) == keys


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

    def test_fast_sim_bit_equal_to_reference(self):
        at = builtin("at_lite")
        rng = np.random.default_rng(2024)
        cases = []
        for entry in ("AT1", "AT2"):
            box, grid = catalog(entry).assumption, catalog(entry).grid()
            cases += [(box, grid, rng.uniform(box.lower, box.upper)) for _ in range(12)]
        # brake-heavy, on the AT2 box: a little throttle and hard braking, so
        # speed hits the clamp at 0
        for _ in range(6):
            v = rng.uniform(box.lower, box.upper)
            v[:7] = rng.uniform(0.0, 5.0, 7)
            v[7:] = rng.uniform(100.0, 325.0, 3)
            cases.append((box, grid, v))
        # full throttle, then full brake: up to gear 4 and down again
        cases.append((box, grid, np.array([100.0] * 2 + [0.0] * 5 + [325.0] * 3)))
        top_gear = downshifts = clamps = 0
        for box, grid, v in cases:
            sigs = encode_inputs(box, box.control_points(v, grid), grid)
            th, br = sigs["Throttle"].values, sigs["Brake"].values
            out = at.fast_sim(np.column_stack([th, br]), grid)
            speed, rpm, gear = at_lite_reference(at, th.tolist(), br.tolist(), grid.step)
            assert np.array_equal(out[:, 0], speed)
            assert np.array_equal(out[:, 1], rpm)
            assert np.array_equal(out[:, 2], gear)
            top_gear += 4.0 in gear
            downshifts += bool(np.any(np.diff(gear) < 0))
            clamps += bool(np.any(out[1:, 0] == 0.0))
        # between them the cases take every branch of the step
        assert top_gear and downshifts and clamps

    def test_fast_sim_bit_equal_to_reference_on_random_grids(self):
        at = builtin("at_lite")
        branches = {"clamp": 0, "top gear": 0, "downshift": 0}

        # per-sample inputs: anywhere in the box; brake-heavy, which stops
        # the car at once; or full throttle up to a cut, then full brake
        @settings(max_examples=40, deadline=None)
        @given(
            n=st.integers(2, 700),
            step=st.floats(0.01, 1.0),
            schedule=st.sampled_from(["box", "brake", "throttle-then-brake"]),
            seed=st.integers(0, 2**32 - 1),
            cut=st.floats(0.0, 1.0),
        )
        @example(n=700, step=0.1, schedule="throttle-then-brake", seed=0, cut=0.2)
        @example(n=300, step=0.05, schedule="brake", seed=0, cut=0.0)
        def check(n, step, schedule, seed, cut):
            grid = TimeGrid((n - 1) * step, step)
            assert grid.n_samples == n
            rng = np.random.default_rng(seed)
            if schedule == "box":
                th, br = rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 325.0, n)
            elif schedule == "brake":
                th, br = rng.uniform(0.0, 2.0, n), rng.uniform(200.0, 325.0, n)
            else:
                full = np.arange(n) < cut * n
                th, br = np.where(full, 100.0, 0.0), np.where(full, 0.0, 325.0)
            out = at.fast_sim(np.column_stack([th, br]), grid)
            speed, rpm, gear = at_lite_reference(at, th.tolist(), br.tolist(), step)
            for column, ref in zip(out.T, (speed, rpm, gear)):
                assert np.array_equal(column, ref)
            branches["clamp"] += bool(np.any(out[1:, 0] == 0.0))
            branches["top gear"] += 4.0 in gear
            branches["downshift"] += bool(np.any(np.diff(gear) < 0))

        check()
        # the explicit examples alone take every branch of the step
        assert all(branches.values()), branches

    # Times recorded from the per-step check this replaced, which raised at
    # the first step whose speed was non-finite.
    @pytest.mark.parametrize(
        "grid, throttle, brake, time",
        [
            (TimeGrid(50.0, 1.0), 8.9e307, 0.0, 32.0),
            (TimeGrid(50.0, 0.05), 8.9e307, 0.0, 34.4),
            # one step to -inf, which the clamp at 0 must not hide
            (TimeGrid(5000.0, 1000.0), 0.0, 1e308, 1000.0),
            # RPM overflows while Speed stays finite, at once from the
            # throttle term or later as speed grows; the time is the first
            # sample with a non-finite RPM
            (TimeGrid(50.0, 0.1), 3e307, 0.0, 0.0),
            (TimeGrid(50.0, 0.1), 1e307, 0.0, 3.6),
        ],
    )
    def test_divergence_time(self, grid, throttle, brake, time):
        at = builtin("at_lite")
        sigs = const_inputs(at, grid, {"Throttle": throttle, "Brake": brake})
        with pytest.raises(DivergenceError) as exc:
            simulate(at, sigs, grid)
        assert exc.value.time == time

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


@pytest.mark.parametrize(
    "name, level, time",
    [("at_lite", 8.9e307, 34.4), ("chasing_cars", 1e307, 2.85)],
)
def test_direct_fast_sim_overflow_is_quiet(name, level, time):
    # called straight, outside the search's ignoring_overflow, the plant
    # enters its own error state: no warning, and the DivergenceError time
    # it gives inside ignoring_overflow
    grid = TimeGrid(50.0, 0.05)
    plant = builtin(name)
    u = np.zeros((grid.n_samples, 2))
    u[:, 0] = level
    times = []
    for context in (contextlib.nullcontext, ignoring_overflow):
        with warnings.catch_warnings(), context():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                plant.fast_sim(u, grid)
        times.append(exc.value.time)
    assert times[0] == times[1] == pytest.approx(time, abs=1e-9)
