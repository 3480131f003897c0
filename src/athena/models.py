"""Plant models: fixed-step RK4 simulation of named dynamical systems.

A plant maps input signals to an output trace. The built-in plants are a
five-car platoon ("chasing_cars"), a reduced automatic transmission
("at_lite") and an identity plant ("passthrough"). Simulation is classic
RK4 at the grid step; input values at the half-step stages are the average
of the two adjacent samples. Each built-in plant writes its dynamics once,
in `fast_sim`; user-defined plants may instead give a derivative and run
on the generic integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PortMismatchError
from .signals import Signal, TimeGrid
from .stl import Trace

__all__ = [
    "PortSpec",
    "PlantModel",
    "SimResult",
    "simulate",
    "builtin",
    "ChasingCars",
    "AutoTransmissionLite",
    "Passthrough",
]


@dataclass(frozen=True)
class PortSpec:
    """Ordered input and output channel names of a plant."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.outputs) < 1:
            raise ValueError("a plant needs at least one output")
        for group, names in (("input", self.inputs), ("output", self.outputs)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {group} name in {names}")
        # the result trace holds outputs and inputs side by side
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise ValueError(f"names used as both input and output: {sorted(overlap)}")


class PlantModel:
    """Deterministic plant with continuous state and an output map.

    Subclasses define `port_spec` and one of two dynamics paths:

    - `fast_sim(u, grid)` returns the full (samples, outputs) matrix. The
      built-in plants define only this path, so each one's dynamics are
      written once.
    - `state_dim`, `initial_state`, `derivative(state, u)` and
      `output(state, u)`, with discrete transitions (mode switches, clamps)
      in `post_step`, applied once after every integration step. When
      `fast_sim` returns None, `simulate` integrates these with the generic
      RK4. This path stays for user-defined plants, which
      `ExperimentConfig(plant=...)` accepts.
    """

    name: str = "plant"
    port_spec: PortSpec
    state_dim: int = 0
    default_horizon: float | None = None

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)

    def derivative(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def post_step(self, state: np.ndarray) -> np.ndarray:
        return state

    def fast_sim(self, u: np.ndarray, grid: TimeGrid) -> np.ndarray | None:
        return None


@dataclass(frozen=True)
class SimResult:
    """Simulation outcome: one trace holding all outputs and all inputs."""

    trace: Trace


def _march(model: PlantModel, u: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Generic RK4 over the whole grid; returns the (n, state_dim) states."""
    dt = grid.step
    n = grid.n_samples
    y = np.asarray(model.initial_state(), dtype=float)
    states = np.empty((n, len(y)))
    states[0] = y
    # overflow in an unstable plant must surface as DivergenceError, not a
    # numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            u0 = u[i]
            u1 = u[i + 1]
            um = 0.5 * (u0 + u1)
            k1 = model.derivative(y, u0)
            k2 = model.derivative(y + (0.5 * dt) * k1, um)
            k3 = model.derivative(y + (0.5 * dt) * k2, um)
            k4 = model.derivative(y + dt * k3, u1)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y = model.post_step(y)
            if not np.all(np.isfinite(y)):
                raise DivergenceError((i + 1) * dt)
            states[i + 1] = y
    return states


def simulate(
    model: PlantModel,
    inputs: dict[str, Signal],
    grid: TimeGrid,
) -> SimResult:
    """Integrate the plant over the grid and return outputs plus inputs.

    Inputs must cover exactly the plant's input ports and share the grid.
    Raises DivergenceError naming the first time the state went non-finite.
    """
    spec = model.port_spec
    given = set(inputs)
    expected = set(spec.inputs)
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise PortMismatchError(f"{model.name}: {', '.join(parts)}")
    for name in spec.inputs:
        if inputs[name].grid != grid:
            raise ValueError(f"input {name!r} is not sampled on the simulation grid")

    n = grid.n_samples
    if spec.inputs:
        u = np.column_stack([inputs[name].values for name in spec.inputs])
    else:
        u = np.zeros((n, 0))

    out = model.fast_sim(u, grid)
    if out is None:
        states = _march(model, u, grid)
        out = np.empty((n, len(spec.outputs)))
        for i in range(n):
            out[i] = model.output(states[i], u[i])

    channels: dict[str, np.ndarray] = {}
    for j, name in enumerate(spec.outputs):
        channels[name] = out[:, j]
    for name in spec.inputs:
        channels[name] = inputs[name].values
    return SimResult(Trace(grid, channels))


class Passthrough(PlantModel):
    """Stateless identity plant: output y equals input x sample for sample."""

    name = "passthrough"
    port_spec = PortSpec(inputs=("x",), outputs=("y",))
    default_horizon = None

    def fast_sim(self, u, grid):
        return u[:, :1].copy()


class ChasingCars(PlantModel):
    """Five-car platoon: a driven lead car and four spring-damper followers.

    State is (p1..p5, v1..v5) with car 1 in front, initial positions
    40, 30, 20, 10, 0 m and zero velocity. Outputs y1..y5 are the positions
    ordered rear to front (y5 is the lead car), so inter-car gaps are the
    differences y_{k+1} - y_k, each 10 m at rest.
    """

    name = "chasing_cars"
    port_spec = PortSpec(inputs=("throttle", "brake"), outputs=("y1", "y2", "y3", "y4", "y5"))
    default_horizon = 100.0

    ACCEL_GAIN = 5.0
    BRAKE_GAIN = 6.0
    DRAG = 0.1
    # follower gains soft enough that a hard-throttle lead can stretch its
    # gap well past the 40 m requirement bound before the platoon catches up
    SPRING = 0.08
    DAMPING = 0.25
    REST_GAP = 10.0

    _OUT_COLS = (4, 3, 2, 1, 0)

    def __init__(self):
        self._x0 = np.array([40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5)
        self._ops_cache: dict[float, tuple[np.ndarray, ...]] = {}

    def _system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Continuous dynamics as x' = A x + B u + d."""
        A = np.zeros((10, 10))
        B = np.zeros((10, 2))
        d = np.zeros(10)
        A[:5, 5:] = np.eye(5)
        A[5, 5] = -self.DRAG
        B[5, 0] = self.ACCEL_GAIN
        B[5, 1] = -self.BRAKE_GAIN
        for k in range(1, 5):
            A[5 + k, k - 1] = self.SPRING
            A[5 + k, k] = -self.SPRING
            A[5 + k, 5 + k] = -self.DAMPING
            A[5 + k, 5 + k - 1] = self.DAMPING
            d[5 + k] = -self.SPRING * self.REST_GAP
        return A, B, d

    def _step_ops(self, dt: float):
        """RK4 step as an affine map x+ = P x + Q0 u0 + Qm um + Q1 u1 + r.

        Exact for linear dynamics: this is the RK4 step in closed form, not
        an approximation of it.
        """
        ops = self._ops_cache.get(dt)
        if ops is not None:
            return ops
        A, B, d = self._system()
        I = np.eye(10)
        A2 = A @ A
        A3 = A2 @ A
        A4 = A3 @ A
        h = dt
        P = I + h * A + (h**2 / 2.0) * A2 + (h**3 / 6.0) * A3 + (h**4 / 24.0) * A4
        S0 = (h / 6.0) * (I + h * A + (h**2 / 2.0) * A2 + (h**3 / 4.0) * A3)
        Sm = (h / 6.0) * (4.0 * I + 2.0 * h * A + (h**2 / 2.0) * A2)
        S1 = (h / 6.0) * I
        ops = (P, S0 @ B, Sm @ B, S1 @ B, (S0 + Sm + S1) @ d)
        self._ops_cache[dt] = ops
        return ops

    def fast_sim(self, u, grid):
        P, Q0, Qm, Q1, r = self._step_ops(grid.step)
        um = 0.5 * (u[:-1] + u[1:])
        forcing = u[:-1] @ Q0.T + um @ Qm.T + u[1:] @ Q1.T + r
        n = grid.n_samples
        states = np.empty((n, 10))
        x = self._x0.copy()
        states[0] = x
        for i in range(n - 1):
            x = P @ x + forcing[i]
            states[i + 1] = x
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            raise DivergenceError(int(np.argmin(finite)) * grid.step)
        return states[:, list(self._OUT_COLS)]


class AutoTransmissionLite(PlantModel):
    """Reduced automatic transmission: speed ODE plus a 4-gear hysteresis.

    Inputs Throttle in [0,100] and Brake in [0,325]; outputs Speed (mph),
    RPM and Gear. The gear shifts at most once per integration step, after
    the step; speed is clamped at 0 so braking cannot reverse the car.
    """

    name = "at_lite"
    port_spec = PortSpec(inputs=("Throttle", "Brake"), outputs=("Speed", "RPM", "Gear"))
    default_horizon = 50.0

    GEAR_RATIO = (4.0, 2.5, 1.6, 1.0)
    TORQUE_RATIO = (25.0, 17.0, 12.0, 9.0)
    UPSHIFT = (15.0, 30.0, 50.0)
    DOWNSHIFT = (12.0, 25.0, 45.0)

    def fast_sim(self, u, grid):
        # scalar RK4 on speed; the gear is held through the step
        dt = grid.step
        n = grid.n_samples
        th = u[:, 0].tolist()
        br = u[:, 1].tolist()
        torque = self.TORQUE_RATIO
        up = self.UPSHIFT
        down = self.DOWNSHIFT
        speeds = [0.0] * n
        gears = [0] * n
        s = 0.0
        g = 1
        for i in range(n):
            speeds[i] = s
            gears[i] = g
            if i == n - 1:
                break
            t0 = th[i]
            t1 = th[i + 1]
            tm = 0.5 * (t0 + t1)
            b0 = br[i]
            b1 = br[i + 1]
            bm = 0.5 * (b0 + b1)
            tq = torque[g - 1]
            k1 = 0.9 * (t0 / 100.0) * tq - 0.35 * (b0 / 325.0) * 3.25 - 0.02 * s
            y2 = s + (0.5 * dt) * k1
            k2 = 0.9 * (tm / 100.0) * tq - 0.35 * (bm / 325.0) * 3.25 - 0.02 * y2
            y3 = s + (0.5 * dt) * k2
            k3 = 0.9 * (tm / 100.0) * tq - 0.35 * (bm / 325.0) * 3.25 - 0.02 * y3
            y4 = s + dt * k3
            k4 = 0.9 * (t1 / 100.0) * tq - 0.35 * (b1 / 325.0) * 3.25 - 0.02 * y4
            s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not math.isfinite(s):
                raise DivergenceError((i + 1) * dt)
            if s < 0.0:
                s = 0.0
            if g < 4 and s > up[g - 1]:
                g += 1
            elif g > 1 and s < down[g - 2]:
                g -= 1
        speed_arr = np.array(speeds)
        gear_idx = np.array(gears)
        ratio = np.array(self.GEAR_RATIO)[gear_idx - 1]
        rpm = speed_arr * ratio * 40.0 + 600.0 * (u[:, 0] / 100.0)
        return np.column_stack([speed_arr, rpm, gear_idx.astype(float)])


_BUILTINS = {
    "chasing_cars": ChasingCars,
    "at_lite": AutoTransmissionLite,
    "passthrough": Passthrough,
}


def builtin(name: str) -> PlantModel:
    """Construct a built-in plant by name."""
    try:
        cls = _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown plant {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return cls()
