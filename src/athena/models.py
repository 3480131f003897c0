"""Plant models: fixed-step RK4 simulation of named dynamical systems.

A plant maps input signals to an output trace. The built-in plants are a
five-car platoon ("chasing_cars"), a reduced automatic transmission
("at_lite") and an identity plant ("passthrough"). Simulation is classic
RK4 at the grid step; input values at the half-step stages are the average
of the two adjacent samples. Each built-in plant writes its dynamics once,
in `fast_sim`; user-defined plants may instead give a derivative and
inherit the default `fast_sim`, the generic integrator.

A plant whose outputs are affine in its inputs (`PlantModel.affine`, only
chasing_cars among the built-ins) is simulated on interpolated inputs by
superposition: the outputs are Y0 + K x, with x the inputs' interpolation
coefficients, one matrix-vector product per simulation.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PortMismatchError
from .signals import InterpolatedSignal, Signal, TimeGrid
from .stl import Trace

__all__ = [
    "PortSpec",
    "PlantModel",
    "SimResult",
    "simulate",
    "check_affine",
    "AFFINE_RTOL",
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

    `simulate` calls `fast_sim(u, grid)`, which returns the full (samples,
    outputs) matrix. Subclasses define `port_spec` and either:

    - their own `fast_sim`. The built-in plants do this, so each one's
      dynamics are written once; or
    - `state_dim`, `initial_state`, `derivative(state, u)` and
      `output(state, u)`, with discrete transitions (mode switches, clamps)
      in `post_step`, applied once after every integration step. The
      default `fast_sim` integrates these with the generic RK4. This path
      is for user-defined plants, which `ExperimentConfig(plant=...)`
      accepts.

    A plant class sets `affine` to opt in to superposition: `simulate`
    then computes the outputs on interpolated inputs as a matrix-vector
    product built from `fast_sim`'s responses, instead of calling
    `fast_sim` (see `simulate`). Only a plant whose every output is an
    affine function of the input block, a function of the plant's class
    and the outputs it computes alone, may set it; `search.check_problem`
    checks that on one probe (`check_affine`) before any run. An affine
    plant may leave it unset, as `Passthrough` does, when `fast_sim` costs
    less than the product.

    A built-in plant class sets the private `_fresh_rows` when its
    `fast_sim` returns `rows.T`, for (outputs, samples) rows, each
    C-contiguous, of finite values, in memory held by nothing else:
    `simulate` then adopts `rows` (`Trace.from_rows`) without the copy
    and the finiteness pass of `Trace.from_block`. `at_lite` returns
    fresh rows that it checked itself, as it must to name the divergence
    time. `Passthrough` returns the column of the input block that
    `simulate` filled for the call, a copy of the input's samples, which
    were checked when the signal was built. A class that defines its own
    `fast_sim` does not inherit it, so the output of every user-defined
    `fast_sim` is copied and checked.
    """

    name: str = "plant"
    port_spec: PortSpec
    state_dim: int = 0
    default_horizon: float | None = None
    affine: bool = False
    _fresh_rows: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "fast_sim" in vars(cls) and "_fresh_rows" not in vars(cls):
            cls._fresh_rows = False

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)

    def derivative(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def post_step(self, state: np.ndarray) -> np.ndarray:
        return state

    def with_outputs(self, names: Collection[str]) -> PlantModel:
        """A plant that simulates at least the outputs in `names`, a
        non-empty subset of this plant's outputs, and each of them as this
        plant does.

        The default returns the plant itself, which simulates every output.
        A plant that can compute some outputs alone overrides it to return
        a plant whose `port_spec.outputs` are `names` in plant order.
        """
        return self

    def fast_sim(self, u: np.ndarray, grid: TimeGrid) -> np.ndarray:
        """Generic RK4 of `derivative`, then `output` at every sample."""
        states = _march(self, u, grid)
        out = np.empty((grid.n_samples, len(self.port_spec.outputs)))
        # an output that overflows while the state stays finite diverges too
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(grid.n_samples):
                out[i] = self.output(states[i], u[i])
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            raise DivergenceError(int(np.argmin(finite)) * grid.step)
        return out


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

    Inputs must cover exactly the plant's input ports and share the grid;
    inputs in port order on `grid` itself are confirmed by one comparison
    of their names and their grids' identities, any others diagnosed
    (PortMismatchError, ValueError) and taken in port order. Every sample
    of `grid` and every output of `model` is simulated. `falsify` passes
    the grid and the plant that `search.check_problem` returns: the prefix
    of the problem's grid that its score reads from the plant's outputs,
    and the plant cut to the outputs the score names. A divergence after
    that prefix, or only in another output, is not seen there; called on
    the whole grid and plant, as when a test case is replayed, it is.
    Raises DivergenceError naming the first time the state (or, if the
    state stays finite, an output) went non-finite.

    When the plant is `affine` and every input is an `InterpolatedSignal`,
    the outputs are computed by superposition instead of by `fast_sim`:
    Y0 + K x, where x is the inputs' coefficients in port order, Y0 is
    `fast_sim`'s response to zero inputs and column j of K its response to
    the basis signal of coefficient j (`plan.basis()`), less Y0. K and Y0
    are built once per (plant class, outputs, port plans, grid), by one
    `fast_sim` call per coefficient and one more, and kept within
    SUPERPOSITION_CACHE_BYTES, the oldest dropped first; a key whose K and
    Y0 alone would exceed it is not superposed. The outputs agree with
    `fast_sim`'s to rounding (within AFFINE_RTOL, which `check_affine`
    enforces), and are bitwise the same for the same coefficients, plans
    and grid, whichever other outputs are computed: each output is its own
    matrix-vector product. On a prefix of a grid they are bitwise the
    prefix of the outputs on the whole grid (`_SAMPLE_BLOCK`). A
    DivergenceError then names the first sample with a non-finite output.
    The outputs are finite, by a bound on the coefficients' magnitudes and
    K's and Y0's (`_SUPERPOSED_SAFE`), or else checked once, here, and the
    trace adopts them (`Trace.from_rows`).
    Every other call runs `fast_sim`, whose block `Trace.from_block` copies
    and checks, or, from a built-in plant whose rows are finite and held
    by nothing else (`PlantModel._fresh_rows`), the trace adopts.
    """
    spec = model.port_spec
    signals = inputs
    # the inputs a run passes are in port order on `grid` itself, which
    # one tuple comparison and the grids' identities confirm; any others
    # are diagnosed and put in port order
    if tuple(inputs) != spec.inputs or any(s.grid is not grid for s in inputs.values()):
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
        signals = {}
        for name in spec.inputs:
            signal = signals[name] = inputs[name]
            if signal.grid is not grid and signal.grid != grid:
                raise ValueError(f"input {name!r} is not sampled on the simulation grid")
    if model.affine and all(isinstance(s, InterpolatedSignal) for s in signals.values()):
        op = _operator(model, tuple(s.plan for s in signals.values()), grid)
        if op is not None:
            rows = _superposed(op, tuple(signals.values()), grid)
            return SimResult(Trace.from_rows(grid, spec.outputs, rows, signals))
    u = np.empty((grid.n_samples, len(signals)))
    for j, signal in enumerate(signals.values()):
        u[:, j] = signal.values
    out = model.fast_sim(u, grid)
    if model._fresh_rows:
        # the rows whose transpose `fast_sim` returned
        return SimResult(Trace.from_rows(grid, spec.outputs, out.T, signals))
    return SimResult(Trace.from_block(grid, spec.outputs, out, signals))


# Bytes of superposition operators kept per process, one operator per
# (plant class, outputs, port plans, grid), the oldest dropped first. An
# operator, K and Y0, holds 8 bytes x padded samples x outputs x
# (coefficients + 1); K alone is 645 KB for CC1's read plant (2016 x 2 x
# 20) and 1.6 MB for the whole platoon on the same grid. One larger than
# the budget is never built.
SUPERPOSITION_CACHE_BYTES = 16 << 20

# K and Y0 end in zero samples up to a multiple of this many. BLAS forms
# the last few samples of a matrix-vector product in a remainder loop,
# which rounds otherwise than its vector loop; with the padding no sample
# of the grid falls there, so the outputs on a prefix of a grid are
# bitwise the prefix of the outputs on the whole grid.
_SAMPLE_BLOCK = 16


class _Operator:
    """K and Y0 of `simulate`'s superposed path, both read-only: K is
    (outputs, coefficients, padded samples) and Y0 (outputs, padded
    samples), zero past the grid's samples (`_SAMPLE_BLOCK`). `k_max`
    and `y0_max` are their largest magnitudes (NaN where they hold one),
    and `probes` holds the coefficients, as bytes, of every input
    `check_affine` has passed on this operator."""

    __slots__ = ("K", "y0", "k_max", "y0_max", "probes")

    def __init__(self, K: np.ndarray, y0: np.ndarray):
        K.setflags(write=False)
        y0.setflags(write=False)
        self.K = K
        self.y0 = y0
        # max and -min, not max of |K|: no temporary as large as K
        self.k_max = max(float(K.max()), -float(K.min()))
        self.y0_max = max(float(y0.max()), -float(y0.min()))
        self.probes: set[bytes] = set()

    @property
    def nbytes(self) -> int:
        return self.K.nbytes + self.y0.nbytes


_operators: dict[tuple, _Operator] = {}


def _operator_key(model: PlantModel, plans: tuple, grid: TimeGrid) -> tuple:
    """What `_operators` keys an operator by: the plant class, its
    outputs, the inputs' plans and the grid."""
    return (type(model), model.port_spec.outputs, plans, grid)


def _probe_key(coefficients) -> bytes:
    """What `_Operator.probes` keeps a probe by: the bytes of its
    coefficients, one array per input in port order."""
    return np.concatenate(coefficients).tobytes()


def _operator(model: PlantModel, plans: tuple, grid: TimeGrid) -> _Operator | None:
    """The `_Operator` of `simulate`'s superposed path for `model`'s
    outputs on inputs sampled by `plans` on `grid`. None when K and Y0
    would take more than SUPERPOSITION_CACHE_BYTES."""
    key = _operator_key(model, plans, grid)
    op = _operators.get(key)
    if op is None:
        n = grid.n_samples
        width = -(-n // _SAMPLE_BLOCK) * _SAMPLE_BLOCK
        shape = (len(model.port_spec.outputs), sum(plan.n_coefficients for plan in plans), width)
        size = 8 * shape[0] * (shape[1] + 1) * width
        if size > SUPERPOSITION_CACHE_BYTES:
            return None
        kept = sum(other.nbytes for other in _operators.values())
        while kept + size > SUPERPOSITION_CACHE_BYTES:
            kept -= _operators.pop(next(iter(_operators))).nbytes
        bases = [plan.basis()[:n] for plan in plans]
        K = np.zeros(shape)
        u = np.zeros((n, len(bases)))
        y0 = np.zeros((shape[0], width))
        y0[:, :n] = model.fast_sim(u, grid).T
        k = 0
        for j, basis in enumerate(bases):
            for column in basis.T:
                u[:, j] = column
                np.subtract(model.fast_sim(u, grid).T, y0[:, :n], out=K[:, k, :n])
                k += 1
            u[:, j] = 0.0
        op = _operators[key] = _Operator(K, y0)
    return op


# Below this bound on sum |x| * max |K| * (1 + _SUPERPOSED_MARGIN) + max
# |Y0|, over the coefficients x and an operator's K and Y0, no product,
# partial sum or output of Y0 + K x can overflow: each output adds the
# products x_j K_jt, in whatever order the matrix product takes, to Y0_t,
# and with rounding every partial sum stays under sum |x| * max |K| times
# 1 + c * 2^-53 for c coefficients, which the margin covers up to c = 9e9,
# against a float maximum of 1.797e308.
_SUPERPOSED_SAFE = 1e300
_SUPERPOSED_MARGIN = 1e-6


def _superposed(op: _Operator, signals: tuple, grid: TimeGrid) -> np.ndarray:
    """Y0 + K x as fresh (outputs, samples) rows, each C-contiguous,
    checked finite."""
    x = np.concatenate([s.coefficients for s in signals])
    n = grid.n_samples
    # on the Python floats, which overflow to inf silently; a NaN or an
    # infinity fails the bound, and below it every output is finite
    size = sum(map(abs, x.tolist()))
    if size * op.k_max * (1.0 + _SUPERPOSED_MARGIN) + op.y0_max < _SUPERPOSED_SAFE:
        rows = np.matmul(x, op.K)
        rows += op.y0
        return rows[:, :n]
    # overflow must surface as DivergenceError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.matmul(x, op.K)
        rows += op.y0
        rows = rows[:, :n]
        if not np.isfinite(rows).all():
            finite = np.isfinite(rows).all(axis=0)
            raise DivergenceError(int(np.argmin(finite)) * grid.step)
    return rows


# Largest difference `check_affine` accepts between the superposed outputs
# and `fast_sim`'s, relative to max(1, largest |fast_sim| output). On the
# chasing_cars grids of the catalog the two differ by about 2e-12.
AFFINE_RTOL = 1e-9


def check_affine(model: PlantModel, inputs: dict[str, Signal], grid: TimeGrid) -> None:
    """Check a plant's `affine` declaration on one input: simulate
    `inputs`, all `InterpolatedSignal`s on `grid`, by superposition and by
    `fast_sim`, and raise ValueError naming the plant when they differ by
    more than AFFINE_RTOL. This builds the superposition operator for the
    inputs' plans. A plant that does not declare itself affine passes, as
    do inputs that `simulate` does not superpose, a plain `Signal` among
    them or an operator too large to build, and a probe on which
    `fast_sim` diverges: it cannot be compared.

    The operator keeps every probe that passed the comparison, by its
    coefficients, which with the operator's plans and grid fix the input
    samples: checking it again on the same operator makes no simulation.
    A probe that failed is compared again on every call.
    """
    if not model.affine:
        return
    signals = tuple(inputs[name] for name in model.port_spec.inputs)
    if not all(isinstance(s, InterpolatedSignal) for s in signals):
        return
    op = _operator(model, tuple(s.plan for s in signals), grid)
    if op is None:
        return
    probe = _probe_key([s.coefficients for s in signals])
    if probe in op.probes:
        return
    try:
        direct = model.fast_sim(np.column_stack([s.values for s in signals]), grid).T
    except DivergenceError:
        return
    bound = AFFINE_RTOL * max(1.0, float(np.abs(direct).max()))
    gap = float(np.abs(_superposed(op, signals, grid) - direct).max())
    if not gap <= bound:
        raise ValueError(
            f"{model.name}: declares outputs affine in its inputs, but superposition "
            f"differs from fast_sim by {gap:.3g} on a probe input (bound {bound:.3g})"
        )
    op.probes.add(probe)


def passed_affine_probe(
    model: PlantModel, plans: tuple, grid: TimeGrid, coefficients: list[np.ndarray]
) -> bool:
    """Whether `check_affine` has passed `model` on the inputs that `plans`
    sample on `grid` from `coefficients`, one array per input in port
    order: then checking them again makes no simulation, and they need
    not be sampled to tell. Builds no operator."""
    op = _operators.get(_operator_key(model, plans, grid))
    return op is not None and _probe_key(coefficients) in op.probes


class Passthrough(PlantModel):
    """Stateless identity plant: output y equals input x sample for sample.

    y is the input block's column, which `simulate` filled with a copy of
    x for this call alone, so the trace adopts it (`_fresh_rows`): the one
    copy of x is y's, and x was checked finite when it was built.
    """

    name = "passthrough"
    port_spec = PortSpec(inputs=("x",), outputs=("y",))
    default_horizon = None
    _fresh_rows = True

    def fast_sim(self, u, grid):
        return u[:, :1]


class ChasingCars(PlantModel):
    """Five-car platoon: a driven lead car and four spring-damper followers.

    State is (p1..p5, v1..v5) with car 1 in front, initial positions
    40, 30, 20, 10, 0 m and zero velocity. Outputs y1..y5 are the positions
    ordered rear to front (y5 is the lead car), so inter-car gaps are the
    differences y_{k+1} - y_k, each 10 m at rest.

    The RK4 step is the affine map x+ = P x + f_k, with the forcing f_k
    linear in the input samples u_k and u_{k+1}, so state k is the sum over
    j <= k of P^(k-j) f_j, with f_0 the initial state. `fast_sim` forms
    that sum by a doubling scan (Hillis & Steele, "Data Parallel
    Algorithms", CACM 1986): after the pass for s = 1, 2, 4, ... each row
    holds the sum over its last 2s terms, one matmul by P^s per pass. That
    is the step-by-step recurrence summed in a different order, which is
    sound because P is stable: its powers stay bounded, so the reordering
    only moves rounding (about 2e-11 on 10001 samples). Every row is
    computed by the same operations whatever the sample count, so a shorter
    run is bitwise the prefix of a longer one on the same step.

    `with_outputs` gives a platoon that returns only some of y1..y5. All
    channels come from the same states, so each channel's values are
    bitwise the same whichever other channels are computed with it: a
    search may simulate the channels its score reads, and the whole plant
    replays what it found to the same robustness. A DivergenceError names
    the first sample whose state has a non-finite entry.

    The platoon is `affine`: on interpolated inputs `simulate` computes
    its positions by superposition, from `fast_sim`'s responses.
    """

    name = "chasing_cars"
    port_spec = PortSpec(inputs=("throttle", "brake"), outputs=("y1", "y2", "y3", "y4", "y5"))
    default_horizon = 100.0
    affine = True

    ACCEL_GAIN = 5.0
    BRAKE_GAIN = 6.0
    DRAG = 0.1
    # follower gains soft enough that a hard-throttle lead can stretch its
    # gap well past the 40 m requirement bound before the platoon catches up
    SPRING = 0.08
    DAMPING = 0.25
    REST_GAP = 10.0

    _OUT_COLS = (4, 3, 2, 1, 0)
    _x0 = np.array([40.0, 30.0, 20.0, 10.0, 0.0] + [0.0] * 5)
    _x0.setflags(write=False)
    # the output channels `fast_sim` computes, as indices into y1..y5
    _channels = (0, 1, 2, 3, 4)

    def with_outputs(self, names):
        names = set(names)
        spec = type(self).port_spec
        if not names <= set(spec.outputs):
            raise ValueError(f"{self.name}: {sorted(names - set(spec.outputs))} are not outputs")
        plant = copy.copy(self)
        plant._channels = tuple(k for k, y in enumerate(spec.outputs) if y in names)
        plant.port_spec = PortSpec(spec.inputs, [spec.outputs[k] for k in plant._channels])
        return plant

    @classmethod
    def _system(cls) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Continuous dynamics as x' = A x + B u + d."""
        A = np.zeros((10, 10))
        B = np.zeros((10, 2))
        d = np.zeros(10)
        A[:5, 5:] = np.eye(5)
        A[5, 5] = -cls.DRAG
        B[5, 0] = cls.ACCEL_GAIN
        B[5, 1] = -cls.BRAKE_GAIN
        for k in range(1, 5):
            A[5 + k, k - 1] = cls.SPRING
            A[5 + k, k] = -cls.SPRING
            A[5 + k, 5 + k] = -cls.DAMPING
            A[5 + k, 5 + k - 1] = cls.DAMPING
            d[5 + k] = -cls.SPRING * cls.REST_GAP
        return A, B, d

    @classmethod
    def _step_ops(cls, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RK4 step as an affine map, in row form x+ = x P^T + [u0 um u1] Q + r.

        Exact for linear dynamics: this is the RK4 step in closed form, not
        an approximation of it.
        """
        A, B, d = cls._system()
        I = np.eye(10)
        A2 = A @ A
        A3 = A2 @ A
        A4 = A3 @ A
        h = dt
        P = I + h * A + (h**2 / 2.0) * A2 + (h**3 / 6.0) * A3 + (h**4 / 24.0) * A4
        S0 = (h / 6.0) * (I + h * A + (h**2 / 2.0) * A2 + (h**3 / 4.0) * A3)
        Sm = (h / 6.0) * (4.0 * I + 2.0 * h * A + (h**2 / 2.0) * A2)
        S1 = (h / 6.0) * I
        Q = np.vstack([(S0 @ B).T, (Sm @ B).T, (S1 @ B).T])
        return P.T, Q, (S0 + Sm + S1) @ d

    # Python floats overflow silently and numpy must too, so that an
    # overflow surfaces as DivergenceError and not as a warning
    @np.errstate(over="ignore", invalid="ignore")
    def fast_sim(self, u, grid):
        n = grid.n_samples
        Pt, Q, r = self._step_ops(grid.step)
        # row k + 1 of the input block is step k's [u_k, midpoint, u_{k+1}]
        # and row k + 1 of x step k's forcing; row 0 of x is the initial
        # state
        block = np.zeros((n, 6))
        block[1:, :2] = u[:-1]
        block[1:, 4:] = u[1:]
        np.add(u[:-1], u[1:], out=block[1:, 2:4])
        block[1:, 2:4] *= 0.5
        x = block @ Q
        x[1:] += r
        x[0] = self._x0
        # after the pass for s, row k holds the sum over j in (k - 2s, k] of
        # f_j Pt^(k-j); each product reads the rows as they were before it.
        # numpy computes a one-row product by gemv, which rounds otherwise
        # than the gemm of longer runs, so a product takes two rows or more
        s = 1
        while s < n:
            x[s:] += (x[: max(n - s, 2)] @ Pt)[: n - s]
            Pt = Pt @ Pt
            s *= 2
        if not np.isfinite(x).all():
            finite = np.isfinite(x).all(axis=1)
            raise DivergenceError(int(np.argmin(finite)) * grid.step)
        return x[:, [self._OUT_COLS[y] for y in self._channels]]


class AutoTransmissionLite(PlantModel):
    """Reduced automatic transmission: speed ODE plus a 4-gear hysteresis.

    Inputs Throttle in [0,100] and Brake in [0,325]; outputs Speed (mph),
    RPM and Gear. The gear shifts at most once per integration step, after
    the step; speed is clamped at 0 so braking cannot reverse the car.

    The speed derivative in gear g is d_g(t) - 0.02 * speed, where the input
    term d_g = 0.9 * (Throttle / 100) * torque_g - 0.35 * (Brake / 325) * 3.25
    does not depend on the state. `fast_sim` computes its two parts, thrust
    0.9 * (Throttle / 100) and drag 0.35 * (Brake / 325) * 3.25, with numpy
    at the sample times and at the step midpoints, as one (4, samples)
    block per simulation. The Python loop forms d_g = thrust * torque_g -
    drag at each step, in the gear it is in, then does the state-dependent
    RK4 arithmetic and the shift test. Speed, RPM and Gear are written into
    one (3, samples) block, which one finiteness pass checks and `simulate`
    adopts as the trace's rows, with no second pass (`_fresh_rows`). The
    result is bit-identical to evaluating each stage in full: elementwise
    float64 numpy rounds exactly as Python floats do, a product rounds the
    same whichever operand comes first, and every operation keeps its order.
    The step is deliberately not folded into a closed form p * speed + q,
    which would round differently.
    """

    name = "at_lite"
    port_spec = PortSpec(inputs=("Throttle", "Brake"), outputs=("Speed", "RPM", "Gear"))
    default_horizon = 50.0
    # `fast_sim` returns the transpose of its fresh (3, samples) block,
    # checked finite (Gear is finite by construction)
    _fresh_rows = True

    GEAR_RATIO = (4.0, 2.5, 1.6, 1.0)
    TORQUE_RATIO = (25.0, 17.0, 12.0, 9.0)
    UPSHIFT = (15.0, 30.0, 50.0)
    DOWNSHIFT = (12.0, 25.0, 45.0)

    # divisor and gain of each row of the input block: Throttle, Brake,
    # and their step midpoints
    _INPUT_SCALE = np.array([[100.0], [325.0], [100.0], [325.0]])
    _INPUT_SCALE.setflags(write=False)
    _INPUT_GAIN = np.array([[0.9], [0.35], [0.9], [0.35]])
    _INPUT_GAIN.setflags(write=False)

    # Python floats overflow silently and numpy must too, so that an
    # overflow surfaces as DivergenceError and not as a warning
    @np.errstate(over="ignore", invalid="ignore")
    def fast_sim(self, u, grid):
        # scalar RK4 on speed; the gear is held through the step
        dt = grid.step
        n = grid.n_samples
        # rows: Throttle and Brake at sample i, then at the midpoint of the
        # step that ends there (column 0, which no step ends at, is unused)
        x = np.empty((4, n))
        x[:2] = u.T
        np.add(x[:2, :-1], x[:2, 1:], out=x[2:, 1:])
        x[2:, 0] = 0.0
        x[2:] *= 0.5
        x /= self._INPUT_SCALE
        revs = x[0] * 600.0
        x *= self._INPUT_GAIN
        x[1::2] *= 3.25
        thrust, drag, thrust_mid, drag_mid = x.tolist()
        torque = self.TORQUE_RATIO
        # speed bounds that shift out of each gear; none below 1 or above 4
        up = self.UPSHIFT + (math.inf,)
        down = (-math.inf,) + self.DOWNSHIFT
        h = 0.5 * dt
        w = dt / 6.0
        ninf = -math.inf
        speeds = [0.0] * n
        # (first sample, gear) of each stretch between shifts
        shifts = [(0, 1)]
        g = 1
        tq = torque[0]
        hi = up[0]
        lo = down[0]
        s = 0.0
        d1 = thrust[0] * tq - drag[0]
        for i in range(1, n):
            d0 = d1
            d1 = thrust[i] * tq - drag[i]
            m = thrust_mid[i] * tq - drag_mid[i]
            k1 = d0 - 0.02 * s
            k2 = m - 0.02 * (s + h * k1)
            k3 = m - 0.02 * (s + h * k2)
            k4 = d1 - 0.02 * (s + dt * k3)
            s = s + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # -inf is left unclamped for the divergence check after the loop
            if s < 0.0 and s != ninf:
                s = 0.0
            speeds[i] = s
            if s > hi:
                g += 1
            elif s < lo:
                g -= 1
            else:
                continue
            shifts.append((i, g))
            # the next step starts from sample i in the new gear
            tq = torque[g - 1]
            d1 = thrust[i] * tq - drag[i]
            hi = up[g - 1]
            lo = down[g - 1]
        out = np.empty((3, n))
        speed, rpm, gear = out
        speed[:] = speeds
        shifts.append((n, 0))
        for (a, g), (b, _) in zip(shifts, shifts[1:]):
            rpm[a:b] = self.GEAR_RATIO[g - 1]
            gear[a:b] = g
        # speed * ratio * 40 + 600 * (Throttle / 100)
        rpm *= speed
        rpm *= 40.0
        rpm += revs
        # a non-finite Speed (the state) is reported first; RPM can overflow
        # on its own, from a huge throttle while Speed stays finite
        if not np.isfinite(out[:2]).all():
            for channel in (speed, rpm):
                finite = np.isfinite(channel)
                if not finite.all():
                    raise DivergenceError(int(np.argmin(finite)) * dt)
        out.setflags(write=False)
        return out.T


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
