"""Plant models: fixed-step RK4 simulation of named dynamical systems.

A plant maps input signals to an output trace. The built-in plants are a
five-car platoon ("chasing_cars"), a reduced automatic transmission
("at_lite") and an identity plant ("passthrough"). Simulation is classic
RK4 at the grid step; input values at the half-step stages are the average
of the two adjacent samples. Each built-in plant writes its dynamics once,
in `fast_sim`; user-defined plants may instead give a derivative and
inherit the default `fast_sim`, the generic integrator.

A `LinearPlant` declares linear dynamics as matrices (chasing_cars among
the built-ins). RK4 on them is an exact affine map, so its outputs are
affine in its inputs by construction, and on interpolated inputs it is
simulated by superposition: the outputs are Y0 + K x, with x the inputs'
interpolation coefficients, each output one matrix-vector product formed
when read, and a linear combination of outputs one product by the
combined operator.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PortMismatchError, quiet_overflow
from .signals import InterpolatedSignal, Signal, TimeGrid
from .stl import AtomExpr, Trace

__all__ = [
    "PortSpec",
    "PlantModel",
    "SimResult",
    "simulate",
    "AFFINE_RTOL",
    "LinearPlant",
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

    A plant with linear dynamics may instead subclass `LinearPlant` and
    declare them as matrices: it inherits a closed-form RK4 `fast_sim`,
    and `simulate` computes its outputs on interpolated inputs by
    superposition (see `simulate`). No other plant is superposed, whatever
    attributes it sets.

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
    the problem's plant and the grid that `search.check_problem` returns:
    the prefix of the problem's grid that its score reads from the plant's
    outputs. A divergence after that prefix is not seen there; called on
    the whole grid, as when a test case is replayed, it is.
    Raises DivergenceError naming the first time the state (or, if the
    state stays finite, an output) went non-finite.

    When the plant runs `LinearPlant.fast_sim`, a subclass that does not
    override it, and it has inputs, each an `InterpolatedSignal`, the
    outputs are computed by superposition instead of by `fast_sim`:
    Y0 + K x, where x is the inputs' coefficients in port order, Y0 is
    `fast_sim`'s response to zero inputs and column j of K its response to
    the basis signal of coefficient j (`plan.basis()`), less Y0. K and Y0
    are built once per (plant class, port plans, grid), by one
    `fast_sim` call per coefficient and one more, and kept within
    SUPERPOSITION_CACHE_BYTES, the oldest dropped first; a key whose K and
    Y0 alone would exceed it is not superposed. The outputs agree with
    `fast_sim`'s to rounding (within AFFINE_RTOL), and are bitwise the
    same for the same coefficients, plans and grid: each output is its own
    matrix-vector product. On a prefix of a grid they are bitwise the
    prefix of the outputs on the whole grid (`_SAMPLE_BLOCK`). This path is taken only where a bound
    on the coefficients' magnitudes and K's and Y0's (`_SUPERPOSED_SAFE`)
    shows every output finite; each output is then formed only when read,
    and a sum of outputs that the score reads is one product by a
    composed operator (`_SuperposedTrace`). Past the bound the plant runs
    its own `fast_sim`, so a DivergenceError names its own first
    non-finite state, and the outputs are its own bit for bit.
    Every other call runs `fast_sim` on a block of the inputs' samples,
    which forms those of an `InterpolatedSignal` (`at_lite` reads every
    one), and its output block `Trace.from_block` copies and checks, or,
    from a built-in plant whose rows are finite and held by nothing else
    (`PlantModel._fresh_rows`), the trace adopts. Either way the trace
    holds the input signals as they are, an interpolated one with its
    samples formed on read.
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
    if (
        type(model).fast_sim is LinearPlant.fast_sim
        and signals
        and all(isinstance(s, InterpolatedSignal) for s in signals.values())
    ):
        op = _operator(model, tuple(s.plan for s in signals.values()), grid)
        trace = None if op is None else _superposed(op, signals, grid)
        if trace is not None:
            return SimResult(trace)
    # the samples first, formed here where no one read them before, so
    # that the block reuses the memory their forming freed
    columns = [signal.values for signal in signals.values()]
    u = np.empty((grid.n_samples, len(columns)))
    for j, column in enumerate(columns):
        u[:, j] = column
    out = model.fast_sim(u, grid)
    if model._fresh_rows:
        # the rows whose transpose `fast_sim` returned
        return SimResult(Trace.from_rows(grid, spec.outputs, out.T, signals))
    return SimResult(Trace.from_block(grid, spec.outputs, out, signals))


# Bytes of superposition operators kept per process, one operator per
# (plant class, port plans, grid), the oldest dropped first. An operator,
# K and Y0 and the sums composed on it, holds 8 bytes x padded samples x
# rows x (coefficients + 1), a row per output and per sum; K alone is
# 1.6 MB for the platoon on CC1's grid (2016 x 5 x 20), and the K of
# CC1's y5 - y4 322 KB. One larger than the budget is never built, nor a
# sum that would make its operator so.
SUPERPOSITION_CACHE_BYTES = 16 << 20

# K and Y0 end in zero samples up to a multiple of this many. BLAS forms
# the last few samples of a matrix-vector product in a remainder loop,
# which rounds otherwise than its vector loop; with the padding no sample
# of the grid falls there, so the outputs on a prefix of a grid are
# bitwise the prefix of the outputs on the whole grid.
_SAMPLE_BLOCK = 16


# What a memo of sums gives for terms it has not seen; None is a sum that
# is not composed, and is kept.
_UNSEEN = object()


class _Operator:
    """K and Y0 of `simulate`'s superposed path, both read-only: K is
    (outputs, coefficients, padded samples) and Y0 (outputs, padded
    samples), zero past the grid's samples (`_SAMPLE_BLOCK`). `rows` maps
    each output's name to its index in both. `k_max` and `y0_max` are their
    largest magnitudes (NaN where they hold one). `sums` holds, by the
    terms of each expression a trace of this operator has summed
    (`_SuperposedTrace.composed`), its composed operator, or None where it
    is not composed.
    """

    __slots__ = ("K", "y0", "rows", "k_max", "y0_max", "sums", "nbytes")

    def __init__(self, K: np.ndarray, y0: np.ndarray, outputs: tuple[str, ...]):
        K.setflags(write=False)
        y0.setflags(write=False)
        self.K = K
        self.y0 = y0
        self.rows = {name: k for k, name in enumerate(outputs)}
        # max and -min, not max of |K|: no temporary as large as K
        self.k_max = max(float(K.max()), -float(K.min()))
        self.y0_max = max(float(y0.max()), -float(y0.min()))
        self.sums: dict[tuple, _Sum | None] = {}
        self.nbytes = K.nbytes + y0.nbytes

    def composed(self, expr: AtomExpr) -> _Sum | None:
        """The composed operator of the sum of `expr`'s terms, built on the
        first call for those terms and kept in `sums`, or None where they
        are not composed: where a term names no output, where its products
        or the composed operator could overflow, where the operator is no
        longer cached or its sums would take it past
        SUPERPOSITION_CACHE_BYTES.

        Terms equal but for the sign of a zero coefficient share one: the
        sums start from +0.0, to which a zero product adds nothing."""
        terms = expr.terms
        summed = self.sums.get(terms, _UNSEEN)
        if summed is _UNSEEN:
            summed = self.sums[terms] = self._compose(terms)
        return summed

    def _compose(self, terms: tuple[tuple[str, float], ...]) -> _Sum | None:
        rows = [self.rows.get(name) for name, _ in terms]
        if None in rows:
            return None
        # on the Python floats, as `_superposed` bounds the coefficients
        scale = sum(abs(coeff) for _, coeff in terms)
        margin = 1.0 + _SUPERPOSED_MARGIN
        if not scale * (self.k_max * margin + self.y0_max) < _SUPERPOSED_SAFE:
            return None
        size = self.K[0].nbytes + self.y0[0].nbytes
        if self not in _operators.values() or not _reserve(size, self):
            return None
        K = np.zeros_like(self.K[0])
        y0 = np.zeros_like(self.y0[0])
        for k, (_, coeff) in zip(rows, terms):
            K += coeff * self.K[k]
            y0 += coeff * self.y0[k]
        self.nbytes += size
        return _Sum(K, y0, scale)


class _Sum:
    """The composed operator of a sum of output channels, sum c_i y_i: K
    and Y0 the sums of c_i K_i and c_i Y0_i over its terms, read-only, and
    `scale` the sum of |c_i|."""

    __slots__ = ("K", "y0", "scale")

    def __init__(self, K: np.ndarray, y0: np.ndarray, scale: float):
        K.setflags(write=False)
        y0.setflags(write=False)
        self.K = K
        self.y0 = y0
        self.scale = scale


_operators: dict[tuple, _Operator] = {}


def _reserve(size: int, keep: _Operator | None = None) -> bool:
    """Make room for `size` bytes more in `_operators`, for a new operator
    or for a sum on `keep`: drop the oldest operators but `keep` until
    they fit within SUPERPOSITION_CACHE_BYTES. False, and nothing dropped,
    when `size` and `keep` alone would not fit."""
    held = size + (0 if keep is None else keep.nbytes)
    if held > SUPERPOSITION_CACHE_BYTES:
        return False
    kept = sum(op.nbytes for op in _operators.values() if op is not keep)
    while kept + held > SUPERPOSITION_CACHE_BYTES:
        oldest = next(key for key, op in _operators.items() if op is not keep)
        kept -= _operators.pop(oldest).nbytes
    return True


def _operator(model: PlantModel, plans: tuple, grid: TimeGrid) -> _Operator | None:
    """The `_Operator` of `simulate`'s superposed path for `model`'s
    outputs on inputs sampled by `plans` on `grid`. None when K and Y0
    would take more than SUPERPOSITION_CACHE_BYTES. Keyed by the plant
    class, which fixes the outputs, the inputs' plans and the grid."""
    key = (type(model), plans, grid)
    op = _operators.get(key)
    if op is None:
        n = grid.n_samples
        width = -(-n // _SAMPLE_BLOCK) * _SAMPLE_BLOCK
        outputs = model.port_spec.outputs
        shape = (len(outputs), sum(plan.n_coefficients for plan in plans), width)
        if not _reserve(8 * shape[0] * (shape[1] + 1) * width):
            return None
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
        op = _operators[key] = _Operator(K, y0, outputs)
    return op


# Below this bound on sum |x| * max |K| * (1 + _SUPERPOSED_MARGIN) + max
# |Y0|, over the coefficients x and an operator's K and Y0, no product,
# partial sum or output of Y0 + K x can overflow: each output adds the
# products x_j K_jt, in whatever order the matrix product takes, to Y0_t,
# and with rounding every partial sum stays under sum |x| * max |K| times
# 1 + c * 2^-53 for c coefficients, which the margin covers up to c = 9e9,
# against a float maximum of 1.797e308. A sum of outputs with coefficients
# c_i is composed only below it times sum |c_i|, which bounds both its
# products and partial sums on the outputs and those of its composed
# Y0 + K x (`_Operator.composed`).
_SUPERPOSED_SAFE = 1e300
_SUPERPOSED_MARGIN = 1e-6


def _superposed(
    op: _Operator, signals: dict[str, InterpolatedSignal], grid: TimeGrid
) -> Trace | None:
    """The trace of Y0 + K x and the input `signals`, whose coefficients
    are x, where the bound shows every output finite, or else None, for
    `simulate` to run `fast_sim` on the inputs' samples.

    x and its magnitude sum are formed from the Python floats that
    `interpolate` made of the coefficients and the signals carry (a held
    kind's signal carries none, and gives its array's), in port order:
    the bits of the concatenated arrays and of their left-to-right sum."""
    floats = []
    for s in signals.values():
        c = s._floats
        floats += s.coefficients.tolist() if c is None else c
    # on the Python floats, which overflow to inf silently; a NaN or an
    # infinity, as a pchip slope past its input's bound may be, fails the
    # bound, and below it every output is finite
    size = sum(map(abs, floats))
    bound = size * op.k_max * (1.0 + _SUPERPOSED_MARGIN) + op.y0_max
    if not bound < _SUPERPOSED_SAFE:
        return None
    return _SuperposedTrace.adopting(op, np.array(floats), bound, signals, grid)


class _SuperposedTrace(Trace):
    """The trace of `simulate`'s superposed path where the bound on x
    shows every output finite: the outputs Y0 + K x, then the inputs.
    The trace holds each output as its row index in K and Y0 until
    `channel` first reads it, and then as `x @ K[k] + Y0[k]`, bitwise row
    k of the whole product, read-only.

    A sum of two or more output channels (`AtomExpr.values`) is one
    product, x @ K_e + Y0_e, by the composed operator of its expression
    (`_Operator.composed`), with no row of its channels formed, where its
    coefficients' magnitudes times the bound keep it under the bound that
    rules out overflow; it rounds otherwise than the sum of the rows. The
    product is formed once per trace, on the first read, and kept
    read-only by the terms it sums, so a formula and a manual window over
    the same sum share it.
    """

    __slots__ = ("_op", "_x", "_bound", "_sums")

    @classmethod
    def adopting(cls, op: _Operator, x: np.ndarray, bound: float, signals, grid) -> Trace:
        """The trace of `op`'s outputs at x, with no row formed yet, and
        of `signals`, held as `Trace.from_rows` holds them."""
        trace = cls._adopting(grid, dict(op.rows), signals)
        trace._op = op
        trace._x = x
        trace._bound = bound
        trace._sums = {}
        return trace

    def channel(self, name: str) -> np.ndarray:
        k = self._store.get(name)
        if k.__class__ is not int:
            return super().channel(name)
        row = np.matmul(self._x, self._op.K[k])
        row += self._op.y0[k]
        values = self._store[name] = row[: self.grid.n_samples]
        values.setflags(write=False)
        return values

    def composed(self, expr: AtomExpr) -> np.ndarray | None:
        terms = expr.terms
        out = self._sums.get(terms, _UNSEEN)
        if out is not _UNSEEN:
            return out
        summed = self._op.composed(expr)
        out = None
        if summed is not None and summed.scale * self._bound < _SUPERPOSED_SAFE:
            out = np.matmul(self._x, summed.K)
            out += summed.y0
            out = out[: self.grid.n_samples]
            out.setflags(write=False)
        self._sums[terms] = out
        return out


# Bound on the difference between the superposed outputs and `fast_sim`'s,
# relative to max(1, largest |fast_sim| output), that the tests hold
# superposition to. On the chasing_cars grids of the catalog the two
# differ by about 2e-12.
AFFINE_RTOL = 1e-9


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


class LinearPlant(PlantModel):
    """A plant with linear dynamics x' = A x + B u + d from x(0) = x0,
    whose output k is state `output_states[k]`.

    A subclass declares `port_spec` and, as class attributes, the matrices
    A (states x states) and B (states x input ports), the vectors d and x0
    (one entry per state) and one state index per output. The class is
    checked when it is defined: a malformed declaration, a non-finite
    entry, or an output index out of range or repeated raises ValueError
    naming the plant and the field. The arrays are kept as read-only
    float copies.

    The RK4 step is the affine map x+ = P x + f_k, with the forcing f_k
    linear in the input samples u_k and u_{k+1}, so state k is the sum over
    j <= k of P^(k-j) f_j, with f_0 the initial state. `fast_sim` forms
    that sum by a doubling scan (Hillis & Steele, "Data Parallel
    Algorithms", CACM 1986): after the pass for s = 1, 2, 4, ... each row
    holds the sum over its last 2s terms, one matmul by P^s per pass. That
    is the step-by-step recurrence summed in a different order, which is
    sound while P is stable: its powers stay bounded, so the reordering
    only moves rounding (about 2e-11 on 10001 chasing_cars samples). Every
    row is computed by the same operations whatever the sample count, so
    a shorter run is bitwise the prefix of a longer one on the same step.

    A DivergenceError names the first sample whose state has a non-finite
    entry.

    The outputs are affine in the inputs by construction, so on
    interpolated inputs `simulate` computes them by superposition, from
    `fast_sim`'s responses. A subclass that overrides `fast_sim` is
    simulated by its own `fast_sim`.
    """

    A: np.ndarray
    B: np.ndarray
    d: np.ndarray
    x0: np.ndarray
    output_states: tuple[int, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for field in ("port_spec", "A", "B", "d", "x0", "output_states"):
            if not hasattr(cls, field):
                raise ValueError(f"{cls.name}: {field} is not declared")
        A = _declared(cls, "A", None)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not len(A):
            raise ValueError(f"{cls.name}: A must be a square matrix, got shape {A.shape}")
        n = len(A)
        cls.A = A
        cls.B = _declared(cls, "B", (n, len(cls.port_spec.inputs)))
        cls.d = _declared(cls, "d", (n,))
        cls.x0 = _declared(cls, "x0", (n,))
        states = cls.output_states
        outputs = cls.port_spec.outputs
        if not (
            isinstance(states, Collection)
            and len(states) == len(outputs)
            and all(isinstance(k, numbers.Integral) for k in states)
        ):
            raise ValueError(
                f"{cls.name}: output_states must hold one state index per output "
                f"{outputs}, got {states}"
            )
        states = tuple(map(int, states))
        if not all(0 <= k < n for k in states):
            raise ValueError(f"{cls.name}: output_states {states} must lie in [0, {n})")
        if len(set(states)) != len(states):
            raise ValueError(f"{cls.name}: output_states {states} repeats a state")
        cls.output_states = states

    @classmethod
    @functools.lru_cache(maxsize=32)
    def _step_ops(cls, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RK4 step as an affine map, in row form x+ = x P^T + [u0 um u1] Q + r.

        Exact for linear dynamics: this is the RK4 step in closed form, not
        an approximation of it. Kept as read-only arrays per (class, step),
        for the last 32 of them (1.3 KB each for chasing_cars): every
        `fast_sim` call of a superposition build reads the same ones.
        """
        A, B, d = cls.A, cls.B, cls.d
        I = np.eye(len(A))
        A2 = A @ A
        A3 = A2 @ A
        A4 = A3 @ A
        h = dt
        P = I + h * A + (h**2 / 2.0) * A2 + (h**3 / 6.0) * A3 + (h**4 / 24.0) * A4
        S0 = (h / 6.0) * (I + h * A + (h**2 / 2.0) * A2 + (h**3 / 4.0) * A3)
        Sm = (h / 6.0) * (4.0 * I + 2.0 * h * A + (h**2 / 2.0) * A2)
        S1 = (h / 6.0) * I
        Q = np.vstack([(S0 @ B).T, (Sm @ B).T, (S1 @ B).T])
        ops = P.T, Q, (S0 + Sm + S1) @ d
        for op in ops:
            op.setflags(write=False)
        return ops

    # Python floats overflow silently and numpy must too, so that an
    # overflow surfaces as DivergenceError and not as a warning
    @quiet_overflow
    def fast_sim(self, u, grid):
        n = grid.n_samples
        m = u.shape[1]
        Pt, Q, r = self._step_ops(grid.step)
        # row k + 1 of the input block is step k's [u_k, midpoint, u_{k+1}]
        # and row k + 1 of x step k's forcing; row 0 of x is the initial
        # state
        block = np.zeros((n, 3 * m))
        block[1:, :m] = u[:-1]
        block[1:, 2 * m :] = u[1:]
        np.add(u[:-1], u[1:], out=block[1:, m : 2 * m])
        block[1:, m : 2 * m] *= 0.5
        x = block @ Q
        x[1:] += r
        x[0] = self.x0
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
        return x[:, list(self.output_states)]


def _declared(cls, field: str, shape: tuple | None) -> np.ndarray:
    """`cls`'s declared `field` as a read-only float array, checked finite
    and, unless `shape` is None, of that shape."""
    try:
        value = np.array(getattr(cls, field), dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{cls.name}: {field} must be an array of numbers") from None
    if shape is not None and value.shape != shape:
        raise ValueError(f"{cls.name}: {field} must have shape {shape}, got {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{cls.name}: {field} has a non-finite entry")
    value.setflags(write=False)
    return value


class ChasingCars(LinearPlant):
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

    # p' = v; the lead car (row 5) is driven and dragged, and follower k
    # (row 5 + k) is pulled to REST_GAP behind car k - 1 and damped toward
    # its velocity
    A = np.zeros((10, 10))
    A[:5, 5:] = np.eye(5)
    A[5, 5] = -DRAG
    np.fill_diagonal(A[6:, :4], SPRING)
    np.fill_diagonal(A[6:, 1:5], -SPRING)
    np.fill_diagonal(A[6:, 5:9], DAMPING)
    np.fill_diagonal(A[6:, 6:], -DAMPING)
    B = np.zeros((10, 2))
    B[5] = ACCEL_GAIN, -BRAKE_GAIN
    d = np.zeros(10)
    d[6:] = -SPRING * REST_GAP
    x0 = (40.0, 30.0, 20.0, 10.0, 0.0) + (0.0,) * 5
    output_states = (4, 3, 2, 1, 0)


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
    @quiet_overflow
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
