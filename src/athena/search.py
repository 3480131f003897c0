"""Falsification search: box-encoded inputs driven by simulated annealing.

An Assumption fixes, per input port, the interpolation kind, the value
range, and the number of control points. The search space is the flat
vector of all control values (control times stay evenly spaced), so a
candidate is a point in an axis-aligned box. Each iteration decodes the
vector into input signals, simulates the plant over the part of the grid
and the outputs the score reads, scores the trace, and stops at the first
requirement violation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from . import signals
from .errors import DivergenceError, HorizonError, PortMismatchError, ignoring_overflow
from .fitness import FitnessAssessment, assess
from .models import PlantModel, check_affine, passed_affine_probe, simulate
from .signals import (
    TIME_TOL,
    ControlPoints,
    InterpolationKind,
    Signal,
    TimeGrid,
    _adopt_points,
    interpolate,
    uniform_control_times,
)
from .stl import Formula, Trace, formula_horizon

__all__ = [
    "PortAssumption",
    "Assumption",
    "SearchConfig",
    "TestCase",
    "RunResult",
    "encode_inputs",
    "simulation_grid",
    "check_problem",
    "propose",
    "falsify",
]

Observer = Callable[[int, np.ndarray, float], None]


@dataclass(frozen=True)
class PortAssumption:
    """Admissible shape of one input port: kind, value range, point count."""

    port: str
    kind: InterpolationKind
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.port:
            raise ValueError("port name must be non-empty")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"{self.port}: range must be finite")
        if not self.lo < self.hi:
            raise ValueError(
                f"{self.port}: range must have lo < hi, got [{self.lo}, {self.hi}]"
            )
        # the search draws lo + (hi - lo) * u, so the width must be finite too
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                f"{self.port}: range width hi - lo must be finite, "
                f"got [{self.lo}, {self.hi}]"
            )
        self.kind.check_arity(self.n)


@dataclass(frozen=True)
class Assumption:
    """Per-port admissible input shapes, in plant port order."""

    ports: tuple[PortAssumption, ...]

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple(self.ports))
        if not self.ports:
            raise ValueError("assumption needs at least one port")
        names = [p.port for p in self.ports]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate port name in {names}")

    @cached_property
    def dim(self) -> int:
        return sum(p.n for p in self.ports)

    def slices(self) -> tuple[slice, ...]:
        return self._slices

    @cached_property
    def _slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for p in self.ports:
            out.append(slice(start, start + p.n))
            start += p.n
        return tuple(out)

    @cached_property
    def lower(self) -> np.ndarray:
        lo = np.repeat([p.lo for p in self.ports], [p.n for p in self.ports])
        lo.setflags(write=False)
        return lo

    @cached_property
    def upper(self) -> np.ndarray:
        hi = np.repeat([p.hi for p in self.ports], [p.n for p in self.ports])
        hi.setflags(write=False)
        return hi

    @cached_property
    def width(self) -> np.ndarray:
        """upper - lower, finite for every coordinate (`PortAssumption`)."""
        width = self.upper - self.lower
        width.setflags(write=False)
        return width

    @cached_property
    def _bounds(self) -> tuple[list[float], list[float], list[float]]:
        # lower, upper and width as Python floats, for the per-candidate
        # arithmetic on the parameter vector (`_floats`, `propose`)
        return self.lower.tolist(), self.upper.tolist(), self.width.tolist()

    def _floats(self, vector) -> tuple[np.ndarray, list[float]]:
        """`vector` as a float array and as a list of Python floats, once
        it passes the checks of `validate_vector`."""
        v = np.asarray(vector, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"parameter vector needs shape ({self.dim},), got {v.shape}")
        values = v.tolist()
        lower, upper, _ = self._bounds
        for x, lo, hi in zip(values, lower, upper):
            # written so that NaN, which fails every comparison, is rejected too
            if not lo <= x <= hi:
                raise ValueError("parameter vector leaves the assumption box")
        return v, values

    def validate_vector(self, vector) -> np.ndarray:
        """`vector` as a float array of shape (dim,), once every coordinate
        lies in its port's [lo, hi].

        Raises ValueError "parameter vector needs shape (dim,), got ..." for
        any other shape, and "parameter vector leaves the assumption box"
        for a coordinate outside the box, NaN and infinities included. The
        box check compares the same doubles as Python floats, one
        coordinate at a time, which on the catalog's 10-coordinate boxes
        costs less than numpy's elementwise calls.
        """
        return self._floats(vector)[0]

    def control_points(self, vector, grid: TimeGrid) -> dict[str, ControlPoints]:
        """The control points of each port that `vector` encodes on `grid`:
        the port's slice of the vector at `uniform_control_times`.

        The vector passes one check, `validate_vector`, and is copied once
        into a read-only array. The points adopt the control times and
        views of that copy without the `ControlPoints` checks and copies:
        the box check makes every value finite and the shape check gives
        each port as many values as times, and `uniform_control_times`
        makes the checks the times need. So the points are read-only, and
        a later change to `vector` does not reach them. The assumption
        keeps the control times of the last grid it decoded on, so a run,
        which passes the same grid object on every call, looks them up
        once.
        """
        v = self.validate_vector(vector).copy()
        v.setflags(write=False)
        held, times = self._times_at
        if held is not grid:
            times = tuple(uniform_control_times(grid, p.n) for p in self.ports)
            object.__setattr__(self, "_times_at", (grid, times))
        return {
            p.port: _adopt_points(t, v[sl])
            for p, t, sl in zip(self.ports, times, self._slices)
        }

    # (grid, control times per port) of the last `control_points` grid,
    # outside the fields, so equal assumptions still compare and hash equal
    _times_at = (None, ())


def encode_inputs(
    assumption: Assumption, controls: Mapping[str, ControlPoints], grid: TimeGrid
) -> dict[str, Signal]:
    """Interpolate the control points that `Assumption.control_points`
    decoded from a parameter vector into one signal per port."""
    return {
        p.port: interpolate(controls[p.port], p.kind, grid) for p in assumption.ports
    }


def simulation_grid(plant: PlantModel, formula: Formula, step: float) -> TimeGrid:
    """Grid a problem is simulated on: the plant's usual span, stretched if
    the requirement needs a longer trace. An end between two samples is
    rounded up to the next sample (`TimeGrid.reaching`)."""
    end = max(plant.default_horizon or 0.0, formula_horizon(formula))
    return TimeGrid.reaching(end, step)


def check_problem(
    plant: PlantModel,
    assumption: Assumption,
    fitness_cfg: FitnessAssessment,
    grid: TimeGrid,
) -> tuple[TimeGrid, PlantModel]:
    """Run every check of a falsification problem and return the
    grid and the plant a run simulates: the leading samples of `grid` and
    `plant.with_outputs` of the outputs that `FitnessAssessment.reads`
    finds the score reads, or `grid` and `plant` themselves when it reads
    every sample or names no output.

    Raises, before any simulation, what a run would raise: PortMismatchError
    when the assumption's ports are not the plant's inputs in order,
    HorizonError when the requirement needs more trace than `grid` holds,
    then the errors of `FitnessAssessment.reads`, then the ValueError of
    `models.check_affine` when the plant a run simulates declares itself
    affine and fails that check on one in-box probe: the box midpoint,
    encoded as `falsify` encodes a candidate. The check also builds the
    superposition operator the runs use. The probe is interpolated from
    the control-time arrays a run decodes with, so `interpolate` finds
    their plans by identity, and the operator keeps the probes that
    passed: checking the same problem again looks the probe's
    coefficients up there first (`models.passed_affine_probe`), and
    neither samples nor simulates it.
    `resolve` and `falsify` both call it, so each rejects what the other
    does.
    """
    spec = plant.port_spec
    names = tuple(p.port for p in assumption.ports)
    if names != spec.inputs:
        raise PortMismatchError(
            f"assumption ports {names} do not match plant inputs {spec.inputs}"
        )
    horizon = formula_horizon(fitness_cfg.formula)
    if horizon > grid.end + TIME_TOL:
        raise HorizonError(
            f"requirement needs {horizon} s of trace, grid ends at {grid.end} s"
        )
    control_times = {p.port: uniform_control_times(grid, p.n) for p in assumption.ports}
    n_read, outputs = fitness_cfg.reads(grid, spec.inputs, spec.outputs, control_times)
    sim_grid = grid
    if n_read < grid.n_samples:
        sim_grid = TimeGrid((n_read - 1) * grid.step, grid.step)
    sim_plant = plant.with_outputs(outputs) if outputs else plant
    if sim_plant.affine:
        mid = assumption.lower + 0.5 * assumption.width
        mid.setflags(write=False)
        points = [
            (p, _adopt_points(control_times[p.port], mid[sl]))
            for p, sl in zip(assumption.ports, assumption.slices())
        ]
        # the probe's coefficients fix its samples: a probe that passed
        # before is found without sampling
        plans = tuple(signals.interpolation_plan(cp, p.kind, grid) for p, cp in points)
        coefficients = [plan.coefficients(cp.values) for plan, (_, cp) in zip(plans, points)]
        if not passed_affine_probe(sim_plant, plans, sim_grid, coefficients):
            # `signals.interpolate`, not this module's name for it, which a
            # layer timing rebinds to count a run's encodes (perfbench/seams.py)
            probe = {}
            for p, cp in points:
                signal = signals.interpolate(cp, p.kind, grid)
                probe[p.port] = signal if sim_grid is grid else signal.prefix(sim_grid)
            check_affine(sim_plant, probe, sim_grid)
    return sim_grid, sim_plant


def propose(
    current: np.ndarray,
    assumption: Assumption,
    temperature: float,
    rng: np.random.Generator,
    sigma: float = 0.1,
) -> np.ndarray:
    """Gaussian neighbor of `current`, clamped to the assumption box.

    The per-coordinate stddev is sigma * range width * max(temperature,
    0.05); the floor keeps the chain moving at low temperature.

    The draw is `current + std * rng.standard_normal(dim)`, numpy's own
    definition of `rng.normal(current, std)` (loc + scale * a standard
    normal, one per coordinate in order), so it consumes the generator
    and rounds exactly as that call does. The clamp is
    `np.minimum(np.maximum(x, lower), upper)`, which equals `np.clip` on
    finite values. A negative sigma raises the ValueError ("scale < 0")
    that `rng.normal` raised, before any draw.

    The arithmetic runs on Python floats, coordinate by coordinate, in
    numpy's order: x = v + ((sigma * width) * t) * z, then the clamp in
    numpy's tie rule: `np.maximum(x, lo)` gives lo when x equals it, as
    `np.minimum(x, hi)` gives hi, which decides the sign of a zero bound,
    and both pass a NaN through. So the result is bitwise the numpy
    formula's (`tests/oracles.py::propose_reference`). On the catalog's
    10-coordinate boxes it costs less than numpy's elementwise calls; from
    about 20 coordinates on it costs more.
    """
    values = assumption._floats(current)[1]
    if sigma < 0:
        raise ValueError(f"scale < 0: sigma must not be negative, got {sigma}")
    t = max(temperature, 0.05)
    z = rng.standard_normal(len(values)).tolist()
    out = []
    for v, zi, lo, hi, w in zip(values, z, *assumption._bounds):
        x = v + sigma * w * t * zi
        x = lo if x <= lo else x
        out.append(hi if x >= hi else x)
    return np.array(out)


@dataclass(frozen=True)
class SearchConfig:
    """Annealing constants; the defaults suit a 300-simulation budget.

    `max_iterations`, `seed` and `restart_after` must be integers, the
    others real numbers, and `t0`, `sigma` and `threshold` finite: each bad
    value raises a ValueError that names its field.
    """

    max_iterations: int = 300
    seed: int = 0
    t0: float = 1.0
    cooling: float = 0.97
    sigma: float = 0.1
    restart_after: int = 50
    threshold: float = 0.0

    def __post_init__(self):
        for name in ("max_iterations", "seed", "restart_after"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("t0", "cooling", "sigma", "threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # the range check below rejects a non-finite cooling
            if name != "cooling" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0,1), got {self.cooling}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.t0 <= 0.0:
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if self.restart_after < 1:
            raise ValueError(f"restart_after must be >= 1, got {self.restart_after}")


@dataclass(frozen=True, eq=False)
class TestCase:
    """A falsifying input: the raw vector, its signals, and provenance."""

    vector: np.ndarray
    inputs: Mapping[str, Signal]
    robustness: float
    seed: int
    iteration: int

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "inputs", dict(self.inputs))


@dataclass(frozen=True, eq=False)
class RunResult:
    """One falsification run: outcome, budget spent, best scores, history.

    `history` holds one (automatic, manual, combined) triple per iteration
    in evaluation order; a diverged simulation contributes (1.0, 1.0, 1.0).
    """

    failure: TestCase | None
    iterations_used: int
    best_combined: float
    best_robustness: float
    history: tuple[tuple[float, float, float], ...] = field(repr=False)

    @property
    def found(self) -> bool:
        return self.failure is not None


@ignoring_overflow()
def falsify(
    plant: PlantModel,
    assumption: Assumption,
    fitness_cfg: FitnessAssessment,
    search_cfg: SearchConfig,
    grid: TimeGrid,
    observer: Observer | None = None,
) -> RunResult:
    """Search the assumption box for an input whose trace violates the
    requirement; returns at the first violation or when the budget ends.

    Iteration 0 evaluates a uniform draw over the box. Later iterations
    evaluate a Gaussian neighbor of the current point, accepted when the
    combined fitness decreases and with probability exp(-delta/T) when it
    increases. The temperature cools geometrically every iteration. After
    `restart_after` consecutive iterations without a new best-seen combined
    fitness, the chain restarts: a fresh uniform draw becomes the current
    point and the temperature is reset to `t0`, re-annealing the chain (the
    best-seen record is kept across restarts). Only an improvement clears
    the stall counter, so a barren stretch keeps restarting: the search
    sweeps the box uniformly until some draw sets a record worth
    exploiting. A diverged simulation scores worst-possible and the search
    moves on.

    The uniform draw is `lower + width * rng.random(dim)` and the
    acceptance draw `rng.random()`: numpy defines `rng.uniform(lower,
    upper)` as lower + (upper - lower) * a double in [0, 1), one per
    coordinate in order, and `rng.uniform()` as that double, so these
    forms give the same numbers from the same generator state.

    Each candidate is encoded on the whole `grid`, and a `TestCase` holds
    those inputs. `check_problem` returns the grid and the plant a run
    simulates, both from one walk over the score (`FitnessAssessment.reads`).
    The grid is the leading samples the score reads from the plant's
    outputs, simulated on read-only prefix views of the inputs
    (`Signal.prefix`); when the score reads every sample, the inputs and
    `grid` pass as they are. A manual window whose channels are all plant
    inputs then reads the encoded inputs on the whole grid instead of the
    simulated trace (`WindowStat`), so it does not lengthen the prefix.
    Each input is an `InterpolatedSignal`, so an affine plant is simulated
    by superposition over the inputs' coefficients (`models.simulate`).
    The plant computes only the outputs the score names, each as the
    whole plant computes it (`PlantModel.with_outputs`); a score that
    names no output, or holds a manual node of a type defined outside
    `fitness`, simulates them all. The score is the one the whole trace
    would give. A plant that diverges only after the prefix, or only
    in an output the score does not name, is therefore scored normally,
    not as diverged: no part of the score reads those samples or that
    output.

    The run ignores float overflow and invalid operations, under one
    `errors.ignoring_overflow` entered per run, so the scores enter no
    error state of their own per candidate: a score past the float
    maximum is infinite, as on a direct call, and numpy warns of nothing.
    A robustness that is NaN, from an infinity less an infinity, neither
    stops the run nor sets its best robustness, and its automatic
    fitness is the worst, 1.0.

    A problem that fails a check of `check_problem` raises before the
    first simulation. An exception raised inside an iteration carries
    `simulations`, the number of simulations run before it, diverged ones
    included.
    """
    sim_grid, sim_plant = check_problem(plant, assumption, fitness_cfg, grid)

    rng = np.random.default_rng(search_cfg.seed)
    lower, width, dim = assumption.lower, assumption.width, assumption.dim
    temperature = search_cfg.t0

    current_vec: np.ndarray | None = None
    current_f = math.inf
    best_f = math.inf
    best_rho = math.inf
    stall = 0
    history: list[tuple[float, float, float]] = []
    failure: TestCase | None = None
    iterations_used = search_cfg.max_iterations

    for i in range(search_cfg.max_iterations):
        restarted = current_vec is None or stall >= search_cfg.restart_after
        if restarted:
            candidate = lower + width * rng.random(dim)
            temperature = search_cfg.t0
        else:
            candidate = propose(
                current_vec, assumption, temperature, rng, search_cfg.sigma
            )

        diverged = False
        inputs: dict[str, Signal] | None = None
        rho = math.inf
        # every earlier iteration ran one simulation, a diverged one included
        simulations = i
        try:
            controls = assumption.control_points(candidate, grid)
            inputs = encode_inputs(assumption, controls, grid)
            sim_inputs = inputs
            full_inputs = None
            if sim_grid is not grid:
                sim_inputs = {
                    name: signal.prefix(sim_grid) for name, signal in inputs.items()
                }
                full_inputs = Trace(grid, inputs)
            sim = simulate(sim_plant, sim_inputs, sim_grid)
            simulations += 1
            value = assess(
                fitness_cfg,
                sim.trace,
                iteration=i,
                max_iterations=search_cfg.max_iterations,
                controls=controls,
                inputs=full_inputs,
            )
            fa, fm, f = value.automatic, value.manual, value.combined
            rho = value.robustness
        except DivergenceError:
            diverged = True
            fa, fm, f = 1.0, 1.0, 1.0
        except Exception as exc:
            exc.simulations = simulations
            raise

        history.append((fa, fm, f))
        if observer is not None:
            observer(i, candidate.copy(), f)

        improved = f < best_f
        best_f = min(best_f, f)
        best_rho = min(best_rho, rho)

        if not diverged and rho < search_cfg.threshold:
            failure = TestCase(
                vector=candidate,
                inputs=inputs,
                robustness=rho,
                seed=search_cfg.seed,
                iteration=i,
            )
            iterations_used = i + 1
            break

        if restarted:
            current_vec, current_f = candidate, f
        else:
            delta = f - current_f
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                current_vec, current_f = candidate, f

        stall = 0 if improved else stall + 1
        temperature *= search_cfg.cooling

    return RunResult(
        failure=failure,
        iterations_used=iterations_used,
        best_combined=best_f,
        best_robustness=best_rho,
        history=tuple(history),
    )
