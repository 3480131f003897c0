"""Falsification search: box-encoded inputs driven by simulated annealing.

An Assumption fixes, per input port, the interpolation kind, the value
range, and the number of control points. The search space is the flat
vector of all control values (control times stay evenly spaced), so a
candidate is a point in an axis-aligned box. Each iteration decodes the
vector into input signals, simulates the plant, scores the trace, and
stops at the first requirement violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DivergenceError, HorizonError, PortMismatchError
from .fitness import FitnessAssessment, assess
from .models import PlantModel, simulate
from .signals import (
    ControlPoints,
    InterpolationKind,
    Signal,
    TimeGrid,
    interpolate,
    uniform_control_times,
)
from .stl import Formula, formula_horizon

__all__ = [
    "PortAssumption",
    "Assumption",
    "SearchConfig",
    "TestCase",
    "RunResult",
    "encode_inputs",
    "simulation_grid",
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

    @property
    def dim(self) -> int:
        return sum(p.n for p in self.ports)

    def slices(self) -> tuple[slice, ...]:
        out = []
        start = 0
        for p in self.ports:
            out.append(slice(start, start + p.n))
            start += p.n
        return tuple(out)

    @property
    def lower(self) -> np.ndarray:
        return np.repeat([p.lo for p in self.ports], [p.n for p in self.ports])

    @property
    def upper(self) -> np.ndarray:
        return np.repeat([p.hi for p in self.ports], [p.n for p in self.ports])

    def validate_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"parameter vector needs shape ({self.dim},), got {v.shape}")
        lo, hi = self.lower, self.upper
        if np.any(v < lo) or np.any(v > hi):
            raise ValueError("parameter vector leaves the assumption box")
        return v

    def control_points(self, vector, grid: TimeGrid) -> dict[str, ControlPoints]:
        v = self.validate_vector(vector)
        out = {}
        for p, sl in zip(self.ports, self.slices()):
            times = uniform_control_times(grid, p.n)
            out[p.port] = ControlPoints(times, v[sl])
        return out


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
    the requirement needs a longer trace."""
    end = max(plant.default_horizon or 0.0, formula_horizon(formula))
    return TimeGrid(end, step)


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
    """
    v = assumption.validate_vector(current)
    lo, hi = assumption.lower, assumption.upper
    std = sigma * (hi - lo) * max(temperature, 0.05)
    return np.clip(rng.normal(v, std), lo, hi)


@dataclass(frozen=True)
class SearchConfig:
    """Annealing constants; the defaults suit a 300-simulation budget."""

    max_iterations: int = 300
    seed: int = 0
    t0: float = 1.0
    cooling: float = 0.97
    sigma: float = 0.1
    restart_after: int = 50
    threshold: float = 0.0

    def __post_init__(self):
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
    """
    names = tuple(p.port for p in assumption.ports)
    if names != plant.port_spec.inputs:
        raise PortMismatchError(
            f"assumption ports {names} do not match plant inputs "
            f"{plant.port_spec.inputs}"
        )
    horizon = formula_horizon(fitness_cfg.formula)
    if horizon > grid.end + 1e-9:
        raise HorizonError(
            f"requirement needs {horizon} s of trace, grid ends at {grid.end} s"
        )

    rng = np.random.default_rng(search_cfg.seed)
    lo, hi = assumption.lower, assumption.upper
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
            candidate = rng.uniform(lo, hi)
            temperature = search_cfg.t0
        else:
            candidate = propose(
                current_vec, assumption, temperature, rng, search_cfg.sigma
            )

        diverged = False
        inputs: dict[str, Signal] | None = None
        rho = math.inf
        try:
            controls = assumption.control_points(candidate, grid)
            inputs = encode_inputs(assumption, controls, grid)
            sim = simulate(plant, inputs, grid)
            value = assess(
                fitness_cfg,
                sim.trace,
                iteration=i,
                max_iterations=search_cfg.max_iterations,
                controls=controls,
            )
            fa, fm, f = value.automatic, value.manual, value.combined
            rho = value.robustness
        except DivergenceError:
            diverged = True
            fa, fm, f = 1.0, 1.0, 1.0

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
            if delta <= 0.0 or rng.uniform() < math.exp(-delta / temperature):
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
