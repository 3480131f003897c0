"""Sampled signals on a uniform time grid and input-signal generation.

A signal is a finite sequence of samples on a uniform grid starting at 0.
Input signals are built from a small number of control points by
interpolation (constant, piecewise constant, linear, or monotone cubic);
windowed statistics over signals and control points feed the manual
fitness combinators.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

__all__ = [
    "TIME_TOL",
    "TimeGrid",
    "Signal",
    "InterpolatedSignal",
    "ControlPoints",
    "InterpolationKind",
    "WindowStatKind",
    "SlopeDirection",
    "uniform_control_times",
    "interpolate",
    "interpolation_plan",
    "window_samples",
    "window_span",
    "window_stat",
    "steepest_slope",
    "scale",
]

# Absolute tolerance (seconds) when matching time instants to grid samples.
TIME_TOL = 1e-9


def _whole_steps(ratio: float) -> bool:
    """Whether an end `ratio` steps long is a whole number, at least 1, of
    steps, up to float rounding."""
    nearest = round(ratio)
    return nearest >= 1 and abs(ratio - nearest) <= 1e-9 * max(1.0, abs(ratio))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid over [0, end] with spacing `step`."""

    end: float
    step: float

    def __post_init__(self):
        if not (self.end > 0.0 and math.isfinite(self.end)):
            raise ValueError(f"grid end must be positive and finite, got {self.end}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        if not _whole_steps(self.end / self.step):
            raise ValueError(
                f"grid end {self.end} is not a whole number of steps of {self.step}"
            )

    @classmethod
    def reaching(cls, end: float, step: float) -> "TimeGrid":
        """The grid at `step` that ends at `end`, or at the first sample
        after `end` when `end` is not a whole number of steps."""
        ratio = end / step if step > 0.0 else math.nan
        if math.isfinite(ratio) and ratio > 0.0 and not _whole_steps(ratio):
            end = math.ceil(ratio) * step
        return cls(end, step)

    @cached_property
    def n_samples(self) -> int:
        # computed once per grid; like `_times`, it is kept outside the
        # fields, so equal grids still compare and hash equal
        return round(self.end / self.step) + 1

    @cached_property
    def _times(self) -> np.ndarray:
        t = np.linspace(0.0, self.end, self.n_samples)
        t.setflags(write=False)
        return t

    def times(self) -> np.ndarray:
        """All sample times as a read-only array."""
        return self._times

    def index_window(self, a: float, b: float) -> tuple[int, int]:
        """Inclusive sample-index range covering times in [a, b].

        Boundaries are matched with TIME_TOL slack; the range may be empty
        (lo > hi). Indices are clipped to the grid.
        """
        lo = math.ceil((a - TIME_TOL) / self.step)
        hi = math.floor((b + TIME_TOL) / self.step)
        return max(lo, 0), min(hi, self.n_samples - 1)


@dataclass(frozen=True)
class Signal:
    """Sampled values, one per grid sample."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        # a fresh copy, made read-only once it passes the checks
        values = np.array(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n_samples:
            raise ValueError(
                f"signal needs {self.grid.n_samples} samples, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", _read_only(values))

    def prefix(self, grid: TimeGrid) -> "Signal":
        """The first `grid.n_samples` samples, as a signal on `grid`, a
        shorter grid with the same step.

        The values are a read-only view of this signal's: they were checked
        when it was built, so they are neither checked nor copied again. The
        prefix of an `InterpolatedSignal` is one too, with the same plan and
        coefficients.
        """
        if grid.step != self.grid.step or grid.n_samples >= self.grid.n_samples:
            raise ValueError(
                f"a prefix needs a shorter grid with step {self.grid.step}, got "
                f"{grid.n_samples} samples at step {grid.step}"
            )
        values = self.values[: grid.n_samples]
        if isinstance(self, InterpolatedSignal):
            return _adopt(grid, values, self.plan, self.coefficients)
        return _adopt(grid, values)


class InterpolatedSignal(Signal):
    """A signal that `interpolate` sampled from control values.

    Its samples are linear in `coefficients`, a read-only finite array:
    the port's control values and, for pchip, the Fritsch-Carlson slopes
    after them. `plan` is the plan that sampled them on its grid,
    `plan.grid`: `plan.basis()[i] @ coefficients` is sample i, up to
    rounding. A plant whose outputs are affine in its inputs
    (`PlantModel.affine`) can then simulate the signal as a matrix-vector
    product over the coefficients (`models.simulate`).

    Only `interpolate` and `Signal.prefix` make one, and both store
    references, not copies. The `Signal` constructor makes a plain signal,
    even from an interpolated signal's values.
    """

    plan: "_HeldPlan | _LinearPlan | _PchipPlan"
    coefficients: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("only interpolate and Signal.prefix make an InterpolatedSignal")


def _adopt(grid: TimeGrid, values: np.ndarray, plan=None, coefficients=None) -> Signal:
    """A Signal that holds `values` as they are, without a check or a copy,
    or an InterpolatedSignal when a `plan` and its `coefficients` are given.

    The caller has checked `values` against `grid` and made them read-only,
    and nothing else writes to them.
    """
    if plan is None:
        signal = object.__new__(Signal)
    else:
        signal = object.__new__(InterpolatedSignal)
        object.__setattr__(signal, "plan", plan)
        object.__setattr__(signal, "coefficients", coefficients)
    object.__setattr__(signal, "grid", grid)
    object.__setattr__(signal, "values", values)
    return signal


def _adopt_points(times: np.ndarray, values: np.ndarray) -> "ControlPoints":
    """ControlPoints that hold `times` and `values` as they are, without a
    check or a copy.

    The caller has checked them as the constructor checks them and made
    them read-only, and nothing else writes to them.
    """
    points = object.__new__(ControlPoints)
    object.__setattr__(points, "times", times)
    object.__setattr__(points, "values", values)
    return points


@dataclass(frozen=True)
class ControlPoints:
    """(time, value) pairs an input signal is interpolated from."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # fresh copies, made read-only once they pass the checks
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) == 0:
            raise ValueError("control times and values must be equal-length 1-d sequences")
        if abs(times[0]) > TIME_TOL:
            raise ValueError(f"first control time must be 0, got {times[0]}")
        if len(times) > 1 and not (times[1:] > times[:-1]).all():
            raise ValueError("control times must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("control values must be finite")
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "values", _read_only(values))

    def __len__(self) -> int:
        return len(self.times)


class InterpolationKind(enum.Enum):
    PCHIP = "pchip"
    LINEAR = "linear"
    PIECEWISE_CONSTANT = "pconst"
    CONSTANT = "const"

    @property
    def min_points(self) -> int:
        return _MIN_POINTS[self]

    def check_arity(self, n: int) -> None:
        if self is InterpolationKind.CONSTANT and n != 1:
            raise ValueError(f"constant interpolation takes exactly 1 control point, got {n}")
        if n < self.min_points:
            raise ValueError(f"{self.value} interpolation needs >= {self.min_points} control points, got {n}")

    @classmethod
    def parse(cls, text: str) -> "InterpolationKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown interpolation kind {text!r}; expected one of "
                f"{', '.join(k.value for k in cls)}"
            ) from None


_MIN_POINTS = MappingProxyType(
    {
        InterpolationKind.PCHIP: 2,
        InterpolationKind.LINEAR: 2,
        InterpolationKind.PIECEWISE_CONSTANT: 1,
        InterpolationKind.CONSTANT: 1,
    }
)


class WindowStatKind(enum.Enum):
    MIN = "min"
    MAX = "max"
    MEAN = "mean"
    PEAK_TO_PEAK = "ptp"

    def of(self, chunk: np.ndarray) -> float:
        """The statistic of the samples in `chunk`, a non-empty float array.

        `mean` is bitwise `np.mean`: the same pairwise sum, divided by the
        count, without `np.mean`'s wrapper. A sum past the float maximum
        is infinite, and numpy warns of it unless the caller ignores
        overflow (`fitness.manual_fitness` does). `ptp` subtracts
        the Python floats, which round as float64 and overflow to inf
        without a warning."""
        if self is WindowStatKind.MIN:
            return float(chunk.min())
        if self is WindowStatKind.MAX:
            return float(chunk.max())
        if self is WindowStatKind.MEAN:
            return float(chunk.sum()) / len(chunk)
        return float(chunk.max()) - float(chunk.min())


class SlopeDirection(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


# Number of interpolation plans, and of control-time arrays, kept per
# process; a run uses one per input port, so this bounds only long-lived
# processes that interpolate on many grids.
PLAN_CACHE_SIZE = 32


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _finite(out: np.ndarray) -> np.ndarray:
    """`out`, once its samples are checked finite."""
    if not np.isfinite(out).all():
        raise ValueError("signal values must be finite")
    return out


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def uniform_control_times(grid: TimeGrid, n: int) -> np.ndarray:
    """n control times evenly spaced over [0, grid.end]; n=1 gives [0].

    The result is a read-only array cached per (grid, n), at most
    PLAN_CACHE_SIZE of them (8 * n bytes each). It passes every check
    `ControlPoints` makes of its times: a grid too short to space n times
    apart in float raises that check's ValueError here.
    """
    if n < 1:
        raise ValueError(f"control-point count must be >= 1, got {n}")
    if n == 1:
        return _read_only(np.zeros(1))
    times = np.linspace(0.0, grid.end, n)
    if not (times[1:] > times[:-1]).all():
        raise ValueError("control times must be strictly increasing")
    return _read_only(times)


def _pchip_slopes(h: tuple[float, ...], v: list[float]) -> list[float]:
    """Fritsch-Carlson monotone slopes at each control point.

    Interior slopes are the weighted harmonic mean of adjacent secants
    (zero on sign change or at local extrema); endpoint slopes use the
    non-centered three-point formula clamped for monotonicity. Python
    floats give the same IEEE results as numpy float64, and `/` and `*`
    overflow silently: a near-zero secant makes w/d infinite, and the
    infinite denominator gives the correct limit slope of 0.
    """
    d = [(v[k + 1] - v[k]) / h[k] for k in range(len(h))]
    if len(d) == 1:
        return [d[0], d[0]]
    m = [0.0] * len(v)
    for k in range(1, len(v) - 1):
        d0, d1 = d[k - 1], d[k]
        if d0 != 0.0 and d1 != 0.0 and (d0 > 0) == (d1 > 0):
            w1 = 2.0 * h[k] + h[k - 1]
            w2 = h[k] + 2.0 * h[k - 1]
            den = w1 / d0 + w2 / d1
            # two infinite secants give a signed zero, which numpy divides
            # into a signed infinity where Python raises
            m[k] = (w1 + w2) / den if den else math.copysign(math.inf, den)
    m[0] = _edge_slope(h[0], h[1], d[0], d[1])
    m[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])
    return m


def _edge_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    # signs as (x > 0) - (x < 0), written out: a NaN has sign 0
    sign0 = (d0 > 0.0) - (d0 < 0.0)
    if (m > 0.0) - (m < 0.0) != sign0:
        return 0.0
    if sign0 != (d1 > 0.0) - (d1 < 0.0) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


# Every plan samples the grid it was built for, `grid`, from the values at
# its control times. `sample(values)` returns the samples and the
# `n_coefficients` coefficients they are linear in (None when those are
# not all finite); `coefficients(values)` the coefficients alone, without
# sampling; `basis()` is the (samples, coefficients) matrix whose product
# with the coefficients gives the samples, exact in exact arithmetic.


class _HeldPlan:
    """Constant and piecewise-constant kinds: each sample takes the value of
    one control point, the exact hits included."""

    def __init__(self, grid, n_coefficients, held: np.ndarray):
        self.grid = grid
        self.n_coefficients = n_coefficients
        self.held = _read_only(held)

    def sample(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # copies of the control values, which are finite
        return values[self.held], values

    def basis(self) -> np.ndarray:
        return np.eye(self.n_coefficients)[self.held]

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return values


# Below this bound on |slope| * width + |v| of every segment of a linear
# plan, with v the segment's first control value, no product or sum of a
# sample can overflow: a sample is slope * dx + v with 0 <= dx <= width,
# so it stays under the bound times 1 + 1e-15 with rounding, against a
# float maximum of 1.797e308. A sample before the first or after the last
# control time, which the control value overwrites, lies at most TIME_TOL
# outside its segment, which adds at most 1.8e308 * 1e-9 to its product.
_LINEAR_SAFE = 1e308


class _LinearPlan:
    """Linear kind, in np.interp's arithmetic: slope * (x - t[seg]) + v[seg],
    with the control value itself at a control time, outside the control
    times and at the exact hits.

    `seg` never decreases along the grid, so `slope[seg]` and `v[seg]` are
    repeats of the n - 1 segments by `counts`, the number of samples in
    each: n - 1 runs copied instead of one index gathered per sample.
    `widths` holds the segments' widths as Python floats."""

    def __init__(self, grid, seg, dx, widths, hits, points):
        self.grid = grid
        self.n_coefficients = len(widths) + 1
        self.counts = _read_only(np.bincount(seg, minlength=len(widths)))
        self.dx = _read_only(dx)
        self.widths = tuple(widths.tolist())
        self.hits = _read_only(hits)
        self.points = _read_only(points)

    def sample(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = values.tolist()
        # numpy's slopes, on the Python floats, which round as float64 and
        # overflow to inf silently
        slopes = [(b - a) / h for a, b, h in zip(v, v[1:], self.widths)]
        # checked on the Python floats, as in _PchipPlan: an infinite slope
        # fails the bound, and below it every sample is finite
        if all(abs(m) * h + abs(a) < _LINEAR_SAFE for m, h, a in zip(slopes, self.widths, v)):
            return self._sum(slopes, values), values
        # np.interp never warns: a slope that overflows stays inf, and inf
        # times the zero offset at a control time is overwritten by the
        # control value
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(self._sum(slopes, values)), values

    def basis(self) -> np.ndarray:
        return np.column_stack([self.sample(e)[0] for e in np.eye(self.n_coefficients)])

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return values

    def _sum(self, slopes: list[float], values: np.ndarray) -> np.ndarray:
        out = np.repeat(slopes, self.counts)
        out *= self.dx
        out += np.repeat(values[:-1], self.counts)
        out[self.hits] = values[self.points]
        return out


# Below this bound on sum |v| * (largest value basis) + sum |m| * (largest
# slope basis), over a pchip plan's control values v and slopes m, no term
# or partial sum of a sample can overflow: each sample adds two values and
# two slopes times their basis, so it stays under the bound times 1 + 1e-15
# with rounding, against a float maximum of 1.797e308.
_PCHIP_SAFE = 1e308


class _PchipPlan:
    """Monotone cubic kind: the Hermite basis of every sample, with the
    segment width already multiplied into the two slope terms.

    As in `_LinearPlan`, the segment never decreases along the grid, so the
    four coefficients each sample reads, v[k], m[k], v[k + 1] and m[k + 1]
    of its segment k, are copied over the segments' runs of `counts`
    samples instead of gathered per sample: `terms` holds their indices
    into the coefficients [v, m], one column per segment, and `hermite`
    the four basis rows they are multiplied by."""

    def __init__(self, grid, widths, seg, hermite, hits, points):
        n = len(widths) + 1
        self.grid = grid
        self.n_coefficients = 2 * n
        self.widths = widths
        k = np.arange(n - 1)
        self.terms = _read_only(np.stack([k, n + k, k + 1, n + k + 1]))
        self.counts = _read_only(np.bincount(seg, minlength=n - 1))
        self.hermite = _read_only(hermite)
        self.hits = _read_only(hits)
        self.points = _read_only(points)
        # at most 1 and 4/27 of the segment width inside the control times;
        # NaN when a basis is, which fails the bound
        self.value_basis = float(np.max(np.abs(hermite[0::2])))
        self.slope_basis = float(np.max(np.abs(hermite[1::2])))

    def sample(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        v = values.tolist()
        m = _pchip_slopes(self.widths, v)
        coefficients = _read_only(np.array(v + m))
        # checked on the Python floats: entering np.errstate costs more
        # than the check, and a NaN or infinity fails it; below the bound
        # every sample is finite, and so are both sums of magnitudes
        value_sum = sum(map(abs, v))
        slope_sum = sum(map(abs, m))
        if value_sum * self.value_basis + slope_sum * self.slope_basis < _PCHIP_SAFE:
            return self._sum(coefficients), coefficients
        # as in _LinearPlan: an infinite slope times the zero basis at a
        # control time is overwritten by the control value
        with np.errstate(over="ignore", invalid="ignore"):
            out = _finite(self._sum(coefficients))
        if not math.isfinite(value_sum + slope_sum):
            coefficients = None
        return out, coefficients

    def basis(self) -> np.ndarray:
        return np.column_stack([self._sum(e) for e in np.eye(self.n_coefficients)])

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """The control values and their slopes, as `sample` makes them."""
        v = values.tolist()
        return np.array(v + _pchip_slopes(self.widths, v))

    def _sum(self, coefficients: np.ndarray) -> np.ndarray:
        # h00 * v[k] + h10h * m[k] + h01 * v[k + 1] + h11h * m[k + 1],
        # summed left to right into a fresh array
        terms = np.repeat(coefficients[self.terms], self.counts, axis=1)
        terms *= self.hermite
        out = np.add(terms[0], terms[1])
        out += terms[2]
        out += terms[3]
        out[self.hits] = coefficients[self.points]
        return out


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(
    kind: InterpolationKind, grid: TimeGrid, times: tuple[float, ...]
) -> _HeldPlan | _LinearPlan | _PchipPlan:
    t = np.array(times)
    n = len(t)
    x = grid.times()
    # Exactness at control times that coincide with grid samples, immune to
    # last-ulp differences between the two time constructions.
    idx = np.rint(t / grid.step).astype(int)
    near = (idx >= 0) & (idx < grid.n_samples)
    near &= np.abs(t - idx * grid.step) <= TIME_TOL
    if kind in (InterpolationKind.CONSTANT, InterpolationKind.PIECEWISE_CONSTANT):
        held = np.clip(np.searchsorted(t, x + TIME_TOL, side="right") - 1, 0, n - 1)
        held[idx[near]] = np.flatnonzero(near)
        return _HeldPlan(grid, n, held)
    seg = np.clip(np.searchsorted(t, x, side="right") - 1, 0, n - 2)
    if kind is InterpolationKind.LINEAR:
        # np.interp takes the control value at a control time, before the
        # first one and from the last one on; the exact hits override it
        source = np.where(t[seg] == x, seg, -1)
        source[x < t[0]] = 0
        source[x >= t[-1]] = n - 1
        source[idx[near]] = np.flatnonzero(near)
        hits = np.flatnonzero(source >= 0)
        return _LinearPlan(grid, seg, x - t[seg], np.diff(t), hits, source[hits])
    h = t[seg + 1] - t[seg]
    s = (x - t[seg]) / h
    s2 = s * s
    s3 = s2 * s
    hermite = np.stack(
        [2.0 * s3 - 3.0 * s2 + 1.0, (s3 - 2.0 * s2 + s) * h, -2.0 * s3 + 3.0 * s2, (s3 - s2) * h]
    )
    return _PchipPlan(
        grid, tuple(np.diff(t).tolist()), seg, hermite, idx[near], np.flatnonzero(near)
    )


# The plan `interpolate` last found for each control-time array, by id:
# id -> (times, kind, grid, plan). An entry holds the array it is keyed
# on, so that id cannot pass to another array while the entry lives; at
# most PLAN_CACHE_SIZE entries, the oldest dropped first.
_plans_by_times: dict[int, tuple] = {}


def interpolate(cp: ControlPoints, kind: InterpolationKind, grid: TimeGrid) -> Signal:
    """Sample the interpolant of `cp` on every grid point.

    Control times must start at 0 and (for more than one point) end at
    grid.end. Any control time landing on a grid sample yields the control
    value exactly.

    Everything that depends only on the control times is a plan, cached
    per (kind, grid, control times) for the most recent PLAN_CACHE_SIZE
    keys: every sample's Hermite basis (pchip) or offset into its segment
    (linear), the held control point (constant kinds), the exact hits
    and, since the segment never decreases along the grid, the number of
    samples in each segment's run (linear and pchip), all read-only. A
    linear plan copies each segment's slope and value over its run, and a
    pchip plan the segment's two values and two slopes (`np.repeat`); a
    held plan gathers per sample. A pchip plan, the largest, holds four
    basis rows of 8 bytes per sample, plus 8 bytes per segment for its
    run lengths, so the cache holds at most about PLAN_CACHE_SIZE * 32 *
    n_samples bytes (12 MB on a 12001-sample grid); a linear plan holds
    one array of 8 bytes per sample, a held plan one. Each call computes
    the samples from `cp.values` into a fresh array, which the returned
    signal holds read-only, without a copy.

    A memo finds the plan again without the cache's key: for each of the
    last PLAN_CACHE_SIZE control-time arrays it was given, by identity,
    the kind, the grid and the plan it used. A call with the same array,
    the same kind and the same grid object, as every iteration of a run
    makes (`Assumption.control_points` passes the same read-only times
    each time), takes that plan without building or hashing the times
    tuple, and without the checks that call passed, which depend on
    nothing else. The memo holds each array it is keyed on and its plan,
    so with it at most twice PLAN_CACHE_SIZE plans are alive.

    The samples are finite, or this raises ValueError. A held plan copies
    the control values, which are finite. A linear plan checks its
    samples. A pchip plan checks them only when its control values and
    slopes are too large to rule out an overflow (`_PCHIP_SAFE`).

    The result is an `InterpolatedSignal` that also holds the plan and the
    coefficients the samples are linear in: `cp.values` itself for the
    held and linear kinds, and for pchip a fresh array of the control
    values followed by the slopes the plan computed anyway. When a pchip
    sum of coefficient magnitudes is not finite, the result is a plain
    `Signal`.
    """
    plan = interpolation_plan(cp, kind, grid)
    out, coefficients = plan.sample(cp.values)
    if coefficients is None:
        return _adopt(grid, _read_only(out))
    return _adopt(grid, _read_only(out), plan, coefficients)


def interpolation_plan(cp: ControlPoints, kind: InterpolationKind, grid: TimeGrid):
    """The plan `interpolate` samples `cp` with, found as it finds it (the
    memo, then the cache), without sampling: `plan.coefficients(values)`
    gives the coefficients the samples would be linear in."""
    held = _plans_by_times.get(id(cp.times))
    if held is not None and held[1] is kind and held[2] is grid:
        return held[3]
    plan = _checked_plan(cp, kind, grid)
    _plans_by_times.pop(id(cp.times), None)
    if len(_plans_by_times) >= PLAN_CACHE_SIZE:
        del _plans_by_times[next(iter(_plans_by_times))]
    _plans_by_times[id(cp.times)] = (cp.times, kind, grid, plan)
    return plan


def _checked_plan(cp: ControlPoints, kind: InterpolationKind, grid: TimeGrid):
    """The plan of `cp.times` for `kind` on `grid`, once the times fit
    both: as many as the kind takes, and the last at the grid's end."""
    times = tuple(cp.times.tolist())
    n = len(times)
    # every kind but constant takes any count from 2 points on
    if n < 2 or kind is InterpolationKind.CONSTANT:
        kind.check_arity(n)
    if n > 1 and abs(times[-1] - grid.end) > TIME_TOL:
        raise ValueError(
            f"control times must span [0, {grid.end}], last is {cp.times[-1]}"
        )
    return _plan(kind, grid, times)


def window_samples(window: tuple[float, float], grid: TimeGrid) -> int:
    """Leading samples of `grid` that `window_stat` reads over `window`.

    That is up to the window's last sample (the end `index_window` gives),
    and one sample more when the window ends between two samples, so that
    on the prefix the window end still lies inside the grid. A window that
    ends past the grid gets the whole grid, where `window_stat` raises.
    """
    b = window[1]
    if not b <= grid.end + TIME_TOL:
        return grid.n_samples
    k = max(math.floor((b + TIME_TOL) / grid.step), 0)
    if b > k * grid.step + TIME_TOL:
        k += 1
    return min(k + 1, grid.n_samples)


def window_span(window: tuple[float, float], grid: TimeGrid) -> tuple[int, int]:
    """Inclusive sample-index range of `grid` that `window_stat` reads over
    `window`, the samples with time in [a, b].

    Raises ValueError for a window that is empty or reversed, ends past
    the grid, or holds no grid sample.
    """
    a, b = window
    if not (0.0 <= a < b):
        raise ValueError(f"window must satisfy 0 <= a < b, got [{a}, {b}]")
    if b > grid.end + TIME_TOL:
        raise ValueError(f"window end {b} exceeds grid end {grid.end}")
    lo, hi = grid.index_window(a, b)
    if lo > hi:
        raise ValueError(f"window [{a}, {b}] contains no grid samples")
    return lo, hi


def window_stat(
    values: np.ndarray, grid: TimeGrid, stat: WindowStatKind, window: tuple[float, float]
) -> float:
    """Statistic of `values`, one per grid sample, over the samples with time
    in [a, b], ends inclusive."""
    lo, hi = window_span(window, grid)
    return stat.of(values[lo : hi + 1])


def steepest_slope(
    cp: ControlPoints, direction: SlopeDirection, window: tuple[float, float]
) -> float:
    """Steepest rise (or magnitude of steepest fall) between consecutive
    in-window control points; +0.0 when no segment goes the requested way.

    Computed on the Python floats, which round as numpy's float64 and
    overflow to inf silently: the bits of the slopes' numpy form."""
    a, b = window
    lo, hi = a - TIME_TOL, b + TIME_TOL
    points = [(t, v) for t, v in zip(cp.times.tolist(), cp.values.tolist()) if lo <= t <= hi]
    if len(points) < 2:
        raise ValueError(f"need >= 2 control points inside [{a}, {b}], got {len(points)}")
    slopes = [(v1 - v0) / (t1 - t0) for (t0, v0), (t1, v1) in zip(points, points[1:])]
    # max keeps its first argument on a tie, so a zero result is +0.0
    if direction is SlopeDirection.POSITIVE:
        return max(0.0, max(slopes))
    return max(0.0, -min(slopes))


def scale(value: float, range_: tuple[float, float]) -> float:
    """Affine map of `value` from [lo, hi] onto [0, 1], clamped."""
    lo, hi = range_
    if not lo < hi:
        raise ValueError(f"scale range must have lo < hi, got [{lo}, {hi}]")
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))
