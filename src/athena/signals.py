"""Sampled signals on a uniform time grid and input-signal generation.

A signal is a finite sequence of samples on a uniform grid starting at 0.
Input signals are built from a small number of control points by
interpolation (constant, piecewise constant, linear, or monotone cubic);
windowed statistics over signals and control points feed the manual
fitness combinators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TIME_TOL",
    "TimeGrid",
    "Signal",
    "ControlPoints",
    "InterpolationKind",
    "WindowStatKind",
    "SlopeDirection",
    "uniform_control_times",
    "interpolate",
    "window_stat",
    "steepest_slope",
    "scale",
]

# Absolute tolerance (seconds) when matching time instants to grid samples.
TIME_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid over [0, end] with spacing `step`."""

    end: float
    step: float
    start: float = 0.0

    def __post_init__(self):
        if self.start != 0.0:
            raise ValueError("grid start must be 0")
        if not (self.end > 0.0 and math.isfinite(self.end)):
            raise ValueError(f"grid end must be positive and finite, got {self.end}")
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"grid step must be positive and finite, got {self.step}")
        ratio = self.end / self.step
        nearest = round(ratio)
        if nearest < 1 or abs(ratio - nearest) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"grid end {self.end} is not a whole number of steps of {self.step}"
            )

    @property
    def n_samples(self) -> int:
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
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n_samples:
            raise ValueError(
                f"signal needs {self.grid.n_samples} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ControlPoints:
    """(time, value) pairs an input signal is interpolated from."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) == 0:
            raise ValueError("control times and values must be equal-length 1-d sequences")
        if abs(times[0]) > TIME_TOL:
            raise ValueError(f"first control time must be 0, got {times[0]}")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("control times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        for name, arr in (("times", times), ("values", values)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.times)


class InterpolationKind(enum.Enum):
    PCHIP = "pchip"
    LINEAR = "linear"
    PIECEWISE_CONSTANT = "pconst"
    CONSTANT = "const"

    @property
    def min_points(self) -> int:
        return {
            InterpolationKind.PCHIP: 2,
            InterpolationKind.LINEAR: 2,
            InterpolationKind.PIECEWISE_CONSTANT: 1,
            InterpolationKind.CONSTANT: 1,
        }[self]

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


class WindowStatKind(enum.Enum):
    MIN = "min"
    MAX = "max"
    MEAN = "mean"
    PEAK_TO_PEAK = "ptp"


class SlopeDirection(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def uniform_control_times(grid: TimeGrid, n: int) -> np.ndarray:
    """n control times evenly spaced over [0, grid.end]; n=1 gives [0]."""
    if n < 1:
        raise ValueError(f"control-point count must be >= 1, got {n}")
    if n == 1:
        return np.zeros(1)
    return np.linspace(0.0, grid.end, n)


def _pchip_slopes(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson monotone slopes at each control point.

    Interior slopes are the weighted harmonic mean of adjacent secants
    (zero on sign change or at local extrema); endpoint slopes use the
    non-centered three-point formula clamped for monotonicity.
    """
    h = np.diff(t)
    d = np.diff(v) / h
    n = len(t)
    if n == 2:
        return np.array([d[0], d[0]])
    m = np.zeros(n)
    # near-zero secants can overflow w/d; the inf denominator gives the
    # correct limit slope of 0
    with np.errstate(over="ignore"):
        for k in range(1, n - 1):
            if d[k - 1] == 0.0 or d[k] == 0.0 or (d[k - 1] > 0) != (d[k] > 0):
                m[k] = 0.0
            else:
                w1 = 2.0 * h[k] + h[k - 1]
                w2 = h[k] + 2.0 * h[k - 1]
                m[k] = (w1 + w2) / (w1 / d[k - 1] + w2 / d[k])
    m[0] = _edge_slope(h[0], h[1], d[0], d[1])
    m[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])
    return m


def _edge_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(m) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def _eval_pchip(t: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    m = _pchip_slopes(t, v)
    seg = np.clip(np.searchsorted(t, x, side="right") - 1, 0, len(t) - 2)
    h = t[seg + 1] - t[seg]
    s = (x - t[seg]) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * v[seg] + h10 * h * m[seg] + h01 * v[seg + 1] + h11 * h * m[seg + 1]


def interpolate(cp: ControlPoints, kind: InterpolationKind, grid: TimeGrid) -> Signal:
    """Sample the interpolant of `cp` on every grid point.

    Control times must start at 0 and (for more than one point) end at
    grid.end. Any control time landing on a grid sample yields the control
    value exactly.
    """
    n = len(cp)
    kind.check_arity(n)
    if n > 1 and abs(cp.times[-1] - grid.end) > TIME_TOL:
        raise ValueError(
            f"control times must span [0, {grid.end}], last is {cp.times[-1]}"
        )
    x = grid.times()
    if kind is InterpolationKind.CONSTANT:
        out = np.full(grid.n_samples, cp.values[0])
    elif kind is InterpolationKind.PIECEWISE_CONSTANT:
        idx = np.searchsorted(cp.times, x + TIME_TOL, side="right") - 1
        out = cp.values[np.clip(idx, 0, n - 1)]
    elif kind is InterpolationKind.LINEAR:
        out = np.interp(x, cp.times, cp.values)
    else:
        out = _eval_pchip(cp.times, cp.values, x)
    # Exactness at control times that coincide with grid samples, immune to
    # last-ulp differences between the two time constructions.
    idx = np.rint(cp.times / grid.step).astype(int)
    near = (idx >= 0) & (idx < grid.n_samples)
    near &= np.abs(cp.times - idx * grid.step) <= TIME_TOL
    out[idx[near]] = cp.values[near]
    return Signal(grid, out)


def window_stat(
    values: np.ndarray, grid: TimeGrid, stat: WindowStatKind, window: tuple[float, float]
) -> float:
    """Statistic of `values`, one per grid sample, over the samples with time
    in [a, b], ends inclusive."""
    a, b = window
    if not (0.0 <= a < b):
        raise ValueError(f"window must satisfy 0 <= a < b, got [{a}, {b}]")
    if b > grid.end + TIME_TOL:
        raise ValueError(f"window end {b} exceeds grid end {grid.end}")
    lo, hi = grid.index_window(a, b)
    if lo > hi:
        raise ValueError(f"window [{a}, {b}] contains no grid samples")
    chunk = values[lo : hi + 1]
    if stat is WindowStatKind.MIN:
        return float(chunk.min())
    if stat is WindowStatKind.MAX:
        return float(chunk.max())
    if stat is WindowStatKind.MEAN:
        return float(chunk.mean())
    return float(chunk.max() - chunk.min())


def steepest_slope(
    cp: ControlPoints, direction: SlopeDirection, window: tuple[float, float]
) -> float:
    """Steepest rise (or magnitude of steepest fall) between consecutive
    in-window control points; 0 when no segment goes the requested way."""
    a, b = window
    inside = (cp.times >= a - TIME_TOL) & (cp.times <= b + TIME_TOL)
    t = cp.times[inside]
    v = cp.values[inside]
    if len(t) < 2:
        raise ValueError(f"need >= 2 control points inside [{a}, {b}], got {len(t)}")
    slopes = np.diff(v) / np.diff(t)
    if direction is SlopeDirection.POSITIVE:
        return float(max(0.0, slopes.max()))
    return float(max(0.0, -slopes.min()))


def scale(value: float, range_: tuple[float, float]) -> float:
    """Affine map of `value` from [lo, hi] onto [0, 1], clamped."""
    lo, hi = range_
    if not lo < hi:
        raise ValueError(f"scale range must have lo < hi, got [{lo}, {hi}]")
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))
