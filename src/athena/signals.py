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
    "step_range",
    "Signal",
    "InterpolatedSignal",
    "ControlPoints",
    "InterpolationKind",
    "WindowStatKind",
    "SlopeDirection",
    "uniform_control_times",
    "interpolate",
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
        lo, hi = step_range(a, b, self.step)
        return max(lo, 0), min(hi, self.n_samples - 1)


def step_range(a: float, b: float, step: float) -> tuple[int, int]:
    """Inclusive range of the indices k whose time k * step is in [a, b],
    each boundary matched with TIME_TOL slack; empty (lo > hi) where no
    multiple of `step` is in it, and not clipped to any grid."""
    return math.ceil((a - TIME_TOL) / step), math.floor((b + TIME_TOL) / step)


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


class InterpolatedSignal(Signal):
    """A signal that `interpolate` built from control values, whose
    samples are formed on first read of `values`.

    Its samples are linear in `coefficients`, a read-only array: the
    port's control values and, for pchip, the Fritsch-Carlson slopes
    after them. A linear or pchip signal also keeps them as the list of
    Python floats its plan made the array from, bitwise the array's,
    which `models.simulate` and `extreme` read instead of converting the
    array again; a held kind's signal keeps none. `plan` is the plan that
    samples them on its grid, `plan.grid`: `plan.basis()[i] @
    coefficients` is sample i, up to rounding. A plant whose outputs are
    affine in its inputs by construction (`models.LinearPlant`) then
    simulates the signal as a matrix-vector product over the coefficients
    (`models.simulate`), and never forms its samples.

    Below the plan's overflow bound the coefficients are finite, and the
    first read of `values` forms the samples from them (`plan.samples`),
    with the same bits as samples formed at once, and keeps them
    read-only: every later read returns the same array. Past it
    `interpolate` has formed and checked the samples, and a pchip slope
    may be infinite; a NaN or infinite coefficient sum fails the
    superposition bound, so no product reads such coefficients. `prefix`
    reads a view of the whole signal's samples, formed once for both.
    `extreme` gives the max, min or ptp of a window from the control
    points while the samples are not formed.

    Only `interpolate` and `prefix` make one, and both store references,
    not copies. The `Signal` constructor makes a plain signal, even from
    an interpolated signal's values.
    """

    plan: "_HeldPlan | _LinearPlan | _PchipPlan"
    coefficients: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("only interpolate and prefix make an InterpolatedSignal")

    @property
    def values(self) -> np.ndarray:
        values = self._values
        if values is None:
            if self._source is None:
                values = _read_only(self.plan.samples(self.coefficients))
            else:
                values = self._source.values[: self.grid.n_samples]
            object.__setattr__(self, "_values", values)
        return values

    def prefix(self, grid: TimeGrid) -> "InterpolatedSignal":
        """The first `grid.n_samples` samples, as a signal on `grid`, a
        shorter grid with the same step, with the same plan and
        coefficients. Its samples are formed on first read, as a
        read-only view of the whole signal's: they were checked, or need
        no check, so they are neither checked nor copied again."""
        if grid.step != self.grid.step or grid.n_samples >= self.grid.n_samples:
            raise ValueError(
                f"a prefix needs a shorter grid with step {self.grid.step}, got "
                f"{grid.n_samples} samples at step {grid.step}"
            )
        return _interpolated(
            grid, self.plan, self.coefficients, self._floats, source=self._source or self
        )

    def extreme(self, stat: "WindowStatKind", lo: int, hi: int) -> float | None:
        """`stat` of samples lo .. hi, for max, min and ptp, from the plan
        and the coefficients (`plan.largest`), or None for mean or once the
        samples are formed, where a pass over them costs less.

        Plus 0.0 it has the bits of `stat.of` over those samples: each
        extreme is one of the samples, up to the sign of a zero. The min is
        the negated max of the negated coefficients, whose samples are the
        negated samples bitwise, since IEEE rounding is symmetric."""
        if stat is WindowStatKind.MEAN or self._values is not None:
            return None
        if self._source is not None and self._source._values is not None:
            return None
        c = self._floats
        if c is None:
            c = self.coefficients.tolist()
        if stat is WindowStatKind.MAX:
            return self.plan.largest(c, lo, hi)
        smallest = -self.plan.largest([-x for x in c], lo, hi)
        if stat is WindowStatKind.MIN:
            return smallest
        return self.plan.largest(c, lo, hi) - smallest


def _interpolated(
    grid: TimeGrid, plan, coefficients: np.ndarray, floats, values=None, source=None
) -> InterpolatedSignal:
    """An InterpolatedSignal on `grid` of `plan` and its `coefficients`,
    and `floats`, the same coefficients as a list of Python floats or None,
    held as they are: with `values`, samples checked and made read-only by
    the caller, or else formed on first read, from the coefficients or,
    for a prefix, as a view of the samples of `source`, the whole signal.
    """
    signal = object.__new__(InterpolatedSignal)
    # the frozen instance's attributes, set as one dict
    object.__setattr__(
        signal,
        "__dict__",
        {
            "grid": grid,
            "plan": plan,
            "coefficients": coefficients,
            "_floats": floats,
            "_values": values,
            "_source": source,
        },
    )
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


def _edge_slope(w: float, h0: float, s: float, d0: float, d1: float) -> float:
    """An endpoint slope, from the edge's weights w = 2 h0 + h1 and s = h0 +
    h1, its own width h0, its secant d0 and the next one d1: the
    non-centered three-point formula, clamped for monotonicity."""
    m = (w * d0 - h0 * d1) / s
    # signs as (x > 0) - (x < 0), written out: a NaN has sign 0
    sign0 = (d0 > 0.0) - (d0 < 0.0)
    if (m > 0.0) - (m < 0.0) != sign0:
        return 0.0
    if sign0 != (d1 > 0.0) - (d1 < 0.0) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


# Every plan samples the grid it was built for, `grid`, from the values at
# its control times, in two steps. `coefficients(values)` returns the
# `n_coefficients` coefficients the samples are linear in, as a read-only
# array and, where the plan made them on the way (linear and pchip), as
# the list of Python floats it made, else None, and whether they lie below
# the plan's bound, where no sample can overflow and every coefficient is
# finite; `samples(coefficients)` then forms the samples, unchecked. Past
# the bound `interpolate` forms and checks them at once.
# `basis()` is the (samples, coefficients) matrix whose product with the
# coefficients gives the samples, exact in exact arithmetic: for the held
# kinds its columns are 0 and 1. `largest(c, lo, hi)` is the largest of
# samples lo .. hi of the coefficients `c`, as Python floats, up to the
# sign of a zero, from a few samples per segment (`_Plan.layout`), with
# no pass over the rest.


class _Plan:
    """What every plan shares: its grid, its coefficient count, its basis
    and the layout of each window it was asked for."""

    def __init__(self, grid: TimeGrid, n_coefficients: int):
        self.grid = grid
        self.n_coefficients = n_coefficients
        self._layouts: dict[tuple[int, int], tuple] = {}

    def basis(self) -> np.ndarray:
        return np.column_stack([self.samples(e) for e in np.eye(self.n_coefficients)])

    def layout(self, lo: int, hi: int) -> tuple:
        """`_layout(lo, hi)`, kept for the last PLAN_CACHE_SIZE windows."""
        found = self._layouts.get((lo, hi))
        if found is None:
            if len(self._layouts) >= PLAN_CACHE_SIZE:
                del self._layouts[next(iter(self._layouts))]
            found = self._layouts[lo, hi] = self._layout(lo, hi)
        return found


def _runs(counts: np.ndarray, singles: np.ndarray, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The maximal runs (k, a, b), inclusive, of samples lo .. hi of one
    segment k, where segment k holds the next `counts[k]` samples, and none
    in `singles`, in grid order."""
    seg = np.repeat(np.arange(len(counts)), counts)[lo : hi + 1]
    key = np.where(np.isin(np.arange(lo, hi + 1), singles), -1, seg)
    bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]
    return [
        (int(key[a]), lo + a, lo + b - 1) for a, b in zip(bounds, bounds[1:]) if key[a] >= 0
    ]


class _HeldPlan(_Plan):
    """Constant and piecewise-constant kinds: each sample takes the value of
    one control point, the exact hits included."""

    def __init__(self, grid, n_coefficients, held: np.ndarray):
        super().__init__(grid, n_coefficients)
        self.held = _read_only(held)

    def coefficients(self, values: np.ndarray) -> tuple[np.ndarray, None, bool]:
        # the control values, which are finite, as every sample is
        return values, None, True

    def samples(self, coefficients: np.ndarray) -> np.ndarray:
        return coefficients[self.held]

    def _layout(self, lo, hi):
        # the control points held in the window
        return tuple(np.unique(self.held[lo : hi + 1]).tolist())

    def largest(self, c: list[float], lo: int, hi: int) -> float:
        return max([c[j] for j in self.layout(lo, hi)])


# Below this bound on |slope| * width + |v| of every segment of a linear
# plan, with v the segment's first control value, no product or sum of a
# sample can overflow: a sample is slope * dx + v with 0 <= dx <= width,
# so it stays under the bound times 1 + 1e-15 with rounding, against a
# float maximum of 1.797e308. A sample before the first or after the last
# control time, which the control value overwrites, lies at most TIME_TOL
# outside its segment, which adds at most 1.8e308 * 1e-9 to its product.
# `_LinearPlan.coefficients` checks it through the largest |v|, A: a
# rounded slope is at most 2 A (1 + u)^2 / width, finite while 2.01 A /
# width is under the bound, and |slope| * width + |v| is at most
# 3 A (1 + u)^4, under it while 3.01 A is.
_LINEAR_SAFE = 1e308


class _LinearPlan(_Plan):
    """Linear kind, in np.interp's arithmetic: slope * (x - t[seg]) + v[seg],
    with the control value itself at a control time, outside the control
    times and at the exact hits.

    `seg` never decreases along the grid, so `slope[seg]` and `v[seg]` are
    repeats of the n - 1 segments by `counts`, the number of samples in
    each: n - 1 runs copied instead of one index gathered per sample.
    `widths` holds the segments' widths as Python floats."""

    def __init__(self, grid, seg, dx, widths, hits, points):
        super().__init__(grid, len(widths) + 1)
        self.counts = _read_only(np.bincount(seg, minlength=len(widths)))
        self.dx = _read_only(dx)
        self.widths = tuple(widths.tolist())
        self.hits = _read_only(hits)
        self.points = _read_only(points)
        # _LINEAR_SAFE over this, the largest |v| the bound allows
        self.spread = max(3.01, 2.01 / min(self.widths))

    def coefficients(self, values: np.ndarray) -> tuple[np.ndarray, list[float], bool]:
        # checked on the Python floats, as in _PchipPlan, with no slope
        # formed: below the bound every sample is finite
        v = values.tolist()
        limit = _LINEAR_SAFE / self.spread
        return values, v, max(v) < limit and -min(v) < limit

    def samples(self, coefficients: np.ndarray) -> np.ndarray:
        v = coefficients.tolist()
        # numpy's slopes, on the Python floats, which round as float64 and
        # overflow to inf silently
        out = np.repeat([(b - a) / h for a, b, h in zip(v, v[1:], self.widths)], self.counts)
        out *= self.dx
        out += np.repeat(coefficients[:-1], self.counts)
        out[self.hits] = coefficients[self.points]
        return out

    def _layout(self, lo, hi):
        # the control points the hits in the window take, and the segment
        # and offset of the first and the last sample of each run between
        # them: slope * dx + v rounds monotonically in dx, so a run's
        # extremes are at its ends
        inside = (self.hits >= lo) & (self.hits <= hi)
        points = tuple(np.unique(self.points[inside]).tolist())
        ends = []
        for k, a, b in _runs(self.counts, self.hits, lo, hi):
            ends += [(k, float(self.dx[i])) for i in dict.fromkeys((a, b))]
        return points, tuple(ends)

    def largest(self, c: list[float], lo: int, hi: int) -> float:
        points, ends = self.layout(lo, hi)
        widths = self.widths
        return max(
            [c[j] for j in points]
            + [(c[k + 1] - c[k]) / widths[k] * dx + c[k] for k, dx in ends]
        )


# Below this bound on sum |v| * (largest value basis) + sum |m| * (largest
# slope basis), over a pchip plan's control values v and slopes m, no term
# or partial sum of a sample can overflow: each sample adds two values and
# two slopes times their basis, so it stays under the bound times 1 + 1e-15
# with rounding, against a float maximum of 1.797e308.
_PCHIP_SAFE = 1e308

# The rounding bound behind `_PchipPlan.largest`. Take a segment from
# value v to w, with slopes m and z and width h, and let M = |v| + |w| +
# h (|m| + |z|) and u = 2^-53. Its Hermite cubic at an offset s in [0, 1]
# is P(s) = v p00(s) + w p01(s) + h m p10(s) + h z p11(s).
# - A sample at the rounded offset s lies within 21 u M of P(s), plus
#   2^-1073 for products that underflow. The rounded basis values lie
#   within 16 u of p00 and p01, and within 16 u h of h p10 and h p11:
#   each sums a few terms in s^3 and s^2, each of size at most 1. The
#   four-term Hermite sum rounds within 4.01 u of the sum of its terms'
#   magnitudes, which is at most M (Higham, Accuracy and Stability of
#   Numerical Algorithms, 2002, (3.5)).
# - The rounded Fritsch-Carlson slopes lie in [0, 3 (1 + 11 u) D] times
#   the sign of the exact secant D = (w - v) / h (Fritsch & Carlson,
#   SIAM J. Numer. Anal. 17(2), 1980). Clipping them to [0, 3 D] moves P
#   by at most 4/27 * 2 * 33 u |w - v| < 10 u M, and the clipped cubic Q
#   is monotone on [0, 1], rising from v to w where v <= w and falling
#   where v > w.
# So a sample of the segment exceeds max(v, w), and a sample between
# another one and the segment's larger end exceeds that other sample, by
# at most 2 (21 + 10) u M plus 2^-1072. Here the slack is 2^9 u times a
# bound on M over every segment, plus 2^-1070: about 8 times that, which
# also covers the rounding of the test itself.
_PCHIP_SLACK = 2.0**-44
_PCHIP_TINY = 2.0**-1070


class _PchipPlan(_Plan):
    """Monotone cubic kind: the Hermite basis of every sample, with the
    segment width already multiplied into the two slope terms.

    As in `_LinearPlan`, the segment never decreases along the grid, so the
    four coefficients each sample reads, v[k], m[k], v[k + 1] and m[k + 1]
    of its segment k, are copied over the segments' runs of `counts`
    samples instead of gathered per sample: `terms` holds their indices
    into the coefficients [v, m], one column per segment, and `hermite`
    the four basis rows they are multiplied by. `loose` holds the samples
    whose offset into their segment lies outside [0, 1], before the first
    or after the last control time, each an exact hit on a grid whose
    control times lie on it."""

    def __init__(self, grid, widths, seg, hermite, hits, points, loose):
        n = len(widths) + 1
        super().__init__(grid, 2 * n)
        self.widths = widths
        # what the Fritsch-Carlson weights take from the widths alone
        # (Fritsch & Carlson, SIAM J. Numer. Anal. 17(2), 1980): w1 = 2 h_k
        # + h_(k-1), w2 = h_k + 2 h_(k-1) and w1 + w2 at each interior point
        # k, and at each edge, with h0 its own width and h1 the next, 2 h0 +
        # h1, h0 and h0 + h1; one segment has no edge weights, as both its
        # slopes are its secant
        h = widths
        weights = [(2.0 * b + a, b + 2.0 * a) for a, b in zip(h, h[1:])]
        self.interior = tuple((w1, w2, w1 + w2) for w1, w2 in weights)
        self.first = self.last = None
        if n > 2:
            self.first = (2.0 * h[0] + h[1], h[0], h[0] + h[1])
            self.last = (2.0 * h[-1] + h[-2], h[-1], h[-1] + h[-2])
        k = np.arange(n - 1)
        self.terms = _read_only(np.stack([k, n + k, k + 1, n + k + 1]))
        self.counts = _read_only(np.bincount(seg, minlength=n - 1))
        self.hermite = _read_only(hermite)
        self.hits = _read_only(hits)
        self.points = _read_only(points)
        self.loose = _read_only(loose)
        # times the largest coefficient magnitude, a bound on slack / M
        # over every segment, as 2 (1 + widest) times that bounds M
        self.slack = _PCHIP_SLACK * 2.0 * (1.0 + max(widths))
        # at most 1 and 4/27 of the segment width inside the control times;
        # NaN when a basis is, which fails the bound
        self.value_basis = float(np.max(np.abs(hermite[0::2])))
        self.slope_basis = float(np.max(np.abs(hermite[1::2])))

    def slopes(self, v: list[float]) -> list[float]:
        """Fritsch-Carlson monotone slopes at the control values `v`.

        Interior slopes are the weighted harmonic mean of adjacent secants
        (zero on sign change or at local extrema); endpoint slopes use the
        non-centered three-point formula clamped for monotonicity
        (`_edge_slope`). The weights come from the plan, so a call forms
        only the secants, the harmonic means and the edge clamps. Python
        floats give the same IEEE results as numpy float64, and `/` and
        `*` overflow silently: a near-zero secant makes w/d infinite, and
        the infinite denominator gives the correct limit slope of 0.
        """
        d = [(b - a) / h for a, b, h in zip(v, v[1:], self.widths)]
        if len(d) == 1:
            return [d[0], d[0]]
        m = [0.0] * len(v)
        k = 1
        for w1, w2, w12 in self.interior:
            d0 = d[k - 1]
            d1 = d[k]
            if d0 != 0.0 and d1 != 0.0 and (d0 > 0) == (d1 > 0):
                den = w1 / d0 + w2 / d1
                # two infinite secants give a signed zero, which numpy
                # divides into a signed infinity where Python raises
                m[k] = w12 / den if den else math.copysign(math.inf, den)
            k += 1
        w, h0, s = self.first
        m[0] = _edge_slope(w, h0, s, d[0], d[1])
        w, h0, s = self.last
        m[-1] = _edge_slope(w, h0, s, d[-1], d[-2])
        return m

    def coefficients(self, values: np.ndarray) -> tuple[np.ndarray, list[float], bool]:
        v = values.tolist()
        m = self.slopes(v)
        # checked on the Python floats: entering np.errstate costs more
        # than the check, and a NaN or infinity fails it; below the bound
        # every sample is finite, and so are both sums of magnitudes
        value_sum = sum(map(abs, v))
        slope_sum = sum(map(abs, m))
        safe = value_sum * self.value_basis + slope_sum * self.slope_basis < _PCHIP_SAFE
        c = v + m
        return _read_only(np.array(c)), c, safe

    def samples(self, coefficients: np.ndarray) -> np.ndarray:
        # h00 * v[k] + h10h * m[k] + h01 * v[k + 1] + h11h * m[k + 1],
        # summed left to right into a fresh array
        terms = np.repeat(coefficients[self.terms], self.counts, axis=1)
        terms *= self.hermite
        out = np.add(terms[0], terms[1])
        out += terms[2]
        out += terms[3]
        out[self.hits] = coefficients[self.points]
        return out

    def _layout(self, lo, hi):
        # the coefficients the hits in the window take; the segment and
        # basis of each sample summed alone: the loose ones and every
        # sample of a run of at most four; and for each longer run from a
        # to b, its segment, the basis of samples b, b - 1, a and a + 1,
        # and the ranges a .. b - 2 and a + 2 .. b
        hits = dict(zip(self.hits.tolist(), self.points.tolist()))
        points = tuple(sorted({j for i, j in hits.items() if lo <= i <= hi}))
        loose = [i for i in self.loose.tolist() if lo <= i <= hi and i not in hits]
        starts = np.cumsum(self.counts) - self.counts
        single = [(int(np.searchsorted(starts, i, side="right")) - 1, i) for i in loose]
        runs = []
        for k, a, b in _runs(self.counts, np.array([*hits, *loose], dtype=int), lo, hi):
            if b - a < 4:
                single += [(k, i) for i in range(a, b + 1)]
            else:
                bases = map(self._basis, (b, b - 1, a, a + 1))
                runs.append((k, *bases, (a, b - 1), (a + 2, b + 1)))
        sums = tuple((k, *self._basis(i)) for k, i in single)
        return points, sums, tuple(runs)

    def _basis(self, i: int) -> tuple[float, float, float, float]:
        return tuple(self.hermite[:, i].tolist())

    def largest(self, c: list[float], lo: int, hi: int) -> float:
        """The largest of samples lo .. hi: of the hits, the samples
        summed alone, and of each longer run those it cannot rule out.

        A longer run's larger end is the end b where v <= w, else a. By
        the bound above, no sample of the run exceeds max(v, w) plus the
        slack, nor the sum at its larger end plus the slack, nor does one
        before b - 1 (after a + 1) exceed the sum there plus the slack. A
        run is passed over where the first bound is at most the largest
        sample found; else its larger end is summed. Once every run has
        been looked at, a run is passed over where its larger end plus the
        slack is at most the largest sample found; else the sample next to
        that end is summed, and the rest of the run is passed over where
        that sample plus the slack is at most the largest sample found.
        What is left is summed over the run, from the plan's basis rows,
        as `samples` sums it. The slack is `slack` times the largest
        coefficient magnitude, plus _PCHIP_TINY."""
        points, sums, runs = self.layout(lo, hi)
        n = self.n_coefficients // 2
        # explicit loops: a call of max costs more than a few comparisons
        best = -math.inf
        for j in points:
            if c[j] > best:
                best = c[j]
        for k, h0, h1, h2, h3 in sums:
            x = c[k] * h0 + c[n + k] * h1 + c[k + 1] * h2 + c[n + k + 1] * h3
            if x > best:
                best = x
        if not runs:
            return best
        largest = max(c)
        smallest = min(c)
        slack = self.slack * (largest if largest > -smallest else -smallest) + _PCHIP_TINY
        ends = []
        for run in runs:
            k = run[0]
            v = c[k]
            w = c[k + 1]
            rising = v <= w
            if (w if rising else v) + slack <= best:
                continue
            m = c[n + k]
            z = c[n + k + 1]
            h0, h1, h2, h3 = run[1] if rising else run[3]
            end = v * h0 + m * h1 + w * h2 + z * h3
            if end > best:
                best = end
            ends.append((end, rising, v, m, w, z, run))
        for end, rising, v, m, w, z, run in ends:
            if end + slack <= best:
                continue
            h0, h1, h2, h3 = run[2] if rising else run[4]
            end = v * h0 + m * h1 + w * h2 + z * h3
            if end > best:
                best = end
            elif end + slack <= best:
                continue
            start, stop = run[5] if rising else run[6]
            hermite = self.hermite[:, start:stop]
            out = hermite[0] * v
            out += hermite[1] * m
            out += hermite[2] * w
            out += hermite[3] * z
            best = max(best, float(out.max()))
        return best


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
    loose = np.flatnonzero(~((s >= 0.0) & (s <= 1.0)))
    return _PchipPlan(
        grid, tuple(np.diff(t).tolist()), seg, hermite, idx[near], np.flatnonzero(near), loose
    )


# The plan `interpolate` last found for each control-time array, by id:
# id -> (times, kind, grid, plan). An entry holds the array it is keyed
# on, so that id cannot pass to another array while the entry lives; at
# most PLAN_CACHE_SIZE entries, the oldest dropped first.
_plans_by_times: dict[int, tuple] = {}


def interpolate(cp: ControlPoints, kind: InterpolationKind, grid: TimeGrid) -> InterpolatedSignal:
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
    one array of 8 bytes per sample, a held plan one.

    A memo finds the plan again without the cache's key: for each of the
    last PLAN_CACHE_SIZE control-time arrays it was given, by identity,
    the kind, the grid and the plan it used. A call with the same array,
    the same kind and the same grid object, as every iteration of a run
    makes (`Assumption.control_points` passes the same read-only times
    each time), takes that plan without building or hashing the times
    tuple, and without the checks that call passed, which depend on
    nothing else. The memo holds each array it is keyed on and its plan,
    so with it at most twice PLAN_CACHE_SIZE plans are alive.

    Each call computes the coefficients the samples are linear in:
    `cp.values` itself for the held and linear kinds, and for pchip a
    fresh array of the control values followed by their Fritsch-Carlson
    slopes, of which the plan holds every weight that depends only on the
    control times, so a call forms only the secants, the harmonic means
    and the edge clamps. The result is an `InterpolatedSignal` that holds
    the plan and the coefficients, for the linear and pchip kinds also as
    the Python floats the plan made on the way, and forms its samples
    from them on the first read of its `values`, bitwise as the plan
    samples them, into a fresh array it keeps read-only. A plant
    simulated by superposition, and a window that takes the max, min or
    ptp of the signal (`InterpolatedSignal.extreme`), read only the
    coefficients, so a run that reads nothing else never forms the
    samples.

    The samples are finite, or this raises ValueError. A held plan copies
    the control values, which are finite. A linear or pchip plan rules
    out an overflow by a bound on the coefficients (`_LINEAR_SAFE`,
    `_PCHIP_SAFE`); where the bound fails, this forms the samples at once
    and checks them, and the signal holds them.
    """
    held = _plans_by_times.get(id(cp.times))
    if held is not None and held[1] is kind and held[2] is grid:
        plan = held[3]
    else:
        plan = _checked_plan(cp, kind, grid)
        _plans_by_times.pop(id(cp.times), None)
        if len(_plans_by_times) >= PLAN_CACHE_SIZE:
            del _plans_by_times[next(iter(_plans_by_times))]
        _plans_by_times[id(cp.times)] = (cp.times, kind, grid, plan)
    coefficients, floats, safe = plan.coefficients(cp.values)
    if safe:
        return _interpolated(grid, plan, coefficients, floats)
    # as np.interp, never a warning: a slope that overflows stays inf, and
    # inf times the zero offset or basis at a control time is overwritten
    # by the control value
    with np.errstate(over="ignore", invalid="ignore"):
        out = plan.samples(coefficients)
    return _interpolated(grid, plan, coefficients, floats, _read_only(_finite(out)))


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
    """Affine map of `value` from [lo, hi] onto [0, 1], clamped.

    A NaN stays NaN, so that a score that reads it fails as one that reads
    the value unscaled does; the clamp alone would make it 0.0, as `max`
    keeps its first argument against a NaN."""
    lo, hi = range_
    if not lo < hi:
        raise ValueError(f"scale range must have lo < hi, got [{lo}, {hi}]")
    x = (value - lo) / (hi - lo)
    if x != x:
        return x
    return min(1.0, max(0.0, x))
