"""Quantitative robustness and boolean satisfaction on sampled traces.

Discrete-grid semantics evaluated at time 0. Temporal operators select the
grid samples u with t+a <= u <= t+b (ends inclusive, TIME_TOL slack); min
and max over those samples give Globally and Eventually.

A formula is evaluated through its plan, built once per (formula, step) by
one walk of the tree and cached. The plan holds each temporal node's
sample offsets (k_lo, k_hi) and the number of leading output samples its
parent reads, `need`: the root reads 1, and the child of a temporal node
reads need + k_hi. A predicate evaluates its expression on that prefix
only. A temporal node read at one sample is a single min or max over
child[k_lo : k_hi + 1]; any other runs a sliding min or max that yields
exactly `need` samples. No sample is computed that the value at t=0
does not read, and every value is one of the trace's margins, so the
result equals a walk over the whole trace.

The sliding min or max takes one of two paths, chosen by a cost test on
the input array alone (`_sliding`). A trace made from control points is
piecewise monotone, and a window's min (max) sits at one of its ends or
at a turn inside it: the last sample of a valley (crest), one that is
smaller (larger) than the next and not larger (smaller) than the one
before. With few turns, `_fold` starts from the windows' left ends,
folds in each turn, in ascending order, over the windows that hold it
inside, and ends with the right ends: about four passes plus one scalar
min or max per turn, as in the streaming filter of Lemire (2006) and the
monitor of Donzé, Ferrère and Maler (CAV 2013). A rough array takes
`_doubling`, about log2 of the window's length passes of elementwise
minimum or maximum, and so does one holding a NaN, which is never a
turn. On a tie np.minimum and np.maximum return their second operand,
and both paths pass each later sample as the second, so both return the
rightmost tied sample: every bit is the same, signed zeros included.

Read at one sample, directly over a predicate, a temporal node's
robustness is the margin of one value: the predicate's margin, bound - e
or e - bound, is monotone in its expression e, so its min or max over
the window is the margin of e's max or min there, rounded the same way.
The node takes that extreme over the window's samples alone, from a view
of the channel when the expression is a bare channel (`AtomExpr.bare`,
plus 0.0 on the scalar), and applies the margin once, to the Python
float, which rounds as numpy's float64 arithmetic does. The expression's
values hold no -0.0 (`AtomExpr.values`), so every tied extreme has the
same bits and the result is bitwise the array path's. Satisfaction keeps
the array path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import HorizonError
from ..signals import TIME_TOL
from .nodes import (
    And,
    AtomExpr,
    Eventually,
    Formula,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
    Trace,
)

__all__ = [
    "robustness",
    "satisfied",
    "formula_horizon",
    "formula_samples",
    "formula_channels",
]

# Number of plans kept per process, one per (formula, step); a run reads one.
PLAN_CACHE_SIZE = 32


def formula_horizon(f: Formula) -> float:
    """Largest time instant (seconds) the formula can reference from t=0."""
    if isinstance(f, Predicate):
        return 0.0
    if isinstance(f, Not):
        return formula_horizon(f.child)
    if isinstance(f, (And, Or, Implies)):
        return max(formula_horizon(f.left), formula_horizon(f.right))
    if isinstance(f, (Globally, Eventually)):
        return f.b + formula_horizon(f.child)
    raise TypeError(f"not a formula node: {f!r}")


def formula_channels(f: Formula) -> tuple[str, ...]:
    """The channels the formula's predicates name, in source order, each
    once."""
    if isinstance(f, Predicate):
        return f.expr.channels()
    if isinstance(f, (Not, Globally, Eventually)):
        names = formula_channels(f.child)
    elif isinstance(f, (And, Or, Implies)):
        names = formula_channels(f.left) + formula_channels(f.right)
    else:
        raise TypeError(f"not a formula node: {f!r}")
    return tuple(dict.fromkeys(names))


def formula_samples(f: Formula, step: float) -> int:
    """Leading samples of a trace at `step` that robustness at t=0 reads.

    One plus the largest sum of window ends, in samples, along any path from
    the root to a predicate: the `need` the plan gives the deepest
    predicate. On a trace one sample shorter, `robustness` raises
    HorizonError. A formula with no temporal operator reads 1 sample.
    """
    return 1 + _plan(f, step).reach


def _window_offsets(a: float, b: float, step: float) -> tuple[int, int]:
    """Sample-index offsets selected by [t+a, t+b] on a uniform grid."""
    k_lo = max(0, math.ceil((a - TIME_TOL) / step))
    k_hi = math.floor((b + TIME_TOL) / step)
    if k_lo > k_hi:
        raise ValueError(
            f"interval [{a:g},{b:g}] selects no grid samples at step {step:g}"
        )
    return k_lo, k_hi


# Costs in samples of one doubling pass, measured on float64 runs of
# 2001-12001 samples (2-vCPU Xeon, numpy 2.4.6): a numpy call costs about
# as much as _CALL samples; `_fold` four passes and eight calls, and two
# calls and 2 * w samples more per turn of a window of w; the turn mask
# and its count one pass and three calls.
_CALL = 2500


def _sliding(arr: np.ndarray, k_lo: int, k_hi: int, out_len: int, take_min: bool) -> np.ndarray:
    """out[i] = min/max(arr[i+k_lo : i+k_hi+1]) for i in range(out_len).

    `arr` holds at least out_len + k_hi samples; the windows slide over
    run = arr[k_lo : k_hi + out_len], w samples each. Say a sample beats
    another when it is smaller (min) or larger (max): j is a turn when
    run[j] beats run[j + 1] and run[j - 1] does not beat run[j]. A
    window's rightmost extreme is one of its two ends or a turn inside
    it, so a run with few turns takes `_fold`, about four passes plus one
    scalar min or max over at most w - 2 outputs per turn. A rough run
    takes `_doubling`, about log2(w) passes.

    The cost test counts the turns before locating them, in samples of a
    doubling pass, with one numpy call priced as `_CALL` samples: the
    doubling costs w.bit_length() * (len(run) + _CALL), the fold four
    passes and eight calls fixed plus 2 * (w + _CALL) per turn. Where a
    run with no turn would save less than twice what the mask costs, as
    for short windows and short runs, no mask is built: there a few
    turns too many would make the fold lose, and the mask be wasted.
    The test reads the run alone. A run holding a NaN takes the
    doubling, which spreads the NaN as np.minimum does: a NaN is never a
    turn.

    Both paths pass the later of two samples as the second operand, and
    on a tie np.minimum and np.maximum return the second
    (np.minimum(0.0, -0.0) is -0.0), so both return the rightmost tied
    sample: every bit is the same, signed zeros included.
    """
    combine = np.minimum if take_min else np.maximum
    w = k_hi - k_lo + 1
    run = arr[k_lo : k_hi + out_len]
    n = len(run)
    # what the doubling costs beyond the fold's fixed part
    budget = w.bit_length() * (n + _CALL) - 4 * n - 8 * _CALL
    # a run with too many turns wastes the mask: build it only where a
    # run with no turn would save twice what the mask costs
    if budget > 2 * (n + 3 * _CALL):
        turns = _turns(run, take_min)
        if np.count_nonzero(turns) * 2 * (w + _CALL) < budget and not math.isnan(run.min()):
            return _fold(run, w, out_len, combine, turns)
    return _doubling(run, w, out_len, combine)


def _turns(run: np.ndarray, take_min: bool) -> np.ndarray:
    """Mask of the run's turns (`_sliding`): entry j - 1 is set when
    run[j] is one, the last sample of a valley (min) or a crest (max),
    plateaus included."""
    better = (np.less if take_min else np.greater)(run[:-1], run[1:])
    return better[1:] > better[:-1]


def _fold(run: np.ndarray, w: int, out_len: int, combine, turns: np.ndarray) -> np.ndarray:
    """The sliding min or max of the run from its window ends and turns.

    Starts from the left ends, folds in each turn j, ascending, as a
    scalar over the windows that hold it inside, out[j - w + 2 : j], then
    the right ends. Each value enters as the second operand, so a tie
    gives the rightmost sample, as the doubling does.
    """
    out = run[:out_len].copy()
    # entry k of the mask is turn k + 1
    for k in np.flatnonzero(turns).tolist():
        inside = out[max(0, k - w + 3) : min(k + 1, out_len)]
        combine(inside, run.item(k + 1), out=inside)
    return combine(out, run[w - 1 : w - 1 + out_len], out=out)


def _doubling(run: np.ndarray, w: int, out_len: int, combine) -> np.ndarray:
    """The sliding min or max of the run by doubling: after each pass,
    run[i] is the min/max of the `span` samples from run[i], and two runs
    of span <= w samples cover a window of w. Each value is one of the
    samples, the right one of a tie, so the result is exact."""
    span = 1
    while 2 * span <= w:
        run = combine(run[:-span], run[span:])
        span *= 2
    if span == w:
        return run[:out_len]
    return combine(run[:out_len], run[w - span : w - span + out_len])


_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _margin(f: Predicate, e: np.ndarray) -> np.ndarray:
    """The predicate's margin, written over `e`, which `AtomExpr.values`
    made for this call alone."""
    if f.cmp in ("<", "<="):
        return np.subtract(f.bound, e, out=e)
    return np.subtract(e, f.bound, out=e)


def _extreme(expr: AtomExpr, trace: Trace, start: int, stop: int, largest: bool) -> float:
    """The largest (or smallest) of the expression's values at samples
    start .. stop - 1; a bare channel is read through a view, and its
    extreme plus 0.0 has the values' bits."""
    name = expr.bare
    if name is None:
        e = expr.values(trace, start, stop)
        return float(e.max() if largest else e.min())
    e = trace.channel(name)[start:stop]
    return float(e.max() if largest else e.min()) + 0.0


def _holds(f: Predicate, e: np.ndarray) -> np.ndarray:
    return _COMPARE[f.cmp](e, f.bound).astype(np.uint8)


def _complement(x: np.ndarray) -> np.ndarray:
    return 1 - x


class _Leaf:
    """A predicate read at samples 0 .. need - 1."""

    __slots__ = ("need",)
    reach = 0

    def __init__(self, need: int):
        self.need = need

    def value(self, f: Predicate, trace: Trace, leaf, neg) -> np.ndarray:
        return leaf(f, f.expr.values(trace, 0, self.need))

    def check(self, f: Predicate, trace: Trace, n: int) -> None:
        for name in f.expr.channels():
            trace.channel(name)


class _Negation:
    __slots__ = ("child", "reach")

    def __init__(self, child):
        self.child = child
        self.reach = child.reach

    def value(self, f: Not, trace: Trace, leaf, neg) -> np.ndarray:
        return neg(self.child.value(f.child, trace, leaf, neg))

    def check(self, f: Not, trace: Trace, n: int) -> None:
        self.child.check(f.child, trace, n)


class _Join:
    """And, Or and Implies: minimum, maximum, and maximum(neg(left), right).

    On 0/1 arrays minimum and maximum are boolean and/or, so the same plan
    gives robustness (margin, -x) and satisfaction (comparison, 1 - x).
    """

    __slots__ = ("left", "right", "reach", "combine", "negate_left")

    def __init__(self, f: And | Or | Implies, left, right):
        self.left = left
        self.right = right
        self.reach = max(left.reach, right.reach)
        self.combine = np.minimum if isinstance(f, And) else np.maximum
        self.negate_left = isinstance(f, Implies)

    def value(self, f, trace: Trace, leaf, neg) -> np.ndarray:
        left = self.left.value(f.left, trace, leaf, neg)
        right = self.right.value(f.right, trace, leaf, neg)
        if self.negate_left:
            left = neg(left)
        return self.combine(left, right)

    def check(self, f, trace: Trace, n: int) -> None:
        self.left.check(f.left, trace, n)
        self.right.check(f.right, trace, n)


class _Window:
    """Globally or Eventually read at samples 0 .. need - 1.

    `reach` is the largest sum of window ends, in samples, from this node
    down to a predicate: the node gives no sample on a trace of `reach`
    samples or fewer.
    """

    __slots__ = ("k_lo", "k_hi", "need", "child", "reach")

    def __init__(self, k_lo: int, k_hi: int, need: int, child):
        self.k_lo = k_lo
        self.k_hi = k_hi
        self.need = need
        self.child = child
        self.reach = k_hi + child.reach

    def value(self, f: Globally | Eventually, trace: Trace, leaf, neg) -> np.ndarray:
        take_min = isinstance(f, Globally)
        if self.need == 1 and leaf is _margin and isinstance(self.child, _Leaf):
            # the margin falls as an upper-bounded expression rises, and
            # rises with a lower-bounded one: its min or max over the
            # window is the margin of one extreme of the expression
            pred = f.child
            upper = pred.cmp in ("<", "<=")
            e = _extreme(pred.expr, trace, self.k_lo, self.k_hi + 1, take_min == upper)
            # the margin `_margin` takes, on the Python float
            return np.array([pred.bound - e if upper else e - pred.bound])
        child = self.child.value(f.child, trace, leaf, neg)
        if self.need == 1:
            chunk = child[self.k_lo : self.k_hi + 1]
            return chunk.min(keepdims=True) if take_min else chunk.max(keepdims=True)
        return _sliding(child, self.k_lo, self.k_hi, self.need, take_min)

    def check(self, f: Globally | Eventually, trace: Trace, n: int) -> None:
        self.child.check(f.child, trace, n)
        if self.reach >= n:
            raise HorizonError(
                f"trace end {trace.grid.end:g}s is too short for {f}"
                f" (needs {formula_horizon(f):g}s)"
            )


def _build(f: Formula, step: float, need: int):
    """The plan node for f when its parent reads `need` samples of it."""
    if isinstance(f, Predicate):
        return _Leaf(need)
    if isinstance(f, Not):
        return _Negation(_build(f.child, step, need))
    if isinstance(f, (And, Or, Implies)):
        return _Join(f, _build(f.left, step, need), _build(f.right, step, need))
    if isinstance(f, (Globally, Eventually)):
        k_lo, k_hi = _window_offsets(f.a, f.b, step)
        return _Window(k_lo, k_hi, need, _build(f.child, step, need + k_hi))
    raise TypeError(f"not a formula node: {f!r}")


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(f: Formula, step: float):
    """The plan of f on traces at `step`: the root node, read at 1 sample.

    The plan holds no part of f, only offsets and sample counts, and is
    walked alongside f. A formula equal to f but for the sign of a zero
    bound or constant shares its plan and is still read with its own
    numbers.
    """
    return _build(f, step, 1)


def _value(f: Formula, trace: Trace, leaf, neg):
    """f at t=0, by its plan; on a trace too short for the plan, raises
    what a walk of the whole trace raises first: MissingChannelError from
    a predicate reached earlier, else HorizonError naming the deepest
    temporal operator that gives no sample."""
    step = trace.grid.step
    # the formula keeps the (step, plan) it was last read with, outside its
    # fields: a run scores one formula object on every trace, and this
    # finds the plan without hashing the whole frozen tree, as `_plan` does
    held = getattr(f, "_plan_at", None)
    if held is not None and held[0] == step:
        plan = held[1]
    else:
        plan = _plan(f, step)
        object.__setattr__(f, "_plan_at", (step, plan))
    n = trace.grid.n_samples
    if n <= plan.reach:
        plan.check(f, trace, n)
    return plan.value(f, trace, leaf, neg)[0]


# a margin past the float maximum is infinite, with no numpy warning
@np.errstate(over="ignore")
def robustness(f: Formula, trace: Trace) -> float:
    """Space robustness of f on the trace, evaluated at time 0.

    Positive means satisfied, negative violated; magnitude is the margin in
    the units of the predicate expressions. Only the leading
    `formula_samples` samples of the trace are read; on a shorter trace
    this raises HorizonError.
    """
    return float(_value(f, trace, _margin, np.negative))


@np.errstate(over="ignore")
def satisfied(f: Formula, trace: Trace) -> bool:
    """Classical boolean semantics at time 0 (strict comparators exact)."""
    return bool(_value(f, trace, _holds, _complement))
