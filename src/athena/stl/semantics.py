"""Quantitative robustness and boolean satisfaction on sampled traces.

Discrete-grid semantics evaluated at time 0. Temporal operators select the
grid samples u with t+a <= u <= t+b (ends inclusive, TIME_TOL slack); min
and max over those samples give Globally and Eventually.

A formula is evaluated through its plan, one per formula object: built
by one walk of the tree for the step of the traces it reads, and kept on
the object. A plan node of a predicate or a temporal operator holds its
formula node, and a temporal node its sample offsets (k_lo, k_hi) and
the number of leading output samples its parent reads, `need`: the root
reads 1, and the child of a temporal node reads need + k_hi. A predicate
evaluates its expression on that prefix only. A temporal node read at
one sample is a single min or max over child[k_lo : k_hi + 1]; any other
runs a sliding min or max that yields exactly `need` samples. No sample
is computed that the value at t=0 does not read, and every value is one
of the trace's margins, so the result equals a walk over the whole
trace.

The sliding min or max takes one of two paths, chosen by a cost test on
the input array alone (`_sliding`). A trace made from control points is
piecewise monotone, and a window's min (max) sits at one of its ends or
at a turn inside it: the last sample of a valley (crest), one that is
smaller (larger) than the next and not larger (smaller) than the one
before. With few turns, `_fold` combines the windows' two ends, then
folds in each turn, in ascending order, over the windows that hold it
inside: about three passes plus one scalar min or max per turn, as in
the streaming filter of Lemire (2006) and the monitor of Donzé, Ferrère
and Maler (CAV 2013). A rough array takes `_doubling`, about log2 of
the window's length passes of elementwise minimum or maximum, and so
does one holding a NaN, which is never a turn. A trace's samples are
finite, so only a predicate with a number that is not finite, or over
two or more terms one of which has a coefficient above 1 in size, whose
products can overflow to opposite infinities and sum to inf - inf, can
give a NaN; the plan records, per node, whether one can reach it, and
only there does the fold scan its run for one. On a tie np.minimum and
np.maximum return their second operand, and both paths pass each later
sample as the second where the sign of a tied zero can tell, so both
return the rightmost tied sample: every bit is the same, signed zeros
included.

A predicate reads its expression up to the sign of a zero
(`AtomExpr.raw`): a bare channel is a read-only view of its samples, and
a sum with a zero constant skips the pass that adds it, which turns
-0.0 into +0.0 and changes no other value. A margin takes those values
unless the sign reaches it, for an upper bound of -0.0 (bound - e) or a
lower bound of +0.0 (e - bound), and is written over them when they are
fresh, else into a new array: no pass copies a channel only to subtract
from it. A comparison does not see the sign, so satisfaction always
takes them.

Read at one sample, directly over a predicate, a temporal node's
robustness is the margin of one value: the predicate's margin, bound - e
or e - bound, is monotone in its expression e, so its min or max over
the window is the margin of e's max or min there, rounded the same way.
The node takes that extreme over the window's samples alone, read up to
the sign of a zero, plus 0.0 on the scalar, and applies the margin
once, to the Python float, which rounds as numpy's float64 arithmetic
does. The expression's values hold no -0.0 (`AtomExpr.values`), so
every tied extreme has the same bits and the result is bitwise the
array path's. Satisfaction keeps the array path.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import HorizonError, quiet_overflow
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
# and its count one pass and three calls. The fold's figure is that of
# a run with a turn at a zero, which folds its ends apart; without one,
# as on most runs, the fold takes a pass less, and the test prices it
# high.
_CALL = 2500


def _sliding(
    arr: np.ndarray, k_lo: int, k_hi: int, out_len: int, take_min: bool, nan: bool = True
) -> np.ndarray:
    """out[i] = min/max(arr[i+k_lo : i+k_hi+1]) for i in range(out_len).

    `arr` holds at least out_len + k_hi samples; the windows slide over
    run = arr[k_lo : k_hi + out_len], w samples each. Say a sample beats
    another when it is smaller (min) or larger (max): j is a turn when
    run[j] beats run[j + 1] and run[j - 1] does not beat run[j]. A
    window's rightmost extreme is one of its two ends or a turn inside
    it, so a run with few turns takes `_fold`, three or four passes plus
    one scalar min or max over at most w - 2 outputs per turn. A rough
    run takes `_doubling`, about log2(w) passes.

    The cost test counts the turns before locating them, in samples of a
    doubling pass, with one numpy call priced as `_CALL` samples: the
    doubling costs w.bit_length() * (len(run) + _CALL), the fold four
    passes and eight calls fixed plus 2 * (w + _CALL) per turn. Where a
    run with no turn would save less than twice what the mask costs, as
    for short windows and short runs, no mask is built: there a few
    turns too many would make the fold lose, and the mask be wasted.
    The test reads the run alone. A run holding a NaN takes the
    doubling, which spreads the NaN as np.minimum does: a NaN is never a
    turn. The run is scanned for one only when `nan` says it may hold
    one, as the plan knows (`_can_give_nan`).

    On a tie np.minimum and np.maximum return the second operand
    (np.minimum(0.0, -0.0) is -0.0), and both paths return the rightmost
    tied sample (`_fold`): every bit is the same, signed zeros included.
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
        if np.count_nonzero(turns) * 2 * (w + _CALL) < budget and not (
            nan and math.isnan(run.min())
        ):
            return _fold(run, w, out_len, combine, turns)
    return _doubling(run, w, out_len, combine)


def _turns(run: np.ndarray, take_min: bool) -> np.ndarray:
    """Mask of the run's turns (`_sliding`): entry j - 1 is set when
    run[j] is one, the last sample of a valley (min) or a crest (max),
    plateaus included. `_sliding` counts it, and only the fold indexes
    it: on a rough run, where the doubling is taken, an index array costs
    about 17 us more than the count (uniform noise, 12001 samples, on a
    2-vCPU Xeon with numpy 2.4.6)."""
    better = (np.less if take_min else np.greater)(run[:-1], run[1:])
    return better[1:] > better[:-1]


def _fold(run: np.ndarray, w: int, out_len: int, combine, turns: np.ndarray) -> np.ndarray:
    """The sliding min or max of the run from its window ends and turns.

    Combines the left ends with the right ends, then folds in each turn
    j, ascending, as a scalar over the windows that hold it inside,
    out[j - w + 2 : j]. Each value enters as the second operand, and on
    a tie np.minimum and np.maximum return the second. A right end then
    loses a tie to a turn left of it, but tied samples have the same
    bits unless they are zeros of opposite sign, so only where a turn is
    a zero are the right ends folded in last, after the turns, over a
    copy of the left ends: so a tie gives the rightmost sample, as the
    doubling does.
    """
    # entry k of the mask is turn k + 1
    turned = [(k, run.item(k + 1)) for k in turns.nonzero()[0].tolist()]
    right = run[w - 1 : w - 1 + out_len]
    ordered = any(v == 0.0 for _, v in turned)
    out = run[:out_len].copy() if ordered else combine(run[:out_len], right)
    for k, v in turned:
        inside = out[max(0, k - w + 3) : min(k + 1, out_len)]
        combine(inside, v, out=inside)
    return combine(out, right, out=out) if ordered else out


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


def _margin(f: Predicate, trace: Trace, stop: int) -> np.ndarray:
    """The predicate's margin at samples 0 .. stop - 1, bound - e for an
    upper bound and e - bound for a lower one.

    e is read up to the sign of a zero (`AtomExpr.raw`) unless that sign
    reaches the margin: -0.0 - (-0.0) is +0.0 but -0.0 - 0.0 is -0.0, so
    it does only for an upper bound of -0.0 or a lower bound of +0.0. The
    margin is written over e when e is fresh, else (a bare channel's
    view) into a new array."""
    upper = f.cmp in ("<", "<=")
    bound = f.bound
    if bound == 0.0 and (math.copysign(1.0, bound) < 0.0) == upper:
        e, fresh = f.expr.values(trace, 0, stop), True
    else:
        e, fresh = f.expr.raw(trace, 0, stop)
    out = e if fresh else None
    if upper:
        return np.subtract(bound, e, out=out)
    return np.subtract(e, bound, out=out)


def _extreme(expr: AtomExpr, trace: Trace, start: int, stop: int, largest: bool) -> float:
    """The largest (or smallest) of the expression's values at samples
    start .. stop - 1, from the values up to the sign of a zero
    (`AtomExpr.raw`, a view for a bare channel): the extreme of those
    differs from the values' only in the sign of a zero, and plus 0.0 it
    has their bits, since the values hold no -0.0."""
    e, _ = expr.raw(trace, start, stop)
    return float(e.max() if largest else e.min()) + 0.0


def _holds(f: Predicate, trace: Trace, stop: int) -> np.ndarray:
    # a comparison does not see the sign of a zero
    e, _ = f.expr.raw(trace, 0, stop)
    return _COMPARE[f.cmp](e, f.bound).astype(np.uint8)


def _can_give_nan(f: Predicate) -> bool:
    """Whether the predicate's margin can hold a NaN on a trace, whose
    samples are finite: only where a number of the predicate is not
    finite, or where two terms sum opposite infinities inside
    `AtomExpr.values`. A term is finite when its coefficient is at most 1
    in size, and a sum of finite terms overflows to an infinity at most,
    so that takes two terms and one coefficient larger than 1 in size."""
    coeffs = [coeff for _, coeff in f.expr.terms]
    if not all(map(math.isfinite, (f.bound, f.expr.const, *coeffs))):
        return True
    return len(coeffs) > 1 and max(map(abs, coeffs)) > 1.0


def _complement(x: np.ndarray) -> np.ndarray:
    return 1 - x


class _Leaf:
    """A predicate `f` read at samples 0 .. need - 1; `nan` is whether its
    margin can hold a NaN (`_can_give_nan`), and so for every node."""

    __slots__ = ("f", "need", "nan")
    reach = 0

    def __init__(self, f: Predicate, need: int):
        self.f = f
        self.need = need
        self.nan = _can_give_nan(f)

    def value(self, trace: Trace, leaf, neg) -> np.ndarray:
        return leaf(self.f, trace, self.need)

    def check(self, trace: Trace, n: int) -> None:
        for name in self.f.expr.channels():
            trace.channel(name)


class _Negation:
    __slots__ = ("child", "reach", "nan")

    def __init__(self, child):
        self.child = child
        self.reach = child.reach
        self.nan = child.nan

    def value(self, trace: Trace, leaf, neg) -> np.ndarray:
        return neg(self.child.value(trace, leaf, neg))

    def check(self, trace: Trace, n: int) -> None:
        self.child.check(trace, n)


class _Join:
    """And, Or and Implies: minimum, maximum, and maximum(neg(left), right).

    On 0/1 arrays minimum and maximum are boolean and/or, so the same plan
    gives robustness (margin, -x) and satisfaction (comparison, 1 - x).
    """

    __slots__ = ("left", "right", "reach", "nan", "combine", "negate_left")

    def __init__(self, f: And | Or | Implies, left, right):
        self.left = left
        self.right = right
        self.reach = max(left.reach, right.reach)
        self.nan = left.nan or right.nan
        self.combine = np.minimum if isinstance(f, And) else np.maximum
        self.negate_left = isinstance(f, Implies)

    def value(self, trace: Trace, leaf, neg) -> np.ndarray:
        left = self.left.value(trace, leaf, neg)
        right = self.right.value(trace, leaf, neg)
        if self.negate_left:
            left = neg(left)
        return self.combine(left, right)

    def check(self, trace: Trace, n: int) -> None:
        self.left.check(trace, n)
        self.right.check(trace, n)


class _Window:
    """Globally or Eventually `f` read at samples 0 .. need - 1.

    `reach` is the largest sum of window ends, in samples, from this node
    down to a predicate: the node gives no sample on a trace of `reach`
    samples or fewer. `over` is the predicate that a node read at one
    sample applies directly to, else None.
    """

    __slots__ = ("f", "k_lo", "k_hi", "need", "child", "reach", "nan", "take_min", "over")

    def __init__(self, f: Globally | Eventually, k_lo: int, k_hi: int, need: int, child):
        self.f = f
        self.k_lo = k_lo
        self.k_hi = k_hi
        self.need = need
        self.child = child
        self.reach = k_hi + child.reach
        self.nan = child.nan
        self.take_min = isinstance(f, Globally)
        self.over = child.f if need == 1 and isinstance(child, _Leaf) else None

    def value(self, trace: Trace, leaf, neg) -> np.ndarray:
        pred = self.over
        if pred is not None and leaf is _margin:
            # the margin falls as an upper-bounded expression rises, and
            # rises with a lower-bounded one: its min or max over the
            # window is the margin of one extreme of the expression
            upper = pred.cmp in ("<", "<=")
            e = _extreme(pred.expr, trace, self.k_lo, self.k_hi + 1, self.take_min == upper)
            # the margin `_margin` takes, on the Python float
            return np.array([pred.bound - e if upper else e - pred.bound])
        child = self.child.value(trace, leaf, neg)
        if self.need == 1:
            chunk = child[self.k_lo : self.k_hi + 1]
            return chunk.min(keepdims=True) if self.take_min else chunk.max(keepdims=True)
        return _sliding(child, self.k_lo, self.k_hi, self.need, self.take_min, self.nan)

    def check(self, trace: Trace, n: int) -> None:
        self.child.check(trace, n)
        if self.reach >= n:
            raise HorizonError(
                f"trace end {trace.grid.end:g}s is too short for {self.f}"
                f" (needs {formula_horizon(self.f):g}s)"
            )


def _build(f: Formula, step: float, need: int):
    """The plan node for f when its parent reads `need` samples of it."""
    if isinstance(f, Predicate):
        return _Leaf(f, need)
    if isinstance(f, Not):
        return _Negation(_build(f.child, step, need))
    if isinstance(f, (And, Or, Implies)):
        return _Join(f, _build(f.left, step, need), _build(f.right, step, need))
    if isinstance(f, (Globally, Eventually)):
        k_lo, k_hi = _window_offsets(f.a, f.b, step)
        return _Window(f, k_lo, k_hi, need, _build(f.child, step, need + k_hi))
    raise TypeError(f"not a formula node: {f!r}")


def _plan(f: Formula, step: float):
    """The plan of f on traces at `step`: the root node, read at 1 sample.

    f keeps the (step, plan) it was last read with, outside its fields: a
    run scores one formula object on every trace, and finds its plan
    without hashing the frozen tree. A formula equal to f is another
    object, with a plan of its own, built from its own numbers.
    """
    held = getattr(f, "_plan_at", None)
    if held is not None and held[0] == step:
        return held[1]
    plan = _build(f, step, 1)
    object.__setattr__(f, "_plan_at", (step, plan))
    return plan


def _value(f: Formula, trace: Trace, leaf, neg):
    """f at t=0, by its plan; on a trace too short for the plan, raises
    what a walk of the whole trace raises first: MissingChannelError from
    a predicate reached earlier, else HorizonError naming the deepest
    temporal operator that gives no sample."""
    plan = _plan(f, trace.grid.step)
    n = trace.grid.n_samples
    if n <= plan.reach:
        plan.check(trace, n)
    return plan.value(trace, leaf, neg)[0]


# a margin past the float maximum is infinite, and one of inf - inf NaN,
# with no numpy warning
@quiet_overflow
def robustness(f: Formula, trace: Trace) -> float:
    """Space robustness of f on the trace, evaluated at time 0.

    Positive means satisfied, negative violated; magnitude is the margin in
    the units of the predicate expressions. Only the leading
    `formula_samples` samples of the trace are read; on a shorter trace
    this raises HorizonError.
    """
    return float(_value(f, trace, _margin, np.negative))


@quiet_overflow
def satisfied(f: Formula, trace: Trace) -> bool:
    """Classical boolean semantics at time 0 (strict comparators exact)."""
    return bool(_value(f, trace, _holds, _complement))
