"""Quantitative robustness and boolean satisfaction on sampled traces.

Discrete-grid semantics evaluated at time 0. Temporal operators select the
grid samples u with t+a <= u <= t+b (ends inclusive, TIME_TOL slack); min
and max over those samples give Globally and Eventually. Robustness is
computed bottom-up as one array per subformula, trimmed to the prefix of
sample indices whose full window fits inside the trace.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ..errors import HorizonError
from ..signals import TIME_TOL
from .nodes import (
    And,
    Eventually,
    Formula,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
    Trace,
)

__all__ = ["robustness", "satisfied", "formula_horizon"]


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


def _window_offsets(a: float, b: float, step: float) -> tuple[int, int]:
    """Sample-index offsets selected by [t+a, t+b] on a uniform grid."""
    k_lo = max(0, math.ceil((a - TIME_TOL) / step))
    k_hi = math.floor((b + TIME_TOL) / step)
    if k_lo > k_hi:
        raise ValueError(
            f"interval [{a:g},{b:g}] selects no grid samples at step {step:g}"
        )
    return k_lo, k_hi


def _sliding(arr: np.ndarray, k_lo: int, k_hi: int, out_len: int, take_min: bool) -> np.ndarray:
    """out[i] = min/max(arr[i+k_lo : i+k_hi+1]) for i in range(out_len)."""
    w = k_hi - k_lo + 1
    if w == 1:
        return arr[k_lo : k_lo + out_len]
    filt = minimum_filter1d if take_min else maximum_filter1d
    full = filt(arr, size=w, mode="nearest")
    start = k_lo + w // 2
    return full[start : start + out_len]


_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _margin(f: Predicate, e: np.ndarray) -> np.ndarray:
    if f.cmp in ("<", "<="):
        return f.bound - e
    return e - f.bound


def _holds(f: Predicate, e: np.ndarray) -> np.ndarray:
    return _COMPARE[f.cmp](e, f.bound).astype(np.uint8)


def _complement(x: np.ndarray) -> np.ndarray:
    return 1 - x


def _walk(f: Formula, trace: Trace, leaf, neg) -> np.ndarray:
    """Value of f at every sample index where it is defined.

    `leaf(predicate, values)` scores a predicate and `neg` negates; And and
    Or are minimum and maximum, and Implies is maximum(neg(left), right).
    On 0/1 arrays minimum and maximum are boolean and/or, so the same walk
    gives robustness (margin, -x) and satisfaction (comparison, 1 - x).
    """
    if isinstance(f, Predicate):
        return leaf(f, f.expr.values(trace))
    if isinstance(f, Not):
        return neg(_walk(f.child, trace, leaf, neg))
    if isinstance(f, (And, Or, Implies)):
        left = _walk(f.left, trace, leaf, neg)
        right = _walk(f.right, trace, leaf, neg)
        n = min(len(left), len(right))
        if isinstance(f, And):
            return np.minimum(left[:n], right[:n])
        if isinstance(f, Or):
            return np.maximum(left[:n], right[:n])
        return np.maximum(neg(left[:n]), right[:n])
    if isinstance(f, (Globally, Eventually)):
        child = _walk(f.child, trace, leaf, neg)
        k_lo, k_hi = _window_offsets(f.a, f.b, trace.grid.step)
        out_len = len(child) - k_hi
        if out_len < 1:
            raise HorizonError(
                f"trace end {trace.grid.end:g}s is too short for {f}"
                f" (needs {formula_horizon(f):g}s)"
            )
        return _sliding(child, k_lo, k_hi, out_len, take_min=isinstance(f, Globally))
    raise TypeError(f"not a formula node: {f!r}")


def robustness(f: Formula, trace: Trace) -> float:
    """Space robustness of f on the trace, evaluated at time 0.

    Positive means satisfied, negative violated; magnitude is the margin in
    the units of the predicate expressions.
    """
    return float(_walk(f, trace, _margin, np.negative)[0])


def satisfied(f: Formula, trace: Trace) -> bool:
    """Classical boolean semantics at time 0 (strict comparators exact)."""
    return bool(_walk(f, trace, _holds, _complement)[0])
