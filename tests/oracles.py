"""Independent reference implementations used only by the test suite.

Everything here shares no code with the package paths it checks. Most of
it is deliberately written in plain scalar Python: a coefficient-form
monotone-cubic evaluator, a naive recursive robustness evaluator, a
straightforward RK4 integrator, a step-by-step affine recurrence, a scalar
reduced-transmission model, and a brute-force rank-sum enumerator. The
numpy references are code the package replaced, kept so the replacement
can be required to match it bit for bit: `interpolate_reference`, the
per-call interpolation that the cached plans of `signals.interpolate`
replaced, `pchip_basis_reference`, the per-sample pchip basis that the
segment-run plan replaced, `walk_reference`, the whole-trace robustness walk (with
`values_reference`, the zero-seeded channel-expression sum) that the
cached STL plans replaced, `atom_values_reference`, the sliced
channel-expression sum that the one-buffer `AtomExpr.values` replaced,
`propose_reference`, the elementwise numpy proposal step that the
Python-float `search.propose` replaced, and `sliding_doubling_reference`,
the doubling sliding min or max that `stl.semantics._sliding` now takes
only for rough arrays.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from scipy.ndimage import maximum_filter1d, minimum_filter1d

from athena.errors import HorizonError
from athena.signals import TIME_TOL, InterpolationKind
from athena.stl import formula_horizon

from athena.stl.nodes import (
    And,
    Eventually,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
)

TOL = 1e-9


# --- monotone cubic interpolation ---------------------------------------

def _sign(x):
    return (x > 0) - (x < 0)


def _edge(h0, h1, d0, d1):
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if _sign(m) != _sign(d0):
        return 0.0
    if _sign(d0) != _sign(d1) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def fc_slopes(t, v):
    """Fritsch-Carlson slopes, scalar arithmetic."""
    n = len(t)
    h = [t[i + 1] - t[i] for i in range(n - 1)]
    d = [(v[i + 1] - v[i]) / h[i] for i in range(n - 1)]
    if n == 2:
        return [d[0], d[0]]
    m = [0.0] * n
    for k in range(1, n - 1):
        if d[k - 1] == 0.0 or d[k] == 0.0 or (d[k - 1] > 0) != (d[k] > 0):
            m[k] = 0.0
        else:
            w1 = 2.0 * h[k] + h[k - 1]
            w2 = h[k] + 2.0 * h[k - 1]
            m[k] = (w1 + w2) / (w1 / d[k - 1] + w2 / d[k])
    m[0] = _edge(h[0], h[1], d[0], d[1])
    m[-1] = _edge(h[-1], h[-2], d[-1], d[-2])
    return m


def pchip_oracle(times, values, xs):
    """Evaluate the monotone cubic at each x, in c0+c1*u+c2*u^2+c3*u^3 form.

    Uses the same slope rule as the production code but a different
    polynomial representation and scalar evaluation, so the two paths share
    no floating-point pipeline.
    """
    t = [float(x) for x in times]
    v = [float(x) for x in values]
    m = fc_slopes(t, v)
    out = []
    for x in xs:
        k = len(t) - 2
        for j in range(len(t) - 1):
            if x < t[j + 1]:
                k = j
                break
        h = t[k + 1] - t[k]
        d = (v[k + 1] - v[k]) / h
        c2 = (3.0 * d - 2.0 * m[k] - m[k + 1]) / h
        c3 = (m[k] + m[k + 1] - 2.0 * d) / (h * h)
        u = x - t[k]
        out.append(v[k] + u * (m[k] + u * (c2 + u * c3)))
    return out


def _ref_pchip_slopes(t, v):
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
    m[0] = _ref_edge_slope(h[0], h[1], d[0], d[1])
    m[-1] = _ref_edge_slope(h[-1], h[-2], d[-1], d[-2])
    return m


def _ref_edge_slope(h0, h1, d0, d1):
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(m) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def _ref_eval_pchip(t, v, x):
    m = _ref_pchip_slopes(t, v)
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


def interpolate_reference(cp, kind, grid):
    """Samples of the interpolant of `cp` on `grid`, recomputing everything
    per call: numpy-scalar Fritsch-Carlson slopes, a `searchsorted` segment
    index, np.interp for linear, then the exact-hit patch. Arity and span
    checks are left to the caller."""
    n = len(cp)
    x = grid.times()
    if kind is InterpolationKind.CONSTANT:
        out = np.full(grid.n_samples, cp.values[0])
    elif kind is InterpolationKind.PIECEWISE_CONSTANT:
        idx = np.searchsorted(cp.times, x + TIME_TOL, side="right") - 1
        out = cp.values[np.clip(idx, 0, n - 1)]
    elif kind is InterpolationKind.LINEAR:
        out = np.interp(x, cp.times, cp.values)
    else:
        out = _ref_eval_pchip(cp.times, cp.values, x)
    idx = np.rint(cp.times / grid.step).astype(int)
    near = (idx >= 0) & (idx < grid.n_samples)
    near &= np.abs(cp.times - idx * grid.step) <= TIME_TOL
    out[idx[near]] = cp.values[near]
    return out


def pchip_basis_reference(grid, times):
    """The (samples, 2n) basis of a pchip plan as the plan computed it when
    it gathered four coefficients per sample: column j is the samples of
    the j-th of the control values and then the slopes set to 1, the
    others 0, summed left to right, then the exact-hit patch."""
    t = np.array(times, dtype=float)
    n = len(t)
    x = grid.times()
    seg = np.clip(np.searchsorted(t, x, side="right") - 1, 0, n - 2)
    seg1 = seg + 1
    h = t[seg1] - t[seg]
    s = (x - t[seg]) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10h = (s3 - 2.0 * s2 + s) * h
    h01 = -2.0 * s3 + 3.0 * s2
    h11h = (s3 - s2) * h
    idx = np.rint(t / grid.step).astype(int)
    near = (idx >= 0) & (idx < grid.n_samples)
    near &= np.abs(t - idx * grid.step) <= TIME_TOL
    eye, zero = np.eye(n), np.zeros(n)
    columns = []
    for v, m in [(e, zero) for e in eye] + [(zero, e) for e in eye]:
        out = h00 * v[seg] + h10h * m[seg] + h01 * v[seg1] + h11h * m[seg1]
        out[idx[near]] = v[near]
        columns.append(out)
    return np.column_stack(columns)


# --- naive recursive robustness ------------------------------------------

def _window_indices(times, i, a, b, end):
    t0 = times[i]
    if t0 + b > end + TOL:
        raise ValueError(f"window [{t0 + a}, {t0 + b}] beyond trace end {end}")
    return [
        j
        for j in range(len(times))
        if times[j] >= t0 + a - TOL and times[j] <= t0 + b + TOL
    ]


def _atom(expr, trace, i):
    acc = 0.0
    for name, coeff in expr.terms:
        acc = acc + coeff * trace.channels[name][i]
    acc = acc + expr.const
    if expr.absolute:
        acc = abs(acc)
    return acc


def naive_robustness(f, trace, i=0, _memo=None, _times=None):
    """Recursive discrete-grid robustness at sample index i."""
    if _memo is None:
        _memo = {}
        _times = [float(t) for t in trace.grid.times()]
    key = (id(f), i)
    if key in _memo:
        return _memo[key]
    if isinstance(f, Predicate):
        e = _atom(f.expr, trace, i)
        val = f.bound - e if f.cmp in ("<", "<=") else e - f.bound
    elif isinstance(f, Not):
        val = -naive_robustness(f.child, trace, i, _memo, _times)
    elif isinstance(f, And):
        val = min(
            naive_robustness(f.left, trace, i, _memo, _times),
            naive_robustness(f.right, trace, i, _memo, _times),
        )
    elif isinstance(f, Or):
        val = max(
            naive_robustness(f.left, trace, i, _memo, _times),
            naive_robustness(f.right, trace, i, _memo, _times),
        )
    elif isinstance(f, Implies):
        val = max(
            -naive_robustness(f.left, trace, i, _memo, _times),
            naive_robustness(f.right, trace, i, _memo, _times),
        )
    elif isinstance(f, (Globally, Eventually)):
        js = _window_indices(_times, i, f.a, f.b, trace.grid.end)
        if not js:
            raise ValueError("empty temporal window")
        vals = [naive_robustness(f.child, trace, j, _memo, _times) for j in js]
        val = min(vals) if isinstance(f, Globally) else max(vals)
    else:
        raise TypeError(f"unknown node {f!r}")
    _memo[key] = val
    return val


def naive_satisfied(f, trace, i=0, _memo=None, _times=None):
    """Recursive boolean semantics at sample index i."""
    if _memo is None:
        _memo = {}
        _times = [float(t) for t in trace.grid.times()]
    key = (id(f), i)
    if key in _memo:
        return _memo[key]
    if isinstance(f, Predicate):
        e = _atom(f.expr, trace, i)
        val = {
            "<": e < f.bound,
            "<=": e <= f.bound,
            ">": e > f.bound,
            ">=": e >= f.bound,
        }[f.cmp]
    elif isinstance(f, Not):
        val = not naive_satisfied(f.child, trace, i, _memo, _times)
    elif isinstance(f, And):
        val = naive_satisfied(f.left, trace, i, _memo, _times) and naive_satisfied(
            f.right, trace, i, _memo, _times
        )
    elif isinstance(f, Or):
        val = naive_satisfied(f.left, trace, i, _memo, _times) or naive_satisfied(
            f.right, trace, i, _memo, _times
        )
    elif isinstance(f, Implies):
        val = (not naive_satisfied(f.left, trace, i, _memo, _times)) or naive_satisfied(
            f.right, trace, i, _memo, _times
        )
    elif isinstance(f, (Globally, Eventually)):
        js = _window_indices(_times, i, f.a, f.b, trace.grid.end)
        vals = (naive_satisfied(f.child, trace, j, _memo, _times) for j in js)
        val = all(vals) if isinstance(f, Globally) else any(vals)
    else:
        raise TypeError(f"unknown node {f!r}")
    _memo[key] = val
    return val


# --- search proposal ------------------------------------------------------

def propose_reference(current, assumption, temperature, rng, sigma=0.1):
    """`search.propose` as numpy arrays: a Gaussian step of stddev sigma *
    width * max(temperature, 0.05), clamped by np.maximum, np.minimum."""
    v = np.asarray(current, dtype=float)
    std = sigma * assumption.width * max(temperature, 0.05)
    x = v + std * rng.standard_normal(v.shape)
    return np.minimum(np.maximum(x, assumption.lower), assumption.upper)


# --- whole-trace robustness walk -----------------------------------------

def values_reference(expr, trace):
    """The expression at every sample of the trace, summed from a zero seed."""
    acc = np.zeros(trace.grid.n_samples)
    for name, coeff in expr.terms:
        acc = acc + coeff * trace.channel(name)
    acc = acc + expr.const
    if expr.absolute:
        acc = np.abs(acc)
    return acc


def atom_values_reference(expr, trace, start=0, stop=None):
    """`AtomExpr.values` as it was before it accumulated into one buffer:
    the sum from the first term, a coefficient of 1 not multiplied, and
    the zero seed kept for no terms or a -0.0 const."""
    acc = None
    negative_zero = expr.const == 0.0 and math.copysign(1.0, expr.const) < 0.0
    if not expr.terms or negative_zero:
        acc = np.zeros(trace.grid.n_samples)[start:stop]
    for name, coeff in expr.terms:
        column = trace.channel(name)[start:stop]
        term = column if coeff == 1.0 else coeff * column
        acc = term if acc is None else acc + term
    acc = acc + expr.const
    if expr.absolute:
        acc = np.abs(acc)
    return acc


def _ref_window_offsets(a, b, step):
    """Sample-index offsets selected by [t+a, t+b] on a uniform grid."""
    k_lo = max(0, math.ceil((a - TIME_TOL) / step))
    k_hi = math.floor((b + TIME_TOL) / step)
    if k_lo > k_hi:
        raise ValueError(
            f"interval [{a:g},{b:g}] selects no grid samples at step {step:g}"
        )
    return k_lo, k_hi


def _ref_sliding(arr, k_lo, k_hi, out_len, take_min):
    """out[i] = min/max(arr[i+k_lo : i+k_hi+1]) for i in range(out_len)."""
    w = k_hi - k_lo + 1
    if w == 1:
        return arr[k_lo : k_lo + out_len]
    filt = minimum_filter1d if take_min else maximum_filter1d
    full = filt(arr, size=w, mode="nearest")
    start = k_lo + w // 2
    return full[start : start + out_len]


def sliding_doubling_reference(arr, k_lo, k_hi, out_len, take_min):
    """out[i] = min/max(arr[i+k_lo : i+k_hi+1]) for i in range(out_len).

    `arr` holds at least out_len + k_hi samples. By doubling: after each
    pass, run[i] is the min/max of the `span` samples from arr[k_lo + i],
    and two runs of span <= w samples cover a window of w. Each value is
    one of the samples, so the result is exact.
    """
    combine = np.minimum if take_min else np.maximum
    w = k_hi - k_lo + 1
    run = arr[k_lo : k_hi + out_len]
    span = 1
    while 2 * span <= w:
        run = combine(run[:-span], run[span:])
        span *= 2
    if span == w:
        return run[:out_len]
    return combine(run[:out_len], run[w - span : w - span + out_len])


_REF_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def ref_margin(f, e):
    if f.cmp in ("<", "<="):
        return f.bound - e
    return e - f.bound


def ref_holds(f, e):
    return _REF_COMPARE[f.cmp](e, f.bound).astype(np.uint8)


def ref_complement(x):
    return 1 - x


def walk_reference(f, trace, leaf, neg):
    """Value of f at every sample index where it is defined.

    `leaf(predicate, values)` scores a predicate and `neg` negates; And and
    Or are minimum and maximum, and Implies is maximum(neg(left), right).
    On 0/1 arrays minimum and maximum are boolean and/or, so the same walk
    gives robustness (margin, -x) and satisfaction (comparison, 1 - x).
    """
    if isinstance(f, Predicate):
        return leaf(f, values_reference(f.expr, trace))
    if isinstance(f, Not):
        return neg(walk_reference(f.child, trace, leaf, neg))
    if isinstance(f, (And, Or, Implies)):
        left = walk_reference(f.left, trace, leaf, neg)
        right = walk_reference(f.right, trace, leaf, neg)
        n = min(len(left), len(right))
        if isinstance(f, And):
            return np.minimum(left[:n], right[:n])
        if isinstance(f, Or):
            return np.maximum(left[:n], right[:n])
        return np.maximum(neg(left[:n]), right[:n])
    if isinstance(f, (Globally, Eventually)):
        child = walk_reference(f.child, trace, leaf, neg)
        k_lo, k_hi = _ref_window_offsets(f.a, f.b, trace.grid.step)
        out_len = len(child) - k_hi
        if out_len < 1:
            raise HorizonError(
                f"trace end {trace.grid.end:g}s is too short for {f}"
                f" (needs {formula_horizon(f):g}s)"
            )
        return _ref_sliding(child, k_lo, k_hi, out_len, take_min=isinstance(f, Globally))
    raise TypeError(f"not a formula node: {f!r}")


def robustness_reference(f, trace):
    """Robustness at t=0 by the whole-trace walk."""
    return float(walk_reference(f, trace, ref_margin, np.negative)[0])


def satisfied_reference(f, trace):
    """Satisfaction at t=0 by the whole-trace walk."""
    return bool(walk_reference(f, trace, ref_holds, ref_complement)[0])


# --- reference integrator -------------------------------------------------

def reference_rk4(deriv, y0, t_end, dt, input_fn):
    """Plain RK4 at step dt; returns the list of states at every step time.

    `deriv(state, u)` and `input_fn(t)` use plain Python lists/tuples.
    """
    n = round(t_end / dt)
    y = list(y0)
    states = [list(y)]
    for i in range(n):
        t = i * dt
        u0 = input_fn(t)
        u1 = input_fn(t + dt)
        um = [0.5 * (p + q) for p, q in zip(u0, u1)]
        k1 = deriv(y, u0)
        k2 = deriv([a + 0.5 * dt * b for a, b in zip(y, k1)], um)
        k3 = deriv([a + 0.5 * dt * b for a, b in zip(y, k2)], um)
        k4 = deriv([a + dt * b for a, b in zip(y, k3)], u1)
        y = [
            a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        states.append(list(y))
    return states


def affine_recurrence(P, forcing, x0):
    """States of x[k+1] = P x[k] + forcing[k] from x[0] = x0, one step at a
    time; returns the list of all len(forcing) + 1 states."""
    x = [float(v) for v in x0]
    states = [list(x)]
    for f in forcing:
        x = [sum(p * v for p, v in zip(row, x)) + float(fk) for row, fk in zip(P, f)]
        states.append(x)
    return states


def at_lite_reference(model, throttle, brake, dt):
    """Reduced transmission on sampled inputs; returns (speed, rpm, gear).

    Each step is an RK4 step of the speed ODE in the current gear, then a
    clamp of speed at 0, then at most one gear shift by the hysteresis
    thresholds. Constants come from the model; the arithmetic does not.
    """

    def accel(speed, gear, th, br):
        return (
            0.9 * (th / 100.0) * model.TORQUE_RATIO[gear - 1]
            - 0.35 * (br / 325.0) * 3.25
            - 0.02 * speed
        )

    speed, gear = 0.0, 1
    speeds, gears = [speed], [gear]
    for i in range(len(throttle) - 1):
        th0, th1 = throttle[i], throttle[i + 1]
        br0, br1 = brake[i], brake[i + 1]
        thm, brm = 0.5 * (th0 + th1), 0.5 * (br0 + br1)
        k1 = accel(speed, gear, th0, br0)
        k2 = accel(speed + 0.5 * dt * k1, gear, thm, brm)
        k3 = accel(speed + 0.5 * dt * k2, gear, thm, brm)
        k4 = accel(speed + dt * k3, gear, th1, br1)
        speed = speed + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        speed = max(speed, 0.0)
        if gear < 4 and speed > model.UPSHIFT[gear - 1]:
            gear += 1
        elif gear > 1 and speed < model.DOWNSHIFT[gear - 2]:
            gear -= 1
        speeds.append(speed)
        gears.append(gear)
    rpm = [
        s * model.GEAR_RATIO[g - 1] * 40.0 + 600.0 * (th / 100.0)
        for s, g, th in zip(speeds, gears, throttle)
    ]
    return speeds, rpm, [float(g) for g in gears]


# --- rank-sum enumeration ---------------------------------------------------

def _midranks(pooled):
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def rank_sum_brute(group_a, group_b):
    """(U_A, two-sided p) by enumerating every assignment of the pooled
    values to the two group sizes."""
    pooled = list(group_a) + list(group_b)
    n1, n2 = len(group_a), len(group_b)
    ranks = _midranks(pooled)

    def u_of(a_idx):
        r_a = sum(ranks[i] for i in a_idx)
        return r_a - n1 * (n1 + 1) / 2.0

    observed = u_of(range(n1))
    mean_u = n1 * n2 / 2.0
    dev = abs(observed - mean_u)
    total = 0
    extreme = 0
    for combo in itertools.combinations(range(n1 + n2), n1):
        total += 1
        if abs(u_of(combo) - mean_u) >= dev - 1e-12:
            extreme += 1
    return observed, extreme / total


def norm_sf(x):
    """Standard normal survival function via erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))
