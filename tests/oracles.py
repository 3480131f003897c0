"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in plain scalar Python (no shared
code with the package paths it checks): a coefficient-form monotone-cubic
evaluator, a naive recursive robustness evaluator, a straightforward RK4
integrator, a scalar reduced-transmission model, and a brute-force rank-sum
enumerator.
"""

from __future__ import annotations

import itertools
import math

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
