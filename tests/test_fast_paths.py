"""Bit-identity of the per-iteration fast paths against the code they replaced.

The search draws through numpy Generator's own definitions of the calls it
used to make, a channel expression accumulates into one buffer, and the
linear and pchip interpolation plans copy runs of segments instead of
gathering per sample. Each must give exactly what the replaced form gives, so
a numpy upgrade that changes the internals these rest on fails here.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from athena import signals
from athena.fitness import FitnessAssessment, parse_manual
from athena.models import Passthrough
from athena.search import Assumption, PortAssumption, SearchConfig, falsify, propose
from athena.signals import (
    ControlPoints,
    InterpolationKind,
    Signal,
    TimeGrid,
    WindowStatKind,
    _plan,
    interpolate,
    uniform_control_times,
    window_span,
    window_stat,
)
from athena.stl import (
    AtomExpr,
    Eventually,
    Globally,
    Predicate,
    Trace,
    parse,
    robustness,
    satisfied,
)

from oracles import (
    atom_values_reference,
    interpolate_reference,
    pchip_basis_reference,
    propose_reference,
    robustness_reference,
    satisfied_reference,
)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@st.composite
def boxes(draw):
    """An assumption of one to four ports with mixed ranges and sizes."""
    ports = []
    for i in range(draw(st.integers(1, 4))):
        lo = draw(st.floats(-1e12, 1e12, allow_subnormal=False))
        # wide enough that lo + width > lo
        width = draw(st.floats(1e-6, 1e12)) + abs(lo) * 1e-6
        n = draw(st.integers(1, 9))
        kind = InterpolationKind.CONSTANT if n == 1 else InterpolationKind.PCHIP
        ports.append(PortAssumption(f"p{i}", kind, lo, lo + width, n))
    return Assumption(tuple(ports))


class TestDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        box=boxes(),
        temperature=st.floats(0.0, 2.0),
        sigma=st.floats(1e-3, 1.0),
    )
    def test_each_draw_equals_the_generator_call(self, seed, box, temperature, sigma):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        lo, hi = box.lower, box.upper
        # restart: lower + (upper - lower) * next_double, per coordinate
        x = box.lower + box.width * new.random(box.dim)
        assert np.array_equal(bits(x), bits(old.uniform(lo, hi)))
        # proposal: loc + scale * standard normal, then the clamp
        got = propose(x, box, temperature, new, sigma)
        std = sigma * (hi - lo) * max(temperature, 0.05)
        want = np.clip(old.normal(x, std), lo, hi)
        assert np.array_equal(bits(got), bits(want))
        # acceptance
        assert new.random() == old.uniform()
        assert new.bit_generator.state == old.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        box=boxes(),
    )
    def test_clamp_equals_clip_on_finite_values(self, x, box):
        v = np.resize(np.array(x), box.dim)
        got = np.minimum(np.maximum(v, box.lower), box.upper)
        assert np.array_equal(bits(got), bits(np.clip(v, box.lower, box.upper)))

    @pytest.mark.parametrize("sigma", [-0.1, -1e-300])
    def test_negative_sigma_raises_as_normal_did(self, sigma):
        box = Assumption((PortAssumption("x", InterpolationKind.LINEAR, -2.0, 3.0, 3),))
        x = np.array([0.0, 1.0, 2.0])
        new, old = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(ValueError, match="scale < 0"):
            old.normal(x, sigma * box.width)
        with pytest.raises(ValueError, match="scale < 0"):
            propose(x, box, 1.0, new, sigma)
        assert new.bit_generator.state == old.bit_generator.state

    def test_width_is_cached_and_read_only(self):
        box = Assumption((PortAssumption("x", InterpolationKind.LINEAR, -2.0, 3.0, 3),))
        assert box.width is box.width
        assert np.array_equal(box.width, [5.0, 5.0, 5.0])
        with pytest.raises(ValueError, match="read-only"):
            box.width[0] = 1.0

    def test_first_candidate_is_the_uniform_draw(self):
        box = Assumption((PortAssumption("x", InterpolationKind.LINEAR, -1.0, 3.0, 4),))
        seen = []
        falsify(
            Passthrough(),
            box,
            FitnessAssessment(parse("G[0,10] (y < 5)")),
            SearchConfig(max_iterations=2, seed=17),
            TimeGrid(10.0, 0.5),
            observer=lambda i, vec, f: seen.append(vec),
        )
        want = np.random.default_rng(17).uniform(box.lower, box.upper)
        assert np.array_equal(bits(seen[0]), bits(want))


GRID = TimeGrid(2.0, 0.25)
COLUMNS = {
    "a": np.array([0.0, -0.0, 1.5, -2.25, -0.0, 3.0, 0.0, -1e-300, 7.0]),
    "b": np.array([-0.0, -0.0, 0.0, 2.25, 1.0, -3.0, -0.0, 1e-300, -7.0]),
}
EXPRESSIONS = [
    AtomExpr((("a", 1.0),)),
    AtomExpr((("a", 1.0),), const=-0.0),
    AtomExpr((("a", 1.0), ("b", 1.0))),
    AtomExpr((("a", -1.0), ("b", 0.5)), const=0.25),
    AtomExpr((("a", 1.0), ("a", 1.0), ("a", -2.0))),
    AtomExpr((("b", 2.0), ("a", 1.0)), const=-0.0, absolute=True),
    AtomExpr((("a", 1.0), ("b", -1.0)), absolute=True),
    AtomExpr((("a", -0.0),)),
    AtomExpr((), const=-0.0),
    AtomExpr((), const=4.5, absolute=True),
    # a later -1 term is subtracted; a first one is still multiplied
    AtomExpr((("a", -1.0), ("b", -1.0))),
    AtomExpr((("b", -1.0),), const=-0.0),
    AtomExpr((("a", 1.0), ("b", -1.0), ("a", -1.0)), const=-0.0),
    AtomExpr((("a", 0.5), ("b", -1.0), ("b", 1.0)), absolute=True),
]
RANGES = [(0, None), (0, 1), (2, 7), (8, 9), (4, 4)]
# every pairing of +-0.0, +-inf and a finite value, column against column
SPECIAL = [0.0, -0.0, math.inf, -math.inf, 1.5]
SPECIAL_COLUMNS = np.array(
    [[x for x in SPECIAL for _ in SPECIAL], [y for _ in SPECIAL for y in SPECIAL]]
)


class TestAtomValues:
    @pytest.mark.parametrize("start, stop", RANGES)
    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
    def test_equals_reference(self, expr, start, stop):
        trace = Trace(GRID, COLUMNS)
        got = expr.values(trace, start, stop)
        want = atom_values_reference(expr, trace, start, stop)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
    def test_signed_zeros_and_infinities(self, expr):
        # Trace.from_rows adopts the columns unchecked, infinities included
        grid = TimeGrid(len(SPECIAL) ** 2 - 1.0, 1.0)
        trace = Trace.from_rows(grid, ("a", "b"), SPECIAL_COLUMNS.copy(), {})
        with np.errstate(invalid="ignore"):
            got = expr.values(trace)
            want = atom_values_reference(expr, trace)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
    def test_fresh_writable_buffer(self, expr):
        trace = Trace(GRID, COLUMNS)
        got = expr.values(trace, 1, 6)
        assert got.flags.writeable
        for column in trace.channels.values():
            assert not np.shares_memory(got, column)


def _cp(times, values):
    return ControlPoints(np.array(times, dtype=float), np.array(values, dtype=float))


RUN_KINDS = [
    InterpolationKind.LINEAR,
    InterpolationKind.PIECEWISE_CONSTANT,
    InterpolationKind.CONSTANT,
    InterpolationKind.PCHIP,
]


class TestSegmentRuns:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(RUN_KINDS),
        steps=st.integers(1, 60),
        step=st.sampled_from([1e-10, 1e-9, 0.01, 0.05, 0.1, 0.3]),
        data=st.data(),
    )
    def test_plans_match_reference(self, kind, steps, step, data):
        grid = TimeGrid(steps * step, step)
        n = 1 if kind is InterpolationKind.CONSTANT else data.draw(st.integers(kind.min_points, 9))
        # the end times may sit up to TIME_TOL inside the grid, so samples
        # lie before the first and after the last control time
        first = data.draw(st.sampled_from([0.0, 5e-10]))
        last = grid.end - data.draw(st.sampled_from([0.0, 5e-10]))
        # interior times on a 1/64 lattice keep every pchip slope finite
        sixty_fourths = data.draw(
            st.lists(st.integers(1, 63), min_size=max(n - 2, 0), max_size=max(n - 2, 0), unique=True)
        )
        inner = [first + k / 64 * (last - first) for k in sixty_fourths]
        times = np.unique([first, *inner, last]) if n > 1 else np.array([first])
        if len(times) != n:
            return
        values = data.draw(
            st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
        )
        cp = _cp(times, values)
        got = interpolate(cp, kind, grid).values
        assert np.array_equal(bits(got), bits(interpolate_reference(cp, kind, grid)))

    def test_counts_cover_every_sample_read_only(self):
        grid = TimeGrid(120.0, 0.01)
        plan = _plan(InterpolationKind.LINEAR, grid, (0.0, 15.0, 30.0, 60.0, 120.0))
        assert plan.counts.sum() == grid.n_samples
        assert not plan.counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            plan.counts[0] = 0

    def test_before_first_and_after_last_control_time(self):
        # on a 1e-10 grid the end control times lie past several samples
        grid = TimeGrid(1e-8, 1e-10)
        cp = _cp([5e-10, 4e-9, 1e-8 - 5e-10], [1.0, 3.0, 2.0])
        for kind in (InterpolationKind.LINEAR, InterpolationKind.PIECEWISE_CONSTANT):
            got = interpolate(cp, kind, grid).values
            assert np.array_equal(bits(got), bits(interpolate_reference(cp, kind, grid)))
        assert interpolate(cp, InterpolationKind.LINEAR, grid).values[-1] == 2.0


class TestOnePassChecks:
    def test_conditions_and_messages(self):
        with pytest.raises(ValueError, match="must be finite"):
            Signal(GRID, np.r_[np.zeros(8), math.inf])
        with pytest.raises(ValueError, match="strictly increasing"):
            _cp([0.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            _cp([0.0, math.nan, 2.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="control values must be finite"):
            _cp([0.0, 1.0], [0.0, -math.inf])


PCHIP = InterpolationKind.PCHIP


def _interpolate_case(times, values, grid, kind=PCHIP):
    """interpolate's samples (pchip by default), which must come without
    a warning, and the reference's, computed with warnings off; or the
    ValueError when the reference is not finite."""
    cp = _cp(times, values)
    with np.errstate(all="ignore"):
        want = interpolate_reference(cp, kind, grid)
    if not np.isfinite(want).all():
        with pytest.raises(ValueError, match="signal values must be finite"):
            interpolate(cp, kind, grid)
        return None, None
    return interpolate(cp, kind, grid).values, want


class TestPchipOverflowBound:
    """`_PchipPlan.sample` enters np.errstate, and checks its samples, only
    when its values and slopes could overflow; either way the samples are
    the reference's."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 7),
        magnitude=st.sampled_from([1.0, 1e150, 1e300, 1e307, 5e307, 1.7e308]),
        close=st.sampled_from([None, 1e-9, 1e-13, 1e-300]),
        data=st.data(),
    )
    def test_matches_reference_without_warning(self, n, magnitude, close, data):
        grid = TimeGrid(10.0, 0.5)
        times = np.linspace(0.0, grid.end, n)
        if close is not None and n > 2:
            # segment k - 1 .. k only `close` wide, at the start, inside or
            # at the end
            k = data.draw(st.integers(1, n - 1))
            if k == n - 1:
                times[k - 1] = times[k] - close
            else:
                times[k] = times[k - 1] + close
        # a width below the spacing of floats near the end times rounds away
        assume((np.diff(times) > 0).all())
        unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        got, want = _interpolate_case(times, np.array(unit) * magnitude, grid)
        if got is not None:
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize(
        "times, values",
        [
            ([0.0, 2.5, 5.0, 10.0], [1.7e308, -1.7e308, 1.7e308, 0.0]),
            ([0.0, 2.5, 5.0, 10.0], [-1e308, 1e308, -1e308, 1e308]),
            ([0.0, 1e-300, 5.0, 10.0], [0.0, 1.0, 2.0, 3.0]),
            ([0.0, 5.0, 5.0 + 1e-12, 10.0], [0.0, 1e300, -1e300, 0.0]),
            ([0.0, 10.0 - 1e-13, 10.0], [1.0, 2.0, 1e308]),
        ],
    )
    def test_edge_cases_match_reference(self, times, values):
        got, want = _interpolate_case(times, values, TimeGrid(10.0, 0.5))
        if got is not None:
            assert np.array_equal(bits(got), bits(want))

    def test_paths(self, monkeypatch):
        checked = []
        finite = signals._finite
        monkeypatch.setattr(signals, "_finite", lambda out: checked.append(1) or finite(out))
        grid = TimeGrid(10.0, 0.5)
        moderate = _cp([0.0, 2.5, 5.0, 10.0], [1.0, -3.0, 2e300, 0.0])
        fast = interpolate(moderate, PCHIP, grid).values
        assert checked == []
        # forced down the errstate path, the same arithmetic gives the same bits
        monkeypatch.setattr(signals, "_PCHIP_SAFE", 0.0)
        slow = interpolate(moderate, PCHIP, grid).values
        assert checked == [1]
        assert np.array_equal(bits(fast), bits(slow))
        monkeypatch.undo()
        monkeypatch.setattr(signals, "_finite", lambda out: checked.append(2) or finite(out))
        # flat, so finite, but too large for the bound
        flat = interpolate(_cp([0.0, 5.0, 10.0], [1e308, 1e308, 1e308]), PCHIP, grid)
        assert checked == [1, 2]
        assert (flat.values == 1e308).all()

    def test_basis_bounds_of_a_plan(self):
        plan = _plan(PCHIP, TimeGrid(10.0, 0.5), (0.0, 2.0, 10.0))
        assert plan.value_basis == pytest.approx(1.0)
        assert 0.0 < plan.slope_basis <= 8.0 * 4.0 / 27.0 + 1e-12


LINEAR = InterpolationKind.LINEAR


class TestLinearOverflowBound:
    """`_LinearPlan.sample` computes the slopes on the Python floats and
    enters np.errstate, and checks its samples, only when a segment's
    slope and value could overflow; either way the samples are the
    reference's."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 7),
        magnitude=st.sampled_from([1.0, 1e150, 1e300, 1e307, 5e307, 1.7e308]),
        close=st.sampled_from([None, 1e-9, 1e-13, 1e-300]),
        data=st.data(),
    )
    def test_matches_reference_without_warning(self, n, magnitude, close, data):
        grid = TimeGrid(10.0, 0.5)
        times = np.linspace(0.0, grid.end, n)
        if close is not None and n > 2:
            k = data.draw(st.integers(1, n - 1))
            if k == n - 1:
                times[k - 1] = times[k] - close
            else:
                times[k] = times[k - 1] + close
        assume((np.diff(times) > 0).all())
        unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        got, want = _interpolate_case(times, np.array(unit) * magnitude, grid, LINEAR)
        if got is not None:
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize(
        "times, values, grid, finite",
        [
            # the secant of two opposite huge values overflows
            ([0.0, 10.0], [1.7e308, -1.7e308], TimeGrid(10.0, 0.5), False),
            # a slope that overflows to inf over a tiny width, read inside it
            ([0.0, 1.5e-10, 1e-8], [0.0, 1e300, 0.0], TimeGrid(1e-8, 1e-10), False),
            # the same slope where no sample lies inside the tiny segment
            ([0.0, 10.0 - 1e-13, 10.0], [1.0, 2.0, 1e308], TimeGrid(10.0, 0.5), True),
            # just under the bound: |slope| * reach + |v| below 1e308
            ([0.0, 5.0, 10.0], [0.0, 9.9e307, 9.9e307], TimeGrid(10.0, 0.5), True),
            # the same past the last control time, which the grid's end
            # passes by 5e-10
            ([0.0, 5.0, 10.0 - 5e-10], [0.0, 0.0, 9.9e307], TimeGrid(10.0, 0.5), True),
        ],
    )
    def test_edge_cases_match_reference(self, times, values, grid, finite):
        got, want = _interpolate_case(times, values, grid, LINEAR)
        assert (got is not None) is finite
        if got is not None:
            assert np.array_equal(bits(got), bits(want))

    def test_paths(self, monkeypatch):
        checked = []
        finite = signals._finite
        monkeypatch.setattr(signals, "_finite", lambda out: checked.append(1) or finite(out))
        grid = TimeGrid(10.0, 0.5)
        moderate = _cp([0.0, 2.5, 5.0, 10.0], [1.0, -3.0, 2e300, 0.0])
        fast = interpolate(moderate, LINEAR, grid).values
        assert checked == []
        # forced down the errstate path, the same arithmetic gives the same bits
        monkeypatch.setattr(signals, "_LINEAR_SAFE", 0.0)
        slow = interpolate(moderate, LINEAR, grid).values
        assert checked == [1]
        assert np.array_equal(bits(fast), bits(slow))


class TestPchipSegmentRuns:
    """A pchip plan copies each segment's four coefficients over its run of
    samples and sums the Hermite terms in the order the per-sample gather
    did, so its samples and basis are the reference's bit for bit."""

    @pytest.mark.parametrize("n", [5, 9])
    def test_segments_without_samples(self, n):
        # 3 samples, so most segments hold none
        grid = TimeGrid(1.0, 0.5)
        times = tuple(uniform_control_times(grid, n).tolist())
        assert 0 in _plan(PCHIP, grid, times).counts
        rng = np.random.default_rng(n)
        for _ in range(50):
            got, want = _interpolate_case(times, rng.uniform(-5.0, 5.0, n), grid)
            assert np.array_equal(bits(got), bits(want))

    def test_two_points(self):
        grid = TimeGrid(10.0, 0.5)
        for values in ([1.0, -2.0], [-0.0, 0.0], [3.0, 3.0]):
            got, want = _interpolate_case([0.0, 10.0], values, grid)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("grid", [TimeGrid(1.0, 0.5), TimeGrid(10.0, 0.5)])
    def test_overflow_path(self, grid, monkeypatch):
        checked = []
        finite = signals._finite
        monkeypatch.setattr(signals, "_finite", lambda out: checked.append(1) or finite(out))
        for values in ([1e308, -1e308, 1e308, 0.0, 1.0], [1.7e308, 1.7e308, 0.0, 0.0, 2.0]):
            got, want = _interpolate_case(uniform_control_times(grid, 5), values, grid)
            if got is not None:
                assert np.array_equal(bits(got), bits(want))
        assert checked

    @pytest.mark.parametrize(
        "grid, times",
        [
            (TimeGrid(1.0, 0.5), (0.0, 0.25, 0.5, 0.75, 1.0)),
            (TimeGrid(10.0, 0.5), (0.0, 10.0)),
            (TimeGrid(10.0, 0.5), (0.0, 2.0, 3.3, 10.0)),
            (TimeGrid(100.0, 0.05), tuple(np.linspace(0.0, 100.0, 7).tolist())),
            (TimeGrid(1e-8, 1e-10), (5e-10, 4e-9, 1e-8 - 5e-10)),
        ],
    )
    def test_basis_as_the_per_sample_plan_built_it(self, grid, times):
        got = _plan(PCHIP, grid, times).basis()
        assert np.array_equal(bits(got), bits(pchip_basis_reference(grid, times)))


# vectors that `_box()` rejects, with the whole message
BAD_VECTORS = [
    ([0.5, 0.5, 0.5], r"parameter vector needs shape \(4,\), got \(3,\)"),
    ([[0.5, 0.5, 0.5, 0.5]], r"parameter vector needs shape \(4,\), got \(1, 4\)"),
    ([0.5, 0.5, 1.5, 0.5], "parameter vector leaves the assumption box"),
    ([0.5, -1e-300, 0.5, 0.5], "parameter vector leaves the assumption box"),
    ([0.5, math.nan, 0.5, 0.5], "parameter vector leaves the assumption box"),
    ([0.5, 0.5, 0.5, math.inf], "parameter vector leaves the assumption box"),
    ([-math.inf, 0.5, 0.5, 0.5], "parameter vector leaves the assumption box"),
    ([0.5, 0.5, 0.5, -math.nan], "parameter vector leaves the assumption box"),
    (np.zeros((2, 2)), r"parameter vector needs shape \(4,\), got \(2, 2\)"),
    (0.5, r"parameter vector needs shape \(4,\), got \(\)"),
]


def _box(n=3, lo=0.0, hi=1.0):
    return Assumption(
        (
            PortAssumption("a", InterpolationKind.PCHIP, lo, hi, n),
            PortAssumption("b", InterpolationKind.CONSTANT, lo, hi, 1),
        )
    )


class TestAdoptedControlPoints:
    """`Assumption.control_points` checks the vector once and adopts the
    cached times and views of one read-only copy."""

    def test_same_points_as_the_checked_constructor(self):
        box, grid = _box(), TimeGrid(10.0, 0.5)
        vector = np.array([0.25, 0.5, 1.0, 0.75])
        got = box.control_points(vector, grid)
        assert list(got) == ["a", "b"]
        for (name, cp), (times, values) in zip(
            got.items(), [(uniform_control_times(grid, 3), vector[:3]), (np.zeros(1), vector[3:])]
        ):
            want = ControlPoints(times, values)
            assert np.array_equal(bits(cp.times), bits(want.times))
            assert np.array_equal(bits(cp.values), bits(want.values))
            kind = box.ports[list(got).index(name)].kind
            assert np.array_equal(
                bits(interpolate(cp, kind, grid).values), bits(interpolate(want, kind, grid).values)
            )
        assert got["a"].times is uniform_control_times(grid, 3)

    def test_read_only_and_detached_from_the_vector(self):
        box, grid = _box(), TimeGrid(10.0, 0.5)
        vector = np.array([0.25, 0.5, 1.0, 0.75])
        got = box.control_points(vector, grid)
        vector[:] = 0.0
        assert np.array_equal(got["a"].values, [0.25, 0.5, 1.0])
        assert np.array_equal(got["b"].values, [0.75])
        for cp in got.values():
            assert not cp.times.flags.writeable
            assert not cp.values.flags.writeable
            assert not np.shares_memory(cp.values, vector)
            with pytest.raises(ValueError, match="read-only"):
                cp.values[0] = 1.0
            # a view of a read-only copy cannot be made writeable again
            with pytest.raises(ValueError, match="WRITEABLE"):
                cp.values.setflags(write=True)

    @pytest.mark.parametrize("vector, message", BAD_VECTORS)
    def test_bad_vectors_rejected(self, vector, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _box().control_points(vector, TimeGrid(10.0, 0.5))

    def test_a_list_vector(self):
        got = _box().control_points([0.0, 0.5, 1.0, 1.0], TimeGrid(10.0, 0.5))
        assert got["a"].values.dtype == float
        assert np.array_equal(got["a"].values, [0.0, 0.5, 1.0])


def _sig(grid, values):
    return Signal(grid, np.asarray(values, dtype=float))


class TestTraceFromBlock:
    GRID = TimeGrid(1.0, 0.5)
    BLOCK = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_adopts_signals_on_the_grid_itself(self):
        x = _sig(self.GRID, [0.0, 0.5, 1.0])
        trace = Trace.from_block(self.GRID, ("y", "z"), self.BLOCK, {"x": x})
        assert list(trace.channels) == ["y", "z", "x"]
        assert trace.channels["x"] is x.values
        assert np.array_equal(trace.channel("z"), [2.0, 4.0, 6.0])
        for name in ("y", "z"):
            assert not trace.channel(name).flags.writeable
            assert not np.shares_memory(trace.channel(name), self.BLOCK)
        assert trace.grid is self.GRID

    def test_other_channels_go_through_the_constructor(self):
        equal = TimeGrid(1.0, 0.5)
        x = _sig(equal, [0.0, 0.5, 1.0])
        raw = np.array([7.0, 8.0, 9.0])
        trace = Trace.from_block(self.GRID, ("y", "z"), self.BLOCK, {"x": x, "w": raw})
        assert list(trace.channels) == ["y", "z", "x", "w"]
        # a Signal on an equal grid is stored as it is, an array is copied
        assert trace.channels["x"] is x.values
        assert not np.shares_memory(trace.channels["w"], raw)
        assert not trace.channels["w"].flags.writeable
        raw[0] = -1.0
        assert trace.channels["w"][0] == 7.0

    def test_rejections_name_the_channel(self):
        other = _sig(TimeGrid(2.0, 0.5), [0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="channel 'x': not sampled on the trace grid"):
            Trace.from_block(self.GRID, ("y", "z"), self.BLOCK, {"x": other})
        with pytest.raises(ValueError, match="channel 'w': signal values must be finite"):
            Trace.from_block(self.GRID, ("y", "z"), self.BLOCK, {"w": [0.0, math.nan, 0.0]})
        bad = self.BLOCK.copy()
        bad[1, 1] = math.inf
        with pytest.raises(ValueError, match="channel 'z': signal values must be finite"):
            Trace.from_block(self.GRID, ("y", "z"), bad, {})


class TestLastSeenMemos:
    """The STL plan and a manual window's span are kept for the last
    formula object and grid; alternating between several gives each its
    own."""

    def test_plan_per_formula_and_step(self):
        f1 = parse("G[0,1] (y < 2)")
        f2 = parse("F[0,0.5] (y > 0.5)")
        traces = [
            Trace(TimeGrid(2.0, 0.5), {"y": np.array([0.0, 1.0, 3.0, 1.0, 0.0])}),
            Trace(TimeGrid(2.0, 0.25), {"y": np.linspace(0.0, 2.0, 9)}),
        ]
        for _ in range(2):
            for f in (f1, f2, parse("G[0,1] (y < 2)")):
                for trace in traces:
                    assert robustness(f, trace) == robustness_reference(f, trace)

    def test_window_span_per_grid(self):
        expr = parse_manual("mean(y,[0,1])")
        grids = [TimeGrid(2.0, 0.5), TimeGrid(2.0, 0.25), TimeGrid(2.0, 0.5)]
        for _ in range(2):
            for grid in grids:
                y = np.arange(grid.n_samples, dtype=float)
                trace = Trace(grid, {"y": y})
                want = window_stat(y, grid, WindowStatKind.MEAN, (0.0, 1.0))
                assert expr.evaluate(trace) == want
        # the kept span is not part of the window's value
        assert expr == parse_manual("mean(y,[0,1])")
        assert hash(expr) == hash(parse_manual("mean(y,[0,1])"))


@st.composite
def signed_zero_boxes(draw):
    """An assumption of 1 to 40 coordinates over one to four ports, whose
    bounds include -0.0 and 0.0, and a point of it that sits on its bounds
    more often than not."""
    ports, point = [], []
    dim = draw(st.integers(1, 40))
    sizes = []
    while dim:
        sizes.append(draw(st.integers(1, min(dim, 10))))
        dim -= sizes[-1]
    for i, n in enumerate(sizes if len(sizes) <= 4 else [sum(sizes)]):
        lo, hi = draw(
            st.sampled_from([(-0.0, 1.0), (-1.0, 0.0), (-0.0, 1e-300), (0.0, 2.0), (-3.0, -0.0)])
            | st.tuples(st.floats(-1e12, 1e12), st.floats(1e-6, 1e12)).map(
                lambda p: (p[0], p[0] + p[1] + abs(p[0]) * 1e-6)
            )
        )
        kind = InterpolationKind.CONSTANT if n == 1 else InterpolationKind.LINEAR
        ports.append(PortAssumption(f"p{i}", kind, lo, hi, n))
        for _ in range(n):
            point.append(
                # a zero bound's own zero or the other one
                draw(st.sampled_from([lo, hi, -lo if lo == 0.0 else lo, -hi if hi == 0.0 else hi]))
                if draw(st.booleans())
                else draw(st.floats(lo, hi))
            )
    return Assumption(tuple(ports)), np.array(point)


class TestPythonFloatVector:
    """`propose` and `validate_vector` work on Python floats; the numpy
    formula they replaced is the reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=signed_zero_boxes(),
        seed=st.integers(0, 2**63 - 1),
        temperature=st.floats(-1.0, 0.05) | st.floats(0.0, 2.0) | st.just(0.0),
        # zero and tiny sigmas leave the point on its bound, a tie of the
        # clamp; huge ones step far past it
        sigma=st.sampled_from([0.0, 1e-300, 1e-17, 1e6]) | st.floats(1e-3, 1.0),
    )
    def test_propose_equals_reference(self, case, seed, temperature, sigma):
        box, x = case
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = propose(x, box, temperature, new, sigma)
        want = propose_reference(x, box, temperature, old, sigma)
        assert got.dtype == float and got.shape == (box.dim,)
        assert np.array_equal(bits(got), bits(want))
        assert new.bit_generator.state == old.bit_generator.state

    # the first standard normal is positive from seed 0, negative from 4
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize(
        "lo, hi, x, want",
        [
            (-0.0, 1.0, 0.0, -0.0),
            (-0.0, 1.0, -0.0, -0.0),
            (-1.0, 0.0, -0.0, 0.0),
            (-1.0, 0.0, 0.0, 0.0),
        ],
    )
    def test_zero_step_onto_a_signed_zero_bound(self, seed, lo, hi, x, want):
        # sigma 0 steps by a zero of the draw's sign; the point ties with
        # the bound, and the clamp gives the bound, as numpy's does
        assert (np.random.default_rng(seed).standard_normal() > 0) == (seed == 0)
        box = Assumption((PortAssumption("p", InterpolationKind.CONSTANT, lo, hi, 1),))
        got = propose(np.array([x]), box, 1.0, np.random.default_rng(seed), 0.0)
        ref = propose_reference(np.array([x]), box, 1.0, np.random.default_rng(seed), 0.0)
        assert bits(got)[0] == bits(ref)[0] == bits(np.array([want]))[0]

    @pytest.mark.parametrize("vector, message", BAD_VECTORS)
    @pytest.mark.parametrize("entry", ["validate_vector", "propose"])
    def test_bad_vectors_rejected(self, entry, vector, message):
        box = _box()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{message}$"):
            if entry == "validate_vector":
                box.validate_vector(vector)
            else:
                propose(vector, box, 1.0, rng)
        assert rng.bit_generator.state == state

    def test_validate_vector_returns_the_float_array(self):
        box = _box()
        v = np.array([0.0, 0.5, 1.0, 1.0])
        assert box.validate_vector(v) is v
        got = box.validate_vector([0, 1, 1, 0])
        assert got.dtype == float and np.array_equal(got, [0.0, 1.0, 1.0, 0.0])

    def test_control_times_follow_the_grid(self):
        box = _box()
        grids = [TimeGrid(10.0, 0.5), TimeGrid(4.0, 0.5), TimeGrid(10.0, 0.5)]
        v = np.array([0.25, 0.5, 1.0, 0.75])
        for _ in range(2):
            for grid in grids:
                got = box.control_points(v, grid)
                assert got["a"].times is uniform_control_times(grid, 3)
                assert got["b"].times is uniform_control_times(grid, 1)
        # the kept times are not part of the assumption's value
        assert box == _box() and hash(box) == hash(_box())


def _channel_cases():
    """Channels on an 8-sample grid: all -0.0, zeros of both signs with
    values around them, and magnitudes near the float maximum."""
    return {
        "negative zeros": np.full(8, -0.0),
        "mixed zeros": np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, -0.0, 0.0]),
        "zero ties": np.array([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0]),
        "huge": np.array([1e300, -1e300, 1.7e308, -1.7e308, 1e300, 0.0, -0.0, 1e308]),
        "huge same sign": np.array([1.7e308, 1.7e308, 1e308, 1.6e308] * 2),
    }


RAW_GRID = TimeGrid(3.5, 0.5)


class TestRawChannelReads:
    """A bare channel is read through a view; the statistic or extreme
    plus 0.0 is bitwise that of the expression's values."""

    @pytest.mark.parametrize("name", list(_channel_cases()))
    @pytest.mark.parametrize("stat", list(WindowStatKind))
    @pytest.mark.parametrize("window", [(0.0, 3.5), (0.5, 2.0), (1.0, 1.2)])
    def test_window_view_equals_window_stat(self, name, stat, window):
        y = _channel_cases()[name]
        trace = Trace(RAW_GRID, {"y": y})
        node = parse_manual(f"{stat.value}(y,[{window[0]},{window[1]}])")
        assert node.channel.bare == "y"
        lo, hi = window_span(window, RAW_GRID)
        # a mean or ptp of huge values overflows to inf on every path
        with np.errstate(over="ignore"):
            want = window_stat(y + 0.0, RAW_GRID, stat, window)
            got = node.evaluate(trace)
            # the array path, which the view replaced for a bare channel
            array_path = stat.of(node.channel.values(trace, lo, hi + 1))
        assert struct.pack("d", got) == struct.pack("d", want)
        assert struct.pack("d", got) == struct.pack("d", array_path)

    @pytest.mark.parametrize(
        "expr, bare",
        [
            (AtomExpr((("y", 1.0),)), "y"),
            (AtomExpr((("y", 1.0),), -0.0), None),
            (AtomExpr((("y", 1.0),), 1.0), None),
            (AtomExpr((("y", 1.0),), 0.0, True), None),
            (AtomExpr((("y", 2.0),)), None),
            (AtomExpr((("y", 1.0), ("x", 1.0))), None),
            (AtomExpr(()), None),
        ],
    )
    def test_bare_channel(self, expr, bare):
        assert expr.bare == bare
        # only the channel as it stands is read as a view, never copied
        trace = Trace(RAW_GRID, {"y": _channel_cases()["mixed zeros"], "x": np.ones(8)})
        values, fresh = expr.raw(trace)
        assert fresh is (bare is None)
        assert np.shares_memory(values, trace.channel("y")) is (bare == "y")
        assert np.array_equal(bits(values + 0.0), bits(expr.values(trace)))

    @pytest.mark.parametrize("cmp", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize(
        "expr",
        [
            AtomExpr((("y", 1.0),)),
            AtomExpr((("y", 1.0),), -0.0),
            AtomExpr((("y", 1.0),), 0.0, True),
            AtomExpr((("y", 1.0),), -0.0, True),
            AtomExpr((("y", -1.0),)),
            AtomExpr((("y", 1.0), ("x", -1.0)), 0.5),
        ],
        ids=["bare", "const -0", "abs", "abs const -0", "negated", "two terms"],
    )
    def test_window_over_predicate_equals_reference(self, cmp, expr):
        for y in _channel_cases().values():
            trace = Trace(RAW_GRID, {"y": y, "x": y[::-1].copy()})
            for op, bound, (a, b) in itertools.product(
                [Globally, Eventually],
                [0.0, -0.0, 1.5, -1e300],
                [(0.0, 3.5), (1.0, 2.0), (1.5, 1.5)],
            ):
                f = op(a, b, Predicate(expr, cmp, bound))
                got = robustness(f, trace)
                want = robustness_reference(f, trace)
                assert struct.pack("d", got) == struct.pack("d", want), (str(f), y, got, want)
                assert satisfied(f, trace) == satisfied_reference(f, trace)

    def test_abs_keeps_the_array_path(self, monkeypatch):
        trace = Trace(RAW_GRID, {"y": _channel_cases()["mixed zeros"]})
        calls = []
        values = AtomExpr.values

        def counted(self, *args):
            calls.append(self)
            return values(self, *args)

        monkeypatch.setattr(AtomExpr, "values", counted)
        bare = parse("G[0,3] (y < 2)")
        robustness(bare, trace)
        assert calls == []
        wrapped = parse("G[0,3] (abs(y) < 2)")
        robustness(wrapped, trace)
        assert calls == [wrapped.child.expr]

    def test_no_view_path_writes_to_the_trace(self):
        y = _channel_cases()["mixed zeros"]
        trace = Trace(RAW_GRID, {"y": y})
        kept = trace.channel("y").copy()
        for text in ["G[0,3] (y < 2)", "F[0.5,3] (y >= -1)", "G[0,3] (y > -0)"]:
            robustness(parse(text), trace)
        for stat in WindowStatKind:
            parse_manual(f"{stat.value}(y,[0,3])").evaluate(trace)
        assert not trace.channel("y").flags.writeable
        assert np.array_equal(bits(trace.channel("y")), bits(kept))


class TestInterpolateMemo:
    """`interpolate` finds the plan of a control-time array it has seen by
    identity; another kind or grid goes through the checks again."""

    def test_same_array_gives_the_reference(self):
        grid = TimeGrid(10.0, 0.5)
        times = uniform_control_times(grid, 4)
        for kind in [InterpolationKind.PCHIP, InterpolationKind.LINEAR]:
            for seed in range(3):
                values = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
                cp = ControlPoints(times, values)
                got = interpolate(cp, kind, grid)
                assert np.array_equal(bits(got.values), bits(interpolate_reference(cp, kind, grid)))

    def test_checks_run_for_another_kind_or_grid(self):
        grid = TimeGrid(10.0, 0.5)
        cp = ControlPoints(uniform_control_times(grid, 3), [0.0, 1.0, 0.5])
        interpolate(cp, InterpolationKind.PCHIP, grid)
        with pytest.raises(ValueError, match="exactly 1 control point"):
            interpolate(cp, InterpolationKind.CONSTANT, grid)
        with pytest.raises(ValueError, match="must span"):
            interpolate(cp, InterpolationKind.PCHIP, TimeGrid(5.0, 0.5))
        # an equal grid that is another object finds the same plan
        assert interpolate(cp, InterpolationKind.PCHIP, TimeGrid(10.0, 0.5)).plan is (
            interpolate(cp, InterpolationKind.PCHIP, grid).plan
        )

    def test_memo_is_bounded_and_holds_its_arrays(self):
        grid = TimeGrid(10.0, 0.5)
        for n in range(2, 2 * signals.PLAN_CACHE_SIZE):
            cp = ControlPoints(np.linspace(0.0, 10.0, n), np.zeros(n))
            interpolate(cp, InterpolationKind.LINEAR, grid)
        memo = signals._plans_by_times
        assert len(memo) == signals.PLAN_CACHE_SIZE
        assert all(key == id(entry[0]) for key, entry in memo.items())
