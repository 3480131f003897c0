"""Bit-identity of the per-iteration fast paths against the code they replaced.

The search draws through numpy Generator's own definitions of the calls it
used to make, a channel expression accumulates into one buffer, and the
linear and pchip interpolation plans copy runs of segments instead of
gathering per sample. Each must give exactly what the replaced form gives, so
a numpy upgrade that changes the internals these rest on fails here.
"""

import math

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
    window_stat,
)
from athena.stl import AtomExpr, Trace, parse, robustness

from oracles import (
    atom_values_reference,
    interpolate_reference,
    pchip_basis_reference,
    robustness_reference,
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


def _pchip_case(times, values, grid):
    """interpolate's pchip samples, which must come without a warning, and
    the reference's, computed with warnings off; or the ValueError when
    the reference is not finite."""
    cp = _cp(times, values)
    with np.errstate(all="ignore"):
        want = interpolate_reference(cp, PCHIP, grid)
    if not np.isfinite(want).all():
        with pytest.raises(ValueError, match="signal values must be finite"):
            interpolate(cp, PCHIP, grid)
        return None, None
    return interpolate(cp, PCHIP, grid).values, want


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
        got, want = _pchip_case(times, np.array(unit) * magnitude, grid)
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
        got, want = _pchip_case(times, values, TimeGrid(10.0, 0.5))
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
            got, want = _pchip_case(times, rng.uniform(-5.0, 5.0, n), grid)
            assert np.array_equal(bits(got), bits(want))

    def test_two_points(self):
        grid = TimeGrid(10.0, 0.5)
        for values in ([1.0, -2.0], [-0.0, 0.0], [3.0, 3.0]):
            got, want = _pchip_case([0.0, 10.0], values, grid)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("grid", [TimeGrid(1.0, 0.5), TimeGrid(10.0, 0.5)])
    def test_overflow_path(self, grid, monkeypatch):
        checked = []
        finite = signals._finite
        monkeypatch.setattr(signals, "_finite", lambda out: checked.append(1) or finite(out))
        for values in ([1e308, -1e308, 1e308, 0.0, 1.0], [1.7e308, 1.7e308, 0.0, 0.0, 2.0]):
            got, want = _pchip_case(uniform_control_times(grid, 5), values, grid)
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

    @pytest.mark.parametrize(
        "vector, message",
        [
            ([0.5, 0.5, 0.5], r"parameter vector needs shape \(4,\), got \(3,\)"),
            ([[0.5, 0.5, 0.5, 0.5]], r"parameter vector needs shape \(4,\), got \(1, 4\)"),
            ([0.5, 0.5, 1.5, 0.5], "parameter vector leaves the assumption box"),
            ([0.5, -1e-300, 0.5, 0.5], "parameter vector leaves the assumption box"),
            ([0.5, math.nan, 0.5, 0.5], "parameter vector leaves the assumption box"),
            ([0.5, 0.5, 0.5, math.inf], "parameter vector leaves the assumption box"),
        ],
    )
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
