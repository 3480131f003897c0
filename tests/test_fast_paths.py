"""Bit-identity of the per-iteration fast paths against the code they replaced.

The search draws through numpy Generator's own definitions of the calls it
used to make, a channel expression accumulates into one buffer, and the
linear interpolation plan copies runs of segments instead of gathering one
index per sample. Each must give exactly what the replaced form gives, so
a numpy upgrade that changes the internals these rest on fails here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.fitness import FitnessAssessment
from athena.models import Passthrough
from athena.search import Assumption, PortAssumption, SearchConfig, falsify, propose
from athena.signals import (
    ControlPoints,
    InterpolationKind,
    Signal,
    TimeGrid,
    _plan,
    interpolate,
)
from athena.stl import AtomExpr, Trace, parse

from oracles import atom_values_reference, interpolate_reference


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
]
RANGES = [(0, None), (0, 1), (2, 7), (8, 9), (4, 4)]


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
