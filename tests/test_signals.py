import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from athena import signals
from athena.signals import (
    PLAN_CACHE_SIZE,
    TIME_TOL,
    ControlPoints,
    InterpolationKind,
    Signal,
    SlopeDirection,
    TimeGrid,
    WindowStatKind,
    interpolate,
    scale,
    steepest_slope,
    uniform_control_times,
    window_stat,
)

from oracles import _ref_pchip_slopes, interpolate_reference, pchip_oracle


def make_signal(end, step, values):
    return Signal(TimeGrid(end, step), np.asarray(values, dtype=float))


def _pchip_slopes(times, values):
    """The Fritsch-Carlson slopes at `values` of the pchip plan over the
    control `times`, built on a grid of one step from 0 to the last."""
    plan = signals._plan(InterpolationKind.PCHIP, TimeGrid(times[-1], times[-1]), tuple(times))
    return plan.slopes(list(values))


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(10.0, 1.0)
        assert g.n_samples == 11
        assert g.times()[0] == 0.0
        assert g.times()[-1] == 10.0

    def test_end_and_step_are_the_whole_key(self):
        # a grid starts at 0, so end and step alone hash and compare it
        assert [f.name for f in dataclasses.fields(TimeGrid)] == ["end", "step"]
        assert TimeGrid(10.0, 0.5) == TimeGrid(10.0, 0.5)

    def test_cached_values_leave_equality_and_hash_alone(self):
        # n_samples and the times are kept on the grid that computed them
        used, fresh = TimeGrid(10.0, 0.5), TimeGrid(10.0, 0.5)
        assert used.n_samples == 21
        assert used.times()[-1] == 10.0
        assert "n_samples" in vars(used) and "n_samples" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert used != TimeGrid(10.0, 0.25)
        assert {used: 1}[fresh] == 1
        assert uniform_control_times(used, 4) is uniform_control_times(fresh, 4)

    def test_non_integral_step_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(10.0, 0.3)

    @pytest.mark.parametrize("end,step", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
    def test_bad_bounds(self, end, step):
        with pytest.raises(ValueError):
            TimeGrid(end, step)

    @pytest.mark.parametrize("end, step", [(10.0, 0.05), (100.0, 0.01), (0.3, 0.1)])
    def test_reaching_keeps_a_whole_step_end(self, end, step):
        assert TimeGrid.reaching(end, step) == TimeGrid(end, step)

    @pytest.mark.parametrize(
        "end, step, n", [(10.02, 0.05, 202), (10.0001, 0.05, 202), (0.01, 0.05, 2), (3.5, 1.0, 5)]
    )
    def test_reaching_rounds_up_to_the_next_sample(self, end, step, n):
        grid = TimeGrid.reaching(end, step)
        assert grid.n_samples == n and grid.step == step
        assert end < grid.end < end + step

    @pytest.mark.parametrize(
        "end, step", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5), (math.inf, 1.0)]
    )
    def test_reaching_bad_bounds(self, end, step):
        with pytest.raises(ValueError, match="must be positive and finite"):
            TimeGrid.reaching(end, step)

    def test_inexact_step_within_tolerance(self):
        g = TimeGrid(100.0, 0.01)
        assert g.n_samples == 10001
        assert g.times()[-1] == 100.0

    def test_index_window(self):
        g = TimeGrid(10.0, 1.0)
        assert g.index_window(3.0, 7.0) == (3, 7)
        assert g.index_window(2.5, 7.5) == (3, 7)
        assert g.index_window(0.0, 10.0) == (0, 10)
        lo, hi = g.index_window(3.2, 3.7)
        assert lo > hi


class TestControlPoints:
    def test_valid(self):
        cp = ControlPoints([0.0, 5.0, 10.0], [1.0, 2.0, 3.0])
        assert len(cp) == 3

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            ControlPoints([0.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_first_time_nonzero(self):
        with pytest.raises(ValueError):
            ControlPoints([1.0, 5.0], [1.0, 2.0])

    def test_non_finite_value(self):
        with pytest.raises(ValueError):
            ControlPoints([0.0, 5.0], [1.0, float("nan")])

    @pytest.mark.parametrize(
        "times, values, message",
        [
            ([0.0, 5.0], [1.0], "equal-length 1-d sequences"),
            ([], [], "equal-length 1-d sequences"),
            ([[0.0, 5.0]], [[1.0, 2.0]], "equal-length 1-d sequences"),
            ([1e-8, 5.0], [1.0, 2.0], "first control time must be 0"),
            ([0.0, 5.0, 4.0], [1.0, 2.0, 3.0], "strictly increasing"),
            ([0.0, float("nan")], [1.0, 2.0], "strictly increasing"),
            ([0.0, 5.0], [1.0, float("inf")], "control values must be finite"),
            ([0.0, 5.0], [float("-inf"), 1.0], "control values must be finite"),
        ],
    )
    def test_constructor_keeps_every_check(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            ControlPoints(times, values)

    def test_constructor_copies(self):
        times, values = np.array([0.0, 5.0]), np.array([1.0, 2.0])
        cp = ControlPoints(times, values)
        times[1], values[0] = 9.0, -1.0
        assert cp.times.tolist() == [0.0, 5.0]
        assert cp.values.tolist() == [1.0, 2.0]
        assert not cp.times.flags.writeable and not cp.values.flags.writeable


def linear_signal(end, step, values):
    """The linear interpolant of `values` at evenly spaced control times,
    one per grid sample, so its samples are `values`."""
    grid = TimeGrid(end, step)
    cp = ControlPoints(uniform_control_times(grid, len(values)), values)
    return interpolate(cp, InterpolationKind.LINEAR, grid)


class TestSignalPrefix:
    def test_read_only_view_of_the_first_samples(self):
        s = linear_signal(1.0, 0.1, np.arange(11.0))
        short = TimeGrid(0.5, 0.1)
        p = s.prefix(short)
        assert p.grid == short
        assert np.array_equal(p.values, np.arange(6.0))
        assert np.shares_memory(p.values, s.values)
        assert not p.values.flags.writeable

    @pytest.mark.parametrize(
        "grid", [TimeGrid(0.5, 0.05), TimeGrid(1.0, 0.1), TimeGrid(2.0, 0.1)]
    )
    def test_needs_a_shorter_grid_with_the_same_step(self, grid):
        with pytest.raises(ValueError, match="prefix"):
            linear_signal(1.0, 0.1, np.zeros(11)).prefix(grid)


class TestUniformControlTimes:
    def test_five_over_hundred(self):
        g = TimeGrid(100.0, 0.5)
        assert uniform_control_times(g, 5).tolist() == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_seven_over_fifty(self):
        g = TimeGrid(50.0, 0.01)
        times = uniform_control_times(g, 7)
        assert times[0] == 0.0
        assert times[-1] == 50.0
        assert np.allclose(np.diff(times), 50.0 / 6.0, rtol=0, atol=1e-9)

    def test_singleton(self):
        g = TimeGrid(40.0, 1.0)
        assert uniform_control_times(g, 1).tolist() == [0.0]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            uniform_control_times(TimeGrid(10.0, 1.0), 0)

    def test_times_too_close_for_floats_rejected(self):
        # the points the search decodes adopt these times unchecked, so
        # they pass the ControlPoints checks or raise here
        grid = TimeGrid(5e-324, 5e-324)
        assert uniform_control_times(grid, 2).tolist() == [0.0, 5e-324]
        with pytest.raises(ValueError, match="control times must be strictly increasing"):
            uniform_control_times(grid, 3)

    @pytest.mark.parametrize("n", [1, 7])
    def test_cached_read_only(self, n):
        g = TimeGrid(50.0, 0.05)
        times = uniform_control_times(g, n)
        assert uniform_control_times(TimeGrid(50.0, 0.05), n) is times
        assert not times.flags.writeable


class TestInterpolate:
    def test_min_points(self):
        assert {k: k.min_points for k in InterpolationKind} == {
            InterpolationKind.PCHIP: 2,
            InterpolationKind.LINEAR: 2,
            InterpolationKind.PIECEWISE_CONSTANT: 1,
            InterpolationKind.CONSTANT: 1,
        }

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    def test_output_read_only_and_owned(self, kind):
        g = TimeGrid(10.0, 1.0)
        n = 1 if kind is InterpolationKind.CONSTANT else 3
        cp = ControlPoints(uniform_control_times(g, n), np.arange(1.0, n + 1))
        a = interpolate(cp, kind, g)
        b = interpolate(cp, kind, g)
        assert not a.values.flags.writeable
        assert not np.shares_memory(a.values, b.values)
        assert not np.shares_memory(a.values, cp.values)

    def test_non_finite_output_rejected(self):
        # the secant of two opposite huge values overflows to -inf
        cp = ControlPoints([0.0, 10.0], [1.7e308, -1.7e308])
        with pytest.raises(ValueError, match="finite"):
            interpolate(cp, InterpolationKind.LINEAR, TimeGrid(10.0, 1.0))

    def test_constant_replication(self):
        g = TimeGrid(10.0, 1.0)
        s = interpolate(ControlPoints([0.0], [5.0]), InterpolationKind.CONSTANT, g)
        assert np.array_equal(s.values, np.full(11, 5.0))

    def test_linear_identity(self):
        g = TimeGrid(10.0, 1.0)
        s = interpolate(ControlPoints([0.0, 10.0], [0.0, 10.0]), InterpolationKind.LINEAR, g)
        assert np.array_equal(s.values, np.arange(11.0))

    def test_pchip_hat_matches_oracle(self):
        g = TimeGrid(10.0, 0.5)
        cp = ControlPoints([0.0, 5.0, 10.0], [0.0, 1.0, 0.0])
        s = interpolate(cp, InterpolationKind.PCHIP, g)
        expected = pchip_oracle(cp.times, cp.values, g.times())
        assert np.allclose(s.values, expected, rtol=0, atol=1e-12)
        # frozen values for the midpoints of each rising/falling segment
        t = g.times()
        assert s.values[np.where(t == 2.5)[0][0]] == pytest.approx(0.75, abs=1e-12)
        assert s.values[np.where(t == 7.5)[0][0]] == pytest.approx(0.75, abs=1e-12)

    def test_pchip_random_sets_match_oracle(self):
        rng = np.random.default_rng(7)
        g = TimeGrid(10.0, 0.125)
        for _ in range(25):
            n = rng.integers(2, 9)
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 9.5, n - 2)), [10.0]])
            values = rng.uniform(-5.0, 5.0, n)
            cp = ControlPoints(times, values)
            s = interpolate(cp, InterpolationKind.PCHIP, g)
            expected = pchip_oracle(times, values, g.times())
            assert np.allclose(s.values, expected, rtol=0, atol=1e-12)

    def test_pchip_matches_scipy(self):
        from scipy.interpolate import PchipInterpolator

        rng = np.random.default_rng(11)
        g = TimeGrid(50.0, 0.25)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            times = np.linspace(0.0, 50.0, n)
            values = rng.uniform(0.0, 325.0, n)
            s = interpolate(ControlPoints(times, values), InterpolationKind.PCHIP, g)
            ref = PchipInterpolator(times, values)(g.times())
            assert np.allclose(s.values, ref, rtol=0, atol=1e-9)

    def test_piecewise_constant_holds_left(self):
        g = TimeGrid(10.0, 1.0)
        s = interpolate(
            ControlPoints([0.0, 3.0, 7.0, 10.0], [1.0, 2.0, 3.0, 4.0]),
            InterpolationKind.PIECEWISE_CONSTANT,
            g,
        )
        assert s.values.tolist() == [1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4]

    def test_exactness_at_control_times(self):
        g = TimeGrid(10.0, 0.5)
        times = [0.0, 2.5, 6.0, 10.0]
        values = [1.0, -2.0, 4.0, 0.5]
        for kind in (
            InterpolationKind.PCHIP,
            InterpolationKind.LINEAR,
            InterpolationKind.PIECEWISE_CONSTANT,
        ):
            s = interpolate(ControlPoints(times, values), kind, g)
            grid_times = g.times()
            for t, v in zip(times, values):
                idx = np.where(np.abs(grid_times - t) <= 1e-9)[0]
                assert len(idx) == 1
                assert s.values[idx[0]] == v

    def test_pchip_monotone_never_overshoots(self):
        rng = np.random.default_rng(3)
        g = TimeGrid(10.0, 0.01)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            times = np.linspace(0.0, 10.0, n)
            values = np.sort(rng.uniform(-10.0, 10.0, n))
            s = interpolate(ControlPoints(times, values), InterpolationKind.PCHIP, g)
            assert s.values.min() >= values.min() - 1e-12
            assert s.values.max() <= values.max() + 1e-12

    def test_arity_enforced(self):
        g = TimeGrid(10.0, 1.0)
        cp2 = ControlPoints([0.0, 10.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            interpolate(cp2, InterpolationKind.CONSTANT, g)
        cp1 = ControlPoints([0.0], [1.0])
        with pytest.raises(ValueError):
            interpolate(cp1, InterpolationKind.PCHIP, g)

    def test_span_enforced(self):
        g = TimeGrid(10.0, 1.0)
        with pytest.raises(ValueError):
            interpolate(ControlPoints([0.0, 9.0], [1.0, 2.0]), InterpolationKind.LINEAR, g)


# (end, step); on the last two grids even few uniform control times fall
# between samples
ORACLE_GRIDS = [(10.0, 1.0), (10.0, 0.125), (50.0, 0.05), (100.0, 0.05), (7.3, 0.1), (3.0, 0.5)]


def value_sets(rng, n):
    """Flat, tied (rounded), sign-changing and random control values."""
    yield np.full(n, 2.5)
    yield np.round(rng.uniform(0.0, 3.0, n))
    yield np.where(np.arange(n) % 2 == 0, -1.0, 1.0) * rng.uniform(0.5, 2.0, n)
    yield rng.uniform(-5.0, 5.0, n)
    yield rng.uniform(0.0, 325.0, n)


def time_sets(rng, grid, n):
    """Uniform control times, and sorted random ones spanning the grid."""
    yield uniform_control_times(grid, n)
    if n > 2:
        inner = np.sort(rng.choice(np.arange(1, 1000), n - 2, replace=False))
        yield np.concatenate([[0.0], inner * grid.end / 1000.0, [grid.end]])


class TestInterpolateMatchesReference:
    """The cached plans give exactly the per-call interpolation they replaced."""

    @pytest.mark.parametrize("end, step", ORACLE_GRIDS)
    @pytest.mark.parametrize("kind", list(InterpolationKind), ids=lambda k: k.value)
    def test_bit_equal(self, kind, end, step):
        grid = TimeGrid(end, step)
        rng = np.random.default_rng(ORACLE_GRIDS.index((end, step)))
        for n in range(kind.min_points, 2 if kind is InterpolationKind.CONSTANT else 10):
            for times in time_sets(rng, grid, n):
                for values in value_sets(rng, n):
                    cp = ControlPoints(times, values)
                    got = interpolate(cp, kind, grid).values
                    assert np.array_equal(got, interpolate_reference(cp, kind, grid)), (
                        n,
                        times,
                        values,
                    )

    @pytest.mark.parametrize("kind", [InterpolationKind.PCHIP, InterpolationKind.LINEAR])
    def test_near_zero_secants(self, kind):
        # w / d overflows to inf for secants near 1e-311; the interior slope
        # is then 0, as the numpy-scalar reference computes it
        grid = TimeGrid(10.0, 0.125)
        for values in ([0.0, 1e-310, 3e-310], [0.0, 1e-310, 3e-310, 4e-310, 1.0]):
            cp = ControlPoints(uniform_control_times(grid, len(values)), values)
            got = interpolate(cp, kind, grid).values
            assert np.array_equal(got, interpolate_reference(cp, kind, grid))
        assert _pchip_slopes((0.0, 5.0, 10.0), [0.0, 1e-310, 3e-310])[1] == 0.0


    @pytest.mark.parametrize(
        "kind",
        [InterpolationKind.LINEAR, InterpolationKind.PCHIP, InterpolationKind.PIECEWISE_CONSTANT],
        ids=lambda k: k.value,
    )
    def test_first_control_time_after_grid_start(self, kind):
        # a first control time within TIME_TOL of 0 but past several samples
        # of a fine grid: np.interp holds the first value before it
        grid = TimeGrid(1e-8, 1e-10)
        cp = ControlPoints([5e-10, 4e-9, 1e-8], [1.0, 3.0, 2.0])
        got = interpolate(cp, kind, grid).values
        assert np.array_equal(got, interpolate_reference(cp, kind, grid))

    def test_pconst_exact_hit_past_held_index(self):
        # 0.6000000010000001 is within TIME_TOL of sample 6 (6 * 0.1), yet
        # sample 6's time plus TIME_TOL is below it, so only the exact-hit
        # rule gives sample 6 the control value
        grid = TimeGrid(7.3, 0.1)
        cp = ControlPoints([0.0, 0.6000000010000001, 7.3], [1.0, 2.0, 3.0])
        kind = InterpolationKind.PIECEWISE_CONSTANT
        got = interpolate(cp, kind, grid).values
        assert got[6] == 2.0
        assert np.array_equal(got, interpolate_reference(cp, kind, grid))

    def test_linear_slope_overflow_stays_silent(self):
        # the first slope overflows to inf; every sample is a control time or
        # lies past one, so np.interp gives finite values and no warning
        grid = TimeGrid(1.0, 0.25)
        cp = ControlPoints([0.0, 0.25, 1.0], [-1e308, 1e308, 1e308])
        got = interpolate(cp, InterpolationKind.LINEAR, grid).values
        assert np.array_equal(got, interpolate_reference(cp, InterpolationKind.LINEAR, grid))

    def test_pchip_two_infinite_secants(self):
        # both secants overflow, so the interior slope is inf as numpy
        # computes it; every sample is a control time, so the output is finite
        grid = TimeGrid(1.0, 0.5)
        cp = ControlPoints([0.0, 0.5, 1.0], [-1e308, 0.0, 1e308])
        with np.errstate(all="ignore"):
            got = interpolate(cp, InterpolationKind.PCHIP, grid).values
            want = interpolate_reference(cp, InterpolationKind.PCHIP, grid)
        assert np.array_equal(got, want)
        assert _pchip_slopes((0.0, 0.5, 1.0), [-1e308, 0.0, 1e308])[1] == np.inf

    def test_pchip_near_coincident_times_stay_silent(self):
        # the first secant is infinite; its slope times the zero basis at
        # the control time is overwritten by the exact hit, with no warning
        grid = TimeGrid(1.0, 0.25)
        cp = ControlPoints([0.0, 1e-310, 0.5, 1.0], [0.0, 1.0, 2.0, 3.0])
        got = interpolate(cp, InterpolationKind.PCHIP, grid).values
        with np.errstate(all="ignore"):
            want = interpolate_reference(cp, InterpolationKind.PCHIP, grid)
        assert np.array_equal(got, want)


# flat runs at non-round values, signed zeros, subnormals and magnitudes
# near the float maximum, among any finite values
_SLOPE_VALUES = st.one_of(
    st.sampled_from([0.1, 7.3, -0.0, 0.0, 5e-324, -2.5e-310, 1.5e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _slope_cases(draw):
    n = draw(st.integers(2, 8))
    widths = draw(
        st.lists(
            st.one_of(st.sampled_from([0.5, 1.0]), st.floats(1e-6, 1e3)),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    times = np.concatenate([[0.0], np.cumsum(widths)])
    assume(np.all(np.diff(times) > 0.0))
    return times.tolist(), draw(st.lists(_SLOPE_VALUES, min_size=n, max_size=n))


class TestPchipSlopes:
    @settings(max_examples=300, deadline=None)
    @given(_slope_cases())
    @example(([0.0, 0.3, 1.0, 1.25, 4.0], [0.1, 0.1, 0.1, 7.3, 7.3]))
    @example(([0.0, 0.3, 1.0, 1.25, 4.0], [-0.0, 0.0, -0.0, 5e-324, -5e-324]))
    def test_plan_slopes_bitwise_reference(self, case):
        # the weights the plan holds give the slopes of the reference, which
        # forms them per call on numpy scalars, bit for bit, signed zeros
        # and infinite slopes included
        times, values = case
        with np.errstate(all="ignore"):
            want = _ref_pchip_slopes(np.array(times), np.array(values)).tolist()
        assert _bits(_pchip_slopes(times, values)) == _bits(want)


class TestInterpolationPlans:
    @pytest.mark.parametrize("kind", list(InterpolationKind), ids=lambda k: k.value)
    def test_plan_arrays_read_only(self, kind):
        grid = TimeGrid(10.0, 0.5)
        n = 1 if kind is InterpolationKind.CONSTANT else 4
        plan = signals._plan(kind, grid, tuple(uniform_control_times(grid, n).tolist()))
        arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
        assert arrays
        for a in arrays:
            assert not a.flags.writeable

    def test_same_times_different_values_do_not_interfere(self):
        grid = TimeGrid(10.0, 0.25)
        times = uniform_control_times(grid, 5)
        first = ControlPoints(times, [0.0, 1.0, 0.5, 2.0, 1.0])
        second = ControlPoints(times, [3.0, -1.0, 4.0, 4.0, 0.0])
        kind = InterpolationKind.PCHIP
        a = interpolate(first, kind, grid)
        kept = a.values.copy()
        b = interpolate(second, kind, grid)
        assert np.array_equal(a.values, kept)
        assert np.array_equal(a.values, interpolate_reference(first, kind, grid))
        assert np.array_equal(b.values, interpolate_reference(second, kind, grid))
        assert np.array_equal(interpolate(first, kind, grid).values, kept)

    def test_cache_bound_is_fixed(self):
        assert isinstance(PLAN_CACHE_SIZE, int) and PLAN_CACHE_SIZE > 0
        assert signals._plan.cache_info().maxsize == PLAN_CACHE_SIZE
        assert uniform_control_times.cache_info().maxsize == PLAN_CACHE_SIZE
        for n in range(2, PLAN_CACHE_SIZE + 10):
            grid = TimeGrid(float(n), 1.0)
            interpolate(
                ControlPoints(uniform_control_times(grid, n), np.arange(n, dtype=float)),
                InterpolationKind.LINEAR,
                grid,
            )
        assert signals._plan.cache_info().currsize == PLAN_CACHE_SIZE
        assert uniform_control_times.cache_info().currsize == PLAN_CACHE_SIZE


class TestWindowStat:
    def test_mean_of_constant(self):
        s = make_signal(10.0, 1.0, [5.0] * 11)
        assert window_stat(s.values, s.grid, WindowStatKind.MEAN, (0.0, 10.0)) == 5.0

    def test_min_monotone(self):
        s = make_signal(10.0, 1.0, list(range(11)))
        assert window_stat(s.values, s.grid, WindowStatKind.MIN, (3.0, 7.0)) == 3.0

    def test_peak_to_peak(self):
        s = make_signal(10.0, 1.0, list(range(11)))
        assert window_stat(s.values, s.grid, WindowStatKind.PEAK_TO_PEAK, (2.0, 8.0)) == 6.0

    def test_inclusive_ends(self):
        s = make_signal(10.0, 1.0, list(range(11)))
        assert window_stat(s.values, s.grid, WindowStatKind.MAX, (0.0, 10.0)) == 10.0

    def test_bad_window(self):
        s = make_signal(10.0, 1.0, list(range(11)))
        with pytest.raises(ValueError):
            window_stat(s.values, s.grid, WindowStatKind.MIN, (5.0, 5.0))
        with pytest.raises(ValueError):
            window_stat(s.values, s.grid, WindowStatKind.MIN, (0.0, 11.0))

    def test_empty_window(self):
        s = make_signal(10.0, 1.0, list(range(11)))
        with pytest.raises(ValueError):
            window_stat(s.values, s.grid, WindowStatKind.MIN, (3.2, 3.8))

    def test_mean_is_bitwise_np_mean(self):
        # lengths 1-1000 cross numpy's pairwise-summation blocks (8 and 128)
        rng = np.random.default_rng(7)
        for n in range(1, 1001):
            signed_zeros = rng.choice([0.0, -0.0], n)
            magnitudes = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
            chunks = (
                rng.normal(0.0, 1.0, n),
                signed_zeros,
                np.full(n, -0.0),
                magnitudes,
                # a strided view, as a window over one column of a block
                np.repeat(magnitudes, 2)[::2],
            )
            for chunk in chunks:
                mean = WindowStatKind.MEAN.of(chunk)
                assert type(mean) is float
                assert struct.pack("<d", mean) == struct.pack("<d", float(np.mean(chunk)))


class TestSteepestSlope:
    def test_single_rising_segment(self):
        cp = ControlPoints([0.0, 1.0, 2.0], [0.0, 3.0, 3.0])
        assert steepest_slope(cp, SlopeDirection.POSITIVE, (0.0, 2.0)) == 3.0

    def test_negative_magnitude(self):
        cp = ControlPoints([0.0, 1.0, 2.0], [4.0, 1.0, 1.0])
        assert steepest_slope(cp, SlopeDirection.NEGATIVE, (0.0, 2.0)) == 3.0

    def test_flat(self):
        cp = ControlPoints([0.0, 2.0], [1.0, 1.0])
        assert steepest_slope(cp, SlopeDirection.POSITIVE, (0.0, 2.0)) == 0.0

    def test_window_filters_points(self):
        cp = ControlPoints([0.0, 1.0, 2.0, 3.0], [0.0, 5.0, 5.0, 20.0])
        assert steepest_slope(cp, SlopeDirection.POSITIVE, (0.0, 2.0)) == 5.0

    def test_too_few_in_window(self):
        cp = ControlPoints([0.0, 5.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            steepest_slope(cp, SlopeDirection.POSITIVE, (0.0, 2.0))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308]) | st.floats(-1e3, 1e3),
            min_size=2,
            max_size=9,
        ),
        window=st.sampled_from([(0.0, 120.0), (15.0, 75.0), (30.0, 30.0 + 1e-10)]),
        direction=st.sampled_from(list(SlopeDirection)),
    )
    def test_matches_the_numpy_form(self, values, window, direction):
        cp = ControlPoints(np.linspace(0.0, 120.0, len(values)), values)
        a, b = window
        inside = (cp.times >= a - TIME_TOL) & (cp.times <= b + TIME_TOL)
        t, v = cp.times[inside], cp.values[inside]
        if len(t) < 2:
            with pytest.raises(ValueError, match="need >= 2 control points"):
                steepest_slope(cp, direction, window)
            return
        # the numpy form; a difference of huge values overflows
        with np.errstate(over="ignore"):
            slopes = (v[1:] - v[:-1]) / (t[1:] - t[:-1])
        if direction is SlopeDirection.POSITIVE:
            want = float(max(0.0, slopes.max()))
        else:
            want = float(max(0.0, -slopes.min()))
        got = steepest_slope(cp, direction, window)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)


class TestScale:
    def test_midpoint(self):
        assert scale(50.0, (0.0, 100.0)) == 0.5

    def test_clamp_low(self):
        assert scale(-10.0, (0.0, 100.0)) == 0.0

    def test_upper_bound(self):
        assert scale(325.0, (0.0, 325.0)) == 1.0

    def test_nan_passes_through(self):
        # the clamp would make it 0.0, a score that looks ordinary
        assert math.isnan(scale(math.nan, (0.0, 1.0)))
        assert math.isnan(scale(math.nan, (-5.0, 2.0)))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            scale(1.0, (5.0, 5.0))
        with pytest.raises(ValueError):
            scale(1.0, (5.0, 2.0))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-6:
            return
        xs = np.linspace(lo - 1.0, hi + 1.0, 7)
        vals = [scale(x, (lo, hi)) for x in xs]
        assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))

    @given(st.floats(-10.0, 10.0))
    def test_idempotent_unit_range(self, x):
        once = scale(x, (0.0, 1.0))
        assert scale(once, (0.0, 1.0)) == once


@settings(max_examples=40)
@given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8))
def test_pchip_bounded_by_monotone_hull(values):
    values = sorted(values)
    times = np.linspace(0.0, 8.0, len(values))
    if np.any(np.diff(times) <= 0):
        return
    g = TimeGrid(8.0, 0.05)
    s = interpolate(ControlPoints(times, values), InterpolationKind.PCHIP, g)
    assert s.values.min() >= values[0] - 1e-9
    assert s.values.max() <= values[-1] + 1e-9
