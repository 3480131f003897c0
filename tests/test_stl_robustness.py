import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.errors import HorizonError, MissingChannelError
from athena.signals import Signal, TimeGrid
from athena.stl import (
    Eventually,
    Globally,
    Not,
    Or,
    Trace,
    formula_horizon,
    parse,
    robustness,
    satisfied,
)

from oracles import naive_robustness, naive_satisfied

GRID = TimeGrid(10.0, 0.5)

ZOO = [
    "x < 3",
    "abs(x - y) < 5",
    "G[0,4] (x < 3)",
    "F[1,3] (y > 0)",
    "G[0.3,2.7] (x - y <= 0)",
    "G[0,5] (F[0,2] (x > 0))",
    "F[0,5] (G[0,1.2] (y >= -1))",
    "x < 3 and y > -2 or x > 8",
    "G[0,3] (x > 0 -> F[0,2] (y > 0))",
    "not (F[0,4] (x - 2 * y > 1))",
    "G[1,2] (abs(x) < 6 -> y < 3) and F[0.5,4.5] (x + y > -5)",
]


def random_trace(rng, grid=GRID):
    n = grid.n_samples
    return Trace(
        grid,
        {"x": rng.uniform(-10, 10, n), "y": rng.uniform(-10, 10, n)},
    )


def const_trace(value, end=30.0, step=0.5, name="x"):
    grid = TimeGrid(end, step)
    return Trace(grid, {name: np.full(grid.n_samples, float(value))})


class TestWorkedExamples:
    def test_globally_margin(self):
        tr = const_trace(100.0, name="Speed")
        assert robustness(parse("G[0,20] (Speed < 120)"), tr) == 20.0

    def test_eventually_shortfall(self):
        tr = const_trace(3.0)
        assert robustness(parse("F[0,10] (x > 5)"), tr) == -2.0

    def test_nested_chain(self):
        grid = TimeGrid(115.0, 0.5)
        n = grid.n_samples
        tr = Trace(grid, {"y5": np.full(n, 50.0), "y4": np.full(n, 40.0)})
        f = parse("G[0,65] (F[0,30] (G[0,20] (y5 - y4 >= 8)))")
        assert robustness(f, tr) == 2.0

    def test_ramp_violation(self):
        grid = TimeGrid(30.0, 0.5)
        tr = Trace(grid, {"Speed": 8.0 * grid.times()})
        assert robustness(parse("G[0,20] (Speed < 120)"), tr) == -40.0


class TestBoundary:
    @pytest.mark.parametrize(
        "text,expect_sat",
        [("x < 5", False), ("x <= 5", True), ("x > 5", False), ("x >= 5", True)],
    )
    def test_equality_point(self, text, expect_sat):
        tr = const_trace(5.0)
        f = parse(text)
        assert robustness(f, tr) == 0.0
        assert satisfied(f, tr) is expect_sat

    def test_sign_convention(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tr = random_trace(rng)
            for text in ZOO:
                f = parse(text)
                rho = robustness(f, tr)
                if rho > 0:
                    assert satisfied(f, tr)
                elif rho < 0:
                    assert not satisfied(f, tr)


class TestOverflow:
    # a margin past the float maximum is -inf, and numpy warns of nothing
    # (the suite turns warnings into errors)
    @pytest.mark.parametrize(
        "text", ["G[0,0.5] (F[0,0.5] (x <= -1e308))", "G[0,1] (x <= -1e308)"]
    )
    def test_margin_overflows_to_minus_inf_without_a_warning(self, text):
        tr = const_trace(1.7e308, end=1.0)
        assert robustness(parse(text), tr) == -np.inf
        assert satisfied(parse(text), tr) is False


class TestWindows:
    def test_inclusive_ends(self):
        grid = TimeGrid(5.0, 0.5)
        vals = np.array([3.0, 1.0, 2.0] + [9.0] * 8)
        tr = Trace(grid, {"x": vals})
        assert robustness(parse("G[0,1] (x > 0)"), tr) == 1.0
        assert robustness(parse("G[0,0.4] (x > 0)"), tr) == 3.0

    def test_unaligned_interval(self):
        grid = TimeGrid(5.0, 0.5)
        vals = np.array([9.0, 2.0, 9.0] + [9.0] * 8)
        tr = Trace(grid, {"x": vals})
        # [0.3, 0.8] covers only the sample at t=0.5
        assert robustness(parse("G[0.3,0.8] (x > 0)"), tr) == 2.0

    def test_horizon_exact_fit(self):
        tr = const_trace(1.0, end=10.0)
        assert robustness(parse("G[0,10] (x > 0)"), tr) == 1.0

    def test_horizon_exceeded(self):
        tr = const_trace(1.0, end=10.0)
        with pytest.raises(HorizonError):
            robustness(parse("G[0,20] (x > 0)"), tr)

    def test_nested_horizon_exceeded(self):
        grid = TimeGrid(100.0, 0.5)
        n = grid.n_samples
        tr = Trace(grid, {"y5": np.full(n, 50.0), "y4": np.full(n, 40.0)})
        f = parse("G[0,65] (F[0,30] (G[0,20] (y5 - y4 >= 8)))")
        with pytest.raises(HorizonError):
            robustness(f, tr)

    def test_missing_channel(self):
        tr = const_trace(1.0)
        with pytest.raises(MissingChannelError):
            robustness(parse("G[0,5] (z > 0)"), tr)


class TestTrace:
    def test_signal_stored_without_copy(self):
        sig = Signal(GRID, np.arange(GRID.n_samples, dtype=float))
        trace = Trace(GRID, {"x": sig})
        assert trace.channel("x") is sig.values

    def test_signal_on_other_grid_rejected(self):
        other = TimeGrid(20.0, 1.0)
        assert other.n_samples == GRID.n_samples
        sig = Signal(other, np.zeros(other.n_samples))
        with pytest.raises(ValueError, match="channel 'x'"):
            Trace(GRID, {"x": sig})

    def test_array_is_checked_copied_and_read_only(self):
        vals = np.zeros(GRID.n_samples)
        trace = Trace(GRID, {"x": vals})
        vals[0] = 1.0
        assert trace.channel("x")[0] == 0.0
        assert not trace.channel("x").flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_names_channel(self, bad):
        vals = np.zeros(GRID.n_samples)
        vals[3] = bad
        with pytest.raises(ValueError, match="channel 'y'.*finite"):
            Trace(GRID, {"x": np.zeros(GRID.n_samples), "y": vals})

    def test_wrong_length_names_channel(self):
        with pytest.raises(ValueError, match="channel 'x'.*samples"):
            Trace(GRID, {"x": np.zeros(GRID.n_samples - 1)})


class TestHorizon:
    def test_predicate(self):
        assert formula_horizon(parse("x < 1")) == 0.0

    def test_single(self):
        assert formula_horizon(parse("G[0,20] (Speed < 120)")) == 20.0

    def test_nested_sum(self):
        f = parse("G[0,65] (F[0,30] (G[0,20] (y5 - y4 >= 8)))")
        assert formula_horizon(f) == 115.0

    def test_binary_max(self):
        f = parse("G[0,10] (x < 1) and F[5,40] (y > 0)")
        assert formula_horizon(f) == 40.0


class TestDualities:
    def test_negation_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            tr = random_trace(rng)
            for text in ZOO:
                f = parse(text)
                assert robustness(Not(f), tr) == -robustness(f, tr)

    def test_globally_is_not_eventually_not(self):
        rng = np.random.default_rng(2)
        p = parse("x - y > 1")
        for _ in range(10):
            tr = random_trace(rng)
            direct = robustness(Globally(0.0, 4.0, p), tr)
            dual = robustness(Not(Eventually(0.0, 4.0, Not(p))), tr)
            assert direct == dual

    def test_implies_is_or_not(self):
        rng = np.random.default_rng(3)
        f = parse("G[0,3] (x > 0 -> y > 0)")
        g = Globally(0.0, 3.0, Or(Not(parse("x > 0")), parse("y > 0")))
        for _ in range(10):
            tr = random_trace(rng)
            assert robustness(f, tr) == robustness(g, tr)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            vals = rng.uniform(-10, 10, GRID.n_samples)
            c = rng.uniform(-5, 5)
            t1 = Trace(GRID, {"x": vals, "y": vals})
            t2 = Trace(GRID, {"x": vals + c, "y": vals})
            f = parse("G[0,5] (x < 3)")
            assert robustness(f, t2) == pytest.approx(robustness(f, t1) - c, abs=1e-9)


class TestOracleAgreement:
    def test_zoo_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            tr = random_trace(rng)
            for text in ZOO:
                f = parse(text)
                assert robustness(f, tr) == naive_robustness(f, tr)
                assert satisfied(f, tr) == naive_satisfied(f, tr)

    def test_boolean_on_tie_heavy_traces(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            vals = rng.integers(3, 8, GRID.n_samples).astype(float)
            tr = Trace(GRID, {"x": vals, "y": vals[::-1].copy()})
            for text in ("G[0,4] (x < 5)", "F[0,4] (x <= 5)", "G[1,3] (x >= 5 -> y < 7)"):
                f = parse(text)
                assert satisfied(f, tr) == naive_satisfied(f, tr)
                assert robustness(f, tr) == naive_robustness(f, tr)

    def test_nested_chain_bit_exact(self):
        rng = np.random.default_rng(7)
        grid = TimeGrid(115.0, 1.0)
        f = parse("G[0,65] (F[0,30] (G[0,20] (y5 - y4 >= 8)))")
        for _ in range(5):
            n = grid.n_samples
            tr = Trace(grid, {"y5": rng.uniform(0, 60, n), "y4": rng.uniform(0, 60, n)})
            assert robustness(f, tr) == naive_robustness(f, tr)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    tr = random_trace(rng)
    for text in ZOO:
        f = parse(text)
        assert robustness(f, tr) == naive_robustness(f, tr)
        assert satisfied(f, tr) == naive_satisfied(f, tr)
