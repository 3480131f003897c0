"""Tests for fitness assessment: manual expressions, combination, robustness sign."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.errors import MissingChannelError, ParseError
from athena.fitness import (
    Add,
    Const,
    FitnessAssessment,
    Mul,
    Neg,
    Scale,
    SteepestSlope,
    Sub,
    TargetDistance,
    WindowStat,
    assess,
    athena_combine,
    auto_fitness,
    manual_fitness,
    parse_manual,
)
from athena.signals import (
    ControlPoints,
    SlopeDirection,
    TimeGrid,
    WindowStatKind,
)
from athena.stl import Trace, parse, satisfied


def const_trace(grid, **channels):
    n = grid.n_samples
    return Trace(grid, {name: np.full(n, float(v)) for name, v in channels.items()})


GRID50 = TimeGrid(50.0, 0.5)
GRID20 = TimeGrid(20.0, 0.1)

AT1_STYLE = "scale(mean(Brake,[0,50]),[0,325]) - scale(mean(Throttle,[0,50]),[0,100])"


class TestManualParser:
    def test_sub_of_scales_structure(self):
        expr = parse_manual(AT1_STYLE)
        assert isinstance(expr, Sub)
        assert isinstance(expr.left, Scale)
        assert isinstance(expr.right, Scale)
        left = expr.left
        assert isinstance(left.child, WindowStat)
        assert left.child.stat is WindowStatKind.MEAN
        assert left.child.channel.terms == (("Brake", 1.0),)
        assert left.child.window == (0.0, 50.0)
        assert (left.lo, left.hi) == (0.0, 325.0)

    def test_weighted_sum_structure(self):
        text = (
            "0.5 * dist(scale(mean(Throttle,[0,33]),[0,100]),0.45)"
            " + 0.5 * scale(mean(Brake,[0,25]),[0,325])"
        )
        expr = parse_manual(text)
        assert isinstance(expr, Add)
        assert isinstance(expr.left, Mul)
        assert expr.left.left == Const(0.5)
        assert isinstance(expr.left.right, TargetDistance)
        assert expr.left.right.target == 0.45

    def test_channel_combination_inside_stat(self):
        expr = parse_manual("min(y5 - y4,[0,100])")
        assert isinstance(expr, WindowStat)
        assert expr.channel.terms == (("y5", 1.0), ("y4", -1.0))
        assert expr.stat is WindowStatKind.MIN

    def test_slope_functions(self):
        up = parse_manual("slope_up(Throttle,[0,50])")
        assert up == SteepestSlope("Throttle", SlopeDirection.POSITIVE, (0.0, 50.0))
        down = parse_manual("slope_down(Brake,[10,40])")
        assert down.direction is SlopeDirection.NEGATIVE

    def test_all_stats_parse(self):
        for name, kind in (
            ("min", WindowStatKind.MIN),
            ("max", WindowStatKind.MAX),
            ("mean", WindowStatKind.MEAN),
            ("ptp", WindowStatKind.PEAK_TO_PEAK),
        ):
            expr = parse_manual(f"{name}(x,[0,5])")
            assert expr.stat is kind

    def test_unary_minus(self):
        expr = parse_manual("-scale(min(Throttle,[0,17]),[0,100])")
        assert isinstance(expr, Neg)
        assert isinstance(expr.child, Scale)

    def test_negative_dist_target(self):
        expr = parse_manual("dist(mean(x,[0,5]),-0.5)")
        assert expr.target == -0.5

    def test_round_trip(self):
        texts = [
            AT1_STYLE,
            "scale(max(brake,[0,100]),[0,1]) - scale(min(throttle,[0,100]),[0,1])",
            "dist(scale(mean(Throttle,[0,33]),[0,100]),0.45)",
            "0.5 * dist(scale(mean(throttle,[0,33]),[0,1]),0.3)"
            " - 0.5 * scale(mean(brake,[0,50]),[0,1])",
            "scale(min(y5 - y4,[0,100]),[0,40])",
            "slope_up(Throttle,[0,50]) + slope_down(Brake,[0,50])",
            "-(scale(ptp(x,[0,10]),[0,2]) * 0.25) + 1",
        ]
        for text in texts:
            expr = parse_manual(text)
            assert parse_manual(str(expr)) == expr

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_manual("   ")

    def test_unknown_function(self):
        with pytest.raises(ParseError) as exc:
            parse_manual("median(x,[0,5])")
        assert exc.value.offset == 0

    def test_missing_window_comma(self):
        with pytest.raises(ParseError):
            parse_manual("mean(Throttle)")

    def test_bare_channel_rejected(self):
        with pytest.raises(ParseError):
            parse_manual("Throttle")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse_manual("mean(x,[0,5]) )")
        assert exc.value.offset == 14


class TestManualEvaluation:
    def test_corner_gives_minus_one(self):
        expr = parse_manual(AT1_STYLE)
        trace = const_trace(GRID50, Throttle=100.0, Brake=0.0)
        assert manual_fitness(expr, trace) == -1.0

    def test_opposite_corner_gives_plus_one(self):
        expr = parse_manual(AT1_STYLE)
        trace = const_trace(GRID50, Throttle=0.0, Brake=325.0)
        assert manual_fitness(expr, trace) == 1.0

    def test_window_mean_overflows_to_inf_without_a_warning(self):
        # the sum passes the float maximum; scale clamps the mean to 1
        expr = parse_manual("scale(mean(x,[0,50]),[0,1])")
        assert manual_fitness(expr, const_trace(GRID50, x=1.5e308)) == 1.0

    def test_target_distance_zero_at_target(self):
        expr = parse_manual("dist(scale(mean(Throttle,[0,33]),[0,100]),0.45)")
        trace = const_trace(GRID50, Throttle=45.0)
        assert manual_fitness(expr, trace) == pytest.approx(0.0, abs=1e-12)

    def test_window_stat_on_channel_combination(self):
        grid = TimeGrid(10.0, 1.0)
        y5 = np.linspace(40.0, 50.0, grid.n_samples)
        y4 = np.full(grid.n_samples, 30.0)
        trace = Trace(grid, {"y5": y5, "y4": y4})
        expr = parse_manual("min(y5 - y4,[0,10])")
        assert manual_fitness(expr, trace) == pytest.approx(10.0)
        expr = parse_manual("max(y5 - y4,[0,10])")
        assert manual_fitness(expr, trace) == pytest.approx(20.0)

    def test_slope_needs_control_points(self):
        expr = parse_manual("slope_up(Throttle,[0,10])")
        trace = const_trace(GRID50, Throttle=0.0)
        with pytest.raises(ValueError):
            manual_fitness(expr, trace)
        cp = ControlPoints(np.array([0.0, 5.0, 10.0]), np.array([0.0, 30.0, 10.0]))
        got = manual_fitness(expr, trace, {"Throttle": cp})
        assert got == pytest.approx(6.0)

    def test_missing_channel_propagates(self):
        expr = parse_manual("mean(Speed,[0,5])")
        trace = const_trace(GRID50, Throttle=1.0)
        with pytest.raises(MissingChannelError):
            manual_fitness(expr, trace)

    def test_none_means_zero(self):
        trace = const_trace(GRID50, Throttle=1.0)
        assert manual_fitness(None, trace) == 0.0

    def test_arithmetic_nodes(self):
        trace = const_trace(GRID50, x=10.0)
        m = parse_manual("mean(x,[0,50])")
        assert manual_fitness(parse_manual("2 * mean(x,[0,50]) - 5"), trace) == 15.0
        assert manual_fitness(Neg(m), trace) == -10.0
        assert manual_fitness(Add(m, Const(1.5)), trace) == 11.5
        assert manual_fitness(Mul(m, m), trace) == 100.0

    def test_catalog_style_presets_stay_in_unit_range(self):
        presets = [
            parse_manual(AT1_STYLE),
            parse_manual(
                "0.5 * dist(scale(mean(Throttle,[0,33]),[0,100]),0.45)"
                " + 0.5 * scale(mean(Brake,[0,25]),[0,325])"
            ),
            parse_manual(
                "scale(max(Brake,[0,25]),[0,325])"
                " - scale(min(Throttle,[0,17]),[0,100])"
            ),
        ]
        rng = np.random.default_rng(7)
        n = GRID50.n_samples
        for _ in range(25):
            trace = Trace(
                GRID50,
                {
                    "Throttle": rng.uniform(0.0, 100.0, n),
                    "Brake": rng.uniform(0.0, 325.0, n),
                },
            )
            for expr in presets:
                value = manual_fitness(expr, trace)
                assert -1.0 <= value <= 1.0


class TestAutoFitness:
    def test_simple_division(self):
        f = parse("G[0,20] (Speed < 120)")
        trace = const_trace(GRID20, Speed=100.0)
        assert auto_fitness(f, trace, 120.0) == 20.0 / 120.0

    def test_clamped_low(self):
        f = parse("G[0,20] (Speed < 120)")
        trace = const_trace(GRID20, Speed=700.0)
        assert auto_fitness(f, trace, 120.0) == -1.0

    def test_zero_any_scale(self):
        f = parse("G[0,20] (Speed < 120)")
        trace = const_trace(GRID20, Speed=120.0)
        for scale in (1.0, 120.0, 1e6):
            assert auto_fitness(f, trace, scale) == 0.0

    def test_clamping_preserves_sign(self):
        f = parse("G[0,20] (Speed < 120)")
        for speed, expected_sign in ((119.0, 1.0), (121.0, -1.0)):
            trace = const_trace(GRID20, Speed=speed)
            got = auto_fitness(f, trace, 0.1)
            assert got == expected_sign

    def test_bad_scale_rejected(self):
        f = parse("G[0,20] (Speed < 120)")
        trace = const_trace(GRID20, Speed=100.0)
        with pytest.raises(ValueError):
            auto_fitness(f, trace, 0.0)
        with pytest.raises(ValueError):
            auto_fitness(f, trace, -2.0)


class TestCombine:
    def test_pure_automatic(self):
        assert athena_combine(0.3, -0.8, 1.0) == 0.3

    def test_pure_manual(self):
        assert athena_combine(0.3, -0.8, 0.0) == -0.8

    def test_even_split(self):
        assert athena_combine(0.2, -0.4, 0.5) == pytest.approx(-0.1, abs=1e-15)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            athena_combine(0.1, 0.1, 1.5)
        with pytest.raises(ValueError):
            athena_combine(0.1, 0.1, -0.1)

    def test_rejects_non_finite_parts(self):
        with pytest.raises(ValueError):
            athena_combine(math.inf, 0.0, 0.5)
        with pytest.raises(ValueError):
            athena_combine(0.0, math.nan, 0.5)

    @given(
        fa=st.floats(-1.0, 1.0).map(lambda x: 0.0 if abs(x) < 1e-12 else x),
        fm=st.floats(-1.0, 1.0).map(lambda x: 0.0 if abs(x) < 1e-12 else x),
    )
    @settings(max_examples=80, deadline=None)
    def test_endpoints_exact_and_midpoint_is_mean(self, fa, fm):
        assert athena_combine(fa, fm, 1.0) == fa
        assert athena_combine(fa, fm, 0.0) == fm
        assert athena_combine(fa, fm, 0.5) == (fa + fm) / 2.0

    @given(
        fa=st.floats(-1.0, 1.0),
        fm=st.floats(-1.0, 1.0),
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_parts(self, fa, fm, p):
        got = athena_combine(fa, fm, p)
        assert min(fa, fm) - 1e-12 <= got <= max(fa, fm) + 1e-12


class TestAssessment:
    F_SPEED = parse("G[0,20] (Speed < 120)")

    def cfg(self, **kw):
        defaults = dict(formula=self.F_SPEED, manual=None, p=0.5, auto_scale=120.0)
        defaults.update(kw)
        return FitnessAssessment(**defaults)

    def test_violation_sets_stop(self):
        trace = const_trace(GRID20, Speed=130.0)
        value = assess(self.cfg(), trace)
        assert value.robustness < 0.0
        assert value.robustness == -10.0
        assert value.automatic == -10.0 / 120.0

    def test_near_miss_does_not_stop(self):
        trace = const_trace(GRID20, Speed=119.9)
        value = assess(self.cfg(), trace)
        assert value.robustness > 0.0
        assert value.automatic == pytest.approx(0.1 / 120.0, rel=1e-9)
        assert value.automatic == pytest.approx(0.000833333, rel=1e-5)

    def test_boundary_robustness_zero_no_stop(self):
        trace = const_trace(GRID20, Speed=120.0)
        value = assess(self.cfg(), trace)
        assert value.robustness == 0.0

    def test_stop_implies_violation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            trace = Trace(
                GRID20, {"Speed": rng.uniform(60.0, 180.0, GRID20.n_samples)}
            )
            value = assess(self.cfg(), trace)
            if value.robustness < 0.0:
                assert not satisfied(self.F_SPEED, trace)
            else:
                assert satisfied(self.F_SPEED, trace)

    def test_endpoint_identities_exact(self):
        manual = parse_manual("scale(mean(Speed,[0,20]),[0,200]) - 0.75")
        trace = const_trace(GRID20, Speed=113.7)
        pure_auto = assess(self.cfg(manual=manual, p=1.0), trace)
        assert pure_auto.combined == pure_auto.automatic
        pure_manual = assess(self.cfg(manual=manual, p=0.0), trace)
        assert pure_manual.combined == pure_manual.manual
        assert pure_manual.manual != 0.0

    def test_combined_matches_formula(self):
        manual = parse_manual("scale(mean(Speed,[0,20]),[0,200])")
        trace = const_trace(GRID20, Speed=90.0)
        value = assess(self.cfg(manual=manual, p=0.3), trace)
        expected = 0.3 * value.automatic + 0.7 * value.manual
        assert value.combined == expected

    def test_schedule_midpoint(self):
        cfg = self.cfg(p=1.0, p_schedule=(1.0, 0.0))
        p_eff = cfg.p_effective(150, 300)
        assert p_eff == 1.0 - 150.0 / 299.0
        assert p_eff == pytest.approx(0.4983, abs=1e-4)

    def test_schedule_endpoints(self):
        cfg = self.cfg(p_schedule=(1.0, 0.0))
        assert cfg.p_effective(0, 300) == 1.0
        assert cfg.p_effective(299, 300) == 0.0

    def test_schedule_single_iteration(self):
        cfg = self.cfg(p_schedule=(0.8, 0.2))
        assert cfg.p_effective(0, 1) == 0.8

    def test_no_schedule_uses_static_p(self):
        cfg = self.cfg(p=0.25)
        assert cfg.p_effective(0, 300) == 0.25
        assert cfg.p_effective(299, 300) == 0.25

    def test_assess_uses_schedule(self):
        manual = parse_manual("scale(mean(Speed,[0,20]),[0,200])")
        cfg = self.cfg(manual=manual, p_schedule=(1.0, 0.0))
        trace = const_trace(GRID20, Speed=90.0)
        at_start = assess(cfg, trace, iteration=0, max_iterations=300)
        at_end = assess(cfg, trace, iteration=299, max_iterations=300)
        assert at_start.combined == at_start.automatic
        assert at_end.combined == at_end.manual

    def test_iteration_bounds_checked(self):
        trace = const_trace(GRID20, Speed=90.0)
        with pytest.raises(ValueError):
            assess(self.cfg(), trace, iteration=5, max_iterations=5)
        with pytest.raises(ValueError):
            assess(self.cfg(), trace, iteration=-1, max_iterations=5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.cfg(p=1.2)
        with pytest.raises(ValueError):
            self.cfg(auto_scale=0.0)
        with pytest.raises(ValueError):
            self.cfg(p_schedule=(0.5, 1.3))

    @pytest.mark.parametrize(
        "field, message",
        [
            (dict(auto_scale=math.nan), "auto_scale must be finite, got nan"),
            (dict(auto_scale=math.inf), "auto_scale must be finite, got inf"),
            (dict(auto_scale="2"), "auto_scale must be a number, got '2'"),
            (dict(p="0.5"), "p must be a number, got '0.5'"),
            (dict(p=True), "p must be a number, got True"),
            (dict(p=math.nan), "p must be finite, got nan"),
            (dict(p_schedule=("1", 0.0)), "p_schedule start must be a number, got '1'"),
            (dict(p_schedule=(1.0, False)), "p_schedule end must be a number, got False"),
            (dict(p_schedule=(math.nan, 0.0)), "p_schedule start must be finite, got nan"),
        ],
    )
    def test_numbers_checked(self, field, message):
        with pytest.raises(ValueError) as info:
            self.cfg(**field)
        assert str(info.value) == message

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_auto_fitness_rejects_non_finite_scale(self, scale):
        trace = const_trace(GRID20, Speed=90.0)
        with pytest.raises(ValueError, match="auto_scale must be finite"):
            auto_fitness(self.F_SPEED, trace, scale)
