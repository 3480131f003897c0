"""The sliding min and max of `stl.semantics._sliding` against the doubling.

`_sliding` folds a run's window ends and turns when the run has few turns
and doubles otherwise; both must give the bits of the doubling it began
with (`oracles.sliding_doubling_reference`), signed zeros and ties
included. Robustness and satisfaction of nested formulas on encoded
traces must equal the whole-trace walk.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.harness import ExperimentConfig, parse_assumption, resolve
from athena.models import Passthrough, simulate
from athena.search import check_problem, encode_inputs
from athena.signals import TimeGrid
from athena.errors import HorizonError
from athena.stl import (
    And,
    AtomExpr,
    Eventually,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
    Trace,
    parse,
    formula_samples,
    robustness,
    satisfied,
    semantics,
)

from oracles import (
    ref_margin,
    robustness_reference,
    satisfied_reference,
    sliding_doubling_reference,
)

PASSTHROUGH = (
    "G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1))) and G[0,100] (F[0,20] (y <= 2))"
)
# zero margins of y on a 0.5 plateau: +0.0 from one predicate, -0.0 from
# the negation of the other, so the windows above fold mixed zeros
SIGNED_ZEROS = "G[0,70] (not (F[0,30] (G[0,20] (y >= 0.5) and not (G[0,20] (y <= 0.5)))))"

# control values that make plateaus, ties and zeros
LEVELS = [-1.0, -0.0, 0.0, 0.5, 1.0]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_zeros(arr, rng):
    """`arr` with each zero given a random sign."""
    signs = rng.choice([0.0, -0.0], len(arr))
    return np.where(arr == 0.0, signs, arr)


def linear(values, n):
    """`values` at uniform control times, interpolated linearly over n
    samples, as `interpolate` builds a linear port."""
    return np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, len(values)), values)


@st.composite
def arrays(draw, n):
    kind = draw(st.sampled_from(["linear", "plateaus", "constant", "zeros", "flags", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "linear":
        k = draw(st.integers(2, 8))
        values = draw(st.lists(st.sampled_from(LEVELS) | st.floats(-2, 2), min_size=k, max_size=k))
        return mixed_zeros(linear(values, n), rng)
    if kind == "plateaus":
        return mixed_zeros(np.repeat(rng.choice(LEVELS, n), rng.integers(1, 6, n))[:n], rng)
    if kind == "constant":
        return np.full(n, draw(st.sampled_from([0.0, -0.0, 1.5])))
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "flags":
        # as `satisfied` passes them
        return (linear(rng.uniform(-1, 1, 6), n) > 0).astype(np.uint8)
    return rng.uniform(-1.0, 1.0, n)


@st.composite
def windows(draw):
    """An array and a window over it: (arr, k_lo, k_hi, out_len)."""
    n = draw(st.integers(2, 300))
    arr = draw(arrays(n))
    w = min(draw(st.sampled_from([1, 2, 3, n - 1]) | st.integers(1, n)), n)
    k_lo = draw(st.sampled_from([0, n - w]) | st.integers(0, n - w))
    longest = n - k_lo - w + 1
    out_len = draw(st.sampled_from([1, longest]) | st.integers(1, longest))
    return arr, k_lo, k_lo + w - 1, out_len


class TestSlidingMatchesDoubling:
    @settings(max_examples=400, deadline=None)
    @given(case=windows(), take_min=st.booleans())
    def test_both_paths(self, case, take_min):
        arr, k_lo, k_hi, out_len = case
        want = sliding_doubling_reference(arr, k_lo, k_hi, out_len, take_min)
        assert same_bits(semantics._sliding(arr, k_lo, k_hi, out_len, take_min), want)
        # the turns path forced, on windows of every length
        run = arr[k_lo : k_hi + out_len]
        combine = np.minimum if take_min else np.maximum
        turns = semantics._turns(run, take_min)
        folded = semantics._fold(run, k_hi - k_lo + 1, out_len, combine, turns)
        assert same_bits(folded, want)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.sampled_from(LEVELS) | st.floats(-2, 2), min_size=2, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        w=st.sampled_from([2001, 3001]),
        k_lo=st.sampled_from([0, 500]),
        take_min=st.booleans(),
        flags=st.booleans(),
    )
    def test_long_runs_take_the_turns(self, values, seed, w, k_lo, take_min, flags):
        # a few control points over a passthrough-length grid: few turns
        arr = mixed_zeros(linear(values, 12001), np.random.default_rng(seed))
        if flags:
            arr = (arr > 0.0).astype(np.uint8)
        k_hi = k_lo + w - 1
        out_len = len(arr) - k_hi
        want = sliding_doubling_reference(arr, k_lo, k_hi, out_len, take_min)
        before = arr.copy()
        with mock.patch.object(semantics, "_fold", wraps=semantics._fold) as fold:
            got = semantics._sliding(arr, k_lo, k_hi, out_len, take_min)
        assert fold.call_count == 1
        assert same_bits(got, want)
        # the fold writes its own array, not the input
        assert same_bits(arr, before)

    def test_noise_takes_the_doubling(self):
        arr = np.random.default_rng(0).uniform(0.0, 1.0, 12001)
        with mock.patch.object(semantics, "_fold", wraps=semantics._fold) as fold:
            got = semantics._sliding(arr, 0, 2000, 10001, True)
        assert fold.call_count == 0
        assert same_bits(got, sliding_doubling_reference(arr, 0, 2000, 10001, True))

    def test_nan_takes_the_doubling(self):
        # a NaN is never a turn; the doubling spreads it to every window
        arr = linear([0.0, 1.0, -1.0, 2.0], 12001)
        arr[5000] = np.nan
        for take_min in (True, False):
            with mock.patch.object(semantics, "_fold", wraps=semantics._fold) as fold:
                got = semantics._sliding(arr, 0, 2000, 10001, take_min)
            assert fold.call_count == 0
            want = sliding_doubling_reference(arr, 0, 2000, 10001, take_min)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.isnan(got[3000:5001]).all()

    def test_ties_return_the_rightmost_sample(self):
        # np.minimum(0.0, -0.0) is -0.0: the second operand wins a tie
        assert math.copysign(1.0, np.minimum(0.0, -0.0)) == -1.0
        assert math.copysign(1.0, np.maximum(-0.0, 0.0)) == 1.0
        run = np.array([1.0, 0.0, -0.0, 1.0, 2.0, -0.0, 0.0, 3.0])
        for take_min in (True, False):
            combine = np.minimum if take_min else np.maximum
            for w in range(1, len(run) + 1):
                out_len = len(run) - w + 1
                want = sliding_doubling_reference(run, 0, w - 1, out_len, take_min)
                turns = semantics._turns(run, take_min)
                assert same_bits(semantics._fold(run, w, out_len, combine, turns), want)


def passthrough_problem(formula):
    return resolve(
        ExperimentConfig(
            plant=Passthrough(),
            formula_text=formula,
            assumption=parse_assumption("x:linear:0,1:9"),
            auto_scale=2.0,
            step=0.01,
        )
    )


def scored_trace(problem, vector):
    """The trace `falsify` scores for one candidate vector."""
    a, grid, plant = problem.assumption, problem.grid, problem.plant
    inputs = encode_inputs(a, a.control_points(vector, grid), grid)
    sim_grid = check_problem(plant, a, problem.fitness, grid)
    if sim_grid is not grid:
        inputs = {name: signal.prefix(sim_grid) for name, signal in inputs.items()}
    return simulate(plant, inputs, sim_grid).trace


def assert_matches_walk(f, trace):
    rho = robustness(f, trace)
    assert same_bits(rho, robustness_reference(f, trace))
    assert satisfied(f, trace) is satisfied_reference(f, trace)
    return rho


class TestNestedFormulasMatchTheWalk:
    def test_encoded_passthrough_takes_the_turns(self):
        problem = passthrough_problem(PASSTHROUGH)
        a = problem.assumption
        rng = np.random.default_rng(0)
        for _ in range(5):
            trace = scored_trace(problem, rng.uniform(a.lower, a.upper))
            with (
                mock.patch.object(semantics, "_fold", wraps=semantics._fold) as fold,
                mock.patch.object(semantics, "_doubling", wraps=semantics._doubling) as doubling,
            ):
                robustness(problem.fitness.formula, trace)
            # G[0,20], F[0,30] and F[0,20], each read at more than one sample
            assert (fold.call_count, doubling.call_count) == (3, 0)
            assert_matches_walk(problem.fitness.formula, trace)

    def test_cc2_candidates(self):
        # on the superposed trace the search scores, y5 - y4 is one composed
        # product that the walk's per-channel sum rounds otherwise (see
        # tests/test_superposition.py); a trace of the same channel values
        # sums them per channel, as the walk does
        problem = resolve(ExperimentConfig(entry="CC2"))
        a = problem.assumption
        rng = np.random.default_rng(2)
        for _ in range(50):
            scored = scored_trace(problem, rng.uniform(a.lower, a.upper))
            assert_matches_walk(problem.fitness.formula, Trace(scored.grid, scored.channels))

    def test_not_wrapped_zero_margins(self):
        problem = passthrough_problem(SIGNED_ZEROS)
        rng = np.random.default_rng(0)
        zeros = set()
        for _ in range(40):
            trace = scored_trace(problem, rng.choice([0.25, 0.5, 0.75], problem.assumption.dim))
            rho = assert_matches_walk(problem.fitness.formula, trace)
            if rho == 0.0:
                zeros.add(math.copysign(1.0, rho))
        # both signs of a zero result occur among these candidates
        assert zeros == {1.0, -1.0}


STEP = 0.01
# y - 2x overflows to -inf where 2x does; with x = y past 0.9e308 the
# margin of 2y - 2x is inf - inf, NaN
FUZZ_EXPRESSIONS = [
    AtomExpr((("y", 1.0),)),
    AtomExpr((("y", 1.0), ("x", -0.5))),
    AtomExpr((("y", -1.0),), 0.5),
]
OVERFLOW = AtomExpr((("y", 2.0), ("x", -2.0)))


@st.composite
def fuzz_formulas(draw, depth, overflow):
    """A formula of G, F, and, or, ->, not over predicates on y and x, at
    most `depth` deep; each window starts k_lo >= 1 samples after t and
    is 1, 2, 3 or many samples long."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        expr = draw(st.sampled_from(FUZZ_EXPRESSIONS))
        if overflow and draw(st.booleans()):
            expr = OVERFLOW
        cmp = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return Predicate(expr, cmp, draw(st.sampled_from([0.0, -0.0, 0.0, -0.0, 0.5, -1.0])))
    kind = draw(st.sampled_from(["G", "F", "G", "F", "and", "or", "->", "not"]))
    if kind in ("G", "F"):
        return fuzz_window(draw, kind, draw(fuzz_formulas(depth - 1, overflow)))
    if kind == "not":
        return Not(draw(fuzz_formulas(depth - 1, overflow)))
    left = draw(fuzz_formulas(depth - 1, overflow))
    right = draw(fuzz_formulas(depth - 1, overflow))
    return {"and": And, "or": Or, "->": Implies}[kind](left, right)


def fuzz_window(draw, kind, child):
    k_lo = draw(st.integers(1, 3))
    w = draw(st.sampled_from([1, 2, 3, 0, 0]))
    w = w or draw(st.integers(100, 600))
    return (Globally if kind == "G" else Eventually)(k_lo * STEP, (k_lo + w - 1) * STEP, child)


def fuzz_channel(kind, n, rng):
    """Samples that are piecewise linear, piecewise constant (plateaus and
    ties), or a mix of both signs of zero, with each zero's sign drawn."""
    k = int(rng.integers(2, 9))
    if kind == "linear":
        values = linear(rng.choice(LEVELS + list(rng.uniform(-2, 2, 3)), k), n)
    elif kind == "plateaus":
        # zeros most of all, so that tied zeros of both signs meet
        values = np.repeat(rng.choice(LEVELS + [0.0, 0.0], k), -(-n // k))[:n]
    else:
        values = rng.choice([0.0, -0.0], n)
    return mixed_zeros(values, rng)


class TestNestedFormulasFuzz:
    """Robustness of random nested formulas, through the folds or the
    doubling, is bitwise the whole-trace walk, and satisfaction is the
    walk's, on traces of 5-30 s at step 0.01."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        overflow=st.integers(0, 9).map(lambda k: k == 0),
        seed=st.integers(0, 2**32 - 1),
        cheap_calls=st.integers(0, 3).map(bool),
    )
    def test_matches_the_walk(self, data, overflow, seed, cheap_calls):
        # two windows on top, so that every window below the root slides
        f = data.draw(fuzz_formulas(data.draw(st.integers(0, 2)), overflow))
        for _ in range(2):
            f = fuzz_window(data.draw, data.draw(st.sampled_from(["G", "F"])), f)
        rng = np.random.default_rng(seed)
        n = min(max(formula_samples(f, STEP) + int(rng.integers(0, 3)), 501), 3001)
        if formula_samples(f, STEP) > n:
            return
        trace = Trace(TimeGrid((n - 1) * STEP, STEP), {
            "y": fuzz_channel(data.draw(st.sampled_from(["linear", "plateaus", "zeros"])), n, rng),
            "x": fuzz_channel(data.draw(st.sampled_from(["linear", "plateaus", "zeros"])), n, rng),
        })
        if overflow:
            # 2y and 2x past the float maximum from 0.6 of the trace on
            ramp = linear([0.0, 1.5e308], n)
            trace = Trace(trace.grid, {"y": ramp, "x": ramp.copy()})
        # in three examples of four a numpy call priced at no samples
        # makes the fold pay on more windows, and every mask be built
        with mock.patch.object(semantics, "_CALL", 0 if cheap_calls else semantics._CALL):
            rho = robustness(f, trace)
            holds = satisfied(f, trace)
        with np.errstate(over="ignore", invalid="ignore"):
            want = robustness_reference(f, trace)
            assert same_bits(rho, want), str(f)
            assert holds is satisfied_reference(f, trace), str(f)


# nested formulas whose windows slide over few turns, and fold
HORIZON_FORMULAS = [
    "G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1))) and G[0,100] (F[0,20] (y <= 2))",
    "F[1,5] (not (G[0,30] (F[2,40] (y >= 0.5))) or G[0,10] (x - y < 0.25))",
    "G[0,20] ((F[0,30] (y <= 0.5)) -> (G[5,35] (x >= 0.25)))",
]


class TestHorizonBoundary:
    """On the fold path, a trace exactly `formula_samples` long reads the
    walk's value, and one sample shorter raises the walk's HorizonError,
    which names the deepest operator that gives no sample."""

    @pytest.mark.parametrize("text", HORIZON_FORMULAS)
    def test_exact_and_one_short(self, text):
        f = parse(text)
        need = formula_samples(f, STEP)
        rng = np.random.default_rng(len(text))
        for n in (need, need - 1):
            grid = TimeGrid((n - 1) * STEP, STEP)
            trace = Trace(grid, {
                "y": linear(rng.uniform(0.0, 1.0, 9), n),
                "x": linear(rng.uniform(0.0, 1.0, 9), n),
            })
            if n == need:
                with mock.patch.object(semantics, "_fold", wraps=semantics._fold) as folds:
                    rho = robustness(f, trace)
                assert folds.call_count > 0
                assert same_bits(rho, robustness_reference(f, trace))
                assert satisfied(f, trace) is satisfied_reference(f, trace)
                continue
            with pytest.raises(HorizonError) as got:
                robustness(f, trace)
            with pytest.raises(HorizonError) as want:
                robustness_reference(f, trace)
            assert str(got.value) == str(want.value)
            with pytest.raises(HorizonError) as holds:
                satisfied(f, trace)
            assert str(holds.value) == str(want.value)


# bare, up to a signed zero constant, multiplied, and two-term expressions
MARGIN_EXPRESSIONS = [
    AtomExpr((("y", 1.0),)),
    AtomExpr((("y", 1.0),), -0.0),
    AtomExpr((("y", -1.0),)),
    AtomExpr((("y", 2.0),)),
    AtomExpr((("y", 1.0), ("x", -1.0))),
    AtomExpr((("y", 1.0), ("x", 1.0)), -0.0),
    AtomExpr((("y", 0.5), ("x", -0.5)), 0.5),
    AtomExpr((("y", 1.0),), 0.0, True),
]


def nested(p, shape, a, b):
    """A formula over predicate p that reads it at one sample, through
    one window, through two sliding windows, or beside a negated window."""
    if shape == 0:
        return p
    if shape == 1:
        return Globally(a, a + b, p)
    if shape == 2:
        return Globally(0.0, b, Eventually(a, a + b, p))
    return Eventually(0.0, b, Or(Not(Globally(0.0, a + 1, p)), p))


class TestMarginsUpToTheSignOfZero:
    """A margin reads its expression without adding a zero constant where
    that cannot change a bit; robustness and satisfaction still equal the
    whole-trace walk, bitwise, on channels full of signed zeros."""

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(16, 40),
        expr=st.sampled_from(MARGIN_EXPRESSIONS),
        cmp=st.sampled_from(["<", "<=", ">", ">="]),
        bound=st.sampled_from([0.0, -0.0, 0.5, -1.0]),
        shape=st.integers(0, 3),
        a=st.integers(0, 3),
        b=st.integers(1, 5),
    )
    def test_matches_the_walk(self, data, n, expr, cmp, bound, shape, a, b):
        level = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0])
        y, x = (np.array(data.draw(st.lists(level, min_size=n, max_size=n))) for _ in "yx")
        trace = Trace(TimeGrid(n - 1.0, 1.0), {"y": y, "x": x})
        f = nested(Predicate(expr, cmp, bound), shape, float(a), float(b))
        assert same_bits(robustness(f, trace), robustness_reference(f, trace)), str(f)
        assert satisfied(f, trace) is satisfied_reference(f, trace)

    @given(cmp=st.sampled_from(["<", "<=", ">", ">="]), bound=st.sampled_from([0.0, -0.0, 0.5]))
    def test_bare_channel_margin_reads_the_view(self, cmp, bound):
        # a bare channel is subtracted from its read-only view, never copied
        y = np.array([0.0, -0.0, 1.0, -0.0, 0.5, 0.0])
        trace = Trace(TimeGrid(5.0, 1.0), {"y": y})
        pred = Predicate(AtomExpr((("y", 1.0),)), cmp, bound)
        calls = []
        values = AtomExpr.values

        def counted(self, *args):
            calls.append(self)
            return values(self, *args)

        with mock.patch.object(AtomExpr, "values", counted):
            margin = semantics._margin(pred, trace, 6)
        zero_sign_matters = bound == 0.0 and (math.copysign(1.0, bound) < 0.0) == (cmp in ("<", "<="))
        assert len(calls) == int(zero_sign_matters)
        assert not trace.channel("y").flags.writeable
        assert same_bits(margin, ref_margin(pred, y + 0.0))


class TestNaNScan:
    """Only a predicate with a number that is not finite, or over two or
    more terms one of which has a coefficient above 1 in size, can put a
    NaN into a margin; only its windows scan for one."""

    def test_overflowing_two_term_atom_takes_the_doubling(self):
        # 2y and 2x overflow to inf past 0.9e308, and inf - inf is NaN; the
        # rest of the margin is 1, with no turn
        grid = TimeGrid(40.0, 0.01)
        ramp = linear([0.0, 1.5e308], grid.n_samples)
        trace = Trace(grid, {"y": ramp, "x": ramp.copy()})
        f = parse("G[0,20] (F[0,20] (2 * y - 2 * x >= -1))")
        seen = []
        sliding = semantics._sliding

        def recorded(*args):
            out = sliding(*args)
            seen.append((args, out))
            return out

        with (
            mock.patch.object(semantics, "_sliding", side_effect=recorded),
            mock.patch.object(semantics, "_fold", wraps=semantics._fold) as fold,
            mock.patch.object(semantics, "_doubling", wraps=semantics._doubling) as doubling,
            np.errstate(invalid="ignore"),
        ):
            rho = robustness(f, trace)
        (args, out), = seen
        assert args[5] is True
        assert (fold.call_count, doubling.call_count) == (0, 1)
        assert np.isnan(args[0]).any() and math.isnan(rho)
        assert same_bits(out, sliding_doubling_reference(*args[:5]))

    @pytest.mark.parametrize(
        "text, scans",
        [
            ("G[0,70] (F[0,30] (G[0,20] (y >= -1)))", False),
            ("G[0,70] (F[0,30] (G[0,20] (not (2 * y <= 3))))", False),
            ("G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1)))", False),
            ("G[0,70] (F[0,30] (G[0,20] (2 * y - 3 * x >= -1)))", True),
        ],
    )
    def test_only_an_overflowing_sum_scans(self, text, scans):
        problem = passthrough_problem(text)
        a = problem.assumption
        trace = scored_trace(problem, np.random.default_rng(3).uniform(a.lower, a.upper))
        f = problem.fitness.formula
        with (
            mock.patch.object(math, "isnan", wraps=math.isnan) as isnan,
            mock.patch.object(semantics, "_fold", wraps=semantics._fold) as fold,
        ):
            rho = robustness(f, trace)
        # F[0,30] and G[0,20] slide over a few turns, and fold
        assert fold.call_count == 2
        assert isnan.call_count == (2 if scans else 0)
        assert same_bits(rho, robustness_reference(f, trace))

    def test_flags_follow_the_predicates(self):
        f = parse("G[0,1] (F[0,1] (y <= 2)) and F[0,1] (not (G[0,1] (2 * y - 3 * x >= 0)))")
        plan = semantics._plan(f, 0.5)
        assert plan.nan and not plan.left.nan and plan.right.nan
        assert not plan.left.child.child.nan
        assert plan.right.child.child.child.nan
        # terms with coefficients at most 1 in size sum to an infinity at most
        for text in ("y - x >= 0", "y - 0.5 * x + x >= 0", "0 - y - x <= 1"):
            assert not semantics._plan(parse(text), 0.5).nan, text
        inf_bound = Globally(0.0, 1.0, Predicate(AtomExpr((("y", 1.0),)), "<", math.inf))
        assert semantics._plan(inf_bound, 0.5).nan

    @pytest.mark.parametrize(
        "text",
        [
            "G[0.01,3.05] (2 * y - 2 * x < 0)",
            "F[0.01,3.05] (2 * y - 2 * x >= 0)",
            "G[0,0.5] (F[0.01,3.05] (2 * y - 2 * x < 0))",
        ],
    )
    def test_a_nan_read_at_one_sample_has_the_walks_bits(self, text):
        # the window's extreme of the expression, and numpy's min or max of
        # the margin, give a NaN of the other sign than inf - inf's, which
        # the walk spreads
        grid = TimeGrid(4.0, 0.01)
        ramp = linear([0.0, 1.5e308], grid.n_samples)
        trace = Trace(grid, {"y": ramp, "x": ramp.copy()})
        f = parse(text)
        with np.errstate(over="ignore", invalid="ignore"):
            rho = robustness(f, trace)
            want = robustness_reference(f, trace)
        assert math.isnan(want)
        assert same_bits(rho, want)
