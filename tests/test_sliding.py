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
from hypothesis import given, settings
from hypothesis import strategies as st

from athena.harness import ExperimentConfig, parse_assumption, resolve
from athena.models import Passthrough, simulate
from athena.search import check_problem, encode_inputs
from athena.stl import robustness, satisfied, semantics

from oracles import robustness_reference, satisfied_reference, sliding_doubling_reference

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
    sim_grid, sim_plant = check_problem(plant, a, problem.fitness, grid)
    if sim_grid is not grid:
        inputs = {name: signal.prefix(sim_grid) for name, signal in inputs.items()}
    return simulate(sim_plant, inputs, sim_grid).trace


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
        problem = resolve(ExperimentConfig(entry="CC2"))
        a = problem.assumption
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert_matches_walk(problem.fitness.formula, scored_trace(problem, rng.uniform(a.lower, a.upper)))

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
