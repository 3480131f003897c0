"""Input samples formed on read, and window extremes from control points.

`interpolate` returns an `InterpolatedSignal` that holds its plan and
coefficients and forms its samples on the first read of `values`, bitwise
the samples of the reference interpolant. A window's max, min or ptp of a
bare input channel is taken from the control points while the samples are
not formed (`InterpolatedSignal.extreme`), and plus 0.0 it has the bits of
the dense reduction.

The CLI digests in `data/cli_digests.json` are those of the `athena
falsify` outputs and the `athena bench --no-timestamp` reports of every
catalog entry from before samples were formed on read. Re-record them,
only when a change of the outputs is intended, from the repository root:

    PYTHONPATH=src python tests/test_lazy_samples.py
"""

import hashlib
import json
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from athena import models, signals
from athena.catalog import catalog_ids
from athena.cli import cli
from athena.fitness import WindowStat, parse_manual
from athena.harness import ExperimentConfig, parse_assumption, resolve
from athena.models import Passthrough
from athena.search import SearchConfig, encode_inputs, falsify
from athena.signals import (
    ControlPoints,
    InterpolatedSignal,
    InterpolationKind,
    Signal,
    TimeGrid,
    WindowStatKind,
    interpolate,
    uniform_control_times,
)
from athena.stl import AtomExpr, Eventually, Globally, Predicate, Trace, robustness
from oracles import interpolate_reference, robustness_reference
from test_overflow_edge import strict_json

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
KINDS = list(InterpolationKind)
EXTREMES = (WindowStatKind.MAX, WindowStatKind.MIN, WindowStatKind.PEAK_TO_PEAK)


def bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def random_signal(kind, grid, seed=0):
    n = 1 if kind is InterpolationKind.CONSTANT else 5
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    cp = ControlPoints(uniform_control_times(grid, n), values)
    return cp, interpolate(cp, kind, grid)


def formed(signal: InterpolatedSignal) -> bool:
    return signal._values is not None


class TestFormedOnRead:
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_interpolate_forms_no_sample(self, kind):
        grid = TimeGrid(10.0, 0.25)
        cp, signal = random_signal(kind, grid)
        assert isinstance(signal, InterpolatedSignal)
        assert not formed(signal)
        with np.errstate(all="ignore"):
            assert np.array_equal(signal.values, interpolate_reference(cp, kind, grid))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_values_read_twice_are_one_read_only_array(self, kind):
        grid = TimeGrid(10.0, 0.25)
        _, signal = random_signal(kind, grid)
        with mock.patch.object(
            type(signal.plan), "samples", autospec=True, side_effect=type(signal.plan).samples
        ) as samples:
            first = signal.values
            second = signal.values
        assert first is second
        assert not first.flags.writeable
        assert samples.call_count == 1

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_prefix_of_a_lazy_signal(self, kind):
        grid = TimeGrid(10.0, 0.25)
        short = TimeGrid(4.0, 0.25)
        cp, signal = random_signal(kind, grid)
        part = signal.prefix(short)
        assert isinstance(part, InterpolatedSignal)
        assert part.plan is signal.plan and part.coefficients is signal.coefficients
        assert not formed(part) and not formed(signal)
        want = interpolate_reference(cp, kind, grid)[: short.n_samples]
        assert np.array_equal(part.values, want)
        # the prefix reads a view of the whole signal's samples, formed once
        assert formed(signal)
        assert np.shares_memory(part.values, signal.values)
        assert not part.values.flags.writeable
        assert np.array_equal(part.prefix(TimeGrid(1.0, 0.25)).values, want[:5])

    @pytest.mark.parametrize("build", ["constructor", "from_rows"])
    def test_trace_holds_the_signal_unformed(self, build):
        grid = TimeGrid(10.0, 0.25)
        cp, signal = random_signal(InterpolationKind.PCHIP, grid)
        if build == "constructor":
            trace = Trace(grid, {"x": signal})
        else:
            trace = Trace.from_rows(grid, ("y",), np.zeros((1, grid.n_samples)), {"x": signal})
        assert not formed(signal)
        assert list(trace.names) == (["x"] if build == "constructor" else ["y", "x"])
        assert not formed(signal)
        assert trace.extreme("x", WindowStatKind.MAX, 0, grid.n_samples - 1) is not None
        assert not formed(signal)
        assert trace.channel("x") is signal.values
        assert np.array_equal(trace.channel("x"), interpolate_reference(cp, InterpolationKind.PCHIP, grid))
        # once formed, the extremes are taken over the samples
        assert trace.extreme("x", WindowStatKind.MAX, 0, grid.n_samples - 1) is None

    def test_channels_forms_every_sample(self):
        grid = TimeGrid(10.0, 0.25)
        _, signal = random_signal(InterpolationKind.LINEAR, grid)
        trace = Trace(grid, {"x": signal})
        assert trace.channels["x"] is signal.values

    def test_past_the_overflow_bound_the_samples_are_formed_and_checked_at_once(self):
        grid = TimeGrid(1.0, 0.25)
        times = [0.0, 0.5, 1.0]
        for kind, value in ((InterpolationKind.LINEAR, 1e308), (InterpolationKind.PCHIP, 5e307)):
            signal = interpolate(ControlPoints(times, [value] * 3), kind, grid)
            assert isinstance(signal, InterpolatedSignal) and formed(signal)
            assert signal.extreme(WindowStatKind.MAX, 0, 4) is None
        with pytest.raises(ValueError, match="finite"):
            interpolate(ControlPoints(times, [1e308, -1e308, 1e308]), InterpolationKind.LINEAR, grid)

    def test_a_cc1_run_forms_no_input_sample(self):
        problem = resolve(ExperimentConfig(entry="CC1"))
        # the first simulation builds K from the plans' basis samples
        args = (problem.plant, problem.assumption, problem.fitness)
        falsify(*args, SearchConfig(seed=1, max_iterations=1), problem.grid)
        failing = mock.patch.object(
            signals._PchipPlan, "samples", side_effect=AssertionError("sampled")
        )
        with failing:
            result = falsify(*args, SearchConfig(seed=1, max_iterations=30), problem.grid)
        assert result.found
        case = result.failure
        controls = problem.assumption.control_points(case.vector, problem.grid)
        for port in problem.assumption.ports:
            want = interpolate_reference(controls[port.port], port.kind, problem.grid)
            assert np.array_equal(case.inputs[port.port].values, want)


PASSTHROUGH = dict(
    plant=Passthrough(),
    formula_text="G[0,20] (y < 0.9)",
    manual_text="scale(ptp(x,[0,20]),[0,1])",
    assumption=parse_assumption("x:linear:0,1:5"),
    step=0.1,
)


class TestFalsifyingInputs:
    """A falsifying test case's inputs, read after the run, are bitwise the
    reference interpolants of its control points."""

    @pytest.mark.parametrize(
        "entry, seed",
        [("CC1", 1), ("CC2", 0), ("CC3", 0), ("CC4", 0), ("CC5", 0), ("AT1", 4), (None, 0)],
        ids=["CC1", "CC2", "CC3", "CC4", "CC5", "AT1", "passthrough"],
    )
    def test_inputs_are_the_reference_samples(self, entry, seed):
        cfg = ExperimentConfig(entry=entry) if entry else ExperimentConfig(**PASSTHROUGH)
        problem = resolve(cfg)
        search = SearchConfig(seed=seed, max_iterations=60)
        result = falsify(problem.plant, problem.assumption, problem.fitness, search, problem.grid)
        assert result.found
        case = result.failure
        controls = problem.assumption.control_points(case.vector, problem.grid)
        for port in problem.assumption.ports:
            signal = case.inputs[port.port]
            want = interpolate_reference(controls[port.port], port.kind, problem.grid)
            assert np.array_equal(signal.values, want)
            assert signal.values is signal.values


class TestComposedOnce:
    def test_cc4_forms_its_gap_once_per_candidate(self):
        # CC4 reads y5 - y4 in its formula and in min(y5 - y4,[0,100]):
        # one product by the composed operator serves both
        problem = resolve(ExperimentConfig(entry="CC4"))
        args = (problem.plant, problem.assumption, problem.fitness)
        falsify(*args, SearchConfig(seed=0, max_iterations=1), problem.grid)  # builds K
        with mock.patch.object(models.np, "matmul", wraps=np.matmul) as matmul:
            result = falsify(*args, SearchConfig(seed=0, max_iterations=1), problem.grid)
        assert result.iterations_used == 1
        assert matmul.call_count == 1


# -- sparse extremes ---------------------------------------------------------

EDGE = 4.0e307
POOL = [0.0, -0.0, 0.1, 1.0 / 3.0, 0.7, -2.5, 1e-310, 123.456]


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(KINDS))
    step = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))
    grid = TimeGrid(draw(st.integers(1, 240)) * step, step)
    if kind is InterpolationKind.CONSTANT:
        n = 1
    else:
        n = draw(st.integers(kind.min_points, min(9, grid.n_samples + 2)))
    if n == 1 or draw(st.booleans()):
        try:
            times = uniform_control_times(grid, n)
        except ValueError:
            assume(False)
    else:
        inner = draw(
            st.lists(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=n - 2, max_size=n - 2, unique=True,
            )
        )
        times = [0.0, *sorted(f * grid.end for f in inner), grid.end]
        assume(all(b > a for a, b in zip(times, times[1:])))
    style = draw(st.sampled_from(["pool", "box", "edge", "wide"]))
    if style == "pool":
        # flat runs at non-round values and signed zeros
        values = draw(st.lists(st.sampled_from(POOL), min_size=n, max_size=n))
    elif style == "box":
        # proposals clipped to a box, as the search clips them
        lo, hi = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2, unique=True)))
        raw = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
        values = np.clip(raw, lo, hi).tolist()
    elif style == "edge":
        values = draw(
            st.lists(st.sampled_from([EDGE, -EDGE, 1e308, -1e308, 0.0, 1.0]), min_size=n, max_size=n)
        )
    else:
        values = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=n, max_size=n))
    lo = draw(st.integers(0, grid.n_samples - 1))
    hi = draw(st.integers(lo, grid.n_samples - 1))
    return kind, grid, ControlPoints(times, values), lo, hi


class TestSparseExtremes:
    """Each sparse max, min and ptp, plus 0.0, is bitwise the reduction of
    the reference samples over the window."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(problems())
    # on the CC1 grid: the sample next to a pchip run's larger end beats
    # the best sample so far (`_PchipPlan.largest`)
    @example(
        (
            InterpolationKind.PCHIP,
            TimeGrid(100.0, 0.05),
            ControlPoints(
                uniform_control_times(TimeGrid(100.0, 0.05), 7),
                [0.0, 1 / 3, 0.55, 0.7, 0.0, 0.9, 0.9],
            ),
            1693,
            1747,
        )
    )
    def test_bitwise_the_dense_reduction(self, problem):
        kind, grid, cp, lo, hi = problem
        with np.errstate(all="ignore"):
            try:
                signal = interpolate(cp, kind, grid)
            except ValueError:
                assume(False)
            want = interpolate_reference(cp, kind, grid)[lo : hi + 1]
        for stat in EXTREMES:
            fresh = interpolate(cp, kind, grid)
            got = fresh.extreme(stat, lo, hi) if isinstance(fresh, InterpolatedSignal) else None
            if got is None:
                # the samples were formed at once, past the overflow bound
                assert not isinstance(fresh, InterpolatedSignal) or formed(fresh)
                continue
            with np.errstate(over="ignore"):
                dense = stat.of(want)
            assert bits(got + 0.0) == bits(dense + 0.0), (stat, got, dense)
            assert not formed(fresh)
        with np.errstate(all="ignore"):
            assert np.array_equal(signal.values, interpolate_reference(cp, kind, grid))

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_fewest_points_and_cut_windows(self, kind):
        grid = TimeGrid(3.0, 0.1)
        n = kind.min_points
        rng = np.random.default_rng(5)
        for _ in range(30):
            cp = ControlPoints(uniform_control_times(grid, n), rng.uniform(-3.0, 3.0, n))
            ref = interpolate_reference(cp, kind, grid)
            for lo, hi in [(0, 30), (3, 27), (14, 16), (7, 7), (0, 0), (30, 30)]:
                for stat in EXTREMES:
                    got = interpolate(cp, kind, grid).extreme(stat, lo, hi)
                    assert bits(got + 0.0) == bits(stat.of(ref[lo : hi + 1]) + 0.0)

    @pytest.mark.parametrize("entry", ["CC1", "CC2", "CC3"])
    def test_manual_windows_agree_on_catalog_candidates(self, entry):
        # a window over a lazy input, and over a plain signal of the same
        # samples, give the same bits
        problem = resolve(ExperimentConfig(entry=entry))
        a, grid = problem.assumption, problem.grid
        rng = np.random.default_rng(8)
        windows = [
            WindowStat(parse_manual(f"max({p.port},[0,1])").channel, stat, window)
            for p in a.ports
            for stat in WindowStatKind
            for window in [(0.0, grid.end), (13.3, 61.7), (50.0, 50.0 + grid.step)]
        ]
        for _ in range(40):
            vector = np.clip(rng.uniform(a.lower - 0.3, a.upper + 0.3), a.lower, a.upper)
            controls = a.control_points(vector, grid)
            samples = encode_inputs(a, controls, grid)
            plain = Trace(grid, {n: Signal(grid, s.values) for n, s in samples.items()})
            for w in windows:
                lazy = Trace(grid, encode_inputs(a, controls, grid))
                assert bits(w.evaluate(lazy)) == bits(w.evaluate(plain))


class TestOneSampleOperators:
    """G or F read at one sample directly over a bare input reads its
    window's extreme as a manual window does (`AtomExpr.statistic`): from
    the control points, forming no sample, with the bits of a plain trace
    of the same samples and of the whole-trace walk."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_bitwise_a_plain_trace_and_no_sample_formed(self, kind):
        grid = TimeGrid(10.0, 0.25)
        n = 1 if kind is InterpolationKind.CONSTANT else 5
        rng = np.random.default_rng(13)
        x = AtomExpr((("x", 1.0),))
        for _ in range(25):
            cp = ControlPoints(uniform_control_times(grid, n), rng.uniform(-2.0, 2.0, n))
            samples = interpolate(cp, kind, grid).values
            plain = Trace(grid, {"x": Signal(grid, samples)})
            a = float(rng.uniform(0.0, 9.0))
            b = float(rng.uniform(a + grid.step, grid.end))
            # a sample's value makes ties, and each zero has its sign
            for bound in (float(rng.choice(samples)), 0.0, -0.0, float(rng.uniform(-2.0, 2.0))):
                for op in (Globally, Eventually):
                    for cmp in ("<=", ">=", "<", ">"):
                        f = op(a, b, Predicate(x, cmp, bound))
                        signal = interpolate(cp, kind, grid)
                        got = robustness(f, Trace(grid, {"x": signal}))
                        assert not formed(signal), f
                        for want in (robustness(f, plain), robustness_reference(f, plain)):
                            assert struct.pack("<d", got) == struct.pack("<d", want), f


# -- CLI outputs -------------------------------------------------------------

# (seed, budget) of each entry's `athena falsify` run: a seed that finds a
# failure within the budget where one does, so its inputs CSV is written
FALSIFY_RUNS = {"AT1": (4, 60), "CC1": (1, 60)}


def cli_digests(tmp: Path) -> dict[str, str]:
    """sha256 of every output file of one `athena falsify` run and one
    `athena bench --no-timestamp` run per catalog entry."""
    out = {}
    for entry in catalog_ids():
        seed, budget = FALSIFY_RUNS.get(entry, (0, 60))
        base = tmp / f"falsify-{entry}"
        cli(["falsify", "--catalog", entry, "--seed", str(seed),
             "--max-iters", str(budget), "--out", str(base)])
        config = tmp / f"{entry}.json"
        config.write_text(json.dumps(
            {"entry": entry, "repetitions": 2, "base_seed": seed, "search": {"max_iterations": 30}}
        ))
        cli(["bench", "--config", str(config), "--no-timestamp", "--out", str(tmp / f"bench-{entry}")])
    for path in sorted(tmp.iterdir()):
        if path.suffix in (".json", ".csv") and path.name.startswith(("falsify-", "bench-")):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())
    got = cli_digests(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
    assert any(name.endswith(".inputs.csv") for name in got)
    # every JSON output is strict JSON: no NaN or Infinity constant
    for name in got:
        if name.endswith(".json"):
            strict_json((tmp_path / name).read_text())


if __name__ == "__main__":
    import tempfile
    import contextlib
    import io

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = cli_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
