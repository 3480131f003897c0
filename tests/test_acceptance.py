"""Acceptance gate: one test per shipping criterion.

Each test prints a single `criterion N (...): PASS` line when it
succeeds; a failed criterion shows up as the test's FAILED line. Run
with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import time

import numpy as np

from athena.catalog import catalog, catalog_ids
from athena.fitness import FitnessAssessment, assess, auto_fitness, manual_fitness
from athena.harness import (
    ExperimentConfig,
    compare_reports,
    config_from_dict,
    parse_assumption,
    rank_sum,
    run_experiment,
)
from athena.models import Passthrough, simulate
from athena.search import SearchConfig, encode_inputs, falsify
from athena.signals import ControlPoints, InterpolationKind, TimeGrid, interpolate
from athena.stl import Trace, formula_horizon, parse, robustness, satisfied

from oracles import naive_robustness, naive_satisfied, pchip_oracle, rank_sum_brute

CHANNELS = ("a", "b", "c")


def _passed(n, label):
    print(f"criterion {n} ({label}): PASS")


def random_formula_text(rng, depth):
    """Random formula string of nesting depth at most `depth`."""
    if depth == 0 or rng.uniform() < 0.3:
        lhs = rng.choice(CHANNELS)
        if rng.uniform() < 0.4:
            lhs = f"{lhs} - {rng.choice(CHANNELS)}"
        op = rng.choice(["<", "<=", ">", ">="])
        bound = round(float(rng.uniform(-8.0, 8.0)), 3)
        return f"{lhs} {op} {bound}"
    kind = rng.choice(["not", "and", "or", "->", "G", "F"])
    if kind == "not":
        return f"not ({random_formula_text(rng, depth - 1)})"
    if kind in ("and", "or", "->"):
        a = random_formula_text(rng, depth - 1)
        b = random_formula_text(rng, depth - 1)
        return f"({a}) {kind} ({b})"
    t1 = int(rng.integers(0, 4))
    t2 = t1 + int(rng.integers(0, 5))
    return f"{kind}[{t1},{t2}] ({random_formula_text(rng, depth - 1)})"


def test_criterion_1_robustness_matches_oracle():
    """1000 random formula/trace pairs agree bit-for-bit with the oracle."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    nonzero = 0
    for _ in range(1000):
        f = parse(random_formula_text(rng, depth=int(rng.integers(1, 5))))
        h = formula_horizon(f)
        n = int(rng.integers(max(int(h) + 1, 2), 101))
        grid = TimeGrid(float(n - 1), 1.0)
        if rng.uniform() < 0.3:
            values = {ch: rng.integers(-3, 4, n).astype(float) for ch in CHANNELS}
        else:
            values = {ch: rng.uniform(-10.0, 10.0, n) for ch in CHANNELS}
        tr = Trace(grid, values)
        rho = robustness(f, tr)
        assert rho == naive_robustness(f, tr)
        sat = satisfied(f, tr)
        assert sat == naive_satisfied(f, tr)
        if rho != 0.0:
            nonzero += 1
            assert (rho > 0.0) == sat
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert nonzero > 900
    _passed(1, "robustness oracle, 1000 pairs")


def test_criterion_2_combination_identities():
    """Blend reduces exactly to each part at p=1 / p=0 and is affine in p."""
    entries = [catalog(i) for i in catalog_ids()]
    plants = {e.id: e.make_plant() for e in entries}
    rng = np.random.default_rng(202)
    for k in range(200):
        e = entries[k % len(entries)]
        grid = e.grid()
        vector = rng.uniform(e.assumption.lower, e.assumption.upper)
        controls = e.assumption.control_points(vector, grid)
        inputs = encode_inputs(e.assumption, controls, grid)
        trace = simulate(plants[e.id], inputs, grid).trace

        def value_at(p):
            cfg = FitnessAssessment(
                formula=e.formula, manual=e.manual, p=p, auto_scale=e.auto_scale
            )
            return assess(cfg, trace, controls=controls)

        v1 = value_at(1.0)
        assert v1.combined == v1.automatic
        assert v1.combined == auto_fitness(e.formula, trace, e.auto_scale)
        v0 = value_at(0.0)
        assert v0.combined == v0.manual
        assert v0.combined == manual_fitness(e.manual, trace, controls)
        fa, fm = v1.automatic, v0.manual
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = value_at(p)
            assert got.automatic == fa and got.manual == fm
            assert abs(got.combined - (p * fa + (1.0 - p) * fm)) <= 1e-12
    _passed(2, "fitness combination identities, 200 traces")


def test_criterion_3_interpolation_matches_oracle():
    """Monotone cubic agrees with the oracle; simple kinds hit control points."""
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    grid = TimeGrid(10.0, 0.05)
    ts = grid.times()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        while True:
            interior = np.sort(rng.uniform(0.0, grid.end, n - 2))
            times = np.concatenate(([0.0], interior, [grid.end]))
            if np.all(np.diff(times) > 1e-3):
                break
        values = rng.uniform(-5.0, 5.0, n)
        cp = ControlPoints(times, values)
        got = interpolate(cp, InterpolationKind.PCHIP, grid).values
        want = pchip_oracle(times, values, ts)
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-12

    # no overshoot between adjacent control points on monotone data
    for direction in (1.0, -1.0):
        values = direction * np.sort(rng.uniform(-5.0, 5.0, 6))
        times = np.linspace(0.0, grid.end, 6)
        got = interpolate(ControlPoints(times, values), InterpolationKind.PCHIP, grid).values
        for i in range(5):
            seg = got[(ts >= times[i] - 1e-12) & (ts <= times[i + 1] + 1e-12)]
            lo = min(values[i], values[i + 1]) - 1e-12
            hi = max(values[i], values[i + 1]) + 1e-12
            assert np.all(seg >= lo) and np.all(seg <= hi)

    # const / pconst / linear reproduce control values exactly at control times
    u_times = np.linspace(0.0, grid.end, 5)
    u_values = rng.uniform(-5.0, 5.0, 5)
    idx = np.rint(u_times / grid.step).astype(int)
    flat = interpolate(
        ControlPoints([0.0], [u_values[0]]), InterpolationKind.CONSTANT, grid
    ).values
    assert np.all(flat == u_values[0])
    for kind in (InterpolationKind.PIECEWISE_CONSTANT, InterpolationKind.LINEAR):
        got = interpolate(ControlPoints(u_times, u_values), kind, grid).values
        assert np.array_equal(got[idx], u_values)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(3, "interpolation oracle, 100 sets")


def test_criterion_4_integration_step_convergence():
    """Halving the step changes the car platoon by < 1e-3 everywhere."""
    start = time.perf_counter()
    entry = catalog("CC1")
    plant = entry.make_plant()
    rng = np.random.default_rng(404)
    vector = rng.uniform(entry.assumption.lower, entry.assumption.upper)

    coarse = TimeGrid(100.0, 0.01)
    fine = TimeGrid(100.0, 0.005)
    worst = 0.0
    cps = entry.assumption.control_points(vector, coarse)
    traces = {}
    for grid in (coarse, fine):
        inputs = {
            p.port: interpolate(cps[p.port], p.kind, grid)
            for p in entry.assumption.ports
        }
        traces[grid.step] = simulate(plant, inputs, grid).trace
    for name in ("y1", "y2", "y3", "y4", "y5"):
        a = traces[0.01].channels[name]
        b = traces[0.005].channels[name][::2]
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-3, f"max step-halving difference {worst:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.1f}s"
    _passed(4, f"integration convergence, max diff {worst:.1e}")


def test_criterion_5_failures_replay_and_runs_repeat():
    """Found failures replay to negative robustness; equal seeds match exactly."""
    for entry_id, seed in (("AT1", 7), ("CC1", 11)):
        entry = catalog(entry_id)
        plant = entry.make_plant()
        grid = entry.grid()
        fitness_cfg = FitnessAssessment(
            formula=entry.formula, manual=entry.manual, p=0.5,
            auto_scale=entry.auto_scale,
        )
        search_cfg = SearchConfig(max_iterations=300, seed=seed)
        lo, hi = entry.assumption.lower, entry.assumption.upper
        seen = []
        first = falsify(plant, entry.assumption, fitness_cfg, search_cfg, grid,
                        observer=lambda i, vec, f: seen.append(vec))
        assert first.found, f"{entry_id} seed {seed} found no failure"
        for vec in seen:
            assert np.all(vec >= lo) and np.all(vec <= hi)
        replayed = robustness(
            entry.formula, simulate(plant, first.failure.inputs, grid).trace
        )
        assert replayed < 0.0
        assert replayed == first.failure.robustness
        second = falsify(plant, entry.assumption, fitness_cfg, search_cfg, grid)
        assert second.history == first.history
        assert second.iterations_used == first.iterations_used
        assert np.array_equal(second.failure.vector, first.failure.vector)
        assert second.failure.robustness == first.failure.robustness
    _passed(5, "failure replay and determinism")


def test_criterion_6_catalog_hit_rate():
    """AT1 and CC1 reach >= 80% failure-revealing runs at the default blend."""
    start = time.perf_counter()
    rates = {}
    for entry_id in ("AT1", "CC1"):
        cfg = ExperimentConfig(
            entry=entry_id,
            mode="athena",
            repetitions=25,
            base_seed=0,
            search=SearchConfig(max_iterations=300),
        )
        report = run_experiment(cfg, timestamp=False)
        rates[entry_id] = report.percentage
        assert report.percentage >= 80.0, (
            f"{entry_id}: {report.found}/25 failure-revealing"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _passed(6, f"hit rate AT1 {rates['AT1']:.0f}%, CC1 {rates['CC1']:.0f}%")


def test_criterion_7_report_schema_and_rank_sum():
    """Benchmark reports carry the full schema; rank-sum matches enumeration."""
    raw = {
        "plant": "passthrough",
        "formula": "G[0,10] (x < 0.6)",
        "assumption": "x:const:0,1:1",
        "mode": "athena",
        "repetitions": 50,
        "base_seed": 17,
        "search": {"max_iterations": 300},
    }
    reports = {}
    for mode in ("automatic", "athena"):
        one = dict(raw)
        one["mode"] = mode
        reports[mode] = run_experiment(config_from_dict(one), timestamp=False).to_dict(
            timing=False
        )
    for mode, rep in reports.items():
        assert rep["schema"] == "athena-report/1"
        assert rep["mode"] == mode
        assert rep["repetitions"] == 50 and rep["budget"] == 300
        assert len(rep["runs"]) == 50
        found_iters = [r["iterations"] for r in rep["runs"] if r["found"]]
        assert rep["found"] == len(found_iters)
        assert rep["percentage"] == 100.0 * len(found_iters) / 50
        stats = rep["iteration_stats"]
        assert stats["mean"] == np.mean(found_iters)
        assert stats["min"] == min(found_iters) and stats["max"] == max(found_iters)
        assert stats["stddev"] == np.std(found_iters)
    cmp = compare_reports(reports["automatic"], reports["athena"])
    assert set(cmp) == {"percentage_a", "percentage_b", "percentage_delta",
                        "found_a", "found_b", "u_a", "p_value"}
    assert 0.0 < cmp["p_value"] <= 1.0

    groups = [
        list(g)
        for k in range(1, 5)
        for g in itertools.combinations_with_replacement((1.0, 2.0, 3.0), k)
    ]
    for a in groups:
        for b in groups:
            u, p = rank_sum(a, b)
            u_ref, p_ref = rank_sum_brute(a, b)
            assert abs(u - u_ref) <= 1e-12
            assert abs(p - p_ref) <= 1e-12
    _passed(7, f"report schema and rank-sum, {len(groups) ** 2} group pairs")


def test_criterion_8_unfalsifiable_spec_reports_no_failure():
    """A requirement the plant cannot violate yields zero findings, ever."""
    cfg = ExperimentConfig(
        plant=Passthrough(),
        formula_text="G[0,10] (x < 2)",
        assumption=parse_assumption("x:const:0,1:1"),
        mode="athena",
        repetitions=10,
        base_seed=0,
        search=SearchConfig(max_iterations=300),
    )
    report = run_experiment(cfg, timestamp=False)
    assert report.found == 0
    assert report.percentage == 0.0
    assert report.iteration_stats() is None
    for row in report.rows:
        assert row.error is None
        assert not row.found
        assert row.iterations == 300
        assert row.best_robustness > 0.0
    _passed(8, "unfalsifiable spec, 10 runs")
