"""Micro-benchmarks of the per-simulation kernels, outside the tier-1 suite.

Run from the repository root:

    python -m pytest benchmarks/ --benchmark-columns=min,median,iqr

Each kernel case times one call on the grid a catalog entry or the
passthrough workload uses, with fixed random inputs. The `-prefix` case
uses the leading samples of the grid that `falsify` simulates, those the
score reads from the plant's outputs. The `-read` case simulates only the
outputs the score names, as `falsify` does (`check_problem`: y4 and y5
on CC1); next to it, `chasing_cars-CC1` computes all five. These
`fast_sim` cases take a sample block; `falsify` instead simulates the
platoon by superposition (`models.simulate`, Y0 + K x over the inputs'
interpolation coefficients), which the `superposed-CC1-read` case times:
one `simulate` call of the read plant on the interpolated inputs of one
CC1 candidate, with K built. The `-build` case times, from a cleared
cache, building K for CC1's read plant and ports, one `fast_sim` per
coefficient and one more, the cost `resolve` pays once per problem. The
`resolve-CC1` case times a warm `resolve` of CC1, every one after the
first in a process, which reuses the parsed
entry and the probe that passed on the cached K. The interpolation
cases time one `interpolate` call on a warm plan, for one input port of
AT2, of CC1 and of the passthrough workload, and for a 9-point pchip port
on the passthrough workload's 12001-sample grid. The scoring cases time
robustness of the passthrough, CC1 and AT2 formulas and the passthrough
manual fitness, each on the trace `falsify` scores for one random
candidate. The passthrough robustness case has three inputs:
`[encoded]`, a 9-point linear candidate encoded as the workload encodes
it, whose few turns let the sliding windows fold them, `[plateau]`, the
same candidate piecewise constant, whose long plateaus of tied samples
the folds must resolve to the rightmost, and `[noise]`, uniform noise,
on which they fall back to the doubling. The
search cases time, on the AT2 box and on the CC1 box (10 coordinates
each, over different ranges), one restart draw plus one proposal, one
`Assumption.validate_vector` box check and one
`Assumption.control_points` decode: the per-candidate work on the
parameter vector, which runs on Python floats. The `atom_values` case
times the channel expression of the passthrough predicate over every
sample. The iteration cases time one CC1, one AT2 and one passthrough
iteration after the proposal, through the same calls `falsify` makes:
`Assumption.control_points`, `encode_inputs`, on AT2 the cut to the
prefix the score reads, `simulate` of the outputs the score names and
`assess`, on a warm problem; their time less the kernel cases above (on
CC1 the superposed `simulate`, on AT2 the prefix `fast_sim`, on
passthrough the interpolation, robustness and manual fitness) is the
glue between the kernels: checks, copies and the objects each call
builds. The end-to-end cases
time one seeded `falsify` run on a catalog entry with a fixed budget, and
check its outcome, so a change that alters the search trajectory fails.
"""

import numpy as np
import pytest

from athena.catalog import catalog
from athena.fitness import assess, manual_fitness
from athena.harness import ExperimentConfig, parse_assumption, resolve
from athena import models
from athena.models import (
    AutoTransmissionLite,
    ChasingCars,
    Passthrough,
    simulate,
)
from athena.search import (
    SearchConfig,
    check_problem,
    encode_inputs,
    falsify,
    propose,
    simulation_grid,
)
from athena.signals import (
    ControlPoints,
    Signal,
    interpolate,
    uniform_control_times,
)
from athena.stl import Trace, parse, robustness

PASSTHROUGH_FORMULA = (
    "G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1))) and G[0,100] (F[0,20] (y <= 2))"
)
PASSTHROUGH_MANUAL = (
    "scale(mean(y,[0,60]),[0,1]) - scale(ptp(x,[30,120]),[0,1])"
    " + 0.5 * scale(max(y - x,[10,90]),[0,1]) - 0.1 * slope_up(x,[0,120])"
)


def random_inputs(grid, lo, hi, seed=0):
    return np.random.default_rng(seed).uniform(lo, hi, (grid.n_samples, 2))


@pytest.mark.parametrize(
    "model, entry, hi, prefix, read",
    [
        (ChasingCars, "CC1", (1.0, 1.0), False, False),
        (ChasingCars, "CC1", (1.0, 1.0), False, True),
        (AutoTransmissionLite, "AT1", (100.0, 325.0), False, False),
        (AutoTransmissionLite, "AT2", (100.0, 325.0), True, False),
    ],
    ids=["chasing_cars-CC1", "chasing_cars-CC1-read", "at_lite-AT1", "at_lite-AT2-prefix"],
)
def test_fast_sim(benchmark, model, entry, hi, prefix, read):
    plant = model()
    grid = catalog(entry).grid()
    problem = resolve(ExperimentConfig(entry=entry))
    sim_grid, sim_plant = check_problem(plant, problem.assumption, problem.fitness, grid)
    if prefix:
        # the leading samples falsify simulates: those the score reads
        grid = sim_grid
    if read:
        # the outputs falsify simulates: those the score names
        plant = sim_plant
    u = random_inputs(grid, (0.0, 0.0), hi)
    out = benchmark(plant.fast_sim, u, grid)
    assert out.shape == (grid.n_samples, len(plant.port_spec.outputs))


def _read_inputs(entry):
    """The plant and grid an entry's runs simulate, and one candidate's
    interpolated inputs."""
    problem = resolve(ExperimentConfig(entry=entry))
    a, grid = problem.assumption, problem.grid
    sim_grid, sim_plant = check_problem(problem.plant, a, problem.fitness, grid)
    assert sim_grid is grid
    vector = np.random.default_rng(0).uniform(a.lower, a.upper)
    return sim_plant, encode_inputs(a, a.control_points(vector, grid), grid), grid


@pytest.mark.parametrize("entry", ["CC1"], ids=["superposed-CC1-read"])
def test_superposed_simulate(benchmark, entry):
    plant, inputs, grid = _read_inputs(entry)
    simulate(plant, inputs, grid)  # K is built outside the timing
    trace = benchmark(simulate, plant, inputs, grid).trace
    assert list(trace.channels)[:2] == ["y4", "y5"]


@pytest.mark.parametrize("entry", ["CC1"], ids=["superposition-CC1-read-build"])
def test_superposition_build(benchmark, entry):
    plant, inputs, grid = _read_inputs(entry)
    plans = tuple(inputs[name].plan for name in plant.port_spec.inputs)

    def cold():
        models._operators.clear()
        return (plant, plans, grid), {}

    op = benchmark.pedantic(models._operator, setup=cold, rounds=50)
    assert op.K.shape[:2] == (2, 20) and op.K.shape[2] >= grid.n_samples


@pytest.mark.parametrize("case", ["encoded", "plateau", "noise"])
def test_robustness_passthrough_spec(benchmark, case):
    if case in ("encoded", "plateau"):
        # one 9-point candidate, linear as the workload encodes it, or
        # piecewise constant: long plateaus of tied samples. Either trace
        # has few turns, so the windows fold them
        kind = "linear" if case == "encoded" else "pconst"
        fitness, trace, _, _ = _scored_trace(_passthrough_problem(kind))
        formula = fitness.formula
    else:
        # uniform noise: the windows fall back to the doubling
        plant = Passthrough()
        formula = parse(PASSTHROUGH_FORMULA)
        grid = simulation_grid(plant, formula, 0.01)
        x = np.random.default_rng(0).uniform(0.0, 1.0, grid.n_samples)
        trace = simulate(plant, {"x": Signal(grid, x)}, grid).trace
    rho = benchmark(robustness, formula, trace)
    assert np.isfinite(rho)


def _passthrough_problem(kind="linear"):
    return resolve(
        ExperimentConfig(
            plant=Passthrough(),
            formula_text=PASSTHROUGH_FORMULA,
            manual_text=PASSTHROUGH_MANUAL,
            assumption=parse_assumption(f"x:{kind}:0,1:9"),
            auto_scale=2.0,
            step=0.01,
        )
    )


def _scored_trace(problem, seed=0):
    """The trace falsify scores for one random candidate: the leading
    samples the score reads from the plant's outputs, with the fitness,
    the controls and the full-grid inputs."""
    a, grid, plant = problem.assumption, problem.grid, problem.plant
    vector = np.random.default_rng(seed).uniform(a.lower, a.upper)
    controls = a.control_points(vector, grid)
    inputs = encode_inputs(a, controls, grid)
    short, _ = check_problem(plant, a, problem.fitness, grid)
    if short is grid:
        return problem.fitness, simulate(plant, inputs, grid).trace, controls, None
    part = {name: signal.prefix(short) for name, signal in inputs.items()}
    return problem.fitness, simulate(plant, part, short).trace, controls, Trace(grid, inputs)


@pytest.mark.parametrize("entry", ["CC1", "AT2"])
def test_robustness_catalog(benchmark, entry):
    fitness, trace, _, _ = _scored_trace(resolve(ExperimentConfig(entry=entry)))
    rho = benchmark(robustness, fitness.formula, trace)
    assert np.isfinite(rho)


def test_manual_fitness_passthrough_spec(benchmark):
    fitness, trace, controls, inputs = _scored_trace(_passthrough_problem())
    fm = benchmark(manual_fitness, fitness.manual, trace, controls, inputs)
    assert np.isfinite(fm)


def _port_and_grid(case):
    if case.startswith("passthrough-x"):
        grid = simulation_grid(Passthrough(), parse(PASSTHROUGH_FORMULA), 0.01)
        kind = "pchip" if case.endswith("-pchip") else "linear"
        return parse_assumption(f"x:{kind}:0,1:9").ports[0], grid
    entry, name = case.split("-")
    problem = resolve(ExperimentConfig(entry=entry))
    port = next(p for p in problem.assumption.ports if p.port == name)
    return port, problem.grid


@pytest.mark.parametrize(
    "case", ["AT2-Throttle", "CC1-throttle", "passthrough-x", "passthrough-x-pchip"]
)
def test_interpolate(benchmark, case):
    port, grid = _port_and_grid(case)
    values = np.random.default_rng(0).uniform(port.lo, port.hi, port.n)
    cp = ControlPoints(uniform_control_times(grid, port.n), values)
    interpolate(cp, port.kind, grid)  # builds the plan outside the timing
    signal = benchmark(interpolate, cp, port.kind, grid)
    assert len(signal.values) == grid.n_samples


@pytest.mark.parametrize("entry", ["CC1"], ids=["resolve-CC1"])
def test_resolve(benchmark, entry):
    cfg = ExperimentConfig(entry=entry)
    resolve(cfg)  # parses the entry and builds and probes K outside the timing
    problem = benchmark(resolve, cfg)
    assert problem.grid.n_samples == 2001


@pytest.mark.parametrize("entry", ["AT2", "CC1"])
def test_draws(benchmark, entry):
    # one restart draw and one proposal from it, as falsify makes them
    a = resolve(ExperimentConfig(entry=entry)).assumption
    rng = np.random.default_rng(0)

    def draws():
        candidate = a.lower + a.width * rng.random(a.dim)
        return propose(candidate, a, 0.5, rng)

    assert a.dim == 10
    assert benchmark(draws).shape == (a.dim,)


@pytest.mark.parametrize("entry", ["AT2", "CC1"])
def test_validate_vector(benchmark, entry):
    a = resolve(ExperimentConfig(entry=entry)).assumption
    vector = np.random.default_rng(0).uniform(a.lower, a.upper)
    assert benchmark(a.validate_vector, vector) is vector


@pytest.mark.parametrize("entry", ["AT2", "CC1"])
def test_control_points(benchmark, entry):
    problem = resolve(ExperimentConfig(entry=entry))
    a, grid = problem.assumption, problem.grid
    vector = np.random.default_rng(0).uniform(a.lower, a.upper)
    controls = benchmark(a.control_points, vector, grid)
    assert list(controls) == [p.port for p in a.ports]


def test_iteration_cc1(benchmark):
    problem = resolve(ExperimentConfig(entry="CC1"))
    a, grid, fitness = problem.assumption, problem.grid, problem.fitness
    sim_grid, sim_plant = check_problem(problem.plant, a, fitness, grid)
    # CC1 reads every sample, so falsify encodes and simulates one grid
    assert sim_grid is grid
    vector = np.random.default_rng(0).uniform(a.lower, a.upper)

    def iteration():
        controls = a.control_points(vector, grid)
        inputs = encode_inputs(a, controls, grid)
        trace = simulate(sim_plant, inputs, grid).trace
        return assess(fitness, trace, 0, 300, controls)

    iteration()  # builds the plans and operators outside the timing
    # the platoon is simulated by superposition
    assert models._operators
    value = benchmark(iteration)
    assert np.isfinite(value.combined)


def test_iteration_at2(benchmark):
    problem = resolve(ExperimentConfig(entry="AT2"))
    a, grid, fitness = problem.assumption, problem.grid, problem.fitness
    sim_grid, sim_plant = check_problem(problem.plant, a, fitness, grid)
    # AT2 reads the outputs' leading samples only, so falsify simulates
    # that prefix and scores input windows on the whole grid
    assert sim_grid.n_samples < grid.n_samples
    vector = np.random.default_rng(0).uniform(a.lower, a.upper)

    def iteration():
        controls = a.control_points(vector, grid)
        inputs = encode_inputs(a, controls, grid)
        part = {name: signal.prefix(sim_grid) for name, signal in inputs.items()}
        trace = simulate(sim_plant, part, sim_grid).trace
        return assess(fitness, trace, 0, 300, controls, Trace(grid, inputs))

    iteration()  # builds the plans outside the timing
    value = benchmark(iteration)
    assert np.isfinite(value.combined)


def test_iteration_passthrough(benchmark):
    problem = _passthrough_problem()
    a, grid, fitness = problem.assumption, problem.grid, problem.fitness
    sim_grid, sim_plant = check_problem(problem.plant, a, fitness, grid)
    # the score reads y up to the grid's end, so falsify encodes and
    # simulates one grid; the trace adopts y, the copy of x
    assert sim_grid is grid
    vector = np.random.default_rng(0).uniform(a.lower, a.upper)

    def iteration():
        controls = a.control_points(vector, grid)
        inputs = encode_inputs(a, controls, grid)
        trace = simulate(sim_plant, inputs, grid).trace
        return assess(fitness, trace, 0, 300, controls)

    iteration()  # builds the plans outside the timing
    value = benchmark(iteration)
    assert np.isfinite(value.combined)


def test_atom_values_passthrough_spec(benchmark):
    # the predicate y - 0.5 * x >= -1 over the samples the STL plan reads
    plant = Passthrough()
    formula = parse(PASSTHROUGH_FORMULA)
    grid = simulation_grid(plant, formula, 0.01)
    x = np.random.default_rng(0).uniform(0.0, 1.0, grid.n_samples)
    trace = simulate(plant, {"x": Signal(grid, x)}, grid).trace
    expr = formula.left.child.child.child.expr
    assert str(expr) == "y - 0.5 * x"
    values = benchmark(expr.values, trace, 0, grid.n_samples)
    assert len(values) == grid.n_samples


# (entry, seed, budget, found, iterations used); AT2 is never falsified,
# so it spends the whole budget
@pytest.mark.parametrize(
    "entry, seed, budget, found, iterations",
    [("CC1", 0, 300, True, 73), ("AT2", 0, 60, False, 60)],
    ids=["CC1", "AT2"],
)
def test_falsify(benchmark, entry, seed, budget, found, iterations):
    problem = resolve(ExperimentConfig(entry=entry))
    search = SearchConfig(max_iterations=budget, seed=seed)
    result = benchmark(
        falsify, problem.plant, problem.assumption, problem.fitness, search, problem.grid
    )
    assert (result.found, result.iterations_used) == (found, iterations)
