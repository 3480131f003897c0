"""Search-based falsification toolkit for dynamical-system requirements.

The package combines an automatic fitness (signal-temporal-logic robustness
of the requirement over a simulated trace) with a manual fitness (a
hand-written expression encoding domain intuition about where failures
hide), blends them as ``p * automatic + (1 - p) * manual``, and minimizes
the blend with a simulated-annealing search over interpolated input
signals.  A test case whose robustness is negative is a concrete input
that makes the plant violate its requirement.

Typical use::

    from athena import catalog, ExperimentConfig, run_experiment

    report = run_experiment(ExperimentConfig(entry="AT1", mode="athena"))
    print(report.percentage)
"""

from .catalog import CatalogEntry, catalog, catalog_ids
from .errors import (
    DivergenceError,
    HorizonError,
    MissingChannelError,
    ParseError,
    PortMismatchError,
    SemanticError,
)
from .fitness import (
    FitnessAssessment,
    FitnessValue,
    assess,
    athena_combine,
    auto_fitness,
    manual_fitness,
    parse_manual,
)
from .harness import (
    MODES,
    ExperimentConfig,
    ExperimentReport,
    Problem,
    RunRow,
    compare_reports,
    config_from_dict,
    parse_assumption,
    rank_sum,
    resolve,
    run_experiment,
    write_report,
)
from .models import (
    AutoTransmissionLite,
    ChasingCars,
    Passthrough,
    PlantModel,
    PortSpec,
    SimResult,
    builtin,
    simulate,
)
from .search import (
    Assumption,
    PortAssumption,
    RunResult,
    SearchConfig,
    TestCase,
    encode_inputs,
    falsify,
    propose,
    simulation_grid,
)
from .signals import (
    ControlPoints,
    InterpolationKind,
    Signal,
    TimeGrid,
    interpolate,
    uniform_control_times,
)
from .stl import Trace, formula_horizon, parse, robustness, satisfied

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # signals
    "TimeGrid",
    "Signal",
    "ControlPoints",
    "InterpolationKind",
    "uniform_control_times",
    "interpolate",
    # stl
    "Trace",
    "parse",
    "formula_horizon",
    "robustness",
    "satisfied",
    # models
    "PortSpec",
    "PlantModel",
    "SimResult",
    "simulate",
    "builtin",
    "ChasingCars",
    "AutoTransmissionLite",
    "Passthrough",
    # fitness
    "FitnessAssessment",
    "FitnessValue",
    "parse_manual",
    "auto_fitness",
    "manual_fitness",
    "athena_combine",
    "assess",
    # search
    "PortAssumption",
    "Assumption",
    "SearchConfig",
    "TestCase",
    "RunResult",
    "encode_inputs",
    "simulation_grid",
    "propose",
    "falsify",
    # catalog
    "CatalogEntry",
    "catalog",
    "catalog_ids",
    # harness
    "MODES",
    "ExperimentConfig",
    "Problem",
    "resolve",
    "RunRow",
    "ExperimentReport",
    "parse_assumption",
    "config_from_dict",
    "run_experiment",
    "write_report",
    "rank_sum",
    "compare_reports",
    # errors
    "ParseError",
    "SemanticError",
    "MissingChannelError",
    "HorizonError",
    "PortMismatchError",
    "DivergenceError",
]
