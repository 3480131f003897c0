"""Experiment runner: repeated seeded falsification runs with aggregated
reports, plus the rank-sum test used to compare two report files.

A single experiment fixes a requirement (catalog entry or inline pieces),
a fitness mode, and a repetition count; run i uses seed base_seed + i so
reports from different modes line up row for row. Reports serialize to
JSON (aggregate plus one row per run) and CSV (rows only).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .catalog import catalog, parsed
from .errors import check_number
from .fitness import FitnessAssessment
from .models import PlantModel, builtin
from .search import (
    Assumption,
    PortAssumption,
    SearchConfig,
    check_problem,
    falsify,
    simulation_grid,
)
from .signals import InterpolationKind, TimeGrid

__all__ = [
    "MODES",
    "ExperimentConfig",
    "Problem",
    "resolve",
    "json_float",
    "RunRow",
    "ExperimentReport",
    "parse_assumption",
    "config_from_dict",
    "run_experiment",
    "write_report",
    "rank_sum",
    "compare_reports",
]

MODES = ("automatic", "manual", "athena")

_MODE_P = {"automatic": 1.0, "manual": 0.0, "athena": 0.5}

_SEARCH_KEYS = ("max_iterations", "t0", "cooling", "sigma", "restart_after", "threshold")

_CONFIG_KEYS = (
    "entry",
    "plant",
    "formula",
    "manual",
    "assumption",
    "auto_scale",
    "step",
    "mode",
    "p",
    "p_schedule",
    "repetitions",
    "base_seed",
    "search",
    "out",
)


def parse_assumption(text: str) -> Assumption:
    """Parse a compact assumption string into an Assumption.

    One port per semicolon-separated segment, each segment being
    ``name:kind:lo,hi:n`` (e.g. ``Throttle:pchip:0,100:7;Brake:pchip:0,325:3``).
    """
    ports = []
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            raise ValueError("empty port segment in assumption string")
        pieces = [p.strip() for p in segment.split(":")]
        if len(pieces) != 4:
            raise ValueError(
                f"port segment {segment!r} must look like name:kind:lo,hi:n"
            )
        name, kind_text, range_text, count_text = pieces
        kind = InterpolationKind.parse(kind_text)
        lo_text, sep, hi_text = range_text.partition(",")
        if not sep:
            raise ValueError(f"range {range_text!r} must look like lo,hi")
        try:
            lo, hi = float(lo_text), float(hi_text)
            n = int(count_text)
        except ValueError as exc:
            raise ValueError(f"bad numbers in port segment {segment!r}") from exc
        ports.append(PortAssumption(port=name, kind=kind, lo=lo, hi=hi, n=n))
    return Assumption(tuple(ports))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One batch of repeated falsification runs.

    Either `entry` names a catalog requirement, or the inline fields
    (`plant`, `formula_text`, `assumption`, optionally `manual_text`,
    `auto_scale` (default 1), `step`) describe one. `mode` fixes the
    fitness weight: automatic-only runs at p=1, manual-only at p=0, athena
    at p=0.5 unless `p` or `p_schedule` overrides it; the two overrides
    exclude each other. `step` and `auto_scale` must be finite positive
    numbers, `p` and the `p_schedule` endpoints finite numbers in [0, 1]
    (`errors.check_number`): a bool or a string is not a number, and each
    bad value raises a ValueError that names its field.
    """

    entry: str | None = None
    plant: PlantModel | None = None
    formula_text: str | None = None
    manual_text: str | None = None
    assumption: Assumption | None = None
    auto_scale: float | None = None
    step: float | None = None
    mode: str = "athena"
    p: float | None = None
    p_schedule: tuple[float, float] | None = None
    repetitions: int = 50
    base_seed: int = 0
    search: SearchConfig = field(default_factory=SearchConfig)
    out: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("repetitions", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.entry is not None:
            inline = (
                self.plant,
                self.formula_text,
                self.manual_text,
                self.assumption,
                self.auto_scale,
                self.step,
            )
            if any(piece is not None for piece in inline):
                raise ValueError("catalog entry and inline fields are exclusive")
        else:
            if self.plant is None or self.formula_text is None or self.assumption is None:
                raise ValueError(
                    "inline experiments need plant, formula_text, and assumption"
                )
            # both are finite positive numbers, kept as floats
            for name in ("step", "auto_scale"):
                value = getattr(self, name)
                if value is not None:
                    check_number(name, value)
                    if value <= 0:
                        raise ValueError(f"{name} must be positive, got {value}")
                    object.__setattr__(self, name, float(value))
        if self.p is not None:
            check_number("p", self.p)
        if self.p_schedule is not None:
            if len(self.p_schedule) != 2:
                raise ValueError(
                    f"p_schedule must be two endpoints (start, end), got {list(self.p_schedule)}"
                )
            for name, end in zip(("p_schedule start", "p_schedule end"), self.p_schedule):
                check_number(name, end)
                if not 0.0 <= end <= 1.0:
                    raise ValueError(f"{name} must lie in [0, 1], got {end}")
        if self.mode != "athena":
            if self.p is not None or self.p_schedule is not None:
                raise ValueError("p and p_schedule apply to athena mode only")
        elif self.p is not None and self.p_schedule is not None:
            raise ValueError("p and p_schedule are exclusive")
        elif self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    @property
    def effective_p(self) -> float:
        if self.mode == "athena" and self.p is not None:
            return self.p
        return _MODE_P[self.mode]


@dataclass(frozen=True)
class Problem:
    """A resolved falsification problem: what `falsify` needs besides the
    search constants. `grid` and `plant` are the whole ones; each
    `falsify` call derives from them the prefix and the outputs it
    simulates (`search.check_problem`)."""

    plant: PlantModel
    assumption: Assumption
    grid: TimeGrid
    fitness: FitnessAssessment


def resolve(cfg: ExperimentConfig) -> Problem:
    """Build the problem an experiment config names, from its catalog
    entry or its inline pieces. The texts of either are parsed once per
    process (`catalog.parsed`).

    Rejects a problem no run could score, before any simulation, by the
    checks of `search.check_problem`, the ones `falsify` runs, the affine
    probe included. The grid and plant that call returns, those a run
    simulates, are not kept: `falsify` derives them again.
    """
    if cfg.entry is not None:
        e = catalog(cfg.entry)
        plant, formula, manual = e.make_plant(), e.formula, e.manual
        assumption, auto_scale, step = e.assumption, e.auto_scale, e.step
    else:
        plant = cfg.plant
        formula, manual = parsed(cfg.formula_text, cfg.manual_text)
        assumption = cfg.assumption
        auto_scale = cfg.auto_scale if cfg.auto_scale is not None else 1.0
        step = cfg.step if cfg.step is not None else 0.05
    fitness = FitnessAssessment(
        formula=formula,
        manual=manual,
        p=cfg.effective_p,
        auto_scale=auto_scale,
        p_schedule=cfg.p_schedule,
    )
    grid = simulation_grid(plant, formula, step)
    check_problem(plant, assumption, fitness, grid)
    return Problem(plant, assumption, grid, fitness)


def json_float(x: float | None) -> float | None:
    """The value itself when finite, else None, so reports stay valid JSON
    (a run whose every simulation diverged has best robustness inf)."""
    return x if x is not None and math.isfinite(x) else None


@dataclass(frozen=True)
class RunRow:
    """Summary of one seeded run inside an experiment.

    `iterations` counts the simulations the run made; an errored run counts
    those made before its error.
    """

    index: int
    seed: int
    found: bool
    iterations: int
    best_robustness: float | None
    best_combined: float | None
    error: str | None

    def to_dict(self) -> dict:
        return {
            "run": self.index,
            "seed": self.seed,
            "found": self.found,
            "iterations": self.iterations,
            "best_robustness": json_float(self.best_robustness),
            "best_combined": json_float(self.best_combined),
            "error": self.error,
        }


def _run_one(args) -> RunRow:
    problem, search_cfg, index = args
    try:
        result = falsify(
            problem.plant, problem.assumption, problem.fitness, search_cfg, problem.grid
        )
    except (ValueError, KeyError, ArithmeticError) as exc:
        # a problem the config or the plant's domain caused becomes an error
        # row that keeps the simulations run before it; a programming error
        # (TypeError, AttributeError, ...) propagates
        return RunRow(
            index=index,
            seed=search_cfg.seed,
            found=False,
            iterations=getattr(exc, "simulations", 0),
            best_robustness=None,
            best_combined=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    return RunRow(
        index=index,
        seed=search_cfg.seed,
        found=result.found,
        iterations=result.iterations_used,
        best_robustness=result.best_robustness,
        best_combined=result.best_combined,
        error=None,
    )


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Aggregated outcome of one experiment: its rows, read with the config
    and the problem it resolved to, which `to_dict` reports."""

    config: ExperimentConfig
    problem: Problem
    rows: tuple[RunRow, ...]
    wall_clock: float

    @property
    def found(self) -> int:
        return sum(1 for row in self.rows if row.found)

    @property
    def percentage(self) -> float:
        return 100.0 * self.found / self.config.repetitions

    @property
    def errored(self) -> int:
        return sum(1 for row in self.rows if row.error is not None)

    @property
    def simulations(self) -> int:
        """Simulations run in all rows; one iteration is one simulation."""
        return sum(row.iterations for row in self.rows)

    def iteration_stats(self) -> dict | None:
        """Mean/min/max/stddev of iterations, failure-revealing runs only."""
        iters = [row.iterations for row in self.rows if row.found]
        if not iters:
            return None
        arr = np.asarray(iters, dtype=float)
        return {
            "mean": float(arr.mean()),
            "min": int(arr.min()),
            "max": int(arr.max()),
            "stddev": float(arr.std()),
        }

    def to_dict(self, timing: bool = True) -> dict:
        cfg, fitness, search = self.config, self.problem.fitness, self.config.search
        out = {
            "schema": "athena-report/1",
            "entry": cfg.entry,
            "plant": self.problem.plant.name,
            "formula": str(fitness.formula),
            "manual": str(fitness.manual) if fitness.manual is not None else None,
            "mode": cfg.mode,
            "p": cfg.effective_p,
            "p_schedule": list(cfg.p_schedule) if cfg.p_schedule else None,
            "auto_scale": fitness.auto_scale,
            "repetitions": cfg.repetitions,
            "base_seed": cfg.base_seed,
            "budget": search.max_iterations,
            "search": {
                "t0": search.t0,
                "cooling": search.cooling,
                "sigma": search.sigma,
                "restart_after": search.restart_after,
                "threshold": search.threshold,
            },
            "found": self.found,
            "percentage": self.percentage,
            "errored": self.errored,
            "simulations": self.simulations,
            "iteration_stats": self.iteration_stats(),
            "runs": [row.to_dict() for row in self.rows],
        }
        if timing:
            out["wall_clock_seconds"] = self.wall_clock
            out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return out


def _default_jobs() -> int:
    raw = os.environ.get("ATHENA_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"ATHENA_JOBS must be a positive integer, got {raw!r}")
    return jobs


def run_experiment(
    cfg: ExperimentConfig,
    jobs: int | None = None,
    timestamp: bool = True,
) -> ExperimentReport:
    """Run `cfg.repetitions` seeded searches and aggregate them.

    Run i uses seed base_seed + i. Rows are ordered by run index no matter
    how many worker processes execute them, so a report is deterministic
    given the config (timing fields aside). A run that raises is recorded
    in its row and the batch continues. When `cfg.out` is set the JSON
    report and per-run CSV are written there.
    """
    if jobs is None:
        jobs = _default_jobs()
    elif jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    problem = resolve(cfg)
    payloads = [
        (problem, dataclasses.replace(cfg.search, seed=cfg.base_seed + i), i)
        for i in range(cfg.repetitions)
    ]
    start = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = tuple(pool.map(_run_one, payloads))
    else:
        rows = tuple(_run_one(payload) for payload in payloads)
    report = ExperimentReport(cfg, problem, rows, time.perf_counter() - start)
    if cfg.out is not None:
        write_report(report, cfg.out, timestamp=timestamp)
    return report


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_report(
    report: ExperimentReport,
    base_path: str,
    timestamp: bool = True,
) -> tuple[str, str]:
    """Write `<base>.json` and `<base>.runs.csv`; returns both paths.

    With timestamp=False the JSON omits wall-clock and timestamp fields,
    making reruns of the same config byte-identical.
    """
    base = base_path[:-5] if base_path.endswith(".json") else base_path
    json_path = base + ".json"
    csv_path = base + ".runs.csv"
    payload = json.dumps(report.to_dict(timing=timestamp), indent=2, sort_keys=True)
    with open(json_path, "w") as fh:
        fh.write(payload + "\n")
    # RunRow's fields are the columns, in order
    lines = ["run,seed,found,iterations,best_robustness,best_combined,error"]
    for row in report.rows:
        lines.append(",".join(_csv_cell(v) for v in dataclasses.astuple(row)))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return json_path, csv_path


def _exact_p(ranks: np.ndarray, u_a: float, n1: int, n2: int) -> float:
    # Midranks are integer multiples of 1/2, so doubled ranks are integers
    # and subset rank sums enumerate exactly via a counting DP.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    k = min(n1, n2)
    mu = n1 * n2 / 2.0
    target = abs(u_a - mu) - 1e-12
    smax = int(np.sort(doubled)[-k:].sum())
    ways = np.zeros((k + 1, smax + 1))
    ways[0, 0] = 1.0
    for r in doubled:
        r = int(r)
        for j in range(k, 0, -1):
            ways[j, r:] += ways[j - 1, : smax + 1 - r]
    u_small = np.arange(smax + 1) / 2.0 - k * (k + 1) / 2.0
    count = ways[k, np.abs(u_small - mu) >= target].sum()
    return min(1.0, count / math.comb(n1 + n2, k))


def _normal_p(pooled: np.ndarray, u_a: float, n1: int, n2: int) -> float:
    n = n1 + n2
    mu = n1 * n2 / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float((counts.astype(float) ** 3 - counts).sum()) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0.0:
        return 1.0
    z = (abs(u_a - mu) - 0.5) / math.sqrt(var)
    if z < 0.0:
        z = 0.0
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given the mean rank of their group. Ranks
    are integers or halves, so they are exact in float."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def rank_sum(group_a: Sequence[float], group_b: Sequence[float]) -> tuple[float, float]:
    """Two-sided Mann-Whitney rank-sum test with midrank ties.

    Returns (U statistic of group A, two-sided p-value). Groups smaller
    than 8 get the exact permutation distribution; with both groups at 8
    or larger the tie-corrected normal approximation with continuity
    correction applies.
    """
    a = np.asarray(list(group_a), dtype=float)
    b = np.asarray(list(group_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("rank_sum needs two nonempty groups")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("rank_sum groups must be finite")
    n1, n2 = int(a.size), int(b.size)
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    r_a = float(ranks[:n1].sum())
    u_a = r_a - n1 * (n1 + 1) / 2.0
    if n1 >= 8 and n2 >= 8:
        p = _normal_p(pooled, u_a, n1, n2)
    else:
        p = _exact_p(ranks, u_a, n1, n2)
    return float(u_a), float(p)


def _found_iterations(report: Mapping) -> list[float]:
    return [
        float(row["iterations"])
        for row in report["runs"]
        if row["found"] and row["error"] is None
    ]


def compare_reports(report_a: Mapping, report_b: Mapping) -> dict:
    """Compare two report dicts: rank-sum over found-run iteration counts
    plus the failure-revealing percentage delta (A minus B).

    The rank-sum fields stay None when either report has no
    failure-revealing runs to rank.
    """
    iters_a = _found_iterations(report_a)
    iters_b = _found_iterations(report_b)
    out = {
        "percentage_a": report_a["percentage"],
        "percentage_b": report_b["percentage"],
        "percentage_delta": report_a["percentage"] - report_b["percentage"],
        "found_a": len(iters_a),
        "found_b": len(iters_b),
        "u_a": None,
        "p_value": None,
    }
    if iters_a and iters_b:
        u_a, p = rank_sum(iters_a, iters_b)
        out["u_a"] = u_a
        out["p_value"] = p
    return out


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style mapping.

    Recognized keys: entry | plant/formula/manual/assumption/auto_scale/step,
    mode, p, p_schedule, repetitions, base_seed, search (mapping of
    SearchConfig overrides; the seed comes from base_seed), out.
    """
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    search_raw = raw.get("search", {})
    if not isinstance(search_raw, Mapping):
        raise ValueError("search must be a mapping of SearchConfig fields")
    bad = sorted(set(search_raw) - set(_SEARCH_KEYS))
    if bad:
        raise ValueError(f"unknown search keys: {', '.join(bad)}")
    search = SearchConfig(**dict(search_raw))
    plant = builtin(raw["plant"]) if "plant" in raw else None
    assumption = (
        parse_assumption(raw["assumption"]) if "assumption" in raw else None
    )
    p_schedule = raw.get("p_schedule")
    if p_schedule is not None:
        if not isinstance(p_schedule, (list, tuple)):
            raise ValueError(
                f"p_schedule must be two endpoints (start, end), got {p_schedule!r}"
            )
        p_schedule = tuple(p_schedule)
    kwargs = {
        "entry": raw.get("entry"),
        "plant": plant,
        "formula_text": raw.get("formula"),
        "manual_text": raw.get("manual"),
        "assumption": assumption,
        "mode": raw.get("mode", "athena"),
        "p": raw.get("p"),
        "p_schedule": p_schedule,
        "repetitions": raw.get("repetitions", 50),
        "base_seed": raw.get("base_seed", 0),
        "search": search,
        "out": raw.get("out"),
    }
    for name in ("auto_scale", "step"):
        if name in raw:
            kwargs[name] = raw[name]
    return ExperimentConfig(**kwargs)
