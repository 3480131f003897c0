"""Command-line interface.

Subcommands: `falsify` runs one seeded search and writes the test case,
`bench` runs a repeated experiment from a JSON config file, `robustness`
evaluates a formula over a trace CSV, `simulate` integrates a plant over
input signals from CSV, and `compare` rank-sum-tests two report files.

Exit codes: 0 on success, 1 when `falsify` finds no failure, 2 on any
error (including bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import (
    MODES,
    ExperimentConfig,
    compare_reports,
    config_from_dict,
    json_float,
    parse_assumption,
    resolve,
    run_experiment,
    write_report,
)
from .models import builtin, simulate
from .search import SearchConfig, falsify
from .signals import Signal, TimeGrid
from .stl import Trace, parse, robustness

__all__ = ["cli", "main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_trace_csv(path_or_fh, trace: Trace) -> None:
    names = list(trace.channels)
    lines = ["time," + ",".join(names)]
    times = trace.grid.times()
    columns = [trace.channels[name] for name in names]
    for k in range(trace.grid.n_samples):
        row = [_fmt(times[k])] + [_fmt(col[k]) for col in columns]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_fh, "write"):
        path_or_fh.write(text)
    else:
        with open(path_or_fh, "w") as fh:
            fh.write(text)


def _read_csv_columns(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip()
    names = [cell.strip() for cell in header.split(",")]
    if not names or names[0] != "time":
        raise ValueError(f"{path}: first CSV column must be 'time', got {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(
            f"{path}: header names {len(names)} columns, rows have {data.shape[1]}"
        )
    return names[1:], data


def _grid_of(times: np.ndarray, path: str) -> TimeGrid:
    if len(times) < 2:
        raise ValueError(f"{path}: need at least two samples")
    steps = np.diff(times)
    step = float(steps[0])
    if step <= 0 or not np.allclose(steps, step, rtol=0.0, atol=1e-9):
        raise ValueError(f"{path}: time column must be uniformly spaced")
    if abs(times[0]) > 1e-9:
        raise ValueError(f"{path}: time must start at 0")
    return TimeGrid(float(times[-1]), step)


def _read_trace(path: str) -> Trace:
    names, data = _read_csv_columns(path)
    grid = _grid_of(data[:, 0], path)
    channels = {name: data[:, k + 1] for k, name in enumerate(names)}
    return Trace(grid, channels)


def _schedule(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    lo, sep, hi = text.partition(",")
    if not sep:
        raise ValueError("p schedule must look like start,end")
    return float(lo), float(hi)


def _falsify_config(args) -> ExperimentConfig:
    inline = dict(
        plant=builtin(args.plant) if args.plant else None,
        formula_text=args.formula,
        manual_text=args.manual,
        assumption=parse_assumption(args.assumption) if args.assumption else None,
        step=args.step,
    )
    kwargs = dict(
        mode=args.mode,
        p=args.p,
        p_schedule=_schedule(args.p_schedule),
        repetitions=1,
        base_seed=args.seed,
        search=SearchConfig(max_iterations=args.max_iters, seed=args.seed),
    )
    if args.catalog:
        if any(v is not None for v in inline.values()):
            raise ValueError("--catalog excludes the inline plant/formula flags")
        return ExperimentConfig(entry=args.catalog, **kwargs)
    if args.auto_scale is not None:
        kwargs["auto_scale"] = args.auto_scale
    return ExperimentConfig(**inline, **kwargs)


def cmd_falsify(args) -> int:
    cfg = _falsify_config(args)
    problem = resolve(cfg)
    result = falsify(
        problem.plant, problem.assumption, problem.fitness, cfg.search, problem.grid
    )
    payload = {
        "outcome": "failure-found" if result.found else "no-failure-found",
        "entry": cfg.entry,
        "plant": problem.plant.name,
        "formula": str(problem.fitness.formula),
        "mode": cfg.mode,
        "p": cfg.effective_p,
        "seed": args.seed,
        "budget": args.max_iters,
        "iterations_used": result.iterations_used,
        "best_combined": json_float(result.best_combined),
        "best_robustness": json_float(result.best_robustness),
        "testcase": None,
    }
    if result.found:
        tc = result.failure
        controls = problem.assumption.control_points(tc.vector, problem.grid)
        payload["testcase"] = {
            "iteration": tc.iteration,
            "robustness": tc.robustness,
            "vector": [float(v) for v in tc.vector],
            "control_points": {
                port: {
                    "times": [float(t) for t in cp.times],
                    "values": [float(v) for v in cp.values],
                }
                for port, cp in controls.items()
            },
        }
    with open(args.out + ".json", "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if result.found:
        inputs = result.failure.inputs
        trace = Trace(problem.grid, {p: s.values for p, s in inputs.items()})
        _write_trace_csv(args.out + ".inputs.csv", trace)
        print(
            f"failure found at iteration {result.failure.iteration} "
            f"(robustness {_fmt(result.failure.robustness)}); wrote {args.out}.json"
        )
        return 0
    print(
        f"no failure found in {result.iterations_used} iterations "
        f"(best robustness {_fmt(result.best_robustness)}); wrote {args.out}.json"
    )
    return 1


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    out_base = args.out if args.out is not None else raw.pop("out", None)
    raw.pop("out", None)
    modes = args.modes.split(",") if args.modes else [raw.get("mode", "athena")]
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    for mode in modes:
        one = dict(raw)
        one["mode"] = mode
        if mode != "athena":
            one.pop("p", None)
            one.pop("p_schedule", None)
        if args.reps is not None:
            one["repetitions"] = args.reps
        cfg = config_from_dict(one)
        report = run_experiment(cfg, jobs=args.jobs, timestamp=not args.no_timestamp)
        line = (
            f"{mode}: {report.found}/{report.repetitions} failure-revealing "
            f"({report.percentage:.1f}%)"
        )
        stats = report.iteration_stats()
        if stats is not None:
            line += f", iterations mean {stats['mean']:.1f} range [{stats['min']}, {stats['max']}]"
        if out_base is not None:
            json_path, _ = write_report(
                report, f"{out_base}-{mode}", timestamp=not args.no_timestamp
            )
            line += f" -> {json_path}"
        print(line)
    return 0


def cmd_robustness(args) -> int:
    formula = parse(args.formula)
    trace = _read_trace(args.trace)
    print(_fmt(robustness(formula, trace)))
    return 0


def cmd_simulate(args) -> int:
    plant = builtin(args.plant)
    names, data = _read_csv_columns(args.inputs)
    csv_times = data[:, 0]
    _grid_of(csv_times, args.inputs)
    end = args.horizon if args.horizon is not None else float(csv_times[-1])
    step = args.dt if args.dt is not None else float(csv_times[1] - csv_times[0])
    grid = TimeGrid(end, step)
    inputs = {}
    for k, name in enumerate(names):
        values = np.interp(grid.times(), csv_times, data[:, k + 1])
        inputs[name] = Signal(grid, values)
    result = simulate(plant, inputs, grid)
    if args.out is not None:
        _write_trace_csv(args.out, result.trace)
    else:
        _write_trace_csv(sys.stdout, result.trace)
    return 0


def cmd_compare(args) -> int:
    with open(args.a) as fh:
        report_a = json.load(fh)
    with open(args.b) as fh:
        report_b = json.load(fh)
    result = compare_reports(report_a, report_b)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="athena",
        description="Search-based falsification of dynamical-system requirements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f = sub.add_parser("falsify", help="run one seeded falsification search")
    f.add_argument("--catalog", help="benchmark requirement id (see athena.catalog)")
    f.add_argument("--plant", help="built-in plant name for an inline spec")
    f.add_argument("--formula", help="requirement formula text")
    f.add_argument("--manual", help="manual fitness expression text")
    f.add_argument(
        "--assumption",
        help="input box, e.g. 'Throttle:pchip:0,100:7;Brake:pchip:0,325:3'",
    )
    f.add_argument("--auto-scale", dest="auto_scale", type=float,
                   help="robustness normalization constant (inline specs)")
    f.add_argument("--step", type=float, help="simulation step in seconds")
    f.add_argument("--mode", choices=MODES, default="athena")
    f.add_argument("--p", type=float, help="fitness weight for athena mode")
    f.add_argument("--p-schedule", dest="p_schedule",
                   help="linear weight schedule 'start,end' (athena mode)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--max-iters", dest="max_iters", type=int, default=300)
    f.add_argument("--out", default="testcase",
                   help="output base path (writes <out>.json and <out>.inputs.csv)")
    f.set_defaults(fn=cmd_falsify)

    b = sub.add_parser("bench", help="run a repeated experiment from a config file")
    b.add_argument("--config", required=True, help="JSON experiment config")
    b.add_argument("--reps", type=int, help="override repetitions")
    b.add_argument("--modes", help="comma-separated modes to run, e.g. 'automatic,manual,athena'")
    b.add_argument("--jobs", type=int, help="worker processes (default env ATHENA_JOBS or 1)")
    b.add_argument("--out", help="report base path (suffixed with -<mode>)")
    b.add_argument("--no-timestamp", dest="no_timestamp", action="store_true",
                   help="omit timing fields so reruns are byte-identical")
    b.set_defaults(fn=cmd_bench)

    r = sub.add_parser("robustness", help="evaluate a formula over a trace CSV")
    r.add_argument("--formula", required=True)
    r.add_argument("--trace", required=True, help="CSV with header time,<channel>,...")
    r.set_defaults(fn=cmd_robustness)

    s = sub.add_parser("simulate", help="integrate a plant over input signals from CSV")
    s.add_argument("--plant", required=True)
    s.add_argument("--inputs", required=True,
                   help="CSV with header time,<port>,... (resampled linearly onto the grid)")
    s.add_argument("--dt", type=float, help="simulation step (default: CSV spacing)")
    s.add_argument("--horizon", type=float, help="simulation end time (default: CSV end)")
    s.add_argument("--out", help="trace CSV path (default: stdout)")
    s.set_defaults(fn=cmd_simulate)

    c = sub.add_parser("compare", help="rank-sum comparison of two report files")
    c.add_argument("--a", required=True, help="report JSON path")
    c.add_argument("--b", required=True, help="report JSON path")
    c.set_defaults(fn=cmd_compare)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
