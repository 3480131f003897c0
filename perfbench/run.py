"""athena falsification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. Each
workload is one serial falsification experiment driven through the public
harness API (`config_from_dict` -> `run_experiment`, `jobs=1`): a closed
loop with one client in one process, each seeded run starting after the
previous one ends. Passes of `reps` seeded runs repeat until `--seconds`
have elapsed; pass k of seed N uses the search seeds
N*1000 + k*reps ... N*1000 + (k+1)*reps - 1.

With `--trace 0` the last stdout line carries the end-to-end metrics.
`sims_per_s` there is rescaled to a fixed host speed (see reference.py),
because on a shared host the speed given to one process can swing by up
to 2x; the report line also gives the rate as measured. `setup_s` is
the median of fresh-interpreter probes run before and after the passes
(see probe.py). With `--trace 1` every block of seeds runs twice,
untraced and then traced, and the last line carries the per-layer
metrics of the traced passes. The line before the last is a
JSON report with every metric, the run fingerprints, the failed checks
and the environment.

Checks, made outside the timed region: every reported falsifying input
is replayed through `simulate` and `robustness` and must give rho < 0
(equal to the reported rho); every run that found nothing spent the whole
budget with best rho >= 0; at the default seed the per-seed fingerprint
(found, iterations, best robustness, best combined fitness) must match
`fingerprints.json`, and the run must not go past its stored seeds; in
a traced run the traced passes must repeat the untraced fingerprints and
every seam must see the call count the search implies.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S, reference_seconds
from seams import SEAMS, Seams, SeamError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SEED_STRIDE = 1000
# Search seeds of the default seed that fingerprints.json stores. The
# fastest workload runs ~100 of them in 25 s, so this leaves room for a
# speed-up of about 5x before the stored fingerprints run out.
FINGERPRINT_SEEDS = 500
# Relative tolerance on the stored best robustness and combined fitness.
FINGERPRINT_RTOL = 1e-6
# Fresh-interpreter set-up probes timed before the passes, and as many
# again after them, so that a run's median spans the host's speed phases.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

# Inline problem on the identity plant y = x with x in [0, 1]: both
# conjuncts hold with margin >= 1 for every input, so it cannot be
# falsified and every run spends the full budget in stl and fitness.
PASSTHROUGH = {
    "plant": "passthrough",
    "formula": "G[0,70] (F[0,30] (G[0,20] (y - 0.5 * x >= -1)))"
    " and G[0,100] (F[0,20] (y <= 2))",
    "manual": "scale(mean(y,[0,60]),[0,1]) - scale(ptp(x,[30,120]),[0,1])"
    " + 0.5 * scale(max(y - x,[10,90]),[0,1]) - 0.1 * slope_up(x,[0,120])",
    "assumption": "x:linear:0,1:9",
    "auto_scale": 2.0,
    "step": 0.01,
    "mode": "athena",
}

# Why each workload: at2_budget never falsifies, so every run spends the
# 300-simulation budget on the scalar-loop at_lite plant (fixed work;
# simulate ~65%, encode and bookkeeping ~30%). cc1_falsify falsifies on
# nearly every seed, after 1 to ~200 iterations, so it shows time-to-falsify;
# the chasing_cars recurrence is ~87% of it. passthrough_spec bypasses
# the plant (simulate ~5%) and loads stl and fitness (~60%), with linear
# interpolation on a 12001-sample grid.
WORKLOADS = {
    "at2_budget": {"config": {"entry": "AT2", "mode": "athena"}, "reps": 1},
    "cc1_falsify": {"config": {"entry": "CC1", "mode": "athena"}, "reps": 2},
    "passthrough_spec": {"config": PASSTHROUGH, "reps": 2},
}

TIMER_NOTE = (
    "user-space timers only (time.perf_counter, getrusage): no CPU pinning, "
    "no system-wide tracing and no cache dropping, which an unprivileged container cannot do"
)


class BenchError(Exception):
    """The benchmark cannot run here: no program to measure."""


def load_athena():
    """Import athena from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "athena" / "__init__.py").is_file():
        raise BenchError(f"no athena package under {SRC}")
    sys.path.insert(0, str(SRC))
    import athena
    import athena.harness

    if Path(athena.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"imported athena from {athena.__file__}, not {SRC}")
    return athena


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": 1,
        "timers": TIMER_NOTE,
    }


def run_probes(raw_config: dict, importtime: bool, count: int) -> list[dict]:
    """Time `count` fresh interpreters up to their first seeded run.

    With `importtime` the probes run under `-X importtime` and report what
    `import scipy.stats` costs inside `import athena`.
    """
    probe_cfg = dict(raw_config, repetitions=1, search={"max_iterations": 1})
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "probe.py"), json.dumps(probe_cfg)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    out = []
    for _ in range(count):
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(probe["athena_file"]).resolve().parent.parent != SRC:
            raise BenchError(f"probe imported athena from {probe['athena_file']}")
        probe["scipy_stats_import_s"] = 0.0
        for line in done.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.stats":
                probe["scipy_stats_import_s"] = int(parts[1]) / 1e6
        out.append(probe)
    return out


@dataclasses.dataclass
class Pass:
    seconds: float
    rows: tuple
    run_seconds: list  # wall time of each run inside harness.falsify
    ref_s: float  # reference kernel time around the pass

    @property
    def sims(self) -> int:
        return sum(row.iterations for row in self.rows)


def replay_problems(athena, raw_config: dict, budget: int, threshold: float):
    """Independent re-check of each run's outcome, from the public API."""
    if "entry" in raw_config:
        entry = athena.catalog(raw_config["entry"])
        plant, formula = entry.make_plant(), entry.formula
    else:
        plant = athena.builtin(raw_config["plant"])
        formula = athena.parse(raw_config["formula"])

    def problems(rows, runs) -> list[str]:
        out = []
        results = {seed: result for seed, _, result in runs}
        for row in rows:
            if row.error is not None:
                continue
            result = results.get(row.seed)
            if result is None:
                out.append(f"seed {row.seed}: falsify was never entered")
                continue
            if (row.found, row.iterations) != (result.found, result.iterations_used):
                out.append(f"seed {row.seed}: report row disagrees with RunResult")
            if not row.found:
                if row.iterations != budget or not row.best_robustness >= threshold:
                    out.append(
                        f"seed {row.seed}: not found, but iterations="
                        f"{row.iterations} best_robustness={row.best_robustness}"
                    )
                continue
            case = result.failure
            grid = next(iter(case.inputs.values())).grid
            trace = athena.simulate(plant, dict(case.inputs), grid).trace
            rho = athena.robustness(formula, trace)
            if not rho < threshold or abs(rho - case.robustness) > 1e-9 * max(1.0, abs(rho)):
                out.append(
                    f"seed {row.seed}: replayed rho {rho!r}, reported {case.robustness!r}"
                )
        return out

    return problems


def run_passes(athena, cfg, modes, base_seed, deadline, check):
    """Run experiments of `cfg.repetitions` seeded runs back to back.

    Blocks of consecutive seeds start at `base_seed` and continue until
    `deadline` (perf_counter) has passed. Each block runs once under each
    Seams in `modes`, one after the other, so a traced pass and its
    untraced twin do the same work under the same machine conditions.
    `check` runs after each pass, outside its timed region, and returns
    problem strings. Returns one list of passes per mode, and the problems.
    """
    passes, problems = [[] for _ in modes], []
    seed = base_seed
    ref_before = reference_seconds()
    while True:
        for seams, out in zip(modes, passes):
            run_cfg = dataclasses.replace(cfg, base_seed=seed)
            with seams:
                start = time.perf_counter()
                report = athena.run_experiment(run_cfg, jobs=1, timestamp=False)
                seconds = time.perf_counter() - start
            ref_after = reference_seconds()
            runs = seams.take_results()
            problems += check(report.rows, runs)
            out.append(Pass(
                seconds, report.rows, [t for _, t, _ in runs], (ref_before + ref_after) / 2
            ))
            ref_before = ref_after
        seed += cfg.repetitions
        if time.perf_counter() >= deadline:
            return passes, problems


def fingerprint_of(row) -> list:
    return [row.found, row.iterations, row.best_robustness, row.best_combined]


def fingerprint(passes) -> list[list]:
    return [[row.seed, *fingerprint_of(row)] for p in passes for row in p.rows]


def same_fingerprint(got: list, want: list) -> bool:
    if got[:2] != want[:2]:
        return False
    return all(
        g == w if g is None or w is None
        else math.isclose(g, w, rel_tol=FINGERPRINT_RTOL, abs_tol=1e-12)
        for g, w in zip(got[2:], want[2:])
    )


def compare_fingerprint(workload: str, runs: list[list]) -> tuple[int, list[str]]:
    with open(HERE / "fingerprints.json") as fh:
        stored = json.load(fh)[workload]
    compared, problems = 0, []
    for seed, *got in runs:
        want = stored.get(str(seed))
        if want is None:
            problems.append(
                f"seed {seed} is past the {len(stored)} stored fingerprints; "
                "re-record fingerprints.json with more seeds"
            )
            break
        compared += 1
        if not same_fingerprint(got, want):
            problems.append(
                f"fingerprint of seed {seed}: (found, iterations, best rho, "
                f"best combined) = {got}, stored {want}"
            )
    return compared, problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, probes) -> dict:
    """End-to-end metrics of the untraced passes.

    `sims_per_s` is all simulations over all pass time, each pass's time
    rescaled to reference host speed by the reference kernel time
    measured around it (see reference.py). `sims_per_s_raw` is the same
    ratio with the time as measured.
    """
    rows = [row for p in passes for row in p.rows]
    sims = sum(p.sims for p in passes)
    run_s = [s for p in passes for s in p.run_seconds]
    seconds = sum(p.seconds for p in passes)
    return {
        "sims_per_s": metric(
            sims / sum(p.seconds * REF_S / p.ref_s for p in passes), "1/s"
        ),
        "setup_s": metric(statistics.median(pr["setup_s"] for pr in probes), "s")
        | {"samples": [pr["setup_s"] for pr in probes]},
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sims_per_s_raw": metric(sims / seconds, "1/s"),
        "reference_s": metric(statistics.median(p.ref_s for p in passes), "s"),
        "experiment_s": metric(statistics.median(p.seconds for p in passes), "s")
        | {"reps": len(passes[0].rows), "samples": len(passes)},
        "run_s_p50": metric(statistics.median(run_s), "s") | {"samples": len(run_s)},
        "found_rate": metric(sum(row.found for row in rows) / len(rows), "ratio"),
        "sims_per_run_mean": metric(sims / len(rows), "count"),
        "error_rate": metric(sum(row.error is not None for row in rows) / len(rows), "ratio"),
    }


def per_layer(seams, plain, traced, probes) -> dict:
    """Per-layer metrics of the traced passes.

    A `_us` figure is the median per call unless named otherwise; a
    layer's `share` is its seams' self time over the time spent inside
    `harness.falsify`; `trace.overhead` compares each traced pass with
    its untraced twin.
    """
    incl, own = seams.inclusive, seams.self_time
    iterations = seams.iterations
    in_falsify = sum(incl["falsify"])

    def p50_us(name, times=incl):
        return statistics.median(times[name]) * 1e6 if times[name] else 0.0

    def share(layer):
        return sum(sum(own[n]) for n, _, lay in SEAMS if lay == layer) / in_falsify

    sim = incl["simulate"]
    p99 = statistics.quantiles(sim, n=100)[98] if len(sim) > 1 else sim[0]
    traced_s = sum(p.seconds for p in traced)
    return {
        "signals.encode_us": metric(p50_us("encode_inputs"), "us"),
        "signals.interpolate_us": metric(p50_us("interpolate"), "us"),
        "signals.control_points_us": metric(p50_us("control_points"), "us"),
        "signals.control_points_per_sim": metric(
            seams.calls("control_points") / iterations, "count"
        ),
        "signals.share": metric(share("signals"), "ratio"),
        "models.simulate_us": metric(p50_us("simulate"), "us"),
        "models.simulate_us_p99": metric(p99 * 1e6, "us") | {"samples": len(sim)},
        "models.diverged_per_sim": metric(seams.diverged / iterations, "count"),
        "models.share": metric(share("models"), "ratio"),
        "stl.robustness_us": metric(p50_us("robustness"), "us"),
        "stl.share": metric(share("stl"), "ratio"),
        "fitness.manual_us": metric(p50_us("manual_fitness"), "us"),
        "fitness.assess_self_us": metric(p50_us("assess", own), "us"),
        "fitness.share": metric(share("fitness"), "ratio"),
        "search.propose_us": metric(p50_us("propose"), "us"),
        "search.self_us_per_sim": metric(sum(own["falsify"]) / iterations * 1e6, "us"),
        "search.restart_ratio": metric(1.0 - seams.calls("propose") / iterations, "ratio"),
        "search.share": metric(share("search"), "ratio"),
        "harness.overhead_s": metric((traced_s - in_falsify) / len(traced), "s"),
        "harness.runs": metric(seams.runs, "count"),
        "setup.import_s": metric(statistics.median(p["import_s"] for p in probes), "s"),
        "setup.scipy_stats_import_s": metric(
            statistics.median(p["scipy_stats_import_s"] for p in probes), "s"
        ),
        "setup.resolve_s": metric(statistics.median(p["resolve_s"] for p in probes), "s"),
        "trace.overhead": metric(
            traced_s / sum(p.seconds for p in plain) - 1.0, "ratio"
        ),
    }


def declared_metrics(kind: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        athena = load_athena()
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    except (BenchError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    raw = dict(workload["config"], repetitions=workload["reps"])
    cfg = athena.config_from_dict(raw)
    base = args.seed * SEED_STRIDE
    # This first probe is discarded: it writes the bytecode caches a fresh
    # checkout lacks, so the measured ones load athena as an installed
    # package would.
    run_probes(raw, bool(args.trace), 1)
    probes = run_probes(raw, bool(args.trace), SETUP_PROBES)
    check = replay_problems(athena, raw, cfg.search.max_iterations, cfg.search.threshold)

    # Untimed warm-up at a seed outside the measured blocks.
    warm = dataclasses.replace(
        cfg, repetitions=1, base_seed=base + SEED_STRIDE - 1,
        search=dataclasses.replace(cfg.search, max_iterations=10),
    )
    athena.run_experiment(warm, jobs=1, timestamp=False)

    deadline = time.perf_counter() + args.seconds
    plain_seams = Seams(athena, timed=False)
    if args.trace:
        traced_seams = Seams(athena, timed=True)
        try:
            (plain, traced), problems = run_passes(
                athena, cfg, (plain_seams, traced_seams), base, deadline, check
            )
            traced_seams.check_counts()
        except SeamError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if fingerprint(traced) != fingerprint(plain):
            problems.append("traced passes did not repeat the untraced fingerprints")
    else:
        (plain,), problems = run_passes(athena, cfg, (plain_seams,), base, deadline, check)
        traced = []
    probes += run_probes(raw, bool(args.trace), SETUP_PROBES)
    if args.trace:
        metrics = per_layer(traced_seams, plain, traced, probes)
    else:
        metrics = end_to_end(plain, probes)
    runs = fingerprint(plain)
    all_rows = [row for p in plain + traced for row in p.rows]

    compared = 0
    if args.seed == DEFAULT_SEED:
        compared, found = compare_fingerprint(args.workload, runs)
        problems += found
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "base_seed": base,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": metrics,
        "fingerprint": {"compared": compared, "runs": runs},
        "problems": problems,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_rows),
        "failed": sum(row.error is not None for row in all_rows),
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in declared if name in metrics},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
