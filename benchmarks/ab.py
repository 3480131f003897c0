"""In-process A/B of two trees on one perfbench workload.

    python3 benchmarks/ab.py --parent DIR --change DIR --workload W --seeds 41-80

Each DIR is a tree of the repository, the parent commit and the change;
make both the same way, for example each with `git archive`, since a git
checkout and a plain copy of the same files can time differently. Both
trees' `src/athena` packages are imported into this one process, each
under its own name (`athena_parent`, `athena_change`), so each keeps its
own module caches: parsed catalog entries, interpolation plans and
superposition operators. The workload's config is perfbench's
(`perfbench/run.py` WORKLOADS, read from the tree this script is in).

Each of ROUNDS rounds runs that config through `run_experiment(jobs=1)`
on seeds A to B once in each tree, timed by `time.perf_counter` around the call, after a
garbage collection outside the timing. The order is ABBA: the parent
first in even rounds, the change first in odd ones, so that neither side
always runs on a host warmed or loaded by the other. One untimed round
comes first, which fills both trees' caches.

It prints each side's minimum and median round time, the rounds the
change wins, and the ratio of the medians, parent over change (above 1
when the change is faster), with a 95% bootstrap interval over resampled
rounds. It also says whether the trees gave the same fingerprint on every
seed: found, iterations, best robustness, best combined fitness and
error, floats compared bit for bit. It exits 1 when the found flags,
iteration counts or errors differ.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# enough rounds for a claim won in 9 of 10 of them, and for the bootstrap
ROUNDS = 12
BOOTSTRAP_RESAMPLES = 2000

sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "perfbench"))

from pairs import parse_seeds  # noqa: E402
from run import WORKLOADS  # noqa: E402


def load_tree(tree: Path, name: str):
    """Import `tree`'s `src/athena` package as the top-level package `name`."""
    init = tree / "src" / "athena" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no athena package under {tree / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def summarize(parent: list[float], change: list[float], resamples: int = BOOTSTRAP_RESAMPLES,
              seed: int = 0) -> dict:
    """Both sides' (minimum, median) round times, the rounds the change
    is faster in, round i being (parent[i], change[i]), and the ratio of
    the medians, parent over change, with the 2.5th and 97.5th percentiles
    of that ratio over `resamples` resamplings of the rounds, drawn with
    replacement by a generator seeded with `seed`."""
    rounds = len(parent)
    if len(change) != rounds or rounds == 0:
        raise ValueError(f"need the same number of rounds on both sides, got {rounds} and {len(change)}")
    rng = random.Random(seed)
    ratios = []
    for _ in range(resamples):
        picks = [rng.randrange(rounds) for _ in range(rounds)]
        ratios.append(
            statistics.median(parent[i] for i in picks) / statistics.median(change[i] for i in picks)
        )
    ratios.sort()
    return {
        "parent": (min(parent), statistics.median(parent)),
        "change": (min(change), statistics.median(change)),
        "wins": sum(c < p for p, c in zip(parent, change)),
        "rounds": rounds,
        "ratio": statistics.median(parent) / statistics.median(change),
        "interval": (ratios[int(0.025 * resamples)], ratios[int(0.975 * resamples) - 1]),
    }


def _bits(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def fingerprints(report) -> list[tuple]:
    """Per run: seed, found, iterations, the bits of the best robustness
    and of the best combined fitness, and the error."""
    return [
        (row.seed, row.found, row.iterations, _bits(row.best_robustness),
         _bits(row.best_combined), row.error)
        for row in report.rows
    ]


def timed_run(athena, cfg) -> tuple[float, list[tuple]]:
    gc.collect()
    start = time.perf_counter()
    report = athena.run_experiment(cfg, jobs=1, timestamp=False)
    seconds = time.perf_counter() - start
    return seconds, fingerprints(report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True)
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(str(exc))

    raw = dict(WORKLOADS[args.workload]["config"], repetitions=len(seeds), base_seed=seeds[0])
    sides = ("parent", "change")
    configs = {}
    for side, tree in zip(sides, (args.parent, args.change)):
        athena = load_tree(tree.resolve(), f"athena_{side}")
        configs[side] = (athena, athena.config_from_dict(raw))

    # the untimed round: fills both trees' caches and sets the fingerprints
    # every timed round must repeat
    want = {side: timed_run(*configs[side])[1] for side in sides}
    times: dict[str, list[float]] = {side: [] for side in sides}
    repeated = True
    for r in range(ROUNDS):
        for side in sides if r % 2 == 0 else sides[::-1]:
            seconds, got = timed_run(*configs[side])
            times[side].append(seconds)
            repeated &= got == want[side]
        print(f"round {r + 1}: done", file=sys.stderr, flush=True)

    s = summarize(times["parent"], times["change"])
    (pmin, pmed), (cmin, cmed), (lo, hi) = s["parent"], s["change"], s["interval"]
    print(f"{args.workload}: {ROUNDS} ABBA rounds of seeds {args.seeds} ({len(seeds)} runs each)")
    print(f"  parent: min {pmin:.4f} s, median {pmed:.4f} s")
    print(f"  change: min {cmin:.4f} s, median {cmed:.4f} s")
    print(f"  change faster in {s['wins']} of {s['rounds']} rounds")
    print(f"  ratio of medians, parent / change: {s['ratio']:.4f} [95% bootstrap {lo:.4f}, {hi:.4f}]")
    outcome = [[run[:3] + run[5:] for run in want[side]] for side in sides]
    if want["parent"] == want["change"]:
        print(f"  fingerprints: identical on all {len(seeds)} seeds")
    elif outcome[0] == outcome[1]:
        print("  fingerprints: found, iterations and errors identical; floats differ")
    else:
        print("  fingerprints: found, iterations or errors differ")
    if not repeated:
        print("  a timed round did not repeat its tree's fingerprints")
    return 0 if outcome[0] == outcome[1] and repeated else 1


if __name__ == "__main__":
    sys.exit(main())
