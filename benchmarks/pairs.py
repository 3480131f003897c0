"""Alternating parent/change pairs of untraced perfbench runs.

    python3 benchmarks/pairs.py --parent DIR --change DIR --workload W --seeds 41-50 [--seconds 25]

Each DIR is a checkout of the repository, the parent commit and the
change. Each seed makes one pair: `perfbench/run.py --workload W --seed S
--seconds X --trace 0` runs in one tree and then in the other, the parent
first on the first pair and the order reversed on every pair after, so
that neither side always runs on a host warmed or loaded by the other.
Only each run's last stdout line, the report perfbench prints last, is
read; this script times nothing itself.

For each end-to-end metric that BENCHMARK.json declares it prints the
median and quartiles of each side and the pairs the change wins in the
metric's direction (a tie counts for neither side), then every run's
`correct` and `failed`. It exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """The seeds of `A-B`, A to B inclusive, or of a single `N`."""
    first, sep, last = text.partition("-")
    lo = int(first)
    hi = int(last) if sep else lo
    if lo < 0 or hi < lo:
        raise ValueError(f"seeds must be N or A-B with 0 <= A <= B, got {text!r}")
    return list(range(lo, hi + 1))


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' spreads and the pairs the change wins and loses, pair i
    being (parent[i], change[i]); `better` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change, strict=True)]
    return {
        "parent": spread(parent),
        "change": spread(change),
        "wins": sum(d > 0.0 for d in diffs),
        "losses": sum(d < 0.0 for d in diffs),
        "pairs": len(diffs),
    }


def last_report(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line of `stdout`, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return last_report(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(str(exc))
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]

    trees = {"parent": args.parent, "change": args.change}
    reports: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            reports[side].append(run_once(trees[side], args.workload, seed, args.seconds))
            print(f"seed {seed} {side}: done", file=sys.stderr, flush=True)

    def value(report, name):
        if report is None or name not in report.get("metrics", {}):
            return None
        return float(report["metrics"][name]["value"])

    print(f"{args.workload}: {len(seeds)} alternating pairs, seeds {args.seeds}")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        pairs = [
            (value(p, name), value(c, name))
            for p, c in zip(reports["parent"], reports["change"])
        ]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            print(f"  {name}: no pair reports it")
            continue
        s = summarize([p for p, _ in pairs], [c for _, c in pairs], better)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = s["parent"], s["change"]
        print(
            f"  {name} ({better} is better): parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}],"
            f" change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}];"
            f" change wins {s['wins']} of {s['pairs']}, loses {s['losses']}"
        )
    incorrect = 0
    for side in ("parent", "change"):
        for seed, report in zip(seeds, reports[side]):
            if report is None:
                print(f"  seed {seed} {side}: no report")
                incorrect += 1
                continue
            correct = report.get("correct") is True
            incorrect += not correct
            print(f"  seed {seed} {side}: correct {correct}, failed {report.get('failed')}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
