"""Trajectory gate: do search outcomes stay what a stored digest says?

    python benchmarks/trajectory.py record
    python benchmarks/trajectory.py check [--level bitwise|golden]

Run from the repository root; athena is imported from `src/`. The gate
covers two sets of runs:

- the `--no-timestamp` JSON and CSV reports of every catalog entry in
  every fitness mode, at REPETITIONS seeded runs from base seed 0 and the
  default search constants;
- every seed stored in `perfbench/fingerprints.json`, run on its perfbench
  workload as `perfbench/record_fingerprints.py` runs it.

`record` writes `data/trajectory.json`: per report, the SHA-256 of its
JSON and CSV bytes and one (seed, found, iterations, best robustness,
best combined, error) row per run; per workload, the SHA-256 of its
fingerprint rows and the rows themselves. `check` reruns everything and
compares at one of two levels:

- `bitwise`: every digest is equal, so every report byte and every float
  of every fingerprint is what was recorded;
- `golden`: found, iterations and error are equal and each float is
  within a relative 1e-6 (absolute 1e-12), the rule of the catalog
  goldens; a non-finite score (null) must stay null.

It prints one line per report or workload that differs and a summary, and
exits 1 when anything differs at the chosen level. Record on the commit a
change starts from, then check the change. A full run takes about five
minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = Path(__file__).resolve().parent / "data" / "trajectory.json"
REPETITIONS = 50
RTOL = 1e-6
ATOL = 1e-12

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from athena.catalog import catalog_ids  # noqa: E402
from athena.harness import (  # noqa: E402
    MODES,
    ExperimentConfig,
    config_from_dict,
    json_float,
    run_experiment,
    write_report,
)
from run import FINGERPRINT_SEEDS, WORKLOADS, fingerprint_of  # noqa: E402


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _row(row) -> list:
    return [
        row.seed,
        row.found,
        row.iterations,
        json_float(row.best_robustness),
        json_float(row.best_combined),
        row.error,
    ]


def catalog_reports() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for entry in catalog_ids():
            for mode in MODES:
                cfg = ExperimentConfig(entry=entry, mode=mode, repetitions=REPETITIONS)
                report = run_experiment(cfg, jobs=1, timestamp=False)
                paths = write_report(report, str(Path(tmp) / "report"), timestamp=False)
                key = f"{entry}/{mode}"
                out[key] = {
                    "sha256": _sha256(*(Path(p).read_bytes() for p in paths)),
                    "runs": [_row(row) for row in report.rows],
                }
                print(f"trajectory: {key} found {report.found}", file=sys.stderr)
    return out


def fingerprints() -> dict:
    out = {}
    for name, workload in WORKLOADS.items():
        raw = dict(workload["config"], repetitions=FINGERPRINT_SEEDS, base_seed=0)
        report = run_experiment(config_from_dict(raw), jobs=1, timestamp=False)
        runs = [[row.seed, *fingerprint_of(row), row.error] for row in report.rows]
        out[name] = {"sha256": _sha256(repr(runs).encode()), "runs": runs}
        print(f"trajectory: {name} found {report.found}", file=sys.stderr)
    return out


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def _golden_diff(got: list, want: list) -> str | None:
    """The first run whose found, iterations or error differ, or whose
    floats leave the tolerance; None when every run matches."""
    if len(got) != len(want):
        return f"{len(got)} runs, recorded {len(want)}"
    for g, w in zip(got, want):
        seed, found, iterations, *floats, error = g
        if [seed, found, iterations, error] != [w[0], w[1], w[2], w[-1]]:
            return f"run {g}, recorded {w}"
        if not all(_close(a, b) for a, b in zip(floats, w[3:-1])):
            return f"run {g}, recorded {w}"
    return None


def compare(got: dict, want: dict, level: str) -> list[str]:
    problems = []
    for group in ("reports", "fingerprints"):
        if sorted(got[group]) != sorted(want[group]):
            problems.append(f"{group}: keys {sorted(got[group])}, recorded {sorted(want[group])}")
            continue
        for key, item in got[group].items():
            recorded = want[group][key]
            if level == "bitwise":
                if item["sha256"] != recorded["sha256"]:
                    problems.append(f"{group} {key}: digest differs")
            else:
                diff = _golden_diff(item["runs"], recorded["runs"])
                if diff is not None:
                    problems.append(f"{group} {key}: {diff}")
    return problems


def _dump(digest: dict) -> str:
    """The digest as JSON with one run per line, so a diff names runs."""
    lines = ["{"]
    for key in ("repetitions", "fingerprint_seeds"):
        lines.append(f" {json.dumps(key)}: {digest[key]},")
    for i, group in enumerate(("reports", "fingerprints")):
        lines.append(f" {json.dumps(group)}: {{")
        items = list(digest[group].items())
        for j, (key, item) in enumerate(items):
            lines.append(f"  {json.dumps(key)}: {{\"sha256\": {json.dumps(item['sha256'])}, \"runs\": [")
            lines.append(",\n".join("   " + json.dumps(run) for run in item["runs"]))
            lines.append("  ]}" + ("," if j < len(items) - 1 else ""))
        lines.append(" }" + ("," if i == 0 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def collect() -> dict:
    return {
        "repetitions": REPETITIONS,
        "fingerprint_seeds": FINGERPRINT_SEEDS,
        "reports": catalog_reports(),
        "fingerprints": fingerprints(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("command", choices=("record", "check"))
    ap.add_argument("--level", choices=("bitwise", "golden"), default="bitwise")
    args = ap.parse_args(argv)
    got = collect()
    if args.command == "record":
        DIGEST.parent.mkdir(exist_ok=True)
        DIGEST.write_text(_dump(got))
        print(f"trajectory: recorded {len(got['reports'])} reports and "
              f"{len(got['fingerprints'])} workloads to {DIGEST}")
        return 0
    problems = compare(got, json.loads(DIGEST.read_text()), args.level)
    for problem in problems:
        print(f"trajectory: DIFFERS: {problem}")
    reports, runs = len(got["reports"]), sum(len(w["runs"]) for w in got["fingerprints"].values())
    verdict = "FAIL" if problems else "PASS"
    print(f"trajectory: {args.level} check of {reports} reports and {runs} fingerprint "
          f"seeds: {verdict} ({len(problems)} differ)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
