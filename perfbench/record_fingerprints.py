"""Rewrite fingerprints.json: the per-seed fingerprint at the default seed.

    python3 perfbench/record_fingerprints.py

Runs the first FINGERPRINT_SEEDS search seeds of every workload, the
seeds a `run.py --seed 0` run uses, and stores each run's (found,
iterations, best robustness, best combined fitness). A change that keeps
search behaviour must leave this file unchanged.
"""

import dataclasses
import json
import sys

from run import (
    DEFAULT_SEED, FINGERPRINT_SEEDS, HERE, SEED_STRIDE, WORKLOADS, fingerprint_of, load_athena,
)


def main() -> None:
    athena = load_athena()
    out = {}
    for name, workload in WORKLOADS.items():
        cfg = athena.config_from_dict(dict(workload["config"], repetitions=FINGERPRINT_SEEDS))
        cfg = dataclasses.replace(cfg, base_seed=DEFAULT_SEED * SEED_STRIDE)
        report = athena.run_experiment(cfg, jobs=1, timestamp=False)
        if any(row.error for row in report.rows):
            raise SystemExit(f"{name}: a run errored; not recording")
        out[name] = {str(r.seed): fingerprint_of(r) for r in report.rows}
        print(name, report.found, "found of", FINGERPRINT_SEEDS, file=sys.stderr)
    blocks = []
    for name, seeds in out.items():
        lines = ",\n".join(f'  "{seed}": {json.dumps(fp)}' for seed, fp in seeds.items())
        blocks.append(f' "{name}": {{\n{lines}\n }}')
    with open(HERE / "fingerprints.json", "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
