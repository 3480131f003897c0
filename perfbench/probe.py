"""Set-up probe: one fresh interpreter, timed up to its first seeded run.

Run as `python3 perfbench/probe.py '<experiment config JSON>'` with the
repository's `src` on PYTHONPATH. Prints one JSON object of seconds:
`import_s` (`import athena`), `config_s` (`config_from_dict`),
`resolve_s` (from `run_experiment` until it enters `harness.falsify`) and
`setup_s`, their sum measured from the first line of this file.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    t0 = time.perf_counter()
    import athena
    import athena.harness

    t1 = time.perf_counter()
    cfg = athena.config_from_dict(json.loads(sys.argv[1]))
    t2 = time.perf_counter()

    entered = []
    falsify = athena.harness.falsify

    def first_entry(*args, **kwargs):
        entered.append(time.perf_counter())
        return falsify(*args, **kwargs)

    athena.harness.falsify = first_entry
    try:
        athena.run_experiment(cfg, jobs=1, timestamp=False)
    finally:
        athena.harness.falsify = falsify
    if not entered:
        raise SystemExit("run_experiment never entered harness.falsify")
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "config_s": t2 - t1,
                "resolve_s": entered[0] - t2,
                "setup_s": entered[0] - _START,
                "athena_file": athena.__file__,
            }
        )
    )


if __name__ == "__main__":
    main()
