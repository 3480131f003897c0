"""Outside-in timing of athena's layers.

The program is not edited: the benchmark rebinds the names that
`harness._run_one`, `search.falsify`, `search.encode_inputs` and
`fitness.assess` look up at call time, times each call, and restores the
originals afterwards. A
layer's self time is its inclusive time minus the time of the wrapped
calls made inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (seam name, module attribute path, owning layer). The attribute path is
# the name the caller resolves at call time, so rebinding it is seen.
SEAMS = (
    ("falsify", "harness.falsify", "search"),
    ("propose", "search.propose", "search"),
    ("encode_inputs", "search.encode_inputs", "signals"),
    ("interpolate", "search.interpolate", "signals"),
    ("control_points", "search.Assumption.control_points", "signals"),
    ("simulate", "search.simulate", "models"),
    ("assess", "search.assess", "fitness"),
    ("robustness", "fitness.robustness", "stl"),
    ("manual_fitness", "fitness.manual_fitness", "fitness"),
)


class SeamError(RuntimeError):
    """A seam is missing, or saw a call count the search cannot produce."""


def _owner_and_name(athena, path: str):
    module_name, *attrs = path.split(".")
    owner = getattr(athena, module_name)
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    if not hasattr(owner, attrs[-1]):
        raise SeamError(f"seam athena.{path} no longer exists")
    return owner, attrs[-1]


class Seams:
    """Rebinds the seams while active; always captures `falsify` results.

    With `timed=False` only `harness.falsify` is wrapped, to record each
    run's seed, wall time and RunResult; the other layers run untouched.
    With `timed=True` every seam in SEAMS records per-call inclusive and
    self time.
    """

    def __init__(self, athena, timed: bool):
        self._athena = athena
        self._divergence = athena.DivergenceError
        self.timed = timed
        self.results: list[tuple[int, float, object]] = []
        self.runs = 0
        self.iterations = 0
        self.inclusive: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, list[float]] = defaultdict(list)
        self.diverged = 0
        self.ports = 0
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Seams":
        for name, path, _ in SEAMS:
            if name != "falsify" and not self.timed:
                continue
            owner, attr = _owner_and_name(self._athena, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        inclusive = self.inclusive[name]
        self_time = self.self_time[name]
        clock = time.perf_counter
        timed = self.timed

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._divergence:
                if name == "simulate":
                    self.diverged += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if timed:
                    inclusive.append(elapsed)
                    self_time.append(elapsed - children[0])
            if name == "falsify":
                # falsify(plant, assumption, fitness_cfg, search_cfg, grid)
                self.ports = len(args[1].ports)
                self.runs += 1
                self.iterations += result.iterations_used
                self.results.append((args[3].seed, elapsed, result))
            return result

        return wrapper

    def take_results(self) -> list[tuple[int, float, object]]:
        """Hand over the (seed, seconds, RunResult) of runs since the last call."""
        taken, self.results = self.results, []
        return taken

    def calls(self, name: str) -> int:
        return len(self.inclusive[name])

    def check_counts(self) -> None:
        """Fail loudly when a seam's call count does not fit the search.

        Each iteration encodes and simulates once; every simulation that
        did not diverge is assessed once, which computes robustness and
        the manual score once each; each port is interpolated once per
        encode; each run enters `falsify` once.
        """
        iterations = self.iterations
        assessed = iterations - self.diverged
        expected = {
            "falsify": self.runs,
            "encode_inputs": iterations,
            "simulate": iterations,
            "interpolate": iterations * self.ports,
            "assess": assessed,
            "robustness": assessed,
            "manual_fitness": assessed,
        }
        wrong = [
            f"{name}: {self.calls(name)} calls, expected {want}"
            for name, want in expected.items()
            if self.calls(name) != want
        ]
        if self.calls("control_points") < iterations:
            wrong.append(
                f"control_points: {self.calls('control_points')} calls, "
                f"expected at least {iterations}"
            )
        if self.calls("propose") > iterations:
            wrong.append(
                f"propose: {self.calls('propose')} calls, expected at most {iterations}"
            )
        if wrong:
            raise SeamError("seam call counts do not match: " + "; ".join(wrong))
