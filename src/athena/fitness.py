"""Fitness assessment: automatic (robustness-based), manual, and combined.

The automatic fitness is the requirement's robustness scaled into [-1, 1].
The manual fitness is an arithmetic expression over trace statistics that
encodes domain knowledge about where failures hide. The combined value
p*automatic + (1-p)*manual is what the search minimizes; the search stops
as soon as the raw robustness falls below `SearchConfig.threshold`.

Manual expressions have a textual form used in config files, e.g.

    scale(mean(Brake,[0,50]),[0,325]) - scale(mean(Throttle,[0,50]),[0,100])

with window statistics min/max/mean/ptp over a channel (or a linear
combination of channels), slope_up/slope_down over an input's control
points, scale(expr,[lo,hi]) mapping into [0,1], dist(expr, target) for
distance-to-target, numeric constants, and + - * arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import MissingChannelError, ParseError, check_number, quiet_overflow
from .signals import (
    ControlPoints,
    SlopeDirection,
    TimeGrid,
    WindowStatKind,
    scale as scale_value,
    steepest_slope,
    window_samples,
    window_span,
)
from .stl import (
    AtomExpr,
    Formula,
    FormulaParser,
    Trace,
    formula_channels,
    formula_samples,
    number_text,
    robustness,
)

__all__ = [
    "ManualFitnessExpr",
    "Const",
    "WindowStat",
    "SteepestSlope",
    "Scale",
    "TargetDistance",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "parse_manual",
    "FitnessAssessment",
    "FitnessValue",
    "auto_fitness",
    "manual_fitness",
    "athena_combine",
    "assess",
]

Controls = Mapping[str, ControlPoints]

class ManualFitnessExpr:
    """Base class for manual-fitness expression nodes.

    `evaluate` scores a trace. `controls` are the control points the
    inputs were interpolated from. `inputs`, when given, holds the encoded
    inputs on the whole grid while `trace` covers only its simulated
    prefix (see `WindowStat`).
    """

    __slots__ = ()

    def evaluate(
        self, trace: Trace, controls: Controls | None = None, inputs: Trace | None = None
    ) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(ManualFitnessExpr):
    value: float

    def evaluate(self, trace, controls=None, inputs=None):
        return self.value

    def __str__(self):
        return number_text(self.value)


@dataclass(frozen=True)
class WindowStat(ManualFitnessExpr):
    """A statistic of a channel expression over a closed time window.

    Given `inputs`, the encoded inputs on the whole grid, a window whose
    channels (`names`) all are in it reads it, not the trace: the search
    encodes the inputs before it simulates, so the plant is simulated only
    as far as the windows over its outputs reach (`FitnessAssessment.reads`
    applies the same rule). The window reads the same samples either way,
    so the value is the same. A plant that diverges after that output prefix is
    scored normally, since no window reads those samples of its outputs.

    The channel expression is evaluated only over the window's samples,
    whose range the window resolves once per grid it reads: it keeps the
    range of the last grid, which a run passes as the same object on every
    trace. The statistic is taken over the expression's values up to the
    sign of a zero (`AtomExpr.raw`): a read-only view of the channel's
    samples, with no copy, for a window over one channel as it stands,
    and the terms' sum without a pass that adds a zero constant. Plus 0.0
    it has the bits of the statistic of the expression's values.
    """

    channel: AtomExpr
    stat: WindowStatKind
    window: tuple[float, float]

    def __post_init__(self):
        # the window is a cache key
        object.__setattr__(self, "window", tuple(self.window))
        # the channel names, built once per window, not per evaluation
        object.__setattr__(self, "names", frozenset(self.channel.channels()))
        # (grid, lo, hi) of the last grid read, outside the fields
        object.__setattr__(self, "_span", (None, 0, -1))

    def evaluate(self, trace, controls=None, inputs=None):
        if inputs is not None and inputs.channels.keys() >= self.names:
            trace = inputs
        grid, lo, hi = self._span
        if grid is not trace.grid:
            grid = trace.grid
            lo, hi = window_span(self.window, grid)
            object.__setattr__(self, "_span", (grid, lo, hi))
        values, _ = self.channel.raw(trace, lo, hi + 1)
        return self.stat.of(values) + 0.0

    def __str__(self):
        a, b = self.window
        return f"{self.stat.value}({self.channel},[{number_text(a)},{number_text(b)}])"


@dataclass(frozen=True)
class SteepestSlope(ManualFitnessExpr):
    """Largest rise (or fall) rate between an input's control points."""

    port: str
    direction: SlopeDirection
    window: tuple[float, float]

    def evaluate(self, trace, controls=None, inputs=None):
        if controls is None or self.port not in controls:
            raise ValueError(
                f"slope term needs the control points of input {self.port!r}"
            )
        return steepest_slope(controls[self.port], self.direction, self.window)

    def __str__(self):
        name = "slope_up" if self.direction is SlopeDirection.POSITIVE else "slope_down"
        a, b = self.window
        return f"{name}({self.port},[{number_text(a)},{number_text(b)}])"


@dataclass(frozen=True)
class Scale(ManualFitnessExpr):
    """Clamped affine map of a subexpression onto [0, 1]."""

    child: ManualFitnessExpr
    lo: float
    hi: float

    def evaluate(self, trace, controls=None, inputs=None):
        return scale_value(self.child.evaluate(trace, controls, inputs), (self.lo, self.hi))

    def __str__(self):
        return f"scale({self.child},[{number_text(self.lo)},{number_text(self.hi)}])"


@dataclass(frozen=True)
class TargetDistance(ManualFitnessExpr):
    """Absolute distance of a subexpression from a target value."""

    child: ManualFitnessExpr
    target: float

    def evaluate(self, trace, controls=None, inputs=None):
        return abs(self.child.evaluate(trace, controls, inputs) - self.target)

    def __str__(self):
        return f"dist({self.child},{number_text(self.target)})"


@dataclass(frozen=True)
class Neg(ManualFitnessExpr):
    child: ManualFitnessExpr

    def evaluate(self, trace, controls=None, inputs=None):
        return -self.child.evaluate(trace, controls, inputs)

    def __str__(self):
        if isinstance(self.child, (Add, Sub, Mul)):
            return f"-({self.child})"
        return f"-{self.child}"


def _paren(node: ManualFitnessExpr) -> str:
    if isinstance(node, (Add, Sub)):
        return f"({node})"
    return str(node)


@dataclass(frozen=True)
class Add(ManualFitnessExpr):
    left: ManualFitnessExpr
    right: ManualFitnessExpr

    def evaluate(self, trace, controls=None, inputs=None):
        left = self.left.evaluate(trace, controls, inputs)
        return left + self.right.evaluate(trace, controls, inputs)

    def __str__(self):
        return f"{self.left} + {_paren(self.right)}"


@dataclass(frozen=True)
class Sub(ManualFitnessExpr):
    left: ManualFitnessExpr
    right: ManualFitnessExpr

    def evaluate(self, trace, controls=None, inputs=None):
        left = self.left.evaluate(trace, controls, inputs)
        return left - self.right.evaluate(trace, controls, inputs)

    def __str__(self):
        return f"{self.left} - {_paren(self.right)}"


@dataclass(frozen=True)
class Mul(ManualFitnessExpr):
    left: ManualFitnessExpr
    right: ManualFitnessExpr

    def evaluate(self, trace, controls=None, inputs=None):
        left = self.left.evaluate(trace, controls, inputs)
        return left * self.right.evaluate(trace, controls, inputs)

    def __str__(self):
        # parse reads a * b * c as (a * b) * c
        right = f"({self.right})" if isinstance(self.right, Mul) else _paren(self.right)
        return f"{_paren(self.left)} * {right}"


_STAT_NAMES = {kind.value: kind for kind in WindowStatKind}
_SLOPE_NAMES = {
    "slope_up": SlopeDirection.POSITIVE,
    "slope_down": SlopeDirection.NEGATIVE,
}


class _ManualParser(FormulaParser):
    """Arithmetic over fitness terms, reusing the formula tokenizer."""

    def manual(self) -> ManualFitnessExpr:
        node = self.product()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance().kind
            right = self.product()
            node = Add(node, right) if op == "PLUS" else Sub(node, right)
        return node

    def product(self) -> ManualFitnessExpr:
        node = self.factor()
        while self.peek().kind == "STAR":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> ManualFitnessExpr:
        tok = self.peek()
        if tok.kind == "MINUS":
            self.advance()
            return Neg(self.factor())
        if tok.kind == "NUM":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "LPAREN":
            self.advance()
            node = self.manual()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            return self.call()
        raise ParseError(
            f"expected a fitness term, found {tok.text or 'end of input'!r}", tok.offset
        )

    def call(self) -> ManualFitnessExpr:
        tok = self.advance()
        name = tok.text
        self.expect("LPAREN", f"'(' after {name}")
        if name in _STAT_NAMES:
            channel = self.expr()
            self.expect("COMMA", "','")
            window = self.interval()
            node: ManualFitnessExpr = WindowStat(channel, _STAT_NAMES[name], window)
        elif name in _SLOPE_NAMES:
            port = self.expect("IDENT", "an input name")
            self.expect("COMMA", "','")
            window = self.interval()
            node = SteepestSlope(port.text, _SLOPE_NAMES[name], window)
        elif name == "scale":
            child = self.manual()
            self.expect("COMMA", "','")
            lo, hi = self.interval()
            node = Scale(child, lo, hi)
        elif name == "dist":
            child = self.manual()
            self.expect("COMMA", "','")
            target = self.signed_number()
            node = TargetDistance(child, target)
        else:
            raise ParseError(f"unknown fitness function {name!r}", tok.offset)
        self.expect("RPAREN", "')'")
        return node


def _leaves(expr: ManualFitnessExpr) -> Iterator[ManualFitnessExpr]:
    """The nodes of `expr` that read a trace or control points, in source
    order: window statistics, slope terms and nodes of any type defined
    elsewhere. A constant reads nothing."""
    if isinstance(expr, (Scale, TargetDistance, Neg)):
        yield from _leaves(expr.child)
    elif isinstance(expr, (Add, Sub, Mul)):
        yield from _leaves(expr.left)
        yield from _leaves(expr.right)
    elif not isinstance(expr, Const):
        yield expr


def parse_manual(text: str) -> ManualFitnessExpr:
    """Parse the textual manual-fitness syntax into an expression tree."""
    if not text or not text.strip():
        raise ParseError("empty fitness expression", 0)
    parser = _ManualParser(text)
    node = parser.manual()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.offset)
    return node


@dataclass(frozen=True)
class FitnessAssessment:
    """Everything needed to score one simulated trace.

    `p`, `auto_scale` and both `p_schedule` endpoints must be finite real
    numbers: each bad value raises a ValueError that names its field.
    """

    formula: Formula
    manual: ManualFitnessExpr | None = None
    p: float = 0.5
    auto_scale: float = 1.0
    p_schedule: tuple[float, float] | None = None

    def __post_init__(self):
        check_number("p", self.p)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"weight p must be in [0,1], got {self.p}")
        check_number("auto_scale", self.auto_scale)
        if self.auto_scale <= 0.0:
            raise ValueError(f"auto_scale must be positive, got {self.auto_scale}")
        if self.p_schedule is not None:
            a, b = self.p_schedule
            check_number("p_schedule start", a)
            check_number("p_schedule end", b)
            if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
                raise ValueError(f"p_schedule endpoints must be in [0,1], got {self.p_schedule}")

    def p_effective(self, iteration: int, max_iterations: int) -> float:
        if self.p_schedule is None:
            return self.p
        a, b = self.p_schedule
        if max_iterations <= 1:
            return a
        return a + (b - a) * iteration / (max_iterations - 1)

    def reads(
        self,
        grid: TimeGrid,
        inputs: Sequence[str],
        outputs: Sequence[str],
        control_times: Mapping[str, np.ndarray],
    ) -> tuple[int, tuple[str, ...]]:
        """What `assess` reads of a trace on `grid`, for a plant with these
        `inputs` and `outputs` whose inputs are interpolated from control
        points at `control_times`: (leading samples, outputs named in plant
        order). On those, `assess` returns what the whole trace gives.

        The samples are the most of what the formula reads
        (`formula_samples`) and what each manual window that names a
        channel not in `inputs` reads (`window_samples`), at least 2 and at
        most all of `grid`. A window over inputs only reads the encoded
        inputs on the whole grid instead (`WindowStat`), and a slope term
        reads control points. A manual node of a type defined elsewhere
        reads every sample and every output.

        Raises what scoring would raise, in this order: MissingChannelError
        for the first channel that the formula, then the manual windows,
        name and that is neither an output nor an input; the ValueError of
        the first window that ends past `grid`, holds no grid sample or is
        empty; the ValueError of the first slope term whose port has no
        control times or whose window holds fewer than 2 of them; the
        ValueError of a temporal interval that selects no sample.
        """
        leaves = () if self.manual is None else tuple(_leaves(self.manual))
        windows = [leaf for leaf in leaves if isinstance(leaf, WindowStat)]
        named = dict.fromkeys(formula_channels(self.formula))
        for window in windows:
            named.update(dict.fromkeys(window.channel.channels()))
        channels = (*outputs, *inputs)
        for name in named:
            if name not in channels:
                raise MissingChannelError(name, channels)
        for window in windows:
            window_span(window.window, grid)
        for leaf in leaves:
            if isinstance(leaf, SteepestSlope):
                times = control_times.get(leaf.port)
                controls = {}
                if times is not None:
                    controls[leaf.port] = ControlPoints(times, np.zeros_like(times))
                leaf.evaluate(None, controls)
        n = formula_samples(self.formula, grid.step)
        if any(not isinstance(leaf, (WindowStat, SteepestSlope)) for leaf in leaves):
            # a node type defined elsewhere may read any sample of any output
            return grid.n_samples, tuple(outputs)
        for window in windows:
            # a window over inputs reads the encoded inputs, not the trace
            if not window.names <= set(inputs):
                n = max(n, window_samples(window.window, grid))
        named_outputs = tuple(name for name in outputs if name in named)
        return min(max(n, 2), grid.n_samples), named_outputs


@dataclass(frozen=True)
class FitnessValue:
    """Scores of one trace: the two parts, their mix, and the raw
    (unscaled) requirement robustness the search's stop rule reads.
    """

    automatic: float
    manual: float
    combined: float
    robustness: float


def _clamp_unit(x: float) -> float:
    # a NaN fails both comparisons and so takes the worst value, 1.0
    return max(-1.0, min(1.0, x))


def auto_fitness(formula: Formula, trace: Trace, auto_scale: float) -> float:
    """Robustness scaled by auto_scale and clamped to [-1, 1]."""
    check_number("auto_scale", auto_scale)
    if auto_scale <= 0.0:
        raise ValueError(f"auto_scale must be positive, got {auto_scale}")
    return _clamp_unit(robustness(formula, trace) / auto_scale)


# a window's mean past the float maximum is infinite, with no numpy warning
@quiet_overflow
def manual_fitness(
    expr: ManualFitnessExpr | None,
    trace: Trace,
    controls: Controls | None = None,
    inputs: Trace | None = None,
) -> float:
    """Evaluate a manual expression on a trace (0.0 when no expression)."""
    if expr is None:
        return 0.0
    return expr.evaluate(trace, controls, inputs)


def athena_combine(fa: float, fm: float, p_effective: float) -> float:
    """Weighted mix of the two fitness parts."""
    if not (math.isfinite(fa) and math.isfinite(fm)):
        raise ValueError(f"fitness parts must be finite, got fa={fa}, fm={fm}")
    if not 0.0 <= p_effective <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p_effective}")
    return p_effective * fa + (1.0 - p_effective) * fm


def assess(
    cfg: FitnessAssessment,
    trace: Trace,
    iteration: int = 0,
    max_iterations: int = 1,
    controls: Controls | None = None,
    inputs: Trace | None = None,
) -> FitnessValue:
    """Score one trace at a given search iteration.

    `trace` may be the leading samples of the grid that
    `FitnessAssessment.reads` counts; then `inputs` holds the encoded
    inputs on the whole grid, which each window over those inputs only
    reads (`WindowStat`).
    """
    if not 0 <= iteration < max_iterations:
        raise ValueError(
            f"iteration {iteration} outside [0, {max_iterations})"
        )
    rho = robustness(cfg.formula, trace)
    fa = _clamp_unit(rho / cfg.auto_scale)
    fm = manual_fitness(cfg.manual, trace, controls, inputs)
    p_eff = cfg.p_effective(iteration, max_iterations)
    combined = athena_combine(fa, fm, p_eff)
    return FitnessValue(
        automatic=fa,
        manual=fm,
        combined=combined,
        robustness=rho,
    )
