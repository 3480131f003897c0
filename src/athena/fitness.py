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
from typing import Mapping

from .errors import ParseError
from .signals import (
    ControlPoints,
    Signal,
    SlopeDirection,
    WindowStatKind,
    scale as scale_value,
    steepest_slope,
    window_stat,
)
from .stl import AtomExpr, Formula, Trace, robustness
from .stl.parser import _Parser

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
    """Base class for manual-fitness expression nodes."""

    __slots__ = ()

    def evaluate(self, trace: Trace, controls: Controls | None = None) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(ManualFitnessExpr):
    value: float

    def evaluate(self, trace, controls=None):
        return self.value

    def __str__(self):
        return f"{self.value:g}"


@dataclass(frozen=True)
class WindowStat(ManualFitnessExpr):
    """A statistic of a channel expression over a closed time window."""

    channel: AtomExpr
    stat: WindowStatKind
    window: tuple[float, float]

    def evaluate(self, trace, controls=None):
        sig = Signal(trace.grid, self.channel.values(trace))
        return window_stat(sig, self.stat, self.window)

    def __str__(self):
        a, b = self.window
        return f"{self.stat.value}({self.channel},[{a:g},{b:g}])"


@dataclass(frozen=True)
class SteepestSlope(ManualFitnessExpr):
    """Largest rise (or fall) rate between an input's control points."""

    port: str
    direction: SlopeDirection
    window: tuple[float, float]

    def evaluate(self, trace, controls=None):
        if controls is None or self.port not in controls:
            raise ValueError(
                f"slope term needs the control points of input {self.port!r}"
            )
        return steepest_slope(controls[self.port], self.direction, self.window)

    def __str__(self):
        name = "slope_up" if self.direction is SlopeDirection.POSITIVE else "slope_down"
        a, b = self.window
        return f"{name}({self.port},[{a:g},{b:g}])"


@dataclass(frozen=True)
class Scale(ManualFitnessExpr):
    """Clamped affine map of a subexpression onto [0, 1]."""

    child: ManualFitnessExpr
    lo: float
    hi: float

    def evaluate(self, trace, controls=None):
        return scale_value(self.child.evaluate(trace, controls), (self.lo, self.hi))

    def __str__(self):
        return f"scale({self.child},[{self.lo:g},{self.hi:g}])"


@dataclass(frozen=True)
class TargetDistance(ManualFitnessExpr):
    """Absolute distance of a subexpression from a target value."""

    child: ManualFitnessExpr
    target: float

    def evaluate(self, trace, controls=None):
        return abs(self.child.evaluate(trace, controls) - self.target)

    def __str__(self):
        return f"dist({self.child},{self.target:g})"


@dataclass(frozen=True)
class Neg(ManualFitnessExpr):
    child: ManualFitnessExpr

    def evaluate(self, trace, controls=None):
        return -self.child.evaluate(trace, controls)

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

    def evaluate(self, trace, controls=None):
        return self.left.evaluate(trace, controls) + self.right.evaluate(trace, controls)

    def __str__(self):
        return f"{self.left} + {_paren(self.right)}"


@dataclass(frozen=True)
class Sub(ManualFitnessExpr):
    left: ManualFitnessExpr
    right: ManualFitnessExpr

    def evaluate(self, trace, controls=None):
        return self.left.evaluate(trace, controls) - self.right.evaluate(trace, controls)

    def __str__(self):
        return f"{self.left} - {_paren(self.right)}"


@dataclass(frozen=True)
class Mul(ManualFitnessExpr):
    left: ManualFitnessExpr
    right: ManualFitnessExpr

    def evaluate(self, trace, controls=None):
        return self.left.evaluate(trace, controls) * self.right.evaluate(trace, controls)

    def __str__(self):
        return f"{_paren(self.left)} * {_paren(self.right)}"


_STAT_NAMES = {kind.value: kind for kind in WindowStatKind}
_SLOPE_NAMES = {
    "slope_up": SlopeDirection.POSITIVE,
    "slope_down": SlopeDirection.NEGATIVE,
}


class _ManualParser(_Parser):
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
    """Everything needed to score one simulated trace."""

    formula: Formula
    manual: ManualFitnessExpr | None = None
    p: float = 0.5
    auto_scale: float = 1.0
    p_schedule: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"weight p must be in [0,1], got {self.p}")
        if self.auto_scale <= 0.0:
            raise ValueError(f"auto_scale must be positive, got {self.auto_scale}")
        if self.p_schedule is not None:
            a, b = self.p_schedule
            if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
                raise ValueError(f"p_schedule endpoints must be in [0,1], got {self.p_schedule}")

    def p_effective(self, iteration: int, max_iterations: int) -> float:
        if self.p_schedule is None:
            return self.p
        a, b = self.p_schedule
        if max_iterations <= 1:
            return a
        return a + (b - a) * iteration / (max_iterations - 1)


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
    return min(1.0, max(-1.0, x))


def auto_fitness(formula: Formula, trace: Trace, auto_scale: float) -> float:
    """Robustness scaled by auto_scale and clamped to [-1, 1]."""
    if auto_scale <= 0.0:
        raise ValueError(f"auto_scale must be positive, got {auto_scale}")
    return _clamp_unit(robustness(formula, trace) / auto_scale)


def manual_fitness(
    expr: ManualFitnessExpr | None, trace: Trace, controls: Controls | None = None
) -> float:
    """Evaluate a manual expression on a trace (0.0 when no expression)."""
    if expr is None:
        return 0.0
    return expr.evaluate(trace, controls)


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
) -> FitnessValue:
    """Score one trace at a given search iteration."""
    if not 0 <= iteration < max_iterations:
        raise ValueError(
            f"iteration {iteration} outside [0, {max_iterations})"
        )
    rho = robustness(cfg.formula, trace)
    fa = _clamp_unit(rho / cfg.auto_scale)
    fm = manual_fitness(cfg.manual, trace, controls)
    p_eff = cfg.p_effective(iteration, max_iterations)
    combined = athena_combine(fa, fm, p_eff)
    return FitnessValue(
        automatic=fa,
        manual=fm,
        combined=combined,
        robustness=rho,
    )
