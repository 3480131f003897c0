"""Formula AST node types and the trace they are evaluated on."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..signals import TimeGrid

__all__ = [
    "AtomExpr",
    "Formula",
    "Predicate",
    "Not",
    "And",
    "Or",
    "Implies",
    "Globally",
    "Eventually",
    "Trace",
    "COMPARATORS",
]

COMPARATORS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class AtomExpr:
    """Linear combination of channels plus a constant, optionally |.|-wrapped.

    `terms` holds (channel, coefficient) pairs in source order; evaluation
    sums them in that order so independent evaluators agree bitwise.
    """

    terms: tuple[tuple[str, float], ...]
    const: float = 0.0
    absolute: bool = False

    def channels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def values(self, trace: Trace) -> np.ndarray:
        """The expression at every sample of the trace."""
        acc = np.zeros(trace.grid.n_samples)
        for name, coeff in self.terms:
            acc = acc + coeff * trace.channel(name)
        acc = acc + self.const
        if self.absolute:
            acc = np.abs(acc)
        return acc

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.terms:
            if coeff == 1.0:
                term = name
            elif coeff == -1.0:
                term = f"-1 * {name}" if not parts else name
            else:
                term = f"{abs(coeff):g} * {name}" if parts else f"{coeff:g} * {name}"
            if parts:
                parts.append("-" if coeff == -1.0 else ("+" if coeff >= 0 else "-"))
            parts.append(term)
        if self.const != 0.0 or not parts:
            if parts:
                parts.append("+" if self.const >= 0 else "-")
                parts.append(f"{abs(self.const):g}")
            else:
                parts.append(f"{self.const:g}")
        body = " ".join(parts)
        return f"abs({body})" if self.absolute else body


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Predicate(Formula):
    expr: AtomExpr
    cmp: str
    bound: float

    def __post_init__(self):
        if self.cmp not in COMPARATORS:
            raise ValueError(f"comparator must be one of {COMPARATORS}, got {self.cmp!r}")

    def __str__(self) -> str:
        return f"{self.expr} {self.cmp} {self.bound:g}"


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __str__(self) -> str:
        return f"not ({self.child})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left}) and ({self.right})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left}) or ({self.right})"


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left}) -> ({self.right})"


def _check_interval(a: float, b: float) -> None:
    from ..errors import SemanticError

    if a < 0 or b < 0:
        raise SemanticError(f"interval bounds must be non-negative, got [{a:g},{b:g}]")
    if a > b:
        raise SemanticError(f"interval start exceeds end: [{a:g},{b:g}]")


@dataclass(frozen=True)
class Globally(Formula):
    a: float
    b: float
    child: Formula

    def __post_init__(self):
        _check_interval(self.a, self.b)

    def __str__(self) -> str:
        return f"G[{self.a:g},{self.b:g}] ({self.child})"


@dataclass(frozen=True)
class Eventually(Formula):
    a: float
    b: float
    child: Formula

    def __post_init__(self):
        _check_interval(self.a, self.b)

    def __str__(self) -> str:
        return f"F[{self.a:g},{self.b:g}] ({self.child})"


class Trace:
    """Named channels sampled on a common grid."""

    __slots__ = ("grid", "channels")

    def __init__(self, grid: TimeGrid, channels: Mapping[str, np.ndarray]):
        store: dict[str, np.ndarray] = {}
        for name, values in channels.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or len(arr) != grid.n_samples:
                raise ValueError(
                    f"channel {name!r} needs {grid.n_samples} samples, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {name!r} has non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            store[name] = arr
        self.grid = grid
        self.channels = MappingProxyType(store)

    def channel(self, name: str) -> np.ndarray:
        from ..errors import MissingChannelError

        try:
            return self.channels[name]
        except KeyError:
            raise MissingChannelError(name, tuple(self.channels)) from None

    def __repr__(self) -> str:
        names = ", ".join(self.channels)
        return f"Trace(grid=[0,{self.grid.end}] dt={self.grid.step}, channels=[{names}])"
