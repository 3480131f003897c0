"""Formula AST node types and the trace they are evaluated on.

A node prints as text that `parse` reads back as an equal node, when its
numbers are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..errors import MissingChannelError, SemanticError
from ..signals import Signal, TimeGrid

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
    "number_text",
]

COMPARATORS = ("<", "<=", ">", ">=")


def number_text(x: float) -> str:
    """`x` as text that the parsers read back as the same float: its `g`
    format where that keeps every bit, else its shortest round-trip form."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


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

    @cached_property
    def bare(self) -> str | None:
        """The channel this expression is, as it stands, or None: one term
        with coefficient 1, const +0.0 and no abs. `raw` reads it as a
        read-only view of the channel's samples."""
        if len(self.terms) != 1 or self.absolute:
            return None
        (name, coeff), = self.terms
        if coeff != 1.0 or self.const != 0.0 or math.copysign(1.0, self.const) < 0.0:
            return None
        return name

    def raw(self, trace: Trace, start: int = 0, stop: int | None = None) -> tuple[np.ndarray, bool]:
        """The expression at samples start .. stop - 1 of the trace, up to
        the sign of a zero, and whether the array is fresh, the caller's to
        write.

        A zero constant is not added when there is no abs: adding +0.0
        changes only a -0.0 sum to +0.0, and adding -0.0 changes nothing.
        The result may thus hold -0.0 where `values` holds +0.0, and has
        the bits of `values` everywhere else. A bare channel (`bare`) is
        then a read-only view of the channel's samples, not fresh. Any
        other expression is `values`.

        Min, max, mean and ptp of the result, plus 0.0, are bitwise those
        of `values`, which hold no -0.0: each differs only in the sign of
        a zero result, which the added 0.0 makes +0.0.
        """
        name = self.bare
        if name is not None:
            return trace.channel(name)[start:stop], False
        if self.absolute or self.const != 0.0:
            return self.values(trace, start, stop), True
        return self._sum(trace, start, stop)

    def values(self, trace: Trace, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The expression at samples start .. stop - 1 of the trace (every
        sample by default), as a fresh array the caller owns and may write.

        The sum starts from the first term, and a coefficient of 1 is not
        multiplied. That is bitwise the sum from a zero seed, 0 + t1 + ...
        + const: the seed changes only a -0.0 sum to +0.0, and so does
        adding any const but -0.0. With no terms or a -0.0 const the zero
        seed is kept. A later term with coefficient -1 is subtracted, not
        multiplied and added: IEEE 754 defines a - b as a + (-b), and -1 * b
        is -b exactly, so the bits are the same. Each sum is written into a
        buffer this call made, the running sum's or a product term's, once
        there is one, so the operands and their order are those of the
        plain sum.
        """
        acc, owned = self._sum(trace, start, stop)
        acc = np.add(acc, self.const, out=acc if owned else None)
        if self.absolute:
            np.abs(acc, out=acc)
        return acc

    def _sum(self, trace: Trace, start: int, stop: int | None) -> tuple[np.ndarray, bool]:
        """The terms' sum, from the zero seed where `values` keeps it, and
        whether this call made the array."""
        acc, owned = None, False
        negative_zero = self.const == 0.0 and math.copysign(1.0, self.const) < 0.0
        if not self.terms or negative_zero:
            acc, owned = np.zeros(trace.grid.n_samples)[start:stop], True
        for name, coeff in self.terms:
            term = trace.channel(name)[start:stop]
            if acc is not None and coeff == -1.0:
                acc, owned = np.subtract(acc, term, out=acc if owned else None), True
                continue
            product = coeff != 1.0
            if product:
                term = np.multiply(term, coeff)
            if acc is None:
                acc, owned = term, product
            else:
                out = acc if owned else term if product else None
                acc, owned = np.add(acc, term, out=out), True
        return acc, owned

    def __str__(self) -> str:
        parts = [
            (coeff < 0.0, name if abs(coeff) == 1.0 else f"{number_text(abs(coeff))} * {name}")
            for name, coeff in self.terms
        ]
        if self.const != 0.0 or not parts:
            parts.append((self.const < 0.0, number_text(abs(self.const))))
        if parts[0][0]:
            # `parse` reads no leading minus: a positive constant leads, else 0
            parts.insert(0, parts.pop() if self.terms and self.const > 0.0 else (False, "0"))
        body = parts[0][1] + "".join(f" {'-' if neg else '+'} {text}" for neg, text in parts[1:])
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
        return f"{self.expr} {self.cmp} {number_text(self.bound)}"


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
        return f"G[{number_text(self.a)},{number_text(self.b)}] ({self.child})"


@dataclass(frozen=True)
class Eventually(Formula):
    a: float
    b: float
    child: Formula

    def __post_init__(self):
        _check_interval(self.a, self.b)

    def __str__(self) -> str:
        return f"F[{number_text(self.a)},{number_text(self.b)}] ({self.child})"


class Trace:
    """Named channels sampled on a common grid.

    Each channel is checked by building it as a `Signal` on the grid, which
    makes a finite read-only copy. A channel that already is a `Signal` on
    the same grid is stored as it is, without a second copy. `from_block`
    checks and copies a plant's whole output block at once instead, and
    `from_rows` adopts rows its caller computed and checked itself.
    """

    __slots__ = ("grid", "channels")

    def __init__(self, grid: TimeGrid, channels: Mapping[str, np.ndarray | Signal]):
        store: dict[str, np.ndarray] = {}
        for name, values in channels.items():
            try:
                if not isinstance(values, Signal):
                    values = Signal(grid, values)
                elif values.grid != grid:
                    raise ValueError("not sampled on the trace grid")
            except ValueError as exc:
                raise ValueError(f"channel {name!r}: {exc}") from None
            store[name] = values.values
        self.grid = grid
        self.channels = MappingProxyType(store)

    @classmethod
    def from_block(
        cls,
        grid: TimeGrid,
        names: tuple[str, ...],
        block: np.ndarray,
        signals: Mapping[str, Signal],
    ) -> Trace:
        """A trace of the columns of `block`, a (samples, len(names))
        array, named in order, followed by `signals`.

        One copy turns the block into rows, each channel a view of one,
        and one finiteness pass checks the copy, contiguous where a plant's
        block may not be; `from_rows` then adopts them. Where the block
        fails the check, its columns are checked one by one as the
        constructor checks them, so the error names the first bad channel.
        """
        rows = None
        if block.shape == (grid.n_samples, len(names)):
            rows = np.array(block.T, dtype=float, order="C")
        if rows is None or not np.isfinite(rows).all():
            return cls(grid, {**dict(zip(names, block.T)), **signals})
        return cls.from_rows(grid, names, rows, signals)

    @classmethod
    def from_rows(
        cls,
        grid: TimeGrid,
        names: tuple[str, ...],
        rows: np.ndarray,
        signals: Mapping[str, Signal],
    ) -> Trace:
        """A trace of the rows of `rows`, named in order, followed by
        `signals`, with `rows` adopted as it is: no check and no copy.

        `rows` is a (len(names), samples) float array, each row
        C-contiguous, of finite values that its caller computed and checked
        itself, or copied from values checked before, in memory that
        nothing else writes to; it is made read-only here.

        A signal that is a `Signal` on `grid` itself (the same object) is
        adopted: the trace holds its values as they are, checked when the
        signal was built. Any other signal goes through the constructor,
        which checks it and copies what is not a `Signal`. The channels go
        into one mapping, built once.
        """
        rows.setflags(write=False)
        store = dict(zip(names, rows))
        for name, signal in signals.items():
            if not (isinstance(signal, Signal) and signal.grid is grid):
                store.update(cls(grid, signals).channels)
                break
            store[name] = signal.values
        trace = object.__new__(cls)
        trace.grid = grid
        trace.channels = MappingProxyType(store)
        return trace

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise MissingChannelError(name, tuple(self.channels)) from None

    def __repr__(self) -> str:
        names = ", ".join(self.channels)
        return f"Trace(grid=[0,{self.grid.end}] dt={self.grid.step}, channels=[{names}])"
