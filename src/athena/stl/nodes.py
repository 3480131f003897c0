"""Formula AST node types and the trace they are evaluated on.

A node prints as text that `parse` reads back as an equal node, when its
numbers are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from ..errors import MissingChannelError, SemanticError
from ..signals import InterpolatedSignal, Signal, TimeGrid, WindowStatKind

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

# a module name reads faster than the Enum class attribute, once per window
_MEAN = WindowStatKind.MEAN


def number_text(x: float) -> str:
    """`x` as text that the parsers read back as the same float: its `g`
    format where that keeps every bit, else its shortest round-trip form."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class AtomExpr:
    """Linear combination of channels plus a constant, optionally |.|-wrapped.

    `terms` holds (channel, coefficient) pairs in source order; evaluation
    sums them in that order so independent evaluators agree bitwise. A
    trace may instead form the sum of two or more terms itself, in one
    pass (`Trace.composed`), which rounds otherwise.

    `statistic` reads a window for both the manual `WindowStat` and an STL
    operator read at one sample directly over a predicate.
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
        then a read-only view of the channel's samples, not fresh, and a
        sum of terms that the trace composes (`Trace.composed`) a
        read-only view of the trace's sum. Any other expression is
        `values`.

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

    def statistic(self, trace: Trace, stat: WindowStatKind, lo: int, hi: int) -> float:
        """`stat` of the expression at samples lo .. hi of the trace, plus
        0.0: bitwise `stat.of` over `values` there, plus 0.0.

        Max, min or ptp of a bare channel (`bare`) is asked of the trace
        first (`Trace.extreme`), which takes it from an input's control
        points without forming its samples. Otherwise `stat` reduces `raw`,
        which differs from `values` only in the sign of a zero.
        """
        name = self.bare
        if name is not None and stat is not _MEAN:
            value = trace.extreme(name, stat, lo, hi)
            if value is not None:
                return value + 0.0
        values, _ = self.raw(trace, lo, hi + 1)
        return stat.of(values) + 0.0

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

        Where the trace forms the sum of two or more terms itself
        (`Trace.composed`), that sum replaces the terms' sum, plus +0.0
        for a -0.0 const as the zero seed would give, and the const and
        abs follow as above.
        """
        acc, owned = self._sum(trace, start, stop)
        acc = np.add(acc, self.const, out=acc if owned else None)
        if self.absolute:
            np.abs(acc, out=acc)
        return acc

    def _sum(self, trace: Trace, start: int, stop: int | None) -> tuple[np.ndarray, bool]:
        """The terms' sum, from the zero seed where `values` keeps it, or
        the trace's own (`Trace.composed`), read-only, and whether this
        call made the array."""
        acc, owned = None, False
        negative_zero = self.const == 0.0 and math.copysign(1.0, self.const) < 0.0
        if len(self.terms) > 1:
            composed = trace.composed(self)
            if composed is not None:
                acc = composed[start:stop]
                # from the zero seed, which turns -0.0 into +0.0
                return (np.add(acc, 0.0), True) if negative_zero else (acc, False)
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


def _hold(store: dict, grid: TimeGrid, channels: Mapping[str, np.ndarray | Signal]) -> dict:
    """`store`, with each of `channels` added as the `Trace` docstring
    says a trace on `grid` checks and holds it: a `Signal` on `grid` itself
    with no check, one on an equal grid once the grids compare equal."""
    for name, values in channels.items():
        try:
            if not isinstance(values, Signal):
                values = Signal(grid, values)
            elif values.grid is not grid and values.grid != grid:
                raise ValueError("not sampled on the trace grid")
        except ValueError as exc:
            raise ValueError(f"channel {name!r}: {exc}") from None
        store[name] = values if isinstance(values, InterpolatedSignal) else values.values
    return store


class Trace:
    """Named channels sampled on a common grid, held in order.

    Each channel is checked by building it as a `Signal` on the grid, which
    makes a finite read-only copy. A `Signal` on the same grid is held
    without a second copy (`_hold`): a plain signal's samples, and an
    `InterpolatedSignal` itself, whose samples `channel` forms on first
    read; until then a window takes its extremes from the signal's control
    points (`extreme`). `from_block` checks and copies a plant's whole
    output block at once instead, and `from_rows` adopts rows its caller
    computed and checked itself.

    A subclass may hold entries of its own that its `channel` forms on
    first read, and sum an expression's terms in one pass (`composed`).
    `channels` forms every entry that is not an array; `names` forms none.
    """

    __slots__ = ("grid", "_store")

    def __init__(self, grid: TimeGrid, channels: Mapping[str, np.ndarray | Signal]):
        self.grid = grid
        self._store = _hold({}, grid, channels)

    @classmethod
    def _adopting(cls, grid: TimeGrid, store: dict, signals: Mapping[str, Signal]) -> Trace:
        """A trace of this class on `grid` that keeps `store`, entries its
        caller made, followed by `signals`, held and checked as the
        constructor holds and checks them (`_hold`), and no slot of a
        subclass set."""
        trace = object.__new__(cls)
        trace.grid = grid
        trace._store = _hold(store, grid, signals)
        return trace

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
        `signals`, held as the constructor holds them, with `rows` adopted
        as it is: no check and no copy.

        `rows` is a (len(names), samples) float array, each row
        C-contiguous, of finite values that its caller computed and checked
        itself, or copied from values checked before, in memory that
        nothing else writes to; it is made read-only here.
        """
        rows.setflags(write=False)
        return cls._adopting(grid, dict(zip(names, rows)), signals)

    @property
    def names(self) -> Iterable[str]:
        """Every channel's name, in order, with no channel formed."""
        return self._store.keys()

    @property
    def channels(self) -> Mapping[str, np.ndarray]:
        """Every channel's samples by name, in order, read-only, each
        entry formed that was not."""
        for name in [name for name, v in self._store.items() if not isinstance(v, np.ndarray)]:
            self.channel(name)
        return MappingProxyType(self._store)

    def channel(self, name: str) -> np.ndarray:
        try:
            values = self._store[name]
        except KeyError:
            raise MissingChannelError(name, tuple(self.names)) from None
        if isinstance(values, InterpolatedSignal):
            values = self._store[name] = values.values
        return values

    def extreme(self, name: str, stat: WindowStatKind, lo: int, hi: int) -> float | None:
        """`stat` of channel `name` at samples lo .. hi, taken without the
        channel's samples, or None; plus 0.0 it has the bits of `stat.of`
        over them. A trace answers max, min and ptp of an `InterpolatedSignal`
        whose samples are not formed (`InterpolatedSignal.extreme`)."""
        signal = self._store.get(name)
        if isinstance(signal, InterpolatedSignal):
            return signal.extreme(stat, lo, hi)
        return None

    def composed(self, expr: AtomExpr) -> np.ndarray | None:
        """The sum of the terms of `expr`, an expression of two or more
        terms, at every sample, formed by this trace in one pass as a
        read-only array it may give again, or None. A trace of sampled
        channels gives None: `AtomExpr.values` sums the channels term by
        term."""
        return None

    def __repr__(self) -> str:
        names = ", ".join(self.names)
        return f"Trace(grid=[0,{self.grid.end}] dt={self.grid.step}, channels=[{names}])"
