"""Exception types shared across the toolkit.

Plain ValueError is used for generic invalid arguments; the classes here
exist where callers need to tell failure kinds apart (CLI exit codes,
search-loop divergence handling, parser diagnostics). `check_number` is
the one rule for a real-valued setting at the config boundaries.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "check_number",
    "ParseError",
    "SemanticError",
    "MissingChannelError",
    "HorizonError",
    "PortMismatchError",
    "DivergenceError",
]


class ParseError(ValueError):
    """Syntax error in a formula or expression string.

    `offset` is the 0-based character position where parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SemanticError(ValueError):
    """Well-formed syntax with invalid content (e.g. interval a > b)."""


class MissingChannelError(KeyError):
    """A formula or fitness expression references a channel absent from the trace."""

    def __init__(self, channel: str, available: tuple[str, ...] = ()):
        hint = f"; trace has {', '.join(available)}" if available else ""
        super().__init__(f"channel {channel!r} not in trace{hint}")
        self.channel = channel


class HorizonError(ValueError):
    """The trace is too short for the time instants a formula references."""


class PortMismatchError(ValueError):
    """Supplied input signals do not match the plant's input ports."""


class DivergenceError(ArithmeticError):
    """Simulation produced a non-finite state or output value.

    `time` is the first grid time at which the state was non-finite, or,
    when the state stays finite, an output.
    """

    def __init__(self, time: float):
        super().__init__(f"simulation diverged (non-finite value) at t={time:g}s")
        self.time = time


def check_number(name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` is a finite real
    number; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
