"""Temporal-logic requirements: parsing and quantitative robustness."""

from .nodes import (
    AtomExpr,
    Formula,
    Predicate,
    Not,
    And,
    Or,
    Implies,
    Globally,
    Eventually,
    Trace,
)
from .parser import FormulaParser, parse
from .semantics import (
    formula_channels,
    formula_horizon,
    formula_samples,
    robustness,
    satisfied,
)

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
    "FormulaParser",
    "parse",
    "formula_horizon",
    "formula_samples",
    "formula_channels",
    "robustness",
    "satisfied",
]
