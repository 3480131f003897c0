"""Recursive-descent parser for the requirement grammar.

    formula := binary | unary | '(' formula ')' | atom
    binary  := formula ('and'|'or'|'->') formula
               precedence: not > and > or > '->' ; '->' right-associative
    unary   := ('not' | 'G[a,b]' | 'F[a,b]') formula
    atom    := expr cmp num
    expr    := term (('+'|'-') term)*
    term    := num '*' ident | ident | num | 'abs(' expr ')'
    cmp     := '<' | '<=' | '>' | '>='

Whitespace-insensitive. Syntax errors report the 0-based character offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError, SemanticError
from .nodes import (
    And,
    AtomExpr,
    Eventually,
    Formula,
    Globally,
    Implies,
    Not,
    Or,
    Predicate,
)

__all__ = ["parse"]

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUM>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ARROW>->)
  | (?P<LE><=)
  | (?P<GE>>=)
  | (?P<LT><)
  | (?P<GT>>)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LBRACK>\[)
  | (?P<RBRACK>\])
  | (?P<COMMA>,)
  | (?P<PLUS>\+)
  | (?P<MINUS>-)
  | (?P<STAR>\*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "abs"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            value = m.group()
            if kind == "IDENT" and value in _KEYWORDS:
                kind = value.upper()
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class FormulaParser:
    """Token cursor over one text plus the grammar's recursive-descent rules.

    The manual-fitness language subclasses it to reuse the tokenizer and the
    channel-expression rule.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.offset)
        return self.advance()

    # --- formula levels, loosest binding first ---

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek().kind == "ARROW":
            self.advance()
            return Implies(left, self.formula())
        return left

    def or_level(self) -> Formula:
        node = self.and_level()
        while self.peek().kind == "OR":
            self.advance()
            node = Or(node, self.and_level())
        return node

    def and_level(self) -> Formula:
        node = self.unary_level()
        while self.peek().kind == "AND":
            self.advance()
            node = And(node, self.unary_level())
        return node

    def unary_level(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Not(self.unary_level())
        if tok.kind == "IDENT" and tok.text in ("G", "F") and self.peek(1).kind == "LBRACK":
            self.advance()
            a, b = self.interval()
            child = self.unary_level()
            return Globally(a, b, child) if tok.text == "G" else Eventually(a, b, child)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            node = self.formula()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind in ("NUM", "IDENT", "ABS"):
            return self.atom()
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.offset
        )

    def interval(self) -> tuple[float, float]:
        self.expect("LBRACK", "'['")
        a = self.signed_number()
        self.expect("COMMA", "','")
        b = self.signed_number()
        self.expect("RBRACK", "']'")
        return a, b

    # --- atoms ---

    def atom(self) -> Formula:
        expr = self.expr()
        tok = self.peek()
        if tok.kind not in ("LT", "LE", "GT", "GE"):
            raise ParseError(
                f"expected a comparator, found {tok.text or 'end of input'!r}", tok.offset
            )
        self.advance()
        cmp = {"LT": "<", "LE": "<=", "GT": ">", "GE": ">="}[tok.kind]
        bound = self.signed_number()
        return Predicate(expr, cmp, bound)

    def expr(self, allow_abs: bool = True) -> AtomExpr:
        terms: list[tuple[str, float]] = []
        const = 0.0
        part_count = 0
        abs_expr: AtomExpr | None = None
        sign = 1.0
        while True:
            tok = self.peek()
            if tok.kind == "ABS":
                if not allow_abs:
                    raise SemanticError("abs(...) cannot be nested inside abs(...)")
                if sign < 0:
                    raise SemanticError("abs(...) cannot be negated inside an atom")
                self.advance()
                self.expect("LPAREN", "'(' after abs")
                abs_expr = self.expr(allow_abs=False)
                self.expect("RPAREN", "')'")
            elif tok.kind == "NUM":
                self.advance()
                value = float(tok.text)
                if self.peek().kind == "STAR":
                    self.advance()
                    ident = self.expect("IDENT", "a channel name")
                    terms.append((ident.text, sign * value))
                else:
                    const += sign * value
            elif tok.kind == "IDENT":
                self.advance()
                terms.append((tok.text, sign * 1.0))
            else:
                raise ParseError(
                    f"expected a term, found {tok.text or 'end of input'!r}", tok.offset
                )
            part_count += 1
            nxt = self.peek()
            if nxt.kind == "PLUS":
                sign = 1.0
                self.advance()
            elif nxt.kind == "MINUS":
                sign = -1.0
                self.advance()
            else:
                break
        if abs_expr is not None:
            if part_count > 1:
                raise SemanticError("abs(...) must be the whole comparison expression")
            return AtomExpr(abs_expr.terms, abs_expr.const, absolute=True)
        return AtomExpr(tuple(terms), const)

    def signed_number(self) -> float:
        sign = 1.0
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1.0
        tok = self.expect("NUM", "a number")
        return sign * float(tok.text)


def parse(text: str) -> Formula:
    """Parse a requirement string into a Formula AST."""
    if not text or not text.strip():
        raise ParseError("empty formula", 0)
    parser = FormulaParser(text)
    node = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.offset)
    return node
