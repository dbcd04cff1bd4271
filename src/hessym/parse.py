"""Recursive-descent parser for the expression grammar.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"
    NUMBER := integer | decimal

Decimals become exact rationals (0.25 -> 1/4).  Reserved function names
(exp, ln, sin, cos, tan, atan, sqrt) take exactly one argument; any other
applied identifier is an opaque symbol.  An applied identifier of the
form NAME_123 (digits sorted ascending) denotes a formal derivative of
the opaque symbol NAME w.r.t. those 1-based argument slots, matching how
the printer writes Deriv nodes.

Jet-style variable names (u_x, f_z, u_xyz, ...) must have their index
letters sorted: "u_yx" is a syntax error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .expr import (
    ELEMENTARY, Expr, ExprError, Opaque, add, call, deriv, div, mul, neg,
    num, opaque, pow_, sym,
)

__all__ = ["parse", "ParseError", "validate_jet_name"]


class ParseError(ExprError):
    """Syntax error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)

# jet families: indices after the underscore must be sorted ("u_yx" invalid)
_JET = re.compile(r"^(u|f)_([uxyz]+)$")
# printed formal derivative: NAME_<sorted digits>
_DERIV_SUFFIX = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)_([1-9]+)$")


def validate_jet_name(name: str, pos: int = 0) -> None:
    """Reject jet-style names with unsorted indices."""
    m = _JET.match(name)
    if m and "".join(sorted(m.group(2))) != m.group(2):
        raise ParseError(f"jet indices must be sorted: {name!r}", pos)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        pos = m.end()
        if m.group("num"):
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident"):
            out.append(("ident", m.group("ident"), m.start("ident")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}", pos)

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = add(node, rhs if val == "+" else neg(rhs))
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = mul(node, rhs) if val == "*" else div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return neg(self.factor())
        base = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return pow_(base, self.factor())
        return base

    def base(self) -> Expr:
        kind, val, pos = self.take()
        if kind == "num":
            if "." in val:
                return num(Fraction(val))  # Fraction("0.25") is exact
            return num(int(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                return self.application(val, pos)
            validate_jet_name(val, pos)
            return sym(val)
        raise ParseError(f"unexpected token {val!r}", pos)

    def application(self, name: str, pos: int) -> Expr:
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, p = self.take()
            if kind == "op" and val == ",":
                args.append(self.expr())
            elif kind == "op" and val == ")":
                break
            else:
                raise ParseError(f"expected ',' or ')', got {val!r}", p)
        if name in ELEMENTARY:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument, got {len(args)}", pos)
            return call(name, args[0])
        m = _DERIV_SUFFIX.match(name)
        if m:
            digits = m.group(2)
            if "".join(sorted(digits)) != digits:
                raise ParseError(f"derivative slots must be sorted: {name!r}", pos)
            slots = tuple(int(d) for d in digits)
            if slots[-1] > len(args):
                raise ParseError(f"derivative slot {slots[-1]} out of range for {len(args)} args", pos)
            return deriv(Opaque(m.group(1), tuple(args)), slots)
        return opaque(name, *args)


# the tree is immutable and a function of the text alone, so it is memoized
@lru_cache(maxsize=4096)
def parse(text: str) -> Expr:
    """Parse text to an Expr.  Any non-reserved applied identifier becomes
    an opaque symbol, and a text parsed before gives the same tree again."""
    p = _Parser(text)
    try:
        node = p.expr()
    except RecursionError:
        raise ExprError("expression nested too deeply to parse") from None
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node
