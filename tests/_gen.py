"""Seeded random expression and polynomial profile generators shared by the
property tests."""

from __future__ import annotations

import random
from fractions import Fraction

from hessym.expr import (
    Expr, add, call, div, mul, num, opaque, pow_, sym,
)
from hessym.normalize import NormalizeError, ZERO, integer, normalize, subset
from hessym.parse import parse

VARS = ["x", "y", "z", "u"]
CALLS = ["exp", "ln", "sin", "cos", "tan", "atan", "sqrt"]


def random_expr(rng: random.Random, depth: int = 4, allow_opaque: bool = True) -> Expr:
    """Random tree; denominators and power bases that normalize to zero are
    re-rolled so normalize() never sees a division by an exact zero."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return num(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return sym(rng.choice(VARS))
    kind = rng.randint(0, 5)
    if kind == 0:
        return add(*[random_expr(rng, depth - 1, allow_opaque) for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return mul(*[random_expr(rng, depth - 1, allow_opaque) for _ in range(rng.randint(2, 3))])
    if kind == 2:
        base = random_expr(rng, depth - 1, allow_opaque)
        n = rng.choice([-2, -1, 2, 3])
        if n < 0:
            base = _nonzero(rng, base, depth, allow_opaque)
        try:
            return pow_(base, num(n))
        except Exception:
            return base
    if kind == 3:
        return call(rng.choice(CALLS), random_expr(rng, depth - 1, allow_opaque))
    if kind == 4:
        numer = random_expr(rng, depth - 1, allow_opaque)
        denom = _nonzero(rng, random_expr(rng, depth - 1, allow_opaque), depth, allow_opaque)
        return div(numer, denom)
    if allow_opaque and rng.random() < 0.5:
        return opaque("H", random_expr(rng, depth - 1, False),
                      random_expr(rng, depth - 1, False))
    return sym(rng.choice(VARS))


def _nonzero(rng: random.Random, e: Expr, depth: int, allow_opaque: bool) -> Expr:
    for _ in range(10):
        try:
            if normalize(e) != ZERO:
                return e
        except NormalizeError:
            pass
        e = random_expr(rng, max(depth - 2, 0), allow_opaque)
    return sym("x")


def sample_poly(rng: random.Random) -> Expr:
    """Random polynomial profile in (x, y, z) of degree <= 4 with exact
    coefficients and a nondegenerate Hessian."""
    terms = []
    monos = ["x^2", "y^2", "z^2", "x*y", "y*z", "x*z",
             "x^3", "x^2*y", "y^2*z", "x*y*z", "x^4", "y^3*z", "x^2*z^2"]
    for m in subset(rng, monos, 7):
        c = Fraction(integer(rng, -8, 8), integer(rng, 1, 4))
        if c:
            terms.append(mul(num(c), parse(m)))
    terms.append(parse("x^2 + y^2 + z^2"))  # keep the Hessian nondegenerate
    return add(*terms)
