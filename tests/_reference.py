"""Reference implementations kept as test oracles.

The recursive reference evaluator is the oracle of the compiled bodies.

hessym evaluates an expression only through ``expr.compile_template``.
This module keeps the tree walk that the compiled code reproduces: each
node is evaluated after its children, left to right, and checked
finite; a sum adds its terms left to right; and the scale is the
largest |value| of a subtree that is not a sum or is a term of one.  At
finite variable values, ``expr.compile_with_scale(e, names)`` must
return what ``eval_with_scale`` returns, bit for bit, or raise the same
exception class, and ``compile_evaluator`` must agree with
``eval_numeric`` to rounding.

``sample_on_variety`` is the dict sampler of on-variety jet points that
``jets._variety_point`` must reproduce point for point.

``s2_numerator_minors`` writes S2's principal minors out by hand over
integer polynomials, and ``s2_of_poly`` turns that numerator into the
canonical form of S2[p/den]: ``jets.s2_of``, which takes its terms from
``jets.hessian2()``, must give the same tree.  The float route
``jets.s2_of_hessian`` has its own hand-written minors in
tests/test_jets.py, and the chain rule of the flows is checked against
``jets.s2_of`` of the pushforward built as a tree in tests/test_flows.py.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
import operator
from typing import Callable, Mapping

from hessym.expr import (
    EXP_GUARD, Add, Call, Deriv, EvalDomainError, EvalError, Expr, ExprError, Mul,
    Num, Opaque, OpaqueBinding, Pow, Sym, _NONFINITE, sym,
)
from hessym.jets import SPATIAL, jet_indices
from hessym.normalize import Poly, _padd, _pmul, _poly_to_expr, signed


def eval_numeric(e: Expr, env: Mapping[str, float],
                 bindings: Mapping[str, OpaqueBinding] | None = None) -> float:
    """Evaluate at a float assignment; raises EvalError family on problems."""
    return _eval_checked(e, env, bindings or {})[0]


def eval_with_scale(e: Expr, env: Mapping[str, float],
                    bindings: Mapping[str, OpaqueBinding] | None = None) -> tuple[float, float]:
    """Evaluate returning (value, scale) where scale is the largest |subterm|.

    The scale feeds relative-tolerance zero tests: massive cancellation shows
    up as |value| << scale.
    """
    return _eval_checked(e, env, bindings or {})


def _eval_checked(e: Expr, env: Mapping[str, float],
                  b: Mapping[str, OpaqueBinding]) -> tuple[float, float]:
    try:
        return _eval(e, env, b)
    except OverflowError as exc:  # a float power past the range
        raise EvalDomainError(_NONFINITE) from exc


def _check(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        raise EvalDomainError(_NONFINITE)
    return x


def _eval(e: Expr, env: Mapping[str, float], b: Mapping[str, OpaqueBinding]) -> tuple[float, float]:
    cls = e.__class__
    if cls is Num:
        v = e.value.numerator / e.value.denominator
        return v, abs(v)
    if cls is Sym:
        if e.name not in env:
            raise EvalError(f"unbound variable {e.name!r}")
        v = env[e.name]
        return v, abs(v)
    if cls is Add:
        vals, scale = [], 0.0
        for t in e.terms:
            v, s = _eval(t, env, b)
            vals.append(v)
            scale = max(scale, s, abs(v))
        return _check(reduce(operator.add, vals)), scale
    if cls is Mul:
        v, scale = 1.0, 0.0
        for f in e.factors:
            fv, fs = _eval(f, env, b)
            scale = max(scale, fs)
            v *= fv
        return _check(v), max(scale, abs(v))
    if cls is Pow:
        bv, bs = _eval(e.base, env, b)
        ev, es = _eval(e.exponent, env, b)
        scale = max(bs, es)
        if e.exponent.__class__ is Num and e.exponent.value.denominator == 1:
            n = int(e.exponent.value)
            if bv == 0.0 and n < 0:
                raise EvalDomainError("division by zero")
            v = bv ** n
        else:
            if bv < 0.0:
                raise EvalDomainError(f"negative base {bv!r} with non-integer exponent")
            if bv == 0.0 and ev <= 0.0:
                raise EvalDomainError("0 raised to a non-positive power")
            v = bv ** ev
        return _check(v), max(scale, abs(v))
    if cls is Call:
        av, ascale = _eval(e.arg, env, b)
        if e.fn == "exp":
            v = math.exp(av) if av < EXP_GUARD else _check(float("inf"))
        elif e.fn == "ln":
            if av <= 0:
                raise EvalDomainError(f"ln of non-positive value {av!r}")
            v = math.log(av)
        elif e.fn == "sin":
            v = math.sin(av)
        elif e.fn == "cos":
            v = math.cos(av)
        elif e.fn == "tan":
            v = math.tan(av)
        elif e.fn == "atan":
            v = math.atan(av)
        elif e.fn == "sqrt":
            if av < 0:
                raise EvalDomainError(f"sqrt of negative value {av!r}")
            v = math.sqrt(av)
        else:  # pragma: no cover
            raise ExprError(f"unknown function {e.fn}")
        return _check(v), max(ascale, abs(v))
    if cls is Opaque or cls is Deriv:
        target = e.target if cls is Deriv else e
        if target.fn not in b:
            raise EvalError(f"unbound opaque symbol {target.fn!r}")
        binding = b[target.fn]
        vals, scale = [], 0.0
        for a in target.args:
            v, s = _eval(a, env, b)
            vals.append(v)
            scale = max(scale, s)
        fn = binding.deriv(e.slots) if cls is Deriv else binding.fn
        v = _check(fn(*vals))
        return v, max(scale, abs(v))
    raise ExprError(f"unknown node {e!r}")


def sample_on_variety(rng: random.Random, f_at: Callable[[float, float, float], float],
                      max_attempts: int = 100) -> dict[str, float]:
    """Random jet point satisfying S2[u] = f(x, y, z) exactly (u_yy solved).

    The trace pivot u_xx + u_zz is kept away from zero so the solved u_yy
    stays well-scaled.
    """
    for _ in range(max_attempts):
        pt = {s: signed(rng, 0.1, 2.0) for s in ("x", "y", "z", "u")}
        for idx in jet_indices(1) + jet_indices(2):
            pt[f"u_{idx}"] = signed(rng, 0.1, 2.0)
        if abs(pt["u_xx"] + pt["u_zz"]) < 0.25:
            continue
        try:
            fv = f_at(pt["x"], pt["y"], pt["z"])
        except (ArithmeticError, EvalDomainError):
            continue  # f undefined here (sqrt, ln): draw another point
        pt["u_yy"] = (fv - pt["u_xx"] * pt["u_zz"] + pt["u_xy"] ** 2
                      + pt["u_yz"] ** 2 + pt["u_xz"] ** 2) / (pt["u_xx"] + pt["u_zz"])
        return pt
    raise EvalDomainError("could not sample a well-conditioned variety point")


def _pdiff(p: Poly, g: str) -> Poly:
    """Exact derivative in the generator g, by lowering its exponent; distinct
    monomials stay distinct, so no terms combine."""
    out: Poly = {}
    for m, c in p.items():
        for i, (h, k) in enumerate(m):
            if h == g:
                out[m[:i] + (((g, k - 1),) if k > 1 else ()) + m[i + 1:]] = c * k
                break
    return out


def s2_numerator_minors(p: Poly) -> Poly:
    """den^2 S2[p/den] for an integer polynomial p, with the minors
    written out: u_xx*(u_yy + u_zz) + u_yy*u_zz - u_xy^2 - u_yz^2 - u_xz^2."""
    d1 = {v: _pdiff(p, v) for v in SPATIAL}
    d2 = {idx: _pdiff(d1[idx[0]], idx[1]) for idx in jet_indices(2)}
    s = _padd(_pmul(d2["xx"], _padd(d2["yy"], d2["zz"])), _pmul(d2["yy"], d2["zz"]))
    for idx in ("xy", "yz", "xz"):
        s = _padd(s, {m: -c for m, c in _pmul(d2[idx], d2[idx]).items()})
    return s


def s2_of_poly(p: Poly, den: int) -> Expr:
    """S2[p/den] in canonical form, for a polynomial p over symbol
    generators with integer coefficients: den^2 divides the numerator of
    the written minors once."""
    s = s2_numerator_minors(p)
    den2 = den * den
    return _poly_to_expr({m: Fraction(c, den2) for m, c in s.items()},
                         {g: sym(g) for m in s for g, _ in m})
