"""Exact symbolic expression trees.

Small immutable kernel used by the whole toolkit.  Expressions are trees
over exact rational constants, named variables, flattened sums and
products, integer/rational powers, a fixed set of elementary functions
(exp, ln, sin, cos, tan, atan, sqrt) and *opaque* function symbols such
as H(y, z) whose derivatives stay formal.

Design constraints (load-bearing, do not relax):

* rationals are exact ``fractions.Fraction`` values, never floats;
* sums and products are flattened and have at least two children;
* quotients are represented as products with negative powers;
* opaque applications and elementary calls are never rewritten, only
  their arguments are; formal derivative slots are stored sorted so
  mixed partials commute structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Call", "Opaque", "Deriv",
    "num", "sym", "add", "mul", "pow_", "neg", "sub", "div", "call",
    "opaque", "deriv", "ONE", "ZERO", "MINUS_ONE",
    "ELEMENTARY", "ExprError", "EvalError", "EvalDomainError",
    "diff", "substitute", "substitute_opaque", "free_symbols",
    "opaque_names", "eval_numeric", "eval_with_scale", "OpaqueBinding",
    "compile_evaluator", "to_text",
]


class ExprError(Exception):
    """Malformed expression or unsupported operation."""


class EvalError(ExprError):
    """Numeric evaluation failed (unbound symbol, missing binding)."""


class EvalDomainError(EvalError):
    """Numeric evaluation hit a domain problem (log of <= 0, 0^-1, ...)."""


# Elementary function names the kernel knows how to differentiate and
# evaluate.  Anything else applied to arguments is an opaque symbol.
ELEMENTARY = frozenset({"exp", "ln", "sin", "cos", "tan", "atan", "sqrt"})


@dataclass(frozen=True)
class Expr:
    """Base class; concrete nodes below."""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return to_text(self)


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple[Expr, ...]  # flattened, len >= 2


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple[Expr, ...]  # flattened, len >= 2


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Opaque(Expr):
    fn: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Deriv(Expr):
    """Formal derivative of an opaque application w.r.t. argument slots.

    ``slots`` is a sorted tuple of 1-based argument indices; repeats mean
    higher order.  Deriv(H(y,z), (1,2)) is d^2 H / ds1 ds2 evaluated at
    (y, z).
    """

    target: Opaque
    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.slots)) != self.slots or not self.slots:
            raise ExprError(f"derivative slots must be sorted, got {self.slots}")
        if self.slots[0] < 1 or self.slots[-1] > len(self.target.args):
            raise ExprError(
                f"derivative slot out of range for {self.target.fn}/{len(self.target.args)}"
            )


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))
MINUS_ONE = Num(Fraction(-1))

NumberLike = Union[int, Fraction]


def num(value: NumberLike) -> Num:
    """Exact rational constant.  Floats are rejected; parse decimals instead."""
    if isinstance(value, float):
        raise ExprError("float constants are not allowed; use Fraction or parse a decimal literal")
    return Num(Fraction(value))


def sym(name: str) -> Sym:
    return Sym(name)


def _flat(kind, items: Iterable[Expr]):
    for it in items:
        if isinstance(it, kind):
            yield from it.terms if kind is Add else it.factors
        else:
            yield it


def add(*terms: Expr) -> Expr:
    """Flattened sum with rational constants folded together."""
    const = Fraction(0)
    rest: list[Expr] = []
    for t in _flat(Add, terms):
        if isinstance(t, Num):
            const += t.value
        else:
            rest.append(t)
    if const != 0:
        rest.insert(0, Num(const))
    if not rest:
        return ZERO
    if len(rest) == 1:
        return rest[0]
    return Add(tuple(rest))


def mul(*factors: Expr) -> Expr:
    """Flattened product with rational constants folded together."""
    const = Fraction(1)
    rest: list[Expr] = []
    for f in _flat(Mul, factors):
        if isinstance(f, Num):
            const *= f.value
        else:
            rest.append(f)
    if const == 0:
        return ZERO
    if const != 1:
        rest.insert(0, Num(const))
    if not rest:
        return Num(const)
    if len(rest) == 1:
        return rest[0]
    return Mul(tuple(rest))


def _is_int(fr: Fraction) -> bool:
    return fr.denominator == 1


def pow_(base: Expr, exponent: Expr | NumberLike) -> Expr:
    """Power with light folding.

    Folds: anything^0 -> 1, anything^1 -> base, rational^integer exactly,
    and (b^m)^n -> b^(m*n) when both exponents are integers.  Non-integer
    rational and symbolic exponents are kept as atoms (normalize treats
    them as kernel atoms).
    """
    if not isinstance(exponent, Expr):
        exponent = num(exponent)
    if isinstance(exponent, Num):
        e = exponent.value
        if e == 0:
            return ONE
        if e == 1:
            return base
        if isinstance(base, Num) and _is_int(e):
            if base.value == 0 and e < 0:
                raise ExprError("0 raised to a negative power")
            return Num(base.value ** int(e)) if e >= 0 else Num(Fraction(1) / base.value ** int(-e))
        if (
            isinstance(base, Pow)
            and isinstance(base.exponent, Num)
            and _is_int(base.exponent.value)
            and _is_int(e)
        ):
            return pow_(base.base, num(base.exponent.value * e))
    return Pow(base, exponent)


def neg(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(-e.value)
    return mul(MINUS_ONE, e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def div(a: Expr, b: Expr) -> Expr:
    return mul(a, pow_(b, MINUS_ONE))


def call(fn: str, arg: Expr) -> Call:
    if fn not in ELEMENTARY:
        raise ExprError(f"unknown elementary function {fn!r}")
    return Call(fn, arg)


def opaque(fn: str, *args: Expr) -> Opaque:
    if not args:
        raise ExprError("opaque application needs at least one argument")
    return Opaque(fn, tuple(args))


def deriv(target: Opaque, slots: Sequence[int]) -> Deriv:
    return Deriv(target, tuple(sorted(slots)))


# ---------------------------------------------------------------------------
# printing (structural, deterministic; the canonical printer lives in
# normalize.print_canonical which prints the normalized form)

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _paren(text: str, prec: int, minimum: int) -> str:
    return f"({text})" if prec < minimum else text


def _num_text(v: Fraction) -> tuple[str, int]:
    t = str(v)
    if v < 0:
        return t, _PREC_ADD  # leading minus binds like a sum member
    if v.denominator != 1:
        return t, _PREC_MUL  # "1/2" is a quotient at term precedence
    return t, _PREC_ATOM


def _text(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        return _num_text(e.value)
    if isinstance(e, Sym):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            txt, _prec = _text(t)
            if i == 0:
                parts.append(txt)
            elif txt.startswith("-"):
                parts.append(" - " + txt[1:])
            else:
                parts.append(" + " + txt)
        return "".join(parts), _PREC_ADD
    if isinstance(e, Mul):
        coeff = Fraction(1)
        numer: list[str] = []
        denom: list[str] = []
        for f in e.factors:
            if isinstance(f, Num):
                coeff *= f.value
                continue
            if isinstance(f, Pow) and isinstance(f.exponent, Num) and _is_int(f.exponent.value) and f.exponent.value < 0:
                inv = pow_(f.base, num(-f.exponent.value))
                txt, prec = _text(inv)
                denom.append(_paren(txt, prec, _PREC_POW))
                continue
            txt, prec = _text(f)
            numer.append(_paren(txt, prec, _PREC_MUL + 1))
        sign = "-" if coeff < 0 else ""
        coeff = abs(coeff)
        lead = ""
        if coeff != 1 or not numer:
            lead = str(coeff.numerator) if coeff.denominator == 1 else f"{coeff.numerator}/{coeff.denominator}"
        head = "*".join(([lead] if lead else []) + numer)
        body = "/".join([head] + denom) if denom else head
        out = sign + body
        return out, _PREC_ADD if sign else _PREC_MUL
    if isinstance(e, Pow):
        ex = e.exponent
        if isinstance(ex, Num) and _is_int(ex.value) and ex.value < 0:
            inv, prec = _text(pow_(e.base, num(-ex.value)))
            return "1/" + _paren(inv, prec, _PREC_POW), _PREC_MUL
        base_txt, base_prec = _text(e.base)
        base_txt = _paren(base_txt, base_prec, _PREC_ATOM)
        if isinstance(ex, Num) and _is_int(ex.value) and ex.value >= 0:
            ex_txt = str(ex.value)
        elif isinstance(ex, Sym):
            ex_txt = ex.name
        else:
            ex_txt = "(" + _text(ex)[0] + ")"
        return f"{base_txt}^{ex_txt}", _PREC_POW
    if isinstance(e, Call):
        return f"{e.fn}({_text(e.arg)[0]})", _PREC_ATOM
    if isinstance(e, Opaque):
        args = ", ".join(_text(a)[0] for a in e.args)
        return f"{e.fn}({args})", _PREC_ATOM
    if isinstance(e, Deriv):
        args = ", ".join(_text(a)[0] for a in e.target.args)
        tag = "".join(str(s) for s in e.slots)
        return f"{e.target.fn}_{tag}({args})", _PREC_ATOM
    raise ExprError(f"unknown node {e!r}")


def to_text(e: Expr) -> str:
    """Deterministic structural infix form; re-parses to the same tree."""
    return _text(e)[0]


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr, var: str | Sym) -> Expr:
    """Partial derivative with every other symbol held constant.

    Opaque applications differentiate by the chain rule through their
    arguments, producing formal Deriv nodes.  Symbolic exponents follow
    d/dx b^p = p' * ln(b) * b^p + p * b' * b^(p-1).
    """
    name = var.name if isinstance(var, Sym) else var
    return _diff(e, name)


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(*[_diff(t, v) for t in e.terms])
    if isinstance(e, Mul):
        out: list[Expr] = []
        for i, f in enumerate(e.factors):
            d = _diff(f, v)
            if d == ZERO:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            out.append(mul(d, *rest))
        return add(*out) if out else ZERO
    if isinstance(e, Pow):
        b, ex = e.base, e.exponent
        db = _diff(b, v)
        dex = _diff(ex, v)
        terms: list[Expr] = []
        if dex != ZERO:
            terms.append(mul(dex, call("ln", b), pow_(b, ex)))
        if db != ZERO:
            terms.append(mul(ex, db, pow_(b, sub(ex, ONE))))
        return add(*terms) if terms else ZERO
    if isinstance(e, Call):
        da = _diff(e.arg, v)
        if da == ZERO:
            return ZERO
        a = e.arg
        if e.fn == "exp":
            body: Expr = call("exp", a)
        elif e.fn == "ln":
            body = pow_(a, MINUS_ONE)
        elif e.fn == "sin":
            body = call("cos", a)
        elif e.fn == "cos":
            body = neg(call("sin", a))
        elif e.fn == "tan":
            body = add(ONE, pow_(call("tan", a), num(2)))
        elif e.fn == "atan":
            body = pow_(add(ONE, pow_(a, num(2))), MINUS_ONE)
        elif e.fn == "sqrt":
            body = mul(num(Fraction(1, 2)), pow_(call("sqrt", a), MINUS_ONE))
        else:  # pragma: no cover
            raise ExprError(f"no derivative rule for {e.fn}")
        return mul(body, da)
    if isinstance(e, Opaque):
        terms = []
        for k, a in enumerate(e.args, start=1):
            da = _diff(a, v)
            if da == ZERO:
                continue
            terms.append(mul(Deriv(e, (k,)), da))
        return add(*terms) if terms else ZERO
    if isinstance(e, Deriv):
        terms = []
        for k, a in enumerate(e.target.args, start=1):
            da = _diff(a, v)
            if da == ZERO:
                continue
            terms.append(mul(deriv(e.target, e.slots + (k,)), da))
        return add(*terms) if terms else ZERO
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of symbols; replacements are not re-visited."""
    if not mapping:
        return e
    return _subst(e, mapping)


def _subst(e: Expr, m: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Num):
        return e
    if isinstance(e, Sym):
        return m.get(e.name, e)
    if isinstance(e, Add):
        return add(*[_subst(t, m) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[_subst(f, m) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(_subst(e.base, m), _subst(e.exponent, m))
    if isinstance(e, Call):
        return Call(e.fn, _subst(e.arg, m))
    if isinstance(e, Opaque):
        return Opaque(e.fn, tuple(_subst(a, m) for a in e.args))
    if isinstance(e, Deriv):
        return Deriv(Opaque(e.target.fn, tuple(_subst(a, m) for a in e.target.args)), e.slots)
    raise ExprError(f"unknown node {e!r}")


def substitute_opaque(e: Expr, bodies: Mapping[str, tuple[Sequence[str], Expr]]) -> Expr:
    """Replace opaque symbols by concrete expression bodies.

    ``bodies[name] = (params, body)``; a Deriv node becomes the body
    differentiated w.r.t. the named params per slot, then evaluated at the
    (recursively substituted) arguments.
    """
    if isinstance(e, (Num, Sym)):
        return e
    if isinstance(e, Add):
        return add(*[substitute_opaque(t, bodies) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute_opaque(f, bodies) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(substitute_opaque(e.base, bodies), substitute_opaque(e.exponent, bodies))
    if isinstance(e, Call):
        return Call(e.fn, substitute_opaque(e.arg, bodies))
    if isinstance(e, (Opaque, Deriv)):
        target = e.target if isinstance(e, Deriv) else e
        args = tuple(substitute_opaque(a, bodies) for a in target.args)
        if target.fn not in bodies:
            node = Opaque(target.fn, args)
            return Deriv(node, e.slots) if isinstance(e, Deriv) else node
        params, body = bodies[target.fn]
        if len(params) != len(args):
            raise ExprError(f"arity mismatch binding {target.fn}")
        if isinstance(e, Deriv):
            for s in e.slots:
                body = _diff(body, params[s - 1])
        return substitute(body, dict(zip(params, args)))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# free symbols

def free_symbols(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    _collect_syms(e, out)
    return frozenset(out)


def _collect_syms(e: Expr, out: set[str]) -> None:
    if isinstance(e, Sym):
        out.add(e.name)
    elif isinstance(e, Add):
        for t in e.terms:
            _collect_syms(t, out)
    elif isinstance(e, Mul):
        for f in e.factors:
            _collect_syms(f, out)
    elif isinstance(e, Pow):
        _collect_syms(e.base, out)
        _collect_syms(e.exponent, out)
    elif isinstance(e, Call):
        _collect_syms(e.arg, out)
    elif isinstance(e, Opaque):
        for a in e.args:
            _collect_syms(a, out)
    elif isinstance(e, Deriv):
        for a in e.target.args:
            _collect_syms(a, out)


def opaque_names(e: Expr) -> frozenset[str]:
    out: set[str] = set()

    def walk(n: Expr) -> None:
        if isinstance(n, Add):
            for t in n.terms:
                walk(t)
        elif isinstance(n, Mul):
            for f in n.factors:
                walk(f)
        elif isinstance(n, Pow):
            walk(n.base)
            walk(n.exponent)
        elif isinstance(n, Call):
            walk(n.arg)
        elif isinstance(n, Opaque):
            out.add(n.fn)
            for a in n.args:
                walk(a)
        elif isinstance(n, Deriv):
            out.add(n.target.fn)
            for a in n.target.args:
                walk(a)

    walk(e)
    return frozenset(out)


# ---------------------------------------------------------------------------
# numeric evaluation

class OpaqueBinding:
    """Numeric evaluator for an opaque symbol and its formal derivatives.

    Built either from callables (``fn`` for the value, ``derivs`` keyed by
    sorted slot tuples) or, by ``from_expr``, from a closed-form body over
    ``params``.  An expression binding differentiates its body and compiles
    it with ``compile_evaluator`` (through ``inner`` for the profiles the
    body itself applies) on the first use of each slot tuple, and keeps the
    compiled function; ``fn`` is the slot tuple ().
    """

    def __init__(self, arity: int, fn: Callable[..., float] | None = None,
                 derivs: Mapping[tuple[int, ...], Callable[..., float]] | None = None):
        self.arity = arity
        self._derivs: dict[tuple[int, ...], Callable[..., float]] = dict(derivs or {})
        if fn is not None:
            self._derivs[()] = fn
        self.params: tuple[str, ...] = ()
        self.bodies: dict[tuple[int, ...], Expr] = {}  # slots -> differentiated body
        self.inner: dict[str, OpaqueBinding] = {}

    @classmethod
    def from_expr(cls, params: Sequence[str], body: Expr,
                  inner: Mapping[str, "OpaqueBinding"] | None = None) -> "OpaqueBinding":
        """Evaluator family of a closed-form body, compiled on first use."""
        b = cls(len(params))
        b.params = tuple(params)
        b.bodies[()] = body
        b.inner = dict(inner or {})
        return b

    @property
    def fn(self) -> Callable[..., float]:
        return self.deriv(())

    def body_for(self, slots: tuple[int, ...]) -> Expr:
        if slots not in self.bodies:
            parent = self.body_for(slots[:-1])
            self.bodies[slots] = _diff(parent, self.params[slots[-1] - 1])
        return self.bodies[slots]

    def deriv(self, slots: tuple[int, ...]) -> Callable[..., float]:
        slots = tuple(sorted(slots))
        if slots in self._derivs:
            return self._derivs[slots]
        if not self.bodies:
            raise EvalError(f"no derivative evaluator bound for slots {slots}")
        fn = compile_evaluator(self.body_for(slots), self.params, self.inner)
        self._derivs[slots] = fn
        return fn


_NONFINITE = "evaluation overflowed or produced NaN"


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
    except OverflowError as exc:  # a float power or an fsum past the range
        raise EvalDomainError(_NONFINITE) from exc


def _check(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        raise EvalDomainError(_NONFINITE)
    return x


def _eval(e: Expr, env: Mapping[str, float], b: Mapping[str, OpaqueBinding]) -> tuple[float, float]:
    if isinstance(e, Num):
        v = e.value.numerator / e.value.denominator
        return v, abs(v)
    if isinstance(e, Sym):
        if e.name not in env:
            raise EvalError(f"unbound variable {e.name!r}")
        v = env[e.name]
        return v, abs(v)
    if isinstance(e, Add):
        vals, scale = [], 0.0
        for t in e.terms:
            v, s = _eval(t, env, b)
            vals.append(v)
            scale = max(scale, s, abs(v))
        return _check(math.fsum(vals)), scale
    if isinstance(e, Mul):
        v, scale = 1.0, 0.0
        for f in e.factors:
            fv, fs = _eval(f, env, b)
            scale = max(scale, fs)
            v *= fv
        return _check(v), max(scale, abs(v))
    if isinstance(e, Pow):
        bv, bs = _eval(e.base, env, b)
        ev, es = _eval(e.exponent, env, b)
        scale = max(bs, es)
        if isinstance(e.exponent, Num) and _is_int(e.exponent.value):
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
    if isinstance(e, Call):
        av, ascale = _eval(e.arg, env, b)
        if e.fn == "exp":
            v = math.exp(av) if av < 700 else _check(float("inf"))
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
    if isinstance(e, (Opaque, Deriv)):
        target = e.target if isinstance(e, Deriv) else e
        if target.fn not in b:
            raise EvalError(f"unbound opaque symbol {target.fn!r}")
        binding = b[target.fn]
        vals, scale = [], 0.0
        for a in target.args:
            v, s = _eval(a, env, b)
            vals.append(v)
            scale = max(scale, s)
        fn = binding.deriv(e.slots) if isinstance(e, Deriv) else binding.fn
        v = _check(fn(*vals))
        return v, max(scale, abs(v))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# compiled evaluation (the semantics of eval_numeric, much faster in loops)

def _guarded_exp(a: float) -> float:
    # the reference's overflow guard at 700; an argument of -inf (exp would
    # make it 0.0) or NaN fails it too
    if not -math.inf < a < 700.0:
        raise EvalDomainError(_NONFINITE)
    return math.exp(a)


def _guarded_atan(a: float) -> float:
    if not -math.inf < a < math.inf:  # atan would make an inf finite
        raise EvalDomainError(_NONFINITE)
    return math.atan(a)


def _nonfinite() -> float:
    raise EvalDomainError(_NONFINITE)


def _guarded_ln(a: float) -> float:
    if not a > 0.0:
        raise EvalDomainError(f"ln of non-positive value {a!r}")
    return math.log(a)


def _guarded_sqrt(a: float) -> float:
    if not a >= 0.0:
        raise EvalDomainError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


def _guarded_pow(b: float, x: float) -> float:
    """b**x for an exponent that is not an integer constant: never complex."""
    if not b >= 0.0:
        raise EvalDomainError(f"negative base {b!r} with non-integer exponent")
    if b == 0.0 and x <= 0.0:
        raise EvalDomainError("0 raised to a non-positive power")
    if b == math.inf or not -math.inf < x < math.inf:  # inf ** -x, b ** -inf
        raise EvalDomainError(_NONFINITE)
    return b ** x


def _domain_error(exc: ArithmeticError | ValueError) -> EvalDomainError:
    """What the reference raises where compiled arithmetic raised ``exc``:
    0.0 ** -n, a float power past the range, a math call at inf."""
    return EvalDomainError("division by zero" if isinstance(exc, ZeroDivisionError)
                           else _NONFINITE)


_COMPILED_GLOBALS = {
    "_exp": _guarded_exp, "_ln": _guarded_ln, "_sin": math.sin, "_cos": math.cos,
    "_tan": math.tan, "_atan": _guarded_atan, "_sqrt": _guarded_sqrt,
    "_pow": _guarded_pow, "_nonfinite": _nonfinite, "_domain_error": _domain_error,
    "_EvalDomainError": EvalDomainError, "_NONFINITE": _NONFINITE,
    "_all": all, "_map": map, "_sum": sum, "_isfinite": math.isfinite,
}


def compile_evaluator(e: Expr | Sequence[Expr], var_order: Sequence[str],
                      bindings: Mapping[str, OpaqueBinding] | None = None,
                      ) -> Callable[..., float] | Callable[..., tuple[float, ...]]:
    """Compile to a Python callable taking floats in ``var_order`` order.

    Used for sampling loops (hundreds of points on large residuals); the
    recursive evaluator stays the reference semantics and the test oracle.
    A tuple of expressions compiles to one callable returning the tuple of
    their values, each emitted exactly as it would be on its own.

    Domain errors and overflow raise EvalDomainError where the reference
    does: ln, sqrt and non-integer powers are guarded, exp keeps the
    reference's guard at 700, ``0.0 ** -n``, a power past the float range
    and sin/cos/tan of inf are mapped to EvalDomainError, and a non-finite
    result is rejected, so a result is never complex, inf or NaN.  The
    reference checks every node; the compiled code checks only the nodes
    that would turn an intermediate inf into a finite value (the argument
    of exp and atan, the base of a negative power), so ``1/(x*y)`` at
    x = y = 1e200 raises on both routes.  Sums use ``+`` where the
    reference uses ``math.fsum``, so the two agree to rounding, not to the
    bit.
    """
    b = bindings or {}
    names = {v: f"_v{i}" for i, v in enumerate(var_order)}
    fns: list[Callable[..., float]] = []

    def emit(n: Expr) -> str:
        if isinstance(n, Num):
            if n.value.denominator == 1:
                return f"({n.value.numerator})" if n.value < 0 else str(n.value.numerator)
            return f"({n.value.numerator}/{n.value.denominator})"
        if isinstance(n, Sym):
            if n.name not in names:
                raise EvalError(f"unbound variable {n.name!r} in compiled expression")
            return names[n.name]
        if isinstance(n, Add):
            return "(" + "+".join(emit(t) for t in n.terms) + ")"
        if isinstance(n, Mul):
            return "(" + "*".join(emit(f) for f in n.factors) + ")"
        if isinstance(n, Pow):
            if isinstance(n.exponent, Num) and _is_int(n.exponent.value):
                base = emit(n.base)
                if n.exponent.value < 0:  # inf ** -k is 0.0: reject the inf
                    base = f"(_g if (_g := {base}) - _g == 0.0 else _nonfinite())"
                return "(" + base + "**" + emit(n.exponent) + ")"
            return f"_pow({emit(n.base)},{emit(n.exponent)})"
        if isinstance(n, Call):
            return f"_{n.fn}({emit(n.arg)})"
        if isinstance(n, (Opaque, Deriv)):
            target = n.target if isinstance(n, Deriv) else n
            if target.fn not in b:
                raise EvalError(f"unbound opaque symbol {target.fn!r}")
            binding = b[target.fn]
            f = binding.deriv(n.slots) if isinstance(n, Deriv) else binding.fn
            fns.append(f)
            args = ",".join(emit(a) for a in target.args)
            return f"_f{len(fns) - 1}({args})"
        raise ExprError(f"unknown node {n!r}")

    if isinstance(e, Expr):
        # x - x is 0 for a finite x and NaN, which is truthy, for inf and NaN
        body, nonfinite = emit(e), "_r - _r"
    else:
        body = "(" + "".join(emit(x) + "," for x in e) + ")"
        # a finite sum has finite terms; only an inf or NaN sum (or an
        # overflowing one) needs the entry-by-entry test
        nonfinite = "not _isfinite(_sum(_r)) and not _all(_map(_isfinite, _r))"
    glob = dict(_COMPILED_GLOBALS)
    for i, f in enumerate(fns):
        glob[f"_f{i}"] = f
    src = (f"def _compiled({', '.join(names[v] for v in var_order)}):\n"
           f"    try:\n"
           f"        _r = {body}\n"
           f"    except (OverflowError, ZeroDivisionError, ValueError) as exc:\n"
           f"        raise _domain_error(exc) from exc\n"
           f"    if {nonfinite}:\n"
           f"        raise _EvalDomainError(_NONFINITE)\n"
           f"    return _r\n")
    ns: dict = {}
    exec(compile(src, "<expr>", "exec"), glob, ns)  # noqa: S102 - generated from our own AST
    return ns["_compiled"]
