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
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "Frozen", "Expr", "Num", "Sym", "Add", "Mul", "Pow", "Call", "Opaque", "Deriv",
    "num", "sym", "add", "mul", "pow_", "neg", "sub", "div", "call",
    "opaque", "deriv", "ONE", "ZERO", "MINUS_ONE",
    "ELEMENTARY", "EXP_GUARD", "ExprError", "EvalError", "EvalDomainError",
    "children", "rebuild", "diff", "substitute", "free_symbols",
    "eval_numeric", "eval_with_scale", "OpaqueBinding",
    "compile_evaluator", "compile_template", "compile_with_scale", "to_text",
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

# exp of an argument at or past this is an overflow on both evaluation
# routes (exp itself overflows only past about 709.78)
EXP_GUARD = 700.0


_set = object.__setattr__


class Frozen:
    """Base of the immutable plain classes: ``__init__`` sets each field
    once with ``object.__setattr__``, and assignment afterwards raises.

    Equality, hash and repr come from one field list, ``__slots__`` unless
    the class passes ``fields=``.  An instance equals an instance of the
    same class with equal key fields, hashes the tuple of its key fields,
    and shows as ``Class(field=value, ...)`` over all its fields.  Fields
    named in ``unkeyed=`` are shown but take no part in equality or hash.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: tuple[str, ...] | None = None,
                          unkeyed: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__dict__.get("__slots__", ()) if fields is None else fields
        key = tuple(f for f in cls._fields if f not in unkeyed)
        if not key:
            return  # an abstract base such as Expr
        get = attrgetter(*key)  # a value for one name, a tuple for several

        def __eq__(self, other: object) -> bool:
            if other.__class__ is cls:
                return get(self) == get(other)
            return NotImplemented

        if len(key) == 1:
            def __hash__(self) -> int:
                return hash((get(self),))
        else:
            def __hash__(self) -> int:
                return hash(get(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Expr(Frozen, fields=()):
    """Base class; concrete nodes below, each a ``Frozen`` value over its
    ``__slots__``.  A node computes its hash once, on first use, and keeps
    it, so that a table keyed on a tree does not rehash the whole tree on
    every lookup.  Neither hashing a tree (``_hash_tree``) nor comparing
    two (``_tree_eq``) recurses, so that a deep tree does not exhaust
    Python's stack."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key_hash = cls.__hash__

        def __hash__(self) -> int:
            try:
                return self._hash
            except AttributeError:
                _hash_tree(self)
                return self._hash

        cls.__hash__ = __hash__

    def __str__(self) -> str:  # pragma: no cover - convenience
        return to_text(self)


class Num(Expr):
    __slots__ = ("value",)
    value: Fraction

    def __init__(self, value: Fraction) -> None:
        _set(self, "value", value if isinstance(value, Fraction) else Fraction(value))


class Sym(Expr):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Add(Expr):
    __slots__ = ("terms",)
    terms: tuple[Expr, ...]  # flattened, len >= 2

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        _set(self, "terms", terms)


class Mul(Expr):
    __slots__ = ("factors",)
    factors: tuple[Expr, ...]  # flattened, len >= 2

    def __init__(self, factors: tuple[Expr, ...]) -> None:
        _set(self, "factors", factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: Expr

    def __init__(self, base: Expr, exponent: Expr) -> None:
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Call(Expr):
    __slots__ = ("fn", "arg")
    fn: str
    arg: Expr

    def __init__(self, fn: str, arg: Expr) -> None:
        _set(self, "fn", fn)
        _set(self, "arg", arg)


class Opaque(Expr):
    __slots__ = ("fn", "args")
    fn: str
    args: tuple[Expr, ...]

    def __init__(self, fn: str, args: tuple[Expr, ...]) -> None:
        _set(self, "fn", fn)
        _set(self, "args", args)


class Deriv(Expr):
    """Formal derivative of an opaque application w.r.t. argument slots.

    ``slots`` is a sorted tuple of 1-based argument indices; repeats mean
    higher order.  Deriv(H(y,z), (1,2)) is d^2 H / ds1 ds2 evaluated at
    (y, z).
    """

    __slots__ = ("target", "slots")
    target: Opaque
    slots: tuple[int, ...]

    def __init__(self, target: Opaque, slots: tuple[int, ...]) -> None:
        if tuple(sorted(slots)) != slots or not slots:
            raise ExprError(f"derivative slots must be sorted, got {slots}")
        if slots[0] < 1 or slots[-1] > len(target.args):
            raise ExprError(
                f"derivative slot out of range for {target.fn}/{len(target.args)}"
            )
        _set(self, "target", target)
        _set(self, "slots", slots)


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
    const = None  # no Fraction is made for a sum without constants
    rest: list[Expr] = []
    for t in _flat(Add, terms):
        if t.__class__ is Num:
            const = t.value if const is None else const + t.value
        else:
            rest.append(t)
    if const:
        rest.insert(0, Num(const))
    if not rest:
        return ZERO
    if len(rest) == 1:
        return rest[0]
    return Add(tuple(rest))


def mul(*factors: Expr) -> Expr:
    """Flattened product with rational constants folded together."""
    const = None  # no Fraction is made for a product without constants
    rest: list[Expr] = []
    for f in _flat(Mul, factors):
        if f.__class__ is Num:
            const = f.value if const is None else const * f.value
        else:
            rest.append(f)
    if const is not None:
        if const == 0:
            return ZERO
        if const != 1:
            rest.insert(0, Num(const))
    if not rest:
        return ONE if const is None else Num(const)
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
    if isinstance(e, (Opaque, Deriv)):
        target, slots = (e.target, e.slots) if isinstance(e, Deriv) else (e, ())
        terms = []
        for k, a in enumerate(target.args, start=1):
            da = _diff(a, v)
            if da == ZERO:
                continue
            terms.append(mul(deriv(target, slots + (k,)), da))
        return add(*terms) if terms else ZERO
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# traversal: the one place that knows where each node keeps its subtrees

def _hash_tree(e: Expr) -> None:
    """Give ``e`` and each subtree without a hash its hash, depth first
    and children before their parents, so that each hash finds its
    children's kept and a shared subtree is walked once."""
    stack = [(e, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            _set(n, "_hash", n._key_hash())
        elif not hasattr(n, "_hash"):
            stack.append((n, True))
            stack += [(c, False) for c in children(n)]


# what a node holds besides its subtrees
_HEAD = {Num: attrgetter("value"), Sym: attrgetter("name"), Call: attrgetter("fn"),
         Opaque: attrgetter("fn"), Deriv: attrgetter("target.fn", "slots")}


def _tree_eq(a: Expr, b: object) -> bool:
    """``a == b`` for a node with subtrees, without recursion: the hashes
    first (hashing a root keeps a hash on each of its subtrees), then each
    pair of subtrees by class, hash, head and arity, on an explicit stack,
    each pair once, however many paths of a shared DAG lead to it."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    if hash(a) != hash(b):
        return False
    stack = [(a, b)]
    seen: set[tuple[int, int]] = set()
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        cls = a.__class__
        if cls is not b.__class__ or a._hash != b._hash:
            return False
        head = _HEAD.get(cls)
        ka, kb = children(a), children(b)
        if len(ka) != len(kb) or head is not None and head(a) != head(b):
            return False
        stack += zip(ka, kb)
    return True


for _cls in (Add, Mul, Pow, Call, Opaque, Deriv):  # a leaf keeps the key comparison
    _cls.__eq__ = _tree_eq


def children(e: Expr) -> tuple[Expr, ...]:
    """The subtrees of ``e`` in order: the terms of a sum, the factors of a
    product, base and exponent, the argument of a call, and the arguments
    of an opaque application or of a derivative's target.  A number or a
    symbol has none."""
    cls = e.__class__
    if cls is Add:
        return e.terms
    if cls is Mul:
        return e.factors
    if cls is Pow:
        return (e.base, e.exponent)
    if cls is Call:
        return (e.arg,)
    if cls is Opaque:
        return e.args
    if cls is Deriv:
        return e.target.args
    if cls is Num or cls is Sym:
        return ()
    raise ExprError(f"unknown node {e!r}")


def rebuild(e: Expr, kids: Sequence[Expr]) -> Expr:
    """``e`` with ``kids`` in place of ``children(e)``.  A sum, product or
    power refolds through ``add``, ``mul`` or ``pow_``; a call, an opaque
    application or a derivative keeps its head (function name and slots)."""
    cls = e.__class__
    if cls is Add:
        return add(*kids)
    if cls is Mul:
        return mul(*kids)
    if cls is Pow:
        return pow_(*kids)
    if cls is Call:
        return Call(e.fn, kids[0])
    if cls is Opaque:
        return Opaque(e.fn, tuple(kids))
    if cls is Deriv:
        return Deriv(Opaque(e.target.fn, tuple(kids)), e.slots)
    return e


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of symbols; replacements are not re-visited."""
    if not mapping:
        return e

    def walk(n: Expr) -> Expr:
        if n.__class__ is Sym:
            return mapping.get(n.name, n)
        kids = children(n)
        return rebuild(n, [walk(k) for k in kids]) if kids else n

    return walk(e)


def free_symbols(e: Expr) -> frozenset[str]:
    """The names of the symbols in ``e``; a shared subtree is walked once."""
    out: set[str] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if n.__class__ is Sym:
            out.add(n.name)
        elif id(n) not in seen:
            seen.add(id(n))
            stack.extend(children(n))
    return frozenset(out)


# ---------------------------------------------------------------------------
# numeric evaluation

class OpaqueBinding:
    """Numeric evaluator for an opaque symbol and its formal derivatives,
    from a closed-form body over ``params``.  The compiled derivative body
    of each slot tuple is bound to ``inner`` (the profiles the body itself
    applies) on its first use and kept; ``fn`` is the slot tuple ().  Each
    (body, slots) is differentiated and compiled once per process, however
    many bindings share the body.
    """

    def __init__(self, params: Sequence[str], body: Expr,
                 inner: Mapping[str, "OpaqueBinding"] | None = None):
        self.params = tuple(params)
        self.body = body
        self.inner = dict(inner or {})
        self._derivs: dict[tuple[int, ...], Callable[..., float]] = {}

    @property
    def fn(self) -> Callable[..., float]:
        return self.deriv(())

    def deriv(self, slots: tuple[int, ...]) -> Callable[..., float]:
        slots = tuple(sorted(slots))
        if slots in self._derivs:
            return self._derivs[slots]
        fn = _slot_template(self.body, self.params, slots)(self.inner)
        self._derivs[slots] = fn
        return fn


@lru_cache(maxsize=1024)
def _slot_body(body: Expr, params: tuple[str, ...], slots: tuple[int, ...]) -> Expr:
    """The derivative of ``body`` in the ``slots`` parameters, each taken
    from its parent derivative."""
    if not slots:
        return body
    return _diff(_slot_body(body, params, slots[:-1]), params[slots[-1] - 1])


@lru_cache(maxsize=1024)
def _slot_template(body: Expr, params: tuple[str, ...], slots: tuple[int, ...]):
    return compile_template(_slot_body(body, params, slots), params)


_NONFINITE = "evaluation overflowed or produced NaN"


# ---------------------------------------------------------------------------
# compiled evaluation: the one way to turn an Expr into floats

def _guarded_exp(a: float) -> float:
    # the overflow guard at 700; an argument of -inf (exp would make it
    # 0.0) or NaN fails it too
    if not -math.inf < a < EXP_GUARD:
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
    """The EvalDomainError for what plain compiled arithmetic raised:
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
                      ) -> Callable[..., float | tuple[float, ...]]:
    """Compile to a Python callable taking floats in ``var_order`` order.

    A tuple of expressions compiles to one callable returning the tuple of
    their values, each emitted exactly as it would be on its own, except
    that an integer constant entry is the float of the same value.

    Domain errors and overflow raise EvalDomainError: ln, sqrt and
    non-integer powers are guarded, exp is guarded at 700, ``0.0 ** -n``,
    a power past the float range and sin/cos/tan of inf are mapped to
    EvalDomainError, and a non-finite result (any entry of a tuple) is
    rejected, so a result is never complex, inf or NaN.  Inside an
    expression only the nodes that would turn an intermediate inf into a
    finite value are checked (the argument of exp and atan, the base of a
    negative power), so ``1/(x*y)`` at x = y = 1e200 raises.  Sums add
    left to right with ``+``.
    """
    return compile_template(e, var_order)(bindings or {})


def compile_template(e: Expr | Sequence[Expr], var_order: Sequence[str],
                     ) -> Callable[[Mapping[str, OpaqueBinding]], Callable]:
    """``compile_evaluator`` with the opaque evaluators left open: compile
    once, then bind each set of bindings without compiling again.  The
    evaluators of the opaque applications are arguments of the compiled
    closure, so the emitted arithmetic is the same however they are bound.
    This is the one place where hessym compiles Python source.

    An expression nested too deeply for Python to compile (past some 200
    nested sums, products and calls) is an ExprError.
    """
    names = {v: f"_v{i}" for i, v in enumerate(var_order)}
    opaques: list[tuple[str, tuple[int, ...] | None]] = []

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
            opaques.append((target.fn, n.slots if isinstance(n, Deriv) else None))
            return f"_f{len(opaques) - 1}({','.join(emit(a) for a in target.args)})"
        raise ExprError(f"unknown node {n!r}")

    try:
        if isinstance(e, Expr):
            # x - x is 0 for a finite x and NaN, which is truthy, for inf and NaN
            body, nonfinite = emit(e), "_r - _r"
        else:
            # an integer constant entry as a float literal, so that a
            # matrix of entries is a tuple of floats; a bare tuple nests
            # no deeper than its entries
            body = "".join((f"{x.value.numerator}.0" if isinstance(x, Num) and
                            x.value.denominator == 1 else emit(x)) + "," for x in e) or "()"
            # a finite sum has finite terms; only an inf or NaN sum (or an
            # overflowing one) needs the entry-by-entry test
            nonfinite = "not _isfinite(_sum(_r)) and not _all(_map(_isfinite, _r))"
        src = (f"def _make({''.join(f'_f{i}, ' for i in range(len(opaques)))}):\n"
               f"    def _compiled({', '.join(names[v] for v in var_order)}):\n"
               f"        try:\n"
               f"            _r = {body}\n"
               f"        except (OverflowError, ZeroDivisionError, ValueError) as exc:\n"
               f"            raise _domain_error(exc) from exc\n"
               f"        if {nonfinite}:\n"
               f"            raise _EvalDomainError(_NONFINITE)\n"
               f"        return _r\n"
               f"    return _compiled\n")
        code = compile(src, "<expr>", "exec")
    except (SyntaxError, RecursionError) as exc:  # the parser's or the tree walk's depth
        raise ExprError("expression nested too deeply to compile") from exc
    ns: dict = {}
    exec(code, _COMPILED_GLOBALS, ns)  # noqa: S102 - generated from our own AST
    make = ns["_make"]

    def bind(bindings: Mapping[str, OpaqueBinding]) -> Callable:
        fns = []
        for fn, slots in opaques:
            if fn not in bindings:
                raise EvalError(f"unbound opaque symbol {fn!r}")
            fns.append(bindings[fn].fn if slots is None else bindings[fn].deriv(slots))
        return make(*fns)

    return bind


def compile_with_scale(e: Expr, var_order: Sequence[str],
                       bindings: Mapping[str, OpaqueBinding] | None = None,
                       ) -> Callable[..., tuple[float, float]]:
    """Compile ``e`` to a callable returning ``(value, scale)``, where the
    scale is the largest |value| of a subtree that is not a sum or is a
    term of one: massive cancellation shows up as |value| << scale.

    It compiles the tuple of ``e`` and its distinct subtrees, so every
    node is checked finite; the code grows with nodes times depth.  At
    finite variable values, with opaque evaluators that raise only
    EvalError, it is the recursive evaluator of the tests compiled: the
    same value and scale, bit for bit, or the same exception class.
    """
    counts = {e: e.__class__ is not Add}  # each distinct subtree: does it count
    stack = [e]
    while stack:
        n = stack.pop()
        for k in children(n):
            if k not in counts:
                stack.append(k)
            counts[k] = counts.get(k, False) or k.__class__ is not Add or n.__class__ is Add
    at = compile_evaluator(tuple(counts), var_order, bindings)
    in_scale = [i for i, c in enumerate(counts.values()) if c]

    def value_and_scale(*point: float) -> tuple[float, float]:
        r = at(*point)
        return r[0], max([abs(r[i]) for i in in_scale])

    return value_and_scale


def eval_numeric(e: Expr, env: Mapping[str, float],
                 bindings: Mapping[str, OpaqueBinding] | None = None) -> float:
    """Evaluate at a float assignment; raises EvalError family on problems.
    The value of ``eval_with_scale``."""
    return compile_with_scale(e, list(env), bindings)(*env.values())[0]


def eval_with_scale(e: Expr, env: Mapping[str, float],
                    bindings: Mapping[str, OpaqueBinding] | None = None) -> tuple[float, float]:
    """``compile_with_scale`` at one point; a loop over points compiles it
    once."""
    return compile_with_scale(e, list(env), bindings)(*env.values())
