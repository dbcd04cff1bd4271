"""Canonical rational-function form over kernel atoms, and the zero test.

An expression is flattened to a pair of sparse polynomials (numerator,
denominator) whose generators are the variables plus *kernel atoms*:
every elementary-function application, opaque application, formal
derivative and symbolic-exponent power, with arguments canonicalized
recursively.  One relation between atoms is applied: sqrt(P)^2 = P
when the argument's canonical form P is a polynomial, so numerator and
denominator are taken modulo it and keep each such sqrt atom to the
power 0 or 1; one left in a monomial denominator moves up, as in
1/sqrt(P) = sqrt(P)/P.  The sqrt of a non-polynomial argument stays an
opaque atom, and no other identity is applied (exp(x)^2 and exp(2*x)
are distinct atoms).

The denominator is then reduced against the numerator without a general
gcd: a single-term numerator shares only a monomial with the
denominator, and a denominator of total degree 1 is irreducible, so one
trial division decides whether it cancels.  Content and sign are
normalized.  Any other common factor stays in both, so the form is
canonical only up to non-linear common factors: two expressions equal
as rational functions in the atoms (modulo the sqrt relation) give
identical trees when those factors cancel, and may give different but
equal fractions when they do not.  That costs canonicity but never
correctness, since the zero test looks at the numerator alone.

Monomial order: generators sort by their printed text; monomials compare
as sorted (generator, exponent) tuples.  This gives the deterministic
term order the printer relies on ("y^2 + z^2", constants first).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .expr import (
    MINUS_ONE, ZERO, Add, Call, Deriv, EvalDomainError, Expr,
    ExprError, Mul, Num, Opaque, OpaqueBinding, Pow, Sym, add,
    children, compile_with_scale, free_symbols, mul, num, pow_, rebuild, to_text,
)

__all__ = [
    "normalize", "print_canonical", "is_zero", "as_polynomial", "as_rational",
    "ProvedZero", "NumericallyZero", "NonZero", "Unproved", "Verdict", "SymmetryCheck",
    "worst_check", "NormalizeError", "DEFAULT_SEED", "sample_point",
    "clear_canonical_table", "uniform", "signed", "integer", "choice", "subset",
    "valid_sample",
]

Monomial = tuple[tuple[str, int], ...]
# a coefficient is an int while the arithmetic that made it stayed in the
# integers, else a Fraction (an integral Fraction is not turned back)
Poly = dict[Monomial, int | Fraction]

_ONE_M: Monomial = ()


class NormalizeError(ExprError):
    """Structural failure during canonicalization (e.g. division by zero)."""


# ---------------------------------------------------------------------------
# sparse polynomial arithmetic

def _pconst(c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {_ONE_M: c.numerator if c.denominator == 1 else c}


_PONE: Poly = {_ONE_M: 1}


def _pgen(key: str) -> Poly:
    return {((key, 1),): 1}


def _quo(c: int | Fraction, d: int | Fraction) -> int | Fraction:
    """c/d exactly: an int when both are ints and d divides c.  (``/`` on
    two ints would make a float.)"""
    if c.__class__ is int and d.__class__ is int:
        q, r = divmod(c, d)
        if not r:
            return q
        return Fraction(c, d)
    return c / d


def _pdivc(a: Poly, c: int | Fraction) -> Poly:
    """a divided by a nonzero constant."""
    return {m: _quo(v, c) for m, v in a.items()}

def _padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials, by merging their sorted generators."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] == b[0]:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
        elif a[0] < b[0]:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            c = c1 * c2
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ppow(a: Poly, n: int) -> Poly:
    out = dict(_PONE)
    base = a
    while n:
        if n & 1:
            out = _pmul(out, base)
        base = _pmul(base, base) if n > 1 else base
        n >>= 1
    return out


def _content_and_sign(p: Poly) -> Fraction:
    """Positive scale s with p/s integer, coprime; sign fixed by the leading
    (largest-monomial) coefficient being positive."""
    g = 0
    l = 1
    for c in p.values():
        g = math.gcd(g, abs(c.numerator))
        l = l * c.denominator // math.gcd(l, c.denominator)
    scale = Fraction(g, l)
    lead = p[max(p)]
    return scale if lead > 0 else -scale


def _poly_div(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None if b does not divide a.

    Divides over exponent vectors of the sorted generators of a and b, in
    plain lex order, which is multiplicative; the canonical display order
    is not."""
    if not b:
        raise NormalizeError("polynomial division by zero")
    if not a:
        return {}
    if len(b) == 1 and _ONE_M in b:
        return _pdivc(a, b[_ONE_M])
    gens = sorted({g for p in (a, b) for m in p for g, _ in m})
    gi = {g: i for i, g in enumerate(gens)}

    def vec(m: Monomial) -> tuple[int, ...]:
        v = [0] * len(gens)
        for g, k in m:
            v[gi[g]] = k
        return tuple(v)

    r = {vec(m): c for m, c in a.items()}
    bv = {vec(m): c for m, c in b.items()}
    bl = max(bv)
    blc = bv[bl]
    # if b divides a, each generator's degree in a/b is its degree in a
    # minus its degree in b; a quotient term past that bound ends the search
    room = [max(v[i] for v in r) - max(v[i] for v in bv) for i in range(len(gens))]
    if any(x < 0 for x in room):
        return None
    q = {}
    # leading-term cancellation; divisibility fails as soon as lt(r) is not
    # a multiple of lt(b)
    while r:
        rl = max(r)
        qv = tuple(x - y for x, y in zip(rl, bl))
        if any(x < 0 or x > m for x, m in zip(qv, room)):
            return None
        qc = q[qv] = _quo(r[rl], blc)
        for mv, c in bv.items():
            m = tuple(x + y for x, y in zip(qv, mv))
            s = r.get(m, 0) - qc * c
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return {tuple((gens[i], k) for i, k in enumerate(v) if k): c for v, c in q.items()}


# ---------------------------------------------------------------------------
# fractions of polynomials

Frac = tuple[Poly, Poly]


def _flush(f: Frac) -> Frac:
    n, d = f
    if len(d) == 1 and _ONE_M in d and d[_ONE_M] != 1:
        return _pdivc(n, d[_ONE_M]), dict(_PONE)
    return f


def _fadd(f1: Frac, f2: Frac) -> Frac:
    n1, d1 = f1
    n2, d2 = f2
    if not n1:
        return f2
    if not n2:
        return f1
    if d1 == d2:
        return _padd(n1, n2), d1
    q = _poly_div(d1, d2)
    if q is not None:
        return _padd(n1, _pmul(n2, q)), d1
    q = _poly_div(d2, d1)
    if q is not None:
        return _padd(_pmul(n1, q), n2), d2
    return _padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2)


def _fmul(f1: Frac, f2: Frac) -> Frac:
    n1, d1 = f1
    n2, d2 = f2
    if n1 == d2:
        return n2, d1
    if n2 == d1:
        return n1, d2
    return _flush((_pmul(n1, n2), _pmul(d1, d2)))


def _finv(f: Frac) -> Frac:
    n, d = f
    if not n:
        raise NormalizeError("division by an expression that is identically zero")
    return _flush((d, n))


def _fpow(f: Frac, n: int) -> Frac:
    if n < 0:
        f = _finv(f)
        n = -n
    return _flush((_ppow(f[0], n), _ppow(f[1], n)))


# ---------------------------------------------------------------------------
# expression -> fraction

def _is_int_num(e: Expr) -> bool:
    return isinstance(e, Num) and e.value.denominator == 1


def _to_frac(e: Expr, reg: dict[str, Expr]) -> Frac:
    if isinstance(e, Num):
        return _pconst(e.value), dict(_PONE)
    if isinstance(e, Sym):
        reg.setdefault(e.name, e)
        return _pgen(e.name), dict(_PONE)
    if isinstance(e, Add):
        acc = _to_frac(e.terms[0], reg)
        for t in e.terms[1:]:
            acc = _fadd(acc, _to_frac(t, reg))
        return acc
    if isinstance(e, Mul):
        acc = _to_frac(e.factors[0], reg)
        for f in e.factors[1:]:
            acc = _fmul(acc, _to_frac(f, reg))
        return acc
    if isinstance(e, Pow):
        if _is_int_num(e.exponent):
            return _fpow(_to_frac(e.base, reg), int(e.exponent.value))  # type: ignore[union-attr]
        node = pow_(normalize(e.base), normalize(e.exponent))
        if not isinstance(node, Pow) or _is_int_num(node.exponent):
            return _to_frac(node, reg)  # folding produced a structural power
        # split an integer summand out of a symbolic exponent so that
        # b^(a - 4) and b^(a - 5) share the atom b^a and stay comparable
        if isinstance(node.exponent, Add):
            const = next((t for t in node.exponent.terms if _is_int_num(t)), None)
            if const is not None:
                rest = add(*[t for t in node.exponent.terms if t is not const])
                body = pow_(node.base, rest)
                head = _fpow(_to_frac(node.base, reg), int(const.value))  # type: ignore[union-attr]
                part = _atom(body, reg) if isinstance(body, Pow) else _to_frac(body, reg)
                return _fmul(part, head)
        return _atom(node, reg)
    if isinstance(e, (Call, Opaque, Deriv)):
        return _atom(rebuild(e, [normalize(a) for a in children(e)]), reg)
    raise ExprError(f"unknown node {e!r}")


def _atom(node: Expr, reg: dict[str, Expr]) -> Frac:
    key = to_text(node)
    reg.setdefault(key, node)
    return _pgen(key), dict(_PONE)


# ---------------------------------------------------------------------------
# reduction

def _sympy_cancel(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """The name that perfbench/tracer.py wraps to count sympy gcd calls.
    hessym makes none, and nothing calls this; the sympy gcd that the
    tests hold ``_cancel`` against lives in the tests."""
    raise NotImplementedError("hessym computes no gcd through sympy")


def _mono_gcd(monos: Sequence[Monomial]) -> Monomial:
    """Greatest common monomial divisor."""
    g = dict(monos[0])
    for m in monos[1:]:
        if not g:
            break
        md = dict(m)
        g = {v: min(k, md[v]) for v, k in g.items() if v in md}
    return tuple(sorted(g.items()))


def _mono_div(m: Monomial, g: Monomial) -> Monomial:
    gd = dict(g)
    return tuple((v, k - gd.get(v, 0)) for v, k in m if k != gd.get(v, 0))


def _mono_cancel(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Divide n and d by the largest monomial that divides all their terms."""
    g = _mono_gcd([*d, *n])
    if not g:
        return n, d
    return ({_mono_div(m, g): c for m, c in n.items()},
            {_mono_div(m, g): c for m, c in d.items()})


def _cancel(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Divide n and d (d not a monomial) by their gcd, up to a constant.

    Two exact rules avoid a general gcd: the divisors of a single term are
    monomials, so its gcd with d is a monomial gcd; and a polynomial of
    total degree 1 is irreducible, so its gcd with n is d or 1, which one
    trial division decides.  Anything else is returned unreduced: a
    non-linear common factor stays in both n and d.
    """
    if len(n) == 1:
        return _mono_cancel(n, d)
    if max(sum(k for _, k in m) for m in d) == 1:
        q = _poly_div(n, d)
        return (n, d) if q is None else (q, dict(_PONE))
    return n, d


def _sqrt_argument(node: Expr, reg: dict[str, Expr]) -> Poly | None:
    """P when ``node`` is sqrt(P) with P a polynomial canonical form, else None."""
    if node.__class__ is Call and node.fn == "sqrt":
        n, d = _to_frac(node.arg, reg)
        if d == _PONE:
            return n
    return None


def _fold_sqrt(p: Poly, reg: dict[str, Expr]) -> Poly:
    """p modulo sqrt(P)^2 = P for every sqrt atom of reg whose argument
    has a polynomial canonical form P: the atom's exponent e becomes
    e mod 2, and its term is multiplied by P^(e div 2).

    P may hold sqrt atoms of its own, so a term that gains P is folded
    again; P never holds the atom it came from, so this ends.  The
    leading terms sqrt_i^2 are pairwise coprime, so the reduced form is
    unique (Buchberger's first criterion).  The sqrt of a non-polynomial
    argument, such as sqrt(1/x), stays an opaque atom.
    """
    if not any(node.__class__ is Call and node.fn == "sqrt" for node in reg.values()):
        return p
    args: dict[str, Poly | None] = {}

    def arg(g: str) -> Poly | None:
        if g not in args:
            args[g] = _sqrt_argument(reg[g], reg)
        return args[g]

    out: Poly = {}
    todo = list(p.items())
    while todo:
        m, c = todo.pop()
        for i, (g, k) in enumerate(m):
            if k > 1 and (root := arg(g)) is not None:
                rest = m[:i] + (((g, 1),) if k % 2 else ()) + m[i + 1:]
                todo.extend(_pmul({rest: c}, _ppow(root, k // 2)).items())
                break
        else:
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _reduce(n: Poly, d: Poly) -> Frac:
    if not n:
        return {}, dict(_PONE)
    if len(d) == 1 and _ONE_M in d:
        c = d[_ONE_M]
        return (n if c == 1 else _pdivc(n, c)), dict(_PONE)
    if len(d) == 1:
        n, d = _mono_cancel(n, d)
        [(dm, dc)] = d.items()
        return _pdivc(n, dc), ({dm: 1} if dm else dict(_PONE))
    n, d = _cancel(n, d)
    if len(d) == 1:
        return _reduce(n, d)  # d divided n
    scale = _content_and_sign(d)
    return _pdivc(n, scale), _pdivc(d, scale)


# ---------------------------------------------------------------------------
# fraction -> expression

def _poly_to_expr(p: Poly, reg: Mapping[str, Expr]) -> Expr:
    if not p:
        return ZERO
    terms = []
    for m in sorted(p):
        factors = [pow_(reg[g], num(k)) for g, k in m]
        terms.append(mul(num(p[m]), *factors))
    return add(*terms)


def _frac_to_expr(f: Frac, reg: Mapping[str, Expr]) -> Expr:
    n, d = f
    ne = _poly_to_expr(n, reg)
    if len(d) == 1 and _ONE_M in d and d[_ONE_M] == 1:
        return ne
    if len(d) == 1:
        [(dm, dc)] = d.items()
        assert dc == 1, "reduced monomial denominators have unit coefficient"
        return mul(ne, *[pow_(reg[g], num(-k)) for g, k in dm])
    return mul(ne, pow_(_poly_to_expr(d, reg), MINUS_ONE))


# ---------------------------------------------------------------------------
# public API

# expression -> canonical form, for the expressions normalized so far in
# this process.  normalize is a pure function of an immutable tree, so an
# entry never goes stale.  Each canonical form is stored as its own, so
# renormalizing one is a lookup and equal forms are one object; that second
# entry per form is why this is a table and not functools.lru_cache.
_CANONICAL: dict[Expr, Expr] = {}
_CANONICAL_MAX = 4096  # entries; the table starts over when it is full


def clear_canonical_table() -> None:
    """Forget the memoized canonical forms (after patching the kernel's
    internals, whose old answers the table would otherwise keep serving)."""
    _CANONICAL.clear()


def normalize(e: Expr) -> Expr:
    """Canonical form: expanded numerator over reduced denominator, both
    modulo sqrt(P)^2 = P for each sqrt atom of a polynomial P.

    Idempotent: ``normalize(normalize(e))`` is ``normalize(e)`` itself.
    Equal rational functions in the kernel atoms normalize to structurally
    identical trees up to non-linear common factors: only monomials and
    denominators of total degree 1 are cancelled, so two equal fractions
    that share another factor need not be identical.  A zero is still
    exactly ``ZERO``, since it reads the numerator alone.
    """
    c = _CANONICAL.get(e)
    if c is None:
        try:
            n, d, reg = as_rational(e)
            c = _frac_to_expr((n, d), reg)
        except RecursionError:  # a tree walk deeper than Python's stack
            raise NormalizeError("expression nested too deeply to canonicalize") from None
        if len(_CANONICAL) >= _CANONICAL_MAX:
            _CANONICAL.clear()
        c = _CANONICAL.setdefault(c, c)
        _CANONICAL[e] = c
    return c


def print_canonical(e: Expr) -> str:
    """Deterministic text of the canonical form; parse() inverts it."""
    return to_text(normalize(e))


def as_polynomial(e: Expr) -> tuple[Poly, dict[str, Expr]]:
    """Canonical polynomial form; raises if a nontrivial denominator remains."""
    n, d, reg = as_rational(e)
    if len(d) != 1 or _ONE_M not in d or d[_ONE_M] != 1:
        raise NormalizeError(f"not a polynomial: {to_text(e)}")
    return n, reg


def as_rational(e: Expr) -> tuple[Poly, Poly, dict[str, Expr]]:
    """Reduced numerator and denominator polynomials over the atom registry,
    each taken modulo sqrt(P)^2 = P (``_fold_sqrt``) before the reduction."""
    reg: dict[str, Expr] = {}
    n, d = _to_frac(e, reg)
    d = _fold_sqrt(d, reg)
    # 1/sqrt(P) = sqrt(P)/P: the sqrt atoms of a monomial denominator, odd
    # after folding, move to the numerator.  P holds only atoms nested
    # inside sqrt(P), so moving the ones P brings along ends
    while len(d) == 1:
        [m] = d
        up = tuple((g, 1) for g, k in m if k % 2 and _sqrt_argument(reg[g], reg) is not None)
        if not up:
            break
        n, d = _pmul(n, {up: 1}), _fold_sqrt(_pmul(d, {up: 1}), reg)
    if not d:
        raise NormalizeError("division by an expression that is identically zero")
    n, d = _reduce(_fold_sqrt(n, reg), d)
    return n, d, reg


# ---------------------------------------------------------------------------
# sampling.  Every draw is a call of Random.random(), the one method besides
# seed() whose stream Python keeps stable for a seed across versions.

DEFAULT_SEED = 20240229


def uniform(rng: random.Random, lo: float, hi: float) -> float:
    """A float in [lo, hi), the draw of ``Random.uniform``."""
    return lo + (hi - lo) * rng.random()


def signed(rng: random.Random, lo: float, hi: float) -> float:
    """A magnitude uniform in [lo, hi), then a random sign."""
    mag = uniform(rng, lo, hi)
    return mag if rng.random() < 0.5 else -mag


def integer(rng: random.Random, lo: int, hi: int) -> int:
    """An integer in [lo, hi], both ends included."""
    return lo + int((hi - lo + 1) * rng.random())


def choice(rng: random.Random, seq: Sequence):
    """One element of ``seq``."""
    return seq[int(len(seq) * rng.random())]


def subset(rng: random.Random, seq: Sequence, k: int) -> list:
    """``k`` distinct elements of ``seq`` in random order: the first ``k``
    steps of a Fisher-Yates shuffle."""
    pool = list(seq)
    for i in range(k):
        j = integer(rng, i, len(pool) - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def sample_point(names: Sequence[str], rng: random.Random) -> tuple[float, ...]:
    """One value for each of ``names``, in their order: magnitudes uniform
    in [0.1, 2] with random sign, keeping samples away from zero."""
    return tuple([signed(rng, 0.1, 2.0) for _ in names])


_MAX_ATTEMPTS = 100  # draws of one point before sampling gives up


def valid_sample(draw: Callable[[], object], at: Callable[[object], object]) -> tuple:
    """``(point, at(point))`` for the first point from ``draw()`` where
    ``at`` raises no EvalDomainError: the one redraw rule of the sampled
    checks.  EvalDomainError after ``_MAX_ATTEMPTS`` draws."""
    for _ in range(_MAX_ATTEMPTS):
        point = draw()
        try:
            return point, at(point)
        except EvalDomainError:
            pass
    raise EvalDomainError(f"could not draw a valid sample point in {_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# verdicts and the zero test

class ProvedZero(NamedTuple):
    """Exact zero: the canonical form is the zero polynomial."""

    zero_like: bool = True

    def __str__(self) -> str:
        return "ProvedZero"


class NumericallyZero(NamedTuple):
    """Zero at every sampled point (atoms may hide an exact identity)."""

    max_residual: float
    n_points: int = 0
    zero_like: bool = True

    def __str__(self) -> str:
        return f"NumericallyZero(max_residual={self.max_residual:.3e})"


class NonZero(NamedTuple):
    witness: dict[str, float]   # a sampled point past the tolerance
    residual: float
    zero_like: bool = False

    def __str__(self) -> str:
        return f"NonZero(residual={self.residual:.3e})"


class Unproved(NamedTuple):
    """The canonical form could not prove zero, and nothing was sampled."""

    zero_like: bool = False

    def __str__(self) -> str:
        return "Unproved"


Verdict = ProvedZero | NumericallyZero | NonZero | Unproved


class SymmetryCheck(NamedTuple):
    """The worst residual of a sampled or replayed check over ``n_points``
    points against ``tol``; ``passed`` is the one rule by which a residual
    meets its tolerance.  ``jets.check_symmetry`` keeps its worst point on
    the solution variety as the witness."""

    max_residual: float
    n_points: int
    tol: float
    witness: dict[str, float] | None = None   # worst sampled point

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def worst_check(checks: Iterable[SymmetryCheck]) -> SymmetryCheck:
    """The checks as one: the worst residual with its witness, over all
    their points, against the tolerance they share."""
    checks = tuple(checks)
    tols = {c.tol for c in checks}
    if len(tols) != 1:
        raise ValueError(f"checks must share one tolerance, got {sorted(tols)}")
    worst = max(checks, key=lambda c: c.max_residual)
    return worst._replace(n_points=sum(c.n_points for c in checks))


def is_zero(e: Expr, mode: str = "auto", n: int = 50, tol: float = 1e-9,
            seed: int = DEFAULT_SEED,
            bindings: Mapping[str, OpaqueBinding] | None = None) -> Verdict:
    """Zero test by the canonical form; where it proves nothing, mode 'auto'
    samples and mode 'symbolic' answers ``Unproved``.

    Numeric comparisons are relative: a point passes when
    |value| <= tol * (1 + scale) with scale the largest intermediate
    magnitude, both from ``compile_with_scale`` of ``e``, compiled once
    per call.  Each of the ``n`` points is redrawn by ``valid_sample``
    where ``e`` has no value; ``n`` must be at least 1, so that no verdict
    rests on zero points.
    """
    if mode not in ("auto", "symbolic"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if normalize(e) == ZERO:
        return ProvedZero()
    if mode == "symbolic":
        return Unproved()
    names = sorted(free_symbols(e))
    at = compile_with_scale(e, names, bindings)
    draw = partial(sample_point, names, random.Random(seed))
    max_ratio = 0.0
    for _ in range(n):
        point, (v, s) = valid_sample(draw, lambda point: at(*point))
        ratio = abs(v) / (1.0 + s)
        if ratio > tol:
            return NonZero(witness=dict(zip(names, point)), residual=ratio)
        max_ratio = max(max_ratio, ratio)
    return NumericallyZero(max_residual=max_ratio, n_points=n)
