"""Canonical rational-function form over kernel atoms, and the zero test.

An expression is flattened to a pair of sparse polynomials (numerator,
denominator) whose generators are the variables plus *kernel atoms*:
every elementary-function application, opaque application, formal
derivative and symbolic-exponent power, with arguments canonicalized
recursively.  No identities between atoms are applied (exp(x)^2 and
exp(2*x) are distinct atoms); equality holds exactly for expressions
equal as rational functions in these atoms.

The denominator is reduced against the numerator (common polynomial
factors cancelled, content and sign normalized), which makes the form
canonical: two expressions equal as rational functions in the atoms
produce structurally identical trees.  The gcd needs no general
algorithm in the common cases: a single-term numerator shares only a
monomial with the denominator, and a denominator of total degree 1 is
irreducible, so one trial division decides whether it cancels.  The
remaining denominators go to a heuristic gcd over the integers whose
every answer is checked by exact division; where it gives up, the
fraction is left unreduced, which costs canonicity but never
correctness, since the zero test looks at the numerator alone.

Monomial order: generators sort by their printed text; monomials compare
as sorted (generator, exponent) tuples.  This gives the deterministic
term order the printer relies on ("y^2 + z^2", constants first).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    MINUS_ONE, ZERO, Add, Call, Deriv, EvalDomainError, Expr,
    ExprError, Mul, Num, Opaque, OpaqueBinding, Pow, Sym, add,
    eval_with_scale, free_symbols, mul, num, pow_, to_text,
)

__all__ = [
    "normalize", "print_canonical", "is_zero", "as_polynomial", "as_rational",
    "ProvedZero", "NumericallyZero", "NonZero", "Verdict", "NormalizeError",
    "DEFAULT_SEED", "sample_point",
]

DEFAULT_SEED = 20240229

Monomial = tuple[tuple[str, int], ...]
Poly = dict[Monomial, Fraction]
# the same polynomials over exponent vectors of fixed generators, with
# Fraction or (inside the gcd) int coefficients
Vec = tuple[int, ...]
VPoly = dict[Vec, Fraction] | dict[Vec, int]

_ONE_M: Monomial = ()
_F0 = Fraction(0)
_F1 = Fraction(1)


class NormalizeError(ExprError):
    """Structural failure during canonicalization (e.g. division by zero)."""


# ---------------------------------------------------------------------------
# sparse polynomial arithmetic

def _pconst(c: Fraction) -> Poly:
    return {} if c == 0 else {_ONE_M: c}


_PONE: Poly = {_ONE_M: _F1}


def _pgen(key: str) -> Poly:
    return {((key, 1),): _F1}


def _padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, _F0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pscale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {m: v * c for m, v in a.items()}


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for g, k in m2:
        d[g] = d.get(g, 0) + k
    return tuple(sorted(d.items()))


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, _F0) + c1 * c2
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


def _coding(*polys: Poly):
    """Maps between monomials and exponent vectors over the sorted
    generators of polys."""
    gens = sorted({g for p in polys for m in p for g, _ in m})
    gi = {g: i for i, g in enumerate(gens)}

    def vec(m: Monomial) -> Vec:
        v = [0] * len(gens)
        for g, k in m:
            v[gi[g]] = k
        return tuple(v)

    def unvec(v: Vec) -> Monomial:
        return tuple((gens[i], k) for i, k in enumerate(v) if k)

    return vec, unvec


# exact sparse division (single divisor).  Uses plain lex order on exponent
# vectors, which is multiplicative; the canonical display order is not.

def _vdiv(a: VPoly, b: VPoly, quo) -> VPoly | None:
    """Exact quotient a/b over exponent vectors, or None if b does not
    divide a.  quo(c, lc) divides a coefficient by the leading coefficient
    of b, returning None when that is not exact."""
    bl = max(b)
    blc = b[bl]
    # if b divides a, each generator's degree in a/b is its degree in a
    # minus its degree in b; a quotient term past that bound ends the search
    room = [max(v[i] for v in a) - max(v[i] for v in b) for i in range(len(bl))]
    if any(x < 0 for x in room):
        return None
    r = dict(a)
    q = {}
    # leading-term cancellation; divisibility fails as soon as lt(r) is not
    # a multiple of lt(b)
    while r:
        rl = max(r)
        qv = tuple(x - y for x, y in zip(rl, bl))
        if any(x < 0 or x > m for x, m in zip(qv, room)):
            return None
        qc = quo(r[rl], blc)
        if qc is None:
            return None
        q[qv] = qc
        for mv, c in b.items():
            m = tuple(x + y for x, y in zip(qv, mv))
            s = r.get(m, 0) - qc * c
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return q


def _poly_div(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None if b does not divide a."""
    if not b:
        raise NormalizeError("polynomial division by zero")
    if not a:
        return {}
    if len(b) == 1 and _ONE_M in b:
        return _pscale(a, _F1 / b[_ONE_M])
    vec, unvec = _coding(a, b)
    q = _vdiv({vec(m): c for m, c in a.items()}, {vec(m): c for m, c in b.items()},
              operator.truediv)
    return None if q is None else {unvec(v): c for v, c in q.items()}


# ---------------------------------------------------------------------------
# fractions of polynomials

Frac = tuple[Poly, Poly]


def _flush(f: Frac) -> Frac:
    n, d = f
    if len(d) == 1 and _ONE_M in d and d[_ONE_M] != 1:
        return _pscale(n, _F1 / d[_ONE_M]), dict(_PONE)
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
    if isinstance(e, Call):
        return _atom(Call(e.fn, normalize(e.arg)), reg)
    if isinstance(e, Opaque):
        return _atom(Opaque(e.fn, tuple(normalize(a) for a in e.args)), reg)
    if isinstance(e, Deriv):
        return _atom(
            Deriv(Opaque(e.target.fn, tuple(normalize(a) for a in e.target.args)), e.slots), reg
        )
    raise ExprError(f"unknown node {e!r}")


def _atom(node: Expr, reg: dict[str, Expr]) -> Frac:
    key = to_text(node)
    reg.setdefault(key, node)
    return _pgen(key), dict(_PONE)


# ---------------------------------------------------------------------------
# reduction

def _sympy_cancel(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """n and d divided by their gcd as sympy computes it.

    Nothing in hessym calls this: it is the oracle that the tests hold
    `_cancel` against, and the hook that perfbench's tracer wraps to
    count sympy gcd calls.  sympy is imported only here.
    """
    import sympy

    gens = sorted({g for m in list(n) + list(d) for g, _ in m})
    if not gens:
        return n, d
    syms = sympy.symbols(f"_g0:{len(gens)}")
    if len(gens) == 1:
        syms = (syms[0],) if not isinstance(syms, tuple) else syms
    gi = {g: i for i, g in enumerate(gens)}

    def to_sym(p: Poly):
        rep = {}
        for m, c in p.items():
            v = [0] * len(gens)
            for g, k in m:
                v[gi[g]] = k
            rep[tuple(v)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(rep, *syms, domain="QQ")

    def from_sym(p) -> Poly:
        out: Poly = {}
        for v, c in p.as_dict().items():
            m = tuple((gens[i], int(k)) for i, k in enumerate(v) if k)
            out[m] = Fraction(int(c.p), int(c.q))
        return out

    pn, pd = to_sym(n), to_sym(d)
    g = pn.gcd(pd)
    if g.total_degree() == 0:
        return n, d
    return from_sym(pn.exquo(g)), from_sym(pd.exquo(g))


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


# heuristic gcd (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989) over
# integer polynomials keyed by exponent vectors.  Each level evaluates the
# last generator at an integer xi, takes the gcd of the images one level
# down and lifts it back by xi-adic interpolation.  A lifted candidate is
# accepted only when exact division shows it divides both inputs.

_HEU_RETRIES = 6  # values of xi tried per level before giving up


def _zquo(a: int, b: int) -> int | None:
    q, r = divmod(a, b)
    return None if r else q


def _eval_last(p: dict[Vec, int], xi: int) -> dict[Vec, int]:
    """p with its last generator set to xi."""
    out: dict[Vec, int] = {}
    for m, c in p.items():
        key = m[:-1]
        s = out.get(key, 0) + c * xi ** m[-1]
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _interpolate(p: dict[Vec, int], xi: int) -> dict[Vec, int]:
    """The polynomial in one more generator whose coefficients are the
    symmetric base-xi digits of p's: its value at xi is p."""
    out: dict[Vec, int] = {}
    half = xi // 2
    for m, c in p.items():
        e = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[m + (e,)] = r
            c = (c - r) // xi
            e += 1
    return out


def _divides_both(f: dict[Vec, int], g: dict[Vec, int], h: dict[Vec, int] | None):
    """(h, f/h, g/h) when h divides both f and g exactly, else None."""
    if h is None:
        return None
    qf = _vdiv(f, h, _zquo)
    qg = None if qf is None else _vdiv(g, h, _zquo)
    return None if qg is None else (h, qf, qg)


def _heu_gcd(f: dict[Vec, int], g: dict[Vec, int]):
    """(h, f/h, g/h) with h = gcd(f, g) for nonzero integer polynomials,
    or None when the heuristic gives up."""
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    c = math.gcd(cf, cg)
    if not next(iter(f)):  # no generators left: integers
        return {(): c}, {(): f[()] // c}, {(): g[()] // c}
    f = {m: v // cf for m, v in f.items()}
    g = {m: v // cg for m, v in g.items()}
    nf = max(abs(v) for v in f.values())
    ng = max(abs(v) for v in g.values())
    # an exactly dividing candidate is the gcd when xi >= 2 min(|f|, |g|) + 2
    xi = 2 * min(nf, ng) + 29
    for _ in range(_HEU_RETRIES):
        ff, gg = _eval_last(f, xi), _eval_last(g, xi)
        if ff and gg:
            sub = _heu_gcd(ff, gg)
            if sub is None:
                return None
            h, hf, hg = sub
            lifted = _interpolate(h, xi)
            hc = math.gcd(*lifted.values())
            found = _divides_both(f, g, {m: v // hc for m, v in lifted.items()})
            # the lifted cofactors can succeed where the lifted gcd does not
            if found is None:
                found = _divides_both(f, g, _vdiv(f, _interpolate(hf, xi), _zquo))
            if found is None:
                found = _divides_both(f, g, _vdiv(g, _interpolate(hg, xi), _zquo))
            if found is not None:
                h, qf, qg = found
                return ({m: c * v for m, v in h.items()},
                        {m: cf // c * v for m, v in qf.items()},
                        {m: cg // c * v for m, v in qg.items()})
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _cancel(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Divide n and d (d not a monomial) by their gcd, up to a constant.

    Two exact rules avoid a general gcd: the divisors of a single term are
    monomials, so its gcd with d is a monomial gcd; and a polynomial of
    total degree 1 is irreducible, so its gcd with n is d or 1, which one
    trial division decides.  Anything else goes to the heuristic gcd on
    n and d scaled to integer coefficients; if it gives up, n/d is
    returned unreduced.
    """
    if len(n) == 1:
        return _mono_cancel(n, d)
    if max(sum(k for _, k in m) for m in d) == 1:
        q = _poly_div(n, d)
        return (n, d) if q is None else (q, dict(_PONE))
    vec, unvec = _coding(n, d)
    ln = math.lcm(*(c.denominator for c in n.values()))
    ld = math.lcm(*(c.denominator for c in d.values()))
    found = _heu_gcd({vec(m): c.numerator * (ln // c.denominator) for m, c in n.items()},
                     {vec(m): c.numerator * (ld // c.denominator) for m, c in d.items()})
    if found is None:
        return n, d
    _, qn, qd = found
    # n/d = (qn/ln)/(qd/ld)
    s = Fraction(ld, ln)
    return ({unvec(v): c * s for v, c in qn.items()},
            {unvec(v): Fraction(c) for v, c in qd.items()})


def _reduce(n: Poly, d: Poly) -> Frac:
    if not n:
        return {}, dict(_PONE)
    if len(d) == 1 and _ONE_M in d:
        c = d[_ONE_M]
        return (n if c == 1 else _pscale(n, _F1 / c)), dict(_PONE)
    if len(d) == 1:
        n, d = _mono_cancel(n, d)
        [(dm, dc)] = d.items()
        return _pscale(n, _F1 / dc), ({dm: _F1} if dm else dict(_PONE))
    n, d = _cancel(n, d)
    if len(d) == 1:
        return _reduce(n, d)  # gcd exposed a monomial denominator
    scale = _content_and_sign(d)
    return _pscale(n, _F1 / scale), _pscale(d, _F1 / scale)


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

def normalize(e: Expr) -> Expr:
    """Canonical form: expanded numerator over reduced denominator.

    Idempotent; equal rational functions in the kernel atoms normalize to
    structurally identical trees.
    """
    reg: dict[str, Expr] = {}
    n, d = _to_frac(e, reg)
    return _frac_to_expr(_reduce(n, d), reg)


def print_canonical(e: Expr) -> str:
    """Deterministic text of the canonical form; parse() inverts it."""
    return to_text(normalize(e))


def as_polynomial(e: Expr) -> tuple[Poly, dict[str, Expr]]:
    """Canonical polynomial form; raises if a nontrivial denominator remains."""
    reg: dict[str, Expr] = {}
    n, d = _reduce(*_to_frac(e, reg))
    if len(d) != 1 or _ONE_M not in d or d[_ONE_M] != 1:
        raise NormalizeError(f"not a polynomial: {to_text(e)}")
    return n, reg


def as_rational(e: Expr) -> tuple[Poly, Poly, dict[str, Expr]]:
    """Reduced numerator and denominator polynomials over the atom registry."""
    reg: dict[str, Expr] = {}
    n, d = _reduce(*_to_frac(e, reg))
    return n, d, reg


# ---------------------------------------------------------------------------
# zero testing

@dataclass(frozen=True)
class ProvedZero:
    """Exact zero: the canonical form is the zero polynomial."""

    zero_like: bool = True

    def __str__(self) -> str:
        return "ProvedZero"


@dataclass(frozen=True)
class NumericallyZero:
    """Zero at every sampled point (atoms may hide an exact identity)."""

    max_residual: float
    n_points: int = 0
    zero_like: bool = True

    def __str__(self) -> str:
        return f"NumericallyZero(max_residual={self.max_residual:.3e})"


@dataclass(frozen=True)
class NonZero:
    witness: dict[str, float] | None
    residual: float
    zero_like: bool = False

    def __str__(self) -> str:
        return f"NonZero(residual={self.residual:.3e})"


Verdict = ProvedZero | NumericallyZero | NonZero


def sample_point(names: Sequence[str], rng: np.random.Generator,
                 domains: Mapping[str, tuple[float, float]] | None = None) -> dict[str, float]:
    """Magnitudes uniform in [0.1, 2] with random sign, keeping samples away
    from zero; per-variable (lo, hi) overrides sample uniformly as given."""
    out = {}
    for v in names:
        if domains and v in domains:
            lo, hi = domains[v]
            out[v] = float(rng.uniform(lo, hi))
        else:
            mag = float(rng.uniform(0.1, 2.0))
            out[v] = mag if rng.uniform() < 0.5 else -mag
    return out


def is_zero(e: Expr, mode: str = "auto", n: int = 50, tol: float = 1e-9,
            seed: int = DEFAULT_SEED, rng: np.random.Generator | None = None,
            bindings: Mapping[str, OpaqueBinding] | None = None,
            domains: Mapping[str, tuple[float, float]] | None = None) -> Verdict:
    """Three-way zero test.

    mode 'symbolic': canonicalize and test the zero polynomial; 'numeric':
    sampled evaluation only; 'auto': symbolic first, numeric fallback.
    Numeric comparisons are relative: a point passes when
    |value| <= tol * (1 + scale) with scale the largest intermediate
    magnitude.  Domain errors trigger resampling, at most 10*n attempts.
    """
    if mode not in ("auto", "symbolic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("auto", "symbolic"):
        if normalize(e) == ZERO:
            return ProvedZero()
        if mode == "symbolic":
            # not the zero rational function in the atoms; no numeric witness
            return NonZero(witness=None, residual=float("inf"))
    names = sorted(free_symbols(e))
    if rng is None:
        rng = np.random.default_rng(seed)
    max_ratio = 0.0
    done = 0
    attempts = 0
    while done < n:
        if attempts >= 10 * n:
            raise EvalDomainError(
                f"could not find {n} valid sample points in {attempts} attempts")
        attempts += 1
        env = sample_point(names, rng, domains)
        try:
            v, s = eval_with_scale(e, env, bindings)
        except EvalDomainError:
            continue
        ratio = abs(v) / (1.0 + s)
        if ratio > tol:
            return NonZero(witness=env, residual=ratio)
        max_ratio = max(max_ratio, ratio)
        done += 1
    return NumericallyZero(max_residual=max_ratio, n_points=done)
