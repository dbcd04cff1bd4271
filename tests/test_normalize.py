"""Canonical forms and the three-way zero test."""

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hessym
from hessym.expr import (
    ZERO, OpaqueBinding, add, mul, num, pow_, sub, sym, to_text,
)
from hessym.normalize import (
    NonZero, NormalizeError, NumericallyZero, ProvedZero, as_polynomial,
    is_zero, normalize, print_canonical,
)
from hessym.parse import parse

from _gen import random_expr

# the module, not the function that the package re-exports under its name
nz = importlib.import_module("hessym.normalize")


class TestNormalize:
    @pytest.mark.parametrize("a,b", [
        ("x*(x + y) - x*y", "x^2"),
        ("(y^2 + z^2)/(y^2 + z^2)", "1"),
        ("(x^2 - 1)/(x - 1)", "x + 1"),
        ("z*(z/(y^2 + z^2)) + y*(y/(y^2 + z^2))", "1"),
        ("1/x + 1/y", "(x + y)/(x*y)"),
        ("(2*x + 2*y)/(4*x)", "(x + y)/(2*x)"),
        ("exp(x + x)", "exp(2*x)"),
        ("x^2/x^5", "1/x^3"),
        ("(x*y^2*z)/(x^2*y)", "y*z/x"),
    ])
    def test_equal_rational_functions_normalize_identically(self, a, b):
        assert normalize(parse(a)) == normalize(parse(b))

    def test_atoms_not_rewritten(self):
        # kernel-atom policy: no elementary identities
        assert normalize(parse("exp(x)^2")) != normalize(parse("exp(2*x)"))
        assert normalize(parse("sin(x)^2 + cos(x)^2")) != normalize(parse("1"))
        assert normalize(parse("sqrt(x)^2")) != normalize(parse("x"))

    def test_atom_contents_canonicalized(self):
        assert normalize(parse("exp(x + x)")) == normalize(parse("exp(2*x)"))
        assert normalize(parse("H(x - x + y, z)")) == normalize(parse("H(y, z)"))

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotent(self, seed):
        rng = random.Random(500 + seed)
        for _ in range(50):
            e = random_expr(rng, 4)
            c = normalize(e)
            assert normalize(c) == c

    def test_denominator_sign_and_content(self):
        # canonical scaling: primitive denominator, positive leading coefficient
        a = normalize(parse("x/(-y - z)"))
        b = normalize(parse("-x/(y + z)"))
        assert a == b
        assert print_canonical(parse("(2*x + 4)/(2*y + 2)")) == "(2 + x)/(1 + y)"

    def test_division_by_zero_expression(self):
        with pytest.raises(NormalizeError):
            normalize(parse("1/(x - x)"))

    def test_deterministic_term_order(self):
        assert print_canonical(parse("z^2 + y^2")) == "y^2 + z^2"
        assert print_canonical(parse("x^2 + x")) == "x + x^2"
        assert print_canonical(parse("y*x + 1")) == "1 + x*y"

    def test_as_polynomial(self):
        p, reg = as_polynomial(parse("2*x*y - 3"))
        assert p == {(): -3, (("x", 1), ("y", 1)): 2}
        with pytest.raises(NormalizeError):
            as_polynomial(parse("1/(x + y)"))


GENS = ("a", "b", "c", "u_xx", "u_zz")


def _coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _monomial(rng, max_deg=2):
    exps = {g: rng.randint(0, max_deg) for g in rng.sample(GENS, 2)}
    return tuple(sorted((g, k) for g, k in exps.items() if k))


def _poly(rng, terms):
    out = {}
    while len(out) < terms:
        out[_monomial(rng)] = _coeff(rng)
    return out


def _linear(rng, offset):
    d = {((g, 1),): _coeff(rng) for g in rng.sample(GENS, rng.randint(1, 3))}
    if offset or len(d) == 1:
        d[()] = _coeff(rng)
    return d


# generators named as normalize names sqrt and exp atoms
ATOM_GENS = ("a", "x", "y", "sqrt(a^2 + b^2)", "exp(2*atan(x/z))")


def _atom_poly(rng, terms, max_deg=2):
    out = {}
    while len(out) < terms:
        exps = {g: rng.randint(1, max_deg) for g in rng.sample(ATOM_GENS, rng.randint(0, 2))}
        out[tuple(sorted(exps.items()))] = _coeff(rng)
    return out


def _shared_factor(rng, kind):
    """A non-linear polynomial to hide in both numerator and denominator."""
    if kind == "square":
        q = _atom_poly(rng, rng.randint(2, 3))
        return nz._pmul(q, q)
    if kind == "quadratics":
        return nz._pmul(_atom_poly(rng, rng.randint(2, 3)), _atom_poly(rng, rng.randint(2, 3)))
    return _atom_poly(rng, rng.randint(2, 4), max_deg=3)


def _p(text):
    return as_polynomial(parse(text))[0]


def _scaled(f):
    """(n, d) divided by the content and sign of d: the pair up to the
    constant that a gcd leaves free."""
    n, d = f
    s = nz._content_and_sign(d)
    return nz._pscale(n, 1 / s), nz._pscale(d, 1 / s)


class TestCancel:
    """The exact cancellation rules against sympy's gcd."""

    def _agree(self, n, d):
        got = nz._cancel(n, d)
        assert _scaled(got) == _scaled(nz._sympy_cancel(n, d))
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_denominator_divisible(self, seed):
        rng = random.Random(9100 + seed)
        for _ in range(20):
            d = _linear(rng, offset=rng.random() < 0.5)
            n = nz._pmul(d, _poly(rng, rng.randint(1, 4)))
            _, one = self._agree(n, d)
            assert one == {(): 1}

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_denominator_not_divisible(self, seed):
        rng = random.Random(9200 + seed)
        for _ in range(20):
            d = _linear(rng, offset=rng.random() < 0.5)
            n = nz._padd(nz._pmul(d, _poly(rng, 2)), _poly(rng, rng.randint(2, 3)))
            if len(n) < 2:
                continue
            self._agree(n, d)

    def test_negative_leading_coefficient(self):
        d = {(("a", 1),): Fraction(-2), (("b", 1),): Fraction(3)}
        n = nz._pmul(d, {(("c", 2),): Fraction(5), (): Fraction(-1)})
        assert self._agree(n, d)[1] == {(): 1}
        self._agree({(("c", 1),): Fraction(1), (): Fraction(1)}, d)

    @pytest.mark.parametrize("seed", range(6))
    def test_monomial_numerator(self, seed):
        rng = random.Random(9300 + seed)
        for _ in range(20):
            content = _monomial(rng)
            d = nz._pmul({content: Fraction(1)}, _poly(rng, rng.randint(2, 4)))
            if len(d) < 2:
                continue
            self._agree({_monomial(rng, 3): _coeff(rng)}, d)

    def test_constant_numerator_keeps_denominator(self):
        d = {(("a", 2),): Fraction(1), (("b", 2),): Fraction(1)}
        assert self._agree({(): Fraction(3)}, d) == ({(): Fraction(3)}, d)

    @pytest.mark.parametrize("kind", ["square", "quadratics", "cubic"])
    @pytest.mark.parametrize("seed", range(4))
    def test_nonlinear_shared_factor(self, kind, seed):
        rng = random.Random(9400 + 10 * seed + len(kind))
        for _ in range(15):
            common = _shared_factor(rng, kind)
            n = nz._pmul(common, _atom_poly(rng, rng.randint(1, 3)))
            d = nz._pmul(common, _atom_poly(rng, rng.randint(2, 3)))
            if len(n) < 2 or len(d) < 2:
                continue
            rn, rd = self._agree(n, d)
            assert nz._pmul(rn, d) == nz._pmul(n, rd)

    @pytest.mark.parametrize("r,w,q,cof", [
        # A7: (a x + g y)^2 + r^2 z^2 with r = sqrt(a^2 + g^2)
        ("sqrt(a3^2 + g3^2)", "z", "(a3*x + g3*y)^2 + sqrt(a3^2 + g3^2)^2*z^2",
         "1 + 2*a3*g3*x*y - z^2"),
        # A9b: (a z + b y)^2 + r^2 x^2 with r = sqrt(a^2 + b^2)
        ("sqrt(a5^2 + b1^2)", "x", "(a5*z + b1*y)^2 + sqrt(a5^2 + b1^2)^2*x^2",
         "3*b1*y*z + x^2 - a5"),
    ])
    def test_sqrt_atom_denominators(self, r, w, q, cof):
        # residual shapes of the two classification rows with a
        # sqrt(a^2 + g^2) atom: a multiple of q over q^2 r^5 w^3
        q, cof = _p(q), _p(cof)
        rest = nz._pmul(q, _p(f"{r}^5*{w}^3"))
        got = self._agree(nz._pmul(q, cof), nz._pmul(q, rest))
        assert _scaled(got) == _scaled((cof, rest))

    def test_give_up_leaves_fraction_unreduced(self, monkeypatch):
        monkeypatch.setattr(nz, "_HEU_RETRIES", 0)
        q = _p("x^2 + y^2")
        n, d = nz._pmul(q, _p("x + 1")), nz._pmul(q, _p("y^2 + 2"))
        assert nz._cancel(n, d) == (n, d)
        rn, rd = nz._reduce(n, d)
        assert len(rd) == len(d) and nz._pmul(rn, d) == nz._pmul(n, rd)
        e = parse("(x^3 + x*y^2 + x^2 + y^2)/(x^2*y^2 + y^4 + 2*x^2 + 2*y^2)")
        assert print_canonical(e) == ("(x*y^2 + x^2 + x^3 + y^2)"
                                      "/(2*x^2 + x^2*y^2 + 2*y^2 + y^4)")
        assert isinstance(is_zero(sub(e, parse("(x + 1)/(y^2 + 2)"))), ProvedZero)


def test_suites_with_coprime_denominators_never_import_sympy():
    # the determining residuals have the linear pivot u_xx + u_zz as
    # denominator; equivalence and invariants cancel only monomials
    src = str(Path(hessym.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import os, sys\n"
            "from hessym.cli import main\n"
            "for suite in ('determining', 'equivalence', 'invariants'):\n"
            "    assert main(['verify', suite, '--out', os.devnull]) == 0\n"
            "print('sympy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestRoundTrip:
    def test_thousand_random_trees(self):
        # parse(print_canonical(e)) == normalize(e)
        rng = random.Random(20240229)
        for _ in range(1000):
            e = random_expr(rng, 4)
            c = normalize(e)
            assert parse(print_canonical(e)) == c


class TestIsZero:
    def test_proved(self):
        v = is_zero(parse("x*(x + y) - x^2 - x*y"))
        assert isinstance(v, ProvedZero) and v.zero_like

    def test_numeric_identity(self):
        v = is_zero(parse("sin(x)^2 + cos(x)^2 - 1"))
        assert isinstance(v, NumericallyZero)
        assert v.max_residual < 1e-12

    def test_nonzero_witness(self):
        v = is_zero(parse("x - y"))
        assert isinstance(v, NonZero)
        assert v.witness is not None and "x" in v.witness
        assert v.residual > 1e-3

    def test_numeric_mode_skips_symbolic(self):
        v = is_zero(parse("exp(x)*exp(-x) - 1"), mode="numeric")
        assert isinstance(v, NumericallyZero)

    def test_resampling_on_domain_errors(self):
        # ln(x) only defined for x > 0; half the default box hits errors
        v = is_zero(parse("ln(x) - ln(x)"), mode="numeric", n=20)
        assert v.zero_like

    def test_bindings(self):
        H = OpaqueBinding.from_expr(("a", "b"), parse("a*b"))
        v = is_zero(parse("H(x, y) - x*y"), mode="numeric", bindings={"H": H})
        assert isinstance(v, NumericallyZero)

    def test_seeded_determinism(self):
        a = is_zero(parse("x - y"), seed=7)
        b = is_zero(parse("x - y"), seed=7)
        assert a == b
