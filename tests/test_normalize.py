"""Canonical forms and the three-way zero test."""

import builtins
import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hessym
from hessym.expr import ExprError, OpaqueBinding, call, sub, sym
from hessym.normalize import (
    NonZero, NormalizeError, NumericallyZero, ProvedZero, Unproved, as_polynomial,
    is_zero, normalize, print_canonical,
)
from hessym.parse import parse

import _reference
from _gen import random_expr

# the module, not the function that the package re-exports under its name
nz = importlib.import_module("hessym.normalize")


@pytest.fixture
def cleared_table():
    """An empty canonical-form table for the test, emptied again after it:
    a test that patches the kernel's internals is not served forms made
    without the patch, and leaves none made with it."""
    nz.clear_canonical_table()
    yield
    nz.clear_canonical_table()


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
        # kernel-atom policy: sqrt(P)^2 = P is the one identity applied
        assert normalize(parse("exp(x)^2")) != normalize(parse("exp(2*x)"))
        assert normalize(parse("sin(x)^2 + cos(x)^2")) != normalize(parse("1"))
        assert normalize(parse("sqrt(x)^2")) == normalize(parse("x"))

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


class TestSqrtRelation:
    @pytest.mark.parametrize("text", ["sqrt(x)^2 - x", "sqrt(x^2 + 1)^2 - x^2 - 1",
                                      "1/sqrt(x) - sqrt(x)/x"])
    def test_square_is_its_argument(self, text):
        assert isinstance(is_zero(parse(text), mode="symbolic"), ProvedZero)

    def test_square_off_by_one_is_not_zero(self):
        assert not is_zero(parse("sqrt(x)^2 - x - 1"), mode="symbolic").zero_like

    def test_odd_power_keeps_one_atom(self):
        c = normalize(parse("sqrt(x)^3"))
        assert c == normalize(parse("x*sqrt(x)"))
        assert normalize(c) is c

    def test_nested_roots_fold_to_the_end(self):
        # sqrt(sqrt(x) + 1)^2 gives sqrt(x) + 1, and its product with
        # sqrt(x) a second square to fold
        assert print_canonical(parse("sqrt(sqrt(x) + 1)^2*sqrt(x)")) == "sqrt(x) + x"

    @pytest.mark.parametrize("text, other, canonical", [
        ("1/sqrt(x)", "sqrt(x)/x", "sqrt(x)/x"),
        ("1/sqrt(sqrt(x))", "sqrt(sqrt(x))/sqrt(x)", "sqrt(sqrt(x))*sqrt(x)/x")])
    def test_a_root_leaves_a_monomial_denominator(self, text, other, canonical):
        # 1/sqrt(P) = sqrt(P)/P, so both spellings give one tree
        assert normalize(parse(text)) == normalize(parse(other))
        assert print_canonical(parse(text)) == canonical

    def test_non_polynomial_argument_stays_opaque(self):
        assert print_canonical(parse("sqrt(1/x)^2")) == "sqrt(1/x)^2"

    def test_denominator_folding_to_zero_is_refused(self):
        with pytest.raises(NormalizeError, match="identically zero"):
            normalize(parse("1/(sqrt(x)^2 - x)"))


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


def _p(text):
    return as_polynomial(parse(text))[0]


def _scaled(f):
    """(n, d) divided by the content and sign of d: the pair up to the
    constant that a gcd leaves free."""
    n, d = f
    s = nz._content_and_sign(d)
    return nz._pdivc(n, s), nz._pdivc(d, s)


def _sympy_cancel(n, d):
    """n and d divided by their gcd as sympy computes it: the oracle that
    `_cancel` is held against.  sympy is a test-only dependency."""
    import sympy

    gens = sorted({g for m in list(n) + list(d) for g, _ in m})
    if not gens:
        return n, d
    syms = sympy.symbols(f"_g0:{len(gens)}")
    if len(gens) == 1:
        syms = (syms[0],) if not isinstance(syms, tuple) else syms
    gi = {g: i for i, g in enumerate(gens)}

    def to_sym(p):
        rep = {}
        for m, c in p.items():
            v = [0] * len(gens)
            for g, k in m:
                v[gi[g]] = k
            rep[tuple(v)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(rep, *syms, domain="QQ")

    def from_sym(p):
        out = {}
        for v, c in p.as_dict().items():
            m = tuple((gens[i], int(k)) for i, k in enumerate(v) if k)
            out[m] = Fraction(int(c.p), int(c.q))
        return out

    pn, pd = to_sym(n), to_sym(d)
    g = pn.gcd(pd)
    if g.total_degree() == 0:
        return n, d
    return from_sym(pn.exquo(g)), from_sym(pd.exquo(g))


class TestCancel:
    """The exact cancellation rules against sympy's gcd."""

    def _agree(self, n, d):
        got = nz._cancel(n, d)
        assert _scaled(got) == _scaled(_sympy_cancel(n, d))
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

    def test_give_up_leaves_fraction_unreduced(self):
        # a non-linear common factor is not cancelled: n/d stays as it is
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


class TestCanonicalTable:
    def test_renormalizing_returns_the_canonical_form_itself(self):
        rng = random.Random(7100)
        for _ in range(300):
            e = random_expr(rng, 4)
            c = normalize(e)
            assert normalize(c) is c
            assert normalize(e) is c

    def test_memoized_forms_equal_uncached_ones(self, cleared_table):
        # each reference is taken with the table cleared first; the
        # memoized forms come from one table kept across all the trees
        rng = random.Random(7200)
        trees = [random_expr(rng, 4) for _ in range(1000)]
        memoized = [normalize(e) for e in trees]
        for e, c in zip(trees, memoized):
            nz.clear_canonical_table()
            assert normalize(e) == c

    def test_the_table_is_bounded(self, monkeypatch, cleared_table):
        monkeypatch.setattr(nz, "_CANONICAL_MAX", 10)
        rng = random.Random(7300)
        for _ in range(50):
            normalize(random_expr(rng, 3))
            assert len(nz._CANONICAL) <= 10 + 1


def _int_poly(rng, terms, gens=GENS):
    out = {}
    while len(out) < terms:
        exps = {g: rng.randint(0, 2) for g in rng.sample(gens, 2)}
        out[tuple(sorted((g, k) for g, k in exps.items() if k))] = (
            rng.choice([-1, 1]) * rng.randint(1, 9))
    return out


def _exact(p):
    return all(type(c) in (int, Fraction) for c in p.values())


class TestIntegerCoefficients:
    def test_exact_quotients_stay_integers(self):
        rng = random.Random(7400)
        for _ in range(300):
            a, b = _int_poly(rng, rng.randint(1, 4)), _int_poly(rng, rng.randint(1, 3))
            q = nz._poly_div(nz._pmul(a, b), b)
            assert q == a and all(type(c) is int for c in q.values())

    def test_division_never_makes_a_float(self):
        rng = random.Random(7500)
        for _ in range(300):
            a, b = _int_poly(rng, rng.randint(1, 4)), _int_poly(rng, rng.randint(1, 3))
            for num_, den in ((a, b), (a, {(): rng.randint(2, 9)}),
                              (nz._pmul(a, {(): 3}), {(): 6})):
                q = nz._poly_div(num_, den)
                assert q is None or (_exact(q) and nz._pmul(q, den) == num_)

    def test_reduce_never_makes_a_float(self):
        rng = random.Random(7600)
        for _ in range(300):
            a, b, g = (_int_poly(rng, rng.randint(1, 3)) for _ in range(3))
            dens = (b, {(): rng.randint(2, 9)}, {(("a", 2),): 4},
                    nz._pmul(g, b) if len(b) > 1 else {(): -3})
            for d in dens:
                n = nz._pmul(g, a) if d is dens[3] else a
                rn, rd = nz._reduce(n, d)
                assert _exact(rn) and _exact(rd)
                assert nz._pmul(rn, d) == nz._pmul(n, rd)


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

    def test_unproved_symbolically_and_sampled_in_auto(self):
        # exp(t) and exp(-t) are independent atoms: the canonical form
        # cannot prove the identity, and only sampling can see it
        e = parse("exp(t)*exp(-t) - 1")
        v = is_zero(e, mode="symbolic")
        assert v == Unproved() and not v.zero_like and str(v) == "Unproved"
        assert isinstance(is_zero(e), NumericallyZero)

    def test_numeric_mode_is_refused(self):
        with pytest.raises(ValueError, match="unknown mode 'numeric'"):
            is_zero(parse("exp(x)*exp(-x) - 1"), mode="numeric")

    def test_resampling_on_domain_errors(self):
        # ln(x) only defined for x > 0; half the default box hits errors
        v = is_zero(parse("exp(ln(x)) - x"), n=20)
        assert isinstance(v, NumericallyZero) and v.n_points == 20

    def test_a_narrow_domain_is_redrawn_point_by_point(self):
        # defined where x >= 1.8, about one draw in 19: each of the 50
        # points has its own 100 draws, where 500 draws shared by all of
        # them would find about 26 points
        v = is_zero(parse("sqrt(x - 1.8)*(sin(y)^2 + cos(y)^2 - 1)"))
        assert isinstance(v, NumericallyZero) and v.n_points == 50

    def test_bindings(self):
        H = OpaqueBinding(("a", "b"), parse("a*b"))
        v = is_zero(parse("H(x, y) - x*y"), bindings={"H": H})
        assert isinstance(v, NumericallyZero)

    def test_seeded_determinism(self):
        a = is_zero(parse("x - y"), seed=7)
        b = is_zero(parse("x - y"), seed=7)
        assert a == b

    def test_one_compile_per_numeric_call(self, monkeypatch):
        # the expression compiles once, and its scaled body is sampled at
        # each of the 50 points
        filenames = []
        real_compile = builtins.compile

        def counting(source, filename, *args, **kwargs):
            filenames.append(filename)
            return real_compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counting)
        v = is_zero(parse("sin(x)^2 + cos(x)^2 - 1 + y - y"), n=50)
        assert isinstance(v, NumericallyZero) and v.n_points == 50
        assert filenames.count("<expr>") == 1

    def test_residual_is_the_reference_ratio(self):
        e = parse("exp(x)*y - y*exp(x) + x/y")
        v = is_zero(e)
        value, scale = _reference.eval_with_scale(e, v.witness)
        assert v.residual == abs(value) / (1.0 + scale)

    def test_scale_is_every_node_not_the_top_level_terms(self):
        # 10^12 enters the scale; measured against the top-level terms
        # alone, the rounding of sin^2 + cos^2 - 1 would read as a residual
        v = is_zero(parse("10^12*(sin(x)^2 + cos(x)^2 - 1)"))
        assert isinstance(v, NumericallyZero)

    @pytest.mark.parametrize("text", [
        "exp(10^12*(sin(x)^2 + cos(x)^2 - 1)) - 1",
        "sin(10^8*(sin(x)^2 + cos(x)^2)) - sin(10^8)",
    ])
    def test_scale_counts_the_nodes_inside_an_atom_argument(self, text):
        # the canonical numerator's terms are exp(...) and 1, or sin(...)
        # and sin(10^8): measured against them alone, the rounding inside
        # the argument would read as a residual of 6e-05 or 3e-09
        assert isinstance(is_zero(parse(text)), NumericallyZero)

    @pytest.mark.parametrize("mode", ["auto", "symbolic"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_verdict_from_zero_points(self, mode, n):
        with pytest.raises(ValueError, match="at least 1"):
            is_zero(parse("x - y"), mode=mode, n=n)

    def test_nesting_past_the_compiler_is_an_expr_error(self):
        # 300 nested calls: too deep to canonicalize or compile, so both
        # routes refuse the tree instead of walking it
        e = sym("x")
        for _ in range(300):
            e = call("sin", e)
        nz.clear_canonical_table()
        with pytest.raises(NormalizeError, match="nested too deeply to canonicalize"):
            normalize(e)
        with pytest.raises(ExprError, match="nested too deeply"):
            is_zero(e)
