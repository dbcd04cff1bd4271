"""Expression kernel: parsing, printing, differentiation, evaluation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hessym.expr import (
    ONE, ZERO, Deriv, EvalDomainError, EvalError, ExprError, Mul, Num,
    Opaque, OpaqueBinding, Pow, Sym, add, compile_evaluator, deriv, diff,
    div, eval_numeric, free_symbols, mul, neg, num, opaque, pow_, sub,
    substitute, substitute_opaque, sym, to_text,
)
from hessym.normalize import normalize, print_canonical
from hessym.parse import ParseError, parse

from _gen import random_expr


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("1 + 2", Num(Fraction(3))),
        ("2*3", Num(Fraction(6))),
        ("5/3", Num(Fraction(5, 3))),
        ("0.25", Num(Fraction(1, 4))),
        ("4/-2", Num(Fraction(-2))),
        ("x", Sym("x")),
        ("2 - 2", ZERO),
    ])
    def test_constant_folding(self, text, expected):
        assert parse(text) == expected
        # like terms combine in normalize, not in the constructors
        assert normalize(parse("x - x")) == ZERO

    def test_flattening(self):
        e = parse("x + (y + z)")
        assert isinstance(e, type(parse("a + b"))) and len(e.terms) == 3
        m = parse("x*(y*z)")
        assert isinstance(m, Mul) and len(m.factors) == 3

    def test_quotients_are_negative_powers(self):
        e = parse("x/y")
        assert e == Mul((Sym("x"), Pow(Sym("y"), Num(Fraction(-1)))))

    def test_unary_minus_and_power(self):
        assert parse("-x^2") == mul(num(-1), pow_(sym("x"), num(2)))
        assert parse("x^-2") == pow_(sym("x"), num(-2))

    def test_decimal_exact(self):
        assert parse("0.1") == Num(Fraction(1, 10))

    def test_calls_and_opaque(self):
        e = parse("exp(x) + H(y, z)")
        assert opaque("H", sym("y"), sym("z")) in e.terms

    def test_reserved_arity(self):
        with pytest.raises(ParseError):
            parse("exp(x, y)")

    def test_unknown_function_with_declared_set(self):
        parse("H(x)", opaque_names={"H"})
        with pytest.raises(ParseError, match="unknown function"):
            parse("G(x)", opaque_names={"H"})

    def test_jet_names_sorted(self):
        parse("u_xy + f_z + u_xxz")
        with pytest.raises(ParseError, match="sorted"):
            parse("u_yx")
        with pytest.raises(ParseError, match="sorted"):
            parse("f_zx")

    def test_deriv_suffix_round_trip(self):
        e = parse("H_12(y, z)")
        assert e == deriv(opaque("H", sym("y"), sym("z")), (1, 2))
        with pytest.raises(ParseError, match="sorted"):
            parse("H_21(y, z)")
        with pytest.raises(ParseError, match="out of range"):
            parse("H_3(y, z)")

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse("x + + y")
        assert e.value.pos == 4
        with pytest.raises(ParseError):
            parse("x + ?")
        with pytest.raises(ParseError, match="trailing"):
            parse("x y")


class TestPrint:
    @pytest.mark.parametrize("text,shown", [
        ("z^2 + y^2", "y^2 + z^2"),
        ("4/-2", "-2"),
        ("x/y/z", "x/y/z"),
        ("1/(y^2 + z^2)", "1/(y^2 + z^2)"),
        ("x*x", "x^2"),
    ])
    def test_canonical_examples(self, text, shown):
        assert print_canonical(parse(text)) == shown

    def test_round_trip_canonical(self):
        rng = random.Random(411)
        for _ in range(300):
            e = random_expr(rng, depth=4)
            c = normalize(e)
            assert parse(to_text(c)) == c


class TestDiff:
    def test_table(self):
        checks = {
            ("exp(2*x)", "x"): "2*exp(2*x)",
            ("ln(x)", "x"): "1/x",
            ("sin(x)", "x"): "cos(x)",
            ("cos(x)", "x"): "-sin(x)",
            ("atan(y/z)", "y"): "z/(y^2 + z^2)",
            ("atan(y/z)", "z"): "-y/(y^2 + z^2)",
            ("sqrt(x)", "x"): "1/2/sqrt(x)",
        }
        for (text, v), expected in checks.items():
            got = print_canonical(diff(parse(text), v))
            assert normalize(sub(parse(got), parse(expected))) == ZERO, (text, got)

    def test_symbolic_exponent_rule(self):
        # d/dx x^p = p*x^(p-1) for exponents not depending on x
        e = parse("x^(2*c - 4)")
        d = diff(e, "x")
        expected = parse("(2*c - 4)*x^(2*c - 5)")
        assert normalize(sub(d, expected)) == ZERO
        # exponent depending on the variable brings in ln
        d2 = diff(parse("x^x"), "x")
        assert "ln" in to_text(d2)

    def test_opaque_chain_rule(self):
        h = parse("H(y/x, z/x)")
        d = diff(h, "x")
        expected = parse("-H_1(y/x, z/x)*y/x^2 - H_2(y/x, z/x)*z/x^2")
        assert normalize(sub(d, expected)) == ZERO

    def test_formal_derivs_commute(self):
        h = parse("H(x*y, y + z)")
        a = diff(diff(h, "y"), "z")
        b = diff(diff(h, "z"), "y")
        assert normalize(sub(a, b)) == ZERO

    def test_deriv_slots_sorted(self):
        with pytest.raises(ExprError):
            Deriv(opaque("H", sym("x"), sym("y")), (2, 1))

    @pytest.mark.parametrize("seed", range(6))
    def test_linearity(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(40):
            a = random_expr(rng, 3)
            b = random_expr(rng, 3)
            v = rng.choice(["x", "y", "z"])
            lhs = diff(add(a, mul(num(3), b)), v)
            rhs = add(diff(a, v), mul(num(3), diff(b, v)))
            assert normalize(sub(lhs, rhs)) == ZERO

    @pytest.mark.parametrize("seed", range(6))
    def test_product_rule(self, seed):
        rng = random.Random(2000 + seed)
        for _ in range(25):
            a = random_expr(rng, 3)
            b = random_expr(rng, 3)
            v = rng.choice(["x", "y", "z"])
            lhs = diff(mul(a, b), v)
            rhs = add(mul(diff(a, v), b), mul(a, diff(b, v)))
            assert normalize(sub(lhs, rhs)) == ZERO

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(99)
        exprs = [
            "exp(2*x)*sin(y) + ln(x^2 + 1)",
            "sqrt(x^2 + y^2)/tan(y)",
            "atan(x/y) - cos(x)^3",
            "x^(5/2) + y/x",
        ]
        h = 1e-6
        for text in exprs:
            e = parse(text)
            for v in ("x", "y"):
                d = diff(e, v)
                for _ in range(5):
                    env = {n: float(rng.uniform(0.3, 1.4)) for n in ("x", "y")}
                    up = dict(env, **{v: env[v] + h})
                    dn = dict(env, **{v: env[v] - h})
                    fd = (eval_numeric(e, up) - eval_numeric(e, dn)) / (2 * h)
                    sv = eval_numeric(d, env)
                    assert abs(fd - sv) <= 1e-5 * (1 + abs(sv)), (text, v)


class TestSubstitute:
    def test_simultaneous(self):
        e = parse("x*y")
        s = substitute(e, {"x": sym("y"), "y": sym("x")})
        assert normalize(sub(s, parse("y*x"))) == ZERO
        # replacement results are not re-substituted
        e2 = substitute(parse("x"), {"x": parse("x + 1")})
        assert e2 == parse("x + 1")

    def test_homomorphism(self):
        rng = random.Random(31)
        m = {"x": parse("y + 1"), "y": parse("z^2")}
        for _ in range(60):
            a = random_expr(rng, 3)
            b = random_expr(rng, 3)
            lhs = substitute(mul(a, b), m)
            rhs = mul(substitute(a, m), substitute(b, m))
            assert normalize(sub(lhs, rhs)) == ZERO

    def test_opaque_instantiation(self):
        e = parse("H_1(x, y) + H(x, y)")
        out = substitute_opaque(e, {"H": (("a", "b"), parse("a^2*b"))})
        assert normalize(sub(out, parse("2*x*y + x^2*y"))) == ZERO

    def test_opaque_instantiation_mixed_slots(self):
        e = parse("H_12(x, y^2)")
        out = substitute_opaque(e, {"H": (("a", "b"), parse("a^2*b^3"))})
        assert normalize(sub(out, parse("6*x*y^4"))) == ZERO


class TestEval:
    def test_unbound(self):
        with pytest.raises(EvalError, match="unbound variable"):
            eval_numeric(parse("x + q"), {"x": 1.0})
        with pytest.raises(EvalError, match="unbound opaque"):
            eval_numeric(parse("H(x)"), {"x": 1.0})

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(parse("ln(x)"), {"x": -1.0})
        with pytest.raises(EvalDomainError):
            eval_numeric(parse("1/x"), {"x": 0.0})
        with pytest.raises(EvalDomainError):
            eval_numeric(parse("x^(1/2)"), {"x": -2.0})

    def test_binding_from_expr(self):
        H = OpaqueBinding.from_expr(("a", "b"), parse("sin(a) + exp(b/4)"))
        v = eval_numeric(parse("H_2(x, y)"), {"x": 0.3, "y": 0.8}, {"H": H})
        assert abs(v - 0.25 * math.exp(0.2)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_matches_recursive(self, seed):
        rng = random.Random(3000 + seed)
        nrng = np.random.default_rng(4000 + seed)
        H = OpaqueBinding.from_expr(("a", "b"), parse("a^2 + b^2 + 1"))
        names = ["x", "y", "z", "u"]
        for _ in range(30):
            e = random_expr(rng, 3)
            fn = compile_evaluator(e, names, {"H": H})
            for _ in range(3):
                env = {n: float(nrng.uniform(0.2, 1.3)) for n in names}
                try:
                    ref = eval_numeric(e, env, {"H": H})
                except EvalDomainError:
                    continue
                got = fn(*[env[n] for n in names])
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("text,x,y", [("x^(1/2) + ln(y)", -1.0, 2.0),
                                          ("x^(1/2) + ln(y)", 1.0, -2.0),
                                          ("sqrt(x)", -0.5, 2.0),
                                          ("ln(x)", 0.0, 2.0),
                                          ("x^(-1/2)", 0.0, 2.0),
                                          ("x^(3/2)", -4.0, 2.0),
                                          ("x^y", -2.0, 2.0),
                                          ("exp(x)", 800.0, 2.0),
                                          ("exp(x)", 705.0, 2.0),
                                          ("x*y", 1e200, 1e200),
                                          ("1/x", 0.0, 2.0),
                                          ("x^2", 1e200, 2.0),
                                          ("sin(x*y)", 1e200, 1e200),
                                          ("1/(x*y)", 1e200, 1e200),
                                          ("atan(x*y)", 1e200, 1e200),
                                          ("exp(-(x*y))", 1e200, 1e200)])
    def test_compiled_domain_errors_match_reference(self, text, x, y):
        # ln of a non-positive value, sqrt of a negative one, a negative
        # base under a non-integer power, exp past the guard at 700, 0^-1
        # and overflow raise EvalDomainError on both routes, also where a
        # later node (1/., atan, exp of a negative) would make an inf finite
        # again; the compiled code never returns a complex, infinite or NaN
        # value
        e = parse(text)
        with pytest.raises(EvalDomainError):
            eval_numeric(e, {"x": x, "y": y})
        with pytest.raises(EvalDomainError):
            compile_evaluator(e, ["x", "y"])(x, y)
        with pytest.raises(EvalDomainError):
            compile_evaluator((parse("x + y"), e), ["x", "y"])(x, y)

    def test_compiled_tuple_is_each_entry_compiled_alone(self):
        exprs = tuple(parse(t) for t in ("x + y/3", "exp(x)*sin(y)", "7", "x^(-2)"))
        together = compile_evaluator(exprs, ["x", "y"])
        for x, y in ((0.3, -1.7), (-2.5, 0.125)):
            assert together(x, y) == tuple(compile_evaluator(e, ["x", "y"])(x, y)
                                           for e in exprs)

    def test_compiled_restricted_calls_inside_their_domain(self):
        fn = compile_evaluator(parse("x^(1/2) + sqrt(y) + ln(x) + x^(-3/2)"),
                               ["x", "y"])
        got = fn(4.0, 0.0)
        assert isinstance(got, float)
        assert got == pytest.approx(2.0 + math.log(4.0) + 0.125, rel=1e-15)
        assert compile_evaluator(parse("x^(1/2)"), ["x"])(0.0) == 0.0

    def test_compiled_matches_recursive_on_both_signs(self):
        # points of either sign reach ln and sqrt of negative values: the
        # compiled code raises where the reference does and is never complex
        rng = random.Random(5000)
        nrng = np.random.default_rng(6000)
        H = OpaqueBinding.from_expr(("a", "b"), parse("a^2 + b^2 + 1"))
        names = ["x", "y", "z", "u"]
        raised = 0
        for _ in range(1000):
            e = random_expr(rng, 3)
            fn = compile_evaluator(e, names, {"H": H})
            for _ in range(3):
                env = {n: float(nrng.uniform(-1.3, 1.3)) for n in names}
                try:
                    ref = eval_numeric(e, env, {"H": H})
                except EvalDomainError:
                    raised += 1
                    with pytest.raises(EvalDomainError):
                        fn(*[env[n] for n in names])
                    continue
                got = fn(*[env[n] for n in names])
                assert not isinstance(got, complex)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert raised > 0

    def test_compiled_bindings_match_recursive(self):
        # expression bindings over (a, b, c) compile their value and each
        # derivative slot, through a nested profile H; the reference
        # evaluates the differentiated bodies recursively, with H and its
        # derivatives behind recursive evaluators as well
        h_params, h_body = ("p", "q"), parse("p^2*q + sin(q) + 1")
        H = OpaqueBinding.from_expr(h_params, h_body)
        h_ref = OpaqueBinding(2, lambda p, q: eval_numeric(h_body, {"p": p, "q": q}), {
            slots: (lambda d: lambda p, q: eval_numeric(d, {"p": p, "q": q}))(
                _diff_slots(h_body, h_params, slots))
            for slots in ((1,), (2,), (1, 1), (1, 2), (2, 2))})
        rng = random.Random(7000)
        nrng = np.random.default_rng(8000)
        rename = {"x": sym("a"), "y": sym("b"), "z": sym("c"), "u": sym("a")}
        params = ("a", "b", "c")
        raised = compared = 0
        for _ in range(500):
            body = substitute(random_expr(rng, 3), rename)
            W = OpaqueBinding.from_expr(params, body, inner={"H": H})
            for slots in ((), (1,), (2,), (1, 2)):
                ref_body = _diff_slots(body, params, slots)
                for _ in range(2):
                    pt = [float(v) for v in nrng.uniform(-1.3, 1.3, 3)]
                    try:
                        ref = eval_numeric(ref_body, dict(zip(params, pt)), {"H": h_ref})
                    except EvalDomainError:
                        raised += 1
                        with pytest.raises(EvalDomainError):
                            W.deriv(slots)(*pt)
                        continue
                    compared += 1
                    assert W.deriv(slots)(*pt) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        assert raised > 0 and compared > 2000

    def test_float_constants_rejected(self):
        with pytest.raises(ExprError):
            num(0.5)  # type: ignore[arg-type]


def _diff_slots(body, params, slots):
    for s in slots:
        body = diff(body, params[s - 1])
    return body


def test_free_symbols():
    e = parse("H_1(x, y)*exp(z) + u_xx^c")
    assert free_symbols(e) == frozenset({"x", "y", "z", "u_xx", "c"})
