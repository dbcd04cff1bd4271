"""Expression kernel: parsing, printing, differentiation, evaluation."""

import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hessym import expr
from hessym.expr import (
    ONE, ZERO, Add, Call, Deriv, EvalDomainError, EvalError, ExprError, Frozen, Mul,
    Num, Opaque, OpaqueBinding, Pow, Sym, add, call, children, compile_evaluator,
    compile_with_scale, deriv, diff, free_symbols, mul, num, opaque, pow_, rebuild,
    sub, substitute, sym, to_text,
)
from hessym.fields import E4, AdjointMatrix, LieBasis, VectorField, vf
from hessym.flows import AffineFlow
from hessym.normalize import normalize, print_canonical
from hessym.parse import ParseError, parse

import _reference
from _gen import random_expr
from _reference import eval_numeric


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

    def test_a_text_parsed_again_is_the_same_tree(self):
        text = "sin(x)*G(y, z) + u_xy^2"
        assert parse(text) is parse(text)
        for _ in range(2):  # an error is not memoized
            with pytest.raises(ParseError, match="trailing"):
                parse("x y")

    def test_equal_trees_hash_equal(self):
        a, b = parse("x^2 + 3*H(y, exp(z))"), parse("x^2 + (3*H(y, (exp(z))))")
        assert a == b and a is not b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "_hash" not in repr(a)
        # computed once, then kept on the node
        assert a._hash == hash(a) and a.terms[1]._hash == hash(a.terms[1])

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
        H = OpaqueBinding(("a", "b"), parse("sin(a) + exp(b/4)"))
        v = eval_numeric(parse("H_2(x, y)"), {"x": 0.3, "y": 0.8}, {"H": H})
        assert abs(v - 0.25 * math.exp(0.2)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_matches_recursive(self, seed):
        rng = random.Random(3000 + seed)
        nrng = np.random.default_rng(4000 + seed)
        H = OpaqueBinding(("a", "b"), parse("a^2 + b^2 + 1"))
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
        H = OpaqueBinding(("a", "b"), parse("a^2 + b^2 + 1"))
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
        H = OpaqueBinding(h_params, h_body)
        h_derivs = {
            slots: (lambda d: lambda p, q: eval_numeric(d, {"p": p, "q": q}))(
                _diff_slots(h_body, h_params, slots))
            for slots in ((), (1,), (2,), (1, 1), (1, 2), (2, 2))}
        h_ref = SimpleNamespace(fn=h_derivs[()], deriv=h_derivs.__getitem__)
        rng = random.Random(7000)
        nrng = np.random.default_rng(8000)
        rename = {"x": sym("a"), "y": sym("b"), "z": sym("c"), "u": sym("a")}
        params = ("a", "b", "c")
        raised = compared = 0
        for _ in range(500):
            body = substitute(random_expr(rng, 3), rename)
            W = OpaqueBinding(params, body, inner={"H": H})
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


# bound profiles for the opaque H of the generated trees: a polynomial,
# and one with domain errors of its own (sqrt of a negative a, ln of 0)
H_PROFILES = ("a^2 + b^2 + 1", "sqrt(a)*exp(b/4) - ln(a^2*b^2)")


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


def _same_bits(got, want) -> bool:
    """Equal value and scale, with the same sign of zero, or the same
    exception class."""
    if isinstance(want, type):
        return got is want
    return (isinstance(got, tuple) and got == want
            and all(math.copysign(1.0, g) == math.copysign(1.0, w)
                    for g, w in zip(got, want)))


class TestScaledBody:
    """``compile_with_scale`` against the recursive reference evaluator of
    tests/_reference.py."""

    @pytest.mark.parametrize("profile", H_PROFILES)
    def test_matches_the_reference_bit_for_bit(self, profile):
        # magnitudes from 1e-3 to 1e5, and one point in eight past 1e150,
        # where products and sums overflow
        H = OpaqueBinding(("a", "b"), parse(profile))
        rng = random.Random(9100 + H_PROFILES.index(profile))
        names = ["x", "y", "z", "u"]
        compared = raised = 0
        for _ in range(500):
            e = random_expr(rng, 5)
            at = compile_with_scale(e, names, {"H": H})
            for _ in range(4):
                big = rng.random() < 0.125
                pt = [rng.choice((-1.0, 1.0)) * 10.0 ** (rng.uniform(150, 308) if big
                                                          else rng.uniform(-3, 5))
                      for _ in names]
                want = _outcome(_reference.eval_with_scale, e, dict(zip(names, pt)), {"H": H})
                got = _outcome(at, *pt)
                assert _same_bits(got, want), (to_text(e), pt, got, want)
                if isinstance(want, type):
                    raised += 1
                else:
                    compared += 1
        assert compared > 1000 and raised > 100

    @pytest.mark.parametrize("text,point", [
        ("x + y + z", (1e308, 1e308, -1e308)),   # the partial sum overflows
        ("x + y", (1e308, 1e308)),
        ("x*y + 1", (1e200, 1e200)),
        ("(x + y)^2", (1e200, 1e200)),
        ("1/(x + y)", (1.0, -1.0)),
        ("exp(x)", (700.0,)),
        ("ln(x + y)", (1.0, -1.0)),
        ("x^(1/2)", (-1e-300,)),
    ])
    def test_domain_errors_and_overflow_match_the_reference(self, text, point):
        e = parse(text)
        names = sorted(free_symbols(e))
        want = _outcome(_reference.eval_with_scale, e, dict(zip(names, point)))
        assert want is EvalDomainError
        assert _outcome(compile_with_scale(e, names), *point) is want

    def test_sums_run_left_to_right_and_the_scale_follows_the_reference_rules(self):
        # left-to-right +, as in every compiled body, so 1e16 + 1 - 1e16 is 0
        at = compile_with_scale(parse("x + y + z"), ["x", "y", "z"])
        assert at(1e16, 1.0, -1e16) == (0.0, 1e16)
        # a sum's own value does not count: 1 + 1 under sin leaves scale 1
        assert compile_with_scale(parse("sin(x + y)"), ["x", "y"])(1.0, 1.0) \
            == (math.sin(2.0), 1.0)
        # an integer exponent counts in the scale, a sum that is a term of
        # a sum counts too, and so does every other node
        assert compile_with_scale(parse("x^3"), ["x"])(0.5) == (0.125, 3.0)
        nested = Add((Add((sym("x"), sym("y"))), num(1)))
        assert compile_with_scale(nested, ["x", "y"])(2.0, 2.0) == (5.0, 4.0)
        assert compile_with_scale(parse("x*y"), ["x", "y"])(3.0, 4.0) == (12.0, 12.0)
        # a sum that is both a term and an argument counts
        both = Add((call("sin", Add((sym("x"), sym("y")))), Add((sym("x"), sym("y")))))
        assert compile_with_scale(both, ["x", "y"])(1.0, 2.0) == (math.sin(3.0) + 3.0, 3.0)

    def test_public_evaluators_return_the_reference_values(self):
        from hessym import expr

        H = OpaqueBinding(("a", "b"), parse(H_PROFILES[0]))
        rng = random.Random(9200)
        names = ("x", "y", "z", "u")
        for _ in range(100):
            e = random_expr(rng, 4)
            env = {n: rng.uniform(-2.0, 2.0) for n in names}
            want = _outcome(_reference.eval_with_scale, e, env, {"H": H})
            assert _same_bits(_outcome(expr.eval_with_scale, e, env, {"H": H}), want)
            value = _outcome(expr.eval_numeric, e, env, {"H": H})
            assert value is want if isinstance(want, type) else value == want[0]

    @pytest.mark.parametrize("scaled", [False, True])
    def test_nesting_past_the_compiler_is_an_expr_error(self, scaled):
        # 200 nested calls, or 200 nested sums and products, compile; past
        # that, Python's parser refuses the source, and far past it the
        # emitting walk runs out of stack; the scale-returning compiler
        # keeps the same limits
        compiler = compile_with_scale if scaled else compile_evaluator
        calls, sums = sym("x"), sym("x")
        for _ in range(100):
            sums = add(mul(sym("x"), sums), ONE)
        for depth in range(1, 1001):
            calls = call("sin", calls)
            if depth == 200:
                compiler(calls, ["x"])
                compiler(sums, ["x"])
            if depth in (201, 1000):
                with pytest.raises(ExprError, match="nested too deeply to compile"):
                    compiler(calls, ["x"])


def _diff_slots(body, params, slots):
    for s in slots:
        body = diff(body, params[s - 1])
    return body


def test_free_symbols():
    e = parse("H_1(x, y)*exp(z) + u_xx^c")
    assert free_symbols(e) == frozenset({"x", "y", "z", "u_xx", "c"})


class TestNodes:
    """Nodes are immutable values, told apart by class: a node that became a
    bare tuple (or a named tuple) would fail each of these."""

    X, Y = Sym("x"), Sym("y")
    H = Opaque("H", (Sym("x"), Sym("y")))
    NODES = [Num(Fraction(3, 2)), Sym("x"), Add((X, Y)), Mul((X, Y)), Pow(X, Y),
             Call("exp", X), H, Deriv(H, (1, 2))]

    def test_same_fields_in_another_class_are_unequal(self):
        assert Add((self.X, self.Y)) != Mul((self.X, self.Y))
        assert Call("exp", self.X) != Opaque("exp", (self.X,))
        assert Pow(self.X, self.Y) != Call("x", self.Y)
        assert Num(Fraction(1)) != Fraction(1)
        assert len({Add((self.X, self.Y)), Mul((self.X, self.Y))}) == 2

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_a_node_is_no_tuple(self, node):
        assert not isinstance(node, tuple)
        assert node != tuple(getattr(node, f) for f in type(node).__slots__)
        with pytest.raises(TypeError):
            len(node)

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_equal_nodes_hash_equally(self, node):
        again = parse(to_text(node))
        assert again == node and not (again != node)
        assert again is not node and hash(again) == hash(node)
        assert {node: 1}[again] == 1

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_assignment_raises(self, node):
        field = type(node).__slots__[0]
        before = getattr(node, field)
        with pytest.raises(AttributeError):
            setattr(node, field, ZERO)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.cache = 1
        assert getattr(node, field) is before

    def test_repr_names_class_and_fields(self):
        assert repr(Add((self.X, Num(2)))) == \
            "Add(terms=(Sym(name='x'), Num(value=Fraction(2, 1))))"
        assert repr(Deriv(self.H, (1,))) == (
            "Deriv(target=Opaque(fn='H', args=(Sym(name='x'), Sym(name='y'))), "
            "slots=(1,))")

    def test_num_holds_a_fraction(self):
        assert Num(2).value == Fraction(2) and type(Num(2).value) is Fraction
        assert Num(2) == Num(Fraction(2)) and hash(Num(2)) == hash(Num(Fraction(2)))

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_hash_is_the_hash_of_the_field_tuple(self, node):
        # the hash the nodes had as dataclasses, so no set or dict order moves
        assert hash(node) == hash(tuple(getattr(node, f) for f in type(node).__slots__))


def _with_fields_of(value: Frozen, cls: type) -> Frozen:
    """A new instance of ``cls`` holding the field values of ``value``."""
    out = object.__new__(cls)
    for f in value._fields:
        object.__setattr__(out, f, getattr(value, f))
    return out


_FIELD = vf(E4, x="1", u="x")
_L = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
# each value with the tuple its equality and hash are keyed on
FROZEN_VALUES = [
    (_FIELD, (_FIELD.space, _FIELD.coeffs)),
    (LieBasis("B", (_FIELD,)), ("B", (_FIELD,))),
    (AdjointMatrix(0, ("Z1",), ((ONE,),)), (0, ("Z1",), ((ONE,),))),
    (AffineFlow(_L), (_L,)),
]


class TestFrozenValues:
    """The non-node Frozen classes share the nodes' value protocol."""

    @pytest.mark.parametrize("value,key", FROZEN_VALUES,
                             ids=lambda v: type(v).__name__)
    def test_equality_is_by_class_and_key(self, value, key):
        again = _with_fields_of(value, type(value))
        twin = _with_fields_of(value, type("Twin", (Frozen,), {}, fields=value._fields))
        assert again == value and not (again != value) and again is not value
        assert value != key and value != twin
        assert hash(value) == hash(key) == hash(again)
        assert {value: 1}[again] == 1

    @pytest.mark.parametrize("value", [v for v, _ in FROZEN_VALUES],
                             ids=lambda v: type(v).__name__)
    def test_repr_shows_every_field(self, value):
        text = repr(value)
        assert text.startswith(type(value).__name__ + "(")
        assert all(f"{f}={getattr(value, f)!r}" in text for f in value._fields)

    def test_vector_field_params_take_no_part(self):
        with_g = VectorField(E4, _FIELD.coeffs, frozenset({"g1"}))
        assert with_g == _FIELD and hash(with_g) == hash(_FIELD)
        assert with_g.params != _FIELD.params and "params=frozenset({'g1'})" in repr(with_g)


class TestHash:
    @staticmethod
    def _deep(depth, hash_each_level=False, leaf="x", changed=None):
        # ``changed`` is a level whose sin argument is 9 instead of 1, 2 or 3
        e = Sym(leaf)
        for k in range(depth):
            arg = Num(Fraction(9 if k == changed else k % 3 + 1))
            e = Add((Mul((Sym("x"), e)), Call("sin", arg)))
            if hash_each_level:
                hash(e)
        return e

    def test_a_deep_tree_hashes_without_recursion(self):
        # 5,000 levels, far past Python's stack for a recursive hash; a
        # tree hashed level by level as it grew gets the same hash
        assert hash(self._deep(5000)) == hash(self._deep(5000, hash_each_level=True))

    def test_a_shared_subtree_is_walked_once(self, monkeypatch):
        # each level is the product of the one below with itself: 2^16
        # paths through 17 nodes
        calls = []
        monkeypatch.setattr(expr, "children", lambda n: calls.append(n) or children(n))
        e = Sym("x")
        for _ in range(16):
            e = Mul((e, e))
        hash(e)
        assert len(calls) == len(set(map(id, calls))) == 17

    def test_shared_subtrees_hash_like_copies(self):
        leaf = Add((Sym("x"), Num(Fraction(1))))
        e = Mul((leaf, Pow(leaf, Num(Fraction(2))), Opaque("H", (leaf, Sym("y")))))
        fresh = Mul((Add((Sym("x"), Num(Fraction(1)))),
                     Pow(Add((Sym("x"), Num(Fraction(1)))), Num(Fraction(2))),
                     Opaque("H", (Add((Sym("x"), Num(Fraction(1)))), Sym("y")))))
        assert hash(e) == hash(fresh) and e == fresh
        assert hash(Deriv(e.factors[2], (1,))) == hash(Deriv(fresh.factors[2], (1,)))


class TestEq:
    def test_deep_trees_compare_without_recursion(self):
        # 5,000 levels, built twice: equal, far past Python's stack for a
        # recursive comparison; a changed leaf makes them unequal
        a, b = TestHash._deep(5000), TestHash._deep(5000)
        assert a is not b
        assert (a == b) is True and (a != b) is False
        for other in (TestHash._deep(5000, leaf="y"), TestHash._deep(5000, changed=2500),
                      TestHash._deep(4999)):
            assert (a == other) is False and (a != other) is True

    def test_shared_dags_are_walked_once(self, monkeypatch):
        # each level is the product of the one below with itself: 2^60
        # paths through 61 nodes.  A walk along the paths would not end;
        # equality and free_symbols visit each node (or pair) once
        def shared(depth, leaf="x"):
            e = Sym(leaf)
            for _ in range(depth):
                e = Mul((e, e))
            return e

        a, b = shared(60), shared(60)
        changed = Mul((shared(59), shared(59, leaf="y")))  # one leaf differs
        hash(a), hash(b), hash(changed)
        calls = []

        def counted(n):
            calls.append(n)
            if len(calls) > 1000:
                raise AssertionError("a shared subtree was walked again")
            return children(n)

        monkeypatch.setattr(expr, "children", counted)
        start = time.perf_counter()
        assert a is not b and (a == b) is True and (a != b) is False
        assert (a == changed) is False and (changed == a) is False
        assert free_symbols(a) == {"x"} and free_symbols(changed) == {"x", "y"}
        assert time.perf_counter() - start < 0.5

    def test_equality_is_structural_on_random_trees(self):
        # against repr, which spells out every field: pairs of random trees
        # built apart, half of them from the same draws
        rng = random.Random(77)
        equal = 0
        for k in range(2000):
            seed = rng.randrange(100)
            a = random_expr(random.Random(seed), 3)
            b = random_expr(random.Random(seed if k % 2 else rng.randrange(100)), 3)
            assert (a == b) == (repr(a) == repr(b))
            assert (a != b) == (repr(a) != repr(b))
            equal += a == b
        assert 1000 <= equal < 2000

    def test_heads_and_arity_decide(self):
        x, y = Sym("x"), Sym("y")
        h = Opaque("H", (x, y))
        assert Call("sin", x) != Call("cos", x) and Opaque("G", (x, y)) != h
        assert Deriv(h, (1,)) != Deriv(h, (2,)) != Deriv(Opaque("G", (x, y)), (2,))
        assert Add((x, y)) != Add((x, y, x)) and Mul((x, y)) != Add((x, y))
        assert Pow(x, Num(Fraction(2))) == Pow(Sym("x"), Num(Fraction(2)))
        assert Add((x, y)) != "x + y"


class TestTraversal:
    def test_children_and_rebuild_of_each_node(self):
        x, y = Sym("x"), Sym("y")
        h = Opaque("H", (x, y))
        assert children(Num(Fraction(3))) == () and children(x) == ()
        assert children(Pow(x, y)) == (x, y) and children(Call("exp", x)) == (x,)
        assert children(h) == (x, y) and children(Deriv(h, (1,))) == (x, y)
        assert rebuild(Deriv(h, (1, 2)), [y, x]) == Deriv(Opaque("H", (y, x)), (1, 2))
        assert rebuild(Add((x, y)), [num(1), num(2)]) == num(3)  # refolded

    def test_rebuild_and_substitute_on_random_trees(self):
        rng = random.Random(2024)
        for _ in range(1000):
            e = random_expr(rng)
            stack = [e]
            while stack:
                n = stack.pop()
                assert rebuild(n, children(n)) == n
                stack.extend(children(n))
            for name in free_symbols(e):
                try:
                    out = substitute(e, {name: num(2)})
                except ExprError as exc:  # the value zeroed a denominator
                    assert str(exc) == "0 raised to a negative power"
                    continue
                assert name not in free_symbols(out)
