"""Prolongation layer against an independent closed-form oracle."""

import importlib
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from hessym import classify, jets
from hessym.catalog import case_by_id, classification_rows, reduced_field, symmetry_candidate
from hessym.expr import (
    EvalDomainError, ExprError, OpaqueBinding, ZERO, add, mul, neg, num, opaque,
    pow_, substitute, sym,
)
from hessym.fields import BaseSpace, E4, VectorField, commutator, vf
from hessym.flows import verify_case
from hessym.jets import (
    JetOrderError, S2_JET_DERIVATIVES, SPATIAL, check_symmetry, hessian2,
    invariance_residual, jet_indices, jet_order, jet_symbol, prolong2,
    s2_of, s2_weight, solve_uyy, total_derivative,
)
from hessym.normalize import (
    DEFAULT_SEED, ProvedZero, SymmetryCheck, as_polynomial, is_zero, normalize, sample_point,
    worst_check,
)
from hessym.parse import parse

from _gen import sample_poly
from _reference import eval_numeric, s2_of_poly, sample_on_variety


class TestJetTables:
    def test_index_strings(self):
        assert jet_indices(1) == ("x", "y", "z")
        assert jet_indices(2) == ("xx", "xy", "xz", "yy", "yz", "zz")
        assert len(jet_indices(3)) == 10

    def test_jet_order_parses_names(self):
        assert jet_order("u") == 0
        assert jet_order("u_xy") == 2
        assert jet_order("f_z") is None  # u is the one dependent variable
        assert jet_order("v_x") is None
        assert jet_order("u_yx") is None  # unsorted is not a jet name


class TestTotalDerivative:
    def test_chain_through_jets(self):
        assert total_derivative(sym("u"), "x") == sym("u_x")
        got = total_derivative(parse("y*u_x"), "y")
        assert normalize(got) == normalize(parse("u_x + y*u_xy"))

    def test_top_order_raises(self):
        with pytest.raises(JetOrderError):
            total_derivative(sym("u_xxx"), "x")

    def test_commutes(self):
        e = parse("x*u_x^2 + u*u_z")
        dxy = total_derivative(total_derivative(e, "x"), "y")
        dyx = total_derivative(total_derivative(e, "y"), "x")
        assert normalize(dxy) == normalize(dyx)


def oracle_phi(v: VectorField, idx: str) -> tuple:
    """Independent prolongation coefficient: D_J(phi - sum xi u_i) +
    sum xi u_{J,i}.  Returns (normalized value, had_order3) where the flag
    records whether third-order jets appeared before cancellation."""
    q = v.coeff("u")
    for j in SPATIAL:
        q = add(q, neg(mul(v.coeff(j), jet_symbol(j))))
    e = q
    for ch in idx:
        e = total_derivative(e, ch)
    for j in SPATIAL:
        e = add(e, mul(v.coeff(j), jet_symbol("".join(sorted(idx + j)))))
    from hessym.expr import free_symbols
    had3 = any(jet_order(nm) == 3 for nm in free_symbols(e))
    out = normalize(e)
    survivors = {nm for nm in free_symbols(out) if jet_order(nm) == 3}
    assert not survivors, f"order-3 jets failed to cancel: {survivors}"
    return out, had3


SAMPLE_FIELDS = [
    vf(E4, x="x"),
    vf(E4, x="z", z="-x"),
    vf(E4, u="u"),
    vf(E4, u="x"),
    vf(E4, x="x", y="y", z="z"),
    vf(E4, x="u", u="x*u^2"),       # u-dependent coefficients stress the rule
    vf(E4, x="y^2", y="u*z", z="x + u", u="x*y*u"),
]


class TestProlongation:
    @pytest.mark.parametrize("v", SAMPLE_FIELDS, ids=[str(v) for v in SAMPLE_FIELDS])
    def test_matches_closed_form_oracle(self, v):
        p = prolong2(v)
        saw_cancellation = False
        for idx in jet_indices(1) + jet_indices(2):
            want, had3 = oracle_phi(v, idx)
            saw_cancellation = saw_cancellation or had3
            assert p.coeff(idx) == want, f"phi^{idx} for {v}"
        # the oracle route passes through third-order jets exactly when the
        # field moves the base point
        has_spatial = any(v.coeff(s) != ZERO for s in SPATIAL)
        assert saw_cancellation == has_spatial

    def test_known_coefficients(self):
        p = prolong2(vf(E4, x="x"))
        assert p.coeff("x") == parse("-u_x")
        assert p.coeff("xx") == parse("-2*u_xx")
        assert p.coeff("xy") == parse("-u_xy")
        assert p.coeff("yy") == ZERO
        rot = prolong2(vf(E4, x="z", z="-x"))
        assert rot.coeff("x") == parse("u_z")
        assert rot.coeff("xx") == parse("2*u_xz")
        lin = prolong2(vf(E4, u="x"))
        assert lin.coeff("x") == num(1)
        assert all(lin.coeff(i) == ZERO for i in jet_indices(2))

    def test_linearity(self):
        a, b = SAMPLE_FIELDS[1], SAMPLE_FIELDS[5]
        combo = a.scaled(3).plus(b.scaled(-2))
        pc = prolong2(combo)
        pa, pb = prolong2(a), prolong2(b)
        for idx in jet_indices(1) + jet_indices(2):
            want = normalize(add(mul(num(3), pa.coeff(idx)),
                                 mul(num(-2), pb.coeff(idx))))
            assert pc.coeff(idx) == want

    def test_functorial_under_bracket(self):
        # prolongation commutes with the Lie bracket on the jet space
        jet_space = BaseSpace("J2", ("x", "y", "z", "u") + tuple(
            f"u_{i}" for i in jet_indices(1) + jet_indices(2)))

        def prolonged(v):
            p = prolong2(v)
            coeffs = [v.coeff(s) for s in ("x", "y", "z", "u")]
            coeffs += [p.coeff(i) for i in jet_indices(1) + jet_indices(2)]
            return VectorField(jet_space, tuple(coeffs))

        pairs = [(SAMPLE_FIELDS[0], SAMPLE_FIELDS[1]),
                 (SAMPLE_FIELDS[1], SAMPLE_FIELDS[2]),
                 (SAMPLE_FIELDS[4], SAMPLE_FIELDS[3])]
        for v, w in pairs:
            lhs = prolonged(commutator(v, w))
            rhs = commutator(prolonged(v), prolonged(w))
            assert lhs == rhs


# dS2/du_ij and the u_yy solution as written out by hand: the references
# that the ones derived from hessian2() must equal, Expr for Expr
PRINTED_JET_DERIVATIVES = {
    "xx": "u_yy + u_zz",
    "yy": "u_xx + u_zz",
    "zz": "u_xx + u_yy",
    "xy": "-2*u_xy",
    "yz": "-2*u_yz",
    "xz": "-2*u_xz",
}


def printed_uyy(rhs):
    return normalize(mul(add(rhs, parse("-u_xx*u_zz + u_xy^2 + u_yz^2 + u_xz^2")),
                         pow_(parse("u_xx + u_zz"), num(-1))))


class TestOperator:
    def test_jet_derivative_table(self):
        assert S2_JET_DERIVATIVES == {idx: parse(text)
                                      for idx, text in PRINTED_JET_DERIVATIVES.items()}

    @pytest.mark.parametrize("rhs", [
        opaque("f", sym("x"), sym("y"), sym("z")),
        sym("f"),
        parse("x^2 + z"),
        parse("exp(2*x)*H(y, z) + u_xy"),
    ])
    def test_solve_uyy_is_the_printed_solution(self, rhs):
        assert solve_uyy(rhs) == printed_uyy(rhs)

    def test_solve_uyy_restores_equation(self):
        rhs = parse("x^2 + z")
        s2 = substitute(hessian2(), {"u_yy": solve_uyy(rhs)})
        assert isinstance(is_zero(add(s2, neg(rhs))), ProvedZero)

    def test_solve_uyy_follows_the_operator(self, monkeypatch):
        # the planar Monge-Ampere operator: u_yy = (rhs + u_xy^2)/u_xx
        monkeypatch.setattr(jets, "hessian2", lambda: parse("u_xx*u_yy - u_xy^2"))
        assert solve_uyy(sym("f")) == normalize(parse("(f + u_xy^2)/u_xx"))

    @pytest.mark.parametrize("text", ["u_yy^2 + u_xx*u_zz", "u_xx*u_yy^2 - u_xy^2 + u_yy"])
    def test_an_operator_not_linear_in_u_yy_is_refused(self, text, monkeypatch):
        monkeypatch.setattr(jets, "hessian2", lambda: parse(text))
        with pytest.raises(ExprError, match="not linear in u_yy"):
            solve_uyy(sym("f"))

    def test_invariance_residual_of_rotation_vanishes(self):
        rot = prolong2(vf(E4, y="z", z="-y"))
        assert isinstance(is_zero(invariance_residual(rot, ZERO)), ProvedZero)

    def test_scaling_weight(self):
        sc = prolong2(vf(E4, x="x", y="y", z="z"))
        r = invariance_residual(sc, ZERO)
        assert isinstance(is_zero(add(r, mul(num(4), hessian2()))), ProvedZero)

    @pytest.mark.parametrize("v", [
        *(reduced_field([int(i == k) for i in range(8)], E4) for k in range(8)),
        symmetry_candidate(),
    ], ids=[*(f"Z{k + 1}" for k in range(8)), "candidate"])
    def test_s2_weight_is_the_weight_of_the_operator(self, v):
        # pr V(F) = s2_weight(V)*F on each lifted generator of g8 and on the
        # twelve-constant family, with its constants kept symbolic
        r = invariance_residual(prolong2(v), ZERO)
        assert isinstance(is_zero(add(r, neg(mul(s2_weight(v), hessian2()))),
                                  mode="symbolic"), ProvedZero)

    def test_s2_weight_of_a_field_that_does_not_scale_s2_is_no_weight(self):
        # a shear changes S2 by more than a factor, so no weight fits it
        v = vf(E4, x="y")
        r = invariance_residual(prolong2(v), ZERO)
        assert not isinstance(is_zero(add(r, neg(mul(s2_weight(v), hessian2())))),
                              ProvedZero)


# right-hand sides for the samplers, and whether f has no value on part of
# the draws: an EvalDomainError from a compiled f, a ZeroDivisionError from
# a plain one
VARIETY_RHS = [
    (lambda x, y, z: x * x + y - z, False),
    (OpaqueBinding(("x", "y", "z"), parse("sqrt(x)*y + ln(z + 1)")).fn, True),
    (lambda x, y, z: y / max(x, 0.0), True),
]


class TestVarietySampling:
    def test_points_satisfy_equation(self):
        draw = partial(sample_point, jets._PIECE_VARS, random.Random(11))
        f = VARIETY_RHS[0][0]
        for _ in range(20):
            pt = dict(zip(jets._PIECE_VARS, jets._variety_point(draw, f)))
            s2 = eval_numeric(hessian2(), pt)
            assert abs(s2 - f(pt["x"], pt["y"], pt["z"])) < 1e-12
            assert abs(pt["u_xx"] + pt["u_zz"]) >= 0.25

    @pytest.mark.parametrize("seed", [1, 7, 11, 31, 12345])
    @pytest.mark.parametrize("f_at, partial_domain", VARIETY_RHS)
    def test_matches_the_dict_sampler(self, seed, f_at, partial_domain):
        failures = []

        def counted(*xyz):
            try:
                return f_at(*xyz)
            except (ArithmeticError, EvalDomainError):
                failures.append(xyz)
                raise

        rng, ref_rng = random.Random(seed), random.Random(seed)
        draw = partial(sample_point, jets._PIECE_VARS, rng)
        for _ in range(40):
            want = sample_on_variety(ref_rng, f_at)
            assert jets._variety_point(draw, counted) == [
                want[name] for name in jets._PIECE_VARS]
        assert rng.getstate() == ref_rng.getstate()
        assert (len(failures) > 10) if partial_domain else not failures

    def test_gives_up_after_the_same_draws(self):
        def nowhere(*_):
            raise EvalDomainError("no value")

        rng, ref_rng = random.Random(5), random.Random(5)
        with pytest.raises(EvalDomainError, match="valid sample point"):
            jets._variety_point(partial(sample_point, jets._PIECE_VARS, rng), nowhere)
        with pytest.raises(EvalDomainError, match="well-conditioned"):
            sample_on_variety(ref_rng, nowhere)
        assert rng.getstate() == ref_rng.getstate()


class TestCheckSymmetry:
    def test_translation_invariant_rhs(self):
        # f independent of x admits d/dx
        chk = check_symmetry(vf(E4, x="1"), parse("y^2 + z^2"), n=40)
        assert chk.passed and chk.max_residual < 1e-10

    def test_rotation_invariant_rhs(self):
        chk = check_symmetry(vf(E4, y="z", z="-y"), parse("x + y^2 + z^2"), n=40)
        assert chk.passed

    def test_profile_binding(self):
        hb = OpaqueBinding(("a", "b"), parse("sin(a) + exp(b/4)"))
        f = substitute(parse("exp(2*s*x)*H(y, z)"), {"s": num(1)})
        chk = check_symmetry(vf(E4, x="1", u="u"), f, inner={"H": hb}, n=40)
        assert chk.passed

    def test_rejects_unbound_parameters(self):
        with pytest.raises(Exception, match="parameters"):
            check_symmetry(vf(E4, x="g1", params=("g1",)), parse("y"), n=5)

    def test_complex_valued_field_is_a_domain_error(self):
        # y^(1/2) at a negative y has no real value: the residual raises
        # instead of turning complex
        with pytest.raises(EvalDomainError, match="negative base"):
            check_symmetry(vf(E4, x="y^(1/2)"), parse("x^(1/2)"), n=20)

    def test_a_deeply_nested_rhs_is_an_expr_error(self):
        # hashing the tree (an lru_cache key of the f binding) does not
        # recurse, so the compile of f's derivative refuses it
        f = parse("x")
        for _ in range(180):
            f = add(mul(sym("x"), f), num(1))
        with pytest.raises(ExprError, match="nested too deeply"):
            check_symmetry(vf(E4, u="1"), f, n=3)

    def test_a_deeply_nested_rhs_is_an_expr_error_again(self):
        # a second call with an equal f built anew finds the first f among
        # the keys of the binding's compile caches; comparing the two does
        # not recurse either
        for _ in range(2):
            f = parse("x")
            for _ in range(180):
                f = add(mul(sym("x"), f), num(1))
            with pytest.raises(ExprError, match="nested too deeply to compile"):
                check_symmetry(vf(E4, u="1"), f, n=3)

    def test_negative_control(self):
        # d/dx is not a symmetry when f depends on x
        chk = check_symmetry(vf(E4, x="1"), parse("x*y + z^2"), n=20)
        assert not chk.passed and chk.max_residual > 1e-3


class TestWorstCheck:
    def test_worst_residual_with_its_witness_over_all_points(self):
        checks = [SymmetryCheck(2e-9, 10, 1e-8, {"x": 1.0}),
                  SymmetryCheck(5e-9, 20, 1e-8, {"x": 2.0}),
                  SymmetryCheck(0.0, 30, 1e-8)]
        assert worst_check(checks) == SymmetryCheck(5e-9, 60, 1e-8, {"x": 2.0})
        assert worst_check(iter(checks[2:])) == checks[2]

    def test_the_checks_share_one_tolerance(self):
        with pytest.raises(ValueError, match="one tolerance"):
            worst_check([SymmetryCheck(0.0, 1, 1e-8), SymmetryCheck(0.0, 1, 1e-7)])


# each record that holds a SymmetryCheck, and the field that holds it
_HELD_CHECKS = {
    "RowCheck.symmetry": lambda: classify.verify_row(classification_rows()[0], n_points=5),
    "PrincipalCheck.symmetry": lambda: classify.verify_principal(n=5),
    "CaseCheck.group_law": lambda: verify_case(case_by_id(5), n_points=4),
    "CaseCheck.generator": lambda: verify_case(case_by_id(5), n_points=4),
    "CaseCheck.equivariance": lambda: verify_case(case_by_id(5), n_points=4),
}


@pytest.mark.parametrize("where", _HELD_CHECKS)
def test_a_failing_held_check_fails_its_record(where):
    record = _HELD_CHECKS[where]()
    field = where.split(".")[1]
    held = getattr(record, field)
    assert record.passed and held.passed
    failing = held._replace(max_residual=2 * held.tol)
    assert not failing.passed
    assert not record._replace(**{field: failing}).passed


class TestS2Routes:
    """s2_of's tree route against the integer numerator of the written
    minors (the reference s2_of_poly), and the float route s2_of_hessian
    against the written minors."""

    def test_sparse_route_matches_tree_on_sampled_profiles(self):
        rng = random.Random(11)
        profiles = [sample_poly(rng) for _ in range(200)]
        assert [s2_of(u) for u in profiles] == [_sparse(u) for u in profiles]

    @pytest.mark.parametrize("text", [
        "(1/2)*(t1*x^2 + t2*y^2 + t3*z^2)",
        "t1*x^3/3 - (2/5)*t1^2*y*z^2 + x^2 + y^2 + z^2",
        "(3/7)*x*y*z + t1*(x^2 - y^2)/4 + (5/2)*z^4 - 1/3",
        "x + y - 2*z + 9/8",
    ])
    def test_free_parameter_and_rational_coefficients(self, text):
        u = parse(text)
        assert s2_of(u) == _sparse(u)

    def test_seeded_parameter_profiles(self):
        rng = random.Random(5)
        profiles = [add(sample_poly(rng),
                        mul(num(Fraction(rng.randint(-9, 9), rng.randint(1, 7))),
                            sym("t1"), parse(rng.choice(["x^2*y", "y*z", "z^3", "x"]))))
                    for _ in range(30)]
        assert [s2_of(u) for u in profiles] == [_sparse(u) for u in profiles]

    def test_s2_of_hessian_matches_the_written_minors(self):
        # s2_of_hessian sums hessian2()'s monomials; the minors written by
        # hand are the oracle, exactly on small integers and to rounding on
        # seeded floats
        rng = random.Random(2024)
        for k in range(300):
            draw = (partial(rng.randint, -30, 30) if k % 2 else partial(rng.uniform, -5, 5))
            h = [draw() for _ in range(6)]
            xx, xy, xz, yy, yz, zz = h
            want = xx * (yy + zz) + yy * zz - xy ** 2 - yz ** 2 - xz ** 2
            got, scale = jets.s2_of_hessian(h)
            assert scale == max(abs(xx * yy), abs(xx * zz), abs(yy * zz),
                                xy ** 2, yz ** 2, xz ** 2)
            assert got == want if k % 2 else abs(got - want) <= 1e-13 * (1 + scale)

    def test_s2_of_hessian_rejects_a_non_finite_value(self):
        assert jets.s2_of_hessian((0.0,) * 6) == (0.0, 0.0)
        for h in [(1e200, 0, 0, 1e200, 0, 0), (0, 1e160, 0, 0, 0, 0),
                  (math.inf, 0, 0, 1, 0, 0), (math.nan, 0, 0, 0, 0, 0)]:
            with pytest.raises(EvalDomainError):
                jets.s2_of_hessian(h)

    def test_sparse_route_over_a_cleared_denominator(self):
        # S2[p/den] = S2[p]/den^2
        u = parse("(x^2 + 3*y^2 - x*y*z + z^4)/6")
        p = {(("x", 2),): 1, (("y", 2),): 3, (("x", 1), ("y", 1), ("z", 1)): -1,
             (("z", 4),): 1}
        assert s2_of(u) == s2_of_poly(p, 6)


def _sparse(u):
    """The reference s2_of_poly of a polynomial profile, its coefficients
    cleared to integers over their least common denominator."""
    p = as_polynomial(u)[0]
    den = math.lcm(*(c.denominator for c in p.values()))
    return s2_of_poly({m: c.numerator * (den // c.denominator) for m, c in p.items()}, den)


def _reference_check(v, f_expr, inner=None, n=100, tol=1e-8, seed=DEFAULT_SEED,
                     f_failures=None, max_attempts=100):
    """check_symmetry as it was before the draws were shared: a fresh
    random.Random(seed) per call and one reference dict sampler per point.
    ``f_failures`` collects the points where f had no value."""
    binding = OpaqueBinding(("x", "y", "z"), f_expr, inner=inner)
    pieces_at = jets._symmetry_pieces(v)({"f": binding})

    def f_at(*xyz):
        try:
            return binding.fn(*xyz)
        except EvalDomainError:
            if f_failures is not None:
                f_failures.append(xyz)
            raise

    rng = random.Random(seed)
    worst = 0.0
    witness = None
    for _ in range(n):
        pt = sample_on_variety(rng, f_at, max_attempts=max_attempts)
        vals = pieces_at(*[pt[name] for name in jets._PIECE_VARS])
        rel = abs(math.fsum(vals)) / (1.0 + max((abs(x) for x in vals), default=0.0))
        if rel > worst:
            worst = rel
            witness = pt
    return SymmetryCheck(worst, n, tol, witness)


def _same_check(got, want):
    assert got == want
    if want.witness is not None:
        assert list(got.witness.items()) == list(want.witness.items())


@pytest.mark.parametrize("n", [0, -1])
def test_check_symmetry_gives_no_verdict_from_zero_points(n):
    with pytest.raises(ValueError, match="at least 1"):
        check_symmetry(vf(E4, y="1"), parse("exp(y)"), n=n)


class TestSharedDraws:
    """check_symmetry against the per-call reference sampler loop."""

    def test_a_symmetry(self):
        v, f = vf(E4, y="z", z="-y"), parse("x + y^2 + z^2")
        for n in (1, 40, 130):
            got = check_symmetry(v, f, n=n)
            _same_check(got, _reference_check(v, f, n=n))
            assert got.passed and got.witness is not None

    def test_a_non_symmetry_keeps_its_witness(self):
        v, f = vf(E4, y="1"), parse("exp(y)")
        got = check_symmetry(v, f, seed=7)
        want = _reference_check(v, f, seed=7)
        _same_check(got, want)
        assert not got.passed and got.witness["u_yy"] == want.witness["u_yy"]

    def test_f_domain_redraws(self):
        v, f = vf(E4, y="1"), parse("sqrt(x)")
        failures = []
        want = _reference_check(v, f, n=60, seed=31, f_failures=failures)
        assert len(failures) > 20  # about half the guarded draws have x < 0
        _same_check(check_symmetry(v, f, n=60, seed=31), want)
        _same_check(check_symmetry(v, f, n=60, seed=DEFAULT_SEED),
                    _reference_check(v, f, n=60))

    def test_f_defined_nowhere_gives_up_like_the_reference(self):
        v, f = vf(E4, x="1"), parse("sqrt(-1 - x^2)")
        with pytest.raises(EvalDomainError, match="valid sample point"):
            check_symmetry(v, f, n=3, seed=5)
        with pytest.raises(EvalDomainError, match="well-conditioned"):
            _reference_check(v, f, n=3, seed=5)

    def test_interleaved_seeds(self):
        v1, f1 = vf(E4, x="1"), parse("x*y + z^2")
        v2, f2 = vf(E4, z="1", u="u"), parse("exp(2*z)*(x^2 + 1)")
        calls = [(v1, f1, 11, 20), (v2, f2, 12, 50), (v1, f1, 11, 90),
                 (v2, f2, 11, 10), (v1, f1, 12, 120), (v2, f2, 12, 5)]
        for v, f, seed, n in calls:
            _same_check(check_symmetry(v, f, n=n, seed=seed),
                        _reference_check(v, f, n=n, seed=seed))

    def test_attempt_limit(self, monkeypatch):
        # about a third of the draws fail the guard or have x < 0, so a
        # point now and then needs exactly the last attempt allowed
        v, f = vf(E4, y="1"), parse("sqrt(x)")
        outcomes = set()
        nz = importlib.import_module("hessym.normalize")  # not the function
        for limit in (2, 3, 4):
            monkeypatch.setattr(nz, "_MAX_ATTEMPTS", limit)
            for seed in range(300, 340):
                try:
                    want = _reference_check(v, f, n=12, seed=seed, max_attempts=limit)
                except EvalDomainError:
                    with pytest.raises(EvalDomainError):
                        check_symmetry(v, f, n=12, seed=seed)
                    outcomes.add("gave up")
                else:
                    _same_check(check_symmetry(v, f, n=12, seed=seed), want)
                    outcomes.add("sampled")
        assert outcomes == {"gave up", "sampled"}


class TestSymmetryPieces:
    def test_classification_compiles_pieces_once_per_field(self, monkeypatch):
        compiles = []
        fields = []
        template = jets.compile_template
        check = classify.check_symmetry

        def counting_template(e, var_order):
            compiles.append(e)
            return template(e, var_order)

        def recording_check(v, *args, **kwargs):
            fields.append(v)
            return check(v, *args, **kwargs)

        jets._symmetry_pieces.cache_clear()
        monkeypatch.setattr(jets, "compile_template", counting_template)
        monkeypatch.setattr(classify, "check_symmetry", recording_check)
        for row in classification_rows()[:6]:
            classify.verify_row(row, n_points=3)
        assert len(fields) > len(set(fields))  # fields recur within a row
        assert len(compiles) == len(set(fields))

    def test_rebinding_keeps_residuals(self):
        # one compiled template serves every right-hand side of a field
        v = vf(E4, x="1")
        first = check_symmetry(v, parse("y^2 + z^2"), n=30)
        check_symmetry(v, parse("x*y"), n=30)
        assert check_symmetry(v, parse("y^2 + z^2"), n=30) == first
        assert not check_symmetry(v, parse("x*y"), n=30).passed
