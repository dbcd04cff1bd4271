"""Prolongation layer against an independent closed-form oracle."""

import random

import pytest

from hessym.expr import (
    EvalDomainError, OpaqueBinding, ZERO, add, diff, eval_numeric, mul, neg, num, substitute,
    sym,
)
from hessym.fields import BaseSpace, E4, VectorField, commutator, vf
from hessym.jets import (
    JetOrderError, S2_JET_DERIVATIVES, SPATIAL, check_symmetry, hessian2,
    invariance_residual, jet_indices, jet_order, jet_symbol, prolong2,
    sample_on_variety, solve_uyy, total_derivative,
)
from hessym.normalize import NonZero, ProvedZero, is_zero, normalize
from hessym.parse import parse


class TestJetTables:
    def test_index_strings(self):
        assert jet_indices(1) == ("x", "y", "z")
        assert jet_indices(2) == ("xx", "xy", "xz", "yy", "yz", "zz")
        assert len(jet_indices(3)) == 10

    def test_jet_order_parses_names(self):
        assert jet_order("u", ("u",)) == 0
        assert jet_order("u_xy", ("u",)) == 2
        assert jet_order("f_z", ("u", "f")) == 1
        assert jet_order("v_x", ("u",)) is None
        assert jet_order("u_yx", ("u",)) is None  # unsorted is not a jet name


class TestTotalDerivative:
    def test_chain_through_jets(self):
        assert total_derivative(sym("u"), "x") == sym("u_x")
        got = total_derivative(parse("y*u_x"), "y")
        assert normalize(got) == normalize(parse("u_x + y*u_xy"))

    def test_two_families(self):
        got = total_derivative(parse("u_x*f"), "z", families=("u", "f"))
        assert normalize(got) == normalize(parse("u_xz*f + u_x*f_z"))

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
        q = add(q, neg(mul(v.coeff(j), jet_symbol("u", j))))
    e = q
    for ch in idx:
        e = total_derivative(e, ch, families=("u",), max_order=3)
    for j in SPATIAL:
        e = add(e, mul(v.coeff(j), jet_symbol("u", "".join(sorted(idx + j)))))
    from hessym.expr import free_symbols
    had3 = any(jet_order(nm, ("u",)) == 3 for nm in free_symbols(e))
    out = normalize(e)
    survivors = {nm for nm in free_symbols(out) if jet_order(nm, ("u",)) == 3}
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


class TestOperator:
    def test_jet_derivative_table(self):
        s2 = hessian2()
        for idx, want in S2_JET_DERIVATIVES.items():
            assert normalize(diff(s2, f"u_{idx}")) == normalize(want)

    def test_solve_uyy_restores_equation(self):
        rhs = parse("x^2 + z")
        s2 = substitute(hessian2(), {"u_yy": solve_uyy(rhs)})
        assert isinstance(is_zero(add(s2, neg(rhs))), ProvedZero)

    def test_invariance_residual_of_rotation_vanishes(self):
        rot = prolong2(vf(E4, y="z", z="-y"))
        assert isinstance(is_zero(invariance_residual(rot, ZERO)), ProvedZero)

    def test_scaling_weight(self):
        sc = prolong2(vf(E4, x="x", y="y", z="z"))
        r = invariance_residual(sc, ZERO)
        assert isinstance(is_zero(add(r, mul(num(4), hessian2()))), ProvedZero)


class TestVarietySampling:
    def test_points_satisfy_equation(self):
        rng = random.Random(11)
        f = lambda x, y, z: x * x + y - z  # noqa: E731
        for _ in range(20):
            pt = sample_on_variety(rng, f)
            s2 = eval_numeric(hessian2(), pt)
            assert abs(s2 - f(pt["x"], pt["y"], pt["z"])) < 1e-12
            assert abs(pt["u_xx"] + pt["u_zz"]) >= 0.25

    def test_order3_jets_optional(self):
        rng = random.Random(12)
        pt = sample_on_variety(rng, lambda *_: 1.0, include_order3=True)
        assert "u_xxx" in pt and "u_yzz" in pt


class TestCheckSymmetry:
    def test_translation_invariant_rhs(self):
        # f independent of x admits d/dx
        chk = check_symmetry(vf(E4, x="1"), parse("y^2 + z^2"), n=40)
        assert chk.passed and chk.max_residual < 1e-10

    def test_rotation_invariant_rhs(self):
        chk = check_symmetry(vf(E4, y="z", z="-y"), parse("x + y^2 + z^2"), n=40)
        assert chk.passed

    def test_profile_binding(self):
        hb = OpaqueBinding.from_expr(("a", "b"), parse("sin(a) + exp(b/4)"))
        f = substitute(parse("exp(2*s*x)*H(y, z)", opaque_names={"H"}), {"s": num(1)})
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

    def test_negative_control(self):
        # d/dx is not a symmetry when f depends on x
        chk = check_symmetry(vf(E4, x="1"), parse("x*y + z^2"), n=20)
        assert not chk.passed and chk.max_residual > 1e-3
