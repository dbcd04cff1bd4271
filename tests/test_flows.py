"""One-parameter transforms: flow matrices, pushforwards, printed formulas."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hessym import catalog, jets
from hessym.catalog import case_by_id, flow_cases
from hessym.classify import s2_of
from hessym.expr import (
    ExprError, OpaqueBinding, ZERO, add, compile_evaluator, diff, mul, num,
    pow_, sub, substitute, sym,
)
from hessym.fields import E4, vf
from hessym.flows import (
    AffineFlow,
    W_BODY,
    _affine,
    _case_values,
    _poly_hessian,
    _pushed_hessian,
    _pushforward_at,
    _sample_poly,
    apply_case,
    equivariance_weight,
    field_matrix,
    flow_of,
    tian_base,
    verify_all_cases,
    verify_case,
)
from hessym.jets import jet_indices, s2_of_hessian
from hessym.normalize import as_polynomial, normalize
from hessym.parse import parse

CASE_IDS = list(range(1, 16))
PRINCIPAL = {1, 2, 3, 4}
FIRST_ORDER_SCALE = set(range(5, 14))  # printed u-factor truncates the exponential
EXPONENT_CAVEAT = {14, 15}

ROW_OF = {1: None, 2: None, 3: None, 4: None,
          5: "A2", 6: "A3", 7: "A4", 8: "A5", 9: "A6a", 10: "A6b",
          11: "A9a", 12: "A10a", 13: "A10b", 14: "A11a", 15: "A12a"}


@pytest.fixture(scope="module")
def checks():
    out = {c.case_id: c for c in verify_all_cases()}
    assert sorted(out) == CASE_IDS
    return out


# ---------------------------------------------------------------------------
# case table

def test_case_table_rows():
    assert {c.case_id: c.row_id for c in flow_cases()} == ROW_OF


def test_case_by_id_unknown():
    with pytest.raises(KeyError):
        case_by_id(16)


@pytest.mark.parametrize("cid", CASE_IDS)
def test_case_texts_parse(cid):
    case = case_by_id(cid)
    allowed = {"x", "y", "z", "t", *(case.row.all_params() if case.row else ())}
    from hessym.expr import free_symbols
    for tx in (*case.image_text, case.u_scale_text, case.u_shift_text):
        assert free_symbols(parse(tx)) <= allowed


@pytest.mark.parametrize("cid", CASE_IDS)
def test_case_flags(cid):
    case = case_by_id(cid)
    if cid in FIRST_ORDER_SCALE:
        assert case.flags == ("printed-scale-first-order",)
    elif cid in EXPONENT_CAVEAT:
        assert case.flags == ("printed-exponent-generalized",)
    else:
        assert case.flags == ()


# ---------------------------------------------------------------------------
# flow matrices

def test_translation_flow_is_exact():
    # d_u generator: nilpotent series, entries exact in t
    M = flow_of(case_by_id(1).field()).matrix(0.3)
    want = np.eye(5)
    want[3, 4] = 0.3
    assert np.array_equal(M, want)


def test_shift_by_x_pushforward():
    flw = flow_of(case_by_id(2).field())
    u0 = lambda x, y, z: 0.5 * (x * x + 2 * y * y - z * z)
    for t in (0.4, -1.1):
        for pt in [(0.7, -0.3, 1.2), (-1.0, 0.5, 0.2)]:
            got = _pushforward_at(flw.matrix(t), *flw.spatial_preimage(t), u0, pt)
            assert got == pytest.approx(u0(*pt) + t * pt[0], abs=1e-14)


def test_rotation_block_is_orthogonal():
    flw = flow_of(case_by_id(8).field({"a1": Fraction(1)}))
    B = np.array(flw.matrix(0.7))[:3, :3]
    assert np.max(np.abs(B.T @ B - np.eye(3))) < 1e-12
    assert np.linalg.det(B) == pytest.approx(1.0, abs=1e-12)


def test_dilation_field_matrix_entries():
    L = field_matrix(case_by_id(14).field())
    want = tuple(tuple(Fraction(1 if i == j and i < 3 else 0) for j in range(5))
                 for i in range(5))
    assert L == want


@pytest.mark.parametrize("coeff", ["x^2", "1/x", "sin(x)"])
def test_field_matrix_rejects_nonaffine(coeff):
    with pytest.raises(ExprError, match="coefficient of d_u is not affine"):
        field_matrix(vf(E4, u=coeff))


def test_matrix_at_zero_is_identity():
    for cid in (1, 8):
        M = flow_of(case_by_id(cid).field({"a1": Fraction(1)} if cid == 8 else None)).matrix(0.0)
        assert np.max(np.abs(M - np.eye(5))) < 1e-15


def _case_flows(params=(Fraction(3, 2),)):
    for case in flow_cases():
        for pval in params:
            for sign in ((1, -1) if case.row and case.row.sign_param else (1,)):
                yield case.case_id, flow_of(case.field(_case_values(case, sign, pval)))


def _fraction_powers(L):
    """L^0, L^1, ... while nonzero, or None when L^5 != 0 (not nilpotent)."""
    n = len(L)
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    powers = []
    for _ in range(n):
        powers.append(P)
        P = [[sum((P[i][k] * L[k][j] for k in range(n)), Fraction(0))
              for j in range(n)] for i in range(n)]
        if not any(any(row) for row in P):
            return powers
    return None


def test_nilpotent_closed_forms_are_the_exact_series():
    t = sym("t")
    nilpotent = set()
    for cid, flw in _case_flows((Fraction(3, 2), Fraction(2, 3))):
        powers = _fraction_powers(flw.L)
        if powers is None:
            continue
        nilpotent.add(cid)
        for i in range(5):
            for j in range(5):
                series = add(*[mul(num(P[i][j] / math.factorial(m)), pow_(t, num(m)))
                               for m, P in enumerate(powers)])
                assert normalize(flw.entries[i][j]) == normalize(series), (cid, i, j)
    assert nilpotent == PRINCIPAL


@pytest.mark.parametrize("t", [-1.5, 0.0, 0.7])
def test_closed_forms_match_expm(t):
    import scipy.linalg  # the independent oracle; hessym's flows never load it

    seen = set()
    for cid, flw in _case_flows((Fraction(3, 2), Fraction(2, 3))):
        seen.add(cid)
        want = scipy.linalg.expm(t * np.array(flw.L, dtype=float))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(flw.matrix(t) - want)) <= 1e-14 * scale, (cid, t)
    assert seen == set(CASE_IDS)


@pytest.mark.parametrize("t", [-1.5, 0.0, 0.7])
def test_matrix_matches_uncached_route(t):
    seen = set()
    for cid, flw in _case_flows():
        seen.add(cid)
        for _ in range(2):  # the second call reads the cached evaluator
            assert np.array_equal(flw.matrix(t), AffineFlow(flw.L).matrix(t)), cid
    assert seen == set(CASE_IDS)


@pytest.mark.parametrize("cid", [2, 14])  # polynomial and exponential entries
def test_matrix_returns_a_fresh_array(cid):
    # the rows are tuples, so a caller cannot write into what the next call
    # returns
    flw = flow_of(case_by_id(cid).field())
    M = flw.matrix(0.7)
    with pytest.raises(TypeError):
        M[0] = (99.0,) * 5
    with pytest.raises(TypeError):
        M[0][0] = 99.0
    assert np.array_equal(flw.matrix(0.7), AffineFlow(flw.L).matrix(0.7))
    assert flw.matrix(0.7) is not flw.matrix(0.7)


def test_spatial_preimage_inverts_the_flow():
    flw = flow_of(case_by_id(15).field({"s": Fraction(1)}))
    t = 0.6
    M = np.array(flw.matrix(t))
    B, c = map(np.array, flw.spatial_preimage(t))
    x = np.array([0.8, -0.4, 1.3])
    fwd = M[:3, :3] @ x + M[:3, 4]
    assert np.max(np.abs(B @ fwd + c - x)) < 1e-12


# ---------------------------------------------------------------------------
# equivariance weight

@pytest.mark.parametrize("coeffs, want", [
    ({"u": "1"}, Fraction(0)),
    ({"x": "1", "u": "u"}, Fraction(2)),
    ({"x": "x", "y": "y", "z": "z"}, Fraction(-4)),
    ({"x": "x"}, Fraction(-4, 3)),
    ({"u": "3*u"}, Fraction(6)),
])
def test_equivariance_weight(coeffs, want):
    assert equivariance_weight(vf(E4, **coeffs)) == want


# ---------------------------------------------------------------------------
# base solution family

def test_quadratic_base_solves_constant_equation_exactly():
    residual = normalize(sub(s2_of(tian_base(with_bump=False)),
                             parse("t1*t2 + t1*t3 + t2*t3")))
    assert residual == ZERO


def test_quadratic_base_instance_value():
    u = tian_base(Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), with_bump=False)
    assert normalize(s2_of(u)) == num(Fraction(-1, 16))


def test_corrugated_base_approaches_constant():
    # bounded corrugation: the defect decays with the sharpness parameter
    binding = {"W": OpaqueBinding(("a", "b", "c"), parse("sin(a) + cos(b + c/2)"))}
    const = float(Fraction(3, 4) * Fraction(-1, 2)
                  + Fraction(3, 4) * Fraction(5, 4)
                  + Fraction(-1, 2) * Fraction(5, 4))
    pts = [(0.3, -0.7, 1.1), (1.2, 0.4, -0.9), (-0.5, -1.3, 0.6)]

    def defect(eps):
        u = tian_base(Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), eps)
        fn = compile_evaluator(s2_of(u), ["x", "y", "z"], binding)
        return max(abs(fn(*p) - const) for p in pts)

    d4, d16, d64 = defect(Fraction(1, 4)), defect(Fraction(1, 16)), defect(Fraction(1, 64))
    assert d16 < d4 / 3
    assert d64 < d16 / 3
    assert d64 < 0.05


def test_default_corrugation_body_is_smooth():
    e = parse(W_BODY)
    fn = compile_evaluator(e, ["a", "b", "c"])
    assert math.isfinite(fn(0.3, -1.2, 0.8))


# ---------------------------------------------------------------------------
# full case verification

@pytest.mark.parametrize("cid", CASE_IDS)
def test_case_passes(checks, cid):
    chk = checks[cid]
    assert chk.passed
    assert chk.field_consistent
    assert chk.group_law.max_residual <= 1e-12
    assert chk.generator.max_residual <= 1e-8
    assert chk.equivariance.max_residual <= 1e-7


@pytest.mark.parametrize("cid", CASE_IDS)
def test_matched_readings(checks, cid):
    matched = set(checks[cid].matched_readings)
    assert (-1, "exp") in matched
    # no case matches the forward orientation at nonzero t
    assert not any(sigma == 1 for sigma, _ in matched)
    if cid in FIRST_ORDER_SCALE:
        assert (-1, "literal") not in matched
    else:
        assert (-1, "literal") in matched


@pytest.mark.parametrize("cid", CASE_IDS)
def test_reparametrization_note(checks, cid):
    repar = checks[cid].reparametrization
    if cid in FIRST_ORDER_SCALE:
        assert repar == "printed (1 + t) factor read as exp(t)"
    else:
        assert repar is None


@pytest.mark.parametrize("cid", CASE_IDS)
def test_weight_rates(checks, cid):
    want = Fraction(0) if cid in PRINCIPAL else (
        Fraction(-4) if cid in EXPONENT_CAVEAT else Fraction(2))
    assert checks[cid].weight_rate == want


def test_literal_reading_residual_is_first_order(checks):
    res = dict(checks[5].readings)
    assert res[(-1, "exp")].max_residual < 1e-12
    assert res[(-1, "literal")].max_residual > 1e-2
    assert res[(1, "literal")].max_residual > 1e-2


def test_verify_is_seed_stable():
    a = verify_case(case_by_id(11))
    b = verify_case(case_by_id(11), seed=7)
    assert a.matched_readings == b.matched_readings
    assert b.passed


def test_other_parameter_values_still_pass():
    chk = verify_case(case_by_id(8), param_value=Fraction(3, 2))
    assert chk.passed
    assert chk.matched_readings == ((-1, "exp"),)


# ---------------------------------------------------------------------------
# negative controls

def test_tampered_image_fails():
    bad = case_by_id(5)._replace(image_text=("x - s*t", "y", "z"))
    chk = verify_case(bad)
    assert not chk.passed
    assert (-1, "exp") not in chk.matched_readings


def test_tampered_shift_flips_orientation():
    # negating the printed shift turns it into the forward action
    bad = case_by_id(1)._replace(u_shift_text="t")
    chk = verify_case(bad)
    assert chk.matched_readings == ((1, "exp"), (1, "literal"))
    assert not chk.passed


def test_tampered_dilation_rate_matches_nothing():
    bad = case_by_id(14)._replace(image_text=("exp(2*t)*x", "exp(t)*y", "exp(t)*z"))
    chk = verify_case(bad)
    assert chk.matched_readings == ()
    assert not chk.passed


def test_field_mismatch_is_detected(monkeypatch):
    # a tampered printed field of the case's row: flow and readings stay
    # self-consistent, the lift of the row's generator catches it
    a2, *rest = catalog.classification_rows()
    assert a2.row_id == "A2" and a2.v5_text == {"x": "s", "u": "u"}
    monkeypatch.setattr(catalog, "_ROWS", (a2._replace(v5_text={"x": "s", "u": "2*u"}), *rest))
    chk = verify_case(case_by_id(5))
    assert not chk.field_consistent
    assert not chk.passed
    assert (-1, "exp") in chk.matched_readings


# ---------------------------------------------------------------------------
# S2 of a pushed-forward profile, by the chain rule

def _tree_pushforward(u, M, B, c):
    """The pushed-forward profile built as a tree, the oracle of the chain
    rule."""
    img = [add(*[mul(num(Fraction(float(B[i][j]))), sym(w)) for j, w in enumerate("xyz")],
               num(Fraction(float(c[i]))))
           for i in range(3)]
    pulled = substitute(u, dict(zip("xyz", img)))
    return add(mul(num(Fraction(float(M[3][3]))), pulled),
               *[mul(num(Fraction(float(M[3][j]))), img[j]) for j in range(3)],
               num(Fraction(float(M[3][4]))))


def _flows_and_times():
    for case in flow_cases():
        flw = flow_of(case.field(_case_values(case, 1, Fraction(1))))
        for t in (0.35, -0.45, 0.8):
            yield case.case_id, flw.matrix(t), *flw.spatial_preimage(t)


def _chain_rule_s2(u, M, B, c, pt):
    """S2 of the pushforward of the polynomial profile u at pt, from u's
    exact Hessian at the preimage, with the scale of its terms."""
    h = _poly_hessian(as_polynomial(u)[0])(*_affine(B, c, pt))
    return s2_of_hessian(_pushed_hessian(h, M[3][3], B))


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_s2_of_pushforward_matches_tree_route():
    # every case at the three times, against the compiled canonical form
    # of S2 of the pushforward built as a tree, at seeded points
    rng = random.Random(4)
    for cid, M, B, c in _flows_and_times():
        u = _sample_poly(rng)
        tree = compile_evaluator(s2_of(_tree_pushforward(u, M, B, c)), ["x", "y", "z"])
        for _ in range(5):
            pt = [rng.uniform(0.2, 1.8) * rng.choice([-1, 1]) for _ in range(3)]
            assert _close(_chain_rule_s2(u, M, B, c, pt)[0], tree(*pt)), (cid, pt)


def test_chain_rule_s2_of_dyadic_affine_maps():
    # every entry of M's u-row and of (B, c) nonzero, as no case has them
    rng = random.Random(8)
    for _ in range(40):
        M, B, c = (np.array([rng.randint(-64, 64) / 2 ** rng.randint(0, 9) or 0.5
                             for _ in range(k)]).reshape(shape)
                   for k, shape in ((25, (5, 5)), (9, (3, 3)), (3, (3,))))
        u = _sample_poly(rng)
        tree = compile_evaluator(s2_of(_tree_pushforward(u, M, B, c)), ["x", "y", "z"])
        pt = [rng.uniform(-2, 2) for _ in range(3)]
        # relative to the scale of S2's terms, as _equivariance_gap measures:
        # S2 that cancels in large terms rounds at that scale
        got, scale = _chain_rule_s2(u, M, B, c, pt)
        assert abs(got - tree(*pt)) <= 1e-12 * (1.0 + scale), pt


def test_chain_rule_of_compiled_second_derivatives():
    # apply_case's route: a non-polynomial profile's compiled second
    # derivatives, against the tree route, at every case and time
    u = parse("sin(x - 2*y) + exp(z/3)*x^2 + y^3*z")
    second = compile_evaluator([diff(diff(u, i), j) for i, j in jet_indices(2)],
                               ["x", "y", "z"])
    rng = random.Random(9)
    for cid, M, B, c in _flows_and_times():
        tree = compile_evaluator(s2_of(_tree_pushforward(u, M, B, c)), ["x", "y", "z"])
        for _ in range(3):
            pt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            h = second(*_affine(B, c, pt))
            got = s2_of_hessian(_pushed_hessian(h, M[3][3], B))[0]
            assert _close(got, tree(*pt)), (cid, pt)


def test_poly_hessian_s2_is_the_compiled_s2_of():
    # the base side: S2 from the exact Hessian of a sampled profile against
    # the compiled canonical form of s2_of
    rng = random.Random(6)
    for _ in range(100):
        u = _sample_poly(rng)
        hessian_at = _poly_hessian(as_polynomial(u)[0])
        compiled = compile_evaluator(s2_of(u), ["x", "y", "z"])
        for _ in range(2):
            pt = [rng.uniform(0.2, 1.8) * rng.choice([-1, 1]) for _ in range(3)]
            assert _close(s2_of_hessian(hessian_at(*pt))[0], compiled(*pt))


def test_verify_case_differentiates_no_profile(monkeypatch):
    # s2_of is the one place an S2 argument is differentiated; jets.diff
    # itself also serves the weight of the case's field
    def no_tree(*_):
        raise AssertionError("a profile took the tree route")

    monkeypatch.setattr(jets, "s2_of", no_tree)
    monkeypatch.setattr("hessym.flows.s2_of", no_tree)
    assert verify_case(case_by_id(7), n_points=4).passed


def test_a_wrong_weight_fails_the_equivariance(monkeypatch):
    # the chain rule's gap, taken at the scale of S2's terms, still sees a
    # factor exp(w t) off by a tenth in w
    real = equivariance_weight
    monkeypatch.setattr("hessym.flows.equivariance_weight",
                        lambda v: real(v) + Fraction(1, 10))
    chk = verify_case(case_by_id(7), n_points=4)
    assert not chk.passed and chk.equivariance.max_residual > 1e-3
    assert not apply_case(14, 0.5, parse("x^2 + y^2*z + exp(z)")).check.passed


def test_apply_case_builds_no_canonical_s2(monkeypatch):
    # building the canonical form of S2 of this pushed profile took about a
    # minute; the chain rule needs none
    def no_canonical(*_):
        raise AssertionError("transform built a canonical form")

    monkeypatch.setattr(jets, "s2_of", no_canonical)
    monkeypatch.setattr("hessym.flows.s2_of", no_canonical)
    out = apply_case(6, -1.2, parse("atan(exp(x) + 1/y^2)"))
    assert out.check.passed and out.check.n_points == 40


def test_printed_evaluator_is_keyed_on_the_texts():
    # a tampered case checked after its genuine one gets its own evaluator
    genuine = case_by_id(5)
    assert verify_case(genuine, n_points=4).passed
    bad = genuine._replace(image_text=("x - s*t", "y", "z"))
    assert not verify_case(bad, n_points=4).passed
    assert verify_case(genuine, n_points=4).passed


@pytest.mark.parametrize("n_points", [0, -1])
def test_apply_case_gives_no_verdict_from_zero_points(n_points):
    u = tian_base(Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), with_bump=False)
    with pytest.raises(ValueError, match="at least 1"):
        apply_case(6, 0.3, u, n_points=n_points)
