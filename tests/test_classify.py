"""Classification table rows, the equivalence derivation, reflection,
invariants, and the principal algebra."""

import dataclasses

import pytest

from hessym import classify
from hessym.catalog import classification_rows, row_by_id
from hessym.classify import (
    H_INSTANCES,
    _bind_field,
    _h_binding,
    ansatz_residual,
    s2_of,
    verify_all_rows,
    verify_bila_procedure,
    verify_invariants,
    verify_principal,
    verify_reflection,
    verify_row,
)
from hessym.expr import free_symbols, num, substitute
from hessym.fields import E4, LieBasis, vf
from hessym.jets import check_symmetry
from hessym.normalize import NonZero, NumericallyZero, ProvedZero, is_zero
from hessym.parse import parse
from hessym.report import run_suite

ROWS_NEEDING_NUMERIC_ANSATZ = {"A7", "A9b"}
ROWS_NEEDING_LIFTED_V5 = {"A11b", "A12b"}


@pytest.fixture(scope="module")
def row_checks():
    return {rc.row_id: rc for rc in verify_all_rows()}


@pytest.mark.parametrize("row_id", [r.row_id for r in classification_rows()])
def test_row_passes(row_checks, row_id):
    rc = row_checks[row_id]
    assert rc.passed, f"{row_id}: ansatz={rc.ansatz_verdicts} sym={rc.symmetry_max_residual:.2e}"


@pytest.mark.parametrize("row_id", [r.row_id for r in classification_rows()])
def test_ansatz_verdict_kind(row_checks, row_id):
    rc = row_checks[row_id]
    for v in rc.ansatz_verdicts:
        if row_id in ROWS_NEEDING_NUMERIC_ANSATZ:
            # square roots of parameter sums stay opaque to the exact route
            assert isinstance(v, NumericallyZero)
        else:
            assert isinstance(v, ProvedZero)


def test_lifted_extra_symmetry_used_exactly_where_flagged(row_checks):
    used = {rid for rid, rc in row_checks.items() if rc.used_lifted_v5}
    assert used == ROWS_NEEDING_LIFTED_V5
    for rid in ROWS_NEEDING_LIFTED_V5:
        assert "printed-v5-incomplete" in row_checks[rid].flags


def test_symmetry_sampling_is_substantial(row_checks):
    for rc in row_checks.values():
        assert rc.symmetry_n_points >= 100
        assert rc.symmetry_max_residual < 1e-10


def test_corrected_constraint_row_is_flagged(row_checks):
    assert "constraint-corrected" in row_checks["A10b"].flags


def test_tampered_ansatz_is_rejected():
    row = row_by_id("A2")
    bad = dataclasses.replace(row, f_text="exp(3*s*x)*H(y, z)")
    v = is_zero(ansatz_residual(bad, 1), mode="auto",
                bindings={"H": _h_binding(H_INSTANCES[1][1])})
    assert isinstance(v, NonZero)


def test_mismatched_symmetry_is_rejected():
    # the A2 generator against the A10a right-hand side
    field = _bind_field(row_by_id("A2").printed_v5(), {"s": 1})
    f_expr = substitute(parse(row_by_id("A10a").f_text), {"s": num(1)})
    chk = check_symmetry(field, f_expr, inner={"H": _h_binding(H_INSTANCES[0][1])},
                         n=30, tol=1e-8)
    assert not chk.passed
    assert chk.max_residual > 1e-2


def test_ansatz_uses_both_signs():
    row = row_by_id("A2")
    for s in (1, -1):
        assert isinstance(is_zero(ansatz_residual(row, s), mode="symbolic"), ProvedZero)
    # leaving the sign symbolic must NOT prove: s^2 = 1 is not rational
    sym_row = dataclasses.replace(row, sign_param=None, params=("s",))
    assert not isinstance(is_zero(ansatz_residual(sym_row, 1), mode="symbolic"),
                          ProvedZero)


# ---------------------------------------------------------------------------
# equivalence derivation

def test_bila_procedure():
    b = verify_bila_procedure()
    assert b.passed
    assert isinstance(b.main_residual, ProvedZero)
    assert isinstance(b.auxiliary_residual, ProvedZero)
    assert all(ok for _, ok in b.step2)


def test_bila_step3_psi_claim_fails_and_is_flagged():
    b = verify_bila_procedure()
    step3 = dict(b.step3)
    assert step3["xi_f"] and step3["zeta_f"] and step3["eta_f"]
    assert not step3["psi_f"]
    assert b.psi_f_text == "2*c3 - 4*c6"
    assert "printed-step3-psi-nonzero" in b.flags


def test_bila_generator_map_is_a_bijection():
    b = verify_bila_procedure()
    assert b.dimension == 12
    targets = [y for _, y in b.generator_map]
    assert sorted(targets) == sorted(f"Y{i}" for i in range(1, 13))


# ---------------------------------------------------------------------------
# reflection

def test_reflection_readings():
    checks = verify_reflection()
    assert len(checks) >= 2
    for rc in checks:
        assert rc.passed
        assert rc.without_sign_flip.zero_like
        assert isinstance(rc.with_sign_flip, NonZero)
        assert "printed-reflection-f-sign" in rc.flags
    # the failing reading carries a concrete witness point
    assert checks[0].with_sign_flip.witness is not None


def test_s2_of_quadratic():
    # u = (x^2 + y^2 + z^2)/2 has unit Hessian, so the operator gives 3
    val = s2_of(parse("(x^2 + y^2 + z^2)/2"))
    assert val == parse("3")


# ---------------------------------------------------------------------------
# invariants and principal algebra

def test_invariant_datasets():
    checks = {c.label: c for c in verify_invariants()}
    a3 = checks["A3"]
    assert a3.passed
    assert all(isinstance(v, ProvedZero) for v in a3.annihilation)
    assert a3.jacobian_rank == 3
    assert a3.f_solvable
    a1 = checks["A1"]
    assert a1.passed
    assert not a1.f_solvable  # no invariant involves f: no invariant rhs


def test_principal_algebra():
    p = verify_principal()
    assert p.passed
    assert p.dimension == 4
    assert p.matches_principal
    assert p.family_dimension == 12
    assert p.symmetry_max_residual <= p.tol
    assert p.span_mismatch is None


def test_principal_span_mismatch_is_recorded(monkeypatch):
    # a tampered principal basis (z*d_u replaced by x^2*d_u) fails the span
    # check, and the record says which field fell outside which span
    tampered = LieBasis("principal", (vf(E4, u="1"), vf(E4, u="x"),
                                      vf(E4, u="y"), vf(E4, u="x^2")))
    monkeypatch.setattr(classify, "principal_basis", lambda: tampered)
    p = verify_principal(n=5)
    assert not p.matches_principal and not p.passed
    assert p.span_mismatch == ("field is not in the span of basis 'principal': "
                               "(z)*d_u leaves residual (z)*d_u")
    rec = next(r for r in run_suite("determining").records
               if r.check_id == "principal-span")
    assert rec.status == "fail"
    assert rec.details.endswith("; span mismatch: " + p.span_mismatch)
    assert "matching the principal algebra" not in rec.details
    assert "4-dimensional span that differs from the principal algebra" in rec.details
