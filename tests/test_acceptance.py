"""Acceptance gate: each stated deliverable at its stated tolerance.

One test per criterion, each asserting the published-versus-recomputed
agreement and its wall-clock budget, then printing a single summary line
(visible under -s; under plain -v the test name itself is the line).
"""

import time

from hessym.catalog import classification_rows
from hessym.classify import (
    s2_of,
    verify_all_rows,
    verify_bila_procedure,
    verify_invariants,
)
from hessym.determining import (
    free_constants_absent,
    numeric_invariance_check,
    residual_on_variety,
    symmetry_condition,
)
from hessym.expr import ZERO, add, sub
from hessym.flows import READINGS, tian_base, verify_all_cases
from hessym.normalize import NumericallyZero, ProvedZero, normalize
from hessym.parse import parse
from hessym.report import SUITE_NAMES, overall_status, run_suite, run_suites


def _line(name: str, dt: float, budget: float, detail: str) -> None:
    print(f"PASS {name}: {detail} [{dt:.2f}s / budget {budget:.0f}s]")


def test_criterion_1_structure_table_reproduction():
    t0 = time.perf_counter()
    rep = run_suite("commutators")
    entries = [r for r in rep.records if r.check_id.startswith("bracket[")]
    assert len(entries) == 64
    assert all(r.status == "pass" for r in entries), [
        r.check_id for r in entries if r.status != "pass"]
    assert rep.status == "pass"
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _line("criterion 1", dt, 1, "all 64 bracket entries match exactly")


def test_criterion_2_adjoint_table_reproduction():
    t0 = time.perf_counter()
    rep = run_suite("adjoint")
    assert len(rep.records) == 8
    for r in rep.records:
        assert r.status == "pass", f"{r.check_id}: {r.details}"
        assert r.residual <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 2.0
    _line("criterion 2", dt, 2,
          "8 adjoint matrices match in closed form; numeric dev <= 1e-10")


def test_criterion_3_optimal_system():
    t0 = time.perf_counter()
    rep = run_suite("optimal")  # 10,000 seeded vectors
    by_id = {r.check_id: r for r in rep.records}
    assert "10000/10000" in by_id["random-reduction"].details
    assert by_id["random-reduction"].residual < 1e-9
    assert by_id["pattern-coverage"].status == "pass"
    for want in ("A1", "A2", "A11"):
        r = by_id[f"proof-case-{want}"]
        assert r.status == "pass" and f"pattern {want}" in r.details
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _line("criterion 3", dt, 10,
          "10000/10000 reduced to the 12 patterns, replay < 1e-9")


def test_criterion_4_determining_identity():
    t0 = time.perf_counter()
    verdict = normalize(add(residual_on_variety(), symmetry_condition()))
    assert verdict == ZERO
    nc = numeric_invariance_check(n=200)
    assert nc.n_points == 200
    assert nc.max_residual < 1e-8
    assert free_constants_absent()
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _line("criterion 4", dt, 10,
          f"identity exact; 200-draw oracle max {nc.max_residual:.1e}; "
          "additive constants free")


def test_criterion_5_equivalence_algebra():
    t0 = time.perf_counter()
    bila = verify_bila_procedure()
    assert bila.main_residual.zero_like
    assert bila.auxiliary_residual.zero_like
    assert bila.dimension == 12
    assert len(bila.generator_map) == 12
    assert {y for _, y in bila.generator_map} == {
        f"Y{i}" for i in range(1, 13)}
    assert "printed-step3-psi-nonzero" in bila.flags
    assert bila.passed  # flagged, not failed
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _line("criterion 5", dt, 10,
          "12 generators recovered; stated step-3 claim flagged")


def test_criterion_6_classification_table():
    t0 = time.perf_counter()
    checks = verify_all_rows(tol=1e-8)
    assert len(checks) == len(classification_rows())
    for chk in checks:
        for v in chk.ansatz_verdicts:
            assert isinstance(v, ProvedZero) or (
                isinstance(v, NumericallyZero) and v.max_residual <= 1e-9), \
                f"{chk.row_id}: {v}"
        assert chk.symmetry.max_residual <= 1e-8, chk.row_id
        assert chk.symmetry.n_points >= 100, chk.row_id
    flagged = {c.row_id: c.flags for c in checks if c.flags}
    assert set(flagged) == {"A10b", "A11b", "A12b"}
    dt = time.perf_counter() - t0
    assert dt < 20.0
    _line("criterion 6", dt, 20,
          f"{len(checks)} rows pass ansatz and symmetry; "
          "documented flags on A10b/A11b/A12b")


def test_criterion_7_worked_invariants():
    t0 = time.perf_counter()
    checks = {c.label: c for c in verify_invariants()}
    a3 = checks["A3"]
    assert len(a3.annihilation) == 3
    assert all(isinstance(v, ProvedZero) for v in a3.annihilation)
    assert a3.f_solvable and a3.passed
    a1 = checks["A1"]
    assert not a1.f_solvable and a1.passed
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _line("criterion 7", dt, 1,
          "A3 invariants annihilate exactly; A1 has no f-invariant")


def test_criterion_8_flows():
    t0 = time.perf_counter()
    base = normalize(sub(s2_of(tian_base(with_bump=False)),
                         parse("t1*t2 + t1*t3 + t2*t3")))
    assert base == ZERO
    checks = verify_all_cases()
    assert len(checks) == 15
    for chk in checks:
        assert chk.group_law.max_residual <= 1e-12, chk.case_id
        assert chk.generator.max_residual <= 1e-8, chk.case_id
        assert chk.equivariance.max_residual <= 1e-7, chk.case_id
        assert (-1, "exp") in chk.matched_readings, chk.case_id
        assert chk.field_consistent, chk.case_id
        recorded = {r for r, _ in chk.readings}
        assert recorded == set(READINGS), chk.case_id
    dt = time.perf_counter() - t0
    assert dt < 15.0
    _line("criterion 8", dt, 15,
          "15 cases: group law 1e-12, generator 1e-8, equivariance 1e-7; "
          "printed comparison recorded; quadratic base exact")


def test_criterion_9_full_verification_run():
    t0 = time.perf_counter()
    reports = run_suites(SUITE_NAMES)
    dt = time.perf_counter() - t0
    status = overall_status(reports)
    assert status in ("pass", "flagged")
    assert dt < 60.0
    flagged = sum(r.counts["flagged"] for r in reports)
    failed = sum(r.counts["fail"] for r in reports)
    assert failed == 0
    _line("criterion 9", dt, 60,
          f"verify all -> {status} ({flagged} flagged, 0 failed); "
          "property suites run in the sibling test modules")
