"""Suite reports: statuses, determinism, and rendering."""

import json

import numpy as np
import pytest

from hessym.catalog import Z_NAMES, reduced_basis
from hessym.fields import structure_table
from hessym.report import (
    CheckRecord,
    SUITE_NAMES,
    SuiteReport,
    _expm,
    overall_status,
    render_json,
    render_markdown,
    run_suite,
    run_suites,
)

FAST = {"commutators": {}, "adjoint": {}, "optimal": {"points": 400},
        "invariants": {}, "equivalence": {},
        "classification": {"points": 25}, "flows": {"points": 8}}


@pytest.fixture(scope="module")
def reports():
    return {name: run_suite(name, **kw) for name, kw in FAST.items()}


def test_suite_registry():
    assert SUITE_NAMES == ("commutators", "adjoint", "optimal", "determining",
                           "equivalence", "classification", "invariants",
                           "flows")
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")


# ---------------------------------------------------------------------------
# per-suite outcomes

def test_commutators_all_pass(reports):
    rep = reports["commutators"]
    assert rep.status == "pass"
    assert len(rep.records) == 66
    assert {r.anchor for r in rep.records} == {"structure-table:g8"}
    ids = [r.check_id for r in rep.records]
    assert len(set(ids)) == len(ids)
    assert "bracket[Z4,Z5]" in ids


def test_adjoint_all_pass(reports):
    rep = reports["adjoint"]
    assert rep.status == "pass"
    assert len(rep.records) == 8
    assert all(r.residual is not None and r.residual <= 1e-10
               for r in rep.records)


def test_expm_matches_scipy():
    import scipy.linalg  # the oracle; hessym itself never loads scipy

    table = structure_table(reduced_basis(), Z_NAMES)
    for i in range(8):
        A = np.array([[float(x) for x in row] for row in table.ad_matrix(i)])
        for eps in (-0.1, 0.1, 0.7, 1.3, 5.0):
            W = scipy.linalg.expm(-eps * A)
            assert np.max(np.abs(_expm(-eps * A) - W)) <= 1e-12 * max(1.0, np.max(np.abs(W)))
    rng = np.random.default_rng(20240229)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.01, 50) / np.linalg.norm(A, 1)
        W = scipy.linalg.expm(A)
        assert np.max(np.abs(_expm(A) - W)) <= 1e-11 * np.max(np.abs(W))


def test_optimal_pass_with_coverage(reports):
    rep = reports["optimal"]
    assert rep.status == "pass"
    by_id = {r.check_id: r for r in rep.records}
    assert "400/400" in by_id["random-reduction"].details
    assert by_id["random-reduction"].residual < 1e-9
    for pat in ("A1:", "A7:", "A12:"):
        assert pat in by_id["pattern-coverage"].details
    assert by_id["proof-case-A1"].status == "pass"
    assert by_id["proof-case-A2"].status == "pass"
    assert by_id["proof-case-A11"].status == "pass"


def test_determining_suite_passes():
    rep = run_suite("determining", points=60)
    assert rep.status == "pass"
    assert [r.check_id for r in rep.records] == [
        "symbolic-identity", "numeric-oracle", "free-constants",
        "principal-span"]
    assert "ProvedZero" in rep.records[0].details


def test_equivalence_flags_but_never_fails(reports):
    rep = reports["equivalence"]
    assert rep.status == "flagged"
    by_status = {r.check_id: r.status for r in rep.records}
    assert by_status["rhs-coefficient-claims"] == "flagged"
    assert by_status["reflection[polynomial]"] == "flagged"
    assert by_status["reflection[transcendental]"] == "flagged"
    assert by_status["generator-map"] == "pass"
    assert by_status["family-residual"] == "pass"
    assert "fail" not in by_status.values()


def test_classification_flags_expected_rows(reports):
    rep = reports["classification"]
    assert rep.status == "flagged"
    assert len(rep.records) == 15
    flagged = {r.check_id for r in rep.records if r.status == "flagged"}
    assert flagged == {"row[A10b]", "row[A11b]", "row[A12b]"}
    assert all(r.status in ("pass", "flagged") for r in rep.records)


def test_invariants_pass(reports):
    rep = reports["invariants"]
    assert rep.status == "pass"
    details = {r.check_id: r.details for r in rep.records}
    assert "an invariant depends on f" in details["invariants[A3]"]
    assert "no invariant involves f" in details["invariants[A1]"]


def test_flows_flags_printed_factor_cases(reports):
    rep = reports["flows"]
    assert rep.status == "flagged"
    assert len(rep.records) == 16
    by_id = {r.check_id: r for r in rep.records}
    assert by_id["base-family"].status == "pass"
    flagged = {r.check_id for r in rep.records if r.status == "flagged"}
    assert flagged == {f"case[{i}]" for i in range(5, 16)}
    assert "read as exp(t)" in by_id["case[5]"].details
    assert "(-1,exp)" in by_id["case[9]"].details


# ---------------------------------------------------------------------------
# aggregation and rendering

def _rec(status):
    return CheckRecord("c", status, None, "d", "a")


def test_status_aggregation():
    assert SuiteReport("s", 0, (_rec("pass"), _rec("pass"))).status == "pass"
    assert SuiteReport("s", 0, (_rec("pass"), _rec("flagged"))).status == "flagged"
    assert SuiteReport("s", 0, (_rec("flagged"), _rec("fail"))).status == "fail"
    assert overall_status([SuiteReport("a", 0, (_rec("flagged"),)),
                           SuiteReport("b", 0, (_rec("pass"),))]) == "flagged"
    assert overall_status([SuiteReport("a", 0, (_rec("fail"),))]) == "fail"


def test_json_shape_and_determinism(reports):
    text = render_json(reports["invariants"])
    obj = json.loads(text)
    assert set(obj) == {"suite", "seed", "status", "checks"}
    assert set(obj["checks"][0]) == {"id", "status", "residual", "details",
                                     "anchor"}
    assert "wall" not in text
    again = render_json(run_suite("invariants"))
    assert text == again


def test_json_multi_suite_wrapper(reports):
    text = render_json((reports["commutators"], reports["invariants"]))
    obj = json.loads(text)
    assert set(obj) == {"status", "suites"}
    assert [s["suite"] for s in obj["suites"]] == ["commutators", "invariants"]


def test_optimal_suite_is_seed_deterministic():
    a = render_json(run_suite("optimal", seed=11, points=150))
    b = render_json(run_suite("optimal", seed=11, points=150))
    assert a == b


def test_markdown_rendering(reports):
    md = render_markdown(reports["invariants"])
    assert md.startswith("## invariants - PASS")
    assert "| check | status | residual | source | details |" in md
    assert "| invariants[A3] | pass |" in md
    both = render_markdown((reports["invariants"], reports["adjoint"]))
    assert "overall: pass" in both


def test_run_suites_order_preserved():
    reps = run_suites(("adjoint", "commutators"))
    assert [r.suite for r in reps] == ["adjoint", "commutators"]
    assert all(r.wall_time > 0 for r in reps)
