"""Suite reports: statuses, determinism, and rendering."""

import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hessym import catalog, classify, cli, determining, fields, flows, optimal, report
from hessym.catalog import PUBLISHED_ADJOINT, PUBLISHED_BRACKETS, Z_NAMES, reduced_basis
from hessym.cli import main
from hessym.expr import ZERO, mul, num
from hessym.fields import structure_table
from hessym.normalize import SymmetryCheck
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
    # one definition, in catalog, so that the CLI parser needs no report
    assert SUITE_NAMES is catalog.SUITE_NAMES
    assert tuple(report._SUITES) == SUITE_NAMES
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_no_suite_runs_on_zero_points(name):
    # run_suite refuses the count once, for every suite, before any draw
    for points in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            run_suite(name, points=points)


def test_run_suites_refuses_before_any_suite(monkeypatch):
    ran = []

    def spy(name, **kw):
        ran.append(name)
        return run_suite(name, **kw)

    monkeypatch.setattr(report, "run_suite", spy)
    with pytest.raises(ValueError, match="at least 1"):
        run_suites(SUITE_NAMES, points=0)
    with pytest.raises(KeyError, match="unknown suite"):
        run_suites((*SUITE_NAMES, "nope"))
    assert ran == []


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


def test_one_g8_table_and_adjoint_set_per_process(monkeypatch, capsys):
    # the commutator and adjoint suites, the optimal replay and `tables g8`
    # all read one cached table and one set of adjoint matrices
    calls = {"structure_table": 0, "adjoint": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(catalog, "structure_table",
                        counting("structure_table", fields.structure_table))
    monkeypatch.setattr(catalog, "adjoint", counting("adjoint", fields.adjoint))
    catalog.reduced_table.cache_clear()
    catalog.reduced_adjoints.cache_clear()
    try:
        assert overall_status(run_suites(("commutators", "adjoint", "optimal"),
                                         points=20)) == "pass"
        assert main(["tables", "g8", "--format", "json"]) == 0
        trace = optimal.reduce_to_optimal([1, 0, 0, 0, 0, 0, 1, 0])
        assert optimal.replay_deviation(trace) < 1e-9
    finally:
        catalog.reduced_table.cache_clear()
        catalog.reduced_adjoints.cache_clear()
    capsys.readouterr()
    assert calls == {"structure_table": 1, "adjoint": 8}


def test_tampered_published_bracket_fails(monkeypatch):
    tampered = [list(row) for row in PUBLISHED_BRACKETS]
    tampered[3][4] = "Z6"  # printed -Z6
    monkeypatch.setattr(report, "PUBLISHED_BRACKETS", tampered)
    rep = run_suite("commutators")
    assert rep.status == "fail"
    assert [r.check_id for r in rep.records if r.status == "fail"] == ["bracket[Z4,Z5]"]


def test_tampered_published_adjoint_entry_fails(monkeypatch):
    tampered = {g: {j: dict(col) for j, col in cols.items()}
                for g, cols in PUBLISHED_ADJOINT.items()}
    tampered[4][1][3] = "sin(eps)"  # printed -sin(eps)
    monkeypatch.setattr(report, "PUBLISHED_ADJOINT", tampered)
    rep = run_suite("adjoint")
    assert [r.check_id for r in rep.records if r.status == "fail"] == ["adjoint[Z4]"]
    assert "entry (3,1) recomputes to" in rep.records[3].details


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


def _dense_expm(A):
    """``_expm`` with the full products X P of its Taylor steps: the oracle
    of the route that multiplies only the nonzero entries of X."""
    norm1 = max(sum(abs(v) for v in col) for col in zip(*A))
    s = max(0, math.frexp(norm1)[1])
    X = [[v / 2.0 ** s for v in row] for row in A]
    eye = fields.identity(len(A))
    P = eye
    for k in range(18, 0, -1):
        P = [[e + v / k for e, v in zip(re, rv)] for re, rv in zip(eye, fields.matmul(X, P))]
    for _ in range(s):
        P = fields.matmul(P, P)
    return P


def test_sparse_expm_is_the_dense_one():
    # the deviations of the adjoint suite, and the matrices themselves,
    # to the bit; the random matrices have a few nonzero entries, signed
    # zeros among the rest
    table = structure_table(reduced_basis(), Z_NAMES)
    for i in range(8):
        A = table.ad_matrix(i)
        for eps in (0.1, 0.7, 1.3, -0.4, 6.0):
            minus = [[-eps * float(x) for x in row] for row in A]
            assert list(map(list, _expm(minus))) == list(map(list, _dense_expm(minus)))
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 8)
        A = [[rng.choice((0.0, -0.0)) for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 5)):
            A[rng.randrange(n)][rng.randrange(n)] = rng.uniform(-3, 3)
        got, want = _expm(A), _dense_expm(A)
        assert [[(v, math.copysign(1, v)) for v in row] for row in got] == \
            [[(v, math.copysign(1, v)) for v in row] for row in want]


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


def _coverage(rep):
    return next(r for r in rep.records if r.check_id == "pattern-coverage")


def test_pattern_coverage_does_not_rest_on_the_draws():
    # 50 random draws miss several patterns (A7 is hit by about 1% of
    # draws); the scrambled representative of each normal form covers all 12
    rec = _coverage(run_suite("optimal", points=50))
    assert rec.status == "pass"
    assert len(rec.details.split("random draws hit ")[1].split(", ")) < 12
    assert "except" not in rec.details


def test_pattern_coverage_catches_a_lost_pattern(monkeypatch):
    # a reduction that labels A7 as A8 never returns A7: its scrambled
    # representative comes back as A8, and the record fails
    classify = optimal.classify_vector

    def relabel(a, tol=1e-9):
        pid, sign, params = classify(a, tol)
        return ("A8", 1, params) if pid == "A7" else (pid, sign, params)

    monkeypatch.setattr(optimal, "classify_vector", relabel)
    rec = _coverage(run_suite("optimal", points=50))
    assert rec.status == "fail"
    assert "except A7 -> A8;" in rec.details


def test_a_raising_representative_is_a_lost_pattern(monkeypatch):
    scrambled = report._scrambled_normal_form

    def broken(pid, rng):
        if pid == "A7":
            raise optimal.ReductionError("no representative")
        return scrambled(pid, rng)

    monkeypatch.setattr(report, "_scrambled_normal_form", broken)
    rec = _coverage(run_suite("optimal", points=50))
    assert rec.status == "fail"
    assert "except A7: no representative;" in rec.details


def test_a_raising_proof_case_fails_only_its_own_record(monkeypatch):
    # with entry (6,6) of the printed Ad(exp(eps*Z4)) tampered to 1, the
    # A11 proof vector reduces to no pattern: that case fails with the
    # error, and the other records of the suite are still reported
    try:
        with monkeypatch.context() as m:
            m.setitem(PUBLISHED_ADJOINT[4][6], 6, "1")
            optimal._printed_rows.cache_clear()  # the rows read from the table
            rep = run_suite("optimal", seed=7, points=200)
    finally:
        optimal._printed_rows.cache_clear()
    by_id = {r.check_id: r for r in rep.records}
    assert list(by_id) == ["random-reduction", "pattern-coverage",
                           "proof-case-A1", "proof-case-A2", "proof-case-A11"]
    assert by_id["random-reduction"].status == "fail"
    assert by_id["proof-case-A11"].status == "fail"
    assert "ReductionError: reduced vector matches no pattern" in by_id["proof-case-A11"].details
    assert by_id["proof-case-A1"].status == by_id["proof-case-A2"].status == "pass"


def _tampered_adjoints(gen, k, j, factor):
    """The recomputed adjoint matrices with entry (k, j) of Ad(exp(eps*Z_gen))
    multiplied by ``factor``."""
    mats = list(catalog.reduced_adjoints())
    m = mats[gen - 1]
    rows = [list(row) for row in m.entries]
    assert rows[k][j] != ZERO
    rows[k][j] = mul(num(factor), rows[k][j])
    mats[gen - 1] = fields.AdjointMatrix(m.generator, m.names, tuple(map(tuple, rows)))
    return tuple(mats)


def _random_reduction(rep):
    return next(r for r in rep.records if r.check_id == "random-reduction")


def test_flipped_recomputed_adjoint_entry_fails_random_reduction(monkeypatch):
    # Ad(exp(eps*Z1)) sends a1 to a1 - eps*a8; with the sign of that
    # entry flipped, the replay of every "kill a1" step disagrees
    assert _random_reduction(run_suite("optimal", points=300)).status == "pass"
    mats = _tampered_adjoints(1, 0, 7, -1)
    monkeypatch.setattr(optimal, "reduced_adjoints", lambda: mats)
    rec = _random_reduction(run_suite("optimal", points=300))
    assert rec.status == "fail"
    assert rec.residual > 1e-3


def test_optimal_tol_bounds_the_replay_deviation(monkeypatch, capsys):
    # a relative error of 1e-6 in one recomputed entry: past the default
    # 1e-9, within --tol 1e-3
    mats = _tampered_adjoints(1, 0, 7, Fraction(1000001, 1000000))
    monkeypatch.setattr(optimal, "reduced_adjoints", lambda: mats)
    rec = _random_reduction(run_suite("optimal", points=300))
    assert rec.status == "fail"
    assert 1e-9 < rec.residual < 1e-5
    loose = _random_reduction(run_suite("optimal", points=300, tol=1e-3))
    assert loose.status == "pass"
    assert loose.residual == rec.residual
    argv = ["verify", "optimal", "--points", "300", "--format", "json"]
    assert main(argv) == 1
    assert main(argv + ["--tol", "1e-3"]) == 0
    capsys.readouterr()


def test_reduce_tol_bounds_the_replay_deviation(monkeypatch, capsys):
    # the same 1e-6 relative error: the README vector's "kill a1" step
    # replays through it
    mats = _tampered_adjoints(1, 0, 7, Fraction(1000001, 1000000))
    vec = [0.5, 1.6, 1.1, -1.1, -0.8, 1.5, -2.0, 1.3]
    argv = ["reduce", "--format", "json", "--", ",".join(map(str, vec))]
    assert main(argv) == 0
    honest = capsys.readouterr().out
    monkeypatch.setattr(optimal, "reduced_adjoints", lambda: mats)
    dev = optimal.replay_deviation(optimal.reduce_to_optimal(vec))
    assert 1e-9 < dev < 1e-5
    assert main(argv) == 1
    strict = capsys.readouterr().out
    assert main(argv[:1] + ["--tol", "1e-3"] + argv[1:]) == 0
    assert capsys.readouterr().out == strict != honest
    assert json.loads(strict)["replay_deviation"] == dev


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


def test_equivalence_statuses_follow_the_computed_flags(monkeypatch):
    bila = classify.verify_bila_procedure()
    reflections = classify.verify_reflection()

    def statuses(bila_check, reflection_checks):
        monkeypatch.setattr(classify, "verify_bila_procedure", lambda: bila_check)
        monkeypatch.setattr(classify, "verify_reflection", lambda seed: reflection_checks)
        return {r.check_id: r.status for r in run_suite("equivalence").records}

    # psi_f = 0: every step-3 claim holds and nothing is flagged
    held = bila._replace(step3=tuple((name, True) for name, _ in bila.step3),
                         psi_f_text="0", flags=())
    got = statuses(held, tuple(c._replace(flags=()) for c in reflections))
    assert got["rhs-coefficient-claims"] == "pass"
    assert got["reflection[polynomial]"] == got["reflection[transcendental]"] == "pass"

    # a failing step-3 claim fails, flag or no flag
    broken = (("xi_f", False),) + bila.step3[1:]
    for check in (bila._replace(step3=broken), held._replace(step3=broken)):
        assert statuses(check, reflections)["rhs-coefficient-claims"] == "fail"


# the scopes of each module that may name a status value: the one rule that
# makes a status in catalog, and in report the two that aggregate or count
# statuses
STATUS_RULES = {
    catalog: {"check_status"},
    report: {"overall_status", "SuiteReport.counts"},
    cli: set(),
}


def test_status_literals_only_in_the_status_rules():
    # a status literal elsewhere is a status decided without the rule; a
    # key that reads a count (counts["pass"]) decides none
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            visit(node.value, module, scope)
            return
        elif (isinstance(node, ast.Constant) and node.value in ("pass", "flagged", "fail")
              and scope not in STATUS_RULES[module]):
            found.append(f"{module.__name__}:{scope or '<module>'}:{node.lineno}: "
                         f"{node.value!r}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module in STATUS_RULES:
        visit(ast.parse(Path(module.__file__).read_text()), module, "")
    assert found == []


def test_suites_take_only_the_options_they_read():
    # a suite names each option it reads, so that run_suite can refuse the
    # others: no **kwargs that would swallow them, and nothing beyond the
    # three options verify has
    tree = ast.parse(Path(report.__file__).read_text())
    suites = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")]
    assert len(suites) == len(SUITE_NAMES)
    for node in suites:
        args = node.args
        assert args.kwarg is None and args.vararg is None, node.name
        assert not args.kwonlyargs and not args.posonlyargs, node.name
        names = [a.arg for a in args.args]
        assert names[0] == "seed" and set(names) <= {"seed", "tol", "points"}, node.name


@pytest.mark.parametrize("residual,check_tol,status", [
    (1e-3, 1e-2, "pass"),      # past the suite's 1e-8, within the check's bound
    (1e-12, 1e-15, "fail"),    # within 1e-8, past the check's bound
])
def test_numeric_oracle_takes_its_status_from_the_check(monkeypatch, residual,
                                                        check_tol, status):
    # the suite hands its tolerance to the check and records the check's
    # verdict; it compares no residual itself
    given = []

    def check(n, seed, tol):
        given.append(tol)
        return SymmetryCheck(residual, n, check_tol)

    monkeypatch.setattr(determining, "numeric_invariance_check", check)
    for tol in (None, 1e-5):
        rec = run_suite("determining", points=3, tol=tol).records[1]
        assert rec.check_id == "numeric-oracle"
        assert rec.status == status
        assert rec.residual == residual
    assert given == [1e-8, 1e-5]


def test_flows_tol_replaces_the_equivariance_bound(monkeypatch, capsys):
    # a weight off by 1e-6 puts every case's equivariance residual between
    # the default bound 1e-7 and 1e-5: a looser --tol passes the cases and
    # a tighter one fails them
    honest = {r.check_id: r.status for r in run_suite("flows", points=4).records}
    weight = flows.equivariance_weight
    monkeypatch.setattr(flows, "equivariance_weight",
                        lambda v: weight(v) + Fraction(1, 10**6))
    default = run_suite("flows", points=4)
    cases = [r for r in default.records if r.check_id.startswith("case[")]
    assert len(cases) == 15
    assert all(1e-7 < r.residual < 1e-5 and r.status == "fail" for r in cases)
    loose = run_suite("flows", points=4, tol=1e-5)
    assert {r.check_id: r.status for r in loose.records} == honest
    assert [r.residual for r in loose.records] == [r.residual for r in default.records]
    tight = run_suite("flows", points=4, tol=min(r.residual for r in cases) / 2)
    assert all(r.status == "fail" for r in tight.records if r.check_id.startswith("case["))
    argv = ["verify", "flows", "--points", "4", "--format", "json"]
    assert main(argv) == 1
    assert main(argv + ["--tol", "1e-5"]) == 0
    assert main(argv + ["--tol", "1e-7"]) == 1
    capsys.readouterr()


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

def _rec(passed, flags=()):
    return CheckRecord("c", passed, None, "d", "a", flags)


PASSED, FLAGGED, FAILED = _rec(True), _rec(True, ("a-flag",)), _rec(False)


@pytest.mark.parametrize("passed,flags,status", [
    (True, (), "pass"),
    (True, ("a-flag",), "flagged"),
    (True, ("a-flag", "another"), "flagged"),
    (False, (), "fail"),
    (False, ("a-flag",), "fail"),
])
def test_the_status_rule(passed, flags, status):
    rec = _rec(passed, flags)
    assert rec.status == status
    assert rec.to_json_dict() == {"id": "c", "status": status, "residual": None,
                                  "details": "d", "anchor": "a"}


def test_status_aggregation():
    assert SuiteReport("s", 0, (PASSED, PASSED)).status == "pass"
    assert SuiteReport("s", 0, (PASSED, FLAGGED)).status == "flagged"
    assert SuiteReport("s", 0, (FLAGGED, FAILED)).status == "fail"
    assert overall_status([SuiteReport("a", 0, (FLAGGED,)),
                           SuiteReport("b", 0, (PASSED,))]) == "flagged"
    assert overall_status([SuiteReport("a", 0, (FAILED,))]) == "fail"


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


# (id, status) of every check of `hessym verify all --format json --seed S`
# at three seeds, by suite.  Residual bytes are not pinned: a change to the
# draws may move them, but no id or status.
GOLDEN_STATUSES = Path(__file__).with_name("verify_all_statuses.json")


@pytest.mark.parametrize("seed", ["7", "11", "12345"])
def test_verify_all_statuses_match_the_golden_file(seed, capsys):
    main(["verify", "all", "--format", "json", "--seed", seed])
    out = json.loads(capsys.readouterr().out)
    got = {s["suite"]: [[c["id"], c["status"]] for c in s["checks"]] for s in out["suites"]}
    assert got == json.loads(GOLDEN_STATUSES.read_text())[seed]


# perfbench/run.py refuses a `verify` run whose id -> status map of any suite
# differs from this file's, so a new or renamed record needs it updated too
BENCHMARK_STATUSES = Path(__file__).parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("seed", ["7", "11", "12345"])
def test_golden_statuses_are_the_benchmarks_pinned_statuses(seed):
    golden = json.loads(GOLDEN_STATUSES.read_text())[seed]
    pinned = json.loads(BENCHMARK_STATUSES.read_text())["statuses"]
    # the suites in `verify all` order, as run.py also checks
    assert [(suite, dict(map(tuple, checks))) for suite, checks in golden.items()] \
        == list(pinned.items())
