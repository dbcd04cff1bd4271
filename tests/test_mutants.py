"""Mutants: each breaks one rule of the kernel or one entry of a catalog,
and the report must see it.

A kernel mutant replaces one line of one function of ``hessym.normalize``
in a fresh process and redefines the function in the module, so every
caller inside the module runs the broken rule.  A catalog mutant tampers
with one published artifact in this process, and the record anchored on
that artifact must turn to fail, or the mutant is listed as a survivor
with the reason it survives.  Each entry mutant of the printed adjoint
table must fail both the entry's ``adjoint`` record and the reduction
that reads the table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hessym
from hessym import catalog, optimal
from hessym.report import SUITE_NAMES, run_suite

# (function, the line as written, the broken line)
MUTANTS = {
    # the sum of two fractions over one denominator forgets the second
    "fadd-drops-n2": ("_fadd", "        return _padd(n1, n2), d1",
                      "        return n1, d1"),
    # a coefficient of magnitude at most 1 made by adding two terms is lost
    "padd-drops-small-sums": ("_padd", "        s = c if s is None else s + c",
                              "        s = c if s is None else s + c if abs(s + c) > 1 else 0"),
    # sqrt(P)^2 becomes P + 1
    "fold-sqrt-off-by-one": ("_fold_sqrt", "_ppow(root, k // 2)",
                             "_ppow(_padd(root, _PONE), k // 2)"),
}

RUN = """
import importlib, inspect, sys
nz = importlib.import_module("hessym.normalize")
func, old, new = sys.argv[1:4]
src = inspect.getsource(getattr(nz, func))
if src.count(old) != 1:
    sys.exit(f"{func} does not hold the line {old!r} once")  # exit status 1
exec(src.replace(old, new), nz.__dict__)
from hessym.cli import main
sys.exit(main(sys.argv[4:]))
"""


def _run_mutant(name: str, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(hessym.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", RUN, *MUTANTS[name], *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["fadd-drops-n2", "padd-drops-small-sums"])
def test_arithmetic_mutant_fails_verify_all(name):
    out = _run_mutant(name, "verify", "all", "--format", "json")
    assert out.returncode == 1, out.stderr
    report = json.loads(out.stdout)
    assert report["status"] == "fail"
    assert tuple(s["suite"] for s in report["suites"]) == SUITE_NAMES


def test_sqrt_fold_mutant_fails_the_sqrt_rows():
    out = _run_mutant("fold-sqrt-off-by-one", "verify", "classification", "--format", "json")
    assert out.returncode == 1, out.stderr
    failed = {r["id"] for r in json.loads(out.stdout)["checks"] if r["status"] == "fail"}
    assert failed == {"row[A7]", "row[A9b]"}


def _move_pattern_role(pid: str, old: int, new: int):
    """Normal form ``pid`` with the role of Z_old written on Z_new."""
    def tamper(m: pytest.MonkeyPatch) -> None:
        spec = dict(catalog.OPTIMAL_PATTERNS[pid])
        spec[new] = spec.pop(old)
        m.setitem(catalog.OPTIMAL_PATTERNS, pid, dict(sorted(spec.items())))
    return tamper


def _flip_a3_invariant_exponent(m: pytest.MonkeyPatch) -> None:
    a3, *rest = catalog.invariant_datasets()
    assert a3.label == "A3" and a3.invariants[2] == "f*exp(-(2/g1)*atan(y/z))"
    flipped = a3._replace(invariants=(*a3.invariants[:2], "f*exp((2/g1)*atan(y/z))"))
    m.setattr(catalog, "_INVARIANTS", (flipped, *rest))


def _rescale_case_6(m: pytest.MonkeyPatch) -> None:
    assert catalog.case_by_id(6).u_scale_text == "1/(1 + t)"
    m.setattr(catalog, "_CASES", tuple(c._replace(u_scale_text="1/(1 + 2*t)") if c.case_id == 6
                                       else c for c in catalog.flow_cases()))


def _double_a3_printed_u(m: pytest.MonkeyPatch) -> None:
    # case 6 acts by row A3's printed extra symmetry
    a3 = catalog.row_by_id("A3")
    assert a3.v5_text["u"] == "u" and catalog.case_by_id(6).row_id == "A3"
    doubled = a3._replace(v5_text={**a3.v5_text, "u": "2*u"})
    m.setattr(catalog, "_ROWS", tuple(doubled if r is a3 else r
                                      for r in catalog.classification_rows()))


# name -> (suite, the record anchored on the tampered artifact, tamper)
CATALOG_MUTANTS = {
    "pattern-A3-g-on-Z4": ("optimal", "pattern-coverage", _move_pattern_role("A3", 6, 4)),
    "pattern-A3-g-on-Z5": ("optimal", "pattern-coverage", _move_pattern_role("A3", 6, 5)),
    "invariant-A3-exponent-sign": ("invariants", "invariants[A3]", _flip_a3_invariant_exponent),
    "case-6-u-scale": ("flows", "case[6]", _rescale_case_6),
    "row-A3-printed-u-doubled": ("flows", "case[6]", _double_a3_printed_u),
}

# each entry of the printed adjoint table other than 1, with its mutant:
# eps and sin change sign, cos and exp become 1
_ENTRY_MUTANTS = {"eps": "-eps", "-eps": "eps", "sin(eps)": "-sin(eps)",
                  "-sin(eps)": "sin(eps)", "cos(eps)": "1", "exp(eps)": "1"}

# name -> (generator, column, row, the tampered entry)
ADJOINT_MUTANTS = {f"adjoint-Z{g}-col{k}-row{j}": (g, k, j, _ENTRY_MUTANTS[entry])
                   for g, cols in catalog.PUBLISHED_ADJOINT.items()
                   for k, col in cols.items() for j, entry in col.items() if entry != "1"}

_COLUMN_8_UNREAD = ("the reduction tree applies Z2 and Z3 only where a8 = 0, and the "
                    "scrambled representatives use only Z1 and Z8 when a pattern holds "
                    "Z8, so no step multiplies this entry by a nonzero a8")

# the catalog mutants whose records stay short of fail, each with why
SURVIVORS = {
    "pattern-A3-g-on-Z5": "classify_vector takes the first pattern that fits and nothing "
                          "checks that the normal forms are disjoint: the reduction tree's "
                          "(Z6, Z7) vectors then read as A7 with a = 0, its (Z5, Z7) "
                          "vectors as the moved A3 ahead of A9 with a = 0, and the moved "
                          "representative reduces back to itself",
    "case-6-u-scale": "the printed-scale-first-order flag rests on its catalog label "
                      "alone: the record passes on the (-1, exp) reading, and the "
                      "literal reading, the one that reads u_scale_text, only "
                      "fills the details",
    "adjoint-Z2-col8-row2": _COLUMN_8_UNREAD,
    "adjoint-Z3-col8-row3": _COLUMN_8_UNREAD,
}

_OPTIONS = {"optimal": {"points": 200}, "invariants": {}, "flows": {"points": 4},
            "adjoint": {}}


def _statuses(suite: str) -> dict[str, str]:
    return {r.check_id: r.status for r in run_suite(suite, **_OPTIONS[suite]).records}


def _status(suite: str, record: str) -> str:
    return _statuses(suite)[record]


@pytest.mark.parametrize("name", CATALOG_MUTANTS)
def test_catalog_mutant_fails_its_record(monkeypatch, name):
    suite, record, tamper = CATALOG_MUTANTS[name]
    assert _status(suite, record) != "fail"
    try:
        with monkeypatch.context() as m:
            tamper(m)
            optimal._candidates.cache_clear()  # the patterns' support index
            status = _status(suite, record)
    finally:
        optimal._candidates.cache_clear()
    if name in SURVIVORS:
        assert status != "fail", f"{name} is killed now: drop it from SURVIVORS"
    else:
        assert status == "fail"


def test_every_printed_adjoint_entry_has_a_mutant():
    assert len(ADJOINT_MUTANTS) == 36


@pytest.mark.parametrize("name", ADJOINT_MUTANTS)
def test_adjoint_entry_mutant_fails_adjoint_and_the_reduction(monkeypatch, name):
    # the adjoint suite compares the entry with its recomputed closed form,
    # and the reduction tree and the scrambled representatives read it
    gen, col, row, entry = ADJOINT_MUTANTS[name]
    assert _status("adjoint", f"adjoint[Z{gen}]") == "pass"
    try:
        with monkeypatch.context() as m:
            m.setitem(catalog.PUBLISHED_ADJOINT[gen][col], row, entry)
            optimal._printed_rows.cache_clear()  # the rows read from the table
            adjoint = _status("adjoint", f"adjoint[Z{gen}]")
            reduction = _statuses("optimal")
    finally:
        optimal._printed_rows.cache_clear()
    assert adjoint == "fail"
    # a proof case that no longer reduces fails its own record, and the
    # suite still reports every other record
    assert "suite-error[optimal]" not in reduction
    killed = "fail" in reduction.values()
    if name in SURVIVORS:
        assert not killed, f"{name} is killed now: drop it from SURVIVORS"
    else:
        assert killed, reduction
