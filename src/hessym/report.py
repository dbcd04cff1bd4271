"""Verification suites and their machine-readable reports.

Each suite replays one family of checks and emits records with a stable
id, a status, the governing residual, and an anchor naming the published
table, row, or case being rechecked.  Status semantics: ``fail`` marks a
genuine mismatch, ``flagged`` marks a check that passes only under a
documented corrected reading of the source (these never fail a run), and
a suite fails iff some non-flagged record fails.  A record holds whether
its check passed and the flags it raised, and ``CheckRecord.status``
turns them into a status by ``catalog.check_status``, the rule that the
CLI's own verdicts follow too.

JSON renderings are byte-identical across runs for a fixed seed; timing
never enters them.
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import NamedTuple

from . import classify, determining, flows, optimal
from .catalog import (
    FREE_CONSTANTS,
    OPTIMAL_PATTERNS,
    PUBLISHED_ADJOINT,
    PUBLISHED_BRACKETS,
    SUITE_NAMES,
    Z_NAMES,
    check_status,
    reduced_adjoints,
    reduced_table,
)
from .expr import EvalDomainError, add
from .fields import (
    Rows, format_combination, identity, matmul, max_abs_diff,
)
from .normalize import (
    DEFAULT_SEED, SymmetryCheck, choice, integer, is_zero, normalize, signed, subset, uniform,
)
from .parse import parse

__all__ = [
    "CheckRecord", "SuiteReport", "SUITE_NAMES", "run_suite", "run_suites",
    "overall_status", "render_json", "render_markdown",
]


class CheckRecord(NamedTuple):
    check_id: str
    passed: bool
    residual: float | None
    details: str
    anchor: str
    flags: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return check_status(self.passed, bool(self.flags))

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "residual": self.residual,
            "details": self.details,
            "anchor": self.anchor,
        }


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    records: tuple[CheckRecord, ...]
    wall_time: float = 0.0      # console-only, never serialized

    @property
    def status(self) -> str:
        return overall_status(self.records)

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "flagged": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "status": self.status,
            "checks": [r.to_json_dict() for r in self.records],
        }


# ---------------------------------------------------------------------------
# individual suites

def suite_commutators(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Recompute the bracket table of the reduced algebra and diff it
    against the published entries."""
    table = reduced_table()
    records = []
    for i in range(8):
        for j in range(8):
            got = format_combination(table.c[i][j], Z_NAMES)
            want = PUBLISHED_BRACKETS[i][j]
            ok = got == want
            details = f"[{Z_NAMES[i]}, {Z_NAMES[j]}] = {got}"
            if not ok:
                details += f" (published: {want})"
            records.append(CheckRecord(
                f"bracket[{Z_NAMES[i]},{Z_NAMES[j]}]", ok, None,
                details, "structure-table:g8"))
    records.append(CheckRecord(
        "antisymmetry", table.check_antisymmetry(), None,
        "c[i][j][k] = -c[j][i][k] for all entries, exact",
        "structure-table:g8"))
    records.append(CheckRecord(
        "jacobi", table.check_jacobi(), None,
        "Jacobi identity holds exactly in coordinates",
        "structure-table:g8"))
    return SuiteReport("commutators", seed, tuple(records))


def _expm(A: Rows) -> Rows:
    """exp(A) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
    26, 2005): the degree-18 Taylor polynomial of A/2^s, where s makes the
    1-norm of A/2^s at most 1, so the truncation error is below 1/19!
    (about 8e-18), then squared s times.  Purely numeric, so it checks the
    exact closed forms independently.  The products X P of the Taylor
    steps take only the nonzero entries of X (an ad matrix has a few of
    its 64); the ones they skip are exact zeros of a left-to-right sum."""
    norm1 = max(sum(abs(v) for v in col) for col in zip(*A))
    s = max(0, math.frexp(norm1)[1])
    X = [[v / 2.0 ** s for v in row] for row in A]
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in X]
    eye = identity(len(A))
    P = eye
    for k in range(18, 0, -1):
        P = [[e + sum([v * P[j][col] for j, v in nz]) / k for col, e in enumerate(re)]
             for re, nz in zip(eye, nonzero)]
    for _ in range(s):
        P = matmul(P, P)
    return P


def suite_adjoint(seed: int = DEFAULT_SEED, tol: float = 1e-10) -> SuiteReport:
    """Closed forms of the eight adjoint matrices against the published
    entries, plus a numeric cross-check against the matrix exponential."""
    table = reduced_table()
    records = []
    for gen, ad in enumerate(reduced_adjoints(), start=1):
        mismatches = []
        cols = PUBLISHED_ADJOINT[gen]
        for j in range(8):
            col = cols.get(j + 1, {j + 1: "1"})
            for k in range(8):
                want = normalize(parse(col.get(k + 1, "0")))
                if normalize(ad.entries[k][j]) != want:
                    mismatches.append(f"entry ({k + 1},{j + 1}) recomputes to "
                                      f"{format_combination(ad.column(j), Z_NAMES)}")
        A = table.ad_matrix(gen - 1)
        dev = 0.0
        for eps in (0.1, 0.7, 1.3):
            minus = [[-eps * float(x) for x in row] for row in A]
            dev = max(dev, max_abs_diff(ad.eval_at(eps), _expm(minus)))
        ok = not mismatches and SymmetryCheck(dev, 3, tol).passed
        details = (f"64 entries match the published closed forms; "
                   f"max deviation from expm(-eps ad) is {dev:.2e}"
                   if not mismatches else "; ".join(mismatches))
        records.append(CheckRecord(
            f"adjoint[Z{gen}]", ok, dev, details,
            f"adjoint-table:Z{gen}"))
    return SuiteReport("adjoint", seed, tuple(records))


def _scrambled_normal_form(pid: str, rng: random.Random,
                           ) -> tuple[list[float], int | None, dict[str, float]]:
    """A random representative of normal form ``pid`` with its sign and
    parameters, the representative moved along its orbit by steps that the
    printed reduction tree undoes without leaving the pattern: translations
    (Z1 alone when a8 != 0, where the tree kills a1 only), the space
    scaling Z8, and a nonzero rescale."""
    spec = OPTIMAL_PATTERNS[pid]
    a = [0.0] * 8
    sign, params = None, {}
    for j, role in spec.items():
        if role == "1":
            a[j - 1] = 1.0
        elif role == "pm":
            sign = choice(rng, (1, -1))
            a[j - 1] = float(sign)
        else:  # parameters away from 0, so the representative keeps its pattern
            a[j - 1] = params[role] = signed(rng, 0.3, 2.0)
    gens = (1, 8) if 8 in spec else (1, 2, 3, 8)
    for _ in range(integer(rng, 1, 5)):
        a = optimal.published_adjoint_vector(choice(rng, gens), a, uniform(rng, -1.5, 1.5))
    scale = signed(rng, 0.2, 5.0)
    return [v * scale for v in a], sign, params


def suite_optimal(seed: int = DEFAULT_SEED, tol: float = 1e-9,
                  points: int = 10000) -> SuiteReport:
    """Bulk random reductions with two-route replay, a scrambled
    representative of every normal form, and the hand-picked vectors that
    walk the main proof branches.  ``tol`` bounds the replay deviation."""
    rng = random.Random(seed)
    worst = 0.0
    failures = 0
    seen: dict[str, int] = {}
    for _ in range(points):
        a = [uniform(rng, -2, 2) for _ in range(8)]
        for i in subset(rng, range(8), integer(rng, 0, 7)):
            a[i] = 0.0
        if a[6] == 0.0 and a[7] == 0.0:
            # the normal forms all contain Z7 or Z8; stay in their orbits
            a[6] = signed(rng, 0.3, 2.0)
        try:
            tr = optimal.reduce_to_optimal(a)
        except optimal.ReductionError:
            failures += 1
            continue
        seen[tr.pattern] = seen.get(tr.pattern, 0) + 1
        worst = max(worst, optimal.replay_deviation(tr))
    ok = failures == 0 and SymmetryCheck(worst, points - failures, tol).passed
    # random draws reach some patterns rarely (A7 in about 1% of them), so
    # coverage rests on one scrambled representative of each normal form
    lost = []
    for pid in OPTIMAL_PATTERNS:
        try:
            a, sign, params = _scrambled_normal_form(pid, rng)
            tr = optimal.reduce_to_optimal(a)
        except (optimal.ReductionError, EvalDomainError) as exc:
            lost.append(f"{pid}: {exc}")
            continue
        if (tr.pattern != pid or tr.sign != sign
                or any(abs(tr.parameters[k] - v) > 1e-9 * max(1.0, abs(v))
                       for k, v in params.items())):
            lost.append(f"{pid} -> {tr.pattern}")
    records = [
        CheckRecord("random-reduction", ok, worst,
                    f"{points - failures}/{points} vectors reduced to a normal form; "
                    f"worst two-route replay deviation {worst:.2e}",
                    "optimal-system"),
        CheckRecord("pattern-coverage", not lost, None,
                    f"scrambled representatives of the {len(OPTIMAL_PATTERNS)} normal "
                    "forms reduce back to their pattern, sign and parameters"
                    + (f" except {', '.join(lost)}" if lost else "")
                    + "; random draws hit " + ", ".join(
                        f"{k}:{seen[k]}" for k in sorted(seen)),
                    "optimal-system"),
    ]
    picked = (
        ("proof-case-A1", [0, 0, 0, 0, 0, 0, 1, 0], "A1"),
        ("proof-case-A2", [1, 0, 0, 0, 0, 0, 1, 0], "A2"),
        ("proof-case-A11", [0, 0, 0, 0.5, -0.2, 0.7, 2.0, 1.0], "A11"),
    )
    for cid, vec, want in picked:
        try:
            tr = optimal.reduce_to_optimal(vec)
            chk = optimal.replay_check(tr, tol)
        except (optimal.ReductionError, EvalDomainError) as exc:
            records.append(CheckRecord(cid, False, None,
                                       f"{vec} -> {type(exc).__name__}: {exc}",
                                       f"optimal-system:{want}"))
            continue
        records.append(CheckRecord(
            cid, tr.pattern == want and chk.passed, chk.max_residual,
            f"{vec} -> pattern {tr.pattern} in {len(tr.steps)} steps",
            f"optimal-system:{want}"))
    return SuiteReport("optimal", seed, tuple(records))


def suite_determining(seed: int = DEFAULT_SEED, tol: float = 1e-8,
                      points: int = 200) -> SuiteReport:
    """The invariance identity of the twelve-constant candidate, its
    numeric oracle, the free constants, and the principal span."""
    verdict = is_zero(add(determining.residual_on_variety(), determining.symmetry_condition()),
                      mode="symbolic")
    records = [CheckRecord(
        "symbolic-identity", verdict.zero_like, None,
        f"restricted residual of the solved candidate collapses to minus "
        f"the first-order condition on f: {verdict}",
        "determining-system")]

    chk = determining.numeric_invariance_check(n=points, seed=seed, tol=tol)
    records.append(CheckRecord(
        "numeric-oracle", chk.passed, chk.max_residual,
        f"unrestricted residual plus transport condition on {chk.n_points} "
        f"on-variety points with random constants: max {chk.max_residual:.2e}",
        "determining-system"))

    records.append(CheckRecord(
        "free-constants", determining.free_constants_absent(), None,
        f"additive constants {', '.join(FREE_CONSTANTS)} impose no condition",
        "determining-system"))

    pr = classify.verify_principal(seed=seed)
    span = ("matching the principal algebra" if pr.matches_principal
            else "that differs from the principal algebra")
    records.append(CheckRecord(
        "principal-span", pr.passed, pr.symmetry.max_residual,
        f"generic right-hand side leaves a {pr.dimension}-dimensional span "
        f"{span}; conditioned family has dimension "
        f"{pr.family_dimension}; worst on-variety residual "
        f"{pr.symmetry.max_residual:.2e} over {pr.symmetry.n_points} points"
        + (f"; span mismatch: {pr.span_mismatch}" if pr.span_mismatch else ""),
        "principal-algebra"))
    return SuiteReport("determining", seed, tuple(records))


def suite_equivalence(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Replay of the equivalence-algebra derivation and of the discrete
    reflection, with the two documented printed slips flagged."""
    bila = classify.verify_bila_procedure()
    records = [
        CheckRecord("family-residual", bila.main_residual.zero_like,
                    None, f"prolonged candidate annihilates the equation on "
                    f"the variety: {bila.main_residual}",
                    "equivalence-derivation"),
        CheckRecord("auxiliary-residual",
                    bila.auxiliary_residual.zero_like, None,
                    f"augmentation system residual: {bila.auxiliary_residual}",
                    "equivalence-derivation"),
        CheckRecord("coefficient-independence", all(ok for _, ok in bila.step2),
                    None, "; ".join(f"{name}: {'holds' if ok else 'fails'}"
                                    for name, ok in bila.step2),
                    "equivalence-derivation"),
    ]
    step3_ok = all(ok for name, ok in bila.step3 if not name.startswith("psi"))
    records.append(CheckRecord(
        "rhs-coefficient-claims", step3_ok, None,
        "; ".join(f"{name}: {'holds' if ok else 'fails'}" for name, ok in bila.step3)
        + f"; psi_f = {bila.psi_f_text}, consistent with the listed scalings "
        "but not with the stated f-independence",
        "equivalence-derivation", bila.flags))
    records.append(CheckRecord(
        "generator-map", bila.dimension == 12, None,
        f"{bila.dimension} one-hot constants map onto the 12 generators: "
        + ", ".join(f"{c}->{y}" for c, y in bila.generator_map),
        "equivalence-generators"))

    for kind, chk in zip(("polynomial", "transcendental"),
                         classify.verify_reflection(seed=seed)):
        records.append(CheckRecord(
            f"reflection[{kind}]", chk.passed, None,
            f"u(-x,-y,-z) maps the right-hand side to f(-x,-y,-z): "
            f"{chk.without_sign_flip}; the stated extra sign flip gives "
            f"{chk.with_sign_flip}", "discrete-reflection", chk.flags))
    return SuiteReport("equivalence", seed, tuple(records))


def suite_classification(seed: int = DEFAULT_SEED, tol: float = 1e-8,
                         points: int = 60) -> SuiteReport:
    """Both checks on every classification row."""
    records = []
    for chk in classify.verify_all_rows(seed=seed, tol=tol, n_points=points):
        details = ("ansatz " + ", ".join(str(v) for v in chk.ansatz_verdicts)
                   + f"; symmetry max residual {chk.symmetry.max_residual:.2e} "
                   f"over {chk.symmetry.n_points} points")
        if chk.used_lifted_v5:
            details += "; lifted operator used in place of the printed one"
        if chk.flags:
            details += "; flags: " + ", ".join(chk.flags)
        records.append(CheckRecord(
            f"row[{chk.row_id}]", chk.passed, chk.symmetry.max_residual,
            details, f"classification-table:{chk.row_id}", chk.flags))
    return SuiteReport("classification", seed, tuple(records))


def suite_invariants(seed: int = DEFAULT_SEED) -> SuiteReport:
    """The worked invariant examples: annihilation, independence, and
    whether f can be solved for."""
    records = []
    for chk in classify.verify_invariants(seed=seed):
        details = ("annihilation " + ", ".join(str(v) for v in chk.annihilation)
                   + f"; jacobian rank {chk.jacobian_rank}; "
                   + ("an invariant depends on f"
                      if chk.f_solvable else "no invariant involves f"))
        records.append(CheckRecord(
            f"invariants[{chk.label}]", chk.passed, None, details,
            f"worked-invariants:{chk.label}"))
    return SuiteReport("invariants", seed, tuple(records))


def suite_flows(seed: int = DEFAULT_SEED, tol: float = 1e-7,
                points: int = 20) -> SuiteReport:
    """Group law, generator recovery, equivariance, and the printed
    transforms for all fifteen cases, plus the base-family identity.
    ``tol`` bounds the equivariance residual."""
    records = [CheckRecord(
        "base-family", flows.base_family_holds(), None,
        "S2 of the quadratic base equals t1*t2 + t1*t3 + t2*t3 exactly",
        "base-family")]
    for chk in flows.verify_all_cases(seed=seed, tol=tol, n_points=points):
        matched = ", ".join(f"({s:+d},{m})" for s, m in chk.matched_readings)
        details = (f"group law {chk.group_law.max_residual:.1e}; generator "
                   f"{chk.generator.max_residual:.1e}; equivariance "
                   f"{chk.equivariance.max_residual:.1e} at rate "
                   f"{chk.weight_rate}; printed formula matches readings "
                   f"[{matched}]")
        if chk.reparametrization:
            details += f"; {chk.reparametrization}"
        records.append(CheckRecord(
            f"case[{chk.case_id}]", chk.passed, chk.equivariance.max_residual,
            details, f"transform-case:{chk.case_id}", chk.flags))
    return SuiteReport("flows", seed, tuple(records))


# ---------------------------------------------------------------------------
# orchestration

# in catalog.SUITE_NAMES order
_SUITES = {
    "commutators": suite_commutators,
    "adjoint": suite_adjoint,
    "optimal": suite_optimal,
    "determining": suite_determining,
    "equivalence": suite_equivalence,
    "classification": suite_classification,
    "invariants": suite_invariants,
    "flows": suite_flows,
}


def _reads(name: str) -> tuple[str, ...]:
    """The parameter names of suite ``name``: the options it reads."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       + ", ".join(SUITE_NAMES))
    code = _SUITES[name].__code__
    return code.co_varnames[:code.co_argcount]


def _refuse_zero_points(points: int | None) -> None:
    """No check passes on zero points: refuse a count below 1 before any
    suite runs."""
    if points is not None and points < 1:
        raise ValueError(f"points must be at least 1, got {points}")


def run_suite(name: str, seed: int = DEFAULT_SEED, tol: float | None = None,
              points: int | None = None) -> SuiteReport:
    """Run suite ``name``; a ``tol`` or ``points`` left at None takes the
    suite's default, and one the suite does not read is a ValueError,
    raised before the suite runs.  A suite that raises reports one failed
    ``suite-error[<name>]`` record with the exception in its details."""
    reads = _reads(name)
    _refuse_zero_points(points)
    options = {k: v for k, v in (("tol", tol), ("points", points)) if v is not None}
    for key in options:
        if key not in reads:
            raise ValueError(f"the {name} suite does not read {key}")
    t0 = time.perf_counter()
    try:
        records = _SUITES[name](seed=seed, **options).records
    except Exception as exc:  # a broken check fails its suite; the others still run
        records = (CheckRecord(f"suite-error[{name}]", False, None,
                               f"{type(exc).__name__}: {exc}", f"suite:{name}"),)
    return SuiteReport(name, seed, records, time.perf_counter() - t0)


def run_suites(names, seed: int = DEFAULT_SEED, tol: float | None = None,
               points: int | None = None) -> tuple[SuiteReport, ...]:
    """Run each suite of ``names``, giving ``tol`` and ``points`` only to
    the suites that read them.  A bad count or an unknown name is refused
    before any suite runs."""
    _refuse_zero_points(points)
    reads = {n: _reads(n) for n in names}
    return tuple(run_suite(n, seed=seed,
                           tol=tol if "tol" in reads[n] else None,
                           points=points if "points" in reads[n] else None)
                 for n in names)


def overall_status(items) -> str:
    """fail if any of the records or reports failed, else flagged if any
    was flagged, else pass."""
    statuses = {r.status for r in items}
    return check_status("fail" not in statuses, "flagged" in statuses)


def render_json(reports) -> str:
    if isinstance(reports, SuiteReport):
        obj = reports.to_json_dict()
    elif len(reports) == 1:
        obj = reports[0].to_json_dict()
    else:
        obj = {"status": overall_status(reports),
               "suites": [r.to_json_dict() for r in reports]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def render_markdown(reports) -> str:
    if isinstance(reports, SuiteReport):
        reports = (reports,)
    lines = []
    for rep in reports:
        c = rep.counts
        lines.append(f"## {rep.suite} - {rep.status.upper()} "
                     f"({c['pass']} pass, {c['flagged']} flagged, "
                     f"{c['fail']} fail)")
        lines.append("")
        lines.append("| check | status | residual | source | details |")
        lines.append("|---|---|---|---|---|")
        for r in rep.records:
            resid = "" if r.residual is None else f"{r.residual:.2e}"
            lines.append(f"| {r.check_id} | {r.status} | {resid} "
                         f"| {r.anchor} | {r.details} |")
        lines.append("")
    if len(reports) > 1:
        lines.append(f"overall: {overall_status(reports)}")
        lines.append("")
    return "\n".join(lines)
