"""Checks for the classification table and the equivalence-algebra route.

Each table row states an invariant right-hand side f together with the
extra symmetry it admits.  Two independent checks run per row: the stated
f solves the classifying condition exactly (symbolically, with the row
parameters kept free), and the stated generator passes the randomized
on-variety invariance test with the profile H bound to concrete smooth
functions.  The module also verifies the three-step derivation of the
equivalence algebra, the discrete reflection, the characteristic-equation
invariants, and the principal algebra.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple, Sequence

from .catalog import (
    CONSTANT_TO_EQUIVALENCE,
    EQUIVALENCE_CONSTANTS,
    ClassificationRow,
    Y_NAMES,
    classification_rows,
    equivalence_basis,
    equivalence_candidate,
    invariant_datasets,
    principal_basis,
    reduced_field,
)
from .determining import (
    bila_auxiliary_residual,
    determining_system,
    equivalence_residual_on_variety,
)
from .expr import (
    Expr,
    OpaqueBinding,
    ZERO,
    add,
    compile_evaluator,
    diff,
    free_symbols,
    mul,
    neg,
    num,
    substitute,
    sym,
    to_text,
)
from .fields import LieBasis, NotInSpanError, P4, decompose
from .jets import SPATIAL, check_symmetry, s2_of
from .normalize import (
    DEFAULT_SEED,
    SymmetryCheck,
    Verdict,
    is_zero,
    normalize,
    sample_point,
    worst_check,
)
from .parse import parse

__all__ = [
    "RowCheck", "ansatz_residual", "verify_row", "verify_all_rows",
    "BilaCheck", "verify_bila_procedure",
    "ReflectionCheck", "verify_reflection",
    "InvariantCheck", "verify_invariants", "numeric_rank",
    "PrincipalCheck", "verify_principal",
    "H_INSTANCES", "PARAM_VALUES", "s2_of",
]


# concrete profiles substituted for the free function H in numeric checks
H_INSTANCES: tuple[tuple[str, str], ...] = (
    ("quadratic", "a^2 + b^2 + 1"),
    ("mixed", "sin(a) + exp(b/4)"),
)

# continuous-parameter values exercised by the numeric checks; both keep
# every stated constraint (!= 0) satisfied and keep the scaling exponents
# 2g - 4 integral so the invariant power laws stay real on x < 0
PARAM_VALUES: tuple[float, ...] = (1.0, -1.5)


@lru_cache(maxsize=None)
def _h_binding(body: str) -> OpaqueBinding:
    """One binding per profile body, so that each derivative compiles once."""
    return OpaqueBinding(("a", "b"), parse(body))


# ---------------------------------------------------------------------------
# row checks

def ansatz_residual(row: ClassificationRow, sign_value: int = 1) -> Expr:
    """Classifying-condition residual of the row's stated f.

    The surface f = F(x, y, z) is invariant under the reduced combination
    A = sum a_k Z_k exactly when w F - A_spatial(F) = 0, where w F is A's
    f-component (w = 2 a7 - 4 a8, read off the combined field).  The
    sign parameter is substituted (its constraint s^2 = 1 is not a rational
    identity); continuous parameters stay symbolic.
    """
    values = {row.sign_param: num(sign_value)} if row.sign_param else {}
    field = reduced_field(row.generator_coeffs(values), P4)
    F = substitute(parse(row.f_text), values)
    terms = [mul(diff(field.coeff("f"), "f"), F)]
    for s in SPATIAL:
        xi = field.coeff(s)
        if xi != ZERO:
            terms.append(neg(mul(xi, diff(F, s))))
    return normalize(add(*terms))


class RowCheck(NamedTuple):
    """Outcome of both checks on one classification row."""

    row_id: str
    constraint: str
    ansatz_verdicts: tuple[Verdict, ...]
    symmetry: SymmetryCheck     # the worst over every sign, value and profile
    used_lifted_v5: bool
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(v.zero_like for v in self.ansatz_verdicts) and self.symmetry.passed


def verify_row(row: ClassificationRow, *, n_points: int = 60, tol: float = 1e-8,
               seed: int = DEFAULT_SEED) -> RowCheck:
    """Run the ansatz check and the randomized symmetry check.

    The ansatz residual goes through ``is_zero(mode="auto")`` with one H
    instance bound: it is proved zero where its canonical form cancels,
    as it does for every published row, and sampled otherwise.  The
    symmetry check tries the printed extra symmetry first and falls
    back to the lift of the row's generator; resorting to the lift is
    recorded, it is what the ``printed-v5-incomplete`` rows need.
    """
    signs = (1, -1) if row.sign_param else (1,)

    ansatz = tuple(
        is_zero(ansatz_residual(row, s), mode="auto",
                bindings={"H": _h_binding(H_INSTANCES[1][1])}, n=40,
                tol=1e-9, seed=seed)
        for s in signs
    )

    checks = []
    used_lifted = False
    for s in signs:
        for val in (PARAM_VALUES if row.params else (1,)):
            values = row.values(s, val)
            f_expr = substitute(parse(row.f_text), {k: num(v) for k, v in values.items()})
            printed = row.printed_v5(values)
            for _, body in H_INSTANCES:
                inner = {"H": _h_binding(body)}
                chk = check_symmetry(printed, f_expr,
                                     inner=inner, n=n_points, tol=tol, seed=seed)
                if not chk.passed:
                    lifted = check_symmetry(row.lifted_v5(values), f_expr,
                                            inner=inner, n=n_points, tol=tol, seed=seed)
                    if lifted.max_residual < chk.max_residual:
                        chk = lifted
                        used_lifted = True
                checks.append(chk)
    return RowCheck(row.row_id, row.constraint, ansatz, worst_check(checks),
                    used_lifted, row.flags)


def verify_all_rows(**kwargs) -> tuple[RowCheck, ...]:
    return tuple(verify_row(r, **kwargs) for r in classification_rows())


# ---------------------------------------------------------------------------
# three-step equivalence derivation

class BilaCheck(NamedTuple):
    """Replay of the three-step derivation of the equivalence algebra.

    ``step2`` / ``step3`` record which of the printed augmentation
    conditions actually hold for the printed solution family; the claim
    that psi is f-independent fails (psi = (2 c3 - 4 c6) f), which the
    printed generator list itself contradicts, so it is flagged rather
    than failed.
    """

    main_residual: Verdict
    auxiliary_residual: Verdict
    step2: tuple[tuple[str, bool], ...]
    step3: tuple[tuple[str, bool], ...]
    psi_f_text: str
    generator_map: tuple[tuple[str, str], ...]
    dimension: int
    flags: tuple[str, ...]


def verify_bila_procedure() -> BilaCheck:
    cand = equivalence_candidate()
    comps = {"xi": cand.coeff("x"), "zeta": cand.coeff("y"),
             "eta": cand.coeff("z"), "psi": cand.coeff("f")}

    main = is_zero(equivalence_residual_on_variety(cand), mode="symbolic")
    aux = is_zero(bila_auxiliary_residual(cand), mode="symbolic")

    step2 = tuple((f"{name}_u", normalize(diff(e, "u")) == ZERO)
                  for name, e in comps.items())
    step3 = tuple((f"{name}_f", normalize(diff(e, "f")) == ZERO)
                  for name, e in comps.items())
    psi_f = normalize(diff(comps["psi"], "f"))

    basis = equivalence_basis()
    gen_map = []
    matched = 0
    for c in EQUIVALENCE_CONSTANTS:
        one_hot = {k: 1 if k == c else 0 for k in EQUIVALENCE_CONSTANTS}
        coords = decompose(cand.bound(one_hot), basis)
        target = CONSTANT_TO_EQUIVALENCE[c]
        hits = [i + 1 for i, w in enumerate(coords) if w != 0]
        if hits == [target] and coords[target - 1] == 1:
            matched += 1
        gen_map.append((c, Y_NAMES[target - 1]))

    flags = () if psi_f == ZERO else ("printed-step3-psi-nonzero",)
    return BilaCheck(main, aux, step2, step3, to_text(psi_f),
                     tuple(gen_map), matched, flags)


# ---------------------------------------------------------------------------
# discrete reflection

def _reflect(e: Expr) -> Expr:
    return substitute(e, {v: neg(sym(v)) for v in SPATIAL if v in free_symbols(e)})


class ReflectionCheck(NamedTuple):
    """Both readings of the printed discrete reflection.

    The printed equivalence group includes (x, y, z, u, f) -> -(x, y, z,
    u, f).  The operator is quadratic in the Hessian, so the map induced
    on the right-hand side is f -> f(-x, -y, -z) without the sign flip;
    the reading with the flip fails and is flagged.
    """

    with_sign_flip: Verdict
    without_sign_flip: Verdict
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.without_sign_flip.zero_like and not self.with_sign_flip.zero_like


def verify_reflection(seed: int = DEFAULT_SEED) -> tuple[ReflectionCheck, ...]:
    out = []
    for text in ("x^3 + 2*x*y^2 - y*z^2 + x^2*z + x*y*z + y^3 + x^2*y^2",
                 "sin(x)*y + exp(z/3) + x^2*y + y^2*z"):
        U = parse(text)
        F = s2_of(U)
        U_ref = neg(_reflect(U))
        S2_ref = s2_of(U_ref)
        flipped = is_zero(normalize(add(S2_ref, _reflect(F))), mode="auto", seed=seed)
        plain = is_zero(normalize(add(S2_ref, neg(_reflect(F)))), mode="auto", seed=seed)
        flags = ("printed-reflection-f-sign",) if (plain.zero_like
                                                   and not flipped.zero_like) else ()
        out.append(ReflectionCheck(flipped, plain, flags))
    return tuple(out)


# ---------------------------------------------------------------------------
# characteristic-equation invariants

class InvariantCheck(NamedTuple):
    label: str
    annihilation: tuple[Verdict, ...]
    jacobian_rank: int
    f_solvable: bool
    expected_f_solvable: bool

    @property
    def passed(self) -> bool:
        return (all(v.zero_like for v in self.annihilation)
                and self.jacobian_rank == len(self.annihilation)
                and self.f_solvable == self.expected_f_solvable)


_RANK_TOL = 1e-8


def numeric_rank(rows: Sequence[Sequence[float]]) -> int:
    """Rank of a small float matrix by Gaussian elimination with complete
    pivoting: the number of pivots larger than 1e-8 in magnitude, each
    the largest entry left when it is taken."""
    m = [list(map(float, row)) for row in rows]
    rank = 0
    while m and m[0]:
        p, i, j = max((abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row))
        if p <= _RANK_TOL:
            break
        prow = m.pop(i)
        m = [[v - row[j] / prow[j] * pv for k, (v, pv) in enumerate(zip(row, prow)) if k != j]
             for row in m]
        rank += 1
    return rank


def _invariant_gradients(invs: Sequence[Expr], params: Sequence[str]) -> list[list]:
    """The gradient of each invariant over (x, y, z, f), parameters at 1,
    one compiled evaluator per entry."""
    values = {p: num(1) for p in params}
    return [[compile_evaluator(normalize(substitute(diff(I, v), values)), list(P4.variables))
             for v in P4.variables] for I in invs]


def verify_invariants(seed: int = DEFAULT_SEED) -> tuple[InvariantCheck, ...]:
    """Each stated invariant is annihilated by the generator (parameters
    symbolic), the invariants are functionally independent, and exactly
    the stated datasets allow solving for f."""
    rng = random.Random(seed)
    out = []
    for ds in invariant_datasets():
        field = reduced_field(ds.coeffs, P4)
        invs = [parse(t) for t in ds.invariants]
        verdicts = tuple(is_zero(normalize(field.apply(I)), mode="symbolic")
                         for I in invs)

        fns = _invariant_gradients(invs, ds.params)
        rank = 0
        for _ in range(3):
            args = sample_point(P4.variables, rng)
            rank = max(rank, numeric_rank([[fn(*args) for fn in row] for row in fns]))

        solvable = any(normalize(diff(I, "f")) != ZERO for I in invs)
        out.append(InvariantCheck(ds.label, verdicts, rank, solvable, ds.f_solvable))
    return tuple(out)


# ---------------------------------------------------------------------------
# principal algebra

class PrincipalCheck(NamedTuple):
    dimension: int
    family_dimension: int
    symmetry: SymmetryCheck     # the worst over the four principal fields
    span_mismatch: str | None = None  # why the spans differ, when they do

    @property
    def matches_principal(self) -> bool:
        return self.span_mismatch is None

    @property
    def passed(self) -> bool:
        return (self.dimension == 4 and self.matches_principal
                and self.family_dimension == 12
                and self.symmetry.passed)


def verify_principal(n: int = 50, seed: int = DEFAULT_SEED) -> PrincipalCheck:
    """The determining system with a generic right-hand side pins down
    exactly the four u-affine symmetries, and each passes the on-variety
    check against a right-hand side with no special structure."""
    unconditioned = determining_system(with_condition=False)
    fields = unconditioned.fields()
    principal = principal_basis()
    span_mismatch = None
    try:
        for v in fields:
            decompose(v, principal)
        span = LieBasis("solved", fields)
        for v in principal.fields:
            decompose(v, span)
    except NotInSpanError as exc:
        span_mismatch = f"{exc}: {v} leaves residual {exc.residual}"

    conditioned = determining_system(with_condition=True)

    generic_f = parse("sin(x) + y^2*z + exp(z/3) + x*y")
    symmetry = worst_check(check_symmetry(v, generic_f, n=n, tol=1e-8, seed=seed)
                           for v in principal.fields)
    return PrincipalCheck(unconditioned.dim, conditioned.dim, symmetry, span_mismatch)
