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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .catalog import (
    ClassificationRow,
    Y_NAMES,
    classification_rows,
    equivalence_basis,
    invariant_datasets,
    principal_basis,
    reduced_basis,
    reduced_f_weight,
)
from .determining import (
    CONSTANT_TO_EQUIVALENCE,
    EQUIVALENCE_CONSTANTS,
    bila_auxiliary_residual,
    determining_system,
    equivalence_candidate,
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
from .fields import LieBasis, NotInSpanError, P4, VectorField, decompose
from .jets import SPATIAL, check_symmetry, hessian2, jet_indices
from .normalize import (
    DEFAULT_SEED,
    Verdict,
    is_zero,
    normalize,
    sample_point,
)
from .parse import parse

__all__ = [
    "RowCheck", "ansatz_residual", "verify_row", "verify_all_rows",
    "BilaCheck", "verify_bila_procedure",
    "ReflectionCheck", "verify_reflection",
    "InvariantCheck", "verify_invariants",
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
    return OpaqueBinding.from_expr(("a", "b"), parse(body))


def _as_num(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, float):
        return num(Fraction(v))
    return num(v)


def _bind_field(v: VectorField, values: Mapping[str, object]) -> VectorField:
    """Substitute parameter values into a field's coefficients."""
    if not values:
        return v
    table = {k: _as_num(x) for k, x in values.items()}
    coeffs = tuple(
        substitute(c, {k: e for k, e in table.items() if k in free_symbols(c)})
        for c in v.coeffs
    )
    return VectorField(v.space, coeffs, frozenset())


def _reduced_field(coeffs: Sequence[Expr]) -> VectorField:
    """Combination sum c_k Z_k on (x, y, z, f) with symbolic coefficients."""
    basis = reduced_basis()
    total = VectorField(P4, (ZERO,) * 4)
    for c, zk in zip(coeffs, basis.fields):
        if c != ZERO:
            total = total.plus(zk.scaled(c))
    return total


# ---------------------------------------------------------------------------
# row checks

def ansatz_residual(row: ClassificationRow, sign_value: int = 1) -> Expr:
    """Classifying-condition residual of the row's stated f.

    The surface f = F(x, y, z) is invariant under the reduced combination
    A = sum a_k Z_k exactly when (2 a7 - 4 a8) F - A_spatial(F) = 0.  The
    sign parameter is substituted (its constraint s^2 = 1 is not a rational
    identity); continuous parameters stay symbolic.
    """
    values = {row.sign_param: sign_value} if row.sign_param else None
    coeffs = row.generator_coeffs(values)
    field = _reduced_field(coeffs)
    F = parse(row.f_text)
    if row.sign_param:
        F = substitute(F, {row.sign_param: num(sign_value)})
    terms = [mul(reduced_f_weight(coeffs), F)]
    for s in SPATIAL:
        xi = field.coeff(s)
        if xi != ZERO:
            terms.append(neg(mul(xi, diff(F, s))))
    return normalize(add(*terms))


@dataclass(frozen=True)
class RowCheck:
    """Outcome of both checks on one classification row."""

    row_id: str
    constraint: str
    ansatz_verdicts: tuple[Verdict, ...]
    symmetry_max_residual: float
    symmetry_n_points: int
    symmetry_tol: float
    used_lifted_v5: bool
    flags: tuple[str, ...]

    @property
    def ansatz_passed(self) -> bool:
        return all(v.zero_like for v in self.ansatz_verdicts)

    @property
    def symmetry_passed(self) -> bool:
        return self.symmetry_max_residual <= self.symmetry_tol

    @property
    def passed(self) -> bool:
        return self.ansatz_passed and self.symmetry_passed


def verify_row(row: ClassificationRow, *, param_values: Sequence[float] = PARAM_VALUES,
               n_points: int = 60, tol: float = 1e-8, ansatz_tol: float = 1e-9,
               seed: int = DEFAULT_SEED) -> RowCheck:
    """Run the exact ansatz check and the randomized symmetry check.

    The symmetry check tries the printed extra symmetry first and falls
    back to the lift of the row's generator; resorting to the lift is
    recorded, it is what the ``printed-v5-incomplete`` rows need.
    """
    signs = (1, -1) if row.sign_param else (None,)

    ansatz = tuple(
        is_zero(ansatz_residual(row, s if s is not None else 1), mode="auto",
                bindings={"H": _h_binding(H_INSTANCES[1][1])}, n=40,
                tol=ansatz_tol, seed=seed)
        for s in signs
    )

    worst = 0.0
    total = 0
    used_lifted = False
    for s in signs:
        for val in (param_values if row.params else (None,)):
            values: dict[str, object] = {}
            if row.sign_param:
                values[row.sign_param] = s
            if row.params:
                values.update({p: Fraction(val) for p in row.params})
            f_expr = parse(row.f_text)
            if values:
                f_expr = substitute(f_expr, {k: _as_num(v) for k, v in values.items()
                                             if k in free_symbols(f_expr)})
            for _, body in H_INSTANCES:
                inner = {"H": _h_binding(body)}
                chk = check_symmetry(_bind_field(row.printed_v5(), values), f_expr,
                                     inner=inner, n=n_points, tol=tol, seed=seed)
                if not chk.passed:
                    lifted = check_symmetry(row.lifted_v5(values), f_expr,
                                            inner=inner, n=n_points, tol=tol, seed=seed)
                    if lifted.max_residual < chk.max_residual:
                        chk = lifted
                        used_lifted = True
                worst = max(worst, chk.max_residual)
                total += chk.n_points
    return RowCheck(row.row_id, row.constraint, ansatz, worst, total, tol,
                    used_lifted, row.flags)


def verify_all_rows(**kwargs) -> tuple[RowCheck, ...]:
    return tuple(verify_row(r, **kwargs) for r in classification_rows())


# ---------------------------------------------------------------------------
# three-step equivalence derivation

@dataclass(frozen=True)
class BilaCheck:
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

    @property
    def passed(self) -> bool:
        return (self.main_residual.zero_like
                and self.auxiliary_residual.zero_like
                and all(ok for _, ok in self.step2)
                and all(ok for name, ok in self.step3 if not name.startswith("psi"))
                and self.dimension == len(EQUIVALENCE_CONSTANTS))


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
        coords = decompose(_bind_field(cand, one_hot), basis)
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

def s2_of(expr: Expr) -> Expr:
    """The operator applied to a concrete expression in (x, y, z)."""
    reps = {f"u_{idx}": diff(diff(expr, idx[0]), idx[1]) for idx in jet_indices(2)}
    return normalize(substitute(hessian2(), reps))


def _reflect(e: Expr) -> Expr:
    return substitute(e, {v: neg(sym(v)) for v in SPATIAL if v in free_symbols(e)})


@dataclass(frozen=True)
class ReflectionCheck:
    """Both readings of the printed discrete reflection.

    The printed equivalence group includes (x, y, z, u, f) -> -(x, y, z,
    u, f).  The operator is quadratic in the Hessian, so the map induced
    on the right-hand side is f -> f(-x, -y, -z) without the sign flip;
    the reading with the flip fails and is flagged.
    """

    profile: str
    with_sign_flip: Verdict
    without_sign_flip: Verdict
    flags: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.without_sign_flip.zero_like and not self.with_sign_flip.zero_like


def verify_reflection(profiles: Sequence[str] = (
        "x^3 + 2*x*y^2 - y*z^2 + x^2*z + x*y*z + y^3 + x^2*y^2",
        "sin(x)*y + exp(z/3) + x^2*y + y^2*z",
), seed: int = DEFAULT_SEED) -> tuple[ReflectionCheck, ...]:
    out = []
    for text in profiles:
        U = parse(text)
        F = s2_of(U)
        U_ref = neg(_reflect(U))
        S2_ref = s2_of(U_ref)
        flipped = is_zero(normalize(add(S2_ref, _reflect(F))), mode="auto", seed=seed)
        plain = is_zero(normalize(add(S2_ref, neg(_reflect(F)))), mode="auto", seed=seed)
        flags = ("printed-reflection-f-sign",) if (plain.zero_like
                                                   and not flipped.zero_like) else ()
        out.append(ReflectionCheck(text, flipped, plain, flags))
    return tuple(out)


# ---------------------------------------------------------------------------
# characteristic-equation invariants

@dataclass(frozen=True)
class InvariantCheck:
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


def verify_invariants(seed: int = DEFAULT_SEED) -> tuple[InvariantCheck, ...]:
    """Each stated invariant is annihilated by the generator (parameters
    symbolic), the invariants are functionally independent, and exactly
    the stated datasets allow solving for f."""
    rng = np.random.default_rng(seed)
    out = []
    for ds in invariant_datasets():
        coeffs = tuple(parse(c) if c not in ("", "0") else ZERO for c in ds.coeffs)
        field = _reduced_field(coeffs)
        invs = [parse(t) for t in ds.invariants]
        verdicts = tuple(is_zero(normalize(field.apply(I)), mode="symbolic")
                         for I in invs)

        values = {p: num(1) for p in ds.params}
        grads = [[normalize(substitute(diff(I, v), values)) for v in P4.variables]
                 for I in invs]
        fns = [[compile_evaluator(g, list(P4.variables)) for g in row] for row in grads]
        rank = 0
        for _ in range(3):
            pt = sample_point(P4.variables, rng)
            args = [pt[v] for v in P4.variables]
            mat = np.array([[fn(*args) for fn in row] for row in fns])
            rank = max(rank, int(np.linalg.matrix_rank(mat, tol=1e-8)))

        solvable = any(normalize(diff(I, "f")) != ZERO for I in invs)
        out.append(InvariantCheck(ds.label, verdicts, rank, solvable, ds.f_solvable))
    return tuple(out)


# ---------------------------------------------------------------------------
# principal algebra

@dataclass(frozen=True)
class PrincipalCheck:
    dimension: int
    family_dimension: int
    symmetry_max_residual: float
    n_points: int
    tol: float
    span_mismatch: str | None = None  # why the spans differ, when they do

    @property
    def matches_principal(self) -> bool:
        return self.span_mismatch is None

    @property
    def passed(self) -> bool:
        return (self.dimension == 4 and self.matches_principal
                and self.family_dimension == 12
                and self.symmetry_max_residual <= self.tol)


def verify_principal(n: int = 50, tol: float = 1e-8,
                     seed: int = DEFAULT_SEED) -> PrincipalCheck:
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
    worst = 0.0
    total = 0
    for v in principal.fields:
        chk = check_symmetry(v, generic_f, n=n, tol=tol, seed=seed)
        worst = max(worst, chk.max_residual)
        total += chk.n_points
    return PrincipalCheck(unconditioned.dim, conditioned.dim, worst, total,
                          tol, span_mismatch)
