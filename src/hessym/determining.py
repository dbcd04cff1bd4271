"""Determining equations for point symmetries of S2[u] = f(x, y, z).

Two dual routes are kept deliberately separate:

* symbolic: the prolonged invariance residual, restricted to the solution
  variety by eliminating u_yy, must reduce to (minus) the first-order
  transport condition on f.  This is an exact rational-function identity
  over the jet coordinates and the formal derivatives of f.
* numeric: the raw residual is sampled at random jet points satisfying
  the equation, with f instantiated to concrete profiles.

The module also extracts the full linear determining system for a generic
degree-one candidate and solves it exactly, which recovers the principal
algebra (no condition allowed on f) and the twelve-constant classification
family (transport condition allowed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .expr import (
    Expr, ExprError, OpaqueBinding, add, compile_evaluator, diff,
    free_symbols, mul, neg, num, opaque, substitute, sym,
)
from .fields import E4, E5, VectorField, rref, vf
from .jets import (
    SPATIAL, invariance_residual, jet_indices, prolong2, sample_on_variety,
    solve_uyy, transport_term,
)
from .normalize import (
    DEFAULT_SEED, Monomial, NormalizeError, as_rational, normalize,
)
from .parse import parse

__all__ = [
    "SYMMETRY_CONSTANTS", "EQUIVALENCE_CONSTANTS", "symmetry_candidate",
    "symmetry_condition", "determining_residual", "residual_on_variety",
    "free_constants_absent", "numeric_invariance_check", "NumericCheck",
    "general_candidate", "DeterminingSystem", "determining_system",
    "equivalence_candidate", "equivalence_residual_on_variety",
    "bila_auxiliary_residual",
]

SYMMETRY_CONSTANTS = tuple(f"c{i}" for i in range(1, 13))
FREE_CONSTANTS = ("c1", "c3", "c4", "c5")

EQUIVALENCE_CONSTANTS = SYMMETRY_CONSTANTS

# one-hot value of each equivalence constant -> index (1-based) of the
# generator it produces in catalog.equivalence_basis()
CONSTANT_TO_EQUIVALENCE = {
    "c1": 5, "c2": 6, "c3": 11, "c4": 4, "c5": 7, "c6": 12,
    "c7": 8, "c8": 1, "c9": 9, "c10": 10, "c11": 2, "c12": 3,
}


def symmetry_candidate() -> VectorField:
    """The twelve-constant family solving the determining equations:
    rotations, translations, the two scalings tied together, and the
    additive part of u."""
    return vf(
        E4, params=SYMMETRY_CONSTANTS,
        x="c6*x + c7*y + c8*z + c9",
        y="c10*z + c6*y - c7*x + c11",
        z="-c10*y + c6*z - c8*x + c12",
        u="c1*x + c2*u + c3*y + c4*z + c5",
    )


def symmetry_condition(v: VectorField | None = None) -> Expr:
    """First-order condition the right-hand side must satisfy:
    xi*f_x + zeta*f_y + eta*f_z + (4*c6 - 2*c2)*f = 0, written with formal
    derivatives of an opaque f(x, y, z)."""
    v = v or symmetry_candidate()
    fop = opaque("f", sym("x"), sym("y"), sym("z"))
    weight = sub_weight(v)
    return add(transport_term(v), mul(weight, fop))


def sub_weight(v: VectorField) -> Expr:
    """4*div_coeff - 2*u_coeff for a linear candidate: the factor by which
    the equation scales against f.  Extracted as d(xi)/dx * 4 - 2 * d(phi)/du
    which agrees with 4*c6 - 2*c2 on the candidate family."""
    return add(mul(num(4), diff(v.coeff("x"), "x")),
               mul(num(-2), diff(v.coeff("u"), "u")))


def determining_residual(v: VectorField | None = None) -> Expr:
    """pr V (S2[u] - f) with f(x, y, z) opaque, before any restriction."""
    v = v or symmetry_candidate()
    prl = prolong2(v, "u", families=("u",))
    return invariance_residual(prl, transport_term(v))


def residual_on_variety(v: VectorField | None = None) -> Expr:
    """The residual with u_yy eliminated through S2[u] = f(x, y, z)."""
    r = determining_residual(v)
    fop = opaque("f", sym("x"), sym("y"), sym("z"))
    return normalize(substitute(r, {"u_yy": solve_uyy(fop)}))


def free_constants_absent(r_sub: Expr | None = None) -> bool:
    """The additive constants of the candidate (c1, c3, c4, c5) impose no
    condition: they do not survive into the restricted residual."""
    r_sub = residual_on_variety() if r_sub is None else r_sub
    return not (free_symbols(r_sub) & set(FREE_CONSTANTS))


@dataclass(frozen=True)
class NumericCheck:
    max_residual: float
    n_points: int


def numeric_invariance_check(n: int = 200, seed: int = DEFAULT_SEED,
                             profile: Expr | None = None,
                             rng: random.Random | None = None) -> NumericCheck:
    """Sample the unrestricted residual plus the transport condition at
    random on-variety jet points with random constants; the sum must vanish
    identically, independent of the symbolic elimination route."""
    rng = rng or random.Random(seed)
    body = profile if profile is not None else parse("sin(x) + y^2*z + exp(z/3) + x*y")
    binding = OpaqueBinding.from_expr(("x", "y", "z"), body)

    r_raw = determining_residual()
    cond = symmetry_condition()
    total = add(r_raw, cond)
    jet_vars = [f"u_{i}" for i in jet_indices(1) + jet_indices(2)]
    var_order = list(SYMMETRY_CONSTANTS) + ["x", "y", "z", "u"] + jet_vars
    fn = compile_evaluator(total, var_order, {"f": binding})
    scale_fn = compile_evaluator(r_raw, var_order, {"f": binding})

    worst = 0.0
    for _ in range(n):
        cs = [rng.uniform(-2, 2) for _ in SYMMETRY_CONSTANTS]
        pt = sample_on_variety(rng, binding.fn)
        args = cs + [pt[name] for name in var_order[len(cs):]]
        val = fn(*args)
        scale = abs(scale_fn(*args))
        worst = max(worst, abs(val) / (1.0 + scale))
    return NumericCheck(worst, n)


# ---------------------------------------------------------------------------
# the full linear determining system for a generic degree-one candidate

GENERAL_CONSTANTS = tuple(f"k{i}" for i in range(1, 21))


def general_candidate() -> VectorField:
    """Every component affine in (x, y, z, u): twenty free constants."""
    mons = ("1", "x", "y", "z", "u")
    comps = {}
    for ci, var in enumerate(("x", "y", "z", "u")):
        terms = [f"k{5 * ci + mi + 1}*{m}" if m != "1" else f"k{5 * ci + 1}"
                 for mi, m in enumerate(mons)]
        comps[var] = " + ".join(terms)
    return vf(E4, params=GENERAL_CONSTANTS, **comps)


@dataclass(frozen=True)
class DeterminingSystem:
    """Exact solution of the linear determining system.

    ``dim`` is the nullspace dimension; ``basis`` holds one candidate field
    per nullspace vector with the constants substituted in.
    """

    constants: tuple[str, ...]
    n_equations: int
    dim: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def fields(self) -> tuple[VectorField, ...]:
        out = []
        for vec in self.vectors:
            subs = {k: num(val) for k, val in zip(self.constants, vec)}
            g = general_candidate()
            out.append(VectorField(E4, tuple(substitute(c, subs) for c in g.coeffs)))
        return tuple(out)


def _strip_constant(mono: Monomial, names: frozenset[str]) -> tuple[str | None, Monomial]:
    """Split one linear constant out of a monomial; error if nonlinear."""
    hit = None
    rest = []
    for g, e in mono:
        if g in names:
            if hit is not None or e != 1:
                raise NormalizeError("determining system is not linear in the constants")
            hit = g
        else:
            rest.append((g, e))
    return hit, tuple(rest)


@lru_cache(maxsize=None)
def determining_system(with_condition: bool) -> DeterminingSystem:
    """Collect and solve the determining equations for the generic affine
    candidate.  Without the transport condition the solutions are exactly
    the symmetries valid for every f (the principal algebra); with it, the
    classification family."""
    g = general_candidate()
    total = residual_on_variety(g)
    if with_condition:
        total = normalize(add(total, symmetry_condition(g)))
    names = frozenset(GENERAL_CONSTANTS)
    npoly, dpoly, _ = as_rational(total)
    if free_symbols_of_poly(dpoly) & names:
        raise NormalizeError("denominator unexpectedly involves the constants")

    rows: dict[Monomial, dict[str, Fraction]] = {}
    for mono, coeff in npoly.items():
        k, rest = _strip_constant(mono, names)
        row = rows.setdefault(rest, {})
        if k is None:
            raise NormalizeError("inhomogeneous determining equation")
        row[k] = row.get(k, Fraction(0)) + coeff

    mat = [[row.get(k, Fraction(0)) for k in GENERAL_CONSTANTS]
           for row in rows.values()]
    vectors = _nullspace(mat, len(GENERAL_CONSTANTS))
    return DeterminingSystem(GENERAL_CONSTANTS, len(mat), len(vectors), tuple(vectors))


def free_symbols_of_poly(p) -> set[str]:
    return {g for mono in p for g, _ in mono}


def _nullspace(mat: list[list[Fraction]], n: int) -> list[tuple[Fraction, ...]]:
    """Exact nullspace basis from the reduced rows; free variables set to 1."""
    rows, pivots = rref(mat, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# equivalence transformations on (x, y, z, u, f)

def equivalence_candidate() -> VectorField:
    """Twelve-constant family acting on the extended space, with the
    f-component tied to the scalings: psi = (2*c3 - 4*c6)*f."""
    return vf(
        E5, params=EQUIVALENCE_CONSTANTS,
        x="c6*x + c9*y + c7*z + c8",
        y="c10*z + c6*y - c9*x + c11",
        z="-c10*y + c6*z - c7*x + c12",
        u="c1*x + c3*u + c2*y + c5*z + c4",
        f="(2*c3 - 4*c6)*f",
    )


def equivalence_residual_on_variety(v: VectorField | None = None) -> Expr:
    """pr V (S2[u] - f) for a field on (x, y, z, u, f), with f a coordinate
    (not a function): the f-component replaces the transport term, and the
    variety substitutes u_yy using the symbol f itself."""
    v = v or equivalence_candidate()
    if v.space != E5:
        raise ExprError("equivalence candidates live on the extended space")
    prl = prolong2(v, "u", families=("u",))
    r = invariance_residual(prl, v.coeff("f"))
    return normalize(substitute(r, {"u_yy": solve_uyy(sym("f"))}))


def bila_auxiliary_residual(v: VectorField | None = None) -> Expr:
    """Preservation of the auxiliary system f_u = 0.

    Treating f as a function of (x, y, z, u), the prolonged coefficient of
    d/df_u restricted to f_u = 0 is psi_u - f_x*xi_u - f_y*zeta_u -
    f_z*eta_u; it must vanish for the candidate family."""
    v = v or equivalence_candidate()
    psi = v.coeff("f")
    terms = [diff(psi, "u")]
    for name, s in zip(("f_x", "f_y", "f_z"), SPATIAL):
        terms.append(neg(mul(sym(name), diff(v.coeff(s), "u"))))
    return normalize(add(*terms))
