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
family (transport condition allowed).  It holds computations only: the
printed twelve-constant families it checks, ``catalog.symmetry_candidate``
and ``catalog.equivalence_candidate``, are catalog data.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .catalog import (
    FREE_CONSTANTS, SYMMETRY_CONSTANTS, equivalence_candidate, symmetry_candidate,
)
from .expr import (
    Expr, ExprError, OpaqueBinding, add, compile_evaluator, diff,
    free_symbols, mul, neg, opaque, substitute, sym,
)
from .fields import E4, E5, VectorField, rref, vf
from .jets import (
    _PIECE_VARS, SPATIAL, _draw, _variety_point, invariance_residual,
    prolong2, s2_weight, solve_uyy, transport_term,
)
from .normalize import (
    DEFAULT_SEED, Monomial, NormalizeError, SymmetryCheck, as_rational, normalize, uniform,
)
from .parse import parse

__all__ = [
    "symmetry_condition", "determining_residual", "residual_on_variety",
    "free_constants_absent", "numeric_invariance_check",
    "general_candidate", "DeterminingSystem", "determining_system",
    "equivalence_residual_on_variety",
    "bila_auxiliary_residual",
]


def symmetry_condition(v: VectorField | None = None) -> Expr:
    """First-order condition the right-hand side must satisfy:
    xi*f_x + zeta*f_y + eta*f_z - s2_weight(v)*f = 0, which is
    (4*c6 - 2*c2)*f on the candidate family, written with formal
    derivatives of an opaque f(x, y, z)."""
    v = v or symmetry_candidate()
    fop = opaque("f", sym("x"), sym("y"), sym("z"))
    return add(transport_term(v), mul(neg(s2_weight(v)), fop))


def determining_residual(v: VectorField | None = None) -> Expr:
    """pr V (S2[u] - f) with f(x, y, z) opaque, before any restriction."""
    v = v or symmetry_candidate()
    prl = prolong2(v)
    return invariance_residual(prl, transport_term(v))


def residual_on_variety(v: VectorField | None = None) -> Expr:
    """The residual with u_yy eliminated through S2[u] = f(x, y, z)."""
    r = determining_residual(v)
    fop = opaque("f", sym("x"), sym("y"), sym("z"))
    return normalize(substitute(r, {"u_yy": solve_uyy(fop)}))


def free_constants_absent() -> bool:
    """The additive constants of the candidate (c1, c3, c4, c5) impose no
    condition: they do not survive into the restricted residual."""
    return not (free_symbols(residual_on_variety()) & set(FREE_CONSTANTS))


def numeric_invariance_check(n: int = 200, seed: int = DEFAULT_SEED,
                             profile: Expr | None = None,
                             tol: float = 1e-8) -> SymmetryCheck:
    """Sample the unrestricted residual plus the transport condition at
    ``n`` >= 1 random on-variety jet points with random constants; the sum
    must vanish identically (up to ``tol``), independent of the symbolic
    elimination route.  The check carries no witness."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = random.Random(seed)
    body = profile if profile is not None else parse("sin(x) + y^2*z + exp(z/3) + x*y")
    binding = OpaqueBinding(("x", "y", "z"), body)

    r_raw = determining_residual()
    cond = symmetry_condition()
    total = add(r_raw, cond)
    var_order = SYMMETRY_CONSTANTS + _PIECE_VARS
    total_and_raw = compile_evaluator((total, r_raw), var_order, {"f": binding})

    draw = partial(_draw, rng)
    worst = 0.0
    for _ in range(n):
        # each point's constants come first from the same generator
        cs = [uniform(rng, -2, 2) for _ in SYMMETRY_CONSTANTS]
        args = cs + _variety_point(draw, binding.fn)
        val, raw = total_and_raw(*args)
        worst = max(worst, abs(val) / (1.0 + abs(raw)))
    return SymmetryCheck(worst, n, tol)


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


class DeterminingSystem(NamedTuple):
    """Exact solution of the linear determining system.

    ``dim`` is the nullspace dimension; ``basis`` holds one candidate field
    per nullspace vector with the constants substituted in.
    """

    constants: tuple[str, ...]
    n_equations: int
    dim: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def fields(self) -> tuple[VectorField, ...]:
        g = general_candidate()
        return tuple(g.bound(dict(zip(self.constants, vec))) for vec in self.vectors)


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
    if {g for mono in dpoly for g, _ in mono} & names:
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

def equivalence_residual_on_variety(v: VectorField | None = None) -> Expr:
    """pr V (S2[u] - f) for a field on (x, y, z, u, f), with f a coordinate
    (not a function): the f-component replaces the transport term, and the
    variety substitutes u_yy using the symbol f itself."""
    v = v or equivalence_candidate()
    if v.space != E5:
        raise ExprError("equivalence candidates live on the extended space")
    prl = prolong2(v)
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
