"""Second-order prolongation machinery for scalar equations on (x, y, z).

Jet coordinates are plain symbols named ``u``, ``u_x``, ``u_xy``, ... with
sorted index strings; u is the one dependent variable, and a right-hand
side f enters either as an opaque function of (x, y, z) or, for the
equivalence algebra, as a plain coordinate.  The prolonged coefficient of
d/du_J is built with the recursive rule

    phi^{J,i} = D_i(phi^J) - sum_j D_i(xi^j) * u_{J,j}

which never references jets beyond order two; the classical closed form
D_J(phi - sum xi^i u_i) + sum xi^i u_{J,i} serves as an independent test
oracle (its third-order jets must cancel identically).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Mapping, NamedTuple, Sequence

from .expr import (
    _NONFINITE, EvalDomainError, Expr, ExprError, OpaqueBinding, ZERO, add,
    compile_template, deriv, diff, free_symbols, mul, neg, num, opaque,
    pow_, substitute, sym,
)
from .fields import VectorField
from .normalize import (
    DEFAULT_SEED, SymmetryCheck, as_polynomial, normalize, sample_point, valid_sample,
)
from .parse import parse

__all__ = [
    "SPATIAL", "JetOrderError", "jet_indices", "jet_symbol", "jet_order",
    "total_derivative", "Prolongation", "prolong2", "hessian2", "s2_of",
    "s2_of_hessian", "s2_weight",
    "S2_JET_DERIVATIVES", "solve_uyy", "transport_term",
    "invariance_residual", "check_symmetry",
]

SPATIAL = ("x", "y", "z")


class JetOrderError(ExprError):
    pass


@lru_cache(maxsize=None)
def jet_indices(order: int) -> tuple[str, ...]:
    """Sorted index strings of a given order: ('xx','xy','xz','yy','yz','zz')."""
    if order == 0:
        return ("",)
    prev = jet_indices(order - 1)
    out: list[str] = []
    for p in prev:
        for v in SPATIAL:
            s = "".join(sorted(p + v))
            if s not in out:
                out.append(s)
    return tuple(sorted(out))


def jet_symbol(idx: str) -> Expr:
    """The jet coordinate u_idx (u itself for the empty index)."""
    return sym("u" if not idx else f"u_{''.join(sorted(idx))}")


def jet_order(name: str) -> int | None:
    """Order of a jet symbol name, or None if it names no jet of u."""
    if name == "u":
        return 0
    idx = name[len("u_"):]
    if (name.startswith("u_") and idx and all(c in "xyz" for c in idx)
            and "".join(sorted(idx)) == idx):
        return len(idx)
    return None


def total_derivative(e: Expr, var: str) -> Expr:
    """Total derivative D_var treating u as a function of (x, y, z).

    Jets up to order three are available; differentiating an expression
    that references third-order jets would need the next table and raises.
    """
    if var not in SPATIAL:
        raise ExprError(f"total derivative along {var!r}; expected one of {SPATIAL}")
    terms = [diff(e, var)]
    for name in sorted(free_symbols(e)):
        order = jet_order(name)
        if order is None:
            continue
        if order >= 3:
            raise JetOrderError(
                f"total derivative of {name} needs jets of order {order + 1}")
        terms.append(mul(diff(e, name), jet_symbol(name[len("u_"):] + var)))
    return add(*terms)


# ---------------------------------------------------------------------------
# prolongation

class Prolongation(NamedTuple):
    """Coefficients of d/du_J for |J| = 1, 2 of the prolonged field."""

    phi: Mapping[str, Expr]     # keys like 'x', 'xy' (jet index strings)

    def coeff(self, idx: str) -> Expr:
        return self.phi["".join(sorted(idx))]


def prolong2(v: VectorField) -> Prolongation:
    """Second prolongation of a point field on (x, y, z, u, ...); any
    coordinate past u (the f of the equivalence space) is a plain variable.

    Coefficients are normalized; by construction they involve jets of
    order at most two (asserted defensively).
    """
    if "u" not in v.space.variables:
        raise ExprError(f"'u' is not a coordinate of {v.space.name}")
    xi = {s: v.coeff(s) for s in SPATIAL}
    D = total_derivative

    phi: dict[str, Expr] = {}
    for i in SPATIAL:
        phi[i] = normalize(add(D(v.coeff("u"), i),
                               *[neg(mul(D(xi[j], i), jet_symbol(j))) for j in SPATIAL]))
    for idx in jet_indices(2):
        base, i = idx[:-1], idx[-1]
        phi[idx] = normalize(add(D(phi[base], i),
                                 *[neg(mul(D(xi[j], i), jet_symbol(base + j)))
                                   for j in SPATIAL]))
    for idx, e in phi.items():
        for name in free_symbols(e):
            order = jet_order(name)
            if order is not None and order > 2:
                raise JetOrderError(f"prolongation coefficient {idx} kept {name}")
    return Prolongation(phi)


# ---------------------------------------------------------------------------
# the operator
#
# F = hessian2() is the one symbolic statement of S2.  What the jet layer
# needs of the operator is derived from F: the jet derivatives dS2/du_ij
# (S2_JET_DERIVATIVES), the solution for u_yy on the variety (solve_uyy),
# S2 of a concrete expression (s2_of, F at its second derivatives, in
# canonical form), and S2 in floats from the six second derivatives of a
# profile at a point (s2_of_hessian, F's monomials _S2_TERMS).  The weight
# by which S2 scales under a linear field is stated once, in s2_weight; the
# tests check pr V(F) = s2_weight(V)*F on the symmetry generators.

def hessian2() -> Expr:
    """F: the sum of the principal 2x2 Hessian minors in jet coordinates."""
    return parse("u_xx*u_yy + u_xx*u_zz + u_yy*u_zz - u_xy^2 - u_yz^2 - u_xz^2")


def s2_of(expr: Expr) -> Expr:
    """The operator applied to a concrete expression in (x, y, z), in
    canonical form: the six second derivatives by ``diff``, substituted
    into ``hessian2`` and normalized."""
    reps = {f"u_{idx}": diff(diff(expr, idx[0]), idx[1]) for idx in jet_indices(2)}
    return normalize(substitute(hessian2(), reps))


def s2_of_hessian(h: Sequence[float]) -> tuple[float, float]:
    """S2 in floats from the six second derivatives ``h`` of a profile at
    a point, in ``jet_indices(2)`` order, with its scale: F's monomials
    (``_S2_TERMS``) summed left to right, and the largest |monomial|, the
    size at which the sum rounds.  A non-finite value raises
    EvalDomainError."""
    terms = [c * h[i] * h[j] for c, i, j in _S2_TERMS]
    s = sum(terms)
    if not math.isfinite(s):
        raise EvalDomainError(_NONFINITE)
    return s, max(map(abs, terms))


def s2_weight(v: VectorField) -> Expr:
    """w with pr V(F) = w*F for a linear field V that scales S2:
    2*dphi/du - (4/3)*(dxi/dx + dzeta/dy + deta/dz)."""
    return add(mul(num(2), diff(v.coeff("u"), "u")),
               mul(num(Fraction(-4, 3)), add(*[diff(v.coeff(s), s) for s in SPATIAL])))


S2_JET_DERIVATIVES: dict[str, Expr] = {
    idx: normalize(diff(hessian2(), f"u_{idx}")) for idx in jet_indices(2)}

# F's monomials: each integer coefficient with the slots in jet_indices(2)
# of the two second derivatives it multiplies, as in (-1, 1, 1) for -u_xy^2
_S2_TERMS = tuple((int(c), *(jet_indices(2).index(g[len("u_"):]) for g, k in m
                             for _ in range(k)))
                  for m, c in sorted(as_polynomial(hessian2())[0].items()))


def solve_uyy(rhs: Expr) -> Expr:
    """u_yy on the solution variety F = rhs: (rhs - F|u_yy=0) / (dF/du_yy).
    F must be linear in u_yy."""
    F = hessian2()
    pivot = normalize(diff(F, "u_yy"))
    if normalize(diff(pivot, "u_yy")) != ZERO:
        raise ExprError("S2 is not linear in u_yy, so u_yy has no single solution")
    rest = substitute(F, {"u_yy": ZERO})
    return normalize(mul(add(rhs, neg(rest)), pow_(pivot, num(-1))))


def transport_term(v: VectorField) -> Expr:
    """How the field transports a right-hand side f(x, y, z): the spatial
    part applied through formal derivatives of an opaque f, i.e.
    xi*f_1 + zeta*f_2 + eta*f_3 evaluated at (x, y, z)."""
    f = opaque("f", sym("x"), sym("y"), sym("z"))
    return add(*[mul(v.coeff(s), deriv(f, (i + 1,)))
                 for i, s in enumerate(SPATIAL) if v.coeff(s) != ZERO])


def invariance_residual(prl: Prolongation, rhs_variation: Expr) -> Expr:
    """pr V (S2[u] - f) as an expression in jets: the second-order
    coefficients contracted with dS2/du_J, minus the variation of f."""
    terms = [mul(prl.coeff(idx), S2_JET_DERIVATIVES[idx]) for idx in jet_indices(2)]
    return add(*terms, neg(rhs_variation))


# ---------------------------------------------------------------------------
# numeric checks on the solution variety

_GUARD = 0.25          # least |u_xx + u_zz| of a sampled point

# the jet coordinates of a sampled point, in the order they are drawn
_PIECE_VARS = ("x", "y", "z", "u") + tuple(f"u_{idx}"
                                            for idx in jet_indices(1) + jet_indices(2))
_UXX, _UXY, _UXZ, _UYY, _UYZ, _UZZ = (_PIECE_VARS.index(f"u_{idx}")
                                      for idx in jet_indices(2))


def _variety_point(draw: Callable[[], tuple[float, ...]],
                   f_at: Callable[[float, float, float], float]) -> list[float]:
    """A jet point on S2[u] = f(x, y, z), over ``_PIECE_VARS``: the first
    candidate from ``draw`` (one value per name) whose trace pivot u_xx +
    u_zz is at least ``_GUARD`` away from zero and where f has a value,
    with u_yy solved.  ``normalize.valid_sample`` draws the candidates."""
    def solved(vals: tuple[float, ...]) -> list[float]:
        uxx, uzz = vals[_UXX], vals[_UZZ]
        if abs(uxx + uzz) < _GUARD:
            raise EvalDomainError("trace pivot u_xx + u_zz too close to 0")
        try:
            fv = f_at(vals[0], vals[1], vals[2])
        except ArithmeticError as exc:  # a plain, uncompiled f
            raise EvalDomainError(str(exc)) from exc
        pt = list(vals)
        pt[_UYY] = (fv - uxx * uzz + vals[_UXY] ** 2 + vals[_UYZ] ** 2
                    + vals[_UXZ] ** 2) / (uxx + uzz)
        return pt
    return valid_sample(draw, solved)[1]


@lru_cache(maxsize=4)
def _symmetry_pieces(v: VectorField) -> Callable[[Mapping[str, OpaqueBinding]], Callable]:
    """The terms of pr V (S2[u] - f) with f left opaque: the prolonged
    second-order coefficients times dS2/du_J, and minus the transport of f.
    They are compiled over ``_PIECE_VARS`` once per field, with f bound
    per call.  A classification row checks its printed field and its lift
    against each profile in turn, so the last few fields are all that is
    kept."""
    prl = prolong2(v)
    pieces = [mul(prl.coeff(idx), S2_JET_DERIVATIVES[idx]) for idx in jet_indices(2)]
    fop = opaque("f", sym("x"), sym("y"), sym("z"))
    for i, s in enumerate(SPATIAL):
        if v.coeff(s) != ZERO:
            pieces.append(neg(mul(v.coeff(s), deriv(fop, (i + 1,)))))
    return compile_template(tuple(pieces), _PIECE_VARS)


def check_symmetry(v: VectorField, f_expr: Expr,
                   inner: Mapping[str, OpaqueBinding] | None = None,
                   n: int = 100, tol: float = 1e-8,
                   seed: int = DEFAULT_SEED) -> SymmetryCheck:
    """Sample pr V (S2[u] - f) on the variety S2[u] = f and report the
    largest residual relative to the term scale.

    ``f_expr`` is a concrete expression in (x, y, z); profiles inside it
    (opaque applications like H) are evaluated through ``inner``.  The
    residual is summed from its constituent terms without normalization,
    so the check is independent of the symbolic route.

    The points are those of ``n`` calls of ``_variety_point`` on the
    candidates that this call draws from its own ``random.Random(seed)``.
    ``n`` must be at least 1.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    stray = {name for c in v.coeffs for name in free_symbols(c)} - set(v.space.variables)
    if stray:
        raise ExprError(f"field still has unbound parameters {sorted(stray)}")
    extra = free_symbols(f_expr) - set(SPATIAL)
    if extra:
        raise ExprError(f"right-hand side has free symbols {sorted(extra)}")

    binding = OpaqueBinding(("x", "y", "z"), f_expr, inner)
    pieces_at = _symmetry_pieces(v)({"f": binding})

    draw = partial(sample_point, _PIECE_VARS, random.Random(seed))
    worst = 0.0
    worst_args: list[float] | None = None
    for _ in range(n):
        args = _variety_point(draw, binding.fn)
        pieces = pieces_at(*args)
        resid = abs(math.fsum(pieces))
        scale = max(map(abs, pieces), default=0.0)
        rel = resid / (1.0 + scale)
        if rel > worst:
            worst = rel
            worst_args = args
    witness = None if worst_args is None else dict(zip(_PIECE_VARS, worst_args))
    return SymmetryCheck(worst, n, tol, witness)
