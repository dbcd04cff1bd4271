"""Second-order prolongation machinery for scalar equations on (x, y, z).

Jet coordinates are plain symbols named ``u``, ``u_x``, ``u_xy``, ... with
sorted index strings; a second dependent family (``f``, ``f_x``, ...) is
used when the right-hand side transforms too.  The prolonged coefficient
of d/du_J is built with the recursive rule

    phi^{J,i} = D_i(phi^J) - sum_j D_i(xi^j) * u_{J,j}

which never references jets beyond order two; the classical closed form
D_J(phi - sum xi^i u_i) + sum xi^i u_{J,i} serves as an independent test
oracle (its third-order jets must cancel identically).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .expr import (
    EvalDomainError, Expr, ExprError, Opaque, OpaqueBinding, ZERO, add,
    compile_evaluator, deriv, diff, free_symbols, mul, neg, num, opaque,
    pow_, sym,
)
from .fields import VectorField
from .normalize import DEFAULT_SEED, normalize
from .parse import parse

__all__ = [
    "SPATIAL", "JetOrderError", "jet_indices", "jet_symbol", "jet_order",
    "total_derivative", "Prolongation", "prolong2", "hessian2",
    "S2_JET_DERIVATIVES", "solve_uyy", "transport_term",
    "invariance_residual", "sample_on_variety", "SymmetryCheck",
    "check_symmetry",
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


def jet_symbol(family: str, idx: str) -> Expr:
    return sym(family if not idx else f"{family}_{''.join(sorted(idx))}")


def jet_order(name: str, families: Sequence[str]) -> int | None:
    """Order of a jet symbol name, or None if not a jet of these families."""
    for fam in families:
        if name == fam:
            return 0
        if name.startswith(fam + "_"):
            idx = name[len(fam) + 1:]
            if idx and all(c in "xyz" for c in idx) and "".join(sorted(idx)) == idx:
                return len(idx)
    return None


def total_derivative(e: Expr, var: str, families: Sequence[str] = ("u",),
                     max_order: int = 3) -> Expr:
    """Total derivative D_var treating each family as a function of (x,y,z).

    Jets up to ``max_order`` are available; differentiating an expression
    that references top-order jets would need the next table and raises.
    """
    if var not in SPATIAL:
        raise ExprError(f"total derivative along {var!r}; expected one of {SPATIAL}")
    terms = [diff(e, var)]
    for name in sorted(free_symbols(e)):
        order = jet_order(name, families)
        if order is None:
            continue
        if order >= max_order:
            raise JetOrderError(
                f"total derivative of {name} needs jets of order {order + 1}")
        fam = name.split("_")[0]
        idx = name.split("_")[1] if "_" in name else ""
        terms.append(mul(diff(e, name), jet_symbol(fam, idx + var)))
    return add(*terms)


# ---------------------------------------------------------------------------
# prolongation

@dataclass(frozen=True)
class Prolongation:
    """Coefficients of d/du_J for |J| = 1, 2 of the prolonged field."""

    field: VectorField
    dependent: str
    phi: Mapping[str, Expr]     # keys like 'x', 'xy' (jet index strings)

    def coeff(self, idx: str) -> Expr:
        return self.phi["".join(sorted(idx))]


def prolong2(v: VectorField, dependent: str = "u",
             families: Sequence[str] | None = None) -> Prolongation:
    """Second prolongation of a point field on (x, y, z, dependent, ...).

    Coefficients are normalized; by construction they involve jets of
    order at most two (asserted defensively).
    """
    vars_ = v.space.variables
    if dependent not in vars_:
        raise ExprError(f"{dependent!r} is not a coordinate of {v.space.name}")
    if families is None:
        families = tuple(n for n in vars_ if n not in SPATIAL)
    xi = {s: v.coeff(s) for s in SPATIAL}
    phi0 = v.coeff(dependent)

    def D(e: Expr, s: str) -> Expr:
        return total_derivative(e, s, families=families)

    phi: dict[str, Expr] = {}
    for i in SPATIAL:
        phi[i] = normalize(add(D(phi0, i),
                               *[neg(mul(D(xi[j], i), jet_symbol(dependent, j)))
                                 for j in SPATIAL]))
    for idx in jet_indices(2):
        base, i = idx[:-1], idx[-1]
        phi[idx] = normalize(add(D(phi[base], i),
                                 *[neg(mul(D(xi[j], i), jet_symbol(dependent, base + j)))
                                   for j in SPATIAL]))
    for idx, e in phi.items():
        for name in free_symbols(e):
            order = jet_order(name, (dependent,))
            if order is not None and order > 2:
                raise JetOrderError(f"prolongation coefficient {idx} kept {name}")
    return Prolongation(v, dependent, phi)


# ---------------------------------------------------------------------------
# the operator

def hessian2(dependent: str = "u") -> Expr:
    """Sum of the principal 2x2 Hessian minors in jet coordinates."""
    d = dependent
    return parse(f"{d}_xx*{d}_yy + {d}_xx*{d}_zz + {d}_yy*{d}_zz"
                 f" - {d}_xy^2 - {d}_yz^2 - {d}_xz^2")


S2_JET_DERIVATIVES: dict[str, Expr] = {
    "xx": parse("u_yy + u_zz"),
    "yy": parse("u_xx + u_zz"),
    "zz": parse("u_xx + u_yy"),
    "xy": parse("-2*u_xy"),
    "yz": parse("-2*u_yz"),
    "xz": parse("-2*u_xz"),
}


def solve_uyy(rhs: Expr) -> Expr:
    """u_yy on the solution variety S2[u] = rhs (division by u_xx + u_zz)."""
    return normalize(mul(add(rhs, parse("-u_xx*u_zz + u_xy^2 + u_yz^2 + u_xz^2")),
                         pow_(parse("u_xx + u_zz"), num(-1))))


def transport_term(v: VectorField, target: Expr | None = None) -> Expr:
    """How the field transports a right-hand side f(x, y, z): the spatial
    part applied through formal derivatives of an opaque f, i.e.
    xi*f_1 + zeta*f_2 + eta*f_3 evaluated at (x, y, z)."""
    f = opaque("f", sym("x"), sym("y"), sym("z")) if target is None else target
    if not isinstance(f, Opaque):
        raise ExprError("transport target must be an opaque application")
    return add(*[mul(v.coeff(s), deriv(f, (i + 1,)))
                 for i, s in enumerate(SPATIAL) if v.coeff(s) != ZERO])


def invariance_residual(prl: Prolongation, rhs_variation: Expr) -> Expr:
    """pr V (S2[u] - f) as an expression in jets: the second-order
    coefficients contracted with dS2/du_J, minus the variation of f."""
    terms = [mul(prl.coeff(idx), S2_JET_DERIVATIVES[idx]) for idx in jet_indices(2)]
    return add(*terms, neg(rhs_variation))


# ---------------------------------------------------------------------------
# numeric checks on the solution variety

def _draw(rng: random.Random, lo: float = 0.1, hi: float = 2.0) -> float:
    mag = rng.uniform(lo, hi)
    return mag if rng.random() < 0.5 else -mag


def sample_on_variety(rng: random.Random, f_at: Callable[[float, float, float], float],
                      include_order3: bool = False, guard: float = 0.25,
                      max_attempts: int = 100) -> dict[str, float]:
    """Random jet point satisfying S2[u] = f(x, y, z) exactly (u_yy solved).

    The trace pivot u_xx + u_zz is kept away from zero so the solved u_yy
    stays well-scaled.
    """
    for _ in range(max_attempts):
        pt = {s: _draw(rng) for s in ("x", "y", "z", "u")}
        for idx in jet_indices(1) + jet_indices(2):
            pt[f"u_{idx}"] = _draw(rng)
        if abs(pt["u_xx"] + pt["u_zz"]) < guard:
            continue
        try:
            fv = f_at(pt["x"], pt["y"], pt["z"])
        except (ArithmeticError, EvalDomainError):
            continue  # f undefined here (sqrt, ln): draw another point
        pt["u_yy"] = (fv - pt["u_xx"] * pt["u_zz"] + pt["u_xy"] ** 2
                      + pt["u_yz"] ** 2 + pt["u_xz"] ** 2) / (pt["u_xx"] + pt["u_zz"])
        if include_order3:
            for idx in jet_indices(3):
                pt[f"u_{idx}"] = _draw(rng)
        return pt
    raise EvalDomainError("could not sample a well-conditioned variety point")


@dataclass(frozen=True)
class SymmetryCheck:
    """Outcome of the numeric invariance check on the solution variety."""

    max_residual: float
    n_points: int
    tol: float
    witness: dict[str, float] | None = None   # worst sampled point

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


@lru_cache(maxsize=4)
def _symmetry_pieces(v: VectorField) -> tuple[Expr, ...]:
    """The terms of pr V (S2[u] - f) with f left opaque: the prolonged
    second-order coefficients times dS2/du_J, and minus the transport of f.
    A classification row checks its printed field and its lift against
    each profile in turn, so the last few fields are all that is kept."""
    prl = prolong2(v, "u", families=("u",))
    pieces = [mul(prl.coeff(idx), S2_JET_DERIVATIVES[idx]) for idx in jet_indices(2)]
    fop = opaque("f", sym("x"), sym("y"), sym("z"))
    for i, s in enumerate(SPATIAL):
        if v.coeff(s) != ZERO:
            pieces.append(neg(mul(v.coeff(s), deriv(fop, (i + 1,)))))
    return tuple(pieces)


def check_symmetry(v: VectorField, f_expr: Expr,
                   inner: Mapping[str, OpaqueBinding] | None = None,
                   n: int = 100, tol: float = 1e-8,
                   seed: int = DEFAULT_SEED, rng: random.Random | None = None,
                   ) -> SymmetryCheck:
    """Sample pr V (S2[u] - f) on the variety S2[u] = f and report the
    largest residual relative to the term scale.

    ``f_expr`` is a concrete expression in (x, y, z); profiles inside it
    (opaque applications like H) are evaluated through ``inner``.  The
    residual is summed from its constituent terms without normalization,
    so the check is independent of the symbolic route.
    """
    stray = {name for c in v.coeffs for name in free_symbols(c)} - set(v.space.variables)
    if stray:
        raise ExprError(f"field still has unbound parameters {sorted(stray)}")
    extra = free_symbols(f_expr) - set(SPATIAL)
    if extra:
        raise ExprError(f"right-hand side has free symbols {sorted(extra)}")

    var_order = ["x", "y", "z", "u"] + [f"u_{idx}" for idx in jet_indices(1) + jet_indices(2)]
    binding = OpaqueBinding.from_expr(("x", "y", "z"), f_expr, inner=inner)
    pieces_at = compile_evaluator(_symmetry_pieces(v), var_order, {"f": binding})

    rng = rng or random.Random(seed)
    worst = 0.0
    witness: dict[str, float] | None = None
    for _ in range(n):
        pt = sample_on_variety(rng, binding.fn)
        args = [pt[name] for name in var_order]
        vals = pieces_at(*args)
        resid = abs(math.fsum(vals))
        scale = max((abs(x) for x in vals), default=0.0)
        rel = resid / (1.0 + scale)
        if rel > worst:
            worst = rel
            witness = pt
    return SymmetryCheck(worst, n, tol, witness)
