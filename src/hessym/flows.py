"""Finite one-parameter transforms of local solutions.

Every tabulated generator is affine in (x, y, z, u), so its flow is the
matrix exponential of a 5x5 generator matrix acting on (x, y, z, u, 1),
taken in closed form from the exact power series of that matrix.
The module rebuilds each printed solution transform of
``catalog.flow_cases()`` from that flow and compares it with the printed
formula under four readings: the group orientation (push forward by +t
or -t) times the interpretation of the printed u-factor (as literally
printed, or with the first-order (1 + t) factor read as the exponential
it approximates).  It holds computations only; the printed cases and
their operators are catalog data.

The base solution is the quadratic-plus-corrugation local family

    u0 = (t1 x^2 + t2 y^2 + t3 z^2)/2 + eps^5 W((x, y, z)/eps^2),

whose operator value is exactly t1 t2 + t1 t3 + t2 t3 when W = 0.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable, Mapping, NamedTuple, Sequence

from .catalog import FLAG_NOTES, CaseSpec, case_by_id, flow_cases
from .expr import (
    EvalDomainError,
    Expr,
    ExprError,
    Frozen,
    OpaqueBinding,
    ZERO,
    add,
    call,
    compile_evaluator,
    diff,
    mul,
    num,
    sub,
    substitute,
    sym,
    to_text,
)
from .fields import (
    E4, Rows, VectorField, compile_rows, exp_closed_form, identity, matmul, matvec,
    max_abs_diff,
)
from .jets import SPATIAL, jet_indices, s2_of, s2_of_hessian, s2_weight
from .normalize import (
    DEFAULT_SEED, NormalizeError, SymmetryCheck, as_polynomial, normalize, sample_point,
    uniform, valid_sample, worst_check,
)
from .parse import parse

__all__ = [
    "AffineFlow", "flow_of", "field_matrix",
    "CaseCheck", "verify_case", "verify_all_cases",
    "TransformOutcome", "apply_case",
    "tian_base", "base_family_holds", "BASE_SOLUTION_TEXT", "equivariance_weight",
]


BASE_SOLUTION_TEXT = ("(1/2)*(t1*x^2 + t2*y^2 + t3*z^2)"
                      " + eps^5*W(x/eps^2, y/eps^2, z/eps^2)")

# smooth corrugation profile used whenever W needs a value
W_BODY = "sin(a) + exp(b/5) + c^2/10"


def tian_base(t1=None, t2=None, t3=None, eps=None, with_bump: bool = True) -> Expr:
    """The base solution family; omitting the bump keeps it quadratic."""
    e = parse(BASE_SOLUTION_TEXT if with_bump
              else "(1/2)*(t1*x^2 + t2*y^2 + t3*z^2)")
    reps = {}
    for name, val in (("t1", t1), ("t2", t2), ("t3", t3), ("eps", eps)):
        if val is not None:
            reps[name] = num(Fraction(val)) if not isinstance(val, Expr) else val
    return substitute(e, reps) if reps else e


def base_family_holds() -> bool:
    """Whether S2 of the quadratic base is t1*t2 + t1*t3 + t2*t3 exactly,
    by ``jets.s2_of``'s canonical form."""
    return normalize(sub(s2_of(tian_base(with_bump=False)),
                         parse("t1*t2 + t1*t3 + t2*t3"))) == ZERO


# ---------------------------------------------------------------------------
# affine flows

AFFINE_VARS = ("x", "y", "z", "u")


def field_matrix(v: VectorField) -> tuple[tuple[Fraction, ...], ...]:
    """Generator matrix L on (x, y, z, u, 1) for a field affine in all
    variables: row i holds the gradient of the i-th coefficient plus its
    constant term; the last row is zero."""
    if v.space != E4:
        raise ExprError("flows act on (x, y, z, u)")
    # the column of each monomial an affine coefficient may hold
    column = {((w, 1),): j for j, w in enumerate(AFFINE_VARS)} | {(): len(AFFINE_VARS)}
    rows = []
    for var in AFFINE_VARS:
        row = [Fraction(0)] * 5
        try:
            for m, c in as_polynomial(v.coeff(var))[0].items():
                row[column[m]] = Fraction(c)
        except (KeyError, NormalizeError):
            raise ExprError(f"coefficient of d_{var} is not affine") from None
        rows.append(tuple(row))
    rows.append((Fraction(0),) * 5)
    return tuple(rows)


def _as_fraction(e: Expr) -> Fraction:
    if e == ZERO:
        return Fraction(0)
    r = getattr(e, "value", None)
    if r is None:
        raise ExprError(f"expected a constant, got {to_text(e)}")
    return r


class AffineFlow(Frozen, fields=("L",)):
    """Flow matrices exp(t L) of an affine generator.

    ``entries`` holds exp(t L) as exact closed forms in t (polynomial,
    exponential or sin/cos), from the exact power series of L by
    ``fields.exp_closed_form``, the route the adjoint matrices take.  They
    are compiled once into one evaluator of all 25 entries.
    """

    L: tuple[tuple[Fraction, ...], ...]

    def __init__(self, L: tuple[tuple[Fraction, ...], ...]) -> None:
        object.__setattr__(self, "L", L)

    @cached_property
    def entries(self) -> tuple[tuple[Expr, ...], ...]:
        return exp_closed_form(self.L, sym("t"))

    @cached_property
    def _compiled(self):
        return compile_rows(self.entries, "t")

    def matrix(self, t: float) -> Rows:
        """exp(t L) evaluated from the closed forms, as rows of floats."""
        return self._compiled(t)


def _preimage_map(M_inverse: Rows) -> tuple[Rows, tuple[float, ...]]:
    """(B, c) with x_source = B x_target + c for the group element whose
    inverse has flow matrix ``M_inverse``: exp(t L) at -t for time t."""
    return (tuple(row[:3] for row in M_inverse[:3]),
            tuple(row[4] for row in M_inverse[:3]))


def flow_of(v: VectorField) -> AffineFlow:
    return AffineFlow(field_matrix(v))


def _pushforward_at(M: Rows, B: Rows, c: Sequence[float],
                    u0: Callable[[float, float, float], float],
                    pt: Sequence[float]) -> float:
    """Value at pt of the solution u0 carried by the group element with
    flow matrix M and preimage map (B, c): u0 at the preimage point, with
    the u-row of M applied."""
    p = _affine(B, c, pt)
    m = M[3]
    return m[0] * p[0] + m[1] * p[1] + m[2] * p[2] + m[3] * u0(*p) + m[4]


def _affine(B: Rows, c: Sequence[float], pt: Sequence[float]) -> tuple[float, ...]:
    """B pt + c."""
    return tuple(v + ci for v, ci in zip(matvec(B, pt), c))


# the (row, column) of the Hessian entry in each slot of jet_indices(2)
_HESSIAN_ENTRIES = tuple((SPATIAL.index(a), SPATIAL.index(b)) for a, b in jet_indices(2))


def _pushed_hessian(h: Sequence[float], s: float, B: Rows) -> tuple[float, ...]:
    """The six second derivatives at x of s*u0(B x + c) plus an affine
    function of x, by the chain rule s*B^T H B, from the six ``h`` of u0 at
    B x + c; both in ``jet_indices(2)`` order."""
    H = [[0.0] * 3 for _ in range(3)]
    for (i, j), v in zip(_HESSIAN_ENTRIES, h):
        H[i][j] = H[j][i] = v
    BtHB = matmul(tuple(zip(*B)), matmul(H, B))
    return tuple(s * BtHB[i][j] for i, j in _HESSIAN_ENTRIES)


def _equivariance_gap(h: Sequence[float], s: float, B: Rows, factor: float) -> float:
    """Gap between S2 of the pushed profile s*u0(B x + c) + ... at x and
    ``factor`` > 0 times S2 of u0 at B x + c, both from the six second
    derivatives ``h`` of u0 at B x + c, relative to the scale of their
    terms: S2 that cancels in large second derivatives rounds at that
    scale."""
    lhs, lhs_scale = s2_of_hessian(_pushed_hessian(h, s, B))
    rhs, rhs_scale = s2_of_hessian(h)
    return abs(lhs - factor * rhs) / (1.0 + lhs_scale + factor * rhs_scale)


def equivariance_weight(v: VectorField) -> Fraction:
    """Exponent rate w with S2 o flow = exp(w t) S2: the S2 weight of an
    affine field (``jets.s2_weight``), a rational number."""
    return _as_fraction(normalize(s2_weight(v)))


# ---------------------------------------------------------------------------
# verification

READINGS = ((-1, "exp"), (-1, "literal"), (1, "exp"), (1, "literal"))

# the bounds of the group law, the recovered generator and a matching reading
GROUP_LAW_TOL, GENERATOR_TOL, MATCH_TOL = 1e-12, 1e-8, 1e-9
T_VALUES = (0.35, -0.45, 0.8)  # the times of the equivariance and reading checks


class CaseCheck(NamedTuple):
    """The sampled checks of one printed transform, each over both signs
    where the case has a sign parameter."""

    case_id: int
    row_id: str | None
    group_law: SymmetryCheck        # over the parameter pairs drawn, 8 per sign
    generator: SymmetryCheck        # one central difference per sign
    equivariance: SymmetryCheck     # over the sampled points, against the case bound
    weight_rate: Fraction
    readings: tuple[tuple[tuple[int, str], SymmetryCheck], ...]  # in READINGS order
    field_consistent: bool
    flags: tuple[str, ...]

    @property
    def matched_readings(self) -> tuple[tuple[int, str], ...]:
        """The readings whose check passed, within ``MATCH_TOL``."""
        return tuple(r for r, chk in self.readings if chk.passed)

    @property
    def reparametrization(self) -> str | None:
        matched = self.matched_readings
        if (-1, "exp") in matched and (-1, "literal") not in matched:
            return "printed (1 + t) factor read as exp(t)"
        return None

    @property
    def passed(self) -> bool:
        return (self.group_law.passed and self.generator.passed
                and self.equivariance.passed
                and (-1, "exp") in self.matched_readings
                and self.field_consistent)


@lru_cache(maxsize=None)
def _bindings() -> dict[str, OpaqueBinding]:
    """The W profile, shared so that its compiled evaluators are built once."""
    return {"W": OpaqueBinding(("a", "b", "c"), parse(W_BODY))}


def verify_case(case: CaseSpec, *, n_points: int = 20, seed: int = DEFAULT_SEED,
                tol: float = 1e-7, param_value: Fraction = Fraction(1),
                ) -> CaseCheck:
    """Check the flow algebraically and replay the printed transform.

    Group law and generator recovery test the matrix route on its own;
    the equivariance check ties the flow to the operator through the
    factor exp(w t) of the S2 weight w.  That check is an identity in the
    six second derivatives h of a profile at the preimage, so it draws each
    h by ``normalize.sample_point`` and pushes it forward by the chain
    rule; ``tol`` bounds its residual.  The printed formula is then
    compared against the computed pushforward under the four readings.
    """
    rng = random.Random(seed + case.case_id)
    row = case.row
    signs = (1, -1) if row and row.sign_param else (1,)

    group_law, generator, equivariance = [], [], []
    readings = {r: [] for r in READINGS}
    consistent = True
    rate = Fraction(0)

    for sign in signs:
        values = case.values(sign, param_value)
        v = case.field(values)
        flw = flow_of(v)
        rate = equivariance_weight(v)

        # the row's printed operator agrees with the lift of its generator
        if row is not None:
            consistent &= v == row.lifted_v5(values)

        # group law and inverse, on random parameter pairs
        worst_group = 0.0
        for _ in range(8):
            a, b = uniform(rng, -1, 1), uniform(rng, -1, 1)
            Ma = flw.matrix(a)
            M = flw.matrix(a + b)
            scale = max(1.0, max(abs(v) for row in M for v in row))
            worst_group = max(worst_group,
                              max_abs_diff(matmul(Ma, flw.matrix(b)), M) / scale)
            worst_group = max(worst_group,
                              max_abs_diff(matmul(Ma, flw.matrix(-a)), identity(5)))
        group_law.append(SymmetryCheck(worst_group, 8, GROUP_LAW_TOL))

        # central-difference generator recovery
        h = 1e-6
        D = [[(p - m) / (2 * h) for p, m in zip(rp, rm)]
             for rp, rm in zip(flw.matrix(h), flw.matrix(-h))]
        L = [[float(x) for x in row] for row in flw.L]
        generator.append(SymmetryCheck(
            max_abs_diff(D, L) / (1.0 + max(abs(v) for row in L for v in row)),
            1, GENERATOR_TOL))

        # the group element (M, B, c) at each time +-t the checks below use:
        # M(t) and M(-t) evaluated once, each the other's inverse
        element: dict[float, tuple[Rows, Rows, tuple[float, ...]]] = {}
        for t in T_VALUES:
            forward, backward = flw.matrix(t), flw.matrix(-t)
            element[t] = (forward, *_preimage_map(backward))
            element[-t] = (backward, *_preimage_map(forward))

        # finite equivariance, an identity in the six second derivatives h
        # at the preimage: each h is drawn directly
        per_time = 2 * (n_points // len(T_VALUES) + 1)
        worst_equi = 0.0
        for t in T_VALUES:
            M, B, _ = element[t]
            w_t = math.exp(float(rate) * t)
            for _ in range(per_time):
                h = sample_point(jet_indices(2), rng)
                worst_equi = max(worst_equi, _equivariance_gap(h, M[3][3], B, w_t))
        equivariance.append(SymmetryCheck(worst_equi, per_time * len(T_VALUES), tol))

        # printed formula versus computed pushforward; the orientation does
        # not enter the printed template
        cu = normalize(diff(v.coeff("u"), "u"))
        printed = {mode: _printed_evaluator(case, values, cu, mode)
                   for mode in ("exp", "literal")}
        for sigma, mode in READINGS:
            readings[(sigma, mode)].append(
                _reading_check(printed[mode], element, sigma, rng, n_points))

    return CaseCheck(case.case_id, case.row_id, worst_check(group_law),
                     worst_check(generator), worst_check(equivariance), rate,
                     tuple((r, worst_check(readings[r])) for r in READINGS),
                     consistent, case.flags)


@lru_cache(maxsize=None)
def _reading_base() -> tuple[Expr, Callable[..., float]]:
    """The base solution the readings replay, and its evaluator."""
    u0 = tian_base(Fraction(3, 4), Fraction(-1, 2), Fraction(5, 4), Fraction(9, 8))
    return u0, compile_evaluator(u0, ["x", "y", "z"], _bindings())


def _printed_evaluator(case: CaseSpec, values: Mapping[str, Fraction], cu: Expr,
                       mode: str) -> Callable[..., float]:
    """The case's printed template scale * u0(image) + shift over
    (x, y, z, t) at the parameter values, with the u-factor taken
    literally or as the exponential exp(-cu*t) it truncates."""
    subs = {k: num(v) for k, v in values.items()}
    img = [substitute(parse(tx), subs) for tx in case.image_text]
    if mode == "literal":
        scale = parse(case.u_scale_text)
    else:
        scale = (call("exp", mul(num(-1), mul(cu, sym("t"))))
                 if cu != ZERO else num(1))
    u0 = _reading_base()[0]
    printed = add(mul(scale, substitute(u0, dict(zip(SPATIAL, img)))),
                  parse(case.u_shift_text))
    return compile_evaluator(printed, ["x", "y", "z", "t"], _bindings())


def _reading_check(printed_fn: Callable[..., float],
                   element: Mapping[float, tuple[Rows, Rows, Sequence[float]]],
                   sigma: int, rng: random.Random, n_points: int) -> SymmetryCheck:
    """Worst relative gap between a printed template (``_printed_evaluator``)
    and the sigma-oriented pushforward, against ``MATCH_TOL``.  ``element``
    maps each time +-t to the flow matrix and preimage map (M, B, c) of
    that group element."""
    u0_fn = _reading_base()[1]
    per_time = max(3, n_points // len(T_VALUES))

    worst = 0.0
    for t in T_VALUES:
        M, B, c = element[sigma * t]
        for _ in range(per_time):
            pt = sample_point(SPATIAL, rng)
            want = printed_fn(*pt, t)
            got = _pushforward_at(M, B, c, u0_fn, pt)
            worst = max(worst, abs(want - got) / (1.0 + abs(want) + abs(got)))
    return SymmetryCheck(worst, per_time * len(T_VALUES), MATCH_TOL)


def verify_all_cases(**kwargs) -> tuple[CaseCheck, ...]:
    return tuple(verify_case(c, **kwargs) for c in flow_cases())


# ---------------------------------------------------------------------------
# applying one transform to a user-supplied solution

def _signed_sum(terms: Sequence[tuple[float, str]]) -> str:
    """The sum of (v, text) terms, each text spelling |v|'s term, signed by
    the v: "a - b + c", or "-a + b" when the first v is negative."""
    text = "".join((" - " if v < 0 else " + ") + magnitude for v, magnitude in terms)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _times(v: float, name: str) -> str:
    """|v|*name to 12 digits, or name alone when |v| is 1."""
    return name if abs(abs(v) - 1.0) < 1e-14 else f"{abs(v):.12g}*{name}"


def _affine_text(coeffs: Sequence[float], const: float) -> str:
    """coeffs . (x, y, z) + const, leaving out the terms below 1e-14."""
    terms = [(v, _times(v, name)) for v, name in zip(coeffs, SPATIAL) if abs(v) >= 1e-14]
    if abs(const) >= 1e-14 or not terms:
        terms.append((const, f"{abs(const):.12g}"))
    return _signed_sum(terms)


class TransformOutcome(NamedTuple):
    """One group element applied to one solution profile.

    The transformed solution is scale*u(preimage) plus a linear part in
    the preimage coordinates plus a shift; ``transformed_text`` spells it
    out with 12-digit coefficients.  ``check`` holds the worst relative gap
    between S2 of the transformed profile and s2_factor times S2 of the
    original at the preimage, over the sampled points."""

    case_id: int
    t: float
    weight_rate: Fraction
    s2_factor: float
    check: SymmetryCheck
    scale: float
    preimage: tuple[str, str, str]
    linear: tuple[float, float, float]
    shift: float
    transformed_text: str
    notes: tuple[str, ...]


def apply_case(case: CaseSpec | int, t: float, u_expr: Expr, *,
               values: Mapping[str, Fraction | int] | None = None,
               inner: Mapping[str, OpaqueBinding] | None = None,
               n_points: int = 40, tol: float = 1e-7,
               seed: int = DEFAULT_SEED) -> TransformOutcome:
    """Push a solution through the case's time-t group element and check
    the equivariance of S2 numerically on random points.

    Each of the ``n_points`` points is redrawn by ``valid_sample`` where u
    at the preimage or either S2 value is undefined (a restricted domain
    such as sqrt or ln); EvalDomainError when its draws run out or the S2
    factor overflows, and ValueError for a parameter the case lacks, a
    sign other than 1 or -1, or an ``n_points`` below 1."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if isinstance(case, int):
        case = case_by_id(case)
    vals = case.values()
    unknown = sorted(set(values or ()) - set(vals))
    if unknown:
        raise ValueError(f"case {case.case_id} has no parameter "
                         f"{', '.join(unknown)} (it takes: {', '.join(vals) or 'none'})")
    vals.update({k: Fraction(v) for k, v in (values or {}).items()})
    sign = case.row.sign_param if case.row else None
    if vals.get(sign, 1) not in (1, -1):
        raise ValueError(f"case {case.case_id}: sign {sign} must be 1 or -1, got {vals[sign]}")
    v = case.field(vals)
    flw = flow_of(v)
    rate = equivariance_weight(v)
    try:
        factor = math.exp(float(rate) * t)
    except OverflowError:
        raise EvalDomainError(f"the S2 factor exp({rate}*t) overflows at t = {t:g}") from None

    M = flw.matrix(t)
    B, c = _preimage_map(flw.matrix(-t))
    pre_texts = tuple(_affine_text(B[i], c[i]) for i in range(3))
    scale = M[3][3]
    linear = M[3][:3]
    shift = M[3][4]

    # u and its six second derivatives, compiled once
    u_and_hessian = compile_evaluator(
        (u_expr, *[diff(diff(u_expr, idx[0]), idx[1]) for idx in jet_indices(2)]),
        SPATIAL, inner)

    def gap(pt: Sequence[float]) -> float:
        return _equivariance_gap(u_and_hessian(*_affine(B, c, pt))[1:], scale, B, factor)

    draw = partial(sample_point, SPATIAL, random.Random(seed))
    worst = max(valid_sample(draw, gap)[1] for _ in range(n_points))

    terms = [(scale, _times(scale, f"u({', '.join(pre_texts)})"))]
    terms += [(lj, _times(lj, f"({px})"))
              for lj, px in zip(linear, pre_texts) if abs(lj) >= 1e-14]
    if abs(shift) >= 1e-14:
        terms.append((shift, f"{abs(shift):.12g}"))

    notes = tuple(FLAG_NOTES[fl] for fl in case.flags)
    return TransformOutcome(case.case_id, t, rate, factor,
                            SymmetryCheck(worst, n_points, tol), scale, pre_texts,
                            linear, shift, _signed_sum(terms), notes)
