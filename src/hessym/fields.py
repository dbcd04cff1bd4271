"""Vector fields with polynomial coefficients and their Lie algebra.

Provides commutators, exact decomposition in a basis (one exact
Gauss-Jordan, ``rref``), structure-constant tables and closed-form adjoint
matrices Ad(exp(eps*B_i)) computed from the Lie series
sum_m (-eps)^m/m! ad_i^m.  The same closed-form exponential
(``exp_closed_form``) gives the affine flows of ``flows``.  Everything is
exact rational arithmetic; numeric evaluation compiles the detected closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .expr import (
    ZERO, Expr, ExprError, Num, add, call, compile_evaluator, diff, div,
    free_symbols, mul, num, pow_, sub, sym, to_text,
)
from .normalize import Monomial, as_polynomial, normalize
from .parse import parse

__all__ = [
    "BaseSpace", "E4", "E5", "P4", "VectorField", "LieBasis",
    "StructureTable", "AdjointMatrix", "NotInSpanError", "vf",
    "commutator", "decompose", "structure_table", "adjoint", "exp_closed_form",
    "project", "format_combination", "rref",
]


@dataclass(frozen=True)
class BaseSpace:
    name: str
    variables: tuple[str, ...]


E4 = BaseSpace("E4", ("x", "y", "z", "u"))
E5 = BaseSpace("E5", ("x", "y", "z", "u", "f"))
P4 = BaseSpace("P4", ("x", "y", "z", "f"))


class NotInSpanError(ExprError):
    def __init__(self, message: str, residual: "VectorField"):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class VectorField:
    """First-order operator sum_i coeff_i * d/d(var_i) on a base space.

    Coefficients are stored normalized, so structural equality of fields is
    semantic equality.  ``params`` lists symbols allowed in coefficients
    beyond the base variables (classification parameters like g1).
    """

    space: BaseSpace
    coeffs: tuple[Expr, ...]
    params: frozenset[str] = field(default_factory=frozenset, compare=False)

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.space.variables):
            raise ExprError("one coefficient per base variable required")
        object.__setattr__(self, "coeffs", tuple(normalize(c) for c in self.coeffs))
        allowed = set(self.space.variables) | self.params
        for v, c in zip(self.space.variables, self.coeffs):
            extra = free_symbols(c) - allowed
            if extra:
                raise ExprError(
                    f"coefficient of d/d{v} uses symbols outside {self.space.name}: {sorted(extra)}")

    def coeff(self, var: str) -> Expr:
        return self.coeffs[self.space.variables.index(var)]

    def apply(self, e: Expr) -> Expr:
        """Directional derivative of an expression on the base space."""
        return add(*[mul(c, diff(e, v)) for v, c in zip(self.space.variables, self.coeffs)
                     if c != ZERO]) if any(c != ZERO for c in self.coeffs) else ZERO

    def is_zero_field(self) -> bool:
        return all(c == ZERO for c in self.coeffs)

    def scaled(self, factor: Expr | int | Fraction) -> "VectorField":
        if not isinstance(factor, Expr):
            factor = num(factor)
        return VectorField(self.space, tuple(mul(factor, c) for c in self.coeffs),
                           self.params | free_symbols(factor))

    def plus(self, other: "VectorField") -> "VectorField":
        if other.space != self.space:
            raise ExprError("cannot add fields on different spaces")
        return VectorField(self.space, tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs)),
                           self.params | other.params)

    def __str__(self) -> str:
        parts = [f"({to_text(c)})*d_{v}" for v, c in zip(self.space.variables, self.coeffs)
                 if c != ZERO]
        return " + ".join(parts) if parts else "0"


def vf(space: BaseSpace, params: Iterable[str] = (), **coeffs: str | Expr) -> VectorField:
    """Convenience constructor: vf(E4, x='1', u='x') = d/dx + x*d/du."""
    unknown = set(coeffs) - set(space.variables)
    if unknown:
        raise ExprError(f"unknown variables {sorted(unknown)} for {space.name}")
    table = tuple(
        parse(c) if isinstance(c := coeffs.get(v, ZERO), str) else c
        for v in space.variables
    )
    return VectorField(space, table, frozenset(params))


def commutator(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [V, W]: coefficients V(W^k) - W(V^k), normalized."""
    if v.space != w.space:
        raise ExprError("bracket requires a common base space")
    coeffs = tuple(sub(v.apply(wc), w.apply(vc)) for vc, wc in zip(v.coeffs, w.coeffs))
    return VectorField(v.space, coeffs, v.params | w.params)


# ---------------------------------------------------------------------------
# exact linear algebra over the coefficient monomials

_CoeffKey = tuple[int, Monomial]


def _field_vector(v: VectorField) -> dict[_CoeffKey, Fraction]:
    out: dict[_CoeffKey, Fraction] = {}
    for i, c in enumerate(v.coeffs):
        poly, _ = as_polynomial(c)
        for m, val in poly.items():
            out[(i, m)] = val
    return out


def rref(rows: Sequence[Sequence[Fraction]],
         ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan elimination over the first ``ncols`` columns.

    Returns the reduced rows, pivot rows first with each pivot scaled to 1
    and cleared from every other row, and the pivot columns.  Columns past
    ``ncols`` (an augmented right-hand side) are carried along unpivoted.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = pr = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        pivots.append(c)
    return m, pivots


def _solve_exact(columns: Sequence[dict[_CoeffKey, Fraction]],
                 target: dict[_CoeffKey, Fraction]) -> tuple[Fraction, ...] | None:
    """Solve sum_j c_j * col_j = target exactly; None if inconsistent."""
    keys = sorted({k for col in columns for k in col} | set(target))
    n = len(columns)
    rows, pivots = rref([[col.get(k, Fraction(0)) for col in columns]
                         + [target.get(k, Fraction(0))] for k in keys], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        sol[c] = row[n]
    return tuple(sol)


@dataclass(frozen=True)
class LieBasis:
    """Ordered tuple of independent fields on a common space."""

    name: str
    fields: tuple[VectorField, ...]

    def __post_init__(self) -> None:
        spaces = {f.space for f in self.fields}
        if len(spaces) != 1:
            raise ExprError("basis fields must share one base space")
        cols = [_field_vector(f) for f in self.fields]
        keys = sorted({k for col in cols for k in col})
        mat = [[col.get(k, Fraction(0)) for col in cols] for k in keys]
        if len(rref(mat, len(cols))[1]) != len(self.fields):
            raise ExprError(f"basis {self.name!r} is linearly dependent")

    @property
    def space(self) -> BaseSpace:
        return self.fields[0].space

    @property
    def dim(self) -> int:
        return len(self.fields)


def decompose(v: VectorField, basis: LieBasis) -> tuple[Fraction, ...]:
    """Exact coordinates of v in the basis; NotInSpanError with the residual
    field if v lies outside the rational span."""
    if v.space != basis.space:
        raise ExprError("field and basis live on different spaces")
    cols = [_field_vector(f) for f in basis.fields]
    sol = _solve_exact(cols, _field_vector(v))
    if sol is None:
        # best-effort projection for the error report: solve the consistent
        # sub-system given by the keys the basis spans
        span_keys = {k for col in cols for k in col}
        target = {k: val for k, val in _field_vector(v).items() if k in span_keys}
        part = _solve_exact(cols, target) or tuple(Fraction(0) for _ in cols)
        approx = v
        for c, f in zip(part, basis.fields):
            approx = approx.plus(f.scaled(-c))
        raise NotInSpanError(f"field is not in the span of basis {basis.name!r}", approx)
    return sol


def format_combination(coeffs: Sequence[Fraction | Expr], names: Sequence[str]) -> str:
    """Human-readable linear combination, e.g. '-Z3' or 'Z1 + 2*Z7'."""
    parts: list[str] = []
    for c, n in zip(coeffs, names):
        if isinstance(c, Expr):
            if c == ZERO:
                continue
            txt = to_text(c)
            term = n if txt == "1" else (f"-{n}" if txt == "-1" else f"({txt})*{n}")
        else:
            if c == 0:
                continue
            if c == 1:
                term = n
            elif c == -1:
                term = f"-{n}"
            else:
                term = f"{c}*{n}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# structure constants

@dataclass(frozen=True)
class StructureTable:
    """c[i][j][k]: coefficient of B_k in [B_i, B_j]."""

    basis: LieBasis
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    names: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.basis.dim

    def bracket_coeffs(self, i: int, j: int) -> tuple[Fraction, ...]:
        return self.c[i][j]

    def ad_matrix(self, i: int) -> list[list[Fraction]]:
        """(ad B_i) in basis coordinates: column j holds [B_i, B_j]."""
        n = self.dim
        return [[self.c[i][j][k] for j in range(n)] for k in range(n)]

    def bracket_vector(self, a: Sequence[float], b: Sequence[float]) -> np.ndarray:
        """Bilinear bracket on coordinate vectors (numeric)."""
        n = self.dim
        out = np.zeros(n)
        for i in range(n):
            if a[i] == 0:
                continue
            for j in range(n):
                if b[j] == 0:
                    continue
                for k in range(n):
                    ck = self.c[i][j][k]
                    if ck:
                        out[k] += a[i] * b[j] * float(ck)
        return out

    def check_antisymmetry(self) -> bool:
        n = self.dim
        return all(self.c[i][j][k] == -self.c[j][i][k]
                   for i in range(n) for j in range(n) for k in range(n))

    def check_jacobi(self) -> bool:
        """Exact Jacobi identity in coordinates."""
        n = self.dim

        def brk(i: int, j: int) -> tuple[Fraction, ...]:
            return self.c[i][j]

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = [Fraction(0)] * n
                    for m in range(n):
                        for t in ((i, j, k), (j, k, i), (k, i, j)):
                            cm = self.c[t[1]][t[2]][m]
                            if cm:
                                for l in range(n):
                                    total[l] += cm * self.c[t[0]][m][l]
                    if any(total):
                        return False
        return True

    def to_markdown(self) -> str:
        head = "| [ , ] | " + " | ".join(self.names) + " |"
        sep = "|" + "---|" * (self.dim + 1)
        lines = [head, sep]
        for i in range(self.dim):
            cells = [format_combination(self.c[i][j], self.names) for j in range(self.dim)]
            lines.append(f"| {self.names[i]} | " + " | ".join(cells) + " |")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "basis": list(self.names),
            "dim": self.dim,
            "brackets": [[format_combination(self.c[i][j], self.names)
                          for j in range(self.dim)] for i in range(self.dim)],
            "constants": [[[str(k) for k in row] for row in plane] for plane in self.c],
        }


def structure_table(basis: LieBasis, names: Sequence[str] | None = None) -> StructureTable:
    """Brackets of all basis pairs decomposed exactly in the basis.

    Raises NotInSpanError if the span is not closed under the bracket.
    """
    n = basis.dim
    names = tuple(names) if names else tuple(f"B{i + 1}" for i in range(n))
    zero = tuple(Fraction(0) for _ in range(n))
    c: list[list[tuple[Fraction, ...]]] = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            co = decompose(commutator(basis.fields[i], basis.fields[j]), basis)
            c[i][j] = co
            c[j][i] = tuple(-x for x in co)
    return StructureTable(basis, tuple(tuple(row) for row in c), names)


# ---------------------------------------------------------------------------
# adjoint representation

class AdjointDetectionError(ExprError):
    pass


@dataclass(frozen=True)
class AdjointMatrix:
    """A(eps) with Ad(exp(eps*B_i)) B_j = sum_k A[k][j](eps) B_k."""

    generator: int  # 0-based index into the basis
    names: tuple[str, ...]
    entries: tuple[tuple[Expr, ...], ...]
    eps_name: str = "eps"

    def eval_at(self, eps: float) -> np.ndarray:
        n = len(self.names)
        return np.array(self._compiled(eps), dtype=float).reshape(n, n)

    @cached_property
    def _compiled(self):
        """All n*n entries, row by row, as one compiled function of eps."""
        return compile_evaluator(tuple(e for row in self.entries for e in row),
                                 [self.eps_name])

    def column(self, j: int) -> tuple[Expr, ...]:
        return tuple(self.entries[k][j] for k in range(len(self.names)))

    def to_markdown(self) -> str:
        head = f"| Ad(exp({self.eps_name}*{self.names[self.generator]})) | " + \
            " | ".join(self.names) + " |"
        sep = "|" + "---|" * (len(self.names) + 1)
        cells = [format_combination(self.column(j), self.names)
                 for j in range(len(self.names))]
        return "\n".join([head, sep,
                          f"| {self.names[self.generator]} | " + " | ".join(cells) + " |"])

    def to_json_dict(self) -> dict:
        n = len(self.names)
        return {
            "generator": self.names[self.generator],
            "images": [format_combination(self.column(j), self.names) for j in range(n)],
            "entries": [[to_text(self.entries[k][j]) for j in range(n)] for k in range(n)],
        }


def _closed_form(seq: list[Fraction], eps: Expr) -> Expr:
    """Closed form of sum_m seq[m]/m! * eps^m from the exact power sequence.

    Detects terminating, geometric (e^{c*eps}) and second-order
    w'' = -c*w (sin/cos) patterns, allowing one off-pattern leading term.
    The window length is long enough that, combined with Cayley-Hamilton
    for the matrix, agreement on the window is a proof.
    """
    L = len(seq) - 1
    last = max((m for m, s in enumerate(seq) if s != 0), default=-1)
    if last < 0:
        return ZERO
    # terminating (nilpotent direction)
    if last <= L - 6:
        return add(*[mul(num(seq[m] / math.factorial(m)), pow_eps(eps, m))
                     for m in range(last + 1) if seq[m] != 0])
    # geometric: s_{m+1} = c s_m from m0
    for m0 in (0, 1):
        if seq[m0] == 0:
            continue
        cg = seq[m0 + 1] / seq[m0]
        if cg == 0:
            continue
        if all(seq[m + 1] == cg * seq[m] for m in range(m0, L)):
            expo = call("exp", mul(num(cg), eps))
            if m0 == 0:
                return mul(num(seq[0]), expo)
            lead = seq[1] / cg
            return add(num(seq[0] - lead), mul(num(lead), expo))
    # trigonometric: s_{m+2} = -c s_m from m0, c > 0
    for m0 in (0, 1):
        base = next((m for m in range(m0, L - 1) if seq[m] != 0), None)
        if base is None:
            continue
        ct = -seq[base + 2] / seq[base]
        if ct <= 0:
            continue
        if all(seq[m + 2] == -ct * seq[m] for m in range(m0, L - 1)):
            omega_expr = _sqrt_expr(ct)
            arg = mul(omega_expr, eps) if omega_expr != num(1) else eps
            # entry = (s_0 + s_2/c) + (s_1/w)*sin(w*eps) - (s_2/c)*cos(w*eps);
            # for m0 = 0 the constant folds away since s_2 = -c*s_0
            return add(num(seq[0] + seq[2] / ct),
                       mul(_div_frac(seq[1], omega_expr), call("sin", arg)),
                       mul(num(-seq[2] / ct), call("cos", arg)))
    raise AdjointDetectionError("entry series matches no supported pattern")


def pow_eps(eps: Expr, m: int) -> Expr:
    return num(1) if m == 0 else (eps if m == 1 else pow_(eps, num(m)))


def _sqrt_expr(c: Fraction) -> Expr:
    """sqrt(c) as an exact Expr when c is a perfect square, else a sqrt atom."""
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return num(Fraction(rn, rd))
    return call("sqrt", num(c))


def _div_frac(s: Fraction, omega: Expr) -> Expr:
    if s == 0:
        return ZERO
    if isinstance(omega, Num):
        return num(s / omega.value)
    return div(num(s), omega)


def exp_closed_form(M: Sequence[Sequence[Fraction]], eps: Expr,
                    window: int = 16) -> tuple[tuple[Expr, ...], ...]:
    """Closed-form entries of exp(eps*M) for an exact square matrix M.

    The powers M^0 .. M^window are exact Fraction products taken over the
    nonzeros of each row of M only (ad and flow generators are very
    sparse), and each entry's sequence sum_m M^m[k][j]/m! * eps^m is
    classified by ``_closed_form`` as terminating, geometric or sin/cos.
    """
    n = len(M)
    sparse = [[(t, v) for t, v in enumerate(row) if v] for row in M]
    powers: list[list[list[Fraction]]] = [[[Fraction(int(r == c)) for c in range(n)]
                                           for r in range(n)]]
    for _ in range(window):
        prev = powers[-1]
        powers.append([[sum((v * prev[t][c] for t, v in row), Fraction(0))
                        for c in range(n)] for row in sparse])
    return tuple(
        tuple(_closed_form([powers[m][k][j] for m in range(window + 1)], eps)
              for j in range(n))
        for k in range(n)
    )


def adjoint(table: StructureTable, i: int, eps_name: str = "eps",
            window: int = 16) -> AdjointMatrix:
    """Closed-form matrix of Ad(exp(eps*B_i)) on basis coordinates.

    The Lie series sum_m (-eps)^m/m! ad_i^m is exp(eps*(-ad_i)), so the
    entries come from ``exp_closed_form`` of -ad_i, the route the affine
    flows take too.  Invariants (identity at eps=0, inverse at -eps) are
    cheap to check numerically via eval_at.
    """
    neg_ad = [[-v for v in row] for row in table.ad_matrix(i)]
    entries = exp_closed_form(neg_ad, sym(eps_name), window)
    return AdjointMatrix(i, table.names, entries, eps_name)


# ---------------------------------------------------------------------------
# projection between spaces

def project(v: VectorField, target: BaseSpace) -> VectorField:
    """Drop coefficients of variables absent from the target space.

    Raises if a kept coefficient still references a dropped variable (the
    projection would not be a well-defined field on the target).
    """
    dropped = set(v.space.variables) - set(target.variables)
    coeffs = []
    for var in target.variables:
        if var in v.space.variables:
            c = v.coeff(var)
            bad = free_symbols(c) & dropped
            if bad:
                raise ExprError(
                    f"coefficient of d/d{var} references dropped variables {sorted(bad)}")
            coeffs.append(c)
        else:
            coeffs.append(ZERO)
    return VectorField(target, tuple(coeffs), v.params)
