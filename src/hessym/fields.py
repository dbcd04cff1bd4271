"""Vector fields with polynomial coefficients and their Lie algebra.

Provides commutators, exact decomposition in a basis (one exact
Gauss-Jordan, ``rref``), structure-constant tables and closed-form adjoint
matrices Ad(exp(eps*B_i)) computed from the Lie series
sum_m (-eps)^m/m! ad_i^m.  The same closed-form exponential
(``exp_closed_form``) gives the affine flows of ``flows``.  Everything is
exact rational arithmetic; numeric evaluation compiles the detected closed
forms.  Float matrices are tuples of rows; ``matmul``, ``matvec`` and
``max_abs_diff`` are the few plain loops the numeric checks need.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .expr import (
    ONE, ZERO, Add, Expr, ExprError, Frozen, Mul, Num, add, call, compile_evaluator,
    diff, div, free_symbols, mul, num, pow_, sub, substitute, sym, to_text,
)
from .normalize import Monomial, as_polynomial, normalize
from .parse import parse

__all__ = [
    "BaseSpace", "E4", "E5", "P4", "VectorField", "LieBasis",
    "StructureTable", "AdjointMatrix", "NotInSpanError", "vf",
    "commutator", "decompose", "structure_table", "adjoint", "exp_closed_form",
    "project", "format_combination", "rref",
    "Rows", "identity", "matmul", "matvec", "max_abs_diff",
]


class BaseSpace(NamedTuple):
    name: str
    variables: tuple[str, ...]


E4 = BaseSpace("E4", ("x", "y", "z", "u"))
E5 = BaseSpace("E5", ("x", "y", "z", "u", "f"))
P4 = BaseSpace("P4", ("x", "y", "z", "f"))


class NotInSpanError(ExprError):
    def __init__(self, message: str, residual: "VectorField"):
        super().__init__(message)
        self.residual = residual


class VectorField(Frozen, unkeyed=("params",)):
    """First-order operator sum_i coeff_i * d/d(var_i) on a base space.

    Coefficients are stored normalized, so structural equality of fields is
    semantic equality.  ``params`` lists symbols allowed in coefficients
    beyond the base variables (classification parameters like g1); it
    takes no part in equality or the hash.
    """

    __slots__ = ("space", "coeffs", "params")
    space: BaseSpace
    coeffs: tuple[Expr, ...]
    params: frozenset[str]

    def __init__(self, space: BaseSpace, coeffs: Sequence[Expr],
                 params: frozenset[str] = frozenset()) -> None:
        if len(coeffs) != len(space.variables):
            raise ExprError("one coefficient per base variable required")
        coeffs = tuple(normalize(c) for c in coeffs)
        allowed = set(space.variables) | params
        for v, c in zip(space.variables, coeffs):
            extra = free_symbols(c) - allowed
            if extra:
                raise ExprError(
                    f"coefficient of d/d{v} uses symbols outside {space.name}: {sorted(extra)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "params", params)

    def coeff(self, var: str) -> Expr:
        return self.coeffs[self.space.variables.index(var)]

    def apply(self, e: Expr) -> Expr:
        """Directional derivative of an expression on the base space."""
        return add(*[mul(c, diff(e, v)) for v, c in zip(self.space.variables, self.coeffs)
                     if c != ZERO]) if any(c != ZERO for c in self.coeffs) else ZERO

    def scaled(self, factor: Expr | int | Fraction) -> "VectorField":
        if not isinstance(factor, Expr):
            factor = num(factor)
        return VectorField(self.space, tuple(mul(factor, c) for c in self.coeffs),
                           self.params | free_symbols(factor))

    def bound(self, values: Mapping[str, Expr | Fraction | int]) -> "VectorField":
        """The field with each parameter named in ``values`` replaced by its
        value, a number taken as an exact constant."""
        table = {k: v if isinstance(v, Expr) else num(v) for k, v in values.items()}
        return VectorField(self.space, tuple(substitute(c, table) for c in self.coeffs),
                           self.params.difference(table))

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


# ---------------------------------------------------------------------------
# float matrices, as tuples of rows

Rows = tuple[tuple[float, ...], ...]


def identity(n: int) -> Rows:
    return tuple(tuple(float(r == c) for c in range(n)) for r in range(n))


def matvec(A: Sequence[Sequence[float]], v: Sequence[float]) -> tuple[float, ...]:
    """A v, each entry summed left to right."""
    return tuple(sum(map(operator.mul, row, v)) for row in A)


def matmul(A: Sequence[Sequence[float]], B: Sequence[Sequence[float]]) -> Rows:
    """A B, each entry summed left to right."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in A)


def max_abs_diff(A: Sequence[Sequence[float]], B: Sequence[Sequence[float]]) -> float:
    """Largest entrywise |A - B| of two matrices of one shape."""
    return max(abs(a - b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


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


class LieBasis(Frozen):
    """Ordered tuple of independent fields on a common space."""

    __slots__ = ("name", "fields")
    name: str
    fields: tuple[VectorField, ...]

    def __init__(self, name: str, fields: tuple[VectorField, ...]) -> None:
        spaces = {f.space for f in fields}
        if len(spaces) != 1:
            raise ExprError("basis fields must share one base space")
        cols = [_field_vector(f) for f in fields]
        keys = sorted({k for col in cols for k in col})
        mat = [[col.get(k, Fraction(0)) for col in cols] for k in keys]
        if len(rref(mat, len(cols))[1]) != len(fields):
            raise ExprError(f"basis {name!r} is linearly dependent")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", fields)

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

class StructureTable(NamedTuple):
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

    def check_antisymmetry(self) -> bool:
        n = self.dim
        return all(self.c[i][j][k] == -self.c[j][i][k]
                   for i in range(n) for j in range(n) for k in range(n))

    def check_jacobi(self) -> bool:
        """Exact Jacobi identity in coordinates.

        The identity is bilinear in c, so it holds for c exactly when it
        holds for D*c with D the common denominator: the sums run over
        integers, and over the nonzero constants of each bracket only.
        """
        n = self.dim
        den = math.lcm(*(v.denominator for plane in self.c for row in plane for v in row))
        nz = [[[(m, v.numerator * (den // v.denominator)) for m, v in enumerate(row) if v]
               for row in plane] for plane in self.c]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = [0] * n
                    for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cm in nz[q][r]:
                            for l, cl in nz[p][m]:
                                total[l] += cm * cl
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

    One ``rref`` of the basis columns, augmented with every bracket [B_i, B_j]
    for i < j, gives all the coordinates at once.  Raises NotInSpanError,
    with the residual of the first such bracket, if the span is not closed
    under the bracket.
    """
    n = basis.dim
    names = tuple(names) if names else tuple(f"B{i + 1}" for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [commutator(basis.fields[i], basis.fields[j]) for i, j in pairs]
    cols = [_field_vector(f) for f in basis.fields] + [_field_vector(b) for b in brackets]
    keys = sorted({k for col in cols for k in col})
    rows, pivots = rref([[col.get(k, Fraction(0)) for col in cols] for k in keys], n)
    zero = tuple(Fraction(0) for _ in range(n))
    c: list[list[tuple[Fraction, ...]]] = [[zero] * n for _ in range(n)]
    for b, (i, j) in enumerate(pairs, start=n):
        if any(row[b] != 0 for row in rows[len(pivots):]):
            decompose(brackets[b - n], basis)  # raises with the residual
        co = [Fraction(0)] * n
        for row, p in zip(rows, pivots):
            co[p] = row[b]
        c[i][j] = tuple(co)
        c[j][i] = tuple(-x for x in co)
    return StructureTable(basis, tuple(tuple(row) for row in c), names)


# ---------------------------------------------------------------------------
# adjoint representation

EPS_NAME = "eps"   # the group parameter of every adjoint matrix
# exp_closed_form's last power: by Cayley-Hamilton, agreement up to it is a proof
_WINDOW = 16


class AdjointDetectionError(ExprError):
    pass


class AdjointMatrix(Frozen, fields=("generator", "names", "entries")):
    """A(eps) with Ad(exp(eps*B_i)) B_j = sum_k A[k][j](eps) B_k."""

    generator: int  # 0-based index into the basis
    names: tuple[str, ...]
    entries: tuple[tuple[Expr, ...], ...]

    def __init__(self, generator: int, names: tuple[str, ...],
                 entries: tuple[tuple[Expr, ...], ...]) -> None:
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "entries", entries)

    def eval_at(self, eps: float) -> Rows:
        flat = self._compiled(float(eps))
        n = len(self.names)
        return tuple(flat[k:k + n] for k in range(0, n * n, n))

    @cached_property
    def _compiled(self):
        """All n*n entries, row by row, as one compiled function of eps."""
        return compile_evaluator(tuple(e for row in self.entries for e in row),
                                 [EPS_NAME])

    def apply(self, eps: float, a: Sequence[float]) -> tuple[float, ...]:
        """A(eps) a, equal to ``matvec(self.eval_at(eps), a)`` up to the sign
        of zero: each row sums the products of its structurally nonzero
        entries with a, left to right in column order, so the terms that
        ``matvec`` adds and this leaves out are exact zeros (and an entry 1
        contributes a_j itself, as 1.0 * a_j is).  A non-finite result
        raises EvalDomainError, as a non-finite entry does in ``eval_at``."""
        return self._applied(float(eps), *a)

    @cached_property
    def _applied(self):
        """The closed-form entries and the product with the coordinates
        (named after the basis) as one compiled function of (eps, a)."""
        coords = [sym(name) for name in self.names]
        rows = []
        for row in self.entries:
            terms = tuple(x if e == ONE else Mul((e, x))
                          for e, x in zip(row, coords) if e != ZERO)
            rows.append(Add(terms) if len(terms) > 1 else terms[0] if terms else ZERO)
        return compile_evaluator(tuple(rows), [EPS_NAME, *self.names])

    def column(self, j: int) -> tuple[Expr, ...]:
        return tuple(self.entries[k][j] for k in range(len(self.names)))

    def to_markdown(self) -> str:
        head = f"| Ad(exp({EPS_NAME}*{self.names[self.generator]})) | " + \
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


def exp_closed_form(M: Sequence[Sequence[Fraction]], eps: Expr) -> tuple[tuple[Expr, ...], ...]:
    """Closed-form entries of exp(eps*M) for an exact square matrix M.

    With D the common denominator of M, the powers (D M)^0 .. (D M)^_WINDOW
    are integer products taken over the nonzeros of each row of D M only
    (ad and flow generators are very sparse), and M^m = (D M)^m / D^m.
    Each entry's sequence sum_m M^m[k][j]/m! * eps^m that is not all zero
    is classified by ``_closed_form`` as terminating, geometric or sin/cos.
    """
    n = len(M)
    den = math.lcm(*(v.denominator for row in M for v in row))
    sparse = [[(t, int(v * den)) for t, v in enumerate(row) if v] for row in M]
    powers: list[list[list[int]]] = [[[int(r == c) for c in range(n)] for r in range(n)]]
    for _ in range(_WINDOW):
        prev = powers[-1]
        powers.append([[sum(v * prev[t][c] for t, v in row) for c in range(n)]
                       for row in sparse])
    scales = [den ** m for m in range(_WINDOW + 1)]

    def entry(k: int, j: int) -> Expr:
        seq = [powers[m][k][j] for m in range(_WINDOW + 1)]
        if not any(seq):
            return ZERO
        return _closed_form([Fraction(p, d) for p, d in zip(seq, scales)], eps)

    return tuple(tuple(entry(k, j) for j in range(n)) for k in range(n))


def adjoint(table: StructureTable, i: int) -> AdjointMatrix:
    """Closed-form matrix of Ad(exp(eps*B_i)) on basis coordinates.

    The Lie series sum_m (-eps)^m/m! ad_i^m is exp(eps*(-ad_i)), so the
    entries come from ``exp_closed_form`` of -ad_i, the route the affine
    flows take too.  Invariants (identity at eps=0, inverse at -eps) are
    cheap to check numerically via eval_at.
    """
    neg_ad = [[-v for v in row] for row in table.ad_matrix(i)]
    return AdjointMatrix(i, table.names, exp_closed_form(neg_ad, sym(EPS_NAME)))


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
