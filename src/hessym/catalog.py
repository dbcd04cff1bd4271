"""Generator catalogs and classification data for S2[u] = f(x, y, z).

S2 is the second elementary symmetric function of the Hessian eigenvalues,

    S2[u] = u_xx*u_yy + u_xx*u_zz + u_yy*u_zz - u_xy^2 - u_yz^2 - u_xz^2.

This module is the one transcription of the source paper.  It records
the equivalence algebra on (x, y, z, u, f), its projection to
(x, y, z, f) used for classification, the principal symmetries, the
printed twelve-constant symmetry and equivalence families, the printed
commutator and adjoint tables, the optimal system, the classification
rows (invariant right-hand sides f with their extra symmetry), the
worked invariants and the printed solution transforms, as plain data the
verification routines consume, and the one rule that turns a check's
outcome into a status.  Each flow case reads its operator from the
principal basis or from its classification row; no other module holds
a printed field.  Row constants: s is a sign (+1 or -1), the a*/b*/g*
names are continuous parameters restricted by the row's constraints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .expr import ZERO, Expr, num, substitute, sym
from .fields import (
    E4, E5, P4, AdjointMatrix, LieBasis, StructureTable, VectorField, adjoint,
    project, structure_table, vf,
)
from .parse import parse

__all__ = [
    "equivalence_basis", "reduced_basis", "principal_basis",
    "reduced_table", "reduced_adjoints",
    "Z_NAMES", "Y_NAMES", "Z_TO_Y", "lift_reduced",
    "SYMMETRY_CONSTANTS", "EQUIVALENCE_CONSTANTS", "FREE_CONSTANTS",
    "CONSTANT_TO_EQUIVALENCE", "symmetry_candidate", "equivalence_candidate",
    "ClassificationRow", "classification_rows", "row_by_id",
    "CaseSpec", "flow_cases", "case_by_id",
    "InvariantDataset", "invariant_datasets", "OPTIMAL_PATTERNS",
    "PUBLISHED_BRACKETS", "PUBLISHED_ADJOINT", "SUITE_NAMES", "check_status",
]


# ---------------------------------------------------------------------------
# bases

Y_NAMES = tuple(f"Y{i}" for i in range(1, 13))
Z_NAMES = tuple(f"Z{i}" for i in range(1, 9))
V_NAMES = tuple(f"V{i}" for i in range(1, 5))

# index (1-based) of the equivalence generator each reduced generator lifts to
Z_TO_Y = (1, 2, 3, 8, 9, 10, 11, 12)


@lru_cache(maxsize=None)
def equivalence_basis() -> LieBasis:
    """Equivalence generators on (x, y, z, u, f): translations, linear
    additions to u, rotations, and the two scalings."""
    Y = [
        vf(E5, x="1"),
        vf(E5, y="1"),
        vf(E5, z="1"),
        vf(E5, u="1"),
        vf(E5, u="x"),
        vf(E5, u="y"),
        vf(E5, u="z"),
        vf(E5, x="z", z="-x"),
        vf(E5, x="y", y="-x"),
        vf(E5, y="z", z="-y"),
        vf(E5, u="u", f="2*f"),
        vf(E5, x="x", y="y", z="z", f="-4*f"),
    ]
    return LieBasis("equivalence", tuple(Y))


@lru_cache(maxsize=None)
def reduced_basis() -> LieBasis:
    """Projection of the equivalence algebra to (x, y, z, f); the four
    u-additions project to zero, leaving an eight-dimensional algebra."""
    Z = [project(equivalence_basis().fields[i - 1], P4) for i in Z_TO_Y]
    return LieBasis("reduced", tuple(Z))


@lru_cache(maxsize=None)
def reduced_table() -> StructureTable:
    """Structure table of the reduced algebra g8, built once per process
    for every suite and command that needs it."""
    return structure_table(reduced_basis(), Z_NAMES)


@lru_cache(maxsize=None)
def reduced_adjoints() -> tuple[AdjointMatrix, ...]:
    """The eight closed-form adjoint matrices Ad(exp(eps*Z_i)) of g8, built
    once per process, so each compiles its evaluator once."""
    table = reduced_table()
    return tuple(adjoint(table, i) for i in range(8))


@lru_cache(maxsize=None)
def principal_basis() -> LieBasis:
    """Symmetries present for every right-hand side: u -> u + a + bx + cy + dz."""
    V = [vf(E4, u="1"), vf(E4, u="x"), vf(E4, u="y"), vf(E4, u="z")]
    return LieBasis("principal", tuple(V))


def lift_reduced(coeffs: Sequence[Expr | Fraction | int | str]) -> VectorField:
    """Lift a combination of the reduced generators to a symmetry field on
    (x, y, z, u): replace each Z_k by its equivalence preimage and drop the
    f-component.  Coefficients may be symbolic."""
    if len(coeffs) != 8:
        raise ValueError("expected 8 coefficients")
    eq = equivalence_basis()
    total = vf(E4)
    for c, yi in zip(coeffs, Z_TO_Y):
        ce = sym(c) if isinstance(c, str) else (num(c) if not isinstance(c, Expr) else c)
        if ce == ZERO:
            continue
        total = total.plus(project(eq.fields[yi - 1], E4).scaled(ce))
    return total


# ---------------------------------------------------------------------------
# the printed solution families of the determining equations

SYMMETRY_CONSTANTS = tuple(f"c{i}" for i in range(1, 13))
FREE_CONSTANTS = ("c1", "c3", "c4", "c5")

EQUIVALENCE_CONSTANTS = SYMMETRY_CONSTANTS

# one-hot value of each equivalence constant -> index (1-based) of the
# generator it produces in equivalence_basis()
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


# ---------------------------------------------------------------------------
# optimal system patterns (coefficients over Z1..Z8; parameter names are the
# free entries, 'pm' entries are +1 or -1 after reduction)

OPTIMAL_PATTERNS: dict[str, dict[int, str]] = {
    # index -> coefficient; keys are 1-based Z indices
    "A1": {7: "1"},
    "A2": {1: "pm", 7: "1"},
    "A3": {6: "g", 7: "1"},
    "A4": {1: "pm", 6: "g", 7: "1"},
    "A5": {4: "a", 7: "1"},
    "A6": {2: "pm", 4: "a", 7: "1"},
    "A7": {4: "a", 6: "g", 7: "1"},
    "A8": {1: "pm", 4: "a", 6: "g", 7: "1"},
    "A9": {4: "a", 5: "b", 7: "1"},
    "A10": {3: "pm", 4: "a", 5: "b", 7: "1"},
    "A11": {4: "a", 5: "b", 7: "g", 8: "1"},
    "A12": {2: "pm", 4: "a", 5: "b", 7: "g", 8: "1"},
}


# ---------------------------------------------------------------------------
# published tables for the reduced algebra, kept as plain text so the
# verification suites can diff recomputed values entry by entry

# [Z_row, Z_col]
PUBLISHED_BRACKETS: tuple[tuple[str, ...], ...] = (
    ("0", "0", "0", "-Z3", "-Z2", "0", "0", "Z1"),
    ("0", "0", "0", "0", "Z1", "-Z3", "0", "Z2"),
    ("0", "0", "0", "Z1", "0", "Z2", "0", "Z3"),
    ("Z3", "0", "-Z1", "0", "-Z6", "Z5", "0", "0"),
    ("Z2", "-Z1", "0", "Z6", "0", "-Z4", "0", "0"),
    ("0", "Z3", "-Z2", "-Z5", "Z4", "0", "0", "0"),
    ("0", "0", "0", "0", "0", "0", "0", "0"),
    ("-Z1", "-Z2", "-Z3", "0", "0", "0", "0", "0"),
)

# closed-form entries of Ad(exp(eps*Z_gen)): gen -> column -> row -> text,
# all indices 1-based; omitted columns are identity, omitted rows are zero
PUBLISHED_ADJOINT: dict[int, dict[int, dict[int, str]]] = {
    1: {4: {3: "eps", 4: "1"}, 5: {2: "eps", 5: "1"}, 8: {1: "-eps", 8: "1"}},
    2: {5: {1: "-eps", 5: "1"}, 6: {3: "eps", 6: "1"}, 8: {2: "-eps", 8: "1"}},
    3: {4: {1: "-eps", 4: "1"}, 6: {2: "-eps", 6: "1"}, 8: {3: "-eps", 8: "1"}},
    4: {1: {1: "cos(eps)", 3: "-sin(eps)"}, 3: {1: "sin(eps)", 3: "cos(eps)"},
        5: {5: "cos(eps)", 6: "sin(eps)"}, 6: {5: "-sin(eps)", 6: "cos(eps)"}},
    5: {1: {1: "cos(eps)", 2: "-sin(eps)"}, 2: {1: "sin(eps)", 2: "cos(eps)"},
        4: {4: "cos(eps)", 6: "-sin(eps)"}, 6: {4: "sin(eps)", 6: "cos(eps)"}},
    6: {2: {2: "cos(eps)", 3: "-sin(eps)"}, 3: {2: "sin(eps)", 3: "cos(eps)"},
        4: {4: "cos(eps)", 5: "sin(eps)"}, 5: {4: "-sin(eps)", 5: "cos(eps)"}},
    7: {},
    8: {1: {1: "exp(eps)"}, 2: {2: "exp(eps)"}, 3: {3: "exp(eps)"}},
}


# ---------------------------------------------------------------------------
# classification rows

class ClassificationRow(NamedTuple):
    """One invariant right-hand side with its extra symmetry.

    ``generator`` gives the reduced combination A = sum a_k Z_k the row
    descends from, as coefficient strings over Z1..Z8 ('s' the sign,
    other names continuous parameters).  ``f_text`` is the invariant
    right-hand side with a free two-argument profile H.  ``v5_text``
    is the extra symmetry as printed in the source table; the lift of
    ``generator`` is the recomputed version (they differ exactly on the
    rows flagged ``printed-v5-incomplete``).
    """

    row_id: str
    pattern: str
    constraint: str
    sign_param: str | None
    params: tuple[str, ...]
    generator: tuple[str, ...]          # 8 coefficient strings over Z1..Z8
    f_text: str
    v5_text: Mapping[str, str]          # printed extra symmetry on (x,y,z,u)
    flags: tuple[str, ...] = ()
    notes: str = ""

    def generator_coeffs(self, values: Mapping[str, Fraction | int | Expr] | None = None,
                         ) -> tuple[Expr, ...]:
        table = {k: v if isinstance(v, Expr) else num(v) for k, v in (values or {}).items()}
        return tuple(substitute(parse(c), table) if c else ZERO for c in self.generator)

    def printed_v5(self, values: Mapping[str, Fraction | int | Expr] | None = None,
                   ) -> VectorField:
        """The printed extra symmetry, with ``values`` bound."""
        return vf(E4, params=self.all_params(), **self.v5_text).bound(values or {})

    def lifted_v5(self, values: Mapping[str, Fraction | int | Expr] | None = None,
                  ) -> VectorField:
        """The lift of ``generator``, with ``values`` bound."""
        return lift_reduced(self.generator_coeffs(values))

    def all_params(self) -> tuple[str, ...]:
        return self.params + ((self.sign_param,) if self.sign_param else ())


_ROWS: tuple[ClassificationRow, ...] = (
    ClassificationRow(
        "A2", "A2", "s^2 = 1", "s", (),
        ("s", "0", "0", "0", "0", "0", "1", "0"),
        "exp(2*s*x)*H(y, z)",
        {"x": "s", "u": "u"},
    ),
    ClassificationRow(
        "A3", "A3", "g1 != 0", None, ("g1",),
        ("0", "0", "0", "0", "0", "g1", "1", "0"),
        "exp((2/g1)*atan(y/z))*H(x, y^2 + z^2)",
        {"y": "g1*z", "z": "-g1*y", "u": "u"},
    ),
    ClassificationRow(
        "A4", "A4", "s^2 = 1, g2 != 0", "s", ("g2",),
        ("s", "0", "0", "0", "0", "g2", "1", "0"),
        "exp((2/g2)*atan(y/z))*H(y^2 + z^2, x - (s/g2)*atan(y/z))",
        {"x": "s", "y": "g2*z", "z": "-g2*y", "u": "u"},
    ),
    ClassificationRow(
        "A5", "A5", "a1 != 0", None, ("a1",),
        ("0", "0", "0", "a1", "0", "0", "1", "0"),
        "exp((2/a1)*atan(x/z))*H(y, x^2 + z^2)",
        {"x": "a1*z", "z": "-a1*x", "u": "u"},
    ),
    ClassificationRow(
        "A6a", "A6", "s^2 = 1, a2 = 0", "s", (),
        ("0", "s", "0", "0", "0", "0", "1", "0"),
        "exp(2*s*y)*H(x, z)",
        {"y": "s", "u": "u"},
    ),
    ClassificationRow(
        "A6b", "A6", "s^2 = 1, a2 != 0", "s", ("a2",),
        ("0", "s", "0", "a2", "0", "0", "1", "0"),
        "exp((2/a2)*atan(x/z))*H(x^2 + z^2, y - (s/a2)*atan(x/z))",
        {"x": "a2*z", "y": "s", "z": "-a2*x", "u": "u"},
    ),
    ClassificationRow(
        "A7", "A7", "a3 != 0, g3 != 0", None, ("a3", "g3"),
        ("0", "0", "0", "a3", "0", "g3", "1", "0"),
        "exp((2/sqrt(a3^2 + g3^2))*atan((a3*x + g3*y)/(z*sqrt(a3^2 + g3^2))))"
        "*H(y - (g3/a3)*x, (1 - g3^2/a3^2)*x^2 + (2*g3/a3)*x*y + z^2)",
        {"x": "a3*z", "y": "g3*z", "z": "-a3*x - g3*y", "u": "u"},
    ),
    ClassificationRow(
        "A9a", "A9", "a5 = 0, b1 != 0", None, ("b1",),
        ("0", "0", "0", "0", "b1", "0", "1", "0"),
        "exp((2/b1)*atan(x/y))*H(z, x^2 + y^2)",
        {"x": "b1*y", "y": "-b1*x", "u": "u"},
    ),
    ClassificationRow(
        "A9b", "A9", "a5 != 0, b1 != 0", None, ("a5", "b1"),
        ("0", "0", "0", "a5", "b1", "0", "1", "0"),
        "exp((-2/sqrt(b1^2 + a5^2))*atan((b1*y + a5*z)/(x*sqrt(b1^2 + a5^2))))"
        "*H(z - (a5/b1)*y, x^2 + (1 - a5^2/b1^2)*y^2 + (2*a5/b1)*y*z)",
        {"x": "a5*z + b1*y", "y": "-b1*x", "z": "-a5*x", "u": "u"},
    ),
    ClassificationRow(
        "A10a", "A10", "s^2 = 1, a6 = 0, b2 = 0", "s", (),
        ("0", "0", "s", "0", "0", "0", "1", "0"),
        "exp(2*s*z)*H(x, y)",
        {"z": "s", "u": "u"},
    ),
    ClassificationRow(
        "A10b", "A10", "s^2 = 1, a6 = 0, b2 != 0", "s", ("b2",),
        ("0", "0", "s", "0", "b2", "0", "1", "0"),
        "exp((2/b2)*atan(x/y))*H(x^2 + y^2, z - (s/b2)*atan(x/y))",
        {"x": "b2*y", "y": "-b2*x", "z": "s", "u": "u"},
        flags=("constraint-corrected",),
        notes="source table states the parameter constraint the other way "
              "around; the stated f is invariant exactly when the Z4 "
              "coefficient vanishes and the Z5 one does not",
    ),
    ClassificationRow(
        "A11a", "A11", "a7 = 0, b3 = 0, g5 = 0", None, (),
        ("0", "0", "0", "0", "0", "0", "0", "1"),
        "x^(-4)*H(y/x, z/x)",
        {"x": "x", "y": "y", "z": "z"},
    ),
    ClassificationRow(
        "A11b", "A11", "a7 = 0, b3 = 0, g5 != 0", None, ("g5",),
        ("0", "0", "0", "0", "0", "0", "g5", "1"),
        "x^(2*g5 - 4)*H(y/x, z/x)",
        {"x": "x", "y": "y", "z": "z"},
        flags=("printed-v5-incomplete",),
        notes="source table omits the g5*u*d_u part of the extra symmetry; "
              "the printed field only generates the g5 = 0 invariance",
    ),
    ClassificationRow(
        "A12a", "A12", "s^2 = 1, a8 = 0, b4 = 0, g6 = 0", "s", (),
        ("0", "s", "0", "0", "0", "0", "0", "1"),
        "x^(-4)*H((y + s)/x, z/x)",
        {"x": "x", "y": "y + s", "z": "z"},
    ),
    ClassificationRow(
        "A12b", "A12", "s^2 = 1, a8 = 0, b4 = 0, g6 != 0", "s", ("g6",),
        ("0", "s", "0", "0", "0", "0", "g6", "1"),
        "x^(2*g6 - 4)*H((y + s)/x, z/x)",
        {"x": "x", "y": "y + s", "z": "z"},
        flags=("printed-v5-incomplete",),
        notes="source table omits the g6*u*d_u part of the extra symmetry",
    ),
)


def classification_rows() -> tuple[ClassificationRow, ...]:
    return _ROWS


def row_by_id(row_id: str) -> ClassificationRow:
    for r in _ROWS:
        if r.row_id == row_id:
            return r
    raise KeyError(f"no classification row {row_id!r}")


# ---------------------------------------------------------------------------
# printed solution transforms

class CaseSpec(NamedTuple):
    """One printed solution transform.

    ``image_text`` gives the printed arguments of the base solution,
    ``u_scale_text`` / ``u_shift_text`` the printed prefactor and additive
    part, so printed = scale * u0(image) + shift.  ``row_id`` ties the
    operator to its classification row, whose printed extra symmetry,
    parameters and sign the case takes; a principal case (``row_id``
    None) acts by principal symmetry ``case_id``.
    """

    case_id: int
    row_id: str | None
    image_text: tuple[str, str, str]
    u_scale_text: str
    u_shift_text: str
    flags: tuple[str, ...] = ()
    notes: str = ""

    @property
    def row(self) -> ClassificationRow | None:
        return None if self.row_id is None else row_by_id(self.row_id)

    def field(self, values: Mapping[str, Fraction | int] | None = None) -> VectorField:
        """The operator: the row's printed extra symmetry with ``values``
        bound, or the principal symmetry."""
        if self.row_id is None:
            return principal_basis().fields[self.case_id - 1]
        return self.row.printed_v5(values)


_ROT_YZ = ("z*sin(%s*t) + y*cos(%s*t)", "z*cos(%s*t) - y*sin(%s*t)")
_ROT_XZ = ("z*sin(%s*t) + x*cos(%s*t)", "z*cos(%s*t) - x*sin(%s*t)")
_ROT_XY = ("y*sin(%s*t) + x*cos(%s*t)", "y*cos(%s*t) - x*sin(%s*t)")


def _r(tmpl: str, p: str) -> str:
    return tmpl % (p, p)


_FIRST_ORDER = ("printed-scale-first-order",)

_CASES: tuple[CaseSpec, ...] = (
    CaseSpec(1, None, ("x", "y", "z"), "1", "-t"),
    CaseSpec(2, None, ("x", "y", "z"), "1", "-t*x"),
    CaseSpec(3, None, ("x", "y", "z"), "1", "-t*y"),
    CaseSpec(4, None, ("x", "y", "z"), "1", "-t*z"),
    CaseSpec(5, "A2", ("x + s*t", "y", "z"), "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(6, "A3", ("x", _r(_ROT_YZ[0], "g1"), _r(_ROT_YZ[1], "g1")),
             "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(7, "A4", ("x + s*t", _r(_ROT_YZ[0], "g2"), _r(_ROT_YZ[1], "g2")),
             "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(8, "A5", (_r(_ROT_XZ[0], "a1"), "y", _r(_ROT_XZ[1], "a1")),
             "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(9, "A6a", ("x", "y + s*t", "z"), "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(10, "A6b", (_r(_ROT_XZ[0], "a2"), "y + s*t", _r(_ROT_XZ[1], "a2")),
             "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(11, "A9a", (_r(_ROT_XY[0], "b1"), _r(_ROT_XY[1], "b1"), "z"),
             "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(12, "A10a", ("x", "y", "z + s*t"), "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(13, "A10b", (_r(_ROT_XY[0], "b2"), _r(_ROT_XY[1], "b2"), "z + s*t"),
             "1/(1 + t)", "0", _FIRST_ORDER),
    CaseSpec(14, "A11a", ("exp(t)*x", "exp(t)*y", "exp(t)*z"), "1", "0",
             flags=("printed-exponent-generalized",),
             notes="the stated right-hand power law carries a free exponent "
                   "the u-less dilation only preserves at its zero value"),
    CaseSpec(15, "A12a", ("exp(t)*x", "exp(t)*y + s*exp(t) - s", "exp(t)*z"), "1", "0",
             flags=("printed-exponent-generalized",),
             notes="same exponent caveat as the plain dilation case"),
)


def flow_cases() -> tuple[CaseSpec, ...]:
    return _CASES


def case_by_id(case_id: int) -> CaseSpec:
    for c in _CASES:
        if c.case_id == case_id:
            return c
    raise KeyError(f"no flow case {case_id}")


# ---------------------------------------------------------------------------
# invariant datasets for the characteristic-equation route

class InvariantDataset(NamedTuple):
    """A reduced generator together with the stated functional invariants.

    ``invariants`` are expressions in (x, y, z, f) annihilated by the
    generator; an invariant right-hand side is I3 = H(I1, I2) solved for f.
    ``f_solvable`` records whether one invariant actually involves f.
    """

    label: str
    coeffs: tuple[str, ...]             # over Z1..Z8
    params: tuple[str, ...]
    invariants: tuple[str, ...]
    f_solvable: bool


_INVARIANTS = (
    InvariantDataset(
        "A3", ("0", "0", "0", "0", "0", "g1", "1", "0"), ("g1",),
        ("x", "y^2 + z^2", "f*exp(-(2/g1)*atan(y/z))"), True,
    ),
    InvariantDataset(
        "A1", ("0", "0", "0", "0", "0", "0", "1", "0"), (),
        ("x", "y", "z"), False,
    ),
)


def invariant_datasets() -> tuple[InvariantDataset, ...]:
    return _INVARIANTS


# ---------------------------------------------------------------------------
# the suites, in `verify all` order (report.py runs them), and the status rule

SUITE_NAMES = ("commutators", "adjoint", "optimal", "determining",
               "equivalence", "classification", "invariants", "flows")


def check_status(passed: bool, flagged: bool = False) -> str:
    """The status rule: fail if the check did not pass, else flagged if
    it raised a flag, else pass."""
    if not passed:
        return "fail"
    return "flagged" if flagged else "pass"
