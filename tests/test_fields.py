"""Lie algebra layer: brackets, structure tables, adjoint closed forms."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from hessym.catalog import (
    V_NAMES, Y_NAMES, Z_NAMES, classification_rows, equivalence_basis,
    lift_reduced, principal_basis, reduced_basis,
)
from hessym.expr import ExprError, compile_evaluator, num, sym
from hessym.fields import (
    E4, E5, P4, NotInSpanError, VectorField, _closed_form, adjoint, commutator,
    decompose, format_combination, project, structure_table, vf,
)
from hessym.normalize import normalize
from hessym.parse import parse


@pytest.fixture(scope="module")
def reduced_table():
    return structure_table(reduced_basis(), Z_NAMES)


class TestVectorField:
    def test_apply_is_directional_derivative(self):
        v = vf(E4, x="y", u="x^2")
        assert normalize(v.apply(parse("x*u"))) == normalize(parse("y*u + x^3"))

    def test_coefficients_are_normalized_on_construction(self):
        v = vf(E4, x="x + x")
        assert v.coeff("x") == parse("2*x")

    def test_rejects_stray_symbols(self):
        with pytest.raises(ExprError, match="outside"):
            vf(E4, x="w")

    def test_params_are_allowed(self):
        v = vf(E4, x="g1*z", params=("g1",))
        assert v.coeff("x") == parse("g1*z")

    def test_bracket_of_translation_and_rotation(self):
        d_x = vf(E4, x="1")
        rot = vf(E4, x="z", z="-x")
        assert commutator(d_x, rot) == vf(E4, z="-1")

    def test_bracket_antisymmetry_on_random_polynomial_fields(self):
        rng = random.Random(7)
        names = E4.variables
        for _ in range(10):
            def rand_field():
                return VectorField(E4, tuple(
                    parse(f"{rng.randint(-3, 3)}*{rng.choice(names)} + {rng.randint(-2, 2)}")
                    for _ in names))
            v, w = rand_field(), rand_field()
            assert commutator(v, w) == commutator(w, v).scaled(-1)


class TestDecompose:
    def test_round_trip(self):
        basis = reduced_basis()
        coeffs = (Fraction(2), Fraction(0), Fraction(-1, 2), Fraction(0),
                  Fraction(1), Fraction(0), Fraction(3), Fraction(0))
        v = vf(P4)
        for c, b in zip(coeffs, basis.fields):
            v = v.plus(b.scaled(c))
        assert decompose(v, basis) == coeffs

    def test_outside_span_raises_with_residual(self):
        with pytest.raises(NotInSpanError) as ei:
            decompose(vf(E4, x="u"), principal_basis())
        assert ei.value.residual == vf(E4, x="u")

    def test_dependent_basis_rejected(self):
        from hessym.fields import LieBasis
        with pytest.raises(ExprError, match="dependent"):
            LieBasis("bad", (vf(E4, x="1"), vf(E4, x="2")))


# ---------------------------------------------------------------------------
# structure tables

# brackets [Z_row, Z_col] of the reduced algebra: three translations, three
# rotations, the f-scaling and the space scaling
REDUCED_BRACKETS = [
    ["0", "0", "0", "-Z3", "-Z2", "0", "0", "Z1"],
    ["0", "0", "0", "0", "Z1", "-Z3", "0", "Z2"],
    ["0", "0", "0", "Z1", "0", "Z2", "0", "Z3"],
    ["Z3", "0", "-Z1", "0", "-Z6", "Z5", "0", "0"],
    ["Z2", "-Z1", "0", "Z6", "0", "-Z4", "0", "0"],
    ["0", "Z3", "-Z2", "-Z5", "Z4", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0"],
    ["-Z1", "-Z2", "-Z3", "0", "0", "0", "0", "0"],
]


class TestStructureTable:
    def test_reduced_table_matches_expected(self, reduced_table):
        got = [[format_combination(reduced_table.c[i][j], Z_NAMES) for j in range(8)]
               for i in range(8)]
        assert got == REDUCED_BRACKETS

    def test_antisymmetry_and_jacobi_exact(self, reduced_table):
        assert reduced_table.check_antisymmetry()
        assert reduced_table.check_jacobi()

    def test_equivalence_algebra_closes(self):
        t = structure_table(equivalence_basis())
        assert t.dim == 12
        assert t.check_jacobi()

    def test_lie_candidate_with_broken_closure_is_caught(self):
        # d_x together with x^2 d_x brackets outside the span
        from hessym.fields import LieBasis
        basis = LieBasis("open", (vf(E4, x="1"), vf(E4, x="x^2")))
        with pytest.raises(NotInSpanError):
            structure_table(basis)

    def test_principal_symmetries_commute(self):
        t = structure_table(principal_basis())
        zero = tuple(Fraction(0) for _ in range(4))
        assert all(t.c[i][j] == zero for i in range(4) for j in range(4))

    def test_markdown_shape(self, reduced_table):
        md = reduced_table.to_markdown()
        lines = md.splitlines()
        assert len(lines) == 10
        assert "| Z4 | Z3 | 0 | -Z1 | 0 | -Z6 | Z5 | 0 | 0 |" in md


# ---------------------------------------------------------------------------
# adjoint closed forms

# non-identity columns of Ad(exp(eps*Z_i)); column j not listed maps Z_j to
# itself.  Entries are (row k, coefficient) with 1-based indices.
EXPECTED_ADJOINT = {
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


class TestAdjoint:
    @pytest.mark.parametrize("gen", range(1, 9))
    def test_closed_forms_match_expected(self, reduced_table, gen):
        ad = adjoint(reduced_table, gen - 1)
        expected_cols = EXPECTED_ADJOINT[gen]
        for j in range(8):
            col = expected_cols.get(j + 1, {j + 1: "1"})
            for k in range(8):
                want = normalize(parse(col.get(k + 1, "0")))
                assert normalize(ad.entries[k][j]) == want, (
                    f"Ad(exp(eps*Z{gen})) entry ({k + 1},{j + 1})")

    @pytest.mark.parametrize("gen", range(1, 9))
    @pytest.mark.parametrize("eps", [0.1, 0.7, 1.3])
    def test_numeric_against_matrix_exponential(self, reduced_table, gen, eps):
        ad = adjoint(reduced_table, gen - 1)
        A = np.array([[float(x) for x in row] for row in reduced_table.ad_matrix(gen - 1)])
        want = scipy.linalg.expm(-eps * A)
        assert np.max(np.abs(ad.eval_at(eps) - want)) < 1e-10

    @pytest.mark.parametrize("gen", range(1, 9))
    def test_identity_at_zero_and_inverse_at_negated(self, reduced_table, gen):
        ad = adjoint(reduced_table, gen - 1)
        assert np.max(np.abs(ad.eval_at(0.0) - np.eye(8))) < 1e-14
        prod = ad.eval_at(0.6) @ ad.eval_at(-0.6)
        assert np.max(np.abs(prod - np.eye(8))) < 1e-12

    @pytest.mark.parametrize("gen", range(1, 9))
    def test_batched_eval_equals_entry_by_entry(self, reduced_table, gen):
        # one compiled call for the whole matrix gives the same bits as
        # compiling and evaluating each entry on its own
        ad = adjoint(reduced_table, gen - 1)
        for eps in (-1.3, 0.0, 0.4, 2.0):
            want = np.array([[compile_evaluator(e, ["eps"])(eps) for e in row]
                             for row in ad.entries])
            assert np.array_equal(ad.eval_at(eps), want), eps

    def test_adjoint_is_a_bracket_automorphism(self, reduced_table):
        # Ad[a, b] = [Ad a, Ad b] for coefficient vectors
        rng = np.random.default_rng(3)
        for gen in range(8):
            M = adjoint(reduced_table, gen).eval_at(0.4)
            a, b = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            lhs = M @ reduced_table.bracket_vector(a, b)
            rhs = reduced_table.bracket_vector(M @ a, M @ b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("basis,names", [(reduced_basis, Z_NAMES),
                                             (equivalence_basis, Y_NAMES),
                                             (principal_basis, V_NAMES)],
                             ids=["g8", "g12", "principal"])
    def test_sparse_series_equals_dense_reference(self, basis, names):
        # every generator of the three tables the CLI prints: the entries
        # are identical Exprs to those of the dense Fraction Lie series
        table = structure_table(basis(), names)
        n, window = table.dim, 16
        for i in range(n):
            ad = table.ad_matrix(i)
            P = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
            powers = [P]
            for _ in range(window):
                P = [[sum((-ad[r][t] * P[t][c] for t in range(n)), Fraction(0))
                      for c in range(n)] for r in range(n)]
                powers.append(P)
            dense = tuple(tuple(_closed_form([powers[m][k][j] for m in range(window + 1)],
                                             sym("eps"))
                                for j in range(n)) for k in range(n))
            assert adjoint(table, i, window=window).entries == dense, names[i]

    def test_scaling_direction_never_moves(self, reduced_table):
        # coefficients of Z7 and Z8 are invariant under every adjoint map
        for gen in range(8):
            ad = adjoint(reduced_table, gen)
            for k in (6, 7):
                for j in range(8):
                    want = num(1) if j == k else num(0)
                    assert normalize(ad.entries[k][j]) == want


# ---------------------------------------------------------------------------
# projections and lifts

class TestProjectAndLift:
    def test_project_drops_absent_components(self):
        y11 = equivalence_basis().fields[10]
        assert project(y11, P4) == vf(P4, f="2*f")
        assert project(y11, E4) == vf(E4, u="u")

    def test_project_rejects_entangled_coefficients(self):
        with pytest.raises(ExprError, match="dropped"):
            project(vf(E5, x="f"), E4)

    def test_lift_of_f_scaling_is_u_scaling(self):
        v = lift_reduced((0, 0, 0, 0, 0, 0, 1, 0))
        assert v == vf(E4, u="u")

    def test_lift_of_space_scaling(self):
        v = lift_reduced((0, 0, 0, 0, 0, 0, 0, 1))
        assert v == vf(E4, x="x", y="y", z="z")

    def test_printed_extra_symmetries_match_lift_except_flagged_rows(self):
        for row in classification_rows():
            printed = row.printed_v5()
            lifted = row.lifted_v5()
            if "printed-v5-incomplete" in row.flags:
                assert printed != lifted
                diff = lifted.plus(printed.scaled(-1))
                # the discrepancy is exactly the u-scaling part
                assert diff.coeff("u") != num(0)
                assert all(diff.coeff(v) == num(0) for v in ("x", "y", "z"))
            else:
                assert printed == lifted
