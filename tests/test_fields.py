"""Lie algebra layer: brackets, structure tables, adjoint closed forms."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from hessym.catalog import (
    V_NAMES, Y_NAMES, Z_NAMES, classification_rows, equivalence_basis, flow_cases,
    lift_reduced, principal_basis, reduced_basis,
)
from hessym.expr import ExprError, compile_evaluator, num, sym
from hessym.fields import (
    E4, E5, P4, AdjointMatrix, LieBasis, NotInSpanError, VectorField, _closed_form,
    adjoint, commutator, decompose, exp_closed_form, format_combination, project,
    structure_table, vf,
)
from hessym.flows import _case_values, field_matrix
from hessym.normalize import normalize
from hessym.parse import parse


def reference_check_jacobi(table) -> bool:
    """The Jacobi identity over Fractions and every constant, zeros
    included, as the exact reference for ``StructureTable.check_jacobi``."""
    n, c = table.dim, table.c
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = [Fraction(0)] * n
                for m in range(n):
                    for t in ((i, j, k), (j, k, i), (k, i, j)):
                        cm = c[t[1]][t[2]][m]
                        if cm:
                            for l in range(n):
                                total[l] += cm * c[t[0]][m][l]
                if any(total):
                    return False
    return True


def _with_constant(table, i, j, k, value, antisymmetric=True):
    """The table with c[i][j][k] set to value (and c[j][i][k] to -value)."""
    c = [[list(row) for row in plane] for plane in table.c]
    c[i][j][k] = value
    if antisymmetric:
        c[j][i][k] = -value
    return table._replace(c=tuple(tuple(tuple(row) for row in plane) for plane in c))


@pytest.fixture(scope="module")
def reduced_table():
    return structure_table(reduced_basis(), Z_NAMES)


BASES = pytest.mark.parametrize("basis,names", [(reduced_basis, Z_NAMES),
                                                (equivalence_basis, Y_NAMES),
                                                (principal_basis, V_NAMES)],
                                ids=["g8", "g12", "principal"])


def _dense_exp(M, eps, window=16):
    """exp(eps*M) entry by entry from dense Fraction powers of M, the
    reference for the sparse integer powers of ``exp_closed_form``."""
    n = len(M)
    P = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    powers = [P]
    for _ in range(window):
        P = [[sum((M[r][t] * P[t][c] for t in range(n)), Fraction(0))
              for c in range(n)] for r in range(n)]
        powers.append(P)
    return tuple(tuple(_closed_form([powers[m][k][j] for m in range(window + 1)], eps)
                       for j in range(n)) for k in range(n))


class TestVectorField:
    def test_equality_hash_and_immutability(self):
        a = vf(E4, x="y", u="x^2", params=("g",))
        b = vf(E4, x="y", u="x^2")
        # params widen what a coefficient may use; they are not compared
        assert a == b and hash(a) == hash(b) and a != vf(E4, x="y")
        assert len({a, b, vf(E4, x="y")}) == 2
        assert a != (a.space, a.coeffs) and not isinstance(a, tuple)
        with pytest.raises(AttributeError):
            a.coeffs = ()
        with pytest.raises(AttributeError):
            a.extra = 1
        assert repr(vf(E4, u="1")) == (
            "VectorField(space=BaseSpace(name='E4', variables=('x', 'y', 'z', 'u')), "
            "coeffs=(Num(value=Fraction(0, 1)), Num(value=Fraction(0, 1)), "
            "Num(value=Fraction(0, 1)), Num(value=Fraction(1, 1))), params=frozenset())")

    def test_basis_and_adjoint_matrix_are_immutable_values(self, reduced_table):
        basis = reduced_basis()
        again = LieBasis(basis.name, basis.fields)
        assert again == basis and hash(again) == hash(basis)
        assert LieBasis("other", basis.fields) != basis
        ad, ad2 = adjoint(reduced_table, 3), adjoint(reduced_table, 3)
        assert ad == ad2 and hash(ad) == hash(ad2) and ad != adjoint(reduced_table, 4)
        assert ad.eval_at(0.3) == ad2.eval_at(0.3)
        assert isinstance(ad, AdjointMatrix) and not isinstance(ad, tuple)
        for obj, name in ((basis, "fields"), (ad, "entries")):
            with pytest.raises(AttributeError):
                setattr(obj, name, ())

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

    @BASES
    def test_jacobi_verdict_matches_the_fraction_reference(self, basis, names):
        t = structure_table(basis(), names)
        assert t.check_jacobi() is reference_check_jacobi(t) is True

    def test_jacobi_fails_when_one_antisymmetric_pair_changes(self, reduced_table):
        # [Z4, Z5] = -Z6 doubled on both sides keeps antisymmetry but
        # breaks the Jacobi identity
        t = _with_constant(reduced_table, 3, 4, 5, 2 * reduced_table.c[3][4][5])
        assert t.check_antisymmetry()
        assert t.check_jacobi() is reference_check_jacobi(t) is False

    def test_jacobi_verdict_matches_the_reference_on_tampered_tables(self, reduced_table):
        # random changes of one constant: as an antisymmetric pair, or of one
        # side alone, to a rational with a new denominator
        rng = random.Random(7)
        verdicts = set()
        for _ in range(30):
            i, j, k = rng.randrange(8), rng.randrange(8), rng.randrange(8)
            if i == j:
                continue
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            t = _with_constant(reduced_table, i, j, k, value,
                               antisymmetric=rng.random() < 0.7)
            got = t.check_jacobi()
            assert got is reference_check_jacobi(t)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_lie_candidate_with_broken_closure_is_caught(self):
        # d_x together with x^2 d_x brackets outside the span
        basis = LieBasis("open", (vf(E4, x="1"), vf(E4, x="x^2")))
        with pytest.raises(NotInSpanError):
            structure_table(basis)

    def test_broken_closure_reports_the_first_open_bracket(self):
        # [d_x, x d_x] = d_x closes; [d_x, x^3 d_x] = 3 x^2 d_x is the first
        # bracket outside the span, and its residual is the one reported
        basis = LieBasis("open", (vf(E4, x="1"), vf(E4, x="x"), vf(E4, x="x^3")))
        with pytest.raises(NotInSpanError) as got:
            structure_table(basis)
        with pytest.raises(NotInSpanError) as want:
            decompose(commutator(basis.fields[0], basis.fields[2]), basis)
        assert str(got.value) == str(want.value)
        assert got.value.residual == want.value.residual == vf(E4, x="3*x^2")

    @BASES
    def test_one_elimination_equals_per_bracket_decompose(self, basis, names):
        b = basis()
        table = structure_table(b, names)
        for i in range(b.dim):
            for j in range(b.dim):
                want = decompose(commutator(b.fields[i], b.fields[j]), b)
                assert table.c[i][j] == want, (names[i], names[j])

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
        prod = np.array(ad.eval_at(0.6)) @ np.array(ad.eval_at(-0.6))
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
        # Ad[a, b] = [Ad a, Ad b] for coefficient vectors, the bracket
        # sum_ijk a_i b_j c_ij^k Z_k
        C = np.array(reduced_table.c, dtype=float)

        def bracket(a, b):
            return np.einsum("i,j,ijk->k", a, b, C)

        rng = np.random.default_rng(3)
        for gen in range(8):
            M = np.array(adjoint(reduced_table, gen).eval_at(0.4))
            a, b = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            lhs = M @ bracket(a, b)
            rhs = bracket(M @ a, M @ b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @BASES
    def test_sparse_series_equals_dense_reference(self, basis, names):
        # every generator of the three tables the CLI prints: the entries
        # are identical Exprs to those of the dense Fraction Lie series
        table = structure_table(basis(), names)
        for i in range(table.dim):
            neg_ad = [[-v for v in row] for row in table.ad_matrix(i)]
            assert adjoint(table, i).entries == _dense_exp(neg_ad, sym("eps")), names[i]

    @pytest.mark.parametrize("pval", [Fraction(3, 2), Fraction(-2, 3), Fraction(5, 4)])
    def test_integer_powers_equal_fraction_powers_over_a_denominator(self, pval):
        # flow generators with rational parameters: the powers are taken
        # over integers after clearing the common denominator
        seen = 0
        for case in flow_cases():
            L = field_matrix(case.field(_case_values(case, -1, pval)))
            seen += any(v.denominator != 1 for row in L for v in row)
            assert exp_closed_form(L, sym("t")) == _dense_exp(L, sym("t")), case.case_id
        assert seen >= 5

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
