"""Determining equations: exact identity, numeric oracle, exact nullspaces."""

import pytest

from hessym.expr import add, free_symbols, neg, num, substitute
from hessym.fields import E4, E5, VectorField, decompose, vf
from hessym.catalog import (
    CONSTANT_TO_EQUIVALENCE, EQUIVALENCE_CONSTANTS, FREE_CONSTANTS, SYMMETRY_CONSTANTS,
    equivalence_basis, equivalence_candidate, principal_basis, symmetry_candidate,
)
from hessym.determining import (
    bila_auxiliary_residual, determining_system, equivalence_residual_on_variety,
    free_constants_absent, numeric_invariance_check, residual_on_variety,
    symmetry_condition,
)
from hessym.normalize import ProvedZero, Unproved, is_zero
from hessym.parse import parse


@pytest.fixture(scope="module")
def r_sub():
    return residual_on_variety()


class TestSymmetryDetermining:
    def test_residual_reduces_to_condition(self, r_sub):
        # the restricted residual is exactly minus the transport condition,
        # with all twelve constants symbolic
        verdict = is_zero(add(r_sub, symmetry_condition()))
        assert isinstance(verdict, ProvedZero)

    def test_additive_constants_are_free(self):
        assert free_constants_absent()
        assert set(FREE_CONSTANTS) <= set(SYMMETRY_CONSTANTS)

    def test_scaling_constants_do_constrain(self, r_sub):
        survivors = free_symbols(r_sub) & set(SYMMETRY_CONSTANTS)
        assert {"c2", "c6"} <= survivors

    @pytest.mark.parametrize("profile", [
        "sin(x) + y^2*z + exp(z/3) + x*y",
        "x^2 + y^2 + z^2 + 1",
        "exp(x/2)*cos(y) + z^3",
    ])
    def test_numeric_oracle(self, profile):
        nc = numeric_invariance_check(n=200, profile=parse(profile))
        assert nc.n_points == 200
        assert nc.max_residual < 1e-8

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_verdict_from_zero_points(self, n):
        with pytest.raises(ValueError, match="at least 1"):
            numeric_invariance_check(n=n)

    def test_wrong_sign_condition_is_caught(self, r_sub):
        verdict = is_zero(add(r_sub, neg(symmetry_condition())), mode="symbolic")
        assert isinstance(verdict, Unproved)

    def test_non_symmetry_field_fails(self):
        bad = vf(E4, x="y")
        assert isinstance(is_zero(residual_on_variety(bad), mode="symbolic"), Unproved)


class TestDeterminingSystem:
    def test_without_condition_recovers_principal_algebra(self):
        sys_a = determining_system(with_condition=False)
        assert sys_a.dim == 4
        basis = principal_basis()
        for f in sys_a.fields():
            decompose(f, basis)  # raises if outside the span

    def test_with_condition_recovers_the_twelve_constant_family(self):
        sys_b = determining_system(with_condition=True)
        assert sys_b.dim == 12
        # every solution must embed into the candidate family: check the
        # candidate one-hots are themselves solutions and span the space
        cand = symmetry_candidate()
        family = []
        for c in SYMMETRY_CONSTANTS:
            subs = {k: num(1 if k == c else 0) for k in SYMMETRY_CONSTANTS}
            family.append(VectorField(E4, tuple(substitute(x, subs) for x in cand.coeffs)))
        from hessym.fields import LieBasis
        fam_basis = LieBasis("family", tuple(family))
        for f in sys_b.fields():
            decompose(f, fam_basis)  # raises if outside the span


class TestEquivalence:
    def test_residual_vanishes_for_the_family(self):
        verdict = is_zero(equivalence_residual_on_variety())
        assert isinstance(verdict, ProvedZero)

    def test_one_hot_constants_reproduce_the_basis(self):
        eq = equivalence_basis()
        cand = equivalence_candidate()
        for c, yi in CONSTANT_TO_EQUIVALENCE.items():
            subs = {k: num(1 if k == c else 0) for k in EQUIVALENCE_CONSTANTS}
            v = VectorField(E5, tuple(substitute(x, subs) for x in cand.coeffs))
            assert v == eq.fields[yi - 1], f"{c} should map to generator {yi}"

    def test_every_equivalence_generator_passes_individually(self):
        eq = equivalence_basis()
        for i, y in enumerate(eq.fields, start=1):
            verdict = is_zero(equivalence_residual_on_variety(y))
            assert isinstance(verdict, ProvedZero), f"Y{i}"

    def test_auxiliary_condition_preserved(self):
        assert isinstance(is_zero(bila_auxiliary_residual()), ProvedZero)

    def test_auxiliary_negative_control(self):
        bad = vf(E5, x="u")
        verdict = is_zero(bila_auxiliary_residual(bad), mode="symbolic")
        assert isinstance(verdict, Unproved)

    def test_zero_f_component_is_not_an_equivalence_scaling(self):
        # u-scaling without the matching f-component fails the residual
        bad = vf(E5, u="u")
        verdict = is_zero(equivalence_residual_on_variety(bad), mode="symbolic")
        assert isinstance(verdict, Unproved)
