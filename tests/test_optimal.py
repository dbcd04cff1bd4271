"""Reduction of algebra elements to the normal-form patterns.

Two independent routes are compared throughout: the printed adjoint table,
read from the catalog, drives the reducer, and every recorded trace is
replayed through adjoint matrices recomputed from the structure constants.
"""

import math
import numbers
import random
import struct
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hessym.catalog import (
    OPTIMAL_PATTERNS, PUBLISHED_ADJOINT, reduced_adjoints, reduced_basis, Z_NAMES,
)
from hessym.cli import main
from hessym.expr import EvalDomainError
from hessym.normalize import DEFAULT_SEED, SymmetryCheck
from hessym.fields import adjoint, matvec, structure_table
from hessym.optimal import (
    ReductionError,
    _coefficients,
    _printed_rows,
    arccot,
    classify_vector,
    published_adjoint_vector,
    reduce_to_optimal,
    replay,
    replay_check,
    replay_deviation,
)
from hessym.report import _scrambled_normal_form

CASE2 = {"A11", "A12"}


def normal_form_rep(pid: str, rng: np.random.Generator) -> tuple[np.ndarray, int | None, dict]:
    """Build a vector already in the normal form of the given pattern."""
    a = np.zeros(8)
    sign = None
    params = {}
    for j, role in OPTIMAL_PATTERNS[pid].items():
        if role == "1":
            a[j - 1] = 1.0
        elif role == "pm":
            sign = int(rng.choice([-1, 1]))
            a[j - 1] = float(sign)
        else:
            # keep parameters away from 0 so the rep stays a fixed point
            v = float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1, 1]))
            a[j - 1] = v
            params[role] = v
    return a, sign, params


def scramble(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move along the orbit: random adjoint maps plus a positive rescale."""
    out = a.copy()
    for _ in range(int(rng.integers(1, 6))):
        gen = int(rng.integers(1, 9))
        eps = float(rng.uniform(-1.5, 1.5))
        out = np.array(published_adjoint_vector(gen, out, eps))
    out = out * float(rng.uniform(0.2, 5.0))
    if rng.random() < 0.3:
        out = -out
    return out


# ---------------------------------------------------------------------------
# arccot branch

def test_arccot_values():
    assert arccot(0.0) == pytest.approx(math.pi / 2)
    assert arccot(1.0) == pytest.approx(math.pi / 4)
    assert arccot(-1.0) == pytest.approx(3 * math.pi / 4)
    # range is (0, pi) on the whole line, decreasing
    assert 0 < arccot(1e6) < 1e-5
    assert math.pi - 1e-5 < arccot(-1e6) < math.pi


# ---------------------------------------------------------------------------
# published formulas vs recomputed matrices, generator by generator

@pytest.mark.parametrize("gen", range(1, 9))
def test_published_row_matches_recomputed_matrix(gen):
    table = structure_table(reduced_basis(), Z_NAMES)
    mat = adjoint(table, gen - 1)
    rng = np.random.default_rng(DEFAULT_SEED + gen)
    for eps in (0.0, 0.1, -0.7, 1.3):
        m = mat.eval_at(eps)
        for _ in range(5):
            a = rng.uniform(-2, 2, size=8)
            want = m @ a
            got = published_adjoint_vector(gen, a, eps)
            assert np.max(np.abs(got - want)) < 1e-12


def test_published_known_images():
    # Z8 picks up a translation under the x-translation adjoint
    out = published_adjoint_vector(1, np.eye(8)[7], 0.25)
    assert out[0] == pytest.approx(-0.25)
    assert out[7] == 1.0
    # rotations act as plane rotations on the translation block
    out = published_adjoint_vector(4, np.eye(8)[0], 0.3)
    assert out[0] == pytest.approx(math.cos(0.3))
    assert out[2] == pytest.approx(-math.sin(0.3))
    # f-scaling and the generator itself are untouched by everything
    for gen in range(1, 9):
        out = published_adjoint_vector(gen, np.arange(1.0, 9.0), 0.47)
        assert out[6] == 7.0
        assert out[7] == 8.0


def _bits(v: tuple[float, ...]) -> list[bytes]:
    return [struct.pack("<d", x) for x in v]


def test_identity_rows_keep_the_sign_of_zero():
    # Z7 acts as the identity: every -0.0 comes back unchanged
    a = (-0.0, 1.0, -0.0, 0.0, -0.0, 2.5, -0.0, -0.0)
    assert _bits(published_adjoint_vector(7, a, 0.5)) == _bits(a)


def test_printed_rows_add_in_column_order_to_the_bit():
    # row 1 of Ad(exp(0.5*Z1)) is a1 + (-0.5)*a8 = -0.0 + 0.0 = +0.0; the
    # other rows are -0.0 + -0.0 or copies of -0.0
    out = published_adjoint_vector(1, (-0.0,) * 8, 0.5)
    assert _bits(out) == _bits((0.0,) + (-0.0,) * 7)


@pytest.mark.parametrize("gen", [0, 9])
def test_unknown_generator_is_a_reduction_error(gen):
    with pytest.raises(ReductionError, match=f"no generator Z{gen}"):
        published_adjoint_vector(gen, [1.0] * 8, 0.5)


@pytest.fixture
def entry_2eps(monkeypatch):
    """Ad(exp(eps*Z1)) with its (1,8) entry, printed -eps, read as 2*eps."""
    monkeypatch.setitem(PUBLISHED_ADJOINT[1][8], 1, "2*eps")
    _printed_rows.cache_clear()
    yield
    _printed_rows.cache_clear()


def test_an_entry_outside_the_printed_forms_is_named(entry_2eps):
    with pytest.raises(ReductionError, match=r"Z1\)\) entry \(1,8\) is '2\*eps'"):
        published_adjoint_vector(1, [1.0] * 8, 0.5)


def test_an_entry_outside_the_printed_forms_fails_verify_optimal(entry_2eps, capsys):
    assert main(["verify", "optimal"]) == 1
    assert "'2*eps', not one of the printed forms" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# hand-picked reductions

def test_reduce_pure_f_scaling():
    tr = reduce_to_optimal([0, 0, 0, 0, 0, 0, 1, 0])
    assert tr.pattern == "A1"
    assert tr.steps == ()
    assert replay_deviation(tr) < 1e-9


def test_reduce_translation_plus_scaling():
    tr = reduce_to_optimal([1, 0, 0, 0, 0, 0, 1, 0])
    assert tr.pattern == "A2"
    assert tr.sign == 1
    assert replay_deviation(tr) < 1e-9


def test_replay_check_passes_a_deviation_equal_to_its_tolerance():
    # a residual passes iff it is at most its tolerance: the two routes
    # agree exactly on this trace, so even a zero bound passes
    tr = reduce_to_optimal([1, 0, 0, 0, 0, 0, 1, 0])
    chk = replay_check(tr, 0.0)
    assert chk == SymmetryCheck(replay_deviation(tr), 1, 0.0) == SymmetryCheck(0.0, 1, 0.0)
    assert chk.passed and not replay_check(tr, -1e-300).passed


def test_reduce_generic_case2_vector():
    tr = reduce_to_optimal([0, 0, 0, 0.5, -0.2, 0.7, 2.0, 1.0])
    assert tr.pattern == "A11"
    assert tr.parameters["a"] == pytest.approx(0.5)
    assert tr.parameters["b"] == pytest.approx(math.sqrt(0.53))
    assert tr.parameters["g"] == pytest.approx(2.0)
    assert replay_deviation(tr) < 1e-9
    # the only nontrivial step kills a6 with a rotation
    kinds = [(st.kind, st.generator) for st in tr.steps]
    assert ("adjoint", 4) in kinds


def test_reduce_skips_zero_steps():
    tr = reduce_to_optimal([0, 1, 0, 0.5, 0, 0, 1, 0])
    assert tr.pattern == "A6"
    assert tr.sign == 1
    assert tr.parameters == {"a": pytest.approx(0.5)}
    assert tr.steps == ()


def test_describe_mentions_steps_and_pattern():
    tr = reduce_to_optimal([0, 0, 0, 0.5, -0.2, 0.7, 2.0, 1.0])
    text = tr.describe()
    assert text.startswith("start")
    assert "Ad(exp(" in text
    assert "kill a6" in text
    assert "pattern A11" in text


# ---------------------------------------------------------------------------
# error region

def test_zero_element_rejected():
    with pytest.raises(ReductionError):
        reduce_to_optimal([0.0] * 8)


def test_wrong_length_rejected():
    for bad in ([1.0, 2.0, 3.0], [1.0] * 9, 5.0, "12345678", [[1.0] * 8], ["a"] * 8,
                b"12345678", set(range(1, 9)), (float(k) for k in range(1, 9)),
                np.ones((8, 1)), np.array(1.0)):
        with pytest.raises(ReductionError, match="expected 8"):
            reduce_to_optimal(bad)


def test_both_scalings_vanishing_is_outside_the_classification():
    with pytest.raises(ReductionError, match="Z7, Z8"):
        reduce_to_optimal([1, -2, 0.5, 0.3, 0, 1, 0, 0])
    # relative cut: scalings tiny compared to the rest count as vanishing
    with pytest.raises(ReductionError, match="Z7, Z8"):
        reduce_to_optimal([5, 0, 0, 0, 0, 0, 4e-9, 0])


def test_classify_rejects_non_normal_forms():
    with pytest.raises(ReductionError, match="no pattern"):
        classify_vector(np.ones(8))


# ---------------------------------------------------------------------------
# every pattern has fixed-point representatives

@pytest.mark.parametrize("pid", list(OPTIMAL_PATTERNS))
def test_normal_forms_are_fixed_points(pid):
    rng = np.random.default_rng(DEFAULT_SEED + len(pid))
    for _ in range(10):
        a, sign, params = normal_form_rep(pid, rng)
        tr = reduce_to_optimal(a)
        assert tr.pattern == pid
        assert tr.steps == ()
        assert tr.sign == sign
        for k, v in params.items():
            assert tr.parameters[k] == pytest.approx(v)


def test_case2_tolerates_zero_f_scaling_parameter():
    # a7 is a free parameter of the Z8-based patterns and may vanish
    tr = reduce_to_optimal([0, 0, 0, 0.4, 0.9, 0, 0, 1])
    assert tr.pattern == "A11"
    assert tr.parameters["g"] == 0.0
    tr = reduce_to_optimal([0, -1, 0, 0.4, 0.9, 0, 0, 1])
    assert tr.pattern == "A12"
    assert tr.sign == -1


# ---------------------------------------------------------------------------
# orbit properties under scrambling
#
# The printed families overlap as orbit classes (a rotated a*Z4 + Z7 is
# classified through the a5 != 0 branch), so after scrambling we assert
# the quantities that the adjoint action genuinely preserves rather than
# the original pattern id: a7 and a8 themselves, the rotation-block norm
# a4^2 + a5^2 + a6^2, and membership of the a8 != 0 case.

def test_scrambled_orbits_keep_their_invariants():
    rng = np.random.default_rng(DEFAULT_SEED)
    pids = list(OPTIMAL_PATTERNS)
    n = 600
    worst_replay = 0.0
    seen = set()
    for i in range(n):
        pid = pids[i % len(pids)]
        rep, _, _ = normal_form_rep(pid, rng)
        a = scramble(rep, rng)
        tr = reduce_to_optimal(a)
        seen.add(tr.pattern)
        worst_replay = max(worst_replay, replay_deviation(tr))
        final = np.array(tr.final)
        r2 = float(a[3] ** 2 + a[4] ** 2 + a[5] ** 2)
        r2_final = float(final[3] ** 2 + final[4] ** 2 + final[5] ** 2)
        if pid in CASE2:
            assert tr.pattern in CASE2
            assert abs(a[7]) > 0
            assert final[6] == pytest.approx(a[6] / a[7], abs=1e-9)
            assert r2_final == pytest.approx(r2 / a[7] ** 2, abs=1e-9)
        else:
            assert tr.pattern not in CASE2
            # a8 = 0 is exact on this orbit and stays exact
            assert a[7] == 0.0
            assert final[7] == 0.0
            assert r2_final == pytest.approx(r2 / a[6] ** 2, abs=1e-9)
    assert worst_replay < 1e-9
    # scrambles may legally migrate between overlapping families, but both
    # case groups stay populated
    assert CASE2 <= seen
    assert len(seen - CASE2) >= 4


def test_reduction_is_stable_on_its_own_output():
    rng = np.random.default_rng(DEFAULT_SEED + 1)
    for i, pid in enumerate(OPTIMAL_PATTERNS):
        rep, _, _ = normal_form_rep(pid, rng)
        a = scramble(rep, rng)
        tr = reduce_to_optimal(a)
        again = reduce_to_optimal(np.array(tr.final))
        assert again.pattern == tr.pattern
        assert np.max(np.abs(np.array(again.final) - np.array(tr.final))) < 1e-9


PROOF_VECTORS = ([0, 0, 0, 0, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0, 1, 0],
                 [0, 0, 0, 0.5, -0.2, 0.7, 2.0, 1.0])


def test_reduction_is_scale_invariant():
    # k*a spans the subalgebra a spans: the zero cut follows the scale
    # step, so k*a reaches a's pattern, sign and parameters
    rng = random.Random(DEFAULT_SEED)
    vectors = list(PROOF_VECTORS) + [suite_vector(rng) for _ in range(200)]
    for a in vectors:
        want = reduce_to_optimal(a)
        for k in (1e-12, 1e-3, 1e3, 1e9, 1e12, 1e200):
            got = reduce_to_optimal([k * v for v in a])
            assert (got.pattern, got.sign) == (want.pattern, want.sign), (k, a)
            assert got.parameters.keys() == want.parameters.keys()
            for name, v in want.parameters.items():
                assert abs(got.parameters[name] - v) <= 1e-9 * max(1.0, abs(v)), (k, a)
            assert replay_deviation(got) < 1e-9, (k, a)


def test_replay_route_matches_on_bulk_random_vectors():
    rng = np.random.default_rng(DEFAULT_SEED + 2)
    reduced = 0
    for _ in range(400):
        a = rng.uniform(-2, 2, size=8)
        a[rng.integers(0, 8, size=3)] = 0.0
        try:
            tr = reduce_to_optimal(a)
        except ReductionError:
            continue
        reduced += 1
        assert replay_deviation(tr) < 1e-9
        assert np.max(np.abs(replay(tr) - np.array(tr.final))) < 1e-8
    assert reduced > 300


# ---------------------------------------------------------------------------
# reference oracles: replay through dense matrices and ``matvec``, pattern
# matching coordinate by coordinate, and coefficient checks through the
# abstract base classes alone

def reference_replay(trace) -> tuple[float, ...]:
    """The dense route: each adjoint matrix evaluated as an 8x8 tuple of
    rows, then ``matvec``."""
    mats = reduced_adjoints()
    a = trace.initial
    for st in trace.steps:
        if st.kind == "adjoint":
            a = matvec(mats[st.generator - 1].eval_at(st.value), a)
        elif st.kind == "scale":
            a = tuple(v * st.value for v in a)
        else:
            a = tuple(-v for v in a)
    return a


def reference_classify_vector(a, tol=1e-9):
    """Pattern by pattern, coordinate by coordinate, through the dicts."""
    a = tuple(float(v) for v in a)
    scale = max(1.0, *map(abs, a))
    for pid, spec in OPTIMAL_PATTERNS.items():
        sign = None
        params = {}
        ok = True
        for j in range(1, 9):
            v = a[j - 1]
            role = spec.get(j)
            if role is None:
                if abs(v) > tol * scale:
                    ok = False
                    break
            elif role == "1":
                if abs(v - 1.0) > tol * scale:
                    ok = False
                    break
            elif role == "pm":
                if abs(abs(v) - 1.0) > tol * scale:
                    ok = False
                    break
                sign = 1 if v > 0 else -1
            else:
                params[role] = float(v)
        if ok:
            return pid, sign, params
    raise ReductionError("reduced vector matches no pattern: "
                         + "[" + ", ".join(f"{v:.6g}" for v in a) + "]")


def reference_coefficients(a):
    """Every input through the abstract base classes."""
    bad = ReductionError("expected 8 coefficients over Z1..Z8")
    ordered = isinstance(a, Sequence) or hasattr(a, "__array__")
    if not ordered or isinstance(a, (str, bytes, bytearray)):
        raise bad
    try:
        items = list(a)
    except TypeError as exc:
        raise bad from exc
    if len(items) != 8 or not all(isinstance(v, numbers.Real) for v in items):
        raise bad
    return tuple(map(float, items))


def outcome(fn, *args):
    """A call's value, or the type and message of the ReductionError it raised."""
    try:
        return ("value", fn(*args))
    except ReductionError as exc:
        return ("error", type(exc), str(exc))


def replayed(route, trace):
    """A replay's vector, or the message of the EvalDomainError it raised."""
    try:
        return route(trace)
    except EvalDomainError as exc:
        return str(exc)


def suite_vector(rng: random.Random) -> list[float]:
    """One draw made as the optimal suite makes it."""
    a = [rng.uniform(-2, 2) for _ in range(8)]
    for i in rng.sample(range(8), rng.randrange(8)):
        a[i] = 0.0
    if a[6] == 0.0 and a[7] == 0.0:
        a[6] = rng.uniform(0.3, 2.0) * rng.choice((1.0, -1.0))
    return a


def seeded_traces(seed: int, n: int):
    """n reductions of draws made as the optimal suite makes them."""
    rng = random.Random(seed)
    return [reduce_to_optimal(suite_vector(rng)) for _ in range(n)]


def test_sparse_replay_matches_the_dense_route_on_seeded_traces():
    # == counts 0.0 and -0.0 as equal, so this is bit for bit up to the
    # sign of zero
    traces = seeded_traces(DEFAULT_SEED, 2500)
    assert sum(1 for tr in traces if tr.steps) >= 2000
    for tr in traces:
        got, want = replay(tr), reference_replay(tr)
        assert all(type(v) is float for v in got)
        assert got == want, tr


def test_sparse_replay_matches_the_dense_route_on_scrambled_normal_forms():
    rng = random.Random(DEFAULT_SEED)
    for pid in OPTIMAL_PATTERNS:
        a, _, _ = _scrambled_normal_form(pid, rng)
        tr = reduce_to_optimal(a)
        assert tr.pattern == pid
        assert replay(tr) == reference_replay(tr)


@pytest.mark.parametrize("gen", range(8))
def test_apply_is_matvec_of_eval_at(gen):
    # every generator, Z7's identity included, at vectors with exact and
    # signed zeros
    mat = reduced_adjoints()[gen]
    rng = random.Random(DEFAULT_SEED + gen)
    for eps in (0.0, -0.0, 1e-300, 0.1, -0.7, 1.3, 5.0, -40.0):
        for _ in range(20):
            a = tuple(rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-3, 3)))
                      for _ in range(8))
            assert mat.apply(eps, a) == matvec(mat.eval_at(eps), a)


def test_classify_vector_matches_the_reference_at_the_tolerance_boundary():
    # every coordinate either sits on its pattern value or misses it by
    # cut*(1 +- 1e-3), on either side: zeros by |v|, fixed entries by |v| - 1
    tol = 1e-7
    rng = random.Random(DEFAULT_SEED)
    seen = set()
    for pid, spec in OPTIMAL_PATTERNS.items():
        for big in (1.0, 1e3):
            for _ in range(150):
                base = [0.0] * 8
                fixed = set()
                for j, role in spec.items():
                    if role == "1":
                        base[j - 1] = 1.0
                    elif role == "pm":
                        base[j - 1] = rng.choice((1.0, -1.0))
                    else:
                        base[j - 1] = rng.uniform(0.3, 2.0) * big * rng.choice((1.0, -1.0))
                        continue
                    fixed.add(j - 1)
                cut = tol * max(1.0, *map(abs, base))
                a = list(base)
                for i in range(8):
                    if i in fixed or i + 1 not in spec:
                        if rng.random() < 0.3:
                            away = cut * rng.choice((1 - 1e-3, 1 + 1e-3))
                            a[i] += away * rng.choice((1.0, -1.0))
                got = outcome(classify_vector, a, tol)
                assert got == outcome(reference_classify_vector, a, tol), a
                seen.add(got[0] == "value" and got[1][0] == pid)
    # both sides of the boundary were reached
    assert seen == {True, False}


def test_classify_vector_rejects_non_finite_vectors():
    # NaN is not within the cut of 0, and inf is no normal form
    for bad in ([0, 0, 0, 0, 0, 0, math.inf, math.nan], [math.nan] * 6 + [1, 0],
                [0, 0, 0, 0, 0, 0, 1, math.inf]):
        with pytest.raises(ReductionError, match="non-finite"):
            classify_vector(bad)


def test_coefficients_accept_and_reject_what_the_reference_does():
    inputs = [
        [1.0, 2.0, 3.0], [1.0] * 9, 5.0, "12345678", [[1.0] * 8], ["a"] * 8,
        b"12345678", set(range(1, 9)), (float(k) for k in range(1, 9)),
        np.ones((8, 1)), np.array(1.0), {k: 1.0 for k in range(8)},
        [True] * 8, [False, True] + [0.5] * 6, [np.float64(1.5)] * 8,
        [Fraction(1, 3)] * 8, [1, 2.0, True, np.float64(3), Fraction(1, 2), 0, -1, 5],
        list(range(8)), tuple(range(8)), range(8), np.ones(8), np.arange(8),
        [0.5] * 7 + [1j], [0.5] * 7 + [None], [0.5] * 7 + ["1"], (0.5,) * 7 + (Decimal(1),),
        [math.nan] * 8, [0.25, -0.0, 1e-310, 1e308, 0, 3, -7, 2.5],
        bytearray(8), [np.float32(0.25)] * 8, [np.int64(2)] * 8,
    ]
    for a in inputs:
        # the generator is rejected by both without being consumed
        got = outcome(_coefficients, a)
        want = outcome(reference_coefficients, a)
        if got[0] == want[0] == "value":
            assert all(type(v) is float for v in got[1])
            assert got[1] == want[1] or (math.isnan(got[1][0]) and math.isnan(want[1][0]))
        else:
            assert got == want, a


def test_subnormal_scalings_are_reduction_errors():
    # 1/a7 or 1/a8 overflows: each is refused by name, not matched as A1
    # with a NaN vector or failed with a bare math error
    for a in ([0, 0, 0, 0, 0, 0, 1e-310, 0], [0, 0, 0, 0, 0, 0, 0, 5e-324],
              [1e-320, 0, 0, 0, 0, 0, 1e-310, 0]):
        with pytest.raises(ReductionError, match="float range"):
            reduce_to_optimal(a)
    # with no cut, a subnormal a1 is kept, and the step that sets |a1| = 1
    # is refused by name
    with pytest.raises(ReductionError, match=r"'set \|a1\| = 1' takes the value inf"):
        reduce_to_optimal([1e-320, 0, 0, 0, 0, 0, 1, 0], tol=0.0)


def test_z8_step_past_the_exp_guard_is_a_reduction_error():
    # with no cut, a1 = 1e-305 asks for eps = 702.29: exp(eps) is a float,
    # but the recomputed adjoints that replay evaluates stop at 700, so the
    # step is refused by name instead of returning a trace replay rejects
    with pytest.raises(ReductionError,
                       match=r"'set \|a1\| = 1' takes eps = 702\.28.*float range"):
        reduce_to_optimal([1e-305, 0, 0, 0, 0, 0, 1, 0], tol=0.0)
    for a1 in (1e-303, -2e-304):  # eps 697.7 and 699.3 replay
        tr = reduce_to_optimal([a1, 0, 0, 0, 0, 0, 1, 0], tol=0.0)
        assert [(st.generator, st.value < 700) for st in tr.steps] == [(8, True)]
        assert tr.pattern == "A2" and replay_deviation(tr) < 1e-9


def test_extreme_magnitudes_reduce_to_finite_vectors_or_raise_reduction_error():
    # the only error a finite input may raise is ReductionError, and a
    # trace it returns is finite and replays exactly, at the default cut
    # and at none
    mags = (0.0, 5e-324, 1e-310, 2.3e-308, 1e-300, 1e-9, 1.0, 1e9, 1e300, 1.7e308)
    rng = random.Random(DEFAULT_SEED)
    reduced = 0
    for tol in (1e-9, 0.0):
        for _ in range(3000):
            a = [min(rng.choice(mags) * rng.uniform(0.5, 1.05), 1.7e308)
                 * rng.choice((1.0, -1.0)) for _ in range(8)]
            try:
                tr = reduce_to_optimal(a, tol=tol)
            except ReductionError:
                continue
            reduced += 1
            assert all(map(math.isfinite, tr.final))
            assert all(map(math.isfinite, (st.value for st in tr.steps)))
            # past eps = 700 both recomputed routes refuse exp, as the
            # compiled evaluator does everywhere
            assert replayed(replay, tr) == replayed(reference_replay, tr)
    assert reduced > 500

