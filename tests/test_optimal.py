"""Reduction of algebra elements to the normal-form patterns.

Two independent routes are compared throughout: the hand-transcribed
published adjoint formulas drive the reducer, and every recorded trace is
replayed through adjoint matrices recomputed from the structure constants.
"""

import math

import numpy as np
import pytest

from hessym.catalog import OPTIMAL_PATTERNS, reduced_basis, Z_NAMES
from hessym.normalize import DEFAULT_SEED
from hessym.fields import adjoint, structure_table
from hessym.optimal import (
    ReductionError,
    arccot,
    classify_vector,
    published_adjoint_vector,
    reduce_to_optimal,
    replay,
    replay_deviation,
)

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
