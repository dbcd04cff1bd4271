"""Reduction of one-dimensional subalgebras to the optimal system.

``reduce_to_optimal`` drives a coefficient vector over (Z1..Z8) to one of
twelve normal-form patterns using the published adjoint actions, recorded
step by step.  The steps are hand-transcribed closed forms (the printed
table); ``replay`` re-applies the same trace through the independently
recomputed adjoint matrices from the structure constants, so every
reduction doubles as a cross-check of the printed table.

Scaling a generator by a nonzero constant keeps the subalgebra, so scale
and reflect steps are allowed alongside the adjoint maps.  The tree
requires a7 != 0 or a8 != 0 (these coefficients are adjoint-invariant);
everything else lies outside the classified region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .catalog import OPTIMAL_PATTERNS, Z_NAMES, reduced_basis
from .fields import AdjointMatrix, adjoint, structure_table

__all__ = [
    "ReductionError", "ReductionStep", "ReductionTrace",
    "published_adjoint_vector", "reduce_to_optimal", "replay",
    "replay_deviation", "classify_vector",
]


class ReductionError(ValueError):
    pass


def arccot(x: float) -> float:
    """Branch in (0, pi): continuous where cot is, sin(arccot(x)) > 0."""
    return math.atan2(1.0, x)


def published_adjoint_vector(gen: int, a: Sequence[float], eps: float) -> np.ndarray:
    """Action of Ad(exp(eps*Z_gen)) on coefficient vectors, transcribed
    entry by entry from the printed adjoint table (1-based gen)."""
    return np.array(_published_adjoint(gen, tuple(float(v) for v in a), eps))


def _published_adjoint(gen: int, a: tuple[float, ...], eps: float) -> tuple[float, ...]:
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    c, s = math.cos(eps), math.sin(eps)
    if gen == 1:
        out = (a1 - eps * a8, a2 + eps * a5, a3 + eps * a4, a4, a5, a6, a7, a8)
    elif gen == 2:
        out = (a1 - eps * a5, a2 - eps * a8, a3 + eps * a6, a4, a5, a6, a7, a8)
    elif gen == 3:
        out = (a1 - eps * a4, a2 - eps * a6, a3 - eps * a8, a4, a5, a6, a7, a8)
    elif gen == 4:
        out = (a1 * c + a3 * s, a2, -a1 * s + a3 * c,
               a4, a5 * c - a6 * s, a5 * s + a6 * c, a7, a8)
    elif gen == 5:
        out = (a1 * c + a2 * s, -a1 * s + a2 * c, a3,
               a4 * c + a6 * s, a5, -a4 * s + a6 * c, a7, a8)
    elif gen == 6:
        out = (a1, a2 * c + a3 * s, -a2 * s + a3 * c,
               a4 * c - a5 * s, a4 * s + a5 * c, a6, a7, a8)
    elif gen == 7:
        out = (a1, a2, a3, a4, a5, a6, a7, a8)
    elif gen == 8:
        e = math.exp(eps)
        out = (a1 * e, a2 * e, a3 * e, a4, a5, a6, a7, a8)
    else:
        raise ReductionError(f"no generator Z{gen}")
    return out


@dataclass(frozen=True)
class ReductionStep:
    kind: str                   # 'adjoint' | 'scale' | 'reflect'
    generator: int | None       # 1-based, adjoint steps only
    value: float                # eps for adjoint, factor for scale
    note: str

    def apply_published(self, a: np.ndarray) -> np.ndarray:
        return np.array(self.apply(tuple(float(v) for v in a)))

    def apply(self, a: tuple[float, ...]) -> tuple[float, ...]:
        """``apply_published`` on a tuple of floats (the reduction loop)."""
        if self.kind == "adjoint":
            return _published_adjoint(self.generator, a, self.value)
        if self.kind == "scale":
            return tuple(v * self.value for v in a)
        if self.kind == "reflect":
            return tuple(-v for v in a)
        raise ReductionError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class ReductionTrace:
    initial: tuple[float, ...]
    steps: tuple[ReductionStep, ...]
    final: tuple[float, ...]
    pattern: str
    sign: int | None
    parameters: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"start   {_fmt_vec(self.initial)}"]
        a = np.array(self.initial)
        for st in self.steps:
            a = st.apply_published(a)
            what = (f"Ad(exp({st.value:+.6g}*Z{st.generator}))" if st.kind == "adjoint"
                    else f"scale by {st.value:.6g}" if st.kind == "scale" else "reflect")
            lines.append(f"{st.note:<22} {what:<28} -> {_fmt_vec(a)}")
        lines.append(f"pattern {self.pattern}"
                     + (f" (sign {self.sign:+d})" if self.sign is not None else ""))
        return "\n".join(lines)


def _fmt_vec(a) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in a) + "]"


def classify_vector(a: Sequence[float], tol: float = 1e-9) -> tuple[str, int | None, dict]:
    """Match a reduced vector against the normal-form patterns."""
    a = tuple(float(v) for v in a)
    scale = max(1.0, *map(abs, a))
    for pid, spec in OPTIMAL_PATTERNS.items():
        sign: int | None = None
        params: dict[str, float] = {}
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
    raise ReductionError(f"reduced vector matches no pattern: {_fmt_vec(a)}")


def reduce_to_optimal(a: Sequence[float], tol: float = 1e-9) -> ReductionTrace:
    """Canonicalize a nonzero combination sum a_k Z_k by the adjoint action.

    Follows the printed two-case tree: a8 != 0 leads to the patterns built
    on the space scaling, a8 = 0 and a7 != 0 to those built on the f
    scaling.  Both coefficients vanishing is outside the classified region
    and raises ReductionError.
    """
    arr = np.asarray(a, dtype=float)
    if arr.shape != (8,):
        raise ReductionError("expected 8 coefficients over Z1..Z8")
    a0 = tuple(arr.tolist())  # plain floats: the loop below is scalar work
    a = a0
    if not all(map(math.isfinite, a)):
        raise ReductionError("coefficients must be finite numbers")
    norm = max(map(abs, a))
    if norm == 0.0:
        raise ReductionError("the zero element spans no subalgebra")
    cut = tol * norm
    steps: list[ReductionStep] = []

    def emit(kind: str, gen: int | None, value: float, note: str) -> None:
        nonlocal a
        st = ReductionStep(kind, gen, value, note)
        a = st.apply(a)
        steps.append(st)

    def adj(gen: int, eps: float, note: str) -> None:
        if eps != 0.0:
            emit("adjoint", gen, eps, note)

    def nz(j: int) -> bool:
        return abs(a[j - 1]) > cut

    if not nz(7) and not nz(8):
        raise ReductionError(
            "both scaling coefficients (Z7, Z8) vanish; the printed "
            "classification does not cover this region")

    if nz(8):
        # case 2: normalize the space-scaling coefficient
        if a[7] < 0:
            emit("reflect", None, -1.0, "orient a8 > 0")
        if a[7] != 1.0:
            emit("scale", None, 1.0 / a[7], "set a8 = 1")
        adj(1, a[0] / a[7], "kill a1")
        if nz(3):
            adj(6, arccot(a[1] / a[2]), "kill a3")
        if nz(6):
            adj(4, -arccot(a[4] / a[5]), "kill a6")
        if nz(2):
            adj(8, math.log(1.0 / abs(a[1])), "set |a2| = 1")
    else:
        # case 1: normalize the f-scaling coefficient
        if a[6] < 0:
            emit("reflect", None, -1.0, "orient a7 > 0")
        if a[6] != 1.0:
            emit("scale", None, 1.0 / a[6], "set a7 = 1")
        if not nz(5):
            if not nz(4):
                if not nz(6):
                    # only translations left beside Z7
                    if nz(3):
                        adj(4, arccot(a[0] / a[2]), "absorb a3 into a1")
                    if nz(2):
                        adj(5, arccot(a[0] / a[1]), "absorb a2 into a1")
                    if nz(1):
                        adj(8, math.log(1.0 / abs(a[0])), "set |a1| = 1")
                else:
                    adj(2, -a[2] / a[5], "kill a3")
                    adj(3, a[1] / a[5], "kill a2")
                    if nz(1):
                        adj(8, math.log(1.0 / abs(a[0])), "set |a1| = 1")
            else:
                adj(1, -a[2] / a[3], "kill a3")
                if not nz(6):
                    adj(3, a[0] / a[3], "kill a1")
                    if nz(2):
                        adj(8, math.log(1.0 / abs(a[1])), "set |a2| = 1")
                else:
                    adj(3, a[1] / a[5], "kill a2")
                    if nz(1):
                        adj(8, math.log(1.0 / abs(a[0])), "set |a1| = 1")
        else:
            adj(1, -a[1] / a[4], "kill a2")
            adj(2, a[0] / a[4], "kill a1")
            if nz(6):
                adj(5, arccot(a[3] / a[5]), "kill a6")
            if nz(3):
                adj(8, math.log(1.0 / abs(a[2])), "set |a3| = 1")

    pattern, sign, params = classify_vector(a, tol=max(tol, 1e-12) * 100)
    return ReductionTrace(a0, tuple(steps), a, pattern, sign, params)


# ---------------------------------------------------------------------------
# replay through the recomputed adjoint matrices

@lru_cache(maxsize=None)
def _recomputed_adjoints() -> tuple[AdjointMatrix, ...]:
    table = structure_table(reduced_basis(), Z_NAMES)
    return tuple(adjoint(table, i) for i in range(8))


def replay(trace: ReductionTrace) -> np.ndarray:
    """Re-run a trace using adjoint matrices derived from the structure
    constants instead of the printed formulas."""
    mats = _recomputed_adjoints()
    a = np.array(trace.initial, dtype=float)
    for st in trace.steps:
        if st.kind == "adjoint":
            a = mats[st.generator - 1].eval_at(st.value) @ a
        elif st.kind == "scale":
            a = a * st.value
        elif st.kind == "reflect":
            a = -a
        else:
            raise ReductionError(f"unknown step kind {st.kind!r}")
    return a


def replay_deviation(trace: ReductionTrace) -> float:
    """Max absolute disagreement between the two adjoint routes, relative
    to the vector scale."""
    got = replay(trace)
    want = np.array(trace.final)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale
