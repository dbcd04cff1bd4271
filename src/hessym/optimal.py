"""Reduction of one-dimensional subalgebras to the optimal system.

``reduce_to_optimal`` drives a coefficient vector over (Z1..Z8) to one of
twelve normal-form patterns using the published adjoint actions, recorded
step by step.  The steps read the printed table, ``catalog.PUBLISHED_ADJOINT``,
entry by entry; ``replay`` re-applies the same trace through the independently
recomputed adjoint matrices from the structure constants, so every
reduction doubles as a cross-check of the printed table.

Scaling a generator by a nonzero constant keeps the subalgebra, so scale
and reflect steps are allowed alongside the adjoint maps.  The tree
requires a7 != 0 or a8 != 0 (these coefficients are adjoint-invariant);
everything else lies outside the classified region.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .catalog import OPTIMAL_PATTERNS, PUBLISHED_ADJOINT, reduced_adjoints
from .expr import EXP_GUARD
from .normalize import SymmetryCheck

__all__ = [
    "ReductionError", "ReductionStep", "ReductionTrace",
    "published_adjoint_vector", "reduce_to_optimal", "replay",
    "replay_deviation", "replay_check", "classify_vector",
]


class ReductionError(ValueError):
    pass


def arccot(x: float) -> float:
    """Branch in (0, pi): continuous where cot is, sin(arccot(x)) > 0."""
    return math.atan2(1.0, x)


# the entry forms PUBLISHED_ADJOINT may hold, as functions of eps (1 adds a_j)
_ENTRY_FORMS = {"1": None, "eps": float, "-eps": operator.neg, "cos(eps)": math.cos,
                "sin(eps)": math.sin, "-sin(eps)": lambda eps: -math.sin(eps),
                "exp(eps)": math.exp}


@lru_cache(maxsize=None)
def _printed_rows(gen: int) -> tuple[tuple[int, tuple], ...]:
    """The rows of Ad(exp(eps*Z_gen)) in ``PUBLISHED_ADJOINT`` other than the
    identity's: (row index, its (column, entry form) terms in column order)."""
    if gen not in PUBLISHED_ADJOINT:
        raise ReductionError(f"no generator Z{gen}")
    rows: list[list] = [[] for _ in range(8)]
    for k in range(8):
        for j, entry in PUBLISHED_ADJOINT[gen].get(k + 1, {k + 1: "1"}).items():
            if entry not in _ENTRY_FORMS:
                raise ReductionError(f"Ad(exp(eps*Z{gen})) entry ({j},{k + 1}) is {entry!r}, "
                                     "not one of the printed forms")
            rows[j - 1].append((k, _ENTRY_FORMS[entry]))
    return tuple((j, tuple(row)) for j, row in enumerate(rows) if row != [(j, None)])


def published_adjoint_vector(gen: int, a: Sequence[float], eps: float) -> tuple[float, ...]:
    """Ad(exp(eps*Z_gen)) (1-based gen) on a coefficient vector, as printed in
    ``PUBLISHED_ADJOINT``: terms added left to right, identity rows copied."""
    a = tuple(map(float, a))
    out = list(a)
    for j, terms in _printed_rows(gen):
        total = None
        for k, form in terms:
            term = a[k] if form is None else form(eps) * a[k]
            total = term if total is None else total + term
        out[j] = total
    return tuple(out)


class ReductionStep(NamedTuple):
    kind: str                   # 'adjoint' | 'scale' | 'reflect'
    generator: int | None       # 1-based, adjoint steps only
    value: float                # eps for adjoint, factor for scale
    note: str

    def apply(self, a: tuple[float, ...]) -> tuple[float, ...]:
        """The step on a tuple of floats, adjoint maps by the printed table."""
        if self.kind == "adjoint":
            return published_adjoint_vector(self.generator, a, self.value)
        if self.kind == "scale":
            return tuple([v * self.value for v in a])
        if self.kind == "reflect":
            return tuple([-v for v in a])
        raise ReductionError(f"unknown step kind {self.kind!r}")


class ReductionTrace(NamedTuple):
    initial: tuple[float, ...]
    steps: tuple[ReductionStep, ...]
    final: tuple[float, ...]
    pattern: str
    sign: int | None
    parameters: Mapping[str, float] = MappingProxyType({})

    def describe(self) -> str:
        lines = [f"start   {_fmt_vec(self.initial)}"]
        a = self.initial
        for st in self.steps:
            a = st.apply(a)
            what = (f"Ad(exp({st.value:+.6g}*Z{st.generator}))" if st.kind == "adjoint"
                    else f"scale by {st.value:.6g}" if st.kind == "scale" else "reflect")
            lines.append(f"{st.note:<22} {what:<28} -> {_fmt_vec(a)}")
        lines.append(f"pattern {self.pattern}"
                     + (f" (sign {self.sign:+d})" if self.sign is not None else ""))
        return "\n".join(lines)


def _fmt_vec(a) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in a) + "]"


@lru_cache(maxsize=None)
def _candidates(support: int) -> tuple[tuple[str, tuple[tuple[int, str], ...]], ...]:
    """The patterns, in ``OPTIMAL_PATTERNS`` order, that let every
    coordinate of the support bitmask (bit j - 1 for Z_j) be nonzero, each
    with its (0-based index, role) pairs in index order."""
    return tuple((pid, tuple((j - 1, spec[j]) for j in sorted(spec)))
                 for pid, spec in OPTIMAL_PATTERNS.items()
                 if all(j in spec for j in range(1, 9) if support >> (j - 1) & 1))


def classify_vector(a: Sequence[float], tol: float = 1e-9) -> tuple[str, int | None, dict]:
    """Match a reduced vector against the normal-form patterns.

    The support (the entries above the cut, NaN included) is one bitmask,
    which picks the patterns whose vanishing coordinates it misses; the
    first of them whose fixed entries match wins.  A non-finite vector
    matches nothing.
    """
    a = tuple(map(float, a))
    if not all(map(math.isfinite, a)):
        raise ReductionError(f"cannot match a non-finite vector to a pattern: {_fmt_vec(a)}")
    cut = tol * max(1.0, *map(abs, a))
    support = 0
    bit = 1
    for v in a:
        if not abs(v) <= cut:
            support |= bit
        bit <<= 1
    for pid, roles in _candidates(support):
        sign: int | None = None
        params: dict[str, float] = {}
        for i, role in roles:
            v = a[i]
            if role == "1":
                if abs(v - 1.0) > cut:
                    break
            elif role == "pm":
                if abs(abs(v) - 1.0) > cut:
                    break
                sign = 1 if v > 0 else -1
            else:
                params[role] = v
        else:
            return pid, sign, params
    raise ReductionError(f"reduced vector matches no pattern: {_fmt_vec(a)}")


_PLAIN = frozenset((float, int))


def _coefficients(a: Sequence[float]) -> tuple[float, ...]:
    """The entries of a flat, ordered run of 8 real numbers (a sequence or
    a 1-d array) as floats.  Strings, bytes, sets, generators and nested
    rows are rejected rather than read item by item."""
    if type(a) in (list, tuple) and len(a) == 8 and {*map(type, a)} <= _PLAIN:
        return tuple(map(float, a))
    bad = ReductionError("expected 8 coefficients over Z1..Z8")
    ordered = isinstance(a, Sequence) or hasattr(a, "__array__")
    if not ordered or isinstance(a, (str, bytes, bytearray)):
        raise bad
    try:
        items = list(a)
    except TypeError as exc:  # a 0-d array
        raise bad from exc
    if len(items) != 8 or not all(isinstance(v, numbers.Real) for v in items):
        raise bad
    return tuple(map(float, items))


def _finite(value: float, note: str) -> None:
    """Refuse a reduction step whose value left the float range."""
    if not math.isfinite(value):
        raise ReductionError(
            f"step '{note}' takes the value {value!r}: the coefficients "
            "span more than the float range")


def reduce_to_optimal(a: Sequence[float], tol: float = 1e-9) -> ReductionTrace:
    """Canonicalize a nonzero combination sum a_k Z_k by the adjoint action.

    Follows the printed two-case tree: a8 != 0 leads to the patterns built
    on the space scaling, a8 = 0 and a7 != 0 to those built on the f
    scaling.  Both coefficients vanishing is outside the classified region
    and raises ReductionError, and so does a step or a reduced vector past
    the float range (a subnormal scaling coefficient, say).
    """
    a = a0 = _coefficients(a)
    if not all(map(math.isfinite, a)):
        raise ReductionError("coefficients must be finite numbers")
    norm = max(map(abs, a))
    if norm == 0.0:
        raise ReductionError("the zero element spans no subalgebra")
    cut = tol * norm
    steps: list[ReductionStep] = []

    def reflect(note: str) -> None:
        nonlocal a
        a = tuple([-v for v in a])
        steps.append(ReductionStep("reflect", None, -1.0, note))

    def scale(factor: float, note: str) -> None:
        # the zero cut follows the vector's scale, so that k*a reduces as a
        nonlocal a, cut
        _finite(factor, note)
        a = tuple([v * factor for v in a])
        cut = tol * max(map(abs, a))
        steps.append(ReductionStep("scale", None, factor, note))

    def adj(gen: int, eps: float, note: str) -> None:
        nonlocal a
        if eps != 0.0:
            _finite(eps, note)
            if gen == 8 and not eps < EXP_GUARD:
                # the recomputed Ad(exp(eps*Z8)) that replay uses holds exp(eps)
                raise ReductionError(
                    f"step '{note}' takes eps = {eps!r}, past the exp argument "
                    f"{EXP_GUARD:g} that the recomputed adjoints evaluate: the "
                    "coefficients span more than the float range")
            a = published_adjoint_vector(gen, a, eps)
            steps.append(ReductionStep("adjoint", gen, eps, note))

    def unit(x: float) -> float:
        """eps of the Z8 step that takes |x| to 1."""
        if not abs(x) < math.inf:
            raise ReductionError(f"the vector left the float range: {_fmt_vec(a)}")
        return math.log(1.0 / abs(x))

    def nz(j: int) -> bool:
        return abs(a[j - 1]) > cut

    if not nz(7) and not nz(8):
        raise ReductionError(
            "both scaling coefficients (Z7, Z8) vanish; the printed "
            "classification does not cover this region")

    if nz(8):
        # case 2: normalize the space-scaling coefficient
        if a[7] < 0:
            reflect("orient a8 > 0")
        if a[7] != 1.0:
            scale(1.0 / a[7], "set a8 = 1")
        adj(1, a[0] / a[7], "kill a1")
        if nz(3):
            adj(6, arccot(a[1] / a[2]), "kill a3")
        if nz(6):
            adj(4, -arccot(a[4] / a[5]), "kill a6")
        if nz(2):
            adj(8, unit(a[1]), "set |a2| = 1")
    else:
        # case 1: normalize the f-scaling coefficient
        if a[6] < 0:
            reflect("orient a7 > 0")
        if a[6] != 1.0:
            scale(1.0 / a[6], "set a7 = 1")
        if not nz(5):
            if not nz(4):
                if not nz(6):
                    # only translations left beside Z7
                    if nz(3):
                        adj(4, arccot(a[0] / a[2]), "absorb a3 into a1")
                    if nz(2):
                        adj(5, arccot(a[0] / a[1]), "absorb a2 into a1")
                    if nz(1):
                        adj(8, unit(a[0]), "set |a1| = 1")
                else:
                    adj(2, -a[2] / a[5], "kill a3")
                    adj(3, a[1] / a[5], "kill a2")
                    if nz(1):
                        adj(8, unit(a[0]), "set |a1| = 1")
            else:
                adj(1, -a[2] / a[3], "kill a3")
                if not nz(6):
                    adj(3, a[0] / a[3], "kill a1")
                    if nz(2):
                        adj(8, unit(a[1]), "set |a2| = 1")
                else:
                    adj(3, a[1] / a[5], "kill a2")
                    if nz(1):
                        adj(8, unit(a[0]), "set |a1| = 1")
        else:
            adj(1, -a[1] / a[4], "kill a2")
            adj(2, a[0] / a[4], "kill a1")
            if nz(6):
                adj(5, arccot(a[3] / a[5]), "kill a6")
            if nz(3):
                adj(8, unit(a[2]), "set |a3| = 1")

    pattern, sign, params = classify_vector(a, tol=max(tol, 1e-12) * 100)
    return ReductionTrace(a0, tuple(steps), a, pattern, sign, params)


# ---------------------------------------------------------------------------
# replay through the recomputed adjoint matrices

def replay(trace: ReductionTrace) -> tuple[float, ...]:
    """Re-run a trace using adjoint matrices derived from the structure
    constants instead of the printed formulas."""
    mats = reduced_adjoints()
    a = trace.initial
    for st in trace.steps:
        if st.kind == "adjoint":
            a = mats[st.generator - 1].apply(st.value, a)
        else:
            a = st.apply(a)
    return a


def replay_deviation(trace: ReductionTrace) -> float:
    """Max absolute disagreement between the two adjoint routes, relative
    to the vector scale."""
    final = trace.final
    return max(map(abs, map(operator.sub, replay(trace), final))) / max(1.0, *map(abs, final))


def replay_check(trace: ReductionTrace, tol: float) -> SymmetryCheck:
    """The replay deviation of one trace against ``tol``."""
    return SymmetryCheck(replay_deviation(trace), 1, tol)
