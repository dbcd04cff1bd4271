"""Command-line interface: tables, verification suites, reductions,
symmetry checks, transforms, and invariants.

Exit status is nonzero iff a non-flagged check failed (or an input could
not be parsed).  All randomized commands take --seed and default to the
package-wide seed, so repeated runs emit byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .catalog import (
    V_NAMES,
    Y_NAMES,
    Z_NAMES,
    equivalence_basis,
    principal_basis,
    reduced_basis,
)
from .expr import ExprError, OpaqueBinding
from .fields import E4, adjoint, structure_table, vf
from .flows import W_BODY, apply_case, tian_base
from .jets import check_symmetry
from .normalize import DEFAULT_SEED
from .optimal import ReductionError, reduce_to_optimal, replay_deviation
from .parse import parse
from .report import (
    SUITE_NAMES,
    overall_status,
    render_json,
    render_markdown,
    run_suites,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hessym",
        description="verification toolkit for the symmetry analysis of "
                    "S2[u] = f(x, y, z)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, points_default=None, tol_default=None):
        sp.add_argument("--format", choices=("md", "json"), default="md")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--tol", type=float, default=tol_default)
        sp.add_argument("--points", type=int, default=points_default)
        sp.add_argument("--out", type=Path, default=None)

    sp = sub.add_parser("tables", help="print a commutator table "
                        "(g8 also gets the adjoint matrices)")
    sp.add_argument("algebra", choices=("g8", "g12", "principal"))
    common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=("all",) + SUITE_NAMES)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reduce", help="reduce an algebra element to its "
                        "normal form (8 comma-separated coefficients over "
                        "Z1..Z8)")
    sp.add_argument("coeffs")
    common(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("check-symmetry", help="test whether a vector field "
                        "is a symmetry for a given right-hand side")
    sp.add_argument("--f", required=True, metavar="EXPR",
                    help="right-hand side f(x, y, z)")
    sp.add_argument("--vf", required=True, metavar="XI;ZETA;ETA;PHI",
                    help="the four coefficients of the field, "
                    "semicolon-separated")
    common(sp, points_default=100, tol_default=1e-8)
    sp.set_defaults(func=cmd_check_symmetry)

    sp = sub.add_parser("transform", help="apply one of the fifteen "
                        "one-parameter transforms to a solution")
    sp.add_argument("--case", type=int, required=True, choices=range(1, 16),
                    metavar="1..15")
    sp.add_argument("--t", type=float, required=True,
                    help="group parameter")
    sp.add_argument("--u", required=True, metavar="EXPR|fixture:T1,T2,T3[,EPS]",
                    help="solution profile; the fixture form is the "
                    "quadratic base, with a corrugation when EPS is given")
    sp.add_argument("--param", action="append", default=[],
                    metavar="NAME=VALUE", help="case parameter (repeatable)")
    common(sp, points_default=40, tol_default=1e-7)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("invariants", help="verify the stated invariants "
                        "of a reduced representative")
    sp.add_argument("label", nargs="?", default="all",
                    help="dataset label (default: all)")
    common(sp)
    sp.set_defaults(func=cmd_invariants)

    return p


def _emit(text: str, args) -> None:
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_tables(args) -> int:
    if args.algebra == "g8":
        table = structure_table(reduced_basis(), Z_NAMES)
        ads = [adjoint(table, i) for i in range(8)]
    elif args.algebra == "g12":
        table = structure_table(equivalence_basis(), Y_NAMES)
        ads = []
    else:
        table = structure_table(principal_basis(), V_NAMES)
        ads = []

    if args.format == "json":
        obj = {"algebra": args.algebra, "structure": table.to_json_dict()}
        if ads:
            obj["adjoint"] = [a.to_json_dict() for a in ads]
        _emit(_json(obj), args)
    else:
        parts = [f"## commutators ({args.algebra})", "", table.to_markdown()]
        for a in ads:
            parts += ["", a.to_markdown()]
        _emit("\n".join(parts) + "\n", args)
    return 0


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = run_suites(names, seed=args.seed, tol=args.tol,
                         points=args.points)
    text = (render_json(reports) if args.format == "json"
            else render_markdown(reports))
    _emit(text, args)
    for rep in reports:
        print(f"{rep.suite}: {rep.status} in {rep.wall_time:.2f}s",
              file=sys.stderr)
    return 0 if overall_status(reports) != "fail" else 1


def cmd_reduce(args) -> int:
    try:
        coeffs = [float(v) for v in args.coeffs.replace(";", ",").split(",")]
    except ValueError:
        print(f"error: could not read coefficients from {args.coeffs!r}",
              file=sys.stderr)
        return 2
    if not all(math.isfinite(c) for c in coeffs):
        print(f"error: coefficients must be finite numbers, got {args.coeffs!r}",
              file=sys.stderr)
        return 2
    trace = reduce_to_optimal(coeffs)
    dev = replay_deviation(trace)
    if args.format == "json":
        obj = {
            "input": list(trace.initial),
            "steps": [{"kind": st.kind, "generator": st.generator,
                       "value": st.value, "note": st.note}
                      for st in trace.steps],
            "final": list(trace.final),
            "pattern": trace.pattern,
            "sign": trace.sign,
            "parameters": dict(sorted(trace.parameters.items())),
            "replay_deviation": dev,
        }
        _emit(_json(obj), args)
    else:
        _emit(trace.describe()
              + f"\nreplay deviation (recomputed adjoints): {dev:.2e}\n", args)
    return 0 if dev < 1e-9 else 1


def cmd_check_symmetry(args) -> int:
    parts = args.vf.split(";")
    if len(parts) != 4:
        print("error: --vf needs four semicolon-separated coefficients",
              file=sys.stderr)
        return 2
    field = vf(E4, x=parts[0], y=parts[1], z=parts[2], u=parts[3])
    chk = check_symmetry(field, parse(args.f), n=args.points, tol=args.tol,
                         seed=args.seed)
    obj = {
        "f": args.f,
        "field": args.vf,
        "verdict": "pass" if chk.passed else "fail",
        "max_residual": chk.max_residual,
        "n_points": chk.n_points,
        "tol": chk.tol,
        "witness": None if chk.passed else chk.witness,
    }
    if args.format == "json":
        _emit(_json(obj), args)
    else:
        lines = [f"verdict: {obj['verdict']}",
                 f"max residual {chk.max_residual:.2e} over "
                 f"{chk.n_points} on-variety points (tol {chk.tol:g})"]
        if not chk.passed and chk.witness:
            worst = ", ".join(f"{k}={v:.4g}"
                              for k, v in sorted(chk.witness.items()))
            lines.append(f"witness: {worst}")
        _emit("\n".join(lines) + "\n", args)
    return 0 if chk.passed else 1


def _parse_profile(text: str):
    if text.startswith("fixture:"):
        vals = [Fraction(v) for v in text[len("fixture:"):].split(",")]
        if len(vals) == 3:
            return tian_base(*vals, with_bump=False), None
        if len(vals) == 4:
            inner = {"W": OpaqueBinding.from_expr(("a", "b", "c"),
                                                  parse(W_BODY))}
            return tian_base(*vals), inner
        raise ExprError("fixture takes T1,T2,T3 and an optional EPS")
    return parse(text), None


def cmd_transform(args) -> int:
    values = {}
    for spec in args.param:
        name, _, val = spec.partition("=")
        if not val:
            print(f"error: --param needs NAME=VALUE, got {spec!r}",
                  file=sys.stderr)
            return 2
        values[name] = Fraction(val)
    u_expr, inner = _parse_profile(args.u)
    out = apply_case(args.case, args.t, u_expr, values=values, inner=inner,
                     n_points=args.points, tol=args.tol, seed=args.seed)
    if args.format == "json":
        obj = {
            "case": out.case_id,
            "t": out.t,
            "weight_rate": str(out.weight_rate),
            "s2_factor": out.s2_factor,
            "max_residual": out.max_residual,
            "n_points": out.n_points,
            "tol": out.tol,
            "verdict": "pass" if out.passed else "fail",
            "transformed": out.transformed_text,
            "preimage": list(out.preimage),
            "scale": out.scale,
            "linear": list(out.linear),
            "shift": out.shift,
            "notes": list(out.notes),
        }
        _emit(_json(obj), args)
    else:
        lines = [
            f"case {out.case_id} at t = {out.t:g}",
            f"transformed solution: {out.transformed_text}",
            f"S2 scales by exp({out.weight_rate}*t) = {out.s2_factor:.12g}",
            f"verdict: {'pass' if out.passed else 'fail'} "
            f"(max residual {out.max_residual:.2e} over {out.n_points} "
            f"points, tol {out.tol:g})",
        ]
        lines += [f"note: {n}" for n in out.notes]
        _emit("\n".join(lines) + "\n", args)
    return 0 if out.passed else 1


def cmd_invariants(args) -> int:
    from .report import run_suite

    rep = run_suite("invariants", seed=args.seed)
    records = rep.records
    if args.label != "all":
        records = tuple(r for r in rep.records
                        if r.check_id == f"invariants[{args.label}]")
        if not records:
            known = ", ".join(r.check_id[len("invariants["):-1]
                              for r in rep.records)
            print(f"error: no invariant dataset {args.label!r} "
                  f"(known: {known})", file=sys.stderr)
            return 2
    from .report import SuiteReport

    view = SuiteReport(rep.suite, rep.seed, records, rep.wall_time)
    text = (render_json(view) if args.format == "json"
            else render_markdown(view))
    _emit(text, args)
    return 0 if view.status != "fail" else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExprError, ReductionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
