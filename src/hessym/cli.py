"""Command-line interface: tables, verification suites, reductions,
symmetry checks, transforms, and invariants.

Exit status is 1 iff a non-flagged check failed, and 2 when an input
could not be parsed or the output could not be written.  All randomized
commands take --seed and default to the package-wide seed, so repeated
runs emit byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import flows, jets, optimal, report
from .catalog import (
    SUITE_NAMES,
    V_NAMES,
    Y_NAMES,
    check_status,
    equivalence_basis,
    principal_basis,
    reduced_adjoints,
    reduced_table,
)
from .expr import ExprError
from .fields import E4, structure_table, vf
from .normalize import DEFAULT_SEED
from .parse import parse

__all__ = ["main", "build_parser"]


class OutputError(Exception):
    """The --out file could not be written."""


def _positive_int(text: str) -> int:
    """--points: a draw count of at least 1, so that no check passes
    vacuously on zero points."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _finite_float(text: str) -> float:
    """--t: a finite group parameter; inf and NaN name no group element."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _positive_float(text: str) -> float:
    """--tol: a finite positive tolerance; inf would pass any residual."""
    x = _finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hessym",
        description="verification toolkit for the symmetry analysis of "
                    "S2[u] = f(x, y, z)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *options, points_default=None, tol_default=None):
        # --format and --out, and of --seed, --tol and --points the ones
        # named in ``options``: a command takes only what it uses
        sp.add_argument("--format", choices=("md", "json"), default="md")
        if "seed" in options:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if "tol" in options:
            sp.add_argument("--tol", type=_positive_float, default=tol_default)
        if "points" in options:
            sp.add_argument("--points", type=_positive_int, default=points_default)
        sp.add_argument("--out", type=Path, default=None)

    sp = sub.add_parser("tables", help="print a commutator table "
                        "(g8 also gets the adjoint matrices)")
    sp.add_argument("algebra", choices=("g8", "g12", "principal"))
    common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=("all",) + SUITE_NAMES)
    common(sp, "seed", "tol", "points")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reduce", help="reduce an algebra element to its "
                        "normal form (8 comma-separated coefficients over "
                        "Z1..Z8)")
    sp.add_argument("coeffs")
    common(sp, "seed", "tol")  # reduce draws nothing, but scripts pass --seed
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("check-symmetry", help="test whether a vector field "
                        "is a symmetry for a given right-hand side")
    sp.add_argument("--f", required=True, metavar="EXPR",
                    help="right-hand side f(x, y, z)")
    sp.add_argument("--vf", required=True, metavar="XI;ZETA;ETA;PHI",
                    help="the four coefficients of the field, "
                    "semicolon-separated")
    common(sp, "seed", "tol", "points", points_default=100, tol_default=1e-8)
    sp.set_defaults(func=cmd_check_symmetry)

    sp = sub.add_parser("transform", help="apply one of the fifteen "
                        "one-parameter transforms to a solution")
    sp.add_argument("--case", type=int, required=True, choices=range(1, 16),
                    metavar="1..15")
    sp.add_argument("--t", type=_finite_float, required=True,
                    help="group parameter")
    sp.add_argument("--u", required=True, metavar="EXPR|fixture:T1,T2,T3[,EPS]",
                    help="solution profile; the fixture form is the "
                    "quadratic base, with a corrugation when EPS is given")
    sp.add_argument("--param", action="append", default=[],
                    metavar="NAME=VALUE", help="case parameter (repeatable)")
    common(sp, "seed", "tol", "points", points_default=40, tol_default=1e-7)
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("invariants", help="verify the stated invariants "
                        "of a reduced representative")
    sp.add_argument("label", nargs="?", default="all",
                    help="dataset label (default: all)")
    common(sp, "seed")
    sp.set_defaults(func=cmd_invariants)

    return p


def _emit(text: str, args) -> None:
    if args.out is not None:
        try:
            args.out.write_text(text)
        except OSError as exc:
            raise OutputError(f"could not write {str(args.out)!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_tables(args) -> int:
    if args.algebra == "g8":
        table = reduced_table()
        ads = reduced_adjoints()
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
    # a single suite refuses an option it does not read; verify all skips it
    options = {"seed": args.seed, "tol": args.tol, "points": args.points}
    reports = (report.run_suites(SUITE_NAMES, **options) if args.suite == "all"
               else (report.run_suite(args.suite, **options),))
    text = (report.render_json(reports) if args.format == "json"
            else report.render_markdown(reports))
    _emit(text, args)
    for rep in reports:
        print(f"{rep.suite}: {rep.status} in {rep.wall_time:.2f}s",
              file=sys.stderr)
    return 0 if all(rep.passed for rep in reports) else 1


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
    trace = optimal.reduce_to_optimal(coeffs)
    chk = optimal.replay_check(trace, 1e-9 if args.tol is None else args.tol)
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
            "replay_deviation": chk.max_residual,
        }
        _emit(_json(obj), args)
    else:
        _emit(trace.describe()
              + f"\nreplay deviation (recomputed adjoints): {chk.max_residual:.2e}\n", args)
    return 0 if chk.passed else 1


def cmd_check_symmetry(args) -> int:
    parts = args.vf.split(";")
    if len(parts) != 4:
        print("error: --vf needs four semicolon-separated coefficients",
              file=sys.stderr)
        return 2
    field = vf(E4, x=parts[0], y=parts[1], z=parts[2], u=parts[3])
    chk = jets.check_symmetry(field, parse(args.f), n=args.points,
                              tol=args.tol, seed=args.seed)
    obj = {
        "f": args.f,
        "field": args.vf,
        "verdict": check_status(chk.passed),
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


def _fraction(text: str, what: str) -> Fraction:
    """An exact rational from the command line; 1/0 is malformed input."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ExprError(f"{what} must be a rational number, got {text!r}") from None


def _parse_profile(text: str):
    if text.startswith("fixture:"):
        vals = [_fraction(v, "a fixture value")
                for v in text[len("fixture:"):].split(",")]
        if len(vals) == 3:
            return flows.tian_base(*vals, with_bump=False), None
        if len(vals) == 4:
            if vals[3] == 0:  # the corrugation is eps^5*W(x/eps^2, ...)
                raise ExprError(f"the fixture's EPS must be nonzero, got {vals[3]}")
            return flows.tian_base(*vals), flows._bindings()
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
        values[name] = _fraction(val, f"--param {name}")
    u_expr, inner = _parse_profile(args.u)
    out = flows.apply_case(args.case, args.t, u_expr, values=values,
                           inner=inner, n_points=args.points, tol=args.tol,
                           seed=args.seed)
    chk = out.check
    if args.format == "json":
        obj = {
            "case": out.case_id,
            "t": out.t,
            "weight_rate": str(out.weight_rate),
            "s2_factor": out.s2_factor,
            "max_residual": chk.max_residual,
            "n_points": chk.n_points,
            "tol": chk.tol,
            "verdict": check_status(chk.passed),
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
            f"verdict: {check_status(chk.passed)} "
            f"(max residual {chk.max_residual:.2e} over {chk.n_points} "
            f"points, tol {chk.tol:g})",
        ]
        lines += [f"note: {n}" for n in out.notes]
        _emit("\n".join(lines) + "\n", args)
    return 0 if chk.passed else 1


def cmd_invariants(args) -> int:
    rep = report.run_suite("invariants", seed=args.seed)
    records = rep.records
    if args.label != "all":
        records = tuple(r for r in rep.records if r.check_id in
                        (f"invariants[{args.label}]", "suite-error[invariants]"))
        if not records:
            known = ", ".join(r.check_id[len("invariants["):-1]
                              for r in rep.records)
            print(f"error: no invariant dataset {args.label!r} "
                  f"(known: {known})", file=sys.stderr)
            return 2
    view = report.SuiteReport(rep.suite, rep.seed, records, rep.wall_time)
    text = (report.render_json(view) if args.format == "json"
            else report.render_markdown(view))
    _emit(text, args)
    return 0 if view.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExprError, KeyError, OutputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a tree walk deeper than Python's stack
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
