"""Command-line interface: outputs, formats, and exit codes."""

import ast
import inspect
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import hessym
from hessym import report
from hessym.catalog import SUITE_NAMES
from hessym.cli import main
from hessym.expr import substitute, to_text
from hessym.fields import NotInSpanError
from hessym.parse import parse

from _gen import random_expr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# tables

def test_tables_principal_md(capsys):
    code, out, _ = run(capsys, "tables", "principal")
    assert code == 0
    assert "| V1 | 0 | 0 | 0 | 0 |" in out


def test_tables_g8_json(capsys):
    code, out, _ = run(capsys, "tables", "g8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["structure"]["dim"] == 8
    assert obj["structure"]["brackets"][0][3] == "-Z3"
    assert len(obj["adjoint"]) == 8
    assert obj["adjoint"][3]["images"][0] == "(cos(eps))*Z1 + (-sin(eps))*Z3"


def test_tables_g12_has_no_adjoint_block(capsys):
    code, out, _ = run(capsys, "tables", "g12", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["structure"]["dim"] == 12
    assert "adjoint" not in obj


def test_tables_unknown_algebra_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["tables", "g99"])


# ---------------------------------------------------------------------------
# verify

def test_verify_commutators_json(capsys):
    code, out, err = run(capsys, "verify", "commutators", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert len(obj["checks"]) == 66
    assert "commutators: pass" in err


def test_verify_writes_deterministic_file(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "verify", "optimal", "--points", "200",
               "--format", "json", "--out", str(a))[0] == 0
    assert run(capsys, "verify", "optimal", "--points", "200",
               "--format", "json", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_flagged_suite_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "equivalence")
    assert code == 0
    assert "FLAGGED" in out


# ---------------------------------------------------------------------------
# reduce

def test_reduce_pretty(capsys):
    code, out, _ = run(capsys, "reduce", "0,0,0,0,0,0,1,0")
    assert code == 0
    assert "pattern A1" in out
    assert "replay deviation" in out


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "0,0,0,0.5,-0.2,0.7,2,1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pattern"] == "A11"
    assert obj["parameters"]["a"] == pytest.approx(0.5)
    assert obj["parameters"]["b"] == pytest.approx(math.sqrt(0.53))
    assert obj["replay_deviation"] < 1e-9
    assert all({"kind", "generator", "value", "note"} <= set(st)
               for st in obj["steps"])


# `reduce --format json` as recorded before the reduction loop moved from
# numpy scalars to plain floats, one vector per branch of the tree: a8 != 0,
# a8 = 0 with a5 != 0 (through a reflection, hence the -0.0), and a8 = a5 = 0
# with a4 and a6 nonzero.  Only replay_deviation has changed since: the
# replay sums each row left to right, which reproduces these finals exactly
REDUCE_GOLDEN = {
    "0.3,-1.2,0.5,0.7,0.1,-0.4,0.9,1.5":
        '{"final":[-1.5853939104183669e-16,1.0,-9.743471988520454e-17,'
        '-0.44199906868366556,-0.31300184762410843,0.0,0.6,1.0],'
        '"input":[0.3,-1.2,0.5,0.7,0.1,-0.4,0.9,1.5],'
        '"parameters":{"a":-0.44199906868366556,"b":-0.31300184762410843,"g":0.6},'
        '"pattern":"A12","replay_deviation":0.0,"sign":1,"steps":['
        '{"generator":null,"kind":"scale","note":"set a8 = 1","value":0.6666666666666666},'
        '{"generator":1,"kind":"adjoint","note":"kill a1","value":0.19999999999999998},'
        '{"generator":6,"kind":"adjoint","note":"kill a3","value":2.6446240487107397},'
        '{"generator":4,"kind":"adjoint","note":"kill a6","value":-2.1218655759714715},'
        '{"generator":8,"kind":"adjoint","note":"set |a2| = 1","value":0.11101652851509142}]}',
    "1.1,-0.6,0.25,0.8,-1.7,0.4,-1.3,0":
        '{"final":[5.541818665329771e-16,0.0,1.0,-0.6880209161537815,'
        '1.3076923076923075,0.0,1.0,-0.0],'
        '"input":[1.1,-0.6,0.25,0.8,-1.7,0.4,-1.3,0.0],'
        '"parameters":{"a":-0.6880209161537815,"b":1.3076923076923075},'
        '"pattern":"A10","replay_deviation":0.0,"sign":1,"steps":['
        '{"generator":null,"kind":"reflect","note":"orient a7 > 0","value":-1.0},'
        '{"generator":null,"kind":"scale","note":"set a7 = 1","value":0.7692307692307692},'
        '{"generator":1,"kind":"adjoint","note":"kill a2","value":-0.3529411764705882},'
        '{"generator":2,"kind":"adjoint","note":"kill a1","value":-0.6470588235294119},'
        '{"generator":5,"kind":"adjoint","note":"kill a6","value":0.4636476090008061},'
        '{"generator":8,"kind":"adjoint","note":"set |a3| = 1","value":1.496190031943108}]}',
    "0.9,-0.35,1.4,-0.6,0,0.75,2.2,0":
        '{"final":[1.0,0.0,0.0,-0.2727272727272727,0.0,0.3409090909090909,1.0,0.0],'
        '"input":[0.9,-0.35,1.4,-0.6,0.0,0.75,2.2,0.0],'
        '"parameters":{"a":-0.2727272727272727,"g":0.3409090909090909},'
        '"pattern":"A8","replay_deviation":0.0,"sign":1,"steps":['
        '{"generator":null,"kind":"scale","note":"set a7 = 1","value":0.45454545454545453},'
        '{"generator":1,"kind":"adjoint","note":"kill a3","value":2.3333333333333335},'
        '{"generator":3,"kind":"adjoint","note":"kill a2","value":-0.4666666666666667},'
        '{"generator":8,"kind":"adjoint","note":"set |a1| = 1","value":1.26649316130727}]}',
}


@pytest.mark.parametrize("coeffs", sorted(REDUCE_GOLDEN))
def test_reduce_json_matches_golden(capsys, coeffs):
    # float reprs round-trip, so every value is compared to the bit
    code, out, _ = run(capsys, "reduce", coeffs, "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), separators=(",", ":")) == REDUCE_GOLDEN[coeffs]


def test_reduce_zero_vector_errors(capsys):
    code, _, err = run(capsys, "reduce", "0,0,0,0,0,0,0,0")
    assert code == 2
    assert "error" in err


def test_reduce_garbage_errors(capsys):
    code, _, err = run(capsys, "reduce", "a,b,c")
    assert code == 2
    assert "could not read" in err


@pytest.mark.parametrize("coeffs", ["nan,1,1,1,1,1,1,1", "1,1,1,1,1,1,inf,1",
                                    "1,1,1,1,1,1,1,-inf"])
def test_reduce_non_finite_errors(capsys, coeffs):
    code, out, err = run(capsys, "reduce", coeffs)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("coeffs", ["0,0,0,0,0,0,1e-310,0", "0,0,0,0,0,0,0,5e-324",
                                    "1e-320,0,0,0,0,0,1e-310,0"])
def test_reduce_subnormal_scaling_is_one_error_line(capsys, coeffs):
    # 1/a7 or 1/a8 overflows: refused by name, where it printed pattern A1
    # with a NaN vector (exit 1) or a message that named no cause
    code, out, err = run(capsys, "reduce", "--format", "json", "--", coeffs)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "float range" in err


# ---------------------------------------------------------------------------
# check-symmetry

def test_check_symmetry_pass(capsys):
    code, out, _ = run(capsys, "check-symmetry",
                       "--f", "exp(2*x)*(y^2+z^2+1)", "--vf", "1;0;0;u",
                       "--points", "40")
    assert code == 0
    assert "verdict: pass" in out


def test_check_symmetry_principal_on_zero_rhs(capsys):
    code, out, _ = run(capsys, "check-symmetry", "--f", "0",
                       "--vf", "0;0;0;x", "--points", "30")
    assert code == 0


@pytest.mark.parametrize("f,field", [("sqrt(x)", "0;0;0;1"),
                                     ("ln(y)", "1;0;0;0"),
                                     ("x^(1/2)", "0;0;0;1")])
def test_check_symmetry_restricted_domain_rhs(capsys, f, field):
    # points where f is undefined are redrawn, not reported as an error
    code, out, _ = run(capsys, "check-symmetry", "--f", f, "--vf", field,
                       "--points", "30", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert obj["n_points"] == 30


def test_check_symmetry_complex_valued_field_exits_2(capsys):
    # the residual of y^(1/2)*d_x has no real value at y < 0
    code, out, err = run(capsys, "check-symmetry", "--f", "x^(1/2)",
                         "--vf", "y^(1/2);0;0;0", "--points", "30")
    assert code == 2
    assert out == ""
    assert "negative base" in err


def test_check_symmetry_fail_reports_witness(capsys):
    code, out, _ = run(capsys, "check-symmetry", "--f", "1",
                       "--vf", "x;0;0;0", "--points", "30",
                       "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "fail"
    assert obj["max_residual"] > 1e-2
    assert obj["witness"] is not None and "u_xx" in obj["witness"]


def test_check_symmetry_bad_vf_count(capsys):
    code, _, err = run(capsys, "check-symmetry", "--f", "0", "--vf", "1;0;0")
    assert code == 2
    assert "four" in err


def test_check_symmetry_parse_error_has_position(capsys):
    code, _, err = run(capsys, "check-symmetry", "--f", "exp(", "--vf",
                       "1;0;0;u")
    assert code == 2
    assert "position" in err


# ---------------------------------------------------------------------------
# transform

def test_transform_dilation_closed_form(capsys):
    code, out, _ = run(capsys, "transform", "--case", "14", "--t", "0.3",
                       "--u", "x^2 + y^2 + z^2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert obj["s2_factor"] == pytest.approx(math.exp(-1.2))
    assert "u(0.740818220682*x" in obj["transformed"]
    assert obj["notes"]


def test_transform_shift_on_quadratic_fixture(capsys):
    code, out, _ = run(capsys, "transform", "--case", "1", "--t", "1",
                       "--u", "fixture:1,1,1")
    assert code == 0
    assert "u(x, y, z) + 1" in out
    assert "exp(0*t) = 1" in out


@pytest.mark.parametrize("case, t, want", [
    ("2", "-0.3", "u(x, y, z) - 0.3*(x)"),
    ("2", "-1", "u(x, y, z) - (x)"),
    ("8", "3.141592653589793", "23.1406926328*u(-x, y, -z)"),
])
def test_transform_spells_each_sign_once(capsys, case, t, want):
    # and no unit coefficient
    code, out, _ = run(capsys, "transform", "--case", case, "--t", t,
                       "--u", "fixture:1,2,3")
    assert code == 0
    assert f"transformed solution: {want}\n" in out
    assert "1*(" not in out


def test_transform_fuzz_ends_in_an_exit_code(capsys):
    # seeded random profiles through random cases and times: each answers
    # with a verdict or one error line, never a traceback; the "--u=" form
    # takes a profile that starts with a minus
    rng = random.Random(21)
    start = time.perf_counter()
    for _ in range(50):
        u = substitute(random_expr(rng, allow_opaque=False), {"u": parse("y*z")})
        argv = ["transform", "--case", str(rng.randint(1, 15)),
                "--t", f"{rng.uniform(-2, 2):.3f}", f"--u={to_text(u)}"]
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert (out.startswith("case ") and err == "") if code < 2 else (
            out == "" and err.startswith("error: ") and err.count("\n") == 1), argv
    assert time.perf_counter() - start < 10


def test_transform_redraws_each_point_on_a_narrow_domain(capsys):
    # case 6 keeps x, and u has a value where x >= 1.5: about one draw in 8
    code, out, _ = run(capsys, "transform", "--case", "6", "--t", "0.3",
                       "--u", "sqrt(x - 1.5)*y^2 + z^2", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_transform_rotation_with_parameter(capsys):
    code, out, _ = run(capsys, "transform", "--case", "6", "--t", "0.5",
                       "--param", "g1=2", "--u", "x*y + z^2 + x^2")
    assert code == 0
    assert "note:" in out and "exp(t)" in out


def test_transform_corrugated_fixture(capsys):
    code, out, _ = run(capsys, "transform", "--case", "12", "--t", "0.4",
                       "--u", "fixture:1,-1,2,1", "--points", "15")
    assert code == 0
    assert "verdict: pass" in out


def test_transform_bad_param_spec(capsys):
    code, _, err = run(capsys, "transform", "--case", "6", "--t", "0.5",
                       "--param", "g1", "--u", "x^2")
    assert code == 2
    assert "NAME=VALUE" in err


@pytest.mark.parametrize("value", ["3", "0"])
def test_transform_rejects_a_sign_other_than_one_or_minus_one(capsys, value):
    # s is row A4's sign, s^2 = 1
    code, out, err = run(capsys, "transform", "--case", "7", "--t", "0.5",
                         "--u", "x^2", "--param", f"s={value}")
    assert (code, out) == (2, "")
    assert err == f"error: case 7: sign s must be 1 or -1, got {value}\n"


def test_transform_takes_the_negative_sign(capsys):
    code, out, _ = run(capsys, "transform", "--case", "7", "--t", "0.5",
                       "--u", "x^2", "--param", "s=-1")
    assert code == 0 and "verdict: pass" in out


def test_transform_bad_fixture_arity(capsys):
    code, _, err = run(capsys, "transform", "--case", "1", "--t", "1",
                       "--u", "fixture:1,1")
    assert code == 2
    assert "fixture" in err


@pytest.mark.parametrize("argv,message", [
    (["--case", "6", "--t", "800", "--u", "fixture:1,2,3"], "overflows"),
    (["--case", "6", "--t", "0.3", "--param", "g1=1/0", "--u", "fixture:1,2,3"],
     "--param g1"),
    (["--case", "6", "--t", "0.3", "--u", "fixture:1,2,0/0"], "fixture value"),
    # the corrugation eps^5*W(x/eps^2, ...) has no value at EPS = 0
    (["--case", "6", "--t", "0.3", "--u", "fixture:1,2,3,0"], "fixture's EPS"),
    (["--case", "6", "--t", "0.3", "--param", "g=2", "--u", "fixture:1,2,3"],
     "no parameter g"),
    # S2 of these is identically 0, but u itself has no value anywhere
    (["--case", "6", "--t", "0.3", "--u", "ln(x-x)"], "valid sample point"),
    (["--case", "6", "--t", "0.3", "--u", "exp(x)/(y-y)"], "valid sample point"),
], ids=["overflowing-t", "param-over-zero", "fixture-over-zero", "fixture-eps-zero",
        "unknown-param", "ln-of-zero", "over-zero"])
def test_transform_malformed_input_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, "transform", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _nested_poly(depth: int) -> str:
    text = "x"
    for _ in range(depth):
        text = f"(x*{text}+1)"
    return text


@pytest.mark.parametrize("argv,stage", [
    # too deep for the compiled body of the symmetry pieces
    (["check-symmetry", "--f", _nested_poly(120), "--vf", "0;0;0;1"], " to compile"),
    # deep enough that a recursive hash of the tree would run out of
    # Python's stack: the hash is not recursive, so the compile refuses it
    (["check-symmetry", "--f", _nested_poly(180), "--vf", "0;0;0;1"], " to compile"),
    (["transform", "--case", "1", "--t", "0.2", "--u", "sin(" * 250 + "x" + ")" * 250],
     " to parse"),
], ids=["check-symmetry-120", "check-symmetry-180", "transform-250"])
def test_deep_nesting_is_one_error_line(capsys, argv, stage):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: expression nested too deeply{stage}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "soon"])
def test_transform_non_finite_t_is_rejected(capsys, t):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--case", "6", f"--t={t}", "--u", "fixture:1,2,3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --t" in captured.err


def test_transform_restricted_domain_profile_redraws(capsys):
    # sqrt(x) is undefined at half the preimages of case 6, which keep x
    code, out, _ = run(capsys, "transform", "--case", "6", "--t", "0.3",
                       "--u", "sqrt(x)*y^2 + z^2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass" and obj["n_points"] == 40


# ---------------------------------------------------------------------------
# invariants

def test_invariants_single_label(capsys):
    code, out, _ = run(capsys, "invariants", "A1")
    assert code == 0
    assert "invariants[A1]" in out
    assert "no invariant involves f" in out


def test_invariants_unknown_label(capsys):
    code, _, err = run(capsys, "invariants", "A99")
    assert code == 2
    assert "A3" in err


def test_invariants_all(capsys):
    code, out, _ = run(capsys, "invariants")
    assert code == 0
    assert "invariants[A3]" in out and "invariants[A1]" in out


# ---------------------------------------------------------------------------
# options every subcommand shares

SUBCOMMANDS = {
    "tables": ["tables", "g8"],
    "verify": ["verify", "optimal"],
    "reduce": ["reduce", "0,0,0,0,0,0,1,0"],
    "check-symmetry": ["check-symmetry", "--f", "x*y", "--vf", "y;0;0;x"],
    "transform": ["transform", "--case", "1", "--t", "1", "--u", "x^2"],
    "invariants": ["invariants", "A3"],
}

# the ones of --seed, --tol and --points that each command takes
TAKES = {
    "tables": (),
    "verify": ("--seed", "--tol", "--points"),
    "reduce": ("--seed", "--tol"),
    "check-symmetry": ("--seed", "--tol", "--points"),
    "transform": ("--seed", "--tol", "--points"),
    "invariants": ("--seed",),
}


@pytest.mark.parametrize("option", [["--points", "0"], ["--points", "-3"],
                                    ["--points", "two"], ["--tol", "inf"],
                                    ["--tol", "-inf"], ["--tol", "nan"],
                                    ["--tol", "0"], ["--tol", "-1e-8"],
                                    ["--tol", "small"]])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_vacuous_or_infinite_tolerance_and_points_are_rejected(capsys, command, option):
    # zero draws or an infinite tolerance would make any check pass; a
    # command that does not take the option refuses it as unrecognized
    with pytest.raises(SystemExit) as exc:
        main(SUBCOMMANDS[command] + option)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if option[0] in TAKES[command]:
        assert f"argument {option[0]}" in captured.err
    else:
        assert f"unrecognized arguments: {' '.join(option)}" in captured.err


@pytest.mark.parametrize("command,option", [
    (command, option) for command in sorted(SUBCOMMANDS)
    for option in (["--seed", "3"], ["--tol", "1e-3"], ["--points", "5"])
    if option[0] not in TAKES[command]])
def test_options_a_command_would_ignore_are_unrecognized(capsys, command, option):
    # tables draws nothing, invariants uses no tolerance or point count,
    # and reduce no point count: a well-formed value is refused too,
    # rather than accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(SUBCOMMANDS[command] + option)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err


# the ones of --tol and --points that each suite of verify reads; every
# suite takes --seed
SUITE_READS = {
    "commutators": (), "adjoint": ("--tol",), "optimal": ("--tol", "--points"),
    "determining": ("--tol", "--points"), "equivalence": (),
    "classification": ("--tol", "--points"), "invariants": (),
    "flows": ("--tol", "--points"),
}


@pytest.mark.parametrize("suite,option", [
    (suite, option) for suite in SUITE_READS
    for option in (["--tol", "1e-3"], ["--points", "5"])
    if option[0] not in SUITE_READS[suite]])
def test_verify_refuses_an_option_the_suite_does_not_read(capsys, suite, option):
    code, out, err = run(capsys, "verify", suite, *option)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: the {suite} suite does not read {option[0][2:]}"]


def _stub_suites(received):
    """Stand-ins for the suites of verify, each with the parameters of the
    real one, noting the options it was given."""
    def note(name, **given):
        received[name] = {k: v for k, v in given.items() if v is not None}
        return report.SuiteReport(name, given["seed"], ())

    kinds = {
        (): lambda name: lambda seed: note(name, seed=seed),
        ("--tol",): lambda name: lambda seed, tol=None: note(name, seed=seed, tol=tol),
        ("--tol", "--points"): lambda name: lambda seed, tol=None, points=None: note(
            name, seed=seed, tol=tol, points=points),
    }
    return {name: kinds[reads](name) for name, reads in SUITE_READS.items()}


def test_each_suite_gets_only_the_options_it_reads(monkeypatch, capsys):
    for name, suite in report._SUITES.items():
        params = tuple(inspect.signature(suite).parameters)
        assert params == ("seed",) + tuple(o[2:] for o in SUITE_READS[name])
    received = {}
    monkeypatch.setattr(report, "_SUITES", _stub_suites(received))
    given = {"seed": 5, "tol": 1e-3, "points": 5}
    code, _, _ = run(capsys, "verify", "all", "--seed", "5", "--tol", "1e-3", "--points", "5")
    assert code == 0
    assert received == {name: {k: given[k] for k in ("seed",) + tuple(o[2:] for o in reads)}
                        for name, reads in SUITE_READS.items()}
    for name in SUITE_READS:
        received.clear()
        assert run(capsys, "verify", name, "--seed", "5")[0] == 0
        assert received == {name: {"seed": 5}}


def test_a_raising_suite_is_one_failed_record(monkeypatch, capsys):
    # the other suites still report, and the run exits 1, not 2
    def broken(seed):
        raise NotInSpanError("field is not in the span of basis 'equivalence'", None)

    monkeypatch.setitem(report._SUITES, "equivalence", broken)
    code, out, _ = run(capsys, "verify", "all", "--points", "4", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "fail"
    assert [rep["suite"] for rep in obj["suites"]] == list(SUITE_NAMES)
    for rep in obj["suites"]:
        if rep["suite"] == "equivalence":
            assert rep["checks"] == [{
                "id": "suite-error[equivalence]", "status": "fail", "residual": None,
                "details": "NotInSpanError: field is not in the span of basis 'equivalence'",
                "anchor": "suite:equivalence"}]
        else:
            assert rep["status"] in ("pass", "flagged") and rep["checks"]


def test_a_raising_invariants_suite_fails_a_labelled_run(monkeypatch, capsys):
    # the suite's error is the answer for any label, not an unknown label
    def broken(seed):
        raise ValueError("no invariants today")

    monkeypatch.setitem(report._SUITES, "invariants", broken)
    code, out, err = run(capsys, "invariants", "A3")
    assert code == 1 and err == ""
    assert "| suite-error[invariants] | fail |" in out


def test_verify_all_takes_tol_and_points(capsys):
    code, out, _ = run(capsys, "verify", "all", "--tol", "1e-3", "--points", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "flagged"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "x.md" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "tables", "principal", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: could not write") and str(target) in err


# ---------------------------------------------------------------------------
# import cost

def test_one_shot_commands_never_import_scipy():
    # no command loads scipy, the adjoint suite's expm oracle being plain
    # Python; this covers the one-shot commands and every suite but
    # adjoint, flows and transforms included
    src = str(Path(hessym.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import os, sys\n"
            "import hessym\n"
            "from hessym.cli import main\n"
            "commands = [\n"
            "    ['tables', 'g8'],\n"
            "    ['reduce', '1,2,3,4,5,6,7,8'],\n"
            "    ['check-symmetry', '--f', 'y^2 + z^2', '--vf', '1;0;0;0',\n"
            "     '--points', '20'],\n"
            "    ['invariants', 'A3'],\n"
            "    ['transform', '--case', '2', '--t', '0.3', '--u', 'fixture:1,2,3'],\n"
            "    ['transform', '--case', '7', '--t', '0.3', '--u', 'fixture:1,2,3'],\n"
            "    ['verify', 'flows', '--points', '4'],\n"
            "] + [['verify', s] for s in ('commutators', 'optimal', 'determining',\n"
            "                             'equivalence', 'classification', 'invariants')]\n"
            "for argv in commands:\n"
            "    assert main(argv + ['--out', os.devnull]) == 0, argv\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_command_loads_numpy_scipy_or_sympy():
    # hessym has no runtime dependency: `verify all` (which runs each of
    # the 8 suites through the same run_suites as `verify <suite>`) and
    # every one-shot command run without numpy, scipy or sympy.  Nor do
    # they load dataclasses or inspect: building dataclasses at import
    # costs every fresh process about 0.04 s
    src = str(Path(hessym.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import os, sys\n"
            "from hessym.cli import main\n"
            "commands = [\n"
            "    ['tables', 'g8'],\n"
            "    ['reduce', '1,2,3,4,5,6,7,8'],\n"
            "    ['check-symmetry', '--f', 'y^2 + z^2', '--vf', '1;0;0;0',\n"
            "     '--points', '20'],\n"
            "    ['invariants', 'A3'],\n"
            "    ['transform', '--case', '2', '--t', '0.3', '--u', 'fixture:1,2,3'],\n"
            "    ['transform', '--case', '7', '--t', '0.3', '--u', 'fixture:1,2,3'],\n"
            "    ['verify', 'all'],\n"
            "]\n"
            "for argv in commands:\n"
            "    assert main(argv + ['--out', os.devnull]) == 0, argv\n"
            "print(sorted({'numpy', 'scipy', 'sympy', 'dataclasses', 'inspect'}\n"
            "             & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# every compile_template call compiles one "<expr>" source; a fresh process
# counts those compiles, then reports which adjoint matrices compiled their
# evaluators (cached on the instance, so the first use fills them)
COMPILE_COUNT = """
import builtins, json, os, sys
compiles = [0]
real_compile = builtins.compile
def counting(source, filename, *args, **kwargs):
    compiles[0] += filename == "<expr>"
    return real_compile(source, filename, *args, **kwargs)
builtins.compile = counting
import hessym, hessym.cli
at_import = compiles[0]
from hessym.catalog import reduced_adjoints
code = hessym.cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({
    "code": code, "at_import": at_import, "run": compiles[0] - at_import,
    "applied": [m.generator + 1 for m in reduced_adjoints() if "_applied" in vars(m)],
    "dense": [m.generator + 1 for m in reduced_adjoints() if "_compiled" in vars(m)],
}))
"""


def _compiles(*argv):
    src = str(Path(hessym.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", COMPILE_COUNT, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_and_reduce_compile_only_the_generators_the_trace_uses():
    vec = "0.5,1.6,1.1,-1.1,-0.8,1.5,-2.0,1.3"
    got = _compiles("reduce", "--format", "json", vec)
    used = sorted({st.generator for st in hessym.reduce_to_optimal(
        [float(v) for v in vec.split(",")]).steps if st.kind == "adjoint"})
    assert got["code"] == 0
    assert got["at_import"] == 0
    assert got["applied"] == used and got["dense"] == []
    assert got["run"] == len(used)


def test_verify_optimal_compiles_at_most_the_eight_adjoint_evaluators():
    got = _compiles("verify", "optimal")
    assert got["code"] == 0
    assert got["at_import"] == 0
    assert got["dense"] == []
    assert got["run"] == len(got["applied"]) <= 8


def test_verify_flows_compiles_no_s2_polynomial():
    # the equivariance check evaluates its S2 polynomials directly; the
    # compiled route made 244 compiles here, 176 of them S2 polynomials
    got = _compiles("verify", "flows", "--points", "4")
    assert got["code"] == 0
    assert got["at_import"] == 0
    assert got["run"] <= 68



# the hessym modules a fresh process executed and the hessym sources it
# compiled: a lazily registered module swaps its lazy class for the plain
# module type when its body runs
EXECUTED = """
import builtins, json, os, sys, types
compiled = []
real_compile = builtins.compile
def recording(source, filename, *args, **kwargs):
    if isinstance(filename, str) and os.sep + "hessym" + os.sep in filename:
        compiled.append(os.path.basename(filename)[:-len(".py")])
    return real_compile(source, filename, *args, **kwargs)
builtins.compile = recording
import hessym
code = None
if sys.argv[1:]:
    from hessym.cli import main
    code = main(sys.argv[1:] + ["--out", os.devnull])
mods = {n[len("hessym."):]: m for n, m in sys.modules.items() if n.startswith("hessym.")}
print(json.dumps({"code": code, "registered": sorted(mods), "compiled": sorted(compiled),
                  "executed": sorted(n for n, m in mods.items()
                                     if type(m) is types.ModuleType)}))
"""

KERNEL = {"expr", "parse", "normalize", "fields", "catalog"}


def _child_env(**extra):
    src = str(Path(hessym.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _executed(*argv):
    # an empty bytecode cache, so that every module run is a module compiled
    with tempfile.TemporaryDirectory() as cache:
        env = _child_env(PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        out = subprocess.run([sys.executable, "-c", EXECUTED, *argv], env=env,
                             check=True, capture_output=True, text=True).stdout
    got = json.loads(out)
    assert got["compiled"] == sorted(["__init__"] + got["executed"])
    return got


def test_import_hessym_executes_no_submodule():
    got = _executed()
    package = Path(hessym.__file__).resolve().parent
    assert got["registered"] == sorted(
        p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "cli"))
    assert got["executed"] == []


@pytest.mark.parametrize("argv, extra", [
    (("tables", "g8"), set()),
    (("reduce", "0.5,1.6,1.1,-1.1,-0.8,1.5,-2.0,1.3"), {"optimal"}),
    (("check-symmetry", "--f", "exp(y)", "--vf", "1;0;0;0", "--points", "20"),
     {"jets"}),
    (("transform", "--case", "6", "--t", "0.3", "--u", "fixture:1,2,3"),
     {"flows", "jets"}),
    (("invariants", "A3"), {"classify", "determining", "jets", "report"}),
    (("verify", "commutators"), {"report"}),
    (("verify", "flows", "--points", "4"), {"flows", "jets", "report"}),
])
def test_each_command_executes_only_the_modules_it_uses(argv, extra):
    # a top-level from-import of an upper module in cli or report would
    # execute it, and compile its source, for every command
    got = _executed(*argv)
    assert got["code"] == 0
    assert set(got["executed"]) == KERNEL | {"cli"} | extra


@pytest.mark.parametrize("argv, code, extra", [
    (("check-symmetry", "--f", "x*y + z^2", "--vf", "1;0;0;0", "--points", "20"), 1,
     {"jets"}),
    (("transform", "--case", "6", "--t", "0.3", "--u", "fixture:1,2,3",
      "--format", "md"), 0, {"flows", "jets"}),
])
def test_the_status_rule_executes_no_module_of_its_own(argv, code, extra):
    # the CLI verdicts follow the suites' status rule, which lives in the
    # kernel: a fail verdict and the markdown one execute no report module,
    # like the pass verdicts and `tables g8` in the test above
    got = _executed(*argv)
    assert got["code"] == code
    assert set(got["executed"]) == KERNEL | {"cli"} | extra


def test_input_error_executes_no_upper_module():
    # the field fails to parse before check_symmetry is reached, so only
    # main's error handler runs on top of the kernel
    got = _executed("check-symmetry", "--f", "y", "--vf", "y^;0;0;0")
    assert got["code"] == 2
    assert set(got["executed"]) == KERNEL | {"cli"}


# perfbench/tracer.py wraps the public functions of every hessym module
# after `import hessym.cli`; lazy modules must still load for it
TRACED = [
    (("tables", "g8", "--format", "json"), {"cli.main", "fields.structure_table",
                                            "fields.adjoint"}),
    (("reduce", "0.5,1.6,1.1,-1.1,-0.8,1.5,-2.0,1.3"),
     {"cli.main", "optimal.reduce_to_optimal", "optimal.replay"}),
    (("verify", "commutators"), {"cli.main", "report.suite.commutators",
                                 "report.render"}),
]


@pytest.mark.parametrize("argv, spans", TRACED)
def test_traced_run_matches_the_untraced_one(tmp_path, argv, spans):
    root = Path(__file__).resolve().parents[1]
    env = _child_env()
    out_path = tmp_path / "trace.json"
    plain = subprocess.run(
        [sys.executable, "-c", "import sys; from hessym.cli import main; sys.exit(main())",
         *argv], env=env, capture_output=True)
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(out_path), *argv],
        env=env, capture_output=True)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    assert spans <= set(json.loads(out_path.read_text())["stats"])


def test_run_as_module_warns_nothing():
    # runpy warns when the module it is to run is in sys.modules already
    out = subprocess.run([sys.executable, "-m", "hessym.cli", "tables", "g8"],
                         env=_child_env(), capture_output=True, text=True)
    assert out.returncode == 0
    assert "## commutators (g8)" in out.stdout
    assert out.stderr == ""


def test_reports_do_not_depend_on_the_hash_seed():
    # string hashing changes with PYTHONHASHSEED, so the iteration order of
    # a set or of a table built from one must not reach a report
    argv = ["verify", "all", "--seed", "7", "--points", "4", "--format", "json"]
    outs = [subprocess.run([sys.executable, "-m", "hessym.cli", *argv],
                           env=_child_env(PYTHONHASHSEED=seed), capture_output=True,
                           check=True).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["status"] == "flagged"


def test_src_imports_only_the_standard_library():
    # the fresh-process test sees only the imports its commands reach; this
    # one reads every import statement, function-local ones included
    bad = []
    for path in sorted(Path(hessym.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one (hessym itself)
            bad += [f"{path.name}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names
                    and name.split(".")[0] != "hessym"]
    assert bad == []


def _defined_or_imported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _listed_exports(tree: ast.Module) -> list[str]:
    """The names that a module's ``__all__`` spells out.  The package's
    also unpacks ``_EXPORTS``, whose names the ``_HOMES`` checks cover."""
    return [elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts if isinstance(elt, ast.Constant)]


def test_every_export_is_defined_or_imported():
    # a walker deleted from a module but left in its __all__ would pass
    # every test that never star-imports the module.  The package serves
    # its names from the _HOMES table, so there a name counts as defined
    # when its home module defines or imports it
    package = Path(hessym.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.rglob("*.py"))}
    homes = next(ast.literal_eval(node.value) for node in trees["__init__.py"].body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_HOMES"
                         for t in node.targets))
    bad = [f"__init__.py: {name} (home {home})" for home, names in homes.items()
           for name in names if name not in _defined_or_imported(trees[f"{home}.py"])]
    served = {name for names in homes.values() for name in names}
    for filename, tree in trees.items():
        exports = _listed_exports(tree)
        known = _defined_or_imported(tree)
        if filename == "__init__.py":
            known |= served
        bad += [f"{filename}: {name}" for name in exports if name not in known]
    assert bad == []


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used where the module reads it or lists it in its
    # __all__ (the package's re-exports); __future__ imports change syntax
    package = Path(hessym.__file__).resolve().parent
    paths = sorted(package.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    bad = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_listed_exports(tree))
        bad += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert bad == []


def test_only_compile_template_compiles_source():
    # one numeric evaluator: the builtins compile and exec are called in
    # expr.compile_template and nowhere else in hessym
    package = Path(hessym.__file__).resolve().parent
    calls = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(n): d.name for d in defs for n in ast.walk(d)}  # innermost wins
        calls += [f"{path.stem}.{inside.get(id(node))}: {node.func.id}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("compile", "exec")]
    assert sorted(calls) == ["expr.compile_template: compile", "expr.compile_template: exec"]


# the hand-written Ad(exp(eps*Z_gen)) that hessym.optimal once ran beside
# the printed table: the lint below must flag it
HAND_WRITTEN_ADJOINT = """
def _published_adjoint(gen: int, a: tuple[float, ...], eps: float) -> tuple[float, ...]:
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    if gen == 1:
        out = (a1 - eps * a8, a2 + eps * a5, a3 + eps * a4, a4, a5, a6, a7, a8)
    elif gen == 2:
        out = (a1 - eps * a5, a2 - eps * a8, a3 + eps * a6, a4, a5, a6, a7, a8)
    elif gen == 3:
        out = (a1 - eps * a4, a2 - eps * a6, a3 - eps * a8, a4, a5, a6, a7, a8)
    elif gen == 4:
        c, s = math.cos(eps), math.sin(eps)
        out = (a1 * c + a3 * s, a2, -a1 * s + a3 * c,
               a4, a5 * c - a6 * s, a5 * s + a6 * c, a7, a8)
    elif gen == 5:
        c, s = math.cos(eps), math.sin(eps)
        out = (a1 * c + a2 * s, -a1 * s + a2 * c, a3,
               a4 * c + a6 * s, a5, -a4 * s + a6 * c, a7, a8)
    elif gen == 6:
        c, s = math.cos(eps), math.sin(eps)
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
"""


def _closed_forms_outside_the_entry_table(tree: ast.AST) -> list[str]:
    """Each math.cos, math.sin or math.exp, read as an attribute or
    imported by name, outside the assignment of ``_ENTRY_FORMS``."""
    forms = {"cos", "sin", "exp"}
    table = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "_ENTRY_FORMS" for t in node.targets)
             for n in ast.walk(node)}
    found = [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in forms
             and getattr(node.value, "id", None) == "math" and id(node) not in table]
    found += [f"{node.lineno}: from math import {a.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "math"
              for a in node.names if a.name in forms | {"*"}]
    return found


def test_the_closed_form_lint_flags_a_hand_written_adjoint():
    assert _closed_forms_outside_the_entry_table(ast.parse(HAND_WRITTEN_ADJOINT)) == [
        f"{line}: math.{form}" for line in (11, 15, 19) for form in ("cos", "sin")
    ] + ["25: math.exp"]
    assert _closed_forms_outside_the_entry_table(ast.parse("from math import sin")) == [
        "1: from math import sin"]


def test_the_reduction_evaluates_closed_forms_only_in_the_entry_table():
    # one printed adjoint route: hessym.optimal reads Ad(exp(eps*Z_gen)) from
    # catalog.PUBLISHED_ADJOINT through its closed table of entry forms, so
    # cos, sin and exp appear nowhere else there
    tree = ast.parse((Path(hessym.__file__).resolve().parent / "optimal.py").read_text())
    assert _closed_forms_outside_the_entry_table(tree) == []


# private functions that no hessym module reads, each with why it stays
UNREAD_PRIVATE_FUNCTIONS = {
    "normalize._sympy_cancel": "read by perfbench/tracer.py, ROADMAP item 10",
}


def test_every_private_function_has_a_reader():
    # a private module-level function is read by name or as an attribute
    # somewhere in hessym, outside its own body, or it is dead code.  One
    # walk of each module collects every name read with the private
    # definition it sits in (None outside any)
    package = Path(hessym.__file__).resolve().parent
    defs = set()
    readers: dict[str, set] = {}
    for path in sorted(package.rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                owner = (path.stem, stmt.name)
                defs.add(owner)
            for n in ast.walk(stmt):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name is not None:
                    readers.setdefault(name, set()).add(owner)
    unread = {f"{module}.{name}" for module, name in defs
              if not readers.get(name, set()) - {(module, name)}}
    assert unread == set(UNREAD_PRIVATE_FUNCTIONS)


# what yields each catalog record: its accessors and the tables behind
# them; a CaseSpec's ``row`` property yields its ClassificationRow
RECORD_SOURCES = {
    "classification_rows": "ClassificationRow", "row_by_id": "ClassificationRow",
    "_ROWS": "ClassificationRow", "flow_cases": "CaseSpec", "case_by_id": "CaseSpec",
    "_CASES": "CaseSpec", "invariant_datasets": "InvariantDataset",
    "_INVARIANTS": "InvariantDataset",
}


def _record_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(record, attribute) of each attribute read on a value the AST shows
    to hold a catalog record: ``self`` in the record's methods, a parameter
    annotated with it, and a name bound by ``for`` or ``=`` to one of
    ``RECORD_SOURCES`` or to a case's ``row``.  A read of the same name on
    any other value, a ReductionTrace's ``pattern`` say, does not count."""
    reads = set()
    units = [(m, stmt.name) for stmt in tree.body if isinstance(stmt, ast.ClassDef)
             for m in stmt.body if isinstance(m, ast.FunctionDef)]
    units += [(stmt, None) for stmt in tree.body if not isinstance(stmt, ast.ClassDef)]
    for unit, owner in units:
        args = unit.args.args if isinstance(unit, ast.FunctionDef) else []
        scope = {arg.arg: word for arg in args if arg.annotation
                 for word in ast.unparse(arg.annotation).split()
                 if word in RECORD_SOURCES.values()}
        if owner is not None and args:
            scope[args[0].arg] = owner

        def record_of(node):
            node = node.func if isinstance(node, ast.Call) else node
            if isinstance(node, ast.Name):
                return scope.get(node.id) or RECORD_SOURCES.get(node.id)
            if isinstance(node, ast.Attribute) and node.attr == "row":
                return "ClassificationRow" if record_of(node.value) == "CaseSpec" else None
            return None

        for _ in range(2):  # a binding may read a name bound later in the walk
            for node in ast.walk(unit):
                if isinstance(node, (ast.For, ast.comprehension)):
                    target, value = node.target, node.iter
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                else:
                    continue
                if isinstance(target, ast.Name) and record_of(value):
                    scope[target.id] = record_of(value)
        reads |= {(record_of(node.value), node.attr) for node in ast.walk(unit)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and record_of(node.value)}
    return reads


def test_the_record_field_lint_tells_a_row_from_other_values():
    tree = ast.parse("def f(row: ClassificationRow, trace):\n"
                     "    return row.row_id, trace.pattern, row.pattern_of()\n"
                     "def g(case: CaseSpec | int):\n"
                     "    for r in classification_rows():\n"
                     "        r.f_text\n"
                     "    return case.row.constraint\n")
    assert _record_reads(tree) == {
        ("ClassificationRow", "row_id"), ("ClassificationRow", "pattern_of"),
        ("ClassificationRow", "f_text"), ("CaseSpec", "row"),
        ("ClassificationRow", "constraint")}


def test_every_catalog_record_field_has_a_reader():
    # a field of a catalog record that nothing in hessym reads is a dead
    # transcription: the column can go, or its reader is missing
    from hessym import catalog

    package = Path(hessym.__file__).resolve().parent
    reads = set().union(*(_record_reads(ast.parse(path.read_text()))
                          for path in sorted(package.rglob("*.py"))))
    fields = {(record, name) for record in set(RECORD_SOURCES.values())
              for name in getattr(catalog, record)._fields}
    assert fields - reads == set()


def _literal_field_calls(tree: ast.AST) -> list[str]:
    """Each call of ``vf`` or ``fields.vf`` that passes a string literal
    as a coefficient: a printed field written out."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "vf" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str)
                    for kw in node.keywords if kw.arg != "params")]


def test_the_printed_field_lint_flags_a_literal_coefficient():
    tree = ast.parse("v = fields.vf(E4, params=('g1',), y='g1*z')\n"
                     "w = vf(E4, params=names, **table)\n"
                     "p = vf(E4, x=parts[0], u=parts[3])\n")
    assert _literal_field_calls(tree) == ["1: fields.vf(E4, params=('g1',), y='g1*z')"]


def test_printed_fields_are_written_only_in_the_catalog():
    # one transcription of each printed field: a field with a literal
    # coefficient lives in catalog.py.  The CLI's user input and
    # determining's generated candidate are not literals
    package = Path(hessym.__file__).resolve().parent
    found = {path.name: _literal_field_calls(ast.parse(path.read_text()))
             for path in sorted(package.rglob("*.py"))}
    assert found.pop("catalog.py")
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_every_draw_is_a_call_of_random():
    # Python keeps the stream of a seed stable for seed() and random()
    # alone, so hessym calls no other method of random.Random: every draw
    # goes through normalize.py's sampler helpers, which call random()
    methods = {name for name in dir(random.Random) if not name.startswith("_")} - {"random"}
    package = Path(hessym.__file__).resolve().parent
    bad = [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
           for path in sorted(package.rglob("*.py"))
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and node.func.attr in methods]
    assert bad == []


# the orderings of a value against a tolerance outside the one rule,
# SymmetryCheck.passed, by enclosing definition, each with why it stays
TOLERANCE_COMPARISONS = {
    "normalize.is_zero": "the per-point early exit: the first sampled point past tol "
                         "is the NonZero witness, so sampling stops there",
    "classify.numeric_rank": "_RANK_TOL is the elimination's pivot threshold: it "
                             "decides a rank, not whether a residual passes",
}


def _tolerance_comparisons(tree: ast.AST) -> list[tuple[str, int, str]]:
    """(dotted name of the enclosing definitions, line, text) of each <, <=,
    > or >= with a tolerance on either side: a name or attribute called
    ``tol`` or ending in ``_TOL``."""
    def is_tol(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name is not None and (name == "tol" or name.endswith("_TOL"))

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Compare)
                    and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                            for op in child.ops)
                    and any(is_tol(n) for side in (child.left, *child.comparators)
                            for n in ast.walk(side))):
                found.append((".".join(scope), child.lineno, ast.unparse(child)))
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("line,flagged", [
    ("ok = not mismatches and dev <= tol", True),
    ("ok = failures == 0 and worst < tol", True),
    ("return 0 if dev < (1e-9 if args.tol is None else args.tol) else 1", True),
    ("stop = p <= _RANK_TOL", True),
    ("ok = abs(v) <= cut", False),
    ("ok = SymmetryCheck(dev, 3, tol).passed", False),
])
def test_tolerance_comparisons_are_found(line, flagged):
    assert bool(_tolerance_comparisons(ast.parse(line))) == flagged


def test_one_rule_judges_a_value_against_its_tolerance():
    # SymmetryCheck.passed (max_residual <= tol) is the rule; any other
    # ordering against a tolerance in hessym is a second rule, unless listed
    package = Path(hessym.__file__).resolve().parent
    sites: dict[str, list[tuple[str, str]]] = {}
    for path in sorted(package.rglob("*.py")):
        for scope, line, text in _tolerance_comparisons(ast.parse(path.read_text())):
            sites.setdefault(f"{path.stem}.{scope}", []).append((f"{path.name}:{line}", text))
    rule = sites.pop("normalize.SymmetryCheck.passed")
    assert [text for _, text in rule] == ["self.max_residual <= self.tol"]
    assert {k: v for k, v in sites.items() if k not in TOLERANCE_COMPARISONS} == {}
    assert {k: len(v) for k, v in sites.items()} == dict.fromkeys(TOLERANCE_COMPARISONS, 1)


def test_package_serves_each_export_from_its_home_module():
    namespace: dict = {}
    exec("from hessym import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hessym.__all__)
    assert set(hessym._EXPORTS) == set(hessym.__all__) - {"__version__"}
    assert len(hessym._EXPORTS) == sum(map(len, hessym._HOMES.values()))  # one home each
    for name, home in hessym._EXPORTS.items():
        assert namespace[name] is getattr(sys.modules[f"hessym.{home}"], name), name
    assert set(hessym.__all__) <= set(dir(hessym))
    # the functions, not the modules of the same name
    assert callable(hessym.normalize) and callable(hessym.parse)


def test_unknown_package_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'hessym' has no attribute 'nope'"):
        hessym.nope  # noqa: B018
