"""Command-line interface: outputs, formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hessym
from hessym.cli import main


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
# with a4 and a6 nonzero
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
        '"pattern":"A10","replay_deviation":1.4420234035736994e-16,"sign":1,"steps":['
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
        '"pattern":"A8","replay_deviation":2.3875763970433477e-17,"sign":1,"steps":['
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


def test_transform_bad_fixture_arity(capsys):
    code, _, err = run(capsys, "transform", "--case", "1", "--t", "1",
                       "--u", "fixture:1,1")
    assert code == 2
    assert "fixture" in err


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
# import cost

def test_one_shot_commands_never_import_scipy():
    # scipy serves only the adjoint suite's expm oracle; every other
    # command, flows and transforms included, runs in a process that
    # never loads it
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


def test_no_command_loads_scipy_or_sympy():
    # numpy is the only runtime dependency: `verify all` (which runs each
    # of the 8 suites through the same run_suites as `verify <suite>`)
    # and every one-shot command run without scipy or sympy
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
            "print(sorted({'scipy', 'sympy'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
