"""Kernel mutants: each breaks one rule of the canonical form in a fresh
process, and the report must see it.

A mutant replaces one line of one function of ``hessym.normalize`` and
redefines the function in the module, so every caller inside the module
runs the broken rule."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hessym
from hessym.report import SUITE_NAMES

# (function, the line as written, the broken line)
MUTANTS = {
    # the sum of two fractions over one denominator forgets the second
    "fadd-drops-n2": ("_fadd", "        return _padd(n1, n2), d1",
                      "        return n1, d1"),
    # a coefficient of magnitude at most 1 made by adding two terms is lost
    "padd-drops-small-sums": ("_padd", "        s = c if s is None else s + c",
                              "        s = c if s is None else s + c if abs(s + c) > 1 else 0"),
    # sqrt(P)^2 becomes P + 1
    "fold-sqrt-off-by-one": ("_fold_sqrt", "_ppow(root, k // 2)",
                             "_ppow(_padd(root, _PONE), k // 2)"),
}

RUN = """
import importlib, inspect, sys
nz = importlib.import_module("hessym.normalize")
func, old, new = sys.argv[1:4]
src = inspect.getsource(getattr(nz, func))
if src.count(old) != 1:
    sys.exit(f"{func} does not hold the line {old!r} once")  # exit status 1
exec(src.replace(old, new), nz.__dict__)
from hessym.cli import main
sys.exit(main(sys.argv[4:]))
"""


def _run_mutant(name: str, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(hessym.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", RUN, *MUTANTS[name], *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["fadd-drops-n2", "padd-drops-small-sums"])
def test_arithmetic_mutant_fails_verify_all(name):
    out = _run_mutant(name, "verify", "all", "--format", "json")
    assert out.returncode == 1, out.stderr
    report = json.loads(out.stdout)
    assert report["status"] == "fail"
    assert tuple(s["suite"] for s in report["suites"]) == SUITE_NAMES


def test_sqrt_fold_mutant_fails_the_sqrt_rows():
    out = _run_mutant("fold-sqrt-off-by-one", "verify", "classification", "--format", "json")
    assert out.returncode == 1, out.stderr
    failed = {r["id"] for r in json.loads(out.stdout)["checks"] if r["status"] == "fail"}
    assert failed == {"row[A7]", "row[A9b]"}
