"""Symmetry verification toolkit for the 3D sigma-2 Hessian equation.

The package recomputes a published symmetry analysis from first
principles and checks every table against the recomputation: structure
constants, adjoint actions, the optimal system of one-dimensional
subalgebras, the preliminary group classification, and the
one-parameter solution transforms.

Layering, bottom to top:

    expr / parse / normalize   exact expression kernel + zero oracles
    fields / catalog           vector fields, published bases and tables
    jets / determining         second-order prolongation machinery
    optimal                    adjoint reduction to normal forms
    classify / flows           classification rows, invariants, flows
    report / cli               check suites, rendering, entry point

Importing the package executes none of these modules: each is placed in
``sys.modules`` behind ``importlib.util.LazyLoader`` and runs on first
attribute access, and the public names below are served from their
home modules on first use (PEP 562).  A command thus executes only the
modules it touches.
"""

import importlib
import importlib.util
import sys

# the home module of each public name
_HOMES = {
    "expr": ("Expr", "ExprError"),
    "parse": ("ParseError", "parse"),
    "normalize": ("DEFAULT_SEED", "NonZero", "NumericallyZero", "ProvedZero", "SymmetryCheck",
                  "Unproved", "Verdict", "is_zero", "normalize", "print_canonical"),
    "fields": ("VectorField", "commutator", "structure_table", "adjoint", "vf"),
    "catalog": ("OPTIMAL_PATTERNS", "SUITE_NAMES", "case_by_id", "classification_rows",
                "equivalence_basis", "principal_basis", "reduced_basis",
                "row_by_id"),
    "jets": ("check_symmetry", "prolong2", "solve_uyy"),
    "determining": ("free_constants_absent", "numeric_invariance_check",
                    "residual_on_variety", "symmetry_condition"),
    "optimal": ("ReductionError", "ReductionTrace", "reduce_to_optimal", "replay"),
    "classify": ("verify_all_rows", "verify_bila_procedure", "verify_invariants",
                 "verify_principal", "verify_reflection", "verify_row"),
    "flows": ("apply_case", "tian_base", "verify_all_cases", "verify_case"),
    "report": ("SuiteReport", "overall_status", "render_json", "render_markdown",
               "run_suite", "run_suites"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}


def _register_lazy(name: str):
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# cli stays an ordinary submodule: runpy warns when `python -m hessym.cli`
# finds it in sys.modules already.  Binding each module on the package
# keeps `from . import flows` from loading it; normalize and parse keep
# the package attribute for the functions of the same name.
for _name in _HOMES:
    _module = _register_lazy(_name)
    if _name not in _EXPORTS:
        globals()[_name] = _module
del _name, _module


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())


__version__ = "0.1.0"

__all__ = ["__version__", *_EXPORTS]
