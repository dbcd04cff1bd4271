"""Traced hessym CLI invocation: records a span around every call into
the public functions of each hessym layer, then writes per-name call
counts and self times as JSON.

    python3 perfbench/tracer.py OUT.json <hessym argv...>

The spans are recorded from here, around the calls into each layer; no
hessym source is changed.  A function is wrapped by rebinding every
reference to it in the loaded ``hessym.*`` modules, because most call
sites bind it by name (``from .normalize import normalize``).  Methods
are wrapped on their class, and the callables that
``compile_evaluator`` returns are wrapped as they are made.

Self time is a span's duration minus the time its child spans cover;
per name, the tracer keeps only the call count and the summed self
time.  It also times a wrapped no-op against the bare one, so that the
caller can estimate the time the wrapping itself added.  Stdout and the
exit code are the CLI's own.
"""

from __future__ import annotations

import json
import sys
import time

EVAL = "expr.eval"

# (span name, module, attribute); a function is wrapped wherever the
# hessym modules reference it
FUNCTIONS = (
    ("normalize.normalize", "hessym.normalize", "normalize"),
    ("normalize.is_zero", "hessym.normalize", "is_zero"),
    ("normalize.as_polynomial", "hessym.normalize", "as_polynomial"),
    ("normalize.as_rational", "hessym.normalize", "as_rational"),
    ("determining.residual_on_variety", "hessym.determining", "residual_on_variety"),
    ("determining.determining_system", "hessym.determining", "determining_system"),
    ("determining.numeric_invariance_check", "hessym.determining",
     "numeric_invariance_check"),
    ("flows.verify_case", "hessym.flows", "verify_case"),
    ("flows.apply_case", "hessym.flows", "apply_case"),
    ("expr.compile", "hessym.expr", "compile_evaluator"),
    (EVAL, "hessym.expr", "eval_numeric"),
    (EVAL, "hessym.expr", "eval_with_scale"),
    ("expr.diff", "hessym.expr", "diff"),
    ("expr.substitute", "hessym.expr", "substitute"),
    ("parse.parse", "hessym.parse", "parse"),
    ("fields.structure_table", "hessym.fields", "structure_table"),
    ("fields.adjoint", "hessym.fields", "adjoint"),
    ("fields.decompose", "hessym.fields", "decompose"),
    ("jets.prolong2", "hessym.jets", "prolong2"),
    ("jets.check_symmetry", "hessym.jets", "check_symmetry"),
    ("optimal.reduce_to_optimal", "hessym.optimal", "reduce_to_optimal"),
    ("optimal.replay", "hessym.optimal", "replay"),
    ("classify.verify_row", "hessym.classify", "verify_row"),
    ("classify.verify_principal", "hessym.classify", "verify_principal"),
    ("classify.verify_bila_procedure", "hessym.classify", "verify_bila_procedure"),
    ("classify.verify_invariants", "hessym.classify", "verify_invariants"),
    ("report.suite", "hessym.report", "run_suite"),
    ("report.render", "hessym.report", "render_json"),
    ("report.render", "hessym.report", "render_markdown"),
)

# (span name, module, class, method)
METHODS = (
    ("flows.matrix", "hessym.flows", "AffineFlow", "matrix"),
    ("fields.eval_at", "hessym.fields", "AdjointMatrix", "eval_at"),
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}    # name -> [calls, self seconds]
        self.extra: dict[str, float] = {}   # counts read from return values
        self._open: list[list] = [[0.0]]    # [child seconds] per open span

    def wrap(self, name, fn, post=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable of
        the call's arguments."""
        clock = time.perf_counter
        opened = self._open
        stats = self.stats

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [0.0]
            opened.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                opened[-1][0] += end - start
                st = stats.get(label)
                if st is None:
                    st = stats[label] = [0, 0.0]
                st[0] += 1
                st[1] += end - start - frame[0]
            if post is not None:
                post(out)
            return out

        return traced

    def count(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds a span adds to one call: a wrapped no-op against the bare
    one, the better of three tries."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        best = min(best, (mid - start) - (time.perf_counter() - mid))
    return max(best, 0.0) / calls


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    import hessym.cli  # noqa: F401 - loads every hessym module

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "hessym" or n.startswith("hessym."))]
    normalize_mod = sys.modules["hessym.normalize"]

    posts = {
        "normalize.is_zero": lambda v: tracer.count(
            "normalize.is_zero.proved",
            isinstance(v, normalize_mod.ProvedZero)),
        "jets.check_symmetry": lambda v: tracer.count(
            "jets.check_symmetry.points", v.n_points),
    }
    for name, modname, attr in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        if name == "report.suite":
            label = lambda a, kw: "report.suite." + (a[0] if a else kw["name"])  # noqa: E731
        else:
            label = name
        if name == "expr.compile":
            new = _compiler(tracer, orig)
        else:
            new = tracer.wrap(label, orig, post=posts.get(name))
        _rebind(modules, orig, new)
    for name, modname, cls, attr in METHODS:
        klass = getattr(sys.modules[modname], cls)
        setattr(klass, attr, tracer.wrap(name, getattr(klass, attr)))

    # sympy is imported on the first cancellation that needs it; wrap
    # Poly.gcd then, so that tracing does not move sympy's import
    cancel = normalize_mod._sympy_cancel
    gcd_wrapped = False

    def sympy_cancel(n, d):
        nonlocal gcd_wrapped
        if not gcd_wrapped:
            import sympy

            sympy.Poly.gcd = tracer.wrap("normalize.sympy_gcd", sympy.Poly.gcd)
            gcd_wrapped = True
        return cancel(n, d)

    normalize_mod._sympy_cancel = sympy_cancel


def _compiler(tracer: Tracer, compile_evaluator):
    wrapped_compile = tracer.wrap("expr.compile", compile_evaluator)

    def compile_traced(*args, **kwargs):
        return tracer.wrap(EVAL, wrapped_compile(*args, **kwargs))

    return compile_traced


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    overhead = per_call_overhead()
    tracer = Tracer()
    install(tracer)
    from hessym.cli import main as cli_main

    try:
        return tracer.wrap("cli.main", cli_main)(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"stats": tracer.stats, "extra": tracer.extra,
                       "per_call_overhead_s": overhead}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
