"""hessym benchmark: the CLI in fresh child processes, closed loop.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all        # BENCHMARK.json's workloads, every metric
    python3 perfbench/run.py --machine    # the machine record

Run it from the root of a checkout; hessym is imported from ``src``.

One client runs one child process at a time and starts the next only
after the previous one has exited.  Every timed invocation is a fresh
interpreter running the ``hessym`` console entry point, because that is
what a reader running ``hessym verify ...`` pays: inside one process a
second run of the determining suite takes about 0.5 s against 17-32 s
for the first, since the lru_caches and sympy's own caches are warm, so
repeating work in one process would hide the largest cost in the
program.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` goes once through the same inputs, running each
invocation untraced and under perfbench/tracer.py, and reports the
per-layer metrics.  The last line of stdout is the result as JSON.
Every invocation is checked against its known answer; the exit status
is 1 when one was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
EXPECTED = json.loads((HERE / "expected.json").read_text())
SUITES = tuple(EXPECTED["statuses"])    # in `verify all` order

# what the ``hessym`` console script runs
ENTRY = "import sys; from hessym.cli import main; sys.exit(main())"
SETUP_REPEATS = 3      # before the timed loop, and again after it
IMPORT_REPEATS = 3


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    """One finished invocation: wall, CPU and peak RSS of the child alone."""

    argv: list[str]
    code: int
    out: bytes
    wall: float
    cpu: float
    rss_mb: float


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def run(self, argv, prefix=None) -> Child:
        """Run ``python3 <prefix or -c ENTRY> argv`` to exit, output
        consumed into files; rusage comes from wait4 on this child."""
        cmd = [sys.executable] + (prefix or ["-c", ENTRY]) + list(argv)
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        # reaped here, so that the rusage is this child's alone
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(list(argv), proc.returncode, out_path.read_bytes(), wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def stderr(self) -> str:
        return (self.workdir / "stderr").read_text(errors="replace")


# ---------------------------------------------------------------------------
# seeded inputs and their known answers

def _statuses(suite_obj) -> dict[str, str]:
    return {c["id"]: c["status"] for c in suite_obj["checks"]}


def check_verify(suites):
    def check(child):
        obj = json.loads(child.out)
        got = obj["suites"] if len(suites) > 1 else [obj]
        return (child.code == 0
                and [s["suite"] for s in got] == list(suites)
                and all(_statuses(s) == EXPECTED["statuses"][s["suite"]]
                        for s in got))
    return check


def check_tables(child):
    obj = json.loads(child.out)
    brackets = obj["structure"]["brackets"]
    return (child.code == 0 and obj["structure"]["dim"] == 8
            and len(brackets) == 8 and all(len(r) == 8 for r in brackets)
            and len(obj["adjoint"]) == 8)


def check_reduce(vector):
    def check(child):
        obj = json.loads(child.out)
        return (child.code == 0 and obj["input"] == vector
                and obj["pattern"] in EXPECTED["patterns"]
                and obj["replay_deviation"] < 1e-9)
    return check


def check_symmetry_verdict(verdict):
    def check(child):
        obj = json.loads(child.out)
        return (child.code == (0 if verdict == "pass" else 1)
                and obj["verdict"] == verdict)
    return check


def check_transform(case, t):
    def check(child):
        obj = json.loads(child.out)
        rate = Fraction(obj["weight_rate"])
        return (child.code == 0 and obj["case"] == case and obj["t"] == t
                and obj["verdict"] == "pass"
                and obj["max_residual"] <= obj["tol"]
                and math.isclose(obj["s2_factor"], math.exp(float(rate) * t),
                                 rel_tol=1e-12))
    return check


def check_invariants(child):
    return (child.code == 0
            and _statuses(json.loads(child.out)) == {"invariants[A3]": "pass"})


def reduce_vector(rng: random.Random) -> list[float]:
    """Drawn as the optimal suite draws: a7 or a8 stays nonzero, so every
    vector lies in the orbit of a normal form."""
    a = [rng.uniform(-2, 2) for _ in range(8)]
    for i in rng.sample(range(8), rng.randrange(8)):
        a[i] = 0.0
    if a[6] == 0.0 and a[7] == 0.0:
        a[6] = rng.uniform(0.3, 2.0) * rng.choice((1.0, -1.0))
    return a


def fixture(rng: random.Random) -> str:
    vals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), 4)
            for _ in range(3)]
    if rng.random() < 0.5:
        vals.append(Fraction(rng.randint(1, 8), 8))     # corrugation EPS
    return "fixture:" + ",".join(str(v) for v in vals)


def verify_all(rng):
    seed = str(rng.randrange(1, 2**31))
    return [(["verify", "all", "--format", "json", "--seed", seed],
             check_verify(SUITES))]


def suites(rng):
    """``verify all`` suite by suite, each in its own fresh process, with
    verify all's parameters except four flow points instead of 20, which
    keep the statuses and 2772 of the 4356 AffineFlow.matrix calls.  The
    sympy gcd calls are verify all's 18."""
    seed = str(rng.randrange(1, 2**31))
    cases = []
    for suite in SUITES:
        points = ["--points", "4"] if suite == "flows" else []
        cases.append((["verify", suite] + points
                      + ["--format", "json", "--seed", seed],
                      check_verify((suite,))))
    return cases


def sampling(rng):
    seed = str(rng.randrange(1, 2**31))
    return [(["verify", "optimal", "--points", "8000", "--format", "json",
              "--seed", seed], check_verify(("optimal",))),
            (["verify", "classification", "--points", "40", "--format", "json",
              "--seed", seed], check_verify(("classification",)))]


def cli_oneshot(rng):
    def seed():
        return ["--format", "json", "--seed", str(rng.randrange(1, 2**31))]

    cases = [(["tables", "g8", "--format", "json"], check_tables)]
    for _ in range(2):
        vec = reduce_vector(rng)
        # "--" because a vector may start with a minus sign
        cases.append((["reduce"] + seed() + ["--", ",".join(map(repr, vec))],
                      check_reduce(vec)))
    f, field = rng.choice(EXPECTED["symmetries"])
    cases.append((["check-symmetry", "--f", f, "--vf", field] + seed(),
                  check_symmetry_verdict("pass")))
    f, field = EXPECTED["non_symmetry"]
    cases.append((["check-symmetry", "--f", f, "--vf", field] + seed(),
                  check_symmetry_verdict("fail")))
    for _ in range(2):
        case, t = rng.randint(1, 15), round(rng.uniform(-1, 1), 3)
        cases.append((["transform", "--case", str(case), "--t", repr(t),
                       "--u", fixture(rng)] + seed(), check_transform(case, t)))
    cases.append((["invariants", "A3", "--format", "json"], check_invariants))
    return cases


# BENCHMARK.json lists suites and cli-oneshot.  verify-all and sampling
# stay runnable by name.  A verify-all run holds one 28-57 s invocation,
# and its times spread beyond the bounds on a shared machine; suites
# times the same work as eight invocations, whose geometric mean lets no
# single one's swings rule the result.
# Sampling's quartile spread over ten seeds reached 0.27-0.30.
WORKLOADS = {"suites": suites, "cli-oneshot": cli_oneshot,
             "verify-all": verify_all, "sampling": sampling}

# cheapest full start of the CLI: imports every hessym module
WARM_UP = ["verify", "commutators", "--format", "json"]


# ---------------------------------------------------------------------------
# measurement

class Tally:
    """Invocations attempted and failed; a failure is a wrong exit code,
    a wrong verdict, or output that differs from an earlier invocation
    with the same argv."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_out: dict[tuple, bytes] = {}

    def check(self, child: Child, check, runner: Runner) -> None:
        self.attempted += 1
        try:
            ok = check(child)
        except (ValueError, KeyError, TypeError):
            ok = False
        key = tuple(child.argv)
        ok = ok and self.first_out.setdefault(key, child.out) == child.out
        if not ok:
            self.failed += 1
            print(f"wrong answer (exit {child.code}): hessym "
                  f"{' '.join(child.argv)}\n{runner.stderr()[-2000:]}",
                  file=sys.stderr)


def warm_up(runner: Runner) -> None:
    # One untimed invocation first, so that writing the .pyc files does
    # not land in the first sample.  It is cheap and imports every
    # hessym module; repeating a workload's work inside one process instead
    # would time warm caches (17-32 s of determining becomes 0.5 s).
    child = runner.run(WARM_UP)
    if child.code != 0:
        sys.exit(f"warm-up failed (exit {child.code}):\n{runner.stderr()}")


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile (nearest rank) with at least ten samples beyond
    it; the maximum when there are too few samples for any, which is the
    case below 20 samples."""
    ranked = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ranked))
        if len(ranked) - rank >= 10:
            return ranked[rank - 1], f"p{p:g}"
    return ranked[-1], "max"


def setup_times(runner: Runner, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters importing hessym."""
    walls = []
    for _ in range(repeats):
        child = runner.run([], prefix=["-c", "import hessym"])
        if child.code != 0:
            sys.exit(f"import hessym failed:\n{runner.stderr()}")
        walls.append(child.wall)
    return walls


def measure(runner: Runner, workload: str, seed: int, seconds: float):
    cases = WORKLOADS[workload](random.Random(seed))
    warm_up(runner)
    setup = setup_times(runner)
    tally = Tally()
    children: list[list[Child]] = [[] for _ in cases]
    start = time.perf_counter()
    # The workload's invocations in turn, every one once; after that, the
    # next in turn whose previous time says it ends within the run, so
    # that the run fills its seconds and no more.
    k = 0
    while True:
        if all(children):
            left = seconds - (time.perf_counter() - start)
            k = next((j % len(cases) for j in range(k, k + len(cases))
                      if children[j % len(cases)][-1].wall <= left), None)
            if k is None:
                break
        argv, check = cases[k]
        child = runner.run(argv)
        tally.check(child, check, runner)
        children[k].append(child)
        print(f"{child.wall:8.3f} s wall {child.cpu:8.3f} s cpu  hessym "
              f"{' '.join(argv)}", file=sys.stderr)
        k += 1
    # the second half of the set-up samples spreads them over the run
    setup += setup_times(runner)
    walls = [c.wall for runs in children for c in runs]
    tail_value, tail_label = tail(walls)

    def per_invocation(value) -> float:
        # The geometric mean over the workload's invocations of each one's
        # mean.  A list left unfinished weighs no invocation more than the
        # others; a median would drop the long ones; and an arithmetic mean
        # would follow the longest alone, whose one or two samples a run
        # swing by up to 20% on a shared machine.
        return statistics.geometric_mean(
            statistics.fmean(value(c) for c in runs) for runs in children)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": per_invocation(lambda c: c.wall),
        "cpu_s": per_invocation(lambda c: c.cpu),
        "peak_rss_mb": max(c.rss_mb for runs in children for c in runs),
    }
    # printed, not in BENCHMARK.json: a suites run is too short to hold
    # the 20 invocations a percentile with ten samples beyond it needs
    printed = {"wall_tail_s": (tail_value, "s",
                               f"{tail_label} of {len(walls)} invocations")}
    # and each invocation's own mean, which the geometric mean dilutes
    for k, ((argv, _), runs) in enumerate(zip(cases, children)):
        command = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
        printed[f"wall_s[{k}]"] = (statistics.fmean(c.wall for c in runs), "s",
                                   f"hessym {command}, {len(runs)} samples")
    return metrics, printed, tally


# ---------------------------------------------------------------------------
# traced run

# the wrapped entry points of the normalize layer
NORMALIZE = ("normalize.normalize", "normalize.is_zero",
             "normalize.as_polynomial", "normalize.as_rational")


def import_times(runner: Runner) -> dict[str, float]:
    """``-X importtime`` of a fresh ``import hessym``: medians of the
    cumulative microseconds of hessym and scipy.linalg."""
    found: dict[str, list[float]] = {"hessym": [], "scipy.linalg": []}
    sympy_loaded = 0
    for _ in range(IMPORT_REPEATS):
        child = runner.run([], prefix=["-X", "importtime", "-c", "import hessym"])
        for line in runner.stderr().splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m is None:
                continue
            name = m.group(3)
            if name in found:
                found[name].append(int(m.group(2)) / 1e6)
            sympy_loaded |= name == "sympy"
        if child.code != 0:
            sys.exit(f"import hessym failed:\n{runner.stderr()}")
    return {"import.hessym_s": statistics.median(found["hessym"]),
            "import.scipy_linalg_s": statistics.median(found["scipy.linalg"] or [0.0]),
            "import.sympy_loaded": sympy_loaded}


def layer_metrics(stats: dict[str, list], extra: dict[str, float]) -> dict[str, float]:
    def calls(name):
        return stats.get(name, [0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0])[1]

    zero_calls = calls("normalize.is_zero")
    out = {
        "normalize.calls": sum(calls(n) for n in NORMALIZE),
        "normalize.s": sum(self_s(n) for n in NORMALIZE),
        "normalize.sympy_gcd.calls": calls("normalize.sympy_gcd"),
        "normalize.sympy_gcd.s": self_s("normalize.sympy_gcd"),
        "normalize.is_zero.calls": zero_calls,
        "normalize.is_zero.proved_ratio":
            extra.get("normalize.is_zero.proved", 0) / zero_calls if zero_calls else 0.0,
        "jets.check_symmetry.points": extra.get("jets.check_symmetry.points", 0),
        "report.render.s": self_s("report.render"),
        "trace.unattributed_s": self_s("cli.main"),
    }
    for name in ("determining.residual_on_variety", "determining.determining_system",
                 "determining.numeric_invariance_check", "flows.verify_case",
                 "flows.apply_case", "expr.substitute", "fields.structure_table",
                 "fields.adjoint", "fields.decompose", "classify.verify_row",
                 "classify.verify_principal", "classify.verify_bila_procedure",
                 "classify.verify_invariants"):
        out[name + ".s"] = self_s(name)
    for name in ("flows.matrix", "expr.compile", "expr.eval", "expr.diff",
                 "parse.parse", "fields.eval_at", "jets.prolong2",
                 "jets.check_symmetry", "optimal.reduce_to_optimal",
                 "optimal.replay"):
        short = "parse" if name == "parse.parse" else name
        out[short + ".calls"] = calls(name)
        out[short + ".s"] = self_s(name)
    for suite in SUITES:
        out[f"report.suite.{suite}.s"] = self_s(f"report.suite.{suite}")
    return out


def trace(runner: Runner, workload: str, seed: int):
    cases = WORKLOADS[workload](random.Random(seed))
    warm_up(runner)
    metrics = import_times(runner)
    metrics["import.process_s"] = statistics.median(
        setup_times(runner, IMPORT_REPEATS))
    tally = Tally()
    stats: dict[str, list] = {}
    extra: dict[str, float] = {}
    untraced = traced = wrap_overhead = 0.0
    stats_path = runner.workdir / "stats.json"
    for argv, check in cases:
        child = runner.run(argv)
        tally.check(child, check, runner)
        untraced += child.wall
        stats_path.unlink(missing_ok=True)
        child = runner.run(argv, prefix=[str(TRACER), str(stats_path)])
        tally.check(child, check, runner)
        traced += child.wall
        if not stats_path.exists():
            sys.exit(f"the tracer wrote no stats:\n{runner.stderr()}")
        record = json.loads(stats_path.read_text())
        for name, (n, s) in record["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += n
            acc[1] += s
            wrap_overhead += n * record["per_call_overhead_s"]
        for name, v in record["extra"].items():
            extra[name] = extra.get(name, 0) + v
    metrics.update(layer_metrics(stats, extra))
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.wrap_overhead_s"] = wrap_overhead
    # The self times cover all of cli.main.  What they and a fresh
    # interpreter importing hessym and exiting do not explain of the
    # traced wall time is reported, not assumed away.  The traced wall
    # time and the self times come from the same processes, so the
    # machine's drift between the untraced and the traced run does not
    # enter it.
    spans_s = sum(s for _, s in stats.values())
    metrics["trace.unexplained_s"] = traced - (
        spans_s + len(cases) * metrics["import.process_s"])
    return metrics, tally


# ---------------------------------------------------------------------------
# machine record

def machine() -> dict:
    import numpy
    import scipy
    import sympy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                + " ".join(str(blas.get("openblas configuration", "")).split()),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload of BENCHMARK.json and print "
                        "each metric")
    p.add_argument("--machine", action="store_true",
                   help="print the machine record and exit")
    args = p.parse_args(argv)
    if args.machine:
        print(json.dumps(machine(), indent=2))
        return 0
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    if not (SRC / "hessym" / "__init__.py").is_file():
        print(f"no hessym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = ([w["name"] for w in spec["workloads"]] if args.all
                 else [args.workload])

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="perfbench-",
                                     dir=ROOT / ".bench_build") as tmp:
        runner = Runner(Path(tmp))
        for workload in workloads:
            printed = {}
            if args.trace:
                metrics, tally = trace(runner, workload, args.seed)
            else:
                metrics, printed, tally = measure(runner, workload, args.seed,
                                                  seconds)
            if set(metrics) != set(units):
                raise RuntimeError("metrics differ from BENCHMARK.json: "
                                   f"{sorted(set(metrics) ^ set(units))}")
            failed += tally.failed
            printed["fail_ratio"] = (
                tally.failed / tally.attempted, "ratio",
                f"{tally.failed} of {tally.attempted} invocations")
            rows = [(n, metrics[n], units[n], "") for n in units]
            rows += [(n, v, u, f"  ({note})") for n, (v, u, note) in printed.items()]
            for name, value, unit, note in rows:
                print(f"{workload:12s} {name:40s} {value:14.6g} {unit}{note}")
    if not args.all:
        print(json.dumps({
            "correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
