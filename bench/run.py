"""cspgap benchmark: closed-loop workloads through the CLI entry point.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

The benchmark imports `cspgap` from `src/`, generates its inputs from the
seed, and calls `cspgap.cli.main(argv)` in-process with one client, each
call after the previous one has returned.  `CSPGAP_THREADS` must be unset,
so the search runs on its default single worker.

--trace 0  measures for --seconds seconds and reports the end-to-end metrics
           of BENCHMARK.json.
--trace 1  runs a fixed number of operations traced and then again untraced,
           and reports the per-layer metrics of BENCHMARK.json.

Every operation's outputs are checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A run record
with the environment, every measured value, exact counts and per-operation
output digests goes to `.bench_runs/` under the checkout (spans too, when
traced); `bench/compare.py` compares two sets of such records.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "data")
RUNS = os.path.join(ROOT, ".bench_runs")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
REFERENCE_STEPS = 1500
# Operations per traced pass, for each 10 seconds of --seconds: about a third
# of the run each for the traced pass and the untraced reference pass.
TRACE_OPS_PER_10S = {"search": 3, "certify": 3, "family": 3}
# Drawn during set-up: enough inputs for about two operations a second.
SETUP_OPS_PER_S = 2
# Prefix of the per-command latency metrics in the run record.
COMMAND_METRIC = {"gap_search": "search", "gap_check": "cert",
                  "verify_cert": "verify", "family_stats": "family"}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


@dataclass
class Result:
    code: int | None
    stdout: str
    out_bytes: bytes
    seconds: float
    error: str | None = None


@dataclass
class OpRecord:
    op: workloads.Op
    results: list
    problems: list
    digest: str
    ref_s: float

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def cost(self) -> float:
        return self.seconds / self.ref_s


def reference_seconds() -> float:
    """Wall time of a fixed stdlib Fraction computation (about 10 ms).

    Shared machines change speed by up to 1.8x over seconds to minutes.
    Running this kernel between ops measures the machine's current speed,
    and an op's wall time divided by the kernel time around it (its cost in
    "ref" units) stays comparable across runs.  The kernel uses no cspgap
    code, so a change to the program does not change it.
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, REFERENCE_STEPS):
        acc += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 11 + 2)
        if acc > 1000:
            acc = Fraction(1, 3)
    return perf_counter() - start


# --------------------------------------------------------------------------
# statistics


def tail(values) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it (nearest rank); the maximum when there are fewer than
    eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return 100, xs[-1]
    pct = 100 * (n - 10) // n
    return pct, xs[max(0, math.ceil(pct * n / 100) - 1)]


def latency(prefix: str, values, out: dict, detail: dict) -> None:
    pct, value = tail(values)
    out[f"{prefix}.p50"] = statistics.median(values)
    out[f"{prefix}.tail"] = value
    detail[prefix] = {"samples": len(values), "tail_percentile": pct}


# --------------------------------------------------------------------------
# environment


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fresh_import():
    """Import cspgap from this checkout's src/, discarding earlier imports."""
    for name in [n for n in sys.modules if n == "cspgap" or n.startswith("cspgap.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("cspgap")
        importlib.import_module("cspgap.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import cspgap from {SRC}: {exc}") from exc
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported cspgap from {pkg.__file__}, not from {SRC}")
    return pkg


# --------------------------------------------------------------------------
# calls and operations


def call_cli(pkg, call) -> Result:
    if call.out_file and os.path.exists(call.out_file):
        os.remove(call.out_file)
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pkg.cli.main(call.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught exception is a failed call
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    out_bytes = b""
    if call.out_file and os.path.exists(call.out_file):
        with open(call.out_file, "rb") as handle:
            out_bytes = handle.read()
    return Result(code, out.getvalue(), out_bytes, seconds, error)


def run_op(pkg, op, exits: Counter) -> tuple:
    """Run one operation; returns (results, problems, sha256 of its outputs)."""
    results = [call_cli(pkg, call) for call in op.calls]
    problems = []
    digest = hashlib.sha256()
    for call, result in zip(op.calls, results):
        exits[result.code] += 1
        if result.error:
            problems.append(f"{call.kind}: {result.error}")
        elif result.code != call.expect_exit:
            problems.append(f"{call.kind}: exit {result.code}")
        for chunk in (result.stdout.encode(), result.out_bytes):
            digest.update(len(chunk).to_bytes(8, "big"))
            digest.update(chunk)
    if not problems:
        try:
            problems.extend(op.check(results))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"output check raised {type(exc).__name__}: {exc}")
    return results, problems, digest.hexdigest()


class Loop:
    """Closed loop over one workload's operations, with their outcomes."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.records = []
        self.exits = Counter()
        self.ref_after = None

    def run(self, op) -> None:
        before = self.ref_after if self.ref_after is not None else reference_seconds()
        results, problems, digest = run_op(self.pkg, op, self.exits)
        self.ref_after = reference_seconds()
        self.records.append(OpRecord(op, results, problems, digest,
                                     (before + self.ref_after) / 2))
        if problems:
            sys.stderr.write(f"op {op.index} failed: {'; '.join(problems)}\n")

    @property
    def failed(self) -> int:
        return sum(1 for rec in self.records if rec.problems)


def setup(workload: str, seed: int) -> tuple:
    """Import cspgap and start the workload's op generator in a fresh work
    directory: returns (package, work dir, op generator)."""
    pkg = fresh_import()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    families = {}
    for name in ("cut", "dicut"):
        families[name] = f"{name}_family.json"
        shutil.copyfile(os.path.join(DATA, families[name]), os.path.join(work, families[name]))
    generator = workloads.WORKLOADS[workload](seed, work, families)
    return pkg, work, generator


def warm_up(pkg, work) -> None:
    """One small call of each command the workloads use."""
    triangle = os.path.join(DATA, "triangle.json")
    cut = os.path.join(DATA, "cut_family.json")
    cert = os.path.join(work, "warm_cert.json")
    calls = [
        workloads.Call("family_stats", ["family-stats", cut, "--json"]),
        workloads.Call("gap_check", ["gap-check", triangle, "--json", "--gamma", "1/1",
                                     "--beta", "2/3", "--out", cert], out_file=cert),
        workloads.Call("verify_cert", ["verify-cert", cert]),
        workloads.Call("gap_search", ["gap-search", "--json", "--family", cut,
                                      "--gamma", "1/1", "--beta", "2/3", "--n-min", "3",
                                      "--n-max", "3", "--max-constraints", "3",
                                      "--budget", "8"], expect_exit=1),
    ]
    for call in calls:
        result = call_cli(pkg, call)
        if result.code != call.expect_exit:
            raise BenchError(f"warm-up {call.kind} exited {result.code}: {result.error}")


# --------------------------------------------------------------------------
# cross-check of certify relaxation values against HiGHS


def highs_lp_value(inst: dict):
    """Basic LP relaxation value of an instance dict, built independently of
    cspgap and solved in floating point by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    fam = inst["family"]
    q, k, n = fam["q"], fam["k"], inst["n"]
    tables = {p["name"]: p["table"] for p in fam["predicates"]}
    cons = inst["constraints"]
    size = q ** k
    nx = n * q
    cols = nx + len(cons) * size
    total = sum(c["w"] for c in cons)
    cost = np.zeros(cols)
    rows = []
    for i in range(n):
        row = np.zeros(cols)
        row[i * q:(i + 1) * q] = 1
        rows.append((row, 1.0))
    for ci, c in enumerate(cons):
        base = nx + ci * size
        for rank, bit in enumerate(tables[c["f"]]):
            cost[base + rank] = -bit * c["w"] / total
        for pos, var in enumerate(c["vars"]):
            stride = q ** (k - 1 - pos)
            for symbol in range(q):
                row = np.zeros(cols)
                for rank in range(size):
                    if (rank // stride) % q == symbol:
                        row[base + rank] = 1
                row[(var - 1) * q + symbol] = -1
                rows.append((row, 0.0))
    res = linprog(cost, A_eq=np.array([r for r, _ in rows]), b_eq=[b for _, b in rows],
                  bounds=(0, None), method="highs")
    return -res.fun if res.status == 0 else None


def cross_check(records) -> dict:
    """Compare each certify instance's exact LP value with HiGHS (1e-9)."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return {"status": "skipped: scipy is not importable", "checked": 0, "mismatches": 0}
    checked = mismatches = 0
    for rec in records:
        if rec.op.instance is None or rec.problems:
            continue
        exact = json.loads(rec.results[0].stdout)["lp_value"]
        num, den = exact.split("/")
        value = highs_lp_value(rec.op.instance)
        checked += 1
        if value is None or abs(value - int(num) / int(den)) > 1e-9:
            mismatches += 1
            sys.stderr.write(f"op {rec.op.index}: HiGHS value {value}, exact {exact}\n")
    return {"status": "checked", "checked": checked, "mismatches": mismatches}


# --------------------------------------------------------------------------
# the two kinds of run


def summarize(records, values: dict, detail: dict) -> None:
    """Latency and throughput of ops and of each command, in seconds and in
    ref units."""
    latency("op_s", [rec.seconds for rec in records], values, detail)
    latency("op_ref", [rec.cost for rec in records], values, detail)
    items = sum(rec.op.items for rec in records)
    values["items_per_s"] = items / sum(rec.seconds for rec in records)
    values["items_per_ref"] = items / sum(rec.cost for rec in records)
    by_command = {}
    for rec in records:
        for call, result in zip(rec.op.calls, rec.results):
            by_command.setdefault(COMMAND_METRIC[call.kind], []).append(
                (result.seconds, rec.ref_s))
    for name, samples in by_command.items():
        latency(f"{name}_s", [sec for sec, _ in samples], values, detail)
        latency(f"{name}_ref", [sec / ref for sec, ref in samples], values, detail)
    if "search" in by_command:
        # A checked op evaluated exactly its budget.
        evaluated = sum(rec.op.items for rec in records if not rec.problems)
        values["instances_per_s"] = evaluated / sum(sec for sec, _ in by_command["search"])
        detail["instances_evaluated"] = evaluated


def timed_run(loop: Loop, pool, generator, seconds: float) -> tuple:
    start = perf_counter()
    for op in pool:
        loop.run(op)
        if perf_counter() - start >= seconds:
            break
    else:
        while perf_counter() - start < seconds:
            loop.run(next(generator))
    values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    detail = {"measured_s": perf_counter() - start}
    summarize(loop.records, values, detail)
    return values, detail


def traced_run(loop: Loop, pool, generator, count: int) -> tuple:
    """Run `count` ops traced, then the same ops again untraced.

    Per-layer metrics come from the traced pass, which sees each input
    first.  The untraced pass must reproduce its outputs byte for byte.
    """
    ops = [pool[i] if i < len(pool) else next(generator) for i in range(count)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            tracer.op = op.index
            loop.run(op)
    finally:
        tracer.restore()
    traced_exits = Counter(loop.exits)
    for op in ops:
        loop.run(op)
    traced, untraced = loop.records[:count], loop.records[count:]
    for first, again in zip(traced, untraced):
        if first.digest != again.digest:
            again.problems.append("outputs differ between the traced and untraced runs")
    values = tracer.metrics(sum(rec.seconds for rec in traced), traced_exits)
    # The passes run at different times, so their costs are compared in ref
    # units.
    values["trace.overhead"] = (sum(rec.cost for rec in traced)
                                / sum(rec.cost for rec in untraced) - 1)
    detail = {"traced_ops": count, "untraced_ops": count,
              "traced_wall_s": sum(rec.seconds for rec in traced),
              "untraced_wall_s": sum(rec.seconds for rec in untraced)}
    return values, detail, tracer


# --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if "CSPGAP_THREADS" in os.environ:
        raise BenchError("CSPGAP_THREADS is set; the benchmark measures the default"
                         " single search worker, so unset it")
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_s = []
    works = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pkg, work, generator = setup(args.workload, args.seed)
        pool = [next(generator) for _ in range(math.ceil(SETUP_OPS_PER_S * args.seconds))]
        warm_up(pkg, work)
        setup_s.append(perf_counter() - start)
        works.append(work)
    for old in works[:-1]:
        shutil.rmtree(old, ignore_errors=True)

    loop = Loop(pkg)
    os.chdir(works[-1])
    try:
        if args.trace:
            count = max(2, round(TRACE_OPS_PER_10S[args.workload] * args.seconds / 10))
            values, detail, tracer = traced_run(loop, pool, generator, count)
        else:
            values, detail = timed_run(loop, pool, generator, args.seconds)
            values["setup_s"] = statistics.median(setup_s)
            tracer = None
        check = (cross_check(loop.records) if args.workload == "certify"
                 else {"status": "not applicable"})
    finally:
        os.chdir(ROOT)
        shutil.rmtree(works[-1], ignore_errors=True)

    attempted = len(loop.records)
    failed = loop.failed
    values["fail_ratio"] = failed / attempted
    correct = failed == 0 and check.get("mismatches", 0) == 0
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    os.makedirs(RUNS, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "backend": pkg.rationals.RAT.__module__,
        "nproc": os.cpu_count(),
        "cspgap_threads": os.environ.get("CSPGAP_THREADS"),
        "commit": git_commit(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "metrics": values,
        "detail": detail,
        "cross_check": check,
        "digests": [[rec.op.index, rec.digest] for rec in loop.records],
        "op_seconds": [rec.seconds for rec in loop.records],
        "op_ref_seconds": [rec.ref_s for rec in loop.records],
        "problems": [[rec.op.index, rec.problems] for rec in loop.records if rec.problems],
    }
    with open(os.path.join(RUNS, stamp + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(os.path.join(RUNS, stamp + "-spans.jsonl"))

    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed;"
          f" cross-check {check['status']}; record {os.path.join('.bench_runs', stamp)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        sys.exit(2)
