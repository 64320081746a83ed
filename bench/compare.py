"""Compare benchmark runs of a parent commit and of a change.

Usage:

    python3 bench/compare.py PARENT_RUNS CHANGE_RUNS

Each argument is a directory of run records written by `bench/run.py`
(its `.bench_runs/`), made with the same benchmark code and settings.  Runs
pair up by workload, trace mode and seed.  One row is printed per (metric,
workload) pair: each side's median and quartiles, the share of pairs the
change wins (ties count for neither), a verdict, and whether the output
digests of the operations both sides ran are identical.

Verdicts follow the benchmark's rules:
  improved    there are at least 10 pairs, the change wins 9 in 10 of them,
              and the medians differ by more than the distance between the
              parent's quartiles;
  unresolved  the parent's own spread is wider than the bound, and not every
              change run reads better than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  no worse    otherwise.
Per-layer metrics have no bound; they get `same` or `changed` for exact
counts and otherwise only `improved` or `-`.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
# A gain is claimed only over at least this many pairs of runs.
MIN_PAIRS = 10


def load_runs(directory: str) -> list:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        sys.exit(f"compare: no run records in {directory}")
    return runs


def metric_specs() -> dict:
    """{metric: (better, bound)} from BENCHMARK.json.  Metrics only in the
    run records (wall-time and per-command latencies) take the bound of the
    matching op metric."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    specs = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    specs.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    specs["fail_ratio"] = ("lower", 0.0)
    return specs


def spec_for(name: str, specs: dict):
    if name in specs:
        return specs[name]
    if name.endswith(".p50"):
        return specs["op_ref.p50"]
    if name.endswith(".tail"):
        return specs["op_ref.tail"]
    if name.endswith("_per_s"):
        return specs["items_per_ref"]
    return ("lower", None)


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound) -> tuple:
    """(share of pairs won by the change, verdict) for {seed: [values]} maps."""
    sign = 1 if better == "higher" else -1
    wins = pairs = 0
    for seed in sorted(set(parent) & set(change)):
        for p, c in zip(parent[seed], change[seed]):
            pairs += 1
            wins += sign * (c - p) > 0
    p_all = [v for vs in parent.values() for v in vs]
    c_all = [v for vs in change.values() for v in vs]
    p1, pm, p3 = quartiles(p_all)
    cm = statistics.median(c_all)
    share = wins / pairs if pairs else float("nan")
    exact = all(float(v).is_integer() for v in p_all + c_all)
    if bound is None and exact:
        return share, "same" if sorted(p_all) == sorted(c_all) else "changed"
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and sign * (cm - pm) > p3 - p1:
        return share, "improved"
    if bound is None:
        return share, "-"
    dominates = min(sign * c for c in c_all) > max(sign * p for p in p_all)
    if pm and (p3 - p1) / abs(pm) > bound and not dominates:
        return share, "unresolved"
    if sign * (pm - cm) > bound * abs(pm):
        return share, "worse"
    return share, "no worse"


def digest_state(parent_runs, change_runs, workload: str) -> str:
    ops = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for run in runs:
            if run["workload"] == workload:
                for index, digest in run["digests"]:
                    ops.setdefault((run["seed"], index), {}).setdefault(side, set()).add(digest)
    common = [v for v in ops.values() if len(v) == 2]
    if not common:
        return "no common ops"
    differ = sum(1 for v in common if v["parent"] != v["change"] or len(v["parent"]) > 1)
    return f"identical ({len(common)} ops)" if not differ else f"DIFFER ({differ}/{len(common)} ops)"


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit("usage: python3 bench/compare.py PARENT_RUNS CHANGE_RUNS")
    parent_runs, change_runs = (load_runs(d) for d in argv)
    for key in ("backend", "python", "nproc"):
        sides = [sorted({str(r[key]) for r in runs}) for runs in (parent_runs, change_runs)]
        if sides[0] != sides[1]:
            level = "WARNING" if key == "backend" else "note"
            print(f"{level}: {key} differs: parent {sides[0]}, change {sides[1]}")
    specs = metric_specs()
    series = defaultdict(lambda: (defaultdict(list), defaultdict(list)))
    for side, runs in enumerate((parent_runs, change_runs)):
        for run in runs:
            for name, value in run["metrics"].items():
                series[(run["workload"], name)][side][run["seed"]].append(value)
    workloads = sorted({w for w, _ in series})
    digests = {w: digest_state(parent_runs, change_runs, w) for w in workloads}
    header = (f"{'workload':9} {'metric':38} {'parent q1/median/q3':32} "
              f"{'change q1/median/q3':32} {'wins':>5} {'verdict':10} digests")
    print(header)
    for (workload, name), (parent, change) in sorted(series.items()):
        if not parent or not change:
            continue
        better, bound = spec_for(name, specs)
        share, result = verdict(parent, change, better, bound)
        cells = []
        for side in (parent, change):
            q1, med, q3 = quartiles([v for vs in side.values() for v in vs])
            cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g}")
        print(f"{workload:9} {name:38} {cells[0]:32} {cells[1]:32} {share:5.2f} "
              f"{result:10} {digests[workload]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
