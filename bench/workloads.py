"""Seeded inputs and output checks for the three benchmark workloads.

A workload is an endless, seeded stream of operations.  An operation is one
or more CLI calls (argv lists for `cspgap.cli.main`) plus the checks their
outputs must pass.  Generators write their input files into the work
directory and name files in argv relative to it; the calls run with the
work directory as the current directory, so reports that echo a path are
byte-identical from run to run.  Every workload is designed so that the program's answer
is known in advance, and so that each operation costs about the same on
every seed: the seed varies the instances, never their size class.

* search   -- `gap-search --maximize-gap` in exhaustive mode on the repo's cut
              and dicut families.  Every call spends a fixed budget on a
              stream that is known to contain a qualifying gap.
* certify  -- for one fresh gap instance: `gap-check --out` (the write), then
              `verify-cert` (the read).  Instances are pairwise
              non-isomorphic, so nothing repeats within a run.
* family   -- `family-stats --json` on cut, dicut and two generated families
              (q=3/k=2 and q=2/k=3) whose one-wise support pattern is fixed
              by construction.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

SEARCH_BUDGET = 60
# Bracket precision for family-stats.  The default 1/64 spends about 1 s per
# q=3 product-lattice search, which leaves too few samples in a run.
PRECISION = "1/32"


@dataclass
class Call:
    """One CLI invocation and what it must produce."""

    kind: str
    argv: list
    expect_exit: int = 0
    out_file: str | None = None


@dataclass
class Op:
    """One closed-loop operation: its calls, the work items they stand for,
    and an output check that returns a list of problems (empty when correct)."""

    index: int
    calls: list
    items: int
    check: object
    instance: dict | None = None


def write_json(work: str, name: str, data) -> str:
    with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
    return name


def _parse_json(text: str, problems: list):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


# --------------------------------------------------------------------------
# search


def _search_configs(families: dict) -> list:
    # (family file, n_min, max_constraints, gamma, betas).  The first qualifying
    # instance of each exhaustive stream lies at position 36..58, inside the
    # budget of 60: the triangle (1, 2/3) for cut, the directed triangle
    # (1/2, 1/3) for dicut.
    configs = []
    for name, gamma, betas in (
        ("cut", "1/1", ("2/3", "3/4", "4/5")),
        ("dicut", "1/2", ("1/3", "2/5", "3/7")),
    ):
        for n_min in (2, 3):
            for max_constraints in (3, 4):
                configs.append((families[name], n_min, max_constraints, gamma, betas))
    return configs


def search_ops(seed: int, work: str, families: dict):
    rng = random.Random(seed)
    configs = _search_configs(families)
    cert = "search_cert.json"
    index = 0
    while True:
        cycle = list(configs)
        rng.shuffle(cycle)
        for family, n_min, max_constraints, gamma, betas in cycle:
            beta = rng.choice(betas)
            argv = [
                "gap-search", "--json", "--family", family,
                "--gamma", gamma, "--beta", beta,
                "--n-min", str(n_min), "--n-max", str(rng.choice((3, 4))),
                "--max-constraints", str(max_constraints),
                "--mode", "exhaustive", "--maximize-gap",
                "--budget", str(SEARCH_BUDGET), "--seed", str(rng.randrange(1 << 16)),
                "--out", cert,
            ]
            yield Op(index, [Call("gap_search", argv, out_file=cert)], SEARCH_BUDGET,
                     _check_search(Fraction(gamma), Fraction(beta)))
            index += 1


def _check_search(gamma: Fraction, beta: Fraction):
    def check(results) -> list:
        problems = []
        data = _parse_json(results[0].stdout, problems)
        if data is None:
            return problems
        if data.get("found") is not True:
            problems.append("gap-search found no gap")
        if data.get("evaluated") != SEARCH_BUDGET:
            problems.append(f"evaluated {data.get('evaluated')}, budget {SEARCH_BUDGET}")
        if data.get("found"):
            if Fraction(data["lp_value"]) < gamma or Fraction(data["csp_value"]) > beta:
                problems.append(f"certified values {data['lp_value']}, {data['csp_value']}"
                                f" miss the targets ({gamma}, {beta})")
            if not results[0].out_bytes:
                problems.append("no certificate written")
        return problems

    return check


# --------------------------------------------------------------------------
# certify

CUT = {"q": 2, "k": 2, "predicates": [{"name": "cut", "table": [0, 1, 1, 0]}]}
NEQ3 = {"q": 3, "k": 2, "predicates": [
    {"name": "neq", "table": [int(a != b) for a in range(3) for b in range(3)]}]}


def _fingerprint(n: int, constraints: list) -> tuple:
    """A variable-relabeling invariant: equal fingerprints are necessary for
    two instances to be isomorphic, so distinct ones prove non-isomorphism."""
    degree = [0] * (n + 1)
    for _, (u, v), _ in constraints:
        degree[u] += 1
        degree[v] += 1
    return (n, tuple(sorted((f, w, degree[u], degree[v]) for f, (u, v), w in constraints)))


def gap_instance(rng: random.Random, stratum: int) -> dict:
    """A weighted instance whose LP value is 1 and whose optimum is below 1.

    Stratum 0 is cut with an embedded odd cycle (not bipartite, so some edge
    stays uncut); stratum 1 is q=3 inequality with an embedded K4 (not
    3-colourable).  Both predicates support one-wise independence, so the
    uniform solution reaches 1.  Sizes are fixed per stratum, so the two
    relaxations (57 rows x 66 columns, 54 rows x 90 columns) cost about the
    same and only their structure and weights vary with the seed.
    """
    if stratum == 0:
        family, name = CUT, "cut"
        n, m = 9, 12
        length = rng.choice((3, 5, 7))
        core = rng.sample(range(1, n + 1), length)
        edges = [(core[i], core[(i + 1) % length]) for i in range(length)]
    else:
        family, name = NEQ3, "neq"
        n, m = 6, 8
        core = rng.sample(range(1, n + 1), 4)
        edges = [(core[i], core[j]) for i in range(4) for j in range(i + 1, 4)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
    rng.shuffle(edges)
    constraints = [(name, e, rng.randint(1, 3)) for e in edges]
    return {
        "family": family,
        "n": n,
        "constraints": [{"f": f, "vars": list(e), "w": w} for f, e, w in constraints],
        "_fingerprint": _fingerprint(n, constraints),
    }


def certify_ops(seed: int, work: str, families: dict):
    rng = random.Random(seed)
    seen = set()
    cert = "certify_cert.json"
    index = 0
    while True:
        inst = gap_instance(rng, index % 2)
        key = inst.pop("_fingerprint")
        if key in seen:
            continue
        seen.add(key)
        path = write_json(work, f"inst{index:05d}.json", inst)
        total = sum(c["w"] for c in inst["constraints"])
        beta = f"{total - 1}/{total}"
        calls = [
            Call("gap_check", ["gap-check", path, "--json", "--gamma", "1/1",
                               "--beta", beta, "--seed", str(rng.randrange(1 << 16)),
                               "--out", cert], out_file=cert),
            Call("verify_cert", ["verify-cert", cert]),
        ]
        yield Op(index, calls, 1, _check_certify(Fraction(total - 1, total)), instance=inst)
        index += 1


def _check_certify(beta: Fraction):
    def check(results) -> list:
        problems = []
        data = _parse_json(results[0].stdout, problems)
        if data is not None:
            if data.get("is_gap") is not True:
                problems.append("gap-check did not confirm the gap")
            if data.get("lp_value") != "1/1":
                problems.append(f"lp_value {data.get('lp_value')}, expected 1/1")
            if "csp_value" in data and Fraction(data["csp_value"]) > beta:
                problems.append(f"csp_value {data['csp_value']} above {beta}")
        if not results[0].out_bytes:
            problems.append("no certificate written")
        if results[1].stdout != "PASS\n":
            problems.append(f"verify-cert printed {results[1].stdout!r}")
        return problems

    return check


# --------------------------------------------------------------------------
# family


def _table_q3k2(rng: random.Random, supporting: bool) -> list:
    # As a 3x3 matrix, a table supports one-wise independence exactly when
    # it contains a permutation matrix (Birkhoff).  An empty row or column
    # rules that out.
    if supporting:
        perm = rng.sample(range(3), 3)
        cells = {(i, perm[i]) for i in range(3)}
        free = [(i, j) for i in range(3) for j in range(3) if (i, j) not in cells]
        cells.add(rng.choice(free))
    else:
        axis, empty = rng.randrange(2), rng.randrange(3)
        free = [(i, j) for i in range(3) for j in range(3) if (i, j)[axis] != empty]
        cells = set(rng.sample(free, 4))
    return [int((i, j) in cells) for i in range(3) for j in range(3)]


def _table_q2k3(rng: random.Random, supporting: bool) -> list:
    # A tuple and its complement average to the all-1/2 marginal; three
    # tuples sharing a coordinate value cannot reach it.
    tuples = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    if supporting:
        first = rng.choice(tuples)
        chosen = {first, tuple(1 - v for v in first)}
        chosen.update(rng.sample([t for t in tuples if t not in chosen], 2))
    else:
        pos, value = rng.randrange(3), rng.randrange(2)
        chosen = set(rng.sample([t for t in tuples if t[pos] == value], 3))
    return [int(t in chosen) for t in tuples]


def generated_family(rng: random.Random, q: int, k: int) -> dict:
    """Three distinct predicates, exactly one of which supports one-wise
    independence, so `family-stats` always runs the weak/unknown branch."""
    make = _table_q3k2 if q == 3 else _table_q2k3
    pattern = [True, False, False]
    rng.shuffle(pattern)
    tables = []
    for supporting in pattern:
        table = make(rng, supporting)
        while table in tables:
            table = make(rng, supporting)
        tables.append(table)
    return {"q": q, "k": k,
            "predicates": [{"name": f"p{i}", "table": t} for i, t in enumerate(tables)]}


def family_ops(seed: int, work: str, families: dict):
    rng = random.Random(seed)
    index = 0
    while True:
        paths = [families["cut"], families["dicut"]]
        for q, k in ((3, 2), (2, 3)):
            name = f"family{index:05d}_q{q}k{k}.json"
            paths.append(write_json(work, name, generated_family(rng, q, k)))
        calls = [Call("family_stats", ["family-stats", p, "--json", "--precision", PRECISION,
                                       "--seed", str(rng.randrange(1 << 16))])
                 for p in paths]
        yield Op(index, calls, len(calls), _check_family)
        index += 1


def _check_family(results) -> list:
    problems = []
    for result in results:
        data = _parse_json(result.stdout, problems)
        if data is None:
            continue
        if Fraction(data["rho_lower"]) > Fraction(data["rho_upper"]):
            problems.append(f"rho bracket inverted: {data['rho_lower']} > {data['rho_upper']}")
    return problems


WORKLOADS = {"search": search_ops, "certify": certify_ops, "family": family_ops}
