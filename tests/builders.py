"""Shared test helpers: canonical instances, random LPs, dense LP rows and a CLI runner."""

import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import cspgap
from cspgap import Constraint, Instance, LpProblem, cut_family, dicut_family
from cspgap.core import constraint_universe


def run_cli(args):
    """`python -m cspgap.cli ARGS` in a fresh process that imports the package under test."""
    src = str(pathlib.Path(cspgap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "cspgap.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def cycle_instance(n, fam=None, name="cut"):
    fam = fam or cut_family()
    constraints = tuple(Constraint(name, (i, i % n + 1)) for i in range(1, n + 1))
    return Instance(fam, n, constraints)


def triangle():
    return cycle_instance(3)


def single_edge():
    return Instance(cut_family(), 2, (Constraint("cut", (1, 2)),))


def random_instance(rng, fam, n, m, max_weight=1):
    universe = constraint_universe(fam, n)
    constraints = tuple(
        Constraint(c.predicate, c.variables, rng.randint(1, max_weight))
        for c in (rng.choice(universe) for _ in range(m))
    )
    return Instance(fam, n, constraints)


def random_lp(rng, max_vars=12, max_rows=5):
    """Small random standard-form LP with a mix of outcomes.

    Roughly half the problems get a simplex-style bounding row so that
    optimal instances are well represented next to infeasible and unbounded
    ones.
    """
    n = rng.randint(1, max_vars)
    m = rng.randint(0, min(n, max_rows))
    rows = [
        [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
    ]
    rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
    if rng.random() < 0.5:
        rows.append([Fraction(1)] * n)
        rhs.append(Fraction(rng.randint(1, 3)))
    objective = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
    labels = tuple(f"v{j}" for j in range(n))
    return LpProblem(objective, [dict(enumerate(r)) for r in rows], tuple(rhs), labels)


def dense_rows(problem):
    """The problem's sparse constraint rows as dense tuples of n Fractions, zeros included."""
    zero = Fraction(0)
    columns = range(problem.num_variables)
    return tuple(tuple(row.get(j, zero) for j in columns) for row in problem.rows)


def dicut_complete(t):
    """Complete bidirected instance: every ordered pair gets a dicut constraint."""
    fam = dicut_family()
    constraints = tuple(
        Constraint("dicut", pair)
        for pair in itertools.permutations(range(1, t + 1), 2)
    )
    return Instance(fam, t, constraints)


def seeded(seed):
    return random.Random(seed)


def mutate_leaves(data):
    """Yield (path, mutated copy) pairs, one canonical mutation per leaf."""

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                yield from walk(node[key], path + [key])
        elif isinstance(node, list):
            for idx, item in enumerate(node):
                yield from walk(item, path + [idx])
        else:
            yield path, node

    def with_mutation(path, value):
        copy = json.loads(json.dumps(data))
        target = copy
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return copy

    for path, leaf in walk(data, []):
        if isinstance(leaf, bool):
            mutated = not leaf
        elif isinstance(leaf, int):
            mutated = leaf + 7
        elif isinstance(leaf, str) and "/" in leaf:
            num, den = leaf.split("/")
            mutated = f"{int(num) + 1}/{den}"
        elif isinstance(leaf, str):
            mutated = leaf + "x"
        else:
            continue
        yield ".".join(map(str, path)), with_mutation(path, mutated)
