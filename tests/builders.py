"""Shared test helpers: canonical instances, random and dense LPs, dense rows and a CLI runner."""

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
from cspgap import core
from cspgap.core import constraint_universe, constraints_of


def run_cli(args, **env):
    """`python -m cspgap.cli ARGS` in a fresh process that imports the package under test,
    with `env` added to its environment."""
    src = str(pathlib.Path(cspgap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "cspgap.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


# What the solution check says when the 5-cycle's uniform solution sets
# variable 3 to 0: constraints and positions count from 0, variables from 1.
MARGINAL_MISS = (
    "constraint 1 position 1 disagrees with the marginal of variable 3 at symbol 0"
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
    compiled = tuple(
        (rng.randint(1, max_weight), pred, scope)
        for _, pred, scope in (rng.choice(universe) for _ in range(m))
    )
    return Instance(fam, n, constraints_of(compiled))


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
    return dense_lp(objective, rows, rhs)


def dense_lp(objective, rows, rhs):
    """A problem from dense rows, given to `LpProblem` as {column: coefficient} maps."""
    labels = tuple(f"v{j}" for j in range(len(objective)))
    return LpProblem(tuple(objective), [dict(enumerate(r)) for r in rows], tuple(rhs), labels)


def dense_rows(problem):
    """The problem's stored constraint rows as dense tuples of n Fractions, zeros included."""
    dense = []
    for columns, numerators, den in problem.rows:
        row = [Fraction(0)] * problem.num_variables
        for j, v in zip(columns, numerators):
            row[j] = Fraction(v, den)
        dense.append(tuple(row))
    return tuple(dense)


def dicut_complete(t):
    """Complete bidirected instance: every ordered pair gets a dicut constraint."""
    fam = dicut_family()
    constraints = tuple(
        Constraint("dicut", pair)
        for pair in itertools.permutations(range(1, t + 1), 2)
    )
    return Instance(fam, t, constraints)


def record_upper_stream(monkeypatch):
    """Patch `core._upper_stream` so that each instance `rho_upper_empirical`
    evaluates is rebuilt as an `Instance` and appended, in order, to the list
    returned."""
    seen = []
    stream = core._upper_stream

    def recording(fam, *args):
        for n, picks in stream(fam, *args):
            seen.append(Instance(fam, n, constraints_of(picks)))
            yield n, picks

    monkeypatch.setattr(core, "_upper_stream", recording)
    return seen


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
