"""Exact LP solver against the vertex-enumeration oracle and its certificates."""

import re
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cspgap.lp
from builders import cycle_instance, dense_lp, dense_rows, random_lp, seeded, single_edge
from oracle import vertex_enum_oracle
from cspgap import (
    BudgetError,
    Constraint,
    Instance,
    InternalError,
    LpProblem,
    ValidationError,
    build_basic_lp,
    check_feasible,
    cut_family,
    dicut_family,
    dump_lp,
    solve,
)
from cspgap.lp import _check_dual, _check_primal


def test_problem_validation():
    with pytest.raises(ValidationError):
        LpProblem((1,), ({0: 1, 1: 2},), (1,), ("a",))
    with pytest.raises(ValidationError):
        LpProblem((1, 2), (), (1,), ("a", "b"))
    with pytest.raises(ValidationError):
        LpProblem((1, 2), ((1, 2),), (1,), ("a", "a"))


def test_a_tableau_over_the_budget_is_refused_before_it_is_built(monkeypatch):
    # one row and two variables: a tableau of 2 x 4 cells
    problem = LpProblem((1, 0), ({0: 1, 1: 1},), (1,), ("a", "b"))
    monkeypatch.setattr(cspgap.lp, "TABLEAU_CELL_BUDGET", 7)
    for run in (solve, check_feasible):
        message = "^the LP has 1 rows and 2 columns, a tableau of 8 cells; budget is 7$"
        with pytest.raises(BudgetError, match=message):
            run(problem)
    monkeypatch.setattr(cspgap.lp, "TABLEAU_CELL_BUDGET", 8)
    assert solve(problem).value == 1


@pytest.mark.parametrize(
    "rows, labels",
    [
        (((1,),), ("a",)),
        (({1: 1},), ("a",)),
        (({-1: 1},), ("a",)),
        (({True: 1},), ("a",)),
        (({0: 0.5},), ("a",)),
        (({0: 1},), (0,)),
    ],
    ids=["dense row", "column >= n", "negative column", "bool column", "float", "int label"],
)
def test_problem_refuses_malformed_rows_and_labels(rows, labels):
    with pytest.raises(ValidationError):
        LpProblem((1,), rows, (1,), labels)


entries = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rows_in_any_mapping_form_give_one_problem(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    dense = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    objective = data.draw(st.lists(entries, min_size=n, max_size=n))
    rhs = data.draw(st.lists(entries, min_size=m, max_size=m))
    labels = tuple(f"v{j}" for j in range(n))
    shuffled = [{j: row[j] for j in data.draw(st.permutations(range(n)))} for row in dense]
    canonical = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in dense]
    loose = LpProblem(objective, shuffled, rhs, labels)
    problem = LpProblem(objective, canonical, rhs, labels)
    assert loose == problem
    assert loose.rows == problem.rows and hash(loose) == hash(problem)
    for (columns, numerators, den), row in zip(loose.rows, dense):
        assert list(columns) == sorted(set(columns)) and 0 not in numerators
        assert {type(v) for v in (*columns, *numerators, den)} == {int}
        assert den == lcm(*[Fraction(v).denominator for v in row])
    assert dense_rows(loose) == tuple(tuple(map(Fraction, row)) for row in dense)
    assert solve(loose) == solve(problem)
    assert dump_lp(loose) == dump_lp(problem)


def test_simple_optimal():
    solution = solve(dense_lp([1], [[1]], [1]))
    assert solution.status == "optimal"
    assert solution.value == 1
    assert solution.primal == {"v0": Fraction(1)}


def test_simple_infeasible_with_farkas():
    problem = dense_lp([1], [[1]], [-1])
    solution = solve(problem)
    assert solution.status == "infeasible"
    y = solution.farkas
    # y.A >= 0 columnwise and y.b < 0, checked here independently.
    assert all(
        sum(yi * row[j] for yi, row in zip(y, dense_rows(problem))) >= 0
        for j in range(problem.num_variables)
    )
    assert sum(yi * bi for yi, bi in zip(y, problem.rhs)) < 0


def test_simple_unbounded_with_ray():
    problem = dense_lp([1], [], [])
    solution = solve(problem)
    assert solution.status == "unbounded"
    ray = [solution.ray[label] for label in problem.labels]
    assert all(v >= 0 for v in ray)
    assert sum(c * v for c, v in zip(problem.objective, ray)) > 0


def test_unbounded_with_constraints():
    # x0 - x1 = 1; maximize x0: ray (1, 1).
    problem = dense_lp([1, 0], [[1, -1]], [1])
    solution = solve(problem)
    assert solution.status == "unbounded"
    ray = [solution.ray[label] for label in problem.labels]
    assert sum(c * v for c, v in zip(dense_rows(problem)[0], ray)) == 0


def test_degenerate_and_redundant_rows():
    # Duplicated constraint (redundant row) with a degenerate vertex.
    problem = dense_lp([1, 1], [[1, 1], [1, 1], [1, -1]], [1, 1, 1])
    solution = solve(problem)
    oracle = vertex_enum_oracle(problem)
    assert solution.status == oracle.status == "optimal"
    assert solution.value == oracle.value == 1


def test_check_feasible_both_ways():
    feasible = check_feasible(dense_lp([0], [[1]], [1]))
    assert feasible and feasible.point == {"v0": Fraction(1)}
    infeasible = check_feasible(dense_lp([0], [[1]], [-1]))
    assert not infeasible and infeasible.farkas is not None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_check_feasible_agrees_with_solve(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    dense = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    objective = data.draw(st.lists(entries, min_size=n, max_size=n))
    rhs = data.draw(st.lists(entries, min_size=m, max_size=m))
    problem = dense_lp(objective, dense, rhs)
    solution, result = solve(problem), check_feasible(problem)
    assert bool(result) == (solution.status != "infeasible")
    if result:
        x = [result.point[label] for label in problem.labels]
        assert all(v >= 0 for v in x)
        for row, b in zip(dense_rows(problem), problem.rhs):
            assert sum(c * v for c, v in zip(row, x)) == b
    else:
        assert result.farkas == solution.farkas


def test_certificate_rules_accept_the_solver_and_refuse_what_they_must():
    rng = seeded(307)
    statuses = []
    for _ in range(60):
        problem = random_lp(rng, max_vars=7, max_rows=4)
        n, m = problem.num_variables, problem.num_rows
        solution, feasible = solve(problem), check_feasible(problem)
        statuses.append(solution.status)
        if solution.status == "infeasible":
            y = solution.farkas
            value = sum(yi * b for yi, b in zip(y, problem.rhs))
            assert value < 0
            _check_dual(problem, y, [0] * n, value)
            with pytest.raises(InternalError, match="y.b = value"):
                _check_dual(problem, y, [0] * n, value + Fraction(1, 7))
            # y.A itself is the tightest objective the rule accepts.
            tight = [sum(yi * row[j] for yi, row in zip(y, dense_rows(problem))) for j in range(n)]
            _check_dual(problem, y, tight, value)
            j = rng.randrange(n)
            tight[j] += 1
            with pytest.raises(InternalError, match=f"column {j}"):
                _check_dual(problem, y, tight, value)
            continue
        if solution.status == "optimal":
            x, rhs = solution.primal, list(problem.rhs)
            _check_primal(problem, [feasible.point[v] for v in problem.labels], rhs, "point")
        else:
            x, rhs = solution.ray, [0] * m
        x = [x[label] for label in problem.labels]
        _check_primal(problem, x, rhs, "point")
        negative = list(x)
        negative[rng.randrange(n)] = Fraction(-1)
        with pytest.raises(InternalError, match="negative coordinate"):
            _check_primal(problem, negative, rhs, "point")
        if m:
            i = rng.randrange(m)
            rhs[i] += 1
            with pytest.raises(InternalError, match=f"violates row {i}"):
                _check_primal(problem, x, rhs, "point")
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}


def reference_primal(problem, x, rhs, what):
    """The primal rule in plain Fraction arithmetic over dense rows: the failure, or None."""
    if any(v < 0 for v in x):
        return "negative coordinate"
    for i, (row, b) in enumerate(zip(dense_rows(problem), rhs)):
        if sum(Fraction(c) * v for c, v in zip(row, x)) != b:
            return f"violates row {i}"
    return None


def reference_dual(problem, y, objective, value):
    """The dual rule in plain Fraction arithmetic over dense rows: the failure, or None."""
    rows = dense_rows(problem)
    for j, c in enumerate(objective):
        if c > sum(Fraction(yi) * row[j] for yi, row in zip(y, rows)):
            return f"column {j}"
    if sum(Fraction(yi) * b for yi, b in zip(y, problem.rhs)) != value:
        return "y.b = value"
    return None


def agree(rule, reference, *args):
    """`rule` raises exactly when `reference` names a failure, with that failure in its message."""
    expected = reference(*args)
    if expected is None:
        rule(*args)
    else:
        with pytest.raises(InternalError, match=re.escape(expected)):
            rule(*args)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_rules_agree_with_a_plain_fraction_reference(data):
    """The integer rules against the Fraction reference, on random LPs with
    fractional rows and on solver vectors, edited once or not at all."""
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    vector = lambda size: st.lists(entries, min_size=size, max_size=size)
    dense = data.draw(st.lists(vector(n), min_size=m, max_size=m))
    problem = dense_lp(data.draw(vector(n)), dense, data.draw(vector(m)))
    solution = solve(problem)

    def edit(values):
        values = list(values)
        if values and data.draw(st.booleans()):
            values[data.draw(st.integers(0, len(values) - 1))] += data.draw(entries)
        return values

    if solution.status == "optimal":
        x, rhs = [solution.primal[v] for v in problem.labels], list(problem.rhs)
    elif solution.status == "unbounded":
        x, rhs = [solution.ray[v] for v in problem.labels], [0] * m
    else:
        x, rhs = data.draw(vector(n)), list(problem.rhs)
    agree(_check_primal, reference_primal, problem, edit(x), edit(rhs), "point")

    y = list(solution.farkas) if solution.status == "infeasible" else data.draw(vector(m))
    tight = [sum(Fraction(yi) * row[j] for yi, row in zip(y, dense_rows(problem))) for j in range(n)]
    value = sum(Fraction(yi) * b for yi, b in zip(y, problem.rhs))
    objective = [c - data.draw(st.sampled_from([0, 0, Fraction(1, 3), 2])) for c in tight]
    agree(_check_dual, reference_dual, problem, edit(y), edit(objective), value)
    agree(_check_dual, reference_dual, problem, y, objective, value + data.draw(entries))


def test_oracle_trivial_cases():
    assert vertex_enum_oracle(dense_lp([1], [[1]], [-1])).status == "infeasible"
    assert vertex_enum_oracle(dense_lp([1], [], [])).status == "unbounded"
    assert vertex_enum_oracle(dense_lp([-1], [], [])).status == "optimal"


def test_oracle_budget():
    problem = dense_lp([1] * 10, [[1] * 10, [1, -1] + [0] * 8], [1, 0])
    with pytest.raises(BudgetError):
        vertex_enum_oracle(problem, basis_budget=10)


def test_single_edge_relaxation_value_by_vertex_enumeration():
    # The 8-variable relaxation polytope of one cut constraint has optimum 1.
    problem = build_basic_lp(single_edge())
    assert problem.num_variables == 8
    oracle = vertex_enum_oracle(problem)
    assert oracle.status == "optimal"
    assert oracle.value == 1
    assert solve(problem).value == 1


def test_solver_agrees_with_oracle_on_random_lps():
    rng = seeded(101)
    for _ in range(60):
        problem = random_lp(rng, max_vars=9, max_rows=4)
        got = solve(problem)
        want = vertex_enum_oracle(problem)
        assert got.status == want.status
        if got.status == "optimal":
            assert got.value == want.value


def test_returned_primal_is_exact_and_canonical():
    rng = seeded(7)
    for _ in range(20):
        problem = random_lp(rng, max_vars=7, max_rows=3)
        solution = solve(problem)
        if solution.status != "optimal":
            continue
        x = [solution.primal[label] for label in problem.labels]
        for row, b in zip(dense_rows(problem), problem.rhs):
            assert sum(c * v for c, v in zip(row, x)) == b
        assert all(v >= 0 for v in x)
        for v in x:
            assert v.denominator >= 1  # Fractions are canonical by construction


def test_pivot_count_within_basis_bound():
    rng = seeded(13)
    for _ in range(25):
        problem = random_lp(rng, max_vars=7, max_rows=3)
        solution = solve(problem)
        total_cols = problem.num_variables + problem.num_rows
        assert solution.pivots <= comb(total_cols, problem.num_rows) + problem.num_rows


def test_objective_scaling_preserves_path():
    rng = seeded(29)
    for _ in range(15):
        problem = random_lp(rng, max_vars=6, max_rows=3)
        scale = Fraction(7, 3)
        scaled = dense_lp(
            [scale * c for c in problem.objective], dense_rows(problem), problem.rhs
        )
        base = solve(problem)
        other = solve(scaled)
        assert base.status == other.status
        assert base.pivots == other.pivots
        if base.status == "optimal":
            assert other.value == scale * base.value
            assert other.primal == base.primal


def test_dump_lp_format():
    text = dump_lp(dense_lp([1, 0], [[1, 1]], [1]))
    lines = text.splitlines()
    assert lines[0] == "maximize 1/1 v0"
    assert lines[1] == "subject to 1/1 v0 + 1/1 v1 = 1/1"
    assert lines[-1] == "all variables >= 0"
    empty = dump_lp(LpProblem((0, 0), ({},), (0,), ("v0", "v1"))).splitlines()
    assert empty[:2] == ["maximize 0/1", "subject to 0/1 = 0/1"]


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def chorded_cycle(rng, fam, name):
    """C9 plus three weighted chords: a 57-row relaxation, beyond vertex enumeration."""
    cycle = cycle_instance(9, fam, name)
    chords = set()
    while len(chords) < 3:
        u, v = sorted(rng.sample(range(1, 10), 2))
        if v - u not in (1, 8):
            chords.add((u, v))
    constraints = [Constraint(name, c.variables, rng.randint(1, 3)) for c in cycle.constraints]
    constraints += [Constraint(name, pair, rng.randint(1, 3)) for pair in sorted(chords)]
    return Instance(fam, 9, tuple(constraints))


def test_solver_agrees_with_highs_beyond_the_oracle():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = seeded(211)
    problems = [
        build_basic_lp(chorded_cycle(rng, fam, name))
        for fam, name in [(cut_family(), "cut"), (dicut_family(), "dicut")] * 4
    ]
    assert {p.num_rows for p in problems} == {57}
    problems += [random_lp(rng, max_vars=30, max_rows=12) for _ in range(40)]
    statuses = set()
    for problem in problems:
        got = solve(problem)
        want = linprog(
            [-float(c) for c in problem.objective],
            A_eq=[[float(v) for v in row] for row in dense_rows(problem)] or None,
            b_eq=[float(b) for b in problem.rhs] or None,
            bounds=(0, None),
            method="highs",
        )
        assert got.status == HIGHS_STATUS[want.status]
        if got.status == "optimal":
            assert abs(float(got.value) + want.fun) <= 1e-9
        statuses.add(got.status)
    assert statuses == set(HIGHS_STATUS.values())
