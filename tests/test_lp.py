"""Exact LP solver against the vertex-enumeration oracle and its certificates."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import cycle_instance, dense_rows, random_lp, seeded, single_edge
from oracle import vertex_enum_oracle
from cspgap import (
    BudgetError,
    Constraint,
    Instance,
    LpProblem,
    ValidationError,
    build_basic_lp,
    check_feasible,
    cut_family,
    dicut_family,
    dump_lp,
    solve,
)


def lp(objective, rows, rhs):
    """A problem from dense rows, given to `LpProblem` as {column: coefficient} maps."""
    labels = tuple(f"v{i}" for i in range(len(objective)))
    return LpProblem(tuple(objective), [dict(enumerate(r)) for r in rows], tuple(rhs), labels)


def test_problem_validation():
    with pytest.raises(ValidationError):
        LpProblem((1,), ({0: 1, 1: 2},), (1,), ("a",))
    with pytest.raises(ValidationError):
        LpProblem((1, 2), (), (1,), ("a", "b"))
    with pytest.raises(ValidationError):
        LpProblem((1, 2), ((1, 2),), (1,), ("a", "a"))


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
    assert [list(row.items()) for row in loose.rows] == [list(row.items()) for row in problem.rows]
    assert {type(c) for row in loose.rows for c in row.values()} <= {Fraction}
    assert dense_rows(loose) == tuple(tuple(map(Fraction, row)) for row in dense)
    assert solve(loose) == solve(problem)
    assert dump_lp(loose) == dump_lp(problem)
    assert LpProblem(loose.objective, loose.rows, loose.rhs, loose.labels) == loose


def test_simple_optimal():
    solution = solve(lp([1], [[1]], [1]))
    assert solution.status == "optimal"
    assert solution.value == 1
    assert solution.primal == {"v0": Fraction(1)}


def test_simple_infeasible_with_farkas():
    problem = lp([1], [[1]], [-1])
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
    problem = lp([1], [], [])
    solution = solve(problem)
    assert solution.status == "unbounded"
    ray = [solution.ray[label] for label in problem.labels]
    assert all(v >= 0 for v in ray)
    assert sum(c * v for c, v in zip(problem.objective, ray)) > 0


def test_unbounded_with_constraints():
    # x0 - x1 = 1; maximize x0: ray (1, 1).
    problem = lp([1, 0], [[1, -1]], [1])
    solution = solve(problem)
    assert solution.status == "unbounded"
    ray = [solution.ray[label] for label in problem.labels]
    assert sum(c * v for c, v in zip(dense_rows(problem)[0], ray)) == 0


def test_degenerate_and_redundant_rows():
    # Duplicated constraint (redundant row) with a degenerate vertex.
    problem = lp([1, 1], [[1, 1], [1, 1], [1, -1]], [1, 1, 1])
    solution = solve(problem)
    oracle = vertex_enum_oracle(problem)
    assert solution.status == oracle.status == "optimal"
    assert solution.value == oracle.value == 1


def test_check_feasible_both_ways():
    feasible = check_feasible(lp([0], [[1]], [1]))
    assert feasible and feasible.point == {"v0": Fraction(1)}
    infeasible = check_feasible(lp([0], [[1]], [-1]))
    assert not infeasible and infeasible.farkas is not None


def test_oracle_trivial_cases():
    assert vertex_enum_oracle(lp([1], [[1]], [-1])).status == "infeasible"
    assert vertex_enum_oracle(lp([1], [], [])).status == "unbounded"
    assert vertex_enum_oracle(lp([-1], [], [])).status == "optimal"


def test_oracle_budget():
    problem = lp([1] * 10, [[1] * 10, [1, -1] + [0] * 8], [1, 0])
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
        scaled = LpProblem(
            tuple(scale * c for c in problem.objective),
            problem.rows,
            problem.rhs,
            problem.labels,
        )
        base = solve(problem)
        other = solve(scaled)
        assert base.status == other.status
        assert base.pivots == other.pivots
        if base.status == "optimal":
            assert other.value == scale * base.value
            assert other.primal == base.primal


def test_dump_lp_format():
    text = dump_lp(lp([1, 0], [[1, 1]], [1]))
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
