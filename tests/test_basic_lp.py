"""Relaxation construction, decoding, and the special-purpose feasible solutions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import cycle_instance, random_instance, seeded, single_edge, triangle
from cspgap import (
    Constraint,
    Instance,
    Predicate,
    PredicateFamily,
    ValidationError,
    brute_force_opt,
    build_basic_lp,
    constant_one_family,
    csp_value,
    cut_family,
    dicut_family,
    gap_report,
    lp_from_onewise,
    lp_from_width,
    onewise_support,
    point_mass_solution,
    solve_basic_lp,
)
from cspgap.basic_lp import LocalDistributionSolution, decode_primal
from cspgap.serialize import solution_from_dict, solution_to_dict


def test_build_sizes_single_edge():
    problem = build_basic_lp(single_edge())
    assert problem.num_variables == 2 * 2 + 1 * 4 == 8
    assert problem.num_rows == 2 + 1 * 2 * 2


def test_build_sizes_c5():
    problem = build_basic_lp(cycle_instance(5))
    assert problem.num_variables == 5 * 2 + 5 * 4 == 30
    assert problem.num_rows == 5 + 5 * 2 * 2 == 25


def test_objective_coefficients_are_weight_shares():
    inst = Instance(
        cut_family(),
        3,
        (Constraint("cut", (1, 2), 3), Constraint("cut", (2, 3), 1)),
    )
    problem = build_basic_lp(inst)
    coeff = dict(zip(problem.labels, problem.objective))
    assert coeff["y[1,01]"] == Fraction(3, 4)
    assert coeff["y[1,10]"] == Fraction(3, 4)
    assert coeff["y[1,00]"] == 0
    assert coeff["y[2,01]"] == Fraction(1, 4)
    assert coeff["x[1,0]"] == 0


def test_solve_c5_and_triangle():
    assert solve_basic_lp(cycle_instance(5)).value == 1
    assert solve_basic_lp(triangle()).value == 1


def test_single_satisfiable_constraint_reaches_one():
    sol = solve_basic_lp(single_edge())
    assert sol.value == 1


def test_gap_report_values():
    report = gap_report(cycle_instance(5))
    assert (report.lp_value, report.csp_value) == (1, Fraction(4, 5))
    assert report.is_gap(1, Fraction(4, 5))
    assert not report.is_gap(1, Fraction(1, 2))
    report3 = gap_report(triangle())
    assert (report3.lp_value, report3.csp_value) == (1, Fraction(2, 3))
    edge = gap_report(single_edge())
    assert (edge.lp_value, edge.csp_value) == (1, 1)


def test_decode_round_trip_consistency():
    inst = cycle_instance(4)
    problem = build_basic_lp(inst)
    from cspgap import solve

    solution = solve(problem)
    decoded = decode_primal(inst, solution.primal, solution.value)
    # the constructor re-checks every exact consistency equality
    rebuilt = LocalDistributionSolution(inst, decoded.locals_, decoded.marginals, decoded.value)
    assert rebuilt == decoded


def test_point_mass_embedding_matches_csp_value():
    rng = seeded(3)
    for _ in range(15):
        inst = random_instance(rng, cut_family(), 4, rng.randint(1, 5), max_weight=2)
        a = tuple(rng.randrange(2) for _ in range(4))
        sol = point_mass_solution(inst, a)
        assert sol.value == csp_value(inst, a)


@st.composite
def weighted_instance_and_assignment(draw):
    """A weighted instance over random q=3/k=2 or q=2/k=3 tables, and an assignment."""
    q, k = draw(st.sampled_from([(3, 2), (2, 3)]))
    table = st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple)
    tables = draw(st.lists(table, min_size=1, max_size=3))
    fam = PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))
    n = draw(st.integers(k, 5))
    constraint = st.builds(
        Constraint,
        st.sampled_from(fam.names),
        st.permutations(range(1, n + 1)).map(lambda order: order[:k]),
        st.integers(1, 4),
    )
    constraints = tuple(draw(st.lists(constraint, min_size=1, max_size=6)))
    assignment = tuple(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    return Instance(fam, n, constraints), assignment


@settings(max_examples=150, deadline=None)
@given(case=weighted_instance_and_assignment())
def test_point_mass_value_is_the_assignment_value(case):
    inst, assignment = case
    assert point_mass_solution(inst, assignment).value == csp_value(inst, assignment)


def _supported_family(q, k, name, holds):
    cube = itertools.product(range(q), repeat=k)
    return PredicateFamily((Predicate(q, k, name, tuple(int(holds(a)) for a in cube)),))


# Weighted instances of families whose one predicate supports one-wise
# independence, so that lp_from_onewise contributes a solution too.
NEQ3 = Instance(
    _supported_family(3, 2, "neq", lambda a: a[0] != a[1]), 3,
    (Constraint("neq", (1, 2), 2), Constraint("neq", (3, 1))),
)
NAE2 = Instance(
    _supported_family(2, 3, "nae", lambda a: len(set(a)) > 1), 4,
    (Constraint("nae", (1, 2, 3)), Constraint("nae", (4, 3, 2), 3)),
)


@settings(max_examples=80, deadline=None)
@given(case=weighted_instance_and_assignment())
@example(case=(NEQ3, (0, 1, 1)))
@example(case=(NAE2, (0, 1, 0, 1)))
def test_every_builder_round_trips_through_its_distributions(case):
    inst, assignment = case
    solutions = [solve_basic_lp(inst), point_mass_solution(inst, assignment), lp_from_width(inst)]
    witnesses = {p.name: onewise_support(p).witness for p in inst.family.predicates}
    if all(witnesses[c.predicate] is not None for c in inst.constraints):
        solutions.append(lp_from_onewise(inst, witnesses))
    for sol in solutions:
        maps = [sol.local_distribution(ci) for ci in range(inst.m)]
        rebuilt = LocalDistributionSolution.from_distributions(inst, maps, sol.marginals, sol.value)
        assert rebuilt == sol
        assert solution_from_dict(solution_to_dict(sol), inst) == sol


@pytest.mark.parametrize("key, replaced", [
    ((0, 2), (1, 0)), ((0, 5), (1, 1)), ((0, 1, 1), (1, 1)), ((-1, 1), (1, 1)),
])
def test_lp_from_onewise_refuses_tuples_outside_the_alphabet(key, replaced):
    # A uniform witness on the always-true predicate with one atom respelled.
    # Unchecked, each key ranked as the atom it replaces, except (0, 5), which
    # ranked past the end of the table.
    witness = {a: Fraction(1, 4) for a in itertools.product(range(2), repeat=2)}
    witness.pop(replaced)
    witness[key] = Fraction(1, 4)
    constraints = (Constraint("one", (1, 2)), Constraint("one", (3, 2)))
    inst = Instance(constant_one_family(), 3, constraints)
    with pytest.raises(ValidationError, match=r"is not in \[q\]\^k"):
        lp_from_onewise(inst, {"one": witness})


def test_lp_from_onewise_refuses_a_witness_that_is_not_a_mapping():
    with pytest.raises(ValidationError, match="must be a mapping"):
        lp_from_onewise(triangle(), {"cut": [((0, 1), 1)]})


@pytest.mark.parametrize("t", range(1, 6))
def test_cut_on_odd_cycle_has_exact_values(t):
    report = gap_report(cycle_instance(2 * t + 1))
    assert (report.lp_value, report.csp_value) == (1, Fraction(2 * t, 2 * t + 1))


def test_relaxation_dominates_brute_force():
    rng = seeded(17)
    for fam in (cut_family(), dicut_family()):
        for _ in range(10):
            inst = random_instance(rng, fam, 4, rng.randint(1, 6), max_weight=2)
            best, _ = brute_force_opt(inst)
            assert solve_basic_lp(inst).value >= best


def test_verify_rejects_broken_solutions():
    inst = single_edge()
    sol = solve_basic_lp(inst)
    # Perturb one local mass: the distribution no longer sums to one.
    broken_locals = (tuple(
        v + Fraction(1, 1000) if rank == 0 else v
        for rank, v in enumerate(sol.locals_[0])
    ),)
    with pytest.raises(ValidationError, match="does not sum to 1"):
        LocalDistributionSolution(inst, broken_locals, sol.marginals, sol.value)
    with pytest.raises(ValidationError, match="stated objective"):
        LocalDistributionSolution(inst, sol.locals_, sol.marginals, sol.value - Fraction(1, 7))


def test_lp_from_onewise_cut():
    witness = onewise_support(cut_family().predicates[0]).witness
    for inst in (cycle_instance(5), cycle_instance(4), triangle()):
        sol = lp_from_onewise(inst, {"cut": witness})
        assert sol.value == 1
        assert sol.marginals[0] == (Fraction(1, 2), Fraction(1, 2))


def test_lp_from_onewise_requires_witness():
    with pytest.raises(ValidationError):
        lp_from_onewise(triangle(), {})
    bad = {(0, 0): Fraction(1)}  # supported on an unsatisfying tuple
    with pytest.raises(ValidationError):
        lp_from_onewise(triangle(), {"cut": bad})
    skewed = {(0, 1): Fraction(1)}  # non-uniform marginals
    with pytest.raises(ValidationError):
        lp_from_onewise(triangle(), {"cut": skewed})
    half = {(0, 1): Fraction(1, 4), (1, 0): Fraction(1, 4)}  # total mass 1/2
    with pytest.raises(ValidationError):
        lp_from_onewise(triangle(), {"cut": half})
    negative = {(0, 0): Fraction(-1, 2), (0, 1): Fraction(1), (1, 0): Fraction(1, 2)}
    with pytest.raises(ValidationError):
        lp_from_onewise(triangle(), {"cut": negative})


def test_lp_from_width_dicut():
    rng = seeded(23)
    for _ in range(10):
        inst = random_instance(rng, dicut_family(), 5, rng.randint(1, 6), max_weight=2)
        sol = lp_from_width(inst)
        assert sol.value == Fraction(1, 2)
        # Each local distribution is the two-point shift orbit of (0, 1).
        for ci in range(inst.m):
            dist = sol.local_distribution(ci)
            assert dist == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        assert solve_basic_lp(inst).value >= Fraction(1, 2)


def test_lp_from_width_cut_and_constant():
    assert lp_from_width(cycle_instance(5)).value == 1
    from cspgap import constant_one_family

    fam = constant_one_family()
    inst = Instance(fam, 2, (Constraint("one", (1, 2)),))
    assert lp_from_width(inst).value == 1
