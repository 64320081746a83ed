"""Relaxation construction, decoding, and the special-purpose feasible solutions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import cycle_instance, dense_rows, random_instance, seeded, single_edge, triangle
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
from cspgap.core import digits_to_tuple
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
        maps = [dict(dist) for dist in sol.locals_]
        assert LocalDistributionSolution(inst, maps, sol.marginals, sol.value) == sol
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
    masses = dict(sol.locals_[0])
    masses[(0, 0)] = masses.get((0, 0), 0) + Fraction(1, 1000)
    broken_locals = (masses,)
    with pytest.raises(ValidationError, match="does not sum to 1"):
        LocalDistributionSolution(inst, broken_locals, sol.marginals, sol.value)
    with pytest.raises(ValidationError, match="stated objective"):
        LocalDistributionSolution(inst, sol.locals_, sol.marginals, sol.value - Fraction(1, 7))


HALVES = [{(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}] * 3


@pytest.mark.parametrize("maps, marginals, value", [
    (HALVES, ((0.5, 0.5),) * 3, 1),
    ([{(0, 1): 1}, {(1, 0): 1}, {(0, 0): 1}], ((True, False), (False, True), (True, False)),
     Fraction(2, 3)),
    (HALVES, ((Fraction(1, 2), Fraction(1, 2)),) * 3, 1.0),
], ids=["float marginal", "bool marginal", "float value"])
def test_solution_refuses_inexact_marginals_and_values(maps, marginals, value):
    with pytest.raises(ValidationError, match="must be integers"):
        LocalDistributionSolution(triangle(), maps, marginals, value)


def test_solution_reads_numpy_integer_marginals_as_ints():
    np = pytest.importorskip("numpy")
    marginals = ((np.int64(1), np.int64(0)), (np.int64(0), np.int64(1)))
    sol = LocalDistributionSolution(single_edge(), [{(0, 1): np.int64(1)}], marginals, np.int64(1))
    assert sol == point_mass_solution(single_edge(), (0, 1))
    assert {type(v) for row in sol.marginals for v in row} | {type(sol.value)} == {Fraction}


@st.composite
def small_instance(draw, shapes):
    """An instance over a (q, k) from `shapes`.

    It has 1-2 random predicates, k <= n <= 4 variables, 1-4 constraints and weights 1-3.
    """
    q, k = draw(st.sampled_from(shapes))
    table = st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple)
    tables = draw(st.lists(table, min_size=1, max_size=2))
    fam = PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))
    n = draw(st.integers(k, 4))
    constraint = st.builds(
        Constraint,
        st.sampled_from(fam.names),
        st.permutations(range(1, n + 1)).map(lambda order: order[:k]),
        st.integers(1, 3),
    )
    return Instance(fam, n, tuple(draw(st.lists(constraint, min_size=1, max_size=4))))


def stride_lp(inst):
    """The basic LP as dense (objective, rows, rhs), written independently of `build_basic_lp`.

    Column (C, rank) holds the mass of the tuple whose digit at position pos
    is (rank // q**(k-1-pos)) % q, the stride arithmetic that
    `bench/run.py:highs_lp_value` uses for its HiGHS cross-check.
    """
    fam, n = inst.family, inst.n
    q, k = fam.q, fam.k
    size, num_x = q**k, n * q
    cols = num_x + inst.m * size
    total = sum(c.weight for c in inst.constraints)
    objective = [Fraction(0)] * cols
    rows = [[Fraction(int(i * q <= j < (i + 1) * q)) for j in range(cols)] for i in range(n)]
    rhs = [Fraction(1)] * n
    for ci, c in enumerate(inst.constraints):
        base = num_x + ci * size
        for rank, bit in enumerate(fam[c.predicate].table):
            objective[base + rank] = Fraction(bit * c.weight, total)
        for pos, variable in enumerate(c.variables):
            for symbol in range(q):
                row = [Fraction(0)] * cols
                for rank in range(size):
                    if (rank // q ** (k - 1 - pos)) % q == symbol:
                        row[base + rank] = Fraction(1)
                row[(variable - 1) * q + symbol] = Fraction(-1)
                rows.append(row)
                rhs.append(Fraction(0))
    return tuple(objective), tuple(map(tuple, rows)), tuple(rhs)


@settings(max_examples=60, deadline=None)
@given(inst=small_instance([(q, k) for q in (2, 3) for k in (1, 2, 3)]))
def test_basic_lp_layout_matches_stride_arithmetic(inst):
    problem = build_basic_lp(inst)
    assert (problem.objective, dense_rows(problem), problem.rhs) == stride_lp(inst)


@st.composite
def perturbed_solution(draw):
    """An instance with q^k <= 27 and the masses of one of its feasible points, edited once.

    The edit is a marginal-preserving swap (mass moves from tuples a and b to
    the two tuples that exchange their coordinates in a position set S; S and
    its complement give the same pair, so S is a nonempty proper subset), which
    stays feasible unless it drives a mass negative; a move of mass from one
    tuple to another, which breaks the marginals unless the tuples are equal;
    or a single-entry perturbation, which breaks the sum.
    """
    inst = draw(small_instance([(2, 2), (3, 2), (2, 3), (3, 3)]))
    q, k, n = inst.family.q, inst.family.k, inst.n
    if draw(st.booleans()):
        sol = solve_basic_lp(inst)
    else:
        sol = point_mass_solution(inst, draw(st.tuples(*[st.integers(0, q - 1)] * n)))
    maps = [dict(dist) for dist in sol.locals_]
    dist = maps[draw(st.integers(0, inst.m - 1))]
    cube = st.tuples(*[st.integers(0, q - 1)] * k)
    edit = draw(st.sampled_from(["swap", "move", "bump"]))
    if edit == "swap":
        support = st.sampled_from(sorted(dist))
        a, b = draw(support), draw(st.one_of(support, cube))
        swapped = draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
        a2 = tuple(b[pos] if pos in swapped else a[pos] for pos in range(k))
        b2 = tuple(a[pos] if pos in swapped else b[pos] for pos in range(k))
        delta = Fraction(draw(st.integers(0, 4)), 4) * dist[a]
        for atom, sign in ((a, -1), (b, -1), (a2, 1), (b2, 1)):
            dist[atom] = dist.get(atom, 0) + sign * delta
    elif edit == "move":
        a, b = draw(st.sampled_from(sorted(dist))), draw(cube)
        delta = Fraction(draw(st.integers(1, 4)), 4) * dist[a]
        dist[a] -= delta
        dist[b] = dist.get(b, 0) + delta
    else:
        atom = draw(cube)
        dist[atom] = dist.get(atom, 0) + Fraction(draw(st.sampled_from([-2, -1, 1, 3])), 4)
    return inst, maps, sol.marginals


@settings(max_examples=60, deadline=None)
@given(case=perturbed_solution())
def test_solution_checks_agree_with_the_lp_rows(case):
    inst, maps, marginals = case
    problem = build_basic_lp(inst)

    def column(label):
        first, second = label[2:-1].split(",")
        if label[0] == "x":
            return marginals[int(first) - 1][int(second)]
        return maps[int(first) - 1].get(digits_to_tuple(second, inst.family.q), 0)

    x = [column(label) for label in problem.labels]
    value = sum(c * v for c, v in zip(problem.objective, x))
    feasible = min(x) >= 0 and all(
        sum(a * v for a, v in zip(row, x)) == b
        for row, b in zip(dense_rows(problem), problem.rhs)
    )
    try:
        sol = LocalDistributionSolution(inst, maps, marginals, value)
    except ValidationError:
        assert not feasible
    else:
        assert feasible and sol.value == value


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
            assert sol.locals_[ci] == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
        assert solve_basic_lp(inst).value >= Fraction(1, 2)


def test_lp_from_width_cut_and_constant():
    assert lp_from_width(cycle_instance(5)).value == 1
    from cspgap import constant_one_family

    fam = constant_one_family()
    inst = Instance(fam, 2, (Constraint("one", (1, 2)),))
    assert lp_from_width(inst).value == 1
