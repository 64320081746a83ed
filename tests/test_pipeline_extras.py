"""Cross-cutting pipeline cases: weights, random-mode search, budgets."""

from collections.abc import Mapping
from fractions import Fraction

import pytest

from builders import triangle
from oracle import vertex_enum_oracle
from cspgap import (
    BudgetError,
    Constraint,
    Instance,
    LpProblem,
    Predicate,
    PredicateFamily,
    SearchConfig,
    ValidationError,
    build_certificate,
    check_feasible,
    construct_yes_no,
    cut_family,
    dicut_family,
    gap_report,
    marginal_vector,
    no_sup_search,
    no_value,
    rho_product_lower,
    search_gap,
    solve,
    support_classification,
    to_fraction,
    verify_certificate,
)


def test_weighted_cycle_gap_certificate():
    # Doubling one edge of the five-cycle forces the optimum to spare a unit
    # edge: weight 5 of 6 is cut, while the relaxation still reaches 1.
    constraints = tuple(
        Constraint("cut", (i, i % 5 + 1), 2 if i == 1 else 1) for i in range(1, 6)
    )
    inst = Instance(cut_family(), 5, constraints)
    report = gap_report(inst)
    assert report.lp_value == 1
    assert report.csp_value == Fraction(5, 6)
    assert report.csp_witness[0] == 0 and report.csp_witness[1] == 1
    cert = build_certificate(report, Fraction(1), Fraction(5, 6), seed=1)
    assert verify_certificate(cert).ok


def test_directed_cycle_gap_values():
    inst = Instance(
        dicut_family(),
        3,
        (
            Constraint("dicut", (1, 2)),
            Constraint("dicut", (2, 3)),
            Constraint("dicut", (3, 1)),
        ),
    )
    report = gap_report(inst)
    assert report.lp_value == Fraction(1, 2)
    assert report.csp_value == Fraction(1, 3)


def test_random_mode_search_certifies_dicut_gap():
    cfg = SearchConfig(
        family=dicut_family(),
        n_min=2,
        n_max=3,
        max_constraints=4,
        gamma=Fraction(1, 2),
        beta=Fraction(1, 3),
        mode="random",
        seed=5,
        budget=300,
    )
    outcome = search_gap(cfg)
    assert outcome.found
    assert outcome.certificate.lp_value >= Fraction(1, 2)
    assert outcome.certificate.csp_value <= Fraction(1, 3)
    assert verify_certificate(outcome.certificate).ok
    rerun = search_gap(cfg)
    assert rerun.certificate == outcome.certificate


def test_two_predicate_family_search_order():
    mixed = PredicateFamily(cut_family().predicates + dicut_family().predicates)
    cfg = SearchConfig(
        family=mixed,
        n_min=2,
        n_max=2,
        max_constraints=1,
        gamma=Fraction(1),
        beta=Fraction(1, 2),
        budget=10,
    )
    from cspgap import enumerate_instances

    names = [inst.constraints[0].predicate for inst in enumerate_instances(cfg)]
    assert names == ["cut", "cut", "dicut", "dicut"]  # family order, then tuples


def test_support_classification_subfamily_cap():
    ones = tuple(
        Predicate(2, 2, f"one{i}", (1, 1, 1, 1)) for i in range(13)
    ) + (Predicate(2, 2, "is0", (1, 1, 0, 0)),)
    fam = PredicateFamily(ones)
    lower = rho_product_lower(fam, Fraction(1, 64))
    with pytest.raises(BudgetError):
        support_classification(fam, lower)


def _numbers(*values):
    for value in values:
        if isinstance(value, Mapping):
            yield from _numbers(*value.values())
        elif isinstance(value, (tuple, list)):
            yield from _numbers(*value)
        else:
            yield value


def test_every_returned_rational_is_a_fraction():
    def problem(objective, rows, rhs):
        labels = tuple(f"v{j}" for j in range(len(objective)))
        return LpProblem(objective, [dict(enumerate(r)) for r in rows], rhs, labels)

    optimal = solve(problem((1, 1), ((1, 2),), (2,)))
    infeasible = solve(problem((1,), ((1,),), (-1,)))
    unbounded = solve(problem((1, 0), ((1, -1),), (1,)))
    assert (optimal.status, infeasible.status, unbounded.status) == (
        "optimal", "infeasible", "unbounded"
    )
    feasible = check_feasible(problem((0, 0), ((1, 1),), (1,)))
    refuted = check_feasible(problem((0,), ((1,),), (-1,)))
    # rank 0: the best basic value is an empty sum
    no_rows = vertex_enum_oracle(problem((0, 0), (), ()))
    zero_rows = vertex_enum_oracle(problem((-1, 0), ((0, 0),), (0,)))
    assert no_rows.status == zero_rows.status == "optimal"

    report = gap_report(triangle())
    yes_dist, no_dist = construct_yes_no(report.instance, report.lp_witness)
    bound, kernel = no_sup_search(no_dist, budget=40)
    witness = report.lp_witness
    numbers = list(_numbers(
        optimal.value, optimal.primal, infeasible.farkas, unbounded.ray,
        feasible.point, refuted.farkas,
        no_rows.value, no_rows.primal, zero_rows.value, zero_rows.primal,
        report.lp_value, report.csp_value, report.gap,
        witness.value, witness.marginals, witness.locals_,
        yes_dist.mass, no_dist.mass, marginal_vector(yes_dist),
        no_value(no_dist, kernel), bound, kernel.rows,
        rho_product_lower(cut_family(), Fraction(1, 8)),
    ))
    assert len(numbers) > 40
    assert [v for v in numbers if type(v) is not Fraction] == []
    with pytest.raises(TypeError):  # a verified solution cannot be edited afterwards
        witness.locals_[0][(0, 0)] = Fraction(1)
    with pytest.raises(ValidationError):
        to_fraction(0.5)
