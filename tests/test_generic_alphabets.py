"""Non-binary alphabets and non-binary arities, end to end.

The rest of the suite leans on q = k = 2 families; these tests pin the
generic code paths: base-q digit handling, marginal strides, simplex
lattices over larger alphabets, and kernel search with q^q > 4 symbol maps.
"""

import itertools
from fractions import Fraction

from builders import seeded
from cspgap import (
    Constraint,
    Instance,
    Predicate,
    PredicateFamily,
    PairDistribution,
    SymbolKernel,
    brute_force_opt,
    build_certificate,
    construct_yes_no,
    gap_report,
    marginal_vector,
    no_sup_search,
    no_value,
    onewise_support,
    rho_product_lower,
    solve_basic_lp,
    support_classification,
    verify_certificate,
    width,
)


def ternary_neq_family():
    table = tuple(0 if a == b else 1 for a in range(3) for b in range(3))
    return PredicateFamily((Predicate(3, 2, "neq", table),))


def k4_coloring_instance():
    fam = ternary_neq_family()
    constraints = tuple(
        Constraint("neq", pair) for pair in itertools.combinations(range(1, 5), 2)
    )
    return Instance(fam, 4, constraints)


def test_ternary_family_stats():
    fam = ternary_neq_family()
    assert onewise_support(fam.predicates[0]).supports
    assert width(fam).value == 1
    lower = rho_product_lower(fam, Fraction(1, 64))
    assert support_classification(fam, lower, n_max=3, upper_budget=8).kind == "strong"
    # The exact maximin is 2/3 (uniform product assignment); the power-of-two
    # lattice never contains (1/3, 1/3, 1/3), so the bound sits just below.
    assert Fraction(2, 3) - Fraction(1, 64) <= lower <= Fraction(2, 3)


def test_k4_coloring_gap_and_certificate():
    inst = k4_coloring_instance()
    report = gap_report(inst)
    assert report.lp_value == 1
    assert report.csp_value == Fraction(5, 6)  # K4 is not 3-colorable
    cert = build_certificate(report, Fraction(1), Fraction(5, 6), seed=2,
                             no_sup_budget=100)
    assert cert.no_sup_bound <= Fraction(5, 6)
    result = verify_certificate(cert)
    assert result.ok


def test_ternary_yes_no_marginals_match():
    inst = k4_coloring_instance()
    # The solver may return any optimal vertex; the derived pair must match
    # marginals regardless.
    yes_dist, no_dist = construct_yes_no(inst, solve_basic_lp(inst))
    assert marginal_vector(yes_dist) == marginal_vector(no_dist)

    # The uniform-marginal solution pins every entry to exactly 1/3.
    from cspgap import lp_from_onewise

    witness = onewise_support(inst.family.predicates[0]).witness
    uniform_sol = lp_from_onewise(inst, {"neq": witness})
    yes_u, no_u = construct_yes_no(inst, uniform_sol)
    mv = marginal_vector(yes_u)
    assert mv == marginal_vector(no_u)
    for position in range(2):
        for symbol in range(3):
            assert mv["neq"][position][symbol] == Fraction(1, 3)


def test_ternary_kernel_search_budget_and_identity():
    fam = ternary_neq_family()
    uniform = Fraction(1, 9)
    dist = PairDistribution(
        fam, {("neq", (a, b)): uniform for a in range(3) for b in range(3)}
    )
    assert no_value(dist, SymbolKernel.identity(3)) == Fraction(2, 3)
    bound, kernel = no_sup_search(dist, budget=80, seed=0)
    # Any permutation kernel keeps the two coordinates independent uniform,
    # so 2/3 is the exact supremum here and the search must reach it.
    assert bound == Fraction(2, 3)
    assert no_value(dist, kernel) == bound


def test_arity_three_not_all_equal():
    nae = Predicate(2, 3, "nae", (0, 1, 1, 1, 1, 1, 1, 0))
    fam = PredicateFamily((nae,))
    assert onewise_support(nae).supports
    assert width(fam).value == 1
    rng = seeded(6)
    for _ in range(5):
        variables = list(range(1, 6))
        constraints = tuple(
            Constraint("nae", tuple(rng.sample(variables, 3))) for _ in range(4)
        )
        inst = Instance(fam, 5, constraints)
        assert solve_basic_lp(inst).value == 1
        assert brute_force_opt(inst)[0] <= 1


def test_arity_one_predicates():
    is0 = Predicate(2, 1, "is0", (1, 0))
    fam = PredicateFamily((is0,))
    assert not onewise_support(is0).supports
    assert width(fam).value == Fraction(1, 2)
    inst = Instance(fam, 2, (Constraint("is0", (1,)), Constraint("is0", (2,))))
    assert solve_basic_lp(inst).value == 1
    assert brute_force_opt(inst) == (Fraction(1), (0, 0))


def _no_value_oracle(dist, kernel):
    # Full product expansion over every output tuple; independent of the
    # satisfying-tuples evaluator used by no_value.
    total = Fraction(0)
    for (name, values), weight in dist.atoms():
        pred = dist.family[name]
        for rank in range(pred.q**pred.k):
            target = pred.tuple_of(rank)
            if not pred.value(target):
                continue
            term = weight
            for source, out in zip(values, target):
                term *= kernel.rows[source][out]
            total += term
    return total


def test_no_value_matches_full_expansion_oracle():
    rng = seeded(8)
    families = [ternary_neq_family(), PredicateFamily(
        (Predicate(2, 3, "nae", (0, 1, 1, 1, 1, 1, 1, 0)),)
    )]
    for fam in families:
        q, k = fam.q, fam.k
        pred = fam.predicates[0]
        for _ in range(6):
            weights = [rng.randint(0, 4) for _ in range(q**k)]
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            dist = PairDistribution(fam, {
                (pred.name, pred.tuple_of(rank)): Fraction(w, total)
                for rank, w in enumerate(weights) if w
            })
            rows = []
            for _ in range(q):
                raw = [rng.randint(0, 3) for _ in range(q)]
                if not any(raw):
                    raw[0] = 1
                s = sum(raw)
                rows.append(tuple(Fraction(v, s) for v in raw))
            kernel = SymbolKernel(tuple(rows))
            assert no_value(dist, kernel) == _no_value_oracle(dist, kernel)
