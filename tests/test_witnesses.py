"""Pair distributions, kernels, the yes/no construction, and one-wise support."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import cycle_instance, random_instance, seeded, triangle
from cspgap import witnesses
from cspgap import (
    PairDistribution,
    Predicate,
    PredicateFamily,
    SymbolKernel,
    ValidationError,
    constant_one_family,
    construct_yes_no,
    cut_family,
    dicut_family,
    gap_report,
    marginal_vector,
    no_sup_search,
    no_value,
    onewise_support,
    point_mass_solution,
    rho_product_lower,
    support_classification,
    yes_value,
)
from cspgap.serialize import canonical_dumps, pair_distribution_to_dict

CUT = cut_family()
HALF = Fraction(1, 2)


def uniform_cut_square():
    return PairDistribution(
        CUT, {("cut", (a, b)): Fraction(1, 4) for a in range(2) for b in range(2)}
    )


def uniform_cut_satisfying():
    return PairDistribution(CUT, {("cut", (0, 1)): HALF, ("cut", (1, 0)): HALF})


def test_pair_distribution_validation():
    with pytest.raises(ValidationError):
        PairDistribution(CUT, {("cut", (0, 1)): HALF})
    with pytest.raises(ValidationError):
        PairDistribution(CUT, {("nope", (0, 1)): Fraction(1)})
    with pytest.raises(ValidationError):
        PairDistribution(CUT, {("cut", (0, 2)): Fraction(1)})
    with pytest.raises(ValidationError):
        PairDistribution(
            CUT, {("cut", (0, 1)): Fraction(3, 2), ("cut", (1, 0)): Fraction(-1, 2)}
        )


@pytest.mark.parametrize(
    "mass",
    [{("cut",): 1}, {"cut": 1}, [(("cut", (0, 1)), HALF), (("cut", (1, 0)), HALF)]],
    ids=["short-key", "bare-name", "pair-list"],
)
def test_pair_distribution_refuses_malformed_atoms(mass):
    with pytest.raises(ValidationError):
        PairDistribution(CUT, mass)


# Yes/no pairs of two weighted instances, built once for the order test below.
SHUFFLE_CASES = [
    construct_yes_no(inst, gap_report(inst).lp_witness)
    for inst in (
        cycle_instance(5),
        random_instance(seeded(8), dicut_family(), 4, 5, max_weight=3),
    )
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pair_distribution_does_not_depend_on_atom_order(data):
    dist = data.draw(st.sampled_from([d for pair in SHUFFLE_CASES for d in pair]), label="dist")
    atoms = data.draw(st.permutations(list(dist.atoms())), label="atoms")
    shuffled = PairDistribution(dist.family, dict(atoms))
    assert shuffled == dist
    assert canonical_dumps(pair_distribution_to_dict(shuffled)) == canonical_dumps(
        pair_distribution_to_dict(dist)
    )
    assert no_sup_search(shuffled, budget=30) == no_sup_search(dist, budget=30)


def test_marginal_vector_point_mass():
    dist = PairDistribution(CUT, {("cut", (0, 1)): Fraction(1)})
    mv = marginal_vector(dist)
    assert mv["cut"][0][0] == 1
    assert mv["cut"][1][1] == 1
    assert mv["cut"][0][1] == 0
    assert mv["cut"][1][0] == 0


def test_marginal_vector_two_point_and_uniform():
    for dist in (uniform_cut_satisfying(), uniform_cut_square()):
        mv = marginal_vector(dist)
        for position in range(2):
            for symbol in range(2):
                assert mv["cut"][position][symbol] == HALF


def test_yes_value_examples():
    assert yes_value(uniform_cut_satisfying()) == 1
    assert yes_value(uniform_cut_square()) == HALF
    assert yes_value(PairDistribution(CUT, {("cut", (0, 0)): Fraction(1)})) == 0


def test_no_value_identity_kernel_equals_yes_value():
    identity = SymbolKernel.identity(2)
    for dist in (
        uniform_cut_satisfying(),
        uniform_cut_square(),
        PairDistribution(CUT, {("cut", (1, 1)): Fraction(1)}),
    ):
        assert no_value(dist, identity) == yes_value(dist)


def test_no_value_matches_closed_form_on_uniform_square():
    # For the uniform distribution on all four tuples the rerandomized value
    # is 2*p*(1-p) with p the average chance of producing symbol 1.
    dist = uniform_cut_square()
    for p0, p1 in ((Fraction(1, 3), Fraction(3, 4)), (Fraction(0), Fraction(1)),
                   (HALF, HALF), (Fraction(2, 7), Fraction(5, 9))):
        kernel = SymbolKernel(((1 - p0, p0), (1 - p1, p1)))
        p_bar = (p0 + p1) / 2
        assert no_value(dist, kernel) == 2 * p_bar * (1 - p_bar)


def test_no_value_uniform_kernel_forgets_tuples():
    # A kernel that ignores its input collapses to the uniform-assignment value.
    uniform = SymbolKernel.uniform(2)
    for dist in (uniform_cut_satisfying(), uniform_cut_square()):
        assert no_value(dist, uniform) == HALF


def test_no_sup_search_finds_analytic_maximum():
    # max over kernels of 2*p*(1-p) is 1/2 at p = 1/2.
    bound, kernel = no_sup_search(uniform_cut_square(), budget=120, seed=0)
    assert bound == HALF
    assert no_value(uniform_cut_square(), kernel) == HALF


def test_no_sup_search_at_least_identity():
    dist = uniform_cut_satisfying()
    bound, _ = no_sup_search(dist, budget=120, seed=1)
    assert bound >= no_value(dist, SymbolKernel.identity(2)) == 1


def test_no_sup_search_point_mass_satisfying():
    dist = PairDistribution(CUT, {("cut", (0, 1)): Fraction(1)})
    bound, _ = no_sup_search(dist, budget=60, seed=0)
    assert bound == 1


def test_no_sup_search_deterministic():
    dist = uniform_cut_square()
    assert no_sup_search(dist, budget=90, seed=9) == no_sup_search(dist, budget=90, seed=9)


@st.composite
def small_pair_distributions(draw):
    """A random distribution over one or two random predicates, q in {2, 3}, k in {1, 2}."""
    q, k = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    tables = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k), min_size=1, max_size=2
    ))
    fam = PredicateFamily(tuple(
        Predicate(q, k, f"p{i}", tuple(table)) for i, table in enumerate(tables)
    ))
    atoms = [(name, a) for name in fam.names for a in itertools.product(range(q), repeat=k)]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(atoms), max_size=len(atoms))
                   .filter(any))
    total = sum(weights)
    return PairDistribution(fam, {a: Fraction(w, total) for a, w in zip(atoms, weights)})


@settings(max_examples=40, deadline=None)
@given(
    dist=small_pair_distributions(),
    budget=st.integers(1, 200),
    seed=st.sampled_from([0, 1, 9]),
)
def test_no_sup_search_budget_cuts_one_kernel_stream(dist, budget, seed):
    """Budget b scores the first b kernels budget b + 1 scores; the bound never drops."""
    seen = []
    score = witnesses._KernelScorer.score

    def recording(scorer, rows):
        seen.append(rows)
        return score(scorer, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witnesses._KernelScorer, "score", recording)
        bound, kernel = no_sup_search(dist, budget, seed)
        first = seen[:]
        seen.clear()
        next_bound, _ = no_sup_search(dist, budget + 1, seed)
    assert first == seen[:budget] and len(seen) == budget + 1
    assert bound <= next_bound
    assert no_value(dist, kernel) == bound


def test_construct_yes_no_c5():
    inst = cycle_instance(5)
    report = gap_report(inst)
    yes_dist, no_dist = construct_yes_no(inst, report.lp_witness)
    assert dict(yes_dist.atoms()) == dict(uniform_cut_satisfying().atoms())
    assert dict(no_dist.atoms()) == dict(uniform_cut_square().atoms())
    assert marginal_vector(yes_dist) == marginal_vector(no_dist)
    assert yes_value(yes_dist) == report.lp_value == 1
    bound, _ = no_sup_search(no_dist, budget=120, seed=0)
    assert bound == HALF <= report.csp_value


def test_construct_yes_no_point_mass_collapses():
    rng = seeded(2)
    inst = random_instance(rng, cut_family(), 4, 4)
    a = (0, 1, 1, 0)
    sol = point_mass_solution(inst, a)
    yes_dist, no_dist = construct_yes_no(inst, sol)
    assert yes_dist == no_dist


def test_construct_yes_no_falsifier_never_beats_optimum():
    rng = seeded(31)
    for fam in (cut_family(), dicut_family()):
        for _ in range(8):
            inst = random_instance(rng, fam, 4, rng.randint(2, 6))
            report = gap_report(inst)
            _, no_dist = construct_yes_no(inst, report.lp_witness)
            for seed in range(3):
                bound, _ = no_sup_search(no_dist, budget=80, seed=seed)
                assert bound <= report.csp_value


def test_construct_yes_no_rejects_invalid_solution():
    inst = triangle()
    sol = point_mass_solution(inst, (0, 1, 0))
    from cspgap.basic_lp import LocalDistributionSolution

    # a misvalued (or infeasible) solution cannot be built, so it never gets here
    with pytest.raises(ValidationError, match="stated objective"):
        LocalDistributionSolution(inst, sol.locals_, sol.marginals, sol.value + 1)
    with pytest.raises(ValidationError, match="different instance"):
        construct_yes_no(cycle_instance(5), sol)


def test_onewise_support_cut():
    result = onewise_support(CUT.predicates[0])
    assert result.supports
    assert result.witness == {(0, 1): HALF, (1, 0): HALF}


def test_onewise_support_dicut_refuted():
    pred = dicut_family().predicates[0]
    result = onewise_support(pred)
    assert not result.supports
    y = result.refutation
    # The refutation certifies the marginal system has no solution: combined
    # with nonnegative masses the satisfying tuple's column must be
    # nonnegative while the target marginals price out negative.
    satisfying = pred.satisfying_tuples()
    assert satisfying == ((1, 0),)
    rows = [(pos, sym) for pos in range(2) for sym in range(2)]
    column = sum(
        yi for yi, (pos, sym) in zip(y, rows) if satisfying[0][pos] == sym
    )
    rhs = sum(yi * Fraction(1, 2) for yi in y)
    assert column >= 0 and rhs < 0


def test_onewise_support_constant_and_empty():
    one = constant_one_family().predicates[0]
    result = onewise_support(one)
    assert result.supports
    assert sum(result.witness.values()) == 1
    never = Predicate(2, 2, "never", (0, 0, 0, 0))
    assert not onewise_support(never).supports


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_onewise_support_witness_or_refutation_checks_out(data):
    q = data.draw(st.sampled_from([2, 3]), label="q")
    k = data.draw(st.sampled_from([1, 2, 3]), label="k")
    table = data.draw(st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k), label="table")
    pred = Predicate(q, k, "p", tuple(table))
    satisfying = pred.satisfying_tuples()
    result = onewise_support(pred)
    if result.supports:
        witness = result.witness
        assert set(witness) <= set(satisfying)
        assert all(mass > 0 for mass in witness.values())
        assert sum(witness.values()) == 1
        for position in range(k):
            for symbol in range(q):
                marginal = sum(m for a, m in witness.items() if a[position] == symbol)
                assert marginal == Fraction(1, q)
    else:
        # rows are (position, symbol) in that order, each with target 1/q
        y = result.refutation
        assert len(y) == k * q
        for a in satisfying:
            assert sum(y[position * q + a[position]] for position in range(k)) >= 0
        assert sum(y) * Fraction(1, q) < 0


def classify(fam, **options):
    return support_classification(fam, rho_product_lower(fam, Fraction(1, 64)), **options)


def test_support_classification():
    assert classify(CUT).kind == "strong"
    assert classify(dicut_family()).kind == "none"
    assert classify(constant_one_family()).kind == "strong"


def test_support_classification_weak():
    from cspgap import PredicateFamily

    # "first0" has no uniform-marginal satisfying distribution (all its
    # satisfying tuples fix the first coordinate), but both predicates are
    # satisfied with probability one by the all-zeros product assignment, so
    # the trivial threshold of the pair is 1 and is already achieved by the
    # strongly-supporting subfamily {one}: provably weak support.
    one = constant_one_family().predicates[0]
    first0 = Predicate(2, 2, "first0", (1, 1, 0, 0))
    mixed = PredicateFamily((one, first0))
    result = classify(mixed, n_max=3, upper_budget=16)
    assert result.kind == "weak"
    assert result.subfamily == ("one",)
    assert result.supporting == ("one",)


def test_support_classification_unknown_when_brackets_overlap():
    from cspgap import PredicateFamily

    # {cut, dicut}: the cut predicate supports one-wise independence but the
    # family threshold (1/4 from dicut) sits strictly below any small-size
    # upper bound for {cut}, so the brackets cannot prove equality.
    mixed = PredicateFamily(cut_family().predicates + dicut_family().predicates)
    result = classify(mixed, n_max=4, upper_budget=48)
    assert result.kind == "unknown"
    assert result.supporting == ("cut",)
