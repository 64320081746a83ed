"""Pair distributions, kernels, the yes/no construction, and one-wise support."""

import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import cycle_instance, random_instance, seeded, triangle
from cspgap import search
from cspgap import witnesses
from cspgap import (
    PairDistribution,
    Constraint,
    Instance,
    Predicate,
    PredicateFamily,
    SymbolKernel,
    ValidationError,
    constant_one_family,
    construct_yes_no,
    cut_family,
    dicut_family,
    gap_report,
    lp_from_onewise,
    marginal_vector,
    no_sup_search,
    no_value,
    onewise_support,
    point_mass_solution,
    rho_product_lower,
    solve_basic_lp,
    support_classification,
    yes_value,
)
from cspgap.serialize import canonical_dumps, pair_distribution_to_dict
from oracle import construct_yes_no_reference, kernel_stream_reference, no_value_reference

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


def mixed_fractions(numerators):
    """Rationals p/d over unrelated denominators d <= 30, p drawn from `numerators`."""
    return st.builds(Fraction, numerators, st.integers(1, 30))


@st.composite
def mixed_pair_distributions(draw):
    """Up to six atoms over one or two random predicates, q in {2, 3}, k in {1, 2, 3},
    weighted p/d with mixed denominators before they are normalized."""
    q, k = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2, 3]))
    tables = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k), min_size=1, max_size=2
    ))
    fam = PredicateFamily(tuple(
        Predicate(q, k, f"p{i}", tuple(table)) for i, table in enumerate(tables)
    ))
    cube = list(itertools.product(range(q), repeat=k))
    atoms = draw(st.lists(
        st.tuples(st.sampled_from(fam.names), st.sampled_from(cube)),
        min_size=1, max_size=6, unique=True,
    ))
    weights = draw(st.lists(mixed_fractions(st.integers(1, 5)),
                            min_size=len(atoms), max_size=len(atoms)))
    total = sum(weights)
    return PairDistribution(fam, {a: w / total for a, w in zip(atoms, weights)})


def mixed_kernel_rows(q):
    """Kernel rows over [q] whose entries have unrelated denominators, not only /64."""
    row = st.lists(mixed_fractions(st.integers(0, 6)), min_size=q, max_size=q).filter(any)
    normalized = row.map(lambda r: tuple(v / sum(r) for v in r))
    return st.lists(normalized, min_size=q, max_size=q).map(tuple)


def count_kernel_rows(q):
    """Kernel rows over [q] as int counts summing to `SNAP_DENOMINATOR`, the
    form the kernel search scores: each row cut at q - 1 sorted points."""
    grid = witnesses.SNAP_DENOMINATOR
    cuts = st.lists(st.integers(0, grid), min_size=q - 1, max_size=q - 1).map(sorted)
    row = cuts.map(lambda c: tuple(b - a for a, b in zip([0, *c], [*c, grid])))
    return st.lists(row, min_size=q, max_size=q).map(tuple)


def k3_family(q):
    """Two arity-3 predicates over [q]: all-distinct (q = 3) or majority
    (q = 2), and coordinate sum 0 mod q."""
    cube = list(itertools.product(range(q), repeat=3))
    first = (lambda a: len(set(a)) == 3) if q == 3 else (lambda a: sum(a) >= 2)
    return PredicateFamily((
        Predicate(q, 3, "first", tuple(int(first(a)) for a in cube)),
        Predicate(q, 3, "sum0", tuple(int(sum(a) % q == 0) for a in cube)),
    ))


# k = 3 on both alphabets, over mixed denominators
K3_CASES = [
    (PairDistribution(k3_family(2), {
        ("first", (1, 1, 0)): Fraction(1, 3), ("sum0", (1, 0, 1)): Fraction(2, 5),
        ("first", (0, 1, 1)): Fraction(4, 15),
    }), ((16, 48), (40, 24))),
    (PairDistribution(k3_family(3), {
        ("first", (0, 1, 2)): Fraction(1, 7), ("sum0", (1, 1, 1)): Fraction(3, 7),
        ("first", (2, 0, 1)): Fraction(2, 7), ("sum0", (2, 0, 1)): Fraction(1, 7),
    }), ((10, 20, 34), (0, 64, 0), (33, 1, 30))),
]


@settings(max_examples=150, deadline=None)
@given(case=mixed_pair_distributions().flatmap(
    lambda dist: st.tuples(st.just(dist), count_kernel_rows(dist.family.q))
))
@example(case=K3_CASES[0])
@example(case=K3_CASES[1])
def test_integer_scorer_equals_the_reference_exactly(case):
    dist, counts = case
    scorer = witnesses._KernelScorer(dist)
    score = scorer.score(counts)
    assert type(score) is int
    rows = tuple(tuple(Fraction(c, witnesses.SNAP_DENOMINATOR) for c in row) for row in counts)
    reference = witnesses._ReferenceScorer(dist)
    assert scorer.fraction(score) == reference.score(counts) == reference.value(rows)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_value_scores_kernels_off_the_grid_exactly(data):
    """A stored kernel may have any denominators; `no_value` is the plain sum on it."""
    dist = data.draw(mixed_pair_distributions(), label="dist")
    rows = data.draw(mixed_kernel_rows(dist.family.q), label="rows")
    assert no_value(dist, SymbolKernel(rows)) == no_value_reference(dist, rows)


def q4_distribution():
    """A q = 4 no-side over neq and lt with mixed weights."""
    fam = PredicateFamily((
        Predicate(4, 2, "neq", tuple(int(a != b) for a in range(4) for b in range(4))),
        Predicate(4, 2, "lt", tuple(int(a < b) for a in range(4) for b in range(4))),
    ))
    weights = {("neq", (0, 1)): Fraction(1, 3), ("neq", (2, 2)): Fraction(1, 6),
               ("lt", (3, 1)): Fraction(2, 7), ("lt", (0, 2)): Fraction(3, 14)}
    return PairDistribution(fam, weights)


@settings(max_examples=30, deadline=None)
@given(
    dist=mixed_pair_distributions(),
    budget=st.integers(1, 400),
    seed=st.sampled_from([0, 1, 7, 2**31 + 5]),
)
@example(dist=q4_distribution(), budget=400, seed=3)
def test_kernel_stream_equals_the_fraction_stream(dist, budget, seed):
    """The counts the prover scores are, over 1/64, the kernels of the
    `Fraction` stream one by one, through the q^q kernels, the lattice and
    into the ascent; the search returns the reference's (bound, kernel)."""
    seen = []
    score = witnesses._KernelScorer.score

    def recording(scorer, rows):
        seen.append(tuple(tuple(Fraction(c, witnesses.SNAP_DENOMINATOR) for c in row)
                          for row in rows))
        return score(scorer, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witnesses._KernelScorer, "score", recording)
        result = no_sup_search(dist, budget, seed)
    kernels, bound, rows = kernel_stream_reference(dist, budget, seed)
    assert seen == kernels
    assert result == (bound, SymbolKernel(rows))


@settings(max_examples=30, deadline=None)
@given(
    dist=mixed_pair_distributions(),
    budget=st.integers(1, 150),
    seed=st.integers(0, 2**32),
)
def test_no_sup_search_equals_the_reference_search(dist, budget, seed):
    """The prover's search and verify-cert's replay on the reference agree on every stream."""
    reference = witnesses._kernel_search(dist, budget, seed, witnesses._ReferenceScorer)
    assert no_sup_search(dist, budget, seed) == reference


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


@st.composite
def yes_no_cases(draw):
    """(instance, solution) over 1-2 random predicates, q <= 3, k <= 3, weights
    1-3, n <= k + 2: the relaxation's optimum, a point mass or a one-wise solution."""
    q = draw(st.sampled_from((2, 3)), label="q")
    k = draw(st.integers(1, 3), label="k")
    kind = draw(st.sampled_from(["lp", "point", "onewise"]), label="kind")
    tables = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k), min_size=1, max_size=2
    ), label="tables")
    if kind == "onewise":  # the constant tuples have uniform marginals
        constant = {a * (q**k - 1) // (q - 1) for a in range(q)}
        tables = [[int(r in constant or bit) for r, bit in enumerate(t)] for t in tables]
    fam = PredicateFamily(tuple(
        Predicate(q, k, f"p{i}", tuple(table)) for i, table in enumerate(tables)
    ))
    n = draw(st.integers(k, k + 2), label="n")
    inst = Instance(fam, n, draw(st.lists(st.builds(
        Constraint,
        st.sampled_from(fam.names),
        st.permutations(range(1, n + 1)).map(lambda order: tuple(order[:k])),
        st.integers(1, 3),
    ), min_size=1, max_size=4), label="constraints"))
    if kind == "lp":
        return inst, solve_basic_lp(inst)
    if kind == "point":
        return inst, point_mass_solution(inst, draw(st.lists(
            st.integers(0, q - 1), min_size=n, max_size=n
        ), label="assignment"))
    return inst, lp_from_onewise(inst, {p.name: onewise_support(p).witness for p in fam.predicates})


@settings(max_examples=60, deadline=None)
@given(case=yes_no_cases())
def test_construct_yes_no_equals_the_fraction_reference(case):
    """The integer sums give the `Fraction` pair, atom for atom and in the same order."""
    inst, sol = case
    pair = construct_yes_no(inst, sol)
    reference = construct_yes_no_reference(inst, sol)
    assert pair == reference
    assert [list(dist.atoms()) for dist in pair] == [list(dist.atoms()) for dist in reference]


def test_construct_yes_no_and_canonical_dumps_leave_no_garbage_cycles():
    """Neither leaves a reference cycle (a recursive closure would, one per
    call), so a run's memory does not wait on the cyclic collector."""
    report = gap_report(cycle_instance(5))
    cert = search.certificate_to_dict(search.build_certificate(report, 1, Fraction(4, 5)))
    gc.collect()
    gc.disable()
    try:
        construct_yes_no(report.instance, report.lp_witness)
        canonical_dumps(cert)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
