"""Data model, brute force, trivial-threshold brackets, and widths."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import (
    cycle_instance,
    dicut_complete,
    random_instance,
    record_upper_stream,
    seeded,
    single_edge,
)
from cspgap import core
from cspgap import (
    BudgetError,
    Constraint,
    Instance,
    PairDistribution,
    Predicate,
    PredicateFamily,
    ValidationError,
    brute_force_opt,
    canonical_instance,
    complete_instance,
    constant_one_family,
    csp_value,
    cut_family,
    dicut_family,
    gap_report,
    rho_product_lower,
    rho_upper_empirical,
    width,
)
from cspgap.core import digits_to_tuple, product_mass, tuple_to_digits
from oracle import (
    max_satisfied_reference,
    product_maximin_reference,
    rho_upper_reference,
    width_reference,
)


def test_predicate_table_round_trip():
    pred = Predicate(3, 2, "p", tuple(i % 2 for i in range(9)))
    for rank in range(9):
        assert pred.index_of(pred.tuple_of(rank)) == rank


def test_satisfying_tuples_are_built_once_in_rank_order():
    pred = Predicate(3, 2, "p", tuple(i % 2 for i in range(9)))
    tuples = pred.satisfying_tuples()
    assert tuples == tuple(pred.tuple_of(r) for r, v in enumerate(pred.table) if v)
    assert pred.satisfying_tuples() is tuples
    # the cached tuple is not part of equality, the hash or the repr
    fresh = Predicate(3, 2, "p", pred.table)
    assert (pred, hash(pred), repr(pred)) == (fresh, hash(fresh), repr(fresh))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_and_digit_codecs_round_trip(data):
    q = data.draw(st.integers(2, 36), label="q")
    k = data.draw(st.integers(1, 3), label="k")
    pred = Predicate(q, k, "p", (1,) * q**k)
    rank = data.draw(st.integers(0, q**k - 1), label="rank")
    values = pred.tuple_of(rank)
    assert len(values) == k and all(0 <= v < q for v in values)
    assert pred.index_of(values) == rank
    word = tuple(data.draw(st.lists(st.integers(0, q - 1), max_size=12), label="word"))
    text = tuple_to_digits(word)
    assert len(text) == len(word)
    assert digits_to_tuple(text, q) == word


@pytest.mark.parametrize(
    "rank",
    [4, 5, -1, 1 << 70, 1.0, "1", True, None],
    ids=["q^k", "q^k+1", "negative", "2^70", "float", "str", "bool", "None"],
)
def test_tuple_of_refuses_ranks_outside_the_table(rank):
    pred = Predicate(2, 2, "p", (0, 1, 1, 0))
    with pytest.raises(ValidationError):
        pred.tuple_of(rank)


def test_predicate_rejects_bad_tables():
    with pytest.raises(ValidationError):
        Predicate(2, 2, "p", (0, 1, 1))
    with pytest.raises(ValidationError):
        Predicate(2, 2, "p", (0, 1, 2, 0))
    with pytest.raises(ValidationError):
        Predicate(1, 2, "p", (0, 1))
    # the expected count is written out while it fits in 64 bits
    with pytest.raises(ValidationError, match=r"expected q\^k = 9223372036854775808$"):
        Predicate(2, 63, "x", (0, 1))
    with pytest.raises(ValidationError, match=r"expected q\^k = 2\^64$"):
        Predicate(2, 64, "x", (0, 1))


@pytest.mark.parametrize("k", [20000, 10**12])
def test_predicate_of_huge_arity_is_refused_without_its_power(k):
    # 2^20000 has more digits than int-to-str converts; 2^(10^12) never fits in memory
    with pytest.raises(ValidationError, match=rf"2 entries, expected q\^k = 2\^{k}$"):
        Predicate(2, k, "x", (0, 1))


def test_family_name_map_is_invisible():
    tables = ((0, 1, 1, 0), (0, 0, 1, 0), (1, 1, 1, 0))
    preds = tuple(Predicate(2, 2, name, t) for name, t in zip("abc", tables))
    fam = PredicateFamily(preds)
    assert fam["b"] is preds[1] and "c" in fam
    twin = PredicateFamily(tuple(Predicate(2, 2, name, t) for name, t in zip("abc", tables)))
    assert repr(fam) == repr(twin) == f"PredicateFamily(predicates={preds!r})"
    assert fam == twin and hash(fam) == hash(twin)
    with pytest.raises(KeyError):
        fam["d"]
    assert "d" not in fam and 5 not in fam
    assert fam.subfamily(["c", "a"]).names == ("c", "a")
    assert fam.subfamily(["c", "a"]) == PredicateFamily((preds[2], preds[0]))


def test_constraint_predicate_must_be_a_name():
    for name in (["cut"], {"x": 1}, 5, None):
        with pytest.raises(ValidationError, match="constraint predicate must be a name string"):
            Constraint(name, (1, 2))


def test_family_invariants():
    cut = cut_family().predicates[0]
    with pytest.raises(ValidationError):
        PredicateFamily(())
    with pytest.raises(ValidationError):
        PredicateFamily((cut, cut))
    with pytest.raises(ValidationError):
        PredicateFamily((cut, Predicate(2, 1, "other", (0, 1))))


@pytest.mark.parametrize("build", [
    lambda: Constraint("cut", (1.7, 2)),
    lambda: csp_value(single_edge(), (0.9, 1)),
    lambda: Predicate(2, 2, "x", ("0", 1, 1, 0)),
    lambda: PairDistribution(cut_family(), {("cut", (0.5, 1)): 1}),
    # A bool is no integer either; a float q or n used to pass as an int.
    lambda: Constraint("cut", (1, 2), True),
    lambda: Constraint("cut", (True, 2)),
    lambda: Instance(cut_family(), 2.0, (Constraint("cut", (1, 2)),)),
    lambda: csp_value(Instance(cut_family(), 3, (Constraint("cut", (1, 2)),)), (0, 1, True)),
    lambda: Predicate(2.0, 2, "x", (0, 1, 1, 0)),
    lambda: Predicate(2, True, "x", (0, 1)),
    lambda: Predicate(2, 2, "x", (0, True, True, 0)),
], ids=["constraint-variables", "assignment", "predicate-table", "distribution-tuple",
        "weight-bool", "variable-bool", "n-float", "assignment-bool", "q-float", "k-bool",
        "table-bool"])
def test_non_integer_entries_are_refused_not_truncated(build):
    with pytest.raises(ValidationError, match="must be integers"):
        build()


def test_integer_types_besides_int_are_accepted():
    np = pytest.importorskip("numpy")
    constraint = Constraint("cut", (np.int64(1), np.int32(2)), np.int64(3))
    assert constraint.variables == (1, 2) and constraint.weight == 3
    assert all(type(v) is int for v in (*constraint.variables, constraint.weight))
    assert csp_value(single_edge(), np.array([0, 1])) == 1
    pred = Predicate(np.int64(2), np.int32(2), "cut", (0, 1, 1, 0))
    inst = Instance(PredicateFamily((pred,)), np.int64(2), (constraint,))
    assert (type(pred.q), type(pred.k), type(inst.n)) == (int, int, int)


@pytest.mark.parametrize("values", [(0, 2), (0, 5), (-1, 1), (0, 1, 1), (0,), (0, True), (0.0, 1)])
def test_index_of_refuses_tuples_outside_the_alphabet(values):
    # Unchecked, (0, 2) and (-1, 1) ranked as (1, 0) and (1, 1) of [2]^2.
    with pytest.raises(ValidationError, match=r"not in \[q\]\^k, q = 2, k = 2|must be integers"):
        cut_family().predicates[0].index_of(values)


def test_instance_rejects_repeated_and_out_of_range_variables():
    fam = cut_family()
    with pytest.raises(ValidationError):
        Instance(fam, 3, (Constraint("cut", (1, 1)),))
    with pytest.raises(ValidationError):
        Instance(fam, 2, (Constraint("cut", (1, 3)),))
    with pytest.raises(ValidationError):
        Constraint("cut", (1, 2), 0)


def test_csp_value_single_edge():
    inst = single_edge()
    assert csp_value(inst, (0, 1)) == 1
    assert csp_value(inst, (1, 1)) == 0


def test_csp_value_c5_direct_count():
    # Independent count: edges (i, i+1 mod 5); (0,1,0,1,0) cuts all but (5,1).
    inst = cycle_instance(5)
    a = (0, 1, 0, 1, 0)
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    cut_count = sum(1 for u, v in edges if a[u - 1] != a[v - 1])
    assert cut_count == 4
    assert csp_value(inst, a) == Fraction(4, 5)


def test_csp_value_validates_assignment():
    inst = single_edge()
    with pytest.raises(ValidationError):
        csp_value(inst, (0,))
    with pytest.raises(ValidationError):
        csp_value(inst, (0, 2))


def _bitmask_max_cut(n, edges):
    # Oracle for brute_force_opt on cut instances: direct bitmask sweep.
    best = 0
    for mask in range(1 << n):
        cut = sum(1 for u, v in edges if ((mask >> (u - 1)) ^ (mask >> (v - 1))) & 1)
        best = max(best, cut)
    return best


def test_brute_force_cycles_match_bitmask_oracle():
    for n, expected in ((3, Fraction(2, 3)), (5, Fraction(4, 5))):
        inst = cycle_instance(n)
        edges = [(i, i % n + 1) for i in range(1, n + 1)]
        assert Fraction(_bitmask_max_cut(n, edges), n) == expected
        value, witness = brute_force_opt(inst)
        assert value == expected
        assert csp_value(inst, witness) == value


def test_brute_force_tie_break_is_lexicographic():
    value, witness = brute_force_opt(cycle_instance(5))
    assert value == Fraction(4, 5)
    others = [
        a
        for a in __import__("itertools").product(range(2), repeat=5)
        if csp_value(cycle_instance(5), a) == value
    ]
    assert witness == min(others)


def test_brute_force_budget():
    inst = cycle_instance(5)
    with pytest.raises(BudgetError, match="32"):
        brute_force_opt(inst, budget=31)
    with pytest.raises(BudgetError, match=r"q\^n = 2\^70 assignments"):
        brute_force_opt(Instance(inst.family, 70, inst.constraints))
    # q^n is compared only up to the budget's bit length, never built in full
    with pytest.raises(BudgetError, match=r"q\^n = 2\^1000000000000000000 assignments"):
        brute_force_opt(Instance(inst.family, 10**18, inst.constraints))


def test_brute_force_dominates_random_assignments():
    rng = seeded(11)
    for _ in range(20):
        inst = random_instance(rng, cut_family(), 5, rng.randint(1, 6), max_weight=3)
        best, _ = brute_force_opt(inst)
        for _ in range(10):
            a = tuple(rng.randrange(2) for _ in range(5))
            assert best >= csp_value(inst, a)


@st.composite
def weighted_instance(draw, qs, max_n):
    """A weighted instance over 1-3 random tables, any (q, k) with q in `qs` and k <= n."""
    q = draw(st.sampled_from(qs), label="q")
    n = draw(st.integers(1, max_n), label="n")
    k = draw(st.integers(1, min(n, 3)), label="k")
    table = st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple)
    tables = draw(st.lists(table, min_size=1, max_size=3), label="tables")
    fam = PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))
    constraint = st.builds(
        Constraint,
        st.sampled_from(fam.names),
        st.permutations(range(1, n + 1)).map(lambda order: order[:k]),
        st.integers(1, 9),
    )
    return Instance(fam, n, tuple(draw(st.lists(constraint, min_size=1, max_size=6))))


@settings(max_examples=150, deadline=None)
@given(inst=weighted_instance((2, 3, 4), 4))
def test_brute_force_is_the_optimum_and_its_smallest_maximizer(inst):
    # Against full enumeration: the optimum and its lexicographically
    # smallest maximizer.
    q, n = inst.family.q, inst.n
    values = {a: csp_value(inst, a) for a in itertools.product(range(q), repeat=n)}
    optimum = max(values.values())
    assert brute_force_opt(inst) == (optimum, min(a for a, v in values.items() if v == optimum))


@st.composite
def lane_searches(draw):
    """(q, n, compiled constraints, stop, block lanes) for `core._max_satisfied`.

    The block size runs from one lane to the default, so a small n spans one
    block or several; weights up to 10^6 vary the lane width; `stop` lies at
    or below 0, inside (0, total], at the total or above it.
    """
    q = draw(st.sampled_from((2, 3, 4)), label="q")
    k = draw(st.integers(1, 3), label="k")
    n = draw(st.integers(k, {2: 7, 3: 5, 4: 4}[q]), label="n")
    table = st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple)
    tables = draw(st.lists(table, min_size=1, max_size=3), label="tables")
    preds = [Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)]
    compiled = draw(st.lists(st.tuples(
        st.one_of(st.integers(1, 3), st.integers(1, 10**6)),
        st.sampled_from(preds),
        st.permutations(range(n)).map(lambda order: tuple(order[:k])),
    ), min_size=1, max_size=6), label="compiled")
    total = sum(weight for weight, _, _ in compiled)
    stop = draw(st.one_of(
        st.integers(-3, 0), st.integers(1, total), st.just(total), st.integers(total + 1, 2 * total)
    ), label="stop")
    block = draw(st.sampled_from((1, 2, 3, q, q * q, q**3, 5, core.BLOCK_LANES)), label="block")
    return q, n, compiled, stop, block


TIED = Predicate(2, 2, "or", (0, 1, 1, 1))


@settings(max_examples=300, deadline=None)
@given(case=lane_searches())
# or(x0, x1) + or(x2, x3) in blocks of 4 lanes: the optimum 2 first shows in
# the second block and again in every later one
@example(case=(2, 4, [(1, TIED, (0, 1)), (1, TIED, (2, 3))], 3, 4))
@example(case=(2, 4, [(1, TIED, (0, 1)), (1, TIED, (2, 3))], 2, 4))
# a stop of 0, one-lane blocks and a wide lane
@example(case=(2, 3, [(10**6, TIED, (2, 0))], 0, 1))
def test_lane_search_matches_the_plain_loop(case):
    q, n, compiled, stop, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "BLOCK_LANES", block)
        found = core._max_satisfied(q, n, compiled, stop)
    assert found == max_satisfied_reference(q, n, compiled, stop)
    assert type(found[1]) is tuple


def test_lane_search_keeps_each_lane_integer_within_one_block(monkeypatch):
    # q^n = 2^14 assignments in blocks of 16 lanes: no lane constant is
    # wider than 16 lanes.
    built = []
    lanes = core._lanes

    def recording(q, low, width):
        built.append((q**low, width, lanes(q, low, width)))
        return built[-1][2]

    monkeypatch.setattr(core, "_lanes", recording)
    monkeypatch.setattr(core, "BLOCK_LANES", 16)
    inst = cycle_instance(14)
    assert brute_force_opt(inst) == (Fraction(1), (0, 1) * 7)
    assert built and all(count == 16 for count, _, _ in built)
    for count, width, (ones, tops, symbol_lanes) in built:
        widest = max(ones, tops, *itertools.chain.from_iterable(symbol_lanes)).bit_length()
        assert widest <= count * width


def test_lane_masks_are_forgotten_when_the_store_is_full(monkeypatch):
    # A store of 2 masks for one predicate on 4 distinct scopes at n = 4 and
    # 5: the store fills and is cleared, some of the time in mid-search.
    monkeypatch.setattr(core, "MASKS_PER_PREDICATE", 2)
    fam = PredicateFamily((Predicate(2, 2, "lt", (0, 0, 1, 0)),))
    sizes = []

    class Store(dict):
        def __setitem__(self, key, mask):
            super().__setitem__(key, mask)
            sizes.append(len(self))

    object.__setattr__(fam["lt"], "_lane_masks", Store())
    scopes = [(1, 2), (2, 3), (3, 1), (4, 2)]
    for _ in range(2):  # the second pass finds some masks still stored
        for m in range(1, len(scopes) + 1):
            for n in (4, 5):
                constraints = tuple(Constraint("lt", s, w) for w, s in enumerate(scopes[:m], 1))
                inst = Instance(fam, n, constraints)
                sat, best = max_satisfied_reference(2, n, inst.compiled, inst.total_weight)
                assert brute_force_opt(inst) == (Fraction(sat, inst.total_weight), best)
    assert max(sizes) == 2
    assert sizes.count(1) > 1  # the store was cleared and refilled


def same_class_variant(data, inst) -> Instance:
    """inst with its variables relabeled, its constraints shuffled, some of
    them split into duplicates that share the weight, and every weight scaled."""
    order = data.draw(st.permutations(range(1, inst.n + 1)), label="relabeling")
    scale = data.draw(st.integers(1, 3), label="scale")
    constraints = []
    for c in inst.constraints:
        scope = tuple(order[v - 1] for v in c.variables)
        weight = c.weight * scale
        if weight > 1 and data.draw(st.booleans(), label="split"):
            part = data.draw(st.integers(1, weight - 1), label="part")
            constraints.append(Constraint(c.predicate, scope, part))
            weight -= part
        constraints.append(Constraint(c.predicate, scope, weight))
    return Instance(inst.family, inst.n, tuple(data.draw(st.permutations(constraints))))


def merged_under_own_labels(inst) -> Instance:
    """Duplicates merged, weights divided by their gcd, constraints sorted."""
    weights = {}
    for c in inst.constraints:
        weights[c.predicate, c.variables] = weights.get((c.predicate, c.variables), 0) + c.weight
    divisor = math.gcd(*weights.values())
    return Instance(inst.family, inst.n, tuple(
        Constraint(name, scope, weight // divisor)
        for (name, scope), weight in sorted(weights.items())
    ))


def optima(inst) -> tuple:
    report = gap_report(inst)
    return report.lp_value, report.csp_value


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_instance_is_an_idempotent_class_invariant(data):
    inst = data.draw(weighted_instance((2, 3), 5), label="instance")
    canonical = canonical_instance(inst)
    assert canonical_instance(same_class_variant(data, inst)) == canonical
    assert canonical_instance(canonical) == canonical
    assert (canonical.family, canonical.n) == (inst.family, inst.n)
    assert len(canonical.constraints) == len({(c.predicate, c.variables) for c in inst.constraints})
    assert math.gcd(*(c.weight for c in canonical.constraints)) == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_instance_keeps_both_optima(data):
    inst = same_class_variant(data, data.draw(weighted_instance((2, 3), 4), label="instance"))
    assert optima(canonical_instance(inst)) == optima(inst)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_instance_above_the_labeling_bound_keeps_its_labels(data):
    inst = same_class_variant(data, data.draw(weighted_instance((2,), 4), label="instance"))
    with mock.patch.object(core, "CANONICAL_LABELINGS", 0):  # every instance is above it
        canonical = canonical_instance(inst)
        assert canonical_instance(canonical) == canonical
    assert canonical == merged_under_own_labels(inst)
    assert optima(canonical) == optima(inst)


def test_canonical_instance_of_a_long_cycle_keeps_its_labels():
    # all 7 variables share one signature: 7! labelings, above the bound
    cycle = cycle_instance(7)
    doubled = Instance(cycle.family, 7, cycle.constraints[::-1] * 2)
    assert math.factorial(7) > core.CANONICAL_LABELINGS
    assert canonical_instance(doubled) == merged_under_own_labels(cycle)
    assert optima(canonical_instance(doubled)) == optima(cycle) == (1, Fraction(6, 7))


def test_canonical_instance_compares_only_signature_ordered_labelings():
    # a directed 7-path: its 5 inner variables share one signature, so 5!
    # labelings qualify where all 7! would be above the bound
    path = [(i, i + 1) for i in range(1, 7)]
    relabel = dict(zip(range(1, 8), (4, 7, 1, 3, 6, 2, 5)))
    first, second = (
        Instance(dicut_family(), 7, tuple(Constraint("dicut", scope) for scope in scopes))
        for scopes in (path, [(relabel[a], relabel[b]) for a, b in path])
    )
    assert canonical_instance(first) == canonical_instance(second) == first


def test_product_value_closed_forms():
    from cspgap import product_value

    cut = cut_family().predicates[0]
    dicut = dicut_family().predicates[0]
    for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(7, 9)):
        dist = (1 - p, p)
        assert product_value(cut, dist) == 2 * p * (1 - p)
        assert product_value(dicut, dist) == p * (1 - p)
    with pytest.raises(ValidationError):
        product_value(cut, (Fraction(1, 2), Fraction(1, 3)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_mass_is_the_scaled_sum_of_products(data):
    q = data.draw(st.integers(2, 4), label="q")
    k = data.draw(st.integers(1, 3), label="k")
    everything = list(itertools.product(range(q), repeat=k))
    tuples = data.draw(st.lists(st.sampled_from(everything), unique=True), label="tuples")
    number = st.one_of(
        st.integers(0, 5), st.fractions(min_value=0, max_value=3, max_denominator=12)
    )
    factors = data.draw(
        st.lists(st.lists(number, min_size=q, max_size=q), min_size=k, max_size=k),
        label="factors",
    )
    scale = data.draw(st.one_of(st.integers(0, 4), number), label="scale")
    plain = sum(math.prod(row[v] for row, v in zip(factors, a)) for a in tuples)
    assert product_mass(tuples, factors, scale) == scale * plain
    assert product_mass(tuples, factors) == plain


def test_rho_product_lower_examples():
    assert rho_product_lower(cut_family(), Fraction(1, 64)) == Fraction(1, 2)
    assert rho_product_lower(dicut_family(), Fraction(1, 1024)) == Fraction(1, 4)
    assert rho_product_lower(constant_one_family(), Fraction(1, 16)) == 1


def draw_family(data, q, k) -> PredicateFamily:
    table = st.one_of(
        st.just((0,) * q**k),
        st.just((1,) * q**k),
        st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple),
    )
    tables = data.draw(st.lists(table, min_size=1, max_size=3), label="tables")
    return PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rho_product_lower_matches_the_plain_scan(data):
    q = data.draw(st.sampled_from((2, 3)), label="q")
    k = data.draw(st.integers(1, 3), label="k")
    fam = draw_family(data, q, k)
    precision = data.draw(
        st.sampled_from((Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))), label="precision"
    )
    assert rho_product_lower(fam, precision) == product_maximin_reference(fam, precision)


@pytest.mark.parametrize("k", [1, 2])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_rho_product_lower_matches_the_plain_scan_at_q4(k, data):
    # At q = 4 the lattice lines (*head, t, rest - t) have a two-entry head.
    fam = draw_family(data, 4, k)
    assert rho_product_lower(fam, Fraction(1, 8)) == product_maximin_reference(fam, Fraction(1, 8))


def test_rho_product_lower_matches_the_plain_scan_at_q4_k3():
    # k = 3 at q = 4: masses of degree 3 in (c, t) on lines with a two-entry
    # head, and a maximin strictly inside the simplex that the ascent moves.
    tuples = list(itertools.product(range(4), repeat=3))
    fam = PredicateFamily((
        Predicate(4, 3, "rising", tuple(int(a < b or b < c) for a, b, c in tuples)),
        Predicate(4, 3, "apart", tuple(int(b != 0 and a != c) for a, b, c in tuples)),
    ))
    value = rho_product_lower(fam, Fraction(1, 8))
    assert value == product_maximin_reference(fam, Fraction(1, 8))
    assert value == Fraction(5510671, 2**23)


# The grid maximin 529/1024 is reached on the 15 lines c = 25..39, and the
# lines c = 45..64 cannot win and are skipped.  The ascent stays at 529/1024
# from line 25's point but climbs from the later tied lines (to 34225/65536
# from c = 26), so only the first maximizer gives the plain scan's value.
TIED_LINES = PredicateFamily((
    Predicate(3, 2, "a", (1, 1, 0, 1, 1, 0, 0, 0, 0)),
    Predicate(3, 2, "b", (0, 0, 1, 1, 0, 0, 1, 1, 1)),
))


@st.composite
def swap_symmetric_families(draw):
    """q = 3 families whose tables do not change when symbols 0 and 1 swap, so a
    maximin point (a, b, c) with a != b is tied with (b, a, c) on another line."""
    k = draw(st.integers(1, 3))
    tuples = list(itertools.product(range(3), repeat=k))
    swap = [tuples.index(tuple((1, 0, 2)[v] for v in a)) for a in tuples]
    tables = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=3**k, max_size=3**k), min_size=1, max_size=3
    ))
    return PredicateFamily(tuple(
        Predicate(3, k, f"p{i}", tuple(t[r] | t[swap[r]] for r in range(3**k)))
        for i, t in enumerate(tables)
    ))


@settings(max_examples=10, deadline=None)
@given(fam=swap_symmetric_families())
@example(fam=TIED_LINES)
def test_rho_product_lower_keeps_the_first_of_tied_lines(fam):
    # Skipped lines are those that cannot strictly raise the best, so they
    # never move the first maximizer the ascent starts from.
    value = rho_product_lower(fam, Fraction(1, 8))
    assert value == product_maximin_reference(fam, Fraction(1, 8))
    if fam is TIED_LINES:
        assert value == Fraction(529, 1024)


@pytest.mark.parametrize("q, k, tables", [
    (3, 1, ((1, 0, 1), (1, 1, 0))),
    (4, 1, ((1, 1, 0, 1), (1, 0, 1, 0))),
    (4, 2, (
        (1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1),
        (1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    )),
])
def test_rho_product_lower_scores_the_short_lines(q, k, tables):
    # Each family reaches 1 only at the corner (N, 0, ..., 0), on the last
    # lattice line, whose rest = 0 is below k; the ascent cannot climb there
    # from the best point off that line.
    fam = PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))
    assert rho_product_lower(fam, Fraction(1, 8)) == 1 == product_maximin_reference(
        fam, Fraction(1, 8)
    )


def test_rho_product_lower_rejects_bad_precision():
    with pytest.raises(ValidationError):
        rho_product_lower(cut_family(), Fraction(0))


def test_rho_upper_empirical_dicut_complete_graphs():
    # Best directed cut of the complete bidirected graph on t vertices is
    # s*(t-s) of t*(t-1) arcs: 1/3 at t=4 and 3/10 at t=5.
    assert max(s * (4 - s) for s in range(5)) == 4
    value4, _ = brute_force_opt(dicut_complete(4))
    assert value4 == Fraction(4, 12) == Fraction(1, 3)
    value5, _ = brute_force_opt(dicut_complete(5))
    assert value5 == Fraction(6, 20) == Fraction(3, 10)
    assert rho_upper_empirical(dicut_family(), 4, budget=8) == Fraction(1, 3)
    assert rho_upper_empirical(dicut_family(), 5, budget=8) <= Fraction(3, 10)


def test_rho_upper_empirical_constant_family():
    assert rho_upper_empirical(constant_one_family(), 3, budget=12) == 1


def test_rho_bracket_orders():
    for fam in (cut_family(), dicut_family(), constant_one_family()):
        lower = rho_product_lower(fam, Fraction(1, 64))
        upper = rho_upper_empirical(fam, 4, budget=24)
        assert lower <= upper + Fraction(1, 64)


def test_rho_upper_empirical_is_the_least_exact_optimum_of_its_stream(monkeypatch):
    # The stop threshold never changes the minimum: recompute every
    # evaluated instance's optimum without it.
    seen = record_upper_stream(monkeypatch)
    rng = seeded(12)
    generated = [
        PredicateFamily(tuple(
            Predicate(q, k, f"p{i}", tuple(rng.randint(0, 1) for _ in range(q**k)))
            for i in range(3)
        ))
        for q, k in ((3, 2), (2, 3), (3, 2))
    ]
    for fam in (cut_family(), dicut_family(), constant_one_family(), *generated):
        for n_max, budget, seed in ((3, 40, 0), (4, 60, 5), (5, 30, 9)):
            seen.clear()
            value = rho_upper_empirical(fam, n_max, budget=budget, seed=seed)
            one = len(fam.predicates) == 1
            assert len(seen) == (min(budget, n_max - fam.k + 1) if one else budget)
            assert value == min(brute_force_opt(inst)[0] for inst in seen)


@st.composite
def upper_cases(draw):
    """A family with q, k <= 3 and one to three predicates, n_max <= 5, budget <= 64, a seed."""
    q, k = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    tables = draw(st.lists(
        st.tuples(*[st.integers(0, 1)] * q**k), min_size=1, max_size=3
    ))
    fam = PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))
    return fam, draw(st.integers(k, 5)), draw(st.integers(1, 64)), draw(st.integers(0, 99))


TWIN_TABLES = PredicateFamily((
    Predicate(2, 2, "a", (0, 1, 1, 1)),
    Predicate(2, 2, "b", (0, 1, 1, 1)),
    Predicate(2, 2, "c", (1, 0, 0, 0)),
))


def one_predicate(q, k, table):
    return PredicateFamily((Predicate(q, k, "p", table),))


@settings(max_examples=150, deadline=None)
@given(case=upper_cases())
@example(case=(TWIN_TABLES, 4, 64, 0))
@example(case=(TWIN_TABLES, 5, 40, 3))
@example(case=(TWIN_TABLES, 3, 17, 11))
# one predicate: the reference still draws and searches 64 instances
@example(case=(cut_family(), 5, 64, 0))
@example(case=(dicut_family(), 5, 64, 7))
@example(case=(one_predicate(3, 2, (0, 1, 1, 0, 0, 1, 1, 0, 0)), 5, 64, 3))
@example(case=(one_predicate(2, 3, (0, 1, 1, 1, 1, 1, 1, 0)), 5, 64, 11))
def test_rho_upper_empirical_matches_its_reference_replay(case):
    # The compiled stream, the integer running minimum and the stop
    # threshold against real instances, each searched in full.
    fam, n_max, budget, seed = case
    value = rho_upper_empirical(fam, n_max, budget=budget, seed=seed)
    assert type(value) is Fraction
    assert value == rho_upper_reference(fam, n_max, budget, seed)


@st.composite
def one_predicate_cases(draw):
    """One predicate with q, k <= 3, n_max <= 5, budget <= 300 and any seed."""
    q, k = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    fam = one_predicate(q, k, draw(st.tuples(*[st.integers(0, 1)] * q**k)))
    return fam, draw(st.integers(k, 5)), draw(st.integers(1, 300)), draw(st.integers())


@settings(max_examples=100, deadline=None)
@given(case=one_predicate_cases())
def test_a_one_predicate_upper_end_is_its_last_complete_instance(case):
    # Relabeling [n_max] and averaging turns any instance on at most n_max
    # variables into a multiple of the complete instance on n_max, and csp
    # is convex in the weights: the stream stops after the complete
    # instances, whatever the budget and seed.
    fam, n_max, budget, seed = case
    top = min(n_max, fam.k + budget - 1)
    with pytest.MonkeyPatch.context() as patch:
        seen = record_upper_stream(patch)
        value = rho_upper_empirical(fam, n_max, budget=budget, seed=seed)
    assert seen == [complete_instance(fam, n) for n in range(fam.k, top + 1)]
    assert value == brute_force_opt(complete_instance(fam, top))[0]


# 1, then 2^e - 1, 2^e and 2^e + 1 up to 2^40: the sizes where the bit
# count changes and where a draw is rejected least and most often.
draw_sizes = st.lists(
    st.one_of(
        st.just(1),
        st.builds(lambda e, d: 2**e + d, st.integers(1, 40), st.sampled_from((-1, 0, 1))),
    ),
    max_size=40,
)


@given(seed=st.integers(0, 2**64), sizes=draw_sizes)
def test_draws_match_randrange_draw_by_draw(seed, sizes):
    # `_upper_stream` draws through `_below`; the stream of
    # `rho_upper_reference` calls randint and choice, which use randrange's rule.
    rng, twin = random.Random(seed), random.Random(seed)
    for size in sizes:
        assert core._below(rng.getrandbits, size) == twin.randrange(size)
    assert rng.getstate() == twin.getstate()


def test_rho_upper_empirical_refuses_an_over_budget_n_before_any_search(monkeypatch):
    # q^21 > DEFAULT_ASSIGNMENT_BUDGET: a stream that reaches n = 21 is
    # refused before its first instance; one that stops at n = 20 starts.
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(core, "_max_satisfied", search)
    for n_max, budget in ((21, 20), (21, 256), (40, 10**9)):
        with pytest.raises(BudgetError) as refused:
            rho_upper_empirical(cut_family(), n_max, budget=budget)
        assert str(refused.value) == (
            "exhaustive search needs q^n = 2097152 assignments, budget is 1048576"
        )
    with pytest.raises(AssertionError, match="searched"):
        rho_upper_empirical(cut_family(), 21, budget=19)


def test_rho_upper_budget_must_be_positive():
    with pytest.raises(BudgetError):
        rho_upper_empirical(cut_family(), 3, budget=0)


def test_width_examples():
    cut_report = width(cut_family())
    assert cut_report.value == 1
    assert cut_report.per_predicate["cut"].base == (0, 1)
    dicut_report = width(dicut_family())
    assert dicut_report.value == Fraction(1, 2)
    assert dicut_report.per_predicate["dicut"].base == (0, 1)
    assert width(constant_one_family()).value == 1


def test_width_shift_invariance():
    # The witness sets of b and b + c*(1,...,1) are translates of each other.
    rng = seeded(5)
    for _ in range(12):
        q = rng.choice((2, 3))
        k = rng.choice((1, 2))
        table = tuple(rng.randint(0, 1) for _ in range(q**k))
        pred = Predicate(q, k, "p", table)

        def b_width(base):
            return sum(
                pred.value(tuple((v + a) % q for v in base)) for a in range(q)
            )

        for rank in range(q**k):
            base = pred.tuple_of(rank)
            for c in range(q):
                shifted = tuple((v + c) % q for v in base)
                assert b_width(base) == b_width(shifted)


@st.composite
def width_families(draw):
    """A family with q <= 4, k <= 3 and one to three tables, all-0 and all-1 among them."""
    q, k = draw(st.integers(2, 4), label="q"), draw(st.integers(1, 3), label="k")
    table = st.one_of(
        st.just((0,) * q**k),
        st.just((1,) * q**k),
        st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple),
    )
    tables = draw(st.lists(table, min_size=1, max_size=3), label="tables")
    return PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))


@settings(max_examples=200, deadline=None)
@given(fam=width_families())
def test_width_matches_its_reference_loop(fam):
    # `WidthReport` equality reads only `value`, so the bases are compared
    # through `per_predicate` explicitly.
    report = width(fam)
    value, per_predicate = width_reference(fam)
    assert report.value == value
    assert report.per_predicate == per_predicate


def test_complete_instance_layout():
    inst = complete_instance(dicut_family(), 4)
    assert inst.m == 12
    assert inst.total_weight == 12
    assert len({c.variables for c in inst.constraints}) == 12
