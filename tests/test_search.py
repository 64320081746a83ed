"""Instance enumeration, gap search, and certificate verification."""

import itertools
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cspgap.basic_lp
import cspgap.core
import cspgap.lp
import cspgap.search
import cspgap.witnesses
from builders import cycle_instance, triangle
from cspgap import (
    BudgetError,
    Constraint,
    Instance,
    InternalError,
    PairDistribution,
    SearchConfig,
    SymbolKernel,
    ValidationError,
    brute_force_opt,
    build_certificate,
    canonical_instance,
    certificate_from_dict,
    certificate_to_dict,
    construct_yes_no,
    cut_family,
    dicut_family,
    enumerate_instances,
    gap_report,
    no_sup_search,
    point_mass_solution,
    rho_upper_empirical,
    search_gap,
    solve_basic_lp,
    verify_certificate,
)
from cspgap.cli import main
from cspgap.core import BLOCK_LANES, Predicate, PredicateFamily
from cspgap.rationals import to_fraction
from cspgap.search import EXHAUSTIVE, RANDOM, check_targets
from cspgap.witnesses import check_no_sup_budget, support_classification


DATA = Path(__file__).resolve().parent.parent / "data"
C5_REPORT = gap_report(cycle_instance(5))
C5_NO = construct_yes_no(C5_REPORT.instance, C5_REPORT.lp_witness)[1]


def c5_certificate(**options):
    return build_certificate(C5_REPORT, Fraction(1), Fraction(4, 5), **options)


def cfg(**kwargs):
    defaults = dict(
        family=cut_family(),
        n_min=2,
        n_max=3,
        max_constraints=3,
        gamma=Fraction(1),
        beta=Fraction(4, 5),
        budget=500,
    )
    defaults.update(kwargs)
    return SearchConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValidationError):
        cfg(gamma=Fraction(1, 2), beta=Fraction(1, 2))
    with pytest.raises(ValidationError):
        cfg(gamma=Fraction(3, 2))
    with pytest.raises(ValidationError):
        cfg(n_min=1)
    with pytest.raises(ValidationError):
        cfg(budget=0)
    with pytest.raises(ValidationError):
        cfg(mode="other")


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_no_sup_budget(True),
        lambda: check_no_sup_budget(2.5),
        lambda: cfg(budget=2.5),
        lambda: cfg(n_max=3.5),
        lambda: cfg(max_constraints=Fraction(2)),
        lambda: cfg(seed=0.5),
        lambda: support_classification(cut_family(), 0.5),
        lambda: c5_certificate(seed=0.5),
        lambda: c5_certificate(seed=True),
        lambda: no_sup_search(C5_NO, 40, seed=0.5),
        lambda: rho_upper_empirical(cut_family(), 3, budget=2.5),
        lambda: rho_upper_empirical(cut_family(), 3.5),
        lambda: to_fraction(True),
        lambda: SymbolKernel(((True, False), (False, True))),
        lambda: support_classification(cut_family(), True),
        lambda: check_targets(True, False),
    ],
    ids=["no-sup-bool", "no-sup-float", "budget", "n_max", "max_constraints", "seed",
         "rho_lower", "certificate-float-seed", "certificate-bool-seed",
         "kernel-search-float-seed", "upper-float-budget", "upper-float-n-max",
         "bool-fraction", "bool-kernel", "bool-rho_lower", "bool-targets"],
)
def test_search_and_witness_entry_points_refuse_inexact_numbers(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call, plain",
    [
        (lambda np: c5_certificate(no_sup_budget=np.int64(5)),
         lambda: c5_certificate(no_sup_budget=5)),
        (lambda np: no_sup_search(C5_NO, 40, seed=np.int64(3)),
         lambda: no_sup_search(C5_NO, 40, seed=3)),
        (lambda np: rho_upper_empirical(cut_family(), np.int64(3), np.int64(8), np.int64(7)),
         lambda: rho_upper_empirical(cut_family(), 3, 8, 7)),
    ],
    ids=["certificate-budget", "kernel-search-seed", "upper-empirical"],
)
def test_seeded_entry_points_take_numpy_integers_as_ints(call, plain):
    np = pytest.importorskip("numpy")
    assert call(np) == plain()


@pytest.mark.parametrize(
    "call, plain",
    [
        (lambda np: to_fraction(np.int64(1)), lambda: Fraction(1)),
        (lambda np: build_certificate(C5_REPORT, np.int64(1), Fraction(4, 5)),
         lambda: c5_certificate()),
        (lambda np: PairDistribution(cut_family(), {("cut", (0, 1)): np.int64(1)}),
         lambda: PairDistribution(cut_family(), {("cut", (0, 1)): 1})),
        (lambda np: SymbolKernel(((np.int64(1), np.int64(0)), (0, 1))),
         lambda: SymbolKernel(((1, 0), (0, 1)))),
    ],
    ids=["to-fraction", "certificate-gamma", "pair-weight", "kernel-entry"],
)
def test_rationals_take_numpy_integers_by_the_integer_rule(call, plain):
    np = pytest.importorskip("numpy")
    assert call(np) == plain()


def test_enumeration_is_lexicographic_and_includes_triangle():
    stream = list(itertools.islice(enumerate_instances(cfg()), 500))
    tri = triangle()
    assert any(
        inst.n == 3 and inst.constraints == tri.constraints for inst in stream
    )
    # unit weights and sorted constraint lists throughout
    for inst in stream:
        assert all(c.weight == 1 for c in inst.constraints)
        assert list(inst.constraints) == sorted(
            inst.constraints, key=lambda c: (c.predicate, c.variables)
        )


def test_enumeration_single_constraint_block():
    config = cfg(n_min=2, n_max=2, max_constraints=1)
    stream = list(enumerate_instances(config))
    assert [c.variables for inst in stream for c in inst.constraints] == [
        (1, 2),
        (2, 1),
    ]


def test_random_stream_is_deterministic():
    config = cfg(mode="random", seed=42, budget=30)
    first = [
        inst.constraints
        for inst in itertools.islice(enumerate_instances(config), 30)
    ]
    second = [
        inst.constraints
        for inst in itertools.islice(enumerate_instances(config), 30)
    ]
    assert first == second


def test_search_finds_triangle_first():
    outcome = search_gap(cfg(beta=Fraction(2, 3)))
    assert outcome.found
    cert = outcome.certificate
    assert cert.instance.n == 3
    assert cert.lp_value == 1
    assert cert.csp_value == Fraction(2, 3)
    assert {c.variables for c in cert.instance.constraints} == {
        (1, 2), (1, 3), (2, 3),
    }
    assert verify_certificate(cert).ok


def test_search_none_within_budget():
    # Gap targets nothing can reach: every nonempty cut instance has an
    # assignment cutting at least half the weight.
    outcome = search_gap(cfg(beta=Fraction(1, 3), n_max=3, budget=300))
    assert not outcome.found
    # the whole exhaustive space for this configuration fits the budget
    assert outcome.evaluated == 9 + 83 == 92
    assert outcome.qualifying == 0


def test_search_single_constraint_instances_have_no_gap():
    outcome = search_gap(cfg(max_constraints=1, beta=Fraction(99, 100), budget=50))
    assert not outcome.found


def test_search_maximize_gap_scans_budget():
    config = cfg(n_max=4, max_constraints=3, beta=Fraction(4, 5), budget=400)
    first = search_gap(config)
    best = search_gap(config, maximize_gap=True)
    assert first.found and best.found
    assert best.evaluated == 400
    gap_of = lambda c: c.lp_value - c.csp_value
    assert gap_of(best.certificate) >= gap_of(first.certificate)


@pytest.mark.parametrize("maximize_gap", [False, True], ids=["first-hit", "maximize-gap"])
def test_search_solves_one_relaxation_per_class(maximize_gap, monkeypatch):
    """One solve per canonical class of the evaluated prefix whose first
    member has csp <= beta, on that first member, and none more: the
    certified instance is the first member of its class, so its solve is
    the certificate's.  A class above beta cannot qualify and is never
    solved, no class is proved by the unit dual, and `gap_report` is never
    called."""
    solved = []
    original_solve = cspgap.basic_lp.solve_basic_lp

    def counting(inst):
        solved.append(inst)
        return original_solve(inst)

    def no_proof(solution):
        raise AssertionError("gap-search proved a relaxation value by the unit dual")

    def no_report(*args, **kwargs):
        raise AssertionError("gap-search called gap_report")

    monkeypatch.setattr(cspgap.search, "solve_basic_lp", counting)
    monkeypatch.setattr(cspgap.basic_lp, "solve_basic_lp", counting)
    monkeypatch.setattr(cspgap.search, "unit_optimum", no_proof)
    monkeypatch.setattr(cspgap.basic_lp, "gap_report", no_report)
    config = cfg(n_max=4, max_constraints=4, beta=Fraction(3, 4), budget=300)
    outcome = search_gap(config, maximize_gap=maximize_gap)
    stream = list(itertools.islice(enumerate_instances(config), outcome.evaluated))
    first = {}  # class -> its first member, in stream order
    for inst in stream:
        first.setdefault(canonical_instance(inst), inst)
    at_most_beta = [inst for inst in first.values() if brute_force_opt(inst)[0] <= config.beta]
    assert outcome.found and len(first) < len(stream)
    assert at_most_beta and len(at_most_beta) < len(first)
    assert solved == at_most_beta
    assert outcome.certificate.instance in solved


def test_search_refuses_a_chosen_instance_its_relaxation_was_not_solved_on(monkeypatch):
    # No dicut instance within the search's small sizes has csp below 1/3,
    # so the stream is set: the directed triangle (lp 1/2, csp 1/3), then
    # the bidirected K5 (lp 1/2, csp 3/10), which has the larger gap.
    directed = Instance(dicut_family(), 3, tuple(
        Constraint("dicut", e) for e in ((1, 2), (2, 3), (3, 1))
    ))
    k5 = Instance(dicut_family(), 5, tuple(
        Constraint("dicut", (u, v)) for u in range(1, 6) for v in range(1, 6) if u != v
    ))
    entries = [(inst.n, inst.constraints, inst.compiled) for inst in (directed, k5)]
    monkeypatch.setattr(cspgap.search, "_entries", lambda config: iter(entries))
    config = cfg(family=dicut_family(), n_min=3, n_max=5, gamma=Fraction(1, 2),
                 beta=Fraction(1, 3), budget=2)
    assert search_gap(config, maximize_gap=True).certificate.instance == k5
    # A canonical form that merges the two: the triangle is solved, and K5
    # is chosen on the triangle's solution.
    monkeypatch.setattr(cspgap.search, "canonical_instance", lambda inst: 0)
    with pytest.raises(InternalError, match="merged non-isomorphic instances"):
        search_gap(config, maximize_gap=True)


@st.composite
def pre_tests(draw):
    """(beta, instance) for the search's pre-test `_csp_at_most`.

    q <= 3 and k <= 3, with n either small or past one block of lanes
    (q^n > BLOCK_LANES); weights 1-3; beta a third of 1/W from a
    satisfiable weight t/W, or at it, so both sides of every boundary show.
    """
    q = draw(st.sampled_from((2, 3)), label="q")
    k = draw(st.integers(1, 3), label="k")
    wide = {2: 13, 3: 8}[q]  # q**wide > BLOCK_LANES
    n = draw(st.one_of(st.integers(k, 5), st.just(wide)), label="n")
    table = st.lists(st.integers(0, 1), min_size=q**k, max_size=q**k).map(tuple)
    tables = draw(st.lists(table, min_size=1, max_size=2), label="tables")
    fam = PredicateFamily(tuple(Predicate(q, k, f"p{i}", t) for i, t in enumerate(tables)))
    constraints = draw(st.lists(st.builds(
        Constraint,
        st.sampled_from(fam.names),
        st.permutations(range(1, n + 1)).map(lambda order: tuple(order[:k])),
        st.integers(1, 3),
    ), min_size=1, max_size=6), label="constraints")
    inst = Instance(fam, n, constraints)
    t = draw(st.integers(0, inst.total_weight), label="t")
    shift = draw(st.sampled_from((-1, 0, 1)), label="shift")
    return max(Fraction(0), Fraction(3 * t + shift, 3 * inst.total_weight)), inst


@settings(max_examples=150, deadline=None)
@given(case=pre_tests())
# C13 under cut, 2^13 assignments in two blocks: csp 12/13, at beta and above it
@example(case=(Fraction(12, 13), cycle_instance(13)))
@example(case=(Fraction(11, 13), cycle_instance(13)))
def test_search_pre_test_matches_brute_force(case):
    """The pre-test rejects exactly the instances with csp > beta, and gives
    any other one `brute_force_opt`'s (csp, witness)."""
    beta, inst = case
    assert inst.n < 6 or inst.family.q**inst.n > BLOCK_LANES
    csp, witness = brute_force_opt(inst)
    found = cspgap.search._csp_at_most(beta, inst.family.q, inst.n, inst.compiled)
    assert found == (None if csp > beta else (csp, witness))


def test_search_builds_only_the_instances_at_most_beta(monkeypatch):
    """On dicut, an `Instance` is built only for the stream entries with
    csp <= beta, and `brute_force_opt` is never called."""
    config = cfg(family=dicut_family(), n_min=2, n_max=4, gamma=Fraction(1, 2),
                 beta=Fraction(1, 3), budget=300)
    stream = list(itertools.islice(enumerate_instances(config), config.budget))
    at_most_beta = [inst for inst in stream if brute_force_opt(inst)[0] <= config.beta]
    built = []

    def counting(family, n, constraints):
        built.append(Instance(family, n, constraints))
        return built[-1]

    def no_brute_force(*args, **kwargs):
        raise AssertionError("gap-search called brute_force_opt")

    monkeypatch.setattr(cspgap.search, "Instance", counting)
    monkeypatch.setattr(cspgap.search, "brute_force_opt", no_brute_force)
    monkeypatch.setattr(cspgap.core, "brute_force_opt", no_brute_force)
    outcome = search_gap(config, maximize_gap=True)
    assert (outcome.evaluated, outcome.found) == (config.budget, True)
    assert built == at_most_beta and 0 < len(built) < len(stream) // 10


def reference_search(config, maximize_gap):
    """The documented search rule over a full `gap_report` of every streamed
    instance: (evaluated, qualifying, certificate digest or None)."""
    evaluated = qualifying = 0
    best = None
    for inst in itertools.islice(enumerate_instances(config), config.budget):
        report = gap_report(inst)
        evaluated += 1
        if not report.is_gap(config.gamma, config.beta):
            continue
        qualifying += 1
        if best is None or report.gap > best.gap:
            best = report
        if not maximize_gap:
            break
    if best is None:
        return evaluated, qualifying, None
    cert = build_certificate(best, config.gamma, config.beta, seed=config.seed)
    return evaluated, qualifying, cert.digest


TARGETS = [Fraction(p, q) for p, q in ((1, 3), (2, 5), (1, 2), (2, 3), (3, 4), (4, 5))]


@st.composite
def search_configs(draw):
    beta = draw(st.sampled_from(TARGETS))
    n_min = draw(st.integers(2, 4))
    return SearchConfig(
        family=draw(st.sampled_from([cut_family(), dicut_family()])),
        n_min=n_min,
        n_max=draw(st.integers(n_min, 4)),
        max_constraints=draw(st.integers(1, 3)),
        gamma=draw(st.sampled_from([g for g in TARGETS + [Fraction(1)] if g > beta])),
        beta=beta,
        mode=draw(st.sampled_from([EXHAUSTIVE, RANDOM])),
        seed=draw(st.integers(0, 1000)),
        budget=draw(st.integers(1, 40)),
    )


def stream_config(family, mode, beta, gamma, seed=0, n_min=2):
    return SearchConfig(
        family=family, n_min=n_min, n_max=4, max_constraints=3,
        gamma=gamma, beta=beta, mode=mode, seed=seed, budget=40,
    )


# Random draws rarely reach a gap within 40 instances; these streams hold two
# qualifying instances each, tied on lp - csp.
@example(stream_config(cut_family(), EXHAUSTIVE, Fraction(4, 5), Fraction(1), n_min=3), True)
@example(stream_config(cut_family(), EXHAUSTIVE, Fraction(4, 5), Fraction(1), n_min=3), False)
@example(stream_config(cut_family(), RANDOM, Fraction(2, 3), Fraction(3, 4), seed=1), True)
@example(stream_config(dicut_family(), RANDOM, Fraction(1, 3), Fraction(1, 2), seed=3), True)
@settings(max_examples=150, deadline=None)
@given(config=search_configs(), maximize_gap=st.booleans())
def test_search_matches_a_full_scan_of_the_stream(config, maximize_gap):
    outcome = search_gap(config, maximize_gap=maximize_gap)
    digest = outcome.certificate.digest if outcome.found else None
    assert (outcome.evaluated, outcome.qualifying, digest) == reference_search(
        config, maximize_gap
    )


def test_search_that_nothing_can_qualify_solves_no_relaxation(capsys, monkeypatch):
    # Every nonempty cut instance cuts at least half its weight, so with
    # beta = 1/3 no instance can qualify and none needs its relaxation.
    def no_simplex(problem):
        raise AssertionError("gap-search solved a relaxation that could not qualify")

    monkeypatch.setattr(cspgap.lp, "solve", no_simplex)
    config = cfg(n_max=4, beta=Fraction(1, 3), budget=250)
    done = []
    outcome = search_gap(config, maximize_gap=True, progress=done.append)
    assert (outcome.evaluated, outcome.qualifying, outcome.found) == (250, 0, False)
    assert done == [100, 200]
    argv = [
        "gap-search", "--family", str(DATA / "cut_family.json"), "--gamma", "1/1",
        "--beta", "1/3", "--n-max", "4", "--max-constraints", "3", "--budget", "250",
        "--maximize-gap",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(
        "no (1/1, 1/3) gap within budget (250 instances evaluated)\n"
    )


def test_enumerated_strong_family_instances_all_reach_one():
    # Every predicate of the family carries a uniform-marginal satisfying
    # distribution, so every enumerated instance relaxes to exactly 1.
    from cspgap import solve_basic_lp

    stream = itertools.islice(enumerate_instances(cfg(n_max=3)), 60)
    for inst in stream:
        assert solve_basic_lp(inst).value == 1


def test_enumerated_instances_dominate_family_width():
    from cspgap import dicut_family, solve_basic_lp, width

    config = cfg(family=dicut_family(), beta=Fraction(1, 4), n_max=3)
    floor = width(dicut_family()).value
    for inst in itertools.islice(enumerate_instances(config), 60):
        assert solve_basic_lp(inst).value >= floor


def test_build_certificate_requires_gap():
    report = gap_report(cycle_instance(4))  # lp = csp = 1
    with pytest.raises(ValidationError):
        build_certificate(report, Fraction(1), Fraction(1, 2))


def test_build_certificate_refuses_targets_outside_the_unit_order():
    # The triangle (lp 1, csp 2/3) is a (1/2, 1) "gap", and the certificate
    # used to be emitted, only for verify-cert to fail it at `targets`.
    report = gap_report(triangle())
    with pytest.raises(ValidationError, match="need 0 <= beta < gamma <= 1"):
        build_certificate(report, Fraction(1, 2), 1)


def test_certificate_round_trip_and_verification():
    report = gap_report(cycle_instance(5))
    cert = build_certificate(report, Fraction(1), Fraction(4, 5), seed=5)
    data = certificate_to_dict(cert)
    restored = certificate_from_dict(data)
    assert restored == cert
    result = verify_certificate(restored)
    assert result.ok and result.failure is None


def test_certificate_verification_catches_perturbations():
    report = gap_report(cycle_instance(5))
    cert = build_certificate(report, Fraction(1), Fraction(4, 5))
    base = certificate_to_dict(cert)

    def expect_failure(mutate):
        data = certificate_to_dict(certificate_from_dict(base))
        mutate(data)
        try:
            result = verify_certificate(certificate_from_dict(data))
        except ValidationError:
            return
        assert not result.ok

    # One local mass nudged by 1/1000: consistency equalities break.
    def bump_local(data):
        key = sorted(data["solution"]["locals"][0])[0]
        data["solution"]["locals"][0][key] = "1001/2000"

    expect_failure(bump_local)
    expect_failure(lambda d: d.__setitem__("lp_value", "9/10"))
    expect_failure(lambda d: d.__setitem__("csp_value", "1/5"))
    expect_failure(lambda d: d["marginal_vector"]["cut"][0].__setitem__(0, "1/3"))
    expect_failure(lambda d: d["yes_distribution"].__setitem__("cut:00", "1/2"))
    expect_failure(lambda d: d["no_sup"].__setitem__("bound", "1/3"))
    expect_failure(lambda d: d.__setitem__("seed", cert.seed + 1))
    expect_failure(lambda d: d.__setitem__("digest", "0" * 64))


def test_verification_downgrades_on_budget():
    report = gap_report(cycle_instance(5))
    cert = build_certificate(report, Fraction(1), Fraction(4, 5))
    result = verify_certificate(cert, assignment_budget=4)
    assert result.ok and result.downgraded
    assert any(name == "csp_optimum" and "skipped" in detail
               for name, _, detail in result.checks)


def test_csp_optimum_clause_takes_the_brute_force_budget_rule(monkeypatch):
    report = gap_report(cycle_instance(5))
    cert = build_certificate(report, Fraction(1), Fraction(4, 5))

    def over_budget(inst, budget):
        raise BudgetError(f"budget is {budget}")

    monkeypatch.setattr(cspgap.search, "brute_force_opt", over_budget)
    result = verify_certificate(cert, assignment_budget=1 << 20)
    assert result.ok and result.downgraded
    assert cspgap.search.CSP_OPTIMUM_SKIPPED in result.checks


@pytest.mark.parametrize("other", [
    cycle_instance(5),
    # the triangle with its last edge reversed: the triangle's own solution fits it
    Instance(cut_family(), 3, tuple(Constraint("cut", e) for e in ((1, 2), (2, 3), (1, 3)))),
], ids=["c5", "relabeled-triangle"])
def test_solution_for_another_instance_is_rejected(other):
    cert = build_certificate(gap_report(triangle()), Fraction(1), Fraction(2, 3))
    foreign = solve_basic_lp(other)
    with pytest.raises(ValidationError, match="different instance"):
        construct_yes_no(cert.instance, foreign)
    result = verify_certificate(replace(cert, solution=foreign))
    assert not result.ok and result.failure == "solution_feasible"


def test_verification_stops_at_the_first_failed_clause(monkeypatch):
    def no_replay(*args, **kwargs):
        raise AssertionError("the kernel search ran after a failed clause")

    solved = []
    original_solve = cspgap.lp.solve

    def counting(problem):
        solved.append(problem)
        return original_solve(problem)

    inst = cycle_instance(5)
    cert = build_certificate(gap_report(inst), Fraction(1), Fraction(4, 5))
    monkeypatch.setattr(cspgap.witnesses, "_kernel_search", no_replay)
    monkeypatch.setattr(cspgap.lp, "solve", counting)
    # A feasible but suboptimal solution whose value is also the stated lp_value:
    # every clause before lp_optimum holds and lp_optimum fails.
    suboptimal = point_mass_solution(inst, (0, 1, 0, 1, 1))
    cert = replace(cert, solution=suboptimal, lp_value=suboptimal.value)
    result = verify_certificate(cert, assignment_budget=4)  # would skip csp_optimum
    assert result.failure == "lp_optimum" and not result.ok
    assert len(solved) == 1  # a stated value below 1 is re-derived by the simplex
    assert result.checks[-1][2] == f"fresh optimum 1, stated {suboptimal.value}"
    assert [name for name, _, _ in result.checks][-2:] == ["solution_objective", "lp_optimum"]
    assert not result.downgraded
