"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2's instance sweep is shared with criterion 6 through a module
fixture.  The sweep enumerates every constraint multiset completely where
the block is small (at most 400 multisets) and otherwise takes a seeded
20-instance sample per (n, m) block, which keeps the full dominance check
within its runtime limit while still covering every block up to n = 5,
m = 8 for both reference families.

Criterion 8 pins the cut family's threshold bracket exactly at
[1/2, 3/5] for instances on at most five variables.  On n vertices a
uniformly random balanced bisection cuts a floor(n/2)*ceil(n/2)/C(n, 2)
share of any weighted graph's weight, and the complete graph attains it,
so K5 is extremal at 3/5.  The upper end therefore falls toward rho = 1/2
only as n grows (1, 2/3, 2/3, 3/5 for n = 2..5, each value asserted) and
never meets it at a finite n.
"""

import itertools
import time
from fractions import Fraction
from math import comb

import pytest

import conftest
from builders import cycle_instance, mutate_leaves, random_lp, run_cli, seeded, triangle
from oracle import vertex_enum_oracle
from cspgap import (
    Constraint,
    Instance,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    construct_yes_no,
    cut_family,
    dicut_family,
    gap_report,
    lp_from_onewise,
    lp_from_width,
    marginal_vector,
    no_sup_search,
    onewise_support,
    rho_product_lower,
    rho_upper_empirical,
    solve,
    solve_basic_lp,
    support_classification,
    verify_certificate,
    yes_value,
)
from cspgap.errors import ToolkitError
from cspgap.serialize import canonical_dumps, family_to_dict
from cspgap.search import save_certificate

HALF = Fraction(1, 2)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    line = f"criterion {criterion}: {status}{suffix}"
    conftest.acceptance_lines.append(line)
    print(f"[acceptance] {line}")


def _sweep_blocks(fam, n_max=5, m_max=8, full_threshold=400, sample_size=20, seed=0):
    """Deterministic instance stream per (n, m) block: complete when small."""
    rng = seeded(seed)
    for n in range(fam.k, n_max + 1):
        universe = [
            Constraint(p.name, combo)
            for p in fam.predicates
            for combo in itertools.permutations(range(1, n + 1), fam.k)
        ]
        for m in range(1, m_max + 1):
            count = comb(len(universe) + m - 1, m)
            if count <= full_threshold:
                for combo in itertools.combinations_with_replacement(universe, m):
                    yield Instance(fam, n, combo)
            else:
                for _ in range(sample_size):
                    picks = sorted(rng.randrange(len(universe)) for _ in range(m))
                    yield Instance(fam, n, tuple(universe[i] for i in picks))


@pytest.fixture(scope="module")
def dominance_sweep():
    start = time.perf_counter()
    reports = []
    for fam in (cut_family(), dicut_family()):
        for inst in _sweep_blocks(fam):
            reports.append(gap_report(inst))
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_lp_oracle_equivalence():
    rng = seeded(1)
    start = time.perf_counter()
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(200):
        problem = random_lp(rng, max_vars=12, max_rows=5)
        got = solve(problem)
        want = vertex_enum_oracle(problem)
        assert got.status == want.status
        if got.status == "optimal":
            assert got.value == want.value
        statuses[got.status] += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60 and all(statuses[s] > 0 for s in statuses)
    _report(1, ok, f"200 LPs agree exactly ({statuses}) in {elapsed:.1f}s")
    assert all(count > 0 for count in statuses.values())
    assert elapsed < 60


def test_criterion_2_relaxation_dominance(dominance_sweep):
    reports, elapsed = dominance_sweep
    for report in reports:
        assert report.lp_value >= report.csp_value  # exact rational comparison
    ok = elapsed < 300
    _report(2, ok, f"{len(reports)} instances, lp >= csp everywhere, {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_3_onewise_families_reach_one():
    rng = seeded(3)
    witness = onewise_support(cut_family().predicates[0]).witness
    start = time.perf_counter()
    for _ in range(100):
        n = rng.randint(3, 8)
        inst = _random_cut_instance(rng, n, rng.randint(2, 11))
        assert solve_basic_lp(inst).value == 1
        assert lp_from_onewise(inst, {"cut": witness}).value == 1
    elapsed = time.perf_counter() - start
    _report(3, True, f"100 cut instances solved to exactly 1 in {elapsed:.1f}s")


def _random_cut_instance(rng, n, m):
    universe = list(itertools.permutations(range(1, n + 1), 2))
    constraints = tuple(
        Constraint("cut", universe[rng.randrange(len(universe))], rng.randint(1, 2))
        for _ in range(m)
    )
    return Instance(cut_family(), n, constraints)


def _random_dicut_instance(rng, n, m):
    universe = list(itertools.permutations(range(1, n + 1), 2))
    constraints = tuple(
        Constraint("dicut", universe[rng.randrange(len(universe))], rng.randint(1, 2))
        for _ in range(m)
    )
    return Instance(dicut_family(), n, constraints)


def test_criterion_4_width_solutions_reach_half():
    rng = seeded(4)
    start = time.perf_counter()
    for _ in range(100):
        inst = _random_dicut_instance(rng, rng.randint(3, 6), rng.randint(1, 8))
        sol = lp_from_width(inst)  # feasibility is verified inside
        assert sol.value == HALF
        for ci in range(inst.m):
            contribution = sum(
                mass
                for values, mass in sol.locals_[ci].items()
                if inst.family["dicut"].value(values)
            )
            assert contribution == HALF
        assert solve_basic_lp(inst).value >= HALF
    elapsed = time.perf_counter() - start
    _report(4, True, f"100 dicut instances at exactly 1/2 in {elapsed:.1f}s")


def test_criterion_5_concrete_gap_numbers():
    start = time.perf_counter()
    c5 = gap_report(cycle_instance(5))
    c5_time = time.perf_counter() - start
    assert (c5.lp_value, c5.csp_value) == (Fraction(1), Fraction(4, 5))
    start = time.perf_counter()
    tri = gap_report(triangle())
    tri_time = time.perf_counter() - start
    assert (tri.lp_value, tri.csp_value) == (Fraction(1), Fraction(2, 3))
    ok = c5_time < 1 and tri_time < 1
    _report(5, ok, f"C5 (1, 4/5) in {c5_time:.3f}s; triangle (1, 2/3) in {tri_time:.3f}s")
    assert c5_time < 1 and tri_time < 1


def test_criterion_6_yes_no_construction(dominance_sweep):
    reports, _ = dominance_sweep
    gaps = [r for r in reports if r.lp_value > r.csp_value]
    assert gaps, "the sweep must contain gap instances"
    start = time.perf_counter()
    seeds = range(16)
    for report in gaps:
        yes_dist, no_dist = construct_yes_no(report.instance, report.lp_witness)
        assert marginal_vector(yes_dist) == marginal_vector(no_dist)
        assert yes_value(yes_dist) == report.lp_value
        for seed in seeds:
            bound, _ = no_sup_search(no_dist, budget=64, seed=seed)
            assert bound <= report.csp_value
    elapsed = time.perf_counter() - start
    _report(
        6,
        True,
        f"{len(gaps)} gap instances x {len(seeds)} seeds, matched marginals,"
        f" falsifier bounded, {elapsed:.1f}s",
    )


def test_criterion_7_onewise_decisions():
    cut_result = onewise_support(cut_family().predicates[0])
    assert cut_result.supports
    assert cut_result.witness == {(0, 1): HALF, (1, 0): HALF}
    dicut_result = onewise_support(dicut_family().predicates[0])
    assert not dicut_result.supports
    assert dicut_result.refutation is not None
    for fam, kind in ((cut_family(), "strong"), (dicut_family(), "none")):
        lower = rho_product_lower(fam, Fraction(1, 64))
        assert support_classification(fam, lower).kind == kind
    _report(7, True, "cut: witness + strong; dicut: Farkas refusal + none")


def test_criterion_8_trivial_threshold_brackets():
    lower_dicut = rho_product_lower(dicut_family(), Fraction(1, 1024))
    assert lower_dicut == Fraction(1, 4)
    upper_dicut = rho_upper_empirical(dicut_family(), 5, budget=16)
    assert upper_dicut <= Fraction(3, 10)
    lower_cut = rho_product_lower(cut_family(), Fraction(1, 64))
    assert lower_cut == HALF
    upper_cut = rho_upper_empirical(cut_family(), 5, budget=64)
    assert upper_cut == Fraction(3, 5), f"K5 is extremal at 3/5; enumeration found {upper_cut}"
    assert lower_cut < upper_cut
    # The upper end narrows toward 1/2 with n: the balanced-bisection share
    # floor(t/2)*ceil(t/2)/C(t, 2), minimised over 2 <= t <= n.
    uppers = [rho_upper_empirical(cut_family(), n, budget=64) for n in range(2, 6)]
    expected = [
        min(Fraction((t // 2) * ((t + 1) // 2), comb(t, 2)) for t in range(2, n + 1))
        for n in range(2, 6)
    ]
    assert uppers == expected == [1, Fraction(2, 3), Fraction(2, 3), Fraction(3, 5)]
    _report(
        8,
        True,
        f"dicut bracket [1/4, {upper_dicut}]; cut bracket [{lower_cut}, {upper_cut}],"
        f" upper end by n = 2..5: {', '.join(map(str, uppers))}",
    )


def test_criterion_9_certificate_round_trip(tmp_path):
    report = gap_report(cycle_instance(5))
    cert = build_certificate(report, Fraction(1), Fraction(4, 5), seed=0)
    path = tmp_path / "cert.json"
    save_certificate(str(path), cert)

    fresh = run_cli(["verify-cert", str(path)])
    assert fresh.returncode == 0 and fresh.stdout.startswith("PASS")

    data = certificate_to_dict(cert)
    mutations = 0
    for label, mutated in mutate_leaves(data):
        mutations += 1
        try:
            result = verify_certificate(certificate_from_dict(mutated))
        except ToolkitError:
            continue  # rejected at parse time: also a verification failure
        assert not result.ok, f"mutation of {label} went undetected"
    _report(9, True, f"fresh-process PASS; all {mutations} single-field mutations detected")


def test_criterion_10_determinism(tmp_path):
    fam_path = tmp_path / "cut.json"
    fam_path.write_text(canonical_dumps(family_to_dict(cut_family())))

    stats_args = ["family-stats", str(fam_path), "--json", "--seed", "11"]
    first, second = run_cli(stats_args), run_cli(stats_args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    certs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli([
            "gap-search", "--family", str(fam_path), "--gamma", "1/1",
            "--beta", "4/5", "--n-max", "4", "--max-constraints", "3",
            "--budget", "300", "--seed", "11", "--out", str(out), "--json",
        ])
        assert proc.returncode == 0
        certs.append(out.read_bytes())
    assert certs[0] == certs[1]
    _report(10, True, "byte-identical JSON reports and certificates across reruns")
