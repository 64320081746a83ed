"""Output bytes pinned across commits.

Byte-identical reruns of one build (criterion 10) do not catch a refactor
that changes the bytes consistently on every run.  These SHA-256 digests
were computed from the outputs of an earlier build; a change to the LP
layout, its labels, the tuple codec or the certificate format shows up here
as a digest mismatch.
"""

import hashlib
import io
import itertools
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from builders import (
    cycle_instance,
    mutate_leaves,
    random_instance,
    random_lp,
    record_upper_stream,
    seeded,
    triangle,
)
from cspgap import (
    Constraint,
    Instance,
    Predicate,
    PredicateFamily,
    build_basic_lp,
    build_certificate,
    certificate_to_dict,
    check_feasible,
    construct_yes_no,
    cut_family,
    dicut_family,
    gap_report,
    no_sup_search,
    rho_upper_empirical,
    solve,
)
from cspgap import core, witnesses
from cspgap.cli import main
from cspgap.serialize import canonical_dumps, family_to_dict, instance_to_dict


def k4_coloring():
    """q=3 inequality on the complete graph K4 (LP 1, optimum 5/6)."""
    table = tuple(int(a != b) for a in range(3) for b in range(3))
    fam = PredicateFamily((Predicate(3, 2, "neq", table),))
    constraints = tuple(
        Constraint("neq", pair) for pair in itertools.combinations(range(1, 5), 2)
    )
    return Instance(fam, 4, constraints)


def ternary_mixed():
    """q=2, k=3: not-all-equal and 3-OR on four variables, one weight 2."""
    cube = list(itertools.product(range(2), repeat=3))
    fam = PredicateFamily((
        Predicate(2, 3, "nae", tuple(int(len(set(a)) > 1) for a in cube)),
        Predicate(2, 3, "or3", tuple(int(any(a)) for a in cube)),
    ))
    constraints = (
        Constraint("nae", (1, 2, 3)),
        Constraint("or3", (2, 3, 4), 2),
        Constraint("nae", (4, 1, 2)),
    )
    return Instance(fam, 4, constraints)


INSTANCES = {"k4": k4_coloring, "ternary": ternary_mixed}

DIGESTS = {
    ("k4", "dump-lp"):
        "67ebde6f0eeb54fd15fb944994ba93cd7ec6a5031405976fd019a26464df1dab",
    ("k4", "lp-solve"):
        "565d4a160b7654f39a46fead386fbeb9ad27dcda377dfad42327ac0d31a43d4c",
    ("k4", "certificate"):
        "ff0979bb9a698d2d918f041faa2851aeb903b5ba6e761f3080b7cd183e8917b0",
    ("ternary", "dump-lp"):
        "365483338bc263ae94b15272ca522e2594096052b78abcdab17876cf4245604c",
    ("ternary", "lp-solve"):
        "5ca8b6d3fabd50471e21a7a5a924575430fafbebea8229c1446e0fe8add5aa4c",
    "verify-cert":
        "d76ef2949ad98732c44c9f377031698628ab5a9b6d123ea178c78df91263aa27",
    "pivot-path":
        "52807b2b49e2b534d33790f0a0ce8f73796f970bf2081cb4508bdf9e99bd78f0",
    "upper-stream":
        "dc13c1ed7552575fe3dc79a5650523ab8aeefbd3cd965bcc72b7b01018d9be27",
    "kernel-stream":
        "a3007682f1467b4e39203434b8478af2b477e7b3cfecc36ba1df5d1875f421f0",
    "product-lower":
        "383207dc3721e1db351e2863b4bb9c850d123a5e4b1263bf76e764929246ad6b",
    ("gap-search", "first-hit", "stdout"):
        "ac7004f81ee32dda9d5bd2e57ec6d22faf4afccb984dc3a9a949fc99bd03a9c3",
    ("gap-search", "first-hit", "certificate"):
        "86af9c9d16cf4b4bcbc60eb5974f9c8aa8d495285950c63ee55453ccffc53390",
    ("gap-search", "maximize-gap", "stdout"):
        "299ddc6aab659ba94a2e921981a15f4b9849aa1005faff8c79f3803ef5ce2a9e",
    ("gap-search", "maximize-gap", "certificate"):
        "838b26bab5d1d7392ac7cf8de43d2c78003b71dfd404cb336bbb191fc5b4770e",
    ("gap-search", "random", "stdout"):
        "d07cb3309e8358920cfe767b3996672236134b681d71af4cacd0ba469f35531a",
    ("gap-search", "random", "certificate"):
        "8c5d6deb134d0693d6a2675e81daff4e749dc39a574dfd4142375fe8c652a648",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_instance(tmp_path, name) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_dumps(instance_to_dict(INSTANCES[name]())))
    return str(path)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_lp_dump_and_full_solution_bytes(name, tmp_path, capsys):
    path = write_instance(tmp_path, name)
    dump = tmp_path / "dump.txt"
    assert main(["lp-solve", path, "--full", "--json", "--dump-lp", str(dump)]) == 0
    assert sha256(dump.read_bytes()) == DIGESTS[(name, "dump-lp")]
    assert sha256(capsys.readouterr().out.encode()) == DIGESTS[(name, "lp-solve")]


def test_k4_certificate_bytes(tmp_path):
    cert = tmp_path / "cert.json"
    argv = ["gap-check", write_instance(tmp_path, "k4"), "--gamma", "1", "--beta", "5/6",
            "--out", str(cert)]
    assert main(argv) == 0
    assert sha256(cert.read_bytes()) == DIGESTS[("k4", "certificate")]


VERIFY_FLAG_SETS = ([], ["--json"], ["--json", "--budget", "4"])


def test_verify_cert_outcomes_on_every_leaf_mutation(tmp_path, monkeypatch):
    """A C5 and a triangle certificate and each of their single-leaf mutations.

    One digest covers stdout, stderr and the exit code of each `verify-cert`
    run under three flag sets, so a change to which clause fails first, to a
    detail message or to an exit code shows up here.
    """
    monkeypatch.chdir(tmp_path)  # error messages name the file: keep it relative
    certs = [
        build_certificate(gap_report(cycle_instance(5)), Fraction(1), Fraction(4, 5)),
        build_certificate(gap_report(triangle()), Fraction(1), Fraction(2, 3)),
    ]
    digest = hashlib.sha256()
    runs = 0
    for cert in certs:
        original = certificate_to_dict(cert)
        for label, mutated in [("original", original), *mutate_leaves(original)]:
            with open("cert.json", "w", encoding="utf-8") as handle:
                handle.write(canonical_dumps(mutated))
            for flags in VERIFY_FLAG_SETS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main(["verify-cert", "cert.json", *flags])
                digest.update(f"{label}|{flags}|{code}\n".encode())
                for stream in (out, err):
                    digest.update(stream.getvalue().encode() + b"\0")
                runs += 1
    assert runs == 420
    assert digest.hexdigest() == DIGESTS["verify-cert"]


def pivot_path_problems():
    """Seeded random LPs (every status) and cut/dicut relaxations (long pivot runs)."""
    rng = seeded(601)
    problems = [random_lp(rng) for _ in range(300)]
    for index in range(60):
        fam = cut_family() if index % 2 else dicut_family()
        n = rng.randint(3, 6)
        inst = random_instance(rng, fam, n, rng.randint(n - 1, 2 * n), max_weight=3)
        problems.append(build_basic_lp(inst))
    return problems


def test_simplex_pivot_path():
    """The repr of each solution holds its status, exact value, vertex or
    certificate and pivot count, so a change to the pivot rule or to what
    the arithmetic produces shows up as a digest mismatch."""
    digest = hashlib.sha256()
    for problem in pivot_path_problems():
        digest.update(repr(solve(problem)).encode() + b"\n")
        digest.update(repr(check_feasible(problem)).encode() + b"\n")
    assert digest.hexdigest() == DIGESTS["pivot-path"]


def stream_families():
    """cut, dicut, a q=3/k=2 and a q=2/k=3 family."""
    cube = list(itertools.product(range(2), repeat=3))
    return [
        cut_family(),
        dicut_family(),
        PredicateFamily((
            Predicate(3, 2, "neq", tuple(int(a != b) for a in range(3) for b in range(3))),
            Predicate(3, 2, "lt", tuple(int(a < b) for a in range(3) for b in range(3))),
        )),
        PredicateFamily((
            Predicate(2, 3, "nae", tuple(int(len(set(a)) > 1) for a in cube)),
            Predicate(2, 3, "maj", tuple(int(sum(a) >= 2) for a in cube)),
        )),
    ]


def test_rho_upper_empirical_instance_stream(monkeypatch):
    """Every instance `rho_upper_empirical` evaluates, in order, and its result.

    Budgets 1-3 stop inside the complete instances (up to four of them on
    n_max = 5), the larger ones run into the seeded random phase, except
    for a one-predicate family, whose stream ends with the complete
    instance on n_max.
    """
    seen = record_upper_stream(monkeypatch)
    digest = hashlib.sha256()
    for fam in stream_families():
        for n_max in (3, 4, 5):
            for budget in (1, 2, 3, 17, 64):
                for seed in (0, 7):
                    seen.clear()
                    value = rho_upper_empirical(fam, n_max, budget=budget, seed=seed)
                    one = len(fam.predicates) == 1
                    assert len(seen) == (min(budget, n_max - fam.k + 1) if one else budget)
                    digest.update(f"{n_max}|{budget}|{seed}|{value}\n".encode())
                    digest.update("\n".join(map(repr, seen)).encode() + b"\0")
    assert digest.hexdigest() == DIGESTS["upper-stream"]


def test_no_sup_search_results_across_phase_boundaries(monkeypatch):
    """Budgets on both sides of the deterministic (q^q kernels) and lattice
    phase ends, and into the seeded ascent, on the C5 and K4 no-sides.

    Each kernel scored is hashed in order as well as the result, since the
    result alone is the same for any order of a fully scanned phase.  The
    scorer takes counts over `SNAP_DENOMINATOR`; each kernel is hashed as its
    rows of fractions.
    """
    digest = hashlib.sha256()
    score = witnesses._KernelScorer.score

    def recording(scorer, rows):
        fractions = tuple(
            tuple(Fraction(c, witnesses.SNAP_DENOMINATOR) for c in row) for row in rows
        )
        digest.update(repr(fractions).encode() + b"\n")
        return score(scorer, rows)

    monkeypatch.setattr(witnesses._KernelScorer, "score", recording)
    for inst in (cycle_instance(5), k4_coloring()):
        _, no_dist = construct_yes_no(inst, gap_report(inst).lp_witness)
        q = inst.family.q
        lattice_end = q**q + (5 if q == 2 else 6) ** q
        budgets = (1, q**q - 1, q**q, q**q + 1, lattice_end - 1, lattice_end,
                   lattice_end + 1, 120, 400)
        for budget in budgets:
            for seed in (0, 3):
                bound, kernel = no_sup_search(no_dist, budget, seed)
                digest.update(repr((budget, seed, bound, kernel.rows)).encode() + b"\n")
    assert digest.hexdigest() == DIGESTS["kernel-stream"]


def generated_product_families(seed):
    """Two seeded q=3/k=2 and two q=2/k=3 families of three random tables each."""
    rng = random.Random(seed)
    families = []
    for q, k in ((3, 2), (3, 2), (2, 3), (2, 3)):
        families.append(PredicateFamily(tuple(
            Predicate(q, k, f"p{i}", tuple(rng.randint(0, 1) for _ in range(q**k)))
            for i in range(3)
        )))
    return families


def test_rho_product_lower_values():
    """`rho_product_lower` beyond q = k = 2, at two precisions: the grid
    denominators, the lattice scan order and the ascent all feed the value."""
    digest = hashlib.sha256()
    for fam in [cut_family(), dicut_family(), *generated_product_families(3)]:
        for precision in (Fraction(1, 16), Fraction(1, 32)):
            value = core.rho_product_lower(fam, precision)
            digest.update(repr((fam.q, fam.k, precision, value)).encode() + b"\n")
    assert digest.hexdigest() == DIGESTS["product-lower"]


# (family, flags) per gap-search run; every run spends more than 100
# evaluations, so the progress lines on stderr are pinned too.
GAP_SEARCH_RUNS = {
    "first-hit": (cut_family, ["--gamma", "1", "--beta", "2/3", "--n-min", "4", "--n-max", "5",
                               "--max-constraints", "4", "--budget", "400"]),
    "maximize-gap": (dicut_family, ["--gamma", "1/2", "--beta", "2/5", "--n-max", "4",
                                    "--max-constraints", "4", "--budget", "250",
                                    "--maximize-gap", "--json", "--seed", "9"]),
    "random": (cut_family, ["--gamma", "1", "--beta", "4/5", "--n-min", "3", "--n-max", "5",
                            "--max-constraints", "6", "--budget", "150", "--mode", "random",
                            "--seed", "5", "--maximize-gap"]),
}


@pytest.mark.parametrize("run", sorted(GAP_SEARCH_RUNS))
def test_gap_search_output_and_certificate_bytes(run, tmp_path, monkeypatch):
    """Exit code, stdout and stderr of one gap-search run, and the certificate it writes."""
    monkeypatch.chdir(tmp_path)  # the report names the certificate path: keep it relative
    family, flags = GAP_SEARCH_RUNS[run]
    with open("family.json", "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(family_to_dict(family())))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["gap-search", "--family", "family.json", *flags, "--out", "cert.json"])
    transcript = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    assert sha256(transcript.encode()) == DIGESTS[("gap-search", run, "stdout")]
    with open("cert.json", "rb") as handle:
        assert sha256(handle.read()) == DIGESTS[("gap-search", run, "certificate")]
