"""Command-line surface: outputs, exit codes, and determinism."""

import copy
import io
import json
import pathlib
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cspgap.basic_lp
import cspgap.core
import cspgap.lp
import cspgap.search
import cspgap.witnesses
from builders import MARGINAL_MISS, cycle_instance, run_cli, triangle
from cspgap import (
    BudgetError,
    Constraint,
    GapReport,
    Instance,
    Predicate,
    PredicateFamily,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    cut_family,
    dicut_family,
    gap_report,
    lp_from_width,
    solve_basic_lp,
)
from cspgap.cli import main
from cspgap.core import LATTICE_LINE_BUDGET, rho_product_lower
from cspgap.serialize import (
    canonical_dumps,
    family_to_dict,
    instance_to_dict,
    load_family,
    load_instance,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def cut_family_file(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text(canonical_dumps(family_to_dict(cut_family())))
    return str(path)


@pytest.fixture
def dicut_family_file(tmp_path):
    path = tmp_path / "dicut.json"
    path.write_text(canonical_dumps(family_to_dict(dicut_family())))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(canonical_dumps(instance_to_dict(triangle())))
    return str(path)


def test_family_stats_cut(cut_family_file, capsys):
    assert main(["family-stats", cut_family_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rho_lower"] == "1/2"
    assert data["width"] == "1/1"
    assert data["onewise"] == "strong"


def test_family_stats_dicut(dicut_family_file, capsys):
    assert main(["family-stats", dicut_family_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rho_lower"] == "1/4"
    assert data["width"] == "1/2"
    assert data["onewise"] == "none"


def test_lp_solve_triangle(triangle_file, capsys):
    assert main(["lp-solve", triangle_file, "--brute-force"]) == 0
    out = capsys.readouterr().out
    assert "lp_value: 1/1" in out
    assert "csp_value: 2/3" in out


def test_lp_solve_full_dump(triangle_file, capsys):
    assert main(["lp-solve", triangle_file, "--full", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lp_value"] == "1/1"
    assert data["solution"]["objective"] == "1/1"
    assert len(data["solution"]["locals"]) == 3
    assert len(data["solution"]["marginals"]) == 3


def test_lp_dump(triangle_file, tmp_path, capsys):
    dump = tmp_path / "lp.txt"
    assert main(["lp-solve", triangle_file, "--dump-lp", str(dump)]) == 0
    capsys.readouterr()
    text = dump.read_text()
    assert text.startswith("maximize")
    assert "all variables >= 0" in text


def test_lp_dump_builds_the_relaxation_once(tmp_path, monkeypatch, capsys):
    built = []
    original = cspgap.basic_lp.build_basic_lp

    def counting(inst):
        built.append(inst)
        return original(inst)

    monkeypatch.setattr(cspgap.basic_lp, "build_basic_lp", counting)
    dump = tmp_path / "c5.lp"
    assert main(["lp-solve", str(DATA / "c5.json"), "--dump-lp", str(dump)]) == 0
    assert capsys.readouterr().out == "lp_value: 1/1\n"
    assert len(built) == 1 and dump.read_text().startswith("maximize")


def test_lp_solve_refuses_an_over_budget_brute_force_before_the_relaxation(
    tmp_path, monkeypatch, capsys
):
    def no_relaxation(problem):
        raise AssertionError("relaxation solved")

    monkeypatch.setattr(cspgap.lp, "solve", no_relaxation)
    dump = tmp_path / "d.txt"
    argv = ["lp-solve", str(DATA / "c5.json"), "--brute-force", "--budget", "4"]
    assert main([*argv, "--dump-lp", str(dump)]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive search needs q^n = 32 assignments, budget is 4\n"
    )
    assert not dump.exists()


def test_lp_solve_refuses_a_relaxation_over_the_cell_budget(tmp_path, monkeypatch, capsys):
    def no_relaxation(problem):
        raise AssertionError("relaxation solved")

    monkeypatch.setattr(cspgap.lp, "solve", no_relaxation)
    path = tmp_path / "huge.json"
    huge = Instance(cut_family(), 10**9, (Constraint("cut", (1, 2)),))
    path.write_text(canonical_dumps(instance_to_dict(huge)))
    dump = tmp_path / "d.txt"
    for extra in ([], ["--dump-lp", str(dump)]):
        assert main(["lp-solve", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the LP has 1000000004 rows and 2000000004 columns, a tableau of"
            f" 3000000024000000045 cells; budget is {cspgap.lp.TABLEAU_CELL_BUDGET}\n"
        )
    assert not dump.exists()


def test_verify_cert_proves_a_unit_optimum_whose_tableau_is_over_the_budget(tmp_path, capsys):
    # the 301-cycle: 1505 rows and 1806 columns, so only a simplex run is refused
    inst = cycle_instance(301)
    with pytest.raises(BudgetError, match="a tableau of 4987872 cells"):
        solve_basic_lp(inst)
    alternating = tuple(i % 2 for i in range(301))
    report = GapReport(inst, Fraction(1), Fraction(300, 301), alternating, lp_from_width(inst))
    path = tmp_path / "c301.json"
    cspgap.search.save_certificate(str(path), build_certificate(report, 1, Fraction(300, 301)))
    assert main(["verify-cert", str(path)]) == 0
    assert capsys.readouterr() == ("PASS (csp bound not re-derived: budget)\n", "")


def test_gap_check_exit_codes(triangle_file, tmp_path, capsys):
    assert main(["gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3"]) == 0
    capsys.readouterr()
    assert main(["gap-check", triangle_file, "--gamma", "1/1", "--beta", "1/2"]) == 1
    out = capsys.readouterr().out
    assert "soundness" in out
    cert = tmp_path / "cert.json"
    assert main([
        "gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3",
        "--out", str(cert),
    ]) == 0
    capsys.readouterr()
    assert main(["verify-cert", str(cert)]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_cert_refuses_a_negative_assignment_budget(triangle_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    argv = ["gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3", "--out", str(cert)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["verify-cert", str(cert), "--budget", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "error: assignment budget must be non-negative, got -1\n"
    )
    # a zero budget is no budget: the brute-force re-check is skipped, as documented
    assert main(["verify-cert", str(cert), "--budget", "0"]) == 0
    assert capsys.readouterr() == ("PASS (csp bound not re-derived: budget)\n", "")


def test_gap_check_rejects_bad_targets(triangle_file, capsys):
    assert main(["gap-check", triangle_file, "--gamma", "1/2", "--beta", "2/3"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["gap-check", str(DATA / "c5.json"), "--gamma", "1", "--beta", "1/" + "7" * 5000],
        ["family-stats", str(DATA / "cut_family.json"), "--precision", "1/" + "7" * 5000],
    ],
    ids=["gap-check --beta", "family-stats --precision"],
)
def test_oversized_rational_flag_is_operational_error(args):
    # Past Python's digit limit for int(str): one error line, not a traceback.
    proc = run_cli(args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: not a rational") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("n_max", ["5", "6"])
def test_family_stats_of_arity_five_classifies_its_subfamilies(n_max, tmp_path, capsys):
    # "one" supports one-wise independence and "first" (first coordinate 1)
    # does not, so the subfamily brackets run, on at least k = 5 variables.
    path = tmp_path / "k5.json"
    path.write_text(json.dumps({"q": 2, "k": 5, "predicates": [
        {"name": "one", "table": [1] * 32},
        {"name": "first", "table": [int(rank >= 16) for rank in range(32)]},
    ]}))
    assert main(["family-stats", str(path), "--json", "--n-max", n_max]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["onewise"] == "weak"
    assert data["onewise_subfamily"] == ["one"]


def test_family_stats_refuses_an_over_budget_n_before_any_search(monkeypatch, capsys):
    def search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(cspgap.core, "_max_satisfied", search)
    assert main(["family-stats", str(DATA / "cut_family.json"), "--n-max", "21"]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive search needs q^n = 2097152 assignments, budget is 1048576\n"
    )
    monkeypatch.undo()
    # a stream of three instances stops at n = 4, long before n = 21
    argv = ["family-stats", str(DATA / "cut_family.json"), "--json", "--n-max", "30"]
    assert main([*argv, "--budget", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rho_upper"] == "2/3"


@pytest.mark.parametrize("argv, n", [
    (["gap-search", "--family", "{}", "--gamma", "1", "--beta", "1/2", "--n-min", "11",
      "--n-max", "11", "--budget", "10"], 11),
    (["gap-search", "--family", "{}", "--gamma", "1", "--beta", "1/2", "--n-min", "11",
      "--n-max", "11", "--budget", "10", "--mode", "random"], 11),
    (["family-stats", "{}", "--n-max", "12", "--budget", "20"], 10),
], ids=["exhaustive", "random", "family-stats"])
def test_a_constraint_universe_over_budget_is_refused_before_it_is_built(
    argv, n, tmp_path, monkeypatch, capsys
):
    # one q = 2, k = 8 predicate: n!/(n - 8)! constraints, 1814400 at n = 10
    path = tmp_path / "k8.json"
    parity = tuple(bin(rank).count("1") % 2 for rank in range(256))
    path.write_text(canonical_dumps(family_to_dict(
        PredicateFamily((Predicate(2, 8, "parity", parity),))
    )))

    def refused(*args):
        raise AssertionError("searched or built")

    monkeypatch.setattr(cspgap.core, "_max_satisfied", refused)
    monkeypatch.setattr(cspgap.search, "constraint_universe", refused)
    assert main([arg.format(path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the constraint universe on n = {n} variables has {comb(n, 8) * 40320}"
        " constraints, budget is 1048576\n"
    )


@pytest.mark.parametrize("flags, message", [
    (["--n-max", "1"], "need n_max >= k = 2, got 1"),
    (["--budget", "0"], "budget exhausted before any instance was evaluated"),
    (["--n-max", "11"], "exhaustive search needs q^n = 4194304 assignments, budget is 1048576"),
], ids=["n-max-below-k", "no-budget", "n-max-over-budget"])
def test_family_stats_checks_its_enumeration_flags_before_the_lattice_scan(
    flags, message, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "q4.json"
    lt = Predicate(4, 2, "lt", tuple(int(a < b) for a in range(4) for b in range(4)))
    path.write_text(canonical_dumps(family_to_dict(
        PredicateFamily((*neq_family(4).predicates, lt))
    )))

    def no_scan(*args):
        raise AssertionError("lattice scanned")

    monkeypatch.setattr(cspgap.core, "rho_product_lower", no_scan)
    assert main(["family-stats", str(path), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("budget", [sys.maxsize + 1, 10**20])
@pytest.mark.parametrize("command", ["gap-search", "family-stats"])
def test_a_budget_above_sys_maxsize_is_one_error_line(
    command, budget, cut_family_file, tmp_path, capsys
):
    """No stream slice takes more than sys.maxsize instances: such a budget
    is refused with exit 2, not a traceback and exit 1, which reads as "no"."""
    path = tmp_path / "two.json"  # two predicates, so family-stats draws random instances
    path.write_text(canonical_dumps(family_to_dict(
        PredicateFamily((*cut_family().predicates, *dicut_family().predicates))
    )))
    argv, prefix = {
        "gap-search": (["gap-search", "--family", cut_family_file, "--gamma", "1",
                        "--beta", "1/2", "--n-max", "3"], ""),
        "family-stats": (["family-stats", str(path)], "instance "),
    }[command]
    assert main([*argv, "--budget", str(budget)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {prefix}budget must be at most {sys.maxsize}, got {budget}\n"
    )


def test_a_budget_of_sys_maxsize_still_runs(cut_family_file, capsys):
    argv = ["gap-search", "--family", cut_family_file, "--gamma", "1", "--beta", "1/2",
            "--n-max", "3", "--max-constraints", "1", "--budget", str(sys.maxsize)]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith("(8 instances evaluated)\n")
    # one predicate: only the complete instances on k..n_max are searched
    assert main(["family-stats", cut_family_file, "--budget", str(sys.maxsize)]) == 0


def test_family_stats_searches_twenty_variables(capsys):
    # the complete instances on 2..20 variables: 2^20 assignments at n = 20
    argv = ["family-stats", str(DATA / "cut_family.json"), "--json", "--n-max", "20"]
    assert main([*argv, "--budget", "19"]) == 0
    assert json.loads(capsys.readouterr().out)["rho_upper"] == "10/19"


def neq_family(q):
    table = tuple(int(a != b) for a in range(q) for b in range(q))
    return PredicateFamily((Predicate(q, 2, "neq", table),))


def test_family_stats_refuses_a_lattice_over_budget(tmp_path, capsys):
    # q = 5 at the default precision 1/64 scans C(515, 3) > 22 million lines.
    path = tmp_path / "neq5.json"
    path.write_text(canonical_dumps(family_to_dict(neq_family(5))))
    assert main(["family-stats", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "C(515, 3) lines" in captured.err and "--precision" in captured.err
    # q = 4 at 1/64 has C(258, 2) = 33153 lines, under the budget.
    assert comb(258, 2) == 33153 <= LATTICE_LINE_BUDGET
    assert rho_product_lower(neq_family(4), Fraction(1, 64)) == Fraction(3, 4)


def test_verify_cert_names_a_marginal_miss_as_the_solution_check_does(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    argv = ["gap-check", str(DATA / "c5.json"), "--gamma", "1/1", "--beta", "4/5"]
    assert main([*argv, "--out", str(cert_path)]) == 0
    capsys.readouterr()
    data = json.loads(cert_path.read_text())
    assert data["solution"]["marginals"][2] == ["1/2", "1/2"]
    data["solution"]["marginals"][2] = ["1/1", "0/1"]  # variable 3 set to 0
    cert_path.write_text(canonical_dumps(data))
    assert main(["verify-cert", str(cert_path)]) == 2
    # the loader passes the check's ValidationError on unchanged
    expected = f"error: {MARGINAL_MISS}\n"
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize("command", ["lp-solve", "verify-cert"])
@pytest.mark.parametrize("table, message", [
    ([0, 1, 1], "predicate 'cut': table has 3 entries, expected q^k = 4"),
    ([0, 1, 2, 0], "predicate 'cut': table entries must be 0 or 1"),
], ids=["length", "entry"])
def test_a_bad_predicate_table_is_named_as_the_predicate_check_does(
    command, table, message, triangle_file, tmp_path, capsys
):
    path = tmp_path / "input.json"
    if command == "lp-solve":
        data = json.loads(pathlib.Path(triangle_file).read_text())
        data["family"]["predicates"][0]["table"] = table
    else:
        argv = ["gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3"]
        assert main([*argv, "--out", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        data["instance"]["family"]["predicates"][0]["table"] = table
    path.write_text(canonical_dumps(data))
    assert main([command, str(path)]) == 2
    # the family loader passes the predicate's ValidationError on unchanged
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_file_is_operational_error(capsys):
    assert main(["lp-solve", "/nonexistent/x.json"]) == 2


def test_verify_tampered_certificate(triangle_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main([
        "gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3",
        "--out", str(cert_path),
    ])
    capsys.readouterr()
    data = json.loads(cert_path.read_text())
    data["lp_value"] = "9/10"
    cert_path.write_text(canonical_dumps(data))
    assert main(["verify-cert", str(cert_path)]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_certificate_must_carry_its_family_inline(
    triangle_file, tmp_path, monkeypatch, capsys
):
    # From the repository root the path would resolve, but a certificate is
    # verified on its own bytes, wherever the verifier runs.
    cert_path = tmp_path / "cert.json"
    argv = ["gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3", "--out"]
    assert main([*argv, str(cert_path)]) == 0
    data = json.loads(cert_path.read_text())
    data["instance"]["family"] = "data/cut_family.json"
    cert_path.write_text(canonical_dumps(data))
    monkeypatch.chdir(DATA.parent)
    capsys.readouterr()
    assert main(["verify-cert", str(cert_path)]) == 2
    assert "malformed family object" in capsys.readouterr().err


def test_kernel_search_budget_is_capped(triangle_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    argv = ["gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3"]
    argv += ["--out", str(cert_path)]
    assert main([*argv, "--no-sup-budget", "10001"]) == 2
    assert "kernel search budget must be in [1, 10000]" in capsys.readouterr().err
    assert not cert_path.exists()
    assert main(argv) == 0
    data = json.loads(cert_path.read_text())
    data["no_sup"]["budget"] = 10001  # verify-cert would replay a search this long
    cert_path.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert main(["verify-cert", str(cert_path)]) == 2
    assert "kernel search budget must be in [1, 10000]" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "10001"])
def test_kernel_search_budget_is_checked_before_any_evaluation(
    budget, cut_family_file, triangle_file, monkeypatch, capsys
):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("instance evaluated before the budget check")

    monkeypatch.setattr("cspgap.basic_lp.gap_report", no_evaluation)
    for name in ("_csp_at_most", "solve_basic_lp"):
        monkeypatch.setattr(f"cspgap.search.{name}", no_evaluation)
    targets = ["--gamma", "1/1", "--beta", "2/3", "--no-sup-budget", budget]
    assert main(["gap-check", triangle_file, *targets]) == 2
    assert main(["gap-search", "--family", cut_family_file, "--n-max", "3", *targets]) == 2
    err = capsys.readouterr().err
    assert err.count(f"kernel search budget must be in [1, 10000], got {budget}") == 2


def test_assignment_budget_error_is_one_short_line(tmp_path, capsys):
    path = tmp_path / "wide.json"
    wide = Instance(cut_family(), 3000, (Constraint("cut", (1, 2)),))
    path.write_text(canonical_dumps(instance_to_dict(wide)))
    assert main(["gap-check", str(path), "--gamma", "1", "--beta", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exhaustive search needs q^n = 2^3000 assignments, budget is 1048576\n"
    )


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_gap_search_refuses_a_variable_count_before_its_universe(
    mode, cut_family_file, monkeypatch, capsys
):
    universe = cspgap.search.constraint_universe

    def small_universe(fam, n):
        if n > 20:
            raise AssertionError(f"constraint universe built at n = {n}")
        return universe(fam, n)

    monkeypatch.setattr("cspgap.search.constraint_universe", small_universe)
    argv = ["gap-search", "--family", cut_family_file, "--n-min", "400", "--n-max", "400"]
    assert main([*argv, "--mode", mode, "--gamma", "1", "--beta", "1/2"]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive search needs q^n = 2^400 assignments, budget is 1048576\n"
    )


@pytest.mark.parametrize("k", [20000, 10**12])
def test_family_stats_refuses_a_huge_arity(k, tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"q": 2, "k": k, "predicates": [{"name": "x", "table": [0, 1]}]}))
    assert main(["family-stats", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"expected q^k = 2^{k}" in captured.err


@pytest.mark.parametrize("section", ["locals", "yes_distribution"])
def test_verify_rejects_non_digit_tuple_key(triangle_file, tmp_path, capsys, section):
    cert_path = tmp_path / "cert.json"
    main([
        "gap-check", triangle_file, "--gamma", "1/1", "--beta", "2/3",
        "--out", str(cert_path),
    ])
    capsys.readouterr()
    data = json.loads(cert_path.read_text())
    atoms = data["solution"]["locals"][0] if section == "locals" else data[section]
    key = next(iter(atoms))
    atoms[key[:-1] + ("!" if section == "locals" else "Z")] = atoms.pop(key)
    cert_path.write_text(canonical_dumps(data))
    assert main(["verify-cert", str(cert_path)]) == 2
    assert "is not base 2" in capsys.readouterr().err


def test_alphabet_beyond_digit_codec_is_operational_error(tmp_path, capsys):
    # tuples are spelled as base-q digit strings over 0-9a-z, so q = 37 has no spelling
    family = {"q": 37, "k": 1, "predicates": [{"name": "any", "table": [1] * 37}]}
    instance = {"family": family, "n": 1, "constraints": [{"f": "any", "vars": [1]}]}
    path = tmp_path / "q37.json"
    path.write_text(canonical_dumps(instance))
    assert main(["lp-solve", str(path)]) == 2
    assert "alphabet size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("constraints", 5), ("n", "x"), ("n", "0110"), ("n", 3.0), ("n", True)],
)
def test_malformed_instance_field_is_operational_error(
    triangle_file, capsys, field, value
):
    with open(triangle_file, encoding="utf-8") as handle:
        data = json.load(handle)
    data[field] = value
    with open(triangle_file, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(data))
    assert main(["lp-solve", triangle_file]) == 2
    assert "malformed instance object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, kind",
    [
        (("constraints", 0, "w"), 1.5, "constraint"),
        (("constraints", 0, "w"), True, "constraint"),
        (("constraints", 0, "vars"), [1.7, 2], "constraint"),
        (("constraints", 0, "vars"), "12", "constraint"),
        (("family", "q"), "2", "family"),
        (("family", "predicates", 0, "table"), "0110", "family"),
        (("family", "predicates", 0, "table"), [0, True, 1, 0], "family"),
        (("family", "predicates", 0, "name"), [[1]], "family"),
        # a predicate name that is no string, unhashable ones included
        (("constraints", 0, "f"), ["cut"], "constraint"),
        (("constraints", 0, "f"), {"x": 1}, "constraint"),
        (("constraints", 0, "f"), 5, "constraint"),
        (("constraints", 0, "f"), None, "constraint"),
    ],
    ids=[
        "w-float", "w-bool", "vars-float", "vars-string",
        "q-string", "table-string", "table-bool", "name-list",
        "f-list", "f-dict", "f-int", "f-null",
    ],
)
def test_malformed_nested_field_is_operational_error(
    triangle_file, capsys, path, value, kind
):
    # nothing is coerced: not 1.5 -> 1, "12" -> (1, 2) or "0110" -> a table
    with open(triangle_file, encoding="utf-8") as handle:
        data = json.load(handle)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with open(triangle_file, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(data))
    assert main(["lp-solve", triangle_file]) == 2
    assert f"malformed {kind} object" in capsys.readouterr().err


def test_undecodable_file_is_operational_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["lp-solve", str(path)]) == 2
    assert "can't decode" in capsys.readouterr().err


@pytest.fixture(scope="module")
def triangle_certificate(tmp_path_factory):
    cert = build_certificate(gap_report(triangle()), Fraction(1), Fraction(2, 3))
    return certificate_to_dict(cert), tmp_path_factory.mktemp("mutants") / "cert.json"


def _paths(node, prefix=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def json_values(largest):
    """Generated JSON documents whose integers lie in [-2, largest]."""
    return st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-2, largest)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=4)
        | st.sampled_from(["1/1", "2/3", "0", "01", "cut", "0.1.0"]),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=6,
    )


def replace_one_node(data, original, values):
    """A copy of `original` with one node below the root replaced by a drawn value."""
    target = data.draw(st.sampled_from(list(_paths(original))))
    mutated = copy.deepcopy(original)
    node = mutated
    for key in target[:-1]:
        node = node[key]
    node[target[-1]] = data.draw(values)
    return mutated


def quiet_main(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a zero weight is dropped with a warning
            return main(argv)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_cert_exit_code_contract_on_any_replaced_node(triangle_certificate, data):
    original, path = triangle_certificate
    # Integers stay small: verify-cert re-runs the kernel search with the stored budget.
    mutated = replace_one_node(data, original, json_values(200))
    path.write_text(canonical_dumps(mutated))
    code = quiet_main(["verify-cert", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert certificate_to_dict(certificate_from_dict(mutated)) == original


@pytest.mark.parametrize("source, argv, loader", [
    ("triangle.json", ["lp-solve"], load_instance),
    ("cut_family.json",
     ["family-stats", "--n-max", "3", "--budget", "8", "--precision", "1/4"], load_family),
], ids=["instance", "family"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_input_file_exit_code_contract_on_any_replaced_node(
    tmp_path_factory, source, argv, loader, data
):
    original = json.loads((DATA / source).read_text())
    # Integers stay small so that no relaxation or enumeration grows large.
    mutated = replace_one_node(data, original, json_values(12))
    path = tmp_path_factory.mktemp("inputs") / source
    path.write_text(canonical_dumps(mutated))
    code = quiet_main([argv[0], str(path), *argv[1:]])
    assert code in (0, 2)
    if code == 0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loader(str(path))  # a file that runs is a file that loads


def test_gap_search_writes_certificate(cut_family_file, tmp_path):
    cert = tmp_path / "found.json"
    proc = run_cli([
        "gap-search", "--family", cut_family_file, "--gamma", "1/1",
        "--beta", "4/5", "--n-max", "4", "--max-constraints", "3",
        "--budget", "300", "--out", str(cert), "--json",
    ])
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["found"] is True
    assert cert.exists()
    verify = run_cli(["verify-cert", str(cert)])
    assert verify.returncode == 0


@pytest.mark.parametrize("instance, beta", [("c5.json", "4/5"), ("triangle.json", "2/3")])
def test_verify_cert_proves_a_unit_lp_value_without_a_simplex_run(
    instance, beta, tmp_path, capsys, monkeypatch
):
    cert = tmp_path / "cert.json"
    argv = ["gap-check", str(DATA / instance), "--gamma", "1", "--beta", beta, "--out", str(cert)]
    assert main(argv) == 0
    capsys.readouterr()

    def no_simplex(problem):
        raise AssertionError("verify-cert ran the simplex on a value-1 certificate")

    monkeypatch.setattr(cspgap.lp, "solve", no_simplex)
    assert main(["verify-cert", str(cert), "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["lp_optimum"] == {
        "name": "lp_optimum", "ok": True, "detail": "fresh optimum 1, stated 1",
    }


def test_gap_search_not_found_exit_one(cut_family_file):
    proc = run_cli([
        "gap-search", "--family", cut_family_file, "--gamma", "1/1",
        "--beta", "1/10", "--n-max", "3", "--max-constraints", "2",
        "--budget", "100",
    ])
    assert proc.returncode == 1
    assert "no (1/1, 1/10) gap" in proc.stderr


def test_json_outputs_are_byte_identical_across_runs(cut_family_file):
    args = ["family-stats", cut_family_file, "--json", "--seed", "7"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_bundled_data_files_match_documented_values():
    assert main(["family-stats", str(DATA / "cut_family.json"), "--json"]) == 0
    assert main(["lp-solve", str(DATA / "c5.json"), "--brute-force", "--json"]) == 0
    assert main(["lp-solve", str(DATA / "triangle.json"), "--brute-force"]) == 0


def test_progress_goes_to_stderr_not_stdout(cut_family_file, tmp_path):
    proc = run_cli([
        "gap-search", "--family", cut_family_file, "--gamma", "1/1",
        "--beta", "1/10", "--n-max", "3", "--max-constraints", "3",
        "--budget", "200", "--json",
    ])
    json.loads(proc.stdout)  # stdout stays parseable
    assert "evaluated" in proc.stderr or "no (" in proc.stderr


@pytest.mark.parametrize("field, value, message", [
    ("n", 0, "variable count must be >= 1, got 0"),
    ("constraints", [], "instance must contain at least one constraint"),
])
def test_an_empty_instance_is_refused_in_one_line(triangle_file, capsys, field, value, message):
    data = json.loads(pathlib.Path(triangle_file).read_text())
    data[field] = value
    pathlib.Path(triangle_file).write_text(canonical_dumps(data))
    assert main(["lp-solve", triangle_file]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--n-min", "5", "--n-max", "3"], "n_max must be at least n_min"),
    (["--n-max", "3", "--max-constraints", "0"], "max_constraints must be positive"),
])
def test_gap_search_refuses_bad_bounds_in_one_line(cut_family_file, capsys, flags, message):
    argv = ["gap-search", "--family", cut_family_file, "--gamma", "1", "--beta", "1/2"]
    assert main([*argv, *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _drop_first_yes_colon(data):
    atoms = data["yes_distribution"]
    key = next(iter(atoms))
    atoms[key.replace(":", "")] = atoms.pop(key)


@pytest.mark.parametrize("mutate, message", [
    (lambda data: data["solution"]["locals"].pop(),
     "one local distribution required per constraint"),
    (lambda data: data["solution"]["marginals"][0].pop(),
     "marginal of variable 1 has wrong length"),
    (lambda data: data["solution"]["marginals"].__setitem__(0, ["-1/2", "3/2"]),
     "marginal of variable 1 has a negative entry"),
    (_drop_first_yes_colon, "malformed atom key 'cut01'"),
    (lambda data: data["marginal_vector"].pop("cut"),
     "marginal vector is missing predicate 'cut'"),
], ids=["locals", "short-marginal", "negative-marginal", "atom-key", "marginal-vector"])
def test_verify_cert_refuses_a_malformed_certificate_in_one_line(
    tmp_path, capsys, mutate, message
):
    data = certificate_to_dict(
        build_certificate(gap_report(cycle_instance(5)), Fraction(1), Fraction(4, 5))
    )
    mutate(data)
    path = tmp_path / "cert.json"
    path.write_text(canonical_dumps(data))
    assert main(["verify-cert", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_gap_check_names_a_failing_completeness_side(tmp_path, capsys):
    path = tmp_path / "directed.json"
    path.write_text(canonical_dumps(instance_to_dict(cycle_instance(3, dicut_family(), "dicut"))))
    assert main(["gap-check", str(path), "--gamma", "1/1", "--beta", "1/3"]) == 1
    out = capsys.readouterr().out
    assert "lp_value: 1/2\n" in out
    assert out.endswith("failing_side: completeness: lp_value 1/2 < gamma 1/1\n")


def test_family_stats_text_lists_width_bases_per_predicate(capsys):
    assert main(["family-stats", str(DATA / "cut_family.json")]) == 0
    assert "\nwidth_bases: cut=01\n" in capsys.readouterr().out


DROPPED = "warning: dropping zero-weight constraint cut(1, 2)\n"


@pytest.mark.parametrize("weights, code, out, err", [
    ([0, 0, 0], 2, "", (
        DROPPED
        + "warning: dropping zero-weight constraint cut(2, 3)\n"
        + "warning: dropping zero-weight constraint cut(3, 1)\n"
        + "error: instance must contain at least one constraint\n"
    )),
    ([0, 1, 1], 0, "lp_value: 1/1\n", DROPPED),
], ids=["all-zero", "one-zero"])
def test_a_zero_weight_constraint_is_one_warning_line(tmp_path, weights, code, out, err):
    data = json.loads((DATA / "triangle.json").read_text())
    for constraint, weight in zip(data["constraints"], weights):
        constraint["w"] = weight
    path = tmp_path / "zero.json"
    path.write_text(canonical_dumps(data))
    proc = run_cli(["lp-solve", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("weights, dropped", [([0, 0, 0], "cut(1, 2)"), ([1, 0, 1], "cut(2, 3)")])
def test_a_zero_weight_constraint_under_warnings_as_errors_is_one_error_line(
    tmp_path, weights, dropped
):
    data = json.loads((DATA / "triangle.json").read_text())
    for constraint, weight in zip(data["constraints"], weights):
        constraint["w"] = weight
    path = tmp_path / "zero.json"
    path.write_text(canonical_dumps(data))
    proc = run_cli(["lp-solve", str(path)], PYTHONWARNINGS="error")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: dropping zero-weight constraint {dropped}\n"
    )


def test_verify_cert_replays_the_kernel_search_on_the_reference(tmp_path, monkeypatch, capsys):
    """The verifier shares no arithmetic with the prover.  A prover scorer
    that ranks the honest kernel lower, by one unit of its integer score,
    still writes a certificate (its bound stays <= csp); the replay on the
    reference evaluator refuses it."""
    instance_path = str(DATA / "c5.json")
    honest = build_certificate(
        gap_report(load_instance(instance_path)), Fraction(1), Fraction(4, 5)
    )
    grid = cspgap.witnesses.SNAP_DENOMINATOR
    honest_counts = tuple(
        tuple(int(v * grid) for v in row) for row in honest.no_sup_kernel.rows
    )
    score = cspgap.witnesses._KernelScorer.score

    def demoting(scorer, rows):
        value = score(scorer, rows)
        return value - 1 if rows == honest_counts else value

    monkeypatch.setattr(cspgap.witnesses._KernelScorer, "score", demoting)
    cert_path = tmp_path / "c5-cert.json"
    argv = ["gap-check", instance_path, "--gamma", "1/1", "--beta", "4/5", "--out", str(cert_path)]
    assert main(argv) == 0
    capsys.readouterr()
    cert = certificate_from_dict(json.loads(cert_path.read_text()))
    assert cert.no_sup_kernel != honest.no_sup_kernel
    assert cert.no_sup_bound <= cert.csp_value
    assert main(["verify-cert", str(cert_path)]) == 1
    assert capsys.readouterr().out == (
        "FAIL: no_sup_reproduces (kernel search must reproduce the stored bound and kernel)\n"
    )
