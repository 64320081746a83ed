"""Command-line interface.

Subcommands: family-stats, lp-solve, gap-check, gap-search, verify-cert.
Exit codes are uniform: 0 for an affirmative answer, 1 for a negative one,
2 for operational errors (bad files, bad flags, blown budgets).  Reports go
to stdout (stable sorted-key JSON under --json), progress and one-line
`warning:` and `error:` messages to stderr, and certificates only ever to files.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import basic_lp, core, lp, search, serialize, witnesses
from .errors import ToolkitError
from .rationals import format_rational, parse_rational


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(serialize.canonical_dumps(data))
        return
    for key, value in data.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in value.items())
        sys.stdout.write(f"{key}: {value}\n")


def cmd_family_stats(args) -> int:
    fam = serialize.load_family(args.family)
    precision = parse_rational(args.precision)
    # refuse the upper bound's flags before the lattice scan, which takes seconds at q >= 3
    core.check_upper_empirical(fam, args.n_max, args.budget, args.seed)
    lower = core.rho_product_lower(fam, precision)
    upper = core.rho_upper_empirical(
        fam, n_max=args.n_max, budget=args.budget, seed=args.seed
    )
    width_report = core.width(fam)
    # at most 4 variables for the subfamily brackets, but never fewer than k
    classification = witnesses.support_classification(
        fam, lower, n_max=max(fam.k, min(args.n_max, 4))
    )
    data = {
        "q": fam.q,
        "k": fam.k,
        "size": len(fam.predicates),
        "rho_lower": format_rational(lower),
        "rho_upper": format_rational(upper),
        "width": format_rational(width_report.value),
        "width_bases": {
            name: serialize.tuple_to_digits(entry.base)
            for name, entry in sorted(width_report.per_predicate.items())
        },
        "onewise": classification.kind,
        "onewise_subfamily": (
            list(classification.subfamily) if classification.subfamily else None
        ),
    }
    _emit(data, args.json)
    return 0


def cmd_lp_solve(args) -> int:
    inst = serialize.load_instance(args.instance)
    if args.brute_force:  # refuse an over-budget search before any LP work
        core.check_assignment_budget(inst.family.q, inst.n, args.budget)
    basic_lp.check_relaxation_size(inst)  # refuses an oversized relaxation before any file
    problem = basic_lp.build_basic_lp(inst)  # built once, for the dump and the solve
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as handle:
            handle.write(lp.dump_lp(problem) + "\n")
    sol = basic_lp.solve_relaxation(inst, problem)
    data = {"lp_value": format_rational(sol.value)}
    if args.brute_force:
        value, witness = core.brute_force_opt(inst, budget=args.budget)
        data["csp_value"] = format_rational(value)
        data["csp_witness"] = list(witness)
    if args.full:
        data["solution"] = serialize.solution_to_dict(sol)
    _emit(data, args.json)
    return 0


def cmd_gap_check(args) -> int:
    inst = serialize.load_instance(args.instance)
    gamma, beta = search.check_targets(parse_rational(args.gamma), parse_rational(args.beta))
    witnesses.check_no_sup_budget(args.no_sup_budget)
    report = basic_lp.gap_report(inst, assignment_budget=args.budget)
    data = {
        "lp_value": format_rational(report.lp_value),
        "csp_value": format_rational(report.csp_value),
        "gamma": format_rational(gamma),
        "beta": format_rational(beta),
        "is_gap": report.is_gap(gamma, beta),
    }
    if not report.is_gap(gamma, beta):
        if report.lp_value < gamma:
            data["failing_side"] = (
                f"completeness: lp_value {format_rational(report.lp_value)}"
                f" < gamma {format_rational(gamma)}"
            )
        else:
            data["failing_side"] = (
                f"soundness: csp_value {format_rational(report.csp_value)}"
                f" > beta {format_rational(beta)}"
            )
        _emit(data, args.json)
        return 1
    cert = search.build_certificate(
        report, gamma, beta, seed=args.seed, no_sup_budget=args.no_sup_budget
    )
    if args.out:
        search.save_certificate(args.out, cert)
        data["certificate"] = args.out
    _emit(data, args.json)
    return 0


def cmd_gap_search(args) -> int:
    fam = serialize.load_family(args.family)
    cfg = search.SearchConfig(
        family=fam,
        n_min=args.n_min if args.n_min is not None else fam.k,
        n_max=args.n_max,
        max_constraints=args.max_constraints,
        gamma=parse_rational(args.gamma),
        beta=parse_rational(args.beta),
        mode=args.mode,
        seed=args.seed,
        budget=args.budget,
    )
    outcome = search.search_gap(
        cfg,
        maximize_gap=args.maximize_gap,
        no_sup_budget=args.no_sup_budget,
        progress=lambda done: sys.stderr.write(f"evaluated {done}/{cfg.budget}\n"),
    )
    data = {
        "found": outcome.found,
        "evaluated": outcome.evaluated,
        "qualifying": outcome.qualifying,
    }
    if not outcome.found:
        _emit(data, args.json)
        sys.stderr.write(
            f"no ({args.gamma}, {args.beta}) gap within budget"
            f" ({outcome.evaluated} instances evaluated)\n"
        )
        return 1
    cert = outcome.certificate
    data["lp_value"] = format_rational(cert.lp_value)
    data["csp_value"] = format_rational(cert.csp_value)
    data["n"] = cert.instance.n
    data["m"] = cert.instance.m
    if args.out:
        search.save_certificate(args.out, cert)
        data["certificate"] = args.out
    _emit(data, args.json)
    return 0


def cmd_verify_cert(args) -> int:
    cert = search.load_certificate(args.certificate)
    report = search.verify_certificate(cert, assignment_budget=args.budget)
    data = {
        "ok": report.ok,
        "downgraded": report.downgraded,
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in report.checks
        ],
    }
    if args.json:
        _emit(data, True)
    elif report.ok:
        note = " (csp bound not re-derived: budget)" if report.downgraded else ""
        sys.stdout.write(f"PASS{note}\n")
    else:
        failed = report.checks[-1][2]  # verification stops at the first failed clause
        sys.stdout.write(f"FAIL: {report.failure}" + (f" ({failed})" if failed else "") + "\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspgap",
        description=(
            "Analyze predicate families through the canonical LP relaxation:"
            " exact solves, integrality-gap search, and matched-marginal"
            " witness certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget_default):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--budget", type=int, default=budget_default)

    p = sub.add_parser("family-stats", help="thresholds, width, one-wise support")
    p.add_argument("family", help="family JSON file")
    common(p, budget_default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", default="1/64", help="threshold bracket precision (p/q)")
    p.add_argument("--n-max", type=int, default=5, help="largest instance size enumerated")
    p.set_defaults(func=cmd_family_stats)

    p = sub.add_parser("lp-solve", help="exact relaxation value of one instance")
    p.add_argument("instance", help="instance JSON file")
    common(p, budget_default=core.DEFAULT_ASSIGNMENT_BUDGET)
    p.add_argument("--brute-force", action="store_true", help="also report the exact optimum")
    p.add_argument("--full", action="store_true", help="dump local distributions and marginals")
    p.add_argument("--dump-lp", metavar="PATH", help="write the LP in text form")
    p.set_defaults(func=cmd_lp_solve)

    p = sub.add_parser("gap-check", help="test one instance against (gamma, beta)")
    p.add_argument("instance", help="instance JSON file")
    common(p, budget_default=core.DEFAULT_ASSIGNMENT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", required=True, help="completeness target (p/q)")
    p.add_argument("--beta", required=True, help="soundness target (p/q)")
    p.add_argument("--out", metavar="PATH", help="write a certificate on success")
    p.add_argument("--no-sup-budget", type=int, default=search.DEFAULT_NO_SUP_BUDGET,
                   help=f"kernel-search evaluations, 1 to {witnesses.MAX_NO_SUP_BUDGET}")
    p.set_defaults(func=cmd_gap_check)

    p = sub.add_parser("gap-search", help="search instance space for a gap")
    p.add_argument("--family", required=True, help="family JSON file")
    common(p, budget_default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--max-constraints", type=int, default=6)
    p.add_argument("--mode", choices=[search.EXHAUSTIVE, search.RANDOM],
                   default=search.EXHAUSTIVE)
    p.add_argument("--maximize-gap", action="store_true",
                   help="spend the whole budget and keep the largest gap")
    p.add_argument("--out", metavar="PATH", help="certificate output file")
    p.add_argument("--no-sup-budget", type=int, default=search.DEFAULT_NO_SUP_BUDGET,
                   help=f"kernel-search evaluations, 1 to {witnesses.MAX_NO_SUP_BUDGET}")
    p.set_defaults(func=cmd_gap_search)

    p = sub.add_parser("verify-cert", help="re-verify a certificate from scratch")
    p.add_argument("certificate", help="certificate JSON file")
    common(p, budget_default=core.DEFAULT_ASSIGNMENT_BUDGET)
    p.set_defaults(func=cmd_verify_cert)

    return parser


# Built once: parsing leaves the parser unchanged, so one instance serves
# every call in the process.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    with warnings.catch_warnings():  # each warning the filters pass, as one line
        warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
        try:
            return args.func(args)
        # a warning that the filters (`-W error`, PYTHONWARNINGS) turn into an exception
        except (ToolkitError, OSError, Warning) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2


if __name__ == "__main__":
    sys.exit(main())
