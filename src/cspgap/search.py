"""Integrality-gap search and machine-verifiable gap certificates.

A (gamma, beta)-gap instance has relaxation value at least gamma while no
assignment reaches beyond beta.  The searcher streams canonically ordered
instances (or a seeded random stream), evaluates each one exactly, and
expands the first hit into a certificate bundling everything a verifier
needs: the instance, both optima with witnesses, the matched-marginal
yes/no distribution pair, and the kernel-search falsifier result.  The
verifier re-derives every claim from scratch, so a certificate stands on
its own bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import serialize
from .basic_lp import GapReport, LocalDistributionSolution, gap_report, solve_basic_lp
from .core import (
    DEFAULT_ASSIGNMENT_BUDGET,
    Instance,
    PredicateFamily,
    brute_force_opt,
    constraint_universe,
    csp_value,
)
from .errors import InternalError, ValidationError
from .rationals import as_int, format_rational, parse_rational, to_fraction
from .witnesses import (
    PairDistribution,
    SymbolKernel,
    check_no_sup_budget,
    construct_yes_no,
    marginal_vector,
    no_sup_search,
    no_value,
    yes_value,
)

SCHEMA_VERSION = 1
TOOLKIT_VERSION = "0.1.0"

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

DEFAULT_NO_SUP_BUDGET = 120


def check_targets(gamma, beta) -> tuple:
    """(gamma, beta) as Fractions; raises ValidationError unless 0 <= beta < gamma <= 1."""
    gamma, beta = to_fraction(gamma), to_fraction(beta)
    if not 0 <= beta < gamma <= 1:
        raise ValidationError(f"need 0 <= beta < gamma <= 1, got beta={beta}, gamma={gamma}")
    return gamma, beta


@dataclass(frozen=True)
class SearchConfig:
    family: PredicateFamily
    n_min: int
    n_max: int
    max_constraints: int
    gamma: Fraction
    beta: Fraction
    mode: str = EXHAUSTIVE
    seed: int = 0
    budget: int = 1000

    def __post_init__(self):
        for name in ("n_min", "n_max", "max_constraints", "seed", "budget"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        gamma, beta = check_targets(self.gamma, self.beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)
        if self.n_min < self.family.k:
            raise ValidationError(f"n_min must be at least the arity {self.family.k}")
        if self.n_max < self.n_min:
            raise ValidationError("n_max must be at least n_min")
        if self.max_constraints < 1:
            raise ValidationError("max_constraints must be positive")
        if self.budget < 1:
            raise ValidationError("budget must be positive")
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ValidationError(f"unknown mode {self.mode!r}")


def enumerate_instances(cfg: SearchConfig):
    """Deterministic instance stream for the configuration.

    Exhaustive mode yields every constraint multiset (sorted constraint
    lists, unit weights) over each variable count, in lexicographic order;
    random mode yields seeded uniform samples from the same universe.
    """
    if cfg.mode == EXHAUSTIVE:
        for n in range(cfg.n_min, cfg.n_max + 1):
            universe = constraint_universe(cfg.family, n)
            for m in range(1, cfg.max_constraints + 1):
                for combo in itertools.combinations_with_replacement(universe, m):
                    yield Instance(cfg.family, n, combo)
    else:
        rng = random.Random(cfg.seed)
        universes = {}
        while True:
            n = rng.randint(cfg.n_min, cfg.n_max)
            if n not in universes:
                universes[n] = constraint_universe(cfg.family, n)
            universe = universes[n]
            m = rng.randint(1, cfg.max_constraints)
            picks = sorted(
                (rng.randrange(len(universe)) for _ in range(m))
            )
            yield Instance(cfg.family, n, tuple(universe[i] for i in picks))


@dataclass(frozen=True)
class GapCertificate:
    """Self-contained, re-verifiable record of one integrality gap.

    The digest is a SHA-256 of the canonical JSON payload (digest field
    excluded); it makes every field tamper-evident even where a mutation
    would otherwise land on an equally valid value.
    """

    gamma: Fraction
    beta: Fraction
    seed: int
    instance: Instance
    lp_value: Fraction
    csp_value: Fraction
    csp_witness: tuple
    solution: LocalDistributionSolution
    yes_distribution: PairDistribution
    no_distribution: PairDistribution
    marginals: dict
    no_sup_budget: int
    no_sup_bound: Fraction
    no_sup_kernel: SymbolKernel
    schema_version: int = SCHEMA_VERSION
    toolkit_version: str = TOOLKIT_VERSION
    digest: str = ""


def certificate_digest(data: dict) -> str:
    payload = {key: value for key, value in data.items() if key != "digest"}
    return hashlib.sha256(serialize.canonical_dumps(payload).encode()).hexdigest()


def build_certificate(
    report: GapReport,
    gamma,
    beta,
    seed: int = 0,
    no_sup_budget: int = DEFAULT_NO_SUP_BUDGET,
) -> GapCertificate:
    """Expand a qualifying gap report into a full certificate.

    Runs the yes/no construction (whose exact marginal and value identities
    are checked inside) and the kernel-search falsifier; the falsifier bound
    must not exceed the instance optimum, otherwise the toolkit itself is
    broken and we refuse to emit.
    """
    gamma, beta = check_targets(gamma, beta)
    seed, no_sup_budget = as_int(seed, "seed"), check_no_sup_budget(no_sup_budget)
    if not report.is_gap(gamma, beta):
        raise ValidationError(
            f"not a ({gamma}, {beta}) gap: lp={report.lp_value}, csp={report.csp_value}"
        )
    yes_dist, no_dist = construct_yes_no(report.instance, report.lp_witness)
    bound, kernel = no_sup_search(no_dist, budget=no_sup_budget, seed=seed)
    if bound > report.csp_value:
        raise InternalError(
            f"kernel falsifier found value {bound} above the optimum {report.csp_value}"
        )
    cert = GapCertificate(
        gamma=gamma,
        beta=beta,
        seed=seed,
        instance=report.instance,
        lp_value=report.lp_value,
        csp_value=report.csp_value,
        csp_witness=report.csp_witness,
        solution=report.lp_witness,
        yes_distribution=yes_dist,
        no_distribution=no_dist,
        marginals=marginal_vector(yes_dist),
        no_sup_budget=no_sup_budget,
        no_sup_bound=bound,
        no_sup_kernel=kernel,
    )
    return replace(cert, digest=certificate_digest(certificate_to_dict(cert)))


def certificate_to_dict(cert: GapCertificate) -> dict:
    return {
        "schema_version": cert.schema_version,
        "toolkit_version": cert.toolkit_version,
        "gamma": format_rational(cert.gamma),
        "beta": format_rational(cert.beta),
        "seed": cert.seed,
        "instance": serialize.instance_to_dict(cert.instance),
        "lp_value": format_rational(cert.lp_value),
        "csp_value": format_rational(cert.csp_value),
        "csp_witness": list(cert.csp_witness),
        "solution": serialize.solution_to_dict(cert.solution),
        "yes_distribution": serialize.pair_distribution_to_dict(cert.yes_distribution),
        "no_distribution": serialize.pair_distribution_to_dict(cert.no_distribution),
        "marginal_vector": serialize.marginal_vector_to_dict(cert.marginals),
        "no_sup": {
            "budget": cert.no_sup_budget,
            "bound": format_rational(cert.no_sup_bound),
            "kernel": serialize.kernel_to_dict(cert.no_sup_kernel),
        },
        "digest": cert.digest,
    }


def certificate_from_dict(data: dict) -> GapCertificate:
    try:
        instance = serialize.instance_from_dict(data["instance"])
        fam = instance.family
        no_sup = data["no_sup"]
        return GapCertificate(
            gamma=parse_rational(data["gamma"]),
            beta=parse_rational(data["beta"]),
            seed=serialize.strict(data["seed"], int),
            instance=instance,
            lp_value=parse_rational(data["lp_value"]),
            csp_value=parse_rational(data["csp_value"]),
            csp_witness=serialize.strict_ints(data["csp_witness"]),
            solution=serialize.solution_from_dict(data["solution"], instance),
            yes_distribution=serialize.pair_distribution_from_dict(
                data["yes_distribution"], fam
            ),
            no_distribution=serialize.pair_distribution_from_dict(
                data["no_distribution"], fam
            ),
            marginals=serialize.marginal_vector_from_dict(data["marginal_vector"], fam),
            no_sup_budget=serialize.strict(no_sup["budget"], int),
            no_sup_bound=parse_rational(no_sup["bound"]),
            no_sup_kernel=serialize.kernel_from_dict(no_sup["kernel"]),
            schema_version=serialize.strict(data["schema_version"], int),
            toolkit_version=serialize.strict(data["toolkit_version"], str),
            digest=serialize.strict(data["digest"], str),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed certificate: {exc!r}") from exc


def load_certificate(path: str) -> GapCertificate:
    return certificate_from_dict(serialize.load_json(path))


def save_certificate(path: str, cert: GapCertificate) -> None:
    serialize.save_json(path, certificate_to_dict(cert))


@dataclass(frozen=True)
class SearchOutcome:
    certificate: Optional[GapCertificate]
    evaluated: int
    qualifying: int

    @property
    def found(self) -> bool:
        return self.certificate is not None


def search_gap(
    cfg: SearchConfig,
    maximize_gap: bool = False,
    no_sup_budget: int = DEFAULT_NO_SUP_BUDGET,
    progress=None,
) -> SearchOutcome:
    """Scan the instance stream for a (gamma, beta)-gap instance.

    Default semantics: certify the first qualifying instance in stream
    order.  With maximize_gap the whole budget is spent and the qualifying
    instance with the largest lp - csp difference (earliest on ties) is
    certified.  Instances are evaluated one at a time, in stream order.
    """
    no_sup_budget = check_no_sup_budget(no_sup_budget)
    evaluated = 0
    qualifying = 0
    best: Optional[GapReport] = None
    for inst in itertools.islice(enumerate_instances(cfg), cfg.budget):
        report = gap_report(inst)
        evaluated += 1
        if progress is not None and evaluated % 100 == 0:
            progress(evaluated)
        if not report.is_gap(cfg.gamma, cfg.beta):
            continue
        qualifying += 1
        if not maximize_gap:
            best = report
            break
        if best is None or report.gap > best.gap:
            best = report
    if best is None:
        return SearchOutcome(None, evaluated, qualifying)
    cert = build_certificate(
        best, cfg.gamma, cfg.beta, seed=cfg.seed, no_sup_budget=no_sup_budget
    )
    return SearchOutcome(cert, evaluated, qualifying)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    downgraded: bool
    checks: tuple
    failure: Optional[str]


CSP_OPTIMUM_SKIPPED = ("csp_optimum", True, "skipped: assignment budget exceeded")


def _clauses(cert: GapCertificate, assignment_budget: int):
    """Every claim of the certificate as (name, holds, detail), in checking order.

    Each clause is computed only when the previous ones have been consumed,
    so a verifier that stops at the first failure runs nothing after it.
    """
    yield (
        "schema_version",
        cert.schema_version == SCHEMA_VERSION,
        f"certificate schema {cert.schema_version}, verifier schema {SCHEMA_VERSION}",
    )
    yield (
        "toolkit_version",
        cert.toolkit_version == TOOLKIT_VERSION,
        f"certificate toolkit {cert.toolkit_version}, verifier {TOOLKIT_VERSION}",
    )
    yield "targets", 0 <= cert.beta < cert.gamma <= 1, f"gamma={cert.gamma}, beta={cert.beta}"
    # A solution verifies itself against its own instance on construction.
    same = cert.solution.instance == cert.instance
    yield "solution_feasible", same, "" if same else "solution belongs to a different instance"
    yield (
        "solution_objective",
        cert.solution.value == cert.lp_value,
        f"solution objective {cert.solution.value}, stated {cert.lp_value}",
    )
    resolved = solve_basic_lp(cert.instance)
    yield (
        "lp_optimum",
        resolved.value == cert.lp_value,
        f"fresh optimum {resolved.value}, stated {cert.lp_value}",
    )
    try:
        witness_value = csp_value(cert.instance, cert.csp_witness)
        detail = f"witness value {witness_value}, stated {cert.csp_value}"
    except ValidationError as exc:
        witness_value, detail = None, str(exc)
    yield "csp_witness", witness_value == cert.csp_value, detail
    if cert.instance.family.q ** cert.instance.n <= assignment_budget:
        best, _ = brute_force_opt(cert.instance, budget=assignment_budget)
        detail = f"fresh optimum {best}, stated {cert.csp_value}"
        yield "csp_optimum", best == cert.csp_value, detail
    else:
        yield CSP_OPTIMUM_SKIPPED  # the stored witness still pins the csp value from below
    yield (
        "gap",
        cert.lp_value >= cert.gamma and cert.csp_value <= cert.beta,
        f"lp={cert.lp_value} vs gamma={cert.gamma}, csp={cert.csp_value} vs beta={cert.beta}",
    )
    yes_dist, no_dist = construct_yes_no(cert.instance, cert.solution)
    yield "yes_distribution", yes_dist == cert.yes_distribution, ""
    yield "no_distribution", no_dist == cert.no_distribution, ""
    yield (
        "marginal_match",
        marginal_vector(cert.yes_distribution)
        == marginal_vector(cert.no_distribution)
        == cert.marginals,
        "marginal vectors must agree exactly",
    )
    yield (
        "yes_value",
        yes_value(cert.yes_distribution) == cert.lp_value,
        "yes-side satisfaction must equal the relaxation value",
    )
    bound, kernel = no_sup_search(
        cert.no_distribution, budget=cert.no_sup_budget, seed=cert.seed
    )
    yield (
        "no_sup_reproduces",
        bound == cert.no_sup_bound and kernel == cert.no_sup_kernel,
        "kernel search must reproduce the stored bound and kernel",
    )
    yield (
        "no_sup_consistent",
        no_value(cert.no_distribution, cert.no_sup_kernel) == cert.no_sup_bound,
        "stored kernel must achieve the stored bound",
    )
    yield (
        "no_sup_bounded",
        cert.no_sup_bound <= cert.csp_value,
        "falsifier bound must not exceed the instance optimum",
    )
    yield (
        "integrity",
        certificate_digest(certificate_to_dict(cert)) == cert.digest,
        "content digest must match the stored digest",
    )


def verify_certificate(
    cert: GapCertificate, assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET
) -> VerifyReport:
    """Re-derive every claim in the certificate from scratch.

    Checks run in order and the first failed clause is reported.  When the
    brute-force re-check would exceed the assignment budget it is skipped
    and the result is downgraded to "verified except the csp bound" (the
    stored witness still pins the csp value from below).
    """
    checks = []
    for name, holds, detail in _clauses(cert, assignment_budget):
        checks.append((name, bool(holds), detail))
        if not holds:
            break
    ok = checks[-1][1]
    return VerifyReport(
        ok, CSP_OPTIMUM_SKIPPED in checks, tuple(checks), None if ok else checks[-1][0]
    )
