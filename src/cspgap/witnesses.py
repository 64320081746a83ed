"""Matched-marginal witness distributions over (predicate, tuple) pairs.

A gap between the relaxation and the true optimum converts mechanically into
a pair of distributions on F x [q]^k: the "yes" side samples a constraint by
weight and then a tuple from its local distribution; the "no" side samples
the same constraint but draws each coordinate independently from the shared
variable marginals.  Both sides have identical marginal vectors, the yes
side's expected satisfaction equals the relaxation objective, and the no
side's satisfaction after any symbol-by-symbol rerandomization kernel is an
average CSP value, hence at most the instance optimum.

This module implements those objects exactly: marginal vectors (plain
{predicate name: [position][symbol]} maps summed by
`core.positional_marginals`), yes/no values under kernels, a deterministic
kernel-search falsifier, the one-wise-independence support decision (an
exact LP feasibility question), and its lift to families.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import lp
from .basic_lp import LocalDistributionSolution
from .core import Predicate, PredicateFamily, Instance, rho_upper_empirical
from .core import compositions, positional_marginals, product_mass
from .core import tuple_to_digits
from .errors import BudgetError, InternalError, ValidationError
from .rationals import as_int, mapping_items, to_fraction


@dataclass(frozen=True)
class PairDistribution:
    """Exact distribution over (predicate name, tuple in [q]^k) atoms.

    Tuples pass the checked codec `Predicate.index_of`; atom order carries no meaning.
    """

    family: PredicateFamily
    mass: dict

    def __post_init__(self):
        cleaned = {}
        total = Fraction(0)
        for key, weight in mapping_items(self.mass, "distribution mass"):
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValidationError(f"atom {key!r} is not a (predicate name, tuple) pair")
            name, values = key
            if name not in self.family:
                raise ValidationError(f"unknown predicate {name!r} in distribution")
            pred = self.family[name]
            values = pred.tuple_of(pred.index_of(values))  # checked; stored as plain ints
            weight = to_fraction(weight)
            if weight < 0:
                raise ValidationError("distribution has a negative mass")
            total += weight
            if weight:
                cleaned[(name, values)] = weight
        if total != 1:
            raise ValidationError(f"distribution mass sums to {total}, not 1")
        object.__setattr__(self, "mass", cleaned)

    def atoms(self):
        return self.mass.items()


def marginal_vector(dist: PairDistribution) -> dict:
    """Joint coordinate marginals as {predicate name: rows}.

    rows[l][s] is the probability that the sampled atom uses the predicate
    *and* has symbol s at position l; each row sums to the predicate's mass.
    """
    fam = dist.family
    return {
        name: positional_marginals(
            ((values, weight) for (f, values), weight in dist.atoms() if f == name), fam.q, fam.k
        )
        for name in fam.names
    }


def yes_value(dist: PairDistribution) -> Fraction:
    """Expected satisfaction of the sampled atom."""
    total = Fraction(0)
    for (name, values), weight in dist.atoms():
        if dist.family[name].value(values):
            total += weight
    return total


@dataclass(frozen=True)
class SymbolKernel:
    """One rerandomization distribution over [q] per input symbol."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(to_fraction(v) for v in row) for row in self.rows)
        q = len(rows)
        for row in rows:
            if len(row) != q:
                raise ValidationError("kernel must be square over [q]")
            if any(v < 0 for v in row) or sum(row) != 1:
                raise ValidationError("kernel rows must be distributions")
        object.__setattr__(self, "rows", rows)

    @property
    def q(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, q: int) -> "SymbolKernel":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(q)) for i in range(q)))

    @classmethod
    def uniform(cls, q: int) -> "SymbolKernel":
        row = tuple(Fraction(1, q) for _ in range(q))
        return cls((row,) * q)


class _KernelScorer:
    """Precompiled evaluator for the no-side value of one distribution."""

    def __init__(self, dist: PairDistribution):
        satisfying = {p.name: p.satisfying_tuples() for p in dist.family.predicates}
        self.atoms = [
            (satisfying[name], values, weight) for (name, values), weight in dist.atoms()
        ]

    def score(self, rows):
        total = Fraction(0)
        for satisfying, values, weight in self.atoms:
            total += product_mass(satisfying, [rows[v] for v in values], weight)
        return total


def no_value(dist: PairDistribution, kernel: SymbolKernel) -> Fraction:
    """Expected satisfaction after rerandomizing each coordinate through the kernel.

    The sampled tuple a is replaced by b with b_l drawn independently from
    the kernel row of a_l, and the predicate is evaluated on b.
    """
    if kernel.q != dist.family.q:
        raise ValidationError("kernel alphabet does not match the family")
    return _KernelScorer(dist).score(kernel.rows)


# Kernel evaluations one search may spend.  A certificate stores its budget
# and `verify-cert` replays the search, so the cap also bounds verification.
MAX_NO_SUP_BUDGET = 10_000
# Denominator of the random starts and the finest ascent step.
SNAP_DENOMINATOR = 64
# Supporting subfamilies `support_classification` may try before it gives up.
SUBFAMILY_CAP = 4096


def check_no_sup_budget(budget: int) -> int:
    """The budget as an int; a non-integer or one outside [1, MAX_NO_SUP_BUDGET] raises."""
    budget = as_int(budget, "kernel search budget")
    if not 1 <= budget <= MAX_NO_SUP_BUDGET:
        raise ValidationError(
            f"kernel search budget must be in [1, {MAX_NO_SUP_BUDGET}], got {budget}"
        )
    return budget


def no_sup_search(dist: PairDistribution, budget: int, seed: int = 0):
    """Best rerandomization kernel found within a fixed evaluation budget.

    Scores the first `budget` kernels of one candidate stream: all q^q
    deterministic kernels, a coordinate lattice, then seeded multistart local
    ascent (step sizes snapped to `SNAP_DENOMINATOR` so every reported kernel
    is an exact rational point).  The result is a certified lower bound on
    the supremum over all kernels; ties break toward the lexicographically
    smallest kernel.  Deterministic for a fixed (budget, seed) pair; the
    budget must lie in [1, MAX_NO_SUP_BUDGET].
    """
    budget = check_no_sup_budget(budget)
    seed = as_int(seed, "kernel search seed")
    q = dist.family.q
    scorer = _KernelScorer(dist)
    scored = []  # (value, rows) for each kernel scored, in stream order

    def kernels():
        # the q^q deterministic kernels, then every kernel with rows over denominator 4 (q = 2) or 2
        unit_rows = tuple(tuple(Fraction(int(i == j)) for j in range(q)) for i in range(q))
        yield from itertools.product(unit_rows, repeat=q)
        den = 4 if q == 2 else 2
        lattice = [tuple(Fraction(c, den) for c in counts) for counts in compositions(den, q)]
        yield from itertools.product(lattice, repeat=q)
        rng = random.Random(seed)
        moves = [
            (sigma, up, down, Fraction(1, den))
            for sigma in range(q)
            for up in range(q)
            for down in range(q)
            if up != down
            for den in (4, 16, SNAP_DENOMINATOR)
        ]
        # The consumer scores each kernel before it asks for the next one, so
        # after a `yield` the value of the kernel just yielded is scored[-1].
        while True:
            counts = []
            for _ in range(q):
                row = [0] * q
                remaining = SNAP_DENOMINATOR
                for j in range(q - 1):
                    row[j] = rng.randint(0, remaining)
                    remaining -= row[j]
                row[q - 1] = remaining
                counts.append(row)
            current = tuple(tuple(Fraction(c, SNAP_DENOMINATOR) for c in row) for row in counts)
            yield current
            current_value = scored[-1][0]
            improved = True
            while improved:
                improved = False
                for sigma, up, down, delta in moves:
                    row = list(current[sigma])
                    if row[down] < delta:
                        continue
                    row[down] -= delta
                    row[up] += delta
                    candidate = tuple(
                        tuple(row) if s == sigma else current[s] for s in range(q)
                    )
                    yield candidate
                    if scored[-1][0] > current_value:
                        current, current_value = candidate, scored[-1][0]
                        improved = True
                        break

    for rows in itertools.islice(kernels(), budget):
        scored.append((scorer.score(rows), rows))
    best = max(value for value, _ in scored)
    return best, SymbolKernel(min(rows for value, rows in scored if value == best))


def construct_yes_no(inst: Instance, sol: LocalDistributionSolution):
    """Derive the matched-marginal yes/no distribution pair from a solution.

    The yes side pushes each constraint's local distribution forward onto its
    predicate; the no side replaces the local distribution by the product of
    the constraint's variable marginals.  Both are reweighted by constraint
    weight.  The solution checked itself against its own instance when it
    was built, so here it only has to belong to `inst`.  Before returning,
    the pair is checked exactly: equal marginal vectors, and yes-side
    satisfaction equal to the solution objective.
    """
    if sol.instance != inst:
        raise ValidationError("the solution belongs to a different instance")
    fam = inst.family
    q, k = fam.q, fam.k
    weight_total = inst.total_weight
    yes_mass = {}
    no_mass = {}
    for ci, constraint in enumerate(inst.constraints):
        share = Fraction(constraint.weight, weight_total)
        for values, mass in sol.locals_[ci].items():
            key = (constraint.predicate, values)
            yes_mass[key] = yes_mass.get(key, Fraction(0)) + share * mass
        marginals = [sol.marginals[v - 1] for v in constraint.variables]
        for values in itertools.product(range(q), repeat=k):
            if prob := product_mass((values,), marginals, share):
                key = (constraint.predicate, values)
                no_mass[key] = no_mass.get(key, Fraction(0)) + prob
    yes_dist = PairDistribution(fam, yes_mass)
    no_dist = PairDistribution(fam, no_mass)
    if marginal_vector(yes_dist) != marginal_vector(no_dist):
        raise InternalError("yes/no construction produced mismatched marginals")
    if yes_value(yes_dist) != sol.value:
        raise InternalError("yes-side satisfaction differs from the solution objective")
    return yes_dist, no_dist


@dataclass(frozen=True)
class OnewiseSupport:
    """Outcome of the one-wise independence support decision for a predicate."""

    predicate: str
    witness: Optional[dict]
    refutation: Optional[tuple]

    @property
    def supports(self) -> bool:
        return self.witness is not None

    def __bool__(self) -> bool:
        return self.supports


def onewise_support(pred: Predicate) -> OnewiseSupport:
    """Decide whether some satisfying distribution has all-uniform marginals.

    Posed as an exact feasibility problem over masses on the satisfying
    tuples with every positional marginal pinned to 1/q; the answer is a
    witness distribution or the Farkas vector refuting one.  `lp.check_feasible`
    is the verification: it checks either exactly against these rows.
    """
    q, k = pred.q, pred.k
    satisfying = pred.satisfying_tuples()
    labels = tuple(f"m[{tuple_to_digits(a)}]" for a in satisfying)
    rows = [
        {j: Fraction(1) for j, a in enumerate(satisfying) if a[position] == symbol}
        for position in range(k)
        for symbol in range(q)
    ]
    problem = lp.LpProblem(
        (Fraction(0),) * len(satisfying), rows, (Fraction(1, q),) * len(rows), labels
    )
    result = lp.check_feasible(problem)
    if not result:
        return OnewiseSupport(pred.name, None, result.farkas)
    witness = {
        a: result.point[label] for a, label in zip(satisfying, labels) if result.point[label]
    }
    return OnewiseSupport(pred.name, witness, None)


STRONG = "strong"
WEAK = "weak"
NONE = "none"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SupportClassification:
    kind: str
    subfamily: Optional[tuple]
    supporting: tuple


def support_classification(
    fam: PredicateFamily,
    rho_lower: Fraction,
    n_max: int = 4,
    upper_budget: int = 128,
) -> SupportClassification:
    """Classify how the family supports one-wise independence.

    "strong" needs every predicate to support it individually.  Otherwise a
    strongly-supporting subfamily qualifies as "weak" when the threshold
    brackets prove its trivial threshold equals the full family's: the
    subfamily's empirical upper bound must not exceed `rho_lower`, a lower
    bound on the family's threshold such as `rho_product_lower` (thresholds
    only drop when predicates are added, so the chain collapses to
    equality).  Overlapping brackets leave "unknown"; no supporting
    subfamily at all is "none".
    """
    rho_lower = to_fraction(rho_lower)
    decisions = [onewise_support(p) for p in fam.predicates]
    supporting = tuple(d.predicate for d in decisions if d.supports)
    if len(supporting) == len(fam.predicates):
        return SupportClassification(STRONG, tuple(fam.names), supporting)
    if not supporting:
        return SupportClassification(NONE, None, supporting)
    if 2 ** len(supporting) - 1 > SUBFAMILY_CAP:
        raise BudgetError(
            f"{2 ** len(supporting) - 1} candidate subfamilies exceed the cap"
        )
    for size in range(len(supporting), 0, -1):
        for names in itertools.combinations(supporting, size):
            sub = fam.subfamily(names)
            upper_sub = rho_upper_empirical(sub, n_max, budget=upper_budget)
            if upper_sub <= rho_lower:
                return SupportClassification(WEAK, names, supporting)
    return SupportClassification(UNKNOWN, None, supporting)
