"""Predicate families, weighted constraint instances, and exact CSP values.

The alphabet is [q] = {0, ..., q-1}.  A predicate of arity k is a 0/1 truth
table of length q**k stored in lexicographic order with the first coordinate
most significant.  Constraints apply a named predicate to a tuple of distinct
1-based variable indices and carry a positive integer weight; the value of an
assignment is the satisfied fraction of the total weight, always an exact
Fraction in [0, 1].

Besides the data model this module computes brute-force optima, the two
sides of the trivial-threshold bracket (best i.i.d. product assignment from
below, cheapest enumerated instance from above), and shift widths over the
additive group Z_q.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, ValidationError
from .rationals import as_int, int_tuple, to_fraction

# Ceiling on q**n for exhaustive assignment enumeration.
DEFAULT_ASSIGNMENT_BUDGET = 1 << 20

# Symbols of [q] as written in files and LP labels; bounds q from above.
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def tuple_to_digits(values) -> str:
    return "".join(DIGITS[v] for v in values)


def digits_to_tuple(text: str, q: int) -> tuple:
    values = tuple(DIGITS.find(ch) for ch in text)
    if any(not 0 <= v < q for v in values):
        raise ValidationError(f"digit string {text!r} is not base {q}")
    return values


@dataclass(frozen=True)
class Predicate:
    """A named predicate f : [q]^k -> {0, 1} with its full truth table."""

    q: int
    k: int
    name: str
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", as_int(self.q, "alphabet size"))
        object.__setattr__(self, "k", as_int(self.k, "arity"))
        if not 2 <= self.q <= len(DIGITS):
            raise ValidationError(
                f"alphabet size must lie in [2, {len(DIGITS)}], got {self.q}"
            )
        if self.k < 1:
            raise ValidationError(f"arity must be >= 1, got {self.k}")
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"predicate name must be a non-empty string, got {self.name!r}")
        table = int_tuple(self.table, f"predicate {self.name!r}: table entries")
        if len(table) != self.q**self.k:
            raise ValidationError(
                f"predicate {self.name!r}: table has {len(self.table)} entries,"
                f" expected q^k = {self.q ** self.k}"
            )
        if any(v not in (0, 1) for v in table):
            raise ValidationError(f"predicate {self.name!r}: table entries must be 0 or 1")
        object.__setattr__(self, "table", table)

    def index_of(self, values) -> int:
        """Rank of a tuple in [q]^k, lexicographic; any other tuple raises, never aliases."""
        values = int_tuple(values, "tuple entries")
        if len(values) != self.k or any(not 0 <= v < self.q for v in values):
            raise ValidationError(f"tuple {values} is not in [q]^k, q = {self.q}, k = {self.k}")
        rank = 0
        for v in values:
            rank = rank * self.q + v
        return rank

    def tuple_of(self, rank: int) -> tuple:
        """Inverse of index_of."""
        digits = []
        for _ in range(self.k):
            rank, d = divmod(rank, self.q)
            digits.append(d)
        return tuple(reversed(digits))

    def value(self, values) -> int:
        return self.table[self.index_of(values)]

    def satisfying_tuples(self) -> tuple:
        """All satisfying k-tuples, in lexicographic order."""
        return tuple(self.tuple_of(r) for r, v in enumerate(self.table) if v)


@dataclass(frozen=True)
class PredicateFamily:
    """A non-empty, ordered collection of predicates over one (q, k)."""

    predicates: tuple

    def __post_init__(self):
        preds = tuple(self.predicates)
        if not preds:
            raise ValidationError("predicate family must be non-empty")
        q, k = preds[0].q, preds[0].k
        names = set()
        for p in preds:
            if (p.q, p.k) != (q, k):
                raise ValidationError(
                    f"predicate {p.name!r} has (q, k) = ({p.q}, {p.k}),"
                    f" family requires ({q}, {k})"
                )
            if p.name in names:
                raise ValidationError(f"duplicate predicate name {p.name!r}")
            names.add(p.name)
        object.__setattr__(self, "predicates", preds)

    @property
    def q(self) -> int:
        return self.predicates[0].q

    @property
    def k(self) -> int:
        return self.predicates[0].k

    @property
    def names(self) -> tuple:
        return tuple(p.name for p in self.predicates)

    def __getitem__(self, name: str) -> Predicate:
        for p in self.predicates:
            if p.name == name:
                return p
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.predicates)

    def subfamily(self, names) -> "PredicateFamily":
        return PredicateFamily(tuple(self[name] for name in names))


@dataclass(frozen=True)
class Constraint:
    predicate: str
    variables: tuple
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "variables", int_tuple(self.variables, "constraint variables"))
        object.__setattr__(self, "weight", as_int(self.weight, "constraint weight"))
        if self.weight < 1:
            raise ValidationError(f"constraint weight must be >= 1, got {self.weight}")


@dataclass(frozen=True)
class Instance:
    """A weighted Max-CSP instance over n variables.

    Variable indices are 1-based and must be pairwise distinct within each
    constraint; predicates needing repeated variables have to be added to the
    family as explicit lower-arity tables instead.
    """

    family: PredicateFamily
    n: int
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "variable count"))
        if self.n < 1:
            raise ValidationError(f"variable count must be >= 1, got {self.n}")
        constraints = tuple(self.constraints)
        if not constraints:
            raise ValidationError("instance must contain at least one constraint")
        k = self.family.k
        for c in constraints:
            if c.predicate not in self.family:
                raise ValidationError(f"unknown predicate {c.predicate!r}")
            if len(c.variables) != k:
                raise ValidationError(
                    f"constraint on {c.predicate!r} has {len(c.variables)} variables,"
                    f" arity is {k}"
                )
            if len(set(c.variables)) != k:
                raise ValidationError(
                    f"repeated variable in constraint {c.predicate!r}{c.variables}"
                )
            if any(v < 1 or v > self.n for v in c.variables):
                raise ValidationError(
                    f"variable index out of range in {c.predicate!r}{c.variables}"
                    f" (n = {self.n})"
                )
        object.__setattr__(self, "constraints", constraints)

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def total_weight(self) -> int:
        return sum(c.weight for c in self.constraints)


def _check_assignment(inst: Instance, assignment) -> tuple:
    a = int_tuple(assignment, "assignment entries")
    if len(a) != inst.n:
        raise ValidationError(
            f"assignment has length {len(a)}, instance has n = {inst.n}"
        )
    q = inst.family.q
    if any(v < 0 or v >= q for v in a):
        raise ValidationError(f"assignment entries must lie in [0, {q - 1}]")
    return a


def csp_value(inst: Instance, assignment) -> Fraction:
    """Fraction of constraint weight satisfied by the assignment (exact)."""
    a = _check_assignment(inst, assignment)
    satisfied = 0
    for c in inst.constraints:
        pred = inst.family[c.predicate]
        if pred.value(tuple(a[v - 1] for v in c.variables)):
            satisfied += c.weight
    return Fraction(satisfied, inst.total_weight)


def brute_force_opt(inst: Instance, budget: int = DEFAULT_ASSIGNMENT_BUDGET, threshold=Fraction(1)):
    """Exhaustive search over the q**n assignments in lexicographic order.

    Returns (value, assignment).  The search stops at the first assignment
    whose value reaches `threshold`, that is, which satisfies
    ceil(threshold * total weight) of the weight: the pair is then that
    assignment and its value.  When no assignment reaches it, the pair is the
    exact optimum and the lexicographically smallest maximizer.  The default
    threshold 1 stops only at a fully satisfying assignment, so the pair is
    always the optimum and its smallest maximizer.  Raises BudgetError when
    q**n exceeds the budget.
    """
    q, n = inst.family.q, inst.n
    space = q**n
    if space > budget:
        raise BudgetError(
            f"exhaustive search needs q^n = {space} assignments, budget is {budget}"
        )
    # (weight, table, 0-based variable indices) per constraint, for the hot loop
    compiled = [
        (c.weight, inst.family[c.predicate].table, tuple(v - 1 for v in c.variables))
        for c in inst.constraints
    ]
    total = inst.total_weight
    stop = math.ceil(to_fraction(threshold) * total)
    best_sat = -1
    best_assignment = None
    for a in itertools.product(range(q), repeat=n):
        sat = 0
        for weight, table, variables in compiled:
            rank = 0
            for v in variables:
                rank = rank * q + a[v]
            if table[rank]:
                sat += weight
        if sat > best_sat:
            best_sat = sat
            best_assignment = a
            if sat >= stop:
                break
    return Fraction(best_sat, total), best_assignment


def product_mass(tuples, factors, scale=1):
    """The one product-measure evaluator: scale * sum_{a in tuples} prod_l factors[l][a_l].

    Each term starts from `scale` and stops at its first zero factor.
    """
    total = 0
    for a in tuples:
        term = scale
        for row, v in zip(factors, a):
            term *= row[v]
            if not term:
                break
        else:
            total += term
    return total


def positional_marginals(pairs, q: int, k: int) -> tuple:
    """The one positional-marginal rule: rows[pos][symbol] is the mass of the
    (tuple, mass) pairs whose tuple has `symbol` at position `pos`."""
    rows = [[Fraction(0)] * q for _ in range(k)]
    for values, mass in pairs:
        for row, symbol in zip(rows, values):
            row[symbol] += mass
    return tuple(map(tuple, rows))


def product_value(pred: Predicate, distribution) -> Fraction:
    """Expected value of the predicate when coordinates are i.i.d. from the distribution."""
    dist = [to_fraction(p) for p in distribution]
    if len(dist) != pred.q or any(p < 0 for p in dist) or sum(dist) != 1:
        raise ValidationError("distribution must be a probability vector over [q]")
    return Fraction(product_mass(pred.satisfying_tuples(), (dist,) * pred.k))


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def rho_product_lower(fam: PredicateFamily, precision) -> Fraction:
    """Lower bound on the trivial threshold via the best i.i.d. product assignment.

    Maximizes min_f E[f] over product distributions P^k by exact grid search
    on a simplex lattice, refined by local ascent.  The family's maximin is
    k-Lipschitz in total-variation distance and any lattice point is within
    q/(2N) of an arbitrary distribution, so with kq/(2N) <= precision the
    true maximin lies in [result, result + precision].  Deterministic.

    A point with lattice counts c on denominator N gives each predicate the
    integer mass N**k * E[f]; the scan keeps the best minimum as such a mass
    and stops scoring a point at its first predicate whose mass is no
    greater, since a point replaces the best only on strict improvement.
    """
    precision = to_fraction(precision)
    if precision <= 0:
        raise ValidationError(f"precision must be positive, got {precision}")
    q, k = fam.q, fam.k
    denominator = 64
    while Fraction(k * q, 2 * denominator) > precision:
        denominator *= 2

    sat = [p.satisfying_tuples() for p in fam.predicates]

    def raised_min(counts, best):
        # max(best, min_f mass at the lattice point), stopping at the first
        # predicate whose mass is no greater than best
        factors = (counts,) * k
        low = None
        for tuples in sat:
            mass = product_mass(tuples, factors)
            if mass <= best:
                return best
            low = mass if low is None else min(low, mass)
        return low

    best = -1
    for counts in compositions(denominator, q):
        mass = raised_min(counts, best)
        if mass > best:
            best, point = mass, counts

    # Local ascent on a refined lattice; any feasible point only improves the
    # lower bound, the bracket guarantee already comes from the grid above.
    den = denominator
    for _ in range(2):
        den *= 2
        best <<= k
        point = [2 * c for c in point]
        improved = True
        rounds = 0
        while improved and rounds < 64:
            improved = False
            rounds += 1
            for i in range(q):
                for j in range(q):
                    if i == j or point[j] == 0:
                        continue
                    candidate = list(point)
                    candidate[i] += 1
                    candidate[j] -= 1
                    mass = raised_min(candidate, best)
                    if mass > best:
                        best, point = mass, candidate
                        improved = True
    return Fraction(best, den**k)


def constraint_universe(fam: PredicateFamily, n: int) -> tuple:
    """All unit-weight constraints on n variables, in canonical order."""
    return tuple(
        Constraint(p.name, combo)
        for p in fam.predicates
        for combo in itertools.permutations(range(1, n + 1), fam.k)
    )


def complete_instance(fam: PredicateFamily, n: int) -> Instance:
    """Every predicate applied to every ordered tuple of distinct variables, unit weights."""
    if n < fam.k:
        raise ValidationError(f"need n >= k = {fam.k}, got {n}")
    return Instance(fam, n, constraint_universe(fam, n))


def rho_upper_empirical(
    fam: PredicateFamily,
    n_max: int,
    budget: int = 256,
    seed: int = 0,
) -> Fraction:
    """Upper bound on the trivial threshold: cheapest instance found by enumeration.

    Evaluates the complete instances on k..n_max variables first, then seeded
    random instances until the evaluation budget is spent, and returns the
    minimum brute-force optimum seen.  Any instance's optimum upper-bounds the
    limiting infimum, so the result is always a valid upper bound.

    Each brute force gets the running minimum as its stop threshold: an
    instance stops at its first assignment that reaches the minimum, since it
    can no longer lower it, and an instance whose optimum is below the
    minimum is enumerated in full and gives that exact optimum.
    """
    n_max, budget = as_int(n_max, "n_max"), as_int(budget, "instance budget")
    seed = as_int(seed, "instance seed")
    if n_max < fam.k:
        raise ValidationError(f"need n_max >= k = {fam.k}, got {n_max}")
    if budget < 1:
        raise BudgetError("budget exhausted before any instance was evaluated")
    rng = random.Random(seed)

    def instances():
        universes = {}
        for t in range(fam.k, n_max + 1):
            complete = complete_instance(fam, t)
            universes[t] = complete.constraints
            yield complete
        while True:
            n = rng.randint(fam.k, n_max)
            m = rng.randint(1, max(2, 2 * n))
            constraints = tuple(
                Constraint(c.predicate, c.variables, rng.randint(1, 2))
                for c in (rng.choice(universes[n]) for _ in range(m))
            )
            yield Instance(fam, n, constraints)

    best = Fraction(1)
    for inst in itertools.islice(instances(), budget):
        best = min(best, brute_force_opt(inst, threshold=best)[0])
    return best


@dataclass(frozen=True)
class PredicateWidth:
    width: Fraction
    base: tuple


@dataclass(frozen=True)
class WidthReport:
    """Family width with the per-predicate maximizing shift bases."""

    value: Fraction
    per_predicate: dict = field(compare=False)


def width(fam: PredicateFamily) -> WidthReport:
    """Shift width over the additive group Z_q.

    For each predicate, the width of a base point b is the fraction of
    constant shifts a*(1,...,1), a in Z_q, landing on a satisfying tuple;
    the predicate width maximizes over b (lexicographically smallest argmax
    reported) and the family width is the minimum over predicates.
    """
    q, k = fam.q, fam.k
    detail = {}
    family_width = None
    for pred in fam.predicates:
        best_count = -1
        best_base = None
        for rank in range(q**k):
            base = pred.tuple_of(rank)
            count = 0
            for a in range(q):
                shifted = tuple((v + a) % q for v in base)
                if pred.value(shifted):
                    count += 1
            if count > best_count:
                best_count = count
                best_base = base
        pred_width = Fraction(best_count, q)
        detail[pred.name] = PredicateWidth(pred_width, best_base)
        if family_width is None or pred_width < family_width:
            family_width = pred_width
    return WidthReport(family_width, detail)


# Reference families used throughout the tests and documentation.

def cut_family() -> PredicateFamily:
    """Binary inequality: satisfied when the two endpoints differ."""
    return PredicateFamily((Predicate(2, 2, "cut", (0, 1, 1, 0)),))


def dicut_family() -> PredicateFamily:
    """Directed cut: satisfied exactly on (1, 0)."""
    return PredicateFamily((Predicate(2, 2, "dicut", (0, 0, 1, 0)),))


def constant_one_family(q: int = 2, k: int = 2) -> PredicateFamily:
    """The always-satisfied predicate."""
    return PredicateFamily((Predicate(q, k, "one", (1,) * q**k),))
