"""Predicate families, weighted constraint instances, and exact CSP values.

The alphabet is [q] = {0, ..., q-1}.  A predicate of arity k is a 0/1 truth
table of length q**k stored in lexicographic order with the first coordinate
most significant.  Constraints apply a named predicate to a tuple of distinct
1-based variable indices and carry a positive integer weight; the value of an
assignment is the satisfied fraction of the total weight, always an exact
Fraction in [0, 1].

An `Instance` builds its total weight and its compiled form,
`Instance.compiled`, when the instance is checked: each constraint as
(weight, predicate, 0-based variable indices).  That form is the one every
exact evaluator reads: brute force and `csp_value` here, the relaxation,
its dual and its solution check in `basic_lp`, and the yes/no pair in
`witnesses`.

Besides the data model this module computes brute-force optima, the two
sides of the trivial-threshold bracket (best i.i.d. product assignment from
below, scanned by forward differences along lattice lines, skipping lines
that cannot win; cheapest enumerated instance from above, only the complete
instances for one predicate), and shift widths over the additive group
Z_q.  One exhaustive search, `_max_satisfied`, serves three callers:
`brute_force_opt`, the bracket's upper end `rho_upper_empirical`, and
gap-search's pre-test `search._csp_at_most`, which stops at the first
assignment above beta before any `Instance` is built.  It scores blocks of
assignments at once in the lanes of a Python integer: one lane per
assignment, one 0/1 lane mask per constraint, and one weighted sum of masks
per block.  An enumeration refuses a variable count whose q^n or constraint
universe exceeds `DEFAULT_ASSIGNMENT_BUDGET` before it builds either.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, ValidationError
from .rationals import as_int, int_tuple, to_fraction

# Ceiling on q**n for exhaustive assignment enumeration, and on the
# constraints of a universe that a search enumerates.
DEFAULT_ASSIGNMENT_BUDGET = 1 << 20

# Ceiling on the lattice lines `rho_product_lower` scans: q = 4 at the
# default precision 1/64 (denominator 256) has 33153 of them.
LATTICE_LINE_BUDGET = 1 << 17

# Symbols of [q] as written in files and LP labels; bounds q from above.
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def power_text(q: int, e: int) -> str:
    """q^e in digits while it fits in 64 bits, else the text "q^e"."""
    return str(q**e) if e <= 64 and (q**e).bit_length() <= 64 else f"{q}^{e}"


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
    # built with the table; not part of repr, equality or hash
    _satisfying: tuple = field(init=False, repr=False, compare=False)
    # (scope, n, lane width) -> lane mask, filled by `_max_satisfied`
    _lane_masks: dict = field(init=False, repr=False, compare=False)

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
        # q^k > len(table) once k exceeds its bit length: no huge power is built
        if self.k > len(table).bit_length() or len(table) != self.q**self.k:
            raise ValidationError(
                f"predicate {self.name!r}: table has {len(self.table)} entries,"
                f" expected q^k = {power_text(self.q, self.k)}"
            )
        if any(v not in (0, 1) for v in table):
            raise ValidationError(f"predicate {self.name!r}: table entries must be 0 or 1")
        object.__setattr__(self, "table", table)
        lexicographic = itertools.product(range(self.q), repeat=self.k)  # the table's order
        object.__setattr__(self, "_satisfying", tuple(a for a, v in zip(lexicographic, table) if v))
        object.__setattr__(self, "_lane_masks", {})

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
        """Inverse of index_of; a rank outside [0, q^k) raises, never aliases."""
        rank = as_int(rank, "tuple rank")
        if not 0 <= rank < len(self.table):
            raise ValidationError(f"rank {rank} is not in [0, q^k), q^k = {len(self.table)}")
        digits = []
        for _ in range(self.k):
            rank, d = divmod(rank, self.q)
            digits.append(d)
        return tuple(reversed(digits))

    def value(self, values) -> int:
        return self.table[self.index_of(values)]

    def satisfying_tuples(self) -> tuple:
        """All satisfying k-tuples, in lexicographic order."""
        return self._satisfying


@dataclass(frozen=True)
class PredicateFamily:
    """A non-empty, ordered collection of predicates over one (q, k)."""

    predicates: tuple
    # name -> predicate, built once; not part of repr, equality or hash
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        preds = tuple(self.predicates)
        if not preds:
            raise ValidationError("predicate family must be non-empty")
        q, k = preds[0].q, preds[0].k
        by_name = {}
        for p in preds:
            if (p.q, p.k) != (q, k):
                raise ValidationError(
                    f"predicate {p.name!r} has (q, k) = ({p.q}, {p.k}),"
                    f" family requires ({q}, {k})"
                )
            if p.name in by_name:
                raise ValidationError(f"duplicate predicate name {p.name!r}")
            by_name[p.name] = p
        object.__setattr__(self, "predicates", preds)
        object.__setattr__(self, "_by_name", by_name)

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
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def subfamily(self, names) -> "PredicateFamily":
        return PredicateFamily(tuple(self[name] for name in names))


@dataclass(frozen=True)
class Constraint:
    predicate: str
    variables: tuple
    weight: int = 1

    def __post_init__(self):
        if not isinstance(self.predicate, str):
            raise ValidationError(
                f"constraint predicate must be a name string, got {self.predicate!r}"
            )
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

    `compiled` holds each constraint, in order, as (weight, predicate,
    0-based variable indices); it and `total_weight` are built when the
    instance is checked.
    """

    family: PredicateFamily
    n: int
    constraints: tuple
    # built with the checks; not part of repr, equality or hash
    compiled: tuple = field(init=False, repr=False, compare=False)
    total_weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "variable count"))
        if self.n < 1:
            raise ValidationError(f"variable count must be >= 1, got {self.n}")
        constraints = tuple(self.constraints)
        if not constraints:
            raise ValidationError("instance must contain at least one constraint")
        k = self.family.k
        compiled = []
        for c in constraints:
            pred = self.family._by_name.get(c.predicate)
            if pred is None:
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
            if min(c.variables) < 1 or max(c.variables) > self.n:
                raise ValidationError(
                    f"variable index out of range in {c.predicate!r}{c.variables}"
                    f" (n = {self.n})"
                )
            compiled.append((c.weight, pred, tuple(v - 1 for v in c.variables)))
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "compiled", tuple(compiled))
        object.__setattr__(self, "total_weight", sum(c.weight for c in constraints))

    @property
    def m(self) -> int:
        return len(self.constraints)


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
    satisfied = sum(
        weight for weight, pred, scope in inst.compiled if pred.value(tuple(a[v] for v in scope))
    )
    return Fraction(satisfied, inst.total_weight)


def check_assignment_budget(q: int, n: int, budget: int) -> None:
    """Raise BudgetError when q^n exceeds the budget, computing only q^min(n, budget bits)."""
    if q ** min(n, int(budget).bit_length()) > budget:
        raise BudgetError(
            f"exhaustive search needs q^n = {power_text(q, n)} assignments, budget is {budget}"
        )


# Most assignments one block of `_max_satisfied` scores at once.  A block
# fixes the high variables and gives each assignment of the low ones a lane.
BLOCK_LANES = 1 << 12

# Most lane masks a predicate keeps for one-block searches; it forgets them
# all when it reaches this many.
MASKS_PER_PREDICATE = 1024


def _repeat(pattern: int, period: int, count: int) -> int:
    """`pattern` placed `count` times, `period` bits apart; `period` is a multiple of 8."""
    return int.from_bytes(pattern.to_bytes(period // 8, "little") * count, "little")


@functools.lru_cache(maxsize=32)
def _lanes(q: int, low: int, width: int) -> tuple:
    """(ones, tops, lanes) of a block over `low` variables, `width` bits a lane.

    Lane j stands for the j-th assignment of the low variables in
    lexicographic order.  `ones` has a 1 at the bottom of every lane, `tops`
    at the top, and lanes[i][s] at the bottom of the lanes where low
    variable i takes symbol s.
    """
    lanes = []
    for i in range(low):
        run = q ** (low - 1 - i)  # consecutive lanes that share symbol i
        first = _repeat(1, width, run)
        lanes.append(tuple(
            _repeat(first << (s * run * width), q * run * width, q**i) for s in range(q)
        ))
    ones = _repeat(1, width, q**low)
    return ones, ones << (width - 1), tuple(lanes)


def _lane_mask(tuples, scope, ones: int, lanes) -> int:
    """The lanes whose assignment puts one of `tuples` on `scope`.

    That is the OR, over the tuples, of the AND of lanes[v][s] over the
    tuple's symbols s on the scope's variables v.
    """
    mask = 0
    for values in tuples:
        term = ones
        for v, s in zip(scope, values):
            term &= lanes[v][s]
        mask |= term
    return mask


def _constraint_masks(pred: Predicate, scope, high: int, ones: int, lanes) -> dict:
    """A constraint's lane mask in each block that fixes variables 0..high-1.

    Keyed by the symbols of the scope's high variables, in increasing
    variable order: each mask is that of the satisfying tuples that put
    those symbols there.
    """
    fixed = sorted((v, i) for i, v in enumerate(scope) if v < high)
    free = [i for i, v in enumerate(scope) if v >= high]
    groups = {}
    for values in pred.satisfying_tuples():
        groups.setdefault(tuple(values[i] for _, i in fixed), []).append(
            tuple(values[i] for i in free)
        )
    free_scope = tuple(scope[i] - high for i in free)
    return {key: _lane_mask(tuples, free_scope, ones, lanes) for key, tuples in groups.items()}


def _one_block_counts(n: int, width: int, compiled, ones: int, lanes) -> int:
    """The lane weights of a search whose one block spans all n variables.

    Each predicate keeps the masks it has built, per (scope, n, width).
    """
    counts = 0
    for weight, pred, scope in compiled:
        masks = pred._lane_masks
        mask = masks.get((scope, n, width))
        if mask is None:
            if len(masks) >= MASKS_PER_PREDICATE:
                masks.clear()
            mask = _lane_mask(pred.satisfying_tuples(), scope, ones, lanes)
            masks[scope, n, width] = mask
        counts += weight * mask
    return counts


def _block_counts(q: int, high: int, compiled, ones: int, lanes):
    """(high symbols, lane weights) of each block that fixes variables 0..high-1, in order.

    The masks of constraints with the same high variables are summed once,
    keyed by those variables' symbols.
    """
    groups = {}  # sorted high variables -> {their symbols: summed weighted mask}
    for weight, pred, scope in compiled:
        group = groups.setdefault(tuple(sorted(v for v in scope if v < high)), {})
        for key, mask in _constraint_masks(pred, scope, high, ones, lanes).items():
            group[key] = group.get(key, 0) + weight * mask
    base = groups.pop((), {}).get((), 0)  # constraints on low variables only
    for prefix in itertools.product(range(q), repeat=high):
        counts = base
        for variables, group in groups.items():
            counts += group.get(tuple(prefix[v] for v in variables), 0)
        yield prefix, counts


def _first_lane(q: int, low: int, width: int, counts: int, hits: int, prefix) -> tuple:
    """(weight, assignment) of the lowest lane of `counts` whose top bit `hits` sets."""
    lane = (hits & -hits).bit_length() // width - 1
    sat = (counts >> (lane * width)) & ((1 << width) - 1)
    digits = [0] * low
    for i in range(low - 1, -1, -1):
        lane, digits[i] = divmod(lane, q)
    return sat, (*prefix, *digits)


def _max_satisfied(q: int, n: int, compiled, stop: int) -> tuple:
    """The one exhaustive search over the q**n assignments, in lexicographic order.

    `compiled` holds each constraint as (weight, predicate, 0-based variable
    indices).  Returns (satisfied weight, assignment) of the first assignment
    whose satisfied weight reaches `stop`, or else of the first maximizer.

    Every assignment is scored at once in big-integer lanes.  The low
    variables, at most BLOCK_LANES assignments of them, span a block in
    which each assignment has a lane of `width` bits, with 2^(width-1)
    above the total weight; the blocks fix the high variables and are taken
    in lexicographic order.  A constraint's lane mask holds 1 in the lanes
    that satisfy it, so a block's satisfied weights are one sum of weighted
    masks.  Adding 2^(width-1) - t to every lane sets a lane's top bit
    exactly when its weight reaches t, so the lowest top bit set names the
    first assignment that reaches t, and a binary search on t finds a
    block's largest weight.  The masks of a one-block search stay with
    their predicates for the next search.
    """
    total = sum(weight for weight, _, _ in compiled)
    # a multiple of 16 with 2^(width-1) > total: every total below 2^15
    # shares width 16, and so the masks its predicates keep
    width = (total.bit_length() + 16) & ~15
    low = n
    while q**low > BLOCK_LANES:
        low -= 1
    ones, tops, lanes = _lanes(q, low, width)
    if low < n:
        blocks = _block_counts(q, n - low, compiled, ones, lanes)
    else:
        blocks = (((), _one_block_counts(n, width, compiled, ones, lanes)),)
    half = 1 << (width - 1)
    if stop < 0:  # every assignment reaches a stop at or below 0
        stop = 0
    best_sat = -1
    for prefix, counts in blocks:
        if stop <= total:
            hits = (counts + ones * (half - stop)) & tops
            if hits:
                return _first_lane(q, low, width, counts, hits, prefix)
        lo, hi = best_sat + 1, min(stop, total + 1)  # no lane reaches hi
        if lo >= hi or lo and not (counts + ones * (half - lo)) & tops:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (counts + ones * (half - mid)) & tops:
                lo = mid
            else:
                hi = mid
        hits = (counts + ones * (half - lo)) & tops
        best_sat, best = _first_lane(q, low, width, counts, hits, prefix)
    return best_sat, best


def brute_force_opt(inst: Instance, budget: int = DEFAULT_ASSIGNMENT_BUDGET):
    """Exhaustive search over the q**n assignments in lexicographic order.

    Returns (value, assignment): the exact optimum and its lexicographically
    smallest maximizer.  Raises BudgetError when q**n exceeds the budget.
    """
    q, n = inst.family.q, inst.n
    check_assignment_budget(q, n, budget)
    total = inst.total_weight
    # no assignment passes the total weight, so the stop keeps the first maximizer
    best_sat, best_assignment = _max_satisfied(q, n, inst.compiled, total)
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


def positional_marginals(pairs, q: int, k: int, zero=Fraction(0)) -> tuple:
    """The one positional-marginal rule: rows[pos][symbol] is the mass of the
    (tuple, mass) pairs whose tuple has `symbol` at position `pos`, starting
    from `zero` (0 for integer masses)."""
    rows = [[zero] * q for _ in range(k)]
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
    integer mass N**k * E[f], and the best minimum is kept as such a mass.
    The grid is scanned one lattice line (*head, c, t, rest - t) at a time,
    in the lexicographic order of `compositions`, in groups of the lines that
    share `head` (q = 2 has the one line (t, N - t)).  Each mass is a
    polynomial of degree <= k in (c, t), so (k + 1)**2 `product_mass` calls
    per group and predicate, then running sums over c, give every line's
    forward differences in t at t = 0, and running sums over t give the line.
    A line's first maximal minimum replaces the best only on strict
    improvement, so the chosen point is the first maximizer of the plain
    point-by-point scan.  Since 0 <= C(t, j) <= C(rest, j) for t = 0..rest,
    a predicate's mass on the line is at most the sum of C(rest, j) * d_j
    over its positive differences d_j at t = 0; a line where that sum is no
    greater than the best for some predicate cannot win and is skipped.
    The ascent scores single points and stops at the first predicate whose
    mass is no greater than the best.  The grid has
    C(N + q - 2, q - 2) lines; above `LATTICE_LINE_BUDGET` of them the scan
    is refused with `BudgetError` before it starts.
    """
    precision = to_fraction(precision)
    if precision <= 0:
        raise ValidationError(f"precision must be positive, got {precision}")
    q, k = fam.q, fam.k
    denominator = 64
    while Fraction(k * q, 2 * denominator) > precision:
        denominator *= 2
    if math.comb(denominator + q - 2, q - 2) > LATTICE_LINE_BUDGET:
        raise BudgetError(
            f"the q = {q} product lattice at denominator {denominator} has"
            f" C({denominator + q - 2}, {q - 2}) lines, budget is {LATTICE_LINE_BUDGET};"
            " use a coarser --precision"
        )

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

    def differences(values):
        # forward differences of every order at 0, from the values at 0, 1, ...
        diffs = []
        while values:
            diffs.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        return diffs

    def unroll(diffs, length):
        # an iterator over the values at 0..length-1 of the sequence with these
        # forward differences at 0, of which only the first `length` matter
        diffs = diffs[:length]
        values = itertools.repeat(diffs[-1], length - len(diffs) + 1)
        for first in reversed(diffs[:-1]):
            values = itertools.accumulate(values, initial=first)
        return values

    best = -1
    # groups of lines (*head, c, t, size - c - t), c = 0..size; q = 2 has the one
    # line (t, N - t), whose c stays 0 and is sliced off
    for *head, size in compositions(denominator, q - 2) if q > 2 else [(denominator,)]:
        lines, orders = (size + 1 if q > 2 else 1), min(k, size) + 1
        starts = []  # starts[f][c]: line c's differences in t at t = 0, for predicate f
        for tuples in sat:
            # each difference is a polynomial of degree <= k in c: unrolled from c <= k
            grid = [
                differences([
                    product_mass(tuples, ((*head, c, t, size - c - t)[-q:],) * k)
                    for t in range(orders)
                ])
                for c in range(min(orders, lines))
            ]
            starts.append(list(zip(*(unroll(differences(row), lines) for row in zip(*grid)))))
        for c in range(lines):
            rest = size - c
            # skip a line that cannot win: some predicate's mass stays <= best
            binomials = [math.comb(rest, j) for j in range(orders)]
            if any(
                sum(b * d for b, d in zip(binomials, start[c]) if d > 0) <= best
                for start in starts
            ):
                continue
            curves = [unroll(start[c], rest + 1) for start in starts]
            lows = list(map(min, *curves) if len(curves) > 1 else curves[0])
            low = max(lows)
            if low > best:
                t = lows.index(low)
                best, point = low, (*head, c, t, rest - t)[-q:]

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


def _universe_scopes(fam: PredicateFamily, n: int):
    """(predicate, 0-based scope) of every constraint on n variables, in canonical order."""
    return (
        (p, scope) for p in fam.predicates for scope in itertools.permutations(range(n), fam.k)
    )


def check_universe_budget(fam: PredicateFamily, n: int) -> None:
    """Raise BudgetError unless q^n and n's universe size both fit DEFAULT_ASSIGNMENT_BUDGET.

    The universe has |F| * n!/(n - k)! constraints; neither it nor q^n is built.
    """
    check_assignment_budget(fam.q, n, DEFAULT_ASSIGNMENT_BUDGET)
    size = len(fam.predicates) * math.perm(n, fam.k)
    if size > DEFAULT_ASSIGNMENT_BUDGET:
        raise BudgetError(
            f"the constraint universe on n = {n} variables has {size} constraints,"
            f" budget is {DEFAULT_ASSIGNMENT_BUDGET}"
        )


def constraint_universe(fam: PredicateFamily, n: int) -> tuple:
    """All unit-weight constraints on n variables, in canonical order."""
    return tuple(
        Constraint(p.name, tuple(v + 1 for v in scope)) for p, scope in _universe_scopes(fam, n)
    )


def complete_instance(fam: PredicateFamily, n: int) -> Instance:
    """Every predicate applied to every ordered tuple of distinct variables, unit weights."""
    if n < fam.k:
        raise ValidationError(f"need n >= k = {fam.k}, got {n}")
    return Instance(fam, n, constraint_universe(fam, n))


# Most labelings `canonical_instance` compares; above it an instance keeps
# its own labels.
CANONICAL_LABELINGS = 720


def canonical_instance(inst: Instance) -> Instance:
    """One representative of the instances that share inst's lp and csp values.

    Constraints on the same (predicate, scope) merge into one that carries
    their summed weight, and all weights are divided by their gcd: both
    optima weigh a constraint by its share of the total weight, so neither
    step changes them.  The variables are then relabeled to give the least
    sorted constraint list among the labelings that list them by increasing
    signature, the sorted (predicate, position, weight) triples of their
    constraints, which no relabeling changes; variables in no constraint
    take no part.  Relabeled and reordered copies of an instance so get one
    canonical form.  When more than CANONICAL_LABELINGS labelings qualify,
    the merged instance keeps its own labels: the values are still the same,
    but fewer relabelings share the form.
    """
    merged = {}
    for c in inst.constraints:
        merged[c.predicate, c.variables] = merged.get((c.predicate, c.variables), 0) + c.weight
    divisor = math.gcd(*merged.values())
    triples = [(name, scope, weight // divisor) for (name, scope), weight in merged.items()]
    signatures = {}
    for name, scope, weight in triples:
        for position, v in enumerate(scope):
            signatures.setdefault(v, []).append((name, position, weight))
    blocks = {}
    for v, signature in signatures.items():
        blocks.setdefault(tuple(sorted(signature)), []).append(v)
    blocks = [blocks[signature] for signature in sorted(blocks)]
    if math.prod(math.factorial(len(block)) for block in blocks) > CANONICAL_LABELINGS:
        labelings = [{v: v for v in signatures}]  # its own labels
    else:
        labelings = (
            dict(zip(itertools.chain.from_iterable(order), itertools.count(1)))
            for order in itertools.product(*map(itertools.permutations, blocks))
        )
    best = min(
        sorted((name, tuple(label[v] for v in scope), weight) for name, scope, weight in triples)
        for label in labelings
    )
    return Instance(inst.family, inst.n, tuple(itertools.starmap(Constraint, best)))


def _below(getrandbits, size: int) -> int:
    """What `randrange(size)` returns, by `random.Random`'s rule for randint and choice:
    size.bit_length() bits a draw (one for a size of 1), redrawn while >= size."""
    width = size.bit_length()
    value = getrandbits(width)
    while value >= size:
        value = getrandbits(width)
    return value


def _upper_stream(fam: PredicateFamily, n_max: int, rng: random.Random):
    """The instances `rho_upper_empirical` evaluates, each as (n, picks).

    A pick is a constraint in the (weight, predicate, 0-based scope) form
    that `_max_satisfied` reads.  The complete instances on k..n_max
    variables come first, then random instances drawn with `rng` from each
    n's constraint universe at weights 1 and 2, built once per n.  Each n, m,
    pick and weight is drawn by `_below`, as randint and choice would draw it.
    """
    universes = {}
    for t in range(fam.k, n_max + 1):
        universes[t] = tuple(
            tuple((weight, p, scope) for weight in (1, 2)) for p, scope in _universe_scopes(fam, t)
        )
        yield t, [pair[0] for pair in universes[t]]
    getrandbits = rng.getrandbits
    while True:
        n = fam.k + _below(getrandbits, n_max - fam.k + 1)
        m = 1 + _below(getrandbits, max(2, 2 * n))
        universe = universes[n]
        size = len(universe)
        yield n, [universe[_below(getrandbits, size)][_below(getrandbits, 2)] for _ in range(m)]


def check_upper_empirical(fam: PredicateFamily, n_max: int, budget: int, seed: int = 0) -> tuple:
    """(n_max, budget, seed) as ints, or the error `rho_upper_empirical` would raise for them.

    Every variable count the first `budget` instances reach, n = k..k +
    budget - 1 at most, is checked with `check_universe_budget`, so no
    instance is searched and no universe built before a refusal.
    """
    n_max, budget = as_int(n_max, "n_max"), as_int(budget, "instance budget")
    seed = as_int(seed, "instance seed")
    if n_max < fam.k:
        raise ValidationError(f"need n_max >= k = {fam.k}, got {n_max}")
    if budget < 1:
        raise BudgetError("budget exhausted before any instance was evaluated")
    if budget > sys.maxsize:  # the most instances a stream slice can take
        raise ValidationError(f"instance budget must be at most {sys.maxsize}, got {budget}")
    for n in range(fam.k, min(n_max, fam.k + budget - 1) + 1):
        check_universe_budget(fam, n)
    return n_max, budget, seed


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
    limiting infimum, so the result is always a valid upper bound.  The
    arguments pass `check_upper_empirical` before the first instance is
    evaluated.

    A one-predicate family evaluates only the complete instances, on
    k..n_max variables, for the same result at every budget and seed.
    Constraints have distinct variables, so averaging any instance on at
    most n_max variables over the relabelings of [n_max] gives a multiple
    of the complete instance on n_max; csp is convex in the weights and
    invariant under relabeling, so no instance has a lower optimum.

    Each exhaustive search stops at its first assignment that reaches the
    running minimum, since that instance can no longer lower it; an instance
    whose optimum is below the minimum is enumerated in full and gives that
    exact optimum.  The minimum is kept as an integer pair (satisfied
    weight, total weight).
    """
    n_max, budget, seed = check_upper_empirical(fam, n_max, budget, seed)
    if len(fam.predicates) == 1:  # no instance beats the complete one on n_max
        budget = min(budget, n_max - fam.k + 1)
    best_sat, best_total = 1, 1
    for n, compiled in itertools.islice(_upper_stream(fam, n_max, random.Random(seed)), budget):
        total = sum(weight for weight, _, _ in compiled)
        # stop at ceil(best * total): an instance that reaches it cannot lower the minimum
        sat, _ = _max_satisfied(fam.q, n, compiled, -(-best_sat * total // best_total))
        if sat * best_total < best_sat * total:
            best_sat, best_total = sat, total
    return Fraction(best_sat, best_total)


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
    for pred in fam.predicates:
        satisfying = set(pred.satisfying_tuples())

        def shifts(base):
            return sum(tuple((v + a) % q for v in base) in satisfying for a in range(q))

        # `max` keeps the first maximizer, so the smallest base in lexicographic order
        base = max(itertools.product(range(q), repeat=k), key=shifts)
        detail[pred.name] = PredicateWidth(Fraction(shifts(base), q), base)
    return WidthReport(min(entry.width for entry in detail.values()), detail)


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
