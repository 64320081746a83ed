"""The canonical local-distribution LP relaxation of a Max-CSP instance.

Each constraint C = (f, j) gets a local distribution Y_C over [q]^k and each
variable i a marginal distribution X_i over [q]; the relaxation maximizes the
weighted expected satisfaction E_C E_{a ~ Y_C} f(a) subject to every position
of every local distribution agreeing exactly with the shared variable
marginal.  Integral assignments embed as point masses, so the relaxed value
dominates the true optimum; the gap between the two is what the rest of the
toolkit hunts for.

Solutions are decoded into `LocalDistributionSolution` objects, which verify
themselves on construction: sums, signs, marginal consistency, and the
objective value are all checked with exact arithmetic, so no unverified
solution object exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import lp
from .core import (
    DEFAULT_ASSIGNMENT_BUDGET,
    Instance,
    brute_force_opt,
    csp_value,
    mapping_items,
    tuple_to_digits,
    width,
)
from .errors import InternalError, ValidationError
from .rationals import to_fraction


@dataclass(frozen=True)
class LocalDistributionSolution:
    """A feasible relaxation solution in distributional form.

    `locals_` holds one mass vector per constraint (rank-indexed over [q]^k,
    lexicographic order) and `marginals` one mass vector per variable.
    Construction checks feasibility for `instance` and the stated `value`
    exactly, so every object of this type is a verified solution.
    """

    instance: Instance
    locals_: tuple
    marginals: tuple
    value: Fraction

    def __post_init__(self):
        """Exact feasibility and objective check; raises ValidationError on any miss."""
        inst, marginals = self.instance, self.marginals
        q, k = inst.family.q, inst.family.k
        size = q**k
        if len(self.locals_) != inst.m:
            raise ValidationError("one local distribution required per constraint")
        if len(marginals) != inst.n:
            raise ValidationError("one marginal distribution required per variable")
        for i, marg in enumerate(marginals):
            if len(marg) != q:
                raise ValidationError(f"marginal of variable {i + 1} has wrong length")
            if any(v < 0 for v in marg):
                raise ValidationError(f"marginal of variable {i + 1} has a negative entry")
            if sum(marg) != 1:
                raise ValidationError(f"marginal of variable {i + 1} does not sum to 1")
        objective = Fraction(0)
        weight_total = inst.total_weight
        position_ranks = _position_ranks(q, k)
        for ci, constraint in enumerate(inst.constraints):
            masses = self.locals_[ci]
            if len(masses) != size:
                raise ValidationError(f"local distribution {ci} has wrong length")
            if any(v < 0 for v in masses):
                raise ValidationError(f"local distribution {ci} has a negative entry")
            if sum(masses) != 1:
                raise ValidationError(f"local distribution {ci} does not sum to 1")
            pred = inst.family[constraint.predicate]
            for pos, variable in enumerate(constraint.variables):
                for symbol, ranks in enumerate(position_ranks[pos]):
                    if sum(masses[rank] for rank in ranks) != marginals[variable - 1][symbol]:
                        raise ValidationError(
                            f"constraint {ci} position {pos} disagrees with the"
                            f" marginal of variable {variable} at symbol {symbol}"
                        )
            satisfied = sum(masses[rank] for rank, bit in enumerate(pred.table) if bit)
            objective += Fraction(constraint.weight, weight_total) * satisfied
        if objective != self.value:
            raise ValidationError(
                f"stated objective {self.value} differs from recomputed {objective}"
            )

    @classmethod
    def from_distributions(cls, instance: Instance, maps, marginals, value):
        """Inverse of `local_distribution`: one {tuple: mass} map per constraint."""
        ranker = instance.family.predicates[0]  # the checked codec depends only on (q, k)
        locals_ = []
        for distribution in maps:
            masses = [Fraction(0)] * len(ranker.table)
            for values, mass in mapping_items(distribution, "local distribution"):
                masses[ranker.index_of(values)] = to_fraction(mass)
            locals_.append(tuple(masses))
        return cls(instance, tuple(locals_), marginals, value)

    def local_distribution(self, index: int) -> dict:
        """Mass of constraint `index` as a {tuple: Fraction} map (zeros omitted)."""
        pred = self.instance.family[self.instance.constraints[index].predicate]
        return {
            pred.tuple_of(rank): mass
            for rank, mass in enumerate(self.locals_[index])
            if mass
        }


@lru_cache(maxsize=None)
def _position_ranks(q: int, k: int) -> tuple:
    """Ranks in [q]^k by position and symbol: [pos][symbol] -> ranks with that symbol there.

    Summing a rank-indexed mass vector over one entry gives one positional
    marginal; these are also the LP columns of one consistency row.
    """
    size = q**k
    return tuple(
        tuple(
            tuple(r for r in range(size) if (r // q ** (k - 1 - pos)) % q == symbol)
            for symbol in range(q)
        )
        for pos in range(k)
    )


def build_basic_lp(inst: Instance) -> lp.LpProblem:
    """Emit the relaxation as a standard-form LP.

    Variables: x[i,b] for every variable/symbol pair and y[C,a] for every
    constraint/tuple pair (labels carry the coordinates).  Rows: one simplex
    row per variable, and one marginal-consistency row per (constraint,
    position, symbol).  The objective weights each satisfying tuple's mass
    by the constraint's share of the total weight.
    """
    fam = inst.family
    q, k, n = fam.q, fam.k, inst.n
    size = q**k
    num_x = n * q
    num_vars = num_x + inst.m * size

    spelled = [tuple_to_digits(fam.predicates[0].tuple_of(r)) for r in range(size)]
    labels = [f"x[{i},{b}]" for i in range(1, n + 1) for b in range(q)]
    labels += [f"y[{ci},{digits}]" for ci in range(1, inst.m + 1) for digits in spelled]

    objective = [Fraction(0)] * num_vars
    weight_total = inst.total_weight
    for ci, constraint in enumerate(inst.constraints):
        share = Fraction(constraint.weight, weight_total)
        table = fam[constraint.predicate].table
        base = num_x + ci * size
        for rank, bit in enumerate(table):
            if bit:
                objective[base + rank] = share

    rows = []
    rhs = []
    zero_row = [Fraction(0)] * num_vars
    for i in range(n):
        row = zero_row[:]
        for b in range(q):
            row[i * q + b] = Fraction(1)
        rows.append(tuple(row))
        rhs.append(Fraction(1))
    one = Fraction(1)
    position_ranks = _position_ranks(q, k)
    for ci, constraint in enumerate(inst.constraints):
        base = num_x + ci * size
        for pos, variable in enumerate(constraint.variables):
            for symbol, ranks in enumerate(position_ranks[pos]):
                row = zero_row[:]
                for rank in ranks:
                    row[base + rank] = one
                row[(variable - 1) * q + symbol] = -one
                rows.append(tuple(row))
                rhs.append(Fraction(0))
    return lp.LpProblem(tuple(objective), tuple(rows), tuple(rhs), tuple(labels))


def decode_primal(inst: Instance, primal: dict, value: Fraction) -> LocalDistributionSolution:
    """Slice a primal vector, in `build_basic_lp` column order, into verified distributions."""
    q = inst.family.q
    size = q**inst.family.k
    num_x = inst.n * q
    values = tuple(primal.values())
    marginals = tuple(values[start:start + q] for start in range(0, num_x, q))
    locals_ = tuple(
        values[start:start + size] for start in range(num_x, len(values), size)
    )
    try:
        return LocalDistributionSolution(inst, locals_, marginals, value)
    except ValidationError as exc:
        raise InternalError(f"decoded solution fails verification: {exc}") from exc


def solve_basic_lp(inst: Instance) -> LocalDistributionSolution:
    """Exact optimum of the relaxation, decoded and verified."""
    problem = build_basic_lp(inst)
    solution = lp.solve(problem)
    if solution.status != lp.OPTIMAL:
        raise InternalError(
            f"relaxation reported {solution.status}; it is a nonempty polytope"
        )
    return decode_primal(inst, solution.primal, solution.value)


@dataclass(frozen=True)
class GapReport:
    """Exact relaxed and integral optima of one instance, with witnesses."""

    instance: Instance
    lp_value: Fraction
    csp_value: Fraction
    csp_witness: tuple
    lp_witness: LocalDistributionSolution

    def __post_init__(self):
        if not (0 <= self.csp_value <= self.lp_value <= 1):
            raise InternalError(
                f"impossible value pair (lp={self.lp_value}, csp={self.csp_value})"
            )

    def is_gap(self, gamma, beta) -> bool:
        return self.lp_value >= to_fraction(gamma) and self.csp_value <= to_fraction(beta)

    @property
    def gap(self) -> Fraction:
        return self.lp_value - self.csp_value


def gap_report(inst: Instance, assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> GapReport:
    """Pair the relaxation optimum with the brute-force optimum."""
    sol = solve_basic_lp(inst)
    best, witness = brute_force_opt(inst, budget=assignment_budget)
    return GapReport(inst, sol.value, best, witness, sol)


def point_mass_solution(inst: Instance, assignment) -> LocalDistributionSolution:
    """Embed an integral assignment as a feasible point-mass solution."""
    value = csp_value(inst, assignment)
    q = inst.family.q
    marginals = []
    for v in assignment:
        row = [Fraction(0)] * q
        row[v] = Fraction(1)
        marginals.append(tuple(row))
    maps = [{tuple(assignment[v - 1] for v in c.variables): Fraction(1)} for c in inst.constraints]
    return LocalDistributionSolution.from_distributions(inst, maps, tuple(marginals), value)


def _uniform_solution(inst: Instance, distributions: dict, value) -> LocalDistributionSolution:
    """Each constraint takes its predicate's distribution; every marginal is uniform."""
    uniform = tuple(Fraction(1, inst.family.q) for _ in range(inst.family.q))
    maps = [distributions[c.predicate] for c in inst.constraints]
    return LocalDistributionSolution.from_distributions(inst, maps, (uniform,) * inst.n, value)


def lp_from_onewise(inst: Instance, witnesses: dict) -> LocalDistributionSolution:
    """Feasible solution of value 1 from uniform-marginal satisfying distributions.

    `witnesses` maps predicate names to distributions over [q]^k that are
    supported on satisfying tuples and have all single-coordinate marginals
    uniform.  Every constraint reuses its predicate's distribution and every
    variable marginal is uniform, which is consistent by construction; the
    objective is exactly 1 because no mass sits on unsatisfying tuples.  The
    solution's own checks reject a witness that breaks any of this.
    """
    missing = sorted({c.predicate for c in inst.constraints} - set(witnesses))
    if missing:
        raise ValidationError(f"no one-wise witness supplied for predicate {missing[0]!r}")
    return _uniform_solution(inst, witnesses, Fraction(1))


def lp_from_width(inst: Instance) -> LocalDistributionSolution:
    """Feasible solution from constant-shift orbits over Z_q.

    Each constraint's local distribution is uniform over the q constant
    shifts of its predicate's best base point, so its contribution is
    exactly the predicate's width and every coordinate marginal is uniform.
    The objective therefore meets or exceeds the family width.
    """
    q = inst.family.q
    best = width(inst.family).per_predicate
    value = sum(c.weight * best[c.predicate].width for c in inst.constraints) / inst.total_weight
    orbits = {  # the q shifts of a base point are distinct tuples
        name: {tuple((v + a) % q for v in entry.base): Fraction(1, q) for a in range(q)}
        for name, entry in best.items()
    }
    return _uniform_solution(inst, orbits, value)
