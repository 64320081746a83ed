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
solution object exists.  A solution holds each local distribution as a
read-only {tuple: Fraction} map and sums its positional marginals with
`core.positional_marginals`; only the LP's column layout (`build_basic_lp`
and `decode_primal`) orders [q]^k by rank.

The relaxation, `unit_dual`, the solution check and the point-mass solution
read each constraint from `Instance.compiled`, with 0-based variables; LP
labels and messages still number variables from 1.  `solve_basic_lp`
(through `check_relaxation_size`) refuses a relaxation whose simplex
tableau would pass `lp.TABLEAU_CELL_BUDGET` cells before it builds it.
`build_basic_lp` and `unit_optimum`, which build no tableau, take a
relaxation of any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from . import lp
from .core import (
    DEFAULT_ASSIGNMENT_BUDGET,
    Instance,
    brute_force_opt,
    csp_value,
    positional_marginals,
    tuple_to_digits,
    width,
)
from .errors import InternalError, ValidationError
from .rationals import mapping_items, to_fraction


@dataclass(frozen=True)
class LocalDistributionSolution:
    """A feasible relaxation solution in distributional form.

    `locals_` takes one {tuple: mass} mapping per constraint and `marginals`
    one mass vector over [q] per variable.  Construction checks every tuple
    with the codec `Predicate.index_of`, reads every mass and the stated
    `value` as exact rationals, and checks feasibility for `instance` and the
    objective exactly, so every object of this type is a verified solution.
    Each local distribution is stored as a read-only {tuple: Fraction} map
    without zero masses; the rank layout of [q]^k is known only to the LP
    columns (`build_basic_lp`, `decode_primal`).
    """

    instance: Instance
    locals_: tuple
    marginals: tuple
    value: Fraction

    def __post_init__(self):
        """Exact feasibility and objective check; raises ValidationError on any miss."""
        inst = self.instance
        q, k = inst.family.q, inst.family.k
        ranker = inst.family.predicates[0]  # the checked codec depends only on (q, k)
        locals_ = []
        for distribution in self.locals_:
            masses = {}
            for values, mass in mapping_items(distribution, "local distribution"):
                masses[ranker.tuple_of(ranker.index_of(values))] = to_fraction(mass)
            locals_.append(MappingProxyType({a: mass for a, mass in masses.items() if mass}))
        marginals = tuple(tuple(map(to_fraction, marg)) for marg in self.marginals)
        object.__setattr__(self, "locals_", tuple(locals_))
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "value", to_fraction(self.value))
        if len(locals_) != inst.m:
            raise ValidationError("one local distribution required per constraint")
        if len(marginals) != inst.n:
            raise ValidationError("one marginal distribution required per variable")
        # Every mass as an integer over one denominator: the masses' lcm.
        den = lcm(
            *[v.denominator for marg in marginals for v in marg],
            *[v.denominator for masses in locals_ for v in masses.values()],
        )
        int_marginals = []
        for i, marg in enumerate(marginals):
            if len(marg) != q:
                raise ValidationError(f"marginal of variable {i + 1} has wrong length")
            if any(v < 0 for v in marg):
                raise ValidationError(f"marginal of variable {i + 1} has a negative entry")
            int_marg = [v.numerator * (den // v.denominator) for v in marg]
            if sum(int_marg) != den:
                raise ValidationError(f"marginal of variable {i + 1} does not sum to 1")
            int_marginals.append(int_marg)
        satisfied = 0  # sum of weight * satisfying mass, over den
        for ci, (weight, pred, scope) in enumerate(inst.compiled):
            masses = {a: v.numerator * (den // v.denominator) for a, v in locals_[ci].items()}
            if any(v < 0 for v in masses.values()):
                raise ValidationError(f"local distribution {ci} has a negative entry")
            if sum(masses.values()) != den:
                raise ValidationError(f"local distribution {ci} does not sum to 1")
            rows = positional_marginals(masses.items(), q, k, zero=0)
            for pos, variable in enumerate(scope):
                for symbol in range(q):
                    if rows[pos][symbol] != int_marginals[variable][symbol]:
                        raise ValidationError(
                            f"constraint {ci} position {pos} disagrees with the"
                            f" marginal of variable {variable + 1} at symbol {symbol}"
                        )
            satisfied += weight * sum(v for a, v in masses.items() if pred.value(a))
        value_num, value_den = self.value.as_integer_ratio()
        if satisfied * value_den != value_num * inst.total_weight * den:
            objective = Fraction(satisfied, inst.total_weight * den)
            raise ValidationError(
                f"stated objective {self.value} differs from recomputed {objective}"
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
    cube = list(itertools.product(range(q), repeat=k))  # column order: rank order of index_of
    size = len(cube)
    num_x = n * q
    num_vars = num_x + inst.m * size

    spelled = [tuple_to_digits(a) for a in cube]
    labels = [f"x[{i},{b}]" for i in range(1, n + 1) for b in range(q)]
    labels += [f"y[{ci},{digits}]" for ci in range(1, inst.m + 1) for digits in spelled]

    one, minus_one, zero = Fraction(1), Fraction(-1), Fraction(0)
    objective = [zero] * num_vars
    rows = [{i * q + b: one for b in range(q)} for i in range(n)]
    rhs = [one] * n
    for ci, (weight, pred, scope) in enumerate(inst.compiled):
        base = num_x + ci * size
        share = Fraction(weight, inst.total_weight)
        for rank, bit in enumerate(pred.table):
            if bit:
                objective[base + rank] = share
        for pos, v in enumerate(scope):
            for symbol in range(q):
                row = {base + rank: one for rank, a in enumerate(cube) if a[pos] == symbol}
                row[v * q + symbol] = minus_one
                rows.append(row)
                rhs.append(zero)
    return lp.LpProblem(objective, rows, rhs, labels)


def decode_primal(inst: Instance, primal: dict, value: Fraction) -> LocalDistributionSolution:
    """Slice a primal vector, in `build_basic_lp` column order, into verified distributions."""
    q = inst.family.q
    cube = list(itertools.product(range(q), repeat=inst.family.k))  # as in build_basic_lp
    size = len(cube)
    num_x = inst.n * q
    values = tuple(primal.values())
    marginals = tuple(values[start:start + q] for start in range(0, num_x, q))
    locals_ = [
        dict(zip(cube, values[start:start + size])) for start in range(num_x, len(values), size)
    ]
    try:
        return LocalDistributionSolution(inst, locals_, marginals, value)
    except ValidationError as exc:
        raise InternalError(f"decoded solution fails verification: {exc}") from exc


def check_relaxation_size(inst: Instance) -> None:
    """Raise `BudgetError` when the relaxation's tableau would pass
    `lp.TABLEAU_CELL_BUDGET` cells, before it is built: the shape of
    `build_basic_lp` follows from n, m, q and k alone."""
    q, k = inst.family.q, inst.family.k
    lp.check_tableau_size(inst.n * q + inst.m * q**k, inst.n + inst.m * k * q)


def solve_basic_lp(inst: Instance) -> LocalDistributionSolution:
    """Exact optimum of the relaxation, decoded and verified; an oversized
    relaxation is refused before it is built (`check_relaxation_size`)."""
    check_relaxation_size(inst)
    return solve_relaxation(inst, build_basic_lp(inst))


def solve_relaxation(inst: Instance, problem: lp.LpProblem) -> LocalDistributionSolution:
    """Exact optimum of `problem`, which is `build_basic_lp(inst)`, decoded and verified."""
    solution = lp.solve(problem)
    if solution.status != lp.OPTIMAL:
        raise InternalError(
            f"relaxation reported {solution.status}; it is a nonempty polytope"
        )
    return decode_primal(inst, solution.primal, solution.value)


def unit_dual(inst: Instance) -> tuple:
    """A dual vector of value 1 for `build_basic_lp(inst)`, in its row order.

    Every constraint puts its weight share w on the q rows of its first
    position and on the simplex row of that position's variable.  Then
    y.b = the sum of the shares = 1.  A local column y[C,a] has a 1 in one
    first-position row of C, so y.A_j = w, at least its objective entry (w or
    0); a marginal column x[i,b] gets w from the simplex row of i and -w from
    the first-position row of symbol b of each constraint whose first
    variable is i, so y.A_j = 0, its objective entry.
    """
    q, k, n = inst.family.q, inst.family.k, inst.n
    y = [Fraction(0)] * (n + inst.m * k * q)
    for ci, (weight, _, scope) in enumerate(inst.compiled):
        share = Fraction(weight, inst.total_weight)
        y[scope[0]] += share
        start = n + ci * k * q  # rows of (constraint ci, position 0, symbol 0..q-1)
        y[start:start + q] = [share] * q
    return tuple(y)


def unit_optimum(solution: LocalDistributionSolution) -> Fraction:
    """The relaxation optimum 1 of `solution.instance`, proved with no simplex run.

    The solution is verified and has value 1, so lp >= 1; `unit_dual` passes
    the dual rule of `lp` against `build_basic_lp` with value 1, so lp <= 1.
    """
    if solution.value != 1:
        raise ValidationError(f"a unit-value proof needs a solution of value 1, not {solution.value}")
    inst = solution.instance
    problem = build_basic_lp(inst)
    lp._check_dual(problem, unit_dual(inst), problem.objective, 1)
    return solution.value


def check_value_pair(lp_value: Fraction, csp_value: Fraction) -> None:
    """Raise InternalError unless 0 <= csp <= lp <= 1, as every instance's optima are."""
    if not (0 <= csp_value <= lp_value <= 1):
        raise InternalError(f"impossible value pair (lp={lp_value}, csp={csp_value})")


@dataclass(frozen=True)
class GapReport:
    """Exact relaxed and integral optima of one instance, with witnesses."""

    instance: Instance
    lp_value: Fraction
    csp_value: Fraction
    csp_witness: tuple
    lp_witness: LocalDistributionSolution

    def __post_init__(self):
        check_value_pair(self.lp_value, self.csp_value)

    def is_gap(self, gamma, beta) -> bool:
        return self.lp_value >= to_fraction(gamma) and self.csp_value <= to_fraction(beta)

    @property
    def gap(self) -> Fraction:
        return self.lp_value - self.csp_value


def gap_report(inst: Instance, assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET) -> GapReport:
    """Pair the relaxation optimum with the brute-force optimum.

    The assignment budget is checked first, so an instance over it raises
    `BudgetError` before its relaxation is built.
    """
    best, witness = brute_force_opt(inst, budget=assignment_budget)
    sol = solve_basic_lp(inst)
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
    maps = [{tuple(assignment[v] for v in scope): Fraction(1)} for _, _, scope in inst.compiled]
    return LocalDistributionSolution(inst, maps, tuple(marginals), value)


def _uniform_solution(inst: Instance, distributions: dict, value) -> LocalDistributionSolution:
    """Each constraint takes its predicate's distribution; every marginal is uniform."""
    uniform = tuple(Fraction(1, inst.family.q) for _ in range(inst.family.q))
    maps = [distributions[c.predicate] for c in inst.constraints]
    return LocalDistributionSolution(inst, maps, (uniform,) * inst.n, value)


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
