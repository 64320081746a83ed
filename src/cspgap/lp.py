"""Exact rational linear programming for standard-form problems.

Problems are "maximize c.x subject to A x = b, x >= 0" with every entry an
exact rational.  The solver is a dense two-phase primal simplex using
Bland's anti-cycling rule (lowest eligible index enters; ratio ties break
toward the lowest basic index), which makes every run terminating and
deterministic.  Nothing is returned unverified:

  * optimal    -- the primal is re-checked against A x = b, x >= 0, c.x = value,
                  and a dual vector read off the final tableau certifies
                  optimality (c_j <= y.A_j columnwise, y.b = value);
  * infeasible -- comes with an exact Farkas vector y satisfying
                  y.A >= 0 componentwise and y.b < 0;
  * unbounded  -- comes with an exact improving ray r satisfying
                  A r = 0, r >= 0, c.r > 0.

`vertex_enum_oracle` computes the same answer by enumerating basic
solutions with Gaussian elimination; it shares no code with the simplex
path and exists so tests can cross-check the solver exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from .errors import BudgetError, InternalError, ValidationError
from .rationals import format_rational, to_fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  rows x = rhs,  x >= 0."""

    objective: tuple
    rows: tuple
    rhs: tuple
    labels: tuple

    def __post_init__(self):
        objective = tuple(to_fraction(v) for v in self.objective)
        rows = tuple(tuple(to_fraction(v) for v in row) for row in self.rows)
        rhs = tuple(to_fraction(v) for v in self.rhs)
        labels = tuple(str(s) for s in self.labels)
        n = len(objective)
        if len(labels) != n:
            raise ValidationError(f"{len(labels)} labels for {n} variables")
        if len(set(labels)) != n:
            raise ValidationError("variable labels must be unique")
        if len(rhs) != len(rows):
            raise ValidationError(
                f"{len(rows)} constraint rows but {len(rhs)} right-hand sides"
            )
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "labels", labels)

    @property
    def num_variables(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Optional[Fraction] = None
    primal: Optional[dict] = None
    farkas: Optional[tuple] = None
    ray: Optional[dict] = None
    pivots: int = 0


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    point: Optional[dict] = None
    farkas: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.feasible


def dump_lp(problem: LpProblem) -> str:
    """Human-readable text form, one constraint per line, rationals as p/q."""

    def linear(coeffs):
        terms = [
            f"{format_rational(c)} {label}"
            for c, label in zip(coeffs, problem.labels)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0/1"

    lines = [f"maximize {linear(problem.objective)}"]
    for row, b in zip(problem.rows, problem.rhs):
        lines.append(f"subject to {linear(row)} = {format_rational(b)}")
    lines.append("all variables >= 0")
    return "\n".join(lines)


class _Tableau:
    """Dense simplex tableau over exact rationals.

    Columns are the n problem variables followed by one artificial variable
    per row; the final column is the right-hand side.  Rows whose rhs is
    negative are sign-flipped on entry so the artificial basis is feasible;
    `signs` remembers the flips for mapping certificates back.
    """

    def __init__(self, problem: LpProblem):
        self.n = problem.num_variables
        self.m = problem.num_rows
        self.ncols = self.n + self.m
        self.signs = []
        self.rows = []
        for i in range(self.m):
            sign = 1 if problem.rhs[i] >= 0 else -1
            self.signs.append(sign)
            row = [sign * v for v in problem.rows[i]]
            row.extend(Fraction(1) if j == i else Fraction(0) for j in range(self.m))
            row.append(sign * problem.rhs[i])
            self.rows.append(row)
        self.basis = [self.n + i for i in range(self.m)]
        self.reduced = []
        self.pivots = 0

    def load_costs(self, costs):
        """Install a cost row and eliminate the current basic columns."""
        reduced = list(costs) + [Fraction(0)]
        for r, bj in enumerate(self.basis):
            f = reduced[bj]
            if f:
                row = self.rows[r]
                reduced = [a - f * b for a, b in zip(reduced, row)]
        self.reduced = reduced

    @property
    def objective_value(self):
        return -self.reduced[-1]

    def pivot(self, pr: int, pc: int):
        row = self.rows[pr]
        piv = row[pc]
        if piv != 1:
            inv = 1 / piv
            row = [v * inv for v in row]
            self.rows[pr] = row
        for i in range(self.m):
            if i == pr:
                continue
            f = self.rows[i][pc]
            if f:
                other = self.rows[i]
                self.rows[i] = [a - f * b for a, b in zip(other, row)]
        f = self.reduced[pc]
        if f:
            self.reduced = [a - f * b for a, b in zip(self.reduced, row)]
        self.basis[pr] = pc
        self.pivots += 1

    def optimize(self, eligible) -> Optional[int]:
        """Bland iterations until optimal (returns None) or unbounded
        (returns the improving column with no positive entries)."""
        while True:
            pc = None
            reduced = self.reduced
            for j in range(self.ncols):
                if eligible[j] and reduced[j] > 0:
                    pc = j
                    break
            if pc is None:
                return None
            pr = None
            best_ratio = None
            best_var = None
            for i in range(self.m):
                a = self.rows[i][pc]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < best_var)
                    ):
                        best_ratio, pr, best_var = ratio, i, self.basis[i]
            if pr is None:
                return pc
            self.pivot(pr, pc)

    def dual_vector(self, costs):
        """y = c_B B^{-1} for the sign-normalized system, read off the
        artificial columns (which carry B^{-1} throughout)."""
        return [costs[self.n + i] - self.reduced[self.n + i] for i in range(self.m)]


def _phase_one(tab: _Tableau, problem: LpProblem) -> Optional[tuple]:
    """Minimize the artificial sum; None if it reaches zero, else a verified Farkas vector."""
    costs = [Fraction(0)] * tab.n + [Fraction(-1)] * tab.m
    tab.load_costs(costs)
    if tab.optimize([True] * tab.ncols) is not None:
        raise InternalError("phase-one objective is bounded above by zero")
    if tab.objective_value >= 0:
        return None
    y_signed = tab.dual_vector(costs)
    y = tuple(sign * v for sign, v in zip(tab.signs, y_signed))
    # Verify against the original data: y.A >= 0 columnwise, y.b < 0.
    for j in range(problem.num_variables):
        column = sum(y[i] * problem.rows[i][j] for i in range(problem.num_rows))
        if column < 0:
            raise InternalError("Farkas vector fails y.A >= 0")
    if sum(y[i] * problem.rhs[i] for i in range(problem.num_rows)) >= 0:
        raise InternalError("Farkas vector fails y.b < 0")
    return y


def _drive_out_artificials(tab: _Tableau):
    # Rows whose artificial cannot leave are redundant: identically zero on
    # problem columns (and they stay that way, since every elimination
    # multiplier against them is their zero pivot-column entry).
    for r in range(tab.m):
        if tab.basis[r] >= tab.n:
            row = tab.rows[r]
            for j in range(tab.n):
                if row[j]:
                    tab.pivot(r, j)
                    break


def _extract_point(tab: _Tableau) -> list:
    x = [Fraction(0)] * tab.n
    for r, bj in enumerate(tab.basis):
        if bj < tab.n:
            x[bj] = tab.rows[r][-1]
        elif tab.rows[r][-1] != 0:
            raise InternalError("artificial variable stuck at a nonzero value")
    return x


def _verify_primal(problem: LpProblem, x) -> None:
    if any(v < 0 for v in x):
        raise InternalError("primal point has a negative coordinate")
    for row, b in zip(problem.rows, problem.rhs):
        if sum(c * v for c, v in zip(row, x)) != b:
            raise InternalError("primal point violates an equality constraint")


def solve(problem: LpProblem) -> LpSolution:
    """Exact optimum of the problem, with a verified certificate for every status."""
    tab = _Tableau(problem)
    farkas = _phase_one(tab, problem)
    if farkas is not None:
        return LpSolution(status=INFEASIBLE, farkas=farkas, pivots=tab.pivots)

    _drive_out_artificials(tab)

    costs2 = list(problem.objective) + [Fraction(0)] * tab.m
    tab.load_costs(costs2)
    eligible = [True] * tab.n + [False] * tab.m
    col = tab.optimize(eligible)

    if col is not None:
        ray = [Fraction(0)] * tab.n
        ray[col] = Fraction(1)
        for r, bj in enumerate(tab.basis):
            a = tab.rows[r][col]
            if not a:
                continue
            if bj >= tab.n:
                raise InternalError("improving ray leaks into an artificial variable")
            ray[bj] = -a
        if any(v < 0 for v in ray):
            raise InternalError("improving ray has a negative coordinate")
        for row in problem.rows:
            if sum(c * v for c, v in zip(row, ray)) != 0:
                raise InternalError("improving ray leaves the null space")
        gain = sum(c * v for c, v in zip(problem.objective, ray))
        if gain <= 0:
            raise InternalError("improving ray does not improve the objective")
        return LpSolution(
            status=UNBOUNDED,
            ray=dict(zip(problem.labels, ray)),
            pivots=tab.pivots,
        )

    x = _extract_point(tab)
    _verify_primal(problem, x)
    value = tab.objective_value
    if sum(c * v for c, v in zip(problem.objective, x)) != value:
        raise InternalError("objective value disagrees with the primal point")
    # Dual optimality certificate: c_j <= y.A_j for every column, y.b = value.
    y_signed = tab.dual_vector(costs2)
    y = [sign * v for sign, v in zip(tab.signs, y_signed)]
    for j in range(problem.num_variables):
        column = sum(y[i] * problem.rows[i][j] for i in range(problem.num_rows))
        if problem.objective[j] > column:
            raise InternalError("dual vector fails reduced-cost optimality")
    if sum(y[i] * problem.rhs[i] for i in range(problem.num_rows)) != value:
        raise InternalError("dual vector fails strong duality")
    return LpSolution(
        status=OPTIMAL,
        value=value,
        primal=dict(zip(problem.labels, x)),
        pivots=tab.pivots,
    )


def check_feasible(problem: LpProblem) -> FeasibilityResult:
    """Phase-one feasibility: an exact feasible point or a Farkas certificate."""
    tab = _Tableau(problem)
    farkas = _phase_one(tab, problem)
    if farkas is not None:
        return FeasibilityResult(feasible=False, farkas=farkas)
    x = _extract_point(tab)
    _verify_primal(problem, x)
    return FeasibilityResult(feasible=True, point=dict(zip(problem.labels, x)))


def _solve_on_columns(rows, rhs, selected):
    """Unique solution of the full system restricted to the selected columns.

    Returns the coefficient list (aligned with `selected`) when the columns
    are independent and the system is consistent, else None.  Plain Gaussian
    elimination over exact rationals; deliberately separate from the simplex
    code so the oracle and the solver share no arithmetic path.
    """
    m = len(rows)
    width = len(selected)
    aug = [[rows[i][j] for j in selected] + [rhs[i]] for i in range(m)]
    for pc in range(width):
        pivot_row = None
        for i in range(pc, m):
            if aug[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return None  # dependent columns: not a basis
        aug[pc], aug[pivot_row] = aug[pivot_row], aug[pc]
        piv = aug[pc][pc]
        if piv != 1:
            aug[pc] = [v / piv for v in aug[pc]]
        for i in range(m):
            if i != pc and aug[i][pc] != 0:
                f = aug[i][pc]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[pc])]
    for i in range(width, m):
        if aug[i][-1] != 0:
            return None  # inconsistent with the dropped equations
    return [aug[t][-1] for t in range(width)]


def _matrix_rank(rows) -> int:
    if not rows:
        return 0
    work = [list(r) for r in rows]
    m, n = len(work), len(work[0])
    rank = 0
    for col in range(n):
        pivot_row = None
        for i in range(rank, m):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        piv = work[rank][col]
        for i in range(rank + 1, m):
            if work[i][col] != 0:
                f = work[i][col] / piv
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def vertex_enum_oracle(problem: LpProblem, basis_budget: int = 5_000_000) -> LpSolution:
    """Independent test oracle: optimum by basic-solution enumeration.

    Enumerates every rank-sized column subset, keeps the basic feasible
    solutions, and takes the exact maximum; unboundedness is decided by
    enumerating the vertices of the normalized recession cone
    {r >= 0 : A r = 0, sum r = 1} and testing the objective on each.
    Intended for small problems only (the subset count is checked against
    the budget up front).
    """
    rows, rhs, objective = problem.rows, problem.rhs, problem.objective
    n = problem.num_variables

    rank = _matrix_rank(rows)
    if comb(n, rank) > basis_budget:
        raise BudgetError(
            f"basis enumeration needs C({n}, {rank}) = {comb(n, rank)} subsets,"
            f" budget is {basis_budget}"
        )
    best_value = None
    best_point = None
    for selected in combinations(range(n), rank):
        coeffs = _solve_on_columns(rows, rhs, selected)
        if coeffs is None or any(v < 0 for v in coeffs):
            continue
        value = sum((objective[j] * v for j, v in zip(selected, coeffs)), Fraction(0))
        if best_value is None or value > best_value:
            best_value = value
            best_point = dict.fromkeys(problem.labels, Fraction(0))
            for j, v in zip(selected, coeffs):
                best_point[problem.labels[j]] = v
    if best_value is None:
        # The feasible region contains no line, so no vertex means empty.
        return LpSolution(status=INFEASIBLE)

    recession_rows = rows + ((Fraction(1),) * n,)
    recession_rhs = (Fraction(0),) * len(rows) + (Fraction(1),)
    rank2 = _matrix_rank(recession_rows)
    if comb(n, rank2) > basis_budget:
        raise BudgetError(
            f"recession enumeration needs C({n}, {rank2}) = {comb(n, rank2)} subsets,"
            f" budget is {basis_budget}"
        )
    for selected in combinations(range(n), rank2):
        coeffs = _solve_on_columns(recession_rows, recession_rhs, selected)
        if coeffs is None or any(v < 0 for v in coeffs):
            continue
        if sum(objective[j] * v for j, v in zip(selected, coeffs)) > 0:
            return LpSolution(status=UNBOUNDED)
    return LpSolution(status=OPTIMAL, value=best_value, primal=best_point)
