"""Exact rational linear programming for standard-form problems.

Problems are "maximize c.x subject to A x = b, x >= 0" with every entry an
exact rational.  The solver is a two-phase primal simplex on a fraction-free
tableau (integer-preserving pivoting: each row is Python ints over one
positive denominator) using Bland's anti-cycling rule (lowest eligible index
enters; ratio ties break toward the lowest basic index), which makes every
run terminating and deterministic.  Nothing is returned unverified:

  * optimal    -- the primal is re-checked against A x = b, x >= 0, c.x = value,
                  and a dual vector read off the final tableau certifies
                  optimality (c_j <= y.A_j columnwise, y.b = value);
  * infeasible -- comes with an exact Farkas vector y satisfying
                  y.A >= 0 componentwise and y.b < 0;
  * unbounded  -- comes with an exact improving ray r satisfying
                  A r = 0, r >= 0, c.r > 0.

The checks run in `Fraction` arithmetic on the problem's own data, not on
the tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InternalError, ValidationError
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
        # Tuples are built from lists: tuple(<generator>) grows a 10-slot
        # tuple by resizing, which parks thousands of freed tuples of sizes
        # 11-20 on the interpreter's free lists and raises the peak RSS.
        objective = tuple([to_fraction(v) for v in self.objective])
        rows = tuple([tuple([to_fraction(v) for v in row]) for row in self.rows])
        rhs = tuple([to_fraction(v) for v in self.rhs])
        labels = tuple([str(s) for s in self.labels])
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


def _over_lcd(values):
    """(numerators, den): ints or Fractions as ints over their least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return [p * (den // d) for p, d in ratios], den


def _eliminate(target: list, den: int, f: int, row: list, a: int, support):
    """target/den - (f/den) * (row/a), as ints over a positive denominator in lowest terms.

    `f` is target's entry in the pivot column, `a` (> 0) is row's and
    `support` lists the columns where row is nonzero.
    """
    if a == 1:
        new = target[:]
    else:
        new = [a * t for t in target]
        den *= a
    for j in support:
        new[j] -= f * row[j]
    if den > 1:
        g = gcd(den, *new)
        if g > 1:
            new = [v // g for v in new]
            den //= g
    return new, den


class _Tableau:
    """Fraction-free simplex tableau.

    Columns are the n problem variables followed by one artificial variable
    per row; the final column is the right-hand side.  Row r stands for
    `rows[r] / dens[r]`: a list of Python ints over one positive denominator,
    kept in lowest terms, so the basic entry of each row equals its
    denominator.  The reduced-cost row is `reduced / reduced_den` in the same
    form.  Scaling a row by a positive number keeps every sign and ratio
    order that Bland's rule reads, so the pivot path is the one an exact
    rational tableau takes.  Rows whose rhs is negative are sign-flipped on
    entry so the artificial basis is feasible; `signs` remembers the flips
    for mapping certificates back.
    """

    def __init__(self, problem: LpProblem):
        self.n = problem.num_variables
        self.m = problem.num_rows
        self.ncols = self.n + self.m
        self.signs = []
        self.rows = []
        self.dens = []
        for i, (coeffs, b) in enumerate(zip(problem.rows, problem.rhs)):
            nums, den = _over_lcd((*coeffs, b))
            sign = 1 if nums[-1] >= 0 else -1
            if sign < 0:
                nums = [-v for v in nums]
            row = nums[:-1] + [0] * self.m + nums[-1:]
            row[self.n + i] = den
            self.signs.append(sign)
            self.rows.append(row)
            self.dens.append(den)
        self.basis = [self.n + i for i in range(self.m)]
        self.reduced = []
        self.reduced_den = 1
        self.pivots = 0

    def load_costs(self, costs):
        """Install a cost row and eliminate the current basic columns."""
        reduced, den = _over_lcd(costs)
        reduced.append(0)
        for r, bj in enumerate(self.basis):
            f = reduced[bj]
            if f:
                row = self.rows[r]
                support = [j for j, v in enumerate(row) if v]
                reduced, den = _eliminate(reduced, den, f, row, self.dens[r], support)
        self.reduced, self.reduced_den = reduced, den

    @property
    def objective_value(self) -> Fraction:
        return Fraction(-self.reduced[-1], self.reduced_den)

    def pivot(self, pr: int, pc: int):
        row = self.rows[pr]
        a = row[pc]
        if a < 0:
            row = [-v for v in row]
            self.rows[pr] = row
            a = -a
        # The old basic entry equals the old denominator, so the row stays in
        # lowest terms with `a` as its denominator.
        self.dens[pr] = a
        support = [j for j, v in enumerate(row) if v]
        for i, other in enumerate(self.rows):
            f = other[pc]
            if f and i != pr:
                self.rows[i], self.dens[i] = _eliminate(
                    other, self.dens[i], f, row, a, support
                )
        f = self.reduced[pc]
        if f:
            self.reduced, self.reduced_den = _eliminate(
                self.reduced, self.reduced_den, f, row, a, support
            )
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
            # Ratio rhs_i / a_i compared by cross-multiplying; the row
            # denominators cancel.
            pr = None
            for i, row in enumerate(self.rows):
                a = row[pc]
                if a > 0:
                    if pr is not None:
                        lhs, rhs = row[-1] * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[pr]):
                            continue
                    pr, best_a, best_b = i, a, row[-1]
            if pr is None:
                return pc
            self.pivot(pr, pc)

    def dual_vector(self, costs) -> list:
        """y = c_B B^{-1} for the sign-normalized system, read off the
        artificial columns (which carry B^{-1} throughout)."""
        return [
            costs[self.n + i] - Fraction(self.reduced[self.n + i], self.reduced_den)
            for i in range(self.m)
        ]


def _column_sums(problem: LpProblem, y) -> list:
    """y.A_j for every column j, summed over the nonzeros of each row."""
    columns = [0] * problem.num_variables
    for yi, row in zip(y, problem.rows):
        if yi:
            for j, c in enumerate(row):
                if c:
                    columns[j] += yi * c
    return columns


def _dot(coeffs, x):
    return sum(c * v for c, v in zip(coeffs, x) if v)


def _row_dots(rows, x) -> list:
    """row.x for every row, summed over the nonzeros of x."""
    support = [(j, v) for j, v in enumerate(x) if v]
    return [sum(row[j] * v for j, v in support if row[j]) for row in rows]


def _phase_one(tab: _Tableau, problem: LpProblem) -> Optional[tuple]:
    """Minimize the artificial sum; None if it reaches zero, else a verified Farkas vector."""
    costs = [0] * tab.n + [-1] * tab.m
    tab.load_costs(costs)
    if tab.optimize([True] * tab.ncols) is not None:
        raise InternalError("phase-one objective is bounded above by zero")
    if tab.objective_value >= 0:
        return None
    y_signed = tab.dual_vector(costs)
    y = tuple([sign * v for sign, v in zip(tab.signs, y_signed)])
    # Verify against the original data: y.A >= 0 columnwise, y.b < 0.
    if any(column < 0 for column in _column_sums(problem, y)):
        raise InternalError("Farkas vector fails y.A >= 0")
    if _dot(problem.rhs, y) >= 0:
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
            x[bj] = Fraction(tab.rows[r][-1], tab.dens[r])
        elif tab.rows[r][-1] != 0:
            raise InternalError("artificial variable stuck at a nonzero value")
    return x


def _verify_primal(problem: LpProblem, x) -> None:
    if any(v < 0 for v in x):
        raise InternalError("primal point has a negative coordinate")
    for ax, b in zip(_row_dots(problem.rows, x), problem.rhs):
        if ax != b:
            raise InternalError("primal point violates an equality constraint")


def solve(problem: LpProblem) -> LpSolution:
    """Exact optimum of the problem, with a verified certificate for every status."""
    tab = _Tableau(problem)
    farkas = _phase_one(tab, problem)
    if farkas is not None:
        return LpSolution(status=INFEASIBLE, farkas=farkas, pivots=tab.pivots)

    _drive_out_artificials(tab)

    costs2 = list(problem.objective) + [0] * tab.m
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
            ray[bj] = Fraction(-a, tab.dens[r])
        if any(v < 0 for v in ray):
            raise InternalError("improving ray has a negative coordinate")
        if any(_row_dots(problem.rows, ray)):
            raise InternalError("improving ray leaves the null space")
        if _dot(problem.objective, ray) <= 0:
            raise InternalError("improving ray does not improve the objective")
        return LpSolution(
            status=UNBOUNDED,
            ray=dict(zip(problem.labels, ray)),
            pivots=tab.pivots,
        )

    x = _extract_point(tab)
    _verify_primal(problem, x)
    value = tab.objective_value
    if _dot(problem.objective, x) != value:
        raise InternalError("objective value disagrees with the primal point")
    # Dual optimality certificate: c_j <= y.A_j for every column, y.b = value.
    y_signed = tab.dual_vector(costs2)
    y = [sign * v for sign, v in zip(tab.signs, y_signed)]
    for c, column in zip(problem.objective, _column_sums(problem, y)):
        if c > column:
            raise InternalError("dual vector fails reduced-cost optimality")
    if _dot(problem.rhs, y) != value:
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
