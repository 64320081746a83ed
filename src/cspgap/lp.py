"""Exact rational linear programming for standard-form problems.

Problems are "maximize c.x subject to A x = b, x >= 0" with every entry an
exact rational; c is dense and each row of A is stored once, as its
nonzeros' columns and their numerators over one denominator
(`LpProblem.rows`), the form that the tableau, both certificate rules and
`dump_lp` read.  The solver is a two-phase primal simplex on a fraction-free
tableau (each row, the reduced-cost row last, is Python ints over one
positive denominator) with Bland's rule (lowest eligible index enters; ratio
ties break toward the lowest basic index), so every run terminates and is
deterministic; one reader of the basic columns gives the point and the ray.
Nothing is returned unverified: every answer passes one of two exact rules
that read only the problem's data, in integers, building no `Fraction` per
nonzero.  The primal rule (`_check_primal`) checks x >= 0 and A x = rhs;
the dual rule (`_check_dual`) checks objective_j <= y.A_j for every column
j and y.b = value.  Only returned values are `Fraction`s.

  * optimal    -- the point passes the primal rule with rhs = b and has
                  c.x = value; the dual vector read off the final tableau
                  passes the dual rule with objective c;
  * infeasible -- the Farkas vector y passes the dual rule with objective 0
                  and the phase-one optimum (< 0) as its value, so y.A >= 0
                  and y.b < 0;
  * unbounded  -- the improving ray r passes the primal rule with rhs = 0
                  and has c.r > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .errors import BudgetError, InternalError, ValidationError
from .rationals import format_rational, int_tuple, mapping_items, to_fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Most cells a simplex tableau may hold.  Every LP of the tests and the
# benchmark takes under 10^4 cells.
TABLEAU_CELL_BUDGET = 1 << 22


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  rows x = rhs,  x >= 0.

    `objective` is dense, one entry per distinct `str` label.  Each row is
    given as a {column: coefficient} mapping over columns in [0, n) and
    stored as `(columns, numerators, denominator)`: its nonzeros in column
    order, over their least common denominator.
    """

    objective: tuple
    rows: tuple
    rhs: tuple
    labels: tuple

    def __post_init__(self):
        # Built from lists: tuple(map(...)) grows a 10-slot tuple by resizing,
        # which raised the search benchmark's peak RSS by about 0.7 MB.
        objective = tuple([to_fraction(v) for v in self.objective])
        rhs = tuple([to_fraction(v) for v in self.rhs])
        labels = tuple(self.labels)
        n = len(objective)
        if len(labels) != n:
            raise ValidationError(f"{len(labels)} labels for {n} variables")
        if not all(isinstance(s, str) for s in labels):
            raise ValidationError(f"variable labels must be strings, got {labels!r}")
        if len(set(labels)) != n:
            raise ValidationError("variable labels must be unique")
        rows = []
        for i, row in enumerate(self.rows):
            items = mapping_items(row, f"row {i}")
            columns = int_tuple([j for j, _ in items], f"row {i} columns")
            if not all(0 <= j < n for j in columns):
                raise ValidationError(f"row {i} has a column outside [0, {n}): {columns}")
            entries = sorted(zip(columns, [to_fraction(c) for _, c in items]))
            numerators, den = _over_lcd([c for _, c in entries if c])
            rows.append((tuple([j for j, c in entries if c]), tuple(numerators), den))
        if len(rhs) != len(rows):
            raise ValidationError(f"{len(rows)} constraint rows but {len(rhs)} right-hand sides")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", tuple(rows))
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

    def linear(terms):
        text = " + ".join(f"{format_rational(c)} {problem.labels[j]}" for j, c in terms)
        return text or "0/1"

    objective = [(j, c) for j, c in enumerate(problem.objective) if c]
    lines = [f"maximize {linear(objective)}"]
    for (columns, numerators, den), b in zip(problem.rows, problem.rhs):
        terms = zip(columns, [Fraction(v, den) for v in numerators])
        lines.append(f"subject to {linear(terms)} = {format_rational(b)}")
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


def check_tableau_size(num_variables: int, num_rows: int) -> None:
    """Raise BudgetError when the tableau of such a problem passes `TABLEAU_CELL_BUDGET` cells.

    The tableau (`_Tableau`) has a row per problem row and the cost row, and
    a column per variable and per row (its artificial) and the right-hand
    side.  A caller that knows the shape before it builds the problem checks
    it first; `solve` and `check_feasible` check every problem.
    """
    cells = (num_rows + 1) * (num_variables + num_rows + 1)
    if cells > TABLEAU_CELL_BUDGET:
        raise BudgetError(
            f"the LP has {num_rows} rows and {num_variables} columns, a tableau of"
            f" {cells} cells; budget is {TABLEAU_CELL_BUDGET}"
        )


class _Tableau:
    """Fraction-free simplex tableau.

    Columns are the n problem variables followed by one artificial variable
    per row; the final column is the right-hand side.  Row r stands for
    `rows[r] / dens[r]`: a list of Python ints over one positive denominator,
    kept in lowest terms, so the basic entry of each of the m constraint
    rows equals its denominator.  Row m is the reduced-cost row in the same
    form; it has no basic column, so a pivot eliminates it like any other
    row and the ratio test scans rows 0..m-1 only.  Scaling a row by a
    positive number keeps every sign and ratio order that Bland's rule reads,
    so the pivot path is the one an exact rational tableau takes.  Rows whose
    rhs is negative are sign-flipped on entry so the artificial basis is
    feasible; `signs` remembers the flips, which `dual_vector` undoes.
    """

    def __init__(self, problem: LpProblem):
        check_tableau_size(problem.num_variables, problem.num_rows)
        self.n = problem.num_variables
        self.m = problem.num_rows
        self.ncols = self.n + self.m
        self.signs = []
        self.rows = []
        self.dens = []
        for i, ((columns, numerators, row_den), b) in enumerate(zip(problem.rows, problem.rhs)):
            # [row | b] over the least common denominator of all its entries
            b_num, b_den = b.as_integer_ratio()
            den = lcm(row_den, b_den)
            sign = 1 if b_num >= 0 else -1
            scale = sign * (den // row_den)
            row = [0] * (self.ncols + 1)
            for j, v in zip(columns, numerators):
                row[j] = scale * v
            row[self.n + i] = den
            row[-1] = sign * b_num * (den // b_den)
            self.signs.append(sign)
            self.rows.append(row)
            self.dens.append(den)
        self.rows.append([0] * (self.ncols + 1))  # costs arrive with load_costs
        self.dens.append(1)
        self.basis = [self.n + i for i in range(self.m)]
        self.pivots = 0

    def load_costs(self, costs):
        """Install a cost row as row m and eliminate the current basic columns."""
        reduced, den = _over_lcd(costs)
        reduced.append(0)
        for r, bj in enumerate(self.basis):
            f = reduced[bj]
            if f:
                row = self.rows[r]
                support = [j for j, v in enumerate(row) if v]
                reduced, den = _eliminate(reduced, den, f, row, self.dens[r], support)
        self.rows[self.m], self.dens[self.m] = reduced, den

    @property
    def objective_value(self) -> Fraction:
        return Fraction(-self.rows[self.m][-1], self.dens[self.m])

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
        self.basis[pr] = pc
        self.pivots += 1

    def optimize(self, limit: int) -> Optional[int]:
        """Bland iterations over the entering columns [0, limit) until optimal
        (returns None) or unbounded (returns the improving column with no
        positive entries)."""
        while True:
            pc = None
            reduced = self.rows[self.m]
            for j in range(limit):
                if reduced[j] > 0:
                    pc = j
                    break
            if pc is None:
                return None
            # Ratio rhs_i / a_i compared by cross-multiplying; the row
            # denominators cancel.
            pr = None
            for i, row in zip(range(self.m), self.rows):
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

    def dual_vector(self, costs) -> tuple:
        """y = c_B B^{-1} of the problem as given: read off the artificial columns
        (B^{-1} of the sign-normalized system), whose costs are integers, and
        unflipped through `signs`."""
        reduced, den = self.rows[self.m], self.dens[self.m]
        return tuple([
            Fraction(sign * (costs[self.n + i] * den - reduced[self.n + i]), den)
            for i, sign in enumerate(self.signs)
        ])


def _dot(coeffs, x) -> Fraction:
    """coeffs.x of two dense vectors, each over its least common denominator."""
    coeff_nums, coeff_den = _over_lcd(coeffs)
    x_nums, x_den = _over_lcd(x)
    return Fraction(sum(map(mul, coeff_nums, x_nums)), coeff_den * x_den)


def _check_primal(problem: LpProblem, x, rhs, what: str) -> None:
    """The primal rule: x >= 0 and row.x = rhs for every row.

    In integers: x and rhs each over its least common denominator, each row as stored.
    """
    x_nums, x_den = _over_lcd(x)
    if any(v < 0 for v in x_nums):
        raise InternalError(f"{what} has a negative coordinate")
    rhs_nums, rhs_den = _over_lcd(rhs)
    for i, ((columns, numerators, den), b) in enumerate(zip(problem.rows, rhs_nums)):
        # numerators.x_nums / (den * x_den) = b / rhs_den
        dot = sum(map(mul, numerators, map(x_nums.__getitem__, columns)))
        if dot * rhs_den != b * den * x_den:
            raise InternalError(f"{what} violates row {i}")


def _check_dual(problem: LpProblem, y, objective, value) -> None:
    """The dual rule: objective_j <= y.A_j for every column j and y.b = value.

    In integers: y, the objective and the rhs each over its least common
    denominator, y.A over y's times that of every stored row.
    """
    y_nums, y_den = _over_lcd(y)
    rows_den = lcm(*[den for _, _, den in problem.rows])
    columns = [0] * problem.num_variables
    for yi, (row_columns, numerators, den) in zip(y_nums, problem.rows):
        if yi:
            f = yi * (rows_den // den)
            for j, v in zip(row_columns, numerators):
                columns[j] += f * v
    c_nums, c_den = _over_lcd(objective)
    # c / c_den <= column / (y_den * rows_den)
    scale = y_den * rows_den
    for j, (c, column) in enumerate(zip(c_nums, columns)):
        if c * scale > column * c_den:
            raise InternalError(f"dual vector fails objective <= y.A in column {j}")
    rhs_nums, rhs_den = _over_lcd(problem.rhs)
    value_num, value_den = value.as_integer_ratio()
    if sum(map(mul, y_nums, rhs_nums)) * value_den != value_num * y_den * rhs_den:
        raise InternalError("dual vector fails y.b = value")


def _phase_one(tab: _Tableau, problem: LpProblem) -> Optional[tuple]:
    """Minimize the artificial sum; None if it reaches zero, else a verified Farkas vector."""
    costs = [0] * tab.n + [-1] * tab.m
    tab.load_costs(costs)
    if tab.optimize(tab.ncols) is not None:
        raise InternalError("phase-one objective is bounded above by zero")
    value = tab.objective_value
    if value >= 0:
        return None
    y = tab.dual_vector(costs)
    _check_dual(problem, y, [0] * tab.n, value)
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


def _basic_column(tab: _Tableau, j: int, what: str) -> list:
    """Column j of B^{-1}[A | b] over the problem variables, as Fractions.

    Column `ncols` (the rhs) gives the basic point; an entering column gives
    the edge direction, negated.  An artificial basic row must be zero there.
    """
    column = [Fraction(0)] * tab.n
    for r, bj in enumerate(tab.basis):
        v = tab.rows[r][j]
        if v:
            if bj >= tab.n:
                raise InternalError(f"{what} leaks into an artificial variable")
            column[bj] = Fraction(v, tab.dens[r])
    return column


def solve(problem: LpProblem) -> LpSolution:
    """Exact optimum of the problem, with a verified certificate for every status."""
    tab = _Tableau(problem)
    farkas = _phase_one(tab, problem)
    if farkas is not None:
        return LpSolution(status=INFEASIBLE, farkas=farkas, pivots=tab.pivots)

    _drive_out_artificials(tab)

    costs2 = list(problem.objective) + [0] * tab.m
    tab.load_costs(costs2)
    col = tab.optimize(tab.n)

    if col is not None:
        ray = [-v for v in _basic_column(tab, col, "improving ray")]
        ray[col] = Fraction(1)
        _check_primal(problem, ray, [0] * tab.m, "improving ray")
        if _dot(problem.objective, ray) <= 0:
            raise InternalError("improving ray does not improve the objective")
        return LpSolution(
            status=UNBOUNDED,
            ray=dict(zip(problem.labels, ray)),
            pivots=tab.pivots,
        )

    x = _basic_column(tab, tab.ncols, "primal point")
    _check_primal(problem, x, problem.rhs, "primal point")
    value = tab.objective_value
    if _dot(problem.objective, x) != value:
        raise InternalError("objective value disagrees with the primal point")
    _check_dual(problem, tab.dual_vector(costs2), problem.objective, value)
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
    x = _basic_column(tab, tab.ncols, "feasible point")
    _check_primal(problem, x, problem.rhs, "feasible point")
    return FeasibilityResult(feasible=True, point=dict(zip(problem.labels, x)))
