"""Independent test oracles for the exact LP solver and the product maximin.

`vertex_enum_oracle` computes the optimum of a standard-form problem by
enumerating basic solutions with Gaussian elimination.  It shares no code
with the simplex in `cspgap.lp` and exists so tests can cross-check the
solver exactly.  `product_maximin_reference` is the plain max-min lattice
scan that `cspgap.core.rho_product_lower` must reproduce exactly.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

from builders import dense_rows
from cspgap import INFEASIBLE, OPTIMAL, UNBOUNDED, BudgetError, LpProblem, LpSolution
from cspgap.core import compositions


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
    rows, rhs, objective = dense_rows(problem), problem.rhs, problem.objective
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


def product_maximin_reference(fam, precision) -> Fraction:
    """`rho_product_lower` as a plain scan: every predicate scored at every point.

    Each lattice point's family minimum min_f E[f] is one Fraction, and a
    point replaces the best only when that Fraction is strictly larger.  The
    lattice, its lexicographic order and the two-level local ascent are the
    ones `rho_product_lower` documents (the lattice from `compositions`);
    masses are summed over the truth table directly, without
    `cspgap.core.product_mass`.
    """
    q, k = fam.q, fam.k
    denominator = 64
    while Fraction(k * q, 2 * denominator) > precision:
        denominator *= 2
    satisfying = [
        [a for a, bit in zip(product(range(q), repeat=k), p.table) if bit]
        for p in fam.predicates
    ]

    def family_min(counts, den):
        masses = [sum(prod(counts[v] for v in a) for a in tuples) for tuples in satisfying]
        return Fraction(min(masses), den**k)

    best_val = best_point = None
    for counts in compositions(denominator, q):
        val = family_min(counts, denominator)
        if best_val is None or val > best_val:
            best_val, best_point = val, counts

    den, point = denominator, list(best_point)
    for _ in range(2):
        den *= 2
        point = [2 * c for c in point]
        improved, rounds = True, 0
        while improved and rounds < 64:
            improved, rounds = False, rounds + 1
            for i in range(q):
                for j in range(q):
                    if i == j or point[j] == 0:
                        continue
                    candidate = list(point)
                    candidate[i] += 1
                    candidate[j] -= 1
                    val = family_min(candidate, den)
                    if val > best_val:
                        best_val, point = val, candidate
                        improved = True
    return best_val
