"""Independent test oracles for the exact LP solver and the threshold bracket.

`vertex_enum_oracle` computes the optimum of a standard-form problem by
enumerating basic solutions with Gaussian elimination.  It shares no code
with the simplex in `cspgap.lp` and exists so tests can cross-check the
solver exactly.  `product_maximin_reference` is the plain max-min lattice
scan that `cspgap.core.rho_product_lower` must reproduce exactly, and
`rho_upper_reference` the plain instance-by-instance replay that
`cspgap.core.rho_upper_empirical` must reproduce exactly.
`max_satisfied_reference` is the plain assignment-by-assignment loop that
the lane search `cspgap.core._max_satisfied` must reproduce exactly, and
`width_reference` the plain rank-by-rank loop that `cspgap.core.width`
must reproduce exactly.  `no_value_reference` is the plain tuple-by-tuple
no-side value that `cspgap.witnesses.no_value` must reproduce on any kernel,
and `kernel_stream_reference` the kernel search on `Fraction` rows that the
prover's integer-count stream must reproduce kernel by kernel.
"""

import random
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, prod

from builders import dense_rows
from cspgap import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    BudgetError,
    Constraint,
    Instance,
    LpProblem,
    LpSolution,
    brute_force_opt,
    complete_instance,
)
from cspgap.core import PredicateWidth, compositions


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


def rho_upper_reference(fam, n_max, budget, seed) -> Fraction:
    """`rho_upper_empirical` as a plain replay: the least optimum of its stream.

    The stream is rebuilt as real `Instance`s: the complete instances on
    k..n_max variables, then seeded random ones whose constraints are drawn
    from each n's complete instance at weights 1 and 2, with the same `rng`
    calls in the same order.  Every instance gets a full `brute_force_opt`,
    with no stop threshold.
    """
    rng = random.Random(seed)

    def instances():
        universes = {}
        for t in range(fam.k, n_max + 1):
            complete = complete_instance(fam, t)
            universes[t] = [(c, Constraint(c.predicate, c.variables, 2)) for c in complete.constraints]
            yield complete
        while True:
            n = rng.randint(fam.k, n_max)
            m = rng.randint(1, max(2, 2 * n))
            constraints = [rng.choice(universes[n])[rng.randint(1, 2) - 1] for _ in range(m)]
            yield Instance(fam, n, constraints)

    return min(brute_force_opt(inst)[0] for inst in islice(instances(), budget))


def max_satisfied_reference(q, n, compiled, stop) -> tuple:
    """`cspgap.core._max_satisfied` as a plain loop over the q**n assignments.

    Each assignment, in lexicographic order, ranks every constraint's tuple
    into its predicate's truth table.  Returns (satisfied weight,
    assignment) of the first assignment whose weight reaches `stop`, else of
    the first maximizer.
    """
    best_sat, best = -1, None
    for a in product(range(q), repeat=n):
        sat = 0
        for weight, pred, variables in compiled:
            rank = 0
            for v in variables:
                rank = rank * q + a[v]
            sat += weight * pred.table[rank]
        if sat > best_sat:
            best_sat, best = sat, a
            if sat >= stop:
                break
    return best_sat, best


def width_reference(fam):
    """`cspgap.core.width` as a plain loop over the bases in rank order.

    Each base counts the constant shifts whose tuple the predicate's table
    accepts; a base replaces the best only on a strictly larger count.
    Returns (family width, {name: PredicateWidth}).
    """
    q, k = fam.q, fam.k
    detail = {}
    for pred in fam.predicates:
        best_count, best_base = -1, None
        for rank in range(q**k):
            base = pred.tuple_of(rank)
            count = sum(pred.value(tuple((v + a) % q for v in base)) for a in range(q))
            if count > best_count:
                best_count, best_base = count, base
        detail[pred.name] = PredicateWidth(Fraction(best_count, q), best_base)
    return min(entry.width for entry in detail.values()), detail


def no_value_reference(dist, rows) -> Fraction:
    """The no-side value of `dist` under kernel `rows` as a plain sum.

    Each atom (f, a) of weight w adds w * prod_l rows[a_l][b_l] for every
    tuple b in [q]^k that f's truth table accepts; no `product_mass`, no
    satisfying-tuple list and no common denominator.
    """
    fam = dist.family
    total = Fraction(0)
    for (name, values), weight in dist.atoms():
        for b in product(range(fam.q), repeat=fam.k):
            if fam[name].value(b):
                total += weight * prod(rows[a][s] for a, s in zip(values, b))
    return total


def kernel_stream_reference(dist, budget, seed):
    """The kernel search as it ran on `Fraction` rows, scored by `no_value_reference`.

    The q^q deterministic kernels, the lattice over denominator 4 (q = 2) or
    2, then seeded starts over 1/64 with local ascent by steps of 1/4, 1/16
    and 1/64, cut at `budget`.  Returns (the kernels scored, in order; the
    best value; the lexicographically smallest kernel of that value).
    """
    q = dist.family.q
    scored = []

    def kernels():
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(q)) for i in range(q))
        yield from product(identity, repeat=q)
        den = 4 if q == 2 else 2
        lattice = [tuple(Fraction(c, den) for c in counts) for counts in compositions(den, q)]
        yield from product(lattice, repeat=q)
        rng = random.Random(seed)
        moves = [
            (sigma, up, down, Fraction(1, den))
            for sigma in range(q)
            for up in range(q)
            for down in range(q)
            if up != down
            for den in (4, 16, 64)
        ]
        while True:
            counts = []
            for _ in range(q):
                row = [0] * q
                remaining = 64
                for j in range(q - 1):
                    row[j] = rng.randint(0, remaining)
                    remaining -= row[j]
                row[q - 1] = remaining
                counts.append(row)
            current = tuple(tuple(Fraction(c, 64) for c in row) for row in counts)
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

    for rows in islice(kernels(), budget):
        scored.append((no_value_reference(dist, rows), rows))
    best = max(value for value, _ in scored)
    return [rows for _, rows in scored], best, min(rows for value, rows in scored if value == best)
