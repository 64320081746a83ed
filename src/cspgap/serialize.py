"""JSON codecs for families, instances, solutions, and witness objects.

Conventions, shared by every file format this package reads or writes:
rationals are "p/q" strings (never decimals), tuples over the alphabet are
digit strings in base q (digits 0-9a-z, so q <= 36), variable indices are
1-based, and emitted JSON is canonical: sorted keys, two-space indent, one
trailing newline.  Canonical output makes byte-identical reruns a testable
contract.

The tuple codec (`core.DIGITS`, `tuple_to_digits`, `digits_to_tuple`) lives
in `core`, which the LP and witness layers share; the two functions are
re-exported here.
"""

from __future__ import annotations

import json
import os
import warnings

from .basic_lp import LocalDistributionSolution
from .core import Constraint, Instance, Predicate, PredicateFamily
from .core import digits_to_tuple, tuple_to_digits
from .errors import ValidationError
from .rationals import format_rational, parse_rational
from .witnesses import PairDistribution, SymbolKernel


def canonical_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def strict(value, kind: type):
    """`value` if its JSON type is exactly `kind` (a bool is no int), else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def strict_ints(data) -> tuple:
    return tuple(strict(v, int) for v in strict(data, list))


def _rational_rows(data) -> tuple:
    return tuple(
        tuple(parse_rational(v) for v in strict(row, list)) for row in strict(data, list)
    )


def family_to_dict(fam: PredicateFamily) -> dict:
    return {
        "q": fam.q,
        "k": fam.k,
        "predicates": [
            {"name": p.name, "table": list(p.table)} for p in fam.predicates
        ],
    }


def family_from_dict(data: dict) -> PredicateFamily:
    try:
        q = strict(strict(data, dict)["q"], int)
        k = strict(data["k"], int)
        predicates = tuple(
            Predicate(q, k, strict(entry["name"], str), strict_ints(entry["table"]))
            for entry in strict(data["predicates"], list)
        )
    except ValidationError:  # a predicate's own check, such as its table's length
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed family object: {exc!r}") from exc
    return PredicateFamily(predicates)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "family": family_to_dict(inst.family),
        "n": inst.n,
        "constraints": [
            {"f": c.predicate, "vars": list(c.variables), "w": c.weight}
            for c in inst.constraints
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    """An instance whose "family" is an inline family object (see `load_instance`)."""
    try:
        family_field = data["family"]
        n = strict(data["n"], int)
        raw_constraints = strict(data["constraints"], list)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance object: {exc!r}") from exc
    fam = family_from_dict(family_field)
    constraints = []
    for entry in raw_constraints:
        try:
            name = strict(entry["f"], str)
            variables = strict_ints(entry["vars"])
            weight = strict(entry.get("w", 1), int)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed constraint object: {exc!r}") from exc
        if weight == 0:
            warnings.warn(
                f"dropping zero-weight constraint {name}{variables}",
                stacklevel=2,
            )
            continue
        constraints.append(Constraint(name, variables, weight))
    return Instance(fam, n, tuple(constraints))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno},"
                              f" column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or a NUL in the path
        raise ValidationError(f"{path!r}: {exc}") from exc


def load_family(path: str) -> PredicateFamily:
    return family_from_dict(load_json(path))


def load_instance(path: str) -> Instance:
    """An instance file; a string "family" names a family file relative to it."""
    data = load_json(path)
    if isinstance(data, dict) and isinstance(data.get("family"), str):
        base_dir = os.path.dirname(path) or "."
        data["family"] = load_json(os.path.join(base_dir, data["family"]))
    return instance_from_dict(data)


def save_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(data))


def solution_to_dict(sol: LocalDistributionSolution) -> dict:
    return {
        "objective": format_rational(sol.value),
        "marginals": [[format_rational(v) for v in row] for row in sol.marginals],
        "locals": [
            {tuple_to_digits(a): format_rational(mass) for a, mass in dist.items()}
            for dist in sol.locals_
        ],
    }


def solution_from_dict(data: dict, inst: Instance) -> LocalDistributionSolution:
    try:
        value = parse_rational(data["objective"])
        marginals = _rational_rows(data["marginals"])
        maps = [
            {digits_to_tuple(digits, inst.family.q): parse_rational(mass)
             for digits, mass in strict(entry, dict).items()}
            for entry in strict(data["locals"], list)
        ]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed solution object: {exc!r}") from exc
    return LocalDistributionSolution(inst, maps, marginals, value)


def pair_distribution_to_dict(dist: PairDistribution) -> dict:
    return {
        f"{name}:{tuple_to_digits(values)}": format_rational(mass)
        for (name, values), mass in dist.atoms()
    }


def pair_distribution_from_dict(data: dict, fam: PredicateFamily) -> PairDistribution:
    mass = {}
    for key, value in strict(data, dict).items():
        name, _, digits = key.rpartition(":")
        if not name:
            raise ValidationError(f"malformed atom key {key!r}")
        mass[(name, digits_to_tuple(digits, fam.q))] = parse_rational(value)
    return PairDistribution(fam, mass)


def marginal_vector_to_dict(mv: dict) -> dict:
    return {name: [[format_rational(v) for v in row] for row in rows] for name, rows in mv.items()}


def marginal_vector_from_dict(data: dict, fam: PredicateFamily) -> dict:
    try:
        return {name: _rational_rows(data[name]) for name in fam.names}
    except KeyError as exc:
        raise ValidationError(f"marginal vector is missing predicate {exc}") from exc


def kernel_to_dict(kernel: SymbolKernel) -> list:
    return [[format_rational(v) for v in row] for row in kernel.rows]


def kernel_from_dict(data) -> SymbolKernel:
    return SymbolKernel(_rational_rows(data))
