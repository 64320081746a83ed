"""Exact rational arithmetic helpers.

Every rational the package takes or returns is a `fractions.Fraction`
(canonical form: reduced, positive denominator); there is no second
rational type.  Only the simplex tableau in `lp` works on Python ints over
a common denominator.  Rationals serialize as "p/q" strings.  Every integer
input, a count or a rational, passes one rule (`int_tuple`): numpy integers
are integers, bools are not; every mapping input passes `mapping_items`.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from fractions import Fraction

from .errors import ValidationError

RAT = Fraction  # the one rational type; benchmark records name its module as the backend

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def int_tuple(values, field: str) -> tuple:
    """`values` as ints: the package's one integer rule.

    Anything `operator.index` takes passes, numpy integers too; a bool,
    float, string or Fraction raises.
    """
    try:
        values = tuple(values)
        if bool not in map(type, values):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    raise ValidationError(f"{field} must be integers, got {values!r}")


def mapping_items(value, field: str):
    """Items of a mapping; anything else raises."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"{field} must be a mapping, got {value!r}")
    return value.items()


def as_int(value, field: str) -> int:
    return value if type(value) is int else int_tuple((value,), field)[0]


def to_fraction(value) -> Fraction:
    """A Fraction, or an integer by `int_tuple`'s rule, as a Fraction; anything else raises."""
    if isinstance(value, Fraction):
        return value
    return Fraction(as_int(value, "a rational that is not a Fraction"))


def format_rational(value) -> str:
    """Render a rational as "p/q" (the denominator is always written)."""
    f = to_fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a Fraction.

    Decimal notation is rejected on purpose: it cannot represent the exact
    values this toolkit traffics in.
    """
    match = _RATIONAL_RE.match(text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValidationError(
            f"not a rational: {text!r} (expected 'p/q' or an integer)"
        )
    num, den = match.groups()
    return Fraction(int(num), int(den) if den else 1)
