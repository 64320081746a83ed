"""Exact rational arithmetic helpers.

Every rational the package takes or returns is a `fractions.Fraction`
(canonical form: reduced, positive denominator); there is no second
rational type.  Only the simplex tableau in `lp` works on Python ints over
a common denominator.  Rationals serialize as "p/q" strings.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ValidationError

RAT = Fraction  # the one rational type; benchmark records name its module as the backend

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def to_fraction(value) -> Fraction:
    """Convert an int or Fraction to a Fraction; reject anything else, bools too."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(f"not an exact rational: {value!r}")


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
