"""Half-up decimal rounding used at every report boundary."""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats go through str() so that a literal like 46.3 means 463/10, not the
    nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a number")


def round_half_up(value, places: int = 2) -> Decimal:
    """Round exactly, ties away from zero: 76.915 -> 76.92 at 2 places."""
    frac = as_fraction(value)
    quantum = Decimal(1).scaleb(-places)
    return (Decimal(frac.numerator) / Decimal(frac.denominator)).quantize(
        quantum, rounding=ROUND_HALF_UP
    )


def format_signed(value, places: int = 1) -> str:
    """Render a delta with an explicit sign, e.g. 4.4 -> '+4.4'."""
    rounded = round_half_up(value, places)
    text = str(abs(rounded))
    return ("-" if rounded < 0 else "+") + text
