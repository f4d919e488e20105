"""Half-up rounding and exact numeric coercion."""

from decimal import Decimal
from fractions import Fraction

from hypothesis import given, strategies as st

from mathagent.rounding import as_fraction, format_signed, round_half_up


def test_half_up_at_the_boundary():
    assert round_half_up(Decimal("5.15"), 1) == Decimal("5.2")
    assert round_half_up(Decimal("5.25"), 1) == Decimal("5.3")
    assert round_half_up(Decimal("-5.15"), 1) == Decimal("-5.2")
    assert round_half_up(Decimal("76.915"), 2) == Decimal("76.92")


def test_fraction_boundary_cases_survive():
    # 30.9 / 6 = 5.15 exactly; float division would give 5.1499...
    assert round_half_up(Fraction(309, 60), 1) == Decimal("5.2")
    assert round_half_up(Fraction(2, 3) * 100, 2) == Decimal("66.67")
    assert round_half_up(Fraction(1, 3) * 100, 2) == Decimal("33.33")


def test_float_inputs_read_as_decimal_literals():
    # 0.1 the float is not 1/10, but the literal "0.1" is
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction(5.15) == Fraction(515, 100)
    assert as_fraction("48.26") == Fraction(4826, 100)
    assert as_fraction(7) == Fraction(7)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(Decimal("2.50")) == Fraction(5, 2)


def test_round_half_up_returns_decimal_with_fixed_places():
    out = round_half_up(Fraction(1, 3), 2)
    assert isinstance(out, Decimal)
    assert str(out) == "0.33"
    assert str(round_half_up(50, 2)) == "50.00"


def test_format_signed():
    assert format_signed(Decimal("4.4"), 1) == "+4.4"
    assert format_signed(Decimal("-1.0"), 1) == "-1.0"
    assert format_signed(Decimal("0.0"), 1) == "+0.0"


@given(st.fractions(min_value=-1000, max_value=1000), st.integers(0, 4))
def test_rounding_error_bounded_by_half_ulp(value, places):
    out = round_half_up(value, places)
    assert abs(Fraction(out) - value) <= Fraction(1, 2 * 10**places)


@given(st.fractions(min_value=0, max_value=100))
def test_rounding_is_monotone(value):
    bumped = value + Fraction(1, 97)
    assert round_half_up(bumped, 2) >= round_half_up(value, 2)
