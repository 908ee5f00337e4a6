from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbrw.dyadic import Dyadic, reduced

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


def test_reduced_form():
    d = Dyadic(4, 3)
    assert (d.numerator, d.exponent) == (1, 1)
    assert Dyadic(0, 7).exponent == 0
    # even integers stay at exponent zero
    assert (Dyadic(6, 0).numerator, Dyadic(6, 0).exponent) == (6, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@pytest.mark.parametrize("numerator, exponent, expected", [
    (3 << 100, 200, (3, 100)),
    (1 << 400, 400, (1, 0)),
    (-(3 << 100), 200, (-3, 100)),
    (-(1 << 400), 390, (-(1 << 10), 0)),
    (-12, 1, (-6, 0)),
    (-5, 3, (-5, 3)),
    (0, 0, (0, 0)),
    (0, 500, (0, 0)),
])
def test_reduction_strips_every_trailing_zero_at_once(numerator, exponent, expected):
    assert reduced(numerator, exponent) == expected
    d = Dyadic(numerator, exponent)
    assert (d.numerator, d.exponent) == expected
    assert d.as_fraction() == Fraction(numerator, 1 << exponent)
    with pytest.raises(ValueError, match="exponent must be non-negative"):
        Dyadic(numerator, -1)


@given(st.integers(min_value=-(2**80), max_value=2**80), st.integers(min_value=0, max_value=90))
def test_reduction_matches_fractions(numerator, exponent):
    num, exp = reduced(numerator, exponent)
    assert Fraction(num, 1 << exp) == Fraction(numerator, 1 << exponent)
    assert exp == 0 or num % 2 == 1


def test_half_power():
    assert Dyadic.half_power(3) == Fraction(1, 8)
    assert Dyadic.half_power(0) == 1


def test_str_format():
    assert str(Dyadic(3, 2)) == "3/2^2"
    assert str(Dyadic(-1)) == "-1/2^0"


def test_equality_with_ints_and_fractions():
    assert Dyadic(2, 1) == 1
    assert Dyadic(1, 1) == Fraction(1, 2)
    assert Dyadic(1, 1) != Dyadic(1, 2)
    assert hash(Dyadic(2, 1)) == hash(1)


def test_immutable():
    d = Dyadic(1, 1)
    with pytest.raises(AttributeError):
        d.numerator = 5


@given(dyadics, dyadics)
def test_add_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@given(dyadics, dyadics)
def test_mul_matches_fractions(a, b):
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()


@given(dyadics, dyadics)
def test_sub_and_order_match_fractions(a, b):
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a <= b) == (a.as_fraction() <= b.as_fraction())


@given(dyadics)
def test_roundtrip_via_fraction(a):
    assert Dyadic.from_fraction(a.as_fraction()) == a
    assert float(a) == float(a.as_fraction())


def test_from_fraction_rejects_non_dyadic():
    with pytest.raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))


def test_int_arithmetic_coercion():
    assert 1 - Dyadic(1, 1) == Dyadic(1, 1)
    assert 2 * Dyadic(1, 1) == 1
    assert sum([Dyadic(1, 1), Dyadic(1, 2)], Dyadic(0)) == Fraction(3, 4)
