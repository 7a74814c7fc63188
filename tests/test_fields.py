import random
from fractions import Fraction

import pytest

from biserial.fields import FieldError, PrimeField, QQ, field_from_spec


def test_field_from_spec():
    assert field_from_spec("q") == QQ
    assert field_from_spec("QQ") == QQ
    assert field_from_spec("fp:101") == PrimeField(101)
    with pytest.raises(FieldError):
        field_from_spec("fp:abc")
    with pytest.raises(FieldError):
        field_from_spec("gf256")


def test_prime_field_bounds():
    with pytest.raises(FieldError):
        PrimeField(1)
    with pytest.raises(FieldError):
        PrimeField(91)  # 7 * 13
    with pytest.raises(FieldError):
        PrimeField(2**31 + 11)
    assert PrimeField(2).p == 2


def test_prime_field_fraction_embedding():
    f5 = PrimeField(5)
    assert f5(Fraction(3, 4)) == (3 * pow(4, 3, 5)) % 5
    with pytest.raises(FieldError):
        f5(Fraction(1, 5))


def test_parse_and_format_round_trip():
    # Elements print by str, and what prints parses back to the same element.
    x = QQ.parse("-7/3")
    assert x == Fraction(-7, 3) and str(x) == "-7/3" and QQ.parse(str(x)) == x
    f7 = PrimeField(7)
    y = f7.parse("1/2")
    assert y == 4 and str(y) == "4" and f7.parse(str(y)) == y
    with pytest.raises(FieldError):
        QQ.parse("x")


def test_integral_rationals_are_ints_and_print_alike():
    # Over Q an integral element is an int however it was written, and it
    # prints the same as the Fraction it equals, so .mod files and
    # ``module syzygy -o`` keep their bytes.
    assert str(3) == str(Fraction(3)) == str(QQ.parse("3")) == "3"
    assert str(-2) == str(Fraction(-4, 2)) == "-2"
    six_halves = QQ.parse("6/2")
    assert six_halves == 3 and type(six_halves) is int
    assert str(six_halves) == str(QQ.parse("3")) == "3"
    half = QQ.parse("2/4")
    assert half == Fraction(1, 2) and str(half) == "1/2"
    for x in (QQ(Fraction(4, 2)), QQ("-9/3"), QQ(5), QQ.zero, QQ.one,
              QQ.inv(Fraction(1, 3)), QQ.inv(-1)):
        assert type(x) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and QQ.inv(2) == Fraction(1, 2)


def test_rational_draws_follow_the_seeded_stream():
    # The isomorphism search draws the same coefficients from the same rng
    # calls, now as ints.
    rng, twin = random.Random(11), random.Random(11)
    draws = [QQ.draw(rng) for _ in range(50)]
    assert draws == [twin.randrange(-9, 10) for _ in range(50)]
    assert all(type(x) is int for x in draws)


def test_field_equality_and_names():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert QQ.name == "q"
    assert PrimeField(101).name == "fp:101"
