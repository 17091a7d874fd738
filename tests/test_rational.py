"""Exact probability arithmetic and its validated ranges."""

import random
from fractions import Fraction

import pytest

from probfpc.rational import ONE, ZERO, ProbRangeError, as_prob, as_uprob, parse_rat


def test_as_prob_open_interval():
    assert as_prob(Fraction(1, 2)) == Fraction(1, 2)
    assert as_prob("2/3") == Fraction(2, 3)
    for bad in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(ProbRangeError):
            as_prob(bad)


def test_as_uprob_closed_interval():
    assert as_uprob(0) == ZERO
    assert as_uprob(1) == ONE
    assert as_uprob("1/8") == Fraction(1, 8)
    for bad in (Fraction(-1, 2), 2):
        with pytest.raises(ProbRangeError):
            as_uprob(bad)


def test_a_fraction_in_range_is_returned_as_it_is():
    x = Fraction(1, 3)
    assert as_prob(x) is x and as_uprob(x) is x
    with pytest.raises(ProbRangeError) as e:
        as_prob(Fraction(1))
    assert str(e.value) == "choice weight must satisfy 0 < p < 1, got 1"
    with pytest.raises(ProbRangeError) as e:
        as_uprob(Fraction(3, 2))
    assert str(e.value) == "probability must satisfy 0 <= p <= 1, got 3/2"


def test_canonical_form_closed_under_arithmetic():
    # lowest terms and positive denominator survive +, *, /
    rng = random.Random(12)
    for _ in range(200):
        a = Fraction(rng.randrange(-20, 20), rng.randrange(1, 20))
        b = Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
        for c in (a + b, a * b, a / b):
            assert c.denominator > 0
            from math import gcd
            assert gcd(abs(c.numerator), c.denominator) == 1


def test_parse_render_round_trip():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("0.25") == Fraction(1, 4)
    assert parse_rat(" 7/8 ") == Fraction(7, 8)
    # the CLI renders rationals with str(): "3/4", and "2" for integers
    rng = random.Random(15)
    for _ in range(200):
        x = Fraction(rng.randrange(0, 100), rng.randrange(1, 100))
        assert parse_rat(str(x)) == x
    assert parse_rat("+3") == 3 and parse_rat(".5") == parse_rat("1/2")
    assert parse_rat("-1/2") == Fraction(-1, 2) and parse_rat("2.") == 2
    # Fraction also takes exponents, digit-group underscores and non-ASCII
    # digits; the documented grammar is "p/q" or a decimal in ASCII digits
    for text in ("one half", "1/0", "1e-3", "1.5E2", "2e1", "1_0/3", "1/1_0",
                 "0.2_5", "\u0660.\u0665", "\u0661/\u0663"):
        with pytest.raises(ValueError) as e:
            parse_rat(text)
        assert str(e.value).startswith("not a rational literal: %r (" % text)
