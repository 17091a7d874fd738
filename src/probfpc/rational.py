"""Exact rational arithmetic and the probability ranges used everywhere else.

Rationals are stdlib ``fractions.Fraction`` values: always lowest terms,
positive denominator, structural equality.  Nothing in this package touches
floating point; limits are only ever compared through the bounded checkers
in ``delay``.

Two validated ranges appear in signatures:

* Prob   - strictly inside (0,1); the legal weights of a probabilistic choice.
* UProb  - the closed interval [0,1]; masses and termination probabilities.
"""

import re
from fractions import Fraction

__all__ = ["ZERO", "ONE", "ProbRangeError", "TooLongToPrint", "exact_str",
           "as_prob", "as_uprob", "parse_rat"]

ZERO = Fraction(0)
ONE = Fraction(1)


class ProbRangeError(ValueError):
    """A probability literal or weight fell outside its required range."""


class TooLongToPrint(Exception):
    """An exact number with more decimal digits than Python prints (an int
    past 4,300 digits); the message counts the digits of its parts."""

    def __init__(self, what, *parts):
        digits = 0
        for n in parts:
            k = n.bit_length() * 3 // 10        # no more than n's digit count
            while 10 ** k <= n:
                k += 1
            digits += k
        super().__init__("%s too long to print: %d digits" % (what, digits))


def exact_str(v) -> str:
    """str(v) of a Fraction, or TooLongToPrint when a part of it is past
    the 4,300 digits Python prints."""
    try:
        return str(v)
    except ValueError:
        raise TooLongToPrint("exact value", v.numerator, v.denominator) from None


def as_prob(x) -> Fraction:
    """Coerce to an exact rational strictly between 0 and 1; a Fraction is
    returned as it is."""
    p = x if type(x) is Fraction else Fraction(x)
    if not (0 < p < 1):
        raise ProbRangeError("choice weight must satisfy 0 < p < 1, got %s" % p)
    return p


def as_uprob(x) -> Fraction:
    """Coerce to an exact rational in [0,1]; a Fraction is returned as it
    is."""
    p = x if type(x) is Fraction else Fraction(x)
    if not (0 <= p <= 1):
        raise ProbRangeError("probability must satisfy 0 <= p <= 1, got %s" % p)
    return p


def parse_rat(text: str) -> Fraction:
    """Parse "p/q" or a decimal literal ("0.25" -> 1/4) exactly, without
    Fraction's exponents (it builds 10^N for 1e-N) and digit underscores."""
    try:
        if not re.fullmatch(r"\s*[-+]?(\d+(/\d+|\.\d*)?|\.\d+)\s*", text):
            raise ValueError("not p/q or a decimal")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError("not a rational literal: %r (%s)" % (text, e))

