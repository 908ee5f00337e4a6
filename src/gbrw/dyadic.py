"""Exact arithmetic on dyadic rationals, numbers of the form p / 2**e.

Every probability and expectation in this model is a finite signed sum of
powers of two, so formula evaluation can demand exact equality instead of
floating-point tolerances.
"""

from __future__ import annotations

import functools
from fractions import Fraction


def reduced(numerator: int, exponent: int) -> tuple[int, int]:
    """``numerator / 2**exponent`` (exponent >= 0) in reduced form, as a pair."""
    t = min((numerator & -numerator).bit_length() - 1, exponent) if numerator else exponent
    return numerator >> t, exponent - t


@functools.total_ordering
class Dyadic:
    """A signed dyadic rational ``numerator / 2**exponent`` in reduced form.

    Reduced form: the exponent is the smallest non-negative integer able to
    represent the value, i.e. the numerator is odd whenever the exponent is
    positive, and zero is stored as ``0 / 2**0``.
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0):
        numerator = int(numerator)
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        numerator, exponent = reduced(numerator, exponent)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def half_power(cls, k: int) -> "Dyadic":
        """Return ``2**-k`` for k >= 0."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return cls(1, k)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Dyadic":
        frac = Fraction(value)
        e = frac.denominator.bit_length() - 1
        if frac.denominator != 1 << e:
            raise ValueError(f"{value} is not a dyadic rational")
        return cls(frac.numerator, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    @staticmethod
    def _coerce(value) -> "Dyadic | None":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.exponent, other.exponent)
        num = (self.numerator << (e - self.exponent)) + (
            other.numerator << (e - other.exponent)
        )
        return Dyadic(num, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dyadic(self.numerator * other.numerator, self.exponent + other.exponent)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.numerator, self.exponent)

    def __abs__(self):
        return Dyadic(abs(self.numerator), self.exponent)

    def _cmp_key(self, other):
        # a/2^e vs b/2^f  <=>  a * 2^f vs b * 2^e
        return (
            self.numerator << other.exponent,
            other.numerator << self.exponent,
        )

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            if isinstance(other, (Fraction, float)):
                return self.as_fraction() == other
            return NotImplemented
        left, right = self._cmp_key(coerced)
        return left == right

    def __lt__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        left, right = self._cmp_key(coerced)
        return left < right

    def __hash__(self):
        return hash(self.as_fraction())

    def __float__(self):
        return self.numerator / (1 << self.exponent)

    def __bool__(self):
        return self.numerator != 0

    def __str__(self):
        return f"{self.numerator}/2^{self.exponent}"

    def __repr__(self):
        return f"Dyadic({self.numerator}, {self.exponent})"

