"""Exact coefficient rings: arbitrary-precision integers, rationals, and Z/m.

Scalars are plain Python values (int or Fraction); a ring object supplies
coercion, arithmetic, parsing and rendering. All arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction


class RingError(ValueError):
    """Raised for scalars that do not belong to the ring."""


class CoefficientRing:
    name = "?"
    zero = 0
    one = 1

    def coerce(self, value):
        raise NotImplementedError

    def from_pair(self, numerator, denominator):
        raise NotImplementedError

    def add(self, a, b):
        return self.coerce(a + b)

    def neg(self, a):
        return self.coerce(-a)

    def mul(self, a, b):
        return self.coerce(a * b)

    def is_zero(self, a):
        return a == 0

    def is_negative(self, a):
        """Whether the renderer should pull a minus sign out of the scalar."""
        return False

    def magnitude(self, a):
        return a

    def render(self, a):
        return str(a)

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"

    def __eq__(self, other):
        # identity first: every product compares the rings of its factors
        return self is other or (type(self) is type(other) and self.name == other.name)

    def __hash__(self):
        return hash((type(self), self.name))


class IntegerRing(CoefficientRing):
    name = "Z"

    def coerce(self, value):
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise RingError(f"{value!r} is not an integer scalar")

    def from_pair(self, numerator, denominator):
        if denominator == 0:
            raise RingError("zero denominator")
        if numerator % denominator:
            raise RingError(f"{numerator}/{denominator} is not an integer")
        return numerator // denominator

    def is_negative(self, a):
        return a < 0

    def magnitude(self, a):
        return -a if a < 0 else a


class RationalRing(CoefficientRing):
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise RingError(f"{value!r} is not a rational scalar")

    def from_pair(self, numerator, denominator):
        if denominator == 0:
            raise RingError("zero denominator")
        return Fraction(numerator, denominator)

    def is_negative(self, a):
        return a < 0

    def magnitude(self, a):
        return -a if a < 0 else a


class IntegerModRing(CoefficientRing):
    """Integers modulo m, m >= 2; scalars are canonical residues 0..m-1."""

    def __init__(self, modulus):
        if not isinstance(modulus, int) or modulus < 2:
            raise RingError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    def coerce(self, value):
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"{value!r} is not an integer scalar")
            value = int(value)
        if isinstance(value, int):
            return value % self.modulus
        raise RingError(f"{value!r} is not an integer scalar")

    def from_pair(self, numerator, denominator):
        raise RingError(f"fractional scalars are not available in {self.name}")


INTEGERS = IntegerRing()
RATIONALS = RationalRing()

_MOD_RE = re.compile(r"^z/(\d+)$", re.IGNORECASE)


def parse_ring(text):
    """Ring from a command-line spec: ``z``, ``q``, or ``z/N``."""
    spec = text.strip()
    if spec.lower() == "z":
        return INTEGERS
    if spec.lower() == "q":
        return RATIONALS
    m = _MOD_RE.match(spec)
    if m:
        return IntegerModRing(int(m.group(1)))
    raise RingError(f"unknown ring {text!r} (expected z, q, or z/N)")
