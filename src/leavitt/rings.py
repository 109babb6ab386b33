"""Exact coefficient rings: arbitrary-precision integers, rationals, and Z/m.

Scalars are plain Python values (int or Fraction); a ring object supplies
coercion, arithmetic, parsing and rendering. All arithmetic is exact.

Ring elements in, ring elements out: ``add``, ``neg`` and ``mul`` do not
coerce. ``coerce`` (and ``from_pair`` for fractions) runs once, at the
boundary where an outside scalar enters.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "INTEGERS",
    "RATIONALS",
    "CoefficientRing",
    "IntegerModRing",
    "IntegerRing",
    "RationalRing",
    "RingError",
    "parse_ring",
]


class RingError(ValueError):
    """Raised for scalars that do not belong to the ring."""


class CoefficientRing:
    """A coefficient ring. ``add``, ``neg`` and ``mul`` take ring elements
    (what ``coerce``, ``from_pair``, ``zero`` and ``one`` give) and return
    one, uncoerced: the plain operations are closed on int (Z) and Fraction
    (Q), and Z/m reduces modulo m."""

    name = "?"
    zero = 0
    one = 1

    def coerce(self, value):
        raise NotImplementedError

    def from_pair(self, numerator, denominator):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def is_negative(self, a):
        """Whether the renderer should pull a minus sign out of the scalar;
        never for Z/m, whose scalars are residues 0..m-1."""
        return a < 0

    def magnitude(self, a):
        return -a if a < 0 else a

    def render(self, a):
        return str(a)

    def random_scalar(self, rng):
        """A small nonzero ring element, drawn from rng; each ring draws its
        own, and none needs ``coerce``."""
        return rng.choice([-3, -2, -1, 1, 2, 3])

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

    def random_scalar(self, rng):
        value = super().random_scalar(rng)
        return Fraction(value, rng.choice([2, 3])) if rng.random() < 0.5 else Fraction(value)


class IntegerModRing(CoefficientRing):
    """Integers modulo m, m >= 2; scalars are canonical residues 0..m-1."""

    def __init__(self, modulus):
        if not isinstance(modulus, int) or modulus < 2:
            raise RingError(f"modulus must be an integer >= 2, got {modulus!r}")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    def coerce(self, value):
        return INTEGERS.coerce(value) % self.modulus

    def from_pair(self, numerator, denominator):
        raise RingError(f"fractional scalars are not available in {self.name}")

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def random_scalar(self, rng):
        return rng.randrange(1, self.modulus)


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
        try:
            # int() itself refuses a modulus past the interpreter's digit limit
            modulus = int(m.group(1))
        except ValueError as exc:
            raise RingError(f"bad ring modulus: {exc}") from None
        return IntegerModRing(modulus)
    raise RingError(f"unknown ring {text!r} (expected z, q, or z/N)")
