import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import INTEGERS, RATIONALS, IntegerModRing, RingError, parse_ring


def test_parse_ring():
    assert parse_ring("z") is INTEGERS
    assert parse_ring("Q") is RATIONALS
    assert parse_ring("z/7") == IntegerModRing(7)
    with pytest.raises(RingError):
        parse_ring("gf(4)")
    with pytest.raises(RingError):
        parse_ring("z/1")


def test_integer_ring():
    r = INTEGERS
    assert r.coerce(Fraction(4, 2)) == 2
    assert r.from_pair(6, 3) == 2
    with pytest.raises(RingError):
        r.from_pair(1, 2)
    assert r.is_negative(-5) and not r.is_negative(5)
    assert r.magnitude(-5) == 5


def test_rational_ring():
    r = RATIONALS
    assert r.from_pair(3, 2) == Fraction(3, 2)
    assert r.render(Fraction(3, 2)) == "3/2"
    assert r.render(Fraction(4, 2)) == "2"
    with pytest.raises(RingError):
        r.from_pair(1, 0)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
def test_a_modulus_past_the_digit_limit_is_a_ring_error():
    with pytest.raises(RingError, match="^bad ring modulus: "):
        parse_ring("z/" + "1" * (sys.get_int_max_str_digits() + 1))


def test_mod_ring():
    r = IntegerModRing(5)
    assert r.coerce(-1) == 4
    assert r.add(3, 4) == 2
    assert r.mul(2, 3) == 1
    assert not r.is_negative(4)
    with pytest.raises(RingError):
        r.from_pair(1, 2)
    with pytest.raises(RingError):
        IntegerModRing(1)
    assert IntegerModRing(5) == IntegerModRing(5)
    assert IntegerModRing(5) != IntegerModRing(7)


CONTRACT_RINGS = {
    "z": INTEGERS,
    "q": RATIONALS,
    "z/2": IntegerModRing(2),
    "z/4": IntegerModRing(4),
    "z/6": IntegerModRing(6),
    "z/7": IntegerModRing(7),
}


def _is_ring_element(ring, value):
    """An exact type check: an int residue 0..m-1 for Z/m, a Fraction for
    Q, an int for Z (bool is not a ring element)."""
    if ring is RATIONALS:
        return type(value) is Fraction
    if type(value) is not int:
        return False
    return ring is INTEGERS or 0 <= value < ring.modulus


@pytest.mark.parametrize("name", sorted(CONTRACT_RINGS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_arithmetic_takes_and_returns_ring_elements(name, data):
    """add, neg and mul do not coerce, so on coerced inputs each must equal
    coerce of the raw operation and already be a ring element itself."""
    ring = CONTRACT_RINGS[name]
    raw = st.fractions(max_denominator=9) if ring is RATIONALS else st.integers(-10**12, 10**12)
    a, b = (ring.coerce(data.draw(raw)) for _ in range(2))
    for got, want in (
        (ring.add(a, b), ring.coerce(a + b)),
        (ring.neg(a), ring.coerce(-a)),
        (ring.mul(a, b), ring.coerce(a * b)),
    ):
        assert got == want
        assert _is_ring_element(ring, got), (name, got)


@pytest.mark.parametrize("name", sorted(CONTRACT_RINGS))
def test_random_scalars_are_nonzero_ring_elements(name):
    """A drawn scalar enters term maps with no coerce, so it must already be
    its own coerce, in value and in type, and nonzero."""
    ring = CONTRACT_RINGS[name]
    for seed in range(1000):
        x = ring.random_scalar(random.Random(seed))
        y = ring.coerce(x)
        assert (type(x), x) == (type(y), y), (name, seed)
        assert _is_ring_element(ring, x) and not ring.is_zero(x), (name, seed)


# (value, (type, value) or error text) per ring, as the rings gave them when
# IntegerModRing kept its own Fraction and int branches
COERCIONS = {
    "z": [
        (4, (int, 4)),
        (-7, (int, -7)),
        (True, (bool, True)),
        (Fraction(3, 1), (int, 3)),
        (Fraction(3, 2), "Fraction(3, 2) is not an integer scalar"),
        (1.5, "1.5 is not an integer scalar"),
        ("3", "'3' is not an integer scalar"),
    ],
    "q": [
        (4, (Fraction, Fraction(4))),
        (-7, (Fraction, Fraction(-7))),
        (True, (Fraction, Fraction(1))),
        (Fraction(3, 1), (Fraction, Fraction(3))),
        (Fraction(3, 2), (Fraction, Fraction(3, 2))),
        (1.5, "1.5 is not a rational scalar"),
        ("3", "'3' is not a rational scalar"),
    ],
    "z/6": [
        (4, (int, 4)),
        (-7, (int, 5)),
        (True, (int, 1)),
        (Fraction(3, 1), (int, 3)),
        (Fraction(-9, 1), (int, 3)),
        (Fraction(3, 2), "Fraction(3, 2) is not an integer scalar"),
        (1.5, "1.5 is not an integer scalar"),
        ("3", "'3' is not an integer scalar"),
    ],
}


@pytest.mark.parametrize("name", sorted(COERCIONS))
def test_coerce_gives_each_value_its_type_or_error_text(name):
    ring = CONTRACT_RINGS[name]
    for value, expected in COERCIONS[name]:
        if isinstance(expected, str):
            with pytest.raises(RingError) as info:
                ring.coerce(value)
            assert str(info.value) == expected, (name, value)
        else:
            got = ring.coerce(value)
            assert (type(got), got) == expected, (name, value)
