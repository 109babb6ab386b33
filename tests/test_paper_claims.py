"""The paper's claims as properties over random graded graphs.

Claim 1: L_R(E) is nearly epsilon-strongly G-graded, for every graph E and
every ring R. For each nonzero homogeneous s of degree g, `local_units`
returns u = sum of x y over its left certificate, with x in S_g and y in
S_{g^-1}, and u' = sum of x y over its right certificate, with x in
S_{g^-1} and y in S_g, such that u.s = s = s.u'.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    INTEGERS,
    RATIONALS,
    Element,
    IntegerModRing,
    decompose,
    local_units,
    random_homogeneous,
)

from .test_path_table import graded_cases

RINGS = {"Z": INTEGERS, "Q": RATIONALS, "Z/3": IntegerModRing(3)}


def assert_certificate(certificate, unit, degree_map, gx, gy):
    """Each pair (x, y) has degrees (gx, gy), and the products sum to unit."""
    total = Element.zero(unit.graph, unit.ring)
    for x, y in certificate:
        assert (list(decompose(x, degree_map)), list(decompose(y, degree_map))) == ([gx], [gy])
        total = total + x * y
    assert total == unit


@settings(max_examples=200, deadline=None)
@given(
    case=graded_cases(),
    ring=st.sampled_from(sorted(RINGS)),
    bound=st.integers(0, 3),
    rng=st.randoms(use_true_random=False),
)
def test_claim_1_local_units_of_every_homogeneous_element(case, ring, bound, rng):
    degree_map, _ = case
    group = degree_map.group
    for _ in range(3):
        s = random_homogeneous(degree_map, RINGS[ring], rng, len_bound=bound)
        (g,) = decompose(s, degree_map)
        lu = local_units(s, degree_map)
        assert lu.degree == g
        assert lu.left * s == s == s * lu.right
        assert_certificate(lu.left_certificate, lu.left, degree_map, g, group.inverse(g))
        assert_certificate(lu.right_certificate, lu.right, degree_map, group.inverse(g), g)
