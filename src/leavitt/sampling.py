"""Seeded pseudorandom elements for verification suites.

Everything takes an explicit random.Random so runs are reproducible from a
recorded seed. The population a sampler draws from is built once per owner
and reused, through the weak-keyed memo of ``leavitt.grading``: X_g and the
realized degrees per DegreeMap, degree and bound, the list of all monomials
per Graph and bound. Reuse keeps the population order, so seeded draws are
the same as when every call rebuilt it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, enumerate_monomials
from .epsilon import HomogeneityError
from .grading import _memo, enumerate_Xg
from .rings import IntegerModRing, RationalRing

# The most monomials in one random element.
MAX_SUPPORT = 4


def random_scalar(ring, rng):
    """A small nonzero scalar of the ring."""
    if isinstance(ring, IntegerModRing):
        return rng.randrange(1, ring.modulus)
    value = rng.choice([-3, -2, -1, 1, 2, 3])
    if isinstance(ring, RationalRing) and rng.random() < 0.5:
        return Fraction(value, rng.choice([2, 3]))
    return value


def random_element(graph, ring, rng, len_bound=3):
    """A random element with bounded support; may be zero."""
    monos = _memo(graph, ("monomials", len_bound), lambda: enumerate_monomials(graph, len_bound))
    if not monos:
        return Element.zero(graph, ring)
    return _random_combination(graph, ring, rng, monos, 0)


def realized_degrees(degree_map, len_bound):
    """Degrees with at least one monomial within the bound, sorted.

    Any two paths a, b with a common range give one: when a b* is not
    normal, dropping the shared final edge keeps the degree, so reducing
    ends at a normal monomial within the bound.
    """
    group = degree_map.group
    keys = degree_map.path_table(len_bound).levels
    degs = {group.op(d, group.inverse(e)) for v, d in keys for w, e in keys if v == w}
    return sorted(degs, key=group.sort_key)


def random_homogeneous(degree_map, ring, rng, degree=None, len_bound=3):
    """A random nonzero homogeneous element; picks a realized degree if none
    is given. Distinct normal monomials with nonzero coefficients never
    cancel, so the result is always nonzero."""
    if degree is None:
        options = _memo(
            degree_map, ("degrees", len_bound), lambda: realized_degrees(degree_map, len_bound)
        )
        if not options:
            raise HomogeneityError(f"no monomials within bound {len_bound}")
        degree = options[rng.randrange(len(options))]
    monos = _memo(
        degree_map, ("Xg", degree, len_bound), lambda: enumerate_Xg(degree, degree_map, len_bound)
    )
    if not monos:
        raise HomogeneityError(
            f"no monomials of degree {degree_map.group.render(degree)} within bound {len_bound}"
        )
    return _random_combination(degree_map.graph, ring, rng, monos, 1)


def _random_combination(graph, ring, rng, monos, least):
    """Between least and MAX_SUPPORT distinct monomials of monos, each with a
    random nonzero scalar."""
    k = rng.randint(least, min(MAX_SUPPORT, len(monos)))
    picks = rng.sample(monos, k)
    return Element.from_terms(graph, ring, [(m, random_scalar(ring, rng)) for m in picks])
