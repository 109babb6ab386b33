"""Frobenius systems over the identity component for finite grading groups.

The trace is projection onto the identity degree, and the dual families are
the factorization certificates of the per-degree local identities: for each
group element the certificate pairs multiply back to that degree's local
identity, which reproduces any homogeneous element from either side. The
system is verified, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, _add_products
from .epsilon import ConstructionError, _window_walk
from .grading import _degree_buckets
from .reports import Report
from .rings import INTEGERS

__all__ = [
    "EpsilonUnavailableError",
    "FrobeniusBuildError",
    "FrobeniusSystem",
    "build_frobenius_system",
    "projection_e",
    "verify_frobenius",
]


class FrobeniusBuildError(ValueError):
    """The system cannot be assembled; carries the blocking reason."""


class EpsilonUnavailableError(FrobeniusBuildError):
    """Some degree's local identity is unavailable at the bound, so the
    system is undecided there rather than impossible."""


@dataclass(frozen=True)
class FrobeniusSystem:
    degree_map: object
    ring: object
    bound_used: int
    pairs: tuple  # ((x_j, y_j), ...) with x_j, y_j homogeneous of inverse degrees
    epsilons: dict  # group element -> Element

    def trace(self, a):
        return projection_e(a, self.degree_map)


def projection_e(a, degree_map):
    """The identity-degree part of an element: its terms of that degree."""
    identity, degree_of = degree_map.group.identity, degree_map.degree_of
    return Element(a.graph, a.ring, {m: c for m, c in a.terms.items() if degree_of(m) == identity})


def build_frobenius_system(degree_map, len_bound, ring=INTEGERS):
    """Assemble the dual pairs from every degree's local-identity certificate.

    Requires a finite group and an unflagged graph; any degree whose local
    identity is unavailable aborts the build with that degree's reason: the
    walk over the group's degrees stops at the first that is not PRESENT.
    Each degree's unit is the checked candidate of ``epsilon()``, without
    the listing of X_g that only counts ``identity_checked_on``.
    """
    group = degree_map.group
    graph = degree_map.graph
    if not group.is_finite:
        raise FrobeniusBuildError(f"group {group.name} is not finite")
    if graph.infinite_emitters:
        raise FrobeniusBuildError("graph has flagged infinite emitters")
    pairs = []
    epsilons = {}
    _, reps = _window_walk(degree_map, group.elements(), len_bound, ring)
    for rep in reps:
        if not rep.present:
            raise EpsilonUnavailableError(
                f"local identity at degree {group.render(rep.degree)} unavailable: {rep.absent_reason}"
            )
        epsilons[rep.degree] = rep.epsilon
        pairs.extend(rep.certificate)

    acc = {}
    for x, y in pairs:
        _add_products(graph, ring, acc, x.terms.items(), y.terms.items())
    total = Element(graph, ring, acc)
    eps_sum = sum(epsilons.values(), Element.zero(graph, ring))
    if total != eps_sum:
        raise ConstructionError(
            f"pair products {total} do not sum to the local identities {eps_sum}"
        )
    return FrobeniusSystem(
        degree_map=degree_map,
        ring=ring,
        bound_used=len_bound,
        pairs=tuple(pairs),
        epsilons=epsilons,
    )


def _reproduction(graph, ring, pairs, buckets, left):
    """The term map of sum_j x_j E(y_j s) when left, else of
    sum_j E(s x_j) y_j, for the sample s whose terms ``buckets`` holds by
    degree; ``pairs`` holds each pair as (x_j, y_j, x_buckets, y_buckets),
    the terms of each factor bucketed by the inverse of their degree.

    L_R(E) is G-graded, so the product of terms of degrees a and b is
    homogeneous of degree a b, and so are the normal pieces of its rewrite.
    E drops such a product whole unless a b = e, that is unless b = a^-1,
    which also reads b a = e in any group. So the terms of the inner pair
    factor (y_j on the left, x_j on the right) of degree a meet only the
    sample terms in the bucket of a^-1, and each product formed is kept
    whole: no degree of a product or piece is tested. The argument rests on
    the grading axiom, which ``check_grading_axiom`` tests.

    The kept products of a pair are folded in normal form into one map,
    which is E(y_j s) or E(s x_j) exactly, and that map is multiplied once
    by the outer factor (x_j on the left, y_j on the right) into the side's
    map, every product through ``_add_products`` in the definition's order.
    Coefficients multiply as in the definition, c_x (c_y c_s) and
    (c_s c_x) c_y, each summed over the pair's inner products before the
    outer product, which distributes.
    """
    acc = {}
    for x, y, x_buckets, y_buckets in pairs:
        inner = {}
        for inv, terms in (y_buckets if left else x_buckets).items():
            sample = buckets.get(inv)
            if sample:
                if left:
                    _add_products(graph, ring, inner, terms.items(), sample.items())
                else:
                    _add_products(graph, ring, inner, sample.items(), terms.items())
        if inner:
            if left:
                _add_products(graph, ring, acc, x.terms.items(), inner.items())
            else:
                _add_products(graph, ring, acc, inner.items(), y.terms.items())
    return acc


def verify_frobenius(system, samples, bimodule_triples=(), seed=None):
    """Check both reproduction identities on every sample, and the trace
    bimodule law on every (t, a, t') triple with t, t' of identity degree.

    Each side's sum is one fold into one term map (``_reproduction``), and
    it equals the definition exactly. The degree of every pair term is read
    once per call, and each sample's terms are bucketed by degree once,
    for both sides. A product of terms of degrees a and b with a b != e is
    homogeneous outside e, so E drops it whole; the fold forms only the
    products with a b = e, folds each pair's into one map, which is
    E(y_j s) or E(s x_j), and multiplies that by the outer factor. This
    rests on the grading axiom, which ``check_grading_axiom`` tests. Each
    sample is compared with both sums. The bimodule law is checked in full,
    with ``projection_e`` of the whole product t a t'. A sample over
    another graph or ring raises ValueError.

    Returns PASS or the first counterexample.
    """
    dm = system.degree_map
    graph, ring = dm.graph, system.ring
    group = dm.group
    fields = {
        "group": group.name,
        "bound": system.bound_used,
        "pairs": len(system.pairs),
    }
    if seed is not None:
        fields["seed"] = seed

    def by_inverse_degree(e):
        return _degree_buckets(e, lambda m: group.inverse(dm.degree_of(m)))

    checked = 0
    pairs = tuple((x, y, by_inverse_degree(x), by_inverse_degree(y)) for x, y in system.pairs)
    zero = Element.zero(graph, ring)
    for s in samples:
        zero._compatible(s)
        buckets = _degree_buckets(s, dm.degree_of)
        left = Element(graph, ring, _reproduction(graph, ring, pairs, buckets, True))
        right = Element(graph, ring, _reproduction(graph, ring, pairs, buckets, False))
        if left != s or right != s:
            which = "x_j E(y_j s)" if left != s else "E(s x_j) y_j"
            fields["witness"] = {
                "element": str(s),
                "identity": which,
                "reconstructed": str(left if left != s else right),
            }
            return Report("frobenius-verification", "FAIL", fields)
        checked += 1
    fields["samples-verified"] = checked

    triples_checked = 0
    for t, a, t2 in bimodule_triples:
        for side in (t, t2):
            if projection_e(side, dm) != side:
                raise ValueError("bimodule factors must have identity degree")
        if projection_e(t * a * t2, dm) != t * projection_e(a, dm) * t2:
            fields["witness"] = {
                "law": "E(t a t')",
                "t": str(t),
                "a": str(a),
                "t2": str(t2),
            }
            return Report("frobenius-verification", "FAIL", fields)
        triples_checked += 1
    fields["bimodule-triples-verified"] = triples_checked
    return Report("frobenius-verification", "PASS", fields)
