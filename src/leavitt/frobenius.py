"""Frobenius systems over the identity component for finite grading groups.

The trace is projection onto the identity degree, and the dual families are
the factorization certificates of the per-degree local identities: for each
group element the certificate pairs multiply back to that degree's local
identity, which reproduces any homogeneous element from either side. The
system is verified, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, _add_normal, _fold, _mono_product, _normal_pieces
from .epsilon import ConstructionError, _window_walk
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


def _in_identity_degree(degree_map):
    """The test the trace applies to a monomial: is its degree the identity?"""
    identity, degree_of = degree_map.group.identity, degree_map.degree_of
    return lambda m: degree_of(m) == identity


def projection_e(a, degree_map):
    """The identity-degree part of an element: its terms of that degree."""
    kept = _in_identity_degree(degree_map)
    return Element(a.graph, a.ring, {m: c for m, c in a.terms.items() if kept(m)})


def _sum(graph, ring, elements):
    """The sum of the elements, folded in order into one term map."""
    acc = {}
    for e in elements:
        for m, c in e.terms.items():
            _fold(ring, acc, m, c)
    return Element(graph, ring, acc)


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

    total = _sum(graph, ring, (x * y for x, y in pairs))
    eps_sum = _sum(graph, ring, epsilons.values())
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


def _reproduction(graph, ring, kept, pairs, s, left):
    """The term map of sum_j x_j E(y_j s) when left, else of
    sum_j E(s x_j) y_j, folded term by term with no element per pair.

    Each product of a term of the inner factors (y_j then s, or s then
    x_j) is cut into its normal pieces; a piece outside the identity degree
    is dropped, which is the trace E, and each kept piece is multiplied by
    every term of the outer factor (x_j on the left, y_j on the right) and
    folded, in normal form, into one map. Coefficients multiply as in the
    definition, c_x (c_y c_s) and (c_s c_x) c_y, negated with the piece.
    """
    mul, neg, is_zero = ring.mul, ring.neg, ring.is_zero
    acc = {}
    sample = s.terms.items()
    for x, y in pairs:
        if left:
            first, second, outer = y.terms.items(), sample, x.terms.items()
        else:
            first, second, outer = sample, x.terms.items(), y.terms.items()
        for m1, c1 in first:
            for m2, c2 in second:
                m = _mono_product(m1, m2)
                if m is None:
                    continue
                c = mul(c1, c2)
                if is_zero(c):
                    continue
                for piece, sign in _normal_pieces(graph, m):
                    if not kept(piece):
                        continue
                    cp = c if sign > 0 else neg(c)
                    for mo, co in outer:
                        p = _mono_product(mo, piece) if left else _mono_product(piece, mo)
                        if p is not None:
                            d = mul(co, cp) if left else mul(cp, co)
                            if not is_zero(d):
                                _add_normal(graph, ring, acc, p, d)
    return acc


def verify_frobenius(system, samples, bimodule_triples=(), seed=None):
    """Check both reproduction identities on every sample, and the trace
    bimodule law on every (t, a, t') triple with t, t' of identity degree.

    Each side's sum is one fold of term products into one term map
    (``_reproduction``), and it equals the definition exactly: a product
    of elements is the sum of its term products, E keeps the normal terms
    of the identity degree, and the fold is exact addition, so pieces that
    would cancel inside E(y_j s) or E(s x_j) cancel in the side's map
    instead. Every monomial product of the definition is computed; two
    kept pieces of one pair that coincide, which a built system's minimal
    classes rule out for samples within its bound, are each multiplied,
    where the definition multiplies their sum once. Each sample is
    compared with both sums. A sample over another graph or ring raises
    ValueError.

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

    checked = 0
    kept, pairs = _in_identity_degree(dm), system.pairs
    zero = Element.zero(graph, ring)
    for s in samples:
        zero._compatible(s)
        left = Element(graph, ring, _reproduction(graph, ring, kept, pairs, s, True))
        right = Element(graph, ring, _reproduction(graph, ring, kept, pairs, s, False))
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
