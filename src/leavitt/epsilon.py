"""Minimal classes, local identities and the constructive grading checkers.

Monomials of one degree fall into classes keyed by their real paths, and
n(x) = x x* depends only on the class. A path is realized in a degree when it
is the real path of a monomial of that degree; the minimal classes are the
realized paths none of whose proper prefixes is realized.

For a finite graph the minimal classes of each degree are finite, and the sum
of their n-values is a two-sided local identity for that degree, checked on
its certificate, the (a b*, b a*) pair of each class a b*; the same
construction on an element's own support yields element-specific local units.
Claim 1, that L_R(E) is nearly epsilon-strongly graded for every graph and
every ring, is proved this way for each element checked, with no bound
(`local_units`). Each degree has one verdict, `EpsilonReport.verdict`
(PRESENT, ABSENT or UNDETERMINED), which every checker reads. The checkers
below turn these constructions, plus the structural sink criterion for strong
gradings, into verdicts with explicit certificates and witnesses.

A bounded enumeration is declared complete when every path of length equal to
the bound extends some minimal class found within the bound. That does not
prove that no other class is minimal: a path counts as realized only when its
partner also lies within the bound, so a class whose partner lies beyond it is
missed. The `known-wrong` CLI goldens `epsilon-loop-exit-b1`,
`epsilon-two-tails`, `epsilon-z4-loop` (a wrong epsilon) and `frobenius-s3` (a
wrong pair count) are `complete` this way and exit 0; ROADMAP item 1A plans an
exact decider. Two minimal classes that differ only in which sample edge of
one flagged vertex they use certify an infinite minimal set, since each of the
infinitely many parallel edges yields an incomparable class of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .algebra import Element, Monomial, _fold, _normal_pieces, enumerate_monomials
from .graph import is_initial_subpath
from .grading import _memo, count_Xg, enumerate_Xg
from .reports import Report
from .rings import INTEGERS

__all__ = [
    "ConstructionError",
    "EpsilonReport",
    "HomogeneityError",
    "LocalUnitPair",
    "MinimalClassSet",
    "WindowError",
    "check_epsilon_strong",
    "check_nearly_epsilon",
    "check_nondegenerate",
    "check_strongly_graded",
    "check_symmetric",
    "epsilon",
    "local_units",
    "minimal_classes",
    "nmap",
]


class WindowError(ValueError):
    """A degree window missing the identity or not closed under inverse."""


class HomogeneityError(ValueError):
    """An element that must be nonzero homogeneous is not, or none exists."""


class ConstructionError(RuntimeError):
    """A construction whose verification cannot fail did fail; a bug."""


@dataclass(frozen=True)
class MinimalClassSet:
    degree: object
    classes: tuple  # one representative Monomial per class, keyed by its real path
    bound_used: int
    verdict: str  # complete | bound-exhausted | infinite-witness
    witness: tuple = None


# the degree verdict of each minimal-class verdict; any other is UNDETERMINED
_DEGREE_VERDICTS = {"complete": "PRESENT", "infinite-witness": "ABSENT"}


@dataclass(frozen=True)
class EpsilonReport:
    degree: object
    degree_map: object
    bound_used: int
    epsilon: object  # Element or None
    identity_checked_on: int
    minimal: MinimalClassSet
    certificate: tuple = None  # the checked (a b*, b a*) pair of each class a b*, or None

    @property
    def present(self):
        return self.epsilon is not None

    @property
    def verdict(self):
        """The degree's one verdict, which every checker reads: PRESENT when
        the minimal classes are complete, ABSENT only when an infinite
        minimal set proves it, and UNDETERMINED otherwise."""
        return _DEGREE_VERDICTS.get(self.minimal.verdict, "UNDETERMINED")

    @property
    def absent_reason(self):
        """Why there is no local identity; None when there is one."""
        if self.verdict == "PRESENT":
            return None
        if self.verdict == "ABSENT":
            return "infinite minimal set"
        return f"undetermined at bound {self.bound_used}"

    def to_report(self):
        """The report of the degree's verdict; its text is the local
        identity, or the verdict and the reason."""
        group = self.degree_map.group
        fields = {
            "degree": group.render(self.degree),
            "bound": self.bound_used,
            "minimal-verdict": self.minimal.verdict,
            "minimal-classes": [c.render() for c in self.minimal.classes],
        }
        verdict = self.verdict
        if self.present:
            fields["epsilon"] = str(self.epsilon)
            fields["certificate"] = [[str(x), str(y)] for x, y in self.certificate]
            fields["identity-checked-on"] = self.identity_checked_on
            lines = [fields["epsilon"]]
        else:
            fields["reason"] = self.absent_reason
            lines = [f"{verdict}: {self.absent_reason}"]
            if self.minimal.witness:
                fields["witness"] = [c.render() for c in self.minimal.witness]
                lines.append(f"witness: {', '.join(fields['witness'])}")
        lines.append(f"bound: {self.bound_used}")
        return Report("epsilon-report", verdict, fields, lines)


@dataclass(frozen=True)
class LocalUnitPair:
    """Element-specific local units: left acts as identity from the left,
    right from the right, both verified exactly at construction."""

    element: object
    degree: object
    left: object
    right: object
    left_classes: tuple  # one representative Monomial per minimal class
    right_classes: tuple  # the same, over the adjoint's support

    @property
    def left_certificate(self):
        return _certificate(self.element.graph, self.element.ring, self.left_classes)

    @property
    def right_certificate(self):
        return _certificate(self.element.graph, self.element.ring, self.right_classes)


def nmap(graph, ring, x):
    """n(x) = x x*; collapses to the normal form of (alpha, alpha)."""
    return _local_unit(graph, ring, [x])


def minimal_classes(g, degree_map, len_bound):
    """The minimal classes of the degree-g monomial set, within the bound.

    A path is realized when some second path of matching range and degree
    exists within the bound; minimal classes are realized paths none of
    whose proper prefixes is realized. The verdict is complete when every
    path of length len_bound has a realized prefix. Realized is tested
    only against partners within the bound, so a class whose partner lies
    beyond it is missed and `complete` is not a proof; the module docstring
    names the goldens where this gives a wrong class set.

    The path tree is descended level by level from the vertices, through
    the ``children`` column of the path table, and a path's children are
    visited only when it is not realized, so no path past a class is read.
    A visited path's partner is ``first`` of its partner key, the first
    path under that key in table order, and the path is realized when it
    has one. No path is built or hashed. The realized paths are sorted by
    table position once, at the end, so the classes come out in table
    order.
    """
    if len_bound < 1:
        raise ValueError("len_bound must be >= 1")
    graph = degree_map.graph
    table = degree_map.path_table(len_bound)
    paths, keys, children, first = table.paths, table.key, table.children, table.first
    group = table.group
    op, ginv = group.op, group.inverse(group.check(g))

    realized, unrealized = [], []
    level = range(len(graph.vertices))
    while level:
        unrealized = []
        for i in level:
            vid, d = keys[i]
            beta = first.get((vid, op(ginv, d)))
            if beta is None:
                unrealized.append(i)
            else:
                realized.append((i, beta))
        level = [c for i in unrealized for c in children[i]]
    # the descent ends below the bound only at unrealized sinks
    frontier_ok = not unrealized or paths[unrealized[0]].length < len_bound
    classes = [Monomial._same_range(paths[i], beta) for i, beta in sorted(realized)]

    witness = _sibling_witness(graph, classes)
    if witness is not None:
        verdict = "infinite-witness"
    elif frontier_ok:
        verdict = "complete"
    else:
        verdict = "bound-exhausted"
    return MinimalClassSet(
        degree=g,
        classes=tuple(classes),
        bound_used=len_bound,
        verdict=verdict,
        witness=witness,
    )


def _sibling_witness(graph, classes):
    """Two minimal classes differing only by sample edges of one flagged vertex."""
    if not graph.infinite_emitters:
        return None
    for ca, cb in combinations(classes, 2):
        a, b = ca.alpha, cb.alpha
        if a.length != b.length:
            continue
        diff = [(x, y) for x, y in zip(a.edges, b.edges) if x != y]
        if len(diff) != 1:
            continue
        ((ea, eb),) = diff
        if ea.source == eb.source and ea.source in graph.infinite_emitters:
            return (ca, cb)
    return None


def _local_unit(graph, ring, representatives):
    """The sum of n(rep) = a a* over the representatives' real paths a.

    The normal form of a a* does not depend on the ring: it is a a* itself,
    or its rewrite terms when a ends in a designated edge. The graph keeps
    those signed pieces per real path, in a dict kept by ``_memo``, so each
    path is rewritten once per graph, and each unit folds its paths' pieces
    with the ring's one and minus one into one term map."""
    pieces = _memo(graph, "n-pieces", dict)
    one = ring.one
    minus_one = ring.neg(one)
    acc = {}
    for rep in representatives:
        a = rep.alpha
        n = pieces.get(a)
        if n is None:
            n = pieces[a] = _normal_pieces(graph, Monomial._same_range(a, a))
        for m, sign in n:
            _fold(ring, acc, m, one if sign > 0 else minus_one)
    return Element(graph, ring, acc)


def _certificate(graph, ring, representatives):
    """The (rep, rep*) pair of each representative, in order, as one-term
    elements with no normalizing pass. A support term is normal, and so is
    its swap; so is a class a b*, since were a = a'f and b = b'f for a
    designated edge f, a' would be realized by b' and a not minimal."""
    one = ring.one
    return tuple(
        (Element(graph, ring, {rep: one}), Element(graph, ring, {rep.involution(): one}))
        for rep in representatives
    )


def _candidate(g, degree_map, len_bound, ring):
    """The report of the degree-g local identity, built once.

    When the minimal classes give PRESENT the identity is the sum of n over
    the classes, and its certificate, the (a b*, b a*) pair of each class,
    is built once and stored. The identity is checked exactly on those
    pairs: e.x = x for each x = a b* and y.e = y for each y = b a*, one
    product each. Otherwise the report holds no identity and says why.
    identity_checked_on is 0; only epsilon() counts the monomials."""
    mcs = minimal_classes(g, degree_map, len_bound)
    if _DEGREE_VERDICTS.get(mcs.verdict) != "PRESENT":
        return EpsilonReport(g, degree_map, len_bound, None, 0, mcs)
    eps = _local_unit(degree_map.graph, ring, mcs.classes)
    pairs = _certificate(degree_map.graph, ring, mcs.classes)
    _check_unit(eps, "left", [x for x, _ in pairs])
    _check_unit(eps, "right", [y for _, y in pairs])
    return EpsilonReport(g, degree_map, len_bound, eps, 0, mcs, pairs)


def epsilon(g, degree_map, len_bound, ring=INTEGERS):
    """The degree-g local identity, with certificate and identity checks.

    When the minimal classes are complete the local identity is
    e = sum of a a* over the classes a b*, and two exact products per class,
    e.(a b*) = a b* and (b a*).e = b a* on its certificate pair, prove that
    e fixes every degree-g monomial from the left and every monomial of
    the inverse degree from the right:

    - Since b* b = r(a), the pair checks hold exactly when e.a = a and
      a*.e = a*. The classes are pairwise incomparable, none a prefix of
      another, so a'* a = 0 for a' != a and e.a = a a* a = a.
    - A real path a' of a monomial a' b'* of degree g is realized, so its
      shortest realized prefix is a class a, and a' = a.t. Then
      e.(a' b'*) = (e.a).t.b'* = a' b'*.
    - For c d* of degree g^-1 the path d is realized with partner c, so
      d = a.t for a class a, and (c d*).e = c.t*.(a*.e) = c d*.

    The argument uses only CK1, so it holds at every bound and for flagged
    graphs; a failed product is a defect of the engine and raises
    ConstructionError. identity_checked_on counts the monomials of both
    degrees within the bound, all of which the proof covers. An empty
    monomial set yields zero, reported as present.
    """
    rep = _candidate(g, degree_map, len_bound, ring)
    if not rep.present:
        return rep
    ginv = degree_map.group.inverse(g)
    checked = len(enumerate_Xg(g, degree_map, len_bound))
    checked += len(enumerate_Xg(ginv, degree_map, len_bound))
    return replace(rep, identity_checked_on=checked)


def _check_unit(unit, side, elements):
    """ConstructionError on the first element unit does not fix from side."""
    for e in elements:
        if (unit * e if side == "left" else e * unit) != e:
            raise ConstructionError(f"{side} unit failed on {e}")


def _one_sided_unit(s, side):
    """The checked unit fixing s from one side, and its representatives:
    local_units' sum over s's support, or over the adjoint's, which is the
    swapped support since swapping keeps a monomial normal. One pass in
    (real path, ghost path) order keeps a monomial unless a kept real path
    is an initial subpath of its own, an equal one included, so each real
    path keeps its least ghost path. A proper prefix is shorter and sorts
    first, and by transitivity a path with a realized proper prefix has a
    kept one, so the kept real paths are the minimal ones, in order."""
    monos = s.terms if side == "left" else [m.involution() for m in s.terms]
    reps = []
    for m in sorted(monos, key=lambda m: (m.alpha.sort_key(), m.beta.sort_key())):
        if not any(is_initial_subpath(r.alpha, m.alpha) for r in reps):
            reps.append(m)
    unit = _local_unit(s.graph, s.ring, reps)
    _check_unit(unit, side, [s])
    return unit, tuple(reps)


def local_units(s, degree_map):
    """Checked local units of a nonzero homogeneous s of degree g: claim 1 for s.

    Let u be the sum of a a* over the minimal real paths a of s's support.
    The a are pairwise incomparable, so u.a = a. Every real path of the
    support extends some a, so u.s = s. Each a is the real path of a
    support monomial a b* of degree g, so a a* = (a b*)(b a*) lies in
    S_g S_{g^-1}. The right unit is the same argument on the adjoint. Only
    CK1 and the finite support enter, so no bound does, and the proof holds
    for flagged graphs and every ring.
    """
    if s.is_zero():
        raise HomogeneityError("the zero element has no local units")
    degrees = {degree_map.degree_of(m) for m in s.terms}
    if len(degrees) != 1:
        raise HomogeneityError("element is not homogeneous")
    (g,) = degrees
    left, left_classes = _one_sided_unit(s, "left")
    right, right_classes = _one_sided_unit(s, "right")
    return LocalUnitPair(s, g, left, right, left_classes, right_classes)


def check_symmetric(degree_map, len_bound, ring=INTEGERS):
    """Verify m = m m* m for every monomial within the bound."""
    graph = degree_map.graph
    monos = enumerate_monomials(graph, len_bound)
    for m in monos:
        em = Element.monomial(graph, ring, m)
        if em * em.involution() * em != em:
            return Report(
                kind="symmetric-grading-check",
                verdict="FAIL",
                fields={"bound": len_bound, "witness": m.render()},
            )
    return Report(
        kind="symmetric-grading-check",
        verdict="PASS",
        fields={"bound": len_bound, "monomials-checked": len(monos)},
    )


def _validate_window(group, window):
    seen = {group.check(g) for g in window}
    if not seen:
        raise WindowError("degree window must be nonempty")
    if group.identity not in seen:
        raise WindowError("degree window must contain the identity")
    for g in seen:
        if group.inverse(g) not in seen:
            raise WindowError("degree window must be closed under inverse")
    return sorted(seen, key=group.sort_key)


def _window_walk(degree_map, degree_window, len_bound, ring):
    """The validated window in group order, and a generator of its degrees'
    checked candidates in that order: the one walk that epsilon-strong,
    strongly-graded and frobenius read, each with its own stop rule."""
    window = _validate_window(degree_map.group, degree_window)
    return window, (_candidate(g, degree_map, len_bound, ring) for g in window)


def check_epsilon_strong(degree_map, degree_window, len_bound, ring=INTEGERS):
    """Run the local-identity construction over a degree window.

    EPSILON_STRONG when every degree in the window has a verified local
    identity; NOT_EPSILON_STRONG with the sibling-class witness when some
    degree has an infinite minimal set; UNDETERMINED when a degree exhausts
    the bound. `unconditional` is reported true for every graph with no
    flagged vertex, under every degree map; ROADMAP item 3 records the cx
    degree map (deg c = 0, deg e = 1) where no epsilon_1 exists, so there
    it overclaims.

    Each degree reads its checked candidate, as epsilon() does, and
    identity-checked-on, the sum of epsilon()'s counts over a window closed
    under inverse, is twice the sum of count_Xg: no X_g is built.
    """
    graph = degree_map.graph
    group = degree_map.group
    window, reps = _window_walk(degree_map, degree_window, len_bound, ring)
    reps = list(reps)
    fields = {
        "bound": len_bound,
        "window": [group.render(g) for g in window],
        "unconditional": not graph.infinite_emitters,
    }
    # the first ABSENT degree blocks, or else the first UNDETERMINED one
    blocked = (r for r in reps if r.verdict != "PRESENT")
    rep = min(blocked, key=lambda r: r.verdict != "ABSENT", default=None)
    if rep is None:
        fields["epsilons"] = {group.render(r.degree): str(r.epsilon) for r in reps}
        fields["identity-checked-on"] = 2 * sum(count_Xg(g, degree_map, len_bound) for g in window)
        return Report("epsilon-strong-check", "EPSILON_STRONG", fields)
    witness = fields["witness"] = {"degree": group.render(rep.degree)}
    if rep.verdict == "ABSENT":
        witness["sibling-classes"] = [c.render() for c in rep.minimal.witness]
        return Report("epsilon-strong-check", "NOT_EPSILON_STRONG", fields)
    witness["reason"] = rep.absent_reason
    return Report("epsilon-strong-check", "UNDETERMINED", fields)


def check_strongly_graded(degree_map, degree_window, len_bound, ring=INTEGERS):
    """Two independent verdicts on strong grading, reported together.

    The structural arm applies to unflagged graphs under the canonical
    Z-grading: strongly graded exactly when there is no sink. The
    computational arm declares the window strongly graded exactly when
    every degree's local identity, checked as epsilon() checks it but with
    no monomial count, equals the sum of all vertices. When both
    arms decide they must agree; a mismatch is reported as DISAGREEMENT.
    """
    graph = degree_map.graph
    group = degree_map.group
    window, reps = _window_walk(degree_map, degree_window, len_bound, ring)

    structural_applicable = degree_map.is_canonical_z() and not graph.infinite_emitters
    sinks = sorted(v.id for v in graph.sinks())
    structural = {
        "applicable": structural_applicable,
        "verdict": ("STRONG" if not sinks else "NOT_STRONG") if structural_applicable else None,
        "sinks": sinks,
    }

    # an undetermined degree leaves the verdict UNDETERMINED unless a later
    # degree blocks; the first ABSENT degree or epsilon other than 1 blocks
    ident = Element.identity(graph, ring)
    computational = {
        "verdict": "STRONG", "bound": len_bound, "window": [group.render(g) for g in window]
    }
    for rep in reps:
        if rep.verdict == "UNDETERMINED":
            computational["verdict"] = "UNDETERMINED"
            continue
        if rep.verdict == "ABSENT":
            classes = [c.render() for c in rep.minimal.witness]
            witness = {"reason": rep.absent_reason, "sibling-classes": classes}
        elif rep.epsilon != ident:
            witness = {"epsilon": str(rep.epsilon), "identity": str(ident)}
        else:
            continue
        computational["verdict"] = "NOT_STRONG"
        computational["witness"] = {"degree": group.render(rep.degree), **witness}
        break

    computed = computational["verdict"]
    decided = computed != "UNDETERMINED"
    agreement = structural["verdict"] == computed if structural_applicable and decided else None
    if agreement is False:
        verdict = "DISAGREEMENT"
    else:
        verdict = computed if decided or not structural_applicable else structural["verdict"]
    return Report(
        kind="strongly-graded-check",
        verdict=verdict,
        fields={
            "structural": structural,
            "computational": computational,
            "agreement": agreement,
        },
    )


def _unit_walk(degree_map, samples):
    """The count of zero samples, and a generator of the checked local units
    of the others, in order: the one walk nearly-epsilon and nondegenerate
    read."""
    samples = list(samples)
    zeros = sum(s.is_zero() for s in samples)
    return zeros, (local_units(s, degree_map) for s in samples if not s.is_zero())


def check_nearly_epsilon(degree_map, samples):
    """Claim 1 on every sample: PASS proves, for each nonzero sample s of
    degree g, units in S_g S_{g^-1} and S_{g^-1} S_g that fix s from the
    left and the right (local_units). No bound enters; a failed check is
    an engine defect and raises ConstructionError.
    """
    zeros, units = _unit_walk(degree_map, samples)
    certificates = [
        {"element": str(lu.element), "left": str(lu.left), "right": str(lu.right)} for lu in units
    ]
    fields = {"samples-verified": len(certificates), "skipped-zero": zeros, "certificates": certificates}
    return Report(kind="nearly-epsilon-check", verdict="PASS", fields=fields)


def check_nondegenerate(degree_map, samples):
    """Nondegeneracy on every nonzero sample s of degree g, from its local
    units: s = s.u' with u' in S_{g^-1} S_g, so s S_{g^-1} != 0, and
    s = u.s with u in S_g S_{g^-1}, so S_{g^-1} s != 0. Zero samples are
    skipped and counted, as in check_nearly_epsilon.
    """
    render = degree_map.group.render
    zeros, units = _unit_walk(degree_map, samples)
    witnesses = [
        {"element": str(lu.element), "degree": render(lu.degree),
         "left-witness": str(lu.left), "right-witness": str(lu.right)}
        for lu in units
    ]
    return Report(kind="nondegeneracy-check", verdict="PASS", fields={"skipped-zero": zeros, "witnesses": witnesses})
