"""Order theory on monomial sets and the constructive grading checkers.

Monomials of one degree are preordered by comparing their real paths: x is
below y when the real path of x is an initial subpath of the real path of y.
Two monomials are equivalent exactly when their real paths agree, so classes
are keyed by that path, and n(x) = x x* depends only on the class.

For a finite graph the minimal classes of each degree are finite and the sum
of their n-values is a two-sided local identity for that degree; for
arbitrary elements the same construction applied to the element's own
support yields element-specific local units. The checkers below turn these
constructions, plus the structural sink criterion for strong gradings, into
verdicts with explicit certificates and witnesses.

A bounded enumeration is declared complete when every path of length equal
to the bound already extends some minimal class found within the bound.
That is all `complete` checks; it does not prove that no other class is
minimal. A path counts as realized only when its partner also lies within
the bound, so a class whose partner lies beyond the bound is missed. The
`known-wrong` CLI goldens `epsilon-loop-exit-b1`, `epsilon-two-tails` and
`epsilon-z4-loop` are `complete` this way, and each prints a wrong epsilon
and exits 0; ROADMAP items 1 (finite groups) and 5 (Z) plan exact
deciders. Two minimal classes that differ only in which sample edge of one
flagged vertex they use certify an infinite minimal set, since each of the
infinitely many parallel edges yields an incomparable class of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Element, Monomial, enumerate_monomials
from .graph import is_initial_subpath
from .grading import count_Xg, decompose, enumerate_Xg
from .reports import Report
from .rings import INTEGERS


class DegreeMismatchError(ValueError):
    """Comparison of monomials of different degrees."""


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


@dataclass(frozen=True)
class EpsilonReport:
    degree: object
    degree_map: object
    bound_used: int
    epsilon: object  # Element or None
    absent_reason: str
    certificate: tuple  # pairs of Elements, or None
    identity_checked_on: int
    minimal: MinimalClassSet

    @property
    def present(self):
        return self.epsilon is not None

    def to_report(self):
        """PRESENT, ABSENT only when an infinite minimal set proves it, and
        UNDETERMINED otherwise; the text is the local identity, or the verdict
        and the reason."""
        group = self.degree_map.group
        fields = {
            "degree": group.render(self.degree),
            "bound": self.bound_used,
            "minimal-verdict": self.minimal.verdict,
            "minimal-classes": [c.render() for c in self.minimal.classes],
        }
        if self.present:
            fields["epsilon"] = str(self.epsilon)
            fields["certificate"] = [[str(x), str(y)] for x, y in self.certificate]
            fields["identity-checked-on"] = self.identity_checked_on
            verdict, lines = "PRESENT", [fields["epsilon"]]
        else:
            fields["reason"] = self.absent_reason
            verdict = "ABSENT" if self.minimal.verdict == "infinite-witness" else "UNDETERMINED"
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
    left_certificate: tuple
    right_certificate: tuple


def class_leq(x, y, degree_map):
    """The preorder on one degree: real path of x initial in that of y."""
    if degree_map.degree_of(x) != degree_map.degree_of(y):
        raise DegreeMismatchError(
            f"{x.render()} and {y.render()} have different degrees"
        )
    return is_initial_subpath(x.alpha, y.alpha)


def nmap(graph, ring, x):
    """n(x) = x x*; collapses to the normal form of (alpha, alpha)."""
    return Element.from_terms(graph, ring, [(Monomial(x.alpha, x.alpha), 1)])


def minimal_classes(g, degree_map, len_bound):
    """The minimal classes of the degree-g monomial set, within the bound.

    A path is realized when some second path of matching range and degree
    exists within the bound; minimal classes are realized paths none of
    whose proper prefixes is realized. The verdict is complete when every
    path of length len_bound has a realized prefix. Realized is tested
    only against partners within the bound, so a class whose partner lies
    beyond it is missed and `complete` is not a proof; the module docstring
    names the goldens where this gives a wrong class set.

    Realized is decided once per (range, degree) key of the path table, and
    the table is walked by position, reading each path's parent from its
    ``parent`` column: no path is built or hashed.
    """
    if len_bound < 1:
        raise ValueError("len_bound must be >= 1")
    graph = degree_map.graph
    table = degree_map.path_table(len_bound)
    # the partner of each realized key: the first path of its partner key's
    # lowest non-empty level
    partner = {
        k: next(level for level in table.levels[k2] if level)[0][0]
        for k, k2 in table.partner_keys(g).items()
    }

    covered = []
    classes = []
    for p, k, j in zip(table.paths, table.key, table.parent):
        beta = partner.get(k)
        parent_covered = j >= 0 and covered[j]
        covered.append(parent_covered or beta is not None)
        if beta is not None and not parent_covered:
            classes.append(Monomial._same_range(p, beta))
    # the paths of length len_bound end the table
    frontier = sum(len(split[len_bound]) for split in table.levels.values())
    frontier_ok = all(covered[len(covered) - frontier:])

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
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            a, b = classes[i].alpha, classes[j].alpha
            if a.length != b.length or a.length == 0:
                continue
            diff = [k for k in range(a.length) if a.edges[k] != b.edges[k]]
            if len(diff) != 1:
                continue
            ea, eb = a.edges[diff[0]], b.edges[diff[0]]
            if ea.source == eb.source and graph.is_flagged(ea.source):
                return (classes[i], classes[j])
    return None


def _local_unit(graph, ring, representatives):
    """The sum of n(rep) over the representatives, with the (rep, rep*)
    certificate of each, in the given order."""
    unit = Element.zero(graph, ring)
    certificate = []
    for rep in representatives:
        unit = unit + nmap(graph, ring, rep)
        certificate.append(
            (Element.monomial(graph, ring, rep), Element.monomial(graph, ring, rep.involution()))
        )
    return unit, tuple(certificate)


def _candidate(g, degree_map, len_bound, ring):
    """The degree-g local identity, the sum of n over the minimal classes,
    with its certificate, checked exactly on the classes themselves when
    those are complete; otherwise the report of why there is none."""
    mcs = minimal_classes(g, degree_map, len_bound)
    if mcs.verdict != "complete":
        reason = (
            "infinite minimal set"
            if mcs.verdict == "infinite-witness"
            else f"undetermined at bound {len_bound}"
        )
        return EpsilonReport(g, degree_map, len_bound, None, reason, None, 0, mcs)
    graph = degree_map.graph
    eps, certificate = _local_unit(graph, ring, mcs.classes)
    _check_unit(eps, "left", [Element.real_path(graph, ring, c.alpha) for c in mcs.classes])
    _check_unit(eps, "right", [Element.ghost_path(graph, ring, c.alpha) for c in mcs.classes])
    return EpsilonReport(g, degree_map, len_bound, eps, None, certificate, 0, mcs)


def epsilon(g, degree_map, len_bound, ring=INTEGERS):
    """The degree-g local identity, with certificate and identity checks.

    When the minimal classes are complete the local identity is
    e = sum of a a* over the classes a, and two exact products per class,
    e.a = a and a*.e = a*, prove that e fixes every degree-g monomial from
    the left and every monomial of the inverse degree from the right:

    - The classes are pairwise incomparable, none a prefix of another, so
      a'* a = 0 for a' != a and e.a = a a* a = a, using only a* a = r(a).
    - A real path a' of a monomial a' b* of degree g is realized, so its
      shortest realized prefix is a class a, and a' = a.t. Then
      e.(a' b*) = (e.a).t.b* = a' b*.
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
    """ConstructionError on the first element that unit does not fix from
    the given side."""
    for e in elements:
        if (unit * e if side == "left" else e * unit) != e:
            raise ConstructionError(f"{side} unit failed on {e}")


def _minimal_representatives(monos):
    """The first of monos in each minimal class among them, by real path."""
    first = {}
    for m in monos:
        first.setdefault(m.alpha, m)
    minimal = [a for a in first if not any(b != a and is_initial_subpath(b, a) for b in first)]
    return [first[a] for a in sorted(minimal, key=lambda p: p.sort_key())]


def _degree_of_family(elements, degree_map, message):
    """The one degree of which every nonzero element listed is homogeneous;
    HomogeneityError with the message when there is none."""
    degrees = {g for e in elements for g in decompose(e, degree_map)}
    if len(degrees) != 1:
        raise HomogeneityError(message)
    return degrees.pop()


def _one_sided_unit(elements, side):
    """A unit fixing every element of a family of nonzero elements from one
    side, verified exactly, with its certificate: the sum of n over the
    minimal classes of the pooled supports, or of the adjoints' supports for
    the right side."""
    pool = {m for e in elements for m in (e if side == "left" else e.involution()).terms}
    reps = _minimal_representatives(sorted(pool, key=Monomial.sort_key))
    unit, certificate = _local_unit(elements[0].graph, elements[0].ring, reps)
    _check_unit(unit, side, elements)
    return unit, certificate


def local_units(s, degree_map):
    """Element-specific local units for a nonzero homogeneous element.

    The left unit sums n over the minimal classes among s's own support, so
    no enumeration bound enters; the right unit is the left unit of the
    adjoint. Both identities are verified exactly.
    """
    if s.is_zero():
        raise HomogeneityError("the zero element has no local units")
    g = _degree_of_family([s], degree_map, "element is not homogeneous")
    left, left_cert = _one_sided_unit([s], "left")
    right, right_cert = _one_sided_unit([s], "right")
    return LocalUnitPair(s, g, left, right, left_cert, right_cert)


def common_local_unit(elements, side, degree_map):
    """One element acting as identity on every listed element from one side.

    Built from the minimal classes of the pooled supports, so a finite
    family of same-degree elements always has a common unit.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    elems = list(elements)
    if not elems:
        raise ValueError("need at least one element")
    nonzero = [e for e in elems if not e.is_zero()]
    if not nonzero:
        return Element.zero(elems[0].graph, elems[0].ring)
    _degree_of_family(nonzero, degree_map, "elements must be homogeneous of one common degree")
    return _one_sided_unit(nonzero, side)[0]


def check_symmetric(degree_map, len_bound, ring=INTEGERS):
    """Verify m = m m* m for every monomial within the bound."""
    graph = degree_map.graph
    checked = 0
    for m in enumerate_monomials(graph, len_bound):
        em = Element.monomial(graph, ring, m)
        if em * em.involution() * em != em:
            return Report(
                kind="symmetric-grading-check",
                verdict="FAIL",
                fields={"bound": len_bound, "witness": m.render()},
            )
        checked += 1
    return Report(
        kind="symmetric-grading-check",
        verdict="PASS",
        fields={"bound": len_bound, "monomials-checked": checked},
    )


def _validate_window(group, window):
    window = list(window)
    if not window:
        raise WindowError("degree window must be nonempty")
    seen = set()
    for g in window:
        group.check(g)
        seen.add(g)
    if group.identity not in seen:
        raise WindowError("degree window must contain the identity")
    for g in seen:
        if group.inverse(g) not in seen:
            raise WindowError("degree window must be closed under inverse")
    return sorted(seen, key=group.sort_key)


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
    window = _validate_window(group, degree_window)
    epsilons = {}
    infinite = []
    undetermined = []
    for g in window:
        rep = _candidate(g, degree_map, len_bound, ring)
        if rep.present:
            epsilons[group.render(g)] = str(rep.epsilon)
        elif rep.minimal.verdict == "infinite-witness":
            infinite.append(rep)
        else:
            undetermined.append(rep)
    fields = {
        "bound": len_bound,
        "window": [group.render(g) for g in window],
        "unconditional": not graph.infinite_emitters,
    }
    if infinite:
        rep = infinite[0]
        fields["witness"] = {
            "degree": group.render(rep.degree),
            "sibling-classes": [c.render() for c in rep.minimal.witness],
        }
        return Report("epsilon-strong-check", "NOT_EPSILON_STRONG", fields)
    if undetermined:
        rep = undetermined[0]
        fields["witness"] = {
            "degree": group.render(rep.degree),
            "reason": rep.absent_reason,
        }
        return Report("epsilon-strong-check", "UNDETERMINED", fields)
    fields["epsilons"] = epsilons
    fields["identity-checked-on"] = 2 * sum(count_Xg(g, degree_map, len_bound) for g in window)
    return Report("epsilon-strong-check", "EPSILON_STRONG", fields)


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
    window = _validate_window(group, degree_window)

    structural_applicable = degree_map.is_canonical_z() and not graph.infinite_emitters
    sinks = sorted(v.id for v in graph.sinks())
    structural = {
        "applicable": structural_applicable,
        "verdict": ("STRONG" if not sinks else "NOT_STRONG") if structural_applicable else None,
        "sinks": sinks,
    }

    ident = Element.identity(graph, ring)
    comp_verdict = "STRONG"
    comp_witness = None
    saw_undetermined = False
    for g in window:
        rep = _candidate(g, degree_map, len_bound, ring)
        if rep.minimal.verdict == "infinite-witness":
            comp_verdict = "NOT_STRONG"
            comp_witness = {
                "degree": group.render(g),
                "reason": rep.absent_reason,
                "sibling-classes": [c.render() for c in rep.minimal.witness],
            }
            break
        if not rep.present:
            saw_undetermined = True
            continue
        if rep.epsilon != ident:
            comp_verdict = "NOT_STRONG"
            comp_witness = {
                "degree": group.render(g),
                "epsilon": str(rep.epsilon),
                "identity": str(ident),
            }
            break
    if comp_verdict == "STRONG" and saw_undetermined:
        comp_verdict = "UNDETERMINED"
    computational = {
        "verdict": comp_verdict,
        "bound": len_bound,
        "window": [group.render(g) for g in window],
    }
    if comp_witness:
        computational["witness"] = comp_witness

    agreement = None
    if structural_applicable and comp_verdict != "UNDETERMINED":
        agreement = structural["verdict"] == comp_verdict

    if agreement is False:
        verdict = "DISAGREEMENT"
    elif comp_verdict != "UNDETERMINED":
        verdict = comp_verdict
    elif structural_applicable:
        verdict = structural["verdict"]
    else:
        verdict = "UNDETERMINED"
    return Report(
        kind="strongly-graded-check",
        verdict=verdict,
        fields={
            "structural": structural,
            "computational": computational,
            "agreement": agreement,
        },
    )


def _sample_units(degree_map, samples, zeros):
    """local_units of each nonzero sample, built only as the walk reaches
    it; each zero sample is appended to zeros instead."""
    for s in samples:
        if s.is_zero():
            zeros.append(s)
        else:
            yield local_units(s, degree_map)


def check_nearly_epsilon(degree_map, samples):
    """Construct and verify local units for every homogeneous sample.

    The construction is total, so PASS is a certificate; a verification
    failure can only mean a defect in the engine and raises
    ConstructionError.
    """
    zeros = []
    certificates = [
        {"element": str(lu.element), "left": str(lu.left), "right": str(lu.right)}
        for lu in _sample_units(degree_map, samples, zeros)
    ]
    return Report(
        kind="nearly-epsilon-check",
        verdict="PASS",
        fields={
            "samples-verified": len(certificates),
            "skipped-zero": len(zeros),
            "certificates": certificates,
        },
    )


def check_nondegenerate(degree_map, samples):
    """An explicit witness that each nonzero sample s does not annihilate
    its inverse-degree side.

    Each witness is a verified pair: a left unit in the (g, g^-1) product
    span and a right unit in the (g^-1, g) product span, each reproducing s
    exactly. Zero samples are skipped.
    """
    witnesses = [
        {
            "element": str(lu.element),
            "degree": degree_map.group.render(lu.degree),
            "left-witness": str(lu.left),
            "right-witness": str(lu.right),
        }
        for lu in _sample_units(degree_map, samples, [])
    ]
    return Report(kind="nondegeneracy-check", verdict="PASS", fields={"witnesses": witnesses})
