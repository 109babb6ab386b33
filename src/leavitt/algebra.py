"""Exact arithmetic in the Leavitt path algebra of a graph.

Elements are finite R-linear combinations of monomials a b* where a and b
are paths with a common range. Multiplying two monomials cancels the ghost
letters of the first against the real letters of the second: unless one of
the meeting paths is an initial subpath of the other the product is zero,
otherwise it is a single monomial.

The Cuntz-Krieger summation identity at each regular vertex v is applied as
a one-directional rewrite that eliminates the designated edge g of v from
the junction position:

    (a.g)(b.g)*  ->  a b*  -  sum of (a.f)(b.f)* over f != g out of v

A monomial is in normal form when its two paths do not end in a shared
designated edge. The rewrite strictly shortens the surviving vertex term, so
it terminates, and the resulting normal forms do not depend on rewrite
order; `normal_form_shuffled` exists to exercise exactly that. Equality of
elements is structural equality of normal forms.

Every product of two lists of normal terms, in `Element.__mul__`, the
Frobenius sums and the pair check, is folded by one kernel
(`_add_products`), which rewrites a product only when its meeting paths are
equal, since only then can it fail to be normal.
"""

from __future__ import annotations

import re

from .graph import GraphError, Path

__all__ = [
    "Element",
    "ElementSyntaxError",
    "Monomial",
    "enumerate_monomials",
    "normal_form_shuffled",
    "parse_element",
]


class ElementSyntaxError(ValueError):
    """Malformed element expression; carries the offending column."""

    def __init__(self, message, column):
        super().__init__(f"column {column}: {message}")
        self.column = column


class Monomial:
    """A basis word a b*: an ordered pair of paths with r(a) = r(b).

    ``Monomial(a, b)`` checks that the ranges agree and raises GraphError
    when they do not. ``Monomial._same_range(a, b)`` skips that check and is
    only for pairs built with a shared range: two paths of one (range,
    degree) level of the path table, the swapped paths of a monomial, a
    path and the vertex at its range, the product of two monomials (both
    paths end at the range of the longer meeting path), the terms of a
    Cuntz-Krieger rewrite (each sibling's paths end at r(f), the stripped
    paths at the source of the shared edge), or the two paths of a parsed
    word (see ``_ExprParser._word``).
    """

    __slots__ = ("alpha", "beta", "_hash")

    def __init__(self, alpha, beta):
        if alpha.range != beta.range:
            raise GraphError(
                f"paths {alpha.render()} and {beta.render()} have different ranges"
            )
        self.alpha = alpha
        self.beta = beta
        self._hash = hash((alpha._hash, beta._hash))

    @staticmethod
    def _same_range(alpha, beta):
        """A monomial from paths known to share their range, with no check."""
        mono = Monomial.__new__(Monomial)
        mono.alpha = alpha
        mono.beta = beta
        mono._hash = hash((alpha._hash, beta._hash))
        return mono

    def weight(self):
        return self.alpha.length + self.beta.length

    def involution(self):
        return Monomial._same_range(self.beta, self.alpha)

    def is_normal(self, graph):
        """True unless both paths end in the designated edge of its source.
        Edges compare by ``is``, then by id, which is unique in one graph."""
        if not self.alpha.edges or not self.beta.edges:
            return True
        last, other = self.alpha.edges[-1], self.beta.edges[-1]
        if last is not other and last.id != other.id:
            return True
        special = graph.special_edge(last.source)
        return special is None or (special is not last and special.id != last.id)

    def sort_key(self):
        return (self.weight(), self.alpha.sort_key(), self.beta.sort_key())

    def render(self):
        if not self.beta.edges:
            return self.alpha.render()
        ghost = f"({self.beta.render()})*"
        if self.alpha.is_vertex():
            return ghost
        return f"{self.alpha.render()}.{ghost}"

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({self.render()})"


def _expand_normal(graph, mono):
    """Expand a monomial into (normal monomial, +1/-1) rewrite terms.

    Only the junction of the two paths can carry a reducible pair, and the
    sibling terms produced by one rewrite are already normal there, so the
    loop walks down the surviving vertex term alone: by index over the two
    paths' edges, while both end in one designated edge. Edges compare by
    id. Each sibling path is built in one step from the kept edges and f,
    with no junction check, since f leaves the source of the stripped edge,
    where the kept edges end; the surviving pair is built once, at the end.
    """
    out = []
    alpha, beta = mono.alpha, mono.beta
    a_edges, b_edges = alpha.edges, beta.edges
    i, j = len(a_edges), len(b_edges)
    while i and j:
        last = a_edges[i - 1]
        lid = last.id
        if b_edges[j - 1].id != lid:
            break
        special = graph.special_edge(last.source)
        if special is None or special.id != lid:
            break
        i -= 1
        j -= 1
        a_kept, a_ids = a_edges[:i], alpha._key[1][:i]
        b_kept, b_ids = b_edges[:j], beta._key[1][:j]
        for f in graph.out_edges(last.source):
            if f.id != lid:
                a_f = Path._derived(alpha.base, a_kept + (f,), a_ids + (f.id,))
                b_f = Path._derived(beta.base, b_kept + (f,), b_ids + (f.id,))
                out.append((Monomial._same_range(a_f, b_f), -1))
    if i < len(a_edges):
        alpha, beta = alpha.prefix(i), beta.prefix(j)
    out.append((Monomial._same_range(alpha, beta), 1))
    return out


def _mono_product(m1, m2):
    """The raw product monomial of m1 and m2, or None when it is zero.

    The ghost path b of m1 meets the real path a of m2, and the product is
    nonzero only when the shorter of them is an initial subpath of the
    longer. For two edge paths that is one comparison of edge-id keys, the
    shorter's as a prefix of the longer's: exact, since both monomials come
    from one graph (``Element`` checks that its factors share it). A vertex
    path is initial exactly at the other path's source, so it compares by
    its base: first by ``is``, which holds for the graph's own vertex, then
    by id, its only field, which an equal but distinct ``Vertex`` shares.
    Both paths of the product end at the range of the longer meeting path,
    so it is built with ``Monomial._same_range``; ``joined`` still checks
    the new junction, by the same identity-then-id test.
    """
    b, a = m1.beta, m2.alpha
    if not b.edges:
        base = a.base
        if b.base is not base and b.base.id != base.id:
            return None
        return Monomial._same_range(m1.alpha.joined(a, 0), m2.beta)
    if not a.edges:
        base = b.base
        if a.base is not base and a.base.id != base.id:
            return None
        return Monomial._same_range(m1.alpha, m2.beta.joined(b, 0))
    n, b_ids = b._key
    k, a_ids = a._key
    if n <= k:
        if a_ids[:n] != b_ids:
            return None
        return Monomial._same_range(m1.alpha.joined(a, n), m2.beta)
    if b_ids[:k] != a_ids:
        return None
    return Monomial._same_range(m1.alpha, m2.beta.joined(b, k))


def _fold(ring, acc, m, c):
    """Add the ring element c to the coefficient of m in the term map acc;
    a term that cancels to zero leaves it."""
    cur = ring.add(acc.get(m, ring.zero), c)
    if ring.is_zero(cur):
        acc.pop(m, None)
    else:
        acc[m] = cur


def _normal_pieces(graph, mono):
    """The (normal monomial, +1/-1) terms whose sum is the normal form of
    mono: mono alone when it is normal, else its rewrite terms."""
    return ((mono, 1),) if mono.is_normal(graph) else _expand_normal(graph, mono)


def _add_normal(graph, ring, acc, mono, c):
    """Fold c, a nonzero ring element, times the normal form of mono into
    the term map acc."""
    for m, sign in _normal_pieces(graph, mono):
        _fold(ring, acc, m, c if sign > 0 else ring.neg(c))


def _add_products(graph, ring, acc, left, right):
    """Fold every product of a term of left by a term of right, in that
    order, into the term map acc. Both are iterables of (normal monomial,
    coefficient) pairs, and right is read once per term of left.

    A nonzero product of a b* and c d* with a nonzero coefficient c1 c2 goes
    through ``_add_normal`` when the meeting paths b and c have equal
    length, and is folded as it is otherwise. The product can fail to be
    normal only at an equal meeting, b = c, where it is a d*. Otherwise one
    meeting path extends the other by a nonempty t, and the product ends in
    the longer one's last edge:

    - c = b.t: the product is (a.t) d*, and a.t ends in the last edge of c.
      Were (a.t) d* reducible, a.t and d, hence c and d, would end in one
      designated edge, and c d* would be reducible.
    - b = c.t: the product is a (d.t)*, and d.t ends in the last edge of b.
      Were a (d.t)* reducible, a b* would be reducible the same way.

    Both factors must be normal, as every ``Element``'s terms are.
    """
    for m1, c1 in left:
        for m2, c2 in right:
            m = _mono_product(m1, m2)
            if m is not None:
                c = ring.mul(c1, c2)
                if not ring.is_zero(c):
                    if len(m1.beta.edges) == len(m2.alpha.edges):
                        _add_normal(graph, ring, acc, m, c)
                    else:
                        _fold(ring, acc, m, c)


class Element:
    """A finite linear combination of normal-form monomials.

    Elements are immutable values tied to one Graph object and one
    coefficient ring; all operations are pure. The term map never stores a
    zero coefficient and the empty map is the zero element. Every term is a
    normal monomial: products rest on it (``_add_products``), and a term map
    built by hand with a non-normal term is outside this contract.
    """

    __slots__ = ("graph", "ring", "terms")

    def __init__(self, graph, ring, terms):
        self.graph = graph
        self.ring = ring
        self.terms = terms

    @classmethod
    def zero(cls, graph, ring):
        return cls(graph, ring, {})

    @classmethod
    def from_terms(cls, graph, ring, items):
        """Normal form of a raw combination of (monomial, scalar) pairs."""
        acc = {}
        for mono, c in items:
            c = ring.coerce(c)
            if not ring.is_zero(c):
                _add_normal(graph, ring, acc, mono, c)
        return cls(graph, ring, acc)

    @classmethod
    def monomial(cls, graph, ring, mono):
        return cls.from_terms(graph, ring, [(mono, 1)])

    # A vertex path has no junction to check, so the constructors below
    # build it with Path._derived, and their one coefficient is ring.one.

    @classmethod
    def vertex(cls, graph, ring, v):
        """The vertex v, given by id or as a Vertex of the same id: v v*.
        An id the graph does not declare raises GraphError."""
        p = Path._derived(graph.vertex(v if isinstance(v, str) else v.id), (), ())
        return cls(graph, ring, {Monomial._same_range(p, p): ring.one})

    @classmethod
    def real_path(cls, graph, ring, path):
        """p r(p)*: normal, since one of its paths is a vertex."""
        end = Path._derived(path.range, (), ())
        return cls(graph, ring, {Monomial._same_range(path, end): ring.one})

    @classmethod
    def ghost_path(cls, graph, ring, path):
        """r(p) p*: normal, since one of its paths is a vertex."""
        end = Path._derived(path.range, (), ())
        return cls(graph, ring, {Monomial._same_range(end, path): ring.one})

    @classmethod
    def identity(cls, graph, ring):
        """The sum of all vertices; the multiplicative identity (finite E^0)."""
        paths = [Path._derived(v, (), ()) for v in graph.vertices]
        return cls(graph, ring, {Monomial._same_range(p, p): ring.one for p in paths})

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms, key=Monomial.sort_key)

    def coefficient(self, mono):
        return self.terms.get(mono, self.ring.zero)

    def _compatible(self, other):
        if self.graph is not other.graph or self.ring != other.ring:
            raise ValueError("elements live over different graphs or rings")

    def __add__(self, other):
        self._compatible(other)
        ring = self.ring
        acc = dict(self.terms)
        for m, c in other.terms.items():
            _fold(ring, acc, m, c)
        return Element(self.graph, ring, acc)

    def __neg__(self):
        ring = self.ring
        return Element(self.graph, ring, {m: ring.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, scalar):
        ring = self.ring
        c = ring.coerce(scalar)
        if ring.is_zero(c):
            return Element.zero(self.graph, ring)
        acc = {}
        for m, x in self.terms.items():
            y = ring.mul(c, x)
            if not ring.is_zero(y):
                acc[m] = y
        return Element(self.graph, ring, acc)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scaled(other)
        ring = self.ring
        # _compatible's test, with the identity checks that decide it first
        if self.graph is not other.graph or (ring is not other.ring and ring != other.ring):
            self._compatible(other)
        acc = {}
        _add_products(self.graph, ring, acc, self.terms.items(), other.terms.items())
        return Element(self.graph, ring, acc)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def involution(self):
        """Term-by-term adjoint: (a b*)* = b a*, coefficients unchanged.

        No normalizing pass is needed: a b* is normal unless both its paths
        end in one designated edge, a test symmetric in a and b, and the
        swap is its own inverse, so distinct terms stay distinct."""
        return Element(self.graph, self.ring, {m.involution(): c for m, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.graph is other.graph
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for m in self.support():
            c = self.terms[m]
            mag = ring.magnitude(c)
            body = m.render() if mag == ring.one else f"{ring.render(mag)}*{m.render()}"
            parts.append(f"{'-' if ring.is_negative(c) else '+'} {body}")
        out = " ".join(parts)
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def __repr__(self):
        return f"Element({self})"


def normal_form_shuffled(graph, ring, items, rng):
    """Reduce a raw combination applying one rewrite at a time in rng order.

    The work list holds unmerged (monomial, coefficient) occurrences; each
    round picks a random one and either retires it (already normal) or
    replaces it by the terms of a single junction rewrite. The result must
    always equal Element.from_terms on the same input.
    """
    work = []
    for mono, coeff in items:
        c = ring.coerce(coeff)
        if not ring.is_zero(c):
            work.append((mono, c))
    done = {}
    while work:
        mono, c = work.pop(rng.randrange(len(work)))
        if mono.is_normal(graph):
            _fold(ring, done, mono, c)
            continue
        last = mono.alpha.edges[-1]
        a2 = mono.alpha.prefix(mono.alpha.length - 1)
        b2 = mono.beta.prefix(mono.beta.length - 1)
        work.append((Monomial(a2, b2), c))
        neg = ring.neg(c)
        for f in graph.out_edges(last.source):
            if f != last:
                work.append((Monomial(a2.extended(f), b2.extended(f)), neg))
    return Element(graph, ring, done)


def enumerate_monomials(graph, len_bound):
    """All normal-form monomials with both paths of length <= len_bound.

    Every monomial has the identity degree of the trivial grading, so this
    is X_e of that grading, listed in ``Monomial.sort_key`` order.
    """
    # kept here, where bench/tracer.py traces it; grading imports algebra
    from .grading import CyclicGroup, DegreeMap, enumerate_Xg

    trivial = DegreeMap(graph, CyclicGroup(1), {e.id: 0 for e in graph.edges})
    return enumerate_Xg(0, trivial, len_bound)


# --------------------------------------------------------------------------
# Element expression grammar
#
#   element := ['+'|'-'] term (('+'|'-') term)* | '0'
#   term    := [scalar '*'] word
#   word    := atom ('.' atom)*
#   atom    := id ['*'] | '(' path ')' ['*']
#   path    := id ('.' id)*
#   scalar  := int ['/' int]
#
# A '*' after an id or a parenthesized path is the involution, so f2* is the
# ghost edge of f2 and "f2*.f2" multiplies it by f2. Each atom is a vertex, a
# real path or a ghost path, and only the path relations act inside a word,
# so a word, any product of generators, folds to one raw monomial a b* or to
# 0; "f2.(f4.f3)*" is the monomial with real part f2 and ghost part f4.f3.
# The tokenizer scans each '.'-joined run of names, each optionally starred,
# as one "run" token with one compiled match, and the parser reads a run one
# name at a time. A name is a letter, then `\w` (exactly isalnum() or '_');
# a run starts at an ASCII letter, and a name that starts at another letter,
# as in "é1", is matched on its own. A star apart from its name, as in "x *",
# is its own token, and the word reader applies it to the last name of the
# run before it.
# The word is read left to right one edge at a time (see `_ExprParser._word`):
# a ghost edge joins b, and a real edge cancels the first edge of b, or
# makes the word 0 if it is another edge, or joins a once b is a vertex.
# Each term is then normalized once, with its sign and scalar, in one fold
# of all the expression's terms.
# --------------------------------------------------------------------------

_EXPR_SYMBOLS = "+-*/.()"

# At most 64 names per run: one match keeps state for each repetition of its
# group, so a longer run is scanned as several runs joined by '.' tokens.
_RUN_NAME = r"[A-Za-z]\w*\*?"
_RUN_RE = re.compile(rf"{_RUN_NAME}(?:\.{_RUN_NAME}){{0,63}}")
_NAME_TAIL_RE = re.compile(r"\w*\*?")
# exactly the digits int() reads: \d is Unicode's decimal digits, which are
# what isdecimal() accepts; "²" is isdigit() but not decimal
_INT_RE = re.compile(r"\d+")


def _tokenize_expr(text):
    """The (kind, text, column) tokens of text, one at a time, then eof."""
    match_run, match_tail, match_int = _RUN_RE.match, _NAME_TAIL_RE.match, _INT_RE.match
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = match_int(text, i).end()
            yield ("int", text[i:j], i + 1)
            i = j
            continue
        if ch.isalpha():
            j = (match_run(text, i) or match_tail(text, i + 1)).end()
            yield ("run", text[i:j], i + 1)
            i = j
            continue
        if ch in _EXPR_SYMBOLS:
            yield (ch, ch, i + 1)
            i += 1
            continue
        raise ElementSyntaxError(f"unexpected character {ch!r}", i + 1)
    yield ("eof", "", n + 1)


def _run_parts(run):
    """(part, column) for each name of a run token, with its star, in order."""
    column = run[2]
    for part in run[1].split("."):
        yield part, column
        column += len(part) + 1


def _edge_step(e, ghost):
    """The word reader's (meet, e, ghost, after) step for e or e*."""
    return (e.range, e, True, e.source) if ghost else (e.source, e, False, e.range)


class _ExprParser:
    """A recursive-descent parser over a token stream with one token of
    lookahead: no token list is held."""

    def __init__(self, text, graph, ring):
        self.tokens = _tokenize_expr(text)
        self.token = next(self.tokens)
        self.graph = graph
        self.ring = ring
        self._steps = {}

    def peek(self):
        return self.token

    def next(self):
        tok = self.token
        if tok[0] != "eof":
            self.token = next(self.tokens)
        return tok

    def fail(self, expected, tok=None):
        tok = tok or self.peek()
        if tok[0] == "run":
            found = tok[1].split(".", 1)[0].rstrip("*")  # the first name of a run
        else:
            found = tok[1] or "end of input"
        raise ElementSyntaxError(f"expected {expected}, found {found!r}", tok[2])

    def parse(self):
        """The element of the whole text. An unexpected character anywhere
        in it outranks an error found before it, so on an error the rest of
        the text is still scanned, storing nothing."""
        try:
            return self._element()
        except ElementSyntaxError:
            for _ in self.tokens:
                pass
            raise

    def _element(self):
        sign = 1
        if self.peek()[0] in "+-":
            if self.next()[0] == "-":
                sign = -1
        items = self._term(sign)
        while self.peek()[0] in "+-":
            items += self._term(-1 if self.next()[0] == "-" else 1)
        if self.peek()[0] != "eof":
            self.fail("'+', '-' or end of input")
        return Element.from_terms(self.graph, self.ring, items)

    def _term(self, sign):
        """The term's (monomial, scalar) items: none when its word is 0."""
        scalar = 1
        if self.peek()[0] == "int":
            tok = self.next()
            den = None
            if self.peek()[0] == "/":
                self.next()
                if self.peek()[0] != "int":
                    self.fail("a denominator")
                den = self.next()[1]
            try:
                # int() itself refuses a literal past the interpreter's digit limit
                num = int(tok[1])
                scalar = self.ring.coerce(num) if den is None else self.ring.from_pair(num, int(den))
            except ValueError as exc:
                raise ElementSyntaxError(str(exc), tok[2]) from None
            self.expect("*", "'*' after a scalar")
        mono = self._word()
        return [] if mono is None else [(mono, sign * scalar)]

    def _word(self):
        """The raw monomial a b* of a word, or None when the word is 0.

        The word is read one edge at a time: ``a`` holds its real edges,
        ``b`` its ghost edges as a stack with the first edge on top, and
        ``end`` the vertex where the word so far ends, s(b) (r(a) while b is
        a vertex). Each atom is a list of steps ``(meet, e, ghost, after)``:
        one for a name, one per edge for a path (a ghost path's in reverse,
        since (p q)* = q* p*). Each step must meet the word at ``end`` or
        the word is 0. A vertex step (e is None) is only that test; a ghost
        edge is pushed on b; a real edge pops b's top, which must be e,
        since e* f = 0 for e != f, or joins a once b is empty. Every edge is
        the graph's own object, so the match is by ``is``. Every name of a
        zero word is still looked up. A popped or pushed edge keeps
        r(a) = r(b), so the monomial is built with no range check: a from
        where the first step starts, b from end.
        """
        a, b, zero = [], [], False
        start = end = None
        while True:
            tok = self.peek()
            if tok[0] == "run":
                self.next()
                steps = self._run_steps(tok)
                if self.peek()[0] == "*" and tok[1][-1] != "*":
                    # a star apart from the name before it, as in "x *"
                    self.next()
                    dot = tok[1].rfind(".") + 1
                    steps[-1] = self._step(tok[1][dot:] + "*", tok[2] + dot)
            else:
                steps = self._atom()
            if not zero:
                for meet, e, ghost, after in steps:
                    if meet is not end:
                        if end is None:
                            start = meet
                        elif meet.id != end.id:
                            zero = True
                            break
                    if e is not None:
                        if ghost:
                            b.append(e)
                        elif not b:
                            a.append(e)
                        elif b.pop() is not e:
                            zero = True
                            break
                    end = after
            if self.peek()[0] != ".":
                break
            self.next()
        if zero:
            return None
        b.reverse()
        return Monomial._same_range(
            Path._derived(start, tuple(a), tuple(e.id for e in a)),
            Path._derived(end, tuple(b), tuple(e.id for e in b)),
        )

    def expect(self, kind, expected=None):
        if self.peek()[0] != kind:
            self.fail(expected or f"'{kind}'")
        return self.next()

    def _run_steps(self, run):
        """The step of each name of a run token. Each name is looked up
        once per parse; a miss resolves the run's names in order, so the
        first unknown one is reported at its own column."""
        steps = self._steps
        try:
            return [steps[part] for part in run[1].split(".")]
        except KeyError:
            return [self._step(*part) for part in _run_parts(run)]

    def _atom(self):
        """The steps of an atom that is not a run: a parenthesized path,
        optionally starred."""
        self.expect("(", "an identifier or '('")
        path = self._path()
        self.expect(")")
        starred = self.peek()[0] == "*"
        if starred:
            self.next()
        if not path.edges:
            return ((path.base, None, False, path.base),)
        return [_edge_step(e, starred) for e in (path.edges[::-1] if starred else path.edges)]

    def _step(self, part, column):
        """The step of a name, optionally starred ("x" or "x*"), made once
        per part."""
        step = self._steps.get(part)
        if step is not None:
            return step
        name = part.rstrip("*")
        g = self.graph
        if name in g._vertex_by_id:
            v = g.vertex(name)
            step = (v, None, False, v)
        elif name in g._edge_by_id:
            step = _edge_step(g.edge(name), name != part)
        else:
            raise ElementSyntaxError(f"unknown vertex or edge {name!r}", column)
        self._steps[part] = step
        return step

    def _path(self):
        """The path inside parentheses, from '.'-joined runs. A star inside
        a run ends the path: it is reported as the ')' expected there, once
        the names before it are resolved."""
        names = []
        star = None
        while True:
            tok = self.expect("run", "an identifier")
            for part, column in _run_parts(tok):
                name = part.rstrip("*")
                names.append((name, column))
                if name != part:
                    star = column + len(name)
                    break
            if star is not None or self.peek()[0] != ".":
                break
            self.next()
        g = self.graph
        if len(names) == 1 and names[0][0] in g._vertex_by_id:
            path = Path(g.vertex(names[0][0]))
        else:
            edges = []
            for name, column in names:
                if name not in g._edge_by_id:
                    raise ElementSyntaxError(f"unknown edge {name!r}", column)
                edges.append(g.edge(name))
            try:
                path = Path(edges[0].source, edges)
            except GraphError as exc:
                raise ElementSyntaxError(str(exc), names[0][1]) from None
        if star is not None:
            self.fail("')'", ("*", "*", star))
        return path


def parse_element(text, graph, ring):
    """Parse an element expression; see the grammar above."""
    if text.strip() == "0":
        return Element.zero(graph, ring)
    return _ExprParser(text, graph, ring).parse()
