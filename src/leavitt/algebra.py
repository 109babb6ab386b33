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
"""

from __future__ import annotations

from .graph import GraphError, Path, is_initial_subpath


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
    degree) level of the path table, or the swapped paths of a monomial.
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

    @property
    def range(self):
        return self.alpha.range

    def weight(self):
        return self.alpha.length + self.beta.length

    def involution(self):
        return Monomial._same_range(self.beta, self.alpha)

    def is_normal(self, graph):
        """True unless both paths end in the designated edge of its source."""
        if not self.alpha.edges or not self.beta.edges:
            return True
        last = self.alpha.edges[-1]
        if last != self.beta.edges[-1]:
            return True
        return graph.special_edge(last.source) != last

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
    loop walks down the surviving vertex term alone.
    """
    out = []
    alpha, beta = mono.alpha, mono.beta
    while True:
        if alpha.edges and beta.edges:
            last = alpha.edges[-1]
            if last == beta.edges[-1] and graph.special_edge(last.source) == last:
                a2 = alpha.prefix(alpha.length - 1)
                b2 = beta.prefix(beta.length - 1)
                for f in graph.out_edges(last.source):
                    if f != last:
                        out.append((Monomial(a2.extended(f), b2.extended(f)), -1))
                alpha, beta = a2, b2
                continue
        out.append((Monomial(alpha, beta), 1))
        return out


def _mono_product(m1, m2):
    """The raw product monomial of m1 and m2, or None when it is zero."""
    b, a = m1.beta, m2.alpha
    if is_initial_subpath(b, a):
        return Monomial(m1.alpha.joined(a, b.length), m2.beta)
    if is_initial_subpath(a, b):
        return Monomial(m1.alpha, m2.beta.joined(b, a.length))
    return None


class Element:
    """A finite linear combination of normal-form monomials.

    Elements are immutable values tied to one Graph object and one
    coefficient ring; all operations are pure. The term map never stores a
    zero coefficient and the empty map is the zero element.
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
        for mono, coeff in items:
            c = ring.coerce(coeff)
            if ring.is_zero(c):
                continue
            if mono.is_normal(graph):
                pieces = ((mono, 1),)
            else:
                pieces = _expand_normal(graph, mono)
            for m, sign in pieces:
                cur = ring.add(acc.get(m, ring.zero), c if sign > 0 else ring.neg(c))
                if ring.is_zero(cur):
                    acc.pop(m, None)
                else:
                    acc[m] = cur
        return cls(graph, ring, acc)

    @classmethod
    def monomial(cls, graph, ring, mono, coeff=1):
        return cls.from_terms(graph, ring, [(mono, coeff)])

    @classmethod
    def vertex(cls, graph, ring, v):
        if isinstance(v, str):
            v = graph.vertex(v)
        p = Path(v)
        return cls(graph, ring, {Monomial(p, p): ring.coerce(1)})

    @classmethod
    def real_path(cls, graph, ring, path):
        return cls.from_terms(graph, ring, [(Monomial(path, Path(path.range)), 1)])

    @classmethod
    def ghost_path(cls, graph, ring, path):
        return cls.from_terms(graph, ring, [(Monomial(Path(path.range), path), 1)])

    @classmethod
    def identity(cls, graph, ring):
        """The sum of all vertices; the multiplicative identity (finite E^0)."""
        return cls(
            graph,
            ring,
            {Monomial(Path(v), Path(v)): ring.coerce(1) for v in graph.vertices},
        )

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
            cur = ring.add(acc.get(m, ring.zero), c)
            if ring.is_zero(cur):
                acc.pop(m, None)
            else:
                acc[m] = cur
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
        self._compatible(other)
        ring = self.ring
        raw = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_product(m1, m2)
                if m is not None:
                    raw.append((m, ring.mul(c1, c2)))
        return Element.from_terms(self.graph, ring, raw)

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def involution(self):
        """Term-by-term adjoint: (a b*)* = b a*, coefficients unchanged."""
        return Element.from_terms(
            self.graph, self.ring, [(m.involution(), c) for m, c in self.terms.items()]
        )

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
            sign = "-" if ring.is_negative(c) else "+"
            mag = ring.magnitude(c)
            body = m.render() if mag == ring.one else f"{ring.render(mag)}*{m.render()}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

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
            cur = ring.add(done.get(mono, ring.zero), c)
            if ring.is_zero(cur):
                done.pop(mono, None)
            else:
                done[mono] = cur
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
# ghost edge of f2 and "f2*.f2" multiplies it by f2. Atoms multiply left to
# right, which lets one word denote any product of generators; "f2.(f4.f3)*"
# is the monomial with real part f2 and ghost part f4.f3.
# --------------------------------------------------------------------------

_EXPR_SYMBOLS = "+-*/.()"


def _tokenize_expr(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j], i + 1))
            i = j
            continue
        if ch in _EXPR_SYMBOLS:
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        raise ElementSyntaxError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("eof", "", n + 1))
    return tokens


class _ExprParser:
    def __init__(self, text, graph, ring):
        self.tokens = _tokenize_expr(text)
        self.pos = 0
        self.graph = graph
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.peek()
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, expected, tok=None):
        tok = tok or self.peek()
        found = tok[1] or "end of input"
        raise ElementSyntaxError(f"expected {expected}, found {found!r}", tok[2])

    def parse(self):
        sign = 1
        if self.peek()[0] in "+-":
            if self.next()[0] == "-":
                sign = -1
        total = self._term().scaled(sign)
        while self.peek()[0] in "+-":
            op = self.next()[0]
            term = self._term()
            total = total + (term.scaled(-1) if op == "-" else term)
        if self.peek()[0] != "eof":
            self.fail("'+', '-' or end of input")
        return total

    def _term(self):
        scalar = None
        if self.peek()[0] == "int":
            tok = self.next()
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.next()
                den_tok = self.peek()
                if den_tok[0] != "int":
                    self.fail("a denominator")
                self.next()
                try:
                    scalar = self.ring.from_pair(num, int(den_tok[1]))
                except ValueError as exc:
                    raise ElementSyntaxError(str(exc), tok[2]) from None
            else:
                try:
                    scalar = self.ring.coerce(num)
                except ValueError as exc:
                    raise ElementSyntaxError(str(exc), tok[2]) from None
            self.expect("*", "'*' after a scalar")
        value = self._atom()
        while self.peek()[0] == ".":
            self.next()
            value = value * self._atom()
        if scalar is not None:
            value = value.scaled(scalar)
        return value

    def expect(self, kind, expected=None):
        if self.peek()[0] != kind:
            self.fail(expected or f"'{kind}'")
        return self.next()

    def _atom(self):
        tok = self.peek()
        if tok[0] == "id":
            self.next()
            return self._generator(tok, self._starred())
        if tok[0] == "(":
            self.next()
            path = self._path()
            self.expect(")")
            return self._path_element(path, self._starred())
        self.fail("an identifier or '('")

    def _starred(self):
        """Consume an optional '*' and say whether there was one."""
        if self.peek()[0] != "*":
            return False
        self.next()
        return True

    def _path_element(self, path, starred):
        make = Element.ghost_path if starred else Element.real_path
        return make(self.graph, self.ring, path)

    def _generator(self, tok, starred):
        name = tok[1]
        g, ring = self.graph, self.ring
        if name in g._vertex_by_id:
            return Element.vertex(g, ring, name)
        if name in g._edge_by_id:
            e = g.edge(name)
            return self._path_element(Path(e.source, (e,)), starred)
        raise ElementSyntaxError(f"unknown vertex or edge {name!r}", tok[2])

    def _path(self):
        tok = self.peek()
        if tok[0] != "id":
            self.fail("an identifier")
        ids = [self.next()]
        while self.peek()[0] == ".":
            self.next()
            nxt = self.peek()
            if nxt[0] != "id":
                self.fail("an identifier")
            ids.append(self.next())
        g = self.graph
        if len(ids) == 1 and ids[0][1] in g._vertex_by_id:
            return Path(g.vertex(ids[0][1]))
        edges = []
        for tok in ids:
            if tok[1] not in g._edge_by_id:
                raise ElementSyntaxError(f"unknown edge {tok[1]!r}", tok[2])
            edges.append(g.edge(tok[1]))
        try:
            return Path(edges[0].source, edges)
        except GraphError as exc:
            raise ElementSyntaxError(str(exc), ids[0][2]) from None


def parse_element(text, graph, ring):
    """Parse an element expression; see the grammar above."""
    if text.strip() == "0":
        return Element.zero(graph, ring)
    return _ExprParser(text, graph, ring).parse()
