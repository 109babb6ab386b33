"""Directed graphs, the graph description language, and path combinatorics.

A graph is a finite set of vertices and edges with source and range maps.
A vertex may be flagged as an infinite emitter: the flag means the vertex
really emits infinitely many edges, of which at least two representative
sample edges must be listed. Flagged vertices are never regular, so the
Cuntz-Krieger summation identity is never applied at them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"graph", "vertices", "edges", "infinite"})


class GraphError(ValueError):
    """A structurally invalid graph."""


class GraphSyntaxError(GraphError):
    """Malformed graph text; carries the first offending position."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Vertex:
    id: str

    def __repr__(self):
        return f"Vertex({self.id})"


@dataclass(frozen=True)
class Edge:
    id: str
    source: Vertex
    range: Vertex

    def __repr__(self):
        return f"Edge({self.id}: {self.source.id} -> {self.range.id})"


class Path:
    """A vertex (length 0) or a chain of composable edges.

    The source of a vertex path is the vertex itself; for edge paths the
    base vertex always equals the source of the first edge.

    ``Path(base, edges)`` checks every junction of an edge list that comes
    from outside. A path derived from a valid one (``prefix``, ``extended``,
    ``joined``) checks only the new junction and extends the parent's id key
    instead of rebuilding it, so building an n-edge path one edge at a time
    costs O(n) interpreter steps, not O(n^2).
    """

    __slots__ = ("base", "edges", "_key", "_hash")

    def __init__(self, base, edges=()):
        edges = tuple(edges)
        if base is None:
            if not edges:
                raise GraphError("a path needs a base vertex or at least one edge")
            base = edges[0].source
        if edges:
            if base != edges[0].source:
                raise GraphError(
                    f"path base {base.id} is not the source of edge {edges[0].id}"
                )
            for a, b in zip(edges, edges[1:]):
                if a.range != b.source:
                    raise GraphError(f"edges {a.id} and {b.id} do not compose")
        self._set(base, edges, tuple(e.id for e in edges))

    def _set(self, base, edges, ids):
        """ids are the edge ids; a vertex path is keyed by its vertex id."""
        self.base = base
        self.edges = edges
        self._key = (len(edges), ids or (base.id,))
        self._hash = hash(self._key)

    @staticmethod
    def _derived(base, edges, ids):
        """A path from parts known to compose, with no check."""
        path = Path.__new__(Path)
        path._set(base, edges, ids)
        return path

    def _edge_ids(self):
        return self._key[1] if self.edges else ()

    def _check_junction(self, edge):
        """Raise GraphError unless edge can follow this path."""
        if not self.edges:
            if self.base != edge.source:
                raise GraphError(
                    f"path base {self.base.id} is not the source of edge {edge.id}"
                )
        elif self.edges[-1].range != edge.source:
            raise GraphError(f"edges {self.edges[-1].id} and {edge.id} do not compose")

    @property
    def length(self):
        return len(self.edges)

    @property
    def source(self):
        return self.base

    @property
    def range(self):
        return self.edges[-1].range if self.edges else self.base

    def is_vertex(self):
        return not self.edges

    def prefix(self, n):
        """The initial subpath with n edges (the source vertex for n = 0)."""
        return Path._derived(self.base, self.edges[:n], self._edge_ids()[:n])

    def extended(self, edge):
        """This path followed by edge."""
        self._check_junction(edge)
        return Path._derived(
            self.base, self.edges + (edge,), self._edge_ids() + (edge.id,)
        )

    def joined(self, other, k):
        """This path followed by the edges of other after its first k."""
        tail = other.edges[k:]
        if not tail:
            return self
        self._check_junction(tail[0])
        return Path._derived(
            self.base, self.edges + tail, self._edge_ids() + other._key[1][k:]
        )

    def sort_key(self):
        return self._key

    def render(self):
        return ".".join(self._key[1])

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.base == other.base
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Path({self.render()})"


def is_initial_subpath(a, b):
    """True when a is an initial subpath of b; a vertex qualifies at b's source."""
    if not a.edges:
        return a.base == b.source
    return b.edges[: len(a.edges)] == a.edges


class Graph:
    """Immutable directed graph with optional infinite-emitter flags."""

    def __init__(self, vertices, edges, infinite_emitters=(), name=""):
        self.name = name
        self.vertices = tuple(sorted(vertices, key=lambda v: v.id))
        self.edges = tuple(sorted(edges, key=lambda e: e.id))

        seen = {}
        for v in self.vertices:
            if v.id in seen:
                raise GraphError(f"duplicate id {v.id!r}")
            seen[v.id] = v
        self._vertex_by_id = dict(seen)
        for e in self.edges:
            if e.id in seen:
                raise GraphError(f"duplicate id {e.id!r}")
            seen[e.id] = e
        self._edge_by_id = {e.id: e for e in self.edges}

        out = {v.id: [] for v in self.vertices}
        for e in self.edges:
            for endpoint in (e.source, e.range):
                if self._vertex_by_id.get(endpoint.id) != endpoint:
                    raise GraphError(
                        f"edge {e.id} endpoint {endpoint.id!r} is not a declared vertex"
                    )
            out[e.source.id].append(e)
        self._out = {vid: tuple(es) for vid, es in out.items()}

        flagged = set()
        for item in infinite_emitters:
            vid = item.id if isinstance(item, Vertex) else item
            if vid not in self._vertex_by_id:
                raise GraphError(f"flagged vertex {vid!r} is not declared")
            if len(self._out[vid]) < 2:
                raise GraphError(
                    f"infinite emitter {vid!r} needs at least 2 listed sample edges"
                )
            flagged.add(vid)
        self.infinite_emitters = frozenset(self._vertex_by_id[v] for v in flagged)

        self._special = {v.id: self._out[v.id][0] for v in self.regular_vertices()}

    def vertex(self, vid):
        try:
            return self._vertex_by_id[vid]
        except KeyError:
            raise GraphError(f"unknown vertex {vid!r}") from None

    def edge(self, eid):
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge {eid!r}") from None

    def out_edges(self, v):
        return self._out[v.id]

    def is_flagged(self, v):
        return v in self.infinite_emitters

    def sinks(self):
        """Vertices with no outgoing edges at all."""
        return frozenset(v for v in self.vertices if not self._out[v.id])

    def regular_vertices(self):
        """Vertices emitting a nonempty finite edge set; flags excluded."""
        return frozenset(
            v
            for v in self.vertices
            if self._out[v.id] and v not in self.infinite_emitters
        )

    def special_edge(self, v):
        """The designated outgoing edge of a regular vertex, else None.

        The designated edge is the lexicographically smallest outgoing edge
        id; the rewriting system eliminates exactly the monomials whose two
        paths share it as their final edge.
        """
        return self._special.get(v.id)

    def enumerate_paths(self, max_len):
        """All paths of length <= max_len, ordered by length then edge ids.

        Length-0 paths are the vertices in id order. Within each length,
        paths sort lexicographically by their edge id sequence, so raising
        the bound extends the output without reordering it.
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        level = [Path(v) for v in self.vertices]
        paths = list(level)
        for _ in range(max_len):
            nxt = []
            for p in level:
                for e in self._out[p.range.id]:
                    nxt.append(p.extended(e))
            if not nxt:
                break
            nxt.sort(key=Path.sort_key)
            paths.extend(nxt)
            level = nxt
        return tuple(paths)

    def __repr__(self):
        flags = f", flagged={sorted(v.id for v in self.infinite_emitters)}" if self.infinite_emitters else ""
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges{flags})"


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text):
    tokens = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        col = 0
        n = len(line)
        while col < n:
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            m = _ID_RE.match(line, col)
            if m:
                tokens.append(_Token("id", m.group(), line_no, col + 1))
                col = m.end()
                continue
            if line.startswith("->", col):
                tokens.append(_Token("->", "->", line_no, col + 1))
                col += 2
                continue
            if ch in "{}:;":
                tokens.append(_Token(ch, ch, line_no, col + 1))
                col += 1
                continue
            raise GraphSyntaxError(f"unexpected character {ch!r}", line_no, col + 1)
    end_line = len(lines) if lines else 1
    end_col = len(lines[-1]) + 1 if lines else 1
    tokens.append(_Token("eof", "", end_line, end_col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected, tok=None):
        tok = tok or self.peek()
        found = tok.value or "end of input"
        raise GraphSyntaxError(f"expected {expected}, found {found!r}", tok.line, tok.column)

    def expect(self, kind, expected=None):
        tok = self.peek()
        if tok.kind != kind:
            self.fail(expected or f"'{kind}'")
        return self.next()

    def expect_id(self, what="an identifier"):
        tok = self.peek()
        if tok.kind != "id":
            self.fail(what)
        return self.next()

    def skip_optional(self, kind):
        if self.peek().kind == kind:
            self.next()


def parse_graph(text):
    """Parse the graph description language.

    ::

        graph <name> {
          vertices: v1 v2 ;
          edges: f1: v2 -> v1; f2: v2 -> v3;
          infinite: v1;          # optional, repeatable
        }

    The ``graph <name> { ... }`` wrapper is optional, sections may repeat,
    ``#`` starts a comment, and whitespace between tokens is free. The
    keywords graph/vertices/edges/infinite are reserved and cannot name
    vertices or edges. Vertices and edges share a single id namespace.
    """
    p = _Parser(_tokenize(text))
    name = ""
    braced = False
    if p.peek().kind == "id" and p.peek().value == "graph":
        p.next()
        name = p.expect_id("a graph name").value
        p.expect("{")
        braced = True

    vertex_decls = []
    edge_decls = []
    flag_decls = []

    while True:
        tok = p.peek()
        if tok.kind == "eof":
            if braced:
                p.fail("'}'")
            break
        if tok.kind == "}":
            if not braced:
                p.fail("a section keyword")
            p.next()
            if p.peek().kind != "eof":
                p.fail("end of input")
            break
        if tok.kind == ";":
            p.next()
            continue
        if tok.kind != "id" or tok.value not in _KEYWORDS:
            p.fail("a section keyword (vertices, edges, infinite)")
        keyword = p.next()
        p.skip_optional(":")
        if keyword.value == "vertices":
            while p.peek().kind == "id" and p.peek().value not in _KEYWORDS:
                vertex_decls.append(p.next())
            p.expect(";", "';' closing the vertices section")
        elif keyword.value == "infinite":
            if p.peek().kind != "id" or p.peek().value in _KEYWORDS:
                p.fail("a vertex id")
            while p.peek().kind == "id" and p.peek().value not in _KEYWORDS:
                flag_decls.append(p.next())
            p.expect(";", "';' closing the infinite section")
        elif keyword.value == "edges":
            if p.peek().kind == ";":
                p.next()
                continue
            while (
                p.peek().kind == "id"
                and p.peek().value not in _KEYWORDS
                and p.peek(1).kind == ":"
            ):
                eid = p.next()
                p.expect(":")
                src = p.expect_id("a source vertex")
                p.expect("->", "'->'")
                rng = p.expect_id("a range vertex")
                p.expect(";", "';' closing the edge declaration")
                edge_decls.append((eid, src, rng))
        else:
            p.fail("a section keyword (vertices, edges, infinite)")

    declared = {}
    for tok in vertex_decls:
        if tok.value in declared:
            raise GraphSyntaxError(f"duplicate id {tok.value!r}", tok.line, tok.column)
        declared[tok.value] = Vertex(tok.value)

    edges = []
    edge_ids = set()
    for eid, src, rng in edge_decls:
        if eid.value in declared or eid.value in edge_ids:
            raise GraphSyntaxError(f"duplicate id {eid.value!r}", eid.line, eid.column)
        for endpoint in (src, rng):
            if endpoint.value not in declared:
                raise GraphSyntaxError(
                    f"edge endpoint {endpoint.value!r} is not a declared vertex",
                    endpoint.line,
                    endpoint.column,
                )
        edge_ids.add(eid.value)
        edges.append(Edge(eid.value, declared[src.value], declared[rng.value]))

    out_count = {}
    for e in edges:
        out_count[e.source.id] = out_count.get(e.source.id, 0) + 1
    flags = []
    for tok in flag_decls:
        if tok.value not in declared:
            raise GraphSyntaxError(
                f"flagged vertex {tok.value!r} is not declared", tok.line, tok.column
            )
        if out_count.get(tok.value, 0) < 2:
            raise GraphSyntaxError(
                f"infinite emitter {tok.value!r} needs at least 2 listed sample edges",
                tok.line,
                tok.column,
            )
        flags.append(tok.value)

    return Graph(declared.values(), edges, flags, name=name)
