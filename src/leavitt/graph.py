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
from typing import NamedTuple

__all__ = [
    "Edge",
    "Graph",
    "GraphError",
    "GraphSyntaxError",
    "Path",
    "Vertex",
    "is_initial_subpath",
    "parse_graph",
]

_SECTIONS = frozenset({"vertices", "edges", "infinite"})
_KEYWORDS = _SECTIONS | {"graph"}


class GraphError(ValueError):
    """A structurally invalid graph; ``culprit``, when set, is the argument
    of ``Graph(...)`` at fault (a vertex, an edge, an endpoint or a flag)."""

    def __init__(self, message, culprit=None):
        super().__init__(message)
        self.culprit = culprit


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


def _check_junction(end, edges, edge):
    """Raise GraphError unless edge can follow a path that ends at the vertex
    end. The message names the last of edges, the path's edges so far, or
    its base when there are none. The vertices compare by ``is``, then by
    id: a ``Vertex``'s only field is its id, so that is exactly vertex
    equality, without the dataclass ``__eq__``."""
    source = edge.source
    if end is not source and end.id != source.id:
        if not edges:
            raise GraphError(f"path base {end.id} is not the source of edge {edge.id}")
        raise GraphError(f"edges {edges[-1].id} and {edge.id} do not compose")


class Path:
    """A vertex (length 0) or a chain of composable edges.

    The source of a vertex path is the vertex itself; for edge paths the
    base vertex always equals the source of the first edge.

    ``Path(base, edges)`` checks every junction of an edge list that comes
    from outside. A path derived from a valid one (``prefix``, ``extended``,
    ``joined``) checks only the new junction and extends the parent's id key
    instead of rebuilding it, so building an n-edge path one edge at a time
    costs O(n) interpreter steps, not O(n^2). Every junction is checked by
    ``_check_junction``.
    """

    __slots__ = ("base", "edges", "_key", "_hash")

    def __init__(self, base, edges=()):
        edges = tuple(edges)
        if base is None:
            if not edges:
                raise GraphError("a path needs a base vertex or at least one edge")
            base = edges[0].source
        end, prior = base, ()
        for e in edges:
            _check_junction(end, prior, e)
            end, prior = e.range, (e,)
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
        _check_junction(self.range, self.edges, edge)
        return Path._derived(
            self.base, self.edges + (edge,), self._edge_ids() + (edge.id,)
        )

    def joined(self, other, k):
        """This path followed by the edges of other after its first k."""
        tail = other.edges[k:]
        if not tail:
            return self
        _check_junction(self.range, self.edges, tail[0])
        return Path._derived(
            self.base, self.edges + tail, self._edge_ids() + other._key[1][k:]
        )

    def sort_key(self):
        return self._key

    def render(self):
        return ".".join(self._key[1])

    def __eq__(self, other):
        # Most unequal paths differ in their keys. Equal keys give equal base
        # ids to vertex paths, and an edge path's base is its first edge's
        # source, so the edges decide the rest. They compare as tuples, so an
        # equal twin edge of another graph still compares equal.
        if self is other:
            return True
        return isinstance(other, Path) and self._key == other._key and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Path({self.render()})"


def is_initial_subpath(a, b):
    """True when a is an initial subpath of b; a vertex qualifies at b's source.

    Edge paths are compared by their edge ids, which is exact for two paths
    of one graph: its ids are unique across vertices and edges, so a vertex
    path's id key never matches an edge id. The package's one caller,
    ``epsilon._one_sided_unit``, holds such paths: the support of
    one element. (``algebra._mono_product`` makes the same key comparison
    inline, once per product.)
    """
    if not a.edges:
        source = b.base
        return a.base is source or a.base.id == source.id
    return b._key[1][: len(a.edges)] == a._key[1]


class Graph:
    """Immutable directed graph with optional infinite-emitter flags.

    The one graph validator: in the order given it checks each vertex
    (duplicate id), then each edge (duplicate id, source, range declared),
    then each flag (declared, two listed edges), and raises GraphError with
    the first bad argument as culprit; it sorts by id only after that.
    """

    def __init__(self, vertices, edges, infinite_emitters=()):
        self._vertex_by_id = {}
        for v in vertices:
            if v.id in self._vertex_by_id:
                raise GraphError(f"duplicate id {v.id!r}", v)
            self._vertex_by_id[v.id] = v
        self._edge_by_id = {}
        out = {vid: [] for vid in self._vertex_by_id}
        for e in edges:
            if e.id in self._vertex_by_id or e.id in self._edge_by_id:
                raise GraphError(f"duplicate id {e.id!r}", e)
            for endpoint in (e.source, e.range):
                if self._vertex_by_id.get(endpoint.id) != endpoint:
                    raise GraphError(
                        f"edge endpoint {endpoint.id!r} is not a declared vertex", endpoint
                    )
            self._edge_by_id[e.id] = e
            out[e.source.id].append(e)

        flagged = set()
        for item in infinite_emitters:
            vid = item.id if isinstance(item, Vertex) else item
            if vid not in self._vertex_by_id:
                raise GraphError(f"flagged vertex {vid!r} is not declared", item)
            if len(out[vid]) < 2:
                raise GraphError(
                    f"infinite emitter {vid!r} needs at least 2 listed sample edges", item
                )
            flagged.add(vid)
        self.infinite_emitters = frozenset(self._vertex_by_id[v] for v in flagged)

        self.vertices = tuple(sorted(self._vertex_by_id.values(), key=lambda v: v.id))
        self.edges = tuple(sorted(self._edge_by_id.values(), key=lambda e: e.id))
        self._out = {vid: tuple(sorted(es, key=lambda e: e.id)) for vid, es in out.items()}
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
        the bound extends the output without reordering it. No sort is
        needed: length 1 is the edges in id order, and each longer level
        extends the level before, in order, by out-edges in id order. That
        is sorted, since the level before is and one path's extensions share
        it as their prefix.
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        paths = [Path(v) for v in self.vertices]
        start = {p.base.id: p for p in paths}
        level = [start[e.source.id].extended(e) for e in self.edges] if max_len else []
        while level:
            paths.extend(level)
            if level[0].length == max_len:
                break
            level = [p.extended(e) for p in level for e in self._out[p.range.id]]
        return tuple(paths)

    def __repr__(self):
        flags = f", flagged={sorted(v.id for v in self.infinite_emitters)}" if self.infinite_emitters else ""
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges{flags})"


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int


# one match per token or run of whitespace: an id, '->' or one of '{}:;'
# (its own kind), else the unexpected character
_TOKEN_RE = re.compile(r"\s+|([A-Za-z][A-Za-z0-9_]*)|(->|[{}:;])|(.)")


def _tokenize(text):
    tokens = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        for m in _TOKEN_RE.finditer(raw.split("#", 1)[0]):
            kind = m.lastindex
            if kind is None:
                continue
            value = m.group()
            if kind == 3:
                raise GraphSyntaxError(f"unexpected character {value!r}", line_no, m.start() + 1)
            tokens.append(_Token("id" if kind == 1 else value, value, line_no, m.start() + 1))
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

    def at_name(self):
        """Whether the next token is an id that is not a reserved word."""
        tok = self.peek()
        return tok.kind == "id" and tok.value not in _KEYWORDS


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

    The parser only parses and locates: it builds one object per declaration
    token and lets ``Graph`` validate them, then raises the GraphError of
    the first bad declaration as a GraphSyntaxError at its culprit's token.
    """
    p = _Parser(_tokenize(text))
    braced = False
    if p.peek().kind == "id" and p.peek().value == "graph":
        p.next()
        p.expect("id", "a graph name")
        p.expect("{")
        braced = True

    vertices, edge_decls, flags = [], [], []
    token_of = {}  # one object per declaration token: its id() -> the token

    def declare(obj, tok):
        token_of[id(obj)] = tok
        return obj

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
        if tok.kind != "id" or tok.value not in _SECTIONS:
            p.fail("a section keyword (vertices, edges, infinite)")
        section = p.next().value
        if p.peek().kind == ":":
            p.next()
        if section == "edges":
            while p.at_name() and p.peek(1).kind == ":":
                eid = p.next()
                p.expect(":")
                src = p.expect("id", "a source vertex")
                p.expect("->", "'->'")
                rng = p.expect("id", "a range vertex")
                p.expect(";", "';' closing the edge declaration")
                edge_decls.append((eid, src, rng))
            continue
        # vertices and infinite are id lists; a flag list may not be empty
        if section == "infinite" and not p.at_name():
            p.fail("a vertex id")
        ids = vertices if section == "vertices" else flags
        while p.at_name():
            tok = p.next()
            ids.append(declare(Vertex(tok.value), tok))
        p.expect(";", f"';' closing the {section} section")

    # an endpoint is the declared vertex of its id itself, else its own Vertex
    declared = {v.id: v for v in vertices}

    def endpoint(tok):
        return declared.get(tok.value) or declare(Vertex(tok.value), tok)

    edges = [declare(Edge(eid.value, endpoint(src), endpoint(rng)), eid) for eid, src, rng in edge_decls]
    try:
        return Graph(vertices, edges, flags)
    except GraphError as exc:
        tok = token_of[id(exc.culprit)]
        raise GraphSyntaxError(str(exc), tok.line, tok.column) from None
