"""Shared graph fixtures and independent brute-force oracles.

The oracles recompute expected values with set-based logic that shares no
code with the library paths they check.
"""

from fractions import Fraction

from leavitt import (
    Edge,
    Element,
    ElementSyntaxError,
    Graph,
    GraphError,
    GraphSyntaxError,
    IntegerModRing,
    Monomial,
    RationalRing,
    Vertex,
    decompose,
    parse_element,
    projection_e,
)
from leavitt.graph import _tokenize

GRAPH_CHAIN = """
graph chain {
  vertices: v1 v2 v3 v4 v5 ;
  edges: f1: v2 -> v1; f2: v2 -> v3; f3: v4 -> v3; f4: v5 -> v4;
}
"""

GRAPH_A = "graph a { vertices: v w ; edges: e: v -> v; f: w -> v; }"

GRAPH_B = "graph b { vertices: u w ; edges: e: u -> u; f: u -> w; }"

GRAPH_C = """
graph c {
  vertices: v1 v2 ;
  edges: f1: v1 -> v2; f2: v1 -> v2; f3: v1 -> v2;
  infinite: v1;
}
"""

GRAPH_R3 = "graph r { vertices: a b c ; edges: x: a -> b; y: b -> c; z: c -> a; w: a -> a; t: b -> a; }"

SINGLE_VERTEX = "vertices v; edges;"


def brute_paths(graph, max_len):
    """All paths as (source id, edge id tuple, range id), by set extension."""
    out = {(v.id, (), v.id) for v in graph.vertices}
    frontier = set(out)
    for _ in range(max_len):
        nxt = set()
        for src, ids, rng in frontier:
            for e in graph.edges:
                if e.source.id == rng:
                    nxt.add((src, ids + (e.id,), e.range.id))
        if not nxt:
            break
        out |= nxt
        frontier = nxt
    return out


def brute_out_degree(graph, v):
    return sum(1 for e in graph.edges if e.source == v)


def brute_designated_edge(graph, vid):
    flagged = {v.id for v in graph.infinite_emitters}
    outs = sorted(e.id for e in graph.edges if e.source.id == vid)
    return outs[0] if outs and vid not in flagged else None


def brute_is_normal(graph, a_ids, b_ids):
    if not a_ids or not b_ids or a_ids[-1] != b_ids[-1]:
        return True
    source = next(e.source.id for e in graph.edges if e.id == a_ids[-1])
    return brute_designated_edge(graph, source) != a_ids[-1]


def brute_xg_alphas(graph, degree_by_edge, g, bound, normal_only=False):
    """Real paths of bounded monomials of integer degree g; any second path
    of matching range and complementary degree within the bound counts."""
    paths = brute_paths(graph, bound)
    degrees = {}
    for src, ids, rng in paths:
        degrees[(src, ids, rng)] = sum(degree_by_edge[i] for i in ids)
    alphas = set()
    for a in paths:
        for b in paths:
            if a[2] == b[2] and degrees[a] - degrees[b] == g:
                if normal_only and not brute_is_normal(graph, a[1], b[1]):
                    continue
                alphas.add(a)
                break
    return alphas


def brute_xg(graph, degree_map, g, bound):
    """X_g as an ordered list of (real path, ghost path) pairs of brute_paths
    triples: every pair of matching range whose degree, folded with the
    group's own operations from the edge degrees, is g, and that
    brute_is_normal accepts; sorted by total length, then the real path's
    (length, edge ids), then the ghost path's. A vertex path sorts by its id.
    """
    group = degree_map.group

    def degree(path):
        d = group.identity
        for eid in path[1]:
            d = group.op(d, degree_map.edge_degrees[eid])
        return d

    paths = brute_paths(graph, bound)
    degrees = {p: degree(p) for p in paths}
    return _in_monomial_order(
        (a, b)
        for a in paths
        for b in paths
        if a[2] == b[2]
        and group.op(degrees[a], group.inverse(degrees[b])) == g
        and brute_is_normal(graph, a[1], b[1])
    )


def brute_monomials(graph, bound):
    """All normal monomials within the bound as an ordered list of (real
    path, ghost path) pairs of brute_paths triples: every pair of matching
    range that brute_is_normal accepts, in brute_xg's order."""
    paths = brute_paths(graph, bound)
    return _in_monomial_order(
        (a, b) for a in paths for b in paths if a[2] == b[2] and brute_is_normal(graph, a[1], b[1])
    )


def _in_monomial_order(pairs):
    """Pairs sorted by total length, then the real path's (length, edge ids),
    then the ghost path's. A vertex path sorts by its id."""

    def key(path):
        src, ids, _ = path
        return (len(ids), ids or (src,))

    return sorted(pairs, key=lambda ab: (len(ab[0][1]) + len(ab[1][1]), key(ab[0]), key(ab[1])))


def brute_minimal_alphas(graph, degree_by_edge, g, bound):
    """Minimal realized real paths under the initial-subpath order."""
    alphas = brute_xg_alphas(graph, degree_by_edge, g, bound)

    def below(x, y):
        sx, ix, _ = x
        sy, iy, _ = y
        if not ix:
            return sx == sy
        return iy[: len(ix)] == ix

    return {a for a in alphas if not any(b != a and below(b, a) for b in alphas)}


def exact_minimal_classes(degree_map, g, bound):
    """The minimal classes of degree g within the bound with no bound on
    their partners, as the paths of length <= bound that are realized and
    have no realized proper prefix, in table order: length, then edge ids.
    Each path is its tuple of edge ids, a vertex path the 1-tuple of its id.

    A path ending at v with degree d is realized when the state
    (v, g^-1 d) is reached by a walk from some (u, identity), one edge at a
    time: the walk's partner path ends at v with that degree. Under a
    finite group every reachable (vertex, degree) state is searched. Under
    a Z map whose edge degrees share one sign a walk's degree is monotone,
    so only states between 0 and the farthest target are kept. Any other
    map raises. Reads the graph's ids, sources and ranges, the edge degrees,
    the group's op, inverse and identity, and whether the group is finite.
    """
    graph, group, degrees = degree_map.graph, degree_map.group, degree_map.edge_degrees
    ginv = group.inverse(g)

    def degree(ids):
        d = group.identity
        for eid in ids:
            d = group.op(d, degrees[eid])
        return d

    paths = brute_paths(graph, bound)
    target = {p: group.op(ginv, degree(p[1])) for p in paths}
    if group.is_finite:
        def keep(h):
            return True
    elif all(isinstance(d, int) for d in degrees.values()) and (
        all(d >= 0 for d in degrees.values()) or all(d <= 0 for d in degrees.values())
    ):
        sign = 1 if all(d >= 0 for d in degrees.values()) else -1
        farthest = max(sign * t for t in target.values())

        def keep(h):
            return 0 <= sign * h <= farthest
    else:
        raise ValueError("exact_minimal_classes needs a finite group or a one-signed Z map")

    reached = {(v.id, group.identity) for v in graph.vertices}
    todo = list(reached)
    while todo:
        vid, h = todo.pop()
        for e in graph.edges:
            if e.source.id != vid:
                continue
            state = (e.range.id, group.op(h, degrees[e.id]))
            if keep(state[1]) and state not in reached:
                reached.add(state)
                todo.append(state)
    realized = {(src, ids) for src, ids, rng in paths if (rng, target[(src, ids, rng)]) in reached}
    minimal = [
        (len(ids), ids or (src,))
        for src, ids in realized
        if not any((src, ids[:k]) in realized for k in range(len(ids)))
    ]
    return [path for _, path in sorted(minimal)]


def reference_tokens(text):
    """The element grammar's (kind, text, column) tokens, scanned one
    character at a time: every name is one "id" token, every symbol its
    own token, then eof; an unexpected character raises ElementSyntaxError."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            yield ("int", text[i:j], i + 1)
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("id", text[i:j], i + 1)
            i = j
            continue
        if ch in "+-*/.()":
            yield (ch, ch, i + 1)
            i += 1
            continue
        raise ElementSyntaxError(f"unexpected character {ch!r}", i + 1)
    yield ("eof", "", n + 1)


def reference_graph_tokens(text):
    """The graph language's (kind, value, line, column) tokens, scanned one
    character at a time: an id, '->' or one of '{}:;' (its own kind), then
    eof; '#' starts a comment and an unexpected character raises
    GraphSyntaxError."""
    tokens = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if ch.isascii() and ch.isalpha():
                end = col + 1
                while end < len(line) and line[end].isascii() and (line[end].isalnum() or line[end] == "_"):
                    end += 1
                tokens.append(("id", line[col:end], line_no, col + 1))
                col = end
                continue
            if line.startswith("->", col):
                tokens.append(("->", "->", line_no, col + 1))
                col += 2
                continue
            if ch in "{}:;":
                tokens.append((ch, ch, line_no, col + 1))
                col += 1
                continue
            raise GraphSyntaxError(f"unexpected character {ch!r}", line_no, col + 1)
    end_line = len(lines) if lines else 1
    end_col = len(lines[-1]) + 1 if lines else 1
    tokens.append(("eof", "", end_line, end_col))
    return tokens


def reference_parse_graph(text):
    """parse_graph as it read sections before one id-list reader served
    vertices and infinite: any reserved word passed the section test, so a
    stray ``graph`` in the body was consumed and the token after it reported.
    Returns the Graph, or raises the GraphSyntaxError of the first fault."""
    tokens = _tokenize(text)
    pos = 0

    def peek(ahead=0):
        return tokens[min(pos + ahead, len(tokens) - 1)]

    def take():
        nonlocal pos
        tok = peek()
        if tok.kind != "eof":
            pos += 1
        return tok

    def fail(expected):
        tok = peek()
        found = tok.value or "end of input"
        raise GraphSyntaxError(f"expected {expected}, found {found!r}", tok.line, tok.column)

    def expect(kind, expected=None):
        if peek().kind != kind:
            fail(expected or f"'{kind}'")
        return take()

    keywords = {"graph", "vertices", "edges", "infinite"}
    braced = False
    if peek().kind == "id" and peek().value == "graph":
        take()
        expect("id", "a graph name")
        expect("{")
        braced = True
    vertices, edge_decls, flags = [], [], []
    token_of = {}

    def declare(obj, tok):
        token_of[id(obj)] = tok
        return obj

    while True:
        tok = peek()
        if tok.kind == "eof":
            if braced:
                fail("'}'")
            break
        if tok.kind == "}":
            if not braced:
                fail("a section keyword")
            take()
            if peek().kind != "eof":
                fail("end of input")
            break
        if tok.kind == ";":
            take()
            continue
        if tok.kind != "id" or tok.value not in keywords:
            fail("a section keyword (vertices, edges, infinite)")
        keyword = take()
        if peek().kind == ":":
            take()
        if keyword.value == "vertices":
            while peek().kind == "id" and peek().value not in keywords:
                tok = take()
                vertices.append(declare(Vertex(tok.value), tok))
            expect(";", "';' closing the vertices section")
        elif keyword.value == "infinite":
            if peek().kind != "id" or peek().value in keywords:
                fail("a vertex id")
            while peek().kind == "id" and peek().value not in keywords:
                tok = take()
                flags.append(declare(Vertex(tok.value), tok))
            expect(";", "';' closing the infinite section")
        elif keyword.value == "edges":
            while peek().kind == "id" and peek().value not in keywords and peek(1).kind == ":":
                eid = take()
                expect(":")
                src = expect("id", "a source vertex")
                expect("->", "'->'")
                rng = expect("id", "a range vertex")
                expect(";", "';' closing the edge declaration")
                edge_decls.append((eid, src, rng))
        else:
            fail("a section keyword (vertices, edges, infinite)")

    declared = {v.id: v for v in vertices}

    def endpoint(tok):
        return declared.get(tok.value) or declare(Vertex(tok.value), tok)

    edges = [declare(Edge(eid.value, endpoint(src), endpoint(rng)), eid) for eid, src, rng in edge_decls]
    try:
        return Graph(vertices, edges, flags)
    except GraphError as exc:
        tok = token_of[id(exc.culprit)]
        raise GraphSyntaxError(str(exc), tok.line, tok.column) from None


def reference_expand_normal(graph, mono):
    """The Cuntz-Krieger expansion of a monomial, one rewrite at a time:
    while both paths end in one designated edge g, emit -(a.f)(b.f)* for
    each other edge f out of g's source, in out-edge order, and strip g
    from both; then emit the surviving pair with +1."""
    out = []
    alpha, beta = mono.alpha, mono.beta
    while alpha.edges and beta.edges:
        last = alpha.edges[-1]
        if beta.edges[-1].id != last.id:
            break
        special = graph.special_edge(last.source)
        if special is None or special.id != last.id:
            break
        alpha, beta = alpha.prefix(alpha.length - 1), beta.prefix(beta.length - 1)
        for f in graph.out_edges(last.source):
            if f.id != last.id:
                out.append((Monomial(alpha.extended(f), beta.extended(f)), -1))
    out.append((Monomial(alpha, beta), 1))
    return out


def elem(text, graph, ring):
    return parse_element(text, graph, ring)


def mono(graph, alpha_ids, beta_ids):
    """Monomial from edge id tuples; a lone vertex id stands for a vertex path."""
    from leavitt import Path

    def path(ids):
        if len(ids) == 1 and not any(e.id == ids[0] for e in graph.edges):
            return Path(graph.vertex(ids[0]))
        edges = [graph.edge(i) for i in ids]
        return Path(edges[0].source, edges)

    return Monomial(path(alpha_ids), path(beta_ids))


def monomial_element(graph, ring, m):
    return Element.monomial(graph, ring, m)


def brute_first_identity_failure(unit, side, monos):
    """The first monomial of monos that unit does not fix from the given
    side, or None, with the number fixed before it: one full product per
    monomial, no reduction to paths."""
    for count, m in enumerate(monos):
        e = Element.monomial(unit.graph, unit.ring, m)
        if (unit * e if side == "left" else e * unit) != e:
            return m, count
    return None, len(monos)


def reference_minimal_classes(degree_map, g, bound):
    """minimal_classes by a scan of its own, as (classes, verdict, witness).

    Each path's degree comes from degree_of_path and its parent's covered
    flag from a dict keyed by the rebuilt prefix path; a path is realized
    when some path of its range has degree g^-1 d, and its partner is the
    first such path in enumeration order. classes and witness hold (real
    path, ghost path) pairs; the witness is the first pair of classes that
    differ only at one edge, the two edges leaving one flagged vertex.
    """
    group, graph = degree_map.group, degree_map.graph
    ginv = group.inverse(g)
    paths = graph.enumerate_paths(bound)
    degree = {p: degree_map.degree_of_path(p) for p in paths}
    first = {}
    for p in paths:
        first.setdefault((p.range.id, degree[p]), p)
    covered = {}
    classes = []
    frontier_ok = True
    for p in paths:
        beta = first.get((p.range.id, group.op(ginv, degree[p])))
        parent_covered = p.length > 0 and covered[p.prefix(p.length - 1)]
        covered[p] = parent_covered or beta is not None
        if beta is not None and not parent_covered:
            classes.append((p, beta))
        if p.length == bound and not covered[p]:
            frontier_ok = False
    flagged = {v.id for v in graph.infinite_emitters}

    def siblings(a, b):
        diff = [k for k in range(a.length) if a.edges[k] != b.edges[k]] if a.length == b.length else []
        if len(diff) != 1:
            return False
        ea, eb = a.edges[diff[0]], b.edges[diff[0]]
        return ea.source == eb.source and ea.source.id in flagged

    witness = next(
        ((x, y) for i, x in enumerate(classes) for y in classes[i + 1:] if siblings(x[0], y[0])),
        None,
    )
    if witness:
        verdict = "infinite-witness"
    else:
        verdict = "complete" if frontier_ok else "bound-exhausted"
    return classes, verdict, witness


def reference_minimal_representatives(monos):
    """The representatives of a support's minimal real paths, by the rule
    that preceded the one-pass scan: sort by Monomial.sort_key, keep the
    first monomial per real path, drop every real path that has another one
    as a prefix, and sort what is left by real path."""

    def is_prefix(a, b):
        ids = [e.id for e in a.edges]
        return a.source.id == b.source.id and [e.id for e in b.edges[: len(ids)]] == ids

    first = {}
    for m in sorted(monos, key=Monomial.sort_key):
        first.setdefault(m.alpha, m)
    minimal = [a for a in first if not any(b is not a and is_prefix(b, a) for b in first)]
    return [first[a] for a in sorted(minimal, key=lambda p: p.sort_key())]


def reference_local_unit(graph, ring, representatives):
    """The sum of (a b*)(b a*) = a a* over the representatives a b*, by
    products and sums of elements."""
    unit = Element.zero(graph, ring)
    for rep in representatives:
        unit = unit + Element.monomial(graph, ring, rep) * Element.monomial(graph, ring, rep.involution())
    return unit


def reference_random_scalar(ring, rng):
    """A small nonzero scalar of the ring, by the dispatch on ring classes
    that preceded each ring's own random_scalar."""
    if isinstance(ring, IntegerModRing):
        return rng.randrange(1, ring.modulus)
    value = rng.choice([-3, -2, -1, 1, 2, 3])
    if isinstance(ring, RationalRing) and rng.random() < 0.5:
        return Fraction(value, rng.choice([2, 3]))
    return value


def reference_reproduction(system, s):
    """sum_j x_j E(y_j s) and sum_j E(s x_j) y_j by the definition: element
    products, projection_e and element sums, one pair at a time."""
    dm = system.degree_map
    left = right = Element.zero(dm.graph, system.ring)
    for x, y in system.pairs:
        left = left + x * projection_e(y * s, dm)
        right = right + projection_e(s * x, dm) * y
    return left, right


def reference_graded_reproduction(system, s):
    """Both sums of reference_reproduction, with each inner product made
    only of the homogeneous parts of its factors whose degrees multiply to
    the identity: element products of decompose parts of y_j and s (or of s
    and x_j), projection_e and element sums, then one element product by
    the outer factor per pair."""
    dm = system.degree_map
    group = dm.group
    zero = Element.zero(dm.graph, system.ring)
    sample_parts = decompose(s, dm).items()
    left = right = zero
    for x, y in system.pairs:
        inner_left = inner_right = zero
        for a, y_part in decompose(y, dm).items():
            for b, s_part in sample_parts:
                if group.op(a, b) == group.identity:
                    inner_left = inner_left + projection_e(y_part * s_part, dm)
        for a, x_part in decompose(x, dm).items():
            for b, s_part in sample_parts:
                if group.op(b, a) == group.identity:
                    inner_right = inner_right + projection_e(s_part * x_part, dm)
        left = left + x * inner_left
        right = right + inner_right * y
    return left, right


def reference_frobenius_witness(system, samples):
    """The witness of the first sample that either sum of
    reference_reproduction fails to reproduce, or None."""
    for s in samples:
        left, right = reference_reproduction(system, s)
        if left != s or right != s:
            which, got = ("x_j E(y_j s)", left) if left != s else ("E(s x_j) y_j", right)
            return {"element": str(s), "identity": which, "reconstructed": str(got)}
    return None
