"""Shared graph fixtures and independent brute-force oracles.

The oracles recompute expected values with set-based logic that shares no
code with the library paths they check.
"""

from leavitt import Element, Monomial, parse_element

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
