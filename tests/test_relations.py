"""Metamorphic relations of the local identities, which need no oracle.

Renaming a graph's ids and shuffling its declaration order changes no
verdict and no minimal class, and each local identity e_g follows the ids.
The designated edge of a vertex is its smallest edge id, so a renaming
moves it; e_g is compared after ``Element.from_terms`` in the renamed graph
brings it to the normal form there. A disjoint union E + F has
e_g(E + F) = e_g(E) + e_g(F), at every bound, since no path crosses a
component: its degree verdict is PRESENT when both are, ABSENT when either
is, and UNDETERMINED otherwise. An automorphism sigma of the group gives the
degree map sigma.deg, whose degree sigma(g) holds exactly the monomials of
degree g, so its epsilon at sigma(g) is epsilon_g, with the same classes.
The gradings run over Z, Z/3, Z^2 and the nonabelian S3, whose inner
automorphisms (conjugation by each element) keep the order of the factors.

An out-split F of E at a vertex v splits v's out-edges into blocks, one
vertex v_i per block: each out-edge of v leaves the v_i of its block, and
each edge e into v is copied once per v_i, as e_i into v_i, with e's degree.
The map phi with phi(v) = sum v_i, phi(e) = sum e_i for e into v, and every
other vertex and edge kept is a graded isomorphism L(E) -> L(F), so it
carries e_g(E) to e_g(F). The bounded verdicts agree as well: paths of F
correspond to paths of E length for length and degree for degree, one per
copy when the path ends at v, so realization and the frontier correspond.
"""

from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    INTEGERS,
    CyclicGroup,
    DegreeMap,
    Edge,
    Element,
    Graph,
    IntegerGroup,
    IntegerModRing,
    IntegerTupleGroup,
    Monomial,
    Path,
    Vertex,
    epsilon,
)

from .test_path_table import S3

Z2 = IntegerTupleGroup(2)
Z2_DEGREES = st.tuples(st.integers(-1, 1), st.integers(-1, 1))

# group, edge degrees drawn from, degrees g checked
GRADINGS = {
    "Z": (IntegerGroup(), st.integers(-2, 2), range(-3, 4)),
    "Z/3": (CyclicGroup(3), st.integers(0, 2), range(3)),
    "Z^2": (Z2, Z2_DEGREES, Z2.window(-1, 1)),
    "S3": (S3, st.sampled_from(S3.symbols), S3.elements()),
}
RINGS = st.sampled_from([INTEGERS, IntegerModRing(3)])

# group, edge degrees drawn from, degrees g checked, an automorphism
AUTOMORPHISMS = {
    "Z, negation": (IntegerGroup(), st.integers(-2, 2), range(-3, 4), lambda g: -g),
    "Z/3, doubling": (CyclicGroup(3), st.integers(0, 2), range(3), lambda g: 2 * g % 3),
    "Z/5, doubling": (CyclicGroup(5), st.integers(0, 4), range(5), lambda g: 2 * g % 5),
    "Z^2, coordinate swap": (Z2, Z2_DEGREES, Z2.window(-1, 1), lambda g: (g[1], g[0])),
    **{
        f"S3, conjugation by {x}": (
            S3, st.sampled_from(S3.symbols), S3.elements(), lambda g, x=x: S3.op(S3.op(x, g), S3.inverse(x))
        )
        for x in S3.symbols
    },
}

# new ids for the at most seven ids of one graph, in every lexical order
NAMES = ("a", "b", "b1", "c_", "Q", "x9", "y", "z")


@st.composite
def graph_specs(draw):
    """(vertex ids, (edge id, source id, range id) triples, flagged ids) of a
    graph on up to three vertices with up to four edges; a vertex that emits
    two or more edges may be flagged."""
    n = draw(st.integers(1, 3))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    emitters = sorted({s for s, _ in ends if sum(x == s for x, _ in ends) >= 2})
    flags = [f"v{s}" for s in emitters if draw(st.booleans())]
    edges = [(f"e{i}", f"v{s}", f"v{t}") for i, (s, t) in enumerate(ends)]
    return [f"v{i}" for i in range(n)], edges, flags


def build(vertex_ids, edges, flags, name=str):
    """The graph of a spec, declared in the order given, each id renamed."""
    vertices = {v: Vertex(name(v)) for v in vertex_ids}
    return Graph(
        list(vertices.values()),
        [Edge(name(e), vertices[s], vertices[t]) for e, s, t in edges],
        [vertices[v] for v in flags],
    )


def carried(x, graph, name=str):
    """The element of graph whose raw terms are x's with every id renamed."""

    def path(p):
        return Path(graph.vertex(name(p.base.id)), [graph.edge(name(e.id)) for e in p.edges])

    terms = [(Monomial(path(m.alpha), path(m.beta)), c) for m, c in x.terms.items()]
    return Element.from_terms(graph, x.ring, terms)


def class_paths(rep, name=str):
    """The real path of each minimal class: its renamed source and edge ids."""
    return {tuple(map(name, [c.alpha.base.id] + [e.id for e in c.alpha.edges])) for c in rep.minimal.classes}


@settings(max_examples=150, deadline=None)
@given(
    spec=graph_specs(),
    grading=st.sampled_from(sorted(GRADINGS)),
    bound=st.integers(1, 3),
    ring=RINGS,
    data=st.data(),
)
def test_renaming_ids_and_reordering_declarations_carries_every_epsilon(spec, grading, bound, ring, data):
    vertex_ids, edges, flags = spec
    group, edge_degree, window = GRADINGS[grading]
    degrees = {e: data.draw(edge_degree) for e, _, _ in edges}
    new = dict(zip(vertex_ids + [e for e, _, _ in edges], data.draw(st.permutations(NAMES))))
    graph = build(vertex_ids, edges, flags)
    renamed = build(
        data.draw(st.permutations(vertex_ids)), data.draw(st.permutations(edges)), flags, new.get
    )
    dm = DegreeMap(graph, group, degrees)
    dm_renamed = DegreeMap(renamed, group, {new[e]: d for e, d in degrees.items()})
    for g in window:
        rep, rep_renamed = epsilon(g, dm, bound, ring), epsilon(g, dm_renamed, bound, ring)
        assert rep_renamed.minimal.verdict == rep.minimal.verdict, g
        assert rep_renamed.identity_checked_on == rep.identity_checked_on, g
        assert class_paths(rep_renamed) == class_paths(rep, new.get), g
        if rep.present:
            assert rep_renamed.epsilon == carried(rep.epsilon, renamed, new.get), g


@settings(max_examples=150, deadline=None)
@given(
    spec=graph_specs(),
    automorphism=st.sampled_from(sorted(AUTOMORPHISMS)),
    bound=st.integers(1, 3),
    ring=RINGS,
    data=st.data(),
)
def test_a_group_automorphism_carries_every_epsilon_to_its_image_degree(spec, automorphism, bound, ring, data):
    group, edge_degree, window, sigma = AUTOMORPHISMS[automorphism]
    graph = build(*spec)
    degrees = {e.id: data.draw(edge_degree) for e in graph.edges}
    dm = DegreeMap(graph, group, degrees)
    dm_image = DegreeMap(graph, group, {e: sigma(d) for e, d in degrees.items()})
    for g in window:
        rep, rep_image = epsilon(g, dm, bound, ring), epsilon(sigma(g), dm_image, bound, ring)
        assert rep_image.minimal.verdict == rep.minimal.verdict, g
        assert [c.alpha for c in rep_image.minimal.classes] == [c.alpha for c in rep.minimal.classes], g
        assert rep_image.identity_checked_on == rep.identity_checked_on, g
        assert rep_image.epsilon == rep.epsilon, g


@settings(max_examples=150, deadline=None)
@given(
    left=graph_specs(),
    right=graph_specs(),
    grading=st.sampled_from(sorted(GRADINGS)),
    bound=st.integers(1, 3),
    ring=RINGS,
    data=st.data(),
)
def test_epsilon_of_a_disjoint_union_is_the_sum_over_its_components(left, right, grading, bound, ring, data):
    group, edge_degree, window = GRADINGS[grading]

    def right_id(i):
        return "r" + i

    specs = ((left, str), (right, right_id))
    degrees = {name(e): data.draw(edge_degree) for (_, edges, _), name in specs for e, _, _ in edges}
    parts = [build(*spec, name) for spec, name in specs]
    union = build(
        [name(v) for (vertex_ids, _, _), name in specs for v in vertex_ids],
        [tuple(map(name, e)) for (_, edges, _), name in specs for e in edges],
        [name(v) for (_, _, flags), name in specs for v in flags],
    )
    part_maps = [DegreeMap(p, group, {e.id: degrees[e.id] for e in p.edges}) for p in parts]
    union_map = DegreeMap(union, group, degrees)
    for g in window:
        reps = [epsilon(g, dm, bound, ring) for dm in part_maps]
        whole = epsilon(g, union_map, bound, ring)
        verdicts = {rep.verdict for rep in reps}
        if verdicts == {"PRESENT"}:
            assert whole.verdict == "PRESENT", g
            assert whole.epsilon == carried(reps[0].epsilon, union) + carried(reps[1].epsilon, union), g
        else:
            assert whole.verdict == ("ABSENT" if "ABSENT" in verdicts else "UNDETERMINED"), g


@st.composite
def split_specs(draw):
    """(vertex ids, edge triples, v, first block) of a graph on up to three
    vertices with up to four edges and no flag, where v emits two or more
    edges and the first block is a proper nonempty subset of them."""
    n = draw(st.integers(1, 3))
    end = st.integers(0, n - 1)
    v = draw(end)
    ends = [(v, draw(end)), (v, draw(end))] + draw(st.lists(st.tuples(end, end), max_size=2))
    edges = [(f"e{i}", f"v{s}", f"v{t}") for i, (s, t) in enumerate(draw(st.permutations(ends)))]
    out = [e for e, s, _ in edges if s == f"v{v}"]
    first = draw(st.sets(st.sampled_from(out), min_size=1, max_size=len(out) - 1))
    return [f"v{i}" for i in range(n)], edges, f"v{v}", first


def out_split(vertex_ids, edges, v, first):
    """The vertex ids and edge triples of F, and the ids that each vertex and
    edge of E becomes: v becomes v1, left by the first block, and v2, left
    by the rest; an edge e into v becomes e1 into v1 and e2 into v2."""
    copies = {w: [w] for w in vertex_ids}
    copies[v] = [v + "1", v + "2"]
    split_edges = []
    for e, s, t in edges:
        source = s if s != v else v + ("1" if e in first else "2")
        copies[e] = [e] if t != v else [e + "1", e + "2"]
        split_edges += [(c, source, r) for c, r in zip(copies[e], copies[t])]
    split_vertices = [w for u in vertex_ids for w in copies[u]]
    return split_vertices, split_edges, copies


def split_image(x, split, copies):
    """phi(x) in L(F), by Element arithmetic: phi(a b*) = phi(a) phi(b)*."""
    ring = x.ring
    zero = Element.zero(split, ring)

    def edge(c):
        return Element.real_path(split, ring, Path(None, [split.edge(c)]))

    def phi(p):
        if p.is_vertex():
            return sum((Element.vertex(split, ring, w) for w in copies[p.base.id]), zero)
        return reduce(Element.__mul__, [sum(map(edge, copies[e.id]), zero) for e in p.edges])

    return sum(((phi(m.alpha) * phi(m.beta).involution()).scaled(c) for m, c in x.terms.items()), zero)


# group, edge degrees drawn from, degrees g checked
SPLIT_GRADINGS = {
    "Z": (IntegerGroup(), st.integers(-1, 2), range(-3, 4)),
    "Z/3": (CyclicGroup(3), st.integers(0, 2), range(3)),
}


@settings(max_examples=150, deadline=None)
@given(spec=split_specs(), grading=st.sampled_from(sorted(SPLIT_GRADINGS)), ring=RINGS, data=st.data())
def test_an_out_split_carries_every_epsilon_and_verdict(spec, grading, ring, data):
    vertex_ids, edges, v, first = spec
    group, edge_degree, window = SPLIT_GRADINGS[grading]
    degrees = {e: data.draw(edge_degree) for e, _, _ in edges}
    split_vertices, split_edges, copies = out_split(vertex_ids, edges, v, first)
    graph, split = build(vertex_ids, edges, []), build(split_vertices, split_edges, [])
    dm = DegreeMap(graph, group, degrees)
    dm_split = DegreeMap(split, group, {c: degrees[e] for e in degrees for c in copies[e]})
    for bound in (1, 2, 3):
        for g in window:
            rep, rep_split = epsilon(g, dm, bound, ring), epsilon(g, dm_split, bound, ring)
            assert rep_split.verdict == rep.verdict, (g, bound)
            if rep.present:
                assert rep_split.epsilon == split_image(rep.epsilon, split, copies), (g, bound)
