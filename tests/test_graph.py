import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    Edge,
    Graph,
    GraphError,
    GraphSyntaxError,
    Monomial,
    Path,
    Vertex,
    is_initial_subpath,
    parse_graph,
)
from leavitt.algebra import _mono_product
from leavitt.graph import _tokenize

from .util import (
    GRAPH_A,
    GRAPH_C,
    GRAPH_CHAIN,
    SINGLE_VERTEX,
    brute_out_degree,
    brute_paths,
    reference_graph_tokens,
    reference_parse_graph,
)


class TestParse:
    def test_smallest_valid_graph(self):
        g = parse_graph(SINGLE_VERTEX)
        assert [v.id for v in g.vertices] == ["v"]
        assert g.edges == ()
        assert not g.infinite_emitters

    def test_chain(self, chain_graph):
        assert sorted(v.id for v in chain_graph.vertices) == ["v1", "v2", "v3", "v4", "v5"]
        assert sorted(e.id for e in chain_graph.edges) == ["f1", "f2", "f3", "f4"]
        assert sorted(v.id for v in chain_graph.sinks()) == ["v1", "v3"]
        f1 = chain_graph.edge("f1")
        assert f1.source.id == "v2" and f1.range.id == "v1"

    def test_graph_c_flags(self, graph_c):
        assert {v.id for v in graph_c.infinite_emitters} == {"v1"}
        assert len(graph_c.out_edges(graph_c.vertex("v1"))) == 3

    def test_comments_and_whitespace(self):
        g = parse_graph("# heading\nvertices a   b;#tail\nedges: x: a->b;;")
        assert sorted(v.id for v in g.vertices) == ["a", "b"]
        assert g.edge("x").range.id == "b"

    def test_syntax_error_position(self):
        with pytest.raises(GraphSyntaxError) as err:
            parse_graph("vertices a b\nedges;")
        assert err.value.line == 2
        assert "';'" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(GraphSyntaxError) as err:
            parse_graph("vertices a $ b;")
        assert err.value.line == 1 and err.value.column == 12

    def test_duplicate_vertex(self):
        with pytest.raises(GraphSyntaxError, match="duplicate id 'a'"):
            parse_graph("vertices a a;")

    def test_duplicate_edge_id_with_vertex(self):
        with pytest.raises(GraphSyntaxError, match="duplicate id 'a'"):
            parse_graph("vertices a b; edges a: a -> b;")

    def test_undeclared_endpoint(self):
        with pytest.raises(GraphSyntaxError, match="'c' is not a declared vertex"):
            parse_graph("vertices a b; edges x: a -> c;")

    def test_flag_needs_two_samples(self):
        with pytest.raises(GraphSyntaxError, match="at least 2 listed sample edges"):
            parse_graph("vertices a b; edges x: a -> b; infinite a;")

    def test_flag_undeclared(self):
        with pytest.raises(GraphSyntaxError, match="'z' is not declared"):
            parse_graph("vertices a; infinite z;")

    def test_missing_brace(self):
        with pytest.raises(GraphSyntaxError, match="'}'"):
            parse_graph("graph g { vertices a;")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("vertices a; }", "line 1, column 13: expected a section keyword, found '}'"),
            ("graph g { vertices a; } x", "line 1, column 25: expected end of input, found 'x'"),
        ],
        ids=["unwrapped", "after-wrapper"],
    )
    def test_a_closing_brace_needs_a_wrapper_and_ends_the_text(self, text, message):
        with pytest.raises(GraphSyntaxError) as err:
            parse_graph(text)
        assert str(err.value) == message


def _graph_outcome(parse, text):
    """The vertex, edge and flag ids of parse(text), or its error and position."""
    try:
        g = parse(text)
    except GraphSyntaxError as exc:
        return (str(exc), exc.line, exc.column)
    return (
        [v.id for v in g.vertices],
        [(e.id, e.source.id, e.range.id) for e in g.edges],
        sorted(v.id for v in g.infinite_emitters),
    )


_STRAY_GRAPH = "expected a section keyword (vertices, edges, infinite), found 'graph'"


def test_a_stray_graph_keyword_is_reported_at_itself():
    for text, column in [("vertices: a; graph x", 14), ("graph g { vertices: a; graph }", 24)]:
        with pytest.raises(GraphSyntaxError) as err:
            parse_graph(text)
        assert str(err.value) == f"line 1, column {column}: {_STRAY_GRAPH}"


def test_the_section_reader_parses_as_the_two_list_readers_did():
    """Seeded random texts parse as the earlier parser parsed them, except a
    stray ``graph`` keyword, now reported at itself, not at the token after."""
    rng = random.Random(33)
    words = ["graph", "vertices", "edges", "infinite", "a", "b", "c", "x", "{", "}", ":", ";", "->", "\n"]
    moved = 0
    for _ in range(20000):
        body = " ".join(rng.choice(words) for _ in range(rng.randrange(12)))
        text = f"graph g {{ {body}" if rng.random() < 0.3 else body
        got, expected = _graph_outcome(parse_graph, text), _graph_outcome(reference_parse_graph, text)
        if got == expected:
            continue
        # the earlier parser consumed the keyword and an optional ':' after
        # it, and reported the token that followed
        tokens = _tokenize(text)
        message, line, column = got
        assert message == f"line {line}, column {column}: {_STRAY_GRAPH}", text
        i = [(t.line, t.column) for t in tokens].index((line, column)) + 1
        after = tokens[i + 1] if tokens[i].kind == ":" else tokens[i]
        assert (after.line, after.column) == expected[1:], text
        moved += 1
    assert moved > 0


def _graph_scans(text):
    """The (kind, value, line, column) tokens of _tokenize and of the
    character scan, or each one's error message and position."""

    def scan(tokenize):
        try:
            return [(t.kind, t.value, t.line, t.column) for t in tokenize(text)]
        except GraphSyntaxError as exc:
            return (str(exc), exc.line, exc.column)

    try:
        expected = reference_graph_tokens(text)
    except GraphSyntaxError as exc:
        expected = (str(exc), exc.line, exc.column)
    return scan(_tokenize), expected


_GRAPH_TEXT = st.lists(
    st.sampled_from(
        ["a", "v1", "x_2", "Zq9", "graph", "edges", "->", "-", ">", "{", "}", ":", ";", "#",
         " ", "\t", "\n", "\n\n", "\r\n", "é", "²", "0", "17"]
    ),
    max_size=40,
).map("".join)


class TestTokens:
    """The one-pattern scan gives the character scan's tokens and errors."""

    @settings(max_examples=500, deadline=None)
    @given(text=_GRAPH_TEXT)
    def test_tokens_are_those_of_the_character_scan(self, text):
        got, expected = _graph_scans(text)
        assert got == expected

    def test_whitespace_is_what_isspace_says(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        for ch in spaces + ["\x00", "\x7f", "\u180e", "\u200b", "\ufeff"]:
            text = f"a{ch}b -> c"
            got, expected = _graph_scans(text)
            assert got == expected, repr(ch)

    @pytest.mark.parametrize(
        "text",
        ["", "\n\n", "# only a comment", "vertices a;  # tail", "a->b", "a - > b", "a-b", "é", "a²",
         "graph g {\n\tvertices: a b ;\n}\n", "x: a -> b;\r\ny: b -> a;"],
    )
    def test_pinned_texts(self, text):
        got, expected = _graph_scans(text)
        assert got == expected


def constructor_faults():
    """One Graph(...) argument list per raise site, with its culprit and message."""
    a, b, again, stray, sampled = Vertex("a"), Vertex("b"), Vertex("a"), Vertex("c"), Vertex("a")
    x, named_b, from_stray, to_stray = Edge("x", a, b), Edge("b", a, a), Edge("y", stray, a), Edge("y", a, stray)
    flags = ["z"]
    endpoint = "edge endpoint 'c' is not a declared vertex"
    return [
        pytest.param(([a, b, again], [x]), again, "duplicate id 'a'", id="duplicate-vertex"),
        pytest.param(([a, b], [x, named_b]), named_b, "duplicate id 'b'", id="duplicate-edge"),
        pytest.param(([a, b], [from_stray]), stray, endpoint, id="source"),
        pytest.param(([a, b], [to_stray]), stray, endpoint, id="range"),
        pytest.param(([a], [], flags), flags[0], "flagged vertex 'z' is not declared", id="flag"),
        pytest.param(
            ([a, b], [x], [sampled]), sampled, "infinite emitter 'a' needs at least 2 listed sample edges",
            id="flag-samples",
        ),
    ]


class TestConstructor:
    def test_programmatic(self):
        a, b = Vertex("a"), Vertex("b")
        g = Graph([a, b], [Edge("x", a, b)])
        assert g.sinks() == frozenset({b})

    def test_rejects_foreign_endpoint(self):
        a = Vertex("a")
        with pytest.raises(GraphError):
            Graph([a], [Edge("x", a, Vertex("zz"))])

    @pytest.mark.parametrize("args,culprit,message", constructor_faults())
    def test_each_check_names_its_culprit(self, args, culprit, message):
        with pytest.raises(GraphError) as err:
            Graph(*args)
        assert str(err.value) == message
        assert err.value.culprit is culprit

    def test_checks_run_in_the_order_given(self):
        # sorted by id, the first fault would be the one on 'a', then on 'x'
        a, b = Vertex("a"), Vertex("b")
        with pytest.raises(GraphError, match="duplicate id 'b'"):
            Graph([b, Vertex("b"), a, Vertex("a")], [])
        with pytest.raises(GraphError, match="endpoint 'q'"):
            Graph([a, b], [Edge("y", a, Vertex("q")), Edge("x", a, b), Edge("x", b, a)])


IDS = st.sampled_from("abcd")
DECLARATIONS = st.tuples(
    st.lists(IDS, max_size=3),
    st.lists(st.tuples(IDS, IDS, IDS), max_size=3),
    st.lists(IDS, max_size=2),
)


def render(vertex_ids, edge_decls, flag_ids):
    """The graph text, one declaration a line, and the (line, column) of
    each declaration's token, keyed as first_fault keys it."""
    lines, at = ["vertices"], {}
    for i, v in enumerate(vertex_ids):
        lines.append(v)
        at["vertex", i] = (len(lines), 1)
    lines += [";", "edges"]
    for j, (e, s, r) in enumerate(edge_decls):
        lines.append(f"{e}: {s} -> {r};")
        at["edge", j], at["source", j], at["range", j] = (len(lines), 1), (len(lines), 4), (len(lines), 9)
    if flag_ids:
        lines.append("infinite")
        for k, f in enumerate(flag_ids):
            lines.append(f)
            at["flag", k] = (len(lines), 1)
        lines.append(";")
    return "\n".join(lines), at


def first_fault(vertex_ids, edge_decls, flag_ids):
    """The message and key of the first bad declaration, in declaration
    order (vertices, edges, flags), or None."""
    ids = set()
    for i, v in enumerate(vertex_ids):
        if v in ids:
            return f"duplicate id {v!r}", ("vertex", i)
        ids.add(v)
    for j, (e, s, r) in enumerate(edge_decls):
        if e in ids:
            return f"duplicate id {e!r}", ("edge", j)
        ids.add(e)
        for end, v in (("source", s), ("range", r)):
            if v not in vertex_ids:
                return f"edge endpoint {v!r} is not a declared vertex", (end, j)
    for k, f in enumerate(flag_ids):
        if f not in vertex_ids:
            return f"flagged vertex {f!r} is not declared", ("flag", k)
        if sum(s == f for _, s, _ in edge_decls) < 2:
            return f"infinite emitter {f!r} needs at least 2 listed sample edges", ("flag", k)
    return None


@settings(max_examples=400, deadline=None)
@given(decls=DECLARATIONS)
def test_the_parser_and_the_validator_agree(decls):
    vertex_ids, edge_decls, flag_ids = decls
    text, at = render(*decls)

    def construct():
        edges = [Edge(e, Vertex(s), Vertex(r)) for e, s, r in edge_decls]
        return Graph([Vertex(v) for v in vertex_ids], edges, flag_ids)

    fault = first_fault(*decls)
    if fault is None:
        direct, parsed = construct(), parse_graph(text)
        assert parsed.vertices == direct.vertices and parsed.edges == direct.edges
        assert parsed.infinite_emitters == direct.infinite_emitters
        # each endpoint is the declared vertex object itself
        assert all(e.source is parsed.vertex(e.source.id) for e in parsed.edges)
        assert all(e.range is parsed.vertex(e.range.id) for e in parsed.edges)
        return
    message, key = fault
    with pytest.raises(GraphError) as direct:
        construct()
    with pytest.raises(GraphSyntaxError) as parsed:
        parse_graph(text)
    line, column = at[key]
    assert str(direct.value) == message
    assert str(parsed.value) == f"line {line}, column {column}: {message}"
    assert (parsed.value.line, parsed.value.column) == (line, column)


class TestQueries:
    def test_sinks_single_vertex(self):
        g = parse_graph(SINGLE_VERTEX)
        assert {v.id for v in g.sinks()} == {"v"}

    def test_sinks_graph_a_matches_brute_force(self, graph_a):
        expected = {v.id for v in graph_a.vertices if brute_out_degree(graph_a, v) == 0}
        assert expected == set() == {v.id for v in graph_a.sinks()}

    def test_unknown_vertex_id(self, chain_graph):
        with pytest.raises(GraphError, match=r"^unknown vertex 'nope'$"):
            chain_graph.vertex("nope")

    def test_regular_chain(self, chain_graph):
        assert {v.id for v in chain_graph.regular_vertices()} == {"v2", "v4", "v5"}

    def test_regular_graph_c(self, graph_c):
        assert graph_c.regular_vertices() == frozenset()

    def test_regular_no_edges(self):
        g = parse_graph("vertices a b;")
        assert g.regular_vertices() == frozenset()

    def test_special_edge(self, chain_graph, graph_c):
        assert chain_graph.special_edge(chain_graph.vertex("v2")).id == "f1"
        assert chain_graph.special_edge(chain_graph.vertex("v1")) is None
        assert graph_c.special_edge(graph_c.vertex("v1")) is None


class TestPaths:
    def test_enumerate_length_zero(self, chain_graph):
        assert [p.render() for p in chain_graph.enumerate_paths(0)] == [
            "v1",
            "v2",
            "v3",
            "v4",
            "v5",
        ]

    def test_enumerate_chain(self, chain_graph):
        got = [p.render() for p in chain_graph.enumerate_paths(2)]
        assert len(got) == 10
        assert got[-1] == "f4.f3"
        brute = brute_paths(chain_graph, 2)
        assert len(brute) == 10
        assert {(p.source.id, tuple(e.id for e in p.edges), p.range.id) for p in chain_graph.enumerate_paths(2)} == brute

    def test_enumerate_graph_a_order(self, graph_a):
        assert [p.render() for p in graph_a.enumerate_paths(2)] == [
            "v",
            "w",
            "e",
            "f",
            "e.e",
            "f.e",
        ]

    def test_prefix_stability(self, chain_graph, graph_a):
        for g in (chain_graph, graph_a):
            shorter = g.enumerate_paths(2)
            longer = g.enumerate_paths(3)
            assert longer[: len(shorter)] == shorter

    def test_composability_invariant(self, graph_a, chain_graph):
        for g in (graph_a, chain_graph):
            for p in g.enumerate_paths(4):
                for a, b in zip(p.edges, p.edges[1:]):
                    assert a.range == b.source

    def test_negative_bound_rejected(self, chain_graph):
        with pytest.raises(ValueError):
            chain_graph.enumerate_paths(-1)

    def test_a_path_needs_a_base_or_an_edge(self):
        with pytest.raises(GraphError, match=r"^a path needs a base vertex or at least one edge$"):
            Path(None)

    def test_bad_path_construction(self, chain_graph):
        with pytest.raises(GraphError):
            Path(chain_graph.vertex("v1"), (chain_graph.edge("f1"),))
        with pytest.raises(GraphError):
            Path(None, (chain_graph.edge("f1"), chain_graph.edge("f3")))


class TestInitialSubpath:
    def test_prefix_vertex_and_edge_cases(self, chain_graph):
        f4 = Path(None, (chain_graph.edge("f4"),))
        f4f3 = Path(None, (chain_graph.edge("f4"), chain_graph.edge("f3")))
        assert is_initial_subpath(f4, f4f3)
        assert not is_initial_subpath(f4f3, f4)
        v2 = Path(chain_graph.vertex("v2"))
        f1 = Path(None, (chain_graph.edge("f1"),))
        f2 = Path(None, (chain_graph.edge("f2"),))
        assert is_initial_subpath(v2, f1)
        assert not is_initial_subpath(f1, f2)
        # equal vertices that are distinct objects still match
        assert is_initial_subpath(Path(Vertex("v2")), f1)
        assert not is_initial_subpath(Path(Vertex("v1")), f1)

    def test_reflexive_transitive(self, graph_a):
        paths = graph_a.enumerate_paths(3)
        for p in paths:
            assert is_initial_subpath(p, p)
        for a in paths:
            for b in paths:
                for c in paths:
                    if is_initial_subpath(a, b) and is_initial_subpath(b, c):
                        assert is_initial_subpath(a, c)


@st.composite
def small_graphs(draw):
    """A graph on up to three vertices with up to five edges, loops and
    parallel edges allowed."""
    n = draw(st.integers(1, 3))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    text = "vertices " + " ".join(f"v{i}" for i in range(n)) + ";"
    if ends:
        text += " edges " + " ".join(f"e{i}: v{s} -> v{t};" for i, (s, t) in enumerate(ends))
    return parse_graph(text)


@settings(max_examples=150, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_initial_subpath_by_ids_agrees_with_edge_tuples(graph, data):
    # the definition: a vertex at b's source, or b's edges start with a's
    paths = graph.enumerate_paths(3)
    a = data.draw(st.sampled_from(paths))
    b = data.draw(st.sampled_from(paths))
    for p, q in ((a, b), (b, a), (a, a), (a.prefix(0), b)):
        expected = q.edges[: p.length] == p.edges if p.edges else p.base == q.source
        assert is_initial_subpath(p, q) is expected


def full_check(base, edges):
    """The path, or the GraphError text, of a full check of the edge list."""
    try:
        return Path(base, edges)
    except GraphError as exc:
        return str(exc)


def same_path(derived, expected):
    assert isinstance(expected, Path), expected
    assert derived == expected and expected == derived
    assert hash(derived) == hash(expected)
    assert derived.sort_key() == expected.sort_key()
    assert derived.render() == expected.render()
    assert derived.source == expected.source and derived.range == expected.range


def same_outcome(build, expected):
    """build() gives the path that expected is, or raises its GraphError text."""
    if isinstance(expected, str):
        with pytest.raises(GraphError) as err:
            build()
        assert str(err.value) == expected
    else:
        same_path(build(), expected)


def old_mono_product(m1, m2):
    """The product as built before derived paths: a full check of the joined
    edge list."""
    b, a = m1.beta, m2.alpha
    if is_initial_subpath(b, a):
        return Monomial(Path(m1.alpha.base, m1.alpha.edges + a.edges[b.length :]), m2.beta)
    if is_initial_subpath(a, b):
        return Monomial(m1.alpha, Path(m2.beta.base, m2.beta.edges + b.edges[a.length :]))
    return None


class TestDerivedPaths:
    """prefix, extended and joined check only the new junction; each must
    agree with a full check of the same edge list."""

    @settings(max_examples=150, deadline=None)
    @given(graph=small_graphs(), data=st.data())
    def test_derived_paths_equal_paths_built_with_the_full_check(self, graph, data):
        paths = graph.enumerate_paths(3)
        for p in paths:
            same_path(p, Path(p.base, p.edges))
        p = data.draw(st.sampled_from(paths))
        q = data.draw(st.sampled_from(paths))
        for n in range(p.length + 2):
            same_path(p.prefix(n), Path(p.base, p.edges[:n]))
        for e in graph.edges:
            same_outcome(lambda: p.extended(e), full_check(p.base, p.edges + (e,)))
        for k in range(q.length + 2):
            same_outcome(lambda: p.joined(q, k), full_check(p.base, p.edges + q.edges[k:]))
        if p.edges:
            # derived from a derived path: the key of the parent is extended
            head = p.prefix(p.length - 1)
            same_path(head.extended(p.edges[-1]), p)
            same_path(head.prefix(0).joined(p, 0), p)

    @settings(max_examples=100, deadline=None)
    @given(graph=small_graphs(), data=st.data())
    def test_mono_product_matches_the_full_check(self, graph, data):
        paths = graph.enumerate_paths(3)
        by_range = {}
        for p in paths:
            by_range.setdefault(p.range, []).append(p)

        def monomial(firsts):
            a = data.draw(st.sampled_from(firsts))
            return Monomial(a, data.draw(st.sampled_from(by_range[a.range])))

        def vertex_at(v):
            # the graph's vertex path, or one on an equal but distinct Vertex
            return data.draw(st.sampled_from([Path(v), Path(Vertex(v.id))]))

        for _ in range(10):
            m1 = monomial(paths)
            if not data.draw(st.integers(0, 3)):
                m1 = Monomial(m1.alpha, vertex_at(m1.alpha.range))
            b = m1.beta
            # mostly a meeting path that b is a prefix of, or one that is a prefix of b
            linked = [p for p in paths if is_initial_subpath(b, p) or is_initial_subpath(p, b)]
            m2 = monomial(linked if data.draw(st.integers(0, 3)) else paths)
            if not data.draw(st.integers(0, 3)):
                m2 = Monomial(vertex_at(m2.beta.range), m2.beta)
            got, want = _mono_product(m1, m2), old_mono_product(m1, m2)
            assert got == want
            if got is not None:
                same_path(got.alpha, want.alpha)
                same_path(got.beta, want.beta)
                assert got.alpha.range == got.beta.range
                assert hash(got) == hash(want)

    def test_non_composing_junction_keeps_the_error_text(self, chain_graph):
        f1, f2, f3, f4 = (chain_graph.edge(f"f{i}") for i in range(1, 5))
        v1 = Path(chain_graph.vertex("v1"))
        with pytest.raises(GraphError, match="^path base v1 is not the source of edge f1$"):
            v1.extended(f1)
        with pytest.raises(GraphError, match="^edges f4 and f1 do not compose$"):
            Path(None, (f4,)).extended(f1)
        with pytest.raises(GraphError, match="^edges f2 and f3 do not compose$"):
            Path(None, (f2,)).joined(Path(None, (f4, f3)), 1)
        with pytest.raises(GraphError, match="^path base v1 is not the source of edge f2$"):
            v1.joined(Path(None, (f2,)), 0)
        # an edge list from outside is checked at every junction
        with pytest.raises(GraphError, match="^edges f3 and f2 do not compose$"):
            Path(None, (f4, f3, f2))


class TestAtomComparisons:
    """Junctions and vertex bases compare atoms by identity, then by id; an
    equal but distinct Vertex or Edge keeps its structural meaning."""

    def test_path_on_an_equal_vertex_extends_to_an_equal_path(self, chain_graph):
        for e in chain_graph.edges:
            own = Path(e.source).extended(e)
            twin = Path(Vertex(e.source.id)).extended(e)
            assert twin == own and hash(twin) == hash(own)
            assert twin.sort_key() == own.sort_key()

    def test_junction_over_equal_vertices_composes(self, chain_graph):
        f3, f4 = chain_graph.edge("f3"), chain_graph.edge("f4")
        # the twin's range is a Vertex distinct from f3's source, equal to it
        twin_f4 = Edge(f4.id, Vertex(f4.source.id), Vertex(f4.range.id))
        assert Path(None, (twin_f4,)).extended(f3) == Path(None, (f4, f3))

    def test_non_composing_atoms_keep_the_error_text(self, chain_graph):
        f1, f2, f4 = (chain_graph.edge(f"f{i}") for i in (1, 2, 4))
        with pytest.raises(GraphError, match="^path base v1 is not the source of edge f1$"):
            Path(Vertex("v1")).extended(f1)
        twin_f4 = Edge(f4.id, Vertex(f4.source.id), Vertex(f4.range.id))
        with pytest.raises(GraphError, match="^edges f4 and f1 do not compose$"):
            Path(None, (twin_f4,)).extended(f1)
        with pytest.raises(GraphError, match="^path base v1 is not the source of edge f2$"):
            Path(Vertex("v1")).joined(Path(None, (f2,)), 0)

    def test_path_equality_is_equality_of_base_and_edges(self, chain_graph):
        # a twin graph has equal but distinct atoms; in a moved one f1 keeps
        # its id and source but not its range, so path f1 keeps key and base
        twin = parse_graph(GRAPH_CHAIN)
        moved = parse_graph(GRAPH_CHAIN.replace("f1: v2 -> v1", "f1: v2 -> v5"))
        paths = [p for g in (chain_graph, twin, moved) for p in g.enumerate_paths(3)]
        for p in paths:
            assert p != p.render()
            for q in paths:
                assert (p == q) == (p.base == q.base and p.edges == q.edges)
