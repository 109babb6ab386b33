"""The shared table of paths up to a bound with their degrees, and its readers."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from leavitt import (
    CyclicGroup,
    DegreeMap,
    Graph,
    IntegerGroup,
    IntegerTupleGroup,
    Monomial,
    check_epsilon_strong,
    enumerate_monomials,
    enumerate_Xg,
    minimal_classes,
    parse_graph,
    parse_group_table,
)
from leavitt.sampling import realized_degrees

from .test_grading import s3_table_text
from .util import GRAPH_C, GRAPH_R3, brute_minimal_alphas, brute_monomials, brute_xg, brute_xg_alphas


def path_ids(path):
    return (path.source.id, tuple(e.id for e in path.edges), path.range.id)


def monomial_degrees(degree_map, bound):
    """Degrees of all normal monomials within the bound, one by one."""
    degrees = {degree_map.degree_of(m) for m in enumerate_monomials(degree_map.graph, bound)}
    return sorted(degrees, key=degree_map.group.sort_key)


@st.composite
def z_graded_graphs(draw):
    """A graph on up to three vertices with up to four edges, loops and
    parallel edges allowed, each edge of integer degree in -2..2."""
    n = draw(st.integers(1, 3))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=4)
    )
    text = "vertices " + " ".join(f"v{i}" for i in range(n)) + ";"
    if edges:
        text += " edges " + " ".join(f"e{i}: v{s} -> v{t};" for i, (s, t, _) in enumerate(edges))
    graph = parse_graph(text)
    degrees = {f"e{i}": d for i, (_, _, d) in enumerate(edges)}
    return graph, degrees


class TestPathTable:
    def test_built_once_per_bound(self, chain_graph):
        dm = DegreeMap.canonical(chain_graph)
        assert dm.path_table(3) is dm.path_table(3)
        assert dm.path_table(2) is not dm.path_table(3)

    def test_paths_degrees_and_buckets_under_a_nonabelian_grading(self, chain_graph):
        group = parse_group_table(s3_table_text())
        dm = DegreeMap(chain_graph, group, {"f1": "s3", "f2": "s4", "f3": "s1", "f4": "s2"})
        table = dm.path_table(3)
        assert table.paths == chain_graph.enumerate_paths(3)
        assert table.degree == {p: dm.degree_of_path(p) for p in table.paths}
        total = 0
        for (vid, d), split in table.levels.items():
            assert len(split) == 4
            flat = [p for level in split for p, _ in level]
            assert flat == [p for p in table.paths if p.range.id == vid and table.degree[p] == d]
            total += len(flat)
            for length, level in enumerate(split):
                for p, last in level:
                    assert p.length == length and last is table.designated[p]
        assert total == len(table.paths)
        for p in table.paths:
            # p p* is the one pair whose last edges always agree
            assert (table.designated[p] is None) == Monomial(p, p).is_normal(chain_graph)
            assert table.designated[p] in (None, p.edges[-1] if p.edges else None)

    def test_realized_degrees_under_a_nonabelian_grading(self, graph_a):
        group = parse_group_table(s3_table_text())
        dm = DegreeMap(graph_a, group, {"e": "s1", "f": "s3"})
        for bound in (1, 2, 3):
            assert realized_degrees(dm, bound) == monomial_degrees(dm, bound)

    def test_epsilon_window_enumerates_paths_once(self, chain_graph, monkeypatch):
        bounds = []
        original = Graph.enumerate_paths

        def counting(self, max_len):
            bounds.append(max_len)
            return original(self, max_len)

        monkeypatch.setattr(Graph, "enumerate_paths", counting)
        report = check_epsilon_strong(DegreeMap.canonical(chain_graph), [-1, 0, 1], 4)
        assert report.verdict == "EPSILON_STRONG"
        assert bounds == [4]


@settings(max_examples=150, deadline=None)
@given(graded=z_graded_graphs(), bound=st.integers(1, 3), g=st.integers(-4, 4))
def test_readers_match_brute_force_on_random_integer_gradings(graded, bound, g):
    graph, degrees = graded
    dm = DegreeMap(graph, IntegerGroup(), degrees)
    xg = {path_ids(m.alpha) for m in enumerate_Xg(g, dm, bound)}
    assert xg == brute_xg_alphas(graph, degrees, g, bound, normal_only=True)
    minimal = {path_ids(c.alpha) for c in minimal_classes(g, dm, bound).classes}
    assert minimal == brute_minimal_alphas(graph, degrees, g, bound)
    assert realized_degrees(dm, bound) == monomial_degrees(dm, bound)


S3 = parse_group_table(s3_table_text())

# (group, edge degrees drawn from, degrees g drawn from)
GRADINGS = {
    "Z": (IntegerGroup(), st.integers(-2, 2), st.integers(-3, 3)),
    "Z^2": (
        IntegerTupleGroup(2),
        st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    ),
    "Z/3": (CyclicGroup(3), st.integers(0, 2), st.integers(0, 2)),
    "S3": (S3, st.sampled_from(S3.symbols), st.sampled_from(S3.symbols)),
}


@st.composite
def graded_cases(draw):
    """A graph on up to three vertices with up to four edges, a vertex
    flagged when it emits two or more, a grading by Z, Z^2, Z/3 or the S3
    Cayley table, and one degree g of that group."""
    group, edge_degree, element = GRADINGS[draw(st.sampled_from(sorted(GRADINGS)))]
    n = draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    text = "vertices " + " ".join(f"v{i}" for i in range(n)) + ";"
    if edges:
        text += " edges " + " ".join(f"e{i}: v{s} -> v{t};" for i, (s, t) in enumerate(edges))
    emitters = sorted({s for s, _ in edges if sum(1 for x, _ in edges if x == s) >= 2})
    if emitters and draw(st.booleans()):
        text += f" infinite v{draw(st.sampled_from(emitters))};"
    degrees = {f"e{i}": draw(edge_degree) for i in range(len(edges))}
    return DegreeMap(parse_graph(text), group, degrees), draw(element)


def xg_pairs(degree_map, g, bound):
    return [(path_ids(m.alpha), path_ids(m.beta)) for m in enumerate_Xg(g, degree_map, bound)]


@settings(max_examples=200, deadline=None)
@given(case=graded_cases(), bound=st.integers(0, 4))
def test_xg_is_the_brute_force_list_in_order(case, bound):
    degree_map, g = case
    assert xg_pairs(degree_map, g, bound) == brute_xg(degree_map.graph, degree_map, g, bound)


@settings(max_examples=200, deadline=None)
@given(case=graded_cases(), bound=st.integers(0, 4))
def test_all_monomials_are_the_brute_force_list_in_order(case, bound):
    # the oracle of realized_degrees above reads enumerate_monomials, which
    # shares the path table with the code it checks
    graph = case[0].graph
    listed = [(path_ids(m.alpha), path_ids(m.beta)) for m in enumerate_monomials(graph, bound)]
    assert listed == brute_monomials(graph, bound)


@pytest.mark.parametrize("bound", range(5))
def test_xg_of_the_flagged_graph_in_order(bound):
    dm = DegreeMap.canonical(parse_graph(GRAPH_C))
    for g in range(-2, 3):
        assert xg_pairs(dm, g, bound) == brute_xg(dm.graph, dm, g, bound)


def test_xg_builds_only_the_monomials_it_returns(monkeypatch):
    dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
    dm.path_table(5)
    built = []
    original = Monomial.__init__

    def counting(self, alpha, beta):
        built.append(None)
        original(self, alpha, beta)

    monkeypatch.setattr(Monomial, "__init__", counting)
    for g in (-2, 0, 1):
        built.clear()
        xg = enumerate_Xg(g, dm, 5)
        assert xg and len(built) == len(xg)
