"""The shared table of paths up to a bound with their degrees, and its readers."""

import itertools
import random
from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from leavitt import (
    INTEGERS,
    CyclicGroup,
    DegreeMap,
    Graph,
    GraphError,
    IntegerGroup,
    IntegerTupleGroup,
    Monomial,
    Path,
    check_epsilon_strong,
    enumerate_monomials,
    enumerate_Xg,
    minimal_classes,
    parse_graph,
    parse_group_table,
    random_element,
)
from leavitt.grading import count_Xg
from leavitt.sampling import realized_degrees

from .test_grading import s3_table_text
from .util import (
    GRAPH_C,
    GRAPH_R3,
    brute_minimal_alphas,
    brute_monomials,
    brute_xg,
    brute_xg_alphas,
    reference_minimal_classes,
)


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


def assert_columns(table, degree_map, bound):
    """Each positional column against the path at its position, and each
    key's first path and sizes against its levels."""
    n = len(table.paths)
    assert len(table.children) == len(table.key) == n
    listed = Counter(c for kids in table.children for c in kids)
    for i, p in enumerate(table.paths):
        kids = table.children[i]
        assert list(kids) == sorted(set(kids))
        for c in kids:
            assert table.paths[c].prefix(p.length) == p and table.paths[c].length == p.length + 1
        assert listed[i] == (0 if p.is_vertex() else 1)
        assert table.key[i] == (p.range.id, degree_map.degree_of_path(p))
    depth = table.paths[-1].length if n else 0
    graph = degree_map.graph
    for (vid, d), split in table.levels.items():
        assert len(split) == depth + 1
        flat = [p for level in split for p in level]
        short = sum(p.length < bound for p in flat)
        designated = graph.special_edge(graph.vertex(vid)) is not None
        assert table.first[vid, d] is flat[0]
        assert table.sizes[vid, d] == (len(flat), short if designated else 0)
    assert table.sizes.keys() == table.first.keys() == table.levels.keys()


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
        assert_columns(table, dm, 3)
        total = 0
        for (vid, d), split in table.levels.items():
            # the longest chain path has 2 edges, so levels stop below the bound
            assert len(split) == 2 + 1
            flat = [p for level in split for p in level]
            assert flat == [p for p, k in zip(table.paths, table.key) if k == (vid, d)]
            total += len(flat)
            for length, level in enumerate(split):
                for p in level:
                    assert p.length == length
        assert total == len(table.paths)

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
def graded_cases(draw, gradings=GRADINGS):
    """A graph on up to three vertices with up to four edges, a vertex
    flagged when it emits two or more, a grading by one of ``gradings`` (by
    default Z, Z^2, Z/3 or the S3 Cayley table), and one degree g of that
    group."""
    group, edge_degree, element = gradings[draw(st.sampled_from(sorted(gradings)))]
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
    checked, unchecked = Monomial.__init__, Monomial._same_range

    def counting_init(self, alpha, beta):
        built.append(None)
        checked(self, alpha, beta)

    def counting_same_range(alpha, beta):
        built.append(None)
        return unchecked(alpha, beta)

    monkeypatch.setattr(Monomial, "__init__", counting_init)
    monkeypatch.setattr(Monomial, "_same_range", staticmethod(counting_same_range))
    for g in (-2, 0, 1):
        built.clear()
        xg = enumerate_Xg(g, dm, 5)
        assert xg and len(built) == len(xg)


@settings(max_examples=300, deadline=None)
@given(case=graded_cases(), bound=st.integers(0, 5))
def test_count_xg_is_the_length_of_xg(case, bound):
    degree_map, g = case
    # four loops on one vertex give 1,365 paths and 1.7 million monomials
    # at bound 5; the oracle builds them all, so keep its lists small
    assume(len(degree_map.path_table(bound).paths) <= 400)
    assert count_Xg(g, degree_map, bound) == len(enumerate_Xg(g, degree_map, bound))


def checked_copy(m):
    assert m.alpha.range == m.beta.range
    copy = Monomial(m.alpha, m.beta)
    assert m == copy and hash(m) == hash(copy)


@settings(max_examples=200, deadline=None)
@given(case=graded_cases(), bound=st.integers(0, 4))
def test_unchecked_monomials_equal_checked_ones(case, bound):
    # enumerate_Xg, minimal_classes and involution skip the range check
    degree_map, g = case
    monos = list(enumerate_Xg(g, degree_map, bound))
    if bound >= 1:
        monos += minimal_classes(g, degree_map, bound).classes
    for m in monos:
        checked_copy(m)
        checked_copy(m.involution())


def test_checked_monomial_rejects_different_ranges():
    graph = parse_graph(GRAPH_R3)
    x, y = (Path(None, [graph.edge(name)]) for name in ("x", "y"))
    with pytest.raises(GraphError, match=r"^paths x and y have different ranges$"):
        Monomial(x, y)


@settings(max_examples=200, deadline=None)
@given(case=graded_cases(), bound=st.integers(0, 4))
def test_columns_match_each_path(case, bound):
    degree_map, _ = case
    assert_columns(degree_map.path_table(bound), degree_map, bound)


@settings(max_examples=100, deadline=None)
@given(case=graded_cases(), bound=st.integers(0, 4))
def test_depth_is_the_longest_path_held(case, bound):
    degree_map, _ = case
    table = degree_map.path_table(bound)
    assert table.depth == max((p.length for p in table.paths), default=0) <= bound


@pytest.mark.parametrize(
    "read",
    [
        lambda dm: dm.path_table(-1),
        lambda dm: enumerate_Xg(0, dm, -1),
        lambda dm: count_Xg(0, dm, -1),
        lambda dm: realized_degrees(dm, -1),
        lambda dm: random_element(dm.graph, INTEGERS, random.Random(0), len_bound=-1),
    ],
    ids=["path_table", "enumerate_Xg", "count_Xg", "realized_degrees", "random_element"],
)
def test_every_reader_of_the_path_table_rejects_a_negative_bound(read):
    dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
    with pytest.raises(ValueError, match=r"^len_bound must be >= 0$"):
        read(dm)


def pair_ids(pair):
    return tuple(path_ids(p) for p in pair)


@settings(max_examples=300, deadline=None)
@given(case=graded_cases(), bound=st.integers(1, 4))
def test_minimal_classes_are_the_reference_scan(case, bound):
    degree_map, g = case
    assume(len(degree_map.path_table(bound).paths) <= 400)
    mcs = minimal_classes(g, degree_map, bound)
    classes, verdict, witness = reference_minimal_classes(degree_map, g, bound)
    assert (mcs.degree, mcs.bound_used) == (g, bound)
    assert [pair_ids((c.alpha, c.beta)) for c in mcs.classes] == [pair_ids(c) for c in classes]
    assert mcs.verdict == verdict
    if witness is None:
        assert mcs.witness is None
    else:
        assert [pair_ids((c.alpha, c.beta)) for c in mcs.witness] == [pair_ids(c) for c in witness]


# v1's edge e2 sorts before v0's edge e3, so level 1 of the path tree in
# parent order is e1, e3, e2 and not table order
LEVEL_ONE_GRAPH = "vertices v0 v1 v2; edges e1: v0 -> v1; e2: v1 -> v2; e3: v0 -> v2;"


@pytest.mark.parametrize(
    "degrees, classes",
    [
        # no vertex is realized in degree 1: every edge is a class, in edge order
        ({"e1": 1, "e2": 1, "e3": 1}, ["e1", "e2", "e3"]),
        # v1 is realized by e1 of degree -1, so its child e2 is no class
        ({"e1": -1, "e2": 1, "e3": 1}, ["(e1)*", "e3"]),
    ],
    ids=["both-vertices-unrealized", "v1-realized"],
)
def test_level_one_classes_come_in_table_order(degrees, classes):
    dm = DegreeMap(parse_graph(LEVEL_ONE_GRAPH), IntegerGroup(), degrees)
    assert [c.render() for c in minimal_classes(1, dm, 2).classes] == classes
    for g in range(-2, 3):
        for bound in (1, 2, 3):
            mcs = minimal_classes(g, dm, bound)
            expected, verdict, _ = reference_minimal_classes(dm, g, bound)
            assert [pair_ids((c.alpha, c.beta)) for c in mcs.classes] == [pair_ids(c) for c in expected]
            assert mcs.verdict == verdict


def test_minimal_classes_are_the_reference_scan_on_every_small_graph():
    # seed-free, so an order defect that random draws reach only in some runs
    # fails every run: 85 edge lists, 1,885 maps, 28,275 (map, g, bound) cases
    cases = 0
    for n_edges in range(4):
        for ends in itertools.product(itertools.product(range(2), repeat=2), repeat=n_edges):
            edges = "".join(f" e{i}: v{s} -> v{t};" for i, (s, t) in enumerate(ends))
            text = "vertices v0 v1;" + (f" edges{edges}" if edges else "")
            graph = parse_graph(text)
            for degrees in itertools.product(range(-1, 2), repeat=n_edges):
                dm = DegreeMap(graph, IntegerGroup(), {f"e{i}": d for i, d in enumerate(degrees)})
                for g in range(-2, 3):
                    for bound in (1, 2, 3):
                        mcs = minimal_classes(g, dm, bound)
                        expected, verdict, _ = reference_minimal_classes(dm, g, bound)
                        case = (text, degrees, g, bound)
                        assert [pair_ids((c.alpha, c.beta)) for c in mcs.classes] == list(map(pair_ids, expected)), case
                        assert mcs.verdict == verdict, case
                        cases += 1
    assert cases == 28_275


def test_minimal_classes_visit_only_the_uncovered_paths(monkeypatch):
    # every vertex of R3 is realized in degree -3 at bound 8, so the descent
    # stops at the 3 vertex keys; a scan of the whole table looks up all 27
    dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
    assert len(dm.path_table(8).levels) == 27
    calls = []
    op = dm.group.op

    def counting_op(a, b):
        calls.append((a, b))
        return op(a, b)

    monkeypatch.setattr(dm.group, "op", counting_op)
    mcs = minimal_classes(-3, dm, 8)
    assert [c.alpha.render() for c in mcs.classes] == ["a", "b", "c"]
    assert mcs.verdict == "complete"
    assert len(calls) <= 3


def test_classes_and_counts_rebuild_nothing_from_a_built_table(monkeypatch):
    dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
    dm.path_table(8)
    built = Counter()
    derived, init, counter_init = Path._derived, Path.__init__, Counter.__init__

    def counting_derived(*args):
        built["Path._derived"] += 1
        return derived(*args)

    def counting_init(self, *args, **kwargs):
        built["Path.__init__"] += 1
        init(self, *args, **kwargs)

    def counting_counter(self, *args, **kwargs):
        built["Counter"] += 1
        counter_init(self, *args, **kwargs)

    monkeypatch.setattr(Path, "_derived", staticmethod(counting_derived))
    monkeypatch.setattr(Path, "__init__", counting_init)
    monkeypatch.setattr(Counter, "__init__", counting_counter)
    counts = []
    for g in range(-3, 4):
        assert minimal_classes(g, dm, 8).verdict == "complete"
        counts.append(count_Xg(g, dm, 8))
    monkeypatch.undo()
    assert built == Counter()
    assert 2 * sum(counts) == 309_138
    report = check_epsilon_strong(dm, range(-3, 4), 8)
    assert report.fields["identity-checked-on"] == 309_138
