import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    RATIONALS,
    CyclicGroup,
    DegreeMap,
    DegreeMapError,
    Element,
    GroupError,
    IntegerGroup,
    IntegerModRing,
    IntegerRing,
    IntegerTupleGroup,
    check_grading_axiom,
    decompose,
    enumerate_Xg,
    enumerate_monomials,
    parse_degree_map,
    parse_group_table,
)

from .test_algebra import elements_strategy
from .util import brute_xg_alphas, elem, mono


def s3_table_text():
    """Cayley table of S3 computed from permutation composition."""
    perms = list(itertools.permutations(range(3)))
    names = {p: f"s{i}" for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    lines = [" ".join(names[p] for p in perms)]
    for p in perms:
        lines.append(" ".join(names[compose(p, q)] for q in perms))
    return "\n".join(lines)


class TestGroups:
    def test_integers(self):
        z = IntegerGroup()
        assert z.op(2, -5) == -3
        assert z.inverse(7) == -7
        assert z.parse("-4") == -4
        with pytest.raises(GroupError):
            z.parse("x")

    def test_tuples(self):
        g = IntegerTupleGroup(2)
        assert g.identity == (0, 0)
        assert g.op((1, 2), (3, -1)) == (4, 1)
        assert g.inverse((1, -2)) == (-1, 2)
        assert g.parse("1, -2") == (1, -2)
        assert g.render((1, -2)) == "1,-2"
        with pytest.raises(GroupError):
            g.parse("1")

    def test_cyclic(self):
        g = CyclicGroup(3)
        assert g.op(2, 2) == 1
        assert g.inverse(1) == 2
        assert g.elements() == (0, 1, 2)
        assert CyclicGroup(1).elements() == (0,)

    def test_s3_table(self):
        g = parse_group_table(s3_table_text())
        assert g.identity == "s0"
        assert len(g.elements()) == 6
        # nonabelian witness
        assert any(g.op(a, b) != g.op(b, a) for a in g.elements() for b in g.elements())
        for a in g.elements():
            assert g.op(a, g.inverse(a)) == "s0"

    @pytest.mark.parametrize(
        "make,other",
        [
            (lambda: IntegerTupleGroup(2), IntegerTupleGroup(3)),
            (lambda: CyclicGroup(3), CyclicGroup(4)),
            (lambda: IntegerModRing(3), IntegerModRing(5)),
            (IntegerRing, RATIONALS),
            # one file name, two tables: the identity is p in one, q in the other
            (
                lambda: parse_group_table("p q\np q\nq p", name="table:t"),
                parse_group_table("p q\nq p\np q", name="table:t"),
            ),
        ],
        ids=["Z^2", "Z/3", "ring Z/3", "ring Z", "table"],
    )
    def test_equality_and_hash(self, make, other):
        a, b = make(), make()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != other and other != a

    def test_table_validation(self):
        with pytest.raises(GroupError, match="identity"):
            parse_group_table("a b\nb a\nb a")
        with pytest.raises(GroupError, match="expected 2 table rows"):
            parse_group_table("a b\na b")
        # an order-5 loop: latin square with identity and inverses, not a group
        with pytest.raises(GroupError, match="associative"):
            parse_group_table(
                "e a b c d\n"
                "e a b c d\n"
                "a e c d b\n"
                "b d e a c\n"
                "c b d e a\n"
                "d c a b e\n"
            )


class TestDegreeMap:
    def test_canonical(self, chain_graph):
        dm = DegreeMap.canonical(chain_graph)
        assert dm.is_canonical_z()
        assert dm.degree_of_edge(chain_graph.edge("f3")) == 1

    def test_all_edges_required(self, chain_graph):
        with pytest.raises(DegreeMapError, match="without a degree"):
            DegreeMap(chain_graph, IntegerGroup(), {"f1": 1})

    def test_unknown_edge_rejected(self, chain_graph):
        from leavitt import GraphError

        with pytest.raises(GraphError):
            DegreeMap(chain_graph, IntegerGroup(), {"f1": 1, "f2": 1, "f3": 1, "f4": 1, "zz": 1})

    def test_degree_of_monomials(self, chain_graph, dm_chain):
        assert dm_chain.degree_of(mono(chain_graph, ("f4", "f3"), ("v3",))) == 2
        assert dm_chain.degree_of(mono(chain_graph, ("v1",), ("v1",))) == 0
        assert dm_chain.degree_of(mono(chain_graph, ("f2",), ("f4", "f3"))) == -1

    def test_parse_degree_file(self, chain_graph):
        text = "# degrees\ngroup Z\ndeg f1 = 1\ndeg f2 = -1\ndeg f3 = 0\ndeg f4 = 2\n"
        dm = parse_degree_map(text, chain_graph)
        assert dm.degree_of_edge(chain_graph.edge("f2")) == -1
        assert not dm.is_canonical_z()

    def test_parse_degree_file_table(self, chain_graph):
        text = "group table s3.tbl\ndeg f1 = s1\ndeg f2 = s2\ndeg f3 = s3\ndeg f4 = s4\n"
        dm = parse_degree_map(text, chain_graph, table_loader=lambda name: s3_table_text())
        assert dm.group.identity == "s0"

    def test_parse_degree_file_errors(self, chain_graph):
        with pytest.raises(DegreeMapError, match="group"):
            parse_degree_map("deg f1 = 1", chain_graph)
        with pytest.raises(DegreeMapError, match="bad group"):
            parse_degree_map("group Z/x", chain_graph)
        with pytest.raises(DegreeMapError, match="line 2"):
            parse_degree_map("group Z\ndeg f1 = q", chain_graph)

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "group Z\ndeg f1 = 1\ndeg f1 = 5\ndeg f2 = 1\ndeg f3 = 1\ndeg f4 = 1\n",
                "line 3: duplicate degree for edge 'f1'",
            ),
            (
                "group Z\ndeg f1 = 1\ndeg f2 = 1\ndeg f3 = 1\ndeg f4 = 1\ndeg f4 = 1\n",
                "line 6: duplicate degree for edge 'f4'",
            ),
            ("group Z\ndeg q = 1\ndeg f1 = 1\n", "line 2: unknown edge 'q'"),
        ],
        ids=["duplicate", "duplicate-last", "unknown"],
    )
    def test_each_edge_is_assigned_once_by_a_known_id(self, chain_graph, text, message):
        with pytest.raises(DegreeMapError) as info:
            parse_degree_map(text, chain_graph)
        assert str(info.value) == message


class TestDecompose:
    def test_simple_split(self, chain_graph, dm_chain, ring):
        dec = decompose(elem("v1 + f1", chain_graph, ring), dm_chain)
        assert list(dec) == [0, 1]
        assert dec[0] == elem("v1", chain_graph, ring)
        assert dec[1] == elem("f1", chain_graph, ring)

    def test_epsilon_minus_one_homogeneous(self, chain_graph, dm_chain, ring):
        a = elem("f2.(f2)* + v1 + v3 + v4", chain_graph, ring)
        dec = decompose(a, dm_chain)
        assert list(dec) == [0]
        assert dec[0] == a

    def test_keys_in_group_order(self, chain_graph, ring):
        # the terms run against group order, so the keys are sorted, not
        # left in first-seen order
        z3 = DegreeMap(chain_graph, CyclicGroup(3), {e.id: 1 for e in chain_graph.edges})
        a = elem("f4.f3 + f1 + v1 + (f2)*", chain_graph, ring)
        assert [z3.degree_of(m) for m in a.terms] == [2, 1, 0, 2]
        assert list(decompose(a, z3)) == [0, 1, 2]
        assert decompose(a, z3)[2] == elem("f4.f3 + (f2)*", chain_graph, ring)

        s3 = parse_group_table(s3_table_text())
        table = DegreeMap(chain_graph, s3, {"f1": "s5", "f2": "s3", "f3": "s1", "f4": "s2"})
        b = elem("f1 + f2 + v1 + f3 + f4", chain_graph, ring)
        assert [table.degree_of(m) for m in b.terms] == ["s5", "s3", "s0", "s1", "s2"]
        assert list(decompose(b, table)) == ["s0", "s1", "s2", "s3", "s5"]

    def test_zero(self, chain_graph, dm_chain, ring):
        assert decompose(Element.zero(chain_graph, ring), dm_chain) == {}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reassembly(self, chain_graph, dm_chain, ring, data):
        a = data.draw(elements_strategy(chain_graph, ring, len_bound=2, max_support=5))
        total = Element.zero(chain_graph, ring)
        for part in decompose(a, dm_chain).values():
            total = total + part
        assert total == a

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_product_homogeneity(self, chain_graph, dm_chain, ring, data):
        a = data.draw(elements_strategy(chain_graph, ring))
        b = data.draw(elements_strategy(chain_graph, ring))
        dec_a, dec_b = decompose(a, dm_chain), decompose(b, dm_chain)
        for ga, part_a in dec_a.items():
            for gb, part_b in dec_b.items():
                degrees = list(decompose(part_a * part_b, dm_chain))
                assert degrees in ([], [ga + gb])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_involution_degree(self, chain_graph, dm_chain, ring, data):
        a = data.draw(elements_strategy(chain_graph, ring))
        dec = decompose(a, dm_chain)
        star = decompose(a.involution(), dm_chain)
        assert sorted(star) == sorted(-g for g in dec)


class TestEnumerateXg:
    def test_golden_chain(self, chain_graph, dm_chain):
        assert [m.render() for m in enumerate_Xg(2, dm_chain, 4)] == ["f4.f3"]
        assert [m.render() for m in enumerate_Xg(1, dm_chain, 4)] == [
            "f1",
            "f2",
            "f3",
            "f4",
            "f4.f3.(f2)*",
        ]
        for n in (3, -3, 4, -4):
            assert enumerate_Xg(n, dm_chain, 6) == ()

    def test_single_degree_parts(self, chain_graph, dm_chain, ring):
        for g in (-2, -1, 0, 1, 2):
            for m in enumerate_Xg(g, dm_chain, 3):
                dec = decompose(Element.monomial(chain_graph, ring, m), dm_chain)
                assert list(dec) == [g]

    def test_alpha_set_matches_brute_force(self, chain_graph, dm_chain):
        degree_by_edge = {e.id: 1 for e in chain_graph.edges}
        for g in (-2, -1, 0, 1, 2):
            got = {
                (m.alpha.source.id, tuple(e.id for e in m.alpha.edges), m.alpha.range.id)
                for m in enumerate_Xg(g, dm_chain, 3)
            }
            assert got == brute_xg_alphas(chain_graph, degree_by_edge, g, 3, normal_only=True)

    def test_flagged_graph_uses_samples(self, graph_c, dm_c):
        assert [m.render() for m in enumerate_Xg(1, dm_c, 3)] == ["f1", "f2", "f3"]


class TestGradingAxiom:
    def test_pass_chain(self, dm_chain, ring):
        report = check_grading_axiom(dm_chain, 3, ring)
        assert report.verdict == "PASS"
        assert report.fields["bound"] == 3

    def test_pass_graph_a(self, dm_a, ring):
        assert check_grading_axiom(dm_a, 3, ring).verdict == "PASS"

    def test_pass_s3_grading(self, chain_graph, ring):
        table = parse_group_table(s3_table_text())
        dm = DegreeMap(chain_graph, table, {"f1": "s1", "f2": "s2", "f3": "s3", "f4": "s4"})
        assert check_grading_axiom(dm, 2, ring).verdict == "PASS"

    def test_corrupted_map_reports_counterexample(self, chain_graph, ring):
        class CorruptedMap(DegreeMap):
            # degree no longer extends multiplicatively along concatenation,
            # simulating an assignment changed after the fact
            def degree_of_path(self, path):
                d = super().degree_of_path(path)
                return d + 5 if path.length == 1 else d

        bad = CorruptedMap(chain_graph, IntegerGroup(), {e.id: 1 for e in chain_graph.edges})
        report = check_grading_axiom(bad, 2, ring)
        assert report.verdict == "FAIL"
        assert "witness" in report.fields
