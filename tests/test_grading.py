import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leavitt.algebra as algebra
from leavitt import (
    RATIONALS,
    CyclicGroup,
    DegreeMap,
    DegreeMapError,
    Element,
    GraphError,
    GroupError,
    IntegerGroup,
    IntegerModRing,
    IntegerRing,
    IntegerTupleGroup,
    Monomial,
    Path,
    TableGroup,
    check_grading_axiom,
    decompose,
    enumerate_Xg,
    enumerate_monomials,
    minimal_classes,
    parse_degree_map,
    parse_graph,
    parse_group_table,
)

from .test_algebra import elements_strategy
from .util import GRAPH_R3, brute_xg_alphas, elem, mono


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

    # a bool is an int subclass, but no group element
    def test_integers_reject_a_bool(self):
        z = IntegerGroup()
        assert z.contains(1) and not z.contains(True)
        with pytest.raises(GroupError, match=r"^True is not an element of Z$"):
            z.check(True)

    def test_cyclic_rejects_a_bool(self):
        g = CyclicGroup(3)
        assert g.contains(1) and not g.contains(True)
        with pytest.raises(GroupError, match=r"^True is not an element of Z/3$"):
            g.check(True)

    def test_tuples_reject_a_bool_component(self):
        g = IntegerTupleGroup(2)
        assert g.contains((1, 0)) and not g.contains((True, 0))
        with pytest.raises(GroupError, match=r"^\(True, 0\) is not an element of Z\^2$"):
            g.check((True, 0))

    def test_integers_list_no_elements(self):
        with pytest.raises(GroupError, match=r"^Z is not finite$"):
            IntegerGroup().elements()

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# only a comment\n\n", "empty group table"),
            ("a b\na b\nb", "table row 2 has 1 entries, expected 2"),
            ("a a\na a\na a", "duplicate symbols in group table"),
            ("a b\na c\nb a", "table entry 'c' is not a listed symbol"),
            ("e a\ne a\na a", "element 'a' has no inverse"),
        ],
        ids=["empty", "short-row", "duplicate", "unlisted", "no-inverse"],
    )
    def test_each_table_error_is_reported_by_its_text(self, text, message):
        with pytest.raises(GroupError) as info:
            parse_group_table(text)
        assert str(info.value) == message

    def test_table_group_checks_its_symbols_and_entries(self):
        for symbols, table, message in [
            ((), {}, "a group needs at least one element"),
            (("e", "a"), {("e", "e"): "e"}, "missing table entry for (e, a)"),
        ]:
            with pytest.raises(GroupError) as info:
                TableGroup(symbols, table)
            assert str(info.value) == message


class TestDegreeMap:
    def test_canonical(self, chain_graph):
        dm = DegreeMap.canonical(chain_graph)
        assert dm.is_canonical_z()
        assert dm.edge_degrees["f3"] == 1

    def test_all_edges_required(self, chain_graph):
        with pytest.raises(DegreeMapError, match="without a degree"):
            DegreeMap(chain_graph, IntegerGroup(), {"f1": 1})

    def test_unknown_edge_rejected(self, chain_graph):
        from leavitt import GraphError

        with pytest.raises(GraphError):
            DegreeMap(chain_graph, IntegerGroup(), {"f1": 1, "f2": 1, "f3": 1, "f4": 1, "zz": 1})

    def test_a_degree_outside_the_group_is_rejected(self):
        graph = parse_graph(GRAPH_R3)
        z3 = CyclicGroup(3)
        with pytest.raises(GroupError, match=r"^5 is not an element of Z/3$"):
            DegreeMap(graph, z3, {e.id: 5 for e in graph.edges})
        dm = DegreeMap(graph, z3, {e.id: 1 for e in graph.edges})
        with pytest.raises(GroupError, match=r"^5 is not an element of Z/3$"):
            minimal_classes(5, dm, 2)

    def test_a_bool_degree_is_rejected(self):
        graph = parse_graph(GRAPH_R3)
        with pytest.raises(GroupError, match=r"^True is not an element of Z$"):
            DegreeMap(graph, IntegerGroup(), {e.id: True for e in graph.edges})

    def test_edge_degrees_are_keyed_by_edge_id(self, chain_graph):
        f1 = chain_graph.edge("f1")
        with pytest.raises(GraphError, match=r"^unknown edge Edge\(f1: v2 -> v1\)$"):
            DegreeMap(chain_graph, IntegerGroup(), {f1: 1, "f2": 1, "f3": 1, "f4": 1})

    def test_degree_of_monomials(self, chain_graph, dm_chain):
        assert dm_chain.degree_of(mono(chain_graph, ("f4", "f3"), ("v3",))) == 2
        assert dm_chain.degree_of(mono(chain_graph, ("v1",), ("v1",))) == 0
        assert dm_chain.degree_of(mono(chain_graph, ("f2",), ("f4", "f3"))) == -1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_degree_of_path_is_the_left_fold_of_edge_degrees(self, data):
        graph = parse_graph(GRAPH_R3)
        s3 = parse_group_table(s3_table_text())
        group, values = data.draw(
            st.sampled_from(
                [
                    (IntegerGroup(), st.integers(-5, 5)),
                    (IntegerTupleGroup(2), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
                    (CyclicGroup(4), st.integers(0, 3)),
                    (s3, st.sampled_from(s3.symbols)),
                ]
            )
        )
        dm = DegreeMap(graph, group, {e.id: data.draw(values) for e in graph.edges})
        for p in graph.enumerate_paths(4):
            g = group.identity
            for e in p.edges:
                g = group.op(g, dm.edge_degrees[e.id])
            assert dm.degree_of_path(p) == g

    def test_edge_of_another_graph_is_an_unknown_edge(self, chain_graph, dm_chain):
        other = parse_graph("vertices v1 v2; edges: f1: v2 -> v1; zz: v1 -> v2;")
        f1_zz = Path(None, (other.edge("f1"), other.edge("zz")))
        with pytest.raises(DegreeMapError, match="^unknown edge 'zz'$"):
            dm_chain.degree_of_path(f1_zz)
        with pytest.raises(DegreeMapError, match="^unknown edge 'zz'$"):
            dm_chain.degree_of(Monomial(f1_zz, Path(other.vertex("v2"))))
        # the edge ids of this graph alone still fold
        assert dm_chain.degree_of_path(f1_zz.prefix(1)) == 1

    def test_parse_degree_file(self, chain_graph):
        text = "# degrees\ngroup Z\ndeg f1 = 1\ndeg f2 = -1\ndeg f3 = 0\ndeg f4 = 2\n"
        dm = parse_degree_map(text, chain_graph)
        assert dm.edge_degrees["f2"] == -1
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
            ("group Z\ngroup Z\n", "line 2: duplicate group header"),
            ("group  \n", "line 1: missing group kind"),
            ("group Z\ndeg f1\n", "line 2: expected 'deg <edge> = <degree>'"),
            ("group Z\ndeg  = 1\n", "line 2: missing edge id"),
            ("group Z\nedge f1 = 1\n", "line 2: expected 'group' or 'deg', got 'edge'"),
            ("# no header\n\n", "missing 'group' header"),
            ("group table\n", "line 1: 'group table' needs a file name"),
            ("group table s3.tbl\n", "line 1: no loader available for table files"),
            ("group Q\n", "line 1: unknown group kind 'Q'"),
        ],
        ids=["duplicate-header", "no-kind", "no-equals", "no-edge", "unknown-line", "no-header",
             "no-table-file", "no-loader", "unknown-kind"],
    )
    def test_each_header_and_line_error_is_reported_by_its_text(self, chain_graph, text, message):
        with pytest.raises(DegreeMapError) as info:
            parse_degree_map(text, chain_graph)
        assert str(info.value) == message

    @pytest.mark.parametrize("spec", ["Z^", "Z^0", "Z^x", "Z/", "Z/0", "Z/-2", "Z/x"])
    def test_bad_numeric_group_headers(self, chain_graph, spec):
        with pytest.raises(DegreeMapError) as info:
            parse_degree_map(f"group {spec}\n", chain_graph)
        assert str(info.value) == f"line 1: bad group {spec!r}"

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

    @pytest.mark.parametrize(
        "group,value,message",
        [
            ("Z", "1x", "line 2: '1x' is not an integer"),
            ("Z^2", "1", "line 2: '1' does not have 2 components"),
            ("Z^2", "1, q", "line 2: '1, q' is not a tuple of integers"),
            ("Z/3", "q", "line 2: 'q' is not a residue mod 3"),
            ("table s3.tbl", "q", "line 2: 'q' is not a symbol of this group"),
        ],
        ids=["Z", "Z^2-components", "Z^2-integers", "Z/n", "table"],
    )
    def test_a_bad_degree_is_quoted_as_written(self, chain_graph, group, value, message):
        text = f"group {group}\ndeg f1 =  {value}  \n"
        with pytest.raises(DegreeMapError) as info:
            parse_degree_map(text, chain_graph, table_loader=lambda name: s3_table_text())
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


def reference_witness(degree_map, len_bound, ring):
    """The witness of the first pair whose product leaves its expected
    degree, scanned pair by pair with each product's first off degree in
    group sort order taken from decompose."""
    graph, group = degree_map.graph, degree_map.group
    monos = enumerate_monomials(graph, len_bound)
    for x in monos:
        for y in monos:
            expected = group.op(degree_map.degree_of(x), degree_map.degree_of(y))
            product = Element.monomial(graph, ring, x) * Element.monomial(graph, ring, y)
            for d in decompose(product, degree_map):
                if d != expected:
                    return {
                        "left": x.render(),
                        "right": y.render(),
                        "expected-degree": group.render(expected),
                        "found-degree": group.render(d),
                        "product": str(product),
                    }
    return None


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

    def test_every_pair_is_multiplied_and_every_term_graded(self, ring, monkeypatch):
        # no pair is skipped, cached or answered without the engine: one
        # Element product and one monomial product per ordered pair of the
        # 345 monomials of R3 at bound 3
        counts = {"mul": 0, "mono": 0, "degree": 0}
        mul, product, degree_of = Element.__mul__, algebra._mono_product, DegreeMap.degree_of

        def counting_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counting_product(m1, m2):
            counts["mono"] += 1
            return product(m1, m2)

        def counting_degree_of(self, m):
            counts["degree"] += 1
            return degree_of(self, m)

        monkeypatch.setattr(Element, "__mul__", counting_mul)
        monkeypatch.setattr(algebra, "_mono_product", counting_product)
        monkeypatch.setattr(DegreeMap, "degree_of", counting_degree_of)
        report = check_grading_axiom(DegreeMap.canonical(parse_graph(GRAPH_R3)), 3, ring)
        assert report.verdict == "PASS"
        assert report.fields == {"bound": 3, "monomials": 345, "pairs-checked": 119025}
        assert counts == {"mul": 119025, "mono": 119025, "degree": 22190}

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
        assert report.fields == {"bound": 2, "witness": reference_witness(bad, 2, ring)}
        assert report.fields["witness"] == {
            "left": "(f3)*",
            "right": "(f4)*",
            "expected-degree": "-12",
            "found-degree": "-2",
            "product": "(f4.f3)*",
        }

    def test_engine_defect_witness_is_first_off_degree_in_sort_order(self, ring, monkeypatch):
        # A map whose degree_of is a function of the monomial cannot make the
        # first bad product split across degrees: every term of a product is
        # a listed monomial t, and a pair with a one-term product that is
        # listed earlier (a vertex or a ghost path times t) already disagrees.
        # So the split comes from a CK2 rewrite that pairs each sibling edge
        # with the next one, here at v, whose designated edge is e1.
        graph = parse_graph("graph par { vertices: v w ; edges: e1: v -> w; e2: v -> w; e3: v -> w; }")
        dm = DegreeMap(graph, IntegerGroup(), {"e1": 1, "e2": 2, "e3": 3})
        honest = algebra._expand_normal

        def crossed(graph, mono):
            out = honest(graph, mono)
            if len(out) == 1:
                return out
            *siblings, vertex = out
            shifted = siblings[1:] + siblings[:1]
            crossed = [(Monomial(m.alpha, s.beta), c) for (m, c), (s, _) in zip(siblings, shifted)]
            return crossed[::-1] + [vertex]

        monkeypatch.setattr(algebra, "_expand_normal", crossed)
        report = check_grading_axiom(dm, 1, ring)
        assert report.verdict == "FAIL"
        assert report.fields == {"bound": 1, "witness": reference_witness(dm, 1, ring)}
        # the off terms lie in degrees 1 and -1, and the product's first
        # term is the one in degree 1: the witness names -1, first in sort order
        assert report.fields["witness"] == {
            "left": "e1",
            "right": "(e1)*",
            "expected-degree": "0",
            "found-degree": "-1",
            "product": "v - e2.(e3)* - e3.(e2)*",
        }
