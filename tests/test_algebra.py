import operator
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leavitt.algebra as algebra
from leavitt import (
    INTEGERS,
    RATIONALS,
    Edge,
    Element,
    ElementSyntaxError,
    GraphError,
    IntegerModRing,
    Monomial,
    Path,
    Vertex,
    enumerate_monomials,
    normal_form_shuffled,
    parse_element,
    parse_graph,
    random_element,
)

from .util import GRAPH_B, GRAPH_C, GRAPH_CHAIN, GRAPH_R3, elem, mono, reference_expand_normal, reference_tokens

TEST_GRAPH_SOURCES = {}

R3 = parse_graph(GRAPH_R3)


def elements_strategy(graph, ring, len_bound=2, max_support=3):
    monos = enumerate_monomials(graph, len_bound)
    pairs = st.tuples(st.sampled_from(monos), st.integers(-3, 3))
    return st.lists(pairs, max_size=max_support).map(
        lambda items: Element.from_terms(graph, ring, items)
    )


class TestMonomial:
    def test_range_mismatch_rejected(self, chain_graph):
        from leavitt import GraphError, Path

        with pytest.raises(GraphError):
            Monomial(Path(chain_graph.vertex("v1")), Path(chain_graph.vertex("v2")))

    def test_normal_flag(self, chain_graph):
        assert not mono(chain_graph, ("f1",), ("f1",)).is_normal(chain_graph)  # f1 designated at v2
        assert mono(chain_graph, ("f2",), ("f2",)).is_normal(chain_graph)
        assert mono(chain_graph, ("f2",), ("f3",)).is_normal(chain_graph)
        assert not mono(chain_graph, ("f4", "f3"), ("f4", "f3")).is_normal(chain_graph)

    def test_normal_flag_compares_equal_edges(self, chain_graph):
        f1 = chain_graph.edge("f1")
        twin = Edge(f1.id, Vertex(f1.source.id), Vertex(f1.range.id))
        # f1 f1* with the second f1 an equal but distinct object
        m = Monomial(Path(f1.source, (f1,)), Path(twin.source, (twin,)))
        assert not m.is_normal(chain_graph)

    def test_twin_edge_normalizes_as_the_graphs_own(self, chain_graph, any_ring):
        f1 = chain_graph.edge("f1")
        twin = Edge(f1.id, Vertex(f1.source.id), Vertex(f1.range.id))
        own = elem("f1.(f1)*", chain_graph, any_ring)
        real, ghost = Path(f1.source, (f1,)), Path(twin.source, (twin,))
        for m in (Monomial(real, ghost), Monomial(ghost, real), Monomial(ghost, ghost)):
            assert Element.from_terms(chain_graph, any_ring, [(m, 1)]) == own
        assert own == elem("v2 - f2.(f2)*", chain_graph, any_ring)

    def test_flagged_vertex_never_rewrites(self, graph_c):
        assert mono(graph_c, ("f1",), ("f1",)).is_normal(graph_c)


class TestMonoMul:
    def test_ghost_against_matching_edge(self, chain_graph, ring):
        assert elem("f2*.f2", chain_graph, ring) == elem("v3", chain_graph, ring)

    def test_ghost_against_other_edge(self, chain_graph, ring):
        assert elem("f2*.f3", chain_graph, ring).is_zero()

    def test_long_cancellation(self, chain_graph, ring):
        x = elem("f2.(f4.f3)*", chain_graph, ring)
        y = elem("f4.f3.(f2)*", chain_graph, ring)
        assert x * y == elem("f2.(f2)*", chain_graph, ring)


ZERO_DIVISOR_RINGS = {
    "z": INTEGERS,
    "q": RATIONALS,
    "z/4": IntegerModRing(4),
    "z/6": IntegerModRing(6),
}


PRODUCT_GRAPHS = {
    "r3": R3,
    "b": parse_graph(GRAPH_B),
    "chain": parse_graph(GRAPH_CHAIN),
    "c": parse_graph(GRAPH_C),
}
# (ring, graph) cases; an R3 case is named by its ring alone
PRODUCT_CASES = [
    pytest.param(name, graph_name, id=name if graph_name == "r3" else f"{name}-{graph_name}")
    for graph_name in sorted(PRODUCT_GRAPHS)
    for name in sorted(ZERO_DIVISOR_RINGS)
]


class TestProductFold:
    """Each nonzero product folds straight into the term map, rewritten only
    when its meeting paths are equal; the oracle is normal_form_shuffled of
    the raw pairwise products, which tests every one in its own loop. Over
    Z/4 and Z/6 nonzero coefficients multiply to zero. In R3, GRAPH_B and
    the chain graph designated edges meet at the junction of some products;
    GRAPH_C's flagged vertex has none."""

    @pytest.mark.parametrize("name, graph_name", PRODUCT_CASES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_product_is_the_normal_form_of_raw_products(self, name, graph_name, data):
        ring, graph = ZERO_DIVISOR_RINGS[name], PRODUCT_GRAPHS[graph_name]
        x = data.draw(elements_strategy(graph, ring, max_support=4))
        y = data.draw(elements_strategy(graph, ring, max_support=4))
        raw = []
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                m = algebra._mono_product(m1, m2)
                if m is not None:
                    raw.append((m, c1 * c2))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        assert x * y == normal_form_shuffled(graph, ring, raw, rng)

    @pytest.mark.parametrize("name", sorted(ZERO_DIVISOR_RINGS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_only_an_equal_meeting_is_tested_for_normal_form(self, name, data):
        ring = ZERO_DIVISOR_RINGS[name]
        x = data.draw(elements_strategy(R3, ring, max_support=4))
        y = data.draw(elements_strategy(R3, ring, max_support=4))
        equal_meetings = sum(
            algebra._mono_product(m1, m2) is not None
            and m1.beta.length == m2.alpha.length
            and not ring.is_zero(ring.mul(c1, c2))
            for m1, c1 in x.terms.items()
            for m2, c2 in y.terms.items()
        )
        with mock.patch.object(Monomial, "is_normal", autospec=True, side_effect=Monomial.is_normal) as spy:
            x * y
        assert spy.call_count == equal_meetings

    @pytest.mark.parametrize(
        "name, left, right, want",
        [
            ("z/6", "2*x", "3*y", "0"),
            ("z/6", "2*x + a", "3*x.y", "3*x.y"),
            ("z/4", "2*x", "2*y", "0"),
            ("z", "2*x", "3*y", "6*x.y"),
            ("z", "2*x + a", "3*x.y", "3*x.y"),
        ],
    )
    def test_zero_ring_products_are_dropped(self, name, left, right, want):
        ring = ZERO_DIVISOR_RINGS[name]
        product = elem(left, R3, ring) * elem(right, R3, ring)
        assert str(product) == want
        assert all(not ring.is_zero(c) for c in product.terms.values())


class TestNormalForm:
    def test_designated_pair_rearranged(self, graph_b, ring):
        # e is designated at u, so ee* = u - ff*
        assert elem("e.e*", graph_b, ring) == elem("u - f.(f)*", graph_b, ring)

    def test_ck2_sum_collapses(self, chain_graph, ring):
        assert elem("f1.(f1)* + f2.(f2)*", chain_graph, ring) == elem("v2", chain_graph, ring)

    def test_already_normal_unchanged(self, chain_graph, ring):
        m = mono(chain_graph, ("f2",), ("f3",))
        e = Element.monomial(chain_graph, ring, m)
        assert e.support() == [m]
        assert Element.from_terms(chain_graph, ring, list(e.terms.items())) == e

    @pytest.mark.parametrize("source", [GRAPH_R3, GRAPH_CHAIN, GRAPH_C], ids=["r3", "chain", "c"])
    def test_path_elements_are_their_normal_forms(self, source, any_ring):
        graph = parse_graph(source)
        for p in graph.enumerate_paths(3):
            end = Path(p.range)
            for built, m in [(Element.real_path(graph, any_ring, p), Monomial(p, end)),
                             (Element.ghost_path(graph, any_ring, p), Monomial(end, p))]:
                expected = Element.from_terms(graph, any_ring, [(m, 1)])
                assert built == expected and built.support() == [m]

    def test_idempotent(self, graph_b, ring):
        raw = [(mono(graph_b, ("e", "e"), ("e", "e")), 2), (mono(graph_b, ("e",), ("e",)), -1)]
        once = Element.from_terms(graph_b, ring, raw)
        again = Element.from_terms(graph_b, ring, list(once.terms.items()))
        assert once == again


# a has three out-edges (e1 designated, so two siblings per rewrite), b two,
# c one (a rewrite with no sibling), and d is flagged (no rewrite)
GRAPH_FANS = """
graph fans {
  vertices: a b c d ;
  edges: e1: a -> a; e2: a -> b; e3: a -> c; f1: b -> a; f2: b -> b; g1: c -> a;
         h1: d -> a; h2: d -> c;
  infinite: d;
}
"""
REWRITE_GRAPHS = [parse_graph(GRAPH_FANS), R3, parse_graph(GRAPH_CHAIN), parse_graph(GRAPH_C)]


@st.composite
def junction_monomials(draw):
    """A monomial p.t (q.t)*: a shared tail t walked forward from u, mostly
    along designated edges, after two prefixes p, q walked back from u, of
    independent lengths (either may be the vertex u)."""
    graph = draw(st.sampled_from(REWRITE_GRAPHS))
    u = draw(st.sampled_from(graph.vertices))
    tail, v = [], u
    for _ in range(draw(st.integers(0, 6))):
        outs = graph.out_edges(v)
        if not outs:
            break
        special = graph.special_edge(v)
        e = special if special is not None and draw(st.integers(0, 3)) else draw(st.sampled_from(outs))
        tail.append(e)
        v = e.range

    def prefix():
        edges, w = [], u
        for _ in range(draw(st.integers(0, 4))):
            into = [e for e in graph.edges if e.range is w]
            if not into:
                break
            e = draw(st.sampled_from(into))
            edges.insert(0, e)
            w = e.source
        return Path(w, edges + tail)

    return graph, Monomial(prefix(), prefix())


class TestExpansion:
    @settings(max_examples=400, deadline=None)
    @given(case=junction_monomials())
    def test_expansion_is_the_step_by_step_rewrite(self, case):
        graph, m = case
        got = algebra._expand_normal(graph, m)
        expected = reference_expand_normal(graph, m)
        assert got == expected
        assert [(x.render(), hash(x), x.alpha.base, x.beta.base) for x, _ in got] == [
            (x.render(), hash(x), x.alpha.base, x.beta.base) for x, _ in expected
        ]

    def test_a_sibling_of_one_edge_leaves_the_base(self):
        graph = REWRITE_GRAPHS[0]
        e1 = graph.edge("e1")
        m = Monomial(Path(graph.vertex("a"), [e1, e1]), Path(graph.vertex("a"), [e1]))
        assert [(x.render(), sign) for x, sign in algebra._expand_normal(graph, m)] == [
            ("e1.e2.(e2)*", -1), ("e1.e3.(e3)*", -1), ("e1", 1),
        ]

    def test_a_power_builds_two_paths_per_rewrite(self, monkeypatch):
        k = 50
        power = Path(R3.vertex("a"), [R3.edge("w")] * k)
        m = Monomial(power, power)
        built = 0
        derived = Path._derived

        def counting(*args):
            nonlocal built
            built += 1
            return derived(*args)

        monkeypatch.setattr(Path, "_derived", staticmethod(counting))
        out = algebra._expand_normal(R3, m)
        monkeypatch.undo()
        assert len(out) == k + 1
        assert built <= 2 * k + 2


class TestRelations:
    def test_vertices_orthogonal_idempotent(self, chain_graph, ring):
        for v in chain_graph.vertices:
            for w in chain_graph.vertices:
                ev = Element.vertex(chain_graph, ring, v)
                ew = Element.vertex(chain_graph, ring, w)
                expected = ev if v == w else Element.zero(chain_graph, ring)
                assert ev * ew == expected

    def test_edge_relations(self, chain_graph, ring):
        for e in chain_graph.edges:
            f = elem(e.id, chain_graph, ring)
            fstar = elem(f"{e.id}*", chain_graph, ring)
            s = Element.vertex(chain_graph, ring, e.source)
            r = Element.vertex(chain_graph, ring, e.range)
            assert s * f == f and f * r == f
            assert r * fstar == fstar and fstar * s == fstar

    def test_ck1(self, chain_graph, ring):
        for e in chain_graph.edges:
            for f in chain_graph.edges:
                product = elem(f"{e.id}*", chain_graph, ring) * elem(f.id, chain_graph, ring)
                if e == f:
                    assert product == Element.vertex(chain_graph, ring, e.range)
                else:
                    assert product.is_zero()

    def test_ck2_regular_vertices(self, chain_graph, ring):
        for v in chain_graph.regular_vertices():
            total = Element.zero(chain_graph, ring)
            for e in chain_graph.out_edges(v):
                total = total + elem(f"{e.id}.({e.id})*", chain_graph, ring)
            assert total == Element.vertex(chain_graph, ring, v)

    def test_zero_absorbs(self, chain_graph, ring):
        a = elem("f1 + 2*v3", chain_graph, ring)
        z = Element.zero(chain_graph, ring)
        assert (a * z).is_zero() and (z * a).is_zero()


class TestCompatibility:
    """Sums and products refuse elements over two graphs or two rings, even
    where the product would be zero."""

    @pytest.mark.parametrize("op", [operator.mul, operator.add], ids=["mul", "add"])
    @pytest.mark.parametrize("right", ["f1", "v3"])
    def test_two_graphs(self, chain_graph, ring, op, right):
        twin = parse_graph(GRAPH_CHAIN)  # equal text, another Graph object
        with pytest.raises(ValueError, match="different graphs or rings"):
            op(elem("f1", chain_graph, ring), elem(right, twin, ring))

    @pytest.mark.parametrize("op", [operator.mul, operator.add], ids=["mul", "add"])
    @pytest.mark.parametrize("right", ["f1", "v3"])
    def test_two_rings(self, chain_graph, op, right):
        with pytest.raises(ValueError, match="different graphs or rings"):
            op(elem("f1", chain_graph, INTEGERS), elem(right, chain_graph, IntegerModRing(3)))

    def test_a_vertex_the_graph_does_not_declare_is_refused(self):
        with pytest.raises(GraphError, match="^unknown vertex 'nope'$"):
            Element.vertex(parse_graph(GRAPH_R3), INTEGERS, Vertex("nope"))

    def test_an_equal_vertex_is_the_graphs_own(self, chain_graph, ring):
        own = chain_graph.vertex("v1")
        v = Element.vertex(chain_graph, ring, Vertex("v1"))
        (mono,) = v.terms
        assert mono.alpha.base is own and mono.beta.base is own
        assert Element.identity(chain_graph, ring) * v == v == v * v

    def test_equal_rings_are_compatible(self, chain_graph):
        a = elem("f1", chain_graph, IntegerModRing(3))
        b = elem("(f1)*", chain_graph, IntegerModRing(3))
        assert str(a * b) == "v2 + 2*f2.(f2)*"
        assert str(a + b) == "(f1)* + f1"


class TestAddAndScalar:
    def test_cancellation(self, chain_graph, ring):
        a = elem("f1", chain_graph, ring)
        assert (a + (-a)).is_zero()

    def test_scalar_one(self, chain_graph, ring):
        a = elem("f1 - 2*v3", chain_graph, ring)
        assert 1 * a == a

    def test_char_two(self, chain_graph):
        two = IntegerModRing(2)
        a = elem("f1", chain_graph, two)
        assert (a + a).is_zero()


    def test_subtraction_adds_the_negative(self, any_ring):
        rng = random.Random(5)
        for _ in range(50):
            x, y = (random_element(R3, any_ring, rng, len_bound=2) for _ in range(2))
            assert x - y == x + (-y)
            assert (x - y) + y == x
            assert (x - x).is_zero()

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, IntegerModRing(6)], ids=["z", "q", "z/6"])
    def test_a_scalar_multiplies_from_either_side(self, ring):
        # over Z/6, 2 and 3 are zero divisors, so some products vanish
        scalars = [0, 1, -1, 2, 3, 5] + ([Fraction(3, 2), Fraction(-1, 3)] if ring is RATIONALS else [])
        rng = random.Random(6)
        for _ in range(50):
            x = random_element(R3, ring, rng, len_bound=2)
            for c in scalars:
                assert x * c == c * x == x.scaled(c)
                product = {m: ring.mul(ring.coerce(c), v) for m, v in x.terms.items()}
                assert (x * c).terms == {m: v for m, v in product.items() if not ring.is_zero(v)}

    def test_a_long_expression_is_the_sum_of_its_terms(self, any_ring):
        """A 2,000-term expression, normalized in one fold, equals its terms
        parsed one at a time and added in order."""
        rng = random.Random(2000)
        monos = [m.render() for m in enumerate_monomials(R3, 2)] + ["w.w*", "x.(t.w)*", "(x.y)*.x"]
        scalars = ["", "2*", "3*", "7*"] + (["3/2*", "1/3*"] if any_ring is RATIONALS else [])
        terms = [
            ("-" if rng.random() < 0.5 else "+", rng.choice(scalars) + rng.choice(monos))
            for _ in range(2000)
        ]
        text = " ".join(f"{sign} {body}" for sign, body in terms)
        expected = Element.zero(R3, any_ring)
        for sign, body in terms:
            expected = expected + parse_element(f"{sign}{body}", R3, any_ring)
        assert parse_element(text, R3, any_ring) == expected


class TestInvolution:
    def test_path_reversal(self, chain_graph, ring):
        assert elem("f4.f3", chain_graph, ring).involution() == elem("(f4.f3)*", chain_graph, ring)

    def test_vertex_fixed(self, chain_graph, ring):
        v = Element.vertex(chain_graph, ring, "v1")
        assert v.involution() == v

    def test_involutive(self, chain_graph, ring):
        a = elem("f2.(f4.f3)* - 3*v1 + f1", chain_graph, ring)
        assert a.involution().involution() == a

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_anti_multiplicative(self, chain_graph, ring, data):
        a = data.draw(elements_strategy(chain_graph, ring))
        b = data.draw(elements_strategy(chain_graph, ring))
        assert (a * b).involution() == b.involution() * a.involution()


class TestEquality:
    def test_ck2_identification(self, graph_b, ring):
        assert elem("e.e*", graph_b, ring) == elem("u - f.(f)*", graph_b, ring)

    def test_distinct_edges(self, chain_graph, ring):
        assert elem("f1", chain_graph, ring) != elem("f2", chain_graph, ring)

    def test_epsilon_two_ways(self, chain_graph, ring):
        closed = elem("v2 + v4 + v5", chain_graph, ring)
        expanded = elem("f2.(f2)* + f1.(f1)* + f3.(f3)* + f4.(f4)*", chain_graph, ring)
        assert closed == expanded


class TestAlgebraLaws:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_associativity(self, chain_graph, ring, data):
        a = data.draw(elements_strategy(chain_graph, ring))
        b = data.draw(elements_strategy(chain_graph, ring))
        c = data.draw(elements_strategy(chain_graph, ring))
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_identity_element(self, graph_a, ring, data):
        u = Element.identity(graph_a, ring)
        a = data.draw(elements_strategy(graph_a, ring))
        assert u * a == a and a * u == a

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_distributivity(self, graph_b, ring, data):
        a = data.draw(elements_strategy(graph_b, ring))
        b = data.draw(elements_strategy(graph_b, ring))
        c = data.draw(elements_strategy(graph_b, ring))
        assert a * (b + c) == a * b + a * c


class TestConfluence:
    def test_shuffled_orders_agree(self, chain_graph, graph_a, graph_b, ring):
        rng = random.Random(2024)
        for graph in (chain_graph, graph_a, graph_b):
            paths = graph.enumerate_paths(3)
            by_range = {}
            for p in paths:
                by_range.setdefault(p.range.id, []).append(p)
            for _ in range(120):
                raw = []
                for _ in range(rng.randint(1, 5)):
                    bucket = by_range[rng.choice(sorted(by_range))]
                    raw.append(
                        (
                            Monomial(rng.choice(bucket), rng.choice(bucket)),
                            rng.choice([-2, -1, 1, 2, 3]),
                        )
                    )
                expected = Element.from_terms(graph, ring, raw)
                assert normal_form_shuffled(graph, ring, raw, rng) == expected


class TestLongPaths:
    """Paths of hundreds of edges, built one junction at a time."""

    def test_parsing_a_long_word_compares_vertices_linearly(self, ring, monkeypatch):
        graph = parse_graph(GRAPH_R3)
        word = _r3_walk(graph, 600, 7)
        text = ".".join(word)
        calls = 0
        compare = Vertex.__eq__

        def counting(self, other):
            nonlocal calls
            calls += 1
            return compare(self, other)

        monkeypatch.setattr(Vertex, "__eq__", counting)
        value = parse_element(text, graph, ring)
        monkeypatch.undo()
        # a full check of each partial word would make about n^2 / 2
        assert calls < 20 * len(word)
        assert str(value) == text

    @pytest.mark.parametrize("k", [20, 60])
    def test_shuffled_rewrites_of_a_long_power(self, ring, k):
        graph = parse_graph(GRAPH_R3)
        power = Path(graph.vertex("a"), [graph.edge("w")] * k)
        raw = [(Monomial(power, power), 1)]
        expected = Element.from_terms(graph, ring, raw)
        # w^k.(w^k)* = a - sum over i < k of w^i.x.(w^i.x)*
        closed = "a" + "".join(f" - {p}.({p})*" for p in ("w." * i + "x" for i in range(k)))
        assert str(expected) == closed
        for seed in range(3):
            assert normal_form_shuffled(graph, ring, raw, random.Random(seed)) == expected


class TestGrammar:
    def test_mixed_real_ghost_term(self, chain_graph, ring):
        a = elem("f2.(f4.f3)* - 3*v1", chain_graph, ring)
        assert a.coefficient(mono(chain_graph, ("f2",), ("f4", "f3"))) == 1
        assert a.coefficient(mono(chain_graph, ("v1",), ("v1",))) == -3

    def test_ghost_then_real_word(self, chain_graph, ring):
        assert str(elem("f2*.f2", chain_graph, ring)) == "v3"

    def test_rational_scalar(self, chain_graph):
        from leavitt import RATIONALS

        a = elem("3/2*f1", chain_graph, RATIONALS)
        assert str(a) == "3/2*f1"

    def test_zero_literal(self, chain_graph, ring):
        assert parse_element("0", chain_graph, ring).is_zero()

    def test_unknown_id(self, chain_graph, ring):
        with pytest.raises(ElementSyntaxError, match="unknown"):
            parse_element("zz", chain_graph, ring)

    def test_non_composable_path(self, chain_graph, ring):
        with pytest.raises(ElementSyntaxError, match="compose"):
            parse_element("(f1.f3)", chain_graph, ring)

    def test_trailing_garbage(self, chain_graph, ring):
        with pytest.raises(ElementSyntaxError):
            parse_element("f1 )", chain_graph, ring)

    @pytest.mark.parametrize("text", ["f1..f2 %", "zz + f1 %", "f1 f2 %", "(f1.f3) %"])
    def test_unexpected_character_outranks_earlier_errors(self, chain_graph, ring, text):
        with pytest.raises(ElementSyntaxError, match="unexpected character '%'") as err:
            parse_element(text, chain_graph, ring)
        assert err.value.column == len(text)

    @pytest.mark.parametrize("text,column", [("²*a", 1), ("9²", 2), ("-0²", 3)])
    def test_a_digit_that_is_not_decimal_is_an_unexpected_character(self, ring, text, column):
        with pytest.raises(ElementSyntaxError, match="unexpected character '²'") as err:
            parse_element(text, R3, ring)
        assert err.value.column == column

    def test_decimal_digits_of_any_script_read_as_a_scalar(self, ring):
        assert parse_element("٣*a", R3, ring) == parse_element("3*a", R3, ring)

    def test_a_scalar_past_the_int_digit_limit_is_a_syntax_error(self, ring):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integer literals of any length")
        with pytest.raises(ElementSyntaxError, match="^column 1: ") as err:
            parse_element("1" * (limit + 1) + "*a", R3, ring)
        assert err.value.column == 1

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text() | st.text(alphabet="abcxyzwt0123+-*/.() ²٣_"),
        ring=st.sampled_from([INTEGERS, RATIONALS, IntegerModRing(3)]),
    )
    def test_any_text_is_an_element_or_a_syntax_error(self, text, ring):
        try:
            value = parse_element(text, R3, ring)
        except ElementSyntaxError:
            return
        assert isinstance(value, Element)

    def test_missing_star_scalar(self, chain_graph, ring):
        with pytest.raises(ElementSyntaxError, match="'\\*'"):
            parse_element("3 f1", chain_graph, ring)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_roundtrip(self, chain_graph, any_ring, data):
        a = data.draw(elements_strategy(chain_graph, any_ring, len_bound=2, max_support=4))
        assert parse_element(str(a), chain_graph, any_ring) == a

    def test_roundtrip_ghost_only(self, chain_graph, ring):
        a = elem("(f4.f3)* + 2*(f2)*", chain_graph, ring)
        assert parse_element(str(a), chain_graph, ring) == a


def _atoms(graph, ring):
    """(text, Element) for every atom of the grammar, paths up to length 2."""
    out = []
    for v in graph.vertices:
        vertex = Element.vertex(graph, ring, v)
        out += [(v.id, vertex), (f"{v.id}*", vertex)]
    for e in graph.edges:
        edge = Path(e.source, (e,))
        out += [(e.id, Element.real_path(graph, ring, edge)),
                (f"{e.id}*", Element.ghost_path(graph, ring, edge))]
    for p in graph.enumerate_paths(2):
        out += [(f"({p.render()})", Element.real_path(graph, ring, p)),
                (f"({p.render()})*", Element.ghost_path(graph, ring, p))]
    return out


def _r3_walk(graph, length, seed):
    """The edge ids of a seeded real path of R3."""
    rng = random.Random(seed)
    v, word = graph.vertex("a"), []
    for _ in range(length):
        e = rng.choice(graph.out_edges(v))
        word.append(e.id)
        v = e.range
    return word


WORD_GRAPHS = {"chain": parse_graph(GRAPH_CHAIN), "flagged": parse_graph(GRAPH_C), "r3": R3}


class TestWordFold:
    """A word folds to one raw monomial and each term is normalized once."""

    @pytest.mark.parametrize("ring", [INTEGERS, IntegerModRing(3)], ids=["z", "z/3"])
    @pytest.mark.parametrize("name", sorted(WORD_GRAPHS))
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_word_equals_left_to_right_product(self, name, ring, data):
        graph = WORD_GRAPHS[name]
        atoms = _atoms(graph, ring)
        term = st.tuples(
            st.sampled_from(["+", "-"]),
            st.one_of(st.none(), st.integers(0, 4)),
            st.integers(1, 12),
        )
        terms = data.draw(st.lists(term, min_size=1, max_size=3))
        text, expected = "", Element.zero(graph, ring)
        for sign, scalar, size in terms:
            word = [data.draw(st.sampled_from(atoms))]
            raw = next(iter(word[0][1].terms))
            for _ in range(size - 1):
                # mostly an atom that keeps the word nonzero, so that long
                # real and ghost runs are drawn; else any, which may break one
                pool = atoms
                if raw is not None and data.draw(st.integers(0, 3)):
                    pool = [a for a in atoms
                            if algebra._mono_product(raw, next(iter(a[1].terms))) is not None]
                word.append(data.draw(st.sampled_from(pool)))
                if raw is not None:
                    raw = algebra._mono_product(raw, next(iter(word[-1][1].terms)))
            value = word[0][1]
            for _, atom in word[1:]:
                value = value * atom
            if scalar is not None:
                value = value.scaled(scalar)
            expected = expected + (value.scaled(-1) if sign == "-" else value)
            prefix = "" if scalar is None else f"{scalar}*"
            text += f" {sign} {prefix}" + ".".join(t for t, _ in word)
        got = parse_element(text, graph, ring)
        assert got == expected
        assert str(got) == str(expected)

    def test_zero_word_still_checks_every_atom(self, chain_graph, ring):
        assert parse_element("f2*.f3.v1", chain_graph, ring).is_zero()
        with pytest.raises(ElementSyntaxError, match="column 8: unknown"):
            parse_element("f2*.f3.zz.v1", chain_graph, ring)
        with pytest.raises(ElementSyntaxError, match="column 12: unknown edge"):
            parse_element("f2*.f3.(f1.zz)", chain_graph, ring)
        # a real word broken at its second junction
        assert parse_element("x.y.x", R3, ring).is_zero()
        with pytest.raises(ElementSyntaxError, match="column 7: unknown vertex or edge 'q'"):
            parse_element("x.y.x.q", R3, ring)

    def test_runs_fold_to_one_path(self, ring):
        assert parse_element("z*.y*.x*", R3, ring) == parse_element("(x.y.z)*", R3, ring)
        assert str(parse_element("(z.w)*.(x.y)*", R3, ring)) == "(x.y.z.w)*"
        assert parse_element("w.a.w", R3, ring) == parse_element("w.w", R3, ring)
        assert str(parse_element("x.(y.z).x.x*.z*", R3, ring)) == "x.y.z.x.(z.x)*"
        # a ghost path cancels against the real edges that follow it, one
        # edge at a time, and a vertex or edge that does not meet is 0
        for text, expected in [
            ("(x.y)*.x.y.z", "z"),
            ("(x.y)*.x", "(y)*"),
            ("x*.x.y", "y"),
            ("(x.y)*.x.t", "0"),
            ("y*.b.x*", "(x.y)*"),
            ("y*.c.x*", "0"),
            ("a.w*", "(w)*"),
            ("z*.y*.x*.x.y.z", "a"),
        ]:
            assert str(parse_element(text, R3, ring)) == expected, text

    def test_products_and_normalizations_per_word(self, ring, monkeypatch):
        graph = parse_graph(GRAPH_R3)
        counts = {"mono": 0, "mul": 0, "from_terms": 0, "normalized": 0}
        product, mul, pieces = algebra._mono_product, Element.__mul__, algebra._normal_pieces
        from_terms = Element.from_terms.__func__

        def counting_product(m1, m2):
            counts["mono"] += 1
            return product(m1, m2)

        def counting_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counting_from_terms(cls, *args):
            counts["from_terms"] += 1
            return from_terms(cls, *args)

        def counting_pieces(graph, mono):
            counts["normalized"] += 1
            return pieces(graph, mono)

        monkeypatch.setattr(algebra, "_mono_product", counting_product)
        monkeypatch.setattr(Element, "__mul__", counting_mul)
        monkeypatch.setattr(Element, "from_terms", classmethod(counting_from_terms))
        monkeypatch.setattr(algebra, "_normal_pieces", counting_pieces)
        # (text, terms): a word is read one edge at a time, so parsing makes
        # no monomial product; the expression is folded by one from_terms,
        # and each nonzero term is normalized once
        cases = [
            (".".join(["w"] * 37 + ["w*"] * 37), 1),
            (".".join(_r3_walk(graph, 300, 3)), 1),
            ("a.x.(y)*.t", 0),  # zero: (y)* does not end at r(x)
            ("x", 1),
            ("2*x.y - w.w*.w + (x.y)*.t*", 3),
            ("z*.y*.x*.x.y.z.a.x.x*", 1),
        ]
        for text, terms in cases:
            counts.update(mono=0, mul=0, from_terms=0, normalized=0)
            parse_element(text, graph, ring)
            assert (counts["mono"], counts["mul"], counts["from_terms"], counts["normalized"]) == (0, 0, 1, terms)

    def test_long_word_keeps_few_partial_products(self, ring):
        graph = parse_graph(GRAPH_R3)
        text = ".".join(_r3_walk(graph, 3000, 11))
        tracemalloc.start()
        try:
            value = parse_element(text, graph, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(value) == text
        # tokens are read one at a time (~100 KiB here); a token list alone
        # peaks near 600 KiB, and keeping all 3,000 atom monomials until the
        # end near 1.4 MiB
        assert peak < 256 << 10


def _scan(tokenize, text):
    """The tokens of text up to the end or an error, and the error as
    (message, column) or None."""
    tokens = []
    try:
        for tok in tokenize(text):
            tokens.append(tok)
    except ElementSyntaxError as exc:
        return tokens, (str(exc), exc.column)
    return tokens, None


def _expand_runs(tokens):
    """Each run token as the id, '.' and '*' tokens of its characters."""
    out = []
    for kind, text, column in tokens:
        if kind != "run":
            out.append((kind, text, column))
            continue
        for part in re.finditer(r"[^.*]+|[.*]", text):
            word = part.group()
            out.append((word if word in (".", "*") else "id", word, column + part.start()))
    return out


def _one_name_runs(text):
    """The reference tokens with each id as a run of one name: every star
    stays its own token, as a star apart from its name ("x *") is."""
    for tok in reference_tokens(text):
        yield ("run", *tok[1:]) if tok[0] == "id" else tok


def _outcome(text, graph, ring):
    """The rendered element of text, or its error as (message, column)."""
    try:
        return str(parse_element(text, graph, ring))
    except ElementSyntaxError as exc:
        return str(exc), exc.column


# names of R3 and others, some starred, some with the star apart; a run of
# up to 150 of them spans three run tokens of at most 64 names
_RUN_NAMES = st.sampled_from(
    ["x", "y", "z", "w", "t", "a", "b", "qq", "f1", "A_9", "x*", "w*", "c*", "w *", "y\t*", "a *", "x * "]
)
_EXPR_TEXT = st.lists(
    st.text(alphabet="xyzwtabQ019_.*() \u00b2\u0663\u00e9\u0301\u00bd\u2167\u00aa\u01c5\uff10\U0001d7ce", max_size=12)
    | st.lists(_RUN_NAMES, min_size=1, max_size=150).map(".".join)
    | st.builds(lambda n, seed: ".".join(_r3_walk(R3, n, seed)), st.integers(1, 150), st.integers(0, 99)),
    max_size=4,
).map("".join)

# the name 150 of a 200-name run, in its third run token
_UNKNOWN_IN_A_LONG_RUN = ".".join(_r3_walk(R3, 149, 5) + ["qq"] + _r3_walk(R3, 50, 6))


class TestRunTokens:
    """A '.'-joined run of names is scanned as one token and read one name
    at a time, with the tokens of the character scan and the values and
    errors of one name per token with every star apart from its name. The
    text mixes in non-ASCII letters, digits and numerals, and a combining
    mark, which is no name character."""

    @settings(max_examples=400, deadline=None)
    @given(text=_EXPR_TEXT)
    def test_runs_expand_to_the_character_scan(self, text):
        tokens, error = _scan(algebra._tokenize_expr, text)
        assert (_expand_runs(tokens), error) == _scan(reference_tokens, text)
        assert all(tok[1].count(".") < 64 for tok in tokens if tok[0] == "run")

    @settings(max_examples=300, deadline=None)
    @given(text=_EXPR_TEXT, ring=st.sampled_from([INTEGERS, IntegerModRing(3)]))
    def test_runs_parse_as_their_names_one_run_each(self, text, ring):
        got = _outcome(text, R3, ring)
        with mock.patch.object(algebra, "_tokenize_expr", _one_name_runs):
            assert got == _outcome(text, R3, ring)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("x *", "(x)*"),
            ("x\t*", "(x)*"),
            ("3*x *", "3*(x)*"),
            ("x * . y", "0"),
            ("w *.w *", "(w.w)*"),
            ("3 * x *.x", "3*b"),
            ("a *", "a"),
            ("(x.y) *", "(x.y)*"),
        ],
    )
    def test_a_star_apart_from_its_name(self, ring, text, value):
        assert str(parse_element(text, R3, ring)) == value

    def test_an_integer_is_a_run_of_what_isdecimal_says(self):
        digits = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isdecimal()]
        for ch in digits + ["\u00b2", "\u00bd", "\u2167", "\u00b2\u00b2"]:
            text = f"1{ch}{ch}*x"
            tokens, error = _scan(algebra._tokenize_expr, text)
            assert (_expand_runs(tokens), error) == _scan(reference_tokens, text), repr(ch)

    def test_a_long_word_is_runs_of_at_most_64_names(self):
        word = ".".join(_r3_walk(R3, 3000, 11))
        tokens = list(algebra._tokenize_expr(word))
        assert [tok[0] for tok in tokens] == ["run", "."] * 46 + ["run", "eof"]
        assert [tok[2] for tok in tokens[:3]] == [1, 128, 129]

    @pytest.mark.parametrize(
        "text,column,message",
        [
            ("x.y.qq.z", 5, "unknown vertex or edge 'qq'"),
            (_UNKNOWN_IN_A_LONG_RUN, 299, "unknown vertex or edge 'qq'"),
            ("3 x.y", 3, "expected '*' after a scalar, found 'x'"),
            ("(x*.y)", 3, "expected ')', found '*'"),
            ("(x.y*)", 5, "expected ')', found '*'"),
            ("(x.w)", 2, "edges x and w do not compose"),
            ("(x.x*)", 2, "edges x and x do not compose"),
            ("(x.qq*)", 4, "unknown edge 'qq'"),
            ("x.y\u00e9", 3, "unknown vertex or edge 'y\u00e9'"),
            ("x.qq %", 6, "unexpected character '%'"),
            ("x**", 3, "expected '+', '-' or end of input, found '*'"),
            ("3/x.y", 3, "expected a denominator, found 'x'"),
            ("x y.z", 3, "expected '+', '-' or end of input, found 'y'"),
            ("x *y", 4, "expected '+', '-' or end of input, found 'y'"),
            ("x * *", 5, "expected '+', '-' or end of input, found '*'"),
            ("x* *", 4, "expected '+', '-' or end of input, found '*'"),
            ("(x *)", 4, "expected ')', found '*'"),
            ("(x .y *)", 7, "expected ')', found '*'"),
            ("x.qq *", 3, "unknown vertex or edge 'qq'"),
        ],
        ids=lambda v: v[:12] if isinstance(v, str) else None,
    )
    def test_errors_inside_runs(self, ring, text, column, message):
        with pytest.raises(ElementSyntaxError) as err:
            parse_element(text, R3, ring)
        assert (err.value.column, str(err.value)) == (column, f"column {column}: {message}")


class TestEnumerateMonomials:
    def test_counts_and_normality(self, chain_graph):
        monos = enumerate_monomials(chain_graph, 2)
        assert all(m.is_normal(chain_graph) for m in monos)
        # degree-0 slice: 5 vertices plus f2f2*, f2f3*, f3f2*
        zero_weighted = [m for m in monos if m.alpha.length == m.beta.length]
        assert [m.render() for m in zero_weighted if m.weight() == 0] == [
            "v1",
            "v2",
            "v3",
            "v4",
            "v5",
        ]

    def test_ordering_is_canonical(self, graph_a):
        monos = enumerate_monomials(graph_a, 2)
        keys = [m.sort_key() for m in monos]
        assert keys == sorted(keys)
