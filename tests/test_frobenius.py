import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leavitt.algebra as algebra
import leavitt.frobenius as frobenius
import leavitt.grading as grading
from leavitt import (
    INTEGERS,
    RATIONALS,
    CoefficientRing,
    ConstructionError,
    CyclicGroup,
    DegreeMap,
    Element,
    EpsilonUnavailableError,
    FrobeniusBuildError,
    FrobeniusSystem,
    IntegerGroup,
    IntegerModRing,
    build_frobenius_system,
    epsilon,
    parse_graph,
    projection_e,
    random_element,
    random_homogeneous,
    verify_frobenius,
)

from .test_path_table import GRADINGS, graded_cases
from .util import (
    GRAPH_B,
    GRAPH_R3,
    elem,
    reference_frobenius_witness,
    reference_graded_reproduction,
    reference_reproduction,
)


@pytest.fixture(scope="module")
def dm_b_mod2(graph_b):
    return DegreeMap(graph_b, CyclicGroup(2), {e.id: 1 for e in graph_b.edges})


@pytest.fixture(scope="module")
def dm_chain_mod5(chain_graph):
    return DegreeMap(chain_graph, CyclicGroup(5), {e.id: 1 for e in chain_graph.edges})


class TestProjection:
    def test_degree_filter(self, chain_graph, ring):
        dm2 = DegreeMap(chain_graph, CyclicGroup(2), {e.id: 1 for e in chain_graph.edges})
        a = elem("v1 + f1", chain_graph, ring)
        assert projection_e(a, dm2) == elem("v1", chain_graph, ring)

    def test_identity_degree_fixed(self, chain_graph, dm_chain, ring):
        a = elem("f2.(f3)* - 2*v4", chain_graph, ring)
        assert projection_e(a, dm_chain) == a

    def test_mod_three_ghost_monomial(self, chain_graph, ring):
        dm3 = DegreeMap(chain_graph, CyclicGroup(3), {e.id: 1 for e in chain_graph.edges})
        a = elem("f2.(f4.f3)*", chain_graph, ring)  # degree -1, which is 2 mod 3
        assert projection_e(a, dm3).is_zero()

    def test_idempotent_and_bilinear(self, chain_graph, ring):
        dm2 = DegreeMap(chain_graph, CyclicGroup(2), {e.id: 1 for e in chain_graph.edges})
        rng = random.Random(3)
        for _ in range(20):
            a = random_element(chain_graph, ring, rng, len_bound=2)
            pa = projection_e(a, dm2)
            assert projection_e(pa, dm2) == pa


class TestBuild:
    def test_one_vertex_trivial_group(self, ring):
        g = parse_graph("vertices v; edges;")
        dm = DegreeMap(g, CyclicGroup(1), {})
        system = build_frobenius_system(dm, 1, ring)
        v = Element.vertex(g, ring, "v")
        assert system.pairs == ((v, v),)
        report = verify_frobenius(system, [v])
        assert report.verdict == "PASS"

    def test_graph_b_mod_two(self, graph_b, dm_b_mod2, ring):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        assert len(system.pairs) == 4
        rendered = {(str(x), str(y)) for x, y in system.pairs}
        assert rendered == {
            ("u", "u"),
            ("w", "w"),
            ("(e)*", "e"),
            ("(f)*", "f"),
        }

    def test_chain_mod_five_golden_pairs(self, chain_graph, dm_chain_mod5, ring):
        system = build_frobenius_system(dm_chain_mod5, 4, ring)
        rendered = [(str(x), str(y)) for x, y in system.pairs]
        assert rendered == [
            ("v1", "v1"),
            ("v2", "v2"),
            ("v3", "v3"),
            ("v4", "v4"),
            ("v5", "v5"),
            ("f1", "(f1)*"),
            ("f2", "(f2)*"),
            ("f3", "(f3)*"),
            ("f4", "(f4)*"),
            ("f4.f3", "(f4.f3)*"),
            ("(f4.f3)*", "f4.f3"),
            ("(f1)*", "f1"),
            ("(f2)*", "f2"),
            ("(f4)*", "f4"),
            ("f2.(f4.f3)*", "f4.f3.(f2)*"),
        ]

    def test_pair_products_sum_to_epsilons(self, dm_chain_mod5, chain_graph, ring):
        system = build_frobenius_system(dm_chain_mod5, 4, ring)
        total = Element.zero(chain_graph, ring)
        for x, y in system.pairs:
            total = total + x * y
        expected = Element.zero(chain_graph, ring)
        for eps in system.epsilons.values():
            expected = expected + eps
        assert total == expected

    def test_infinite_group_rejected(self, chain_graph, ring):
        dm = DegreeMap(chain_graph, IntegerGroup(), {e.id: 1 for e in chain_graph.edges})
        with pytest.raises(FrobeniusBuildError, match="not finite"):
            build_frobenius_system(dm, 4, ring)

    def test_flagged_graph_rejected(self, graph_c, ring):
        dm = DegreeMap(graph_c, CyclicGroup(2), {e.id: 1 for e in graph_c.edges})
        with pytest.raises(FrobeniusBuildError, match="flagged"):
            build_frobenius_system(dm, 3, ring)

    def test_build_lists_no_xg(self, monkeypatch, ring):
        # the Z/3 grading of R3 at the bound of the benchmark's Frobenius run
        dm = DegreeMap(parse_graph(GRAPH_R3), CyclicGroup(3), {"x": 1, "y": 1, "z": 1, "w": 0, "t": 2})
        original = sys.modules["leavitt.grading"].enumerate_Xg
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("leavitt") and getattr(module, "enumerate_Xg", None) is original:
                monkeypatch.setattr(module, "enumerate_Xg", counting)
        system = build_frobenius_system(dm, 5, ring)
        assert calls == []
        reps = [epsilon(g, dm, 5, ring) for g in range(3)]
        assert system.epsilons == {g: rep.epsilon for g, rep in enumerate(reps)}
        assert system.pairs == tuple(p for rep in reps for p in rep.certificate)
        assert calls  # the counter sees epsilon()'s listing

    def test_certificates_are_built_once_with_no_normalizing_pass(self, monkeypatch, any_ring):
        # each degree's pairs are stored by the walk that checks its local
        # identity on them, so neither the build nor a report rebuilds one
        # through Element.from_terms
        dm = DegreeMap(parse_graph(GRAPH_R3), CyclicGroup(3), {"x": 1, "y": 1, "z": 1, "w": 0, "t": 2})
        from_terms = Element.from_terms.__func__
        calls = []

        def counting(cls, *args):
            calls.append(args)
            return from_terms(cls, *args)

        monkeypatch.setattr(Element, "from_terms", classmethod(counting))
        system = build_frobenius_system(dm, 5, any_ring)
        reps = [epsilon(g, dm, 5, any_ring) for g in range(3)]
        reports = [rep.to_report() for rep in reps]
        assert calls == []
        assert all(rep.certificate is rep.certificate for rep in reps)
        assert system.pairs == tuple(p for rep in reps for p in rep.certificate)
        assert [len(r.fields["certificate"]) for r in reports] == [len(rep.minimal.classes) for rep in reps]

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, IntegerModRing(3)], ids=["z", "q", "z/3"])
    def test_pair_products_off_their_identities_are_a_construction_error(self, dm_b_mod2, ring, monkeypatch):
        # a defect that drops the last pair of each degree's certificate but
        # keeps its local identity
        walk = frobenius._window_walk

        def dropping_walk(*args):
            count, reps = walk(*args)
            return count, [replace(r, certificate=r.certificate[:-1]) for r in reps]

        monkeypatch.setattr(frobenius, "_window_walk", dropping_walk)
        with pytest.raises(ConstructionError) as info:
            build_frobenius_system(dm_b_mod2, 4, ring)
        assert str(info.value) == "pair products 2*u do not sum to the local identities 2*u + 2*w"

    def test_undecided_degree_is_its_own_error(self, ring):
        loop = parse_graph("graph l { vertices: v ; edges: e: v -> v; }")
        dm = DegreeMap(loop, CyclicGroup(2), {"e": 0})
        with pytest.raises(EpsilonUnavailableError, match="degree 1 unavailable: undetermined at bound 2"):
            build_frobenius_system(dm, 2, ring)


class TestVerify:
    def test_graph_b_random_samples(self, graph_b, dm_b_mod2, ring):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        rng = random.Random(17)
        samples = [random_element(graph_b, ring, rng, len_bound=3) for _ in range(100)]
        triples = [
            (
                random_homogeneous(dm_b_mod2, ring, rng, degree=0, len_bound=2),
                random_element(graph_b, ring, rng, len_bound=2),
                random_homogeneous(dm_b_mod2, ring, rng, degree=0, len_bound=2),
            )
            for _ in range(30)
        ]
        report = verify_frobenius(system, samples, triples, seed=17)
        assert report.verdict == "PASS"
        assert report.fields["samples-verified"] == 100
        assert report.fields["bimodule-triples-verified"] == 30
        assert report.fields["seed"] == 17

    def test_corrupted_system_caught(self, graph_b, dm_b_mod2, ring):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        corrupted = FrobeniusSystem(
            degree_map=system.degree_map,
            ring=system.ring,
            bound_used=system.bound_used,
            pairs=system.pairs[:-1],
            epsilons=system.epsilons,
        )
        e = elem("f", graph_b, ring)
        report = verify_frobenius(corrupted, [e])
        assert report.verdict == "FAIL"
        # the first failing sample, identity and reconstruction, which the
        # order of the sums decides
        assert report.fields["witness"] == {
            "element": "f",
            "identity": "E(s x_j) y_j",
            "reconstructed": "0",
        }
        report = verify_frobenius(corrupted, [elem("e", graph_b, ring), elem("e + f", graph_b, ring)])
        assert report.fields["witness"] == {
            "element": "e + f",
            "identity": "E(s x_j) y_j",
            "reconstructed": "e",
        }

    def test_a_trace_that_is_no_bimodule_map_is_caught(self, graph_b, dm_b_mod2, ring, monkeypatch):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        # a defect: a trace that also drops the terms of weight above 2,
        # which fixes both factors but does not commute with them
        trace = frobenius.projection_e

        def truncated(a, dm):
            return Element(a.graph, a.ring, {m: c for m, c in trace(a, dm).terms.items() if m.weight() <= 2})

        monkeypatch.setattr(frobenius, "projection_e", truncated)
        t, a, t2 = (elem(text, graph_b, ring) for text in ("(e.e)*", "e.e.e.e", "u"))
        report = verify_frobenius(system, [], [(t, a, t2)])
        assert report.verdict == "FAIL"
        assert report.fields["witness"] == {"law": "E(t a t')", "t": "(e.e)*", "a": "e.e.e.e", "t2": "u"}
        assert "bimodule-triples-verified" not in report.fields

    def test_each_bimodule_factor_must_have_identity_degree(self, graph_b, dm_b_mod2, ring):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        zero, a = Element.zero(graph_b, ring), elem("e.e.e.e", graph_b, ring)
        vertices, loop = elem("u + w", graph_b, ring), elem("(e.e)*", graph_b, ring)
        report = verify_frobenius(system, [], [(zero, a, vertices), (loop, a, zero)])
        assert (report.verdict, report.fields["bimodule-triples-verified"]) == ("PASS", 2)
        for factor in ("e", "u + e", "(e)*"):
            x = elem(factor, graph_b, ring)
            for triple in ((x, a, zero), (zero, a, x)):
                with pytest.raises(ValueError, match="^bimodule factors must have identity degree$"):
                    verify_frobenius(system, [], [triple])

    def test_trace_name(self, dm_b_mod2, graph_b, ring):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        a = elem("e + f", graph_b, ring)
        assert system.trace(a) == projection_e(a, dm_b_mod2)


# the finite gradings of graded_cases, with Z/2 and Z/4 beside Z/3 and S3
FINITE_GRADINGS = {
    "Z/2": (CyclicGroup(2), st.integers(0, 1), st.integers(0, 1)),
    "Z/3": GRADINGS["Z/3"],
    "Z/4": (CyclicGroup(4), st.integers(0, 3), st.integers(0, 3)),
    "S3": GRADINGS["S3"],
}
RINGS = {"Z": INTEGERS, "Z/3": IntegerModRing(3), "Q": RATIONALS}


@st.composite
def frobenius_cases(draw):
    """A system and its samples over a finite grading of graded_cases and
    one of Z, Z/3 and Q: the built system when the build succeeds at bound
    2, else pairs of random elements; the samples are zero, homogeneous and
    random elements."""
    degree_map, _ = draw(graded_cases(FINITE_GRADINGS))
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    graph = degree_map.graph
    rng = random.Random(draw(st.integers(0, 2**32)))
    try:
        system = build_frobenius_system(degree_map, 2, ring)
    except FrobeniusBuildError:
        pairs = tuple(
            (random_element(graph, ring, rng, len_bound=2), random_element(graph, ring, rng, len_bound=2))
            for _ in range(draw(st.integers(1, 4)))
        )
        system = FrobeniusSystem(degree_map=degree_map, ring=ring, bound_used=2, pairs=pairs, epsilons={})
    samples = [Element.zero(graph, ring)]
    samples += [random_homogeneous(degree_map, ring, rng, len_bound=2) for _ in range(3)]
    samples += [random_element(graph, ring, rng, len_bound=2) for _ in range(3)]
    rng.shuffle(samples)
    return system, samples


MONO_PRODUCT = algebra._mono_product


def counting_products(calls):
    """algebra._mono_product, counting each (m1, m2) it is called on in calls."""

    def product(m1, m2):
        calls[m1, m2] += 1
        return MONO_PRODUCT(m1, m2)

    return product


def reproduction_terms(system, s):
    """The term maps of both sums of verify_frobenius on the sample s."""
    dm = system.degree_map

    def by_inverse_degree(e):
        return grading._degree_buckets(e, lambda m: dm.group.inverse(dm.degree_of(m)))

    pairs = tuple((x, y, by_inverse_degree(x), by_inverse_degree(y)) for x, y in system.pairs)
    buckets = grading._degree_buckets(s, dm.degree_of)
    return tuple(frobenius._reproduction(dm.graph, system.ring, pairs, buckets, left) for left in (True, False))


class TestReproductionFold:
    @settings(max_examples=150, deadline=None)
    @given(case=frobenius_cases())
    def test_both_sums_are_the_definition(self, case):
        system, samples = case
        for s in samples:
            left, right = reference_reproduction(system, s)
            assert reproduction_terms(system, s) == (left.terms, right.terms)

    @settings(max_examples=100, deadline=None)
    @given(case=frobenius_cases(), data=st.data())
    def test_a_corrupted_system_fails_with_the_definitions_witness(self, case, data):
        system, samples = case
        j = data.draw(st.integers(0, len(system.pairs) - 1))
        x, y = system.pairs[j]
        dropped = system.pairs[:j] + system.pairs[j + 1:]
        scaled = system.pairs[:j] + ((x * 2, y),) + system.pairs[j + 1:]
        for pairs in (system.pairs, dropped, scaled):
            corrupted = replace(system, pairs=pairs)
            witness = reference_frobenius_witness(corrupted, samples)
            report = verify_frobenius(corrupted, samples)
            assert (report.verdict, report.fields.get("witness")) == ("PASS" if witness is None else "FAIL", witness)

    @settings(max_examples=100, deadline=None)
    @given(case=frobenius_cases())
    def test_the_sums_make_the_definitions_monomial_products_and_no_element_product(self, case):
        # The products are the definition's, restricted to the homogeneous
        # parts whose degrees multiply to the identity: on a built system
        # and on arbitrary pairs alike, since each pair's kept products are
        # folded into one map before its outer products.
        system, samples = case
        original_mul = Element.__mul__
        element_products = []
        for s in samples:
            oracle, kernel = Counter(), Counter()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(algebra, "_mono_product", counting_products(oracle))
                graded = reference_graded_reproduction(system, s)
            assert graded == reference_reproduction(system, s)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(algebra, "_mono_product", counting_products(kernel))
                mp.setattr(Element, "__mul__", lambda a, b: element_products.append(b) or original_mul(a, b))
                verify_frobenius(system, [s])
            assert kernel == oracle
        assert element_products == []

    def test_the_products_of_the_benchmark_system_are_the_definitions(self, monkeypatch):
        # the Z/3 grading of R3 at the bound of the benchmark's Frobenius run
        graph = parse_graph(GRAPH_R3)
        dm = DegreeMap(graph, CyclicGroup(3), {"x": 1, "y": 1, "z": 1, "w": 0, "t": 2})
        ring = IntegerModRing(3)
        system = build_frobenius_system(dm, 5, ring)
        rng = random.Random(1)
        samples = [random_homogeneous(dm, ring, rng, len_bound=5) for _ in range(20)]
        definition = [reference_reproduction(system, s) for s in samples]
        for s, sums in zip(samples, definition):
            assert reproduction_terms(system, s) == tuple(e.terms for e in sums)
        oracle, kernel = Counter(), Counter()
        monkeypatch.setattr(algebra, "_mono_product", counting_products(oracle))
        assert [reference_graded_reproduction(system, s) for s in samples] == definition
        monkeypatch.setattr(algebra, "_mono_product", counting_products(kernel))
        assert verify_frobenius(system, samples).verdict == "PASS"
        assert kernel == oracle

    def test_a_sample_over_another_graph_or_ring_is_refused(self, graph_b, dm_b_mod2, ring):
        system = build_frobenius_system(dm_b_mod2, 4, ring)
        for s in (elem("e", parse_graph(GRAPH_B), ring), elem("e", graph_b, RATIONALS)):
            with pytest.raises(ValueError, match="^elements live over different graphs or rings$"):
                verify_frobenius(system, [elem("f", graph_b, ring), s])


class MatrixRing(CoefficientRing):
    """2x2 integer matrices as (a, b, c, d), row by row: a noncommutative
    ring for the order of scalar products, known to the tests only."""

    name = "M2(Z)"
    zero = (0, 0, 0, 0)
    one = (1, 0, 0, 1)
    SCALARS = ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0), (2, 0, 0, -1), (1, 0, 0, 0))

    def coerce(self, value):
        return (value, 0, 0, value) if isinstance(value, int) else value

    def add(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def neg(self, p):
        return tuple(-a for a in p)

    def mul(self, p, q):
        a, b, c, d = p
        e, f, g, h = q
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def is_zero(self, p):
        return p == self.zero

    def is_negative(self, p):
        return False

    def magnitude(self, p):
        return p

    def render(self, p):
        return "[" + ",".join(map(str, p)) + "]"

    def random_scalar(self, rng):
        return rng.choice(self.SCALARS)


class TestCoefficientOrder:
    def test_left_is_x_yz_and_right_is_zx_y(self, graph_b, dm_b_mod2):
        ring = MatrixRing()
        a, b, c = ring.SCALARS[:3]
        u = Element.vertex(graph_b, ring, "u")
        system = FrobeniusSystem(dm_b_mod2, ring, 1, ((u.scaled(a), u.scaled(b)),), {})
        left, right = reproduction_terms(system, u.scaled(c))
        (mono,) = u.terms
        assert left == {mono: ring.mul(a, ring.mul(b, c))}
        assert right == {mono: ring.mul(ring.mul(c, a), b)}
        # abc, cab and the orders a swapped factor gives, acb and bca, differ
        assert len({ring.mul(ring.mul(p, q), r) for p, q, r in ((a, b, c), (c, a, b), (a, c, b), (b, c, a))}) == 4

    def test_an_element_product_multiplies_scalars_left_to_right(self, graph_b):
        ring = MatrixRing()
        a, b = ring.SCALARS[:2]
        u = Element.vertex(graph_b, ring, "u")
        (mono,) = u.terms
        assert (u.scaled(a) * u.scaled(b)).terms == {mono: ring.mul(a, b)}
        assert ring.mul(a, b) != ring.mul(b, a)

    def test_noncentral_pairs_reproduce_as_the_definition(self, graph_b, dm_b_mod2):
        ring = MatrixRing()
        rng = random.Random(5)

        def noncentral(e):
            return Element(graph_b, ring, {m: rng.choice(ring.SCALARS) for m in e.terms})

        pairs = tuple((noncentral(x), noncentral(y)) for x, y in build_frobenius_system(dm_b_mod2, 4, INTEGERS).pairs)
        system = FrobeniusSystem(dm_b_mod2, ring, 4, pairs, {})
        samples = [random_element(graph_b, ring, rng, len_bound=3) for _ in range(40)]
        samples += [random_homogeneous(dm_b_mod2, ring, rng, len_bound=3) for _ in range(20)]
        for s in samples:
            left, right = reference_reproduction(system, s)
            assert reproduction_terms(system, s) == (left.terms, right.terms)
        report = verify_frobenius(system, samples)
        assert report.fields.get("witness") == reference_frobenius_witness(system, samples)
