import random
import sys
from dataclasses import replace

import pytest

import leavitt.frobenius as frobenius
from leavitt import (
    INTEGERS,
    RATIONALS,
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

from .util import GRAPH_R3, elem


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

    @pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, IntegerModRing(3)], ids=["z", "q", "z/3"])
    def test_pair_products_off_their_identities_are_a_construction_error(self, dm_b_mod2, ring, monkeypatch):
        # a defect that drops each degree's last minimal class, and with it
        # the last pair of its certificate, but keeps its local identity
        walk = frobenius._window_walk

        def dropping_walk(*args):
            count, reps = walk(*args)
            return count, [replace(r, minimal=replace(r.minimal, classes=r.minimal.classes[:-1])) for r in reps]

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
