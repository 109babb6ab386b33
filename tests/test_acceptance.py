"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; every expected value here is exact, no tolerances.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from leavitt import (
    CyclicGroup,
    DegreeMap,
    Edge,
    Element,
    Graph,
    INTEGERS,
    IntegerModRing,
    Monomial,
    RATIONALS,
    Vertex,
    check_nearly_epsilon,
    check_strongly_graded,
    check_symmetric,
    build_frobenius_system,
    enumerate_Xg,
    enumerate_monomials,
    epsilon,
    local_units,
    normal_form_shuffled,
    parse_element,
    parse_graph,
    random_element,
    random_homogeneous,
    verify_frobenius,
)

from .util import GRAPH_A, GRAPH_B, GRAPH_C, GRAPH_CHAIN

ALL_RINGS = (INTEGERS, RATIONALS, IntegerModRing(2), IntegerModRing(3))


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number}: FAIL  {description} (took {elapsed:.2f}s, budget {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number}: PASS  {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def graphs():
    return {
        "chain": parse_graph(GRAPH_CHAIN),
        "a": parse_graph(GRAPH_A),
        "b": parse_graph(GRAPH_B),
        "c": parse_graph(GRAPH_C),
    }


@pytest.fixture(scope="module")
def degree_maps(graphs):
    return {name: DegreeMap.canonical(g) for name, g in graphs.items()}


GOLDEN_XG = {
    1: ["f1", "f2", "f3", "f4", "f4.f3.(f2)*"],
    -1: ["(f1)*", "(f2)*", "(f3)*", "(f4)*", "f2.(f4.f3)*"],
    2: ["f4.f3"],
    -2: ["(f4.f3)*"],
    0: ["v1", "v2", "v3", "v4", "v5", "f2.(f2)*", "f2.(f3)*", "f3.(f2)*"],
}

GOLDEN_EPSILON = {
    0: "v1 + v2 + v3 + v4 + v5",
    1: "v2 + v4 + v5",
    -1: "v1 + v3 + v4 + f2.(f2)*",
    2: "v5",
    -2: "v3",
}


def _run_chain_goldens(graph, dmap, ring):
    for n, expected in GOLDEN_XG.items():
        assert [m.render() for m in enumerate_Xg(n, dmap, 4)] == expected
    for n in range(3, 7):
        assert enumerate_Xg(n, dmap, 6) == ()
        assert enumerate_Xg(-n, dmap, 6) == ()
    # the remaining listed degree-0 spanning monomial is dependent:
    # f1 f1* = v2 - f2 f2*, so the listed set spans the enumerated basis
    assert parse_element("f1.(f1)*", graph, ring) == parse_element(
        "v2 - f2.(f2)*", graph, ring
    )
    for n, expected in GOLDEN_EPSILON.items():
        rep = epsilon(n, dmap, 4, ring)
        assert rep.present and str(rep.epsilon) == expected
    for n in (3, -3, 4, -4):
        rep = epsilon(n, dmap, 6, ring)
        assert rep.present and rep.epsilon.is_zero()


def test_criterion_01_chain_graph_golden_suite(graphs, degree_maps):
    with criterion(1, "golden homogeneous components and local identities", 1.0):
        _run_chain_goldens(graphs["chain"], degree_maps["chain"], INTEGERS)


def test_criterion_02_introduction_trichotomy(graphs, degree_maps):
    with criterion(2, "strong / epsilon-strong / nearly-epsilon trichotomy", 5.0):
        report_a = check_strongly_graded(degree_maps["a"], range(-3, 4), 6, INTEGERS)
        assert report_a.verdict == "STRONG"

        report_b = check_strongly_graded(degree_maps["b"], range(-3, 4), 6, INTEGERS)
        assert report_b.verdict == "NOT_STRONG"
        from leavitt import check_epsilon_strong

        assert (
            check_epsilon_strong(degree_maps["b"], range(-3, 4), 6, INTEGERS).verdict
            == "EPSILON_STRONG"
        )

        report_c = check_epsilon_strong(degree_maps["c"], range(-1, 2), 3, INTEGERS)
        assert report_c.verdict == "NOT_EPSILON_STRONG"
        assert report_c.fields["witness"]["degree"] == "1"
        assert len(report_c.fields["witness"]["sibling-classes"]) == 2

        rng = random.Random(2)
        samples = [
            random_homogeneous(degree_maps["c"], INTEGERS, rng, len_bound=3)
            for _ in range(50)
        ]
        nearly = check_nearly_epsilon(degree_maps["c"], samples)
        assert nearly.verdict == "PASS"
        assert nearly.fields["samples-verified"] == 50


def _connected_graphs(max_vertices=3, max_edges=3):
    for nv in range(1, max_vertices + 1):
        vertices = [Vertex(f"v{i}") for i in range(1, nv + 1)]
        pair_types = [(i, j) for i in range(nv) for j in range(nv)]
        for ne in range(0, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pair_types, ne):
                parent = list(range(nv))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for i, j in combo:
                    parent[find(i)] = find(j)
                if len({find(i) for i in range(nv)}) != 1:
                    continue
                edges = [
                    Edge(f"e{k}", vertices[i], vertices[j])
                    for k, (i, j) in enumerate(combo, start=1)
                ]
                yield Graph(vertices, edges)


def test_criterion_03_sink_criterion_agreement():
    with criterion(3, "sink criterion agrees with local-identity criterion", 120.0):
        count = 0
        for graph in _connected_graphs():
            dmap = DegreeMap.canonical(graph)
            report = check_strongly_graded(dmap, range(-3, 4), 6, INTEGERS)
            structural = report.fields["structural"]["verdict"]
            computational = report.fields["computational"]["verdict"]
            assert computational in ("STRONG", "NOT_STRONG"), (
                graph,
                computational,
            )
            assert report.fields["agreement"] is True, (graph, structural, computational)
            count += 1
        assert count > 100
        print(f"  (checked {count} connected graphs)")


def _check_defining_relations(graph, ring):
    from leavitt import Path

    def real(e):
        return Element.real_path(graph, ring, Path(e.source, (e,)))

    for v in graph.vertices:
        for w in graph.vertices:
            ev = Element.vertex(graph, ring, v)
            ew = Element.vertex(graph, ring, w)
            assert ev * ew == (ev if v == w else Element.zero(graph, ring))
    for e in graph.edges:
        f = real(e)
        fstar = f.involution()
        s = Element.vertex(graph, ring, e.source)
        r = Element.vertex(graph, ring, e.range)
        assert s * f == f and f * r == f
        assert r * fstar == fstar and fstar * s == fstar
    for e in graph.edges:
        for f in graph.edges:
            product = real(e).involution() * real(f)
            if e == f:
                assert product == Element.vertex(graph, ring, e.range)
            else:
                assert product.is_zero()
    for v in graph.regular_vertices():
        total = Element.zero(graph, ring)
        for e in graph.out_edges(v):
            fe = real(e)
            total = total + fe * fe.involution()
        assert total == Element.vertex(graph, ring, v)


def _confluence_trials(graph, ring, rng, trials):
    paths = graph.enumerate_paths(3)
    by_range = {}
    for p in paths:
        by_range.setdefault(p.range.id, []).append(p)
    range_ids = sorted(by_range)
    for _ in range(trials):
        raw = []
        for _ in range(rng.randint(1, 6)):
            bucket = by_range[rng.choice(range_ids)]
            raw.append(
                (
                    Monomial(rng.choice(bucket), rng.choice(bucket)),
                    rng.choice([-3, -2, -1, 1, 2, 3]),
                )
            )
        assert normal_form_shuffled(graph, ring, raw, rng) == Element.from_terms(
            graph, ring, raw
        )


def test_criterion_04_relations_and_confluence(graphs):
    with criterion(4, "defining relations hold; rewriting is order-independent", 60.0):
        for graph in graphs.values():
            _check_defining_relations(graph, INTEGERS)
        rng = random.Random(41)
        for graph in graphs.values():
            _confluence_trials(graph, INTEGERS, rng, 250)


def test_criterion_05_order_theory_suite(graphs, degree_maps):
    from leavitt import is_initial_subpath, nmap

    with criterion(5, "dichotomy, preorder laws, quotient antisymmetry to bound 5", 60.0):
        for name in ("chain", "a", "b"):
            graph, dmap = graphs[name], degree_maps[name]
            for g in range(-3, 4):
                xs = enumerate_Xg(g, dmap, 5)
                nvals = {x: nmap(graph, INTEGERS, x) for x in xs}
                for x in xs:
                    assert is_initial_subpath(x.alpha, x.alpha)
                for x in xs:
                    for y in xs:
                        ley_xy = is_initial_subpath(x.alpha, y.alpha)
                        ley_yx = is_initial_subpath(y.alpha, x.alpha)
                        if ley_xy and ley_yx:
                            assert x.alpha == y.alpha
                        ey = Element.monomial(graph, INTEGERS, y)
                        if ley_xy:
                            assert nvals[x] * ey == ey
                        elif not ley_yx:
                            assert (nvals[x] * ey).is_zero()
                        if ley_xy:
                            for z in xs:
                                if is_initial_subpath(y.alpha, z.alpha):
                                    assert is_initial_subpath(x.alpha, z.alpha)


def _seeded_homogeneous_samples(degree_maps, count=200, seed=6):
    rng = random.Random(seed)
    names = ("a", "b", "c", "chain")
    samples = []
    for i in range(count):
        dmap = degree_maps[names[i % len(names)]]
        samples.append((dmap, random_homogeneous(dmap, INTEGERS, rng, len_bound=3)))
    return samples


def test_criterion_06_nearly_epsilon_certificates(degree_maps):
    with criterion(6, "exact local units for 200 seeded homogeneous elements", 60.0):
        for dmap, s in _seeded_homogeneous_samples(degree_maps):
            lu = local_units(s, dmap)
            assert lu.left * s == s
            assert s * lu.right == s


def test_criterion_07_symmetric_grading(degree_maps):
    with criterion(7, "m = m m* m for all monomials to bound 5", 60.0):
        for dmap in degree_maps.values():
            assert check_symmetric(dmap, 5, INTEGERS).verdict == "PASS"


def test_criterion_08_frobenius_systems(graphs):
    with criterion(8, "Frobenius systems verified for B mod 2 and the chain graph mod 5", 60.0):
        setups = [
            ("b", CyclicGroup(2), 4),
            ("chain", CyclicGroup(5), 4),
        ]
        rng = random.Random(8)
        for name, group, bound in setups:
            graph = graphs[name]
            dmap = DegreeMap(graph, group, {e.id: 1 for e in graph.edges})
            system = build_frobenius_system(dmap, bound, INTEGERS)
            samples = [
                random_element(graph, INTEGERS, rng, len_bound=3) for _ in range(100)
            ]
            triples = [
                (
                    random_homogeneous(dmap, INTEGERS, rng, degree=group.identity, len_bound=2),
                    random_element(graph, INTEGERS, rng, len_bound=2),
                    random_homogeneous(dmap, INTEGERS, rng, degree=group.identity, len_bound=2),
                )
                for _ in range(50)
            ]
            report = verify_frobenius(system, samples, triples, seed=8)
            assert report.verdict == "PASS"
            assert report.fields["samples-verified"] == 100
            assert report.fields["bimodule-triples-verified"] == 50


def test_criterion_09_nondegeneracy_witnesses(degree_maps):
    with criterion(9, "verified nondegeneracy witnesses for criterion-6 samples"):
        for dmap, s in _seeded_homogeneous_samples(degree_maps):
            w = local_units(s, dmap)
            assert w.left * s == s
            assert s * w.right == s
            assert not s.is_zero()


def test_criterion_10_coefficient_ring_sweep(graphs, degree_maps):
    with criterion(10, "criteria 1, 4, 7 identical over Z, Q, Z/2, Z/3"):
        for ring in ALL_RINGS:
            _run_chain_goldens(graphs["chain"], degree_maps["chain"], ring)
            for graph in graphs.values():
                _check_defining_relations(graph, ring)
            rng = random.Random(10)
            for graph in graphs.values():
                _confluence_trials(graph, ring, rng, 60)
            for dmap in degree_maps.values():
                assert check_symmetric(dmap, 5, ring).verdict == "PASS"
        renderings = {
            str(epsilon(n, degree_maps["chain"], 4, ring).epsilon)
            for ring in ALL_RINGS
            for n in (-2, -1, 0, 1, 2)
        }
        assert renderings == set(GOLDEN_EPSILON.values())
