"""Every element the package builds holds only normal terms.

A product whose meeting paths differ in length is folded with no rewrite
test (``algebra._add_products``), which is exact only when both factors are
normal. These tests pin that precondition on each way the package makes an
element: parsed expressions, the element operations, homogeneous parts,
local units and local identities with their certificates, the class
monomials those certificates wrap with no normalizing pass, Frobenius pairs
and both samplers. Normality is judged by ``util.brute_is_normal``, which
shares no code with ``Monomial.is_normal``. GRAPH_C has a flagged vertex,
where no rewrite applies.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    INTEGERS,
    RATIONALS,
    CyclicGroup,
    DegreeMap,
    IntegerGroup,
    IntegerModRing,
    build_frobenius_system,
    decompose,
    epsilon,
    local_units,
    minimal_classes,
    parse_element,
    parse_graph,
    random_element,
    random_homogeneous,
)

from .util import GRAPH_B, GRAPH_C, GRAPH_CHAIN, GRAPH_R3, brute_is_normal, brute_paths

GRAPHS = {
    "r3": parse_graph(GRAPH_R3),
    "b": parse_graph(GRAPH_B),
    "chain": parse_graph(GRAPH_CHAIN),
    "c": parse_graph(GRAPH_C),
}
RINGS = {"z": INTEGERS, "q": RATIONALS, "z/6": IntegerModRing(6)}


def assert_normal(x):
    for m in x.terms:
        a_ids = tuple(e.id for e in m.alpha.edges)
        b_ids = tuple(e.id for e in m.beta.edges)
        assert brute_is_normal(x.graph, a_ids, b_ids), f"{m.render()} in {x}"


def _words(graph):
    """Expression words: p.(q)* for every pair of paths of length <= 2
    with one range, normal or not, and one to three loose atoms, which
    may multiply to 0."""
    paths = sorted(brute_paths(graph, 2))  # (source id, edge ids, range id)
    pair_words = st.sampled_from(
        [f"({'.'.join(a) or s}).({'.'.join(b) or t})*" for s, a, r in paths for t, b, q in paths if r == q]
    )
    atoms = [v.id for v in graph.vertices] + [e.id for e in graph.edges] + [f"{e.id}*" for e in graph.edges]
    atom_words = st.lists(st.sampled_from(atoms), min_size=1, max_size=3).map(".".join)
    return st.one_of(pair_words, atom_words)


def _expressions(graph):
    term = st.tuples(st.sampled_from(["+", "-"]), st.integers(1, 3), _words(graph))
    return st.lists(term, min_size=1, max_size=4).map(
        lambda terms: " ".join(f"{sign} {k}*{word}" for sign, k, word in terms)
    )


def _every_derived(x, y, dm):
    """The elements the operations, decompose and local_units make from x
    and y."""
    out = [x + y, x - y, -x, x * y, y * x, x * x.involution(), x.scaled(2), x.involution()]
    for part in list(decompose(x, dm).values()) + list(decompose(x * y, dm).values()):
        out.append(part)
        lu = local_units(part, dm)
        out += [lu.left, lu.right]
        out += [e for pair in lu.left_certificate + lu.right_certificate for e in pair]
    return out


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parsed_and_derived_elements_hold_only_normal_terms(graph_name, ring_name, data):
    graph, ring = GRAPHS[graph_name], RINGS[ring_name]
    dm = DegreeMap.canonical(graph)
    x = parse_element(data.draw(_expressions(graph)), graph, ring)
    y = parse_element(data.draw(_expressions(graph)), graph, ring)
    for e in [x, y] + _every_derived(x, y, dm):
        assert_normal(e)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_sampled_elements_and_their_products_hold_only_normal_terms(graph_name, ring_name, seed):
    graph, ring = GRAPHS[graph_name], RINGS[ring_name]
    dm = DegreeMap.canonical(graph)
    rng = random.Random(seed)
    x = random_element(graph, ring, rng, len_bound=2)
    y = random_homogeneous(dm, ring, rng, len_bound=2)
    for e in [x, y] + _every_derived(x, y, dm) + _every_derived(y, x, dm):
        assert_normal(e)


def _maps(graph):
    """The canonical Z-grading with a window, and every edge in degree 1
    under Z/2 and Z/3 with the whole group."""
    yield DegreeMap.canonical(graph), range(-3, 4)
    for n in (2, 3):
        yield DegreeMap(graph, CyclicGroup(n), {e.id: 1 for e in graph.edges}), range(n)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_local_identities_and_certificates_hold_only_normal_terms(graph_name):
    # certificate pairs wrap their class monomials with no normalizing pass
    graph = GRAPHS[graph_name]
    present = 0
    for dm, degrees in _maps(graph):
        for g in degrees:
            rep = epsilon(g, dm, 4, IntegerModRing(6))
            if rep.present:
                present += 1
                assert_normal(rep.epsilon)
                for pair in rep.certificate:
                    for e in pair:
                        assert_normal(e)
    assert present


def test_every_class_monomial_is_normal_on_every_small_graph():
    # certificates wrap class monomials with no normalizing pass. Seed-free:
    # 85 edge lists on two vertices, each edge in every degree of Z/2, of
    # Z/3, of 0..2 and of -2..0 under Z; every g of a finite group and
    # -2..2 under Z; bounds 1..3: 77,025 cases
    maps = [
        (CyclicGroup(2), range(2), range(2)),
        (CyclicGroup(3), range(3), range(3)),
        (IntegerGroup(), range(3), range(-2, 3)),
        (IntegerGroup(), range(-2, 1), range(-2, 3)),
    ]
    cases = classes = 0
    for n_edges in range(4):
        for ends in itertools.product(itertools.product(range(2), repeat=2), repeat=n_edges):
            edges = "".join(f" e{i}: v{s} -> v{t};" for i, (s, t) in enumerate(ends))
            graph = parse_graph("vertices v0 v1;" + (f" edges{edges}" if edges else ""))
            for group, edge_degrees, gs in maps:
                for degrees in itertools.product(edge_degrees, repeat=n_edges):
                    dm = DegreeMap(graph, group, {f"e{i}": d for i, d in enumerate(degrees)})
                    for g in gs:
                        for bound in (1, 2, 3):
                            for c in minimal_classes(g, dm, bound).classes:
                                a_ids = tuple(e.id for e in c.alpha.edges)
                                b_ids = tuple(e.id for e in c.beta.edges)
                                assert brute_is_normal(graph, a_ids, b_ids), (edges, degrees, g, bound, c)
                                classes += 1
                            cases += 1
    assert cases == 77_025 and classes


@pytest.mark.parametrize("graph_name", ["b", "chain", "r3"])
@pytest.mark.parametrize("modulus", [2, 3])
def test_frobenius_pairs_and_identities_hold_only_normal_terms(graph_name, modulus):
    graph = GRAPHS[graph_name]
    dm = DegreeMap(graph, CyclicGroup(modulus), {e.id: 1 for e in graph.edges})
    system = build_frobenius_system(dm, 4, IntegerModRing(3))
    assert system.pairs
    for pair in system.pairs:
        for e in pair:
            assert_normal(e)
    for e in system.epsilons.values():
        assert_normal(e)
