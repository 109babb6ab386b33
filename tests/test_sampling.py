"""Seeded samplers and the populations they draw from, built once per owner."""

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    INTEGERS,
    RATIONALS,
    DegreeMap,
    Element,
    HomogeneityError,
    IntegerGroup,
    IntegerModRing,
    enumerate_monomials,
    enumerate_Xg,
    parse_graph,
    random_element,
    random_homogeneous,
)
from leavitt import sampling
from leavitt.sampling import MAX_SUPPORT, realized_degrees

from .test_path_table import graded_cases
from .util import GRAPH_R3, reference_random_scalar


def reference_homogeneous(degree_map, ring, rng, degree=None, len_bound=3):
    """random_homogeneous with its population rebuilt on every call."""
    if degree is None:
        options = realized_degrees(degree_map, len_bound)
        if not options:
            raise HomogeneityError(f"no monomials within bound {len_bound}")
        degree = options[rng.randrange(len(options))]
    monos = enumerate_Xg(degree, degree_map, len_bound)
    if not monos:
        raise HomogeneityError(f"no monomials of degree {degree} within bound {len_bound}")
    return reference_combination(degree_map.graph, ring, rng, monos, 1)


def reference_element(graph, ring, rng, len_bound=3):
    """random_element with its population rebuilt on every call."""
    monos = enumerate_monomials(graph, len_bound)
    if not monos:
        return Element.zero(graph, ring)
    return reference_combination(graph, ring, rng, monos, 0)


def reference_combination(graph, ring, rng, monos, least):
    k = rng.randint(least, min(MAX_SUPPORT, len(monos)))
    picks = rng.sample(list(monos), k)
    return Element.from_terms(graph, ring, [(m, reference_random_scalar(ring, rng)) for m in picks])


@pytest.mark.parametrize(
    "ring", [INTEGERS, RATIONALS, IntegerModRing(2), IntegerModRing(3), IntegerModRing(7)], ids=str
)
def test_each_ring_draws_its_scalars_as_the_class_dispatch_did(ring):
    for seed in range(200):
        own, reference = random.Random(seed), random.Random(seed)
        draws = [ring.random_scalar(own) for _ in range(10)]
        # the dispatch's draws, as ring elements: from_terms coerced them
        expected = [ring.coerce(reference_random_scalar(ring, reference)) for _ in range(10)]
        assert [(type(x), x) for x in draws] == [(type(x), x) for x in expected]
        assert own.getstate() == reference.getstate()


def outcome(draw, *args, **kwargs):
    """The drawn element as text, or the fact that the draw was refused."""
    try:
        return str(draw(*args, **kwargs))
    except HomogeneityError:
        return "refused"


def counting(monkeypatch, name):
    """Replace leavitt.sampling.<name> with a wrapper; returns the list of
    first arguments it was called with."""
    calls = []
    original = getattr(sampling, name)

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(sampling, name, wrapper)
    return calls


def test_xg_is_built_once_per_drawn_degree(monkeypatch):
    dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
    calls = counting(monkeypatch, "enumerate_Xg")
    rng = random.Random(5)
    samples = [random_homogeneous(dm, INTEGERS, rng, len_bound=4) for _ in range(200)]
    drawn = {dm.degree_of(next(iter(s.terms))) for s in samples}
    assert len(drawn) > 1
    assert Counter(calls) == Counter(drawn)


def test_monomial_list_is_built_once_per_graph_and_bound(monkeypatch):
    graph = parse_graph(GRAPH_R3)
    calls = counting(monkeypatch, "enumerate_monomials")
    rng = random.Random(6)
    for _ in range(50):
        random_element(graph, INTEGERS, rng, len_bound=3)
    assert calls == [graph]


def test_degree_maps_over_one_graph_do_not_share_xg(monkeypatch):
    graph = parse_graph(GRAPH_R3)
    canonical = DegreeMap.canonical(graph)
    other = DegreeMap(graph, IntegerGroup(), {"x": 1, "y": 0, "z": 0, "w": 2, "t": -1})
    calls = counting(monkeypatch, "enumerate_Xg")
    rng = random.Random(7)
    for dm in (canonical, other, canonical, other):
        for _ in range(20):
            s = random_homogeneous(dm, INTEGERS, rng, degree=1, len_bound=3)
            assert {dm.degree_of(m) for m in s.terms} == {1}
    assert calls == [1, 1]
    assert enumerate_Xg(1, canonical, 3) != enumerate_Xg(1, other, 3)


def test_memo_entries_die_with_their_owners(monkeypatch):
    class Monomials(list):
        """A list that a weak reference can follow."""

    original, built = sampling.enumerate_monomials, []

    def tracked(*args):
        built.append(Monomials(original(*args)))
        return built[-1]

    monkeypatch.setattr(sampling, "enumerate_monomials", tracked)
    graph = parse_graph(GRAPH_R3)
    dm = DegreeMap.canonical(graph)
    rng = random.Random(8)
    random_homogeneous(dm, INTEGERS, rng, len_bound=2)
    random_element(graph, INTEGERS, rng, len_bound=2)
    random_element(graph, INTEGERS, rng, len_bound=2)
    dm_alive, graph_alive = weakref.ref(dm), weakref.ref(graph)
    table_alive = weakref.ref(dm.path_table(2))
    monos_alive = weakref.ref(built.pop())
    assert not built
    del dm
    gc.collect()
    assert dm_alive() is None and table_alive() is None
    assert monos_alive() is not None
    del graph
    gc.collect()
    assert graph_alive() is None and monos_alive() is None


RINGS = st.sampled_from([INTEGERS, RATIONALS, IntegerModRing(3)])


@settings(max_examples=150, deadline=None)
@given(
    case=graded_cases(),
    ring=RINGS,
    bounds=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_samplers_draw_as_if_rebuilding_the_population(case, ring, bounds, seed):
    degree_map, g = case
    graph = degree_map.graph
    fresh, memo = random.Random(seed), random.Random(seed)
    for bound in bounds:
        for draw, reference, args, kwargs in (
            (random_homogeneous, reference_homogeneous, (degree_map, ring), {}),
            (random_homogeneous, reference_homogeneous, (degree_map, ring), {"degree": g}),
            (random_element, reference_element, (graph, ring), {}),
        ):
            expected = outcome(reference, *args, fresh, len_bound=bound, **kwargs)
            assert outcome(draw, *args, memo, len_bound=bound, **kwargs) == expected
    assert fresh.getstate() == memo.getstate()
