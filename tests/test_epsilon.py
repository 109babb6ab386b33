import importlib
import random
import sys
from collections import Counter
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import (
    DegreeMap,
    Element,
    EpsilonReport,
    EpsilonUnavailableError,
    HomogeneityError,
    INTEGERS,
    RATIONALS,
    IntegerModRing,
    Path,
    build_frobenius_system,
    check_epsilon_strong,
    check_nearly_epsilon,
    check_nondegenerate,
    check_strongly_graded,
    check_symmetric,
    decompose,
    enumerate_Xg,
    enumerate_monomials,
    epsilon,
    is_initial_subpath,
    local_units,
    minimal_classes,
    nmap,
    parse_graph,
    random_homogeneous,
)
from leavitt import algebra
from leavitt.epsilon import ConstructionError, WindowError, _local_unit
from leavitt.grading import GroupError, IntegerGroup, parse_degree_map

from .test_path_table import S3, graded_cases
from .test_relations import build, graph_specs
from .util import (
    GRAPH_C,
    GRAPH_R3,
    brute_first_identity_failure,
    brute_minimal_alphas,
    elem,
    exact_minimal_classes,
    mono,
    reference_local_unit,
    reference_minimal_representatives,
)


CORPUS = FilePath(__file__).parent / "cli_corpus"


def alpha_ids(cls):
    return (cls.alpha.source.id, tuple(e.id for e in cls.alpha.edges), cls.alpha.range.id)


def corpus_map(graph_file, degree_file=None):
    """A degree map of the CLI corpus: the canonical Z-grading, or the map
    of a degree file, whose group table is read from the corpus."""
    graph = parse_graph((CORPUS / graph_file).read_text())
    if degree_file is None:
        return DegreeMap.canonical(graph)
    text = (CORPUS / degree_file).read_text()
    return parse_degree_map(text, graph, table_loader=lambda name: (CORPUS / name).read_text())


def class_paths(mcs):
    """The real paths of a MinimalClassSet in exact_minimal_classes' form."""
    return [tuple(e.id for e in c.alpha.edges) or (c.alpha.source.id,) for c in mcs.classes]


class TestMinimalClasses:
    def test_chain_degree_one(self, chain_graph, dm_chain):
        mcs = minimal_classes(1, dm_chain, 4)
        assert mcs.verdict == "complete"
        assert [c.alpha.render() for c in mcs.classes] == ["f1", "f2", "f3", "f4"]

    def test_chain_degree_minus_one(self, chain_graph, dm_chain):
        mcs = minimal_classes(-1, dm_chain, 4)
        assert mcs.verdict == "complete"
        assert [c.alpha.render() for c in mcs.classes] == ["v1", "v3", "v4", "f2"]

    def test_graph_c_infinite_witness(self, dm_c):
        mcs = minimal_classes(1, dm_c, 3)
        assert mcs.verdict == "infinite-witness"
        a, b = mcs.witness
        assert {a.alpha.render(), b.alpha.render()} <= {"f1", "f2", "f3"}

    def test_matches_brute_force(self, chain_graph, graph_a, graph_b, dm_chain, dm_a, dm_b):
        for graph, dm in ((chain_graph, dm_chain), (graph_a, dm_a), (graph_b, dm_b)):
            degree_by_edge = {e.id: 1 for e in graph.edges}
            for g in (-2, -1, 0, 1, 2):
                mcs = minimal_classes(g, dm, 4)
                got = {alpha_ids(c) for c in mcs.classes}
                assert got == brute_minimal_alphas(graph, degree_by_edge, g, 4)

    def test_classes_pairwise_incomparable(self, dm_chain, dm_a, dm_b):
        for dm in (dm_chain, dm_a, dm_b):
            for g in (-2, -1, 0, 1, 2):
                classes = minimal_classes(g, dm, 4).classes
                for a in classes:
                    for b in classes:
                        if a is not b:
                            assert not is_initial_subpath(a.alpha, b.alpha)

    def test_representatives_are_normal_monomials(self, dm_chain, dm_a, dm_b, dm_c):
        for dm in (dm_chain, dm_a, dm_b, dm_c):
            for g in (-2, -1, 0, 1, 2):
                for c in minimal_classes(g, dm, 4).classes:
                    assert c.is_normal(dm.graph)

    def test_bound_guard(self, dm_chain):
        with pytest.raises(ValueError):
            minimal_classes(1, dm_chain, 0)

    def test_complete_covers_all_enumerated_monomials(self, dm_chain, dm_a, dm_b):
        from leavitt import is_initial_subpath

        for dm in (dm_chain, dm_a, dm_b):
            for g in (-2, -1, 0, 1, 2):
                mcs = minimal_classes(g, dm, 4)
                assert mcs.verdict == "complete"
                for m in enumerate_Xg(g, dm, 4):
                    assert any(
                        is_initial_subpath(c.alpha, m.alpha) for c in mcs.classes
                    )


class TestExactMinimalClasses:
    """The bounded minimal classes against an oracle that bounds no partner.

    On R3 under Z, and under Z/3 from bound 2, the two agree wherever the
    bounded lookup says `complete`. The cases where it says `complete` and
    is wrong today are strict xfails, so that the exact decider of ROADMAP
    item 1A shows the flip."""

    @pytest.mark.parametrize(
        "files, degrees, bounds",
        [
            (("r3.lpa",), range(-3, 4), range(1, 9)),
            (("r3.lpa", "r3_z3.deg"), range(3), range(2, 6)),
        ],
        ids=["r3-z", "r3-z3"],
    )
    def test_complete_classes_are_exact(self, files, degrees, bounds):
        dm = corpus_map(*files)
        compared = 0
        for g in degrees:
            for bound in bounds:
                mcs = minimal_classes(g, dm, bound)
                if mcs.verdict == "complete":
                    assert class_paths(mcs) == exact_minimal_classes(dm, g, bound), (g, bound)
                    compared += 1
        assert compared

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1A")
    @pytest.mark.parametrize(
        "files, g, bound",
        [
            (("loop_exit.lpa", "loop_exit.deg"), 2, 1),
            (("two_tails.lpa",), -2, 2),
            (("z4_loop.lpa", "z4_loop.deg"), 1, 1),
            (("r3.lpa", "r3_z3.deg"), 1, 1),
            (("r3.lpa", "r3_s3.deg"), "s3", 4),
            (("r3.lpa", "r3_s3.deg"), "s5", 4),
        ],
        ids=["epsilon-loop-exit-b1", "epsilon-two-tails", "epsilon-z4-loop", "r3-z3-b1", "frobenius-s3-s3", "frobenius-s3-s5"],
    )
    def test_partners_beyond_the_bound(self, files, g, bound):
        dm = corpus_map(*files)
        mcs = minimal_classes(g, dm, bound)
        assert mcs.verdict == "complete"
        assert class_paths(mcs) == exact_minimal_classes(dm, g, bound)

    def test_oracle_refuses_a_mixed_sign_z_map(self):
        dm = DegreeMap(parse_graph(GRAPH_R3), IntegerGroup(), {"x": 1, "y": -1, "z": 1, "w": 0, "t": 1})
        with pytest.raises(ValueError, match="one-signed"):
            exact_minimal_classes(dm, 0, 2)


class TestNmap:
    def test_collapsing_ghost_tail(self, chain_graph, ring):
        x = mono(chain_graph, ("f2",), ("f4", "f3"))
        assert nmap(chain_graph, ring, x) == elem("f2.(f2)*", chain_graph, ring)

    def test_vertex(self, chain_graph, ring):
        assert nmap(chain_graph, ring, mono(chain_graph, ("v4",), ("v4",))) == elem("v4", chain_graph, ring)

    def test_sole_edge_collapses_to_vertex(self, chain_graph, ring):
        assert nmap(chain_graph, ring, mono(chain_graph, ("f4",), ("v4",))) == elem("v5", chain_graph, ring)

    def test_class_invariance(self, chain_graph, dm_chain, ring):
        for g in (-1, 0, 1):
            by_alpha = {}
            for m in enumerate_Xg(g, dm_chain, 3):
                by_alpha.setdefault(m.alpha, []).append(m)
            for monos in by_alpha.values():
                values = {str(nmap(chain_graph, ring, m)) for m in monos}
                assert len(values) == 1

    def test_equals_product_with_adjoint(self, chain_graph, ring):
        for m in enumerate_monomials(chain_graph, 2):
            em = Element.monomial(chain_graph, ring, m)
            assert nmap(chain_graph, ring, m) == em * em.involution()


class TestEpsilon:
    GOLDEN = {
        0: "v1 + v2 + v3 + v4 + v5",
        1: "v2 + v4 + v5",
        -1: "v1 + v3 + v4 + f2.(f2)*",
        2: "v5",
        -2: "v3",
        3: "0",
        -3: "0",
    }

    def test_chain_golden_values(self, chain_graph, dm_chain, ring):
        for g, expected in self.GOLDEN.items():
            rep = epsilon(g, dm_chain, 4, ring)
            assert rep.present, (g, rep.absent_reason)
            assert str(rep.epsilon) == expected

    def test_certificate_factorization(self, chain_graph, dm_chain, ring):
        for g in (-2, -1, 0, 1, 2):
            rep = epsilon(g, dm_chain, 4, ring)
            total = Element.zero(chain_graph, ring)
            for x, y in rep.certificate:
                assert y == x.involution()
                total = total + x * y
            assert total == rep.epsilon

    def test_identity_action_on_xg(self, chain_graph, dm_chain, ring):
        for g in (-2, -1, 0, 1, 2):
            rep = epsilon(g, dm_chain, 4, ring)
            for x in enumerate_Xg(g, dm_chain, 4):
                ex = Element.monomial(chain_graph, ring, x)
                assert rep.epsilon * ex == ex
            for y in enumerate_Xg(-g, dm_chain, 4):
                ey = Element.monomial(chain_graph, ring, y)
                assert ey * rep.epsilon == ey

    def test_idempotent_and_self_adjoint(self, chain_graph, dm_chain, ring):
        for g in (-2, -1, 0, 1, 2, 3):
            eps = epsilon(g, dm_chain, 4, ring).epsilon
            assert eps * eps == eps
            assert eps.involution() == eps

    def test_commutes_with_identity_component(self, chain_graph, dm_chain, ring):
        for g in (-2, -1, 1, 2):
            eps = epsilon(g, dm_chain, 4, ring).epsilon
            for m in enumerate_Xg(0, dm_chain, 3):
                em = Element.monomial(chain_graph, ring, m)
                assert eps * em == em * eps

    def test_identity_degree_epsilon_is_vertex_sum(self, dm_chain, dm_a, dm_b, ring):
        for dm in (dm_chain, dm_a, dm_b):
            rep = epsilon(0, dm, 4, ring)
            assert rep.epsilon == Element.identity(dm.graph, ring)

    def test_absent_on_infinite_witness(self, dm_c, ring):
        rep = epsilon(1, dm_c, 3, ring)
        assert not rep.present
        assert rep.minimal.verdict == "infinite-witness"

    def test_certificate_and_reason_follow_the_verdict(self, ring):
        dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
        undetermined, present = epsilon(3, dm, 2, ring), epsilon(3, dm, 3, ring)
        assert (undetermined.verdict, undetermined.certificate) == ("UNDETERMINED", None)
        assert undetermined.absent_reason == "undetermined at bound 2"
        assert (present.verdict, present.absent_reason) == ("PRESENT", None)
        assert present.certificate

    def test_zero_reported_present(self, dm_chain, ring):
        rep = epsilon(5, dm_chain, 6, ring)
        assert rep.present and rep.epsilon.is_zero()


class TestIdentityCheckPerPath:
    @pytest.fixture(scope="class")
    def dm_r3(self):
        return DegreeMap.canonical(parse_graph(GRAPH_R3))

    @pytest.fixture(scope="class")
    def wrong_unit(self, dm_r3):
        """a + b: fixes some but not all of X_1 from either side."""
        return Element.vertex(dm_r3.graph, INTEGERS, "a") + Element.vertex(dm_r3.graph, INTEGERS, "b")

    @pytest.mark.parametrize("g", [1, -1])
    def test_wrong_unit_reported_by_epsilon(self, dm_r3, wrong_unit, monkeypatch, g):
        module = importlib.import_module("leavitt.epsilon")
        monkeypatch.setattr(module, "_local_unit", lambda graph, ring, reps: wrong_unit)
        with pytest.raises(ConstructionError, match="unit failed on"):
            epsilon(g, dm_r3, 3)

    def test_one_product_per_distinct_path(self, dm_r3, monkeypatch):
        # two products per minimal class decide every monomial of X_1 and X_-1
        calls = []
        original = Element.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(Element, "__mul__", counting)
        rep = epsilon(1, dm_r3, 5)
        monkeypatch.undo()
        assert rep.present
        assert len(calls) <= 2 * len(rep.minimal.classes)
        assert rep.identity_checked_on == len(enumerate_Xg(1, dm_r3, 5)) + len(enumerate_Xg(-1, dm_r3, 5))


@settings(max_examples=100, deadline=None)
@given(case=graded_cases(), bound=st.integers(1, 3))
def test_epsilon_fixes_all_of_xg_on_random_gradings(case, bound):
    # the bounded per-monomial scan that epsilon() no longer runs, kept as
    # the oracle of its per-class proof
    dm, g = case
    rep = epsilon(g, dm, bound)
    if not rep.present:
        assert rep.minimal.verdict != "complete" and rep.identity_checked_on == 0
        return
    unit = Element.zero(dm.graph, INTEGERS)
    for c in rep.minimal.classes:
        x = Element.monomial(dm.graph, INTEGERS, c)
        unit = unit + x * x.involution()
    assert rep.epsilon == unit
    checked = 0
    for side, h in (("left", g), ("right", dm.group.inverse(g))):
        monos = enumerate_Xg(h, dm, bound)
        assert brute_first_identity_failure(unit, side, monos) == (None, len(monos))
        checked += len(monos)
    assert rep.identity_checked_on == checked


class TestPropSubpathDichotomy:
    def test_dichotomy(self, chain_graph, graph_a, graph_b, dm_chain, dm_a, dm_b, ring):
        for graph, dm in ((chain_graph, dm_chain), (graph_a, dm_a), (graph_b, dm_b)):
            for g in (-2, -1, 0, 1, 2):
                xs = enumerate_Xg(g, dm, 3)
                for x in xs:
                    nx = nmap(graph, ring, x)
                    for y in xs:
                        ey = Element.monomial(graph, ring, y)
                        if is_initial_subpath(x.alpha, y.alpha):
                            assert nx * ey == ey
                        elif not is_initial_subpath(y.alpha, x.alpha):
                            assert (nx * ey).is_zero()


class TestLocalUnits:
    def test_two_minimal_classes(self, chain_graph, dm_chain, ring):
        s = elem("f2 + f4.f3.(f2)*", chain_graph, ring)
        lu = local_units(s, dm_chain)
        assert lu.left == elem("f2.(f2)* + v5", chain_graph, ring)
        assert lu.left * s == s and s * lu.right == s

    def test_single_monomial(self, chain_graph, dm_chain, ring):
        s = elem("f4.f3.(f2)*", chain_graph, ring)
        lu = local_units(s, dm_chain)
        assert lu.left == nmap(chain_graph, ring, mono(chain_graph, ("f4", "f3"), ("f2",)))

    def test_graph_c_where_epsilon_fails(self, graph_c, dm_c, ring):
        s = elem("f1 + f2", graph_c, ring)
        lu = local_units(s, dm_c)
        assert lu.left == elem("f1.(f1)* + f2.(f2)*", graph_c, ring)
        assert lu.left * s == s and s * lu.right == s

    def test_zero_rejected(self, chain_graph, dm_chain, ring):
        with pytest.raises(HomogeneityError):
            local_units(Element.zero(chain_graph, ring), dm_chain)

    def test_inhomogeneous_rejected(self, chain_graph, dm_chain, ring):
        with pytest.raises(HomogeneityError):
            local_units(elem("v1 + f1", chain_graph, ring), dm_chain)

    def test_certificates_factor(self, chain_graph, dm_chain, ring):
        s = elem("f2 + f4.f3.(f2)* - 2*f1", chain_graph, ring)
        lu = local_units(s, dm_chain)
        left = Element.zero(chain_graph, ring)
        for x, y in lu.left_certificate:
            left = left + x * y
        assert left == lu.left

    def test_seeded_samples_all_graphs(self, chain_graph, graph_a, graph_b, graph_c, dm_chain, dm_a, dm_b, dm_c, ring):
        rng = random.Random(11)
        for dm in (dm_chain, dm_a, dm_b, dm_c):
            for _ in range(15):
                s = random_homogeneous(dm, ring, rng, len_bound=3)
                lu = local_units(s, dm)
                assert lu.left * s == s and s * lu.right == s


@st.composite
def homogeneous_elements(draw):
    """A nonzero homogeneous element of up to 12 terms over a small graph of
    graded_cases, which may flag a vertex: its support is drawn from the
    monomials of one degree within bound 3 (the identity degree holds the
    vertices), or from those of one real path, which it shares with several
    ghost paths."""
    dm, _ = draw(graded_cases())
    by_degree = {}
    for m in enumerate_monomials(dm.graph, draw(st.integers(0, 3))):
        by_degree.setdefault(dm.degree_of(m), []).append(m)
    monos = draw(st.sampled_from(list(by_degree.values())))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(monos)).alpha
        monos = [m for m in monos if m.alpha == alpha]
    support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=12, unique=True))
    scalars = draw(st.lists(st.sampled_from([-2, -1, 1, 3]), min_size=len(support), max_size=len(support)))
    return dm, Element.from_terms(dm.graph, INTEGERS, list(zip(support, scalars)))


def reference_units(s):
    """(left, right, left classes, right classes) by the reference rule."""
    left = reference_minimal_representatives(s.terms)
    right = reference_minimal_representatives([m.involution() for m in s.terms])
    return (
        reference_local_unit(s.graph, s.ring, left),
        reference_local_unit(s.graph, s.ring, right),
        tuple(left),
        tuple(right),
    )


@settings(max_examples=200, deadline=None)
@given(case=homogeneous_elements())
def test_local_units_keep_the_reference_representatives(case):
    dm, s = case
    lu = local_units(s, dm)
    assert (lu.left, lu.right, lu.left_classes, lu.right_classes) == reference_units(s)


@pytest.mark.parametrize(
    "graph_name,text",
    [
        # two vertices, and a vertex beside a path that leaves it
        ("r3", "a + b"),
        ("r3", "a + 2*x.(x)* - w.(w)*"),
        # one real path with several ghost paths, and one that extends it
        ("r3", "x.(w.x)* + x.(z.x)* - x.y.(w.x.y)*"),
        # three edges out of a flagged vertex
        ("c", "f1 + f2 - f3"),
        ("c", "f1.(f2)* + f2.(f1)* + f1.(f3)*"),
    ],
)
def test_local_units_keep_the_reference_representatives_on_named_supports(graph_name, text):
    graph = parse_graph({"r3": GRAPH_R3, "c": GRAPH_C}[graph_name])
    s = elem(text, graph, INTEGERS)
    lu = local_units(s, DegreeMap.canonical(graph))
    assert (lu.left, lu.right, lu.left_classes, lu.right_classes) == reference_units(s)


def test_local_units_decompose_nothing(dm_chain, dm_c):
    # the degree is read from the support's monomials, with no decomposition
    calls = []
    original = sys.modules["leavitt.grading"].decompose

    def counting(*args):
        calls.append(args)
        return original(*args)

    rng = random.Random(12)
    samples = [(dm, random_homogeneous(dm, INTEGERS, rng, len_bound=3)) for dm in (dm_chain, dm_c) for _ in range(10)]
    with pytest.MonkeyPatch.context() as mp:
        for name, site in list(sys.modules.items()):
            if name.startswith("leavitt") and getattr(site, "decompose", None) is original:
                mp.setattr(site, "decompose", counting)
        for dm, s in samples:
            local_units(s, dm)
    assert calls == []


UNIT_RINGS = st.sampled_from([INTEGERS, RATIONALS, IntegerModRing(2), IntegerModRing(3)])


@settings(max_examples=150, deadline=None)
@given(spec=graph_specs(), rings=st.tuples(UNIT_RINGS, UNIT_RINGS), bound=st.integers(0, 3), data=st.data())
def test_local_unit_from_kept_pieces_is_the_reference_sum(spec, rings, bound, data):
    # a fresh graph keeps no n(a) pieces; the second list repeats the first
    # list's paths, which are then read from the pieces kept under the first
    # ring, perhaps another
    graph = build(*spec)
    monos = st.sampled_from(enumerate_monomials(graph, bound))
    first = data.draw(st.lists(monos, max_size=6))
    second = data.draw(st.permutations(first + data.draw(st.lists(monos, max_size=4))))
    for ring, reps in zip(rings, (first, second)):
        assert _local_unit(graph, ring, reps) == reference_local_unit(graph, ring, reps)


def test_a_repeated_real_path_is_rewritten_once_per_graph(monkeypatch):
    # x.t ends in t, the designated edge at b, which also emits y, and z is
    # the only edge out of c, so n(x.t) = x.(x)* - x.y.(x.y)* and n(z) = c
    # are rewrites; the right units' one class is the vertex a. The second
    # sample, over another ring, has the same real paths.
    calls = []
    original = algebra._expand_normal

    def counting(graph, m):
        calls.append(sys._getframe(2).f_code.co_name)  # the caller of _normal_pieces
        return original(graph, m)

    monkeypatch.setattr(algebra, "_expand_normal", counting)
    graph = parse_graph(GRAPH_R3)
    dm = DegreeMap.canonical(graph)
    for ring, text, rewrites in ((IntegerModRing(3), "x.t.(w)* + 2*z", 2), (INTEGERS, "3*x.t.(w)* - z", 0)):
        calls.clear()
        s = elem(text, graph, ring)
        lu = local_units(s, dm)
        assert calls.count("_local_unit") == rewrites, ring
        assert (lu.left, lu.right, lu.left_classes, lu.right_classes) == reference_units(s), ring


class TestCheckSymmetric:
    def test_chain(self, dm_chain, ring):
        assert check_symmetric(dm_chain, 4, ring).verdict == "PASS"

    def test_graph_c_samples(self, dm_c, ring):
        assert check_symmetric(dm_c, 3, ring).verdict == "PASS"

    def test_vertex_case(self, chain_graph, ring):
        v = elem("v1", chain_graph, ring)
        assert v * v * v == v

    def test_engine_defect_names_the_first_failing_monomial(self, dm_chain, ring, monkeypatch):
        # an involution that returns its argument keeps m = m m* m on the
        # vertices and breaks it on the ghost edge (f1)*, the next monomial
        monkeypatch.setattr(Element, "involution", lambda self: self)
        report = check_symmetric(dm_chain, 2, ring)
        assert report.verdict == "FAIL"
        assert report.fields == {"bound": 2, "witness": "(f1)*"}
        assert report.text() == "symmetric-grading-check: FAIL\n  bound: 2\n  witness: (f1)*"


class TestCheckEpsilonStrong:
    def test_chain(self, dm_chain, ring):
        report = check_epsilon_strong(dm_chain, range(-3, 4), 6, ring)
        assert report.verdict == "EPSILON_STRONG"
        assert report.fields["unconditional"] is True
        assert report.fields["epsilons"]["1"] == "v2 + v4 + v5"

    def test_graph_b(self, dm_b, ring):
        report = check_epsilon_strong(dm_b, range(-2, 3), 4, ring)
        assert report.verdict == "EPSILON_STRONG"

    def test_graph_c_witness(self, dm_c, ring):
        report = check_epsilon_strong(dm_c, range(-1, 2), 3, ring)
        assert report.verdict == "NOT_EPSILON_STRONG"
        assert report.fields["witness"]["degree"] == "1"
        assert set(report.fields["witness"]["sibling-classes"]) <= {"f1", "f2", "f3"}
        assert report.fields["unconditional"] is False

    def test_window_validation(self, dm_chain, ring):
        with pytest.raises(ValueError, match="identity"):
            check_epsilon_strong(dm_chain, [1, -1], 4, ring)
        with pytest.raises(ValueError, match="inverse"):
            check_epsilon_strong(dm_chain, [0, 1], 4, ring)
        with pytest.raises(WindowError, match="degree window must be nonempty"):
            check_epsilon_strong(dm_chain, [], 4, ring)

    def test_window_errors_in_full(self, dm_chain, ring):
        with pytest.raises(WindowError) as identity:
            check_epsilon_strong(dm_chain, [1, -1], 4, ring)
        assert str(identity.value) == "degree window must contain the identity"
        with pytest.raises(WindowError) as inverse:
            check_epsilon_strong(dm_chain, [0, 1], 4, ring)
        assert str(inverse.value) == "degree window must be closed under inverse"

    def test_a_non_element_is_a_group_error(self, ring):
        dm = corpus_map("r3.lpa", "r3_z3.deg")
        with pytest.raises(GroupError) as error:
            check_epsilon_strong(dm, [5], 2, ring)
        assert not isinstance(error.value, WindowError)
        assert str(error.value) == "5 is not an element of Z/3"

    def test_a_bool_in_the_window_is_a_group_error(self, ring):
        # True == 1 as an int, but a bool is no degree of Z
        dm = corpus_map("r3.lpa")
        with pytest.raises(GroupError) as error:
            check_epsilon_strong(dm, [True, 0, -1], 2, ring)
        assert str(error.value) == "True is not an element of Z"

    @pytest.mark.parametrize("window, bound", [(range(-2, 3), 4), (range(-1, 2), 3)])
    def test_a_generator_window_reads_as_its_list(self, dm_chain, dm_c, ring, window, bound):
        for dm in (dm_chain, dm_c):
            expected = check_epsilon_strong(dm, list(window), bound, ring)
            assert check_epsilon_strong(dm, (g for g in window), bound, ring) == expected

    def test_workload_counts_every_monomial_of_the_window(self):
        # the figure bench/workloads.py counts on its own for epsilon-window
        report = check_epsilon_strong(DegreeMap.canonical(parse_graph(GRAPH_R3)), range(-3, 4), 8)
        assert report.verdict == "EPSILON_STRONG"
        assert report.fields["identity-checked-on"] == 309_138

    def test_the_workload_checks_each_class_twice_and_builds_one_report_per_degree(self, monkeypatch):
        # the epsilon-window op once its path table is built: 43 classes,
        # each checked on both sides, on test elements that take no edge
        # walk, and one report per degree, not a report and its copy
        dm = DegreeMap.canonical(parse_graph(GRAPH_R3))
        dm.path_table(8)
        calls = Counter()

        def count(owner, attr):
            original = getattr(owner, attr)

            def counting(*args, **kwargs):
                calls[f"{owner.__name__}.{attr}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count(Path, "__init__")
        count(EpsilonReport, "__init__")
        count(Element, "__eq__")
        report = check_epsilon_strong(dm, range(-3, 4), 8)
        monkeypatch.undo()
        assert report.verdict == "EPSILON_STRONG"
        assert calls == Counter({"EpsilonReport.__init__": 7, "Element.__eq__": 86})


def xg_listings_and_unit_checks(mp):
    """Record every enumerate_Xg call, at each leavitt import site, and
    every call of epsilon._check_unit, through the MonkeyPatch mp."""
    listings, checks = [], []
    original = sys.modules["leavitt.grading"].enumerate_Xg
    module = importlib.import_module("leavitt.epsilon")
    check_unit = module._check_unit

    def listing(*args):
        listings.append(args)
        return original(*args)

    def checking(*args):
        checks.append(args)
        return check_unit(*args)

    for name, site in list(sys.modules.items()):
        if name.startswith("leavitt") and getattr(site, "enumerate_Xg", None) is original:
            mp.setattr(site, "enumerate_Xg", listing)
    mp.setattr(module, "_check_unit", checking)
    return listings, checks


@settings(max_examples=150, deadline=None)
@given(case=graded_cases(), bound=st.integers(1, 4))
def test_epsilon_strong_lists_no_xg_and_checks_every_degree(case, bound):
    dm = case[0]
    group = dm.group
    window = group.elements() if group.is_finite else group.window(-2, 2)
    with pytest.MonkeyPatch.context() as mp:
        listings, checks = xg_listings_and_unit_checks(mp)
        report = check_epsilon_strong(dm, window, bound)
    assert listings == []
    # the old path, one epsilon() per degree, is the oracle
    reps = [epsilon(g, dm, bound) for g in window]
    assert len(checks) == 2 * sum(rep.present for rep in reps)
    if all(rep.present for rep in reps):
        assert report.verdict == "EPSILON_STRONG"
        assert report.fields["epsilons"] == {group.render(rep.degree): str(rep.epsilon) for rep in reps}
        assert report.fields["identity-checked-on"] == sum(rep.identity_checked_on for rep in reps)
    else:
        assert report.verdict != "EPSILON_STRONG"


@settings(max_examples=300, deadline=None)
@given(case=graded_cases(), bound=st.integers(1, 4))
def test_every_reader_maps_the_degree_verdicts_alike(case, bound):
    dm = case[0]
    group = dm.group
    window = group.elements() if group.is_finite else group.window(-2, 2)
    reps = [epsilon(g, dm, bound) for g in window]
    verdicts = [rep.to_report().verdict for rep in reps]
    undetermined = "UNDETERMINED" in verdicts
    if "ABSENT" in verdicts:
        expected = "NOT_EPSILON_STRONG"
    else:
        expected = "UNDETERMINED" if undetermined else "EPSILON_STRONG"
    assert check_epsilon_strong(dm, window, bound).verdict == expected

    ident = Element.identity(dm.graph, INTEGERS)
    blocking = any(
        v == "ABSENT" or (v == "PRESENT" and rep.epsilon != ident) for v, rep in zip(verdicts, reps)
    )
    comp = check_strongly_graded(dm, window, bound).fields["computational"]["verdict"]
    assert comp == ("NOT_STRONG" if blocking else "UNDETERMINED" if undetermined else "STRONG")

    if group.is_finite and not dm.graph.infinite_emitters:
        if set(verdicts) == {"PRESENT"}:
            build_frobenius_system(dm, bound)
        else:
            with pytest.raises(EpsilonUnavailableError):
                build_frobenius_system(dm, bound)


class TestCheckStronglyGraded:
    def test_graph_a_strong(self, dm_a, ring):
        report = check_strongly_graded(dm_a, range(-2, 3), 4, ring)
        assert report.verdict == "STRONG"
        assert report.fields["structural"]["verdict"] == "STRONG"
        assert report.fields["computational"]["verdict"] == "STRONG"
        assert report.fields["agreement"] is True
        eps1 = epsilon(1, dm_a, 4, ring).epsilon
        assert eps1 == Element.identity(dm_a.graph, ring)

    def test_graph_b_not_strong_yet_epsilon_strong(self, dm_b, ring):
        report = check_strongly_graded(dm_b, range(-2, 3), 4, ring)
        assert report.verdict == "NOT_STRONG"
        assert report.fields["structural"]["sinks"] == ["w"]
        assert report.fields["agreement"] is True
        assert check_epsilon_strong(dm_b, range(-2, 3), 4, ring).verdict == "EPSILON_STRONG"

    def test_chain_not_strong(self, dm_chain, ring):
        report = check_strongly_graded(dm_chain, range(-2, 3), 4, ring)
        assert report.verdict == "NOT_STRONG"
        assert report.fields["structural"]["sinks"] == ["v1", "v3"]
        assert report.fields["agreement"] is True

    def test_arms_that_disagree_are_reported(self, dm_a, ring, monkeypatch):
        # a defect that compares each epsilon with 0 instead of 1
        monkeypatch.setattr(Element, "identity", classmethod(lambda cls, graph, ring: cls.zero(graph, ring)))
        report = check_strongly_graded(dm_a, range(-1, 2), 4, ring)
        assert report.verdict == "DISAGREEMENT"
        assert report.fields["structural"]["verdict"] == "STRONG"
        assert report.fields["computational"]["verdict"] == "NOT_STRONG"
        assert report.fields["agreement"] is False

    def test_structural_arm_skipped_for_noncanonical(self, chain_graph, ring):
        from leavitt import CyclicGroup

        dm = DegreeMap(chain_graph, CyclicGroup(2), {e.id: 1 for e in chain_graph.edges})
        report = check_strongly_graded(dm, [0, 1], 4, ring)
        assert report.fields["structural"]["applicable"] is False
        assert report.fields["agreement"] is None


@settings(max_examples=150, deadline=None)
@given(case=graded_cases(), bound=st.integers(1, 4))
def test_strongly_graded_reads_the_epsilons_when_all_present(case, bound):
    dm, g = case
    group = dm.group
    window = sorted({group.identity, g, group.inverse(g)}, key=group.sort_key)
    reps = [epsilon(h, dm, bound) for h in window]
    if not all(rep.present for rep in reps):
        return
    comp = check_strongly_graded(dm, window, bound).fields["computational"]
    ident = Element.identity(dm.graph, INTEGERS)
    differing = [rep for rep in reps if rep.epsilon != ident]
    if not differing:
        assert comp["verdict"] == "STRONG" and "witness" not in comp
    else:
        assert comp["verdict"] == "NOT_STRONG"
        assert comp["witness"] == {
            "degree": group.render(differing[0].degree),
            "epsilon": str(differing[0].epsilon),
            "identity": str(ident),
        }


class TestCheckNearlyEpsilon:
    def test_graph_c_seeded_samples(self, dm_c, ring):
        rng = random.Random(5)
        samples = [random_homogeneous(dm_c, ring, rng, len_bound=3) for _ in range(50)]
        report = check_nearly_epsilon(dm_c, samples)
        assert report.verdict == "PASS"
        assert report.fields["samples-verified"] == 50

    def test_chain_all_monomials(self, chain_graph, dm_chain, ring):
        samples = [Element.monomial(chain_graph, ring, m) for m in enumerate_monomials(chain_graph, 4)]
        report = check_nearly_epsilon(dm_chain, samples)
        assert report.verdict == "PASS"

    def test_zero_skipped(self, chain_graph, dm_chain, ring):
        report = check_nearly_epsilon(dm_chain, [Element.zero(chain_graph, ring)])
        assert report.verdict == "PASS"
        assert report.fields["skipped-zero"] == 1
        assert report.fields["samples-verified"] == 0


class TestCheckNondegenerate:
    def test_edge_witness(self, chain_graph, dm_chain, ring):
        w = local_units(elem("f1", chain_graph, ring), dm_chain)
        assert w.right == elem("v1", chain_graph, ring)
        assert elem("f1", chain_graph, ring) * w.right == elem("f1", chain_graph, ring)

    def test_vertex_witness(self, chain_graph, dm_chain, ring):
        v = elem("v2", chain_graph, ring)
        w = local_units(v, dm_chain)
        assert w.left == v and w.right == v

    def test_graph_c_difference(self, graph_c, dm_c, ring):
        s = elem("f1 - f2", graph_c, ring)
        w = local_units(s, dm_c)
        assert s * w.right == s
        assert w.left * s == s

    @pytest.mark.parametrize("grading", ["Z", "S3"])
    def test_both_checkers_read_the_same_units(self, graph_c, ring, grading):
        if grading == "Z":
            dm = DegreeMap.canonical(graph_c)
        else:
            dm = DegreeMap(graph_c, S3, {"f1": "s3", "f2": "s3", "f3": "s1"})
        texts = ["f1 - f2", "0", "f3.f1* + f3.f2*"]
        samples = [elem(t, graph_c, ring) for t in texts]
        nearly = check_nearly_epsilon(dm, samples).fields
        nondegenerate = check_nondegenerate(dm, samples).fields
        witnesses = nondegenerate["witnesses"]
        assert nearly["samples-verified"] == 2 and nearly["skipped-zero"] == 1
        assert nondegenerate["skipped-zero"] == 1
        nonzero = [s for s in samples if not s.is_zero()]
        assert [w["element"] for w in witnesses] == [str(s) for s in nonzero]
        assert [c["element"] for c in nearly["certificates"]] == [str(s) for s in nonzero]
        for s, c, w in zip(nonzero, nearly["certificates"], witnesses):
            (g,) = decompose(s, dm)
            assert w["degree"] == dm.group.render(g)
            assert (w["left-witness"], w["right-witness"]) == (c["left"], c["right"])
            lu = local_units(s, dm)
            assert (c["left"], c["right"]) == (str(lu.left), str(lu.right))


class TestEpsilonSubsumesLocalUnits:
    def test_epsilon_acts_on_samples(self, chain_graph, dm_chain, ring):
        rng = random.Random(9)
        for g in (-2, -1, 1, 2):
            eps = epsilon(g, dm_chain, 4, ring).epsilon
            for _ in range(10):
                s = random_homogeneous(dm_chain, ring, rng, degree=g, len_bound=2)
                assert eps * s == s
