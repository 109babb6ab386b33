"""An independent matrix model of L_K(E) for finite acyclic graphs E.

For such a graph, L_K(E) is a direct sum of full matrix rings, one per sink
w, of size the number of paths ending at w (Abrams, Aranda Pino and Siles
Molina, "Finite-dimensional Leavitt path algebras", 2007). The map

    phi(a b*) = sum over the paths t from r(a) to a sink of E[a.t, b.t]

sends each monomial to a matrix indexed by pairs of sink-ending paths. It
respects CK1 and CK2 by construction, so it checks the engine's normal
forms, products and involution against arithmetic that shares none of the
Leavitt rewriting: the model reads each element's ``terms`` and the graph,
and nothing else of the library. A local identity e_g must map to the
diagonal projection onto the sink-ending paths p that have some path q with
r(q) = r(p) and deg p - deg q = g, since S_g is spanned by those E[p, q];
the grading is strong on a window exactly when each of those projections
is the identity. A parsed word must map to the product of its atoms'
matrices, which checks the element parser without any monomial product.
The algebra has finite dimension, so a Frobenius system is verified on the
whole monomial basis, whose size the model gives.

Standard library only: cases come from seeded ``random.Random`` streams.
"""

import random
from fractions import Fraction

from leavitt import (
    INTEGERS,
    RATIONALS,
    CyclicGroup,
    DegreeMap,
    Edge,
    Element,
    Graph,
    IntegerGroup,
    IntegerModRing,
    Monomial,
    Path,
    Vertex,
    build_frobenius_system,
    check_strongly_graded,
    enumerate_monomials,
    epsilon,
    parse_element,
    verify_frobenius,
)

# ring name -> (ring, modulus of its scalars, or None)
RINGS = {"Z": (INTEGERS, None), "Q": (RATIONALS, None), "Z/3": (IntegerModRing(3), 3)}

VERTEX_NAMES = ("a", "b", "c", "d", "u", "v")
EDGE_NAMES = ("e1", "e2", "e3", "e4", "e5", "f", "g")


def random_acyclic_graph(rng):
    """An unflagged graph with at most 4 vertices and 5 edges, each edge from
    an earlier to a later vertex of a random order, so no cycle exists.
    Parallel edges and isolated vertices occur; the random edge names vary
    which edge is designated."""
    names = rng.sample(VERTEX_NAMES, rng.randint(1, 4))
    vertices = [Vertex(n) for n in names]
    edges = []
    if len(names) > 1:
        for eid in rng.sample(EDGE_NAMES, rng.randint(0, 5)):
            i, j = sorted(rng.sample(range(len(names)), 2))
            edges.append(Edge(eid, vertices[i], vertices[j]))
    return Graph(vertices, edges)


class MatrixModel:
    """phi of one graph over scalars reduced mod `modulus` (None: exact).

    A path is (source vertex id, edge id tuple); a matrix is a dict from
    (row path, column path) to a nonzero scalar.
    """

    def __init__(self, graph, modulus=None):
        self.modulus = modulus
        self.edges = {e.id: (e.source.id, e.range.id) for e in graph.edges}
        self.out = {v.id: [] for v in graph.vertices}
        for eid, (s, _) in self.edges.items():
            self.out[s].append(eid)
        self.paths = [(v, ()) for v in self.out]
        frontier = list(self.paths)
        while frontier:
            frontier = [(s, ids + (e,)) for s, ids in frontier for e in self.out[self.range((s, ids))]]
            self.paths += frontier
        self.tails = {
            v: [ids for s, ids in self.paths if s == v and not self.out[self.range((s, ids))]]
            for v in self.out
        }

    def range(self, path):
        s, ids = path
        return self.edges[ids[-1]][1] if ids else s

    def add(self, matrix, key, c):
        value = matrix.get(key, 0) + c
        if self.modulus:
            value %= self.modulus
        if value:
            matrix[key] = value
        else:
            matrix.pop(key, None)

    def phi(self, x):
        return self.phi_of_terms(x.terms.items())

    def phi_of_terms(self, items):
        """phi of a raw combination of (monomial, scalar) pairs."""
        out = {}
        for mono, c in items:
            a, b = path_key(mono.alpha), path_key(mono.beta)
            for t in self.tails[self.range(a)]:
                self.add(out, ((a[0], a[1] + t), (b[0], b[1] + t)), c)
        return out

    def path_matrix(self, path):
        """phi of the real path p, p r(p)*; a vertex path gives its vertex."""
        end = self.range(path)
        return {((path[0], path[1] + t), (end, t)): 1 for t in self.tails[end]}

    def product(self, left, right):
        rows = {}
        for (p, q), c in right.items():
            rows.setdefault(p, []).append((q, c))
        out = {}
        for (p, q), c in left.items():
            for r, d in rows.get(q, ()):
                self.add(out, (p, r), c * d)
        return out

    def epsilon_projection(self, edge_degrees, g, modulus):
        """The identity on the sink-ending paths of some degree-g pair."""

        def degree(path):
            return sum(edge_degrees[e] for e in path[1])

        def reduced(d):
            return d % modulus if modulus else d

        return {
            (p, p): 1
            for p in self.paths
            if not self.out[self.range(p)]
            and any(
                self.range(q) == self.range(p) and reduced(degree(p) - degree(q)) == g
                for q in self.paths
            )
        }


def path_key(path):
    return (path.base.id, tuple(e.id for e in path.edges))


def transpose(matrix):
    return {(q, p): c for (p, q), c in matrix.items()}


def library_path(graph, key):
    s, ids = key
    return Path(graph.vertex(s), [graph.edge(e) for e in ids])


def random_scalar(ring_name, rng):
    value = rng.choice([-3, -2, -1, 1, 2, 3])
    if ring_name == "Q" and rng.random() < 0.5:
        return Fraction(value, rng.choice([2, 3]))
    return value


def random_pair(model, rng, reals=None):
    """A path of reals (default: every path) and a path of the same range."""
    a = rng.choice(reals or model.paths)
    b = rng.choice([q for q in model.paths if model.range(q) == model.range(a)])
    return a, b


def random_terms(graph, model, ring_name, rng):
    """Up to 4 raw (monomial, scalar) terms, normal or not."""
    items = []
    for _ in range(rng.randint(0, 4)):
        a, b = random_pair(model, rng)
        mono = Monomial(library_path(graph, a), library_path(graph, b))
        items.append((mono, random_scalar(ring_name, rng)))
    return items


def random_element(graph, model, ring_name, rng):
    return Element.from_terms(graph, RINGS[ring_name][0], random_terms(graph, model, ring_name, rng))


def ck2_relator_terms(graph, model, ring_name, rng):
    """c.(a b* - sum over e out of r(a) of (a.e)(b.e)*) as raw terms, for a
    random pair a, b whose range is not a sink; None when the graph has no
    edge."""
    reals = [p for p in model.paths if model.out[model.range(p)]]
    if not reals:
        return None
    a, b = random_pair(model, rng, reals)
    c = random_scalar(ring_name, rng)
    terms = [(Monomial(library_path(graph, a), library_path(graph, b)), c)]
    for e in model.out[model.range(a)]:
        ae, be = (a[0], a[1] + (e,)), (b[0], b[1] + (e,))
        terms.append((Monomial(library_path(graph, ae), library_path(graph, be)), -c))
    return terms


def random_atoms(model, rng):
    """Up to 6 (text, matrix) atoms of a word: a vertex, an edge, f*, (p) or
    (p)*. Each atom mostly meets the word so far where it ends (at r(p)
    after a real path p, at s(p) after p*), so that many words are nonzero."""
    end = None
    for _ in range(rng.randint(1, 6)):
        starred = rng.random() < 0.5
        meets = [p for p in model.paths if (model.range(p) if starred else p[0]) == end]
        path = rng.choice(meets if meets and rng.random() < 0.8 else model.paths)
        end = path[0] if starred else model.range(path)
        s, ids = path
        text = ".".join(ids) or s
        if len(ids) > 1 or rng.random() < 0.3:
            text = f"({text})"
        matrix = model.path_matrix(path)
        if starred:
            yield text + "*", transpose(matrix)
        else:
            yield text, matrix


def algebra_cases(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        graph = random_acyclic_graph(rng)
        ring_name = sorted(RINGS)[i % len(RINGS)]
        yield graph, MatrixModel(graph, RINGS[ring_name][1]), ring_name, rng


def test_phi_is_multiplicative_and_sends_the_involution_to_the_transpose():
    for graph, model, ring_name, rng in algebra_cases(300, seed=1):
        for _ in range(6):
            x = random_element(graph, model, ring_name, rng)
            y = random_element(graph, model, ring_name, rng)
            assert model.phi(x * y) == model.product(model.phi(x), model.phi(y)), (x, y)
            assert model.phi(x.involution()) == transpose(model.phi(x)), x


def test_normal_forms_keep_the_matrix_and_are_unique():
    """Normalizing a raw combination, CK2 relators included, keeps its
    matrix, and two normal forms are equal exactly when their matrices are."""
    for graph, model, ring_name, rng in algebra_cases(300, seed=2):
        ring = RINGS[ring_name][0]
        for _ in range(6):
            items = random_terms(graph, model, ring_name, rng)
            x = Element.from_terms(graph, ring, items)
            assert model.phi(x) == model.phi_of_terms(items), x
            relator = ck2_relator_terms(graph, model, ring_name, rng)
            if relator is not None:
                assert model.phi_of_terms(relator) == {}
                assert Element.from_terms(graph, ring, items + relator) == x, (x, relator)
            y = random_element(graph, model, ring_name, rng)
            assert (x == y) == (model.phi(x) == model.phi(y)), (x, y)
            assert x.is_zero() == (model.phi(x) == {}), x


def graded_cases(count, seed):
    """Random acyclic graphs, each under Z with the window -3..3 and under
    Z/2 and Z/3 with the whole group as window, all at bound L + 1 for the
    longest path length L: (graph, ring, model, bound, degree map, its edge
    degrees, modulus or None, window) per case."""
    rng = random.Random(seed)
    groups = [(IntegerGroup(), None), (CyclicGroup(2), 2), (CyclicGroup(3), 3)]
    for i in range(count):
        graph = random_acyclic_graph(rng)
        ring, ring_modulus = RINGS[sorted(RINGS)[i % len(RINGS)]]
        model = MatrixModel(graph, ring_modulus)
        bound = max(len(ids) for _, ids in model.paths) + 1
        for group, modulus in groups:
            if modulus:
                degrees = {e.id: rng.randrange(modulus) for e in graph.edges}
                window = range(modulus)
            else:
                degrees = {e.id: rng.randint(-2, 2) for e in graph.edges}
                window = range(-3, 4)
            dm = DegreeMap(graph, group, degrees)
            yield graph, ring, model, bound, dm, degrees, modulus, window


def test_parsed_words_are_the_product_of_their_atoms():
    nonzero = 0
    for graph, model, ring_name, rng in algebra_cases(300, seed=4):
        ring = RINGS[ring_name][0]
        for _ in range(6):
            texts, value = [], None
            for text, matrix in random_atoms(model, rng):
                texts.append(text)
                value = matrix if value is None else model.product(value, matrix)
            word = ".".join(texts)
            assert model.phi(parse_element(word, graph, ring)) == value, (graph.edges, word)
            nonzero += bool(value)
    assert nonzero > 300 * 6 // 2


def test_epsilon_is_the_projection_onto_realized_sink_paths():
    cases = 0
    for graph, ring, model, bound, dm, degrees, modulus, window in graded_cases(200, seed=3):
        for g in window:
            report = epsilon(g, dm, bound, ring)
            assert report.verdict == "PRESENT", (graph.edges, degrees, g)
            expected = model.epsilon_projection(degrees, g, modulus)
            assert model.phi(report.epsilon) == expected, (graph.edges, degrees, g)
            cases += 1
    assert cases == 200 * (7 + 2 + 3)


def test_frobenius_reproduces_the_whole_monomial_basis():
    """Under Z/2 and Z/3 at bound L + 1 every e_g is PRESENT (see above), so
    the Frobenius system builds, and it must reproduce every element of the
    monomial basis, whose size is the model's dimension, sum of n(w)^2."""
    verified = 0
    for graph, ring, model, bound, dm, degrees, modulus, window in graded_cases(100, seed=5):
        if modulus is None:
            continue
        sink_paths = [model.range(p) for p in model.paths if not model.out[model.range(p)]]
        basis = enumerate_monomials(graph, bound)
        assert len(basis) == sum(sink_paths.count(w) ** 2 for w in set(sink_paths)), graph.edges
        samples = [Element.monomial(graph, ring, m) for m in basis]
        report = verify_frobenius(build_frobenius_system(dm, bound, ring), samples)
        assert report.verdict == "PASS", (graph.edges, degrees, report.fields)
        assert report.fields["samples-verified"] == len(basis)
        verified += 1
    assert verified == 100 * 2


def test_strongly_graded_exactly_when_every_projection_is_the_identity():
    verdicts = set()
    for graph, ring, model, bound, dm, degrees, modulus, window in graded_cases(200, seed=3):
        identity = {(p, p): 1 for p in model.paths if not model.out[model.range(p)]}
        strong = all(model.epsilon_projection(degrees, g, modulus) == identity for g in window)
        report = check_strongly_graded(dm, window, bound, ring)
        computed = report.fields["computational"]["verdict"]
        assert computed == ("STRONG" if strong else "NOT_STRONG"), (graph.edges, degrees)
        verdicts.add(computed)
    assert verdicts == {"STRONG", "NOT_STRONG"}
