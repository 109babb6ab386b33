"""Group gradings induced by assigning a group element to every edge.

Vertices have the identity degree, an edge carries its assigned degree, and
a ghost edge carries the inverse, so a monomial a b* has degree
deg(a) * deg(b)^-1. Supported groups: Z, Z^k, Z/n, and arbitrary finite
groups given by a Cayley table.
"""

from __future__ import annotations

import itertools

from .algebra import Element, Monomial, enumerate_monomials
from .graph import GraphError
from .rings import INTEGERS
from .reports import Report

__all__ = [
    "CyclicGroup",
    "DegreeMap",
    "DegreeMapError",
    "Group",
    "GroupError",
    "IntegerGroup",
    "IntegerTupleGroup",
    "TableGroup",
    "check_grading_axiom",
    "decompose",
    "enumerate_Xg",
    "parse_degree_map",
    "parse_group_table",
]


def _memo(owner, key, build):
    """build(), called on the first request of key for owner, then kept on
    owner (a DegreeMap or Graph), so it lives exactly as long as owner.
    Threads that race on it at worst build the same value twice."""
    memo = vars(owner).setdefault("_memo", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


class GroupError(ValueError):
    """An invalid group description or group element."""


class DegreeMapError(ValueError):
    """An invalid edge degree assignment."""


class Group:
    """A group with hashable, comparable elements and total operations."""

    name = "?"
    is_finite = False

    @property
    def identity(self):
        raise NotImplementedError

    def op(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def contains(self, a):
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def render(self, a):
        return str(a)

    def sort_key(self, a):
        return a

    def elements(self):
        raise GroupError(f"{self.name} is not finite")

    def window(self, lo, hi):
        """The elements named by the integers lo..hi, in window order."""
        raise GroupError(f"ranged windows are not defined for {self.name}; use 'all'")

    def check(self, a):
        if not self.contains(a):
            raise GroupError(f"{a!r} is not an element of {self.name}")
        return a

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash((type(self), self.name))

    def __repr__(self):
        return f"Group({self.name})"


class IntegerGroup(Group):
    name = "Z"

    @property
    def identity(self):
        return 0

    def op(self, a, b):
        return a + b

    def inverse(self, a):
        return -a

    def contains(self, a):
        return isinstance(a, int)

    def parse(self, text):
        try:
            return int(text.strip())
        except ValueError:
            raise GroupError(f"{text!r} is not an integer") from None

    def window(self, lo, hi):
        return list(range(lo, hi + 1))


class IntegerTupleGroup(Group):
    """Z^k with componentwise addition; elements are k-tuples of ints."""

    def __init__(self, rank):
        if not isinstance(rank, int) or rank < 1:
            raise GroupError(f"rank must be a positive integer, got {rank!r}")
        self.rank = rank
        self.name = f"Z^{rank}"

    @property
    def identity(self):
        return (0,) * self.rank

    def op(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == self.rank
            and all(isinstance(x, int) for x in a)
        )

    def parse(self, text):
        parts = [p.strip() for p in text.strip().split(",")]
        if len(parts) != self.rank:
            raise GroupError(f"{text!r} does not have {self.rank} components")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise GroupError(f"{text!r} is not a tuple of integers") from None

    def render(self, a):
        return ",".join(str(x) for x in a)

    def window(self, lo, hi):
        return list(itertools.product(range(lo, hi + 1), repeat=self.rank))


class CyclicGroup(Group):
    """Z/n; elements are canonical residues 0..n-1. n = 1 is the trivial group."""

    is_finite = True

    def __init__(self, modulus):
        if not isinstance(modulus, int) or modulus < 1:
            raise GroupError(f"modulus must be a positive integer, got {modulus!r}")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    @property
    def identity(self):
        return 0

    def op(self, a, b):
        return (a + b) % self.modulus

    def inverse(self, a):
        return (-a) % self.modulus

    def contains(self, a):
        return isinstance(a, int) and 0 <= a < self.modulus

    def parse(self, text):
        try:
            return int(text.strip()) % self.modulus
        except ValueError:
            raise GroupError(f"{text!r} is not a residue mod {self.modulus}") from None

    def elements(self):
        return tuple(range(self.modulus))

    def window(self, lo, hi):
        # modulus consecutive integers name every residue
        return sorted({x % self.modulus for x in range(lo, min(hi + 1, lo + self.modulus))})


class TableGroup(Group):
    """A finite group given by its Cayley table over string symbols.

    The table is validated in full at construction: closure, associativity,
    a two-sided identity and two-sided inverses.
    """

    is_finite = True

    def __init__(self, symbols, table, name="table"):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise GroupError("duplicate symbols in group table")
        if not self.symbols:
            raise GroupError("a group needs at least one element")
        self.table = dict(table)
        self.name = name
        self._index = {s: i for i, s in enumerate(self.symbols)}

        for a in self.symbols:
            for b in self.symbols:
                c = self.table.get((a, b))
                if c is None:
                    raise GroupError(f"missing table entry for ({a}, {b})")
                if c not in self._index:
                    raise GroupError(f"table entry {c!r} is not a listed symbol")
        identity = None
        for e in self.symbols:
            if all(
                self.table[(e, x)] == x and self.table[(x, e)] == x
                for x in self.symbols
            ):
                identity = e
                break
        if identity is None:
            raise GroupError("group table has no identity element")
        self._identity = identity
        self._inverse = {}
        for a in self.symbols:
            for b in self.symbols:
                if self.table[(a, b)] == identity and self.table[(b, a)] == identity:
                    self._inverse[a] = b
                    break
            else:
                raise GroupError(f"element {a!r} has no inverse")
        for a in self.symbols:
            for b in self.symbols:
                for c in self.symbols:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise GroupError(
                            f"group table is not associative at ({a}, {b}, {c})"
                        )

    @property
    def identity(self):
        return self._identity

    def op(self, a, b):
        return self.table[(a, b)]

    def inverse(self, a):
        return self._inverse[a]

    def contains(self, a):
        return a in self._index

    def parse(self, text):
        sym = text.strip()
        if sym not in self._index:
            raise GroupError(f"{sym!r} is not a symbol of this group")
        return sym

    def sort_key(self, a):
        return self._index[a]

    def elements(self):
        return self.symbols

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.symbols == other.symbols
            and self.table == other.table
        )

    def __hash__(self):
        return hash((type(self), self.symbols))


def parse_group_table(text, name="table"):
    """Cayley table text: a line of N symbols, then N rows of N entries.

    Row i, column j holds the product (row element) * (column element).
    Blank lines and '#' comments are skipped.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GroupError("empty group table")
    symbols = rows[0]
    n = len(symbols)
    if len(rows) != n + 1:
        raise GroupError(f"expected {n} table rows after the symbol line, got {len(rows) - 1}")
    table = {}
    for i, row in enumerate(rows[1:]):
        if len(row) != n:
            raise GroupError(f"table row {i + 1} has {len(row)} entries, expected {n}")
        for j, entry in enumerate(row):
            table[(symbols[i], symbols[j])] = entry
    return TableGroup(symbols, table, name=name)


class DegreeMap:
    """An edge degree assignment and its extension to paths and monomials."""

    def __init__(self, graph, group, edge_degrees):
        self.graph = graph
        self.group = group
        degrees = {}
        for eid, value in dict(edge_degrees).items():
            graph.edge(eid)
            degrees[eid] = group.check(value)
        missing = [e.id for e in graph.edges if e.id not in degrees]
        if missing:
            raise DegreeMapError(f"edges without a degree: {', '.join(missing)}")
        self.edge_degrees = degrees

    @classmethod
    def canonical(cls, graph):
        """The canonical Z-grading: every edge has degree 1."""
        return cls(graph, IntegerGroup(), {e.id: 1 for e in graph.edges})

    def is_canonical_z(self):
        return isinstance(self.group, IntegerGroup) and all(
            d == 1 for d in self.edge_degrees.values()
        )

    def degree_of_path(self, path):
        """The edge degrees of the path multiplied left to right, looked up
        by edge id (the order matters in a non-abelian group)."""
        group, degrees = self.group, self.edge_degrees
        g = group.identity
        try:
            for e in path.edges:
                g = group.op(g, degrees[e.id])
        except KeyError:
            if e.id in degrees:
                raise
            raise DegreeMapError(f"unknown edge {e.id!r}") from None
        return g

    def degree_of(self, mono):
        """deg(a) * deg(b)^-1 for the monomial a b*."""
        return self.group.op(
            self.degree_of_path(mono.alpha),
            self.group.inverse(self.degree_of_path(mono.beta)),
        )

    def path_table(self, len_bound):
        """The PathTable of this map at len_bound, built on first use."""
        if len_bound < 0:
            raise ValueError("len_bound must be >= 0")
        return _memo(self, ("paths", len_bound), lambda: PathTable(self, len_bound))

    def __repr__(self):
        return f"DegreeMap({self.group.name}, {len(self.edge_degrees)} edges)"


def parse_degree_map(text, graph, table_loader=None):
    """Parse the degree-map file format.

    ::

        group Z            # or Z^k, Z/n, table <file>
        deg f1 = 1
        deg f2 = -1

    Every edge of the graph must receive exactly one degree. The table file
    named after ``group table`` is fetched through table_loader.
    """
    group = None
    assignments = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] == "group":
            if group is not None:
                raise DegreeMapError(f"line {line_no}: duplicate group header")
            if len(parts) < 2:
                raise DegreeMapError(f"line {line_no}: missing group kind")
            group = _parse_group_header(parts[1].strip(), table_loader, line_no)
        elif parts[0] == "deg":
            if group is None:
                raise DegreeMapError(f"line {line_no}: 'group' header must come first")
            if len(parts) < 2 or "=" not in parts[1]:
                raise DegreeMapError(f"line {line_no}: expected 'deg <edge> = <degree>'")
            left, right = parts[1].split("=", 1)
            eid = left.strip()
            if not eid:
                raise DegreeMapError(f"line {line_no}: missing edge id")
            try:
                value = group.parse(right.strip())
            except GroupError as exc:
                raise DegreeMapError(f"line {line_no}: {exc}") from None
            try:
                graph.edge(eid)
            except GraphError as exc:
                raise DegreeMapError(f"line {line_no}: {exc}") from None
            if eid in assignments:
                raise DegreeMapError(f"line {line_no}: duplicate degree for edge {eid!r}")
            assignments[eid] = value
        else:
            raise DegreeMapError(f"line {line_no}: expected 'group' or 'deg', got {parts[0]!r}")
    if group is None:
        raise DegreeMapError("missing 'group' header")
    return DegreeMap(graph, group, assignments)


def _parse_group_header(spec, table_loader, line_no):
    if spec == "Z":
        return IntegerGroup()
    for prefix, kind in (("Z^", IntegerTupleGroup), ("Z/", CyclicGroup)):
        if spec.startswith(prefix):
            try:
                return kind(int(spec[len(prefix):]))
            except (ValueError, GroupError):
                raise DegreeMapError(f"line {line_no}: bad group {spec!r}") from None
    if spec.startswith("table"):
        filename = spec[len("table"):].strip()
        if not filename:
            raise DegreeMapError(f"line {line_no}: 'group table' needs a file name")
        if table_loader is None:
            raise DegreeMapError(f"line {line_no}: no loader available for table files")
        return parse_group_table(table_loader(filename), name=f"table:{filename}")
    raise DegreeMapError(f"line {line_no}: unknown group kind {spec!r}")


def decompose(element, degree_map):
    """The homogeneous parts of an element: degree -> nonzero part, keyed in
    group sort order. Degrees with a zero part are absent, and summing the
    parts restores the element.
    """
    buckets = _degree_buckets(element, degree_map.degree_of)
    group = degree_map.group
    return {
        g: Element(element.graph, element.ring, terms)
        for g, terms in sorted(buckets.items(), key=lambda kv: group.sort_key(kv[0]))
    }


def _degree_buckets(element, key):
    """The terms of an element as term maps keyed by key(monomial), a degree
    or any function of one, in the element's term order."""
    buckets = {}
    for m, c in element.terms.items():
        buckets.setdefault(key(m), {})[m] = c
    return buckets


class PathTable:
    """The paths up to a length bound with their degrees.

    ``paths`` is ``Graph.enumerate_paths(len_bound)`` in its order, which is
    ``Path.sort_key`` order: length first, then edge ids. Two columns hold
    one fact per path, by its position i in ``paths``: ``children[i]`` is
    the increasing tuple of the positions of the paths one edge longer that
    extend it, empty at the bound, so the columns form the path tree with
    the vertices 0..|E^0|-1 as roots; ``key[i]`` is its (range vertex id,
    degree), the degree extended from its prefix's by one edge.
    ``depth`` is the length of the longest path held (0 when there is
    none), which can be less than len_bound. ``levels`` maps each key to
    the paths under it split by length: entry l holds those of length l in
    enumeration order, for l from 0 to ``depth``. Only keys with at least
    one path are present. ``first[k]`` is the first path
    under k in table order, the shortest. ``sizes[k]`` is (n_k, s_k): n_k
    paths lie under k, and s_k of them are shorter than len_bound if k's
    range vertex has a designated edge, else s_k = 0. Build it through
    ``DegreeMap.path_table``, which keeps one per bound and rejects a
    negative bound.
    """

    def __init__(self, degree_map, len_bound):
        graph = degree_map.graph
        group = self.group = degree_map.group
        self.paths = graph.enumerate_paths(len_bound)
        depth = self.depth = self.paths[-1].length if self.paths else 0
        children, keys = [], []
        position = {}
        levels = {}
        first = self.first = {}
        shared = {}  # one tuple per distinct key, however many paths carry it
        for i, p in enumerate(self.paths):
            position[p] = i
            children.append(())
            if p.length == 0:
                d = group.identity
            else:
                j = position[p.prefix(p.length - 1)]
                children[j] += (i,)  # out-degrees are small; no list per path
                d = group.op(keys[j][1], degree_map.edge_degrees[p.edges[-1].id])
            key = (p.range.id, d)
            key = shared.setdefault(key, key)
            keys.append(key)
            first.setdefault(key, p)
            split = levels.get(key)
            if split is None:
                split = levels[key] = [[] for _ in range(depth + 1)]
            split[p.length].append(p)
        self.children = tuple(children)
        self.key = tuple(keys)
        self.levels = {key: tuple(map(tuple, split)) for key, split in levels.items()}
        designated = {v.id for v in graph.vertices if graph.special_edge(v) is not None}
        self.sizes = {
            key: (sum(map(len, split)), sum(map(len, split[:len_bound])) if key[0] in designated else 0)
            for key, split in self.levels.items()
        }

    def partner_keys(self, g):
        """Each key (v, d) that has ghost partners for degree g, mapped to
        their key (v, g^-1 d): one lookup per key, not one per path."""
        op, ginv = self.group.op, self.group.inverse(self.group.check(g))
        pairs = (((vid, d), (vid, op(ginv, d))) for vid, d in self.levels)
        return {k: k2 for k, k2 in pairs if k2 in self.levels}


def enumerate_Xg(g, degree_map, len_bound):
    """All normal-form monomials a b* of degree g with both paths <= len_bound.

    Listed in ``Monomial.sort_key`` order: by total length |a| + |b|, then
    by the real path a, then by the ghost path b, each path in
    ``Path.sort_key`` order (length, then edge ids). The order comes from
    generation, not from a sort: for each weight and each length of a, the
    real paths are taken in table order, and each one's ghost paths from
    the level of the remaining length under their (range, degree) key, so
    both paths of a pair share their range and no pair is checked for it.
    Weights and lengths stop at the longest path held. A real path ending
    in the designated edge of its source skips the ghost paths ending in
    it (``Monomial.is_normal``), so only normal pairs become monomials.
    Flagged vertices contribute their listed sample edges only, so for
    flagged graphs this is the sample slice of the true monomial set.
    """
    table = degree_map.path_table(len_bound)
    partners = {k: table.levels[k2] for k, k2 in table.partner_keys(g).items()}
    depth = table.depth
    # real paths by length, each with its designated last edge and its partner levels
    reals = [[] for _ in range(depth + 1)]
    for p, k in zip(table.paths, table.key):
        split = partners.get(k)
        if split is not None:
            last = p.edges[-1] if p.edges else None
            if last is not None and degree_map.graph.special_edge(last.source) is not last:
                last = None
            reals[p.length].append((p, last, split))
    pair = Monomial._same_range
    out = []
    for weight in range(2 * depth + 1):
        for length in range(max(0, weight - depth), min(weight, depth) + 1):
            for a, last, split in reals[length]:
                level = split[weight - length]
                if last is None or weight == length:
                    out.extend([pair(a, b) for b in level])
                else:
                    out.extend([pair(a, b) for b in level if b.edges[-1] is not last])
    return tuple(out)


def count_Xg(g, degree_map, len_bound):
    """len(enumerate_Xg(g, degree_map, len_bound)), with no monomial built.

    The ghost partners of the real paths under a key k = (v, d) are the
    paths under its partner k' = (v, g^-1 d) from ``partner_keys(g)``, so
    |X_g| is the sum over these pairs of n_k n_k' - s_k s_k', with (n_k,
    s_k) = ``sizes[k]``. The subtracted term is exact: a b* is not normal
    just when a = a'e and b = b'e for the designated edge e of u = s(e).
    Dropping e is a bijection onto the pairs (a', b') at u with both
    lengths below the bound (a'e and b'e are in the table, as u is regular)
    and deg(a') deg(b')^-1 = deg(a) deg(e)^-1 deg(e) deg(b)^-1 = g, so
    (u, deg b') is the partner key of (u, deg a').
    """
    table = degree_map.path_table(len_bound)
    pairs = ((table.sizes[k], table.sizes[k2]) for k, k2 in table.partner_keys(g).items())
    return sum(n * n2 - s * s2 for (n, s), (n2, s2) in pairs)


def check_grading_axiom(degree_map, len_bound, ring=INTEGERS):
    """Verify that products land in the product degree, over all monomial
    pairs up to the length bound. Returns a PASS report or the first
    counterexample.

    Every pair is multiplied as elements, and every term of every product
    is graded by ``degree_of``. The first pair with a term off its expected
    degree is the witness, and its found degree is the first off degree of
    the product in group sort order.
    """
    graph = degree_map.graph
    group = degree_map.group
    degree_of = degree_map.degree_of
    monos = enumerate_monomials(graph, len_bound)
    graded = [(m, Element.monomial(graph, ring, m), degree_of(m)) for m in monos]
    for x, ex, dx in graded:
        for y, ey, dy in graded:
            product = ex * ey
            if not product.terms:
                continue
            expected = group.op(dx, dy)
            for m in product.terms:
                if degree_of(m) != expected:
                    found = next(d for d in decompose(product, degree_map) if d != expected)
                    return Report(
                        kind="grading-axiom-check",
                        verdict="FAIL",
                        fields={
                            "bound": len_bound,
                            "witness": {
                                "left": x.render(),
                                "right": y.render(),
                                "expected-degree": group.render(expected),
                                "found-degree": group.render(found),
                                "product": str(product),
                            },
                        },
                    )
    return Report(
        kind="grading-axiom-check",
        verdict="PASS",
        fields={"bound": len_bound, "monomials": len(monos), "pairs-checked": len(monos) ** 2},
    )
