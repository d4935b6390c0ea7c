"""Variable graphs, local rules, the dependency graph and its edge labeling,
graph metrics, greedy maximal independent sets, and sparse partitions.

A variable graph is an oriented graph whose vertices double as constraints
and variables: ``var(x)`` (the ordered out-neighbourhood) lists the variables
that x reads, ``cl(x)`` (the ordered in-neighbourhood) lists the constraints
reading x.  Adjacency-list order realizes the well-orders on both sides.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, KeysView, NamedTuple, Sequence

Word = tuple[int, ...]
Adjacency = Sequence[Sequence[int]]

INF = math.inf


def _check_adjacency_lists(adj: Sequence[Sequence[int]], n: int, kind: str) -> None:
    """Raise ValueError at the first entry, in row order, that lies outside
    0..n-1 or repeats in its row.  The lists are decided by min/max over
    all entries and len(set(row)) over the rows that can repeat an entry;
    the Python loop runs only to name the offender."""
    flat = list(itertools.chain.from_iterable(adj))
    long = [row for row in adj if len(row) > 1]
    if (not flat or min(flat) >= 0 and max(flat) < n) and sum(map(len, long)) == sum(map(len, map(set, long))):
        return
    for x, row in enumerate(adj):
        seen = set()
        for y in row:
            if not 0 <= y < n:
                raise ValueError(f"{kind}[{x}] refers to vertex {y} outside 0..{n - 1}")
            if y in seen:
                raise ValueError(f"{kind}[{x}] lists vertex {y} twice")
            seen.add(y)


class VariableGraph:
    """Oriented graph with ordered out- and in-neighbourhoods.

    ``out_adj[x]`` is the ordered list var(x); ``in_adj[x]`` the ordered list
    cl(x).  The two sides must describe the same edge set.  At most one
    self-loop per vertex is possible because the lists are duplicate-free.

    ``transitive`` marks a graph whose automorphisms act transitively on its
    vertices, so any vertex's ball of radius r is an automorphic image of
    any other's.  Only ``instances.torus_instance`` sets it; every other
    graph is unmarked.
    """

    transitive = False

    def __init__(self, out_adj: Adjacency, in_adj: Adjacency | None = None):
        n = len(out_adj)
        self.out_adj: tuple[Word, ...] = tuple(map(tuple, out_adj))
        _check_adjacency_lists(self.out_adj, n, "out_adj")
        derived: list[list[int]] = [[] for _ in range(n)]  # the transpose, rows sorted
        for x in itertools.compress(range(n), self.out_adj):  # the vertices that read something
            for y in self.out_adj[x]:
                derived[y].append(x)
        if in_adj is None:
            self.in_adj = tuple(map(tuple, derived))
        else:
            if len(in_adj) != n:
                raise ValueError("out_adj and in_adj disagree on vertex count")
            self.in_adj = tuple(map(tuple, in_adj))
            _check_adjacency_lists(self.in_adj, n, "in_adj")
            # Rows free of repeats hold the same edges exactly when they sort alike.
            if list(map(sorted, self.in_adj)) != derived:
                raise ValueError("in_adj is not the transpose of out_adj")
        self._sym: SymAdj | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.out_adj)

    def var(self, x: int) -> Word:
        return self.out_adj[x]

    def cl(self, x: int) -> Word:
        return self.in_adj[x]

    @property
    def sym_adj(self) -> SymAdj:
        """Symmetrized adjacency (var and cl merged), for graph metrics,
        built on first use, with the graph's ``transitive`` mark."""
        if self._sym is None:
            # A row with one side empty is the other side sorted: no set union.
            self._sym = SymAdj([tuple(sorted({*var, *cl})) if var and cl else tuple(sorted(var or cl))
                                for var, cl in zip(self.out_adj, self.in_adj)])
            self._sym.transitive = self.transitive
        return self._sym

    @functools.cached_property
    def rel(self) -> RelGraph:
        """The dependency graph with its edge labeling, built on first use."""
        return build_rel(self)

    @functools.cached_property
    def canvases(self) -> dict:
        """The restrictions of this graph that ``landscapes.restrict`` keeps,
        by sorted kept-vertex tuple."""
        return {}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VariableGraph)
            and self.out_adj == other.out_adj
            and self.in_adj == other.in_adj
        )

    def __repr__(self) -> str:
        return f"VariableGraph({self.vertex_count} vertices)"


def _word_fault(words: Iterable, n: int, b: int) -> tuple[object, str] | None:
    """The first word that is no length-n tuple over 0..b-1, with what is
    wrong with it, or None."""
    for w in words:
        if not isinstance(w, tuple) or len(w) != n:
            return w, "has wrong length"
        if any(not 0 <= d < b for d in w):
            return w, f"has digits outside 0..{b - 1}"
    return None


class LocalRule:
    """Per-vertex forbidden assignment sets over alphabet ``b``.

    ``forbidden[x]`` is a set of words over {0..b-1}; position j of a word is
    the value given to the j-th entry of var(x), and x is violated exactly
    when it reads a forbidden word.  ``word_lengths`` pins each vertex's
    expected word length (= its out-degree).
    """

    def __init__(self, b: int, forbidden: Sequence[Iterable[Word]], word_lengths: Sequence[int]):
        if b < 1:
            raise ValueError("alphabet size must be at least 1")
        if len(forbidden) != len(word_lengths):
            raise ValueError("forbidden and word_lengths disagree on vertex count")
        self.b = b
        self.word_lengths = tuple(word_lengths)
        if set(map(type, forbidden)) <= {frozenset}:
            sets = tuple(forbidden)
        else:
            sets = tuple(ws if isinstance(ws, frozenset) else frozenset(map(tuple, ws)) for ws in forbidden)
        # Each distinct (set, length) case is validated once, on the set of its
        # first vertex and in the order of first vertices, so the first fault
        # found is the one a walk over the vertices meets first.
        for case in dict.fromkeys(zip(sets, self.word_lengths)):
            fault = _word_fault(*case, b)
            if fault:
                x = list(zip(sets, self.word_lengths)).index(case)
                raise ValueError(f"forbidden word {fault[0]} at vertex {x} {fault[1]}")
        self.forbidden: tuple[frozenset[Word], ...] = sets
        self.support: tuple[int, ...] = tuple(itertools.compress(range(len(sets)), sets))

    @classmethod
    def for_graph(cls, graph: VariableGraph, b: int, allowed: Sequence[Iterable[Word]]) -> "LocalRule":
        """The rule allowing exactly ``allowed[x]`` at each vertex x."""
        if len(allowed) != graph.vertex_count:
            raise ValueError("allowed sets do not cover every vertex")
        lengths = [len(graph.var(x)) for x in range(graph.vertex_count)]
        forbidden = []
        for x, words in enumerate(allowed):
            full = frozenset(itertools.product(range(b), repeat=lengths[x]))
            ws = frozenset(tuple(w) for w in words)
            if not ws <= full:
                bad = next(iter(ws - full))
                raise ValueError(f"allowed word {bad} at vertex {x} is no length-{lengths[x]} word over 0..{b - 1}")
            forbidden.append(full - ws)
        return cls(b, forbidden, lengths)

    @property
    def allowed(self) -> tuple[frozenset[Word], ...]:
        """The allowed sets, enumerated on every access (exponential in degree)."""
        return tuple(
            frozenset(itertools.product(range(self.b), repeat=n)) - ws
            for ws, n in zip(self.forbidden, self.word_lengths)
        )

    @property
    def vertex_count(self) -> int:
        return len(self.forbidden)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LocalRule)
            and self.b == other.b
            and self.word_lengths == other.word_lengths
            and self.forbidden == other.forbidden
        )

    def __repr__(self) -> str:
        return f"LocalRule(b={self.b}, {self.vertex_count} vertices)"


def violating_set(graph: VariableGraph, rule: LocalRule, f: Sequence[int]) -> set[int]:
    """Vertices whose restriction of f, the word f gives var(x) in order, is
    forbidden.

    Only support vertices can be violated; everything else is allowed by
    definition.
    """
    return {x for x in rule.support if tuple(f[v] for v in graph.var(x)) in rule.forbidden[x]}


class RelGraph:
    """The dependency graph: x ~ y iff var(x) and var(y) intersect.

    ``nbrs[x]`` lists the neighbourhood of x in canonical label order; the
    label of an edge (x, y) is the position of y in ``nbrs[x]``.  A vertex
    with nonempty var(x) carries a self-loop and appears in its own list.
    ``greedy_mis`` reads these rows as they are: a self-loop blocks only
    its own vertex, which the walk has then already visited.
    """

    def __init__(self, nbrs: Iterable[Iterable[int]]):
        self.nbrs: tuple[Word, ...] = tuple(map(tuple, nbrs))

    def adjacent(self, x: int, y: int) -> bool:
        return y in self.nbrs[x]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelGraph) and self.nbrs == other.nbrs


def build_rel(graph: VariableGraph) -> RelGraph:
    """Build the dependency graph with its canonical edge labeling.

    At x the neighbours are ordered by the var(x)-least shared variable;
    ties (same shared variable v) are broken by position in cl(v).  Walking
    var(x) and each cl(v) in order and keeping first appearances yields
    exactly this order.
    """
    cl = graph.in_adj
    return RelGraph([dict.fromkeys([y for v in row for y in cl[v]]) if row else () for row in graph.out_adj])


class InstanceParams(NamedTuple):
    """The degree/complement bounds (D, delta, beta) of an instance."""

    d: int
    delta: int
    beta: int


def params(graph: VariableGraph, rule: LocalRule) -> InstanceParams:
    """D = max |var| over the support, delta = max dependency degree,
    beta = max forbidden-set size.  A trivially satisfiable instance
    (empty support) gets D = 0.
    """
    support = rule.support
    d = max((len(graph.var(x)) for x in support), default=0)
    delta = max(map(len, graph.rel.nbrs), default=0)
    beta = max(map(len, rule.forbidden), default=0)
    return InstanceParams(d, delta, beta)


def _distances(adj: Adjacency, sources: Iterable[int], r: float = INF, limit: float = INF) -> dict[int, int]:
    """Each vertex within distance r of the sources, mapped to its distance
    from the nearest one, in breadth-first order.  The search stops after
    the first distance layer that brings it to ``limit`` vertices or more."""
    dist = dict.fromkeys(sources, 0)
    frontier, d = list(dist), 0
    while frontier and d < r and len(dist) < limit:
        d += 1
        nxt = []
        for z in frontier:
            for w in adj[z]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def ball(adj: Adjacency, x: int, r: int, limit: float = INF) -> KeysView[int]:
    """All vertices within distance r of x (x included), as the set-like key
    view of their distances.

    With a ``limit``, growth stops after the first distance layer that
    brings the set to ``limit`` vertices or more: the result has at least
    ``limit`` vertices exactly when the whole ball does.
    """
    return _distances(adj, [x], r, limit).keys()


class SymAdj(tuple):
    """A symmetrized adjacency as ``VariableGraph.sym_adj`` builds it: a
    tuple of sorted tuple rows that keeps what is derived from it, found on
    first use and alive as long as it is.  The set-up geometry takes the
    graph's ``SymAdj``.  ``components`` are its connected components by
    least vertex, each (its vertices in increasing order, its reach: the
    largest distance from its least vertex); ``balls`` holds the balls
    B(y, 3n) that ``landscapes.find_window`` keeps, by (y, n).

    ``transitive`` is the mark of the graph it was built from: when set, an
    automorphism carries any vertex to any other, so all vertices have equal
    balls of each radius and equal eccentricity, and the components are
    isomorphic.  Unmarked unless ``VariableGraph.sym_adj`` passes it on."""

    transitive = False

    @functools.cached_property
    def components(self) -> tuple[tuple[Word, int], ...]:
        return _component_pass(self)

    @functools.cached_property
    def balls(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        return {}


def _component_pass(adj: Adjacency) -> tuple[tuple[Word, int], ...]:
    """``SymAdj.components`` in one O(V + E) pass: each reach is found by one
    breadth-first search from the component's least vertex."""
    # One label array, not a ``_distances`` per component, which took 6.2 ms against 3.0 ms
    # on the 808-component, 6,808-vertex solve-cnf graph (2-vCPU Xeon, Python 3.11).
    label = [-1] * len(adj)
    reach: list[int] = []
    for s in range(len(adj)):
        if label[s] < 0:
            c = len(reach)
            label[s] = c
            frontier = [s]
            depth = -1
            while frontier:
                depth += 1
                nxt = []
                for z in frontier:
                    for y in adj[z]:
                        if label[y] < 0:
                            label[y] = c
                            nxt.append(y)
                frontier = nxt
            reach.append(depth)
    members: list[list[int]] = [[] for _ in reach]
    for x, c in enumerate(label):
        members[c].append(x)
    return tuple(zip(map(tuple, members), reach))


def interior(adj: Adjacency, subset: Iterable[int], i: int) -> set[int]:
    """Vertices of the subset at distance >= i from every outside vertex."""
    inside = set(subset)
    outside = [x for x in range(len(adj)) if x not in inside]
    return inside - _distances(adj, outside, i - 1).keys()


def greedy_mis(adj: Adjacency, members: Iterable[int], order: Sequence[int]) -> set[int]:
    """Greedy maximal independent subset of ``members``, taken in ``order``.

    Self-loops are harmless: a chosen vertex blocks itself only after it is
    chosen, and the walk visits each vertex once (a repeat would add
    nothing), so a self-looped vertex can still be chosen and rows with or
    without self-loops give the same set.
    """
    member_set = set(members)
    blocked: set[int] = set()
    chosen: set[int] = set()
    for x in order:
        if x in member_set and x not in blocked:
            chosen.add(x)
            blocked.update(adj[x])
    return chosen


class Partition:
    """Total map vertex -> part index; parts may be empty."""

    def __init__(self, part_count: int, part_of: Sequence[int]):
        self.part_count = part_count
        self.part_of = tuple(part_of)
        # Decided by min/max; the loop runs only to name the first offender.
        if self.part_of and not (min(self.part_of) >= 0 and max(self.part_of) < part_count):
            x, i = next((x, i) for x, i in enumerate(self.part_of) if not 0 <= i < part_count)
            raise ValueError(f"vertex {x} assigned to part {i} outside 0..{part_count - 1}")

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple(range(n)))

    @property
    def vertex_count(self) -> int:
        return len(self.part_of)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.part_count == other.part_count
            and self.part_of == other.part_of
        )

    def __repr__(self) -> str:
        return f"Partition({self.part_count} parts over {self.vertex_count} vertices)"


def is_sparse(adj: Adjacency, partition: Partition, r: int) -> bool:
    """Ball-form sparseness: every radius-r ball meets each part at most once."""
    for x in range(len(adj)):
        seen: set[int] = set()
        for y in ball(adj, x, r):
            part = partition.part_of[y]
            if part in seen:
                return False
            seen.add(part)
    return True


def sparse_partition(adj: SymAdj, r: int) -> Partition:
    """Partition in which distinct points of any radius-r ball get distinct parts.

    First fit in index order: each vertex takes the least part that no
    earlier vertex within distance 2r took.  This equals iterated greedy MIS
    of the distance <= 2r power graph and uses at most max |B(x, 2r)| parts.
    ``adj`` is the graph's ``SymAdj``.  Components are independent: where a
    component's least vertex is within r of all of it, any two of its
    vertices lie within 2r, so first fit gives each vertex its rank in the
    component and no ball is taken there.  On a ``transitive`` graph every
    vertex's eccentricity is the reach, so a reach of at most 2r already
    puts any two vertices of a component within 2r: ranks again.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    part_of = [0] * len(adj)
    for members, reach in adj.components:
        if reach <= (2 * r if adj.transitive else r):
            for rank, x in enumerate(members):
                part_of[x] = rank
            continue
        for x in members:
            taken = {part_of[y] for y in ball(adj, x, 2 * r) if y < x}
            part = 0
            while part in taken:
                part += 1
            part_of[x] = part
    return Partition(max(part_of, default=-1) + 1, part_of)
