"""Variable graphs, local rules, the dependency graph and its edge labeling,
graph metrics, greedy maximal independent sets, and sparse partitions.

A variable graph is an oriented graph whose vertices double as constraints
and variables: ``var(x)`` (the ordered out-neighbourhood) lists the variables
that x reads, ``cl(x)`` (the ordered in-neighbourhood) lists the constraints
reading x.  Adjacency-list order realizes the well-orders on both sides.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Word = tuple[int, ...]
Adjacency = Sequence[Sequence[int]]

INF = math.inf


def _check_adjacency_lists(adj: Sequence[Sequence[int]], n: int, kind: str) -> None:
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
    """

    def __init__(self, out_adj: Adjacency, in_adj: Adjacency | None = None):
        n = len(out_adj)
        self.out_adj: tuple[Word, ...] = tuple(tuple(row) for row in out_adj)
        _check_adjacency_lists(self.out_adj, n, "out_adj")
        if in_adj is None:
            derived: list[list[int]] = [[] for _ in range(n)]
            for x in range(n):
                for y in self.out_adj[x]:
                    derived[y].append(x)
            self.in_adj = tuple(tuple(row) for row in derived)
        else:
            if len(in_adj) != n:
                raise ValueError("out_adj and in_adj disagree on vertex count")
            self.in_adj = tuple(tuple(row) for row in in_adj)
            _check_adjacency_lists(self.in_adj, n, "in_adj")
            edges_out = {(x, y) for x in range(n) for y in self.out_adj[x]}
            edges_in = {(x, y) for y in range(n) for x in self.in_adj[y]}
            if edges_out != edges_in:
                raise ValueError("in_adj is not the transpose of out_adj")
        self._sym: tuple[Word, ...] | None = None
        self._rel: RelGraph | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.out_adj)

    def var(self, x: int) -> Word:
        return self.out_adj[x]

    def cl(self, x: int) -> Word:
        return self.in_adj[x]

    @property
    def sym_adj(self) -> tuple[Word, ...]:
        """Symmetrized adjacency (var and cl merged), for graph metrics."""
        if self._sym is None:
            self._sym = tuple(
                tuple(sorted(set(self.out_adj[x]) | set(self.in_adj[x])))
                for x in range(self.vertex_count)
            )
        return self._sym

    @property
    def rel(self) -> RelGraph:
        """The dependency graph with its edge labeling, built on first use."""
        if self._rel is None:
            self._rel = build_rel(self)
        return self._rel

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VariableGraph)
            and self.out_adj == other.out_adj
            and self.in_adj == other.in_adj
        )

    def __hash__(self) -> int:
        return hash((self.out_adj, self.in_adj))

    def __repr__(self) -> str:
        return f"VariableGraph({self.vertex_count} vertices)"


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
        sets = []
        checked: set[tuple[int, int]] = set()  # shared sets validated once
        for x, words in enumerate(forbidden):
            ws = words if isinstance(words, frozenset) else frozenset(tuple(w) for w in words)
            if (id(ws), self.word_lengths[x]) not in checked:
                for w in ws:
                    if not isinstance(w, tuple) or len(w) != self.word_lengths[x]:
                        raise ValueError(f"forbidden word {w} at vertex {x} has wrong length")
                    if any(not 0 <= d < b for d in w):
                        raise ValueError(
                            f"forbidden word {w} at vertex {x} has digits outside 0..{b - 1}"
                        )
                checked.add((id(ws), self.word_lengths[x]))
            sets.append(ws)
        self.forbidden: tuple[frozenset[Word], ...] = tuple(sets)
        self.support: tuple[int, ...] = tuple(x for x, ws in enumerate(self.forbidden) if ws)

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

    def full_size(self, x: int) -> int:
        return self.b ** self.word_lengths[x]

    def is_full(self, x: int) -> bool:
        return not self.forbidden[x]

    def complement_size(self, x: int) -> int:
        return len(self.forbidden[x])

    def failure_prob(self, x: int) -> Fraction:
        return Fraction(self.complement_size(x), self.full_size(x))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LocalRule)
            and self.b == other.b
            and self.word_lengths == other.word_lengths
            and self.forbidden == other.forbidden
        )

    def __repr__(self) -> str:
        return f"LocalRule(b={self.b}, {self.vertex_count} vertices)"


def restriction_word(graph: VariableGraph, f: Sequence[int], x: int) -> Word:
    """The word read by constraint x under assignment f (in var(x) order)."""
    return tuple(f[v] for v in graph.var(x))


def failure_prob(graph: VariableGraph, rule: LocalRule, x: int) -> Fraction:
    """Probability that a uniform assignment violates the rule at x."""
    if rule.word_lengths[x] != len(graph.var(x)):
        raise ValueError("rule word length disagrees with out-degree")
    return rule.failure_prob(x)


def violating_set(graph: VariableGraph, rule: LocalRule, f: Sequence[int]) -> set[int]:
    """Vertices whose restriction of f is forbidden.

    Only support vertices can be violated; everything else is allowed by
    definition.
    """
    return {
        x
        for x in rule.support
        if restriction_word(graph, f, x) in rule.forbidden[x]
    }


class RelGraph:
    """The dependency graph: x ~ y iff var(x) and var(y) intersect.

    ``nbrs[x]`` lists the neighbourhood of x in canonical label order; the
    label of an edge (x, y) is the position of y in ``nbrs[x]``.  A vertex
    with nonempty var(x) carries a self-loop and appears in its own list.
    """

    def __init__(self, nbrs: Sequence[Sequence[int]]):
        self.nbrs: tuple[Word, ...] = tuple(tuple(row) for row in nbrs)
        self._noself: tuple[Word, ...] | None = None
        self._index: list[dict[int, int] | None] = [None] * len(self.nbrs)

    @property
    def vertex_count(self) -> int:
        return len(self.nbrs)

    def degree(self, x: int) -> int:
        return len(self.nbrs[x])

    def label(self, x: int, y: int) -> int:
        idx = self._index[x]
        if idx is None:
            idx = {y: j for j, y in enumerate(self.nbrs[x])}
            self._index[x] = idx
        return idx[y]

    def adjacent(self, x: int, y: int) -> bool:
        return y in self.nbrs[x]

    @property
    def adj_noself(self) -> tuple[Word, ...]:
        """Neighbourhoods with self-loops removed (for independence tests)."""
        if self._noself is None:
            self._noself = tuple(
                tuple(y for y in row if y != x) for x, row in enumerate(self.nbrs)
            )
        return self._noself

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelGraph) and self.nbrs == other.nbrs


def build_rel(graph: VariableGraph) -> RelGraph:
    """Build the dependency graph with its canonical edge labeling.

    At x the neighbours are ordered by the var(x)-least shared variable;
    ties (same shared variable v) are broken by position in cl(v).
    """
    n = graph.vertex_count
    var_sets = [set(graph.var(x)) for x in range(n)]
    cl_pos: list[dict[int, int]] = [
        {y: j for j, y in enumerate(graph.cl(v))} for v in range(n)
    ]
    nbrs = []
    for x in range(n):
        candidates: set[int] = set()
        for v in graph.var(x):
            candidates.update(graph.cl(v))

        def key(y: int) -> tuple[int, int]:
            for pos, v in enumerate(graph.var(x)):
                if v in var_sets[y]:
                    return (pos, cl_pos[v][y])
            raise AssertionError("candidate shares no variable")

        nbrs.append(tuple(sorted(candidates, key=key)))
    return RelGraph(nbrs)


@dataclass(frozen=True)
class InstanceParams:
    """The degree/complement bounds (D, delta, beta) of an instance."""

    d: int
    delta: int
    beta: int
    trivially_satisfiable: bool


def params(graph: VariableGraph, rule: LocalRule) -> InstanceParams:
    """D = max |var| over the support, delta = max dependency degree,
    beta = max forbidden-set size.  A trivially satisfiable instance
    (empty support) is flagged and gets D = 0.
    """
    support = rule.support
    d = max((len(graph.var(x)) for x in support), default=0)
    delta = max(map(len, graph.rel.nbrs), default=0)
    beta = max((rule.complement_size(x) for x in range(rule.vertex_count)), default=0)
    return InstanceParams(d, delta, beta, trivially_satisfiable=not support)


def _bfs_distances(adj: Adjacency, sources: Iterable[int]) -> list[float]:
    dist: list[float] = [INF] * len(adj)
    queue = deque()
    for s in sources:
        if dist[s] == INF:
            dist[s] = 0
            queue.append(s)
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] == INF:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def graph_distance(adj: Adjacency, x: int, y: int):
    """BFS distance in a symmetric graph; math.inf when disconnected."""
    if x == y:
        return 0
    dist = _bfs_distances(adj, [x])
    return dist[y]


def ball(adj: Adjacency, x: int, r: int) -> set[int]:
    """All vertices within distance r of x (x included)."""
    found = {x}
    frontier = [x]
    for _ in range(r):
        nxt = []
        for z in frontier:
            for w in adj[z]:
                if w not in found:
                    found.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return found


def interior(adj: Adjacency, subset: Iterable[int], i: int) -> set[int]:
    """Vertices of the subset at distance >= i from every outside vertex."""
    inside = set(subset)
    if i <= 0:
        return inside
    outside = [x for x in range(len(adj)) if x not in inside]
    if not outside:
        return inside
    dist = _bfs_distances(adj, outside)
    return {x for x in inside if dist[x] >= i}


def greedy_mis(
    adj: Adjacency,
    members: Iterable[int],
    order: Sequence[int] | None = None,
) -> set[int]:
    """Greedy maximal independent subset of ``members``.

    Deterministic given the order; self-loops are ignored for the
    independence test, so a self-looped vertex can still be chosen.
    """
    member_set = set(members)
    if order is None:
        order = sorted(member_set)
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
        for x, i in enumerate(self.part_of):
            if not 0 <= i < part_count:
                raise ValueError(f"vertex {x} assigned to part {i} outside 0..{part_count - 1}")

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple(range(n)))

    def members(self, i: int) -> list[int]:
        return [x for x, j in enumerate(self.part_of) if j == i]

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


def sparse_partition(adj: Adjacency, r: int) -> Partition:
    """Partition in which distinct points of any radius-r ball get distinct parts.

    First fit in index order: each vertex takes the least part that no
    earlier vertex within distance 2r took.  This equals iterated greedy MIS
    of the distance <= 2r power graph and uses at most max |B(x, 2r)| parts.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    part_of: list[int] = []
    for x in range(len(adj)):
        taken = {part_of[y] for y in ball(adj, x, 2 * r) if y < x}
        part = 0
        while part in taken:
            part += 1
        part_of.append(part)
    return Partition(max(part_of, default=-1) + 1, part_of)
