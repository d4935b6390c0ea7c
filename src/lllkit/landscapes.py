"""Witness landscapes: extraction from run traces, the sequence decoding,
restrictions, the push/rebranch/join calculus with grounding, window
finding, and the injective tape encoding built from all of the above.

A landscape is a forest drawn on the layered canvas V(G) x N: edges go from
level i to level i+1 between dependency-adjacent base vertices, in-degrees
are at most 1, and distinct same-level vertices have dependency distance at
least 2.  A decoration attaches the final assignment, one forbidden word
per forest vertex, and the partition map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .engine import RandomTape, RunTrace, used_unused
from .graphs import (
    LocalRule,
    Partition,
    VariableGraph,
    Word,
    _bfs_distances,
    ball,
    interior,
    params,
)

ForestVertex = tuple[int, int]  # (base vertex, level)


class LandscapeError(ValueError):
    """An operation's applicability predicate is false."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant failed; signals a bug upstream."""


class GroundingError(RuntimeError):
    """The grounding loop exceeded its iteration guard."""

    def __init__(self, message: str, ops: list):
        super().__init__(message)
        self.ops = ops


class CodeCorruptionError(ValueError):
    """A tape code failed its structural checks during decoding."""


@dataclass(frozen=True)
class LandscapeType:
    """Bounds (D, delta, beta, N1, N2, p) a decorated landscape fits in.

    All components bound their quantity from above except n2, which is the
    exact forest size.
    """

    d: int
    delta: int
    beta: int
    n1: int
    n2: int
    p: int

    def fits_within(self, other: "LandscapeType") -> bool:
        return (
            self.d <= other.d
            and self.delta <= other.delta
            and self.beta <= other.beta
            and self.n1 <= other.n1
            and self.n2 == other.n2
            and self.p <= other.p
        )


class DecoratedLandscape:
    """Forest on the canvas of a variable graph plus its decoration."""

    def __init__(
        self,
        graph: VariableGraph,
        rule: LocalRule,
        verts: Iterable[ForestVertex],
        parent: dict[ForestVertex, ForestVertex],
        prev: dict[ForestVertex, Word],
        final: Sequence[int],
        part_of: Sequence[int],
    ):
        self.graph = graph
        self.rule = rule
        self.rel = graph.rel
        self.verts = frozenset(verts)
        self.parent = dict(parent)
        self.prev = dict(prev)
        self.final = tuple(final)
        self.part_of = tuple(part_of)
        self.validate()

    # -- structural invariants -------------------------------------------

    def validate(self) -> None:
        n = self.graph.vertex_count
        if len(self.final) != n or len(self.part_of) != n:
            raise InternalConsistencyError("decoration length disagrees with graph")
        if any(not 0 <= d < self.rule.b for d in self.final):
            raise InternalConsistencyError("final assignment outside alphabet")
        for v in self.verts:
            base, level = v
            if not (0 <= base < n and level >= 0):
                raise InternalConsistencyError(f"forest vertex {v} outside the canvas")
        if set(self.parent) - self.verts or set(self.prev) != self.verts:
            raise InternalConsistencyError("parent/prev maps disagree with the vertex set")
        for child, par in self.parent.items():
            if par not in self.verts:
                raise InternalConsistencyError(f"parent {par} of {child} missing")
            if par[1] != child[1] - 1 or not self.rel.adjacent(par[0], child[0]):
                raise InternalConsistencyError(f"edge {par} -> {child} is not a canvas edge")
        by_level: dict[int, list[int]] = {}
        for base, level in self.verts:
            by_level.setdefault(level, []).append(base)
        for level, bases in by_level.items():
            for a, b in itertools.combinations(bases, 2):
                if self.rel.adjacent(a, b):
                    raise InternalConsistencyError(
                        f"level {level} holds dependency-adjacent bases {a}, {b}"
                    )
        for v, word in self.prev.items():
            base = v[0]
            if len(word) != len(self.graph.var(base)):
                raise InternalConsistencyError(f"prev word at {v} has wrong length")
            if any(not 0 <= d < self.rule.b for d in word):
                raise InternalConsistencyError(f"prev word at {v} outside alphabet")
            if not self.rule.is_full(base) and word not in self.rule.forbidden[base]:
                raise InternalConsistencyError(f"prev word at {v} is not forbidden")

    # -- shape helpers -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.verts

    @property
    def height(self) -> int:
        return 1 + max((lvl for _, lvl in self.verts), default=-1)

    def level_verts(self, level: int) -> list[ForestVertex]:
        return sorted(v for v in self.verts if v[1] == level)

    def column_occupancy(self) -> list[int]:
        g = [0] * self.graph.vertex_count
        for base, _ in self.verts:
            g[base] += 1
        return g

    def children(self) -> dict[ForestVertex, list[ForestVertex]]:
        ch: dict[ForestVertex, list[ForestVertex]] = {v: [] for v in self.verts}
        for child, par in self.parent.items():
            ch[par].append(child)
        return ch

    def roots(self) -> list[ForestVertex]:
        return sorted(v for v in self.verts if v not in self.parent)

    def trees(self) -> list[frozenset[ForestVertex]]:
        """Connected components, one per root, sorted by (level, base) of root."""
        ch = self.children()
        comps = []
        for root in self.roots():
            comp = set()
            stack = [root]
            while stack:
                v = stack.pop()
                comp.add(v)
                stack.extend(ch[v])
            comps.append(frozenset(comp))
        return comps

    @property
    def is_grounded(self) -> bool:
        return all(v[1] == 0 for v in self.roots())

    def type_of(self) -> LandscapeType:
        d = max((len(row) for row in self.graph.out_adj), default=0)
        bounds = params(self.graph, self.rule)
        p = 1 + max(self.part_of, default=-1)
        return LandscapeType(d, bounds.delta, bounds.beta, self.graph.vertex_count, len(self.verts), p)

    def _replace(self, verts=None, parent=None, prev=None) -> "DecoratedLandscape":
        return DecoratedLandscape(
            self.graph,
            self.rule,
            self.verts if verts is None else verts,
            self.parent if parent is None else parent,
            self.prev if prev is None else prev,
            self.final,
            self.part_of,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DecoratedLandscape)
            and self.graph == other.graph
            and self.rule == other.rule
            and self.verts == other.verts
            and self.parent == other.parent
            and self.prev == other.prev
            and self.final == other.final
            and self.part_of == other.part_of
        )

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.verts),
            "parents": sorted((list(c), list(p)) for c, p in self.parent.items()),
            "prev": sorted((list(v), list(w)) for v, w in self.prev.items()),
            "final": list(self.final),
            "parts": list(self.part_of),
        }


# ---------------------------------------------------------------------------
# Extraction from run traces
# ---------------------------------------------------------------------------


def extract_landscape(trace: RunTrace) -> DecoratedLandscape:
    """Level i of the forest is the step-i resample set; the parent of a
    level-(i+1) vertex is the dependency-adjacent level-i vertex with the
    least base.  Prev records the violated word each resample erased."""
    system = trace.system
    rel = system.rel
    verts: list[ForestVertex] = []
    parent: dict[ForestVertex, ForestVertex] = {}
    prev: dict[ForestVertex, Word] = {}
    for i, (resampled, (assignment, _)) in enumerate(zip(trace.resampled, trace.states())):
        for x in resampled:
            v = (x, i)
            verts.append(v)
            prev[v] = tuple(assignment[u] for u in system.graph.var(x))
            if i > 0:
                candidates = [
                    y for y in trace.resampled[i - 1] if rel.adjacent(y, x)
                ]
                if not candidates:
                    raise InternalConsistencyError(
                        f"resampled vertex {x} at step {i} has no adjacent "
                        f"predecessor; the previous resample set was not maximal"
                    )
                parent[v] = (min(candidates), i - 1)
    return DecoratedLandscape(
        system.graph, system.rule, verts, parent, prev, trace.final,
        system.partition.part_of,
    )


# ---------------------------------------------------------------------------
# Assignment decoding
# ---------------------------------------------------------------------------


def _cover_maps(ls: DecoratedLandscape) -> list[dict[int, ForestVertex]]:
    """cover[i][y] = the unique level-i forest vertex reading y."""
    k = ls.height
    cover: list[dict[int, ForestVertex]] = [dict() for _ in range(k)]
    for v in ls.verts:
        base, level = v
        for y in ls.graph.var(base):
            if y in cover[level]:
                raise InternalConsistencyError(
                    f"level {level} has two vertices reading {y}; separation is broken"
                )
            cover[level][y] = v
    return cover


def asgn_seq(ls: DecoratedLandscape) -> list[Word]:
    """Per-vertex digit sequences reconstructed from the decoration.

    Backward pass: start from the final assignment and, walking levels
    downward, reset every variable read at a level to its recorded violated
    value.  Forward pass: whenever a level reads x, the level-above
    assignment value of x is the digit the run consumed there.
    """
    n = ls.graph.vertex_count
    k = ls.height
    if k == 0:
        return [() for _ in range(n)]
    cover = _cover_maps(ls)
    asgn: list[list[int]] = [None] * (k + 1)  # type: ignore[list-item]
    asgn[k] = list(ls.final)
    for i in range(k - 1, -1, -1):
        asgn[i] = list(asgn[i + 1])
        for v in ls.level_verts(i):
            base = v[0]
            word = ls.prev[v]
            for pos, y in enumerate(ls.graph.var(base)):
                asgn[i][y] = word[pos]
    seqs: list[Word] = []
    for x in range(n):
        seqs.append(tuple(asgn[i + 1][x] for i in range(k) if x in cover[i]))
    return seqs


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------


def restrict(ls: DecoratedLandscape, vertices: Iterable[int]) -> tuple[DecoratedLandscape, tuple[int, ...]]:
    """Restriction to the induced subgraph on ``vertices``.

    The rule is relaxed to all-allowed wherever the var list shrank; forest
    vertices whose restricted var list is empty constrain nothing and are
    dropped; surviving forest edges must still be canvas edges of the
    restricted graph.  Returns the landscape and the original vertex id of
    each new vertex.
    """
    keep = sorted(set(vertices))
    if any(not 0 <= x < ls.graph.vertex_count for x in keep):
        raise ValueError("restriction set mentions unknown vertices")
    if len(keep) == ls.graph.vertex_count:
        return ls, tuple(keep)
    new_id = {x: i for i, x in enumerate(keep)}
    out_adj = []
    kept_positions: list[list[int]] = []
    for x in keep:
        row, positions = [], []
        for pos, y in enumerate(ls.graph.var(x)):
            if y in new_id:
                row.append(new_id[y])
                positions.append(pos)
        out_adj.append(tuple(row))
        kept_positions.append(positions)
    in_adj = []
    for x in keep:
        in_adj.append(tuple(new_id[y] for y in ls.graph.cl(x) if y in new_id))
    graph = VariableGraph(out_adj, in_adj)
    forbidden = [
        ls.rule.forbidden[x] if len(out_adj[i]) == len(ls.graph.var(x)) else frozenset()
        for i, x in enumerate(keep)
    ]
    rule = LocalRule(ls.rule.b, forbidden, [len(row) for row in out_adj])

    verts = []
    prev = {}
    for base, level in ls.verts:
        if base not in new_id:
            continue
        i = new_id[base]
        if not out_adj[i]:
            continue  # reads nothing here: carries no decoding information
        v = (i, level)
        verts.append(v)
        word = ls.prev[(base, level)]
        prev[v] = tuple(word[pos] for pos in kept_positions[i])
    vert_set = set(verts)
    parent = {}
    for child, par in ls.parent.items():
        if child[0] in new_id and par[0] in new_id:
            c = (new_id[child[0]], child[1])
            q = (new_id[par[0]], par[1])
            if c in vert_set and q in vert_set and graph.rel.adjacent(q[0], c[0]):
                parent[c] = q
    final = tuple(ls.final[x] for x in keep)
    part_of = tuple(ls.part_of[x] for x in keep)
    restricted = DecoratedLandscape(graph, rule, verts, parent, prev, final, part_of)
    return restricted, tuple(keep)


def is_faithful_at(ls: DecoratedLandscape, vertices: Iterable[int], x: int) -> bool:
    """True when every constraint reading x keeps its full var list inside
    the restriction set (then x's decoded sequence is preserved)."""
    keep = set(vertices)
    if x not in keep:
        raise ValueError(f"vertex {x} is not in the restriction set")
    for y in ls.graph.cl(x):
        if y not in keep:
            return False
        if any(v not in keep for v in ls.graph.var(y)):
            return False
    return True


# ---------------------------------------------------------------------------
# Pushes, rebranchings, joinings, grounding
# ---------------------------------------------------------------------------


def _cross_edges_into(ls: DecoratedLandscape, tree: frozenset[ForestVertex]) -> Iterator[tuple[ForestVertex, ForestVertex]]:
    """Canvas edges (o, v) with o in another tree and v in this tree."""
    for v in sorted(tree):
        base, level = v
        if level == 0:
            continue
        for nb in ls.rel.nbrs[base]:
            o = (nb, level - 1)
            if o in ls.verts and o not in tree:
                yield (o, v)


def is_landscape_pushable(ls: DecoratedLandscape) -> bool:
    return bool(ls.verts) and all(level > 0 for _, level in ls.verts)


def push_all(ls: DecoratedLandscape) -> DecoratedLandscape:
    """Shift the whole forest down one level."""
    if not is_landscape_pushable(ls):
        raise LandscapeError("push_all: some vertex is already at level 0")
    down = lambda v: (v[0], v[1] - 1)
    return ls._replace(
        verts=(down(v) for v in ls.verts),
        parent={down(c): down(p) for c, p in ls.parent.items()},
        prev={down(v): w for v, w in ls.prev.items()},
    )


def is_tree_pushable(ls: DecoratedLandscape, tree: frozenset[ForestVertex]) -> bool:
    root = min(tree, key=lambda v: v[1])
    if root[1] == 0:
        return False
    return next(_cross_edges_into(ls, tree), None) is None


def pushable_trees(ls: DecoratedLandscape) -> list[frozenset[ForestVertex]]:
    return [t for t in ls.trees() if is_tree_pushable(ls, t)]


def push_tree(ls: DecoratedLandscape, tree: frozenset[ForestVertex]) -> DecoratedLandscape:
    """Shift one tree down one level; the tree must receive no canvas edge
    from any other tree."""
    if tree not in ls.trees():
        raise LandscapeError("push_tree: not a tree of this landscape")
    if not is_tree_pushable(ls, tree):
        raise LandscapeError("push_tree: tree is at level 0 or receives a cross edge")
    down = lambda v: (v[0], v[1] - 1) if v in tree else v
    new_verts = {down(v) for v in ls.verts}
    if len(new_verts) != len(ls.verts):
        raise InternalConsistencyError("push collided with an existing vertex")
    return ls._replace(
        verts=new_verts,
        parent={down(c): down(p) for c, p in ls.parent.items()},
        prev={down(v): w for v, w in ls.prev.items()},
    )


def rebranchable_triples(ls: DecoratedLandscape) -> Iterator[tuple[ForestVertex, ForestVertex, ForestVertex]]:
    """(x, y, z): (x, z) is a forest edge, (y, z) a canvas edge, y a forest
    vertex distinct from x."""
    for z, x in sorted(ls.parent.items()):
        base, level = z
        for nb in ls.rel.nbrs[base]:
            y = (nb, level - 1)
            if y in ls.verts and y != x and y != z:
                yield (x, y, z)


def rebranch(ls: DecoratedLandscape, triple: tuple[ForestVertex, ForestVertex, ForestVertex]) -> DecoratedLandscape:
    x, y, z = triple
    if ls.parent.get(z) != x:
        raise LandscapeError("rebranch: (x, z) is not a forest edge")
    if y not in ls.verts or y == x or y == z:
        raise LandscapeError("rebranch: y is not a distinct forest vertex")
    if y[1] != z[1] - 1 or not ls.rel.adjacent(y[0], z[0]):
        raise LandscapeError("rebranch: (y, z) is not a canvas edge")
    parent = dict(ls.parent)
    parent[z] = y
    return ls._replace(parent=parent)


def joinable_pairs(ls: DecoratedLandscape) -> Iterator[tuple[ForestVertex, ForestVertex]]:
    """(y, z): z is a root, (y, z) a canvas edge from a forest vertex."""
    for z in ls.roots():
        base, level = z
        if level == 0:
            continue
        for nb in ls.rel.nbrs[base]:
            y = (nb, level - 1)
            if y in ls.verts:
                yield (y, z)


def join(ls: DecoratedLandscape, pair: tuple[ForestVertex, ForestVertex]) -> DecoratedLandscape:
    y, z = pair
    if z in ls.parent or z not in ls.verts:
        raise LandscapeError("join: z is not a root")
    if y not in ls.verts or y[1] != z[1] - 1 or not ls.rel.adjacent(y[0], z[0]):
        raise LandscapeError("join: (y, z) is not a canvas edge from a forest vertex")
    parent = dict(ls.parent)
    parent[z] = y
    return ls._replace(parent=parent)


def ground(ls: DecoratedLandscape, return_ops: bool = False):
    """An equivalent landscape with every root at level 0.

    Loop: join when possible (least (level, root, source)); else push a
    pushable tree; else push everything when nothing touches level 0; else
    evict a subtree from the least non-grounded tree by a cross rebranch.
    The rebranch phase always shrinks that tree, so the loop terminates;
    the guard turns any violation of that argument into a logged failure.
    """
    total_levels = sum(level for _, level in ls.verts)
    n2 = len(ls.verts)
    guard = 16 + 8 * (n2 + 1) * (n2 + total_levels + 1)
    ops: list[tuple] = []
    current = ls
    for _ in range(guard):
        if current.is_grounded:
            if return_ops:
                return current, ops
            return current
        pair = min(
            joinable_pairs(current),
            key=lambda yz: (yz[1][1], yz[1][0], yz[0][0]),
            default=None,
        )
        if pair is not None:
            ops.append(("join",) + pair)
            current = join(current, pair)
            continue
        pushables = pushable_trees(current)
        if pushables:
            tree = min(pushables, key=lambda t: min((lvl, base) for base, lvl in t))
            ops.append(("push_tree", min(tree)))
            current = push_tree(current, tree)
            continue
        if is_landscape_pushable(current):
            ops.append(("push_all",))
            current = push_all(current)
            continue
        target = min(
            (t for t in current.trees() if min(lvl for _, lvl in t) > 0),
            key=lambda t: min((lvl, base) for base, lvl in t),
        )
        edge = min(
            (
                (o, v)
                for o, v in _cross_edges_into(current, target)
                if v in current.parent
            ),
            key=lambda ov: (ov[1][1], ov[1][0], ov[0][0]),
            default=None,
        )
        if edge is None:
            raise InternalConsistencyError(
                "non-grounded tree is neither pushable, joinable, nor rebranchable"
            )
        o, v = edge
        triple = (current.parent[v], o, v)
        ops.append(("rebranch",) + triple)
        current = rebranch(current, triple)
    raise GroundingError(f"grounding exceeded its guard of {guard} operations", ops)


# ---------------------------------------------------------------------------
# Window finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    center: int
    radius: int
    vertices: frozenset[int]


class WindowError(ValueError):
    """The growth precondition failed at the weight's argmax."""


def default_window_params(adj: Sequence[Sequence[int]], eps: Fraction = Fraction(1, 2)) -> int:
    """Smallest n >= 1 with max_x |B(x, 3n)| < (1 + eps)^n for this graph.

    Requires eps > 0.  Then it exists on every finite graph: once
    (1 + eps)^n exceeds the vertex count every ball is small enough.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    for n in itertools.count(1):
        bound = (1 + eps) ** n
        if all(len(ball(adj, x, 3 * n)) < bound for x in range(len(adj))):
            return n


def find_window(adj: Sequence[Sequence[int]], weights: Sequence[int], eps: Fraction, n: int) -> Window:
    """Ball around the argmax whose weight stalls: the least r in 3..3n with
    sum over B(y, r) < (1 + eps) * sum over B(y, r - 3).

    Requires |B(y, 3n)| < (1 + eps)^n at the argmax y; if no radius works
    the weight sum would have grown past that bound, so the scan cannot
    fail under the precondition.
    """
    if all(w == 0 for w in weights):
        raise ValueError("weight function is identically zero")
    best = max(range(len(weights)), key=lambda x: (weights[x], -x))
    dist = _bfs_distances(adj, [best])
    radius_max = 3 * n
    ball_size = sum(1 for d in dist if d <= radius_max)
    if ball_size >= (1 + eps) ** n:
        raise WindowError(
            f"growth precondition fails: |B({best}, {radius_max})| = {ball_size} "
            f">= (1 + {eps})^{n}"
        )
    sums = [0] * (radius_max + 1)
    for x, w in enumerate(weights):
        d = dist[x]
        if d <= radius_max:
            sums[int(d)] += w
    for r in range(1, radius_max + 1):
        sums[r] += sums[r - 1]
    for r in range(3, radius_max + 1):
        if sums[r] < (1 + eps) * sums[r - 3]:
            vertices = frozenset(x for x in range(len(weights)) if dist[x] <= r)
            return Window(best, r, vertices)
    raise WindowError(
        f"no radius in 3..{radius_max} works at {best}; "
        f"the graph violates the assumed growth"
    )


# ---------------------------------------------------------------------------
# The injective tape encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TapeCode:
    """Image of one tape: touched parts, leftover digits, grounded witness."""

    part_ids: frozenset[int]
    payload: Word
    witness: DecoratedLandscape | None
    b: int


def encode_tape(trace: RunTrace, eps: Fraction = Fraction(1, 2), n: int | None = None) -> TapeCode:
    """Compress a finite run's tape into (parts, leftover digits, witness).

    With an empty landscape the payload is the concatenation of all
    streams.  Otherwise a window F around the column of maximal occupancy
    is found, the landscape is restricted to F and grounded, the parts of
    the window interior F_-2 are recorded, and the payload concatenates the
    per-part leftovers: the unused suffix for interior parts, the whole
    stream for the rest.  The partition must separate the window's ball, so
    each interior vertex is recoverable from its part alone.
    """
    system = trace.system
    if trace.tape is None:
        raise ValueError("trace has no tape")
    p = system.partition.part_count
    k = trace.k
    ls = extract_landscape(trace)
    if ls.is_empty:
        payload = tuple(d for i in range(p) for d in trace.tape.row(i, k))
        return TapeCode(frozenset(), payload, None, system.b)
    adj = system.graph.sym_adj
    if n is None:
        n = default_window_params(adj, eps)
    window = find_window(adj, ls.column_occupancy(), eps, n)
    ball_3n = ball(adj, window.center, 3 * n)
    parts_seen = [system.partition.part_of[x] for x in sorted(ball_3n)]
    if len(set(parts_seen)) != len(parts_seen):
        raise ValueError(
            "partition is not injective on the window ball; "
            f"a {3 * n}-sparse partition is required"
        )
    restricted, _ = restrict(ls, window.vertices)
    witness = ground(restricted)
    core = interior(adj, window.vertices, 2)
    part_of = system.partition.part_of
    part_ids = frozenset(part_of[x] for x in core)
    core_by_part = {part_of[x]: x for x in core}
    payload: list[int] = []
    for i in range(p):
        if i in part_ids:
            x = core_by_part[i]
            _, unused = used_unused(trace, x)
            payload.extend(unused)
        else:
            payload.extend(trace.tape.row(i, k))
    return TapeCode(part_ids, tuple(payload), witness, system.b)


def decode_tape(
    code: TapeCode,
    p: int,
    k: int,
    instance: tuple[VariableGraph, LocalRule] | None = None,
    partition: Partition | None = None,
) -> RandomTape:
    """Rebuild the tape a code came from.

    The witness alone determines the split: an interior part's leftover has
    length k minus the decoded sequence length of its (unique) vertex, any
    other part's leftover is a full stream, and the consumed prefix of an
    interior part is exactly the decoded sequence.
    """
    if instance is not None and instance[1].b != code.b:
        raise CodeCorruptionError("alphabet disagrees with the instance")
    if partition is not None and partition.part_count != p:
        raise CodeCorruptionError("partition size disagrees with p")
    if code.payload and (min(code.payload) < 0 or max(code.payload) >= code.b):
        raise CodeCorruptionError("payload digit outside the alphabet")
    if any(not 0 <= i < p for i in code.part_ids):
        raise CodeCorruptionError("part id outside 0..p-1")
    if code.witness is None:
        if code.part_ids:
            raise CodeCorruptionError("empty witness with nonempty part set")
        if len(code.payload) != p * k:
            raise CodeCorruptionError(
                f"payload length {len(code.payload)} != p*k = {p * k}"
            )
        digits = [code.payload[i * k : (i + 1) * k] for i in range(p)]
        return RandomTape.finite(code.b, digits)
    witness = code.witness
    seqs = asgn_seq(witness)
    vertex_of_part: dict[int, int] = {}
    for x in range(witness.graph.vertex_count):
        i = witness.part_of[x]
        if i in code.part_ids:
            if i in vertex_of_part:
                raise CodeCorruptionError(f"witness repeats part {i}")
            vertex_of_part[i] = x
    if set(vertex_of_part) != set(code.part_ids):
        raise CodeCorruptionError("witness does not cover every recorded part")
    lengths = []
    for i in range(p):
        if i in code.part_ids:
            used_len = len(seqs[vertex_of_part[i]])
            if used_len > k:
                raise CodeCorruptionError(f"part {i} decodes more than k digits")
            lengths.append(k - used_len)
        else:
            lengths.append(k)
    if sum(lengths) != len(code.payload):
        raise CodeCorruptionError(
            f"payload length {len(code.payload)} != expected {sum(lengths)}"
        )
    streams = []
    pos = 0
    for i in range(p):
        leftover = code.payload[pos : pos + lengths[i]]
        pos += lengths[i]
        if i in code.part_ids:
            streams.append(tuple(seqs[vertex_of_part[i]]) + tuple(leftover))
        else:
            streams.append(tuple(leftover))
    return RandomTape.finite(code.b, streams)
