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

import functools
import math
from fractions import Fraction
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from .engine import RandomTape, RunTrace, used_unused
from .graphs import (
    Adjacency,
    LocalRule,
    SymAdj,
    VariableGraph,
    Word,
    _distances,
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


class LandscapeType(NamedTuple):
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
        return self.n2 == other.n2 and all(a <= b for a, b in zip(self, other))


class DecoratedLandscape:
    """Forest on the canvas of a variable graph plus its decoration.  The
    forest's vertices ``verts`` are the keys of ``prev``, which erases one
    forbidden word at each of them."""

    def __init__(
        self,
        graph: VariableGraph,
        rule: LocalRule,
        parent: dict[ForestVertex, ForestVertex],
        prev: dict[ForestVertex, Word],
        final: Sequence[int],
        part_of: Sequence[int],
    ):
        self.graph = graph
        self.rule = rule
        self.parent = dict(parent)
        self.prev = dict(prev)
        self.verts = frozenset(self.prev)
        self.final = tuple(final)
        self.part_of = tuple(part_of)
        self.validate()

    # -- structural invariants -------------------------------------------

    def validate(self) -> None:
        n, b, rel = self.graph.vertex_count, self.rule.b, self.graph.rel
        if len(self.final) != n or len(self.part_of) != n:
            raise InternalConsistencyError("decoration length disagrees with graph")
        if self.final and (min(self.final) < 0 or max(self.final) >= b):
            raise InternalConsistencyError("final assignment outside alphabet")
        for v in self.verts:
            base, level = v
            if not (0 <= base < n and level >= 0):
                raise InternalConsistencyError(f"forest vertex {v} outside the canvas")
        if set(self.parent) - self.verts:
            raise InternalConsistencyError("parent map names a vertex outside the forest")
        for child, par in self.parent.items():
            if par not in self.verts:
                raise InternalConsistencyError(f"parent {par} of {child} missing")
            if par[1] != child[1] - 1 or child[0] not in rel[par[0]]:
                raise InternalConsistencyError(f"edge {par} -> {child} is not a canvas edge")
        by_level: dict[int, list[int]] = {}
        for base, level in sorted(self.verts):  # sorted: the vertex or pair named depends on the landscape alone
            if not rel[base]:  # no self-loop: its copies are never linked, so grounding could not merge them
                raise InternalConsistencyError(f"forest vertex {(base, level)} reads nothing")
            by_level.setdefault(level, []).append(base)
        for level, bases in sorted(by_level.items()):
            # The first adjacent pair (bases[i], bases[j]), i < j, in (i, j) order.
            rank = {x: i for i, x in enumerate(bases)}
            for i, x in enumerate(bases):
                later = [rank[y] for y in rel[x] if rank.get(y, -1) > i]
                if later:
                    raise InternalConsistencyError(
                        f"level {level} holds dependency-adjacent bases {x}, {bases[min(later)]}"
                    )
        for v, word in self.prev.items():
            base = v[0]
            if len(word) != len(self.graph.var(base)):
                raise InternalConsistencyError(f"prev word at {v} has wrong length")
            if word and (min(word) < 0 or max(word) >= b):
                raise InternalConsistencyError(f"prev word at {v} outside alphabet")
            if self.rule.forbidden[base] and word not in self.rule.forbidden[base]:
                raise InternalConsistencyError(f"prev word at {v} is not forbidden")

    # -- shape helpers -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.verts

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

    def _replace(self, parent=None, prev=None) -> "DecoratedLandscape":
        return DecoratedLandscape(
            self.graph,
            self.rule,
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


def canvas_sources(rel: Adjacency, verts: Container[ForestVertex], v: ForestVertex) -> list[ForestVertex]:
    """The members of ``verts`` with a canvas edge into v, in label order
    (none when v is at level 0)."""
    base, level = v
    if level == 0:
        return []
    return [(y, level - 1) for y in rel[base] if (y, level - 1) in verts]


# ---------------------------------------------------------------------------
# Extraction from run traces
# ---------------------------------------------------------------------------


def extract_landscape(trace: RunTrace) -> DecoratedLandscape:
    """Level i of the forest is the step-i resample set; the parent of a
    level-(i+1) vertex is the dependency-adjacent level-i vertex with the
    least base.  Prev records the violated word each resample erased."""
    system = trace.system
    parent: dict[ForestVertex, ForestVertex] = {}
    prev: dict[ForestVertex, Word] = {}
    for i, (resampled, (assignment, _)) in enumerate(zip(trace.resampled, trace.states())):
        for x in resampled:
            v = (x, i)
            prev[v] = tuple(assignment[u] for u in system.graph.var(x))
            if i > 0:
                sources = canvas_sources(system.graph.rel, prev, v)  # prev's keys: the forest so far
                if not sources:
                    raise InternalConsistencyError(
                        f"resampled vertex {x} at step {i} has no adjacent "
                        f"predecessor; the previous resample set was not maximal"
                    )
                parent[v] = min(sources)
    return DecoratedLandscape(
        system.graph, system.rule, parent, prev, trace.final,
        system.partition.part_of,
    )


# ---------------------------------------------------------------------------
# Assignment decoding
# ---------------------------------------------------------------------------


def asgn_seq(ls: DecoratedLandscape) -> list[Word]:
    """Per-vertex digit sequences read off the decoration.

    A level that reads x consumed the value x holds until the next level
    that reads x, and that level's prev word records it; after the last
    such level x keeps its final value.  So Seq(x) is x's prev digits at
    its reading levels except the lowest, then ``final[x]`` (empty when no
    level reads x).  Separation, which ``validate`` enforces, puts at most
    one reader of x on each level.
    """
    reads: dict[int, list[tuple[int, int]]] = {}  # x -> (level, prev digit) per reader
    for (base, level), word in ls.prev.items():
        for x, digit in zip(ls.graph.var(base), word):
            reads.setdefault(x, []).append((level, digit))
    seqs: list[Word] = [()] * ls.graph.vertex_count
    for x, pairs in reads.items():
        pairs.sort()
        seqs[x] = tuple([digit for _, digit in pairs[1:]]) + (ls.final[x],)
    return seqs


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------


class _Canvas:
    """The graph side of the restriction of (graph, rule) to ``keep``, the
    sorted kept vertices: the new id of each kept vertex, the positions of
    var(x) that stay, and the restricted graph and rule.  ``core`` is the
    kept set's interior(., 2) in the whole graph, found on first use."""

    def __init__(self, graph: VariableGraph, rule: LocalRule, keep: tuple[int, ...]):
        self.whole, self.whole_rule, self.keep = graph, rule, keep
        new_id = self.new_id = {x: i for i, x in enumerate(keep)}
        out_adj = []
        kept_positions: list[list[int]] = []
        for x in keep:
            row, positions = [], []
            for pos, y in enumerate(graph.var(x)):
                if y in new_id:
                    row.append(new_id[y])
                    positions.append(pos)
            out_adj.append(tuple(row))
            kept_positions.append(positions)
        self.kept_positions = kept_positions
        in_adj = [tuple(new_id[y] for y in graph.cl(x) if y in new_id) for x in keep]
        self.graph = VariableGraph(out_adj, in_adj)
        forbidden = [
            rule.forbidden[x] if len(out_adj[i]) == len(graph.var(x)) else frozenset()
            for i, x in enumerate(keep)
        ]
        self.rule = LocalRule(rule.b, forbidden, [len(row) for row in out_adj])

    @functools.cached_property
    def core(self) -> set[int]:
        return interior(self.whole.sym_adj, self.keep, 2)


def _canvas(graph: VariableGraph, rule: LocalRule, keep: tuple[int, ...]) -> _Canvas:
    """The canvas of ``keep``, kept by the graph; rebuilt when another rule comes."""
    canvas = graph.canvases.get(keep)
    if canvas is None or canvas.whole_rule is not rule:
        canvas = graph.canvases[keep] = _Canvas(graph, rule, keep)
    return canvas


def restrict(ls: DecoratedLandscape, vertices: Iterable[int]) -> tuple[DecoratedLandscape, tuple[int, ...]]:
    """Restriction to the induced subgraph on ``vertices``.

    The rule is relaxed to all-allowed wherever the var list shrank; forest
    vertices whose restricted var list is empty constrain nothing and are
    dropped; surviving forest edges must still be canvas edges of the
    restricted graph.  Returns the landscape and the original vertex id of
    each new vertex.  The restricted graph and rule come from ``_canvas``.
    """
    keep = tuple(sorted(set(vertices)))
    if keep and (keep[0] < 0 or keep[-1] >= ls.graph.vertex_count):
        raise ValueError("restriction set mentions unknown vertices")
    if len(keep) == ls.graph.vertex_count:
        return ls, keep
    canvas = _canvas(ls.graph, ls.rule, keep)
    new_id, kept_positions, graph = canvas.new_id, canvas.kept_positions, canvas.graph
    prev = {}
    for (base, level), word in ls.prev.items():
        i = new_id.get(base)
        if i is None or not kept_positions[i]:
            continue  # outside, or reads nothing here: carries no decoding information
        prev[i, level] = tuple(word[pos] for pos in kept_positions[i])
    parent = {}
    rel = graph.rel
    for child, par in ls.parent.items():
        if child[0] in new_id and par[0] in new_id:
            c = (new_id[child[0]], child[1])
            q = (new_id[par[0]], par[1])
            if c in prev and q in prev and c[0] in rel[q[0]]:
                parent[c] = q
    final = tuple(ls.final[x] for x in keep)
    part_of = tuple(ls.part_of[x] for x in keep)
    return DecoratedLandscape(graph, canvas.rule, parent, prev, final, part_of), keep


# ---------------------------------------------------------------------------
# Pushes, rebranchings, joinings, grounding
# ---------------------------------------------------------------------------


def _cross_edges_into(ls: DecoratedLandscape, tree: frozenset[ForestVertex]) -> Iterator[tuple[ForestVertex, ForestVertex]]:
    """Canvas edges (o, v) with o in another tree and v in this tree."""
    for v in sorted(tree):
        for o in canvas_sources(ls.graph.rel, ls.verts, v):
            if o not in tree:
                yield (o, v)


def is_landscape_pushable(ls: DecoratedLandscape) -> bool:
    return bool(ls.verts) and all(level > 0 for _, level in ls.verts)


def _push(ls: DecoratedLandscape, moved: Container[ForestVertex]) -> DecoratedLandscape:
    """Shift the forest vertices in ``moved`` down one level."""
    down = lambda v: (v[0], v[1] - 1) if v in moved else v
    prev = {down(v): w for v, w in ls.prev.items()}
    if len(prev) != len(ls.prev):
        raise InternalConsistencyError("push collided with an existing vertex")
    return ls._replace(
        parent={down(c): down(p) for c, p in ls.parent.items()},
        prev=prev,
    )


def push_all(ls: DecoratedLandscape) -> DecoratedLandscape:
    """Shift the whole forest down one level."""
    if not is_landscape_pushable(ls):
        raise LandscapeError("push_all: some vertex is already at level 0")
    return _push(ls, ls.verts)


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
    return _push(ls, tree)


def rebranch(ls: DecoratedLandscape, triple: tuple[ForestVertex, ForestVertex, ForestVertex]) -> DecoratedLandscape:
    x, y, z = triple
    if ls.parent.get(z) != x:
        raise LandscapeError("rebranch: (x, z) is not a forest edge")
    if y not in ls.verts or y == x or y == z:
        raise LandscapeError("rebranch: y is not a distinct forest vertex")
    if y[1] != z[1] - 1 or z[0] not in ls.graph.rel[y[0]]:
        raise LandscapeError("rebranch: (y, z) is not a canvas edge")
    parent = dict(ls.parent)
    parent[z] = y
    return ls._replace(parent=parent)


def joinable_pairs(ls: DecoratedLandscape) -> Iterator[tuple[ForestVertex, ForestVertex]]:
    """(y, z): z is a root, (y, z) a canvas edge from a forest vertex."""
    for z in ls.roots():
        for y in canvas_sources(ls.graph.rel, ls.verts, z):
            yield (y, z)


def join(ls: DecoratedLandscape, pair: tuple[ForestVertex, ForestVertex]) -> DecoratedLandscape:
    y, z = pair
    if z in ls.parent or z not in ls.verts:
        raise LandscapeError("join: z is not a root")
    if y not in ls.verts or y[1] != z[1] - 1 or z[0] not in ls.graph.rel[y[0]]:
        raise LandscapeError("join: (y, z) is not a canvas edge from a forest vertex")
    parent = dict(ls.parent)
    parent[z] = y
    return ls._replace(parent=parent)


def ground(ls: DecoratedLandscape) -> tuple[DecoratedLandscape, list[tuple]]:
    """An equivalent landscape with every root at level 0, and the operations
    that made it.

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
            return current, ops
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


class Window(NamedTuple):
    center: int
    radius: int
    vertices: frozenset[int]


class WindowError(ValueError):
    """The growth precondition failed at the weight's argmax."""


EPS = Fraction(1, 2)  # the growth rate 1 + EPS at which encode_tape's windows stall


def default_window_params(adj: SymAdj, eps: Fraction = EPS) -> int:
    """Smallest n >= 1 with max_x |B(x, 3n)| < (1 + eps)^n for this graph.

    Requires eps > 0.  Then it exists on every finite graph: once
    (1 + eps)^n exceeds the vertex count every ball is small enough.
    ``adj`` is the graph's ``SymAdj``.  The power (1 + eps)^n is kept exact; at
    ``EPS`` and within the load caps n is at most 33.  On a ``transitive``
    graph every ball B(x, 3n) is an automorphic image of the one around the
    least vertex of x's component, so that one ball per component decides n.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = 1 + eps
    components = adj.components
    n, power = 1, base
    while True:
        # A ball fails exactly when it has need = ceil((1 + eps)^n) vertices.
        need = math.ceil(power)
        # A component smaller than the bound holds no failing ball; it stays
        # out of every later search, as the bound only grows.
        components = [(members, reach) for members, reach in components if len(members) >= need]
        failing = next(
            ((members, reach) for members, reach in components
             for x in (members[:1] if adj.transitive else members)
             if len(ball(adj, x, 3 * n, need)) >= need),
            None,
        )
        if failing is None:
            return n
        members, reach = failing
        if reach > 3 * n:
            n, power = n + 1, power * base
            continue
        # B(least vertex, 3n) is the whole failing component, so it fails
        # for every larger n while (1 + eps)^n <= the component's size.
        while power <= len(members):
            n, power = n + 1, power * base


Ball = tuple[tuple[int, int], ...]  # (vertex, distance) pairs in breadth-first order


def _ball_pairs(adj: Adjacency, y: int, r: int) -> Ball:
    """B(y, r) with each vertex's distance from y, in breadth-first order."""
    return tuple(_distances(adj, [y], r).items())


def find_window(adj: SymAdj, weights: Sequence[int], eps: Fraction, n: int) -> Window:
    """Ball around the argmax whose weight stalls: the least r in 3..3n with
    sum over B(y, r) < (1 + eps) * sum over B(y, r - 3).

    Requires |B(y, 3n)| < (1 + eps)^n at the argmax y; if no radius works
    the weight sum would have grown past that bound, so the scan cannot
    fail under the precondition.  ``adj`` is the graph's ``SymAdj``.  The
    work is O(|B(y, 3n)|): the ball comes from ``adj.balls`` or a search
    that stops at radius 3n, and the scan stops 3 past the ball's
    eccentricity e, as every radius from e + 3 on compares the same two sums.
    """
    if not any(weights):
        raise ValueError("weight function is identically zero")
    best = weights.index(max(weights))  # the least vertex of largest weight
    radius_max = 3 * n
    balls = adj.balls
    members = balls.get((best, n)) or _ball_pairs(adj, best, radius_max)
    base = 1 + eps
    num, den = base.numerator, base.denominator
    if num ** n <= len(members) * den ** n:
        raise WindowError(
            f"growth precondition fails: |B({best}, {radius_max})| = {len(members)} "
            f">= (1 + {eps})^{n}"
        )
    balls[best, n] = members
    top = min(radius_max, members[-1][1] + 3)
    sums = [0] * (top + 1)
    for x, d in members:
        sums[d] += weights[x]
    for r in range(1, top + 1):
        sums[r] += sums[r - 1]
    for r in range(3, top + 1):
        if sums[r] * den < num * sums[r - 3]:
            return Window(best, r, frozenset([x for x, d in members if d <= r]))
    raise WindowError(
        f"no radius in 3..{radius_max} works at {best}; "
        f"the graph violates the assumed growth"
    )


# ---------------------------------------------------------------------------
# The injective tape encoding
# ---------------------------------------------------------------------------


class TapeCode(NamedTuple):
    """Image of one tape: touched parts, leftover digits, grounded witness."""

    part_ids: frozenset[int]
    payload: Word
    witness: DecoratedLandscape | None
    b: int


def encode_tape(trace: RunTrace, n: int) -> TapeCode:
    """Compress a finite run's tape into (parts, leftover digits, witness).

    With an empty landscape no part is recorded and the payload is the
    concatenation of all streams.  Otherwise a window F around the column
    of maximal occupancy is found, ``n`` being a window parameter at ``EPS``
    (see ``default_window_params``), the landscape is restricted to F and
    grounded, the parts of the window interior F_-2 are recorded, and the
    payload concatenates the per-part leftovers: the unused suffix for
    interior parts, the whole stream for the rest.  The partition must
    separate the window's ball, so each interior vertex is recoverable
    from its part alone.
    """
    system = trace.system
    part_of = system.partition.part_of
    ls = extract_landscape(trace)
    witness = None
    core_by_part: dict[int, int] = {}
    if not ls.is_empty:
        adj = system.graph.sym_adj
        window = find_window(adj, ls.column_occupancy(), EPS, n)
        ball_3n = adj.balls[window.center, n]  # kept there by find_window
        if len({part_of[x] for x, _ in ball_3n}) != len(ball_3n):
            raise ValueError(
                "partition is not injective on the window ball; "
                f"a {3 * n}-sparse partition is required"
            )
        restricted, keep = restrict(ls, window.vertices)
        witness, _ = ground(restricted)
        core_by_part = {part_of[x]: x for x in _canvas(ls.graph, ls.rule, keep).core}
    payload: list[int] = []
    for i in range(system.partition.part_count):
        if i in core_by_part:
            payload.extend(used_unused(trace, core_by_part[i])[1])
        else:
            payload.extend(trace.tape.row(i, trace.k))
    return TapeCode(frozenset(core_by_part), tuple(payload), witness, system.b)


def decode_tape(code: TapeCode, p: int, k: int) -> RandomTape:
    """Rebuild the tape a code came from.

    The witness alone determines the split: each recorded part has a
    (unique) witness vertex, whose decoded sequence is the part's used
    prefix; every other part, and every part of an empty witness, used
    nothing.  Each part's stream is its used prefix followed by the next
    k minus that many payload digits.
    """
    if code.payload and (min(code.payload) < 0 or max(code.payload) >= code.b):
        raise CodeCorruptionError("payload digit outside the alphabet")
    if any(not 0 <= i < p for i in code.part_ids):
        raise CodeCorruptionError("part id outside 0..p-1")
    used_by_part: dict[int, Word] = {}
    if code.witness is not None:
        for x, seq in enumerate(asgn_seq(code.witness)):
            i = code.witness.part_of[x]
            if i in code.part_ids:
                if i in used_by_part:
                    raise CodeCorruptionError(f"witness repeats part {i}")
                used_by_part[i] = seq
    if used_by_part.keys() != code.part_ids:
        raise CodeCorruptionError("witness does not cover every recorded part")
    streams = []
    pos = 0
    for i in range(p):
        used = used_by_part.get(i, ())
        if len(used) > k:
            raise CodeCorruptionError(f"part {i} decodes more than k digits")
        end = pos + k - len(used)
        streams.append(used + tuple(code.payload[pos:end]))
        pos = end
    if pos != len(code.payload):
        raise CodeCorruptionError(f"payload length {len(code.payload)} != expected {pos}")
    return RandomTape.finite(code.b, streams)
