"""The resampling engine: k-step and unbounded runs with limited randomness.

Every vertex in the same partition class reads the same base-b digit
stream; a vertex's personal resample counter indexes into that stream.
The independence function is greedy over a fixed vertex order, so a whole
run is a deterministic function of (instance, partition, order, f, tape).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import (
    LocalRule,
    Partition,
    VariableGraph,
    Word,
    greedy_mis,
    params,
    violating_set,
)

Reader = Callable[[Sequence[int]], Word]  # an assignment to the word one vertex reads


class TapeExhausted(Exception):
    """A finite tape was asked for a digit beyond its width."""


class RandomTape:
    """Source of base-b digits, one stream per partition class.

    Finite mode is an immutable p-by-k digit matrix.  Stream mode maps
    (seed, part, position) to a digit through a keyed hash with rejection
    sampling, so any digit is addressable without generating predecessors
    and the digits are uniform over 0..b-1.

    ``digit`` is the reference; the batch paths ``draw`` and ``row`` return
    exactly the digits ``digit`` gives, cell by cell.
    """

    def __init__(self, b: int, *, digits: tuple[tuple[int, ...], ...] | None = None,
                 seed: int | None = None):
        if b < 1:
            raise ValueError("alphabet size must be at least 1")
        if (digits is None) == (seed is None):
            raise ValueError("exactly one of digits/seed must be given")
        self.b = b
        self.digits = digits
        self.seed = seed
        # Reject the top sliver of the 64-bit range so digits are exactly uniform.
        self._limit = (1 << 64) - ((1 << 64) % b)
        self._hasher = None
        if seed is not None:
            key = seed.to_bytes(16, "big", signed=True)
            self._hasher = hashlib.blake2b(key=key, digest_size=8)
        if digits is not None:
            widths = {len(row) for row in digits}
            if len(widths) > 1:
                raise ValueError("finite tape streams must share one width")
            for row in digits:
                if row and (min(row) < 0 or max(row) >= b):
                    raise ValueError("finite tape digit outside alphabet")

    @classmethod
    def finite(cls, b: int, digits: Sequence[Sequence[int]]) -> "RandomTape":
        return cls(b, digits=tuple(tuple(row) for row in digits))

    @classmethod
    def stream(cls, b: int, seed: int) -> "RandomTape":
        return cls(b, seed=seed)

    @classmethod
    def finite_random(cls, b: int, parts: int, width: int, seed: int) -> "RandomTape":
        return cls.stream(b, seed).prefix(parts, width)

    def __reduce__(self):
        # A keyed hasher does not pickle; rebuild the tape from its definition.
        if self.is_finite:
            return RandomTape.finite, (self.b, self.digits)
        return RandomTape.stream, (self.b, self.seed)

    @property
    def is_finite(self) -> bool:
        return self.digits is not None

    @property
    def width(self) -> int | None:
        if self.digits is None:
            return None
        return len(self.digits[0]) if self.digits else 0

    @property
    def part_count(self) -> int | None:
        return len(self.digits) if self.digits is not None else None

    def digit(self, part: int, pos: int) -> int:
        if self.digits is not None:
            if part >= len(self.digits) or pos >= len(self.digits[part]):
                raise TapeExhausted(f"tape has no digit at part {part}, position {pos}")
            return self.digits[part][pos]
        if self.b == 1:
            return 0
        for attempt in itertools.count():
            h = self._hasher.copy()
            h.update(b"%d:%d:%d" % (part, pos, attempt))
            w = int.from_bytes(h.digest(), "big")
            if w < self._limit:
                return w % self.b

    def draw(self, cells: Iterable[tuple[int, int]]) -> list[int]:
        """The digits at the (part, position) cells, in order.

        Raises TapeExhausted at the first cell a finite tape lacks.  A stream
        hashes attempt 0 inline and leaves rejected cells to ``digit``.
        """
        if self.digits is not None:
            cells = list(cells)
            rows = self.digits
            try:
                return [rows[part][pos] for part, pos in cells]
            except IndexError:
                return [self.digit(part, pos) for part, pos in cells]
        b = self.b
        if b == 1:
            return [0 for _ in cells]
        copy, limit = self._hasher.copy, self._limit
        out = []
        for part, pos in cells:
            h = copy()
            h.update(b"%d:%d:0" % (part, pos))
            w = int.from_bytes(h.digest(), "big")
            out.append(w % b if w < limit else self.digit(part, pos))
        return out

    def row(self, part: int, width: int) -> tuple[int, ...]:
        """Digits 0..width-1 of stream ``part``."""
        if self.digits is not None and part < len(self.digits) and width <= len(self.digits[part]):
            return self.digits[part][:width]
        return tuple(self.draw([(part, pos) for pos in range(width)]))

    def prefix(self, parts: int, width: int) -> "RandomTape":
        """Materialize a finite p-by-k tape from this source."""
        return RandomTape.finite(self.b, [self.row(i, width) for i in range(parts)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RandomTape):
            return NotImplemented
        if self.is_finite and other.is_finite:
            return self.b == other.b and self.digits == other.digits
        return self.b == other.b and self.seed == other.seed

    def __repr__(self) -> str:
        if self.is_finite:
            return f"RandomTape(finite {self.part_count}x{self.width}, b={self.b})"
        return f"RandomTape(stream seed={self.seed}, b={self.b})"


class MtaSystem:
    """Everything a run depends on besides the initial assignment and tape."""

    def __init__(self, graph: VariableGraph, rule: LocalRule, partition: Partition,
                 order: Sequence[int]):
        if rule.vertex_count != graph.vertex_count:
            raise ValueError("rule does not cover the graph")
        if rule.word_lengths != tuple(map(len, graph.out_adj)):
            raise ValueError("rule word lengths disagree with the graph's out-degrees")
        if partition.vertex_count != graph.vertex_count:
            raise ValueError("partition does not cover the graph")
        if sorted(order) != list(range(graph.vertex_count)):
            raise ValueError("order must be a permutation of the vertices")
        self.graph = graph
        self.rule = rule
        self.rel = graph.rel
        self.partition = partition
        self.order = tuple(order)
        self._tables: tuple[dict[int, Reader], list[int] | None] | None = None

    @classmethod
    def build(cls, graph: VariableGraph, rule: LocalRule, partition: Partition,
              order: Sequence[int] | None = None) -> "MtaSystem":
        if order is None:
            order = range(graph.vertex_count)
        return cls(graph, rule, partition, order)

    @property
    def b(self) -> int:
        return self.rule.b

    @property
    def p(self) -> int:
        return self.partition.part_count

    def loop_tables(self) -> tuple[dict[int, Reader], list[int] | None]:
        """The resample loop's tables, built on the first run, not in ``build``.

        ``readers[x]``, for each support vertex x, maps an assignment to the
        word x reads.  Every reader pickles, so a system that has run still
        does.  ``rank`` maps a vertex to its position in the order; it is
        None for the identity order.
        """
        if self._tables is None:
            readers: dict[int, Reader] = {}
            for x in self.rule.support:
                var = self.graph.var(x)
                readers[x] = itemgetter(*var) if len(var) > 1 else _OneOrNoVariable(var)
            rank = None
            if self.order != tuple(range(len(self.order))):
                rank = [0] * len(self.order)
                for i, x in enumerate(self.order):
                    rank[x] = i
            self._tables = readers, rank
        return self._tables


class _OneOrNoVariable:
    """Reader of a word of length 0 or 1, where ``itemgetter`` would not
    return a tuple."""

    def __init__(self, var: Word):
        self.var = var

    def __call__(self, f: Sequence[int]) -> Word:
        return tuple(f[v] for v in self.var)


@dataclass(frozen=True)
class RunState:
    step: int
    assignment: tuple[int, ...]
    counters: tuple[int, ...]


@dataclass
class RunTrace:
    """What a run did: the initial assignment, each round's resample set and
    drawn digits (over its sorted targets), and the ending; ``states()`` replays the rest."""

    system: MtaSystem
    tape: RandomTape | None
    initial: tuple[int, ...]
    resampled: list[frozenset[int]] = field(default_factory=list)
    drawn: list[tuple[int, ...]] = field(default_factory=list)
    final: tuple[int, ...] = ()
    h_final: tuple[int, ...] = ()
    status: str = "ok"  # ok | satisfied | cap_exceeded | tape_exhausted

    @property
    def k(self) -> int:
        return len(self.resampled)

    @property
    def max_resamples(self) -> int:
        return max(self.h_final, default=0)

    def states(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(assignment, counters) before the first round and after each round."""
        assignment, counters = list(self.initial), [0] * len(self.initial)
        var = self.system.graph.out_adj
        state = tuple(assignment), tuple(counters)
        yield state
        for chosen, digits in zip(self.resampled, self.drawn):
            if digits:  # a round that drew nothing leaves the state as it was
                for v, d in zip(sorted([v for x in chosen for v in var[x]]), digits):
                    assignment[v] = d
                    counters[v] += 1
                state = tuple(assignment), tuple(counters)
            yield state

    @property
    def assignments(self) -> list[tuple[int, ...]]:
        return [a for a, _ in self.states()]

    @property
    def counters(self) -> list[tuple[int, ...]]:
        return [h for _, h in self.states()]

    def to_jsonl(self) -> str:
        lines = []
        after = itertools.islice(self.states(), 1, None)
        for j, (res, (_, counters)) in enumerate(zip(self.resampled, after)):
            digest = hashlib.sha256(repr(counters).encode()).hexdigest()[:16]
            lines.append(json.dumps(
                {"step": j, "resampled": sorted(res), "counters_digest": digest},
                separators=(",", ":"),
            ))
        return "\n".join(lines) + ("\n" if lines else "")


def step(system: MtaSystem, state: RunState, tape: RandomTape) -> tuple[RunState, frozenset[int]]:
    """One resampling round.

    Computes the violated set, picks its greedy maximal independent subset,
    and redraws every variable read by that subset from its part's stream at
    the variable's counter position.  Raises TapeExhausted before mutating
    anything if the tape is too short.
    """
    violated = violating_set(system.graph, system.rule, state.assignment)
    chosen = greedy_mis(system.rel.adj_noself, violated, system.order)
    if not chosen:
        return RunState(state.step + 1, state.assignment, state.counters), frozenset()
    targets = sorted({v for x in chosen for v in system.graph.var(x)})
    part_of = system.partition.part_of
    fresh = {v: tape.digit(part_of[v], state.counters[v]) for v in targets}
    assignment = list(state.assignment)
    counters = list(state.counters)
    for v in targets:
        assignment[v] = fresh[v]
        counters[v] += 1
    return RunState(state.step + 1, tuple(assignment), tuple(counters)), frozenset(chosen)


def _run(system: MtaSystem, f: Sequence[int], tape: RandomTape | None, *,
         max_steps: int, stop_when_satisfied: bool,
         draw: Callable[[list[tuple[int, int]]], Sequence[int]] | None = None) -> RunTrace:
    """The incremental form of repeated ``step``: same states, same digits.

    The violated set is computed once and then re-checked only at the
    support vertices sharing a variable with a resampled one; the greedy
    independent set walks the violated vertices in vertex-order rank.
    ``draw`` maps a round's (part, position) cells to digits (default ``tape.draw``).
    """
    graph = system.graph
    n = graph.vertex_count
    b = system.b
    assignment = list(f)
    if len(assignment) != n:
        raise ValueError("initial assignment has wrong length")
    if assignment and (min(assignment) < 0 or max(assignment) >= b):
        raise ValueError("initial assignment has digits outside the alphabet")
    if draw is None:
        draw = tape.draw
    counters = [0] * n
    trace = RunTrace(system, tape, tuple(assignment))
    part_of = system.partition.part_of
    var = graph.out_adj
    readers, rank = system.loop_tables()
    forbidden = system.rule.forbidden
    nbrs, adj_noself = system.rel.nbrs, system.rel.adj_noself

    violated = {x for x, read in readers.items() if read(assignment) in forbidden[x]}
    for _ in range(max_steps):
        if not violated:
            if stop_when_satisfied:
                break
            trace.resampled.append(frozenset())
            trace.drawn.append(())
            continue
        # Walking only the violated vertices, in rank order, picks the set a
        # walk over the whole vertex order picks.
        ranked = sorted(violated) if rank is None else sorted(violated, key=rank.__getitem__)
        chosen = greedy_mis(adj_noself, violated, ranked)
        # Chosen vertices share no variable, so the targets are distinct.
        targets = sorted([v for x in chosen for v in var[x]])
        try:
            fresh = draw([(part_of[v], counters[v]) for v in targets])
        except TapeExhausted:
            trace.status = "tape_exhausted"
            break
        for v, d in zip(targets, fresh):
            assignment[v] = d
            counters[v] += 1
        trace.resampled.append(frozenset(chosen))
        trace.drawn.append(tuple(fresh))
        # Only constraints reading a redrawn variable can change status.
        dirty = {y for x in chosen for y in nbrs[x] if y in readers}
        violated -= dirty
        for y in dirty:
            if readers[y](assignment) in forbidden[y]:
                violated.add(y)
    if stop_when_satisfied and trace.status == "ok":
        trace.status = "cap_exceeded" if violated else "satisfied"
    trace.final, trace.h_final = tuple(assignment), tuple(counters)
    return trace


def run_k(system: MtaSystem, f: Sequence[int], k: int, tape: RandomTape) -> RunTrace:
    """Exactly k rounds (no-op rounds included once the rule is satisfied).

    Extending the tape extends the trace: the first k states of a longer run
    with an extending tape coincide with this one.
    """
    return _run(system, f, tape, max_steps=k, stop_when_satisfied=False)


def run_until_satisfied(system: MtaSystem, f: Sequence[int], tape: RandomTape,
                        step_cap: int) -> RunTrace:
    """Run until nothing is violated, the cap is hit, or the tape runs out."""
    return _run(system, f, tape, max_steps=step_cap, stop_when_satisfied=True)


def classic_parallel_mta(system: MtaSystem, f: Sequence[int], seed: int,
                         step_cap: int) -> RunTrace:
    """Baseline: identical loop, but every redraw uses a fresh independent
    digit instead of the shared per-part streams."""
    rng, b = random.Random(seed), system.b
    return _run(system, f, None, max_steps=step_cap, stop_when_satisfied=True,
                draw=lambda cells: [rng.randrange(b) for _ in cells])


def used_unused(trace: RunTrace, x: int) -> tuple[Word, Word]:
    """Split stream pi(x) of a finite-length run into the consumed prefix
    (the digits the run read at x) and the untouched suffix up to k-1."""
    if trace.tape is None:
        raise ValueError("trace has no tape (classic baseline run)")
    part = trace.system.partition.part_of[x]
    h = trace.h_final[x]
    digits = trace.tape.row(part, trace.k)
    return digits[:h], digits[h:]


def pad_uniform(system: MtaSystem) -> tuple[MtaSystem, int]:
    """Attach dummy variables so every support vertex reads exactly D variables.

    Dummy (x, i) occupies slot i of x's padded var list; forbidden words are
    extended with every digit combination on the dummy slots, so membership
    depends only on the original coordinates.  The partition gains fresh
    parts indexed by (original part of x, slot), and the vertex order keeps
    the originals first.  Returns the padded system and the original vertex
    count; a run on the padded system consumes streams 0..p-1 exactly like
    the original run, so per-original-vertex resample counts agree for any
    shared tape prefix.
    """
    graph, rule = system.graph, system.rule
    n = graph.vertex_count
    d_max = params(graph, rule).d
    support = set(rule.support)
    out_adj = [list(row) for row in graph.out_adj]
    forbidden: list[frozenset[Word]] = list(rule.forbidden)
    p = system.partition.part_count
    part_of = list(system.partition.part_of)
    next_id = n
    for x in sorted(support):
        deficit = d_max - len(graph.var(x))
        if deficit <= 0:
            continue
        suffixes = list(itertools.product(range(rule.b), repeat=deficit))
        forbidden[x] = frozenset(w + s for w in rule.forbidden[x] for s in suffixes)
        for slot in range(len(graph.var(x)), d_max):
            out_adj[x].append(next_id)
            out_adj.append([])
            forbidden.append(frozenset())
            part_of.append(p + slot * p + system.partition.part_of[x])
            next_id += 1
    padded_graph = VariableGraph(out_adj)
    padded_rule = LocalRule(rule.b, forbidden, [len(row) for row in out_adj])
    padded_partition = Partition(p * (d_max + 1) if next_id > n else p, part_of)
    order = list(system.order) + list(range(n, next_id))
    return MtaSystem.build(padded_graph, padded_rule, padded_partition, order), n
