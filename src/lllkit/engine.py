"""The resampling engine: k-step and unbounded runs with limited randomness.

Every vertex in the same partition class reads the same base-b digit
stream; a vertex's personal resample counter indexes into that stream.
The independence function is greedy over a fixed vertex order, so a whole
run is a deterministic function of (instance, partition, order, f, tape).
Round 1 reads only f, so a system plans it once for the last f it started
from, and runs from that f with any tape share the plan.
"""

from __future__ import annotations

import functools
import itertools
import json
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from _blake2 import blake2b  # the object hashlib.blake2b is, without hashlib's OpenSSL

from .graphs import (
    LocalRule,
    Partition,
    VariableGraph,
    Word,
    greedy_mis,
    params,
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
            self._hasher = blake2b(key=key, digest_size=8)
        if digits is not None:
            if len(set(map(len, digits))) > 1:
                raise ValueError("finite tape streams must share one width")
            values = set(itertools.chain.from_iterable(digits))
            if min(values, default=0) < 0 or max(values, default=0) >= b:
                raise ValueError("finite tape digit outside alphabet")

    @classmethod
    def finite(cls, b: int, digits: Sequence[Sequence[int]]) -> "RandomTape":
        return cls(b, digits=tuple(tuple(row) for row in digits))

    @classmethod
    def stream(cls, b: int, seed: int) -> "RandomTape":
        return cls(b, seed=seed)

    @classmethod
    def finite_random(cls, b: int, parts: int, width: int, seed: int, *,
                      cells: "Cells | None" = None) -> "RandomTape":
        """The first ``parts`` streams of ``stream(b, seed)``, each cut to
        ``width`` digits, as a finite tape.

        ``cells``, if given, must be the tape's (part, position) cells in row
        order; a ``Cells`` shared by several calls encodes its hash messages
        once for all of them.
        """
        if cells is None:
            cells = [(i, pos) for i in range(parts) for pos in range(width)]
        drawn = cls.stream(b, seed).draw(cells)
        return cls(b, digits=tuple(tuple(drawn[i * width:(i + 1) * width]) for i in range(parts)))

    def digit(self, part: int, pos: int) -> int:
        if self.digits is not None:
            if part >= len(self.digits) or pos >= len(self.digits[part]):
                raise TapeExhausted(f"tape has no digit at part {part}, position {pos}")
            return self.digits[part][pos]
        for attempt in itertools.count():
            h = self._hasher.copy()
            h.update(b"%d:%d:%d" % (part, pos, attempt))
            w = int.from_bytes(h.digest(), "big")
            if w < self._limit:
                return w % self.b

    def draw(self, cells: Iterable[tuple[int, int]]) -> list[int]:
        """The digits at the (part, position) cells, in order.

        Raises TapeExhausted at the first cell a finite tape lacks.  A stream
        hashes attempt 0 of each cell, reading the messages a ``Cells`` keeps
        and encoding any other cells inline, and leaves rejected cells to
        ``digit``.
        """
        if self.digits is not None:
            cells = list(cells)
            rows = self.digits
            try:
                return [rows[part][pos] for part, pos in cells]
            except IndexError:
                return [self.digit(part, pos) for part, pos in cells]
        b = self.b
        copy = self._hasher.copy
        messages = cells.messages if isinstance(cells, Cells) else map(_ATTEMPT_0.__mod__, cells)
        out = []
        if 256 % b == 0:
            # b divides 2^64, so nothing is rejected, and the digit w % b of the
            # big-endian digest w is the low bits of its last byte.
            mask = b - 1
            for m in messages:
                h = copy()
                h.update(m)
                out.append(h.digest()[-1] & mask)
            return out
        limit = self._limit
        # A rejected cell goes to ``digit``, its part and position read back off m.
        for m in messages:
            h = copy()
            h.update(m)
            w = int.from_bytes(h.digest(), "big")
            out.append(w % b if w < limit else self.digit(*map(int, m.split(b":")[:2])))
        return out

    def row(self, part: int, width: int) -> tuple[int, ...]:
        """Digits 0..width-1 of stream ``part``."""
        if self.digits is not None and part < len(self.digits) and width <= len(self.digits[part]):
            return self.digits[part][:width]
        return tuple(self.draw([(part, pos) for pos in range(width)]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RandomTape):
            return NotImplemented
        return (self.b, self.digits, self.seed) == (other.b, other.digits, other.seed)

    def __repr__(self) -> str:
        if self.digits is not None:
            width = len(self.digits[0]) if self.digits else 0
            return f"RandomTape(finite {len(self.digits)}x{width}, b={self.b})"
        return f"RandomTape(stream seed={self.seed}, b={self.b})"


_ATTEMPT_0 = b"%d:%d:0"  # the hash message of a (part, position) cell's first attempt


class Cells(tuple):
    """A round plan's (part, position) tape cells: a tuple that keeps the
    attempt-0 hash messages of its cells, encoded on the first stream draw
    and alive as long as it is, so every run sharing the plan encodes them
    once."""

    @functools.cached_property
    def messages(self) -> tuple[bytes, ...]:
        return tuple(map(_ATTEMPT_0.__mod__, self))


class RoundPlan(NamedTuple):
    """What one round does: the sorted constraints it resamples, the sorted
    variables it redraws, their (part, position) tape cells, and the
    constraints to re-check afterwards."""

    chosen: tuple[int, ...]
    targets: tuple[int, ...]
    cells: Cells
    dirty: frozenset[int]


class MtaSystem:
    """Everything a run depends on besides the initial assignment and tape.

    ``readers[x]``, for each support vertex x, maps an assignment to the
    word x reads.  ``rank`` maps a vertex to its position in the order; it
    is None for the identity order.
    """

    def __init__(self, graph: VariableGraph, rule: LocalRule, partition: Partition,
                 order: Sequence[int]):
        if rule.vertex_count != graph.vertex_count:
            raise ValueError("rule does not cover the graph")
        if rule.word_lengths != tuple(map(len, graph.out_adj)):
            raise ValueError("rule word lengths disagree with the graph's out-degrees")
        if partition.vertex_count != graph.vertex_count:
            raise ValueError("partition does not cover the graph")
        n = graph.vertex_count
        # ``build``'s default order, range(n), is a permutation without a check.
        if order != range(n) and (any(type(x) is not int for x in order) or sorted(order) != list(range(n))):
            raise ValueError("order must be a permutation of the vertices")
        self.graph = graph
        self.rule = rule
        graph.rel  # the dependency rows every round reads: built in set-up, not in the first round
        self.partition = partition
        self.order = tuple(order)
        self.readers: dict[int, Reader] = {}
        for x in rule.support:
            var = graph.var(x)
            # itemgetter returns no tuple for a word of length 0 or 1
            self.readers[x] = itemgetter(*var) if len(var) > 1 else lambda f, var=var: tuple(f[v] for v in var)
        identity = self.order == tuple(range(n))
        self.rank: list[int] | None = None if identity else sorted(range(n), key=self.order.__getitem__)
        self._start: tuple[tuple[int, ...], frozenset[int], RoundPlan | None] | None = None

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

    def start(self, f: Sequence[int]) -> tuple[frozenset[int], RoundPlan | None]:
        """The violated set at f and, if it is nonempty, the plan of round 1.

        Round 1 reads only f and all-zero counters, so every run from f
        shares it whatever the tape.  The start for the last f asked for is
        kept (compared by value); it is immutable, as traces share it.
        Raises ValueError if f is not an assignment of this system.
        """
        f = tuple(f)
        if self._start is None or self._start[0] != f:
            if len(f) != self.graph.vertex_count:
                raise ValueError("initial assignment has wrong length")
            if f and (min(f) < 0 or max(f) >= self.b):
                raise ValueError("initial assignment has digits outside the alphabet")
            forbidden = self.rule.forbidden
            violated = frozenset([x for x, read in self.readers.items() if read(f) in forbidden[x]])
            plan = _plan_round(self, violated, (0,) * len(f)) if violated else None
            self._start = f, violated, plan
        return self._start[1], self._start[2]


class RunTrace:
    """What a run did: the initial assignment, each round's sorted tuple of
    resampled constraints and the ending; ``states()`` replays the rest off the tape."""

    def __init__(self, system: MtaSystem, tape: RandomTape, initial: tuple[int, ...]):
        self.system, self.tape, self.initial = system, tape, initial
        self.resampled: list[tuple[int, ...]] = []
        self.final: tuple[int, ...] = ()
        self.h_final: tuple[int, ...] = ()
        self.status = "ok"  # ok | satisfied | cap_exceeded | tape_exhausted

    @property
    def k(self) -> int:
        return len(self.resampled)

    @property
    def max_resamples(self) -> int:
        return max(self.h_final, default=0)

    def states(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(assignment, counters) before the first round and after each round."""
        assignment, counters = list(self.initial), [0] * len(self.initial)
        state = tuple(assignment), tuple(counters)
        yield state
        for chosen in self.resampled:
            if chosen:  # a round that resampled nothing leaves the state as it was
                targets, cells = _round_cells(self.system, chosen, counters)
                for v, d in zip(targets, self.tape.draw(cells)):
                    assignment[v] = d
                    counters[v] += 1
                state = tuple(assignment), tuple(counters)
            yield state

    @property
    def assignments(self) -> list[tuple[int, ...]]:
        return [a for a, _ in self.states()]

    def to_jsonl(self) -> str:
        import hashlib  # only a trace file needs sha256; kept off the import path

        lines = []
        after = itertools.islice(self.states(), 1, None)
        for j, (res, (_, counters)) in enumerate(zip(self.resampled, after)):
            digest = hashlib.sha256(repr(counters).encode()).hexdigest()[:16]
            lines.append(json.dumps(
                {"step": j, "resampled": list(res), "counters_digest": digest},
                separators=(",", ":"),
            ))
        return "\n".join(lines) + ("\n" if lines else "")


def _plan_round(system: MtaSystem, violated: Collection[int], counters: Sequence[int]) -> RoundPlan:
    """The round that resamples the greedy independent subset of the
    nonempty ``violated`` at these counters.

    Walking only the violated vertices, in vertex-order rank, picks the set
    a walk over the whole vertex order picks.  The dependency rows are read
    with their self-loops, which block nothing the walk has yet to visit.
    """
    readers, rank = system.readers, system.rank
    ranked = sorted(violated, key=None if rank is None else rank.__getitem__)
    chosen = tuple(sorted(greedy_mis(system.graph.rel, violated, ranked)))
    targets, cells = _round_cells(system, chosen, counters)
    # Only constraints reading a redrawn variable can change status.
    dirty = frozenset([y for x in chosen for y in system.graph.rel[x] if y in readers])
    return RoundPlan(chosen, targets, cells, dirty)


def _round_cells(system: MtaSystem, chosen: Collection[int], counters: Sequence[int]) -> tuple[tuple[int, ...], Cells]:
    """The sorted variables a round resampling ``chosen`` redraws, and their tape cells at ``counters``."""
    var, part_of = system.graph.out_adj, system.partition.part_of
    # Chosen vertices share no variable, so the targets are distinct.
    targets = tuple(sorted([v for x in chosen for v in var[x]]))
    return targets, Cells([(part_of[v], counters[v]) for v in targets])


def _run(system: MtaSystem, f: Sequence[int], tape: RandomTape, *,
         max_steps: int, stop_when_satisfied: bool) -> RunTrace:
    """The incremental form of repeated ``step`` (tests/conftest.py): same states, same digits.

    Round 1 comes from ``system.start``.  After it the violated set is
    re-checked only at the support vertices sharing a variable with a
    resampled one, and each later round is planned by ``_plan_round``.
    """
    initial = tuple(f)
    violated, plan = system.start(initial)
    violated = set(violated)
    assignment, counters = list(initial), [0] * len(initial)
    trace = RunTrace(system, tape, initial)
    readers, forbidden = system.readers, system.rule.forbidden
    for _ in range(max_steps):
        if not violated:
            if stop_when_satisfied:
                break
            trace.resampled.append(())
            continue
        chosen, targets, cells, dirty = plan or _plan_round(system, violated, counters)
        plan = None
        try:
            fresh = tape.draw(cells)
        except TapeExhausted:
            trace.status = "tape_exhausted"
            break
        for v, d in zip(targets, fresh):
            assignment[v] = d
            counters[v] += 1
        trace.resampled.append(chosen)
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


def used_unused(trace: RunTrace, x: int) -> tuple[Word, Word]:
    """Split stream pi(x) of a finite-length run into the consumed prefix
    (the digits the run read at x) and the untouched suffix up to k-1."""
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
