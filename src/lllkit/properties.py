"""The paper's finite claims as properties, shared by ``lllkit verify`` and the tests.

A property checks an iterable of cases in order (a lazy generator draws each
case just before it is checked) and returns ``(checks made, first
counterexample or None)``; a counterexample is a JSON-ready dict whose
``suite`` names the property.  ``fuzz_runs`` is the one fuzz generator of
runs, ``bundled_runs`` the one source of runs on the bundled systems, and
``random_abstract_landscape`` draws the landscapes no run makes.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Iterator, NamedTuple

from . import counting, engine, graphs, landscapes
from .engine import Cells, MtaSystem, RandomTape, RunTrace
from .instances import random_instance
from .landscapes import DecoratedLandscape


class Run(NamedTuple):
    """k rounds of ``system`` from ``f0`` on the tape seeded ``tape_seed``:
    the tape ``RandomTape.finite_random`` gives, unless ``digits`` holds its
    rows already drawn (see ``bundled_runs``)."""

    system: MtaSystem
    k: int
    tape_seed: int
    f0: list[int]
    digits: tuple[tuple[int, ...], ...] | None = None

    def tape(self) -> RandomTape:
        if self.digits is None:
            return RandomTape.finite_random(self.system.b, self.system.p, self.k, self.tape_seed)
        return RandomTape(self.system.b, digits=self.digits)

    def trace(self, tape: RandomTape | None = None) -> RunTrace:
        return engine.run_k(self.system, self.f0, self.k, self.tape() if tape is None else tape)


def bundled_runs(systems: dict[str, tuple[MtaSystem, int]], k: int,
                 tape_seeds: Iterable[int]) -> Iterator[tuple[str, int, Run]]:
    """(name, window n, run) per tape seed and then per system, from zeros.
    The systems share one b, and a system's tape is the first p rows of the
    widest one's, so each seed's rows are drawn once, through one ``Cells``
    block, and nothing is kept from one seed to the next."""
    (b,) = {system.b for system, _ in systems.values()}
    parts = max(system.p for system, _ in systems.values())
    block = Cells((i, pos) for i in range(parts) for pos in range(k))
    for tape_seed in tape_seeds:
        rows = RandomTape.finite_random(b, parts, k, tape_seed, cells=block).digits
        for name, (system, n) in systems.items():
            yield name, n, Run(system, k, tape_seed, [0] * system.graph.vertex_count, rows[:system.p])


def random_system(rng: random.Random, *, mixed_width: bool = False, radius: int | None = None) -> MtaSystem:
    """A ``random_instance`` on a radius-sparse partition, radius drawn from {1, 2, 3} if not given."""
    graph, rule = random_instance(rng, mixed_width=mixed_width)
    r = rng.choice((1, 2, 3)) if radius is None else radius
    return MtaSystem.build(graph, rule, graphs.sparse_partition(graph.sym_adj, r))


def fuzz_runs(rng: random.Random | int, count: int, *, k_max: int = 5, random_f0: bool = False,
              mixed_width: bool = False, radius: int | None = None) -> Iterator[Run]:
    """``count`` runs, each drawing a ``random_system``, k in 1..k_max, a tape
    seed and then, with ``random_f0``, a start digit per vertex (else zeros).
    An int ``rng`` seeds a fresh generator."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    for _ in range(count):
        system = random_system(rng, mixed_width=mixed_width, radius=radius)
        k = rng.randint(1, k_max)
        tape_seed = rng.randrange(2**30)
        n = system.graph.vertex_count
        f0 = [rng.randrange(system.b) for _ in range(n)] if random_f0 else [0] * n
        yield Run(system, k, tape_seed, f0)


def random_abstract_landscape(rng: random.Random) -> DecoratedLandscape:
    """A random valid landscape not derived from any run: roots at
    arbitrary levels, gaps between occupied levels, several trees."""
    graph, rule = random_instance(rng)
    rel = graph.rel
    support = list(rule.support)
    max_level = rng.randint(1, 5)
    parent = {}
    by_level = {}
    for level in range(max_level + 1):
        chosen = []
        for x in rng.sample(support, len(support)):
            if rng.random() < 0.5:
                continue
            if any(rel.adjacent(x, y) for y in chosen):
                continue
            chosen.append(x)
        by_level[level] = chosen
        for x in chosen:
            candidates = [y for y in by_level.get(level - 1, []) if rel.adjacent(y, x)]
            if candidates and rng.random() < 0.8:
                parent[x, level] = (rng.choice(candidates), level - 1)
    # The words are drawn after all the levels, in level order: the grounding pins hash these landscapes.
    prev = {(x, level): rng.choice(sorted(rule.forbidden[x])) for level, chosen in by_level.items() for x in chosen}
    final = tuple(rng.randrange(rule.b) for _ in range(graph.vertex_count))
    parts = tuple(range(graph.vertex_count))
    return DecoratedLandscape(graph, rule, parent, prev, final, parts)


def _property(check):
    """Turn ``check(cases)``, a generator yielding one failure dict or None per
    check, into a property returning (checks made, first counterexample)."""

    @functools.wraps(check)
    def run(cases: Iterable) -> tuple[int, dict | None]:
        checked = 0
        for failure in check(cases):
            checked += 1
            if failure is not None:
                return checked, {"suite": check.__name__, **failure}
        return checked, None

    return run


@_property
def roundtrip(cases: Iterable[tuple[str, int, Run]]):
    """The tape code is injective: decode(encode(tape)) == tape.  A case is
    (instance name, window parameter n, run)."""
    for name, n, run in cases:
        tape = run.tape()
        code = landscapes.encode_tape(run.trace(tape), n=n)
        ok = landscapes.decode_tape(code, run.system.p, run.k) == tape
        yield None if ok else {"instance": name, "tape_seed": run.tape_seed}


@_property
def seq_used(cases: Iterable[Run]):
    """Seq(x) decoded from the landscape equals Used(x) read off the tape."""
    for run in cases:
        trace = run.trace()
        seqs = landscapes.asgn_seq(landscapes.extract_landscape(trace))
        used = [engine.used_unused(trace, x)[0] for x in range(run.system.graph.vertex_count)]
        bad = next((x for x, u in enumerate(used) if seqs[x] != u), None)
        yield None if bad is None else {"vertex": bad, "seq": list(seqs[bad]), "used": list(used[bad])}


@_property
def grounding(cases: Iterable[DecoratedLandscape]):
    """ground() puts every root at level 0 and keeps each Seq(x) and the
    multiset of base columns.  A case is a landscape."""
    for ls in cases:
        before = landscapes.asgn_seq(ls)
        grounded, _ = landscapes.ground(ls)
        if not grounded.is_grounded:
            yield {"problem": "roots above level 0"}
        elif landscapes.asgn_seq(grounded) != before:
            yield {"problem": "sequence changed"}
        elif sorted(v[0] for v in grounded.verts) != sorted(v[0] for v in ls.verts):
            yield {"problem": "base columns changed"}
        else:
            yield None


@_property
def padding(cases: Iterable[Run]):
    """Padding every clause to width D keeps the original vertices' resample
    counters, the resample sets and the original vertices' final digits.
    Both runs read the stream tape seeded ``tape_seed``."""
    for run in cases:
        padded, n = engine.pad_uniform(run.system)
        tape = RandomTape.stream(run.system.b, run.tape_seed)
        original = run.trace(tape)
        f0 = list(run.f0) + [0] * (padded.graph.vertex_count - len(run.f0))
        pad = engine.run_k(padded, f0, run.k, tape)
        if original.h_final != pad.h_final[:n]:
            yield {"original": list(original.h_final), "padded": list(pad.h_final[:n])}
        elif original.resampled != pad.resampled or original.final != pad.final[:n]:
            yield {"problem": "resample sets or final digits differ"}
        else:
            yield None


@_property
def tree_counts(cases: Iterable[tuple[int, int]]):
    """Labelled trees counted by the recursion equal the Fuss-Catalan closed
    form and stay below the bound.  A case is (delta, n)."""
    for delta, n in cases:
        got, want = counting.count_labelled_trees(delta, n), counting.fuss_catalan(delta, n)
        ok = got == want and got <= counting.labelled_tree_bound(delta, n)
        yield None if ok else {"delta": delta, "n": n, "got": got, "want": want}


@_property
def fault_injection(cases: Iterable[tuple[str, int, Run]]):
    """decode_tape rejects a code one digit short, one digit long or ending in
    an out-of-range digit: three checks per (name, window n, run) case."""
    for _name, n, run in cases:
        code = landscapes.encode_tape(run.trace(), n=n)
        part_ids, payload, witness, b = code.part_ids, code.payload, code.witness, code.b
        for bad in (payload[:-1], payload + (0,), payload[:-1] + (b,)):
            try:
                landscapes.decode_tape(landscapes.TapeCode(part_ids, bad, witness, b), run.system.p, run.k)
            except landscapes.CodeCorruptionError:
                yield None
            else:
                yield {"problem": "corruption went undetected"}


@_property
def sparse_partitions(cases: Iterable[tuple[str, graphs.SymAdj, int]]):
    """sparse_partition(adj, r) is r-sparse.  A case is (name, a graph's ``SymAdj``, r)."""
    for name, adj, r in cases:
        yield None if graphs.is_sparse(adj, graphs.sparse_partition(adj, r), r) else {"instance": name, "r": r}
