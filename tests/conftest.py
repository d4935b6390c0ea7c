"""Shared helpers for the test suite: the bundled systems, restricted run
landscapes, random adjacencies, and the reference oracles.  The oracles
are slow, plain versions of what the library computes, kept here and not
in ``lllkit`` because no command runs them: the deque search, one
resampling ``step`` that re-checks every constraint and picks its
independent set on the self-loop-free dependency rows, the fresh-bits
baseline ``classic_parallel_mta``, a tape's ``prefix`` in one draw, a
trace's ``counters`` after each round, the brute-force tree enumeration,
the exact Q values, the faithfulness test of a restriction, the
rebranchable triples, ``graph_distance``, the per-point torus build, and
the per-element set-up builds: the union on every ``sym_adj`` row, the
dict on every dependency row, and the vertex-by-vertex rule and partition
checks.  ``to_dimacs`` writes a CNF back out for the round-trip tests."""

import itertools
import math
import random
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import pytest

from lllkit import (DecoratedLandscape, LocalRule, MtaSystem, Partition, RandomTape, RunTrace, VariableGraph,
                    ball, bundled_instances, extract_landscape, greedy_mis, restrict, violating_set)
from lllkit.cli import build_system
from lllkit.engine import _run
from lllkit.graphs import Adjacency, RelGraph, _distances
from lllkit.instances import CnfInstance, TorusSpec, non_surjective_words, tight_threshold
from lllkit.landscapes import ForestVertex, canvas_sources
from lllkit.properties import fuzz_runs

INF = math.inf


def bundled_systems() -> dict[str, tuple[MtaSystem, int]]:
    """The systems ``verify`` builds: each bundled instance on the auto
    partition, with its window parameter."""
    return {name: build_system(graph, rule, "auto", Fraction(1, 2))
            for name, (graph, rule) in bundled_instances().items()}


def restricted_runs(rng: random.Random, count: int, plain: int, *, k_max: int = 5):
    """Grounding cases: ``fuzz_runs`` whose landscapes, after the first ``plain``,
    are restricted to a ball of random centre and radius 1..3 (drawn after the run)."""
    for i, run in enumerate(fuzz_runs(rng, count, k_max=k_max)):
        graph = run.system.graph
        if i < plain:
            yield run, None
        else:
            center = rng.randrange(graph.vertex_count)
            yield run, ball(graph.sym_adj, center, rng.randint(1, 3))


def restricted_landscapes(rng: random.Random, count: int, plain: int, *, k_max: int = 5):
    """The landscapes of ``restricted_runs``' runs, each restricted to its ball."""
    for run, region in restricted_runs(rng, count, plain, k_max=k_max):
        ls = extract_landscape(run.trace())
        yield ls if region is None else restrict(ls, region)[0]


def random_symmetric_adjacency(rng: random.Random, n: int, p_edge: float = 0.3):
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                adj[i].add(j)
                adj[j].add(i)
    return [tuple(sorted(s)) for s in adj]


def _bfs_distances(adj, sources):
    """Reference breadth-first search: the distance from the nearest source
    to every vertex, math.inf where unreached."""
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


def self_loop_free(rel) -> tuple[tuple[int, ...], ...]:
    """The dependency rows without their self-loops, the rows the engine's
    greedy independent set read before it read ``rel.nbrs`` as they are."""
    return tuple(tuple(y for y in row if y != x) for x, row in enumerate(rel.nbrs))


class RunState(NamedTuple):
    step: int
    assignment: tuple[int, ...]
    counters: tuple[int, ...]


def step(system: MtaSystem, state: RunState, tape: RandomTape) -> tuple[RunState, frozenset[int]]:
    """One resampling round.

    Computes the violated set, picks its greedy maximal independent subset,
    and redraws every variable read by that subset from its part's stream at
    the variable's counter position.  Raises TapeExhausted before mutating
    anything if the tape is too short.
    """
    violated = violating_set(system.graph, system.rule, state.assignment)
    chosen = greedy_mis(self_loop_free(system.rel), violated, system.order)
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


class _FreshDigits:
    """The tape of the fresh-bits baseline: a cell gets a new digit from one
    generator when it is first drawn, and keeps it, so a replay reads the
    digits the run read."""

    def __init__(self, b: int, seed: int):
        self.b, self.rng, self.digits = b, random.Random(seed), {}

    def draw(self, cells) -> list[int]:
        for cell in cells:
            if cell not in self.digits:
                self.digits[cell] = self.rng.randrange(self.b)
        return [self.digits[cell] for cell in cells]


def classic_parallel_mta(system: MtaSystem, f, seed: int, step_cap: int) -> RunTrace:
    """Baseline: the engine's loop, but every redraw uses a fresh independent
    digit instead of the shared per-part streams.  It runs on singleton parts,
    so a cell is one (vertex, resample) pair and no two redraws share one."""
    n = system.graph.vertex_count
    singletons = MtaSystem.build(system.graph, system.rule, Partition.singletons(n), system.order)
    return _run(singletons, f, _FreshDigits(system.b, seed), max_steps=step_cap, stop_when_satisfied=True)


def prefix(tape: RandomTape, parts: int, width: int) -> RandomTape:
    """The finite parts-by-width tape read off ``tape`` in one ``draw``."""
    cells = tape.draw([(i, pos) for i in range(parts) for pos in range(width)])
    return RandomTape.finite(tape.b, [cells[i * width:(i + 1) * width] for i in range(parts)])


def counters(trace: RunTrace) -> list[tuple[int, ...]]:
    """The resample counters before the first round and after each round."""
    return [h for _, h in trace.states()]


def enumerate_labelled_trees(delta: int, n: int) -> int:
    """Brute-force oracle: generate every tree as a canonical nested tuple
    (sorted (label, subtree) pairs) and count distinct objects."""
    if n == 0:
        return 0
    cache: dict[int, frozenset] = {}

    def gen(size: int) -> frozenset:
        if size in cache:
            return cache[size]
        out = set()
        if size == 1:
            out.add(())
        else:
            for count in range(1, min(delta, size - 1) + 1):
                for labels in itertools.combinations(range(delta), count):
                    for sizes in _compositions(size - 1, count):
                        for subtrees in itertools.product(*(gen(s) for s in sizes)):
                            out.add(tuple(zip(labels, subtrees)))
        result = frozenset(out)
        cache[size] = result
        return result

    return len(gen(n))


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def q_values_exact(delta: int, steps: int) -> list[Fraction]:
    """Exact values Q_0(rho), ..., Q_steps(rho) at rho = tight_threshold(delta),
    with Q_0(rho) = rho and Q_{i+1} = rho (1 + Q_i)^delta.

    Denominator bit counts grow like delta^i, so this is only feasible for
    delta = 2 or small step counts; use q_value_upper_bounds otherwise.
    """
    rho = tight_threshold(delta)
    values = [rho]
    for _ in range(steps):
        values.append(rho * (1 + values[-1]) ** delta)
    return values


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


def rebranchable_triples(ls: DecoratedLandscape) -> Iterator[tuple[ForestVertex, ForestVertex, ForestVertex]]:
    """(x, y, z): (x, z) is a forest edge, (y, z) a canvas edge, y a forest
    vertex distinct from x."""
    for z, x in sorted(ls.parent.items()):
        for y in canvas_sources(ls.rel, ls.verts, z):
            if y != x:
                yield (x, y, z)


def graph_distance(adj: Adjacency, x: int, y: int):
    """BFS distance in a symmetric graph; math.inf when disconnected."""
    return _distances(adj, [x]).get(y, INF)


def torus_point_index(point, side: int) -> int:
    idx = 0
    for c in point:
        idx = idx * side + (c % side)
    return idx


def per_point_torus_instance(spec: TorusSpec) -> tuple[VariableGraph, LocalRule]:
    """The build ``torus_instance`` replaced: each point's row by one
    ``torus_point_index`` per translate, the points in lexicographic order."""
    m, n = spec.side, spec.side ** spec.dimension
    out_adj = [
        tuple(torus_point_index([c + t for c, t in zip(p, tr)], m) for tr in spec.translates)
        for p in itertools.product(range(m), repeat=spec.dimension)
    ]
    words = non_surjective_words(len(spec.translates), spec.colors)
    return VariableGraph(out_adj), LocalRule(spec.colors, [words] * n, [len(spec.translates)] * n)


def per_row_sym_adj(graph: VariableGraph) -> tuple[tuple[int, ...], ...]:
    """``VariableGraph.sym_adj`` before one-sided rows skipped the union:
    every row the sorted union of a set built from var(x) and cl(x)."""
    return tuple(tuple(sorted({*var, *cl})) for var, cl in zip(graph.out_adj, graph.in_adj))


def per_row_build_rel(graph: VariableGraph) -> RelGraph:
    """``build_rel`` before empty var rows skipped the dict: first
    appearances kept by a ``dict.fromkeys`` on every row."""
    cl = graph.in_adj
    return RelGraph([dict.fromkeys([y for v in row for y in cl[v]]) for row in graph.out_adj])


def per_vertex_rule(b: int, forbidden, word_lengths) -> tuple[tuple[frozenset, ...], tuple[int, ...]]:
    """The (forbidden, support) of ``LocalRule`` from its check before each
    distinct case was checked once: vertex by vertex, every word of every
    set, raising the ValueError of the first bad word met."""
    sets = []
    for x, words in enumerate(forbidden):
        ws = words if isinstance(words, frozenset) else frozenset(tuple(w) for w in words)
        for w in ws:
            if not isinstance(w, tuple) or len(w) != word_lengths[x]:
                raise ValueError(f"forbidden word {w} at vertex {x} has wrong length")
            if any(not 0 <= d < b for d in w):
                raise ValueError(f"forbidden word {w} at vertex {x} has digits outside 0..{b - 1}")
        sets.append(ws)
    return tuple(sets), tuple(x for x, ws in enumerate(sets) if ws)


def per_vertex_partition(part_count: int, part_of) -> tuple[int, ...]:
    """``Partition``'s range check before min/max decided it: vertex by
    vertex, raising the ValueError of the first vertex outside the parts."""
    part_of = tuple(part_of)
    for x, i in enumerate(part_of):
        if not 0 <= i < part_count:
            raise ValueError(f"vertex {x} assigned to part {i} outside 0..{part_count - 1}")
    return part_of


def to_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.variable_count} {cnf.clause_count}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(s * (v + 1)) for v, s in clause) + " 0")
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng():
    return random.Random(20260810)
