"""Differential tests: the setup routines against the slower constructions
they replaced, kept here as reference oracles.

``sparse_partition`` (one first-fit pass over radius-2r balls) must equal
the iterated greedy maximal independent sets of the materialised power
graph; ``default_window_params`` (bounded balls, jumping n once the failing
ball is its whole component) must equal the scan over full per-vertex BFS
distance lists and the plain n = 1, 2, ... loop; ``build_rel`` (a walk
keeping first appearances) must equal the sort by edge label.
"""

import bisect
import functools
import math
import random
from fractions import Fraction

import pytest

from lllkit import (
    Partition,
    RelGraph,
    TorusSpec,
    VariableGraph,
    ball,
    build_rel,
    bundled_instances,
    default_window_params,
    from_cnf,
    greedy_mis,
    random_bounded_overlap_sat,
    sparse_partition,
    torus_instance,
)
from lllkit.graphs import _bfs_distances
from lllkit.instances import default_translates, random_instance
from conftest import random_symmetric_adjacency

RADII = (0, 1, 2, 3)
EPSILONS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(2))


def iterated_mis_partition(adj, r):
    """Parts are successive greedy maximal independent sets of the graph
    joining points at distance 1..2r."""
    n = len(adj)
    power = []
    for x in range(n):
        near = ball(adj, x, 2 * r)
        near.discard(x)
        power.append(tuple(sorted(near)))
    part_of = [-1] * n
    remaining = set(range(n))
    part = 0
    while remaining:
        chosen = greedy_mis(power, remaining)
        for x in chosen:
            part_of[x] = part
        remaining -= chosen
        part += 1
    return Partition(part if n else 0, part_of)


def full_bfs_window_params(adj, eps):
    """Scan n up to the first n with (1 + eps)^n above the vertex count,
    reading ball sizes off sorted whole-graph BFS distance lists."""
    n_vertices = len(adj)
    if n_vertices == 0:
        return 1
    trivial_n = 1
    while (1 + eps) ** trivial_n <= n_vertices:
        trivial_n += 1
    dists = [
        sorted(d for d in _bfs_distances(adj, [x]) if d != math.inf)
        for x in range(n_vertices)
    ]
    for n in range(1, trivial_n + 1):
        worst = max(bisect.bisect_right(ds, 3 * n) for ds in dists)
        if worst < (1 + eps) ** n:
            return n
    return trivial_n


def random_graphs(count=300, seed=20261018):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 20)
        yield random_symmetric_adjacency(rng, n, rng.choice((0.05, 0.1, 0.2, 0.4)))


@functools.cache
def named_graphs():
    graphs = {name: graph.sym_adj for name, (graph, _) in bundled_instances().items()}
    torus, _ = torus_instance(TorusSpec(2, 24, default_translates(2, 10), 2))
    graphs["torus-2,24,10,2"] = torus.sym_adj
    return graphs


class TestSparsePartitionOracle:
    def test_random_graphs(self):
        for adj in random_graphs():
            for r in RADII:
                assert sparse_partition(adj, r) == iterated_mis_partition(adj, r), (adj, r)

    @pytest.mark.parametrize("name", ["disjoint", "chain", "torus", "torus-2,24,10,2"])
    def test_named_graphs(self, name):
        adj = named_graphs()[name]
        for r in RADII:
            assert sparse_partition(adj, r) == iterated_mis_partition(adj, r)


class TestWindowParamsOracle:
    def test_random_graphs(self):
        for adj in random_graphs():
            for eps in EPSILONS:
                assert default_window_params(adj, eps) == full_bfs_window_params(adj, eps), (adj, eps)

    @pytest.mark.parametrize("name", ["disjoint", "chain", "torus", "torus-2,24,10,2"])
    def test_named_graphs(self, name):
        adj = named_graphs()[name]
        for eps in EPSILONS:
            assert default_window_params(adj, eps) == full_bfs_window_params(adj, eps)


def stepping_window_params(adj, eps):
    """The plain search: n = 1, 2, ... until every radius-3n ball is small."""
    n = 1
    while any(len(ball(adj, x, 3 * n)) >= (1 + eps) ** n for x in range(len(adj))):
        n += 1
    return n


class TestWindowParamsJump:
    """The jump past saturated balls lands where the plain loop stops."""

    SMALL_EPSILONS = (Fraction(1, 300), Fraction(1, 97), Fraction(1, 3), Fraction(7, 3))

    def test_random_graphs(self):
        for adj in random_graphs(count=60, seed=20261019):
            for eps in self.SMALL_EPSILONS:
                assert default_window_params(adj, eps) == stepping_window_params(adj, eps), (adj, eps)

    @pytest.mark.parametrize("name", ["disjoint", "chain", "torus"])
    def test_named_graphs(self, name):
        adj = named_graphs()[name]
        for eps in self.SMALL_EPSILONS:
            assert default_window_params(adj, eps) == stepping_window_params(adj, eps)

    @pytest.mark.parametrize("eps", [Fraction(1, 6000), Fraction(1, 20000)])
    def test_small_eps_is_least(self, eps):
        """Minimality without the plain loop: below radius 3n the largest
        ball is the whole largest component, which (1 + eps)^(n - 1) does not
        exceed, and every shorter radius fails directly."""
        adj = named_graphs()["chain"]
        n = default_window_params(adj, eps)
        largest = lambda r: max(len(ball(adj, x, r)) for x in range(len(adj)))
        component = largest(len(adj))
        assert largest(3 * n) < (1 + eps) ** n
        assert largest(3 * (n - 1)) == component >= (1 + eps) ** (n - 1)
        diameter = max(d for x in range(len(adj)) for d in _bfs_distances(adj, [x]) if d != math.inf)
        for m in range(1, math.ceil(diameter / 3) + 1):
            assert largest(3 * m) >= (1 + eps) ** m


def sorted_build_rel(graph):
    """The sort-based construction ``build_rel`` replaced: at x, sort the
    neighbours by the var(x) position of the least shared variable v, then
    by position in cl(v)."""
    n = graph.vertex_count
    var_sets = [set(graph.var(x)) for x in range(n)]
    cl_pos = [{y: j for j, y in enumerate(graph.cl(v))} for v in range(n)]
    nbrs = []
    for x in range(n):
        candidates = {y for v in graph.var(x) for y in graph.cl(v)}

        def key(y):
            pos, v = next((pos, v) for pos, v in enumerate(graph.var(x)) if v in var_sets[y])
            return (pos, cl_pos[v][y])

        nbrs.append(tuple(sorted(candidates, key=key)))
    return RelGraph(nbrs)


def shuffled_variable_graphs(count=400, seed=20261020):
    """Random oriented graphs (self-loops allowed) whose cl(v) lists come in
    shuffled order, so label order differs from index order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        out_adj = [rng.sample(range(n), rng.randint(0, min(4, n))) for _ in range(n)]
        in_adj = [[x for x in range(n) if y in out_adj[x]] for y in range(n)]
        for row in in_adj:
            rng.shuffle(row)
        yield VariableGraph(out_adj, in_adj)


class TestBuildRelOracle:
    def test_random_instances(self):
        rng = random.Random(20261021)
        for i in range(500):
            graph, _ = random_instance(rng, mixed_width=i % 2 == 1)
            assert build_rel(graph) == sorted_build_rel(graph), graph.out_adj

    def test_shuffled_cl_orders(self):
        for graph in shuffled_variable_graphs():
            assert build_rel(graph) == sorted_build_rel(graph), (graph.out_adj, graph.in_adj)

    @pytest.mark.parametrize("name", ["disjoint", "chain", "torus"])
    def test_bundled(self, name):
        graph, _ = bundled_instances()[name]
        assert build_rel(graph) == sorted_build_rel(graph)

    def test_generated_cnf(self):
        graph, _, _ = from_cnf(random_bounded_overlap_sat(10000, 3, 0))
        assert build_rel(graph) == sorted_build_rel(graph)
