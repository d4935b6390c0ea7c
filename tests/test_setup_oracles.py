"""Differential tests: the setup routines against the slower constructions
they replaced, kept here as reference oracles.

``sparse_partition`` (one first-fit pass over radius-2r balls) must equal
the iterated greedy maximal independent sets of the materialised power
graph, and ``default_window_params`` (bounded balls, n = 1, 2, ...) must
equal the scan over full per-vertex BFS distance lists.
"""

import bisect
import functools
import math
import random
from fractions import Fraction

import pytest

from lllkit import (
    Partition,
    TorusSpec,
    ball,
    bundled_instances,
    default_window_params,
    greedy_mis,
    sparse_partition,
    torus_instance,
)
from lllkit.graphs import _bfs_distances
from lllkit.instances import default_translates
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
