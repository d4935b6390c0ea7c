"""Shared helpers for the test suite: small random instances and systems."""

import random

import pytest

from lllkit import MtaSystem, Partition, sparse_partition
from lllkit.instances import random_instance


def random_system(rng: random.Random, *, mixed_width: bool = False,
                  singleton_parts: bool = False) -> MtaSystem:
    graph, rule = random_instance(rng, mixed_width=mixed_width)
    if singleton_parts:
        partition = Partition.singletons(graph.vertex_count)
    else:
        partition = sparse_partition(graph.sym_adj, rng.choice((1, 2, 3)))
    return MtaSystem.build(graph, rule, partition)


def random_abstract_landscape(rng: random.Random):
    """A random valid landscape not derived from any run: roots at
    arbitrary levels, gaps between occupied levels, several trees."""
    from lllkit import DecoratedLandscape, build_rel

    graph, rule = random_instance(rng)
    rel = build_rel(graph)
    support = list(rule.support)
    max_level = rng.randint(1, 5)
    verts = []
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
            v = (x, level)
            verts.append(v)
            candidates = [y for y in by_level.get(level - 1, []) if rel.adjacent(y, x)]
            if candidates and rng.random() < 0.8:
                parent[v] = (rng.choice(candidates), level - 1)
    prev = {}
    for v in verts:
        x = v[0]
        prev[v] = rng.choice(sorted(rule.forbidden[x]))
    final = tuple(rng.randrange(rule.b) for _ in range(graph.vertex_count))
    parts = tuple(range(graph.vertex_count))
    return DecoratedLandscape(graph, rule, verts, parent, prev, final, parts, rel=rel)


def random_symmetric_adjacency(rng: random.Random, n: int, p_edge: float = 0.3):
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                adj[i].add(j)
                adj[j].add(i)
    return [tuple(sorted(s)) for s in adj]


@pytest.fixture
def rng():
    return random.Random(20260810)
