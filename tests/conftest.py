"""Shared helpers for the test suite: random abstract landscapes and adjacencies."""

import random

import pytest

from lllkit import ball
from lllkit.instances import random_instance
from lllkit.properties import fuzz_runs


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
    return DecoratedLandscape(graph, rule, verts, parent, prev, final, parts)


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
