"""Differential tests: the setup routines against the slower constructions
they replaced, kept here as reference oracles.

``sparse_partition`` (per component: ranks where its least vertex is
within r of all of it, else first fit over radius-2r balls) must equal the
iterated greedy maximal independent sets of the materialised power graph;
``default_window_params`` (balls grown only up to the bound, components
below the bound skipped, n jumping once a failing component lies within 3n
of its least vertex) must equal the scan over full per-vertex BFS distance
lists and the plain n = 1, 2, ... loop; ``build_rel`` (a walk keeping first
appearances) must equal the sort by edge label; ``check_lll_condition``
(one computation per distinct case) must equal the per-vertex loop.
"""

import bisect
import functools
import math
import random
from fractions import Fraction

import pytest

from lllkit import (
    ConditionReport,
    Partition,
    RelGraph,
    TorusSpec,
    VariableGraph,
    ball,
    build_rel,
    bundled_instances,
    check_lll_condition,
    default_window_params,
    from_cnf,
    greedy_mis,
    params,
    random_bounded_overlap_sat,
    sparse_partition,
    torus_instance,
)
from lllkit.graphs import _bfs_distances
from lllkit.landscapes import _ceil_power, _float_log1p, _power_exceeds
from lllkit.instances import (
    ConditionEntry,
    default_translates,
    e_bounds,
    random_instance,
    tight_threshold,
)
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


def disjoint_union(adjs, rng):
    """The disjoint union of symmetric graphs, relabelled by a random
    permutation so that components interleave in index order."""
    total = sum(map(len, adjs))
    label = list(range(total))
    rng.shuffle(label)
    union = [()] * total
    offset = 0
    for adj in adjs:
        for x, row in enumerate(adj):
            union[label[offset + x]] = tuple(sorted(label[offset + y] for y in row))
        offset += len(adj)
    return union


def random_unions(count=60, seed=20261022):
    rng = random.Random(seed)
    for _ in range(count):
        draws = list(random_graphs(count=rng.randint(1, 5), seed=rng.randrange(2**32)))
        yield disjoint_union(draws, rng)


def path(n):
    return [tuple(y for y in (x - 1, x + 1) if 0 <= y < n) for x in range(n)]


@functools.cache
def named_graphs():
    graphs = {name: graph.sym_adj for name, (graph, _) in bundled_instances().items()}
    for side in (24, 32):
        torus, _ = torus_instance(TorusSpec(2, side, default_translates(2, 10), 2))
        graphs[f"torus-2,{side},10,2"] = torus.sym_adj  # one component
    cnf, _, _ = from_cnf(random_bounded_overlap_sat(2000, 3, 0))  # solve --generate 2000,3
    graphs["cnf-2000,3"] = cnf.sym_adj  # about 800 components of at most 13 vertices
    # Small components beside a 100-vertex path, whose reach from any
    # vertex (at least 50) exceeds 3n = 33 at eps = 1/2: first fit runs there.
    small = [graphs["disjoint"], path(1), path(2), [(1, 2), (0, 2), (0, 1)]]
    graphs["small-and-long-path"] = disjoint_union(small + [path(100)], random.Random(5))
    return graphs


NAMED = ["disjoint", "chain", "torus", "torus-2,24,10,2", "torus-2,32,10,2",
         "cnf-2000,3", "small-and-long-path"]


def partition_radii(adj):
    """RADII and the radius ``--partition auto`` uses, 3n at eps = 1/2."""
    return RADII + (3 * default_window_params(adj, Fraction(1, 2)),)


class TestSparsePartitionOracle:
    def test_random_graphs(self):
        for adj in random_graphs():
            for r in RADII:
                assert sparse_partition(adj, r) == iterated_mis_partition(adj, r), (adj, r)

    def test_random_unions(self):
        for adj in random_unions():
            for r in partition_radii(adj):
                assert sparse_partition(adj, r) == iterated_mis_partition(adj, r), (adj, r)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_graphs(self, name):
        adj = named_graphs()[name]
        for r in partition_radii(adj):
            assert sparse_partition(adj, r) == iterated_mis_partition(adj, r), r


class TestWindowParamsOracle:
    def test_random_graphs(self):
        for adj in random_graphs():
            for eps in EPSILONS:
                assert default_window_params(adj, eps) == full_bfs_window_params(adj, eps), (adj, eps)

    def test_random_unions(self):
        for adj in random_unions():
            for eps in EPSILONS:
                assert default_window_params(adj, eps) == full_bfs_window_params(adj, eps), (adj, eps)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_graphs(self, name):
        adj = named_graphs()[name]
        for eps in EPSILONS:
            assert default_window_params(adj, eps) == full_bfs_window_params(adj, eps), eps


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


class TestPowerComparisons:
    """The float-decided comparisons of (1 + eps)^m with a vertex count
    against exact powers, on exact ties, near ties and long denominators."""

    BASES = (Fraction(2), Fraction(3), Fraction(3, 2), Fraction(1001, 1000),
             Fraction(2**60 + 1, 2**60), 1 + Fraction(1, 2**1100), 1 + Fraction(2**1100))

    def test_power_exceeds_matches_exact(self):
        rng = random.Random(20261018)
        bases = list(self.BASES) + [1 + Fraction(rng.randint(1, 10**9), rng.randint(1, 10**12))
                                    for _ in range(30)]
        for base in bases:
            rate = _float_log1p(base - 1)
            for m in range(0, 40):
                power = base ** m
                near = {1, 2, 3, 100, 10**6} | {max(1, math.floor(power) + d) for d in (-1, 0, 1)}
                for k in near:
                    if k <= 10**9:
                        assert _power_exceeds(base, rate, m, k) == (power > k), (base, m, k)
                        want = min(math.ceil(power), k + 1)
                        assert _ceil_power(base, rate, m, k) == want, (base, m, k)

    def test_long_denominator_jump_is_least(self):
        eps = Fraction("0.0000026" + "0" * 300 + "1")
        adj = named_graphs()["chain"]
        n = default_window_params(adj, eps)
        size = max(len(ball(adj, x, len(adj))) for x in range(len(adj)))
        rate = math.log1p(eps)
        assert (n - 1) * rate <= math.log(size) < n * rate


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


def per_vertex_condition(graph, rule, variant):
    """The loop ``check_lll_condition`` replaced: a probability, a
    comparison and a margin computed for every vertex."""
    delta = params(graph, rule).delta
    if delta == 0:
        one = Fraction(1)
        return ConditionReport(variant, 0, one, one, (), True, graph.vertex_count)
    if variant == "tight":
        lo = hi = tight_threshold(delta)
    else:
        e_lo, e_hi = e_bounds()
        lo, hi = 1 / (e_hi * delta), 1 / (e_lo * delta)
    probs = ((x, rule.failure_prob(x)) for x in range(graph.vertex_count))
    entries = tuple(ConditionEntry(x, p, p < lo, lo - p) for x, p in probs if p)
    all_pass = all(e.passes for e in entries)
    return ConditionReport(variant, delta, lo, hi, entries, all_pass, graph.vertex_count - len(entries))


class TestConditionOracle:
    VARIANTS = ("tight", "symmetric")

    def assert_same(self, graph, rule):
        for variant in self.VARIANTS:
            report = check_lll_condition(graph, rule, variant)
            reference = per_vertex_condition(graph, rule, variant)
            assert report == reference, variant
            # the worst margin, picked as cmd_solve picks it
            worst = lambda r: min(r.entries, key=lambda e: e.margin, default=None)
            assert worst(report) == worst(reference)

    @pytest.mark.parametrize("name", ["disjoint", "chain", "torus"])
    def test_bundled(self, name):
        self.assert_same(*bundled_instances()[name])

    def test_random_instances(self):
        rng = random.Random(20261023)
        outcomes = set()
        for i in range(300):
            graph, rule = random_instance(rng, mixed_width=i % 2 == 1)
            self.assert_same(graph, rule)
            outcomes.add(check_lll_condition(graph, rule, "tight").all_pass)
        assert outcomes == {True, False}

    def test_generated_cnf(self):
        graph, rule, _ = from_cnf(random_bounded_overlap_sat(2000, 3, 0))
        self.assert_same(graph, rule)
