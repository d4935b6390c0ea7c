import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from lllkit import (
    LocalRule,
    Partition,
    VariableGraph,
    ball,
    build_rel,
    greedy_mis,
    interior,
    is_sparse,
    landscapes,
    params,
    properties,
    sparse_partition,
    violating_set,
)
from conftest import _bfs_distances, graph_distance, random_symmetric_adjacency


def clause_graph(out_lists, n_vars, in_adj=None):
    """Clauses 0..m-1 reading variable vertices m..m+n_vars-1."""
    m = len(out_lists)
    rows = [tuple(m + v for v in lst) for lst in out_lists] + [()] * n_vars
    if in_adj is not None:
        return VariableGraph(rows, in_adj)
    return VariableGraph(rows)


class TestVariableGraph:
    def test_in_adj_derived_in_index_order(self):
        g = VariableGraph([(2,), (2,), ()])
        assert g.cl(2) == (0, 1)
        assert g.var(0) == (2,)

    def test_transpose_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VariableGraph([(1,), ()], in_adj=[(), ()])

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(ValueError):
            VariableGraph([(1, 1), ()])

    @pytest.mark.parametrize("out_adj, in_adj, message", [
        ([(1,), (5,), ()], None, "out_adj[1] refers to vertex 5 outside 0..2"),
        ([(), (2, -1), ()], None, "out_adj[1] refers to vertex -1 outside 0..2"),
        ([(1, 0, 1), ()], None, "out_adj[0] lists vertex 1 twice"),
        ([(1,), (1, 1, 7)], None, "out_adj[1] lists vertex 1 twice"),
        ([(1,), (7, 1, 1)], None, "out_adj[1] refers to vertex 7 outside 0..1"),
        ([(1, 1), (9,)], None, "out_adj[0] lists vertex 1 twice"),
        ([(1,), ()], [()], "out_adj and in_adj disagree on vertex count"),
        ([(1,), (), ()], [(), (0,), (3,)], "in_adj[2] refers to vertex 3 outside 0..2"),
        ([(1,), ()], [(), (0, 0)], "in_adj[1] lists vertex 0 twice"),
        ([(1,), ()], [(1,), ()], "in_adj is not the transpose of out_adj"),
        ([(1, 2), (), ()], [(), (0,), ()], "in_adj is not the transpose of out_adj"),
    ])
    def test_validation_messages(self, out_adj, in_adj, message):
        with pytest.raises(ValueError) as exc:
            VariableGraph(out_adj, in_adj)
        assert str(exc.value) == message

    def test_in_adj_in_any_row_order(self):
        g = VariableGraph([(2,), (2,), ()], [(), (), (1, 0)])
        assert g.cl(2) == (1, 0)

    def test_self_loop_allowed(self):
        g = VariableGraph([(0,)])
        assert g.var(0) == (0,)
        assert g.cl(0) == (0,)


class TestBuildRel:
    def test_shared_variable_and_self_loops(self):
        # two clauses reading the same single variable
        g = clause_graph([[0], [0]], 1)
        rel = build_rel(g)
        assert rel.adjacent(0, 1) and rel.adjacent(1, 0)
        assert rel.adjacent(0, 0) and rel.adjacent(1, 1)
        assert rel.nbrs[2] == ()  # the variable vertex reads nothing

    def test_label_order_follows_cl_order(self):
        g = clause_graph([[0], [0]], 1)
        rel = build_rel(g)
        # cl(v) = (c0, c1), so at c0 the tie at v resolves to c0 before c1
        assert rel.nbrs[0] == (0, 1)
        assert rel.nbrs[0].index(0) == 0 and rel.nbrs[0].index(1) == 1

    def test_label_order_with_reversed_cl(self):
        m = 2
        out = [(m,), (m,), ()]
        in_adj = [(), (), (1, 0)]  # reversed clause order at the variable
        g = VariableGraph(out, in_adj)
        rel = build_rel(g)
        assert rel.nbrs[0] == (1, 0)

    def test_empty_var_no_edges(self):
        g = VariableGraph([()])
        rel = build_rel(g)
        assert rel.nbrs[0] == ()

    def test_three_clause_path_ordering(self):
        # c0 reads v01; c1 reads v01,v12; c2 reads v12
        g = clause_graph([[0], [0, 1], [1]], 2)
        rel = build_rel(g)
        # at c1: c0 and c1 share v01 (position 0), tie broken by cl(v01) = (c0, c1);
        # c2 shares v12 (position 1)
        assert rel.nbrs[1] == (0, 1, 2)
        assert [rel.nbrs[1].index(y) for y in (0, 1, 2)] == [0, 1, 2]

    def test_symmetric_and_label_injective(self, rng):
        for _ in range(30):
            n_vars = rng.randint(1, 5)
            out_lists = [
                rng.sample(range(n_vars), rng.randint(0, min(3, n_vars)))
                for _ in range(rng.randint(1, 5))
            ]
            g = clause_graph(out_lists, n_vars)
            rel = build_rel(g)
            again = build_rel(g)
            assert rel == again  # deterministic
            for x in range(g.vertex_count):
                assert len(set(rel.nbrs[x])) == len(rel.nbrs[x])
                for y in rel.nbrs[x]:
                    assert rel.adjacent(y, x)
                    shared = set(g.var(x)) & set(g.var(y))
                    assert shared


class TestFailureProb:
    def test_three_sat_clause(self):
        g = clause_graph([[0, 1, 2]], 3)
        words = {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)} - {(0, 0, 0)}
        rule = LocalRule.for_graph(g, 2, [words] + [{()}] * 3)
        assert Fraction(len(rule.forbidden[0]), rule.b ** rule.word_lengths[0]) == Fraction(1, 8)

    def test_full_and_empty(self):
        g = VariableGraph([(1, 2), (), ()])
        full = {(a, b) for a in (0, 1) for b in (0, 1)}
        rule = LocalRule.for_graph(g, 2, [full, {()}, {()}])
        assert Fraction(len(rule.forbidden[0]), rule.b ** rule.word_lengths[0]) == 0
        rule2 = LocalRule.for_graph(g, 2, [set(), {()}, {()}])
        assert Fraction(len(rule2.forbidden[0]), rule2.b ** rule2.word_lengths[0]) == 1

    def test_range_and_support_characterization(self, rng):
        from lllkit.instances import random_instance

        for _ in range(20):
            g, rule = random_instance(rng, mixed_width=True)
            support = set(rule.support)
            for x in range(g.vertex_count):
                p = Fraction(len(rule.forbidden[x]), rule.b ** rule.word_lengths[x])
                assert 0 <= p <= 1
                assert (p == 0) == (x not in support)


class TestLocalRule:
    def test_for_graph_stores_the_complement(self):
        g = VariableGraph([(1, 2), (), ()])
        rule = LocalRule.for_graph(g, 3, [{(0, 1), (2, 2)}, {()}, set()])
        assert rule.forbidden[0] == {(a, c) for a in range(3) for c in range(3)} - {(0, 1), (2, 2)}
        assert rule.forbidden[1:] == (frozenset(), frozenset({()}))
        assert rule.allowed[0] == {(0, 1), (2, 2)}
        assert rule == LocalRule(3, rule.forbidden, [2, 0, 0])
        assert rule.support == (0, 2)
        assert rule.support is rule.support  # computed once, not per access

    @pytest.mark.parametrize("word", [(0,), (0, 1, 1), (0, 3)])
    def test_bad_words_rejected(self, word):
        g = VariableGraph([(1, 2), (), ()])
        with pytest.raises(ValueError, match="allowed word"):
            LocalRule.for_graph(g, 3, [{word}, {()}, {()}])
        with pytest.raises(ValueError, match="forbidden word"):
            LocalRule(3, [{word}, set(), set()], [2, 0, 0])


class TestViolatingSet:
    def test_examples(self):
        g = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(g, 2, [{(1,)}, {()}])
        assert violating_set(g, rule, [0, 0]) == {0}
        assert violating_set(g, rule, [0, 1]) == set()

    def test_empty_var_with_empty_word_allowed(self):
        g = VariableGraph([()])
        rule = LocalRule.for_graph(g, 2, [{()}])
        assert violating_set(g, rule, [0]) == set()
        assert violating_set(g, rule, [1]) == set()


class TestParams:
    def test_disjoint_three_sat(self):
        g = clause_graph([[0, 1, 2], [3, 4, 5]], 6)
        words = {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)} - {(0, 0, 0)}
        rule = LocalRule.for_graph(g, 2, [words, words] + [{()}] * 6)
        got = params(g, rule)
        assert (got.d, got.delta, got.beta) == (3, 1, 1)
        assert not got.trivially_satisfiable

    def test_chain_delta_three(self):
        # three clauses, consecutive ones share one variable
        g = clause_graph([[0, 1], [1, 2], [2, 3]], 4)
        full = {(a, b) for a in (0, 1) for b in (0, 1)}
        rule = LocalRule.for_graph(g, 2, [full - {(0, 0)}] * 3 + [{()}] * 4)
        assert params(g, rule).delta == 3

    def test_all_allowed_is_trivial(self):
        g = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(g, 2, [{(0,), (1,)}, {()}])
        got = params(g, rule)
        assert got.d == 0 and got.beta == 0 and got.trivially_satisfiable


class TestMetrics:
    def test_ball_radius_zero(self):
        adj = [(1,), (0, 2), (1,)]
        assert ball(adj, 1, 0) == {1}

    def test_ball_limit(self, rng):
        # a limited ball is part of the whole ball, and reaches the limit
        # exactly when the whole ball does
        for _ in range(50):
            adj = random_symmetric_adjacency(rng, 12, 0.2)
            x, r, limit = rng.randrange(12), rng.randint(0, 4), rng.randint(1, 13)
            whole, limited = ball(adj, x, r), ball(adj, x, r, limit)
            assert limited <= whole
            assert (len(limited) >= limit) == (len(whole) >= limit)

    def test_path_distance(self):
        adj = [(1,), (0, 2), (1,)]
        assert graph_distance(adj, 0, 2) == 2

    def test_disconnected_is_inf(self):
        adj = [(), ()]
        assert graph_distance(adj, 0, 1) == math.inf

    def test_interior_examples(self):
        adj = [(1,), (0, 2), (1, 3), (2, 4), (3,)]
        subset = {1, 2, 3}
        assert interior(adj, subset, 0) == subset
        # every member is distinct from every outside point, so depth 1 keeps all
        assert interior(adj, subset, 1) == subset
        assert interior(adj, subset, 2) == {2}
        assert interior(adj, set(range(5)), 7) == set(range(5))

    def test_interior_of_ball_in_path(self):
        # on a two-sided path segment the nearest outside point of x is
        # r + 1 - d(x, center) away, so depth 3 keeps exactly ball(y, r - 2)
        n = 20
        adj = [tuple(v for v in (i - 1, i + 1) if 0 <= v < n) for i in range(n)]
        center, r = 10, 5
        b = ball(adj, center, r)
        inner = interior(adj, b, 3)
        assert inner == ball(adj, center, r - 2)
        assert ball(adj, center, r - 3) <= inner

    def test_interior_monotone_and_antitone(self, rng):
        for _ in range(20):
            adj = random_symmetric_adjacency(rng, 10)
            small = set(rng.sample(range(10), 4))
            large = small | set(rng.sample(range(10), 3))
            for i in range(4):
                assert interior(adj, small, i) <= interior(adj, large, i)
                assert interior(adj, small, i + 1) <= interior(adj, small, i)


class TestSearchAgainstReference:
    """``ball``, ``interior``, ``graph_distance`` and ``_ball_pairs`` read one
    bounded search; each is checked against the deque search in conftest on
    random graphs, sparse ones disconnected, at radii and depths from 0."""

    @staticmethod
    def graphs(rng):
        yield [tuple(v for v in (i - 1, i + 1) if 0 <= v < 6) for i in range(6)]  # a path: diameter n - 1
        for n, p_edge in [(1, 0.0), (2, 0.0), (9, 0.05), (12, 0.15), (12, 0.3), (15, 0.6)] * 8:
            yield random_symmetric_adjacency(rng, n, p_edge)

    def test_ball_and_pairs(self, rng):
        for adj in self.graphs(rng):
            x = rng.randrange(len(adj))
            dist = _bfs_distances(adj, [x])
            for r in range(5):
                within = {v: d for v, d in enumerate(dist) if d <= r}
                assert ball(adj, x, r) == within.keys()
                pairs = landscapes._ball_pairs(adj, x, r)
                assert dict(pairs) == within and pairs[0] == (x, 0)
                assert [d for _, d in pairs] == sorted(d for _, d in pairs)
                for limit in range(len(adj) + 2):
                    # the least radius up to r whose ball has limit vertices, else r
                    stop = next((s for s in range(r + 1) if sum(d <= s for d in dist) >= limit), r)
                    assert ball(adj, x, r, limit) == {v for v, d in enumerate(dist) if d <= stop}

    def test_graph_distance(self, rng):
        for adj in self.graphs(rng):
            for x in range(len(adj)):
                dist = _bfs_distances(adj, [x])
                assert graph_distance(adj, x, x) == 0
                assert [graph_distance(adj, x, y) for y in range(len(adj))] == dist

    def test_interior(self, rng):
        for adj in self.graphs(rng):
            n = len(adj)
            for subset in (set(range(n)), set(), set(rng.sample(range(n), rng.randint(1, n)))):
                outside = [v for v in range(n) if v not in subset]
                dist = _bfs_distances(adj, outside)
                for i in range(5):
                    assert interior(adj, subset, i) == {v for v in subset if dist[v] >= i}


class TestGreedyMis:
    def test_triangle(self):
        adj = [(1, 2), (0, 2), (0, 1)]
        assert greedy_mis(adj, {0, 1, 2}, [0, 1, 2]) == {0}

    def test_edgeless(self):
        adj = [(), (), ()]
        assert greedy_mis(adj, {0, 2}, [0, 1, 2]) == {0, 2}

    def test_path(self):
        adj = [(1,), (0, 2), (1,)]
        assert greedy_mis(adj, {0, 1, 2}, [0, 1, 2]) == {0, 2}

    def test_self_loop_does_not_block(self):
        adj = [(0,)]
        assert greedy_mis(adj, {0}, [0]) == {0}

    def test_custom_order(self):
        adj = [(1,), (0, 2), (1,)]
        assert greedy_mis(adj, {0, 1, 2}, [1, 0, 2]) == {1}

    def test_independent_and_maximal_exhaustively(self, rng):
        for _ in range(40):
            n = rng.randint(1, 12)
            adj = random_symmetric_adjacency(rng, n)
            members = set(rng.sample(range(n), rng.randint(0, n)))
            chosen = greedy_mis(adj, members, sorted(members))
            assert chosen <= members
            for x in chosen:
                assert not (set(adj[x]) & chosen) - {x}
            for x in members - chosen:
                assert set(adj[x]) & chosen, "greedy result is not maximal"


class TestGreedyMisCost:
    def test_call_allocates_nothing_per_vertex(self):
        # two members on a million-vertex graph: no length-V scratch list
        adj = [()] * 10**6
        adj[3], adj[4] = (4,), (3,)
        tracemalloc.start()
        try:
            chosen = greedy_mis(adj, [4, 3], [3, 4])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chosen == {3}
        assert peak < 64 * 1024


class TestDependencyGraphCache:
    def test_rel_is_built_once_and_matches_build_rel(self):
        g = VariableGraph([(1, 2), (2,), (0,)])
        assert g.rel is g.rel
        assert g.rel == build_rel(g)


class TestSparsePartition:
    def test_radius_zero_single_part(self):
        adj = [(1,), (0, 2), (1,)]
        part = sparse_partition(adj, 0)
        assert part.part_count == 1

    def test_edgeless_single_part(self):
        adj = [(), (), ()]
        part = sparse_partition(adj, 3)
        assert part.part_count == 1

    def test_six_cycle_windows(self):
        adj = [tuple(sorted(((i - 1) % 6, (i + 1) % 6))) for i in range(6)]
        part = sparse_partition(adj, 2)
        for start in range(6):
            window = {start, (start + 1) % 6, (start + 2) % 6}
            assert len({part.part_of[v] for v in window}) == 3
        assert is_sparse(adj, part, 2)

    def test_sparseness_predicate_exhaustively(self, rng):
        def cases():
            for _ in range(25):
                adj = random_symmetric_adjacency(rng, rng.randint(1, 14))
                yield "random", adj, rng.randint(0, 4)

        assert properties.sparse_partitions(cases()) == (25, None)

    def test_part_count_bound(self, rng):
        # parts <= max |B_H(x, 2)| where H joins points at distance <= 2r
        for _ in range(15):
            n = rng.randint(2, 12)
            adj = random_symmetric_adjacency(rng, n)
            r = rng.randint(1, 3)
            power = []
            for x in range(n):
                near = ball(adj, x, 2 * r) - {x}
                power.append(tuple(sorted(near)))
            part = sparse_partition(adj, r)
            bound = max(len(ball(power, x, 2)) for x in range(n))
            assert part.part_count <= bound
            # first fit: x's part is below the count of earlier points within 2r
            assert part.part_count <= max(len(ball(adj, x, 2 * r)) for x in range(n))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sparse_partition([(1,), (0,)], -2)


class TestPartition:
    def test_singletons(self):
        part = Partition.singletons(3)
        assert part.part_count == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Partition(2, [0, 2])
