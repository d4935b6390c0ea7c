import itertools
import math
import os
import signal
import time
from fractions import Fraction

import pytest

from lllkit import (
    MtaSystem,
    Partition,
    count_labelled_trees,
    enumerate_small_landscapes,
    fuss_catalan,
    labelled_tree_bound,
    landscape_class_bound,
    tail_estimate,
    tree_count_iterates,
)
from lllkit import properties
from lllkit.counting import (
    landscape_class_prefactor,
    process_map,
    _canonical_key,
)
from lllkit.instances import disjoint_clause_instance, tight_threshold
from conftest import enumerate_labelled_trees, q_value_upper_bounds, q_values_exact


class TestTreeCounts:
    def test_small_values(self):
        assert count_labelled_trees(2, 0) == 0
        assert count_labelled_trees(2, 1) == 1
        assert count_labelled_trees(2, 3) == 5
        assert count_labelled_trees(3, 2) == 3

    def test_delta_one_paths(self):
        for n in range(1, 6):
            assert count_labelled_trees(1, n) == 1

    def test_matches_closed_form(self):
        # and stays below the bound
        assert properties.tree_counts(itertools.product((2, 3, 4), range(0, 13))) == (39, None)

    def test_matches_brute_force(self):
        for delta in (2, 3, 4):
            for n in range(0, 8):
                assert count_labelled_trees(delta, n) == enumerate_labelled_trees(delta, n)

    def test_below_bound(self):
        # and matches the closed form
        assert properties.tree_counts(itertools.product((2, 3, 4), range(1, 13))) == (36, None)

    def test_bound_values(self):
        assert labelled_tree_bound(2, 3) == 64
        assert labelled_tree_bound(3, 4) == Fraction(27, 4) ** 4
        with pytest.raises(ValueError):
            labelled_tree_bound(1, 3)

    def test_coefficients_stabilize(self):
        for delta in (2, 3, 4):
            for n in (3, 5, 8):
                iterates = tree_count_iterates(delta, n, n + 3)
                frozen = iterates[n]
                assert iterates[n + 1] == frozen
                assert iterates[n + 3] == frozen
                assert frozen[n] == fuss_catalan(delta, n)


class TestQIteration:
    def test_exact_values_below_limit(self):
        # exact rationals are feasible for a short horizon at any delta
        for delta in (2, 3, 4):
            limit = Fraction(1, delta - 1)
            values = q_values_exact(delta, 7)
            assert values[0] == tight_threshold(delta)
            assert all(v <= limit for v in values)
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_upper_bounds_dominate_exact(self):
        for delta in (2, 3, 4):
            exact = q_values_exact(delta, 7)
            bounds = q_value_upper_bounds(delta, 7)
            assert all(e <= b for e, b in zip(exact, bounds))
            # the rounding is tight: within 2^-400 at each step
            slack = Fraction(1, 2**400)
            assert all(b - e < slack for e, b in zip(exact, bounds))

    def test_bounds_below_limit_through_horizon(self):
        for delta in (2, 3, 4):
            limit = Fraction(1, delta - 1)
            assert all(v <= limit for v in q_value_upper_bounds(delta, 20))

    def test_exact_delta_two_long_horizon(self):
        values = q_values_exact(2, 20)
        assert all(v <= 1 for v in values)
        assert values[-1] > Fraction(4, 5)  # approaching the fixed point 1


class TestLandscapeBound:
    def test_prefactor_value(self):
        # D=1, delta=2, N1=1, p=1, b=2:
        # 1 * 2^1 * 1! * 2! * 2^2 * 2 * 1 * 1 = 32
        assert landscape_class_prefactor(1, 2, 1, 1, 2) == 32

    def test_zero_forest_reduces_to_prefactor(self):
        assert landscape_class_bound(1, 2, 1, 2, 0, 2, 2) == landscape_class_prefactor(
            1, 2, 2, 2, 2
        )

    def test_monotone_in_each_argument(self):
        base = (1, 2, 1, 2, 2, 2, 2)
        value = landscape_class_bound(*base)
        for i in range(len(base)):
            bumped = list(base)
            bumped[i] += 1
            assert landscape_class_bound(*bumped) >= value

    def test_delta_below_two_rejected(self):
        with pytest.raises(ValueError):
            landscape_class_bound(1, 1, 1, 1, 1, 1, 2)


class TestEnumerateSmall:
    def test_single_vertex_empty_forest(self):
        # rules {eps} or {} (beta = 1), final in {0,1}, one part: the keys are returned
        from lllkit import LocalRule, VariableGraph

        graph = VariableGraph([()])
        keys = {_canonical_key(graph, LocalRule.for_graph(graph, 2, [allowed]), frozenset(), {}, {}, (final,), (0,))
                for allowed in ({()}, set()) for final in (0, 1)}
        assert len(keys) == 4
        assert enumerate_small_landscapes(0, 2, 1, 1, 0, 1, 2) == keys

    def test_counts_below_bound(self):
        for point in ((1, 2, 1, 1, 1, 1, 2), (1, 2, 1, 2, 1, 2, 2), (1, 2, 1, 2, 2, 2, 2)):
            assert len(enumerate_small_landscapes(*point)) <= landscape_class_bound(*point)

    def test_isomorphic_relabelings_collapse(self):
        from lllkit import LocalRule, VariableGraph

        g1 = VariableGraph([(1,), ()])
        g2 = VariableGraph([(), (0,)])
        r1 = LocalRule.for_graph(g1, 2, [{(1,)}, {()}])
        r2 = LocalRule.for_graph(g2, 2, [{()}, {(1,)}])
        key1 = _canonical_key(g1, r1, {(0, 0)}, {}, {(0, 0): (0,)}, (0, 1), (0, 0))
        key2 = _canonical_key(g2, r2, {(1, 0)}, {}, {(1, 0): (0,)}, (1, 0), (0, 0))
        assert key1 == key2


class TestTailEstimate:
    def test_zero_seeds_rejected(self):
        graph, rule = disjoint_clause_instance(2)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        with pytest.raises(ValueError):
            tail_estimate(system, [0] * graph.vertex_count, [], [0, 1], 100)

    def test_satisfying_start_never_exceeds(self):
        graph, rule = disjoint_clause_instance(2)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        f0 = [0, 0] + [1] * 6
        est = tail_estimate(system, f0, range(200), [0, 1, 2], 100)
        assert est.phat[0] == 0.0

    def test_geometric_tail_small(self):
        graph, rule = disjoint_clause_instance(3)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        trials = 2000
        est = tail_estimate(system, [0] * graph.vertex_count, range(trials), range(6), 500)
        assert est.cap_exceeded == 0
        q = 1 / 8
        for n, p_hat in zip(est.n_grid, est.phat):
            p_true = 1 - (1 - q**n) ** 3
            sigma = math.sqrt(p_true * (1 - p_true) / trials)
            assert abs(p_hat - p_true) <= 3 * sigma + 1e-12

    def test_run_map_is_sent_only_the_seeds(self):
        graph, rule = disjoint_clause_instance(2)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        sent = []

        def recording_map(fn, items):
            items = list(items)
            sent.extend(items)
            return map(fn, items)

        est = tail_estimate(system, [0] * graph.vertex_count, range(7, 19), [0, 1], 100,
                            run_map=recording_map)
        assert sent == list(range(7, 19))
        assert est == tail_estimate(system, [0] * graph.vertex_count, range(7, 19), [0, 1], 100)

    def test_exceedances_match_the_per_n_count(self, rng):
        # tail_estimate counts runs above each N from the sorted maxima; a
        # run_map that returns drawn maxima checks that against sum(top > N)
        graph, rule = disjoint_clause_instance(2)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        for _ in range(50):
            tops = [rng.choice((math.inf, rng.randint(0, 12))) for _ in range(rng.randint(1, 30))]
            grid = rng.sample(range(-2, 16), rng.randint(1, 10))
            est = tail_estimate(system, [0] * graph.vertex_count, range(len(tops)), grid, 100,
                                run_map=lambda fn, seeds: list(tops))
            assert est.exceed_counts == tuple(sum(top > n for top in tops) for n in grid)
            assert est.cap_exceeded == tops.count(math.inf)

    def test_process_map_keeps_item_order(self):
        graph, rule = disjoint_clause_instance(2)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        f0 = [0] * graph.vertex_count
        seeds = range(40)
        assert (tail_estimate(system, f0, seeds, [0, 1, 2], 100, run_map=process_map(2))
                == tail_estimate(system, f0, seeds, [0, 1, 2], 100))
        assert process_map(2)(abs, [-3, 1, -2]) == [3, 1, 2]
        assert process_map(2)(abs, []) == []  # one worker, never zero

    def test_process_map_big_shares_keep_item_order(self):
        # Each child's reply is far past a 64 KiB pipe buffer; the parent reads them all.
        items = list(range(200_000))
        assert process_map(3)(lambda x: x * x, items) == [x * x for x in items]

    def test_process_map_without_fork_is_map(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        run_map = process_map(2)
        assert run_map is map
        assert list(run_map(lambda x: (os.getpid(), x), range(5))) == [(os.getpid(), x) for x in range(5)]

    def test_killed_worker_raises(self):
        """A child killed by a signal outside the parent's share raises, and
        leaves no process behind."""
        parent = os.getpid()

        def fn(x):
            if x == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return -x

        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            process_map(2)(fn, range(4))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_is_reaped_between_the_parent_items(self):
        """A child that dies on its first item raises after at most a few of
        the parent's own items, not after its whole share.  The parent's
        first item waits, without reaping, until the child has ended."""
        parent = os.getpid()
        mapped = []

        def fn(x):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if not mapped:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            mapped.append(x)
            return x

        with pytest.raises(ChildProcessError, match="killed by signal 9 after sending 0 of 100 results"):
            process_map(2)(fn, range(200))
        assert mapped and len(mapped) <= 2, mapped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_early_clean_exit_is_read_as_before(self):
        """A child that ends cleanly while the parent still maps is reaped
        then, and its results are still read, in item order."""
        parent = os.getpid()
        mapped = []

        def fn(x):
            if os.getpid() == parent and not mapped:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # the child is done
            mapped.append(x)
            return x * 3

        assert process_map(2)(fn, range(50)) == [x * 3 for x in range(50)]
        assert mapped == list(range(25, 50))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_the_parent_share_reaps_every_child(self):
        """The parent's own share raises while its children still run; they
        are killed and reaped before the exception leaves the map."""
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                time.sleep(60)
            elif x == 5:
                raise KeyError(x)
            return x

        start = time.monotonic()
        with pytest.raises(KeyError):
            process_map(3)(fn, range(6))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
