import itertools
import random
from fractions import Fraction

import pytest

from lllkit import (
    CodeCorruptionError,
    DecoratedLandscape,
    LocalRule,
    MtaSystem,
    Partition,
    RandomTape,
    TapeCode,
    VariableGraph,
    asgn_seq,
    bundled_instances,
    decode_tape,
    default_window_params,
    encode_tape,
    extract_landscape,
    find_window,
    ground,
    interior,
    join,
    pad_uniform,
    push_all,
    push_tree,
    rebranch,
    restrict,
    run_k,
)
from lllkit.landscapes import (
    GroundingError,
    InternalConsistencyError,
    LandscapeError,
    WindowError,
    is_tree_pushable,
    joinable_pairs,
)
from lllkit import properties
from lllkit.cli import build_system
from lllkit.graphs import SymAdj
from lllkit.instances import random_instance
from lllkit.properties import Run, random_system
from conftest import is_faithful_at, rebranchable_triples, restricted_landscapes, restricted_runs


def single_clause_landscape(final_v=1, prev_digit=0):
    """One clause (vertex 0) reading one variable (vertex 1), one forest
    vertex at level 0."""
    graph = VariableGraph([(1,), ()])
    rule = LocalRule.for_graph(graph, 2, [{(1,)}, {()}])
    return DecoratedLandscape(
        graph,
        rule,
        {},
        {(0, 0): (prev_digit,)},
        (0, final_v),
        (0, 1),
    )


def column_chain_landscape(levels):
    """Forest vertices of a single self-looped clause column at the given
    levels, chained by parent edges where consecutive."""
    graph = VariableGraph([(1,), ()])
    rule = LocalRule.for_graph(graph, 2, [{(1,)}, {()}])
    verts = [(0, l) for l in levels]
    parent = {}
    for a, b in zip(levels, levels[1:]):
        if b == a + 1:
            parent[(0, b)] = (0, a)
    return DecoratedLandscape(
        graph, rule, parent, {v: (0,) for v in verts}, (0, 1), (0, 1)
    )


def four_cycle_landscape():
    """Four clauses whose dependency graph is a 4-cycle, one tree.

    Clauses 0..3 read variable pairs around a cycle: 0:{4,7}, 1:{4,5},
    2:{5,6}, 3:{6,7}.  The single tree is rooted at (0,1) with children
    (1,2) and (3,2) and grandchild (2,3).
    """
    graph = VariableGraph([(4, 7), (4, 5), (5, 6), (6, 7), (), (), (), ()])
    full2 = {(a, b) for a in (0, 1) for b in (0, 1)}
    allowed = [frozenset(full2 - {(0, 0)})] * 4 + [frozenset([()])] * 4
    rule = LocalRule.for_graph(graph, 2, allowed)
    verts = [(0, 1), (1, 2), (3, 2), (2, 3)]
    parent = {(1, 2): (0, 1), (3, 2): (0, 1), (2, 3): (1, 2)}
    prev = {v: (0, 0) for v in verts}
    return DecoratedLandscape(graph, rule, parent, prev, (0,) * 8, tuple(range(8)))


def pairwise_separation_failure(rel, verts):
    """The message of the first dependency-adjacent pair of same-level bases,
    testing every pair of each level's sorted bases, levels in increasing order."""
    by_level = {}
    for base, level in verts:
        by_level.setdefault(level, []).append(base)
    for level in sorted(by_level):
        for a, b in itertools.combinations(sorted(by_level[level]), 2):
            if rel.adjacent(a, b):
                return f"level {level} holds dependency-adjacent bases {a}, {b}"
    return None


def replay_asgn_seq(ls):
    """``asgn_seq`` before it read Seq(x) off the prev words: rebuild the
    assignment before every level, walking down from the final one, and
    read the digit each level consumed from the assignment after it."""
    k = 1 + max((level for _, level in ls.verts), default=-1)
    cover = [dict() for _ in range(k)]  # cover[i][y] = the level-i vertex reading y
    for v in ls.verts:
        for y in ls.graph.var(v[0]):
            assert y not in cover[v[1]], "separation is broken"
            cover[v[1]][y] = v
    asgn = [None] * (k + 1)
    asgn[k] = list(ls.final)
    for i in range(k - 1, -1, -1):
        asgn[i] = list(asgn[i + 1])
        for v in sorted(v for v in ls.verts if v[1] == i):
            for pos, y in enumerate(ls.graph.var(v[0])):
                asgn[i][y] = ls.prev[v][pos]
    return [tuple(asgn[i + 1][x] for i in range(k) if x in cover[i]) for x in range(ls.graph.vertex_count)]


class TestLandscapeInvariants:
    def test_separation_violation_rejected(self):
        graph = VariableGraph([(2,), (2,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {(1,)}, {()}])
        with pytest.raises(InternalConsistencyError, match="adjacent"):
            DecoratedLandscape(
                graph, rule, {}, {(0, 0): (0,), (1, 0): (0,)},
                (0, 0, 0), (0, 1, 2),
            )

    def test_separation_names_the_first_pair_in_level_order(self):
        # clause 0 shares a variable with clauses 1 and 2, which share none;
        # the first pair of the level's sorted bases is 0, 1
        graph = VariableGraph([(3, 4), (3,), (4,), (), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1, 1)}, {(1,)}, {(1,)}, {()}, {()}])
        verts = [(0, 0), (1, 0), (2, 0)]
        prev = {(0, 0): (0, 0), (1, 0): (0,), (2, 0): (0,)}
        with pytest.raises(InternalConsistencyError) as exc:
            DecoratedLandscape(graph, rule, {}, prev, (0,) * 5, tuple(range(5)))
        assert str(exc.value) == pairwise_separation_failure(graph.rel, frozenset(verts))
        assert str(exc.value) == "level 0 holds dependency-adjacent bases 0, 1"

    def test_separation_matches_the_pairwise_check(self, rng):
        failures = 0
        for _ in range(300):
            graph, rule = random_instance(rng)
            support = list(rule.support)
            verts = frozenset((x, rng.randrange(2)) for x in rng.sample(support, rng.randint(0, len(support))))
            prev = {v: min(rule.forbidden[v[0]]) for v in verts}
            want = pairwise_separation_failure(graph.rel, frozenset(prev))  # the landscape's vertex set
            try:
                DecoratedLandscape(graph, rule, {}, prev, (0,) * graph.vertex_count,
                                   tuple(range(graph.vertex_count)))
            except InternalConsistencyError as exc:
                assert str(exc) == want
                failures += 1
            else:
                assert want is None
        assert failures > 50

    def test_separation_message_ignores_insertion_order(self, rng):
        """One landscape built from its vertices in shuffled orders gives one
        message, though its vertex set may iterate in another order."""
        failures = 0
        for _ in range(300):
            graph, rule = random_instance(rng)
            support = list(rule.support)
            verts = [(x, rng.randrange(2)) for x in rng.sample(support, rng.randint(0, len(support)))]
            messages = set()
            for _ in range(4):
                rng.shuffle(verts)
                prev = {v: min(rule.forbidden[v[0]]) for v in verts}
                try:
                    DecoratedLandscape(graph, rule, {}, prev, (0,) * graph.vertex_count,
                                       tuple(range(graph.vertex_count)))
                except InternalConsistencyError as exc:
                    messages.add(str(exc))
                else:
                    messages.add(None)
            assert len(messages) == 1, messages
            failures += None not in messages
        assert failures > 50

    def test_prev_must_be_forbidden(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {()}])
        with pytest.raises(InternalConsistencyError, match="forbidden"):
            DecoratedLandscape(graph, rule, {}, {(0, 0): (1,)}, (0, 0), (0, 1))

    def test_parent_must_be_canvas_edge(self):
        graph = VariableGraph([(2,), (3,), (), ()])  # disjoint clauses
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {(1,)}, {()}, {()}])
        with pytest.raises(InternalConsistencyError, match="canvas"):
            DecoratedLandscape(
                graph, rule, {(1, 1): (0, 0)},
                {(0, 0): (0,), (1, 1): (0,)}, (0, 0, 0, 0), (0, 1, 2, 3),
            )


class TestExtract:
    def test_no_violations_empty(self, rng):
        system = random_system(rng)
        n = system.graph.vertex_count
        # find a satisfying assignment by brute force over small alphabets
        import itertools

        from lllkit import violating_set

        for cand in itertools.product(range(system.b), repeat=n):
            if not violating_set(system.graph, system.rule, cand):
                break
        else:
            pytest.skip("fuzz instance unsatisfiable")
        tape = RandomTape.finite_random(system.b, system.p, 3, seed=0)
        trace = run_k(system, list(cand), 3, tape)
        assert extract_landscape(trace).is_empty

    def test_single_clause_one_resample(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {()}])
        system = MtaSystem.build(graph, rule, Partition.singletons(2))
        tape = RandomTape.finite(2, [[0, 0], [1, 0]])
        trace = run_k(system, [0, 0], 2, tape)
        ls = extract_landscape(trace)
        assert ls.verts == {(0, 0)}
        assert ls.parent == {}
        assert ls.prev[(0, 0)] == (0,)  # the violated word
        assert ls.final == trace.final

    def test_fuzzed_invariants_and_parents(self, rng):
        for run in properties.fuzz_runs(rng, 40):
            trace = run.trace()
            ls = extract_landscape(trace)  # validates on construction
            for (x, level) in ls.verts:
                if level > 0:
                    assert (x, level) in ls.parent or any(
                        ls.rel.adjacent(y, x) for y in trace.resampled[level - 1]
                    )


class TestAsgnSeq:
    def test_empty(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {()}])
        ls = DecoratedLandscape(graph, rule, {}, {}, (0, 0), (0, 1))
        assert asgn_seq(ls) == [(), ()]

    def test_single_vertex_hand_example(self):
        ls = single_clause_landscape(final_v=1, prev_digit=0)
        seqs = asgn_seq(ls)
        assert seqs[1] == (1,)  # the variable consumed the digit 1
        assert seqs[0] == ()  # nothing reads the clause vertex

    def test_seq_equals_used_fuzz(self, rng):
        assert properties.seq_used(properties.fuzz_runs(rng, 60, random_f0=True)) == (60, None)

    def test_equals_the_replay(self, rng):
        """Abstract landscapes and their groundings, and landscapes of fuzzed
        runs, whole, restricted to balls and grounded."""
        def cases():
            for _ in range(1000):
                ls = properties.random_abstract_landscape(rng)
                yield ls
                if not ls.is_empty:
                    yield ground(ls)[0]
            for run, ball_ in restricted_runs(rng, 1500, 300):
                ls = extract_landscape(run.trace())
                yield ls
                if ball_ is not None:
                    ls = restrict(ls, ball_)[0]
                    yield ls
                yield ground(ls)[0]

        checked = nonempty = 0
        for ls in cases():
            assert asgn_seq(ls) == replay_asgn_seq(ls)
            checked += 1
            nonempty += not ls.is_empty
        assert checked >= 3000 and nonempty >= 2500


class TestRestrict:
    def test_full_graph_identity(self):
        ls = four_cycle_landscape()
        restricted, mapping = restrict(ls, range(8))
        assert restricted == ls
        assert mapping == tuple(range(8))

    def test_cut_variable_relaxes_rule(self):
        ls = four_cycle_landscape()
        # drop variable 4: clauses 0 and 1 lose a variable and become free
        restricted, mapping = restrict(ls, [0, 1, 2, 3, 5, 6, 7])
        new_of = {old: new for new, old in enumerate(mapping)}
        for old_clause in (0, 1):
            new = new_of[old_clause]
            assert not restricted.rule.forbidden[new]
        assert restricted.rule.forbidden[new_of[2]]

    def test_empty_support_forest_vertices_dropped(self):
        ls = four_cycle_landscape()
        # keep clause 0 but neither of its variables
        restricted, mapping = restrict(ls, [0, 1, 2, 5, 6])
        new_of = {old: new for new, old in enumerate(mapping)}
        assert all(v[0] != new_of[0] for v in restricted.verts)

    def test_faithful_vertex_preserves_seq(self, rng):
        for run in properties.fuzz_runs(rng, 40, k_max=4):
            ls = extract_landscape(run.trace())
            n = run.system.graph.vertex_count
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            restricted, mapping = restrict(ls, keep)
            new_of = {old: new for new, old in enumerate(mapping)}
            seqs_full = asgn_seq(ls)
            seqs_cut = asgn_seq(restricted)
            for x in keep:
                if is_faithful_at(ls, keep, x):
                    assert seqs_cut[new_of[x]] == seqs_full[x]


class TestOperations:
    def test_push_all_lowers_levels(self):
        ls = column_chain_landscape([1, 2])
        pushed = push_all(ls)
        assert pushed.verts == {(0, 0), (0, 1)}
        assert pushed.parent == {(0, 1): (0, 0)}
        assert pushed.prev[(0, 0)] == (0,)

    def test_push_all_requires_positive_levels(self):
        ls = column_chain_landscape([0, 1])
        with pytest.raises(LandscapeError, match="level 0"):
            push_all(ls)

    def test_join_reduces_tree_count(self):
        # two singleton trees in one column at gap-2 levels cannot join;
        # use adjacent columns instead
        graph = VariableGraph([(2,), (2,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {(1,)}, {()}])
        verts = [(0, 0), (1, 1)]
        prev = {v: (0,) for v in verts}
        ls = DecoratedLandscape(graph, rule, {}, prev, (0, 0, 0), (0, 1, 2))
        assert len(ls.trees()) == 2
        pair = next(joinable_pairs(ls))
        assert pair == ((0, 0), (1, 1))
        joined = join(ls, pair)
        assert len(joined.trees()) == 1
        assert joined.verts == ls.verts

    def test_join_rejects_non_root(self):
        ls = column_chain_landscape([0, 1])
        with pytest.raises(LandscapeError, match="root"):
            join(ls, ((0, 0), (0, 1)))

    def test_rebranch_changes_one_parent(self):
        ls = four_cycle_landscape()
        triple = ((1, 2), (3, 2), (2, 3))
        out = rebranch(ls, triple)
        assert out.verts == ls.verts
        assert len(out.trees()) == len(ls.trees())
        assert out.parent[(2, 3)] == (3, 2)
        assert {k: v for k, v in out.parent.items() if k != (2, 3)} == {
            k: v for k, v in ls.parent.items() if k != (2, 3)
        }

    def test_rebranch_rejects_non_edge(self):
        ls = four_cycle_landscape()
        with pytest.raises(LandscapeError, match="forest edge"):
            rebranch(ls, ((3, 2), (1, 2), (2, 3)))

    def test_operations_preserve_seq(self, rng):
        ls = four_cycle_landscape()
        base = asgn_seq(ls)
        assert asgn_seq(rebranch(ls, ((1, 2), (3, 2), (2, 3)))) == base
        assert asgn_seq(push_all(ls)) == base

    def test_pushable_tree_can_still_be_rebranchable(self):
        # the literal predicates are not mutually exclusive: this single
        # tree has no incoming cross edge (pushable) yet contains a
        # same-tree rebranchable triple; both operations stay legal and
        # neither changes the decoded sequences
        ls = four_cycle_landscape()
        tree = ls.trees()[0]
        assert is_tree_pushable(ls, tree)
        triples = list(rebranchable_triples(ls))
        same_tree = [(x, y, z) for x, y, z in triples if y in tree]
        assert ((1, 2), (3, 2), (2, 3)) in same_tree
        base = asgn_seq(ls)
        assert asgn_seq(push_tree(ls, tree)) == base
        assert asgn_seq(rebranch(ls, same_tree[0])) == base


class TestGround:
    def test_already_grounded_unchanged(self):
        ls = single_clause_landscape()
        assert ground(ls) == (ls, [])

    def test_single_high_tree_three_pushes(self):
        ls = column_chain_landscape([3])
        grounded, ops = ground(ls)
        assert grounded.verts == {(0, 0)}
        assert [op[0] for op in ops] == ["push_tree"] * 3

    def test_fuzzed_grounding(self, rng):
        # roots at level 0, sequences and the base-column multiset preserved
        cases = (extract_landscape(run.trace()) for run in properties.fuzz_runs(rng, 60))
        assert properties.grounding(cases) == (60, None)

    def test_grounding_abstract_landscapes(self, rng):
        # arbitrary roots, level gaps and tree counts, beyond what runs produce
        for _ in range(150):
            ls = properties.random_abstract_landscape(rng)
            if ls.is_empty:
                continue
            before = asgn_seq(ls)
            grounded, ops = ground(ls)
            assert grounded.is_grounded
            assert asgn_seq(grounded) == before
            assert sorted(v[0] for v in grounded.verts) == sorted(v[0] for v in ls.verts)

    def test_grounding_restricted_landscapes(self, rng):
        assert properties.grounding(restricted_landscapes(rng, 40, 0)) == (40, None)


class TestFindWindow:
    def path_adj(self, n):
        return SymAdj(tuple(v for v in (i - 1, i + 1) if 0 <= v < n) for i in range(n))

    def test_point_mass(self):
        adj = self.path_adj(30)
        g = [0] * 30
        g[14] = 5
        n = default_window_params(adj, Fraction(1, 2))
        w = find_window(adj, g, Fraction(1, 2), n)
        assert w.center == 14 and w.radius == 3
        assert w.vertices == {x for x in range(30) if abs(x - 14) <= 3}

    def test_constant_weight_scan(self):
        n_verts = 40
        adj = self.path_adj(n_verts)
        g = [1] * n_verts
        eps = Fraction(1, 2)
        n = default_window_params(adj, eps)
        w = find_window(adj, g, eps, n)
        sums_r = sum(g[x] for x in w.vertices)
        inner = interior(adj, w.vertices, 3)
        assert max(g) <= sums_r < (1 + eps) * sum(g[x] for x in inner)
        # the scan returns the least radius
        for r in range(3, w.radius):
            b_r = {x for x in range(n_verts) if abs(x - w.center) <= r}
            b_r3 = {x for x in range(n_verts) if abs(x - w.center) <= r - 3}
            assert sum(g[x] for x in b_r) >= (1 + eps) * sum(g[x] for x in b_r3)

    def test_growth_precondition_diagnostic(self):
        # a star violates |B(y, 3)| < 1.5 for n = 1
        adj = SymAdj([tuple(range(1, 8))] + [(0,)] * 7)
        with pytest.raises(WindowError, match="growth precondition"):
            find_window(adj, [1] * 8, Fraction(1, 2), 1)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 2)])
    def test_window_params_need_positive_eps(self, eps):
        with pytest.raises(ValueError, match="positive"):
            default_window_params(self.path_adj(5), eps)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            find_window(self.path_adj(5), [0] * 5, Fraction(1, 2), 2)


class TestTapeCode:
    def _system(self, name="chain"):
        from lllkit import bundled_instances

        return build_system(*bundled_instances()[name], "auto", Fraction(1, 2))

    def test_empty_landscape_marker(self):
        system, n = self._system("disjoint")
        k = 3
        tape = RandomTape.finite_random(system.b, system.p, k, seed=1)
        # start from a satisfying assignment: all variables 1
        f0 = [0] * 6 + [1] * 18
        trace = run_k(system, f0, k, tape)
        code = encode_tape(trace, n=n)
        assert code.witness is None
        assert code.part_ids == frozenset()
        assert len(code.payload) == system.p * k
        assert decode_tape(code, system.p, k) == tape

    def test_payload_length_identity(self, rng):
        system, n = self._system("chain")
        k = 5
        adj = system.graph.sym_adj
        for seed in range(40):
            tape = RandomTape.finite_random(system.b, system.p, k, seed=seed)
            trace = run_k(system, [0] * system.graph.vertex_count, k, tape)
            ls = extract_landscape(trace)
            if ls.is_empty:
                continue
            code = encode_tape(trace, n=n)
            w = find_window(adj, ls.column_occupancy(), Fraction(1, 2), n)
            core = interior(adj, w.vertices, 2)
            consumed = sum(trace.h_final[x] for x in core)
            assert len(code.payload) == system.p * k - consumed

    def test_roundtrip(self, rng):
        cases = (
            (name, n, Run(system, 5, seed, [0] * system.graph.vertex_count))
            for name in ("disjoint", "chain", "torus")
            for system, n in [self._system(name)]
            for seed in range(60)
        )
        assert properties.roundtrip(cases) == (180, None)

    def test_corrupt_payload_detected(self):
        system, n = self._system("chain")
        k = 4
        tape = RandomTape.finite_random(system.b, system.p, k, seed=11)
        trace = run_k(system, [0] * system.graph.vertex_count, k, tape)
        code = encode_tape(trace, n=n)
        from lllkit import TapeCode

        bad_short = TapeCode(code.part_ids, code.payload[:-1], code.witness, code.b)
        with pytest.raises(CodeCorruptionError):
            decode_tape(bad_short, system.p, k)
        bad_digit = TapeCode(code.part_ids, code.payload[:-1] + (code.b,), code.witness, code.b)
        with pytest.raises(CodeCorruptionError):
            decode_tape(bad_digit, system.p, k)
        bad_parts = TapeCode(frozenset({system.p + 3}), code.payload, code.witness, code.b)
        with pytest.raises(CodeCorruptionError):
            decode_tape(bad_parts, system.p, k)

    def test_payload_digit_bounds(self):
        system, n = self._system("chain")
        k = 4
        tape = RandomTape.finite_random(system.b, system.p, k, seed=11)
        code = encode_tape(run_k(system, [0] * system.graph.vertex_count, k, tape), n=n)
        from lllkit import TapeCode

        for bad in (-1, code.b, code.b + 7):
            for at in (0, len(code.payload) - 1):
                payload = code.payload[:at] + (bad,) + code.payload[at + 1:]
                with pytest.raises(CodeCorruptionError):
                    decode_tape(TapeCode(code.part_ids, payload, code.witness, code.b), system.p, k)
        empty = TapeCode(frozenset(), (), None, code.b)
        assert decode_tape(empty, system.p, 0) == RandomTape.finite(code.b, [()] * system.p)

    def test_non_sparse_partition_rejected(self):
        from lllkit import bundled_instances

        graph, rule = bundled_instances()["chain"]
        coarse = Partition(1, [0] * graph.vertex_count)
        system = MtaSystem.build(graph, rule, coarse)
        tape = RandomTape.finite_random(system.b, 1, 4, seed=2)
        trace = run_k(system, [0] * graph.vertex_count, 4, tape)
        if extract_landscape(trace).is_empty:
            pytest.skip("no violations with this seed")
        with pytest.raises(ValueError, match="injective"):
            encode_tape(trace, n=default_window_params(graph.sym_adj))


class TestDecodeCorruption:
    """Each check ``decode_tape`` makes, on an empty witness and on a
    nonempty one wherever it applies."""

    K = 4

    @pytest.fixture(scope="class")
    def codes(self):
        """(p, the code of a tape whose landscape is empty, the code of one
        whose landscape is not)."""
        system, n = build_system(*bundled_instances()["chain"], "auto", Fraction(1, 2))
        tape = RandomTape.finite_random(system.b, system.p, self.K, seed=11)
        empty = TapeCode(frozenset(), sum(tape.digits, ()), None, system.b)
        code = encode_tape(run_k(system, [0] * system.graph.vertex_count, self.K, tape), n=n)
        assert code.witness is not None and decode_tape(empty, system.p, self.K) == tape
        return system.p, empty, code

    @staticmethod
    def rejects(code, p, k, match):
        with pytest.raises(CodeCorruptionError, match=match):
            decode_tape(code, p, k)

    @pytest.mark.parametrize("which", [1, 2])
    def test_digit_outside_the_alphabet(self, codes, which):
        p, code = codes[0], codes[which]
        for bad in (-1, code.b):
            payload = (bad,) + code.payload[1:]
            self.rejects(TapeCode(code.part_ids, payload, code.witness, code.b), p, self.K, "alphabet")

    @pytest.mark.parametrize("which", [1, 2])
    def test_part_id_out_of_range(self, codes, which):
        p, code = codes[0], codes[which]
        for bad in (-1, p):
            self.rejects(TapeCode(code.part_ids | {bad}, code.payload, code.witness, code.b), p, self.K, "part id")

    def test_empty_witness_with_part_ids(self, codes):
        p, empty, _ = codes
        self.rejects(TapeCode(frozenset({0}), empty.payload, None, empty.b), p, self.K, "cover")

    def test_witness_repeats_a_part(self, codes):
        p, _, code = codes
        witness = code.witness
        part = min(code.part_ids)
        other = next(x for x, i in enumerate(witness.part_of) if i != part)
        part_of = list(witness.part_of)
        part_of[other] = part
        twice = DecoratedLandscape(witness.graph, witness.rule, witness.parent, witness.prev, witness.final, part_of)
        self.rejects(TapeCode(code.part_ids, code.payload, twice, code.b), p, self.K, f"repeats part {part}")

    def test_witness_misses_a_recorded_part(self, codes):
        p, _, code = codes
        missing = min(set(range(p)) - set(code.witness.part_of))
        self.rejects(TapeCode(code.part_ids | {missing}, code.payload, code.witness, code.b), p, self.K, "cover")

    def test_part_decodes_more_than_k_digits(self, codes):
        # the witness of a run of K steps, read as one of fewer
        p, _, code = codes
        seqs = asgn_seq(code.witness)
        longest = max(len(seq) for x, seq in enumerate(seqs) if code.witness.part_of[x] in code.part_ids)
        assert longest >= 1
        self.rejects(code, p, longest - 1, "more than k digits")

    @pytest.mark.parametrize("which", [1, 2])
    def test_payload_one_digit_short_or_long(self, codes, which):
        p, code = codes[0], codes[which]
        for payload in (code.payload[:-1], code.payload + (0,)):
            self.rejects(TapeCode(code.part_ids, payload, code.witness, code.b), p, self.K, "payload length")


class TestDigitCountInequality:
    def test_window_core_consumes_enough_digits(self, rng):
        # after padding, every resample of a deep-interior column redraws
        # exactly D variables, all inside the next interior shell
        eps = Fraction(1, 2)
        checked = 0
        for _ in range(60):
            system = random_system(rng, mixed_width=True)
            padded, _ = pad_uniform(system)
            d_max = max(
                (len(padded.graph.var(x)) for x in padded.rule.support), default=0
            )
            if d_max == 0:
                continue
            k = rng.randint(2, 5)
            tape = RandomTape.stream(padded.b, rng.randrange(2**30))
            trace = run_k(padded, [0] * padded.graph.vertex_count, k, tape)
            ls = extract_landscape(trace)
            if ls.is_empty:
                continue
            adj = padded.graph.sym_adj
            n = default_window_params(adj, eps)
            w = find_window(adj, ls.column_occupancy(), eps, n)
            core2 = interior(adj, w.vertices, 2)
            core3 = interior(adj, w.vertices, 3)
            occupancy = ls.column_occupancy()
            n2 = sum(occupancy[x] for x in w.vertices)
            over_core3 = sum(occupancy[x] for x in core3)
            consumed = sum(trace.h_final[x] for x in core2)
            assert consumed >= d_max * over_core3
            assert Fraction(over_core3) > Fraction(n2) / (1 + eps)
            assert over_core3 >= (1 - eps) * n2
            checked += 1
        assert checked >= 10


class TestLandscapeType:
    def test_type_of_and_fits(self):
        ls = four_cycle_landscape()
        t = ls.type_of()
        assert (t.d, t.n1, t.n2) == (2, 8, 4)
        assert t.delta == 3  # self-loop plus two cycle neighbours
        assert t.beta == 1
        assert t.fits_within(type(t)(2, 4, 2, 9, 4, 8))
        assert not t.fits_within(type(t)(2, 4, 2, 9, 3, 8))  # forest size is exact
        assert not t.fits_within(type(t)(1, 4, 2, 9, 4, 8))


class TestGroundingGuard:
    def test_guard_error_carries_ops(self):
        # exercise the error type directly; the loop itself should never trip
        err = GroundingError("boom", [("push_all",)])
        assert err.ops == [("push_all",)]
