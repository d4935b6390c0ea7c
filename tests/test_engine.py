import hashlib
import itertools
import math
import random
import statistics

import pytest

from lllkit import (
    LocalRule,
    MtaSystem,
    Partition,
    RandomTape,
    RunTrace,
    TapeExhausted,
    VariableGraph,
    bundled_instances,
    pad_uniform,
    run_k,
    run_until_satisfied,
    used_unused,
    violating_set,
)
from lllkit.cli import build_system
from lllkit.engine import Cells
from lllkit.instances import TorusSpec, default_translates, random_instance, torus_instance
from lllkit.landscapes import EPS
from lllkit import counting, properties
from lllkit.properties import random_system
from conftest import RunState, classic_parallel_mta, counters, prefix, self_loop_free, step


def single_clause_system(falsifier=(0,), b=2):
    """One clause reading one variable; the falsifier word is forbidden."""
    graph = VariableGraph([(1,), ()])
    words = frozenset((d,) for d in range(b)) - {falsifier}
    rule = LocalRule.for_graph(graph, b, [words, {()}])
    return MtaSystem.build(graph, rule, Partition.singletons(2))


class TestMtaSystemChecks:
    def test_word_lengths_must_match_out_degrees(self):
        # a length-2 forbidden word at a vertex reading one variable is never
        # read, so a run would report a false certificate
        graph = VariableGraph([(1,), ()])
        rule = LocalRule(2, [{(0, 0)}, set()], [2, 0])
        with pytest.raises(ValueError, match="word lengths"):
            MtaSystem.build(graph, rule, Partition.singletons(2))

    def test_rule_and_partition_must_cover_the_graph(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule(2, [{(0,)}, set()], [1, 0])
        with pytest.raises(ValueError, match="^rule does not cover the graph$"):
            MtaSystem.build(graph, LocalRule(2, [{(0,)}], [1]), Partition.singletons(2))
        with pytest.raises(ValueError, match="^partition does not cover the graph$"):
            MtaSystem.build(graph, rule, Partition.singletons(3))

    @pytest.mark.parametrize("f, message", [
        ((0,), "initial assignment has wrong length"),
        ((0, 0, 0), "initial assignment has wrong length"),
        ((0, 2), "initial assignment has digits outside the alphabet"),
        ((-1, 0), "initial assignment has digits outside the alphabet"),
    ])
    def test_run_refuses_an_assignment_of_another_system(self, f, message):
        system = single_clause_system()
        with pytest.raises(ValueError) as exc:
            run_k(system, f, 1, RandomTape.stream(2, seed=0))
        assert str(exc.value) == message

    def test_order_entries_must_be_integers(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule(2, [{(0,)}, set()], [1, 0])
        for order in ([1.0, 0.0], [True, False], [0, 1.0]):
            with pytest.raises(ValueError, match="permutation"):
                MtaSystem.build(graph, rule, Partition.singletons(2), order)
        assert MtaSystem.build(graph, rule, Partition.singletons(2), [1, 0]).order == (1, 0)

    def test_only_the_identity_range_skips_the_check(self):
        """``build``'s default range(n) is taken as it is; any other range is
        checked like a list."""
        graph = VariableGraph([(1,), (), ()])
        rule = LocalRule(2, [{(0,)}, set(), set()], [1, 0, 0])
        for order in (range(1, 4), range(2), range(4), range(0, 6, 2)):
            with pytest.raises(ValueError, match="permutation"):
                MtaSystem.build(graph, rule, Partition.singletons(3), order)
        assert MtaSystem.build(graph, rule, Partition.singletons(3), range(2, -1, -1)).rank == [2, 1, 0]
        assert MtaSystem.build(graph, rule, Partition.singletons(3), range(2, -1, -1)[::-1]).rank is None
        assert MtaSystem.build(graph, rule, Partition.singletons(3)).order == (0, 1, 2)


class TestRandomTape:
    def test_finite_lookup_and_exhaustion(self):
        tape = RandomTape.finite(2, [[0, 1], [1, 1]])
        assert tape.digit(0, 1) == 1
        assert len(tape.digits[0]) == 2
        with pytest.raises(TapeExhausted):
            tape.digit(0, 2)
        with pytest.raises(TapeExhausted):
            tape.digit(2, 0)

    def test_bad_digits_rejected(self):
        with pytest.raises(ValueError):
            RandomTape.finite(2, [[0, 2]])
        with pytest.raises(ValueError):
            RandomTape.finite(2, [[0, 1], [1]])

    def test_stream_deterministic_and_addressable(self):
        tape = RandomTape.stream(3, seed=42)
        a = tape.digit(5, 9)
        b = tape.digit(0, 0)
        assert tape.digit(5, 9) == a and tape.digit(0, 0) == b
        assert RandomTape.stream(3, seed=42).digit(5, 9) == a
        assert prefix(RandomTape.stream(3, seed=43), 2, 20) != prefix(tape, 2, 20)

    def test_stream_roughly_uniform(self):
        for b in (2, 3, 5):
            tape = RandomTape.stream(b, seed=7)
            counts = [0] * b
            n = 3000
            for i in range(n):
                counts[tape.digit(0, i)] += 1
            for c in counts:
                assert abs(c - n / b) < 5 * math.sqrt(n)

    def test_prefix_matches_stream(self):
        src = RandomTape.stream(2, seed=9)
        fin = prefix(src, 3, 8)
        assert all(fin.digit(i, j) == src.digit(i, j) for i in range(3) for j in range(8))

    def test_alphabet_one(self):
        tape = RandomTape.stream(1, seed=0)
        assert tape.digit(0, 123) == 0


class TestStep:
    def test_fixed_point_when_satisfied(self):
        system = single_clause_system()
        state = RunState(0, (0, 1), (0, 0))
        new, resampled = step(system, state, RandomTape.finite(2, [[1], [1]]))
        assert resampled == frozenset()
        assert new.assignment == (0, 1) and new.counters == (0, 0)

    def test_single_clause_hand_simulation(self):
        system = single_clause_system()
        tape = RandomTape.finite(2, [[0], [1]])  # variable vertex 1 reads stream 1
        state = RunState(0, (0, 0), (0, 0))
        new, resampled = step(system, state, tape)
        assert resampled == {0}
        assert new.assignment == (0, 1)
        assert new.counters == (0, 1)
        assert not violating_set(system.graph, system.rule, new.assignment)

    def test_adjacent_violated_clauses_one_resampled(self):
        # two clauses over the same variable, both violated; greedy picks vertex 0
        graph = VariableGraph([(2,), (2,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {(1,)}, {()}])
        system = MtaSystem.build(graph, rule, Partition.singletons(3))
        tape = RandomTape.finite(2, [[0], [0], [1]])
        state = RunState(0, (0, 0, 0), (0, 0, 0))
        new, resampled = step(system, state, tape)
        assert resampled == {0}
        assert new.counters == (0, 0, 1)

    def test_tape_exhaustion_is_atomic(self):
        system = single_clause_system()
        state = RunState(0, (0, 0), (0, 0))
        with pytest.raises(TapeExhausted):
            step(system, state, RandomTape.finite(2, [[], []]))


class TestRunK:
    def test_zero_steps(self):
        system = single_clause_system()
        trace = run_k(system, [0, 0], 0, RandomTape.finite(2, [[1], [1]]))
        assert trace.k == 0 and trace.assignments == [(0, 0)]

    def test_satisfying_start_stays_put(self):
        system = single_clause_system()
        trace = run_k(system, [1, 1], 4, RandomTape.stream(2, 3))
        assert trace.k == 4
        assert trace.h_final == (0, 0)
        assert all(not s for s in trace.resampled)

    def test_deterministic(self):
        rng = random.Random(5)
        system = random_system(rng)
        tape = RandomTape.finite_random(system.b, system.p, 5, seed=99)
        f0 = [0] * system.graph.vertex_count
        t1 = run_k(system, f0, 5, tape)
        t2 = run_k(system, f0, 5, tape)
        assert t1.assignments == t2.assignments and t1.resampled == t2.resampled

    def test_prefix_property(self, rng):
        for _ in range(25):
            system = random_system(rng)
            stream = RandomTape.stream(system.b, rng.randrange(2**30))
            k_small, k_big = 3, 6
            short = prefix(stream, system.p, k_small)
            long = prefix(stream, system.p, k_big)
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            t1 = run_k(system, f0, k_small, short)
            t2 = run_k(system, f0, k_big, long)
            assert t1.assignments == t2.assignments[: k_small + 1]
            assert counters(t1) == counters(t2)[: k_small + 1]
            assert t1.resampled == t2.resampled[:k_small]

    def test_tape_exhausted_flagged(self):
        system = single_clause_system(falsifier=(0,))
        # forbidden word is (0,) and the tape keeps drawing 0: k=3 needs 3 digits
        tape = RandomTape.finite(2, [[0], [0]])
        trace = run_k(system, [0, 0], 3, tape)
        assert trace.status == "tape_exhausted"
        assert trace.k < 3

    def test_step_matches_run(self, rng):
        for _ in range(10):
            system = random_system(rng)
            tape = RandomTape.finite_random(system.b, system.p, 4, seed=rng.randrange(2**30))
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            trace = run_k(system, f0, 4, tape)
            state = RunState(0, tuple(f0), (0,) * system.graph.vertex_count)
            for j in range(4):
                state, resampled = step(system, state, tape)
                assert state.assignment == trace.assignments[j + 1]
                assert state.counters == counters(trace)[j + 1]
                assert tuple(sorted(resampled)) == trace.resampled[j]


class TestRunUntilSatisfied:
    def test_already_satisfied(self):
        system = single_clause_system()
        trace = run_until_satisfied(system, [0, 1], RandomTape.stream(2, 1), 100)
        assert trace.status == "satisfied" and trace.k == 0

    def test_single_clause_one_step(self):
        system = single_clause_system()
        tape = RandomTape.finite(2, [[0, 1], [1, 0]])
        trace = run_until_satisfied(system, [0, 0], tape, 100)
        assert trace.status == "satisfied"
        assert trace.k == 1 and trace.max_resamples == 1

    def test_resamples_match_first_allowed_tape_word(self, rng):
        # disjoint clauses with singleton parts: the resample count of a
        # clause's variables is the index of the first allowed tape word
        from lllkit.instances import disjoint_clause_instance

        graph, rule = disjoint_clause_instance(4)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        for seed in range(30):
            tape = RandomTape.stream(2, seed)
            trace = run_until_satisfied(system, [0] * graph.vertex_count, tape, 500)
            assert trace.status == "satisfied"
            for c in range(4):
                vs = graph.var(c)
                t = 0
                while tuple(tape.digit(system.partition.part_of[v], t) for v in vs) not in rule.allowed[c]:
                    t += 1
                assert trace.h_final[vs[0]] == t + 1

    def test_cap_exceeded_flag(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [set(), {()}])  # nothing allowed
        system = MtaSystem.build(graph, rule, Partition.singletons(2))
        trace = run_until_satisfied(system, [0, 0], RandomTape.stream(2, 0), 50)
        assert trace.status == "cap_exceeded"
        assert trace.k == 50

    def test_termination_certificate(self, rng):
        for _ in range(20):
            system = random_system(rng)
            tape = RandomTape.stream(system.b, rng.randrange(2**30))
            trace = run_until_satisfied(system, [0] * system.graph.vertex_count, tape, 2000)
            if trace.status == "satisfied":
                assert not violating_set(system.graph, system.rule, trace.final)


class TestRunInvariants:
    def test_resample_sets_independent_and_maximal(self, rng):
        for _ in range(40):
            system = random_system(rng)
            tape = RandomTape.finite_random(system.b, system.p, 4, seed=rng.randrange(2**30))
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            trace = run_k(system, f0, 4, tape)
            adj = self_loop_free(system.graph.rel)
            for j, chosen in enumerate(trace.resampled):
                chosen = set(chosen)
                violated = violating_set(system.graph, system.rule, trace.assignments[j])
                assert chosen <= violated
                for x in chosen:
                    assert not (set(adj[x]) & chosen)
                for x in violated - chosen:
                    assert set(adj[x]) & chosen, "resample set not maximal"

    def test_counter_increments(self, rng):
        for _ in range(20):
            system = random_system(rng)
            tape = RandomTape.finite_random(system.b, system.p, 5, seed=rng.randrange(2**30))
            trace = run_k(system, [0] * system.graph.vertex_count, 5, tape)
            h = counters(trace)
            for j in range(trace.k):
                touched = {v for x in trace.resampled[j] for v in system.graph.var(x)}
                for v in range(system.graph.vertex_count):
                    diff = h[j + 1][v] - h[j][v]
                    assert diff == (1 if v in touched else 0)


class TestUsedUnused:
    def test_never_resampled(self):
        system = single_clause_system()
        tape = RandomTape.finite(2, [[0, 1, 0], [1, 0, 1]])
        trace = run_k(system, [1, 1], 3, tape)
        used, unused = used_unused(trace, 1)
        assert used == ()
        assert unused == (1, 0, 1)

    def test_fully_consumed(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [set(), {()}])  # always violated
        system = MtaSystem.build(graph, rule, Partition.singletons(2))
        tape = RandomTape.finite(2, [[0, 1, 0], [1, 0, 1]])
        trace = run_k(system, [0, 0], 3, tape)
        used, unused = used_unused(trace, 1)
        assert used == (1, 0, 1) and unused == ()

    def test_single_clause_split(self):
        system = single_clause_system()
        tape = RandomTape.finite(2, [[0, 0, 0], [1, 0, 1]])
        trace = run_k(system, [0, 0], 3, tape)
        assert trace.h_final[1] == 1
        used, unused = used_unused(trace, 1)
        assert used == (1,) and unused == (0, 1)

    def test_concatenation_rebuilds_stream(self, rng):
        for _ in range(10):
            system = random_system(rng)
            k = 4
            tape = RandomTape.finite_random(system.b, system.p, k, seed=rng.randrange(2**30))
            trace = run_k(system, [0] * system.graph.vertex_count, k, tape)
            for x in range(system.graph.vertex_count):
                used, unused = used_unused(trace, x)
                part = system.partition.part_of[x]
                assert used + unused == tuple(tape.digit(part, j) for j in range(k))


class TestPadUniform:
    def _mixed_system(self):
        # clause 0 reads two variables, clause 1 reads one; D = 2
        graph = VariableGraph([(2, 3), (3,), (), ()])
        rule = LocalRule.for_graph(
            graph, 2, [{(0, 1), (1, 0), (1, 1)}, {(1,)}, {()}, {()}]
        )
        return MtaSystem.build(graph, rule, Partition.singletons(4))

    def test_dummy_extension(self):
        system = self._mixed_system()
        padded, n_orig = pad_uniform(system)
        assert n_orig == 4
        assert padded.graph.vertex_count == 5
        assert len(padded.graph.var(1)) == 2
        # each allowed word extends by any digit
        assert len(padded.rule.allowed[1]) == 2 * len(system.rule.allowed[1])
        dummy = padded.graph.var(1)[1]
        assert padded.graph.cl(dummy) == (1,)
        assert padded.partition.part_of[dummy] >= system.p

    def test_membership_depends_only_on_original_coordinates(self):
        system = self._mixed_system()
        padded, _ = pad_uniform(system)
        for w in ((0,), (1,)):
            base_ok = w in system.rule.allowed[1]
            for extra in (0, 1):
                assert ((w[0], extra) in padded.rule.allowed[1]) == base_ok

    def test_already_uniform_unchanged(self):
        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [{(1,)}, {()}])
        system = MtaSystem.build(graph, rule, Partition.singletons(2))
        padded, n_orig = pad_uniform(system)
        assert padded.graph == graph and n_orig == 2
        assert padded.partition.part_count == system.p

    def test_resample_counts_agree(self, rng):
        # counters, resample sets and the original vertices' final digits
        assert properties.padding(properties.fuzz_runs(rng, 30, mixed_width=True)) == (30, None)


class TestClassicBaseline:
    def test_deterministic_by_seed(self):
        system = single_clause_system()
        t1 = classic_parallel_mta(system, [0, 0], seed=4, step_cap=100)
        t2 = classic_parallel_mta(system, [0, 0], seed=4, step_cap=100)
        assert t1.assignments == t2.assignments

    def test_geometric_rounds(self):
        # forbidden word (0,): P(violated after redraw) = 1/2; rounds T >= 1,
        # P(T > t) = (1/2)^t, E[T] = 2, Var[T] = 2
        system = single_clause_system(falsifier=(0,))
        n = 3000
        totals = []
        for seed in range(n):
            trace = classic_parallel_mta(system, [0, 0], seed=seed, step_cap=500)
            assert trace.status == "satisfied"
            totals.append(trace.k)
        mean = statistics.fmean(totals)
        sigma_mean = math.sqrt(2 / n)
        assert abs(mean - 2) < 3 * sigma_mean


class TestTraceDump:
    def test_jsonl_shape(self):
        system = single_clause_system()
        tape = RandomTape.finite(2, [[0, 1], [0, 1]])
        trace = run_k(system, [0, 0], 2, tape)
        lines = trace.to_jsonl().strip().split("\n")
        assert len(lines) == 2
        import json

        rec = json.loads(lines[0])
        assert set(rec) == {"step", "resampled", "counters_digest"}


def oracle_digit(b: int, seed: int, part: int, pos: int) -> int:
    """The stream digit formula, restated independently of the package:
    blake2b over b"part:pos:attempt" with the seed as a 16-byte signed key,
    an 8-byte digest, and rejection of the top sliver of the 64-bit range."""
    if b == 1:
        return 0
    key = seed.to_bytes(16, "big", signed=True)
    limit = (1 << 64) - ((1 << 64) % b)
    for attempt in itertools.count():
        h = hashlib.blake2b(b"%d:%d:%d" % (part, pos, attempt), key=key, digest_size=8)
        w = int.from_bytes(h.digest(), "big")
        if w < limit:
            return w % b


class TestDigitOracle:
    PARTS, WIDTH = 5, 40

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 7, 256, 512, 2**64, 3 * 2**62])
    @pytest.mark.parametrize("seed", [0, 41, -7])
    def test_batch_paths_match_oracle(self, b, seed):
        rows = tuple(
            tuple(oracle_digit(b, seed, i, j) for j in range(self.WIDTH)) for i in range(self.PARTS)
        )
        cells = [(i, j) for i in range(self.PARTS) for j in range(self.WIDTH)]
        tape = RandomTape.stream(b, seed)
        assert tape.draw(cells) == [rows[i][j] for i, j in cells]
        assert [tape.digit(i, j) for i, j in cells] == [rows[i][j] for i, j in cells]
        assert RandomTape.finite_random(b, self.PARTS, self.WIDTH, seed).digits == rows
        assert prefix(tape, self.PARTS, self.WIDTH).digits == rows
        assert prefix(prefix(tape, 2, 7), 2, 3).digits == tuple(row[:3] for row in rows[:2])

    def test_large_alphabet_reaches_later_attempts(self):
        # b = 3*2^62 rejects a quarter of the attempt-0 hashes
        b, seed = 3 * 2**62, 41
        key = seed.to_bytes(16, "big", signed=True)
        rejected = [
            (i, j) for i in range(self.PARTS) for j in range(self.WIDTH)
            if int.from_bytes(hashlib.blake2b(b"%d:%d:0" % (i, j), key=key, digest_size=8).digest(),
                              "big") >= b
        ]
        assert len(rejected) > 10
        tape = RandomTape.stream(b, seed)
        assert tape.draw(rejected) == [oracle_digit(b, seed, i, j) for i, j in rejected]
        assert tape.draw(Cells(rejected)) == tape.draw(rejected)

    @pytest.mark.parametrize("b", [2, 3, 4, 256])
    def test_cells_keep_messages_not_digits(self, b):
        # One Cells drawn on two stream tapes and a finite one gets each tape's own digits.
        cells = [(i, j) for i in range(self.PARTS) for j in range(self.WIDTH)]
        plan = Cells(cells)
        for seed in (0, 41):
            want = [oracle_digit(b, seed, i, j) for i, j in cells]
            tape = RandomTape.stream(b, seed)
            assert tape.draw(plan) == want
            assert tape.draw(cells) == tape.draw(c for c in cells) == tape.draw(plan) == want
        finite = prefix(RandomTape.stream(b, 7), self.PARTS, self.WIDTH)
        assert finite.draw(plan) == [finite.digits[i][j] for i, j in cells]
        assert plan.messages == tuple(b"%d:%d:0" % cell for cell in cells)

    def test_finite_draw_raises_at_the_cell_digit_raises_at(self):
        tape = RandomTape.finite(2, [[0, 1], [1, 1]])
        assert tape.draw([(1, 0), (0, 0)]) == [1, 0]
        with pytest.raises(TapeExhausted) as batch:
            tape.draw([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(TapeExhausted) as single:
            tape.digit(1, 2)
        assert str(batch.value) == str(single.value)
        with pytest.raises(TapeExhausted):
            tape.row(0, 3)
        with pytest.raises(TapeExhausted):
            tape.row(2, 1)
        assert prefix(tape, 2, 1).digits == ((0,), (1,))
        for parts, width in ((2, 3), (3, 1)):
            with pytest.raises(TapeExhausted):
                prefix(tape, parts, width)

    def test_run_stops_before_mutating_on_exhaustion(self, rng):
        seen = 0
        for _ in range(60):
            system = random_system(rng)
            width = rng.randint(0, 2)
            tape = RandomTape.finite_random(system.b, system.p, width, seed=rng.randrange(2**30))
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            trace = run_k(system, f0, 6, tape)
            if trace.status != "tape_exhausted":
                continue
            seen += 1
            state = RunState(trace.k, trace.final, trace.h_final)
            with pytest.raises(TapeExhausted):
                step(system, state, tape)
            assert len(trace.assignments) == len(counters(trace)) == trace.k + 1
        assert seen > 10


def awkward_system(rng: random.Random) -> MtaSystem:
    """A random system with one-variable and zero-variable support vertices,
    self-reads and a shuffled vertex order."""
    n = rng.randint(3, 9)
    b = rng.choice((2, 3))
    out_adj, forbidden = [], []
    for x in range(n):
        width = rng.choice((0, 0, 1, 1, 2, 3))
        row = tuple(rng.sample(range(n), min(width, n)))
        words = list(itertools.product(range(b), repeat=len(row)))
        if not row:
            picked = rng.choice(([], [], [()]))  # a zero-variable support vertex is always violated
        else:
            picked = rng.sample(words, rng.randint(0, len(words) - 1))
        out_adj.append(row)
        forbidden.append(frozenset(picked))
    graph = VariableGraph(out_adj)
    rule = LocalRule(b, forbidden, [len(row) for row in out_adj])
    order = list(range(n))
    rng.shuffle(order)
    partition = Partition(n, list(range(n))) if rng.random() < 0.5 else Partition(1, [0] * n)
    return MtaSystem.build(graph, rule, partition, order)


def assert_run_matches_step(system: MtaSystem, f0, k: int, tape: RandomTape) -> RunTrace:
    """The incremental loop against ``step``, which recomputes the violated
    set and the greedy independent set from scratch every round."""
    trace = run_k(system, f0, k, tape)
    state = RunState(0, tuple(f0), (0,) * system.graph.vertex_count)
    for j in range(trace.k):
        state, resampled = step(system, state, tape)
        assert state.assignment == trace.assignments[j + 1]
        assert state.counters == counters(trace)[j + 1]
        assert tuple(sorted(resampled)) == trace.resampled[j]
    if trace.status == "tape_exhausted":
        with pytest.raises(TapeExhausted):
            step(system, state, tape)
    else:
        assert trace.k == k
    return trace


class TestLoopOracle:
    def test_custom_vertex_order(self, rng):
        for _ in range(50):
            system = random_system(rng, mixed_width=True)
            order = list(range(system.graph.vertex_count))
            rng.shuffle(order)
            system = MtaSystem.build(system.graph, system.rule, system.partition, order)
            assert system.rank is not None or order == sorted(order)
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            assert_run_matches_step(system, f0, 5, RandomTape.stream(system.b, rng.randrange(2**30)))

    def test_identity_order_builds_no_rank(self, rng):
        assert random_system(rng).rank is None
        for _ in range(40):
            system = random_system(rng, mixed_width=True)
            order = list(range(system.graph.vertex_count))
            rng.shuffle(order)
            built = MtaSystem.build(system.graph, system.rule, system.partition, order)
            # never run: the tables come from the build
            assert built.readers.keys() == set(built.rule.support)
            f = [rng.randrange(built.b) for _ in order]
            for x, read in built.readers.items():
                assert read(f) == tuple(f[v] for v in built.graph.var(x))
            assert (built.rank is None) == (order == sorted(order))
            if built.rank is not None:
                assert [built.rank[x] for x in order] == list(range(len(order)))

    def test_one_and_zero_variable_words(self, rng):
        widths = set()
        for _ in range(80):
            system = awkward_system(rng)
            widths.update(len(system.graph.var(x)) for x in system.rule.support)
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            seed = rng.randrange(2**30)
            assert_run_matches_step(system, f0, 6, RandomTape.stream(system.b, seed))
            assert_run_matches_step(system, f0, 6, RandomTape.finite_random(system.b, system.p, 3, seed))
        assert {0, 1, 2} <= widths

    def test_wide_torus_words(self):
        graph, rule = torus_instance(TorusSpec(2, 8, default_translates(2, 10), 2))
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        for seed in range(3):
            trace = assert_run_matches_step(system, [0] * graph.vertex_count, 4,
                                            RandomTape.stream(2, seed))
            assert trace.resampled[0]

    def test_stream_tapes_many_systems(self, rng):
        for i in range(60):
            if i % 3 == 0:  # singleton parts
                graph, rule = random_instance(rng, mixed_width=bool(i % 2))
                system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
            else:
                system = random_system(rng, mixed_width=bool(i % 2))
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            assert_run_matches_step(system, f0, 6, RandomTape.stream(system.b, rng.randrange(2**30)))


def fresh_copy(system: MtaSystem) -> MtaSystem:
    """The same system with nothing remembered."""
    return MtaSystem.build(system.graph, system.rule, system.partition, system.order)


def run_fields(trace: RunTrace) -> tuple:
    return trace.initial, trace.resampled, trace.final, trace.h_final, trace.status


def start_systems(rng: random.Random, count: int):
    """Awkward systems, sparse-partition systems and singleton-part systems in turn."""
    for i in range(count):
        if i % 3 == 0:
            yield awkward_system(rng)
        elif i % 3 == 1:
            yield random_system(rng, mixed_width=bool(i % 2))
        else:
            graph, rule = random_instance(rng, mixed_width=bool(i % 2))
            yield MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))


class TestSharedStart:
    """Runs on one system share the start it keeps for the last f.  Every
    run on a system that has started from other f values before must equal
    the run of a fresh system, which ``step`` checks round by round."""

    def test_repeated_and_alternating_starts(self, rng):
        seen = {"ordered": 0, "satisfied_start": 0, "exhausted_in_round_1": 0}
        for system in start_systems(rng, 210):
            n, b = system.graph.vertex_count, system.b
            zeros = [0] * n
            drawn = [rng.randrange(b) for _ in range(n)]
            satisfied = run_until_satisfied(fresh_copy(system), drawn, RandomTape.stream(b, 1), 50).final
            seen["ordered"] += system.rank is not None
            for f in (zeros, drawn, tuple(drawn), zeros, satisfied, drawn, zeros):
                seed = rng.randrange(2**30)
                for tape in (RandomTape.stream(b, seed),
                             RandomTape.finite_random(b, system.p, rng.randint(0, 3), seed)):
                    k = rng.choice((0, 1, 4))
                    trace = run_k(system, f, k, tape)
                    assert run_fields(trace) == run_fields(
                        assert_run_matches_step(fresh_copy(system), f, k, tape))
                    seen["exhausted_in_round_1"] += trace.status == "tape_exhausted" and trace.k == 0
                    until = run_until_satisfied(system, f, tape, 20)
                    assert run_fields(until) == run_fields(run_until_satisfied(fresh_copy(system), f, tape, 20))
                seen["satisfied_start"] += not system.start(tuple(f))[0]
                classic = classic_parallel_mta(system, f, seed, 20)
                assert run_fields(classic) == run_fields(classic_parallel_mta(fresh_copy(system), f, seed, 20))
        assert all(count > 20 for count in seen.values()), seen

    def test_start_is_kept_for_the_last_f_by_value(self, rng):
        system = awkward_system(rng)
        while not system.start(tuple([0] * system.graph.vertex_count))[0]:
            system = awkward_system(rng)
        n = system.graph.vertex_count
        start = system.start(tuple([0] * n))
        assert system.start(tuple([0] * n))[1] is start[1]
        violated, plan = start
        assert plan is not None and violated == violating_set(system.graph, system.rule, [0] * n)
        assert run_k(system, [0] * n, 1, RandomTape.stream(system.b, 3)).resampled[0] is plan.chosen
        other = tuple([system.b - 1] * n)
        assert system.start(other)[0] == violating_set(system.graph, system.rule, other)
        assert system.start(tuple([0] * n))[1] is not start[1]

    @pytest.mark.parametrize("source, partition, seeds", [
        ((2, 8, 10, 2), "singletons", range(40)),
        ((1, 24, 8, 4), "singletons", range(4, 24)),  # b = 4: a digit is the digest's last byte, masked
        ((1, 30, 8, 3), "singletons", range(4, 24)),  # b = 3: digits go through the rejection test
        ("torus", "auto", range(3, 63)),  # the bundled torus, whose sym_adj keeps its components
    ], ids=["torus-b2", "torus-b4", "torus-b3", "bundled-torus-auto"])
    def test_tail_pool_matches_map(self, source, partition, seeds):
        """Forked workers, which inherit the system and its start plan, give the
        in-process estimate; the grid reaches the cap, so every run's top is compared."""
        if isinstance(source, str):
            graph, rule = bundled_instances()[source]
        else:
            d, m, count, colors = source
            graph, rule = torus_instance(TorusSpec(d, m, default_translates(d, count), colors))
        f, grid = [0] * graph.vertex_count, range(201)
        estimates = []
        for run_map in (map, counting.process_map(2)):
            system, _ = build_system(graph, rule, partition, EPS)
            estimates.append(counting.tail_estimate(system, f, seeds, grid, 200, run_map=run_map))
        assert partition != "auto" or "components" in vars(graph.sym_adj)
        assert estimates[0] == estimates[1]
        assert 0 < estimates[0].exceed_counts[1] < len(seeds)


class TestClassicPinned:
    def test_trace_digest(self):
        # the rng draws over the sorted targets of each round, in order
        graph, rule = torus_instance(TorusSpec(2, 8, default_translates(2, 10), 2))
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        h = hashlib.sha256()
        for seed in range(10):
            trace = classic_parallel_mta(system, [0] * graph.vertex_count, seed, 200)
            h.update((trace.status + trace.to_jsonl() + repr(trace.final)).encode())
        assert h.hexdigest() == "e32a1f49badddfb168c39dab3a9f424449045644c44e8424d690350bb66c6f02"

    def test_trace_digest_shuffled_orders(self):
        rng = random.Random(3)
        h = hashlib.sha256()
        for _ in range(30):
            graph, rule = random_instance(rng, mixed_width=True)
            order = list(range(graph.vertex_count))
            rng.shuffle(order)
            system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count), order)
            trace = classic_parallel_mta(system, [0] * graph.vertex_count, rng.randrange(1000), 50)
            h.update((trace.status + trace.to_jsonl() + repr(trace.final)).encode())
        assert h.hexdigest() == "544f8aff22a82c35739f9e87195be11a9f6200f7e838f32f5eedbac6106389e7"


class TestUsedUnusedRows:
    def test_matches_digit_by_digit(self, rng):
        for _ in range(30):
            system = random_system(rng)
            seed = rng.randrange(2**30)
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            for tape in (RandomTape.stream(system.b, seed),
                         RandomTape.finite_random(system.b, system.p, 6, seed)):
                trace = run_k(system, f0, 5, tape)
                for x in range(system.graph.vertex_count):
                    part, h = system.partition.part_of[x], trace.h_final[x]
                    want = [tape.digit(part, j) for j in range(trace.k)]
                    assert used_unused(trace, x) == (tuple(want[:h]), tuple(want[h:]))

    def test_finite_tape_narrower_than_the_run(self):
        system = single_clause_system()
        trace = run_k(system, [1, 1], 3, RandomTape.finite(2, [[0, 1], [1, 0]]))
        assert trace.k == 3
        with pytest.raises(TapeExhausted):
            used_unused(trace, 1)


def assert_record_replays(trace: RunTrace) -> None:
    """The stored record replays to the stored ending, one state per round."""
    states = list(trace.states())
    assert states[-1] == (trace.final, trace.h_final)
    assert len(states) == trace.k + 1


class TestRunRecord:
    def test_replay_ends_at_the_stored_ending(self, rng):
        seen = set()
        for i in range(80):
            system = awkward_system(rng) if i % 2 else random_system(rng, mixed_width=True)
            f0 = [rng.randrange(system.b) for _ in range(system.graph.vertex_count)]
            seed = rng.randrange(2**30)
            finite = RandomTape.finite_random(system.b, system.p, rng.randint(0, 3), seed)
            stream = RandomTape.stream(system.b, seed)
            for kind, trace in (
                ("finite", run_k(system, f0, 5, finite)),
                ("finite", run_until_satisfied(system, f0, finite, 5)),
                ("stream", run_k(system, f0, 5, stream)),
                ("stream", run_until_satisfied(system, f0, stream, rng.randint(0, 3))),
                ("classic", classic_parallel_mta(system, f0, seed, rng.randint(0, 3))),
            ):
                assert_record_replays(trace)
                seen.add((kind, trace.status))
        assert {("finite", "satisfied"), ("finite", "tape_exhausted"), ("finite", "ok"),
                ("stream", "satisfied"), ("stream", "cap_exceeded"), ("stream", "ok"),
                ("classic", "satisfied"), ("classic", "cap_exceeded")} <= seen

    def test_trace_keeps_no_per_round_state(self):
        # one clause reads one variable and forbids both words, so every
        # round redraws that variable; the other 4,999 vertices only widen
        # any per-round copy of the assignment or the counters
        import tracemalloc

        n = 5000
        graph = VariableGraph([(1,)] + [()] * (n - 1))
        rule = LocalRule(2, [frozenset({(0,), (1,)})] + [frozenset()] * (n - 1),
                         [1] + [0] * (n - 1))
        system = MtaSystem.build(graph, rule, Partition.singletons(n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_k(system, [0] * n, 200, RandomTape.stream(2, 0))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.k == 200 and trace.h_final[1] == 200
        assert kept < 1_000_000
        assert_record_replays(trace)

    def test_trace_keeps_no_digits(self):
        # b = 1 and one clause forbids the one word on its w variables, so
        # every round redraws all w of them; a trace that kept the digits
        # would hold a slot (8 bytes) per digit, w * k of them
        import gc
        import tracemalloc

        w, k = 1000, 200
        graph = VariableGraph([tuple(range(1, w + 1))] + [()] * w)
        rule = LocalRule(1, [frozenset({(0,) * w})] + [frozenset()] * w, [w] + [0] * w)
        system = MtaSystem.build(graph, rule, Partition.singletons(w + 1))
        f0, tape = [0] * (w + 1), RandomTape.stream(1, 0)
        run_k(system, f0, 1, tape)  # plans and keeps round 1 before the count starts
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_k(system, f0, k, tape)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.k == k and trace.h_final == (0,) + (k,) * w
        assert kept < w * k // 2  # under half a byte per digit: the round sets and the ending
        assert_record_replays(trace)

    def test_trace_keeps_a_sorted_tuple_per_round(self):
        # b = 1 and c one-variable clauses that forbid their one word, so every
        # round resamples all c of them; the reversed order makes the greedy
        # pick them in decreasing id, and a tuple holds one 8-byte slot per id
        import gc
        import tracemalloc

        c, k = 500, 100
        graph = VariableGraph([(c + i,) for i in range(c)] + [()] * c)
        rule = LocalRule(1, [frozenset({(0,)})] * c + [frozenset()] * c, [1] * c + [0] * c)
        system = MtaSystem.build(graph, rule, Partition.singletons(2 * c), range(2 * c - 1, -1, -1))
        f0, tape = [0] * (2 * c), RandomTape.stream(1, 0)
        run_k(system, f0, 1, tape)  # plans and keeps round 1 before the count starts
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_k(system, f0, k, tape)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.k == k and trace.h_final == (0,) * c + (k,) * c
        assert all(type(r) is tuple and len(r) == c and all(map(int.__lt__, r, r[1:])) for r in trace.resampled)
        assert kept < 12 * c * k  # bytes a resample: about 8 as tuples, 33 as frozensets
