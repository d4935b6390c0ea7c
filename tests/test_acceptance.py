"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; everything is seed-pinned and deterministic.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from lllkit import (
    MtaSystem,
    Partition,
    RandomTape,
    bundled_instances,
    enumerate_small_landscapes,
    from_cnf,
    fuss_catalan,
    check_lll_condition,
    landscape_class_bound,
    q_value_upper_bounds,
    random_bounded_overlap_sat,
    run_until_satisfied,
    tail_estimate,
    torus_instance,
    violating_set,
)
from lllkit import properties
from lllkit.instances import TorusSpec, chain_sat_instance, default_translates, disjoint_clause_instance
from conftest import bundled_systems, enumerate_labelled_trees, q_values_exact, restricted_landscapes


def test_01_tape_encoding_injective_roundtrip():
    """decode(encode(tape)) == tape on 3 bundled instances x 10^4 tapes."""
    start = time.time()
    tapes_per_instance = 10_000
    cases = properties.bundled_runs(bundled_systems(), 5, range(tapes_per_instance))
    assert properties.roundtrip(cases) == (3 * tapes_per_instance, None)
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime target missed: {elapsed:.1f}s"
    print(f"ACCEPTANCE 01 PASS: 3x{tapes_per_instance} exact roundtrips in {elapsed:.1f}s")


def test_02_decoded_sequences_equal_consumed_digits():
    """Seq(x) == Used(x) for every vertex on 10^3 fuzzed runs, exactly."""
    runs = 1000
    cases = properties.fuzz_runs(random.Random(101), runs, k_max=6, random_f0=True)
    assert properties.seq_used(cases) == (runs, None)
    print(f"ACCEPTANCE 02 PASS: Seq == Used on {runs} fuzzed runs")


def test_03_grounding_terminates_and_preserves_sequences():
    """ground() on 10^3 fuzzed landscapes: guard holds, roots at level 0,
    per-vertex sequences and base columns unchanged."""
    extracted, restricted = 600, 400
    total = extracted + restricted
    # ground() raises GroundingError if the guard trips
    cases = restricted_landscapes(random.Random(202), total, extracted, k_max=6)
    assert properties.grounding(cases) == (total, None)
    print(f"ACCEPTANCE 03 PASS: {extracted + restricted} groundings, sequences preserved")


def test_04_padding_preserves_resample_counts():
    """Padded vs original runs with a shared tape prefix: identical
    per-original-vertex counters on 10^3 paired runs."""
    pairs = 1000
    cases = properties.fuzz_runs(random.Random(303), pairs, k_max=6, mixed_width=True)
    assert properties.padding(cases) == (pairs, None)
    print(f"ACCEPTANCE 04 PASS: {pairs} padded/original paired runs agree exactly")


def test_05_tree_counts_match_oracles_and_bound():
    """Exact counts equal the closed form for delta in {2,3,4}, N <= 12;
    the closed form itself matches brute-force enumeration for N <= 7;
    nothing exceeds (delta^delta/(delta-1)^(delta-1))^N."""
    for delta in (2, 3, 4):
        for n in range(0, 8):
            assert fuss_catalan(delta, n) == enumerate_labelled_trees(delta, n)
    cases = itertools.product((2, 3, 4), range(0, 13))
    assert properties.tree_counts(cases) == (39, None)
    print("ACCEPTANCE 05 PASS: tree counts match both oracles and stay below the bound")


def test_06_fixed_point_iteration_bounded():
    """Q_i at the critical abscissa stays <= 1/(delta-1) for i <= 20,
    certified in exact rationals (exact values for delta = 2, rigorous
    upper bounds rounded upward for all)."""
    for delta in (2, 3, 4):
        limit = Fraction(1, delta - 1)
        bounds = q_value_upper_bounds(delta, 20)
        assert len(bounds) == 21
        assert all(v <= limit for v in bounds)
    exact = q_values_exact(2, 20)
    assert all(v <= 1 for v in exact)
    print("ACCEPTANCE 06 PASS: iteration values certified <= 1/(delta-1) through i = 20")


def test_07_landscape_enumeration_below_bound():
    """Exhaustive tiny-type enumeration never exceeds the class bound."""
    points = [
        (0, 2, 1, 1, 0, 1, 2),
        (0, 2, 1, 1, 0, 2, 2),
        (1, 2, 1, 1, 1, 1, 2),
        (1, 2, 1, 2, 1, 2, 2),
        (1, 2, 1, 2, 2, 2, 2),
        (1, 2, 2, 2, 2, 2, 2),
    ]
    for point in points:
        count = len(enumerate_small_landscapes(*point))
        bound = landscape_class_bound(*point)
        assert count <= bound, (point, count, bound)
    print(f"ACCEPTANCE 07 PASS: {len(points)} enumerated type points below the bound")


def test_08_solver_succeeds_on_generated_and_torus_instances():
    """10^3 generated bounded-overlap instances all solved and verified
    within 10^3 steps; the 32x32 torus with 10 translates gets a verified
    multicolored 2-coloring."""
    n_instances = 1000
    for i in range(n_instances):
        delta_target = 1 + (i % 3)
        n_clauses = 3 + (i % 22)
        cnf = random_bounded_overlap_sat(n_clauses, delta_target, seed=i)
        graph, rule, _ = from_cnf(cnf)
        assert check_lll_condition(graph, rule, "tight").all_pass
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        tape = RandomTape.stream(2, 7_000_000 + i)
        trace = run_until_satisfied(system, [0] * graph.vertex_count, tape, 1000)
        assert trace.status == "satisfied", (i, trace.status)
        assert not violating_set(graph, rule, trace.final)
    spec = TorusSpec(2, 32, default_translates(2, 10), 2)
    graph, rule = torus_instance(spec)
    assert check_lll_condition(graph, rule, "tight").all_pass
    system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
    trace = run_until_satisfied(system, [0] * graph.vertex_count, RandomTape.stream(2, 99), 1000)
    assert trace.status == "satisfied"
    f = trace.final
    for x in range(graph.vertex_count):
        assert {f[y] for y in graph.var(x)} == {0, 1}
    print(f"ACCEPTANCE 08 PASS: {n_instances} generated instances + 32x32 torus solved and verified")


def test_09_tail_decay():
    """Degree-1 instance: exceedance matches the closed-form geometric tail
    within 3 sigma at every N <= 10 over 10^4 seeds.  Degree-3 instance:
    empirical log_b exceedance is nonincreasing and the fitted slope is
    negative at 95% confidence."""
    trials = 10_000
    graph, rule = disjoint_clause_instance(5)
    system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
    est = tail_estimate(system, [0] * graph.vertex_count, range(trials), range(11), 500)
    assert est.cap_exceeded == 0
    q = 1 / 8
    m = 5
    for n, p_hat in zip(est.n_grid, est.phat):
        p_true = 1 - (1 - q**n) ** m
        sigma = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(p_hat - p_true) <= 3 * sigma + 1e-12, (n, p_hat, p_true)

    graph3, rule3 = chain_sat_instance(16, seed=23)
    system3 = MtaSystem.build(graph3, rule3, Partition.singletons(graph3.vertex_count))
    est3 = tail_estimate(system3, [0] * graph3.vertex_count, range(trials), range(11), 1000)
    assert est3.cap_exceeded == 0
    assert all(a >= b for a, b in zip(est3.phat, est3.phat[1:]))
    assert est3.slope is not None and est3.slope_se is not None
    lo, hi = est3.slope - 1.96 * est3.slope_se, est3.slope + 1.96 * est3.slope_se
    assert hi < 0, f"slope CI not negative: ({lo}, {hi})"
    print(
        f"ACCEPTANCE 09 PASS: geometric tail within 3 sigma; degree-3 slope "
        f"{est3.slope:.2f} with 95% CI ({lo:.2f}, {hi:.2f})"
    )


def test_10_sparse_partitions_exhaustive():
    """sparse_partition output satisfies the ball predicate for r = 1..6 on
    every bundled instance."""
    cases = (
        (name, graph.sym_adj, r)
        for name, (graph, _) in bundled_instances().items()
        for r in range(1, 7)
    )
    checked, failure = properties.sparse_partitions(cases)
    assert (checked, failure) == (18, None)
    print(f"ACCEPTANCE 10 PASS: {checked} instance/radius sparseness checks")
