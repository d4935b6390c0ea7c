"""The tape code's window geometry: ``find_window`` against its full-radius
reference, and what a graph keeps (one ball per centre, one restricted
canvas per window) against runs on a fresh graph; and the tape rows that
``properties.bundled_runs`` shares among the bundled systems, drawn once
per seed and kept for no longer, against tapes drawn cold."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from lllkit import (
    DecoratedLandscape,
    LocalRule,
    MtaSystem,
    RandomTape,
    RunTrace,
    VariableGraph,
    bundled_instances,
    encode_tape,
    find_window,
    landscapes,
    properties,
    restrict,
    run_k,
)
from lllkit.cli import build_system, main
from lllkit.engine import Cells
from lllkit.graphs import SymAdj
from lllkit.landscapes import Window, WindowError
from lllkit.properties import Run, fuzz_runs
from conftest import _bfs_distances, bundled_systems, prefix, random_symmetric_adjacency


def reference_find_window(adj, weights, eps, n):
    """The full-radius scan: a whole-graph BFS and one prefix sum per radius
    in 0..3n, compared with an exact (1 + eps) * sum."""
    if all(w == 0 for w in weights):
        raise ValueError("weight function is identically zero")
    best = max(range(len(weights)), key=lambda x: (weights[x], -x))
    dist = _bfs_distances(adj, [best])
    radius_max = 3 * n
    ball_size = sum(1 for d in dist if d <= radius_max)
    if (1 + eps) ** n <= ball_size:
        raise WindowError(
            f"growth precondition fails: |B({best}, {radius_max})| = {ball_size} "
            f">= (1 + {eps})^{n}"
        )
    sums = [0] * (radius_max + 1)
    for x, w in enumerate(weights):
        d = dist[x]
        if d <= radius_max:
            sums[int(d)] += w
    for r in range(1, radius_max + 1):
        sums[r] += sums[r - 1]
    for r in range(3, radius_max + 1):
        if sums[r] < (1 + eps) * sums[r - 3]:
            return Window(best, r, frozenset(x for x in range(len(weights)) if dist[x] <= r))
    raise WindowError(
        f"no radius in 3..{radius_max} works at {best}; "
        f"the graph violates the assumed growth"
    )


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def fresh_graph(graph):
    """An equal graph that keeps nothing yet: no components, balls or canvases."""
    return VariableGraph(graph.out_adj, graph.in_adj)


def on_fresh_graph(trace):
    """The same trace over an equal system on a fresh graph."""
    system = trace.system
    fresh = MtaSystem.build(fresh_graph(system.graph), system.rule, system.partition, system.order)
    copy = RunTrace(fresh, trace.tape, trace.initial)
    copy.resampled = trace.resampled
    copy.final, copy.h_final, copy.status = trace.final, trace.h_final, trace.status
    return copy


def fuzzed_adjacencies(count=400, seed=20261018):
    """Random graphs and paths, each a ``SymAdj``."""
    rng = random.Random(seed)
    for i in range(count):
        size = rng.randint(1, 30)
        if i % 3 == 0:
            adj = [tuple(v for v in (x - 1, x + 1) if 0 <= v < size) for x in range(size)]
        else:
            adj = random_symmetric_adjacency(rng, size, rng.choice((0.05, 0.1, 0.3)))
        yield rng, SymAdj(adj)


class TestFindWindowReference:
    def test_matches_full_radius_scan(self):
        """Weights are mostly occupancies (>= 0); a few cases allow negative
        weights, the one way past the growth precondition to a failing scan."""
        kinds = []
        for rng, adj in fuzzed_adjacencies():
            eps = rng.choice((Fraction(1, 2), Fraction(1, 10), Fraction(3), Fraction(1, 389800)))
            for n in range(7):
                low = rng.choice((0, 0, 0, -3))
                weights = [rng.choice((0, 0, 1, 2, 5)) if low == 0 else rng.randint(low, 1) for _ in adj]
                if rng.random() < 0.3:
                    weights = [0] * len(adj)
                    weights[rng.randrange(len(adj))] = rng.randint(1, 4)
                got = outcome(find_window, adj, weights, eps, n)
                assert got == outcome(reference_find_window, adj, weights, eps, n), (adj, weights, eps, n)
                kinds.append("window" if isinstance(got, Window) else got[1].split()[0])
        assert len(kinds) == 7 * 400
        assert {"window", "growth", "no", "weight"} <= set(kinds)


def bundled_traces(seeds):
    """(system, n, trace) per tape seed and bundled system, k = 5."""
    for _, n, run in properties.bundled_runs(bundled_systems(), 5, seeds):
        yield run.system, n, run.trace()


def code_fields(code):
    return code if isinstance(code, tuple) else (code.part_ids, code.payload, code.witness)


class TestMemosMatchColdRuns:
    def test_bundled(self):
        warm = [code_fields(encode_tape(trace, n=n)) for _, n, trace in bundled_traces(range(200))]
        fresh = [code_fields(encode_tape(on_fresh_graph(trace), n=n)) for _, n, trace in bundled_traces(range(200))]
        assert len(warm) == 600 and warm == fresh
        assert sum(fields[2] is not None for fields in warm) > 300

    def test_fuzzed_with_stream_tapes(self):
        """Each fuzzed system encodes a finite and a stream tape at n and at
        n + 1 (whose partition may not be sparse enough: the same error)."""
        encoded = 0
        for run in fuzz_runs(20261019, 300, random_f0=True):
            system, n = build_system(run.system.graph, run.system.rule, "auto", Fraction(1, 2))
            run = run._replace(system=system)
            traces = [run.trace(), run_k(system, run.f0, run.k, RandomTape.stream(system.b, run.tape_seed))]
            cases = [(trace, m) for trace in traces for m in (n, n + 1)]
            warm = [code_fields(outcome(encode_tape, trace, n=m)) for trace, m in cases]
            fresh = [code_fields(outcome(encode_tape, on_fresh_graph(trace), n=m)) for trace, m in cases]
            assert warm == fresh
            encoded += sum(not isinstance(fields[0], type) for fields in warm)
        assert encoded >= 600


class TestWhatIsKept:
    def test_entry_is_the_ball_of_radius_3n(self):
        size, centre, n = 60, 30, 2
        adj = SymAdj(tuple(v for v in (x - 1, x + 1) if 0 <= v < size) for x in range(size))
        weights = [0] * size
        weights[centre] = 1
        find_window(adj, weights, Fraction(3), n)  # |B(30, 6)| = 13 < 4^2
        balls = adj.balls
        assert list(balls) == [(centre, n)]
        dist = _bfs_distances(adj, [centre])
        assert sorted(balls[centre, n]) == sorted((x, d) for x, d in enumerate(dist) if d <= 3 * n)

    def test_failing_precondition_keeps_nothing(self):
        adj = SymAdj((tuple(range(1, 8)),) + ((0,),) * 7)  # a star: |B(0, 3)| = 8
        with pytest.raises(WindowError, match="growth precondition"):
            find_window(adj, [1] * 8, Fraction(1, 2), 1)
        assert adj.balls == {}

    def test_canvas_follows_the_rule_as_well_as_the_graph(self):
        graph, rule = bundled_instances()["chain"]
        free = LocalRule(rule.b, [frozenset()] * graph.vertex_count, rule.word_lengths)
        n = graph.vertex_count
        landscapes_ = [DecoratedLandscape(graph, r, {}, {}, (0,) * n, tuple(range(n))) for r in (rule, free, rule)]
        keep = range(n - 1)
        warm = [restrict(ls, keep) for ls in landscapes_]
        fresh = [restrict(DecoratedLandscape(fresh_graph(graph), ls.rule, {}, {}, ls.final, ls.part_of), keep)
                 for ls in landscapes_]
        assert warm == fresh and warm[0][0].rule != warm[1][0].rule

    def test_one_search_per_centre_one_graph_per_window(self, monkeypatch):
        searches, graphs_built, centres, windows = [], [], set(), set()
        real_pairs, real_graph, real_find = (
            landscapes._ball_pairs, landscapes.VariableGraph, landscapes.find_window)

        def counting_pairs(adj, y, r):
            searches.append(y)
            return real_pairs(adj, y, r)

        def counting_graph(*args):
            graphs_built.append(args)
            return real_graph(*args)

        def recording_find(*args):
            window = real_find(*args)
            centres.add(window.center)
            windows.add(window.vertices)
            return window

        monkeypatch.setattr(landscapes, "_ball_pairs", counting_pairs)
        monkeypatch.setattr(landscapes, "VariableGraph", counting_graph)
        monkeypatch.setattr(landscapes, "find_window", recording_find)
        cases = properties.bundled_runs({"chain": bundled_systems()["chain"]}, 5, range(600))
        assert properties.roundtrip(cases) == (600, None)
        assert centres and len(searches) == len(set(searches)) <= len(centres)
        assert 0 < len(graphs_built) <= len(windows)


def count_stream_cells(monkeypatch):
    """Patch ``RandomTape.draw`` to count the cells each stream draw reads."""
    drawn = []
    real_draw = RandomTape.draw

    def counting_draw(tape, cells):
        cells = cells if isinstance(cells, Cells) else list(cells)
        if tape.digits is None:
            drawn.append(len(cells))
        return real_draw(tape, cells)

    monkeypatch.setattr(RandomTape, "draw", counting_draw)
    return drawn


def cold(systems, seeds):
    """The bundled cases in seed order, each run drawing its own tape."""
    return ((name, n, Run(system, 5, seed, [0] * system.graph.vertex_count))
            for seed in seeds for name, (system, n) in systems.items())


class TestTapeMemo:
    """The tape rows the bundled runs share: each seed's drawn once, for
    every system, and kept for no longer than that seed's cases."""

    @pytest.mark.parametrize("b", [2, 3, 4, 256, 257])
    def test_matches_cold_prefix(self, b):
        """With and without a ``Cells`` block shared by every seed."""
        for width in (0, 3, 7):
            for parts in (1, 4, 9, 0):
                block = Cells((i, pos) for i in range(parts) for pos in range(width))
                for seed in (0, 17, -5):
                    want = prefix(RandomTape.stream(b, seed), parts, width)
                    for got in (RandomTape.finite_random(b, parts, width, seed),
                                RandomTape.finite_random(b, parts, width, seed, cells=block)):
                        assert got == want and got.digits == want.digits, (seed, width, parts)
                        assert all(type(d) is int for row in got.digits for d in row)

    def test_bundled_rows_drawn_once(self, monkeypatch):
        """The bundled systems have 4, 13 and 24 parts: shared, a seed's 24
        rows are drawn once; each run drawing its own, 4 + 13 + 24 rows."""
        drawn = count_stream_cells(monkeypatch)
        systems, seeds = bundled_systems(), range(20)
        assert properties.roundtrip(properties.bundled_runs(systems, 5, seeds)) == (60, None)
        assert sum(drawn) == 20 * 24 * 5
        drawn.clear()
        assert properties.roundtrip(cold(systems, seeds)) == (60, None)
        assert sum(drawn) == 20 * (4 + 13 + 24) * 5

    def test_first_counterexample_is_kept(self, monkeypatch):
        """In seed order: seeds 0..16 pass on all three systems, then
        ``disjoint`` passes and ``chain`` fails at seed 17."""
        systems, seeds = bundled_systems(), range(40)
        bad = RandomTape.finite_random(2, systems["chain"][0].p, 5, 17)
        real_decode = landscapes.decode_tape

        def failing_decode(code, parts, width):
            tape = real_decode(code, parts, width)
            return None if tape == bad else tape

        monkeypatch.setattr(landscapes, "decode_tape", failing_decode)
        shared = properties.roundtrip(properties.bundled_runs(systems, 5, seeds))
        alone = properties.roundtrip(cold(systems, seeds))
        assert shared == alone == (17 * 3 + 2, {"suite": "roundtrip", "instance": "chain", "tape_seed": 17})

    def test_memory_does_not_grow_with_seeds(self):
        """The peak of a suite over 1,000 seeds is that over 100: no seed's
        rows outlive its cases.  The systems first keep some window
        geometry, and the interpreter's tuple free lists are filled under
        the trace, so that tuples parked there do not read as growth."""
        systems = bundled_systems()
        assert properties.roundtrip(properties.bundled_runs(systems, 5, range(100))) == (300, None)
        peaks = []
        tracemalloc.start()
        try:
            parked = [tuple(range(size)) for size in range(1, 21) for _ in range(4000)]
            del parked
            for count in (100, 1000):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert properties.roundtrip(properties.bundled_runs(systems, 5, range(count))) == (3 * count, None)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks

    def test_memo_lives_for_one_call(self, monkeypatch, capsys):
        """A second in-process verify draws every cell the first drew."""
        drawn = count_stream_cells(monkeypatch)
        counts = []
        for _ in range(2):
            assert main(["verify", "--seed", "2", "--tapes", "30", "--runs", "5"]) == 0
            counts.append(sum(drawn))
            drawn.clear()
        assert counts[0] == counts[1] >= 30 * 24 * 5
        assert "roundtrip: PASS (90 cases)" in capsys.readouterr().out
