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
(one comparison per distinct case) must equal the per-vertex loop.  On
graphs marked ``transitive`` (tori), the window from one ball per component
and the ranks wherever the reach is at most 2r must equal the same oracles.
"""

import bisect
import collections
import functools
import json
import math
import random
from fractions import Fraction

import pytest

from lllkit import (
    CnfInstance,
    ConditionReport,
    LocalRule,
    MtaSystem,
    Partition,
    RandomTape,
    RelGraph,
    TorusSpec,
    VariableGraph,
    ball,
    build_rel,
    bundled_instances,
    check_lll_condition,
    default_window_params,
    extract_landscape,
    from_cnf,
    greedy_mis,
    graphs,
    instance_from_json,
    instance_to_json,
    instances,
    landscapes,
    pad_uniform,
    params,
    parse_dimacs,
    random_bounded_overlap_sat,
    restrict,
    run_k,
    sparse_partition,
    torus_instance,
)
from lllkit.cli import build_system, main
from lllkit.graphs import SymAdj
from lllkit.instances import (
    _byte_error,
    default_translates,
    random_instance,
    tight_threshold,
)
from conftest import (_bfs_distances, per_row_build_rel, per_row_sym_adj, per_vertex_partition, per_vertex_rule,
                      random_symmetric_adjacency)

RADII = (0, 1, 2, 3)
EPSILONS = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2), Fraction(2))


def iterated_mis_partition(adj, r):
    """Parts are successive greedy maximal independent sets of the graph
    joining points at distance 1..2r."""
    n = len(adj)
    power = []
    for x in range(n):
        near = ball(adj, x, 2 * r) - {x}
        power.append(tuple(sorted(near)))
    part_of = [-1] * n
    remaining = set(range(n))
    part = 0
    while remaining:
        chosen = greedy_mis(power, remaining, sorted(remaining))
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
        yield SymAdj(random_symmetric_adjacency(rng, n, rng.choice((0.05, 0.1, 0.2, 0.4))))


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
    return SymAdj(union)


def random_unions(count=60, seed=20261022):
    rng = random.Random(seed)
    for _ in range(count):
        draws = list(random_graphs(count=rng.randint(1, 5), seed=rng.randrange(2**32)))
        yield disjoint_union(draws, rng)


def path(n):
    return SymAdj(tuple(y for y in (x - 1, x + 1) if 0 <= y < n) for x in range(n))


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


def shuffled_one_sided_graphs(count=200, seed=20261029):
    """Clause-variable graphs as ``random_instance`` draws them, where every
    row has at most one nonempty side, given with shuffled cl(v) lists."""
    rng = random.Random(seed)
    for i in range(count):
        graph, _ = random_instance(rng, mixed_width=i % 2 == 1)
        in_adj = [rng.sample(row, len(row)) for row in graph.in_adj]
        yield VariableGraph(graph.out_adj, in_adj)


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

    def test_empty_var_rows(self):
        """Graphs where many vertices read nothing (every CNF variable, and
        here whole graphs of them) against the dict on every row."""
        rng = random.Random(20261028)
        cases = [VariableGraph([()] * n) for n in (0, 1, 5)]
        for _ in range(300):
            n = rng.randint(1, 12)
            out_adj = [rng.sample(range(n), rng.randint(0, min(3, n))) if rng.random() < 0.3 else []
                       for _ in range(n)]
            cases.append(VariableGraph(out_adj))
        cases += shuffled_one_sided_graphs(count=100)
        for graph in cases:
            rel = build_rel(graph)
            assert rel == per_row_build_rel(graph) == sorted_build_rel(graph), graph.out_adj
            assert all(rel.nbrs[x] == () for x in range(graph.vertex_count) if not graph.var(x))


def rule_outcome(b, forbidden, word_lengths):
    """("ok", forbidden, support) of a ``LocalRule``, or ("error", message)."""
    try:
        rule = LocalRule(b, forbidden, word_lengths)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", rule.forbidden, rule.support


def reference_rule_outcome(b, forbidden, word_lengths):
    try:
        return ("ok", *per_vertex_rule(b, forbidden, word_lengths))
    except ValueError as exc:
        return "error", str(exc)


class TestRuleCheckOracle:
    """``LocalRule`` checks each distinct (set, word length) case once; its
    error must name the vertex and word the vertex-by-vertex check names."""

    def test_bad_set_shared_by_many_vertices(self):
        good, bad = frozenset({(0, 1), (1, 1)}), frozenset({(0, 1), (2, 0), (0, 5), (1,)})
        for first in (0, 3, 40):
            forbidden = [good] * first + [bad] * 50 + [good, frozenset()] * 5
            lengths = [2] * len(forbidden)
            got = rule_outcome(3, forbidden, lengths)
            assert got == reference_rule_outcome(3, forbidden, lengths)
            assert got[0] == "error" and f" at vertex {first} " in got[1], got

    def test_set_checked_at_two_word_lengths(self):
        """One set object sound at length 2 and unsound at length 3: the
        first vertex reading it at length 3 is named, wherever it comes."""
        shared = frozenset({(0, 1), (1, 0)})
        for lengths in ([2, 2, 3, 2, 3], [3, 2, 2], [2, 3], [2] * 9 + [3]):
            forbidden = [shared] * len(lengths)
            got = rule_outcome(2, forbidden, lengths)
            assert got == reference_rule_outcome(2, forbidden, lengths)
            assert got[0] == "error" and f" at vertex {lengths.index(3)} has wrong length" in got[1]
        assert rule_outcome(2, [shared, frozenset()], [2, 3]) == ("ok", (shared, frozenset()), (0,))

    def test_fuzzed_rules(self):
        """Shared sets, equal sets that are distinct objects, sets given as
        lists, empty sets at any length, and bad words of every kind."""
        rng = random.Random(20261101)
        kinds = set()
        for _ in range(600):
            b = rng.randint(1, 3)
            n = rng.randint(0, 12)
            pool = []
            for _ in range(rng.randint(1, 4)):
                length = rng.randint(0, 3)
                words = {tuple(rng.randrange(b) for _ in range(length)) for _ in range(rng.randint(0, 4))}
                if rng.random() < 0.15:
                    words.add(rng.choice(((b,) * max(length, 1), (0,) * (length + 1), (-1,), "ab", 7)))
                pool.append((frozenset(words), length))
            forbidden, lengths = [], []
            for _ in range(n):
                ws, length = rng.choice(pool)
                if rng.random() < 0.2:
                    ws = frozenset(set(ws))  # an equal set, another object
                elif rng.random() < 0.1:
                    ws = [w for w in ws if isinstance(w, tuple)]  # a list
                forbidden.append(ws)
                lengths.append(length if rng.random() < 0.85 else rng.randint(0, 3))
            got = rule_outcome(b, forbidden, lengths)
            assert got == reference_rule_outcome(b, forbidden, lengths), (b, forbidden, lengths)
            kinds.add(got[0] if got[0] == "ok" else got[1].rsplit(" has ", 1)[1].split(" ")[0])
        assert kinds == {"ok", "wrong", "digits"}


def partition_outcome(check, part_count, part_of):
    try:
        return "ok", check(part_count, part_of)
    except ValueError as exc:
        return "error", str(exc)


class TestPartitionCheckOracle:
    """``Partition`` decides its range by min/max; its error must name the
    vertex the vertex-by-vertex check names."""

    def outcomes(self, part_count, part_of):
        got = partition_outcome(lambda c, p: Partition(c, p).part_of, part_count, part_of)
        assert got == partition_outcome(per_vertex_partition, part_count, part_of), (part_count, part_of)
        return got

    @pytest.mark.parametrize("at", [0, 17, 39])
    @pytest.mark.parametrize("bad", [5, 9, -1, -7])
    def test_first_offender_named(self, at, bad):
        """One offender at the start, middle or end; then a second, later
        offender of the other kind, which must not be the one named."""
        part_of = [x % 5 for x in range(40)]
        part_of[at] = bad
        assert self.outcomes(5, part_of) == ("error", f"vertex {at} assigned to part {bad} outside 0..4")
        if at < 39:
            part_of[39] = -3 if bad > 0 else 12
            assert self.outcomes(5, part_of)[1].startswith(f"vertex {at} ")

    def test_no_parts(self):
        assert self.outcomes(0, []) == ("ok", ())
        assert self.outcomes(0, [0]) == ("error", "vertex 0 assigned to part 0 outside 0..-1")
        assert self.outcomes(0, (-1, 0)) == ("error", "vertex 0 assigned to part -1 outside 0..-1")

    def test_fuzzed(self):
        rng = random.Random(20261021)
        kinds = set()
        for _ in range(400):
            count, n = rng.randint(0, 6), rng.randint(0, 30)
            part_of = [rng.randint(-2, count + 1) if rng.random() < 0.05 else rng.randrange(max(count, 1))
                       for _ in range(n)]
            kinds.add(self.outcomes(count, part_of)[0])
        assert kinds == {"ok", "error"}


def per_vertex_condition(graph, rule):
    """The loop ``check_lll_condition`` replaced: a probability, a
    comparison and a margin computed for every vertex."""
    delta = params(graph, rule).delta
    if delta == 0:
        return ConditionReport(0, Fraction(1), None, True)
    lo = tight_threshold(delta)
    probs = [Fraction(len(rule.forbidden[x]), rule.b ** rule.word_lengths[x]) for x in range(graph.vertex_count)]
    margins = [lo - p for p in probs if p]
    all_pass = all(p < lo for p in probs if p)
    return ConditionReport(delta, lo, min(margins, default=None), all_pass)


class TestConditionOracle:
    def assert_same(self, graph, rule):
        assert check_lll_condition(graph, rule, "tight") == per_vertex_condition(graph, rule)

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


# ---------------------------------------------------------------------------
# One pass per set-up stage: DIMACS tokenising, canonical clauses, sym_adj,
# shared sign patterns, one component pass, one condition check
# ---------------------------------------------------------------------------


def reference_canonical(variable_count, clauses):
    """The canonicalisation ``CnfInstance`` did before its fast paths, and
    still does where its check of all literals at once fails: a keyed sort
    by variable, then the checks literal by literal."""
    canon = []
    seen = set()
    for idx, clause in enumerate(clauses):
        lits = tuple(sorted(((v, s) for v, s in clause), key=lambda t: t[0]))
        if not lits:
            raise ValueError(f"clause {idx} is empty")
        vs = [v for v, _ in lits]
        if len(set(vs)) != len(vs):
            raise ValueError(f"clause {idx} repeats a variable: {lits}")
        for v, s in lits:
            if not 0 <= v < variable_count:
                raise ValueError(f"clause {idx} uses variable {v} outside 0..{variable_count - 1}")
            if s not in (1, -1):
                raise ValueError(f"clause {idx} has sign {s}, expected +1/-1")
        if lits in seen:
            raise ValueError(f"clause {idx} duplicates an earlier clause: {lits}")
        seen.add(lits)
        canon.append(lits)
    return variable_count, tuple(canon)


def reference_parse_dimacs(text, clause_size=3):
    """``parse_dimacs`` before it converted all clause lines in one map:
    each token converted, and its error (naming the line of a non-UTF-8
    byte) raised, where it is read; then ``reference_canonical``."""
    header = None
    tokens = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if not line.startswith("p"):
            for token in line.split():
                try:
                    tokens.append(int(token))
                except ValueError as error:
                    raise _byte_error(number, token) or error from None
            continue
        parts = line.split()
        try:
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"bad problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            if min(header) < 0:
                raise ValueError(f"bad problem line: {line!r}")
        except ValueError as error:
            raise _byte_error(number, line) or error from None
    if header is None:
        raise ValueError("missing 'p cnf' header")
    n_vars, n_clauses = header
    clauses = []
    current = []
    for t in tokens:
        if t == 0:
            if current:
                clauses.append(current)
                current = []
            continue
        v = abs(t) - 1
        if v >= n_vars:
            raise ValueError(f"literal {t} exceeds declared variable count {n_vars}")
        current.append((v, 1 if t > 0 else -1))
    if current:
        raise ValueError("last clause is not 0-terminated")
    if len(clauses) != n_clauses:
        raise ValueError(f"header declares {n_clauses} clauses, found {len(clauses)}")
    if clause_size is not None:
        for i, clause in enumerate(clauses):
            if len(clause) != clause_size:
                raise ValueError(f"clause {i} has {len(clause)} literals, expected {clause_size}")
    return reference_canonical(n_vars, clauses)


def outcome(build):
    """("ok", variable count, clauses) of a CNF build, or ("error", message)."""
    try:
        result = build()
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, CnfInstance):
        result = result.variable_count, result.clauses
    return ("ok", *result)


# Each fault and a fragment of the first error it causes.
DIMACS_FAULTS = {
    "bad p line": "",  # "bad problem line" or the int() message of a bad count
    "missing header": "missing 'p cnf' header",
    "literal above count": "exceeds declared variable count",
    "missing final 0": "not 0-terminated",
    "wrong clause count": "header declares",
    "wrong width": "literals, expected 3",
    "repeated variable": "repeats a variable",
    "duplicate clause": "duplicates an earlier clause",
    "non-integer token": "invalid literal for int()",
}


def dimacs_case(rng):
    """(text, clause_size, fault or None): a random DIMACS text with ``c``,
    ``%`` and blank lines, LF, CRLF or CR line ends, clauses spread over
    lines and several on one line, widths 1..5 under ``clause_size=None``,
    and at most one fault."""
    fault = rng.choice([None] * 4 + list(DIMACS_FAULTS))
    clause_size = 3 if fault == "wrong width" else rng.choice((3, None))
    n_vars = rng.randint(5, 9)
    clauses = []
    for _ in range(rng.randint(1, 8)):
        width = 3 if clause_size else rng.randint(1, 5)
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), width)]
        if {*clause} not in [{*c} for c in clauses]:
            clauses.append(clause)
    count = len(clauses)
    target = rng.choice(clauses)
    if fault == "literal above count":
        target[rng.randrange(len(target))] = rng.choice((1, -1)) * (n_vars + rng.randint(1, 3))
    elif fault == "wrong width":
        target[:] = target[:2] if rng.random() < 0.5 else target + [
            rng.choice([v for v in range(1, n_vars + 1) if v not in map(abs, target)])
        ]
    elif fault == "repeated variable":
        if len(target) == 1:
            target.append(target[0])
        target[-1] = rng.choice((1, -1)) * abs(target[0])
    elif fault == "duplicate clause":
        clauses.append(rng.sample(target, len(target)))
        count += 1
    elif fault == "wrong clause count":
        count += rng.choice((-1, 1))
    tokens = [str(lit) for clause in clauses for lit in clause + [0] * rng.choice((1, 1, 1, 2))]
    if fault == "missing final 0":
        while tokens[-1] == "0":
            tokens.pop()
    elif fault == "non-integer token":
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(("x", "1.5", "3x", "--2", "1e3", "0x1")))
    lines = [[]]
    for token in tokens:
        lines[-1].append(token)
        if rng.random() < 0.3:
            lines.append([])
    lines = [" " * rng.randint(0, 2) + rng.choice((" ", "  ", "\t")).join(line) for line in lines]
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("c a comment", "c", "%", "% 0", "", "   ")))
    header = f"p cnf {n_vars} {count}"
    if fault == "bad p line":
        header = rng.choice((f"p dnf {n_vars} {count}", f"p cnf {n_vars}", f"p cnf x {count}",
                             f"p cnf {n_vars} {count} 1", "p", f"p cnf {n_vars} 2.0"))
    if fault != "missing header":
        lines.insert(0 if rng.random() < 0.7 else rng.randint(0, len(lines)), header)
    if rng.random() < 0.2 and fault != "missing final 0":
        lines += ["%", "0"]  # the SATLIB ending
    end = rng.choice(("\n", "\n", "\r\n", "\r"))
    return end.join(lines) + end * rng.randint(0, 1), clause_size, fault


LITERAL = collections.namedtuple("LITERAL", "variable sign")


class TestDimacsOracle:
    def test_fuzzed_texts(self):
        rng = random.Random(20261024)
        errors = {}
        parsed = 0
        for _ in range(600):
            text, clause_size, fault = dimacs_case(rng)
            got = outcome(lambda: parse_dimacs(text, clause_size))
            assert got == outcome(lambda: reference_parse_dimacs(text, clause_size)), (text, clause_size)
            if fault is None:
                assert got[0] == "ok", (text, got)
                parsed += 1
            else:
                assert got[0] == "error" and DIMACS_FAULTS[fault] in got[1], (fault, text, got)
                errors[fault] = errors.get(fault, 0) + 1
        assert parsed >= 100
        assert set(errors) == set(DIMACS_FAULTS) and min(errors.values()) >= 20, errors

    @pytest.mark.parametrize("text", [
        "1 2 x 0\np dnf 3 1\n",  # a bad token before a bad problem line
        "1 2 x 0\np cnf y 1\n",
        "p cnf 3 1\n1 2 3 0\np cnf 4 1\n",  # the last problem line counts
        "p cnf 3 1\np cnf 3 q\n",
        "c only comments\n%\n",
        "p cnf 3 2\n1 2 3 0 0 0\n-1 2 3 0\n",
        "p cnf -1 0\n0 0\n",
        "p cnf 0 1\n1 0\n",
    ])
    def test_fault_order(self, text):
        for clause_size in (3, None):
            got = outcome(lambda: parse_dimacs(text, clause_size))
            assert got == outcome(lambda: reference_parse_dimacs(text, clause_size))

    BAD_TOKENS = ("x", "1.5", "3x", "--2", "1e3", "\udcff", "1\udcc32", "-\udc80")

    def test_bad_token_mid_line(self):
        """A non-integer token or a non-UTF-8 byte (a lone surrogate, as
        ``surrogateescape`` decodes it) inside a clause line names the same
        line and token as the token-by-token read, also with a second bad
        token or a bad problem line after it."""
        rng = random.Random(20261031)
        seen = set()
        for _ in range(400):
            text, clause_size, fault = dimacs_case(rng)
            if fault is not None:
                continue
            lines = text.splitlines()
            clause_lines = [i for i, line in enumerate(lines) if line.strip() and line.strip()[0] not in "cp%"]
            i = rng.choice(clause_lines)
            tokens = lines[i].split()
            bad = rng.choice(self.BAD_TOKENS)
            tokens.insert(rng.randint(1, max(1, len(tokens) - 1)), bad)
            lines[i] = " ".join(tokens)
            if rng.random() < 0.3:
                lines.insert(rng.randint(i + 1, len(lines)), rng.choice(("1 y 0", "p dnf 1 1", "p cnf \udcfe 1")))
            broken = "\n".join(lines) + "\n"
            got = outcome(lambda: parse_dimacs(broken, clause_size))
            assert got == outcome(lambda: reference_parse_dimacs(broken, clause_size)), broken
            assert got[0] == "error" and got[1].startswith((f"line {i + 1}: byte", "invalid literal")), (broken, got)
            seen.add("byte" if got[1].startswith("line") else "token")
        assert seen == {"byte", "token"}

    @pytest.mark.parametrize("text", [
        "p cnf 3 1\n1 x 2 3 0\n",
        "p cnf 3 1\n1 2 \udcff 3 0\n",
        "p cnf 3 1\n1 2\udc80 3 0\n",
        "p cnf 3 1\n1 2 3 0\n1 \udcff x 0\n",
        "p cnf 3 1\n1 x 3 0\np dnf 3 1\n",
        "p dnf 3 1\n1 x 3 0\n",
        "c \udcff in a comment\np cnf 3 1\n1 -2 3 0\n",
    ])
    def test_bad_token_lines(self, text):
        for clause_size in (3, None):
            got = outcome(lambda: parse_dimacs(text, clause_size))
            assert got == outcome(lambda: reference_parse_dimacs(text, clause_size)), got

    LITERAL_FAULTS = ("is empty", "repeats a variable", "outside", "has sign", "duplicates")

    @pytest.mark.parametrize("clauses", [
        [[[0, 1], [1, -1]]],  # list literals
        [[(True, 1), (0, -1)]],  # a bool variable, as 1
        [[(True, 1), (1, -1)]],
        [[(0, True), (1, -1.0)]],  # signs equal to +-1 but not ints
        [[(0.0, 1), (1, 1)]],
        [[(math.nan, 1)]],
        [[(0, 1, 5)]],  # literals of other lengths
        [[(0,)]],
        [[(0, 1)], [(0, 1), ("a", 1)]],  # literals that do not sort
        [[], [(0, 1), ("a", 1)]],
        [[(0, [1])]],  # an unhashable sign
        [[LITERAL(0, 1), (1, -1)]],  # a tuple subclass, stored as a plain tuple
        [[(1, 1), (0, 1)], [(0, 1), (1, 1)]],  # a duplicate after sorting
        [[(2, 1)], [(0, 1), (0, -1)]],
        [[(0, 1), (1, 1)], [(1, -1), (2, 1), (2, -1)]],  # repeats on a clause's inside, not its edge
        [[(0, 1), (1, 1)], [(1, -1), (2, 1)]],  # equal neighbours across a clause edge
    ])
    def test_literal_kinds(self, clauses):
        """Literals off the plain path (lists, bools, floats, other lengths,
        unsortable or unhashable parts) and repeats at and inside clause
        edges give what the literal-by-literal check gives, errors included."""

        def result(build):
            try:
                return outcome(build)
            except Exception as exc:  # a TypeError, as the reference raises it
                return type(exc).__name__, str(exc)

        got = result(lambda: CnfInstance(3, clauses))
        assert got == result(lambda: reference_canonical(3, clauses))
        if got[0] == "ok":
            assert all(type(lit) is tuple for clause in got[2] for lit in clause)

    def test_literal_lists(self):
        """``CnfInstance`` on clause lists with every literal fault: empty
        clauses, repeated variables with either sign, variables out of
        range and signs other than +-1."""
        rng = random.Random(20261025)
        kinds = set()
        for _ in range(800):
            n = rng.randint(1, 6)
            clauses = []
            for _ in range(rng.randint(0, 5)):
                width = rng.randint(0, min(n, 4))
                clause = [(v, rng.choice((1, -1))) for v in rng.sample(range(n), width)]
                if clause and rng.random() < 0.1:
                    v, s = rng.choice(clause)
                    clause.insert(rng.randint(0, len(clause)), (v, rng.choice((s, -s))))
                if clause and rng.random() < 0.05:
                    clause[rng.randrange(len(clause))] = (rng.choice((-1, n, n + 2)), 1)
                if clause and rng.random() < 0.05:
                    clause[rng.randrange(len(clause))] = (rng.randrange(n), rng.choice((0, 2, -2)))
                if clauses and rng.random() < 0.05:
                    clause = rng.sample(clauses[0], len(clauses[0]))
                clauses.append(clause)
            got = outcome(lambda: CnfInstance(n, clauses))
            assert got == outcome(lambda: reference_canonical(n, clauses)), (n, clauses)
            kinds.add(got[0] if got[0] == "ok" else next(k for k in self.LITERAL_FAULTS if k in got[1]))
        assert kinds == {"ok", *self.LITERAL_FAULTS}


def oriented(adj, rng):
    """A variable graph keeping each edge of a symmetric graph one way or
    both, with some self-loops and every var(x) shuffled."""
    out = [[] for _ in adj]
    for x, row in enumerate(adj):
        for y in row:
            if x < y:
                way = rng.randrange(3)
                if way != 1:
                    out[x].append(y)
                if way != 0:
                    out[y].append(x)
        if rng.random() < 0.3:
            out[x].append(x)
    for row in out:
        rng.shuffle(row)
    return VariableGraph(out)


class TestSymAdjOracle:
    def test_random_graphs(self):
        rng = random.Random(20261026)
        for adj in random_graphs():
            for graph in (VariableGraph(adj), oriented(adj, rng)):
                assert graph.sym_adj == per_row_sym_adj(graph), graph.out_adj

    def test_shuffled_cl_orders(self):
        for graph in shuffled_variable_graphs(count=100):
            assert graph.sym_adj == per_row_sym_adj(graph), (graph.out_adj, graph.in_adj)

    @pytest.mark.parametrize("name", ["disjoint", "chain", "torus"])
    def test_bundled(self, name):
        graph, _ = bundled_instances()[name]
        assert graph.sym_adj == per_row_sym_adj(graph)
        assert all(type(row) is tuple for row in graph.sym_adj)

    def test_one_sided_rows(self):
        """Rows with an empty var or cl side, cl given unsorted, against the
        union on every row; the solve-cnf shape at full size too."""
        cases = list(shuffled_one_sided_graphs())
        rng = random.Random(20261030)
        for _ in range(100):  # an empty side on some rows, self-loops on others
            n = rng.randint(1, 10)
            out_adj = [rng.sample(range(n), rng.randint(0, min(3, n))) if rng.random() < 0.4 else []
                       for _ in range(n)]
            in_adj = [[x for x in range(n) if y in out_adj[x]] for y in range(n)]
            cases.append(VariableGraph(out_adj, [rng.sample(row, len(row)) for row in in_adj]))
        cases.append(from_cnf(random_bounded_overlap_sat(2000, 3, 0))[0])
        assert any(graph.in_adj != tuple(map(tuple, map(sorted, graph.in_adj))) for graph in cases)
        for graph in cases:
            sym = graph.sym_adj
            assert sym == per_row_sym_adj(graph), (graph.out_adj, graph.in_adj)
            assert all(type(row) is tuple for row in sym)


def reference_components(adj):
    """Components by a whole-graph BFS from each least unreached vertex."""
    reached = set()
    components = []
    for s in range(len(adj)):
        if s not in reached:
            dist = _bfs_distances(adj, [s])
            members = [x for x in range(len(adj)) if dist[x] != math.inf]
            reached.update(members)
            components.append((members, max(dist[x] for x in members)))
    return components


def listed(components):
    return [(list(members), reach) for members, reach in components]


@pytest.fixture
def component_passes(monkeypatch):
    """Counts the component passes made from here on; graphs built from here
    on start with no kept result."""
    passes = []
    real = graphs._component_pass

    def counting(adj):
        passes.append(adj)
        return real(adj)

    monkeypatch.setattr(graphs, "_component_pass", counting)
    return passes


class TestComponentsKept:
    def test_random_graphs(self):
        for adj in random_graphs():
            assert listed(adj.components) == reference_components(adj), adj

    @pytest.mark.parametrize("name", NAMED)
    def test_named_graphs(self, name):
        adj = named_graphs()[name]
        assert listed(adj.components) == reference_components(adj)

    def test_one_pass_per_auto_build(self, component_passes):
        graph, rule, _ = from_cnf(random_bounded_overlap_sat(2000, 3, 0))
        for graph, rule in [(graph, rule), *bundled_instances().values()]:
            before = len(component_passes)
            build_system(graph, rule, "auto", Fraction(1, 2))
            assert component_passes[before:] == [graph.sym_adj]

    def test_identity_not_equality_of_size(self, component_passes):
        """Two graphs of one size, asked for in turn, each keep their own
        components; asking again for either makes no pass."""
        a = VariableGraph(path(6)).sym_adj
        b = VariableGraph(disjoint_union([path(2), path(4)], random.Random(1))).sym_adj
        for adj in (a, a, b, b, a, b):
            assert listed(adj.components) == reference_components(adj)
        assert component_passes == [a, b]
        assert component_passes[0] is a and component_passes[1] is b


class TestSharedSignPatterns:
    def test_three_cnf_has_at_most_eight_sets(self):
        cnf = random_bounded_overlap_sat(2000, 3, 0)
        graph, rule, _ = from_cnf(cnf)
        m = cnf.clause_count
        assert len({id(ws) for ws in rule.forbidden[:m]}) <= 8
        assert len({id(ws) for ws in rule.forbidden[m:]}) == 1 and not rule.forbidden[m]
        # the same sets as one fresh set per clause
        words = [tuple(0 if s > 0 else 1 for _, s in clause) for clause in cnf.clauses]
        assert rule == LocalRule(2, [frozenset([w]) for w in words] + [frozenset()] * cnf.variable_count,
                                 rule.word_lengths)

    def test_mixed_widths(self):
        cnf = parse_dimacs("p cnf 5 5\n1 0\n-2 0\n1 -3 0\n-4 5 0\n-1 2 3 4 -5 0\n", clause_size=None)
        _, rule, _ = from_cnf(cnf)
        assert rule.forbidden[:5] == (
            frozenset([(0,)]), frozenset([(1,)]), frozenset([(0, 1)]), frozenset([(1, 0)]),
            frozenset([(1, 0, 0, 0, 1)]),
        )


def test_generate_checks_the_condition_once(monkeypatch, capsys):
    """``solve --generate`` checks its instance once, and prints the
    condition a fresh check gives."""
    calls = []
    real = instances.check_lll_condition

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(instances, "check_lll_condition", counting)
    assert main(["solve", "--generate", "2000,3", "--seed", "0"]) == 0
    assert len(calls) == 1
    printed = json.loads(capsys.readouterr().out)["condition"]
    graph, rule, _ = from_cnf(random_bounded_overlap_sat(2000, 3, 0))
    report = real(graph, rule)
    assert printed == {"variant": "tight", "delta": report.delta, "threshold": str(report.threshold_lo),
                       "worst_margin": str(report.worst_margin), "all_pass": True}


# ---------------------------------------------------------------------------
# The transitive mark: one ball per component in the window search, ranks in
# the partition wherever the reach is at most 2r
# ---------------------------------------------------------------------------


def torus_specs(count=60, seed=20261027):
    """Small torus specs in dimensions 1 to 3 with 2 to 5 translates, drawn
    from a box of twice the side so that some generate a proper subgroup
    and the torus falls into several components."""
    rng = random.Random(seed)
    specs = [TorusSpec(1, 12, ((0,), (4,)), 2), TorusSpec(1, 30, ((0,), (6,), (10,)), 2),
             TorusSpec(2, 8, ((0, 0), (2, 0), (0, 2)), 2), TorusSpec(3, 4, ((0, 0, 0), (2, 0, 0), (0, 2, 2)), 2)]
    while len(specs) < count:
        d = rng.randint(1, 3)
        side = rng.randint(3, {1: 60, 2: 10, 3: 5}[d])
        step = rng.choice((1, 1, 2, 3))  # a common factor of the translates
        box = [tuple(step * rng.randrange(2 * side) for _ in range(d)) for _ in range(rng.randint(2, 5))]
        translates = tuple({tuple(c % side for c in t): t for t in box}.values())
        if len(translates) >= 2:
            specs.append(TorusSpec(d, side, translates, 2))
    return specs


def marked(spec):
    """The torus's ``SymAdj``, which carries the mark."""
    adj = torus_instance(spec)[0].sym_adj
    assert adj.transitive
    return adj


def with_mark(adj):
    """A marked copy of an adjacency."""
    copy = SymAdj(adj)
    copy.transitive = True
    return copy


def centred_path(n):
    """A path on n vertices labelled by distance from its middle, so that the
    least vertex's reach is half the diameter."""
    order = sorted(range(n), key=lambda i: (abs(2 * i - (n - 1)), i))
    label = {x: i for i, x in enumerate(order)}
    rows = [()] * n
    for x in range(n):
        rows[label[x]] = tuple(sorted(label[y] for y in (x - 1, x + 1) if 0 <= y < n))
    return SymAdj(rows)


@pytest.fixture
def ball_calls(monkeypatch):
    """Counts the balls the set-up geometry takes from here on."""
    calls = []
    real = graphs.ball

    def counting(adj, x, r, limit=math.inf):
        calls.append(x)
        return real(adj, x, r, limit)

    monkeypatch.setattr(graphs, "ball", counting)
    monkeypatch.setattr(landscapes, "ball", counting)
    return calls


class TestTransitiveMark:
    def test_specs_cover_several_components_and_three_dimensions(self):
        specs = torus_specs()
        assert len(specs) >= 50
        assert sum(len(marked(spec).components) > 1 for spec in specs) >= 10
        assert sum(spec.dimension == 3 for spec in specs) >= 10

    def test_window_matches_full_search(self, ball_calls):
        for spec in torus_specs():
            adj = marked(spec)
            for eps in EPSILONS:
                before = len(ball_calls)
                n = default_window_params(adj, eps)
                assert n == full_bfs_window_params(adj, eps), (spec, eps)
                assert len(ball_calls) - before <= n * len(adj.components), (spec, eps)

    def test_partition_matches_iterated_mis(self, ball_calls):
        shortcuts = 0
        for spec in torus_specs():
            adj = marked(spec)
            reach = adj.components[0][1]
            between = [r for r in range(reach) if r < reach <= 2 * r]
            for r in RADII + tuple(between):
                before = len(ball_calls)
                assert sparse_partition(adj, r) == iterated_mis_partition(adj, r), (spec, r)
                if r in between:
                    assert len(ball_calls) == before, (spec, r)  # ranks, no first fit
                    shortcuts += 1
        assert shortcuts >= 100

    @pytest.mark.parametrize("name", ["path-100", "centred-path-101", "small-and-long-path"])
    def test_a_misplaced_mark_is_caught(self, name):
        """The oracles above see a mark on a graph that is not transitive."""
        adj = {"path-100": path(100), "centred-path-101": centred_path(101),
               "small-and-long-path": named_graphs()["small-and-long-path"]}[name]
        wrong = with_mark(adj)
        windows = [eps for eps in EPSILONS
                   if default_window_params(wrong, eps) != full_bfs_window_params(adj, eps)]
        partitions = [r for r in range(1, 60)
                      if sparse_partition(wrong, r) != iterated_mis_partition(adj, r)]
        assert windows or partitions, name

    def test_other_builders_leave_graphs_unmarked(self, tmp_path):
        spec = TorusSpec(2, 6, default_translates(2, 4), 2)
        graph, rule = torus_instance(spec)
        system = MtaSystem.build(graph, rule, Partition.singletons(graph.vertex_count))
        trace = run_k(system, [0] * graph.vertex_count, 4, RandomTape.stream(2, 3))
        restricted, _ = restrict(extract_landscape(trace), ball(graph.sym_adj, 0, 2))
        padded, _ = pad_uniform(system)
        saved, _ = instance_from_json(instance_to_json(graph, rule))
        cnf, _, _ = from_cnf(random_bounded_overlap_sat(50, 3, 0))
        assert padded.graph == saved == graph  # the same torus, built another way
        for other in (restricted.graph, padded.graph, saved, cnf, VariableGraph(graph.out_adj)):
            assert not other.transitive and not other.sym_adj.transitive


class TestSetupCliffs:
    """Item 11's scaling check as counts: on tori of 16,384 and 18,496 points
    the window search takes at most one ball per tried n and component."""

    @pytest.mark.parametrize("spec", ["1,16384,10,2", "2,136,4,2"])
    def test_window_takes_a_ball_per_n_and_component(self, spec, ball_calls):
        d, m, count, b = map(int, spec.split(","))
        adj = marked(TorusSpec(d, m, default_translates(d, count), b))
        n = default_window_params(adj)
        assert 0 < len(ball_calls) <= n * len(adj.components), (len(ball_calls), n)
        assert n == {"1,16384,10,2": 17, "2,136,4,2": 24}[spec]
