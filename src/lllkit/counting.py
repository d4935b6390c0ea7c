"""Exact combinatorial counting and bound verification.

Trees here are oriented, in-degree at most 1, with out-edges labelled by
distinct elements of {0..delta-1}; their counts satisfy the fixed-point
equation P(X) = X (1 + P(X))^delta and are verified against an independent
closed form and a brute-force object enumeration.  All verified
inequalities are evaluated in exact integers/rationals.
"""

from __future__ import annotations

import bisect
import itertools
import marshal
import math
import os
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .engine import MtaSystem, RandomTape, run_until_satisfied
from .graphs import LocalRule, VariableGraph, Word
from .instances import tight_threshold
from .landscapes import canvas_sources

# ---------------------------------------------------------------------------
# Truncated polynomial helpers (integer coefficients, degree <= cap)
# ---------------------------------------------------------------------------


def _poly_mul(a: Sequence[int], b: Sequence[int], cap: int) -> list[int]:
    out = [0] * (min(len(a) + len(b) - 1, cap + 1))
    for i, ai in enumerate(a):
        if ai == 0 or i > cap:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += ai * bj
    return out


def _poly_pow(base: Sequence[int], exp: int, cap: int) -> list[int]:
    result = [1]
    power = list(base)
    while exp:
        if exp & 1:
            result = _poly_mul(result, power, cap)
        exp >>= 1
        if exp:
            power = _poly_mul(power, power, cap)
    return result


def tree_count_iterates(delta: int, n_max: int, steps: int) -> list[list[int]]:
    """Coefficient lists of Q_0, Q_1, ..., Q_steps truncated at degree n_max.

    Q_i(X) counts trees by vertex number among those of depth at most i, so
    Q_0 = X and Q_{i+1}(X) = X (1 + Q_i(X))^delta; the first n+1
    coefficients freeze once i >= n and equal the full counts.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    iterates = []
    q: list[int] = [0, 1][: n_max + 1]
    for _ in range(steps + 1):
        iterates.append(list(q) + [0] * (n_max + 1 - len(q)))
        one_plus = [q[0] + 1] + q[1:]
        powered = _poly_pow(one_plus, delta, n_max)
        q = ([0] + powered)[: n_max + 1]
    return iterates


def count_labelled_trees(delta: int, n: int) -> int:
    """Exact number of delta-labelled trees with n vertices, by coefficient
    extraction from the stabilized iteration."""
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    iterates = tree_count_iterates(delta, n, n)
    return iterates[-1][n]


def fuss_catalan(delta: int, n: int) -> int:
    """Closed-form oracle: (1/(delta n + 1)) C(delta n + 1, n)."""
    if n == 0:
        return 0
    q, r = divmod(math.comb(delta * n + 1, n), delta * n + 1)
    if r:
        raise AssertionError("closed form is not an integer; formula misused")
    return q


def labelled_tree_bound(delta: int, n: int) -> Fraction:
    """(delta^delta / (delta-1)^(delta-1))^n, an upper bound for the count."""
    if delta < 2:
        raise ValueError("the bound requires delta >= 2")
    return (1 / tight_threshold(delta)) ** n


# ---------------------------------------------------------------------------
# The landscape iso-class bound
# ---------------------------------------------------------------------------


def landscape_class_prefactor(d: int, delta: int, n1: int, p: int, b: int) -> int:
    """The part of the bound that does not depend on the forest size:
    graphs x orders x rules x final x partition x tree anchoring."""
    if min(d, n1, p, b) < 0 or delta < 2:
        raise ValueError("bad parameters")
    return (
        n1
        * (n1 + 1) ** (d * n1)
        * math.factorial(d) ** n1
        * math.factorial(delta) ** n1
        * 2 ** (b ** d * n1)
        * b ** n1
        * p ** n1
        * n1 ** n1
    )


def landscape_class_bound(
    d: int, delta: int, beta: int, n1: int, n2: int, p: int, b: int
) -> Fraction:
    """Upper bound on iso-classes of grounded decorated landscapes of type
    (d, delta, beta, n1, n2, p).

    The forest-size factor max(n2, 1)^n1 uses 1 at n2 = 0 (one empty
    sequence of trees exists; the literal power would degenerate to 0).
    """
    if delta < 2:
        raise ValueError("the bound requires delta >= 2")
    prefactor = landscape_class_prefactor(d, delta, n1, p, b)
    ratio = 1 / tight_threshold(delta)
    return prefactor * max(n2, 1) ** n1 * (ratio * beta) ** n2


class CountReport(NamedTuple):
    kind: str
    params: dict
    count: int
    bound: Fraction
    passed: bool


def tree_count_reports(deltas: Iterable[int], n_max: int) -> list[CountReport]:
    reports = []
    for delta in deltas:
        counts = tree_count_iterates(delta, n_max, n_max)[-1]  # frozen up to degree n_max
        for n in range(1, n_max + 1):
            count = counts[n]
            bound = labelled_tree_bound(delta, n)
            reports.append(
                CountReport("tree", {"delta": delta, "n": n}, count, bound, count <= bound)
            )
    return reports


def landscape_count_reports(points: Iterable[tuple[int, int, int, int, int, int, int]]) -> list[CountReport]:
    reports = []
    for d, delta, beta, n1, n2, p, b in points:
        count = len(enumerate_small_landscapes(d, delta, beta, n1, n2, p, b))
        bound = landscape_class_bound(d, delta, beta, n1, n2, p, b)
        reports.append(
            CountReport(
                "landscape",
                {"D": d, "delta": delta, "beta": beta, "N1": n1, "N2": n2, "p": p, "b": b},
                count,
                bound,
                count <= bound,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Exhaustive enumeration of tiny grounded decorated landscapes
# ---------------------------------------------------------------------------


def _ordered_sublists(items: Sequence[int], max_len: int):
    for length in range(0, max_len + 1):
        yield from itertools.permutations(items, length)


def _graph_candidates(n1: int, d: int):
    """All (out_adj, in_adj-order) combinations on exactly n1 vertices."""
    per_vertex = list(_ordered_sublists(range(n1), d))
    for out_choice in itertools.product(per_vertex, repeat=n1):
        in_sets: list[list[int]] = [[] for _ in range(n1)]
        for x in range(n1):
            for y in out_choice[x]:
                in_sets[y].append(x)
        in_orders = [list(itertools.permutations(s)) for s in in_sets]
        for in_choice in itertools.product(*in_orders):
            yield VariableGraph(out_choice, in_choice)


def _rule_candidates(graph: VariableGraph, b: int, beta: int):
    """Per-vertex forbidden sets of size at most beta."""
    lengths = [len(graph.var(x)) for x in range(graph.vertex_count)]
    per_vertex = []
    for n in lengths:
        full = list(itertools.product(range(b), repeat=n))
        sizes = range(min(beta, len(full)) + 1)
        per_vertex.append([frozenset(ws) for k in sizes for ws in itertools.combinations(full, k)])
    for combo in itertools.product(*per_vertex):
        yield LocalRule(b, combo, lengths)


def _grounded_forests(graph: VariableGraph, n2: int):
    """(vertex set, parent map) pairs of grounded forests with n2 vertices."""
    if n2 == 0:
        yield frozenset(), {}
        return
    slots = [(x, lvl) for lvl in range(n2) for x in range(graph.vertex_count)]
    for combo in itertools.combinations(slots, n2):
        by_level: dict[int, list[int]] = {}
        for x, lvl in combo:
            by_level.setdefault(lvl, []).append(x)
        ok = True
        for lvl, bases in by_level.items():
            for a, c in itertools.combinations(bases, 2):
                if c in graph.rel[a]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        vert_set = frozenset(combo)
        parent_options = [(v, canvas_sources(graph.rel, vert_set, v)) for v in combo if v[1] > 0]
        if not all(candidates for _, candidates in parent_options):
            continue  # a level>0 vertex with no parent is a high root
        keys = [v for v, _ in parent_options]
        for choice in itertools.product(*(c for _, c in parent_options)):
            yield vert_set, dict(zip(keys, choice))


def _canonical_key(graph, rule, verts, parent, prev, final, parts):
    n1 = graph.vertex_count
    best = None
    for perm in itertools.permutations(range(n1)):
        out_adj = [None] * n1
        in_adj = [None] * n1
        forbidden = [None] * n1
        fin = [0] * n1
        par = [0] * n1
        for x in range(n1):
            out_adj[perm[x]] = tuple(perm[y] for y in graph.var(x))
            in_adj[perm[x]] = tuple(perm[y] for y in graph.cl(x))
            forbidden[perm[x]] = tuple(sorted(rule.forbidden[x]))
            fin[perm[x]] = final[x]
            par[perm[x]] = parts[x]
        vs = tuple(sorted((perm[x], lvl) for x, lvl in verts))
        ps = tuple(
            sorted(((perm[c[0]], c[1]), (perm[q[0]], q[1])) for c, q in parent.items())
        )
        pv = tuple(sorted(((perm[v[0]], v[1]), w) for v, w in prev.items()))
        key = (tuple(out_adj), tuple(in_adj), tuple(forbidden), vs, ps, pv, tuple(fin), tuple(par))
        if best is None or key < best:
            best = key
    return best


def enumerate_small_landscapes(
    d: int,
    delta: int,
    beta: int,
    n1: int,
    n2: int,
    p: int,
    b: int,
) -> set[tuple]:
    """The canonical keys (``_canonical_key``) of the iso-classes of grounded
    decorated landscapes of the given type, found by exhaustive generation;
    their number is the class count.  Vertex counts 1..n1 are all included.
    """
    seen: set = set()
    for size in range(1, n1 + 1):
        for graph in _graph_candidates(size, d):
            if any(len(row) > delta for row in graph.rel):
                continue
            forests = list(_grounded_forests(graph, n2))
            if not forests:
                continue
            for rule in _rule_candidates(graph, b, beta):
                prev_options_cache: dict[int, list[Word]] = {}
                for verts, parent in forests:
                    per_vertex_prev = []
                    feasible = True
                    for v in sorted(verts):
                        x = v[0]
                        if x not in prev_options_cache:
                            prev_options_cache[x] = sorted(rule.forbidden[x])
                        options = prev_options_cache[x]
                        if not options:
                            feasible = False
                            break
                        per_vertex_prev.append((v, options))
                    if not feasible:
                        continue
                    keys = [v for v, _ in per_vertex_prev]
                    for prev_choice in itertools.product(*(o for _, o in per_vertex_prev)):
                        prev = dict(zip(keys, prev_choice))
                        for final in itertools.product(range(b), repeat=size):
                            for parts in itertools.product(range(p), repeat=size):
                                seen.add(
                                    _canonical_key(graph, rule, verts, parent, prev, final, parts)
                                )
    return seen


# ---------------------------------------------------------------------------
# Monte Carlo tail estimation
# ---------------------------------------------------------------------------


MIN_POSITIVE = 30  # exceedances a grid point needs to enter the slope fit


class TailEstimate(NamedTuple):
    """Empirical exceedance of max resample counts over a seed ensemble."""

    n_grid: tuple[int, ...]
    trials: int
    exceed_counts: tuple[int, ...]
    phat: tuple[float, ...]
    ci_half: tuple[float, ...]  # 1.96 sigma normal half-widths
    slope: float | None  # fitted slope of log_b phat vs N (negative = decay)
    slope_se: float | None
    cap_exceeded: int


def _fit_slope(xs: Sequence[float], ys: Sequence[float]) -> tuple[float | None, float | None]:
    if len(xs) < 2 or len(set(xs)) < 2:
        return None, None
    import statistics  # only a tail estimate needs it; kept off the import path

    fit = statistics.linear_regression(xs, ys)
    slope, intercept = fit.slope, fit.intercept
    if len(xs) == 2:
        return slope, None
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    xbar = sum(xs) / len(xs)
    sxx = sum((x - xbar) ** 2 for x in xs)
    s2 = sum(r * r for r in residuals) / (len(xs) - 2)
    return slope, math.sqrt(s2 / sxx) if sxx > 0 else None


def tail_estimate(
    system: MtaSystem,
    f: Sequence[int],
    seeds: Iterable[int],
    n_grid: Sequence[int],
    step_cap: int,
    *,
    run_map: Callable = map,
) -> TailEstimate:
    """Run the engine across seeds and estimate P(max resamples > N).

    The slope of log_b P-hat against N is fitted over grid points with at
    least ``MIN_POSITIVE`` exceedances.  Cap-exceeded runs are counted as
    exceeding every N (their true counts are at least the truncated ones).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    f = tuple(f)
    system.start(f)  # every seed shares round 1; forked workers inherit it
    tops = list(run_map(lambda seed: _tail_worker(system, f, step_cap, seed), seeds))
    grid = tuple(n_grid)
    tops.sort()  # the runs above n are those past the last top <= n
    exceed = tuple(len(tops) - bisect.bisect_right(tops, n) for n in grid)
    trials = len(seeds)
    phat = tuple(c / trials for c in exceed)
    ci = tuple(1.96 * math.sqrt(p * (1 - p) / trials) for p in phat)
    xs = [n for n, c in zip(grid, exceed) if c >= MIN_POSITIVE]
    ys = [
        math.log(c / trials, system.b)
        for n, c in zip(grid, exceed)
        if c >= MIN_POSITIVE
    ]
    slope, slope_se = _fit_slope([float(x) for x in xs], ys)
    return TailEstimate(grid, trials, exceed, phat, ci, slope, slope_se, tops.count(math.inf))


def _tail_worker(system: MtaSystem, f: tuple[int, ...], step_cap: int, seed: int) -> float:
    """The run's max resample count; a capped run's is unbounded, so ``math.inf``."""
    trace = run_until_satisfied(system, f, RandomTape.stream(system.b, seed), step_cap)
    return math.inf if trace.status == "cap_exceeded" else trace.max_resamples


def process_map(jobs: int) -> Callable:
    """A ``run_map`` for ``tail_estimate`` over ``jobs`` processes, or ``map``
    where ``os.fork`` does not exist.

    The parent forks a child for each of ``min(jobs, len(items))``
    contiguous shares of the items but the last, and maps the last itself,
    reaping between its items any child that has ended.  It then reads every
    child's marshalled results to EOF before it reaps it, so results keep
    item order.  A child that dies or fails raises ``ChildProcessError`` as
    soon as the parent reaps it, one that sends short results once it is
    read; no child outlives the map.
    """
    if not hasattr(os, "fork"):
        return map

    def run_map(fn: Callable, items: Iterable) -> list:
        items = list(items)
        shares = max(1, min(jobs, len(items)))
        cuts = [len(items) * k // shares for k in range(shares + 1)]
        pipes: list = []  # each child's (read end, write end); closing twice is harmless
        children: list[tuple[int, int]] = []  # each child's (pid, share size), in item order
        pids: list[int] = []  # the children not yet reaped

        def reap(pid: int, size: int, flags: int = 0) -> None:
            """Reap ``pid`` if it has ended (at once under ``os.WNOHANG``, else
            waiting); raise if it was killed or exited with a failure."""
            done, status = os.waitpid(pid, flags)
            if done:
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(status)
                if code:
                    raise _worker_error(pid, code, 0, size)

        try:
            for lo, hi in zip(cuts, cuts[1:-1]):
                r, w = os.pipe()
                r, w = open(r, "rb"), open(w, "wb")
                pipes.append((r, w))
                pid = os.fork()
                if pid == 0:  # the child, which never returns into the caller
                    code = 1
                    try:
                        r.close()
                        w.write(marshal.dumps(list(map(fn, items[lo:hi]))))
                        w.close()
                        code = 0
                    finally:
                        os._exit(code)
                w.close()
                children.append((pid, hi - lo))
                pids.append(pid)
            last = []
            for item in items[cuts[-2]:]:
                last.append(fn(item))
                for pid, size in children:
                    if pid in pids:
                        reap(pid, size, os.WNOHANG)
            results = []
            for (r, _), (pid, size) in zip(pipes, children):
                reply = r.read()
                if pid in pids:
                    reap(pid, size)
                share = marshal.loads(reply) if reply else []
                if len(share) != size:
                    raise _worker_error(pid, 0, len(share), size)
                results += share
            return results + last
        finally:
            for r, w in pipes:
                r.close()
                w.close()
            for pid in pids:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)

    return run_map


def _worker_error(pid: int, code: int, sent: int, size: int) -> ChildProcessError:
    """The error of a worker that ended with exit code ``code`` (minus the
    signal that killed it) after sending ``sent`` of its ``size`` results."""
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return ChildProcessError(f"worker {pid} {how} after sending {sent} of {size} results")
