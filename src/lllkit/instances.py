"""Builders and parsers producing (VariableGraph, LocalRule) pairs.

Covers DIMACS CNF (3-SAT and general mode), torus multicolored-translate
instances, random bounded-overlap 3-CNF generation, small random fuzz
instances, a condition check at the tight local-lemma threshold, and a
byte-stable JSON instance format (see docs/instance-format.md).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .graphs import (
    LocalRule,
    VariableGraph,
    Word,
    params,
)

Literal = tuple[int, int]  # (0-based variable index, sign in {+1, -1})

WORD_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
# Loading complements each allowed list within all b^len(var(x)) words, so
# a vertex with more words than this is refused before any enumeration.
MAX_LOAD_WORDS = 1 << 20
# An instance with more vertices than this (DIMACS variables plus clauses,
# JSON ``vertices``) is refused before any graph is built.  At the cap, solve
# on ``p cnf 524287 1`` took 4.0 s and 205 MiB on a 2-vCPU host.
MAX_LOAD_VERTICES = 1 << 19


# ---------------------------------------------------------------------------
# CNF instances
# ---------------------------------------------------------------------------


class CnfInstance:
    """A CNF formula over 0-based variables.

    Clauses are stored with literals sorted by variable index; variables
    within a clause must be distinct and the clause list duplicate-free.
    """

    def __init__(self, variable_count: int, clauses: Sequence[Sequence[Literal]]):
        self.variable_count = variable_count
        canon = _sound_canon(clauses, variable_count)
        if canon is None:  # some clause is at fault, or unusual: check clause by clause
            canon, seen = [], set()
            for idx, clause in enumerate(clauses):
                lits = _checked_clause(idx, clause, variable_count)
                if lits in seen:
                    raise ValueError(f"clause {idx} duplicates an earlier clause: {lits}")
                seen.add(lits)
                canon.append(lits)
        self.clauses: tuple[tuple[Literal, ...], ...] = tuple(canon)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CnfInstance)
            and self.variable_count == other.variable_count
            and self.clauses == other.clauses
        )

    def __repr__(self) -> str:
        return f"CnfInstance({self.variable_count} vars, {self.clause_count} clauses)"


def _sound_canon(clauses: Sequence[Sequence[Literal]], variable_count: int) -> list[tuple[Literal, ...]] | None:
    """Each clause sorted, if every clause is a nonempty sequence of
    (int, +-1) tuples with distinct variables in 0..variable_count-1 and no
    clause repeats, decided in C-level passes over all literals; else None,
    also where literals do not sort or have unhashable parts."""
    try:
        canon = list(map(tuple, map(sorted, clauses)))
        lits = list(itertools.chain.from_iterable(canon))
        if not (all(canon) and set(map(type, lits)) <= {tuple} and set(map(len, lits)) <= {2}):
            return None
        vs = list(map(operator.itemgetter(0), lits))
        # Sorted clauses repeat a variable only in neighbouring literals, so an
        # equal neighbour must start the next clause.
        starts = set(itertools.accumulate(map(len, canon)))
        repeats = itertools.compress(itertools.count(1), map(operator.eq, vs, itertools.islice(vs, 1, None)))
        sound = (set(map(type, vs)) <= {int} and min(vs, default=0) >= 0 and max(vs, default=0) < variable_count
                 and set(map(operator.itemgetter(1), lits)) <= {1, -1}
                 and starts.issuperset(repeats) and len(set(canon)) == len(canon))
    except TypeError:  # literals that do not sort, or unhashable signs
        return None
    return canon if sound else None


def _checked_clause(idx: int, clause: Sequence[Literal], variable_count: int) -> tuple[Literal, ...]:
    """A clause sorted by variable, or the ValueError naming its first fault."""
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
    return lits


def parse_dimacs(text: str, clause_size: int | None = 3) -> CnfInstance:
    """Parse DIMACS CNF text.

    Whitespace tolerant; clauses are 0-terminated and may span lines.
    ``clause_size=3`` enforces 3-SAT, ``None`` accepts any clause width.
    The first bad problem line or non-integer token in line order raises;
    the header's counts are checked at the end.
    """
    header: tuple[int, int] | None = None
    body: list[str] = []  # the clause lines, stripped
    numbers: list[int] = []  # their line numbers
    for number, line in enumerate(map(str.strip, text.splitlines()), 1):
        if not line or line[0] in "c%":
            continue
        if line[0] != "p":
            body.append(line)
            numbers.append(number)
            continue
        parts = line.split()
        try:
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise ValueError(f"bad problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            if min(header) < 0:
                raise ValueError(f"bad problem line: {line!r}")
        except ValueError as error:
            _clause_tokens(body, numbers)  # a bad token on an earlier line comes first
            raise _byte_error(number, line) or error from None
    tokens = _clause_tokens(body, numbers)
    if header is None:
        raise ValueError("missing 'p cnf' header")
    n_vars, n_clauses = header
    if n_vars + n_clauses > MAX_LOAD_VERTICES:
        raise ValueError(f"header declares {n_vars} variables and {n_clauses} clauses, more than the "
                         f"{MAX_LOAD_VERTICES} vertices an instance may have: too many to build")
    clauses: list[list[Literal]] = []
    current: list[Literal] = []
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
    return CnfInstance(n_vars, clauses)


def _clause_tokens(lines: list[str], numbers: list[int]) -> list[int]:
    """The integers on the clause lines, converted in one ``map`` over their
    join; if that fails, the lines are read again token by token to raise
    the error naming the first bad token and its line number."""
    try:
        return list(map(int, " ".join(lines).split()))
    except ValueError:
        for number, line in zip(numbers, lines):
            for token in line.split():
                try:
                    int(token)
                except ValueError as error:
                    raise _byte_error(number, token) or error from None
        raise


def _byte_error(number: int, text: str) -> ValueError | None:
    """The error naming line ``number`` and the first byte of ``text`` that is
    not UTF-8 (a lone surrogate after decoding with ``surrogateescape``), if any."""
    for ch in text:
        if "\udc80" <= ch <= "\udcff":
            return ValueError(f"line {number}: byte {ord(ch) - 0xDC00:#04x} is not UTF-8")
    return None


def from_cnf(cnf: CnfInstance) -> tuple[VariableGraph, LocalRule, list[tuple[str, int]]]:
    """Variable graph of a CNF: clause vertices first, then variable vertices.

    Clause c_i reads its variables in index order and forbids only its
    unique falsifying assignment.  Returns the graph, the rule (b = 2), and
    a role map vertex -> ("clause", i) | ("var", j).
    """
    m, n = cnf.clause_count, cnf.variable_count
    out_adj: list[tuple[int, ...]] = [tuple([m + v for v, _ in clause]) for clause in cnf.clauses]
    words = [tuple([0 if s > 0 else 1 for _, s in clause]) for clause in cnf.clauses]
    # One set per sign pattern, so the rule validates each pattern once.
    shared = {word: frozenset([word]) for word in set(words)}
    forbidden: list[frozenset[Word]] = list(map(shared.__getitem__, words))
    out_adj += [()] * n
    forbidden += [frozenset()] * n
    graph = VariableGraph(out_adj)
    rule = LocalRule(2, forbidden, [len(row) for row in out_adj])
    roles = [("clause", i) for i in range(m)] + [("var", j) for j in range(n)]
    return graph, rule, roles


def random_bounded_overlap_sat(n_clauses: int, delta_target: int, seed: int) -> CnfInstance:
    """Random 3-CNF whose clauses overlap at most delta_target - 1 others.

    Clauses are laid out in chains; consecutive clauses of a chain share
    exactly one variable, so the dependency degree (self-loop included) is
    at most delta_target.  Deterministic given the seed.  Every clause fails
    with probability 1/8, below the tight thresholds 1, 1/4 and 4/27 of
    degrees 1, 2 and 3, so the instance passes the tight condition.
    """
    if delta_target not in (1, 2, 3):
        raise ValueError("delta_target must be 1, 2 or 3")
    if n_clauses < 1:
        raise ValueError("n_clauses must be positive")
    rng = random.Random(seed)
    max_chain = {1: 1, 2: 2, 3: 4}[delta_target]
    clauses: list[list[Literal]] = []
    next_var = 0

    def fresh() -> int:
        nonlocal next_var
        next_var += 1
        return next_var - 1

    remaining = n_clauses
    while remaining:
        chain_len = rng.randint(1, min(max_chain, remaining))
        # Links may only reuse the previous clause's fresh variables, so every
        # variable occurs in at most two clauses and overlaps stay at prev/next.
        prev_fresh: list[int] = []
        for pos in range(chain_len):
            if pos == 0:
                vs = [fresh(), fresh(), fresh()]
                new_fresh = list(vs)
            else:
                shared = rng.choice(prev_fresh)
                new_fresh = [fresh(), fresh()]
                vs = [shared] + new_fresh
            rng.shuffle(vs)
            clauses.append([(v, rng.choice((1, -1))) for v in vs])
            prev_fresh = new_fresh
        remaining -= chain_len
    return CnfInstance(next_var, clauses)


# ---------------------------------------------------------------------------
# Torus instances
# ---------------------------------------------------------------------------


# A torus above any of these is refused before it or its translates are built;
# at the caps a build takes about a second and under 100 MiB.
MAX_TORUS_DIMENSION = 16
MAX_TORUS_POINTS = 1 << 16  # side ** dimension
MAX_TORUS_READS = 1 << 18  # points times translates


def check_torus_size(dimension: int, side: int, translates: int) -> None:
    """Refuse a torus above the size caps; side ** dimension is computed only
    for a dimension within its cap.  Signs are left to ``TorusSpec``."""
    if dimension > MAX_TORUS_DIMENSION:
        raise ValueError(f"dimension {dimension} is above the cap of {MAX_TORUS_DIMENSION}")
    if dimension < 1 or side < 1:
        return
    points = side ** dimension
    if points > MAX_TORUS_POINTS:
        raise ValueError(f"side {side} in dimension {dimension} gives more than {MAX_TORUS_POINTS} points")
    if points * translates > MAX_TORUS_READS:
        raise ValueError(f"{points} points reading {translates} translates each "
                         f"make more than {MAX_TORUS_READS} reads")


class TorusSpec(NamedTuple("TorusSpec", [("dimension", int), ("side", int),
                                         ("translates", tuple[tuple[int, ...], ...]), ("colors", int)])):
    """d-dimensional torus of side m, translate set T, color count b, checked at construction."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, dimension, side, translates, colors):
        if dimension < 1 or side < 1:
            raise ValueError("dimension and side must be positive")
        check_torus_size(dimension, side, len(translates))
        if not translates:
            raise ValueError("translate set must be nonempty")
        reduced = set()
        for t in translates:
            if len(t) != dimension:
                raise ValueError(f"translate {t} has wrong dimension")
            r = tuple(c % side for c in t)
            if r in reduced:
                raise ValueError(f"translates collide modulo {side}: {t}")
            reduced.add(r)
        if colors < 1:
            raise ValueError("color count must be at least 1")
        if colors > len(translates):
            raise ValueError(
                f"no surjection onto {colors} colors from {len(translates)} translates"
            )
        return super().__new__(cls, dimension, side, translates, colors)


def non_surjective_words(length: int, b: int) -> frozenset[Word]:
    """Words over {0..b-1} that miss a colour c, i.e. words over the other b - 1."""
    return frozenset(
        w for c in range(b) for w in itertools.product([d for d in range(b) if d != c], repeat=length)
    )


def non_surjective_count(length: int, b: int) -> int:
    """``len(non_surjective_words(length, b))`` for length >= 1, by inclusion-exclusion
    over the j missed colours: sum of (-1)^(j+1) C(b, j) (b - j)^length."""
    return sum((-1) ** (j + 1) * math.comb(b, j) * (b - j) ** length for j in range(1, b))


def torus_instance(spec: TorusSpec) -> tuple[VariableGraph, LocalRule]:
    """Every point reads its translate set and forbids the words missing a colour.

    A satisfying assignment is exactly a coloring under which every
    translate set x + T is multicolored.  Points are indexed in
    lexicographic order of their coordinates, so the index of p + t over
    all p is a product of per-axis rotations of range(m): the rows are
    built one translate column at a time.  Every translation of the torus
    is an automorphism of the graph and they act transitively on the
    points, so the graph is marked ``transitive``.
    """
    d, m, b = spec.dimension, spec.side, spec.colors
    beta = non_surjective_count(len(spec.translates), b)
    if beta > MAX_LOAD_WORDS:
        raise ValueError(f"each point would forbid {beta} words, more than the {MAX_LOAD_WORDS} a rule may hold")
    n = m ** d
    columns = []
    for tr in spec.translates:
        column = [0]
        for t in tr:
            axis = [(c + t) % m for c in range(m)]
            column = [i * m + c for i in column for c in axis]
        columns.append(column)
    graph = VariableGraph(list(zip(*columns)))
    graph.transitive = True
    words = non_surjective_words(len(spec.translates), b)
    rule = LocalRule(b, [words] * n, [len(spec.translates)] * n)
    return graph, rule


def default_translates(dimension: int, count: int) -> tuple[tuple[int, ...], ...]:
    """The first ``count`` vectors of N^dimension by max coordinate, lexicographic
    within each max (origin first); the work is O(count * dimension)."""
    if dimension < 1:
        raise ValueError(f"torus dimension must be positive, got {dimension}")
    return tuple(itertools.islice(_by_max_coordinate(dimension), max(count, 0)))


def _by_max_coordinate(dimension: int) -> Iterator[tuple[int, ...]]:
    for m in itertools.count():
        v = [0] * (dimension - 1) + [m]
        while True:
            yield tuple(v)
            i = dimension - 1
            while i >= 0 and v[i] == m:  # odometer step in base m + 1
                v[i] = 0
                i -= 1
            if i < 0:
                break
            v[i] += 1
            if m not in v:  # the least vector from here on that reaches m
                v[-1] = m


# ---------------------------------------------------------------------------
# Local-lemma condition checks
# ---------------------------------------------------------------------------

class ConditionReport(NamedTuple):
    delta: int
    threshold_lo: Fraction  # certified threshold (pass iff prob < this)
    worst_margin: Fraction | None  # threshold_lo minus the largest prob; None if every prob is 0
    all_pass: bool


def tight_threshold(delta: int) -> Fraction:
    """(delta-1)^(delta-1) / delta^delta, with the delta = 1 special case
    (pairwise disjoint supports) giving threshold 1."""
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if delta == 1:
        return Fraction(1)
    return Fraction((delta - 1) ** (delta - 1), delta ** delta)


def check_lll_condition(
    graph: VariableGraph,
    rule: LocalRule,
    variant: str = "tight",
) -> ConditionReport:
    """Whether every vertex's failure probability p(x) is below the tight
    threshold (delta-1)^(delta-1)/delta^delta, in exact rationals, with the
    threshold minus the largest probability as ``worst_margin``.  The only
    ``variant`` is "tight"; for every delta >= 1 its threshold is above the
    symmetric 1/(e delta), so the tight check passes whatever that one does.
    """
    if variant != "tight":
        raise ValueError(f"unknown variant {variant!r}")
    delta = params(graph, rule).delta
    if delta == 0:
        if rule.support:
            raise ValueError(
                "inconsistent instance: nontrivial rule on a vertex with empty var set"
            )
        return ConditionReport(0, Fraction(1), None, True)
    threshold = tight_threshold(delta)
    # p(x) = |forbidden(x)| / b^|var(x)|, so each distinct pair is one case.
    cases = set(zip(map(len, rule.forbidden), rule.word_lengths))
    p_max = max((Fraction(beta, rule.b**n) for beta, n in cases if beta), default=None)
    worst = None if p_max is None else threshold - p_max
    return ConditionReport(delta, threshold, worst, worst is None or worst > 0)


# ---------------------------------------------------------------------------
# JSON instance format (byte-stable; see docs/instance-format.md)
# ---------------------------------------------------------------------------


def word_to_str(word: Word) -> str:
    return "".join(WORD_DIGITS[d] for d in word)


def str_to_word(s: str, b: int) -> Word:
    digits = WORD_DIGITS[:b]
    if any(ch not in digits for ch in s):
        raise ValueError(f"word {s!r} has digits outside base {b}")
    return tuple(map(digits.index, s))


def instance_to_json(graph: VariableGraph, rule: LocalRule) -> str:
    """Canonical single-line JSON; identical inputs give identical bytes.
    Listing the allowed words enumerates b^len words per vertex.

    The in-neighbourhood order is not serialized: it is defined to be
    ascending vertex index.  Builders that need a different cl-order must
    keep the instance in memory.
    """
    if rule.b > len(WORD_DIGITS):
        raise ValueError(f"serialization supports alphabets up to {len(WORD_DIGITS)}")
    obj = {
        "b": rule.b,
        "vertices": graph.vertex_count,
        "out_adj": [list(row) for row in graph.out_adj],
        "allowed": [sorted(word_to_str(w) for w in ws) for ws in rule.allowed],
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _is_list_of_lists(value, item_type: type) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(v) is item_type for v in row) for row in value
    )


def instance_from_json(text: str) -> tuple[VariableGraph, LocalRule]:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    for key in ("b", "vertices", "out_adj", "allowed"):
        if key not in obj:
            raise ValueError(f"instance JSON missing key {key!r}")
    b, n = obj["b"], obj["vertices"]
    if type(b) is not int or b < 1:
        raise ValueError("instance JSON: b must be an integer >= 1")
    if type(n) is not int or n < 0:
        raise ValueError("instance JSON: vertices must be an integer >= 0")
    if n > MAX_LOAD_VERTICES:
        raise ValueError(f"instance JSON: {n} vertices, more than the {MAX_LOAD_VERTICES} "
                         f"an instance may have: too many to build")
    if not _is_list_of_lists(obj["out_adj"], int):
        raise ValueError("instance JSON: out_adj must be a list of lists of integers")
    if not _is_list_of_lists(obj["allowed"], str):
        raise ValueError("instance JSON: allowed must be a list of lists of strings")
    out_adj = [tuple(row) for row in obj["out_adj"]]
    if len(out_adj) != n or len(obj["allowed"]) != n:
        raise ValueError("instance JSON: adjacency/allowed length disagrees with vertex count")
    graph = VariableGraph(out_adj)
    for x, row in enumerate(out_adj):
        # b >= 2 and len > 20 already exceed 2^20; the cut keeps b ** len small
        if b > 1 and (len(row) > 20 or b ** len(row) > MAX_LOAD_WORDS):
            raise ValueError(
                f"instance JSON: vertex {x} has {b}^{len(row)} words, "
                f"more than the {MAX_LOAD_WORDS} a vertex may have on load"
            )
    if b > len(WORD_DIGITS):
        raise ValueError(f"instance JSON: b must be at most {len(WORD_DIGITS)}, the digits 0-9a-z, got {b}")
    allowed = [frozenset(str_to_word(s, b) for s in ws) for ws in obj["allowed"]]
    rule = LocalRule.for_graph(graph, b, allowed)
    return graph, rule


# ---------------------------------------------------------------------------
# Bundled instances used by the verification suites and the CLI
# ---------------------------------------------------------------------------


def disjoint_clause_instance(n_clauses: int = 6) -> tuple[VariableGraph, LocalRule]:
    """Variable-disjoint all-positive 3-clauses: the all-zero assignment
    violates every clause, and the dependency degree is 1."""
    clauses = [
        [(3 * i, 1), (3 * i + 1, 1), (3 * i + 2, 1)] for i in range(n_clauses)
    ]
    graph, rule, _ = from_cnf(CnfInstance(3 * n_clauses, clauses))
    return graph, rule


def chain_sat_instance(n_clauses: int = 8, seed: int = 11) -> tuple[VariableGraph, LocalRule]:
    """A chain-shaped 3-CNF with dependency degree 3."""
    graph, rule, _ = from_cnf(random_bounded_overlap_sat(n_clauses, 3, seed))
    return graph, rule


def small_torus_instance() -> tuple[VariableGraph, LocalRule]:
    """1-dimensional torus of size 24 with 10 consecutive translates, 2 colors."""
    spec = TorusSpec(1, 24, tuple((i,) for i in range(10)), 2)
    return torus_instance(spec)


def bundled_instances() -> dict[str, tuple[VariableGraph, LocalRule]]:
    return {
        "disjoint": disjoint_clause_instance(),
        "chain": chain_sat_instance(),
        "torus": small_torus_instance(),
    }


def random_instance(
    rng: random.Random, *, mixed_width: bool = False
) -> tuple[VariableGraph, LocalRule]:
    """At most 4 clauses of width 2..3 (1..3 with ``mixed_width``) over 2..6
    variables, for the fuzz suites; each forbids one or two words, never all."""
    n_vars = rng.randint(2, 6)
    n_clauses = rng.randint(1, 4)
    b = rng.choice((2, 2, 3))
    out_adj = []
    forbidden = []
    for _ in range(n_clauses):
        width = min(rng.randint(1, 3) if mixed_width else rng.randint(2, 3), n_vars)
        vs = rng.sample(range(n_vars), width)
        out_adj.append(tuple(n_clauses + v for v in vs))
        full = list(itertools.product(range(b), repeat=width))
        forbidden.append(frozenset(rng.sample(full, rng.randint(1, min(2, len(full) - 1)))))
    for _ in range(n_vars):
        out_adj.append(())
        forbidden.append(frozenset())
    graph = VariableGraph(out_adj)
    return graph, LocalRule(b, forbidden, [len(row) for row in out_adj])
