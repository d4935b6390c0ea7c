"""Builders and parsers producing (VariableGraph, LocalRule) pairs.

Covers DIMACS CNF (3-SAT and general mode), torus multicolored-translate
instances, random bounded-overlap 3-CNF generation, small random fuzz
instances, condition checkers for the symmetric and tight local-lemma
thresholds, and a byte-stable JSON instance format (see
docs/instance-format.md).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .graphs import (
    LocalRule,
    VariableGraph,
    Word,
    params,
)

Literal = tuple[int, int]  # (0-based variable index, sign in {+1, -1})

WORD_DIGITS = string.digits + string.ascii_lowercase
# Loading complements each allowed list within all b^len(var(x)) words, so
# a vertex with more words than this is refused before any enumeration.
MAX_LOAD_WORDS = 1 << 20


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
        self.clauses: tuple[tuple[Literal, ...], ...] = tuple(canon)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.variable_count} {self.clause_count}"]
        for clause in self.clauses:
            lines.append(" ".join(str(s * (v + 1)) for v, s in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CnfInstance)
            and self.variable_count == other.variable_count
            and self.clauses == other.clauses
        )

    def __repr__(self) -> str:
        return f"CnfInstance({self.variable_count} vars, {self.clause_count} clauses)"


def parse_dimacs(text: str, clause_size: int | None = 3) -> CnfInstance:
    """Parse DIMACS CNF text.

    Whitespace tolerant; clauses are 0-terminated and may span lines.
    ``clause_size=3`` enforces 3-SAT, ``None`` accepts any clause width.
    """
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        tokens.extend(int(t) for t in line.split())
    if header is None:
        raise ValueError("missing 'p cnf' header")
    n_vars, n_clauses = header
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


def from_cnf(cnf: CnfInstance) -> tuple[VariableGraph, LocalRule, list[tuple[str, int]]]:
    """Variable graph of a CNF: clause vertices first, then variable vertices.

    Clause c_i reads its variables in index order and forbids only its
    unique falsifying assignment.  Returns the graph, the rule (b = 2), and
    a role map vertex -> ("clause", i) | ("var", j).
    """
    m, n = cnf.clause_count, cnf.variable_count
    out_adj: list[tuple[int, ...]] = []
    forbidden: list[frozenset[Word]] = []
    for clause in cnf.clauses:
        out_adj.append(tuple(m + v for v, _ in clause))
        forbidden.append(frozenset([tuple(0 if s > 0 else 1 for _, s in clause)]))
    out_adj.extend(() for _ in range(n))
    forbidden.extend(frozenset() for _ in range(n))
    graph = VariableGraph(out_adj)
    rule = LocalRule(2, forbidden, [len(row) for row in out_adj])
    roles = [("clause", i) for i in range(m)] + [("var", j) for j in range(n)]
    return graph, rule, roles


def random_bounded_overlap_sat(n_clauses: int, delta_target: int, seed: int) -> CnfInstance:
    """Random 3-CNF whose clauses overlap at most delta_target - 1 others.

    Clauses are laid out in chains; consecutive clauses of a chain share
    exactly one variable, so the dependency degree (self-loop included) is
    at most delta_target.  Deterministic given the seed.  The emitted
    instance is re-checked against the tight condition.
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
    instance = CnfInstance(next_var, clauses)
    graph, rule, _ = from_cnf(instance)
    report = check_lll_condition(graph, rule, variant="tight")
    if not report.all_pass:
        raise AssertionError("generated instance fails its own condition")
    return instance


# ---------------------------------------------------------------------------
# Torus instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusSpec:
    """d-dimensional torus of side m, translate set T, color count b."""

    dimension: int
    side: int
    translates: tuple[tuple[int, ...], ...]
    colors: int

    def __post_init__(self):
        if self.dimension < 1 or self.side < 1:
            raise ValueError("dimension and side must be positive")
        if not self.translates:
            raise ValueError("translate set must be nonempty")
        reduced = set()
        for t in self.translates:
            if len(t) != self.dimension:
                raise ValueError(f"translate {t} has wrong dimension")
            r = tuple(c % self.side for c in t)
            if r in reduced:
                raise ValueError(f"translates collide modulo {self.side}: {t}")
            reduced.add(r)
        if self.colors < 1:
            raise ValueError("color count must be at least 1")
        if self.colors > len(self.translates):
            raise ValueError(
                f"no surjection onto {self.colors} colors from {len(self.translates)} translates"
            )


def non_surjective_words(length: int, b: int) -> frozenset[Word]:
    """Words over {0..b-1} that miss a colour c, i.e. words over the other b - 1."""
    return frozenset(
        w for c in range(b) for w in itertools.product([d for d in range(b) if d != c], repeat=length)
    )


def non_surjective_count(length: int, b: int) -> int:
    """``len(non_surjective_words(length, b))`` for length >= 1, by inclusion-exclusion
    over the j missed colours: sum of (-1)^(j+1) C(b, j) (b - j)^length."""
    return sum((-1) ** (j + 1) * math.comb(b, j) * (b - j) ** length for j in range(1, b))


def torus_point_index(point: Sequence[int], side: int) -> int:
    idx = 0
    for c in point:
        idx = idx * side + (c % side)
    return idx


def torus_instance(spec: TorusSpec) -> tuple[VariableGraph, LocalRule]:
    """Every point reads its translate set and forbids the words missing a colour.

    A satisfying assignment is exactly a coloring under which every
    translate set x + T is multicolored.
    """
    d, m, b = spec.dimension, spec.side, spec.colors
    beta = non_surjective_count(len(spec.translates), b)
    if beta > MAX_LOAD_WORDS:
        raise ValueError(f"each point would forbid {beta} words, more than the {MAX_LOAD_WORDS} a rule may hold")
    n = m ** d
    points = list(itertools.product(range(m), repeat=d))
    out_adj = []
    for p in points:
        row = tuple(
            torus_point_index([c + t for c, t in zip(p, tr)], m)
            for tr in spec.translates
        )
        out_adj.append(row)
    graph = VariableGraph(out_adj)
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


def torus_condition_holds(spec: TorusSpec) -> bool:
    """Exact check of b(1 - 1/b)^|T| < 1/(e |T|^2), using a rational
    over-approximation of e (conservative: shrinks the threshold)."""
    t = len(spec.translates)
    b = spec.colors
    lhs = b * (1 - Fraction(1, b)) ** t
    _, e_hi = e_bounds()
    return lhs < 1 / (e_hi * t * t)


# ---------------------------------------------------------------------------
# Local-lemma condition checks
# ---------------------------------------------------------------------------

_E_BOUNDS: tuple[Fraction, Fraction] | None = None


def e_bounds() -> tuple[Fraction, Fraction]:
    """Rational enclosure of e, accurate beyond 50 decimal digits.

    Taylor series with a rigorous remainder: sum_{i<=N} 1/i! < e <
    sum + 2/(N+1)!.  N = 45 gives an interval width below 1e-55.
    """
    global _E_BOUNDS
    if _E_BOUNDS is None:
        n_terms = 45
        lo = sum(Fraction(1, math.factorial(i)) for i in range(n_terms + 1))
        hi = lo + Fraction(2, math.factorial(n_terms + 1))
        _E_BOUNDS = (lo, hi)
    return _E_BOUNDS


@dataclass(frozen=True)
class ConditionEntry:
    vertex: int
    prob: Fraction
    passes: bool
    margin: Fraction  # certified threshold minus prob; positive iff passes


@dataclass(frozen=True)
class ConditionReport:
    variant: str
    delta: int
    threshold_lo: Fraction  # certified threshold (pass iff prob < this)
    threshold_hi: Fraction  # upper enclosure (equals lo for the tight variant)
    entries: tuple[ConditionEntry, ...]
    all_pass: bool
    trivial_count: int  # vertices with failure probability 0, omitted from entries


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
    """Per-vertex comparison of failure probability against a threshold.

    variant "tight": p(x) < (delta-1)^(delta-1)/delta^delta (exact rationals).
    variant "symmetric": p(x) < 1/(e delta); e enters through a rational
    enclosure, and a pass is certified against the over-approximation.
    """
    if variant not in ("tight", "symmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    delta = params(graph, rule).delta
    support = rule.support
    if delta == 0:
        if support:
            raise ValueError(
                "inconsistent instance: nontrivial rule on a vertex with empty var set"
            )
        one = Fraction(1)
        return ConditionReport(variant, 0, one, one, (), True, graph.vertex_count)
    if variant == "tight":
        thr_lo = thr_hi = tight_threshold(delta)
    else:
        e_lo, e_hi = e_bounds()
        thr_lo = 1 / (e_hi * delta)
        thr_hi = 1 / (e_lo * delta)
    entries = []
    all_pass = True
    trivial = 0
    for x in range(graph.vertex_count):
        p = rule.failure_prob(x)
        if p == 0:
            trivial += 1
            continue
        passes = p < thr_lo
        all_pass = all_pass and passes
        entries.append(ConditionEntry(x, p, passes, thr_lo - p))
    return ConditionReport(variant, delta, thr_lo, thr_hi, tuple(entries), all_pass, trivial)


# ---------------------------------------------------------------------------
# JSON instance format (byte-stable; see docs/instance-format.md)
# ---------------------------------------------------------------------------


def word_to_str(word: Word) -> str:
    return "".join(WORD_DIGITS[d] for d in word)


def str_to_word(s: str, b: int) -> Word:
    word = tuple(WORD_DIGITS.index(ch) for ch in s)
    if any(d >= b for d in word):
        raise ValueError(f"word {s!r} has digits outside base {b}")
    return word


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
    allowed = [frozenset(str_to_word(s, b) for s in ws) for ws in obj["allowed"]]
    rule = LocalRule.for_graph(graph, b, allowed)
    return graph, rule


def save_instance(path, graph: VariableGraph, rule: LocalRule) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(instance_to_json(graph, rule))


def load_instance(path) -> tuple[VariableGraph, LocalRule]:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(fh.read())


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
    cnf = random_bounded_overlap_sat(n_clauses, 3, seed)
    graph, rule, _ = from_cnf(cnf)
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
