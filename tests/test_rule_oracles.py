"""Differential oracles for the forbidden-word rule representation.

Each builder now writes forbidden sets directly.  The allowed-set
constructions they replaced are kept here, and every rule a builder makes
must equal ``LocalRule.for_graph`` of the old allowed sets.
"""

import itertools
import random

import pytest

from lllkit import (
    CnfInstance,
    LocalRule,
    bundled_instances,
    extract_landscape,
    from_cnf,
    pad_uniform,
    random_bounded_overlap_sat,
    restrict,
)
from lllkit.properties import fuzz_runs, random_system


def full_words(b, length):
    return frozenset(itertools.product(range(b), repeat=length))


def cnf_allowed_oracle(cnf):
    """Clause vertices allow every word but the falsifier; variables allow ()."""
    allowed = []
    for clause in cnf.clauses:
        falsifier = tuple(0 if s > 0 else 1 for _, s in clause)
        allowed.append(full_words(2, len(clause)) - {falsifier})
    return allowed + [frozenset([()])] * cnf.variable_count


def restrict_allowed_oracle(ls, graph, mapping):
    """Kept rules where the var list survived whole, everything elsewhere."""
    return [
        ls.rule.allowed[x] if len(graph.var(i)) == len(ls.graph.var(x))
        else full_words(ls.rule.b, len(graph.var(i)))
        for i, x in enumerate(mapping)
    ]


def pad_allowed_oracle(system, padded):
    """Allowed words extended by every suffix; dummies allow ()."""
    rule = system.rule
    d_max = max((len(system.graph.var(x)) for x in rule.support), default=0)
    allowed = list(rule.allowed)
    for x in rule.support:
        deficit = d_max - len(system.graph.var(x))
        suffixes = list(itertools.product(range(rule.b), repeat=deficit))
        allowed[x] = frozenset(w + s for w in allowed[x] for s in suffixes)
    allowed += [frozenset([()])] * (padded.graph.vertex_count - len(allowed))
    return allowed


def test_from_cnf_matches_oracle_on_bundled_cnfs():
    disjoint = CnfInstance(18, [[(3 * i, 1), (3 * i + 1, 1), (3 * i + 2, 1)] for i in range(6)])
    chain = random_bounded_overlap_sat(8, 3, 11)
    bundle = bundled_instances()
    for name, cnf in (("disjoint", disjoint), ("chain", chain)):
        graph, rule = bundle[name]
        assert rule == LocalRule.for_graph(graph, 2, cnf_allowed_oracle(cnf))


def test_from_cnf_matches_oracle_on_generated_cnfs():
    rng = random.Random(41)
    for _ in range(300):
        cnf = random_bounded_overlap_sat(rng.randint(1, 12), rng.choice((1, 2, 3)), rng.randrange(2**30))
        graph, rule, _ = from_cnf(cnf)
        assert rule == LocalRule.for_graph(graph, 2, cnf_allowed_oracle(cnf))


def test_restrict_matches_oracle():
    rng = random.Random(42)
    for run in fuzz_runs(rng, 300, k_max=4):
        ls = extract_landscape(run.trace())
        n = run.system.graph.vertex_count
        restricted, mapping = restrict(ls, rng.sample(range(n), rng.randint(1, n)))
        oracle = restrict_allowed_oracle(ls, restricted.graph, mapping)
        assert restricted.rule == LocalRule.for_graph(restricted.graph, ls.rule.b, oracle)


@pytest.mark.parametrize("mixed_width", [False, True])
def test_pad_uniform_matches_oracle(mixed_width):
    rng = random.Random(43)
    for _ in range(300):
        system = random_system(rng, mixed_width=mixed_width)
        padded, _ = pad_uniform(system)
        oracle = pad_allowed_oracle(system, padded)
        assert padded.rule == LocalRule.for_graph(padded.graph, system.b, oracle)
