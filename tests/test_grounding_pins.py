"""Pins of the grounding calculus's choices.

On seeded landscapes, the sha256 of every ``ground`` operation list and of
the ``rebranchable_triples``, ``joinable_pairs`` and ``pushable_trees``
outputs, in the order they are produced.  A change to how forest edges are
searched that picks another parent, another operation or another order
shows up here as a digest mismatch.
"""

import hashlib
import random

import pytest

from lllkit import ball, extract_landscape, ground, restrict
from lllkit.landscapes import joinable_pairs, pushable_trees
from lllkit.properties import fuzz_runs, random_abstract_landscape
from conftest import rebranchable_triples

ABSTRACT_DRAWS = 3000
RESTRICTED_RUNS = 2000


def _choices(ls) -> tuple:
    """Everything the calculus decides on ``ls``, as plain tuples."""
    _, ops = ground(ls)
    return (
        sorted(ls.parent.items()),
        ops,
        list(rebranchable_triples(ls)),
        list(joinable_pairs(ls)),
        [sorted(tree) for tree in pushable_trees(ls)],
    )


def _digest(cases) -> tuple[str, dict]:
    """The sha256 of every case's choices, and how often `ground` used each operation."""
    h = hashlib.sha256()
    ops_seen = {"push_all": 0, "push_tree": 0, "join": 0, "rebranch": 0}
    for ls in cases:
        record = _choices(ls)
        for op in record[1]:
            ops_seen[op[0]] += 1
        h.update(repr(record).encode())
    return h.hexdigest(), ops_seen


def _abstract(seed: int):
    rng = random.Random(seed)
    for _ in range(ABSTRACT_DRAWS):
        yield random_abstract_landscape(rng)


def _restricted(seed: int):
    """Run landscapes restricted to the radius-1 ball around a drawn centre."""
    rng = random.Random(seed)
    for run in fuzz_runs(rng, RESTRICTED_RUNS):
        ls = extract_landscape(run.trace())
        center = rng.randrange(ls.graph.vertex_count)
        yield restrict(ls, ball(ls.graph.sym_adj, center, 1))[0]


PINS = {
    "abstract": "7c46b6041907041971653ed9526c138facad179bbbe41404203b5fcabdc77de1",
    "restricted": "0f2e296132fac6b98cfee87a3ae12f17358aaabc8c00d04cf218acc26f87c55a",
}


@pytest.mark.parametrize("kind, draw", [("abstract", _abstract), ("restricted", _restricted)])
def test_grounding_choices_are_pinned(kind, draw):
    digest, ops_seen = _digest(draw(20261018))
    assert ops_seen["push_tree"] and ops_seen["join"]
    assert digest == PINS[kind]
