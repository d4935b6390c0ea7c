"""The library is what the commands reach.

Every public top-level definition and public method in ``src/lllkit`` must
be referenced by name in other ``src/`` code, or be listed in ``KEPT`` with
the reason it stays.  Re-exports in ``__init__.py`` and references from a
definition's own body do not count.  Matching is by name, so a definition
whose name is also read elsewhere, as a local variable say, counts as
reached.  A slow reference path that only the
tests use belongs in ``tests/conftest.py``, and a convenience that only
wraps a public path is not needed at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lllkit"

KEPT = {
    "engine.classic_parallel_mta": "the fresh-bits baseline, whose fate is ROADMAP item 9",
    "engine.RandomTape.prefix": "the reference that finite_random's memo must match, digit for digit",
    "engine.RunTrace.assignments": "perfbench/tracing.py reads it to count a run's trace cells",
    "engine.RunTrace.counters": "the twin of assignments: the counters after each round",
    "engine.RunTrace.to_jsonl": "the run-trace format that docs/instance-format.md documents",
    "landscapes.LandscapeType": "the landscape type that ROADMAP item 5 counts by",
    "landscapes.LandscapeType.fits_within": "the type order that ROADMAP item 5 needs",
    "landscapes.DecoratedLandscape.type_of": "a landscape's type, which ROADMAP item 5 needs",
    "counting.q_value_upper_bounds": "acceptance criterion 06 checks it",
    "counting.critical_abscissa": "acceptance criterion 06 evaluates Q at it",
    "instances.instance_to_json": "writes the JSON instance format that docs/instance-format.md documents",
    "instances.word_to_str": "writes a word of that JSON format",
    "graphs.LocalRule.allowed": "the allowed sets that the JSON format lists",
    "graphs.RelGraph.label": "the edge labelling that build_rel documents",
    "graphs.LocalRule.failure_prob": "a vertex's failure probability, which the condition check bounds",
}


def _definitions(trees):
    """(key, node) per public top-level definition and public method."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def _references(trees):
    """name -> the nodes, outside ``__init__``, that read a name or attribute so called."""
    refs = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None and not isinstance(n.ctx, ast.Store):
                refs.setdefault(name, []).append(n)
    return refs


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_every_public_definition_is_reached_or_kept():
    trees = _trees()
    refs = _references(trees)
    found, defined = set(), set()
    for key, node in _definitions(trees):
        defined.add(key)
        inside = set(map(id, ast.walk(node)))  # a definition's own body does not reach it
        if all(id(n) in inside for n in refs.get(node.name, ())):
            found.add(key)
    unkept = sorted(found - KEPT.keys())
    assert not unkept, f"no src/ code references {unkept}; move them beside their tests or keep them with a reason"
    stale = sorted(KEPT.keys() - defined)
    assert not stale, f"KEPT names {stale}, which src/ no longer defines"
    assert all(reason and "\n" not in reason for reason in KEPT.values())
