"""The library is what the commands reach.

Every public top-level definition and public method in ``src/lllkit`` must
be referenced by name in other ``src/`` code, or be listed in ``KEPT`` with
the reason it stays, but not both: a ``KEPT`` name that other ``src/`` code
references is refused, so the list names only what no command reaches.
Re-exports in ``__init__.py`` and references from a definition's own body
do not count.  Matching is by name, so a definition whose name is also
read elsewhere, as a local variable say, counts as reached.  A slow
reference path that only the tests use belongs in ``tests/conftest.py``,
and a convenience that only wraps a public path is not needed at all.

Likewise every optional parameter of a public function, public method or
public class's ``__init__`` must be passed, by keyword or by position, by
some call in ``src/lllkit`` or ``perfbench``, or be listed in
``KEPT_PARAMS`` with the reason it stays.  A parameter only the tests set
is an option no command has.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lllkit"

KEPT = {
    "engine.RunTrace.assignments": "perfbench/tracing.py reads it to count a run's trace cells",
    "engine.RunTrace.to_jsonl": "the run-trace format that docs/instance-format.md documents",
    "landscapes.LandscapeType.fits_within": "the type order that ROADMAP item 5 needs",
    "landscapes.DecoratedLandscape.type_of": "a landscape's type, which ROADMAP item 5 needs",
    "instances.instance_to_json": "writes the JSON instance format that docs/instance-format.md documents",
}

KEPT_PARAMS = {
    "instances.parse_dimacs.clause_size": "general-width DIMACS, which ROADMAP item 4 gives a CLI route",
    "instances.disjoint_clause_instance.n_clauses": "sizes the bundled disjoint family; the tests build 2 to 5 clauses",
    "instances.chain_sat_instance.n_clauses": "sizes the bundled chain family; the tests build other lengths",
    "instances.chain_sat_instance.seed": "draws the chain family's sign patterns; the tests pin other seeds",
    "properties.fuzz_runs.k_max": "acceptance 03 and the grounding tests draw runs of up to 6 rounds",
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
    reached = sorted(KEPT.keys() & (defined - found))
    assert not reached, f"KEPT names {reached}, which src/ code already references"
    stale = sorted(KEPT.keys() - defined)
    assert not stale, f"KEPT names {stale}, which src/ no longer defines"
    assert all(reason and "\n" not in reason for reason in KEPT.values())


def _optional_params(fn: ast.FunctionDef, method: bool):
    """(name, position or None if keyword-only) per parameter with a default;
    a method's position does not count self or cls."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)


def _callables(trees):
    """(key, the name a call uses, node, is a method) per public function,
    public method and public class's ``__init__``.  The package has no
    static methods, so a method's first parameter is self or cls."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and (sub.name == "__init__" or not sub.name.startswith("_")):
                        name = node.name if sub.name == "__init__" else sub.name
                        yield f"{module}.{node.name}.{sub.name}", name, sub, True


def _calls(trees):
    """callee name -> the calls so named; ``cls(...)`` inside a class calls that class."""
    calls = {}
    for tree in trees:
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        owner = {id(n): c.name for c in classes for n in ast.walk(c)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                if name == "cls":
                    name = owner.get(id(n), name)
                calls.setdefault(name, []).append(n)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_is_passed_or_kept():
    trees = _trees()
    callers = list(trees.values()) + [ast.parse(p.read_text(encoding="utf-8"))
                                      for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    calls = _calls(callers)
    unpassed = set()
    for key, name, node, method in _callables(trees):
        inside = set(map(id, ast.walk(node)))  # a function's own body does not pass its parameters
        outside = [call for call in calls.get(name, ()) if id(call) not in inside]
        for param, position in _optional_params(node, method):
            if not any(_passes(call, param, position) for call in outside):
                unpassed.add(f"{key}.{param}")
    unkept = sorted(unpassed - KEPT_PARAMS.keys())
    assert not unkept, f"no src/ or perfbench call passes {unkept}; drop them or keep them with a reason"
    stale = sorted(KEPT_PARAMS.keys() - unpassed)
    assert not stale, f"KEPT_PARAMS names {stale}, which are passed or no longer optional"
    assert all(reason and "\n" not in reason for reason in KEPT_PARAMS.values())


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    """The ``python`` block under README's ``## Library sketch`` runs as written."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    # Two 3-clauses sharing variable 3: delta 2, each fails with probability 1/8 < 1/4.
    (tmp_path / "problem.cnf").write_text("p cnf 5 2\n1 -2 3 0\n-3 4 5 0\n", encoding="utf-8")
    exec(compile(block, "README.md", "exec"), {})
