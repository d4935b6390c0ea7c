"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` times a layer by replacing a function wherever one
of the modules in ``perfbench/workloads.MODULES`` binds it, and by patching
two descriptors.  A renamed function, a changed descriptor or a new module
that imports a timed function by name silently drops that layer from every
trace; these tests catch each of the three.  Both files are only read.
"""

import importlib
import pkgutil
import types
from pathlib import Path

import lllkit
from lllkit import RandomTape, VariableGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    """Execute ``perfbench/<name>.py`` as a fresh module, writing no bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


TIMED = _load("tracing").TIMED
MODULES = _load("workloads").MODULES


def test_every_timed_function_exists():
    for home, attr, _ in TIMED:
        module = importlib.import_module(f"lllkit.{home}")
        assert callable(getattr(module, attr, None)), f"lllkit.{home}.{attr}"


def test_patched_descriptors_keep_their_kind():
    assert isinstance(VariableGraph.__dict__["sym_adj"], property)
    assert isinstance(RandomTape.__dict__["finite_random"], classmethod)


def test_no_untraced_module_binds_a_timed_function():
    timed = [getattr(importlib.import_module(f"lllkit.{home}"), attr) for home, attr, _ in TIMED]
    for info in pkgutil.iter_modules(lllkit.__path__):
        if info.name in MODULES:
            continue
        module = importlib.import_module(f"lllkit.{info.name}")
        bound = [key for key, value in vars(module).items() if any(value is f for f in timed)]
        assert not bound, f"lllkit.{info.name} binds timed functions {bound}"
