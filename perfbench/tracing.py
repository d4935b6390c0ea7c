"""Spans around calls into the package's public functions, and the
per-layer metrics computed from them.

The wrappers are installed from outside the program: every module
attribute of the package that binds a timed function (including names one
module imported from another, such as ``engine.greedy_mis`` or
``counting.run_until_satisfied``) is replaced for the duration of a traced
run and restored afterwards.  Nested calls therefore produce child spans,
and a layer's time is its self time: span duration minus the part of it
covered by child spans.  Hot leaves (``RandomTape.digit``,
``restriction_word``) are not wrapped; their work is counted from the
traces the runs return.
"""

from __future__ import annotations

import functools
import json
import pickle
import time
from collections import defaultdict

# (home module, function, span name); a layer metric is "<span name>_s".
TIMED = (
    ("instances", "parse_dimacs", "instances.parse_dimacs"),
    ("instances", "from_cnf", "instances.from_cnf"),
    ("instances", "check_lll_condition", "instances.condition"),
    ("instances", "torus_instance", "instances.torus_instance"),
    ("graphs", "build_rel", "graphs.build_rel"),
    ("graphs", "sparse_partition", "graphs.sparse_partition"),
    ("graphs", "violating_set", "graphs.violating_set"),
    ("graphs", "greedy_mis", "graphs.greedy_mis"),
    ("landscapes", "default_window_params", "landscapes.window_params"),
    ("landscapes", "encode_tape", "landscapes.encode"),
    ("landscapes", "decode_tape", "landscapes.decode"),
    ("landscapes", "extract_landscape", "landscapes.extract"),
    ("landscapes", "find_window", "landscapes.find_window"),
    ("landscapes", "restrict", "landscapes.restrict"),
    ("landscapes", "ground", "landscapes.ground"),
    ("landscapes", "asgn_seq", "landscapes.asgn_seq"),
    ("engine", "run_k", "engine.run"),
    ("engine", "run_until_satisfied", "engine.run"),
    ("engine", "used_unused", "engine.used_unused"),
    ("counting", "tail_estimate", "counting.tail_estimate"),
    ("cli", "load_instance_from_config", "cli.load_instance"),
    ("cli", "build_system", "cli.build_system"),
    ("cli", "main", "cli.main"),
)
SYM_ADJ = "graphs.sym_adj"  # the lazily built VariableGraph.sym_adj property
TAPE = "engine.tape"  # RandomTape.finite_random
ROOT = "cli.main"  # its self time is reported as cli.self_s
BOOKKEEPING = "bench"  # the tracer's own counting, excluded from every layer

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in TIMED] + [SYM_ADJ, TAPE]))
COUNTS = (
    "graphs.parts",
    "landscapes.window_n",
    "landscapes.witness_verts",
    "landscapes.empty_landscapes",
    "engine.runs",
    "engine.steps",
    "engine.resamples",
    "engine.digits",
    "engine.max_resamples",
    "engine.satisfied",
    "engine.trace_cells",
    "counting.map_arg_bytes",
)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [end - start - covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


class Tracer:
    """Collects spans ``[name, start, end, parent index, run id]`` and
    counts in memory for one traced run at a time."""

    def __init__(self, lk):
        self.lk = lk
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._violating_set = lk.graphs.violating_set  # unwrapped, for counting

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts = dict.fromkeys(COUNTS, 0)
        self.run += 1

    # -- spans ------------------------------------------------------------

    def _timed(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                self._bookkeep(after, result)
            return result

        return timed

    def _bookkeep(self, fn, *args):
        return self._timed(fn, BOOKKEEPING)(*args)

    # -- counts -----------------------------------------------------------

    def _bump_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _count_run(self, trace) -> None:
        c = self.counts
        c["engine.runs"] += 1
        c["engine.steps"] += trace.k
        c["engine.resamples"] += sum(map(len, trace.resampled))
        c["engine.digits"] += sum(trace.h_final)
        self._bump_max("engine.max_resamples", trace.max_resamples)
        self._bump_max("engine.trace_cells", 2 * len(trace.assignments) * len(trace.final))
        system = trace.system
        if trace.status == "satisfied" or not self._violating_set(system.graph, system.rule, trace.final):
            c["engine.satisfied"] += 1

    def _count_code(self, code) -> None:
        if code.witness is None:
            self.counts["landscapes.empty_landscapes"] += 1
        else:
            self.counts["landscapes.witness_verts"] += len(code.witness.verts)

    def _counted_map(self, inner):
        """A map that first adds up the pickled size of its arguments, the
        bytes a process pool would send to its workers."""

        def counted(fn, items):
            items = list(items)

            def measure():
                self.counts["counting.map_arg_bytes"] += sum(len(pickle.dumps(a)) for a in items)

            self._bookkeep(measure)
            return inner(fn, items)

        return counted

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        lk = self.lk
        modules = list(vars(lk).values())
        after = {
            "engine.run": self._count_run,
            "graphs.sparse_partition": lambda p: self._bump_max("graphs.parts", p.part_count),
            "landscapes.window_params": lambda n: self._bump_max("landscapes.window_n", n),
            "landscapes.encode": self._count_code,
        }
        for home, attr, name in TIMED:
            original = getattr(getattr(lk, home), attr)
            fn = original
            if name == "counting.tail_estimate":
                def fn(*args, run_map=map, _original=original, **kwargs):
                    return _original(*args, run_map=self._counted_map(run_map), **kwargs)
            wrapped = self._timed(fn, name, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        graph_cls = lk.graphs.VariableGraph
        self._patch(graph_cls, "sym_adj", property(self._timed(graph_cls.sym_adj.fget, SYM_ADJ)))
        tape_cls = lk.engine.RandomTape
        finite_random = tape_cls.__dict__["finite_random"].__func__
        self._patch(tape_cls, "finite_random", classmethod(self._timed(finite_random, TAPE)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "run": run}) + "\n")

    # -- metrics ----------------------------------------------------------

    def metrics(self, wall: float, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the run traced since the last reset."""
        spans = self.spans
        out = {_self_metric(name): 0.0 for name in SPAN_NAMES}
        for span, own in zip(spans, self_times(spans)):
            if span[0] != BOOKKEEPING:
                out[_self_metric(span[0])] += own
        counts = dict(self.counts)
        satisfied = counts.pop("engine.satisfied")
        out.update({key: float(value) for key, value in counts.items()})
        runs = counts["engine.runs"]
        run_time = sum(s[2] - s[1] for s in spans if s[0] == "engine.run")
        out["engine.satisfied_ratio"] = satisfied / runs if runs else 0.0
        out["engine.steps_per_s"] = counts["engine.steps"] / run_time if run_time else 0.0
        out["engine.digits_per_s"] = counts["engine.digits"] / run_time if run_time else 0.0
        out["cli.stdout_bytes"] = float(stdout_bytes)
        layer = [(s[1], s[2]) for s in spans if s[0] not in (ROOT, BOOKKEEPING)]
        out["trace.span_coverage"] = covered(layer, float("-inf"), float("inf")) / wall
        return out


def _self_metric(span_name: str) -> str:
    return "cli.self_s" if span_name == ROOT else f"{span_name}_s"
