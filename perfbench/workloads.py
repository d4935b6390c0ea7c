"""The benchmark's workloads: seeded inputs, CLI argv, output checks, set-up.

Each workload runs one `lllkit` subcommand.  Its inputs are a pure function
of the workload seed, and every output is checked independently of the
program: the solve assignment against the clauses the benchmark wrote
itself, the tail CSV against the laws of an exceedance table, the verify
report against the exact text a passing run prints.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

EPS = Fraction(1, 2)

# Sizes chosen so one invocation takes 1.3 to 1.9 s on a 2-vCPU Xeon: the
# intended layer still dominates (window parameters for solve-cnf, the
# resample loop for tail-torus, landscapes for verify), and the median of a
# 30 s run rests on about twenty invocations.
SOLVE_CLAUSES = 2000
TAIL_TORUS = "2,24,10,2"
TAIL_SEEDS = 300
TAIL_N_MAX = 10  # the CLI's default --n-max
VERIFY_TAPES = 600
VERIFY_RUNS = 150
BUNDLED_COUNT = 3  # disjoint, chain, torus
MODULES = ("graphs", "instances", "engine", "landscapes", "counting", "cli")


def load_package(src: Path) -> SimpleNamespace:
    """Import lllkit from ``src``; the namespace holds the package and its modules."""
    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"lllkit.{m}") for m in MODULES}
    return SimpleNamespace(package=importlib.import_module("lllkit"), **modules)


# ---------------------------------------------------------------------------
# Seeded CNF generation, owned by the benchmark so that a change to the
# package's own generator cannot change the workload.
# ---------------------------------------------------------------------------


def chained_cnf(n_clauses: int, seed: int) -> tuple[int, list[list[int]]]:
    """Chains of 1 to 4 three-literal clauses with fresh variables, where
    each clause after the first shares exactly one variable with its
    predecessor, and that variable is not already shared with the clause
    before.  Every variable then occurs in at most two clauses and every
    clause meets at most two others, so the dependency degree (self
    included) is at most 3 and p = 1/8 stays below the tight threshold
    4/27.  Returns (variable count, clauses as 1-based signed literals).
    """
    rng = random.Random(seed)
    clauses: list[list[int]] = []
    n_vars = 0
    while len(clauses) < n_clauses:
        chain = rng.randint(1, min(4, n_clauses - len(clauses)))
        fresh_prev: list[int] = []
        for pos in range(chain):
            shared = [rng.choice(fresh_prev)] if pos else []
            fresh = list(range(n_vars + 1, n_vars + 4 - len(shared)))
            n_vars += len(fresh)
            variables = shared + fresh
            rng.shuffle(variables)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
            fresh_prev = fresh
    return n_vars, clauses


def to_dimacs(n_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def check_solve(stdout: str, code: int, n_vars: int, clauses: list[list[int]]) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    try:
        result = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON object"]
    if result.get("status") != "satisfied":
        problems.append(f"status {result.get('status')!r}")
    if result.get("certified") is not True:
        problems.append("not certified")
    assignment = result.get("assignment")
    m = len(clauses)
    if not isinstance(assignment, list) or len(assignment) != m + n_vars:
        return problems + ["assignment is missing or has the wrong length"]
    # Vertices are the clauses first, then variable j at m + j - 1; value 1
    # makes a positive literal true.
    for i, clause in enumerate(clauses):
        if not any(assignment[m + abs(lit) - 1] == (lit > 0) for lit in clause):
            problems.append(f"clause {i} {clause} is falsified")
            break
    return problems


def check_tail(stdout: str, code: int, seeds: int, n_max: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "N,trials,exceedances,phat,ci":
        return problems + ["missing CSV header"]
    rows = lines[1 : n_max + 2]
    extra = lines[n_max + 2 :]
    if len(rows) != n_max + 1:
        return problems + [f"{len(rows)} CSV rows, expected {n_max + 1}"]
    if len(extra) > 1 or (extra and not extra[0].startswith("# fitted slope ")):
        problems.append("unexpected lines after the CSV")
    previous = None
    for n, row in enumerate(rows):
        fields = row.split(",")
        try:
            got_n, trials, exceed = int(fields[0]), int(fields[1]), int(fields[2])
            phat = float(fields[3])
        except (IndexError, ValueError):
            return problems + [f"malformed row {row!r}"]
        if got_n != n or trials != seeds:
            problems.append(f"row {row!r}: expected N={n} and trials={seeds}")
        if n == 0 and exceed != seeds:
            problems.append(f"first row counts {exceed} exceedances, expected {seeds}")
        if previous is not None and exceed > previous:
            problems.append(f"exceedances increase at N={n}")
        if phat != exceed / seeds:
            problems.append(f"phat {phat} != {exceed}/{seeds}")
        previous = exceed
    return problems


def verify_suites(tapes: int, runs: int) -> list[tuple[str, int]]:
    """Suite names and case counts of a passing `lllkit verify` run."""
    return [
        ("roundtrip", BUNDLED_COUNT * tapes),
        ("seq_used", runs),
        ("grounding", runs),
        ("padding", runs),
        ("tree_counts", 24),
        ("fault_injection", 3),
        ("sparse_partitions", 3 * BUNDLED_COUNT),
    ]


def verify_report(tapes: int, runs: int) -> str:
    """The exact stdout of a passing `lllkit verify` run."""
    return "".join(f"{name}: PASS ({cases} cases)\n" for name, cases in verify_suites(tapes, runs))


def check_verify(stdout: str, code: int, tapes: int, runs: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    want = verify_report(tapes, runs).splitlines()
    got = stdout.splitlines()
    if len(got) != len(want):
        problems.append(f"{len(got)} report lines, expected {len(want)}")
    problems.extend(f"{g!r}, expected {w!r}" for g, w in zip(got, want) if g != w)
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class SolveCnf:
    name = "solve-cnf"
    item = "clauses"
    jobs = 1  # processes an invocation keeps busy at once

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.n_vars, self.clauses = chained_cnf(SOLVE_CLAUSES, seed)
        self.path = workdir / f"chained-{seed}.cnf"
        self.path.write_text(to_dimacs(self.n_vars, self.clauses), encoding="utf-8")
        self.items = len(self.clauses)

    def argv(self, jobs: int | None = None) -> list[str]:
        return ["solve", "--dimacs", str(self.path), "--seed", str(self.seed)]

    def check(self, stdout: str, code: int) -> list[str]:
        return check_solve(stdout, code, self.n_vars, self.clauses)

    def setup(self, lk) -> object:
        graph, rule = lk.cli.load_instance_from_config({"kind": "dimacs", "path": str(self.path)})
        return lk.cli.build_system(graph, rule, "auto", EPS)[0]


class TailTorus:
    name = "tail-torus"
    item = "seeds"
    jobs = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.items = TAIL_SEEDS

    def argv(self, jobs: int | None = None) -> list[str]:
        return [
            "tail", "--torus", TAIL_TORUS, "--partition", "singletons",
            "--seeds", str(TAIL_SEEDS), "--seed", str(self.seed),
            "--jobs", str(jobs or self.jobs),
        ]

    def check(self, stdout: str, code: int) -> list[str]:
        return check_tail(stdout, code, TAIL_SEEDS, TAIL_N_MAX)

    def setup(self, lk) -> object:
        d, m, count, colors = (int(t) for t in TAIL_TORUS.split(","))
        config = {"kind": "torus", "dimension": d, "side": m, "count": count, "colors": colors}
        graph, rule = lk.cli.load_instance_from_config(config)
        return lk.cli.build_system(graph, rule, "singletons", EPS)[0]


class Verify:
    name = "verify"
    item = "cases"
    jobs = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.items = sum(cases for _, cases in verify_suites(VERIFY_TAPES, VERIFY_RUNS))

    def argv(self, jobs: int | None = None) -> list[str]:
        return ["verify", "--seed", str(self.seed), "--tapes", str(VERIFY_TAPES), "--runs", str(VERIFY_RUNS)]

    def check(self, stdout: str, code: int) -> list[str]:
        return check_verify(stdout, code, VERIFY_TAPES, VERIFY_RUNS)

    def setup(self, lk) -> object:
        # The calls the roundtrip suite makes before its first tape.
        systems = []
        for graph, rule in lk.instances.bundled_instances().values():
            adj = graph.sym_adj
            n = lk.landscapes.default_window_params(adj, EPS)
            partition = lk.graphs.sparse_partition(adj, 3 * n)
            systems.append(lk.engine.MtaSystem.build(graph, rule, partition))
        return systems


WORKLOADS = {w.name: w for w in (SolveCnf, TailTorus, Verify)}
