"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lllkit import instances  # noqa: E402


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert workloads.chained_cnf(300, 7) == workloads.chained_cnf(300, 7)
    assert workloads.chained_cnf(300, 7) != workloads.chained_cnf(300, 8)


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_generator_passes_the_tight_condition(seed):
    n_vars, clauses = workloads.chained_cnf(500, seed)
    assert len(clauses) == 500
    cnf = instances.parse_dimacs(workloads.to_dimacs(n_vars, clauses))
    graph, rule, _ = instances.from_cnf(cnf)
    report = instances.check_lll_condition(graph, rule, variant="tight")
    assert report.all_pass
    assert report.delta <= 3
    assert report.threshold_lo == Fraction(4, 27)


# -- output checks -----------------------------------------------------------


def solve_output(assignment):
    return json.dumps({"status": "satisfied", "certified": True, "assignment": assignment})


def test_solve_check_rejects_a_flipped_assignment_bit():
    # Clause 0 is (x1 or not x2 or x3); only x1 = 1 satisfies it here.
    n_vars, clauses = 3, [[1, -2, 3]]
    good = [0, 1, 1, 0]
    assert workloads.check_solve(solve_output(good), 0, n_vars, clauses) == []
    flipped = [0, 0, 1, 0]
    assert workloads.check_solve(solve_output(flipped), 0, n_vars, clauses)


def test_solve_check_rejects_uncertified_or_failed_runs():
    n_vars, clauses = 3, [[1, -2, 3]]
    out = json.dumps({"status": "satisfied", "certified": False, "assignment": [0, 1, 1, 0]})
    assert workloads.check_solve(out, 0, n_vars, clauses)
    assert workloads.check_solve(solve_output([0, 1, 1, 0]), 3, n_vars, clauses)
    assert workloads.check_solve(solve_output([0, 1, 1]), 0, n_vars, clauses)


def tail_output(seeds, exceedances):
    rows = ["N,trials,exceedances,phat,ci"]
    rows += [f"{n},{seeds},{c},{c / seeds!r},0.0" for n, c in enumerate(exceedances)]
    return "\n".join(rows) + "\n# fitted slope -1.0 (se 0.1)\n"


def test_tail_check_accepts_a_decaying_table_and_rejects_a_dropped_row():
    exceedances = [10, 8, 5, 2, 0]
    out = tail_output(10, exceedances)
    assert workloads.check_tail(out, 0, 10, 4) == []
    lines = out.splitlines(keepends=True)
    dropped = "".join(lines[:3] + lines[4:])
    assert workloads.check_tail(dropped, 0, 10, 4)


def test_tail_check_rejects_wrong_counts():
    assert workloads.check_tail(tail_output(10, [9, 8, 5, 2, 0]), 0, 10, 4)  # first row
    assert workloads.check_tail(tail_output(10, [10, 5, 8, 2, 0]), 0, 10, 4)  # increase
    assert workloads.check_tail(tail_output(10, [10, 8, 5, 2, 0]), 0, 11, 4)  # trials


def test_verify_check_rejects_a_fail_line():
    report = workloads.verify_report(5, 4)
    assert workloads.check_verify(report, 0, 5, 4) == []
    failed = report.replace("grounding: PASS", "grounding: FAIL")
    assert workloads.check_verify(failed, 4, 5, 4)
    assert workloads.check_verify(failed, 0, 5, 4)
    assert workloads.check_verify(report, 0, 6, 4)  # wrong case count


# -- host-speed calibration ----------------------------------------------------


def test_calibration_cancels_a_uniform_slowdown():
    ref = hostspeed.REF_S
    # The same operation on a host twice as slow: raw time and probes double.
    fast = hostspeed.calibrated([1.0, 1.0], [ref, ref, ref])
    slow = hostspeed.calibrated([2.0, 2.0], [2 * ref, 2 * ref, 2 * ref])
    assert fast == pytest.approx([1.0, 1.0]) and slow == pytest.approx(fast)


def test_calibration_uses_the_probes_on_either_side():
    ref = hostspeed.REF_S
    assert hostspeed.calibrated([3.0], [ref, 2 * ref]) == pytest.approx([2.0])
    with pytest.raises(ValueError):
        hostspeed.calibrated([1.0, 1.0], [ref, ref])


def test_parallel_probe_times_each_process():
    assert hostspeed.parallel_probe(2) > 0


# -- self time ---------------------------------------------------------------


def test_self_time_is_span_time_minus_child_time():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has overlapping children d [5, 7] and e [6, 8].
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 1],
        ["d", 5.0, 7.0, 3, 1],
        ["e", 6.0, 8.0, 3, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_covered_clips_to_the_window():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0) == pytest.approx(3.0)


def test_tracer_wraps_imported_names_and_restores_them(capsys):
    lk = workloads.load_package(HERE.parent.parent / "src")
    original = lk.engine.greedy_mis
    tracer = tracing.Tracer(lk)
    tracer.reset()
    tracer.install()
    try:
        assert lk.engine.greedy_mis is not original
        assert lk.graphs.greedy_mis is lk.engine.greedy_mis
        assert lk.cli.main(["verify", "--tapes", "2", "--runs", "2"]) == 0
    finally:
        tracer.uninstall()
    assert lk.engine.greedy_mis is original and lk.graphs.greedy_mis is original
    spans = tracer.spans
    names = {span[0] for span in spans}
    assert {"cli.main", "landscapes.encode", "landscapes.restrict", "graphs.greedy_mis", "engine.tape"} <= names
    assert all(spans[s[3]][0] == "landscapes.encode" for s in spans if s[0] == "landscapes.restrict")
    metrics = tracer.metrics(spans[0][2] - spans[0][1], 0)
    assert metrics["engine.runs"] > 0 and metrics["landscapes.encode_s"] > 0
    capsys.readouterr()

    import run

    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    reported = set(metrics) | {"cli.import_s", "trace.overhead_s"}
    assert {m["name"] for m in declared} == reported
    assert all(run.unit_of(m["name"]) == m["unit"] for m in declared)
