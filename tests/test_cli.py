import contextlib
import errno
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lllkit import bundled_instances, cli, counting, engine, graphs, instance_to_json, instances, landscapes, properties
from lllkit.instances import from_cnf, random_bounded_overlap_sat
from lllkit.cli import build_system, main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

SAT_TEXT = "c three disjoint clauses\np cnf 9 3\n1 2 3 0\n4 5 6 0\n7 8 9 0\n"


@pytest.fixture
def dimacs_file(tmp_path):
    path = tmp_path / "small.cnf"
    path.write_text(SAT_TEXT)
    return str(path)


def _big_int(digits: str) -> int:
    """``int(digits)`` past the interpreter's 4,300-digit limit, 4,000 digits at a time."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestSolve:
    def test_dimacs_success(self, dimacs_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["solve", "--dimacs", dimacs_file, "--seed", "1", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["status"] == "satisfied"
        assert result["certified"] is True
        assert len(result["assignment"]) == 12  # 3 clauses + 9 variables

    def test_torus_success(self, tmp_path, capsys):
        # 8 translates, 2 colors: p = 2/256 clears the degree-15 threshold
        code = main(["solve", "--torus", "1,24,8,2", "--seed", "2",
                     "--partition", "singletons"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["status"] == "satisfied"

    @pytest.mark.parametrize("b, out_adj, allowed, command", [
        (2, [(1,), ()], [set(), {()}], ["solve"]),
        (2, [(0,)], [set()], ["tail", "--seeds", "40", "--cap", "3", "--partition", "singletons"]),
        # at b = 1 tail's slope fit would take a logarithm to base 1
        (1, [(0,)], [set()], ["tail", "--seeds", "40", "--cap", "3", "--partition", "singletons"]),
    ], ids=["solve", "tail-b2", "tail-b1"])
    def test_unsatisfiable_vertex_diagnosed(self, b, out_adj, allowed, command, tmp_path, capsys):
        # a vertex whose allowed set is empty is rejected before running
        from lllkit import LocalRule, VariableGraph, instance_to_json

        graph = VariableGraph(out_adj)
        rule = LocalRule.for_graph(graph, b, allowed)
        path = tmp_path / "bad.json"
        path.write_text(instance_to_json(graph, rule))
        code = main([*command, "--instance", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "no assignment" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_condition_failure_needs_force(self, tmp_path, capsys):
        # star-shaped CNF with dependency degree 4 fails the tight condition
        text = "p cnf 9 4\n1 2 3 0\n1 4 5 0\n2 6 7 0\n3 8 9 0\n"
        path = tmp_path / "star.cnf"
        path.write_text(text)
        assert main(["solve", "--dimacs", str(path)]) == 2
        capsys.readouterr()
        assert main(["solve", "--dimacs", str(path), "--force", "--seed", "4"]) == 0

    def test_no_clauses_certified_at_delta_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 3 0\n")
        assert main(["solve", "--dimacs", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{"status":"satisfied","steps":0,"max_resamples":0,'
            '"condition":{"variant":"tight","delta":0,"threshold":"1","worst_margin":null,"all_pass":true},'
            '"certified":true,"assignment":[0,0,0]}\n'
        )

    def test_condition_numbers_past_the_int_str_limit(self, tmp_path, capsys):
        # 2,000 clauses all reading variable 1: delta = 2,000, so the threshold
        # 1999^1999 / 2000^2000 and the margin have thousands of digits
        path = tmp_path / "star.cnf"
        path.write_text("p cnf 4001 2000\n" + "".join(f"1 {2 * i + 2} {2 * i + 3} 0\n" for i in range(2000)))
        assert main(["solve", "--dimacs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: condition check failed (delta=2000)") and err.count("\n") == 1
        assert main(["solve", "--dimacs", str(path), "--force"]) in (0, 3)
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        numerator, denominator = json.loads(out)["condition"]["threshold"].split("/")
        assert Fraction(_big_int(numerator), _big_int(denominator)) == instances.tight_threshold(2000)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.cnf"
        path.write_text("p cnf 3 1\n1 2 3\n")
        assert main(["solve", "--dimacs", str(path)]) == 2

    def test_missing_instance(self, capsys):
        assert main(["solve"]) == 2

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["solve", "--no-such-flag"]) == 2

    def test_cap_exceeded_exit_code(self, dimacs_file, capsys):
        # all-positive disjoint clauses are violated by the zero assignment,
        # so a zero step budget cannot reach satisfaction
        assert main(["solve", "--dimacs", dimacs_file, "--cap", "0"]) == 3
        result = json.loads(capsys.readouterr().out)
        assert result["status"] == "cap_exceeded"

    def test_deterministic_output(self, dimacs_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["solve", "--dimacs", dimacs_file, "--seed", "5", "--out", str(a)])
        capsys.readouterr()
        main(["solve", "--dimacs", dimacs_file, "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bad", [["--f0", "[9]"], ["--order", "[0]"], ["--partition", "two"]],
                             ids=["f0", "order", "partition"])
    def test_force_failure_writes_one_line(self, bad, tmp_path, capsys):
        """Under --force a failing condition is warned about only once every input is accepted."""
        path = tmp_path / "four.cnf"
        path.write_text("p cnf 3 4\n1 2 3 0\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n")  # delta 4, p = 1/8 > 27/256
        assert main(["solve", "--dimacs", str(path), "--force", *bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""


# the real functions, captured before a test patches them
_decode, _ground, _pad, _count = (
    landscapes.decode_tape, landscapes.ground, engine.pad_uniform, counting.count_labelled_trees)


def _decode_then_lose(code, p, k):
    _decode(code, p, k)  # still rejects a corrupt code


def _decode_leniently(code, p, k):
    with contextlib.suppress(landscapes.CodeCorruptionError):
        return _decode(code, p, k)


def _ground_one_level_up(ls):
    # every Seq(x) is unchanged, so tape codes still decode, but no root is at level 0
    g, ops = _ground(ls)
    lift = {v: (v[0], v[1] + 1) for v in g.verts}
    return g._replace(parent={lift[c]: lift[q] for c, q in g.parent.items()},
                      prev={lift[v]: w for v, w in g.prev.items()}), ops


# fault -> (the suite it fails, module, function the property calls through it, a wrong version)
PLANTED = {
    "roundtrip": ("roundtrip", landscapes, "decode_tape", _decode_then_lose),
    "seq_used": ("seq_used", engine, "used_unused", lambda trace, x: ((-1,), ())),
    "grounding": ("grounding", landscapes, "ground", _ground_one_level_up),
    # a ground that does nothing passes on landscapes that are grounded already
    "grounding-identity": ("grounding", landscapes, "ground", lambda ls: (ls, [])),
    "padding": ("padding", engine, "pad_uniform", lambda system: (_pad(system)[0], system.graph.vertex_count - 1)),
    "tree_counts": ("tree_counts", counting, "count_labelled_trees", lambda delta, n: _count(delta, n) + 1),
    "fault_injection": ("fault_injection", landscapes, "decode_tape", _decode_leniently),
    "sparse_partitions": ("sparse_partitions", graphs, "is_sparse", lambda adj, partition, r: False),
}


class TestVerify:
    def test_default_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["verify", "--tapes", "10", "--runs", "15", "--out", str(out)])
        assert code == 0
        report = out.read_text()
        assert "roundtrip: PASS" in report
        assert "FAIL" not in report

    def test_report_bytes_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["verify", "--tapes", "5", "--runs", "8", "--out", str(a)])
        capsys.readouterr()
        main(["verify", "--tapes", "5", "--runs", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fault", list(PLANTED))
    def test_planted_fault_fails_its_suite(self, fault, monkeypatch, capsys):
        suite, module, name, wrong = PLANTED[fault]
        monkeypatch.setattr(module, name, wrong)
        assert main(["verify", "--tapes", "4", "--runs", "25"]) == 4
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            assert (" FAIL " in line) == line.startswith(suite + ":"), line
        assert captured.out.count("\n") == 7
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["suite"] == suite


def _case_key(value):
    """A suite case's inputs as nested tuples of ints and strings: a run's
    system, k, seed, start and tape digits, a landscape's fields, a graph's
    rows."""
    if isinstance(value, properties.Run):
        return ("run", _case_key(value.system), value.k, value.tape_seed, tuple(value.f0), value.tape().digits)
    if isinstance(value, engine.MtaSystem):
        forbidden = tuple(tuple(sorted(words)) for words in value.rule.forbidden)
        return (value.b, value.graph.out_adj, forbidden, value.partition.part_of)
    if isinstance(value, landscapes.DecoratedLandscape):
        return (value.graph.out_adj, tuple(sorted(value.parent.items())), tuple(sorted(value.prev.items())),
                value.final, value.part_of)
    if isinstance(value, tuple):
        return tuple(map(_case_key, value))
    return value


VERIFY_SUITES = ("roundtrip", "seq_used", "grounding", "padding", "tree_counts", "fault_injection",
                 "sparse_partitions")


def _suite_digests(monkeypatch, seed):
    """The sha256 of each suite's case inputs in one ``verify --seed`` call."""
    digests = {}

    def folding(name, check):
        def run(cases):
            digest = digests[name] = hashlib.sha256()
            def keyed():
                for case in cases:
                    digest.update(repr(_case_key(case)).encode())
                    yield case
            return check(keyed())
        return run

    for name in VERIFY_SUITES:
        monkeypatch.setattr(properties, name, folding(name, getattr(properties, name)))
    assert main(["verify", "--seed", str(seed), "--tapes", "3", "--runs", "4"]) == 0
    monkeypatch.undo()
    return {name: digest.hexdigest() for name, digest in digests.items()}


class TestVerifySeed:
    def test_cases_follow_the_seed(self, monkeypatch, capsys):
        """The stdout is the same for every seed, so the suites' case inputs
        must show the seed: they differ between seeds 0 and 1 and repeat for
        one seed.  ``tree_counts`` (a fixed grid) and ``sparse_partitions``
        (the bundled graphs) do not use the seed."""
        zero, one, again = (_suite_digests(monkeypatch, seed) for seed in (0, 1, 0))
        assert sorted(zero) == sorted(VERIFY_SUITES)
        assert zero == again
        assert {name for name in VERIFY_SUITES if zero[name] != one[name]} == {
            "roundtrip", "seq_used", "grounding", "padding", "fault_injection"}
        outputs = capsys.readouterr().out
        assert outputs == 3 * outputs[:len(outputs) // 3]


class TestDependencyGraphOnce:
    def test_solve_builds_rel_once(self, dimacs_file, monkeypatch, capsys):
        calls = []
        build_rel = graphs.build_rel

        def counted(graph):
            calls.append(graph)
            return build_rel(graph)

        monkeypatch.setattr(graphs, "build_rel", counted)
        assert main(["solve", "--dimacs", dimacs_file, "--seed", "1"]) == 0
        assert len(calls) == 1

    def test_generate_builds_its_instance_once(self, monkeypatch, capsys):
        # one graph for the generated instance, one rel for the check and the solve
        calls = {"from_cnf": 0, "build_rel": 0}
        for module, name in ((instances, "from_cnf"), (graphs, "build_rel")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        assert main(["solve", "--generate", "2000,3", "--seed", "1"]) == 0
        assert calls == {"from_cnf": 1, "build_rel": 1}

    @pytest.mark.parametrize("spec", ["singletons", "auto", "1"])
    def test_system_shares_the_graphs_rel(self, spec):
        # The system reads the graph's own rows, and builds them in set-up.
        graph, rule = bundled_instances()["chain"]
        assert "rel" not in vars(graph)
        build_system(graph, rule, spec, Fraction(1, 2))
        assert "rel" in vars(graph)


class TestCount:
    def test_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code = main(["count", "--deltas", "2", "--n-max", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kind,params,count,bound,pass"
        assert len(lines) == 11
        assert all(line.endswith("True") for line in lines[1:])

    def test_bounds_past_the_int_str_limit(self, capsys):
        assert main(["count", "--deltas", "200"]) == 0
        rows = capsys.readouterr().out.splitlines()
        numerator, denominator = rows[-1].split(",")[3].split("/")
        assert len(numerator) > 4300
        assert Fraction(_big_int(numerator), _big_int(denominator)) == counting.labelled_tree_bound(200, 10)

    def test_delta_one_rejected(self, capsys):
        assert main(["count", "--deltas", "1,2", "--n-max", "3"]) == 2
        assert "delta >= 2" in capsys.readouterr().err

    def test_landscape_rows(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code = main(["count", "--deltas", "2", "--n-max", "2", "--landscapes",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"tree", "landscape"}


class TestTail:
    def test_csv_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["tail", "--bundled", "disjoint", "--seeds", "120", "--n-max", "4",
                "--partition", "singletons", "--cap", "200"]
        assert main(args + ["--out", str(a)]) == 0
        capsys.readouterr()
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert lines[0] == "N,trials,exceedances,phat,ci"
        assert len(lines) == 6

    def test_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "chart.svg"
        code = main(["tail", "--bundled", "disjoint", "--seeds", "60", "--n-max", "3",
                     "--partition", "singletons", "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_svg_without_positive_estimates(self, tmp_path, capsys):
        # satisfied at the all-zero start, so no seed resamples anything
        graph = graphs.VariableGraph([(1,), ()])
        instance = tmp_path / "calm.json"
        instance.write_text(instance_to_json(graph, graphs.LocalRule.for_graph(graph, 2, [{(0,)}, {()}])))
        svg = tmp_path / "chart.svg"
        assert main(["tail", "--instance", str(instance), "--seeds", "5", "--n-max", "2", "--svg", str(svg)]) == 0
        assert capsys.readouterr().out.split("\n")[1:4] == ["0,5,0,0.0,0.0", "1,5,0,0.0,0.0", "2,5,0,0.0,0.0"]
        assert svg.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400"><title>exceedance decay</title>'
            '<text x="320" y="200" text-anchor="middle">no positive estimates</text></svg>\n'
        )

    def test_zero_seeds_rejected(self, capsys):
        assert main(["tail", "--bundled", "disjoint", "--seeds", "0"]) == 2

    def test_parallel_jobs_match_sequential(self, tmp_path, capsys):
        a = tmp_path / "serial.csv"
        b = tmp_path / "parallel.csv"
        args = ["tail", "--bundled", "disjoint", "--seeds", "80", "--n-max", "3",
                "--partition", "singletons", "--cap", "200"]
        assert main(args + ["--out", str(a)]) == 0
        capsys.readouterr()
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_more_workers_than_chunks(self, monkeypatch, capsys):
        """Three seeds at --jobs 8 fork two children, not seven, as the parent
        runs the last seed itself, and print the --jobs 1 bytes."""
        fork, forked = os.fork, []

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        args = ["tail", "--bundled", "disjoint", "--seeds", "3", "--seed", "1"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "8"]) == 0
        assert capsys.readouterr().out == serial
        assert len(forked) == 2

    @pytest.mark.parametrize("death, reason", [
        ("killed", "was killed by signal 9"), ("raises", "exited with status 1"),
    ])
    def test_failed_worker_on_one_line(self, death, reason, monkeypatch, tmp_path, capsys):
        """A worker that is killed or raises, on a seed outside the parent's
        share, is one line that names --jobs; no worker returns into the
        caller, and none is left running."""
        parent, tail_worker = os.getpid(), counting._tail_worker

        def failing_worker(system, f, step_cap, seed):
            if seed == 1 and os.getpid() != parent:
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError(seed)
            return tail_worker(system, f, step_cap, seed)

        monkeypatch.setattr(counting, "_tail_worker", failing_worker)
        code = main(["tail", "--bundled", "disjoint", "--seeds", "4", "--seed", "1", "--jobs", "2"])
        if os.getpid() != parent:  # a worker came back here
            (tmp_path / "escaped").touch()
            os._exit(0)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the workers of --jobs 2 failed: worker ")
        assert f" {reason} after sending 0 of 2 results\n" in captured.err and captured.err.count("\n") == 1
        assert not (tmp_path / "escaped").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    @pytest.mark.parametrize("death, reason", [
        ("killed", "was killed by signal 9"), ("raises", "exited with status 1"),
    ])
    def test_worker_dead_on_its_first_seed_stops_the_parent(self, death, reason, monkeypatch, tmp_path, capsys):
        """A worker that dies on its first seed is noticed between the
        parent's own seeds: the parent runs at most a few of its 100 before
        the one-line error.  Its first seed waits, without reaping, until
        the worker has ended, so the count does not hang on timing."""
        parent, tail_worker = os.getpid(), counting._tail_worker
        ran: list[int] = []

        def dying_worker(system, f, step_cap, seed):
            if os.getpid() != parent:
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError(seed)
            if not ran:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            ran.append(seed)
            return tail_worker(system, f, step_cap, seed)

        monkeypatch.setattr(counting, "_tail_worker", dying_worker)
        code = main(["tail", "--bundled", "disjoint", "--seeds", "200", "--seed", "1", "--jobs", "2"])
        if os.getpid() != parent:  # a worker came back here
            (tmp_path / "escaped").touch()
            os._exit(0)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the workers of --jobs 2 failed: worker ")
        assert captured.err.endswith(f" {reason} after sending 0 of 100 results\n") and captured.err.count("\n") == 1
        assert 1 <= len(ran) <= 2, ran
        assert not (tmp_path / "escaped").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bundled": "disjoint", "seed": 9, "partition": "singletons"}))
        code = main(["--config", str(cfg), "solve"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["status"] == "satisfied"

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bundled": "disjoint", "seeds": 10}))
        code = main(["--config", str(cfg), "tail", "--seeds", "25", "--n-max", "2",
                     "--partition", "singletons"])
        assert code == 0
        out = capsys.readouterr().out
        assert "25" in out.split("\n")[1]

    def test_config_spellings_match(self, tmp_path, capsys):
        """--config PATH and --config=PATH, before or after the subcommand, run the same."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bundled": "disjoint", "seeds": 5, "partition": "singletons"}))
        outputs = []
        for argv in (["--config", str(cfg), "tail", "--n-max", "2"], [f"--config={cfg}", "tail", "--n-max", "2"],
                     ["tail", "--n-max", "2", "--config", str(cfg)], ["tail", f"--config={cfg}", "--n-max", "2"]):
            assert main(argv) == 0, argv
            outputs.append(capsys.readouterr().out)
        assert outputs[0].split("\n")[1].startswith("0,5,")  # the file's 5 seeds ran
        assert outputs == [outputs[0]] * 4

    @pytest.mark.parametrize("argv, named", [
        (["--conf", "cfg.json", "tail", "--bundled", "disjoint", "--n-max", "2"], "--conf"),
        (["--config", "cfg.json", "solve", "--torus", "2,16,8,2"], "--torus"),
        (["--config", "cfg.json", "tail", "--torus", "1,24,8,2", "--seeds", "5", "--n-max", "2"], "--torus"),
        (["--config", "bad_seed.json", "solve", "--bundled", "disjoint", "--seed", "3"], "--seed"),
        (["--config", "null.json", "solve", "--bundled", "disjoint"], "got 'null'"),
        (["tail", "--bundled", "disjoint", "--jo", "2", "--seeds", "5"], "--jo"),
    ], ids=["abbreviated", "solve-second-source", "tail-second-source", "overridden-bad-entry", "null-entry",
            "abbreviated-subcommand-option"])
    def test_config_refused_on_one_line(self, argv, named, tmp_path, monkeypatch, capsys):
        """An abbreviated --config or subcommand option, a source on top of the
        file's, a bad entry that a flag overrides and a null entry each exit 2
        with one line, having run nothing.  The line names the option at
        fault, not the value after it, and quotes a value as the file wrote it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"bundled": "disjoint"}')
        (tmp_path / "bad_seed.json").write_text('{"seed": "x"}')
        (tmp_path / "null.json").write_text('{"partition": null}')
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert named in captured.err and "cfg.json" not in captured.err, captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value, injected", [(True, ["--force"]), (False, [])])
    def test_boolean_entry_is_a_bare_flag(self, value, injected, tmp_path):
        """true injects the flag alone and false injects nothing, so a
        config can turn --force on but never passes it a value."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"force": value, "seed": 4}))
        argv = cli._apply_config_file(["--config", str(path), "solve", "--bundled", "chain"])
        assert argv == ["solve", *injected, "--seed=4", "--bundled", "chain"]
        assert cli.make_parser().parse_args(argv).force is value

    def test_empty_config_key_is_unrecognized(self, tmp_path, capsys):
        cfg = tmp_path / "empty_key.json"
        cfg.write_text('{"": 1}')
        assert main(["--config", str(cfg), "verify", "--tapes", "1", "--runs", "1"]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --=1\n"


class TestInstanceSources:
    """Each instance source option parses to the config
    ``load_instance_from_config`` takes; a generator config gets its seed
    from --seed when the instance is loaded."""

    SOURCES = [
        (["--dimacs", "small.cnf"], {"kind": "dimacs", "path": "small.cnf"}),
        (["--instance", "chain.json"], {"kind": "json", "path": "chain.json"}),
        (["--bundled", "chain"], {"kind": "bundled", "name": "chain"}),
        (["--torus", "1,24,8,2"], {"kind": "torus", "dimension": 1, "side": 24, "count": 8, "colors": 2}),
        (["--generate", "40,3"], {"kind": "generator", "clauses": 40, "delta": 3}),
    ]

    @pytest.mark.parametrize("command", ["solve", "tail"])
    @pytest.mark.parametrize("source, cfg", SOURCES, ids=[argv[0] for argv, _ in SOURCES])
    def test_source_parses_to_its_config(self, command, source, cfg, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "small.cnf").write_text(SAT_TEXT)
        (tmp_path / "chain.json").write_text(instance_to_json(*bundled_instances()["chain"]))
        parsed = cli.make_parser().parse_args([command, *source])
        assert parsed.source == cfg
        graph, rule = cli.load_instance_from_config({**cfg, "seed": 0})
        assert graph.vertex_count == rule.vertex_count > 0

    def test_unknown_kind_refused(self):
        with pytest.raises(cli.CliError) as exc:
            cli.load_instance_from_config({"kind": "nope"})
        assert exc.value.code == 2 and str(exc.value) == "unknown instance kind 'nope'"

    def test_config_entry_parses_to_its_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"torus": "1,24,8,2", "seed": 4}))
        argv = cli._apply_config_file(["--config", str(path), "solve"])
        parsed = cli.make_parser().parse_args(argv)
        assert parsed.source == {"kind": "torus", "dimension": 1, "side": 24, "count": 8, "colors": 2}
        assert parsed.seed == 4

    # sha256 of each command's --help at 1000 columns, without colour, as
    # Python 3.10 to 3.13 print it; a narrower terminal wraps the usage line
    # differently from one Python to the next.
    HELP_SHA256 = {
        "solve": "f74b924c20ccebec3ca15dd2a7c49afe94f0e006eabd61ae45701527743b612a",
        "tail": "f4619fdb2b163db2d62e49619c3e31b80843ed9405f180b8ce5d4a28893c68db",
    }

    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_bytes_are_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")
        monkeypatch.setenv("NO_COLOR", "1")
        monkeypatch.delenv("FORCE_COLOR", raising=False)
        monkeypatch.delenv("PYTHON_COLORS", raising=False)
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP_SHA256[command], out


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ["solve", "--bundled", "chain", "--partition", "-2"],
        ["solve", "--bundled", "chain", "--partition", "two"],
        ["tail", "--bundled", "chain", "--seeds", "2", "--jobs", "0"],
        ["solve", "--bundled", "disjoint", "--f0", "notjson"],
        ["solve", "--bundled", "disjoint", "--f0", '{"0": 1}'],
        ["solve", "--bundled", "disjoint", "--f0", "[0,1]"],
        ["solve", "--bundled", "disjoint", "--f0", json.dumps([0] * 23 + [2])],
        ["solve", "--bundled", "disjoint", "--f0", json.dumps([0] * 23 + [-1])],
        ["solve", "--bundled", "disjoint", "--f0", json.dumps([0] * 23 + ["1"])],
        ["solve", "--bundled", "chain", "--cap", "-1"],
        ["tail", "--bundled", "chain", "--seeds", "2", "--cap", "-1"],
        ["tail", "--bundled", "chain", "--seeds", "2", "--n-max", "-1"],
        ["count", "--n-max", "-1"],
        ["tail", "--bundled", "chain", "--seeds", str(cli.MAX_TAIL_SEEDS + 1)],
        ["count", "--deltas", "2,x"],
        ["verify", "--tapes", "-1", "--runs", "-1"],
        ["verify", "--tapes", "1", "--runs", "-1"],
        ["solve", "--instance", str(DATA / "wide_alphabet.json")],
    ])
    def test_bad_input_is_config_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("instance", [
        {"b": 2, "vertices": 1, "out_adj": [["a"]], "allowed": [[]]},
        {"b": 2, "vertices": 2, "out_adj": [[1], []], "allowed": [[1], [""]]},
        {"b": "2", "vertices": 2, "out_adj": [[1], []], "allowed": [["1"], [""]]},
        {"b": True, "vertices": 2, "out_adj": [[1], []], "allowed": [["1"], [""]]},
        {"b": 2, "vertices": -1, "out_adj": [], "allowed": []},
        {"b": 2, "vertices": 1.0, "out_adj": [[]], "allowed": [[""]]},
        {"b": 2, "vertices": 1, "out_adj": [0], "allowed": [[""]]},
        {"b": 2, "vertices": 1, "out_adj": [[]], "allowed": ""},
        5,
        {"b": 37, "vertices": 2, "out_adj": [[1], []], "allowed": [["0"], [""]]},  # above the 36 digits 0-9a-z
    ])
    def test_wrongly_typed_instance_json(self, instance, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(instance))
        assert main(["solve", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("b, width", [(10**5, 2), (2, 21), (1025, 2)])
    def test_instance_beyond_the_load_word_limit(self, b, width, tmp_path, capsys):
        # loading enumerates b^width words per vertex: here 2^21 to 10^10 of them
        instance = {"b": b, "vertices": width + 1, "out_adj": [list(range(1, width + 1))]
                    + [[] for _ in range(width)], "allowed": [["0" * width]] + [[""]] * width}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(instance))
        assert main(["solve", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "words" in captured.err and captured.out == ""

    def test_f0_accepted(self, capsys):
        f0 = json.dumps([1] * 24)
        assert main(["solve", "--bundled", "disjoint", "--f0", f0, "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "satisfied"


class TestImportPath:
    def test_cli_imports_no_unused_modules(self):
        """Start-up leaves out modules no command needs before it runs."""
        unused = ("dataclasses", "inspect", "statistics", "string", "hashlib", "_hashlib")
        script = f"import sys; sys.path.insert(0, sys.argv[1]); import lllkit.cli; " \
                 f"print([m for m in {unused} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-S", "-c", script, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_commands_run_without_openssl(self):
        """No command loads OpenSSL's ``_hashlib`` while it runs: a tape and
        its hasher are built only then, which the import check cannot see.
        Nor does ``tail --jobs 2`` load ``multiprocessing``."""
        runs = [
            ["solve", "--bundled", "chain"],
            ["tail", "--bundled", "disjoint", "--seeds", "4", "--jobs", "2"],
            ["verify", "--tapes", "2", "--runs", "2"],
            ["count", "--deltas", "2", "--n-max", "3"],
        ]
        script = "import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); import lllkit.cli\n" \
                 f"for argv in {runs}:\n" \
                 "    with contextlib.redirect_stdout(io.StringIO()):\n" \
                 "        assert lllkit.cli.main(argv) == 0, argv\n" \
                 "print('_hashlib' in sys.modules, 'multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-S", "-c", script, str(SRC)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"


class TestNorthStarTorus:
    def test_torus_64_auto_solves(self):
        # 4,096 vertices in one component; every auto ball covers the torus
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "lllkit.cli", "solve", "--torus", "2,64,10,2"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["certified"] is True and len(result["assignment"]) == 4096

    def test_torus_136_sets_up_and_stops_at_the_cap(self):
        # 18,496 points: a ball per point in the window search and first fit
        # in the partition kept the set-up from ending within a minute
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "lllkit.cli", "solve", "--torus", "2,136,4,2", "--force", "--cap", "5"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 3, proc.stderr
        result = json.loads(proc.stdout)
        assert result["status"] == "cap_exceeded" and len(result["assignment"]) == 136 ** 2


class TestWideRules:
    def test_torus_with_24_translates_solves(self):
        # 2^24 words per rule: only a forbidden-set representation fits
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "lllkit.cli", "solve", "--torus", "2,64,24,2",
             "--partition", "singletons", "--seed", "1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["certified"] is True


class TestBuildSystem:
    @pytest.mark.parametrize("spec", ["singletons", "2"])
    def test_window_params_skipped(self, spec, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("default_window_params called")

        monkeypatch.setattr(landscapes, "default_window_params", forbidden)
        graph, rule = bundled_instances()["chain"]
        system, window_n = build_system(graph, rule, spec, Fraction(1, 2))
        assert window_n is None
        assert system.graph is graph

    def test_auto_reports_window_n(self):
        graph, rule = bundled_instances()["chain"]
        eps = Fraction(1, 2)
        _, window_n = build_system(graph, rule, "auto", eps)
        assert window_n == landscapes.default_window_params(graph.sym_adj, eps)

    def test_auto_takes_a_ball_per_component_not_per_vertex(self, monkeypatch):
        """On about 6,800 vertices in about 800 components, the window search
        and the partition take at most one ball per component and a few per
        tried n, not one per vertex."""
        graph, rule, _ = from_cnf(random_bounded_overlap_sat(2000, 3, 0))  # solve --generate 2000,3
        adj = graph.sym_adj
        components = len({min(graphs.ball(adj, x, len(adj))) for x in range(len(adj))})
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return ball(*args, **kwargs)

        ball = graphs.ball
        monkeypatch.setattr(graphs, "ball", counted)
        monkeypatch.setattr(landscapes, "ball", counted)
        _, window_n = build_system(graph, rule, "auto", Fraction(1, 2))
        assert 0 < calls <= components + 2 * window_n + 2, (calls, components, window_n)
        assert components * 5 < graph.vertex_count


def mutated_instances(rng: random.Random, count: int) -> list[str]:
    """Instance JSON texts, each the bundled chain with one seeded defect."""
    base = json.loads(instance_to_json(*bundled_instances()["chain"]))
    n = base["vertices"]
    junk = [None, -1, 0, 1.5, "x", [], {}, True, [[]], [["0"]], 10**6]
    texts = []
    for _ in range(count):
        obj = json.loads(json.dumps(base))
        kind = rng.randrange(6)
        if kind == 0:
            del obj[rng.choice(sorted(obj))]
        elif kind == 1:
            obj[rng.choice(sorted(obj))] = rng.choice(junk)
        elif kind == 2:
            obj["out_adj"][rng.randrange(n)] = rng.choice([[-1], [n], ["a"], None, [0, 0], 7, []])
        elif kind == 3:
            obj["allowed"][rng.randrange(n)].append(rng.choice(["9", "a", "", "0000", 5, None]))
        elif kind == 4:
            obj["vertices"] += rng.choice((-1, 1))
        text = json.dumps(obj)
        if kind == 5:
            text = text[: rng.randrange(len(text))]
        texts.append(text)
    return texts


class TestMalformedInput:
    """Every malformed input either runs or fails with a documented exit code
    and at most one line on stderr; nothing raises.  Inputs whose size alone
    allocates without bound (such as a 10^10-point torus) are left out."""

    def test_malformed_argv_and_instances(self, tmp_path, capsys):
        files = {
            "two.cnf": "p cnf 3 1\n1 2 0\n",
            "range.cnf": "p cnf 3 1\n1 2 9 0\n",
            "short.cnf": "p cnf 3 2\n1 2 3 0\n",
            "empty.cnf": "",
            "list.json": "[1, 2]",
            "broken.json": "{",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        cases = [
            ["solve", "--torus", "0,4,2,2"],
            ["solve", "--torus=-1,4,2,2"],
            ["solve", "--torus", "2,0,2,2"],
            ["solve", "--torus", "2,4,0,2"],
            ["solve", "--torus", "2,4,2,0"],
            ["solve", "--torus", "2,4,3,5"],
            ["solve", "--torus", "2,4,2"],
            ["solve", "--generate", "0,3"],
            ["solve", "--generate=-5,3"],
            ["solve", "--generate", "5,0"],
            ["solve", "--generate", "x,3"],
            ["solve", "--bundled", "nope"],
            ["solve", "--bundled", "chain", "--cap", "1/0"],
            ["solve", "--bundled", "chain", "--seed", "nan"],
            ["solve", "--bundled", "chain", "--partition", "1.5"],
            ["solve", "--bundled", "chain", "--order", "[0]"],
            ["solve", "--bundled", "chain", "--order", "null"],
            ["solve", "--bundled", "chain", "--seed", str(2**127)],
            ["verify", f"--seed=-{2**64}", "--tapes", "1", "--runs", "1"],
            ["tail", "--bundled", "chain", "--seeds", "-3"],
            ["tail", "--bundled", "chain", "--seeds", "2", "--n-max", "0", "--cap", "0"],
            ["count", "--deltas", "2,,3", "--n-max", "2"],
            ["--config"],
        ]
        cases += [["solve", "--dimacs", str(tmp_path / name)] for name in files if name.endswith(".cnf")]
        cases += [["solve", "--dimacs", str(tmp_path / "missing.cnf")]]
        cases += [["--config", str(tmp_path / name), "solve", "--bundled", "chain"]
                  for name in ("list.json", "broken.json", "missing.json")]
        for i, text in enumerate(mutated_instances(random.Random(5), 12)):
            path = tmp_path / f"mutant{i}.json"
            path.write_text(text)
            cases.append(["solve", "--instance", str(path)])
        assert len(cases) >= 40
        for argv in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2, 3, 4), argv
            assert captured.err.count("\n") <= 1, (argv, captured.err)
        main(["solve", "--torus", "0,4,2,2"])
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--seed", "x"],
        ["solve", "--generate", "-5,3"],
        ["--config", "null_seed.json", "solve", "--bundled", "chain"],
        ["solve", "--torus", "3,8,1000,2"],  # 512,000 reads: 1000 translates are never built
        ["solve", "--torus", "2,64,24,3"],  # 3 * 2^24 - 3 forbidden words per point
        ["count", "--landscapes", "--budget", "5"],  # --budget is no option
        ["solve", "--torus", "2,4,2," + "9" * 41],  # one digit more than a field may have
        ["solve", "--torus", "2,2,5,2"],  # translates collide modulo 2
        ["solve", "--torus", "40,2,2,2"],  # 2^40 points
        ["solve", "--torus", "2,3000,2,2"],  # 9,000,000 points
        ["tail", "--torus", "100000000,1,1,1"],  # a dimension above the cap is never allocated
        ["solve", "--torus", "2,2,1000000000,2"],  # 4 * 10^9 reads
        ["count", "--deltas", "2,3,4", "--n-max", "100"],
        ["count", "--deltas", "2,3,4", "--n-max", "150"],
        ["count", "--deltas", "100000", "--n-max", "2"],
        ["count", "--deltas", "1000000"],
        ["count", "--deltas", "1000", "--n-max", "23"],  # delta * n_max^2 = 529,000
        ["solve", "--bundled", "disjoint", "--torus", "2,16,8,2"],  # two instance sources
        ["tail", "--torus", "1,24,8,2", "--bundled", "disjoint", "--seeds", "5", "--n-max", "2"],
        ["solve", "--dimacs", ""],  # an empty source is still the one source given
        ["tail", "--bundled", "disjoint", "--jo", "2", "--seeds", "5"],  # no abbreviated options
        ["verify", "--ta", "3", "--ru", "3"],
        ["solve", "--bundled", "disjoint", "--se", "5"],
        ["count", "--n", "3"],
        ["solve", "--generate", "100001,3"],  # one clause above the cap
        ["tail", "--bundled", "chain", "--partition", "9" * 5000],  # past int()'s 4,300-digit limit
    ])
    def test_config_error_on_one_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "null_seed.json").write_text('{"seed": null}')
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [
        ["solve", "--bundled", "chain", "--cap", "9" * 5000],  # past int()'s 4,300-digit limit
        ["solve", "--bundled", "chain", "--cap", "-" + "9" * 5000],
        ["solve", "--bundled", "chain", "--seed", "9" * 5000],
        ["solve", "--bundled", "chain", "--seed", "-" + "9" * 5000],
        ["tail", "--bundled", "chain", "--jobs", "9" * 5000],
        ["count", "--n-max", "9" * 5000],
        ["solve", "--bundled", "chain", "--partition", "9" * 5000],
        ["solve", "--bundled", "chain", "--partition", "x" * 5000],
        ["solve", "--bundled", "chain", "--order", "x" * 5000],
        ["count", "--deltas", "x" * 5000],
        ["solve", "--bundled", "chain", "--seed", "x" * 5000],
        ["solve", "--bundled", "x" * 5000],
        ["solve", "--bundled", "chain", "--bogus", "x" * 5000],
        ["verify", "--seed", "1", "w" * 5000],
        ["x" * 5000],
        ["solve", "--bundled", "chain", "--cap", " " + "9" * 4000],  # int() reads blanks and underscores
        ["solve", "--bundled", "chain", "--cap", "9_" * 2000 + "9"],
        ["count", "--deltas", "2, " + "9" * 4000],
    ] + [argv for nines in ("9" * 4000, "9" * 5000) for argv in (
        ["count", "--deltas", f"2,{nines}"],
        ["solve", "--generate", f"{nines},3"],
        ["solve", "--generate", f"5,{nines}"],
        ["solve", "--torus", f"2,{nines},2,2"],
        ["solve", "--torus", f"2,4,{nines},2"],
    )])
    def test_long_value_quoted_in_short_line(self, argv, capsys):
        """A value of thousands of characters is refused on one line of under 200 bytes."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err.encode()) < 200, err

    @pytest.mark.parametrize("flag, cap", [
        ("--seeds", cli.MAX_TAIL_SEEDS), ("--n-max", cli.MAX_TAIL_N), ("--jobs", cli.MAX_JOBS),
    ])
    def test_tail_caps_build_nothing(self, flag, cap, monkeypatch, capsys):
        """Above its cap each of tail's sizes exits 2 with one line before any
        instance or pool is built; at the cap it passes the guard."""
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(cli, "load_instance_from_config", refuse)
        monkeypatch.setattr(counting, "process_map", refuse)
        for value in (cap + 1, 10**9):
            assert main(["tail", "--bundled", "chain", flag, str(value)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {flag} must be at most {cap}, got {value}\n"
        with pytest.raises(Built):
            main(["tail", "--bundled", "chain", flag, str(cap)])

    @pytest.mark.parametrize("command, flag, cap", [
        ("solve", "--cap", cli.MAX_CAP), ("tail", "--cap", cli.MAX_CAP),
        ("verify", "--tapes", cli.MAX_VERIFY_TAPES), ("verify", "--runs", cli.MAX_VERIFY_RUNS),
    ])
    def test_run_caps_load_nothing(self, command, flag, cap, monkeypatch, capsys):
        """Above its cap a run size exits 2 with one line before any instance
        is loaded; at the cap it passes the guard."""
        class Loaded(Exception):
            pass

        def refuse(*args):
            raise Loaded

        monkeypatch.setattr(cli, "load_instance_from_config", refuse)
        monkeypatch.setattr(instances, "bundled_instances", refuse)
        source = [] if command == "verify" else ["--bundled", "chain"]
        for value in (cap + 1, 10**9):
            assert main([command, *source, flag, str(value)]) == 2
            assert capsys.readouterr().err == f"error: {flag} must be at most {cap}, got {value}\n"
        with pytest.raises(Loaded):
            main([command, *source, flag, str(cap)])

    @pytest.mark.parametrize("command", ["solve", "tail"])
    def test_eps_checked_before_the_instance(self, command, tmp_path, monkeypatch, capsys):
        """--eps is no option (the growth rate is ``landscapes.EPS``): on the
        line or in a config file it exits 2 with one line naming it, before
        any instance is loaded."""
        def refuse(*args):
            raise AssertionError("instance loaded")

        monkeypatch.setattr(cli, "load_instance_from_config", refuse)
        (tmp_path / "eps.json").write_text('{"eps": "1/2"}')
        for eps in (["--eps", "1/2"], ["--eps=1/2"], ["--config", str(tmp_path / "eps.json")]):
            assert main([command, "--bundled", "chain", *eps]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "--eps" in err, err

    @pytest.mark.parametrize("command", ["solve", "tail"])
    def test_partition_and_order_checked_before_the_instance(self, command, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("instance loaded")

        monkeypatch.setattr(cli, "load_instance_from_config", refuse)
        assert main([command, "--generate", "50000,3", "--seed", "2", "--partition", "foo"]) == 2
        assert capsys.readouterr().err == "error: --partition wants auto, singletons or a radius >= 0, got 'foo'\n"
        assert main([command, "--bundled", "chain", "--partition", "9" * 5000]) == 2  # past int()'s limit
        cap = instances.MAX_LOAD_VERTICES
        assert capsys.readouterr().err == f"error: --partition must be at most {cap}, got a 5000-digit value\n"
        assert main([command, "--bundled", "chain", "--order", "[0.5]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad vertex order '[0.5]'") and err.count("\n") == 1, err

    def test_generate_cap_builds_nothing(self, monkeypatch, capsys):
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built

        monkeypatch.setattr(cli, "load_instance_from_config", refuse)
        cap = cli.MAX_GENERATE_CLAUSES
        for value in (cap + 1, 10**9):
            assert main(["solve", "--generate", f"{value},3"]) == 2
            assert capsys.readouterr().err == f"error: --generate makes at most {cap} clauses, got {value}\n"
        with pytest.raises(Built):
            main(["solve", "--generate", f"{cap},3"])

    @pytest.mark.parametrize("command", ["solve", "tail"])
    def test_dimacs_bytes_that_are_not_utf8(self, command, tmp_path, capsys):
        """Comment lines may hold any bytes; anywhere else a byte that is not
        UTF-8 is a parse error on one line."""
        args = [command] + (["--seeds", "20", "--n-max", "3"] if command == "tail" else ["--seed", "1"])
        files = {
            "plain.cnf": SAT_TEXT.encode(),
            "latin1.cnf": b"c caf\xe9\n" + SAT_TEXT.encode() + b"c \xff\xfe\x80\n",
            "body.cnf": b"p cnf 9 3\n1 2 3 0\n4 5 \xe9 0\n7 8 9 0\n",
            "header.cnf": b"p\xe9 cnf 9 3\n1 2 3 0\n4 5 6 0\n7 8 9 0\n",
        }
        outputs = {}
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
            code = main(args + ["--dimacs", str(tmp_path / name)])
            outputs[name] = code, capsys.readouterr()
        assert outputs["latin1.cnf"] == outputs["plain.cnf"] and outputs["plain.cnf"][0] == 0
        for name in ("body.cnf", "header.cnf"):
            code, captured = outputs[name]
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: DIMACS parse error") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("header, message", [
        ("p cnf -3 0", "bad problem line"),
        ("p cnf -3 1", "bad problem line"),
        ("p cnf 3 -1", "bad problem line"),
        ("p cnf 9223372036854775807 1", "too many to build"),  # refused by parse_dimacs's vertex cap
        ("p cnf 99999999999999999999 1", "too many to build"),  # so from_cnf never sees either header
    ])
    @pytest.mark.parametrize("command", ["solve", "tail"])
    def test_dimacs_header_counts(self, command, header, message, tmp_path, capsys):
        path = tmp_path / "counts.cnf"
        path.write_text(header + "\n1 2 3 0\n")
        assert main([command, "--dimacs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, err

    def test_vertex_cap_refuses_before_any_graph(self, tmp_path, capsys, monkeypatch):
        cap = instances.MAX_LOAD_VERTICES
        # at the cap, the header parses: cap - 1 variables and one clause
        assert instances.parse_dimacs(f"p cnf {cap - 1} 1\n1 2 3 0\n").variable_count == cap - 1
        assert "length disagrees" in str(pytest.raises(
            ValueError, instances.instance_from_json,
            json.dumps({"b": 2, "vertices": cap, "out_adj": [], "allowed": []})).value)

        def no_build(*args):
            raise AssertionError("built a graph above the vertex cap")

        monkeypatch.setattr(instances, "from_cnf", no_build)
        monkeypatch.setattr(instances, "VariableGraph", no_build)
        path = tmp_path / "over.cnf"
        for header in (f"p cnf {cap} 1", "p cnf 2000000 1"):  # cap + 1 and far above it
            path.write_text(header + "\n1 2 3 0\n")
            assert main(["solve", "--dimacs", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: DIMACS parse error: ") and "too many to build" in err, err
            assert err.count("\n") == 1
        path = tmp_path / "over.json"
        path.write_text(json.dumps({"b": 2, "vertices": cap + 1, "out_adj": [], "allowed": []}))
        assert main(["solve", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: instance load error: ") and "too many to build" in err, err
        assert err.count("\n") == 1

    def test_dimacs_byte_named_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "e9.cnf"
        path.write_bytes(b"p cnf 3 1\n1 2 \xe9 0\n")
        assert main(["solve", "--dimacs", str(path)]) == 2
        assert capsys.readouterr().err == "error: DIMACS parse error: line 2: byte 0xe9 is not UTF-8\n"
        path.write_bytes(b"p\xe9 cnf 3 1\n1 2 3 0\n")  # in the problem line
        assert main(["solve", "--dimacs", str(path)]) == 2
        assert capsys.readouterr().err == "error: DIMACS parse error: line 1: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--bundled", "disjoint", "--out"],
        ["verify", "--tapes", "1", "--runs", "1", "--out"],
        ["count", "--n-max", "2", "--out"],
        ["tail", "--bundled", "disjoint", "--seeds", "5", "--out"],
        ["tail", "--bundled", "disjoint", "--seeds", "5", "--svg"],
    ], ids=["solve", "verify", "count", "tail-out", "tail-svg"])
    def test_unwritable_output_path(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        assert main(argv + [str(target)]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1, err
        assert captured.out == ""

    def test_pool_that_cannot_start_on_one_line(self, monkeypatch, capsys):
        """A refused fork is one line that names --jobs and the OS message."""
        def refused_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refused_fork)
        assert main(["tail", "--bundled", "disjoint", "--seeds", "4", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "--jobs 2" in err and os.strerror(errno.EAGAIN) in err
        assert captured.out == ""

    def test_word_digit_outside_the_digit_set(self, tmp_path, capsys):
        path = tmp_path / "bang.json"
        path.write_text('{"b":2,"vertices":2,"out_adj":[[1],[]],"allowed":[["!"],[""]]}')
        assert main(["solve", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == "error: instance load error: word '!' has digits outside base 2\n"

    @pytest.mark.parametrize("command", ["solve", "tail"])
    def test_order_wants_integers(self, command, capsys):
        n = bundled_instances()["disjoint"][0].vertex_count
        floats = json.dumps([float(x) for x in reversed(range(n))])  # sorts equal to range(n)
        bools = json.dumps([True, False] + list(range(2, n)))
        for order in (floats, bools, '"0123"'):
            assert main([command, "--bundled", "disjoint", "--order", order]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: bad vertex order") and err.count("\n") == 1, err
        assert main([command, "--bundled", "disjoint", "--order", json.dumps(list(range(n)))]) == 0
