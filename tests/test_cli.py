import contextlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lllkit import bundled_instances, counting, engine, graphs, instance_to_json, landscapes
from lllkit.cli import build_system, main

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

SAT_TEXT = "c three disjoint clauses\np cnf 9 3\n1 2 3 0\n4 5 6 0\n7 8 9 0\n"


@pytest.fixture
def dimacs_file(tmp_path):
    path = tmp_path / "small.cnf"
    path.write_text(SAT_TEXT)
    return str(path)


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

    def test_unsatisfiable_vertex_diagnosed(self, tmp_path, capsys):
        # a clause whose allowed set is empty is rejected before running
        from lllkit import LocalRule, VariableGraph, save_instance

        graph = VariableGraph([(1,), ()])
        rule = LocalRule.for_graph(graph, 2, [set(), {()}])
        path = tmp_path / "bad.json"
        save_instance(path, graph, rule)
        code = main(["solve", "--instance", str(path)])
        assert code == 2
        assert "no assignment" in capsys.readouterr().err

    def test_condition_failure_needs_force(self, tmp_path, capsys):
        # star-shaped CNF with dependency degree 4 fails the tight condition
        text = "p cnf 9 4\n1 2 3 0\n1 4 5 0\n2 6 7 0\n3 8 9 0\n"
        path = tmp_path / "star.cnf"
        path.write_text(text)
        assert main(["solve", "--dimacs", str(path)]) == 2
        capsys.readouterr()
        assert main(["solve", "--dimacs", str(path), "--force", "--seed", "4"]) == 0

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
    g = _ground(ls)
    lift = {v: (v[0], v[1] + 1) for v in g.verts}
    return g._replace(verts=list(lift.values()), parent={lift[c]: lift[q] for c, q in g.parent.items()},
                      prev={lift[v]: w for v, w in g.prev.items()})


# suite -> (module, function the property calls through it, a wrong version)
PLANTED = {
    "roundtrip": (landscapes, "decode_tape", _decode_then_lose),
    "seq_used": (engine, "used_unused", lambda trace, x: ((-1,), ())),
    "grounding": (landscapes, "ground", _ground_one_level_up),
    "padding": (engine, "pad_uniform", lambda system: (_pad(system)[0], system.graph.vertex_count - 1)),
    "tree_counts": (counting, "count_labelled_trees", lambda delta, n: _count(delta, n) + 1),
    "fault_injection": (landscapes, "decode_tape", _decode_leniently),
    "sparse_partitions": (graphs, "is_sparse", lambda adj, partition, r: False),
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

    @pytest.mark.parametrize("suite", list(PLANTED))
    def test_planted_fault_fails_its_suite(self, suite, monkeypatch, capsys):
        module, name, wrong = PLANTED[suite]
        monkeypatch.setattr(module, name, wrong)
        assert main(["verify", "--tapes", "4", "--runs", "25"]) == 4
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            assert (" FAIL " in line) == line.startswith(suite + ":"), line
        assert captured.out.count("\n") == 7
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["suite"] == suite


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

    @pytest.mark.parametrize("spec", ["singletons", "auto", "1"])
    def test_system_shares_the_graphs_rel(self, spec):
        graph, rule = bundled_instances()["chain"]
        system, _ = build_system(graph, rule, spec, Fraction(1, 2))
        assert system.rel is graph.rel


class TestCount:
    def test_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code = main(["count", "--deltas", "2", "--n-max", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kind,params,count,bound,pass"
        assert len(lines) == 11
        assert all(line.endswith("True") for line in lines[1:])

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


class TestInputValidation:
    @pytest.mark.parametrize("partition", ["auto", "singletons"])
    @pytest.mark.parametrize("argv", [["solve", "--eps", "0"], ["tail", "--seeds", "1", "--eps", "-1"]])
    def test_nonpositive_eps_rejected(self, partition, argv):
        # a non-positive eps once made the window search loop forever
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "lllkit.cli", *argv, "--bundled", "chain", "--partition", partition],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

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
        ["count", "--budget", "-5"],
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
            ["solve", "--bundled", "chain", "--eps", "1/0"],
            ["solve", "--bundled", "chain", "--eps", "nan"],
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
        ["solve", "--torus", "3,8,1000,2"],  # translates collide; 1000^3 vectors are never built
        ["solve", "--torus", "2,64,24,3"],  # 3 * 2^24 - 3 forbidden words per point
    ])
    def test_config_error_on_one_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "null_seed.json").write_text('{"seed": null}')
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
