"""Benchmark of the lllkit CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve-cnf --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``solve-cnf``, ``tail-torus`` and ``verify``; ``--workload all`` runs each
in turn.  All inputs derive from ``--seed``.

``--trace 0`` measures what a user sees.  It times the set-up calls the
CLI makes (in a fresh interpreter, setup_probe.py, several times, reporting
the median), then spawns the CLI once to warm up (for ``tail-torus`` at
``--jobs 1``, so its stdout can be compared with the timed runs at
``--jobs 2``) and as many more times as fit in ``--seconds``.  Children are
spawned by spawner.py; each child's CPU time and peak RSS come from
``os.wait4``, so they include the pool workers it reaped.  Every timed
invocation and set-up sits between two host-speed probes, and the times
reported (``wall_s``, ``setup_s``, ``cpu_s`` and the throughput derived from
``wall_s``) are calibrated to a fixed host speed, as hostspeed.py explains;
the summary and the record also show the raw medians.

``--trace 1`` runs ``cli.main`` in this process at ``--jobs 1``,
alternating untraced runs with runs traced by tracing.py, and reports the
per-layer metrics, the tracing overhead and the share of the traced wall
covered by layer spans.  The spans of the last traced run are written to
``.bench_work/spans-<workload>-seed<seed>.jsonl``.

Every output is checked; a failed check or a wrong exit code counts as a
failed operation.  The last stdout line is the JSON result; the lines
before it are a readable summary and a ``# record`` line with the machine,
the provenance, and every sample of the run with its spread.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
PINS = HERE / "pins.json"  # sha256 of each workload's stdout at DEFAULT_SEED

INVOKE_TIMEOUT_S = 60.0
IMPORT_PROBES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import lllkit.cli; print(time.perf_counter() - t)"

clock = time.perf_counter


class Ops:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: " + "; ".join(problems))


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the
    path and bytecode caching on, as for an installed package: the first
    child writes src/lllkit/__pycache__ and the timed ones read it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


class Spawner:
    """Runs ``python3 <args>`` children through spawner.py and returns
    exit code, stdout, wall seconds, CPU seconds and peak RSS in MiB of
    each child's process tree (pool workers it reaped included)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def __call__(self, args: list[str], workdir: Path) -> tuple[int, str, float, float, float]:
        out_path = workdir / "stdout"
        request = {"args": [sys.executable, *args], "env": child_env(), "stdout": str(out_path),
                   "stderr": str(workdir / "stderr"), "timeout": INVOKE_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited early")
        reply = json.loads(line)
        return (reply["code"], out_path.read_text(encoding="utf-8"), reply["wall"],
                reply["cpu"], reply["maxrss_kib"] / 1024)


def run_in_process(lk, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lk.cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), clock() - start


def output_problems(work, code, stdout: str, first: str | None, pin: str | None) -> list[str]:
    problems = work.check(stdout, code) if isinstance(code, int) else [code]
    if first is not None and stdout != first:
        problems.append("stdout differs from the first invocation")
    if pin is not None and hashlib.sha256(stdout.encode()).hexdigest() != pin:
        problems.append("stdout digest differs from the pinned one")
    return problems


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "iqr_over_median": (q3 - q1) / med if med else None}


def measure_end_to_end(work, spawn: Spawner, workdir: Path, seconds: float, pin, ops: Ops):
    # Set-up is timed in a fresh interpreter, without wrappers.
    code, stdout, *_ = spawn([str(HERE / "setup_probe.py"), work.name, str(work.seed), str(workdir)], workdir)
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    setup = json.loads(stdout)
    raw: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mib": []}
    args = ["-m", "lllkit.cli"]
    code, first, *_ = spawn(args + work.argv(jobs=1), workdir)
    ops.record("warm-up", output_problems(work, code, first, None, pin))
    probes = [hostspeed.parallel_probe(work.jobs)]
    begin = clock()
    while not raw["wall_s"] or clock() - begin < seconds:
        code, stdout, wall, cpu, rss = spawn(args + work.argv(), workdir)
        probes.append(hostspeed.parallel_probe(work.jobs))
        ops.record(f"invocation {ops.attempted}", output_problems(work, code, stdout, first, pin))
        for key, value in zip(("wall_s", "cpu_s", "peak_rss_mib"), (wall, cpu, rss)):
            raw[key].append(value)
    samples = {
        "wall_s": hostspeed.calibrated(raw["wall_s"], probes),
        "setup_s": hostspeed.calibrated(setup["setup"], setup["probes"]),
        "cpu_s": hostspeed.calibrated(raw["cpu_s"], probes),
        "peak_rss_mib": raw["peak_rss_mib"],
        "raw_wall_s": raw["wall_s"],
        "raw_setup_s": setup["setup"],
        "raw_cpu_s": raw["cpu_s"],
        "host_probe_s": probes,
        "setup_host_probe_s": setup["probes"],
    }
    wall = statistics.median(samples["wall_s"])
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "peak_rss_mib": (statistics.median(samples["peak_rss_mib"]), "MiB"),
        "throughput_per_s": (work.items / wall, "1/s"),
    }
    return metrics, samples


def import_seconds(spawn: Spawner, workdir: Path) -> list[float]:
    times = []
    for _ in range(IMPORT_PROBES):
        code, stdout, *_ = spawn(["-c", IMPORT_PROBE], workdir)
        if code != 0:
            raise RuntimeError(f"importing lllkit.cli failed with exit code {code}")
        times.append(float(stdout))
    return times


def measure_layers(work, spawn: Spawner, workdir: Path, seconds: float, pin, ops: Ops):
    lk = workloads.load_package(SRC)
    tracer = tracing.Tracer(lk)
    argv = work.argv(jobs=1)
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_run: list[dict[str, float]] = []
    code, first, _ = run_in_process(lk, argv)  # warm-up: first-run costs stay out
    ops.record("warm-up", output_problems(work, code, first, None, pin))
    begin = clock()
    while not per_run or clock() - begin < seconds:
        # Alternate which side goes first so drift hits both alike.
        for traced in (False, True) if len(per_run) % 2 == 0 else (True, False):
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    code, stdout, wall = run_in_process(lk, argv)
                finally:
                    tracer.uninstall()
                per_run.append(tracer.metrics(wall, len(stdout.encode())))
            else:
                code, stdout, wall = run_in_process(lk, argv)
            label = "traced run" if traced else "untraced run"
            ops.record(label, output_problems(work, code, stdout, first, pin))
            walls[traced].append(wall)
    tracer.write(workdir.parent / f"spans-{work.name}-seed{work.seed}.jsonl")
    imports = import_seconds(spawn, workdir)
    metrics = {name: (statistics.median(r[name] for r in per_run), unit_of(name))
               for name in per_run[0]}
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True], "cli.import_s": imports}
    return metrics, samples


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    return "count"


def provenance(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, check=False)
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lllkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, args, spawn: Spawner) -> None:
    """Measure one workload and print its summary, record and result."""
    scratch = Path(".bench_work")  # relative: main() runs from the checkout root
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        work = workloads.WORKLOADS[name](args.seed, workdir)
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        pin = pins.get(name) if args.seed == DEFAULT_SEED else None
        ops = Ops()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples = measure(work, spawn, workdir, args.seconds, pin, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mode = "traced, in process, --jobs 1" if args.trace else "CLI child processes"
    print(f"{name} seed={args.seed} ({mode}): {ops.attempted} operations, "
          f"{ops.failed} failed, error_rate {ops.failed / ops.attempted}")
    for problem in ops.problems:
        print(f"  FAILED {problem}")
    counts = {key: len(values) for key, values in samples.items()}
    for key, (value, unit) in metrics.items():
        n = counts.get(key, counts.get("traced_wall_s", counts.get("wall_s")))
        label = f"{work.item}_per_s" if key == "throughput_per_s" else key
        print(f"  {label:32s} {value:14.6g} {unit:6s} (n={n})")
    for key in ("raw_wall_s", "raw_setup_s", "raw_cpu_s", "host_probe_s"):
        if key in samples:
            print(f"  {key:32s} {statistics.median(samples[key]):14.6g} s      (n={counts[key]}, not calibrated)")
    record = {
        "workload": name,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": provenance(args.seed),
        "cli_args": work.argv(),
        "throughput_item": work.item,
        "items_per_invocation": work.items,
        "error_rate": ops.failed / ops.attempted,
        "spread": {key: spread(values) for key, values in samples.items()},
        "samples": samples,
    }
    print("# record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn, each printing its own result")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lllkit" / "cli.py").is_file():
        print(f"error: no lllkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # children inherit it, so the paths they are given stay relative
    with Spawner() as spawn:
        for name in workloads.WORKLOADS if args.workload == "all" else [args.workload]:
            run_workload(name, args, spawn)
    return 0


if __name__ == "__main__":
    sys.exit(main())
