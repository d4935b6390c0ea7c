"""Command-line surface: solve, verify, count, and tail subcommands.

Every subcommand is a deterministic function of its configuration
(including seeds): outputs are byte-identical across runs.  Exit codes:
0 success, 2 parse/config error, 3 step cap exceeded, 4 property-suite
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction

from . import counting, engine, instances, landscapes, properties
from .graphs import Partition, sparse_partition, violating_set

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_SUITE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Instance loading
# ---------------------------------------------------------------------------


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad fraction {text!r}: {exc}")
    if eps <= 0:
        raise CliError(f"--eps must be positive, got {text!r}")
    return eps


def _check_non_negative(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 0:
            raise CliError(f"--{name.replace('_', '-')} must be at least 0, got {value}")


def _check_seed(args) -> None:
    # A stream tape keys its hash with the seed in 16 signed bytes, and verify
    # derives tape seeds seed * 100003 + t: a 64-bit seed keeps both in range.
    if not -(1 << 63) <= args.seed < 1 << 63:
        raise CliError(f"--seed must fit in 64 signed bits, got {args.seed}")


def load_instance_from_config(cfg: dict):
    kind = cfg.get("kind")
    if kind == "dimacs":
        try:
            with open(cfg["path"], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {cfg['path']}: {exc}")
        try:
            cnf = instances.parse_dimacs(text, clause_size=3 if cfg.get("strict3", True) else None)
        except ValueError as exc:
            raise CliError(f"DIMACS parse error: {exc}")
        graph, rule, _ = instances.from_cnf(cnf)
        return graph, rule
    if kind == "json":
        try:
            return instances.load_instance(cfg["path"])
        except (OSError, ValueError) as exc:
            raise CliError(f"instance load error: {exc}")
    if kind == "torus":
        try:
            translates = cfg.get("translates")
            if translates is None:
                translates = instances.default_translates(cfg["dimension"], cfg["count"])
            else:
                translates = tuple(tuple(t) for t in translates)
            spec = instances.TorusSpec(cfg["dimension"], cfg["side"], translates, cfg["colors"])
            return instances.torus_instance(spec)
        except (KeyError, ValueError) as exc:
            raise CliError(f"torus spec error: {exc}")
    if kind == "generator":
        try:
            cnf = instances.random_bounded_overlap_sat(
                cfg["clauses"], cfg["delta"], cfg.get("seed", 0)
            )
        except ValueError as exc:
            raise CliError(f"generator error: {exc}")
        graph, rule, _ = instances.from_cnf(cnf)
        return graph, rule
    if kind == "bundled":
        bundle = instances.bundled_instances()
        name = cfg.get("name")
        if name not in bundle:
            raise CliError(f"unknown bundled instance {name!r}; have {sorted(bundle)}")
        return bundle[name]
    raise CliError(f"unknown instance kind {cfg.get('kind')!r}")


def _parse_order(order_cfg, n: int):
    if order_cfg in (None, "index"):
        return None
    try:
        order = json.loads(order_cfg)
        if sorted(order) != list(range(n)):
            raise ValueError("not a permutation")
        return order
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad vertex order {order_cfg!r}: {exc}")


def build_system(graph, rule, partition_cfg, eps: Fraction, order_cfg=None):
    """(system, window parameter n); n is computed only for ``auto``, else None."""
    window_n = None
    if partition_cfg == "singletons":
        partition = Partition.singletons(graph.vertex_count)
    elif partition_cfg == "auto":
        window_n = landscapes.default_window_params(graph.sym_adj, eps)
        partition = sparse_partition(graph.sym_adj, 3 * window_n)
    elif partition_cfg.isdecimal():
        partition = sparse_partition(graph.sym_adj, int(partition_cfg))
    else:
        raise CliError(f"bad partition spec {partition_cfg!r}; want auto, singletons or a radius >= 0")
    order = _parse_order(order_cfg, graph.vertex_count)
    return engine.MtaSystem.build(graph, rule, partition, order), window_n


def _instance_config_from_args(args) -> dict:
    if args.dimacs:
        return {"kind": "dimacs", "path": args.dimacs}
    if args.instance:
        return {"kind": "json", "path": args.instance}
    if args.bundled:
        return {"kind": "bundled", "name": args.bundled}
    if args.torus:
        try:
            d, m, count, colors = (int(t) for t in args.torus.split(","))
        except ValueError:
            raise CliError("--torus wants d,m,translates,colors")
        return {"kind": "torus", "dimension": d, "side": m, "count": count, "colors": colors}
    if args.generate:
        try:
            clauses, delta = (int(t) for t in args.generate.split(","))
        except ValueError:
            raise CliError("--generate wants clauses,delta")
        return {"kind": "generator", "clauses": clauses, "delta": delta, "seed": args.seed}
    raise CliError("no instance source given")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _parse_f0(text: str | None, n: int, b: int) -> list[int]:
    if text is None:
        return [0] * n
    try:
        f0 = json.loads(text)
    except ValueError:
        f0 = None
    digits = isinstance(f0, list) and all(type(d) is int and 0 <= d < b for d in f0)
    if not digits or len(f0) != n:
        raise CliError(f"--f0 wants a JSON list of {n} digits in 0..{b - 1}, one per vertex")
    return f0


def cmd_solve(args) -> int:
    _check_non_negative(args, "cap")
    _check_seed(args)
    graph, rule = load_instance_from_config(_instance_config_from_args(args))
    for x in rule.support:
        if rule.complement_size(x) == rule.full_size(x):
            raise CliError(f"vertex {x} allows no assignment; the instance is unsatisfiable")
    report = instances.check_lll_condition(graph, rule, variant="tight")
    worst = min(report.entries, key=lambda e: e.margin, default=None)
    if not report.all_pass:
        msg = (
            f"condition check failed (delta={report.delta}); "
            f"worst margin {worst.margin if worst else '?'}"
        )
        if not args.force:
            raise CliError(msg + "; pass --force to run anyway")
        print(f"warning: {msg}; proceeding under --force", file=sys.stderr)
    eps = _parse_eps(args.eps)
    f0 = _parse_f0(args.f0, graph.vertex_count, rule.b)
    system, _ = build_system(graph, rule, args.partition, eps, args.order)
    tape = engine.RandomTape.stream(system.b, args.seed)
    trace = engine.run_until_satisfied(system, f0, tape, args.cap)
    leftover = violating_set(graph, rule, trace.final)
    result = {
        "status": trace.status,
        "steps": trace.k,
        "max_resamples": trace.max_resamples,
        "condition": {
            "variant": report.variant,
            "delta": report.delta,
            "threshold": _fraction_str(report.threshold_lo),
            "worst_margin": _fraction_str(worst.margin) if worst else None,
            "all_pass": report.all_pass,
        },
        "certified": trace.status == "satisfied" and not leftover,
        "assignment": list(trace.final),
    }
    text = json.dumps(result, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    if trace.status != "satisfied":
        return EXIT_CAP
    if leftover:
        raise CliError("engine reported success but the certificate fails", EXIT_SUITE)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _bundled_runs(k: int, tape_seeds, only: str | None = None):
    """(name, window n, run) per bundled instance and tape seed, on the auto partition."""
    for name, (graph, rule) in instances.bundled_instances().items():
        if only in (None, name):
            system, n = build_system(graph, rule, "auto", Fraction(1, 2))
            for tape_seed in tape_seeds:
                yield name, n, properties.Run(system, k, tape_seed, [0] * graph.vertex_count)


def cmd_verify(args) -> int:
    _check_non_negative(args, "tapes", "runs")
    _check_seed(args)
    seed, runs, fuzz = args.seed, args.runs, properties.fuzz_runs
    suites = [
        ("roundtrip", properties.roundtrip, _bundled_runs(5, range(seed * 100003, seed * 100003 + args.tapes))),
        ("seq_used", properties.seq_used, fuzz(seed + 1, runs, radius=2, random_f0=True)),
        ("grounding", properties.grounding, ((run, None) for run in fuzz(seed + 2, runs, radius=2))),
        ("padding", properties.padding, fuzz(seed + 3, runs, radius=2, mixed_width=True)),
        ("tree_counts", properties.tree_counts, itertools.product((2, 3, 4), range(1, 9))),
        ("fault_injection", properties.fault_injection, _bundled_runs(4, [seed + 4], only="disjoint")),
        ("sparse_partitions", properties.sparse_partitions,
         ((name, g.sym_adj, r) for name, (g, _) in instances.bundled_instances().items() for r in (1, 2, 3))),
    ]
    failed = None
    lines = []
    for name, check, cases in suites:
        count, failure = check(cases)
        lines.append(f"{name}: {'PASS' if failure is None else 'FAIL'} ({count} cases)")
        failed = failed or failure
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    if failed is not None:
        sys.stderr.write(json.dumps(failed, separators=(",", ":")) + "\n")
        return EXIT_SUITE
    return EXIT_OK


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def _fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


LANDSCAPE_COUNT_POINTS = (
    (1, 2, 1, 1, 1, 1, 2),
    (1, 2, 1, 2, 1, 2, 2),
    (1, 2, 1, 2, 2, 2, 2),
    (0, 2, 1, 1, 0, 2, 2),
)


def cmd_count(args) -> int:
    _check_non_negative(args, "n_max", "budget")
    try:
        deltas = [int(t) for t in args.deltas.split(",")]
    except ValueError:
        raise CliError(f"--deltas wants comma-separated integers, got {args.deltas!r}")
    if any(d < 2 for d in deltas):
        raise CliError("tree bounds require delta >= 2")
    reports = counting.tree_count_reports(deltas, args.n_max)
    if args.landscapes:
        reports += counting.landscape_count_reports(LANDSCAPE_COUNT_POINTS, budget=args.budget)
    rows = ["kind,params,count,bound,pass"]
    for rep in reports:
        params_str = ";".join(f"{k}={v}" for k, v in rep.params.items())
        if not rep.complete:
            params_str += ";partial"
        rows.append(
            f"{rep.kind},{params_str},{rep.count},{_fraction_str(rep.bound)},{rep.passed}"
        )
    csv = "\n".join(rows) + "\n"
    sys.stdout.write(csv)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


def _svg_line_chart(points: list[tuple[float, float]], title: str) -> str:
    """Minimal hand-rolled SVG line chart (no plotting dependency)."""
    width, height, margin = 640, 400, 50
    if not points:
        body = '<text x="320" y="200" text-anchor="middle">no positive estimates</text>'
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            f"<title>{title}</title>{body}</svg>\n"
        )
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x1 = x0 + 1
    if y0 == y1:
        y1 = y0 + 1

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<title>{title}</title>",
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="2" points="{path}"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle">N</text>',
        f'<text x="15" y="{height // 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {height // 2})">log_b exceedance</text>',
    ]
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "".join(parts) + "\n"


def cmd_tail(args) -> int:
    if args.seeds < 1:
        raise CliError("at least one seed is required")
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    _check_non_negative(args, "cap", "n_max")
    _check_seed(args)
    graph, rule = load_instance_from_config(_instance_config_from_args(args))
    eps = _parse_eps(args.eps)
    system, _ = build_system(graph, rule, args.partition, eps, args.order)
    grid = list(range(0, args.n_max + 1))
    seeds = [args.seed + i for i in range(args.seeds)]
    est = counting.tail_estimate(
        system,
        [0] * graph.vertex_count,
        seeds,
        grid,
        args.cap,
        run_map=map if args.jobs == 1 else counting.process_map(args.jobs),
    )
    rows = ["N,trials,exceedances,phat,ci"]
    for n, c, p, ci in zip(est.n_grid, est.exceed_counts, est.phat, est.ci_half):
        rows.append(f"{n},{est.trials},{c},{p!r},{ci!r}")
    csv = "\n".join(rows) + "\n"
    sys.stdout.write(csv)
    if est.slope is not None:
        sys.stdout.write(f"# fitted slope {est.slope!r} (se {est.slope_se!r})\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)
    if args.svg:
        points = [
            (float(n), math.log(p, system.b))
            for n, p in zip(est.n_grid, est.phat)
            if p > 0
        ]
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_svg_line_chart(points, "exceedance decay"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_instance_args(sub) -> None:
    sub.add_argument("--dimacs", help="DIMACS CNF file")
    sub.add_argument("--instance", help="instance JSON file")
    sub.add_argument("--bundled", help="bundled instance name (disjoint, chain, torus)")
    sub.add_argument("--torus", help="torus spec d,m,translates,colors")
    sub.add_argument("--generate", help="random 3-SAT spec clauses,delta")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line (subparsers inherit the class)."""

    def error(self, message: str):
        raise CliError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lllkit", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the resampler until satisfied")
    _add_instance_args(solve)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--cap", type=int, default=1000)
    solve.add_argument("--eps", default="1/2")
    solve.add_argument("--partition", default="auto", help="auto | singletons | <radius>")
    solve.add_argument("--order", default="index", help="index | JSON permutation of the vertices")
    solve.add_argument("--f0", help="JSON list initial assignment (default all zeros)")
    solve.add_argument("--force", action="store_true", help="run despite a failing condition check")
    solve.add_argument("--out", help="write the result JSON here")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tapes", type=int, default=100, help="round-trips per bundled instance")
    verify.add_argument("--runs", type=int, default=100, help="fuzz runs per suite")
    verify.add_argument("--out", help="write the report here")
    verify.set_defaults(func=cmd_verify)

    count = sub.add_parser("count", help="exact counts against their bounds")
    count.add_argument("--deltas", default="2,3,4")
    count.add_argument("--n-max", type=int, default=10)
    count.add_argument("--landscapes", action="store_true", help="include tiny landscape enumerations")
    count.add_argument("--budget", type=int, default=2_000_000)
    count.add_argument("--out", help="write the CSV here")
    count.set_defaults(func=cmd_count)

    tail = sub.add_parser("tail", help="Monte Carlo exceedance estimation")
    _add_instance_args(tail)
    tail.add_argument("--seed", type=int, default=0)
    tail.add_argument("--seeds", type=int, default=1000)
    tail.add_argument("--cap", type=int, default=1000)
    tail.add_argument("--n-max", type=int, default=10)
    tail.add_argument("--eps", default="1/2")
    tail.add_argument("--partition", default="auto")
    tail.add_argument("--order", default="index")
    tail.add_argument("--jobs", type=int, default=1)
    tail.add_argument("--out", help="write the CSV here")
    tail.add_argument("--svg", help="write a log-scale decay chart here")
    tail.set_defaults(func=cmd_tail)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend config-file entries as defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise CliError("--config needs a path")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object")
    rest = argv[:idx] + argv[idx + 2 :]
    if not rest:
        raise CliError("config file given but no subcommand")
    command, tail_args = rest[0], rest[1:]
    injected: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag in tail_args:
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    return [command] + injected + tail_args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except SystemExit as exc:  # --help; usage errors raise CliError
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
