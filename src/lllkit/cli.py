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
import random
import sys
from decimal import Decimal
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


def _write_file(path: str, text: str) -> None:
    """Write an --out or --svg file; a path that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _exact_str(x: Fraction | int) -> str:
    """``str(x)`` at any size: ``Decimal`` writes an int without the 4,300-digit
    limit that ``str`` puts on it."""
    num, den = (format(Decimal(v), "f") for v in (x.numerator, x.denominator))
    return num if den == "1" else f"{num}/{den}"


# ---------------------------------------------------------------------------
# Instance loading
# ---------------------------------------------------------------------------


QUOTE_CHARS = 40  # of a refused value, its error line quotes at most this many characters


def _quote(text: str) -> str:
    """A refused value as its one error line shows it: whole if it is short,
    else its first ``QUOTE_CHARS`` characters and its length."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


def _digit_count(text: str) -> int:
    """The significant digits of ``text`` if it is ASCII digits, as int()
    reads them (blanks around, a sign, underscores), else 0.  A value too
    long to quote is refused by this count before int() reads it (int()
    refuses more than 4,300 digits)."""
    digits = text.strip()
    digits = (digits[1:] if digits[:1] in ("+", "-") else digits).replace("_", "")
    return len(digits.lstrip("0")) if digits.isascii() and digits.isdigit() else 0


def _int(flag: str, lo: int, hi: int):
    """The argparse ``type`` of an integer option with values in [lo, hi]: a
    value is checked when it is parsed, before any instance is read."""
    def convert(text: str) -> int:
        negative = text.strip()[:1] == "-"
        bound = lo if negative else hi
        count = _digit_count(text)
        if count > max(QUOTE_CHARS, len(str(abs(bound)))):
            side, kind = ("least", "negative value") if negative else ("most", "value")
            raise CliError(f"{flag} must be at {side} {bound}, got a {count}-digit {kind}")
        try:
            value = int(text)
        except ValueError:
            raise CliError(f"{flag} wants an integer, got {_quote(text)}")
        if value < lo:
            raise CliError(f"{flag} must be at least {lo}, got {value}")
        if value > hi:
            raise CliError(f"{flag} must be at most {hi}, got {value}")
        return value
    return convert


# A stream tape keys its hash with the seed in 16 signed bytes, and verify
# derives tape seeds seed * 100003 + t: a 64-bit seed keeps both in range.
_seed = _int("--seed", -(1 << 63), (1 << 63) - 1)


def _int_fields(flag: str, text: str) -> list[str]:
    """The comma-separated fields of ``text``; one of more than
    ``QUOTE_CHARS`` digits is refused by its count."""
    fields = text.split(",")
    count = max(map(_digit_count, fields))
    if count > QUOTE_CHARS:
        raise CliError(f"{flag} takes integers of at most {QUOTE_CHARS} digits, got a {count}-digit one")
    return fields


def _ints(flag: str, fields: str):
    """The argparse ``type`` of an option that takes comma-separated integers
    named by ``fields``, such as ``d,m,translates,colors``."""
    def convert(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(t) for t in _int_fields(flag, text))
        except ValueError:
            values = ()
        if len(values) != fields.count(",") + 1:
            raise CliError(f"{flag} wants {fields}")
        return values
    return convert


# At the cap, solve --generate 100000,3 took 4.0 s and 172 MiB on a 2-vCPU host.
MAX_GENERATE_CLAUSES = 100_000


def _generate(text: str) -> tuple[int, int]:
    clauses, delta = _ints("--generate", "clauses,delta")(text)
    if clauses > MAX_GENERATE_CLAUSES:
        raise CliError(f"--generate makes at most {MAX_GENERATE_CLAUSES} clauses, got {clauses}")
    return clauses, delta


def _partition(text: str) -> str | int:
    # Every radius of at least V - 1 gives the same partition, so the vertex cap bounds it.
    if text in ("auto", "singletons"):
        return text
    if text.isdecimal():
        return _int("--partition", 0, instances.MAX_LOAD_VERTICES)(text)
    raise CliError(f"--partition wants auto, singletons or a radius >= 0, got {_quote(text)}")


def _order(text: str) -> list[int] | None:
    """None for ``index``, else the JSON list of integers; that it is a
    permutation is checked once the instance is loaded."""
    if text == "index":
        return None
    try:
        order = json.loads(text)
    except ValueError:
        order = None
    if not isinstance(order, list) or any(type(v) is not int for v in order):
        raise CliError(f"bad vertex order {_quote(text)}: --order wants index or a JSON list of integers")
    return order


def load_instance_from_config(cfg: dict):
    """(graph, rule) of an instance source."""
    kind = cfg.get("kind")
    if kind == "dimacs":
        try:
            # A byte that is not UTF-8 becomes a lone surrogate: skipped in a
            # comment, a parse error anywhere else.
            with open(cfg["path"], encoding="utf-8", errors="surrogateescape") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {cfg['path']}: {exc}")
        try:
            cnf = instances.parse_dimacs(text)
        except ValueError as exc:
            raise CliError(f"DIMACS parse error: {exc}")
        graph, rule, _ = instances.from_cnf(cnf)
    elif kind == "json":
        try:
            with open(cfg["path"], encoding="utf-8") as fh:
                graph, rule = instances.instance_from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise CliError(f"instance load error: {exc}")
    elif kind == "torus":
        try:
            instances.check_torus_size(cfg["dimension"], cfg["side"], cfg["count"])
            translates = instances.default_translates(cfg["dimension"], cfg["count"])
            spec = instances.TorusSpec(cfg["dimension"], cfg["side"], translates, cfg["colors"])
            graph, rule = instances.torus_instance(spec)
        except (KeyError, ValueError) as exc:
            raise CliError(f"torus spec error: {exc}")
    elif kind == "generator":
        try:
            cnf = instances.random_bounded_overlap_sat(cfg["clauses"], cfg["delta"], cfg.get("seed", 0))
        except ValueError as exc:
            raise CliError(f"generator error: {exc}")
        graph, rule, _ = instances.from_cnf(cnf)
    elif kind == "bundled":
        bundle = instances.bundled_instances()
        name = cfg.get("name")
        if name not in bundle:
            raise CliError(f"unknown bundled instance {_quote(str(name))}; have {sorted(bundle)}")
        graph, rule = bundle[name]
    else:
        raise CliError(f"unknown instance kind {cfg.get('kind')!r}")
    return graph, rule


def build_system(graph, rule, partition_cfg, eps: Fraction, order=None):
    """(system, window parameter n); n is computed only for ``auto``, else None.
    ``partition_cfg`` is auto, singletons or a radius, as ``--partition`` takes it."""
    window_n = None
    if partition_cfg == "singletons":
        partition = Partition.singletons(graph.vertex_count)
    elif partition_cfg == "auto":
        window_n = landscapes.default_window_params(graph.sym_adj, eps)
        partition = sparse_partition(graph.sym_adj, 3 * window_n)
    else:
        partition = sparse_partition(graph.sym_adj, int(partition_cfg))
    try:
        return engine.MtaSystem.build(graph, rule, partition, order), window_n
    except ValueError as exc:  # a loaded instance and its partition fit, so the order is at fault
        raise CliError(f"bad vertex order: {exc}")


def _load_run_instance(args):
    """(graph, rule) of the one instance source the parser let through,
    refused when a vertex allows no assignment: no run can satisfy it."""
    if args.dimacs is not None:
        cfg = {"kind": "dimacs", "path": args.dimacs}
    elif args.instance is not None:
        cfg = {"kind": "json", "path": args.instance}
    elif args.bundled is not None:
        cfg = {"kind": "bundled", "name": args.bundled}
    elif args.torus is not None:
        d, m, count, colors = args.torus
        cfg = {"kind": "torus", "dimension": d, "side": m, "count": count, "colors": colors}
    else:
        clauses, delta = args.generate
        cfg = {"kind": "generator", "clauses": clauses, "delta": delta, "seed": args.seed}
    graph, rule = load_instance_from_config(cfg)
    for x in rule.support:
        if len(rule.forbidden[x]) == rule.b ** rule.word_lengths[x]:
            raise CliError(f"vertex {x} allows no assignment; the instance is unsatisfiable")
    return graph, rule


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
    graph, rule = _load_run_instance(args)
    report = instances.check_lll_condition(graph, rule)
    worst = report.worst_margin
    failed = None
    if not report.all_pass:
        failed = f"condition check failed (delta={report.delta}); worst margin {_exact_str(worst)}"
        if not args.force:
            raise CliError(failed + "; pass --force to run anyway")
    f0 = _parse_f0(args.f0, graph.vertex_count, rule.b)
    system, _ = build_system(graph, rule, args.partition, landscapes.EPS, args.order)
    if failed:
        # Only once every input is accepted, so a failing exit writes one line.
        print(f"warning: {failed}; proceeding under --force", file=sys.stderr)
    tape = engine.RandomTape.stream(system.b, args.seed)
    trace = engine.run_until_satisfied(system, f0, tape, args.cap)
    leftover = violating_set(graph, rule, trace.final)
    result = {
        "status": trace.status,
        "steps": trace.k,
        "max_resamples": trace.max_resamples,
        "condition": {
            "variant": "tight",
            "delta": report.delta,
            "threshold": _exact_str(report.threshold_lo),
            "worst_margin": None if worst is None else _exact_str(worst),
            "all_pass": report.all_pass,
        },
        "certified": trace.status == "satisfied" and not leftover,
        "assignment": list(trace.final),
    }
    text = json.dumps(result, separators=(",", ":")) + "\n"
    if args.out:
        _write_file(args.out, text)
    sys.stdout.write(text)
    if trace.status != "satisfied":
        return EXIT_CAP
    if leftover:
        raise CliError("engine reported success but the certificate fails", EXIT_SUITE)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _bundled_runs(systems: dict, k: int, tape_seeds):
    """(name, window n, run) per bundled system and tape seed.  The runs share
    one tape memo, which lives as long as this generator: the first system to
    reach a seed draws its rows, and a system with more parts draws only the
    rows it lacks."""
    memo: dict = {}
    for name, (system, n) in systems.items():
        for tape_seed in tape_seeds:
            yield name, n, properties.Run(system, k, tape_seed, [0] * system.graph.vertex_count, memo)


def cmd_verify(args) -> int:
    seed, runs = args.seed, args.runs
    # Each bundled instance on the auto partition, built once for every suite that reads it.
    systems = {name: build_system(graph, rule, "auto", landscapes.EPS)
               for name, (graph, rule) in instances.bundled_instances().items()}
    abstract = random.Random(seed + 2)
    suites = [
        ("roundtrip", properties.roundtrip, _bundled_runs(systems, 5, range(seed * 100003, seed * 100003 + args.tapes))),
        ("seq_used", properties.seq_used, properties.fuzz_runs(seed + 1, runs, radius=2, random_f0=True)),
        ("grounding", properties.grounding, (properties.random_abstract_landscape(abstract) for _ in range(runs))),
        ("padding", properties.padding, properties.fuzz_runs(seed + 3, runs, radius=2, mixed_width=True)),
        ("tree_counts", properties.tree_counts, itertools.product((2, 3, 4), range(1, 9))),
        ("fault_injection", properties.fault_injection,
         _bundled_runs({"disjoint": systems["disjoint"]}, 4, [seed + 4])),
        ("sparse_partitions", properties.sparse_partitions,
         ((name, system.graph.sym_adj, r) for name, (system, _) in systems.items() for r in (1, 2, 3))),
    ]
    failed = None
    lines = []
    for name, check, cases in suites:
        count, failure = check(cases)
        lines.append(f"{name}: {'PASS' if failure is None else 'FAIL'} ({count} cases)")
        failed = failed or failure
    report = "\n".join(lines) + "\n"
    if args.out:
        _write_file(args.out, report)
    sys.stdout.write(report)
    if failed is not None:
        sys.stderr.write(json.dumps(failed, separators=(",", ":")) + "\n")
        return EXIT_SUITE
    return EXIT_OK


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


# count's caps keep a run to a few seconds.  The work grows as delta * n_max^2
# per delta: the bound (delta^delta / (delta-1)^(delta-1))^n has about
# n * delta * log10(e * delta) digits, all printed.
MAX_COUNT_N = 60
MAX_COUNT_DELTA = 1000
MAX_COUNT_TABLE = 500_000  # the sum over --deltas of delta * n_max^2
# tail's caps are checked before any seed list, grid, instance or worker is built.
MAX_TAIL_SEEDS = 10**6
MAX_TAIL_N = 10**4
MAX_JOBS = 64
# --cap bounds the rounds of one solve or tail run, whose trace keeps every
# round's sorted tuple of resampled constraints.  At the cap, solve --torus
# 2,24,10,2 --partition 0 never satisfies and took 10.0 s and 25 MiB on a
# 2-vCPU host; on the 64x64 torus a round costs about 8 ms and 2.7 KiB, so
# 10^6 rounds would take hours and 2.6 GiB.
MAX_CAP = 10**4
# At the caps, verify took 80 s and 53 MiB at --tapes 10^5 (the tape memo
# keeps every seed's rows until the suite ends) and 95 s and 24 MiB at
# --runs 10^5.
MAX_VERIFY_TAPES = 10**5
MAX_VERIFY_RUNS = 10**5

LANDSCAPE_COUNT_POINTS = (
    (1, 2, 1, 1, 1, 1, 2),
    (1, 2, 1, 2, 1, 2, 2),
    (1, 2, 1, 2, 2, 2, 2),
    (0, 2, 1, 1, 0, 2, 2),
)


def _parse_deltas(text: str) -> list[int]:
    try:
        deltas = [int(t) for t in _int_fields("--deltas", text)]
    except ValueError:
        raise CliError(f"--deltas wants comma-separated integers, got {_quote(text)}")
    if any(d < 2 for d in deltas):
        raise CliError("tree bounds require delta >= 2")
    if max(deltas) > MAX_COUNT_DELTA:
        raise CliError(f"each delta must be at most {MAX_COUNT_DELTA}, got {max(deltas)}")
    return deltas


def cmd_count(args) -> int:
    table = sum(args.deltas) * args.n_max ** 2
    if table > MAX_COUNT_TABLE:
        raise CliError(f"the sum of the deltas times --n-max squared is {table}, more than {MAX_COUNT_TABLE}")
    reports = counting.tree_count_reports(args.deltas, args.n_max)
    if args.landscapes:
        reports += counting.landscape_count_reports(LANDSCAPE_COUNT_POINTS)
    rows = ["kind,params,count,bound,pass"]
    for rep in reports:
        params_str = ";".join(f"{k}={v}" for k, v in rep.params.items())
        rows.append(
            f"{rep.kind},{params_str},{_exact_str(rep.count)},{_exact_str(rep.bound)},{rep.passed}"
        )
    csv = "\n".join(rows) + "\n"
    if args.out:
        _write_file(args.out, csv)
    sys.stdout.write(csv)
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
    graph, rule = _load_run_instance(args)
    system, _ = build_system(graph, rule, args.partition, landscapes.EPS, args.order)
    grid = list(range(0, args.n_max + 1))
    seeds = [args.seed + i for i in range(args.seeds)]
    try:
        est = counting.tail_estimate(
            system,
            [0] * graph.vertex_count,
            seeds,
            grid,
            args.cap,
            run_map=counting.process_map(args.jobs),
        )
    except OSError as exc:  # the OS refused a fork or a pipe, or a worker died
        raise CliError(f"the workers of --jobs {args.jobs} failed: {exc}")
    rows = ["N,trials,exceedances,phat,ci"]
    for n, c, p, ci in zip(est.n_grid, est.exceed_counts, est.phat, est.ci_half):
        rows.append(f"{n},{est.trials},{c},{p!r},{ci!r}")
    csv = "\n".join(rows) + "\n"
    if args.out:
        _write_file(args.out, csv)
    if args.svg:
        points = [
            (float(n), math.log(p, system.b))
            for n, p in zip(est.n_grid, est.phat)
            if p > 0
        ]
        _write_file(args.svg, _svg_line_chart(points, "exceedance decay"))
    sys.stdout.write(csv)
    if est.slope is not None:
        sys.stdout.write(f"# fitted slope {est.slope!r} (se {est.slope_se!r})\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line (subparsers inherit the class)."""

    def error(self, message: str):
        # argparse repeats a refused argument in full: a long one is quoted
        # after the kind of error, as a refused value is.
        if len(message) > 3 * QUOTE_CHARS:
            kind, _, rest = message.partition(": ")
            message = f"{kind}: {_quote(rest)}"
        raise CliError(message)


def _add_run_args(sub) -> None:
    """The options solve and tail share: exactly one instance source, then the system and its run."""
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--dimacs", help="DIMACS CNF file")
    source.add_argument("--instance", help="instance JSON file")
    source.add_argument("--bundled", help="bundled instance name (disjoint, chain, torus)")
    source.add_argument("--torus", type=_ints("--torus", "d,m,translates,colors"), help="torus spec d,m,translates,colors")
    source.add_argument("--generate", type=_generate, help="random 3-SAT spec clauses,delta")
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--cap", type=_int("--cap", 0, MAX_CAP), default=1000)
    sub.add_argument("--partition", type=_partition, default="auto", help="auto | singletons | <radius>")
    sub.add_argument("--order", type=_order, default="index", help="index | JSON permutation of the vertices")


def _config_parser() -> argparse.ArgumentParser:
    # Without abbreviations, --conf is refused rather than read as --config.
    parser = _Parser(add_help=False, allow_abbrev=False)
    parser.add_argument("--config", help="JSON config file, anywhere on the line; flags override its entries")
    return parser


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lllkit", description=__doc__, parents=[_config_parser()], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the resampler until satisfied", allow_abbrev=False)
    _add_run_args(solve)
    solve.add_argument("--f0", help="JSON list initial assignment (default all zeros)")
    solve.add_argument("--force", action="store_true", help="run despite a failing condition check")
    solve.add_argument("--out", help="write the result JSON here")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="run the property suites", allow_abbrev=False)
    verify.add_argument("--seed", type=_seed, default=0)
    verify.add_argument("--tapes", type=_int("--tapes", 0, MAX_VERIFY_TAPES), default=100, help="round-trips per bundled instance")
    verify.add_argument("--runs", type=_int("--runs", 0, MAX_VERIFY_RUNS), default=100, help="fuzz runs per suite")
    verify.add_argument("--out", help="write the report here")
    verify.set_defaults(func=cmd_verify)

    count = sub.add_parser("count", help="exact counts against their bounds", allow_abbrev=False)
    count.add_argument("--deltas", type=_parse_deltas, default="2,3,4")
    count.add_argument("--n-max", type=_int("--n-max", 0, MAX_COUNT_N), default=10)
    count.add_argument("--landscapes", action="store_true", help="include tiny landscape enumerations")
    count.add_argument("--out", help="write the CSV here")
    count.set_defaults(func=cmd_count)

    tail = sub.add_parser("tail", help="Monte Carlo exceedance estimation", allow_abbrev=False)
    _add_run_args(tail)
    tail.add_argument("--seeds", type=_int("--seeds", 1, MAX_TAIL_SEEDS), default=1000)
    tail.add_argument("--n-max", type=_int("--n-max", 0, MAX_TAIL_N), default=10)
    tail.add_argument("--jobs", type=_int("--jobs", 1, MAX_JOBS), default=1)
    tail.add_argument("--out", help="write the CSV here")
    tail.add_argument("--svg", help="write a log-scale decay chart here")
    tail.set_defaults(func=cmd_tail)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert the --config file's entries right after the subcommand.

    Explicit flags follow them and win, because argparse keeps an option's
    last value; every entry is still parsed, so a bad one is refused.  An
    option before the subcommand other than --config and --help is refused
    by name, before argparse takes the value after it for the subcommand.
    """
    parser = _config_parser()
    config, rest = parser.parse_known_args(argv)
    if rest and rest[0].startswith("-") and rest[0] not in ("-h", "--help"):
        parser.error(f"unrecognized arguments: {rest[0]}")
    path = config.config
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object")
    injected: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            # A value reaches argparse as the file wrote it: null as null, not None.
            injected.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = make_parser().parse_args(_apply_config_file(argv))
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except SystemExit as exc:  # --help; usage errors raise CliError
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
