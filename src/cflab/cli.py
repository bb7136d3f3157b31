"""Command-line front end.

Subcommands: measure, expand, verify, pillai, subsequence.  Exit codes:
0 all checks/experiments came out as expected, 1 a mathematical check
failed or an experiment verdict contradicts the declared expectation,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from .cfcore import parse_word
from .experiments import (
    DEFAULT_CAP,
    DEFAULT_TOLERANCE,
    VERDICT_NON_NORMAL,
    ExperimentConfig,
    run_pillai,
    run_subsequence,
)
from .reports import (
    bounded_measure_report,
    measure_report,
    measure_text,
    render_json,
    render_report,
)
from .streams import parse_source_spec
from .verify import SUITES, run_joint_k2, run_dominance, run_pairwise, run_reversal

USAGE_ERROR = 2
CHECK_FAILED = 1


def _write_output(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


def _add_common(parser: argparse.ArgumentParser, format_default: str | None = None) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=format_default)
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--jobs", type=int, default=1, help="no effect; kept for compatibility")
    parser.add_argument("--seed", type=int, default=None, help="seed for bare random: sources")
    parser.add_argument("--config", default=None, help="key=value file; flags override it")


def _load_config_defaults(argv: list[str], subparser: argparse.ArgumentParser) -> None:
    """Install key=value lines from the --config file as argument defaults.

    Explicit flags still win because argparse only falls back to defaults.
    Keys supplied by the file also stop being required on the command line.
    """
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise ValueError("--config needs a path") from None
    defaults = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {line!r}")
        defaults[key.strip().replace("-", "_")] = value.strip()
    known = {action.dest for action in subparser._actions}
    unknown = set(defaults) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**defaults)
    for action in subparser._actions:
        if action.dest in defaults:
            action.required = False


def _parse_patterns(raw: list[str]) -> list:
    return [parse_word(text) for text in raw]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflab",
        description="Exact continued-fraction cylinder measures and block-frequency experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="Gauss measure of a cylinder, exactly")
    p.add_argument("word", help="comma-separated partial quotients, e.g. 1,1")
    p.add_argument("--interval", action="store_true", help="also print the cylinder endpoints")
    _add_common(p)

    p = sub.add_parser("expand", help="dump digits of a source, one per line")
    p.add_argument("source", help="source spec, e.g. rational:7/16 or random:seed=42")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run an exhaustive exact verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-digit", type=int, default=5)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p)

    p = sub.add_parser(
        "pillai",
        help="overlapping vs disjoint block frequencies against cylinder measures",
    )
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--pattern",
        action="append",
        dest="patterns",
        default=None,
        help="repeatable; comma-separated word",
    )
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--expect", choices=("consistent", "non-normal"), default="consistent")
    _add_common(p, format_default="json")

    p = sub.add_parser(
        "subsequence",
        help="[1,1] frequency along an arithmetic-progression subsequence",
    )
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, required=True, help="source digits to consume")
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--expect", choices=("consistent", "non-normal"), default="non-normal")
    _add_common(p, format_default="json")

    return parser


def _cmd_measure(args) -> int:
    w = parse_word(args.word)
    if args.format == "json":
        _write_output(render_json(measure_report(w, args.interval)), args.out)
    elif args.format == "csv":
        report = measure_report(w, args.interval)
        if args.interval:
            lo, hi = report.pop("interval")
            report.update({"interval_lo": lo, "interval_hi": hi})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.keys())
        writer.writerow(report.values())
        _write_output(buf.getvalue().encode(), args.out)
    else:
        _write_output(measure_text(w, args.interval).encode(), args.out)
    return 0


def _cmd_expand(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    source = parse_source_spec(args.source, seed=args.seed)
    digits = source.take(args.n)
    _write_output("".join(f"{d}\n" for d in digits).encode(), args.out)
    if source.precision_exhausted:
        print(f"note: precision exhausted after {len(digits)} digits", file=sys.stderr)
    elif len(digits) < args.n:
        print(f"note: source ended after {len(digits)} digits", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "joint-k2":
        result = run_joint_k2(cap=args.cap)
        print(result.summary())
        if args.out:
            report = bounded_measure_report(
                result.measure,
                suite="joint-k2",
                cap=args.cap,
                oracle=result.oracle,
                gamma_11_float=result.gamma_11_float,
                passed=result.passed,
            )
            Path(args.out).write_bytes(render_json(report))
        return 0 if result.passed else CHECK_FAILED
    runner = {
        "reversal": run_reversal,
        "dominance": run_dominance,
        "pairwise": run_pairwise,
    }[args.suite]
    result = runner(args.max_digit, args.max_len)
    print(result.summary())
    if args.out:
        report = {
            "suite": result.suite,
            "passed": result.passed,
            "checked": result.checked,
            "counterexample": (
                None if result.counterexample is None else ",".join(map(str, result.counterexample))
            ),
            "detail": result.detail,
        }
        Path(args.out).write_bytes(render_json(report))
    return 0 if result.passed else CHECK_FAILED


def _experiment_config(args, patterns) -> ExperimentConfig:
    return ExperimentConfig(
        source=args.source,
        n=args.n,
        patterns=patterns,
        b=getattr(args, "b", 1),
        k=getattr(args, "k", 2),
        cap=getattr(args, "cap", DEFAULT_CAP),
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        tolerance=args.tolerance,
    )


def _finish_experiment(report: dict, args) -> int:
    _write_output(render_report(report, args.format), args.out)
    observed_non_normal = report["verdict"] == VERDICT_NON_NORMAL
    expected_non_normal = args.expect == "non-normal"
    return 0 if observed_non_normal == expected_non_normal else CHECK_FAILED


def _cmd_pillai(args) -> int:
    if not args.patterns:
        raise ValueError("pillai needs at least one --pattern")
    patterns = _parse_patterns(
        args.patterns if isinstance(args.patterns, list) else str(args.patterns).split(";")
    )
    report = run_pillai(_experiment_config(args, patterns))
    return _finish_experiment(report, args)


def _cmd_subsequence(args) -> int:
    report = run_subsequence(_experiment_config(args, []))
    return _finish_experiment(report, args)


_COMMANDS = {
    "measure": _cmd_measure,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "pillai": _cmd_pillai,
    "subsequence": _cmd_subsequence,
}

_INT_KEYS = ("n", "b", "k", "cap", "jobs", "seed", "max_digit", "max_len", "checkpoint_every")


def _coerce_config_types(args: argparse.Namespace) -> None:
    # values sourced from a config file arrive as strings
    for key in _INT_KEYS:
        value = getattr(args, key, None)
        if isinstance(value, str):
            setattr(args, key, int(value))
    tol = getattr(args, "tolerance", None)
    if isinstance(tol, str):
        args.tolerance = float(tol)
    pats = getattr(args, "patterns", None)
    if isinstance(pats, str):
        args.patterns = pats.split(";")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        command = argv[0] if argv and not argv[0].startswith("-") else None
        if command in _COMMANDS and "--config" in argv:
            # config defaults must be installed on the subparser before parsing
            _load_config_defaults(argv, _subparser_for(parser, command))
        args = parser.parse_args(argv)
        _coerce_config_types(args)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _subparser_for(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise LookupError(command)


if __name__ == "__main__":
    sys.exit(main())
