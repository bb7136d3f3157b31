"""Command-line front end.

Subcommands: measure, expand, verify, pillai, subsequence.  Exit codes:
0 all checks/experiments came out as expected, 1 a mathematical check
failed or an experiment verdict contradicts the declared expectation,
2 usage or config error: a UsageError, or an OSError on the --out or
--config file.  Any other exception is a fault of the program and is not
reported as usage.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from typing import Iterable, Iterator

from . import experiments
from .cfcore import UsageError, bad_text, cut, parse_word, quote, shown
from .experiments import VERDICT_NON_NORMAL, ExperimentConfig, check_n, run_pillai, run_subsequence
from .reports import render_json, render_measure, render_report
from .streams import limit, parse_source_spec

USAGE_ERROR = 2
CHECK_FAILED = 1
# what argparse reads as pillai's --pattern: the flag and each abbreviation of it
_PATTERN_FLAGS = {"--pattern"[:end] for end in range(3, 10)}
# Most option tokens, argv and --config file together, that a run may give
# besides pillai's --pattern flags, which have their own bound: room for
# each option of a subcommand twice, once from the file and once from argv.
MAX_OPTION_TOKENS = 100


def _cut_runs(text: str) -> str:
    """text with each run of non-blank characters longer than 45 cut by `cut`.

    45 characters is the longest text `quote` gives, so a value a message
    already quoted keeps its bytes.
    """
    return re.sub(r"\S{46,}", lambda run: cut(run.group()), text)


def _fit(prefix: str, message: str) -> str:
    """message, cut at its end if the line prefix + message would pass 200 bytes.

    Bytes are counted as stderr writes them: UTF-8, and a lone surrogate
    (an argv byte that is not UTF-8) as its backslash escape.
    """
    room = 200 - len(prefix.encode())
    data = message.encode(errors="backslashreplace")
    return message if len(data) <= room else data[: room - 3].decode(errors="ignore") + "..."


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors echo no value whole; subparsers are of this class too."""

    def error(self, message: str):
        super().error(_fit(f"{self.prog}: error: ", _cut_runs(message)))


def _int(text: str) -> int:
    """The type of every int option: bad text is refused in one short line (cfcore.bad_text)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(str(bad_text("int", text))) from None


def _float(text: str) -> float:
    """The type of --tolerance: bad text is refused in one short line."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float text {quote(text)}") from None


@contextlib.contextmanager
def _user_file():
    """Turn an OSError on a file the user named (--out, --config) into a UsageError.

    So is a --config file that is not UTF-8 text (a UnicodeDecodeError).  A
    long path in the message is cut as in the parser's errors.
    """
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise UsageError(_cut_runs(str(exc))) from None


def _write(texts: Iterable[str], out: str | None) -> bool:
    """Write texts, in order, to the file `out`, or to stdout when it is None.

    Each text is drawn as it is written, so a generator of them keeps memory
    flat.  A reader of stdout that leaves early, as in `cflab expand ... |
    head`, ends the writing: no more text is drawn, what is still buffered
    goes to /dev/null at exit, and False is returned.
    """
    if out:
        with _user_file(), open(out, "w", encoding="utf-8", newline="") as file:
            file.writelines(texts)
        return True
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--config", default=None, help="key=value file; flags override it")


def _add_experiment(parser: argparse.ArgumentParser, expect_default: str) -> None:
    """Options pillai and subsequence share; --source and --n are checked when run.

    Options whose default the library owns have none here (see `_given`).
    """
    parser.add_argument("--source")
    parser.add_argument("--n", type=_int, help="source digits to consume")
    parser.add_argument("--checkpoint-every", type=_int, default=None)
    parser.add_argument("--expect", choices=("consistent", "non-normal"), default=expect_default)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=_int, default=None, help="seed for bare random: sources")
    _add_common(parser)


def _config_tokens(path: str) -> list[tuple[str, str]]:
    """(key, flag token) pairs for the key=value lines of the --config file at path.

    Keys are option dests (`-` or `_`); `patterns=a;b` gives one --pattern
    token per word.  The `--flag=value` form keeps a value from taking the
    next token.  A line holding a NUL byte is refused, as no argv value can
    hold one.
    """
    with _user_file(), open(path) as file:
        content = file.read()
    pairs = []
    for line in content.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or "\0" in line:
            raise UsageError(f"bad config line {quote(line)}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key == "patterns":
            pairs += [(key, f"--pattern={text}") for text in value.split(";")]
        else:
            pairs.append((key, f"--{key.replace('_', '-')}={value}"))
    return pairs


def _add_measure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("word", help="comma-separated partial quotients, e.g. 1,1")
    parser.add_argument("--interval", action="store_true", help="also print the cylinder endpoints")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    _add_common(parser)


def _add_expand(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", help="source spec, e.g. rational:7/16 or random:seed=42")
    parser.add_argument("--n", type=_int)
    parser.add_argument("--seed", type=_int, default=None, help="seed for bare random: sources")
    _add_common(parser)


def _verify_options() -> tuple[str, ...]:
    """verify's options, each once, in the order verify.SUITES first names them.

    Each function here that reads cflab.verify imports it in its body, so
    that only a verify run compiles it.
    """
    from .verify import SUITES

    return tuple(dict.fromkeys(name for _, reads in SUITES.values() for name in reads))


def _add_verify(parser: argparse.ArgumentParser) -> None:
    from .verify import SUITES

    parser.add_argument("suite", choices=SUITES)
    for name in _verify_options():
        parser.add_argument(f"--{name.replace('_', '-')}", type=_int)
    _add_common(parser)


def _add_pillai(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pattern",
        action="append",
        dest="patterns",
        default=None,
        help="repeatable; comma-separated word",
    )
    parser.add_argument("--tolerance", type=_float)
    _add_experiment(parser, expect_default="consistent")


def _add_subsequence(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--b", type=_int)
    parser.add_argument("--k", type=_int)
    parser.add_argument("--cap", type=_int)
    _add_experiment(parser, expect_default="non-normal")


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of a run of subcommand `command`.

    Every subcommand is listed with its help line, so the top-level help and
    usage never change, but only `command`'s subparser gets its arguments:
    argparse reads a subparser only to parse that subcommand or print its
    help, and building the other four would be wasted work.
    """
    parser = _Parser(
        prog="cflab",
        description="Exact continued-fraction cylinder measures and block-frequency experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, _) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=text)
        if name == command:
            add_arguments(subparser)
    return parser


def _given(args, *names: str) -> dict:
    """The options among `names` that the user set, by flag or config file.

    An option left unset is not passed on, so the library's default holds.
    """
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _require(args, *flags: str) -> None:
    """Refuse in one line the flags among `flags` that neither argv nor the config file set."""
    missing = [flag for flag in flags if getattr(args, flag[2:]) is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")


def _cmd_measure(args) -> int:
    _write([render_measure(parse_word(args.word), args.interval, args.format).decode()], args.out)
    return 0


def _digit_lines(source) -> Iterator[str]:
    """One line per digit, one text per chunk, so memory stays flat in the digit count.

    A digit too long for the interpreter to print, past the decimal digits
    sys.get_int_max_str_digits allows (Python 3.11 on), is refused after
    the lines of the digits before it.
    """
    for chunk in source.chunks():
        try:
            text = "".join(f"{d}\n" for d in chunk)
        except ValueError:
            lines: list[str] = []
            with contextlib.suppress(ValueError):  # += keeps the lines made before the error
                lines += (f"{d}\n" for d in chunk)
            yield "".join(lines)
            at = source.emitted - len(chunk) + len(lines) + 1
            raise UsageError(
                f"digit {at:,} has more than {sys.get_int_max_str_digits():,} decimal digits, "
                "the interpreter's limit for int-to-str conversion"
            ) from None
        yield text


def _cmd_expand(args) -> int:
    _require(args, "--n")
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {shown(args.n)}")
    check_n(args.n)
    source = limit(parse_source_spec(args.source, seed=args.seed), args.n)
    if not _write(_digit_lines(source), args.out):
        return 0  # the reader left: it reads no note either
    if source.precision_exhausted:
        print(f"note: precision exhausted after {source.emitted} digits", file=sys.stderr)
    elif source.emitted < args.n:
        print(f"note: source ended after {source.emitted} digits", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    result = run_suite(args.suite, **_given(args, *_verify_options()))
    _write([result.summary() + "\n"], None)
    if args.out:
        _write([render_json(result.report()).decode()], args.out)
    return 0 if result.passed else CHECK_FAILED


def _experiment_config(args) -> ExperimentConfig:
    """The ExperimentConfig of the fields the user set; every other field keeps its default."""
    _require(args, "--source", "--n")
    return ExperimentConfig(**_given(args, *ExperimentConfig._fields))


def _finish_experiment(report: dict, args) -> int:
    _write([render_report(report, args.format).decode()], args.out)
    observed_non_normal = report["verdict"] == VERDICT_NON_NORMAL
    expected_non_normal = args.expect == "non-normal"
    return 0 if observed_non_normal == expected_non_normal else CHECK_FAILED


def _cmd_pillai(args) -> int:
    args.patterns = [parse_word(text) for text in args.patterns or ()]
    return _finish_experiment(run_pillai(_experiment_config(args)), args)


def _cmd_subsequence(args) -> int:
    return _finish_experiment(run_subsequence(_experiment_config(args)), args)


# each subcommand, in help order: its help line, what adds its arguments, what runs it
_SUBCOMMANDS = {
    "measure": ("Gauss measure of a cylinder, exactly", _add_measure, _cmd_measure),
    "expand": ("dump digits of a source, one per line", _add_expand, _cmd_expand),
    "verify": ("run an exhaustive exact verification suite", _add_verify, _cmd_verify),
    "pillai": (
        "overlapping vs disjoint block frequencies against cylinder measures",
        _add_pillai,
        _cmd_pillai,
    ),
    "subsequence": (
        "[1,1] frequency along an arithmetic-progression subsequence",
        _add_subsequence,
        _cmd_subsequence,
    ),
}


def _bounded(tokens: list[str]) -> list[str]:
    """tokens, after refusing more option tokens than a run may give.

    pillai takes at most MAX_REPORT_ROWS // 2 --pattern tokens, as a report
    holds two rows per pattern, and every run at most MAX_OPTION_TOKENS
    other tokens that start with "-".  The tokens are counted before
    argparse reads them, as its time is quadratic in the number of flags,
    known, repeated or unknown.
    """
    most = experiments.MAX_REPORT_ROWS // 2
    # only pillai takes --pattern; to the other subcommands it is an unknown option
    pillai = tokens[:1] == ["pillai"]
    given = sum(token.partition("=")[0] in _PATTERN_FLAGS for token in tokens) if pillai else 0
    if given > most:
        raise UsageError(f"a report holds at most {most:,} patterns, got {given:,}")
    options = sum(token.startswith("-") for token in tokens) - given
    if options > MAX_OPTION_TOKENS:
        raise UsageError(f"a run takes at most {MAX_OPTION_TOKENS:,} option tokens, got {options:,}")
    return tokens


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes the first positional token as the subcommand, and no
    # top-level option takes a value: if it names a subcommand, it is the
    # first token that names one
    parser = build_parser(next((token for token in argv if token in _SUBCOMMANDS), None))
    try:
        args = parser.parse_args(_bounded(argv))
        if args.config is not None:
            pairs = _config_tokens(args.config)
            # file values go right after the subcommand, so a flag given later wins
            file_tokens = [token for key, token in pairs if key not in ("help", "config")]
            args, extra = parser.parse_known_args(_bounded(argv[:1] + file_tokens + argv[1:]))
            # a key is known only if it is the dest of an option this subcommand parsed
            known = vars(args).keys() - {"config"}
            unknown = {key for key, token in pairs if key not in known or token in extra}
            if unknown:
                raise UsageError(f"unknown config keys: [{', '.join(map(quote, sorted(unknown)))}]")
            n_file = sum(key == "patterns" for key, _ in pairs)
            if len(getattr(args, "patterns", None) or ()) > n_file:
                args.patterns = args.patterns[n_file:]  # --pattern flags replace the file's list
        _, _, run = _SUBCOMMANDS[args.command]
        return run(args)
    except UsageError as exc:
        print(f"error: {_fit('error: ', str(exc))}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
