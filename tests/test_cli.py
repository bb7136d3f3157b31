"""CLI contract: exit codes, output formats, reproducibility, config files."""

import contextlib
import csv
import hashlib
import io
import json
import os
import string
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cflab
from cflab import cli, experiments, joint_pattern_measure, verify
from cflab.cfcore import UsageError, convergent_pair, quote
from cflab.cli import main
from cflab.measure import BoundedMeasure, LogRational
from cflab.reports import render_report


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- measure

def test_measure_text(capsys):
    code, out, _ = run(capsys, "measure", "1,1")
    assert code == 0
    assert out == "log2(10/9) ≈ 0.152003\n"


def test_measure_interval(capsys):
    code, out, _ = run(capsys, "measure", "1", "--interval")
    assert code == 0
    assert out.splitlines() == ["log2(4/3) ≈ 0.415037", "(1/2, 1)"]


def test_measure_interval_json_and_csv_bytes(capsys):
    # the endpoint 1 prints as "1", in JSON and in the interval_hi column
    code, out, err = run(capsys, "measure", "1", "--interval", "--format", "json")
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "word": "1",\n  "log2_arg": "4/3",\n  "float": 0.415037,\n'
        '  "interval": [\n    "1/2",\n    "1"\n  ]\n}\n'
    )
    code, out, err = run(capsys, "measure", "1", "--interval", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "word,log2_arg,float,interval_lo,interval_hi\n1,4/3,0.415037,1/2,1\n"


def test_measure_json_schema(capsys):
    code, out, _ = run(capsys, "measure", "1,1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report == {"word": "1,1", "log2_arg": "10/9", "float": 0.152003}


def test_measure_csv(capsys):
    code, out, _ = run(capsys, "measure", "1,1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["word,log2_arg,float", '"1,1",10/9,0.152003']


def test_measure_huge_word_renders_bounded_rationals(capsys):
    # 12000 ones give parts of about 8300 bits, past the interpreter's
    # int-to-str limit; the report renders them in the bounded "~" form
    ones = ",".join(["1"] * 12000)
    code, out, err = run(capsys, "measure", ones, "--format", "json", "--interval")
    assert code == 0, err
    report = json.loads(out)
    assert report["log2_arg"].startswith("~1.0") and report["log2_arg"].endswith("-bit rational)")
    assert all(x.startswith("~0.618") for x in report["interval"])
    assert report["float"] == 0.0
    code, out, err = run(capsys, "measure", ones, "--interval")
    assert code == 0, err
    assert out.startswith("log2(~1.0") and "(~0.618" in out


def test_measure_empty_word_is_usage_error(capsys):
    # the library measures the empty word (all of (0, 1)); the CLI does not take it
    code, out, err = run(capsys, "measure", "")
    assert (code, out, err) == (2, "", "error: empty word\n")


# ----------------------------------------------------------------- expand

def test_expand_dumps_digits(capsys):
    code, out, err = run(capsys, "expand", "rational:7/16", "--n", "100")
    assert code == 0
    assert out.splitlines() == ["2", "3", "2"]
    assert "source ended after 3" in err


def test_expand_decimal_flags_precision(capsys):
    code, out, err = run(capsys, "expand", "decimal:0.5:e-30", "--n", "5")
    assert code == 0
    assert out == ""
    assert "precision exhausted after 0" in err


def test_expand_bad_spec(capsys):
    code, _, err = run(capsys, "expand", "martian:1", "--n", "5")
    assert code == 2


def test_expand_zero_digits(capsys):
    code, out, _ = run(capsys, "expand", "rational:7/16", "--n", "0")
    assert code == 0
    assert out == ""


def test_expand_memory_is_flat_in_n(tmp_path):
    # digits are written chunk by chunk, so the peak must not grow with n
    out = tmp_path / "digits.txt"
    peaks = []
    for n in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            assert main(["expand", "periodic:,1", "--n", str(n), "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == b"1\n" * n
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _loaded_of(modules, names):
    """The sorted list of `names` in sys.modules after a fresh `import modules`.

    -S keeps site-packages' start-up hooks out of the modules seen.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cflab.__file__).parents[1])}
    code = f"import sys, {modules}; print(*sorted({set(names)!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=env, check=True, timeout=60
    ).stdout
    return out.decode().split()


@pytest.mark.parametrize("modules", ["cflab.cli", "cflab.measure, cflab.verify"])
def test_import_loads_no_dataclasses_or_inspect(modules):
    # every run imports the package first; dataclasses would pull in inspect,
    # ast, dis and tokenize, about half the set-up time of a verify run.
    assert _loaded_of(modules, ["dataclasses", "inspect"]) == []


@pytest.mark.parametrize(
    "modules,loaded",
    [
        ("cflab.measure, cflab.verify", []),
        ("cflab", []),
        ("cflab.cli", ["array", "cflab.stats", "cflab.streams"]),
    ],
)
def test_verify_import_leaves_streams_and_stats_unloaded(modules, loaded):
    # the package resolves its names on first use, so a verify run never
    # compiles the stream and counting modules; the CLI still loads them
    assert _loaded_of(modules, ["array", "cflab.stats", "cflab.streams"]) == loaded


def test_stats_import_leaves_streams_and_random_unloaded():
    # counting reads only a source's pull, so it compiles no stream code
    assert _loaded_of("cflab.stats", ["cflab.streams", "random"]) == []


def test_cli_import_loads_what_runs_and_no_more():
    # verify runs import cflab.verify themselves, and CSV reports csv, so an
    # experiment run compiles neither; what the runs run stays imported, so
    # its compile time counts as set-up and not as the run
    names = ["cflab.verify", "csv", "pathlib", "cflab.experiments", "cflab.stats", "cflab.streams"]
    assert _loaded_of("cflab.cli", names) == ["cflab.experiments", "cflab.stats", "cflab.streams"]


@pytest.mark.parametrize("argv", [["--help"], ["pillai", "--help"], ["measure", "1,1"]])
def test_runs_that_verify_nothing_leave_verify_unloaded(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cflab.__file__).parents[1])}
    code = (
        "import contextlib, sys, cflab.cli\n"
        f"with contextlib.suppress(SystemExit): cflab.cli.main({argv!r})\n"
        "print('cflab.verify' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.stdout.decode().splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["measure", "expand", "verify", "pillai", "subsequence"])
def test_each_subcommand_prints_its_own_help(capsys, command):
    # only the subparser argparse reads gets its arguments
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: cflab {command} [-h]")
    assert "--config CONFIG" in out


def test_the_subcommand_need_not_be_the_first_token(capsys):
    # measure gets its arguments though -x comes first, so 1,1 is its word
    code, out, err = run(capsys, "-x", "measure", "1,1")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "cflab: error: unrecognized arguments: -x"


def _expand_to_a_reader_that_leaves(spec, n):
    """As `cflab expand spec --n n | head -1`: the line read, exit code, stderr, and
    the seconds from the reader leaving to the exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(cflab.__file__).parents[1])}
    argv = [sys.executable, "-m", "cflab.cli", "expand", spec, "--n", str(n)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        left = time.monotonic()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
        return line, code, err, time.monotonic() - left
    finally:
        proc.kill()
        proc.wait()


def test_expand_stops_quietly_when_the_reader_leaves():
    # as in `cflab expand ... | head`: exit 0 and nothing on stderr
    line, code, err, _ = _expand_to_a_reader_that_leaves("periodic:,1", 1000000)
    assert (line, code, err) == (b"1\n", 0, b"")


def test_expand_of_random_digits_stops_drawing_when_the_reader_leaves():
    # drawing all 10**7 digits takes about 5 s (2 vCPU, Python 3.11); the
    # broken pipe ends the run within one chunk of digits, about 0.01 s
    line, code, err, seconds = _expand_to_a_reader_that_leaves("random:seed=1", 10**7)
    assert (line, code, err) == (b"2\n", 0, b"")
    assert seconds < 1


def _run_with_stdout_closed(argv):
    """As `cflab argv | true` once true has exited: the exit code and stderr of a run
    whose stdout is a pipe with its read end already closed."""
    env = {**os.environ, "PYTHONPATH": str(Path(cflab.__file__).parents[1])}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cflab.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


PERIODIC_TWOS = ["pillai", "--source", "periodic:,2", "--n", "100", "--pattern", "2"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["measure", "1,1"], 0),
        (["expand", "random:seed=1", "--n", "1000"], 0),
        (["verify", "reversal"], 0),
        ([*PERIODIC_TWOS, "--expect", "non-normal"], 0),
        (PERIODIC_TWOS, 1),  # a verdict that contradicts the expectation
        (["subsequence", "--source", "random:seed=11", "--n", "2000", "--cap", "50"], 0),
    ],
    ids=["measure", "expand", "verify", "pillai", "pillai-exit-1", "subsequence"],
)
def test_a_run_whose_reader_has_left_exits_with_its_own_code(argv, code):
    # the run's verdict is its exit code, whether or not its output is read
    assert _run_with_stdout_closed(argv) == (code, b"")


def test_verify_writes_its_report_after_the_reader_of_its_line_has_left(tmp_path, capsys):
    out, again = tmp_path / "reversal.json", tmp_path / "again.json"
    assert _run_with_stdout_closed(["verify", "reversal", "--out", str(out)]) == (0, b"")
    assert main(["verify", "reversal", "--out", str(again)]) == 0
    assert capsys.readouterr().out.startswith("reversal: pass")
    assert out.read_bytes() == again.read_bytes()


def test_expand_negative_n_is_usage_error(capsys):
    code, out, err = run(capsys, "expand", "rational:7/16", "--n", "-1")
    assert code == 2
    assert out == ""
    assert "--n must be >= 0" in err


@pytest.mark.parametrize("argv", [["random:seed=-1"], ["random", "--seed", "-1"]])
def test_expand_negative_seed_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "expand", *argv, "--n", "5")
    assert code == 2
    assert out == ""
    assert "seed must be >= 0" in err


SEED_CONFLICTS = {
    "pillai random:seed=5": [
        "pillai", "--source", "random:seed=5", "--seed", "9", "--n", "1000", "--pattern", "1"
    ],
    "pillai concat-normal": [
        "pillai", "--source", "concat-normal", "--seed", "3", "--n", "1000", "--pattern", "1"
    ],
    "subsequence": [
        "subsequence", "--source", "random:seed=5", "--seed", "9", "--n", "1000", "--cap", "20"
    ],
}  # expand: the "--seed with a spec but random" site of SHORT_LINE_SITES


@pytest.mark.parametrize("site", SEED_CONFLICTS)
def test_seed_with_a_spec_other_than_bare_random_is_usage_error(capsys, site):
    # only the bare spec `random` reads --seed; any other spec would echo it unread
    argv = SEED_CONFLICTS[site]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --seed is read only by the bare source 'random', not '{argv[2]}'\n"


def test_seed_from_config_file_with_a_seeded_spec_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=random:seed=5\nn=1000\npatterns=1\nseed=9\n")
    code, out, err = run(capsys, "pillai", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: --seed is read only by the bare source 'random', not 'random:seed=5'\n"


def test_seed_of_bare_random_gives_the_digits_of_its_spec(capsys):
    assert run(capsys, "expand", "random", "--seed", "9", "--n", "50") == run(
        capsys, "expand", "random:seed=9", "--n", "50"
    )
    flags = ["--n", "5000", "--pattern", "1", "--pattern", "1,2", "--tolerance", "0.5"]
    code, out, err = run(capsys, "pillai", "--source", "random", "--seed", "9", *flags)
    assert (code, err) == (0, "")
    bare = json.loads(out)
    assert bare["config"]["seed"] == 9
    code, out, err = run(capsys, "pillai", "--source", "random:seed=9", *flags)
    assert (code, err) == (0, "")
    assert bare["rows"] == json.loads(out)["rows"]


@pytest.mark.parametrize(
    "argv,named",
    [
        (["expand", "rational:1/0", "--n", "3"], "1/0"),
        (["pillai", "--source", "rational:1/0", "--n", "100", "--pattern", "1"], "1/0"),
        (["expand", "random:seed=abc", "--n", "3"], "bad seed in source spec 'random:seed=abc'"),
        (["expand", "random:seed=", "--n", "3"], "bad seed in source spec 'random:seed='"),
        (
            ["expand", "decimal:0.5:eabc", "--n", "3"],
            "bad exponent in source spec 'decimal:0.5:eabc'",
        ),
    ],
)
def test_bad_source_spec_is_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


# ----------------------------------------------------------------- verify

@pytest.mark.parametrize(
    "suite,flags",
    [
        ("reversal", ["--max-digit", "3", "--max-len", "3"]),
        ("dominance", ["--max-digit", "3", "--max-len", "3"]),
        ("pairwise", ["--max-digit", "3", "--max-len", "2"]),
        ("joint-k2", ["--cap", "50"]),
    ],
)
def test_verify_suites_pass(capsys, suite, flags):
    code, out, _ = run(capsys, "verify", suite, *flags)
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize(
    "suite,max_digit,max_len",
    [
        ("reversal", 0, 2),
        ("dominance", 3, -1),
        ("dominance", 1, 3),  # words exist, but none ends in a digit >= 2
        ("pairwise", 2, 0),
    ],
)
def test_verify_empty_family_is_usage_error(capsys, suite, max_digit, max_len):
    code, out, err = run(
        capsys, "verify", suite, "--max-digit", str(max_digit), "--max-len", str(max_len)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"digits <= {max_digit}, length <= {max_len}" in err


@pytest.mark.parametrize("suite", ["reversal", "dominance", "pairwise"])
def test_verify_family_past_the_word_limit_is_a_quick_usage_error(capsys, suite):
    # 1000**5 words would take years; the bound is checked before the scan
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", suite, "--max-digit", "1000", "--max-len", "5")
    assert time.perf_counter() - started < 1
    _one_line_usage_error(code, out, err)
    assert err.endswith(
        "give words of 5,004,003,002,001,000 digits in all; a scan checks at most 10,000,000\n"
    )


@pytest.mark.parametrize("suite", ["reversal", "dominance", "pairwise"])
def test_verify_family_past_the_digit_limit_is_a_quick_usage_error(capsys, monkeypatch, suite):
    # one word per length: 5000 words, but 12,502,500 digits
    def walk(*args):
        raise AssertionError("the walk was entered")

    monkeypatch.setattr(verify, "iter_prefix_pairs", walk)
    code, out, err = run(capsys, "verify", suite, "--max-digit", "1", "--max-len", "5000")
    _one_line_usage_error(code, out, err)
    assert "give words of 12,502,500 digits in all; a scan checks at most 10,000,000" in err


@pytest.mark.parametrize("suite", ["reversal", "dominance", "pairwise"])
@pytest.mark.parametrize("flag", ["--max-digit", "--max-len"])
def test_verify_bound_of_4000_digits_is_one_short_line(capsys, suite, flag):
    bounds = {"--max-digit": "2", "--max-len": "2", flag: "-" + "9" * 4000}
    code, out, err = run(capsys, "verify", suite, *[t for kv in bounds.items() for t in kv])
    _one_line_usage_error(code, out, err)
    assert "no words to check" in err and "under -10**18" in err
    assert len(err.encode()) <= 200


def _scan_report(suite, passed, checked, counterexample, detail):
    # the --out schema of the predicate scans, spelled out byte by byte
    counterexample = "null" if counterexample is None else f'"{counterexample}"'
    return (
        "{\n"
        f'  "suite": "{suite}",\n'
        f'  "passed": {"true" if passed else "false"},\n'
        f'  "checked": {checked},\n'
        f'  "counterexample": {counterexample},\n'
        f'  "detail": "{detail}"\n'
        "}\n"
    )


SCAN_CASES = [
    # suite, row check, family size at digits <= 3 and length <= 3, index of (2,3) in it
    ("reversal", "reversal_row", 39, 9, "digits <= 3, length <= 3"),
    ("dominance", "dominance_row", 26, 6, "digits <= 3, length <= 3, last digit >= 2"),
    ("pairwise", "pairwise_row", 39, 9, "digits <= 3, length <= 3"),
]


@pytest.mark.parametrize("suite,check,size,at,detail", SCAN_CASES)
@pytest.mark.parametrize("fails", [False, True])
def test_verify_scan_report_bytes(
    capsys, tmp_path, monkeypatch, suite, check, size, at, detail, fails
):
    if fails:
        real = getattr(verify, check)
        pair = convergent_pair(())  # the parent of the row that holds 2,3, its own reversal
        row_of_empty = pair if check == "dominance_row" else (pair, pair)

        def fail_at_2_3(item, odd, mids, lasts):
            if item == row_of_empty:
                return mids.index(2) * len(lasts) + lasts.index(3)
            return real(item, odd, mids, lasts)

        monkeypatch.setattr(verify, check, fail_at_2_3)
    out_path = tmp_path / "scan.json"
    argv = ["verify", suite, "--max-digit", "3", "--max-len", "3", "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert err == ""
    if fails:
        assert code == 1
        assert out == f"{suite}: FAIL ({at} cases checked; {detail}); counterexample 2,3\n"
        assert out_path.read_text() == _scan_report(suite, False, at, "2,3", detail)
    else:
        assert code == 0
        assert out == f"{suite}: pass ({size} cases checked; {detail})\n"
        assert out_path.read_text() == _scan_report(suite, True, size, None, detail)


def test_verify_defaults_are_the_runners(capsys, tmp_path):
    # with no bounds the scans check digits <= 5 and length <= 3: 5 + 25 + 125 words
    code, out, err = run(capsys, "verify", "reversal")
    assert (code, err) == (0, "")
    assert out == "reversal: pass (155 cases checked; digits <= 5, length <= 3)\n"
    out_path = tmp_path / "joint.json"
    code, out, err = run(capsys, "verify", "joint-k2", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert out.startswith("joint-k2: pass (cap 1000; ")
    assert json.loads(out_path.read_text())["cap"] == 1000


K2_LINE = (
    "joint-k2: {} (cap 50; bracket [{}] vs oracle 0.17858; gamma(C_11) = 0.1520; "
    "lower {}, tail {}, exceeds gamma(C_11): {})\n"
)


@pytest.mark.parametrize(
    "measure,line",
    [
        (None, K2_LINE.format("pass", "0.1716, 0.1787", "0.171643", "0.007054", True)),
        # no tail: the bracket [lower, lower] misses the oracle
        (
            lambda real: BoundedMeasure(real.lower, real.lower),
            K2_LINE.format("FAIL", "0.1716, 0.1716", "0.171643", "0.000000", True),
        ),
        # lower at gamma(C_11) exactly, not above it; the bracket still holds the oracle
        (
            lambda real: BoundedMeasure(
                verify.measure_of_cylinder((1, 1)),
                LogRational(verify.measure_of_cylinder((1, 1)).arg * Fraction(9, 8)),
            ),
            K2_LINE.format("FAIL", "0.1520, 0.3219", "0.152003", "0.169925", False),
        ),
    ],
    ids=["pass", "bracket misses the oracle", "lower not above gamma(C_11)"],
)
def test_joint_k2_line_and_verdict(capsys, tmp_path, monkeypatch, measure, line):
    if measure is not None:
        real = verify.joint_pattern_measure(2, 50)
        monkeypatch.setattr(verify, "joint_pattern_measure", lambda k, cap: measure(real))
    out_path = tmp_path / "joint.json"
    code, out, err = run(capsys, "verify", "joint-k2", "--cap", "50", "--out", str(out_path))
    assert (out, err) == (line, "")
    assert code == (0 if measure is None else 1)
    assert json.loads(out_path.read_text())["passed"] is (measure is None)


def test_verify_writes_report(capsys, tmp_path):
    out_path = tmp_path / "joint.json"
    code, _, _ = run(capsys, "verify", "joint-k2", "--cap", "20", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert "tail_log2_arg" in report and "bracket" in report
    lo, hi = report["bracket"]
    assert lo < hi


def test_verify_report_with_huge_argument(capsys, tmp_path):
    # at cap 5000 the exact lower product has ~20k-bit parts, past the
    # interpreter's int-to-str limit; its dyadic end has 128, printed whole
    out_path = tmp_path / "joint.json"
    code, out, err = run(capsys, "verify", "joint-k2", "--cap", "5000", "--out", str(out_path))
    assert code == 0, err
    assert "pass" in out
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    one = 2**128
    assert report["log2_arg"] == f"192550805375309844045383531338037573835/{one // 2}"
    lower = Fraction(report["log2_arg"])
    exact_lower = Fraction(1)
    for n in range(1, 5001):
        m = 2 * n + 3
        exact_lower *= Fraction(m * m, m * m - 1)
    assert lower <= exact_lower < lower * (1 + Fraction(5000, one))
    # the child tail of (1,) past cap 5000, A = 10004/10003, halved to
    # 1 + (A/2)(A - 1) and rounded up, times the factor that covers the
    # 5000 floors of the lower end
    assert report["tail_log2_arg"] == f"340299377636971264681633980162649883727/{one}"
    a = Fraction(10004, 10003)
    assert Fraction(report["tail_log2_arg"]) >= (1 + a / 2 * (a - 1)) * (1 + Fraction(10000, one))
    assert len(out_path.read_bytes()) < 2000


# ----------------------------------------------------------------- pillai

@pytest.mark.parametrize("fault", [ValueError("internal bug"), OSError("internal bug")])
def test_a_fault_of_the_program_is_not_a_usage_error(capsys, monkeypatch, fault):
    # only a UsageError, or an OSError on --out/--config, exits 2
    def run_pillai(config):
        raise fault

    monkeypatch.setattr("cflab.cli.run_pillai", run_pillai)
    with pytest.raises(type(fault), match="internal bug"):
        main(["pillai", "--source", "periodic:,2", "--n", "100", "--pattern", "2"])
    assert capsys.readouterr().err == ""


def test_pillai_periodic_flags_non_normal(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "pillai",
        "--source",
        "periodic:,2",
        "--n",
        "1000",
        "--pattern",
        "2,2",
        "--expect",
        "non-normal",
        "--out",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "NON_NORMAL"
    row = report["summary"][0]
    assert row["overlap_freq"] == pytest.approx(0.999, abs=1e-3)


def test_pillai_exit_1_when_expectation_contradicted(capsys):
    code, _, _ = run(
        capsys,
        "pillai",
        "--source",
        "periodic:,2",
        "--n",
        "1000",
        "--pattern",
        "2,2",
    )
    assert code == 1  # expected consistent by default, observed non-normal


def test_pillai_truncated_source(capsys):
    code, out, _ = run(
        capsys,
        "pillai",
        "--source",
        "rational:7/16",
        "--n",
        "100",
        "--pattern",
        "2",
        "--expect",
        "non-normal",
    )
    report = json.loads(out)
    assert report["truncated"] is True
    assert report["n"] == 3


def test_pillai_refuses_a_source_shorter_than_its_longest_pattern(capsys):
    # decimal:0.5:e-30 certifies no digit: a report of n 0 would hold no start
    argv = ["--source", "decimal:0.5:e-30", "--n", "100", "--pattern", "1"]
    code, out, err = run(capsys, "pillai", *argv, "--expect", "non-normal")
    assert (code, out) == (2, "")
    assert err == "error: the source ended after 0 digits, fewer than the longest pattern's 1\n"
    code, out, err = run(capsys, "pillai", "--source", "rational:7/16", "--n", "100", "--pattern", "2,3,2,1")
    assert (code, out) == (2, "")
    assert err == "error: the source ended after 3 digits, fewer than the longest pattern's 4\n"


def test_pillai_refuses_n_below_10x_the_longest_pattern(capsys):
    argv = ["--source", "periodic:,1", "--n", "29", "--pattern", "1", "--pattern", "1,1,1"]
    code, out, err = run(capsys, "pillai", *argv)
    assert (code, out, err) == (2, "", "error: n must be at least 10x the longest pattern\n")


def test_pillai_csv_schema(capsys):
    code, out, _ = run(
        capsys,
        "pillai",
        "--source",
        "periodic:,1",
        "--n",
        "100",
        "--pattern",
        "1",
        "--expect",
        "non-normal",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "n,pattern,mode,count,freq_num,freq_den,freq_float,gamma_float,abs_err"
    assert any(line.startswith("# source=periodic:,1") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["pillai", "--source", "concat-normal", "--pattern", "1", "--pattern", "1,2"],
        ["subsequence", "--source", "random:seed=7", "--k", "3", "--cap", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_rows_are_the_json_rows_in_order(capsys, argv):
    # the CSV header is the JSON rows' keys and each data row the values of
    # the JSON row at its place, in key order
    argv = [*argv, "--n", "3000", "--checkpoint-every", "500"]
    rows = json.loads(run(capsys, *argv, "--format", "json")[1])["rows"]
    out = run(capsys, *argv, "--format", "csv")[1]
    table = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert len(rows) > 1
    assert all(list(row) == table[0] for row in rows)
    assert table[1:] == [[str(value) for value in row.values()] for row in rows]


def test_render_report_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_report({}, "xml")


# ------------------------------------------------------------- subsequence

def test_subsequence_periodic_ones_trivially_non_normal(capsys):
    code, out, _ = run(
        capsys,
        "subsequence",
        "--source",
        "periodic:,1",
        "--n",
        "2000",
        "--k",
        "2",
        "--cap",
        "50",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NON_NORMAL"
    assert report["summary"]["selected_freq"] == pytest.approx(0.999, abs=1e-2)


def test_subsequence_reports_selected_length(capsys):
    code, out, _ = run(
        capsys,
        "subsequence",
        "--source",
        "random:seed=11",
        "--n",
        "20000",
        "--b",
        "3",
        "--k",
        "2",
        "--cap",
        "100",
    )
    assert code == 0
    report = json.loads(out)
    assert report["selected_n"] == (20000 - 3) // 2 + 1
    assert report["config"]["b"] == 3 and report["config"]["k"] == 2
    # the echo holds only what the AP run reads: no patterns, no tolerance
    assert list(report["config"]) == ["source", "n", "checkpoint_every", "seed", "b", "k", "cap"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pillai", "--source", "periodic:,1", "--n", "100", "--pattern", "1"],
        ["subsequence", "--source", "periodic:,1", "--n", "100", "--cap", "5"],
    ],
    ids=["pillai", "subsequence"],
)
def test_each_run_echoes_exactly_the_options_its_subcommand_registers(capsys, argv):
    # every option but those of the output and the config file sets a field
    # the report echoes, and the report echoes no field the subcommand cannot set
    command = argv[0]
    dests = vars(cli.build_parser(command).parse_args([command])).keys()
    _, out, _ = run(capsys, *argv)
    assert dests - {"command", "expect", "format", "out", "config"} == set(json.loads(out)["config"])


@pytest.mark.parametrize("flags", [["--k", "1"], ["--b", "0"], ["--b", "-3"]])
def test_subsequence_refuses_k_below_2_or_b_below_1(capsys, flags):
    # select_ap refuses these too, but with a plain ValueError, not a usage error
    code, out, err = run(capsys, "subsequence", "--source", "periodic:,1", "--n", "100", *flags)
    assert (code, out, err) == (2, "", "error: need k >= 2 and b >= 1\n")


def test_subsequence_bad_spec_fails_before_the_joint_measure(capsys, monkeypatch):
    def joint_pattern_measure(k, cap):
        raise AssertionError("the joint measure ran before the source spec was checked")

    monkeypatch.setattr("cflab.experiments.joint_pattern_measure", joint_pattern_measure)
    argv = ["--source", "martian:1", "--n", "100", "--k", "3", "--cap", "400"]
    code, out, err = run(capsys, "subsequence", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "martian" in err


def test_subsequence_refuses_unbounded_joint_enumeration(capsys):
    # k=5 at the default cap would enumerate 1000**4 middle words
    code, out, err = run(
        capsys, "subsequence", "--source", "random:seed=11", "--n", "300000", "--b", "3", "--k", "5"
    )
    assert code == 2
    assert out == ""
    assert "k=5" in err and "cap=1000" in err and "1000**4 middle words" in err


def test_subsequence_refuses_a_deep_walk_at_cap_1(capsys, monkeypatch):
    def frequency_report(*args):
        raise AssertionError("a digit was drawn before the joint measure was refused")

    monkeypatch.setattr("cflab.experiments.frequency_report", frequency_report)
    argv = ["--source", "random:seed=11", "--k", "30", "--cap", "1", "--n", "1000"]
    code, out, err = run(capsys, "subsequence", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "k=30" in err


# --------------------------------------------------------- reproducibility

def test_reports_are_byte_identical_across_runs_and_jobs(tmp_path, capsys):
    args = [
        "pillai",
        "--source",
        "random:seed=9",
        "--n",
        "30000",
        "--pattern",
        "1",
        "--pattern",
        "1,1",
        "--expect",
        "consistent",
        "--tolerance",
        "0.05",
    ]
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    assert run(capsys, *args, "--out", str(paths[0]))[0] == 0
    assert run(capsys, *args, "--out", str(paths[1]))[0] == 0
    assert run(capsys, *args, "--out", str(paths[2]))[0] == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_jobs_from_config_file_is_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=periodic:,2\nn=100\npatterns=2\njobs=0\n")
    code, out, err = run(capsys, "pillai", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "unknown config keys: ['jobs']" in err


# ------------------------------------------------------------- config file

def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "source=periodic:,2\n"
        "n=500\n"
        "patterns=2;2,2\n"
        "expect=non-normal\n"
        "# comment line\n"
        "tolerance=0.01\n"
    )
    code, out, _ = run(capsys, "pillai", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["config"]["n"] == 500
    assert report["config"]["patterns"] == ["2", "2,2"]
    assert list(report["config"]) == [
        "source", "n", "patterns", "checkpoint_every", "tolerance", "seed"
    ]

    # explicit flag beats the file
    code, out, _ = run(capsys, "pillai", "--config", str(cfg), "--n", "600")
    assert code == 0
    assert json.loads(out)["config"]["n"] == 600


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("sauce=periodic:,2\n")
    code, _, err = run(capsys, "pillai", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    # the decode error of the file's text, in one line, as for an OSError on it
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n=\xff\n")
    code, out, err = run(capsys, "measure", "1,1", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte\n"


def test_config_file_values_are_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=periodic:,2\nn=500\npatterns=2\nexpect=maybe\n")
    code, out, err = run(capsys, "pillai", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "invalid choice: 'maybe'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "1,1"],
        ["verify", "reversal"],
        ["expand", "rational:1/3", "--n", "2"],
        ["pillai", "--source", "periodic:,1", "--n", "100", "--pattern", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_config_line_with_a_nul_byte_is_usage_error(tmp_path, capsys, argv):
    # no argv value can hold a NUL, so no file value may: open() would raise ValueError
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"out=a\0b\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: bad config line 'out=a\\x00b'\n")
    assert not (tmp_path / "a").exists()


def test_config_file_patterns_replaced_by_pattern_flags(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=periodic:,2\nn=500\npatterns=2;2,2\nexpect=non-normal\n")
    code, out, err = run(capsys, "pillai", "--config", str(cfg), "--pattern", "1")
    assert code == 0, err
    assert json.loads(out)["config"]["patterns"] == ["1"]


def test_config_equals_form_loads_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=periodic:,2\nn=500\npatterns=2\nexpect=non-normal\n")
    code, out, err = run(capsys, "pillai", f"--config={cfg}")
    assert code == 0, err
    assert json.loads(out)["config"]["n"] == 500


def test_config_abbreviation_loads_file(tmp_path, capsys):
    # --config is resolved like every other option, so an unambiguous prefix names it
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=periodic:,2\nn=500\npatterns=2\nexpect=non-normal\n")
    code, out, err = run(capsys, "pillai", "--conf", str(cfg))
    assert code == 0, err
    assert json.loads(out)["config"]["n"] == 500


def test_ambiguous_config_prefix_is_refused_by_the_parser(capsys):
    argv = ["--source", "periodic:,1", "--n", "100", "--pattern", "1", "--c", "5"]
    code, out, err = run(capsys, "pillai", *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "cflab pillai: error: ambiguous option: --c could match --checkpoint-every, --config"
    )


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["--help"], (0, "usage: cflab pillai ", "")),
        (["--n", "xyz"], (2, "", "cflab pillai: error: argument --n: bad int text 'xyz'")),
    ],
    ids=["help", "bad flag value"],
)
def test_argv_is_parsed_before_the_config_file_is_read(tmp_path, capsys, argv, expected):
    code, out, err = run(capsys, "pillai", "--config", str(tmp_path / "missing.cfg"), *argv)
    assert (code, out[:20], (err.splitlines() or [""])[-1]) == expected


def test_expand_n_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "expand.cfg"
    cfg.write_text("n=3\n")
    assert run(capsys, "expand", "rational:7/16", "--config", str(cfg)) == (0, "2\n3\n2\n", "")


def test_config_without_path_is_usage_error(capsys):
    code, out, err = run(capsys, "pillai", "--source", "periodic:,2", "--n", "100", "--config")
    assert code == 2
    assert out == ""
    assert "argument --config: expected one argument" in err


@pytest.mark.parametrize("line", ["help=x", "help=", "config=other.cfg", "command=subsequence"])
def test_config_file_non_option_keys_are_unknown(tmp_path, capsys, line):
    # help and config are never file keys; positionals cannot come from a file
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"source=periodic:,2\nn=500\npatterns=2\n{line}\n")
    code, out, err = run(capsys, "pillai", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "unknown config keys" in err


def test_config_file_replays_flag_run(tmp_path, capsys):
    flags = ["--source", "random:seed=3", "--n", "5000", "--b", "3", "--k", "3", "--cap", "20"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=random:seed=3\nn=5000\nb=3\nk=3\ncap=20\nformat=csv\n")
    from_flags = run(capsys, "subsequence", *flags, "--format", "csv")
    assert from_flags[0] == 0
    assert run(capsys, "subsequence", "--config", str(cfg)) == from_flags


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["verify", "reversal", "--max-digit", "2", "--max-len", "2", "--format", "csv"],
            "cflab: error: unrecognized arguments: --format csv",
        ),
        (["measure", "1,1", "--seed", "3"], "cflab: error: unrecognized arguments: --seed 3"),
        (
            ["expand", "rational:7/16", "--n", "3", "--format", "json"],
            "cflab: error: unrecognized arguments: --format json",
        ),
        # --jobs is gone from every subcommand, whatever its value
        (
            ["pillai", "--source", "periodic:,2", "--n", "100", "--pattern", "2", "--jobs", "0"],
            "cflab: error: unrecognized arguments: --jobs 0",
        ),
        (
            ["pillai", "--source", "periodic:,2", "--n", "100", "--pattern", "2", "--jobs", "-5"],
            "cflab: error: unrecognized arguments: --jobs -5",
        ),
        (
            ["subsequence", "--source", "periodic:,2", "--n", "100", "--jobs", "0"],
            "cflab: error: unrecognized arguments: --jobs 0",
        ),
        (["measure", "1,1", "--jobs", "-3"], "cflab: error: unrecognized arguments: --jobs -3"),
        (
            ["expand", "rational:7/16", "--n", "3", "--jobs", "0"],
            "cflab: error: unrecognized arguments: --jobs 0",
        ),
        (
            ["verify", "reversal", "--max-digit", "2", "--max-len", "2", "--jobs", "-1"],
            "cflab: error: unrecognized arguments: --jobs -1",
        ),
        # verify registers the options of every suite; each suite reads only its own
        (
            ["verify", "reversal", "--max-digit", "2", "--max-len", "1", "--cap", "7"],
            "error: verify reversal does not read --cap",
        ),
        (
            ["verify", "joint-k2", "--cap", "10", "--max-digit", "9"],
            "error: verify joint-k2 does not read --max-digit",
        ),
        (
            ["verify", "joint-k2", "--max-len", "0", "--max-digit", "9"],
            "error: verify joint-k2 does not read --max-digit, --max-len",
        ),
    ],
)
def test_options_a_subcommand_never_reads_are_rejected(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    # argparse prints its usage block first; every other usage error is one line
    assert err.startswith("usage: cflab ") or err.count("\n") == 1
    assert err.splitlines()[-1] == expected


def test_verify_options_are_read_off_the_suites_in_order(capsys):
    # each option once, in the order the suites first name them, as --help always showed
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    usage = " ".join(out.split())
    assert "[--max-digit MAX_DIGIT] [--max-len MAX_LEN] [--cap CAP] [--out OUT]" in usage


@pytest.mark.parametrize(
    "suite,text,expected",
    [
        ("reversal", "max_digit=2\nmax-len=1\ncap=7\n", "does not read --cap"),
        ("joint-k2", "cap=10\nmax_digit=9\n", "does not read --max-digit"),
    ],
    ids=["reversal", "joint-k2"],
)
def test_verify_option_a_suite_never_reads_from_config(tmp_path, capsys, suite, text, expected):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "verify", suite, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: verify {suite} {expected}\n"


@pytest.mark.parametrize(
    "argv", [["pillai", "--pattern", "1"], ["subsequence"], ["expand", "rational:1/3"]]
)
def test_experiment_needs_source_and_n(capsys, argv):
    # expand's source is a positional, so it needs only --n; one line names what is missing
    code, out, err = run(capsys, *argv)
    missing = "--n" if argv[0] == "expand" else "--source, --n"
    assert (code, out, err) == (2, "", f"error: the following arguments are required: {missing}\n")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["pillai", "--source", "random:seed=1", "--n", "20000", "--pattern", "1"],
            "tolerance must be finite and > 0",
        ),
        # only pillai reads a tolerance
        (
            ["subsequence", "--source", "periodic:,1", "--n", "2000", "--cap", "10"],
            "unrecognized arguments: --tolerance",
        ),
    ],
)
@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, expected, tolerance):
    code, out, err = run(capsys, *argv, "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert expected in err


@pytest.mark.parametrize(
    "command,text,expected",
    [
        (
            "pillai",
            "source=periodic:,2\nn=100\npatterns=2\ntolerance=nan\n",
            "tolerance must be finite and > 0",
        ),
        (
            "subsequence",
            "source=periodic:,1\nn=2000\ncap=10\ntolerance=0.01\n",
            "unknown config keys: ['tolerance']",
        ),
    ],
)
def test_tolerance_from_config_file_is_checked(tmp_path, capsys, command, text, expected):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert expected in err


@pytest.mark.parametrize("n,b,k", [(0, 1, 2), (2, 1, 2), (4, 3, 2), (5, 2, 4)])
def test_subsequence_needs_one_selected_pair(capsys, n, b, k):
    argv = ["--n", str(n), "--b", str(b), "--k", str(k), "--cap", "10"]
    code, out, err = run(capsys, "subsequence", "--source", "periodic:,1", *argv)
    assert code == 2
    assert out == ""
    assert "need n >= b + k" in err


@pytest.mark.parametrize(
    "spec,b,drawn,selected",
    [("decimal:0.5:e-30", 1, 0, 0), ("rational:7/16", 2, 3, 1)],
    ids=["no digit", "one selected"],
)
def test_subsequence_refuses_a_source_that_ends_before_two_selected(capsys, spec, b, drawn, selected):
    # the run-time twin of n >= b + k: the source gave too few digits for one [1,1] start
    argv = ["--source", spec, "--n", "100", "--b", str(b), "--cap", "10"]
    code, out, err = run(capsys, "subsequence", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: the source ended after {drawn} digits, with {selected} selected; need at least 2\n"


def test_subsequence_refuses_a_source_that_ends_at_once_before_the_joint_measure(capsys, monkeypatch):
    # k=3 at cap 1000 is the largest joint measure allowed, and a refused run must not pay for it
    def joint_pattern_measure(k, cap):
        raise AssertionError("the joint measure ran for a source that gave no digit")

    monkeypatch.setattr("cflab.experiments.joint_pattern_measure", joint_pattern_measure)
    argv = ["--source", "decimal:0.5:e-30", "--n", "100", "--k", "3", "--cap", "1000"]
    code, out, err = run(capsys, "subsequence", *argv)
    assert (code, out) == (2, "")
    assert err == "error: the source ended after 0 digits, with 0 selected; need at least 2\n"


def test_subsequence_at_n_equal_b_plus_k_selects_two_digits(capsys):
    argv = ["--n", "5", "--b", "3", "--k", "2", "--cap", "10"]
    code, out, err = run(capsys, "subsequence", "--source", "periodic:,1", *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["selected_n"] == 2
    assert report["rows"][-1]["count"] == 1


# ------------------------------------------------------------ input bounds

def _one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize(
    "argv",
    [
        ["--pattern", "2", "--pattern", "2"],
        ["--pattern", "1,2", "--pattern", "1", "--pattern", "1,2"],
    ],
)
def test_repeated_pattern_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "pillai", "--source", "periodic:,2", "--n", "100", *argv)
    _one_line_usage_error(code, out, err)
    assert "is given more than once" in err and argv[1] in err


def test_repeated_pattern_from_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("source=periodic:,2\nn=100\npatterns=2;1;2\n")
    code, out, err = run(capsys, "pillai", "--config", str(cfg))
    _one_line_usage_error(code, out, err)
    assert "pattern 2 is given more than once" in err


@pytest.mark.parametrize(
    "argv,rows",
    [
        # 6000 checkpoints x 1 pattern x 2 modes
        (["pillai", "--pattern", "2", "--n", "6000", "--checkpoint-every", "1"], 12000),
        # (60000 - 1) // 5 + 1 selected digits, each a checkpoint; k=5 at the
        # default cap would also be refused, so the row bound comes first
        (["subsequence", "--n", "60000", "--k", "5", "--checkpoint-every", "1"], 12000),
    ],
)
def test_report_with_too_many_rows_is_usage_error(capsys, argv, rows):
    code, out, err = run(capsys, *argv, "--source", "periodic:,2")
    _one_line_usage_error(code, out, err)
    assert f"the report would have {rows} rows" in err


def test_report_row_limit_boundary(capsys, monkeypatch):
    monkeypatch.setattr("cflab.experiments.MAX_REPORT_ROWS", 20)
    argv = ["pillai", "--source", "periodic:,2", "--pattern", "2", "--checkpoint-every", "10"]
    code, out, err = run(capsys, *argv, "--n", "100", "--format", "csv")
    assert code == 1, err  # 10 checkpoints x 2 modes = 20 rows: allowed
    assert sum(not line.startswith("#") for line in out.splitlines()) == 1 + 20
    code, out, err = run(capsys, *argv, "--n", "101")
    _one_line_usage_error(code, out, err)
    assert "the report would have 22 rows, more than 20" in err


def _patterns(count):
    return [f"--pattern=1,{i}" for i in range(1, count + 1)]


@pytest.mark.parametrize("where", ["argv", "config"])
def test_twenty_thousand_patterns_are_refused_at_once(capsys, tmp_path, monkeypatch, where):
    # argparse's time is quadratic in its flags: 20,000 take about 15 s to parse
    _no_source(monkeypatch)
    argv = ["pillai", "--source", "periodic:,1", "--n", "100"]
    if where == "argv":
        argv += _patterns(20_000)
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("patterns=" + ";".join(f"1,{i}" for i in range(1, 20_001)) + "\n")
        argv += ["--config", str(cfg)]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    _one_line_usage_error(code, out, err)
    assert err == "error: a report holds at most 5,000 patterns, got 20,000\n"


def test_five_thousand_patterns_are_accepted(capsys):
    # 1 checkpoint x 5,000 patterns x 2 modes = the 10,000 rows a report may hold
    argv = ["pillai", "--source", "periodic:,1", "--n", "100", "--checkpoint-every", "100"]
    code, out, err = run(capsys, *argv, *_patterns(5_000), "--format", "csv")
    assert code == 1 and err == ""
    assert sum(not line.startswith("#") for line in out.splitlines()) == 1 + 10_000


def test_pattern_limit_counts_every_spelling_of_the_flag(capsys, tmp_path, monkeypatch):
    # argparse reads --p ... --patter as --pattern, with the value next or after "="
    monkeypatch.setattr("cflab.experiments.MAX_REPORT_ROWS", 20)  # 10 patterns
    spellings = [["--pattern"[:end] + "=1," + str(end)] for end in range(3, 10)]
    spellings += [["--p", "2,1"], ["--patte", "2,2"], ["--pattern", "2,3"]]
    argv = ["pillai", "--source", "periodic:,1", "--n", "100", "--checkpoint-every", "100"]
    tokens = [token for spelling in spellings for token in spelling]
    code, out, err = run(capsys, *argv, *tokens, "--format", "csv")
    assert code == 1 and err == ""
    assert sum(not line.startswith("#") for line in out.splitlines()) == 1 + 20
    _no_source(monkeypatch)
    code, out, err = run(capsys, *argv, *tokens, "--pa", "3,1")
    _one_line_usage_error(code, out, err)
    assert err == "error: a report holds at most 10 patterns, got 11\n"
    # the file's patterns and the flags are counted together, as argparse reads both
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("patterns=" + ";".join(f"4,{i}" for i in range(1, 11)) + "\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg), "--pattern", "5")
    _one_line_usage_error(code, out, err)
    assert err == "error: a report holds at most 10 patterns, got 11\n"


FLOODS = {
    "unknown": [f"--unknown=1,{i}" for i in range(1, 10_001)],
    "repeated": ["--n=1"] * 10_000,
}


@pytest.mark.parametrize("flood", FLOODS)
@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "1,1"],
        ["expand", "periodic:,1"],
        ["verify", "reversal"],
        ["pillai", "--source", "periodic:,1", "--pattern", "1"],
        ["subsequence", "--source", "periodic:,1"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("where", ["argv", "config"])
def test_ten_thousand_option_tokens_are_refused_at_once(capsys, tmp_path, monkeypatch, flood, argv, where):
    # unknown or repeated, argparse takes about 4 s to read 10,000 flags
    _no_source(monkeypatch)
    tokens = FLOODS[flood]
    if where == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(token[2:] + "\n" for token in tokens))
        tokens = ["--config", str(cfg)]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, *tokens)
    assert time.perf_counter() - start < 1
    _one_line_usage_error(code, out, err)
    assert err.startswith("error: a run takes at most 100 option tokens, got ")


def test_option_tokens_besides_pillai_patterns_are_bounded(capsys, monkeypatch):
    # pillai's 5,000 patterns have their own bound; its other option tokens,
    # and --pattern flags given to any other subcommand, count against 100
    _no_source(monkeypatch)
    argv = ["pillai", "--source", "periodic:,1", "--n", "100", *_patterns(5_000)]
    code, out, err = run(capsys, *argv, *["--n=100"] * 99)
    _one_line_usage_error(code, out, err)
    assert err == "error: a run takes at most 100 option tokens, got 101\n"
    code, out, err = run(capsys, "measure", "1,1", *_patterns(101))
    _one_line_usage_error(code, out, err)
    assert err == "error: a run takes at most 100 option tokens, got 101\n"


def test_option_token_limit_boundary(capsys, tmp_path, monkeypatch):
    # the flags of argv and the config file's keys are counted together
    monkeypatch.setattr(cli, "MAX_OPTION_TOKENS", 4)
    argv = ["measure", "1,1", "--format=csv", "--out", str(tmp_path / "m.csv")]
    cfg = tmp_path / "m.cfg"
    cfg.write_text("format=json\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out, err) == (0, "", "")
    cfg.write_text("format=json\ninterval=true\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    _one_line_usage_error(code, out, err)
    assert err == "error: a run takes at most 4 option tokens, got 5\n"
    code, out, err = run(capsys, *argv, "--format=json", "--format=csv", "--interval")
    _one_line_usage_error(code, out, err)
    assert err == "error: a run takes at most 4 option tokens, got 5\n"


def _no_source(monkeypatch):
    """Make building any source fail, so a run that would draw digits fails at once."""

    def build(*args, **kwargs):
        raise AssertionError("a source was built")

    monkeypatch.setattr(cli, "parse_source_spec", build)
    monkeypatch.setattr(experiments, "parse_source_spec", build)


DRAWS = [
    ["pillai", "--source", "periodic:,1", "--pattern", "1", "--n"],
    ["subsequence", "--source", "periodic:,1", "--n"],
    ["expand", "periodic:,1", "--n"],
]


@pytest.mark.parametrize("argv", DRAWS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "n", [10**8 + 1, int("9" * 30), int("9" * 4000)], ids=lambda n: f"{len(str(n))}-digits"
)
def test_n_past_the_draw_limit_is_refused_before_any_digit(capsys, monkeypatch, argv, n):
    _no_source(monkeypatch)
    code, out, err = run(capsys, *argv, str(n))
    _one_line_usage_error(code, out, err)
    assert err.startswith("error: n must be at most 100,000,000, got ")
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("argv", DRAWS, ids=lambda argv: argv[0])
def test_n_draw_limit_boundary(capsys, monkeypatch, argv):
    monkeypatch.setattr(experiments, "MAX_N", 100)
    code, out, err = run(capsys, *argv, "100")
    assert code in (0, 1) and err == ""
    _no_source(monkeypatch)
    code, out, err = run(capsys, *argv, "101")
    _one_line_usage_error(code, out, err)
    assert "n must be at most 100, got 101" in err


def test_pillai_counting_work_limit_boundary(capsys, monkeypatch):
    # n x the pattern digits: 100 x (1 + 2) = 300 steps
    argv = ["pillai", "--source", "periodic:,1", "--pattern", "1", "--pattern", "1,1", "--n", "100"]
    monkeypatch.setattr(experiments, "MAX_COUNT_WORK", 300)
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    monkeypatch.setattr(experiments, "MAX_COUNT_WORK", 299)
    _no_source(monkeypatch)
    code, out, err = run(capsys, *argv)
    _one_line_usage_error(code, out, err)
    assert err == (
        "error: counting would take n x the pattern digits = 300 steps, more than the limit of 299\n"
    )


def test_long_pattern_at_the_draw_limit_is_refused_before_any_digit(capsys, monkeypatch):
    # 10**8 digits x one 32,000-digit pattern would count for about half an hour
    _no_source(monkeypatch)
    ones = ",".join(["1"] * 32000)
    argv = ["pillai", "--source", "periodic:,1", "--n", "100000000", "--pattern", ones]
    code, out, err = run(capsys, *argv)
    _one_line_usage_error(code, out, err)
    assert "= 3,200,000,000,000 steps, more than the limit of 100,000,000,000" in err


def test_bench_patterns_at_the_draw_limit_are_inside_the_work_limit():
    # the pillai bench's 8 patterns: 1, 2, 3, 1,1, 1,2, 2,1, 1,1,1, 1,2,1
    assert experiments.MAX_N * (3 * 1 + 3 * 2 + 2 * 3) <= experiments.MAX_COUNT_WORK


INT_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGIT_CAP, reason="this Python parses ints of any length")
def test_decimal_text_past_the_int_digit_cap_is_a_short_usage_error(capsys):
    # at the interpreter's cap (4300 by default) the text is read; one digit
    # more is refused in one short line, not echoed whole
    code, out, err = run(capsys, "expand", f"decimal:0.3{'1' * (INT_DIGIT_CAP - 1)}:e-20", "--n", "3")
    assert code == 0, err
    assert out.splitlines() == ["3", "4", "1"]  # 0.3111... = 14/45 = [0; 3, 4, 1, 2]
    code, out, err = run(capsys, "expand", f"decimal:0.3{'1' * INT_DIGIT_CAP}:e-20", "--n", "3")
    _one_line_usage_error(code, out, err)
    assert len(err) < 160, err
    assert f"{INT_DIGIT_CAP + 1} digits in a row; at most {INT_DIGIT_CAP} are allowed" in err
    assert "sys." not in err


@pytest.mark.skipif(not INT_DIGIT_CAP, reason="this Python prints ints of any length")
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_expand_of_a_digit_too_long_to_print_stops_before_it_in_one_short_line(
    capsys, monkeypatch, tmp_path, to_file
):
    # the fourth digit has one decimal digit more than the interpreter prints
    chunks = [[1, 2], [3, 10**INT_DIGIT_CAP, 4]]
    monkeypatch.setattr(cli, "parse_source_spec", lambda spec, seed: cflab.DigitSource(iter(chunks)))
    path = tmp_path / "digits.txt"
    argv = ["expand", "periodic:,1", "--n", "5", *(["--out", str(path)] if to_file else [])]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert (path.read_text() if to_file else out) == "1\n2\n3\n"
    assert err == (
        f"error: digit 4 has more than {INT_DIGIT_CAP:,} decimal digits, "
        "the interpreter's limit for int-to-str conversion\n"
    )
    assert len(err.encode()) <= 201


NINES = "9" * max(5000, INT_DIGIT_CAP + 1)


@pytest.mark.skipif(not INT_DIGIT_CAP, reason="this Python parses ints of any length")
@pytest.mark.parametrize(
    "argv",
    [
        ["measure", f"1,{NINES}"],
        ["expand", f"rational:1/{NINES}", "--n", "3"],
        ["expand", f"periodic:1;{NINES}", "--n", "3"],
        ["pillai", "--source", "periodic:,1", "--n", "100", "--pattern", NINES],
    ],
    ids=["measure", "rational", "periodic", "pattern"],
)
def test_word_and_rational_text_past_the_int_digit_cap_is_a_short_usage_error(capsys, argv):
    # refused in one short line that names the cap, not echoed whole
    code, out, err = run(capsys, *argv)
    _one_line_usage_error(code, out, err)
    assert len(err.encode()) <= 200, err
    assert f"has {len(NINES)} digits in a row; at most {INT_DIGIT_CAP} are allowed" in err


@pytest.mark.parametrize("text", ["0.5e-999999999", "5e999999999"])
def test_decimal_text_exponent_past_the_bound_is_a_quick_usage_error(capsys, text):
    # the text's own power of ten would take minutes to build; it is refused first
    started = time.perf_counter()
    code, out, err = run(capsys, "expand", f"decimal:{text}:e-5", "--n", "3")
    assert time.perf_counter() - started < 1
    _one_line_usage_error(code, out, err)
    assert f"decimal text {text!r} has an exponent outside [-1000000, 1000000]" in err


@pytest.mark.parametrize("exponent", ["e0", "e5", "e-1000001"])
@pytest.mark.parametrize("command", ["expand", "pillai"])
def test_decimal_exponent_out_of_range_is_usage_error(capsys, exponent, command):
    spec = f"decimal:0.6180339887:{exponent}"
    if command == "expand":
        argv = ["expand", spec, "--n", "3"]
    else:
        argv = ["pillai", "--source", spec, "--n", "100", "--pattern", "1"]
    code, out, err = run(capsys, *argv)
    _one_line_usage_error(code, out, err)
    assert exponent in err


# ------------------------------------------------------------ short lines

TEXT = "z" * 4000  # 4,000 characters that no option reads
NINES_4000 = "9" * 4000


def _exit_and_last_line(argv, config=None, tmp_path=None):
    """cli.main's exit code on argv and its last stderr line; `config` is a --config file's text."""
    if config is not None:
        path = tmp_path / "short.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, (err.getvalue().splitlines() or [""])[-1]


def _refusal(k, cap):
    try:
        joint_pattern_measure(k, cap)
    except UsageError as exc:
        return 2, f"error: {exc}"
    return 0, ""


SUBSEQUENCE = ["subsequence", "--source", "periodic:,1"]
PILLAI = ["pillai", "--source", "periodic:,1", "--n", "100", "--pattern", "1"]
# site: how it is reached with a value, a short value and its line, a long value and its line
SHORT_LINE_SITES = {
    "subsequence --b": (
        lambda v, tmp: _exit_and_last_line([*SUBSEQUENCE, "--n", "4", "--b", v]),
        "3", "error: need n >= b + k, got n=4, b=3, k=2",
        NINES_4000, "error: need n >= b + k, got n=4, b=over 10**18, k=2",
    ),
    "subsequence --k, cap 1": (
        lambda v, tmp: _exit_and_last_line([*SUBSEQUENCE, "--n", "1000", "--cap", "1", "--k", v]),
        "30",
        "error: joint measure at k=30, cap=1 would walk k-1 = 29 middle digits, "
        "more than the limit of 20",
        NINES_4000, "error: need n >= b + k, got n=1000, b=1, k=over 10**18",
    ),
    "subsequence --cap": (
        lambda v, tmp: _exit_and_last_line([*SUBSEQUENCE, "--n", "1000", "--k", "5", "--cap", v]),
        "1000",
        "error: joint measure at k=5, cap=1000 would enumerate cap**(k-1) = 1000**4 "
        "middle words, more than the limit of 1000000",
        NINES_4000,
        "error: joint measure at k=5, cap=over 10**18 would enumerate cap**(k-1) = "
        "over 10**18**4 middle words, more than the limit of 1000000",
    ),
    "joint measure, cap 1": (
        lambda v, tmp: _refusal(int(v), 1),
        "22",
        "error: joint measure at k=22, cap=1 would walk k-1 = 21 middle digits, "
        "more than the limit of 20",
        NINES_4000,
        "error: joint measure at k=over 10**18, cap=1 would walk k-1 = over 10**18 "
        "middle digits, more than the limit of 20",
    ),
    "pillai --checkpoint-every": (
        lambda v, tmp: _exit_and_last_line([*PILLAI, "--checkpoint-every", v]),
        "-3", "error: need checkpoint_every >= 1, got -3",
        "-" + NINES_4000, "error: need checkpoint_every >= 1, got under -10**18",
    ),
    "pillai repeated --pattern": (
        lambda v, tmp: _exit_and_last_line([*PILLAI, "--pattern", v, "--pattern", v]),
        "1,2", "error: pattern 1,2 is given more than once",
        NINES_4000, f"error: pattern {'9' * 40}... is given more than once",
    ),
    "expand random --seed": (
        lambda v, tmp: _exit_and_last_line(["expand", "random", "--n", "3", "--seed", v]),
        "-1", "error: random source seed must be >= 0, got -1",
        "-" + NINES_4000, "error: random source seed must be >= 0, got under -10**18",
    ),
    "--seed with a spec but random": (
        lambda v, tmp: _exit_and_last_line(["expand", f"random:seed={v}", "--n", "3", "--seed", "9"]),
        "5", "error: --seed is read only by the bare source 'random', not 'random:seed=5'",
        TEXT,
        f"error: --seed is read only by the bare source 'random', not 'random:seed={'z' * 28}...'",
    ),
    "decimal: exponent": (
        lambda v, tmp: _exit_and_last_line(["expand", f"decimal:0.5:e{v}", "--n", "3"]),
        "-1000001", "error: decimal exponent must be in [-1000000, -1], got e-1000001",
        "-" + NINES_4000,
        "error: decimal exponent must be in [-1000000, -1], got eunder -10**18",
    ),
    "rational: value": (
        lambda v, tmp: _exit_and_last_line(["expand", f"rational:{v}/1", "--n", "3"]),
        "5", "error: need num < den for a value in (0,1), got 5/1",
        NINES_4000, "error: need num < den for a value in (0,1), got over 10**18/1",
    ),
    "random:seed= text": (
        lambda v, tmp: _exit_and_last_line(["expand", f"random:seed={v}", "--n", "3"]),
        "abc", "error: bad seed in source spec 'random:seed=abc'",
        TEXT, f"error: bad seed in source spec 'random:seed={'z' * 28}...'",
    ),
    "unrecognized source spec": (
        lambda v, tmp: _exit_and_last_line(["expand", v, "--n", "3"]),
        "martian:1", "error: unrecognized source spec 'martian:1'",
        TEXT, f"error: unrecognized source spec '{'z' * 40}...'",
    ),
    "config key": (
        lambda v, tmp: _exit_and_last_line(["pillai"], f"{v}=1\njobs=0\n", tmp),
        "sauce", "error: unknown config keys: ['jobs', 'sauce']",
        TEXT, f"error: unknown config keys: ['jobs', '{'z' * 40}...']",
    ),
    "config line": (
        lambda v, tmp: _exit_and_last_line(["pillai"], f"n=100\n{v}\n", tmp),
        "oops", "error: bad config line 'oops'",
        TEXT, f"error: bad config line '{'z' * 40}...'",
    ),
}


@pytest.mark.parametrize("site", SHORT_LINE_SITES)
@pytest.mark.parametrize("size", ["short", "long"])
def test_values_are_printed_short_and_short_values_as_before(tmp_path, site, size):
    reach, short, short_line, long, long_line = SHORT_LINE_SITES[site]
    code, line = reach(short if size == "short" else long, tmp_path)
    assert code == 2
    assert line == (short_line if size == "short" else long_line)
    assert len(line.encode()) <= 200


INT_OPTIONS = [
    ["pillai", "--source", "periodic:,1", "--pattern", "1", "--n"],
    ["pillai", "--source", "periodic:,1", "--pattern", "1", "--n", "100", "--checkpoint-every"],
    ["pillai", "--source", "random", "--pattern", "1", "--n", "100", "--seed"],
    ["subsequence", "--source", "periodic:,1", "--n", "100", "--b"],
    ["subsequence", "--source", "periodic:,1", "--n", "100", "--k"],
    ["subsequence", "--source", "periodic:,1", "--n", "100", "--cap"],
    ["expand", "periodic:,1", "--n"],
    ["expand", "random", "--n", "3", "--seed"],
    ["verify", "reversal", "--max-digit"],
    ["verify", "reversal", "--max-len"],
    ["verify", "joint-k2", "--cap"],
]


@pytest.mark.parametrize("argv", INT_OPTIONS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
@pytest.mark.parametrize("text", ["abc", TEXT], ids=["3 letters", "4000 letters"])
def test_int_option_text_is_refused_in_one_short_line(argv, text):
    code, line = _exit_and_last_line([*argv, text])
    assert code == 2
    expected = f"cflab {argv[0]}: error: argument {argv[-1]}: bad int text {quote(text)}"
    assert line == expected and len(line.encode()) <= 200


@pytest.mark.parametrize(
    "argv",
    [
        ["pillai", "--source", "periodic:,1", "--pattern", "1", "--n"],
        ["verify", "reversal", "--max-digit"],
    ],
    ids=["pillai --n", "verify --max-digit"],
)
def test_int_option_of_5000_digits_is_one_short_line(argv):
    # argparse's own message would echo a value past the interpreter's int-digit cap whole
    code, line = _exit_and_last_line([*argv, "9" * 5000])
    assert code == 2
    assert len(line.encode()) <= 200, line[:300]


def test_tolerance_text_is_refused_in_one_short_line():
    code, line = _exit_and_last_line([*PILLAI, "--tolerance", TEXT])
    assert code == 2
    assert line == f"cflab pillai: error: argument --tolerance: bad float text '{'z' * 40}...'"


SPACED = "z " * 2000  # 4,000 characters, no run of them longer than one
EMOJI = "\U0001F600" * 4000  # 4 bytes of UTF-8 each
# site: its exit code and last stderr line on a value that argparse, or the
# OSError on a file the user named, would otherwise echo whole, or whose
# characters take more bytes than the cut of `quote` allows for
ECHOED_WHOLE_SITES = {
    "pillai --expect": lambda tmp: _exit_and_last_line(["pillai", "--expect", TEXT]),
    "verify suite": lambda tmp: _exit_and_last_line(["verify", TEXT]),
    "measure --format": lambda tmp: _exit_and_last_line(["measure", "1,1", "--format", TEXT]),
    "measure --out": lambda tmp: _exit_and_last_line(
        ["measure", "1,1", "--out", str(tmp / "missing" / TEXT)]
    ),
    "measure --config": lambda tmp: _exit_and_last_line(
        ["measure", "1,1", "--config", str(tmp / "missing" / TEXT)]
    ),
    "pillai config c=": lambda tmp: _exit_and_last_line(["pillai"], f"c={'z' * 300}\n", tmp),
    "measure config interval=": lambda tmp: _exit_and_last_line(
        ["measure", "1,1"], f"interval={'z' * 300}\n", tmp
    ),
    "pillai --expect, spaced": lambda tmp: _exit_and_last_line(["pillai", "--expect", SPACED]),
    "verify suite, spaced": lambda tmp: _exit_and_last_line(["verify", SPACED]),
    "measure --format, spaced": lambda tmp: _exit_and_last_line(
        ["measure", "1,1", "--format", SPACED]
    ),
    "measure extra argument, spaced": lambda tmp: _exit_and_last_line(["measure", "1,1", SPACED]),
    "pillai config c=, spaced": lambda tmp: _exit_and_last_line(["pillai"], f"c={SPACED}\n", tmp),
    "measure config interval=, spaced": lambda tmp: _exit_and_last_line(
        ["measure", "1,1"], f"interval={SPACED}\n", tmp
    ),
    "pillai --tolerance, 4-byte": lambda tmp: _exit_and_last_line([*PILLAI, "--tolerance", EMOJI]),
    "pillai --n, 4-byte": lambda tmp: _exit_and_last_line(
        ["pillai", "--source", "periodic:,1", "--n", EMOJI]
    ),
    "pillai --expect, 4-byte": lambda tmp: _exit_and_last_line(["pillai", "--expect", EMOJI]),
    "measure word, 4-byte": lambda tmp: _exit_and_last_line(["measure", EMOJI]),
    # an argv byte that is not UTF-8 arrives as a lone surrogate, which stderr
    # writes as its 6-byte backslash escape
    "measure extra argument, not UTF-8": lambda tmp: _exit_and_last_line(
        ["measure", "1,1", "\udcff" * 300]
    ),
}


@pytest.mark.parametrize("site", ECHOED_WHOLE_SITES)
def test_values_echoed_by_argparse_or_the_os_are_cut(tmp_path, site):
    code, line = ECHOED_WHOLE_SITES[site](tmp_path)
    assert code == 2
    # the bytes stderr writes
    assert "..." in line and len(line.encode(errors="backslashreplace")) <= 200, line[:300]


def test_pillai_without_a_pattern_is_refused_by_the_experiment(capsys):
    code, out, err = run(capsys, "pillai", "--source", "periodic:,1", "--n", "100")
    _one_line_usage_error(code, out, err)
    assert err == "error: pillai experiment needs at least one pattern\n"


# ------------------------------------------------------------------- fuzz

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _mostly(often, rarely):
    """`often` nine times in ten, else `rarely`."""
    return st.sampled_from([often] * 9 + [rarely]).flatmap(lambda strategy: strategy)


# text that no option takes as a flag: no "-" to start an option, no "=" to set one
_ARBITRARY = st.text(alphabet=string.ascii_letters + string.digits + ",.:;/ _", max_size=8)
_HUGE = st.sampled_from(["9" * 5000, "-" + "9" * 5000, NINES_4000, "-" + NINES_4000])
# text a message could echo: 4,000 characters of one letter, of spaced letters
# or of a 4-byte character, or 201 to 400 characters of any text, blanks,
# control and non-ASCII characters among them
_ANY_LONG = st.sampled_from([TEXT, SPACED, EMOJI]) | st.text(min_size=201, max_size=400)
_LONG_TEXT = _ANY_LONG | st.sampled_from(["1," * 2000, "9" * 3999 + "x", "0." + "1" * 3998])


def _value(valid, *invalid):
    """Mostly a valid value, else an invalid one, a 5,000- or 4,000-digit int, or long
    text."""
    invalid = st.sampled_from(["", "abc", "-1", "0", "1.5", *invalid])
    return _mostly(valid, st.one_of(invalid, _HUGE, _LONG_TEXT, _ARBITRARY))


_WORD = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(lambda w: ",".join(map(str, w)))
_SOURCE = st.one_of(
    st.sampled_from(["concat-normal", "random", "periodic:,1", "periodic:1;2,3", "rational:7/16"]),
    _ints(0, 100).map(lambda seed: f"random:seed={seed}"),
    _ints(1, 50).map(lambda e: f"decimal:0.6180339887:e-{e}"),
    st.tuples(_ints(1, 99), _ints(1, 99)).map(lambda pq: f"rational:{pq[0]}/{pq[1]}"),
    _WORD.map(lambda w: f"periodic:;{w}"),
    st.sampled_from(
        [f"decimal:0.5:e-{NINES_4000}", f"random:seed={TEXT}", f"rational:{NINES_4000}/1"]
    ),
)
# Each option's values.  An invalid choice (and verify suite) and a value given
# to a switch are drawn long too (_ANY_LONG): argparse would echo them whole.
_OPTIONS = {
    "n": _value(st.one_of(_ints(100, 2000), _ints(0, 2000))),
    "seed": _value(_ints(0, 100)),
    "max_digit": _value(_ints(-1, 3)),
    "max_len": _value(_ints(-1, 3)),
    "cap": _value(_ints(1, 20)),
    "b": _value(_ints(1, 5)),
    "k": _value(_ints(2, 4)),
    "checkpoint_every": _value(_ints(50, 2000)),
    "tolerance": _value(st.sampled_from(["0.005", "0.5", "1"]), "nan", "inf", "1e-400"),
    "source": _value(_SOURCE, "martian:1", "decimal:0.5:e5", "periodic:"),
    "pattern": _value(_WORD, "0", "1,,2"),
    "expect": _mostly(
        st.sampled_from(["consistent", "non-normal"]), st.just("maybe") | _ANY_LONG
    ),
    "format": _mostly(st.sampled_from(["json", "csv"]), st.just("xml") | _ANY_LONG),
    "interval": st.sampled_from(["", "x"]) | _ANY_LONG,
}
# Each subcommand's positional (None if it has none) and options.  subsequence
# always gets a --cap, so no k >= 3 walks the default cap of 1000.
_GRAMMAR = {
    "measure": (_value(_WORD, "0,1"), ["interval", "format"]),
    "expand": (_OPTIONS["source"], ["n", "seed"]),
    "verify": (
        _mostly(st.sampled_from(sorted(verify.SUITES)), st.just("bogus") | _ANY_LONG),
        ["max_digit", "max_len", "cap"],
    ),
    "pillai": (
        None,
        ["source", "n", "pattern", "checkpoint_every", "tolerance", "expect", "format", "seed"],
    ),
    "subsequence": (
        None, ["source", "n", "b", "k", "checkpoint_every", "expect", "format", "seed"]
    ),
}
_USUALLY_GIVEN = {"source", "n", "pattern"}  # the other options are given half the time
# "c" abbreviates more than one pillai option, so argparse calls it ambiguous
_UNKNOWN_KEYS = ["jobs", "help", "config", "c", "z" * 4000]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    positional, names = _GRAMMAR[command]
    argv = [command]
    if positional is not None and draw(_mostly(st.just(True), st.just(False))):
        argv.append(draw(positional))
    if command == "subsequence":
        argv += ["--cap", draw(_OPTIONS["cap"])]
    for name in names:
        given = _mostly(st.just(True), st.just(False)) if name in _USUALLY_GIVEN else st.booleans()
        if not draw(given):
            continue
        flag = f"--{name.replace('_', '-')}"
        if name == "interval":
            argv.append(flag)
        elif name == "pattern":  # one to three, none twice
            for text in draw(st.lists(_OPTIONS[name], min_size=1, max_size=3, unique=True)):
                argv += [flag, text]
        else:
            argv += [flag, draw(_OPTIONS[name])]
    return argv


@st.composite
def _config(draw):
    """Up to 4 lines: options of any subcommand, unknown keys, comments and lines without a
    key."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["option"] * 9 + ["unknown", "comment", "bad"]))
        if kind == "option":
            name = draw(st.sampled_from(sorted(_OPTIONS)))
            spelling = name.replace("_", draw(st.sampled_from("-_")))
            key = "patterns" if name == "pattern" else spelling
            lines.append(f"{key}={draw(_OPTIONS[name])}")
        elif kind == "unknown":
            value = _mostly(_ARBITRARY, _ANY_LONG)
            lines.append(f"{draw(st.sampled_from(_UNKNOWN_KEYS))}={draw(value)}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["", "# a comment"])))
        else:
            no_key = st.text(string.ascii_letters, min_size=1, max_size=8) | _ANY_LONG
            lines.append(draw(no_key))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv(), config=st.none() | _config())
@example(["pillai", "--source", "periodic:,1", "--pattern", "1", "--n", "9" * 5000], None)
@example(["verify", "reversal", "--max-digit", "9" * 5000], None)
@example(["subsequence", "--cap", NINES_4000, "--source", "periodic:,1", "--n", "99"], None)
@example(["pillai"], f"source=periodic:,1\nn=100\n{TEXT}=1\n")
@example(["pillai", "--expect", SPACED], None)
@example(["measure", EMOJI], None)
@example(["expand", "decimal:1.5e-5000:e-12000", "--n", "3"], None)
def test_cli_exits_0_1_or_2_and_refuses_in_one_short_line(tmp_path_factory, argv, config):
    # no exception escapes main (argparse's SystemExit is its exit code), the
    # code is 0, 1 or 2, and a usage error ends in one line of at most 200 bytes
    code, line = _exit_and_last_line(argv, config, tmp_path_factory.getbasetemp())
    assert code in (0, 1, 2)
    if code == 2:
        assert len(line.encode()) <= 200, line[:300]


# ---------------------------------------------------------------- CI pins

# The bytes each run must print as it always has: the sha256 of its stdout,
# or of its --out file when the command ends in --out, or the one line it
# prints; each run exits 0 with nothing on stderr.  Each byte is pinned here
# once.  CI's "Console script" step repeats only `measure 1,2,3 --interval`,
# whose "≈" must pass through a real stdout of the installed entry point.
CI_PINS = [
    # the cylinder endpoints print ordered by value, for an odd and an even
    # word, in CSV and in text
    (
        "measure 1,2,3 --interval --format csv",
        "57c1c211fa345cbcee6d83f317bc915837ad7eb84a2637a36b4c6490e2f7957b",
    ),
    (
        "measure 2,2 --interval --format csv",
        "350533d2252766fa370b4cbbe3b365cbd95d319514e94e61231effec3f4622d2",
    ),
    (
        "measure 1,2,3 --interval",
        "cc2d83ad6dcf6fffb871b27b360f95b83857aa680417a126a3d2c068bdfc1c6c",
    ),
    # a chunk built out of order, or an upper half mirrored wrong, fails here
    (
        "expand concat-normal --n 300000",
        "1667f3f551eb4bca0852c7efd1859458b13e9abc7e5bba4bf7c16d9ddb24f8e9",
    ),
    # a batch that certifies a digit the one-step rule would not fails here
    (
        "expand random:seed=7 --n 300000",
        "e7ec91d0f1f1869033ec0262848c733320ecfd9c506b626b6a7fc426a7df4295",
    ),
    # the counts over the bench's 8 patterns: a start counted twice or
    # missed fails here
    (
        "pillai --source concat-normal --n 300000 --pattern 1 --pattern 2 --pattern 3"
        " --pattern 1,1 --pattern 1,2 --pattern 2,1 --pattern 1,1,1 --pattern 1,2,1"
        " --expect non-normal",
        "d7be852568e645d86bb2d15489cbc8a8791118110e66ca5ca3af9c90f279c2b5",
    ),
    # digits of 2^32, past the array cell, across 9 window seams
    (
        "pillai --source periodic:,1,4294967296 --n 200000 --pattern 4294967296,1 --pattern 1"
        " --expect non-normal",
        "9fbdc724637fe9a3a1f5d9019427ba17f6e9289e2bae5156acaf3a58a71556a7",
    ),
    # the --out reports of the acceptance families
    (
        "verify joint-k2 --cap 50 --out",
        "b2103cb94591cbb90240e7fe20c11f77431a0d54a37f951205fe6a959d3bb129",
    ),
    (
        "verify reversal --max-digit 4 --max-len 5 --out",
        "45a349342ca832486870866a48d0777f8832cb525b1382a93b05da45cb3e489e",
    ),
    (
        "verify dominance --max-digit 5 --max-len 4 --out",
        "aea5e3bd077dd4c56eac8a0a5e05f2ef0292929f14f75fe76557184d23d6c9f7",
    ),
    (
        "verify pairwise --max-digit 5 --max-len 3 --out",
        "9ec1d9a4fc1e2a2700cfef16c4a4127b831a635ea88aa315e14b13bad2fa0942",
    ),
    # the checked counts of the bench's three verify-exact families
    (
        "verify dominance --max-digit 8 --max-len 6",
        "dominance: pass (262143 cases checked; digits <= 8, length <= 6, last digit >= 2)",
    ),
    (
        "verify reversal --max-digit 6 --max-len 6",
        "reversal: pass (55986 cases checked; digits <= 6, length <= 6)",
    ),
    (
        "verify pairwise --max-digit 8 --max-len 5",
        "pairwise: pass (37448 cases checked; digits <= 8, length <= 5)",
    ),
    # the rows of dominance over six lengths, one parent each
    (
        "verify dominance --max-digit 10 --max-len 6",
        "dominance: pass (999999 cases checked; digits <= 10, length <= 6, last digit >= 2)",
    ),
    # the patterns (1,2) and (300,1) take one byte plane and two, and
    # concat-normal reads non-normal at this n
    (
        "pillai --source concat-normal --n 100000 --pattern 1,2 --pattern 300,1 --format csv"
        " --expect non-normal",
        "8189e46c23499fb8d6a498e2706b90c273ff745021913890da55d00ba1f807b8",
    ),
    # the CSV reports of pillai and subsequence: the columns, read off the
    # report rows, and their order
    (
        "pillai --source concat-normal --n 300000 --pattern 1 --pattern 2 --pattern 3"
        " --pattern 1,1 --pattern 1,2 --pattern 2,1 --pattern 1,1,1 --pattern 1,2,1"
        " --expect non-normal --format csv",
        "c3458d73d420a4ac5b39827976c7568dccca71197d3d308915b6b0c63d2673cd",
    ),
    (
        "subsequence --source random:seed=7 --n 200000 --b 3 --k 3 --cap 50 --format csv",
        "54ea394a0217fc04ce86cd2bb64e62dc18a60dd5bfe49eb2fbf78b3a770d7f00",
    ),
    # with no optional flag the report echoes every library default (b, k,
    # cap, checkpoint_every, seed), so a default moved or dropped fails here
    (
        "subsequence --source random:seed=11 --n 20000",
        "bc318f69cc3918ddc5e94f0cbee02c2d18abbb9b7a337ae4d57001b87e7e741b",
    ),
    # each inner node adds 1 + sigma A (A - 1) for a child tail of arg A;
    # next to the leaves sigma = 1/2, and at cap 1000 the k=2 bracket is
    # 0.00036 wide with log2(32/(9 pi)) = 0.178579 inside it
    (
        "verify joint-k2 --cap 1000",
        "joint-k2: pass (cap 1000; bracket [0.1782, 0.1786] vs oracle 0.17858;"
        " gamma(C_11) = 0.1520; lower 0.178219, tail 0.000360, exceeds gamma(C_11): True)",
    ),
]


@pytest.mark.parametrize("command,pin", CI_PINS, ids=[command[:60] for command, _ in CI_PINS])
def test_the_bytes_ci_pins(capsys, tmp_path, command, pin):
    argv = command.split()
    path = tmp_path / "report"
    if argv[-1] == "--out":
        argv.append(str(path))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if " " in pin:  # a summary line; a sha256 has no blank
        assert out == pin + "\n"
    else:
        data = path.read_bytes() if path.exists() else out.encode()
        assert hashlib.sha256(data).hexdigest() == pin


def test_the_k3_joint_bracket_ci_pins(capsys):
    # one digit further up than the k=2 tail, sigma comes from the Lebesgue
    # measure of a digit 1 two places on, and the k=3 bracket at cap 150 must
    # end where it is pinned
    argv = ["subsequence", "--source", "random:seed=11", "--n", "20000", "--k", "3", "--cap", "150"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    bracket = json.loads(out)["summary"]["joint_bracket"]
    assert str(bracket) == "[0.16669429316915188, 0.17040537583696092]"
