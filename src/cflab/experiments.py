"""Experiment orchestration: block-frequency runs and AP-subsequence runs.

Both experiments take a fully explicit config and return a plain report
dict; every parameter a run reads is echoed into the report header, by
the names the run gives `ExperimentConfig.echo`, so a rerun of the same
config yields byte-identical output.  `ExperimentConfig` writes
each field and its default once, on its NamedTuple base; its `__new__` only
checks them and fills in the two derived values.  `_stat_rows` alone turns
counts into frequencies and measures; each summary reads the final rows.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .cfcore import UsageError, Word, cut, format_word, shown, word
from .measure import DEFAULT_CAP, check_joint_walk, joint_pattern_measure, measure_of_cylinder
from .stats import ModeDescriptor, StreamStats, frequency_report
from .streams import limit, parse_source_spec, select_ap

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_NON_NORMAL = "NON_NORMAL"
# Most rows a report may hold (checkpoints x patterns x modes); a report of
# 10**4 rows peaks at about 39 MB (Python 3.11).
MAX_REPORT_ROWS = 10**4
# Most digits a run may draw (pillai, subsequence, expand): random: digits
# take about 0.5 us each (2 vCPU, Python 3.11), so 10**8 about a minute
# with short patterns.  Counting pillai's patterns costs n x their total
# length, 0.5-0.7 ns a unit: one 100,000-digit pattern at n = 10**6 takes
# 72 s, so MAX_COUNT_WORK bounds that product at about a minute too.
MAX_N = 10**8
MAX_COUNT_WORK = 10**11


def check_n(n: int) -> None:
    """Refuse, before any digit is drawn, a run that would draw more than MAX_N digits."""
    if n > MAX_N:
        raise UsageError(f"n must be at most {MAX_N:,}, got {shown(n, ',')}")


class _ExperimentFields(NamedTuple):
    # only ExperimentConfig.__new__ calls _replace, after its checks; _make would skip them
    source: str
    n: int
    patterns: list[Word] | None = None  # a fresh list of tuples once built
    b: int = 1
    k: int = 2
    cap: int = DEFAULT_CAP
    seed: int | None = None
    checkpoint_every: int | None = None  # n // 10, at least 1, when unset
    tolerance: float = 0.005
    jobs: int = 1  # read by nothing; kept because the acceptance tests pass it


# The fields that hold an int, and those of them that may be None instead.
_INT_FIELDS = ("n", "b", "k", "cap", "seed", "checkpoint_every", "jobs")
_UNSET_OK = ("seed", "checkpoint_every")


def _is_a(value: object, kinds: type | tuple[type, ...]) -> bool:
    """value is one of `kinds`, and not a bool, which Python counts as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class ExperimentConfig(_ExperimentFields):
    """A run's parameters, checked and with every default filled in before it is returned."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentConfig:
        self = super().__new__(cls, *args, **kwargs)
        # the source is echoed into the report header, where a line break
        # would end a CSV comment line early
        if not (isinstance(self.source, str) and self.source.isprintable()):
            raise UsageError(f"source must be a printable str, got {cut(repr(self.source))}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not (_is_a(value, int) or value is None and name in _UNSET_OK):
                raise UsageError(f"{name} must be an int, got {cut(repr(value))}")
        if not _is_a(self.tolerance, (int, float)):
            raise UsageError(f"tolerance must be a number, got {cut(repr(self.tolerance))}")
        check_n(self.n)
        # a NaN or non-positive tolerance would flag every pattern whatever the
        # data; an int past the largest float is compared exactly, not converted
        if not 0 < self.tolerance <= sys.float_info.max:
            raise UsageError(f"tolerance must be finite and > 0, got {cut(repr(self.tolerance))}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise UsageError(f"need checkpoint_every >= 1, got {shown(self.checkpoint_every)}")
        if self.jobs < 1:
            raise UsageError(f"need jobs >= 1, got {shown(self.jobs)}")
        # a copy, so a caller's later append cannot slip a repeat past this check
        try:
            patterns = [word(w) for w in self.patterns or ()]
        except ValueError as exc:
            raise UsageError(f"bad pattern: {exc}") from None
        seen: set[Word] = set()
        for w in patterns:
            if not w:
                raise UsageError("pattern must be non-empty")
            if w in seen:
                raise UsageError(f"pattern {cut(format_word(w))} is given more than once")
            seen.add(w)
        every = max(1, self.n // 10) if self.checkpoint_every is None else self.checkpoint_every
        return self._replace(patterns=patterns, checkpoint_every=every)

    def echo(self, *names: str) -> dict:
        """The fields `names`, in that order, for a report header; patterns are shown as words."""
        fields = {**self._asdict(), "patterns": [format_word(w) for w in self.patterns]}
        return {name: fields[name] for name in names}


def _check_report_rows(config: ExperimentConfig, counted: int, keys: int) -> None:
    """Refuse, before any work, a report of more than MAX_REPORT_ROWS rows."""
    rows = -(-counted // config.checkpoint_every) * keys  # checkpoints x keys
    if rows > MAX_REPORT_ROWS:
        raise UsageError(f"the report would have {rows} rows, more than {MAX_REPORT_ROWS}")


def _stat_rows(stats: StreamStats, patterns: list[Word], modes: list[ModeDescriptor]) -> list[dict]:
    """One row per checkpoint, pattern and mode, in that order of nesting."""
    rows = []
    gammas = {w: measure_of_cylinder(w).float for w in patterns}
    for mark, snapshot in stats.checkpoints:
        for w in patterns:
            for mode in modes:
                count = snapshot[(w, mode)]
                freq = mode.frequency(count, len(w), mark)
                rows.append(
                    {
                        "n": mark,
                        "pattern": format_word(w),
                        "mode": mode.name,
                        "count": count,
                        "freq_num": freq.numerator,
                        "freq_den": freq.denominator,
                        "freq_float": float(freq),
                        "gamma_float": gammas[w],
                        "abs_err": abs(float(freq) - gammas[w]),
                    }
                )
    return rows


def run_pillai(config: ExperimentConfig) -> dict:
    """Overlapping vs disjoint block frequencies against the cylinder measures.

    For each pattern the summary reports the three final deviations
    (overlap vs gamma, disjoint vs gamma, overlap vs disjoint); a pattern is
    flagged NON_NORMAL when any of them exceeds the tolerance.  A source
    that ends before it gives as many digits as the longest pattern is
    refused, as no start was counted.
    """
    if not config.patterns:
        raise UsageError("pillai experiment needs at least one pattern")
    longest = max(len(w) for w in config.patterns)
    if config.n < 10 * longest:
        raise UsageError("n must be at least 10x the longest pattern")
    work = config.n * sum(map(len, config.patterns))
    if work > MAX_COUNT_WORK:
        raise UsageError(
            f"counting would take n x the pattern digits = {shown(work, ',')} steps, "
            f"more than the limit of {MAX_COUNT_WORK:,}"
        )
    modes = [ModeDescriptor.overlap(), ModeDescriptor.disjoint()]
    _check_report_rows(config, config.n, len(config.patterns) * len(modes))
    stats = frequency_report(
        parse_source_spec(config.source, seed=config.seed),
        config.patterns,
        modes,
        config.n,
        config.checkpoint_every,
    )
    if stats.n < longest:
        # the run-time twin of n >= 10x the longest pattern: no start to count
        raise UsageError(
            f"the source ended after {stats.n} digits, fewer than the longest pattern's {longest}"
        )
    rows = _stat_rows(stats, config.patterns, modes)
    summary = []
    # the final checkpoint's rows, an (overlap, disjoint) pair per pattern
    final = rows[-len(config.patterns) * len(modes) :]
    for overlap_row, disjoint_row in zip(final[::2], final[1::2]):
        overlap, disjoint = overlap_row["freq_float"], disjoint_row["freq_float"]
        devs = {
            "dev_overlap_gamma": overlap_row["abs_err"],
            "dev_disjoint_gamma": disjoint_row["abs_err"],
            "dev_overlap_disjoint": abs(overlap - disjoint),
        }
        verdict = (
            VERDICT_CONSISTENT
            if max(devs.values()) < config.tolerance
            else VERDICT_NON_NORMAL
        )
        summary.append(
            {
                "pattern": overlap_row["pattern"],
                "gamma_float": overlap_row["gamma_float"],
                "overlap_freq": overlap,
                "disjoint_freq": disjoint,
                **devs,
                "verdict": verdict,
            }
        )
    non_normal = any(row["verdict"] == VERDICT_NON_NORMAL for row in summary)
    return {
        "experiment": "pillai",
        "config": config.echo("source", "n", "patterns", "checkpoint_every", "tolerance", "seed"),
        "n": stats.n,
        "truncated": stats.truncated,
        "rows": rows,
        "summary": summary,
        "verdict": VERDICT_NON_NORMAL if non_normal else VERDICT_CONSISTENT,
    }


def run_subsequence(config: ExperimentConfig) -> dict:
    """Frequency of [1,1] along the AP-selected stream vs the joint measure.

    Selects positions b, b+k, b+2k, ... <= n of the source and compares
    the selected [1,1] frequency against both the bracketed joint
    measure for distance k and gamma(C_[1,1]).  Verdict NON_NORMAL iff the
    frequency sits closer to the joint bracket than to gamma(C_[1,1]).
    source_n counts the digits the source holds among the first n.  A
    source that ends before two digits are selected is refused.
    """
    if config.k < 2 or config.b < 1:
        raise UsageError("need k >= 2 and b >= 1")
    if config.n < config.b + config.k:
        # below b + k fewer than two digits are selected: not one [1,1] start
        raise UsageError(
            f"need n >= b + k, got n={shown(config.n)}, b={shown(config.b)}, k={shown(config.k)}"
        )
    pattern: Word = (1, 1)
    mode = ModeDescriptor.overlap()
    selected_n = (config.n - config.b) // config.k + 1  # positions b + ik <= n
    _check_report_rows(config, selected_n, 1)
    # a bad spec fails first, then a refused k/cap, before any digit is
    # drawn: building the source draws none
    digits = limit(parse_source_spec(config.source, seed=config.seed), config.n)
    check_joint_walk(config.k, config.cap)
    source = select_ap(digits, config.b, config.k)
    stats = frequency_report(
        source,
        [pattern],
        [mode],
        selected_n,
        config.checkpoint_every,
    )
    # the digits the source holds among the first n: those drawn, and any
    # left up to n past the last selected one
    source_n = digits.emitted + sum(map(len, digits.chunks()))
    if stats.n < 2:
        # the run-time twin of n >= b + k: not one [1,1] start
        raise UsageError(
            f"the source ended after {source_n} digits, with {stats.n} selected; need at least 2"
        )
    # the measure runs only once the source has given two selected digits
    joint = joint_pattern_measure(config.k, config.cap)
    rows = _stat_rows(stats, [pattern], [mode])
    freq, gamma_11 = rows[-1]["freq_float"], rows[-1]["gamma_float"]
    bracket_lo, bracket_hi = joint.bracket()
    dist_joint = max(0.0, bracket_lo - freq, freq - bracket_hi)
    dist_gamma = rows[-1]["abs_err"]
    verdict = VERDICT_NON_NORMAL if dist_joint < dist_gamma else VERDICT_CONSISTENT
    return {
        "experiment": "subsequence",
        "config": config.echo("source", "n", "checkpoint_every", "seed", "b", "k", "cap"),
        "source_n": source_n,
        "selected_n": stats.n,
        "truncated": stats.truncated,
        "rows": rows,
        "summary": {
            "pattern": format_word(pattern),
            "selected_freq": freq,
            "joint_bracket": [bracket_lo, bracket_hi],
            "gamma_11_float": gamma_11,
            "dist_to_joint": dist_joint,
            "dist_to_gamma_11": dist_gamma,
            "verdict": verdict,
        },
        "verdict": verdict,
    }
