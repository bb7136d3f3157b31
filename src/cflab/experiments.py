"""Experiment orchestration: block-frequency runs and AP-subsequence runs.

Both experiments take a fully explicit config and return a plain report
dict; every semantic parameter is echoed into the report header so a rerun
of the same config yields byte-identical output.  `jobs` is accepted for
compatibility and read by nothing: counting is one sequential fold.  It
stays out of the echo, since it cannot change any reported number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cfcore import Word, format_word
from .measure import joint_pattern_measure, measure_of_cylinder
from .stats import ModeDescriptor, StreamStats, frequency_report, select_ap
from .streams import limit, parse_source_spec

DEFAULT_TOLERANCE = 0.005
DEFAULT_CAP = 1000
VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_NON_NORMAL = "NON_NORMAL"


@dataclass
class ExperimentConfig:
    source: str
    n: int
    patterns: list[Word] = field(default_factory=list)
    b: int = 1
    k: int = 2
    cap: int = DEFAULT_CAP
    seed: int | None = None
    checkpoint_every: int | None = None
    tolerance: float = DEFAULT_TOLERANCE
    jobs: int = 1  # accepted, never read

    def __post_init__(self) -> None:
        # a NaN or non-positive tolerance would flag every pattern whatever the data
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")

    def echo(self, *, with_ap: bool) -> dict:
        """Semantic parameters only; the job count is excluded."""
        base = {
            "source": self.source,
            "n": self.n,
            "patterns": [format_word(w) for w in self.patterns],
            "checkpoint_every": self.effective_checkpoint(),
            "tolerance": self.tolerance,
            "seed": self.seed,
        }
        if with_ap:
            base.update({"b": self.b, "k": self.k, "cap": self.cap})
        return base

    def effective_checkpoint(self) -> int:
        if self.checkpoint_every is not None:
            return self.checkpoint_every
        return max(1, self.n // 10)

    def build_source(self):
        return parse_source_spec(self.source, seed=self.seed)


def _stat_rows(stats: StreamStats, patterns: list[Word], modes: list[ModeDescriptor]) -> list[dict]:
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
    flagged NON_NORMAL when any of them exceeds the tolerance.
    """
    if not config.patterns:
        raise ValueError("pillai experiment needs at least one pattern")
    if config.n < 10 * max(len(w) for w in config.patterns):
        raise ValueError("n must be at least 10x the longest pattern")
    modes = [ModeDescriptor.overlap(), ModeDescriptor.disjoint()]
    stats = frequency_report(
        config.build_source(),
        config.patterns,
        modes,
        config.n,
        config.effective_checkpoint(),
    )
    rows = _stat_rows(stats, config.patterns, modes)
    summary = []
    worst = VERDICT_CONSISTENT
    for w in config.patterns:
        gamma = measure_of_cylinder(w).float
        overlap = float(stats.frequency(w, modes[0]))
        disjoint = float(stats.frequency(w, modes[1]))
        devs = {
            "dev_overlap_gamma": abs(overlap - gamma),
            "dev_disjoint_gamma": abs(disjoint - gamma),
            "dev_overlap_disjoint": abs(overlap - disjoint),
        }
        verdict = (
            VERDICT_CONSISTENT
            if max(devs.values()) < config.tolerance
            else VERDICT_NON_NORMAL
        )
        if verdict == VERDICT_NON_NORMAL:
            worst = VERDICT_NON_NORMAL
        summary.append(
            {
                "pattern": format_word(w),
                "gamma_float": gamma,
                "overlap_freq": overlap,
                "disjoint_freq": disjoint,
                **devs,
                "verdict": verdict,
            }
        )
    return {
        "experiment": "pillai",
        "config": config.echo(with_ap=False),
        "n": stats.n,
        "truncated": stats.truncated,
        "rows": rows,
        "summary": summary,
        "verdict": worst,
    }


def run_subsequence(config: ExperimentConfig) -> dict:
    """Frequency of [1,1] along the AP-selected stream vs the joint measure.

    Consumes n source digits, selects positions b, b+k, b+2k, ..., and
    compares the selected [1,1] frequency against both the bracketed joint
    measure for distance k and gamma(C_[1,1]).  Verdict NON_NORMAL iff the
    frequency sits closer to the joint bracket than to gamma(C_[1,1]).
    """
    if config.k < 2 or config.b < 1:
        raise ValueError("need k >= 2 and b >= 1")
    if config.n < config.b + config.k:
        # below b + k fewer than two digits are selected: not one [1,1] start
        raise ValueError(f"need n >= b + k, got n={config.n}, b={config.b}, k={config.k}")
    pattern: Word = (1, 1)
    mode = ModeDescriptor.overlap()
    # first, so a refused k/cap fails before any digit is drawn
    joint = joint_pattern_measure(config.k, config.cap)
    selected = select_ap(limit(config.build_source(), config.n), config.b, config.k)
    stats = frequency_report(
        selected,
        [pattern],
        [mode],
        (config.n - config.b) // config.k + 1,
        config.effective_checkpoint(),
    )
    freq = float(stats.frequency(pattern, mode))
    bracket_lo, bracket_hi = joint.bracket()
    gamma_11 = measure_of_cylinder(pattern).float
    dist_joint = max(0.0, bracket_lo - freq, freq - bracket_hi)
    dist_gamma = abs(freq - gamma_11)
    verdict = VERDICT_NON_NORMAL if dist_joint < dist_gamma else VERDICT_CONSISTENT
    rows = _stat_rows(stats, [pattern], [mode])
    return {
        "experiment": "subsequence",
        "config": config.echo(with_ap=True),
        "source_n": config.n,
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
