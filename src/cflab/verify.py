"""Exhaustive exact verification suites over bounded word families.

Each suite machine-checks an inequality or identity family that the rest of
the package relies on, over every word within the given digit/length
bounds.  The exact suites pass one row check to `_scan`, which walks the
family in `iter_words` order a row at a time: the words u.a of one prefix
u, whose pair comes from `iter_prefix_pairs`.  So a word costs one
recurrence step plus a few integer products, written out in the row
check with no call except a pairwise word's two `_arg` calls (see
`measure`), and a word tuple is built only for the first counterexample;
none is ever expected.  Bounds whose family holds more than
MAX_WORD_DIGITS digits in all are refused before the scan; every word
has a digit, so that also bounds the words.
`SUITES` maps each suite name to its runner and the options that runner
reads, `run_suite` refuses any other option, and every result renders its
own summary line and `--out` report, so the CLI holds no per-suite schema
and no default.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .cfcore import UsageError, Word, format_word, iter_prefix_pairs, shown
from .measure import (
    DEFAULT_CAP,
    BoundedMeasure,
    dominance_row,
    joint_pattern_measure,
    measure_of_cylinder,
    pairwise_row,
    reversal_row,
)

# The word family a scan checks unless given bounds: 5 + 5**2 + 5**3 = 155 words.
MAX_DIGIT = 5
MAX_LEN = 3
# Most digits a scan's family may hold, the sum of L * max_digit**L, so at
# most as many words: 10**7 reversal words take about 20 s (2 vCPU, Python
# 3.11).  At digit 1 each length walks its whole path again on longer
# integers, so the work grows like max_len**3, and length <= 4000 (8,002,000
# digits) takes about 4 s.  The bench's 8/6 family holds 1,754,760.
MAX_WORD_DIGITS = 10**7


class VerifyResult(NamedTuple):
    suite: str
    passed: bool
    checked: int
    counterexample: Word | None
    detail: str

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.suite}: {status} ({self.checked} cases checked; {self.detail})"
        if self.counterexample is not None:
            line += f"; counterexample {format_word(self.counterexample)}"
        return line

    def report(self) -> dict:
        w = self.counterexample
        return {**self._asdict(), "counterexample": None if w is None else format_word(w)}


def _refuse_large(suite: str, max_digit: int, max_len: int) -> None:
    """Refuse bounds whose family, max_digit**L words of each length L <= max_len, is too big."""
    if max_digit < 2:
        words = max(0, max_len) if max_digit == 1 else 0  # one word of each length, or none
        digits = words * (words + 1) // 2
    else:
        # 64 terms pass 10**18 at any digit >= 2, so a huge max_len costs nothing
        digits = sum(length * max_digit**length for length in range(1, min(max_len, 64) + 1))
    if digits > MAX_WORD_DIGITS:
        raise UsageError(
            f"{suite}: digits <= {shown(max_digit)}, length <= {shown(max_len)} give words of "
            f"{shown(digits, ',')} digits in all; a scan checks at most {MAX_WORD_DIGITS:,}"
        )


def _scan(suite: str, max_digit: int, max_len: int, check, first: int = 1) -> VerifyResult:
    """Run the row check over the family and report its first failing word.

    The family is the words of digits <= max_digit and lengths <= max_len
    whose last digit is at least `first`, in iter_words order.  Each prefix
    u is a row: check(convergent_pair(u), |u.a| % 2, lasts) is the index in
    lasts = range(first, max_digit + 1) of the first failing word u.a, or
    None.  `checked` counts the words up to and including the first
    failure.  A family with no words is a usage error, not a vacuous pass.
    """
    detail = f"digits <= {shown(max_digit)}, length <= {shown(max_len)}"
    if first > 1:
        detail += f", last digit >= {first}"
    _refuse_large(suite, max_digit, max_len)
    lasts = range(first, max_digit + 1)
    checked = 0
    for length in range(1, max_len + 1) if lasts else ():
        odd = length % 2
        for row, pair in enumerate(iter_prefix_pairs(max_digit, length - 1)):
            failed = check(pair, odd, lasts)
            if failed is not None:
                prefixes = itertools.product(range(1, max_digit + 1), repeat=length - 1)
                w = next(itertools.islice(prefixes, row, None)) + (lasts[failed],)
                return VerifyResult(suite, False, checked + failed + 1, w, detail)
            checked += len(lasts)
    if not checked:
        raise UsageError(f"{suite}: no words to check with {detail}")
    return VerifyResult(suite, True, checked, None, detail)


def run_reversal(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """gamma(C_w) == gamma(C_reversed(w)) for every word in the family."""
    return _scan("reversal", max_digit, max_len, reversal_row)


def run_dominance(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """Denominator dominance for every word with last digit >= 2."""
    return _scan("dominance", max_digit, max_len, dominance_row, first=2)


def run_pairwise(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """The pairwise relation of C_[1,n,1] and C_[1,1,n] for every padding word n."""
    return _scan("pairwise", max_digit, max_len, pairwise_row)


def joint_k2_oracle() -> float:
    """Closed form for the k=2 joint measure.

    The term for middle digit n has arg (2n+3)^2/((2n+3)^2 - 1); the full
    product telescopes against the Wallis product to 32/(9*pi).
    """
    return math.log2(32 / (9 * math.pi))


_GAMMA_11 = measure_of_cylinder((1, 1))


class JointK2Result(NamedTuple):
    """The k=2 joint measure bracketed at `cap`; the verdict and its line derive from it."""

    cap: int
    measure: BoundedMeasure

    @property
    def exceeds_gamma_11(self) -> bool:
        return self.measure.lower > _GAMMA_11

    @property
    def passed(self) -> bool:
        """The bracket holds the oracle value, and the exact lower bound exceeds gamma(C_[1,1])."""
        return self.measure.contains(joint_k2_oracle()) and self.exceeds_gamma_11

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lo, hi = self.measure.bracket()
        lower, tail = self.measure.lower.float, self.measure.tail_bound.float
        return (
            f"joint-k2: {status} (cap {self.cap}; bracket [{lo:.4f}, {hi:.4f}] "
            f"vs oracle {joint_k2_oracle():.5f}; gamma(C_11) = {_GAMMA_11.float:.4f}; "
            f"lower {lower:.6f}, tail {tail:.6f}, exceeds gamma(C_11): {self.exceeds_gamma_11})"
        )

    def report(self) -> dict:
        """The `--out` report: each end's arg by str, as both are dyadics of about 128 bits."""
        lo, hi = self.measure.bracket()
        return {
            "suite": "joint-k2",
            "cap": self.cap,
            "oracle": joint_k2_oracle(),
            "gamma_11_float": _GAMMA_11.float,
            "passed": self.passed,
            "log2_arg": str(self.measure.lower.arg),
            "float": round(self.measure.lower.float, 6),
            "tail_log2_arg": str(self.measure.tail_bound.arg),
            "bracket": [lo, hi],
        }


def run_joint_k2(cap: int = DEFAULT_CAP) -> JointK2Result:
    """Bracket the k=2 joint measure and check it against the closed form (see JointK2Result)."""
    return JointK2Result(cap, joint_pattern_measure(2, cap))


# Each suite's runner and the keyword options it reads, by suite name.
_BOUNDS = ("max_digit", "max_len")
SUITES = {
    "reversal": (run_reversal, _BOUNDS),
    "dominance": (run_dominance, _BOUNDS),
    "pairwise": (run_pairwise, _BOUNDS),
    "joint-k2": (run_joint_k2, ("cap",)),
}


def run_suite(name: str, **options: int) -> VerifyResult | JointK2Result:
    """Run suite `name` with the options given; any it does not read is a usage error.

    An option left out takes the runner's default.
    """
    run, reads = SUITES[name]
    stray = [f"--{key.replace('_', '-')}" for key in options if key not in reads]
    if stray:
        raise UsageError(f"verify {name} does not read {', '.join(stray)}")
    return run(**options)
