"""Exhaustive exact verification suites over bounded word families.

Each suite machine-checks an inequality or identity family that the rest of
the package relies on, over every word within the given digit/length
bounds.  The exact suites pass one plain check over (word, convergent
pair) to `_scan`, which walks `iter_word_pairs` in `iter_words` order, so
each word costs one recurrence step plus the integer kernel, and reports
the first counterexample with the offending word; none is ever expected.
Bounds whose family holds more than MAX_WORDS words are refused before
the scan.
`SUITES` maps each suite name to its runner and the options that runner
reads, `run_suite` refuses any other option, and every result renders its
own summary line and `--out` report, so the CLI holds no per-suite schema
and no default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cfcore import UsageError, Word, dominance_holds, format_word, iter_word_pairs
from .measure import (
    DEFAULT_CAP,
    BoundedMeasure,
    joint_pattern_measure,
    measure_of_cylinder,
    pairwise_holds,
    reversal_holds,
)
from .reports import bounded_measure_report

# The word family a scan checks unless given bounds: 5 + 5**2 + 5**3 = 155 words.
MAX_DIGIT = 5
MAX_LEN = 3
# Most words a scan is given.  The bench's largest family, digits <= 8 and
# length <= 6, holds 299,592; 10**7 reversal words take about 20 s (2 vCPU,
# Python 3.11).
MAX_WORDS = 10**7


@dataclass(frozen=True)
class VerifyResult:
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
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checked": self.checked,
            "counterexample": (
                None if self.counterexample is None else format_word(self.counterexample)
            ),
            "detail": self.detail,
        }


def _scan(suite: str, pairs, check, detail: str) -> VerifyResult:
    """Run `check(w, pair)` over (word, pair) items lazily and report the first failing word.

    The scan stops at the first failure in enumeration order, and `checked`
    counts the words examined up to and including it.  A family with no
    words is a usage error, not a vacuous pass.
    """
    checked = 0
    for w, pair in pairs:
        checked += 1
        if not check(w, pair):
            return VerifyResult(suite, False, checked, w, detail)
    if not checked:
        raise UsageError(f"{suite}: no words to check with {detail}")
    return VerifyResult(suite, True, checked, None, detail)


def _shown(n: int, spec: str = "") -> str:
    """n formatted by spec, or "over 10**18" past that, so a message stays one short line."""
    return format(n, spec) if n <= 10**18 else "over 10**18"


def _family(suite: str, max_digit: int, max_len: int, last: range | None = None):
    """iter_word_pairs over the bounds, refused if they hold more than MAX_WORDS words.

    The bounds hold the sum over 1 <= L <= max_len of max_digit**L words.
    """
    if max_digit < 2:
        size = max(0, max_digit) * max(0, max_len)  # one word of each length, or none
    else:
        # 64 terms pass 10**18 at any digit >= 2, so a huge max_len costs nothing
        size = sum(max_digit**length for length in range(1, min(max_len, 64) + 1))
    if size > MAX_WORDS:
        raise UsageError(
            f"{suite}: digits <= {_shown(max_digit)}, length <= {_shown(max_len)} "
            f"give {_shown(size, ',')} words; a scan checks at most {MAX_WORDS:,}"
        )
    return iter_word_pairs(max_digit, max_len, last=last)


def run_reversal(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """gamma(C_w) == gamma(C_reversed(w)) for every word in the family."""
    return _scan(
        "reversal",
        _family("reversal", max_digit, max_len),
        reversal_holds,
        f"digits <= {max_digit}, length <= {max_len}",
    )


def run_dominance(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """Denominator dominance for every word with last digit >= 2."""
    return _scan(
        "dominance",
        _family("dominance", max_digit, max_len, last=range(2, max_digit + 1)),
        dominance_holds,
        f"digits <= {max_digit}, length <= {max_len}, last digit >= 2",
    )


def run_pairwise(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """The pairwise relation of C_[1,n,1] and C_[1,1,n] for every padding word n."""
    return _scan(
        "pairwise",
        _family("pairwise", max_digit, max_len),
        pairwise_holds,
        f"digits <= {max_digit}, length <= {max_len}",
    )


def joint_k2_oracle() -> float:
    """Closed form for the k=2 joint measure.

    The term for middle digit n has arg (2n+3)^2/((2n+3)^2 - 1); the full
    product telescopes against the Wallis product to 32/(9*pi).
    """
    return math.log2(32 / (9 * math.pi))


@dataclass(frozen=True)
class JointK2Result:
    passed: bool
    cap: int
    measure: BoundedMeasure
    oracle: float
    gamma_11_float: float
    exceeds_gamma_11: bool
    detail: str

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lo, hi = self.measure.bracket()
        return (
            f"joint-k2: {status} (cap {self.cap}; bracket [{lo:.4f}, {hi:.4f}] "
            f"vs oracle {self.oracle:.5f}; gamma(C_11) = {self.gamma_11_float:.4f}; "
            f"{self.detail})"
        )

    def report(self) -> dict:
        return bounded_measure_report(
            self.measure,
            suite="joint-k2",
            cap=self.cap,
            oracle=self.oracle,
            gamma_11_float=self.gamma_11_float,
            passed=self.passed,
        )


def run_joint_k2(cap: int = DEFAULT_CAP) -> JointK2Result:
    """Bracket the k=2 joint measure and check it against the closed form.

    Passes iff the bracket contains the oracle value and the exact lower
    bound already exceeds gamma(C_[1,1]) by rational comparison.
    """
    bm = joint_pattern_measure(2, cap)
    oracle = joint_k2_oracle()
    gamma_11 = measure_of_cylinder((1, 1))
    exceeds = bm.lower > gamma_11
    detail = (
        f"lower {bm.lower.float:.6f}, tail {bm.tail_bound.float:.6f}, "
        f"exceeds gamma(C_11): {exceeds}"
    )
    return JointK2Result(
        passed=bm.contains(oracle) and exceeds,
        cap=cap,
        measure=bm,
        oracle=oracle,
        gamma_11_float=gamma_11.float,
        exceeds_gamma_11=exceeds,
        detail=detail,
    )


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
