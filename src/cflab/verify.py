"""Exhaustive exact verification suites over bounded word families.

Each suite machine-checks an inequality or identity family that the rest of
the package relies on, over every word within the given digit/length
bounds.  The exact suites pass one row check and the walk it reads to
`_scan`, which walks the family in `iter_words` order a row at a time.  A
row is the words u.a of one prefix u, for the last digits a in a range
`lasts`, and its check takes (item, |u.a| % 2, lasts) and returns the index
in `lasts` of the first failing word, or None.  The item is the walk's
yield for u: convergent_pair(u) from `iter_prefix_pairs` for dominance,
and (convergent_pair(u), convergent_pair(rev u)) from `_paired_walk` for
reversal and pairwise.  A single word w is the row of w[:-1] with
lasts = range(w[-1], w[-1] + 1).

The reversal row checks the transpose identity: a prepended to rev(u)'s
pair, by the prepend step, equals u.a's pair, by the append step, with p
and q' swapped.  The two pairs come off two slots of the walk, so a word
fails whenever the append step, the prepend step or the walk's two slots
disagree.  gamma(C_w) = gamma(C_rev w) then follows, as `measure._arg`
takes the same value when p and q' swap, for any integers (ROADMAP
direction 2).  For positive b and d, a/b < c/d iff a*d < c*b and
a/b == c/d iff a*d == c*b, so `pairwise_row` decides equality or strict
order by cross-multiplying `_arg` values, exactly; `dominance_row`
compares two denominators read off the same pair.  Each word's pair comes
from u's by one recurrence step, and its neighbours' pairs by the maps of
`measure`'s docstring.  A call costs more than a word's arithmetic, so
only `pairwise_row` calls `_arg`, twice a word, and the pair maps stay
written out in the loops.  So a word costs one recurrence step plus a few
integer products, and a word tuple is built only for the first
counterexample; none is ever expected.
`test_rows_match_their_reference_on_any_pair` pins each row to a copy that
builds every pair and arg by a call, on any positive pairs.

Bounds whose family holds more than MAX_WORD_DIGITS digits in all are
refused before the scan; every word has a digit, so that also bounds the
words.  `SUITES` maps each suite name to its runner and the options that
runner reads, `run_suite` refuses any other option, and every result
renders its own summary line and `--out` report, so the CLI holds no
per-suite schema and no default.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .cfcore import Pair, UsageError, Word, format_word, iter_prefix_pairs, shown
from .measure import DEFAULT_CAP, BoundedMeasure, _arg, joint_pattern_measure, measure_of_cylinder

# The word family a scan checks unless given bounds: 5 + 5**2 + 5**3 = 155 words.
MAX_DIGIT = 5
MAX_LEN = 3
# Most digits a scan's family may hold, the sum of L * max_digit**L, so at
# most as many words.  On a 2-vCPU host with Python 3.11, the 10**7 one-digit
# words of run_reversal(10**7, 1) take about 2 s, and the 1,111,110 words of
# run_reversal(10, 6) about 0.35 s.  At digit 1 each length walks its whole
# path again on longer integers, twice for the reversal and pairwise scans,
# so the work grows like max_len**3: run_reversal(1, 4000) (8,002,000 digits)
# takes about 4 s, and 4471, the longest length allowed, about 5.2-6.5 s.
# The bench's 8/6 family holds 1,754,760.
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


# convergent_pair of the empty word, (0, 1, 1, 0), in the order (q, q', p, p')
_REVERSED_SEED = (1, 0, 0, 1)


def _paired_walk(max_digit: int, depth: int) -> Iterator[tuple[Pair, Pair]]:
    """Yield (convergent_pair(u), convergent_pair(rev u)) for u in `iter_prefix_pairs` order.

    Prepending b to (p, q, p', q') gives (q, b q + p, q', b q' + p'), which
    is the append step on (q, q', p, p') read back in that order.  So a
    second `iter_prefix_pairs` walk from the empty word's pair in that
    order, _REVERSED_SEED, appends each digit of u where rev(u) prepends
    it, and each of its yields (q, q', p, p') is read back as rev(u)'s pair.
    """
    reversed_pairs = iter_prefix_pairs(max_digit, depth, _REVERSED_SEED)
    for pair, (q, q_prev, p, p_prev) in zip(iter_prefix_pairs(max_digit, depth), reversed_pairs):
        yield pair, (p, q, p_prev, q_prev)


def _scan(suite: str, max_digit: int, max_len: int, check, walk, first: int = 1) -> VerifyResult:
    """Run the row check over the family and report its first failing word.

    The family is the words of digits <= max_digit and lengths <= max_len
    whose last digit is at least `first`, in iter_words order.  Each prefix
    u is a row: check(item, |u.a| % 2, lasts), with item the yield for u of
    walk(max_digit, |u|), is the index in lasts = range(first, max_digit + 1)
    of the first failing word u.a, or None.  `checked` counts the words up
    to and including the first failure.  A family with no words is a usage
    error, not a vacuous pass.
    """
    detail = f"digits <= {shown(max_digit)}, length <= {shown(max_len)}"
    if first > 1:
        detail += f", last digit >= {first}"
    _refuse_large(suite, max_digit, max_len)
    lasts = range(first, max_digit + 1)
    checked = 0
    for length in range(1, max_len + 1) if lasts else ():
        odd = length % 2
        for row, item in enumerate(walk(max_digit, length - 1)):
            failed = check(item, odd, lasts)
            if failed is not None:
                prefixes = itertools.product(range(1, max_digit + 1), repeat=length - 1)
                w = next(itertools.islice(prefixes, row, None)) + (lasts[failed],)
                return VerifyResult(suite, False, checked + failed + 1, w, detail)
            checked += len(lasts)
    if not checked:
        raise UsageError(f"{suite}: no words to check with {detail}")
    return VerifyResult(suite, True, checked, None, detail)


def reversal_row(item: tuple[Pair, Pair], odd: int, lasts: range) -> int | None:
    """Index in `lasts` of the first a whose word w = u.a fails the transpose identity, or None.

    item = (convergent_pair(u), convergent_pair(rev u)); `odd` does not
    enter.  The pair of w is (P, Q, p, q), with P = a p + p' and
    Q = a q + q' by the append step, and rev(w) = a.rev(u), whose pair is
    (s, a s + r, s', a s' + r') by the prepend step on rev(u)'s pair
    (r, s, r', s').  The identity says that it equals (q, Q, p, P), w's pair
    with P and q swapped: one tuple comparison a word, and no product past
    the two steps.  gamma(C_w) = gamma(C_rev w) follows, as `_arg` takes
    the same value when the first and last entries of a pair swap.
    """
    (p, q, p_prev, q_prev), (r, s, r_prev, s_prev) = item
    for a in lasts:
        if (s, a * s + r, s_prev, a * s_prev + r_prev) != (q, a * q + q_prev, p, a * p + p_prev):
            return lasts.index(a)
    return None


def dominance_row(pair: Pair, odd: int, lasts: range) -> int | None:
    """Index in `lasts` of the first a with q([0;1,1,u,a]) <= q([0;1,u,a,1]), or None.

    pair = convergent_pair(u); `odd` does not enter.  With (P, Q, p, q) the
    pair of n = u.a, prepending a 1 maps (P, Q) to (Q, Q + P) and appending
    one adds (p, q), so q([0;1,1,n]) = 2Q + P > Q + P + q + p = q([0;1,n,1])
    iff Q = a q + q' > q + p, that is iff a q exceeds the row constant
    q + p - q'.
    """
    p, q, p_prev, q_prev = pair
    bound = q + p - q_prev
    for a in lasts:
        if a * q <= bound:
            return lasts.index(a)
    return None


def pairwise_row(item: tuple[Pair, Pair], odd: int, lasts: range) -> int | None:
    """Index in `lasts` of the first padding word n = u.a failing the pairwise relation, or None.

    The relation: for last digit >= 2, gamma(C_[1,n,1]) > gamma(C_[1,1,n])
    strictly; for last digit 1, with n = m.1, the term pairs off exactly
    against its reversal, gamma(C_[1,m,1,1]) = gamma(C_[1,1,rev(m),1]).
    item = (convergent_pair(u), convergent_pair(rev u)), and
    odd = |n| % 2 is also the parity of 1.n.1, 1.1.n and 1.1.rev(u).1.
    With (P, Q, p, q) the pair of n, that of 1.n is (Q, Q + P, q, q + p);
    the append-1 map gives 1.n.1's, (Q + q, Q + P + q + p, Q, Q + P), and
    the prepend-1 map 1.1.n's, (Q + P, 2Q + P, q + p, 2q + p).  At a = 1,
    rev(u)'s pair (r, s, r', s') gives 1.1.rev(u)'s,
    (s + r, 2s + r, s' + r', 2s' + r'), by the prepend-1 map twice, and the
    append-1 map then 1.1.rev(u).1's.  That arg is read off the walk's
    second slot, not off 1.u.1.1's pair by a swap, so the equality rests on
    the walk's two slots, the append step and the prepend step agreeing;
    when they do, `_arg`'s p <-> q' symmetry makes it hold.  Each word calls
    `_arg` twice, which tests patch to make the relation fail.
    """
    (p, q, p_prev, q_prev), (r, s, r_prev, s_prev) = item
    qp = q + p
    for a in lasts:
        q_n = a * q + q_prev
        qp_n = q_n + a * p + p_prev
        left_num, left_den = _arg(q_n + q, qp_n + qp, q_n, qp_n, odd)
        if a == 1:
            sr, sr_prev = s + r, s_prev + r_prev
            rev_num, rev_den = _arg(sr + sr_prev, sr + s + sr_prev + s_prev, sr, sr + s, odd)
            failed = left_num * rev_den != rev_num * left_den
        else:
            right_num, right_den = _arg(qp_n, qp_n + q_n, qp, qp + q, odd)
            failed = left_num * right_den <= right_num * left_den
        if failed:
            return lasts.index(a)
    return None


def run_reversal(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """The transpose identity, and so gamma(C_w) == gamma(C_reversed(w)), for every word.

    Each word's pair and its reversal's come off the two slots of
    `_paired_walk` and one append or prepend step, and `reversal_row` checks
    that they agree; gamma equality then follows from `_arg`'s p <-> q'
    symmetry.
    """
    return _scan("reversal", max_digit, max_len, reversal_row, _paired_walk)


def run_dominance(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """Denominator dominance for every word with last digit >= 2."""
    return _scan("dominance", max_digit, max_len, dominance_row, iter_prefix_pairs, first=2)


def run_pairwise(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """The pairwise relation of C_[1,n,1] and C_[1,1,n] for every padding word n."""
    return _scan("pairwise", max_digit, max_len, pairwise_row, _paired_walk)


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
        """The `--out` report: the args of lower and of upper/lower by str, dyadics of ~128 bits."""
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
