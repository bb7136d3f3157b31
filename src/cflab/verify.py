"""Exhaustive exact verification suites over bounded word families.

Each suite machine-checks an inequality or identity family that the rest of
the package relies on, over every word within the given digit/length
bounds.  The exact suites pass one row check and the walk it reads to
`_scan`, which walks the family in `iter_words` order a row at a time.  A
row is the words v.b.a of one parent v, for the middle digits b in a range
`mids` and the last digits a in a range `lasts`, and its check takes
(item, |v.b.a| % 2, mids, lasts) and returns the index of the first
failing word, b before a, or None.  The item is the walk's yield for v:
convergent_pair(v) from `iter_prefix_pairs` for dominance, and
(convergent_pair(v), convergent_pair(rev v)) from `_paired_walk` for
reversal and pairwise.  The row builds u = v.b's pair by the append step
and, where it reads it, rev(u) = b.rev(v)'s by the prepend step, so the
walks run one level shallower than the words and a row holds max_digit
times as many.  The length-1 words are the row of the walk's yield at
depth -1, with mids = range(1, 2): each slot's parent, (1, 0, -1, 1), is
the pair that its own walk's step by digit 1 takes to that walk's seed, so
the reversal row reads the two slots' seeds and inverse steps, not one
hand-written pair placed in both.  The scan checks that each slot's
parent steps by digit 1 back to its seed before the row runs, and fails
at the first word if not: two wrong parents can still agree with each
other, as the transpose identity only compares the slots.  A single word
w of length >= 2 is the row of w[:-2] with mids = range(w[-2], w[-2] + 1)
and lasts = range(w[-1], w[-1] + 1).

The reversal row checks the transpose identity: a prepended to rev(u)'s
pair, by the prepend step, equals u.a's pair, by the append step, with p
and q' swapped, four int comparisons a word.  The two pairs come off the
walk's two slots by one step each, so a word fails whenever the append
step, the prepend step or the walk's two slots disagree.
gamma(C_w) = gamma(C_rev w) then follows, as `measure._arg` takes the
same value when p and q' swap, for any integers (ROADMAP direction 2).
For positive b and d, a/b < c/d iff a*d < c*b and a/b == c/d iff
a*d == c*b, so `pairwise_row` decides equality or strict order by
cross-multiplying `_arg` values, exactly; `dominance_row` compares two
denominators read off the same pair.  Each word's pair comes from u's by
one recurrence step, and its neighbours' pairs by the maps of `measure`'s
docstring.  A call costs more than a word's arithmetic, so only
`pairwise_row` calls `_arg`, twice a word, and the steps and pair maps
stay written out in the loops.  So a word costs one recurrence step plus
a few integer products, and a word tuple is built only for the first
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
# words of run_reversal(10**7, 1) take about 1.2 s, and the 1,111,110 words
# of run_reversal(10, 6) about 0.2 s.  At digit 1 each length walks its whole
# path again on longer integers, twice for the reversal and pairwise scans,
# so the work grows like max_len**3: run_reversal(1, 4000) (8,002,000 digits)
# takes about 3.8 s, and 4471, the longest length allowed, about 4.9-5.8 s.
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


def _paired_walk(max_digit: int, depth: int) -> Iterator[tuple[Pair, Pair]]:
    """Yield (convergent_pair(u), convergent_pair(rev u)) for u in `iter_prefix_pairs` order.

    Prepending b to (p, q, p', q') gives (q, b q + p, q', b q' + p'), which
    is the append step on (q, q', p, p') read back in that order.  So a
    second `iter_prefix_pairs` walk from the empty word's pair in that
    order, (1, 0, 0, 1), appends each digit of u where rev(u) prepends it,
    and each of its yields (q, q', p, p') is read back as rev(u)'s pair.
    At depth -1 each walk yields the pair that its own step by digit 1
    takes to its seed: (1, 0, -1, 1) in both slots, the length-1 parent,
    which no hand-written pair stands in for.
    """
    pairs = iter_prefix_pairs(max_digit, depth)
    reversed_pairs = iter_prefix_pairs(max_digit, depth, (1, 0, 0, 1))
    for pair, (q, q_prev, p, p_prev) in zip(pairs, reversed_pairs):
        yield pair, (p, q, p_prev, q_prev)


def _step_by_1(item: Pair | tuple[Pair, Pair]) -> Pair | tuple[Pair, Pair]:
    """The walk item of v.1 from v's: the append step by digit 1 on a pair.

    On a (pair, reversed pair) item of `_paired_walk`, the reversed pair
    takes the prepend step, as rev(v.1) = 1.rev(v).
    """
    if len(item) == 2:
        pair, (t, z, t_prev, z_prev) = item
        return _step_by_1(pair), (z, z + t, z_prev, z_prev + t_prev)
    x, y, x_prev, y_prev = item
    return x + x_prev, y + y_prev, x, y


def _scan(suite: str, max_digit: int, max_len: int, check, walk, first: int = 1) -> VerifyResult:
    """Run the row check over the family and report its first failing word.

    The family is the words of digits <= max_digit and lengths <= max_len
    whose last digit is at least `first`, in iter_words order.  A row is
    the words v.b.a of one parent v, for the middle digits b in `mids` and
    the last digits a in lasts = range(first, max_digit + 1), b before a:
    check(item, |v.b.a| % 2, mids, lasts), with item the yield for v of
    walk(max_digit, |v|), is the index in that order of the first failing
    word, or None.  Each length L walks its parents at depth L - 2, with
    mids = range(1, max_digit + 1) but at L = 1: there the walk at depth -1
    yields the one parent, the pair that the step by digit 1 takes to the
    empty word's, and mids = range(1, 2).  That parent is checked first:
    unless `_step_by_1` takes it to the walk's yield at depth 0, its seed,
    the first word fails, with 1 word checked.  `checked` counts the words
    up to and including the first failure.  A family with no words is a usage
    error, not a vacuous pass.
    """
    detail = f"digits <= {shown(max_digit)}, length <= {shown(max_len)}"
    if first > 1:
        detail += f", last digit >= {first}"
    _refuse_large(suite, max_digit, max_len)
    digits = range(1, max_digit + 1)
    lasts = range(first, max_digit + 1)
    checked = 0
    for length in range(1, max_len + 1) if lasts else ():
        mids = digits if length > 1 else range(1, 2)
        # a length-1 parent that does not step back to the seed gives every
        # length-1 word a wrong pair, the first word first
        if length == 1 and _step_by_1(next(walk(max_digit, -1))) != next(walk(max_digit, 0)):
            return VerifyResult(suite, False, 1, (first,), detail)
        odd = length % 2
        for row, item in enumerate(walk(max_digit, length - 2)):
            failed = check(item, odd, mids, lasts)
            if failed is not None:
                b, a = divmod(failed, len(lasts))
                w = (lasts[a],)
                if length > 1:
                    in_order = itertools.product(digits, repeat=length - 2)
                    w = next(itertools.islice(in_order, row, None)) + (mids[b],) + w
                return VerifyResult(suite, False, checked + failed + 1, w, detail)
            checked += len(mids) * len(lasts)
    if not checked:
        raise UsageError(f"{suite}: no words to check with {detail}")
    return VerifyResult(suite, True, checked, None, detail)


def reversal_row(item: tuple[Pair, Pair], odd: int, mids: range, lasts: range) -> int | None:
    """Index of the first word w = v.b.a of the row that fails the transpose identity, or None.

    item = (convergent_pair(v), convergent_pair(rev v)); `odd` does not
    enter.  With (x, y, x', y') v's pair, u = v.b has the pair
    (p, q, p', q') = (b x + x', b y + y', x, y) by the append step, and
    with (t, z, t', z') rev(v)'s, rev(u) = b.rev(v) has
    (r, s, r', s') = (z, b z + t, z', b z' + t') by the prepend step.  The
    pair of w = u.a is (P, Q, p, q), with P = a p + p' and Q = a q + q', and
    rev(w) = a.rev(u) has (s, a s + r, s', a s' + r').  The identity says
    that it equals (q, Q, p, P), w's pair with P and q swapped: four int
    comparisons a word, and no product past the steps.
    gamma(C_w) = gamma(C_rev w) follows, as `_arg` takes the same value
    when the first and last entries of a pair swap.
    """
    (x, y, x_prev, y_prev), (t, z, t_prev, z_prev) = item
    for b in mids:
        p, q, p_prev, q_prev = b * x + x_prev, b * y + y_prev, x, y
        r, s, r_prev, s_prev = z, b * z + t, z_prev, b * z_prev + t_prev
        for a in lasts:
            if (
                s != q
                or a * s + r != a * q + q_prev
                or s_prev != p
                or a * s_prev + r_prev != a * p + p_prev
            ):
                return mids.index(b) * len(lasts) + lasts.index(a)
    return None


def dominance_row(pair: Pair, odd: int, mids: range, lasts: range) -> int | None:
    """Index of the first word n = v.b.a of the row with q([0;1,1,n]) <= q([0;1,n,1]), or None.

    pair = convergent_pair(v); `odd` does not enter.  u = v.b has the pair
    (p, q, p', q') = (b x + x', b y + y', x, y) by the append step on v's
    pair (x, y, x', y').  With (P, Q, p, q) the pair of n = u.a, prepending
    a 1 maps (P, Q) to (Q, Q + P) and appending one adds (p, q), so
    q([0;1,1,n]) = 2Q + P > Q + P + q + p = q([0;1,n,1]) iff
    Q = a q + q' > q + p, that is iff a q exceeds the constant q + p - q'
    of u.
    """
    x, y, x_prev, y_prev = pair
    for b in mids:
        p, q, q_prev = b * x + x_prev, b * y + y_prev, y
        bound = q + p - q_prev
        for a in lasts:
            if a * q <= bound:
                return mids.index(b) * len(lasts) + lasts.index(a)
    return None


def pairwise_row(item: tuple[Pair, Pair], odd: int, mids: range, lasts: range) -> int | None:
    """Index of the first padding word n = v.b.a of the row failing the pairwise relation, or None.

    The relation: for last digit >= 2, gamma(C_[1,n,1]) > gamma(C_[1,1,n])
    strictly; for last digit 1, with n = m.1, the term pairs off exactly
    against its reversal, gamma(C_[1,m,1,1]) = gamma(C_[1,1,rev(m),1]).
    item = (convergent_pair(v), convergent_pair(rev v)), and
    odd = |n| % 2 is also the parity of 1.n.1, 1.1.n and 1.1.rev(u).1.
    u = v.b has the pair (p, q, p', q') by the append step, as in
    `reversal_row`.  With (P, Q, p, q) the pair of n, that of 1.n is
    (Q, Q + P, q, q + p); the append-1 map gives 1.n.1's,
    (Q + q, Q + P + q + p, Q, Q + P), and the prepend-1 map 1.1.n's,
    (Q + P, 2Q + P, q + p, 2q + p).  At a = 1, rev(u) = b.rev(v) has the
    pair (r, s, r', s') by the prepend step, as in `reversal_row`, which
    gives 1.1.rev(u)'s, (s + r, 2s + r, s' + r', 2s' + r'), by the
    prepend-1 map twice, and the append-1 map then 1.1.rev(u).1's.  That
    arg is read off the walk's second slot, not off 1.u.1.1's pair by a
    swap, so the equality rests on the walk's two slots, the append step
    and the prepend step agreeing; when they do, `_arg`'s p <-> q' symmetry
    makes it hold.  A zero denominator there, which only a wrong reversed
    pair gives, fails the word, as cross-multiplying would take 0/0 as equal
    to any arg.  Each word calls `_arg` twice, which tests patch to make the
    relation fail.
    """
    (x, y, x_prev, y_prev), (t, z, t_prev, z_prev) = item
    for b in mids:
        p, q, p_prev, q_prev = b * x + x_prev, b * y + y_prev, x, y
        qp = q + p
        for a in lasts:
            q_n = a * q + q_prev
            qp_n = q_n + a * p + p_prev
            left_num, left_den = _arg(q_n + q, qp_n + qp, q_n, qp_n, odd)
            if a == 1:
                r, s, r_prev, s_prev = z, b * z + t, z_prev, b * z_prev + t_prev
                sr, sr_prev = s + r, s_prev + r_prev
                rev_num, rev_den = _arg(sr + sr_prev, sr + s + sr_prev + s_prev, sr, sr + s, odd)
                failed = not rev_den or left_num * rev_den != rev_num * left_den
            else:
                right_num, right_den = _arg(qp_n, qp_n + q_n, qp, qp + q, odd)
                failed = left_num * right_den <= right_num * left_den
            if failed:
                return mids.index(b) * len(lasts) + lasts.index(a)
    return None


def run_reversal(max_digit: int = MAX_DIGIT, max_len: int = MAX_LEN) -> VerifyResult:
    """The transpose identity, and so gamma(C_w) == gamma(C_reversed(w)), for every word.

    Each word's pair and its reversal's come off the two slots of
    `_paired_walk`, for its parent, and two append or prepend steps, and
    `reversal_row` checks that they agree; gamma equality then follows from
    `_arg`'s p <-> q' symmetry.
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
