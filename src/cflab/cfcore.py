"""Exact continued-fraction words and text, the convergent recurrence, cylinder intervals, walks.

A word is a finite tuple of partial quotients (a1, ..., an), every digit >= 1,
standing for the continued fraction [0; a1, ..., an] in (0, 1]; the empty
word seeds the recurrence, and its cylinder is all of (0, 1).  The walks,
`iter_words` and `iter_prefix_pairs`, enumerate a bounded family of words
and their convergent pairs.  All arithmetic is over exact rationals;
nothing here touches floating point.  Every function is pure, so concurrent
use needs no locking.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

Word = tuple[int, ...]
# (p_n, q_n, p_{n-1}, q_{n-1}) of a word, as convergent_pair returns it
Pair = tuple[int, int, int, int]


class UsageError(ValueError):
    """Input that a command does not accept; the CLI reports it and exits 2.

    Raised where input from outside the package is checked: argv and config
    values, word and rational text, source specs, experiment configs, and
    joint-measure and scan bounds.  Any other ValueError is a fault of the
    program.
    """


class CylinderInterval(NamedTuple):
    """Open interval of reals whose expansion starts with a word a1..an.

    Endpoints are [0; a1..an] and [0; a1..an+1]; which one is the word's own
    value depends on the parity of the word length (odd length puts the
    word's value at the top).  hi - lo = 1/(q_n * (q_n + q_{n-1})).
    """

    lo: Fraction
    hi: Fraction


def word(digits: Iterable[int]) -> Word:
    """Validate and freeze a digit sequence into a Word; a bool is not a digit."""
    w = tuple(digits)
    for d in w:
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ValueError(f"partial quotients must be integers >= 1, got {d!r}")
    return w


def cut(text: str) -> str:
    """text cut after 40 characters, so a message stays short."""
    return text if len(text) <= 40 else text[:40] + "..."


def quote(text: str) -> str:
    """text in quotes for a message, cut after 40 characters."""
    return repr(cut(text))


def shown(n: int, spec: str = "") -> str:
    """n formatted by spec, or "over 10**18" or "under -10**18", so a message stays short."""
    return format(n, spec) if abs(n) <= 10**18 else ("over " if n > 0 else "under -") + "10**18"


def bad_text(kind: str, text: str, need: str = "") -> UsageError:
    """The error for `kind` text that does not parse, in one short line.

    The text is quoted by `quote`.  A run of digits longer than Python
    parses into an int (sys.get_int_max_str_digits, absent before 3.11) is
    named with that cap; otherwise `need` says what the text should be.
    """
    most = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    run = max(map(len, re.findall(r"\d+", text)), default=0)
    if most and run > most:
        return UsageError(
            f"{kind} text {quote(text)} has {run} digits in a row; at most {most} are allowed"
        )
    return UsageError(f"bad {kind} text {quote(text)}" + (f": {need}" if need else ""))


def parse_word(text: str, allow_empty: bool = False) -> Word:
    """Parse the comma-separated text form, e.g. '1,2,3'."""
    text = text.strip()
    if not text:
        if allow_empty:
            return ()
        raise UsageError("empty word")
    try:
        return word(int(part) for part in text.split(","))
    except ValueError:
        raise bad_text("word", text, "need integers >= 1, comma-separated") from None


def format_word(w: Word) -> str:
    return ",".join(str(d) for d in w)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' in lowest terms (plain integers are also accepted)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise bad_text("rational", text, "need p/q with q nonzero") from None


def reverse(w: Word) -> Word:
    return w[::-1]


def cf_of_rational(num: int, den: int) -> Word:
    """Expand num/den with 0 < num < den into its canonical word.

    Euclidean expansion; canonical means the last digit is >= 2 (the
    [..,a,1] == [..,a+1] ambiguity is resolved toward the shorter form),
    which the remainder recursion yields automatically.
    """
    if num <= 0 or den <= 0:
        raise ValueError(f"need positive numerator and denominator, got {shown(num)}/{shown(den)}")
    if num >= den:
        raise ValueError(f"need num < den for a value in (0,1), got {shown(num)}/{shown(den)}")
    digits = []
    a, b = den, num
    while b:
        digits.append(a // b)
        a, b = b, a % b
    return tuple(digits)


# convergent_pair of the empty word: p_0 = 0, q_0 = 1, p_{-1} = 1, q_{-1} = 0.
_EMPTY_PAIR = (0, 1, 1, 0)


def _extend(pair: Pair, digits: Iterable[int]) -> Pair:
    """Run the convergent recurrence from `pair` over `digits`."""
    p, q, p_prev, q_prev = pair
    for a in digits:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
    return p, q, p_prev, q_prev


def convergent_pair(w: Word) -> Pair:
    """(p_n, q_n, p_{n-1}, q_{n-1}) of [0; w] by the convergent recurrence.

    Seeds p_0 = 0, q_0 = 1, p_{-1} = 1, q_{-1} = 0, the pair of the empty
    word; then p_i = a_i p_{i-1} + p_{i-2}, and likewise for q.  This is the
    package's one recurrence: cylinder endpoints, cylinder measures and
    `iter_prefix_pairs` all read it.

    p_n/q_n is the word's value.  Raising the last digit by one gives
    (p_n + p_{n-1})/(q_n + q_{n-1}), the cylinder's other endpoint.  Each
    pair is coprime (p_n q_{n-1} - p_{n-1} q_n = +-1), so q_n is the reduced
    denominator of the value.

    The continuant matrix [[q_n, q_{n-1}], [p_n, p_{n-1}]] multiplies under
    concatenation, so a word's neighbours have pairs read off its own:
    reversing it swaps p_n and q_{n-1}, prepending a digit 1 maps
    (p, q, p', q') to (q, q + p, q', q' + p'), and appending a 1 maps it to
    (p + p', q + q', p, q).

    w is checked by `word`, so the cylinder functions refuse what it
    refuses; `iter_prefix_pairs` builds its words itself and skips the check.
    """
    return _extend(_EMPTY_PAIR, word(w))


def cylinder_interval(w: Word) -> CylinderInterval:
    """Exact endpoints of the cylinder of reals starting with w, in order of value."""
    p, q, p_prev, q_prev = convergent_pair(w)
    return CylinderInterval(*sorted((Fraction(p, q), Fraction(p + p_prev, q + q_prev))))


def iter_words(max_digit: int, max_len: int) -> Iterator[Word]:
    """Enumerate all words with digits in 1..max_digit and lengths 1..max_len.

    Order is by length, then lexicographic, so a verification scan always
    reports the same first counterexample.
    """
    for length in range(1, max_len + 1):
        yield from itertools.product(range(1, max_digit + 1), repeat=length)


def iter_prefix_pairs(max_digit: int, depth: int, head: Pair = _EMPTY_PAIR) -> Iterator[Pair]:
    """Yield convergent_pair(h + u) for u in itertools.product(1..max_digit, repeat=depth) order.

    h is the word whose pair is `head`, the empty word by default.  The walk
    holds one prefix's digits and pair, so no depth meets the recursion
    limit.  Raising the last digit of v.a adds (p', q') to (p, q) of its
    pair (p, q, p', q'); past max_digit the walk climbs by the inverse step
    to (p', q', p - a p', q - a q') of v, then comes down by digits 1.
    Depth -1 yields the one pair that the append step by digit 1 takes to
    `head`, the inverse step at a = 1, whatever max_digit; a depth below -1
    is outside this contract.
    """
    if depth < 1:
        p, q, p_prev, q_prev = head
        yield head if depth == 0 else (p_prev, q_prev, p - p_prev, q - q_prev)
        return
    if max_digit < 1:
        return
    path = [1] * depth  # the digits of the current prefix
    p, q, p_prev, q_prev = _extend(head, path)
    while True:
        yield p, q, p_prev, q_prev
        for _ in range(1, max_digit):
            p, q = p + p_prev, q + q_prev
            yield p, q, p_prev, q_prev
        path[-1] = max_digit
        j = depth - 2  # the deepest digit that can still be raised
        while j >= 0 and path[j] == max_digit:
            j -= 1
        if j < 0:
            return
        for a in path[:j:-1]:
            p, q, p_prev, q_prev = p_prev, q_prev, p - a * p_prev, q - a * q_prev
        path[j] += 1
        p, q = p + p_prev, q + q_prev
        for k in range(j + 1, depth):
            path[k] = 1
            p, q, p_prev, q_prev = p + p_prev, q + q_prev, p, q
