"""Verification scans and their row checks.

The scans: rows of one parent each in iter_words order, first
counterexample, `checked` counts, bounds.  The row checks: each against
Fraction oracles and against a copy that builds every pair and arg by a
call; the reversal and pairwise rows fail on a wrong reversed pair, and
each scan fails when a step it reads, or the depth -1 step that gives the
length-1 parent, is broken.
"""

import itertools
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cflab import UsageError, iter_words, measure_of_cylinder, reverse, verify
from cflab.cfcore import _extend, convergent_pair, iter_prefix_pairs
from cflab import measure
from cflab.measure import _arg
from cflab.verify import dominance_row, pairwise_row, reversal_row

from oracles import _oracle_arg, _value, words


def _walk_order(pair):
    """(p, q, p', q') as the walk from the second seed gives it: (q, q', p, p')."""
    p, q, p_prev, q_prev = pair
    return q, q_prev, p, p_prev


def _read_back(slot):
    """The pair (p, q, p', q') of a second-seed slot (q, q', p, p')."""
    q, q_prev, p, p_prev = slot
    return p, q, p_prev, q_prev


def _walks(max_digit, depth):
    """The items a two-seed scan reads at `depth`: the walks from `_SEEDS`, zipped."""
    return zip(*(iter_prefix_pairs(max_digit, depth, h) for h in verify._SEEDS))


# The parent of the length-1 words, one raw slot a seed: the append step by
# digit 1 takes each slot to its seed.
LENGTH_1_PARENT = next(_walks(1, -1))


def _item(check, u):
    """What the scan gives `check` for the words u.a: its parent's walk item, and u[-1] as mids.

    The parent of u = v.b is v, walked as v's pair, and rev(v)'s in walk
    order but for dominance; u = () stands for the length-1 words, the row
    of the length-1 parent, with mids = range(1, 2).
    """
    if u:
        v, mids = u[:-1], range(u[-1], u[-1] + 1)
        item = convergent_pair(v), _walk_order(convergent_pair(reverse(v)))
    else:
        item, mids = LENGTH_1_PARENT, range(1, 2)
    return (item[:1] if check is dominance_row else item), mids


def _row_stand_in(real, family, bad, rows):
    """`real` with the words of `bad` failing; each row checked is recorded in `rows`.

    Each parent of the family is found by its walk item, as a row check
    sees it: its pair, or its pair and its reversal's in walk order.  The
    length-1 parent, None here, stands for the words of length 1.
    """
    parents = {LENGTH_1_PARENT: None, LENGTH_1_PARENT[:1]: None}
    for v in {w[:-2] for w in family if len(w) > 1}:
        item = convergent_pair(v), _walk_order(convergent_pair(reverse(v)))
        parents[item[:1]] = parents[item] = v

    def check(item, odd, mids, lasts):
        v = parents[item]
        if v is None:
            assert mids == range(1, 2)
            words = [(a,) for a in lasts]
        else:
            words = [v + (b, a) for b in mids for a in lasts]
        assert all(odd == len(w) % 2 for w in words)
        rows.append(words)
        failed = [i for i, w in enumerate(words) if w in bad]
        return failed[0] if failed else real(item, odd, mids, lasts)

    return check


SCANS = [
    (verify.run_reversal, "reversal_row", 1),
    (verify.run_dominance, "dominance_row", 2),
    (verify.run_pairwise, "pairwise_row", 1),
]


@pytest.mark.parametrize("runner,check_name,first", SCANS)
@pytest.mark.parametrize(
    "where",
    [
        "family start",
        "row start",
        "row middle",
        "row end",
        "middle 3 start",
        "middle 4 end",
        "length 1",
        "family end",
    ],
)
def test_failed_scan_counts_words_up_to_the_first_counterexample(
    monkeypatch, runner, check_name, first, where
):
    # digits <= 4: the row of the parent (2,) holds 2,b,a for b = 1..4 and
    # a = first..4, b before a; "row start" to "row end" are its words at b = 1
    family = [w for w in iter_words(4, 3) if w[-1] >= first]
    target = {
        "family start": family[0],
        "row start": (2, 1, first),
        "row middle": (2, 1, first + 1),
        "row end": (2, 1, 4),
        "middle 3 start": (2, 3, first),
        "middle 4 end": (2, 4, 4),
        "length 1": (4,),
        "family end": family[-1],
    }[where]
    at = family.index(target)
    rows = []
    check = _row_stand_in(getattr(verify, check_name), family, {target, family[-1]}, rows)
    monkeypatch.setattr(verify, check_name, check)
    result = runner(4, 3)
    assert not result.passed
    assert result.counterexample == target
    assert result.checked == at + 1
    # the rows checked are the family's rows up to the failing one, in order
    assert [w for row in rows for w in row][: at + 1] == family[: at + 1]
    assert target in rows[-1]
    assert f"{at + 1} cases checked" in result.summary()


@pytest.mark.parametrize("seeds", [1, 2], ids=["one seed", "two seeds"])
@pytest.mark.parametrize("first", [1, 2, 3, 6])
@pytest.mark.parametrize("max_digit,max_len", [(0, 2), (1, 4), (3, 3), (5, 2), (2, 5)])
def test_scan_rows_cover_the_family_in_iter_words_order(max_digit, max_len, first, seeds):
    # the rows' words, concatenated, are iter_words with the last digits
    # below `first` left out, and each row is given its parent's item
    family = [w for w in iter_words(max_digit, max_len) if w[-1] >= first]
    rows = []
    check = _row_stand_in(lambda *row: None, list(iter_words(max_digit, max_len)), set(), rows)
    seeds = verify._SEEDS[:seeds]
    if not family:
        with pytest.raises(UsageError, match="no words to check"):
            verify._scan("s", max_digit, max_len, check, seeds, first)
        return
    result = verify._scan("s", max_digit, max_len, check, seeds, first)
    assert [w for row in rows for w in row] == family
    assert result.passed and result.checked == len(family)


@pytest.mark.parametrize("max_digit,depth", [(4, 4), (1, 6), (7, 3), (3, 5), (5, 0), (0, 2)])
def test_seeded_walks_yield_each_pair_with_its_reversal_in_product_order(max_digit, depth):
    # the second slot, read as (q, q', p, p'), is the pair of the reversal
    prefixes = itertools.product(range(1, max_digit + 1), repeat=depth)
    expected = [(convergent_pair(u), convergent_pair(reverse(u))) for u in prefixes]
    assert [(pair, _read_back(rev)) for pair, rev in _walks(max_digit, depth)] == expected


def test_passing_scan_counts_the_whole_family():
    assert verify.run_reversal(3, 3).checked == 3 + 9 + 27
    assert verify.run_dominance(3, 3).checked == (3 + 9 + 27) * 2 // 3
    assert verify.run_pairwise(3, 2).checked == 3 + 9
    # 7 last digits after each of the 8**(L-1) prefixes, L = 1..6
    assert verify.run_dominance(8, 6).checked == 262_143 == sum(7 * 8**j for j in range(6))


@pytest.mark.parametrize("runner", [verify.run_reversal, verify.run_dominance, verify.run_pairwise])
@pytest.mark.parametrize("max_digit,max_len", [(0, 3), (3, 0), (0, 0)])
def test_scan_of_an_empty_family_has_no_words_to_check(runner, max_digit, max_len):
    with pytest.raises(ValueError, match="no words to check"):
        runner(max_digit, max_len)


@pytest.mark.parametrize(
    "max_digit,max_len,count",
    [
        (1000, 5, "5,004,003,002,001,000"),
        (1, 10**8, "5,000,000,050,000,000"),
        (2, 10**9, "over 10**18"),
        (10**400, 1, "over 10**18"),  # nor is a huge bound echoed whole
    ],
)
def test_bounds_that_would_scan_for_years_are_refused_at_once(max_digit, max_len, count):
    refusal = re.escape(f"give words of {count} digits in all")
    with pytest.raises(UsageError, match=refusal) as refused:
        verify.run_reversal(max_digit, max_len)
    assert str(refused.value).endswith("a scan checks at most 10,000,000")
    assert len(f"error: {refused.value}".encode()) <= 200  # the CLI's line


def _refused_by_words_or_digits(max_digit, max_len):
    # a word limit of 10**7 beside the digit limit of 10**7, with the sums
    # cut at 64 terms for digits >= 2
    if max_digit < 2:
        words = max(0, max_len) if max_digit == 1 else 0
        digits = words * (words + 1) // 2
    else:
        lengths = range(1, min(max_len, 64) + 1)
        words = sum(max_digit**length for length in lengths)
        digits = sum(length * max_digit**length for length in lengths)
    return words > 10**7 or digits > 10**7


@settings(max_examples=300, deadline=None)
@given(max_digit=st.integers(-2, 5000), max_len=st.integers(-2, 10**6))
@example(max_digit=1, max_len=4471)  # 9,997,156 digits
@example(max_digit=1, max_len=4472)  # 10,001,628 digits
@example(max_digit=10, max_len=6)  # 1,111,110 words of 6,543,210 digits
@example(max_digit=10, max_len=7)  # 11,111,110 words
@example(max_digit=5000, max_len=-2)
def test_a_word_limit_beside_the_digit_limit_would_refuse_nothing_more(max_digit, max_len):
    # every word holds a digit, so a family of more than 10**7 words holds
    # more than 10**7 digits: the word limit refused nothing on its own
    try:
        verify._refuse_large("s", max_digit, max_len)
        refused = False
    except UsageError:
        refused = True
    assert refused == _refused_by_words_or_digits(max_digit, max_len)


def _first_failing(words, holds):
    return next((i for i, w in enumerate(words) if not holds(w)), None)


def _pairwise_oracle(n):
    outer = measure_of_cylinder((1,) + n + (1,))
    if n[-1] == 1:
        return outer == measure_of_cylinder((1, 1) + reverse(n[:-1]) + (1,))
    return outer > measure_of_cylinder((1, 1) + n)


ORACLES = {
    "reversal_row": lambda w: measure_of_cylinder(w) == measure_of_cylinder(reverse(w)),
    # words ending in 1 are in the dominance rows here, and some of them fail
    "dominance_row": lambda n: convergent_pair((1, 1) + n)[1] > convergent_pair((1,) + n + (1,))[1],
    "pairwise_row": _pairwise_oracle,
}
digits = st.one_of(st.integers(1, 9), st.integers(1, 10**12))


@pytest.mark.parametrize("check_name", sorted(ORACLES))
@settings(max_examples=150, deadline=None)
@given(u=st.lists(digits, max_size=8).map(tuple), lo=digits, size=st.integers(0, 12))
@example(u=(), lo=1, size=3)
@example(u=(1,), lo=1, size=2)
@example(u=(2, 1), lo=1, size=4)
def test_row_checks_match_a_per_word_oracle(check_name, u, lo, size):
    # each word u.a of the row is decided from scratch by the oracle
    lasts = range(lo, lo + size)
    check = getattr(verify, check_name)
    words = [u + (a,) for a in lasts]
    expected = _first_failing(words, ORACLES[check_name])
    item, mids = _item(check, u)
    assert check(item, (len(u) + 1) % 2, mids, lasts) == expected


@pytest.mark.parametrize("runner", [verify.run_reversal, verify.run_dominance, verify.run_pairwise])
def test_family_past_the_digit_limit_is_refused_before_the_walk(monkeypatch, runner):
    # at digit 1 a family of length <= 10**6 has only 10**6 words, but they
    # hold 500,000,500,000 digits
    def walk(*args):
        raise AssertionError("the walk was entered")

    monkeypatch.setattr(verify, "iter_prefix_pairs", walk)
    with pytest.raises(UsageError, match="give words of 500,000,500,000 digits in all") as refused:
        runner(1, 10**6)
    assert str(refused.value).endswith(f"a scan checks at most {verify.MAX_WORD_DIGITS:,}")


def test_digit_limit_boundary(monkeypatch):
    # digits <= 3 and length <= 3: 3*1 + 9*2 + 27*3 = 102 digits
    monkeypatch.setattr(verify, "MAX_WORD_DIGITS", 102)
    assert verify.run_reversal(3, 3).passed
    monkeypatch.setattr(verify, "MAX_WORD_DIGITS", 101)
    refusal = "length <= 3 give words of 102 digits in all; a scan checks at most 101"
    with pytest.raises(UsageError, match=refusal):
        verify.run_reversal(3, 3)


@pytest.mark.parametrize(
    "max_digit,max_len",
    [(8, 6), (6, 6), (8, 5), (4, 5), (5, 4), (5, 3)],
)
def test_bench_and_acceptance_families_are_inside_the_digit_limit(max_digit, max_len):
    digit_count = sum(length * max_digit**length for length in range(1, max_len + 1))
    assert digit_count <= verify.MAX_WORD_DIGITS


@pytest.mark.parametrize("runner", [verify.run_reversal, verify.run_dominance, verify.run_pairwise])
@pytest.mark.parametrize(
    "max_digit,max_len,shown",
    [
        (-(10**4000), 2, "digits <= under -10**18, length <= 2"),
        (3, -(10**30), "digits <= 3, length <= under -10**18"),
        (10**30, 0, "digits <= over 10**18, length <= 0"),
    ],
    ids=["digit -10**4000", "length -10**30", "digit 10**30"],
)
def test_huge_bounds_of_either_sign_are_shown_short(runner, max_digit, max_len, shown):
    with pytest.raises(UsageError, match="no words to check") as refused:
        runner(max_digit, max_len)
    assert shown in str(refused.value) and len(str(refused.value)) < 120


# ------------------------------------------------------------ row checks


def test_row_checks_live_in_verify():
    # next to the scan whose row protocol they implement; measure keeps the kernel
    assert not {"reversal_row", "dominance_row", "pairwise_row"} & set(vars(measure))
    assert reversal_row.__module__ == "cflab.verify"


def _holds(check, w):
    """True iff the row check passes w on the row of w alone."""
    item, mids = _item(check, w[:-1])
    return check(item, len(w) % 2, mids, range(w[-1], w[-1] + 1)) is None


def test_reversal_examples_and_exhaustive():
    assert _holds(reversal_row, (1, 2))
    assert _holds(reversal_row, (3,))
    assert _holds(reversal_row, (1, 2, 3))
    for w in iter_words(4, 5):
        assert _holds(reversal_row, w), w


def test_pairwise_examples():
    assert _holds(pairwise_row, (2,))
    assert measure_of_cylinder((1, 2, 1)).arg == Fraction(49, 48)
    assert measure_of_cylinder((1, 1, 2)).arg == Fraction(56, 55)
    assert _holds(pairwise_row, (1,))
    assert _holds(pairwise_row, (3, 2))


def test_pairwise_exhaustive():
    for n in iter_words(5, 3):
        assert _holds(pairwise_row, n), n


def test_pairwise_equal_case_is_exact_reversal_pairing():
    # for last digit 1 the two sides are reversals of each other, so equal
    for m in iter_words(4, 2):
        n = m + (1,)
        left = measure_of_cylinder((1,) + m + (1, 1))
        right = measure_of_cylinder((1, 1) + m[::-1] + (1,))
        assert left == right
        assert _holds(pairwise_row, n)


def _constant_arg(p, q, p_prev, q_prev, odd):
    return 2, 1


def _arg_by_p(p, q, p_prev, q_prev, odd):
    return 1 + p, 1


def _arg_by_q_prev(p, q, p_prev, q_prev, odd):
    return 1 + q_prev, 1


@pytest.mark.parametrize(
    "fake_arg,n",
    [
        # equal args on both sides: the strict branch must refuse equality
        pytest.param(_constant_arg, (2,), id="constant-2"),
        pytest.param(_constant_arg, (3, 2), id="constant-3,2"),
        # an arg that changes when p and q' swap tells a word from its reversal,
        # either way round
        pytest.param(_arg_by_p, (2, 1), id="by-p-2,1"),
        pytest.param(_arg_by_p, (3, 1, 1), id="by-p-3,1,1"),
        pytest.param(_arg_by_q_prev, (2, 1), id="by-q_prev-2,1"),
    ],
)
def test_pairwise_is_false_when_the_relation_fails(monkeypatch, fake_arg, n):
    monkeypatch.setattr(verify, "_arg", fake_arg)
    assert not _holds(pairwise_row, n)


def test_denominator_dominance_examples():
    assert _holds(dominance_row, (2,))
    assert _value((1, 1, 2)).denominator == 5
    assert _value((1, 2, 1)).denominator == 4
    assert _holds(dominance_row, (3,))
    assert _holds(dominance_row, (2, 2))


def test_denominator_dominance_exhaustive():
    # digits <= 5, length <= 4, last digit >= 2: always true
    for w in iter_words(5, 4):
        if w[-1] < 2:
            continue
        assert _holds(dominance_row, w), w


def _transpose(pair):
    """pair with its first and last entries swapped: rev(w)'s pair, for w's."""
    p, q, p_prev, q_prev = pair
    return q_prev, q, p_prev, p


def _prepend(b, pair):
    """The pair of b.v, from the pair of v."""
    p, q, p_prev, q_prev = pair
    return q, b * q + p, q_prev, b * q_prev + p_prev


def _step(item, b):
    """The walk item of v.b, from v's: the append step on each slot."""
    return tuple(_extend(slot, (b,)) for slot in item)


# The row checks with every pair built by a call to a step and every arg
# taken from `_arg`, as the reference for the rows that write each word out.
# Each takes the item of u = v.b and the last digits a of the words u.a;
# `_row_reference` loops over b.


def _row_reference(prefix_reference):
    """The row check of the words v.b.a, from `prefix_reference` on each u = v.b's item."""

    def reference(item, odd, mids, lasts):
        for i, b in enumerate(mids):
            failed = prefix_reference(_step(item, b), odd, lasts)
            if failed is not None:
                return i * len(lasts) + failed
        return None

    return reference


def _reversal_row_reference(item, odd, lasts):
    pair, rev = item
    for a in lasts:
        if _prepend(a, _read_back(rev)) != _transpose(_extend(pair, (a,))):
            return lasts.index(a)
    return None


def _dominance_row_reference(item, odd, lasts):
    ((p, q, p_prev, q_prev),) = item
    for a in lasts:
        if a * q + q_prev <= q + p:
            return lasts.index(a)
    return None


def _pairwise_row_reference(item, odd, lasts):
    pair, rev = item
    p, q, p_prev, q_prev = pair
    for a in lasts:
        p_n, q_n = a * p + p_prev, a * q + q_prev
        if a == 1:
            # 1.u.1.1 against 1.1.rev(u).1, built from the walk's two slots
            left_num, left_den = _arg(*_extend(_prepend(1, pair), (1, 1)), odd)
            rev_num, rev_den = _arg(*_extend(_prepend(1, _prepend(1, _read_back(rev))), (1,)), odd)
            failed = not rev_den or left_num * rev_den != rev_num * left_den
        else:
            left_num, left_den = _arg(q_n + q, q_n + p_n + q + p, q_n, q_n + p_n, odd)
            right_num, right_den = _arg(q_n + p_n, 2 * q_n + p_n, q + p, 2 * q + p, odd)
            failed = left_num * right_den <= right_num * left_den
        if failed:
            return lasts.index(a)
    return None


_entries = st.one_of(st.integers(1, 30), st.integers(1, 10**20))
_pairs = st.tuples(_entries, _entries, _entries, _entries)


@pytest.mark.parametrize(
    "row,reference",
    [
        (reversal_row, _row_reference(_reversal_row_reference)),
        (dominance_row, _row_reference(_dominance_row_reference)),
        (pairwise_row, _row_reference(_pairwise_row_reference)),
    ],
    ids=["reversal", "dominance", "pairwise"],
)
@settings(max_examples=300, deadline=None)
@given(
    _pairs,
    st.one_of(st.none(), _pairs),
    st.integers(0, 1),
    st.sampled_from([range(1, 2), range(1, 4), range(3, 5), range(1, 1)]),
    st.sampled_from([1, 2]),
    st.integers(0, 8),
)
# the length-1 parent, whose pair holds a zero and a negative entry
@example(*LENGTH_1_PARENT, 1, range(1, 2), 1, 5)
# the empty parent, whose pair holds zeros
@example((0, 1, 1, 0), None, 0, range(1, 4), 1, 5)
# u = v.1 has the pair (2, 1, 1, 1), where a q = q + p - q' at a = 2:
# dominance fails there, and only with <=
@example((1, 1, 1, 0), None, 0, range(1, 2), 2, 3)
# the pair of (1, 2) and of its reversal: every relation holds on its row
@example(convergent_pair((1, 2)), _walk_order(convergent_pair((2, 1))), 0, range(1, 4), 1, 6)
def test_rows_match_their_reference_on_any_pair(row, reference, pair, rev, odd, mids, first, size):
    # not only convergent pairs, so every row fails; a rev of None stands for
    # pair transposed, in walk order, on which the reversal row passes
    lasts = range(first, first + size)
    if rev is None:
        rev = _walk_order(_transpose(pair))
    item = (pair,) if row is dominance_row else (pair, rev)
    assert row(item, odd, mids, lasts) == reference(item, odd, mids, lasts)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("entry", range(4), ids=["r", "r_prev", "s", "s_prev"])
def test_a_reversed_pair_off_by_one_fails_both_rows(entry, delta):
    # each entry of the parent's reversed pair, in walk order (z, z', t, t'),
    # enters rev(u)'s (r, r', s, s') by the prepend step, so reversal fails at the row's first word whatever its last
    # digits; the pairwise words ending in 2 or more never read the reversed pair
    for u in [(), *iter_words(3, 3), (7, 1, 12, 5)]:
        (pair, rev), mids = _item(reversal_row, u)
        rev = list(rev)
        rev[entry] += delta
        item, odd = (pair, tuple(rev)), (len(u) + 1) % 2
        assert reversal_row(item, odd, mids, range(1, 5)) == 0, u
        assert reversal_row(item, odd, mids, range(3, 5)) == 0, u
        assert pairwise_row(item, odd, mids, range(1, 5)) == 0, u
        assert pairwise_row(item, odd, mids, range(2, 5)) is None, u


def _failed_at(suite, w, last_digit=""):
    detail = "digits <= 4, length <= 5" + last_digit
    return f"{suite}: FAIL (1 cases checked; {detail}); counterexample {w}"


@pytest.mark.parametrize(
    "file,old,new,count,lines",
    [
        # the a step of the reversal row drops p': the first word, 1, already
        # breaks the transpose identity
        pytest.param(
            "verify.py",
            "!= a * p + p_prev",
            "!= a * p",
            1,
            [_failed_at("reversal", 1)],
            id="a-step-drops-p_prev",
        ),
        # the b step of every row drops p', so u = v.b's pair is wrong
        pytest.param(
            "verify.py",
            "b * x + x_prev",
            "b * x",
            3,
            [
                _failed_at("reversal", 1),
                _failed_at("dominance", 2, ", last digit >= 2"),
                _failed_at("pairwise", 1),
            ],
            id="b-step-drops-p_prev",
        ),
        # the prepend-b step of the rows that read rev(u) drops r
        pytest.param(
            "verify.py",
            "b * z + t,",
            "b * z,",
            2,
            [_failed_at("reversal", 1), _failed_at("pairwise", 1)],
            id="prepend-b-step-drops-r",
        ),
        # the depth -1 step drops -p': the first slot's length-1 parent
        # becomes (1, 0, 0, 1), while p' = 0 in the second slot's seed keeps
        # its parent, so the slots disagree and every scan fails
        pytest.param(
            "cfcore.py",
            "p - p_prev",
            "p",
            1,
            [
                _failed_at("reversal", 1),
                _failed_at("dominance", 2, ", last digit >= 2"),
                _failed_at("pairwise", 1),
            ],
            id="length-1-parent-drops-p_prev",
        ),
        # the depth -1 step drops -q': q' = 0 in the empty word's pair, so
        # only the second slot's parent moves, and dominance reads only the first
        pytest.param(
            "cfcore.py",
            "q - q_prev",
            "q",
            1,
            [
                _failed_at("reversal", 1),
                "dominance: pass (1023 cases checked; digits <= 4, length <= 5, last digit >= 2)",
                _failed_at("pairwise", 1),
            ],
            id="length-1-parent-drops-q_prev",
        ),
        # the depth -1 step swaps p' and q': both slots' parents go wrong in a
        # way the transpose identity cannot see, as each stays the other's
        # transpose; the scans fail because neither steps back to its seed
        pytest.param(
            "cfcore.py",
            "(p_prev, q_prev, p - p_prev",
            "(q_prev, p_prev, p - p_prev",
            1,
            [
                _failed_at("reversal", 1),
                _failed_at("dominance", 2, ", last digit >= 2"),
                _failed_at("pairwise", 1),
            ],
            id="length-1-parent-swaps-p_prev-q_prev",
        ),
        # the second seed gains p = 1: its depth -1 parent still steps back
        # to it, but no longer reads as the empty word's pair transposed, so
        # the first length-1 row that reads rev(u) fails; dominance reads
        # only the first seed
        pytest.param(
            "verify.py",
            "_SEEDS = ((0, 1, 1, 0), (1, 0, 0, 1))",
            "_SEEDS = ((0, 1, 1, 0), (1, 0, 1, 1))",
            1,
            [
                _failed_at("reversal", 1),
                "dominance: pass (1023 cases checked; digits <= 4, length <= 5, last digit >= 2)",
                _failed_at("pairwise", 1),
            ],
            id="second-seed-gains-p",
        ),
    ],
)
def test_scans_that_read_a_broken_step_fail(tmp_path, file, old, new, count, lines):
    # a copy of the package with one edit to `file`, its scans run in a
    # subprocess: each scan that reads the edited step fails, at the word named
    src = tmp_path / "src"
    shutil.copytree(Path(__file__).parents[1] / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    edited = src / "cflab" / file
    text = edited.read_text()
    assert text.count(old) == count
    edited.write_text(text.replace(old, new))
    suites = [line.split(":")[0] for line in lines]
    run = (
        "import sys; from cflab.verify import run_suite\n"
        "for name in sys.argv[1:]: print(run_suite(name, max_digit=4, max_len=5).summary())"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", run, *suites], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None)
@given(_pairs)
# the scans' two seeds: the empty word's pair, and it in (q, q', p, p') order
@example(verify._SEEDS[0])
@example(verify._SEEDS[1])
def test_the_append_step_by_1_takes_the_depth_minus_1_pair_to_its_head(head):
    assert _extend(next(iter_prefix_pairs(1, -1, head)), (1,)) == head


@settings(max_examples=200, deadline=None)
@given(words)
@example((1,))
@example((2, 1))
def test_reversal_verdict_matches_fraction_oracle(w):
    assert _holds(reversal_row, w) is (_oracle_arg(w) == _oracle_arg(reverse(w)))


@settings(max_examples=200, deadline=None)
@given(words, st.booleans())
@example((1,), True)
@example((3,), False)
def test_pairwise_verdict_matches_fraction_oracle(n, last_digit_one):
    # last_digit_one forces the reversal-pairing case
    if last_digit_one:
        n = n + (1,)
    if n[-1] >= 2:
        assert _oracle_arg((1,) + n + (1,)) > _oracle_arg((1, 1) + n)
    else:
        m = n[:-1]
        assert _oracle_arg((1,) + m + (1, 1)) == _oracle_arg((1, 1) + reverse(m) + (1,))
    assert _holds(pairwise_row, n)


@settings(max_examples=200, deadline=None)
@given(words.filter(lambda w: w[-1] >= 2))
@example((2,))
def test_denominator_dominance_matches_value_denominators(n):
    q_left = _value((1, 1) + n).denominator
    q_right = _value((1,) + n + (1,)).denominator
    assert _holds(dominance_row, n) is (q_left > q_right)
