"""Verification scans and their row checks.

The scans: rows in iter_words order, first counterexample, `checked`
counts, bounds.  The row checks: each against Fraction oracles and against
a copy that builds every pair and arg by a call; the reversal and pairwise
rows fail on a wrong reversed pair, and so does the reversal scan when the
row's recurrence step is broken.
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
from cflab.cfcore import _extend, convergent_pair
from cflab import measure
from cflab.measure import _arg
from cflab.verify import dominance_row, pairwise_row, reversal_row

from oracles import _oracle_arg, _value, words


def _item(check, u):
    """What the scan's walk gives `check` for the prefix u: u's pair, and rev(u)'s but for dominance."""
    pair = convergent_pair(u)
    return pair if check is dominance_row else (pair, convergent_pair(reverse(u)))


def _row_stand_in(real, family, bad, rows):
    """`real` with the words of `bad` failing; each row checked is recorded in `rows`.

    Each prefix of the family is found by its walk item, as a row check
    sees it: its pair, or its pair and its reversal's.
    """
    prefixes = {}
    for u in {w[:-1] for w in family}:
        pair = convergent_pair(u)
        prefixes[pair] = prefixes[pair, convergent_pair(reverse(u))] = u

    def check(item, odd, lasts):
        u = prefixes[item]
        assert odd == (len(u) + 1) % 2
        rows.append([u + (a,) for a in lasts])
        failed = [i for i, a in enumerate(lasts) if u + (a,) in bad]
        return failed[0] if failed else real(item, odd, lasts)

    return check


SCANS = [
    (verify.run_reversal, "reversal_row", 1),
    (verify.run_dominance, "dominance_row", 2),
    (verify.run_pairwise, "pairwise_row", 1),
]


@pytest.mark.parametrize("runner,check_name,first", SCANS)
@pytest.mark.parametrize(
    "where", ["family start", "row start", "row middle", "row end", "family end"]
)
def test_failed_scan_counts_words_up_to_the_first_counterexample(
    monkeypatch, runner, check_name, first, where
):
    # digits <= 4: each row of the prefix (2, 1) holds 2,1,first .. 2,1,4
    family = [w for w in iter_words(4, 3) if w[-1] >= first]
    target = {
        "family start": family[0],
        "row start": (2, 1, first),
        "row middle": (2, 1, first + 1),
        "row end": (2, 1, 4),
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


@pytest.mark.parametrize("first", [1, 2, 3, 6])
@pytest.mark.parametrize("max_digit,max_len", [(0, 2), (1, 4), (3, 3), (5, 2), (2, 5)])
def test_scan_rows_cover_the_family_in_iter_words_order(max_digit, max_len, first):
    # the rows' words, concatenated, are iter_words with the last digits
    # below `first` left out, and each row is given its prefix's pair
    family = [w for w in iter_words(max_digit, max_len) if w[-1] >= first]
    rows = []
    check = _row_stand_in(lambda *row: None, list(iter_words(max_digit, max_len)), set(), rows)
    if not family:
        with pytest.raises(UsageError, match="no words to check"):
            verify._scan("s", max_digit, max_len, check, verify.iter_prefix_pairs, first)
        return
    result = verify._scan("s", max_digit, max_len, check, verify.iter_prefix_pairs, first)
    assert [w for row in rows for w in row] == family
    assert result.passed and result.checked == len(family)


@pytest.mark.parametrize("max_digit,depth", [(4, 4), (1, 6), (7, 3), (3, 5), (5, 0), (0, 2)])
def test_paired_walk_yields_each_pair_with_its_reversal_in_product_order(max_digit, depth):
    prefixes = itertools.product(range(1, max_digit + 1), repeat=depth)
    expected = [(convergent_pair(u), convergent_pair(reverse(u))) for u in prefixes]
    assert list(verify._paired_walk(max_digit, depth)) == expected


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
    assert check(_item(check, u), (len(u) + 1) % 2, lasts) == expected


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
    return check(_item(check, w[:-1]), len(w) % 2, range(w[-1], w[-1] + 1)) is None


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


# The row checks with every pair built by a call to a step and every arg
# taken from `_arg`, as the reference for the rows that write each word out.


def _reversal_row_reference(item, odd, lasts):
    pair, rev = item
    for a in lasts:
        if _prepend(a, rev) != _transpose(_extend(pair, (a,))):
            return lasts.index(a)
    return None


def _dominance_row_reference(pair, odd, lasts):
    p, q, p_prev, q_prev = pair
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
            rev_num, rev_den = _arg(*_extend(_prepend(1, _prepend(1, rev)), (1,)), odd)
            failed = left_num * rev_den != rev_num * left_den
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
        (reversal_row, _reversal_row_reference),
        (dominance_row, _dominance_row_reference),
        (pairwise_row, _pairwise_row_reference),
    ],
    ids=["reversal", "dominance", "pairwise"],
)
@settings(max_examples=300, deadline=None)
@given(
    _pairs,
    st.one_of(st.none(), _pairs),
    st.integers(0, 1),
    st.sampled_from([1, 2]),
    st.integers(0, 8),
)
# the empty prefix, whose pair holds zeros
@example((0, 1, 1, 0), None, 1, 1, 5)
# a q = q + p - q' at a = 2: dominance fails there, and only with <=
@example((2, 1, 1, 1), None, 0, 2, 3)
# the pair of (1, 2) and of its reversal: every relation holds
@example(convergent_pair((1, 2)), convergent_pair((2, 1)), 1, 1, 6)
def test_rows_match_their_reference_on_any_pair(row, reference, pair, rev, odd, first, size):
    # not only convergent pairs, so every row fails; a rev of None stands for
    # pair transposed, on which the reversal row passes
    lasts = range(first, first + size)
    item = pair if row is dominance_row else (pair, _transpose(pair) if rev is None else rev)
    assert row(item, odd, lasts) == reference(item, odd, lasts)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("entry", range(4), ids=["r", "s", "r_prev", "s_prev"])
def test_a_reversed_pair_off_by_one_fails_both_rows(entry, delta):
    # reversal fails at the row's first word whatever its last digits; the
    # pairwise words ending in 2 or more never read the reversed pair
    for u in [(), *iter_words(3, 3), (7, 1, 12, 5)]:
        rev = list(convergent_pair(reverse(u)))
        rev[entry] += delta
        item, odd = (convergent_pair(u), tuple(rev)), (len(u) + 1) % 2
        assert reversal_row(item, odd, range(1, 5)) == 0, u
        assert reversal_row(item, odd, range(3, 5)) == 0, u
        assert pairwise_row(item, odd, range(1, 5)) == 0, u
        assert pairwise_row(item, odd, range(2, 5)) is None, u


def test_reversal_scan_fails_when_the_row_step_drops_p_prev(tmp_path):
    # a copy of the package whose row appends a to u's pair as a * p, not
    # a * p + p': the first word, 1, already breaks the transpose identity
    src = tmp_path / "src"
    shutil.copytree(Path(__file__).parents[1] / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    row_file = src / "cflab" / "verify.py"
    text = row_file.read_text()
    assert text.count("a * p + p_prev):") == 1
    row_file.write_text(text.replace("a * p + p_prev):", "a * p):"))
    run = "from cflab.verify import run_reversal; print(run_reversal(4, 5).summary())"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", run], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == (
        "reversal: FAIL (1 cases checked; digits <= 4, length <= 5); counterexample 1\n"
    )


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
