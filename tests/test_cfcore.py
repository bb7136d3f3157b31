"""Exact checks for words, convergents, values, and cylinder intervals.

Expected values are either tiny hand computations or come from independent
oracles defined here (bottom-up nested-fraction evaluation, brute-force
convergent recomputation); the code under test never generates its own
expected values.
"""

import functools
import itertools
import sys
from fractions import Fraction

import pytest

from cflab import (
    cf_of_rational,
    cylinder_interval,
    format_word,
    iter_words,
    measure_of_cylinder,
    parse_word,
    reverse,
    word,
)
from cflab.cfcore import convergent_pair, iter_prefix_pairs
from cflab.reports import render_measure


@functools.cache  # the exhaustive tests ask for each prefix once per word that has it
def nested_value(w):
    """Independent oracle: evaluate [0; w] bottom-up as a nested fraction."""
    acc = Fraction(0)
    for a in reversed(w):
        acc = Fraction(1, a + acc)
    return acc


def value_of(w):
    """[0; w] read off the recurrence: p_n/q_n of convergent_pair(w)."""
    p, q, _, _ = convergent_pair(w)
    return Fraction(p, q)


# ---------------------------------------------------------------- words

def test_word_validation_rejects_bad_digits():
    with pytest.raises(ValueError):
        word([1, 0, 2])
    with pytest.raises(ValueError):
        word([-3])
    # True == 1 to Python, but it is no digit: it would print as "True"
    for digits in [(True, 2), (2, False), ("1",), (1.0,)]:
        with pytest.raises(ValueError):
            word(digits)
    assert word([1, 2, 3]) == (1, 2, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: measure_of_cylinder((2, 0)),
        lambda: cylinder_interval((2, 0)),
        lambda: measure_of_cylinder((0,)),
        lambda: render_measure((True, 2), False, "json"),
    ],
    ids=["measure-zero", "interval-zero", "measure-lone-zero", "render-bool"],
)
def test_cylinder_functions_refuse_what_word_refuses(call):
    # they read the word through convergent_pair, which checks it with word
    with pytest.raises(ValueError, match="partial quotients must be integers >= 1"):
        call()


def test_parse_and_format_roundtrip():
    assert parse_word("1,2,3") == (1, 2, 3)
    assert format_word((1, 2, 3)) == "1,2,3"
    assert parse_word("", allow_empty=True) == ()
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("1,0,2")
    with pytest.raises(ValueError):
        parse_word("1,x")


def test_reverse():
    assert reverse((1, 2)) == (2, 1)
    assert reverse((1, 1)) == (1, 1)
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse(reverse((3, 1, 4, 1, 5))) == (3, 1, 4, 1, 5)


# ------------------------------------------------------- rational expansion

def test_cf_of_rational_examples():
    assert cf_of_rational(7, 16) == (2, 3, 2)
    assert cf_of_rational(1, 2) == (2,)
    assert cf_of_rational(2, 3) == (1, 2)


def test_cf_of_rational_rejects_bad_input():
    for num, den in [(0, 5), (5, 5), (7, 3), (-1, 2), (1, 0)]:
        with pytest.raises(ValueError):
            cf_of_rational(num, den)


def test_cf_of_rational_is_canonical_and_correct():
    for den in range(2, 120):
        for num in range(1, den):
            w = cf_of_rational(num, den)
            assert nested_value(w) == Fraction(num, den)
            if len(w) >= 2:
                assert w[-1] >= 2


# ------------------------------------------------------------ convergents

def prefix_pairs(w):
    """(p_i, q_i) for every non-empty prefix w[:i], from convergent_pair."""
    return [convergent_pair(w[:i])[:2] for i in range(1, len(w) + 1)]


def test_convergents_examples():
    assert prefix_pairs((1, 2, 3)) == [(1, 1), (2, 3), (7, 10)]
    assert prefix_pairs((2,)) == [(1, 2)]
    assert prefix_pairs((1, 1, 2)) == [(1, 1), (1, 2), (3, 5)]
    assert convergent_pair((1, 2, 3)) == (7, 10, 2, 3)


def test_empty_word_is_the_recurrence_seed():
    # the pair every walk starts from; its cylinder is the whole space
    assert convergent_pair(()) == next(iter_prefix_pairs(1, 0)) == (0, 1, 1, 0)
    assert cylinder_interval(()) == (0, 1)
    assert measure_of_cylinder(()).arg == 2
    assert measure_of_cylinder(()).float == 1.0


def test_value_examples():
    assert value_of((1,)) == 1
    assert value_of((1, 2)) == Fraction(2, 3)
    assert value_of((2, 3, 2)) == Fraction(7, 16)


def test_convergents_against_nested_evaluation_exhaustive():
    # digits <= 6, length <= 6, every word: recurrence == bottom-up fraction
    for w in iter_words(6, 6):
        pairs = prefix_pairs(w)
        assert value_of(w) == nested_value(w)
        for i, (p, q) in enumerate(pairs, start=1):
            assert Fraction(p, q) == nested_value(w[:i])
            assert convergent_pair(w[:i])[2:] == (pairs[i - 2] if i >= 2 else (0, 1))
        qs = [q for _, q in pairs]
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))


def test_convergents_are_reduced():
    import math

    for w in iter_words(5, 4):
        for p, q in prefix_pairs(w):
            assert math.gcd(p, q) == 1


def test_reversed_word_value_is_denominator_ratio():
    # classical fact used throughout: [0; an..a1] = q_{n-1}/q_n, with q_n
    # the reduced denominator of [0; a1..an] and q_0 = 1 that of [0;] = 0
    for w in iter_words(5, 5):
        q_last = nested_value(w).denominator
        q_prev = nested_value(w[:-1]).denominator
        assert value_of(reverse(w)) == Fraction(q_prev, q_last)


# ------------------------------------------------------------- cylinders

def test_cylinder_examples():
    assert cylinder_interval((1,)) == (Fraction(1, 2), Fraction(1))
    assert cylinder_interval((1, 1)) == (Fraction(1, 2), Fraction(2, 3))
    assert cylinder_interval((1, 2)) == (Fraction(2, 3), Fraction(3, 4))


def test_cylinder_orientation_by_parity():
    for w in iter_words(4, 4):
        iv = cylinder_interval(w)
        assert 0 <= iv.lo < iv.hi <= 1
        own = value_of(w)
        if len(w) % 2:
            assert iv.hi == own
        else:
            assert iv.lo == own


def test_cylinder_width_identity_exhaustive():
    # width = 1/(q_n (q_n + q_{n-1})), digits <= 6, length <= 6
    for w in iter_words(6, 6):
        q_last = nested_value(w).denominator
        q_prev = nested_value(w[:-1]).denominator
        iv = cylinder_interval(w)
        assert iv.hi - iv.lo == Fraction(1, q_last * (q_last + q_prev))


def test_roundtrip_on_canonical_words():
    for w in iter_words(6, 6):
        if len(w) >= 2 and w[-1] < 2:
            continue
        if w == (1,):
            continue  # value 1/1 is outside cf_of_rational's domain
        v = value_of(w)
        assert cf_of_rational(v.numerator, v.denominator) == w


def test_cylinder_nesting():
    for w in iter_words(4, 3):
        parent = cylinder_interval(w)
        for d in range(1, 7):
            child = cylinder_interval(w + (d,))
            assert parent.lo <= child.lo < child.hi <= parent.hi
            assert child.hi - child.lo < parent.hi - parent.lo


def test_prefix_pairs_follow_product_order_with_their_convergent_pairs():
    # itertools.product is the reference order; every pair is the recurrence
    # run from scratch, and from the pair of a head word h, that of h + u
    head = (3, 1)
    for max_digit in range(0, 6):
        for depth in range(0, 5):
            prefixes = list(itertools.product(range(1, max_digit + 1), repeat=depth))
            expected = [convergent_pair(u) for u in prefixes]
            assert list(iter_prefix_pairs(max_digit, depth)) == expected
            headed = list(iter_prefix_pairs(max_digit, depth, convergent_pair(head)))
            assert headed == [convergent_pair(head + u) for u in prefixes]


def test_prefix_walk_goes_past_the_recursion_limit():
    # one list of the path, not one generator per depth
    depth = sys.getrecursionlimit() + 10
    assert list(iter_prefix_pairs(1, depth)) == [convergent_pair((1,) * depth)]
    assert next(iter_prefix_pairs(2, depth)) == convergent_pair((1,) * depth)


# ------------------------------------------------- denominators

def test_prepended_one_denominator_relation():
    # q([0;1,n1..nj]) + p([0;1,n1..nj]) == q([0;1,1,n1..nj]) for all j
    for w in iter_words(4, 4):
        left = value_of((1,) + w)
        right = value_of((1, 1) + w)
        assert left.numerator + left.denominator == right.denominator
