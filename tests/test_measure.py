"""Exact Gauss-measure arithmetic checks.

The heavier identities (normalization, additivity with an exact remainder,
joint-measure brackets) are all decided by integer arithmetic; floats only
show up where a closed-form oracle is itself irrational.  The verify row
checks are tested in test_verify.py.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cflab import (
    BoundedMeasure,
    LogRational,
    iter_words,
    joint_pattern_measure,
    measure_of_cylinder,
    reverse,
)
from cflab import measure
from cflab.cfcore import UsageError, convergent_pair, iter_prefix_pairs
from cflab.measure import MAX_MIDDLE_WORDS, _arg, _dyadic_product

from oracles import _gamma_tail_sum, _oracle_arg, _value, lag_measure, second_eigenvalue, words


MEASURE_FULL = LogRational(Fraction(2))  # the whole space, log2(2) = 1


def _kernel_arg(w, m=1):
    """The arg of the interval between [0; w] and [0; w, m]: `_arg` of w's pair shifted by m - 1."""
    p, q, p_prev, q_prev = convergent_pair(w)
    return _arg(p, q, (m - 1) * p + p_prev, (m - 1) * q + q_prev, len(w) % 2)


def _child_tail(w, cap):
    """The measure of {x in C_w : digit |w|+1 of x exceeds cap}, from the kernel at m = cap + 1."""
    return LogRational(Fraction(*_kernel_arg(w, cap + 1)))


def _factor_oracle(a, share):
    """The arg 1 + share a (a - 1) a joint measure adds for an inner node of child tail arg a."""
    return 1 + share * a * (a - 1)


def _folded_value(w):
    """[0; w] folded from the last digit up, with no convergent recurrence."""
    x = Fraction(0)
    for a in reversed(w):
        x = 1 / (a + x)
    return x


def _lebesgue_upper_oracle(j, cap):
    """L_j from Fraction lengths: the cylinders v.1, |v| = j-1, and the child tails past cap
    of the shorter v, each rounded up on the grid 1/ONE."""
    def up(length):
        return Fraction(math.ceil(abs(length) * ONE), ONE)

    digits = range(1, cap + 1)
    leaves = product(digits, repeat=j - 1)
    inner = (v for depth in range(j - 1) for v in product(digits, repeat=depth))
    return sum(up(_folded_value(v + (1,)) - _folded_value(v + (2,))) for v in leaves) + sum(
        up(_folded_value(v) - _folded_value(v + (cap + 1,))) for v in inner
    )


def _share_oracle(j, cap):
    """sigma_j = min(1/2, L_j ((cap+2)/(cap+1))**2) from the Fraction L_j."""
    return min(Fraction(1, 2), _lebesgue_upper_oracle(j, cap) * Fraction(cap + 2, cap + 1) ** 2)



def _sequential_product(fractions):
    prod = Fraction(1)
    for x in fractions:
        prod *= x
    return prod


ONE = 2**128  # the joint measure's ends are integers over this

# log2(32 / (9 pi)), the closed form of the k=2 joint measure
K2_ORACLE = math.log2(32 / (9 * math.pi))
# J_3 by the Gamma form, to 1e-9 (test_k3_brackets_hold_the_gamma_oracle_on_both_sides)
J3_GAMMA_FORM = 0.1703540675


def _rounded_product(fractions, up):
    """The product on the grid 1/ONE, rounded down (up if `up`) after each factor."""
    rounded = math.ceil if up else math.floor
    x = Fraction(1)
    for f in fractions:
        x = Fraction(rounded(x * f * ONE), ONE)
    return x


def _leaf_slack(leaves):
    """The factor the tail takes for the rounding of `leaves` lower-end terms."""
    return Fraction(ONE + 2 * leaves, ONE)


def _exact_ends(k, cap):
    """The exact leaf args and tail factors of the joint measure, from Fraction oracles.

    The node 1.u enters with the share sigma_j of j = k-1-|u|.
    """
    middles = [m for m in iter_words(cap, k - 1) if len(m) == k - 1]
    inner = [()] + list(iter_words(cap, k - 2))
    leaves = [_oracle_arg((1,) + m + (1,)) for m in middles]
    shares = [_share_oracle(k - 1 - depth, cap) for depth in range(k - 1)]
    factors = [_factor_oracle(_child_tail((1,) + u, cap).arg, shares[len(u)]) for u in inner]
    return leaves, factors


def _assert_dyadic_ends(bm, leaves, factors):
    """bm's ends: the rounded products of the leaves and tail factors, outward of the exact ones."""
    lower = _rounded_product(leaves, up=False)
    tail = _rounded_product(factors + [_leaf_slack(len(leaves))], up=True)
    assert bm.lower.arg == lower and bm.tail_bound.arg == tail
    exact_lower, exact_tail = _sequential_product(leaves), _sequential_product(factors)
    assert lower <= exact_lower and bm.upper.arg >= exact_lower * exact_tail


def test_logrational_invariants():
    with pytest.raises(ValueError, match="^measure argument must be >= 1, got 1/2$"):
        LogRational(Fraction(1, 2))
    with pytest.raises(ValueError):
        LogRational(Fraction(9, 10))
    ten_ninths = LogRational(Fraction(10, 9))
    assert repr(ten_ninths) == "log2(10/9)"
    # an int arg is made a Fraction, and a value is never changed in place
    assert type(LogRational(2).arg) is Fraction
    with pytest.raises(AttributeError):
        ten_ninths.arg = Fraction(2)


def test_measure_of_cylinder_examples():
    assert measure_of_cylinder((1,)).arg == Fraction(4, 3)
    assert measure_of_cylinder((1, 1)).arg == Fraction(10, 9)
    assert measure_of_cylinder((1, 2)).arg == Fraction(21, 20)
    assert measure_of_cylinder((2, 1)).arg == Fraction(21, 20)
    assert abs(measure_of_cylinder((1,)).float - 0.415037) < 1e-6
    assert abs(measure_of_cylinder((1, 1)).float - 0.152003) < 1e-6


def test_measure_sum_examples():
    # the measure of a disjoint union: args multiply
    # C_[1] and (0, 1/2), the set of first digits past 1
    assert measure_of_cylinder((1,)).arg * Fraction(3, 2) == MEASURE_FULL.arg
    assert measure_of_cylinder((1, 1, 1)).arg * measure_of_cylinder((1, 2, 1)).arg == Fraction(
        1225, 1152
    )


def test_measure_compare_examples():
    # comparisons are exact cross-multiplications of the args
    assert LogRational(Fraction(49, 48)) > LogRational(Fraction(56, 55))
    assert LogRational(Fraction(21, 20)) == LogRational(Fraction(21, 20))
    assert LogRational(Fraction(10, 9)) < LogRational(Fraction(4, 3))
    args = [Fraction(4, 3), Fraction(1), Fraction(10, 9), Fraction(2)]
    assert [m.arg for m in sorted(map(LogRational, args))] == sorted(args)
    # equal args are equal and hash equal, whether given as an int or as a Fraction
    assert LogRational(2) == LogRational(Fraction(2))
    assert hash(LogRational(Fraction(42, 21))) == hash(LogRational(2)) == hash(MEASURE_FULL)
    assert len({LogRational(2), MEASURE_FULL, LogRational(Fraction(3, 2))}) == 2


def test_normalization_identity():
    # sum of gamma(C_[d]) for d <= N plus the tail is exactly the whole space;
    # the tail {x : first digit > N} = (0, 1/(N+1)) has arg (N+2)/(N+1)
    for n_max in range(1, 101):
        total = Fraction(1)
        for d in range(1, n_max + 1):
            total *= measure_of_cylinder((d,)).arg
        assert total * Fraction(n_max + 2, n_max + 1) == MEASURE_FULL.arg


def test_additivity_with_exact_remainder():
    # children up to N plus the unenumerated remainder partition the parent
    for w in iter_words(4, 3):
        parent = measure_of_cylinder(w)
        for n_max in (1, 5, 20):
            children = Fraction(1)
            for d in range(1, n_max + 1):
                children *= measure_of_cylinder(w + (d,)).arg
            assert children < parent.arg
            remainder = _child_tail(w, n_max)
            assert children * remainder.arg == parent.arg
    # n_max = 0 leaves every child unenumerated: the whole cylinder
    assert _child_tail((2,), 0) == measure_of_cylinder((2,))




def test_joint_pattern_measure_small_cases():
    bm = joint_pattern_measure(2, 3)
    leaves = [Fraction(25, 24), Fraction(49, 48), Fraction(81, 80)]
    assert bm.lower.arg == Fraction(366368466338217437469111820989769973758, ONE)
    # the child tail of the root (1,): a second digit past 3, arg 10/9,
    # which enters halved as 1 + (5/9)(1/9) = 86/81
    assert _child_tail((1,), 3).arg == Fraction(10, 9)
    assert _share_oracle(1, 3) == Fraction(1, 2)
    assert _factor_oracle(Fraction(10, 9), Fraction(1, 2)) == Fraction(86, 81)
    assert bm.tail_bound.arg == Fraction(361287451298774171084570570853482298590, ONE)
    _assert_dyadic_ends(bm, leaves, [Fraction(86, 81)])

    bm = joint_pattern_measure(3, 1)
    # the one leaf's arg is a dyadic rational, which the floor keeps whole
    assert bm.lower == measure_of_cylinder((1, 1, 1, 1)) == LogRational(Fraction(65, 64))
    # the inner nodes (1,) and (1, 1), each missing every child past 1; at
    # cap 1, L_2 = 1/6 + 1/2, with 1/6 rounded up, and (3/2)**2 L_2 > 1/2,
    # so both enter halved
    assert _lebesgue_upper_oracle(2, 1) == Fraction(-(-ONE // 6), ONE) + Fraction(1, 2)
    assert _share_oracle(2, 1) == _share_oracle(1, 1) == Fraction(1, 2)
    nodes = [_child_tail((1,), 1).arg, _child_tail((1, 1), 1).arg]
    assert bm.tail_bound.arg == Fraction(394667050985280450779565500246196588722, ONE)
    _assert_dyadic_ends(bm, [Fraction(65, 64)], [_factor_oracle(a, Fraction(1, 2)) for a in nodes])

    with pytest.raises(ValueError):
        joint_pattern_measure(1, 10)
    with pytest.raises(ValueError):
        joint_pattern_measure(2, 0)


def test_joint_k2_terms_match_middle_digit_formula():
    # term for middle digit n must be (2n+3)^2 / ((2n+3)^2 - 1)
    for n in range(1, 30):
        m = 2 * n + 3
        assert measure_of_cylinder((1, n, 1)).arg == Fraction(m * m, m * m - 1)


def test_joint_k2_bracket_contains_closed_form():
    # independent oracle: the term product telescopes to 32/(9 pi)
    bm = joint_pattern_measure(2, 1000)
    lo, hi = bm.bracket()
    assert lo <= K2_ORACLE <= hi
    # the halved tail: the plain child tail gave 0.00072
    assert hi - lo < 0.00037
    assert bm.lower.float == pytest.approx(0.178219, abs=1e-6)


def test_joint_k2_exceeds_gamma_11_exactly():
    bm = joint_pattern_measure(2, 1000)
    assert bm.lower > measure_of_cylinder((1, 1))


def test_joint_monotone_truncation():
    caps = [5, 20, 80, 300]
    measures = {cap: joint_pattern_measure(2, cap) for cap in caps}
    for c1, c2 in zip(caps, caps[1:]):
        assert measures[c1].lower <= measures[c2].lower
        # both brackets contain the true value, so they must overlap
        assert measures[c2].lower <= measures[c1].upper
        assert measures[c2].tail_bound < measures[c1].tail_bound


def test_joint_k3_bracket_is_consistent_with_k2_structure():
    bm = joint_pattern_measure(3, 40)
    assert isinstance(bm, BoundedMeasure)
    # the k=2 tail is the root's child tail; the nodes (1, a) add theirs, and
    # together they stay under the union bound of two first-digit tails
    assert joint_pattern_measure(2, 40).tail_bound < bm.tail_bound
    assert bm.tail_bound < LogRational(Fraction(42, 41) ** 2)
    assert bm.lower < measure_of_cylinder((1,))


@pytest.mark.parametrize(
    "k,cap,fine_cap",
    [(2, 1, 5000), (2, 5, 5000), (2, 50, 5000), (3, 1, 200), (3, 3, 200), (3, 10, 200),
     (4, 1, 40), (4, 2, 40), (4, 5, 40), (3, 150, 1000)],
)
def test_joint_bracket_contains_a_finer_lower_bound(k, cap, fine_cap):
    # the true value is at least every lower bound, so each bracket must
    # reach the lower bound of a larger cap, decided exactly
    bm, fine = joint_pattern_measure(k, cap), joint_pattern_measure(k, fine_cap)
    assert bm.lower <= fine.lower <= bm.upper


def test_halved_tail_bounds_a_power_of_the_child_tail():
    # Bernoulli's step A**(A/2) <= 1 + (A/2)(A - 1) at A = n/d, raised to the
    # power 2d to clear every root and denominator, in integers
    for d in range(1, 25):
        for n in range(d, 2 * d + 1):
            assert n**n * (2 * d * d) ** (2 * d) <= (2 * d * d + n * (n - d)) ** (2 * d) * d**n


def test_tail_factor_bounds_every_rational_power_of_the_child_tail():
    # Bernoulli's step A**c <= 1 + c (A - 1) for 0 <= c = r/s <= 1 at
    # A = n/d, raised to the power s d to clear every root and denominator,
    # in integers; the tail factor is the case c = sigma A
    for d in range(1, 13):
        for n in range(d, 2 * d + 1):
            for s in range(1, 9):
                for r in range(s + 1):
                    assert n**r * (s * d) ** s <= (s * d + r * (n - d)) ** s * d**r


def test_lebesgue_upper_at_one_digit_is_exactly_a_half():
    # the one leaf is C_[1] = (1/2, 1), a dyadic length, so sigma_1 = 1/2 at
    # every cap and the nodes next to the leaves enter halved
    for cap in (1, 2, 3, 12, 150, 1000):
        assert measure._lebesgue_upper(1, cap) == Fraction(1, 2)
        assert measure._share(1, cap) == Fraction(1, 2)


@pytest.mark.parametrize(
    "j,cap", [(1, 5), (2, 1), (2, 7), (2, 40), (3, 1), (3, 6), (4, 3), (4, 5), (5, 2)]
)
def test_lebesgue_upper_matches_the_fraction_oracle(j, cap):
    assert measure._lebesgue_upper(j, cap) == _lebesgue_upper_oracle(j, cap)
    assert measure._share(j, cap) == _share_oracle(j, cap)


def test_lebesgue_upper_two_bounds_its_closed_form_at_every_cap():
    # lambda_2 = 2 ln 2 - 1: the words a.1 take sum 1/((a+1)(2a+1)); each
    # bound holds it, and a larger cap never loosens it; 60 digits put
    # lambda_2 within 1e-59 of the Decimal, which the comparison adds
    with localcontext() as ctx:
        ctx.prec = 60
        lambda_2 = Fraction(2 * Decimal(2).ln() - 1) + Fraction(1, 10**59)
    previous = Fraction(1)
    for cap in range(1, 1001):
        bound = measure._lebesgue_upper(2, cap)
        assert bound >= lambda_2, cap
        assert bound <= previous, cap
        previous = bound
    # sigma_2 falls below 1/2 from cap 12
    assert measure._share(2, 11) == Fraction(1, 2) > measure._share(2, 12)


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 10, 25])
def test_lebesgue_upper_three_holds_a_finer_lower_sum(cap):
    # the cylinders v.1 with |v| = 2 and digits <= 4 cap lie inside
    # {a_3 = 1}, so their exact lengths sum to a lower bound on lambda_3
    digits = range(1, 4 * cap + 1)
    lower = sum(abs(_folded_value(v + (1,)) - _folded_value(v + (2,))) for v in product(digits, repeat=2))
    assert lower <= measure._lebesgue_upper(3, cap)


@pytest.mark.parametrize("cap", [20, 40])
def test_each_k3_node_factor_holds_its_omitted_leaves(cap):
    # node 1.u omits the leaves 1.u.a.v.1 with a > cap; those with every
    # digit <= 10 cap weigh at least the floor of their product, which the
    # node's factor must reach on its own
    k, fine = 3, 10 * cap
    for u in [()] + [(a,) for a in range(1, cap + 1)]:
        j = k - 1 - len(u)
        share = measure._share(j, cap)
        factor = Fraction(*measure._tail_factor(*_kernel_arg((1,) + u, cap + 1), share))
        omitted = (
            _kernel_arg((1,) + u + (a,) + v + (1,))
            for a in range(cap + 1, fine + 1)
            for v in product(range(1, fine + 1), repeat=j - 1)
        )
        assert _dyadic_product(omitted, up=False) <= factor, u


def test_gamma_tail_sum_at_one_is_the_k2_closed_form():
    # the k=2 terms telescope against the Wallis product, and so does the
    # Gamma product at u = (1,)
    assert _gamma_tail_sum((1,)) == pytest.approx(K2_ORACLE, abs=1e-13)


def test_k3_brackets_hold_the_gamma_oracle_on_both_sides():
    # J_3 sums the Gamma sums of the nodes (1, a); the terms fall as 1/a**2,
    # so the partial sum S(A) misses about c/A, and 2 S(2A) - S(A) cancels
    # that term.  Two such estimates agree far inside the margin.
    partial = {}
    total = 0.0
    for a in range(1, 80_001):
        total += _gamma_tail_sum((1, a))
        if a in (20_000, 40_000, 80_000):
            partial[a] = total
    j3 = 2 * partial[80_000] - partial[40_000]
    assert abs(j3 - (2 * partial[40_000] - partial[20_000])) < 1e-9
    assert j3 == pytest.approx(J3_GAMMA_FORM, abs=1e-9)
    # each end must miss J_3 by more than the margin, on its own side
    for cap in [*range(1, 61), *range(75, 301, 15)]:
        lo, hi = joint_pattern_measure(3, cap).bracket()
        assert lo < j3 - 1e-9 and j3 + 1e-9 < hi, cap


@pytest.mark.parametrize("cap", [1, 10, 150])
def test_each_k3_node_factor_holds_its_exact_omitted_mass(cap):
    # node (1, a) omits the leaves (1, a, b, 1) with b > cap: the Gamma sum
    # less the kept leaves, each read off its exact arg
    for a in range(1, 21):
        u = (1, a)
        kept = math.fsum(math.log1p(_oracle_arg(u + (b, 1)) - 1) for b in range(1, cap + 1))
        omitted = _gamma_tail_sum(u) - kept / math.log(2)
        num, den = measure._tail_factor(*_kernel_arg(u, cap + 1), measure._share(1, cap))
        assert 0 < omitted <= math.log1p(Fraction(num - den, den)) / math.log(2), a


# The transfer-operator oracle: J_k = gamma(C_1 intersect T^-k C_1) is
# lag_measure((1,), k - 1, (1,)), good to about 1e-12 at every k.


def test_lag_measure_gives_the_closed_forms_at_lags_1_and_2():
    # J_1 = gamma(C_11), and J_2 is the k=2 joint measure
    assert lag_measure((1,), 0, (1,)) == pytest.approx(math.log2(10 / 9), abs=1e-11)
    assert lag_measure((1,), 1, (1,)) == pytest.approx(K2_ORACLE, abs=1e-11)


def test_lag_measure_gives_the_gamma_form_at_lag_3():
    assert lag_measure((1,), 2, (1,)) == pytest.approx(J3_GAMMA_FORM, abs=1e-9)


def test_transfer_operator_has_wirsings_second_eigenvalue():
    # Wirsing (1974): the Gauss-Kuzmin operator's second eigenvalue
    assert second_eigenvalue() == pytest.approx(-0.3036630028987, abs=1e-11)


@pytest.mark.parametrize(
    "u,v",
    [((1,), (1,)), ((2, 3), (1,)), ((7,), (1, 1)), ((1, 2, 3), (4, 5, 6)), ((1,) * 5, (3,) * 4), ((100,), (1,))],
)
def test_lag_measure_at_gap_0_is_the_cylinder_of_u_then_v(u, v):
    # from the exact arg by log1p, as LogRational.float loses digits on small measures
    exact = math.log1p(measure_of_cylinder(u + v).arg - 1) / math.log(2)
    assert lag_measure(u, 0, v) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("k,caps,j_k", [(4, range(1, 61), 0.1728355001), (5, range(1, 16), 0.1720803725)])
def test_k4_and_k5_brackets_hold_the_operator_oracle_on_both_sides(k, caps, j_k):
    j = lag_measure((1,), k - 1, (1,))
    assert j == pytest.approx(j_k, abs=1e-10)
    # each end must miss J_k by more than the oracle's error, on its own side
    for cap in caps:
        lo, hi = joint_pattern_measure(k, cap).bracket()
        assert lo < j - 1e-9 and j + 1e-9 < hi, cap


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(2), st.integers(1, 5000), st.just(None)),
        st.tuples(st.just(3), st.integers(1, 60)).map(lambda kc: (*kc, 4 * kc[1])),
        st.tuples(st.just(4), st.integers(1, 8)).map(lambda kc: (*kc, 4 * kc[1])),
    )
)
@example((2, 1, None))
@example((2, 5000, None))
@example((3, 20, 80))
@example((4, 5, 20))
# sigma_2 < 1/2 from cap 12, so these caps take the Lebesgue share
@example((3, 40, 400))
@example((3, 150, 1000))
@example((4, 20, 80))
def test_halved_bracket_contains_the_true_value(k_cap_fine):
    # k=2 against the closed form; k = 3 and 4 against the lower end of a
    # larger cap, which the true value is at least
    k, cap, fine = k_cap_fine
    bm = joint_pattern_measure(k, cap)
    if k == 2:
        assert bm.contains(K2_ORACLE)
    else:
        assert bm.lower <= joint_pattern_measure(k, fine).lower <= bm.upper


@pytest.mark.parametrize("k,cap", [(2, 1), (2, 7), (3, 1), (3, 6), (4, 3), (4, 12), (5, 2), (6, 1)])
def test_joint_tail_is_the_sum_of_inner_child_tails(k, cap):
    # each inner word 1.u, |u| <= k-2, from its own convergent_pair; at
    # (4, 12) sigma_2 < 1/2, so the depth-1 nodes take the Lebesgue share
    # and the depth-0 node another, and the tails must keep their order
    _assert_dyadic_ends(joint_pattern_measure(k, cap), *_exact_ends(k, cap))


def _same(xs, ys):
    """xs and ys yield equal items in the same order, and as many of them."""
    return all(x == y for x, y in zip_longest(xs, ys))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.just(()), st.just((1,)), words), st.integers(1, 8), st.integers(0, 4))
# depth 0: the one leaf h.1, off the depth -1 parent
@example((1,), 8, 0)
# the empty head: q' = 0, and the depth -1 parent has q = 0
@example((), 1, 0)
@example((), 8, 0)
@example((), 3, 4)
# k = 2 at the middle-word limit: one row of 10**6 leaves
@example((1,), 10**6, 1)
def test_cover_yields_the_walks_it_replaces(w, cap, depth):
    # the leaves are each depth-walk pair closed by the append-1 map, and
    # the tails each shallower walk shifted by cap, depth by depth
    head = convergent_pair(w)
    *tails, leaves = measure._cover(cap, depth, head)
    walk = iter_prefix_pairs(cap, depth, head)
    assert _same(leaves, ((p + p_prev, q + q_prev, p, q) for p, q, p_prev, q_prev in walk))
    assert len(tails) == depth
    for d, level in enumerate(tails):
        walk = iter_prefix_pairs(cap, d, head)
        shifted = ((p, q, cap * p + p_prev, cap * q + q_prev) for p, q, p_prev, q_prev in walk)
        assert _same(level, shifted)


def _log2_oracle(x):
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(x.numerator).ln() - Decimal(x.denominator).ln()) / Decimal(2).ln()


@pytest.mark.parametrize(
    "k,cap", [(2, 1), (2, 3), (2, 1000), (2, 5000), (3, 40), (3, 150), (4, 10), (5, 3)]
)
def test_bracket_ends_are_outward_of_the_exact_log2(k, cap):
    # the float ends hold the log2 of the dyadic ends and of the exact
    # products, which the dyadic ends round outward
    bm = joint_pattern_measure(k, cap)
    lo, hi = bm.bracket()
    leaves, factors = _exact_ends(k, cap)
    exact_lower = _sequential_product(leaves)
    for lower_arg, upper_arg in (
        (bm.lower.arg, bm.upper.arg),
        (exact_lower, exact_lower * _sequential_product(factors)),
    ):
        lower, upper = _log2_oracle(lower_arg), _log2_oracle(upper_arg)
        assert Decimal(lo) <= lower and upper <= Decimal(hi)
        # and no wider than the rounding needs
        assert lower - Decimal(lo) < Decimal("1e-15") and Decimal(hi) - upper < Decimal("1e-15")


def test_joint_ends_are_rounded_sequential_products():
    # each end is the left-to-right product of the Fraction term args,
    # rounded after each term, on the outward side of the exact product
    for k, cap in ((2, 200), (3, 12)):
        leaves, factors = _exact_ends(k, cap)
        assert len(leaves) == cap ** (k - 1)
        _assert_dyadic_ends(joint_pattern_measure(k, cap), leaves, factors)


def test_joint_refuses_too_many_middle_words():
    for k, cap in ((5, 1000), (3, 1001), (2, MAX_MIDDLE_WORDS + 1), (10**12, 2)):
        with pytest.raises(ValueError) as exc:
            joint_pattern_measure(k, cap)
        message = str(exc.value)
        assert f"k={k}" in message and f"cap={cap}" in message
        assert f"{cap}**{k - 1} middle words" in message


def test_joint_middle_word_limit_boundary(monkeypatch):
    monkeypatch.setattr(measure, "MAX_MIDDLE_WORDS", 9)
    joint_pattern_measure(3, 3)
    joint_pattern_measure(2, 9)
    # k-1 may not pass the limit's bit length, 4, at any cap
    joint_pattern_measure(5, 1)
    for k, cap in ((3, 4), (2, 10), (4, 3), (6, 1), (40, 1)):
        with pytest.raises(ValueError):
            joint_pattern_measure(k, cap)


def test_joint_refuses_a_deep_walk_at_cap_1():
    # 20 middle digits is the bit length of MAX_MIDDLE_WORDS
    assert MAX_MIDDLE_WORDS.bit_length() == 20
    leaf = measure_of_cylinder((1,) * 22).arg
    bm = joint_pattern_measure(21, 1)
    assert bm.lower.arg == Fraction(340282367079209963117941817213984815977, ONE)
    # the node 1^n omits leaves 21 - n digits past its tail's digit
    factors = [_factor_oracle(_child_tail((1,) * n, 1).arg, _share_oracle(21 - n, 1)) for n in range(1, 21)]
    _assert_dyadic_ends(bm, [leaf], factors)
    for k in (22, 10**5, 10**12):
        with pytest.raises(UsageError, match=f"k={k}, cap=1 would walk"):
            joint_pattern_measure(k, 1)


@settings(max_examples=300, deadline=None)
@given(words)
@example((1,))
@example((10**6,) * 40)
def test_cylinder_arg_matches_interval_oracle(w):
    num, den = _kernel_arg(w)
    assert num > 0 and den > 0
    assert Fraction(num, den) == _oracle_arg(w)
    assert measure_of_cylinder(w).arg == _oracle_arg(w)


@settings(max_examples=200, deadline=None)
@given(words, st.one_of(st.integers(1, 60), st.integers(1, 10**30)))
@example((1,), 1)
@example((2, 3), 7)
def test_pair_maps_match_the_recurrence_and_the_kernel(w, m):
    # the maps the pair-level checks read neighbours' pairs by
    p, q, p_prev, q_prev = convergent_pair(w)
    assert convergent_pair(reverse(w)) == (q_prev, q, p_prev, p)
    assert convergent_pair((1,) + w) == (q, q + p, q_prev, q_prev + p_prev)
    assert convergent_pair(w + (1,)) == (p + p_prev, q + q_prev, p, q)
    assert convergent_pair((1,) + w + (1,)) == (q + q_prev, q + p + q_prev + p_prev, q, q + p)
    assert convergent_pair((1, 1) + w) == (q + p, 2 * q + p, q_prev + p_prev, 2 * q_prev + p_prev)


@settings(max_examples=200, deadline=None)
@given(words, st.one_of(st.integers(1, 60), st.integers(1, 10**30)))
@example((1,), 1)
@example((2, 3), 10**6)
def test_cylinder_arg_of_child_tail_matches_value_oracle(w, m):
    # the interval between [0; w] and [0; w, m], from Fraction values
    a, b = _value(w), _value(w + (m,))
    lo, hi = min(a, b), max(a, b)
    num, den = _kernel_arg(w, m)
    assert num > 0 and den > 0
    assert Fraction(num, den) == (1 + hi) / (1 + lo)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(1, 60), st.integers(1, 10**30)),
            st.one_of(st.integers(0, 60), st.integers(0, 10**30)),
        ),
        max_size=300,
    )
)
@example([])
@example([(3, 0), (2, 1), (9, 9)])
def test_dyadic_product_brackets_the_exact_product(terms):
    # terms num/den = (den + extra)/den >= 1, as the joint measure's args are
    terms = [(den + extra, den) for den, extra in terms]
    fractions = [Fraction(num, den) for num, den in terms]
    exact = _sequential_product(fractions)
    low, high = _dyadic_product(terms, up=False), _dyadic_product(terms, up=True)
    assert low == _rounded_product(fractions, up=False)
    assert high == _rounded_product(fractions, up=True)
    slack = Fraction(len(terms), ONE)
    assert exact * (1 - slack) <= low <= exact <= high <= exact * (1 + slack)
