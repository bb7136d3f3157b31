"""Exact Gauss-measure arithmetic in log-rational form.

A cylinder measure is log2 of a rational > 1, so it is stored as that
rational (the "arg") and every comparison or sum is exact integer work:
adding measures multiplies args, comparing measures cross-multiplies.
Floats appear only when rendering reports.

The cylinder kernel is integer-only.  `_arg(p, q, p', q', odd)` reads
the arg of C_w off w's convergent pair (p, q, p', q') = convergent_pair(w)
and the parity of |w|, with only + and *, as an unreduced pair (num, den)
of positive integers.  The child tail of w past a digit N, the interval
between [0; w] and [0; w, N+1], is read off the shifted pair
(p, q, N p + p', N q + q') the same way.  Three maps on the pair give the
pairs of a word's neighbours without a second recurrence: reversal swaps
p and q', prepending a 1 maps (p, q, p', q') to (q, q + p, q', q' + p'),
and appending a 1 maps it to (p + p', q + q', p, q).  The row checks of
`verify` are built on the kernel and these maps.

The joint measure is a bracket [lower, upper] that holds the true value.
It reads both ends off one cover, `_cover`, the tree of the middle words
with digits <= cap: lower off the leaves' cylinders, which `_cover` builds
as rows of their parents, and upper off lower and the inner nodes' child
tails, which it yields depth by depth.  Each end's terms are multiplied in
`_dyadic_product`, a 128-bit fixed-point product that rounds the leaves
down and the tails up, so each product is a certified dyadic rational of
about 128 bits, however many terms it has.  Each child tail of
arg A enters as 1 + sigma A (A - 1).  Its omitted leaves end in a 1 that
lies j digits past the tail's digit, and they take at most a share sigma A
of the tail, where A covers how far the Gauss density varies on it and
sigma is the smaller of two Lebesgue shares: 1/2, that of a next digit 1
in any cylinder, and L_j ((N+2)/(N+1))**2 at cap N.  L_j bounds the
Lebesgue measure of {y : a_j(y) = 1} by the lengths of the same cover from
the empty word, and the factor covers how far the pushforward of Lebesgue
measure past a digit > N varies.  Bernoulli's inequality then bounds
A**(sigma A) by 1 + sigma A (A - 1) (see `joint_pattern_measure`).
L_1 = 1/2, so the nodes next to the leaves enter as 1 + (A/2)(A - 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .cfcore import Pair, UsageError, Word, convergent_pair, iter_prefix_pairs, shown

# The cap on the middle digits of a joint measure when the caller sets none.
DEFAULT_CAP = 1000


class _LogRationalFields(NamedTuple):
    # _make and _replace build past LogRational.__new__ and its check: no code calls them
    arg: Fraction


class LogRational(_LogRationalFields):
    """A measure value log2(arg) with exact rational arg >= 1.

    Equality, order and hash are those of arg; an int arg is made a Fraction.
    """

    __slots__ = ()

    def __new__(cls, arg: Fraction | int) -> LogRational:
        arg = Fraction(arg)
        if arg < 1:
            raise ValueError(f"measure argument must be >= 1, got {arg}")
        return super().__new__(cls, arg)

    @property
    def float(self) -> float:
        # log2 on the integer parts stays finite for arbitrarily large args.
        return math.log2(self.arg.numerator) - math.log2(self.arg.denominator)

    def __repr__(self) -> str:
        return f"log2({self.arg.numerator}/{self.arg.denominator})"


def _arg(p: int, q: int, p_prev: int, q_prev: int, odd: int) -> tuple[int, int]:
    """The arg (1 + hi)/(1 + lo) of the interval between p/q and (p + p')/(q + q').

    With (p, q, p', q') = convergent_pair(w) and odd = |w| % 2 that interval
    is C_w, so this is the arg of gamma(C_w), as an unreduced pair
    (num, den).  The interval between [0; w] and [0; w, m] is that of the
    shifted pair (p, q, (m-1) p + p', (m-1) q + q').  With
    p2/q2 = (p + p')/(q + q'), 1 + p/q = (q + p)/q; odd |w| puts p/q on top,
    even |w| puts p2/q2 on top.  Both parts are positive.
    """
    p2, q2 = p + p_prev, q + q_prev
    if odd:
        return (q + p) * q2, q * (q2 + p2)
    return (q2 + p2) * q, q2 * (q + p)


def measure_of_cylinder(w: Word) -> LogRational:
    """gamma(C_w) = log2((1 + hi)/(1 + lo)) over the cylinder's endpoints.

    This is the closed form of (1/ln 2) * integral of dx/(1+x) over the
    cylinder interval.  The empty word's cylinder is all of (0, 1), of
    measure 1.
    """
    return LogRational(Fraction(*_arg(*convergent_pair(w), len(w) % 2)))


def _log2_outward(x: Fraction, direction: int) -> float:
    """A float at or past log2(x) in the sign of direction.

    With e the difference of the parts' bit lengths, int true division
    rounds x / 2**e in (1/2, 2) correctly; its log2 then errs by less than
    2**-51, and 2 ulps cover adding e.  (LogRational.float, a difference of
    two large log2s, can cancel away ~1e-11.)
    """
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    y = e + math.log2((num << max(-e, 0)) / (den << max(e, 0)))
    return y + direction * (2.0**-51 + 2 * math.ulp(y))


class BoundedMeasure(NamedTuple):
    """Certified dyadic ends: the true value lies in [lower, upper].

    tail_bound = upper - lower, as adding measures multiplies their args.
    """

    lower: LogRational
    upper: LogRational

    @property
    def tail_bound(self) -> LogRational:
        return LogRational(self.upper.arg / self.lower.arg)

    def bracket(self) -> tuple[float, float]:
        """Outward-rounded float bracket [lo, hi] containing the true value."""
        return (_log2_outward(self.lower.arg, -1), _log2_outward(self.upper.arg, +1))

    def contains(self, x: float) -> bool:
        lo, hi = self.bracket()
        return lo <= x <= hi


# Most middle words a joint measure may enumerate.  k=3 at cap 1000 is the
# largest k=3 run allowed (about 0.6 s on a 2-vCPU host with Python 3.11);
# k=5 at DEFAULT_CAP (10**12 words) is refused up front instead of running
# for days.
MAX_MIDDLE_WORDS = 10**6


# The joint measure's products are carried as integers over _ONE = 2**_DYADIC_BITS.
_DYADIC_BITS = 128
_ONE = 1 << _DYADIC_BITS


def _dyadic_product(terms: Iterable[tuple[int, int]], up: bool) -> Fraction:
    """The product of the fractions num/den >= 1 in `terms`, rounded down, or up if `up`.

    x starts at 2**_DYADIC_BITS and each term sets it to floor(x num/den),
    or to the ceiling.  As num >= den, x never falls below its start, so a
    step errs by less than 1 part in 2**_DYADIC_BITS of x, and n terms by
    less than n parts in all: the result lies within a factor
    1 -+ n 2**-_DYADIC_BITS of the exact product, on the side `up` names.
    """
    x = _ONE
    if up:
        for num, den in terms:
            x = -(-x * num // den)
    else:
        for num, den in terms:
            x = x * num // den
    return Fraction(x, _ONE)


def _cover(cap: int, depth: int, head: Pair) -> Iterator[Iterator[Pair]]:
    """Yield the tree of the words h.u with digits <= cap and |u| <= depth, level by level.

    h is the word whose pair is `head`.  For each d < depth it yields the
    walk of the inner nodes h.u, |u| = d, each pair (p, q, p', q') shifted
    to (p, q, cap p + p', cap q + q'), the pair of the node's child tail
    past cap; then it yields the pairs of the leaves h.u.1, |u| = depth, in
    itertools.product order.  The leaves are built as rows: each parent h.v
    at depth - 1 steps its last digit a = 1, 2, ... by adding (p, q), which
    gives h.v.a's pair (P, Q, p, q), and the append-1 map closes it into
    (P + p, Q + q, P, Q), so no walk visits the leaf depth.  At depth 0 the
    row is the one leaf h.1, of the parent `iter_prefix_pairs` yields at
    depth -1.  Each pair's interval has length 1/(q (q + q')) and the arg
    `_arg` reads off it.
    """

    def leaves() -> Iterator[Pair]:
        for p, q, p_prev, q_prev in iter_prefix_pairs(cap, depth - 1, head):
            for _ in range(cap if depth else 1):
                p_prev, q_prev = p + p_prev, q + q_prev
                yield p + p_prev, q + q_prev, p_prev, q_prev

    for d in range(depth):
        walk = iter_prefix_pairs(cap, d, head)
        yield ((p, q, cap * p + p_prev, cap * q + q_prev) for p, q, p_prev, q_prev in walk)
    yield leaves()


def _lebesgue_upper(j: int, cap: int) -> Fraction:
    """L_j >= lambda_j, the Lebesgue measure of {y in (0, 1) : a_j(y) = 1}.

    It sums the lengths 1/(q (q + q')) of the pairs of one `_cover` from the
    empty word at depth j-1: each inner node v's whole child tail, the
    interval between [0; v] and [0; v, cap+1], and the leaves v.1,
    |v| = j-1.  Every y with a_j(y) = 1 lies in a leaf or in a child tail,
    and every term is rounded up on the grid 2**-_DYADIC_BITS, so the sum
    is at least lambda_j.  At j = 1 the one leaf is C_[1] = (1/2, 1):
    L_1 = 1/2 exactly.
    """
    cover = chain.from_iterable(_cover(cap, j - 1, convergent_pair(())))
    return Fraction(sum(-(-_ONE // (q * (q + q_prev))) for _, q, _, q_prev in cover), _ONE)


def _share(j: int, cap: int) -> Fraction:
    """sigma_j = min(1/2, L_j ((cap+2)/(cap+1))**2), L_j = _lebesgue_upper(j, cap).

    A child tail's omitted leaves, whose final 1 lies j digits past the
    tail's digit, take at most a share sigma_j A of its measure.
    """
    return min(Fraction(1, 2), _lebesgue_upper(j, cap) * Fraction(cap + 2, cap + 1) ** 2)


def _tail_factor(num: int, den: int, share: Fraction) -> tuple[int, int]:
    """B = 1 + share A (A - 1) for A = num/den, as an unreduced pair (num, den)."""
    s, t = share.numerator, share.denominator
    return t * den * den + s * num * (num - den), t * den * den


def check_joint_walk(k: int, cap: int) -> None:
    """Refuse a joint measure at k < 2 or cap < 1, or one whose walk passes the limit.

    k-1 may not exceed the bit length of MAX_MIDDLE_WORDS, nor cap**(k-1)
    MAX_MIDDLE_WORDS.  It costs no walk, so a run can call it before it
    draws a digit and compute the measure afterwards.
    """
    if k < 2:
        raise UsageError("need k >= 2")
    if cap < 1:
        raise UsageError("need cap >= 1")
    # past the bit length, cap**(k-1) > MAX_MIDDLE_WORDS for every cap >= 2
    max_depth = MAX_MIDDLE_WORDS.bit_length()
    if k - 1 > max_depth or cap ** (k - 1) > MAX_MIDDLE_WORDS:
        if cap == 1:
            raise UsageError(
                f"joint measure at k={shown(k)}, cap=1 would walk k-1 = {shown(k - 1)} middle "
                f"digits, more than the limit of {max_depth}"
            )
        raise UsageError(
            f"joint measure at k={shown(k)}, cap={shown(cap)} would enumerate "
            f"cap**(k-1) = {shown(cap)}**{shown(k - 1)} middle words, "
            f"more than the limit of {MAX_MIDDLE_WORDS}"
        )


def joint_pattern_measure(k: int, cap: int) -> BoundedMeasure:
    """Bracket gamma(C_[1] intersect T^-k C_[1]) by one cover of the middle digits.

    `_cover`(cap, k-1) from the word 1 holds each 1.u with digits <= cap and
    |u| <= k-1.  lower sums gamma(C_[1,u,1]) over its leaves, |u| = k-1,
    built as rows of their parents, rounded down.  upper adds to lower, over
    the inner nodes, which the cover yields depth by depth, a bound on what
    the node omits.  Its child tail I = {x in C_[1,u] : digit |u| + 2 of x
    exceeds cap}, with arg A = (1 + hi)/(1 + lo) = `_arg` of the shifted
    pair (p, q, cap p + p', cap q + q') of 1.u that the cover yields, holds
    each omitted leaf C_[1,u,a,v,1], a > cap and |v| = j - 1 with
    j = k-1-|u|, and every omitted leaf lies in exactly one such I.  The
    node adds log2 B, B = `_tail_factor`(A, sigma_j) = 1 + sigma_j A (A - 1),
    with N = cap and sigma_j = `_share`(j, N) = min(1/2, L_j ((N+2)/(N+1))**2),
    where L_j = `_lebesgue_upper`(j, N) bounds the Lebesgue measure lambda_j
    of {y in (0, 1) : a_j(y) = 1}:
    - Over any C_w in I the Gauss density 1/((1+x) ln 2) varies by at most
      the factor (1+hi_w)/(1+lo_w) <= A.
    - For each word w with C_w in I, gamma(C_(w.1)) <= (1/(2+s)) A gamma(C_w)
      <= (A/2) gamma(C_w), with s = q_(|w|-1)/q_|w|: 1/(2+s) <= 1/2 is the
      Lebesgue share of a next digit 1 in C_w.  Summed over the words
      w = 1.u.a.v, the omitted leaves take at most a share A/2 of I.
    - On C_w with w = 1.u.a, T^|w| pushes Lebesgue measure forward to a
      density on (0, 1) proportional to (1 + s y)**-2, where s < 1/(N+1)
      as a > N, so it varies by at most (1+s)**2 < ((N+2)/(N+1))**2.  With
      the Gauss density, the law of T^|w| x on C_w varies by at most
      R = A ((N+2)/(N+1))**2, so it is at most R times its mean 1, and
      {a_j(y) = 1} takes at most a share lambda_j R of it.  Summed over a,
      the omitted leaves take at most a share L_j R of I.
    - So the omitted mass is at most sigma_j A log2 A = log2 A**c with
      c = sigma_j A.  Since 1 <= A <= 2, c <= 1, and Bernoulli's inequality
      A**c <= 1 + c (A - 1) for 0 <= c <= 1 gives B.
    L_1 = lambda_1 = 1/2, so sigma_1 = 1/2, and the nodes at depth k-2 (every
    node at k=2) enter as 1 + (A/2)(A - 1).  The product of the factors B is
    rounded up, and covers lower's rounding too.  `check_joint_walk` refuses
    k and cap before any work.
    """
    check_joint_walk(k, cap)
    *tails, leaves = _cover(cap, k - 1, convergent_pair((1,)))
    odd = (k - 1) % 2
    # the omitted leaves of a node at depth d end k-1-d digits past its tail's digit
    shares = [_share(k - 1 - depth, cap) for depth in range(k - 1)]
    factors = (
        _tail_factor(*_arg(*pair, (1 + depth) % 2), shares[depth])
        for depth, level in enumerate(tails)
        for pair in level
    )
    leaf_args = (_arg(p, q, p_prev, q_prev, odd) for p, q, p_prev, q_prev in leaves)
    lower = _dyadic_product(leaf_args, up=False)
    # The n = cap**(k-1) floors of lower leave the exact leaf product below
    # lower / (1 - n 2**-_DYADIC_BITS) <= lower (1 + 2n 2**-_DYADIC_BITS), so
    # the tail takes that factor too and lower * tail stays an upper end.
    tail = _dyadic_product(chain(factors, [(_ONE + 2 * cap ** (k - 1), _ONE)]), up=True)
    return BoundedMeasure(LogRational(lower), LogRational(lower * tail))
