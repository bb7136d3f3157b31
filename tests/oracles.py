"""Reference values the measure and verify tests share, each computed apart from cflab.measure.

`_oracle_arg` reads a cylinder's arg off its interval endpoints, `_value`
reads [0; w] off the convergent recurrence, and `_gamma_tail_sum` sums
gamma(C_(u.b.1)) over every b >= 1 in closed form, from Gamma values.
"""

import math
from fractions import Fraction

from hypothesis import strategies as st

from cflab import cylinder_interval
from cflab.cfcore import convergent_pair


def _oracle_arg(w):
    """The cylinder arg as Fractions over the interval endpoints."""
    iv = cylinder_interval(w)
    return (1 + iv.hi) / (1 + iv.lo)


def _value(w):
    """[0; w] read off the recurrence: p_n/q_n of convergent_pair(w)."""
    p, q, _, _ = convergent_pair(w)
    return Fraction(p, q)


words = st.lists(st.integers(1, 10**6), min_size=1, max_size=40).map(tuple)


def _gamma_tail_sum(u):
    """The sum of gamma(C_(u.b.1)) over all b >= 1, as a float, from math.lgamma.

    With (P, Q, P', Q') = convergent_pair(u), u' = (P' + Q')/(P + Q) and
    v' = Q'/Q, the ends of C_(u.b.1) have 1 + x = (P + Q)(b + 1 + u')/(Q (b + 1 + v'))
    and (P + Q)(b + 1/2 + u')/(Q (b + 1/2 + v')).  So its arg is
    (b + alpha1)(b + alpha2)/((b + beta1)(b + beta2)), or its inverse by the
    parity of |u|, with alpha = (1 + u', 1/2 + v') and beta = (1 + v', 1/2 + u').
    As alpha1 + alpha2 = beta1 + beta2, the product over b >= 1 converges to
    Gamma(1 + beta1) Gamma(1 + beta2) / (Gamma(1 + alpha1) Gamma(1 + alpha2)),
    and the sum is the absolute value of its log2.  At u = (1,) it is the
    k=2 joint measure, log2(32/(9 pi)).
    """
    p, q, p_prev, q_prev = convergent_pair(u)
    u_prime, v_prime = (p_prev + q_prev) / (p + q), q_prev / q
    lg = math.lgamma
    return abs(
        lg(2 + v_prime) + lg(1.5 + u_prime) - lg(2 + u_prime) - lg(1.5 + v_prime)
    ) / math.log(2)
