"""Reference values the measure and verify tests share, each computed apart from cflab.measure.

`_oracle_arg` reads a cylinder's arg off its interval endpoints, `_value`
reads [0; w] off the convergent recurrence, `_gamma_tail_sum` sums
gamma(C_(u.b.1)) over every b >= 1 in closed form, from Gamma values, and
`lag_measure` gives gamma(C_u intersect T^-(|u|+g) C_v) for any gap g from
a float model of the Gauss-Kuzmin transfer operator.
"""

import functools
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


# The transfer operator's collocation nodes and its directly summed terms.
_NODES = 20
_DIRECT_TERMS = 500
# The Chebyshev nodes of the first kind on [0, 1], and their barycentric weights.
_ANGLES = [(2 * j + 1) * math.pi / (2 * _NODES) for j in range(_NODES)]
_Y = [(1 + math.cos(t)) / 2 for t in _ANGLES]
_BARY = [(-1) ** j * math.sin(t) for j, t in enumerate(_ANGLES)]


def _basis(x):
    """The Lagrange basis of the nodes at x, which is no node: the weights that interpolate there."""
    terms = [w / (x - y) for w, y in zip(_BARY, _Y)]
    total = sum(terms)
    return [t / total for t in terms]


def _gauss_legendre(m):
    """The m nodes and weights of Gauss-Legendre quadrature on [-1, 1], by Newton's method."""
    rule = []
    for i in range(1, m + 1):
        t = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(10):  # Newton converges quadratically from this start
            p0, p1 = 1.0, t
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
            slope = m * (t * p1 - p0) / (t * t - 1)
            t -= p1 / slope
        rule.append((t, 2 / ((1 - t * t) * slope * slope)))
    return rule


# 10 points integrate the degree-19 interpolant exactly
_GAUSS_LEGENDRE = _gauss_legendre(10)


def _integral(values, lo, width):
    """The integral over [lo, lo + width] of the interpolant of the node values."""
    points = [(w, _basis(lo + width * (1 + t) / 2)) for t, w in _GAUSS_LEGENDRE]
    return math.fsum(w * b * v for w, basis in points for b, v in zip(basis, values)) * width / 2


@functools.lru_cache(maxsize=None)
def _operator():
    """The matrix of (Pf)(y) = sum over n >= 1 of f(1/(n + y))/(n + y)**2 on f's node values.

    Each row sums n <= N directly.  The rest is the Euler-Maclaurin
    midpoint tail: the sum over n > N is the integral of f from 0 to
    a = 1/(N + 1/2 + y) less f(a) a**3/12, up to O(N**-4), with the
    integral by Simpson's rule.
    """
    rows = []
    for y in _Y:
        a = 1 / (_DIRECT_TERMS + 0.5 + y)
        points = [(1 / (n + y), (n + y) ** -2) for n in range(1, _DIRECT_TERMS + 1)]
        points += [(0.0, a / 6), (a / 2, 2 * a / 3), (a, a / 6 - a**3 / 12)]
        columns = zip(*(_basis(x) for x, _ in points))
        rows.append([sum(w * b for (_, w), b in zip(points, column)) for column in columns])
    return rows


def _apply(values):
    """The node values of P f, from those of f."""
    return [math.fsum(m * v for m, v in zip(row, values)) for row in _operator()]


def lag_measure(u, g, v):
    """gamma(C_u intersect T^-(|u|+g) C_v), as a float good to about 1e-12.

    With (p, q, p', q') the pair of u, the density of T^|u| x on (0, 1) for
    x in C_u under the Gauss measure is
    f_u(y) = 1/((q + y q' + p + y p')(q + y q') ln 2).  The transfer
    operator P pushes a density forward by one step of T, so the measure is
    the integral of P**g f_u over C_v.
    """
    p, q, p_prev, q_prev = convergent_pair(u)
    values = [1 / ((q + y * q_prev + p + y * p_prev) * (q + y * q_prev) * math.log(2)) for y in _Y]
    for _ in range(g):
        values = _apply(values)
    # the width from the exact ends, as a difference of floats would cancel
    ends = cylinder_interval(v)
    return _integral(values, float(ends.lo), float(ends.hi - ends.lo))


def second_eigenvalue():
    """P's second eigenvalue, by power iteration with its fixed point projected out.

    P keeps the integral over (0, 1), and its fixed point, the Gauss
    density, has integral 1; subtracting that multiple of it each step
    leaves the iteration on the next eigenvalue, Wirsing's -0.30366...
    """
    gauss = [1 / ((1 + y) * math.log(2)) for y in _Y]
    values = [y - 0.5 for y in _Y]
    for _ in range(60):
        shift = _integral(values, 0.0, 1.0)
        values = [v - shift * h for v, h in zip(values, gauss)]
        image = _apply(values)
        ratio = math.fsum(a * b for a, b in zip(image, values)) / math.fsum(b * b for b in values)
        scale = max(map(abs, image))
        values = [x / scale for x in image]
    return ratio
