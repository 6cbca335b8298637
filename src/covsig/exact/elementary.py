"""Fixed-point pi, atan, sin and cos in Python ints, each with a proven error bound.

A fixed-point number at w bits is an int X that stands for X / 2^w; an ulp
is 2^-w.  Each function returns its value together with a bound e on the
error, |X - value * 2^w| <= e ulps, counted from the number of series terms
it took (fixed-point elementary functions as in Brent, J. ACM 23, 1976).
The bounds rest on two facts: a floor division (or an isqrt) adds less than
one ulp to what it rounds, and each step below says how it carries the
error of its input.  The jump enclosures (covsig.jumps) turn these bounds
into their pads.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def _atan_inv(n: int, w: int):
    """(X, terms): |X - atan(1/n) * 2^w| < 2 * terms + 1 for an int n >= 2.

    p_j = floor(2^w / n^(2j + 1)) is exact, being a floor of a floor, so
    each term p_j // (2j + 1) is off by less than 2; the series stops at the
    first p_j = 0, where the alternating tail is below 1.
    """
    x, p, j, n2 = 0, (1 << w) // n, 0, n * n
    while p:
        x += -(p // (2 * j + 1)) if j & 1 else p // (2 * j + 1)
        p //= n2
        j += 1
    return x, j


@lru_cache(maxsize=64)
def pi_fixed(w: int):
    """(X, e) with |X - pi * 2^w| <= e, by Machin's pi = 16 atan(1/5) - 4 atan(1/239).

    Both series run at w + g bits, where they are off by less than
    16 (2 j5 + 1) + 4 (2 j239 + 1) ulps, and the shift down to w bits adds
    less than one.  Cached per working precision.
    """
    g = w.bit_length() + 8
    a5, j5 = _atan_inv(5, w + g)
    a239, j239 = _atan_inv(239, w + g)
    err = 16 * (2 * j5 + 1) + 4 * (2 * j239 + 1)
    return (16 * a5 - 4 * a239) >> g, (err >> g) + 2


def atan_fixed(num: int, den: int, w: int):
    """(X, e) with |X - atan(num/den) * 2^w| <= e, for ints num and den > 0.

    atan(-x) = -atan(x), and x > 1 goes through atan(x) = pi/2 - atan(1/x).
    For 0 < x <= 1, k >= 1 halvings y <- y / (1 + sqrt(1 + y^2)), each with
    atan(y) = 2 atan(y'), run at W = w + k bits, so that the factor 2^k is a
    shift back to w bits.  The halving map has slope at most 1/2 and each
    step rounds by less than 5/4 ulp, so y_k is off by less than 5/2 ulps.
    Then y_k <= 1/2, and the series sum (-1)^j y^(2j+1) / (2j+1) over the
    powers p_(j+1) = p_j * y^2 (each off by less than 2 ulps) is off by less
    than 3 ulps a term and 2 for the tail after its first zero power: with
    J terms, e = 3 J + 5 ulps at w bits.
    """
    if num < 0:
        x, e = atan_fixed(-num, den, w)
        return -x, e
    if num == 0:
        return 0, 0
    if num > den:
        x, e = atan_fixed(den, num, w)
        pi, ep = pi_fixed(w)
        return (pi >> 1) - x, e + ep // 2 + 1
    k = max(1, isqrt(w) // 2)
    big = w + k
    one = 1 << big
    y = (num << big) // den
    for _ in range(k):
        y = (y << big) // (one + isqrt(one * one + y * y))
    y2 = y * y >> big
    x, p, j = 0, y, 0
    while p:
        x += -(p // (2 * j + 1)) if j & 1 else p // (2 * j + 1)
        p = p * y2 >> big
        j += 1
    return x, 3 * j + 5


def sin_cos_fixed(num: int, den: int, w: int):
    """(S, C, e): S and C within e ulps of sin(a) * 2^w and cos(a) * 2^w, a = pi*num/(2*den).

    For 0 < num/den <= 1/2, so that 0 < a <= pi/4 and sin(a) <= cos(a).  The
    argument A = floor(pi_w * num / (2 den)) is off by at most ep/4 + 1
    ulps, which sin and cos carry with slope at most 1.  The sine series
    over t_(j+1) = floor(t_j * A^2 / ((2j + 2)(2j + 3) 2^(2w))) keeps each
    term within 1.2 ulps (a^2 / 6 < 1/9 shrinks what it inherits) and stops
    at the first zero term, whose tail is below 1.2: J terms are off by less
    than 2 J + 2.  C = isqrt(2^(2w) - S^2) carries S's error with slope
    sin/cos <= 1 and rounds by less than one ulp more.
    """
    pi, ep = pi_fixed(w)
    a = pi * num // (2 * den)
    a2 = a * a
    s, t, j = 0, a, 0
    while t:
        s += -t if j & 1 else t
        j += 1
        t = t * a2 // ((2 * j) * (2 * j + 1) << 2 * w)
    e = 2 * j + 3 + ep // 4 + 2
    return s, isqrt((1 << 2 * w) - s * s), e
