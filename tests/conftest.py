from fractions import Fraction

import pytest

from covsig import AlgReal, Comparison, RatMatrix, _fast, compare_locations
from covsig.exact import poly as P

TREFOIL = RatMatrix([[-1, 1], [0, -1]])
# Seifert matrix of the (2,5) torus knot
T25 = RatMatrix([
    [-1, 1, 0, 0],
    [0, -1, 1, 0],
    [0, 0, -1, 1],
    [0, 0, 0, -1],
])
# 2x2 matrix whose pencil determinant 2w^2 - 3w + 2 has unimodular roots
# that are not roots of unity (cos theta = 3/4): exercises the algebraic path
ALG = RatMatrix([[1, 1], [0, 2]])


def same_jumps(f, g, check_period=True):
    """Exact multiset equality of two jump functions."""
    if check_period and f.period != g.period:
        return False
    if len(f.points) != len(g.points):
        return False
    return all(
        a.value == b.value and compare_locations(a.loc, b.loc) is Comparison.EQ
        for a, b in zip(f.points, g.points)
    )


def newton_interp(xs, ys):
    """Ascending Fraction coefficients of the interpolating polynomial."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]  # divided differences, in place
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    # expand the Newton form
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]  # product (x - x_0)...(x - x_{k-1})
    for k in range(n):
        for i, a in enumerate(acc):
            poly[i] += coef[k] * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] -= xs[k] * a
            nxt[i + 1] += a
        acc = nxt
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def interpolated_det_poly(rows, eps):
    """D(w) = det(w*P - eps*P^T) from its values at deg+1 integer points."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = [
        _fast.bareiss_det([[x * rows[i][j] - eps * rows[j][i] for j in range(n)]
                           for i in range(n)])
        for x in xs
    ]
    return newton_interp([Fraction(x) for x in xs], ys)


@pytest.fixture
def trefoil():
    return TREFOIL


@pytest.fixture
def t25():
    return T25


def poly_eval(p, x):
    """Horner evaluation of a coefficient list at x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def fraction_divmod(p, q):
    """(quotient, remainder) of p by a nonzero q, by Fraction long division."""
    p = P.trim([Fraction(c) for c in p])
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        k = len(p) - len(q)
        c = quot[k] = p[-1] / q[-1]
        for i, b in enumerate(q):
            p[k + i] -= c * b
        p = P.trim(p[:-1])
    return P.trim(quot), p


def fraction_gcd(p, q):
    """The monic gcd of two coefficient lists by Euclid's algorithm in Fractions; [] for 0, 0."""
    p, q = P.trim([Fraction(c) for c in p]), P.trim([Fraction(c) for c in q])
    while q:
        p, q = q, fraction_divmod(p, q)[1]
    return [c / p[-1] for c in p]


def fraction_sturm_chain(p):
    """Sturm chain of p's square-free part, all by Fraction long division.

    An oracle independent of covsig's gcd and of its root counter, which
    uses Descartes' rule.
    """
    p = P.trim([Fraction(c) for c in p])
    if P.degree(p) < 1:
        return [p] if p else []
    p = fraction_divmod(p, fraction_gcd(p, P.derivative(p)))[0]
    chain = [p, P.derivative(p)]
    while P.degree(chain[-1]) >= 1:
        rem = fraction_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def sturm_count(chain, lo, hi):
    """Distinct real roots in (lo, hi] by Sturm's theorem: the drop in sign variations."""

    def variations(x):
        signs = [s for s in ((v > 0) - (v < 0) for v in (poly_eval(q, x) for q in chain)) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def scaled_root(a, s):
    """The AlgReal s * a for a nonzero rational s: a root of s^n p(x/s) on s * (lo, hi)."""
    n = P.degree(a.poly)
    lo, hi = sorted((a.lo * s, a.hi * s))
    return AlgReal([c * s ** (n - k) for k, c in enumerate(a.poly)], lo, hi, _checked=True)
