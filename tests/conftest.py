from fractions import Fraction

import pytest

from covsig import Comparison, RatMatrix, _fast, compare_locations
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


def fraction_sturm_chain(p):
    """Sturm chain of p's square-free part by Fraction long division, each member through int_form.

    An oracle independent of covsig's root counter, which uses Descartes' rule.
    """
    p = P.square_free_part(p)
    if P.degree(p) < 1:
        return [P.int_form(p)] if p else []
    chain = [P.int_form(p), P.int_form(P.derivative(p))]
    while P.degree(chain[-1]) >= 1:
        rem = P.divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(P.neg(P.int_form(rem)))
    return chain


def sturm_count(chain, lo, hi):
    """Distinct real roots in (lo, hi] by Sturm's theorem: the drop in sign variations."""

    def variations(x):
        signs = [s for s in ((v > 0) - (v < 0) for v in (P.eval_at(q, x) for q in chain)) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)
