from fractions import Fraction
from itertools import zip_longest
from math import lcm

import pytest

from covsig import AlgReal, Comparison, CoveringMatrix, RatMatrix, _fast, compare_locations
from covsig.exact import poly as P
from covsig.jumps import AlgLoc, _tan_half_pi_enclosure, theta_over_pi_enclosure

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


def covering_of(blocks, mults):
    """The CoveringMatrix, with s = 1, of a grid of RatMatrix blocks A_kl and signed strand counts.

    The grid goes over L, the lcm of every entry's denominator, as integer
    row tuples; it need not be circulant.
    """
    den = lcm(*(x.denominator for row in blocks for M in row for r in M.rows for x in r))
    grid = tuple(tuple(tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in M.rows)
                       for M in row) for row in blocks)
    return CoveringMatrix(den, grid, 1, tuple(mults), sum(map(abs, mults)) * blocks[0][0].nrows)


def remove_common_kernel(rows):
    """Restrict P to a complement of K = ker(P) intersect ker(P^T); jumps are unchanged.

    An oracle for the core's route when D = 0.  x^T P y = 0 whenever x or y
    lies in K, so K is the radical of both P and P^T.  On any complement W
    of K the pencil w*P - eps*P^T is therefore congruent to the pencil
    induced on V/K: at every w it has the signature of the whole pencil,
    and its nullity is less by dim K.  The pivot columns C of the stack
    [P; P^T] span one such W: those columns are independent, so no nonzero
    vector supported on C is in K = ker [P; P^T], and |C| = rank =
    n - dim K.  The restriction of P to W is its principal submatrix on C.
    """
    _, keep = _fast.rank_profile(rows + [list(col) for col in zip(*rows)])
    if len(keep) == len(rows):
        return rows
    return [[rows[i][j] for j in keep] for i in keep]


def same_jumps(f, g, check_period=True):
    """Exact multiset equality of two jump functions.

    Two AlgLocs of different scales, which compare_locations does not
    certify equal, are compared by lift_is_point.
    """
    if check_period and f.period != g.period:
        return False
    if len(f.points) != len(g.points):
        return False
    return all(a.value == b.value and same_location(a.loc, b.loc) for a, b in zip(f.points, g.points))


def same_location(a, b):
    if isinstance(a, AlgLoc) and isinstance(b, AlgLoc) and a.scale != b.scale:
        return lift_is_point(a, b) if a.scale > b.scale else lift_is_point(b, a)
    return compare_locations(a, b) is Comparison.EQ


def multiple_angle_numerator(g, n, odd):
    """The numerator of g(tan(n*atan(x))) (of g(-1/tan(n*atan(x))) for odd), by n products with 1 + i*x."""
    def add(p, q):
        return P.trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])

    re, im = [1], []
    for _ in range(n):  # (re + i*im) * (1 + i*x)
        re, im = add(re, [0] + [-c for c in im]), add(im, [0] + re)
    num, den = ([-c for c in re], im) if odd else (im, re)
    out = []
    for k, c in enumerate(g):
        term = [c]
        for f in [num] * k + [den] * (len(g) - 1 - k):
            term = P.mul(term, f)
        out = add(out, term)
    return out


def lift_is_point(a, b):
    """A certificate that the AlgLoc a, a lift, is the AlgLoc b: theta_a = theta_b.

    a is theta = (2*atan(t_a) + o_a*pi) / s_a, b (2*atan(t_b) + o_b*pi) /
    s_b, with s_a = n * s_b and o_a - n*o_b integers.  a's enclosure of
    theta, mapped to b's chart tau = tan(theta*s_b/2 - o_b*pi/2), must lie
    inside b's interval (t_b.lo, t_b.hi), which isolates one root of b's
    poly; tau is a root of the numerator M of g_a(tan(n*atan(x))) (of
    g_a(-1/tan) when o_a - n*o_b is odd), so when M has one root in the
    interval and that root is a root of gcd(M, b's poly), tau is t_b.
    """
    n, k = a.scale / b.scale, a.offset - a.scale / b.scale * b.offset
    if n.denominator != 1 or k.denominator != 1:
        return False
    lo, hi = (x * b.scale - b.offset for x in theta_over_pi_enclosure(a, 256))
    if not -1 < lo < hi < 1:
        return False
    ends = [(-1) ** (x < 0) * _tan_half_pi_enclosure(abs(x), 256)[(x < 0) ^ end] if x else 0
            for x, end in ((lo, 0), (hi, 1))]
    poly, clo, chi = b.t.poly, b.t.lo, b.t.hi
    if not clo < ends[0] < ends[1] < chi:
        return False
    m = P.square_free_part(multiple_angle_numerator(a.t.poly, int(n), k % 2 == 1))
    c = P.gcd(m, poly)
    return bool(P.sign_at(m, clo) and P.sign_at(m, chi) and P.count_roots(m, clo, chi) == 1
                and P.degree(c) >= 1 and P.count_roots(c, clo, chi) == 1)


def schoolbook_mul(p, q):
    """Product of two coefficient lists of any number type: the oracle of poly.mul."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return P.trim(out)


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
