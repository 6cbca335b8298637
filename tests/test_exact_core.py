"""Ground-layer tests: Gaussian rationals, rational matrices, polynomials,
and real algebraic numbers."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, totient
from sympy.polys.specialpolys import cyclotomic_poly

from covsig import (
    AlgReal,
    Comparison,
    GaussRat,
    NotHermitian,
    RatMatrix,
    SingularMatrix,
    alg_compare,
    block_matrix,
    hermitian_signature,
    isolate_real_roots,
    mat_inverse,
)
from covsig.exact import poly as P
from covsig.exact import dyadic_cell
from covsig.exact.gauss import I
from conftest import (
    fraction_divmod,
    fraction_gcd,
    fraction_sturm_chain,
    poly_eval,
    scaled_root,
    sturm_count,
)

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=12
)
gauss = st.builds(GaussRat, rationals, rationals)
small_ints = st.integers(min_value=-4, max_value=4)


# ---------------------------------------------------------------------------
# GaussRat


def test_gauss_basics():
    z = GaussRat(Fraction(1, 2), 3)
    assert z.conj() == GaussRat(Fraction(1, 2), -3)
    assert z.norm() == Fraction(1, 4) + 9
    assert I * I == -1
    assert GaussRat(2) + 3 == GaussRat(5)
    assert (1 - I) * (1 + I) == 2
    assert not GaussRat(0, 0)
    assert GaussRat(0, 1).is_real is False
    assert GaussRat(7).is_real


def test_gauss_division():
    z = GaussRat(3, 4)
    assert z / z == 1
    assert 1 / I == -I
    with pytest.raises(ZeroDivisionError):
        z / GaussRat(0)


def test_gauss_immutable():
    z = GaussRat(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)


@given(gauss, gauss, gauss)
def test_gauss_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a - a == GaussRat(0)


@given(gauss)
def test_gauss_norm_is_conj_product(z):
    assert z * z.conj() == GaussRat(z.norm())
    if z:
        assert z * (1 / z) == 1


# ---------------------------------------------------------------------------
# RatMatrix


def test_matrix_shapes_and_ops():
    m = RatMatrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.transpose().rows == [[1, 3], [2, 4]]
    assert (m + m).rows == (m.scale(2)).rows
    assert (-m).rows == m.scale(-1).rows
    assert (m @ RatMatrix.identity(2)) == m
    assert m.det() == -2
    assert m.pow(0) == RatMatrix.identity(2)
    assert m.pow(3) == m @ m @ m


def test_matrix_inverse_and_singular():
    m = RatMatrix([[2, 1], [1, 1]])
    assert mat_inverse(m) @ m == RatMatrix.identity(2)
    with pytest.raises(SingularMatrix):
        mat_inverse(RatMatrix([[1, 2], [2, 4]]))


def test_nullspace():
    m = RatMatrix([[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum(row[j] * v[j] for j in range(3)) == 0 for row in m.rows
        )


def low_rank(nrows, ncols):
    """Rational nrows x ncols matrices of rank below min(nrows, ncols), as products."""
    return st.integers(min_value=0, max_value=max(0, min(nrows, ncols) - 1)).flatmap(
        lambda r: st.tuples(
            st.lists(st.lists(rationals, min_size=r, max_size=r), min_size=nrows, max_size=nrows),
            st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                     min_size=r, max_size=r),
        ).map(lambda ab: [[sum((x * y for x, y in zip(row, col)), Fraction(0))
                           for col in zip(*ab[1])] if ab[1] else [Fraction(0)] * ncols
                          for row in ab[0]]))


shapes = st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6))


@settings(max_examples=80, deadline=None)
@given(shapes.flatmap(lambda rc: low_rank(*rc)))
def test_nullspace_matches_sympy(rows):
    # the same basis as sympy's RREF one, vector for vector
    expected = Matrix([[Rational(x.numerator, x.denominator) for x in row] for row in rows])
    basis = [[Fraction(int(x.p), int(x.q)) for x in v] for v in expected.nullspace()]
    assert RatMatrix(rows).nullspace() == basis


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_matrix_inverse_round_trip(rows):
    m = RatMatrix(rows)
    if m.det() == 0:
        with pytest.raises(SingularMatrix):
            mat_inverse(m)
    else:
        inv = mat_inverse(m)
        assert inv @ m == m @ inv == RatMatrix.identity(len(rows))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5).flatmap(lambda n: low_rank(n, n)))
def test_matrix_inverse_refuses_singular(rows):
    with pytest.raises(SingularMatrix):
        mat_inverse(RatMatrix(rows))


def test_block_matrix_layout():
    a = RatMatrix([[1]])
    b = RatMatrix([[2, 3]])
    c = RatMatrix([[4], [5]])
    d = RatMatrix([[6, 7], [8, 9]])
    m = block_matrix([[a, b], [c, d]])
    assert m.rows == [[1, 2, 3], [4, 6, 7], [5, 8, 9]]


@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_det_multiplicative(ra, rb):
    a, b = RatMatrix(ra), RatMatrix(rb)
    assert (a @ b).det() == a.det() * b.det()


def test_det_of_rational_entries():
    assert RatMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]).det() == (
        Fraction(1, 14) - Fraction(1, 15))
    assert RatMatrix.zeros(0).det() == 1


# ---------------------------------------------------------------------------
# hermitian signatures


def test_signature_diagonal():
    assert hermitian_signature([[1, 0], [0, -1]]) == 0
    assert hermitian_signature([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 3
    assert hermitian_signature([[0]]) == 0


def test_signature_offdiagonal_block_pivot():
    # hyperbolic form: all-zero diagonal, signature 0
    h = GaussRat(1, 1)
    assert hermitian_signature([[GaussRat(0), h], [h.conj(), GaussRat(0)]]) == 0


def test_signature_clears_denominators():
    # [[1/2, i/3], [-i/3, -1/5]] has determinant -1/10 - 1/9 < 0
    h = GaussRat(0, Fraction(1, 3))
    assert hermitian_signature([[Fraction(1, 2), h], [h.conj(), Fraction(-1, 5)]]) == 0
    assert hermitian_signature([[Fraction(1, 2), h], [h.conj(), 1]]) == 2


def test_signature_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_signature([[0, 1], [0, 0]])
    with pytest.raises(NotHermitian):
        hermitian_signature([[GaussRat(0, 1)]])


@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
)
@settings(max_examples=40)
def test_signature_congruence_invariant(rows, diag):
    """sigma(S^* D S) = sigma(D) whenever S is invertible (Sylvester)."""
    s = RatMatrix(rows)
    if s.det() == 0:
        return
    d = RatMatrix([[diag[i] if i == j else 0 for j in range(3)] for i in range(3)])
    m = s.transpose() @ d @ s
    got = hermitian_signature([[GaussRat(x) for x in row] for row in m.rows])
    assert got == sum(diag)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_gcd_and_square_free():
    x_minus_1 = [-1, 1]
    p = P.mul(P.mul(x_minus_1, x_minus_1), [1, 1])
    g = P.gcd(p, P.derivative(p))
    assert g == x_minus_1
    sf = P.square_free_part(p)
    assert sf == P.mul(x_minus_1, [1, 1])


def test_cyclotomic():
    assert P.cyclotomic(1) == [Fraction(-1), Fraction(1)]
    assert P.cyclotomic(4) == [Fraction(1), Fraction(0), Fraction(1)]
    # phi_12 = x^4 - x^2 + 1
    assert P.cyclotomic(12) == [Fraction(c) for c in (1, 0, -1, 0, 1)]


def test_cyclotomic_matches_sympy():
    # sympy's cyclotomic_poly is the oracle; each call returns a fresh list
    for n in range(1, 301):
        expected = [int(c) for c in reversed(cyclotomic_poly(n, polys=True).all_coeffs())]
        assert P.cyclotomic(n) == expected
    P.cyclotomic(6).append(0)
    assert P.cyclotomic(6) == [1, -1, 1]


def test_totient_matches_sympy():
    assert [P.totient(n) for n in range(1, 3001)] == [int(totient(n)) for n in range(1, 3001)]
    assert P.totient(2 ** 31 - 1) == 2 ** 31 - 2


def test_sturm_root_count():
    # (x^2 - 2)(x^2 - 3): four real roots, two positive; the Descartes count
    # agrees with the Fraction Sturm oracle
    p = P.mul([Fraction(-2), 0, Fraction(1)], [Fraction(-3), 0, Fraction(1)])
    chain, ip = fraction_sturm_chain(p), P.int_form(p)
    for lo, hi, n in ((Fraction(-4), Fraction(4), 4), (Fraction(0), Fraction(4), 2),
                      (Fraction(7, 5), Fraction(3, 2), 1)):  # the last holds sqrt2
        assert sturm_count(chain, lo, hi) == P.count_roots(ip, lo, hi) == n


def test_int_form():
    # the content comes out, and the leading coefficient is made positive
    assert P.int_form([Fraction(2, 3), Fraction(4, 3)]) == [1, 2]
    assert P.int_form([Fraction(2), Fraction(-4)]) == [-1, 2]
    assert P.int_form([6, -4, 0]) == [-3, 2]
    assert P.int_form([0, 0]) == []


@given(st.lists(small_ints, min_size=2, max_size=5), st.lists(small_ints, min_size=2, max_size=4))
@settings(max_examples=40)
def test_gcd_divides_both(pc, qc):
    p, q = P.trim(pc), P.trim(qc)
    g = P.gcd(p, q)
    if not g:
        assert not p and not q
    else:
        assert not fraction_divmod(p, g)[1] and not fraction_divmod(q, g)[1]


int_polys = st.lists(st.integers(min_value=-30, max_value=30), max_size=6)


@given(int_polys, int_polys, int_polys, st.integers(min_value=-6, max_value=6).filter(bool),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_gcd_and_square_free_part_are_the_int_form_of_the_fraction_oracle(a, b, h, c, e):
    # a common factor h, a content c that may be negative (so may be either
    # leading coefficient), a repeated factor h^e, and zero arguments
    # whenever a or b is empty
    hp = [1]
    for _ in range(e):
        hp = P.mul(hp, P.trim(h) or [1])
    p, q = P.mul([c * x for x in a], hp), P.mul(P.trim(b), hp)
    g = P.gcd(p, q)
    assert all(type(x) is int for x in g)
    assert g == P.int_form(fraction_gcd(p, q))
    assert P.gcd(q, p) == g
    for f in (p, q):
        sf = P.square_free_part(f)
        assert all(type(x) is int for x in sf)
        want = fraction_divmod(f, fraction_gcd(f, P.derivative(f)))[0] if f else []
        assert sf == P.int_form(want)


# ---------------------------------------------------------------------------
# algebraic reals


def test_algreal_sqrt2():
    r = AlgReal([-2, 0, 1], 1, 2)
    r.refine_to(Fraction(1, 10**6))
    assert r.lo < Fraction(141421357, 10**8) < r.hi
    assert r.sign() == 1
    assert r.neg().sign() == -1


def test_algreal_validation():
    with pytest.raises(ValueError):
        AlgReal([-2, 0, 1], -2, 2)  # two roots inside
    with pytest.raises(ValueError):
        AlgReal([1], 0, 1)  # constant
    with pytest.raises(ValueError):
        AlgReal([0, 0, 1], -1, 1)  # not square-free (x^2)


def test_algreal_from_rational():
    q = AlgReal.from_rational(Fraction(-3, 7))
    assert q.is_rational and q.rational_value() == Fraction(-3, 7)
    assert q.poly == [3, 7] and q.cell == ([3, 7], Fraction(-10, 7), Fraction(4, 7))


def test_isolate_real_roots():
    # (x-1)(x-2)(x-3)
    p = P.mul(P.mul([-1, 1], [-2, 1]), [-3, 1])
    roots = isolate_real_roots([Fraction(c) for c in p])
    assert len(roots) == 3
    for r, val in zip(roots, (1, 2, 3)):
        r.refine_to(Fraction(1, 100))
        assert r.lo < val < r.hi
    windowed = isolate_real_roots([Fraction(c) for c in p], window=(Fraction(3, 2), Fraction(5, 2)))
    assert len(windowed) == 1


def test_alg_compare_certificates():
    a = AlgReal([-2, 0, 1], 1, 2)
    # same root of a different defining polynomial: x(x^2-2)
    b = AlgReal([0, -2, 0, 1], Fraction(1, 2), Fraction(3, 2))
    assert alg_compare(a, b) is Comparison.EQ
    c = AlgReal([-3, 0, 1], 1, 2)  # sqrt3
    assert alg_compare(a, c) is Comparison.LT
    assert alg_compare(c, a) is Comparison.GT
    d = AlgReal([-8, 0, 1], 2, 3)  # 2*sqrt2 > sqrt3
    assert alg_compare(d, c) is Comparison.GT
    # 2*sqrt2 again, as a root of a rational multiple of x^2 - 8
    e = AlgReal([Fraction(8, 5), 0, Fraction(-1, 5)], Fraction(5, 2), 3)
    assert alg_compare(d, e) is Comparison.EQ


@given(st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=9))
@settings(max_examples=30)
def test_algreal_rational_sign(q):
    r = AlgReal.from_rational(q)
    assert r.sign() == (q > 0) - (q < 0)


# ---------------------------------------------------------------------------
# integer sign kernel and bisection

int_coeffs = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=7)
points = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=40),
)


def _sgn(x):
    return (x > 0) - (x < 0)


@given(int_coeffs, points, st.booleans())
@settings(max_examples=200)
def test_sign_at_matches_rational_horner(cs, x, make_root):
    if make_root:
        # multiply by (d*t - n) so that x = n/d is an exact root
        cs = [int(c) for c in P.mul([Fraction(-x.numerator), Fraction(x.denominator)], cs)]
    assert P.sign_at(cs, x) == _sgn(poly_eval(cs, x))
    if make_root and any(cs):
        assert P.sign_at(cs, x) == 0
    # the integer form of a rational polynomial, whatever its content, has its
    # signs times that of the leading coefficient
    q = P.trim([Fraction(c, 7) for c in cs])
    lead = _sgn(q[-1]) if q else 1
    assert P.sign_at(P.int_form(q), x) == lead * _sgn(poly_eval(q, x))


def _reference_bisection(poly, lo, hi, steps):
    """The (lo, hi) sequence of Sturm-count bisection, in Fraction arithmetic."""
    chain = fraction_sturm_chain(poly)
    out = []
    for _ in range(steps):
        mid = (lo + hi) / 2
        if poly_eval(poly, mid) == 0:
            w = (hi - lo) / 4
            poly = [-mid, Fraction(1)]
            chain = fraction_sturm_chain(poly)
            lo, hi = mid - w, mid + w
        elif sturm_count(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
        out.append((lo, hi))
    return out


@given(int_coeffs, st.integers(min_value=0, max_value=4), st.integers(min_value=-9, max_value=9))
@settings(max_examples=60, deadline=None)
def test_refine_matches_sturm_bisection(cs, k, b):
    # the factor (2^k t - b) puts a dyadic root in, which bisection can hit
    p = P.mul([Fraction(c) for c in cs], [Fraction(-b), Fraction(1 << k)])
    if P.degree(P.trim(p)) < 1:
        return
    for root in isolate_real_roots(p):
        expected = _reference_bisection(root.poly, root.lo, root.hi, 40)
        got = []
        for _ in range(40):
            root.refine()
            got.append((root.lo, root.hi))
        assert got == expected


@given(int_coeffs, st.integers(min_value=0, max_value=4), st.integers(min_value=-9, max_value=9),
       st.integers(min_value=0, max_value=48),
       st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(-5, 3)]), st.sampled_from([1, 3]))
@settings(max_examples=80, deadline=None)
def test_refine_to_matches_repeated_refine(cs, k, b, bits, s, t):
    # the factor (2^k t - b) puts a dyadic root in, which bisection can hit;
    # the scale s (scaled_root) gives start intervals whose denominators are
    # not powers of 2, and t widths 1/(3 * 2^bits), so the grid of refine_to
    # is not dyadic
    p = P.mul([Fraction(c) for c in cs], [Fraction(-b), Fraction(1 << k)])
    if P.degree(P.trim(p)) < 1:
        return
    width = Fraction(1, t << bits)
    for root in isolate_real_roots(p):
        root = scaled_root(root, s)
        expected = root.copy()
        while expected.width() > width:
            expected.refine()
        root.refine_to(width)
        assert (root.lo, root.hi, root.poly, root._slo) == (
            expected.lo, expected.hi, expected.poly, expected._slo)


def isolate_by_sturm(p, window=None):
    """Sturm-count bisection from the Cauchy bound, as (lo, hi, poly) triples.

    The intervals isolate_real_roots must reproduce: nudge the window's ends
    off roots, split a cell holding two or more roots at its midpoint, moved
    off a root by mid <- (a + 2 mid)/3, mid <- mid + (b - mid)/7, and emit a
    cell holding one.
    """
    p = P.trim([Fraction(c) for c in p])
    sf = P.square_free_part(p)
    if P.degree(sf) < 1:
        return []
    chain = fraction_sturm_chain(sf)
    bound = P.cauchy_root_bound(sf)
    lo, hi = -bound, bound
    if window is not None:
        lo, hi = max(lo, Fraction(window[0])), min(hi, Fraction(window[1]))
        if lo >= hi:
            return []
    step = Fraction(1, 2)
    while P.sign_at(sf, lo) == 0:
        lo += step * (hi - lo) / 4
        step /= 2
    step = Fraction(1, 2)
    while P.sign_at(sf, hi) == 0:
        hi -= step * (hi - lo) / 4
        step /= 2
    out = []
    stack = [(lo, hi, sturm_count(chain, lo, hi))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b, sf))
            continue
        mid = (a + b) / 2
        while P.sign_at(sf, mid) == 0:
            mid = (a + 2 * mid) / 3
            mid += (b - mid) / 7
        cl = sturm_count(chain, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, b, cnt - cl))
    return sorted(out)


@given(int_coeffs, st.booleans(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=-9, max_value=9), st.lists(small_ints, min_size=1, max_size=3),
       st.sampled_from(["none", "random", "centred", "root-lo", "root-hi"]),
       st.fractions(min_value=Fraction(1, 8), max_value=Fraction(6), max_denominator=9), rationals)
@settings(max_examples=200, deadline=None)
# x^3 - x: the first midpoint of (-2, 2) is the root 0
@example([-1, 0, 1], True, 0, 0, [1], "none", Fraction(1), Fraction(0))
# x(x - 1)(x + 1)(2x - 1) on (-1, 1): both ends are roots and take the nudges
@example([1, -2, -1, 2], True, 0, 0, [1], "centred", Fraction(1), Fraction(0))
def test_isolation_matches_sturm_bisection(cs, dyadic, k, b, sq, where, hw, x):
    # dyadic puts the root b / 2^k in, which bisection can hit at a midpoint,
    # sq a square factor; windows centred on that root, or ending on it,
    # put it at the first midpoint or take the endpoint nudges
    p = [Fraction(c) for c in cs]
    if dyadic:
        p = P.mul(p, [Fraction(-b), Fraction(1 << k)])
    p = P.trim(P.mul(p, P.mul(sq, sq)))
    if not p:
        return
    r0 = Fraction(b, 1 << k)
    window = {"none": None, "random": (x, x + hw), "centred": (r0 - hw, r0 + hw),
              "root-lo": (r0, r0 + hw), "root-hi": (r0 - hw, r0)}[where]
    got = [(r.lo, r.hi, r.poly) for r in isolate_real_roots(p, window)]
    assert got == isolate_by_sturm(p, window)


# ---------------------------------------------------------------------------
# canonical dyadic cells

# (3*CLOSE*x - CLOSE*c)^2 - 27 has the roots c/3 +- sqrt(3)/2^71, less than
# 2^-64 apart and off every dyadic grid for 3 not dividing c
CLOSE = 1 << 71


def grid_position(p, root, level):
    """(k, on_grid) of root, a root of p, on the grid of step 2^-level, by Fraction bisection.

    The root lies inside [k, k + 1] / 2^level, or is k / 2^level when on_grid.
    """
    x, scale = root.copy(), 1 << level
    while x.width() * scale >= 1:
        x.refine()
    m = -((-x.lo.numerator * scale) // x.lo.denominator)  # the first grid point >= lo
    if Fraction(m, scale) == x.lo or Fraction(m, scale) >= x.hi:
        return (m if Fraction(m, scale) == x.lo else m - 1), False
    v = poly_eval(p, Fraction(m, scale))
    if v == 0:
        return m, True
    lo_side = poly_eval(p, x.lo) > 0
    return (m if (v > 0) == lo_side else m - 1), False


def isolates(p, lo, hi):
    return (poly_eval(p, lo) != 0 and poly_eval(p, hi) != 0
            and sturm_count(fraction_sturm_chain(p), lo, hi) == 1)


@given(int_coeffs, st.booleans(), st.integers(min_value=0, max_value=150),
       st.integers(min_value=-9, max_value=9), st.booleans(), st.sampled_from([-2, -1, 1, 2]))
@settings(max_examples=60, deadline=None)
# two roots 2^-69.2 apart: no level-64 cell isolates either, so P = 128
@example([1], False, 0, 1, True, 1)
# the dyadic root 3/2^64 lies on the level-64 grid: x - r on r +- 2^-128
@example([-2, 0, 1], True, 64, 3, False, 1)
# 1/2 = 2^63/2^64: on the grid with an even numerator, so Q = 64
@example([-2, 0, 1], True, 1, 1, False, 1)
# 5/2^100 lies inside a level-64 cell, which isolates it from sqrt(2)
@example([-2, 0, 1], True, 100, 5, False, 1)
def test_dyadic_cell_is_canonical(cs, dyadic, k, b, close, c):
    p = [Fraction(x) for x in cs]
    if dyadic:
        p = P.mul(p, [Fraction(-b), Fraction(1 << k)])
    if close:
        p = P.mul(p, [Fraction(CLOSE * CLOSE * c * c - 27), Fraction(-6 * CLOSE * CLOSE * c),
                      Fraction(9 * CLOSE * CLOSE)])
    p = P.trim(p)
    if P.degree(p) < 1:
        return
    p = P.square_free_part(p)
    for iso in isolate_real_roots(p):
        poly, lo, hi = dyadic_cell(iso)
        if (hi - lo).denominator.bit_length() % 64 == 0:  # width 2^(1 - Q)
            # the dyadic rule: x - r on r +- 2^-Q, Q the least multiple of 64 above j
            r = Fraction(-poly[0], poly[1])
            j = r.denominator.bit_length() - 1
            assert poly == [-r.numerator, r.denominator]
            assert poly_eval(p, r) == 0 and r.denominator == 1 << j
            q = 64 * (j // 64 + 1)
            assert (lo, hi) == (r - Fraction(1, 1 << q), r + Fraction(1, 1 << q))
            assert lo.denominator == hi.denominator == 1 << q
            level = 64 * max(1, -(-j // 64))  # the first level with r on its grid
        else:
            assert poly == p
            level = (hi - lo).denominator.bit_length() - 1
            assert hi - lo == Fraction(1, 1 << level) and level % 64 == 0
            assert lo * (1 << level) == (lo * (1 << level)).numerator
            assert grid_position(p, iso, level) == ((lo * (1 << level)).numerator, False)
            assert isolates(p, lo, hi)
        # P is minimal: at every lower level the root is off the grid and its cell does not isolate
        for below in range(64, level, 64):
            kb, on_grid = grid_position(p, iso, below)
            assert not on_grid
            assert not isolates(p, Fraction(kb, 1 << below), Fraction(kb + 1, 1 << below))
        # the cell depends on the root alone, not on how far it was refined
        deep = iso.copy()
        deep.refine_to(Fraction(1, 1 << 300))
        assert dyadic_cell(deep) == (poly, lo, hi)
        # and the mirror image is the cell of -root
        assert dyadic_cell(iso.neg()) == (P.int_form([(-1) ** i * a for i, a in enumerate(poly)]),
                                          -hi, -lo)
        isolated = iso.copy()
        iso.cell = (poly, lo, hi)
        assert iso.neg().cell == dyadic_cell(isolated.neg())


# ---------------------------------------------------------------------------
# the Cayley map


@given(st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=1, max_size=30)
       .filter(lambda c: c[-1] != 0), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_cayley_matches_the_fraction_expansion_and_is_an_involution(p, extra):
    n = len(p) - 1 + extra
    want = [Fraction(0)] * (n + 1)
    for k, c in enumerate(p):
        term = [Fraction(c)]
        for _ in range(k):
            term = P.mul(term, [Fraction(1), Fraction(-1)])
        for _ in range(n - k):
            term = P.mul(term, [Fraction(1), Fraction(1)])
        for i, x in enumerate(term):
            want[i] += x
    got = P.cayley(p, n)
    assert len(got) == n + 1 and all(type(c) is int for c in got)
    assert got == want
    assert P.trim(P.cayley(got, n)) == [c << n for c in p]


# ---------------------------------------------------------------------------
# the root counter

CLOSE_PAIR = [CLOSE * CLOSE - 27, -6 * CLOSE * CLOSE, 9 * CLOSE * CLOSE]  # c = 1
SQRT2_64 = isqrt(2 << 128)  # floor(sqrt(2) * 2^64)


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=13),
       rationals, st.fractions(min_value=Fraction(1, 64), max_value=Fraction(20),
                               max_denominator=64))
@settings(max_examples=150, deadline=None)
# roots 1/3 +- sqrt(3)/2^71: a cell holding both, and cells holding one
@example(CLOSE_PAIR, Fraction(0), Fraction(1))
@example(CLOSE_PAIR, Fraction(1, 3) - Fraction(1, 1 << 70), Fraction(1, 1 << 70))
@example(CLOSE_PAIR, Fraction(1, 3), Fraction(1, 1 << 70))
# the level-64 dyadic cell around sqrt(2)
@example([-2, 0, 1], Fraction(SQRT2_64, 1 << 64), Fraction(1, 1 << 64))
# (x - 1/2)^2 + 1/400 on (0, 1): no real root, but v = 2 at the top node
@example([101, -400, 400], Fraction(0), Fraction(1))
# x^3 - x on (-2, 2): the first midpoint is the root 0
@example([0, -1, 0, 1], Fraction(-2), Fraction(4))
def test_count_roots_matches_the_sturm_oracle(cs, lo, w):
    sf = P.square_free_part(P.trim([Fraction(c) for c in cs]))
    assume(P.degree(sf) >= 1)
    ip, hi = P.int_form(sf), lo + w
    assume(P.sign_at(ip, lo) and P.sign_at(ip, hi))
    assert P.count_roots(ip, lo, hi) == sturm_count(fraction_sturm_chain(sf), lo, hi)


def test_alg_compare_certifies_a_root_of_two_polys():
    # sqrt(2) as a root of x^2 - 2 and of (x^2 - 2)(x - 3), on overlapping intervals
    a = AlgReal([-2, 0, 1], 1, 2)
    b = AlgReal([6, -2, -3, 1], Fraction(5, 4), Fraction(5, 2))
    assert alg_compare(a, b) is Comparison.EQ
    assert alg_compare(b, a) is Comparison.EQ
