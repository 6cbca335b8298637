"""Differential tests of the integer kernels in covsig._fast.

bareiss_det is checked against sympy's DomainMatrix.det, pencil_det_poly
against Newton interpolation of integer determinants of the pencil,
herm_pencil against the pencil formula in Gaussian rationals, and
herm_sig_fast against the rational congruence routine hermitian_signature.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from covsig import _fast
from covsig.exact import GaussRat, hermitian_signature

eps_st = st.sampled_from([1, -1])
entries = st.integers(min_value=-3, max_value=3)
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


def square(elements, min_size=1, max_size=6):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    )


def interpolated_det_poly(rows, eps):
    """D(w) = det(w*P - eps*P^T) from its values at deg+1 integer points."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = [
        _fast.bareiss_det([[x * rows[i][j] - eps * rows[j][i] for j in range(n)]
                           for i in range(n)])
        for x in xs
    ]
    return _fast._newton_interp([Fraction(x) for x in xs], ys)


def congruent(rows, u_upper):
    """U^T * rows * U for the unimodular upper-triangular U with the given strict part."""
    n = len(rows)
    u = [[1 if i == j else (u_upper[i][j] if j > i else 0) for j in range(n)]
         for i in range(n)]
    ru = [[sum(rows[i][k] * u[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(u[k][i] * ru[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=60)
@given(square(entries), eps_st)
def test_det_poly_nonsingular(rows, eps):
    assume(_fast.bareiss_det(rows) != 0)
    assert _fast.pencil_det_poly(rows, eps) == interpolated_det_poly(rows, eps)


@settings(max_examples=60)
@given(square(entries, min_size=2), st.lists(entries, min_size=6, max_size=6), eps_st)
def test_det_poly_singular(rows, mix, eps):
    # the last row is a combination of the others, so P is singular
    n = len(rows)
    rows[-1] = [sum(mix[i] * rows[i][j] for i in range(n - 1)) for j in range(n)]
    assert _fast.bareiss_det(rows) == 0
    assert _fast.pencil_det_poly(rows, eps) == interpolated_det_poly(rows, eps)


@settings(max_examples=30)
@given(square(entries, max_size=4), square(entries, min_size=6, max_size=6), eps_st)
def test_det_poly_common_kernel_is_zero(block, mix, eps):
    # P = U^T (block + 0) U has a common kernel with P^T, so D vanishes
    n = len(block) + 1
    rows = [row + [0] for row in block] + [[0] * n]
    rows = congruent(rows, mix)
    assert interpolated_det_poly(rows, eps) == []
    assert _fast.pencil_det_poly(rows, eps) == []


@settings(max_examples=80, deadline=None)
@given(square(sparse_entries, max_size=8), st.booleans())
def test_bareiss_det_matches_domain_matrix(rows, zero_diagonal):
    # mostly zero multipliers, and with a zero diagonal every step needs a swap
    if zero_diagonal:
        for i in range(len(rows)):
            rows[i][i] = 0
    n = len(rows)
    expected = DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ).det()
    assert _fast.bareiss_det(rows) == int(expected)


@pytest.mark.parametrize("eps, expected", [
    (1, [0, -1, -1, 1, 1]),  # w (w - 1) (w + 1)^2
    (-1, [0, -1, 1, 1, -1]),  # -w (w - 1)^2 (w + 1)
])
def test_det_poly_shifts_past_singular_points(eps, expected):
    # P = [1] + [[0, 1], [-1, 0]] + [[0, 1], [0, 0]] has D(0) = D(1) = D(-1) = 0,
    # so the shift w = z + c has to reach c = 2
    rows = [
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
    ]
    assert interpolated_det_poly(rows, eps) == expected
    assert _fast.pencil_det_poly(rows, eps) == expected


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b:
            rows.append([0] * at + list(row) + [0] * (n - at - len(row)))
        at += len(b)
    return rows


def test_det_poly_every_shift_singular():
    # D(w) = w (w - 1) (w + 1)^2 (2w^2 - 5w + 2)(3w^2 - 10w + 3)
    #        (2w^2 + 5w + 2)(3w^2 + 10w + 3) vanishes at 0, +-1, +-2 and +-3,
    # and P, P^T share no kernel vector: D must come from interpolation
    rows = block_diag([[1]], [[0, 1], [-1, 0]], [[0, 1], [0, 0]], [[1, 1], [0, -2]],
                      [[1, 2], [0, -3]], [[1, 3], [0, 2]], [[1, 4], [0, 3]])
    expected = interpolated_det_poly(rows, 1)
    assert len(expected) == 13
    assert _fast.pencil_det_poly(rows, 1) == expected


@pytest.mark.parametrize("eps", [1, -1])
def test_det_poly_identically_singular_without_common_kernel(eps):
    # ker P = <e1> and ker P^T = <e3> meet in 0, yet det(w*P - eps*P^T) = 0
    rows = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert interpolated_det_poly(rows, eps) == []
    assert _fast.pencil_det_poly(rows, eps) == []


def hermitian(upper, diag):
    """Hermitian (re, im) matrix from a strict upper part and a real diagonal."""
    n = len(diag)
    m = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = (diag[i], 0)
        for j in range(i + 1, n):
            a, b = upper[i][j]
            m[i][j] = (a, b)
            m[j][i] = (a, -b)
    return m


def reference_signature(m):
    return hermitian_signature([[GaussRat(a, b) for a, b in row] for row in m])


def hermitian_st(off, diag):
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.tuples(off, off), min_size=n, max_size=n),
                     min_size=n, max_size=n),
            st.lists(diag, min_size=n, max_size=n),
        )
    ).map(lambda ud: hermitian(*ud))


def upper_rows(m):
    """The sparse upper rows (re, im) that herm_sig_fast takes, from a dense (re, im) matrix."""
    re = [{j: a for j, (a, _) in enumerate(row) if j >= i and a} for i, row in enumerate(m)]
    im = [{j: b for j, (_, b) in enumerate(row) if j >= i and b} for i, row in enumerate(m)]
    return re, im


def agrees_when_defined(m):
    s = _fast.herm_sig_fast(*upper_rows(m))
    if s is not None:
        assert s == reference_signature(m)
    return s


@settings(max_examples=80, deadline=None)
@given(hermitian_st(entries, entries))
def test_sig_matches_reference(m):
    agrees_when_defined(m)


@settings(max_examples=80, deadline=None)
@given(hermitian_st(sparse_entries, st.sampled_from([1, -1, 2, -2, 3])))
def test_sig_sparse_rows_skip_zero_multipliers(m):
    # nonzero diagonals and mostly zero off-diagonals: many rows are skipped
    # and brought up to date only when next read
    agrees_when_defined(m)


@settings(max_examples=80, deadline=None)
@given(hermitian_st(sparse_entries, st.sampled_from([0, 0, 1, -2])))
def test_sig_zero_diagonals_force_swaps(m):
    agrees_when_defined(m)


@pytest.mark.parametrize("m, expected", [
    ([[(0, 0), (1, 0)], [(1, 0), (1, 0)]], 0),
    ([[(0, 0), (0, 0), (1, 1)], [(0, 0), (2, 0), (0, 0)], [(1, -1), (0, 0), (-1, 0)]], 1),
    ([[(0, 0), (2, 0), (0, 0)], [(2, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (3, 0)]], 1),
])
def test_sig_symmetric_swap(m, expected):
    # the leading diagonal entry is 0 but a later one is not
    assert reference_signature(m) == expected
    assert _fast.herm_sig_fast(*upper_rows(m)) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -3]), min_size=0, max_size=3),
    st.tuples(entries, entries).filter(lambda z: z != (0, 0)),
)
def test_sig_zero_diagonal_schur_complement_is_none(diag, z):
    # eliminating the nonsingular diagonal block leaves [[0, z], [conj z, 0]]
    k = len(diag)
    upper = [[(0, 0)] * (k + 2) for _ in range(k + 2)]
    upper[k][k + 1] = z
    m = hermitian(upper, diag + [0, 0])
    assert _fast.herm_sig_fast(*upper_rows(m)) is None
    assert reference_signature(m) == sum(1 if d > 0 else -1 for d in diag)


@st.composite
def chain_arrow(draw):
    """Hermitian matrices shaped like the covering pencils.

    Each strand group is a first block of size b followed by a chain of
    blocks coupled to their predecessors; the chain's diagonal entries are 0,
    as in P + P^T, so elimination in the natural order is forced to swap.
    The groups meet only in one block between their first strands.
    """
    b = draw(st.integers(min_value=1, max_value=2))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    n = b * sum(lengths)
    pair = st.tuples(sparse_entries, sparse_entries)
    upper = [[(0, 0)] * n for _ in range(n)]
    diag = [0] * n
    firsts, at = [], 0
    for length in lengths:
        firsts.append(at)
        for s in range(length):
            r = at + s * b
            for i in range(b):
                if s == 0:
                    diag[r + i] = draw(sparse_entries)
                for j in range(i + 1, b):
                    upper[r + i][r + j] = draw(pair)
                if s > 0:
                    for j in range(b):
                        upper[r - b + j][r + i] = draw(pair)
        at += length * b
    for x, y in combinations(firsts, 2):
        for i in range(b):
            for j in range(b):
                upper[x + i][y + j] = draw(pair)
    return hermitian(upper, diag)


@settings(max_examples=150, deadline=None)
@given(chain_arrow())
def test_sig_chain_arrow_matches_reference(m):
    agrees_when_defined(m)


@settings(max_examples=60, deadline=None)
@given(square(entries, max_size=5), eps_st,
       st.integers(min_value=-9, max_value=9).filter(bool),
       st.integers(min_value=1, max_value=9))
def test_herm_pencil_is_the_scaled_pencil(rows, eps, u, v):
    # G = 2u * (w*P - eps*P^T)/(w - 1) at w = (1+it)/(1-it), t = u/v, and
    # 2 * that at w = -1; both times i when eps = -1
    n = len(rows)
    turn = GaussRat(1) if eps == 1 else GaussRat(0, 1)
    t = Fraction(u, v)
    parts = _fast.pencil_parts(rows)
    for w, c, g in [
        (GaussRat(1, t) / GaussRat(1, -t), 2 * u, _fast.herm_pencil(parts, eps, u, v)),
        (GaussRat(-1), 2, _fast.herm_pencil_at_pi(parts, eps)),
    ]:
        re, im = g
        for i in range(n):
            assert all(j >= i and x for r in (re[i], im[i]) for j, x in r.items())
            for j in range(i, n):
                z = GaussRat(c) * turn * (w * rows[i][j] - eps * rows[j][i]) / (w - 1)
                assert (re[i].get(j, 0), im[i].get(j, 0)) == (z.re, z.im)
