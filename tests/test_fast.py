"""Differential tests of the integer kernels in covsig._fast.

bareiss_det is checked against sympy's DomainMatrix.det and against the sign
of permutation matrices, adj_det against DomainMatrix.adj_det, pencil_det_poly
against Newton interpolation of integer determinants of the pencil (in
Fractions, conftest's newton_interp, which is also the oracle of the integer
kernel interpolate_in_squares),
PencilCore.at on a plain matrix against the pencil formula in Gaussian
rationals, herm_sig_fast against the characteristic polynomial of the
real embedding of the hermitian matrix, which shares no code with it, and
the sum over a core's connected blocks against the whole core.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from covsig import _fast
from covsig.exact import GaussRat
from conftest import interpolated_det_poly, newton_interp

eps_st = st.sampled_from([1, -1])
entries = st.integers(min_value=-3, max_value=3)
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


def square(elements, min_size=1, max_size=6):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=20), st.booleans(),
       st.integers(min_value=0, max_value=2))
def test_interpolate_in_squares_matches_interpolate(half, odd, extra):
    # p(y) = E(y^2) or y * E(y^2), the shape of a block's determinant after
    # the Cayley change; newton_interp takes it on -h..h, the other on 0..h
    p = [0] * (2 * len(half) - 1 + odd) if half else []
    p[odd::2] = half
    while p and p[-1] == 0:
        p.pop()
    h = len(p) // 2 + extra
    ys = [sum(c * y**i for i, c in enumerate(p)) for y in range(h + 1)]
    sign = -1 if odd else 1
    assert _fast.interpolate_in_squares(ys, odd) == p
    assert newton_interp(list(range(-h, h + 1)), [sign * v for v in reversed(ys[1:])] + ys) == p


def test_interpolate_in_squares_refuses_values_of_no_integer_polynomial():
    # y^2 (y^2 - 1) / 2 is even and integer-valued at 0, 1, 2, but not integral
    with pytest.raises(ArithmeticError):
        _fast.interpolate_in_squares([0, 0, 6], False)
    with pytest.raises(ArithmeticError):
        _fast.interpolate_in_squares([1, 0], True)  # odd, but p(0) != 0


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
    D = _fast.pencil_det_poly(_fast.PencilCore(rows, eps))
    assert all(type(c) is int for c in D)
    assert D == interpolated_det_poly(rows, eps)


@settings(max_examples=60)
@given(square(entries, min_size=2), st.lists(entries, min_size=6, max_size=6), eps_st)
def test_det_poly_singular(rows, mix, eps):
    # the last row is a combination of the others, so P is singular
    n = len(rows)
    rows[-1] = [sum(mix[i] * rows[i][j] for i in range(n - 1)) for j in range(n)]
    assert _fast.bareiss_det(rows) == 0
    assert (_fast.pencil_det_poly(_fast.PencilCore(rows, eps))
            == interpolated_det_poly(rows, eps))


@settings(max_examples=30)
@given(square(entries, max_size=4), square(entries, min_size=6, max_size=6), eps_st)
def test_det_poly_common_kernel_is_zero(block, mix, eps):
    # P = U^T (block + 0) U has a common kernel with P^T, so D vanishes
    n = len(block) + 1
    rows = [row + [0] for row in block] + [[0] * n]
    rows = congruent(rows, mix)
    assert interpolated_det_poly(rows, eps) == []
    assert _fast.pencil_det_poly(_fast.PencilCore(rows, eps)) == []


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


@pytest.mark.parametrize("n", range(1, 9))
def test_bareiss_det_sign_on_permutation_matrices(n):
    # the sign is the parity of the pivot positions in the list of unused rows
    perms = list(permutations(range(n)))[:: max(1, math.factorial(n) // 200)]
    for perm in perms:
        rows = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        assert _fast.bareiss_det(rows) == (-1) ** inversions


@settings(max_examples=150, deadline=None)
@given(square(st.one_of(entries, sparse_entries), min_size=0, max_size=7),
       st.booleans(), st.booleans())
def test_adj_det_matches_domain_matrix(rows, zero_diagonal, singular):
    n = len(rows)
    if zero_diagonal:
        for i in range(n):
            rows[i][i] = 0
    if singular and n >= 2:
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    adj, det = DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ).adj_det()
    if det == 0:
        assert _fast.adj_det(rows) == (None, 0)
    else:
        assert _fast.adj_det(rows) == ([[int(x) for x in row] for row in adj.to_list()], int(det))


@pytest.mark.parametrize("eps, expected", [
    (1, [0, -1, -1, 1, 1]),  # w (w - 1) (w + 1)^2
    (-1, [0, -1, 1, 1, -1]),  # -w (w - 1)^2 (w + 1)
])
def test_det_poly_shifts_past_singular_points(eps, expected):
    # P = [1] + [[0, 1], [-1, 0]] + [[0, 1], [0, 0]] has D(0) = D(1) = D(-1) = 0:
    # a singular P, and D vanishing at three small integer points
    rows = [
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
    ]
    assert interpolated_det_poly(rows, eps) == expected
    assert _fast.pencil_det_poly(_fast.PencilCore(rows, eps)) == expected


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
    # and P, P^T share no kernel vector, so D is not identically 0
    rows = block_diag([[1]], [[0, 1], [-1, 0]], [[0, 1], [0, 0]], [[1, 1], [0, -2]],
                      [[1, 2], [0, -3]], [[1, 3], [0, 2]], [[1, 4], [0, 3]])
    expected = interpolated_det_poly(rows, 1)
    assert len(expected) == 13
    assert _fast.pencil_det_poly(_fast.PencilCore(rows, 1)) == expected


@pytest.mark.parametrize("eps", [1, -1])
def test_det_poly_identically_singular_without_common_kernel(eps):
    # ker P = <e1> and ker P^T = <e3> meet in 0, yet det(w*P - eps*P^T) = 0
    rows = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert interpolated_det_poly(rows, eps) == []
    assert _fast.pencil_det_poly(_fast.PencilCore(rows, eps)) == []


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


def sign_changes(coeffs):
    nonzero = [c for c in coeffs if c]
    return sum((a > 0) != (b > 0) for a, b in zip(nonzero, nonzero[1:]))


def reference_signature(m):
    """sigma(H) for H = A + iB, from the real symmetric [[A, -B], [B, A]].

    The embedding has H's spectrum twice over, so its signature is
    2 sigma(H).  Its characteristic polynomial has only real roots, so
    Descartes' rule of signs counts the positive and the negative ones
    exactly, once the factor x^k of the zero roots is divided out.
    """
    n = len(m)
    a = [[x for x, _ in row] for row in m]
    b = [[y for _, y in row] for row in m]
    big = [ra + [-y for y in rb] for ra, rb in zip(a, b)] + [rb + ra for ra, rb in zip(a, b)]
    coeffs = [int(c) for c in DomainMatrix([[ZZ(x) for x in row] for row in big],
                                           (2 * n, 2 * n), ZZ).charpoly()]
    while coeffs[-1] == 0:
        coeffs.pop()
    pos = sign_changes(coeffs)
    neg = sign_changes([-c if i & 1 else c for i, c in enumerate(coeffs)])
    return (pos - neg) // 2


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


def agrees(m):
    assert _fast.herm_sig_fast(*upper_rows(m)) == reference_signature(m)


@settings(max_examples=80, deadline=None)
@given(hermitian_st(entries, entries))
def test_sig_matches_reference(m):
    agrees(m)


@settings(max_examples=80, deadline=None)
@given(hermitian_st(sparse_entries, st.sampled_from([1, -1, 2, -2, 3])))
def test_sig_sparse_rows_skip_zero_multipliers(m):
    # nonzero diagonals and mostly zero off-diagonals: many rows are skipped
    # and brought up to date only when next read
    agrees(m)


@settings(max_examples=80, deadline=None)
@given(hermitian_st(sparse_entries, st.sampled_from([0, 0, 1, -2])))
def test_sig_zero_diagonals_force_swaps(m):
    agrees(m)


@settings(max_examples=150, deadline=None)
@given(hermitian_st(st.one_of(entries, sparse_entries), st.just(0)))
def test_sig_all_zero_diagonal_takes_congruence_steps(m):
    # every pivot has to be made by a congruence step or come out of the
    # elimination, and a row of zeros may sit before the first nonzero one
    agrees(m)


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
def test_sig_zero_diagonal_schur_complement(diag, z):
    # eliminating the nonsingular diagonal block leaves [[0, z], [conj z, 0]],
    # whose signature is 0
    k = len(diag)
    upper = [[(0, 0)] * (k + 2) for _ in range(k + 2)]
    upper[k][k + 1] = z
    m = hermitian(upper, diag + [0, 0])
    expected = sum(1 if d > 0 else -1 for d in diag)
    assert _fast.herm_sig_fast(*upper_rows(m)) == expected
    assert reference_signature(m) == expected


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
    agrees(m)


@settings(max_examples=60, deadline=None)
@given(square(entries, max_size=5), eps_st,
       st.integers(min_value=-9, max_value=9).filter(bool),
       st.integers(min_value=1, max_value=9))
def test_pencil_core_is_the_scaled_pencil(rows, eps, u, v):
    # a plain matrix is one group with N = 1: its core is 2|u| * (w*P - eps*P^T)/(w - 1)
    # at w = (1+it)/(1-it), t = u/v, and 2 * that at w = -1; both times i when eps = -1
    n = len(rows)
    turn = GaussRat(1) if eps == 1 else GaussRat(0, 1)
    t = Fraction(u, v)
    core = _fast.PencilCore(rows, eps)
    assert core.chain_signature(u, v) == 0
    # index -> (its block, its place in the block); the blocks partition the indices
    where = {i: (k, a) for k, (blk, *_) in enumerate(core.blocks) for a, i in enumerate(blk)}
    assert sorted(where) == list(range(n))
    for w, c, g in [
        (GaussRat(1, t) / GaussRat(1, -t), 2 * abs(u), core.at(u, v)),
        (GaussRat(-1), 2, core.at(1, 0)),
    ]:
        assert len(g) == len(core.blocks)
        for i in range(n):
            k, a = where[i]
            re, im = g[k]
            size = len(core.blocks[k][0])
            assert all(a <= j < size for r in (re[a], im[a]) for j in r)
            for j in range(i, n):
                z = GaussRat(c) * turn * (w * rows[i][j] - eps * rows[j][i]) / (w - 1)
                l, b = where[j]
                # an entry between two blocks is 0, and is not stored
                got = (re[a].get(b, 0), im[a].get(b, 0)) if l == k else (0, 0)
                assert got == (z.re, z.im)


@st.composite
def planted_hermitian(draw):
    """A hermitian direct sum of blocks, under a random symmetric permutation.

    Each index draws a label, and an entry is nonzero only between two
    indices with the same label.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    label = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    pair = st.tuples(st.one_of(entries, sparse_entries), st.one_of(entries, sparse_entries))
    upper = [[draw(pair) if label[i] == label[j] else (0, 0) for j in range(n)]
             for i in range(n)]
    diag = [draw(st.sampled_from([0, 0, 1, -1, 2, -3])) for _ in range(n)]
    m = hermitian(upper, diag)
    perm = draw(st.permutations(range(n)))
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(planted_hermitian())
def test_sig_block_sum_matches_reference(m):
    # inertia is additive over a direct sum (Sylvester), so the blocks'
    # signatures add up to the whole matrix's
    blocks = _fast._components([[j for j, z in enumerate(row) if z != (0, 0)] for row in m])
    assert sorted(i for blk in blocks for i in blk) == list(range(len(m)))
    for blk in blocks:
        assert not any(m[i][j] != (0, 0) for i in blk for j in range(len(m)) if j not in blk)
    got = sum(_fast.herm_sig_fast(*upper_rows([[m[i][j] for j in blk] for i in blk]))
              for blk in blocks)
    assert got == reference_signature(m)


def whole_core(rows, eps, mults, u, v):
    """The core at t = u/v as one dense hermitian (re, im) matrix, or None.

    The integer form of PencilCore's docstring, scaled by 2L with L the lcm
    of every group's Im(z^N), z = v + iu: real part L*(M + M^T) and
    imaginary part -(a*L/b)*(M - M^T) for eps = 1, real part
    (a*L/b)*(M + M^T) and imaginary part L*(M - M^T) for eps = -1, with
    (a, b) = (v, u) between groups and (g*x, y) in a group, z^N = x + iy.
    """
    n = len(rows)
    size = n // len(mults)
    ab = []
    for m in mults:
        x, y = 1, 0
        for _ in range(abs(m)):
            x, y = x * v - y * u, x * u + y * v
        if y == 0:
            return None
        ab.append((x if m > 0 else -x, y))
    big = math.lcm(*(y for _, y in ab))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            gi, gj = i // size, j // size
            a, b = ab[gi] if gi == gj else (v, u)
            s, k = rows[i][j] + rows[j][i], rows[i][j] - rows[j][i]
            assert a * big % b == 0
            c = a * big // b
            out[i][j] = (big * s, -c * k) if eps == 1 else (c * s, big * k)
    return out


@st.composite
def planted_core(draw):
    """(rows, mults) of a core with planted blocks: a label per index, and
    nonzero entries only between indices with the same label."""
    b = draw(st.integers(min_value=1, max_value=3))
    mults = draw(st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4]), min_size=1, max_size=3))
    n = b * len(mults)
    label = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    rows = [[draw(st.one_of(entries, sparse_entries)) if label[i] == label[j] else 0
             for j in range(n)] for i in range(n)]
    return rows, mults


@settings(max_examples=150, deadline=None)
@given(planted_core(), eps_st,
       st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=0, max_value=9))
def test_pencil_core_block_sum_matches_whole_core(core_mults, eps, u, v):
    rows, mults = core_mults
    core = _fast.PencilCore(rows, eps, mults)
    blocks = core.at(u, v)
    whole = whole_core(rows, eps, mults, u, v)
    assert (blocks is None) == (whole is None)
    assume(whole is not None)
    where = {i: k for k, (blk, *_) in enumerate(core.blocks) for i in blk}
    assert all(whole[i][j] == (0, 0) for i in where for j in where if where[i] != where[j])
    for (blk, *_), (re, im) in zip(core.blocks, blocks):
        # each block is a positive multiple of the whole core on its indices
        got = [(re[a].get(b, 0), im[a].get(b, 0), *whole[i][j])
               for a, i in enumerate(blk) for b, j in enumerate(blk) if b >= a]
        scale = next((Fraction(x, wx) if wx else Fraction(y, wy)
                      for x, y, wx, wy in got if wx or wy), 1)
        assert scale > 0
        assert all((x, y) == (scale * wx, scale * wy) for x, y, wx, wy in got)
    assert (sum(_fast.herm_sig_fast(re, im) for re, im in blocks)
            == _fast.herm_sig_fast(*upper_rows(whole)))


@pytest.mark.parametrize("n", range(1, 9))
def test_half_turns_counts_multiples_of_pi(n):
    # floor(n * phi / pi) for phi = arg(v + iu) in (0, pi), u > 0, or arg(-(v + iu)) for u < 0
    for u in range(-5, 6):
        for v in range(-5, 6):
            if u == 0:
                continue
            z = complex(v, u) if u > 0 else complex(-v, -u)
            x = n * cmath.phase(z) / math.pi
            if abs(x - round(x)) > 1e-9:
                assert _fast._half_turns(u, v, n) == math.floor(x)
