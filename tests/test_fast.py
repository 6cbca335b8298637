"""Differential tests of the integer kernels in covsig._fast.

bareiss_det is checked against sympy's DomainMatrix.det and against the sign
of permutation matrices, adj_det against DomainMatrix.adj_det, pencil_det_poly
and every block minor (minor_poly, generic_minor_poly, read off one value at
a power of two) against Newton interpolation of integer determinants of the
pencil (in Fractions, conftest's newton_interp), PencilCore.at on a plain
matrix against the pencil formula in sympy's Gaussian rationals QQ_I,
herm_sig_fast against the characteristic polynomial of the real embedding
of the hermitian matrix, which shares no code with it, a batch of matrices
against each member alone, and the sum over a core's connected blocks
against the whole core.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

from covsig import _fast
from conftest import interpolated_det_poly, newton_interp

eps_st = st.sampled_from([1, -1])
entries = st.integers(min_value=-3, max_value=3)
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])


def square(elements, min_size=1, max_size=6):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    )


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


def m_prime_at(rows, eps, mults, w):
    """M'(w) of a core in ints, by PencilCore's formula: w^N a - eps*a^T within a group,
    q_N(w) * (w*a - eps*a^T) between groups, N and q_N(w) = 1 + ... + w^(N-1) the row's."""
    b = len(rows) // len(mults)
    out = []
    for i, row in enumerate(rows):
        n = mults[i // b]
        q = sum(w**e for e in range(n))
        out.append([w**n * a - eps * rows[j][i] if i // b == j // b else q * (w * a - eps * rows[j][i])
                    for j, a in enumerate(row)])
    return out


@st.composite
def cores_with_minors(draw):
    """(rows, eps, mults, minors): a core of up to 3 groups of N <= 4, and per block a square minor.

    Half the cores get two places of one group with equal rows and equal
    columns in M, which makes two rows of M' equal: their block has det 0.
    """
    eps = draw(eps_st)
    b = draw(st.integers(min_value=1, max_value=3))
    mults = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    n = b * len(mults)
    rows = draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if b >= 2 and draw(st.booleans()):
        g = draw(st.integers(min_value=0, max_value=len(mults) - 1))
        i, j = (g * b + r for r in sorted(draw(st.permutations(range(b)))[:2]))
        rows[j] = list(rows[i])
        for row in rows:
            row[j] = row[i]
        rows[i][i] = rows[i][j] = rows[j][i] = rows[j][j] = draw(entries)
    core = _fast.PencilCore(rows, eps, mults)
    minors = []
    for blk, *_ in core.blocks:
        k = draw(st.integers(min_value=1, max_value=len(blk)))
        minors.append([sorted(draw(st.permutations(range(len(blk))))[:k]) for _ in "rc"])
    return rows, eps, mults, minors


@settings(max_examples=80, deadline=None)
@given(cores_with_minors())
def test_minor_poly_matches_the_minor_of_m_prime(case):
    # every minor, the whole block and a proper one, against sympy's
    # determinant of that minor of M'(w) at integers w; a block of det 0
    # takes a generic minor, which is 0 only for a zero block
    rows, eps, mults, minors = case
    core = _fast.PencilCore(rows, eps, mults)
    for b, (ri, ci) in enumerate(minors):
        blk = core.blocks[b][0]
        whole = _fast.minor_poly(core, b)
        part = _fast.minor_poly(core, b, ri, ci)
        assert all(not f or f[-1] for f in (whole, part))
        for w in range(-3, 4):
            m = m_prime_at(rows, eps, mults, w)
            for f, (r, c) in ((whole, (range(len(blk)),) * 2), (part, (ri, ci))):
                minor = [[ZZ(m[blk[i]][blk[j]]) for j in c] for i in r]
                assert sum(x * w**k for k, x in enumerate(f)) == DomainMatrix(
                    minor, (len(r), len(r)), ZZ).det()
        if not whole:
            zero_block = not any(a or at for row in core.blocks[b][2] for _, a, at in row)
            assert (_fast.generic_minor_poly(core, b) == []) == zero_block


def interpolated_minor(rows, eps, mults, blk, ri, ci):
    """The minor of M'_blk(w) on ri and ci, interpolated from sympy's determinants at w = 0..n."""
    n = sum(mults[blk[i] // (len(rows) // len(mults))] for i in ri)
    ys = []
    for w in range(n + 1):
        m = m_prime_at(rows, eps, mults, w)
        minor = [[ZZ(m[blk[i]][blk[j]]) for j in ci] for i in ri]
        ys.append(int(DomainMatrix(minor, (len(ri), len(ri)), ZZ).det()))
    return newton_interp(list(range(n + 1)), ys)


@st.composite
def wide_cores(draw):
    """(rows, eps, mults): up to 3 groups of N <= 4 with entries up to 40, some blocks of det 0."""
    eps = draw(eps_st)
    b = draw(st.integers(min_value=1, max_value=3))
    mults = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    n = b * len(mults)
    wide = st.one_of(st.just(0), st.integers(min_value=-40, max_value=40))
    rows = draw(st.lists(st.lists(wide, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # two equal rows and columns of M in one group make two rows of M' equal
        i, j = sorted(draw(st.permutations(range(n)))[:2])
        if i // b == j // b:
            rows[j] = list(rows[i])
            for row in rows:
                row[j] = row[i]
    return rows, eps, tuple(mults)


@settings(max_examples=60, deadline=None)
@given(wide_cores())
# -w + 1: a negative leading coefficient
@example(([[-1]], 1, (1,)))
# the 2 x 2 block w^3 [[1, 1], [1, 1]] - [[1, 1], [1, 1]] has det 0
@example(([[1, 1], [1, 1]], 1, (3,)))
# a group of N = 2 and one of N = 3, joined, at eps = -1
@example(([[2, -3], [5, -1]], -1, (2, 3)))
# -(q_4(w) (4w + 4))^2, whose coefficients reach 224: a bound without the
# factor N between groups would be 64, and one byte of digits too few
@example(([[0, 4], [4, 0]], -1, (4, 4)))
def test_block_minors_match_interpolated_determinants(case):
    # each block's determinant and generic minor against Newton interpolation
    # of sympy's determinants of M'(w) at integers; the generic minor sits on
    # the rank profile of M' at a point far past every root of its minors,
    # of the generic rank, the most that M' has at w = 0..n
    rows, eps, mults = case
    core = _fast.PencilCore(rows, eps, mults)
    for b, (blk, *_) in enumerate(core.blocks):
        whole = range(len(blk))
        f = _fast.minor_poly(core, b)
        assert f == interpolated_minor(rows, eps, mults, blk, whole, whole)
        g = _fast.generic_minor_poly(core, b)
        if f:
            assert g == f
            continue
        m = m_prime_at(rows, eps, mults, 1 << 4096)
        ri, ci = _fast.rank_profile([[m[i][j] for j in blk] for i in blk])
        # every minor of the block has degree at most n
        n = sum(mults[i // (len(rows) // len(mults))] for i in blk)
        rank = max(DomainMatrix([[ZZ(m[i][j]) for j in blk] for i in blk], (len(blk),) * 2, ZZ).rank()
                   for w in range(n + 1) for m in [m_prime_at(rows, eps, mults, w)])
        assert len(ri) == rank
        # a block of rank 0 has no minor to give
        assert g == (interpolated_minor(rows, eps, mults, blk, ri, ci) if rank else [])


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


def batch_of_one(rows):
    """Sparse upper rows {j: x} as the rows of a batch of one, {j: [x]}."""
    return [{j: [x] for j, x in row.items()} for row in rows]


def sig_of_rows(re, im):
    """herm_sig_fast on one matrix's sparse upper rows, as a batch of one."""
    return _fast.herm_sig_fast(batch_of_one(re), batch_of_one(im), 1)[0]


def agrees(m):
    assert sig_of_rows(*upper_rows(m)) == reference_signature(m)


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
    # a zero row between nonzero ones is skipped
    ([[(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (-1, 0)]], 0),
    # R[b][b] + 2 Re h = 0: the congruence step takes c = -1
    ([[(0, 0), (1, 0)], [(1, 0), (-2, 0)]], 0),
    # R[b][b] + 2 Im h = 0: the congruence step takes c = -i
    ([[(0, 0), (0, 1)], [(0, -1), (-2, 0)]], 0),
])
def test_sig_symmetric_swap(m, expected):
    # the leading diagonal entry is 0 but a later one is not, or the row is
    # 0: the pivot at k comes from one congruence step or k is skipped
    assert reference_signature(m) == expected
    assert sig_of_rows(*upper_rows(m)) == expected


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
    assert sig_of_rows(*upper_rows(m)) == expected
    assert reference_signature(m) == expected


values = st.sampled_from([0, 0, 1, -1, 2, -2, 3])


@st.composite
def pattern_batch(draw):
    """A batch of 1-8 dense hermitian (re, im) matrices of size <= 6 on one sparsity pattern.

    The pattern switches each upper entry's real and imaginary part on or
    off; each member draws its own value, 0 included, at every entry that is
    on.  So members share the pattern but may have a zero diagonal (the
    congruence step), a zero row, or a pivot that vanishes only at a later
    step, while the others go on.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    size = draw(st.integers(min_value=1, max_value=8))
    on = [[(draw(st.booleans()), draw(st.booleans()) and j > i) for j in range(n)]
          for i in range(n)]
    return [hermitian([[(draw(values) if a else 0, draw(values) if b else 0) for a, b in row]
                       for row in on],
                      [draw(values) if on[i][i][0] else 0 for i in range(n)])
            for _ in range(size)]


def batch_rows(members):
    """The rows herm_sig_fast takes for a batch of dense (re, im) matrices, one list per entry."""
    n = len(members[0])
    rows = ([{} for _ in range(n)], [{} for _ in range(n)])
    for i in range(n):
        for j in range(i, n):
            for part, rr in enumerate(rows):
                xs = [m[i][j][part] for m in members]
                if any(xs):
                    rr[i][j] = xs
    return rows


Z3 = [(0, 0)] * 3


@settings(max_examples=150, deadline=None)
@given(pattern_batch())
# the second member (sigma -1) takes a congruence step at step 0 on a zero
# diagonal; at step 1 the first (sigma 1) has a zero pivot in a nonzero row
# and the last (sigma 2) a zero row, while the third (sigma 3) pivots: each
# keeps its own count
@example([hermitian([[(0, 0), (1, 0), (1, 0)], [(0, 0)] * 3, [(0, 0)] * 3], [1, 1, 0]),
          hermitian([[(0, 0), (1, 0), (0, 0)], [(0, 0)] * 3, [(0, 0)] * 3], [0, 1, -1]),
          hermitian([[(0, 0), (1, 0), (0, 0)], [(0, 0)] * 3, [(0, 0)] * 3], [2, 3, 1]),
          hermitian([[(0, 0), (1, 0), (0, 0)], [(0, 0)] * 3, [(0, 0)] * 3], [1, 1, 5])])
# two zero pivots at step 0 whose first columns differ: the second member is
# 0 in the first's column 1, whose diagonal entry is 0 too, so only its own
# column 2 makes its pivot
@example([hermitian([[(0, 0), (1, 0), (0, 0)], Z3, Z3], [0, 2, 1]),
          hermitian([[(0, 0), (0, 0), (1, 0)], Z3, Z3], [0, 0, -1])])
# a structural zero diagonal: every member takes a congruence step at every
# pivot it reaches with a nonzero row
@example([hermitian([[(0, 0), (1, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (0, 0), (2, 0)],
                     [(0, 0), (0, 0), (0, 0), (1, -1)], [(0, 0)] * 4], [0, 0, 0, 0]),
          hermitian([[(0, 0), (0, 1), (1, 0), (0, 0)], [(0, 0), (0, 0), (0, 0), (-1, 0)],
                     [(0, 0), (0, 0), (0, 0), (0, 2)], [(0, 0)] * 4], [0, 0, 0, 0]),
          hermitian([[(0, 0), (1, 1), (0, 0), (0, 0)], [(0, 0), (0, 0), (0, 0), (0, 0)],
                     [(0, 0), (0, 0), (0, 0), (3, 0)], [(0, 0)] * 4], [0, 0, 0, 0])])
# the first member's row 0 is 0, beside members that pivot there: its step is
# the identity and counts 0
@example([hermitian([Z3, [(0, 0), (0, 0), (1, 0)], Z3], [0, 1, -1]),
          hermitian([[(0, 0), (1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)], Z3], [1, 1, -1]),
          hermitian([[(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (2, 0)], Z3], [-2, 1, 1])])
def test_sig_batch_equals_each_member_alone(members):
    got = _fast.herm_sig_fast(*batch_rows(members), len(members))
    assert got == [sig_of_rows(*upper_rows(m)) for m in members]
    assert got == [reference_signature(m) for m in members]


@st.composite
def chain_arrow(draw):
    """Hermitian matrices shaped like the covering pencils.

    Each strand group is a first block of size b followed by a chain of
    blocks coupled to their predecessors; the chain's diagonal entries are 0,
    as in P + P^T, so elimination in the natural order is forced to take
    congruence steps.
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


def blocks_at(core, u, v):
    """Per block, core.at at the one sample t = u/v as sparse upper rows {j: x}; None where some w^N = 1."""
    powers = core.powers(u, v)
    if powers is None:
        return None
    out = []
    for b in range(len(core.blocks)):
        re, im = core.at(b, [(u, v, powers)])
        out.append(([{j: x for j, (x,) in row.items()} for row in re],
                    [{j: x for j, (x,) in row.items()} for row in im]))
    return out


@settings(max_examples=60, deadline=None)
@given(square(entries, max_size=5), eps_st,
       st.integers(min_value=-9, max_value=9).filter(bool),
       st.integers(min_value=1, max_value=9))
def test_pencil_core_is_the_scaled_pencil(rows, eps, u, v):
    # a plain matrix is one group with N = 1: its core is 2|u| * (w*P - eps*P^T)/(w - 1)
    # at w = (1+it)/(1-it), t = u/v, and 2 * that at w = -1; both times i when eps = -1
    n = len(rows)
    turn = QQ_I(1, 0) if eps == 1 else QQ_I(0, 1)
    t = Fraction(u, v)
    core = _fast.PencilCore(rows, eps)
    assert core.chain_signature(core.powers(u, v)) == 0
    # index -> (its block, its place in the block); the blocks partition the indices
    where = {i: (k, a) for k, (blk, *_) in enumerate(core.blocks) for a, i in enumerate(blk)}
    assert sorted(where) == list(range(n))
    for w, c, g in [
        (QQ_I(1, t) / QQ_I(1, -t), 2 * abs(u), blocks_at(core, u, v)),
        (QQ_I(-1, 0), 2, blocks_at(core, 1, 0)),
    ]:
        assert len(g) == len(core.blocks)
        for i in range(n):
            k, a = where[i]
            re, im = g[k]
            size = len(core.blocks[k][0])
            assert all(a <= j < size for r in (re[a], im[a]) for j in r)
            for j in range(i, n):
                z = c * turn * (w * rows[i][j] - eps * rows[j][i]) / (w - 1)
                l, b = where[j]
                # an entry between two blocks is 0, and is not stored
                got = (re[a].get(b, 0), im[a].get(b, 0)) if l == k else (0, 0)
                assert got == (z.x, z.y)


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
    got = sum(sig_of_rows(*upper_rows([[m[i][j] for j in blk] for i in blk]))
              for blk in blocks)
    assert got == reference_signature(m)


def whole_core(rows, eps, mults, u, v):
    """The core at t = u/v as one dense hermitian (re, im) matrix, or None.

    The integer form of PencilCore's docstring, scaled by 2L with L the lcm
    of every group's Im(z^N), z = v + iu: real part L*(M + M^T) and
    imaginary part -(a*L/b)*(M - M^T) for eps = 1, real part
    (a*L/b)*(M + M^T) and imaginary part L*(M - M^T) for eps = -1, with
    (a, b) = (v, u) between groups and (x, y) in a group, z^N = x + iy.
    """
    n = len(rows)
    size = n // len(mults)
    ab = []
    for m in mults:
        x, y = 1, 0
        for _ in range(m):
            x, y = x * v - y * u, x * u + y * v
        if y == 0:
            return None
        ab.append((x, y))
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
    mults = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
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
    blocks = blocks_at(core, u, v)
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
    assert sum(sig_of_rows(re, im) for re, im in blocks) == sig_of_rows(*upper_rows(whole))


@pytest.mark.parametrize("n", range(1, 9))
def test_half_turns_counts_multiples_of_pi(n):
    # floor(n * phi / pi) for phi = arg(v + iu) in (0, pi), u > 0, or arg(-(v + iu)) for u < 0,
    # next to that z^n itself
    for u in range(-5, 6):
        for v in range(-5, 6):
            if u == 0:
                continue
            z = complex(v, u) if u > 0 else complex(-v, -u)
            x = n * cmath.phase(z) / math.pi
            if abs(x - round(x)) > 1e-9:
                re, im, q = _fast._gauss_walk(u, v, {n})[n]
                assert q == math.floor(x)
                assert complex(re, im) == z ** n
