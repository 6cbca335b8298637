"""Covering transfer: Gamma, the block array, the covering matrix in the
strand-difference basis against the dense tiled expansion, and the
closed-form scaling-factor oracles."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covsig import (
    CoveringMatrix,
    CoveringSpec,
    NotPrimePower,
    NotRationalHomologySphere,
    RatMatrix,
    SeifertData,
    build_covering,
    covering_blocks,
    covering_matrix,
    gamma,
    ltm_family,
    mat_inverse,
    ltm_y_oracle,
    p3_y_oracle,
    fold,
    jump_function,
    parallel_copies,
    solve_multiplicities,
)
from covsig import _fast, jumps
from covsig._fast import PencilCore
from covsig.exact import block_matrix, isolate_real_roots
from covsig.exact import poly as P
from covsig.jumps import (
    _core_rows,
    _gap_signatures,
    _generic_minor_poly,
    _remove_common_kernel,
    _sample_point,
    _sig_at,
    jump_to_obj,
)
from conftest import ALG, T25, TREFOIL, interpolated_det_poly, same_jumps


def test_covering_spec():
    spec = CoveringSpec(p=3)
    assert spec.d == 3
    assert spec.target == (1, 0, 0)
    assert CoveringSpec(p=2, a=3).d == 8
    assert CoveringSpec(p=3, target=(0, 1, 0)).target == (0, 1, 0)
    with pytest.raises(NotPrimePower):
        CoveringSpec(p=6)
    with pytest.raises(NotPrimePower):
        CoveringSpec(p=3, a=0)
    with pytest.raises(ValueError):
        CoveringSpec(p=3, target=(1, 0))


def test_gamma_identity():
    # Gamma - I = (A - eps*A^T)^(-1) * eps*A^T, so A(Gamma - I) relation holds
    g = gamma(TREFOIL, 1)
    skew = TREFOIL - TREFOIL.transpose()
    assert skew @ g == TREFOIL
    assert skew @ (g - RatMatrix.identity(2)) == TREFOIL.transpose()


def test_ltm_gamma_idempotent():
    for m in (2, 3, 5):
        sd, _ = ltm_family(TREFOIL, m)
        g = gamma(sd.A, sd.epsilon)
        assert g @ g == g


def test_ltm_family_shapes_and_coeffs():
    sd, c = ltm_family(TREFOIL, 2)
    assert c == {0: 2, 1: -1}
    assert sd.A.shape == (4, 4)
    assert sd.assembled().shape == (8, 8)
    # m = 1 gives the trivial boundary pattern
    _, c1 = ltm_family(TREFOIL, 1)
    assert c1 == {0: 1}


def test_ltm_family_rejects_degenerate_v():
    # V = [0] makes A - eps*A^T singular, so the transfer is undefined
    from covsig import SingularMatrix

    with pytest.raises(SingularMatrix):
        ltm_family(RatMatrix([[0]]), 2)


def test_covering_blocks_sparsity():
    """With Gamma idempotent, G*H = 0 kills every block except the diagonal,
    j = 1 and j = d-1 bands."""
    sd, _ = ltm_family(TREFOIL, 2)
    for p in (3, 5):
        blocks = covering_blocks(sd, CoveringSpec(p=p))
        d = p
        for k in range(d):
            for l in range(d):
                j = (k - l) % d
                if j in (0, 1, d - 1):
                    assert not blocks[k][l].is_zero()
                else:
                    assert blocks[k][l].is_zero()
        # the diagonal block is the same for every k
        assert all(blocks[k][k] == blocks[0][0] for k in range(d))


def test_covering_matrix_drops_zero_multiplicities():
    sd, _ = ltm_family(TREFOIL, 2)
    blocks = covering_blocks(sd, CoveringSpec(p=3))
    x = [Fraction(1), Fraction(0), Fraction(0)]
    m = covering_matrix(blocks, x, 1, sd.epsilon)
    assert m == blocks[0][0]
    with pytest.raises(ValueError):
        covering_matrix(blocks, [Fraction(1, 2), 0, 0], 1, sd.epsilon)


def test_build_covering_ltm_2_3():
    sd, c = ltm_family(TREFOIL, 2)
    cm = build_covering(sd, c, CoveringSpec(p=3))
    assert cm.s == 7
    assert cm.multiplicities == (4, 1, 2)
    # block size 4, total strands 4+1+2 = 7
    assert cm.expanded_P.shape == (28, 28)


# ---------------------------------------------------------------------------
# the strand-difference basis against the dense tiled expansion


def dense_covering(blocks, mults, epsilon):
    """The covering matrix written out densely: parallel copies on the
    diagonal and each off-diagonal block tiled once per pair of strands."""
    keep = [k for k, m in enumerate(mults) if m]
    sign = {k: 1 if mults[k] > 0 else -1 for k in keep}
    grid = []
    for k in keep:
        row = []
        for l in keep:
            if k == l:
                row.append(parallel_copies(blocks[k][k], (sign[k],) * abs(mults[k]), epsilon))
            else:
                tile = blocks[k][l].scale(sign[k] * sign[l])
                row.append(block_matrix([[tile] * abs(mults[l])] * abs(mults[k])))
        grid.append(row)
    return block_matrix(grid)


def strand_difference_basis(mults, b):
    """T with columns f_1 = e_1, f_i = e_i - e_(i-1) inside each strand group."""
    n = b * sum(abs(m) for m in mults)
    t = [[0] * n for _ in range(n)]
    at = 0
    for m in mults:
        for i in range(abs(m) * b):
            t[at + i][at + i] = 1
            if i >= b:
                t[at + i - b][at + i] = -1
        at += abs(m) * b
    return RatMatrix(t)


def int_rows(m):
    return [[int(x) for x in row] for row in m.rows]


block_entries = st.integers(min_value=-2, max_value=2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=2).flatmap(lambda b: st.lists(
        st.lists(st.lists(st.lists(block_entries, min_size=b, max_size=b),
                          min_size=b, max_size=b).map(RatMatrix),
                 min_size=3, max_size=3),
        min_size=3, max_size=3)),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)
      .filter(lambda ms: any(ms) and sum(map(abs, ms)) <= 5),
    st.sampled_from([1, -1]),
)
def test_covering_matrix_is_congruent_to_dense(blocks, mults, epsilon):
    dense = dense_covering(blocks, mults, epsilon)
    t = strand_difference_basis([m for m in mults if m], blocks[0][0].nrows)
    got = covering_matrix(blocks, mults, 1, epsilon)
    assert t.transpose() @ dense @ t == got
    assert (_fast.pencil_det_poly(PencilCore(int_rows(got), epsilon))
            == _fast.pencil_det_poly(PencilCore(int_rows(dense), epsilon)))
    assert same_jumps(jump_function(got, epsilon), jump_function(dense, epsilon))


def nonzero_blocks(m, b):
    return {(i // b, j // b) for i, row in enumerate(m.rows) for j, x in enumerate(row) if x}


@pytest.mark.parametrize("epsilon", [1, -1])
def test_covering_matrix_structure(epsilon):
    # strands (3, -2, 1, 2, -1) of five components, every block nonzero: each
    # group is a bidiagonal chain and each pair of groups meets in one block
    mults = (3, -2, 1, 2, -1)
    blocks = [[RatMatrix([[k + 2 * l + 1, 1], [0, k - l + 3]]) for l in range(5)]
              for k in range(5)]
    got = covering_matrix(blocks, mults, 1, epsilon)
    firsts = [0, 3, 5, 6, 8]  # block index of each group's first strand
    expected = set()
    for k, (m, f) in enumerate(zip(mults, firsts)):
        expected |= {(f + i, f + i) for i in range(abs(m))}
        # + groups: only (i, i+1) survives off the diagonal; - groups: (i+1, i)
        expected |= {(f + i, f + i + 1) if m > 0 else (f + i + 1, f + i)
                     for i in range(abs(m) - 1)}
        expected |= {(f, g) for g in firsts if g != f}
    assert nonzero_blocks(got, 2) == expected


def test_covering_matrix_nnz_ltm_2_5():
    sd, c = ltm_family(TREFOIL, 2)
    cm = build_covering(sd, c, CoveringSpec(p=5))
    m = cm.expanded_P
    assert m.nrows == 124
    assert sum(1 for row in m.rows for x in row if x) == 268


# ---------------------------------------------------------------------------
# integer covering blocks against the Gamma formulas in Fractions


def fraction_covering_blocks(sd, spec):
    """The blocks A_kl straight from the Gamma formulas, in Fraction matrices."""
    d, eps = spec.d, sd.epsilon
    G = gamma(sd.A, eps)
    H = G - RatMatrix.identity(G.nrows)
    gpow, hpow = [RatMatrix.identity(G.nrows)], [RatMatrix.identity(G.nrows)]
    for _ in range(d):
        gpow.append(gpow[-1] @ G)
        hpow.append(hpow[-1] @ H)
    tail = mat_inverse(gpow[d] - hpow[d]) @ mat_inverse(sd.A - sd.A.transpose().scale(eps)) @ sd.B
    ebt = sd.B.transpose().scale(eps)
    by_j = [sd.C - ebt @ ((gpow[d - 1] - hpow[d - 1]) @ tail)]
    by_j += [ebt @ (gpow[j - 1] @ hpow[d - j - 1] @ tail) for j in range(1, d)]
    return tuple(tuple(by_j[(k - l) % d] for l in range(d)) for k in range(d))


@pytest.mark.parametrize("V", [TREFOIL, T25, ALG, ALG.scale(Fraction(1, 2))],
                         ids=["trefoil", "t25", "alg", "alg/2"])
@pytest.mark.parametrize("epsilon", [1, -1])
@pytest.mark.parametrize("p, a", [(3, 1), (2, 2), (5, 1), (2, 3)], ids=["d3", "d4", "d5", "d8"])
def test_integer_blocks_equal_fraction_blocks(V, epsilon, p, a):
    # at eps = -1, det(A + A^T) is 49 for ALG: a misplaced factor of det S shows there
    sd, _ = ltm_family(V, 2, epsilon)
    spec = CoveringSpec(p=p, a=a)
    assert covering_blocks(sd, spec) == fraction_covering_blocks(sd, spec)


def test_covering_blocks_refuse_a_cover_that_is_not_a_homology_sphere():
    # A = [1], eps = -1: G = 1/2 and H = -1/2, so G^2 - H^2 = 0
    sd = SeifertData(RatMatrix([[1]]), RatMatrix([[1]]), RatMatrix([[1]]), -1)
    with pytest.raises(NotRationalHomologySphere):
        covering_blocks(sd, CoveringSpec(p=2))


# ---------------------------------------------------------------------------
# signature samples on the core against the n x n pencil


def pencil_oracle(rows, eps, u, v):
    """sigma of the n x n pencil at t = u/v, from the pencil itself.

    2u * (w*P - eps*P^T)/(w - 1) at w = (1+it)/(1-it), times i for eps = -1,
    has real part u*(P + P^T) and imaginary part -v*(P - P^T) for eps = 1,
    and v*(P + P^T) and u*(P - P^T) for eps = -1.
    """
    n = len(rows)
    cr, ci = (u, -v) if eps == 1 else (v, u)
    re = [{j: cr * (rows[i][j] + rows[j][i]) for j in range(i, n)} for i in range(n)]
    im = [{j: ci * (rows[i][j] - rows[j][i]) for j in range(i, n)} for i in range(n)]
    sig = _fast.herm_sig_fast(re, im)
    return sig if u > 0 else -sig


core_blocks = st.integers(min_value=1, max_value=2).flatmap(lambda b: st.lists(
    st.lists(st.lists(st.lists(block_entries, min_size=b, max_size=b),
                      min_size=b, max_size=b).map(RatMatrix),
             min_size=3, max_size=3),
    min_size=3, max_size=3))
core_mults = st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3).filter(any)


def as_covering(blocks, mults, epsilon):
    return CoveringMatrix(blocks, covering_matrix(blocks, mults, 1, epsilon), 1, tuple(mults))


@settings(max_examples=200, deadline=None)
@given(core_blocks, core_mults, st.sampled_from([1, -1]),
       st.one_of(st.sampled_from([(1, 1), (-1, 1)]),
                 st.tuples(st.integers(min_value=-9, max_value=9).filter(bool),
                           st.integers(min_value=1, max_value=9))))
def test_core_signature_equals_pencil_signature(blocks, mults, epsilon, t):
    cm = as_covering(blocks, mults, epsilon)
    rows = int_rows(cm.expanded_P)
    core_rows, ms = _core_rows(cm)
    core = PencilCore(core_rows, epsilon, ms)
    u, v = t
    got = _sig_at(core, u, v)
    if got is None:
        # a chain is singular only at w^N = 1: t = +-1 with 4 | N
        assert abs(u) == v and any(m % 4 == 0 for m in core.mults)
    else:
        assert got == pencil_oracle(rows, epsilon, u, v)


@settings(max_examples=40, deadline=None)
@given(core_blocks,
       st.lists(st.sampled_from([-4, -3, -2, -1, 0, 1, 2, 3, 4, 4, -4]), min_size=3, max_size=3)
         .filter(lambda ms: any(ms) and sum(map(abs, ms)) <= 8),
       st.sampled_from([1, -1]))
def test_core_jump_function_equals_pencil_jump_function(blocks, mults, epsilon):
    # with 4 | N a sample at t = 1 moves inside its gap; sigma0 and the jumps stay
    cm = as_covering(blocks, mults, epsilon)
    f, g = jump_function(cm, epsilon), jump_function(cm.expanded_P, epsilon)
    assert same_jumps(f, g)
    assert f.sigma0 == g.sigma0


@settings(max_examples=40, deadline=None)
@given(core_blocks, st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3)
         .filter(lambda ms: any(abs(m) >= 2 for m in ms)),
       st.sampled_from([1, -1]))
def test_singular_chain_is_a_common_kernel(blocks, x, y, mults, epsilon):
    # det(A_kk - eps*A_kk^T) = 0 on a group of N >= 2 strands: the chain is
    # singular everywhere, so D = 0 and the kernel step shrinks the matrix,
    # after which jump_function samples it as one group
    b = blocks[0][0].nrows
    if b == 1:
        A = RatMatrix([[x]]) if epsilon == 1 else RatMatrix([[0]])
    else:  # symmetric for eps = 1; A + A^T = diag(0, 2y) for eps = -1
        A = RatMatrix([[x, y], [y, x]]) if epsilon == 1 else RatMatrix([[0, x], [-x, y]])
    blocks = [[A if k == l else blocks[k][l] for l in range(3)] for k in range(3)]
    cm = as_covering(blocks, mults, epsilon)
    rows = int_rows(cm.expanded_P)
    assert _fast.pencil_det_poly(PencilCore(rows, epsilon)) == []
    assert len(_remove_common_kernel(rows)) < len(rows)
    f, g = jump_function(cm, epsilon), jump_function(cm.expanded_P, epsilon)
    assert same_jumps(f, g) and f.sigma0 == g.sigma0


# ---------------------------------------------------------------------------
# D(w) from the core against the n x n determinant


def one_by_one(entries):
    return [[RatMatrix([[x]]) for x in row] for row in entries]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda b: st.lists(
           st.lists(st.lists(st.lists(block_entries, min_size=b, max_size=b),
                             min_size=b, max_size=b).map(RatMatrix),
                    min_size=3, max_size=3),
           min_size=3, max_size=3)),
       core_mults, st.sampled_from([1, -1]))
# a negative group with odd (N - 1) * b: c carries the sign (-1)^((N-1)b)
@example(one_by_one([[1, 2, -1], [0, 2, 1], [1, -1, 1]]), [-2, 3, 1], -1)
@example(one_by_one([[1, 2, -1], [0, 2, 1], [1, -1, 1]]), [-4, -1, 2], -1)
# odd n at eps = 1: (1 + y)^n D is odd and of degree n, which needs h = (n + 1)/2
@example(one_by_one([[1, 2, -1], [0, 2, 1], [1, -1, 1]]), [-1, 1, 1], 1)
def test_core_det_poly_equals_pencil_det_poly(blocks, mults, epsilon):
    # covers det S_k = 0 (always for b = 1, eps = 1), where D = 0 and c = 0
    cm = as_covering(blocks, mults, epsilon)
    core_rows, ms = _core_rows(cm)
    assert (_fast.pencil_det_poly(PencilCore(core_rows, epsilon, ms))
            == _fast.pencil_det_poly(PencilCore(int_rows(cm.expanded_P), epsilon)))


@st.composite
def planted_blocks(draw):
    """(blocks A_kl, signed strand counts, eps) whose core has planted connected blocks.

    Each core index (group k, place r) draws a label, and A_kl[r][s] is
    nonzero exactly when (k, r) and (l, s) have the same label.  For eps = 1
    and b = 1, where every S = A - A^T is 0 and a group with N >= 2 forces
    D = 0, the groups have one strand each.
    """
    eps = draw(st.sampled_from([1, -1]))
    b = draw(st.integers(min_value=1, max_value=2))
    counts = [1, -1] if eps == 1 and b == 1 else [1, 2, 3, 4, -1, -2, -3, -4]
    mults = draw(st.lists(st.sampled_from(counts), min_size=2, max_size=3))
    label = [draw(st.lists(st.integers(min_value=0, max_value=2), min_size=b, max_size=b))
             for _ in mults]
    nonzero = st.sampled_from([1, -1, 2, -2])
    blocks = [[RatMatrix([[draw(nonzero) if label[k][r] == label[l][s] else 0
                           for s in range(b)] for r in range(b)])
               for l in range(len(mults))] for k in range(len(mults))]
    return blocks, mults, eps


@settings(max_examples=100, deadline=None)
@given(planted_blocks())
# b = 2, strands (2, -1), eps = -1: both blocks, {(0, 0), (1, 1)} and {(0, 1), (1, 0)},
# mix the two groups of opposite sign, and each has the odd degree n_b = 2 + 1
@example(([[RatMatrix([[1, 0], [0, 2]]), RatMatrix([[0, 1], [1, 0]])],
           [RatMatrix([[0, -1], [2, 0]]), RatMatrix([[1, 0], [0, -1]])]], [2, -1], -1))
# b = 1, strands (1, -1, 1), eps = 1: a block of the two opposite groups, and
# a block of odd degree 1
@example(([[RatMatrix([[1]]), RatMatrix([[2]]), RatMatrix([[0]])],
           [RatMatrix([[-1]]), RatMatrix([[1]]), RatMatrix([[0]])],
           [RatMatrix([[0]]), RatMatrix([[0]]), RatMatrix([[3]])]], [1, -1, 1], 1))
def test_core_det_poly_by_blocks_equals_dense_det_poly(planted):
    # the oracle interpolates det(w*P - eps*P^T) of the n x n matrix in
    # Fractions, with no block split
    blocks, mults, epsilon = planted
    cm = as_covering(blocks, mults, epsilon)
    core_rows, ms = _core_rows(cm)
    assert (_fast.pencil_det_poly(PencilCore(core_rows, epsilon, ms))
            == interpolated_det_poly(int_rows(cm.expanded_P), epsilon))


def eager_gap_signatures(core, gaps, owners):
    """The oracle of _gap_signatures: every block at every gap, at the same samples."""
    return [_sig_at(core, t.numerator, t.denominator)
            for t, _ in (_sample_point(core, lo, hi) for lo, hi in gaps)]


@settings(max_examples=100, deadline=None)
@given(planted_blocks())
# eps = -1, strands (-3, 4), two 1 x 1 blocks: D_b = 1 + w^3 and -2(1 + w^4),
# so the poles w^3 = 1 and w^4 = 1 of the groups lie inside gaps, where a
# block's signature moves against its chain term
@example(([[RatMatrix([[-1]]), RatMatrix([[0]])],
           [RatMatrix([[0]]), RatMatrix([[-2]])]], [-3, 4], -1))
# eps = -1, strands (1, 2, 2): the last two blocks are equal, so w = i, the
# root of Phi_4, is a candidate of both
@example(([[RatMatrix([[-1]]), RatMatrix([[0]]), RatMatrix([[0]])],
           [RatMatrix([[0]]), RatMatrix([[1]]), RatMatrix([[0]])],
           [RatMatrix([[0]]), RatMatrix([[0]]), RatMatrix([[1]])]], [1, 2, 2], -1))
def test_block_samples_equal_every_block_at_every_gap(planted):
    blocks, mults, epsilon = planted
    cm = as_covering(blocks, mults, epsilon)

    def checked(core, gaps, owners):
        sigs = _gap_signatures(core, gaps, owners)
        assert sigs == eager_gap_signatures(core, gaps, owners)
        return sigs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jumps, "_gap_signatures", checked)
        f = jump_function(cm, epsilon)
        mp.setattr(jumps, "_gap_signatures", eager_gap_signatures)
        g = jump_function(cm, epsilon)
    assert same_jumps(f, g) and f.sigma0 == g.sigma0


def whole_g_candidates(rests):
    """The oracle of _algebraic_candidates: one Cayley gcd of the product of every rest.

    The roots come from the square-free part of the product, so a root
    that two rests share is isolated once.  Every root is put in part 0;
    the oracle samples every block at every gap, so no owner is read.
    """
    product = [1]
    for r, _ in rests:
        product = P.mul(product, r)
    if len(product) < 2:
        return [], [], False
    re, im = jumps._cayley_numerator(P.square_free_part([Fraction(a) for a in product]))
    g = P.gcd(re, im)
    if P.degree(g) < 1:
        return [], [], False
    roots = isolate_real_roots(g, window=(Fraction(0), P.cauchy_root_bound(g)))
    return [(x, 0) for x in roots], [None] * len(rests), False


def whole_g_jump_function(cm, epsilon):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jumps, "_algebraic_candidates", whole_g_candidates)
        mp.setattr(jumps, "_gap_signatures", eager_gap_signatures)
        return jump_function(cm, epsilon)


def mixed(m, u):
    """U^T m U for the integer matrices m and u."""
    n = len(m)
    mu = [[sum(m[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * mu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


ZERO_2 = RatMatrix([[0, 0], [0, 0]])
# U^T (ALG + B3) U, B3 = [[1, 1], [0, 3]], with U adding column 0 to column 2:
# one connected 4 x 4 block whose rest (2w^2 - 3w + 2)(3w^2 - 5w + 3) shares
# ALG's factor; its 2 x 2 tiles are the blocks of groups 1 and 2
ALG_B3 = mixed([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 3]],
               [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def tile(m, k, l):
    return RatMatrix([row[2 * l:2 * l + 2] for row in m[2 * k:2 * k + 2]])


@settings(max_examples=60, deadline=None)
@given(planted_blocks())
# two equal blocks ALG + ALG: both rests are 2w^2 - 3w + 2, so each root is
# isolated once and owned by both blocks
@example(([[ALG, ZERO_2], [ZERO_2, ALG]], [1, 1], 1))
@example(([[ALG, ZERO_2], [ZERO_2, ALG]], [1, 1], -1))
# ALG and ALG_B3: the rests share ALG's factor but are not equal
@example(([[ALG, ZERO_2, ZERO_2],
           [ZERO_2, tile(ALG_B3, 0, 0), tile(ALG_B3, 0, 1)],
           [ZERO_2, tile(ALG_B3, 1, 0), tile(ALG_B3, 1, 1)]], [1, 1, 1], 1))
def test_block_candidates_equal_the_whole_g_oracle(planted):
    # each block's rest isolated on its own g_b, each candidate owned by its
    # blocks, against one g of the product with every block at every gap
    blocks, mults, epsilon = planted
    cm = as_covering(blocks, mults, epsilon)
    seen = []

    def spy(rests):
        out = candidates(rests)
        seen.append(out[0])
        return out

    candidates = jumps._algebraic_candidates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jumps, "_algebraic_candidates", spy)
        f = jump_function(cm, epsilon)
    assume(seen[0])
    g = whole_g_jump_function(cm, epsilon)
    assert same_jumps(f, g) and f.sigma0 == g.sigma0


def test_shared_roots_are_owned_by_every_block_that_has_them(monkeypatch):
    # ALG + ALG: the one candidate on t > 0, w = (3 + i*sqrt(7))/4, is a root
    # of both blocks' rests
    cm = as_covering([[ALG, ZERO_2], [ZERO_2, ALG]], [1, 1], 1)
    owned = []

    def spy(core, gaps, owners):
        owned.extend(owners)
        return _gap_signatures(core, gaps, owners)

    monkeypatch.setattr(jumps, "_gap_signatures", spy)
    f = jump_function(cm, 1)
    assert owned == [{0, 1}]
    assert same_jumps(f, whole_g_jump_function(cm, 1))
    # the printed poly is g of the first block, ALG's own
    assert all(P.degree(pt.loc.t.cell[0]) == 2 for pt in f.points)


def test_one_core_per_covering_job(monkeypatch):
    # D(w) and the samples read one PencilCore, whose blocks come from one union-find
    sd, c = ltm_family(TREFOIL, 2)
    cm = build_covering(sd, c, CoveringSpec(p=3))
    components, calls = _fast._components, []

    def counted(adj):
        calls.append(len(adj))
        return components(adj)

    monkeypatch.setattr(_fast, "_components", counted)
    jump_function(cm, 1)
    assert calls == [12]  # the core: 3 groups x b = 4


def test_blocks_are_sampled_only_across_their_own_candidates(monkeypatch):
    # L(trefoil, 2) at p = 5: five blocks and 31 gaps, so every block at
    # every gap would take 155 signatures
    sd, c = ltm_family(TREFOIL, 2)
    cm = build_covering(sd, c, CoveringSpec(p=5))
    herm_sig_fast, sizes, calls = _fast.herm_sig_fast, [], []

    def spy(core, gaps, owners):
        sizes.append(len(core.blocks) * len(gaps))
        return _gap_signatures(core, gaps, owners)

    def counted(re, im):
        calls.append(1)
        return herm_sig_fast(re, im)

    monkeypatch.setattr(jumps, "_gap_signatures", spy)
    monkeypatch.setattr(_fast, "herm_sig_fast", counted)
    jump_function(cm, 1)
    assert sizes == [155]
    assert 0 < len(calls) < 155


def test_core_det_poly_with_det_s_49():
    # L(ALG, 2) at p = 3, eps = -1: every det(A_kk + A_kk^T) is 49, so c = 49^4
    sd, c = ltm_family(ALG, 2, -1)
    cm = build_covering(sd, c, CoveringSpec(p=3))
    core_rows, ms = _core_rows(cm)
    b = len(core_rows) // len(ms)
    assert ms == (4, 1, 2)
    assert [_fast.bareiss_det([[core_rows[r + i][r + j] + core_rows[r + j][r + i]
                                for j in range(b)] for i in range(b)])
            for r in range(0, len(core_rows), b)] == [49, 49, 49]
    D = _fast.pencil_det_poly(PencilCore(core_rows, -1, ms))
    assert D and D == _fast.pencil_det_poly(PencilCore(int_rows(cm.expanded_P), -1))



@pytest.mark.parametrize("mults, epsilon, digest", [
    ((1, 1), 1, "15831f928e9ae018bf28bc988b4f5fb7c4d65d1efed4c72036c6f49a5f0c93e0"),
    ((1, 1), -1, "8e6584306ef17534c49eae6d82c0e0c8740afe92f098dbe44c3b7ac5e68e6dc0"),
    ((1, -1), 1, "c7ae79d99af141f18d395c5c618da908f2c2c21d94d02fa66818115d58eee194"),
    ((1, -1), -1, "5665fd4e02a4f58924d262741b903b25753f33346e997722187f5586fb3d0056"),
])
def test_generic_minor_on_a_covering(mults, epsilon, digest):
    # A = L3 (+) ALG and C = 0 (+) I2, with L3 the nilpotent Jordan block:
    # w*L3 - eps*L3^T is singular for every w, so D = 0, yet P and P^T share
    # no kernel vector, and the jumps come from a generic minor
    l3 = RatMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    zero = RatMatrix([[0] * 3] * 2)
    a = block_matrix([[l3, zero.transpose()], [zero, ALG]])
    c = block_matrix([[RatMatrix([[0] * 3] * 3), zero.transpose()], [zero, RatMatrix([[1, 0], [0, 1]])]])
    blocks = ((a, c), (c, a))
    cm = CoveringMatrix(blocks, covering_matrix(blocks, mults, 1, epsilon), 1, mults)
    rows = int_rows(cm.expanded_P)
    assert _fast.pencil_det_poly(PencilCore(rows, epsilon)) == []
    assert _remove_common_kernel(rows) == rows and _generic_minor_poly(rows, epsilon)
    f = jump_function(cm, epsilon)
    assert same_jumps(f, jump_function(cm.expanded_P, epsilon))
    text = json.dumps(jump_to_obj(f), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# closed-form oracles


def test_ltm_y_oracle_examples():
    assert ltm_y_oracle(2, 3) == [Fraction(-3, 7), Fraction(2, 7), Fraction(1, 7)]
    assert ltm_y_oracle(3, 3)[0] == Fraction(-5, 19)
    assert all(y.denominator == 31 for y in ltm_y_oracle(2, 5))
    with pytest.raises(ValueError):
        ltm_y_oracle(1, 3)


def test_ltm_y_oracle_matches_solver_differences():
    for m in (2, 3, 4):
        for p in (3, 5):
            row = fold({0: m, 1: 1 - m}, p)
            x, s = solve_multiplicities(row, (1,) + (0,) * (p - 1))
            ys = ltm_y_oracle(m, p)
            assert ys == [x[(1 - k) % p] - x[(-k) % p] for k in range(p)]
            assert sum(ys) == 0


def test_p3_y_oracle_example():
    assert p3_y_oracle(1, 0, 2) == [Fraction(2, 7), Fraction(-3, 7), Fraction(1, 7)]


def test_p3_y_oracle_coefficient_properties():
    # a_0 + a_1 + a_2 = 0 and each a_i = 1 mod 3, for any (c20, c21)
    for c20 in range(-3, 4):
        for c21 in range(-3, 4):
            a = [3 * c20 + 3 * c21 - 2, 1 - 3 * c20, 1 - 3 * c21]
            assert sum(a) == 0
            assert all(ai % 3 == 1 for ai in a)
            # target on the third component: y values sum to 0 regardless
            assert sum(p3_y_oracle(c20, c21, 2)) == 0
