"""Covering transfer: Gamma, the block array, the covering matrix in the
strand-difference basis against the dense tiled expansion, and the
closed-form scaling-factor oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsig import (
    CoveringSpec,
    NotPrimePower,
    RatMatrix,
    build_covering,
    covering_blocks,
    covering_matrix,
    gamma,
    ltm_family,
    ltm_y_oracle,
    p3_y_oracle,
    fold,
    jump_function,
    parallel_copies,
    solve_multiplicities,
)
from covsig import _fast
from covsig.exact import block_matrix
from conftest import TREFOIL, same_jumps


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
    assert (_fast.pencil_det_poly(int_rows(got), epsilon)
            == _fast.pencil_det_poly(int_rows(dense), epsilon))
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
