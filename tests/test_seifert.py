"""Seifert block data and the link-building operators."""

import pytest

from covsig import (
    DimensionMismatch,
    EmptyTuple,
    RatMatrix,
    SeifertData,
    SignTuple,
    SingularMatrix,
    assemble,
    connected_sum,
    mirror,
    parallel_copies,
)
from conftest import TREFOIL


def test_sign_tuple():
    a = SignTuple((1, -1, 1))
    assert len(a) == 3
    assert a.n_alpha == 1
    assert list(a) == [1, -1, 1]
    with pytest.raises(EmptyTuple):
        SignTuple(())
    with pytest.raises(ValueError):
        SignTuple((1, 2))


def test_seifert_data_defaults():
    sd = SeifertData(TREFOIL, TREFOIL, TREFOIL, epsilon=1)
    assert sd.q == 1
    assert sd.size_a == sd.size_c == 2
    sd2 = SeifertData(TREFOIL, TREFOIL, TREFOIL, epsilon=-1)
    assert sd2.q == 2


def test_seifert_data_validation():
    with pytest.raises(ValueError):
        SeifertData(TREFOIL, TREFOIL, TREFOIL, epsilon=1, q=2)
    with pytest.raises(ValueError):
        SeifertData(TREFOIL, TREFOIL, TREFOIL, epsilon=2)
    with pytest.raises(DimensionMismatch):
        SeifertData(TREFOIL, RatMatrix([[1], [0]]), TREFOIL)
    # symmetric A makes A - A^T singular
    sym = RatMatrix([[1, 0], [0, 1]])
    with pytest.raises(SingularMatrix):
        SeifertData(sym, sym, sym, epsilon=1)


def test_seifert_data_and_sign_tuple_compare_and_hash_by_value():
    sd = SeifertData(TREFOIL, TREFOIL, TREFOIL)
    assert (sd.epsilon, sd.q) == (1, 1)
    same = SeifertData(A=TREFOIL, B=TREFOIL, C=TREFOIL, epsilon=1, q=None)
    assert sd == same and hash(sd) == hash(same)
    assert SeifertData(TREFOIL, TREFOIL, TREFOIL, -1) == SeifertData(
        TREFOIL, TREFOIL, TREFOIL, epsilon=-1, q=2)
    assert sd != SeifertData(TREFOIL, TREFOIL, TREFOIL, -1)
    assert SignTuple([1, -1]) == SignTuple(signs=(1, -1))
    assert hash(SignTuple([1, -1])) == hash(SignTuple((1, -1)))
    assert SignTuple((1, -1)) != SignTuple((-1, 1)) and SignTuple((1,)) != (1,)


def test_assemble_layout():
    a = RatMatrix([[1]])
    b = RatMatrix([[2]])
    c = RatMatrix([[3]])
    # need A - eps*A^T nonsingular only in SeifertData, not in raw assemble
    m = assemble(a, b, c, -1)
    assert m.rows == [[1, 2], [-2, 3]]
    sd = SeifertData(TREFOIL, TREFOIL, TREFOIL)
    full = sd.assembled()
    assert full.shape == (4, 4)
    assert full[0, 2] == TREFOIL[0, 0]
    assert full[2, 0] == TREFOIL[0, 0]  # eps * B^T


def test_connected_sum_and_mirror():
    s = connected_sum(TREFOIL, TREFOIL)
    assert s.shape == (4, 4)
    assert s[0, 2] == 0 and s[3, 1] == 0
    assert s[2, 3] == TREFOIL[0, 1]
    m = mirror(TREFOIL)
    assert m == -TREFOIL.transpose()
    with pytest.raises(DimensionMismatch):
        mirror(RatMatrix([[1, 2]]))


def test_parallel_copies_blocks():
    p = TREFOIL
    pt = p.transpose()
    # two positive copies: [[P, P^T], [P, P]]
    m = parallel_copies(p, SignTuple((1, 1)), 1)
    assert m.shape == (4, 4)
    assert RatMatrix([row[2:] for row in m.rows[:2]]) == pt
    assert RatMatrix([row[:2] for row in m.rows[2:]]) == p
    assert RatMatrix([row[:2] for row in m.rows[:2]]) == p
    # mixed signs scale the off-diagonal blocks by -1, negative diag uses eps*P^T
    m = parallel_copies(p, SignTuple((1, -1)), 1)
    assert RatMatrix([row[2:] for row in m.rows[2:]]) == pt
    assert RatMatrix([row[2:] for row in m.rows[:2]]) == pt.scale(-1)


def test_parallel_copies_accepts_plain_tuple():
    assert parallel_copies(TREFOIL, (1,), 1) == TREFOIL
