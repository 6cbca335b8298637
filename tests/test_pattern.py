"""Pattern words, coefficient sequences, folding, and the circulant solve."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsig import (
    FoldedRow,
    NotAPattern,
    NotPrimePower,
    ParseError,
    PatternWord,
    SingularSystem,
    circulant_det_mod_p,
    circulant_matrix,
    fold,
    parse_word,
    pattern_coefficients,
    shift,
    solve_multiplicities,
)


def test_parse_basic():
    w = parse_word("y y x Y X")
    assert pattern_coefficients(w) == {0: 2, 1: -1}
    assert str(w) == "y y x Y X"


def test_parse_powers():
    assert parse_word("x^3 y X^3").letters == parse_word("x x x y X X X").letters
    assert parse_word("x^-2 y x^2").letters == parse_word("X X y x x").letters
    assert parse_word("Y^-1").letters == (("y", 1),)


def test_parse_errors():
    with pytest.raises(ParseError) as ei:
        parse_word("x z y")
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_word("x^ y")
    with pytest.raises(NotAPattern):
        parse_word("x y y")  # total y-exponent 2
    with pytest.raises(NotAPattern):
        parse_word("x X")  # total y-exponent 0


def test_pattern_word_validation():
    with pytest.raises(ValueError):
        PatternWord((("z", 1), ("y", 1)))


def test_coefficients_drop_zeros_and_sum_to_one():
    c = pattern_coefficients(parse_word("y x y x Y X Y X y"))
    assert 0 not in c or c[0] != 0
    assert sum(c.values()) == 1


def test_insert_cancelling_pair_is_invisible():
    # y Y read at the same x-exponent contributes nothing
    assert pattern_coefficients(parse_word("x y Y X y")) == \
        pattern_coefficients(parse_word("y"))


def test_shift():
    assert shift({0: 2, 1: -1}, 1) == {-1: 2, 0: -1}
    assert shift({3: 1}, 3) == {0: 1}


@st.composite
def words(draw):
    body = draw(st.lists(
        st.sampled_from([("x", 1), ("x", -1), ("y", 1), ("y", -1)]),
        max_size=12,
    ))
    bal = sum(e for g, e in body if g == "y")
    # append y-letters to force total exponent 1
    if bal < 1:
        body += [("y", 1)] * (1 - bal)
    else:
        body += [("y", -1)] * (bal - 1)
    return PatternWord(tuple(body))


@given(words())
def test_coefficients_always_sum_to_one(w):
    c = pattern_coefficients(w)
    assert sum(c.values()) == 1
    assert all(v != 0 for v in c.values())


@given(words(), st.integers(min_value=-4, max_value=4))
def test_shift_preserves_values(w, a):
    c = pattern_coefficients(w)
    assert sorted(shift(c, a).values()) == sorted(c.values())


# ---------------------------------------------------------------------------
# folding and the circulant system


def test_fold():
    row = fold({0: 2, 1: -1}, 3)
    assert row.values == (2, -1, 0)
    assert fold({4: 1, -1: 3}, 3).values == (0, 1, 3)
    with pytest.raises(ValueError):
        fold({0: 1}, 0)


def test_folded_row_validation():
    with pytest.raises(ValueError):
        FoldedRow(3, (1, 0))


def test_pattern_word_and_folded_row_compare_and_hash_by_value():
    w = PatternWord((("x", 1), ("y", 1)))
    assert w == parse_word("x y") == PatternWord(letters=(("x", 1), ("y", 1)))
    assert hash(w) == hash(parse_word("x y"))
    assert w != parse_word("y x") and w != (("x", 1), ("y", 1))
    row = FoldedRow(3, (Fraction(2), -1, 0))
    assert row.values == (2, -1, 0) and type(row.values[0]) is int
    assert row == fold({0: 2, 1: -1}, 3) == FoldedRow(d=3, values=(2, -1, 0))
    assert hash(row) == hash(fold({0: 2, 1: -1}, 3))
    assert row != FoldedRow(3, (0, 2, -1))


def test_circulant_matrix_layout():
    m = circulant_matrix(FoldedRow(3, (2, -1, 0)))
    assert m.rows == [[2, -1, 0], [0, 2, -1], [-1, 0, 2]]


def test_circulant_det_mod_p():
    assert circulant_det_mod_p(FoldedRow(3, (2, -1, 0)), 3) == 1
    assert circulant_det_mod_p(FoldedRow(4, (3, -1, 0, -1)), 2) == 1
    with pytest.raises(NotPrimePower):
        circulant_det_mod_p(FoldedRow(6, (1, 0, 0, 0, 0, 0)), 2)


def test_circulant_det_lemma_random():
    rng = random.Random(7)
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
        d = p ** a
        for _ in range(25):
            vals = [rng.randint(-5, 5) for _ in range(d)]
            vals[0] += 1 - sum(vals)
            assert circulant_det_mod_p(FoldedRow(d, tuple(vals)), p) == 1


def test_circulant_det_sharpness_at_six():
    # entries sum to 1 but d = 6 is not a prime power: determinant can vanish
    row = FoldedRow(6, (1, -1, 1, 0, 0, 0))
    assert circulant_matrix(row).det() == 0


def test_solve_multiplicities_trefoil_case():
    row = fold({0: 2, 1: -1}, 3)
    x, s = solve_multiplicities(row, (1, 0, 0))
    assert x == [Fraction(4, 7), Fraction(1, 7), Fraction(2, 7)]
    assert s == 7


def test_solve_multiplicities_errors():
    with pytest.raises(ValueError):
        solve_multiplicities(FoldedRow(3, (2, -1, 0)), (1, 0))
    with pytest.raises(SingularSystem):
        solve_multiplicities(FoldedRow(6, (1, -1, 1, 0, 0, 0)), (1,) + (0,) * 5)


@given(words(), st.sampled_from([2, 3, 4, 5, 8, 9]))
@settings(max_examples=30)
def test_solve_reproduces_target(w, d):
    row = fold(pattern_coefficients(w), d)
    target = [1] + [0] * (d - 1)
    x, s = solve_multiplicities(row, target)
    m = circulant_matrix(row)
    got = [sum(m[i, j] * x[j] for j in range(d)) for i in range(d)]
    assert got == [Fraction(t) for t in target]
    assert all((xi * s).denominator == 1 for xi in x)
