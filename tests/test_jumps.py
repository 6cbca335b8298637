"""Jump extraction, location comparison, jump algebra, the period test, and
serialization."""

import hashlib
import json
import math
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, totient
from sympy.polys.matrices import DomainMatrix

from covsig import (
    DEFAULT_PRECISION_BITS,
    AlgReal,
    Comparison,
    CoveringSpec,
    JumpFunction,
    JumpPoint,
    PiLoc,
    RatMatrix,
    UnresolvedComparison,
    Verdict,
    ZeroScale,
    build_covering,
    compare_locations,
    connected_sum,
    covering_jump,
    isolate_real_roots,
    jump_from_obj,
    jump_function,
    jump_to_obj,
    ltm_family,
    mirror,
    parallel_copies,
    period_2pi_test,
    scale_jump,
    sum_jumps,
    tl_signature,
    tl_signature_at_pi,
    with_period,
)
from covsig import _fast, jumps
from covsig.exact import dyadic_cell
from covsig.exact import poly as P
from covsig.jumps import (
    AlgLoc,
    _at_root_of_unity,
    _cayley_numerator,
    _cyclotomic_cayley_gcd,
    _cyclotomic_parts,
    _floor_over,
    _self_reciprocal_part,
    _algebraic_candidates,
    _separate_candidates,
    _simplest_between,
    _split_part,
    _translate_point,
    point_to_obj,
    theta_decimal,
    theta_over_pi_enclosure,
)
from conftest import (
    ALG,
    T25,
    TREFOIL,
    covering_of,
    fraction_divmod,
    fraction_sturm_chain,
    remove_common_kernel,
    same_jumps,
    schoolbook_mul,
    sturm_count,
)

small_ints = st.integers(min_value=-2, max_value=2)


# ---------------------------------------------------------------------------
# pointwise signatures


def test_trefoil_signature_values():
    # sigma = -2 on the arc between pi/3 and 5pi/3, 0 outside
    assert tl_signature(TREFOIL, 1, 1) == -2
    assert tl_signature(TREFOIL, 1, Fraction(1, 4)) == 0
    assert tl_signature_at_pi(TREFOIL, 1) == -2


def test_signature_rejects_t_zero():
    with pytest.raises(ValueError):
        tl_signature(TREFOIL, 1, 0)


@given(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(7), max_denominator=11))
@settings(max_examples=25)
def test_signature_even_in_theta(t):
    assert tl_signature(TREFOIL, 1, t) == tl_signature(TREFOIL, 1, -t)
    assert tl_signature(T25, 1, t) == tl_signature(T25, 1, -t)


def _rank(rows):
    return DomainMatrix([[ZZ(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), ZZ).rank()


def pencil_rank_drops(rows, eps, t):
    """Is the pencil's rank at w = (1+it)/(1-it) below its rank at a generic w?

    Times 1 - it, and with t = u/v times v, the pencil is
    v*(P - eps*P^T) + i*u*(P + eps*P^T) = X + iY, whose complex rank is half
    the rank of the real [[X, -Y], [Y, X]].  The generic rank is the largest
    of n + 1 values of w: a nonzero minor of order at most n vanishes at no
    more than n of them.
    """
    n = len(rows)
    u, v = t.numerator, t.denominator
    x = [[v * (rows[i][j] - eps * rows[j][i]) for j in range(n)] for i in range(n)]
    y = [[u * (rows[i][j] + eps * rows[j][i]) for j in range(n)] for i in range(n)]
    real = [xr + [-c for c in yr] for xr, yr in zip(x, y)] + [yr + xr for xr, yr in zip(x, y)]
    generic = max(_rank([[w * rows[i][j] - eps * rows[j][i] for j in range(n)]
                         for i in range(n)]) for w in range(2, n + 3))
    return _rank(real) < 2 * generic


# D(w) = 4(1 + w^2)^2 has a double root at w = i (t = 1), where the pencil
# has nullity 1 and one eigenvalue touches 0 without changing sign: sigma is
# 0 on both sides and 1 at the root, where there is no jump
DOUBLE_ROOT = [[2, -1, -1, 0], [-2, 1, 0, -1], [1, 1, -2, -2], [0, 1, -2, -1]]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.sampled_from([1, -1]),
    st.lists(small_ints, min_size=3, max_size=3),
    st.booleans(),
    st.integers(min_value=-30, max_value=30).filter(bool),
    st.integers(min_value=1, max_value=12),
)
@example(DOUBLE_ROOT, 1, [0, 0, 0], False, 11, 12)
@example(DOUBLE_ROOT, 1, [0, 0, 0], False, 13, 12)
@example(DOUBLE_ROOT, 1, [0, 0, 0], False, 1, 1)
def test_signature_is_sigma0_plus_jumps_below(rows, eps, mix, singular, u, v):
    # sigma at theta = 2*atan(t) (mod 2*pi) is sigma0 plus every jump below
    # it, wherever the pencil has its generic rank: at a root of D (of the
    # generic minor, when D = 0) sigma may take a value of neither side
    if singular:
        n = len(rows)
        rows[-1] = [sum(mix[i] * rows[i][j] for i in range(n - 1)) for j in range(n)]
    t = Fraction(u, v)
    assume(not pencil_rank_drops(rows, eps, t))
    pm = RatMatrix(rows)
    f = jump_function(pm, eps)
    at = AlgLoc(AlgReal.from_rational(t), 0 if t > 0 else 2, 1)
    below = 0
    for pt in f.points:
        c = compare_locations(pt.loc, at, 64)
        assume(c in (Comparison.LT, Comparison.GT))  # t on a jump: no value there
        if c is Comparison.LT:
            below += pt.value
    assert tl_signature(pm, eps, t) == f.sigma0 + below


def test_skew_pencil_path():
    # eps = -1: the pencil is multiplied by i; a skew form still has signatures
    p = RatMatrix([[0, 1], [1, 0]])
    assert tl_signature(p, -1, 1) in (-2, 0, 2)
    assert tl_signature(p, -1, 1) == tl_signature(p, -1, -1)


# ---------------------------------------------------------------------------
# jump extraction


def test_trefoil_jumps():
    f = jump_function(TREFOIL)
    assert f.period == 1
    assert f.sigma0 == 0
    assert [(pt.loc.frac, pt.value) for pt in f.points] == [
        (Fraction(1, 3), -2),
        (Fraction(5, 3), 2),
    ]


def test_t25_jumps():
    f = jump_function(T25)
    assert [(pt.loc.frac, pt.value) for pt in f.points] == [
        (Fraction(1, 5), -2),
        (Fraction(3, 5), -2),
        (Fraction(7, 5), 2),
        (Fraction(9, 5), 2),
    ]


def test_algebraic_jumps():
    # det(wP - P^T) = 2w^2 - 3w + 2: unimodular roots with cos(theta) = 3/4,
    # not roots of unity, so both jumps land on the algebraic path
    f = jump_function(ALG)
    assert len(f.points) == 2
    a, b = f.points
    assert isinstance(a.loc, AlgLoc) and isinstance(b.loc, AlgLoc)
    assert a.value == -b.value != 0
    # mirror location: t negated, offset 2
    assert b.loc.offset == 2
    assert compare_locations(a.loc, AlgLoc(b.loc.t.neg(), 0, 1)) is Comparison.EQ


def test_zero_matrix_has_no_jumps():
    f = jump_function(RatMatrix.zeros(2))
    assert f.points == [] and f.sigma0 == 0


@pytest.mark.parametrize("V", [TREFOIL, ALG], ids=["trefoil", "alg"])
def test_common_kernel_removed_when_det_vanishes(V):
    # the zero summand makes D vanish identically; its zero blocks take no
    # part, and the jumps and sigma0 are those of V alone
    f = jump_function(V)
    g = jump_function(connected_sum(V, RatMatrix.zeros(2)))
    assert same_jumps(f, g)
    assert g.sigma0 == f.sigma0


def domain_rank(rows):
    nr, nc = len(rows), len(rows[0]) if rows else 0
    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (nr, nc), ZZ).rank()


def domain_det(rows):
    n = len(rows)
    return int(DomainMatrix([[ZZ(x) for x in row] for row in rows], (n, n), ZZ).det())


def pad_and_mix(rows, k, mix):
    """U^T (rows + 0_k) U for the unimodular upper-triangular U whose strict part is mix."""
    n = len(rows) + k
    padded = [list(r) + [0] * k for r in rows] + [[0] * n for _ in range(k)]
    u = [[1 if i == j else (mix[i][j] if j > i else 0) for j in range(n)] for i in range(n)]
    pu = [[sum(padded[i][a] * u[a][j] for a in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[a][i] * pu[a][j] for a in range(n)) for j in range(n)] for i in range(n)]


square_ints = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))
mix_st = st.lists(st.lists(small_ints, min_size=7, max_size=7), min_size=7, max_size=7)


@settings(max_examples=80, deadline=None)
@given(square_ints, st.integers(min_value=0, max_value=2), mix_st)
def test_rank_profile_matches_domain_matrix(rows, k, mix):
    # on random matrices, on P + 0_k hidden by a unimodular congruence, and on
    # the rectangular stacks [P; P^T] that the common-kernel step eliminates
    mixed = pad_and_mix(rows, k, mix)
    for m in (rows, mixed, rows + [list(c) for c in zip(*rows)],
              mixed + [list(c) for c in zip(*mixed)]):
        ri, ci = _fast.rank_profile(m)
        assert domain_rank(m) == len(ri) == len(ci)
        assert ri == sorted(ri) and ci == sorted(ci)
        if ci:
            assert domain_det([[m[i][j] for j in ci] for i in ri]) != 0


def test_rank_profile_pivots_on_the_first_unused_row():
    # generic_minor_poly's minor depends on this choice: rows 0 and 1 are
    # equal, and row 0 is the one kept
    assert _fast.rank_profile([[1, 0, 2], [1, 0, 2], [0, 3, 1]]) == ([0, 2], [0, 1])
    assert _fast.rank_profile([[0, 0], [0, 2], [0, 1], [5, 0]]) == ([1, 3], [0, 1])


@settings(max_examples=60, deadline=None)
@given(square_ints, st.integers(min_value=0, max_value=2), mix_st, st.sampled_from([1, -1]))
def test_generic_minor_poly_matches_determinant(rows, k, mix, eps):
    core = _fast.PencilCore(rows, eps)
    factors = []
    D = _fast.pencil_det_poly(core, factors)
    assume(D)
    # a nonsingular block is its own generic minor
    for b, f in enumerate(factors):
        assert _fast.generic_minor_poly(core, b) == f
    # every maximal minor of U^T (H + 0_k) U is an integer multiple of det H,
    # and one of them is the product of the blocks' generic minors, but for a
    # factor w^i, which _self_reciprocal_part drops with the content
    core = _fast.PencilCore(pad_and_mix(rows, k, mix), eps)
    g = [1]
    for b in range(len(core.blocks)):
        g = P.mul(g, _self_reciprocal_part(_fast.generic_minor_poly(core, b)) or [1])
    i, j = (next(i for i, c in enumerate(f) if c) for f in (D, g))
    ratio = Fraction(g[-1], D[-1])
    assert g[j:] == [ratio * c for c in D[i:]]
    assert ratio.denominator == 1 or i > 0


# L3 (+) [[1, 1], [0, -2]] (+) [[1, 2], [0, -3]] (+) [[1, 4], [0, -5]] (+)
# trefoil under a unimodular congruence, L3 the nilpotent Jordan block: the
# 2 x 2 summands have the Alexander roots 2, 3 and 5 and their inverses, so
# w*Q - Q^T has rank 9 at w = 2, 3 and 5, and 10 generically
RANK_DROPS_AT_2_3_5 = [
    [-13, -5, -12, -1, -16, -10, 5, 0, 16, 0, 2],
    [-4, -20, 9, -6, 33, -16, 8, 0, -7, 13, -25],
    [-13, 6, -19, 3, -40, -3, 2, 0, 24, -8, 17],
    [-3, -9, 3, -5, 12, -10, 5, 0, -2, 5, -12],
    [-16, 36, -44, 14, -104, 16, -8, 0, 49, -27, 61],
    [-8, -16, 1, -8, 15, -16, 8, 0, 0, 7, -17],
    [3, 6, 0, 3, -6, 6, -3, 0, 0, -3, 6],
    [-4, 4, -8, 0, -16, 0, 0, 1, 8, -4, 8],
    [14, -9, 23, -4, 47, 0, 0, 0, -27, 10, -23],
    [0, 16, -11, 7, -31, 10, -5, 0, 12, -9, 22],
    [5, -22, 21, -9, 55, -13, 6, 0, -23, 16, -34],
]


def test_generic_minor_takes_the_generic_rank():
    # a minor of rank 9, the best of w = 2, 3 and 5, has no root on the
    # unit circle and would lose the trefoil's jumps
    rows = RANK_DROPS_AT_2_3_5
    n = len(rows)
    assert [domain_rank([[w * rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)])
            for w in (2, 3, 5, 7)] == [9, 9, 9, 10]
    f = jump_function(RatMatrix(rows))
    assert f == jump_function(TREFOIL)
    # the bytes of `covsig jump --V TREFOIL --format json`
    text = json.dumps(jump_to_obj(f), sort_keys=True) + "\n"
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "2624faaa3ef805ac0760041e708d7491eb759d4f450c33afc83cb3a2e2fbb937")


@settings(max_examples=60, deadline=None)
@given(square_ints, st.sampled_from([1, -1]))
def test_pencil_determinant_is_palindromic_up_to_sign(rows, eps):
    # w^n D(1/w) = (-eps)^n D(w): with its factor w^i trimmed, D is its own
    # reversal up to sign, so _self_reciprocal_part skips the gcd
    D = P.trim(_fast.pencil_det_poly(_fast.PencilCore(rows, eps)))
    assume(D)
    while D[0] == 0:
        D = D[1:]
    rev = D[::-1]
    assert rev in (D, [-c for c in D])
    assert _self_reciprocal_part(D) == D
    assert P.square_free_part(D) == P.square_free_part(P.gcd(D, rev))


def test_self_reciprocal_part_of_a_generic_minor_takes_the_gcd():
    # (w - 2)(2w - 1)(w + 3) is not palindromic; its self-reciprocal part is
    # (w - 2)(2w - 1), in its primitive integer form
    D = P.mul(P.mul([-2, 1], [-1, 2]), [3, 1])
    assert _self_reciprocal_part(D) == [2, -5, 2]


@settings(max_examples=60, deadline=None)
@given(square_ints, st.integers(min_value=1, max_value=2), mix_st, st.sampled_from([1, -1]),
       st.integers(min_value=-9, max_value=9).filter(bool), st.integers(min_value=1, max_value=9))
def test_remove_common_kernel_is_a_congruence(rows, k, mix, eps, u, v):
    m = pad_and_mix(rows, k, mix)
    reduced = remove_common_kernel(m)
    # ker P & ker P^T has dimension n - rank [P; P^T], and all of it goes
    assert len(reduced) == domain_rank(m + [list(c) for c in zip(*m)])
    if reduced:
        assert domain_rank(reduced + [list(c) for c in zip(*reduced)]) == len(reduced)
    # a congruence by a kernel basis: the pencil signature does not change
    assert tl_signature(RatMatrix(reduced) if reduced else RatMatrix.zeros(0), eps,
                        Fraction(u, v)) == tl_signature(RatMatrix(m), eps, Fraction(u, v))


def test_a_plain_matrix_reaches_the_common_kernel_only_when_d_is_zero(monkeypatch):
    # D is taken on the core first: the common kernel, here the zero row and
    # column of a block of its own, forces D = 0, and only that block takes a
    # generic minor, of rank 0 and so no part; with D != 0 no block takes one
    calls = []
    generic_minor_poly = _fast.generic_minor_poly
    monkeypatch.setattr("covsig._fast.generic_minor_poly",
                        lambda core, b: calls.append(core.blocks[b][0])
                        or generic_minor_poly(core, b))
    assert jump_function(RatMatrix([[-1, 1, 0], [0, -1, 0], [0, 0, 0]])) == jump_function(TREFOIL)
    assert calls == [[2]]

    def never(core, b):
        raise AssertionError("generic_minor_poly called with D != 0")

    monkeypatch.setattr("covsig._fast.generic_minor_poly", never)
    for m in (TREFOIL, T25, ALG):
        for eps in (1, -1):
            assert jump_function(m, eps).points


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(lambda b: st.lists(
           st.lists(st.lists(st.lists(small_ints, min_size=b, max_size=b),
                             min_size=b, max_size=b), min_size=3, max_size=3),
           min_size=3, max_size=3)),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)
         .filter(lambda ms: any(ms) and sum(map(abs, ms)) <= 5),
       st.sampled_from([1, -1]))
def test_covering_with_common_kernel_goes_through_the_core(blocks, mults, eps):
    # a zero row and column added to every block gives the covering matrix a
    # common kernel with its transpose, so D = 0: the core's zero blocks take
    # no part, and the jumps are those of the unpadded cover
    b = len(blocks[0][0])
    plain = [[RatMatrix(blk) for blk in row] for row in blocks]
    padded = [[RatMatrix([r + [0] for r in blk] + [[0] * (b + 1)]) for blk in row]
              for row in blocks]
    f, g = (jump_function(covering_of(bl, mults), eps) for bl in (plain, padded))
    assert same_jumps(f, g)
    assert f.sigma0 == g.sigma0


def test_jump_values_sum_to_zero_over_period():
    for m in (TREFOIL, T25, ALG, connected_sum(TREFOIL, T25)):
        f = jump_function(m)
        assert sum(pt.value for pt in f.points) == 0


@given(st.lists(st.lists(small_ints, min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=20, deadline=None)
def test_mirror_negates_jumps(rows):
    p = RatMatrix(rows)
    f = jump_function(p)
    g = jump_function(mirror(p))
    assert len(f.points) == len(g.points)
    for a, b in zip(f.points, g.points):
        assert a.value == -b.value
        assert compare_locations(a.loc, b.loc) is Comparison.EQ


# ---------------------------------------------------------------------------
# location comparison


def test_compare_pi_locations():
    a, b = PiLoc(Fraction(1, 3)), PiLoc(Fraction(2, 5))
    assert compare_locations(a, b) is Comparison.LT
    assert compare_locations(b, a) is Comparison.GT
    assert compare_locations(a, PiLoc(Fraction(1, 3))) is Comparison.EQ


def test_compare_pi_vs_algebraic():
    sqrt2 = AlgReal([-2, 0, 1], 1, 2)  # theta = 2*atan(sqrt2) ~ 1.91, theta/pi ~ .608
    loc = AlgLoc(sqrt2, 0, 1)
    assert compare_locations(PiLoc(Fraction(1, 2)), loc) is Comparison.LT
    assert compare_locations(PiLoc(Fraction(2, 3)), loc) is Comparison.GT


def test_compare_equal_algebraic_same_scale():
    a = AlgLoc(AlgReal([-2, 0, 1], 1, 2), 0, 1)
    b = AlgLoc(AlgReal([0, -2, 0, 1], Fraction(1, 2), Fraction(3, 2)), 0, 1)
    assert compare_locations(a, b) is Comparison.EQ


def test_compare_offset_by_one_certificate():
    # atan(sqrt2) = atan(-1/sqrt2) + pi/2: same theta through different charts
    t = AlgReal([-2, 0, 1], 1, 2)
    ninv = AlgReal([-1, 0, 2], -1, Fraction(-1, 2))
    l1 = AlgLoc(t, 0, 1)
    l2 = AlgLoc(ninv, 1, 1)
    assert compare_locations(l1, l2) is Comparison.EQ
    assert compare_locations(l2, l1) is Comparison.EQ


def test_compare_cross_scale_coincidence_unresolved():
    # theta = arccos(3/4): tan(theta/2) = 1/sqrt7 at scale 1, tan(theta) =
    # sqrt7/3 at scale 2.  Equal angles, no shared chart, no certificate.
    t1 = AlgReal([-1, 0, 7], Fraction(3, 10), Fraction(4, 10))
    t2 = AlgReal([-7, 0, 9], Fraction(8, 10), Fraction(9, 10))
    la, lb = AlgLoc(t1, 0, 1), AlgLoc(t2, 0, 2)
    assert compare_locations(la, lb, max_bits=64) is Comparison.UNRESOLVED
    with pytest.raises(UnresolvedComparison):
        sum_jumps(
            [
                JumpFunction([JumpPoint(la, 2)], Fraction(1)),
                JumpFunction([JumpPoint(lb, 2)], Fraction(1)),
            ],
            max_bits=64,
        )


# ---------------------------------------------------------------------------
# jump algebra


def test_scale_jump_roundtrip():
    f = jump_function(T25)
    for y in (Fraction(3), Fraction(3, 2), Fraction(-2)):
        g = scale_jump(scale_jump(f, y), 1 / y)
        assert same_jumps(f, g)
    with pytest.raises(ZeroScale):
        scale_jump(f, 0)


def test_scale_jump_negative_is_identity_for_even_sigma():
    # theta -> -theta mirrors the locations and flips the values; for the
    # mirror-antisymmetric jump set of a pencil that is the same function
    f = jump_function(TREFOIL)
    g = scale_jump(f, -1)
    assert g.period == 1
    assert same_jumps(f, g)


def test_scale_jump_algebraic():
    f = jump_function(ALG)
    g = scale_jump(scale_jump(f, Fraction(5, 3)), Fraction(3, 5))
    assert same_jumps(f, g)


def _refuse(*args):
    raise AssertionError("compared two locations")


def test_scale_jump_mirrors_without_comparing(monkeypatch):
    # sqrt(2) and a convergent of it within 2^-100, in ascending theta: y =
    # -1 mirrors them into reverse order, which a sort could not decide
    # below about 100 bits, and scale_jump compares nothing
    near = Fraction(14398739476117879, 10181446324101389)
    f = JumpFunction(
        [JumpPoint(AlgLoc(AlgReal.from_rational(near), 0, 1), -1),
         JumpPoint(AlgLoc(AlgReal([-2, 0, 1], 1, 2), 0, 1), 1)],
        Fraction(1),
    )
    compare = jumps.compare_locations
    monkeypatch.setattr(jumps, "compare_locations", _refuse)
    g = scale_jump(f, -1)
    assert [pt.value for pt in g.points] == [-1, 1]
    monkeypatch.undo()
    assert compare(g.points[0].loc, g.points[1].loc) is Comparison.LT
    assert compare(g.points[1].loc, PiLoc(2)) is Comparison.LT


@pytest.mark.parametrize("y", [Fraction(1, 3), Fraction(-1, 3)], ids=["kept", "reversed"])
def test_scale_jump_compares_nothing(monkeypatch, y):
    # ALG's and T25's points, ascending in (0, 2*pi): y > 0 keeps their
    # order and y < 0 mirrors them into it, with no comparison either way
    f = sum_jumps([jump_function(ALG), jump_function(T25)])
    compare = jumps.compare_locations
    monkeypatch.setattr(jumps, "compare_locations", _refuse)
    g = scale_jump(f, y)
    monkeypatch.undo()
    assert g.period == 3
    ends = [PiLoc(0)] + [pt.loc for pt in g.points] + [PiLoc(6)]
    assert all(compare(a, b) is Comparison.LT for a, b in zip(ends, ends[1:]))
    assert same_jumps(scale_jump(g, 1 / y), f)


@pytest.mark.parametrize("pm, sigma0", [(RatMatrix([[1]]), 1), (ALG, 2), (TREFOIL, -2)],
                         ids=["1x1", "ALG", "trefoil"])
def test_scale_jump_by_a_negative_factor_starts_below_two_pi(pm, sigma0):
    # f(-theta) starts from f's value just below 2*pi; at eps = -1, where
    # sigma is odd, that is -sigma0, and the values sum to -2 * (-sigma0)
    f = jump_function(pm, -1)
    assert f.sigma0 == sigma0
    g = scale_jump(f, -1)
    assert g.sigma0 == -sigma0
    t = Fraction(-1, 10**6)  # theta = 2*atan(t), before g's first jump at -theta
    assert compare_locations(AlgLoc(AlgReal.from_rational(-t), 0, 1), g.points[0].loc) is Comparison.LT
    assert tl_signature(pm, -1, t) == g.sigma0
    assert sum(pt.value for pt in g.points) == -2 * g.sigma0


def test_locations_share_their_t_and_are_never_changed(monkeypatch):
    # L(ALG, 2) at p = 3, through the pipeline's steps: scale_jump,
    # with_period and period_2pi_test build new AlgLocs on the t of their
    # input's points and leave those points' offset, scale and t as they
    # were; every AlgLoc is on one of the isolated roots t_h or its -t_h
    isolated, isolate = [], jumps.isolate_real_roots

    def spy(g):
        roots = isolate(g)
        isolated.extend(roots)
        return roots

    monkeypatch.setattr(jumps, "isolate_real_roots", spy)
    sd, c = ltm_family(ALG, 2)
    cm = build_covering(sd, c, CoveringSpec(p=3))
    f = jump_function(cm, sd.epsilon)

    def state(fn):
        return [(pt.loc.offset, pt.loc.scale, pt.loc.t) for pt in fn.points]

    f_state = state(f)
    g = scale_jump(f, Fraction(1, cm.s))
    g_state = state(g)
    h = with_period(g, 2 * g.period)
    assert period_2pi_test(g).status == period_2pi_test(h).status == "NonPeriodic"
    for fn, before in ((f, f_state), (g, g_state)):
        after = state(fn)
        assert [(o, s) for o, s, _ in after] == [(o, s) for o, s, _ in before]
        assert all(a is b for (*_, a), (*_, b) in zip(after, before))
    assert all(isinstance(pt.loc, AlgLoc) for fn in (f, g, h) for pt in fn.points)
    ts = {id(pt.loc.t) for fn in (f, g, h) for pt in fn.points}
    assert isolated and len(ts) <= 2 * len(isolated)


def test_with_period():
    f = jump_function(TREFOIL)
    g = with_period(f, 2)
    assert g.period == 2
    assert len(g.points) == 4
    assert g.points[2].loc.frac == Fraction(1, 3) + 2
    with pytest.raises(ValueError):
        with_period(f, Fraction(1, 2))


def test_sum_jumps_merges_and_cancels():
    f = jump_function(TREFOIL)
    s = sum_jumps([f, f])
    assert [(pt.loc.frac, pt.value) for pt in s.points] == [
        (Fraction(1, 3), -4),
        (Fraction(5, 3), 4),
    ]
    cancelled = sum_jumps([f, jump_function(mirror(TREFOIL))])
    assert cancelled.points == []
    assert sum_jumps([]).points == []


def test_sum_jumps_compares_only_points_of_different_inputs(monkeypatch):
    # ALG's points are all algebraic and T25's all rational angles: the
    # merge compares no two points of one input
    pairs, compare = [], jumps.compare_locations
    monkeypatch.setattr(jumps, "compare_locations",
                        lambda a, b, *rest: pairs.append((a, b)) or compare(a, b, *rest))
    s = sum_jumps([jump_function(ALG), jump_function(T25)])
    assert len(s.points) == len(jump_function(ALG).points) + len(jump_function(T25).points)
    assert pairs and all(isinstance(a, PiLoc) != isinstance(b, PiLoc) for a, b in pairs)


def test_sum_jumps_commutative():
    f, g = jump_function(TREFOIL), jump_function(T25)
    assert same_jumps(sum_jumps([f, g]), sum_jumps([g, f]))


def test_sum_matches_connected_sum():
    direct = jump_function(connected_sum(TREFOIL, T25))
    assert same_jumps(direct, sum_jumps([jump_function(TREFOIL), jump_function(T25)]))


def test_parallel_copies_reparametrize():
    f = jump_function(TREFOIL)
    two = jump_function(parallel_copies(TREFOIL, (1, 1), 1))
    assert same_jumps(two, with_period(scale_jump(f, 2), 1))
    annulus = jump_function(parallel_copies(TREFOIL, (1, -1), 1))
    assert annulus.points == []


# ---------------------------------------------------------------------------
# the period test


def _pt(frac, v):
    return JumpPoint(PiLoc(Fraction(frac)), v)


def test_jump_data_compare_by_value():
    assert PiLoc(1).frac == Fraction(1) and type(PiLoc(1).frac) is Fraction
    assert PiLoc(Fraction(1, 2)) == PiLoc(frac="1/2") and PiLoc(1) != PiLoc(2)
    assert hash(PiLoc(Fraction(1, 2))) == hash(PiLoc("1/2"))
    f = JumpFunction([_pt(1, 2)])
    assert (f.period, f.sigma0) == (Fraction(1), 0) and type(f.period) is Fraction
    assert f == JumpFunction(points=[_pt(1, 2)], period=1, sigma0=0)
    assert f != JumpFunction([_pt(1, 2)], 2) and f != JumpFunction([_pt(1, -2)])
    assert JumpFunction([], period="2", sigma0=1).period == 2
    v = Verdict("Periodic")
    assert v.witness is None and v == Verdict(status="Periodic", witness=None)
    assert v != Verdict("NonPeriodic") and _pt(1, 2) != (PiLoc(1), 2)
    # as before, the mutable jump data has no hash
    for x in (f, _pt(1, 2), v):
        with pytest.raises(TypeError):
            hash(x)


def test_period_test_trivial_and_periodic():
    assert period_2pi_test(JumpFunction([], Fraction(1))).status == "Periodic"
    f = JumpFunction([_pt(Fraction(1, 3), 2), _pt(Fraction(2, 3), -2),
                      _pt(Fraction(7, 3), 2), _pt(Fraction(8, 3), -2)], Fraction(2))
    assert period_2pi_test(f).status == "Periodic"


def test_period_test_nonperiodic_witness():
    f = JumpFunction([_pt(Fraction(1, 3), 2), _pt(Fraction(7, 3), -2)], Fraction(2))
    v = period_2pi_test(f)
    assert v.status == "NonPeriodic"
    loc, wins, vals = v.witness
    assert wins == (0, 1)
    assert vals == (2, -2)
    # a point missing from the other window is also a witness
    g = JumpFunction([_pt(Fraction(1, 3), 2)], Fraction(2))
    assert period_2pi_test(g).status == "NonPeriodic"


def test_period_test_algebraic_certificate():
    # 2*atan(sqrt 2) is about 0.61*pi, before the -2 at 3*pi/2 of each window
    t = AlgReal([-2, 0, 1], 1, 2)
    f = JumpFunction(
        [JumpPoint(AlgLoc(t.copy(), 0, 1), 2), _pt(Fraction(3, 2), -2),
         JumpPoint(AlgLoc(t.copy(), 2, 1), 2), _pt(Fraction(7, 2), -2)],
        Fraction(2),
    )
    assert period_2pi_test(f).status == "Periodic"


def test_period_test_unresolved():
    t1 = AlgReal([-1, 0, 7], Fraction(3, 10), Fraction(4, 10))
    t2 = AlgReal([-7, 0, 9], Fraction(8, 10), Fraction(9, 10))
    f = JumpFunction(
        [JumpPoint(AlgLoc(t1, 0, 1), 2), JumpPoint(AlgLoc(t2, 4, 2), 2)],
        Fraction(2),
    )
    assert period_2pi_test(f, max_bits=64).status == "Unresolved"


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_period_test_on_window_boundary_is_unresolved():
    # theta = 2*atan(sqrt 3) + 4*pi/3 = 2*pi exactly: no enclosure of it ever
    # falls inside one window, so the precision cap has to end the search
    loc = AlgLoc(AlgReal([-3, 0, 1], 1, 2), Fraction(4, 3), 1)
    f = JumpFunction([JumpPoint(loc, 2)], Fraction(2), 0)
    with time_limit(30):
        v = period_2pi_test(f)
    assert v.status == "Unresolved"
    assert v.witness[1] == (0, 1)


def floor_by_enclosure(loc, step, max_bits):
    """Oracle: floor((theta/pi) / step) from theta/pi's enclosure alone, refined up to 4*max_bits."""
    if isinstance(loc, PiLoc):
        return int(loc.frac // step)
    prec = 64
    while True:
        lo, hi = theta_over_pi_enclosure(loc, prec)
        jlo, jhi = int(lo // step), int(hi // step)
        if jlo == jhi:
            return jlo
        if prec >= 4 * max_bits:
            raise UnresolvedComparison(loc, PiLoc(jhi * step), max_bits)
        prec *= 2


def period_test_by_windows(f, max_bits=DEFAULT_PRECISION_BITS):
    """Oracle: every point placed in its window first, then each window merged with window 0."""
    if f.period.denominator != 1:
        raise ValueError("period must be an integer multiple of 2*pi")
    s = f.period.numerator
    if s <= 1:
        return Verdict("Periodic")
    windows = [[] for _ in range(s)]
    for pt in f.points:
        try:
            j = floor_by_enclosure(pt.loc, Fraction(2), max_bits)
        except UnresolvedComparison as e:
            j = int(e.loc_b.frac / 2)
            return Verdict("Unresolved", (pt.loc, ((j - 1) % s, j % s), None))
        if not 0 <= j < s:
            raise ValueError("jump location outside the fundamental period")
        windows[j].append(_translate_point(pt, Fraction(-2 * j)))
    base = windows[0]
    for j in range(1, s):
        for a, b in zip_longest(base, windows[j]):
            if a is None:
                return Verdict("NonPeriodic", (b.loc, (0, j), (None, b.value)))
            if b is None:
                return Verdict("NonPeriodic", (a.loc, (0, j), (a.value, None)))
            c = compare_locations(a.loc, b.loc, max_bits)
            if c is Comparison.EQ:
                if a.value != b.value:
                    return Verdict("NonPeriodic", (a.loc, (0, j), (a.value, b.value)))
            elif c is Comparison.LT:
                return Verdict("NonPeriodic", (a.loc, (0, j), (a.value, None)))
            elif c is Comparison.GT:
                return Verdict("NonPeriodic", (b.loc, (0, j), (None, b.value)))
            else:
                return Verdict("Unresolved", (a.loc, (0, j), None))
    total = sum(pt.value for pt in f.points)
    if total:
        return Verdict("NonPeriodic", (PiLoc(0), (0, 1), (-total, None)))
    return Verdict("Periodic")


def same_verdict(v, w):
    """Equal status and witness, the witness locations compared by theta."""
    if v.status != w.status or (v.witness is None) != (w.witness is None):
        return False
    if v.witness is None:
        return True
    (a, wins, vals), (b, wins2, vals2) = v.witness, w.witness
    return wins == wins2 and vals == vals2 and compare_locations(a, b) is Comparison.EQ


# t of either sign whose 2*atan(t) is no rational multiple of pi
QUAD_TS = [AlgReal([-2, 0, 1], 1, 2), AlgReal([-5, 0, 1], 2, 3), AlgReal([-1, 0, 2], 0, 1),
           AlgReal([-7, 0, 1], 2, 3), AlgReal([-1, -1, 1], 1, 2)]
QUAD_TS += [t.neg() for t in QUAD_TS]


@st.composite
def base_locations(draw):
    """A PiLoc or an AlgLoc with theta/pi in [0, 2)."""
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=6))
        return PiLoc(Fraction(draw(st.integers(min_value=0, max_value=2 * q - 1)), q))
    t = draw(st.sampled_from(QUAD_TS)).copy()
    scale = draw(st.integers(min_value=1, max_value=3))
    # 2*atan(t)/pi in (0, 1) for t > 0 and in (-1, 0) for t < 0
    offset = draw(st.integers(min_value=0, max_value=2 * scale - 1) if t.lo >= 0
                  else st.integers(min_value=1, max_value=2 * scale))
    return AlgLoc(t, offset, scale)


def _sorted_points(pts):
    return sorted(pts, key=jumps._cmp_key(DEFAULT_PRECISION_BITS))


@given(st.lists(st.tuples(base_locations(), st.integers(min_value=-3, max_value=3)
                          .filter(bool)), max_size=5),
       st.integers(min_value=2, max_value=5),
       st.lists(st.tuples(st.sampled_from(["change", "drop", "add"]), st.integers(min_value=0, max_value=4),
                          st.integers(min_value=0, max_value=20), base_locations(),
                          st.integers(min_value=-3, max_value=3).filter(bool)), max_size=3))
@settings(max_examples=60, deadline=None)
def test_walked_period_test_matches_the_placed_windows(base, s, edits):
    f = JumpFunction(_sorted_points(JumpPoint(loc, v) for loc, v in base), Fraction(1))
    pts = list(with_period(f, s).points)
    for how, window, k, loc, v in edits:
        window %= s
        mine = [i for i, pt in enumerate(pts) if floor_by_enclosure(pt.loc, Fraction(2), 64) == window]
        if how == "add" or not mine:
            pts.append(_translate_point(JumpPoint(loc, v), Fraction(2 * window)))
        elif how == "change":
            i = mine[k % len(mine)]
            pts[i] = JumpPoint(pts[i].loc, pts[i].value + v)
        else:
            del pts[mine[k % len(mine)]]
    g = JumpFunction(_sorted_points(pts), Fraction(s), f.sigma0)
    want = period_test_by_windows(g)
    if want.status != "Unresolved":
        assert same_verdict(period_2pi_test(g), want)


@given(st.sampled_from([[-2, 0, 1], [-3, 0, 1], [1, -4, 1], [-1, 0, 3], [-1, -1, 1], [-5, 2, 3],
                        [1, 3, -7], [-1, 0, 1], [4, 9, 2]]),
       st.integers(min_value=0, max_value=1),
       st.fractions(min_value=-6, max_value=6, max_denominator=4),
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
       st.fractions(min_value=Fraction(1, 3), max_value=6, max_denominator=3))
@settings(max_examples=150, deadline=None)
def test_floor_over_from_the_sign_of_t_matches_the_enclosure(poly, which, offset, scale, step):
    # t a root of a small quadratic, of either sign: sqrt 3, 2 - sqrt 3 and
    # 1/sqrt 3 put theta on a rational angle, possibly a multiple of step
    ts = isolate_real_roots(P.int_form(poly))
    t = ts[which % len(ts)]
    loc = AlgLoc(t, offset, scale)
    try:
        want = floor_by_enclosure(AlgLoc(t.copy(), offset, scale), step, DEFAULT_PRECISION_BITS)
    except UnresolvedComparison as e:
        with pytest.raises(UnresolvedComparison) as info:
            _floor_over(loc, step, DEFAULT_PRECISION_BITS)
        assert info.value.loc_b == e.loc_b
    else:
        assert _floor_over(loc, step, DEFAULT_PRECISION_BITS) == want


def test_a_point_past_the_period_raises_whatever_the_verdict():
    # window 1 differs from window 0, and the last point lies past 2*pi*s
    over = [_pt(Fraction(1, 3), 2), _pt(Fraction(7, 3), -2), _pt(Fraction(13, 3), 2)]
    for last in (_pt(Fraction(19, 3), 1),
                 JumpPoint(AlgLoc(AlgReal([-2, 0, 1], 1, 2), 12, 1), 1)):
        f = JumpFunction(over + [last], Fraction(3))
        with pytest.raises(ValueError, match="outside the fundamental period"):
            period_2pi_test(f)
        with pytest.raises(ValueError, match="outside the fundamental period"):
            period_test_by_windows(f)


def test_points_out_of_ascending_order_are_refused():
    # the walk takes window j as the run after window j - 1: a point of an
    # earlier window after it is no such run
    f = JumpFunction([_pt(Fraction(7, 3), 2), _pt(Fraction(1, 3), 2)], Fraction(2))
    with pytest.raises(ValueError, match="ascending"):
        period_2pi_test(f)


def test_a_mismatch_wins_over_a_later_point_on_a_window_boundary():
    # window 1 differs from window 0; the last point is 2*atan(sqrt 3) +
    # 16*pi/3 = 6*pi, on the boundary of windows 2 and 3, which no enclosure
    # ever places: the mismatch is found before the walk reaches it
    on_boundary = JumpPoint(AlgLoc(AlgReal([-3, 0, 1], 1, 2), Fraction(16, 3), 1), 2)
    f = JumpFunction([_pt(Fraction(1, 3), 2), _pt(Fraction(7, 3), -2), _pt(Fraction(13, 3), 2),
                      on_boundary], Fraction(4))
    with time_limit(30):
        v = period_2pi_test(f)
    assert v.status == "NonPeriodic"
    assert v.witness[1:] == ((0, 1), (2, -2))
    # placing every point first, as before, gives up on the boundary point
    assert period_test_by_windows(f).status == "Unresolved"


def test_the_verdict_places_only_the_points_it_reads(monkeypatch):
    # L(ALG, 2) at d = 2^3: 508 points over s = 255 windows, NonPeriodic at
    # windows (0, 1); the rescaled points are placed by t's sign alone
    sd, c = ltm_family(ALG, 2)
    cm = build_covering(sd, c, CoveringSpec(p=2, a=3))
    f = jump_function(cm, 1)
    assert len(f.points) == 508
    floor_over = jumps._floor_over

    def refuse(*args):
        raise AssertionError("scale_jump placed a point")

    # rescaling places no point and encloses no angle
    with monkeypatch.context() as m:
        m.setattr(jumps, "_floor_over", refuse)
        m.setattr(jumps, "theta_over_pi_enclosure", refuse)
        g = scale_jump(f, Fraction(1, cm.s))
    placed = []
    monkeypatch.setattr(jumps, "_floor_over", lambda *args: placed.append(1) or floor_over(*args))
    v = period_2pi_test(g)
    assert v.status == "NonPeriodic" and v.witness[1] == (0, 1)
    sizes = [sum(floor_over(pt.loc, Fraction(2), DEFAULT_PRECISION_BITS) == j for pt in g.points)
             for j in (0, 1)]
    assert 0 < len(placed) <= sum(sizes) + 2
    assert same_verdict(v, period_test_by_windows(g))


@pytest.mark.parametrize("e", range(1, 9))
@pytest.mark.parametrize("h", [[2, -3, 2], P.mul([2, -3, 2], [2, -3, 2])],
                         ids=["square-free", "squared"])
def test_cayley_gcds_skip_the_square_free_part_for_a_square_free_h(monkeypatch, h, e):
    # ALG's Delta_V and its square: the e lifts are the positive roots of
    # g, the square-free part of the Cayley gcd of h(w^e), yet no Cayley gcd
    # of h(w^e) is taken, and square_free_part runs at the degree of h only
    want = P.square_free_part(P.gcd(*_cayley_numerator(P.at_power(h, e))))
    degrees = []
    square_free_part = P.square_free_part
    monkeypatch.setattr(P, "square_free_part", lambda p: degrees.append(P.degree(p)) or square_free_part(p))
    roots = _algebraic_candidates([(h, e, {0})])
    assert len(roots) == e and all(owners == {0} for _, owners in roots)
    assert max(degrees) <= P.degree(h)
    lifts = [x for x, _ in roots]
    assert jumps._roots_of(want, lifts, DEFAULT_PRECISION_BITS) == _separate_candidates(lifts)[0]


@pytest.mark.parametrize("poly, interval", [
    (["-3", "0", "1"], ["1", "2"]),  # t = sqrt 3: 2*atan(t) = 2*pi/3
    (["1", "-4", "1"], ["0", "1"]),  # t = 2 - sqrt 3: 2*atan(t) = pi/6
    (["-1", "1"], ["0", "2"]),  # t = 1: 2*atan(t) = pi/2
])
def test_point_at_root_of_unity_is_refused(poly, interval):
    # the algebraic spelling of a rational angle; with offset 4/3 the first
    # one is theta = 2*pi exactly
    doc = {"period": "2", "sigma0": 0, "points": [
        {"algebraic_t": {"poly": poly, "interval": interval},
         "offset": "4/3", "scale": "1", "value": 2}]}
    with time_limit(30):
        with pytest.raises(ValueError, match="rational multiple of pi.*pi_rational"):
            jump_from_obj(doc)
    # an algebraic angle next to them is still taken in
    doc["points"][0]["algebraic_t"] = {"poly": ["-2", "0", "1"], "interval": ["1", "2"]}
    assert len(jump_from_obj(doc).points) == 1


@pytest.mark.parametrize("interval", [["-1", "1"], ["-1/3", "1/2"]])
def test_point_at_t_zero_is_refused(interval):
    # t = 0 with half 1 is theta = 2*pi: a rational angle, spelled pi_rational
    doc = {"period": "2", "points": [
        {"algebraic_t": {"poly": ["0", "1"], "interval": interval},
         "half": 1, "scale": "1", "value": 1}]}
    with pytest.raises(ValueError, match="t = 0.*pi_rational"):
        jump_from_obj(doc)
    # the pi_rational spelling of the same point is compared exactly
    exact = {"period": "2", "points": [{"pi_rational": "2", "scale": "1", "value": 1}]}
    assert period_2pi_test(jump_from_obj(exact)).status == "NonPeriodic"
    # a nonzero root whose interval straddles 0 is still taken in
    doc["points"][0]["algebraic_t"] = {"poly": ["-1", "4"], "interval": interval}
    assert len(jump_from_obj(doc).points) == 1


def at_root_of_unity_by_scan(t):
    """Oracle: the gcd certificate tried on every n <= 8*deg^2 with phi(n) <= 2*deg."""
    deg = P.degree(t.poly)
    for n in range(1, 8 * deg * deg + 1):
        if int(totient(n)) > 2 * deg:
            continue
        g = P.gcd(t.poly, _cyclotomic_cayley_gcd(n))
        if P.degree(g) >= 1 and sturm_count(fraction_sturm_chain(g), t.lo, t.hi):
            return True
    return False


@pytest.mark.parametrize("n", range(1, 21))
def test_root_of_unity_points_match_the_scan(n):
    # every t = tan(pi*k/n) of a primitive n-th root of unity, also as a root
    # of a poly with a spare factor, which raises deg and so the bound 8*deg^2
    g = list(_cyclotomic_cayley_gcd(n))
    chain = fraction_sturm_chain(g)
    for poly in (g, schoolbook_mul(g, [Fraction(-2), 0, Fraction(1)])):
        ts = isolate_real_roots(poly)
        assert len(ts) == P.degree(poly)
        for t in ts:
            # the roots of g are the points, those of x^2 - 2 are not
            expected = sturm_count(chain, t.lo, t.hi) == 1
            assert _at_root_of_unity(t) is at_root_of_unity_by_scan(t) is expected


@pytest.mark.parametrize("n, k", [(5, 1), (8, 1), (10, 3), (12, 1), (25, 2), (29, 3),
                                  (31, 1), (32, 5)])
def test_points_next_to_roots_of_unity_match_the_scan(n, k):
    # t = sqrt(c) within about 1e-12 of tan(pi*k/n): deg 2 bounds n by 32,
    # so the enclosure names the order n (or one with the same angle) as
    # the one candidate, and the certificate must still refuse it
    c = Fraction(math.tan(math.pi * k / n) ** 2).limit_denominator(10 ** 12)
    t = AlgReal([-c, 0, 1], 0, 1 + c)
    assert _at_root_of_unity(t) is False
    assert at_root_of_unity_by_scan(t) is False


def test_alg_cover_points_match_the_scan():
    # every algebraic point of the L(ALG, 2) jump document at p = 3
    sd, coeffs = ltm_family(ALG, 2)
    g, _ = covering_jump(sd, coeffs, CoveringSpec(p=3))
    ts = [pt.loc.t for pt in g.points if isinstance(pt.loc, AlgLoc)]
    assert len(ts) == 12
    for t in ts:
        assert _at_root_of_unity(t) is at_root_of_unity_by_scan(t) is False
    assert len(jump_from_obj(jump_to_obj(g)).points) == len(g.points)


def test_candidate_separation_is_bounded():
    # two copies of one root never separate: the precision cap turns that
    # into UnresolvedComparison instead of doubling forever
    r = AlgReal([-2, 0, 1], 1, 2)
    items = [AlgLoc(r), AlgLoc(r.copy())]
    with time_limit(30):
        with pytest.raises(UnresolvedComparison) as info:
            _separate_candidates(items)
    assert info.value.bits == DEFAULT_PRECISION_BITS
    assert all(isinstance(loc, AlgLoc) for loc in (info.value.loc_a, info.value.loc_b))
    assert r.width() <= Fraction(1, 1 << (4 * DEFAULT_PRECISION_BITS))


def test_small_precision_bits_stop_separation_sooner():
    # the same equal pair as above: with max_bits = 64 the cap is 256 bits
    r = AlgReal([-2, 0, 1], 1, 2)
    with pytest.raises(UnresolvedComparison) as info:
        _separate_candidates([AlgLoc(r), AlgLoc(r.copy())], 64)
    assert info.value.bits == 64
    assert r.width() <= Fraction(1, 1 << 256)
    assert r.width() > Fraction(1, 1 << (4 * DEFAULT_PRECISION_BITS))


def fraction_cyclotomic_split(S):
    """Trial division of S by each Phi_n in Fraction long division."""
    ns = []
    deg = P.degree(S)
    n = 1
    while P.degree(S) >= 1 and n <= 6 * deg + 30:
        if int(totient(n)) <= P.degree(S):
            quot, rem = fraction_divmod(S, P.cyclotomic(n))
            if not rem:
                ns.append(n)
                S = quot
        n += 1
    return ns, S


def cyclotomic_split(S):
    """The split of a square-free S before it ran block by block: (ns, rest).

    Trial division of the primitive integer form of S by each Phi_n with
    n <= 6 * deg S + 30, once each, by Fraction long division; rest is the
    cofactor, primitive as S's form is and Phi_n monic.
    """
    ns = []
    deg = P.degree(S)
    ip = P.int_form(S)
    n = 1
    while len(ip) >= 2 and n <= 6 * deg + 30:
        if P.totient(n) < len(ip):
            quot, rem = fraction_divmod(ip, P.cyclotomic(n))
            if not rem:
                ns.append(n)
                ip = P.int_form(quot)
        n += 1
    return ns, ip


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=24), max_size=4, unique=True),
    st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4)
             .filter(lambda c: c[-1] != 0), max_size=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)
def test_cyclotomic_split_matches_fraction_division(ns, others, content):
    # square-free products of cyclotomic and other integer factors, at any content
    S = [content]
    for n in ns:
        S = schoolbook_mul(S, [Fraction(c) for c in P.cyclotomic(n)])
    for c in others:
        S = schoolbook_mul(S, [Fraction(x) for x in c])
    assume(P.square_free_part(S) == P.int_form(S))
    want_ns, want_rest = fraction_cyclotomic_split(S)
    got_ns, rest = _cyclotomic_parts(P.int_form(S))
    assert all(type(c) is int for c in rest)
    assert set(ns) <= set(got_ns)
    assert got_ns == want_ns
    # the same cofactor up to a constant, once the oracle's factors w are dropped
    while want_rest[0] == 0:
        want_rest = want_rest[1:]
    assert P.int_form(rest) == P.int_form(want_rest)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=3)),
             max_size=4),
    st.lists(st.tuples(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4)
                       .filter(lambda c: c[-1] != 0 and c[0] != 0),
                       st.integers(min_value=1, max_value=2)), max_size=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-6, max_value=6).filter(bool),
)
def test_cyclotomic_parts_with_multiplicity_match_the_square_free_split(powers, others, i, c):
    # c * w^i * prod Phi_n^e * prod f^e: the same orders and the same square-free
    # rest up to a constant as the square-free part split once per Phi_n
    f = [0] * i + [c]
    for n, e in powers:
        for _ in range(e):
            f = P.mul(f, P.cyclotomic(n))
    for g, e in others:
        for _ in range(e):
            f = P.mul(f, g)
    ns, rest = _cyclotomic_parts(f)
    want_ns, want_rest = cyclotomic_split(P.square_free_part(
        [Fraction(a) for a in f[i:]]))
    assert ns == want_ns
    assert {n for n, _ in powers} <= set(ns)
    assert P.square_free_part(rest) == want_rest


def fraction_simplest_between(a, b):
    """The simplest rational in (a, b) by the recursion on Fractions that the sample loop used."""
    fa = a.numerator // a.denominator
    cand = Fraction(fa + 1)
    if a < cand < b:
        return cand
    if a == fa:
        return a + Fraction(1, (1 / (b - a)).__floor__() + 1)
    return fa + 1 / fraction_simplest_between(1 / (b - fa), 1 / (a - fa))


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-20, max_value=20, max_denominator=1 << 70),
       st.fractions(min_value=Fraction(1, 1 << 70), max_value=3, max_denominator=1 << 70))
@example(Fraction(0), Fraction(1, 7))
@example(Fraction(2), Fraction(1))
@example(Fraction(-3, 2), Fraction(1, 1 << 64))
def test_simplest_between_in_integers_is_the_fraction_recursion(a, width):
    # the same rational as before, and no smaller denominator has a point in (a, b)
    b = a + width
    num, den = _simplest_between(a.numerator, a.denominator, b.numerator, b.denominator)
    x = Fraction(num, den)
    assert (x.numerator, x.denominator) == (num, den)
    assert x == fraction_simplest_between(a, b)
    assert a < x < b
    for q in range(1, min(den, 64)):
        assert not a < Fraction((a * q).__floor__() + 1, q) < b
    with pytest.raises(ValueError):
        _simplest_between(b.numerator, b.denominator, a.numerator, a.denominator)


def dense_route(f):
    """The candidates of a block factor f as they were found before its sparse form was read.

    _cyclotomic_parts on the expanded f, then the positive roots of the
    square-free Cayley gcd g of its rest, isolated by Descartes on the whole
    of g and printed on dyadic_cell: (orders, rest, cells).
    """
    ns, rest = _cyclotomic_parts(f)
    g = P.gcd(*_cayley_numerator(rest)) if len(rest) >= 2 else [1]
    if P.degree(g) < 1:
        return ns, rest, []
    roots = [x for x in isolate_real_roots(g) if x.sign() > 0]
    return ns, rest, [dyadic_cell(x) for x in roots]


def inside_one_cell(loc, cells):
    """The index of the one cell (poly, lo, hi) that holds loc's t-enclosure, narrowed until it fits one."""
    prec = 64
    while True:
        lo, hi = jumps._t_enclosure(loc, prec)
        holding = [k for k, (_, clo, chi) in enumerate(cells) if clo < lo and hi < chi]
        if holding or prec > 1024:
            assert len(holding) == 1
            return holding[0]
        prec *= 2


# quadratics a*w^2 + b*w + a with b^2 < 4a^2: a conjugate pair on the unit circle
UNIT_PAIRS = st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=-59, max_value=59)
                       ).filter(lambda ab: ab[1] ** 2 < 4 * ab[0] ** 2).map(lambda ab: [ab[0], ab[1], ab[0]])
H_FACTORS = st.one_of(
    UNIT_PAIRS,
    st.integers(min_value=1, max_value=12).map(P.cyclotomic),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4)
    .filter(lambda c: c[0] != 0 and c[-1] != 0),
    # t = 1/2, a root on the dyadic grid (at e = 1, and at e = 2 for the
    # second, whose root is w^2 for w = (3 + 4i)/5); roots near theta = pi and 0
    st.sampled_from([[5, -6, 5], [25, 14, 25], [100, 199, 100], [100, -199, 100]]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(UNIT_PAIRS.filter(lambda q: q[1] not in (0, q[0], -q[0])), min_size=1, max_size=2),
       st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=3, unique=True))
@example([[2, -3, 2]], [1, 2, 3])
def test_lifts_of_one_root_at_distinct_j_and_e_never_coincide(factors, es):
    # a unit pair a*w^2 + b*w + a with b not in {0, a, -a} has no root of
    # unity: every upper-half lift AlgLoc(t_h, 2j, e) of one root t_h of its
    # (product's) g_h, over several e, separates, and no two compare EQ
    h = [1]
    for q in factors:
        h = P.mul(h, q)
    g = P.gcd(*_cayley_numerator(h))
    for t in isolate_real_roots(g):
        lifts = [AlgLoc(t, 2 * j, e) for e in es
                 for j in (range((e + 1) // 2) if t.sign() > 0 else range(1, e // 2 + 1))]
        items, _ = _separate_candidates(lifts)
        assert len(items) == len(lifts)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                assert compare_locations(a, b) is Comparison.LT
                assert compare_locations(b, a) is Comparison.GT


@settings(max_examples=80, deadline=None)
@given(st.lists(H_FACTORS, min_size=1, max_size=3), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2), st.integers(min_value=-3, max_value=3).filter(bool))
# planted e = 1: a dense h whose one pair has its roots lifted by nothing
@example([[2, -3, 2], [1, 1, 0, 1]], 1, 0, 1)
@example([[5, -6, 5]], 1, 1, 1)
@example([[25, 14, 25], P.cyclotomic(7)], 2, 0, -2)
@example([[100, 199, 100]], 1, 0, 1)
@example([[100, 199, 100], [100, -199, 100]], 8, 2, 3)
def test_lifted_candidates_match_the_dense_route(factors, e, i, c):
    # the orders and the rest of f = c * w^i * h(w^e), found from h, are those
    # of the expanded f, and its lifts match the printed cells of the
    # expanded f one to one: each cell holds exactly one lift's t-enclosure
    h = [c]
    for q in factors:
        h = P.mul(h, q)
    assume(e * P.degree(h) <= 60)
    f = [0] * i + P.at_power(h, e)
    want_ns, want_rest, want_cells = dense_route(f)
    ns, rest, e = _split_part(f, {})
    lifts = [x for x, _ in _algebraic_candidates([(rest, e, {0})] if len(rest) >= 2 else [])]
    assert ns == want_ns
    assert P.int_form(P.at_power(rest, e)) == P.int_form(want_rest)
    assert sorted(inside_one_cell(x, want_cells) for x in lifts) == list(range(len(want_cells)))


def fraction_cayley_numerator(S):
    """sum_j S_j (1+it)^j (1-it)^(deg-j) by expanding every product in Fraction polys."""
    Sz = P.int_form(S)
    deg = len(Sz) - 1
    # (1+it)^j and (1-it)^j as (re, im) coefficient lists, built incrementally
    def add(p, q, c=1):  # p + c*q
        n = max(len(p), len(q))
        p, q = p + [0] * (n - len(p)), q + [0] * (n - len(q))
        return P.trim([Fraction(a + c * b) for a, b in zip(p, q)])

    plus = [([1], [])]
    minus = [([1], [])]
    for _ in range(deg):
        pr, pi = plus[-1]
        plus.append((add(pr, [0] + pi, -1), add(pi, [0] + pr)))
        mr, mi = minus[-1]
        minus.append((add(mr, [0] + mi), add(mi, [0] + mr, -1)))
    re, im = [], []
    for j, c in enumerate(Sz):
        if c == 0:
            continue
        ar, ai = plus[j]
        br, bi = minus[deg - j]
        re = add(re, add(schoolbook_mul(ar, br), schoolbook_mul(ai, bi), -1), c)
        im = add(im, add(schoolbook_mul(ar, bi), schoolbook_mul(ai, br)), c)
    return re, im


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.just(0), st.integers(min_value=-(1 << 40), max_value=1 << 40)),
             min_size=1, max_size=41).filter(lambda c: c[-1] != 0),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    st.integers(min_value=1, max_value=12),
)
def test_cayley_numerator_matches_fraction_expansion(cs, content, g):
    # degrees 0..40, zero coefficients, and a content that is not 1
    S = [content * g * c for c in cs]
    re, im = _cayley_numerator(S)
    assert all(type(c) is int for c in re + im)
    assert (re, im) == fraction_cayley_numerator(S)


def test_period_test_requires_integer_period():
    with pytest.raises(ValueError):
        period_2pi_test(JumpFunction([], Fraction(1, 2)))


def test_covering_jump_smoke():
    sd, c = ltm_family(TREFOIL, 2)
    g, verdict = covering_jump(sd, c, CoveringSpec(p=3))
    assert g.period == 7
    assert verdict.status == "NonPeriodic"


# ---------------------------------------------------------------------------
# serialization


def test_serialization_roundtrip_pi():
    f = jump_function(T25)
    obj = jump_to_obj(f)
    assert obj["points"][0] == {"pi_rational": "1/5", "scale": "1", "value": -2}
    assert same_jumps(jump_from_obj(obj), f)
    assert jump_from_obj(obj).sigma0 == f.sigma0


def test_serialization_roundtrip_algebraic():
    f = jump_function(ALG)
    obj = jump_to_obj(f)
    assert obj["points"][0]["half"] == 0
    assert obj["points"][1]["half"] == 1
    assert same_jumps(jump_from_obj(obj), f)


def test_serialization_translated_offset():
    f = with_period(jump_function(ALG), 2)
    obj = jump_to_obj(f)
    # points in the second window carry an explicit offset
    assert any("offset" in p for p in obj["points"])
    assert same_jumps(jump_from_obj(obj), f)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool))
def test_any_rational_multiple_gives_the_same_poly_and_print(cs, c):
    # the constructor keeps the primitive integer form, whatever multiple it
    # is given, and point_to_obj prints that poly monic
    sf = P.square_free_part(cs)
    assume(P.degree(sf) >= 1)
    monic = [str(Fraction(c * x) / (c * sf[-1])) for x in sf]
    for t in isolate_real_roots(sf):
        u = AlgReal([c * x for x in sf], t.lo, t.hi)
        assert u.poly == t.poly == sf
        obj = point_to_obj(JumpPoint(AlgLoc(u), 1))
        assert obj == point_to_obj(JumpPoint(AlgLoc(t), 1))
        assert obj["algebraic_t"]["poly"] == monic


@pytest.mark.parametrize("field", ["period", "pi_rational", "scale", "offset", "interval",
                                   "poly"])
def test_exponent_notation_in_a_document_is_refused(field):
    # Fraction("1e10000000") builds a 33-million-bit integer, and each further
    # exponent digit costs ten times more: no rational of a document is read
    # in exponent notation, even one with a harmless value
    pi = {"pi_rational": "1/3", "scale": "1", "value": 1}
    alg = {"algebraic_t": {"poly": ["-2", "0", "1"], "interval": ["1", "2"]},
           "offset": "4/3", "scale": "1", "value": 2}
    doc = {"period": "2", "sigma0": 0, "points": [pi, alg]}
    assert len(jump_from_obj(doc).points) == 2
    if field == "period":
        doc["period"] = "2e0"
    elif field == "pi_rational":
        pi["pi_rational"] = "1e400"
    elif field == "scale":
        pi["scale"] = "1E0"
    elif field == "offset":
        alg["offset"] = "1e400"
    elif field == "interval":
        alg["algebraic_t"]["interval"] = ["1", "2e0"]
    else:
        alg["algebraic_t"]["poly"] = ["-2e0", "0", "1"]
    with pytest.raises(ValueError, match="exponent notation"):
        jump_from_obj(doc)


@pytest.mark.parametrize("where, field, bad", [
    ("pi", "scale", "0"),  # was a ZeroDivisionError
    ("pi", "scale", "-1"),  # was read as theta = -pi/2
    ("doc", "period", "0"),
    ("doc", "period", "-1"),
    ("pi", "value", 1.9),  # was read as 1
    ("pi", "value", True),  # was read as 1
    ("doc", "sigma0", 2.7),  # was read as 2
    ("doc", "sigma0", False),
    ("alg", "half", 7),  # was read as 1
    ("alg", "half", True),
])
def test_malformed_document_is_refused(where, field, bad):
    # a scale or period that is not positive, a value or sigma0 that is not
    # an int or an int string, and a half other than 0 or 1 are refused
    pi = {"pi_rational": "1/3", "scale": "1", "value": 1}
    alg = {"algebraic_t": {"poly": ["-2", "0", "1"], "interval": ["1", "2"]},
           "half": 1, "scale": "1", "value": "2"}
    doc = {"period": "2", "sigma0": "-1", "points": [pi, alg]}
    f = jump_from_obj(doc)
    assert [pt.value for pt in f.points] == [1, 2] and f.sigma0 == -1
    assert f.points[1].loc.offset == 2
    {"pi": pi, "alg": alg, "doc": doc}[where][field] = bad
    with pytest.raises(ValueError):
        jump_from_obj(doc)


def test_jump_from_obj_refuses_points_outside_the_period():
    # a JumpFunction's points lie in (0, 2*pi*period), which the jump
    # algebra keeps and reading a document checks: at period 1, theta = 0,
    # theta = 2*pi and 2*atan(sqrt 2) + 4*pi are refused, not reduced
    inside = {"pi_rational": "1/3", "scale": "1", "value": 1}
    assert len(jump_from_obj({"period": "1", "points": [inside]}).points) == 1
    for point in ({"pi_rational": "0", "scale": "1", "value": 1},
                  {"pi_rational": "2", "scale": "1", "value": 1},
                  {"algebraic_t": {"poly": ["-2", "0", "1"], "interval": ["1", "2"]},
                   "offset": "4", "scale": "1", "value": 1}):
        with pytest.raises(ValueError, match=r"strictly between 0 and 2\*pi\*1"):
            jump_from_obj({"period": "1", "points": [inside, point]})
    # 2*atan(2^-2000) + 2*pi lies past 2*pi, closer than any enclosure at
    # 4 * 256 bits can tell
    tiny = {"algebraic_t": {"poly": ["-1", str(2 ** 2000)], "interval": ["0", "1"]},
            "half": 1, "scale": "1", "value": 1}
    with pytest.raises(UnresolvedComparison):
        jump_from_obj({"period": "1", "points": [inside, tiny]})


def test_document_points_are_read_in_ascending_theta():
    # period_2pi_test merges each window with window 0 and assumes sorted
    # points: read in this order, the document's verdict was NonPeriodic
    doc = {"period": "2", "points": [{"pi_rational": r, "scale": "1", "value": v}
                                     for r, v in (("2/3", -1), ("1/3", 1), ("7/3", 1), ("8/3", -1))]}
    f = jump_from_obj(doc)
    assert [pt.loc.frac for pt in f.points] == [Fraction(k, 3) for k in (1, 2, 7, 8)]
    assert period_2pi_test(f).status == "Periodic"


def test_theta_decimal_display():
    assert theta_decimal(PiLoc(Fraction(1, 3))).startswith("1.047197551")
    loc = jump_function(ALG).points[0].loc
    # arccos(3/4) ~ 0.7227
    assert theta_decimal(loc).startswith("0.72273")


def test_reading_a_document_checks_each_poly_and_interval_once(monkeypatch):
    # L(ALG, 2) at p = 3 over two periods: 24 points, every one a lift of
    # the root t_h = 1/sqrt(7) of ALG's g_h or its mirror -t_h; the poly is
    # checked square-free once, and each (poly, interval) counted once
    sd, c = ltm_family(ALG, 2)
    g, _ = covering_jump(sd, c, CoveringSpec(p=3))
    obj = jump_to_obj(with_period(g, 2 * g.period))
    ats = [p["algebraic_t"] for p in obj["points"]]
    polys = {tuple(a["poly"]) for a in ats}
    cells = {(tuple(a["poly"]), tuple(a["interval"])) for a in ats}
    assert (len(ats), len(cells), len(polys)) == (24, 2, 1)
    square_free, counts = [], []
    sfp, count_roots = P.square_free_part, P.count_roots
    monkeypatch.setattr(P, "square_free_part", lambda p: square_free.append(1) or sfp(p))
    monkeypatch.setattr(P, "count_roots", lambda *a: counts.append(1) or count_roots(*a))
    f = jump_from_obj(obj)
    assert (len(square_free), len(counts)) == (len(polys), len(cells))
    assert jump_to_obj(f) == obj


def test_reading_the_lifted_p7_document_checks_each_cell_once(monkeypatch):
    # L(ALG, 2) at p = 7 prints 252 lifts of ALG's two roots +-t_h: reading
    # it back runs the isolation check and the root-of-unity test once per
    # distinct (poly, interval), not once per point
    sd, c = ltm_family(ALG, 2)
    g, _ = covering_jump(sd, c, CoveringSpec(p=7))
    obj = jump_to_obj(g)
    cells = {(tuple(p["algebraic_t"]["poly"]), tuple(p["algebraic_t"]["interval"]))
             for p in obj["points"]}
    isolating, unity = [], []
    check, at_root_of_unity = AlgReal._check_isolating, jumps._at_root_of_unity
    monkeypatch.setattr(AlgReal, "_check_isolating", lambda self: isolating.append(1) or check(self))
    monkeypatch.setattr(jumps, "_at_root_of_unity", lambda t: unity.append(1) or at_root_of_unity(t))
    f = jump_from_obj(obj)
    assert len(f.points) == 252 and len(cells) == 2
    assert len(isolating) == len(unity) == len(cells)
    assert jump_to_obj(f) == obj
