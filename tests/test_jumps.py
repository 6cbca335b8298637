"""Jump extraction, location comparison, jump algebra, the period test, and
serialization."""

import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, totient
from sympy.polys.matrices import DomainMatrix

from covsig import (
    DEFAULT_PRECISION_BITS,
    AlgReal,
    Comparison,
    CoveringMatrix,
    CoveringSpec,
    JumpFunction,
    JumpPoint,
    PiLoc,
    RatMatrix,
    UnresolvedComparison,
    ZeroScale,
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
from covsig import _fast
from covsig.exact import poly as P
from covsig.jumps import (
    AlgLoc,
    _at_root_of_unity,
    _cayley_numerator,
    _cyclotomic_cayley_gcd,
    _cyclotomic_parts,
    _generic_minor_poly,
    _remove_common_kernel,
    _self_reciprocal_part,
    _separate_candidates,
    point_to_obj,
    theta_decimal,
)
from conftest import (
    ALG,
    T25,
    TREFOIL,
    fraction_divmod,
    fraction_sturm_chain,
    same_jumps,
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
    # the zero summand makes D vanish identically; once the common kernel is
    # removed, the jumps and sigma0 are those of V alone
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
    # _generic_minor_poly's minor depends on this choice: rows 0 and 1 are
    # equal, and row 0 is the one kept
    assert _fast.rank_profile([[1, 0, 2], [1, 0, 2], [0, 3, 1]]) == ([0, 2], [0, 1])
    assert _fast.rank_profile([[0, 0], [0, 2], [0, 1], [5, 0]]) == ([1, 3], [0, 1])


@settings(max_examples=60, deadline=None)
@given(square_ints, st.integers(min_value=0, max_value=2), mix_st, st.sampled_from([1, -1]))
def test_generic_minor_poly_matches_determinant(rows, k, mix, eps):
    D = _fast.pencil_det_poly(_fast.PencilCore(rows, eps))
    assume(D)
    # a nonsingular pencil is its own generic minor
    assert _generic_minor_poly(rows, eps) == D
    # every maximal minor of U^T (H + 0_k) U is an integer multiple of det H
    g = _generic_minor_poly(pad_and_mix(rows, k, mix), eps)
    assert len(g) == len(D)
    ratio = g[-1] / D[-1]
    assert ratio != 0 and g == [ratio * c for c in D]


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
    reduced = _remove_common_kernel(m)
    # ker P & ker P^T has dimension n - rank [P; P^T], and all of it goes
    assert len(reduced) == domain_rank(m + [list(c) for c in zip(*m)])
    if reduced:
        assert domain_rank(reduced + [list(c) for c in zip(*reduced)]) == len(reduced)
    # a congruence by a kernel basis: the pencil signature does not change
    assert tl_signature(RatMatrix(reduced) if reduced else RatMatrix.zeros(0), eps,
                        Fraction(u, v)) == tl_signature(RatMatrix(m), eps, Fraction(u, v))


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
    # common kernel with its transpose, so D = 0: after the kernel step the
    # reduced matrix is sampled as one group, with the jumps of the unpadded cover
    b = len(blocks[0][0])
    plain = [[RatMatrix(blk) for blk in row] for row in blocks]
    padded = [[RatMatrix([r + [0] for r in blk] + [[0] * (b + 1)]) for blk in row]
              for row in blocks]
    n = sum(map(abs, mults))
    f, g = (jump_function(CoveringMatrix(bl, 1, tuple(mults), n * bl[0][0].nrows), eps)
            for bl in (plain, padded))
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


def test_scale_jump_honours_max_bits():
    # sqrt(2) and a convergent of it within 2^-100: ordered at the default
    # budget, unresolved at 16 bits
    near = Fraction(14398739476117879, 10181446324101389)
    f = JumpFunction(
        [JumpPoint(AlgLoc(AlgReal([-2, 0, 1], 1, 2), 0, 1), 1),
         JumpPoint(AlgLoc(AlgReal.from_rational(near), 0, 1), -1)],
        Fraction(1),
    )
    assert [pt.value for pt in scale_jump(f, 1).points] == [-1, 1]
    with pytest.raises(UnresolvedComparison):
        scale_jump(f, 1, max_bits=16)


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


def test_period_test_trivial_and_periodic():
    assert period_2pi_test(JumpFunction([], Fraction(1))).status == "Periodic"
    f = JumpFunction([_pt(Fraction(1, 3), 2), _pt(Fraction(7, 3), 2)], Fraction(2))
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
    t = AlgReal([-2, 0, 1], 1, 2)
    f = JumpFunction(
        [JumpPoint(AlgLoc(t.copy(), 0, 1), 2), JumpPoint(AlgLoc(t.copy(), 2, 1), 2)],
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
    for poly in (g, P.mul(g, [Fraction(-2), 0, Fraction(1)])):
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
    items = [("alg", r), ("alg", r.copy())]
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
        _separate_candidates([("alg", r), ("alg", r.copy())], 64)
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
    n <= 6 * deg S + 30, once each; rest is the cofactor.
    """
    ns = []
    deg = P.degree(S)
    ip = P.int_form(S)
    n = 1
    while len(ip) >= 2 and n <= 6 * deg + 30:
        if P.totient(n) < len(ip):
            quot, rem = P.divmod_monic(ip, P.cyclotomic(n))
            if not rem:
                ns.append(n)
                ip = quot
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
        S = P.mul(S, [Fraction(c) for c in P.cyclotomic(n)])
    for c in others:
        S = P.mul(S, [Fraction(x) for x in c])
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
        re = add(re, add(P.mul(ar, br), P.mul(ai, bi), -1), c)
        im = add(im, add(P.mul(ar, bi), P.mul(ai, br)), c)
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


def test_document_points_are_read_in_ascending_theta():
    # period_2pi_test merges each window with window 0 and assumes sorted
    # points: read in this order, the document's verdict was NonPeriodic
    doc = {"period": "2", "points": [{"pi_rational": r, "scale": "1", "value": 1}
                                     for r in ("2/3", "1/3", "7/3", "8/3")]}
    f = jump_from_obj(doc)
    assert [pt.loc.frac for pt in f.points] == [Fraction(k, 3) for k in (1, 2, 7, 8)]
    assert period_2pi_test(f).status == "Periodic"


def test_theta_decimal_display():
    assert theta_decimal(PiLoc(Fraction(1, 3))).startswith("1.047197551")
    loc = jump_function(ALG).points[0].loc
    # arccos(3/4) ~ 0.7227
    assert theta_decimal(loc).startswith("0.72273")


def test_reading_a_document_checks_each_poly_and_interval_once(monkeypatch):
    # L(ALG, 2) at p = 3 over two periods: 24 points, each t twice, over
    # the three blocks' even g; each poly is checked square-free once, and
    # each (poly, interval) counted once
    sd, c = ltm_family(ALG, 2)
    g, _ = covering_jump(sd, c, CoveringSpec(p=3))
    obj = jump_to_obj(with_period(g, 2 * g.period))
    ats = [p["algebraic_t"] for p in obj["points"]]
    polys = {tuple(a["poly"]) for a in ats}
    cells = {(tuple(a["poly"]), tuple(a["interval"])) for a in ats}
    assert (len(ats), len(cells), len(polys)) == (24, 12, 3)
    square_free, counts = [], []
    sfp, count_roots = P.square_free_part, P.count_roots
    monkeypatch.setattr(P, "square_free_part", lambda p: square_free.append(1) or sfp(p))
    monkeypatch.setattr(P, "count_roots", lambda *a: counts.append(1) or count_roots(*a))
    f = jump_from_obj(obj)
    assert (len(square_free), len(counts)) == (len(polys), len(cells))
    assert jump_to_obj(f) == obj
