"""Jump extraction, location comparison, jump algebra, the period test, and
serialization."""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import totient

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
    ZeroScale,
    compare_locations,
    connected_sum,
    covering_jump,
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
from covsig.exact import poly as P
from covsig.jumps import AlgLoc, _cyclotomic_split, _separate_candidates, theta_decimal
from conftest import ALG, T25, TREFOIL, same_jumps

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
def test_signature_is_sigma0_plus_jumps_below(rows, eps, mix, singular, u, v):
    # sigma at theta = 2*atan(t) (mod 2*pi) is sigma0 plus every jump below it
    if singular:
        n = len(rows)
        rows[-1] = [sum(mix[i] * rows[i][j] for i in range(n - 1)) for j in range(n)]
    pm = RatMatrix(rows)
    f = jump_function(pm, eps)
    t = Fraction(u, v)
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


def fraction_cyclotomic_split(S):
    """Trial division of S by each Phi_n in Fraction long division."""
    ns = []
    deg = P.degree(S)
    n = 1
    while P.degree(S) >= 1 and n <= 6 * deg + 30:
        if int(totient(n)) <= P.degree(S):
            cyc = P.cyclotomic(n)
            if P.divides(cyc, S):
                ns.append(n)
                S = P.div_exact(S, cyc)
        n += 1
    return ns, S


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=24), max_size=4, unique=True),
    st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4)
             .filter(lambda c: c[-1] != 0), max_size=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
)
def test_cyclotomic_split_matches_fraction_division(ns, others, content):
    # products of cyclotomic and other integer factors, at any content
    S = [content]
    for n in ns:
        S = P.mul(S, [Fraction(c) for c in P.cyclotomic(n)])
    for c in others:
        S = P.mul(S, [Fraction(x) for x in c])
    got = _cyclotomic_split(S)
    assert got == fraction_cyclotomic_split(S)
    assert set(ns) <= set(got[0])


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


def test_theta_decimal_display():
    assert theta_decimal(PiLoc(Fraction(1, 3))).startswith("1.047197551")
    loc = jump_function(ALG).points[0].loc
    # arccos(3/4) ~ 0.7227
    assert theta_decimal(loc).startswith("0.72273")
