"""Oracle tests for the integer kernels that replaced mpmath and sympy at run time.

mpmath checks the atan/pi and tan(pi*f/2) enclosures and theta_decimal's
bytes; sympy's dup_inner_gcd checks the heuristic gcd and its fallback.
Both libraries are needed by the tests only.
"""

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.euclidtools import dup_inner_gcd

from covsig import AlgLoc, AlgReal, PiLoc
from covsig.exact import poly as P
from covsig.exact.elementary import pi_fixed
from covsig.jumps import (
    _atan_over_pi,
    _round_bits,
    _tan_half_pi_enclosure,
    theta_decimal,
    theta_over_pi_enclosure,
)


def _frac(v) -> Fraction:
    num, den = mpmath.libmp.to_rational(v._mpf_)
    return Fraction(int(num), int(den))


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


precs = st.integers(min_value=64, max_value=4096)
big = 1 << 300


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=-big, max_value=big), st.integers(min_value=1, max_value=big), precs)
@example(3, 1, 64)
@example(-1, 1, 64)
@example(-(1 << 300), 1, 4096)
@example(1, 1 << 300, 4096)
@example(0, 1, 64)
def test_atan_over_pi_encloses_mpmath_and_is_no_wider_than_the_float_pad(num, den, prec):
    x = Fraction(num, den)
    lo, hi = _atan_over_pi(x, prec)
    with mpmath.workprec(2 * prec + 64):
        v = _frac(mpmath.atan(_mp(x)) / mpmath.pi)
    assert lo <= v <= hi
    # the pad of the earlier floating-point enclosure was 2^-(prec - 16)
    assert hi - lo <= 2 * Fraction(1, 1 << (prec - 16))


@st.composite
def unit_fractions(draw):
    """0 < f < 1, near 0, near 1/2 and near 1 included, num/den up to 2^300."""
    den = draw(st.integers(min_value=2, max_value=big))
    num = draw(st.one_of(st.integers(min_value=1, max_value=den - 1),
                         st.integers(min_value=1, max_value=min(den - 1, 3)),
                         st.integers(min_value=max(1, den - 3), max_value=den - 1)))
    return Fraction(num, den)


@settings(max_examples=150, deadline=None)
@given(unit_fractions(), precs)
@example(Fraction(1, 2), 64)
@example(Fraction(1, 3), 64)
@example(Fraction(2, 3), 4096)
@example(Fraction(big - 1, big), 64)
@example(Fraction(1, big), 4096)
def test_tan_half_pi_encloses_mpmath_and_is_no_wider_than_the_float_pad(f, prec):
    lo, hi = _tan_half_pi_enclosure(f, prec)
    with mpmath.workprec(2 * prec + 64):
        # past 1/2 as the cotangent of the complement, which loses no bits to the pole
        if f <= Fraction(1, 2):
            v = _frac(mpmath.tan(_mp(f) * mpmath.pi / 2))
        else:
            v = _frac(mpmath.cot(_mp(1 - f) * mpmath.pi / 2))
    assert lo <= v <= hi
    # the pad of the earlier floating-point enclosure was (1 + tan^2) 2^-(prec - 16)
    assert hi - lo <= 2 * (1 + v * v) * Fraction(1, 1 << (prec - 16))


def test_pi_fixed_is_within_its_bound():
    for w in (1, 8, 64, 77, 1000, 5000):
        x, e = pi_fixed(w)
        with mpmath.workprec(w + 100):
            assert abs(Fraction(x, 1 << w) - _frac(+mpmath.pi)) <= Fraction(e, 1 << w)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=big), st.integers(min_value=1, max_value=big),
       st.integers(min_value=1, max_value=200))
@example((2 ** 75 + 2) * 2 + 1, 1, 76)  # a tie, to the even neighbour below
@example((2 ** 75 + 1) * 2 + 1, 1, 76)  # a tie, to the even neighbour above
def test_round_bits_rounds_as_mpmath_does(num, den, bits):
    m, e = _round_bits(num, den, bits)
    rn, rd = mpmath.libmp.to_rational(mpmath.libmp.from_rational(num, den, bits, "n"))
    assert Fraction(m) * Fraction(2) ** e == Fraction(int(rn), int(rd))


def _nstr(x: Fraction, digits=12) -> str:
    """The display that theta_decimal replaced, mpmath's, of x * pi."""
    with mpmath.mp.workdps(digits + 10):
        return mpmath.nstr(_mp(x) * mpmath.pi, digits, strip_zeros=False)


def _near(text: str) -> Fraction:
    """A rational within 2^-200 of theta/pi for theta the decimal text."""
    with mpmath.workprec(400):
        return Fraction(int(mpmath.mpf(text) / mpmath.pi * 2 ** 200), 2 ** 200)


# 12 digits are printed, rounded half up at the 13th
boundaries = [m + e for m in ("9.999999999995", "9.99999999999499999", "9.99999999999500001",
                              "1.23456789012349999", "3.14159265358979", "9.99999999999499")
              for e in ("e-7", "e-6", "e-5", "e-1", "e0", "e10", "e11", "e12")]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.fractions(max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(min_value=-big, max_value=big),
              st.integers(min_value=1, max_value=big)),
    st.builds(Fraction, st.integers(min_value=1, max_value=1000),
              st.integers(min_value=10 ** 5, max_value=10 ** 30)),
    st.sampled_from(boundaries).map(_near)))
@example(Fraction(0))
@example(Fraction(1, 3))
@example(Fraction(-1, 3))
@example(_near("9.999999999995e-6"))
@example(_near("0.9999999999995"))
def test_theta_decimal_prints_mpmath_nstr_bytes_at_pi_locations(frac):
    assert theta_decimal(PiLoc(frac)) == _nstr(frac)


def test_theta_decimal_rounds_up_through_nines_and_switches_to_exponents():
    assert theta_decimal(PiLoc(_near("9.9999999999951"))) == "10.0000000000"
    assert theta_decimal(PiLoc(_near("0.99999999999951"))) == "1.00000000000"
    assert theta_decimal(PiLoc(_near("9.9999999999951e-6"))) == "1.00000000000e-5"
    assert theta_decimal(PiLoc(_near("9.9999999999949e-6"))) == "9.99999999999e-6"
    assert theta_decimal(PiLoc(_near("1.5e-5"))) == "1.50000000000e-5"
    assert theta_decimal(PiLoc(_near("1.5e-4"))) == "0.000150000000000"
    assert theta_decimal(PiLoc(_near("1.5e12"))) == "1.50000000000e+12"
    assert theta_decimal(PiLoc(_near("1.5e11"))) == "150000000000."  # as mpmath prints it


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6),
       st.fractions(min_value=-4, max_value=4, max_denominator=7),
       st.fractions(min_value=Fraction(1, 10 ** 13), max_value=10 ** 4, max_denominator=10 ** 13))
def test_theta_decimal_prints_mpmath_nstr_bytes_at_algebraic_locations(a, b, offset, scale):
    # t = sqrt(a/b), whose x^2 - a/b is square-free over Q unless a/b is a square
    t = AlgReal([-Fraction(a, b), 0, 1], Fraction(0), Fraction(a + 1))
    loc = AlgLoc(t, offset, scale)
    lo, hi = theta_over_pi_enclosure(loc, 128)
    assert theta_decimal(loc) == _nstr((lo + hi) / 2)


def _signed(h, cff):
    """(h, cff) times the sign that makes h's leading coefficient positive."""
    return ([-c for c in h], [-c for c in cff]) if h and h[-1] < 0 else (h, cff)


def _sympy_gcd(p, q):
    """sympy's (gcd, p / gcd) over ZZ, signed by _signed."""
    h, cff, _ = dup_inner_gcd([ZZ(c) for c in reversed(p)], [ZZ(c) for c in reversed(q)], ZZ)
    return _signed([int(c) for c in reversed(h)], [int(c) for c in reversed(cff)])


def _poly(max_degree, bound):
    return st.lists(st.integers(min_value=-bound, max_value=bound), max_size=max_degree + 1)


@st.composite
def gcd_pairs(draw):
    """Two int polys with a planted common factor, repeated in p, and contents."""
    g = draw(_poly(4, 50))
    p = P.mul(draw(_poly(5, 10 ** 6)), g)
    q = P.mul(draw(_poly(5, 100)), g)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        p = P.mul(p, g)
    cp, cq = draw(st.sampled_from([1, 2, -3, 12])), draw(st.sampled_from([1, -2, 9, 6]))
    return P.trim([cp * c for c in p]), P.trim([cq * c for c in q])


gcd_examples = [([], []), ([3, 6], []), ([], [-4, 2]), ([0, 0, -5], [10]), ([-6, 0, 6], [6, -6]),
                ([1, 2, 1], [1, 2, 1]), ([-2], [4]), ([2, -3, 1], [-2, 3, -1]),
                # pairs on which the first point of sympy's schedule misses the gcd
                # (there a cofactor's read-back gave it); at powers of two the first point answers
                ([18, -73, 65, -24], [-18, 55, 8, -41, 24]),
                ([19, 0, -35, 34, -18], [19, 19, -16, -1, -19, 16, -18]),
                # the read-back at 2^8 has a spurious factor: the second power of two, 2^16, answers
                ([18568352, -1092256, 26760272], [-1092256, 53520544])]


def _with_gcd_examples(test):
    for pq in gcd_examples:
        test = example(pq)(test)
    return test


def _check_gcd(p, q):
    """_inner_gcd against sympy on nonzero p and q, and gcd, which takes zero arguments too."""
    if p and q:
        assert _signed(*P._inner_gcd(p, q)) == _sympy_gcd(p, q)
    assert P.gcd(p, q) == P.int_form(_sympy_gcd(p, q)[0])


@settings(max_examples=300, deadline=None)
@given(gcd_pairs(), gcd_pairs())
def test_heuristic_gcd_and_cofactor_match_sympy_on_unrelated_pairs(pq, rs):
    _check_gcd(pq[0], rs[0])


@settings(max_examples=300, deadline=None)
@given(gcd_pairs())
@_with_gcd_examples
def test_heuristic_gcd_and_cofactor_match_sympy(pq):
    p, q = pq
    _check_gcd(p, q)
    _check_gcd(p, P.derivative(p))


def test_heuristic_gcd_takes_a_second_power_of_two(monkeypatch):
    # the last of gcd_examples: one point falls back, two do not
    p = [18568352, -1092256, 26760272]
    q = P.derivative(p)
    before = P.heu_fallbacks
    monkeypatch.setattr(P, "_HEU_TRIES", 1)
    assert _signed(*P._inner_gcd(p, q)) == _sympy_gcd(p, q)
    assert P.heu_fallbacks == before + 1
    monkeypatch.setattr(P, "_HEU_TRIES", 2)
    assert _signed(*P._inner_gcd(p, q)) == _sympy_gcd(p, q)
    assert P.heu_fallbacks == before + 1


@settings(max_examples=150, deadline=None)
@given(gcd_pairs())
@_with_gcd_examples
def test_gcd_fallback_matches_sympy(pq):
    p, q = pq
    tries, before = P._HEU_TRIES, P.heu_fallbacks
    P._HEU_TRIES = 0  # every evaluation point fails: the remainder sequence answers
    try:
        _check_gcd(p, q)
    finally:
        P._HEU_TRIES = tries
    # both gcds fall back, unless an argument is zero or constant
    assert P.heu_fallbacks - before == 2 * (len(p) > 1 and len(q) > 1)
