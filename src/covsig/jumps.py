"""Signature jump functions of rational Seifert matrices.

The signature sigma(theta) of the hermitian pencil (wP - eps*P^T)/(w - 1) on
the unit circle is a step function; this module extracts its discontinuities
exactly.  Jump locations at roots of unity are stored as rational multiples
of pi; the rest are algebraic numbers in the Cayley variable t = tan(theta/2)
with isolating intervals.  The candidates are the unit-circle roots of
D(w) = det(wP - eps*P^T).  The signature is sampled once between each pair
of neighbouring candidates.  For a covering matrix both come from its core
(_fast.PencilCore), the strand chains eliminated by a Schur complement: D(w)
is a constant times the determinant of a polynomial matrix of size (number
of groups) x b, and the samples use Haynsworth's inertia additivity.  A
sample at t = 1 that a group with 4 | N cannot take moves to another
rational in the same gap.  A plain matrix is one group with N = 1, and
D = 0 takes the same route (PencilCore, When det S = 0).

Candidates and samples go by the core's connected blocks, D = c * prod D_b.
Each D_b is c_b * w^i * h(w^e), e the gcd of its exponent differences: 1
for a dense D_b, |s * y_k| on the L(T, m) covers, where h is Delta_V.  h
loses every cyclotomic factor, with multiplicity, and each order k found
lifts to the orders n of D_b's roots of unity with n / gcd(n, e) = k.
What is left of h, its rest, gives the algebraic candidates: the real
roots t_h of its square-free Cayley gcd g_h, isolated at the degree of h
once per distinct rest and each made on the cell algebraic.dyadic_cell
prints for it, and lifted to the e-th roots over each, the AlgLoc(t_h,
2j, e).  A lift's enclosure in t = tan(theta/2) is t_h's enclosure of
theta/pi mapped by x -> (x + 2j)/e and put through tan; these enclosures
are separated with the roots of unity's.  A block's signature can change
only at its own candidates or at a pole of its groups, so a sample takes
again only the blocks that own the candidate it has just passed or whose
poles lie between it and the previous sample (PencilCore, Blocks across
samples); a root of unity belongs to the blocks it is a root of, and an
algebraic candidate to the blocks whose rest has it.  Parts with the same
primitive h and e share every lift, with no gcd, and two lifts of one t_h
at different (j, e) never coincide; parts with different h or e share a
root only where a gcd of their h at powers of w says so
(_algebraic_candidates), and such a root is given once, by the first part
that has it.  A block whose determinant is 0 takes the self-reciprocal
part of a generic maximal minor (_fast.generic_minor_poly) as its part:
the hermitian Sch_b changes signature only at a pole or where its rank,
off the poles that of M'_b, drops, and there every maximal minor
vanishes (extra candidates get jump 0).  An algebraic point prints as
the lift it is: g_h, t_h's dyadic cell, and the lift's offset and scale;
its mirror is AlgLoc(-t_h, 2e - 2j, e).

All decisions (periodicity verdicts in particular) are made by exact
arithmetic or certificates, never by floating point; when a comparison of
two transcendental angles cannot be certified either way within the
precision budget, the answer is an explicit Unresolved.

A JumpFunction's points lie in (0, 2*pi*period), ascending.  The jump
algebra keeps that by construction (scale_jump mirrors and divides with no
comparison, sum_jumps merges), and jump_from_obj checks it where points
come from outside.  The verdict reads only what it needs: period_2pi_test
walks the points once and places each in its window (_floor_over) from the
sign of its t first, with no enclosure; it stops at the first window that
differs from window 0, and one certified mismatch stands even when a later
point could not be placed.
"""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd as int_gcd
from math import lcm, log

from . import _fast
from ._value import Value
from .covering import CoveringMatrix, CoveringSpec, build_covering, core_rows
from .errors import UnresolvedComparison, ZeroScale
from .exact import (
    AlgReal,
    Comparison,
    RatMatrix,
    alg_compare,
    dyadic_cell,
    hermitian_signature,  # no longer called here; perfbench/tracing.py wraps this name
    isolate_real_roots,
)
from .exact import poly as P
from .exact.elementary import atan_fixed, pi_fixed, sin_cos_fixed
from .readers import DEFAULT_PRECISION_BITS, frac_str, read_frac, read_int
from .seifert import SeifertData

# ---------------------------------------------------------------------------
# locations


class PiLoc(Value):
    """theta = frac * pi with frac an exact rational."""

    __slots__ = ("frac",)

    def __init__(self, frac: Fraction):
        self.frac = frac if type(frac) is Fraction else Fraction(frac)


class AlgLoc:
    """theta = (2*atan(t) + offset*pi) / scale with t algebraic, scale > 0.

    No AlgLoc is changed once built, and many may share one t: refining t
    moves neither the number it denotes nor its cell, so every location on
    it gains from the refinement.
    """

    __slots__ = ("t", "offset", "scale")

    def __init__(self, t: AlgReal, offset=0, scale=1):
        self.t = t
        self.offset = offset if type(offset) is Fraction else Fraction(offset)
        self.scale = scale if type(scale) is Fraction else Fraction(scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __repr__(self):
        return f"AlgLoc(t~{float(self.t):.6g}, offset={self.offset}, scale={self.scale})"


@functools.lru_cache(maxsize=1024)
def _atan_over_pi(x: Fraction, prec: int):
    """Enclosure [f - e, f + e] / 2^prec of atan(x)/pi, f and e ints.

    f = floor(A * 2^prec / Pi) for A and Pi, atan(x) and pi at prec bits,
    within a and p ulps (elementary.atan_fixed, pi_fixed).  As Pi > 3 * 2^prec
    and |atan(x)/pi| < 1/2, the quotient is within (a + p/2)/3 + 1 ulps, so
    the pad e = (a + p) // 3 + 2 holds.  With J series terms a = 3 J + 5,
    and J <= (prec + k + 1)/2 for k = isqrt(prec) // 2 halvings, so e stays
    below 2^16 ulps for prec < 2^17: a width under 2^-(prec - 17), which keeps
    theta_over_pi_enclosure narrower than 2^-(prec - 18) (_at_root_of_unity
    relies on that).  A pure function of (x, prec), cached: separation, the
    period test and the display ask for the ends of t_h at each of its lifts.
    """
    a, ea = atan_fixed(x.numerator, x.denominator, prec)
    pi, ep = pi_fixed(prec)
    f = (abs(a) << prec) // pi
    f = -f if a < 0 else f
    e = (ea + ep) // 3 + 2
    return Fraction(f - e, 1 << prec), Fraction(f + e, 1 << prec)


def _tan_half_pi_enclosure(frac: Fraction, prec: int):
    """Enclosure [T - e, T + e] / 2^w of tan(frac*pi/2) for 0 < frac < 1, T and e ints.

    With g = min(frac, 1 - frac) and a = pi*g/2 in (0, pi/4], S and C are
    sin(a) and cos(a) at w bits, each within c ulps (elementary.sin_cos_fixed),
    and tan is S/C, or C/S past frac = 1/2.  w = prec + 1 + (the bits by
    which g's denominator outgrows its numerator) keeps S above 2^prec.  For
    S/C, C > 2^w / 1.5 and S <= C + c give |S/C - s/c| * 2^w <= 3c, and the
    floor adds 1.  For C/S, |C/S - c/s| <= c (s + c) / (S s) with s >= S - c
    and s + c <= S + C + 2c, which the pad bounds in ints.  Either pad is at
    most (3c + 1)(1 + tan^2) ulps at w >= prec bits.
    """
    recip = frac > Fraction(1, 2)
    g = 1 - frac if recip else frac
    num, den = g.numerator, g.denominator
    w = prec + 1 + max(0, den.bit_length() - num.bit_length())
    s, c, e = sin_cos_fixed(num, den, w)
    if not recip:
        t, pad = (s << w) // c, 3 * e + 1
    else:
        t = (c << w) // s
        pad = -(-e * (s + c + 2 * e << w) // (s * (s - e))) + 1
    return Fraction(t - pad, 1 << w), Fraction(t + pad, 1 << w)


def theta_over_pi_enclosure(loc, prec: int):
    """Rational enclosure of theta/pi; exact (degenerate) for PiLoc."""
    if isinstance(loc, PiLoc):
        return loc.frac, loc.frac
    loc.t.refine_to(Fraction(1, 1 << prec))
    alo, _ = _atan_over_pi(loc.t.lo, prec)
    _, ahi = _atan_over_pi(loc.t.hi, prec)
    # (2*a + offset) / scale over one denominator, for a = alo and a = ahi
    o, s = loc.offset, loc.scale
    den = o.denominator * s.numerator
    return tuple(Fraction((2 * a.numerator * o.denominator + o.numerator * a.denominator)
                          * s.denominator, a.denominator * den) for a in (alo, ahi))


def _neg_inverse(a: AlgReal) -> AlgReal:
    """The algebraic number -1/a (a must be nonzero); a is refined in place."""
    if a.lo < 0 < a.hi and a.poly[0] == 0:
        raise ZeroDivisionError("-1/0")
    while not (a.lo > 0 or a.hi < 0):
        a.refine()
    # x^n p(-1/x): the coefficients reversed, those of odd index negated
    coeffs = [-c if j & 1 else c for j, c in enumerate(a.poly)][::-1]
    return AlgReal(coeffs, -1 / a.lo, -1 / a.hi, _checked=True)


def compare_locations(a, b, max_bits: int = DEFAULT_PRECISION_BITS) -> Comparison:
    """Order two jump locations by theta.

    PiLoc pairs compare exactly.  AlgLoc pairs with equal scale get equality
    certificates: identical t (gcd certificate), or the atan(x) + atan(1/x) =
    +/- pi/2 identity when their pi-offsets differ by one.  A PiLoc never
    equals an AlgLoc (the algebraic locations have no root-of-unity angles),
    so enclosure refinement always separates them.  Whatever cannot be
    certified or separated within max_bits comes back UNRESOLVED.
    """
    if isinstance(a, PiLoc) and isinstance(b, PiLoc):
        if a.frac == b.frac:
            return Comparison.EQ
        return Comparison.LT if a.frac < b.frac else Comparison.GT
    if isinstance(a, AlgLoc) and isinstance(b, AlgLoc) and a.scale == b.scale:
        k = a.offset - b.offset
        if k == 0:
            c = alg_compare(a.t, b.t, max_bits)
            if c != Comparison.UNRESOLVED:
                return c
        elif k in (1, -1):
            # theta_a = theta_b iff atan(ta) - atan(tb) = -k*pi/2,
            # i.e. ta = -1/tb with k = sign(tb)
            sgn = b.t.sign()
            if sgn != 0 and k == sgn:
                try:
                    ninv = _neg_inverse(b.t)
                except ZeroDivisionError:
                    ninv = None
                if ninv is not None and alg_compare(a.t, ninv, max_bits) == Comparison.EQ:
                    return Comparison.EQ
    prec = 64
    while True:
        alo, ahi = theta_over_pi_enclosure(a, prec)
        blo, bhi = theta_over_pi_enclosure(b, prec)
        if ahi < blo:
            return Comparison.LT
        if bhi < alo:
            return Comparison.GT
        if prec >= 4 * max_bits:
            return Comparison.UNRESOLVED
        prec *= 2


def _cmp_key(max_bits: int):
    last = [None, None, 0]  # heapq.merge's list entries ask == and then < of one pair: compare once

    def cmp(pa, pb):
        if pa is not last[0] or pb is not last[1]:
            c = compare_locations(pa.loc, pb.loc, max_bits)
            if c is Comparison.UNRESOLVED:
                raise UnresolvedComparison(pa.loc, pb.loc, max_bits)
            last[:] = pa, pb, c.value
        return last[2]

    return functools.cmp_to_key(cmp)


# ---------------------------------------------------------------------------
# jump data


class JumpPoint(Value):
    """A jump of value at loc, a PiLoc or an AlgLoc."""

    __slots__ = ("loc", "value")
    __hash__ = None

    def __init__(self, loc, value: int):
        self.loc, self.value = loc, value


class JumpFunction(Value):
    """Jumps over one fundamental period, points ascending in (0, 2*pi*period).

    sigma0 is the signature value on the first open interval after 0; it lets
    the step function itself be reconstructed, not just its jumps.  For
    eps = -1 sigma also jumps at theta = 0, and so at every multiple of
    2*pi*period, by 2*sigma0, and no point carries that jump: the values of
    one period sum to -2*sigma0 for eps = -1 and to 0 for eps = 1.
    """

    __slots__ = ("points", "period", "sigma0")
    __hash__ = None

    def __init__(self, points: list, period: Fraction = 1, sigma0: int = 0):
        self.points, self.period, self.sigma0 = points, Fraction(period), sigma0


class Verdict(Value):
    """status is "Periodic", "NonPeriodic" or "Unresolved"; witness is None
    or (loc, (window_i, window_j), (value_i, value_j))."""

    __slots__ = ("status", "witness")
    __hash__ = None

    def __init__(self, status: str, witness=None):
        self.status, self.witness = status, witness

# ---------------------------------------------------------------------------
# exact signature evaluation


def _sig_at(core: _fast.PencilCore, u: int, v: int):
    """Pencil signature at t = u/v, or None where a chain of the core is singular."""
    if u == 0:
        raise ValueError("t = 0 corresponds to w = 1, excluded from the pencil")
    powers = core.powers(u, v)
    if powers is None:
        return None
    sample = [(u, v, powers)]
    return (sum(_fast.herm_sig_fast(*core.at(b, sample), 1)[0] for b in range(len(core.blocks)))
            + core.chain_signature(powers))


def tl_signature(Pm: RatMatrix, epsilon: int, t) -> int:
    """Signature of the pencil at w = (1+it)/(1-it), exact for rational t.

    For epsilon = -1 the (skew-hermitian) pencil is multiplied by i first.
    Degenerate pencils are fine: the zero eigenvalues simply contribute 0.
    """
    t = Fraction(t)
    return _sig_at(_fast.PencilCore(Pm.int_rows()[1], epsilon), t.numerator, t.denominator)


def tl_signature_at_pi(Pm: RatMatrix, epsilon: int) -> int:
    """Signature of the pencil at w = -1 (theta = pi)."""
    return _sig_at(_fast.PencilCore(Pm.int_rows()[1], epsilon), 1, 0)


# ---------------------------------------------------------------------------
# jump extraction


def _self_reciprocal_part(D):
    """gcd(D(w), w^deg * D(1/w)), up to a constant: carries every unimodular root of D.

    A pencil determinant with its factor w^i trimmed is palindromic up to
    sign, w^n D(1/w) = (-eps)^n D(w), so the gcd is D itself; only a
    generic minor (_fast.generic_minor_poly) needs the gcd.
    """
    rev = list(reversed(D))
    if rev == D or rev == [-a for a in D]:
        return D
    return P.gcd(D, rev)


def _cyclotomic_parts(f):
    """(ns, rest) of a nonzero integer polynomial f: the n with Phi_n | f, and the cofactor.

    The factor w^i of f is dropped, then every Phi_n that divides it is
    divided out with its multiplicity, so rest has no root 0 and no root of
    unity.  Phi_n is monic with integer coefficients, so the trial divisions
    run in Python ints.  They try every n <= 6 * deg f + 30, which holds
    every n with phi(n) <= deg f: n/phi(n) < 6 below n = 2*3*5*...*23.
    """
    f = P.trim(f)
    i = 0
    while f[i] == 0:
        i += 1  # w = 0 is never on the unit circle
    f = f[i:]
    ns = []
    bound = 6 * (len(f) - 1) + 30
    n = 1
    while len(f) >= 2 and n <= bound:
        if P.totient(n) < len(f):
            cyc = P.cyclotomic(n)
            quot = P.exact_quo(f, cyc)
            if quot is not None:
                ns.append(n)
            while quot is not None:
                f, quot = quot, P.exact_quo(quot, cyc)
        n += 1
    return ns, f


def _cayley_numerator(S):
    """Real and imaginary parts of N(t) = sum_j S_j (1+it)^j (1-it)^(deg-j), in ints.

    S, an int or rational list, is replaced by its primitive integer form
    Sz of degree d, which only scales N by a nonzero rational; the roots,
    and so the gcd of the two parts, are the same.  With x = -it,
    1 + it = 1 - x and 1 - it = 1 + x, so N is the Cayley map
    poly.cayley(Sz, d) = sum_k c_k x^k, in O(d^2) integer additions.  Then
    N = sum_k c_k (-i)^k t^k: k = 0, 2 mod 4 go to the real part with signs
    +, -, and k = 1, 3 mod 4 to the imaginary part with signs -, +.
    """
    Sz = P.int_form(S)
    c = P.cayley(Sz, len(Sz) - 1)
    sign = (1, -1, -1, 1)  # (-i)^k = 1, -i, -1, i
    re = [0 if k % 2 else sign[k % 4] * x for k, x in enumerate(c)]
    im = [sign[k % 4] * x if k % 2 else 0 for k, x in enumerate(c)]
    return P.trim(re), P.trim(im)


def _split_part(f, split: dict):
    """(ns, rest, e) of a nonzero int list f, read as c * w^i * h(w^e) with h(0) != 0.

    e is the gcd of the differences between the exponents of f's terms (1
    for a dense f).  rest is what _cyclotomic_parts leaves of h, at the
    degree of h, and ns the orders n of the roots of unity among f's roots,
    ascending: those of Phi_k(w^e) for each k it finds.  A primitive n-th
    root of unity has an e-th power of order n / gcd(n, e), so Phi_k(w^e)
    is the product of the Phi_n with n / gcd(n, e) = k, that is n = k*d for
    the d | e with gcd(k, e/d) = 1.  f's own rest is rest(w^e), whose
    unit-circle roots are the e-th roots of rest's (_algebraic_candidates).
    A monomial f has no roots on the circle: ([], [c], 1).  split maps each
    h already split, as a tuple, to its (ks, rest): every L(T, m) block has
    the same h, Delta_V, which is split once per job.  f ends in a nonzero
    coefficient, as _fast.minor_poly's polynomials do.
    """
    i = next(k for k, c in enumerate(f) if c)
    e = 0
    for k in range(i + 1, len(f)):
        if f[k]:
            e = int_gcd(e, k - i)
    if not e:
        return [], [f[i]], 1
    h = tuple(f[i::e])
    if h not in split:
        split[h] = _cyclotomic_parts(list(h))
    ks, rest = split[h]
    ds = [d for d in range(1, e + 1) if e % d == 0]
    return sorted({k * d for k in ks for d in ds if int_gcd(k, e // d) == 1}), rest, e


def _algebraic_candidates(rests, max_bits: int = DEFAULT_PRECISION_BITS):
    """The candidates 0 < theta < pi of the parts' rests, each root once, with the blocks that own it.

    rests is [(h, e, owners)]: part i's rest is r_i(w) = h(w^e), h an
    integer polynomial with no root of unity, and owners the blocks it
    belongs to.  The unit-circle roots of h are the w_h = (1 + i*t_h) /
    (1 - i*t_h) for the real roots t_h of g_h, the square-free gcd of the
    two parts of h's Cayley numerator; they are isolated once per distinct h
    (isolate_real_roots), at the degree of h, and each is made on the cell
    that algebraic.dyadic_cell prints for it.  The roots of r_i over w_h are
    its e-th roots, at theta = (2*atan(t_h) + 2*pi*j) / e, the lifts
    AlgLoc(t_h, 2j, e); on the upper half circle j runs over 0 .. (e - 1)//2
    for t_h > 0 and over 1 .. e//2 for t_h < 0.  Two lifts of one t_h at
    different (j, e) never coincide: equal theta would make 2*atan(t_h) a
    rational multiple of pi, and so w_h a root of unity.

    Parts with the same primitive h and the same e have the same lifts,
    given once and owned by the blocks of all of them, with no gcd.  Parts
    a and b with different keys share a root only if c = gcd(h_a(z^(e_a/g)),
    h_b(z^(e_b/g))) is nonconstant, g = gcd(e_a, e_b), because gcd(f(w^g),
    k(w^g)) = gcd(f, k)(w^g).  Only then is gamma, the Cayley gcd of the
    square-free part of c at w^g, taken; its positive roots are the lifts
    the two parts share, and a lift is one of them exactly when gamma
    changes sign across its enclosure, with the part's lifts separated.
    The later part drops those lifts, and the earlier part's gain the later
    part's blocks.  So each root is given once, by the first part that has
    it, and owned by the blocks of every part that has it.
    Returns [(loc, owners)].
    """
    keyed = {}  # (h's primitive integer form, e) -> the blocks of its parts
    for h, e, owners in rests:
        keyed.setdefault((tuple(P.int_form(h)), e), set()).update(owners)
    isolated, given = {}, []  # h -> its roots t_h; per key, (h, e, {lift: owners or None when dropped})
    for (h, e), owners in keyed.items():
        if h not in isolated:
            g = P.gcd(*_cayley_numerator(h))
            isolated[h] = [_on_dyadic_cell(t) for t in isolate_real_roots(g)] if P.degree(g) >= 1 else []
        lifts = {AlgLoc(t, 2 * j, e): set(owners) for t in isolated[h]
                 for j in (range((e + 1) // 2) if t.sign() > 0 else range(1, e // 2 + 1))}
        if not lifts:
            continue
        for ha, ea, a_lifts in given:
            k = int_gcd(e, ea)
            c = P.gcd(P.at_power(ha, ea // k), P.at_power(h, e // k))
            if P.degree(c) < 1:
                continue
            gamma = P.gcd(*_cayley_numerator(P.at_power(P.square_free_part(c), k)))
            if P.degree(gamma) < 1:
                continue
            for x in _roots_of(gamma, list(a_lifts), max_bits):
                if a_lifts[x] is not None:
                    a_lifts[x] |= owners
            for x in _roots_of(gamma, list(lifts), max_bits):
                lifts[x] = None
        given.append((h, e, lifts))
    return [(x, owners) for _, _, lifts in given for x, owners in lifts.items() if owners is not None]


def _on_dyadic_cell(t: AlgReal) -> AlgReal:
    """t made on the cell that algebraic.dyadic_cell prints for it."""
    poly, lo, hi = dyadic_cell(t)
    if poly is t.poly:
        return t.with_interval(lo, hi, check=False)
    return AlgReal(poly, lo, hi, _checked=True)  # x - r for a root r on the grid


def _roots_of(c, locs, max_bits: int):
    """The locs that are roots of the square-free c, whose positive roots are all among them.

    With the locs separated, c changes sign across an enclosure exactly
    when the one loc inside it is a root.
    """
    locs, encl = _separate_candidates(locs, max_bits)
    return [x for x, (lo, hi) in zip(locs, encl) if P.sign_at(c, lo) != P.sign_at(c, hi)]


def _pi_candidates_upper(ns):
    """Upper-half-circle root-of-unity angles theta/pi from cyclotomic indices."""
    fracs = []
    for n in ns:
        if n <= 2:
            continue  # w = 1 is excluded and jump_function handles w = -1
        for k in range(1, (n + 1) // 2):
            if int_gcd(k, n) == 1:
                fracs.append(Fraction(2 * k, n))
    return fracs


def _t_enclosure(loc, prec: int):
    """(lo, hi) with lo < t < hi for the t = tan(theta/2) of a candidate, at prec bits.

    A PiLoc's is _tan_half_pi_enclosure; an AlgLoc's, a lift AlgLoc(t_h, 2j,
    e) among them, puts the ends of theta_over_pi_enclosure through the
    same, tan being increasing on (0, pi/2).  lo <= 0 when the enclosure of
    theta reaches 0, and hi is None when it reaches pi.
    """
    if isinstance(loc, PiLoc):
        return _tan_half_pi_enclosure(loc.frac, prec)
    flo, fhi = theta_over_pi_enclosure(loc, prec)
    lo = _tan_half_pi_enclosure(flo, prec)[0] if flo > 0 else flo
    return lo, _tan_half_pi_enclosure(fhi, prec)[1] if fhi < 1 else None


def _separate_candidates(items, max_bits: int = DEFAULT_PRECISION_BITS):
    """Sort candidates on the positive t-axis with disjoint rational enclosures.

    items: list of PiLoc and AlgLoc, each with 0 < theta < pi.  Returns the
    sorted list together with the enclosures [(lo, hi)] of _t_enclosure,
    with 0 < lo, hi < next lo.  Doubles the precision from 64 up to
    4*max_bits; if two enclosures still overlap (or one still reaches
    theta = 0 or pi), raises UnresolvedComparison for that pair.
    """
    prec = 64
    while True:
        encl = []
        clash = None
        for loc in items:
            lo, hi = _t_enclosure(loc, prec)
            if lo <= 0 or hi is None:
                clash = (loc, PiLoc(Fraction(0 if lo <= 0 else 1)))
                break
            encl.append((lo, hi))
        if clash is None:
            order = sorted(range(len(items)), key=lambda i: encl[i][0])
            for a, b in zip(order, order[1:]):
                if encl[a][1] >= encl[b][0]:
                    clash = (items[a], items[b])
                    break
        if clash is None:
            return [items[i] for i in order], [encl[i] for i in order]
        if prec >= 4 * max_bits:
            raise UnresolvedComparison(*clash, max_bits)
        prec *= 2


def _simplest_between(an: int, ad: int, bn: int, bd: int):
    """The rational with smallest denominator strictly inside (an/ad, bn/bd), as (num, den).

    ad, bd > 0.  Keeping sample points simple keeps the integer pencil
    entries small, which is what makes the Bareiss signature evaluations
    fast.  With f = floor(a): f + 1 if it lies below b; a + 1/k for the
    least valid k if a is an integer; otherwise f + 1/x for x the simplest
    rational in (1/(b - f), 1/(a - f)), whose continued fraction this
    collects, in integers.
    """
    if an * bd >= bn * ad:
        raise ValueError("empty interval")
    terms = []
    while True:
        f = an // ad
        if (f + 1) * bd < bn:
            num, den = f + 1, 1
            break
        if an == f * ad:
            k = bd // (bn - f * bd) + 1
            num, den = f * k + 1, k
            break
        terms.append(f)
        an, ad, bn, bd = bd, bn - f * bd, ad, an - f * ad
    for f in reversed(terms):
        num, den = f * num + den, num
    return num, den


def _sample_point(core, lo: Fraction, hi):
    """The sample t = u/v of the gap (lo, hi) between candidates (hi None: no bound), and core.powers(u, v).

    The sample is the simplest rational in the gap (the integer above lo
    when hi is None), as (u, v).  If a chain of the core is singular there,
    which is only t = 1 with 4 | N, it moves to the simplest rational in
    (lo, 1): sigma is constant on the gap, so neither the candidates nor the
    printed intervals change.
    """
    if hi is None:
        u, v = lo.__floor__() + 1, 1
    else:
        u, v = _simplest_between(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    powers = core.powers(u, v)
    if powers is None:
        u, v = _simplest_between(lo.numerator, lo.denominator, u, v)
        powers = core.powers(u, v)
    return u, v, powers


def _gap_signatures(core, gaps, owners):
    """The pencil signature on each gap, each block of the core evaluated once at all of its samples.

    owners[i] is the set of blocks that own candidate i, the one between
    gaps i and i + 1: those whose determinant may vanish there.  A first
    pass takes every gap's sample with its powers and, per block, the gaps
    where it is sampled: the first gap, and gap i when the block owns
    candidate i - 1 or a pole of one of its groups lies between the two
    samples; elsewhere its signature carries over (PencilCore, Blocks across
    samples).  Then each block goes to herm_sig_fast once, as one batch of
    its samples, and its signatures are summed per gap with the chain term,
    which is taken at every sample from its own powers.
    """
    samples, chain = [], []
    at = [[] for _ in core.blocks]  # per block, the gaps where it is sampled
    last = None
    for i, (lo, hi) in enumerate(gaps):
        u, v, powers = _sample_point(core, lo, hi)
        poles = core.poles(powers)
        for b, where in enumerate(at):
            if last is None or b in owners[i - 1] or poles[b] != last[b]:
                where.append(i)
        last = poles
        samples.append((u, v, powers))
        chain.append(core.chain_signature(powers))
    # per gap, the change in the blocks' signatures from the gap before
    steps = [0] * len(gaps)
    for b, where in enumerate(at):
        sigs = _fast.herm_sig_fast(*core.at(b, [samples[i] for i in where]), len(where))
        for i, before, after in zip(where, [0] + sigs, sigs):
            steps[i] += after - before
    return [sig + c for sig, c in zip(accumulate(steps), chain)]


def jump_function(Pm, epsilon: int = 1, max_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """All jumps of the pencil signature over theta in (0, 2*pi).

    Pm is a square RatMatrix or a CoveringMatrix.  The candidates and the
    signature samples come from its core (see _fast.PencilCore), with each
    group's strand chain eliminated, also where D(w) = det(w*P - eps*P^T)
    is 0: each block's candidates are the roots of its determinant, or of
    a generic minor of it where that is 0 (_fast.generic_minor_poly).
    Root-of-unity jump angles (cyclotomic factors of D) come out as PiLoc;
    the remaining unimodular roots as AlgLoc in t = tan(theta/2).
    Signatures are evaluated at exact rational t strictly between
    consecutive candidates, only on the upper half circle.
    The lower half is the mirror image: the pencil at conj(w) is the
    transpose of the pencil at w for eps = 1, and minus it for eps = -1 (i
    times a skew-hermitian pencil), so sigma is even for eps = 1 and odd for
    eps = -1.  A mirrored jump therefore negates for eps = 1 and keeps its
    value for eps = -1, and an odd sigma also jumps at theta = pi, by
    -2*sigma(pi-).
    Raises UnresolvedComparison when two candidates stay unseparated at
    4*max_bits bits.
    """
    if isinstance(Pm, CoveringMatrix):
        rows, mults = core_rows(Pm, epsilon)
    elif Pm.is_square:
        rows, mults = Pm.int_rows()[1], (1,)
    else:
        raise ValueError("jump_function needs a square matrix")
    if not rows:
        return JumpFunction([], Fraction(1), 0)
    core = _fast.PencilCore(rows, epsilon, mults)
    factors = []
    _fast.pencil_det_poly(core, factors)
    # each block's part is its determinant, or a generic minor where that is
    # 0; a block of rank 0 has none
    parts = [(g, {b}) for b, f in enumerate(factors)
             if (g := f or _self_reciprocal_part(_fast.generic_minor_poly(core, b)))]

    # each candidate with the blocks that own it: per part, its roots of
    # unity, and the rest h with its e, which give the algebraic candidates
    owned, rests, split = {}, [], {}
    for f, owners in parts:
        ns, r, e = _split_part(f, split)
        for frac in _pi_candidates_upper(ns):
            owned.setdefault(PiLoc(frac), set()).update(owners)
        if len(r) >= 2:
            rests.append((r, e, owners))
    owned.update(_algebraic_candidates(rests, max_bits))
    items = list(owned)

    if items:
        items, encl = _separate_candidates(items, max_bits)
        gaps = [(Fraction(0), encl[0][0])]
        gaps += [(hi1, lo2) for (_, hi1), (lo2, _) in zip(encl, encl[1:])]
        gaps.append((encl[-1][1], None))
    else:
        gaps = [(Fraction(0), None)]
    sigs = _gap_signatures(core, gaps, [owned[loc] for loc in items])

    # an algebraic point prints as the lift it is, t_h on its dyadic cell
    upper = [JumpPoint(loc, sigs[i + 1] - sigs[i]) for i, loc in enumerate(items)
             if sigs[i + 1] != sigs[i]]
    at_pi = [JumpPoint(PiLoc(Fraction(1)), -2 * sigs[-1])] if epsilon == -1 and sigs[-1] else []
    negs = {}  # t_h -> -t_h, which the mirrors of its lifts share
    lower = [JumpPoint(_mirror_loc(pt.loc, 1, negs), -epsilon * pt.value) for pt in reversed(upper)]
    return JumpFunction(upper + at_pi + lower, Fraction(1), sigs[0])


# ---------------------------------------------------------------------------
# jump algebra


def _mirror_loc(loc, period, negs: dict):
    """The location of 2*pi*period - theta, on negs[t] = -t for an AlgLoc (made once per t)."""
    if isinstance(loc, PiLoc):
        return PiLoc(2 * period - loc.frac)
    if loc.t not in negs:
        negs[loc.t] = loc.t.neg()
    # 2*pi*P - (2*atan(t) + o*pi) / e = (2*atan(-t) + (2*P*e - o)*pi) / e
    return AlgLoc(negs[loc.t], 2 * period * loc.scale - loc.offset, loc.scale)


def _translate_point(pt: JumpPoint, dfrac: Fraction) -> JumpPoint:
    """New point at theta + dfrac*pi, on the same t."""
    loc = pt.loc
    if isinstance(loc, PiLoc):
        return JumpPoint(PiLoc(loc.frac + dfrac), pt.value)
    return JumpPoint(AlgLoc(loc.t, loc.offset + dfrac * loc.scale, loc.scale), pt.value)


def _floor_over(loc, step: Fraction, max_bits: int) -> int:
    """floor((theta/pi) / step) for theta/pi not a multiple of step.

    An AlgLoc is first placed by the sign of t alone.  t lies strictly
    inside (t.lo, t.hi), so for t.lo >= 0, 2*atan(t)/pi is in (0, 1) and
    theta/pi in (offset/scale, (offset + 1)/scale); for t.hi <= 0 it is in
    (-1, 0) and theta/pi in ((offset - 1)/scale, offset/scale).  When that
    open interval lies in one [j*step, (j + 1)*step), j is the answer, found
    in ints over one denominator with no enclosure of atan.  Otherwise the
    enclosure is refined up to 4*max_bits, as in compare_locations; if it
    still straddles a multiple of step, raises UnresolvedComparison against
    that multiple.
    """
    if isinstance(loc, PiLoc):
        return int(loc.frac // step)
    t, o, s = loc.t, loc.offset, loc.scale
    if t.lo >= 0 or t.hi <= 0:
        # theta/pi / step lies in (u, u + 1) / (scale * step) with
        # u = offset - (1 if t < 0 else 0) = un / o.den: the two ends are
        # un * q / den and (un + o.den) * q / den
        un = o.numerator - (o.denominator if t.lo < 0 else 0)
        q = s.denominator * step.denominator
        den = o.denominator * s.numerator * step.numerator
        j = un * q // den
        if (un + o.denominator) * q <= (j + 1) * den:
            return j
    prec = 64
    while True:
        lo, hi = theta_over_pi_enclosure(loc, prec)
        jlo, jhi = int(lo // step), int(hi // step)
        if jlo == jhi:
            return jlo
        if prec >= 4 * max_bits:
            raise UnresolvedComparison(loc, PiLoc(jhi * step), max_bits)
        prec *= 2


def scale_jump(f: JumpFunction, y) -> JumpFunction:
    """The jump function of theta -> f(y*theta), with no comparison.

    A negative y first mirrors f, f(-theta) = f(2*pi*period - theta): its
    points reversed and mirrored (_mirror_loc), their values negated, and
    sigma0 f's value before 2*pi*period, sigma0 plus the values' sum
    (-sigma0 at eps = -1).  Then theta and the period divide by |y|.
    """
    y = Fraction(y)
    if y == 0:
        raise ZeroScale("scale factor must be nonzero")
    pts, sigma0, negs = f.points, f.sigma0, {}
    if y < 0:
        pts = [JumpPoint(_mirror_loc(pt.loc, f.period, negs), -pt.value) for pt in reversed(pts)]
        sigma0 += sum(pt.value for pt in f.points)
        y = -y
    return JumpFunction([JumpPoint(PiLoc(pt.loc.frac / y), pt.value) if isinstance(pt.loc, PiLoc)
                         else JumpPoint(AlgLoc(pt.loc.t, pt.loc.offset, pt.loc.scale * y), pt.value)
                         for pt in pts], f.period / y, sigma0)


def repeated_points(f: JumpFunction, reps: int):
    """The points of f over reps consecutive periods from 0, yielded in order."""
    if not f.points:  # reps periods of nothing, without a walk over them
        return
    for r in range(reps):
        shift = 2 * f.period * r
        for pt in f.points:
            yield _translate_point(pt, shift)


def with_period(f: JumpFunction, period) -> JumpFunction:
    """Re-express f over a larger fundamental period (an integer multiple).

    The eps = -1 jumps at interior multiples of 2*pi*f.period stay implicit:
    as points they broke ltm_y_oracle's sum at each (m, d) tried but (-2, 2).
    So an eps = -1 result is no period_2pi_test input (no command makes one).
    """
    period = Fraction(period)
    reps = period / f.period
    if reps.denominator != 1 or reps <= 0:
        raise ValueError("new period must be a positive integer multiple")
    return JumpFunction(list(repeated_points(f, int(reps))), period, f.sigma0)


def sum_jumps(fs, max_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """Pointwise sum: replicate to the common period, merge equal locations.

    Ascending inputs merge (heapq.merge), comparing no two points of one
    input; a sum sits at the first of its equal locations.  Raises
    UnresolvedComparison when two locations can be neither separated nor
    certified equal within max_bits.
    """
    fs = list(fs)
    if not fs:
        return JumpFunction([], Fraction(1), 0)
    period = Fraction(lcm(*[f.period.numerator for f in fs]),
                      int_gcd(*[f.period.denominator for f in fs]))
    key = _cmp_key(max_bits)
    runs = [[(i, pt) for pt in with_period(f, period).points] for i, f in enumerate(fs)]
    merged, inputs = [], set()  # the inputs whose points make merged[-1]
    for i, pt in heapq.merge(*runs, key=lambda run_pt: key(run_pt[1])):
        if (i not in inputs and merged
                and compare_locations(merged[-1].loc, pt.loc, max_bits) is Comparison.EQ):
            merged[-1] = JumpPoint(merged[-1].loc, merged[-1].value + pt.value)
            inputs.add(i)
        else:
            merged.append(JumpPoint(pt.loc, pt.value))
            inputs = {i}
    merged = [pt for pt in merged if pt.value != 0]
    return JumpFunction(merged, period, sum(f.sigma0 for f in fs))


def period_2pi_test(f: JumpFunction, max_bits: int = DEFAULT_PRECISION_BITS) -> Verdict:
    """Is f, defined over [0, 2*pi*s), actually 2*pi-periodic?

    The fundamental period splits into s windows of width 2*pi, and each
    window's jumps, translated back by 2*pi*j, are compared with window 0's.
    The test walks f's points once in their ascending order and places each
    point in its window only when the walk reaches it: window j is the run
    of points after window j - 1, and as soon as it is complete it is
    merged with window 0, so the test returns at the first window that
    differs, having placed only the points up to there.  Location
    comparisons use certificates; an uncertifiable coincidence yields an
    Unresolved verdict rather than a guess, and so does a point that cannot
    be placed, when the walk reaches it: a certified mismatch in an earlier
    window wins over it.  The last point is placed first, so a point at or
    past 2*pi*s raises ValueError whatever the verdict; so does a point the
    walk finds in an earlier window than the point before it, as f's points
    must be ascending.

    f also jumps at theta = 0, by minus its values' sum, which no point
    carries.  Once every window has matched window 0 none has a point at
    its start, so the last rule makes a nonzero sum NonPeriodic at theta =
    0.  Every other jump must be a point: with_period's eps = -1 output,
    whose interior jumps stay implicit, is no input here.
    """
    if f.period.denominator != 1:
        raise ValueError("period must be an integer multiple of 2*pi")
    s = f.period.numerator
    if s <= 1:
        return Verdict("Periodic")

    def place(pt):
        """pt's window, or the Unresolved verdict when pt cannot be placed."""
        try:
            j = _floor_over(pt.loc, Fraction(2), max_bits)
        except UnresolvedComparison as e:
            # theta may sit on the boundary 2*pi*j between windows j-1 and j
            j = int(e.loc_b.frac / 2)
            return Verdict("Unresolved", (pt.loc, ((j - 1) % s, j % s), None))
        if not 0 <= j < s:
            raise ValueError("jump location outside the fundamental period")
        return j

    pts, n = f.points, len(f.points)
    last = place(pts[-1]) if pts else None
    i, k = 0, None  # k: the window of pts[i], once placed
    for j in range(s):
        window = []
        while i < n:
            if k is None:
                k = last if i == n - 1 else place(pts[i])
                if isinstance(k, Verdict):
                    return k
            if k > j:
                break
            if k < j:
                raise ValueError("jump points not in ascending theta")
            window.append(_translate_point(pts[i], Fraction(-2 * j)))
            i, k = i + 1, None
        if j == 0:
            base = window
            continue
        for a, b in zip_longest(base, window):
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
    if total := sum(pt.value for pt in pts):
        return Verdict("NonPeriodic", (PiLoc(Fraction(0)), (0, 1), (-total, None)))
    return Verdict("Periodic")


def covering_jump(sd: SeifertData, coeffs: dict, spec: CoveringSpec,
                  max_bits: int = DEFAULT_PRECISION_BITS):
    """Full pipeline: covering matrix, its jumps at theta/s, and the verdict."""
    cm = build_covering(sd, coeffs, spec)
    f = jump_function(cm, sd.epsilon, max_bits)
    g = scale_jump(f, Fraction(1, cm.s))
    return g, period_2pi_test(g, max_bits)


# ---------------------------------------------------------------------------
# serialization


def point_to_obj(pt: JumpPoint) -> dict:
    """One point of a jump document.

    An algebraic point prints its t's cell (AlgReal.cell) with its offset
    and scale.  jump_function's points are lifts AlgLoc(t_h, 2j, e), and
    every translation, scaling and mirror of one changes only its offset
    and scale (t_h to -t_h for a mirror), so the cell is g_h, the
    square-free Cayley gcd of its block's rest h, with the dyadic cell
    [k/2^P, (k+1)/2^P] of t_h (algebraic.dyadic_cell), and the bytes do
    not depend on how far t was refined.  The cell's poly is in
    primitive integer form and is printed monic: this is the one place that
    divides it by its leading coefficient.
    """
    if isinstance(pt.loc, PiLoc):
        return {"pi_rational": frac_str(pt.loc.frac), "scale": "1", "value": pt.value}
    loc = pt.loc
    poly, lo, hi = loc.t.cell
    obj = {
        "algebraic_t": {
            "poly": list(_monic_strs(tuple(poly))),
            "interval": [frac_str(lo), frac_str(hi)],
        },
        "half": 0 if loc.offset == 0 else 1,
        "scale": frac_str(loc.scale),
        "value": pt.value,
    }
    if loc.offset not in (0, 2):
        obj["offset"] = frac_str(loc.offset)
    return obj


@functools.lru_cache(maxsize=64)
def _monic_strs(poly: tuple) -> tuple:
    """The coefficients of the int poly divided by its leading one, as point_to_obj prints them.

    Cached: the lifts of one rest share their cell's poly, and each
    coefficient would otherwise be divided again at every point.
    """
    return tuple(frac_str(Fraction(c, poly[-1])) for c in poly)


@functools.lru_cache(maxsize=None)
def _cyclotomic_cayley_gcd(n: int):
    """The int poly whose real roots are the t with (1+it)/(1-it) a primitive n-th root of unity."""
    re, im = _cayley_numerator(P.cyclotomic(n))
    return tuple(P.gcd(re, im))


def _at_root_of_unity(t: AlgReal) -> bool:
    """Is w = (1+it)/(1-it) a root of unity, i.e. 2*atan(t) a rational multiple of pi?

    w lies in Q(i, t), of degree at most 2*deg(t), so a primitive n-th root
    of unity needs phi(n) <= 2*deg(t); phi(n) >= sqrt(n/2) bounds n by
    N = 8*deg(t)^2.  Rationals 2k/n with n <= N are 1/N^2 apart, so an
    enclosure of theta/pi narrower than that holds at most one, its simplest
    rational, whose order is the one candidate n.  t is such a w's Cayley
    preimage iff the gcd of t's poly with the Cayley numerator of Phi_n has
    a root in t's isolating interval.
    """
    deg = P.degree(t.poly)
    bound = 8 * deg * deg
    # theta_over_pi_enclosure at prec is narrower than 2^-(prec - 18)
    lo, hi = theta_over_pi_enclosure(AlgLoc(t), 2 * bound.bit_length() + 20)
    num, den = _simplest_between(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    n = den * (2 if num % 2 else 1)  # the order of e^(i*pi*num/den)
    if n > bound or P.totient(n) > 2 * deg:
        return False
    g = P.gcd(t.poly, _cyclotomic_cayley_gcd(n))
    return P.degree(g) >= 1 and P.isolates(g, t.lo, t.hi)


def _read_t(at: dict, seen: dict) -> AlgReal:
    """The checked AlgReal of an algebraic_t, checked once per distinct poly and interval.

    seen maps the poly's strings to a checked AlgReal of that poly, whose
    square-freeness then holds for every interval, and the (poly, interval)
    strings to a checked point; mirrored, translated and scaled points of a
    document repeat both, and their points share the one checked t.  The
    strings are read once, by read_frac.
    """
    pkey, ikey = tuple(at["poly"]), tuple(at["interval"])
    t = seen.get((pkey, ikey))
    if t is None:
        lo, hi = read_frac(ikey[0]), read_frac(ikey[1])
        same = seen.get(pkey)
        t = same.with_interval(lo, hi) if same else AlgReal([read_frac(c) for c in pkey], lo, hi)
        if _at_root_of_unity(t):
            raise ValueError(
                "algebraic_t point with 2*atan(t) a rational multiple of pi (t = 0"
                " among them) is a rational angle; write it as pi_rational")
        seen[pkey] = seen[pkey, ikey] = t
    return t


def point_from_obj(obj: dict, _seen=None) -> JumpPoint:
    """Read one point of a jump document.

    An algebraic_t point at a root of unity w = (1+it)/(1-it), t = 0
    included, is refused with ValueError: it puts theta at a rational
    multiple of pi, which is spelled pi_rational.  In the algebraic spelling
    such a point can sit exactly on a window boundary of period_2pi_test and
    never be placed (Unresolved); as pi_rational it is compared exactly.
    Any isolating interval is read, the dyadic cells that jump_function
    prints and the bisection intervals of older documents alike.  Rationals
    are read by read_frac, which refuses exponent notation, and value by
    read_int.  A scale that is not positive, and a half other than the
    int 0 or 1, are refused with ValueError.
    """
    value = read_int(obj["value"])
    scale = read_frac(obj.get("scale", "1"))
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {obj['scale']!r}")
    if "pi_rational" in obj:
        return JumpPoint(PiLoc(read_frac(obj["pi_rational"]) / scale), value)
    half = obj.get("half", 0)
    if type(half) is not int or half not in (0, 1):
        raise ValueError(f"half must be 0 or 1, got {half!r}")
    t = _read_t(obj["algebraic_t"], {} if _seen is None else _seen)
    offset = read_frac(obj["offset"]) if "offset" in obj else 2 * half
    return JumpPoint(AlgLoc(t, offset, scale), value)


def jump_to_obj(f: JumpFunction) -> dict:
    return {
        "period": frac_str(f.period),
        "sigma0": f.sigma0,
        "points": [point_to_obj(pt) for pt in f.points],
    }


def jump_from_obj(obj: dict) -> JumpFunction:
    """Read a jump document, its points put in ascending theta whatever their order there.

    Points enter from outside only here: a first point not after 0, a last
    not before 2*pi*period and a period not positive raise ValueError, and
    points or an end not ordered in the default budget UnresolvedComparison.
    """
    period = read_frac(obj["period"])
    if period <= 0:
        raise ValueError(f"period must be positive, got {obj['period']!r}")
    seen, key = {}, _cmp_key(DEFAULT_PRECISION_BITS)
    points = sorted((point_from_obj(p, seen) for p in obj["points"]), key=key)
    zero, end = (key(JumpPoint(PiLoc(x), 0)) for x in (0, 2 * period))
    if points and not (zero < key(points[0]) and key(points[-1]) < end):
        raise ValueError(f"jump points must lie strictly between 0 and 2*pi*{frac_str(period)}")
    return JumpFunction(points, period, read_int(obj.get("sigma0", 0)))


def _round_bits(num: int, den: int, bits: int):
    """num/den > 0 rounded to bits significant bits, ties to even: (m, e) for m * 2^e."""
    e = num.bit_length() - den.bit_length() - bits - 1
    q, r = divmod(num, den << e) if e >= 0 else divmod(num << -e, den)
    extra = q.bit_length() - bits  # 1 or 2
    m, low, half = q >> extra, q & ((1 << extra) - 1), 1 << (extra - 1)
    if low > half or (low == half and (r or m & 1)):
        m += 1
    return m, e + extra


def _dyadic(m: int, e: int):
    """m * 2^e as (numerator, denominator)."""
    return (m << e, 1) if e >= 0 else (m, 1 << -e)


def theta_decimal(loc, digits: int = 12) -> str:
    """Display-only decimal of theta; never used in decisions.

    theta = x * pi for x the midpoint of theta_over_pi_enclosure(loc, 128),
    printed byte for byte as mpmath.nstr(mpf(x.numerator) / x.denominator *
    pi, digits, strip_zeros=False) prints it at digits + 10 decimal digits of
    working precision.  That is: the three operations each round to that
    many bits, to nearest with ties to even; the result is cut to about
    digits + 5 significant decimal digits (two floors, through a binary fixed
    point), rounded half up at digit digits + 1, and written in fixed
    notation for decimal exponents strictly between min(-(digits // 3), -5)
    and digits, in e-notation otherwise.
    """
    lo, hi = theta_over_pi_enclosure(loc, 128)
    x = (lo + hi) / 2
    if x == 0:
        return "0.0"
    bits = max(1, int(round((digits + 11) * 3.3219280948873626)))  # mpmath's dps_to_prec
    # pi's bits past `bits` are far from a tie, so pi_fixed's 2 ulps at
    # bits + 64 do not change how pi rounds
    pm, pe = _round_bits(pi_fixed(bits + 64)[0], 1 << bits + 64, bits)
    m, e = _round_bits(abs(x.numerator), 1, bits)  # mpf(x.numerator)
    n, d = _dyadic(m, e)
    m, e = _round_bits(n, d * x.denominator, bits)  # / x.denominator
    m, e = _round_bits(*_dyadic(m * pm, e + pe), bits)  # * pi
    # mpmath.libmp.to_str, by way of to_digits_exp at digits + 3
    fixprec = max(int((digits + 3) * log(10, 2)) + 10 - e - m.bit_length(), 0)
    fixdps = int(fixprec / log(10, 2) + 0.5)
    sf = m << (e + fixprec) if e + fixprec >= 0 else m >> -(e + fixprec)
    ds = str((sf * 10 ** fixdps) >> fixprec)
    exponent = len(ds) - fixdps - 1
    if len(ds) > digits and ds[digits] in "56789":
        ds = str(int(ds[:digits]) + 1)
        if len(ds) > digits:
            ds, exponent = ds[:digits], exponent + 1
    else:
        ds = ds[:digits]
    split = 1
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            ds = "0" * -exponent + ds
        else:
            split = exponent + 1
            ds += "0" * (split - digits)
        exponent = 0
    text = ("-" if x < 0 else "") + ds[:split] + "." + ds[split:]
    if exponent == 0:
        return text
    return text + ("e+" if exponent > 0 else "e") + str(exponent)
