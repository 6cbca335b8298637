"""Signature jump functions of rational Seifert matrices.

The signature sigma(theta) of the hermitian pencil (wP - eps*P^T)/(w - 1) on
the unit circle is a step function; this module extracts its discontinuities
exactly.  Jump locations at roots of unity are stored as rational multiples
of pi; the rest are algebraic numbers in the Cayley variable t = tan(theta/2)
with isolating intervals.  All decisions (periodicity verdicts in particular)
are made by exact arithmetic or certificates, never by floating point; when a
comparison of two transcendental angles cannot be certified either way within
the precision budget, the answer is an explicit Unresolved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

import mpmath
from mpmath.libmp import to_rational
from sympy import totient

from . import _fast
from .covering import CoveringSpec, build_covering
from .errors import UnresolvedComparison, ZeroScale
from .exact import (
    DEFAULT_PRECISION_BITS,
    AlgReal,
    Comparison,
    GaussRat,
    RatMatrix,
    alg_compare,
    hermitian_signature,
    isolate_real_roots,
)
from .exact import poly as P
from .seifert import SeifertData

# ---------------------------------------------------------------------------
# locations


@dataclass(frozen=True)
class PiLoc:
    """theta = frac * pi with frac an exact rational."""

    frac: Fraction

    def __post_init__(self):
        object.__setattr__(self, "frac", Fraction(self.frac))


class AlgLoc:
    """theta = (2*atan(t) + offset*pi) / scale with t algebraic, scale > 0."""

    __slots__ = ("t", "offset", "scale")

    def __init__(self, t: AlgReal, offset=0, scale=1):
        self.t = t
        self.offset = Fraction(offset)
        self.scale = Fraction(scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def copy(self):
        return AlgLoc(self.t.copy(), self.offset, self.scale)

    def __repr__(self):
        return f"AlgLoc(t~{float(self.t):.6g}, offset={self.offset}, scale={self.scale})"


def _mpf_to_frac(x) -> Fraction:
    num, den = to_rational(x._mpf_)
    return Fraction(int(num), int(den))


def _atan_over_pi(x: Fraction, prec: int):
    """Padded enclosure of atan(x)/pi; the pad swamps every rounding error."""
    with mpmath.mp.workprec(prec):
        v = mpmath.atan(mpmath.mpf(x.numerator) / x.denominator) / mpmath.pi
        f = _mpf_to_frac(v)
    pad = Fraction(1, 1 << max(8, prec - 16))
    return f - pad, f + pad


def _tan_half_pi_enclosure(frac: Fraction, prec: int):
    """Padded enclosure of tan(frac*pi/2) for 0 < frac < 1."""
    with mpmath.mp.workprec(prec):
        v = mpmath.tan(mpmath.mpf(frac.numerator) / frac.denominator * mpmath.pi / 2)
        f = _mpf_to_frac(v)
    pad = (1 + f * f) * Fraction(1, 1 << max(8, prec - 16))
    return f - pad, f + pad


def theta_over_pi_enclosure(loc, prec: int):
    """Rational enclosure of theta/pi; exact (degenerate) for PiLoc."""
    if isinstance(loc, PiLoc):
        return loc.frac, loc.frac
    loc.t.refine_to(Fraction(1, 1 << prec))
    alo, _ = _atan_over_pi(loc.t.lo, prec)
    _, ahi = _atan_over_pi(loc.t.hi, prec)
    return (2 * alo + loc.offset) / loc.scale, (2 * ahi + loc.offset) / loc.scale


def _neg_inverse(a: AlgReal) -> AlgReal:
    """The algebraic number -1/a (a must be nonzero)."""
    a = a.copy()
    if a.lo < 0 < a.hi and P.eval_at(a.poly, 0) == 0:
        raise ZeroDivisionError("-1/0")
    while not (a.lo > 0 or a.hi < 0):
        a.refine()
    n = P.degree(a.poly)
    coeffs = [a.poly[n - j] * (-1) ** (n - j) for j in range(n + 1)]
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
            sgn = b.t.copy().sign()
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
    def cmp(pa, pb):
        c = compare_locations(pa.loc, pb.loc, max_bits)
        if c is Comparison.UNRESOLVED:
            raise UnresolvedComparison(pa.loc, pb.loc, max_bits)
        return c.value

    return functools.cmp_to_key(cmp)


# ---------------------------------------------------------------------------
# jump data


@dataclass
class JumpPoint:
    loc: object  # PiLoc | AlgLoc
    value: int


@dataclass
class JumpFunction:
    """Jumps over one fundamental period [0, 2*pi*period).

    sigma0 is the signature value on the first open interval after 0; it lets
    the step function itself be reconstructed, not just its jumps.
    """

    points: list
    period: Fraction = Fraction(1)
    sigma0: int = 0

    def __post_init__(self):
        self.period = Fraction(self.period)


@dataclass
class Verdict:
    status: str  # "Periodic" | "NonPeriodic" | "Unresolved"
    witness: object = None  # (loc, (window_i, window_j), (value_i, value_j))


# ---------------------------------------------------------------------------
# exact signature evaluation


def _int_rows(Pm: RatMatrix):
    den = 1
    for row in Pm.rows:
        for x in row:
            den = lcm(den, x.denominator)
    return [[x.numerator * (den // x.denominator) for x in row] for row in Pm.rows]


def _signature(g) -> int:
    """Signature of the sparse hermitian rows g = (re, im) of _fast.herm_pencil.

    The integer kernel answers unless it meets a Schur complement with an
    all-zero diagonal; only then are the rows written out densely for the
    rational routine.
    """
    s = _fast.herm_sig_fast(*g)
    if s is None:
        re, im = g
        n = len(re)
        m = [[GaussRat(0)] * n for _ in range(n)]
        for i in range(n):
            for j in re[i].keys() | im[i].keys():
                z = GaussRat(re[i].get(j, 0), im[i].get(j, 0))
                m[i][j], m[j][i] = z, z.conj()
        s = hermitian_signature(m)
    return s


def _sig_at(parts, eps: int, u: int, v: int) -> int:
    """Pencil signature at t = u/v; parts is _fast.pencil_parts(P)."""
    if u == 0:
        raise ValueError("t = 0 corresponds to w = 1, excluded from the pencil")
    if v < 0:
        u, v = -u, -v
    g = int_gcd(abs(u), v)
    u, v = u // g, v // g
    s = _signature(_fast.herm_pencil(parts, eps, u, v))
    return s if u > 0 else -s


def tl_signature(Pm: RatMatrix, epsilon: int, t) -> int:
    """Signature of the pencil at w = (1+it)/(1-it), exact for rational t.

    For epsilon = -1 the (skew-hermitian) pencil is multiplied by i first.
    Degenerate pencils are fine: the zero eigenvalues simply contribute 0.
    """
    t = Fraction(t)
    return _sig_at(_fast.pencil_parts(_int_rows(Pm)), epsilon, t.numerator, t.denominator)


def tl_signature_at_pi(Pm: RatMatrix, epsilon: int) -> int:
    """Signature of the pencil at w = -1 (theta = pi)."""
    return _signature(_fast.herm_pencil_at_pi(_fast.pencil_parts(_int_rows(Pm)), epsilon))


# ---------------------------------------------------------------------------
# jump extraction


def _remove_common_kernel(rows):
    """Congruence-reduce away ker(P) intersect ker(P^T); jumps are unchanged."""
    m = RatMatrix(rows)
    stacked = RatMatrix([list(r) for r in m.rows] + [list(r) for r in m.transpose().rows])
    basis = stacked.nullspace()
    if not basis:
        return rows
    kt = RatMatrix([[Fraction(x) for x in vec] for vec in basis])
    # pivot columns of the kernel basis: those coordinates get dropped
    mm = [row[:] for row in kt.rows]
    nr, nc = kt.nrows, kt.ncols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if mm[i][c] != 0), None)
        if piv is None:
            continue
        mm[r], mm[piv] = mm[piv], mm[r]
        inv = 1 / mm[r][c]
        mm[r] = [x * inv for x in mm[r]]
        for i in range(nr):
            if i != r and mm[i][c] != 0:
                f = mm[i][c]
                mm[i] = [a - f * b for a, b in zip(mm[i], mm[r])]
        pivots.append(c)
        r += 1
    keep = [i for i in range(nc) if i not in pivots]
    return [[rows[i][j] for j in keep] for i in keep]


def _rank_profile(rows):
    """(rank, row indices, column indices) of a maximal nonsingular submatrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    used_rows, used_cols = [], []
    avail = list(range(n))
    for c in range(n):
        piv = next((i for i in avail if m[i][c] != 0), None)
        if piv is None:
            continue
        used_rows.append(piv)
        used_cols.append(c)
        avail.remove(piv)
        inv = 1 / m[piv][c]
        for i in avail:
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
    return len(used_cols), sorted(used_rows), used_cols


def _generic_minor_poly(rows, eps: int):
    """Superset determinant for identically singular pencils.

    Takes a generically nonsingular square submatrix of w*P - eps*P^T; its
    determinant vanishes wherever the pencil's rank drops, so its unit-circle
    roots contain every jump location (extra candidates get jump 0).
    """
    n = len(rows)
    best = (-1, None, None)
    for w0 in (2, 3, 5):
        m = [[w0 * rows[i][j] - eps * rows[j][i] for j in range(n)] for i in range(n)]
        r, ri, ci = _rank_profile(m)
        if r > best[0]:
            best = (r, ri, ci)
    r, ri, ci = best
    if r == 0:
        return []
    xs = list(range(r + 1))
    ys = []
    for x in xs:
        sub = [[x * rows[i][j] - eps * rows[j][i] for j in ci] for i in ri]
        ys.append(_fast.bareiss_det(sub))
    return _fast._newton_interp([Fraction(x) for x in xs], ys)


def _self_reciprocal_part(D):
    """gcd(D(w), w^deg * D(1/w)): carries every unimodular root of D."""
    rev = list(reversed(D))
    return P.gcd(D, rev)


def _cyclotomic_split(S):
    """Divide out cyclotomic factors of a square-free S; return (ns, rest).

    Phi_n is monic with integer coefficients, so it divides S over Q iff it
    divides the primitive integer form of S over Z; the trial divisions run
    in Python ints and rest is content(S) times the integer cofactor.
    """
    ns = []
    deg = P.degree(S)
    content, ip = P.content_primitive(S)
    n = 1
    while len(ip) >= 2 and n <= 6 * deg + 30:
        if int(totient(n)) < len(ip):
            quot, rem = P.divmod_monic(ip, P.cyclotomic(n))
            if not rem:
                ns.append(n)
                ip = quot
        n += 1
    return ns, [content * c for c in ip]


def _cayley_numerator(S):
    """Real and imaginary parts of sum_j S_j (1+it)^j (1-it)^(deg-j)."""
    _, Sz = P.content_primitive(S)
    deg = len(Sz) - 1
    # (1+it)^j as (re, im) integer coefficient lists, built incrementally
    plus = [( [1], [] )]
    minus = [( [1], [] )]
    for _ in range(deg):
        pr, pi = plus[-1]
        plus.append((P.sub(pr, [0] + pi), P.add(pi, [0] + pr)))
        mr, mi = minus[-1]
        minus.append((P.sub(mr, [0] + [-c for c in mi]), P.add(mi, [0] + [-c for c in mr])))
    re, im = [], []
    for j, c in enumerate(Sz):
        if c == 0:
            continue
        ar, ai = plus[j]
        br, bi = minus[deg - j]
        # (ar + i*ai)(br + i*bi)
        rr = P.sub(P.mul(ar, br), P.mul(ai, bi))
        ii = P.add(P.mul(ar, bi), P.mul(ai, br))
        re = P.add(re, P.scale(rr, c))
        im = P.add(im, P.scale(ii, c))
    return re, im


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


def _candidate_loc(kind, val):
    return PiLoc(val) if kind == "pi" else AlgLoc(val, 0, 1)


def _separate_candidates(items, prec0: int = 64):
    """Sort candidates on the positive t-axis with disjoint rational enclosures.

    items: list of ("pi", frac) / ("alg", AlgReal).  Returns the sorted list
    together with enclosures [(lo, hi)] with 0 < lo, hi < next lo.  Doubles
    the precision up to 4*DEFAULT_PRECISION_BITS; if two enclosures still
    overlap (or one still reaches 0), raises UnresolvedComparison for that
    pair.
    """
    prec = prec0
    while True:
        encl = []
        clash = None
        for kind, val in items:
            if kind == "pi":
                lo, hi = _tan_half_pi_enclosure(Fraction(val), prec)
            else:
                val.refine_to(Fraction(1, 1 << prec))
                lo, hi = val.lo, val.hi
            if lo <= 0:
                clash = (_candidate_loc(kind, val), PiLoc(Fraction(0)))
                break
            encl.append((lo, hi))
        if clash is None:
            order = sorted(range(len(items)), key=lambda i: encl[i][0])
            for a, b in zip(order, order[1:]):
                if encl[a][1] >= encl[b][0]:
                    clash = (_candidate_loc(*items[a]), _candidate_loc(*items[b]))
                    break
        if clash is None:
            return [items[i] for i in order], [encl[i] for i in order]
        if prec >= 4 * DEFAULT_PRECISION_BITS:
            raise UnresolvedComparison(*clash, DEFAULT_PRECISION_BITS)
        prec *= 2


def _simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The rational with smallest denominator strictly inside (a, b).

    Keeping sample points simple keeps the integer pencil entries small,
    which is what makes the Bareiss signature evaluations fast.
    """
    if not a < b:
        raise ValueError("empty interval")
    fa = a.numerator // a.denominator
    cand = Fraction(fa + 1)
    if a < cand < b:
        return cand
    if a == fa:
        # a is an integer and b <= a+1: answer is a + 1/k for the least valid k
        k = (1 / (b - a)).__floor__() + 1
        return a + Fraction(1, k)
    return fa + 1 / _simplest_between(1 / (b - fa), 1 / (a - fa))


def jump_function(Pm: RatMatrix, epsilon: int = 1) -> JumpFunction:
    """All jumps of the pencil signature over theta in (0, 2*pi).

    Root-of-unity jump angles (cyclotomic factors of the determinant
    det(w*P - eps*P^T)) come out as PiLoc; the remaining unimodular roots as
    AlgLoc in t = tan(theta/2).  Signatures are evaluated at exact rational t
    strictly between consecutive candidates, only on the upper half circle.
    The lower half is the mirror image: the pencil at conj(w) is the
    transpose of the pencil at w for eps = 1, and minus it for eps = -1 (i
    times a skew-hermitian pencil), so sigma is even for eps = 1 and odd for
    eps = -1.  A mirrored jump therefore negates for eps = 1 and keeps its
    value for eps = -1, and an odd sigma also jumps at theta = pi, by
    -2*sigma(pi-).
    Raises UnresolvedComparison when two candidates stay unseparated at
    4*DEFAULT_PRECISION_BITS bits.
    """
    if not Pm.is_square:
        raise ValueError("jump_function needs a square matrix")
    rows = _int_rows(Pm)
    if not rows:
        return JumpFunction([], Fraction(1), 0)
    D = _fast.pencil_det_poly(rows, epsilon)
    if P.is_zero(P.trim(D)):
        # ker P & ker P^T != 0 forces D = 0, so the kernel step only matters here
        reduced = _remove_common_kernel(rows)
        if not reduced:
            return JumpFunction([], Fraction(1), 0)
        if len(reduced) < len(rows):
            rows = reduced
            D = _fast.pencil_det_poly(rows, epsilon)
        if P.is_zero(P.trim(D)):
            D = _generic_minor_poly(rows, epsilon)
    D = P.trim(D)
    i = 0
    while D[i] == 0:
        i += 1  # w = 0 is never on the unit circle
    D = D[i:]
    S = P.square_free_part(_self_reciprocal_part(D))
    ns, S = _cyclotomic_split(S)

    items = [("pi", f) for f in _pi_candidates_upper(ns)]
    if P.degree(S) >= 1:
        re, im = _cayley_numerator(S)
        g = P.gcd(re, im)
        if P.degree(g) >= 1:
            bound = P.cauchy_root_bound(g)
            for root in isolate_real_roots(g, window=(Fraction(0), bound)):
                items.append(("alg", root))

    parts = _fast.pencil_parts(rows)
    if items:
        items, encl = _separate_candidates(items)
        samples = [_simplest_between(Fraction(0), encl[0][0])]
        for (lo1, hi1), (lo2, hi2) in zip(encl, encl[1:]):
            samples.append(_simplest_between(hi1, lo2))
        samples.append(Fraction(encl[-1][1].__floor__() + 1))
    else:
        samples = [Fraction(1)]
    sigs = [_sig_at(parts, epsilon, t.numerator, t.denominator) for t in samples]

    upper = []
    for idx, (kind, val) in enumerate(items):
        dv = sigs[idx + 1] - sigs[idx]
        if dv == 0:
            continue
        upper.append(JumpPoint(_candidate_loc(kind, val), dv))
    points = list(upper)
    if epsilon == -1 and sigs[-1]:
        points.append(JumpPoint(PiLoc(Fraction(1)), -2 * sigs[-1]))
    for pt in reversed(upper):
        if isinstance(pt.loc, PiLoc):
            mloc = PiLoc(2 - pt.loc.frac)
        else:
            mloc = AlgLoc(pt.loc.t.neg(), 2, 1)
        points.append(JumpPoint(mloc, -epsilon * pt.value))
    return JumpFunction(points, Fraction(1), sigs[0])


# ---------------------------------------------------------------------------
# jump algebra


def _translate_point(pt: JumpPoint, dfrac: Fraction) -> JumpPoint:
    """New point at theta + dfrac*pi."""
    if isinstance(pt.loc, PiLoc):
        return JumpPoint(PiLoc(pt.loc.frac + dfrac), pt.value)
    loc = pt.loc.copy()
    loc.offset += dfrac * loc.scale
    return JumpPoint(loc, pt.value)


def _floor_over(loc, step: Fraction, max_bits: int) -> int:
    """floor((theta/pi) / step) for theta/pi not a multiple of step.

    For an AlgLoc the enclosure is refined up to 4*max_bits, as in
    compare_locations; if it still straddles a multiple of step, raises
    UnresolvedComparison against that multiple.
    """
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


def scale_jump(f: JumpFunction, y, max_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """The jump function of theta -> f(y*theta).

    Locations divide by y and reduce modulo the new period f.period/|y|; a
    negative y reverses the traversal direction, so values flip sign.
    Raises UnresolvedComparison when a reduction or the sort needs more than
    max_bits.
    """
    y = Fraction(y)
    if y == 0:
        raise ZeroScale("scale factor must be nonzero")
    new_period = f.period / abs(y)
    modulus = 2 * new_period
    pts = []
    for pt in f.points:
        value = pt.value if y > 0 else -pt.value
        if isinstance(pt.loc, PiLoc):
            frac = (pt.loc.frac / y) % modulus
            pts.append(JumpPoint(PiLoc(frac), value))
        else:
            t = pt.loc.t.copy()
            offset, scale = pt.loc.offset, pt.loc.scale * y
            if scale < 0:
                t = t.neg()
                offset, scale = -offset, -scale
            loc = AlgLoc(t, offset, scale)
            k = _floor_over(loc, modulus, max_bits)
            if k:
                loc.offset -= k * modulus * scale
            pts.append(JumpPoint(loc, value))
    pts.sort(key=_cmp_key(max_bits))
    return JumpFunction(pts, new_period, f.sigma0)


def with_period(f: JumpFunction, period) -> JumpFunction:
    """Re-express f over a larger fundamental period (an integer multiple)."""
    period = Fraction(period)
    reps = period / f.period
    if reps.denominator != 1 or reps <= 0:
        raise ValueError("new period must be a positive integer multiple")
    pts = []
    for r in range(int(reps)):
        shift = 2 * f.period * r
        for pt in f.points:
            pts.append(_translate_point(pt, shift))
    return JumpFunction(pts, period, f.sigma0)


def sum_jumps(fs, max_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """Pointwise sum: replicate to the common period, merge equal locations.

    Raises UnresolvedComparison when two locations can be neither separated
    nor certified equal within max_bits.
    """
    fs = list(fs)
    if not fs:
        return JumpFunction([], Fraction(1), 0)
    period = Fraction(
        lcm(*[f.period.numerator for f in fs]),
        int_gcd(*[f.period.denominator for f in fs])
        if len(fs) > 1
        else fs[0].period.denominator,
    )
    allpts = []
    for f in fs:
        reps = period / f.period
        assert reps.denominator == 1
        for r in range(int(reps)):
            shift = 2 * f.period * r
            for pt in f.points:
                allpts.append(_translate_point(pt, shift) if shift else JumpPoint(
                    pt.loc.copy() if isinstance(pt.loc, AlgLoc) else pt.loc, pt.value))
    allpts.sort(key=_cmp_key(max_bits))
    merged = []
    for pt in allpts:
        if merged and compare_locations(merged[-1].loc, pt.loc, max_bits) is Comparison.EQ:
            merged[-1] = JumpPoint(merged[-1].loc, merged[-1].value + pt.value)
        else:
            merged.append(JumpPoint(pt.loc, pt.value))
    merged = [pt for pt in merged if pt.value != 0]
    return JumpFunction(merged, period, sum(f.sigma0 for f in fs))


def period_2pi_test(f: JumpFunction, max_bits: int = DEFAULT_PRECISION_BITS) -> Verdict:
    """Is f, defined over [0, 2*pi*s), actually 2*pi-periodic?

    Splits the fundamental period into s windows of width 2*pi and compares
    each window's jump multiset against window 0 after translation.  Location
    comparisons use certificates; an uncertifiable coincidence yields an
    Unresolved verdict rather than a guess.
    """
    if f.period.denominator != 1:
        raise ValueError("period must be an integer multiple of 2*pi")
    s = f.period.numerator
    if s <= 1:
        return Verdict("Periodic")
    windows = [[] for _ in range(s)]
    for pt in f.points:
        try:
            j = _floor_over(pt.loc, Fraction(2), max_bits)
        except UnresolvedComparison as e:
            # theta may sit on the boundary 2*pi*j between windows j-1 and j
            j = int(e.loc_b.frac / 2)
            return Verdict("Unresolved", (pt.loc, ((j - 1) % s, j % s), None))
        if not 0 <= j < s:
            raise ValueError("jump location outside the fundamental period")
        windows[j].append(_translate_point(pt, Fraction(-2 * j)))
    base = windows[0]
    for j in range(1, s):
        wj = windows[j]
        i = k = 0
        while i < len(base) or k < len(wj):
            if i >= len(base):
                pt = wj[k]
                return Verdict("NonPeriodic", (pt.loc, (0, j), (None, pt.value)))
            if k >= len(wj):
                pt = base[i]
                return Verdict("NonPeriodic", (pt.loc, (0, j), (pt.value, None)))
            c = compare_locations(base[i].loc, wj[k].loc, max_bits)
            if c is Comparison.EQ:
                if base[i].value != wj[k].value:
                    return Verdict(
                        "NonPeriodic",
                        (base[i].loc, (0, j), (base[i].value, wj[k].value)),
                    )
                i += 1
                k += 1
            elif c is Comparison.LT:
                return Verdict("NonPeriodic", (base[i].loc, (0, j), (base[i].value, None)))
            elif c is Comparison.GT:
                return Verdict("NonPeriodic", (wj[k].loc, (0, j), (None, wj[k].value)))
            else:
                return Verdict("Unresolved", (base[i].loc, (0, j), None))
    return Verdict("Periodic")


def covering_jump(sd: SeifertData, coeffs: dict, spec: CoveringSpec):
    """Full pipeline: covering matrix, its jumps at theta/s, and the verdict."""
    cm = build_covering(sd, coeffs, spec)
    f = jump_function(cm.expanded_P, sd.epsilon)
    g = scale_jump(f, Fraction(1, cm.s))
    return g, period_2pi_test(g)


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point_to_obj(pt: JumpPoint) -> dict:
    if isinstance(pt.loc, PiLoc):
        return {"pi_rational": _frac_str(pt.loc.frac), "scale": "1", "value": pt.value}
    loc = pt.loc
    obj = {
        "algebraic_t": {
            "poly": [_frac_str(c) for c in loc.t.poly],
            "interval": [_frac_str(loc.t.lo), _frac_str(loc.t.hi)],
        },
        "half": 0 if loc.offset == 0 else 1,
        "scale": _frac_str(loc.scale),
        "value": pt.value,
    }
    if loc.offset not in (0, 2):
        obj["offset"] = _frac_str(loc.offset)
    return obj


@functools.lru_cache(maxsize=None)
def _cyclotomic_cayley_gcd(n: int):
    """Monic poly whose real roots are the t with (1+it)/(1-it) a primitive n-th root of unity."""
    re, im = _cayley_numerator(P.cyclotomic(n))
    return tuple(P.gcd(re, im))


def _at_root_of_unity(t: AlgReal) -> bool:
    """Is w = (1+it)/(1-it) a root of unity, i.e. 2*atan(t) a rational multiple of pi?

    w lies in Q(i, t), of degree at most 2*deg(t), so a primitive n-th root
    of unity needs phi(n) <= 2*deg(t); phi(n) >= sqrt(n/2) bounds n.  t is
    such a w's Cayley preimage iff it is a root of the gcd of t's poly with
    the Cayley numerator of Phi_n, i.e. iff that gcd has a root in t's
    isolating interval.
    """
    deg = P.degree(t.poly)
    for n in range(1, 8 * deg * deg + 1):
        if int(totient(n)) > 2 * deg:
            continue
        g = P.gcd(t.poly, _cyclotomic_cayley_gcd(n))
        if P.degree(g) >= 1 and P.count_roots(P.sturm_chain(g), t.lo, t.hi):
            return True
    return False


def point_from_obj(obj: dict) -> JumpPoint:
    """Read one point of a jump document.

    An algebraic_t point at a root of unity w = (1+it)/(1-it), t = 0
    included, is refused with ValueError: it puts theta at a rational
    multiple of pi, which is spelled pi_rational.  In the algebraic spelling
    such a point can sit exactly on a window boundary of period_2pi_test and
    never be placed (Unresolved); as pi_rational it is compared exactly.
    """
    value = int(obj["value"])
    if "pi_rational" in obj:
        frac = Fraction(obj["pi_rational"]) / Fraction(obj.get("scale", "1"))
        return JumpPoint(PiLoc(frac), value)
    at = obj["algebraic_t"]
    t = AlgReal(
        [Fraction(c) for c in at["poly"]],
        Fraction(at["interval"][0]),
        Fraction(at["interval"][1]),
    )
    if _at_root_of_unity(t):
        raise ValueError(
            "algebraic_t point with 2*atan(t) a rational multiple of pi (t = 0"
            " among them) is a rational angle; write it as pi_rational")
    offset = Fraction(obj["offset"]) if "offset" in obj else (0 if obj.get("half", 0) == 0 else 2)
    return JumpPoint(AlgLoc(t, offset, Fraction(obj.get("scale", "1"))), value)


def jump_to_obj(f: JumpFunction) -> dict:
    return {
        "period": _frac_str(f.period),
        "sigma0": f.sigma0,
        "points": [point_to_obj(pt) for pt in f.points],
    }


def jump_from_obj(obj: dict) -> JumpFunction:
    return JumpFunction(
        [point_from_obj(p) for p in obj["points"]],
        Fraction(obj["period"]),
        int(obj.get("sigma0", 0)),
    )


def theta_decimal(loc, digits: int = 12) -> str:
    """Display-only decimal of theta; never used in decisions."""
    lo, hi = theta_over_pi_enclosure(loc, 128)
    mid = (lo + hi) / 2
    with mpmath.mp.workdps(digits + 10):
        val = mpmath.mpf(mid.numerator) / mid.denominator * mpmath.pi
        return mpmath.nstr(val, digits, strip_zeros=False)
