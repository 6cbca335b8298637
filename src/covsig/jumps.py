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
rational in the same gap.  A covering with D = 0 takes the plain route on
its n x n matrix: a group with det(A_kk - eps*A_kk^T) = 0 makes D vanish
through a common kernel, which that route removes first, and the rest is
sampled as one group.

Candidates and samples go by the core's connected blocks, D = c * prod D_b.
Each D_b loses its factor w^i and every cyclotomic factor, with
multiplicity, which gives its roots of unity by order; what is left, the
block's rest r_b, gives its algebraic candidates: the positive roots of
g_b, the square-free Cayley gcd of r_b, isolated and refined at the
block's own degree.  A block's signature can change only at its own
candidates or at a pole of its groups, so a sample takes again only the
blocks that own the candidate it has just passed or whose poles lie
between it and the previous sample (PencilCore, Blocks across samples); a
root of unity belongs to the blocks it is a root of, and an algebraic
candidate to its block.  Rests that share a factor give each shared root
once, owned by every block whose g_b changes sign across its enclosure.
When D = 0 leaves a generic minor, which is no product over blocks, it is
one part owned by every block.  An algebraic point prints its dyadic cell
(algebraic.dyadic_cell) with the g_b of its first block.

All decisions (periodicity verdicts in particular) are made by exact
arithmetic or certificates, never by floating point; when a comparison of
two transcendental angles cannot be certified either way within the
precision budget, the answer is an explicit Unresolved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd as int_gcd
from math import lcm, log

from . import _fast, covering
from .covering import CoveringMatrix, CoveringSpec, build_covering, int_blocks
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
    relies on that).  A pure function of (x, prec), cached: scale_jump asks
    for the same interval ends at every scaling of a point.
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
    return (2 * alo + loc.offset) / loc.scale, (2 * ahi + loc.offset) / loc.scale


def _neg_inverse(a: AlgReal) -> AlgReal:
    """The algebraic number -1/a (a must be nonzero)."""
    a = a.copy()
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
    """Jumps over one fundamental period [0, 2*pi*period), points in ascending theta.

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


def _core_rows(cm: CoveringMatrix):
    """(integer core rows, signed strand counts) of a covering (see _fast.PencilCore).

    One group per nonzero multiplicity; block (k, l) of the core is
    g_k*g_l*A_kl off the diagonal and A_kk on it.
    """
    keep = [k for k, m in enumerate(cm.multiplicities) if m]
    mults = tuple(cm.multiplicities[k] for k in keep)
    sign = [1 if m > 0 else -1 for m in mults]
    _, ib = int_blocks(cm.blocks_A, keep)
    rows = []
    for a, k in enumerate(keep):
        tiles = [(ib[k][l], 1 if a == c else sign[a] * sign[c]) for c, l in enumerate(keep)]
        for i in range(len(ib[k][k])):
            rows.append([g * x for tile, g in tiles for x in tile[i]])
    return rows, mults


def _sig_at(core: _fast.PencilCore, u: int, v: int):
    """Pencil signature at t = u/v, or None where a chain of the core is singular."""
    if u == 0:
        raise ValueError("t = 0 corresponds to w = 1, excluded from the pencil")
    blocks = core.at(u, v)
    if blocks is None:
        return None
    return sum(_fast.herm_sig_fast(re, im) for re, im in blocks) + core.chain_signature(u, v)


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


def _remove_common_kernel(rows):
    """Restrict P to a complement of K = ker(P) intersect ker(P^T); jumps are unchanged.

    x^T P y = 0 whenever x or y lies in K, so K is the radical of both P and
    P^T.  On any complement W of K the pencil w*P - eps*P^T is therefore
    congruent to the pencil induced on V/K: at every w it has the signature
    of the whole pencil, and its nullity is less by dim K.  The pivot
    columns C of the stack [P; P^T] span one such W: those columns are
    independent, so no nonzero vector supported on C is in
    K = ker [P; P^T], and |C| = rank = n - dim K.  The restriction of P to
    W is its principal submatrix on C.
    """
    _, keep = _fast.rank_profile(rows + [list(col) for col in zip(*rows)])
    if len(keep) == len(rows):
        return rows
    return [[rows[i][j] for j in keep] for i in keep]


def _generic_minor_poly(rows, eps: int):
    """Superset determinant for identically singular pencils.

    Takes a generically nonsingular square submatrix of w*P - eps*P^T; its
    determinant vanishes wherever the pencil's rank drops, so its unit-circle
    roots contain every jump location (extra candidates get jump 0).
    Ascending ints, [] when the pencil is zero.
    """
    n = len(rows)
    best = (-1, None, None)
    for w0 in (2, 3, 5):
        m = [[w0 * rows[i][j] - eps * rows[j][i] for j in range(n)] for i in range(n)]
        ri, ci = _fast.rank_profile(m)
        if len(ci) > best[0]:
            best = (len(ci), ri, ci)
    r, ri, ci = best
    if r == 0:
        return []
    # p(x) of degree <= r from its values on -h..h: the even and odd parts
    # (p(x) +- p(-x))/2 are exact in ints and interpolated in x^2
    h = (r + 1) // 2
    ys = {x: _fast.bareiss_det([[x * rows[i][j] - eps * rows[j][i] for j in ci] for i in ri])
          for x in range(-h, h + 1)}
    even = _fast.interpolate_in_squares([(ys[k] + ys[-k]) // 2 for k in range(h + 1)], False)
    odd = _fast.interpolate_in_squares([(ys[k] - ys[-k]) // 2 for k in range(h + 1)], True)
    return [a + b for a, b in zip_longest(even, odd, fillvalue=0)]


def _self_reciprocal_part(D):
    """gcd(D(w), w^deg * D(1/w)), up to a constant: carries every unimodular root of D.

    A pencil determinant with its factor w^i trimmed is palindromic up to
    sign, w^n D(1/w) = (-eps)^n D(w), so the gcd is D itself; only a
    generic minor (_generic_minor_poly) needs the gcd.
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
            quot, rem = P.divmod_monic(f, cyc)
            if not rem:
                ns.append(n)
                while not rem:
                    f = quot
                    quot, rem = P.divmod_monic(f, cyc)
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


def _algebraic_candidates(rests):
    """The candidates t > 0 of the parts' rests, each root once, and the parts' Cayley gcds.

    rests is [(r, owners)]: an integer polynomial with no root of unity,
    and the blocks it belongs to.  Part i's roots are those of g_i, the
    square-free gcd of the two parts of its Cayley numerator, on
    (0, Cauchy bound).  Returns (roots, gs, shared): roots is
    [(root, i)], each root an AlgReal of g_i in its isolating interval;
    gs[i] is g_i (None when it has no positive root); shared
    tells whether some rest is not coprime to the product of the earlier
    ones.  Such a rest drops the roots it shares with an earlier g, which
    are those where their gcd changes sign across the isolating interval.
    """
    roots, gs, shared, product = [], [], False, [1]
    for i, (r, _) in enumerate(rests):
        overlap = i > 0 and not P.coprime(r, product)
        product = P.mul(product, r)
        re, im = _cayley_numerator(r)
        g = P.gcd(re, im)
        found = []
        if P.degree(g) >= 1:
            found = isolate_real_roots(g, window=(Fraction(0), P.cauchy_root_bound(g)))
        gs.append(found[0].poly if found else None)
        if overlap:
            shared = True
            earlier = [1]
            for h in gs[:-1]:
                if h is not None:
                    earlier = P.mul(earlier, h)
            c = P.gcd(found[0].poly, earlier) if found else [1]
            found = [x for x in found if P.sign_at(c, x.lo) == P.sign_at(c, x.hi)]
        roots += [(x, i) for x in found]
    return roots, gs, shared


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


def _separate_candidates(items, max_bits: int = DEFAULT_PRECISION_BITS, prec0: int = 64):
    """Sort candidates on the positive t-axis with disjoint rational enclosures.

    items: list of ("pi", frac) / ("alg", AlgReal).  Returns the sorted list
    together with enclosures [(lo, hi)] with 0 < lo, hi < next lo.  Doubles
    the precision up to 4*max_bits; if two enclosures still overlap (or one
    still reaches 0), raises UnresolvedComparison for that pair.
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
        if prec >= 4 * max_bits:
            raise UnresolvedComparison(*clash, max_bits)
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


def _sample_point(core, lo: Fraction, hi):
    """The sample t of the gap (lo, hi) between candidates (hi None: no bound), and core.poles(t).

    The sample is the simplest rational in the gap (the integer above lo
    when hi is None).  If a chain of the core is singular there, which is
    only t = 1 with 4 | N, it moves to the simplest rational in (lo, 1):
    sigma is constant on the gap, so neither the candidates nor the printed
    intervals change.
    """
    t = _simplest_between(lo, hi) if hi is not None else Fraction(lo.__floor__() + 1)
    poles = core.poles(t.numerator, t.denominator)
    if poles is None:
        t = _simplest_between(lo, t)
        poles = core.poles(t.numerator, t.denominator)
    return t, poles


def _gap_signatures(core, gaps, owners):
    """The pencil signature on each gap, each block of the core re-sampled only where it can change.

    owners[i] is the set of blocks that own candidate i, the one between
    gaps i and i + 1: those whose determinant may vanish there.  The first
    gap samples every block.  Gap i samples block b again only when b owns
    candidate i - 1 or a pole of one of b's groups lies between the two
    samples; otherwise b's signature carries over (PencilCore, Blocks across
    samples).  The chain term is taken at every sample.
    """
    sig = [0] * len(core.blocks)
    last = None
    sigs = []
    for i, (lo, hi) in enumerate(gaps):
        t, poles = _sample_point(core, lo, hi)
        u, v = t.numerator, t.denominator
        which = [b for b in range(len(sig))
                 if last is None or b in owners[i - 1] or poles[b] != last[b]]
        for b, (re, im) in zip(which, core.at(u, v, which)):
            sig[b] = _fast.herm_sig_fast(re, im)
        last = poles
        sigs.append(sum(sig) + core.chain_signature(u, v))
    return sigs


def jump_function(Pm, epsilon: int = 1, max_bits: int = DEFAULT_PRECISION_BITS) -> JumpFunction:
    """All jumps of the pencil signature over theta in (0, 2*pi).

    Pm is a square RatMatrix or a CoveringMatrix.  For a CoveringMatrix both
    D(w) = det(w*P - eps*P^T) and the signature samples come from its core
    (see _fast.PencilCore), with each group's strand chain eliminated.  A
    covering with D = 0 builds its n x n matrix (covering.covering_matrix)
    and takes the plain route on it.  A plain matrix removes the common
    kernel of P and P^T first, so that D is computed once.
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
    is_covering = isinstance(Pm, CoveringMatrix)
    if is_covering:
        rows, mults = _core_rows(Pm)
    elif Pm.is_square:
        # a plain matrix drops its common kernel before D, which it forces to 0
        rows, mults = _remove_common_kernel(Pm.int_rows()[1]), (1,)
    else:
        raise ValueError("jump_function needs a square matrix")
    if not rows:
        return JumpFunction([], Fraction(1), 0)
    core = _fast.PencilCore(rows, epsilon, mults)
    factors = []
    D = _fast.pencil_det_poly(core, factors)
    if not D and is_covering:
        # a common kernel of P and P^T, or a generic minor, is taken on the
        # n x n matrix: the plain route removes that kernel first
        n_by_n = covering.covering_matrix(Pm.blocks_A, Pm.multiplicities, 1, epsilon)
        return jump_function(n_by_n, epsilon, max_bits)
    if not D:
        # a generic minor is no product over blocks: every block owns its roots
        S = _self_reciprocal_part(_generic_minor_poly(rows, epsilon))
        parts = [(S, set(range(len(core.blocks))))]
    else:
        parts = [(f, {b}) for b, f in enumerate(factors)]

    # per part: its roots of unity by order, and the rest, which gives the
    # algebraic candidates
    pi_owners, rests = {}, []
    for f, owners in parts:
        ns, r = _cyclotomic_parts(f)
        for n in ns:
            pi_owners.setdefault(n, set()).update(owners)
        if len(r) >= 2:
            rests.append((r, owners))
    items = [("pi", f) for f in _pi_candidates_upper(sorted(pi_owners))]
    roots, gs, shared = _algebraic_candidates(rests)
    part = {id(x): i for x, i in roots}
    items += [("alg", x) for x, _ in roots]

    if items:
        items, encl = _separate_candidates(items, max_bits)
        gaps = [(Fraction(0), encl[0][0])]
        gaps += [(hi1, lo2) for (_, hi1), (lo2, _) in zip(encl, encl[1:])]
        gaps.append((encl[-1][1], None))
    else:
        gaps = [(Fraction(0), None)]
    owners = []
    for kind, val in items:
        if kind == "pi":
            # a root of unity of order n is w = e^(i*pi*f) with n the denominator of f/2
            owners.append(pi_owners[(val / 2).denominator])
            continue
        i = part[id(val)]
        val.cell = dyadic_cell(val)
        if not shared:
            owners.append(rests[i][1])
            continue
        # the enclosure holds no other candidate, so a g changes sign across
        # it exactly when val is one of its roots
        owners.append(set().union(*(
            rests[j][1] for j, g in enumerate(gs)
            if g is not None and P.sign_at(g, val.lo) != P.sign_at(g, val.hi))))
    sigs = _gap_signatures(core, gaps, owners)

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


def repeated_points(f: JumpFunction, reps: int):
    """The points of f over reps consecutive periods from 0, yielded in order."""
    for r in range(reps):
        shift = 2 * f.period * r
        for pt in f.points:
            yield _translate_point(pt, shift)


def with_period(f: JumpFunction, period) -> JumpFunction:
    """Re-express f over a larger fundamental period (an integer multiple)."""
    period = Fraction(period)
    reps = period / f.period
    if reps.denominator != 1 or reps <= 0:
        raise ValueError("new period must be a positive integer multiple")
    return JumpFunction(list(repeated_points(f, int(reps))), period, f.sigma0)


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
    allpts = [pt for f in fs for pt in with_period(f, period).points]
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


def covering_jump(sd: SeifertData, coeffs: dict, spec: CoveringSpec,
                  max_bits: int = DEFAULT_PRECISION_BITS):
    """Full pipeline: covering matrix, its jumps at theta/s, and the verdict."""
    cm = build_covering(sd, coeffs, spec)
    f = jump_function(cm, sd.epsilon, max_bits)
    g = scale_jump(f, Fraction(1, cm.s), max_bits)
    return g, period_2pi_test(g, max_bits)


# ---------------------------------------------------------------------------
# serialization


def point_to_obj(pt: JumpPoint) -> dict:
    """One point of a jump document.

    An algebraic point prints its t's cell (AlgReal.cell): from
    jump_function, and through every translation, scaling and mirror of
    such a point, that is the dyadic cell [k/2^P, (k+1)/2^P] of the root
    with the g of its first block (algebraic.dyadic_cell), so the bytes do
    not depend on how far t was refined.  The cell's poly is in primitive
    integer form and is printed monic: this is the one place that divides
    it by its leading coefficient.
    """
    if isinstance(pt.loc, PiLoc):
        return {"pi_rational": frac_str(pt.loc.frac), "scale": "1", "value": pt.value}
    loc = pt.loc
    poly, lo, hi = loc.t.cell
    obj = {
        "algebraic_t": {
            "poly": [frac_str(Fraction(c, poly[-1])) for c in poly],
            "interval": [frac_str(lo), frac_str(hi)],
        },
        "half": 0 if loc.offset == 0 else 1,
        "scale": frac_str(loc.scale),
        "value": pt.value,
    }
    if loc.offset not in (0, 2):
        obj["offset"] = frac_str(loc.offset)
    return obj


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
    lo, hi = theta_over_pi_enclosure(AlgLoc(t.copy()), 2 * bound.bit_length() + 20)
    x = _simplest_between(lo, hi)
    n = x.denominator * (2 if x.numerator % 2 else 1)  # the order of e^(i*pi*x)
    if n > bound or P.totient(n) > 2 * deg:
        return False
    g = P.gcd(t.poly, _cyclotomic_cayley_gcd(n))
    return P.degree(g) >= 1 and P.count_roots(g, t.lo, t.hi) > 0


def _read_t(at: dict, seen: dict) -> AlgReal:
    """The checked AlgReal of an algebraic_t, checked once per distinct poly and interval.

    seen maps the poly's strings to a checked AlgReal of that poly, whose
    square-freeness then holds for every interval, and the (poly, interval)
    strings to a checked point; mirrored, translated and scaled points of a
    document repeat both.  The strings are read once, by read_frac.
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
    return t.copy()


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

    A period that is not positive is refused with ValueError, and points
    that cannot be ordered within the default budget with UnresolvedComparison.
    """
    period = read_frac(obj["period"])
    if period <= 0:
        raise ValueError(f"period must be positive, got {obj['period']!r}")
    seen = {}
    points = sorted((point_from_obj(p, seen) for p in obj["points"]),
                    key=_cmp_key(DEFAULT_PRECISION_BITS))
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
