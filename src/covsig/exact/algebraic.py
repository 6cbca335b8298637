"""Real algebraic numbers as (square-free polynomial, isolating interval) pairs.

Equality is certificate-based: two numbers are declared equal only when a gcd
of their defining polynomials provably has a common root in the overlap of
their isolating intervals.  Refinement by bisection alone can only separate,
never merge, so the comparison API is honest about running out of precision:
it returns UNRESOLVED instead of guessing.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from . import poly as P

DEFAULT_PRECISION_BITS = 256


class Comparison(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1
    UNRESOLVED = None


class AlgReal:
    """A real root of a square-free rational polynomial, isolated in (lo, hi).

    Besides the monic defining polynomial it keeps that polynomial's
    primitive integer form, which every sign evaluation uses, and the sign of
    the polynomial at lo once bisection has needed it.
    """

    __slots__ = ("poly", "lo", "hi", "_ip", "_slo", "_chain")

    def __init__(self, defining, lo, hi, _checked=False):
        defining = P.monic(P.trim([Fraction(c) for c in defining]))
        lo, hi = Fraction(lo), Fraction(hi)
        if P.degree(defining) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        self._set_poly(defining)
        self.lo = lo
        self.hi = hi
        if not _checked:
            sf = P.square_free_part(defining)
            if sf != defining:
                raise ValueError("defining polynomial must be square-free")
            if not (lo < hi):
                raise ValueError("empty isolating interval")
            if P.sign_at(self._ip, lo) == 0 or P.sign_at(self._ip, hi) == 0:
                raise ValueError("interval endpoints must not be roots")
            if P.count_roots(self.chain(), lo, hi) != 1:
                raise ValueError("interval does not isolate exactly one root")

    def _set_poly(self, monic_poly):
        self.poly = monic_poly
        self._ip = P.int_form(monic_poly)
        self._slo = 0  # not yet known
        self._chain = None

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return cls([-q, 1], q - 1, q + 1, _checked=True)

    def chain(self):
        if self._chain is None:
            self._chain = P._sturm_chain(self.poly)  # self.poly is square-free
        return self._chain

    @property
    def is_rational(self):
        return P.degree(self.poly) == 1

    def rational_value(self):
        if not self.is_rational:
            raise ValueError("not a rational point")
        return -self.poly[0] / self.poly[1]

    def width(self):
        return self.hi - self.lo

    def refine(self):
        """One bisection step; collapses to a linear poly on an exact hit.

        The poly is square-free and neither endpoint is a root, so the one
        root in (lo, hi) is simple and the poly changes sign across it once:
        the root lies in (lo, mid) iff the signs at lo and mid differ.  The
        sign at lo never changes while lo only moves onto points of that
        sign, so each step evaluates one sign, at mid, in integers.
        """
        mid = (self.lo + self.hi) / 2
        s = P.sign_at(self._ip, mid)
        if s == 0:
            w = self.width() / 4
            self._set_poly([-mid, Fraction(1)])
            self.lo, self.hi = mid - w, mid + w
            return
        if not self._slo:
            self._slo = P.sign_at(self._ip, self.lo)
        if s != self._slo:
            self.hi = mid
        else:
            self.lo = mid

    def refine_to(self, width):
        """Bisect until hi - lo <= width: the steps of refine(), on an integer grid.

        lo = a/q and hi = b/q over one denominator; each step doubles a, b
        and q, so that the midpoint is the integer a + b of the old grid,
        and its sign comes from homogeneous Horner at the unreduced (mid, q).
        The midpoints, the collapse on an exact hit (left to refine()) and
        the final (lo, hi, poly) are those of repeated refine(), without a
        Fraction per step.
        """
        width = Fraction(width)
        wn, wd = width.numerator, width.denominator
        while True:
            q = lcm(self.lo.denominator, self.hi.denominator)
            a = self.lo.numerator * (q // self.lo.denominator)
            b = self.hi.numerator * (q // self.hi.denominator)
            while (b - a) * wd > wn * q:
                mid = a + b
                a, b, q = 2 * a, 2 * b, 2 * q
                s = P._sign_at(self._ip, mid, q)
                if s == 0:
                    break
                if not self._slo:
                    self._slo = P._sign_at(self._ip, a, q)
                if s != self._slo:
                    b = mid
                else:
                    a = mid
            self.lo, self.hi = Fraction(a, q), Fraction(b, q)
            if (b - a) * wd <= wn * q:
                return
            self.refine()  # the loop stopped on an exact hit: collapse onto it

    def sign(self):
        if self.lo < 0 < self.hi and self.poly[0] == 0:
            # the interval isolates one root and 0 is a root inside it
            return 0
        while self.lo < 0 < self.hi:
            self.refine()
        if self.is_rational:
            v = self.rational_value()
            return (v > 0) - (v < 0)
        return 1 if self.lo >= 0 else -1

    def scaled(self, s):
        """The algebraic number s * self for a nonzero rational s."""
        s = Fraction(s)
        if s == 0:
            raise ValueError("zero scale")
        # root r of p  =>  s*r is a root of p(x/s)
        n = P.degree(self.poly)
        coeffs = [c * s ** (n - k) for k, c in enumerate(self.poly)]
        lo, hi = self.lo * s, self.hi * s
        if s < 0:
            lo, hi = hi, lo
        return AlgReal(coeffs, lo, hi, _checked=True)

    def neg(self):
        """-self: p(x) becomes (-1)^n p(-x), still monic, its integer form likewise."""
        n = len(self.poly) - 1
        a = AlgReal.__new__(AlgReal)
        a.poly = [-c if (n - k) & 1 else c for k, c in enumerate(self.poly)]
        a._ip = [-c if (n - k) & 1 else c for k, c in enumerate(self._ip)]
        a._slo, a._chain = 0, None
        a.lo, a.hi = -self.hi, -self.lo
        return a

    def __float__(self):
        a = self.copy()
        a.refine_to(Fraction(1, 1 << 60))
        return float((a.lo + a.hi) / 2)

    def copy(self):
        a = AlgReal.__new__(AlgReal)
        a.poly, a._ip, a._slo, a._chain = self.poly, self._ip, self._slo, self._chain
        a.lo, a.hi = self.lo, self.hi
        return a

    def __repr__(self):
        return f"AlgReal({self.poly}, ({self.lo}, {self.hi}))"


def isolate_real_roots(p, window=None):
    """Isolate the distinct real roots of p (in the open window, if given).

    Returns one AlgReal per root of the square-free part, in increasing order,
    with pairwise disjoint isolating intervals.  Sturm-sequence bisection.
    """
    p = P.trim([Fraction(c) for c in p])
    if P.is_zero(p):
        raise ValueError("cannot isolate roots of the zero polynomial")
    sf = P.square_free_part(p)
    if P.degree(sf) < 1:
        return []
    chain = P._sturm_chain(sf)
    isf = chain[0]  # the integer form of sf
    bound = P.cauchy_root_bound(sf)
    lo, hi = -bound, bound
    if window is not None:
        wlo, whi = Fraction(window[0]), Fraction(window[1])
        lo, hi = max(lo, wlo), min(hi, whi)
        if lo >= hi:
            return []
    # nudge endpoints off roots so that Sturm counts open intervals exactly
    step = Fraction(1, 2)
    while P.sign_at(isf, lo) == 0:
        lo += step * (hi - lo) / 4
        step /= 2
    step = Fraction(1, 2)
    while P.sign_at(isf, hi) == 0:
        hi -= step * (hi - lo) / 4
        step /= 2
    out = []
    stack = [(lo, hi, P.count_roots(chain, lo, hi))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(AlgReal(sf, a, b, _checked=True))
            continue
        mid = (a + b) / 2
        while P.sign_at(isf, mid) == 0:
            mid = (a + 2 * mid) / 3 if mid != a else (a + b) / 2
            mid += (b - mid) / 7  # move off the root deterministically
        cl = P.count_roots(chain, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, b, cnt - cl))
    out.sort(key=lambda r: r.lo)
    return out


def _cert_equal(a: AlgReal, b: AlgReal) -> bool:
    g = P.gcd(a.poly, b.poly)
    if P.degree(g) < 1:
        return False
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo >= hi:
        return False
    gchain = P._sturm_chain(g)  # g divides a square-free poly; gchain[0] is its integer form
    if P.sign_at(gchain[0], lo) == 0 or P.sign_at(gchain[0], hi) == 0:
        return False  # caller refines and retries
    if P.count_roots(gchain, lo, hi) < 1:
        return False
    achain, bchain = a.chain(), b.chain()
    if P.sign_at(a._ip, lo) == 0 or P.sign_at(a._ip, hi) == 0:
        return False
    if P.sign_at(b._ip, lo) == 0 or P.sign_at(b._ip, hi) == 0:
        return False
    return (P.count_roots(achain, lo, hi) == 1
            and P.count_roots(bchain, lo, hi) == 1)


def _as_scaled(x):
    if isinstance(x, AlgReal):
        return x.copy()
    a, s = x
    return a.scaled(Fraction(s))


def alg_compare(a, b, max_bits: int = DEFAULT_PRECISION_BITS) -> Comparison:
    """Compare two (optionally scaled) algebraic reals.

    Arguments may be AlgReal or (AlgReal, rational scale) pairs; the scale
    multiplies the value.  EQ is only ever produced by a certificate; interval
    refinement decides LT/GT, and exhausting max_bits yields UNRESOLVED.
    """
    x = _as_scaled(a)
    y = _as_scaled(b)
    limit = Fraction(1, 1 << max_bits)
    while True:
        if x.hi <= y.lo:
            return Comparison.LT
        if y.hi <= x.lo:
            return Comparison.GT
        if _cert_equal(x, y):
            return Comparison.EQ
        if x.width() < limit and y.width() < limit:
            return Comparison.UNRESOLVED
        x.refine()
        y.refine()
