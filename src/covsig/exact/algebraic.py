"""Real algebraic numbers as (square-free polynomial, isolating interval) pairs.

The polynomial is held in its primitive integer form (poly.int_form), the
one form every sign evaluation, root count and gcd takes; the interval's
ends are Fractions.

Equality is certificate-based: two numbers are declared equal only when a gcd
of their defining polynomials provably has a common root in the overlap of
their isolating intervals.  Refinement by bisection alone can only separate,
never merge, so the comparison API is honest about running out of precision:
it returns UNRESOLVED instead of guessing.

Isolation and refinement run in integers and land on the intervals of plain
bisection: the isolator walks the root-count bisection tree with Descartes'
rule of signs on Taylor-shifted integer polynomials (poly._descartes_cells),
and refine_to finds the cell that repeated bisection would end on by secant
steps on that cell's grid.  The same Descartes count (poly.count_roots)
validates an AlgReal, certifies equality and decides the rare dyadic cell
that leaves its isolating interval.

What is printed of an AlgReal is its `cell`, a (poly, lo, hi) triple fixed
when the number is made and untouched by refinement.  The cells that
jump_function prints are those of dyadic_cell: the level-P dyadic cell
around the root with P the least multiple of 64 at which that cell isolates
it, or the dyadic-root rule.  jump_function takes it once for each root t_h
of a rest's Cayley gcd, as isolated, and prints every lift of t_h on it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from ..readers import DEFAULT_PRECISION_BITS
from . import poly as P


class Comparison(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1
    UNRESOLVED = None


class AlgReal:
    """A real root of a square-free rational polynomial, isolated in (lo, hi).

    poly is the defining polynomial's primitive integer form, whatever
    rational multiple of it was given; the sign of poly at lo is kept once
    bisection has needed it.  cell is the (poly, lo, hi) that is printed:
    the one the number was made with, until a caller sets another
    (dyadic_cell); refinement never moves it.
    """

    __slots__ = ("poly", "lo", "hi", "cell", "_slo")

    def __init__(self, defining, lo, hi, _checked=False):
        defining = P.int_form(defining)
        lo, hi = Fraction(lo), Fraction(hi)
        if P.degree(defining) < 1:
            raise ValueError("defining polynomial must be nonconstant")
        self.poly, self._slo = defining, 0
        self.lo = lo
        self.hi = hi
        self.cell = (defining, lo, hi)
        if not _checked:
            if P.square_free_part(defining) != defining:
                raise ValueError("defining polynomial must be square-free")
            self._check_isolating()

    def _check_isolating(self):
        if not P.isolates(self.poly, self.lo, self.hi):
            raise ValueError(f"({self.lo}, {self.hi}) does not isolate a root of its polynomial")

    def with_interval(self, lo, hi, check=True):
        """The root of the same polynomial in (lo, hi), sharing its poly.

        With check, (lo, hi) must isolate a root (ValueError otherwise); the
        polynomial is not checked again.
        """
        a = self.copy()
        a.lo, a.hi = Fraction(lo), Fraction(hi)
        a.cell, a._slo = (a.poly, a.lo, a.hi), 0
        if check:
            a._check_isolating()
        return a

    def _collapse(self, x, w):
        """Become the rational x, the root of [-num, den], on (x - w, x + w)."""
        self.poly, self._slo = [-x.numerator, x.denominator], 0
        self.lo, self.hi = x - w, x + w

    @classmethod
    def from_rational(cls, q):
        q = Fraction(q)
        return cls([-q.numerator, q.denominator], q - 1, q + 1, _checked=True)

    @property
    def is_rational(self):
        return P.degree(self.poly) == 1

    def rational_value(self):
        if not self.is_rational:
            raise ValueError("not a rational point")
        return Fraction(-self.poly[0], self.poly[1])

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
        s = P.sign_at(self.poly, mid)
        if s == 0:
            self._collapse(mid, self.width() / 4)
            return
        if not self._slo:
            self._slo = P.sign_at(self.poly, self.lo)
        if s != self._slo:
            self.hi = mid
        else:
            self.lo = mid

    def refine_to(self, width):
        """Narrow (lo, hi) to width or less: the result of repeated refine(), found by secant.

        Bisection stops at the first level k with (hi - lo) / 2^k <= width,
        and its cells nest, so it ends on the level-k cell that holds the
        root.  That cell is found directly on the level-k grid j = 0 .. 2^k,
        over one denominator, by quadratic interval refinement (Abbott): a
        secant through the exact homogeneous-Horner values at the bracket's
        ends guesses which of 2^n parts holds the root, two signs check the
        guess, and n doubles on success and halves on failure.  A root on
        the grid is a midpoint that bisection hits on its way down; it then
        collapses onto the root and halves a centred interval, so it stops
        with the linear poly on the level-k width centred on the root.
        (lo, hi, poly) and the sign kept at lo are those of repeated refine().
        """
        if self.hi - self.lo <= width:
            return  # level 0: no bisection step
        width = Fraction(width)
        q = lcm(self.lo.denominator, self.hi.denominator)
        a = self.lo.numerator * (q // self.lo.denominator)
        h = self.hi.numerator * (q // self.hi.denominator) - a
        c = -(-h * width.denominator // (width.numerator * q))  # ceil((hi - lo) / width)
        k = (c - 1).bit_length()  # the least k with 2^k >= c
        if k == 0:
            return
        # grid point j is (a + j*h) / den, and the level-k cells are h / den wide
        a, den, ip = a << k, q << k, self.poly
        jl, jh = 0, 1 << k
        vl, vh = P._value_at(ip, a, den), P._value_at(ip, a + jh * h, den)
        pos = vl > 0  # the sign left of the root

        def value(j):
            return vl if j == jl else vh if j == jh else P._value_at(ip, a + j * h, den)

        e = 2
        while jh - jl > 1:
            n = min(e, (jh - jl).bit_length() - 1)
            step = (jh - jl) >> n
            num, dv = vl << n, vl - vh  # the secant's zero is at part num / dv
            if dv < 0:
                num, dv = -num, -dv
            m = jl + (2 * num + dv) // (2 * dv) * step
            vm = value(m)
            if vm:
                m2 = min(m + step, jh) if (vm > 0) == pos else m - step
                v2 = value(m2)
                if v2:
                    if (v2 > 0) != (vm > 0):  # the guessed part holds the root
                        jl, jh, vl, vh = (m, m2, vm, v2) if m < m2 else (m2, m, v2, vm)
                        e *= 2
                    elif m < m2:  # it does not: keep the side beyond m2
                        jl, vl, e = m2, v2, max(1, e // 2)
                    else:
                        jh, vh, e = m2, v2, max(1, e // 2)
                    continue
                m = m2
            # the root is grid point m, centred in a cell h / den wide
            self._collapse(Fraction(a + m * h, den), Fraction(h, 2 * den))
            return
        self.lo, self.hi = Fraction(a + jl * h, den), Fraction(a + jh * h, den)
        if not self._slo:
            self._slo = 1 if pos else -1

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

    def neg(self):
        """-self: p(x) becomes (-1)^n p(-x), still primitive with a positive leading coefficient.

        The cell goes to its mirror image, which is the dyadic cell of -self
        when it is that of self.
        """
        a = AlgReal.__new__(AlgReal)
        a.poly, a._slo = _mirror(self.poly), 0
        a.lo, a.hi = -self.hi, -self.lo
        poly, lo, hi = self.cell
        a.cell = (a.poly if poly is self.poly else _mirror(poly), -hi, -lo)
        return a

    def __float__(self):
        a = self.copy()
        a.refine_to(Fraction(1, 1 << 60))
        return float((a.lo + a.hi) / 2)

    def copy(self):
        a = AlgReal.__new__(AlgReal)
        a.poly, a._slo = self.poly, self._slo
        a.lo, a.hi, a.cell = self.lo, self.hi, self.cell
        return a

    def __repr__(self):
        return f"AlgReal({self.poly}, ({self.lo}, {self.hi}))"


def _mirror(p):
    """(-1)^deg * p(-x): the coefficients of odd distance from the top change sign."""
    n = len(p) - 1
    return [-c if (n - k) & 1 else c for k, c in enumerate(p)]


def isolate_real_roots(p):
    """Isolate the distinct real roots of p.

    Returns one AlgReal per root of the square-free part, in increasing order,
    with pairwise disjoint isolating intervals; the square-free part is
    taken here, with one gcd, so p need not be square-free.  Each root's
    cell is its isolating interval.  The intervals are those of root-count
    bisection from (-b, b), b = poly.root_bound, a power of two above every
    root's modulus (Fujiwara), so never a root: a node holding one root is
    emitted, one holding two or more is split at its midpoint, or off it by
    a fixed rule when the midpoint is a root.  The counts come from
    Descartes' rule of signs on the same tree (Collins-Akritas), in
    integers: see poly._descartes_cells.  The dyadic cells that jump
    documents print (dyadic_cell) do not depend on these intervals.
    """
    sf = P.square_free_part(p)
    if not sf:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if P.degree(sf) < 1:
        return []
    bound = P.root_bound(sf)
    out = []
    for a, b in P._descartes_cells(sf, -bound, bound):
        # one AlgReal is built; the others share its poly
        out.append(out[0].with_interval(a, b, check=False) if out
                   else AlgReal(sf, a, b, _checked=True))
    return out


def dyadic_cell(root: AlgReal):
    """The canonical (poly, lo, hi) to print for root: a function of its cell's poly and the root.

    root.cell = (g, lo, hi) must be the root as isolated, not a cell made
    here: g is the poly printed, and (lo, hi) isolates the root among g's
    roots.  root itself may be refined or not, possibly collapsed onto a
    linear poly; refinement never moves its cell.  For P = 64, 128, ...
    the root is located on the grid of step 2^-P; the first P at which it
    lies on the grid or its cell [k/2^P, (k+1)/2^P] isolates it (exactly
    one root of g inside, neither end a root) decides:
      - a cell that isolates is printed with g;
      - a root r = m/2^j on the grid (m odd) is printed as x - r on
        [r - 2^-Q, r + 2^-Q], Q the least multiple of 64 above j, so that
        both ends still have the denominator 2^Q.
    A cell inside (lo, hi) isolates with no polynomial work; otherwise a
    Descartes count (poly.count_roots) decides.  The answer depends on
    neither the isolation nor the refinement history, and the mirror image
    of the cell of r is the cell of -r.
    """
    ip, ilo, ihi = root.cell
    x = root.copy()
    p = 64
    while True:
        if not x.is_rational:
            x.refine_to(Fraction(1, 1 << p))
        if x.is_rational:
            r = x.rational_value() * (1 << p)
            k = r.numerator // r.denominator
            on_grid = r.denominator == 1
        else:
            # width <= 2^-p: at most the grid point k + 1 lies inside (lo, hi)
            k = (x.lo.numerator << p) // x.lo.denominator
            mid = Fraction(k + 1, 1 << p)
            on_grid = False
            if mid < x.hi:
                s = P.sign_at(ip, mid)
                if s == 0:
                    on_grid, k = True, k + 1
                elif s == P.sign_at(ip, x.lo):
                    k += 1
        if on_grid:
            r = Fraction(k, 1 << p)
            q = 64 * ((r.denominator.bit_length() - 1) // 64 + 1)
            return [-r.numerator, r.denominator], r - Fraction(1, 1 << q), r + Fraction(1, 1 << q)
        lo, hi = Fraction(k, 1 << p), Fraction(k + 1, 1 << p)
        if ilo < lo and hi < ihi:
            return ip, lo, hi
        if P.isolates(ip, lo, hi):
            return ip, lo, hi
        p += 64


def _cert_equal(a: AlgReal, b: AlgReal, g) -> bool:
    """A certificate that a = b, where g = gcd(a.poly, b.poly) is not constant.

    The overlap of the two intervals isolates a root of each poly and one of
    g (square-free, as it divides a square-free poly), so the three roots
    are one.  An end that is a root fails it: the caller refines and retries.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return all(P.isolates(ip, lo, hi) for ip in (g, a.poly, b.poly))


def alg_compare(a: AlgReal, b: AlgReal, max_bits: int = DEFAULT_PRECISION_BITS) -> Comparison:
    """Compare two algebraic reals; neither is refined in place.

    EQ is only ever produced by a certificate; interval refinement decides
    LT/GT, and exhausting max_bits yields UNRESOLVED.  The gcd of the two
    polys is taken once, and again only when a collapse changes a poly; a
    constant gcd means no common root, so only separation is left.
    """
    x, y = a.copy(), b.copy()
    limit = Fraction(1, 1 << max_bits)
    px = py = None
    coprime = False
    while True:
        if x.hi <= y.lo:
            return Comparison.LT
        if y.hi <= x.lo:
            return Comparison.GT
        if not coprime:
            if x.poly is not px or y.poly is not py:
                px, py = x.poly, y.poly
                g = P.gcd(px, py)
                coprime = P.degree(g) < 1
            if not coprime and _cert_equal(x, y, g):
                return Comparison.EQ
        if x.width() < limit and y.width() < limit:
            return Comparison.UNRESOLVED
        x.refine()
        y.refine()
