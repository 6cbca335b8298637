"""Univariate integer polynomials, coefficient lists in ascending order.

A polynomial has one form, its primitive integer form (int_form): coprime
int coefficients with a positive leading one, which has the roots of every
nonzero rational multiple.  Rational coefficients are converted once, where
they enter (AlgReal's constructor, a document read back); the monic Fraction
coefficients that a jump document prints are formed only where it is
printed (jumps.point_to_obj).  Fractions remain as the points at which a
polynomial is evaluated and as the ends of intervals.

Only what the root-isolation and jump-extraction code needs: products, gcd
and square-free part, exact division (by a cyclotomic polynomial, among
others), root counting and the test that an interval isolates a root.
The gcd also finds the roots that two blocks' rests share
(jumps._algebraic_candidates takes it pairwise).  It is the heuristic gcd
GCDHEU in Python ints (_inner_gcd): one integer gcd of the two
polynomials' values at a power of two, read back as a polynomial from its
digits and checked by exact division.  Python's bigint gcd does the work,
and the coefficient growth of remainder sequences on the large determinant
polynomials of covering computations is avoided (a primitive
pseudo-remainder gcd was 30x slower at degree 60); that sequence remains
only as the fallback once every evaluation point has failed.

Sign-only questions are answered in integers: `sign_at` takes an integer
coefficient list and a rational point n/d, and `_value_at` gives the
value behind that sign, times a positive integer, for the secant steps of
refinement.  `count_roots` counts the roots in an interval by Descartes'
rule of signs on Taylor-shifted integer polynomials (Collins-Akritas), on
the bisection tree that isolates roots (`_descartes_cells`).  Isolation
counts this way, and so does `isolates`, the one test that an interval
isolates a root, behind the check of an isolating interval, the equality
certificate, the dyadic cell and the root-of-unity test.  `cayley`, by
the same unit shifts, is covsig's one Cayley map: it gives the
candidates' Cayley numerators in t = tan(theta/2).

Products and gcds go by Kronecker substitution: a polynomial whose
coefficients are bounded by 2^(k-1) is one integer, its value at 2^k
(`at_two_power`), and that integer's balanced base-2^k digits give the
coefficients back (`from_two_power`, linear in the size of the integer).
`mul` takes one integer product this way, `_inner_gcd` one integer gcd,
and _fast.minor_poly reads a block's determinant off its one value at 2^k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd as int_gcd
from math import lcm


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p):
    return len(p) - 1  # -1 for the zero polynomial


def digit_bits(bound: int) -> int:
    """The least multiple k of 8 with 2^(k-1) > bound >= 0: the digit width that holds |c| <= bound."""
    return (bound.bit_length() + 8) // 8 * 8


def _middles(k: int, count: int) -> int:
    """The value at 2^k of count digits 2^(k-1): what shifts balanced digits to nonnegative ones."""
    return int.from_bytes((bytes(k // 8 - 1) + b"\x80") * count, "little")


def at_two_power(p, k: int) -> int:
    """p(2^k) for an int list p of balanced base-2^k digits, k a multiple of 8: linear, by bytes.

    Each p_i has -2^(k-1) <= p_i < 2^(k-1).  Adding 2^(k-1) to every digit
    makes them all nonnegative, so each is one to_bytes call and their
    concatenation is one integer.
    """
    w, top = k // 8, 1 << (k - 1)
    raw = b"".join([(c + top).to_bytes(w, "little") for c in p])
    return int.from_bytes(raw, "little") - _middles(k, len(p))


def from_two_power(v: int, k: int, count: int):
    """The count balanced base-2^k digits of v, least significant first: the p with p(2^k) = v.

    Each digit c has -2^(k-1) <= c < 2^(k-1), and k is a multiple of 8.
    As in at_two_power, adding 2^(k-1) to every digit makes them all
    nonnegative, so one to_bytes call gives them and each is a slice:
    linear in the size of v.  A v with no such digits raises
    ArithmeticError.
    """
    w = k // 8
    try:
        raw = (v + _middles(k, count)).to_bytes(w * count, "little")
    except OverflowError:
        raise ArithmeticError(
            f"a value of {v.bit_length()} bits has no {count} digits in base 2^{k}") from None
    top = 1 << (k - 1)
    return [int.from_bytes(raw[i:i + w], "little") - top for i in range(0, w * count, w)]


def mul(p, q):
    """Product of two int lists, by Kronecker substitution.

    Every coefficient of p*q is at most min(len) * max|p| * max|q| = B in
    absolute value, so with 2^(k-1) > B the product of p(2^k) and q(2^k)
    holds the product's coefficients as its balanced base-2^k digits: one
    integer product, which Python multiplies by Karatsuba.
    """
    bound = min(len(p), len(q)) * max(map(abs, p), default=0) * max(map(abs, q), default=0)
    if not bound:
        return []
    k = digit_bits(bound)
    return trim(from_two_power(at_two_power(p, k) * at_two_power(q, k), k, len(p) + len(q) - 1))


def taylor_shift(p, c):
    """Coefficients of p(x + c): Horner's scheme, O(deg^2) multiply-adds by c."""
    p = list(p)
    n = len(p)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            p[j] += c * p[j + 1]
    return p


def _shift_by_one(coef):
    """Ascending coefficients of p(x + 1), given those of p(x)."""
    r = coef[::-1]  # Horner's scheme on the descending coefficients, as running sums
    for k in range(len(r), 1, -1):
        r[:k] = accumulate(r[:k])
    return r[::-1]


def cayley(p, n):
    """Ascending int coefficients of sum_k p_k (1 - x)^k (1 + x)^(n - k), for deg p <= n.

    That is b(1 + x) for b(u) = u^n a(2/u) = sum_k a_k 2^k u^(n-k) and
    a(y) = p(y - 1) = q(-y), where q(y) = p(-y - 1) is p(-y) shifted by one:
    two unit shifts and a reversal, O(n^2) integer additions.  As
    (1 - x)/(1 + x) is its own inverse, cayley(cayley(p, n), n) = 2^n p.
    """
    p = list(p) + [0] * (n + 1 - len(p))
    q = _shift_by_one([-c if k & 1 else c for k, c in enumerate(p)])
    return _shift_by_one([(-1 if k & 1 else 1) * q[k] << k for k in range(n, -1, -1)])


def _scale_arg(q, r, s):
    """s^d * q(r*x/s) for ints r, s > 0: the coefficients q_i * r^i * s^(d-i)."""
    out = list(q)
    f = 1
    for i in range(len(out) - 1, -1, -1):
        out[i] *= f
        f *= s
    if r != 1:
        f = 1
        for i in range(len(out)):
            out[i] *= f
            f *= r
    return out


def _descartes_cells(ip, lo, hi):
    """The isolating cells of ip on (lo, hi), left to right.

    lo and hi are not roots of the square-free integer polynomial ip.  A
    node (a, b) of the bisection tree carries q, a positive integer multiple
    of ip(a + (b - a) x), whose roots in (0, 1) are those of ip in (a, b).
    Descartes' rule bounds their number by v, the sign variations of
    x^d q(1/x) after a unit Taylor shift, with v's parity, so v <= 1 is
    exact: v = 0 ends a branch and v = 1 is a node with one root.  A node
    with v >= 2 splits at lam = 1/2 or, if that is a root (q(lam) = 0), at
    the point of the rule lam <- 2 lam / 3, lam <- lam + (1 - lam) / 7; for
    lam = r/s its halves are s^d q(r x / s) and that shifted by one and
    rescaled by (s - r) / r.

    The cells are those of root-count bisection, which splits only nodes
    holding two or more roots and emits the highest node holding exactly
    one.  Such nodes have v >= 2 too, so this tree contains that one.  A
    node's root count is the number of v = 1 cells below it: once both
    halves of a node are done, the node takes the place of their cells if
    they are exactly one.
    """
    d = hi - lo
    # q(x) = den^deg * ip((num + wn*x) / den) for lo = num/den, hi - lo = wn/den
    den = lcm(lo.denominator, d.denominator)
    num, wn = lo.numerator * (den // lo.denominator), d.numerator * (den // d.denominator)
    q0 = _scale_arg(taylor_shift(_scale_arg(ip, 1, den), num), wn, 1)
    out = []
    todo = [(q0, lo, hi, None)]
    while todo:
        q, a, b, start = todo.pop()
        if q is None:  # both halves of (a, b) are done
            if len(out) == start + 1:
                out[start] = (a, b)
            continue
        v = _variations(_shift_by_one(q[::-1]))
        if v == 0:
            continue
        if v == 1:
            out.append((a, b))
            continue
        lam = Fraction(1, 2)
        left = _scale_arg(q, 1, 2)
        while not sum(left):  # q(lam) = 0: the midpoint is a root
            lam = 2 * lam / 3
            lam += (1 - lam) / 7
            left = _scale_arg(q, lam.numerator, lam.denominator)
        r, s = lam.numerator, lam.denominator
        right = _shift_by_one(left)
        if s - r != r:
            right = _scale_arg(right, s - r, r)
        mid = a + lam * (b - a)
        todo.append((None, a, b, len(out)))
        todo.append((right, mid, b, None))
        todo.append((left, a, mid, None))
    return out


def _variations(coeffs):
    """Sign variations of a coefficient list, counted up to 2."""
    v, last = 0, 0
    for c in coeffs:
        if c:
            if last and (c > 0) != (last > 0):
                v += 1
                if v == 2:
                    return 2
            last = c
    return v


def count_roots(ip, lo, hi):
    """Number of roots of the square-free integer polynomial ip in (lo, hi).

    lo < hi are rationals and neither is a root.  Each cell of
    _descartes_cells holds exactly one root, so their number is the count.
    """
    return len(_descartes_cells(ip, lo, hi))


def isolates(ip, lo, hi):
    """Does (lo, hi) isolate a root of the square-free integer polynomial ip?

    That is: lo < hi, neither end is a root, and ip has exactly one root
    between them (count_roots).
    """
    return lo < hi and sign_at(ip, lo) != 0 and sign_at(ip, hi) != 0 and count_roots(ip, lo, hi) == 1


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def exact_quo(p, d):
    """p / d when the nonzero int list d divides the nonzero int list p in Z[x]; None when not.

    Each step runs over the nonzero coefficients of d only: Phi_n is sparse
    when n has few distinct primes (Phi_(2^k) has two terms).
    """
    dd, lead = len(d) - 1, d[-1]
    if len(p) <= dd:
        return None
    terms = [(i, b) for i, b in enumerate(d[:-1]) if b]
    r, quo = list(p), [0] * (len(p) - dd)
    for k in range(len(quo) - 1, -1, -1):
        c, rem = divmod(r[k + dd], lead)
        if rem:
            return None
        quo[k] = c
        if c:
            for i, b in terms:
                r[k + i] -= c * b
    return None if any(r[:dd]) else quo


_HEU_TRIES = 6  # evaluation points 2^k of the heuristic gcd, k doubling
heu_fallbacks = 0  # gcds that _inner_gcd took by the remainder sequence, all points having failed


def _pseudo_remainder(f, g):
    """lc(g)^j * f modulo the nonzero g, some j >= 0: a primitive remainder sequence's step."""
    r, dg = trim(f), len(g) - 1
    while len(r) > dg:
        c, k = r[-1], len(r) - 1 - dg
        r = [g[-1] * a for a in r]
        for i, b in enumerate(g):
            r[k + i] -= c * b
        r = trim(r)
    return r


def _inner_gcd(p, q):
    """(h, p / h) for h a gcd in Z[x] of the nonzero int lists p and q.

    h is the gcd of the contents times a primitive gcd, and (h, p / h) is
    sympy's dup_inner_gcd(p, q) over ZZ up to a common sign.  GCDHEU (Char,
    Geddes and Gonnet, J. Symbolic Comput. 7, 1989) at powers of two: with
    the common content out of p and q, leaving f and g, the integer gcd of
    f(x) and g(x) at x = 2^k > 4 min(|f|, |g|) + 58, read back from its
    balanced base-x digits, has as its primitive part the primitive gcd if
    that divides both (a constant read-back is 1, which does).  At most
    _HEU_TRIES points, k doubling, then the primitive remainder sequence,
    which always ends (counted in heu_fallbacks).
    """
    global heu_fallbacks
    c = int_gcd(*p, *q)
    f, g = [a // c for a in p], [a // c for a in q]
    if len(f) == 1 or len(g) == 1:
        return [c], f
    fn, gn = max(map(abs, f)), max(map(abs, g))
    # every coefficient of f and g is a balanced digit at 2^k, below 2^(k-1) in size
    k = digit_bits(max(fn, gn, 2 * min(fn, gn) + 29))
    for _ in range(_HEU_TRIES):
        hh = int_gcd(at_two_power(f, k), at_two_power(g, k))
        h = int_form(from_two_power(hh, k, hh.bit_length() // k + 2))
        if h == [1]:  # coprime: 1 divides both
            return [c], f
        cff = exact_quo(f, h)
        if cff is not None and exact_quo(g, h) is not None:
            return [c * a for a in h], cff
        k *= 2
    heu_fallbacks += 1
    a, b = f, g
    while b:
        a, b = b, int_form(_pseudo_remainder(a, b))
    h = int_form(a)
    return [c * e for e in h], exact_quo(f, h)


def gcd(p, q):
    """The gcd over Q of two int lists, in its primitive integer form; [] when both are zero.

    The gcd over ZZ keeps the gcd of the two contents, which int_form
    divides out.
    """
    p, q = trim(p), trim(q)
    if not p or not q:
        return int_form(p or q)
    return int_form(_inner_gcd(p, q)[0])


def square_free_part(p):
    """The square-free part of a rational polynomial, in its primitive integer form.

    That is p / gcd(p, p') for p in primitive integer form: the exact
    integer quotient that the ZZ gcd returns with the gcd.
    """
    p = int_form(p)
    if degree(p) < 1:
        return p
    return int_form(_inner_gcd(p, derivative(p))[1])


def int_form(p):
    """The primitive integer form of a rational or int list: coprime ints, the leading one positive.

    It is p times a nonzero rational, so it has p's roots; [] for p = 0.
    """
    p = trim(p)
    if not p:
        return []
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = int_gcd(*ints) if ints[-1] > 0 else -int_gcd(*ints)
    return [c // g for c in ints]


def at_power(p, k):
    """Coefficients of p(w^k)."""
    out = [0] * (k * (len(p) - 1) + 1)
    out[::k] = p
    return out


def _primes(n):
    """The distinct prime factors of n >= 1, ascending, by trial division to sqrt(n)."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def totient(n):
    """Euler's phi(n) = n * prod over the primes q of n of (1 - 1/q)."""
    for q in _primes(n):
        n -= n // q
    return n


@cache
def _cyclotomic(n):
    # Phi_(r*q)(w) = Phi_r(w^q) / Phi_r(w) for a prime q not dividing r, an
    # exact division by a monic integer polynomial, and Phi_n(w) = Phi_r(w^(n/r))
    # for r the product of the primes of n
    phi, r = [-1, 1], 1
    for q in _primes(n):
        phi = exact_quo(at_power(phi, q), phi)
        r *= q
    return tuple(at_power(phi, n // r))


def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending ints."""
    return list(_cyclotomic(n))


def root_bound(p):
    """A power of two b = 2^(e+1) above the modulus of every root of the int list p.

    e is the least integer >= 0 with |a_(n-k)| <= |a_n| * 2^(k(e-1)) for
    every k >= 1, a_0 halved, tested in ints: by Fujiwara's bound every
    root then has |z| <= 2^e.  b has the bits of the largest
    |a_(n-k)/a_n|^(1/k), where Cauchy's 1 + max |a_k/a_n| has those of the
    largest ratio, and each bit is one more level of bisection.
    """
    p = trim(p)
    n, e = degree(p), 0
    for k in range(1, n + 1):
        # |a_(n-k)| * 2^k <= |a_n| * 2^(ke), with 2^(k-1) for k = n
        a, lead = abs(p[n - k]) << (k - (k == n)), abs(p[-1])
        if a > lead << (k * e):
            e = -(-(a.bit_length() - lead.bit_length() + 1) // k)
            while a <= lead << (k * (e - 1)):
                e -= 1
    return Fraction(2 << e)


def sign_at(ip, x):
    """Sign of the integer polynomial ip at the rational x = n/d, d > 0."""
    return _sign(_value_at(ip, x.numerator, x.denominator))


def _value_at(ip, n, d):
    """d^deg * ip(n/d) for ints n and d > 0, reduced or not: ip(n/d) times a positive int.

    Homogeneous Horner, sum_i ip[i] * n^i * d^(deg-i), in Python ints with
    no gcd per step.  Values taken over one d are in the ratio of the values
    of ip, which is what a secant step needs.
    """
    acc = 0
    dk = 1
    for c in reversed(ip):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _sign(x):
    return (x > 0) - (x < 0)


