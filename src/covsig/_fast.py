"""Integer kernels for the hot paths: determinant polynomials and signatures.

Everything here works on plain Python ints (entries of scaled integer Seifert
matrices), which keeps the inner loops free of Fraction normalization.

D(w) comes from one fraction-free integer solve Q X = den * P and the
characteristic polynomial of X; no rational matrix is formed.

The congruence-based signature routine is fraction-free Bareiss elimination
on a hermitian Gaussian-integer matrix.  It keeps only the upper triangle, as
separate re and im int rows, and reads the lower triangle as its conjugate.
It returns None when it hits a Schur complement with an all-zero diagonal,
and the caller falls back to the slower fully general rational elimination.

In both Bareiss routines (determinant and signature) a row whose multiplier
is 0 at some step is not touched: by Sylvester's identity it only picks up
the factor d_k / d_(k-1), so its current value is its stored value times
d_now / d_then, divided exactly, where d_then is the divisor it was last
brought up to date with.  On the covering matrices, which are sparse, most
multipliers are 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free Bareiss elimination; rows whose multiplier is 0 are
    rescaled lazily (see the module docstring).
    """
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    then = [1] * n  # the divisor each row was last brought up to date with
    sign = 1
    prev = 1

    def refresh(i, k):
        t = then[i]
        if t != prev:
            m[i][k:] = [x * prev // t for x in m[i][k:]]
            then[i] = prev

    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            then[k], then[piv] = then[piv], then[k]
            sign = -sign
        refresh(k, k)
        mk = m[k]
        p = mk[k]
        for i in range(k + 1, n):
            if not m[i][k]:
                continue
            refresh(i, k)
            mi = m[i]
            mik = mi[k]
            mi[k + 1:] = [(p * a - mik * c) // prev for a, c in zip(mi[k + 1:], mk[k + 1:])]
            then[i] = p
        prev = p
    refresh(n - 1, n - 1)
    return sign * m[-1][-1]


def _transpose_scaled(rows, c):
    n = len(rows)
    return [[c * rows[j][i] for j in range(n)] for i in range(n)]


def _newton_interp(xs, ys):
    """Ascending Fraction coefficients of the interpolating polynomial."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]  # divided differences, in place
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    # expand the Newton form
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]  # product (x - x_0)...(x - x_{k-1})
    for k in range(n):
        for i, a in enumerate(acc):
            poly[i] += coef[k] * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] -= xs[k] * a
            nxt[i + 1] += a
        acc = nxt
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def pencil_det_poly(p_rows, eps: int):
    """Ascending coefficients of D(w) = det(w*P - eps*P^T) for integer P.

    Shifts w = z + c, trying c = 0 first, so that Q = eps*P^T - c*P is
    nonsingular.  The integer solve Q X = den * P gives det(z*P - Q) =
    det(-Q) * sum_k cp_X[k] * z^k / den^k, where cp_X is the characteristic
    polynomial of X (each quotient is exact: the result has integer
    coefficients); then z = w - c is substituted back.  When every shift is
    singular, D is 0 if P and P^T share a kernel vector, and is otherwise
    rebuilt by evaluating integer determinants at degree+1 points and
    interpolating.
    """
    n = len(p_rows)
    if n == 0:
        return [Fraction(1)]
    p_rows = [[int(x) for x in row] for row in p_rows]
    q = _transpose_scaled(p_rows, eps)
    for c in (0, 1, -1, 2, -2, 3, -3):
        qm = [[q[i][j] - c * p_rows[i][j] for j in range(n)] for i in range(n)]
        dq = bareiss_det(qm)
        if dq:
            break
    else:
        # a common kernel of P and P^T makes D = 0; seeing it is cheaper than
        # interpolating
        stack = p_rows + _transpose_scaled(p_rows, 1)
        if DomainMatrix([[ZZ(x) for x in row] for row in stack], (2 * n, n), ZZ).rank() < n:
            return []
        xs = list(range(n + 1))
        ys = []
        for x in xs:
            m = [[x * p_rows[i][j] - q[i][j] for j in range(n)] for i in range(n)]
            ys.append(bareiss_det(m))
        return _newton_interp([Fraction(x) for x in xs], ys)
    dmQ = DomainMatrix([[ZZ(x) for x in row] for row in qm], (n, n), ZZ)
    dmP = DomainMatrix([[ZZ(x) for x in row] for row in p_rows], (n, n), ZZ)
    X, den = dmQ.solve_den(dmP)
    den = int(den)
    lead = (-1) ** n * dq  # det(-Q)
    in_z = [lead * int(a) // den**k for k, a in enumerate(X.charpoly())]
    # substitute z = w - c by binomial expansion
    out = [0] * (n + 1)
    for k, a in enumerate(in_z):
        if a == 0:
            continue
        for j in range(k + 1):
            out[j] += a * comb(k, j) * (-c) ** (k - j)
    while out and out[-1] == 0:
        out.pop()
    return [Fraction(a) for a in out]


def pencil_parts(p_rows):
    """(P + P^T, P - P^T) of an integer P: what every pencil sample is formed from."""
    n = len(p_rows)
    s = [[p_rows[i][j] + p_rows[j][i] for j in range(n)] for i in range(n)]
    k = [[p_rows[i][j] - p_rows[j][i] for j in range(n)] for i in range(n)]
    return s, k


def herm_pencil(parts, eps: int, u: int, v: int):
    """Hermitian Gaussian-integer matrix G with sigma(pencil at t=u/v) = sign(u)*sigma(G).

    The pencil is (w*P - eps*P^T)/(w - 1) for eps=+1 and i times that for
    eps=-1, evaluated at w = (1+it)/(1-it); clearing the positive real factors
    leaves G below.  parts is pencil_parts(P).  Entries are (re, im) int
    pairs.  Requires v > 0, u != 0.
    """
    s, k = parts
    if eps == 1:
        return [[(u * a, -v * c) for a, c in zip(sr, kr)] for sr, kr in zip(s, k)]
    return [[(v * a, u * c) for a, c in zip(sr, kr)] for sr, kr in zip(s, k)]


def herm_pencil_at_pi(parts, eps: int):
    """The pencil matrix at w = -1, as (re, im) int pairs; parts is pencil_parts(P)."""
    s, k = parts
    if eps == 1:
        return [[(a, 0) for a in sr] for sr in s]
    return [[(0, c) for c in kr] for kr in k]


def herm_sig_fast(m):
    """Signature of a hermitian matrix of (re, im) int pairs, or None.

    Fraction-free symmetric Bareiss elimination with diagonal pivoting; the
    pivots are the leading principal minors of the symmetrically permuted
    matrix, so the signature is the running sign agreement count (Jacobi).
    Only the upper triangle is read and kept, as separate re and im int rows;
    the lower triangle is its conjugate.  Row i's multiplier at step k is
    conj(R[k][i]).  When it is 0 the step would only rescale the row by
    d_k / d_(k-1), so the row is left alone: its stored value times
    d_now / d_then, divided exactly, is its current value, where d_then is
    the Bareiss divisor it was last brought up to date with.
    Returns None when some nonzero Schur complement has an all-zero diagonal;
    the caller must then use the general rational routine.
    """
    n = len(m)
    re = [[0] * i + [int(a) for a, _ in row[i:]] for i, row in enumerate(m)]
    im = [[0] * i + [int(b) for _, b in row[i:]] for i, row in enumerate(m)]
    then = [1] * n  # the divisor each row was last brought up to date with
    sig = 0
    prev = 1

    def refresh(i):
        t = then[i]
        if t != prev:
            re[i][i:] = [x * prev // t for x in re[i][i:]]
            im[i][i:] = [x * prev // t for x in im[i][i:]]
            then[i] = prev

    for k in range(n):
        piv = next((i for i in range(k, n) if re[i][i]), None)
        if piv is None:
            if any(re[i][j] or im[i][j] for i in range(k, n) for j in range(i, n)):
                return None
            return sig
        if piv != k:
            for i in range(k, n):
                refresh(i)
            _swap_upper(re, im, k, piv)
        refresh(k)
        kre, kim = re[k], im[k]
        d = kre[k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        for i in range(k + 1, n):
            ar, ai = kre[i], -kim[i]  # conj(R[k][i])
            if not (ar or ai):
                continue
            refresh(i)
            cre, cim, bre, bim = re[i][i:], im[i][i:], kre[i:], kim[i:]
            re[i][i:] = [(d * c - ar * br + ai * bi) // prev
                         for c, br, bi in zip(cre, bre, bim)]
            im[i][i:] = [(d * c - ar * bi - ai * br) // prev
                         for c, br, bi in zip(cim, bre, bim)]
            then[i] = d
        prev = d
    return sig


def _swap_upper(re, im, a, b):
    """Swap index a < b symmetrically in an upper-triangle hermitian store."""
    n = len(re)

    def get(i, j):
        return (re[i][j], im[i][j]) if i <= j else (re[j][i], -im[j][i])

    perm = list(range(n))
    perm[a], perm[b] = b, a
    full = {(i, j): get(perm[i], perm[j]) for i in range(a, n) for j in range(i, n)}
    for (i, j), (x, y) in full.items():
        re[i][j], im[i][j] = x, y
