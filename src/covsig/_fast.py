"""Integer kernels for the hot paths: determinant polynomials and signatures.

Everything here works on plain Python ints (entries of scaled integer Seifert
matrices), which keeps the inner loops free of Fraction normalization.

D(w) comes from one fraction-free integer solve Q X = den * P and the
characteristic polynomial of X; no rational matrix is formed.

The congruence-based signature routine is fraction-free Bareiss elimination
(an LDL* without divisions) on a hermitian Gaussian-integer matrix held as
sparse upper rows: row i is a dict {j: re} and a dict {j: im} over its
nonzero entries with j >= i, and the lower triangle is read as their
conjugate.  pencil_parts builds the rows of P + P^T and P - P^T once per
jump function, and each signature sample scales them in O(nnz).  A step of
the elimination updates only the rows in the pivot row's support, each over
the union of its support and the pivot row's.  The routine returns None when
it hits a Schur complement with an all-zero diagonal, and the caller falls
back to the slower fully general rational elimination.

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
    """Sparse upper rows of (P + P^T, P - P^T) for an integer P.

    Row i of each is a dict {j: entry} over the nonzero entries with j >= i.
    Every pencil sample is a scaling of these rows.
    """
    n = len(p_rows)
    s = [{} for _ in range(n)]
    k = [{} for _ in range(n)]
    for i in range(n):
        row, si, ki = p_rows[i], s[i], k[i]
        for j in range(i, n):
            a, b = row[j], p_rows[j][i]
            if a + b:
                si[j] = a + b
            if a - b:
                ki[j] = a - b
    return s, k


def herm_pencil(parts, eps: int, u: int, v: int):
    """Hermitian Gaussian-integer G with sigma(pencil at t=u/v) = sign(u)*sigma(G).

    The pencil is (w*P - eps*P^T)/(w - 1) for eps=+1 and i times that for
    eps=-1, evaluated at w = (1+it)/(1-it); clearing the positive real factors
    leaves G below.  parts is pencil_parts(P); G comes back as the sparse
    upper rows (re, im) that herm_sig_fast takes.  Requires v > 0, u != 0.
    """
    s, k = parts
    if eps == 1:
        return ([{j: u * a for j, a in r.items()} for r in s],
                [{j: -v * c for j, c in r.items()} for r in k])
    return ([{j: v * a for j, a in r.items()} for r in s],
            [{j: u * c for j, c in r.items()} for r in k])


def herm_pencil_at_pi(parts, eps: int):
    """The pencil matrix at w = -1 as sparse upper rows (re, im); parts is pencil_parts(P)."""
    s, k = parts
    if eps == 1:
        return s, [{} for _ in s]
    return [{} for _ in k], k


def herm_sig_fast(re, im):
    """Signature of a hermitian Gaussian-integer matrix, or None.

    re[i] and im[i] are dicts {j: int} holding row i's entries with j >= i;
    the lower triangle is their conjugate.  The rows are copied, not modified.
    Fraction-free symmetric Bareiss elimination with diagonal pivoting; the
    pivots are the leading principal minors of the symmetrically permuted
    matrix, so the signature is the running sign agreement count (Jacobi).
    Step k updates only the rows i in the support of row k, each over the
    union of its own support and row k's, since row i's multiplier is
    conj(R[k][i]).  Any other row would only be rescaled by d_k / d_(k-1),
    so it is left alone: its stored value times d_now / d_then, divided
    exactly, is its current value, where d_then is the Bareiss divisor it was
    last brought up to date with.
    Returns None when some nonzero Schur complement has an all-zero diagonal;
    the caller must then use the general rational routine.
    """
    n = len(re)
    re = [{j: x for j, x in r.items() if x} for r in re]
    im = [{j: x for j, x in r.items() if x} for r in im]
    then = [1] * n  # the divisor each row was last brought up to date with
    sig = 0
    prev = 1

    def refresh(i):
        t = then[i]
        if t != prev:
            re[i] = {j: x * prev // t for j, x in re[i].items()}
            im[i] = {j: x * prev // t for j, x in im[i].items()}
            then[i] = prev

    def swap(a, b):
        """Exchange indices a < b symmetrically; the rows before a are done."""
        ra, ia = re[a], im[a]
        # rows between a and b whose entry in column b changes
        mid = [j for j in range(a + 1, b)
               if b in re[j] or b in im[j] or j in ra or j in ia]
        for i in [a, b] + mid:
            refresh(i)
        ra, ia, rb, ib = re[a], im[a], re[b], im[b]
        # new row a: R[b][b] on the diagonal, conj(R[j][b]) at a < j < b,
        # conj(R[a][b]) at b and R[b][j] at j > b
        nra = {j: x for j, x in rb.items() if j > b}
        nia = {j: y for j, y in ib.items() if j > b}
        nra[a] = rb[b]
        for j, rj, ij in [(b, ra, ia)] + [(j, re[j], im[j]) for j in mid]:
            if b in rj:
                nra[j] = rj[b]
            if b in ij:
                nia[j] = -ij[b]
        # new row b: R[a][j] for j > b; its diagonal R[a][a] is 0, which is
        # why a is swapped out
        nrb = {j: x for j, x in ra.items() if j > b}
        nib = {j: y for j, y in ia.items() if j > b}
        # rows between: (j, b) becomes conj(R[a][j])
        for j in mid:
            rj, ij = re[j], im[j]
            rj.pop(b, None)
            ij.pop(b, None)
            if j in ra:
                rj[b] = ra[j]
            if j in ia:
                ij[b] = -ia[j]
        re[a], im[a], re[b], im[b] = nra, nia, nrb, nib

    for k in range(n):
        piv = next((i for i in range(k, n) if i in re[i]), None)
        if piv is None:
            if any(re[i] or im[i] for i in range(k, n)):
                return None
            return sig
        if piv != k:
            swap(k, piv)
        refresh(k)
        kre, kim = re[k], im[k]
        d = kre[k]
        sig += 1 if (d > 0) == (prev > 0) else -1
        support = (kre.keys() | kim.keys()) - {k}
        krow = [(j, kre.get(j, 0), kim.get(j, 0)) for j in sorted(support)]
        for pos, (i, ar, ai) in enumerate(krow):
            ai = -ai  # the multiplier conj(R[k][i])
            refresh(i)
            ri, ii = re[i], im[i]
            # off row k's support the update is the exact rescale d / prev
            nre = {j: d * x // prev for j, x in ri.items() if j not in support}
            nim = {j: d * x // prev for j, x in ii.items() if j not in support}
            for j, br, bi in krow[pos:]:
                x = (d * ri.get(j, 0) - ar * br + ai * bi) // prev
                if x:
                    nre[j] = x
                y = (d * ii.get(j, 0) - ar * bi - ai * br) // prev
                if y:
                    nim[j] = y
            re[i], im[i] = nre, nim
            then[i] = d
        prev = d
    return sig
