"""Integer kernels: one exact elimination, D(w), and the pencil signature.

Everything here works on plain Python ints (entries of scaled integer Seifert
matrices), which keeps the inner loops free of Fraction normalization.

One forward elimination, _eliminate, is behind every exact linear-algebra
step: fraction-free Bareiss elimination with column skipping, whose
divisions are exact by Sylvester's identity (Bareiss, 1968).  bareiss_det
is +-(its last pivot), rank_profile its pivot rows and columns, and
adj_det adds a fraction-free back-substitution on [M | I].

One object, the PencilCore, holds what D(w) and the signature samples
share: the core matrix M of a covering (its strand chains eliminated), the
constant c and the chains' signature coefficients, and M's connected blocks.
Its constructor converts the rows to ints once, forms each group's
S = A_kk - eps*A_kk^T once, and runs the one union-find (_components).
D(w) is read off it, D(w) = c * det M'(w), where M' is a polynomial matrix
of size (number of groups) x b (PencilCore's docstring has the identity); a
plain matrix is one group with N = 1 and c = 1.  An entry of M' is nonzero
only where M or M^T is, so under a symmetric permutation M' is the direct
sum of its blocks on the connected components of that pattern, and det M'
is the product of the blocks' determinants.  After the Cayley change
w = (1 - y)/(1 + y), under which (1 + y)^(n_b) det M'_b is even or odd in
y, each block's determinant is taken by bareiss_det at the integers
y = 0..h, h = ceil(n_b/2), interpolated in integers as a polynomial in y^2
on the nodes 0, 1, 4, ..., h^2, and taken back to w by the Cayley map of
exact.poly, which is its own inverse up to 2^n_b; the n x n matrix is not
formed.  D stays in ints, and every division on the way is exact: one that
is not raises ArithmeticError.

Signature samples are taken on the same PencilCore.
Haynsworth's inertia additivity, In(H) = In(H_11) + In(H / H_11), splits
the n x n signature into the chains' signatures, which are 0 for eps = 1
and a closed form for eps = -1, plus the signature of the Schur complement.
That complement is a hermitian (number of groups) x b matrix whose diagonal
blocks are the groups' pencils at w^N.  Each sample builds it in Gaussian
integers, in O(nnz) from rows kept once per jump function, one connected
block at a time: the complement is their direct sum, so by Sylvester's law
of inertia its signature is the sum of theirs, and a caller may rebuild only
the blocks whose signature can have changed since its last sample.  A sample at
t = +-1 on a group with 4 | N would hit w^N = 1 and is refused (None); the
caller moves it inside its gap.  A plain matrix is one group with N = 1, so
the same builder serves every pencil.  PencilCore's docstring has the proof
and the integer form.

The signature routine, herm_sig_fast, is the symmetric form of the same
elimination (an LDL* without divisions) on a hermitian Gaussian-integer
matrix held as sparse upper rows: row i is a dict {j: re} and a dict
{j: im} over its nonzero entries with j >= i, and the lower triangle is read
as their conjugate.  A step updates only the rows in the pivot row's
support, each over the union of its support and the pivot row's.  A Schur
complement with an all-zero diagonal but a nonzero entry takes one
congruence step onto a nonzero diagonal first, so the routine answers on
every hermitian input.

In both eliminations a row whose multiplier is 0 at some step is not
touched: by Sylvester's identity it only picks up the factor d_k / d_(k-1),
so its current value is its stored value times d_now / d_then, divided
exactly, where d_then is the divisor it was last brought up to date with.
On the covering matrices, which are sparse, most multipliers are 0.
"""

from __future__ import annotations

from math import lcm

from .exact import poly as P


def _eliminate(m, ncols=None):
    """Fraction-free Bareiss forward elimination of the integer rows m, in place.

    Column c < ncols (default: all) pivots on the first unused row, in the
    original order, with a nonzero entry there, or is skipped.  After k
    steps the entry (i, j) of an unused row is the minor on the pivot rows
    and i and the pivot columns and j: zero exactly where rational Gaussian
    elimination has a zero, so both pick the same pivots.  Rows with a zero
    multiplier are rescaled lazily (see the module docstring); a pivot row
    is brought up to date when picked, so from column pcol[k] on, row
    prow[k] is row k of the echelon form.  Returns (prow, pcol, last,
    parity): pivot rows and columns in pivot order, the last pivot (1 if
    none), and the parity of the permutation moving the pivot rows to the
    front, which picking position pos of the unused rows raises by pos.
    """
    then = [1] * len(m)  # the divisor each row was last brought up to date with
    avail = list(range(len(m)))
    prow, pcol = [], []
    prev, parity = 1, 0
    if ncols is None:
        ncols = len(m[0]) if m else 0
    for c in range(ncols):
        if not avail:
            break
        if m[avail[0]][c]:  # the common case, without a scan
            pos = 0
        else:
            pos = next((k for k, i in enumerate(avail) if m[i][c]), None)
            if pos is None:
                continue
        piv = avail.pop(pos)
        parity ^= pos & 1
        prow.append(piv)
        pcol.append(c)
        mp = m[piv]
        t = then[piv]
        if t != prev:  # bring the row up to date
            mp[c:] = [x * prev // t for x in mp[c:]]
        p = mp[c]
        for i in avail:
            mi = m[i]
            mic = mi[c]
            if not mic:
                continue
            t = then[i]
            if t != prev:
                mi[c:] = [x * prev // t for x in mi[c:]]
                mic = mi[c]
            mi[c + 1:] = [(p * a - mic * b) // prev for a, b in zip(mi[c + 1:], mp[c + 1:])]
            then[i] = p
        prev = p
    return prow, pcol, prev, parity


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix: +-(last pivot) of _eliminate."""
    m = [[int(x) for x in row] for row in rows]
    prow, _, last, parity = _eliminate(m)
    if len(prow) < len(m):
        return 0
    return -last if parity else last


def rank_profile(rows):
    """(pivot rows, pivot columns) of a maximal nonsingular submatrix, both sorted.

    rows is an integer matrix, possibly rectangular; each column pivots on
    the first unused row, in the original order (see _eliminate), so the
    pivot columns are the first independent columns, those of the RREF.
    """
    prow, pcol, _, _ = _eliminate([[int(x) for x in row] for row in rows])
    return sorted(prow), pcol


def adj_det(rows):
    """(adj M, det M) of a square integer matrix, as int rows and an int.

    Returns (None, 0) when M is singular.  _eliminate on [M | I] leaves
    [U | R] with U = R*M upper triangular, each of its rows being the same
    combination of the rows of M as of those of I; with d the last pivot,
    Y = d*M^(-1) = d*U^(-1)*R is +-adj M, integral, so the back-substitution
    y_k = (d*r_k - sum_(j>k) u_kj*y_j) / u_kk divides exactly.
    """
    n = len(rows)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prow, _, d, parity = _eliminate(m, n)
    if len(prow) < n:
        return None, 0
    u = [m[i] for i in prow]
    y = [None] * n
    for k in range(n - 1, -1, -1):
        uk = u[k]
        acc = [d * x for x in uk[n:]]
        for j in range(k + 1, n):
            if uk[j]:
                acc = [a - uk[j] * b for a, b in zip(acc, y[j])]
        y[k] = [a // uk[k] for a in acc]
    if parity:
        return [[-x for x in row] for row in y], -d
    return y, d


def interpolate_in_squares(values, odd: bool):
    """Ascending integer coefficients of the even (or odd) polynomial p with p(k) = values[k].

    p(y) = E(y^2), or y * E(y^2) when odd, with E of degree < len(values)
    (< len(values) - 1 when odd), and p must have integer coefficients.
    E is interpolated on the nodes z = k^2, k = 0, 1, ... (k = 1, 2, ... and
    the values divided by k when odd) by Newton's divided differences,
    which are integers: the divided differences of z^m at integer nodes
    are complete symmetric polynomials in the nodes.  A division that is
    not exact raises ArithmeticError.
    """
    if odd:
        if values[0]:
            raise ArithmeticError("values are not those of an odd polynomial")
        ks = range(1, len(values))
    else:
        ks = range(len(values))
    zs = [k * k for k in ks]
    coef = []
    for k in ks:
        q, r = divmod(values[k], k) if odd else (values[k], 0)
        if r:
            raise ArithmeticError("values are not those of an integer polynomial")
        coef.append(q)
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            q, r = divmod(coef[i] - coef[i - 1], zs[i] - zs[i - j])
            if r:
                raise ArithmeticError("values are not those of an integer polynomial")
            coef[i] = q
    poly = [coef[-1]] if coef else []
    for k in range(len(coef) - 2, -1, -1):
        # poly = poly * (z - z_k) + coef[k]
        zk = zs[k]
        poly = ([coef[k] - zk * poly[0]] + [a - zk * b for a, b in zip(poly, poly[1:])]
                + [poly[-1]])
    while poly and poly[-1] == 0:
        poly.pop()
    out = [0] * (2 * len(poly) - 1 + odd) if poly else []
    out[odd::2] = poly
    return out


def _components(adj):
    """Connected components of the graph with neighbour lists adj, as ascending index lists.

    One union-find pass over the edges; the components come in the order of
    their first index.
    """
    parent = list(range(len(adj)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, nbrs in enumerate(adj):
        for j in nbrs:
            a, b = find(i), find(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    comps = {}
    for i in range(len(adj)):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def pencil_det_poly(core, factors=None):
    """Ascending coefficients of D(w) = det(w*P - eps*P^T), read off the PencilCore of P.

    D(w) = core.c * det M'(w), and M'(w) is a direct sum over core.blocks,
    so det M' is the product of the blocks' determinants (PencilCore has the
    identity).  For a block of degree n_b, (1 + y)^n_b det M'_b(w) at
    w = (1 - y)/(1 + y) is the determinant of an integer matrix in y whose
    values at -y and y agree up to the sign (-eps)^(size of the block), so
    it is even or odd in y; it is taken at y = 0..h, h = ceil(n_b/2),
    interpolated as a polynomial in y^2 (interpolate_in_squares) and mapped
    back to w by the same Cayley map, poly.cayley, divided by 2^n_b; a
    division that is not exact raises ArithmeticError.  Returns ints, [] for
    D = 0 and [1] for the empty matrix.
    When D != 0 and factors is a list, the blocks' determinants det M'_b(w)
    are appended to it as integer coefficient lists, in the order of
    core.blocks, so that D = core.c * their product.
    """
    if core.c == 0:
        return []
    degree = [sum(abs(core.mults[g]) for g in grp) for _, grp, *_ in core.blocks]
    coefs = []  # per node y, per group: (x, z) on its diagonal block, (x, z) off it
    for y in range(max(((n + 1) // 2 for n in degree), default=0) + 1):
        coef = []
        for m in core.mults:
            lo, hi = (1 - y) ** abs(m), (1 + y) ** abs(m)
            q = (hi - lo) // (2 * y) if y else abs(m)  # sum of (1-y)^e (1+y)^(N-1-e)
            coef.append(((lo, -hi) if m > 0 else (-hi, lo), (q * (1 - y), -q * (1 + y))))
        coefs.append(coef)
    out = [core.c]
    dets = []
    for (blk, grp, _, _, entries), n in zip(core.blocks, degree):
        # entry (i, j) is x * a + z * at, with (x, z) the coefficients of its group pair
        vals = []
        for coef in coefs[:(n + 1) // 2 + 1]:
            mat = []
            for gi, row in zip(grp, entries):
                (dx, dz), (ox, oz) = coef[gi]
                mrow = [0] * len(blk)
                for j, a, at in row:
                    mrow[j] = dx * a + dz * at if grp[j] == gi else ox * a + oz * at
                mat.append(mrow)
            vals.append(bareiss_det(mat))
        d = interpolate_in_squares(vals, (-core.eps) ** len(blk) == -1)
        if not d:
            return []
        # the Cayley map is its own inverse up to 2^n: det M'_b = 2^(-n) cayley(d, n)
        scaled = P.cayley(d, n)
        if any(x & ((1 << n) - 1) for x in scaled):
            raise ArithmeticError("det M'(w) came out with a non-integer coefficient")
        dets.append([x >> n for x in scaled])
        out = P.mul(out, dets[-1])
    if factors is not None:
        factors.extend(dets)
    return out


def _gauss_pow(x: int, y: int, n: int):
    """(x + iy)^n as a pair of ints (real, imaginary)."""
    rx, ry = 1, 0
    while n:
        if n & 1:
            rx, ry = rx * x - ry * y, rx * y + ry * x
        x, y = x * x - y * y, 2 * x * y
        n >>= 1
    return rx, ry


def _half_turns(u: int, v: int, n: int) -> int:
    """floor(n * phi / pi), where phi in (0, pi) is the argument of +-(v + iu).

    floor(k * phi / pi) goes up by one each time Im((v + iu)^k) changes sign,
    counting 0 as positive: phi < pi, so it never goes up by two.  Needs
    w^n != 1, i.e. Im((v + iu)^n) != 0.
    """
    if u < 0:
        u, v = -u, -v
    x, y, q = 1, 0, 0
    for _ in range(n):
        x, y = x * v - y * u, x * u + y * v
        if (y < 0) != (q & 1):
            q += 1
    return q


class PencilCore:
    """The hermitian pencil of a covering matrix with its strand chains eliminated.

    A covering matrix in the strand-difference basis (see covsig.covering)
    has, per group k of N = |N_k| strands of sign g_k, a first strand and a
    chain of N - 1 difference strands; two groups meet only between their
    first strands.  Let A = A_kk and S = A - eps*A^T.  On its chain the
    pencil H(w) = c(w) * (w*M - eps*M^T), with c = 1/(w - 1) for eps = 1 and
    i/(w - 1) for eps = -1, is g * c(w) * T(w) (x) S, up to the transpose of
    T for g = -1, where T(w) is the (N-1)-square tridiagonal matrix with
    diagonal w + 1 and off-diagonals -w (above) and -1 (below).

    Signature of a chain.  Write w = e^(i*theta), 0 < theta < 2*pi, and
    phi = theta/2.  The matrix e^(-i*phi) T(w) is hermitian, with diagonal
    2 cos(phi) and off-diagonals -e^(+-i*phi); the diagonal unitary
    diag(e^(i*j*phi)) turns it into the real R = 2 cos(phi) I - (J + J^T),
    whose eigenvalues are 2 cos(phi) - 2 cos(pi*j/N), j = 1..N-1.  So R
    has floor(N*phi/pi) negative eigenvalues, none zero unless w^N = 1, and
    sigma(R) = N - 1 - 2*floor(N*phi/pi).  Since c(w) e^(i*phi) is
    1/(2i sin(phi)) for eps = 1 and 1/(2 sin(phi)) for eps = -1, with
    sin(phi) > 0, the chain is unitarily congruent to a positive multiple of
    g * R (x) (-iS) for eps = 1 and g * R (x) S for eps = -1, and the
    eigenvalues of a Kronecker product are the products of the factors'.
    Hence sigma(chain) = g * sigma(R) * sigma(-iS) = 0 for eps = 1, because
    S is real and skew, so -iS is hermitian with a spectrum symmetric about
    0; and sigma(chain) = g * sigma(R) * sigma(S) for eps = -1, with S real
    symmetric.  That is 0 only when sigma(S) = 0, as on the L(T, m) covers
    of trefoil and ALG, where S comes out as S_V (+) -S_V; so for eps = -1
    the chain term is added back (chain_signature), from the coefficients
    g * sigma(S) that the constructor takes with herm_sig_fast.

    The core.  Haynsworth's inertia additivity, In(H) = In(H_11) +
    In(H / H_11), with H_11 the chains (nonsingular off w^N = 1 when
    det S != 0) gives sigma(H) = sum of the chains' signatures +
    sigma(core).  The Schur complement H / H_11 is hermitian of size
    (number of groups) x b: the pencil entries between first strands,
    except that group k's diagonal block is the pencil of A_kk at w^N,
    (w^N A - eps*A^T) / (w^N - 1) for g = +1 and (w^N eps*A^T - A) /
    (w^N - 1) for g = -1, times i for eps = -1.  So the multiplicities enter
    only as exponents, the reparametrization theta -> N*theta.

    Integer form.  With z = v + iu, w = z / conj(z) is the point t = u/v
    (v = 0 is t = infinity, w = -1).  Each block of the core is X / (2i*r)
    with X = a*(M - eps*M^T) + i*b*(M + eps*M^T) Gaussian-integer and
    r = b: (a, b) = (v, u) between groups, and for group k, with
    z^N = x + iy, (a, b) = (g*x, y), M being the core matrix, whose
    diagonal block k is A_kk and whose block (k, l) is g_k*g_l*A_kl.
    Multiplied by the positive integer 2L, L = lcm(|y_k|), the core
    becomes the Gaussian-integer hermitian matrix with real part
    L*(M + M^T) and imaginary part -(a*L/b)*(M - M^T) for eps = 1, and real
    part (a*L/b)*(M + M^T) and imaginary part L*(M - M^T) for eps = -1.
    The core is the direct sum of its blocks on the connected components
    of M's pattern, so at() scales each block by its own 2L, with the lcm
    taken over the groups of its rows only; the signature is unchanged.
    A plain matrix P is one group with N = 1 and M = P, where this is the
    pencil of P itself, scaled by 2|u| (by 2 at w = -1).

    Determinant.  The same elimination on w*M - eps*M^T itself gives D(w).
    The chain of group k is g * T(w) (x) S, up to the transpose, and
    det T(w) = q_N(w) := 1 + w + ... + w^(N-1), by the three-term recurrence.
    Its Schur complement keeps the blocks w*M_kl - eps*M_lk^T between groups
    and turns group k's diagonal block into (w^N A - eps*A^T) / q_N(w)
    ((w^N eps*A^T - A) / q_N(w) for g = -1).  Multiplying row block k by
    q_N(w) clears that denominator, giving the polynomial matrix M'(w) with
    diagonal blocks w^N A - eps*A^T (w^N eps*A^T - A for g = -1) and blocks
    q_(N_k)(w) * (w*M_kl - eps*M_lk^T) off the diagonal.  So
    D(w) = c * det M'(w), with
    c = prod over the groups with N >= 2 of g^((N-1)*b) * det(S)^(N-1)
    (the attribute c); c = 0 is the case det S = 0 below, where D = 0.
    Row block k of M' has degree N in w.  An entry of M' is nonzero only
    where M or M^T is, so M' is the direct sum of its blocks M'_b on the
    connected components b of that pattern, and det M' = prod over b of
    det M'_b; a block may mix rows of several groups, of either sign.  Block b has degree
    n_b = sum over its rows of that row's |N| (n is the sum of the n_b), so
    with w = (1 - y)/(1 + y) and each row multiplied by (1 + y)^N,
    D~_b(y) = (1 + y)^(n_b) det M'_b(w) is the determinant of an integer
    polynomial matrix in y: entries (1-y)^N a - eps*(1+y)^N a^T
    (eps*(1-y)^N a^T - (1+y)^N a for g = -1) within a group, and
    Q_N(y) * ((1-y) a - eps*(1+y) a^T) between groups, where a = M[i][j],
    a^T = M[j][i] and Q_N(y) = sum over e < N of (1-y)^e (1+y)^(N-1-e).
    With Sch the Schur complement above, Sch(1/w) = (-eps/w) Sch(w)^T,
    and q_N(1/w) = w^(1-N) q_N(w); so w^(n_b) det M'_b(1/w) =
    (-eps)^|b| det M'_b(w), that is D~_b(-y) = (-eps)^|b| D~_b(y), with |b|
    the block's size: the values at y = 0..h, h = ceil(n_b/2), give those
    on all of -h..h, enough for degree n_b, and
    det M'_b(w) = 2^(-n_b) * sum_i d_i (1 - w)^i (1 + w)^(n_b - i) for the
    coefficients d_i of D~_b.  A core with one block is the whole M'.

    Blocks across samples.  Let Sch_b(w) be the Schur complement's block
    b, hermitian and continuous on the open upper half circle except at
    w^(N_k) = 1 for its groups k with |N_k| >= 2, and sigma_b its
    signature.  Up to a factor that does not vanish there, its determinant
    is det M'_b(w) / prod q_N(w), one q_N per row of a group of N strands,
    so away from those poles it vanishes only at roots of D_b = det M'_b,
    and sigma_b is constant on every arc that holds neither.  The
    unit-circle roots of D_b in the upper half are all among the candidates
    of jump_function, whose gaps partition (0, infinity) in t, so between
    the samples t_(i-1) and t_i the only candidate is candidate i - 1.  Hence sigma_b at t_i equals sigma_b at
    t_(i-1) unless that candidate is a root of D_b, or a pole of one of
    b's groups lies between the two samples, which poles() counts with
    _half_turns at each sample.  A pole inside a gap can move sigma_b and
    the chain term in opposite directions, so the chain term is taken at
    every sample.

    w^N = 1 at a sample makes the chain singular; at rational t that is only
    t = +-1 with 4 | N (+-1 and +-i are the only roots of unity in Q(i)),
    and at(u, v) returns None there.  When det S = 0 the chain is singular
    everywhere, but then every block that touches a difference strand is a
    multiple of S, so ker S on each difference strand is a common kernel of
    M and M^T.  D(w) is then 0, and jump_function takes the plain route on
    the n x n matrix, which removes that kernel first.
    """

    __slots__ = ("eps", "mults", "c", "chain_sigma", "blocks")

    def __init__(self, rows, eps: int, mults=(1,)):
        """rows: the core matrix M, of size len(mults) * b, with integer entries.

        mults are the signed strand counts N_k of the groups, in order; the
        default is a plain matrix.  Each S = A_kk - eps*A_kk^T of a group
        with N_k >= 2 is formed once: det(S)^(N_k - 1) enters c, and for
        eps = -1, chain_sigma[k] = g_k * sigma(S) (else 0).
        """
        rows = [[int(x) for x in row] for row in rows]
        n = len(rows)
        b = n // len(mults)
        self.eps = eps
        self.mults = tuple(mults)
        self.c, sigma = 1, []
        for a, m in enumerate(self.mults):
            sigma.append(0)
            if abs(m) < 2:
                continue
            r, g = a * b, 1 if m > 0 else -1
            S = [[rows[r + i][r + j] - eps * rows[r + j][r + i] for j in range(b)]
                 for i in range(b)]
            self.c *= g ** ((abs(m) - 1) * b) * bareiss_det(S) ** (abs(m) - 1)
            if eps == -1:
                upper = [dict(enumerate(row[i:], i)) for i, row in enumerate(S)]
                sigma[-1] = g * herm_sig_fast(upper, [{} for _ in S])
        self.chain_sigma = tuple(sigma)
        group = [i // b for i in range(n)]
        # sparse upper rows of M + M^T and M - M^T, and per row the entries
        # (j, M[i][j], eps*M[j][i]) of M'(w) where either is nonzero
        s = [{} for _ in range(n)]
        k = [{} for _ in range(n)]
        entries = [[] for _ in range(n)]
        for i in range(n):
            row, si, ki = rows[i], s[i], k[i]
            for j in range(i, n):
                a, c = row[j], rows[j][i]
                if a + c:
                    si[j] = a + c
                if a - c:
                    ki[j] = a - c
                if a or c:
                    entries[i].append((j, a, eps * c))
                    if j != i:
                        entries[j].append((i, c, eps * a))
        # per connected block: its indices, their groups, and its rows of s,
        # k and entries in local indices (ascending, so upper rows stay upper)
        self.blocks = []
        for blk in _components([si.keys() | ki.keys() for si, ki in zip(s, k)]):
            local = {i: a for a, i in enumerate(blk)}
            self.blocks.append((
                blk, [group[i] for i in blk],
                [{local[j]: x for j, x in s[i].items()} for i in blk],
                [{local[j]: x for j, x in k[i].items()} for i in blk],
                [[(local[j], a, at) for j, a, at in entries[i]] for i in blk]))

    def at(self, u: int, v: int, which=None):
        """Sparse upper rows (re, im) of a positive multiple of each block of the core at t = u/v.

        One pair per entry of self.blocks, in its local indices, or per
        index in which, in that order; the core is their direct sum, so its
        signature is the sum of theirs.  Needs u != 0.  Returns None when
        some group's w^N is 1, i.e. at t = +-1 when 4 | N_k (or at v = 0
        when N_k is even), whichever blocks are asked for.
        """
        coef = []
        for m in self.mults:
            x, y = _gauss_pow(v, u, abs(m))
            if y == 0:
                return None
            coef.append((x if m > 0 else -x, y))
        out = []
        blocks = self.blocks if which is None else [self.blocks[b] for b in which]
        for _, grp, s, k, _ in blocks:
            groups = set(grp)
            # u | y: Im((v + iu)^N) has only odd powers of u
            big = lcm(*(coef[g][1] for g in groups))
            off = v * big // u
            diag = {g: coef[g][0] * big // coef[g][1] for g in groups}
            re, im = [], []
            for gi, si, ki in zip(grp, s, k):
                ci = diag[gi]
                if self.eps == 1:
                    re.append({j: big * x for j, x in si.items()})
                    im.append({j: -(ci if grp[j] == gi else off) * x for j, x in ki.items()})
                else:
                    re.append({j: (ci if grp[j] == gi else off) * x for j, x in si.items()})
                    im.append({j: big * x for j, x in ki.items()})
            out.append((re, im))
        return out

    def poles(self, u: int, v: int):
        """Per block, the tuple floor(|N_k| * phi / pi) over its groups with |N_k| >= 2.

        phi = theta/2 at t = u/v, so an entry changes between two samples
        exactly when w^N_k = 1 somewhere between them, a pole of the block
        (see Blocks across samples).  Returns None where at() does.
        """
        turns = []
        for m in self.mults:
            if _gauss_pow(v, u, abs(m))[1] == 0:
                return None
            turns.append(_half_turns(u, v, abs(m)) if abs(m) >= 2 else 0)
        return [tuple(turns[g] for g in sorted(set(grp))) for _, grp, *_ in self.blocks]

    def chain_signature(self, u: int, v: int) -> int:
        """Sum of the eliminated chains' signatures at t = u/v (0 for eps = 1)."""
        return sum(sig * (abs(m) - 1 - 2 * _half_turns(u, v, abs(m)))
                   for m, sig in zip(self.mults, self.chain_sigma) if sig)


def herm_sig_fast(re, im):
    """Signature of a hermitian Gaussian-integer matrix.

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

    When every remaining diagonal entry is 0 but some entry is not, let a be
    the first nonzero row and h = R[a][b] its first nonzero entry.  The
    congruence row/col a += c * row/col b, with c = 1 if Re h != 0 and c = i
    otherwise, puts 2 Re h or 2 Im h on the diagonal at a; then a is the
    pivot, swapped in as usual.  E = I + c*e_a*e_b^T acts only on the indices
    not yet eliminated, so the stored rows are exactly those of Bareiss on
    the Gaussian-integer matrix E H E*: every division stays exact, and by
    Sylvester's law of inertia the signature is that of H.
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

    def lift(a):
        """Row/col a += c * row/col b, b the first column of row a (see above).

        The rows before a are zero, so only row a changes: R[a][a] becomes
        2 Re(conj(c) h), and R[a][j] += c * R[b][j] for j > a, which is
        c * conj(R[j][b]) for a < j < b and 0 at b, where R[b][b] = 0.
        """
        b = min(re[a].keys() | im[a].keys())
        mid = [j for j in range(a + 1, b) if b in re[j] or b in im[j]]
        for i in [a, b] + mid:
            refresh(i)
        ra, ia = re[a], im[a]
        rot = b not in ra  # c = i: c * (x + iy) = -y + ix
        ra[a] = 2 * (ia[b] if rot else ra[b])
        terms = [(j, re[j].get(b, 0), -im[j].get(b, 0)) for j in mid]
        terms += [(j, re[b].get(j, 0), im[b].get(j, 0)) for j in re[b].keys() | im[b].keys()]
        for j, x, y in terms:
            if rot:
                x, y = -y, x
            for row, z in ((ra, x), (ia, y)):
                z += row.get(j, 0)
                if z:
                    row[j] = z
                else:
                    row.pop(j, None)

    for k in range(n):
        piv = next((i for i in range(k, n) if i in re[i]), None)
        if piv is None:
            piv = next((i for i in range(k, n) if re[i] or im[i]), None)
            if piv is None:
                return sig
            lift(piv)
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
