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
Its constructor reads the rows as given, keeps each entry once, forms
each S = A_kk - eps*A_kk^T once, and runs the one union-find (_components).
D(w) is read off it, D(w) = c * det M'(w), where M' is a polynomial matrix
of size (number of groups) x b (PencilCore's docstring has the identity); a
plain matrix is one group with N = 1 and c = 1.  An entry of M' is nonzero
only where M or M^T is, so under a symmetric permutation M' is the direct
sum of its blocks on the connected components of that pattern, and det M'
is the product of the blocks' determinants.  One routine, minor_poly,
makes each block's polynomial: its determinant, or where that is 0 a
generic maximal minor (generic_minor_poly).  It is one bareiss_det per
block, by Kronecker substitution: a bound on the minor's coefficients
fixes a point w = 2^k whose digits hold them, and the minor's value there
is read back as its balanced base-2^k digits (exact.poly.from_two_power);
the n x n matrix is not formed.  D stays in ints, its product of the
blocks' factors is a Kronecker product too (exact.poly.mul), and a value
outside the digit range raises ArithmeticError.

Signature samples are taken on the same PencilCore.
Haynsworth's inertia additivity, In(H) = In(H_11) + In(H / H_11), splits
the n x n signature into the chains' signatures, which are 0 for eps = 1
and a closed form for eps = -1, plus the signature of the Schur complement.
That complement is a hermitian (number of groups) x b matrix whose diagonal
blocks are the groups' pencils at w^N.  It is built in Gaussian integers,
in O(nnz) per sample from entries kept once per jump function, one connected
block at a time: the complement is their direct sum, so by Sylvester's law
of inertia its signature is the sum of theirs, and a caller needs a block
only at the samples where its signature can have changed.  A block is
evaluated once at all of those samples: PencilCore.at builds its entries as
one list per entry over the samples, and herm_sig_fast eliminates them as
one batch.  A sample at t = +-1 on a group with 4 | N would hit w^N = 1 and
is refused (powers() is None); the caller moves it inside its gap.  A plain
matrix is one group with N = 1, so the same builder serves every pencil.
PencilCore's docstring has the proof and the integer form.

The signature routine, herm_sig_fast, is the symmetric form of the same
elimination (an LDL* without divisions) on a batch of hermitian
Gaussian-integer matrices with one sparsity pattern, held as sparse upper
rows: row i is a dict {j: re} and a dict {j: im} over its nonzero entries
with j >= i, each value a list over the members, and the lower triangle is
read as their conjugate.  A step updates only the rows in the pivot row's
support, each over the union of its support and the pivot row's, for every
member at once, so the interpreter's cost per entry is paid once per batch
and a large sparse block keeps its cost per member.  Step k pivots at k,
and every member stays in the batch: a member whose row k is 0 takes the
identity step, which counts 0, and a member with a zero diagonal entry in a
nonzero row first takes one congruence step with a later index of its own,
inside the batch, so the routine answers on every hermitian input.  A single
matrix is a batch of one.

In both eliminations a row whose multiplier is 0 at some step is not
touched: by Sylvester's identity it only picks up the factor d_k / d_(k-1),
so its current value is its stored value times d_now / d_then, divided
exactly, where d_then is the divisor it was last brought up to date with.
On the covering matrices, which are sparse, most multipliers are 0.
"""

from __future__ import annotations

from functools import reduce
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
    """Exact determinant of a square int matrix: +-(last pivot) of _eliminate on a copy of rows."""
    m = [list(row) for row in rows]
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
    prow, pcol, _, _ = _eliminate([list(row) for row in rows])
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
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
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
    so det M' is the product of the blocks' determinants, minor_poly of
    each (PencilCore has the identity).  Returns ints, [] for D = 0 and [1]
    for the empty matrix.  When factors is a list, the blocks' determinants
    are appended to it, in the order of core.blocks, [] where one is 0, so
    that D = core.c * their product, c = 0 included (PencilCore, When
    det S = 0).
    """
    dets = [minor_poly(core, b) for b in range(len(core.blocks))]
    if factors is not None:
        factors.extend(dets)
    return reduce(P.mul, dets, [core.c])


def generic_minor_poly(core, b: int):
    """minor_poly of a generic maximal minor of M'_b(w), [] when M'_b is 0.

    Its rows and columns are the rank profile of M'_b at minor_poly's point
    w0 = 2^k.  Every minor's coefficients are below 2^(k-1) in absolute
    value, so by Cauchy's bound the roots of one that is not 0 have
    |w| < 1 + 2^(k-1) < w0: M'_b(w0) has the generic rank, and the minor on
    its rank profile is not 0.
    """
    ri, ci = rank_profile(_node_matrix(core, b, 1 << _digit_bits(core, b)))
    return minor_poly(core, b, ri, ci) if ci else []


def minor_poly(core, b: int, ri=None, ci=None):
    """Ascending int coefficients of the minor of M'_b(w) on the rows ri and columns ci.

    ri and ci are local indices of block b, as many of each; the default is
    the whole block, det M'_b.  By Kronecker substitution the minor is one
    integer determinant: at w = 2^k, with 2^(k-1) over every coefficient
    (_digit_bits), its value holds the coefficients as its balanced base-2^k
    digits, n + 1 of them for n the sum of N over ri (poly.from_two_power).
    A value outside that digit range raises ArithmeticError.  Returns no
    trailing zeros, [] for a minor that is 0.
    """
    blk, grp, *_ = core.blocks[b]
    k = _digit_bits(core, b)
    m = _node_matrix(core, b, 1 << k)
    if ri is None:
        ri = range(len(blk))
    else:
        m = [[m[i][j] for j in ci] for i in ri]
    n = sum(core.mults[grp[i]] for i in ri)
    return P.trim(P.from_two_power(bareiss_det(m), k, n + 1))


def _digit_bits(core, b: int) -> int:
    """Digit width k for block b: 2^(k-1) is over every coefficient of every minor of M'_b.

    An entry's coefficients sum in absolute value to |a| + |a^T| within a
    group and to N * (|a| + |a^T|) between groups, where q_N has N unit
    coefficients; that sum is submultiplicative, so every coefficient of a
    minor is at most B, the product over the block's rows of the row's sum.
    In a block of two or more rows every row's sum is a positive integer, so
    B bounds the minors on fewer rows too; B = 0 is a 1 x 1 block that is 0.
    """
    _, grp, entries, _ = core.blocks[b]
    bound = 1
    for gi, row in zip(grp, entries):
        bound *= sum((abs(a) + abs(at)) * (1 if grp[j] == gi else core.mults[gi])
                     for j, a, at in row)
    return P.digit_bits(bound)


def _node_matrix(core, b: int, w: int):
    """Block b of M'(w) at the integer w > 1.

    With a = M[i][j] and a^T = eps*M[j][i], an entry is w^N a - a^T within
    a group, and q_N(w) * (w*a - a^T) between groups, where q_N(w) =
    (w^N - 1) / (w - 1) and N is the row's group's (PencilCore,
    Determinant).
    """
    blk, grp, entries, groups = core.blocks[b]
    coef = {}
    for g in groups:
        wn = w ** core.mults[g]
        q = (wn - 1) // (w - 1)
        coef[g] = wn, q * w, q
    mat = []
    for gi, row in zip(grp, entries):
        wn, qw, q = coef[gi]
        mrow = [0] * len(blk)
        for j, a, at in row:
            mrow[j] = wn * a - at if grp[j] == gi else qw * a - q * at
        mat.append(mrow)
    return mat


def _gauss_walk(u: int, v: int, ns):
    """{n: (x, y, q)} for each n in ns: x + iy = z^n and q = floor(n * phi / pi).

    z = +-(v + iu) with u >= 0 and phi in [0, pi) its argument.  One walk
    over the powers z^k, k = 1 .. max(ns): floor(k * phi / pi) goes up by one
    each time Im(z^k) changes sign, counting 0 as positive, and never by two
    since phi < pi.  q is right where y != 0, that is where w^n != 1.
    """
    if u < 0:
        u, v = -u, -v
    x, y, q, out = 1, 0, 0, {}
    for k in range(1, max(ns) + 1):
        x, y = x * v - y * u, x * u + y * v
        if (y < 0) != (q & 1):
            q += 1
        if k in ns:
            out[k] = (x, y, q)
    return out


class PencilCore:
    """The hermitian pencil of a covering matrix with its strand chains eliminated.

    A covering matrix in the strand-difference basis (see covsig.covering)
    has, per group k of N = N_k >= 1 strands, a first strand and a chain of
    N - 1 difference strands; two groups meet only between their first
    strands.  covering.core_rows lays a group of negative multiplicity out,
    by a congruence, as one of |N_k| strands with eps*A_kk^T for A_kk.  Let
    A = A_kk and S = A - eps*A^T.  On its chain the pencil
    H(w) = c(w) * (w*M - eps*M^T), with c = 1/(w - 1) for eps = 1 and
    i/(w - 1) for eps = -1, is c(w) * T(w) (x) S, where T(w) is the
    (N-1)-square tridiagonal matrix with diagonal w + 1 and off-diagonals
    -w (above) and -1 (below).

    Signature of a chain.  Write w = e^(i*theta), 0 < theta < 2*pi, and
    phi = theta/2.  The matrix e^(-i*phi) T(w) is hermitian, with diagonal
    2 cos(phi) and off-diagonals -e^(+-i*phi); the diagonal unitary
    diag(e^(i*j*phi)) turns it into the real R = 2 cos(phi) I - (J + J^T),
    whose eigenvalues are 2 cos(phi) - 2 cos(pi*j/N), j = 1..N-1.  So R
    has floor(N*phi/pi) negative eigenvalues, none zero unless w^N = 1, and
    sigma(R) = N - 1 - 2*floor(N*phi/pi).  Since c(w) e^(i*phi) is
    1/(2i sin(phi)) for eps = 1 and 1/(2 sin(phi)) for eps = -1, with
    sin(phi) > 0, the chain is unitarily congruent to a positive multiple of
    R (x) (-iS) for eps = 1 and R (x) S for eps = -1, and the eigenvalues
    of a Kronecker product are the products of the factors'.  Hence
    sigma(chain) = sigma(R) * sigma(-iS) = 0 for eps = 1, because S is real
    and skew, so -iS is hermitian with a spectrum symmetric about 0; and
    sigma(chain) = sigma(R) * sigma(S) for eps = -1, with S real symmetric.
    That is 0 only when sigma(S) = 0, as on the L(T, m) covers of trefoil
    and ALG, where S comes out as S_V (+) -S_V; so for eps = -1 the chain
    term is added back (chain_signature), from the coefficients sigma(S)
    that the constructor takes with herm_sig_fast.

    The core.  Haynsworth's inertia additivity, In(H) = In(H_11) +
    In(H / H_11), with H_11 the chains (nonsingular off w^N = 1 when
    det S != 0) gives sigma(H) = sum of the chains' signatures +
    sigma(core).  The Schur complement H / H_11 is hermitian of size
    (number of groups) x b: the pencil entries between first strands,
    except that group k's diagonal block is the pencil of A_kk at w^N,
    (w^N A - eps*A^T) / (w^N - 1), times i for eps = -1.  So the
    multiplicities enter only as exponents, the reparametrization
    theta -> N*theta.

    Integer form.  With z = v + iu, w = z / conj(z) is the point t = u/v
    (v = 0 is t = infinity, w = -1).  Each block of the core is X / (2i*r)
    with X = a*(M - eps*M^T) + i*b*(M + eps*M^T) Gaussian-integer and
    r = b: (a, b) = (v, u) between groups, and for group k, with
    z^N = x + iy, (a, b) = (x, y), M being the core matrix, whose
    diagonal block k is A_kk and whose block (k, l) is A_kl.
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
    The chain of group k is T(w) (x) S, and det T(w) = q_N(w) :=
    1 + w + ... + w^(N-1), by the three-term recurrence.  Its Schur
    complement keeps the blocks w*M_kl - eps*M_lk^T between groups and
    turns group k's diagonal block into (w^N A - eps*A^T) / q_N(w).
    Multiplying row block k by q_N(w) clears that denominator, giving the
    polynomial matrix M'(w) with diagonal blocks w^N A - eps*A^T and blocks
    q_(N_k)(w) * (w*M_kl - eps*M_lk^T) off the diagonal.  So
    D(w) = c * det M'(w), with c = prod over the groups with N >= 2 of
    det(S)^(N-1) (the attribute c); c = 0 is the case det S = 0 below,
    where D = 0.  Row block k of M' has degree N in w.  An entry of M' is
    nonzero only where M or M^T is, so M' is the direct sum of its blocks
    M'_b on the connected components b of that pattern, and det M' = prod
    over b of det M'_b; a block may mix rows of several groups.  Block b
    has degree n_b = sum over its rows of that row's N (n is the sum of the
    n_b), and a minor on some of its rows the sum of N over them.  Each is
    an integer polynomial whose coefficients are bounded by the product of
    its rows' coefficient sums, so it is read off its one value at a power
    of two (minor_poly).  A core with one block is the whole M'.

    Blocks across samples.  Let Sch_b(w) be the Schur complement's block
    b, hermitian and continuous on the open upper half circle except at
    w^(N_k) = 1 for its groups k with N_k >= 2, and sigma_b its
    signature.  Up to a factor that does not vanish there, its determinant
    is det M'_b(w) / prod q_N(w), one q_N per row of a group of N strands,
    so away from those poles it vanishes only at roots of D_b = det M'_b,
    and sigma_b is constant on every arc that holds neither.  The
    unit-circle roots of D_b in the upper half are all among the candidates
    of jump_function, whose gaps partition (0, infinity) in t, so between
    the samples t_(i-1) and t_i the only candidate is candidate i - 1.  Hence sigma_b at t_i equals sigma_b at
    t_(i-1) unless that candidate is a root of D_b, or a pole of one of
    b's groups lies between the two samples, which poles() counts from
    the walk over the sample's powers (_gauss_walk).  Owners and poles are
    known before any signature, so the samples where block b must be
    evaluated are known first, and b is evaluated once at all of them:
    at() gives its entries there as one batch for herm_sig_fast.  A pole
    inside a gap can move sigma_b and the chain term in opposite
    directions, so the chain term is taken at every sample.

    w^N = 1 at a sample makes the chain singular; at rational t that is only
    t = +-1 with 4 | N (+-1 and +-i are the only roots of unity in Q(i)),
    and powers(u, v) returns None there.  When det S = 0, c = 0 and D = 0,
    yet the core is exact.  Every block of the covering matrix that touches
    a difference strand of the group is +-S or 0, and S^T = -eps*S, so
    K = (its difference strands) (x) ker S is a common kernel of the matrix
    and its transpose, and the pencil on V/K has its signatures.  There the
    chain is T(w) (x) S_W, S_W = S on a complement W of ker S, nonsingular
    as a symmetric or skew matrix of rank r has a nonsingular principal
    r x r minor; by the rank factorisation its correction to the first
    strand, w * T(w)^(-1)_11 * S[:, W] S_W^(-1) S[W, :], is
    w * T(w)^(-1)_11 * S.  So M'(w), every block factor, sample (at()) and
    pole are as above, and sigma(S_W) = sigma(S) keeps chain_signature.
    The pencil's determinant on V/K is det M'(w) times the product of
    det(S_W)^(N-1) q_N(w)^(rank S - b), so det M' holds its roots and
    some poles.
    """

    __slots__ = ("eps", "mults", "c", "chain_sigma", "blocks")

    def __init__(self, rows, eps: int, mults=(1,)):
        """rows: the core matrix M, of size len(mults) * b, int entries, only read.

        mults are the strand counts N_k >= 1 of the groups, in order
        (covering.core_rows); the default is a plain matrix.  Each
        S = A_kk - eps*A_kk^T of a group with N_k >= 2 is formed once:
        det(S)^(N_k - 1) enters c, and for eps = -1, chain_sigma[k] =
        sigma(S) (else 0).
        """
        n = len(rows)
        b = n // len(mults)
        self.eps = eps
        self.mults = tuple(mults)
        self.c, sigma = 1, []
        for a, m in enumerate(self.mults):
            sigma.append(0)
            if m < 2:
                continue
            r = a * b
            S = [[rows[r + i][r + j] - eps * rows[r + j][r + i] for j in range(b)]
                 for i in range(b)]
            self.c *= bareiss_det(S) ** (m - 1)
            if eps == -1:
                upper = [{j: [x] for j, x in enumerate(row[i:], i)} for i, row in enumerate(S)]
                sigma[-1] = herm_sig_fast(upper, [{} for _ in S], 1)[0]
        self.chain_sigma = tuple(sigma)
        group = [i // b for i in range(n)]
        # per row, ascending in j, the entries (j, M[i][j], eps*M[j][i]) of
        # M'(w) where either is nonzero: M + M^T is a + eps*a^T, M - M^T a - eps*a^T
        entries = [[] for _ in range(n)]
        for i, row in enumerate(rows):
            for j in range(i, n):
                a, c = row[j], rows[j][i]
                if a or c:
                    entries[i].append((j, a, eps * c))
                    if j != i:
                        entries[j].append((i, c, eps * a))
        # per connected block: its indices, their groups, its rows of entries
        # in local indices, and its groups, ascending and each once
        self.blocks = []
        for blk in _components([[j for j, _, _ in row] for row in entries]):
            local = {i: a for a, i in enumerate(blk)}
            grp = [group[i] for i in blk]
            self.blocks.append((
                blk, grp,
                [[(local[j], a, at) for j, a, at in entries[i]] for i in blk],
                tuple(sorted(set(grp)))))

    def powers(self, u: int, v: int):
        """Per group, (x, y, q) of _gauss_walk at t = u/v for its N; None where some w^N = 1.

        at(), poles() and chain_signature() read a sample through these,
        walked once per sample.
        """
        walk = _gauss_walk(u, v, set(self.mults))
        powers = [walk[m] for m in self.mults]
        return None if any(y == 0 for _, y, _ in powers) else powers

    def at(self, b: int, samples):
        """Sparse upper rows (re, im) of block b at each sample, as one batch for herm_sig_fast.

        samples is a list of (u, v, powers), u != 0 and powers = powers(u, v)
        not None.  Each value is a list with one entry per sample, that
        sample's entry of a positive multiple of block b at t = u/v, in the
        block's local indices; the core is the direct sum of its blocks, so
        its signature is the sum of theirs.
        """
        _, grp, entries, groups = self.blocks[b]
        big, off, diag = [], [], {g: [] for g in groups}
        for u, v, powers in samples:
            # u | y: Im((v + iu)^N) has only odd powers of u
            scale = lcm(*(powers[g][1] for g in groups))
            big.append(scale)
            off.append(v * scale // u)
            for g in groups:
                # (v + iu)^N up to a common sign of x and y, which the ratio
                # x / y and the lcm of the y's ignore
                x, y, _ = powers[g]
                diag[g].append(x * scale // y)
        eps = self.eps
        re, im = [], []
        for i, (gi, row) in enumerate(zip(grp, entries)):
            # row i of M + M^T and M - M^T, upper, with the entry's multipliers
            up = [(j, a + eps * at, a - eps * at, diag[gi] if grp[j] == gi else off)
                  for j, a, at in row if j >= i]
            if eps == 1:
                re.append({j: [c * x for c in big] for j, x, _, _ in up if x})
                im.append({j: [-c * y for c in cs] for j, _, y, cs in up if y})
            else:
                re.append({j: [c * x for c in cs] for j, x, _, cs in up if x})
                im.append({j: [c * y for c in big] for j, _, y, _ in up if y})
        return re, im

    def poles(self, powers):
        """Per block, the tuple floor(N_k * phi / pi) over its groups.

        powers is powers(u, v) of a sample t = u/v, and phi = theta/2 there,
        so an entry changes between two samples exactly when w^N_k = 1
        somewhere between them, a pole of the block (see Blocks across
        samples); for N_k = 1 it is 0, since phi < pi.
        """
        return [tuple(powers[g][2] for g in groups) for *_, groups in self.blocks]

    def chain_signature(self, powers) -> int:
        """Sum of the eliminated chains' signatures at the sample of powers (0 for eps = 1)."""
        if not any(self.chain_sigma):
            return 0
        return sum(sig * (m - 1 - 2 * q)
                   for m, sig, (_, _, q) in zip(self.mults, self.chain_sigma, powers)
                   if sig)


def herm_sig_fast(re, im, size):
    """Signatures of a batch of size hermitian Gaussian-integer matrices on one sparsity pattern.

    re[i] and im[i] are dicts {j: [x_0, ..., x_(size-1)]} holding row i's
    entries with j >= i, one value per member of the batch (0 where a member
    has none); the lower triangle is their conjugate.  A batch of one is a
    single matrix.  The rows are copied, not modified.  Returns the members'
    signatures, in order.

    Fraction-free symmetric Bareiss elimination whose step k pivots at k.
    Step k updates only the rows i in the support of row k, each over the
    union of its own support and row k's, since row i's multiplier is
    conj(R[k][i]).  Any other row would only be rescaled by d_k / d_(k-1),
    so it is left alone: its stored value times d_now / d_then, divided
    exactly, is its current value, where d_then is the Bareiss divisor it was
    last brought up to date with.

    The members are eliminated together, each value a list over them, so
    the interpreter's cost per entry is paid once per batch.  A support is
    the union of the members', and a member whose entry is 0 there takes
    the same formula, which is then its exact rescale.  Every member stays
    in the batch from the first step to the last: at step k each takes one
    of three cases, on the same rows.

    If R[k][k] != 0 it is the pivot.  If row k of the remaining matrix is 0,
    the member's pivot is its own Bareiss divisor d_(k-1): its multipliers
    are 0, so the step is exactly the identity on it, and it counts 0, as a
    zero row and column adds 0 to the signature (Haynsworth).  Otherwise let
    b be the member's own first column of row k and h = R[k][b]; the
    congruence row/col k += c * row/col b puts R[b][b] + 2 Re(conj(c) h) on
    the diagonal at k, with c = +-1 if Re h != 0 and c = +-i if not.  The
    two signs give values 4 Re h or 4 Im h apart, so one of them is nonzero.

    As one formula, the congruence is row k += c * row b at every stored
    j >= k, reading R[b][j] as conj(R[j][b]) for j < b, and then
    conj(c) * R[k][b] added to R[k][k]; the members that take it at k go
    together per b, with c = 0 for the others.  E = I + c*e_k*e_b^T acts
    only on the indices not yet eliminated, so the stored rows are exactly
    those of Bareiss on the Gaussian-integer matrix E H E*: every division
    stays exact, the pivots are the nonzero leading principal minors of
    E H E* (its zero rows left out), so the signature is the running sign
    agreement count (Jacobi), and by Sylvester's law of inertia it is that
    of H.
    """
    re = [{j: list(x) for j, x in r.items() if any(x)} for r in re]
    im = [{j: list(x) for j, x in r.items() if any(x)} for r in im]
    n = len(re)
    sig, zero, prev = [0] * size, [0] * size, [1] * size
    then = [prev] * n  # the divisor each row was last brought up to date with

    def refresh(i):
        t = then[i]
        if t is not prev:
            re[i] = {j: [x * p // q for x, p, q in zip(xs, prev, t)] for j, xs in re[i].items()}
            im[i] = {j: [x * p // q for x, p, q in zip(xs, prev, t)] for j, xs in im[i].items()}
            then[i] = prev

    def add(k, j, cr, ci, xr, xi):
        """R[k][j] += c * x per member, c = cr + i*ci and x = xr + i*xi."""
        for row, z in ((re[k], [c * x - e * y for c, e, x, y in zip(cr, ci, xr, xi)]),
                       (im[k], [c * y + e * x for c, e, x, y in zip(cr, ci, xr, xi)])):
            z = [u + v for u, v in zip(row.get(j, zero), z)]
            if any(z):
                row[j] = z
            else:
                row.pop(j, None)

    for k in range(n):
        refresh(k)
        kre, kim = re[k], im[k]
        if not all(kre.get(k, zero)):
            # per member, its first column b of row k: k where R[k][k] != 0,
            # none (k) where row k is 0, and it lifts by b where b > k
            cols = sorted(kre.keys() | kim.keys())
            lifts = {}
            for a in range(size):
                b = next((j for j in cols if kre.get(j, zero)[a] or kim.get(j, zero)[a]), k)
                if b > k:
                    lifts.setdefault(b, []).append(a)
            for b, part in lifts.items():
                mid = [j for j in range(k, b) if b in re[j] or b in im[j]]
                for i in mid + [b]:
                    refresh(i)
                hr, hi, rbb = kre.get(b, zero), kim.get(b, zero), re[b].get(b, zero)
                # c = +-1 if Re h != 0 and +-i if not, its sign making the pivot nonzero
                cr, ci = [0] * size, [0] * size
                for a in part:
                    (cr if hr[a] else ci)[a] = -1 if rbb[a] + 2 * (hr[a] or hi[a]) == 0 else 1
                # row k += c * row b, reading R[b][j] as conj(R[j][b]) for j < b,
                # then R[k][k] += conj(c) * R[k][b]
                terms = [(j, re[j].get(b, zero), [-y for y in im[j].get(b, zero)]) for j in mid]
                terms += [(j, re[b].get(j, zero), im[b].get(j, zero))
                          for j in re[b].keys() | im[b].keys()]
                for j, xr, xi in terms:
                    add(k, j, cr, ci, xr, xi)
                add(k, k, cr, [-e for e in ci], kre.get(b, zero), kim.get(b, zero))
        # +-1 as the pivot's sign agrees with the last divisor's, 0 on a zero
        # row k, whose pivot is then that divisor: the identity step
        d = kre.get(k, zero)
        sig = [s + (x and (1 if (x > 0) == (p > 0) else -1)) for s, x, p in zip(sig, d, prev)]
        if not all(d):
            d = [x or p for x, p in zip(d, prev)]
        support = (kre.keys() | kim.keys()) - {k}
        krow = [(j, kre.get(j, zero), kim.get(j, zero)) for j in sorted(support)]
        for pos, (i, ar, ai) in enumerate(krow):
            ai = [-x for x in ai]  # the multiplier conj(R[k][i])
            refresh(i)
            ri, ii = re[i], im[i]
            # off row k's support the update is the exact rescale d / prev
            nre = {j: [a * x // p for a, x, p in zip(d, xs, prev)]
                   for j, xs in ri.items() if j not in support}
            nim = {j: [a * x // p for a, x, p in zip(d, xs, prev)]
                   for j, xs in ii.items() if j not in support}
            for j, br, bi in krow[pos:]:
                x = [(a * r - c * e + f * g) // p for a, r, c, e, f, g, p
                     in zip(d, ri.get(j, zero), ar, br, ai, bi, prev)]
                if any(x):
                    nre[j] = x
                y = [(a * r - c * g - f * e) // p for a, r, c, e, f, g, p
                     in zip(d, ii.get(j, zero), ar, br, ai, bi, prev)]
                if any(y):
                    nim[j] = y
            re[i], im[i] = nre, nim
            then[i] = d
        prev = d
    return sig
