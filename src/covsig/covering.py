"""Seifert matrices of branched cyclic covering links.

Given the block data (A, B, C, eps) of a two-component link whose first
component is unknotted in the relevant sense, the d-fold covering link has a
Seifert matrix assembled from d x d blocks A_kl, each a rational function of
Gamma = (A - eps*A^T)^(-1) A, placed on parallel strands with the
multiplicities coming from the pattern's circulant solve.

That matrix is built in the strand-difference basis f_1 = e_1,
f_i = e_i - e_(i-1) of each strand group, i.e. as T^T P T for the dense
parallel-copy matrix P and an integral T of determinant 1.  The congruence
leaves the pencil's determinant and signatures, and so every jump, as they
are, while each group becomes a bidiagonal chain of blocks and each tile
between two groups a single block: at n = 124 (L(trefoil, 2), p = 5) there
are 268 nonzero entries instead of 3162.  Neither D(w) nor the signature
samples use the chains: jump_function eliminates them and works on the
core, the first strands of the groups (see covsig._fast.PencilCore), also
when D(w) = 0.  The blocks themselves are computed with integer matrix
products and two adjugates (covsig._fast.adj_det), and kept as integers
over one denominator: this module is the one place that lays them out on
the strands, as the core (core_rows, which also takes off each group's
sign) and as the n x n matrix (covering_matrix), which the pipeline never
builds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._fast import adj_det
from ._value import Value
from .errors import CoveringTooLarge, NotPrimePower, NotRationalHomologySphere
from .exact import RatMatrix, block_matrix, mat_inverse
from .exact.poly import totient
from .pattern import fold, solve_multiplicities
from .seifert import SeifertData

# The largest covering matrix size n that build_covering accepts.  No route
# fills the n x n matrix; n bounds the work, as every job has deg D <= n.
MAX_COVERING_N = 5000
# The largest degree d = p^a that CoveringSpec accepts.  The d x d circulant
# solve (pattern.solve_multiplicities, an integer adjugate of the int rows)
# takes 0.025 s for the pattern y and 0.058 s for L(trefoil, 2)'s at
# d = 256, and 0.10 s and 0.37 s at d = 512 (a 2-core Xeon VM, in-process,
# min of 5 and of 3).
MAX_COVERING_D = 256


class CoveringSpec(Value):
    """Degree d = p^a of the cyclic cover, plus the target vector r_l."""

    __slots__ = ("p", "a", "target")

    def __init__(self, p: int, a: int = 1, target: tuple | None = None):
        # a p over the limit skips the primality test, whose trial division
        # takes sqrt(p) steps, and an a over log2 of it the power p^a >= 2^a
        if p < 2 or p <= MAX_COVERING_D and totient(p) != p - 1:
            raise NotPrimePower(f"{p} is not prime")
        if a < 1:
            raise NotPrimePower("exponent a must be positive")
        if a > MAX_COVERING_D.bit_length() or p ** a > MAX_COVERING_D:
            raise CoveringTooLarge(
                f"covering degree d = {p}^{a} is over the limit {MAX_COVERING_D}")
        d = p ** a
        if target is None:
            target = (1,) + (0,) * (d - 1)
        else:
            target = tuple(int(t) for t in target)
            if len(target) != d:
                raise ValueError("target length must equal d")
        self.p, self.a, self.target = p, a, target

    @property
    def d(self) -> int:
        return self.p ** self.a


class CoveringMatrix(Value):
    """Result of the transfer: the block grid over L, s and the strand multiplicities.

    den is the positive integer L and blocks the d x d grid of integer row
    tuples with A_kl = blocks[k][l] / L (covering_blocks); multiplicities
    are the integers s*x_k.  They determine the covering Seifert matrix, of
    size n = sum |s*x_k| * b for blocks of size b: core_rows(cm, eps) gives
    its core and covering_matrix(cm, eps) the n x n matrix.
    """

    __slots__ = ("den", "blocks", "s", "multiplicities", "n")

    def __init__(self, den: int, blocks: tuple, s: int, multiplicities: tuple, n: int):
        self.den, self.blocks, self.s, self.multiplicities, self.n = den, blocks, s, multiplicities, n


def gamma(A: RatMatrix, epsilon: int) -> RatMatrix:
    """Gamma = (A - eps*A^T)^(-1) A; note Gamma - I = (A - eps*A^T)^(-1) eps*A^T."""
    return mat_inverse(A - A.transpose().scale(epsilon)) @ A


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _minus(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _power(m, e: int):
    """m^e for e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = m if out is None else _matmul(out, m)
        e >>= 1
        if not e:
            return out
        m = _matmul(m, m)


def covering_blocks(sd: SeifertData, spec: CoveringSpec):
    """(L, grid): the blocks A_kl of the covering Seifert matrix as grid[k][l] / L.

    With G = Gamma, H = G - I, and D = G^d - H^d (a presentation matrix of the
    cover's middle homology, so it must be invertible):

        A_kk = C - eps*B^T (G^(d-1) - H^(d-1)) D^(-1) (A - eps*A^T)^(-1) B
        A_kl = eps*B^T G^(j-1) H^(d-j-1) D^(-1) (A - eps*A^T)^(-1) B,
               j = (k - l) mod d, for k != l.

    All the G/H factors are polynomials in G, so their order is immaterial.
    The products run in integers: with c the common denominator of A, B and
    C, S = c*(A - eps*A^T), delta = det S and adj S its adjugate,
    G = (adj S)(cA) / delta and H = (adj S)(cA - delta*I) / delta, so the
    numerators of G^i H^j are integer matrix products, and D = D_i / delta^d
    with D_i = G_i^d - H_i^d.  Writing Delta = det D_i and
    tail = adj(D_i) (adj S) (cB),

        A_kk = (Delta*cC - eps*(cB)^T (G_i^(d-1) - H_i^(d-1)) tail) / (c*Delta)
        A_kl = delta * eps*(cB)^T G_i^(j-1) H_i^(d-j-1) tail / (c*Delta),

    the off-diagonal blocks carrying one more factor delta than the diagonal
    one.  G_i^d and H_i^d are taken by repeated squaring, and the blocks
    from two one-sided chains, left_j = eps*(cB)^T G_i^j and right_m =
    H_i^m tail: the numerator of A_kl is delta * left_(j-1) right_(d-j-1),
    and that of A_kk is Delta*cC - left_(d-1) tail + eps*(cB)^T right_(d-1).
    L is c*Delta divided by its gcd with every numerator, signed to be
    positive: the least positive common denominator of the blocks.  Each
    block is a tuple of integer row tuples, and the grid holds the d
    distinct ones, one per j, by reference.
    """
    d = spec.d
    eps = sd.epsilon
    dens, rows = zip(*(M.int_rows() for M in (sd.A, sd.B, sd.C)))
    c = lcm(*dens)
    a, b, cc = ([[x * (c // den) for x in row] for row in m] for den, m in zip(dens, rows))
    n = len(a)
    # SeifertData has checked that delta != 0
    adj_s, delta = adj_det([[a[i][j] - eps * a[j][i] for j in range(n)] for i in range(n)])
    g = _matmul(adj_s, a)
    h = [[x - (delta if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(g)]
    adj_d, big_delta = adj_det(_minus(_power(g, d), _power(h, d)))
    if big_delta == 0:
        raise NotRationalHomologySphere(
            "G^d - (G-I)^d is singular: the cover is not a rational homology sphere"
        )
    tail = _matmul(adj_d, _matmul(adj_s, b))
    ebt = [[eps * x for x in col] for col in zip(*b)]
    left, right = [ebt], [tail]
    for _ in range(d - 1):
        left.append(_matmul(left[-1], g))
        right.append(_matmul(h, right[-1]))
    diag = _minus(_matmul(left[d - 1], tail), _matmul(ebt, right[d - 1]))
    # A_kl depends only on j = (k - l) mod d: d distinct blocks, j = 0 the diagonal
    by_j = [_minus([[big_delta * x for x in row] for row in cc], diag)]
    by_j += [[[delta * x for x in row] for row in _matmul(left[j - 1], right[d - j - 1])]
             for j in range(1, d)]
    den = c * big_delta
    g = gcd(den, *(x for M in by_j for row in M for x in row))
    g = -g if den < 0 else g
    by_j = [tuple(tuple(x // g for x in row) for row in M) for M in by_j]
    return den // g, tuple(tuple(by_j[(k - l) % d] for l in range(d)) for k in range(d))


def _groups(cm: CoveringMatrix):
    """(component, signed strand count) of each group: one per nonzero multiplicity."""
    return [(k, m) for k, m in enumerate(cm.multiplicities) if m]


def core_rows(cm: CoveringMatrix, epsilon: int):
    """(integer core rows, strand counts N_k >= 1) of a covering (see _fast.PencilCore).

    The core carries no sign.  Densely, a group of sign -1 has eps*A_kk^T
    on and above its diagonal and A_kk below it; reversing its strands lays
    it out as a group of sign +1 of eps*A_kk^T, and negating them takes
    the signs off its tiles.  That is a congruence of determinant +-1, so
    D(w) and every signature stay.  The core is L times the first strands:
    L*A_kk on the diagonal (L*eps*A_kk^T for N_k < 0) and L*A_kl off it.
    """
    groups = _groups(cm)
    rows = []
    for k, mk in groups:
        diag = cm.blocks[k][k]
        if mk < 0:
            diag = [[epsilon * x for x in col] for col in zip(*diag)]
        tiles = [diag if l == k else cm.blocks[k][l] for l, _ in groups]
        for i in range(len(diag)):
            rows.append([x for tile in tiles for x in tile[i]])
    return rows, tuple(abs(m) for _, m in groups)


def covering_matrix(cm: CoveringMatrix, epsilon: int) -> RatMatrix:
    """The n x n covering Seifert matrix of cm: a reference, which the pipeline never builds.

    Component k contributes |s*x_k| parallel strands of sign sign(s*x_k);
    components with s*x_k = 0 are dropped.  Written out densely, the diagonal
    block (k, k) would be parallel copies of A_kk and the block (k, l) the
    tile sign_k*sign_l*A_kl repeated |s*x_k| x |s*x_l| times.  This builds
    T^T P T instead, where T changes each group's strand basis e_1..e_N to
    f_1 = e_1, f_i = e_i - e_(i-1).  T is integral with determinant 1, so the
    pencil, its determinant D(w), every signature and hence every jump are
    those of the dense P.  With A = A_kk, At = eps*A^T, sign g and
    Dg = (A if g = +1 else At), a group is the chain

        (1, 1) = Dg,   (i, i) = g*(A - At) for i >= 2,
        (i, i+1) = At - Dg,   (i+1, i) = A - Dg,

    one of the two off-diagonals being 0, and each tile shrinks to the one
    block sign_k*sign_l*A_kl between the first strands of groups k and l.
    Groups keep their order, each as its first strand followed by its chain.
    The blocks are assembled from the integer grid, and each distinct value
    x becomes one shared Fraction(x, L).
    """
    groups = _groups(cm)
    if not groups:
        return RatMatrix.zeros(0)
    ib, den = cm.blocks, cm.den
    b = len(ib[0][0])
    first = {}  # component -> row of its first strand
    n = 0
    for k, m in groups:
        first[k] = n
        n += abs(m) * b
    frac = {0: Fraction(0)}  # one shared Fraction(x, L) per value
    rows = [[frac[0]] * n for _ in range(n)]

    def tile(M, sign=1):  # the Fraction rows of sign * M / L
        out = []
        for mrow in M:
            frow = []
            for x in mrow:
                x *= sign
                f = frac.get(x)
                if f is None:
                    f = frac[x] = Fraction(x, den)
                frow.append(f)
            out.append(frow)
        return out

    def put(r, c, F):
        for i, frow in enumerate(F):
            rows[r + i][c:c + b] = frow

    def minus(p, q):
        return [[x - y for x, y in zip(pr, qr)] for pr, qr in zip(p, q)]

    for k, mk in groups:
        sk = 1 if mk > 0 else -1
        A = ib[k][k]
        At = [[epsilon * x for x in col] for col in zip(*A)]
        Dg = A if sk == 1 else At
        r0 = first[k]
        put(r0, r0, tile(Dg))
        chain, up, low = tile(minus(A, At), sk), tile(minus(At, Dg)), tile(minus(A, Dg))
        for r in range(r0 + b, r0 + abs(mk) * b, b):
            put(r, r, chain)
            put(r - b, r, up)
            put(r, r - b, low)
        for l, ml in groups:
            if l != k:
                put(r0, first[l], tile(ib[k][l], 1 if mk * ml > 0 else -1))
    return RatMatrix(rows)


def build_covering(sd: SeifertData, coeffs: dict, spec: CoveringSpec) -> CoveringMatrix:
    """Full transfer: fold the pattern, solve multiplicities, place the blocks.

    The size n = sum |s*x_k| * b of the covering matrix, b the size of a
    block, is known from the multiplicities; over MAX_COVERING_N the job is
    refused with CoveringTooLarge before anything is built.
    """
    row = fold(coeffs, spec.d)
    x, s = solve_multiplicities(row, spec.target)
    mults = tuple(int(xi * s) for xi in x)
    n = sum(map(abs, mults)) * sd.C.nrows
    if n > MAX_COVERING_N:
        raise CoveringTooLarge(f"covering matrix of size {n} is over the limit {MAX_COVERING_N}")
    return CoveringMatrix(*covering_blocks(sd, spec), s, mults, n)


def ltm_family(V: RatMatrix, m: int, epsilon: int = 1):
    """SeifertData and pattern coefficients of the L(T, m) construction.

    T is the knot with Seifert matrix V; the satellite pattern has
    coefficients {0: m, 1: 1-m}.  The obstruction arguments need m outside
    {0, 1}; those values are still accepted and give boundary patterns.
    """
    vt = V.transpose().scale(epsilon)
    ac = block_matrix([[V, V], [vt, vt]])
    b = block_matrix([[V, V], [vt, V]])
    coeffs = {n: v for n, v in ((0, m), (1, 1 - m)) if v}
    return SeifertData(A=ac, B=b, C=ac, epsilon=epsilon), coeffs


def ltm_y_oracle(m: int, d: int):
    """Closed-form scaling factors y_0..y_(d-1) for the L(T, m) cover of degree d.

    d is the cover's degree, the prime power p^a of `--p` and `--a`.  The
    covering knot's jump function is sum_k delta_V(y_k * theta) with
    a = (m-1)/m:
        y_0 = -(1 - a^(d-1)) / (m (1 - a^d)),
        y_k = a^(k-1) / (m^2 (1 - a^d))    for 1 <= k <= d-1.
    Negative m are in range (there a > 1).  m = 0, where a is undefined,
    and m = 1 are refused: they are ltm_family's boundary patterns {1: 1}
    and {0: 1}, outside the obstruction argument.  At eps = -1 the points
    agree and sigma0 does not (tried at (m, d) = (2, 3), (-1, 3), (-2, 2), (2, 5)).
    """
    if m in (0, 1):
        raise ValueError("closed form needs m not in {0, 1}")
    a = Fraction(m - 1, m)
    denom = m * (1 - a ** d)
    ys = [-(1 - a ** (d - 1)) / denom]
    for k in range(1, d):
        ys.append(a ** (k - 1) / (m * denom))
    return ys


def p3_y_oracle(c20: int, c21: int, m: int):
    """Closed-form (y_0, y_1, y_2) for degree-3 covers of the two-pattern family.

    y_i = (a_i m + b_i) / (3m^2 - 3m + 1) with
        a_0 = 3c20 + 3c21 - 2,  b_0 = 1 - c20 - 2c21,
        a_1 = 1 - 3c20,         b_1 = 2c20 + c21 - 1,
        a_2 = 1 - 3c21,         b_2 = c21 - c20.

    The b_2 value is fixed by direct solution of the 3x3 circulant system
    (the tests cross-check it against solve_multiplicities differences).
    """
    den = 3 * m * m - 3 * m + 1
    table = [
        (3 * c20 + 3 * c21 - 2, 1 - c20 - 2 * c21),
        (1 - 3 * c20, 2 * c20 + c21 - 1),
        (1 - 3 * c21, c21 - c20),
    ]
    return [Fraction(a * m + b, den) for a, b in table]
