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
core, the first strands of the groups (see covsig._fast.PencilCore).  The
n x n matrix itself is built only when D(w) = 0, to remove a common kernel.
The blocks themselves are computed with integer matrix products, two
adjugates (covsig._fast.adj_det) and one exact scaling per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._fast import adj_det
from .errors import CoveringTooLarge, NotPrimePower, NotRationalHomologySphere
from .exact import RatMatrix, block_matrix, mat_inverse
from .exact.poly import totient
from .pattern import fold, solve_multiplicities
from .seifert import SeifertData

# The largest covering matrix size n that build_covering accepts.  A job with
# D(w) = 0 fills the n x n covering_matrix, about 17 bytes an entry (tracemalloc
# at n = 1020 and 2044), near 425 MB at n = 5000; every job has deg D <= n.
MAX_COVERING_N = 5000
# The largest degree d = p^a that CoveringSpec accepts.  The d x d Fraction
# circulant solve (pattern.solve_multiplicities) takes about 0.7 s at d = 256
# and grows as d^3: 3.5 s at d = 512.
MAX_COVERING_D = 256


@dataclass(frozen=True)
class CoveringSpec:
    """Degree d = p^a of the cyclic cover, plus the target vector r_l."""

    p: int
    a: int = 1
    target: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        # a p over the limit skips the primality test, whose trial division
        # takes sqrt(p) steps, and an a over log2 of it the power p^a >= 2^a
        if self.p < 2 or self.p <= MAX_COVERING_D and totient(self.p) != self.p - 1:
            raise NotPrimePower(f"{self.p} is not prime")
        if self.a < 1:
            raise NotPrimePower("exponent a must be positive")
        if self.a > MAX_COVERING_D.bit_length() or self.d > MAX_COVERING_D:
            raise CoveringTooLarge(
                f"covering degree d = {self.p}^{self.a} is over the limit {MAX_COVERING_D}")
        if self.target is None:
            object.__setattr__(
                self, "target", (1,) + (0,) * (self.d - 1)
            )
        else:
            target = tuple(int(t) for t in self.target)
            if len(target) != self.d:
                raise ValueError("target length must equal d")
            object.__setattr__(self, "target", target)

    @property
    def d(self) -> int:
        return self.p ** self.a


@dataclass(frozen=True)
class CoveringMatrix:
    """Result of the transfer: the blocks, s and the strand multiplicities.

    They determine the covering Seifert matrix, of size n = sum |s*x_k| * b
    for blocks of size b; covering_matrix(blocks_A, multiplicities, 1, eps)
    builds it where it is needed.
    """

    blocks_A: tuple  # d x d tuple-of-tuples of RatMatrix
    s: int
    multiplicities: tuple  # the integers s*x_k
    n: int


def gamma(A: RatMatrix, epsilon: int) -> RatMatrix:
    """Gamma = (A - eps*A^T)^(-1) A; note Gamma - I = (A - eps*A^T)^(-1) eps*A^T."""
    return mat_inverse(A - A.transpose().scale(epsilon)) @ A


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def covering_blocks(sd: SeifertData, spec: CoveringSpec):
    """The d x d array of blocks A_kl of the covering Seifert matrix.

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
    one.  Each block takes one exact Fraction scaling at the end.
    """
    d = spec.d
    eps = sd.epsilon
    c = 1
    for M in (sd.A, sd.B, sd.C):
        for row in M.rows:
            for x in row:
                c = lcm(c, x.denominator)
    a, b, cc = ([[int(x * c) for x in row] for row in M.rows] for M in (sd.A, sd.B, sd.C))
    n = len(a)
    # SeifertData has checked that delta != 0
    adj_s, delta = adj_det([[a[i][j] - eps * a[j][i] for j in range(n)] for i in range(n)])
    g = _matmul(adj_s, a)
    h = [[x - (delta if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(g)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    gpow, hpow = [ident], [ident]
    for _ in range(d):
        gpow.append(_matmul(gpow[-1], g))
        hpow.append(_matmul(hpow[-1], h))
    adj_d, big_delta = adj_det([[x - y for x, y in zip(r, s)] for r, s in zip(gpow[d], hpow[d])])
    if big_delta == 0:
        raise NotRationalHomologySphere(
            "G^d - (G-I)^d is singular: the cover is not a rational homology sphere"
        )
    tail = _matmul(adj_d, _matmul(adj_s, b))
    ebt = [[eps * x for x in col] for col in zip(*b)]
    den = c * big_delta

    def block(num):
        return RatMatrix([[Fraction(x, den) for x in row] for row in num])

    diff = [[x - y for x, y in zip(r, s)] for r, s in zip(gpow[d - 1], hpow[d - 1])]
    diag = _matmul(ebt, _matmul(diff, tail))
    # A_kl depends only on j = (k - l) mod d: d distinct blocks, j = 0 the diagonal
    by_j = [block([[big_delta * x - y for x, y in zip(r, s)] for r, s in zip(cc, diag)])]
    by_j += [block([[delta * x for x in row]
                    for row in _matmul(ebt, _matmul(_matmul(gpow[j - 1], hpow[d - j - 1]), tail))])
             for j in range(1, d)]
    return tuple(tuple(by_j[(k - l) % d] for l in range(d)) for k in range(d))


def int_blocks(blocks, keep):
    """(L, ib) with ib[k][l] the integer rows of L * A_kl for k, l in keep.

    L is the lcm of the denominators of the distinct blocks among them; the
    block array repeats d distinct objects, and each is converted once.
    """
    distinct = {id(blocks[k][l]): blocks[k][l] for k in keep for l in keep}
    den = lcm(*(x.denominator for M in distinct.values() for row in M.rows for x in row))
    ints = {key: [[x.numerator * (den // x.denominator) for x in row] for row in M.rows]
            for key, M in distinct.items()}
    return den, {k: {l: ints[id(blocks[k][l])] for l in keep} for k in keep}


def covering_matrix(blocks, x, s: int, epsilon: int) -> RatMatrix:
    """The covering Seifert matrix for the integer multiplicities s*x_k.

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
    The blocks are assembled as the integers of L * A (int_blocks), and each
    distinct value x becomes one shared Fraction(x, L).
    """
    mults = [int(Fraction(xi) * s) for xi in x]
    if any(Fraction(xi) * s != m for xi, m in zip(x, mults)):
        raise ValueError("s does not clear the denominators of x")
    keep = [k for k, m in enumerate(mults) if m != 0]
    if not keep:
        return RatMatrix.zeros(0)
    den, ib = int_blocks(blocks, keep)
    b = len(ib[keep[0]][keep[0]])
    first = {}  # component -> row of its first strand
    n = 0
    for k in keep:
        first[k] = n
        n += abs(mults[k]) * b
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

    for k in keep:
        sk = 1 if mults[k] > 0 else -1
        A = ib[k][k]
        At = [[epsilon * x for x in col] for col in zip(*A)]
        Dg = A if sk == 1 else At
        r0 = first[k]
        put(r0, r0, tile(Dg))
        chain, up, low = tile(minus(A, At), sk), tile(minus(At, Dg)), tile(minus(A, Dg))
        for r in range(r0 + b, r0 + abs(mults[k]) * b, b):
            put(r, r, chain)
            put(r - b, r, up)
            put(r, r - b, low)
        for l in keep:
            if l != k:
                put(r0, first[l], tile(ib[k][l], sk * (1 if mults[l] > 0 else -1)))
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
    return CoveringMatrix(covering_blocks(sd, spec), s, mults, n)


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


def ltm_y_oracle(m: int, p: int):
    """Closed-form scaling factors y_0..y_(p-1) for the L(T, m) cover.

    The covering knot's jump function is sum_k delta_V(y_k * theta) with
    a = (m-1)/m:
        y_0 = -(1 - a^(p-1)) / (m (1 - a^p)),
        y_k = a^(k-1) / (m^2 (1 - a^p))    for 1 <= k <= p-1.
    """
    if m <= 1:
        raise ValueError("closed form needs m > 1")
    a = Fraction(m - 1, m)
    denom = m * (1 - a ** p)
    ys = [-(1 - a ** (p - 1)) / denom]
    for k in range(1, p):
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
