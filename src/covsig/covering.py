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
are 268 nonzero entries instead of 3162.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotPrimePower, NotRationalHomologySphere, SingularMatrix
from .exact import RatMatrix, block_matrix, mat_inverse
from .pattern import fold, solve_multiplicities
from .seifert import SeifertData


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class CoveringSpec:
    """Degree d = p^a of the cyclic cover, plus the target vector r_l."""

    p: int
    a: int = 1
    target: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise NotPrimePower(f"{self.p} is not prime")
        if self.a < 1:
            raise NotPrimePower("exponent a must be positive")
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
    """Result of the transfer: raw blocks, covering matrix, and multiplicities.

    expanded_P is the covering Seifert matrix in the strand-difference basis
    (see covering_matrix): congruent over the integers to the parallel-copy
    expansion of the blocks, so it has the same size, the same D(w) and the
    same jump function.
    """

    blocks_A: tuple  # d x d tuple-of-tuples of RatMatrix
    expanded_P: RatMatrix
    s: int
    multiplicities: tuple  # the integers s*x_k


def gamma(A: RatMatrix, epsilon: int) -> RatMatrix:
    """Gamma = (A - eps*A^T)^(-1) A; note Gamma - I = (A - eps*A^T)^(-1) eps*A^T."""
    return mat_inverse(A - A.transpose().scale(epsilon)) @ A


def covering_blocks(sd: SeifertData, spec: CoveringSpec):
    """The d x d array of blocks A_kl of the covering Seifert matrix.

    With G = Gamma, H = G - I, and D = G^d - H^d (a presentation matrix of the
    cover's middle homology, so it must be invertible):

        A_kk = C - eps*B^T (G^(d-1) - H^(d-1)) D^(-1) (A - eps*A^T)^(-1) B
        A_kl = eps*B^T G^(j-1) H^(d-j-1) D^(-1) (A - eps*A^T)^(-1) B,
               j = (k - l) mod d, for k != l.

    All the G/H factors are polynomials in G, so their order is immaterial.
    """
    d = spec.d
    eps = sd.epsilon
    G = gamma(sd.A, eps)
    n = G.nrows
    H = G - RatMatrix.identity(n)
    gpow = [RatMatrix.identity(n)]
    hpow = [RatMatrix.identity(n)]
    for _ in range(d):
        gpow.append(gpow[-1] @ G)
        hpow.append(hpow[-1] @ H)
    try:
        den_inv = mat_inverse(gpow[d] - hpow[d])
    except SingularMatrix:
        raise NotRationalHomologySphere(
            "G^d - (G-I)^d is singular: the cover is not a rational homology sphere"
        ) from None
    skew_inv = mat_inverse(sd.A - sd.A.transpose().scale(eps))
    ebt = sd.B.transpose().scale(eps)
    tail = den_inv @ skew_inv @ sd.B
    # A_kl depends only on j = (k - l) mod d: d distinct blocks, j = 0 the diagonal
    by_j = [sd.C - ebt @ ((gpow[d - 1] - hpow[d - 1]) @ tail)]
    by_j += [ebt @ (gpow[j - 1] @ hpow[d - j - 1] @ tail) for j in range(1, d)]
    return tuple(tuple(by_j[(k - l) % d] for l in range(d)) for k in range(d))


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
    """
    mults = [int(Fraction(xi) * s) for xi in x]
    if any(Fraction(xi) * s != m for xi, m in zip(x, mults)):
        raise ValueError("s does not clear the denominators of x")
    keep = [k for k, m in enumerate(mults) if m != 0]
    if not keep:
        return RatMatrix.zeros(0)
    b = blocks[keep[0]][keep[0]].nrows
    first = {}  # component -> row of its first strand
    n = 0
    for k in keep:
        first[k] = n
        n += abs(mults[k]) * b
    rows = [[0] * n for _ in range(n)]

    def put(r, c, M):
        for i, mrow in enumerate(M.rows):
            rows[r + i][c:c + b] = mrow

    for k in keep:
        sk = 1 if mults[k] > 0 else -1
        A = blocks[k][k]
        At = A.transpose().scale(epsilon)
        Dg = A if sk == 1 else At
        r0 = first[k]
        put(r0, r0, Dg)
        chain, up, low = (A - At).scale(sk), At - Dg, A - Dg
        for r in range(r0 + b, r0 + abs(mults[k]) * b, b):
            put(r, r, chain)
            put(r - b, r, up)
            put(r, r - b, low)
        for l in keep:
            if l != k:
                sl = 1 if mults[l] > 0 else -1
                put(r0, first[l], blocks[k][l].scale(sk * sl))
    return RatMatrix(rows)


def build_covering(sd: SeifertData, coeffs: dict, spec: CoveringSpec) -> CoveringMatrix:
    """Full transfer: fold the pattern, solve multiplicities, place the blocks."""
    row = fold(coeffs, spec.d)
    x, s = solve_multiplicities(row, spec.target)
    blocks = covering_blocks(sd, spec)
    expanded = covering_matrix(blocks, x, s, sd.epsilon)
    return CoveringMatrix(
        blocks_A=blocks,
        expanded_P=expanded,
        s=s,
        multiplicities=tuple(int(xi * s) for xi in x),
    )


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
