"""Seifert matrix data in (A, B, C, epsilon) block form, plus the basic
operators used to build new links from old: block assembly, connected sum,
mirror image, and parallel copies with signs.
"""

from __future__ import annotations

from ._value import Value
from .errors import DimensionMismatch, EmptyTuple, SingularMatrix
from .exact import RatMatrix, block_matrix


class SignTuple(Value):
    """Signs of parallel copies; n_alpha is their sum."""

    __slots__ = ("signs",)

    def __init__(self, signs: tuple):
        signs = tuple(int(s) for s in signs)
        if not signs:
            raise EmptyTuple("a sign tuple needs at least one entry")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("sign entries must be +1 or -1")
        self.signs = signs

    def __len__(self):
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    @property
    def n_alpha(self) -> int:
        return sum(self.signs)


class SeifertData(Value):
    """Blocks of a Seifert matrix [[A, B], [eps*B^T, C]].

    A is the pairing on the sublink the covering construction unwinds around;
    epsilon = (-1)^(q+1) for a (2q-1)-dimensional link.  A - eps*A^T must be
    nonsingular, which the covering transfer needs (and which holds whenever
    the blocks come from a Seifert manifold with connected boundary).
    """

    __slots__ = ("A", "B", "C", "epsilon", "q")

    def __init__(self, A: RatMatrix, B: RatMatrix, C: RatMatrix, epsilon: int = 1,
                 q: int | None = None):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if q is None:
            q = 1 if epsilon == 1 else 2
        elif (-1) ** (q + 1) != epsilon:
            raise ValueError("epsilon must equal (-1)^(q+1)")
        if not A.is_square or not C.is_square:
            raise DimensionMismatch("A and C must be square")
        if B.nrows != A.nrows or B.ncols != C.nrows:
            raise DimensionMismatch("B must be size(A) x size(C)")
        if (A - A.transpose().scale(epsilon)).det() == 0:
            raise SingularMatrix("A - eps*A^T must be nonsingular")
        self.A, self.B, self.C, self.epsilon, self.q = A, B, C, epsilon, q

    @property
    def size_a(self) -> int:
        return self.A.nrows

    @property
    def size_c(self) -> int:
        return self.C.nrows

    def assembled(self) -> RatMatrix:
        return assemble(self.A, self.B, self.C, self.epsilon)


def assemble(A: RatMatrix, B: RatMatrix, C: RatMatrix, epsilon: int) -> RatMatrix:
    """The full Seifert matrix [[A, B], [eps*B^T, C]]."""
    if not A.is_square or not C.is_square:
        raise DimensionMismatch("A and C must be square")
    if B.nrows != A.nrows or B.ncols != C.nrows:
        raise DimensionMismatch("B must be size(A) x size(C)")
    return block_matrix([[A, B], [B.transpose().scale(epsilon), C]])


def connected_sum(P1: RatMatrix, P2: RatMatrix) -> RatMatrix:
    """Block-diagonal sum; jump functions add."""
    if not P1.is_square or not P2.is_square:
        raise DimensionMismatch("connected_sum needs square matrices")
    z12 = RatMatrix.zeros(P1.nrows, P2.nrows)
    z21 = RatMatrix.zeros(P2.nrows, P1.nrows)
    return block_matrix([[P1, z12], [z21, P2]])


def mirror(P: RatMatrix) -> RatMatrix:
    """Seifert matrix of the mirror image: -P^T.  Jump values negate."""
    if not P.is_square:
        raise DimensionMismatch("mirror needs a square matrix")
    return -P.transpose()


def parallel_copies(P: RatMatrix, alpha: SignTuple, epsilon: int) -> RatMatrix:
    """Seifert matrix of n parallel copies of P with orientation signs alpha.

    Block (i, j) of the n x n grid is s_i*s_j times: P on the diagonal for a
    positive copy, eps*P^T for a negative one; eps*P^T above the diagonal and
    P below it.  This bookkeeping is pinned down by two facts the tests
    enforce: copies (+1, -1) bound an annulus, so their jumps vanish, and an
    all-positive tuple reparametrizes the jump function by n_alpha.
    """
    if not P.is_square:
        raise DimensionMismatch("parallel_copies needs a square matrix")
    if not isinstance(alpha, SignTuple):
        alpha = SignTuple(tuple(alpha))
    pt = P.transpose().scale(epsilon)
    grid = []
    for i, si in enumerate(alpha):
        row = []
        for j, sj in enumerate(alpha):
            if i < j:
                blk = pt
            elif i > j:
                blk = P
            else:
                blk = P if si == 1 else pt
            row.append(blk.scale(si * sj))
        grid.append(row)
    return block_matrix(grid)
