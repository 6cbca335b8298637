"""Dense exact rational matrices and hermitian signatures.

The determinant, inverse, nullspace and signature clear denominators and run
on the integer kernels of covsig._fast: the one fraction-free Bareiss
elimination behind bareiss_det, rank_profile and adj_det, and its symmetric
form on hermitian Gaussian-integer matrices, so the answers carry no
tolerance at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .. import _fast
from ..errors import DimensionMismatch, NotHermitian, SingularMatrix


def _frac_rows(rows):
    out = []
    width = None
    for row in rows:
        frow = [x if type(x) is Fraction else Fraction(x) for x in row]
        if width is None:
            width = len(frow)
        elif len(frow) != width:
            raise DimensionMismatch("ragged rows")
        out.append(frow)
    return out


class RatMatrix:
    """Row-major matrix of Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = _frac_rows(rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols=None):
        if ncols is None:
            ncols = nrows
        return cls([[0] * ncols for _ in range(nrows)])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return RatMatrix([[-a for a in row] for row in self.rows])

    def scale(self, c):
        c = Fraction(c)
        return RatMatrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        bt = list(zip(*other.rows))
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.rows]
        )

    def transpose(self):
        return RatMatrix([list(col) for col in zip(*self.rows)]) if self.rows else self

    def pow(self, k):
        if not self.is_square:
            raise DimensionMismatch("pow of non-square matrix")
        result = RatMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def int_rows(self):
        """(L, the rows of L*M as ints), with L the lcm of the denominators."""
        den = lcm(*(x.denominator for row in self.rows for x in row))
        return den, [[x.numerator * (den // x.denominator) for x in row] for row in self.rows]

    def det(self):
        """Determinant: bareiss_det(L*M) / L^n, with L the lcm of the denominators."""
        if not self.is_square:
            raise DimensionMismatch("determinant of non-square matrix")
        den, rows = self.int_rows()
        return Fraction(_fast.bareiss_det(rows), den ** self.nrows)

    def nullspace(self):
        """Basis of the right kernel, as a list of column vectors: the RREF basis.

        rank_profile gives pivot rows R and pivot columns C, the first
        independent columns, which are the RREF's pivots.  Free column f
        gives the vector with 1 at f, 0 at the other free columns, and
        -N[R][C]^(-1) N[R][f] on C, taken with the adjugate of N[R][C].
        """
        _, rows = self.int_rows()
        prow, pcol = _fast.rank_profile(rows)
        adj, det = _fast.adj_det([[rows[i][j] for j in pcol] for i in prow])
        basis = []
        for f in sorted(set(range(self.ncols)) - set(pcol)):
            col = [rows[i][f] for i in prow]
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for c, arow in zip(pcol, adj):
                v[c] = Fraction(-sum(a * x for a, x in zip(arow, col)), det)
            basis.append(v)
        return basis


def mat_inverse(M: RatMatrix) -> RatMatrix:
    """Exact inverse L * adj(L*M) / det(L*M), with L the lcm of M's denominators.

    Raises SingularMatrix when det(M) = 0.
    """
    if not M.is_square:
        raise DimensionMismatch("inverse of non-square matrix")
    den, rows = M.int_rows()
    adj, det = _fast.adj_det(rows)
    if not det:
        raise SingularMatrix("matrix is singular")
    return RatMatrix([[Fraction(den * x, det) for x in row] for row in adj])


def block_matrix(grid) -> RatMatrix:
    """Assemble a matrix from a 2d grid of RatMatrix blocks."""
    rows = []
    for brow in grid:
        heights = {b.nrows for b in brow}
        if len(heights) != 1:
            raise DimensionMismatch("inconsistent block heights in a row")
        for i in range(heights.pop()):
            rows.append([x for b in brow for x in b.rows[i]])
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise DimensionMismatch("inconsistent block widths")
    return RatMatrix(rows)


def hermitian_signature(re, im) -> int:
    """Signature (#positive - #negative eigenvalues) of the hermitian matrix re + i*im.

    re and im are square nested sequences of ints or Fractions of one shape,
    re symmetric and im antisymmetric; NotHermitian is raised otherwise.
    Both are multiplied by the positive lcm of all their denominators, which
    keeps the signature, and their integer upper triangles go to
    _fast.herm_sig_fast as a batch of one.
    """
    n = len(re)
    if any(len(row) != n for row in re) or any(len(row) != len(im) for row in im):
        raise NotHermitian("matrix is not square")
    if len(im) != n:
        raise NotHermitian(f"re is {n} x {n} but im is {len(im)} x {len(im)}")
    for i in range(n):
        for j in range(i, n):
            if re[i][j] != re[j][i]:
                raise NotHermitian(f"re is not symmetric at ({i},{j})")
            if im[i][j] != -im[j][i]:
                raise NotHermitian(f"im is not antisymmetric at ({i},{j})")
    den = lcm(*(x.denominator for part in (re, im) for row in part for x in row))

    def upper(part):
        return [{j: [row[j].numerator * (den // row[j].denominator)] for j in range(i, n)}
                for i, row in enumerate(part)]

    return _fast.herm_sig_fast(upper(re), upper(im), 1)[0]
