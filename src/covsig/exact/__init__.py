from .gauss import GaussRat, I
from .matrix import RatMatrix, block_matrix, hermitian_signature, mat_inverse
from .algebraic import (
    AlgReal,
    Comparison,
    DEFAULT_PRECISION_BITS,
    alg_compare,
    dyadic_cell,
    isolate_real_roots,
)
from . import poly

__all__ = [
    "GaussRat",
    "I",
    "RatMatrix",
    "block_matrix",
    "hermitian_signature",
    "mat_inverse",
    "AlgReal",
    "Comparison",
    "DEFAULT_PRECISION_BITS",
    "alg_compare",
    "dyadic_cell",
    "isolate_real_roots",
    "poly",
]
