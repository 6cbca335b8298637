"""Exact signature jump functions of covering links of homology boundary links.

The pipeline: a pattern word gives coefficients c_n; folding them modulo a
prime-power degree d and solving the resulting circulant system yields the
multiplicities of the covering link's parallel strands; the covering transfer
turns block Seifert data into the covering Seifert matrix; and the signature
jump function of the result, rescaled by the clearing denominator s, is the
invariant whose failure to be 2*pi-periodic obstructs concordance to a
boundary link.
"""

from .errors import (
    CoveringTooLarge,
    CovsigError,
    DimensionMismatch,
    EmptyTuple,
    NotAPattern,
    NotHermitian,
    NotPrimePower,
    NotRationalHomologySphere,
    ParseError,
    SingularMatrix,
    SingularSystem,
    UnresolvedComparison,
    ZeroScale,
)
from .exact import (
    DEFAULT_PRECISION_BITS,
    AlgReal,
    Comparison,
    GaussRat,
    RatMatrix,
    alg_compare,
    block_matrix,
    hermitian_signature,
    isolate_real_roots,
    mat_inverse,
)
from .seifert import SeifertData, SignTuple, assemble, connected_sum, mirror, parallel_copies
from .pattern import (
    FoldedRow,
    PatternWord,
    circulant_det_mod_p,
    circulant_matrix,
    fold,
    parse_word,
    pattern_coefficients,
    shift,
    solve_multiplicities,
)
from .covering import (
    MAX_COVERING_N,
    CoveringMatrix,
    CoveringSpec,
    build_covering,
    covering_blocks,
    covering_matrix,
    gamma,
    ltm_family,
    ltm_y_oracle,
    p3_y_oracle,
)
from .jumps import (
    AlgLoc,
    JumpFunction,
    JumpPoint,
    PiLoc,
    Verdict,
    compare_locations,
    covering_jump,
    jump_from_obj,
    jump_function,
    jump_to_obj,
    period_2pi_test,
    scale_jump,
    sum_jumps,
    tl_signature,
    tl_signature_at_pi,
    with_period,
)

__version__ = "0.1.0"
