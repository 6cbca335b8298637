"""Exact signature jump functions of covering links of homology boundary links.

The pipeline: a pattern word gives coefficients c_n; folding them modulo a
prime-power degree d and solving the resulting circulant system yields the
multiplicities of the covering link's parallel strands; the covering transfer
turns block Seifert data into the covering Seifert matrix; and the signature
jump function of the result, rescaled by the clearing denominator s, is the
invariant whose failure to be 2*pi-periodic obstructs concordance to a
boundary link.

The names below load their submodule on first access (PEP 562): `import
covsig` loads no pipeline code, and a process loads only the modules its
work reaches.
"""

import importlib

# submodule -> the names it exports here
_EXPORTS = {
    ".errors": (
        "CoveringTooLarge",
        "CovsigError",
        "DimensionMismatch",
        "EmptyTuple",
        "NotAPattern",
        "NotHermitian",
        "NotPrimePower",
        "NotRationalHomologySphere",
        "ParseError",
        "SingularMatrix",
        "SingularSystem",
        "UnresolvedComparison",
        "ZeroScale",
    ),
    ".exact": (
        "DEFAULT_PRECISION_BITS",
        "AlgReal",
        "Comparison",
        "RatMatrix",
        "alg_compare",
        "block_matrix",
        "hermitian_signature",
        "isolate_real_roots",
        "mat_inverse",
    ),
    ".seifert": ("SeifertData", "SignTuple", "assemble", "connected_sum", "mirror",
                 "parallel_copies"),
    ".pattern": (
        "FoldedRow",
        "PatternWord",
        "circulant_det_mod_p",
        "circulant_matrix",
        "fold",
        "parse_word",
        "pattern_coefficients",
        "shift",
        "solve_multiplicities",
    ),
    ".covering": (
        "MAX_COVERING_N",
        "CoveringMatrix",
        "CoveringSpec",
        "build_covering",
        "covering_blocks",
        "covering_matrix",
        "gamma",
        "ltm_family",
        "ltm_y_oracle",
        "p3_y_oracle",
    ),
    ".jumps": (
        "AlgLoc",
        "JumpFunction",
        "JumpPoint",
        "PiLoc",
        "Verdict",
        "compare_locations",
        "covering_jump",
        "jump_from_obj",
        "jump_function",
        "jump_to_obj",
        "period_2pi_test",
        "scale_jump",
        "sum_jumps",
        "tl_signature",
        "tl_signature_at_pi",
        "with_period",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules read as attributes (covsig.jumps after `import covsig`)
_SUBMODULES = ("_fast", "covering", "errors", "exact", "jumps", "pattern", "seifert")

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
