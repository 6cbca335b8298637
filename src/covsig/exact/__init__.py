"""Exact arithmetic: Gaussian rationals, rational matrices, polynomials, real algebraic numbers.

The names below load their submodule on first access (PEP 562), so that
importing covsig.exact, as every submodule import does, loads nothing else.
"""

import importlib

# submodule -> the names it exports here
_EXPORTS = {
    ".gauss": ("GaussRat", "I"),
    ".matrix": ("RatMatrix", "block_matrix", "hermitian_signature", "mat_inverse"),
    ".algebraic": ("AlgReal", "Comparison", "alg_compare", "dyadic_cell", "isolate_real_roots"),
    "..readers": ("DEFAULT_PRECISION_BITS",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules read as attributes (covsig.exact.poly after `import
# covsig.exact`); poly is exported as well
_SUBMODULES = ("algebraic", "elementary", "gauss", "matrix", "poly")

__all__ = list(_OWNER) + ["poly"]


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
