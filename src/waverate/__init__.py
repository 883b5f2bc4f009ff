"""Numerical multiresolution-analysis toolkit.

Builds concrete wavelet families, evaluates their expansions and projection
kernels, and runs the convergence-rate and Sobolev-criterion experiments.

The names below load their module, and numpy with it, on first use (PEP 562),
so ``waverate.cli`` can set its BLAS thread count before numpy starts.
"""

import importlib

#: each re-exported name -> the module that defines it
_EXPORTS = {
    "DecayHint": "grids",
    "DyadicGrid": "grids",
    "SampledFunction": "grids",
    "FilterPair": "filters",
    "MRAFamily": "families",
    "check_family_invariants": "families",
    "daubechies_filter": "filters",
    "derive_wavelet": "families",
    "evaluate_dilate": "families",
    "haar_filter": "filters",
    "make_family": "families",
    "parse_family_spec": "families",
    "sample": "grids",
    "subdivision_scaling": "families",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
