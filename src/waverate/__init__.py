"""Numerical multiresolution-analysis toolkit.

Builds concrete wavelet families, evaluates their expansions and projection
kernels, and runs the convergence-rate and Sobolev-criterion experiments.
"""

from .grids import DecayHint, DyadicGrid, SampledFunction, sample
from .filters import FilterPair, daubechies_filter, haar_filter
from .families import (
    MRAFamily,
    check_family_invariants,
    derive_wavelet,
    evaluate_dilate,
    make_family,
    parse_family_spec,
    subdivision_scaling,
)

__all__ = [
    "DecayHint",
    "DyadicGrid",
    "SampledFunction",
    "FilterPair",
    "MRAFamily",
    "check_family_invariants",
    "daubechies_filter",
    "derive_wavelet",
    "evaluate_dilate",
    "haar_filter",
    "make_family",
    "parse_family_spec",
    "sample",
    "subdivision_scaling",
]
