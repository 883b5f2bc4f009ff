"""The record types: built by keyword with their defaults, immutable, and
(the grid and the decay hint) equal by value."""

import numpy as np
import pytest

from waverate.convergence import MarkedPoint, RateReport, TestFunction
from waverate.expansion import ExpansionCoefficients, SummationSchedule
from waverate.families import MRAFamily
from waverate.filters import FilterPair
from waverate.grids import DecayHint, DyadicGrid, SampledFunction
from waverate.kernels import DecayFit, KernelEvaluation, RadialBound
from waverate.sobolev import CriticalOrder, IntegralResult, SampledSpectrum, SymbolSpectrum
from waverate.splines import SplineApproximation, SplineSpace


def _nothing(*args):
    return None


GRID = DyadicGrid(0.0, 1.0, 3)
TABLE = SampledFunction(GRID, np.zeros(9))
HAAR = np.array([2**-0.5, 2**-0.5])
FAMILY = MRAFamily("haar", None, 1, _nothing, _nothing, _nothing, _nothing, 0)
SPACE = SplineSpace(1, 0.5, (0.0, 1.0), 2)

#: (record type, its required fields in order, its defaulted fields and defaults)
RECORDS = [
    (DyadicGrid, {"left": 0.0, "right": 1.0, "level": 3}, {}),
    (DecayHint, {"kind": "compact"}, {"a": None, "N": None, "truncation": 0.0}),
    (SampledFunction, {"grid": GRID, "values": np.zeros(9)}, {}),
    (FilterPair, {"lowpass": HAAR}, {}),
    (MRAFamily, {"name": "haar", "filter": None, "vanishing_moments": 1,
                 "symbol": _nothing, "tabulate": _nothing, "geometry": _nothing,
                 "invariants": _nothing, "quad_refine": 0},
     {"param": None}),
    (ExpansionCoefficients, {"family": FAMILY, "base_level": 0, "top_level": 1,
                             "b": {}, "a": {}}, {}),
    (SummationSchedule, {"groups": ((("b", 0),),), "bounded_range": 1}, {}),
    (MarkedPoint, {"x": 0.0, "kind": "jump", "reference": None}, {}),
    (TestFunction, {"name": "zero", "sampler": _nothing, "window": (-1.0, 1.0),
                    "marked_points": (), "smoothness_class": 1.0},
     {"cumulative_measure": None}),
    (RateReport, {"family": "haar", "function": "zero", "j_values": (3, 4),
                  "sup_errors": (0.5, 0.25), "slope": 1.0, "intercept": 0.0,
                  "r_squared": 1.0, "fitted_levels": (3, 4)}, {}),
    (KernelEvaluation, {"j": 0, "xs": GRID, "ys": GRID, "values": np.zeros((9, 9))}, {}),
    (RadialBound, {"radii": np.arange(2.0), "majorant": np.ones(2)}, {}),
    (DecayFit, {"constant": 1.0, "rate": 0.5, "r2": 1.0, "flagged": False}, {}),
    (SplineSpace, {"order": 1, "mesh": 0.5, "window": (0.0, 1.0), "basis_count": 2}, {}),
    (SplineApproximation, {"space": SPACE, "coefficients": np.zeros(2)}, {}),
    (SymbolSpectrum, {"symbol": _nothing, "which": "psi"}, {}),
    (SampledSpectrum, {"source": TABLE}, {}),
    (IntegralResult, {"s": 1.0, "epsilon": 1.0, "value": 2.0, "diverged": False,
                      "shells": (1.0, 1.0)}, {}),
    (CriticalOrder, {"family": "haar", "s_star": 1.0, "criterion": "wavelet",
                     "local_exponents": (1.0, 1.0)}, {}),
]

#: record type -> a field change that makes an unequal record
BY_VALUE = {DyadicGrid: {"level": 4}, DecayHint: {"truncation": 1e-12}}


@pytest.mark.parametrize("cls, given, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, given, defaults):
    record = cls(**given)
    assert all(getattr(record, name) is value for name, value in given.items())
    assert all(getattr(record, name) == value for name, value in defaults.items())
    # the required fields in order, positionally
    by_position = cls(*given.values())
    assert all(getattr(by_position, name) is value for name, value in given.items())
    for name in (*given, *defaults):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    if cls in BY_VALUE:
        assert record == cls(**given) and hash(record) == hash(cls(**given))
        assert record != cls(**{**given, **BY_VALUE[cls]})
