"""Dyadic grids and sampled functions.

Everything downstream (scaling functions, wavelets, targets, projections)
is carried as a `SampledFunction` on a `DyadicGrid`.  Grid endpoints must be
dyadic rationals so that sample abscissae are exact in binary floating point;
this is what lets dilated evaluations at matching levels reduce to exact
table lookups instead of interpolation.

Sampling convention for discontinuous functions: a jump located on a grid
point carries the midpoint value (average of the one-sided limits).  With
the grid extended one cell past the support, composite trapezoid quadrature
is then exact for piecewise-constant data.
"""

from __future__ import annotations

import math
import sys

import numpy as np

#: finest lattice level a study may read a table at.  Family tables are
#: tabulated exactly at the level read, one generator per read; the widest,
#: shannon on 128 units, holds 33.6 M points (268 MB) per generator at level
#: 18.  On a 2-core Xeon (fresh process, CPython 3.11, cli.main timed),
#: expand --family shannon --function gaussian --j 0..6 --level 13 reads
#: level 16 and peaks at 143 MB in 1.1-1.5 s (85 MB in 0.65-0.7 s at
#: --level 12), each level nearly doubling the memory; rate --family
#: daubechies:10 --function gaussian --j 3..9 --level 15 (f at level 18,
#: tables to level 15) peaks at 63 MB in 0.12-0.14 s
MAX_TABLE_LEVEL = 18
#: points per call of the callable that `sample` tabulates, and per block of
#: cells of a spline lattice read (`splines.SplineApproximation.on_lattice`)
SAMPLE_CHUNK = 2**14


class ConfigError(ValueError):
    """Caller input that a study rejects before any compute (CLI exit code 1).

    Every library check on a caller's argument raises it."""


class ComputationError(RuntimeError):
    """A computed or stored value that fails its own check (CLI exit code 2).

    Not a ValueError, so no parser's ``except ValueError`` can catch it."""


def check_study_level(level: int) -> None:
    """Raise ConfigError for a negative study level, before any scale rule reads it."""
    if level < 0:
        raise ConfigError(f"level {level} is negative; a study tabulates f at level 0 or finer")


def scale_span(js) -> tuple[int, int]:
    """The ends (first, last) of a study's scales js, their one reader: js must be
    a nonempty range of step 1, so a huge range is bounded before it is walked."""
    if not (isinstance(js, range) and js.step == 1 and js):
        raise ConfigError(f"need a nonempty level range of step 1, got {js!r}")
    return js[0], js[-1]


def check_table_level(level: int) -> None:
    """Raise ConfigError if a study would read tables finer than MAX_TABLE_LEVEL."""
    if level > MAX_TABLE_LEVEL:
        raise ConfigError(
            f"the study reads tables at level {level}; the finest allowed is "
            f"{MAX_TABLE_LEVEL}"
        )


def _is_dyadic(x: float, level: int) -> bool:
    return float(x * 2.0**level).is_integer()


_set = object.__setattr__


class Record:
    """An immutable record that checks its fields as it is built.

    Subclasses name their fields in order in ``_fields``, set each once in
    ``__init__`` through ``_set`` after checking it, and compare by value.
    ``_asdict`` and ``_replace`` work as on the NamedTuple records, and
    ``_replace`` runs the checks again.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name}: {type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class DyadicGrid(Record):
    """Uniform grid on [left, right] with spacing 2**-level."""

    __slots__ = _fields = ("left", "right", "level")

    def __init__(self, left: float, right: float, level: int):
        if level < 0:
            raise ConfigError("grid level must be >= 0")
        if level >= sys.float_info.max_exp:
            raise ConfigError(f"grid level {level}: 2^{level} is not a finite double")
        if not right > left:
            raise ConfigError("grid requires right > left")
        for endpoint in (left, right):
            if not _is_dyadic(endpoint, level):
                raise ConfigError(
                    f"endpoint {endpoint} is not a dyadic rational at level {level}"
                )
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "level", level)

    @property
    def spacing(self) -> float:
        return 2.0**-self.level

    @property
    def count(self) -> int:
        return int(math.ldexp(self.right, self.level)) - self.start + 1

    @property
    def start(self) -> int:
        """Lattice index of left: left = start 2^-level."""
        return int(math.ldexp(self.left, self.level))

    def points(self, first: int = 0, count: int | None = None) -> np.ndarray:
        """The `count` points from index `first` (all by default), built in place:
        left + i*2^-level, exact in binary arithmetic."""
        if count is None:
            count = self.count - first
        x = np.arange(first, first + count, dtype=float)
        x *= self.spacing
        x += self.left
        return x

    def index_of(self, x: float) -> int:
        """Index of a grid point, or raise if x is off-grid."""
        i = int(x * 2.0**self.level) - self.start if _is_dyadic(x, self.level) else -1
        if not 0 <= i < self.count:
            raise ValueError(f"{x} is not a point of {self}")
        return i

    def refine(self, extra_levels: int) -> "DyadicGrid":
        return DyadicGrid(self.left, self.right, self.level + extra_levels)


class DecayHint(Record):
    """Declared tail behaviour of a family's generators (`MRAFamily.decay`).

    kind is 'compact', 'exponential' (at rate `a`) or 'algebraic' (order `N` > 1).
    `truncation` records the magnitude at which tails were cut off; it is
    folded into invariant tolerances for non-compact families.
    """

    __slots__ = _fields = ("kind", "a", "N", "truncation")

    def __init__(self, kind: str, a: float | None = None, N: float | None = None,
                 truncation: float = 0.0):
        if kind not in ("compact", "exponential", "algebraic"):
            raise ValueError(f"unknown decay kind {kind!r}")
        if kind == "exponential" and not (a is not None and a > 0):
            raise ValueError("exponential decay requires a > 0")
        if kind == "algebraic" and not (N is not None and N > 1):
            raise ValueError("algebraic decay requires N > 1")
        _set(self, "kind", kind)
        _set(self, "a", a)
        _set(self, "N", N)
        _set(self, "truncation", truncation)


class SampledFunction(Record):
    """A dyadic grid and a real function's values on it."""

    __slots__ = _fields = ("grid", "values")

    def __init__(self, grid: DyadicGrid, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.count,):
            raise ValueError(f"values length {vals.shape} does not match grid count {grid.count}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        _set(self, "grid", grid)
        _set(self, "values", vals)

    def x(self) -> np.ndarray:
        return self.grid.points()

    @property
    def dx(self) -> float:
        return self.grid.spacing

    def __call__(self, points) -> np.ndarray:
        """Evaluate by linear interpolation; zero outside the grid.

        A test oracle: the hot reads go through ``on_lattice``.
        """
        return np.interp(points, self.x(), self.values, left=0.0, right=0.0)

    def on_lattice(self, level: int, start: int, count: int) -> np.ndarray:
        """self at the lattice points (start + n) 2^-level, n = 0..count-1.

        The lattice must be at or coarser than the table's: its points are
        nodes, read as one strided slice (0 off the grid), bitwise equal to
        calling self on them.  A finer lattice raises ValueError; a table
        holding it exactly comes from its source (`refined_tables` for a
        family, `TestFunction.tabulate` for a test function).
        """
        grid = self.grid
        if level > grid.level:
            raise ValueError(
                f"the level-{level} lattice is finer than the level-{grid.level} table"
            )
        stride = 2 ** (grid.level - level)
        first = start * stride - grid.start
        return strided_read(self.values, first, stride, count)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def norm_l1(self) -> float:
        return float(np.trapezoid(np.abs(self.values), dx=self.dx))

    def norm_sup(self) -> float:
        # max |v| read off the two extremes: no |values| temporary
        return float(abs(max(self.values.max(), -self.values.min())))


def strided_read(values: np.ndarray, first: int, stride: int, count: int) -> np.ndarray:
    """values[first + n * stride] for n = 0..count-1, as one strided slice;
    0 where that index falls outside values."""
    out = np.zeros(count)
    n0 = max(0, -(first // stride))
    n1 = min(count, (values.size - 1 - first) // stride + 1)
    if n1 > n0:
        out[n0:n1] = values[first + n0 * stride : first + (n1 - 1) * stride + 1 : stride]
    return out


def product_quad(values_f: np.ndarray, values_g: np.ndarray, dx: float) -> float:
    """Inner-product quadrature robust to aligned midpoint-sampled jumps.

    Plain trapezoid of f*g has an O(h) deficit of exactly (dv)(dw)h/4 at every
    grid point where both factors jump (midpoint convention); the two-level
    Richardson extrapolation 2 T(h) - T(2h) cancels it while leaving smooth
    integrands with an O(h^2) error.  Jumps must sit on even grid indices,
    i.e. at dyadic points one level coarser than the grid.

    Each trapezoid is taken in sum form, h (sum p - (p_0 + p_N) / 2), with
    numpy's pairwise sum: one pass over the product and one over its even
    samples.  A dot product would hand the sum to BLAS, whose blocking (and
    so its last digits) depends on the thread count.
    """
    prod = values_f * values_g
    ends = (prod[0] + prod[-1]) / 2.0
    fine = dx * (prod.sum() - ends)
    if (prod.size - 1) % 2 != 0:
        return float(fine)
    coarse = 2.0 * dx * (prod[::2].sum() - ends)
    return float(2.0 * fine - coarse)


def r_squared(data: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination of pred for data; 0 for constant data."""
    ss_res = float(np.sum((data - pred) ** 2))
    ss_tot = float(np.sum((data - np.mean(data)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, R^2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    coef = np.polyfit(x, y, 1)
    return float(coef[0]), float(coef[1]), r_squared(y, np.polyval(coef, x))


def sample(func, grid: DyadicGrid) -> SampledFunction:
    """Tabulate a vectorized callable on a grid: one table, filled
    SAMPLE_CHUNK points per call, so func's temporaries stay one chunk long
    at any level."""
    vals = np.empty(grid.count)
    for first in range(0, grid.count, SAMPLE_CHUNK):
        x = grid.points(first, min(SAMPLE_CHUNK, grid.count - first))
        vals[first : first + x.size] = func(x)
    return SampledFunction(grid, vals)
