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
from dataclasses import dataclass, field

import numpy as np

#: finest lattice level a study may read a table at.  Family tables are
#: tabulated exactly at the level read, one generator per read; the widest,
#: shannon on 128 units, holds 33.6 M points (268 MB) per generator at level
#: 18.  On a 2-core Xeon, expand --family shannon --function gaussian --j 0..6
#: --level 13 reads level 16 and peaks at 300 MB in 1.6-1.8 s (166 MB in
#: 1.2 s at --level 12), each level more nearly doubling the memory; rate
#: --family daubechies:10 --function gaussian --j 3..9 --level 15 (f at
#: level 18, tables to level 15) peaks at 109 MB in 0.45-0.5 s
MAX_TABLE_LEVEL = 18


def check_table_level(level: int) -> None:
    """Raise ValueError if a study would read tables finer than MAX_TABLE_LEVEL."""
    if level > MAX_TABLE_LEVEL:
        raise ValueError(
            f"the study reads tables at level {level}; the finest allowed is "
            f"{MAX_TABLE_LEVEL}"
        )


def _is_dyadic(x: float, level: int) -> bool:
    scaled = x * 2.0**level
    return scaled == np.floor(scaled)


@dataclass(frozen=True)
class DyadicGrid:
    """Uniform grid on [left, right] with spacing 2**-level."""

    left: float
    right: float
    level: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("grid level must be >= 0")
        if self.level >= sys.float_info.max_exp:
            raise ValueError(f"grid level {self.level}: 2^{self.level} is not a finite double")
        if not self.right > self.left:
            raise ValueError("grid requires right > left")
        for endpoint in (self.left, self.right):
            if not _is_dyadic(endpoint, self.level):
                raise ValueError(
                    f"endpoint {endpoint} is not a dyadic rational at level {self.level}"
                )

    @property
    def spacing(self) -> float:
        return 2.0**-self.level

    @property
    def count(self) -> int:
        return int(round((self.right - self.left) * 2**self.level)) + 1

    def points(self) -> np.ndarray:
        # left + i*2^-level, exact in binary arithmetic
        return self.left + np.arange(self.count) * self.spacing

    def index_of(self, x: float) -> int:
        """Index of a grid point, or raise if x is off-grid."""
        idx = (x - self.left) * 2**self.level
        i = int(round(idx))
        if abs(idx - i) > 1e-9 or not 0 <= i < self.count:
            raise ValueError(f"{x} is not a point of {self}")
        return i

    def refine(self, extra_levels: int) -> "DyadicGrid":
        return DyadicGrid(self.left, self.right, self.level + extra_levels)


@dataclass(frozen=True)
class DecayHint:
    """Declared tail behaviour of a sampled function.

    kind is one of 'compact', 'exponential', 'algebraic', 'none'.
    `a` is the exponential rate, `N` the algebraic order (N > 1).
    `truncation` records the magnitude at which tails were cut off; it is
    folded into invariant tolerances for non-compact families.
    """

    kind: str
    a: float | None = None
    N: float | None = None
    truncation: float = 0.0

    def __post_init__(self):
        if self.kind not in ("compact", "exponential", "algebraic", "none"):
            raise ValueError(f"unknown decay kind {self.kind!r}")
        if self.kind == "exponential" and not (self.a is not None and self.a > 0):
            raise ValueError("exponential decay requires a > 0")
        if self.kind == "algebraic" and not (self.N is not None and self.N > 1):
            raise ValueError("algebraic decay requires N > 1")


COMPACT = DecayHint("compact")
NO_DECAY = DecayHint("none")


@dataclass(frozen=True)
class SampledFunction:
    """Real-valued function tabulated on a dyadic grid."""

    grid: DyadicGrid
    values: np.ndarray = field(repr=False)
    decay_hint: DecayHint = COMPACT

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.count,):
            raise ValueError(
                f"values length {vals.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        if self.decay_hint.kind == "compact":
            if vals[0] != 0.0 or vals[-1] != 0.0:
                raise ValueError("compact support requires vanishing endpoint values")

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
        first = start * stride - round(math.ldexp(grid.left, grid.level))
        return strided_read(self.values, first, stride, count)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.dx))

    def norm_l1(self) -> float:
        return float(np.trapezoid(np.abs(self.values), dx=self.dx))

    def norm_l2(self) -> float:
        return float(np.sqrt(np.trapezoid(self.values**2, dx=self.dx)))

    def norm_sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def restrict(self, left: float, right: float) -> "SampledFunction":
        i0 = self.grid.index_of(left)
        i1 = self.grid.index_of(right)
        sub = DyadicGrid(left, right, self.grid.level)
        return SampledFunction(sub, self.values[i0 : i1 + 1].copy(), NO_DECAY)


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


def sample(func, grid: DyadicGrid, decay_hint: DecayHint = COMPACT) -> SampledFunction:
    """Tabulate a callable on a grid."""
    vals = np.asarray(func(grid.points()), dtype=float)
    return SampledFunction(grid, vals, decay_hint)
