"""Best-L^2 spline approximation on uniform meshes: banded Cholesky, numpy only.

Order-k B-splines (piecewise degree k-1, smoothness C^{k-2}) on the uniform
knots {window.left + i h} span a nonorthonormal basis; the best L^2
approximation of f solves the banded Gram system G c = b with
b_i = <f, B_i>.  This module is the spline layer only: spaces, Gram, solve
and reads, and `check_study`, which rejects a mesh-halving study before f is
tabulated.  The studies themselves (`convergence.spline_convergence_study`)
fit their rates by the one roundoff rule of `convergence.rate_report` that
the projection studies use, with -log2 h playing the role of the level j.

Boundary handling: the knot sequence is extended k-1 ghost knots beyond the
window and the corresponding B-splines are truncated to the window, so the
(truncated) basis still sums to 1 everywhere inside.  The Gram is built in
banded form: every untruncated entry is h B_{2k}(i - j), exact, and only the
(k-1)-wide blocks at the ends take a quadrature.  Convergence assertions
shrink the window by k h to stay clear of boundary pollution.

One banded Cholesky factor per fit (de Boor, A Practical Guide to Splines,
ch. XIV) serves the solve; a pivot that is not positive signals a bug.

Evaluation is local and read on the lattice.  B_i is nonzero only on its k
cells, so a point in cell floor((x - left)/h) sums just the k+1 basis
functions i = cell-1..cell+k-1 (cell-1 for the order-1 midpoint value 1/2 at
a knot); every other term is an exact zero, and the candidates are added in
increasing i, so the values are bitwise those of the full per-basis sum.
Every study and the box and Battle-Lemarie tables read a dyadic lattice
that splits each cell into m points, at which the k+1 candidates take the
piece values M_k(p + r/m), p = 0..k, r = 0..m-1: `SplineApproximation.on_lattice`
builds that one table per read and adds k+1 shifted products of it with the
coefficients, the transpose of the load vector's per-cell moments; `__call__`
evaluates M_k at arbitrary points and is the oracle for the read.  M_k itself is built bottom-up,
k(k+1)/2 arrays instead of the recursion's 2^k - 1 calls, with the same
arithmetic.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import accumulate
from operator import mul, sub
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (SAMPLE_CHUNK, ComputationError, ConfigError, DyadicGrid,
                    SampledFunction, check_study_level, check_table_level, scale_span,
                    strided_read)

#: f must be tabulated at least this many samples per mesh cell
MIN_SAMPLES_PER_CELL = 8
#: largest order a spline study and battle_lemarie:k accept: the gaussian
#: still fits order 8 at slope 8.6 (meshes 2^-2..2^-5, three above roundoff)
MAX_ORDER = 8
#: default seed for the perturbation-optimality check
PERTURBATION_SEED = 20260823
#: random coefficient perturbations tried by the optimality check, and the
#: 2-norm of each
PERTURBATION_TRIALS = 20
PERTURBATION_SIZE = 1e-3


def cardinal_bspline(k: int, x) -> np.ndarray:
    """Cardinal B-spline M_k supported on [0, k] (midpoint values for k=1)."""
    # y_s = y_{s-1} - 1.0: the recursion's own repeated shifts, not x - s
    ys = list(accumulate([np.asarray(x, dtype=float)] + [1.0] * (k - 1), sub))
    m = [((y > 0) & (y < 1)) + 0.5 * ((y == 0.0) | (y == 1.0)) for y in ys]
    for j in range(2, k + 1):  # row j holds M_j(y_s) for s = 0..k-j
        m = [(y * a + (j - y) * b) / (j - 1) for y, a, b in zip(ys, m, m[1:])]
    return m[0]


class SplineSpace(NamedTuple):
    """Order-k B-splines on uniform knots over a window.

    Basis index i = 0..basis_count-1 has leftmost knot
    window.left + (i - (k-1)) h; the k-1 leftmost and rightmost functions
    extend past the window and are truncated to it.
    """

    order: int
    mesh: float
    window: tuple
    basis_count: int


def make_space(order: int, mesh: float, window) -> SplineSpace:
    if not 1 <= order <= MAX_ORDER:
        raise ConfigError(f"spline order must be in 1..{MAX_ORDER}, got {order}")
    if mesh <= 0:
        raise ConfigError(f"mesh must be positive, got {mesh}")
    width = window[1] - window[0]
    cells = width / mesh
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
        raise ConfigError(
            f"window width {width} is not a positive multiple of mesh {mesh}"
        )
    count = int(round(cells)) + order - 1
    return SplineSpace(order, float(mesh), (float(window[0]), float(window[1])), count)


# ---------------------------------------------------------------------------
# Gram matrix


@functools.cache
def cardinal_autocorrelation(k: int) -> tuple:
    """B_{2k}(n) = <M_k, M_k(. - n)> for n = 0..k-1.

    The centered order-2k B-spline at the integers, from the truncated-power
    formula in integer arithmetic with one division per value; it is the
    interior Gram row (relative to h), the cosine coefficients of the
    Euler-Frobenius polynomial and the Battle-Lemarie overlap kernel.
    """
    m = 2 * k
    return tuple(
        sum((-1) ** j * math.comb(m, j) * (n + k - j) ** (m - 1) for j in range(n + k))
        / math.factorial(m - 1)
        for n in range(k)
    )


#: k-point Gauss-Legendre nodes and weights on [-1, 1] for k = 1..MAX_ORDER,
#: the doubles numpy.polynomial.legendre.leggauss(k) returns, stored so that
#: no study pays for importing numpy.polynomial
_GAUSS_LEGENDRE = {
    1: ((0.0,), (2.0,)),
    2: ((-0.5773502691896257, 0.5773502691896257), (1.0, 1.0)),
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)),
    4: ((-0.8611363115940526, -0.33998104358485626, 0.33998104358485626,
         0.8611363115940526),
        (0.34785484513745357, 0.6521451548625464, 0.6521451548625464,
         0.34785484513745357)),
    5: ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
         0.906179845938664),
        (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
         0.4786286704993663, 0.23692688505618928)),
    6: ((-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
         0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
         0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
    7: ((-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
         0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
        (0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
         0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
         0.12948496616886973)),
    8: ((-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
         -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
         0.7966664774136267, 0.9602898564975362),
        (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
         0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
         0.22238103445337443, 0.10122853629037706)),
}


def gram_matrix(space: SplineSpace) -> np.ndarray:
    """Gram G_ij = <B_i, B_j> in upper banded form: ab[k-1-d, j] = G_{j-d, j}.

    An entry whose product support lies inside the window is h B_{2k}(j - i).
    Only the truncated end blocks (j < k-1 on the left, i > n-k on the right)
    are summed cell by cell over the part of the window they reach.  On the
    uniform mesh every cell carries the same k pieces M_k(p + t), t in [0, 1],
    so one k x k table of the pieces against each other, by the k-point Gauss
    rule (exact for the piecewise polynomials), gives every cell's term.
    """
    k, h, n = space.order, space.mesh, space.basis_count
    cells = n - k + 1
    nodes, weights = map(np.array, _GAUSS_LEGENDRE[k])
    pieces = cardinal_bspline(k, np.arange(k)[:, None] + 0.5 * (nodes + 1.0))
    local = 0.5 * h * (pieces * weights) @ pieces.T
    ab = np.zeros((k, n))
    cols = np.arange(n)
    for d, b in enumerate(cardinal_autocorrelation(k)):
        ab[k - 1 - d, d:] = h * b
        # G_{j-d, j} takes piece p of B_{j-d} against piece p - d of B_j on
        # cell j - d - (k-1) + p, for p = d..k-1
        ends = cols[(cols >= d) & ((cols < k - 1) | (cols - d > n - k))]
        cell = (ends - d - (k - 1))[:, None] + np.arange(d, k)
        inside = (cell >= 0) & (cell < cells)
        ab[k - 1 - d, ends] = np.where(inside, np.diagonal(local, -d), 0.0).sum(axis=1)
    return ab


def _cholesky(ab: np.ndarray) -> list:
    """Banded Cholesky G = U^T U of an upper-banded Gram, column by column.

    LINPACK's dpbfa, on Python floats (a k <= 8 band is too short for numpy
    calls to pay): row j of the result holds column j of U,
    u[j][s] = U[j - (k-1) + s, j], its diagonal last.  A pivot that is not
    positive (G not positive definite) raises ComputationError.
    """
    k, n = ab.shape
    u = ab.T.tolist()
    for j, uj in enumerate(u):
        for s in range(max(0, k - 1 - j), k - 1):
            ui = u[j - (k - 1) + s]
            uj[s] = (uj[s] - sum(map(mul, uj[:s], ui[k - 1 - s : k - 1]))) / ui[k - 1]
        pivot = uj[k - 1] - sum(map(mul, uj[: k - 1], uj[: k - 1]))
        if not pivot > 0:
            raise ComputationError(
                f"Gram matrix not positive definite (pivot {pivot:.3g} at column {j}); "
                "uniform meshes should never do this - this signals a bug"
            )
        uj[k - 1] = math.sqrt(pivot)
    return u


def _solve(u: list, b) -> np.ndarray:
    """G^{-1} b from the banded factor: U^T y = b forward, then U x = y back."""
    k = len(u[0])
    x = np.asarray(b, dtype=float).tolist()
    for j, uj in enumerate(u):
        lo = max(0, j - (k - 1))
        x[j] = (x[j] - sum(map(mul, uj[lo - j + k - 1 : k - 1], x[lo:j]))) / uj[k - 1]
    for j in range(len(u) - 1, -1, -1):
        uj = u[j]
        xj = x[j] = x[j] / uj[k - 1]
        for i in range(max(0, j - (k - 1)), j):
            x[i] -= uj[i - j + k - 1] * xj
    return np.array(x)


# ---------------------------------------------------------------------------
# best L^2 approximation


class SplineApproximation(NamedTuple):
    space: SplineSpace
    coefficients: np.ndarray

    def on_lattice(self, level: int, start: int, count: int) -> np.ndarray:
        """self at the lattice points (start + q) 2^-level, q = 0..count-1.

        The lattice must split each mesh cell into m = mesh 2^level points, a
        positive integer, with the window's left end among them; otherwise
        ConfigError.  Point q lies r = g mod m points into cell g // m, where
        g counts lattice points from the window's left end, and there basis
        cell + t takes the piece value M_k(k - 1 - t + r/m), t = -1..k-1: one
        table of the pieces serves the read, and the k+1 shifted products are
        added in increasing basis index over zero-padded coefficients, a block
        of SAMPLE_CHUNK points (or one cell) at a time, each block then copied
        into the one array of count values returned, so a held table keeps no
        point past its lattice.  For a power-of-two m (a dyadic mesh) the
        table's arguments are __call__'s exactly, so the values are bitwise
        __call__'s.
        """
        k, coef = self.space.order, self.coefficients
        m = math.ldexp(self.space.mesh, level)
        origin = math.ldexp(self.space.window[0], level)
        if not (m >= 1 and m.is_integer() and origin.is_integer()):
            raise ConfigError(
                f"the level-{level} lattice does not split the mesh {self.space.mesh} "
                f"of the window {self.space.window} into whole cells"
            )
        m, first = int(m), start - int(origin)
        lo, cells = first // m, (first + count - 1) // m - first // m + 1
        # padded[t + 1 + c] = coef[lo + c + t], 0 past coef's ends
        padded = strided_read(coef, lo - 1, 1, cells + k)
        pieces = cardinal_bspline(k, np.arange(k + 1)[:, None] + np.arange(m) / m)
        out = np.empty(count)
        per_block = max(1, SAMPLE_CHUNK // m)
        for c in range(0, cells, per_block):
            block = np.zeros((min(per_block, cells - c), m))
            for t in range(-1, k):
                block += padded[c + t + 1 : c + t + 1 + len(block), None] * pieces[k - 1 - t]
            q = (lo + c) * m - first  # the lattice index of the block's first point
            out[max(q, 0) : q + block.size] = block.ravel()[max(-q, 0) : count - q]
        return out

    def __call__(self, x) -> np.ndarray:
        """self at arbitrary points: the oracle for `on_lattice`."""
        k, n, coef = self.space.order, self.space.basis_count, self.coefficients
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise ConfigError("spline evaluation points must be finite")
        u = (x - self.space.window[0]) / self.space.mesh
        cell = np.floor(np.clip(u, -k - 1, n + 1)).astype(np.int64)
        out = np.zeros_like(x)
        for i in (cell + r for r in range(-1, k)):  # in increasing i, as the full sum
            c = np.where((i >= 0) & (i < n), coef[np.clip(i, 0, n - 1)], 0.0)
            out += c * cardinal_bspline(k, u - (i - (k - 1)))
        return out


def _load_vector(f: SampledFunction, space: SplineSpace) -> np.ndarray:
    """b_i = <f, B_i> by composite Simpson with knot-aligned panels.

    Knots (and the bundled jump locations) sit on panel boundaries, where
    Simpson is exact for the piecewise-polynomial integrands and the
    midpoint convention's +-(step/3)(jump/2) endpoint errors cancel between
    the two adjacent panels.  Each cell spans an even number m of f's steps
    and carries the same k pieces M_k(p + r/m), so the per-cell Simpson
    moments F[c, p] = sum_r w_r f[c m + r] M_k(p + r/m) are one product of
    f's overlapping cell rows with a weighted piece table, and
    b_i = (step/3) sum_p F[i - (k-1) + p, p] is k shifted adds.
    """
    k, n = space.order, space.basis_count
    step = f.grid.spacing
    m = int(round(space.mesh / step))
    cells = n - k + 1
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    if k == 1:
        # the order-1 piece is the indicator of its cell; sampling it would
        # read the midpoint value 1/2 at its own jumps, so use the interior value
        table = w[:, None]
    else:
        table = w[:, None] * cardinal_bspline(k, np.arange(m + 1)[:, None] / m + np.arange(k))
    i0 = f.grid.index_of(space.window[0])
    rows = sliding_window_view(f.values[i0 : i0 + cells * m + 1], m + 1)[::m]
    moments = rows @ table
    b = np.zeros(n)
    for p in range(k):
        b[k - 1 - p : k - 1 - p + cells] += moments[:, p]
    return b * step / 3.0


def best_l2_spline(f: SampledFunction, space: SplineSpace) -> SplineApproximation:
    """Solve the banded Gram system for the best L^2 spline approximation."""
    if f.grid.left > space.window[0] + 1e-12 or f.grid.right < space.window[1] - 1e-12:
        raise ConfigError("f is not tabulated on the full spline window")
    mesh, spacing = space.mesh, f.grid.spacing
    if spacing > mesh / MIN_SAMPLES_PER_CELL:
        raise ConfigError(
            f"quadrature resolution insufficient: f spacing {spacing:.3g} "
            f"exceeds mesh/{MIN_SAMPLES_PER_CELL} = {mesh / MIN_SAMPLES_PER_CELL:.3g}"
        )
    ratio = mesh / spacing
    if abs(ratio - round(ratio)) > 1e-9 or int(round(ratio)) % 2:
        raise ConfigError("mesh must be an even integer multiple of f's grid spacing")
    u = _cholesky(gram_matrix(space))
    return SplineApproximation(space, _solve(u, _load_vector(f, space)))


def residual_orthogonality(f: SampledFunction, approx: SplineApproximation) -> float:
    """max_i |<f - s, B_i>|; < 1e-8 ||f||_2 certifies best approximation."""
    grid = DyadicGrid(*approx.space.window, f.grid.level)
    lattice = (grid.level, grid.start, grid.count)
    diff = SampledFunction(grid, f.on_lattice(*lattice) - approx.on_lattice(*lattice))
    return float(np.max(np.abs(_load_vector(diff, approx.space))))


def perturbation_optimality(
    f: SampledFunction, approx: SplineApproximation, seed: int = PERTURBATION_SEED
) -> bool:
    """Every random coefficient perturbation strictly raises the energy
    E(c) = c^T G c - 2 c^T b that the solve minimises, with the exact Gram G
    and the Simpson loads b of `best_l2_spline`.

    The directions are drawn from the stdlib generator, which numpy has
    already imported, rather than numpy.random, whose cold import costs more
    than the check."""
    rng = random.Random(seed)
    space, c = approx.space, approx.coefficients
    ab, b = gram_matrix(space), _load_vector(f, space)

    def energy(coef):
        gc = ab[-1] * coef  # G coef from the upper band ab[k-1-d, j] = G_{j-d, j}
        for d in range(1, space.order):
            gc[:-d] += ab[-1 - d, d:] * coef[d:]
            gc[d:] += ab[-1 - d, d:] * coef[:-d]
        return float(coef @ gc - 2.0 * coef @ b)

    base = energy(c)
    for _ in range(PERTURBATION_TRIALS):
        delta = np.array([rng.gauss(0.0, 1.0) for _ in range(space.basis_count)])
        delta *= PERTURBATION_SIZE / np.linalg.norm(delta)
        if not energy(c + delta) > base:
            return False
    return True


# ---------------------------------------------------------------------------
# study checks


def check_study(window, order: int, exponents, level: int) -> None:
    """Reject a study on the meshes 2^-m, m in the range `exponents`, before
    f is tabulated at `level` and before any mesh exists: a negative level or
    one above MAX_TABLE_LEVEL, an order outside 1..MAX_ORDER, fewer than two
    exponents.  The meshes are nested and dyadic, so the ends (`scale_span`)
    decide them all: the coarsest must tile the window and survive the
    boundary shrink of order * h_0 at each end, the finest must span
    MIN_SAMPLES_PER_CELL points of the level grid.  Exponents outside that
    range at a level too coarse for two of them name the least level that
    admits two."""
    check_study_level(level)
    coarse, fine = scale_span(exponents)
    lo = math.ceil(-math.log2(window[1] - window[0]))
    hi = level - int(math.log2(MIN_SAMPLES_PER_CELL))
    if not lo <= coarse <= fine <= hi:
        if hi <= lo:
            raise ConfigError(
                f"level {level} is too coarse for two mesh exponents: "
                f"the least level that admits two is {level + lo + 1 - hi}"
            )
        raise ConfigError(f"mesh exponents must lie in {lo}..{hi} at level {level}")
    check_table_level(level)
    if fine == coarse:
        raise ConfigError("need at least two mesh exponents")
    h0 = 2.0**-coarse
    make_space(order, h0, window)
    if 2 * order * h0 >= window[1] - window[0]:
        raise ConfigError(
            f"order {order} at mesh {h0} shrinks the window {tuple(window)} "
            "to nothing; start from a finer mesh"
        )
