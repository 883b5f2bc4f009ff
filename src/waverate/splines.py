"""Best-L^2 spline approximation on uniform meshes via banded Gram solves.

Order-k B-splines (piecewise degree k-1, smoothness C^{k-2}) on the uniform
knots {window.left + i h} span a nonorthonormal basis; the best L^2
approximation of f solves the banded Gram system G c = b with
b_i = <f, B_i>.  Mesh-refinement studies with h halving realize the same
log2-rate regressions as the dyadic projection studies, with -log2 h playing
the role of the level j.

Boundary handling: the knot sequence is extended k-1 ghost knots beyond the
window and the corresponding B-splines are truncated to the window, so the
(truncated) basis still sums to 1 everywhere inside.  Convergence assertions
shrink the window by k h to stay clear of boundary pollution.

Evaluation is local: B_i is nonzero only on its k cells, so a point in cell
floor((x - left)/h) sums just the k+1 basis functions i = cell-1..cell+k-1
(cell-1 for the order-1 midpoint value 1/2 at a knot), O(k) per point
whatever the number of basis functions.  Every other term is an exact zero,
and the candidates are added in increasing i, so the values are bitwise
those of the full per-basis sum.  M_k itself is built bottom-up, k(k+1)/2
arrays instead of the recursion's 2^k - 1 calls, with the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

import numpy as np

from .grids import NO_DECAY, DyadicGrid, SampledFunction

#: Gram condition estimates above this indicate a bug (uniform meshes are
#: uniformly well conditioned)
CONDITION_LIMIT = 1e12
#: f must be tabulated at least this many samples per mesh cell
MIN_SAMPLES_PER_CELL = 8
#: largest order a study accepts: from order 9 on, the Gram condition of the
#: truncated boundary splines exceeds CONDITION_LIMIT (4.3e12 at order 9)
MAX_ORDER = 8
#: default seed for the perturbation-optimality check
PERTURBATION_SEED = 20260823


class SplineError(ValueError):
    """Raised for invalid spline spaces or unusable tabulations."""


def cardinal_bspline(k: int, x) -> np.ndarray:
    """Cardinal B-spline M_k supported on [0, k] (midpoint values for k=1)."""
    # y_s = y_{s-1} - 1.0: the recursion's own repeated shifts, not x - s
    ys = list(accumulate([np.asarray(x, dtype=float)] + [1.0] * (k - 1), sub))
    m = [((y > 0) & (y < 1)) + 0.5 * ((y == 0.0) | (y == 1.0)) for y in ys]
    for j in range(2, k + 1):  # row j holds M_j(y_s) for s = 0..k-j
        m = [(y * a + (j - y) * b) / (j - 1) for y, a, b in zip(ys, m, m[1:])]
    return m[0]


@dataclass(frozen=True)
class SplineSpace:
    """Order-k B-splines on uniform knots over a window.

    Basis index i = 0..basis_count-1 has leftmost knot
    window.left + (i - (k-1)) h; the k-1 leftmost and rightmost functions
    extend past the window and are truncated to it.
    """

    order: int
    mesh: float
    window: tuple
    basis_count: int

    def knot(self, i: int) -> float:
        return self.window[0] + (i - (self.order - 1)) * self.mesh

    def basis(self, i: int, x) -> np.ndarray:
        u = (np.asarray(x, dtype=float) - self.window[0]) / self.mesh
        return cardinal_bspline(self.order, u - (i - (self.order - 1)))


def make_space(order: int, mesh: float, window) -> SplineSpace:
    if order < 1:
        raise SplineError(f"spline order must be >= 1, got {order}")
    if mesh <= 0:
        raise SplineError(f"mesh must be positive, got {mesh}")
    width = window[1] - window[0]
    cells = width / mesh
    if abs(cells - round(cells)) > 1e-9 or round(cells) < 1:
        raise SplineError(
            f"window width {width} is not a positive multiple of mesh {mesh}"
        )
    n = int(round(cells))
    count = n + order - 1
    if count < order:
        raise SplineError(f"need at least {order} basis functions, got {count}")
    return SplineSpace(order, float(mesh), (float(window[0]), float(window[1])), count)


def partition_defect(space: SplineSpace, samples: int = 1025) -> float:
    """max |sum_i B_i(x) - 1| over the window (truncated ghosts included)."""
    x = np.linspace(space.window[0], space.window[1], samples)[1:-1]
    ones = SplineApproximation(space, np.ones(space.basis_count), 0.0)
    return float(np.max(np.abs(ones(x) - 1.0)))


# ---------------------------------------------------------------------------
# Gram matrix


#: exact interior Gram rows h * [g_0, g_1, ...] of cardinal splines, k <= 4
_CARDINAL_GRAM = {
    1: (1.0,),
    2: (4.0 / 6.0, 1.0 / 6.0),
    3: (66.0 / 120.0, 26.0 / 120.0, 1.0 / 120.0),
    4: (2416.0 / 5040.0, 1191.0 / 5040.0, 120.0 / 5040.0, 1.0 / 5040.0),
}


def cardinal_gram_row(k: int) -> tuple:
    """Closed-form interior Gram row (relative to h) for k <= 4."""
    if k not in _CARDINAL_GRAM:
        raise SplineError(f"closed-form Gram rows tabulated for k <= 4, got {k}")
    return _CARDINAL_GRAM[k]


def _gauss_entry(space: SplineSpace, i: int, j: int) -> float:
    """<B_i, B_j> over the window by per-cell Gauss-Legendre (exact)."""
    k, h, (left, right) = space.order, space.mesh, space.window
    lo = max(left, space.knot(max(i, j)))
    hi = min(right, space.knot(min(i, j)) + k * h)
    if hi <= lo:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(k)
    total = 0.0
    m0 = int(math.floor((lo - left) / h + 1e-9))
    m1 = int(math.ceil((hi - left) / h - 1e-9))
    for m in range(m0, m1):
        a, b = left + m * h, left + (m + 1) * h
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(
            np.sum(weights * space.basis(i, x) * space.basis(j, x))
        )
    return total


def gram_matrix(space: SplineSpace) -> np.ndarray:
    """Symmetric banded Gram G_ij = <B_i, B_j>, bandwidth k - 1.

    Interior entries use the exact closed-form cardinal rows for k <= 4;
    truncated boundary entries (and all entries for k > 4) use a per-cell
    Gauss rule that is exact for the piecewise-polynomial integrands.
    """
    k, h, n = space.order, space.mesh, space.basis_count
    G = np.zeros((n, n))
    row = _CARDINAL_GRAM.get(k)
    for i in range(n):
        for j in range(i, min(n, i + k)):
            interior = (
                row is not None
                and space.knot(j) >= space.window[0] - 1e-12
                and space.knot(i) + k * h <= space.window[1] + 1e-12
            )
            if interior:
                val = h * row[j - i]
            else:
                val = _gauss_entry(space, i, j)
            G[i, j] = G[j, i] = val
    return G


def _banded_upper(G: np.ndarray, bandwidth: int) -> np.ndarray:
    n = G.shape[0]
    ab = np.zeros((bandwidth + 1, n))
    for d in range(bandwidth + 1):
        ab[bandwidth - d, d:] = np.diagonal(G, offset=d)
    return ab


def condition_estimate(space: SplineSpace) -> float:
    return _banded_condition(_banded_upper(gram_matrix(space), space.order - 1))


def _banded_condition(ab: np.ndarray) -> float:
    """Extreme-eigenvalue ratio of a symmetric matrix in upper banded form."""
    # scipy.linalg costs a few tenths of a second to import; only solves pay it
    from scipy.linalg import eig_banded

    n = ab.shape[1]
    smallest = eig_banded(ab, lower=False, eigvals_only=True, select="i", select_range=(0, 0))[0]
    largest = eig_banded(
        ab, lower=False, eigvals_only=True, select="i", select_range=(n - 1, n - 1)
    )[0]
    if smallest <= 0:
        return math.inf
    return float(largest / smallest)


# ---------------------------------------------------------------------------
# best L^2 approximation


@dataclass(frozen=True)
class SplineApproximation:
    space: SplineSpace
    coefficients: np.ndarray
    residual_l2: float

    def __call__(self, x) -> np.ndarray:
        k, n, coef = self.space.order, self.space.basis_count, self.coefficients
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise SplineError("spline evaluation points must be finite")
        u = (x - self.space.window[0]) / self.space.mesh
        cell = np.floor(np.clip(u, -k - 1, n + 1)).astype(np.int64)
        out = np.zeros_like(x)
        for i in (cell + r for r in range(-1, k)):  # in increasing i, as the full sum
            c = np.where((i >= 0) & (i < n), coef[np.clip(i, 0, n - 1)], 0.0)
            out += c * cardinal_bspline(k, u - (i - (k - 1)))
        return out


def _simpson(values: np.ndarray, step: float) -> float:
    """Composite Simpson over an even number of intervals."""
    w = np.ones(values.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, values)) * step / 3.0


def _load_vector(f: SampledFunction, space: SplineSpace) -> np.ndarray:
    """b_i = <f, B_i> by composite Simpson with even-aligned panels.

    Knots (and the bundled jump locations) sit on panel boundaries, where
    Simpson is exact for the piecewise-polynomial integrands and the
    midpoint convention's +-(step/3)(jump/2) endpoint errors cancel between
    the two adjacent panels.
    """
    grid = f.grid
    k, h = space.order, space.mesh
    b = np.empty(space.basis_count)
    step = grid.spacing
    for i in range(space.basis_count):
        lo = max(space.window[0], space.knot(i))
        hi = min(space.window[1], space.knot(i) + k * h)
        # lo and hi are knots (or window edges), exactly on f's lattice, and
        # separated by whole mesh cells of even lattice length, so Simpson
        # panels line up with the knot intervals
        i0 = int(round((lo - grid.left) / step))
        i1 = int(round((hi - grid.left) / step))
        x = grid.left + np.arange(i0, i1 + 1) * step
        if k == 1:
            # the order-1 basis is the indicator of the single cell [lo, hi];
            # sampling it would read the midpoint value 1/2 at its own jumps,
            # so use the interior value directly
            bvals = np.ones(x.size)
        else:
            bvals = space.basis(i, x)
        b[i] = _simpson(f.values[i0 : i1 + 1] * bvals, step)
    return b


def _check_resolution(mesh: float, spacing: float) -> None:
    if spacing > mesh / MIN_SAMPLES_PER_CELL:
        raise SplineError(
            f"quadrature resolution insufficient: f spacing {spacing:.3g} "
            f"exceeds mesh/{MIN_SAMPLES_PER_CELL} = {mesh / MIN_SAMPLES_PER_CELL:.3g}"
        )
    ratio = mesh / spacing
    if abs(ratio - round(ratio)) > 1e-9 or int(round(ratio)) % 2:
        raise SplineError("mesh must be an even integer multiple of f's grid spacing")


def best_l2_spline(f: SampledFunction, space: SplineSpace) -> SplineApproximation:
    """Solve the banded Gram system for the best L^2 spline approximation."""
    if f.grid.left > space.window[0] + 1e-12 or f.grid.right < space.window[1] - 1e-12:
        raise SplineError("f is not tabulated on the full spline window")
    _check_resolution(space.mesh, f.grid.spacing)
    from scipy.linalg import solveh_banded

    ab = _banded_upper(gram_matrix(space), space.order - 1)
    cond = _banded_condition(ab)
    if cond > CONDITION_LIMIT:
        raise SplineError(
            f"Gram matrix ill-conditioned (estimate {cond:.3g}); "
            "uniform meshes should never do this - this signals a bug"
        )
    b = _load_vector(f, space)
    coef = solveh_banded(ab, b, lower=False)
    i0 = f.grid.index_of(space.window[0])
    i1 = f.grid.index_of(space.window[1])
    x = f.grid.left + np.arange(i0, i1 + 1) * f.grid.spacing
    resid = f.values[i0 : i1 + 1] - SplineApproximation(space, coef, 0.0)(x)
    residual_l2 = float(np.sqrt(np.trapezoid(resid**2, dx=f.grid.spacing)))
    return SplineApproximation(space, coef, residual_l2)


def residual_orthogonality(f: SampledFunction, approx: SplineApproximation) -> float:
    """max_i |<f - s, B_i>|; < 1e-8 ||f||_2 certifies best approximation."""
    space = approx.space
    grid = f.grid
    i0 = grid.index_of(space.window[0])
    i1 = grid.index_of(space.window[1])
    x = grid.left + np.arange(i0, i1 + 1) * grid.spacing
    diff = SampledFunction(
        DyadicGrid(space.window[0], space.window[1], grid.level),
        f.values[i0 : i1 + 1] - approx(x),
        NO_DECAY,
    )
    b = _load_vector(diff, space)
    return float(np.max(np.abs(b)))


def perturbation_optimality(
    f: SampledFunction,
    approx: SplineApproximation,
    trials: int = 20,
    magnitude: float = 1e-3,
    seed: int = PERTURBATION_SEED,
) -> bool:
    """Every random coefficient perturbation strictly worsens the residual."""
    rng = np.random.default_rng(seed)
    space = approx.space
    i0 = f.grid.index_of(space.window[0])
    i1 = f.grid.index_of(space.window[1])
    x = f.grid.left + np.arange(i0, i1 + 1) * f.grid.spacing
    fv = f.values[i0 : i1 + 1]
    base = float(np.sqrt(np.trapezoid((fv - approx(x)) ** 2, dx=f.grid.spacing)))
    for _ in range(trials):
        delta = rng.standard_normal(space.basis_count)
        delta *= magnitude / np.linalg.norm(delta)
        bumped = SplineApproximation(space, approx.coefficients + delta, 0.0)
        worse = float(np.sqrt(np.trapezoid((fv - bumped(x)) ** 2, dx=f.grid.spacing)))
        if not worse > base - 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# convergence studies


def _validate_meshes(meshes) -> list:
    hs = [float(h) for h in meshes]
    if len(hs) < 2:
        raise SplineError("need at least two meshes")
    for a, b in zip(hs, hs[1:]):
        if not b < a:
            raise SplineError("meshes must be strictly decreasing")
        if abs(b - a / 2) > 1e-12 * a:
            raise SplineError("each mesh must halve the previous one")
    return hs


def check_study(window, order: int, meshes, level: int) -> list:
    """Validate a mesh-refinement study before f is tabulated; return the meshes.

    Rejects every configuration that would otherwise fail part-way: an order
    outside 1..MAX_ORDER, meshes that do not halve or do not tile the window,
    a level too coarse for the finest mesh, and a window that the boundary
    shrink of order * h_0 at each end leaves empty.
    """
    if not 1 <= order <= MAX_ORDER:
        raise SplineError(f"spline order must be in 1..{MAX_ORDER}, got {order}")
    hs = _validate_meshes(meshes)
    for h in hs:
        make_space(order, h, window)
        _check_resolution(h, 2.0**-level)
    if 2 * order * hs[0] >= window[1] - window[0]:
        raise SplineError(
            f"order {order} at mesh {hs[0]} shrinks the window {tuple(window)} "
            "to nothing; start from a finer mesh"
        )
    return hs


def spline_convergence_study(tf, order: int, meshes, level: int = 12):
    """Sup errors on a boundary-shrunk window as the mesh halves.

    Returns the shared RateReport with -log2 h in the role of the level.
    """
    from .convergence import RateReport, _fit_rate

    hs = check_study(tf.window, order, meshes, level)
    f = tf.tabulate(level)
    shrink = order * hs[0]
    lo = math.ceil((tf.window[0] + shrink) * 2**level) / 2**level
    hi = math.floor((tf.window[1] - shrink) * 2**level) / 2**level
    i0, i1 = f.grid.index_of(lo), f.grid.index_of(hi)
    x = f.grid.left + np.arange(i0, i1 + 1) * f.grid.spacing
    truth = f.values[i0 : i1 + 1]
    js, errors = [], []
    for h in hs:
        space = make_space(order, h, tf.window)
        approx = best_l2_spline(f, space)
        js.append(-math.log2(h))
        errors.append(float(np.max(np.abs(approx(x) - truth))))
    slope, intercept, r2 = _fit_rate(js, errors)
    lipschitz = float(np.max(np.abs(np.diff(truth)))) / f.grid.spacing
    return RateReport(
        family=f"spline:k={order}",
        function=tf.name,
        j_values=tuple(js),
        sup_errors=tuple(errors),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        quantization_bound=2.0**-level * lipschitz,
    )


def spline_pointwise_trace(tf, order: int, meshes, x: float, level: int = 12):
    """(-log2 h, s(x)) pairs of the best spline evaluated at a fixed point."""
    hs = _validate_meshes(meshes)
    f = tf.tabulate(level)
    rows = []
    for h in hs:
        approx = best_l2_spline(f, make_space(order, h, tf.window))
        rows.append((-math.log2(h), float(approx(x)[0])))
    return np.array(rows)
