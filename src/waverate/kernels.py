"""Projection kernels, rescaled radial profiles, and decay-model fits.

The orthogonal projection onto V_j has kernel P_j(x,y) = sum_k
phi_jk(x) phi_jk(y).  Its size is controlled by a single rescaled profile:
|P_j(x,y)| <= C 2^j H(2^j |x-y|) with H nonincreasing and integrable for
well-behaved families.  This module tabulates P_j as a product of atom
rows from the dyadic-lattice engine (`waverate.expansion.atom_rows`),
extracts the tightest nonincreasing majorant of the rescaled data, checks
that profiles collapse across scales onto one integrable envelope, and fits
exponential or algebraic decay models to the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convergence import line_fit, r_squared
from .expansion import atom_rows, translate_range
from .families import MRAFamily, refined_tables
from .grids import NO_DECAY, DyadicGrid, SampledFunction
from .serialize import write_json

# rescaled-radius resolution 2^-RADII_LEVEL, shared across scales within a
# family; compact supports need the finer lattice or boundary quantization
# visibly erodes the majorant's mass near the support edge
RADII_LEVEL_COMPACT = 6
RADII_LEVEL_WIDE = 4
U_CAP = 64.0  # off-diagonal evaluation radius; tails beyond are model-estimated
PROFILE_FLOOR = 1e-12
FOLD_ROWS = 64  # kernel rows folded onto the diagonals per array pass
MIN_FIT_POINTS = 20


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class KernelEvaluation:
    family: MRAFamily
    j: int
    xs: DyadicGrid
    ys: DyadicGrid
    values: np.ndarray = field(repr=False)  # shape (xs.count, ys.count)


@dataclass(frozen=True)
class RadialBound:
    """Nonincreasing majorant M(u) of |P_j(x,y)|/2^j over u = 2^j |x-y|."""

    radii: np.ndarray = field(repr=False)
    majorant: np.ndarray = field(repr=False)
    constant: float
    l1_mass: float
    label: str = ""
    j: int = 0


@dataclass(frozen=True)
class DecayFit:
    model: str  # "exponential" or "algebraic"
    constant: float
    rate: float  # a for exponential, N for algebraic
    r2: float
    n_points: int
    flagged: bool  # model mismatch: nonpositive rate or degenerate range


# ---------------------------------------------------------------------------
# kernel evaluation


def _translate_sum(table: SampledFunction, fam, j: int, xs: DyadicGrid, ys: DyadicGrid):
    """sum_k g_jk(x) g_jk(y) over the translates meeting both grids."""
    kx = translate_range(fam, j, (xs.left, xs.right))
    ky = translate_range(fam, j, (ys.left, ys.right))
    ks = range(max(kx.start, ky.start), min(kx.stop, ky.stop))
    if not ks:
        return np.zeros((xs.count, ys.count))
    ax = atom_rows(table, j, ks, xs.points(), xs.level)
    # one grid reads its rows once; the copy keeps numpy's general product,
    # since a matrix times its own transpose takes a symmetric path that
    # rounds differently
    ay = ax.copy() if ys == xs else atom_rows(table, j, ks, ys.points(), ys.level)
    return ax.T @ ay


def kernel_matrix(
    fam: MRAFamily, j: int, xs: DyadicGrid, ys: DyadicGrid
) -> KernelEvaluation:
    """P_j(x,y) = sum_k phi_jk(x) phi_jk(y) over both grids."""
    phi_t, _ = refined_tables(fam, max(xs.level, ys.level))
    return KernelEvaluation(fam, j, xs, ys, _translate_sum(phi_t, fam, j, xs, ys))


def wavelet_kernel_matrix(
    fam: MRAFamily, j0: int, j1: int, xs: DyadicGrid, ys: DyadicGrid
) -> np.ndarray:
    """Dual representation: phi terms at j0 plus psi terms for j0 <= j' < j1.

    Telescopes to kernel_matrix(fam, j1, ...) for an orthonormal family.
    """
    _, psi_t = refined_tables(fam, max(xs.level, ys.level))
    total = kernel_matrix(fam, j0, xs, ys).values.copy()
    for j in range(j0, j1):
        total += _translate_sum(psi_t, fam, j, xs, ys)
    return total


def apply_kernel(ke: KernelEvaluation, f: SampledFunction) -> SampledFunction:
    """(P_j f)(x) = integral P_j(x, y) f(y) dy via trapezoid over ys."""
    ys = ke.ys
    fy = f.on_lattice(ys.level, round(np.ldexp(ys.left, ys.level)), ys.count)
    w = np.full(ys.count, ys.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return SampledFunction(ke.xs, ke.values @ (fy * w), NO_DECAY)


# ---------------------------------------------------------------------------
# radial profiles


def radial_profile(ke: KernelEvaluation) -> RadialBound:
    """M(u) = sup over pairs with 2^j |x-y| >= u of |P_j|/2^j, nonincreasing.

    Both grids share one lattice, so a pair's distance is a whole number of
    spacings, fixed along each diagonal of the matrix: the profile is the
    peak of |P_j| per diagonal, folded onto |x - y|.  Each block of
    FOLD_ROWS rows is written into one zeroed buffer, each row one column
    left of the row above, so one column max gives the block's diagonal
    peaks (a buffer for the whole matrix would hold nx (nx + ny) floats).
    The suffix supremum automatically monotonizes: it is the tightest
    nonincreasing majorant of the rescaled data.
    """
    xs, ys, j = ke.xs, ke.ys, ke.j
    if xs.level != ys.level:
        raise KernelError("a radial profile needs both grids on one lattice")
    nx, ny = ke.values.shape
    # diag[d + nx - 1] is the peak of |P_j| over the pairs with y-index - x-index = d
    diag = np.zeros(nx + ny - 1)
    rows = min(FOLD_ROWS, nx)  # >= 2: a grid has two points or more
    w = rows + ny - 1  # the diagonals one block meets
    buf = np.zeros(rows * w)
    # row r of a block starts r (w - 1) + rows - 1 into buf, which is column
    # rows - 1 - r of buf viewed as (rows, w): every diagonal is a column
    block = buf[rows - 1 : rows - 1 + rows * (w - 1)].reshape(rows, w - 1)[:, :ny]
    cols = buf.reshape(rows, w)
    for i0 in range(0, nx, rows):
        b = min(rows, nx - i0)
        np.abs(ke.values[i0 : i0 + b], out=block[:b])
        span = diag[nx - i0 - b : nx - i0 + ny - 1]
        np.maximum(span, cols[:b, rows - b :].max(axis=0), out=span)
    shift = round(np.ldexp(ys.left - xs.left, xs.level))
    steps = np.abs(np.arange(1 - nx, ny) + shift)  # |y - x| in spacings
    du = np.ldexp(xs.spacing, j)
    keep = steps * du <= U_CAP
    n = int(steps[keep].max()) + 1
    peak = np.zeros(n)
    np.maximum.at(peak, steps[keep], diag[keep] / 2.0**j)
    # suffix max from the largest radius inward
    maj = np.maximum.accumulate(peak[::-1])[::-1]
    radii = np.arange(n) * du
    mass = 2.0 * float(np.trapezoid(maj, dx=du))
    return RadialBound(radii, maj, float(maj[0]), mass, ke.family.label, j)


def _radii_level(fam: MRAFamily) -> int:
    if fam.decay_class.kind == "compact":
        return RADII_LEVEL_COMPACT
    return RADII_LEVEL_WIDE


def profile_table_level(fam: MRAFamily, j: int) -> int:
    """Lattice level at which the scale-j profile reads the family's tables."""
    return j + _radii_level(fam)


def _profile_grid(fam: MRAFamily, j: int, radii_level: int) -> DyadicGrid:
    # per-scale grid with fixed rescaled spacing 2^-radii_level, so profiles
    # across j share one radii lattice
    width_scaled = min(U_CAP, fam.phi.grid.right - fam.phi.grid.left + 1.0)
    width = np.ldexp(np.ceil(width_scaled), -j)
    return DyadicGrid(0.0, float(width), j + radii_level)


def scale_profiles(fam: MRAFamily, j_set, radii_level: int | None = None) -> list[RadialBound]:
    if radii_level is None:
        radii_level = _radii_level(fam)
    out = []
    for j in sorted(j_set):
        g = _profile_grid(fam, j, radii_level)
        out.append(radial_profile(kernel_matrix(fam, j, g, g)))
    return out


def _tail_estimate(fam: MRAFamily, radii, maj) -> float:
    """Mass beyond the last sampled radius, estimated from the decay class."""
    kind = fam.decay_class.kind
    if kind == "compact":
        return 0.0
    # anchor at 90% of the sampled range: the very last bins hold only a few
    # corner pairs and can dip spuriously (e.g. lattice zeros of sinc)
    i0 = int(np.searchsorted(radii, 0.9 * radii[-1]))
    u0 = float(radii[i0])
    m0 = float(maj[i0])
    if m0 <= PROFILE_FLOOR:
        return 0.0
    if kind == "exponential":
        a = fam.decay_class.a
        return 2.0 * m0 / a
    if kind == "algebraic":
        n = fam.decay_class.N
        return 2.0 * m0 * (1.0 + u0) / (n - 1.0)
    return float("inf")


def verify_convolution_bound(fam: MRAFamily, j_set) -> dict:
    """Collapse the per-scale profiles onto one envelope and test its mass.

    Passes iff the envelope is a plausible L1 radial majorant: profiles
    collapse onto it and the estimated tail is under 10% of the sampled
    mass.  This is the numerical content of the convolution bound.
    """
    j_set = sorted(j_set)
    if len(j_set) < 3:
        raise KernelError("need at least 3 scales to test profile collapse")
    profiles = scale_profiles(fam, j_set)
    n = max(len(p.majorant) for p in profiles)
    du = float(profiles[0].radii[1] - profiles[0].radii[0])
    env = np.zeros(n)
    for p in profiles:
        env[: len(p.majorant)] = np.maximum(env[: len(p.majorant)], p.majorant)
    defect = 0.0
    for p in profiles:
        padded = np.zeros(n)
        padded[: len(p.majorant)] = p.majorant
        defect = max(defect, float(np.max(np.abs(padded - env))) / env[0])
    radii = np.arange(n) * du
    mass = 2.0 * float(np.trapezoid(env, dx=du))
    tail = _tail_estimate(fam, radii, env)
    passes = bool(np.isfinite(mass) and np.isfinite(tail) and tail < 0.1 * mass)
    return {
        "family": fam.label,
        "j_set": list(j_set),
        "collapse_defect": defect,
        "constant": float(env[0]),
        "l1_mass": mass,
        "tail_estimate": tail,
        "passes": passes,
        "envelope": RadialBound(radii, env, float(env[0]), mass, fam.label, -1),
        "profiles": profiles,
    }


# ---------------------------------------------------------------------------
# decay-model fits


def fit_decay(
    rb: RadialBound,
    model: str = "exponential",
    order: float | None = None,
    u_range: tuple[float, float] | None = None,
) -> DecayFit:
    """Least-squares fit of a decay model to the profile, in log space.

    exponential: log M(u) = log C - a u / 2 (the bound C 2^j e^{-a 2^j |x-y|/2}).
    algebraic: M(u) = C / (1 + u)^order for a given order.
    """
    keep = rb.majorant > PROFILE_FLOOR
    if u_range is not None:
        keep &= (rb.radii >= u_range[0]) & (rb.radii <= u_range[1])
    u = rb.radii[keep]
    m = np.log(rb.majorant[keep])
    if len(u) < MIN_FIT_POINTS:
        raise KernelError(
            f"only {len(u)} usable radii; need {MIN_FIT_POINTS} for a fit"
        )
    if model == "exponential":
        slope, intercept, r2 = line_fit(u, m)
        a = -2.0 * slope
        # a below 1e-9 is numerically zero: constant profile, model mismatch
        return DecayFit(
            "exponential", float(np.exp(intercept)), a, r2, len(u), bool(a < 1e-9)
        )
    if model == "algebraic":
        if order is None:
            raise KernelError("algebraic model requires an order")
        # only log C is free; the slope is pinned by the given order
        logc = float(np.mean(m + order * np.log1p(u)))
        pred = logc - order * np.log1p(u)
        r2 = r_squared(m, pred)
        return DecayFit("algebraic", float(np.exp(logc)), float(order), r2, len(u), False)
    raise KernelError(f"unknown decay model {model!r}")


# ---------------------------------------------------------------------------
# exports


def export_bound_report(report: dict, fit: DecayFit | None, path: str) -> None:
    doc = {
        "family": report["family"],
        "j_set": report["j_set"],
        "collapse_defect": report["collapse_defect"],
        "C": report["constant"],
        "l1_mass": report["l1_mass"],
        "tail_estimate": report["tail_estimate"],
        "passes": report["passes"],
    }
    if fit is not None:
        key = "a" if fit.model == "exponential" else "N"
        doc["fit"] = {
            "model": fit.model,
            "C": fit.constant,
            key: fit.rate,
            "r2": fit.r2,
            "flagged": fit.flagged,
        }
    write_json(path, doc)
