"""Projection kernels, rescaled radial profiles, and decay-model fits.

The orthogonal projection onto V_j has kernel P_j(x,y) = sum_k
phi_jk(x) phi_jk(y).  Its size is controlled by a single rescaled profile:
|P_j(x,y)| <= C 2^j H(2^j |x-y|) with H nonincreasing and integrable for
well-behaved families.  As P_j(x,y) = 2^j P_0(2^j x, 2^j y), that bound is
one property of P_0 that dilation carries to every scale.  This module
tabulates P_j as a product of atom rows from the dyadic-lattice engine
(`waverate.expansion.atom_rows`), extracts the tightest nonincreasing
majorant of the rescaled data, checks that the profiles at the two ends of
a scale range collapse onto one integrable envelope, and fits the
exponential decay C e^{-a u / 2} to the envelope.  A profile reads only the
rows of one period, as P_j is symmetric and invariant under 2^-j shifts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .expansion import atom_rows, translate_range
from .families import MRAFamily
from .grids import ComputationError, ConfigError, DyadicGrid, line_fit, scale_span

# rescaled-radius resolution 2^-RADII_LEVEL, shared across scales within a
# family; compact supports need the finer lattice or boundary quantization
# visibly erodes the majorant's mass near the support edge
RADII_LEVEL_COMPACT = 6
RADII_LEVEL_WIDE = 4
U_CAP = 64.0  # off-diagonal evaluation radius; tails beyond are model-estimated
PROFILE_FLOOR = 1e-12
MIN_FIT_POINTS = 20


class KernelEvaluation(NamedTuple):
    j: int
    xs: DyadicGrid
    ys: DyadicGrid
    values: np.ndarray  # shape (xs.count, ys.count)


class RadialBound(NamedTuple):
    """Nonincreasing majorant M(u) of |P_j(x,y)|/2^j over u = 2^j |x-y|."""

    radii: np.ndarray
    majorant: np.ndarray


class DecayFit(NamedTuple):
    """The fit log M(u) = log C - a u / 2 of a radial majorant."""

    constant: float
    rate: float  # a
    r2: float
    flagged: bool  # model mismatch: nonpositive rate or degenerate range


# ---------------------------------------------------------------------------
# kernel evaluation


def kernel_matrix(
    fam: MRAFamily, j: int, xs: DyadicGrid, ys: DyadicGrid
) -> KernelEvaluation:
    """P_j(x,y) = sum_k phi_jk(x) phi_jk(y) over the translates meeting both grids."""
    kx = translate_range(fam, j, (xs.left, xs.right))
    ky = translate_range(fam, j, (ys.left, ys.right))
    ks = range(max(kx.start, ky.start), min(kx.stop, ky.stop))
    if not ks:
        return KernelEvaluation(j, xs, ys, np.zeros((xs.count, ys.count)))
    ax = atom_rows(fam, "phi", j, ks, xs)
    ay = atom_rows(fam, "phi", j, ks, ys)
    return KernelEvaluation(j, xs, ys, ax.T @ ay)


# ---------------------------------------------------------------------------
# radial profiles


def radial_profile(ke: KernelEvaluation) -> RadialBound:
    """M(u) = sup over pairs with 2^j |x-y| >= u of |P_j|/2^j, nonincreasing.

    Both grids share one lattice, so a pair's distance is a whole number of
    spacings, fixed along each diagonal of the matrix: the profile is the
    peak of |P_j| per diagonal, folded onto |x - y|.  Each row is written
    into one zeroed buffer one column left of the row above, so one column
    max gives every diagonal's peak.  The suffix supremum automatically
    monotonizes: it is the tightest nonincreasing majorant of the data.
    """
    xs, ys, j = ke.xs, ke.ys, ke.j
    if xs.level != ys.level:
        raise ConfigError("a radial profile needs both grids on one lattice")
    nx, ny = ke.values.shape
    w = nx + ny - 1  # the diagonals
    buf = np.zeros(nx * w)
    # row r starts r (w - 1) + nx - 1 into buf, which is column nx - 1 - r of
    # buf viewed as (nx, w); w - 1 >= ny, as a grid has two points or more
    skewed = buf[nx - 1 : nx - 1 + nx * (w - 1)].reshape(nx, w - 1)[:, :ny]
    np.abs(ke.values, out=skewed)
    # diag[d + nx - 1] is the peak of |P_j| over the pairs with y-index - x-index = d
    diag = buf.reshape(nx, w).max(axis=0)
    steps = np.abs(np.arange(1 - nx, ny) + ys.start - xs.start)  # |y - x| in spacings
    du = math.ldexp(xs.spacing, j)
    keep = steps * du <= U_CAP
    n = int(steps[keep].max()) + 1
    peak = np.zeros(n)
    np.maximum.at(peak, steps[keep], diag[keep] / 2.0**j)
    # suffix max from the largest radius inward
    maj = np.maximum.accumulate(peak[::-1])[::-1]
    return RadialBound(np.arange(n) * du, maj)


def profile_grid(fam: MRAFamily, j: int) -> DyadicGrid:
    """The scale-j profile grid, of fixed rescaled spacing 2^-RADII_LEVEL so
    that profiles across j share one radii lattice: it reads the family's
    tables at level RADII_LEVEL for every j."""
    radii_level = RADII_LEVEL_COMPACT if fam.decay.kind == "compact" else RADII_LEVEL_WIDE
    width_scaled = min(U_CAP, fam.support[1] - fam.support[0] + 1.0)
    return DyadicGrid(0.0, math.ldexp(math.ceil(width_scaled), -j), j + radii_level)


def period_profile(fam: MRAFamily, j: int) -> RadialBound:
    """The radial profile of P_j from the rows x in [0, 2^-j]: as
    P_j(x + 2^-j, y + 2^-j) = P_j(x, y) = P_j(y, x), they meet every
    distance and value of the square profile grid."""
    g = profile_grid(fam, j)
    return radial_profile(kernel_matrix(fam, j, DyadicGrid(0.0, 2.0**-j, g.level), g))


def _tail_estimate(fam: MRAFamily, radii, maj) -> float:
    """Mass beyond the last sampled radius, estimated from the family's decay."""
    decay = fam.decay
    if decay.kind == "compact":
        return 0.0
    # anchor at 90% of the sampled range: the very last bins hold only a few
    # corner pairs and can dip spuriously (e.g. lattice zeros of sinc)
    i0 = int(np.searchsorted(radii, 0.9 * radii[-1]))
    u0 = float(radii[i0])
    m0 = float(maj[i0])
    if m0 <= PROFILE_FLOOR:
        return 0.0
    if decay.kind == "exponential":
        return 2.0 * m0 / decay.a
    return 2.0 * m0 * (1.0 + u0) / (decay.N - 1.0)  # algebraic


def verify_convolution_bound(fam: MRAFamily, j_set) -> dict:
    """Collapse the profiles at the ends of j_set onto one envelope and test its mass.

    Passes iff the envelope is a plausible L1 radial majorant: profiles
    collapse onto it and the estimated tail is under 10% of the sampled
    mass.  This is the numerical content of the convolution bound.  By
    dilation P_j / 2^j on the rescaled lattice is P_0 at every scale, so the
    first and last scale stand for the whole range: collapse compares those
    two computed profiles, each read on the one RADII_LEVEL_* radii table,
    and an atom engine that scaled either end wrongly would show in the
    defect.  Scales that are not one range, fewer than 3 or a negative one
    are rejected off j_set's ends, and a finest profile grid whose 2^level
    overflows when it is built first, before any kernel is computed.
    """
    lo, hi = scale_span(j_set)
    if hi - lo < 2 or lo < 0:
        raise ConfigError(f"kernel needs at least 3 scales j >= 0, got '{lo}..{hi}'")
    profiles = [period_profile(fam, j) for j in (hi, lo)]
    # both scales read the same rescaled grid: one radii lattice
    radii = profiles[0].radii
    du = float(radii[1] - radii[0])
    stack = np.array([p.majorant for p in profiles])
    env = stack.max(axis=0)
    defect = float(np.max(env - stack)) / env[0]
    mass = 2.0 * float(np.trapezoid(env, dx=du))
    tail = _tail_estimate(fam, radii, env)
    passes = bool(np.isfinite(mass) and np.isfinite(tail) and tail < 0.1 * mass)
    return {
        "family": fam.label,
        "j_set": j_set,
        "collapse_defect": defect,
        "C": float(env[0]),
        "l1_mass": mass,
        "tail_estimate": tail,
        "passes": passes,
        "envelope": RadialBound(radii, env),
    }


# ---------------------------------------------------------------------------
# exponential decay fit


def fit_decay(rb: RadialBound) -> DecayFit:
    """Least-squares fit of log M(u) = log C - a u / 2 over the radii where
    M exceeds PROFILE_FLOOR: the bound C 2^j e^{-a 2^j |x-y|/2}."""
    keep = rb.majorant > PROFILE_FLOOR
    u = rb.radii[keep]
    if len(u) < MIN_FIT_POINTS:
        raise ComputationError(
            f"only {len(u)} usable radii; need {MIN_FIT_POINTS} for a fit"
        )
    slope, intercept, r2 = line_fit(u, np.log(rb.majorant[keep]))
    a = -2.0 * slope
    # a below 1e-9 is numerically zero: constant profile, model mismatch
    return DecayFit(float(np.exp(intercept)), a, r2, bool(a < 1e-9))
