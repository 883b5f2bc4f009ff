"""Concrete multiresolution families: Haar, Daubechies, Battle-Lemarie, Shannon.

Construction routes:
  * Haar (= DB1): closed forms with midpoint samples at the jumps, grid
    extended one cell past [0,1] so trapezoid quadrature is exact.
  * Daubechies N>=2: cascade iteration of the refinement operator on a
    dyadic grid, wavelet from the mirror filter.
  * Battle-Lemarie order k: frequency-domain orthonormalization of the
    order-k B-spline by its exact Euler-Frobenius periodization, inverse
    FFT onto a dyadic spatial grid.
  * Shannon: truncated sinc closed form, shipped as an algebraic-decay
    stress case (its natural majorant is ~1/|x| and is not integrable, so
    only inflated, truncation-aware tolerances apply to it).

Every family also carries its two-scale power symbol
w -> (|m0(w)|^2, |m0(w + pi)|^2) in closed form; the spectra of
`waverate.sobolev` are infinite products of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .filters import FilterPair, daubechies_filter, haar_filter, half_band_coefficients
from .grids import (
    COMPACT,
    DecayHint,
    DyadicGrid,
    SampledFunction,
    default_level,
    product_quad,
)

FAMILY_NAMES = ("haar", "daubechies", "battle_lemarie", "shannon")

BATTLE_LEMARIE_MAX_ORDER = 4
SHANNON_RADIUS = 64.0
CASCADE_TOL = 1e-9


class FamilyError(ValueError):
    """Unknown family name or parameter out of range."""


class ConstructionError(RuntimeError):
    """Invariant failure or non-convergence during family construction."""


@dataclass(frozen=True)
class MRAFamily:
    name: str
    filter: FilterPair | None
    phi: SampledFunction
    psi: SampledFunction
    vanishing_moments: int
    decay_class: DecayHint
    #: omega -> (|m0(omega)|^2, |m0(omega + pi)|^2), vectorized
    symbol: Callable = field(repr=False, compare=False)
    param: int | None = None

    @property
    def label(self) -> str:
        if self.param is None:
            return self.name
        return f"{self.name}:{self.param}"


# ---------------------------------------------------------------------------
# dilate/translate evaluation


def evaluate_dilate(f: SampledFunction, j: int, k: int, x) -> np.ndarray | float:
    """2^{j/2} f(2^j x - k), linear interpolation off-grid, 0 outside support."""
    pts = np.ldexp(np.asarray(x, dtype=float), j) - k
    out = 2.0 ** (j / 2.0) * f(pts)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# cascade construction


def _two_scale(c: np.ndarray, vals: np.ndarray, src: np.ndarray, step: int) -> np.ndarray:
    """sqrt(2) sum_k c_k vals[src - k*step], reading 0 outside the table.

    With `step` = 2^level and `src` the table index of 2x, this is
    sqrt(2) sum_k c_k f(2x - k) for the level-`level` table `vals` of f.
    """
    out = np.zeros(src.size)
    for k in range(len(c)):
        idx = src - k * step
        ok = (idx >= 0) & (idx < vals.size)
        out[ok] += c[k] * vals[idx[ok]]
    return np.sqrt(2.0) * out


def cascade_scaling(
    filter: FilterPair,
    iterations: int = 400,
    level: int | None = None,
) -> SampledFunction:
    """Fixed-point iterate of phi(x) = sqrt(2) sum_k h_k phi(2x-k).

    Starts from the indicator of [0,1) on a level-`level` grid over
    [0, M-1]; stops when successive iterates agree to CASCADE_TOL in sup
    norm, else raises.
    """
    if level is None:
        level = default_level()
    if level < 3:
        raise ValueError("cascade level must be >= 3")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    h = filter.lowpass
    m = len(h)
    if m < 2:
        raise FamilyError("filter too short for cascade")
    width = m - 1
    n = width * 2**level + 1
    step = 2**level

    vals = np.zeros(n)
    vals[: step] = 1.0  # indicator of [0,1)

    residual = np.inf
    for _ in range(iterations):
        new = _two_scale(h, vals, 2 * np.arange(n), step)
        residual = float(np.max(np.abs(new - vals)))
        vals = new
        if residual < CASCADE_TOL:
            break
    else:
        raise ConstructionError(
            f"cascade did not converge: residual {residual:.3e} after {iterations} steps"
        )

    # pad one cell past the support: endpoint values stay zero (compact
    # convention) while support-boundary values keep full trapezoid weight,
    # which makes the Haar fixed point carry the indicator of [0,1) exactly
    step_x = 2.0**-level
    vals = np.concatenate(([0.0], vals, [0.0]))
    grid = DyadicGrid(-step_x, width + step_x, level)
    # pin total mass exactly; trapezoid mass is already 1 to ~1e-10
    mass = np.trapezoid(vals, dx=step_x)
    vals /= mass
    return SampledFunction(grid, vals, COMPACT)


def refine_scaling(
    filter: FilterPair, phi: SampledFunction, extra_levels: int
) -> SampledFunction:
    """Subdivide phi to a finer dyadic lattice via the two-scale relation.

    For x on the level-(L+1) lattice, 2x lies on the level-L lattice, so
    phi(x) = sqrt(2) sum_k h_k phi(2x - k) is an exact table lookup; no
    fixed-point iteration is needed.
    """
    vals = phi.values
    grid = phi.grid
    for _ in range(extra_levels):
        step = 2**grid.level
        fine = grid.refine(1)
        # fine index i is x = left + i/(2 step), so 2x has old index i + left*step
        src = np.arange(fine.count) + int(round(grid.left * step))
        vals = _two_scale(filter.lowpass, vals, src, step)
        grid = fine
    vals[0] = 0.0
    vals[-1] = 0.0
    return SampledFunction(grid, vals, COMPACT)


def derive_wavelet(filter: FilterPair, phi: SampledFunction) -> SampledFunction:
    """psi(x) = sqrt(2) sum_k g_k phi(2x - k) on phi's own grid."""
    level = phi.grid.level
    if level < 1:
        raise ValueError("phi grid too coarse to evaluate phi(2x-k)")
    step = 2**level
    src = 2 * np.arange(phi.grid.count) + int(round(phi.grid.left * step))
    vals = _two_scale(filter.highpass, phi.values, src, step)
    vals[0] = 0.0
    vals[-1] = 0.0
    return SampledFunction(phi.grid, vals, COMPACT)


# ---------------------------------------------------------------------------
# closed forms


def _box_pair(grid: DyadicGrid, left: float) -> tuple[SampledFunction, SampledFunction]:
    """Indicator of (left, left + 1) and its Haar wavelet on `grid`."""
    x = grid.points()
    mid, right = left + 0.5, left + 1.0
    phi = np.where((x > left) & (x < right), 1.0, 0.0)
    psi = np.where((x > left) & (x < mid), 1.0, 0.0) - np.where(
        (x > mid) & (x < right), 1.0, 0.0
    )
    # midpoint values at the jumps keep trapezoid quadrature exact
    phi[grid.index_of(left)] = 0.5
    phi[grid.index_of(right)] = 0.5
    psi[grid.index_of(left)] = 0.5
    psi[grid.index_of(mid)] = 0.0
    psi[grid.index_of(right)] = -0.5
    return SampledFunction(grid, phi, COMPACT), SampledFunction(grid, psi, COMPACT)


def _haar_pair(level: int) -> tuple[SampledFunction, SampledFunction]:
    return _box_pair(DyadicGrid(-1.0, 2.0, level), 0.0)


def _shannon_pair(level: int, radius: float = SHANNON_RADIUS):
    grid = DyadicGrid(-radius, radius, level)
    x = grid.points()
    phi = np.sinc(x)  # sin(pi x)/(pi x)
    xs = x - 0.5
    on_half = xs == 0.0
    denom = np.where(on_half, 1.0, np.pi * xs)
    psi = (np.sin(2 * np.pi * xs) - np.sin(np.pi * xs)) / denom
    psi[on_half] = 1.0  # limit of (sin 2u - sin u)/u at 0
    trunc = 1.0 / (np.pi * radius)
    hint = DecayHint("algebraic", N=1.05, truncation=trunc)
    return SampledFunction(grid, phi, hint), SampledFunction(grid, psi, hint)


# ---------------------------------------------------------------------------
# Battle-Lemarie via spectral orthonormalization

_BL_SPECTRAL_SIZE = 2**16  # 2^14 leaves ~1e-5 wraparound; 2^16 reaches 1e-12 tails


def _bspline_hat(xi: np.ndarray, order: int) -> np.ndarray:
    """Fourier transform of the centered cardinal B-spline: sinc^k(xi/2)."""
    return np.sinc(xi / (2 * np.pi)) ** order


def euler_frobenius(xi, order: int) -> np.ndarray:
    """Pi(xi) = sum_m |B^(xi + 2 pi m)|^2 = sum_{|n|<k} B_{2k}(n) cos(n xi).

    B_{2k} is the centered cardinal B-spline of order 2k = 2*order; its
    values at the integers come from the truncated-power formula in integer
    arithmetic, so the trigonometric polynomial is exact.
    """
    m = 2 * order
    total = np.zeros(np.shape(xi))
    for n in range(order):
        b = sum(
            (-1) ** j * math.comb(m, j) * (n + order - j) ** (m - 1)
            for j in range(n + order)
        ) / math.factorial(m - 1)
        total += (b if n == 0 else 2 * b) * np.cos(n * np.asarray(xi))
    return total


def _battle_lemarie_pair(order: int, level: int):
    if order == 1:
        # order-1 B-spline translates are already orthonormal; the FFT route
        # would only smear the jumps, so use the exact centered box forms
        return _box_pair(DyadicGrid(-2.0, 2.0, level), -0.5)
    n = _BL_SPECTRAL_SIZE
    dx = 2.0**-level
    dxi = 2 * np.pi / (n * dx)
    xi = (np.arange(n) - n // 2) * dxi

    phi_hat = _bspline_hat(xi, order) / np.sqrt(euler_frobenius(xi, order))

    # m0(w) = cos^k(w/2) * sqrt(Pi(w)/Pi(2w)); psi_hat from the mirror relation
    half = xi / 2.0
    phi_hat_half = _bspline_hat(half, order) / np.sqrt(euler_frobenius(half, order))
    w = half + np.pi
    m0_at = np.cos(w / 2.0) ** order * np.sqrt(
        euler_frobenius(w, order) / euler_frobenius(2 * w, order)
    )
    psi_hat = np.exp(-1j * half) * m0_at * phi_hat_half

    def invert(spec: np.ndarray) -> np.ndarray:
        # f(x_m) = (1/2pi) sum_q spec(xi_q) e^{i xi_q x_m} dxi with
        # xi_q = (q - n/2) dxi, x_m = (m - n/2) dx, dxi*dx = 2pi/n.
        # Expanding the exponent gives an inverse DFT with (-1)^q / (-1)^m
        # twiddles (n/2 is even, so the global phase is +1).
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        vals = np.fft.ifft(spec * signs) * (n * dxi / (2 * np.pi)) * signs
        # odd spline orders give a purely imaginary inversion (the spectral
        # factor is odd); a unimodular constant makes the wavelet real
        re, im = np.real(vals), np.imag(vals)
        return re if np.abs(re).max() >= np.abs(im).max() else im

    phi_full = invert(phi_hat)
    psi_full = invert(psi_hat)

    # trim to the 1e-12 tail, on a dyadic window
    tol = 1e-12
    nz = np.where((np.abs(phi_full) > tol) | (np.abs(psi_full) > tol))[0]
    lo, hi = nz[0], nz[-1]
    # snap to whole-integer abscissae for tidy supports
    step = 2**level
    lo = (lo // step) * step
    hi = -(-hi // step) * step
    lo = max(lo, 0)
    hi = min(hi, n - 1)
    xs = (np.arange(n) - n // 2) * dx

    grid = DyadicGrid(float(xs[lo]), float(xs[hi]), level)
    phi_vals = phi_full[lo : hi + 1].copy()
    psi_vals = psi_full[lo : hi + 1].copy()
    for v in (phi_vals, psi_vals):
        v[0] = 0.0 if abs(v[0]) < 10 * tol else v[0]
        v[-1] = 0.0 if abs(v[-1]) < 10 * tol else v[-1]

    hint = DecayHint("exponential", a=_BL_DECAY_RATE[order], truncation=tol)
    return (
        SampledFunction(grid, phi_vals, hint),
        SampledFunction(grid, psi_vals, hint),
    )


#: empirical log-slope of |phi| tails; a conservative per-order constant
_BL_DECAY_RATE = {1: 1.3, 2: 1.2, 3: 0.9, 4: 0.8}


# ---------------------------------------------------------------------------
# two-scale power symbols: each of |m0(w)|^2 and |m0(w + pi)|^2 is evaluated
# in its own closed form, never as 1 minus the other, so both stay accurate
# where they are small


def _daubechies_symbol(n: int) -> Callable:
    """cos^{2n}(w/2) P_n(sin^2(w/2)) and sin^{2n}(w/2) P_n(cos^2(w/2)); n=1 is Haar."""
    p = np.array(half_band_coefficients(n)[::-1], dtype=float)  # descending

    def symbol(omega):
        c, s = np.cos(omega / 2) ** 2, np.sin(omega / 2) ** 2
        return c**n * np.polyval(p, s), s**n * np.polyval(p, c)

    return symbol


def _battle_lemarie_symbol(k: int) -> Callable:
    """cos^{2k}(w/2) Pi(w)/Pi(2w) and sin^{2k}(w/2) Pi(w + pi)/Pi(2w)."""

    def symbol(omega):
        c, s = np.cos(omega / 2) ** 2, np.sin(omega / 2) ** 2
        den = euler_frobenius(2 * omega, k)
        return (
            c**k * euler_frobenius(omega, k) / den,
            s**k * euler_frobenius(omega + np.pi, k) / den,
        )

    return symbol


def _shannon_symbol(omega):
    """Indicator of |w| < pi/2 modulo 2 pi, and its complement."""
    centered = np.remainder(omega + np.pi, 2 * np.pi) - np.pi
    a = np.where(np.abs(centered) < np.pi / 2, 1.0, 0.0)
    return a, 1.0 - a


# ---------------------------------------------------------------------------
# invariants


_INVARIANT_CHECK_REFINE = 3


def check_family_invariants(fam: MRAFamily) -> dict[str, float]:
    """Evaluate the four family invariants; raise ConstructionError on failure.

    Returns the measured defects.  For non-compact families the declared
    truncation error inflates the tolerances.  Cascade-built families are
    checked on their tables subdivided a few levels finer by the exact
    two-scale relation (`refined_tables`): the quadrature error on products
    of Hoelder-rough scaling functions decays like h^(2*alpha) and would
    otherwise swamp the 1e-6 orthonormality tolerance.
    """
    slack = 0.0
    if fam.decay_class.kind != "compact":
        slack = 20.0 * fam.decay_class.truncation

    defects = {}
    phi, psi = fam.phi, fam.psi
    if fam.name == "daubechies" and fam.param != 1:
        phi, psi = refined_tables(fam, phi.grid.level + _INVARIANT_CHECK_REFINE)

    defects["phi_integral"] = abs(phi.integral() - 1.0)
    _require(defects["phi_integral"] <= 1e-8 + slack, fam, "phi integral != 1")

    defects["psi_integral"] = abs(psi.integral())
    _require(defects["psi_integral"] <= 1e-8 + slack, fam, "psi integral != 0")

    defects["partition_of_unity"] = partition_of_unity_defect(phi)
    _require(
        defects["partition_of_unity"] <= 1e-6 + slack, fam, "partition of unity fails"
    )

    defects["translate_orthonormality"] = translate_orthonormality_defect(phi)
    _require(
        defects["translate_orthonormality"] <= 1e-6 + slack,
        fam,
        "integer-translate orthonormality fails",
    )
    return defects


def partition_of_unity_defect(phi: SampledFunction) -> float:
    """max over interior x in [0,1) of |sum_k phi(x-k) - 1|."""
    level = phi.grid.level
    step = 2**level
    kmin = int(np.floor(phi.grid.left)) - 1
    kmax = int(np.ceil(phi.grid.right)) + 1
    u = np.arange(step) / step  # one period [0,1)
    total = np.zeros(step)
    for k in range(kmin, kmax + 1):
        total += phi(u + k)
    return float(np.max(np.abs(total - 1.0)))


def translate_orthonormality_defect(phi: SampledFunction) -> float:
    width = phi.grid.right - phi.grid.left
    worst = 0.0
    for k in range(int(np.ceil(width)) + 1):
        shifted = phi(phi.x() - k)
        val = product_quad(phi.values, shifted, phi.dx)
        target = 1.0 if k == 0 else 0.0
        worst = max(worst, abs(val - target))
    return worst


def _require(cond: bool, fam: MRAFamily, what: str) -> None:
    if not cond:
        raise ConstructionError(f"{fam.label}: {what}")


# ---------------------------------------------------------------------------
# factory


def make_family(name: str, param: int = 0, level: int | None = None) -> MRAFamily:
    """Build a named family and verify its invariants."""
    if level is None:
        level = default_level()
    if name not in FAMILY_NAMES:
        raise FamilyError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")

    filt, moments = None, param
    if name == "haar" or (name == "daubechies" and param == 1):
        filt, moments, symbol = haar_filter(), 1, _daubechies_symbol(1)
        phi, psi = _haar_pair(level)
    elif name == "daubechies":
        filt, symbol = daubechies_filter(param), _daubechies_symbol(param)
        phi = cascade_scaling(filt, level=level)
        psi = derive_wavelet(filt, phi)
    elif name == "battle_lemarie":
        if not 1 <= param <= BATTLE_LEMARIE_MAX_ORDER:
            raise FamilyError(
                f"battle_lemarie order must be in 1..{BATTLE_LEMARIE_MAX_ORDER}"
            )
        symbol = _battle_lemarie_symbol(param)
        phi, psi = _battle_lemarie_pair(param, level)
    else:  # shannon
        moments, symbol = 1, _shannon_symbol
        phi, psi = _shannon_pair(level)
    fam = MRAFamily(
        name=name,
        filter=filt,
        phi=phi,
        psi=psi,
        vanishing_moments=moments,
        decay_class=phi.decay_hint,
        symbol=symbol,
        param=param if name in ("daubechies", "battle_lemarie") else None,
    )
    check_family_invariants(fam)
    return fam


_REFINED_CACHE: dict[tuple, tuple[SampledFunction, SampledFunction]] = {}


def refined_tables(fam: MRAFamily, level: int):
    """phi and psi tabulated at least at `level`, on the family's own grid.

    Needed whenever atoms are evaluated on a lattice finer than the stored
    tables: interpolating the stored table there would smear jumps and rough
    features.  Closed-form families are re-tabulated directly, filter
    families by exact dyadic subdivision.  Spectral and band-limited
    families are returned unchanged: their tables are piecewise linear or
    smooth on the stored lattice, so interpolation is already faithful.
    """
    if level <= fam.phi.grid.level:
        return fam.phi, fam.psi
    key = (fam.name, fam.param, fam.phi.grid.level, level)
    if key not in _REFINED_CACHE:
        if fam.name == "haar" or (fam.name == "daubechies" and fam.param == 1):
            pair = _haar_pair(level)
        elif fam.name == "battle_lemarie" and fam.param == 1:
            pair = _battle_lemarie_pair(1, level)
        elif fam.filter is not None:
            phi = refine_scaling(fam.filter, fam.phi, level - fam.phi.grid.level)
            pair = (phi, derive_wavelet(fam.filter, phi))
        else:
            # never cached: another family object of the same name and level
            # must get its own tables back
            return fam.phi, fam.psi
        _REFINED_CACHE[key] = pair
    return _REFINED_CACHE[key]


def parse_family_spec(spec: str, level: int | None = None) -> MRAFamily:
    """Parse 'name' or 'name:param' CLI syntax."""
    if ":" in spec:
        name, raw = spec.split(":", 1)
        return make_family(name, int(raw), level=level)
    return make_family(spec, level=level)
