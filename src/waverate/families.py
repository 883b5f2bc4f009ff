"""Concrete multiresolution families: Haar, Daubechies, Battle-Lemarie, Shannon.

Construction routes:
  * Haar (= DB1): closed forms with midpoint samples at the jumps, grid
    extended one cell past [0,1] so trapezoid quadrature is exact.
  * Daubechies N>=2: phi on the integers from the eigenvector of the
    two-scale matrix, then exact dyadic subdivision to FAMILY_LEVEL; the
    wavelet from the mirror filter.
  * Battle-Lemarie order k >= 2: an exact spline series on integer knots,
    phi = sum_n c_n M_k(x - n + k//2) and psi = sum_p d_p M_k(2x - p + k//2),
    with c and d the Fourier coefficients of the orthonormalizing symbols
    built from the Euler-Frobenius polynomial; its invariants are checked
    exactly from the coefficients.  Order 1 is Haar.
  * Shannon: truncated sinc closed form, shipped as an algebraic-decay
    stress case (its natural majorant is ~1/|x| and is not integrable, so
    only inflated, truncation-aware tolerances apply to it).

Every family also carries its two-scale power symbol
w -> (|m0(w)|^2, |m0(w + pi)|^2) in closed form; the spectra of
`waverate.sobolev` are infinite products of it.  Each family also carries
its tabulator, (gen, level) -> the table of phi or psi at that level, chosen
once by `make_family`: the stored tables and every finer table
(`refined_tables`) come from it, built on each read and never held.
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
    product_quad,
)
from .splines import cardinal_autocorrelation, cardinal_bspline

FAMILY_NAMES = ("haar", "daubechies", "battle_lemarie", "shannon")

#: level at which every family tabulates phi and psi
FAMILY_LEVEL = 10
BATTLE_LEMARIE_MAX_ORDER = 4
SHANNON_RADIUS = 64.0


class FamilyError(ValueError):
    """Unknown family name or parameter out of range."""


class ConstructionError(RuntimeError):
    """Invariant failure during family construction."""


@dataclass(frozen=True)
class MRAFamily:
    name: str
    filter: FilterPair | None
    phi: SampledFunction
    psi: SampledFunction
    vanishing_moments: int
    #: omega -> (|m0(omega)|^2, |m0(omega + pi)|^2), vectorized
    symbol: Callable = field(repr=False, compare=False)
    #: (gen, level) -> generator gen ("phi" or "psi") tabulated at that level
    tabulate: Callable = field(repr=False, compare=False)
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
# two-scale construction


def _two_scale(
    c: np.ndarray, vals: np.ndarray, first: int, stride: int, count: int, step: int
) -> np.ndarray:
    """sqrt(2) sum_k c_k vals[first + stride*i - k*step] for i < count, 0 off the table.

    With `step` = 2^level and first + stride*i the table index of 2x, this is
    sqrt(2) sum_k c_k f(2x - k) for the level-`level` table `vals` of f; each
    tap reads one strided slice.
    """
    out = np.zeros(count)
    for k in range(len(c)):
        start = first - k * step
        lo = max(0, -(start // stride))
        hi = min(count, (vals.size - 1 - start) // stride + 1)
        if lo < hi:
            a = start + lo * stride
            out[lo:hi] += c[k] * vals[a : a + (hi - lo - 1) * stride + 1 : stride]
    return np.sqrt(2.0) * out


def subdivision_scaling(filter: FilterPair) -> SampledFunction:
    """phi at FAMILY_LEVEL, exact up to roundoff, by subdivision of phi(0..M-1).

    On the integers phi = T phi with T_{nk} = sqrt(2) h_{2n-k}.  Every column
    of T sums to 1, so the eigenvector at eigenvalue 1 with sum_n phi(n) = 1
    solves T - I with its last row replaced by ones.  For Haar T = I: the box
    keeps its closed form (`_haar_table`).
    """
    h = filter.lowpass
    width = len(h) - 1
    taps = 2 * np.arange(len(h))[:, None] - np.arange(len(h))
    system = np.where((taps >= 0) & (taps <= width), np.sqrt(2.0) * h[taps % len(h)], 0.0)
    system -= np.eye(len(h))
    system[-1] = 1.0
    vals = np.linalg.solve(system, np.eye(len(h))[-1])
    vals[0] = vals[-1] = 0.0  # phi vanishes at both ends of its support
    integers = SampledFunction(DyadicGrid(0.0, float(width), 0), vals, COMPACT)
    phi = refine_scaling(filter, integers, FAMILY_LEVEL)
    # pad one cell past the support: endpoint values stay zero (compact
    # convention) while support-boundary values keep full trapezoid weight
    step_x = 2.0**-FAMILY_LEVEL
    grid = DyadicGrid(-step_x, width + step_x, FAMILY_LEVEL)
    return SampledFunction(grid, np.concatenate(([0.0], phi.values, [0.0])), COMPACT)


def refine_scaling(
    filter: FilterPair, phi: SampledFunction, extra_levels: int
) -> SampledFunction:
    """Subdivide phi to a finer dyadic lattice via the two-scale relation.

    For x on the level-(L+1) lattice, 2x lies on the level-L lattice, so
    phi(x) = sqrt(2) sum_k h_k phi(2x - k) is an exact table lookup; no
    fixed-point iteration is needed.
    """
    vals, grid = phi.values, phi.grid
    for _ in range(extra_levels):
        step = 2**grid.level
        # fine index i is x = left + i/(2 step), so 2x has old index i + left*step
        first = int(round(grid.left * step))
        vals = _two_scale(filter.lowpass, vals, first, 1, 2 * vals.size - 1, step)
        grid = grid.refine(1)
    vals[0] = vals[-1] = 0.0
    return SampledFunction(grid, vals, COMPACT)


def derive_wavelet(filter: FilterPair, phi: SampledFunction) -> SampledFunction:
    """psi(x) = sqrt(2) sum_k g_k phi(2x - k) on phi's own grid."""
    step = 2**phi.grid.level
    first = int(round(phi.grid.left * step))
    vals = _two_scale(filter.highpass, phi.values, first, 2, phi.grid.count, step)
    vals[0] = vals[-1] = 0.0
    return SampledFunction(phi.grid, vals, COMPACT)


# ---------------------------------------------------------------------------
# closed forms


def uses_haar_tables(name: str, param: int | None) -> bool:
    """Haar, daubechies:1 and battle_lemarie:1 are one family: the box pair."""
    return name == "haar" or param == 1


def _haar_table(gen: str, level: int) -> SampledFunction:
    """The indicator of (0, 1) or its Haar wavelet, on [-1, 2]."""
    grid = DyadicGrid(-1.0, 2.0, level)
    x = grid.points()
    if gen == "phi":
        vals = np.where((x > 0.0) & (x < 1.0), 1.0, 0.0)
        jumps = {0.0: 0.5, 1.0: 0.5}
    else:
        vals = np.where((x > 0.0) & (x < 0.5), 1.0, 0.0) - np.where(
            (x > 0.5) & (x < 1.0), 1.0, 0.0
        )
        jumps = {0.0: 0.5, 0.5: 0.0, 1.0: -0.5}
    # midpoint values at the jumps keep trapezoid quadrature exact
    for at, value in jumps.items():
        vals[grid.index_of(at)] = value
    return SampledFunction(grid, vals, COMPACT)


def _shannon_table(gen: str, level: int) -> SampledFunction:
    grid = DyadicGrid(-SHANNON_RADIUS, SHANNON_RADIUS, level)
    u = grid.points()
    if gen == "phi":
        vals = np.sinc(u)  # sin(pi x)/(pi x)
    else:
        # (sin 2 pi u - sin pi u) / (pi u), u = x - 1/2, in place: fine levels are large
        u -= 0.5
        on_half = u == 0.0
        vals = np.sin(2 * np.pi * u)
        u *= np.pi
        vals -= np.sin(u)
        u[on_half] = 1.0
        vals /= u
        vals[on_half] = 1.0  # limit of (sin 2u - sin u)/u at 0
    hint = DecayHint("algebraic", N=1.05, truncation=1.0 / (np.pi * SHANNON_RADIUS))
    return SampledFunction(grid, vals, hint)


def _subdivision_tabulator(filter: FilterPair) -> Callable:
    """Tables of a Daubechies family: phi subdivided from its level-FAMILY_LEVEL
    table, psi derived from phi at the level asked for."""
    base = subdivision_scaling(filter)

    def tabulate(gen: str, level: int) -> SampledFunction:
        phi = refine_scaling(filter, base, level - base.grid.level)
        return phi if gen == "phi" else derive_wavelet(filter, phi)

    return tabulate


# ---------------------------------------------------------------------------
# Battle-Lemarie as integer-knot spline series

#: Fourier coefficients per series: both symbols are analytic, and the
#: slowest, d_p of order 4, decays like e^{-0.31 |p|}, so aliasing is < 1e-30
_BL_COEFFICIENTS = 512
#: the tables stop where every coefficient beyond is below this
_BL_TRUNCATION = 1e-12


def euler_frobenius(xi, order: int) -> np.ndarray:
    """Pi(xi) = sum_m |B^(xi + 2 pi m)|^2 = sum_{|n|<k} B_{2k}(n) cos(n xi).

    B_{2k}(n) comes from `cardinal_autocorrelation` in integer arithmetic, so
    the trigonometric polynomial is exact.
    """
    total = np.zeros(np.shape(xi))
    for n, b in enumerate(cardinal_autocorrelation(order)):
        total += (b if n == 0 else 2 * b) * np.cos(n * np.asarray(xi))
    return total


def battle_lemarie_series(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_n, d_p (n, p = -256..255) of the order-k Battle-Lemarie pair.

    phi(x) = sum_n c_n M_k(x - n + k//2) and psi(x) = sum_p d_p M_k(2x - p + k//2)
    on integer knots.  sum_n c_n e^{-in w} = Pi(w)^{-1/2} and
    sum_p d_p e^{-ip w} = 2 e^{-iw} conj(m0(w + pi)) Pi(w)^{-1/2}, with
    m0(w) = e^{-i (k mod 2) w/2} cos^k(w/2) sqrt(Pi(w)/Pi(2w)); both symbols
    are 2 pi-periodic with real coefficients, so one FFT each gives them.
    """
    w = 2 * np.pi * np.arange(_BL_COEFFICIENTS) / _BL_COEFFICIENTS
    inv_root = euler_frobenius(w, order) ** -0.5
    v = w + np.pi
    m0_conj = (
        np.exp(0.5j * (order % 2) * v)
        * np.cos(v / 2) ** order
        * np.sqrt(euler_frobenius(v, order) / euler_frobenius(2 * v, order))
    )
    c = np.fft.ifft(inv_root).real
    d = np.fft.ifft(2 * np.exp(-1j * w) * m0_conj * inv_root).real
    return np.fft.fftshift(c), np.fft.fftshift(d)


def _decay_rate(order: int) -> float:
    """-ln|z_1|, z_1 the root of z^{k-1} Pi(z) inside the unit circle nearest to it."""
    b = cardinal_autocorrelation(order)
    roots = np.roots(b[:0:-1] + b)
    return -math.log(max(abs(z) for z in roots if abs(z) < 1.0))


def _series_tabulator(order: int) -> Callable:
    """Tables of a Battle-Lemarie family: the series polyphase at the level
    asked for, x = i + r 2^-level reading M_k(t + r 2^-level) for t = 0..k-1
    against the coefficient of index i - t + k//2; phi and psi share one grid."""
    k, shift = order, order // 2
    c, d = battle_lemarie_series(k)
    index = np.arange(c.size) - c.size // 2
    nc = index[np.abs(c) > _BL_TRUNCATION]
    nd = index[np.abs(d) > _BL_TRUNCATION]
    left = min(nc[0] - shift, (nd[0] - shift) // 2)
    right = max(nc[-1] - shift + k, -((shift - k - nd[-1]) // 2))
    hint = DecayHint("exponential", a=_decay_rate(k), truncation=_BL_TRUNCATION)

    def tabulate(gen: str, level: int) -> SampledFunction:
        grid = DyadicGrid(float(left), float(right), level)
        step = 2**level
        # rows are the integer parts of scale * x; psi reads M_k one level coarser
        coef, scale = (c, 1) if gen == "phi" else (d, 2)
        samples = cardinal_bspline(k, np.arange(k)[:, None] + np.arange(0, step, scale) / step)
        rows = np.arange(scale * left, scale * right + 1) + shift + coef.size // 2
        vals = sum(coef[rows - t][:, None] * samples[t] for t in range(k))
        return SampledFunction(grid, vals.ravel()[: grid.count], hint)

    return tabulate


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
    truncation error inflates the tolerances.  Battle-Lemarie families are
    checked exactly from their series coefficients.  Daubechies families
    are checked on phi subdivided a few levels finer by the exact two-scale
    relation (`refined_tables`), and psi derived from it: the quadrature
    error on products of Hoelder-rough scaling functions decays like
    h^(2*alpha) and would otherwise swamp the 1e-6 orthonormality tolerance.
    """
    if fam.name == "battle_lemarie":
        defects = _series_defects(fam.param)
    else:
        phi, psi = fam.phi, fam.psi
        if fam.name == "daubechies" and fam.param != 1:
            phi = refined_tables(fam, "phi", FAMILY_LEVEL + _INVARIANT_CHECK_REFINE)
            psi = derive_wavelet(fam.filter, phi)
        defects = {
            "phi_integral": abs(phi.integral() - 1.0),
            "psi_integral": abs(psi.integral()),
            "partition_of_unity": partition_of_unity_defect(phi),
            "translate_orthonormality": translate_orthonormality_defect(phi),
        }
    slack = 0.0
    if fam.phi.decay_hint.kind != "compact":
        slack = 20.0 * fam.phi.decay_hint.truncation
    for key, tol, what in _INVARIANT_TOLERANCES:
        _require(defects[key] <= tol + slack, fam, what)
    return defects


_INVARIANT_TOLERANCES = (
    ("phi_integral", 1e-8, "phi integral != 1"),
    ("psi_integral", 1e-8, "psi integral != 0"),
    ("partition_of_unity", 1e-6, "partition of unity fails"),
    ("translate_orthonormality", 1e-6, "integer-translate orthonormality fails"),
)


def _series_defects(order: int) -> dict[str, float]:
    """The invariants of a Battle-Lemarie pair, exactly from its coefficients.

    M_k has unit mass and its integer translates sum to 1, so both the phi
    integral and the translate sum of phi are sum_n c_n, and the psi
    integral is sum_p d_p / 2; <phi, phi(. - m)> is
    sum_{n,n'} c_n c_n' B_{2k}(m + n' - n).
    """
    c, d = battle_lemarie_series(order)
    b = cardinal_autocorrelation(order)
    overlap = np.convolve(np.convolve(c, c[::-1]), b[:0:-1] + b)
    overlap[overlap.size // 2] -= 1.0
    mass = abs(float(np.sum(c)) - 1.0)
    return {
        "phi_integral": mass,
        "psi_integral": abs(float(np.sum(d))) / 2.0,
        "partition_of_unity": mass,
        "translate_orthonormality": float(np.max(np.abs(overlap))),
    }


def partition_of_unity_defect(phi: SampledFunction) -> float:
    """max over interior x in [0,1) of |sum_k phi(x-k) - 1|."""
    level = phi.grid.level
    step = 2**level
    kmin = int(np.floor(phi.grid.left)) - 1
    kmax = int(np.ceil(phi.grid.right)) + 1
    # row k - kmin is phi on [k, k + 1): one period, read at its nodes
    blocks = phi.on_lattice(level, kmin * step, (kmax - kmin + 1) * step).reshape(-1, step)
    total = np.zeros(step)
    for block in blocks:
        total += block
    return float(np.max(np.abs(total - 1.0)))


def translate_orthonormality_defect(phi: SampledFunction) -> float:
    """max over integer k >= 0 of |<phi, phi(. - k)> - delta_k|.

    phi(x - k) on phi's own grid is the table shifted s = k 2^level places,
    so the product vanishes off the overlap and the lag sum is
    product_quad(v[s:], v[:n - s]) on two views; at level >= 1 s is even, so
    the overlap keeps the coarse trapezoid's nodes.  A lag past the table
    is 0.
    """
    v, n = phi.values, phi.values.size
    step = 2**phi.grid.level
    worst = 0.0
    for k in range(int(np.ceil(phi.grid.right - phi.grid.left)) + 1):
        s = k * step
        val = product_quad(v[s:], v[: n - s], phi.dx) if s < n else 0.0
        worst = max(worst, abs(val - (1.0 if k == 0 else 0.0)))
    return worst


def _require(cond: bool, fam: MRAFamily, what: str) -> None:
    if not cond:
        raise ConstructionError(f"{fam.label}: {what}")


# ---------------------------------------------------------------------------
# factory


def make_family(name: str, param: int = 0) -> MRAFamily:
    """Build a named family at FAMILY_LEVEL and verify its invariants."""
    if name not in FAMILY_NAMES:
        raise FamilyError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")

    if name == "battle_lemarie" and not 1 <= param <= BATTLE_LEMARIE_MAX_ORDER:
        raise FamilyError(f"battle_lemarie order must be in 1..{BATTLE_LEMARIE_MAX_ORDER}")
    param = param if name in ("daubechies", "battle_lemarie") else None

    filt, moments = None, param
    if uses_haar_tables(name, param):
        filt, moments, symbol, tabulate = haar_filter(), 1, _daubechies_symbol(1), _haar_table
    elif name == "daubechies":
        filt, symbol = daubechies_filter(param), _daubechies_symbol(param)
        tabulate = _subdivision_tabulator(filt)
    elif name == "battle_lemarie":
        symbol, tabulate = _battle_lemarie_symbol(param), _series_tabulator(param)
    else:  # shannon
        moments, symbol, tabulate = 1, _shannon_symbol, _shannon_table
    fam = MRAFamily(
        name=name,
        filter=filt,
        phi=tabulate("phi", FAMILY_LEVEL),
        psi=tabulate("psi", FAMILY_LEVEL),
        vanishing_moments=moments,
        symbol=symbol,
        tabulate=tabulate,
        param=param,
    )
    check_family_invariants(fam)
    return fam


def refined_tables(fam: MRAFamily, gen: str, level: int) -> SampledFunction:
    """fam's generator gen ("phi" or "psi") tabulated at least at `level`.

    At or below FAMILY_LEVEL the stored table serves; a finer level comes
    from the family's tabulator, exact, so every lattice an atom is read on
    holds samples.  Nothing is held: each read builds its one table.
    """
    if level <= FAMILY_LEVEL:
        return getattr(fam, gen)
    return fam.tabulate(gen, level)


def parse_family_spec(spec: str) -> MRAFamily:
    """Parse 'name' or 'name:param' CLI syntax; haar and shannon take no param."""
    if ":" in spec:
        name, raw = spec.split(":", 1)
        if name in ("haar", "shannon"):
            raise FamilyError(f"{name} takes no parameter, got {spec!r}")
        if not (raw.isascii() and raw.isdigit()):
            raise FamilyError(f"family parameter must be decimal digits, got {spec!r}")
        return make_family(name, int(raw))
    return make_family(spec)
