"""Concrete multiresolution families: Haar, Daubechies, Battle-Lemarie, Shannon.

`make_family` looks a family's name up and calls its source's constructor,
which checks its own parameter:
  * the box (`_box`: haar, daubechies:1, battle_lemarie:1): order-1 splines
    with midpoint samples at the jumps, grid extended one cell past [0,1]
    so trapezoid quadrature is exact.
  * subdivision (`_subdivision`: daubechies:N, N >= 2): phi on the integers
    of its support [0, 2N - 1] from the eigenvector of the two-scale matrix,
    then exact dyadic subdivision to FAMILY_LEVEL; the wavelet from the
    mirror filter.  Both tables end at the support, where they are 0.
  * the spline series (`_spline_series`: battle_lemarie:k, k >= 2): an exact
    spline series on integer knots, phi = sum_n c_n M_k(x - n + k//2) and
    psi = sum_p d_p M_k(2x - p + k//2), with c and d the Fourier coefficients
    of the orthonormalizing symbols built from the Euler-Frobenius polynomial.
  * the sinc (`_sinc`: shannon): truncated sinc closed form, shipped as an
    algebraic-decay stress case (its natural majorant is ~1/|x| and is not
    integrable, so only inflated, truncation-aware tolerances apply to it).

The `MRAFamily` a source returns holds everything later code asks of it;
past `make_family` its name and parameter are only its label.  It holds its
power symbol w -> (|m0(w)|^2, |m0(w + pi)|^2) in closed form, whose infinite
products are the spectra of `waverate.sobolev`; its tabulator, (gen, level)
-> the table of phi or psi, whose FAMILY_LEVEL tables are built and verified
on their own first read and held, finer ones (`refined_tables`) built on each
read; its support and tail class, read without a table; the one invariant
its source decides (every other is read on the FAMILY_LEVEL table, so no
check builds a finer one); and its quadrature refinement.  Three engines
build the tables: the spline read (`SplineApproximation.on_lattice`, for the
box and the series), subdivision and the sampled sinc.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .filters import FilterPair, daubechies_filter, haar_filter, half_band_coefficients
from .grids import (
    ComputationError,
    ConfigError,
    DecayHint,
    DyadicGrid,
    Record,
    SampledFunction,
    product_quad,
    sample,
    strided_read,
)
from .splines import MAX_ORDER, SplineApproximation, cardinal_autocorrelation, make_space

#: level at which every family tabulates phi and psi
FAMILY_LEVEL = 10
SHANNON_RADIUS = 64.0

# supports and tail classes; the box's tables run a unit past [0, 1] for the
# midpoint values at its jumps, Daubechies tables end at [0, len(h) - 1]
_COMPACT = DecayHint("compact")
_HAAR_SUPPORT = (-1.0, 2.0)
_SHANNON_SUPPORT = (-SHANNON_RADIUS, SHANNON_RADIUS)
_SHANNON_DECAY = DecayHint("algebraic", N=1.05, truncation=1.0 / (np.pi * SHANNON_RADIUS))


class MRAFamily(Record):
    """A family's name, filter and moments, and what its source decided:

    - ``symbol``: omega -> (|m0(omega)|^2, |m0(omega + pi)|^2), vectorized;
    - ``tabulate``: (gen, level) -> generator gen ("phi" or "psi") tabulated
      at exactly that level, or ConfigError: a spline psi starts at level 1,
      the rest at 0;
    - ``geometry``: () -> (support, decay), read without building a table;
    - ``invariants``: phi's FAMILY_LEVEL table -> the orthonormality defect
      of its integer translates, the one invariant the source decides;
    - ``quad_refine``: the levels by which a study samples f finer than the
      grid its errors are read on (`expansion.check_analysis`).

    ``name`` and ``param`` only label the family.  Its fields and its
    verified tables live in its own ``__dict__``.
    """

    _fields = ("name", "filter", "vanishing_moments", "symbol", "tabulate", "geometry",
               "invariants", "quad_refine", "param")

    def __init__(self, name: str, filter: FilterPair | None, vanishing_moments: int,
                 symbol: Callable, tabulate: Callable, geometry: Callable,
                 invariants: Callable, quad_refine: int, param: int | None = None):
        vars(self).update(
            name=name, filter=filter, vanishing_moments=vanishing_moments, symbol=symbol,
            tabulate=tabulate, geometry=geometry, invariants=invariants,
            quad_refine=quad_refine, param=param,
        )

    @property
    def label(self) -> str:
        if self.param is None:
            return self.name
        return f"{self.name}:{self.param}"

    @property
    def support(self) -> tuple[float, float]:
        """(left, right), the ends of every phi and psi table at every level."""
        return self.geometry()[0]

    @property
    def decay(self) -> DecayHint:
        """The tail class of phi and psi, which the kernel bound rests on."""
        return self.geometry()[1]

    @property
    def phi(self) -> SampledFunction:
        return self._verified("phi")[0]

    @property
    def psi(self) -> SampledFunction:
        return self._verified("psi")[0]

    def _verified(self, gen: str) -> tuple:
        """(table, defects) of generator gen: tabulated at FAMILY_LEVEL and
        checked (`_generator_defects`) on its own first read, then held.  No
        lock: threads that race on one family build identical tables."""
        held = self.__dict__.get("_" + gen)
        if held is None:
            table = self.tabulate(gen, FAMILY_LEVEL)
            held = (table, _generator_defects(self, gen, table))
            self.__dict__["_" + gen] = held
        return held


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
    tap reads one strided slice through `grids.strided_read`.
    """
    out = np.zeros(count)
    for k in range(len(c)):
        out += c[k] * strided_read(vals, first - k * step, stride, count)
    return np.sqrt(2.0) * out


def subdivision_scaling(filter: FilterPair) -> SampledFunction:
    """phi at FAMILY_LEVEL on its support [0, M-1], exact up to roundoff, by
    subdivision of phi(0..M-1).

    On the integers phi(n) = sqrt(2) sum_k h_{2n-k} phi(k) and sum phi(n) = 1
    (`_fixed_point`); Haar has many such phi, so the box is its order-1 spline.
    """
    h = filter.lowpass
    vals = _fixed_point(np.sqrt(2.0) * h)
    vals[0] = vals[-1] = 0.0  # phi vanishes at both ends of its support
    integers = SampledFunction(DyadicGrid(0.0, float(len(h) - 1), 0), vals)
    return refine_scaling(filter, integers, FAMILY_LEVEL)


def _fixed_point(taps: np.ndarray) -> np.ndarray:
    """The v with v_n = sum_k t_{2n-k} v_k and sum v = 1, n, k and the tap
    indices on one range.  Both parity classes of sqrt(2) h and of h*h sum to
    1, so every column of T does and v solves T - I with its last row
    replaced by ones.  That matrix's determinant is the product of lambda - 1
    over T's other eigenvalues (Daubechies: 0.19..0.29), 0 unless eigenvalue
    1 is simple and v unique: then raise ComputationError."""
    n = len(taps)
    at = 2 * np.arange(n)[:, None] - np.arange(n)
    system = np.where((at >= 0) & (at < n), taps[at % n], 0.0)
    system -= np.eye(n)
    system[-1] = 1.0
    if abs(np.linalg.det(system)) < 1e-8:
        raise ComputationError("eigenvalue 1 of the two-scale matrix is not simple")
    return np.linalg.solve(system, np.eye(n)[-1])


def autocorrelation_lags(filter: FilterPair) -> np.ndarray:
    """a_k = <phi, phi(. - k)>, |k| < len(h), exact from the filter alone (Lawton,
    J. Math. Phys. 32, 1991): a_k = sum_l (h*h)_{2k-l} a_l and sum a = 1."""
    h = filter.lowpass
    return _fixed_point(np.correlate(h, h, "full"))


def refine_scaling(
    filter: FilterPair, phi: SampledFunction, extra_levels: int
) -> SampledFunction:
    """phi on the lattice extra_levels finer than its table's, on the same ends.

    A coarser lattice (extra_levels < 0) holds every 2^-extra_levels-th node.
    A finer one is subdivided via the two-scale relation: for x on the
    level-(L+1) lattice, 2x lies on the level-L lattice, so
    phi(x) = sqrt(2) sum_k h_k phi(2x - k) is an exact table lookup; no
    fixed-point iteration is needed.  On phi's support [0, len(h) - 1], where
    phi vanishes at both ends, the ends stay exact zeros: x = 0 reads only
    phi(0), and x = len(h) - 1 only phi(len(h) - 1) or points off the table.
    """
    grid = phi.grid.refine(min(extra_levels, 0))
    vals = phi.values[:: 2 ** max(-extra_levels, 0)]
    for _ in range(extra_levels):
        # fine index i is x = left + i 2^-(level+1), so 2x has old index start + i
        vals = _two_scale(filter.lowpass, vals, grid.start, 1, 2 * vals.size - 1, 2**grid.level)
        grid = grid.refine(1)
    return SampledFunction(grid, vals)


def derive_wavelet(filter: FilterPair, phi: SampledFunction) -> SampledFunction:
    """psi(x) = sqrt(2) sum_k g_k phi(2x - k) on phi's own grid."""
    grid = phi.grid
    vals = _two_scale(filter.highpass, phi.values, grid.start, 2, grid.count, 2**grid.level)
    return SampledFunction(grid, vals)


# ---------------------------------------------------------------------------
# the sinc and subdivision tables


def _shannon_table(gen: str, level: int) -> SampledFunction:
    grid = DyadicGrid(*_SHANNON_SUPPORT, level)
    # sin(pi x)/(pi x) or its wavelet, a chunk at a time: fine levels are large
    return sample(np.sinc if gen == "phi" else _shannon_wavelet, grid)


def _shannon_wavelet(x: np.ndarray) -> np.ndarray:
    """(sin 2 pi u - sin pi u) / (pi u), u = x - 1/2, with its limit 1 at u = 0."""
    u = x - 0.5
    on_half = u == 0.0
    vals = np.sin(2 * np.pi * u)
    u *= np.pi
    vals -= np.sin(u)
    u[on_half] = 1.0
    vals /= u
    vals[on_half] = 1.0
    return vals


def _subdivision_tabulator(filter: FilterPair) -> Callable:
    """Tables of a Daubechies family: phi read from its level-FAMILY_LEVEL
    table, built on the first call and kept, subdivided to a finer level or
    read on a coarser lattice; psi derived from phi at the level asked for."""
    base = functools.cache(lambda: subdivision_scaling(filter))

    def tabulate(gen: str, level: int) -> SampledFunction:
        phi = refine_scaling(filter, base(), level - FAMILY_LEVEL)
        return phi if gen == "phi" else derive_wavelet(filter, phi)

    return tabulate


# ---------------------------------------------------------------------------
# Battle-Lemarie as integer-knot spline series

#: Fourier coefficients per series: both symbols are analytic, and the
#: slowest, d_p of order 8, decays like e^{-0.155 |p|}, so aliasing is < 1e-18
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


#: order -> battle_lemarie_series(order), built once: the tables and the exact
#: invariant check of every family of that order read the same c and d
_series = functools.cache(lambda order: battle_lemarie_series(order))


def _decay_rate(order: int) -> float:
    """-ln|z_1|, z_1 the root of z^{k-1} Pi(z) inside the unit circle nearest to it."""
    b = cardinal_autocorrelation(order)
    roots = np.roots(b[:0:-1] + b)
    return -math.log(max(abs(z) for z in roots if abs(z) < 1.0))


@functools.cache
def _series_geometry(order: int) -> tuple:
    """(support, decay) of order-k Battle-Lemarie tables: the integers past which
    each series coefficient is below _BL_TRUNCATION, and the coefficients' decay."""
    c, d = _series(order)
    shift = order // 2
    index = np.arange(c.size) - c.size // 2
    nc = index[np.abs(c) > _BL_TRUNCATION]
    nd = index[np.abs(d) > _BL_TRUNCATION]
    left = min(nc[0] - shift, (nd[0] - shift) // 2)
    right = max(nc[-1] - shift + order, -((shift - order - nd[-1]) // 2))
    decay = DecayHint("exponential", a=_decay_rate(order), truncation=_BL_TRUNCATION)
    return (float(left), float(right)), decay


def _series_basis(order: int, gen: str) -> tuple:
    """(support, coefficients) of an order-k Battle-Lemarie generator: the
    slice of c (phi, mesh 1) or d (psi, mesh 1/2) over the support's B-splines,
    B_i(x) = M_k(scale x - n + k//2) with n = i + scale left + k//2 - k + 1."""
    (left, right), _ = _series_geometry(order)
    scale = 1 if gen == "phi" else 2
    coef = _series(order)[scale - 1]
    first = coef.size // 2 + scale * int(left) + order // 2 - order + 1
    return (left, right), coef[first : first + scale * int(right - left) + order - 1]


# ---------------------------------------------------------------------------
# spline tables: the box is order 1, Battle-Lemarie order k on integer knots

#: the indicator of (0, 1) and its Haar wavelet on _HAAR_SUPPORT, order-1
#: splines on meshes 1 and 1/2 with midpoint values at their jumps
_BOX_COEFFICIENTS = {"phi": np.array([0.0, 1.0, 0.0]),
                     "psi": np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0])}


def _spline_tabulator(order: int, basis: Callable) -> Callable:
    """Tables of a spline family: phi the order-k spline on mesh 1, psi the one
    on mesh 1/2, each with the support and coefficients `basis(gen)` gives,
    read on the level's lattice (ConfigError at level 0 for psi)."""

    def tabulate(gen: str, level: int) -> SampledFunction:
        support, coef = basis(gen)
        grid = DyadicGrid(*support, level)
        space = make_space(order, 1.0 if gen == "phi" else 0.5, support)
        values = SplineApproximation(space, coef).on_lattice(level, grid.start, grid.count)
        return SampledFunction(grid, values)

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


def check_family_invariants(fam: MRAFamily) -> dict[str, float]:
    """The four family invariant defects of fam, those measured when its phi
    and psi were first read (each read now if it has not been); a failed
    check raises ComputationError."""
    defects = {**fam._verified("phi")[1], **fam._verified("psi")[1]}
    return {key: defects[key] for key, _, _ in _INVARIANT_TOLERANCES}


_INVARIANT_TOLERANCES = (
    ("phi_integral", 1e-8, "phi integral != 1"),
    ("psi_integral", 1e-8, "psi integral != 0"),
    ("partition_of_unity", 1e-6, "partition of unity fails"),
    ("translate_orthonormality", 1e-6, "integer-translate orthonormality fails"),
)


def _generator_defects(fam: MRAFamily, gen: str, table: SampledFunction) -> dict[str, float]:
    """The invariants of fam's generator gen on `table`, its FAMILY_LEVEL
    table, where they are exact up to roundoff or the declared truncation:
    for psi its integral, for phi its integral, its partition of unity and
    the translate orthonormality its source decides (`MRAFamily.invariants`).
    Raise ComputationError if one exceeds its tolerance, which a non-compact
    family's declared truncation error inflates, or if a compactly supported
    table does not vanish at both ends.
    """
    ends = table.values[[0, -1]]
    _require(fam.decay.kind != "compact" or not ends.any(), fam, f"{gen} table does not "
             "vanish at the ends of its compact support")
    if gen == "phi":
        defects = {
            "phi_integral": abs(table.integral() - 1.0),
            "partition_of_unity": partition_of_unity_defect(table),
            "translate_orthonormality": fam.invariants(table),
        }
    else:
        defects = {"psi_integral": abs(table.integral())}
    slack = 20.0 * fam.decay.truncation  # 0 for a compact family
    for key, tol, what in _INVARIANT_TOLERANCES:
        if key in defects:
            _require(defects[key] <= tol + slack, fam, what)
    return defects


def _lawton_defect(filter: FilterPair, phi: SampledFunction) -> float:
    """max_k |<phi, phi(. - k)> - delta_k| of a subdivision source, from its filter."""
    lags = autocorrelation_lags(filter)
    lags[lags.size // 2] -= 1.0
    return float(np.max(np.abs(lags)))


def _series_defect(order: int, phi: SampledFunction) -> float:
    """max_m |<phi, phi(. - m)> - delta_m| of a spline-series source, exactly
    from its coefficients: sum_{n,n'} c_n c_n' B_{2k}(m + n' - n)."""
    c, _ = _series(order)
    b = cardinal_autocorrelation(order)
    overlap = np.convolve(np.convolve(c, c[::-1]), b[:0:-1] + b)
    overlap[overlap.size // 2] -= 1.0
    return float(np.max(np.abs(overlap)))


def partition_of_unity_defect(phi: SampledFunction) -> float:
    """max over interior x in [0,1) of |sum_k phi(x-k) - 1| of a table on
    integer ends, its units [k, k + 1) added in increasing k: the unit fold
    of `gram_orthonormality_defect`, then the table's last sample at x = 0."""
    v, step = phi.values, 2**phi.grid.level
    total = v[:-1].reshape(-1, step).sum(axis=0)
    total[0] += v[-1]
    return float(np.max(np.abs(total - 1.0)))


def translate_orthonormality_defect(phi: SampledFunction) -> float:
    """max over integer k >= 0 of |<phi, phi(. - k)> - delta_k|, lag by lag:
    the reference that `gram_orthonormality_defect` is tested against.

    phi(x - k) on phi's own grid is the table shifted s = k 2^level places,
    so the product vanishes off the overlap and the lag sum is
    product_quad(v[s:], v[:n - s]) on two views; at level >= 1 s is even, so
    the overlap keeps the coarse trapezoid's nodes.  A lag past the table
    is 0.
    """
    v, n = phi.values, phi.values.size
    step = 2**phi.grid.level
    worst = 0.0
    for k in range(math.ceil(phi.grid.right - phi.grid.left) + 1):
        s = k * step
        val = product_quad(v[s:], v[: n - s], phi.dx) if s < n else 0.0
        worst = max(worst, abs(val - (1.0 if k == 0 else 0.0)))
    return worst


def gram_orthonormality_defect(phi: SampledFunction) -> float:
    """`translate_orthonormality_defect` of a table on integer ends at level
    >= 1, every lag sum read off one Gram product.

    There v[s:] v[:n - s] has an even number of intervals, so product_quad's
    2T(h) - T(2h) is the midpoint rule 2h sum_i v[i + s] v[i] over odd i.
    Row r of O holds the odd samples of the unit [r, r + 1), and the shift
    s = k 2^level is even, so lag k's sum is the k-th diagonal sum of O O^T:
    the loop's lag sums up to the order of summation.
    """
    v, step = phi.values, 2**phi.grid.level
    units = (v.size - 1) // step
    odd = np.ascontiguousarray(v[:-1].reshape(units, step)[:, 1::2])
    r, c = np.tril_indices(units)  # unit r meets unit c = r - k at lag k
    lags = 2.0 * phi.dx * np.bincount(r - c, weights=(odd @ odd.T)[r, c])
    lags[0] -= 1.0
    return float(np.max(np.abs(lags)))


def _require(cond: bool, fam: MRAFamily, what: str) -> None:
    if not cond:
        raise ComputationError(f"{fam.label}: {what}")


# ---------------------------------------------------------------------------
# factory


#: levels by which a study samples f finer than its error grid, for tables
#: rough between lattice points (the box's are exact on f's lattice).  Gaussian
#: sup errors (j = 3..9, level 12) then lie within 7.1e-4 of those from f 6
#: levels finer, against up to 3.1e-2 with none (db2..4, bl2, bl4)
_QUAD_REFINE = 3


def _box(param=None) -> MRAFamily:
    """haar: the box and its wavelet, order-1 splines, which daubechies:1 and
    battle_lemarie:1 also are, under their own labels."""
    if param is not None:
        raise ConfigError(f"haar takes no parameter, got {param!r}")
    return MRAFamily("haar", haar_filter(), 1, _daubechies_symbol(1),
                     _spline_tabulator(1, lambda gen: (_HAAR_SUPPORT, _BOX_COEFFICIENTS[gen])),
                     lambda: (_HAAR_SUPPORT, _COMPACT), gram_orthonormality_defect, 0)


def _subdivision(param) -> MRAFamily:
    """daubechies:N: phi subdivided from its integer values, its translates'
    orthonormality from the filter (Lawton); N = 1 is the box."""
    filt = daubechies_filter(param)  # checks N
    if param == 1:
        return _box()._replace(name="daubechies", param=1)
    ends = (0.0, float(len(filt.lowpass) - 1))
    return MRAFamily("daubechies", filt, param, _daubechies_symbol(param),
                     _subdivision_tabulator(filt), lambda: (ends, _COMPACT),
                     functools.partial(_lawton_defect, filt), _QUAD_REFINE, param)


def _spline_series(param) -> MRAFamily:
    """battle_lemarie:k: the order-k series, its translates' orthonormality
    exact from its coefficients; k = 1 is the box."""
    if type(param) is not int or not 1 <= param <= MAX_ORDER:
        raise ConfigError(f"battle_lemarie order must be in 1..{MAX_ORDER}")
    if param == 1:
        return _box()._replace(name="battle_lemarie", param=1)
    return MRAFamily("battle_lemarie", None, param, _battle_lemarie_symbol(param),
                     _spline_tabulator(param, functools.partial(_series_basis, param)),
                     functools.partial(_series_geometry, param),
                     functools.partial(_series_defect, param), _QUAD_REFINE, param)


def _sinc(param=None) -> MRAFamily:
    """shannon: the truncated sinc and its wavelet in closed form."""
    if param is not None:
        raise ConfigError(f"shannon takes no parameter, got {param!r}")
    return MRAFamily("shannon", None, 1, _shannon_symbol, _shannon_table,
                     lambda: (_SHANNON_SUPPORT, _SHANNON_DECAY), gram_orthonormality_defect,
                     _QUAD_REFINE)


_SOURCES = {"haar": _box, "daubechies": _subdivision, "battle_lemarie": _spline_series,
            "shannon": _sinc}


def make_family(name: str, param: int | None = None) -> MRAFamily:
    """A named family, from its source's constructor: its filter, symbol,
    tabulator, geometry, invariant route and quadrature refinement.  Each
    FAMILY_LEVEL table is built and verified on its own first read
    (`MRAFamily.phi`, `MRAFamily.psi`), a Battle-Lemarie geometry on its own."""
    if name not in _SOURCES:
        raise ConfigError(f"unknown family {name!r}; expected one of {tuple(_SOURCES)}")
    return _SOURCES[name](param)


def refined_tables(fam: MRAFamily, gen: str, level: int) -> SampledFunction:
    """fam's generator gen ("phi" or "psi") tabulated at least at `level`.

    The held table, read either way so that any study verifies gen, serves
    at or below FAMILY_LEVEL; a finer level comes from the family's tabulator,
    exact, so every lattice an atom is read on holds samples, and not held.
    """
    held = getattr(fam, gen)
    return held if level <= FAMILY_LEVEL else fam.tabulate(gen, level)


def parse_family_spec(spec: str) -> MRAFamily:
    """Parse 'name' or 'name:param' CLI syntax; the source checks the param."""
    if ":" in spec:
        name, raw = spec.split(":", 1)
        if not (raw.isascii() and raw.isdigit()):
            raise ConfigError(f"family parameter must be decimal digits, got {spec!r}")
        try:
            param = int(raw)
        except ValueError as exc:  # more digits than int() converts
            raise ConfigError(str(exc)) from None
        return make_family(name, param)
    return make_family(spec)
