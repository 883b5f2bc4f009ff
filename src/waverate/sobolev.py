"""Sobolev-type pointwise convergence criteria in the frequency domain.

Whether wavelet expansions of an order-s Sobolev function converge everywhere
is decided by the small-frequency behaviour of the generator spectra.  Two
equivalent integral tests are implemented:

* wavelet test:  finiteness of  int_{|xi|<eps} |psi^(xi)|^2 |xi|^{-(2s+1)} dxi
* scaling test:  finiteness of  int_{|xi|<eps} (1 - 2pi |phi^(xi)|^2) |xi|^{-(2s+1)} dxi

Both spectra come from the family's two-scale power symbol
a(w) = |m0(w)|^2, b(w) = |m0(w + pi)|^2 (``MRAFamily.symbol``).  With the
unitary convention F(xi) = (2pi)^{-1/2} int f(x) e^{-i xi x} dx,

    2pi |phi^(xi)|^2     = prod_{i>=1} a(xi / 2^i)
    |psi^(xi)|^2         = b(xi / 2) |phi^(xi / 2)|^2
    1 - 2pi |phi^(xi)|^2 = sum_{k>=1} prod_{i<k} a(xi / 2^i) * b(xi / 2^k)

The last line telescopes from a + b = 1.  Its terms are nonnegative, so the
scaling factor keeps full relative accuracy however small it is, as does
|psi^|^2 ~ xi^{2N} (Daubechies, Ten Lectures on Wavelets, ch. 6-7).  The
products stop once every factor is exactly 1.0 in double precision.  Step i
of the products at xi reads the symbol at xi 2^-i, so the products on a set
of points come from one table of the symbol at the points times 2^-r,
r = 1, 2, ..., read one slice of rows per step.

Both integrals are evaluated over SHELLS dyadic shells
[eps 2^{-(m+1)}, eps 2^{-m}] shrinking toward 0.  Shell m's grid is exactly
the outermost one times 2^-m, so one symbol table per spectrum and eps serves
every shell.  The integrand on the shells does not depend on s, so
``critical_order`` and ``criterion_sweep`` evaluate it once and pay one
trapezoid over all shells for each s.
Every criterion takes the family and integrates its own generator's spectrum.

An integral of this kind converges exactly when s lies below the decay
exponent s* of the integrand at 0 (both integrands behave like xi^{2 s*}).
The shells measure that exponent directly: with S_m the s = 0 sum on shell m,
the local exponents e_m = log2(S_m / S_{m+1}) / 2 tend to s* with an error
that falls 4-fold per shell, and one Richardson step on the last two gives
s* = (4 e_last - e_prev) / 3, to within |e_last - s*|.  An integral diverges
iff s >= s*, read within that accuracy since the divergence at s* itself is
only logarithmic; the sweep and ``critical_order`` read this one onset, so
the verdict is monotone in s.  For the standard constructions s* equals the
number of vanishing moments.  ``sampled_transform``, a direct quadrature of
sampled values at chosen frequencies, checks the tabulated generators against
the symbol route; no criterion uses it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .families import MRAFamily
from .grids import ComputationError, ConfigError, SampledFunction

#: shells reach down to XI_FLOOR / 4, where |xi|^{-(2s+1)} <= 1e153 for
#: s <= 16 and |psi^|^2 ~ xi^{2N} >= 1e-93 for N <= 10: far from overflow
#: and underflow in double precision
XI_FLOOR = 1e-4
#: number of dyadic shells for both integrals (eps=1 reaches ~2.4e-4)
SHELLS = 12
#: points per shell for the trapezoid rule
SHELL_POINTS = 65


# ---------------------------------------------------------------------------
# spectra from the two-scale symbol


#: rows of the first symbol table: the products of every designed family stop
#: within 43 rows of the shells at eps = pi; a table that runs out doubles
TABLE_ROWS = 48


def _symbol_products(symbol, base: np.ndarray, height: int, first: int):
    """(b(xi/2), power, factor) on the rows xi = base 2^-m, m = 0..height-1.

    Table row r - 1 holds the symbol at base 2^-r.  From step ``first`` on,
    step i multiplies a(xi 2^-(i+1)) into power after adding power *
    b(xi 2^-(i+1)) to factor: on row m it reads table row m + i, so each step
    is one slice of rows.  The table doubles (one more symbol call) whenever
    the products run past it.
    """
    xi = a = b = np.empty((0,) + base.shape)
    power, factor = np.ones((height,) + base.shape), np.zeros((height,) + base.shape)
    i = first
    while True:
        while i + height > len(xi):  # TABLE_ROWS rows at first, then twice as many
            r = np.arange(len(xi) + 1, len(xi) + max(len(xi), TABLE_ROWS) + 1)
            more = np.ldexp(base, -r.reshape((-1,) + (1,) * base.ndim))
            xi, a, b = (np.concatenate(pair) for pair in zip((xi, a, b), (more, *symbol(more))))
        step = slice(i, i + height)
        factor += power * b[step]
        power = power * a[step]
        if np.all(a[step] == 1.0):
            return b[:height], power, factor
        if not np.any(xi[step]):  # every xi underflowed: the factors stay a(0) != 1
            raise ComputationError(f"the symbol's a(0) = {float(np.ravel(a[step])[0])!r} is not 1")
        i += 1


def _frequencies(xi) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi)):
        raise ConfigError("frequencies must be finite")
    return xi


class SymbolSpectrum(NamedTuple):
    """|phi^| or |psi^| of a family, as infinite products of its symbol."""

    symbol: Callable
    which: str

    def _magnitude(self, base: np.ndarray, height: int) -> np.ndarray:
        """|phi^| or |psi^| on the rows xi = base 2^-m, m = 0..height-1."""
        if self.which == "phi":
            return np.sqrt(_symbol_products(self.symbol, base, height, 0)[1] / (2.0 * math.pi))
        b, power, _ = _symbol_products(self.symbol, base, height, 1)
        return np.sqrt(b * power / (2.0 * math.pi))

    def evaluate(self, xi) -> np.ndarray:
        """|phi^(xi)| or |psi^(xi)| (vectorized); no criterion needs the phase."""
        return self._magnitude(_frequencies(xi), 1)[0]


def family_spectrum(fam: MRAFamily, which: str = "psi") -> SymbolSpectrum:
    """Spectrum of a family generator, from the family's two-scale symbol."""
    if which not in ("phi", "psi"):
        raise ConfigError(f"which must be 'phi' or 'psi', got {which!r}")
    return SymbolSpectrum(fam.symbol, which)


# ---------------------------------------------------------------------------
# sampled Fourier transform (the cross-check of tabulated generators)


def sampled_transform(f: SampledFunction, xi) -> np.ndarray:
    """(2pi)^{-1/2} int f(x) exp(-i xi x) dx by the trapezoid rule on the
    samples of f, at arbitrary frequencies (vectorized, no FFT), summed over
    blocks of about 2^20 exponentials so that memory stays bounded."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = f.grid.points()
    fw = f.values * f.grid.spacing
    fw[0] *= 0.5
    fw[-1] *= 0.5
    rows = max(1, 2**20 // xi.size)
    total = np.zeros(xi.size, dtype=complex)
    for i in range(0, x.size, rows):
        total += fw[i : i + rows] @ np.exp(-1j * np.outer(x[i : i + rows], xi))
    return total / math.sqrt(2.0 * math.pi)


class SampledSpectrum(NamedTuple):
    """The unitary Fourier transform of the ``source`` samples."""

    source: SampledFunction

    def evaluate(self, xi) -> np.ndarray:
        """Transform values at arbitrary frequencies (vectorized)."""
        return sampled_transform(self.source, xi)


def fourier_transform(f: SampledFunction) -> SampledSpectrum:
    """The transform of a sampled function, read by ``sampled_transform``."""
    return SampledSpectrum(f)


# ---------------------------------------------------------------------------
# shell integrals


class IntegralResult(NamedTuple):
    """Outcome of a singular-weight shell integral.

    ``value`` is +inf when ``diverged``, and otherwise the last cumulative
    total of ``shells``, the individual shell sums (nonnegative, as both
    integrands are), outermost first.
    """

    s: float
    epsilon: float
    value: float
    diverged: bool
    shells: tuple


def check_settings(epsilon: float, s_values=()) -> None:
    """Raise ConfigError unless eps lies in (0, pi], its shells stay above
    XI_FLOOR / 4 and every s lies in (0, 16]; needs no family."""
    if not 0.0 < epsilon <= math.pi:
        raise ConfigError(f"epsilon must lie in (0, pi], got {epsilon}")
    if epsilon * 2.0**-SHELLS < XI_FLOOR / 4.0:
        raise ConfigError(
            f"shells would reach xi = {epsilon * 2.0 ** -SHELLS:.2g}, "
            f"below the frequency floor {XI_FLOOR:g}"
        )
    for s in s_values:
        if not 0.0 < s <= 16.0:
            raise ConfigError(f"regularity order s must lie in (0, 16], got {s}")


def _decay_onset(zero_sums) -> tuple[float, tuple, float]:
    """(s*, (e_prev, e_last), onset) from the s = 0 shell sums S_m.

    s* = (4 e_last - e_prev) / 3 from the last two local exponents
    e_m = log2(S_m / S_{m+1}) / 2; an s at or above onset = s* - |e_last - s*|
    reads as diverged.  Shells that vanish (Shannon) have no onset: s* is inf
    and every s reads finite.
    """
    tail = [float(v) for v in zero_sums[-3:]]
    if not all(v > 0.0 for v in tail):
        return math.inf, (math.inf, math.inf), math.inf
    e_prev, e_last = (0.5 * math.log2(a / b) for a, b in zip(tail, tail[1:]))
    s_star = (4.0 * e_last - e_prev) / 3.0
    return s_star, (e_prev, e_last), s_star - abs(e_last - s_star)


def _assemble(s, epsilon, shell_sums, onset) -> IntegralResult:
    shells = tuple(float(v) for v in shell_sums)
    diverged = s >= onset
    value = math.inf if diverged else float(np.cumsum(shells)[-1])
    return IntegralResult(
        s=float(s), epsilon=float(epsilon), value=value, diverged=diverged, shells=shells
    )


def _shell_integral(
    fam: MRAFamily, criterion: str, epsilon: float, s_values=()
) -> tuple[Callable[[float], IntegralResult], float, tuple]:
    """(s -> IntegralResult, s*, local exponents) of
    int_{|xi|<eps} integrand(xi) |xi|^{-(2s+1)} dxi for the even integrand.

    The criterion, eps and every s in `s_values` are checked before any symbol
    call.  Shell m's grid is exactly base 2^-m, so every shell's integrand comes
    from one symbol table of the base grid; it does not depend on s, and each s
    costs one weighted trapezoid over the (SHELLS, SHELL_POINTS) block, whose
    s = 0 sums give s* and the onset every verdict reads.
    """
    if criterion not in ("wavelet", "scaling"):
        raise ConfigError(f"criterion must be 'wavelet' or 'scaling', got {criterion!r}")
    check_settings(epsilon, s_values)
    spec = family_spectrum(fam, "psi" if criterion == "wavelet" else "phi")
    base = np.linspace(epsilon / 2.0, epsilon, SHELL_POINTS)
    grids = np.ldexp(base, -np.arange(SHELLS)[:, None])
    if criterion == "wavelet":
        values = spec._magnitude(base, SHELLS) ** 2
    else:
        values = _symbol_products(spec.symbol, base, SHELLS, 0)[2]

    def sums(s: float) -> np.ndarray:
        return np.trapezoid(2.0 * values * grids ** -(2.0 * s + 1.0), grids, axis=-1)

    s_star, exponents, onset = _decay_onset(sums(0.0))

    def integral(s: float) -> IntegralResult:
        return _assemble(s, epsilon, sums(s), onset)

    return integral, s_star, exponents


def wavelet_criterion(fam: MRAFamily, s: float, epsilon: float = 1.0) -> IntegralResult:
    """Shell evaluation of int_{|xi|<eps} |psi^(xi)|^2 |xi|^{-(2s+1)} dxi."""
    return _shell_integral(fam, "wavelet", epsilon, (s,))[0](s)


def scaling_criterion(fam: MRAFamily, s: float, epsilon: float = 1.0) -> IntegralResult:
    """Shell evaluation of int_{|xi|<eps} (1 - 2pi |phi^(xi)|^2) |xi|^{-(2s+1)} dxi."""
    return _shell_integral(fam, "scaling", epsilon, (s,))[0](s)


# ---------------------------------------------------------------------------
# critical order


class CriticalOrder(NamedTuple):
    """The decay exponent s* of a criterion's integrand, and the last two
    local exponents it was extrapolated from (its accuracy evidence)."""

    family: str
    s_star: float
    criterion: str
    local_exponents: tuple


def critical_order(
    fam: MRAFamily, epsilon: float = 1.0, criterion: str = "wavelet"
) -> CriticalOrder:
    """The regularity order s* where the criterion becomes divergent.

    s* is the decay exponent of the integrand at 0, extrapolated from the
    shells' last two local exponents.  Raises unless it lies in the (0, 16]
    that ``check_settings`` accepts for s; Shannon, whose shells vanish, has
    no onset.
    """
    _, s_star, exponents = _shell_integral(fam, criterion, epsilon)
    if not 0.0 < s_star <= 16.0:
        raise ComputationError(f"{fam.label}: no divergence onset in (0, 16] (s* = {s_star:.6g})")
    return CriticalOrder(
        family=fam.label, s_star=s_star, criterion=criterion, local_exponents=exponents
    )


def criterion_sweep(
    fam: MRAFamily,
    s_values,
    epsilon: float = 1.0,
    criterion: str = "wavelet",
) -> list[IntegralResult]:
    """The criterion at each s."""
    s_values = [float(s) for s in s_values]
    integral = _shell_integral(fam, criterion, epsilon, s_values)[0]
    return [integral(s) for s in s_values]
