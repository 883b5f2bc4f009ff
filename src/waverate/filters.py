"""Orthonormal two-scale filter pairs.

The highpass sequence is the conjugate mirror of the lowpass one,
g_k = (-1)^k h_{M-1-k}, which in one dimension yields the orthonormal
complement generator.  Daubechies lowpass filters are computed at build
time by spectral factorization of the half-band polynomial in extended
precision, so every filter re-validates its own orthonormality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

SUM_TOL = 1e-12
ORTHO_TOL = 1e-12

MAX_DAUBECHIES = 10


class FilterError(ValueError):
    pass


@dataclass(frozen=True)
class FilterPair:
    """Lowpass/highpass coefficients h_0..h_{M-1}, g_0..g_{M-1}."""

    lowpass: np.ndarray = field(repr=False)
    highpass: np.ndarray = field(repr=False)
    offset: int = 0

    def __post_init__(self):
        h = np.asarray(self.lowpass, dtype=float)
        g = np.asarray(self.highpass, dtype=float)
        object.__setattr__(self, "lowpass", h)
        object.__setattr__(self, "highpass", g)
        if h.ndim != 1 or g.shape != h.shape:
            raise FilterError("lowpass/highpass must be 1-d arrays of equal length")
        self.validate()

    def validate(self) -> None:
        h = self.lowpass
        m = len(h)
        if abs(h.sum() - np.sqrt(2.0)) > SUM_TOL:
            raise FilterError(f"sum(h) = {h.sum()!r} != sqrt(2)")
        for shift in range(0, m, 2):
            target = 1.0 if shift == 0 else 0.0
            val = float(np.dot(h[: m - shift], h[shift:]))
            if abs(val - target) > ORTHO_TOL:
                raise FilterError(
                    f"translate orthonormality fails at shift {shift}: {val!r}"
                )
        if np.max(np.abs(self.highpass - mirror_highpass(h))) > 1e-14:
            raise FilterError("highpass is not the conjugate mirror of lowpass")


def mirror_highpass(h: np.ndarray) -> np.ndarray:
    m = len(h)
    return np.array([(-1) ** k * h[m - 1 - k] for k in range(m)])


def from_lowpass(h, offset: int = 0) -> FilterPair:
    h = np.asarray(h, dtype=float)
    return FilterPair(h, mirror_highpass(h), offset)


def haar_filter() -> FilterPair:
    s = np.sqrt(2.0)
    return from_lowpass([1.0 / s, 1.0 / s])


def half_band_coefficients(n: int) -> list[int]:
    """Coefficients of P_n(y) = sum_{k<n} C(n-1+k, k) y^k, ascending in y.

    |m0(w)|^2 = cos^{2n}(w/2) P_n(sin^2(w/2)) for the Daubechies filter with
    n vanishing moments.
    """
    return [math.comb(n - 1 + k, k) for k in range(n)]


def daubechies_filter(n_moments: int) -> FilterPair:
    """Extremal-phase Daubechies lowpass with `n_moments` vanishing moments.

    Solves |m0(w)|^2 = cos^{2N}(w/2) * P(sin^2(w/2)) by factoring P over its
    roots, keeping one z-root per pair, at 60-digit working precision.
    """
    if not 1 <= n_moments <= MAX_DAUBECHIES:
        raise FilterError(
            f"daubechies moments must be in 1..{MAX_DAUBECHIES}, got {n_moments}"
        )
    if n_moments == 1:
        return haar_filter()

    with mp.workdps(60):
        n = n_moments
        p_coeffs = [mp.mpf(c) for c in half_band_coefficients(n)]
        roots = mp.polyroots(list(reversed(p_coeffs)), maxsteps=200, extraprec=120)

        # each root y0 of P gives z^2 - (2 - 4 y0) z + 1 = 0; keep |z| < 1
        q = [mp.mpf(1)]  # monic polynomial, ascending in z
        for y0 in roots:
            b = 2 - 4 * y0
            disc = mp.sqrt(b * b - 4)
            z1 = (b + disc) / 2
            z2 = (b - disc) / 2
            z = z1 if abs(z1) < 1 else z2
            q = _poly_mul(q, [-z, mp.mpf(1)])

        # m0(z) = ((1+z)/2)^n * q(z)/q(1); h_k = sqrt(2) * coeff_k
        factor = [mp.mpf(1)]
        for _ in range(n):
            factor = _poly_mul(factor, [mp.mpf(0.5), mp.mpf(0.5)])
        m0 = _poly_mul(factor, q)
        q1 = sum(m0)
        h = [mp.sqrt(2) * c / q1 for c in m0]
        h_float = np.array([float(mp.re(c)) for c in h])

    # extremal phase convention: energy concentrated at the front
    half = len(h_float) // 2
    if np.sum(h_float[:half] ** 2) < np.sum(h_float[half:] ** 2):
        h_float = h_float[::-1]
    return from_lowpass(h_float)


def _poly_mul(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out
