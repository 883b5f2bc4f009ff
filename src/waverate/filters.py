"""Orthonormal two-scale filter pairs.

A pair is its lowpass: the highpass is derived, the conjugate mirror
g_k = (-1)^k h_{M-1-k}, which in one dimension yields the orthonormal
complement generator.  Daubechies lowpass filters are the extremal-phase
coefficients (Daubechies, Ten Lectures on Wavelets, Table 6.1), stored as the
doubles nearest their exact values; every filter re-validates its orthonormality.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import ComputationError, ConfigError, Record, _set

SUM_TOL = 1e-12
ORTHO_TOL = 1e-12

MAX_DAUBECHIES = 10


class FilterPair(Record):
    """A lowpass h_0..h_{M-1} and the mirror highpass g_0..g_{M-1} it derives."""

    __slots__ = ("lowpass", "highpass")
    _fields = ("lowpass",)

    def __init__(self, lowpass: np.ndarray):
        h = np.asarray(lowpass, dtype=float)
        if h.ndim != 1:
            raise ComputationError("lowpass must be a 1-d array")
        if abs(h.sum() - np.sqrt(2.0)) > SUM_TOL:
            raise ComputationError(f"sum(h) = {float(h.sum())!r} != sqrt(2)")
        m = len(h)
        for shift in range(0, m, 2):
            target = 1.0 if shift == 0 else 0.0
            val = float(np.dot(h[: m - shift], h[shift:]))
            if abs(val - target) > ORTHO_TOL:
                raise ComputationError(
                    f"translate orthonormality fails at shift {shift}: {val!r}"
                )
        _set(self, "lowpass", h)
        _set(self, "highpass", mirror_highpass(h))


def mirror_highpass(h: np.ndarray) -> np.ndarray:
    m = len(h)
    return np.array([(-1) ** k * h[m - 1 - k] for k in range(m)])


def haar_filter() -> FilterPair:
    s = np.sqrt(2.0)
    return FilterPair([1.0 / s, 1.0 / s])


def half_band_coefficients(n: int) -> list[int]:
    """Coefficients of P_n(y) = sum_{k<n} C(n-1+k, k) y^k, ascending in y.

    |m0(w)|^2 = cos^{2n}(w/2) P_n(sin^2(w/2)) for the Daubechies filter with
    n vanishing moments.
    """
    return [math.comb(n - 1 + k, k) for k in range(n)]


def daubechies_filter(n_moments: int) -> FilterPair:
    """Extremal-phase Daubechies lowpass with `n_moments` vanishing moments: the
    doubles nearest the 60-digit spectral factorization of the half-band P_N."""
    if type(n_moments) is not int or not 1 <= n_moments <= MAX_DAUBECHIES:
        raise ConfigError(
            f"daubechies moments must be in 1..{MAX_DAUBECHIES}, got {n_moments!r}"
        )
    if n_moments == 1:
        return haar_filter()
    return FilterPair(_DAUBECHIES_LOWPASS[n_moments])


_DAUBECHIES_LOWPASS = {
    2: (0.48296291314453416, 0.8365163037378079, 0.2241438680420134, -0.12940952255126037),
    3: (0.33267055295008263, 0.8068915093110925, 0.45987750211849154, -0.13501102001025458,
        -0.08544127388202666, 0.03522629188570953),
    4: (0.2303778133088965, 0.7148465705529157, 0.6308807679298589, -0.027983769416859854,
        -0.18703481171909309, 0.030841381835560764, 0.0328830116668852,
        -0.010597401785069032),
    5: (0.16010239797419293, 0.6038292697971896, 0.7243085284377729, 0.13842814590132074,
        -0.24229488706638203, -0.032244869584638375, 0.07757149384004572,
        -0.006241490212798274, -0.012580751999081999, 0.0033357252854737712),
    6: (0.11154074335010947, 0.49462389039845306, 0.7511339080210954, 0.31525035170919763,
        -0.22626469396543983, -0.12976686756726194, 0.09750160558732304,
        0.027522865530305727, -0.03158203931748603, 0.0005538422011614961,
        0.004777257510945511, -0.0010773010853084796),
    7: (0.07785205408500918, 0.3965393194819173, 0.7291320908462351, 0.4697822874051931,
        -0.14390600392856498, -0.22403618499387498, 0.07130921926683026,
        0.08061260915108308, -0.03802993693501441, -0.01657454163066688,
        0.01255099855609984, 0.0004295779729213665, -0.0018016407040474908,
        0.00035371379997452024),
    8: (0.05441584224310401, 0.31287159091429995, 0.6756307362972898, 0.5853546836542067,
        -0.015829105256349306, -0.2840155429615469, 0.0004724845739132828,
        0.12874742662047847, -0.017369301001807547, -0.044088253930794755,
        0.013981027917398282, 0.008746094047405777, -0.004870352993451574,
        -0.00039174037337694705, 0.0006754494064505693, -0.00011747678412476953),
    9: (0.038077947363878345, 0.24383467461259034, 0.6048231236901112, 0.6572880780513005,
        0.13319738582500756, -0.2932737832791749, -0.09684078322297646, 0.14854074933810638,
        0.03072568147933338, -0.06763282906132997, 0.00025094711483145197,
        0.022361662123679096, -0.004723204757751397, -0.00428150368246343,
        0.0018476468830562265, 0.00023038576352319597, -0.0002519631889427101,
        3.93473203162716e-05),
    10: (0.026670057900555554, 0.1881768000776915, 0.5272011889317256, 0.6884590394536035,
        0.2811723436605775, -0.24984642432731538, -0.19594627437737705, 0.12736934033579325,
        0.09305736460357235, -0.07139414716639708, -0.029457536821875813, 0.033212674059341,
        0.0036065535669561697, -0.010733175483330575, 0.001395351747052901,
        0.001992405295185056, -0.0006858566949597116, -0.00011646685512928545,
        9.358867032006959e-05, -1.3264202894521244e-05),
}
