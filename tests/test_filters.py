import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate.filters import (
    _DAUBECHIES_LOWPASS,
    MAX_DAUBECHIES,
    FilterError,
    FilterPair,
    daubechies_filter,
    from_lowpass,
    half_band_coefficients,
    haar_filter,
    mirror_highpass,
)

# published extremal-phase DB2 lowpass: (1 +- sqrt(3)) pattern over 4 sqrt(2)
S3 = np.sqrt(3.0)
DB2_REFERENCE = np.array([1 + S3, 3 + S3, 3 - S3, 1 - S3]) / (4 * np.sqrt(2.0))


def _poly_mul(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def factored_lowpass(n: int) -> np.ndarray:
    """Extremal-phase Daubechies lowpass by spectral factorization at 60 digits.

    Each root y0 of the half-band P_n gives z^2 - (2 - 4 y0) z + 1 = 0; the
    root with |z| < 1 goes into q(z); h = sqrt(2) times the coefficients of
    m0(z) = ((1+z)/2)^n q(z) / q(1).
    """
    with mp.workdps(60):
        p_coeffs = [mp.mpf(c) for c in half_band_coefficients(n)]
        roots = mp.polyroots(list(reversed(p_coeffs)), maxsteps=200, extraprec=120)
        q = [mp.mpf(1)]
        for y0 in roots:
            b = 2 - 4 * y0
            disc = mp.sqrt(b * b - 4)
            z1, z2 = (b + disc) / 2, (b - disc) / 2
            q = _poly_mul(q, [-(z1 if abs(z1) < 1 else z2), mp.mpf(1)])
        for _ in range(n):
            q = _poly_mul(q, [mp.mpf(0.5), mp.mpf(0.5)])
        total = sum(q)
        h = np.array([float(mp.re(mp.sqrt(2) * c / total)) for c in q])
    # extremal phase: energy concentrated at the front
    half = len(h) // 2
    return h if np.sum(h[:half] ** 2) >= np.sum(h[half:] ** 2) else h[::-1]


class TestHaarFilter:
    def test_coefficients(self):
        f = haar_filter()
        assert np.allclose(f.lowpass, [1 / np.sqrt(2)] * 2, atol=1e-15)
        assert np.allclose(f.highpass, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


class TestDaubechies:
    def test_db1_is_haar(self):
        assert np.allclose(daubechies_filter(1).lowpass, haar_filter().lowpass)

    def test_db2_matches_published_table(self):
        f = daubechies_filter(2)
        assert np.max(np.abs(f.lowpass - DB2_REFERENCE)) < 1e-12

    def test_db3_leading_coefficient(self):
        # standard extremal-phase DB3 value
        assert daubechies_filter(3).lowpass[0] == pytest.approx(
            0.3326705529509569, abs=1e-10
        )

    @pytest.mark.parametrize("n", range(1, MAX_DAUBECHIES + 1))
    def test_orthonormality_all_orders(self, n):
        f = daubechies_filter(n)
        h = f.lowpass
        assert len(h) == 2 * n
        assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        for shift in range(2, 2 * n, 2):
            assert np.dot(h[:-shift], h[shift:]) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_discrete_vanishing_moments(self, n):
        # sum_k k^m g_k = 0 for m < n
        g = daubechies_filter(n).highpass
        k = np.arange(len(g), dtype=float)
        for m in range(n):
            assert np.dot(k**m, g) == pytest.approx(0.0, abs=1e-8)

    def test_extremal_phase_front_energy(self):
        h = daubechies_filter(4).lowpass
        half = len(h) // 2
        assert np.sum(h[:half] ** 2) > np.sum(h[half:] ** 2)

    @pytest.mark.parametrize("n", [0, 11, -3])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(FilterError):
            daubechies_filter(n)


class TestDaubechiesTable:
    """The stored lowpass doubles are those of the 60-digit factorization."""

    def test_keys_cover_every_order_above_haar(self):
        assert sorted(_DAUBECHIES_LOWPASS) == list(range(2, MAX_DAUBECHIES + 1))

    @pytest.mark.parametrize("n", range(2, MAX_DAUBECHIES + 1))
    def test_table_is_the_factorization_bit_for_bit(self, n):
        oracle = factored_lowpass(n)
        f = daubechies_filter(n)
        assert f.lowpass.tobytes() == oracle.tobytes()
        assert f.highpass.tobytes() == mirror_highpass(oracle).tobytes()


class TestFilterPairValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(FilterError):
            from_lowpass([0.5, 0.5])

    def test_rejects_broken_orthonormality(self):
        with pytest.raises(FilterError):
            from_lowpass([np.sqrt(2.0) / 3] * 3)

    def test_rejects_non_mirror_highpass(self):
        s = 1 / np.sqrt(2.0)
        with pytest.raises(FilterError):
            FilterPair(np.array([s, s]), np.array([s, s]))

    def test_mirror_highpass_shape(self):
        h = daubechies_filter(3).lowpass
        g = mirror_highpass(h)
        assert np.allclose(g, [(-1) ** k * h[len(h) - 1 - k] for k in range(len(h))])

    @given(st.integers(1, MAX_DAUBECHIES))
    @settings(max_examples=10, deadline=None)
    def test_highpass_orthogonal_to_lowpass(self, n):
        f = daubechies_filter(n)
        m = len(f.lowpass)
        for shift in range(0, m, 2):
            assert np.dot(f.lowpass[: m - shift], f.highpass[shift:]) == pytest.approx(
                0.0, abs=1e-12
            )
