import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import (
    DyadicGrid,
    SampledFunction,
    check_family_invariants,
    daubechies_filter,
    derive_wavelet,
    evaluate_dilate,
    haar_filter,
    make_family,
    parse_family_spec,
    subdivision_scaling,
)
from waverate.families import (
    FAMILY_LEVEL,
    _INVARIANT_CHECK_REFINE,
    FamilyError,
    _haar_table,
    _two_scale,
    battle_lemarie_series,
    euler_frobenius,
    partition_of_unity_defect,
    refine_scaling,
    refined_tables,
    translate_orthonormality_defect,
)
from waverate.grids import COMPACT, product_quad
from waverate.splines import cardinal_bspline


def integer_values_oracle(filt):
    """phi at integer points: eigenvector of T_{ik} = sqrt(2) h_{2i-k}.

    The two-scale relation restricted to integers is an eigenproblem at
    eigenvalue 1; normalization fixes sum phi(k) = 1.
    """
    h = filt.lowpass
    m = len(h)
    size = m - 1  # interior integers 1..m-2 plus the endpoints 0, m-1
    t = np.zeros((size, size))
    for i in range(size):
        for k in range(size):
            idx = 2 * i - k
            if 0 <= idx < m:
                t[i, k] = np.sqrt(2.0) * h[idx]
    w, v = np.linalg.eig(t)
    col = v[:, np.argmin(np.abs(w - 1.0))].real
    return col / col.sum()


def haar_box(level: int) -> SampledFunction:
    """The Haar box subdivided from its level-0 table on [-1, 2]: phi(0) =
    phi(1) = 1/2, the midpoint values at the jumps."""
    table = SampledFunction(DyadicGrid(-1.0, 2.0, 0), np.array([0.0, 0.5, 0.5, 0.0]), COMPACT)
    return refine_scaling(haar_filter(), table, level)


class TestSubdivisionScaling:
    def test_haar_box_from_integer_table(self):
        phi = haar_box(6)
        assert phi.grid == _haar_table("phi", 6).grid
        assert phi.values.tobytes() == _haar_table("phi", 6).values.tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_integer_values_match_transfer_matrix(self, n):
        filt = daubechies_filter(n)
        phi = subdivision_scaling(filt)
        oracle = integer_values_oracle(filt)
        got = np.array([phi(float(k)) for k in range(len(filt.lowpass) - 1)])
        assert np.max(np.abs(got - oracle)) < 1e-14

    def test_db2_closed_form(self):
        # phi(1) = (1 + sqrt 3)/2 and phi(2) = (1 - sqrt 3)/2
        phi = subdivision_scaling(daubechies_filter(2))
        assert abs(phi(1.0) - (1 + np.sqrt(3.0)) / 2) <= 1e-15
        assert abs(phi(2.0) - (1 - np.sqrt(3.0)) / 2) <= 1e-15

    def test_db2_partition_of_unity(self):
        phi = subdivision_scaling(daubechies_filter(2))
        x = np.linspace(0.25, 0.75, 9)
        total = sum(phi(x + k) for k in range(-1, 3))
        assert np.max(np.abs(total - 1.0)) < 1e-14

    @pytest.mark.parametrize("n", range(2, 11))
    def test_mass_is_one(self, n):
        # no re-normalization: the trapezoid mass is 1 by construction
        phi = subdivision_scaling(daubechies_filter(n))
        assert phi.grid.level == FAMILY_LEVEL
        assert abs(phi.integral() - 1.0) < 1e-14

    def test_subdivision_consistency(self):
        # refining then restricting to the coarse lattice reproduces the table
        filt = daubechies_filter(3)
        phi = subdivision_scaling(filt)
        fine = refine_scaling(filt, phi, 2)
        assert fine.grid.level == FAMILY_LEVEL + 2
        assert np.max(np.abs(fine.values[::4] - phi.values)) < 1e-14


class TestDeriveWavelet:
    def test_haar_wavelet_closed_form(self):
        phi = haar_box(6)
        psi = derive_wavelet(haar_filter(), phi)
        assert psi(0.25) == 1.0
        assert psi(0.75) == -1.0
        assert psi(1.25) == 0.0

    def test_db2_first_moment_vanishes(self):
        db2 = make_family("daubechies", 2)
        psi = refined_tables(db2, "psi", 13)
        x = psi.grid.points()
        assert np.trapezoid(x * psi.values, dx=psi.dx) == pytest.approx(0.0, abs=1e-6)

    def test_db2_psi_normalized(self):
        db2 = make_family("daubechies", 2)
        psi = refined_tables(db2, "psi", 14)
        l2 = np.sqrt(product_quad(psi.values, psi.values, psi.dx))
        assert l2 == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_vanishing_moment_count_is_sharp(self, n):
        fam = make_family("daubechies", n)
        x = fam.psi.grid.points()
        for m in range(n):
            mom = np.trapezoid(x**m * fam.psi.values, dx=fam.psi.dx)
            assert abs(mom) < 1e-5
        sharp = np.trapezoid(x**n * fam.psi.values, dx=fam.psi.dx)
        assert abs(sharp) > 1e-3


class TestEvaluateDilate:
    def test_matches_formula(self):
        fam = make_family("haar")
        assert evaluate_dilate(fam.phi, 2, 1, 0.3) == pytest.approx(
            2.0 * fam.phi(4 * 0.3 - 1)
        )

    def test_outside_support_is_zero(self):
        fam = make_family("haar")
        assert evaluate_dilate(fam.phi, 3, 0, 5.0) == 0.0

    @given(j=st.integers(0, 6), k=st.integers(-4, 4))
    @settings(max_examples=20, deadline=None)
    def test_l2_normalization(self, j, k):
        fam = make_family("haar")
        g = DyadicGrid(-4.0, 5.0, 12)
        x = g.points()
        # table must resolve the evaluation lattice or the jumps smear
        phi = refined_tables(fam, "phi", g.level)
        vals = evaluate_dilate(phi, j, k, x)
        # dilation is unitary on L2 as long as the support stays in-window
        if (fam.phi.grid.right + k) / 2**j <= 5.0 and (
            fam.phi.grid.left + k
        ) / 2**j >= -4.0:
            norm = product_quad(vals, vals, g.spacing)
            assert norm == pytest.approx(1.0, abs=1e-10)


class TestMakeFamily:
    @pytest.mark.parametrize(
        "name,param",
        [
            ("haar", 0),
            ("daubechies", 1),
            ("daubechies", 2),
            ("daubechies", 3),
            ("battle_lemarie", 1),
            ("battle_lemarie", 2),
            ("battle_lemarie", 3),
            ("shannon", 0),
        ],
    )
    def test_invariants_pass(self, name, param):
        fam = make_family(name, param)
        check_family_invariants(fam)  # raises on failure
        assert fam.phi.grid.level == fam.psi.grid.level == FAMILY_LEVEL
        # the power symbol is a quadrature mirror pair with m0(0) = 1
        omega = np.linspace(-7.0, 7.0, 141)
        a, b = fam.symbol(omega)
        assert np.max(np.abs(a + b - 1.0)) < 1e-14
        assert fam.symbol(np.zeros(1)) == (1.0, 0.0)

    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            make_family("meyer")

    def test_bad_battle_lemarie_order(self):
        with pytest.raises(FamilyError):
            make_family("battle_lemarie", 9)

    def test_db1_routes_to_haar_tables(self):
        db1 = make_family("daubechies", 1)
        haar = make_family("haar")
        assert np.array_equal(db1.phi.values, haar.phi.values)
        bl1 = make_family("battle_lemarie", 1)
        assert np.array_equal(bl1.phi.values, haar.phi.values)
        assert np.array_equal(bl1.psi.values, haar.psi.values)

    def test_labels_and_parse_round_trip(self):
        fam = parse_family_spec("daubechies:3")
        assert fam.label == "daubechies:3"
        assert parse_family_spec("haar").label == "haar"

    def test_vanishing_moment_metadata(self):
        assert make_family("daubechies", 3).vanishing_moments == 3
        assert make_family("battle_lemarie", 2).vanishing_moments == 2
        assert make_family("haar").vanishing_moments == 1

    def test_decay_metadata(self):
        assert make_family("daubechies", 2).phi.decay_hint.kind == "compact"
        assert make_family("battle_lemarie", 2).phi.decay_hint.kind == "exponential"
        assert make_family("shannon").phi.decay_hint.kind == "algebraic"


def interpolated_partition_defect(phi) -> float:
    """Partition-of-unity defect with every phi(x - k) interpolated."""
    step = 2**phi.grid.level
    u = np.arange(step) / step
    total = np.zeros(step)
    for k in range(int(np.floor(phi.grid.left)) - 1, int(np.ceil(phi.grid.right)) + 2):
        total += phi(u + k)
    return float(np.max(np.abs(total - 1.0)))


def interpolated_orthonormality_defect(phi) -> float:
    """Translate-orthonormality defect with every phi(x - k) interpolated.

    The product vanishes where x - k is left of the table, so each lag is
    read on the overlap x >= left + k.
    """
    step, size = 2**phi.grid.level, phi.values.size
    worst = 0.0
    for k in range(int(np.ceil(phi.grid.right - phi.grid.left)) + 1):
        s = k * step
        val = 0.0
        if s < size:
            val = product_quad(phi.values[s:], phi(phi.x()[s:] - k), phi.dx)
        worst = max(worst, abs(val - (1.0 if k == 0 else 0.0)))
    return worst


def shifted_copy_orthonormality_defect(phi) -> float:
    """Translate-orthonormality defect from a zero-padded shifted copy per
    lag, integrated over the whole table by 2 T(h) - T(2h) with np.trapezoid."""
    step, size = 2**phi.grid.level, phi.values.size
    worst = 0.0
    for k in range(int(np.ceil(phi.grid.right - phi.grid.left)) + 1):
        shifted = np.zeros(size)
        shifted[k * step :] = phi.values[: max(size - k * step, 0)]
        prod = phi.values * shifted
        val = np.trapezoid(prod, dx=phi.dx)
        if (size - 1) % 2 == 0:
            val = 2.0 * val - np.trapezoid(prod[::2], dx=2 * phi.dx)
        worst = max(worst, abs(val - (1.0 if k == 0 else 0.0)))
    return worst


def two_scale_oracle(c, vals, src, step):
    """sqrt(2) sum_k c_k vals[src - k*step] by a boolean mask per tap."""
    out = np.zeros(src.size)
    for k in range(len(c)):
        idx = src - k * step
        ok = (idx >= 0) & (idx < vals.size)
        out[ok] += c[k] * vals[idx[ok]]
    return np.sqrt(2.0) * out


class TestTwoScale:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_strided_passes_equal_fancy_index_oracle(self, n):
        filt = daubechies_filter(n)
        step = 2**FAMILY_LEVEL
        phi = _haar_table("phi", FAMILY_LEVEL) if n == 1 else subdivision_scaling(filt)
        first = int(round(phi.grid.left * step))
        integers = np.append(integer_values_oracle(filt), 0.0)  # phi(0..M-1)
        patterns = [
            # subdivision_scaling: the integer table read from the level-1 lattice
            (filt.lowpass, integers, 0, 1, 2 * integers.size - 1, 1),
            # refine_scaling: the padded table read from the next finer lattice
            (filt.lowpass, phi.values, first, 1, 2 * phi.values.size - 1, step),
            # derive_wavelet: the padded table read at 2x on its own lattice
            (filt.highpass, phi.values, first, 2, phi.values.size, step),
        ]
        # the tables vanish at both ends; random values of the same sizes
        # also check the first and last reads of each tap
        rng = np.random.default_rng(n)
        patterns += [(c, rng.standard_normal(v.size), *rest) for c, v, *rest in patterns]
        for c, vals, start, stride, count, at in patterns:
            got = _two_scale(c, vals, start, stride, count, at)
            want = two_scale_oracle(c, vals, start + stride * np.arange(count), at)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_chained_refinement_equals_direct(self, n):
        filt = daubechies_filter(n)
        phi = subdivision_scaling(filt)
        chained = refine_scaling(filt, refine_scaling(filt, phi, 3), 2)
        direct = refine_scaling(filt, phi, 5)
        assert chained.grid == direct.grid
        assert chained.values.tobytes() == direct.values.tobytes()


class TestInvariantDefects:
    @pytest.mark.parametrize(
        "name,param,extra", [("haar", 0, 0), ("daubechies", 2, 3), ("daubechies", 3, 0),
                             ("battle_lemarie", 3, 0), ("shannon", 0, 0)]
    )
    def test_shifted_reads_equal_interpolation(self, name, param, extra):
        fam = make_family(name, param)
        phi = refined_tables(fam, "phi", fam.phi.grid.level + extra)
        assert partition_of_unity_defect(phi) == interpolated_partition_defect(phi)
        got = translate_orthonormality_defect(phi)
        assert got == interpolated_orthonormality_defect(phi)

    @pytest.mark.parametrize(
        "name,param",
        [("haar", 0), *(("daubechies", n) for n in range(1, 11)),
         *(("battle_lemarie", k) for k in range(1, 5)), ("shannon", 0)],
    )
    def test_overlap_lags_match_shifted_copies(self, name, param):
        # on the tables the invariant check reads
        fam = make_family(name, param)
        phi = fam.phi
        if name == "daubechies" and param != 1:
            phi = refined_tables(fam, "phi", phi.grid.level + _INVARIANT_CHECK_REFINE)
        got = translate_orthonormality_defect(phi)
        assert abs(got - shifted_copy_orthonormality_defect(phi)) <= 1e-15


def family_state(fam):
    """vars(fam), each table as its grid and bytes and each dict copied."""
    state = {}
    for key, value in vars(fam).items():
        if isinstance(value, SampledFunction):
            value = (value.grid, value.values.tobytes())
        state[key] = dict(value) if isinstance(value, dict) else value
    return state


def both_tables(fam, level):
    return tuple(refined_tables(fam, gen, level) for gen in ("phi", "psi"))


class TestRefinedTables:
    def test_noop_at_or_below_table_level(self):
        fam = make_family("haar")
        phi, psi = both_tables(fam, fam.phi.grid.level)
        assert phi is fam.phi and psi is fam.psi

    @pytest.mark.parametrize("level", [11, 12, 13])
    def test_haar_closed_form_is_the_subdivision(self, level):
        fam = make_family("haar")
        phi, psi = both_tables(fam, level)
        want_phi = refine_scaling(fam.filter, fam.phi, level - FAMILY_LEVEL)
        want_psi = derive_wavelet(fam.filter, want_phi)
        assert phi.grid == want_phi.grid
        assert phi.values.tobytes() == want_phi.values.tobytes()
        assert psi.values.tobytes() == want_psi.values.tobytes()
        assert phi(0.25) == 1.0 and phi(0.0) == 0.5

    def test_db2_refinement_restricts_to_original(self):
        fam = make_family("daubechies", 2)
        phi, psi = both_tables(fam, fam.phi.grid.level + 3)
        assert np.max(np.abs(phi.values[::8] - fam.phi.values)) < 1e-14
        assert np.max(np.abs(psi.values[::8] - fam.psi.values)) < 1e-14

    @pytest.mark.parametrize("spec", [("haar", 0), ("daubechies", 3), ("battle_lemarie", 2),
                                      ("shannon", 0)])
    def test_reads_leave_the_family_unchanged(self, spec):
        fam = make_family(*spec)
        before = family_state(fam)
        for level in range(FAMILY_LEVEL, FAMILY_LEVEL + 4):
            both_tables(fam, level)
        assert family_state(fam) == before

    def test_invariant_check_subdivides_once(self):
        # psi of the check is derived from the one subdivided phi
        fam = make_family("daubechies", 3)
        reads = []

        def counted(gen, level):
            reads.append((gen, level))
            return fam.tabulate(gen, level)

        check_family_invariants(dataclasses.replace(fam, tabulate=counted))
        assert reads == [("phi", FAMILY_LEVEL + _INVARIANT_CHECK_REFINE)]

    def test_threads_get_serial_tables(self):
        # more threads than cores, switching often: each must get the serial
        # tables
        levels = [FAMILY_LEVEL + extra for extra in (3, 5, 4, 3, 5, 6)]
        fam = make_family("daubechies", 2)
        serial = {level: both_tables(fam, level) for level in levels}
        fam = make_family("daubechies", 2)
        start = threading.Barrier(len(levels))

        def ask(level):
            start.wait(timeout=30)
            return both_tables(fam, level)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(levels)) as pool:
                futures = [pool.submit(ask, level) for level in levels]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for level, got in zip(levels, threaded):
            for a, b in zip(got, serial[level]):
                assert a.grid == b.grid
                assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("spec", [("battle_lemarie", 2), ("battle_lemarie", 4),
                                      ("shannon", 0)])
    @pytest.mark.parametrize("extra", [1, 3])
    def test_series_and_closed_form_tables(self, spec, extra):
        # finer Battle-Lemarie and Shannon tables hold their series or closed
        # form, and the stored table's values at its own nodes
        fam = make_family(*spec)
        level = fam.phi.grid.level + extra
        phi, psi = both_tables(fam, level)
        assert phi.grid == DyadicGrid(fam.phi.grid.left, fam.phi.grid.right, level)
        stride = 2**extra
        assert phi.values[::stride].tobytes() == fam.phi.values.tobytes()
        assert psi.values[::stride].tobytes() == fam.psi.values.tobytes()
        idx = np.random.default_rng(extra).integers(0, phi.grid.count, 200)
        x = phi.x()[idx]
        if spec[0] == "battle_lemarie":
            k = spec[1]
            c, d = battle_lemarie_series(k)
            n = np.arange(c.size)[:, None] - c.size // 2 - k // 2
            want_phi = c @ cardinal_bspline(k, x - n)
            want_psi = d @ cardinal_bspline(k, 2 * x - n)
        else:
            u = x - 0.5
            want_phi = np.sinc(x)
            want_psi = np.where(u == 0.0, 1.0, 2 * np.sinc(2 * u) - np.sinc(u))
        np.testing.assert_allclose(phi.values[idx], want_phi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(psi.values[idx], want_psi, rtol=0, atol=1e-14)


class TestEulerFrobenius:
    def test_cubic_closed_form(self):
        xi = np.linspace(-7.0, 7.0, 141)
        assert np.max(np.abs(euler_frobenius(xi, 2) - (2.0 + np.cos(xi)) / 3.0)) < 1e-15

    def test_matches_sinc_periodization(self):
        # sum_m |B^(xi + 2 pi m)|^2 for the order-3 B-spline, B^(xi) = sinc^3(xi/2);
        # the tail beyond |m| = 200 is below 2e-15
        xi = np.linspace(-np.pi, np.pi, 101)
        total = sum(
            np.sinc((xi + 2.0 * np.pi * m) / (2.0 * np.pi)) ** 6 for m in range(-200, 201)
        )
        assert np.max(np.abs(euler_frobenius(xi, 3) / total - 1.0)) < 1e-12


class TestBattleLemarieSeries:
    def test_order_one_series_is_haar(self):
        # c = delta_0 and d = (-1, 1) at p = 0, 1: the box and its Haar wavelet
        # up to the sign of psi
        c, d = battle_lemarie_series(1)
        mid = c.size // 2
        assert np.max(np.abs(c - np.eye(1, c.size, mid)[0])) < 1e-15
        assert np.max(np.abs(d - np.eye(1, d.size, mid + 1)[0] + np.eye(1, d.size, mid)[0])) < 1e-15

    def test_knot_value_is_exact(self):
        # bl2 is piecewise linear on integer knots, so phi(0) is c_0, the mean
        # of ((2 + cos xi) / 3)^(-1/2) over a period
        import mpmath as mp

        c0 = mp.quad(lambda xi: ((2 + mp.cos(xi)) / 3) ** -0.5, [0, mp.pi]) / mp.pi
        assert abs(make_family("battle_lemarie", 2).phi(0.0) - float(c0)) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tables_match_pointwise_series(self, k):
        # the polyphase tables against the full sums over all coefficients
        fam = make_family("battle_lemarie", k)
        c, d = battle_lemarie_series(k)
        n = np.arange(c.size) - c.size // 2
        rng = np.random.default_rng(k)
        for table, coef, scale in ((fam.phi, c, 1), (fam.psi, d, 2)):
            idx = rng.integers(0, table.grid.count, 200)
            x = table.x()[idx]
            want = cardinal_bspline(k, scale * x[:, None] - n + k // 2) @ coef
            assert np.max(np.abs(table.values[idx] - want)) < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_wavelet_orthogonality_on_tables(self, k):
        # psi is orthogonal to V_0 and to the next scale, and its integer
        # translates are orthonormal; level-10 quadrature on the tables
        fam = make_family("battle_lemarie", k)
        phi, psi = fam.phi, fam.psi
        x, width = psi.x(), int(psi.grid.right - psi.grid.left)
        worst = 0.0
        for m in range(-width, width + 1):
            worst = max(
                worst,
                abs(product_quad(psi.values, phi(x - m), psi.dx)),
                abs(product_quad(psi.values, psi(x - m), psi.dx) - (m == 0)),
            )
        for m in range(-2 * width, 2 * width + 1):
            across = np.sqrt(2.0) * psi(2.0 * x - m)
            worst = max(worst, abs(product_quad(psi.values, across, psi.dx)))
        assert worst <= 2e-5

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_invariants_from_coefficients(self, k):
        defects = check_family_invariants(make_family("battle_lemarie", k))
        assert max(defects.values()) <= 1e-13

    def test_cubic_decay_rate(self):
        # the root of z^2 + 4z + 1 inside the unit circle is sqrt(3) - 2
        a = make_family("battle_lemarie", 2).phi.decay_hint.a
        assert abs(a - math.log(2.0 + math.sqrt(3.0))) < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_decay_rate_matches_coefficient_envelope(self, k):
        c, _ = battle_lemarie_series(k)
        n = np.arange(10, 31)
        slope = np.polyfit(n, np.log(np.abs(c[c.size // 2 + n])), 1)[0]
        assert abs(-slope - make_family("battle_lemarie", k).phi.decay_hint.a) < 0.05
