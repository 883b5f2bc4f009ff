import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import families
from waverate import (
    DyadicGrid,
    FilterPair,
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
from waverate.convergence import lp_error_trace, test_function
from waverate.families import (
    FAMILY_LEVEL,
    _BL_TRUNCATION,
    _two_scale,
    autocorrelation_lags,
    battle_lemarie_series,
    euler_frobenius,
    gram_orthonormality_defect,
    partition_of_unity_defect,
    refine_scaling,
    refined_tables,
    translate_orthonormality_defect,
)
from waverate.grids import ComputationError, ConfigError, product_quad
from waverate.splines import (SplineApproximation, cardinal_autocorrelation, cardinal_bspline,
                              make_space)

from conftest import ENGINE_ORDERS, ENGINE_SPECS, EVERY_SPEC, SERIES_ORDERS


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
    table = SampledFunction(DyadicGrid(-1.0, 2.0, 0), np.array([0.0, 0.5, 0.5, 0.0]))
    return refine_scaling(haar_filter(), table, level)


class TestSubdivisionScaling:
    def test_haar_box_from_integer_table(self):
        # subdivided from its integer values, the box and its wavelet are the
        # order-1 spline tables, midpoint values at the jumps included
        phi = haar_box(6)
        psi = derive_wavelet(haar_filter(), phi)
        haar = make_family("haar")
        for want, gen in ((phi, "phi"), (psi, "psi")):
            table = haar.tabulate(gen, 6)
            assert want.grid == table.grid
            assert want.values.tobytes() == table.values.tobytes()

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
            ("haar", None),
            ("daubechies", 1),
            ("daubechies", 2),
            ("daubechies", 3),
            ("battle_lemarie", 1),
            ("battle_lemarie", 2),
            ("battle_lemarie", 3),
            ("shannon", None),
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
        with pytest.raises(ConfigError):
            make_family("meyer")

    def test_bad_battle_lemarie_order(self):
        with pytest.raises(ConfigError):
            make_family("battle_lemarie", 9)

    @pytest.mark.parametrize(
        "name, param",
        [("haar", 5), ("haar", 0), ("haar", 1), ("shannon", 3), ("shannon", 0),
         ("daubechies", 2.0), ("daubechies", True), ("daubechies", None), ("daubechies", "3"),
         ("battle_lemarie", 2.5), ("battle_lemarie", True), ("battle_lemarie", None),
         ("battle_lemarie", 0)],
    )
    def test_each_source_accepts_only_its_own_parameter(self, name, param):
        # haar and shannon take none, the others an int in range: anything
        # else is bad input, not a family built under a label it is not
        with pytest.raises(ConfigError):
            make_family(name, param)

    @pytest.mark.parametrize("spec", [("haar", None), ("daubechies", 1), ("battle_lemarie", 1),
                                      ("daubechies", 3), ("battle_lemarie", 2),
                                      ("shannon", None)])
    def test_renamed_family_behaves_the_same(self, spec):
        # the source decides every algorithm, not the name: the family under
        # another name and no parameter checks, refines and converges the same
        fam = make_family(*spec)
        renamed = fam._replace(name="renamed", param=None)
        assert renamed.label == "renamed"
        assert check_family_invariants(renamed) == check_family_invariants(fam)
        assert renamed.quad_refine == fam.quad_refine
        # the sup errors of a rate study, read without its fit, which
        # shannon's errors (rising from j = 3 to 9) fail
        gaussian = test_function("gaussian")
        errors = [lp_error_trace(gaussian, f, math.inf, range(3, 10), (-1.0, 1.0))
                  for f in (fam, renamed)]
        assert errors[0].tobytes() == errors[1].tobytes()

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
        assert make_family("daubechies", 2).decay.kind == "compact"
        assert make_family("battle_lemarie", 2).decay.kind == "exponential"
        assert make_family("shannon").decay.kind == "algebraic"


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
        phi = make_family("haar").phi if n == 1 else subdivision_scaling(filt)
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


#: levels above FAMILY_LEVEL of the Daubechies tables whose lag sums are the
#: oracle for `autocorrelation_lags`: their quadrature error decays like
#: h^(2 alpha), alpha phi's Hoelder exponent, and is 2.8e-7 on db2 there
LAG_ORACLE_REFINE = 3
#: that error bound per Daubechies order (db2 2.76e-7, db3 7.1e-11, db4 1.7e-13)
LAG_ORACLE_ERROR = {2: 3e-7, 3: 1e-10, 4: 1e-12}


def bordered_solve_oracle(filt):
    """phi(0..M-1) by a bordered solve of T - I, T_{nk} = sqrt(2) h_{2n-k},
    with its last row replaced by ones, built for phi alone."""
    h = filt.lowpass
    taps = 2 * np.arange(len(h))[:, None] - np.arange(len(h))
    system = np.where((taps >= 0) & (taps < len(h)), np.sqrt(2.0) * h[taps % len(h)], 0.0)
    system -= np.eye(len(h))
    system[-1] = 1.0
    return np.linalg.solve(system, np.eye(len(h))[-1])


class TestLawton:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_lags_match_finer_table_quadrature(self, n):
        # a_k from the filter against the lag sums of phi LAG_ORACLE_REFINE
        # levels finer, within that table's quadrature error
        filt = daubechies_filter(n)
        lags = autocorrelation_lags(filt)
        phi = refined_tables(make_family("daubechies", n), "phi", FAMILY_LEVEL + LAG_ORACLE_REFINE)
        v, step = phi.values, 2**phi.grid.level
        width = len(filt.lowpass) - 1
        assert lags.size == 2 * width + 1
        for k in range(width + 1):
            s = k * step
            quad = product_quad(v[s:], v[: v.size - s], phi.dx) if s < v.size else 0.0
            assert abs(lags[width + k] - quad) <= LAG_ORACLE_ERROR.get(n, 1e-12)
            assert lags[width + k] == pytest.approx(lags[width - k], abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_designed_filters_are_orthonormal_to_roundoff(self, n):
        lags = autocorrelation_lags(daubechies_filter(n))
        assert np.max(np.abs(lags - np.eye(1, lags.size, lags.size // 2)[0])) <= 1e-14
        if n > 1:
            defects = check_family_invariants(make_family("daubechies", n))
            assert defects["translate_orthonormality"] <= 1e-14

    @pytest.mark.parametrize("h", [(1, 0, 0, 1), (1, 0, 0, 0, 0, 1)])
    def test_rejects_a_filter_whose_fixed_point_is_not_unique(self, h):
        # the filter passes FilterPair's sum and orthonormality checks, but
        # phi is a box of width 3 or 5 whose translates are not orthonormal:
        # delta and its true lags are both fixed points
        filt = FilterPair(np.array(h) / np.sqrt(2.0))
        with pytest.raises(ComputationError, match="eigenvalue 1 .* not simple"):
            autocorrelation_lags(filt)
        fam = make_family("daubechies", 2)._replace(
            invariants=functools.partial(families._lawton_defect, filt))
        with pytest.raises(ComputationError, match="not simple"):
            fam.phi

    @pytest.mark.parametrize("n", range(2, 11))
    def test_integer_values_are_the_bordered_solve(self, n):
        # the fixed point shared with the orthonormality check gives phi's
        # integer values bitwise as a solve built for phi alone
        filt = daubechies_filter(n)
        got = families._fixed_point(np.sqrt(2.0) * filt.lowpass)
        assert got.tobytes() == bordered_solve_oracle(filt).tobytes()


class TestInvariantDefects:
    @pytest.mark.parametrize(
        "name,param,extra", [("haar", None, 0), ("daubechies", 2, 3), ("daubechies", 3, 0),
                             ("battle_lemarie", 3, 0), ("shannon", None, 0)]
    )
    def test_shifted_reads_equal_interpolation(self, name, param, extra):
        fam = make_family(name, param)
        phi = refined_tables(fam, "phi", fam.phi.grid.level + extra)
        assert partition_of_unity_defect(phi) == interpolated_partition_defect(phi)
        got = translate_orthonormality_defect(phi)
        assert got == interpolated_orthonormality_defect(phi)

    @pytest.mark.parametrize("name,param", ENGINE_SPECS)
    def test_partition_fold_is_the_unit_loop(self, name, param):
        # every table has integer ends, so the one fold adds the units
        # [k, k + 1) in the loop's order, in increasing k
        fam = make_family(name, param)
        for level in (10, 11, 13):
            phi = refined_tables(fam, "phi", level)
            step, v = 2**level, phi.values
            assert phi.grid.start % step == 0
            total = np.zeros(step)
            for i in range(0, v.size, step):
                total[: v[i : i + step].size] += v[i : i + step]
            assert partition_of_unity_defect(phi) == float(np.max(np.abs(total - 1.0)))

    @pytest.mark.parametrize("name,param", ENGINE_SPECS)
    def test_overlap_lags_match_shifted_copies(self, name, param):
        # on the held tables, and on the finer Daubechies tables whose lag
        # sums are the oracle of `autocorrelation_lags`
        fam = make_family(name, param)
        phi = fam.phi
        if name == "daubechies" and param != 1:
            phi = refined_tables(fam, "phi", phi.grid.level + LAG_ORACLE_REFINE)
        got = translate_orthonormality_defect(phi)
        assert abs(got - shifted_copy_orthonormality_defect(phi)) <= 1e-15

    @pytest.mark.parametrize("name,param", ENGINE_SPECS)
    def test_gram_lags_match_the_shifted_slices(self, name, param):
        # the one Gram product reads the loop's lag sums on every family's
        # held phi, up to the order of summation
        phi = make_family(name, param).phi
        got = gram_orthonormality_defect(phi)
        assert abs(got - translate_orthonormality_defect(phi)) <= 1e-15

    @pytest.mark.parametrize("name", ["haar", "shannon"])
    def test_the_box_and_sinc_decide_by_their_gram_product(self, name):
        fam = make_family(name)
        assert fam.invariants is gram_orthonormality_defect
        want = translate_orthonormality_defect(fam.phi)
        assert abs(check_family_invariants(fam)["translate_orthonormality"] - want) <= 1e-15

    def test_the_box_gram_defect_is_the_loops_bit_for_bit(self):
        # 0/1 samples on integer ends: every lag sum is exact either way
        phi = make_family("haar").phi
        assert gram_orthonormality_defect(phi) == translate_orthonormality_defect(phi) == 0.0


def family_state(fam):
    """vars(fam), each table as its grid and bytes and each dict copied, also
    inside the held (phi, psi, defects) tuple."""

    def frozen(value):
        if isinstance(value, SampledFunction):
            return (value.grid, value.values.tobytes())
        if isinstance(value, tuple):
            return tuple(map(frozen, value))
        return dict(value) if isinstance(value, dict) else value

    return {key: frozen(value) for key, value in vars(fam).items()}


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

    @pytest.mark.parametrize("spec", [("haar", None), ("daubechies", 3), ("battle_lemarie", 2),
                                      ("shannon", None)])
    def test_reads_leave_the_family_unchanged(self, spec):
        fam = make_family(*spec)
        check_family_invariants(fam)  # the held tables are part of the state
        before = family_state(fam)
        for level in range(FAMILY_LEVEL, FAMILY_LEVEL + 4):
            both_tables(fam, level)
        assert family_state(fam) == before

    @pytest.mark.parametrize("spec", EVERY_SPEC)
    def test_invariant_check_reads_no_finer_table(self, spec):
        # every invariant is read on the FAMILY_LEVEL tables or decided by
        # the source: no check tabulates a finer lattice
        fam = make_family(*spec)
        reads = []

        def counted(gen, level):
            reads.append((gen, level))
            return fam.tabulate(gen, level)

        check_family_invariants(fam._replace(tabulate=counted))
        assert reads == [("phi", FAMILY_LEVEL), ("psi", FAMILY_LEVEL)]

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
                                      ("shannon", None)])
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


    @pytest.mark.parametrize("level", [10, 12])
    def test_shannon_phi_is_numpy_sinc(self, level):
        # sampled a chunk at a time, byte for byte np.sinc on the whole grid
        table = make_family("shannon").tabulate("phi", level)
        assert table.values.tobytes() == np.sinc(table.x()).tobytes()

    @pytest.mark.parametrize("k", ENGINE_ORDERS)
    @pytest.mark.parametrize("level", [10, 13])
    def test_series_table_blocks_are_the_whole_sum(self, k, level):
        # accumulated a block of cells at a time, each series table is the sum
        # of its whole-table terms in increasing coefficient index (t falling),
        # byte for byte
        fam = make_family("battle_lemarie", k)
        for gen, coef, scale in zip(("phi", "psi"), battle_lemarie_series(k), (1, 2)):
            table = fam.tabulate(gen, level)
            step = 2**level
            samples = cardinal_bspline(k, np.arange(k)[:, None] + np.arange(0, step, scale) / step)
            ends = scale * np.array([table.grid.left, table.grid.right], dtype=int)
            rows = np.arange(ends[0], ends[1] + 1) + k // 2 + coef.size // 2
            want = sum(coef[rows - t][:, None] * samples[t] for t in reversed(range(k)))
            assert table.values.tobytes() == want.ravel()[: table.grid.count].tobytes()


#: the families whose tables are splines: the box (order 1) and Battle-Lemarie
SPLINE_SPECS = [spec for spec in EVERY_SPEC if spec[0] in ("haar", "battle_lemarie")]


def spline_oracle(fam, gen):
    """fam's generator gen as a SplineApproximation built here: the box's exact
    coefficients, or the Battle-Lemarie series' on its support, evaluated by
    the per-point `__call__`."""
    order = fam.vanishing_moments
    mesh, scale = (1.0, 1) if gen == "phi" else (0.5, 2)
    space = make_space(order, mesh, fam.support)
    if order == 1:
        coef = [0, 1, 0] if gen == "phi" else [0, 0, 1, -1, 0, 0]
    else:
        series = battle_lemarie_series(order)[gen == "psi"]
        # space basis i is M_k(scale x - n + k//2) for this n
        n = np.arange(space.basis_count) + scale * fam.support[0] + order // 2 - order + 1
        coef = series[series.size // 2 + n.astype(int)]
    return SplineApproximation(space, np.array(coef, dtype=float))


#: above order 4 the per-point oracle on every node of a level-13 table takes
#: 1.5 to 7.5 s, so the sweep reads every SPARSE_SWEEP-th node and the last;
#: the stride is odd and below every such table's cell count (109 to 182), so
#: the nodes read meet every phase of a cell
SPARSE_SWEEP = 101


class TestSplineTables:
    @pytest.mark.parametrize("spec", SPLINE_SPECS)
    @pytest.mark.parametrize("extra", [0, 3])
    def test_tables_are_the_spline_read_pointwise(self, spec, extra):
        # each table is bitwise the spline's per-point oracle at its nodes:
        # every node up to order 4, every SPARSE_SWEEP-th and the last above
        fam = make_family(*spec)
        stride = 1 if fam.vanishing_moments <= 4 else SPARSE_SWEEP
        for gen in ("phi", "psi"):
            table = fam.tabulate(gen, FAMILY_LEVEL + extra)
            assert table.grid == DyadicGrid(*fam.support, FAMILY_LEVEL + extra)
            last = table.grid.count - 1
            nodes = np.r_[0:last:stride, last]
            want = spline_oracle(fam, gen)(table.x()[nodes])
            assert table.values[nodes].tobytes() == want.tobytes()


class TestDaubechiesSupport:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_tables_end_at_the_support(self, n):
        # phi and psi live on [0, 2N - 1] and vanish at its ends, so a base
        # padded with a zero a level-FAMILY_LEVEL cell past each end
        # subdivides to the same values on the support and to zeros in its pad
        fam = make_family("daubechies", n)
        assert fam.support == (0.0, 2.0 * n - 1)
        pad = 2.0**-FAMILY_LEVEL
        padded = SampledFunction(DyadicGrid(-pad, 2 * n - 1 + pad, FAMILY_LEVEL),
                                 np.concatenate(([0.0], fam.phi.values, [0.0])))
        for extra in (0, 3):
            phi = refine_scaling(fam.filter, padded, extra)
            cells = 2**extra
            for gen, want in (("phi", phi), ("psi", derive_wavelet(fam.filter, phi))):
                table = fam.tabulate(gen, FAMILY_LEVEL + extra)
                assert table.grid == DyadicGrid(*fam.support, FAMILY_LEVEL + extra)
                assert table.values.tobytes() == want.values[cells:-cells].tobytes()
                assert not want.values[:cells].any() and not want.values[-cells:].any()
                assert table.values[0] == table.values[-1] == 0.0


class TestTabulatorLevels:
    @pytest.mark.parametrize("spec", EVERY_SPEC)
    def test_every_level_is_the_level_asked_for(self, spec):
        # below FAMILY_LEVEL a table is the held one read on the coarser
        # lattice, or ConfigError: a negative level, and a spline psi at level
        # 0, whose mesh of 1/2 has no whole cells there, where its half-integer
        # samples would be labelled integers.  A Daubechies psi at level 0 is
        # derived from phi on the integers
        fam = make_family(*spec)
        spline = spec[0] in ("haar", "battle_lemarie") or spec == ("daubechies", 1)
        for gen in ("phi", "psi"):
            held = getattr(fam, gen)
            for level in range(-1, FAMILY_LEVEL + 1):
                refusal = ("level" if level < 0
                           else "whole cells" if (level, gen) == (0, "psi") and spline
                           else None)
                if refusal:
                    with pytest.raises(ConfigError, match=refusal):
                        fam.tabulate(gen, level)
                    continue
                table = fam.tabulate(gen, level)
                assert table.grid == DyadicGrid(*fam.support, level), (gen, level)
                want = held.on_lattice(level, table.grid.start, table.grid.count)
                assert table.values.tobytes() == want.tobytes(), (gen, level)


def counting(fam):
    """fam with a tabulator that records each (gen, level) asked of it."""
    reads = []

    def counted(gen, level):
        reads.append((gen, level))
        return fam.tabulate(gen, level)

    return fam._replace(tabulate=counted), reads


def doubled_phi(fam):
    """fam with phi doubled at every level: its integral is 2."""

    def tabulate(gen, level):
        table = fam.tabulate(gen, level)
        if gen == "psi":
            return table
        return SampledFunction(table.grid, 2.0 * table.values)

    return fam._replace(tabulate=tabulate)


ALL_SPECS = [("haar", None), ("daubechies", 1), ("daubechies", 4), ("battle_lemarie", 1),
             ("battle_lemarie", 3), ("shannon", None)]


class TestTablesOnFirstRead:
    def test_make_family_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        for name in ("subdivision_scaling", "battle_lemarie_series", "SplineApproximation",
                     "_shannon_table", "check_family_invariants"):
            monkeypatch.setattr(families, name, refuse)
        for spec in ALL_SPECS:
            make_family(*spec)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_first_read_builds_and_checks_once(self, spec):
        fam, reads = counting(make_family(*spec))
        defects = check_family_invariants(fam)
        held = [read for read in reads if read[1] == FAMILY_LEVEL]
        assert held == [("phi", FAMILY_LEVEL), ("psi", FAMILY_LEVEL)]
        built = list(reads)
        assert check_family_invariants(fam) == defects
        assert fam.phi.grid.level == fam.psi.grid.level == FAMILY_LEVEL
        assert reads == built
        assert defects == check_family_invariants(make_family(*spec))

    @pytest.mark.parametrize("spec", [("haar", None), ("daubechies", 2), ("shannon", None)])
    @pytest.mark.parametrize("gen", ["phi", "psi"])
    def test_broken_table_raises_on_first_read(self, spec, gen):
        fam = doubled_phi(make_family(*spec))
        for _ in range(2):  # nothing is held: each read checks again
            if gen == "psi":
                fam.psi  # each generator is checked on its own read: psi is sound
            with pytest.raises(ComputationError, match="phi integral != 1"):
                fam.phi
        with pytest.raises(ComputationError, match="phi integral != 1"):
            check_family_invariants(fam)

    @pytest.mark.parametrize("spec", [("haar", None), ("daubechies", 3)])
    @pytest.mark.parametrize("gen", ["phi", "psi"])
    def test_compact_requires_zero_endpoints(self, spec, gen):
        # a compact family's tables vanish at both ends of its support: a
        # table that does not is rejected on its first read
        made = make_family(*spec)

        def tabulate(g, level):
            table = made.tabulate(g, level)
            if g != gen:
                return table
            values = table.values.copy()
            values[-1] = 1.0
            return SampledFunction(table.grid, values)

        fam = made._replace(tabulate=tabulate)
        with pytest.raises(ComputationError, match="does not vanish at the ends"):
            getattr(fam, gen)

    @pytest.mark.parametrize("spec", EVERY_SPEC)
    def test_support_is_every_table_end(self, spec):
        # reading the support or the decay builds no table; the support is
        # the ends of every phi and psi table, held or refined
        fam, reads = counting(make_family(*spec))
        support, _ = fam.support, fam.decay
        assert reads == []
        for level in (FAMILY_LEVEL, FAMILY_LEVEL + 1):
            for gen in ("phi", "psi"):
                grid = refined_tables(fam, gen, level).grid
                assert (grid.left, grid.right) == support

    @pytest.mark.parametrize("spec", ALL_SPECS + [("daubechies", 3), ("battle_lemarie", 2)])
    def test_phi_read_builds_no_psi(self, spec):
        fam, reads = counting(make_family(*spec))
        fam.phi
        assert reads and all(gen == "phi" for gen, _ in reads)

    def test_threads_racing_on_first_read_get_serial_tables(self):
        # no lock: threads that race on one family's first read each build
        # the serial tables
        serial = make_family("daubechies", 3)
        fam = make_family("daubechies", 3)
        gens = ["phi", "psi"] * 3
        start = threading.Barrier(len(gens))

        def ask(gen):
            start.wait(timeout=30)
            return getattr(fam, gen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(gens)) as pool:
                got = list(pool.map(ask, gens, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for gen, table in zip(gens, got):
            assert table.values.tobytes() == getattr(serial, gen).values.tobytes()


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


def lag_sums(f, g, row):
    """sum_u f_u g_{u - m row} for every m at which f and g overlap, in
    increasing m: the diagonal sums of one Gram product of their rows"""
    a, b = f.reshape(-1, row), g.reshape(-1, row)
    lags = np.subtract.outer(np.arange(len(a)), np.arange(len(b))) + len(b) - 1
    return np.bincount(lags.ravel(), (a @ b.T).ravel())


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

    @pytest.mark.parametrize("k", ENGINE_ORDERS)
    def test_tables_match_pointwise_series(self, k):
        # the spline tables against the full sums over all coefficients
        fam = make_family("battle_lemarie", k)
        c, d = battle_lemarie_series(k)
        n = np.arange(c.size) - c.size // 2
        rng = np.random.default_rng(k)
        for table, coef, scale in ((fam.phi, c, 1), (fam.psi, d, 2)):
            idx = rng.integers(0, table.grid.count, 200)
            x = table.x()[idx]
            want = cardinal_bspline(k, scale * x[:, None] - n + k // 2) @ coef
            assert np.max(np.abs(table.values[idx] - want)) < 1e-14

    @pytest.mark.parametrize("k", [1, *SERIES_ORDERS])
    def test_wavelet_orthogonality_on_tables(self, k):
        # psi is orthogonal to V_0 and to the next scale, and its integer
        # translates are orthonormal; level-10 quadrature on the tables.  On
        # tables with integer ends, product_quad's 2 T(h) - T(2h) is 2h times
        # the sum over the odd samples, so every shift is one Gram product:
        # psi(x - m) moves the odd samples m units, and psi(2x - m) at the odd
        # nodes reads psi's samples 2, 6, 10, ... moved m half units
        fam = make_family("battle_lemarie", k)
        phi, psi = fam.phi, fam.psi
        half, odd, h = 2**psi.grid.level // 2, psi.values[1::2], psi.dx
        assert 2 * h * (odd @ odd) == pytest.approx(product_quad(psi.values, psi.values, h),
                                                    rel=1e-14)
        self_lags = 2 * h * lag_sums(odd, odd, half)
        self_lags[self_lags.size // 2] -= 1.0
        worst = max(
            np.max(np.abs(2 * h * lag_sums(odd, phi.values[1::2], half))),
            np.max(np.abs(self_lags)),
            np.max(np.abs(2 * h * np.sqrt(2.0) * lag_sums(odd, psi.values[2::4], half // 2))),
        )
        assert worst <= 2e-5

    @pytest.mark.parametrize("k", SERIES_ORDERS)
    def test_first_read_builds_the_series_once(self, k, monkeypatch):
        # the tables and the exact invariant check read one c and d, and a
        # second family of the same order builds none
        calls = []

        def counted(order):
            calls.append(order)
            return battle_lemarie_series(order)

        monkeypatch.setattr(families, "battle_lemarie_series", counted)
        families._series.cache_clear()
        fam = make_family("battle_lemarie", k)
        fam.phi
        assert calls == [k]
        check_family_invariants(fam)
        make_family("battle_lemarie", k).psi
        assert calls == [k]

    def test_haar_aliases_check_the_haar_tables(self, monkeypatch):
        # battle_lemarie:1 serves Haar's tables, so its first read checks
        # those and builds no order-1 series
        def refuse(*args):
            raise AssertionError("a series was built")

        monkeypatch.setattr(families, "_series", refuse)
        haar, db1, bl1 = (check_family_invariants(make_family(*spec))
                          for spec in (("haar", None), ("daubechies", 1), ("battle_lemarie", 1)))
        assert haar == db1 == bl1

    @pytest.mark.parametrize("k", SERIES_ORDERS)
    def test_exact_invariants_from_coefficients(self, k):
        # the orthonormality from the coefficients is exact up to the roundoff
        # of its double convolution: eps times that convolution's largest entry
        # over absolute values (below 1e-15 for k <= 4, 1.6e-14 at k = 8); the
        # integrals and the partition of unity read on the tables carry the
        # series cut
        c, _ = battle_lemarie_series(k)
        b = cardinal_autocorrelation(k)
        scale = np.convolve(np.convolve(np.abs(c), np.abs(c[::-1])), b[:0:-1] + b).max()
        defects = check_family_invariants(make_family("battle_lemarie", k))
        roundoff = max(1e-15, np.finfo(float).eps * scale)
        assert defects.pop("translate_orthonormality") <= roundoff
        assert max(defects.values()) <= _BL_TRUNCATION

    def test_cubic_decay_rate(self):
        # the root of z^2 + 4z + 1 inside the unit circle is sqrt(3) - 2
        a = make_family("battle_lemarie", 2).decay.a
        assert abs(a - math.log(2.0 + math.sqrt(3.0))) < 1e-12

    @pytest.mark.parametrize("k", SERIES_ORDERS)
    def test_decay_rate_matches_coefficient_envelope(self, k):
        c, _ = battle_lemarie_series(k)
        n = np.arange(10, 31)
        slope = np.polyfit(n, np.log(np.abs(c[c.size // 2 + n])), 1)[0]
        assert abs(-slope - make_family("battle_lemarie", k).decay.a) < 0.05
