import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import DyadicGrid, make_family, sample
from waverate.convergence import MarkedPoint, TestFunction, builtin_suite
from waverate.expansion import project
from waverate.grids import DecayHint
from waverate.splines import (
    SplineError,
    best_l2_spline,
    cardinal_bspline,
    cardinal_gram_row,
    condition_estimate,
    gram_matrix,
    make_space,
    partition_defect,
    perturbation_optimality,
    residual_orthogonality,
    spline_convergence_study,
    spline_pointwise_trace,
)


def tabulate(func, lo, hi, level=12):
    return sample(func, DyadicGrid(lo, hi, level), DecayHint("none"))


@pytest.fixture(scope="module")
def suite():
    return {tf.name: tf for tf in builtin_suite()}


@pytest.fixture(scope="module")
def sine_fit():
    f = tabulate(np.sin, 0.0, 2.0)
    return f, best_l2_spline(f, make_space(3, 0.25, (0.0, 2.0)))


class TestBasis:
    @given(k=st.integers(1, 5), x=st.floats(-2.0, 7.0))
    @settings(max_examples=100, deadline=None)
    def test_bspline_bounded_and_supported(self, k, x):
        v = float(cardinal_bspline(k, x))
        assert 0.0 <= v <= 1.0
        if x < 0.0 or x > k:
            assert v == 0.0

    def test_bspline_hat(self):
        # M_2 is the unit hat on [0, 2]
        x = np.linspace(0.0, 2.0, 41)
        assert np.max(np.abs(cardinal_bspline(2, x) - (1.0 - np.abs(x - 1.0)))) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partition_of_unity(self, k):
        assert partition_defect(make_space(k, 0.25, (-1.0, 1.0))) < 1e-10


class TestMakeSpace:
    def test_counts_and_knots(self):
        sp = make_space(3, 0.5, (0.0, 2.0))
        assert sp.basis_count == 4 + 2  # cells + (k - 1)
        assert sp.knot(0) == pytest.approx(-1.0)  # ghost knots extend left
        assert sp.knot(2) == pytest.approx(0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(SplineError):
            make_space(0, 0.5, (0.0, 1.0))

    def test_rejects_bad_mesh(self):
        with pytest.raises(SplineError):
            make_space(2, -0.5, (0.0, 1.0))
        with pytest.raises(SplineError):
            make_space(2, 0.3, (0.0, 1.0))  # width not a multiple of mesh


class TestGram:
    def test_order_one_diagonal(self):
        sp = make_space(1, 0.5, (-1.0, 1.0))
        assert np.allclose(gram_matrix(sp), 0.5 * np.eye(sp.basis_count), atol=1e-14)

    def test_order_two_interior_row(self):
        sp = make_space(2, 0.5, (-1.0, 1.0))
        G = gram_matrix(sp)
        i = sp.basis_count // 2
        assert np.allclose(G[i, i - 1 : i + 2], 0.5 * np.array([1, 4, 1]) / 6.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_closed_form_matches_gauss(self, k):
        # untruncated interior entries computed by per-cell Gauss quadrature
        # must reproduce the tabulated cardinal rows
        from waverate.splines import _gauss_entry

        h = 0.25
        sp = make_space(k, h, (-2.0, 2.0))
        i = sp.basis_count // 2
        for d, want in enumerate(cardinal_gram_row(k)):
            assert _gauss_entry(sp, i, i + d) == pytest.approx(h * want, abs=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [0.5, 0.1])
    def test_positive_definite_and_well_conditioned(self, k, h):
        cond = condition_estimate(make_space(k, h, (-1.0, 1.0)))
        assert math.isfinite(cond)
        assert cond < 1e6

    def test_symmetry(self):
        G = gram_matrix(make_space(4, 0.5, (-1.0, 1.0)))
        assert np.max(np.abs(G - G.T)) == 0.0


class TestBestApproximation:
    def test_reproduces_basis_function(self):
        # f = B_j itself must come back as the unit coefficient vector
        sp = make_space(3, 0.25, (-1.0, 1.0))
        j = sp.basis_count // 2
        f = tabulate(lambda x: sp.basis(j, x), -1.0, 1.0)
        approx = best_l2_spline(f, sp)
        want = np.zeros(sp.basis_count)
        want[j] = 1.0
        assert np.max(np.abs(approx.coefficients - want)) < 1e-10

    def test_order_two_reproduces_linear(self):
        f = tabulate(lambda x: x, -1.0, 1.0)
        approx = best_l2_spline(f, make_space(2, 0.25, (-1.0, 1.0)))
        x = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(approx(x) - x)) < 1e-8

    def test_order_one_cell_averages(self):
        f = tabulate(lambda x: x, 0.0, 1.0)
        approx = best_l2_spline(f, make_space(1, 0.5, (0.0, 1.0)))
        assert approx.coefficients == pytest.approx([0.25, 0.75], abs=1e-10)

    def test_residual_orthogonality(self, sine_fit):
        f, approx = sine_fit
        norm = float(np.sqrt(np.trapezoid(f.values**2, dx=f.grid.spacing)))
        assert residual_orthogonality(f, approx) < 1e-8 * norm

    def test_perturbation_optimality(self, sine_fit):
        f, approx = sine_fit
        assert perturbation_optimality(f, approx)

    def test_rejects_coarse_tabulation(self):
        f = tabulate(np.sin, 0.0, 2.0, level=4)  # 16 samples per unit
        with pytest.raises(SplineError):
            best_l2_spline(f, make_space(2, 0.25, (0.0, 2.0)))

    def test_rejects_window_not_covered(self):
        f = tabulate(np.sin, 0.0, 1.0)
        with pytest.raises(SplineError):
            best_l2_spline(f, make_space(2, 0.25, (0.0, 2.0)))


class TestHaarConsistency:
    def test_order_one_equals_haar_projection(self, suite):
        # mesh h = 2^-j makes the k=1 spline space the span of the level-j
        # Haar scaling functions; the best L^2 approximations must coincide
        haar = make_family("haar")
        tf = suite["gaussian"]
        f = tf.tabulate(13)
        xs = DyadicGrid(-2.0, 2.0, 13)
        for j in (2, 3, 4):
            pj = project(f, haar, j, xs)
            approx = best_l2_spline(f, make_space(1, 2.0**-j, tf.window))
            assert np.max(np.abs(approx(xs.points()) - pj.values)) < 1e-8


@pytest.fixture(scope="module")
def sine_tf():
    return TestFunction(
        "sine",
        np.sin,
        (0.0, 3.25),
        (MarkedPoint(1.0, "continuity", math.sin(1.0)),),
        math.inf,
    )


class TestConvergenceStudies:
    MESHES = [2.0**-m for m in range(2, 7)]

    def test_order_two_sine_second_order(self, sine_tf):
        rep = spline_convergence_study(sine_tf, 2, self.MESHES)
        assert rep.family == "spline:k=2"
        assert 1.8 <= rep.slope <= 2.2
        assert rep.r_squared > 0.99
        ratios = [a / b for a, b in zip(rep.sup_errors, rep.sup_errors[1:])]
        assert all(3.4 <= r <= 4.6 for r in ratios)

    def test_order_one_gaussian_first_order(self, suite):
        rep = spline_convergence_study(suite["gaussian"], 1, self.MESHES)
        assert 0.85 <= rep.slope <= 1.1

    def test_step_trace_converges_off_knot(self, suite):
        # x = 0.3 never becomes a knot, so the jump at 0 stays one cell away
        tr = spline_pointwise_trace(
            suite["step"], 1, [2.0**-m for m in range(2, 9)], 0.3
        )
        assert abs(tr[-1][1] - 1.0) < 1e-2

    def test_rejects_bad_meshes(self, suite):
        for bad in ([0.25], [0.25, 0.3], [0.25, 0.2], [0.25, 0.125, 0.1]):
            with pytest.raises(SplineError):
                spline_convergence_study(suite["gaussian"], 1, bad)
