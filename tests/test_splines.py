import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import DyadicGrid, make_family, sample, splines
from waverate.convergence import TestFunction, builtin_suite
from waverate.expansion import project
from waverate.grids import DecayHint
from waverate.splines import (
    MAX_ORDER,
    ROUNDOFF_FLOOR_EPS,
    SplineApproximation,
    SplineError,
    best_l2_spline,
    cardinal_bspline,
    check_study,
    gram_matrix,
    make_space,
    perturbation_optimality,
    residual_orthogonality,
    spline_convergence_study,
)


def tabulate(func, lo, hi, level=12):
    return sample(func, DyadicGrid(lo, hi, level), DecayHint("none"))


def recursive_bspline(k, x):
    """M_k by its defining recursion, 2^k - 1 calls: the oracle for the table."""
    x = np.asarray(x, dtype=float)
    if k == 1:
        return ((x > 0) & (x < 1)).astype(float) + 0.5 * ((x == 0.0) | (x == 1.0))
    prev, shifted = recursive_bspline(k - 1, x), recursive_bspline(k - 1, x - 1.0)
    return (x * prev + (k - x) * shifted) / (k - 1)


def full_sum(approx, x):
    """sum_i c_i B_i(x) over every basis function, in increasing i."""
    out = np.zeros_like(x)
    for i, c in enumerate(approx.coefficients):
        if c != 0.0:
            out += c * approx.space.basis(i, x)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def partition_defect(space):
    """max |sum_i B_i(x) - 1| at 1023 evenly spaced points inside the window
    (truncated ghosts included)."""
    x = np.linspace(space.window[0], space.window[1], 1025)[1:-1]
    ones = SplineApproximation(space, np.ones(space.basis_count))
    return float(np.max(np.abs(ones(x) - 1.0)))


def lattice(left, right, level):
    """(level, start, count) of the grid points of [left, right] at level."""
    grid = DyadicGrid(left, right, level)
    return level, round(math.ldexp(left, level)), grid.count


def lattice_points(level, start, count):
    return np.ldexp(np.arange(start, start + count, dtype=float), -level)


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

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bottom_up_matches_recursion_bitwise(self, k):
        rng = np.random.default_rng(k)
        knots = np.arange(-2.0, k + 3.0)
        x = np.concatenate(
            [
                rng.uniform(-2.0, k + 2.0, 2000),
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                np.arange(-16, 8 * k + 17) / 8.0,
            ]
        )
        assert same_bits(cardinal_bspline(k, x), recursive_bspline(k, x))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partition_of_unity(self, k):
        assert partition_defect(make_space(k, 0.25, (-1.0, 1.0))) < 1e-10


class TestGaussLegendreTable:
    """The stored Gauss-Legendre rules are numpy's leggauss, bit for bit."""

    def test_keys_cover_every_order(self):
        assert sorted(splines._GAUSS_LEGENDRE) == list(range(1, MAX_ORDER + 1))

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    def test_table_is_leggauss_bit_for_bit(self, k):
        nodes, weights = np.polynomial.legendre.leggauss(k)
        stored_nodes, stored_weights = map(np.array, splines._GAUSS_LEGENDRE[k])
        assert stored_nodes.tobytes() == nodes.tobytes()
        assert stored_weights.tobytes() == weights.tobytes()


class TestMakeSpace:
    def test_counts_and_knots(self):
        sp = make_space(3, 0.5, (0.0, 2.0))
        assert sp.basis_count == 4 + 2  # cells + (k - 1)
        assert sp.knot(0) == pytest.approx(-1.0)  # ghost knots extend left
        assert sp.knot(2) == pytest.approx(0.0)

    @pytest.mark.parametrize("order", [0, MAX_ORDER + 1])
    def test_rejects_bad_order(self, order):
        with pytest.raises(SplineError):
            make_space(order, 0.5, (0.0, 1.0))

    def test_rejects_bad_mesh(self):
        with pytest.raises(SplineError):
            make_space(2, -0.5, (0.0, 1.0))
        with pytest.raises(SplineError):
            make_space(2, 0.3, (0.0, 1.0))  # width not a multiple of mesh


def dense_gauss_gram(space):
    """<B_i, B_j> for every pair, assembled cell by cell over the window with
    the k-point Gauss rule (exact for the degree 2k-2 products): the oracle
    for the banded Gram, truncated ends included."""
    k, h, (left, right), n = space.order, space.mesh, space.window, space.basis_count
    nodes, weights = np.polynomial.legendre.leggauss(k)
    G = np.zeros((n, n))
    for m in range(int(round((right - left) / h))):
        x = left + (m + 0.5 * (nodes + 1.0)) * h
        vals = np.array([space.basis(i, x) for i in range(n)])
        G += 0.5 * h * (vals * weights) @ vals.T
    return G


# the 1.5-wide space is narrower than 2k - 2 cells from k = 5 on, so its two
# truncated end blocks overlap
ORACLE_SPACES = pytest.mark.parametrize(
    "h,window", [(0.1, (-0.7, 0.8)), (0.5, (0.0, 1.5))], ids=["mesh0.1", "mesh0.5"]
)


class TestGram:
    def test_order_one_diagonal(self):
        sp = make_space(1, 0.5, (-1.0, 1.0))
        assert np.allclose(gram_matrix(sp), np.full((1, sp.basis_count), 0.5), atol=1e-14)

    def test_order_two_interior_row(self):
        sp = make_space(2, 0.5, (-1.0, 1.0))
        i = sp.basis_count // 2
        # banded column i holds G[i-1, i] above G[i, i]
        assert np.allclose(gram_matrix(sp)[:, i], 0.5 * np.array([1, 4]) / 6.0)

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    @ORACLE_SPACES
    def test_banded_matches_dense_oracle(self, k, h, window):
        sp = make_space(k, h, window)
        ab, G = gram_matrix(sp), dense_gauss_gram(sp)
        assert ab.shape == (k, sp.basis_count)
        for d in range(k):
            for off in (d, -d):  # both triangles: the banded form is symmetric
                gap = np.abs(ab[k - 1 - d, d:] - np.diagonal(G, off))
                assert np.max(gap, initial=0.0) < 1e-15
        assert not np.any(np.triu(G, k)) and not np.any(ab[: k - 1, 0])

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    @pytest.mark.parametrize("h", [0.5, 0.1])
    def test_positive_definite(self, k, h):
        # the factor raises on a pivot that is not positive
        u = splines._cholesky(gram_matrix(make_space(k, h, (-1.0, 1.0))))
        assert all(row[-1] > 0.0 for row in u)


class TestFactor:
    """The banded Cholesky factor and solve against dense numpy on the
    Gauss-assembled Gram."""

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    @ORACLE_SPACES
    def test_solve_matches_dense(self, k, h, window):
        sp = make_space(k, h, window)
        G = dense_gauss_gram(sp)
        b = np.random.default_rng(k).standard_normal(sp.basis_count)
        want = np.linalg.solve(G, b)
        got = splines._solve(splines._cholesky(gram_matrix(sp)), b)
        gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert gap <= 1e3 * np.finfo(float).eps * np.linalg.cond(G)

    def test_indefinite_gram_is_refused(self, monkeypatch):
        sp = make_space(3, 0.25, (-1.0, 1.0))
        real = splines.gram_matrix

        def negated(space):
            ab = real(space)
            ab[-1, space.basis_count // 2] *= -1.0  # one diagonal entry
            return ab

        monkeypatch.setattr(splines, "gram_matrix", negated)
        with pytest.raises(SplineError, match="not positive definite"):
            best_l2_spline(tabulate(np.sin, -1.0, 1.0), sp)


class TestLocalEvaluation:
    SPACES = [(0.25, (-1.0, 1.0)), (0.1, (-0.7, 1.3)), (0.5, (0.0, 0.5))]

    @pytest.mark.filterwarnings("error")  # no overflowing cast of far points to cells
    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("h, window", SPACES)
    def test_matches_full_sum_bitwise(self, k, h, window):
        sp = make_space(k, h, window)  # the last space has one cell: basis_count == k
        rng = np.random.default_rng(sp.basis_count)
        coef = rng.standard_normal(sp.basis_count)
        coef[::3] = 0.0
        lo, hi = window
        knots = lo + h * np.arange(-k - 2, sp.basis_count + 3)
        x = np.concatenate(
            [
                knots,
                [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)],
                rng.uniform(lo - 1.0, hi + 1.0, 500),  # inside and outside
                [lo - 1e6, hi + 1e300],
            ]
        )
        approx = SplineApproximation(sp, coef)
        assert same_bits(approx(x), full_sum(approx, x))

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("h", [0.5, 2.0**-6])
    def test_basis_calls_independent_of_basis_count(self, k, h, monkeypatch):
        calls = []
        real = splines.cardinal_bspline

        def counting(order, x):
            calls.append(order)
            return real(order, x)

        monkeypatch.setattr(splines, "cardinal_bspline", counting)
        sp = make_space(k, h, (-2.0, 2.0))
        approx = SplineApproximation(sp, np.ones(sp.basis_count))
        approx(np.linspace(-2.5, 2.5, 301))
        assert 1 <= len(calls) <= k + 1

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_points(self, k, bad):
        sp = make_space(k, 0.25, (-1.0, 1.0))
        approx = SplineApproximation(sp, np.ones(sp.basis_count))
        with pytest.raises(SplineError, match="finite"):
            approx(np.array([0.0, bad]))


class TestLatticeRead:
    """on_lattice is bitwise __call__ and the full per-basis sum."""

    WINDOW = (-1.0, 1.0)

    @staticmethod
    def lattices(h):
        lo, hi = TestLatticeRead.WINDOW
        return {
            "window": lattice(lo, hi, 8),
            "mid-cell": lattice(lo + 1.5 * h, hi - 0.5 * h, 8),
            "past-ends": lattice(lo - 2.0, hi + 2.0, 8),
            # criterion 11's level, across the left end of the window
            "level-13": lattice(lo - 0.125, lo + 0.25, 13),
            "one-point": (8, round(math.ldexp(0.3, 8)), 1),
        }

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    @pytest.mark.parametrize("e", range(2, 7))
    def test_matches_call_and_full_sum_bitwise(self, k, e):
        sp = make_space(k, 2.0**-e, self.WINDOW)
        rng = np.random.default_rng(100 * k + e)
        coef = rng.standard_normal(sp.basis_count)
        coef[1::3] = 0.0  # zeros inside, nonzero end coefficients
        approx = SplineApproximation(sp, coef)
        for name, lat in self.lattices(sp.mesh).items():
            x = lattice_points(*lat)
            want = approx(x)
            assert same_bits(approx.on_lattice(*lat), want), name
            assert same_bits(full_sum(approx, x), want), name

    def test_zero_coefficients_read_zero(self):
        sp = make_space(3, 0.25, self.WINDOW)
        approx = SplineApproximation(sp, np.zeros(sp.basis_count))
        got = approx.on_lattice(*lattice(-2.0, 2.0, 6))
        assert same_bits(got, np.zeros(4 * 64 + 1))

    @pytest.mark.parametrize(
        "window,level",
        [((-1.0, 1.0), 1), ((-1.0, 1.0), -3), ((0.125, 1.125), 2)],
        ids=["coarser", "negative-level", "window-off-lattice"],
    )
    def test_rejects_lattice_that_does_not_split_the_mesh(self, window, level):
        sp = make_space(2, 0.25, window)
        approx = SplineApproximation(sp, np.ones(sp.basis_count))
        with pytest.raises(SplineError, match="whole cells"):
            approx.on_lattice(level, 0, 5)

    @pytest.mark.parametrize("k", [1, 4, MAX_ORDER])
    def test_one_piece_table_per_read(self, k, monkeypatch):
        calls = []
        real = splines.cardinal_bspline

        def counting(order, x):
            calls.append(np.shape(x))
            return real(order, x)

        monkeypatch.setattr(splines, "cardinal_bspline", counting)
        sp = make_space(k, 2.0**-6, self.WINDOW)
        SplineApproximation(sp, np.ones(sp.basis_count)).on_lattice(*lattice(-2.0, 2.0, 12))
        assert calls == [(k + 1, 64)]


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


class TestSplineCorollary:
    @pytest.mark.parametrize("j", [3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_best_spline_equals_battle_lemarie_projection(self, suite, k, j):
        # order-k splines on the mesh 2^-j are V_j of battle_lemarie:k, so the
        # best L^2 spline and P_j are the same orthogonal projection; on
        # [-3, 3] the truncated boundary basis of the window [-4, 4] costs
        # nothing at the size of the gaussian there
        fam = make_family("battle_lemarie", k)
        tf = suite["gaussian"]
        f = tf.tabulate(12)
        xs = DyadicGrid(-3.0, 3.0, 12)
        pj = project(f, fam, j, xs)
        approx = best_l2_spline(f, make_space(k, 2.0**-j, tf.window))
        assert np.max(np.abs(approx(xs.points()) - pj.values)) <= 1e-7


class TestConvergenceStudies:
    MESHES = [2.0**-m for m in range(2, 7)]

    def test_order_two_sine_second_order(self, suite):
        rep = spline_convergence_study(suite["sine"], 2, self.MESHES)[0]
        assert rep.family == "spline:k=2"
        assert 1.8 <= rep.slope <= 2.2
        assert rep.r_squared > 0.99
        ratios = [a / b for a, b in zip(rep.sup_errors, rep.sup_errors[1:])]
        assert all(3.4 <= r <= 4.6 for r in ratios)

    def test_order_two_fits_every_mesh(self, suite):
        rep = spline_convergence_study(suite["sine"], 2, self.MESHES)[0]
        assert rep.fitted_meshes == tuple(self.MESHES)
        assert rep.slope == pytest.approx(1.9997461482093464, abs=1e-12)

    def test_roundoff_errors_are_not_fitted(self, suite):
        rep = spline_convergence_study(suite["sine"], 6, self.MESHES)[0]
        floor = ROUNDOFF_FLOOR_EPS * np.finfo(float).eps
        fitted = [h for h, e in zip(self.MESHES, rep.sup_errors) if e > floor]
        assert rep.fitted_meshes == tuple(fitted) == tuple(self.MESHES[:3])
        assert abs(rep.slope - 6.0) <= 0.1

    def test_fewer_than_two_fitted_meshes_raise(self):
        # linear splines reproduce a line: every error is roundoff
        line = TestFunction("line", lambda x: 0.5 * np.asarray(x) + 1.0, (0.0, 2.0), (), 1.0)
        with pytest.raises(SplineError, match="roundoff floor"):
            spline_convergence_study(line, 2, [0.25, 0.125, 0.0625])

    def test_order_one_gaussian_first_order(self, suite):
        rep = spline_convergence_study(suite["gaussian"], 1, self.MESHES)[0]
        assert 0.85 <= rep.slope <= 1.1

    def test_step_trace_converges_off_knot(self, suite):
        # x = 0.3 never becomes a knot, so the jump at 0 stays one cell away
        tf = suite["step"]
        approx = best_l2_spline(tf.tabulate(12), make_space(1, 2.0**-8, tf.window))
        assert abs(approx(0.3)[0] - 1.0) < 1e-2

    def test_rejects_bad_meshes(self, suite):
        for bad in ([0.25], [0.25, 0.3], [0.25, 0.2], [0.25, 0.125, 0.1]):
            with pytest.raises(SplineError):
                spline_convergence_study(suite["gaussian"], 1, bad)

    def test_rejects_window_swallowed_by_shrink(self, suite):
        # 8 * 0.25 at each end of the 3.25-wide window leaves no point to assert on
        with pytest.raises(SplineError, match="shrinks the window"):
            spline_convergence_study(suite["sine"], 8, [0.25, 0.125, 0.0625])


class TestCheckStudy:
    WINDOW = (0.0, 3.25)
    MESHES = [2.0**-m for m in range(2, 7)]

    def test_accepts_readme_study(self):
        assert check_study(self.WINDOW, 2, self.MESHES, 12) == self.MESHES

    @pytest.mark.parametrize("order", [0, -1, MAX_ORDER + 1])
    def test_rejects_order_outside_range(self, order):
        with pytest.raises(SplineError, match=f"1..{MAX_ORDER}"):
            check_study(self.WINDOW, order, self.MESHES, 12)

