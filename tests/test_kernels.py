import dataclasses
import math

import numpy as np
import pytest

from waverate import DyadicGrid, make_family, sample
from waverate.grids import NO_DECAY, DecayHint, SampledFunction
from waverate.kernels import (
    U_CAP,
    KernelError,
    KernelEvaluation,
    RadialBound,
    export_bound_report,
    fit_decay,
    kernel_matrix,
    profile_grid,
    radial_profile,
    scale_profiles,
    verify_convolution_bound,
)
from waverate.expansion import atom_rows
from waverate.families import _decay_rate

#: every family the code accepts, shannon aside
ACCEPTED_FAMILIES = (
    [("haar", 0)]
    + [("daubechies", n) for n in range(1, 11)]
    + [("battle_lemarie", k) for k in range(1, 5)]
)


def apply_kernel(ke: KernelEvaluation, f: SampledFunction) -> SampledFunction:
    """(P_j f)(x) = integral P_j(x, y) f(y) dy by the trapezoid rule over ys."""
    ys = ke.ys
    fy = f.on_lattice(ys.level, round(np.ldexp(ys.left, ys.level)), ys.count)
    w = np.full(ys.count, ys.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return SampledFunction(ke.xs, ke.values @ (fy * w), NO_DECAY)


def outer_difference_profile(ke) -> RadialBound:
    """The radial profile from every pair's distance, binned by rounding."""
    j = ke.j
    x = ke.xs.points()
    y = ke.ys.points()
    u = np.ldexp(np.abs(x[:, None] - y[None, :]), j).ravel()
    v = np.abs(ke.values).ravel() / 2.0**j
    keep = u <= U_CAP
    u, v = u[keep], v[keep]
    du = np.ldexp(max(ke.xs.spacing, ke.ys.spacing), j)
    bins = np.round(u / du).astype(int)
    n = int(bins.max()) + 1
    peak = np.zeros(n)
    np.maximum.at(peak, bins, v)
    maj = np.maximum.accumulate(peak[::-1])[::-1]
    radii = np.arange(n) * du
    mass = 2.0 * float(np.trapezoid(maj, dx=du))
    return RadialBound(radii, maj, float(maj[0]), mass)


@pytest.fixture(scope="module")
def haar():
    return make_family("haar")


@pytest.fixture(scope="module")
def db2():
    return make_family("daubechies", 2)


@pytest.fixture(scope="module")
def haar_report(haar):
    return verify_convolution_bound(haar, range(7))


class TestKernelMatrix:
    def test_haar_point_values(self, haar):
        # interior dyadic points 0.375 and 0.625: one cell at j=0, two at j=1
        g = DyadicGrid(0.25, 0.75, 3)
        a, b = g.index_of(0.375), g.index_of(0.625)
        assert kernel_matrix(haar, 0, g, g).values[a, b] == pytest.approx(1.0)
        assert kernel_matrix(haar, 1, g, g).values[a, b] == pytest.approx(0.0)
        assert kernel_matrix(haar, 2, g, g).values[a, a] == pytest.approx(4.0)

    def test_matches_closed_form_haar_kernel(self, haar):
        g = DyadicGrid(0.0, 1.0, 5)
        ke = kernel_matrix(haar, 2, g, g)
        x = g.points()
        # P_j(x,y) = 2^j when x and y share a dyadic cell, else 0;
        # compare away from cell boundaries where sampling is midpoint-valued
        interior = (x * 4) % 1 != 0
        xi = np.where(interior)[0]
        same = np.floor(4 * x[xi, None]) == np.floor(4 * x[None, xi])
        want = np.where(same, 4.0, 0.0)
        assert np.max(np.abs(ke.values[np.ix_(xi, xi)] - want)) < 1e-12

    def test_symmetry(self, db2):
        g = DyadicGrid(0.0, 2.0, 6)
        ke = kernel_matrix(db2, 1, g, g)
        assert np.max(np.abs(ke.values - ke.values.T)) < 1e-10

    def test_row_integrals_reproduce_constants(self, db2):
        xs = DyadicGrid(0.0, 1.0, 5)
        ys = DyadicGrid(-4.0, 5.0, 8)
        ke = kernel_matrix(db2, 2, xs, ys)
        one = sample(lambda y: np.ones_like(y), ys, DecayHint("none"))
        rows = apply_kernel(ke, one)
        assert np.max(np.abs(rows.values - 1.0)) < 1e-4

    def test_scale_covariance(self, haar, db2):
        # P_{j+1}(x, y) = 2 P_j(2x, 2y) exactly on nested dyadic grids
        for fam in (haar, db2):
            fine = DyadicGrid(0.0, 1.0, 6)
            coarse = DyadicGrid(0.0, 2.0, 5)  # points are exactly 2x
            upper = kernel_matrix(fam, 3, fine, fine)
            lower = kernel_matrix(fam, 2, coarse, coarse)
            assert np.max(np.abs(upper.values - 2.0 * lower.values)) < 1e-8

    def test_dual_representation(self, haar, db2):
        # P_2 = P_0 + Q_0 + Q_1 with Q_j(x,y) = sum_k psi_jk(x) psi_jk(y)
        rng = np.random.default_rng(7)
        for fam in (haar, db2):
            g = DyadicGrid(0.0, 2.0, 6)
            direct = kernel_matrix(fam, 2, g, g).values
            split = kernel_matrix(fam, 0, g, g).values.copy()
            for j in (0, 1):
                s0, s1 = fam.psi.grid.left, fam.psi.grid.right
                ks = range(math.floor(g.left * 2**j - s1), math.ceil(g.right * 2**j - s0) + 1)
                rows = atom_rows(fam, "psi", j, ks, g.points(), g.level)
                split += rows.T @ rows
            idx = rng.integers(0, g.count, size=(100, 2))
            offdiag = idx[idx[:, 0] != idx[:, 1]]
            diffs = [abs(direct[i, m] - split[i, m]) for i, m in offdiag]
            assert max(diffs) < 1e-5

    def test_delta_convergence(self, haar, db2):
        ys = DyadicGrid(-2.0, 2.0, 10)
        f = sample(lambda y: np.exp(-(y**2)), ys, DecayHint("none"))
        xs = DyadicGrid(-1.0, 1.0, 6)
        for fam in (haar, db2):
            errs = []
            for j in range(2, 9):
                pf = apply_kernel(kernel_matrix(fam, j, xs, ys), f)
                errs.append(float(np.max(np.abs(pf.values - f(xs.points())))))
            assert all(b <= a + 1e-8 for a, b in zip(errs, errs[1:]))


class TestRadialProfile:
    @pytest.mark.parametrize("spec", ["haar", "daubechies:2", "shannon"])
    @pytest.mark.parametrize("j", [1, 4])
    def test_matches_outer_difference_oracle(self, spec, j):
        name, _, param = spec.partition(":")
        fam = make_family(name, int(param or 0))
        g = profile_grid(fam, j)
        ke = kernel_matrix(fam, j, g, g)
        got, want = radial_profile(ke), outer_difference_profile(ke)
        assert np.array_equal(got.radii, want.radii)
        assert np.array_equal(got.majorant, want.majorant)
        assert (got.constant, got.l1_mass) == (want.constant, want.l1_mass)

    def test_offset_grids_match_oracle(self, db2):
        # two grids on one lattice, shifted against each other
        xs, ys = DyadicGrid(0.0, 2.0, 6), DyadicGrid(-0.75, 1.5, 6)
        ke = kernel_matrix(db2, 2, xs, ys)
        got, want = radial_profile(ke), outer_difference_profile(ke)
        assert np.array_equal(got.majorant, want.majorant)
        assert got.l1_mass == want.l1_mass

    @pytest.mark.parametrize("nx", [2, 63, 64, 65, 199])
    @pytest.mark.parametrize("ny", [2, 3, 133])
    def test_fold_blocks_match_oracle_on_random_values(self, db2, nx, ny):
        # fewer rows than columns, as many, and more
        xs = DyadicGrid(0.0, (nx - 1) / 8, 3)
        ys = DyadicGrid(-0.5, -0.5 + (ny - 1) / 8, 3)
        values = np.random.default_rng(nx * ny).standard_normal((nx, ny))
        ke = KernelEvaluation(db2, 0, xs, ys, values)
        got, want = radial_profile(ke), outer_difference_profile(ke)
        assert np.array_equal(got.majorant, want.majorant)

    @pytest.mark.parametrize("name,param", ACCEPTED_FAMILIES + [("shannon", 0)])
    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_one_period_of_rows_matches_square(self, name, param, j):
        # P_j(x + 2^-j, y + 2^-j) = P_j(x, y) = P_j(y, x): the rows of one
        # period meet every distance and value of the square profile grid
        fam = make_family(name, param)
        g = profile_grid(fam, j)
        got = scale_profiles(fam, [j])[0]
        want = outer_difference_profile(kernel_matrix(fam, j, g, g))
        assert np.array_equal(got.radii, want.radii)
        assert np.max(np.abs(got.majorant - want.majorant)) <= 1e-15 * want.constant

    def test_needs_one_lattice(self, db2):
        ke = kernel_matrix(db2, 2, DyadicGrid(0.0, 1.0, 5), DyadicGrid(0.0, 1.0, 6))
        with pytest.raises(KernelError, match="one lattice"):
            radial_profile(ke)

    def test_profile_grid_level(self, haar):
        assert profile_grid(haar, 12).level == 18
        assert profile_grid(make_family("shannon"), 12).level == 16

    def test_haar_box_profile(self, haar):
        profile = scale_profiles(haar, [3])[0]
        r, m = profile.radii, profile.majorant
        assert profile.constant == pytest.approx(1.0)
        # 1 on [0,1) and 0 beyond, up to one-bin quantization at the edge
        assert np.max(np.abs(m[r < 1.0 - 2.0 / 64] - 1.0)) < 1e-12
        assert np.all(m[r > 1.0] == 0.0)

    def test_majorant_nonincreasing(self, db2):
        for profile in scale_profiles(db2, [0, 2, 4]):
            assert np.all(np.diff(profile.majorant) <= 0)

    def test_db2_support_bound(self, db2):
        profile = scale_profiles(db2, [2])[0]
        beyond = profile.majorant[profile.radii >= 5.0]
        assert np.max(beyond, initial=0.0) < 1e-10


class TestConvolutionBound:
    def test_haar_collapse_and_mass(self, haar_report):
        assert haar_report["collapse_defect"] < 0.02
        assert haar_report["l1_mass"] == pytest.approx(2.0, abs=0.05)
        assert haar_report["passes"]

    def test_db2_mass_finite(self, db2):
        rep = verify_convolution_bound(db2, range(7))
        assert rep["passes"]
        env = rep["envelope"]
        assert np.max(env.majorant[env.radii >= 5.0], initial=0.0) < 1e-10

    def test_shannon_expected_fail(self):
        sh = make_family("shannon")
        rep = verify_convolution_bound(sh, range(5))
        assert not rep["passes"]
        assert rep["tail_estimate"] > 0.1 * rep["l1_mass"]

    def test_needs_three_scales(self, haar):
        with pytest.raises(KernelError):
            verify_convolution_bound(haar, [0, 1])


class TestMainTheorem:
    """P_j is bounded by a radial decreasing L1 kernel, for every family."""

    @pytest.mark.parametrize("name,param", ACCEPTED_FAMILIES)
    def test_radial_majorant(self, name, param):
        fam = make_family(name, param)
        rep = verify_convolution_bound(fam, range(0, 7))
        assert rep["passes"]
        if fam.filter is not None:
            # exact tables: the rescaled profiles collapse to roundoff
            assert rep["collapse_defect"] <= 1e-14

    @pytest.mark.xfail(strict=True, reason="the sinc kernel has no L1 radial majorant")
    def test_shannon_has_none(self):
        assert verify_convolution_bound(make_family("shannon"), range(0, 7))["passes"]


class TestFitDecay:
    @pytest.fixture(scope="class")
    def bl2_fit(self):
        bl2 = make_family("battle_lemarie", 2)
        return fit_decay(verify_convolution_bound(bl2, range(7))["envelope"])

    def test_battle_lemarie_exponential(self, bl2_fit):
        assert bl2_fit.rate > 0
        assert bl2_fit.r2 > 0.98
        assert not bl2_fit.flagged

    def test_battle_lemarie_decay_rate(self, bl2_fit):
        # phi decays like e^{-ln(2 + sqrt 3) |x|}, and the kernel bound is
        # C e^{-a u / 2}: a = 2 ln(2 + sqrt 3) = 2.6339
        assert abs(bl2_fit.rate - 2.0 * math.log(2.0 + math.sqrt(3.0))) <= 0.01

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_battle_lemarie_decay_rate_every_order(self, k):
        # the kernel bound C e^{-a u / 2} with a = 2 (-ln |z_1|)
        env = verify_convolution_bound(make_family("battle_lemarie", k), range(7))["envelope"]
        assert abs(fit_decay(env).rate - 2.0 * _decay_rate(k)) <= 0.01

    @staticmethod
    def radii_up_to(rb: RadialBound, u: float) -> RadialBound:
        keep = rb.radii <= u
        return dataclasses.replace(rb, radii=rb.radii[keep], majorant=rb.majorant[keep])

    def test_haar_degenerate_flat_profile(self, haar_report):
        # constant profile on the support: slope 0, flagged as mismatch
        fit = fit_decay(self.radii_up_to(haar_report["envelope"], 0.9))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.flagged

    def test_too_few_radii(self, haar_report):
        with pytest.raises(KernelError):
            fit_decay(self.radii_up_to(haar_report["envelope"], 0.1))


class TestExports:
    def test_bound_report_json(self, haar_report, tmp_path):
        fit = fit_decay(haar_report["envelope"])
        export_bound_report(haar_report, fit, str(tmp_path / "r.json"))
        import json

        doc = json.loads(open(tmp_path / "r.json").read())
        assert doc["passes"] and "fit" in doc
