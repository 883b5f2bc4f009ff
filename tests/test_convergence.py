import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import DyadicGrid, make_family
from waverate.convergence import (
    STUDY_LEVEL,
    ConvergenceError,
    MarkedPoint,
    builtin_suite,
    export_rate_csv,
    export_rate_json,
    line_fit,
    lp_error_trace,
    midcell_step,
    order_robustness,
    oscillating_measure,
    pointwise_trace,
    sup_error_rates,
    test_function,
)
from waverate.expansion import (
    SummationSchedule,
    analyze,
    interleaved_schedule,
    level_by_level_schedule,
    partial_sum,
)
from waverate.sobolev import critical_order


@pytest.fixture(scope="module")
def suite():
    return {tf.name: tf for tf in builtin_suite()}


@pytest.fixture(scope="module")
def haar():
    return make_family("haar")


@pytest.fixture(scope="module")
def db2():
    return make_family("daubechies", 2)


class TestBuiltinSuite:
    def test_contents(self, suite):
        assert len(suite) >= 5
        for tf in suite.values():
            assert len(tf.marked_points) >= 1

    def test_oscillating_measure_geometric_law(self):
        # |E intersect [0, 2^-j]| = (1/7) 8^-j (the intervals with n > j)
        for j in range(1, 10):
            assert oscillating_measure(2.0**-j) == pytest.approx(
                8.0**-j / 7.0, rel=0.01
            )

    @given(t=st.floats(0.0, 1.0), dt=st.floats(0.0, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_measure_monotone_and_bounded(self, t, dt):
        assert 0.0 <= oscillating_measure(t) <= oscillating_measure(t + dt) <= 1.0 / 7.0

    def test_lookup_by_name(self, suite):
        for name in suite:
            assert test_function(name).name == name
        assert test_function("sine").window == (0.0, 3.25)
        with pytest.raises(ConvergenceError, match="choose from"):
            test_function("nope")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConvergenceError):
            MarkedPoint(0.0, "sideways", None)


class TestPointwiseTrace:
    def test_haar_gaussian(self, suite, haar):
        tr = pointwise_trace(suite["gaussian"], haar, 0.37, range(0, 11))
        x_eval = (math.floor(0.37 * 2**12 + 0.5) + 1) * 2.0**-12
        errs = [abs(v - math.exp(-(x_eval**2))) for _, v in tr]
        assert errs[-1] < 1e-3
        # pointwise local-average errors are only loosely monotone (the cell
        # average can cross f(x) by accident, e.g. near-zero error at j=2);
        # require decrease across any four-level window
        assert all(errs[i + 4] < errs[i] for i in range(2, len(errs) - 4))

    def test_haar_oscillating_bound(self, suite, haar):
        tr = pointwise_trace(suite["oscillating_indicator"], haar, 0.0, range(2, 11))
        for j, v in tr:
            assert abs(v) <= (8.0 / 7.0) * 4.0**-j * 1.05

    def test_haar_step_constant_one(self, suite, haar):
        tr = pointwise_trace(suite["step"], haar, 0.0, range(0, 11))
        assert np.max(np.abs(tr[:, 1] - 1.0)) < 1e-9

    def test_point_near_edge_rejected(self, suite, haar):
        with pytest.raises(ConvergenceError):
            pointwise_trace(suite["gaussian"], haar, 3.99, range(0, 5))


class TestSupErrorRates:
    def test_haar_gaussian_first_order(self, suite, haar):
        r = sup_error_rates(suite["gaussian"], haar, range(3, 10), (-1.0, 1.0))
        assert 0.85 <= r.slope <= 1.1
        assert r.quantization_bound < 1e-3

    def test_db2_gaussian_second_order(self, suite, db2):
        r = sup_error_rates(suite["gaussian"], db2, range(3, 10), (-1.0, 1.0))
        assert 1.8 <= r.slope <= 2.2

    @pytest.mark.parametrize(
        "famspec", [("daubechies", 3), ("daubechies", 4), ("daubechies", 5),
                    ("battle_lemarie", 3), ("battle_lemarie", 4)]
    )
    def test_slope_tracks_vanishing_moments(self, suite, famspec):
        # f sampled on the quadrature lattice leaves the errors no floor
        # above roundoff.  daubechies:6 reaches roundoff (4.7e-15, 2.1e-15 at
        # j = 8, 9), so its slope needs a fit window above a measured floor
        fam = make_family(*famspec)
        r = sup_error_rates(suite["gaussian"], fam, range(3, 10), (-1.0, 1.0))
        assert abs(r.slope - fam.vanishing_moments) <= 0.25
        assert r.r_squared > 0.99

    def test_haar_cusp_smoothness_capped(self, suite, haar):
        r = sup_error_rates(suite["cusp"], haar, range(3, 10), (-0.5, 0.5))
        assert 0.2 <= r.slope <= 0.4

    def test_window_touching_jump_rejected(self, suite, haar):
        with pytest.raises(ConvergenceError):
            sup_error_rates(suite["step"], haar, range(3, 8), (-1.0, 1.0))

    def test_too_few_levels_rejected(self, suite, haar):
        with pytest.raises(ConvergenceError):
            sup_error_rates(suite["gaussian"], haar, range(0, 6), (-1.0, 1.0))

    @pytest.mark.parametrize(
        "j_range,window", [(range(1, 5), (-1.0, 1.0)), (range(3, 10), (-5.0, 5.0))]
    )
    def test_rejected_before_tabulation(self, suite, haar, monkeypatch, j_range, window):
        tf = suite["gaussian"]

        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(type(tf), "tabulate", refuse)
        with pytest.raises(ConvergenceError):
            sup_error_rates(tf, haar, j_range, window)

    def test_line_fit(self):
        x = np.arange(3.0, 10.0)
        slope, intercept, r2 = line_fit(x, 1.5 - 2.0 * x)
        assert slope == pytest.approx(-2.0) and intercept == pytest.approx(1.5)
        assert r2 == pytest.approx(1.0)
        assert line_fit(x, np.ones_like(x))[2] == 0.0


class TestLpErrorTrace:
    def test_midcell_step_l1_exact(self, haar):
        for j in (2, 5, 8):
            tf = midcell_step(j)
            tr = lp_error_trace(tf, haar, 1, range(j, j + 4), (-2.0, 2.0))
            assert tr[0][1] == pytest.approx(2.0 ** -(j + 1), rel=0.05)

    def test_midcell_step_sup_never_converges(self, haar):
        tf = midcell_step(4)
        tr = lp_error_trace(tf, haar, math.inf, range(2, 9), (-2.0, 2.0))
        assert np.min(tr[:, 1]) >= 0.4

    def test_db2_gaussian_l2_order(self, suite, db2):
        tr = lp_error_trace(suite["gaussian"], db2, 2, range(3, 10), (-1.0, 1.0))
        raw_slope = np.polyfit(tr[:, 0], np.log2(tr[:, 1]), 1)[0]
        assert raw_slope <= -2.0 + 0.2

    def test_rejects_bad_p(self, suite, haar):
        with pytest.raises(ConvergenceError):
            lp_error_trace(suite["gaussian"], haar, 3, range(3, 8), (-1.0, 1.0))


class TestInvariants:
    @pytest.mark.parametrize("famspec", [("haar", 0), ("daubechies", 2), ("daubechies", 3)])
    @pytest.mark.parametrize("fname", ["gaussian", "ramp", "oscillating_indicator"])
    def test_marked_point_convergence(self, suite, famspec, fname):
        # |P_j f - reference| < 1e-2 by j = 10 at continuity/Lebesgue points
        fam = make_family(*famspec)
        tf = suite[fname]
        for mp in tf.marked_points:
            if mp.kind == "jump":
                continue
            tr = pointwise_trace(tf, fam, mp.x, range(3, 11))
            assert abs(tr[-1][1] - mp.reference) < 1e-2

    @pytest.mark.parametrize("famspec", [("haar", 0), ("daubechies", 2), ("daubechies", 3)])
    @pytest.mark.xfail(
        strict=True,
        reason="|x|^0.3 converges like 2^(-0.3 j): the error at j=10 is "
        "2^-3 / 1.3 ~ 0.096, an order above the 1e-2 target (reaching it "
        "needs j ~ 21)",
    )
    def test_cusp_marked_point_convergence(self, suite, famspec):
        fam = make_family(*famspec)
        tf = suite["cusp"]
        tr = pointwise_trace(tf, fam, 0.0, range(3, 11))
        assert abs(tr[-1][1] - 0.0) < 1e-2

    @pytest.mark.parametrize(
        "famspec", [("haar", 0), ("daubechies", 2), ("daubechies", 3), ("battle_lemarie", 2)]
    )
    def test_rate_matches_critical_order(self, suite, famspec):
        fam = make_family(*famspec)
        r = sup_error_rates(suite["gaussian"], fam, range(3, 10), (-1.0, 1.0))
        cap = min(critical_order(fam).s_star, suite["gaussian"].smoothness_class)
        assert abs(r.slope - cap) <= 0.25

    @pytest.mark.parametrize("fname", ["gaussian", "ramp", "step", "cusp", "oscillating_indicator"])
    def test_monotone_l2_errors(self, suite, haar, db2, fname):
        tf = suite[fname]
        for fam in (haar, db2):
            tr = lp_error_trace(tf, fam, 2, range(0, 9), tf.window)
            errs = tr[:, 1]
            assert all(b <= a + 1e-8 for a, b in zip(errs, errs[1:]))

    def test_midcell_step_sup_floor(self, haar):
        # jump non-convergence in sup norm, generic (mid-cell) jump position
        for j in (2, 4, 6):
            tr = lp_error_trace(midcell_step(j), haar, math.inf, range(j, j + 4), (-2.0, 2.0))
            assert np.min(tr[:, 1]) >= 0.4


@pytest.fixture(scope="module")
def coeffs(suite, haar):
    return analyze(suite["gaussian"].tabulate(), haar, 0, 6)


class TestOrderRobustness:
    def test_schedules_agree(self, coeffs):
        scheds = [level_by_level_schedule(coeffs), interleaved_schedule(coeffs, 2)]
        rep = order_robustness(coeffs, scheds, np.linspace(-1, 1, 50))
        assert rep["final_agreement"] < 1e-10
        assert rep["prefix_dispersion"][0.5] > 0.0
        assert rep["prefix_dispersion"][1.0] < 1e-10

    def test_finals_are_partial_sums_of_given_coefficients(self, coeffs):
        # the report sums the coefficients it is handed: doubling them doubles
        # every final value, and the finals match partial_sum on the lattice
        # of the snapped points
        sched = level_by_level_schedule(coeffs)
        x_points = np.linspace(-1, 1, 20)
        rep = order_robustness(coeffs, [sched], x_points)
        lattice = DyadicGrid(-1.0, 1.5, STUDY_LEVEL)
        full = partial_sum(coeffs, sched, lattice)
        want = full.values[[lattice.index_of(x) for x in rep["x_points"]]]
        assert np.max(np.abs(rep["final_values"][0] - want)) < 1e-12
        doubled = dataclasses.replace(
            coeffs,
            b={k: 2.0 * v for k, v in coeffs.b.items()},
            a={t: 2.0 * v for t, v in coeffs.a.items()},
        )
        rep2 = order_robustness(doubled, [sched], x_points)
        assert np.max(np.abs(rep2["final_values"][0] - 2.0 * want)) < 1e-12

    def test_unbounded_schedule_rejected(self, coeffs):
        base = level_by_level_schedule(coeffs)
        groups = list(base.groups)
        held = groups[1][0]
        groups[1] = groups[1][1:]
        groups.append((held,))
        bad = SummationSchedule(tuple(groups), 1)
        with pytest.raises(ConvergenceError):
            order_robustness(coeffs, [bad], np.linspace(-1, 1, 10))

    def test_incomplete_schedule_rejected(self, coeffs):
        base = level_by_level_schedule(coeffs)
        trimmed = SummationSchedule(base.groups[:-1], base.bounded_range)
        with pytest.raises(ConvergenceError):
            order_robustness(coeffs, [trimmed], np.linspace(-1, 1, 10))


class TestExports:
    def test_rate_exports(self, suite, haar, tmp_path):
        r = sup_error_rates(suite["gaussian"], haar, range(3, 10), (-1.0, 1.0))
        export_rate_csv(r, str(tmp_path / "rate.csv"))
        export_rate_json(r, str(tmp_path / "rate.json"))
        import json

        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["family"] == "haar" and 0.85 <= doc["slope"] <= 1.1
        assert (tmp_path / "rate.csv").read_text().splitlines()[0] == (
            "family,function,kind,j,sup_error"
        )
