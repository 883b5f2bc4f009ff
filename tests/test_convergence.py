import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import DyadicGrid, check_family_invariants, make_family
from waverate import convergence
from waverate.convergence import (
    ROUNDOFF_FLOOR_EPS,
    STUDY_LEVEL,
    MarkedPoint,
    builtin_suite,
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
    level_by_level_schedule,
    project,
    translate_range,
)
from waverate.grids import ComputationError, ConfigError, SampledFunction
from waverate.serialize import write_rate_csv, write_record
from waverate.sobolev import critical_order

from conftest import ENGINE_SPECS, SERIES_ORDERS


@functools.cache
def family(*spec):
    return make_family(*spec)


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
        with pytest.raises(ConfigError, match="choose from"):
            test_function("nope")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError):
            pointwise_trace(suite["gaussian"], haar, 3.99, range(0, 5))


#: how many of the levels j = 3..9 each gaussian rate fit on (-1, 1) rests on:
#: those whose sup error lies above the roundoff floor; every series order
#: from 3 on, so a new order fails here until its count is added
GAUSSIAN_FITTED_LEVELS = {
    ("daubechies", 1): 7, ("daubechies", 3): 7, ("daubechies", 4): 7,
    ("daubechies", 5): 6, ("daubechies", 6): 4, ("daubechies", 7): 4,
    ("daubechies", 8): 3, ("daubechies", 9): 2, ("daubechies", 10): 2,
    **dict(zip((("battle_lemarie", k) for k in SERIES_ORDERS[1:]), (7, 7, 5, 3, 2, 2),
               strict=True)),
}


class TestSupErrorRates:
    def test_haar_gaussian_first_order(self, suite, haar):
        r = sup_error_rates(suite["gaussian"], haar, range(3, 10), (-1.0, 1.0))
        assert 0.85 <= r.slope <= 1.1
        assert r.fitted_levels == tuple(range(3, 10))

    def test_db2_gaussian_second_order(self, suite, db2):
        r = sup_error_rates(suite["gaussian"], db2, range(3, 10), (-1.0, 1.0))
        assert 1.8 <= r.slope <= 2.2
        assert r.fitted_levels == tuple(range(3, 10))

    @pytest.mark.parametrize("famspec", [
        pytest.param(spec, marks=pytest.mark.xfail(strict=True, reason=(
            "slope 8.258 from j = 3, 4 alone: the error meets the roundoff floor at j = 5, "
            "before the local slope settles to 8 (ROADMAP item 2: a two-level fit needs "
            "a witness)")))
        if spec == ("battle_lemarie", 8) else spec
        for spec in GAUSSIAN_FITTED_LEVELS
    ])
    def test_slope_tracks_vanishing_moments(self, suite, famspec):
        # f sampled on the quadrature lattice leaves the errors no floor
        # above roundoff.  From daubechies:5 on the finest levels reach
        # roundoff (db6: 4.7e-15, 2.1e-15 at j = 8, 9), and the fit reads
        # only the levels above the roundoff floor: for db9, db10, bl7 and
        # bl8 that is j = 3, 4, where R^2 is 1 by construction
        fam = make_family(*famspec)
        r = sup_error_rates(suite["gaussian"], fam, range(3, 10), (-1.0, 1.0))
        assert abs(r.slope - fam.vanishing_moments) <= 0.25
        assert r.r_squared > 0.99
        assert r.fitted_levels == tuple(range(3, 3 + GAUSSIAN_FITTED_LEVELS[famspec]))

    def test_haar_cusp_smoothness_capped(self, suite, haar):
        r = sup_error_rates(suite["cusp"], haar, range(3, 10), (-0.5, 0.5))
        assert 0.2 <= r.slope <= 0.4

    def test_window_touching_jump_rejected(self, suite, haar):
        with pytest.raises(ConfigError):
            sup_error_rates(suite["step"], haar, range(3, 8), (-1.0, 1.0))

    @pytest.mark.parametrize(
        "famspec,fname,window",
        [
            (("daubechies", 2), "cusp", (-1.0, 1.0)),  # cusp's whole table
            (("daubechies", 4), "step", (0.25, 1.0)),  # db4 reaches 0.875 at j = 3
            (("daubechies", 2), "sine", (0.0, 1.0)),  # sine's table starts at 0
        ],
    )
    def test_window_within_reach_rejected_before_tabulation(
        self, suite, monkeypatch, famspec, fname, window
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(convergence.TestFunction, "tabulate", refuse)
        with pytest.raises(ConfigError, match="comes within"):
            sup_error_rates(suite[fname], family(*famspec), range(3, 10), window)

    @pytest.mark.parametrize("fname,window", [("step", (0.25, 1.0)), ("cusp", (-1.0, 1.0))])
    def test_wide_families_keep_the_jump_margin(self, suite, monkeypatch, fname, window):
        # battle_lemarie tables run to +-20 units: only a 2^-3 margin from the
        # jump applies, and no edge rule, so the study reaches tabulation
        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(convergence.TestFunction, "tabulate", refuse)
        with pytest.raises(AssertionError, match="tabulated"):
            sup_error_rates(suite[fname], family("battle_lemarie", 2), range(3, 10), window)

    @pytest.mark.parametrize("trace, message", [
        # j = 12..15 reach Haar's level-12 quadrature lattice; j = -7 reads
        # its tables at level 19
        (lambda tf, fam: lp_error_trace(tf, fam, 1, range(10, 16), (-1, 1)),
         "reaches the level-12 quadrature lattice"),
        (lambda tf, fam: pointwise_trace(tf, fam, 0.0, range(10, 16)),
         "reaches the level-12 quadrature lattice"),
        (lambda tf, fam: lp_error_trace(tf, fam, 1, range(-7, 4), (-1, 1)), "at level 19;"),
    ], ids=["lp_error_trace", "pointwise_trace", "coarsest_scale"])
    def test_traces_check_their_scales_before_tabulation(self, suite, haar, monkeypatch,
                                                         trace, message):
        calls = []
        monkeypatch.setattr(convergence.TestFunction, "tabulate", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match=message):
            trace(suite["gaussian"], haar)
        assert calls == []

    def test_pure_roundoff_has_no_rate(self, suite, db2):
        # db2 reproduces the constant 1 on (0.5, 1): every error is roundoff
        tr = lp_error_trace(suite["step"], db2, math.inf, range(3, 10), (0.5, 1.0))
        assert np.max(tr[:, 1]) <= ROUNDOFF_FLOOR_EPS * np.finfo(float).eps
        with pytest.raises(ComputationError, match=r"sup error\(s\) above roundoff"):
            sup_error_rates(suite["step"], db2, range(3, 10), (0.5, 1.0))

    @pytest.mark.parametrize("fname, window, slope", [("gaussian", (-1.0, 1.0), "-1.8543"),
                                                      ("sine", (1.0, 2.0), "-0.6814")])
    def test_rising_errors_have_no_rate(self, suite, fname, window, slope):
        # the cut sinc's errors grow with j: no fitted law is a rate
        shannon = make_family("shannon")
        with pytest.raises(ComputationError, match=f"fitted slope {slope} is not positive"):
            sup_error_rates(suite[fname], shannon, range(3, 10), window)

    # one rule for projection and spline studies, which name their
    # candidates as a list (j >= 3) and as a range (every mesh)
    @pytest.mark.parametrize("candidates", [lambda n: list(range(n)), range],
                             ids=["list", "range"])
    @pytest.mark.parametrize("errors", [[1.0, 1.0, 1.0], [1e-3, 2e-3, 4e-3]])
    def test_rate_report_rejects_a_slope_that_is_not_positive(self, errors, candidates):
        # flat or rising errors
        f = SampledFunction(DyadicGrid(0.0, 1.0, 2), np.ones(5))
        with pytest.raises(ComputationError, match="is not positive"):
            convergence.rate_report("fam", "f", range(3, 6), errors, candidates(3), f)

    @pytest.mark.parametrize("candidates", [lambda n: list(range(n)), range],
                             ids=["list", "range"])
    @pytest.mark.parametrize("errors, level", [([1e-3, 1e-3, 1e-3], 4),
                                               ([1e-3, 2e-3, 1e-5, 1e-6], 4),
                                               ([1e-3, 1e-4, 1e-5, 1e-5], 6)])
    def test_rate_report_rejects_errors_that_do_not_fall_strictly(self, errors, level,
                                                                  candidates):
        # flat errors fit a slope of about -1e-16, which would print as
        # slope=0.0000; a rise after a fall can still fit a positive slope
        f = SampledFunction(DyadicGrid(0.0, 1.0, 2), np.ones(5))
        levels = range(3, 3 + len(errors))
        with pytest.raises(ComputationError, match=f"at fitted level {level}, .* does not fall"):
            convergence.rate_report("fam", "f", levels, errors,
                                    candidates(len(errors)), f)

    def test_too_few_levels_rejected(self, suite, haar):
        with pytest.raises(ConfigError):
            sup_error_rates(suite["gaussian"], haar, range(0, 6), (-1.0, 1.0))

    @pytest.mark.parametrize(
        "j_range,window", [(range(1, 5), (-1.0, 1.0)), (range(3, 10), (-5.0, 5.0))]
    )
    def test_rejected_before_tabulation(self, suite, haar, monkeypatch, j_range, window):
        tf = suite["gaussian"]

        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(type(tf), "tabulate", refuse)
        with pytest.raises(ConfigError):
            sup_error_rates(tf, haar, j_range, window)

    @pytest.mark.parametrize(
        "famspec,fname,j_range,window,level,message",
        [
            # scales on or past f's quadrature lattice (level 12 for haar, 9 for db2)
            (("haar",), "gaussian", range(3, 16), (-1.0, 1.0), 12, "must stay below"),
            (("daubechies", 2), "gaussian", range(3, 10), (-1.0, 1.0), 6, "must stay below"),
            # tables finer than MAX_TABLE_LEVEL
            (("daubechies", 2), "gaussian", range(3, 10), (-1.0, 1.0), 2000, "finest allowed"),
            # 13 intervals at level 2, and haar's lattice is not refined
            (("haar",), "sine", range(0, 2), (0.5, 2.5), 2, "odd number of intervals"),
            # a window that is not dyadic at the error level
            (("haar",), "gaussian", range(3, 10), (0.3, 0.7), 12, "not a dyadic rational"),
        ],
    )
    def test_study_checks_its_grids_before_tabulation(
        self, suite, monkeypatch, famspec, fname, j_range, window, level, message
    ):
        # the checks the CLI used to run on its own: the study alone rejects
        # every configuration that `rate` rejects
        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(convergence.TestFunction, "tabulate", refuse)
        with pytest.raises(ConfigError, match=message):
            sup_error_rates(suite[fname], family(*famspec), j_range, window, level=level)

    def test_line_fit(self):
        x = np.arange(3.0, 10.0)
        slope, intercept, r2 = line_fit(x, 1.5 - 2.0 * x)
        assert slope == pytest.approx(-2.0) and intercept == pytest.approx(1.5)
        assert r2 == pytest.approx(1.0)
        assert line_fit(x, np.ones_like(x))[2] == 0.0


#: a window per sampled corpus function, clear of its jumps and table ends by
#: db2's reach at j = 3, 3 * 2^-3
SAMPLED_WINDOWS = {
    "gaussian": (-1.0, 1.0),
    "ramp": (-1.0, 0.5),
    "step": (0.5, 1.0),
    "cusp": (-0.5, 0.5),
    "sine": (1.0, 2.0),
}


def atom_hull(tf, fam, js, window):
    """f's window cut to the hull of the supports of every atom that P_j f
    reads on `window`, j in js, translate by translate."""
    ends = [(k + s) * 2.0**-j for j in js for k in translate_range(fam, j, window)
            for s in fam.support]
    return max(min(ends), tf.window[0]), min(max(ends), tf.window[1])


class TestOneSample:
    """A study samples f once and reads its truth off the table it projects."""

    @pytest.mark.parametrize("famspec", [("haar",), ("daubechies", 2), ("battle_lemarie", 2)])
    @pytest.mark.parametrize("fname", sorted(SAMPLED_WINDOWS))
    def test_truth_is_the_sampler_bit_for_bit(self, suite, monkeypatch, famspec, fname):
        fam, tf, window = family(*famspec), suite[fname], SAMPLED_WINDOWS[fname]
        calls, reads = [], []
        counted = tf._replace(sampler=lambda x: calls.append(x) or tf.sampler(x))
        read = SampledFunction.on_lattice
        check_family_invariants(fam)  # the family's tables are built before the spy

        def spy(self, *lattice):
            reads.append(read(self, *lattice))
            return reads[-1]

        # P_j f is the constant 2 + 2^-j, which reads no table, so every table
        # read is the truth's; its errors fall, as a rate fit requires
        monkeypatch.setattr(SampledFunction, "on_lattice", spy)
        monkeypatch.setattr(
            convergence, "project",
            lambda f, fam, j, xs: SampledFunction(xs, np.full(xs.count, 2.0 + 2.0**-j)),
        )
        studies = (
            lambda level: sup_error_rates(counted, fam, range(3, 8), window, level),
            lambda level: lp_error_trace(counted, fam, 2, range(3, 8), window, level),
        )
        for level in (10, 12):
            want = np.asarray(tf.sampler(DyadicGrid(*window, level).points()), dtype=float)
            hull = atom_hull(tf, fam, range(3, 8), window)
            table = DyadicGrid(*hull, level + fam.quad_refine).points()
            for study in studies:
                calls.clear()
                reads.clear()
                study(level)
                # every point of the hull's table is sampled, each exactly once
                assert np.array_equal(np.concatenate(calls), table)
                assert [r.tobytes() for r in reads] == [want.tobytes()]


def outcome(study):
    """A study's result, exact (an array's bytes, a report's repr), or the
    type and message of what it raised."""
    try:
        got = study()
    except (ConfigError, ComputationError) as exc:
        return type(exc), str(exc)
    return got.tobytes() if isinstance(got, np.ndarray) else repr(got)


class TestReadWindow:
    """f is sampled on the hull of the atoms a study reads, with its errors,
    fits and failures bitwise those of f sampled on its whole window."""

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    @given(left=st.integers(-128, 120), width=st.integers(1, 64), j0=st.integers(0, 8),
           levels=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_hull_holds_every_analysed_support(self, spec, left, width, j0, levels):
        # the window (left, left + width) 2^-5 inside the gaussian's (-4, 4)
        fam, tf = family(*spec), test_function("gaussian")
        (s0, s1), js = fam.support, range(j0, j0 + levels)
        xs = DyadicGrid(left / 32, min(left + width, 128) / 32, STUDY_LEVEL)
        lo, hi = convergence._read_window(tf, fam, js, xs)
        assert tf.window[0] <= lo and hi <= tf.window[1]
        for j in js:
            ks = translate_range(fam, j, (xs.left, xs.right))
            assert lo <= max(tf.window[0], (ks.start + s0) * 2.0**-j)
            assert hi >= min(tf.window[1], (ks[-1] + s1) * 2.0**-j)

    # shannon reads all of f at every scale, so its slow j = 0 tables add nothing
    @pytest.mark.parametrize("famspec, js", [
        *((spec, js) for spec in [("haar",), ("daubechies", 1), ("daubechies", 2),
                                  ("daubechies", 4), ("battle_lemarie", 2)]
          for js in (range(3, 10), range(0, 7))),
        (("shannon",), range(3, 10)),
    ])
    @pytest.mark.parametrize("fname, window", [("gaussian", (-1.0, 1.0)),
                                               ("sine", (1.0, 2.0))])
    def test_hull_equals_whole_window(self, suite, monkeypatch, famspec, js, fname, window):
        fam, tf = family(*famspec), suite[fname]
        studies = [lambda: sup_error_rates(tf, fam, js, window),
                   *(lambda p=p: lp_error_trace(tf, fam, p, js, window) for p in (1, math.inf))]
        hull = [outcome(study) for study in studies]
        monkeypatch.setattr(convergence, "_read_window", lambda tf, *args: tf.window)
        assert hull == [outcome(study) for study in studies]

    @pytest.mark.parametrize("famspec", [("haar",), ("daubechies", 2), ("daubechies", 4)])
    def test_compact_studies_sample_under_half_of_f(self, famspec):
        # the README's gaussian rate studies on (-1, 1) read 11/32 to 15/32 of
        # f's window (-4, 4)
        fam, xs = family(*famspec), DyadicGrid(-1.0, 1.0, STUDY_LEVEL)
        lo, hi = convergence._read_window(test_function("gaussian"), fam, range(3, 10), xs)
        assert hi - lo < 4.0

    def test_bl2_and_shannon_read_all_of_f(self):
        tf, xs = test_function("gaussian"), DyadicGrid(-1.0, 1.0, STUDY_LEVEL)
        for fam in (family("battle_lemarie", 2), family("shannon")):
            assert convergence._read_window(tf, fam, range(3, 10), xs) == tf.window

    # db4's coarsest atoms at 0 need j >= 3 inside the oscillating indicator's (-1, 1)
    @pytest.mark.parametrize("famspec, js", [(("haar",), range(2, 11)),
                                             (("daubechies", 2), range(2, 11)),
                                             (("daubechies", 4), range(3, 11))])
    @pytest.mark.parametrize("fname", ["oscillating_indicator", "gaussian"])
    def test_pointwise_trace_samples_the_hull(self, suite, monkeypatch, famspec, js, fname):
        # the trace at 0 samples part of f's table, and is bitwise the trace
        # of f sampled on its whole window
        fam, tf = family(*famspec), suite[fname]
        counts, tabulate = [], convergence.TestFunction.tabulate

        def counting(self, *args):
            f = tabulate(self, *args)
            counts.append(f.grid.count)
            return f

        monkeypatch.setattr(convergence.TestFunction, "tabulate", counting)
        hull = pointwise_trace(tf, fam, 0.0, js)
        monkeypatch.setattr(convergence, "_read_window", lambda tf, *args: tf.window)
        whole = pointwise_trace(tf, fam, 0.0, js)
        assert counts[0] < counts[1] == DyadicGrid(*tf.window, STUDY_LEVEL + fam.quad_refine).count
        assert hull.tobytes() == whole.tobytes()


class TestTabulate:
    @pytest.mark.parametrize("level", [10, 12, 13, 15])
    @pytest.mark.parametrize("name", [tf.name for tf in builtin_suite()])
    def test_chunks_equal_one_sampler_call(self, suite, name, level):
        # the table filled chunk by chunk is the sampler called once on the
        # whole grid, byte for byte
        tf = suite[name]
        h = 2.0**-level
        x = tf.window[0] + np.arange(DyadicGrid(*tf.window, level).count) * h
        if tf.cumulative_measure is None:
            want = np.asarray(tf.sampler(x), dtype=float)
        else:
            want = (tf.cumulative_measure(x + 2 * h) - tf.cumulative_measure(x - 2 * h)) / (4 * h)
        assert tf.tabulate(level).values.tobytes() == want.tobytes()


class TestQuadratureRefinement:
    @pytest.mark.parametrize("famspec", [("daubechies", 2), ("battle_lemarie", 2)])
    def test_three_levels_settle_the_sup_errors(self, suite, famspec):
        # gaussian sup errors on the level-12 grid of (-1, 1), j = 3..9: f
        # sampled 3 levels finer agrees with 6 levels finer within 1e-3, and
        # f on the error grid itself misses by more than 1e-2
        fam, tf = family(*famspec), suite["gaussian"]
        xs = DyadicGrid(-1.0, 1.0, STUDY_LEVEL)
        assert fam.quad_refine == 3

        def errors(level):
            f = tf.tabulate(level)
            truth = f.on_lattice(xs.level, xs.start, xs.count)
            return np.array(
                [np.max(np.abs(project(f, fam, j, xs).values - truth)) for j in range(3, 10)]
            )

        reference = errors(STUDY_LEVEL + 6)
        assert np.max(np.abs(errors(STUDY_LEVEL + 3) / reference - 1.0)) <= 1e-3
        assert np.max(np.abs(errors(STUDY_LEVEL) / reference - 1.0)) > 1e-2


class TestLpErrorTrace:
    def test_midcell_step_l1_exact(self, haar):
        # the error grid's level-12 cells leave a relative 2^(j-12)
        for j in (2, 5, 8):
            tf = midcell_step(j)
            tr = lp_error_trace(tf, haar, 1, range(j, j + 4), (-1.0, 1.0))
            assert tr[0][1] == pytest.approx(2.0 ** -(j + 1), rel=2.0 ** (j - 12) + 1e-12)

    @pytest.mark.parametrize("p", [1, math.inf])
    def test_one_level_is_the_first_row_of_four(self, haar, p):
        # a window study's sample and analysis buffer do not depend on the
        # other levels it analyses, so a one-level trace is bitwise row 0
        for j in range(2, 9):
            one = lp_error_trace(midcell_step(j), haar, p, range(j, j + 1), (-1.0, 1.0))
            four = lp_error_trace(midcell_step(j), haar, p, range(j, j + 4), (-1.0, 1.0))
            assert one.tobytes() == four[:1].tobytes()

    def test_midcell_step_sup_never_converges(self, haar):
        # the jump at the center of a level-j cell: P_j f reads 1/2 across it
        for j in range(2, 9):
            tr = lp_error_trace(midcell_step(j), haar, math.inf, range(j, j + 4), (-1.0, 1.0))
            assert tr[0][1] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("fname, fam, window", [
        ("step", ("haar",), (-2.0, 2.0)),  # P_j f(2) = 1/2 where f's table ends
        ("sine", ("daubechies", 2), (0.0, 3.25)),
    ])
    def test_window_within_reach_of_a_table_end_rejected(self, suite, fname, fam, window):
        with pytest.raises(ConfigError, match="of an end of the tabulated window"):
            lp_error_trace(suite[fname], family(*fam), math.inf, range(3, 10), window)

    def test_db2_gaussian_l2_order(self, suite, db2):
        tr = lp_error_trace(suite["gaussian"], db2, 2, range(3, 10), (-1.0, 1.0))
        raw_slope = np.polyfit(tr[:, 0], np.log2(tr[:, 1]), 1)[0]
        assert raw_slope <= -2.0 + 0.2

    def test_rejects_bad_p(self, suite, haar):
        with pytest.raises(ConfigError):
            lp_error_trace(suite["gaussian"], haar, 3, range(3, 8), (-1.0, 1.0))


class TestInvariants:
    @pytest.mark.parametrize("famspec", [("haar", None), ("daubechies", 2), ("daubechies", 3)])
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

    @pytest.mark.parametrize("famspec", [("haar", None), ("daubechies", 2), ("daubechies", 3)])
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
        "famspec", [("haar", None), ("daubechies", 2), ("daubechies", 3), ("battle_lemarie", 2)]
    )
    def test_rate_matches_critical_order(self, suite, famspec):
        fam = make_family(*famspec)
        r = sup_error_rates(suite["gaussian"], fam, range(3, 10), (-1.0, 1.0))
        cap = min(critical_order(fam).s_star, suite["gaussian"].smoothness_class)
        assert abs(r.slope - cap) <= 0.25

    @pytest.mark.parametrize("fname", ["gaussian", "ramp", "step", "cusp", "oscillating_indicator"])
    def test_monotone_l2_errors(self, suite, haar, db2, fname):
        # on f's window less the reach of db2's coarsest atoms, the wider of
        # the two families'
        tf = suite[fname]
        margin = convergence.reach(db2, 3)
        window = (tf.window[0] + margin, tf.window[1] - margin)
        for fam in (haar, db2):
            tr = lp_error_trace(tf, fam, 2, range(3, 10), window)
            errs = tr[:, 1]
            assert all(b <= a + 1e-8 for a, b in zip(errs, errs[1:]))

    def test_midcell_step_sup_floor(self, haar):
        # jump non-convergence in sup norm at the generic (mid-cell) position
        # of level j; from level j + 1 on the jump is dyadic, on a cell
        # boundary, and reproduced up to roundoff
        for j in (2, 4, 6):
            tr = lp_error_trace(midcell_step(j), haar, math.inf, range(j, j + 4), (-1.0, 1.0))
            assert tr[0][1] >= 0.4
            assert np.max(tr[1:, 1]) <= 1e-15


@pytest.fixture(scope="module")
def coeffs(suite, haar):
    return analyze(suite["gaussian"].tabulate(), haar, 0, 6)


class TestOrderRobustness:
    def test_unbounded_schedule_rejected(self, coeffs):
        base = level_by_level_schedule(coeffs)
        groups = list(base.groups)
        held = groups[1][0]
        groups[1] = groups[1][1:]
        groups.append((held,))
        bad = SummationSchedule(tuple(groups), 1)
        with pytest.raises(ConfigError, match="schedule violates its bounded range"):
            order_robustness(coeffs, [bad])

    def test_incomplete_schedule_rejected(self, coeffs):
        base = level_by_level_schedule(coeffs)
        trimmed = SummationSchedule(base.groups[:-1], base.bounded_range)
        with pytest.raises(ConfigError, match="schedule is not complete"):
            order_robustness(coeffs, [trimmed])


class TestExports:
    def test_rate_exports(self, suite, haar, tmp_path):
        r = sup_error_rates(suite["gaussian"], haar, range(3, 10), (-1.0, 1.0))
        write_rate_csv(str(tmp_path / "rate.csv"), r)
        write_record(str(tmp_path / "rate.json"), r)
        import json

        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["family"] == "haar" and 0.85 <= doc["slope"] <= 1.1
        assert doc["fitted_levels"] == list(range(3, 10))
        assert (tmp_path / "rate.csv").read_text().splitlines()[0] == (
            "family,function,kind,j,sup_error"
        )
