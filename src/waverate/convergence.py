"""Empirical pointwise/L^p convergence studies for projections and splines.

A small corpus of test functions with certified marked points (continuity
points, Lebesgue points of discontinuous functions, jumps) is driven through
the projection machinery to measure pointwise traces, sup-norm rates on
jump-free windows and L^p error decay; `order_robustness` checks schedules.
Best-L^2 spline studies halve the mesh, with -log2 h as the level j.

Conventions
-----------
* Pointwise traces evaluate the right-continuous representative of P_j f:
  the trace abscissa is snapped one finest-lattice cell to the right of the
  requested point, so a point on a dyadic cell boundary reads the value of
  the cell it opens (e.g. the Haar projection of the unit step at 0 is
  identically 1, not the midpoint value 1/2).
* Every projection comes from the dyadic-lattice engine of
  ``waverate.expansion``: coefficients by the midpoint rule on the 2h
  lattice, values by strided synthesis.
* A study samples f once, on the family's quadrature lattice, finer than the
  level-L grid its errors are read on: the rate, L^p and pointwise studies
  where their atoms read it (``_read_sample``), the others on f's whole window.
* Sup norms are grid suprema at the tabulation level L.
* Rate slopes are positive decay exponents: sup_error ~ C 2^{-slope j},
  fitted by ``rate_report`` on the candidate levels above roundoff (j >= 3
  for a projection, as earlier levels are preasymptotic; every spline mesh).
* A jump at a dyadic rational is degenerate for Haar-type families: once the
  level resolves it, the jump lies on a cell boundary and is reproduced with
  zero error.  ``midcell_step`` places the jump at the center of a level-j
  cell, the generic position where the one-mismatched-half-cell error model
  (L^1 error exactly 2^{-j-1}, sup error 1/2) holds.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .expansion import (
    ExpansionCoefficients,
    check_analysis,
    complete_schedule_check,
    project,
    validate_schedule,
)
from .families import MRAFamily
from .grids import (ComputationError, ConfigError, DyadicGrid, Record, SampledFunction, _set,
                    line_fit, sample)
from .splines import best_l2_spline, check_study, make_space

#: default tabulation level for test functions and error grids
STUDY_LEVEL = 12
#: levels below this are discarded before fitting rate slopes
REGRESSION_MIN_J = 3
#: sup errors at or below this many eps * max|f| are roundoff, and no rate
#: fit reads them.  Once the mesh resolves f the spline errors of orders 5..8
#: plateau at 5..32 eps max|f| (sine and gaussian, level 12), and a 1e-15
#: change of the Gram moves an error by up to 13 eps (order 5, mesh 2^-6:
#: 8.09e-14 to 7.81e-14), 1.3% of an error at this floor
ROUNDOFF_FLOOR_EPS = 1000

POINT_KINDS = ("continuity", "lebesgue_discontinuous", "jump")


# ---------------------------------------------------------------------------
# test functions


class MarkedPoint(Record):
    __slots__ = _fields = ("x", "kind", "reference")

    def __init__(self, x: float, kind: str, reference: float | None):
        if kind not in POINT_KINDS:
            raise ConfigError(f"unknown point kind {kind!r}")
        _set(self, "x", x)
        _set(self, "kind", kind)
        _set(self, "reference", reference)


class TestFunction(NamedTuple):
    """A named function with certified marked points.

    ``sampler`` returns exact pointwise values (midpoint convention at
    jumps).  Functions whose fine structure cannot be resolved pointwise at
    the study level carry ``cumulative_measure`` m(t) = |{f=1} intersect
    [0,t]| instead, and are tabulated by exact cell averages
    (m(x+h/2) - m(x-h/2))/h.
    """

    __test__ = False  # not a pytest class despite the name

    name: str
    sampler: Callable
    window: tuple
    marked_points: tuple
    smoothness_class: float
    cumulative_measure: Callable | None = None

    def tabulate(self, level: int = STUDY_LEVEL, window=None) -> SampledFunction:
        """self on the level-`level` grid of `window` (its own by default), by
        `grids.sample`: one table, filled SAMPLE_CHUNK points per sampler call."""
        grid = DyadicGrid(*(window or self.window), level)
        if self.cumulative_measure is None:
            return sample(self.sampler, grid)
        # density smoothed by a width-4h box: the jump-robust product
        # quadrature reduces to the midpoint rule on the 2h lattice, and 4h
        # is the smallest box every parity of that rule integrates exactly
        # (narrower kernels lose sub-cell mass sitting on even lattice points)
        m, h = self.cumulative_measure, grid.spacing
        return sample(lambda x: (m(x + 2 * h) - m(x - 2 * h)) / (4 * h), grid)


def quadrature_sample(tf: TestFunction, fam: MRAFamily, level: int = STUDY_LEVEL):
    """tf on its whole window where analysis on fam reads it, for errors on level-`level`
    grids: for studies of every translate meeting it (`expand`, suite criteria 2 and 6)."""
    return tf.tabulate(level + fam.quad_refine)


def oscillating_measure(t) -> np.ndarray:
    """m(t) = |E intersect [0, t]| for E = union_n [2^-n, 2^-n (1 + 4^-n)].

    The n-th interval has length 8^-n, so |E intersect [0, 2^-j]| =
    sum_{n > j} 8^-n = (1/7) 8^-j: the measure is o(epsilon) at 0, making 0 a
    Lebesgue point of 1_E with value 0 even though 1_E has no limit there.
    """
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for n in range(1, 40):
        lo, ln = 2.0**-n, 8.0**-n
        total += np.clip(np.minimum(t, lo + ln) - lo, 0.0, ln)
    return total


#: the oscillating indicator's marked points, built once: its Lebesgue point
#: 0, and its jumps at the ends of each interval of E (`oscillating_measure`)
_OSCILLATING_POINTS = (
    MarkedPoint(0.0, "lebesgue_discontinuous", 0.0),
    *(MarkedPoint(x, "jump", None) for n in range(1, 40) for x in (2.0**-n, 2.0**-n + 8.0**-n)),
)


def _step_sampler(x0: float) -> Callable:
    return lambda x: 0.5 * (np.sign(np.asarray(x, dtype=float) - x0) + 1.0)


def builtin_suite() -> list:
    """The bundled corpus of convergence test functions."""
    ramp = lambda x: np.where(
        (np.asarray(x) > 0) & (np.asarray(x) < 1), np.asarray(x, dtype=float), 0.0
    ) + 0.5 * (np.asarray(x) == 1.0)
    return [
        TestFunction(
            "gaussian",
            lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
            (-4.0, 4.0),
            (MarkedPoint(0.0, "continuity", 1.0),),
            math.inf,
        ),
        TestFunction(
            "ramp",
            ramp,
            (-2.0, 2.0),
            (MarkedPoint(0.5, "continuity", 0.5), MarkedPoint(1.0, "jump", None)),
            0.0,
        ),
        TestFunction(
            "step",
            _step_sampler(0.0),
            (-2.0, 2.0),
            (MarkedPoint(0.0, "jump", None),),
            0.0,
        ),
        TestFunction(
            "cusp",
            lambda x: np.abs(np.asarray(x, dtype=float)) ** 0.3,
            (-1.0, 1.0),
            (MarkedPoint(0.0, "continuity", 0.0),),
            0.3,
        ),
        TestFunction(
            "oscillating_indicator",
            None,
            (-1.0, 1.0),
            _OSCILLATING_POINTS,
            0.0,
            cumulative_measure=oscillating_measure,
        ),
        # window endpoints must be dyadic, hence 3.25 rather than pi
        TestFunction(
            "sine",
            np.sin,
            (0.0, 3.25),
            (MarkedPoint(1.0, "continuity", math.sin(1.0)),),
            math.inf,
        ),
    ]


def test_function(name: str) -> TestFunction:
    """The bundled test function called `name`."""
    suite = builtin_suite()
    for tf in suite:
        if tf.name == name:
            return tf
    raise ConfigError(
        f"unknown function {name!r}; choose from {sorted(tf.name for tf in suite)}"
    )


test_function.__test__ = False  # not a pytest test despite the name


def midcell_step(j: int) -> TestFunction:
    """Unit step whose jump sits at the center of the level-j cell [0, 2^-j).

    A jump at a dyadic point (like the builtin step's jump at 0) falls on a
    cell boundary at every level and is reproduced by Haar with zero error;
    the mid-cell position 2^-(j+1) is the generic case where the projection
    averages the jump to 1/2 across one cell (L^1 error exactly 2^-j-1, sup
    error 1/2).
    """
    x0 = 2.0 ** -(j + 1)
    return TestFunction(
        f"step_midcell_{j}",
        _step_sampler(x0),
        (-2.0, 2.0),
        (MarkedPoint(x0, "jump", None),),
        0.0,
    )


# ---------------------------------------------------------------------------
# pointwise traces


def reach(fam: MRAFamily, j: int) -> float:
    """How far a level-j atom of fam reaches from its lattice point:
    max(|left|, |right|) of the family's support times 2^-j."""
    return max(map(abs, fam.support)) * 2.0**-j


def check_jumps(tf: TestFunction, window, margin: float) -> None:
    """Raise ConfigError if a jump of tf lies within margin of the window."""
    for mp in tf.marked_points:
        if mp.kind == "jump" and window[0] - margin < mp.x < window[1] + margin:
            raise ConfigError(
                f"window {window} comes within {margin:.3g} of the jump at {mp.x}"
            )


def _snap_right(x: float, level: int) -> float:
    """Nearest lattice point strictly right of x (right-continuous reading)."""
    return (math.floor(x * 2.0**level + 0.5) + 1) * 2.0**-level


def pointwise_trace(tf: TestFunction, fam: MRAFamily, x: float, j_range) -> np.ndarray:
    """(j, P_j f(x)) pairs on the STUDY_LEVEL lattice, read right-continuously."""
    j_min = check_analysis(fam, tf.window, STUDY_LEVEL, j_range)[0]
    margin = reach(fam, j_min)
    if not tf.window[0] + margin <= x <= tf.window[1] - margin:
        raise ConfigError(
            f"point {x} too close to the window edge for level {j_min} "
            f"(needs margin {margin:.3g})"
        )
    x_eval = _snap_right(x, STUDY_LEVEL)
    h = 2.0**-STUDY_LEVEL
    xs = DyadicGrid(x_eval - h, x_eval + h, STUDY_LEVEL)
    f = _read_sample(tf, fam, j_range, xs)
    return np.array([(j, float(project(f, fam, j, xs).values[1])) for j in j_range])


# ---------------------------------------------------------------------------
# rates


class RateReport(NamedTuple):
    family: str
    function: str
    j_values: tuple
    sup_errors: tuple
    slope: float
    intercept: float
    r_squared: float
    #: the levels the rate was fitted on (a spline study's mesh exponents m)
    fitted_levels: tuple


def rate_report(family: str, function: str, j_values, errors, candidates, f) -> RateReport:
    """The RateReport of a study: a log2 line through the errors at exactly
    those `candidates` (indices of levels) above the roundoff floor
    ROUNDOFF_FLOOR_EPS eps max|f|, f the study's samples; fewer than two, a
    fitted slope that is not positive, or a fitted error that does not fall
    below the one before, raise ComputationError.
    """
    floor = ROUNDOFF_FLOOR_EPS * np.finfo(float).eps * f.norm_sup()
    fitted = [i for i in candidates if errors[i] > floor]
    if len(fitted) < 2:
        raise ComputationError(
            f"{len(fitted)} sup error(s) above roundoff; a rate fit needs two "
            f"above the roundoff floor {floor:.3g}"
        )
    slope, intercept, r2 = line_fit(
        [j_values[i] for i in fitted], np.log2([errors[i] for i in fitted])
    )
    if slope >= 0.0:
        raise ComputationError(
            f"fitted slope {-slope:.4f} is not positive: the sup errors do not fall"
        )
    for prev, i in zip(fitted, fitted[1:]):
        if not errors[i] < errors[prev]:
            raise ComputationError(f"the sup error at fitted level {j_values[i]:g}, "
                                   f"{errors[i]:.3g}, does not fall below {errors[prev]:.3g}")
    return RateReport(
        family=family,
        function=function,
        j_values=tuple(j_values),
        sup_errors=tuple(errors),
        slope=-slope,
        intercept=intercept,
        r_squared=r2,
        fitted_levels=tuple(j_values[i] for i in fitted),
    )


def check_window(tf: TestFunction, fam: MRAFamily, window, level: int, j_min: int) -> float:
    """The jump margin of a study window, checked before f is tabulated: the
    window must be dyadic at `level`, inside f's tabulated window and, for a
    compactly supported family, out of `reach` (at j_min) of f's table ends,
    which is then the margin.  The other families' tables run to +-20..+-64
    units, so they keep a 2^-j_min margin and no edge rule."""
    DyadicGrid(window[0], window[1], level)
    if window[0] < tf.window[0] or window[1] > tf.window[1]:
        raise ConfigError(
            f"window {tuple(window)} is not inside the tabulated window {tf.window} "
            f"of {tf.name}"
        )
    if fam.decay.kind != "compact":
        return 2.0**-j_min
    margin = reach(fam, j_min)
    if window[0] - margin < tf.window[0] or window[1] + margin > tf.window[1]:
        raise ConfigError(
            f"window {window} comes within {margin:.3g} of an end of the "
            f"tabulated window {tf.window} of {tf.name}"
        )
    return margin


def check_rate_study(tf: TestFunction, fam: MRAFamily, js, window, level: int) -> None:
    """Reject a sup-norm rate study before f is tabulated: its scales by
    `check_analysis` on f's window, its window by `check_window`, fewer than
    four levels j >= REGRESSION_MIN_J, and a jump of f within the margin."""
    j_min, j_max = check_analysis(fam, tf.window, level, js)
    usable = max(0, j_max + 1 - max(j_min, REGRESSION_MIN_J))
    margin = check_window(tf, fam, window, level, j_min)
    if usable < 4:
        raise ConfigError(
            f"need at least 4 levels >= {REGRESSION_MIN_J} for a rate fit, got {usable}"
        )
    check_jumps(tf, window, margin)


def sup_error_rates(
    tf: TestFunction,
    fam: MRAFamily,
    j_range,
    window,
    level: int = STUDY_LEVEL,
) -> RateReport:
    """Grid sup-norm errors of P_j f on a jump-free window, with a rate fit
    on the levels j >= REGRESSION_MIN_J that `rate_report` reads."""
    check_rate_study(tf, fam, j_range, window, level)
    f, errors = _window_errors(tf, fam, math.inf, j_range, window, level)
    candidates = [i for i, j in enumerate(j_range) if j >= REGRESSION_MIN_J]
    return rate_report(fam.label, tf.name, j_range, errors, candidates, f)


def lp_error_trace(
    tf: TestFunction,
    fam: MRAFamily,
    p,
    j_range,
    window,
    level: int = STUDY_LEVEL,
) -> np.ndarray:
    """(j, ||P_j f - f||_p) for j in j_range on a `check_window` window's grid; jumps allowed."""
    if p not in (1, 2, math.inf):
        raise ConfigError(f"p must be 1, 2 or inf, got {p}")
    check_window(tf, fam, window, level, check_analysis(fam, tf.window, level, j_range)[0])
    return np.column_stack((j_range, _window_errors(tf, fam, p, j_range, window, level)[1]))


def _window_errors(tf: TestFunction, fam: MRAFamily, p, js, window, level: int):
    """(f, errors) of a study: f from `_read_sample`, and ||P_j f - f||_p on
    the level-`level` window grid for each j in js, the truth read off f's
    own table."""
    xs = DyadicGrid(float(window[0]), float(window[1]), level)
    f = _read_sample(tf, fam, js, xs)
    truth = f.on_lattice(level, xs.start, xs.count)
    errors = []
    for j in js:
        d = np.abs(project(f, fam, j, xs).values - truth)
        errors.append(float(np.max(d)) if p == math.inf
                      else float(np.trapezoid(d**p, dx=xs.spacing)) ** (1.0 / p))
    return f, errors


def _read_sample(tf: TestFunction, fam: MRAFamily, js, xs: DyadicGrid) -> SampledFunction:
    """f at fam's quadrature level, `quad_refine` above xs's, on `_read_window`'s hull."""
    return tf.tabulate(xs.level + fam.quad_refine, _read_window(tf, fam, js, xs))


def _read_window(tf: TestFunction, fam: MRAFamily, js, xs: DyadicGrid) -> tuple:
    """The part of f's window that P_j f on xs reads for j in js: xs widened
    by (s1 - s0) 2^-j at each end for the coarsest scale j = js[0], cut to
    f's window.

    Every translate k that `project` analyses at scale j has its support
    [(k + s0) 2^-j, (k + s1) 2^-j] within (s1 - s0) 2^-j of xs, by the ceil
    and floor of `translate_range`, a reach that only grows as j falls.  The
    hull's ends move in from f's by whole pairs of quadrature samples, so
    analysis reads the same odd samples of f, which are bitwise those of f's
    whole table, into a buffer of the same shape: every product and error is
    unchanged.  The hull is computed in quadrature-lattice indices."""
    qlevel = xs.level + fam.quad_refine
    (first, last), (lo, hi) = (
        (g.start, g.start + g.count - 1)
        for g in (DyadicGrid(*tf.window, qlevel), xs.refine(fam.quad_refine))
    )
    s0, s1 = fam.support
    pad = math.ceil(s1 - s0) * 2 ** (qlevel - js[0])
    first += 2 * max(0, (lo - pad - first) // 2)
    last -= 2 * max(0, (last - hi - pad) // 2)
    return math.ldexp(first, -qlevel), math.ldexp(last, -qlevel)


def spline_convergence_study(tf, order: int, exponents, level: int = STUDY_LEVEL):
    """Sup errors of best L^2 splines on a boundary-shrunk window on the meshes
    2^-m, m in the range `exponents` (checked by `check_study`).  The window
    is f's shrunk by order * 2^-min(m) at each end, and must stay that far
    from every jump of f (`check_jumps`).

    Returns (report, f, fits): the RateReport with m in the role of the level
    and every mesh a candidate, f = tf tabulated at `level`, and fits[i] the
    best L^2 spline of f on the i-th mesh, for checks that read them."""
    check_study(tf.window, order, exponents, level)
    shrink = order * 2.0**-exponents[0]
    window = (tf.window[0] + shrink, tf.window[1] - shrink)
    check_jumps(tf, window, shrink)
    f = tf.tabulate(level)
    fits = [best_l2_spline(f, make_space(order, 2.0**-m, tf.window)) for m in exponents]
    xs = DyadicGrid(window[0], window[1], level)
    truth = f.on_lattice(level, xs.start, xs.count)
    errors = [float(np.max(np.abs(fit.on_lattice(level, xs.start, xs.count) - truth)))
              for fit in fits]
    report = rate_report(
        f"spline:k={order}", tf.name, exponents, errors, range(len(fits)), f
    )
    return report, f, fits


# ---------------------------------------------------------------------------
# summation-order robustness


def order_robustness(coeffs: ExpansionCoefficients, schedules) -> None:
    """Raise ConfigError unless every schedule satisfies its declared bounded
    range and holds every coefficient of `coeffs` exactly once."""
    for sched in schedules:
        ok, report = validate_schedule(sched)
        if not ok:
            raise ConfigError(f"schedule violates its bounded range: {report}")
        if not complete_schedule_check(coeffs, sched):
            raise ConfigError("schedule is not complete for the coefficient set")
