"""Empirical pointwise/L^p convergence studies for multiresolution projections.

A small corpus of test functions with certified marked points (continuity
points, Lebesgue points of discontinuous functions, jumps) is driven through
the projection machinery to measure pointwise traces, sup-norm rates on
jump-free windows, L^p error decay, and independence of the summation order.

Conventions
-----------
* Pointwise traces evaluate the right-continuous representative of P_j f:
  the trace abscissa is snapped one finest-lattice cell to the right of the
  requested point, so a point on a dyadic cell boundary reads the value of
  the cell it opens (e.g. the Haar projection of the unit step at 0 is
  identically 1, not the midpoint value 1/2).
* Every projection, partial sum and order-robustness term comes from the
  dyadic-lattice engine of ``waverate.expansion``: coefficients by the
  midpoint rule on the 2h lattice, values by strided synthesis or atom rows.
* A study samples f once, with ``quadrature_sample``: on the family's
  quadrature lattice, finer than the level-L grid its errors are read on.
* Sup norms are grid suprema at the tabulation level L; the quantization
  error is reported as 2^{-L} times a local Lipschitz estimate.
* Rate slopes are positive decay exponents: sup_error ~ C 2^{-slope j},
  regressed on levels j >= 3 only (earlier levels are preasymptotic).
* A jump at a dyadic rational is degenerate for Haar-type families: once the
  level resolves it, the jump lies on a cell boundary and is reproduced with
  zero error.  ``midcell_step`` places the jump at the center of a level-j
  cell, the generic position where the one-mismatched-half-cell error model
  (L^1 error exactly 2^{-j-1}, sup error 1/2) holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expansion import (
    ExpansionCoefficients,
    _quad_refine,
    atom_rows,
    complete_schedule_check,
    project,
    validate_schedule,
)
from .families import MRAFamily
from .grids import NO_DECAY, DyadicGrid, SampledFunction
from .serialize import write_csv, write_json

#: default tabulation level for test functions and error grids
STUDY_LEVEL = 12
#: levels below this are discarded before fitting rate slopes
REGRESSION_MIN_J = 3
#: prefix fractions probed by order_robustness
PREFIX_FRACTIONS = (0.25, 0.5, 0.75, 1.0)

POINT_KINDS = ("continuity", "lebesgue_discontinuous", "jump")


class ConvergenceError(ValueError):
    """Raised for invalid study windows, points, or schedules."""


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class MarkedPoint:
    x: float
    kind: str
    reference: float | None

    def __post_init__(self):
        if self.kind not in POINT_KINDS:
            raise ConvergenceError(f"unknown point kind {self.kind!r}")


@dataclass(frozen=True)
class TestFunction:
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

    def tabulate(self, level: int = STUDY_LEVEL) -> SampledFunction:
        grid = DyadicGrid(self.window[0], self.window[1], level)
        x = grid.points()
        if self.cumulative_measure is not None:
            # density smoothed by a width-4h box: the jump-robust product
            # quadrature reduces to the midpoint rule on the 2h lattice, and
            # 4h is the smallest box every parity of that rule integrates
            # exactly (narrower kernels lose sub-cell mass sitting on even
            # lattice points)
            h = grid.spacing
            vals = (
                self.cumulative_measure(x + 2 * h) - self.cumulative_measure(x - 2 * h)
            ) / (4 * h)
        else:
            vals = np.asarray(self.sampler(x), dtype=float)
        return SampledFunction(grid, vals, NO_DECAY)

    def truth_on(self, grid: DyadicGrid) -> np.ndarray:
        """Reference values on a grid (cell averages for measure functions)."""
        if self.cumulative_measure is not None:
            return self.tabulate(grid.level).restrict(grid.left, grid.right).values
        return np.asarray(self.sampler(grid.points()), dtype=float)


def quadrature_sample(tf: TestFunction, fam: MRAFamily, level: int = STUDY_LEVEL):
    """tf sampled where analysis on fam reads it, for errors on level-`level` grids."""
    return tf.tabulate(level + _quad_refine(fam))


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
            (MarkedPoint(0.0, "lebesgue_discontinuous", 0.0),),
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
    raise ConvergenceError(
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


def _snap_right(x: float, level: int) -> float:
    """Nearest lattice point strictly right of x (right-continuous reading)."""
    return (math.floor(x * 2.0**level + 0.5) + 1) * 2.0**-level


def pointwise_trace(tf: TestFunction, fam: MRAFamily, x: float, j_range) -> np.ndarray:
    """(j, P_j f(x)) pairs on the STUDY_LEVEL lattice, read right-continuously."""
    js = list(j_range)
    if not js:
        raise ConvergenceError("empty level range")
    halfwidth = max(abs(fam.phi.grid.left), abs(fam.phi.grid.right))
    margin = halfwidth * 2.0 ** -min(js)
    if not tf.window[0] + margin <= x <= tf.window[1] - margin:
        raise ConvergenceError(
            f"point {x} too close to the window edge for level {min(js)} "
            f"(needs margin {margin:.3g})"
        )
    f = quadrature_sample(tf, fam)
    x_eval = _snap_right(x, STUDY_LEVEL)
    h = 2.0**-STUDY_LEVEL
    xs = DyadicGrid(x_eval - h, x_eval + h, STUDY_LEVEL)
    rows = []
    for j in js:
        p = project(f, fam, j, xs)
        rows.append((j, float(p.values[1])))
    return np.array(rows)


# ---------------------------------------------------------------------------
# rates


@dataclass(frozen=True)
class RateReport:
    family: str
    function: str
    j_values: tuple
    sup_errors: tuple
    slope: float
    intercept: float
    r_squared: float
    quantization_bound: float
    #: the meshes a spline study fitted (None for projection studies)
    fitted_meshes: tuple | None = None


def r_squared(data: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination of pred for data; 0 for constant data."""
    ss_res = float(np.sum((data - pred) ** 2))
    ss_tot = float(np.sum((data - np.mean(data)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, R^2)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    coef = np.polyfit(x, y, 1)
    return float(coef[0]), float(coef[1]), r_squared(y, np.polyval(coef, x))


def rate_report(family: str, function: str, j_values, errors, fitted, truth,
                fitted_meshes=None) -> RateReport:
    """The RateReport of a study: a log2 line through the errors at `fitted`.

    `fitted` lists the indices of the levels the rate is fitted on; the slope
    is the decay exponent of sup_error ~ C 2^{-slope j}.  `truth` is the
    reference on the level-L assertion grid, and the quantization bound
    2^-L times its grid Lipschitz estimate is its largest step.
    """
    slope, intercept, r2 = line_fit(
        [j_values[i] for i in fitted],
        np.log2(np.maximum([errors[i] for i in fitted], 1e-300)),
    )
    return RateReport(
        family=family,
        function=function,
        j_values=tuple(j_values),
        sup_errors=tuple(errors),
        slope=-slope,
        intercept=intercept,
        r_squared=r2,
        quantization_bound=float(np.max(np.abs(np.diff(truth)))),
        fitted_meshes=fitted_meshes,
    )


def _window_grid(window, level):
    return DyadicGrid(float(window[0]), float(window[1]), level)


def _check_jump_margin(tf: TestFunction, window, margin: float) -> None:
    for mp in tf.marked_points:
        if mp.kind == "jump" and window[0] - margin < mp.x < window[1] + margin:
            raise ConvergenceError(
                f"window {window} comes within {margin:.3g} of the jump at {mp.x}"
            )


def check_rate_study(tf: TestFunction, js, window) -> None:
    """Reject a sup-norm rate study before f is tabulated.

    The window must lie inside f's tabulated window, and the fit needs at
    least four levels j >= REGRESSION_MIN_J.
    """
    if window[0] < tf.window[0] or window[1] > tf.window[1]:
        raise ConvergenceError(
            f"window {tuple(window)} is not inside the tabulated window {tf.window} "
            f"of {tf.name}"
        )
    usable = sum(j >= REGRESSION_MIN_J for j in js)
    if usable < 4:
        raise ConvergenceError(
            f"need at least 4 levels >= {REGRESSION_MIN_J} for a rate fit, got {usable}"
        )


def sup_error_rates(
    tf: TestFunction,
    fam: MRAFamily,
    j_range,
    window,
    level: int = STUDY_LEVEL,
) -> RateReport:
    """Grid sup-norm errors of P_j f on a jump-free window, with a rate fit."""
    js = sorted(j_range)
    _check_jump_margin(tf, window, 2.0 ** -min(js))
    check_rate_study(tf, js, window)
    errors = lp_error_trace(tf, fam, math.inf, js, window, level)[:, 1].tolist()
    fitted = [i for i, j in enumerate(js) if j >= REGRESSION_MIN_J]
    truth = tf.truth_on(_window_grid(window, level))
    return rate_report(fam.label, tf.name, js, errors, fitted, truth)


def lp_error_trace(
    tf: TestFunction,
    fam: MRAFamily,
    p,
    j_range,
    window,
    level: int = STUDY_LEVEL,
) -> np.ndarray:
    """(j, ||P_j f - f||_p) pairs on the window grid; jumps are allowed."""
    if p not in (1, 2, math.inf):
        raise ConvergenceError(f"p must be 1, 2 or inf, got {p}")
    js = sorted(j_range)
    if len(js) < 4:
        raise ConvergenceError("need at least 4 levels")
    xs = _window_grid(window, level)
    f = quadrature_sample(tf, fam, level)
    truth = tf.truth_on(xs)
    rows = []
    for j in js:
        d = np.abs(project(f, fam, j, xs).values - truth)
        if p == math.inf:
            err = float(np.max(d))
        else:
            err = float(np.trapezoid(d**p, dx=xs.spacing)) ** (1.0 / p)
        rows.append((j, err))
    return np.array(rows)


# ---------------------------------------------------------------------------
# summation-order robustness


def order_robustness(coeffs: ExpansionCoefficients, schedules, x_points) -> dict:
    """Partial sums of `coeffs` under different summation orders at fixed points.

    Every schedule must be complete for the coefficient set and satisfy its
    declared bounded range; the final values must agree (they are the same
    finite sum), while intermediate prefixes may disperse.  The points are
    snapped right on the STUDY_LEVEL lattice, where the atoms are read.
    """
    for sched in schedules:
        ok, report = validate_schedule(sched)
        if not ok:
            raise ConvergenceError(
                f"schedule violates its bounded range: {report}"
            )
        if not complete_schedule_check(coeffs, sched):
            raise ConvergenceError("schedule is not complete for the coefficient set")

    pts = np.array([_snap_right(x, STUDY_LEVEL) for x in x_points])
    levels = coeffs.levels()
    values = {}
    for (j, terms), gen in zip(levels, ["phi"] + ["psi"] * (len(levels) - 1)):
        rows = atom_rows(coeffs.family, gen, j, [t[-1] for t in terms], pts, STUDY_LEVEL)
        values.update((term, c * row) for (term, c), row in zip(terms.items(), rows))

    finals = []
    prefixes = {rho: [] for rho in PREFIX_FRACTIONS}
    for sched in schedules:
        terms = list(sched.terms())
        cumulative = np.cumsum([values[t] for t in terms], axis=0)
        for rho in PREFIX_FRACTIONS:
            n = max(1, math.ceil(rho * len(terms)))
            prefixes[rho].append(cumulative[n - 1])
        finals.append(cumulative[-1])

    finals = np.array(finals)
    dispersion = {
        rho: float(np.max(np.ptp(np.array(vals), axis=0))) if len(vals) > 1 else 0.0
        for rho, vals in prefixes.items()
    }
    return {
        "x_points": pts,
        "final_values": finals,
        "final_agreement": float(np.max(np.ptp(finals, axis=0))) if len(finals) > 1 else 0.0,
        "prefix_dispersion": dispersion,
    }


# ---------------------------------------------------------------------------
# exports


def export_rate_csv(report: RateReport, path: str) -> None:
    header = ["family", "function", "kind", "j", "sup_error"]
    rows = [
        [report.family, report.function, "sup", int(j), e]
        for j, e in zip(report.j_values, report.sup_errors)
    ]
    write_csv(path, header, rows)


def export_rate_json(report: RateReport, path: str) -> None:
    doc = {
        "family": report.family,
        "function": report.function,
        "j_values": list(report.j_values),
        "sup_errors": list(report.sup_errors),
        "slope": report.slope,
        "intercept": report.intercept,
        "r_squared": report.r_squared,
        "quantization_bound": report.quantization_bound,
    }
    if report.fitted_meshes is not None:
        doc["fitted_meshes"] = list(report.fitted_meshes)
    write_json(path, doc)
