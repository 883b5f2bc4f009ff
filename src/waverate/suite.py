"""The acceptance battery: each criterion checks one claim of the paper or
one contract of the toolkit and is one row of the suite's summary.csv.

``CRITERIA`` lists the battery's units in report order, each a runner that
returns the tuple of its rows, and ``NAMES`` each unit's row ids and names.
Every unit is one row but the one of criteria 7, 8 and 9, which read the
same sup-norm studies and critical orders and so compute them once, in one
pass per family of `_BATTERY`.  ``waverate suite`` (`cli.run_suite`) runs the units, and
tests/test_acceptance.py runs each on its own.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from .convergence import (
    STUDY_LEVEL,
    lp_error_trace,
    midcell_step,
    order_robustness,
    pointwise_trace,
    quadrature_sample,
    spline_convergence_study,
    sup_error_rates,
    test_function,
)
from .expansion import (
    SummationSchedule,
    analyze,
    interleaved_schedule,
    level_by_level_schedule,
    project,
)
from .families import check_family_invariants, make_family
from .grids import ConfigError, DyadicGrid
from .kernels import fit_decay, verify_convolution_bound
from .serialize import write_record
from .sobolev import criterion_sweep, critical_order
from .splines import best_l2_spline, make_space, residual_orthogonality

_STANDARD_FAMILIES = (
    ("haar", None),
    ("daubechies", 2),
    ("daubechies", 3),
    ("battle_lemarie", 2),
)


def _row(cid, expected, observed, ok, expected_fail=False) -> tuple[dict]:
    """Row `cid` of summary.csv, named from NAMES, as the one-row tuple that
    a unit of one row returns; a unit of several rows adds theirs up."""
    if expected_fail:
        status = "expected-fail" if not ok else "PASS"
    else:
        status = "PASS" if ok else "FAIL"
    name = next(rows[cid] for rows in NAMES.values() if cid in rows)
    return ({"id": cid, "name": name, "expected": expected, "observed": observed,
             "status": status},)


def crit_mra_invariants():
    start = time.monotonic()
    worst = 0.0
    for name, param in _STANDARD_FAMILIES:
        defects = check_family_invariants(make_family(name, param))
        worst = max(worst, max(defects.values()))
    ok = time.monotonic() - start < 30.0
    return _row(
        "1",
        "4 families pass in < 30 s",
        f"max_defect={worst:.3g}",
        ok,
    )


def _haar_cell_average_defects(haar, tf, js) -> list[float]:
    """Sup distance between project(f, haar, j) and a direct cell-average
    oracle for each j in js, from one sample of f at STUDY_LEVEL.

    The oracle averages the sampler at cell-interior midpoints, which never
    touch the dyadic lattice where jump values follow the midpoint
    convention; composite midpoint quadrature there is exact for the
    piecewise-linear targets and O(h^2) otherwise.  The midpoints are the
    half-offset STUDY_LEVEL lattice at every j, sampled once; row c of their
    (n_cells, per) reshape is cell c, and one row mean gives every cell
    average.
    """
    f = quadrature_sample(tf, haar)
    xs = DyadicGrid(tf.window[0], tf.window[1], STUDY_LEVEL)
    mids = np.asarray(tf.sampler(xs.points(0, xs.count - 1) + xs.spacing / 2), dtype=float)
    defects = []
    for j in js:
        pj = project(f, haar, j, xs)
        per = 2 ** (STUDY_LEVEL - j)
        n_cells = (xs.count - 1) // per
        avg = mids[: n_cells * per].reshape(n_cells, per).mean(axis=1)
        # compare on the open interior of each cell (midpoint values sit on
        # the cell boundaries)
        interior = pj.values[: n_cells * per].reshape(n_cells, per)[:, 1:]
        defects.append(float(np.max(np.abs(interior - avg[:, None]))))
    return defects


def crit_haar_projection_oracle():
    haar = make_family("haar")
    worst = max(
        max(_haar_cell_average_defects(haar, test_function(fname), range(0, 9)))
        for fname in ("ramp", "gaussian")
    )
    return _row(
        "2",
        "cell-average defect < 1e-6 (ramp, gaussian; j 0..8)",
        f"max_defect={worst:.3g}",
        worst < 1e-6,
    )


def crit_kernel_bound():
    reports = {
        label: verify_convolution_bound(make_family(*spec), range(0, 7))
        for label, spec in (("haar", ("haar", None)), ("db2", ("daubechies", 2)))
    }
    collapse = max(r["collapse_defect"] for r in reports.values())
    mass = reports["haar"]["l1_mass"]
    ok = (
        all(r["passes"] for r in reports.values())
        and collapse < 0.05
        and abs(mass - 2.0) <= 0.05
    )
    return _row(
        "3",
        "collapse < 0.05, tails < 10% mass, haar mass 2 +- 0.05",
        f"collapse={collapse:.3g} haar_mass={mass:.4g}",
        ok,
    )


def crit_kernel_bound_shannon():
    rep = verify_convolution_bound(make_family("shannon"), range(0, 5))
    return _row(
        "3b",
        "sinc kernel has no L1 radial majorant",
        f"passes={rep['passes']} tail={rep['tail_estimate']:.3g}",
        rep["passes"],
        expected_fail=True,
    )


def crit_exponential_decay_fit():
    rep = verify_convolution_bound(make_family("battle_lemarie", 2), range(0, 7))
    fit = fit_decay(rep["envelope"])
    ok = fit.rate > 0 and fit.r2 > 0.98 and not fit.flagged
    return _row(
        "4",
        "a > 0 and R^2 > 0.98",
        f"a={fit.rate:.4f} r2={fit.r2:.4f}",
        ok,
    )


def crit_lebesgue_point():
    haar = make_family("haar")
    tr = pointwise_trace(test_function("oscillating_indicator"), haar, 0.0, range(2, 11))
    margin = max(abs(v) / ((8.0 / 7.0) * 4.0**-j) for j, v in tr)
    return _row(
        "5",
        "|P_j f(0)| <= (8/7) 4^-j (1 + 0.05) for j 2..10",
        f"max_ratio={margin:.4f}",
        margin <= 1.05,
    )


def crit_summation_order():
    haar = make_family("haar")
    coeffs = analyze(quadrature_sample(test_function("gaussian"), haar), haar, 0, 6)
    order_robustness(coeffs, [level_by_level_schedule(coeffs), interleaved_schedule(coeffs, 2)])
    groups = list(level_by_level_schedule(coeffs).groups)
    held = groups[1][0]
    groups[1] = groups[1][1:]
    groups.append((held,))
    straggler = SummationSchedule(tuple(groups), 1)
    try:
        order_robustness(coeffs, [straggler])
        rejected = False
    except ConfigError:
        rejected = True
    return _row(
        "6",
        "unbounded-range schedule rejected",
        f"rejected={rejected}",
        rejected,
    )


#: the families of criteria 7, 8 and 9: label -> (make_family arguments,
#: row 7's window for the gaussian's sup-norm slope, row 8's (s*, tolerance))
_BATTERY = {
    "haar": (("haar", None), (0.85, 1.1), (1.0, 0.1)),
    "db2": (("daubechies", 2), (1.8, 2.2), (2.0, 0.15)),
    "bl2": (("battle_lemarie", 2), (1.8, 2.2), (2.0, 0.15)),
}


def crit_rate_and_critical_orders():
    """Rows 7, 8 and 9, one claim of the paper read off one pass per family:
    its sup-norm rate on the gaussian (7) and its wavelet critical order s*,
    whose verdicts must not depend on eps (8), must agree, and so must its
    wavelet and scaling critical orders (9)."""
    gaussian = test_function("gaussian")
    slopes, orders, gaps = [], [], []
    slopes_ok = orders_ok = gaps_ok = eps_ok = True
    for label, (spec, (lo, hi), (target, tol)) in _BATTERY.items():
        fam = make_family(*spec)
        rep = sup_error_rates(gaussian, fam, range(3, 10), (-1.0, 1.0))
        s = critical_order(fam).s_star
        by_eps = [[r.diverged for r in criterion_sweep(fam, (s - 0.3, s + 0.3), eps)]
                  for eps in (0.5, 1.0, 2.0)]
        # one verdict per s across every eps
        eps_ok &= all(len(set(verdicts)) == 1 for verdicts in zip(*by_eps))
        gap = abs(rep.slope - s)
        ws = abs(s - critical_order(fam, criterion="scaling").s_star)
        slopes_ok &= lo <= rep.slope <= hi and rep.r_squared > 0.99
        orders_ok &= abs(s - target) <= tol
        gaps_ok &= gap <= 0.25 and ws <= 0.15
        slopes.append(f"{label}={rep.slope:.3f}")
        orders.append(f"{label}={s:.3f}")
        gaps.append(f"{label}:|slope-s*|={gap:.3f},|w-s|={ws:.3f}")
    return _row(
        "7",
        "haar in [0.85,1.1]; db2, bl2 in [1.8,2.2]; R^2 > 0.99",
        " ".join(slopes),
        slopes_ok,
    ) + _row(
        "8",
        "haar 1.0 +- 0.1; db2, bl2 2.0 +- 0.15; eps-independent verdicts",
        " ".join(orders) + f" eps_independent={eps_ok}",
        eps_ok and orders_ok,
    ) + _row(
        "9",
        "|slope - s*| <= 0.25; wavelet vs scaling thresholds within 0.15",
        " ".join(gaps),
        gaps_ok,
    )


def crit_lp_convergence():
    haar = make_family("haar")
    worst_rel, sup_floor = 0.0, math.inf
    for j in range(2, 9):
        tf = midcell_step(j)
        l1, sup = (lp_error_trace(tf, haar, p, range(j, j + 1), (-1.0, 1.0))[0][1]
                   for p in (1, math.inf))
        worst_rel = max(worst_rel, abs(l1 / 2.0 ** -(j + 1) - 1.0))
        sup_floor = min(sup_floor, sup)
    ok = worst_rel <= 0.10 and sup_floor >= 0.4
    return _row(
        "10",
        "L1 error 2^-(j+1) within 10% (j 2..8); sup error >= 0.4",
        f"max_rel_l1={worst_rel:.3g} sup_floor={sup_floor:.3f}",
        ok,
    )


def crit_spline_convergence():
    haar = make_family("haar")
    tf = test_function("gaussian")
    # level 13: at level 12 the dyadic midpoint quadrature on the projection
    # side leaves ~2e-8 disagreement with the Simpson spline loads
    f = tf.tabulate(13)
    xs = DyadicGrid(-2.0, 2.0, 13)
    haar_gap = 0.0
    for j in (2, 3, 4):
        pj = project(f, haar, j, xs)
        approx = best_l2_spline(f, make_space(1, 2.0**-j, tf.window))
        sj = approx.on_lattice(xs.level, xs.start, xs.count)
        haar_gap = max(haar_gap, float(np.max(np.abs(sj - pj.values))))
    # the sine study's level-12 table and its mesh-0.25 fit serve the
    # orthogonality check
    rep, sine_f, fits = spline_convergence_study(test_function("sine"), 2, range(2, 7))
    ratios = [a / b for a, b in zip(rep.sup_errors, rep.sup_errors[1:])]
    norm = float(np.sqrt(np.trapezoid(sine_f.values**2, dx=sine_f.grid.spacing)))
    orth = residual_orthogonality(sine_f, fits[0]) / norm
    ok = (
        haar_gap < 1e-8
        and all(3.4 <= r <= 4.6 for r in ratios)
        and orth < 1e-8
    )
    return _row(
        "11",
        "k=1 equals haar within 1e-8; sine halving ratio in [3.4,4.6]; "
        "orthogonality < 1e-8 rel",
        f"haar_gap={haar_gap:.3g} ratios=[{min(ratios):.2f},{max(ratios):.2f}] "
        f"orth={orth:.3g}",
        ok,
    )


def crit_determinism():
    # artifact-level check: one study computed twice, each on its own fresh
    # family, must render to identical bytes (the acceptance test
    # additionally compares two full suite runs)
    import tempfile

    renders = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            rep = sup_error_rates(
                test_function("gaussian"), make_family("haar"), range(3, 8), (-1.0, 1.0)
            )
            path = os.path.join(tmp, f"{tag}.json")
            write_record(path, rep)
            with open(path, "rb") as fh:
                renders.append(fh.read())
    ok = renders[0] == renders[1]
    return _row(
        "12",
        "identical config renders byte-identical artifacts",
        f"byte_identical={ok}",
        ok,
    )


#: each unit's rows in report order, {row id: row name}, by the unit's id
#: (its first row's); ``suite --only`` matches a row's id or name
NAMES = {
    "1": {"1": "mra-invariants"},
    "2": {"2": "haar-projection-oracle"},
    "3": {"3": "kernel-convolution-bound"},
    "3b": {"3b": "kernel-bound-shannon"},
    "4": {"4": "exponential-decay-fit"},
    "5": {"5": "lebesgue-point-convergence"},
    "6": {"6": "summation-order-robustness"},
    "7": {"7": "rate-slopes", "8": "critical-orders", "9": "rate-criterion-consistency"},
    "10": {"10": "lp-convergence"},
    "11": {"11": "spline-convergence"},
    "12": {"12": "determinism"},
}

#: ordered acceptance battery: (unit id, runner returning the unit's rows)
CRITERIA = (
    ("1", crit_mra_invariants),
    ("2", crit_haar_projection_oracle),
    ("3", crit_kernel_bound),
    ("3b", crit_kernel_bound_shannon),
    ("4", crit_exponential_decay_fit),
    ("5", crit_lebesgue_point),
    ("6", crit_summation_order),
    ("7", crit_rate_and_critical_orders),
    ("10", crit_lp_convergence),
    ("11", crit_spline_convergence),
    ("12", crit_determinism),
)
