"""Command-line front end: families, experiments, exports, acceptance suite.

Subcommands map onto the library modules one-to-one (``family``, ``expand``,
``kernel``, ``rate``, ``sobolev``, ``spline``) plus ``suite``, which runs the
acceptance battery and writes a pass/fail table.  All configuration is
validated before any computation starts; outputs are written atomically so
interrupted runs leave no partial files.

Exit codes: 0 success, 1 bad configuration, 2 computational error,
3 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .convergence import (
    ConvergenceError,
    TestFunction,
    check_rate_study,
    export_rate_csv,
    export_rate_json,
    lp_error_trace,
    midcell_step,
    order_robustness,
    pointwise_trace,
    quadrature_sample,
    sup_error_rates,
    test_function,
)
from .expansion import (
    ExpansionError,
    SummationSchedule,
    analyze,
    check_analysed_scale,
    check_quadrature_lattice,
    interleaved_schedule,
    level_by_level_schedule,
    project,
)
from .families import (
    ConstructionError,
    FamilyError,
    check_family_invariants,
    make_family,
    parse_family_spec,
)
from .grids import DyadicGrid, check_table_level
from .kernels import (
    KernelError,
    export_bound_report,
    fit_decay,
    profile_grid,
    verify_convolution_bound,
)
from .serialize import family_to_dict, write_csv, write_json
from .sobolev import (
    SobolevError,
    check_settings,
    criterion_sweep,
    critical_order,
    export_critical_json,
    export_sweep_csv,
)
from .splines import (
    MAX_ORDER,
    MIN_SAMPLES_PER_CELL,
    PERTURBATION_SEED,
    SplineError,
    best_l2_spline,
    check_study,
    make_space,
    perturbation_optimality,
    residual_orthogonality,
    spline_convergence_study,
)

#: exceptions signalling a computational (not configuration) failure
COMPUTATIONAL_ERRORS = (
    ConstructionError,
    ConvergenceError,
    ExpansionError,
    KernelError,
    SobolevError,
    SplineError,
)

#: a Haar verdict costs well under 1 ms, so the longest sweep takes seconds
MAX_SWEEP_POINTS = 10_000


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 1)."""


@contextlib.contextmanager
def _config_errors(*kinds):
    """Re-raise a check's rejection (an exception of `kinds`) as ConfigError."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2; bad config must be exit 1.

    argparse reads a value that starts with '-' and is not a plain number
    (``--window -0.5,0.5``) as an option, so such a value is glued to the
    option before it (``--window=-0.5,0.5``)."""

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        glued = []
        for token in sys.argv[1:] if args is None else args:
            if glued and re.fullmatch(r"--[^=]+", glued[-1]) and re.match(r"-\.?\d", token):
                glued[-1] += "=" + token
            else:
                glued.append(token)
        return super().parse_known_args(glued, namespace)


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_int_range(text: str) -> range:
    """'3..9' -> range(3, 10) (inclusive endpoints)."""
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise ConfigError(f"expected an integer range like 3..9, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if b < a:
        raise ConfigError(f"empty range {text!r} (end before start)")
    return range(a, b + 1)


def parse_sweep(text: str) -> list[float]:
    """'0.1..2.0:0.1' -> [0.1, 0.2, ..., 2.0]."""
    m = re.fullmatch(r"([^.:]+(?:\.[^.:]+)?)\.\.([^.:]+(?:\.[^.:]+)?):(.+)", text)
    if not m:
        raise ConfigError(f"expected a sweep like 0.1..2.0:0.1, got {text!r}")
    try:
        lo, hi, step = (float(g) for g in m.groups())
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}: {exc}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"sweep {text!r} must have finite ends and step")
    if step <= 0 or hi < lo:
        raise ConfigError(f"sweep {text!r} must be increasing with positive step")
    steps = (hi - lo) / step + 1e-9  # inf when the quotient overflows
    if not steps < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep {text!r} has more than {MAX_SWEEP_POINTS} points")
    return [lo + i * step for i in range(int(math.floor(steps)) + 1)]


def parse_window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected a window like -1.0,1.0, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from None
    if hi <= lo:
        raise ConfigError(f"window {text!r} is empty")
    return lo, hi


def lookup_function(name: str) -> TestFunction:
    with _config_errors(ConvergenceError):
        return test_function(name)


def _family(spec: str):
    with _config_errors(FamilyError, ValueError):
        return parse_family_spec(spec)


def _check_grids(fam, tf: TestFunction, level: int, js: range, window=None) -> None:
    """Reject analysed scales js that reach f's quadrature lattice, tables finer
    than MAX_TABLE_LEVEL, an odd quadrature lattice and, for a rate study, a
    window that is not dyadic or not inside f's window and too few levels to
    fit, before any compute."""
    with _config_errors(ValueError):
        check_table_level(check_analysed_scale(fam, level, js[-1]))
        if window is not None:
            DyadicGrid(window[0], window[1], level)
            check_rate_study(tf, js, window)
        check_quadrature_lattice(fam, DyadicGrid(tf.window[0], tf.window[1], level))


# ---------------------------------------------------------------------------
# subcommand runners (each returns the one-line stdout summary)


def run_family(args) -> str:
    fam = _family(args.family)
    defects = check_family_invariants(fam)
    if args.out:
        doc = family_to_dict(fam)
        doc["invariant_defects"] = defects
        write_json(args.out, doc)
    worst = max(defects.values())
    return f"family {fam.label} max_invariant_defect={worst:.3g}"


def run_expand(args) -> str:
    tf = lookup_function(args.function)
    jr = parse_int_range(args.j)
    if len(jr) < 2:
        raise ConfigError(f"expand needs at least 2 levels j0..j1, got {args.j!r}")
    fam = _family(args.family)
    _check_grids(fam, tf, args.level, range(jr.start, jr.stop - 1))  # the wavelet scales
    coeffs = analyze(quadrature_sample(tf, fam, args.level), fam, jr.start, jr.stop - 1)
    if args.out:
        from .serialize import coefficients_to_dict

        write_json(args.out, coefficients_to_dict(coeffs))
    n = len(coeffs.b) + len(coeffs.a)
    return f"expand {fam.label} {tf.name} j={jr.start}..{jr.stop - 1} terms={n}"


def run_kernel(args) -> str:
    jr = parse_int_range(args.j)
    if jr.start < 0 or len(jr) < 3:
        raise ConfigError(f"kernel needs at least 3 scales j >= 0, got {args.j!r}")
    fam = _family(args.family)
    with _config_errors(ValueError):
        profile_grid(fam, jr[-1])  # the finest: its level must be a finite power of 2
    report = verify_convolution_bound(fam, jr)
    fit = None
    if args.fit_decay:
        fit = fit_decay(report["envelope"])
    if args.out:
        export_bound_report(report, fit, args.out)
    verdict = "pass" if report["passes"] else "FAIL"
    return (
        f"kernel {fam.label} collapse={report['collapse_defect']:.3g} "
        f"mass={report['l1_mass']:.4g} bound={verdict}"
    )


def _export_rate(report, args) -> None:
    """Write a rate or spline study's RateReport as --format asks."""
    if args.out:
        (export_rate_csv if args.format == "csv" else export_rate_json)(report, args.out)


def run_rate(args) -> str:
    tf = lookup_function(args.function)
    jr = parse_int_range(args.j)
    window = parse_window(args.window) if args.window else (-1.0, 1.0)
    fam = _family(args.family)
    _check_grids(fam, tf, args.level, jr, window)
    report = sup_error_rates(tf, fam, jr, window, level=args.level)
    _export_rate(report, args)
    return f"rate {fam.label} {tf.name} slope={report.slope:.4f} r2={report.r_squared:.4f}"


def run_sobolev(args) -> str:
    s_values = parse_sweep(args.sweep_s) if args.sweep_s else ()
    with _config_errors(SobolevError):
        check_settings(args.epsilon, s_values)
    fam = _family(args.family)
    if args.sweep_s:
        results = criterion_sweep(fam, s_values, args.epsilon, args.criterion)
        if args.out:
            export_sweep_csv(results, args.out)
        n_div = sum(r.diverged for r in results)
        return (
            f"sobolev {fam.label} sweep n={len(results)} diverged={n_div} "
            f"criterion={args.criterion}"
        )
    co = critical_order(fam, args.epsilon, args.criterion)
    if args.out:
        export_critical_json(co, args.out)
    return f"sobolev {fam.label} s_star={co.s_star:.4f} criterion={args.criterion}"


def run_spline(args) -> str:
    tf = lookup_function(args.function)
    exponents = parse_int_range(args.mesh_exponents)
    # bound the range by its ends before its meshes exist: coarser meshes
    # overflow the window, finer ones span too few cells of the --level grid
    lo = math.ceil(-math.log2(tf.window[1] - tf.window[0]))
    hi = args.level - int(math.log2(MIN_SAMPLES_PER_CELL))
    if not lo <= exponents[0] <= exponents[-1] <= hi:
        raise ConfigError(f"mesh exponents must lie in {lo}..{hi} at --level {args.level}")
    meshes = [2.0**-m for m in exponents]
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    with _config_errors(SplineError):
        check_study(tf.window, args.order, meshes, args.level)
    report, f, fits = spline_convergence_study(tf, args.order, meshes, level=args.level)
    optimal = ""
    if args.check_optimality:
        optimal = f" optimal={perturbation_optimality(f, fits[-1], seed=args.seed)}"
    _export_rate(report, args)
    return f"spline k={args.order} {tf.name} slope={report.slope:.4f}{optimal}"


# ---------------------------------------------------------------------------
# acceptance battery (shared with tests/test_acceptance.py)

_STANDARD_FAMILIES = (
    ("haar", 0),
    ("daubechies", 2),
    ("daubechies", 3),
    ("battle_lemarie", 2),
)


def _row(cid, name, expected, observed, ok, expected_fail=False):
    if expected_fail:
        status = "expected-fail" if not ok else "PASS"
    else:
        status = "PASS" if ok else "FAIL"
    return {
        "id": cid,
        "name": name,
        "expected": expected,
        "observed": observed,
        "status": status,
    }


def crit_mra_invariants():
    start = time.monotonic()
    worst = 0.0
    for name, param in _STANDARD_FAMILIES:
        defects = check_family_invariants(make_family(name, param))
        worst = max(worst, max(defects.values()))
    ok = time.monotonic() - start < 30.0
    return _row(
        "1",
        "mra-invariants",
        "4 families pass in < 30 s",
        f"max_defect={worst:.3g}",
        ok,
    )


def _haar_cell_average_defects(haar, tf, js, level: int = 12) -> list[float]:
    """Sup distance between project(f, haar, j) and a direct cell-average
    oracle for each j in js, from one sample of f.

    The oracle averages the sampler at cell-interior midpoints, which never
    touch the dyadic lattice where jump values follow the midpoint
    convention; composite midpoint quadrature there is exact for the
    piecewise-linear targets and O(h^2) otherwise.  Row c of the
    (n_cells, per) midpoint array is cell c; one sampler call and one
    row mean give every cell average.
    """
    f = quadrature_sample(tf, haar, level)
    xs = DyadicGrid(tf.window[0], tf.window[1], level)
    h = xs.spacing
    defects = []
    for j in js:
        pj = project(f, haar, j, xs)
        per = 2 ** (level - j)
        n_cells = (xs.count - 1) // per
        lefts = xs.left + np.arange(n_cells) * per * h
        mids = lefts[:, None] + (np.arange(per) + 0.5) * h
        avg = np.asarray(tf.sampler(mids), dtype=float).mean(axis=1)
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
        "haar-projection-oracle",
        "cell-average defect < 1e-6 (ramp, gaussian; j 0..8)",
        f"max_defect={worst:.3g}",
        worst < 1e-6,
    )


def crit_kernel_bound():
    reports = {
        label: verify_convolution_bound(make_family(*spec), range(0, 7))
        for label, spec in (("haar", ("haar", 0)), ("db2", ("daubechies", 2)))
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
        "kernel-convolution-bound",
        "collapse < 0.05, tails < 10% mass, haar mass 2 +- 0.05",
        f"collapse={collapse:.3g} haar_mass={mass:.4g}",
        ok,
    )


def crit_kernel_bound_shannon():
    rep = verify_convolution_bound(make_family("shannon"), range(0, 5))
    return _row(
        "3b",
        "kernel-bound-shannon",
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
        "exponential-decay-fit",
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
        "lebesgue-point-convergence",
        "|P_j f(0)| <= (8/7) 4^-j (1 + 0.05) for j 2..10",
        f"max_ratio={margin:.4f}",
        margin <= 1.05,
    )


def crit_summation_order():
    haar = make_family("haar")
    coeffs = analyze(quadrature_sample(test_function("gaussian"), haar), haar, 0, 6)
    schedules = [level_by_level_schedule(coeffs), interleaved_schedule(coeffs, 2)]
    rep = order_robustness(coeffs, schedules, np.linspace(-1.0, 1.0, 50))
    groups = list(level_by_level_schedule(coeffs).groups)
    held = groups[1][0]
    groups[1] = groups[1][1:]
    groups.append((held,))
    straggler = SummationSchedule(tuple(groups), 1)
    try:
        order_robustness(coeffs, [straggler], np.linspace(-1.0, 1.0, 10))
        rejected = False
    except ConvergenceError:
        rejected = True
    ok = rep["final_agreement"] < 1e-10 and rejected
    return _row(
        "6",
        "summation-order-robustness",
        "schedules agree within 1e-10; unbounded-range schedule rejected",
        f"agreement={rep['final_agreement']:.3g} rejected={rejected}",
        ok,
    )


#: the families of criteria 7, 8 and 9: label -> make_family arguments
_BATTERY_FAMILIES = {
    "haar": ("haar", 0),
    "db2": ("daubechies", 2),
    "bl2": ("battle_lemarie", 2),
}

_SLOPE_TARGETS = {
    "haar": (0.85, 1.1),
    "db2": (1.8, 2.2),
    "bl2": (1.8, 2.2),
}


@functools.cache
def _slope_reports():
    """Criterion 7's sup-norm studies, shared with criterion 9 within one
    suite run (`run_suite` clears the cache).  Two threads may both compute
    them; either result is the same."""
    gaussian = test_function("gaussian")
    return {
        label: sup_error_rates(gaussian, make_family(*spec), range(3, 10), (-1.0, 1.0))
        for label, spec in _BATTERY_FAMILIES.items()
    }


def crit_rate_slopes():
    reports = _slope_reports()
    ok = all(
        _SLOPE_TARGETS[label][0] <= r.slope <= _SLOPE_TARGETS[label][1]
        and r.r_squared > 0.99
        for label, r in reports.items()
    )
    observed = " ".join(f"{label}={r.slope:.3f}" for label, r in reports.items())
    return _row(
        "7",
        "rate-slopes",
        "haar in [0.85,1.1]; db2, bl2 in [1.8,2.2]; R^2 > 0.99",
        observed,
        ok,
    )


_CRITICAL_TARGETS = {
    "haar": (1.0, 0.1),
    "db2": (2.0, 0.15),
    "bl2": (2.0, 0.15),
}


@functools.cache
def _critical_orders():
    """Criterion 8's (family, wavelet critical order at eps = 1) pairs,
    shared with criterion 9 like `_slope_reports`."""
    fams = {label: make_family(*spec) for label, spec in _BATTERY_FAMILIES.items()}
    return {label: (fam, critical_order(fam)) for label, fam in fams.items()}


def crit_critical_orders():
    results = _critical_orders()
    eps_ok = True
    for fam, co in results.values():
        around = (co.s_star - 0.3, co.s_star + 0.3)
        by_eps = [
            [r.diverged for r in criterion_sweep(fam, around, eps)]
            for eps in (0.5, 1.0, 2.0)
        ]
        # one verdict per s across every eps
        eps_ok &= all(len(set(verdicts)) == 1 for verdicts in zip(*by_eps))
    ok = eps_ok and all(
        abs(results[label][1].s_star - target) <= tol
        for label, (target, tol) in _CRITICAL_TARGETS.items()
    )
    observed = " ".join(f"{label}={co.s_star:.3f}" for label, (_, co) in results.items())
    return _row(
        "8",
        "critical-orders",
        "haar 1.0 +- 0.1; db2, bl2 2.0 +- 0.15; eps-independent verdicts",
        f"{observed} eps_independent={eps_ok}",
        ok,
    )


def crit_rate_criterion_consistency():
    reports = _slope_reports()
    ok = True
    pieces = []
    for label, (fam, co) in _critical_orders().items():
        a = co.s_star
        b = critical_order(fam, criterion="scaling").s_star
        gap = abs(reports[label].slope - a)
        ok &= gap <= 0.25 and abs(a - b) <= 0.15
        pieces.append(f"{label}:|slope-s*|={gap:.3f},|w-s|={abs(a - b):.3f}")
    return _row(
        "9",
        "rate-criterion-consistency",
        "|slope - s*| <= 0.25; wavelet vs scaling thresholds within 0.15",
        " ".join(pieces),
        ok,
    )


def crit_lp_convergence():
    haar = make_family("haar")
    worst_rel = 0.0
    for j in range(2, 9):
        tf = midcell_step(j)
        tr = lp_error_trace(tf, haar, 1, range(j, j + 4), (-2.0, 2.0))
        worst_rel = max(worst_rel, abs(tr[0][1] / 2.0 ** -(j + 1) - 1.0))
    sup_tr = lp_error_trace(midcell_step(4), haar, math.inf, range(2, 9), (-2.0, 2.0))
    sup_floor = float(np.min(sup_tr[:, 1]))
    ok = worst_rel <= 0.10 and sup_floor >= 0.4
    return _row(
        "10",
        "lp-convergence",
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
        sj = approx.on_lattice(xs.level, round(math.ldexp(xs.left, xs.level)), xs.count)
        haar_gap = max(haar_gap, float(np.max(np.abs(sj - pj.values))))
    # the sine study's level-12 table and its mesh-0.25 fit serve the
    # orthogonality check
    meshes = [2.0**-m for m in range(2, 7)]
    rep, sine_f, fits = spline_convergence_study(test_function("sine"), 2, meshes)
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
        "spline-convergence",
        "k=1 equals haar within 1e-8; sine halving ratio in [3.4,4.6]; "
        "orthogonality < 1e-8 rel",
        f"haar_gap={haar_gap:.3g} ratios=[{min(ratios):.2f},{max(ratios):.2f}] "
        f"orth={orth:.3g}",
        ok,
    )


def crit_determinism():
    # artifact-level check: the same report must render to identical bytes
    # twice (the acceptance test additionally compares two full suite runs)
    haar = make_family("haar")
    rep = sup_error_rates(test_function("gaussian"), haar, range(3, 8), (-1.0, 1.0))
    import tempfile

    renders = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            path = os.path.join(tmp, f"{tag}.json")
            export_rate_json(rep, path)
            with open(path, "rb") as fh:
                renders.append(fh.read())
    ok = renders[0] == renders[1]
    return _row(
        "12",
        "determinism",
        "identical config renders byte-identical artifacts",
        f"byte_identical={ok}",
        ok,
    )


#: ordered acceptance battery: (id, runner)
CRITERIA = (
    ("1", crit_mra_invariants),
    ("2", crit_haar_projection_oracle),
    ("3", crit_kernel_bound),
    ("3b", crit_kernel_bound_shannon),
    ("4", crit_exponential_decay_fit),
    ("5", crit_lebesgue_point),
    ("6", crit_summation_order),
    ("7", crit_rate_slopes),
    ("8", crit_critical_orders),
    ("9", crit_rate_criterion_consistency),
    ("10", crit_lp_convergence),
    ("11", crit_spline_convergence),
    ("12", crit_determinism),
)


def run_suite(args) -> tuple[str, int]:
    selected = [
        (cid, fn)
        for cid, fn in CRITERIA
        if not args.only or args.only in cid or args.only in fn.__name__
    ]
    if not selected:
        raise ConfigError(f"--only {args.only!r} matches no criteria")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    _slope_reports.cache_clear()
    _critical_orders.cache_clear()
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(lambda item: item[1](), selected))
    out_dir = args.out or "suite_report"
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["criterion", "name", "expected", "observed", "status"],
        [[r["id"], r["name"], r["expected"], r["observed"], r["status"]] for r in rows],
    )
    failed = [r["id"] for r in rows if r["status"] == "FAIL"]
    n_pass = sum(r["status"] == "PASS" for r in rows)
    summary = (
        f"suite {n_pass}/{len(rows)} passed"
        + (f" FAILED: {','.join(failed)}" if failed else "")
        + f" -> {os.path.join(out_dir, 'summary.csv')}"
    )
    return summary, (3 if failed else 0)


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="waverate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, level=False, **kwargs):
        # only the studies that tabulate f read --level; the others reject it
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="output file path")
        if level:
            p.add_argument(
                "--level", type=int, default=12, help="tabulation level (default 12)"
            )
        return p

    p = add("family", help="build a family and check its invariants")
    p.add_argument("--family", required=True, help="name or name:param, e.g. daubechies:2")

    p = add("expand", level=True, help="compute expansion coefficients")
    p.add_argument("--family", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--j", required=True, help="level range, e.g. 0..6")

    p = add("kernel", help="projection-kernel convolution bound")
    p.add_argument("--family", required=True)
    p.add_argument("--j", required=True, help="scale range, e.g. 0..6")
    p.add_argument("--fit-decay", choices=["exponential"], help="fit a decay model")

    p = add("rate", level=True, help="sup-norm convergence-rate regression")
    p.add_argument("--family", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--j", required=True, help="level range, e.g. 3..9")
    p.add_argument("--window", help="assertion window lo,hi (default -1.0,1.0)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("sobolev", help="regularity criteria and critical order")
    p.add_argument("--family", required=True)
    p.add_argument("--sweep-s", help="sweep lo..hi:step, e.g. 0.1..2.0:0.1")
    p.add_argument("--criterion", choices=["wavelet", "scaling"], default="wavelet")
    p.add_argument("--epsilon", type=float, default=1.0)

    p = add("spline", level=True, help="best-L2 spline mesh-refinement study")
    p.add_argument("--function", required=True)
    p.add_argument(
        "--order", type=int, required=True, help=f"spline order k in 1..{MAX_ORDER}"
    )
    p.add_argument(
        "--mesh-exponents", required=True, help="m range with h = 2^-m, e.g. 2..6"
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--check-optimality", action="store_true")
    p.add_argument("--seed", type=int, default=PERTURBATION_SEED)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--out", help="report directory (default suite_report)")
    p.add_argument("--only", help="run only criteria whose id or name matches")
    p.add_argument("--jobs", type=int, default=1, help="worker threads")

    return parser


_RUNNERS = {
    "family": run_family,
    "expand": run_expand,
    "kernel": run_kernel,
    "rate": run_rate,
    "sobolev": run_sobolev,
    "spline": run_spline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "suite":
            summary, code = run_suite(args)
        else:
            summary = _RUNNERS[args.command](args)
            code = 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except COMPUTATIONAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
