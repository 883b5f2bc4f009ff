"""Command-line front end: families, experiments, exports, acceptance suite.

Subcommands map onto the library modules one-to-one (``family``, ``expand``,
``kernel``, ``rate``, ``sobolev``, ``spline``) plus ``suite``, which runs the
acceptance battery of `waverate.suite` and writes a pass/fail table.  All
configuration is validated before any computation starts; outputs are written
atomically so interrupted runs leave no partial files.

Exit codes: 0 success, 1 bad configuration, 2 computational error,
3 acceptance-suite failure.
"""

from __future__ import annotations

import math
import os
import pickle
import re
import sys
from types import SimpleNamespace

# one BLAS thread unless the caller's environment names a count, set before
# the modules below load numpy: the products of a study are small, and a
# thread pool costs CPU in every process and lives on across `suite --jobs` forks
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .convergence import (
    STUDY_LEVEL,
    quadrature_sample,
    spline_convergence_study,
    sup_error_rates,
    test_function,
)
from .expansion import analyze, check_analysis
from .families import check_family_invariants, parse_family_spec
from .grids import ComputationError, ConfigError
from .kernels import fit_decay, verify_convolution_bound
from .serialize import (coefficients_to_dict, family_to_dict, write_bound_report, write_json,
                        write_rate_csv, write_record, write_summary_csv, write_sweep_csv)
from .sobolev import criterion_sweep, critical_order
from .splines import MAX_ORDER, PERTURBATION_SEED, perturbation_optimality
from .suite import CRITERIA, NAMES

#: a Haar verdict costs well under 1 ms, so the longest sweep takes seconds
MAX_SWEEP_POINTS = 10_000

#: the directory `suite` writes its report into when --out is not given
REPORT_DIR = "suite_report"


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_int_range(text: str) -> range:
    """'3..9' -> range(3, 10) (inclusive endpoints)."""
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise ConfigError(f"expected an integer range like 3..9, got {text!r}")
    try:
        a, b = int(m.group(1)), int(m.group(2))
    except ValueError as exc:  # more digits than int() converts
        raise ConfigError(str(exc)) from None
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"window {text!r} must have finite ends")
    if hi <= lo:
        raise ConfigError(f"window {text!r} is empty")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommand runners (each returns the one-line stdout summary and the exit code)


def run_family(args) -> tuple[str, int]:
    fam = parse_family_spec(args.family)
    defects = check_family_invariants(fam)
    if args.out:
        write_json(args.out, family_to_dict(fam, defects))
    worst = max(defects.values())
    return f"family {fam.label} max_invariant_defect={worst:.3g}", 0


def run_expand(args) -> tuple[str, int]:
    tf = test_function(args.function)
    jr = parse_int_range(args.j)
    if len(jr) < 2:
        raise ConfigError(f"expand needs at least 2 levels j0..j1, got {args.j!r}")
    fam = parse_family_spec(args.family)
    check_analysis(fam, tf.window, args.level, jr[:-1])  # scales j0..j1 - 1
    coeffs = analyze(quadrature_sample(tf, fam, args.level), fam, jr.start, jr.stop - 1)
    if args.out:
        write_json(args.out, coefficients_to_dict(coeffs))
    n = len(coeffs.b) + len(coeffs.a)
    return f"expand {fam.label} {tf.name} j={jr.start}..{jr.stop - 1} terms={n}", 0


def run_kernel(args) -> tuple[str, int]:
    jr = parse_int_range(args.j)
    fam = parse_family_spec(args.family)
    report = verify_convolution_bound(fam, jr)
    fit = None
    if args.fit_decay:
        fit = fit_decay(report["envelope"])
    if args.out:
        write_bound_report(args.out, report, fit)
    verdict = "pass" if report["passes"] else "FAIL"
    return (
        f"kernel {fam.label} collapse={report['collapse_defect']:.3g} "
        f"mass={report['l1_mass']:.4g} bound={verdict}"
    ), 0


def run_rate(args) -> tuple[str, int]:
    tf = test_function(args.function)
    jr = parse_int_range(args.j)
    window = parse_window(args.window) if args.window else (-1.0, 1.0)
    fam = parse_family_spec(args.family)
    report = sup_error_rates(tf, fam, jr, window, level=args.level)
    if args.out:
        (write_rate_csv if args.format == "csv" else write_record)(args.out, report)
    return f"rate {fam.label} {tf.name} slope={report.slope:.4f} r2={report.r_squared:.4f}", 0


def run_sobolev(args) -> tuple[str, int]:
    s_values = parse_sweep(args.sweep_s) if args.sweep_s else ()
    fam = parse_family_spec(args.family)
    if args.sweep_s:
        results = criterion_sweep(fam, s_values, args.epsilon, args.criterion)
        if args.out:
            write_sweep_csv(args.out, results)
        n_div = sum(r.diverged for r in results)
        return (
            f"sobolev {fam.label} sweep n={len(results)} diverged={n_div} "
            f"criterion={args.criterion}"
        ), 0
    co = critical_order(fam, args.epsilon, args.criterion)
    if args.out:
        write_record(args.out, co)
    return f"sobolev {fam.label} s_star={co.s_star:.4f} criterion={args.criterion}", 0


def run_spline(args) -> tuple[str, int]:
    tf = test_function(args.function)
    exponents = parse_int_range(args.mesh_exponents)
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    report, f, fits = spline_convergence_study(tf, args.order, exponents, level=args.level)
    optimal = ""
    if args.check_optimality:
        optimal = f" optimal={perturbation_optimality(f, fits[-1], seed=args.seed)}"
    if args.out:
        (write_rate_csv if args.format == "csv" else write_record)(args.out, report)
    return f"spline k={args.order} {tf.name} slope={report.slope:.4f}{optimal}", 0


def _serve(units, tasks, result_fd, parent) -> None:
    """A forked worker: read the index of the next of the (id, runner)
    `units` from the shared task pipe, run it and send back (index, its rows
    or the exception it raised), until the pipe is empty or the parent is
    gone.  Never returns."""
    code = 1
    try:
        results = os.fdopen(result_fd, "wb")
        while os.getppid() == parent and (task := os.read(tasks, 1)):
            try:
                out = units[task[0]][1]()
            except Exception as exc:  # sent back, with the worker's traceback
                import traceback

                os.read(tasks, len(units))  # take every index left: none starts
                exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
                out = exc
            pickle.dump((task[0], out), results)
            results.flush()
        code = 0
    finally:
        os._exit(code)


def _forked_rows(units, n_workers) -> list:
    """The rows of each of the (id, runner) `units`, run in `n_workers`
    processes forked from this one, which take the units in report order
    from one task pipe.  Once a unit has raised, no unit starts, and the
    earliest unit in report order that raised or whose worker died
    re-raises here.  Every worker is reaped before this returns, and killed
    first if this raises.  The CLI runs no other thread, which fork does not
    copy."""
    import signal

    tasks, queue = os.pipe()
    os.write(queue, bytes(range(len(units))))  # under PIPE_BUF: whole, never blocking
    os.close(queue)
    parent, pids, pipes, results = os.getpid(), [], [], [None] * len(units)
    try:
        for _ in range(n_workers):
            done, result_w = os.pipe()
            pipes.append(os.fdopen(done, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(units, tasks, result_w, parent)
            finally:
                os.close(result_w)
            pids.append(pid)
        for done in pipes:  # no worker waits on another: each to its end in turn
            try:
                while True:
                    index, results[index] = pickle.load(done)
            except (EOFError, pickle.UnpicklingError):  # exited, or died mid-write
                pass
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        for done in pipes:
            done.close()
        for pid in pids:
            os.waitpid(pid, 0)
    for (uid, _), result in zip(units, results):
        if result is None:  # its worker died (a unit unrun after a failure follows it)
            ids = ", ".join(NAMES[uid])
            raise ComputationError(f"the worker of criteria {ids} ended without their rows")
        if isinstance(result, BaseException):
            raise result
    return results


def run_suite(args) -> tuple[str, int]:
    only = args.only or ""  # "" selects every row
    chosen = {
        cid for rows in NAMES.values() for cid, name in rows.items()
        if only in cid or only in name
    }
    # a unit runs whole when any of its rows is chosen
    selected = [(uid, fn) for uid, fn in CRITERIA if chosen & NAMES[uid].keys()]
    if not selected:
        raise ConfigError(f"--only {args.only!r} matches no criteria")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    n_workers = min(args.jobs, len(selected))
    if n_workers == 1:
        results = [fn() for _, fn in selected]
    else:
        results = _forked_rows(selected, n_workers)
    rows = [row for result in results for row in result if row["id"] in chosen]
    out_dir = args.out or REPORT_DIR
    write_summary_csv(os.path.join(out_dir, "summary.csv"), rows)
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


#: the default of an option that must be given
REQUIRED = object()

_OUT = {"--out": (str, None, "output file path")}
# only the studies that tabulate f read --level; the others reject it
_LEVEL = {"--level": (int, STUDY_LEVEL, "tabulation level")}
_FAMILY = {"--family": (str, REQUIRED, "name or name:param, e.g. daubechies:2")}
_FUNCTION = {"--function": (str, REQUIRED, "test function name, e.g. gaussian")}
_FORMAT = {"--format": (("json", "csv"), "json", "output file format")}

#: command -> (help line, {option: (converter, default, help)}, runner).  A
#: converter is str, int, float, a tuple of the accepted values, or bool for
#: a flag.
COMMANDS = {
    "family": ("build a family and check its invariants", {**_OUT, **_FAMILY}, run_family),
    "expand": ("compute expansion coefficients", {
        **_OUT, **_LEVEL, **_FAMILY, **_FUNCTION,
        "--j": (str, REQUIRED, "level range, e.g. 0..6"),
    }, run_expand),
    "kernel": ("projection-kernel convolution bound", {
        **_OUT, **_FAMILY,
        "--j": (str, REQUIRED, "scale range, e.g. 0..6"),
        "--fit-decay": (("exponential",), None, "fit a decay model"),
    }, run_kernel),
    "rate": ("sup-norm convergence-rate regression", {
        **_OUT, **_LEVEL, **_FAMILY, **_FUNCTION,
        "--j": (str, REQUIRED, "level range, e.g. 3..9"),
        "--window": (str, None, "assertion window lo,hi (default -1.0,1.0)"),
        **_FORMAT,
    }, run_rate),
    "sobolev": ("regularity criteria and critical order", {
        **_OUT, **_FAMILY,
        "--sweep-s": (str, None, "sweep lo..hi:step, e.g. 0.1..2.0:0.1"),
        "--criterion": (("wavelet", "scaling"), "wavelet", "the spectrum the shells read"),
        "--epsilon": (float, 1.0, "outer edge of the outermost shell, in (0, pi]"),
    }, run_sobolev),
    "spline": ("best-L2 spline mesh-refinement study", {
        **_OUT, **_LEVEL, **_FUNCTION,
        "--order": (int, REQUIRED, f"spline order k in 1..{MAX_ORDER}"),
        "--mesh-exponents": (str, REQUIRED, "m range with h = 2^-m, e.g. 2..6"),
        **_FORMAT,
        "--check-optimality": (bool, False, "perturbing the finest fit must raise c'Gc - 2c'b"),
        "--seed": (int, PERTURBATION_SEED, "seed of the perturbations"),
    }, run_spline),
    "suite": ("run the acceptance battery", {
        "--out": (str, None, f"report directory (default {REPORT_DIR})"),
        "--only": (str, None, "report only the rows whose id or name matches"),
        "--jobs": (int, 1, "worker processes"),
    }, run_suite),
}


def _help(command=None) -> str:
    """Usage of waverate, or of one command with each option's default."""
    if command is None:
        lines = [f"usage: waverate {{{','.join(COMMANDS)}}} [--option VALUE ...]", "",
                 __doc__.splitlines()[0], "", "commands:"]
        lines += [f"  {name:<9} {doc}" for name, (doc, *_) in COMMANDS.items()]
        return "\n".join(lines)
    doc, options, _ = COMMANDS[command]
    lines = [f"usage: waverate {command} [--option VALUE ...]", "", doc, "", "options:"]
    for name, (convert, default, text) in options.items():
        if convert is not bool:
            name += f" {{{','.join(convert)}}}" if isinstance(convert, tuple) else " VALUE"
            if default is not None:
                text += " (required)" if default is REQUIRED else f" (default {default})"
        lines.append(f"  {name:<24} {text}")
    return "\n".join(lines + [f"  {'-h, --help':<24} show this help and exit"])


def _option(token: str, names) -> str:
    """The option `token` names: itself, or the one option it is a prefix of."""
    if token in names:
        return token
    prefix = len(token) > 2 and token.startswith("--")
    found = [name for name in names if prefix and name.startswith(token)]
    if len(found) != 1:
        what = f"ambiguous (could be {', '.join(found)})" if found else "unknown"
        raise ConfigError(f"{what} option {token}")
    return found[0]


def parse_args(argv=None) -> SimpleNamespace:
    """Read a command line against COMMANDS: the command, and each of its
    options under its name without dashes (``--fit-decay`` -> ``fit_decay``).

    ``--opt value`` and ``--opt=value`` both work, an unambiguous prefix
    names an option, and the last repeat wins.  A value may be a lone ``-``
    or begin with ``-`` and a digit or point (``--window -0.5,0.5``).
    ``-h``/``--help`` prints usage and exits 0; anything malformed raises
    ConfigError."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] and argv[0][:1] == "-":
        _option(argv[0], ("-h", "--help"))  # only help may precede the command
        print(_help())
        sys.exit(0)
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "none"
        raise ConfigError(f"expected a command ({', '.join(COMMANDS)}), got {got}")
    command, options = argv[0], COMMANDS[argv[0]][1]
    values = {name: default for name, (_, default, _) in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        key, glued, value = token.partition("=")
        name = _option(key, (*options, "-h", "--help"))
        convert = options[name][0] if name in options else bool
        if convert is bool:
            if glued:
                raise ConfigError(f"{name} takes no value, got {value!r}")
            if name not in options:
                print(_help(command))
                sys.exit(0)
            values[name] = True
            continue
        if not glued:
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and not re.match(r"-(\.?\d|$)", value)):
                raise ConfigError(f"{name} expects a value")
        if isinstance(convert, tuple):
            if value not in convert:
                raise ConfigError(f"{name} must be {' or '.join(convert)}, got {value!r}")
        else:
            try:
                value = convert(value)
            except ValueError:
                raise ConfigError(f"bad {convert.__name__} for {name}: {value!r}") from None
        values[name] = value
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(
        command=command, **{name[2:].replace("-", "_"): v for name, v in values.items()}
    )


def _check_out(args) -> None:
    """Raise ConfigError if --out is empty, if a command's --out file names a
    directory (it is one, or ends in a separator, ``.`` or ``..``), if the file
    written (``summary.csv`` for `suite`) exists and is not a regular file, or
    if the directory --out writes into lies under a file, that is, if its
    nearest existing ancestor is not a directory."""
    if args.out == "":
        raise ConfigError("--out: empty path")
    out, suite = args.out or "", args.command == "suite"
    if out and not suite and (os.path.basename(out) in ("", ".", "..") or os.path.isdir(out)):
        raise ConfigError(f"--out: {out} names a directory, not a file")
    target = os.path.join(out or REPORT_DIR, "summary.csv") if suite else out
    if os.path.exists(target) and not os.path.isfile(target):
        raise ConfigError(f"--out: {target} is not a regular file")
    path = (out or REPORT_DIR) if suite else os.path.dirname(out)
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise ConfigError(f"--out: {path} is not a directory")


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        _check_out(args)
        summary, code = COMMANDS[args.command][2](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
