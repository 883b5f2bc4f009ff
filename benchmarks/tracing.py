"""Layer spans installed around waverate's public functions from outside.

The tracer replaces each traced function by a wrapper in every waverate
module namespace that binds it, so callers that imported it by name see the
wrapper too.  A span records its name, its parent span, its thread, its
start and end, and the minor page faults of its thread (``ru_minflt`` of
``RUSAGE_THREAD``).  Self time and self faults are a span's own figures
minus those of its child spans.  Spans stay in memory until ``write``.

The suite's criteria are wrapped through ``cli.CRITERIA``; a criterion's
time is reported inclusive of its children, because that is what the suite
waits for.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import sys
import threading
import time

#: criterion ids of the acceptance battery, in ``cli.CRITERIA`` order
CRITERION_IDS = ("1", "2", "3", "3b", "4", "5", "6", "7", "8", "9", "10", "11", "12")

#: per-layer metrics printed by a traced run: (name, unit)
LAYER_METRICS = (
    ("grids.eval_calls", "count"),
    ("grids.eval_points", "count"),
    ("grids.eval_s", "s"),
    ("grids.eval_minflt", "count"),
    ("grids.quad_calls", "count"),
    ("grids.quad_s", "s"),
    ("filters.design_s", "s"),
    ("families.build_calls", "count"),
    ("families.build_s", "s"),
    ("families.invariants_s", "s"),
    ("families.refine_calls", "count"),
    ("families.refine_s", "s"),
    ("families.minflt", "count"),
    ("expansion.project_calls", "count"),
    ("expansion.project_s", "s"),
    ("expansion.analyze_s", "s"),
    ("expansion.coefficients", "count"),
    ("expansion.minflt", "count"),
    ("kernels.matrix_calls", "count"),
    ("kernels.matrix_entries", "count"),
    ("kernels.matrix_s", "s"),
    ("kernels.profile_s", "s"),
    ("sobolev.spectrum_s", "s"),
    ("sobolev.evaluate_calls", "count"),
    ("sobolev.evaluate_s", "s"),
    ("sobolev.exponentials", "count"),
    ("sobolev.evaluate_peak_mb", "MB"),
    ("sobolev.verdicts", "count"),
    ("convergence.tabulate_s", "s"),
    ("convergence.study_s", "s"),
    ("splines.solve_calls", "count"),
    ("splines.gram_calls", "count"),
    ("splines.gram_s", "s"),
    ("splines.solve_s", "s"),
    ("splines.eval_s", "s"),
    ("serialize.write_calls", "count"),
    ("serialize.bytes", "bytes"),
    ("serialize.write_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    *((f"cli.crit_{cid}_s", "s") for cid in CRITERION_IDS),
    ("process.minflt", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

#: metrics that take the largest value over a round's workers, not the sum
MAX_METRICS = ("sobolev.evaluate_peak_mb",)

#: metrics that take the median over a round's workers (one import each)
MEDIAN_METRICS = ("cli.import_s", "cli.import_scipy_s")

#: bytes held at once per entry of the n_x x n_xi matrix in
#: ``SampledSpectrum.evaluate``: the complex argument and its exponential
_EVALUATE_BYTES_PER_ENTRY = 32


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def _points(args, kwargs):
    return {"grids.eval_points": _size(args[1])}


def _project_coefficients(args, kwargs, result):
    from waverate.expansion import translate_range

    fam, j, xs = args[1], args[2], args[3]
    return {"expansion.coefficients": len(translate_range(fam, j, (xs.left, xs.right)))}


def _analyze_coefficients(args, kwargs, result):
    return {"expansion.coefficients": len(result.b) + len(result.a)}


def _matrix_entries(args, kwargs):
    xs, ys = args[2], args[3]
    return {"kernels.matrix_entries": xs.count * ys.count}


def _exponentials(args, kwargs):
    spec, xi = args[0], args[1]
    if spec.source is None:
        return {}
    n = spec.source.grid.count * _size(xi)
    return {
        "sobolev.exponentials": n,
        "sobolev.evaluate_peak_mb": n * _EVALUATE_BYTES_PER_ENTRY / 2**20,
    }


def _written_bytes(args, kwargs):
    return {"serialize.bytes": len(args[1].encode())}


# (module, attribute or Class.method, time metric, call metric, self-fault
# metric, counter from the arguments, counter from the arguments and result)
_TARGETS = (
    ("grids", "SampledFunction.__call__", "grids.eval_s", "grids.eval_calls",
     "grids.eval_minflt", _points, None),
    ("grids", "product_quad", "grids.quad_s", "grids.quad_calls", None, None, None),
    ("filters", "daubechies_filter", "filters.design_s", None, None, None, None),
    ("filters", "haar_filter", "filters.design_s", None, None, None, None),
    ("families", "make_family", "families.build_s", "families.build_calls",
     "families.minflt", None, None),
    ("families", "check_family_invariants", "families.invariants_s", None,
     "families.minflt", None, None),
    ("families", "refined_tables", "families.refine_s", "families.refine_calls",
     "families.minflt", None, None),
    ("expansion", "project", "expansion.project_s", "expansion.project_calls",
     "expansion.minflt", None, _project_coefficients),
    ("expansion", "partial_sum", "expansion.project_s", None,
     "expansion.minflt", None, None),
    ("expansion", "analyze", "expansion.analyze_s", None,
     "expansion.minflt", None, _analyze_coefficients),
    ("kernels", "kernel_matrix", "kernels.matrix_s", "kernels.matrix_calls",
     None, _matrix_entries, None),
    ("kernels", "radial_profile", "kernels.profile_s", None, None, None, None),
    ("sobolev", "family_spectrum", "sobolev.spectrum_s", None, None, None, None),
    ("sobolev", "fourier_transform", "sobolev.spectrum_s", None, None, None, None),
    ("sobolev", "SampledSpectrum.evaluate", "sobolev.evaluate_s",
     "sobolev.evaluate_calls", None, _exponentials, None),
    ("sobolev", "wavelet_criterion", None, "sobolev.verdicts", None, None, None),
    ("sobolev", "scaling_criterion", None, "sobolev.verdicts", None, None, None),
    ("convergence", "TestFunction.tabulate", "convergence.tabulate_s", None,
     None, None, None),
    ("convergence", "sup_error_rates", "convergence.study_s", None, None, None, None),
    ("convergence", "lp_error_trace", "convergence.study_s", None, None, None, None),
    ("convergence", "pointwise_trace", "convergence.study_s", None, None, None, None),
    ("convergence", "order_robustness", "convergence.study_s", None, None, None, None),
    ("splines", "best_l2_spline", "splines.solve_s", "splines.solve_calls",
     None, None, None),
    ("splines", "gram_matrix", "splines.gram_s", "splines.gram_calls", None, None, None),
    ("splines", "SplineApproximation.__call__", "splines.eval_s", None,
     None, None, None),
    ("serialize", "atomic_write_text", "serialize.write_s", "serialize.write_calls",
     None, _written_bytes, None),
    ("serialize", "write_json", "serialize.write_s", None, None, None, None),
    ("serialize", "write_csv", "serialize.write_s", None, None, None, None),
)


def _thread_minflt() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


class Tracer:
    """Collects spans and per-layer counters for one worker process."""

    def __init__(self):
        self.spans = []
        self.totals = {name: 0 for name, _ in LAYER_METRICS}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _span(self, name, fn, time_metric, fault_metric, inclusive=False):
        """Wrap fn so that each call records a span and its self figures."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0, 0]  # id, child seconds, child faults
            stack.append(frame)
            f0 = _thread_minflt()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                f1 = _thread_minflt()
                stack.pop()
                seconds, faults = t1 - t0, f1 - f0
                if parent is not None:
                    parent[1] += seconds
                    parent[2] += faults
                own_s = seconds if inclusive else seconds - frame[1]
                own_f = faults - frame[2]
                self.spans.append(
                    (frame[0], parent[0] if parent else None, name,
                     threading.get_ident(), t0, t1, own_s, own_f)
                )
                with self._lock:
                    if time_metric:
                        self.totals[time_metric] += own_s
                    if fault_metric:
                        self.totals[fault_metric] += own_f

        return wrapper

    def _counted(self, fn, call_metric, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = dict(before(args, kwargs)) if before else {}
            result = fn(*args, **kwargs)
            if after:
                counts.update(after(args, kwargs, result))
            with self._lock:
                if call_metric:
                    self.totals[call_metric] += 1
                for key, value in counts.items():
                    if key in MAX_METRICS:
                        self.totals[key] = max(self.totals[key], value)
                    else:
                        self.totals[key] += value
            return result

        return wrapper

    def install(self, cli) -> None:
        """Wrap every traced function wherever waverate modules bind it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "waverate"]
        for module, attr, time_metric, call_metric, fault_metric, before, after in _TARGETS:
            home = sys.modules[f"waverate.{module}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[method]
            else:
                original = getattr(home, attr)
            wrapped = original
            if call_metric or before or after:
                wrapped = self._counted(original, call_metric, before, after)
            if time_metric or fault_metric:
                wrapped = self._span(f"{module}.{attr}", wrapped, time_metric, fault_metric)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
        cli.CRITERIA = tuple(
            (cid, self._span(f"cli.crit_{cid}", fn, f"cli.crit_{cid}_s", None, inclusive=True))
            for cid, fn in cli.CRITERIA
        )

    def write(self, path: str, study: str) -> None:
        keys = ("id", "parent", "name", "thread", "start", "end", "self_s", "self_minflt")
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(keys, span))
                record["study"] = study
                fh.write(json.dumps(record) + "\n")
