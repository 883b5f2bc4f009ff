"""Run one waverate study in a fresh interpreter and time it from inside.

    python3 worker.py SPAWNED_AT TRACE [-- WAVERATE_ARGS...]

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process; set-up time runs from there until ``waverate.cli`` is
imported.  Without WAVERATE_ARGS the worker only imports and reports its
set-up time.  With TRACE 1 it wraps the layers (see tracing.py) before
calling ``waverate.cli.main`` and writes its spans to ``spans.jsonl`` in the
working directory.  The last line of standard output is one JSON object.
"""

import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _versions() -> dict:
    """Library versions and BLAS build of the imported stack."""
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def main() -> int:
    spawned_at, trace = float(sys.argv[1]), sys.argv[2] == "1"
    argv = sys.argv[4:]
    import_start = _now()
    import waverate.cli as cli

    imported = _now()
    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    result = {
        "setup_s": imported - spawned_at,
        "import_s": imported - import_start,
        "module": os.path.abspath(cli.__file__),
        "versions": _versions(),
    }
    if not argv:
        print(json.dumps(result))
        return 0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(cli)

    out, err = io.StringIO(), io.StringIO()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = time.process_time()
    wall0 = _now()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed study, reported with its traceback
            traceback.print_exc()
            code = -1
    wall1 = _now()
    cpu1 = time.process_time()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        code=code,
        wall_s=wall1 - wall0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=usage1.ru_maxrss / 1024.0,
        minflt=usage1.ru_minflt - usage0.ru_minflt,
        stdout=out.getvalue(),
        stderr=err.getvalue()[-4000:],
    )
    if tracer is not None:
        result["layers"] = tracer.totals
        tracer.write("spans.jsonl", " ".join(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
