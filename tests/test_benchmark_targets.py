"""The benchmark's studies and traced names must work against waverate.

``benchmarks/tracing.py`` wraps each ``(module, attribute)`` of its
``_TARGETS`` by name when a run is traced; a name that no longer resolves
would break every ``--trace 1`` run, and a counter that reads a renamed field
would break it on its first call.  ``benchmarks/studies.py`` passes each
study's argv to ``waverate.cli.main``; an option it passes that the CLI no
longer takes would fail every run of its workload.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import waverate
from waverate import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
#: the seed the benchmark's spline study takes in these checks
SEED = 3


def _load(name):
    """benchmarks/<name>.py as module benchmark_<name>, registered before it
    runs, as a dataclass needs its module"""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(module, attr) for module, attr, *_ in _load("tracing")._TARGETS]


def _study_argvs():
    """The argv of every study of every workload, full and smoke runs."""
    studies = _load("studies")
    return [study.argv for workload in studies.WORKLOADS for smoke in (False, True)
            for study in studies.studies(workload, SEED, smoke)]


@pytest.mark.parametrize("module,attr", _targets())
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"waverate.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer replaces the method in the class's own namespace
        assert callable(getattr(home, owner_name).__dict__[name])
    else:
        assert callable(getattr(home, name))


@pytest.mark.parametrize("argv", _study_argvs(), ids=" ".join)
def test_study_argv_parses(argv):
    args = cli.parse_args(argv)
    assert args.command == argv[0]


#: one study per counted layer: expand runs analyze, rate project, kernel
#: kernel_matrix and spline the solve; each builds its family or spline
TRACED_STUDIES = [
    "expand --family daubechies:2 --function gaussian --j 0..2 --out e.json",
    "rate --family haar --function gaussian --j 3..6",
    "kernel --family haar --j 0..2",
    "spline --function sine --order 2 --mesh-exponents 2..4 --check-optimality",
]
#: counters each of which some study of TRACED_STUDIES must move
TRACED_COUNTERS = ("expansion.coefficients", "expansion.project_calls", "kernels.matrix_entries",
                   "splines.solve_calls", "serialize.write_calls", "families.build_calls")


def test_traced_studies_count_every_layer(tmp_path):
    # the tracer installed as a traced benchmark worker installs it, in a
    # fresh interpreter, so its wrappers and counters run on real calls
    src = os.path.dirname(os.path.dirname(waverate.__file__))
    path = os.pathsep.join(p for p in (src, str(BENCHMARKS), os.environ.get("PYTHONPATH")) if p)
    script = (
        "import json\n"
        "import waverate.cli as cli\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install(cli)\n"
        f"codes = [cli.main(argv.split()) for argv in {TRACED_STUDIES!r}]\n"
        "print(json.dumps({'codes': codes, 'totals': tracer.totals}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0] * len(TRACED_STUDIES)
    assert {name: got["totals"][name] for name in TRACED_COUNTERS if got["totals"][name] <= 0} == {}
