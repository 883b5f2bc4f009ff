#!/usr/bin/env python3
"""Benchmark this checkout against a parent checkout and write one JSON file.

For each workload of `benchmarks/studies.py`, `benchmarks/run.py` runs
unchanged in each tree for the `run_seconds` of BENCHMARK.json, in PAIRS
pairs that alternate which tree runs first, both with the pair's number
(from 1) as `--seed`.  Next to those, each of these runs from spawn to exit
in PAIRS pairs of the same kind, after one untimed warm-up in each tree:
`python -c pass`, `python -c "import numpy"` and
`python -c "import waverate.cli"` (so that start-up splits into
interpreter, numpy and waverate), and every `waverate` command of the
README's CLI quickstart (`compare_artifacts.readme_commands`, the suite
also with `--jobs 2`) as `python -m waverate`, each in a fresh temporary
directory.

The file records the machine, each tree's revision (its git HEAD and
whether its working tree differs from it), `PYTHONDONTWRITEBYTECODE`, the
settings, and for every figure each tree's runs, median and interquartile
range, with the number of pairs in which this checkout read lower.

Usage: python3 scripts/bench.py PARENT_CHECKOUT --out BENCH.json
"""

import argparse
import json
import os
import platform
import runpy
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_artifacts import readme_commands  # this script's directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
#: pairs of parent and change runs per workload and per timed command
PAIRS = 10
#: a benchmark run or a timed command that takes longer is an error
TIMEOUT_S = 600


def revision(tree: Path) -> dict:
    """The git HEAD of a checkout and whether its working tree differs from
    it; None for each when the checkout is not a git repository."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": git("rev-parse", "HEAD"), "modified": None if status is None else bool(status)}


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            model = next(models).strip()
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end figures of one `benchmarks/run.py` run in `tree`."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{shlex.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    figures = {name: m["value"] for name, m in result["metrics"].items()}
    figures["failed"] = result["failed"]
    return figures


def spawn_s(tree: Path, argv: list[str]) -> float:
    """Seconds from spawn to exit of argv, importing `waverate` from the
    tree's src/, in a fresh temporary directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{shlex.join(argv)} with {tree}/src exited {proc.returncode}")
    return elapsed


def summary(parent: list[float], change: list[float]) -> dict:
    """Each side's runs, median and interquartile range, and the number of
    pairs in which this checkout read lower."""
    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}

    return {
        "parent": side(parent),
        "change": side(change),
        "change_lower_in": sum(c < p for p, c in zip(parent, change)),
    }


def main() -> int:
    studies = runpy.run_path(str(ROOT / "benchmarks" / "studies.py"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    workloads = studies["WORKLOADS"]

    def order(pair):  # the parent first in even pairs, this checkout in odd ones
        return list(trees.items())[:: -1 if pair % 2 else 1]

    runs = {w: {tree: [] for tree in trees} for w in workloads}
    for pair in range(PAIRS):
        for workload in workloads:
            for tree, path in order(pair):
                runs[workload][tree].append(benchmark(path, workload, pair + 1, seconds))
                print(f"pair {pair + 1} {workload} {tree}: {runs[workload][tree][-1]}",
                      file=sys.stderr)

    commands = {
        "python -c pass": [sys.executable, "-c", "pass"],
        "python -c 'import numpy'": [sys.executable, "-c", "import numpy"],
        "python -c 'import waverate.cli'": [sys.executable, "-c", "import waverate.cli"],
        **{f"waverate {shlex.join(argv)}": [sys.executable, "-m", "waverate", *argv]
           for argv in readme_commands()},
    }
    times = {label: {tree: [] for tree in trees} for label in commands}
    for label, argv in commands.items():
        for path in trees.values():  # warm-up: caches and bytecode
            spawn_s(path, argv)
        for pair in range(PAIRS):
            for tree, path in order(pair):
                times[label][tree].append(spawn_s(path, argv))
        print(f"{label}: {times[label]}", file=sys.stderr)

    report = {
        "machine": machine(),
        "revisions": {tree: revision(path) for tree, path in trees.items()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "settings": {"pairs": PAIRS, "seconds": seconds},
        "workloads": {
            w: {
                figure: summary(*([run[figure] for run in runs[w][tree]] for tree in trees))
                for figure in runs[w]["parent"][0]
            }
            for w in workloads
        },
        "spawn_s": {label: summary(t["parent"], t["change"]) for label, t in times.items()},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
