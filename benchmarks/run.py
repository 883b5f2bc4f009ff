"""waverate benchmark: CLI studies in fresh worker processes, one at a time.

    python3 benchmarks/run.py --workload approximation --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; workers import ``waverate`` from
``src/``.  A run does as many whole rounds of the workload's studies as
cover ``--seconds`` at the workload's nominal round length (at least one)
and reports the median of the per-round figures.  ``--seed`` sets the order of the studies in each
round and the spline study's ``--seed``.  With ``--trace 1`` the run first
does one untraced round, then traced rounds, and prints the per-layer
metrics; their difference in wall time is the trace overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from studies import (  # noqa: E402
    FRESH_PROCESS_WORKLOADS,
    KNOWN_FAULTS,
    NOMINAL_ROUND_S,
    WORKLOADS,
    studies,
)
from tracing import LAYER_METRICS, MAX_METRICS, MEDIAN_METRICS  # noqa: E402

#: end-to-end metrics: (name, unit)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: fewest worker set-ups whose median gives a round's set-up time; a round
#: with fewer studies adds import-only workers
MIN_SETUP_SAMPLES = 5

#: a run that has not finished by then is stopped without a result
DEADLINE_S = 170.0

#: worker environment.  The thread caps keep the suite's two threads from
#: each starting a BLAS pool; the fixed string-hash seed makes set iteration
#: order repeat from run to run.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: added for the fresh-process workloads: glibc's mmap and trim thresholds
#: pinned where its dynamic policy ends up (32 MiB and twice that).  Left
#: dynamic, the first large free raises them, and when that happens depends
#: on the heap layout of the process (hash seed, lengths of paths and
#: arguments), so the same rate daubechies:2 study in a fresh process takes
#: either ~1.45 M or ~4 k minor faults, ~4.4 s or ~1.5 s, from one run to the
#: next.  The suite's one long process settles by itself and keeps glibc's
#: policy: pinned, its peak resident set swings by a fifth.
SETTLED_ALLOCATOR_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (no sources, a worker crashed, time out)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WAVERATE_GRID_LEVEL"}
    env.update(WORKER_ENV)
    if workload in FRESH_PROCESS_WORKLOADS:
        env.update(SETTLED_ALLOCATOR_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _scipy_import_s(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total_us, stack = 0, []  # stack of (depth, inside a scipy import)
    for depth, cumulative, name in reversed(rows):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


class Runner:
    """Runs workers for one benchmark run and keeps its deadline."""

    def __init__(self, workload: str, run_dir: Path, started: float):
        self.run_dir = run_dir
        self.deadline = started + DEADLINE_S
        self.env = _worker_env(workload)
        self.count = 0
        self.versions = {}

    def worker(self, argv: tuple, trace: bool) -> tuple[dict, Path]:
        self.count += 1
        cwd = self.run_dir / f"w{self.count:03d}"
        cwd.mkdir()
        python = [sys.executable] + (["-X", "importtime"] if trace else [])
        remaining = self.deadline - _now()
        if remaining <= 0:
            raise BenchmarkError(f"run exceeded {DEADLINE_S:.0f} s")
        spawned_at = _now()
        cmd = python + [str(HERE / "worker.py"), repr(spawned_at), "1" if trace else "0", "--"]
        try:
            proc = subprocess.run(
                cmd + list(argv), cwd=cwd, env=self.env, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"run exceeded {DEADLINE_S:.0f} s in {argv}") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(
                f"worker for {argv or 'set-up'} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(lines[-1])
        src = ROOT / "src" / "waverate"
        if Path(result["module"]).parent != src:
            raise BenchmarkError(f"imported {result['module']}, not the checkout's {src}")
        self.versions = result["versions"]
        if trace:
            result["import_scipy_s"] = _scipy_import_s(proc.stderr)
        return result, cwd


def run_round(runner: Runner, plan: list, trace: bool) -> dict:
    """One worker per study, one at a time; returns the round's figures."""
    outcomes, setups, layers, walls, cpus, rss = [], [], [], [], [], []
    for study in plan:
        result, cwd = runner.worker(study.argv, trace)
        try:
            ok, detail = study.check(str(cwd), result["code"], result["stdout"])
        except (OSError, KeyError, ValueError) as exc:
            ok, detail = False, f"unreadable output: {exc!r}"
        if not ok and result["stderr"]:
            detail += " | " + result["stderr"].strip().splitlines()[-1]
        outcomes.append((study.id, ok, detail))
        setups.append(result["setup_s"])
        walls.append(result["wall_s"])
        cpus.append(result["cpu_s"])
        rss.append(result["peak_rss_mb"])
        if trace:
            layer = result["layers"]
            layer["cli.import_s"] = result["import_s"]
            layer["cli.import_scipy_s"] = result["import_scipy_s"]
            layer["process.minflt"] = result["minflt"]
            layers.append(layer)
            spans = cwd / "spans.jsonl"
            with open(runner.run_dir / "spans.jsonl", "a") as out, open(spans) as src:
                shutil.copyfileobj(src, out)
    for _ in range(MIN_SETUP_SAMPLES - len(plan)):
        result, _ = runner.worker((), trace=False)
        setups.append(result["setup_s"])
    figures = {
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "setup_s": len(plan) * statistics.median(setups),
        "peak_rss_mb": max(rss),
    }
    if trace:
        for name, _ in LAYER_METRICS:
            if name.startswith("trace."):
                continue  # set per run from the traced and untraced rounds
            values = [layer.get(name, 0) for layer in layers]
            if name in MAX_METRICS:
                figures[name] = max(values)
            elif name in MEDIAN_METRICS:
                figures[name] = statistics.median(values)
            else:
                figures[name] = sum(values)
    studies_s = {study.id: round(wall, 3) for study, wall in zip(plan, walls)}
    return {"figures": figures, "outcomes": outcomes, "studies_s": studies_s}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not (ROOT / "src" / "waverate" / "cli.py").is_file():
        raise BenchmarkError(f"no waverate sources under {ROOT / 'src'}")
    plan = studies(workload, seed, smoke)
    random.Random(seed).shuffle(plan)
    # whole rounds, as many as cover --seconds at the workload's nominal
    # round length, so that every run of a workload does the same work
    n_rounds = max(1, math.ceil(seconds / NOMINAL_ROUND_S[workload]))
    started = _now()
    runs_dir = HERE / "_runs"
    runs_dir.mkdir(exist_ok=True)
    run_dir = runs_dir / f"{workload}-seed{seed}-{os.getpid()}"
    run_dir.mkdir()
    runner = Runner(workload, run_dir, started)
    try:
        untraced = run_round(runner, plan, trace=False) if trace else None
        rounds = [run_round(runner, plan, trace) for _ in range(n_rounds)]
        if trace:
            # the run's spans, kept after the run's working files are removed
            shutil.copy(run_dir / "spans.jsonl", runs_dir / f"{workload}.spans.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(
        f"run: workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"rounds={len(rounds)} nproc={os.cpu_count()} "
        + " ".join(f"{k}={v}" for k, v in runner.versions.items())
        + " " + " ".join(f"{k}={runner.env[k]}" for k in (*WORKER_ENV, *SETTLED_ALLOCATOR_ENV)
                         if k in runner.env)
    )
    outcomes = [o for r in rounds + ([untraced] if untraced else []) for o in r["outcomes"]]
    failed = [(sid, detail) for sid, ok, detail in outcomes if not ok]
    unexpected = sorted({sid for sid, _ in failed if sid not in KNOWN_FAULTS})
    for sid, detail in sorted(set(failed)):
        tag = "known fault" if sid in KNOWN_FAULTS else "FAILED"
        print(f"{tag}: {sid}: {detail}", file=sys.stderr)

    names = LAYER_METRICS if trace else END_TO_END
    metrics = {}
    for name, unit in names:
        if name == "trace.wall_s":
            value = statistics.median(r["figures"]["wall_s"] for r in rounds)
        elif name == "trace.overhead_s":
            value = metrics["trace.wall_s"]["value"] - untraced["figures"]["wall_s"]
        elif name == "peak_rss_mb" or name in MAX_METRICS:
            value = max(r["figures"][name] for r in rounds)
        else:
            value = statistics.median(r["figures"][name] for r in rounds)
        metrics[name] = {"value": value, "unit": unit}
    for r in rounds:
        print(f"round: {json.dumps(r['figures'])}", file=sys.stderr)
        print(f"study wall_s: {json.dumps(r['studies_s'])}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only each workload's cheapest studies (for the smoke test)",
    )
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
