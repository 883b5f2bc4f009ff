"""Smoke test of the benchmark: tiny runs of every workload, no timing bounds.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import studies  # noqa: E402
from run import END_TO_END, _scipy_import_s  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(studies.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", studies.WORKLOADS)
def test_smoke_run_prints_checked_result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        if trace == "0":
            assert got["value"] > 0


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _run("--workload", "suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _write(directory, name, payload):
    path = Path(directory) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))


def test_checks_reject_outputs_that_break_the_mathematics(tmp_path):
    d = str(tmp_path)
    _write(d, "rate.json", {"slope": 2.2737, "r_squared": 0.8664})
    assert not studies.check_rate("daubechies:4")(d, 0, "")[0]
    _write(d, "rate.json", {"slope": 1.9971, "r_squared": 0.99998})
    assert studies.check_rate("daubechies:2")(d, 0, "")[0]
    assert not studies.check_rate("haar")(d, 2, "")[0]

    _write(d, "kernel.json", {"passes": True, "collapse_defect": 0.0, "l1_mass": 4.3})
    assert not studies.check_kernel("shannon")(d, 0, "")[0]
    assert not studies.check_kernel("haar")(d, 0, "")[0]
    assert studies.check_kernel("daubechies:2")(d, 0, "")[0]

    _write(d, "sobolev.json", {"s_star": 3.3865})
    assert not studies.check_critical_order("daubechies:4")(d, 0, "")[0]
    _write(d, "sobolev.json", {"s_star": 2.9545})
    assert studies.check_critical_order("battle_lemarie:3")(d, 0, "")[0]

    rows = ["s,epsilon,value"] + [
        f"{s / 10},1,{'DIVERGED' if s >= 9 else '0.5'}" for s in range(1, 21)
    ]
    _write(d, "sweep.csv", "\n".join(rows) + "\n")
    assert not studies.check_haar_sweep(d, 0, "")[0]  # flips at 0.9, not 1.0

    summary = "criterion,name,expected,observed,status\n1,a,b,c,PASS\n3b,a,b,c,PASS\n"
    _write(d, "suite_report/summary.csv", summary)
    assert not studies.check_suite(d, 0, "")[0]


def test_scipy_import_time_counts_only_outermost_scipy_imports():
    importtime = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:        50 |        150 |     scipy.linalg",
        "import time:        10 |        10 |     json",
        "import time:        20 |        180 |   waverate.splines",
        "import time:         5 |        185 | waverate.cli",
        "import time:        40 |         40 | scipy.special",
    ])
    assert _scipy_import_s(importtime) == pytest.approx(190e-6)


def test_seed_reaches_the_spline_study():
    spline = {s.id: s.argv for s in studies.studies("approximation", 2)}["spline-sine"]
    assert spline[-2:] == ("--seed", "2")
