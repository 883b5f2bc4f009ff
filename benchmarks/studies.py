"""The benchmark's workloads: README-style CLI studies and their checks.

Every check tests a property fixed by the mathematics, never a stored copy
of an earlier output.  A check reads the study's ``--out`` artifact from the
study's working directory and returns ``(ok, detail)``.

``KNOWN_FAULTS`` names the studies that fail today because of faults listed
in ROADMAP.md; they stay in the workloads and are counted as failed until a
fix lands.  Any other failed study makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("approximation", "regularity", "suite")

#: workloads whose studies are separate CLI calls, each in a fresh process
FRESH_PROCESS_WORKLOADS = ("approximation", "regularity")

#: length of one round, worker start-up included, on a 2-vCPU Xeon VM
NOMINAL_ROUND_S = {"approximation": 20.0, "regularity": 32.0, "suite": 29.0}

KNOWN_FAULTS = {
    "rate-daubechies:4": "sup error stalls near 1e-8: level-12 table interpolated "
    "on the level-15 lattice (ROADMAP item 4)",
    "sobolev-scaling-daubechies:4": "2 pi |phi^|^2 - 1 cancels below the DFT noise "
    "floor (ROADMAP item 3)",
    "sobolev-wavelet-daubechies:6": "|psi^|^2 sinks below the DFT noise floor "
    "(ROADMAP item 3)",
    "sobolev-scaling-daubechies:6": "already divergent at s = 0.1 (ROADMAP item 3)",
    "sobolev-scaling-battle_lemarie:3": "still finite at the bisection ceiling "
    "s = 8 (ROADMAP item 3)",
}


@dataclass(frozen=True)
class Study:
    """One CLI invocation, run in its own worker process."""

    id: str
    argv: tuple
    check: Callable  # (study dir, exit code, stdout) -> (ok, detail)
    smoke: bool = False  # cheap enough for the smoke test


def vanishing_moments(spec: str) -> int:
    """Vanishing moments of the wavelet: N for daubechies:N and battle_lemarie:N."""
    name, _, param = spec.partition(":")
    return 1 if name == "haar" else int(param)


def _read_json(study_dir: str, name: str) -> dict:
    with open(os.path.join(study_dir, name)) as fh:
        return json.load(fh)


def _exit_ok(code: int) -> tuple[bool, str]:
    return code == 0, f"exit code {code}"


def check_rate(spec: str) -> Callable:
    """Sup-norm slope equals the vanishing moments within 0.25, R^2 > 0.99."""
    want = vanishing_moments(spec)

    def check(study_dir, code, stdout):
        if code != 0:
            return _exit_ok(code)
        doc = _read_json(study_dir, "rate.json")
        slope, r2 = doc["slope"], doc["r_squared"]
        ok = abs(slope - want) <= 0.25 and r2 > 0.99
        return ok, f"slope={slope:.4f} r2={r2:.4f} want slope {want} +- 0.25, r2 > 0.99"

    return check


def check_expand(study_dir, code, stdout):
    """Parseval: the squared coefficients of the gaussian sum to int e^{-2x^2} dx."""
    if code != 0:
        return _exit_ok(code)
    doc = _read_json(study_dir, "expand.json")
    total = sum(float(v) ** 2 for part in ("a", "b") for v in doc[part].values())
    want = math.sqrt(math.pi / 2.0)
    gap = abs(total - want) / want
    return gap <= 1e-6, f"sum a^2 + b^2 = {total:.12g}, relative gap {gap:.3g} (<= 1e-6)"


def check_kernel(spec: str) -> Callable:
    """Convolution bound: pass with collapse < 0.05 (and Haar L1 mass 2);
    the Shannon sinc kernel has no L1 radial majorant and must fail."""

    def check(study_dir, code, stdout):
        if code != 0:
            return _exit_ok(code)
        doc = _read_json(study_dir, "kernel.json")
        passes, collapse, mass = doc["passes"], doc["collapse_defect"], doc["l1_mass"]
        detail = f"passes={passes} collapse={collapse:.3g} mass={mass:.4g}"
        if spec == "shannon":
            return passes is False, detail + " (the bound must fail)"
        ok = passes is True and collapse < 0.05
        if spec == "haar":
            ok = ok and abs(mass - 2.0) <= 0.05
        return ok, detail

    return check


def check_decay_fit(study_dir, code, stdout):
    """Exponentially localized kernel: decay rate a > 0 with R^2 > 0.98."""
    if code != 0:
        return _exit_ok(code)
    fit = _read_json(study_dir, "kernel.json")["fit"]
    ok = fit["a"] > 0 and fit["r2"] > 0.98
    return ok, f"a={fit['a']:.4f} r2={fit['r2']:.4f}"


def check_spline(study_dir, code, stdout):
    """Best L2 splines of order 2 converge at rate 2 and are optimal."""
    if code != 0:
        return _exit_ok(code)
    slope = _read_json(study_dir, "spline.json")["slope"]
    optimal = "optimal=True" in stdout
    ok = abs(slope - 2.0) <= 0.25 and optimal
    return ok, f"slope={slope:.4f} optimal={optimal}"


def check_critical_order(spec: str) -> Callable:
    """The critical order s* equals the vanishing moments within 0.15."""
    want = vanishing_moments(spec)

    def check(study_dir, code, stdout):
        if code != 0:
            return _exit_ok(code)
        s_star = _read_json(study_dir, "sobolev.json")["s_star"]
        return abs(s_star - want) <= 0.15, f"s*={s_star:.4f} want {want} +- 0.15"

    return check


def check_haar_sweep(study_dir, code, stdout):
    """Haar verdicts are monotone in s and flip between s = 0.9 and s = 1.0."""
    if code != 0:
        return _exit_ok(code)
    with open(os.path.join(study_dir, "sweep.csv"), newline="") as fh:
        rows = [(float(r["s"]), r["value"] == "DIVERGED") for r in csv.DictReader(fh)]
    verdicts = [d for _, d in rows]
    monotone = verdicts == sorted(verdicts)
    flip = all(d == (s > 0.95) for s, d in rows)
    first = next((s for s, d in rows if d), None)
    return monotone and flip, f"monotone={monotone} first diverged s={first}"


def check_suite(study_dir, code, stdout):
    """Exit 0; every criterion PASS except 3b (Shannon), which is expected-fail."""
    # cells are written unquoted and some hold commas, so read the first and
    # last field of each row rather than parsing the rows as CSV
    with open(os.path.join(study_dir, "suite_report", "summary.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    status = {row.split(",")[0]: row.split(",")[-1] for row in rows}
    bad = {
        cid: s
        for cid, s in status.items()
        if s != ("expected-fail" if cid == "3b" else "PASS")
    }
    return code == 0 and not bad, f"exit code {code}; unexpected statuses {bad}"


def _approximation() -> list[Study]:
    out = []
    for spec in ("haar", "daubechies:2", "daubechies:3", "daubechies:4", "battle_lemarie:2"):
        argv = ("rate", "--family", spec, "--function", "gaussian", "--j", "3..9",
                "--out", "rate.json")
        out.append(Study(f"rate-{spec}", argv, check_rate(spec), smoke=spec == "haar"))
    out.append(Study(
        "expand-daubechies:2",
        ("expand", "--family", "daubechies:2", "--function", "gaussian", "--j", "0..6",
         "--out", "expand.json"),
        check_expand,
    ))
    for spec in ("haar", "daubechies:2", "shannon"):
        argv = ("kernel", "--family", spec, "--j", "0..6", "--out", "kernel.json")
        out.append(Study(f"kernel-{spec}", argv, check_kernel(spec), smoke=spec != "shannon"))
    out.append(Study(
        "kernel-battle_lemarie:2",
        ("kernel", "--family", "battle_lemarie:2", "--j", "0..6",
         "--fit-decay", "exponential", "--out", "kernel.json"),
        check_decay_fit,
    ))
    out.append(Study(
        "spline-sine",
        ("spline", "--function", "sine", "--order", "2", "--mesh-exponents", "2..6",
         "--check-optimality", "--out", "spline.json"),
        check_spline,
        smoke=True,
    ))
    return out


def _regularity() -> list[Study]:
    out = []
    for spec in ("haar", "daubechies:2", "daubechies:4", "daubechies:6",
                 "battle_lemarie:2", "battle_lemarie:3"):
        for criterion in ("wavelet", "scaling"):
            argv = ("sobolev", "--family", spec, "--criterion", criterion,
                    "--out", "sobolev.json")
            out.append(Study(f"sobolev-{criterion}-{spec}", argv,
                             check_critical_order(spec), smoke=spec == "haar"))
    out.append(Study(
        "sobolev-sweep-haar",
        ("sobolev", "--family", "haar", "--sweep-s", "0.1..2.0:0.1", "--out", "sweep.csv"),
        check_haar_sweep,
        smoke=True,
    ))
    return out


def _suite(smoke: bool) -> list[Study]:
    # the smoke test runs one cheap criterion through the same threaded path
    argv = ("suite", "--jobs", "2", "--out", "suite_report")
    if smoke:
        argv += ("--only", "12")
    return [Study("suite", argv, check_suite, smoke=True)]


def studies(workload: str, seed: int, smoke: bool = False) -> list[Study]:
    """The workload's studies; the seed sets the spline study's ``--seed``."""
    chosen = {
        "approximation": _approximation,
        "regularity": _regularity,
        "suite": lambda: _suite(smoke),
    }[workload]()
    if smoke:
        chosen = [s for s in chosen if s.smoke]
    return [
        Study(s.id, s.argv + ("--seed", str(seed)), s.check, s.smoke)
        if s.argv[0] == "spline" else s
        for s in chosen
    ]
