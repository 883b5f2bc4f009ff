import argparse
import csv
import importlib
import json
import math
import os
import pkgutil
import re
import resource
import runpy
import shlex
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import waverate
from waverate import DyadicGrid, cli, families, make_family, suite
from waverate.cli import (
    MAX_SWEEP_POINTS,
    ComputationError,
    ConfigError,
    main,
    parse_int_range,
    parse_sweep,
    parse_window,
)
from waverate.convergence import RateReport, TestFunction, test_function
from waverate.expansion import project
from waverate.sobolev import CriticalOrder
from waverate.splines import MAX_ORDER, PERTURBATION_SEED
from waverate.suite import _haar_cell_average_defects

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd, preexec_fn=None, timeout=300, **env):
    """`python args` in a fresh process importing this waverate."""
    src = os.path.dirname(os.path.dirname(waverate.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        timeout=timeout,
        check=False,
        preexec_fn=preexec_fn,
    )


def run_cli(argv, cwd, module="waverate.cli", preexec_fn=None, **env):
    """`python -m module argv` in a fresh process importing this waverate."""
    return run_python(["-m", module, *argv], cwd, preexec_fn, **env)


def cap_address_space():
    """Let the calling process map at most 1 GB: a study that allocated
    without bound ends in a MemoryError traceback, not an exhausted machine."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_capped(argvs, cwd):
    """The exit codes of `main` on each argument list, all run in one fresh
    process under the 1 GB cap and a 60 s wall bound, and its standard error,
    which holds no traceback."""
    script = f"from waverate.cli import main\nprint([main(argv) for argv in {argvs!r}])\n"
    proc = run_python(["-c", script], cwd, preexec_fn=cap_address_space, timeout=60,
                      OPENBLAS_NUM_THREADS="1")
    err = proc.stderr.decode()
    assert proc.returncode == 0 and "Traceback" not in err, err
    return json.loads(proc.stdout.decode().splitlines()[-1]), err


BAD_FAMILY_SPECS = ["mystery:3", "haar:3", "shannon:7"]

BAD_FAMILY_PARAMETERS = [
    # int() would read ' 2' and '+2' as 2 and relabel them daubechies:2
    *(
        (spec, f"family parameter must be decimal digits, got {spec!r}")
        for spec in ("daubechies:2.5", "daubechies:", "daubechies: 2", "daubechies:+2",
                     "haar:", "haar:x")
    ),
    # haar and shannon take none: their constructors reject the parsed one
    ("haar:3", "haar takes no parameter, got 3"),
    ("haar:03", "haar takes no parameter, got 3"),
    ("shannon:7", "shannon takes no parameter, got 7"),
    ("daubechies:0", "daubechies moments must be in 1..10, got 0"),
    ("daubechies:11", "daubechies moments must be in 1..10, got 11"),
    ("battle_lemarie:0", f"battle_lemarie order must be in 1..{MAX_ORDER}"),
    (f"battle_lemarie:{MAX_ORDER + 1}", f"battle_lemarie order must be in 1..{MAX_ORDER}"),
]

BAD_STUDIES = [
    "spline --function sine --order 0 --mesh-exponents 2..6",
    f"spline --function sine --order {MAX_ORDER + 1} --mesh-exponents 4..8",
    # 8 * 0.25 at each end swallows the 3.25-wide window
    "spline --function sine --order 8 --mesh-exponents 2..4",
    "spline --function sine --order 2 --mesh-exponents 2..10",
    "spline --function sine --order 2 --mesh-exponents 1..5",
    "spline --function sine --order 2 --mesh-exponents 3..3",
    # 13 intervals at level 2, and Haar's lattice is not refined
    "rate --family haar --function sine --level 2 --j 3..9 --window=0.5,2.5",
    "expand --family haar --function sine --level 2 --j 0..3",
    "rate --family haar --function sine --level 1 --j 3..9",
    "rate --family haar --function gaussian --j 3..9 --window=0.3,0.7",
    # the window must lie inside f's window, and the fit needs 4 levels >= 3
    "rate --family haar --function gaussian --j 3..9 --window=-5,5",
    "rate --family haar --function gaussian --j 1..4",
    # --level belongs to the studies that tabulate f
    "family --family daubechies:2 --level 6",
    "kernel --family haar --j 0..2 --level 6",
    "sobolev --family haar --level 6",
    # tables finer than MAX_TABLE_LEVEL (18): level + 3, or j itself
    "expand --family daubechies:2 --function gaussian --level 16 --j 0..6",
    "expand --family haar --function gaussian --level 40 --j 0..6",
    "expand --family daubechies:2 --function gaussian --j 0..40",
    "rate --family daubechies:2 --function gaussian --j 3..30",
    "rate --family daubechies:2 --function gaussian --level 2000 --j 3..9",
    "spline --function sine --order 2 --mesh-exponents 2..6 --level 40",
    # analysed scales must stay below f's quadrature lattice (level + 3,
    # level for haar): expand analyses j0..j1 - 1, rate j0..j1
    "expand --family haar --function gaussian --j 0..13",
    "rate --family haar --function gaussian --j 3..15",
    "rate --family daubechies:2 --function gaussian --level 6 --j 3..9",
    "expand --family daubechies:2 --function gaussian --level 2 --j 0..6",
    # analysis needs two levels j0 < j1; the perturbation rng a seed >= 0
    "expand --family haar --function gaussian --j 5..5",
    "spline --function sine --order 2 --mesh-exponents 2..6 --check-optimality --seed -1",
    # a rate window within reach of a jump or of f's table end: cusp's
    # default window is its whole table; db4's atoms at j = 3 reach 0.875
    # from the step's jump; sine's table starts at 0; the step jumps inside
    "rate --family daubechies:2 --function cusp --j 3..9",
    "rate --family daubechies:4 --function step --j 3..9 --window 0.25,1.0",
    "rate --family daubechies:2 --function sine --j 3..9 --window 0.0,1.0",
    "rate --family haar --function step --j 3..9 --window=-1.0,1.0",
    # the oscillating indicator jumps at 2^-n and 2^-n + 8^-n; a spline
    # study's shrunk window comes within order * 2^-min(m) of every jump
    # inside f's window
    "rate --family haar --function oscillating_indicator --j 3..9 --window=-0.5,0.5",
    "spline --function step --order 1 --mesh-exponents 2..6",
    "spline --function step --order 2 --mesh-exponents 2..6",
    "spline --function ramp --order 2 --mesh-exponents 2..6",
    # the coarsest scale j reads tables at level qlevel - j: 15 + 2000 for
    # battle_lemarie, and 20 for db2 (level 17 for haar's -5..-1 is allowed)
    "rate --family battle_lemarie:2 --function gaussian --j -2000..9",
    "expand --family daubechies:2 --function gaussian --j -5..-1",
    # a window needs finite ends
    "rate --family daubechies:2 --function gaussian --j 3..9 --window nan,1",
    "rate --family daubechies:2 --function gaussian --j 3..9 --window=-1,inf",
]

#: rate windows within reach of f's table end or jump, and the reason given:
#: cusp's default window is its whole table; db4's atoms at j = 3 reach 0.875
#: from the step's jump; sine's table starts at 0; haar's atoms at j = 3
#: reach 0.25 past 0.5, where the oscillating indicator jumps
WINDOWS_WITHIN_REACH = [
    ("daubechies:2 --function cusp", "of an end of the tabulated window"),
    ("daubechies:4 --function step --window 0.25,1.0", "of the jump at 0.0"),
    ("daubechies:2 --function sine --window 0.0,1.0", "of an end of the tabulated window"),
    ("haar --function oscillating_indicator --window=-0.5,0.5", "of the jump at 0.5"),
]

BAD_KERNEL_SCALES = [
    # the scale-j profile grid has level j + 6: 2^1024 overflows
    "kernel --family haar --j 1016..1018",
    "kernel --family haar --j -1..3",
    # the kernel study takes three scales or more
    "kernel --family haar --j 0..1",
]

#: scale ranges rejected by their ends alone: a list of either takes gigabytes
HUGE_SCALE_RANGES = [
    "rate --family haar --function gaussian --j 3..1000000000",
    "kernel --family haar --j 0..1000000000",
]

#: a negative --level, rejected by its own rule before any scale rule reads it
NEGATIVE_LEVELS = [
    "expand --family haar --function gaussian --j 0..6 --level=-1",
    "spline --function sine --order 2 --mesh-exponents 2..6 --level=-1",
    "rate --family haar --function gaussian --j 3..9 --level=-1",
]

#: coarsest scales whose tables lie past level 18: a study that read them
#: would take gigabytes (2.3 GB at level 25 for -10), or fail to allocate
COARSE_SCALE_RANGES = [
    "expand --family daubechies:2 --function gaussian --j -10..4",
    "expand --family daubechies:2 --function gaussian --j -2000..9",
    "expand --family daubechies:2 --function gaussian --j -1000000000..3",
]

BAD_SOBOLEV_SETTINGS = [
    # epsilon outside (0, pi], or shells below the frequency floor
    "sobolev --family daubechies:2 --epsilon 5",
    "sobolev --family daubechies:2 --epsilon 0",
    "sobolev --family daubechies:2 --epsilon 0.001",
    "sobolev --family haar --epsilon 0.001 --sweep-s 0.5..1.5:0.5",
    # s outside (0, 16]
    "sobolev --family haar --sweep-s 0.0..2.0:0.5",
    "sobolev --family haar --sweep-s 15.0..17.0:1.0",
    # non-finite sweeps, and sweeps past MAX_SWEEP_POINTS (never built)
    "sobolev --family haar --sweep-s nan..2:0.1",
    "sobolev --family haar --sweep-s 0.1..inf:0.1",
    "sobolev --family haar --sweep-s 0.1..2:inf",
    "sobolev --family haar --sweep-s 0.1..16:1e-12",
    "sobolev --family haar --sweep-s 0.001..16:0.001",
]


class TestParsing:
    def test_int_range(self):
        assert parse_int_range("3..9") == range(3, 10)
        assert parse_int_range("-2..2") == range(-2, 3)

    @pytest.mark.parametrize("bad", ["6..0", "3..", "a..b", "3", "3..4..5"])
    def test_int_range_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_int_range(bad)

    def test_sweep(self):
        values = parse_sweep("0.1..2.0:0.1")
        assert len(values) == 20
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "0.1..2.0",
            "2.0..0.1:0.1",
            "0.1..2.0:-1",
            "x..y:z",
            # non-finite ends or step
            "nan..2.0:0.1",
            "0.1..inf:0.1",
            "0.1..2.0:nan",
            "0.1..1e999:0.1",
            # more than MAX_SWEEP_POINTS, counted before any point is built
            "0.1..16:1e-12",
            "-1e308..1e308:1",
            "1..10001:1",
        ],
    )
    def test_sweep_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_sweep(bad)

    def test_sweep_point_limit_is_inclusive(self):
        assert len(parse_sweep("1..10000:1")) == MAX_SWEEP_POINTS

    def test_window(self):
        assert parse_window("-1.0,1.0") == (-1.0, 1.0)
        for bad in ("1.0", "1.0,-1.0", "a,b"):
            with pytest.raises(ConfigError):
                parse_window(bad)
        for bad in ("nan,1", "-1,inf", "-inf,0", "0,nan"):
            with pytest.raises(ConfigError, match=f"window '{bad}' must have finite ends"):
                parse_window(bad)


class TestCommands:
    @pytest.mark.parametrize("function", ["gaussian", "cusp"])
    def test_negative_window_parses_in_both_forms(self, function, tmp_path):
        argv = f"rate --family daubechies:2 --function {function} --j 3..9".split()
        spaced, glued, default = (tmp_path / f"{n}.json" for n in ("spaced", "glued", "default"))
        assert main(argv + ["--window", "-0.5,0.5", "--out", str(spaced)]) == 0
        assert main(argv + ["--window=-0.5,0.5", "--out", str(glued)]) == 0
        code = main(argv + ["--out", str(default)])
        if function == "cusp":
            # the default (-1, 1) is cusp's whole table: db2's atoms at j = 3
            # reach 3 * 2^-3 past the window, off the table
            assert code == 1 and not default.exists()
            assert spaced.read_bytes() == glued.read_bytes()
        else:
            assert code == 0
            assert spaced.read_bytes() == glued.read_bytes() != default.read_bytes()

    def test_rate_json(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        code = main(
            [
                "rate",
                "--family",
                "daubechies:2",
                "--function",
                "gaussian",
                "--j",
                "3..9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["slope"] - 2.0) <= 0.2
        assert doc["fitted_levels"] == list(range(3, 10))
        assert "slope=" in capsys.readouterr().out

    def test_sobolev_sweep_verdict_flip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sobolev", "--family", "haar", "--sweep-s", "0.1..2.0:0.1", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        by_s = {round(float(r.split(",")[0]), 2): r for r in rows}
        assert "DIVERGED" not in by_s[0.9]
        assert "DIVERGED" in by_s[1.1]

    def test_sobolev_shannon_exits_2(self, tmp_path, capsys):
        # the Shannon shells vanish: no divergence onset, a computational error
        out = tmp_path / "sobolev.json"
        assert main(["sobolev", "--family", "shannon", "--out", str(out)]) == 2
        assert "no divergence onset" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_j_range_exits_1_without_files(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        code = main(
            ["kernel", "--family", "haar", "--j", "6..0", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_unknown_function_exits_1(self):
        assert main(["rate", "--family", "haar", "--function", "nope", "--j", "3..9"]) == 1

    @pytest.mark.parametrize("spec", BAD_FAMILY_SPECS)
    def test_bad_family_spec_exits_1(self, spec, capsys):
        # haar and shannon take no parameter: one given is not dropped
        assert main(["family", "--family", spec]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", BAD_FAMILY_PARAMETERS)
    def test_bad_family_parameter_message(self, spec, message, capsys):
        assert main(["family", "--family", spec]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--family", "daubechies:" + "9" * 5000],
            ["rate", "--family", "haar", "--function", "gaussian", "--j", "9" * 5000 + "..1"],
        ],
        ids=["family", "range"],
    )
    def test_overlong_integer_exits_1(self, argv, capsys):
        # more digits than int() converts is bad input too, not a traceback
        assert main(argv) == 1
        assert "error: Exceeds the limit" in capsys.readouterr().err

    def test_computational_error_exits_2(self, capsys):
        # Haar reproduces the step off its jump: only the computed errors
        # show that there is no rate above roundoff, a diagnostic, not config
        code = main("rate --family haar --function step --j 3..9 --window 0.5,1.0".split())
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", WINDOWS_WITHIN_REACH)
    def test_window_within_reach_exits_1(self, argv, message, tmp_path, capsys):
        out = tmp_path / "rate.json"
        assert main(f"rate --j 3..9 --out {out} --family {argv}".split()) == 1
        assert message in capsys.readouterr().err and not out.exists()

    def test_meaningless_rate_exits_2(self, tmp_path, capsys):
        # seven errors of at most 3.3e-15: no rate above roundoff
        out = tmp_path / "rate.json"
        argv = "daubechies:2 --function step --window 0.5,1.0"
        assert main(f"rate --j 3..9 --out {out} --family {argv}".split()) == 2
        assert "above roundoff" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("argv, slope", [
        ("shannon --function gaussian", "-1.8543"),
        ("shannon --function sine --window 1,2", "-0.6814"),
    ])
    def test_rising_errors_exit_2(self, argv, slope, tmp_path, capsys):
        # the fitted slope is not positive: the errors do not fall
        out = tmp_path / "rate.json"
        assert main(f"rate --j 3..9 --out {out} --family {argv}".split()) == 2
        err = capsys.readouterr().err
        assert f"error: fitted slope {slope} is not positive" in err and not out.exists()

    @pytest.mark.parametrize("argv", [
        "rate --j 3..9 --family battle_lemarie:2 --function ramp --window -0.5,0.5",
        "rate --j 3..9 --family battle_lemarie:3 --function step --window 0.5,1.0",
        "rate --j 3..9 --family shannon --function ramp --window -0.5,0.5",
        "rate --j 3..9 --family shannon --function step --window 0.5,1.0",
        "spline --function sine --order 8 --mesh-exponents 3..7",
    ])
    def test_errors_that_do_not_fall_strictly_exit_2(self, argv, tmp_path, capsys):
        # each fits a positive slope through errors that rise at one level
        out = tmp_path / "study.json"
        assert main(argv.split() + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "does not fall below" in err and not out.exists()

    @pytest.mark.parametrize("argv", BAD_STUDIES)
    def test_bad_study_exits_1_before_compute(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(TestFunction, "tabulate", refuse)
        out = tmp_path / "out.json"
        assert main(argv.split() + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", BAD_KERNEL_SCALES)
    def test_bad_kernel_scales_exit_1_before_compute(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel was computed")

        monkeypatch.setattr("waverate.kernels.kernel_matrix", refuse)
        out = tmp_path / "kernel.json"
        assert main(argv.split() + ["--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_coarse_scales_exit_1_unread(self, tmp_path):
        # a study that read tables past level 18 would end in a MemoryError
        # traceback under the cap
        codes, err = run_capped([argv.split() for argv in COARSE_SCALE_RANGES], tmp_path)
        assert codes == [1] * len(COARSE_SCALE_RANGES)
        assert err.count("error: the study reads tables at level") == len(codes)

    @pytest.mark.parametrize("argv", HUGE_SCALE_RANGES)
    def test_huge_scale_range_exits_1_unlisted(self, argv, tmp_path):
        # a study that listed the range would end in a MemoryError traceback
        # under the cap
        proc = run_cli(argv.split(), tmp_path, preexec_fn=cap_address_space,
                       OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert err.startswith("error:") and "Traceback" not in err

    def test_huge_trace_ranges_raise_config_error_unlisted(self, tmp_path):
        # a trace that listed range(0, 10**9) before its check would end in a
        # MemoryError under the cap
        script = "\n".join([
            "from waverate import make_family",
            "from waverate.convergence import lp_error_trace, pointwise_trace, test_function",
            "from waverate.grids import ConfigError",
            "gaussian, haar, huge = test_function('gaussian'), make_family('haar'), range(10**9)",
            "for trace in (lambda: lp_error_trace(gaussian, haar, 1, huge, (-1, 1)),",
            "              lambda: pointwise_trace(gaussian, haar, 0.0, huge)):",
            "    try:",
            "        trace()",
            "    except ConfigError as exc:",
            "        print('ConfigError:', exc)",
        ])
        proc = run_python(["-c", script], tmp_path, preexec_fn=cap_address_space, timeout=60,
                          OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("ConfigError: scale j = 999999999 reaches") for line in lines)

    @pytest.mark.parametrize("argv", NEGATIVE_LEVELS)
    def test_negative_level_exits_1_by_its_own_rule(self, argv, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("f was tabulated")

        monkeypatch.setattr(TestFunction, "tabulate", refuse)
        out = tmp_path / "out.json"
        assert main(argv.split() + ["--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: level -1 is negative; a study tabulates f at level 0 or finer\n"

    def test_fine_kernel_scales_run(self, tmp_path):
        # every scale-j profile reads the family's tables at level 6
        out = tmp_path / "kernel.json"
        assert main(["kernel", "--family", "haar", "--j", "0..13", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["j_set"] == list(range(14)) and doc["passes"]

    @pytest.mark.parametrize("argv", BAD_SOBOLEV_SETTINGS)
    def test_bad_sobolev_settings_exit_1_before_compute(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum was computed")

        monkeypatch.setattr("waverate.sobolev.family_spectrum", refuse)
        out = tmp_path / "sobolev.json"
        assert main(argv.split() + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "expand --family haar --function gaussian --j 0..12",
        "expand --family haar --function gaussian --level 6 --j 0..6",
    ])
    def test_finest_analysed_scale_runs(self, argv, tmp_path):
        # the wavelets of scale level - 1 are the finest below haar's
        # quadrature lattice: the squared coefficients of the gaussian still
        # sum to int e^{-2x^2} dx
        out = tmp_path / "expand.json"
        assert main(argv.split() + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        total = sum(float(v) ** 2 for part in ("a", "b") for v in doc[part].values())
        assert abs(total / math.sqrt(math.pi / 2.0) - 1.0) <= 1e-12

    def test_expand_battle_lemarie_parseval(self, tmp_path):
        # odd-order splines on integer knots nest, so bl3 is an MRA: the
        # squared coefficients of the gaussian sum to int e^{-2x^2} dx
        out = tmp_path / "expand.json"
        argv = "expand --family battle_lemarie:3 --function gaussian --j 0..6 --out"
        assert main(argv.split() + [str(out)]) == 0
        doc = json.loads(out.read_text())
        total = sum(float(v) ** 2 for part in ("a", "b") for v in doc[part].values())
        assert abs(total / math.sqrt(math.pi / 2.0) - 1.0) <= 1e-6

    def test_family_invariants(self, capsys):
        assert main(["family", "--family", "haar"]) == 0
        assert "max_invariant_defect" in capsys.readouterr().out

    def test_spline_csv(self, tmp_path):
        out = tmp_path / "spline.csv"
        code = main(
            [
                "spline",
                "--function",
                "sine",
                "--order",
                "2",
                "--mesh-exponents",
                "2..5",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "family,function,kind,j,sup_error"

    def test_rate_csv_holds_the_json_levels_and_errors(self, tmp_path):
        # one row per level, its j and sup_error those of the same study's JSON
        argv = "rate --family daubechies:2 --function gaussian --j 3..9 --out".split()
        assert main(argv + [str(tmp_path / "rate.json")]) == 0
        assert main(argv + [str(tmp_path / "rate.csv"), "--format", "csv"]) == 0
        doc = json.loads((tmp_path / "rate.json").read_text())
        with open(tmp_path / "rate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["j"]) for row in rows] == doc["j_values"] == list(range(3, 10))
        assert [float(row["sup_error"]) for row in rows] == doc["sup_errors"]
        assert {(row["family"], row["function"], row["kind"]) for row in rows} == {
            ("daubechies:2", "gaussian", "sup")
        }

    @pytest.mark.parametrize("exponents", ["2..3000000", "-3000000..4"])
    def test_long_mesh_range_rejected_by_its_ends(self, exponents, tmp_path, capsys):
        # the ends are checked before the list of meshes exists: no memory
        # grows with the range
        argv = ["spline", "--function", "sine", "--order", "2",
                f"--mesh-exponents={exponents}", "--out", str(tmp_path / "spline.json")]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 5 * 2**20
        assert "error:" in capsys.readouterr().err

    def test_spline_check_fits_each_mesh_once(self, monkeypatch, capsys):
        # the optimality check reads the study's own table and finest fit
        from waverate import convergence, splines

        fits, tables = [], []
        fit, tabulate = splines.best_l2_spline, convergence.TestFunction.tabulate

        def counting_fit(f, space):
            fits.append(space.mesh)
            return fit(f, space)

        def counting_tabulate(tf, level):
            tables.append(level)
            return tabulate(tf, level)

        monkeypatch.setattr(convergence, "best_l2_spline", counting_fit)
        monkeypatch.setattr(convergence.TestFunction, "tabulate", counting_tabulate)
        argv = "spline --function sine --order 2 --mesh-exponents 2..6 --check-optimality"
        assert main(argv.split()) == 0
        assert "optimal=True" in capsys.readouterr().out
        assert fits == [2.0**-m for m in range(2, 7)]
        assert tables == [12]

    @pytest.mark.parametrize("argv, check", [
        ("rate --family daubechies:2 --function gaussian --j 3..9", "check_rate_study"),
        ("spline --function sine --order 2 --mesh-exponents 2..6", "check_study"),
    ])
    def test_study_checks_itself_once(self, argv, check, monkeypatch):
        # the study checks its own input; the CLI runs no second copy
        from waverate import convergence, splines

        calls = []
        original = getattr(convergence, check)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (cli, convergence):
            if hasattr(module, check):
                monkeypatch.setattr(module, check, counting)
        assert main(argv.split()) == 0
        assert len(calls) == 1

    def test_spline_json_records_fitted_levels(self, tmp_path):
        # the errors at h = 2^-5 and 2^-6 (3.2e-14, 1.7e-15) are roundoff
        out = tmp_path / "spline.json"
        argv = "spline --function sine --order 6 --mesh-exponents 2..6 --out"
        assert main(argv.split() + [str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["j_values"] == [2, 3, 4, 5, 6]
        assert doc["fitted_levels"] == [2, 3, 4]
        assert abs(doc["slope"] - 6.0) <= 0.1

    def test_rate_and_spline_json_share_one_schema(self, tmp_path):
        # every RateReport field, none of them null
        for argv in ("rate --family haar --function gaussian --j 3..9",
                     "spline --function sine --order 2 --mesh-exponents 2..6"):
            out = tmp_path / f"{argv.split()[0]}.json"
            assert main(argv.split() + ["--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert sorted(doc) == sorted(RateReport._fields)
            assert None not in doc.values()


#: each command's line and the study of `cli` its runner calls (the suite's
#: criteria for `suite`)
FAILED_STUDIES = [
    ("family --family haar", "check_family_invariants"),
    ("expand --family haar --function gaussian --j 0..6", "analyze"),
    ("kernel --family haar --j 0..6", "verify_convolution_bound"),
    ("rate --family haar --function gaussian --j 3..9", "sup_error_rates"),
    ("sobolev --family haar", "critical_order"),
    ("sobolev --family haar --sweep-s 0.1..2.0:0.1", "criterion_sweep"),
    ("spline --function sine --order 2 --mesh-exponents 2..6", "spline_convergence_study"),
    ("suite", "CRITERIA"),
]


class TestComputationError:
    def test_the_library_defines_two_exception_classes(self):
        # bad input and a failed computation, each one type, so that main
        # maps every failure to its exit code by type alone
        found = set()
        for info in pkgutil.iter_modules(waverate.__path__):
            module = importlib.import_module(f"waverate.{info.name}")
            found.update(
                obj for obj in vars(module).values()
                if isinstance(obj, type) and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            )
        assert found == {ConfigError, ComputationError}

    def test_computation_error_is_no_value_error(self):
        # the parsers catch ValueError to report bad input
        assert not issubclass(ComputationError, ValueError)

    @pytest.mark.parametrize("argv, study", FAILED_STUDIES)
    def test_failed_study_exits_2_without_artifact(self, argv, study, tmp_path, monkeypatch,
                                                   capsys):
        def fail(*args, **kwargs):
            raise ComputationError("the study failed its own check")

        monkeypatch.setattr(cli, study, (("1", fail),) if study == "CRITERIA" else fail)
        out = tmp_path / "out"
        assert main(argv.split() + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the study failed its own check\n"
        assert captured.out == ""
        assert not out.exists()


def per_cell_average_defect(haar, tf, j: int, level: int = 12) -> float:
    """Criterion 2's cell-average oracle one cell at a time."""
    f = tf.tabulate(level)
    pj = project(f, haar, j, DyadicGrid(tf.window[0], tf.window[1], level))
    per = 2 ** (level - j)
    h = f.grid.spacing
    worst = 0.0
    for c in range((f.values.size - 1) // per):
        left = f.grid.left + c * per * h
        avg = float(np.mean(tf.sampler(left + (np.arange(per) + 0.5) * h)))
        interior = pj.values[c * per + 1 : c * per + per]
        worst = max(worst, float(np.max(np.abs(interior - avg))))
    return worst


def oscillating_set_indicator(x):
    """1 on E = union_n [2^-n, 2^-n (1 + 4^-n)], the set behind oscillating_indicator."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for n in range(1, 40):
        out[(x >= 2.0**-n) & (x <= 2.0**-n + 8.0**-n)] = 1.0
    return out


class TestHaarCellAverageOracle:
    @pytest.mark.parametrize("name", ["ramp", "gaussian", "oscillating_indicator"])
    def test_one_pass_equals_per_cell_loop(self, name):
        haar, tf = make_family("haar"), test_function(name)
        if tf.sampler is None:  # tabulated from its measure; sample its set
            tf = tf._replace(sampler=oscillating_set_indicator)
        got = _haar_cell_average_defects(haar, tf, range(0, 9))
        assert got == [per_cell_average_defect(haar, tf, j) for j in range(0, 9)]


class TestThreadIndependence:
    def test_family_json_same_under_blas_threads(self, tmp_path):
        # the quadrature sums stay out of BLAS, whose blocking follows its
        # thread count
        outs = []
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            argv = ["family", "--family", "daubechies:2", "--out", "f.json"]
            proc = run_cli(argv, cwd, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append((cwd / "f.json").read_bytes())
        assert outs[0] == outs[1]

    def test_shannon_gram_check_same_under_blas_threads(self, tmp_path):
        # the sinc's lag sums come from one BLAS product; each Gram entry is
        # one dot product, whose order the thread split leaves alone
        outs = []
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            argv = ["family", "--family", "shannon", "--out", "f.json"]
            proc = run_cli(argv, cwd, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads((cwd / "f.json").read_bytes())["invariant_defects"])
        assert outs[0] == outs[1]

    def test_studies_same_under_blas_threads(self, tmp_path):
        # the approximation studies', critical orders' and suite runs'
        # artifacts and summaries, each thread count in its own fresh process
        # running every study through main
        argvs = [argv.split() for argv in (
            "rate --family daubechies:2 --function gaussian --j 3..9 --out rate-db2.json",
            "rate --family battle_lemarie:2 --function gaussian --j 3..9 --out rate-bl2.json",
            "expand --family daubechies:2 --function gaussian --j 0..6 --out expand.json",
            "kernel --family battle_lemarie:2 --j 0..6 --fit-decay exponential --out kernel.json",
            "spline --function sine --order 2 --mesh-exponents 2..6 --check-optimality "
            "--out spline.json --seed 3",
            "sobolev --family haar --sweep-s 0.1..2.0:0.1",
            "sobolev --family daubechies:6 --criterion scaling",
            "sobolev --family battle_lemarie:3 --criterion scaling",
            "sobolev --family daubechies:4",
            "suite --out rep",
            "suite --jobs 2 --out rep2",
        )]
        script = f"from waverate.cli import main\nprint([main(argv) for argv in {argvs!r}])\n"
        outs = []
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            proc = run_python(["-c", script], cwd, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.decode().splitlines()[-1] == str([0] * len(argvs))
            outs.append((proc.stdout, sorted((p.relative_to(cwd).as_posix(), p.read_bytes())
                                             for p in cwd.rglob("*") if p.is_file())))
        # the sobolev studies only print; each other study writes one artifact
        assert len(outs[0][1]) == len(argvs) - 4
        assert outs[0] == outs[1]


class TestSuiteCommand:
    def test_only_filter(self, tmp_path, capsys):
        code = main(["suite", "--only", "kernel", "--out", str(tmp_path / "rep")])
        assert code == 0
        with open(tmp_path / "rep" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # the expected/observed cells hold commas; quoting keeps the columns
        assert {r["criterion"]: r["status"] for r in rows} == {
            "3": "PASS",
            "3b": "expected-fail",
        }

    def test_only_no_match_exits_1(self, tmp_path):
        assert main(["suite", "--only", "bogus", "--out", str(tmp_path / "rep")]) == 1
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("cid, name", [
        ("1", "mra-invariants"), ("2", "haar-projection-oracle"),
        ("3", "kernel-convolution-bound"), ("3b", "kernel-bound-shannon"),
        ("4", "exponential-decay-fit"), ("5", "lebesgue-point-convergence"),
        ("6", "summation-order-robustness"), ("7", "rate-slopes"), ("8", "critical-orders"),
        ("9", "rate-criterion-consistency"), ("10", "lp-convergence"),
        ("11", "spline-convergence"), ("12", "determinism"),
    ])
    def test_only_matches_the_row_name(self, cid, name, tmp_path):
        assert main(["suite", "--only", name, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["criterion"], r["name"]) for r in rows] == [(cid, name)]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exits_1_before_compute(self, jobs, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("a criterion ran")

        monkeypatch.setattr("waverate.cli.CRITERIA", (("1", refuse),))
        assert main(["suite", "--jobs", jobs, "--out", str(tmp_path / "rep")]) == 1
        assert not (tmp_path / "rep").exists()
        assert "--jobs" in capsys.readouterr().err

    def test_units_hold_the_13_rows_in_report_order(self):
        # criteria 7-9 read the same studies, so they are one unit; every
        # other criterion is a unit alone
        assert [uid for uid, _ in cli.CRITERIA] == list(suite.NAMES)
        assert len(cli.CRITERIA) == 11
        assert [cid for uid, _ in cli.CRITERIA for cid in suite.NAMES[uid]] == [
            "1", "2", "3", "3b", "4", "5", "6", "7", "8", "9", "10", "11", "12",
        ]
        assert [list(rows) for rows in suite.NAMES.values() if len(rows) > 1] == [
            ["7", "8", "9"],
        ]

    @pytest.mark.parametrize("only, ids", [
        ("rate", ["7", "9"]), ("crit", ["8", "9"]), ("criti", ["8"]),
        ("1", ["1", "10", "11", "12"]),
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_only_selects_rows_across_a_unit(self, only, ids, jobs, tmp_path, monkeypatch):
        # a unit runs whole when any of its rows is chosen; the report holds
        # only the chosen rows
        ran = tmp_path / "ran"

        def logged(uid):
            def runner():
                with open(ran, "a") as fh:
                    fh.write(f"{uid}\n")
                return quick_rows(uid)
            return runner

        monkeypatch.setattr(cli, "CRITERIA", tuple((uid, logged(uid)) for uid, _ in cli.CRITERIA))
        assert main(["suite", "--jobs", jobs, "--only", only, "--out", str(tmp_path / "rep")]) == 0
        with open(tmp_path / "rep" / "summary.csv", newline="") as fh:
            assert [r["criterion"] for r in csv.DictReader(fh)] == ids
        units = [uid for uid in suite.NAMES if set(suite.NAMES[uid]) & set(ids)]
        assert sorted(ran.read_text().split()) == sorted(units)

    def test_workers_run_each_slope_study_once(self, tmp_path, monkeypatch):
        # the forked workers append each sup-norm study they run to one file
        log, study = tmp_path / "studies", suite.sup_error_rates

        def logged_study(tf, fam, js, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{fam.label} {js.start}..{js.stop - 1}\n")
            return study(tf, fam, js, *args, **kwargs)

        monkeypatch.setattr(suite, "sup_error_rates", logged_study)
        assert main(["suite", "--jobs", "2", "--out", str(tmp_path / "rep")]) == 0
        # the unit of criteria 7-9 reads 3..9, criterion 12 runs its own 3..7 twice
        assert sorted(log.read_text().splitlines()) == [
            "battle_lemarie:2 3..9", "daubechies:2 3..9", "haar 3..7", "haar 3..7", "haar 3..9",
        ]


def quick_rows(uid):
    """PASS rows for each row of unit `uid`."""
    return sum((suite._row(cid, "", "", True) for cid in suite.NAMES[uid]), ())


def quick_criteria(**raising):
    """cli.CRITERIA's unit ids, each with a runner that returns PASS rows at
    once, or with raising[f"c{id}"] where that is given (c3b for "3b")."""
    def runner(uid):
        return raising.get(f"c{uid}") or (lambda: quick_rows(uid))

    return tuple((uid, runner(uid)) for uid, _ in cli.CRITERIA)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSuiteWorkers:
    @pytest.mark.parametrize("jobs, forks", [("1", 0), ("2", 2), ("1000000", 11)])
    def test_workers_are_capped_by_the_units(self, jobs, forks, tmp_path, monkeypatch):
        started, fork = [], os.fork

        def counted_fork():
            started.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(cli, "CRITERIA", quick_criteria())
        assert main(["suite", "--jobs", jobs, "--out", str(tmp_path / "rep")]) == 0
        assert len(started) == forks
        assert_no_child_left()

    def test_one_unit_runs_in_this_process(self, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        assert main(["suite", "--jobs", "2", "--only", "12", "--out", str(tmp_path)]) == 0

    def test_rows_keep_report_order(self, tmp_path, monkeypatch):
        def slow():
            time.sleep(0.2)
            return suite._row("1", "", "", True)

        monkeypatch.setattr(cli, "CRITERIA", quick_criteria(c1=slow))
        reports = []
        for jobs in ("1", "3"):
            assert main(["suite", "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
            reports.append((tmp_path / jobs / "summary.csv").read_bytes())
        assert reports[0] == reports[1]
        assert [line.split(b",")[0] for line in reports[0].splitlines()[1:]] == [
            cid.encode() for rows in suite.NAMES.values() for cid in rows
        ]
        assert_no_child_left()

    @pytest.mark.parametrize("raising", [
        {"c5": "criterion 5 failed"},
        # a later unit fails first; the earlier one's error is the one reported
        {"c1": "criterion 1 failed", "c2": "criterion 2 failed"},
        {"c3b": "criterion 3b failed", "c10": "criterion 10 failed"},
    ])
    def test_failed_criterion_exits_2_as_in_one_process(self, raising, tmp_path, monkeypatch,
                                                        capsys):
        def fail(message, delay):
            def runner():
                time.sleep(delay)
                raise ComputationError(message)
            return runner

        first = next(iter(raising))
        monkeypatch.setattr(cli, "CRITERIA", quick_criteria(**{
            cid: fail(message, 0.2 if cid == first else 0.0) for cid, message in raising.items()
        }))
        errors = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["suite", "--jobs", jobs, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            errors.append(captured.err)
            assert_no_child_left()
        assert errors == [f"error: {raising[first]}\n"] * 2

    def test_an_unexpected_error_carries_the_worker_traceback(self, tmp_path, monkeypatch):
        def broken_criterion():
            raise KeyError("no such study")

        monkeypatch.setattr(cli, "CRITERIA", quick_criteria(c6=broken_criterion))
        with pytest.raises(KeyError, match="no such study") as info:
            main(["suite", "--jobs", "2", "--out", str(tmp_path)])
        assert "in broken_criterion" in info.value.__notes__[-1]
        assert_no_child_left()

    # the message names every row of the dead worker's unit
    @pytest.mark.parametrize("uid, ids", [("4", "4"), ("7", "7, 8, 9")])
    def test_a_worker_that_dies_is_a_failed_computation(self, uid, ids, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(cli, "CRITERIA", quick_criteria(**{f"c{uid}": lambda: os._exit(3)}))
        assert main(["suite", "--jobs", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the worker of criteria {ids} ended without their rows\n"
        assert_no_child_left()

    def test_no_unit_starts_after_a_failure(self, tmp_path, monkeypatch):
        # criterion 1 fails while criterion 2 runs; no other criterion starts
        started = tmp_path / "started"

        def fail():
            raise ComputationError("criterion 1 failed")

        def slow():
            time.sleep(0.3)
            return suite._row("2", "", "", True)

        def logged(uid):
            def runner():
                with open(started, "a") as fh:
                    fh.write(f"{uid}\n")
                return quick_rows(uid)
            return runner

        others = {f"c{uid}": logged(uid) for uid, _ in cli.CRITERIA[2:]}
        monkeypatch.setattr(cli, "CRITERIA", quick_criteria(c1=fail, c2=slow, **others))
        assert main(["suite", "--jobs", "2", "--out", str(tmp_path / "rep")]) == 2
        assert not started.exists()
        assert_no_child_left()

    def test_workers_are_killed_when_the_parent_raises(self, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("pickle.load", interrupted)
        monkeypatch.setattr(cli, "CRITERIA", quick_criteria(c1=lambda: time.sleep(60)))
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["suite", "--jobs", "2", "--out", str(tmp_path)])
        assert time.monotonic() - start < 30
        assert_no_child_left()


#: each command with its required options; every one takes --out
OUT_COMMANDS = {
    "family": "family --family haar",
    "expand": "expand --family haar --function gaussian --j 0..6",
    "kernel": "kernel --family haar --j 0..6",
    "rate": "rate --family haar --function gaussian --j 3..9",
    "sobolev": "sobolev --family haar",
    "spline": "spline --function sine --order 2 --mesh-exponents 2..6",
    "suite": "suite --only 12",
}


class TestOutUnderAFile:
    def test_every_command_is_covered(self):
        assert set(OUT_COMMANDS) == set(cli.COMMANDS)
        assert all("--out" in options for _, options, _ in cli.COMMANDS.values())

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_exits_1_before_compute(self, command, tmp_path, monkeypatch, capsys):
        def refuse(args):
            raise AssertionError("computed")

        monkeypatch.setitem(cli.COMMANDS, command, (*cli.COMMANDS[command][:2], refuse))
        blocker = tmp_path / "F"
        blocker.write_text("")
        outs = [blocker / "x.json", blocker / "a" / "b" / "x.json"]
        if command == "suite":  # the report directory itself
            outs.append(blocker)
        for out in outs:
            argv = OUT_COMMANDS[command].split() + ["--out", str(out)]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: --out: {blocker} is not a directory\n"
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["family", "suite"])
    def test_missing_directories_are_made(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = OUT_COMMANDS[command].split() + ["--out", "new/dirs/out.json"]
        assert main(argv) == 0
        assert (tmp_path / "new" / "dirs" / "out.json").exists()


class TestOutNamingADirectory:
    @pytest.mark.parametrize("command", [c for c in OUT_COMMANDS if c != "suite"])
    def test_exits_1_before_compute(self, command, tmp_path, monkeypatch, capsys):
        def refuse(args):
            raise AssertionError("computed")

        monkeypatch.setitem(cli.COMMANDS, command, (*cli.COMMANDS[command][:2], refuse))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "D").mkdir()
        for out in ["D", "D/", "new/", ".", "..", "D/.", str(tmp_path / "D")]:
            argv = OUT_COMMANDS[command].split() + ["--out", out]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: --out: {out} names a directory, not a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["D"]
        assert list((tmp_path / "D").iterdir()) == []


class TestOutNotARegularFile:
    # the atomic rename would replace such a target with a regular file
    @pytest.fixture
    def refused(self, monkeypatch):
        def refuse(args):
            raise AssertionError("computed")

        for command, (doc, options, _) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, command, (doc, options, refuse))

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_fifo_exits_1_before_compute(self, command, tmp_path, refused, capsys):
        out = target = tmp_path / "F"
        if command == "suite":  # the report's summary.csv
            out.mkdir()
            target = out / "summary.csv"
        os.mkfifo(target)
        assert main(OUT_COMMANDS[command].split() + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out: {target} is not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(target).st_mode)

    def test_suite_summary_directory_exits_1_before_compute(self, tmp_path, refused, capsys):
        target = tmp_path / "rep" / "summary.csv"
        target.mkdir(parents=True)
        assert main(["suite", "--only", "12", "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err == f"error: --out: {target} is not a regular file\n"
        assert list(target.iterdir()) == []


class TestEmptyOut:
    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_exits_1_before_compute(self, command, tmp_path, monkeypatch, capsys):
        # an unset $OUT in a script must not pass as a run that wrote nothing
        # (or, for suite, as the default report directory)
        def refuse(args):
            raise AssertionError("computed")

        monkeypatch.setitem(cli.COMMANDS, command, (*cli.COMMANDS[command][:2], refuse))
        monkeypatch.chdir(tmp_path)
        for out in (["--out", ""], ["--out="]):
            assert main(OUT_COMMANDS[command].split() + out) == 1
            assert capsys.readouterr().err == "error: --out: empty path\n"
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the argparse front end that `cli.COMMANDS` replaced, kept unchanged as the
# verification oracle of `cli.parse_args`


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


def build_parser() -> _Parser:
    parser = _Parser(prog="waverate", description=cli.__doc__.splitlines()[0])
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


def readme_argvs() -> list[list[str]]:
    """The argument lists of the README's `waverate ...` quickstart lines."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quickstart (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [words[1:] for words in lines if words[:1] == ["waverate"]]


def benchmark_argvs() -> list[list[str]]:
    """The argument lists of every study the benchmark's workloads run."""
    studies = runpy.run_path(str(ROOT / "benchmarks" / "studies.py"))
    return [
        list(study.argv)
        for workload in studies["WORKLOADS"]
        for smoke in (False, True)
        for study in studies["studies"](workload, seed=3, smoke=smoke)
    ]


RATE = "rate --family haar --function gaussian --j 3..9"
SPLINE = "spline --function sine --order 2 --mesh-exponents 2..6"

#: the argvs the tests pass to `main`, with "OUT" for a temporary path
TEST_ARGVS = [
    *(f"{a} --out OUT" for a in BAD_STUDIES + BAD_KERNEL_SCALES + BAD_SOBOLEV_SETTINGS),
    *(f"family --family {spec}" for spec in BAD_FAMILY_SPECS),
    *(["family", "--family", spec] for spec, _ in BAD_FAMILY_PARAMETERS),
    *(f"rate --family daubechies:2 --function {f} --j 3..9 {tail}"
      for f in ("gaussian", "cusp")
      for tail in ("--window -0.5,0.5 --out OUT", "--window=-0.5,0.5 --out OUT", "--out OUT")),
    "sobolev --family haar --sweep-s 0.1..2.0:0.1 --out OUT",
    "sobolev --family shannon --out OUT",
    "kernel --family haar --j 6..0 --out OUT",
    "rate --family haar --function nope --j 3..9",
    "rate --family haar --function step --j 3..9 --window=-1.0,1.0",
    "rate --family haar --function step --j 3..9 --window 0.5,1.0",
    "kernel --family haar --j 0..13 --out OUT",
    "expand --family haar --function gaussian --j 0..12 --out OUT",
    "expand --family haar --function gaussian --level 6 --j 0..6 --out OUT",
    "expand --family battle_lemarie:3 --function gaussian --j 0..6 --out OUT",
    "family --family haar",
    "spline --function sine --order 2 --mesh-exponents 2..5 --format csv --out OUT",
    "spline --function sine --order 2 --mesh-exponents=2..3000000 --out OUT",
    "spline --function sine --order 2 --mesh-exponents=-3000000..4 --out OUT",
    f"{SPLINE} --check-optimality",
    "spline --function sine --order 6 --mesh-exponents 2..6 --out OUT",
    "family --family daubechies:2 --out f.json",
    "family --family daubechies:10",
    "sobolev --family daubechies:6 --criterion wavelet",
    "suite --only kernel --out OUT",
    "suite --only bogus --out OUT",
    "suite --jobs 0 --out OUT",
    "suite --jobs -1 --out OUT",
    "suite --only 11 --out suite_report",
    "suite --out OUT",
    "suite --out OUT --jobs 2",
]

#: well-formed command lines in every form the parser accepts
FORMS = [
    # --opt=value, in every converter's kind
    "family --family=haar --out=family.json",
    f"{RATE} --level=10 --window=-0.5,0.5 --format=csv --out=rate.csv",
    "sobolev --family=haar --criterion=scaling --epsilon=0.5 --sweep-s=0.1..1:0.1",
    f"{SPLINE} --seed=7 --level=13",
    "kernel --family haar --j=0..6 --fit-decay=exponential",
    # unambiguous prefixes, spaced and glued
    "family --fam haar --o family.json",
    "rate --fam haar --fu gaussian --j 3..9 --win -0.5,0.5 --fo csv --le 10",
    "expand --fam=haar --func=gaussian --j=0..6",
    "sobolev --fam haar --crit scaling --eps 2 --sw 0.5..1.5:0.5",
    "spline --fun sine --ord 2 --mesh 2..6 --check --se 3",
    "kernel --fam haar --j 0..6 --fit exponential",
    "suite --j 2 --on 1 --ou report",
    # a value that begins with '-' and a digit or point, and a lone '-'
    "expand --family haar --function gaussian --j -3..1",
    "suite --jobs -1",
    "sobolev --family haar --epsilon -.5",
    "sobolev --family haar --epsilon -1e-3",
    f"{RATE} --window -.5,.5",
    f"{RATE} --level -2",
    f"{SPLINE} --seed -1",
    f"{SPLINE} --order -3",
    "family --family haar --out -",
    "suite --only -",
    # '=' inside a value, and values that look like options after '='
    "family --family haar --out a=b.json",
    "family --family haar --out=a=b",
    "family --family haar --out=--x",
    "suite --only=-x",
    # empty values
    "family --family haar --out=",
    "suite --out=",
    ["family", "--family", "haar", "--out", ""],
    ["family", "--family", ""],
    # the converters' own spellings
    f"{RATE} --level 010",
    "suite --jobs +2",
    f"{SPLINE} --seed 1_0",
    ["spline", "--function", "sine", "--order", " 2 ", "--mesh-exponents", "2..6"],
    "sobolev --family haar --epsilon 1e0",
    "sobolev --family haar --epsilon inf",
    "sobolev --family haar --epsilon=-inf --epsilon 3",
    "sobolev --family haar --epsilon=-inf",
    # the last repeat wins
    "family --family haar --family daubechies:2",
    f"{SPLINE} --check-optimality --check-optimality",
    "suite --jobs 1 --jobs 2 --j 3",
    f"{RATE} --format csv --format json --level 10 --le 11",
    # options in any order
    "rate --out rate.json --j 3..9 --function gaussian --family haar",
]

#: malformed command lines: each must raise ConfigError before any compute
MALFORMED = [
    # no, an unknown or an abbreviated command, or an option before it
    [],
    "bogus",
    "ra --family haar",
    "Rate --family haar --function gaussian --j 3..9",
    "--family haar",
    "--",
    f"-- {RATE}",
    # unknown options, stray values and the end-of-options marker
    "family --family haar --bogus",
    "family --family haar --bogus=1",
    "family --family haar -x",
    "family --family haar extra",
    "family --family haar --level 6",
    "suite -j 2",
    f"{RATE} --",
    f"{RATE} -- --out x",
    f"{RATE} ---out x",
    # ambiguous prefixes
    "rate --f haar --function gaussian --j 3..9",
    f"{RATE} --fo",
    "suite --o report",
    # missing options
    "family",
    "rate --family haar --function gaussian",
    "spline --function sine --order 2",
    "kernel --j 0..6",
    # missing values
    "family --family",
    "family --family haar --out",
    "family --family --out x",
    "family --family -x",
    "family --family -h=1",
    f"{RATE} --window -a,b",
    "sobolev --family haar --epsilon -inf",
    # bad int, float or choice
    f"{SPLINE} --order two",
    "suite --jobs 1.5",
    f"{RATE} --level=",
    f"{RATE} --level=1e3",
    f"{SPLINE} --seed 0x10",
    "sobolev --family haar --epsilon one",
    "sobolev --family haar --epsilon=",
    "sobolev --family haar --epsilon 1,0",
    f"{RATE} --format xml",
    f"{RATE} --format JSON",
    "sobolev --family haar --criterion wave",
    "kernel --family haar --j 0..6 --fit-decay linear",
    # a value given to a flag
    f"{SPLINE} --check-optimality=yes",
    f"{SPLINE} --check-optimality=",
    f"{SPLINE} --check-optimality yes",
    f"{SPLINE} --check-optimality -1",
    "family --family haar --help=1",
]


def argvs(lines) -> list[list[str]]:
    """Each distinct command line once, as an argument list."""
    split = (line.split() if isinstance(line, str) else line for line in lines)
    return [list(argv) for argv in dict.fromkeys(map(tuple, split))]


def parsed(parse, argv):
    """The options `parse` reads from argv, or ConfigError if it rejects them."""
    try:
        return vars(parse(argv))
    except ConfigError:
        return ConfigError


ORACLE = build_parser()
WELL_FORMED = argvs(readme_argvs() + benchmark_argvs() + FORMS)


class TestOptionTable:
    @pytest.mark.parametrize("argv", argvs(WELL_FORMED + TEST_ARGVS), ids=shlex.join)
    def test_same_namespace_as_argparse(self, argv):
        assert parsed(cli.parse_args, argv) == parsed(ORACLE.parse_args, argv)

    def test_well_formed_corpus_parses(self):
        # the README, benchmark and form corpus compares namespaces, not errors
        assert all(parsed(ORACLE.parse_args, argv) is not ConfigError for argv in WELL_FORMED)

    @pytest.mark.parametrize("argv", argvs(MALFORMED), ids=shlex.join)
    def test_malformed_raises_config_error(self, argv):
        assert parsed(cli.parse_args, argv) is parsed(ORACLE.parse_args, argv) is ConfigError

    @pytest.mark.parametrize("argv", [[], ["bogus"]])
    def test_no_or_unknown_command_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "error: expected a command" in capsys.readouterr().err


class TestEntryPoint:
    def test_help_names_every_command(self, tmp_path):
        proc = run_cli(["--help"], tmp_path, module="waverate")
        assert proc.returncode == 0, proc.stderr
        commands = [line.split()[0] for line in proc.stdout.decode().splitlines()
                    if line.startswith("  ")]
        assert commands == ["family", "expand", "kernel", "rate", "sobolev", "spline", "suite"]

    def test_rate_help_names_every_option_with_its_default(self, tmp_path):
        proc = run_cli(["rate", "--help"], tmp_path, module="waverate")
        assert proc.returncode == 0, proc.stderr
        shown = {line.split()[0]: line for line in proc.stdout.decode().splitlines()
                 if line.startswith("  --")}
        assert list(shown) == ["--out", "--level", "--family", "--function", "--j",
                               "--window", "--format"]
        for option, default in {"--level": "(default 12)", "--family": "(required)",
                                "--function": "(required)", "--j": "(required)",
                                "--window": "(default -1.0,1.0)",
                                "--format": "(default json)"}.items():
            assert shown[option].endswith(default)

    def test_module_exits_with_the_code_of_main(self, tmp_path):
        proc = run_cli(["bogus"], tmp_path, module="waverate")
        assert proc.returncode == 1 and proc.stderr.startswith(b"error: ")


class TestImportGraph:
    @staticmethod
    def run_script(script: str, cwd) -> str:
        """Run `script` in a fresh interpreter importing this waverate; return
        the last line it prints."""
        src = os.path.dirname(os.path.dirname(waverate.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    @classmethod
    def run_studies(cls, studies, module, cwd) -> str:
        """Run each CLI argv in one fresh interpreter; return its exit codes and
        whether `module` was imported, as the line the script prints."""
        script = (
            "import sys\n"
            "from waverate.cli import main\n"
            f"codes = [main(argv.split()) for argv in {list(studies)!r}]\n"
            f"print(codes, {module!r} in sys.modules)\n"
        )
        return cls.run_script(script, cwd)

    def test_kernels_do_not_import_convergence(self, tmp_path):
        # the decay fit reads grids.line_fit: importing kernels loads neither
        # the study corpus nor the spline studies
        script = "import sys, waverate.kernels\nprint('waverate.convergence' in sys.modules)\n"
        assert self.run_script(script, tmp_path) == "False"

    def test_compute_modules_do_not_import_serialize(self, tmp_path):
        # the compute modules return values and serialize alone writes files:
        # importing each, in dependency order, leaves serialize unloaded
        modules = ["grids", "filters", "splines", "families", "expansion", "kernels",
                   "sobolev", "convergence"]
        script = (
            "import importlib, sys\n"
            "loaded = []\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('waverate.' + name)\n"
            "    loaded += [name] if 'waverate.serialize' in sys.modules else []\n"
            "print(loaded)\n"
        )
        assert self.run_script(script, tmp_path) == "[]"

    def test_spline_studies_do_not_import_scipy(self, tmp_path):
        # a cold scipy import costs a few tenths of a second; the spline layer
        # runs on numpy alone, so no study may pull it in
        studies = [
            "spline --function sine --order 2 --mesh-exponents 2..6 --check-optimality",
            "suite --only 11 --out suite_report",
        ]
        assert self.run_studies(studies, "scipy", tmp_path) == "[0, 0] False"

    def test_spline_studies_do_not_import_numpy_polynomial(self, tmp_path):
        # the Gram's Gauss-Legendre rules are stored doubles: no study pays
        # for the cold numpy.polynomial import
        studies = [
            "spline --function sine --order 2 --mesh-exponents 2..6 --check-optimality",
            "suite --only 11 --out suite_report",
        ]
        assert self.run_studies(studies, "numpy.polynomial", tmp_path) == "[0, 0] False"

    @pytest.mark.parametrize("module", ["argparse", "gettext"])
    def test_quickstart_commands_do_not_import_argparse(self, module, tmp_path):
        # the option table replaced argparse, whose cold import (gettext and
        # locale with it) each CLI call paid before any work
        first = {}
        for argv in readme_argvs():
            first.setdefault(argv[0], " ".join(argv))
        codes = ", ".join("0" * len(first))
        assert self.run_studies(first.values(), module, tmp_path) == f"[{codes}] False"

    @pytest.mark.parametrize("module", ["concurrent.futures", "logging", "dataclasses"])
    def test_quickstart_commands_do_not_import_the_pool_or_dataclasses(self, module, tmp_path):
        # no command imports a pool (logging with it), and the records are
        # built without generated code
        studies = [" ".join(argv) for argv in readme_argvs() if argv[0] != "suite"]
        codes = ", ".join("0" * len(studies))
        assert self.run_studies(studies, module, tmp_path) == f"[{codes}] False"

    @pytest.mark.parametrize("module", ["concurrent.futures", "multiprocessing"])
    def test_suite_workers_import_no_pool(self, module, tmp_path):
        # one unit runs in this process, two in forked workers
        studies = ["suite --jobs 2 --only 12", "suite --jobs 2 --only kernel"]
        assert self.run_studies(studies, module, tmp_path) == "[0, 0] False"

    def test_spline_check_does_not_import_numpy_random(self, tmp_path):
        # the perturbations come from the stdlib generator numpy has already
        # imported: no study pays for the cold numpy.random import
        studies = [f"{SPLINE} --check-optimality"]
        assert self.run_studies(studies, "numpy.random", tmp_path) == "[0] False"

    def test_battle_lemarie_sobolev_does_not_import_numpy_fft(self, tmp_path):
        # a Battle-Lemarie family's support and decay read its series on their
        # first read, not in make_family: a study of the symbol alone pays for
        # neither the series nor the cold numpy.fft import
        studies = [
            "sobolev --family battle_lemarie:2",
            "sobolev --family battle_lemarie:2 --criterion scaling",
        ]
        assert self.run_studies(studies, "numpy.fft", tmp_path) == "[0, 0] False"

    def test_daubechies_studies_do_not_import_mpmath(self, tmp_path):
        # the Daubechies filters are stored doubles: no study factors the
        # half-band polynomial, so none pays for the extended-precision import
        studies = [
            "family --family daubechies:10",
            "sobolev --family daubechies:6 --criterion wavelet",
        ]
        assert self.run_studies(studies, "mpmath", tmp_path) == "[0, 0] False"


class TestBlasThreads:
    """The CLI pins one BLAS thread before numpy loads, unless the caller's
    environment names a count; the package itself loads numpy only on use."""

    THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

    @classmethod
    def run_script(cls, script: str, cwd, **env) -> str:
        """The last line `script` prints in a fresh interpreter importing this
        waverate, with neither thread variable set unless `env` sets it."""
        src = os.path.dirname(os.path.dirname(waverate.__file__))
        base = {k: v for k, v in os.environ.items() if k not in cls.THREAD_VARIABLES}
        proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                              text=True, timeout=300, check=False,
                              env=dict(base, PYTHONPATH=src, **env))
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_import_waverate_loads_no_numpy(self, tmp_path):
        script = "import sys, waverate\nprint('numpy' in sys.modules)\n"
        assert self.run_script(script, tmp_path) == "False"

    def test_every_exported_name_resolves(self, tmp_path):
        # each name is its defining module's object, read in a fresh process
        script = ("import sys, waverate\nfrom waverate import make_family\n"
                  "print(all(getattr(sys.modules[getattr(waverate, name).__module__], name)\n"
                  "          is getattr(waverate, name) for name in waverate.__all__))\n")
        assert self.run_script(script, tmp_path) == "True"
        assert len(waverate.__all__) == 14
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            waverate.missing

    #: the two variables after `import waverate.cli`
    READ_AFTER_CLI = ("import os, waverate.cli\n"
                      f"print([os.environ.get(v) for v in {THREAD_VARIABLES}])\n")

    def test_cli_sets_one_thread_when_unset(self, tmp_path):
        assert self.run_script(self.READ_AFTER_CLI, tmp_path) == "['1', '1']"

    def test_cli_keeps_a_count_the_caller_set(self, tmp_path):
        got = self.run_script(self.READ_AFTER_CLI, tmp_path, OPENBLAS_NUM_THREADS="2",
                              OMP_NUM_THREADS="3")
        assert got == "['2', '3']"

    def test_library_callers_are_untouched(self, tmp_path):
        script = ("import os, waverate.families\n"
                  "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        assert self.run_script(script, tmp_path) == "None"


class TestScripts:
    @staticmethod
    def run_script(name, outdir) -> dict:
        """Run scripts/`name` --outdir `outdir` against this waverate; return
        each JSON file it wrote, parsed, by name."""
        src = os.path.dirname(os.path.dirname(waverate.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), "--outdir", str(outdir)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            file: json.loads((outdir / file).read_text())
            for file in os.listdir(outdir)
            if file.endswith(".json")
        }

    def test_rate_study_script(self, tmp_path):
        # one RateReport per family
        docs = self.run_script("rate_study.py", tmp_path)
        assert sorted(docs) == sorted(
            f"rate_{label}.json"
            for label in ("haar", "battle_lemarie-2", "battle_lemarie-4")
            + tuple(f"daubechies-{n}" for n in (2, 3, 4, 6, 8, 10))
        )
        for doc in docs.values():
            assert sorted(doc) == sorted(RateReport._fields)

    def test_spline_vs_projection_script(self, tmp_path):
        # one RateReport per order, its fitted levels the mesh exponents
        docs = self.run_script("spline_vs_projection.py", tmp_path)
        assert sorted(docs) == ["spline_k1.json", "spline_k2.json", "spline_k3.json"]
        for doc in docs.values():
            assert sorted(doc) == sorted(RateReport._fields)
            assert set(doc["fitted_levels"]) <= set(doc["j_values"])

    def test_sobolev_sweep_script(self, tmp_path):
        # the script runs against the library as it is: one critical-order
        # file per family, with the local exponents s* was read from
        docs = self.run_script("sobolev_sweep.py", tmp_path)
        assert sorted(docs) == [
            "critical_battle_lemarie-2.json",
            "critical_daubechies-2.json",
            "critical_daubechies-3.json",
            "critical_haar.json",
        ]
        for doc in docs.values():
            assert sorted(doc) == sorted(CriticalOrder._fields)
            assert len(doc["local_exponents"]) == 2

def counted_families(monkeypatch, module, read_first=False):
    """Make `module.make_family` give families whose tabulator records each
    read in the returned list; with read_first, their tables are built first."""
    reads = []

    def build(*spec):
        made = make_family(*spec)

        def tabulate(gen, level):
            reads.append((made.label, gen, level))
            return made.tabulate(gen, level)

        fam = made._replace(tabulate=tabulate)
        if read_first:
            families.check_family_invariants(fam)
        return fam

    monkeypatch.setattr(module, "make_family", build)
    return reads


def sobolev_benchmark_argvs() -> list[list[str]]:
    """The benchmark's sobolev studies: 6 families x 2 criteria, and the Haar sweep."""
    return [argv for argv in argvs(benchmark_argvs()) if argv[0] == "sobolev"]


class TestTablesOnFirstRead:
    @pytest.mark.parametrize("argv", sobolev_benchmark_argvs(), ids=shlex.join)
    def test_sobolev_builds_no_table(self, argv, tmp_path, monkeypatch, capsys):
        outcomes = []
        for read_first in (False, True):
            cwd = tmp_path / str(read_first)
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            reads = counted_families(monkeypatch, families, read_first)
            code = main(argv)
            artifact = [p.read_bytes() for p in cwd.iterdir()]
            outcomes.append((code, artifact, capsys.readouterr()))
            assert bool(reads) == read_first
        # the same critical order or sweep, or the same diagnostic
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "argv", [argv for argv in argvs(benchmark_argvs()) if argv[0] in ("rate", "kernel")],
        ids=shlex.join,
    )
    def test_phi_only_studies_build_no_psi(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        reads = counted_families(monkeypatch, families)
        assert main(argv) == 0
        assert reads and all(gen == "phi" for _, gen, _ in reads)

    @pytest.mark.parametrize("argv", [
        *BAD_STUDIES, *BAD_KERNEL_SCALES, *BAD_SOBOLEV_SETTINGS,
        *(f"rate --j 3..9 --family {argv}" for argv, _ in WINDOWS_WITHIN_REACH),
    ])
    def test_admission_rejection_builds_no_table(self, argv, monkeypatch):
        # each check reads the family's support and decay, never its tables
        reads = counted_families(monkeypatch, families)
        assert main(argv.split()) == 1
        assert reads == []

    def test_critical_order_criterion_builds_no_table(self, monkeypatch):
        # criteria 8 and 9 read each spectrum off the family's construction;
        # their unit's rate studies read the tables
        reads = counted_families(monkeypatch, families)
        for spec, _, _ in suite._BATTERY.values():
            fam = families.make_family(*spec)
            for criterion in ("wavelet", "scaling"):
                suite.critical_order(fam, criterion=criterion)
        assert reads == []

    @pytest.mark.parametrize("spec", ["haar", "daubechies:2"])
    @pytest.mark.parametrize("argv", [
        "family", "expand --function gaussian --j 0..6", "kernel --j 0..6",
        "rate --function gaussian --j 3..9",
    ])
    def test_broken_table_exits_2_without_artifact(self, spec, argv, tmp_path, monkeypatch,
                                                   capsys):
        def doubled_phi(*spec):
            fam = make_family(*spec)

            def tabulate(gen, level):
                table = fam.tabulate(gen, level)
                if gen == "psi":
                    return table
                return table._replace(values=2.0 * table.values)

            return fam._replace(tabulate=tabulate)

        monkeypatch.setattr(families, "make_family", doubled_phi)
        out = tmp_path / "out.json"
        assert main(f"{argv} --family {spec} --out {out}".split()) == 2
        assert "phi integral != 1" in capsys.readouterr().err
        assert not out.exists()


#: the base line of each command that has no README line
CONTRACT_BASES = ["expand --family haar --function gaussian --j 0..6"]

#: the boundary values fed to each option with an int or a float converter
BOUNDARY_VALUES = {
    int: ["-1", "0", "9" * 5000],
    float: ["nan", "inf", "-inf", "0", "-1", "1e308"],
}


def contract_cases():
    """(bases, cheap, heavy): each command's base line, its first README line,
    and that line with one option set, glued, to one boundary value of its
    converter.  A range option (a base value like 0..6) is fed a reversed
    and a single range, and, as the heavy cases, an end of a billion either
    way, which a study that listed or read it would allocate for."""
    bases = {}
    for argv in readme_argvs() + [line.split() for line in CONTRACT_BASES]:
        bases.setdefault(argv[0], argv)
    cheap, heavy = [], []
    for command, argv in bases.items():
        given = dict(zip(argv[1::2], argv[2::2]))
        for name, (convert, _, _) in cli.COMMANDS[command][1].items():
            if isinstance(convert, tuple):
                values = ["bogus"]
            elif convert in BOUNDARY_VALUES:
                values = BOUNDARY_VALUES[convert]
            elif re.fullmatch(r"-?\d+\.\.-?\d+", given.get(name, "")):
                a, b = given[name].split("..")
                values = [f"{b}..{a}", f"{a}..{a}"]
                heavy += [argv + [f"{name}={a}..{10**9}"], argv + [f"{name}=-{10**9}..{b}"]]
            else:
                continue
            cheap += [argv + [f"{name}={value}"] for value in values]
    return bases, cheap, heavy


CONTRACT_BASES_BY_COMMAND, CONTRACT_CHEAP, CONTRACT_HEAVY = contract_cases()


def contract_id(argv) -> str:
    return " ".join(word if len(word) <= 24 else f"{word[:12]}...({len(word)})" for word in argv)


class TestContract:
    """Every option of every command, at its converter's boundary values,
    ends in exit 0, 1 or 2, never in a traceback."""

    def test_every_command_has_a_base_line(self):
        assert sorted(CONTRACT_BASES_BY_COMMAND) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("argv", CONTRACT_CHEAP, ids=contract_id)
    def test_boundary_value_exits_cleanly(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_billion_range_ends_exit_cleanly_under_the_cap(self, tmp_path):
        codes, _ = run_capped(CONTRACT_HEAVY, tmp_path)
        assert len(codes) == len(CONTRACT_HEAVY) == 8 and set(codes) <= {0, 1, 2}
