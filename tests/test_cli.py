import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import waverate
from waverate import DyadicGrid, make_family
from waverate.cli import (
    MAX_SWEEP_POINTS,
    ConfigError,
    _haar_cell_average_defects,
    main,
    parse_int_range,
    parse_sweep,
    parse_window,
)
from waverate.convergence import TestFunction, test_function
from waverate.expansion import project
from waverate.splines import MAX_ORDER


def run_cli(argv, cwd, **env):
    """`python -m waverate.cli argv` in a fresh process importing this waverate."""
    src = os.path.dirname(os.path.dirname(waverate.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "waverate.cli", *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        timeout=300,
        check=False,
    )


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


class TestCommands:
    @pytest.mark.parametrize("function", ["gaussian", "cusp"])
    def test_negative_window_parses_in_both_forms(self, function, tmp_path):
        argv = f"rate --family daubechies:2 --function {function} --j 3..9".split()
        spaced, glued, default = (tmp_path / f"{n}.json" for n in ("spaced", "glued", "default"))
        assert main(argv + ["--window", "-0.5,0.5", "--out", str(spaced)]) == 0
        assert main(argv + ["--window=-0.5,0.5", "--out", str(glued)]) == 0
        assert main(argv + ["--out", str(default)]) == 0
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

    @pytest.mark.parametrize("spec", ["mystery:3", "haar:3", "shannon:7"])
    def test_bad_family_spec_exits_1(self, spec, capsys):
        # haar and shannon take no parameter: one given is not dropped
        assert main(["family", "--family", spec]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            # int() would read ' 2' and '+2' as 2 and relabel them daubechies:2
            *(
                (spec, f"family parameter must be decimal digits, got {spec!r}")
                for spec in ("daubechies:2.5", "daubechies:", "daubechies: 2", "daubechies:+2")
            ),
            ("daubechies:0", "daubechies moments must be in 1..10, got 0"),
            ("daubechies:11", "daubechies moments must be in 1..10, got 11"),
            ("battle_lemarie:5", "battle_lemarie order must be in 1..4"),
        ],
    )
    def test_bad_family_parameter_message(self, spec, message, capsys):
        assert main(["family", "--family", spec]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_computational_error_exits_2(self, capsys):
        # window touches the step's jump: a module-level diagnostic, not config
        code = main(
            [
                "rate",
                "--family",
                "haar",
                "--function",
                "step",
                "--j",
                "3..9",
                "--window=-1.0,1.0",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
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
        ],
    )
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

    @pytest.mark.parametrize(
        "argv",
        [
            # the scale-j profile grid has level j + 6: 2^1024 overflows
            "kernel --family haar --j 1016..1018",
            "kernel --family haar --j -1..3",
            # profile collapse is judged over three scales or more
            "kernel --family haar --j 0..1",
        ],
    )
    def test_bad_kernel_scales_exit_1_before_compute(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel was computed")

        monkeypatch.setattr("waverate.cli.verify_convolution_bound", refuse)
        out = tmp_path / "kernel.json"
        assert main(argv.split() + ["--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_fine_kernel_scales_run(self, tmp_path):
        # every scale-j profile reads the family's tables at level 6
        out = tmp_path / "kernel.json"
        assert main(["kernel", "--family", "haar", "--j", "0..13", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["j_set"] == list(range(14)) and doc["passes"]

    @pytest.mark.parametrize(
        "argv",
        [
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
        ],
    )
    def test_bad_sobolev_settings_exit_1_before_compute(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the family was built")

        monkeypatch.setattr("waverate.cli.parse_family_spec", refuse)
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
        from waverate import cli, convergence, splines

        fits, tables = [], []
        fit, tabulate = splines.best_l2_spline, convergence.TestFunction.tabulate

        def counting_fit(f, space):
            fits.append(space.mesh)
            return fit(f, space)

        def counting_tabulate(tf, level):
            tables.append(level)
            return tabulate(tf, level)

        for module in (cli, splines):
            monkeypatch.setattr(module, "best_l2_spline", counting_fit)
        monkeypatch.setattr(convergence.TestFunction, "tabulate", counting_tabulate)
        argv = "spline --function sine --order 2 --mesh-exponents 2..6 --check-optimality"
        assert main(argv.split()) == 0
        assert "optimal=True" in capsys.readouterr().out
        assert fits == [2.0**-m for m in range(2, 7)]
        assert tables == [12]

    def test_spline_json_records_fitted_meshes(self, tmp_path):
        # the errors at h = 2^-5 and 2^-6 (3.2e-14, 1.7e-15) are roundoff
        out = tmp_path / "spline.json"
        argv = "spline --function sine --order 6 --mesh-exponents 2..6 --out"
        assert main(argv.split() + [str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["fitted_meshes"] == [0.25, 0.125, 0.0625]
        assert abs(doc["slope"] - 6.0) <= 0.1


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
            tf = dataclasses.replace(tf, sampler=oscillating_set_indicator)
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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exits_1_before_compute(self, jobs, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("a criterion ran")

        monkeypatch.setattr("waverate.cli.CRITERIA", (("1", refuse),))
        assert main(["suite", "--jobs", jobs, "--out", str(tmp_path / "rep")]) == 1
        assert not (tmp_path / "rep").exists()
        assert "--jobs" in capsys.readouterr().err


class TestImportGraph:
    @staticmethod
    def run_studies(studies, module, cwd) -> str:
        """Run each CLI argv in one fresh interpreter; return its exit codes and
        whether `module` was imported, as the line the script prints."""
        script = (
            "import sys\n"
            "from waverate.cli import main\n"
            f"codes = [main(argv.split()) for argv in {list(studies)!r}]\n"
            f"print(codes, {module!r} in sys.modules)\n"
        )
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

    def test_daubechies_studies_do_not_import_mpmath(self, tmp_path):
        # the Daubechies filters are stored doubles: no study factors the
        # half-band polynomial, so none pays for the extended-precision import
        studies = [
            "family --family daubechies:10",
            "sobolev --family daubechies:6 --criterion wavelet",
        ]
        assert self.run_studies(studies, "mpmath", tmp_path) == "[0, 0] False"


class TestScripts:
    def test_sobolev_sweep_script(self, tmp_path):
        # the script runs against the library as it is: one critical-order
        # file per family, with the local exponents s* was read from
        script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                              "sobolev_sweep.py")
        src = os.path.dirname(os.path.dirname(waverate.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, script, "--outdir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        docs = {
            name: json.loads((tmp_path / name).read_text())
            for name in os.listdir(tmp_path)
            if name.startswith("critical_")
        }
        assert sorted(docs) == [
            "critical_battle_lemarie-2.json",
            "critical_daubechies-2.json",
            "critical_daubechies-3.json",
            "critical_haar.json",
        ]
        for doc in docs.values():
            assert len(doc["local_exponents"]) == 2
