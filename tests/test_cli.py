import csv
import json

import pytest

from waverate.cli import (
    ConfigError,
    main,
    parse_int_range,
    parse_sweep,
    parse_window,
)
from waverate.convergence import TestFunction
from waverate.splines import MAX_ORDER


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

    @pytest.mark.parametrize("bad", ["0.1..2.0", "2.0..0.1:0.1", "0.1..2.0:-1", "x..y:z"])
    def test_sweep_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_sweep(bad)

    def test_window(self):
        assert parse_window("-1.0,1.0") == (-1.0, 1.0)
        for bad in ("1.0", "1.0,-1.0", "a,b"):
            with pytest.raises(ConfigError):
                parse_window(bad)


class TestCommands:
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

    def test_unknown_family_exits_1(self):
        assert main(["family", "--family", "mystery:3"]) == 1

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
