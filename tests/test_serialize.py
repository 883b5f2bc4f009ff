import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from waverate import DyadicGrid, check_family_invariants, make_family, sample
from waverate.convergence import (MarkedPoint, spline_convergence_study, sup_error_rates,
                                  test_function)
from waverate.expansion import analyze
from waverate.grids import DecayHint
from waverate.serialize import (
    atomic_write_text,
    coefficients_to_dict,
    dumps_json,
    family_to_dict,
    fmt,
    write_csv,
    write_json,
    write_record,
)


class TestFmt:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_any_double(self, x):
        assert float(fmt(x)) == x

    def test_integers_render_plainly(self):
        assert fmt(3) == "3"

    def test_no_locale_surprises(self):
        assert fmt(0.5) == "0.5"
        assert "," not in fmt(1234567.25)


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert (tmp_path / "out.txt").read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_a_plain_new_files(self, tmp_path, umask):
        # the artifact's mode is the one open() gives a new file under the
        # umask, not the temp file's owner-only 0o600
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            write_json(str(tmp_path / "out.json"), {"a": 1})
        finally:
            os.umask(old)
        want = stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)
        assert want == 0o666 & ~umask
        assert stat.S_IMODE(os.stat(tmp_path / "out.json").st_mode) == want

    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 0.5], ["x", 2.0], ["p, q", 3]])
        assert (tmp_path / "t.csv").read_text() == 'a,b\n1,0.5\nx,2\n"p, q",3\n'

    def test_json_deterministic(self, tmp_path):
        payload = {"b": 1.5, "a": [np.float64(0.25)]}
        p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        write_json(p1, payload)
        write_json(p2, {"a": [0.25], "b": 1.5})
        assert (tmp_path / "1.json").read_text() == (tmp_path / "2.json").read_text()


class TestWriteRecord:
    def test_the_json_is_every_field(self, tmp_path):
        # one schema for a projection and a spline study, and no field left
        # out, a None one included
        projection = sup_error_rates(
            test_function("gaussian"), make_family("haar"), range(3, 8), (-1.0, 1.0)
        )
        spline = spline_convergence_study(test_function("sine"), 2, range(2, 5))[0]
        for name, record in (("projection", projection), ("spline", spline),
                             ("point", MarkedPoint(0.0, "jump", None))):
            path = tmp_path / f"{name}.json"
            write_record(str(path), record)
            assert json.loads(path.read_text()) == json.loads(json.dumps(record._asdict()))
        assert json.loads((tmp_path / "point.json").read_text())["reference"] is None


class TestFamilyRoundTrip:
    @pytest.mark.parametrize("spec", [("haar", None), ("daubechies", 2), ("battle_lemarie", 2),
                                      ("shannon", None)])
    def test_bit_exact(self, spec):
        fam = make_family(*spec)
        defects = check_family_invariants(fam)
        doc = json.loads(dumps_json(family_to_dict(fam, defects)))
        assert doc["invariant_defects"] == defects
        assert doc["name"] == fam.name
        assert doc["vanishing_moments"] == fam.vanishing_moments
        assert np.array_equal([float(v) for v in doc["values"]], fam.phi.values)
        assert np.array_equal([float(v) for v in doc["psi_values"]], fam.psi.values)
        grid = doc["grid"]
        assert DyadicGrid(float(grid["left"]), float(grid["right"]), grid["level"]) == fam.phi.grid
        if fam.filter is not None:
            lowpass = [float(h) for h in doc["filter"]["lowpass"]]
            assert np.array_equal(lowpass, fam.filter.lowpass)
        # the family's decay, every field of it
        decay = {key: value if key == "kind" else float(value)
                 for key, value in doc["decay"].items()}
        assert DecayHint(**decay) == fam.decay


class TestCoefficientRoundTrip:
    def test_bit_exact(self):
        fam = make_family("haar")
        g = DyadicGrid(-1.0, 1.0, 9)
        f = sample(lambda x: np.cos(x), g)
        coeffs = analyze(f, fam, 0, 3)
        doc = json.loads(dumps_json(coefficients_to_dict(coeffs)))
        assert (doc["j0"], doc["j1"]) == (0, 3)
        assert {int(k): float(v) for k, v in doc["b"].items()} == coeffs.b
        a = {}
        for key, v in doc["a"].items():
            j, k = key.split(",")
            a[(int(j), int(k))] = float(v)
        assert a == coeffs.a
