import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from waverate import DyadicGrid, make_family, sample
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
)


class TestFmt:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_any_double(self, x):
        assert float(fmt(x)) == x

    def test_integers_render_plainly(self):
        assert fmt(3) == "3"
        assert fmt(True) == "True"

    def test_no_locale_surprises(self):
        assert fmt(0.5) == "0.5"
        assert "," not in fmt(1234567.25)


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert open(path).read() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[1, 0.5], ["x", 2.0], ["p, q", 3]])
        assert open(path).read() == 'a,b\n1,0.5\nx,2\n"p, q",3\n'

    def test_json_deterministic(self, tmp_path):
        payload = {"b": 1.5, "a": [np.float64(0.25)]}
        p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        write_json(p1, payload)
        write_json(p2, {"a": [0.25], "b": 1.5})
        assert open(p1).read() == open(p2).read()


class TestFamilyRoundTrip:
    @pytest.mark.parametrize("spec", [("haar", 0), ("daubechies", 2), ("shannon", 0)])
    def test_bit_exact(self, spec):
        fam = make_family(*spec)
        doc = json.loads(dumps_json(family_to_dict(fam)))
        assert doc["name"] == fam.name
        assert doc["vanishing_moments"] == fam.vanishing_moments
        assert np.array_equal([float(v) for v in doc["values"]], fam.phi.values)
        assert np.array_equal([float(v) for v in doc["psi_values"]], fam.psi.values)
        grid = doc["grid"]
        assert DyadicGrid(float(grid["left"]), float(grid["right"]), grid["level"]) == fam.phi.grid
        if fam.filter is not None:
            lowpass = [float(h) for h in doc["filter"]["lowpass"]]
            assert np.array_equal(lowpass, fam.filter.lowpass)
        assert doc["decay"]["kind"] == fam.phi.decay_hint.kind


class TestCoefficientRoundTrip:
    def test_bit_exact(self):
        fam = make_family("haar")
        g = DyadicGrid(-1.0, 1.0, 9)
        f = sample(lambda x: np.cos(x), g, DecayHint("none"))
        coeffs = analyze(f, fam, 0, 3)
        doc = json.loads(dumps_json(coefficients_to_dict(coeffs)))
        assert (doc["j0"], doc["j1"]) == (0, 3)
        assert {int(k): float(v) for k, v in doc["b"].items()} == coeffs.b
        a = {}
        for key, v in doc["a"].items():
            j, k = key.split(",")
            a[(int(j), int(k))] = float(v)
        assert a == coeffs.a
