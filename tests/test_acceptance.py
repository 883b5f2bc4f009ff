"""Acceptance battery: every criterion prints one pass/fail line.

The criteria are implemented once, in waverate.suite, and both the
command-line ``suite`` subcommand and this test module read them from
``waverate.cli.CRITERIA``, so the two always agree.  Each row of
summary.csv is one test, and a unit of several rows runs once for all of
them.  Run with ``-s`` (or read captured output) to see the per-criterion
lines.
"""

import functools
import itertools

import numpy as np
import pytest

from waverate import convergence, expansion, splines, suite
from waverate.cli import CRITERIA, NAMES, main
from waverate.grids import ComputationError, SampledFunction
from waverate.suite import _BATTERY

#: (unit id, row id) of every row of summary.csv, in report order
ROWS = [(uid, cid) for uid, _ in CRITERIA for cid in NAMES[uid]]


@functools.cache
def unit_rows(uid):
    """The rows unit `uid` returns, run once for all of its rows' tests."""
    rows = dict(CRITERIA)[uid]()
    assert [row["id"] for row in rows] == list(NAMES[uid])
    return rows


@pytest.mark.parametrize("uid,cid", ROWS, ids=[cid for _, cid in ROWS])
def test_criterion(uid, cid):
    row = next(row for row in unit_rows(uid) if row["id"] == cid)
    print(
        f"[criterion {row['id']}] {row['name']}: expected {row['expected']}; "
        f"observed {row['observed']} -> {row['status']}"
    )
    assert row["status"] in ("PASS", "expected-fail"), (
        f"criterion {row['id']} ({row['name']}) failed: "
        f"expected {row['expected']}, observed {row['observed']}"
    )


def test_battery_targets_in_expected():
    # each battery family's slope window and critical order, as rows 7 and 8
    # print them, in a clause that names the family
    clauses = {row["id"]: row["expected"].split("; ") for row in unit_rows("7")}
    for label, (_, (lo, hi), (s_star, tol)) in _BATTERY.items():
        for cid, target in (("7", f" in [{lo},{hi}]"), ("8", f" {s_star} +- {tol}")):
            assert any(label in clause.removesuffix(target).replace(",", "").split()
                       for clause in clauses[cid] if clause.endswith(target)), (label, cid)


def test_criterion_12_full_suite_determinism(tmp_path):
    # two consecutive complete suite runs, and runs in two and in three
    # forked workers, must write byte-identical reports
    runs = {"a": [], "b": [], "jobs2": ["--jobs", "2"], "jobs3": ["--jobs", "3"]}
    for tag, extra in runs.items():
        assert main(["suite", "--out", str(tmp_path / tag), *extra]) == 0
    reports = {(tmp_path / tag / "summary.csv").read_bytes() for tag in runs}
    identical = len(reports) == 1
    status = "PASS" if identical else "FAIL"
    print(
        "[criterion 12] determinism: expected byte-identical suite reports; "
        f"observed identical={identical} -> {status}"
    )
    assert identical


# ---------------------------------------------------------------------------
# witnesses: each row but 3b reads FAIL on one defect injected into what its
# unit reads, so no row passes by construction


def failed(uid, monkeypatch, module, name, change):
    """{row id: observed} of the rows unit `uid` reports as FAIL with
    module.name replaced by change(module.name)."""
    monkeypatch.setattr(module, name, change(getattr(module, name)))
    return {row["id"]: row["observed"] for row in dict(CRITERIA)[uid]()
            if row["status"] == "FAIL"}


def db2_as(change):
    """A make_family that builds daubechies:2 as change(make_family, db2)."""
    def wrap(make):
        def make_family(name, param=None):
            fam = make(name, param)
            return change(make, fam) if (name, param) == ("daubechies", 2) else fam
        return make_family
    return wrap


def scaled_engine(blocks):
    """Every level-j atom block read 1 + 0.05 j times too large."""
    def atom_blocks(fam, gen, j, level):
        beta, b = blocks(fam, gen, j, level)
        return beta, b * (1.0 + 0.05 * j)
    return atom_blocks


def test_row_1_raises_on_a_scaled_table(monkeypatch):
    def scaled(make):
        def make_family(name, param=None):
            fam = make(name, param)

            def tabulate(gen, level):
                table = fam.tabulate(gen, level)
                return SampledFunction(table.grid, table.values * (1.0 + 1e-6))
            return fam._replace(tabulate=tabulate)
        return make_family

    monkeypatch.setattr(suite, "make_family", scaled(suite.make_family))
    with pytest.raises(ComputationError, match="phi integral != 1"):
        dict(CRITERIA)["1"]()


def test_row_2_fails_on_a_scaled_engine(monkeypatch):
    assert failed("2", monkeypatch, expansion, "_atom_blocks", scaled_engine).keys() == {"2"}


def test_row_3_collapse_fails_on_a_scaled_engine(monkeypatch):
    observed = failed("3", monkeypatch, expansion, "_atom_blocks", scaled_engine)
    assert float(observed["3"].split()[0].removeprefix("collapse=")) > 0.05


def test_row_4_fails_on_a_flat_envelope_tail(monkeypatch):
    def floored(bound):
        def verify(fam, js):
            rep = bound(fam, js)
            env = rep["envelope"]
            return {**rep, "envelope": env._replace(majorant=env.majorant + 1e-3 * env.majorant[0])}
        return verify

    assert failed("4", monkeypatch, suite, "verify_convolution_bound", floored).keys() == {"4"}


def test_row_5_fails_on_a_shifted_indicator(monkeypatch):
    # E moved left by 1/4 puts its interval [1/4, 1/4 + 1/64] at 0
    def shifted(lookup):
        def test_function(name):
            tf = lookup(name)
            m = tf.cumulative_measure
            return tf._replace(cumulative_measure=lambda t: m(np.asarray(t) + 0.25))
        return test_function

    assert failed("5", monkeypatch, suite, "test_function", shifted).keys() == {"5"}


def test_row_6_fails_when_every_schedule_validates(monkeypatch):
    accept = lambda validate: lambda schedule: (True, {})
    assert failed("6", monkeypatch, convergence, "validate_schedule", accept).keys() == {"6"}


def test_row_7_fails_on_db3_under_the_db2_label(monkeypatch):
    db3 = db2_as(lambda make, fam: make("daubechies", 3)._replace(param=2))
    assert "7" in failed("7", monkeypatch, suite, "make_family", db3)


def test_rows_8_and_9_fail_on_db3s_symbol_under_the_db2_label(monkeypatch):
    symbol = db2_as(lambda make, fam: fam._replace(symbol=make("daubechies", 3).symbol))
    assert failed("7", monkeypatch, suite, "make_family", symbol).keys() == {"8", "9"}


def test_row_8_eps_clause_fails_on_a_zero_below_the_shells_of_eps_1(monkeypatch):
    # b(w) gains a zero of order 2 below |w| = 2^-12: the innermost shells of
    # eps = 0.5 read s* = 3 there, those of eps = 2 read s* = 2 above it
    def deeper(make, fam):
        def symbol(w, t=2.0**-12):
            a, b = fam.symbol(w)
            w = np.abs(np.asarray(w, dtype=float))
            return a, np.where(w < t, b * (w / t) ** 2, b)
        return fam._replace(symbol=symbol)

    observed = failed("7", monkeypatch, suite, "make_family", db2_as(deeper))
    assert observed["8"].endswith("eps_independent=False")


def test_row_10_fails_on_a_jump_on_a_cell_boundary(monkeypatch):
    step = lambda midcell: lambda j: suite.test_function("step")
    assert failed("10", monkeypatch, suite, "midcell_step", step).keys() == {"10"}


def test_row_11_fails_on_a_scaled_gram(monkeypatch):
    scaled = lambda gram: lambda space: gram(space) * (1.0 + 1e-6)
    assert failed("11", monkeypatch, splines, "gram_matrix", scaled).keys() == {"11"}


def test_row_12_fails_on_a_noisy_writer(monkeypatch):
    calls = itertools.count()

    def noisy(write):
        def write_record(path, record):
            write(path, record)
            with open(path, "a") as fh:
                fh.write(str(next(calls)))
        return write_record

    assert failed("12", monkeypatch, suite, "write_record", noisy).keys() == {"12"}
