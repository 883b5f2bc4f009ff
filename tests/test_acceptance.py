"""Acceptance battery: every criterion prints one pass/fail line.

The criteria are implemented once, in waverate.suite, and both the
command-line ``suite`` subcommand and this test module read them from
``waverate.cli.CRITERIA``, so the two always agree.  Each row of
summary.csv is one test, and a unit of several rows runs once for all of
them.  Run with ``-s`` (or read captured output) to see the per-criterion
lines.
"""

import functools

import pytest

from waverate.cli import CRITERIA, NAMES, main
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
