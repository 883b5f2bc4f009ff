"""Acceptance battery: every criterion prints one pass/fail line.

The criteria are implemented once, in waverate.suite, and both the
command-line ``suite`` subcommand and this test module read them from
``waverate.cli.CRITERIA``, so the two always agree.  Run with ``-s`` (or
read captured output) to see the per-criterion lines.
"""

import pytest

from waverate.cli import CRITERIA, main


@pytest.mark.parametrize("cid,runner", CRITERIA, ids=[cid for cid, _ in CRITERIA])
def test_criterion(cid, runner):
    row = runner()
    print(
        f"[criterion {row['id']}] {row['name']}: expected {row['expected']}; "
        f"observed {row['observed']} -> {row['status']}"
    )
    assert row["status"] in ("PASS", "expected-fail"), (
        f"criterion {row['id']} ({row['name']}) failed: "
        f"expected {row['expected']}, observed {row['observed']}"
    )


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
