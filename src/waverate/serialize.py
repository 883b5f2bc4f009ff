"""Every artifact's bytes: JSON/CSV export with a bit-exact float contract.

This module alone decides what a file holds; the compute modules return
values and the CLI picks one writer per artifact.  CSV cells and ``fmt``
strings render floats with 17 significant digits; a float left a number in
a JSON document (``write_json``, ``write_record``) takes ``json.dumps``'s
shortest repr that round-trips (0.1 stays 0.1).  Either way ('.' decimal,
comma-delimited CSV with minimal quoting, LF line endings) identical runs
produce byte-identical files.  A record (a study's report, a NamedTuple) is
written by ``write_record``: its JSON is its fields.  The tables have
writers of their own: a rate or spline study's ``write_rate_csv``, a
criterion sweep's ``write_sweep_csv`` and the suite's ``write_summary_csv``;
so do the kernel bound report (``write_bound_report``) and the family and
coefficient documents (``family_to_dict``, ``coefficients_to_dict``).  All
writes are atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Iterable, Sequence

from .grids import DecayHint


def fmt(x) -> str:
    """17-significant-digit decimal rendering; round-trips any double."""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to a new temp file in path's directory, then rename it over
    path.  The temp file takes the mode open() gives a new file, 0o666 less
    the umask (tempfile.mkstemp's would be owner-only)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Cells are quoted only when they hold a comma, a quote or a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(cell if isinstance(cell, str) else fmt(cell) for cell in row)
    atomic_write_text(path, buf.getvalue())


def write_json(path: str, payload) -> None:
    atomic_write_text(path, dumps_json(payload) + "\n")


def write_record(path: str, record) -> None:
    """The JSON of a record: its fields."""
    write_json(path, record._asdict())


def write_rate_csv(path: str, report) -> None:
    """A rate or spline study's RateReport, one row per level."""
    rows = [
        [report.family, report.function, "sup", int(j), e]
        for j, e in zip(report.j_values, report.sup_errors)
    ]
    write_csv(path, ["family", "function", "kind", "j", "sup_error"], rows)


def write_sweep_csv(path: str, results) -> None:
    """A criterion sweep's IntegralResults, one row per s: the value, or
    DIVERGED, then each shell sum, padded to the longest row."""
    n = max(len(r.shells) for r in results)
    header = ["s", "epsilon", "value"] + [f"shell_{m}" for m in range(n)]
    rows = [
        [r.s, r.epsilon, "DIVERGED" if r.diverged else r.value, *r.shells]
        + [""] * (n - len(r.shells))
        for r in results
    ]
    write_csv(path, header, rows)


def write_bound_report(path: str, report: dict, fit) -> None:
    """The report of ``kernels.verify_convolution_bound`` without its
    envelope, and the DecayFit when there is one."""
    doc = {key: value for key, value in report.items() if key != "envelope"}
    if fit is not None:
        doc["fit"] = {"model": "exponential", "C": fit.constant, "a": fit.rate, "r2": fit.r2,
                      "flagged": fit.flagged}
    write_json(path, doc)


def write_summary_csv(path: str, rows) -> None:
    """The suite's pass/fail table, one row per criterion row."""
    write_csv(
        path,
        ["criterion", "name", "expected", "observed", "status"],
        [[r["id"], r["name"], r["expected"], r["observed"], r["status"]] for r in rows],
    )


def dumps_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, range):  # a study's scales
        return list(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# family (de)serialization


def family_to_dict(fam, defects: dict) -> dict:
    """The family's tables, filter and decay, and its invariant defects."""
    doc = {
        "name": fam.name,
        "params": fam.param,
        "vanishing_moments": fam.vanishing_moments,
        "decay": _decay_to_dict(fam.decay),
        "grid": {
            "left": fmt(fam.phi.grid.left),
            "right": fmt(fam.phi.grid.right),
            "level": fam.phi.grid.level,
        },
        "values": [fmt(v) for v in fam.phi.values],
        "psi_values": [fmt(v) for v in fam.psi.values],
        "invariant_defects": defects,
    }
    if fam.filter is not None:
        doc["filter"] = {"lowpass": [fmt(h) for h in fam.filter.lowpass]}
    return doc


def _decay_to_dict(d: DecayHint) -> dict:
    out = {"kind": d.kind, "truncation": fmt(d.truncation)}
    if d.a is not None:
        out["a"] = fmt(d.a)
    if d.N is not None:
        out["N"] = fmt(d.N)
    return out


# ---------------------------------------------------------------------------
# expansion coefficients


def coefficients_to_dict(coeffs) -> dict:
    return {
        "j0": coeffs.base_level,
        "j1": coeffs.top_level,
        "b": {str(k): fmt(v) for k, v in sorted(coeffs.b.items())},
        "a": {f"{j},{k}": fmt(v) for (j, k), v in sorted(coeffs.a.items())},
    }
