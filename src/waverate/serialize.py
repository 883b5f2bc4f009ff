"""JSON/CSV export with a bit-exact float contract.

Floats are rendered with 17 significant digits ('.' decimal, comma-delimited
CSV with minimal quoting, LF line endings) so identical runs produce
byte-identical files.  All
writes are atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .grids import DecayHint


def fmt(x) -> str:
    """17-significant-digit decimal rendering; round-trips any double."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
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


def dumps_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# family (de)serialization


def family_to_dict(fam) -> dict:
    doc = {
        "name": fam.name,
        "params": fam.param,
        "vanishing_moments": fam.vanishing_moments,
        "decay": _decay_to_dict(fam.phi.decay_hint),
        "grid": {
            "left": fmt(fam.phi.grid.left),
            "right": fmt(fam.phi.grid.right),
            "level": fam.phi.grid.level,
        },
        "values": [fmt(v) for v in fam.phi.values],
        "psi_values": [fmt(v) for v in fam.psi.values],
    }
    if fam.filter is not None:
        doc["filter"] = {
            "lowpass": [fmt(h) for h in fam.filter.lowpass],
            "offset": fam.filter.offset,
        }
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
