#!/usr/bin/env python3
"""Run the README and benchmark studies and the experiment scripts under two
source trees and compare their outputs.

Every `waverate` command of the README's CLI quickstart (`readme_commands`,
the suite also with `--jobs 2`), every distinct study of the benchmark's
workloads (read from `benchmarks/studies.py`, spline seed 3), the family
table of each source (FAMILY_TABLES), the kernel study of each source's
widest table (KERNELS), each CSV table (CSV_FORMS), each bad
configuration of REJECTIONS, each failed computation of FAILURES and each
`--study` runs twice in fresh processes, once importing `waverate` from
BASE_SRC and once from this checkout's `src/`, each in its own temporary
directory.  So does each experiment script (EXPERIMENT_SCRIPTS, with
`--outdir`), each tree running its own copy: the base tree's from the
`scripts/` beside BASE_SRC, skipped with a note when there is none.  Every
file a run writes, its standard output, its standard
error and its exit code are compared byte for byte, and each is printed as
identical or differing.  A differing text artifact is followed by its
unified diff, capped at DIFF_LINES lines, so the moved digits can be quoted;
a differing JSON artifact also by how many of the numeric fields both sides
share moved (numbers, and strings that read as numbers), by the largest
absolute and relative changes among them, by the fields found on one side
only and by the arrays whose length changed, which are not compared index by
index.  A JSON artifact that differs only in one-sided fields (a schema
change) is one line, with no diff.

Usage: python3 scripts/compare_artifacts.py BASE_SRC
           [--study "kernel --family shannon --j 0..6 --out kernel.json" ...]

Exits 1 if any artifact differs.
"""

import argparse
import difflib
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: most diff lines printed per differing artifact
DIFF_LINES = 40
#: the scripts of scripts/ that run an experiment, each with --outdir
EXPERIMENT_SCRIPTS = ("rate_study.py", "spline_vs_projection.py", "sobolev_sweep.py")
#: one bad configuration per input check: each must exit 1 with the same
#: `error:` line under both trees
REJECTIONS = (
    "expand --family haar --function sine --level 2 --j 0..1",  # odd lattice
    "rate --family haar --function gaussian --j 3..15",  # scale past the lattice
    "rate --family daubechies:4 --function step --j 3..9 --window 0.25,1.0",  # reach
    "rate --family haar --function gaussian --j 1..4",  # too few levels
    "spline --function sine --order 9 --mesh-exponents 4..8",  # order out of range
    "spline --function sine --order 8 --mesh-exponents 2..4",  # window shrunk to nothing
    "kernel --family haar --j 0..1",
    "kernel --family haar --j 1016..1018",
    "rate --family haar --function gaussian --j 3..1000000000",  # rejected by its ends
    "kernel --family haar --j 0..1000000000",
    "rate --family battle_lemarie:2 --function gaussian --j -2000..9",  # coarsest scale
    "spline --function sine --order 2 --mesh-exponents 2..1000000000",  # by its ends
    "expand --family daubechies:2 --function gaussian --j -5..-1",  # tables at level 20
    "expand --family haar --function gaussian --j 0..6 --level=-1",  # negative level
    "spline --function sine --order 2 --mesh-exponents 2..6 --level=-1",
    "sobolev --family daubechies:2 --epsilon 5",
    "sobolev --family haar --sweep-s 15.0..17.0:1.0",
    "family --family daubechies:11",
    "family --family mystery:3",
    "family --family haar:3",  # a parameter the source takes none of
    "family --family shannon:7",
    # a sup-norm window that holds a jump
    "rate --family haar --function oscillating_indicator --j 3..9 --window -0.5,0.5",
    "spline --function step --order 1 --mesh-exponents 2..6",
    "spline --function step --order 2 --mesh-exponents 2..6",
    "spline --function ramp --order 2 --mesh-exponents 2..6",
    # an --out that names a directory
    "rate --family haar --function gaussian --j 3..9 --out .",
    "family --family haar --out new/",
)
#: the family table of one family per source, and of the spline series
#: orders 2..4 (a base tree from before orders 5..8 were accepted has no
#: table of those): its phi and psi values, filter and decay
FAMILY_TABLES = tuple(
    f"family --family {spec} --out family.json"
    for spec in ("haar", "daubechies:3", "daubechies:10", "battle_lemarie:2",
                 "battle_lemarie:3", "battle_lemarie:4", "shannon")
)
#: the kernel study of the widest table of each source past the box: the
#: benchmark's kernel studies read only haar, daubechies:2, battle_lemarie:2
#: and shannon
KERNELS = tuple(
    f"kernel --family {spec} --j 0..6 --out kernel.json"
    for spec in ("daubechies:10", "battle_lemarie:8", "shannon")
)
#: each CSV table a study writes: a rate and a spline study's, and a sweep
#: of the scaling criterion, whose DIVERGED cells start at s* = 2
CSV_FORMS = (
    "rate --family daubechies:2 --function gaussian --j 3..9 --format csv --out rate.csv",
    "spline --function sine --order 2 --mesh-exponents 2..6 --format csv --out spline.csv",
    "sobolev --family daubechies:2 --criterion scaling --sweep-s 0.5..3.0:0.5 --out sweep.csv",
)
#: one computation per kind that fails its own check: each must exit 2 with
#: the same `error:` line under both trees
FAILURES = (
    "sobolev --family shannon",  # no divergence onset
    "sobolev --family shannon --criterion scaling",
    "rate --family haar --function step --j 3..9 --window 0.5,1.0",  # no rate above roundoff
    "rate --family daubechies:2 --function step --j 3..9 --window 0.5,1.0",
    "rate --family shannon --function gaussian --j 3..9",  # errors that do not fall
    "rate --family shannon --function sine --j 3..9 --window 1,2",
    # fitted errors that rise at one level
    "rate --family battle_lemarie:2 --function ramp --j 3..9 --window -0.5,0.5",
    "rate --family battle_lemarie:3 --function step --j 3..9 --window 0.5,1.0",
    "rate --family shannon --function ramp --j 3..9 --window -0.5,0.5",
    "rate --family shannon --function step --j 3..9 --window 0.5,1.0",
    "spline --function sine --order 8 --mesh-exponents 3..7",
)


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's `waverate ...` quickstart lines,
    the suite also with --jobs 2 (in forked workers, not in this process)."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quickstart (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["waverate"]:
            commands.append(words[1:])
            if words[1] == "suite":
                commands.append(words[1:] + ["--jobs", "2"])
    return commands


def benchmark_studies() -> list[list[str]]:
    """The distinct argument lists of the benchmark's full and smoke studies."""
    studies = runpy.run_path(str(ROOT / "benchmarks" / "studies.py"))
    argvs = [
        list(study.argv)
        for workload in studies["WORKLOADS"]
        for smoke in (False, True)
        for study in studies["studies"](workload, seed=3, smoke=smoke)
    ]
    return [argv for i, argv in enumerate(argvs) if argv not in argvs[:i]]


def run(src: str, command: list[str]) -> dict[str, bytes]:
    """Artifacts of one command run in a fresh temporary directory, importing
    `waverate` from src: each written file, stdout, stderr and the exit code."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True, check=False)
        out = {
            str(path.relative_to(tmp)): path.read_bytes()
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file()
        }
    out["<stdout>"] = proc.stdout
    out["<stderr>"] = proc.stderr
    out["<exit code>"] = str(proc.returncode).encode()
    return out


def text_diff(name: str, base: bytes, head: bytes) -> list[str]:
    """The unified diff of two text artifacts, capped; none for binary ones."""
    try:
        a, b = base.decode().splitlines(), head.decode().splitlines()
    except UnicodeDecodeError:
        return []
    lines = list(difflib.unified_diff(a, b, f"base/{name}", f"head/{name}", lineterm=""))
    if len(lines) > DIFF_LINES:
        lines = lines[:DIFF_LINES] + [f"... {len(lines) - DIFF_LINES} more diff lines"]
    return lines


def numeric_fields(doc, arrays, path=()):
    """(path, value) of every number in a parsed JSON document, strings that
    read as numbers included; each array's length goes into `arrays` under
    its path."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_fields(value, arrays, path + (key,))
    elif isinstance(doc, list):
        arrays[path] = len(doc)
        for i, value in enumerate(doc):
            yield from numeric_fields(value, arrays, path + (i,))
    elif isinstance(doc, (int, float, str)) and not isinstance(doc, bool):
        try:
            yield path, float(doc)
        except ValueError:
            pass


def field_paths(doc, path=()):
    """The key path of every field of a parsed JSON document, array indices
    collapsed, so the items of an array share their fields."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(doc, list):
        for value in doc:
            yield from field_paths(value, path)


def without_fields(doc, paths, path=()):
    """A parsed JSON document with the fields at `paths` (collapsed key
    paths) left out."""
    if isinstance(doc, dict):
        return {key: without_fields(value, paths, path + (key,))
                for key, value in doc.items() if path + (key,) not in paths}
    if isinstance(doc, list):
        return [without_fields(value, paths, path) for value in doc]
    return doc


def numeric_moves(base: bytes, head: bytes) -> tuple[list[str], bool] | None:
    """How many shared numeric fields of two JSON artifacts moved, with the
    largest absolute and relative changes among them, the fields found on
    one side only, and each array whose length changed, whose fields are
    left out; and whether those lines account for the whole change (the
    documents are equal once the one-sided fields are left out, 2 == 2.0),
    in which case they are one line.  None if either is not JSON."""
    a_arrays, b_arrays = {}, {}
    try:
        a_doc, b_doc = json.loads(base), json.loads(head)
    except ValueError:
        return None
    a = dict(numeric_fields(a_doc, a_arrays))
    b = dict(numeric_fields(b_doc, b_arrays))
    resized = [p for p in a_arrays.keys() & b_arrays.keys() if a_arrays[p] != b_arrays[p]]
    shared = [p for p in a.keys() & b.keys() if not any(p[: len(r)] == r for r in resized)]
    moved = [p for p in shared if a[p] != b[p]]
    absolute = max((abs(a[p] - b[p]) for p in moved), default=0.0)
    relative = max(
        (abs(a[p] - b[p]) / max(abs(a[p]), abs(b[p])) for p in moved), default=0.0
    )
    a_fields, b_fields = set(field_paths(a_doc)), set(field_paths(b_doc))
    one_sided = [
        f"only in {side}: " + ", ".join(".".join(p) for p in sorted(only))
        for side, only in (("base", a_fields - b_fields), ("head", b_fields - a_fields))
        if only
    ]
    summary = f"{len(moved)} of {len(shared)} shared numeric fields moved"
    dropped = (a_fields - b_fields) | (b_fields - a_fields)
    if one_sided and without_fields(a_doc, dropped) == without_fields(b_doc, dropped):
        return ["; ".join([summary, *one_sided])], True
    return [
        f"{summary}, largest absolute change {absolute:.3g}, largest relative change "
        f"{relative:.3g}",
        *one_sided,
        *(f"array {'.'.join(map(str, r))}: length {a_arrays[r]} -> {b_arrays[r]}"
          for r in sorted(resized, key=str)),
    ], False


def compare(label: str, base: dict[str, bytes], head: dict[str, bytes]) -> int:
    """Print each artifact of two runs as identical or differing, with the
    diff of a differing one; return how many are not identical."""
    print(label)
    differing = 0
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            verdict = f"only in {'head' if name in head else 'base'}"
        else:
            verdict = "identical" if base[name] == head[name] else "differing"
        differing += verdict != "identical"
        print(f"  {name}: {verdict}")
        if verdict == "differing":
            json_moves = numeric_moves(base[name], head[name]) if name.endswith(".json") else None
            moves, whole = json_moves or ([], False)
            for line in moves + ([] if whole else text_diff(name, base[name], head[name])):
                print(f"    {line}")
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", help="the src/ directory of the reference tree")
    parser.add_argument(
        "--study", action="append", default=[], help="one more waverate argument string"
    )
    args = parser.parse_args()
    base_src, head_src = os.path.abspath(args.base_src), str(ROOT / "src")
    extra = FAMILY_TABLES + KERNELS + CSV_FORMS + REJECTIONS + FAILURES + tuple(args.study)
    studies = readme_commands() + benchmark_studies() + [shlex.split(s) for s in extra]
    differing = 0
    for argv in studies:
        command = [sys.executable, "-m", "waverate.cli", *argv]
        differing += compare(
            f"waverate {shlex.join(argv)}", run(base_src, command), run(head_src, command)
        )
    base_scripts = Path(base_src).parent / "scripts"
    if not base_scripts.is_dir():
        print(f"{base_scripts} does not exist: the experiment scripts are skipped")
    else:
        for name in EXPERIMENT_SCRIPTS:
            base = run(base_src, [sys.executable, str(base_scripts / name), "--outdir", "."])
            head = run(head_src, [sys.executable, str(ROOT / "scripts" / name), "--outdir", "."])
            differing += compare(f"scripts/{name} --outdir DIR", base, head)
    print(f"{differing} differing artifact(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
