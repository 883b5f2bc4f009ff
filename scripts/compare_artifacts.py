#!/usr/bin/env python3
"""Run the README studies under two source trees and compare their outputs.

Every `waverate` command of the README's CLI quickstart (the suite with
`--jobs 2`), and each `--study`, runs twice in fresh processes, once
importing `waverate` from BASE_SRC and once from this checkout's `src/`, each
in its own temporary directory.  Every file a study writes, its standard
output and its exit code are compared byte for byte, and each is printed as
identical or differing.  A differing text artifact is followed by its unified
diff, capped at DIFF_LINES lines, so the moved digits can be quoted.

Usage: python3 scripts/compare_artifacts.py BASE_SRC
           [--study "kernel --family shannon --j 0..6 --out kernel.json" ...]

Exits 1 if any artifact differs.
"""

import argparse
import difflib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: most diff lines printed per differing artifact
DIFF_LINES = 40


def readme_studies() -> list[list[str]]:
    """The argument lists of the README's `waverate ...` quickstart lines."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quickstart (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    studies = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["waverate"]:
            argv = words[1:]
            if argv[0] == "suite":
                argv += ["--jobs", "2"]
            studies.append(argv)
    return studies


def run_study(src: str, argv: list[str]) -> dict[str, bytes]:
    """Artifacts of one study: each written file, stdout and the exit code."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "waverate.cli", *argv],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        out = {
            str(path.relative_to(tmp)): path.read_bytes()
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file()
        }
    out["<stdout>"] = proc.stdout
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", help="the src/ directory of the reference tree")
    parser.add_argument(
        "--study", action="append", default=[], help="one more waverate argument string"
    )
    args = parser.parse_args()
    studies = readme_studies() + [shlex.split(s) for s in args.study]
    differing = 0
    for argv in studies:
        base = run_study(os.path.abspath(args.base_src), argv)
        head = run_study(str(ROOT / "src"), argv)
        print(f"waverate {shlex.join(argv)}")
        for name in sorted(set(base) | set(head)):
            if name not in base or name not in head:
                verdict = f"only in {'head' if name in head else 'base'}"
            else:
                verdict = "identical" if base[name] == head[name] else "differing"
            differing += verdict != "identical"
            print(f"  {name}: {verdict}")
            if verdict == "differing":
                for line in text_diff(name, base[name], head[name]):
                    print(f"    {line}")
    print(f"{differing} differing artifact(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
