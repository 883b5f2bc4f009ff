#!/usr/bin/env python3
"""Sweep the frequency-domain regularity criteria across orders s.

For each family, evaluates the wavelet-side divergence criterion on a grid
of s values, prints where the verdict flips, and compares it with the
critical order s* of the wavelet and scaling criteria: the shells' decay
exponent, printed with the last two local exponents it was extrapolated from.

Usage: python3 scripts/sobolev_sweep.py [--outdir DIR] [--step 0.1]
"""

import argparse
import os

import numpy as np

from waverate import make_family
from waverate.sobolev import (
    criterion_sweep,
    critical_order,
    export_critical_json,
    export_sweep_csv,
)

FAMILIES = (
    ("haar", 0),
    ("daubechies", 2),
    ("daubechies", 3),
    ("battle_lemarie", 2),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", help="write sweep CSV and critical-order JSON here")
    parser.add_argument("--step", type=float, default=0.1)
    args = parser.parse_args()

    print(
        f"{'family':<18} {'flip at':>8} {'s* (wav)':>14} {'local exponents (wav)':>29} "
        f"{'s* (scal)':>14}"
    )
    for name, param in FAMILIES:
        fam = make_family(name, param)
        s_values = np.arange(args.step, 4.0 + args.step / 2, args.step)
        results = criterion_sweep(fam, s_values)
        flips = [r.s for r in results if r.diverged]
        flip = min(flips) if flips else float("nan")
        wav = critical_order(fam, criterion="wavelet")
        scal = critical_order(fam, criterion="scaling")
        e_prev, e_last = wav.local_exponents
        print(
            f"{fam.label:<18} {flip:>8.2f} {wav.s_star:>14.10f} {e_prev:>14.10f} {e_last:>14.10f} "
            f"{scal.s_star:>14.10f}"
        )
        if args.outdir:
            tag = fam.label.replace(":", "-")
            export_sweep_csv(results, os.path.join(args.outdir, f"sweep_{tag}.csv"))
            export_critical_json(wav, os.path.join(args.outdir, f"critical_{tag}.json"))


if __name__ == "__main__":
    main()
