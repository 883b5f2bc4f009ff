#!/usr/bin/env python3
"""Convergence-rate study: sup-norm slopes vs. critical regularity orders.

For each family, fits the log2 error decay of P_j f against j for a smooth
target and compares the slope with the critical order s* of the shells,
printing one table row per family and optionally exporting the RateReports.

Usage: python3 scripts/rate_study.py [--outdir DIR]
"""

import argparse
import os

from waverate import make_family
from waverate.convergence import sup_error_rates, test_function
from waverate.serialize import write_record
from waverate.sobolev import critical_order

FAMILIES = (
    ("haar", None),
    ("daubechies", 2),
    ("daubechies", 3),
    ("daubechies", 4),
    ("daubechies", 6),
    ("daubechies", 8),
    ("daubechies", 10),
    ("battle_lemarie", 2),
    ("battle_lemarie", 4),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", help="write per-family RateReport JSON here")
    args = parser.parse_args()

    gaussian = test_function("gaussian")
    print(f"{'family':<18} {'slope':>7} {'R^2':>7} {'s*':>7} {'|slope-s*|':>11}")
    for name, param in FAMILIES:
        fam = make_family(name, param)
        report = sup_error_rates(gaussian, fam, range(3, 10), (-1.0, 1.0))
        s_star = critical_order(fam).s_star
        gap = abs(report.slope - s_star)
        print(
            f"{fam.label:<18} {report.slope:>7.3f} {report.r_squared:>7.4f} "
            f"{s_star:>7.3f} {gap:>11.3f}"
        )
        if args.outdir:
            write_record(
                os.path.join(args.outdir, f"rate_{fam.label.replace(':', '-')}.json"), report
            )


if __name__ == "__main__":
    main()
