#!/usr/bin/env python3
"""Best-L2 spline mesh-refinement study and the spline-vs-Battle-Lemarie comparison.

Runs mesh-halving studies for spline orders 1-3 on a smooth target,
printing the fitted rates, then verifies that the order-k spline
approximation on the mesh 2^-j coincides with the level-j projection onto
battle_lemarie:k (k = 1..4; order 1 is Haar): both are the orthogonal
projection onto the same cardinal-spline space.

Usage: python3 scripts/spline_vs_projection.py [--outdir DIR]
"""

import argparse
import os

import numpy as np

from waverate import DyadicGrid, make_family
from waverate.convergence import quadrature_sample, spline_convergence_study, test_function
from waverate.expansion import project
from waverate.serialize import write_record
from waverate.splines import best_l2_spline, make_space


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", help="write RateReport JSON here")
    args = parser.parse_args()

    sine = test_function("sine")
    print(f"{'order':<6} {'slope':>7} {'R^2':>7} {'finest error':>13}")
    for order in (1, 2, 3):
        report = spline_convergence_study(sine, order, range(2, 7))[0]
        print(
            f"k={order:<4} {report.slope:>7.3f} {report.r_squared:>7.4f} "
            f"{report.sup_errors[-1]:>13.3e}"
        )
        if args.outdir:
            write_record(os.path.join(args.outdir, f"spline_k{order}.json"), report)

    gaussian = test_function("gaussian")
    f = gaussian.tabulate(12)
    xs = DyadicGrid(-3.0, 3.0, 12)
    print("\norder-k spline vs. battle_lemarie:k projection on [-3, 3]:")
    for order in (1, 2, 3, 4):
        fam = make_family("battle_lemarie", order)
        # the projection samples f on the family's quadrature lattice
        f_quad = quadrature_sample(gaussian, fam, xs.level)
        for j in (3, 4, 5):
            pj = project(f_quad, fam, j, xs)
            approx = best_l2_spline(f, make_space(order, 2.0**-j, gaussian.window))
            sj = approx.on_lattice(xs.level, xs.start, xs.count)
            gap = float(np.max(np.abs(sj - pj.values)))
            print(f"  k={order} h = 2^-{j}: sup difference {gap:.3e}")

if __name__ == "__main__":
    main()
