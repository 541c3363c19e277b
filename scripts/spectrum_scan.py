#!/usr/bin/env python3
"""Constrained-entropy curves for a few standard shifts.

For each (shift, indicator potential) pair: compute the attainable-average
interval with its extreme cycles, sweep the interior on a grid, write the
curve CSV, and check concavity plus recovery of the topological entropy at
the maximal-measure average.

    python scripts/spectrum_scan.py --points 65 --out runs/spectra
"""

import argparse
import sys
from pathlib import Path

from shiftlab.measures import indicator_potential
from shiftlab.shifts import format_word, full_shift, golden_mean_shift, sft_from_matrix
from shiftlab.spectrum import check_concavity, spectrum_curve, sup_equals_htop


def scan(name, s, points, out_dir):
    phi = indicator_potential(s, (1,))
    curve = spectrum_curve(s, phi, points)
    iv = curve.interval
    path = out_dir / f"{name}.csv"
    lines = ["a,psi,q_star"] + [f"{a:.12g},{p:.12g},{q:.12g}" for a, p, q in curve.points]
    path.write_text("\n".join(lines) + "\n")
    print(f"{name}: h_top={curve.h_top:.6f}  L_phi=[{iv.lo:.4f},{iv.hi:.4f}] "
          f"witnesses {format_word(iv.lo_cycle)}/{format_word(iv.hi_cycle)}  "
          f"parry_avg={curve.parry_average:.6f}  "
          f"concave={check_concavity(curve)} sup_ok={sup_equals_htop(curve)}  -> {path}")
    return check_concavity(curve) and sup_equals_htop(curve)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=65)
    ap.add_argument("--out", default="runs/spectra")
    args = ap.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = True
    ok &= scan("golden_mean", golden_mean_shift(), args.points, out_dir)
    ok &= scan("full2", full_shift(2), args.points, out_dir)
    # a 3-symbol shift with one forbidden transition
    ok &= scan("three_symbol", sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]]),
               args.points, out_dir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
