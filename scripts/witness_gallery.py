#!/usr/bin/env python3
"""Synthesize one witness per gap class, verify it, and print the evidence.

Writes one orbit directory per class under --out and ends with a table of
certificate entropy bounds and classifier verdicts.  Everything is driven
by --seed; rerunning reproduces identical files.

    python scripts/witness_gallery.py --horizon 1048576 --seed 20250809 --out runs/gallery
"""

import argparse
import sys
import time
from pathlib import Path

from shiftlab import io
from shiftlab.classify import evaluate_certificate
from shiftlab.measures import indicator_potential
from shiftlab.shifts import full_shift, topological_entropy
from shiftlab.synthesis import GapClass, certify, synthesize_witness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=1 << 20)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument("--out", default="runs/gallery")
    args = ap.parse_args()

    s = full_shift(2)
    phi = indicator_potential(s, (1,))
    h_top = topological_entropy(s)
    out_root = Path(args.out)

    rows = []
    for gc in GapClass:
        t0 = time.time()
        orbit = synthesize_witness(s, gc, phi, args.horizon, seed=args.seed)
        certify(orbit)
        result = evaluate_certificate(orbit.word, s, orbit.certificate.expected_statistics,
                                      phi=phi)
        io.write_orbit_dir(orbit, out_root / gc.value.lower())
        rows.append((gc.value, orbit.certificate.inf_entropy_over_K,
                     result["all_pass"], time.time() - t0,
                     [v["check"] for v in result["verdicts"] if not v["passed"]]))

    print(f"\nambient: full 2-shift, h_top = {h_top:.6f}, horizon = {args.horizon}, "
          f"seed = {args.seed}")
    print(f"{'class':<26} {'inf h over K':>12} {'verdicts':>9} {'time':>7}")
    for name, inf_h, all_pass, dt, failed in rows:
        status = "all pass" if all_pass else f"FAIL {failed}"
        print(f"{name:<26} {inf_h:>12.6f} {status:>9} {dt:>6.1f}s")
    print(f"\norbit directories under {out_root}/")
    return 0 if all(r[2] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
