#!/usr/bin/env python3
"""Reproduce the critical scaling of the isotropic chain.

Scans a geometric block-length grid for xx(a), fits the single-copy and
entropy slopes against log2(L) and the determinant slope against ln(L),
and prints the expected asymptotic coefficients (1/6, 1/3, sum of squared
jump exponents) next to the fitted ones.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from singlecopy.model import build_model
from singlecopy.asymptotics import fit_log, geometric_grid, scan
from singlecopy.serialize import dumps, scan_to_csv, to_dict

LN2 = math.log(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=2.0)
    ap.add_argument("--L-min", type=int, default=128)
    ap.add_argument("--L-max", type=int, default=2048)
    ap.add_argument("--per-octave", type=int, default=2)
    ap.add_argument("--fit-min", type=int, default=256, help="lower edge of the fit window")
    ap.add_argument("--csv", type=Path, default=None, help="write the scan table here")
    args = ap.parse_args()

    model = build_model("xx", a=args.a)
    grid = geometric_grid(args.L_min, args.L_max, args.per_octave)
    print(f"# xx(a={args.a}), grid {grid}")
    series = scan(model, grid, progress=lambda m: print(f"#   {m}", file=sys.stderr))

    print(f"{'L':>6} {'e1_cont':>10} {'E1':>8} {'S':>10} {'-ln|detT|':>11}")
    for row in series.rows:
        print(f"{row.L:>6} {row.e1_cont_bits:>10.5f} {row.E1_bits:>8.4f} "
              f"{row.entropy_bits:>10.5f} {-row.ln_absdet_T:>11.5f}")

    window = (args.fit_min, args.L_max)
    e1 = fit_log(series, "e1_cont_bits", window=window)
    s = fit_log(series, "entropy_bits", window=window)
    det = fit_log(series, "ln_absdet_T")

    print()
    print(f"e1_cont slope : {e1.slope:.5f}   (1/6 = {1/6:.5f})")
    print(f"entropy slope : {s.slope:.5f}   (1/3 = {1/3:.5f})")
    print(f"e1/S @ L={args.L_max}: "
          f"{series.rows[-1].e1_cont_bits / series.rows[-1].entropy_bits:.5f}   (-> 1/2)")
    # ln|det T_L| per log2 L, rescaled to -ln|det T_L| per ln L
    print(f"-ln|detT| vs ln L : {-det.slope / LN2:.5f}   "
          f"(sum beta^2 = {-det.predicted_slope / LN2:.5f})")

    if args.csv is not None:
        args.csv.write_text(scan_to_csv(series))
        args.csv.with_suffix(".fit.json").write_text(dumps(to_dict(e1)))
        print(f"# wrote {args.csv} and {args.csv.with_suffix('.fit.json')}")


if __name__ == "__main__":
    main()
