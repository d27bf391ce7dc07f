#!/usr/bin/env python3
"""Validate the Toeplitz pipeline against first-principles ground states.

First compares the Gaussian covariance route with exact Fock-space
diagonalization on small gapped chains (should agree to machine
precision), then tracks how the centered block of a growing finite open
chain approaches the translation-invariant Toeplitz block.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from singlecopy.model import build_model
from singlecopy.oracle import compare_oracle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=8)
    ap.add_argument("--n", type=int, nargs="*", default=[100, 202, 400],
                    help="chain lengths for the thermodynamic comparison")
    args = ap.parse_args()

    print("# gaussian vs exact diagonalization (exact finite-n cross-check)")
    for kind, kwargs, n, L in (("xx", {"a": 2.0}, 10, 5),
                               ("ising", {}, 9, 3),
                               ("xy", {"a": 2.0, "gamma": 0.5}, 8, 4)):
        model = build_model(kind, **kwargs)
        cmp = compare_oracle(model, n, L, "gaussian-vs-ed")
        print(f"  {kind:>6} n={n:<3} L={L}: max|diff| = {cmp.max_abs_diff:.2e} "
              f"(many-body gap {cmp.gap:.3f})")

    print("# finite open chain vs thermodynamic-limit Toeplitz block")
    model = build_model("xx", a=2.0)
    for n in args.n:
        cmp = compare_oracle(model, n, args.L, "gaussian-vs-thermodynamic")
        print(f"  n={n:<4} L={args.L}: max|diff| = {cmp.max_abs_diff:.3e} "
              f"(normal-mode gap {cmp.gap:.4f})")


if __name__ == "__main__":
    main()
