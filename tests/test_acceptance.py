"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The three production scans are shared module-level fixtures; every other
criterion is an exact property or oracle check.  Criteria 6, 7 and 9 run the
checks of ``singlecopy check`` and add only their own extras (the elapsed-time
bound, the dilogarithm oracle).  Run with ``pytest -s`` to
see the per-criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import spence

from singlecopy.model import build_model
from singlecopy.toeplitz import build_T, block_spectrum
from singlecopy.entangle import sector_decompose
from singlecopy.asymptotics import (
    bound_chain,
    fit_log,
    geometric_grid,
    saturation_test,
    scan,
)
from singlecopy.cli import check_integral, check_majorization, check_oracle

XX2 = build_model("xx", a=2)
XY = build_model("xy", a=2, gamma=0.5)
ISING = build_model("ising")

_timings = {}


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def xx_scan():
    t0 = time.time()
    series = scan(XX2, geometric_grid(128, 2048))
    _timings["xx"] = time.time() - t0
    return series


@pytest.fixture(scope="module")
def xy_scan():
    return scan(XY, geometric_grid(64, 2048))


@pytest.fixture(scope="module")
def ising_scan():
    return scan(ISING, geometric_grid(128, 2048))


def test_criterion_1_xx_single_copy_slope(xx_scan):
    fit = fit_log(xx_scan, "e1_cont_bits", window=(256, 2048))
    ok = 0.137 <= fit.slope <= 0.197 and _timings["xx"] < 900.0
    _report(1, ok, f"e1_cont slope={fit.slope:.4f} in [0.137, 0.197]"
                   f" (1/6={1/6:.4f}); scan took {_timings['xx']:.0f}s")


def test_criterion_2_xx_entropy_slope(xx_scan):
    fit = fit_log(xx_scan, "entropy_bits", window=(256, 2048))
    ok = 0.313 <= fit.slope <= 0.353
    _report(2, ok, f"entropy slope={fit.slope:.4f} in [0.313, 0.353] (1/3={1/3:.4f})")


def test_criterion_3_single_shot_half_ratio(xx_scan):
    row = xx_scan.rows[-1]
    assert row.L == 2048
    ratio = row.e1_cont_bits / row.entropy_bits
    ok = 0.40 <= ratio <= 0.55
    _report(3, ok, f"e1/S at L=2048 = {ratio:.4f} in [0.40, 0.55]")


def test_criterion_4_noncritical_saturation(xy_scan):
    sat_e1 = saturation_test(xy_scan, "e1_cont_bits", 0.01)
    sat_s = saturation_test(xy_scan, "entropy_bits", 0.01)
    ok = sat_e1 and sat_s
    _report(4, ok, f"xy(2, 0.5) saturation: e1={sat_e1} entropy={sat_s} (eps=0.01)")


def test_criterion_5_ising_divergence(ising_scan):
    fit = fit_log(ising_scan, "e1_cont_bits")
    e1 = [r.e1_cont_bits for r in ising_scan.rows]
    increasing = all(b > a for a, b in zip(e1, e1[1:]))
    ok = fit.slope > 0.03 and increasing
    _report(5, ok, f"ising e1_cont slope={fit.slope:.4f} > 0.03, strictly increasing={increasing}")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    ok, detail = check_oracle()
    elapsed = time.time() - t0
    _report(6, ok and elapsed < 120.0, f"{detail}; took {elapsed:.1f}s")


def test_criterion_7_integral_identity():
    # independent dilogarithm oracle first: each half-interval is -pi^2/24
    ln2 = math.log(2.0)
    oracle_half = 0.5 * (-ln2 ** 2 / 2.0 - float(spence(0.5)))
    assert oracle_half == pytest.approx(-math.pi ** 2 / 24.0, abs=1e-13)
    _report(7, *check_integral())


def test_criterion_8_bound_chain_over_all_spectra(xx_scan, xy_scan, ising_scan):
    # a failed row is NaN throughout and counts as a violation
    violations = 0
    count = 0
    for series in (xx_scan, xy_scan, ising_scan):
        for row in series.rows:
            bc = bound_chain(row)
            count += 1
            if not (bc.lhs >= bc.mid - 1e-10):
                violations += 1
            if math.isfinite(bc.rhs) and not (bc.lhs <= bc.rhs + 1e-10):
                violations += 1
    ok = violations == 0 and count >= 25
    _report(8, ok, f"{count} spectra, {violations} chain violations")


def test_criterion_9_majorization_equivalence():
    _report(9, *check_majorization())


def test_criterion_10_determinant_slope(xx_scan):
    fit = fit_log(xx_scan, "ln_absdet_T")
    # -ln|det T_L| against ln L; predicted_slope is -ln 2 * sum beta^2 per log2 L
    slope, beta_sq = -fit.slope / math.log(2), -fit.predicted_slope / math.log(2)
    ok = abs(slope - 0.5) <= 0.05 and beta_sq == pytest.approx(0.5, abs=1e-9)
    _report(10, ok, f"-ln|det T| slope={slope:.4f} vs sum(beta^2)={beta_sq:.4f} (0.5 +- 0.05)")


def test_criterion_11_sector_consistency():
    L = 12
    spec = block_spectrum(build_T(XX2, L))
    sectors = sector_decompose(spec.mu, "plus")
    nu = (1.0 + spec.mu) / 2.0
    brute = np.zeros(L + 1)
    for occ in itertools.product((0, 1), repeat=L):
        p = 1.0
        for i, o in enumerate(occ):
            p *= nu[i] if o else 1.0 - nu[i]
        brute[int(np.sum(occ))] += p
    weights = np.array([s.weight for s in sectors])
    max_w_err = float(np.abs(weights - brute).max())
    total = float(weights.sum())
    envelope = max(s.max_eigenvalue for s in sectors)
    alpha1 = math.exp(spec.ln_alpha1)
    ok = (max_w_err < 1e-12 and abs(total - 1.0) < 1e-9
          and abs(envelope - alpha1) < 1e-12)
    _report(11, ok, f"L=12 weight err={max_w_err:.1e}, sum={total:.12f},"
                    f" envelope-alpha1={abs(envelope - alpha1):.1e}")
