import math

import numpy as np
import pytest
from scipy.special import spence

from singlecopy.errors import ModelError
from singlecopy.model import build_model
from singlecopy.toeplitz import spectrum_from_singular_values
from singlecopy.asymptotics import (
    ScanRow,
    ScanSeries,
    bound_chain,
    fit_log,
    geometric_grid,
    integral_check,
    saturation_test,
    scan,
    _half_integrand,
    _row_from_spectrum,
)

XX2 = build_model("xx", a=2)


def make_series(grid, values, quantity="e1_cont_bits"):
    rows = []
    for L, y in zip(grid, values):
        kw = dict(e1_cont_bits=0.0, E1_bits=0.0, entropy_bits=0.0,
                  ln_absdet_T=0.0, rms_term_bits=0.0)
        kw[quantity] = y
        rows.append(ScanRow(L=L, **kw))
    return ScanSeries(XX2, tuple(grid), tuple(rows))


def test_geometric_grid():
    assert geometric_grid(64, 256) == (64, 91, 128, 181, 256)
    assert geometric_grid(100, 100) == (100,)
    assert geometric_grid(8, 64, per_octave=1) == (8, 16, 32, 64)
    with pytest.raises(ModelError):
        geometric_grid(0, 10)


@pytest.mark.parametrize("lo,hi", [(64, 2048), (1, 4096), (16, 256), (3, 5)])
def test_geometric_grid_per_octave_bound(lo, hi):
    # per_octave = L_max already lists every integer; more is refused
    assert geometric_grid(lo, hi, hi) == tuple(range(lo, hi + 1))
    with pytest.raises(ModelError):
        geometric_grid(lo, hi, hi + 1)


def test_geometric_grid_stops_at_longest_block():
    # scan refuses such a grid anyway; building it first could take
    # per_octave * log2(L_max) steps
    with pytest.raises(ModelError):
        geometric_grid(64, 4097)
    with pytest.raises(ModelError):
        geometric_grid(1, 10 ** 9, 10 ** 9)


def test_scan_product_state_rows():
    series = scan(build_model("custom", A=(1,)), (2, 4, 8))
    assert [r.L for r in series.rows] == [2, 4, 8]
    for row in series.rows:
        assert row.e1_cont_bits == 0.0
        assert row.entropy_bits == 0.0
        assert row.error is None


def test_scan_critical_rows_increase():
    # grid values avoid multiples of 3, where the k_F = pi/3 filling
    # oscillation dips the single-copy value
    series = scan(XX2, geometric_grid(64, 256))
    e1 = [r.e1_cont_bits for r in series.rows]
    assert all(b > a for a, b in zip(e1, e1[1:]))


def test_scan_validates_grid():
    with pytest.raises(ModelError):
        scan(XX2, (8, 8))
    with pytest.raises(ModelError):
        scan(XX2, (64, 8192))


def test_fit_recovers_exact_affine_data():
    grid = (4, 8, 16, 32, 64)
    series = make_series(grid, [0.5 * math.log2(L) + 1.0 for L in grid])
    fit = fit_log(series, "e1_cont_bits")
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.rms_residual < 1e-12


def test_fit_two_term():
    grid = (4, 8, 16, 32, 64)
    series = make_series(grid, [0.25 * math.log2(L) + 0.5 for L in grid])
    fit = fit_log(series, "e1_cont_bits", two_term=True)
    assert fit.two_term is not None
    assert fit.two_term.a == pytest.approx(0.25, abs=1e-8)


def test_fit_window_and_errors():
    grid = (4, 8, 16, 32, 64)
    series = make_series(grid, [1.0 * math.log2(L) for L in grid])
    fit = fit_log(series, "e1_cont_bits", window=(16, 64))
    assert fit.grid_range == (16, 64)
    with pytest.raises(ModelError):
        fit_log(series, "e1_cont_bits", window=(4, 8))  # only 2 points
    with pytest.raises(ModelError):
        fit_log(series, "nonsense")


def test_saturation():
    grid = (64, 128, 256, 512, 1024)
    flat = make_series(grid, [1.0, 1.0, 1.0, 1.0, 1.0])
    assert saturation_test(flat, "e1_cont_bits")
    rising = make_series(grid, [0.1 * math.log2(L) for L in grid])
    assert not saturation_test(rising, "e1_cont_bits")
    with pytest.raises(ModelError):
        saturation_test(make_series((64, 128), [1, 1]), "e1_cont_bits")


def _row(mu):
    return _row_from_spectrum(spectrum_from_singular_values(mu))


def test_bound_chain_examples():
    bc = bound_chain(_row([1.0, 1.0, 1.0]))
    assert (bc.lhs, bc.mid, bc.rhs) == (0.0, 0.0, 0.0)
    bc = bound_chain(_row([0.5]))
    assert bc.lhs == pytest.approx(math.log(4 / 3), abs=1e-14)
    assert bc.mid == pytest.approx(-0.5 * math.log(0.625), abs=1e-14)
    assert bc.rhs == pytest.approx(-0.5 * math.log(0.5), abs=1e-14)
    assert bc.mid <= bc.lhs <= bc.rhs
    bc = bound_chain(_row([0.0, 0.3]))
    assert bc.rhs == math.inf
    bc = bound_chain(ScanRow(L=4, error="boom"))
    assert all(math.isnan(x) for x in (bc.lhs, bc.mid, bc.rhs))


def test_bound_chain_forced_inequalities_on_random_spectra():
    rng = np.random.default_rng(3)
    for _ in range(200):
        mu = rng.random(rng.integers(1, 40))
        bc = bound_chain(_row(mu))
        assert bc.lhs >= bc.mid - 1e-10
        assert bc.lhs <= bc.rhs + 1e-10


def test_fh_slope_small_grid_prediction():
    # ln|det T_L| ~ -sum beta^2 ln L, so per unit of log2 L the slope is
    # -ln 2 * sum beta^2; xx has two Fermi points, sum beta^2 = 1/2
    fit = fit_log(scan(XX2, geometric_grid(64, 512)), "ln_absdet_T")
    assert fit.predicted_slope == pytest.approx(-0.5 * math.log(2), abs=1e-12)
    assert -fit.slope / math.log(2) == pytest.approx(0.5, abs=0.05)
    assert fit.quantity == "ln_absdet_T"


def test_fh_slope_gapped_zero_winding_model_saturates():
    # continuous symbol that does not encircle the origin: |det T_L| -> const
    fit = fit_log(scan(build_model("xy", a=0.5, gamma=0.5), geometric_grid(32, 256)),
                  "ln_absdet_T")
    assert abs(fit.slope / math.log(2)) < 0.02
    assert fit.predicted_slope == 0.0 and math.copysign(1.0, fit.predicted_slope) == 1.0


def test_fh_slope_prediction_counts_four_fermi_points():
    # lam = 0.2 - 0.8 cos k - 2 cos 2k changes sign four times
    model = build_model("custom", A=(0.2, -0.4, -1))
    fit = fit_log(scan(model, geometric_grid(32, 256)), "ln_absdet_T")
    assert fit.predicted_slope == -math.log(2)


def test_only_the_determinant_fit_carries_a_prediction():
    series = scan(XX2, geometric_grid(32, 128))
    for quantity in ("e1_cont_bits", "E1_bits", "entropy_bits", "rms_term_bits"):
        assert fit_log(series, quantity).predicted_slope is None


def test_gapped_winding_symbol_has_one_collapsing_singular_value():
    # for 1/a in (0, 1) and gamma != 0 the symbol winds around the origin:
    # exactly one singular value decays exponentially (det T_L -> 0) while
    # every entanglement quantity saturates
    from singlecopy.toeplitz import block_spectrum, build_T

    model = build_model("xy", a=2, gamma=0.5)
    s16 = block_spectrum(build_T(model, 16))
    s32 = block_spectrum(build_T(model, 32))
    assert s32.mu.min() < 1e-3 * s16.mu.min()
    assert np.sort(s16.mu)[1] > 0.99 and np.sort(s32.mu)[1] > 0.99
    assert abs(s32.ln_alpha1 - s16.ln_alpha1) < 1e-4


def test_fh_requires_enough_points():
    with pytest.raises(ModelError):
        fit_log(scan(XX2, (8, 16)), "ln_absdet_T")


# --- the closed integral -----------------------------------------------------

def dilog_half_interval():
    """Independent closed form of int_0^1 ln((1+x)/2)/(1-x^2) dx.

    Substituting u = (1+x)/2 splits the integral into an elementary log
    piece and a dilogarithm increment; scipy's ``spence(z)`` is
    ``int_1^z ln(t)/(1-t) dt``.
    """
    ln2 = math.log(2.0)
    return 0.5 * (-ln2 ** 2 / 2.0 - float(spence(0.5)))


def test_dilog_oracle_value():
    assert dilog_half_interval() == pytest.approx(-math.pi ** 2 / 24.0, abs=1e-14)


def test_integrand_is_regular():
    assert _half_integrand(0.0) == pytest.approx(math.log(0.5))
    assert _half_integrand(1.0 - 1e-9) == pytest.approx(-0.25, abs=1e-6)
    assert _half_integrand(1.0) == pytest.approx(-0.25, abs=1e-12)


def test_integral_check_matches_dilog_oracle():
    ic = integral_check()
    expected = (4.0 / math.pi ** 2) * dilog_half_interval()
    assert ic.value_natural_log == pytest.approx(expected, abs=1e-10)
    assert ic.value_natural_log == pytest.approx(-1.0 / 6.0, abs=1e-9)

