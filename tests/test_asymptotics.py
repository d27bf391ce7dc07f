import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ellipk, spence

from singlecopy.errors import ModelError, ToolkitError
from singlecopy.model import build_model, classify_criticality
from singlecopy.toeplitz import spectrum_from_singular_values
from singlecopy.asymptotics import (
    ScanRow,
    ScanSeries,
    fit_log,
    geometric_grid,
    saturation_test,
    scan,
    _row_from_spectrum,
)
from bounds import bound_chain

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


def test_scan_refuses_non_integral_grid_points():
    # these used to be truncated to the grid (8, 16)
    with pytest.raises(ModelError, match="grid point must be an integer, got 8.7"):
        scan(XX2, (8.7, 16.2))
    with pytest.raises(ModelError, match="L_max must be an integer"):
        geometric_grid(8, 32.0)
    assert scan(XX2, np.array([4, 8])).grid == (4, 8)


def test_fit_recovers_exact_affine_data():
    grid = (4, 8, 16, 32, 64)
    series = make_series(grid, [0.5 * math.log2(L) + 1.0 for L in grid])
    fit = fit_log(series, "e1_cont_bits")
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.rms_residual < 1e-12


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


def test_fit_with_too_few_usable_rows_is_a_numerical_failure():
    # the window holds 4 rows, but only 2 have finite values: the failure
    # comes from computed values, not from the input
    grid = (4, 8, 16, 32)
    series = make_series(grid, [1.0, -math.inf, math.nan, 2.0], "ln_absdet_T")
    with pytest.raises(ToolkitError, match="only 2 of the window's 4 rows") as info:
        fit_log(series, "ln_absdet_T")
    assert not isinstance(info.value, ModelError)


# --- the closed integral -----------------------------------------------------

def dilog_half_interval():
    """Independent closed form of int_0^1 ln((1+x)/2)/(1-x^2) dx.

    Substituting u = (1+x)/2 splits the integral into an elementary log
    piece and a dilogarithm increment; scipy's ``spence(z)`` is
    ``int_1^z ln(t)/(1-t) dt``.
    """
    ln2 = math.log(2.0)
    return 0.5 * (-ln2 ** 2 / 2.0 - float(spence(0.5)))


def half_integrand(x: float) -> float:
    # ln((1+x)/2) / (1 - x^2) with the removable 0/0 at x -> 1 series-expanded
    u = 1.0 - x
    if u < 1e-6:
        return -(0.5 + u / 8.0 + u * u / 24.0) / (2.0 - u)
    return math.log1p((x - 1.0) / 2.0) / ((1.0 - x) * (1.0 + x))


def scaling_integral() -> float:
    """(2/pi^2) * integral over [-1, 1] of ln((1+|x|)/2)/(1-x^2), to 1e-10.

    The closed form is -1/6, the coefficient of the single-copy growth.
    Evaluated by adaptive quadrature as twice the half-interval integral
    (the integrand is even).
    """
    abs_tol = 1e-10
    half, err = quad(half_integrand, 0.0, 1.0, epsabs=abs_tol / 16.0, epsrel=1e-13, limit=200)
    scale = 4.0 / math.pi ** 2
    assert err * scale <= abs_tol, f"quadrature error estimate {err * scale:.3e} > {abs_tol:.0e}"
    return scale * half


def test_dilog_oracle_value():
    assert dilog_half_interval() == pytest.approx(-math.pi ** 2 / 24.0, abs=1e-14)


def test_integrand_is_regular():
    assert half_integrand(0.0) == pytest.approx(math.log(0.5))
    assert half_integrand(1.0 - 1e-9) == pytest.approx(-0.25, abs=1e-6)
    assert half_integrand(1.0) == pytest.approx(-0.25, abs=1e-12)


def test_integral_check_matches_dilog_oracle():
    value = scaling_integral()
    expected = (4.0 / math.pi ** 2) * dilog_half_interval()
    assert value == pytest.approx(expected, abs=1e-10)
    assert value == pytest.approx(-1.0 / 6.0, abs=1e-9)


# --- the L -> infinity limit of gapped xy chains -----------------------------

def gapped_xy_limits(a: float, gamma: float) -> tuple[float, float]:
    """Closed-form L -> infinity ``(entropy_bits, e1_cont_bits)`` of the gapped xy(a, gamma).

    xy(a, gamma) is the XY chain at field h = 1/a.  Its block's mu are tanh(eps_j / 2)
    with eps_j multiples of eps = pi K(k')/K(k) (corner transfer matrix: Peschel,
    J. Stat. Mech. P12005 (2004); Its, Jin & Korepin, J. Phys. A 38, 2975 (2005)):
    in the ordered phase (a > 1) one eps_j = 0 and each 2j eps twice, in the
    disordered phase (a < 1) each (2j+1) eps twice.  scipy's ``ellipk`` takes m = k^2.
    """
    h = 1.0 / a
    if h > 1.0:
        k2 = gamma ** 2 / (h * h + gamma ** 2 - 1.0)
    elif h * h + gamma ** 2 < 1.0:
        k2 = (1.0 - h * h - gamma ** 2) / (1.0 - h * h)
    else:
        k2 = (h * h + gamma ** 2 - 1.0) / gamma ** 2
    eps = math.pi * float(ellipk(1.0 - k2) / ellipk(k2))
    j = np.arange(1, math.ceil(80.0 / eps) + 1)        # 1 - mu = 2/(e^eps_j + 1) < 1e-34 past
    e = 2 * j * eps if a > 1.0 else (2 * j - 1) * eps
    ln_plus = np.log1p(np.exp(-e))                      # -ln (1 + mu)/2, then -ln (1 - mu)/2
    ln_minus = e + ln_plus
    entropy = 2.0 * np.sum(ln_plus / (1.0 + np.exp(-e)) + ln_minus / (1.0 + np.exp(e)))
    e1 = 2.0 * np.sum(ln_plus)
    zero_mode = 1.0 if a > 1.0 else 0.0                 # mu = 0: one bit of each
    return zero_mode + entropy / math.log(2.0), zero_mode + e1 / math.log(2.0)


UPSILON_1 = 0.4950179081      # Jin & Korepin, J. Stat. Phys. 116, 79 (2004)


def fisher_hartwig_entropy(model, L: int) -> float:
    """Leading L -> infinity entropy in bits of a critical chain's L-site block.

    An isotropic chain's symbol is a step that jumps at its Fermi points k_1 < ... < k_n,
    and Fisher-Hartwig gives ``S = (n/6) ln L - (1/3) sum_{r<s} (-1)^{s-r}
    ln|2 sin((k_r - k_s)/2)| + (n/2) Upsilon_1`` nats (Jin & Korepin 2004).  The
    critical Ising chain, whose one Fermi point turns the symbol's phase by pi, has
    ``S - (1/6) ln L -> (1/3) ln 2 + Upsilon_1 / 2`` nats, 0.6904132739 bits.
    """
    k = classify_criticality(model).fermi_points
    if model.label == "ising":
        return (math.log(L) / 6 + math.log(2) / 3 + UPSILON_1 / 2) / math.log(2)
    pairs = sum((-1) ** (s - r) * math.log(abs(2 * math.sin((k[r] - k[s]) / 2)))
                for r, s in itertools.combinations(range(len(k)), 2))
    return (len(k) / 6 * math.log(L) - pairs / 3 + len(k) / 2 * UPSILON_1) / math.log(2)


def test_gapped_xy_limit_values():
    s_inf, e1_inf = gapped_xy_limits(2.0, 0.5)
    assert s_inf == pytest.approx(1.0859516554, abs=1e-10)
    assert e1_inf == pytest.approx(1.0134672030, abs=1e-10)


# a < 1 and both sides of h^2 + gamma^2 = 1 for a > 1; from L = 128 the rows sit
# within 2.6e-11 (entropy) and 7.8e-13 (e1) of the limits over a grid of this domain
@settings(max_examples=10, deadline=None)
@given(st.one_of(st.floats(0.2, 0.7), st.floats(1.3, 5.0)), st.floats(0.3, 1.0))
@example(2.0, 0.5)
@example(2.7712, 0.6055)
@example(0.7, 0.5)
@example(1.5, 0.9)
@example(3.0, 0.3)
def test_gapped_xy_rows_reach_their_closed_form_limit(a, gamma):
    s_inf, e1_inf = gapped_xy_limits(a, gamma)
    for row in scan(build_model("xy", a=a, gamma=gamma), (128, 256, 512)).rows:
        assert abs(row.entropy_bits - s_inf) <= 1e-10
        assert abs(row.e1_cont_bits - e1_inf) <= 1e-11


# The residuals fall about as L^-2 (2.8e-5 bits for the six-point table at L = 256, so the
# check starts at 1024); dropping the pair term would move xx(2) by 0.26 bits.
@pytest.mark.parametrize("model", [
    XX2, build_model("xx", a=1.5), build_model("custom", A=(0.1, -0.3, 0.2, -0.9)),
    build_model("ising"),
], ids=["xx2", "xx1.5", "six-fermi-points", "ising"])
def test_long_critical_blocks_reach_the_fisher_hartwig_entropy(model):
    Ls = (1024, 2048, 4096)
    residual = [row.entropy_bits - fisher_hartwig_entropy(model, row.L)
                for row in scan(model, Ls).rows]
    assert max(abs(r) for r in residual) <= 3e-6
    assert abs(residual[-1]) <= abs(residual[0]) / 4
