import dataclasses
import functools
import math
import os
import random
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial import chebyshev, polynomial

from singlecopy import model as model_module, toeplitz
from singlecopy.errors import (CoefficientAccuracyError, DecompositionError, InvalidSpectrumError,
                               ModelError)
from singlecopy.model import TWO_PI, build_model, classify_criticality, symbol_eval
from singlecopy.asymptotics import SCAN_FIELDS, _row_from_spectrum, scan
from singlecopy.toeplitz import (
    ToeplitzCoeffs,
    block_spectrum,
    build_T,
    coefficient_table,
    spectrum_from_singular_values,
    table_spectrum,
    _fourier_pair,
)
from test_asymptotics import fisher_hartwig_entropy
from test_generated_tables import _model_from_laurent, anisotropic_tables, z_circle

XX2 = build_model("xx", a=2)
ISING = build_model("ising")
XY = build_model("xy", a=2, gamma=0.5)
CONST = build_model("custom", A=(1,))


def build_gamma(model, L):
    """The 2L x 2L skew-symmetric Majorana covariance block with 2x2 blocks
    ``M_{i-j} = [[0, t_{i-j}], [-t_{j-i}, 0]]``."""
    T = build_T(model, L)
    g = np.zeros((2 * L, 2 * L))
    g[0::2, 1::2] = T.T                  # entry (2i, 2j+1) = t_{i-j}
    g[1::2, 0::2] = -T                   # entry (2i+1, 2j) = -t_{j-i}
    return g


def test_xx_closed_form_values():
    # single-band sign symbol: t_0 = 2 k_F / pi - 1, t_l = 2 sin(k_F l)/(pi l)
    k_f = math.acos(0.5)
    tab = coefficient_table(XX2, 8)
    assert tab.coeff(0) == pytest.approx(2 * k_f / math.pi - 1, abs=1e-12)
    assert tab.coeff(0) == pytest.approx(-1 / 3, abs=1e-12)
    assert tab.coeff(1) == pytest.approx(2 * math.sin(k_f) / math.pi, abs=1e-12)
    assert tab.coeff(7) == pytest.approx(2 * math.sin(7 * k_f) / (7 * math.pi), abs=1e-12)


def test_constant_symbol_coefficients():
    tab = coefficient_table(CONST, 4)
    assert tab.coeff(0) == 1.0
    assert tab.coeff(3) == 0.0
    assert np.allclose(build_T(CONST, 3), np.eye(3))


def test_gapped_symbol_coefficients_decay():
    tab = coefficient_table(XY, 64)
    assert abs(tab.coeff(60)) < 1e-6  # smooth symbol: fast decay
    assert abs(tab.coeff(0)) <= 1.0


@pytest.mark.parametrize("a", [1.5, 2.0, 4.0])
def test_quadrature_matches_closed_form(a):
    model = build_model("xx", a=a)
    prof = classify_criticality(model)
    cuts = sorted(prof.fermi_points)
    tab = coefficient_table(model, 257)
    assert tab.method == "closed_form"
    for l in (0, 1, 2, 3, 8, 33, 100, 256):
        tp, tm = _fourier_pair(model, l, 1e-12, cuts)
        assert tp == pytest.approx(tab.coeff(l), abs=1e-10)
        assert tm == pytest.approx(tab.coeff(-l), abs=1e-10)


# critical xy(1, 0.5): z lam(z) has the roots 1 and 1/3, so the symbol is not a
# step times a phase and its table stays on quadrature
XY_CRIT = build_model("xy", a=1, gamma=0.5)
# xy(1, 0.5) at 2k: two Fermi points, so two quadrature intervals of equal width
# that ask for the same panel counts; a panel cache keyed on the count alone fails it
XY_CRIT_2K = build_model("custom", A=(-1, 0, 0.5), B=(0, -0.125))
SHARED_PANEL_CASES = {
    "xy": (XY, 1e-12),
    "xy-crit": (XY_CRIT, 1e-12),
    "xy-0.7-0.4": (build_model("xy", a=0.7, gamma=0.4), 1e-12),
    # gapped; 31 of its first 300 coefficients double their panels more than once
    "custom-gapped": (build_model("custom", A=(0.2, -0.4, -1), B=(0.3, 0.1)), 1e-12),
    "xy-crit-2k": (XY_CRIT_2K, 1e-12),
    "xy-tight": (XY, 1e-14),   # 14 coefficients reach four times their first panel count
}


def _cuts(model):
    prof = classify_criticality(model)
    return sorted(set(prof.fermi_points) | set(prof.marginal_points))


def _with_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("name", list(SHARED_PANEL_CASES))
def test_shared_panel_sets_are_bit_identical(name, monkeypatch):
    # the table shares each panel set's weighted symbol across l and splits l
    # among the CPUs; computed one coefficient at a time with no shared state,
    # it must agree bit for bit under any worker count
    model, tol = SHARED_PANEL_CASES[name]
    L, cuts = 300, _cuts(model)
    ref = np.empty(2 * L - 1)
    for l in range(L):
        ref[L - 1 + l], ref[L - 1 - l] = _fourier_pair(model, l, tol, cuts)
    real, seen = toeplitz._quadrature_range, []

    def spy(model, ls, abs_tol, cuts):
        seen.append(ls)
        return real(model, ls, abs_tol, cuts)

    monkeypatch.setattr(toeplitz, "_quadrature_range", spy)
    # work per l grows like l: 3 workers take l < 174, < 245 and < 300
    for cpus, ends in [(1, [0, 300]), (2, [0, 213, 300]), (3, [0, 174, 245, 300])]:
        _with_cpus(monkeypatch, cpus)
        seen.clear()
        assert np.array_equal(coefficient_table(model, L, tol).t, ref)
        assert sorted(seen, key=lambda r: r.start) == [range(a, b) for a, b in zip(ends, ends[1:])]


def test_panel_cache_keeps_only_the_current_coefficients_sets():
    cuts = _cuts(XY_CRIT_2K)
    assert len(cuts) == 2
    shared = {}
    for l in range(300):
        own = {}
        assert _fourier_pair(XY_CRIT_2K, l, 1e-12, cuts, shared) == _fourier_pair(
            XY_CRIT_2K, l, 1e-12, cuts, own)
        assert shared.keys() == own.keys()


def test_quadrature_refusals_keep_their_messages(monkeypatch):
    # 4 workers take l < 4, < 6, < 7 and < 8 of L=8, and the xy table fails in
    # the first two; the lowest failing l is reported
    with pytest.raises(CoefficientAccuracyError, match="t_4 quadrature"):
        _fourier_pair(XY, 4, 1e-17, _cuts(XY))
    before = threading.active_count()
    for cpus in (1, 4):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(CoefficientAccuracyError, match="t_1 quadrature exhausted its node budget"):
            coefficient_table(XY, 8, 1e-17)
        with pytest.raises(CoefficientAccuracyError, match="t_0 kept an imaginary residue"):
            coefficient_table(XY_CRIT, 8, 1e-17)
        assert threading.active_count() == before


def test_a_lower_refusal_wins_over_an_earlier_higher_one(monkeypatch):
    _with_cpus(monkeypatch, 4)
    real, higher_failed = toeplitz._fourier_pair, threading.Event()

    def fail_at_2_and_5(model, l, abs_tol, cuts, panels=None):
        if l == 5:
            higher_failed.set()
            raise CoefficientAccuracyError("coefficient accuracy: t_5 refused", achieved=5.0)
        if l == 2:
            assert higher_failed.wait(10)
            raise CoefficientAccuracyError("coefficient accuracy: t_2 refused", achieved=2.0)
        return real(model, l, abs_tol, cuts, panels)

    monkeypatch.setattr(toeplitz, "_fourier_pair", fail_at_2_and_5)
    before = threading.active_count()
    with pytest.raises(CoefficientAccuracyError, match="t_2 refused") as exc:
        coefficient_table(XY, 8)
    assert exc.value.achieved == 2.0
    assert threading.active_count() == before


def test_coefficient_table_refuses_a_non_integral_block_length():
    for model in (XY, XX2):
        with pytest.raises(ModelError, match="block length L must be an integer, got 2.5"):
            coefficient_table(model, 2.5)
    assert coefficient_table(XX2, np.int64(3)).L == 3


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.inf, math.nan])
def test_coefficient_table_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    # the closed-form tables ignore the tolerance but still refuse a bad one
    for model in (XY, ISING, XX2):
        with pytest.raises(ModelError, match="positive and finite"):
            coefficient_table(model, 8, tol)


def test_ising_takes_its_exact_coefficients():
    # ising's symbol is i e^{ik/2} on (0, 2pi): t_l = 2 / (pi (2l - 1))
    L = 2048
    tab = coefficient_table(ISING, L)
    assert tab.method == "closed_form"
    l = np.arange(1 - L, L)
    assert np.abs(tab.t - 2 / (np.pi * (2 * l - 1))).max() <= 1e-16


# lam = lam_ising prod_j (cos k - cos x_j): the factors leave ising's symbol
# i e^{ik/2} where their product is positive and negate it on the given arcs
ISING_TIMES = {
    "tangential": ([1, 1], [], 1e-14),
    "triple": ([1, 1, 1], [(1, 2 * math.pi - 1)], 1e-14),
    # the rounded couplings move these zeros by up to 2.5e-12, but stay
    # antisymmetric about their centre to rounding
    "close-pair": ([0.5, 0.5005], [(0.5, 0.5005), (2 * math.pi - 0.5005, 2 * math.pi - 0.5)], 1e-11),
}


@pytest.mark.parametrize("name", list(ISING_TIMES))
def test_ising_times_cosine_factors_is_exact(name):
    xs, arcs, tol = ISING_TIMES[name]
    c = np.array([-1.0, 1.0])               # z lam_ising(z)
    for x in xs:
        c = np.convolve(c, [0.5, -math.cos(x), 0.5])
    model = _model_from_laurent(np.concatenate([[0.0], c]))
    tab = coefficient_table(model, 64)
    assert tab.method == "closed_form"
    f = 0.5 - np.arange(1 - 64, 64)       # t_l = (1/2pi) int +-i e^{ifk} dk, f = 1/2 - l
    exact = -2 / f - sum(2 * (np.exp(1j * f * b) - np.exp(1j * f * a)) / f for a, b in arcs)
    assert np.abs(tab.t - (exact / (2 * math.pi)).real).max() <= tol


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_near_coincident_fermi_points_next_to_a_gapped_root_tabulate():
    # z^3 lam(z) has the roots e^{+-i}, e^{+-1.001i} and 0.5: the root off
    # the circle sends the table to quadrature, whose four arcs include two
    # of width 1e-3.  Each arc's share of the tolerance is the same, so the
    # narrow arcs do not ask for less than the rounding of their sums.  The
    # reference is scipy's adaptive quadrature split at the same zeros.
    P = polynomial.polyfromroots([0.5, *np.exp([1j, -1j, 1.001j, -1.001j])]).real
    model = _model_from_laurent(np.concatenate([P, [0.0]]))
    zeros = classify_criticality(model).fermi_points
    tab = coefficient_table(model, 16)
    assert tab.method == "quadrature" and len(zeros) == 4
    arcs = list(zip(zeros, zeros[1:] + (zeros[0] + 2 * math.pi,)))

    def integrand(k, l):
        return (symbol_eval(model, k) * np.exp(-1j * l * k)).real

    for l in range(-15, 16):
        ref = sum(scipy.integrate.quad(integrand, lo, hi, args=(l,), epsabs=1e-13,
                                       epsrel=1e-13, limit=200)[0] for lo, hi in arcs)
        assert tab.coeff(l) == pytest.approx(ref / (2 * math.pi), abs=1e-12)


@pytest.mark.parametrize("model", [XX2, ISING, XY, CONST])
def test_coefficient_table_runs_one_root_pass(model, monkeypatch):
    # the classifier's profile carries the zeros and the step-phase
    # certificate: a table given the profile finds no roots, and a table
    # without it finds them once
    prof = classify_criticality(model)
    real, calls = model_module._root_clusters, []

    def no_roots(p):
        raise AssertionError("the coefficient table searched for roots")

    monkeypatch.setattr(model_module, "_root_clusters", no_roots)
    given = coefficient_table(model, 64, profile=prof)
    monkeypatch.setattr(model_module, "_root_clusters", lambda p: calls.append(p) or real(p))
    assert np.array_equal(coefficient_table(model, 64).t, given.t)
    assert len(calls) == 1


def test_a_root_just_inside_the_circle_gets_no_closed_form():
    # z lam(z) = z (z - r): the classifier counts the root r = 1 - 1e-9 as a
    # Fermi point at k = 0, but the couplings (-r, 1) miss antisymmetry by
    # 1e-9, so the table is not certified a step times a phase and goes to
    # quadrature
    model = build_model("custom", A=(-(1 - 1e-9), 0.5), B=(-0.25,))
    prof = classify_criticality(model)
    assert prof.fermi_points == (0.0,)
    assert classify_criticality(model).step_phase is None
    with pytest.raises(CoefficientAccuracyError, match="t_0 quadrature exhausted its node budget"):
        coefficient_table(model, 8)


def test_a_symbol_vanishing_at_its_only_midpoint_is_refused():
    # P(cos k) with zeros at pi and pi +- 0.0039 merged into one root cluster
    # whose centre sits 5e-6 off the unit circle: the classifier finds no
    # zero, so the closed form's one arc has its midpoint at k = pi, where lam
    # rounds to 0 and has no phase to read
    model = build_model("custom", A=(2.4999771119037173, 1.8749847412594436,
                                     0.7499961853075849, 0.125), B=(0.0, 0.0, 0.0))
    prof = classify_criticality(model)
    assert prof.fermi_points == prof.marginal_points == () and prof.step_phase == 0.0
    with pytest.raises(CoefficientAccuracyError, match="vanishes at every arc midpoint"):
        coefficient_table(model, 1, profile=prof)


# xy draw 1 of the benchmark: gapped, and its symbol winds once around 0, so
# one singular value of T_L decays like e^{-cL} (ROADMAP item 1)
WINDING = build_model("xy", a=2.7712, gamma=0.6055)


@functools.lru_cache(maxsize=None)
def _winding_tables():
    """Quadrature table to L=64 and a 2^20-point FFT table on the grid shifted
    by half a step, ``t_l = e^{-i pi l/N} fft(g)_l / N``."""
    n = 2 ** 20
    g = symbol_eval(WINDING, TWO_PI * (np.arange(n) + 0.5) / n)
    l = np.arange(-63, 64)
    fft = (np.fft.fft(g)[l % n] * np.exp(-1j * math.pi * l / n)).real / n
    return coefficient_table(WINDING, 64), toeplitz.ToeplitzCoeffs(64, fft, "fft")


def _winding_ln_absdet(L):
    return [block_spectrum(build_T(WINDING, L, table=tab)).ln_absdet_T
            for tab in _winding_tables()]


def test_winding_chain_tables_agree():
    quad, fft = _winding_tables()
    assert np.abs(quad.t - fft.t).max() < 1e-14
    det_quad, det_fft = _winding_ln_absdet(32)   # mu_min 2.3e-11, well above both errors
    assert det_quad == pytest.approx(det_fft, abs=1e-4)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_winding_chain_determinant_is_resolved_by_either_table():
    # at L=64 mu_min (1.4e-21 in truth) sits below both tables' errors:
    # -37.164 against -40.847, while the true value is -48.054
    det_quad, det_fft = _winding_ln_absdet(64)
    assert det_quad == pytest.approx(det_fft, abs=1e-6)


@pytest.mark.parametrize("L", [64, 256, 1024])
def test_ising_entropy_is_half_the_xx_entropy_at_twice_the_length(L):
    # Igloi & Juhasz, EPL 81, 57003 (2008): S_ising(L) = S_xx(2L) / 2 for the
    # xx chain at half filling
    xx = build_model("custom", A=(0, 1))
    s_ising = block_spectrum(build_T(ISING, L)).entropy_bits
    s_xx = block_spectrum(build_T(xx, 2 * L)).entropy_bits
    assert s_ising == pytest.approx(s_xx / 2, abs=2e-11)


def test_near_coincident_fermi_points_closed_form():
    # lam = (cos k - cos 1)(cos k - cos 1.001): g = -1 only on two arcs of
    # width 1e-3, so t_0 = 1 - 4e-3 / (2 pi); a 2^22-point sign average
    # gives 0.9993639
    model = build_model("custom", A=(0.5 + math.cos(1) * math.cos(1.001),
                                     -(math.cos(1) + math.cos(1.001)) / 2, 0.25))
    tab = coefficient_table(model, 4)
    assert tab.method == "closed_form"
    assert tab.coeff(0) == pytest.approx(0.999364, abs=1e-5)


def test_marginal_xx_takes_closed_form():
    # a = 1: lam = cos k - 1 <= 0 with a tangential zero at k = 0, so g = -1
    model = build_model("xx", a=1)
    tab = coefficient_table(model, 16)
    assert tab.method == "closed_form"
    assert np.array_equal(build_T(model, 16, table=tab), -np.eye(16))


def test_triple_zero_closed_form():
    # lam = (cos k - cos 1)^3 has the sign of cos k - cos 1: t_0 = 2/pi - 1
    c = math.cos(1)
    model = build_model("custom", A=(-c ** 3 - 1.5 * c, (3 * c * c + 0.75) / 2,
                                     -0.75 * c, 0.125))
    tab = coefficient_table(model, 8)
    assert tab.coeff(0) == pytest.approx(2 / math.pi - 1, abs=1e-12)
    assert tab.coeff(3) == pytest.approx(2 * math.sin(3) / (3 * math.pi), abs=1e-12)


def test_tangential_zero_next_to_fermi_points_closed_form():
    # lam = (cos k - 1)(cos k - cos 0.01) < 0 only for |k| < 0.01; the
    # rounded couplings move those Fermi points by about 1e-10
    model = build_model("custom", A=(1.4999500004166653, -0.9999750002083326, 0.25))
    tab = coefficient_table(model, 8)
    assert tab.coeff(0) == pytest.approx(1 - 0.04 / (2 * math.pi), abs=1e-9)
    assert tab.coeff(5) == pytest.approx(-2 * math.sin(0.05) / (5 * math.pi), abs=1e-9)


def test_closed_form_rejects_mistyped_zeros():
    # the xx a=2 Fermi points passed off as marginal: lam changes sign there
    prof = classify_criticality(XX2)
    wrong = dataclasses.replace(prof, fermi_points=(),
                                marginal_points=prof.fermi_points)
    with pytest.raises(CoefficientAccuracyError):
        coefficient_table(XX2, 8, profile=wrong)


def test_coefficients_are_real_and_symmetric_for_isotropic():
    tab = coefficient_table(XX2, 32)
    for l in range(32):
        assert tab.coeff(l) == pytest.approx(tab.coeff(-l), abs=1e-12)


def test_anisotropic_coefficients_are_asymmetric():
    tab = coefficient_table(ISING, 16)
    asym = max(abs(tab.coeff(l) - tab.coeff(-l)) for l in range(1, 16))
    assert asym > 1e-3


def test_build_T_structure():
    tab = coefficient_table(ISING, 6)
    T = build_T(ISING, 6, table=tab)
    for i in range(6):
        for j in range(6):
            assert T[i, j] == tab.coeff(j - i)
    # isotropic blocks are exactly symmetric
    T_iso = build_T(XX2, 8)
    assert np.array_equal(T_iso, T_iso.T)


def test_build_T_single_entry():
    assert build_T(XX2, 1) == pytest.approx(np.array([[-1 / 3]]), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_build_T_equals_scipy_toeplitz_bit_for_bit(seed):
    import scipy.linalg

    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 7, 40):
        # a generic table: t_l != t_{-l}, mixed scales, exact zeros and ties
        t = rng.standard_normal(2 * n - 1) * 10.0 ** rng.integers(-300, 3, 2 * n - 1)
        t[rng.random(t.size) < 0.2] = 0.0
        t[rng.random(t.size) < 0.1] = -1.0
        table = toeplitz.ToeplitzCoeffs(n, t, "quadrature")
        for L in range(1, n + 1):
            mid = n - 1
            want = scipy.linalg.toeplitz(t[mid::-1][:L], t[mid:mid + L])
            got = build_T(XX2, L, table=table)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_entropy_equals_the_xlogy_form_bit_for_bit(seed):
    from scipy.special import xlogy

    rng = np.random.default_rng(seed)
    # many single modes, where one last-bit change of a log can reach the sum
    for size in [1] * 500 + [2, 5, 64, 1000]:
        mu = rng.random(size)
        mu[rng.random(size) < 0.2] = 1.0          # q = 0: 0 ln 0 must give 0
        mu[rng.random(size) < 0.2] = 0.0
        mu[rng.random(size) < 0.1] = np.nextafter(1.0, 0.0)  # q at the rounding floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectrum_from_singular_values(mu)
        p, q = (1.0 + got.mu) / 2.0, (1.0 - got.mu) / 2.0
        want = max(float(-(xlogy(p, p) + xlogy(q, q)).sum() / math.log(2.0)), 0.0) + 0.0
        assert got.entropy_bits == want
    assert spectrum_from_singular_values(np.ones(3)).entropy_bits == 0.0


def test_xlnx_equals_the_log_of_every_entry_bit_for_bit():
    # _xlnx skips log at 0 and 1, where the list comprehension of every entry gave 0.0
    def every_entry(x):
        return x * np.array([math.log(v) if v > 0.0 else 0.0 for v in x.tolist()])

    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, 1.0, tiny, 3 * tiny, 2.2e-308, np.nextafter(1.0, 0.0),
                        np.nextafter(1.0, 2.0), 0.5, 1e-300, 0.75, 2.0])
    rng = np.random.default_rng(7)
    for x in (special, rng.choice(special, 200), rng.random(64),
              np.r_[rng.random(50), np.ones(500), np.zeros(30), tiny * rng.random(20)]):
        assert toeplitz._xlnx(x).tobytes() == every_entry(x).tobytes()


def test_gamma_is_exactly_skew():
    for model in (XX2, XY, ISING, CONST):
        g = build_gamma(model, 5)
        assert np.array_equal(g, -g.T)
    assert np.allclose(build_gamma(CONST, 1), [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("model", [XX2, XY, ISING], ids=["xx2", "xy", "ising"])
@pytest.mark.parametrize("L", [1, 2, 3, 8, 16, 64])
def test_gamma_eigenvalues_match_singular_values(model, L):
    mu_T = np.sort(np.linalg.svd(build_T(model, L), compute_uv=False))[::-1]
    ev = np.linalg.eigvals(build_gamma(model, L))
    assert np.abs(ev.real).max() < 1e-9
    mu_g = np.sort(np.abs(ev))[::-1][0::2]
    assert np.abs(mu_T - mu_g).max() < 1e-9


def test_block_spectrum_identity():
    s = block_spectrum(np.eye(5))
    assert np.allclose(s.mu, 1.0)
    assert s.ln_alpha1 == 0.0
    assert s.entropy_bits == 0.0


def test_block_spectrum_single_mode():
    s = block_spectrum(np.array([[-1 / 3]]))
    assert s.mu[0] == pytest.approx(1 / 3)
    assert math.exp(s.ln_alpha1) == pytest.approx(2 / 3)
    expected = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
    assert s.entropy_bits == pytest.approx(expected, abs=1e-12)


def test_block_spectrum_zero_matrix():
    s = block_spectrum(np.zeros((3, 3)))
    assert np.allclose(s.mu, 0.0)
    assert math.exp(s.ln_alpha1) == pytest.approx(1 / 8)
    assert s.entropy_bits == pytest.approx(3.0)
    assert s.ln_absdet_T == -math.inf


def test_block_spectrum_rejects_bad_input():
    with pytest.raises(ModelError):
        block_spectrum(np.full((2, 2), math.nan))
    with pytest.raises(InvalidSpectrumError):
        block_spectrum(2.0 * np.eye(3))  # mu = 2 violates |T| <= 1
    with pytest.raises(ModelError):
        block_spectrum(np.zeros((2, 3)))
    with pytest.raises(ModelError):
        block_spectrum(np.zeros((0, 0)))


def test_spectrum_clamps_rounding_overshoot():
    s = spectrum_from_singular_values([1.0 + 5e-11, 0.5, -5e-11])
    assert s.mu[0] == 1.0 and s.mu[-1] == 0.0


@pytest.mark.parametrize("values", [[math.nan, 0.5], [0.5, math.inf], [-0.5, 0.2]],
                         ids=["nan", "inf", "negative"])
def test_spectrum_refuses_values_that_are_not_finite_or_below_zero(values):
    with pytest.raises(InvalidSpectrumError, match="finite and non-negative"):
        spectrum_from_singular_values(values)


def test_coefficient_table_refuses_a_nan_coefficient(monkeypatch):
    # |t_l| <= 1 is the table's last check; NaN - 1 > 1e-12 is False, so it must fail on NaN
    monkeypatch.setattr(toeplitz, "_closed_form",
                        lambda model, profile, L: np.full(2 * L - 1, math.nan))
    with pytest.raises(CoefficientAccuracyError, match="exceeds 1"):
        coefficient_table(XX2, 4)


# models and block lengths on which the table route and the dense block must agree bit
# for bit: both split routes (even and odd L), the Hankel route on a critical and on a
# winding table, and a four-Fermi-point isotropic table
SPECTRUM_ROUTES = {"xx": XX2, "ising": ISING, "xy-winding": WINDING,
                   "custom4": build_model("custom", A=(0.2, -0.4, -1))}


@pytest.mark.parametrize("name", list(SPECTRUM_ROUTES))
def test_scan_rows_equal_the_dense_block_rows_bit_for_bit(name):
    # 512 takes the Krylov route, from the same window
    model, grid = SPECTRUM_ROUTES[name], (1, 2, 3, 64, 65, 255, 256, 512)
    tab = coefficient_table(model, grid[-1])
    for L, row in zip(grid, scan(model, grid).rows):
        dense = block_spectrum(build_T(model, L, table=tab))
        assert repr(row) == repr(_row_from_spectrum(dense))
        assert table_spectrum(tab, L).mu.tobytes() == dense.mu.tobytes()


@pytest.mark.parametrize("model, bound", [(XX2, 0.6), (ISING, 0.1)], ids=["xx", "ising"])
def test_scan_allocates_less_than_the_dense_block(model, bound):
    # the dense block takes 8 L^2 bytes; the split route forms one half-size block at a
    # time (2 L^2 bytes), and the Hankel route hands views of the window to LAPACK
    import tracemalloc

    L = 1024
    tracemalloc.start()
    try:
        scan(model, (L,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 8 * L * L


def test_table_spectrum_refusals():
    tab = coefficient_table(XX2, 4)
    for L in (0, -1, 5):
        with pytest.raises(ModelError, match="outside"):
            table_spectrum(tab, L)
    for bad in (math.nan, math.inf):
        t = tab.t.copy()
        t[3] = bad                              # t_0
        with pytest.raises(ModelError, match="finite"):
            table_spectrum(ToeplitzCoeffs(4, t, "closed_form"), 4)
    # only the window t_{-(L-1)} .. t_{L-1} is read
    t = tab.t.copy()
    t[0] = math.nan                             # t_{-3}
    got = table_spectrum(ToeplitzCoeffs(4, t, "closed_form"), 3)
    assert got.mu.tobytes() == block_spectrum(build_T(XX2, 3)).mu.tobytes()


def test_aggregates_stay_in_range():
    for model in (XX2, XY, ISING):
        s = block_spectrum(build_T(model, 48))
        assert s.ln_alpha1 <= 0.0
        assert 0.0 < math.exp(s.ln_alpha1) <= 1.0
        assert 0.0 <= s.entropy_bits <= s.L
        assert np.all((0.0 <= s.mu) & (s.mu <= 1.0))


def test_table_reuse_across_lengths():
    tab = coefficient_table(XX2, 32)
    direct = build_T(XX2, 12)
    nested = build_T(XX2, 12, table=tab)
    assert np.allclose(direct, nested, atol=1e-12)
    with pytest.raises(ModelError):
        build_T(XX2, 64, table=tab)


def _isotropic_with_roots(roots):
    """Isotropic table with ``lam(k) = prod (cos k - r)``."""
    a = chebyshev.poly2cheb(polynomial.polyfromroots(roots))
    return build_model("custom", A=[a[0]] + [x / 2 for x in a[1:]])


def _svd_mu(T):
    return np.sort(np.linalg.svd(T, compute_uv=False))[::-1]


# a of the first benchmark xx draws: round(1.5 + 1.5 * Random(i).random(), 4)
ISOTROPIC = {f"xx-draw{i}": build_model("xx", a=round(1.5 + 1.5 * random.Random(i).random(), 4))
             for i in range(3)}
ISOTROPIC.update({"xx-a1": build_model("xx", a=1), "const": CONST,
                  "w2": _isotropic_with_roots([-0.3, 0.5]),
                  "w3": _isotropic_with_roots([-0.7, 0.1, 0.6])})


@pytest.mark.parametrize("name", list(ISOTROPIC))
def test_isotropic_spectrum_matches_svd(name):
    model = ISOTROPIC[name]
    if name in ("w2", "w3"):
        assert len(classify_criticality(model).fermi_points) == 2 * model.w
    tab = coefficient_table(model, 1025)
    for L in (1, 2, 3, 64, 65, 1024, 1025):
        T = build_T(model, L, table=tab)
        assert np.abs(block_spectrum(T).mu - _svd_mu(T)).max() <= 1e-13


@pytest.mark.parametrize("model", [ISING, XY], ids=["ising", "xy"])
@pytest.mark.parametrize("L", [1, 2, 3, 64, 65])
def test_anisotropic_blocks_keep_the_svd(model, L):
    # the SVD stays the reference for mu of the Hankel path eigvalsh(TJ), and
    # the determinant is LU's bit for bit
    T = build_T(model, L)
    spec = block_spectrum(T)
    assert np.abs(spec.mu - _svd_mu(T)).max() <= 1e-13
    assert spec.ln_absdet_T == np.linalg.slogdet(T)[1]


def test_winding_chain_determinant_matches_the_svd_log_sum():
    # the smallest mu lies below eigvalsh's absolute resolution from L=64 on
    # (7.3e-17 by SVD and LU at L=64), and the LU determinant still carries it
    tab = coefficient_table(WINDING, 512)
    for L in (64, 128, 256, 512):
        T = build_T(WINDING, L, table=tab)
        svd_det = np.log(_svd_mu(T)).sum()
        assert block_spectrum(T).ln_absdet_T == pytest.approx(svd_det, rel=1e-10)


def test_symmetry_guards_route_correctly():
    rng = np.random.default_rng(7)
    for n in (8, 9):
        X = rng.standard_normal((n, n))
        symmetric = X + X.T                      # not centrosymmetric
        centro = X + X[::-1, ::-1]               # neither symmetric nor persymmetric
        both = symmetric + symmetric[::-1, ::-1]  # not Toeplitz
        for M in (symmetric, both, centro):
            with pytest.raises(ModelError, match="Toeplitz"):
                block_spectrum(M / (1.01 * np.linalg.norm(M, 2)))
        idx = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
        toeplitz_block = rng.standard_normal(2 * n - 1)[idx]    # not symmetric: Hankel route
        t = rng.standard_normal(n)
        symmetric_toeplitz = t[np.abs(idx - n + 1)]   # half-size split, bordered for odd n
        for M in (toeplitz_block, symmetric_toeplitz):
            M = M / (1.01 * np.linalg.norm(M, 2))
            assert np.abs(block_spectrum(M).mu - _svd_mu(M)).max() <= 1e-13
        off_edge = symmetric_toeplitz / (1.01 * np.linalg.norm(symmetric_toeplitz, 2))
        off_edge[n // 2, n // 2] = math.nan      # off row 0 and column 0
        with pytest.raises(ModelError, match="Toeplitz"):
            block_spectrum(off_edge)


def test_fourfold_zero_is_refused_as_a_coefficient_accuracy_error():
    # z^3 lam = (z-1)^4 (z-r): next to the 4-fold zero at k=0, a quadrature node can land
    # where lam rounds to exactly 0 (r = 0.5, 2, 3 here), or the zero exhausts the
    # node budget (r = 0.25, 4); either way the table is refused with one error type
    for r in (0.25, 0.5, 2.0, 3.0, 4.0):
        model = _model_from_laurent(np.r_[polynomial.polyfromroots([1, 1, 1, 1, r]), 0.0])
        with pytest.raises(CoefficientAccuracyError):
            coefficient_table(model, 1)


# --- the Krylov route past the crossover -------------------------------------

def _dense_spectrum(window):
    """The dense route of a coefficient window, at any length."""
    with mock.patch.object(toeplitz, "_KRYLOV_L", math.inf):
        return toeplitz._window_spectrum(window)


def _fields(spec):
    row = _row_from_spectrum(spec)
    return [getattr(row, name) for name in SCAN_FIELDS]


def _same_bytes(a, b):
    return a.mu.tobytes() == b.mu.tobytes() and repr(dataclasses.replace(a, mu=None)) == repr(
        dataclasses.replace(b, mu=None))


@st.composite
def closed_form_critical_models(draw):
    kind = draw(st.sampled_from(["isotropic", "ising", "anisotropic"]))
    if kind == "ising":
        return ISING
    if kind == "anisotropic":
        return draw(anisotropic_tables(z_circle))[0]
    roots = draw(st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=3))
    model = _isotropic_with_roots(roots)
    assume(len(classify_criticality(model).fermi_points) == 2 * len(roots))
    return model


# Tables with exact coefficients (the closed form): isotropic with 2-6 Fermi points,
# ising, and anisotropic tables with every zero on the unit circle.
@settings(max_examples=15, deadline=None)
@given(closed_form_critical_models(), st.integers(toeplitz._KRYLOV_L, 2048))
# twelve Fermi points: about 220 basis vectors, many slabs of the Krylov basis
@example(_isotropic_with_roots([-0.9, -0.6, -0.2, 0.1, 0.5, 0.8]), 1024)
def test_krylov_route_matches_the_dense_route(model, L):
    assume(classify_criticality(model).step_phase is not None)
    try:
        window = toeplitz._window(coefficient_table(model, L), L)
    except CoefficientAccuracyError:
        assume(False)
    krylov, dense = toeplitz._window_spectrum(window), _dense_spectrum(window)
    assert (krylov.method, dense.method) == ("krylov", "dense")
    assert np.abs(krylov.mu - dense.mu).max() <= 1e-13
    tol = dict.fromkeys(SCAN_FIELDS, 1e-10)
    # the dense route rounds the ~L values near 1 to 1 - O(eps), which adds up to about
    # 1e-10 of entropy at L = 2048; the Krylov route sets those its certificate resolves
    # no further (within 4 L eps of 1) to 1
    near_one = dense.mu[1 - dense.mu <= toeplitz._KRYLOV_ULPS * L * np.finfo(float).eps]
    tol["entropy_bits"] += spectrum_from_singular_values(np.r_[near_one, 1.0]).entropy_bits
    # a symmetric block's ln|det T| sums ln mu: the mu tolerance, propagated, bounds it
    # (half-filled chains of odd L have a zero mode, and both routes give rounding there)
    tol["ln_absdet_T"] += 1e-13 * np.sum(1 / np.maximum(dense.mu, 1e-300))
    for name, a, b in zip(SCAN_FIELDS, _fields(krylov), _fields(dense)):
        assert a == b or abs(a - b) <= tol[name]
    if not np.array_equal(window, window[::-1]):
        assert krylov.ln_absdet_T == np.linalg.slogdet(toeplitz._toeplitz(window))[1]


def test_krylov_route_on_quadrature_tables_agrees_to_the_table_accuracy():
    # a quadrature table is accurate to abs_tol = 1e-12, and the dense route's values
    # near 1 spread by about that much: its entropy of the gapped xy chain drifts by
    # 3.5e-10 from L=512 to 1024, where the Krylov route's moves by 1.5e-11
    tab = coefficient_table(WINDING, 1024)
    specs = []
    for L in (512, 1024):
        window = toeplitz._window(tab, L)
        krylov, dense = toeplitz._window_spectrum(window), _dense_spectrum(window)
        assert krylov.method == "krylov"
        assert np.abs(krylov.mu - dense.mu).max() <= 1e-12
        assert np.allclose(_fields(krylov), _fields(dense), rtol=1e-8, atol=1e-10)
        assert krylov.ln_absdet_T == np.linalg.slogdet(toeplitz._toeplitz(window))[1]
        specs.append(krylov)
    assert specs[1].entropy_bits == pytest.approx(specs[0].entropy_bits, abs=1e-10)
    assert specs[1].ln_alpha1 == pytest.approx(specs[0].ln_alpha1, abs=1e-10)


def test_krylov_route_repeats_its_bytes():
    window = toeplitz._window(coefficient_table(ISING, 724), 724)
    first, second = toeplitz._window_spectrum(window), toeplitz._window_spectrum(window)
    assert first.method == "krylov"
    assert _same_bytes(first, second)


@pytest.mark.parametrize("name", ["flat", "deflating", "noise"])
def test_flat_spectra_fall_back_to_the_dense_route(name):
    # "flat": every mu 1/2, trace of I - T T^T past the L/4 columns of the cap;
    # "deflating": every mu 0.95, within it, but the Krylov space closes after one block;
    # "noise": a random window, mu spread over [0, 1)
    L = toeplitz._KRYLOV_L
    window = np.zeros(2 * L - 1)
    if name == "noise":
        window = np.random.default_rng(5).standard_normal(2 * L - 1) / (4 * math.sqrt(L))
    else:
        window[L - 1] = {"flat": 0.5, "deflating": 0.95}[name]
    assert toeplitz._krylov_mu(window) is None
    spec = toeplitz._window_spectrum(window)
    assert spec.method == "dense"
    assert _same_bytes(spec, _dense_spectrum(window))


def test_a_stalled_krylov_attempt_gives_up_after_four_blocks(monkeypatch):
    # t_0 = 0.9, t_{+-1} = 0.05: every mu in [0.8, 1] and a trace of I - T T^T of
    # 0.185 L, under the L/4 cap, so only the stall rule ends the attempt; its leftover
    # keeps 0.99 of its value over three blocks, where the model tables measured keep at
    # most 0.8 (sixteen Fermi points) and the presets at most 0.14
    L = 2048
    window = np.zeros(2 * L - 1)
    window[L - 2:L + 1] = (0.05, 0.9, 0.05)
    products = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        products.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    spec = toeplitz._window_spectrum(window)
    assert len(products) <= 4
    assert spec.method == "dense"
    assert _same_bytes(spec, _dense_spectrum(window))


def _unreachable(*args, **kwargs):
    raise AssertionError("a solve ran")


def test_a_non_symmetric_block_past_max_l_is_refused_before_any_solve(monkeypatch):
    # its ln|det T| would take an LU of L^2 entries: 32 GiB at L = 65536
    L = toeplitz.MAX_L + 1
    table = coefficient_table(ISING, L)
    for name in ("slogdet", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, _unreachable)
    monkeypatch.setattr(toeplitz, "_krylov_mu", _unreachable)
    with pytest.raises(ModelError, match="non-symmetric"):
        table_spectrum(table, L)


def test_an_uncertified_symmetric_block_past_max_l_is_refused(monkeypatch):
    # the stall window of the test above: the Krylov route gives up, and no dense route follows
    L = toeplitz.MAX_L + 1
    window = np.zeros(2 * L - 1)
    window[L - 2:L + 1] = (0.05, 0.9, 0.05)
    products = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        products.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", _unreachable)      # the dense route's solve
    with pytest.raises(DecompositionError, match=f"L={L}.*{toeplitz.MAX_L}"):
        toeplitz._window_spectrum(window)
    assert len(products) <= 4


def test_a_certified_symmetric_block_past_max_l_takes_the_krylov_route():
    L = 2 * toeplitz.MAX_L
    spec = table_spectrum(coefficient_table(XX2, L), L)
    assert spec.method == "krylov" and spec.L == L


@pytest.mark.parametrize("L", [16384, 65536])
def test_krylov_route_meets_the_ising_entropy_constant_past_a_deflated_block(L):
    # blocks of fewer than four vectors (deflation) partly fill a slab of the basis, at
    # the end of the run or before it; ising's entropy then meets its Fisher-Hartwig
    # constant, S - (1/6) log2 L -> 0.6904132739 bits.  The Krylov values are taken
    # directly: the block is not symmetric, and its LU determinant would need 8 L^2 bytes
    window = toeplitz._window(coefficient_table(ISING, L), L)
    mu = toeplitz._krylov_mu(window)
    assert mu is not None                # certified, no dense fallback
    entropy = spectrum_from_singular_values(mu).entropy_bits
    assert abs(entropy - fisher_hartwig_entropy(ISING, L)) <= 1e-9


def test_krylov_route_finds_exact_zero_singular_values():
    # t_3 = 1 alone: T shifts by 3, so three mu are 0 and the rest 1
    L = toeplitz._KRYLOV_L
    window = np.zeros(2 * L - 1)
    window[L + 2] = 1.0
    spec = toeplitz._window_spectrum(window)
    assert spec.method == "krylov"
    assert np.abs(spec.mu - np.r_[np.ones(L - 3), np.zeros(3)]).max() <= 1e-13
    assert spec.ln_absdet_T == -math.inf
