import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from singlecopy.errors import InvalidSpectrumError, ModelError
from singlecopy.model import build_model
from singlecopy.toeplitz import block_spectrum, build_T
from singlecopy.entangle import (
    leading_eigenvalues,
    nielsen_transformable,
    probabilistic_Ep,
    report,
    sector_decompose,
    single_copy_E1,
)

XX2 = build_model("xx", a=2)


def sorted_spectra(min_size=1, max_size=32):
    return (
        st.lists(st.floats(1e-3, 1.0), min_size=min_size, max_size=max_size)
        .map(lambda v: np.sort(np.array(v) / np.sum(v))[::-1])
    )


# --- single-copy floor ------------------------------------------------------

def test_single_copy_examples():
    res = single_copy_E1(math.log(0.3))
    assert res.M_max == 3
    assert res.E1_bits == pytest.approx(math.log2(3))
    assert single_copy_E1(0.0).M_max == 1
    assert single_copy_E1(0.0).E1_bits == 0.0
    assert single_copy_E1(math.log(0.500001)).M_max == 1


def test_single_copy_floor_guard():
    # 1/(1/3) rounds to 2.9999999999999996; the guard must still floor to 3
    assert single_copy_E1(math.log(1 / 3)).M_max == 3
    assert single_copy_E1(math.log(0.2)).M_max == 5
    assert single_copy_E1(math.log(1 / 7)).M_max == 7


def test_single_copy_log_domain_and_saturation():
    res = single_copy_E1(ln_alpha1=-60.0 * math.log(2))
    assert res.M_max is None
    assert res.E1_bits == res.e1_cont_bits == pytest.approx(60.0)
    small = single_copy_E1(ln_alpha1=math.log(0.3))
    assert small.M_max == 3


def test_single_copy_rejects_bad_alpha():
    with pytest.raises(InvalidSpectrumError):
        single_copy_E1(math.log(1.1))
    with pytest.raises(InvalidSpectrumError):
        single_copy_E1(math.nan)
    assert single_copy_E1(-math.inf).M_max is None   # alpha1 = 0: no floor


@settings(max_examples=200, deadline=None)
@given(sorted_spectra())
# 1/alpha1 = 3.999999999999999 snaps M_max up to 4 while -log2 alpha1 rounds below 2
@example(np.array([0.25000000000000006, 0.25, 0.25, 0.25]))
def test_floor_sandwich(vals):
    res = single_copy_E1(math.log(vals[0]))
    assert 0.0 <= res.E1_bits <= res.e1_cont_bits < res.E1_bits + 1.0


# --- majorization -----------------------------------------------------------

def test_nielsen_examples():
    assert nielsen_transformable(np.array([0.5, 0.5]), 2)
    assert not nielsen_transformable(np.array([0.6, 0.4]), 2)
    assert nielsen_transformable(np.array([0.3, 0.3, 0.2, 0.2]), 3)


def test_nielsen_rejects_invalid():
    with pytest.raises(InvalidSpectrumError):
        nielsen_transformable(np.array([0.4, 0.6]), 2)  # unsorted
    with pytest.raises(InvalidSpectrumError):
        nielsen_transformable(np.array([0.7, 0.7]), 2)  # unnormalized


@settings(max_examples=300, deadline=None)
@given(sorted_spectra())
def test_largest_feasible_M_equals_floor(vals):
    res = single_copy_E1(math.log(vals[0]))
    feasible = [m for m in range(1, len(vals) + 2) if nielsen_transformable(vals, m)]
    assert max(feasible) == res.M_max


# --- probabilistic rate -----------------------------------------------------

def test_ep_two_level_closed_form():
    # with two levels the only active constraint is p_2 / 2 <= alpha_2
    for a2 in (0.25, 0.1, 0.4, 0.5):
        ep = probabilistic_Ep(np.array([1 - a2, a2]))
        assert ep.Ep_bits == pytest.approx(min(1.0, 2 * a2), abs=1e-9)
    ep = probabilistic_Ep(np.array([0.75, 0.25]))
    assert dict(ep.ensemble) == pytest.approx({1: 0.5, 2: 0.5})


def test_ep_uniform_and_product():
    ep = probabilistic_Ep(np.array([0.25] * 4))
    assert ep.Ep_bits == pytest.approx(2.0, abs=1e-12)
    assert dict(ep.ensemble) == pytest.approx({4: 1.0})
    assert probabilistic_Ep(np.array([1.0])).Ep_bits == 0.0


def test_ep_respects_M_cap():
    ep = probabilistic_Ep(np.array([0.25] * 4), M_max=2)
    assert ep.Ep_bits == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidSpectrumError):
        probabilistic_Ep(np.array([0.5, 0.5]), M_max=2000)


@settings(max_examples=150, deadline=None)
@given(sorted_spectra(max_size=16))
def test_ep_sandwich(vals):
    res = single_copy_E1(math.log(vals[0]))
    ep = probabilistic_Ep(vals)
    entropy = float(-(vals * np.log2(vals)).sum())
    assert ep.Ep_bits >= res.E1_bits - 1e-9
    assert ep.Ep_bits <= entropy + 1e-9
    # the deterministic point M = floor(1/alpha1), p = 1 is always feasible
    m = res.M_max
    for l in range(2, m + 1):
        assert (m - l + 1) / m <= float(vals[l - 1:].sum()) + 1e-9


def test_ep_truncated_is_lower_bound():
    spec = block_spectrum(build_T(XX2, 10))
    full = leading_eigenvalues(spec.mu, 1 << 10)
    exact = probabilistic_Ep(full, M_max=1024)
    top = leading_eigenvalues(spec.mu, 32)
    tail = max(0.0, 1.0 - float(top.sum()))
    trunc = probabilistic_Ep(top, M_max=32, tail_weight=tail)
    assert trunc.truncated
    assert trunc.Ep_bits <= exact.Ep_bits + 1e-9


# --- leading product eigenvalues -------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_leading_eigenvalues_match_enumeration(mu):
    mu = np.array(mu)
    L = len(mu)
    full = []
    for flips in itertools.product((0, 1), repeat=L):
        full.append(np.prod([(1 + m) / 2 if not f else (1 - m) / 2 for m, f in zip(mu, flips)]))
    full = np.sort(full)[::-1]
    r = min(2 ** L, 12)
    got = leading_eigenvalues(mu, r)
    assert np.allclose(got, full[:r], atol=1e-12)


def test_leading_eigenvalues_pads_zeros_past_rank():
    vals = leading_eigenvalues(np.array([1.0, 1.0]), 4)
    assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0])


# --- sectors ----------------------------------------------------------------

def test_sector_single_mode():
    sw = sector_decompose(np.array([0.5]), "plus")  # nu = 0.75
    assert [(s.N, s.weight, s.max_eigenvalue) for s in sw] == [
        (0, pytest.approx(0.25), pytest.approx(0.25)),
        (1, pytest.approx(0.75), pytest.approx(0.75)),
    ]


def test_sector_two_modes():
    sw = sector_decompose(np.array([0.5, 0.2]), "plus")  # nu = (0.75, 0.6)
    assert sw[1].weight == pytest.approx(0.75 * 0.4 + 0.25 * 0.6)
    assert sw[1].max_eigenvalue == pytest.approx(0.75 * 0.4)


def test_sector_symmetric_binomial():
    sw = sector_decompose(np.array([0.0, 0.0]), "plus")  # nu = (0.5, 0.5)
    assert [s.weight for s in sw] == pytest.approx([0.25, 0.5, 0.25])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_sector_weights_match_enumeration(mu):
    mu = np.array(mu)
    L = len(mu)
    nu = (1 + mu) / 2
    sw = sector_decompose(mu, "plus")
    brute_w = np.zeros(L + 1)
    brute_max = np.zeros(L + 1)
    for occ in itertools.product((0, 1), repeat=L):
        p = np.prod([nu[i] if o else 1 - nu[i] for i, o in enumerate(occ)])
        N = sum(occ)
        brute_w[N] += p
        brute_max[N] = max(brute_max[N], p)
    assert np.allclose([s.weight for s in sw], brute_w, atol=1e-12)
    assert np.allclose([s.max_eigenvalue for s in sw], brute_max, atol=1e-12)
    assert sum(s.weight for s in sw) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_sector_convention_flip(mu):
    mu = np.array(mu)
    L = len(mu)
    plus = sector_decompose(mu, "plus")
    minus = sector_decompose(mu, "minus")
    for N in range(L + 1):
        assert plus[N].weight == pytest.approx(minus[L - N].weight, abs=1e-12)
        assert plus[N].max_eigenvalue == pytest.approx(minus[L - N].max_eigenvalue, abs=1e-12)


def test_sector_envelope_reaches_alpha1():
    spec = block_spectrum(build_T(XX2, 9))
    sw = sector_decompose(spec.mu, "plus")
    assert max(s.max_eigenvalue for s in sw) == pytest.approx(
        math.exp(spec.ln_alpha1), abs=1e-12
    )


# --- entropy cross-check and reports ----------------------------------------

@pytest.mark.parametrize("L", [1, 3, 6, 10])
def test_entropy_matches_full_product_spectrum(L):
    spec = block_spectrum(build_T(XX2, L))
    full = leading_eigenvalues(spec.mu, 1 << L)
    full = full[full > 0]
    shannon = float(-(full * np.log2(full)).sum())
    assert spec.entropy_bits == pytest.approx(shannon, abs=1e-10)


def test_report_product_state():
    rep = report(build_model("custom", A=(1,)), 8)
    assert rep.E1_bits == 0.0
    assert rep.entropy_bits == 0.0
    assert rep.alpha1 == pytest.approx(1.0)


def test_report_single_mode():
    rep = report(XX2, 1, with_sectors=True)
    assert rep.alpha1 == pytest.approx(2 / 3)
    assert rep.E1_bits == 0.0
    assert rep.entropy_bits == pytest.approx(-(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3))
    assert rep.sectors is not None
    assert sum(s.weight for s in rep.sectors) == pytest.approx(1.0)


def test_report_divergence_with_L():
    r64 = report(XX2, 64)
    r128 = report(XX2, 128)
    assert r128.e1_cont_bits > r64.e1_cont_bits


def test_report_ordering_and_diagnostics():
    rep = report(XX2, 24, with_Ep=True)
    assert rep.E1_bits <= rep.Ep_bits <= rep.entropy_bits + 1e-9
    assert set(rep.diagnostics) == {"ln_absdet_T", "rms_term_bits", "Ep_truncated"}


def test_report_rejects_block_past_max_length():
    with pytest.raises(ModelError):
        report(XX2, 4097)


def test_report_skips_sectors_for_anisotropic():
    rep = report(build_model("ising"), 6, with_sectors=True)
    assert rep.sectors is None


@pytest.mark.parametrize("dims", [0, 1025])
def test_report_rejects_out_of_range_ep_dims(dims):
    with pytest.raises(InvalidSpectrumError):
        report(XX2, 12, with_Ep=True, Ep_dims=dims)
