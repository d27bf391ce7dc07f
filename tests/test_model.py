import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singlecopy.errors import ModelError, SymbolSingularError
from singlecopy.model import (
    ModelSpec,
    _laurent,
    _step_phase,
    build_model,
    circle_zeros,
    classify_criticality,
    dispersion,
    symbol_eval,
)


def test_preset_expansion():
    ising = build_model("ising")
    assert ising.w == 1
    assert ising.A == (-1.0, 0.5)
    assert ising.B == (-0.25,)

    xy0 = build_model("xy", a=2, gamma=0)
    assert xy0.A == (-1.0, 1.0)
    assert xy0.B == (0.0,)

    xx = build_model("xx", a=2)
    assert (xx.A, xx.B) == (xy0.A, xy0.B)

    custom = build_model("custom", A=(1,), B=())
    assert custom.w == 0 and custom.B == ()


def test_build_model_rejects_bad_input():
    with pytest.raises(ModelError):
        build_model("custom", A=(0.0, 0.0), B=(0.0,))
    with pytest.raises(ModelError):
        build_model("custom", A=(math.inf,))
    with pytest.raises(ModelError):
        build_model("xx")  # missing a
    with pytest.raises(ModelError):
        build_model("xy", a=1, gamma=math.nan)
    with pytest.raises(ModelError):
        ModelSpec(label="custom", w=1, A=(1.0,), B=())  # wrong lengths
    with pytest.raises(ModelError, match="coupling range w must be an integer, got 1.0"):
        ModelSpec(label="custom", w=1.0, A=(1.0, 0.5), B=(0.0,))   # used to pass, then fail in range()


@pytest.mark.parametrize("kind, kwargs, unread", [
    ("xx", dict(a=2, A=(1,)), "A"),
    ("ising", dict(B=(0.1,)), "B"),
    ("xy", dict(a=2, gamma=0.5, A=(1, 2), B=(0.1,)), "A or B"),
    ("custom", dict(A=(1,), gamma=0.5), "gamma"),
    ("custom", dict(A=(1, 2), a=1), "a"),
    ("ising", dict(a=1), "a"),
    ("ising", dict(a=1, gamma=1), "a or gamma"),
    ("xx", dict(a=2, gamma=0), "gamma"),
], ids=["xx-A", "ising-B", "xy-A-B", "custom-gamma", "custom-a", "ising-a", "ising-a-gamma",
        "xx-gamma"])
def test_build_model_refuses_parameters_the_kind_does_not_read(kind, kwargs, unread):
    with pytest.raises(ModelError, match=f"the {kind} model does not read {unread}$"):
        build_model(kind, **kwargs)


@pytest.mark.parametrize("A", [None, (), []], ids=["none", "tuple", "list"])
def test_custom_model_needs_A_0(A):
    with pytest.raises(ModelError, match="A_0"):
        build_model("custom", A=A)


@pytest.mark.parametrize("A, B, name", [
    ([[1, 2], [3, 4]], None, "A"),
    ("ab", None, "A"),
    ([[1], [2]], None, "A"),
    ((1, 2), [[0.5]], "B"),
    ((1, 2), "x", "B"),
    ((1, 2), [0.5, [1]], "B"),
    (np.array([1 + 2j, 0.5]), None, "A"),
    ((1, 2), [0.5j], "B"),
], ids=["A-2d", "A-str", "A-column", "B-2d", "B-str", "B-ragged", "A-complex-array", "B-complex"])
def test_custom_model_refuses_malformed_coupling_arrays(A, B, name):
    with pytest.raises(ModelError, match=f"couplings {name} must be a real number or a flat"):
        build_model("custom", A=A, B=B)


@pytest.mark.parametrize("A, B", [
    ((1e308, 1e308), None),                  # c_{-1} + c_0 + c_1 = 3e308
    ((1.0, 1e308), (1e308,)),                # c_1 = A_1 - 2 B_1 = -1e308, c_{-1} = inf
], ids=["sum", "coefficient"])
def test_overflowing_laurent_coefficients_are_refused(A, B):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="overflow"):
            build_model("custom", A=A, B=B)


@pytest.mark.parametrize("model", [
    pytest.param(build_model("xx", a=1e-320), id="xx-subnormal"),
    pytest.param(build_model("custom", A=(1.0, 1e-320)), id="custom-subnormal"),
    pytest.param(build_model("custom", A=(2.0, 1e-17, 1e-17), B=(0.0, 1e-17)), id="below-eps"),
])
def test_negligible_end_coefficients_are_dropped(model):
    # end coefficients at or below eps * sum |c_j| move lam by less than its
    # rounding; a subnormal leading one made the companion matrix infinite
    profile = classify_criticality(model)
    assert profile.fermi_points == profile.marginal_points == ()
    assert profile.step_phase == 0.0


def test_symbol_values():
    ising = build_model("ising")
    assert symbol_eval(ising, math.pi) == pytest.approx(-1.0)
    assert symbol_eval(build_model("xx", a=2), 0.0) == pytest.approx(1.0)
    lam = -1.0 + 0.5j
    assert symbol_eval(build_model("xy", a=1, gamma=0.5), math.pi / 2) == pytest.approx(
        lam / abs(lam)
    )


def test_symbol_singular_at_fermi_point():
    # lam(0) = -1 + 2*(1/2)*cos(0) evaluates to an exact float zero
    with pytest.raises(SymbolSingularError):
        symbol_eval(build_model("xx", a=1), 0.0)


def test_classify_xx_fermi_points():
    prof = classify_criticality(build_model("xx", a=2))
    assert prof.critical
    assert np.allclose(sorted(prof.fermi_points), [math.pi / 3, 5 * math.pi / 3], atol=1e-9)
    assert prof.beta_sq_sum() == 0.5


def test_classify_xy_gapped_is_not_critical():
    prof = classify_criticality(build_model("xy", a=2, gamma=0.5))
    assert not prof.critical
    assert prof.fermi_points == ()


def test_classify_ising_single_jump():
    prof = classify_criticality(build_model("ising"))
    assert prof.critical
    assert len(prof.fermi_points) == 1
    assert prof.fermi_points[0] == pytest.approx(0.0, abs=1e-9)
    assert prof.beta_sq_sum() == 0.25


def test_classify_marginal_boundary():
    prof = classify_criticality(build_model("xx", a=1))
    assert not prof.critical
    assert len(prof.marginal_points) == 1
    assert prof.marginal_points[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("gamma", [-0.9, -0.3, 0.4, 1.0])
def test_classify_critical_line(gamma):
    prof = classify_criticality(build_model("xy", a=1, gamma=gamma))
    assert prof.critical
    assert len(prof.fermi_points) == 1
    assert prof.beta_sq_sum() == 0.25


@pytest.mark.parametrize("a", [1.5, 2.0, 5.0])
def test_classify_xy_gapped_region(a):
    # gamma != 0 and 1/a in (0, 1): continuous symbol
    assert not classify_criticality(build_model("xy", a=a, gamma=0.7)).critical


def test_classify_is_deterministic():
    model = build_model("xy", a=1, gamma=0.25)
    p1 = classify_criticality(model)
    p2 = classify_criticality(model)
    assert p1 == p2


def test_near_coincident_fermi_points_all_found():
    # lam = (cos k - cos 1)(cos k - cos 1.001): Fermi points 1e-3 apart
    model = build_model("custom", A=(0.5 + math.cos(1) * math.cos(1.001),
                                     -(math.cos(1) + math.cos(1.001)) / 2, 0.25))
    prof = classify_criticality(model)
    assert len(prof.fermi_points) == 4
    expected = [1.0, 1.001, 2 * math.pi - 1.001, 2 * math.pi - 1.0]
    assert np.allclose(sorted(prof.fermi_points), expected, atol=1e-9)


def test_fermi_pair_straddling_zero_stays_two_jumps():
    # lam = cos(1e-3) - cos k: zeros at +-1e-3, each a jump with beta = 1/2
    prof = classify_criticality(build_model("custom", A=(math.cos(1e-3), -0.5)))
    assert len(prof.fermi_points) == 2
    assert prof.beta_sq_sum() == 0.5


def test_triple_zero_is_one_fermi_point():
    # lam = (cos k - cos 1)^3: numpy splits each triple root by ~1e-5, yet
    # each is one sign change of lam
    c = math.cos(1)
    model = build_model("custom", A=(-c ** 3 - 1.5 * c, (3 * c * c + 0.75) / 2,
                                     -0.75 * c, 0.125))
    prof = classify_criticality(model)
    assert np.allclose(prof.fermi_points, [1.0, 2 * math.pi - 1.0], atol=1e-6)
    assert prof.marginal_points == ()
    assert prof.beta_sq_sum() == 0.5


def test_tangential_zero_next_to_fermi_points_stays_marginal():
    # lam = (cos k - 1)(cos k - cos 0.01): the rounded couplings split the
    # double root at k = 0 radially, to 1 +- 3e-6
    model = build_model("custom", A=(1.4999500004166653, -0.9999750002083326, 0.25))
    prof = classify_criticality(model)
    assert prof.marginal_points == (0.0,)
    assert np.allclose(prof.fermi_points, [0.01, 2 * math.pi - 0.01], atol=1e-9)


# lam = (cos k + 1)(cos k + cos d)^2 with d = 0.0039: double zeros at pi and pi +- d, six
# roots of z^3 lam whose centre lies d^2/3 = 5e-6 inside the unit circle (rounding spreads
# the computed ones to 0.006 of -1)
TIGHT_CLUSTER = build_model("custom", A=(2.4999771119037173, 1.8749847412594436,
                                         0.7499961853075849, 0.125))


def test_a_tight_zero_cluster_is_a_zero_of_the_symbol():
    k = np.linspace(math.pi - 0.01, math.pi + 0.01, 2001)
    assert np.abs(dispersion(TIGHT_CLUSTER, k)).max() < 1e-13
    roots = np.polynomial.polynomial.polyroots(_laurent(TIGHT_CLUSTER))   # of z^3 lam
    assert roots.size == 6 and np.abs(roots + 1).max() < 0.01


@pytest.mark.xfail(strict=True, reason="circle_zeros misses a cluster of zeros centred "
                   "past _CIRCLE_TOL inside the unit circle (CHANGES.md FOUND on model.circle_zeros)")
def test_a_tight_zero_cluster_is_classified():
    prof = classify_criticality(TIGHT_CLUSTER)
    assert any(abs(k - math.pi) <= 0.01 for k in prof.fermi_points + prof.marginal_points)


# the xx draws of the benchmark workloads
XX_DRAWS = [round(1.5 + 1.5 * random.Random(i).random(), 4) for i in range(32)]


# The certificate reads the couplings only: c_{2nu-j} = +-c_j about the
# centre nu of their support, trimmed of zeros.  lam = e^{-ik} is a pure
# phase, and the xy couplings a(1 -+ gamma)/2 are not mirrored.
@pytest.mark.parametrize("kind, kwargs, nu", [
    ("ising", {}, 0.5),
    ("xx", {"a": 2.0}, 0.0),
    ("custom", {"A": (0.0, 0.0, 1.0)}, 0.0),
    ("custom", {"A": (0.0, 0.5), "B": (0.25,)}, -1.0),
    ("xy", {"a": 2.0, "gamma": 0.5}, None),
], ids=["ising", "xx", "z2", "pure-phase", "xy"])
def test_step_phase_is_the_mirror_symmetry_of_the_couplings(kind, kwargs, nu):
    assert _step_phase(build_model(kind, **kwargs)) == nu


@pytest.mark.parametrize("model", [
    pytest.param(build_model("ising"), id="ising"),
    pytest.param(build_model("xx", a=2), id="xx-2"),
    pytest.param(build_model("xy", a=1, gamma=0.5), id="xy-1-0.5"),
    pytest.param(build_model("custom", A=(0.5 + math.cos(1) * math.cos(1.001),
                                          -(math.cos(1) + math.cos(1.001)) / 2, 0.25)),
                 id="close-pair"),
    pytest.param(build_model("custom", A=(1.4999500004166653, -0.9999750002083326, 0.25)),
                 id="tangential-next-to-pair"),
    *(pytest.param(build_model("xx", a=a), id=f"xx-draw-{i}") for i, a in enumerate(XX_DRAWS)),
    # couplings over seven decades: the unpolished roots of z^w lam miss by
    # 1113 and 259 eps scale
    pytest.param(build_model("custom", A=(0.00047400898665613444, 0.12814960011344048,
                                          3436.1362372006633, 0.0024953694593088786)),
                 id="wide-range-1"),
    pytest.param(build_model("custom", A=(1836.919330905528, 5.9389292982355135,
                                          4599.139063442222, -0.0025911189105825324)),
                 id="wide-range-2"),
])
def test_simple_zeros_are_polished_to_rounding(model):
    # one Newton step on z^w lam leaves |lam| at each simple zero at the
    # rounding of lam itself
    simple = [k for k, m in circle_zeros(model) if m == 1]
    assert simple
    scale = np.abs(_laurent(model)).sum()
    assert max(abs(dispersion(model, k)) for k in simple) <= 64 * np.finfo(float).eps * scale


def test_jumps_closed_under_reflection():
    prof = classify_criticality(build_model("xx", a=2))
    ks = sorted(prof.fermi_points)
    for k in ks:
        mirrored = (2 * math.pi - k) % (2 * math.pi)
        assert min(abs(mirrored - kk) for kk in ks) < 1e-8


@st.composite
def models_strategy(draw):
    w = draw(st.integers(0, 3))
    coupling = st.floats(-2, 2, allow_nan=False)
    A = [draw(coupling) for _ in range(w + 1)]
    B = [draw(coupling) for _ in range(w)]
    if not any(A) and not any(B):
        A[0] = 1.0
    return build_model("custom", A=A, B=B)


@settings(max_examples=60, deadline=None)
@given(models_strategy(), st.floats(0.01, 2 * math.pi - 0.01))
def test_symbol_unimodular_and_conjugate_symmetric(model, k):
    try:
        g = symbol_eval(model, k)
        g_ref = symbol_eval(model, 2 * math.pi - k)
    except SymbolSingularError:
        return
    mag = abs(dispersion(model, k))
    if mag < 1e-8:
        return  # too close to a Fermi point for the reflection tolerance
    assert abs(abs(g) - 1.0) < 1e-14
    assert abs(g_ref - g.conjugate()) < 1e-12
