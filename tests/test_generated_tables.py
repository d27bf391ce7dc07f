"""Property tests on coupling tables generated from chosen zeros (w <= 3).

``z^w lam(z)`` is a real polynomial of degree <= 2w for every table, and
every such polynomial is the dispersion of some table, so tables are built
from root factors: Fermi pairs, near-coincident pairs, zeros at 0 and pi,
tangential (double) zeros, triple zeros and roots off the unit circle
(gapped factors).  Isotropic tables are polynomials in ``x = cos k``
instead.  The same tables drive the classifier, the closed form,
the isotropic block spectrum, and the finite Gaussian chain against exact
diagonalization.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import chebyshev, polynomial

from singlecopy.errors import CoefficientAccuracyError, DegenerateGroundStateError
from singlecopy.model import _laurent, build_model, circle_zeros, classify_criticality, dispersion
from singlecopy.oracle import _gaussian_block, compare_oracle, finite_gaussian_ground
from singlecopy.toeplitz import _fourier_pair, block_spectrum, build_T, coefficient_table

GRID = 1 << 16
STEP = 2 * math.pi / GRID

angles = st.floats(0.1, math.pi - 0.1)
gaps = st.floats(1e-3, 1e-2)


def _model_from_laurent(c):
    """Table whose dispersion is ``sum_j c_j z^j`` (``c`` holds ``c_{-w} .. c_w``)."""
    w = (len(c) - 1) // 2
    A = [c[w]] + [(c[w + j] + c[w - j]) / 2 for j in range(1, w + 1)]
    B = [(c[w - j] - c[w + j]) / 4 for j in range(1, w + 1)]
    return build_model("custom", A=A, B=B)


def _unit_pair(theta):
    return [complex(math.cos(theta), math.sin(theta)), complex(math.cos(theta), -math.sin(theta))]


# Each factor: (roots, jump angles, tangential angles).
z_gapped = st.one_of(
    st.one_of(st.floats(0.2, 0.8), st.floats(1.25, 5.0), st.floats(-5.0, -1.25))
      .map(lambda r: ([r], [], [])),
    st.tuples(st.floats(1.25, 3.0), angles).map(
        lambda p: ([p[0] * z for z in _unit_pair(p[1])], [], [])),
)
z_circle = st.one_of(
    angles.map(lambda t: (_unit_pair(t), [t, -t], [])),
    st.tuples(angles, gaps).map(
        lambda p: (_unit_pair(p[0]) + _unit_pair(p[0] + p[1]),
                   [p[0], -p[0], p[0] + p[1], -p[0] - p[1]], [])),
    st.just(([1.0], [0.0], [])),
    st.just(([-1.0], [math.pi], [])),
    st.just(([1.0, 1.0], [], [0.0])),
    st.just(([-1.0, -1.0], [], [math.pi])),
    angles.map(lambda t: (2 * _unit_pair(t), [], [t, -t])),
    angles.map(lambda t: (3 * _unit_pair(t), [t, -t], [])),
    st.just(([1.0] * 3, [0.0], [])),
    st.just(([-1.0] * 3, [math.pi], [])),
)
z_factors = st.one_of(z_circle, z_gapped)

# Factors of P(x), lam(k) = P(cos k), with zeros of multiplicity <= 2 in k.
x_gapped = st.one_of(
    st.one_of(st.floats(1.2, 3.0), st.floats(-3.0, -1.2)).map(lambda r: ([r], [], [])),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.3, 2.0)).map(
        lambda p: ([complex(*p), complex(p[0], -p[1])], [], [])),
)
x_factors_low = st.one_of(
    angles.map(lambda t: ([math.cos(t)], [t, -t], [])),
    st.tuples(angles, gaps).map(
        lambda p: ([math.cos(p[0]), math.cos(p[0] + p[1])],
                   [p[0], -p[0], p[0] + p[1], -p[0] - p[1]], [])),
    gaps.map(lambda d: ([math.cos(d)], [d, -d], [])),
    gaps.map(lambda d: ([-math.cos(d)], [math.pi - d, math.pi + d], [])),
    st.just(([1.0], [], [0.0])),
    st.just(([-1.0], [], [math.pi])),
    angles.map(lambda t: (2 * [math.cos(t)], [], [t, -t])),
    x_gapped,
)

# Adds zeros of multiplicity 3, 4 and 6 in k.
x_factors = st.one_of(
    x_factors_low,
    angles.map(lambda t: (3 * [math.cos(t)], [t, -t], [])),
    st.integers(2, 3).map(lambda n: (n * [1.0], [], [0.0])),
    st.integers(2, 3).map(lambda n: (n * [-1.0], [], [math.pi])),
)

scales = st.one_of(st.floats(0.5, 2.0), st.floats(-2.0, -0.5))


def _grid_lam(model):
    """lam on the grid, summed from the couplings in extended precision,
    as ``(re, im, scale)``."""
    k = (np.arange(GRID, dtype=np.longdouble) + 0.5) * np.longdouble(STEP)
    A = np.asarray(model.A, dtype=np.longdouble)
    B = np.asarray(model.B, dtype=np.longdouble)
    re = np.full(GRID, A[0])
    im = np.zeros(GRID, dtype=np.longdouble)
    for j in range(1, model.w + 1):
        re += 2 * A[j] * np.cos(j * k)
        im -= 4 * B[j - 1] * np.sin(j * k)
    return re, im, np.abs(A).sum() * 2 + np.abs(B).sum() * 4


def _grid_sign_changes(model, floor=1e3 * np.finfo(np.longdouble).eps):
    """Turns of lam by more than 90 degrees between consecutive grid nodes.

    Nodes where ``|lam|`` is below ``floor`` times the coupling scale carry
    no direction and are skipped; the default is the extended-precision
    rounding level (reached next to a zero of high multiplicity).
    """
    re, im, scale = _grid_lam(model)
    keep = np.hypot(re, im) > floor * scale
    re, im = re[keep], im[keep]
    return int(np.sum(re * np.roll(re, -1) + im * np.roll(im, -1) < 0))


def _circular_gap(a, b):
    d = abs(a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def _resolvable(model, jumps, tangents):
    """Zeros more than one grid step apart, whose sign changes the brute
    force counts alike with nodes of ``|lam|`` below 1e-13 of the coupling
    scale skipped or kept.

    Sign changes that show only below that level, or not at all, cannot be
    resolved in double precision: several zeros packed within about 0.01,
    or a pair of zeros that rounding the couplings opens next to a zero of
    multiplicity 4.
    """
    zeros = jumps + tangents
    if any(_circular_gap(a, b) <= STEP for i, a in enumerate(zeros) for b in zeros[:i]):
        return False
    return _grid_sign_changes(model, 1e-13) == _grid_sign_changes(model) == len(jumps)


def _combine(draw, factors, max_degree, first=None):
    roots, jumps, tangents = ([], [], []) if first is None else draw(first)
    for _ in range(draw(st.integers(0, 3))):
        r, j, t = draw(factors)
        if len(roots) + len(r) <= max_degree:
            roots += r
            jumps += j
            tangents += t
    return polynomial.polyfromroots(roots).real * draw(scales), jumps, tangents


@st.composite
def anisotropic_tables(draw, factors=z_factors, first=None):
    w = draw(st.integers(1, 3))
    p, jumps, tangents = _combine(draw, factors, 2 * w, first)
    shift = draw(st.integers(0, 2 * w + 1 - p.size))     # times z^shift: a root at 0
    c = np.zeros(2 * w + 1)
    c[shift:shift + p.size] = p
    return _model_from_laurent(c), jumps, tangents


@st.composite
def isotropic_tables(draw, factors=x_factors, tangent_gap=0.0):
    w = draw(st.integers(1, 3))
    P, jumps, tangents = _combine(draw, factors, w)
    a = np.zeros(w + 1)
    a[:P.size] = chebyshev.poly2cheb(P)                  # lam = sum_n a_n cos(n k)
    model = build_model("custom", A=[a[0]] + [x / 2 for x in a[1:]])
    zeros = jumps + tangents
    assume(all(_circular_gap(t, z) >= tangent_gap
               for i, t in enumerate(tangents, len(jumps)) for z in zeros[:i] + zeros[i + 1:]))
    return model, jumps, tangents


@settings(max_examples=80, deadline=None)
@given(st.one_of(anisotropic_tables(), isotropic_tables()))
def test_classifier_matches_brute_force_sign_count(table):
    model, jumps, tangents = table
    assume(_resolvable(model, jumps, tangents))
    n_jumps, n_tangent = len(jumps), len(tangents)
    prof = classify_criticality(model)
    assert len(prof.fermi_points) == _grid_sign_changes(model) == n_jumps
    assert len(prof.marginal_points) == n_tangent
    assert prof.critical == (n_jumps > 0)
    assert prof.beta_sq_sum() == n_jumps / 4
    assert all(0.0 <= k < 2 * math.pi for k in prof.fermi_points + prof.marginal_points)


# One Newton step on z^w lam polishes each simple zero: |lam| there is at
# the rounding of lam itself.
@settings(max_examples=80, deadline=None)
@given(st.one_of(anisotropic_tables(), isotropic_tables()))
def test_simple_zeros_are_polished_to_rounding(table):
    model = table[0]
    scale = np.abs(_laurent(model)).sum()
    for k, m in circle_zeros(model):
        if m == 1:
            assert abs(dispersion(model, k)) <= 64 * np.finfo(float).eps * scale


# The reference quadrature evaluates sign(lam) in double precision, which is
# rounding noise over a band about (eps / |d^m lam / dk^m|)^(1/m) wide around
# a zero of multiplicity m.  Its nodes stay clear of that band for simple
# zeros and for tangential zeros 0.1 away from other zeros, not for zeros of
# multiplicity >= 3 or tangential zeros next to others (where d^2 lam / dk^2
# is small).  Those are covered by the brute-force sign count above and by
# exact values in tests/test_toeplitz.py.
@settings(max_examples=40, deadline=None)
@given(isotropic_tables(x_factors_low, tangent_gap=0.1))
def test_closed_form_matches_quadrature(table):
    model, jumps, tangents = table
    assume(_resolvable(model, jumps, tangents))
    prof = classify_criticality(model)
    tab = coefficient_table(model, 257, profile=prof)
    assert tab.method == "closed_form"
    cuts = sorted(prof.fermi_points + prof.marginal_points)
    for l in (0, 1, 2, 7, 64, 256):
        tp, tm = _fourier_pair(model, l, 1e-10, cuts)
        assert tp == pytest.approx(tab.coeff(l), abs=1e-10)
        assert tm == pytest.approx(tab.coeff(-l), abs=1e-10)


# A table whose roots all lie on the unit circle or at 0 has a step times a
# phase for symbol, so its table takes the exact closed form.  Quadrature is
# the reference where it resolves the symbol, next to simple zeros only: the
# complex symbol's rounding noise around a multiple zero makes it miss 1e-11
# or refuse.  Multiple zeros are checked against exact values in
# tests/test_toeplitz.py.  Next to zeros 1e-3 to 1e-2 apart ``|lam|`` stays
# small over whole arcs, and its rounding makes the reference's successive
# panel sums differ by 1e-12 or more, above the reference's tolerance on any
# share of the arcs; such a refused reference coefficient is skipped.
@settings(max_examples=60, deadline=None)
@given(anisotropic_tables(z_circle))
def test_unit_circle_tables_take_the_closed_form(table):
    model, jumps, tangents = table
    assume(_resolvable(model, jumps, tangents))
    prof = classify_criticality(model)
    tab = coefficient_table(model, 257, profile=prof)
    assert tab.method == "closed_form"
    if any(m > 1 for _, m in circle_zeros(model)):
        return
    cuts = sorted(prof.fermi_points + prof.marginal_points)
    for l in (0, 1, 2, 7, 64, 256):
        try:
            tp, tm = _fourier_pair(model, l, 1e-12, cuts)
        except CoefficientAccuracyError:
            continue
        assert tp == pytest.approx(tab.coeff(l), abs=1e-11)
        assert tm == pytest.approx(tab.coeff(-l), abs=1e-11)


# One root off the unit circle makes the symbol smooth across its angle: the
# table is not certified a step times a phase and stays on quadrature.
@settings(max_examples=60, deadline=None)
@given(anisotropic_tables(z_factors, first=z_gapped))
def test_tables_with_a_root_off_the_circle_stay_on_quadrature(table):
    model = table[0]
    assume(not model.isotropic)
    assert classify_criticality(model).step_phase is None


# Isotropic blocks take the half-size symmetric eigensolver; the SVD is the
# reference.  A table whose closed form refuses it is skipped.
@settings(max_examples=25, deadline=None)
@given(isotropic_tables(), st.integers(1, 200))
def test_isotropic_spectrum_matches_svd(table, L):
    try:
        T = build_T(table[0], L)
    except CoefficientAccuracyError:
        assume(False)
    svd = np.sort(np.linalg.svd(T, compute_uv=False))[::-1]
    assert np.abs(block_spectrum(T).mu - svd).max() <= 1e-13


# Open chains of up to 9 sites cut the couplings at both edges, so their
# normal modes include edge and (for critical tables) near-zero modes.  The
# lowest normal-mode energy is the many-body gap; a zero mode makes both
# routes refuse or flag the state, and only those draws are skipped.
@settings(max_examples=200, deadline=None)
@given(st.one_of(anisotropic_tables(), isotropic_tables()), st.integers(1, 9), st.data())
def test_finite_gaussian_matches_exact_diagonalization(table, n, data):
    model, _, _ = table
    L = data.draw(st.integers(1, n))
    gauss, normal_mode_gap = _gaussian_block(model, n, L)
    try:
        cmp = compare_oracle(model, n, L, "gaussian-vs-ed")
    except DegenerateGroundStateError:
        assume(False)
    assert normal_mode_gap >= 1e-10
    assert cmp.max_abs_diff < 1e-8
    assert cmp.gap == pytest.approx(normal_mode_gap, abs=1e-10)


# Gapped tables (every factor off the unit circle, or a root at 0): the
# centered block of a long open chain is the bulk state, whose correlations
# decay exponentially, so it matches the Toeplitz block.  Edge modes of a
# chain with winding sit about n / 2 sites away and do not reach it.
@settings(max_examples=8, deadline=None)
@given(st.one_of(anisotropic_tables(z_gapped), isotropic_tables(x_gapped)), st.integers(1, 16))
def test_long_gapped_chain_bulk_matches_toeplitz(table, L):
    try:
        T = build_T(table[0], L)
    except CoefficientAccuracyError:
        assume(False)
    finite = finite_gaussian_ground(table[0], 400, L)
    assert np.abs(finite.mu - block_spectrum(T).mu).max() <= 1e-10
