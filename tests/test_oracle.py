import itertools

import numpy as np
import pytest

from singlecopy.errors import DegenerateGroundStateError, ModelError
from singlecopy.model import build_model
from singlecopy.toeplitz import block_spectrum, build_T
from singlecopy.oracle import (
    chain_quadratic_form,
    compare_oracle,
    exact_diag_ground,
    finite_gaussian_ground,
    fock_hamiltonian,
)

XX2 = build_model("xx", a=2)
ISING = build_model("ising")
XY = build_model("xy", a=2, gamma=0.5)
CONST = build_model("custom", A=(1,))
W2 = build_model("custom", A=(0.3, -1.0, 0.4), B=(0.35, -0.2))


def test_quadratic_form_is_skew():
    for model in (XX2, ISING, XY):
        h = chain_quadratic_form(model, 7)
        assert np.array_equal(h, -h.T)


def test_product_state_chain():
    s = finite_gaussian_ground(CONST, 4, 2)
    assert np.allclose(s.mu, 1.0)
    assert not s.degenerate
    assert np.allclose(exact_diag_ground(CONST, 2, 1), [1.0, 0.0])


def _subset_sums(energies):
    return np.sort([
        sum(e for e, pick in zip(energies, picks) if pick)
        for picks in itertools.product((False, True), repeat=len(energies))
    ])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fock_spectrum_equals_subset_sums(n):
    # B = 0: many-body energies are all subset sums of hopping eigenvalues
    H = fock_hamiltonian(XX2, n)
    many_body = np.sort(np.linalg.eigvalsh(H))
    hop = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if abs(j - k) <= XX2.w:
                hop[j, k] = XX2.A[abs(j - k)]
    eps = np.linalg.eigvalsh(hop)
    assert np.abs(many_body - _subset_sums(eps)).max() < 1e-9
    # any B: excitation energies are the subset sums of the normal-mode
    # energies, the singular values of the quadratic form (each twice)
    for model in (XX2, ISING, XY, W2):
        many_body = np.sort(np.linalg.eigvalsh(fock_hamiltonian(model, n)))
        modes = np.linalg.svd(chain_quadratic_form(model, n), compute_uv=False)[0::2]
        assert np.abs(many_body - many_body[0] - _subset_sums(modes)).max() < 1e-9


def test_ground_vector_has_single_occupation_sector():
    # number-conserving model: the gapped ground vector lives in one N sector
    n = 7
    H = fock_hamiltonian(XX2, n)
    evals, evecs = np.linalg.eigh(H)
    assert evals[1] - evals[0] > 1e-8
    psi = evecs[:, 0]
    occ = np.array([bin(s).count("1") for s in range(1 << n)])
    norms = [float((psi[occ == N] ** 2).sum()) for N in range(n + 1)]
    assert max(norms) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("model,n", [(XX2, 10), (ISING, 9), (XY, 8)],
                         ids=["xx2", "ising", "xy"])
def test_gaussian_matches_exact_diagonalization(model, n):
    evals_gap = None
    for L in range(1, n + 1):
        cmp = compare_oracle(model, n, L, "gaussian-vs-ed")
        assert cmp.gap > 1e-6
        assert cmp.max_abs_diff < 1e-8
        assert not cmp.defect
        evals_gap = cmp.gap
    assert evals_gap is not None


def test_purity_at_full_block():
    for model, n in ((XX2, 10), (ISING, 8)):
        s = finite_gaussian_ground(model, n, n)
        assert s.mu.min() > 1.0 - 1e-10
        assert exact_diag_ground(model, n, n)[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model,n", [
    (XX2, 8),     # open xx(2) with n = 8 has an exact zero mode (n + 1 divisible by 3)
    # exact zero modes that a single-vector Krylov solve misses (gap > 1e-8)
    (build_model("custom", A=(0.5, 0, 0, 0.5)), 5),
    (build_model("custom", A=(-1, -0.5, -0.5)), 9),
    (build_model("custom", A=(1, 0, -0.5, -0.5)), 5),
], ids=["xx2-n8", "w3-n5", "w2-n9", "w3b-n5"])
def test_degenerate_chain_is_refused(model, n):
    L = n // 2
    with pytest.raises(DegenerateGroundStateError):
        exact_diag_ground(model, n, L)
    s = finite_gaussian_ground(model, n, L)
    assert s.degenerate
    assert compare_oracle(model, n, L, "gaussian-vs-thermodynamic").gap < 1e-10


def test_thermodynamic_convergence():
    # same residue class mod 3 keeps the finite-size gap open and the
    # boundary oscillation in phase
    diffs = []
    for n in (100, 202, 400):
        cmp = compare_oracle(XX2, n, 8, "gaussian-vs-thermodynamic")
        diffs.append(cmp.max_abs_diff)
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 2e-2


def test_gapped_chain_bulk_is_converged_by_n_200():
    # the open xy(2, 0.5) chain carries an exponentially split boundary pair,
    # so its normal-mode minimum is ~0; the centered bulk block is unaffected
    # and fully converged
    a = finite_gaussian_ground(XY, 200, 8)
    b = finite_gaussian_ground(XY, 400, 8)
    assert np.abs(a.mu - b.mu).max() < 1e-6
    thermo = block_spectrum(build_T(XY, 8))
    assert np.abs(a.mu - thermo.mu).max() < 1e-6


def test_comparison_spectra_are_normalized():
    cmp = compare_oracle(XX2, 10, 5, "gaussian-vs-ed")
    for spectrum in cmp.spectra:
        assert np.all(spectrum >= 0.0)
        assert spectrum.sum() == pytest.approx(1.0, abs=1e-9)  # 2^5 <= 64 entries


def test_input_validation():
    with pytest.raises(ModelError):
        finite_gaussian_ground(XX2, 4, 5)
    with pytest.raises(ModelError):
        exact_diag_ground(XX2, 13, 2)
    with pytest.raises(ModelError):
        compare_oracle(XX2, 10, 5, "nonsense")
