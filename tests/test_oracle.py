import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import assume, given, settings, strategies as st

from singlecopy import oracle
from singlecopy.errors import DegenerateGroundStateError, ModelError
from singlecopy.model import build_model
from singlecopy.toeplitz import block_spectrum, build_T, coefficient_table, table_spectrum
from singlecopy.oracle import (
    compare_oracle,
    exact_diag_ground,
    finite_gaussian_ground,
    fock_hamiltonian,
)
from test_generated_tables import anisotropic_tables, isotropic_tables

XX2 = build_model("xx", a=2)
ISING = build_model("ising")
XY = build_model("xy", a=2, gamma=0.5)
CONST = build_model("custom", A=(1,))
W2 = build_model("custom", A=(0.3, -1.0, 0.4), B=(0.35, -0.2))
DEGENERATE = {
    "xx2-n8": (XX2, 8),   # open xx(2) with n = 8 has an exact zero mode (n + 1 divisible by 3)
    # exact zero modes that a single-vector Krylov solve misses (gap > 1e-8)
    "w3-n5": (build_model("custom", A=(0.5, 0, 0, 0.5)), 5),
    "w2-n9": (build_model("custom", A=(-1, -0.5, -0.5)), 9),
    "w3b-n5": (build_model("custom", A=(1, 0, -0.5, -0.5)), 5),
}


def test_product_state_chain():
    s = finite_gaussian_ground(CONST, 4, 2)
    assert np.allclose(s.mu, 1.0)
    assert np.allclose(exact_diag_ground(CONST, 2, 1), [1.0, 0.0])


def _subset_sums(energies):
    return np.sort([
        sum(e for e, pick in zip(energies, picks) if pick)
        for picks in itertools.product((False, True), repeat=len(energies))
    ])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fock_spectrum_equals_subset_sums(n):
    # B = 0: many-body energies are all subset sums of hopping eigenvalues
    H = fock_hamiltonian(XX2, n).toarray()
    many_body = np.sort(np.linalg.eigvalsh(H))
    hop = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if abs(j - k) <= XX2.w:
                hop[j, k] = XX2.A[abs(j - k)]
    eps = np.linalg.eigvalsh(hop)
    assert np.abs(many_body - _subset_sums(eps)).max() < 1e-9
    # any B: excitation energies are the subset sums of the normal-mode
    # energies, the singular values of the coupling block X
    for model in (XX2, ISING, XY, W2):
        many_body = np.sort(np.linalg.eigvalsh(fock_hamiltonian(model, n).toarray()))
        modes = np.linalg.svd(oracle._coupling_block(model, n), compute_uv=False)
        assert np.abs(many_body - many_body[0] - _subset_sums(modes)).max() < 1e-9


def _kron_fock_hamiltonian(model, n):
    """The Jordan-Wigner operator sum of the coupling table, summed from sparse
    annihilators ``c_j = Z x ... x Z x s- x 1 x ... x 1`` (site 0 the leftmost
    factor): the reference for the bitwise ``fock_hamiltonian``."""
    string = scipy.sparse.diags([1.0, -1.0])                   # (-1)^{n_i}
    lower = scipy.sparse.csr_matrix([[0.0, 1.0], [0.0, 0.0]])  # |filled> -> |empty>
    one = scipy.sparse.identity(2)
    kron = functools.partial(scipy.sparse.kron, format="csr")
    c = [functools.reduce(kron, [string] * j + [lower] + [one] * (n - 1 - j)) for j in range(n)]
    cdag = [op.T.tocsr() for op in c]
    H = model.A[0] * sum(cdag[j] @ c[j] for j in range(n))
    for j in range(n):
        for k in range(max(0, j - model.w), min(n, j + model.w + 1)):
            d = j - k
            if d == 0:
                continue
            a = model.A[abs(d)]
            b = math.copysign(1.0, d) * model.B[abs(d) - 1]
            if a != 0.0:
                H = H + a * (cdag[j] @ c[k])
            if b != 0.0:
                H = H + b * (cdag[j] @ cdag[k] - c[j] @ c[k])
    H.eliminate_zeros()
    return H


def _assert_equals_kron_reference(model, n):
    H, ref = fock_hamiltonian(model, n), _kron_fock_hamiltonian(model, n)
    H.sort_indices()
    ref.sort_indices()
    for got, want in ((H.indptr, ref.indptr), (H.indices, ref.indices), (H.data, ref.data)):
        assert np.array_equal(got, want)    # same sparsity graph, same values to the bit


couplings = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@st.composite
def coupling_tables(draw):
    w = draw(st.integers(0, 3))
    A = draw(st.lists(couplings, min_size=w + 1, max_size=w + 1))
    B = draw(st.lists(couplings, min_size=w, max_size=w))
    assume(any(A + B))                  # a table whose couplings all vanish is refused
    return build_model("custom", A=A, B=B)


@settings(max_examples=60, deadline=None)
@given(coupling_tables(), st.integers(1, 8))
def test_fock_hamiltonian_equals_kron_reference(model, n):
    _assert_equals_kron_reference(model, n)


@pytest.mark.parametrize("model", [XX2, ISING, XY, W2], ids=["xx2", "ising", "xy", "w2"])
def test_fock_hamiltonian_equals_kron_reference_at_12_sites(model):
    _assert_equals_kron_reference(model, 12)


def _chain_quadratic_form(model, n):
    """The Majorana quadratic form of the open chain, filled pair by pair from the
    coupling table: the real skew-symmetric ``h`` of ``H = (i/4) m^T h m`` in the
    interleaved layout ``(m_1, m_2, ..., m_{2n})``, the reference for
    ``_coupling_block``."""
    h = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for k in range(max(0, j - model.w), min(n, j + model.w + 1)):
            d = j - k
            a = model.A[abs(d)]
            b = math.copysign(1.0, d) * model.B[abs(d) - 1] if d != 0 else 0.0
            # a_j^dag A a_k and B (a_j^dag a_k^dag - a_j a_k) in Majorana form
            h[2 * j, 2 * k + 1] = -a + 2.0 * b
            h[2 * j + 1, 2 * k] = a + 2.0 * b
    return h


def _majorana_covariance(model, n):
    """(ground covariance, gap) from the 2n x 2n form: the polar factor of ``h`` on
    its kept modes, skewed again since its two factors round independently."""
    U, s, Vt = scipy.linalg.svd(_chain_quadratic_form(model, n))
    keep = s > oracle._ZERO_MODE_TOL * s.max()
    gamma = U[:, keep] @ Vt[keep]
    return 0.5 * (gamma - gamma.T), float(s.min())


def _majorana_block_mu(gamma, L):
    """``mu`` of the centered L-site block: every second singular value of its square."""
    o = (gamma.shape[0] // 2 - L) // 2
    sub = gamma[2 * o:2 * (o + L), 2 * o:2 * (o + L)]
    return np.clip(np.linalg.svd(sub, compute_uv=False)[0::2], 0.0, 1.0)


def _assert_matches_majorana_form(model, n, Ls):
    X = oracle._coupling_block(model, n)
    h = np.zeros((2 * n, 2 * n))
    h[0::2, 1::2], h[1::2, 0::2] = X, -X.T      # [[0, X], [-X^T, 0]] in (even, odd) order
    assert np.array_equal(h, _chain_quadratic_form(model, n))
    # a polar factor rounds by about eps |X| / (its smallest kept s), so the bound is
    # 1e-12 unless that s is below 2e-4 |X|, as for a split boundary pair
    s = np.linalg.svd(X, compute_uv=False)
    kept = s[s > oracle._ZERO_MODE_TOL * s.max()]
    tol = max(1e-12, np.finfo(float).eps * s[0] / kept[-1]) if kept.size else 1e-12
    gamma, ref_gap = _majorana_covariance(model, n)
    for L in Ls:
        spectrum, gap = oracle._gaussian_block(model, n, L)
        assert np.abs(spectrum.mu - _majorana_block_mu(gamma, L)).max() <= tol
        assert abs(gap - ref_gap) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(coupling_tables(), st.integers(1, 60), st.data())
def test_coupling_block_is_the_majorana_form(model, n, data):
    _assert_matches_majorana_form(model, n, [data.draw(st.integers(1, n)), n])


@pytest.mark.parametrize("model", [XX2, ISING, XY], ids=["xx2", "ising", "xy"])
def test_coupling_block_is_the_majorana_form_at_400_sites(model):
    _assert_matches_majorana_form(model, 400, (1, 8, 64))


def test_ground_vector_has_single_occupation_sector():
    # number-conserving model: the gapped ground vector lives in one N sector
    n = 7
    H = fock_hamiltonian(XX2, n).toarray()
    evals, evecs = np.linalg.eigh(H)
    assert evals[1] - evals[0] > 1e-8
    psi = evecs[:, 0]
    occ = np.array([bin(s).count("1") for s in range(1 << n)])
    norms = [float((psi[occ == N] ** 2).sum()) for N in range(n + 1)]
    assert max(norms) == pytest.approx(1.0, abs=1e-9)


# n = 12 is the exact-diagonalization limit; the benchmark's oracle block is L = 6
@pytest.mark.parametrize("model,n,Ls", [
    (XX2, 10, range(1, 11)), (ISING, 9, range(1, 10)), (XY, 8, range(1, 9)),
    (XX2, 12, (3, 6)), (ISING, 12, (4, 6)),
], ids=["xx2", "ising", "xy", "xx2-n12", "ising-n12"])
def test_gaussian_matches_exact_diagonalization(model, n, Ls):
    evals_gap = None
    for L in Ls:
        cmp = compare_oracle(model, n, L, "gaussian-vs-ed")
        assert cmp.gap > 1e-6
        assert cmp.max_abs_diff < 1e-8
        assert not cmp.defect
        evals_gap = cmp.gap
    assert evals_gap is not None


def _bit_reversal(n):
    """Each Fock state with its n bits reversed: the chain's reflection j <-> n-1-j."""
    return np.array([int(format(s, f"0{n}b")[::-1], 2) for s in range(1 << n)])


def _assert_block_solve_matches_full_dense_solve(model, n):
    # the per-half solve against one dense solve of the whole Fock space
    H = fock_hamiltonian(model, n)
    r = _bit_reversal(n)
    assert (H[r][:, r] != H).nnz == 0          # the reflection commutes with H exactly
    ref_evals, ref_evecs = scipy.linalg.eigh(H.toarray(), subset_by_index=[0, 1])
    refused = ref_evals[1] - ref_evals[0] <= oracle._ED_GAP_TOL
    if refused:
        with pytest.raises(DegenerateGroundStateError):
            oracle._ed_ground(model, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_ED_GAP_TOL", -np.inf)     # read the levels of refused chains too
        evals, psi = oracle._ed_ground(model, n)
    assert evals.shape == (2,) and psi.shape == (1 << n,)
    assert np.abs(evals - ref_evals).max() <= 1e-12
    if not refused:
        for L in range(1, n + 1):
            ref = oracle._reduced_spectrum(ref_evecs[:, 0], n, L)
            assert np.abs(oracle._reduced_spectrum(psi, n, L) - ref).max() <= 1e-12


@pytest.mark.parametrize("model,components", [
    (XX2, lambda n: n + 1),       # particle-number sectors
    (ISING, lambda n: 2),         # fermion-parity sectors
    (XY, lambda n: 2),
    (W2, lambda n: 2),
    (CONST, lambda n: 1 << n),    # w = 0: every Fock state is its own block
    # next-nearest hopping keeps the number on each sublattice, and for even n
    # the reflection swaps the sublattices, so it maps a block onto another
    (build_model("custom", A=(0.3, 0, 1)), lambda n: (n // 2 + 1) * ((n + 1) // 2 + 1)),
    *((m, None) for m, _ in DEGENERATE.values()),
], ids=["xx2", "ising", "xy", "w2", "const", "sublattices", *DEGENERATE.keys()])
def test_block_solve_matches_full_dense_solve(model, components):
    for n in range(1, 9):
        if components is not None:
            H = fock_hamiltonian(model, n)
            assert scipy.sparse.csgraph.connected_components(H, directed=False)[0] == components(n)
        _assert_block_solve_matches_full_dense_solve(model, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(anisotropic_tables(), isotropic_tables()), st.integers(1, 9))
def test_block_solve_matches_full_dense_solve_on_generated_tables(table, n):
    _assert_block_solve_matches_full_dense_solve(table[0], n)


def _stand_in(monkeypatch, H):
    # _ed_ground looks fock_hamiltonian up at call time, so any symmetric
    # sparse 2^n x 2^n matrix can stand in for the Fock-space Hamiltonian
    monkeypatch.setattr(oracle, "fock_hamiltonian", lambda model, n: scipy.sparse.csr_matrix(H))


def _two_site_halves(even, odd):
    """The 4 x 4 stand-in with the 3 x 3 ``even`` on ``(e_0, (e_1 + e_2)/sqrt 2, e_3)``
    and the 1 x 1 ``odd`` on ``(e_1 - e_2)/sqrt 2``; at n = 2 the reflection swaps
    the Fock states 1 = |01> and 2 = |10>."""
    h = math.sqrt(0.5)
    E = np.array([[1.0, 0, 0], [0, h, 0], [0, h, 0], [0, 0, 1.0]])
    O = np.array([[0.0], [h], [-h], [0.0]])
    return E @ np.asarray(even) @ E.T + O @ np.asarray(odd) @ O.T


def test_block_solve_keeps_two_levels_of_one_block(monkeypatch):
    # a quadratic Hamiltonian's first excitation flips the parity, so its two
    # lowest levels never share a half; these stand-ins put them in one
    H = _two_site_halves([[0.0, 0.1, 0.5], [0.1, 3.0, 0.0], [0.5, 0.0, 0.0]], [[2.0]])
    _stand_in(monkeypatch, H)
    evals, psi = oracle._ed_ground(XX2, 2)
    ref = np.linalg.eigvalsh(H)
    assert ref[1] < 2.0                             # both levels below the odd half's
    assert np.abs(evals - ref[:2]).max() <= 1e-14
    assert np.abs(H @ psi - evals[0] * psi).max() <= 1e-14 and np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.array_equal(psi[[0, 2, 1, 3]], psi)   # an even vector
    _stand_in(monkeypatch, _two_site_halves(np.ones((3, 3)) - np.eye(3), [[5.0]]))
    with pytest.raises(DegenerateGroundStateError):   # eigenvalues 2, -1, -1 in one half
        oracle._ed_ground(XX2, 2)


@pytest.mark.parametrize("diag,ground", [
    ((3.0, 0.0, 0.5, 1.0), 1),                      # energies 0 and 0.5, which the reflection swaps
    ((0.0, 2.0, np.nextafter(2.0, 3.0), 1.0), 0),   # one ulp between the swapped ones
], ids=["swapped", "one-ulp"])
def test_stand_in_that_breaks_the_reflection_is_solved(monkeypatch, diag, ground):
    # the reflection swaps |01> and |10>, of different energies: P^T H P links an even
    # vector to an odd one, and the merged block is solved, not refused
    H = np.diag(diag)
    _stand_in(monkeypatch, H)
    evals, psi = oracle._ed_ground(XX2, 2)
    assert np.abs(evals - np.linalg.eigvalsh(H)[:2]).max() <= 1e-14
    assert np.abs(np.abs(psi) - np.eye(4)[ground]).max() <= 1e-15


@pytest.mark.parametrize("model,count,sizes", [
    (XX2, 24, (1, 472)),          # the halves of the 13 number sectors
    (ISING, 4, (992, 1056)),      # the halves of the 2 parity sectors
    # next-nearest hopping keeps the number on each sublattice, finer than any number sector
    (build_model("custom", A=(0.3, 0, 1)), 54, (1, 300)),
], ids=["xx2", "ising", "sublattices"])
def test_blocks_at_twelve_sites_are_the_halves_of_the_symmetry_sectors(monkeypatch, model, count, sizes):
    # a rounding residue of P^T H P between an even and an odd vector would merge two halves
    shapes = []
    eigh = scipy.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recorded)
    oracle._ed_ground(model, 12)
    assert len(shapes) == count and sum(shapes) == 1 << 12
    assert (min(shapes), max(shapes)) == sizes


def test_cross_sector_degeneracy_is_refused():
    # the zero mode of open xx(2) at n = 8 makes the lowest states of the
    # N and N + 1 sectors degenerate, so the two lowest levels lie in
    # different blocks and the refusal must compare across them
    n = 8
    H = fock_hamiltonian(XX2, n).toarray()
    occ = np.array([bin(s).count("1") for s in range(1 << n)])
    lows = np.sort([np.linalg.eigvalsh(H[np.ix_(occ == N, occ == N)])[0] for N in range(n + 1)])
    assert lows[1] - lows[0] < 1e-12
    with pytest.raises(DegenerateGroundStateError):
        exact_diag_ground(XX2, n, n // 2)


def test_purity_at_full_block():
    for model, n in ((XX2, 10), (ISING, 8)):
        s = finite_gaussian_ground(model, n, n)
        assert s.mu.min() > 1.0 - 1e-10
        assert exact_diag_ground(model, n, n)[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("model,n", DEGENERATE.values(), ids=DEGENERATE.keys())
def test_degenerate_chain_is_refused(model, n):
    L = n // 2
    with pytest.raises(DegenerateGroundStateError):
        exact_diag_ground(model, n, L)
    assert compare_oracle(model, n, L, "gaussian-vs-thermodynamic").gap < 1e-10


def test_zero_mode_cut_is_relative_to_the_largest_mode():
    # a scaled chain has the same ground state; at s = 1e-9 the smallest
    # normal mode, 1.8e-11, lies below the former absolute cut of 1e-10
    mu = [finite_gaussian_ground(build_model("custom", A=(-s, s)), 100, 8).mu for s in (1.0, 1e-9)]
    assert np.abs(mu[0] - mu[1]).max() <= 1e-10


def test_thermodynamic_convergence():
    # same residue class mod 3 keeps the finite-size gap open and the
    # boundary oscillation in phase
    diffs = []
    for n in (100, 202, 400):
        cmp = compare_oracle(XX2, n, 8, "gaussian-vs-thermodynamic")
        diffs.append(cmp.max_abs_diff)
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 2e-2


@pytest.mark.parametrize("L", [8, 16])
def test_critical_ising_chain_approaches_the_toeplitz_block_like_one_over_n(L):
    # critical: no gap keeps the boundary away, so the bulk block converges
    # algebraically; the distance halves per doubling of n (measured 2.007 and
    # 2.003 at L = 8, 2.02 and 2.01 at L = 16)
    thermo = table_spectrum(coefficient_table(ISING, L), L).mu
    diffs = [np.abs(finite_gaussian_ground(ISING, n, L).mu - thermo).max() for n in (100, 200, 400)]
    for coarse, fine in itertools.pairwise(diffs):
        assert 1.9 <= coarse / fine <= 2.1


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


def test_ed_past_12_sites_is_refused_before_the_gaussian_route(monkeypatch):
    # n = 4000 would first take an SVD of a 4000 x 4000 coupling block
    def computed(*args, **kwargs):
        raise AssertionError("the Gaussian route ran before the ED size check")

    monkeypatch.setattr(oracle, "finite_gaussian_ground", computed)
    with pytest.raises(ModelError, match="n <= 12"):
        compare_oracle(XX2, 4000, 4)
