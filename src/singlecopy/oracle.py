"""First-principles validation of the Toeplitz pipeline.

Two independent routes to the reduced state of a centered block in a finite
open chain:

* ``finite_gaussian_ground`` takes the exact finite-n ground covariance as
  the orthogonal polar factor of the n x n coupling block ``X`` of the
  Majorana quadratic form ``[[0, X], [-X^T, 0]]``, from one SVD; zero modes
  are left at half filling, and the normal-mode gap, which
  ``compare_oracle`` reports, is then 0 to rounding.
* ``exact_diag_ground`` builds the sparse 2^n x 2^n Jordan-Wigner operator
  sum of the coupling table element by element from the occupation bits of
  the Fock states, takes it to the even and odd basis of the chain's
  reflection, solves each connected block of the result densely for its two
  lowest states, and reduces the ground vector directly; it
  refuses degenerate ground states.

Open boundaries keep the fermionic picture exact (no boundary strings or
parity corrections); blocks are centered to suppress edge effects, and the
bulk of a long open chain converges to the translation-invariant Toeplitz
data, which ``compare_oracle`` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entangle import leading_eigenvalues
from .errors import DecompositionError, DegenerateGroundStateError, ModelError, size
from .model import ModelSpec, _laurent
from .toeplitz import (MAX_L, BlockSpectrum, coefficient_table, spectrum_from_singular_values,
                       table_spectrum)

_ZERO_MODE_TOL = 1e-10
_ORTHO_TOL = 1e-8
_ED_GAP_TOL = 1e-8


def _coupling_block(model: ModelSpec, n: int) -> np.ndarray:
    """The n x n block ``X[j, k] = -c_{j-k}`` of the open chain's Majorana form.

    ``c_j`` are the Laurent coefficients of :func:`~singlecopy.model._laurent`,
    cut at the chain's edges.  With the Majoranas in (even, odd) order, the
    real skew-symmetric ``h`` of ``H = (i/4) m^T h m`` is ``[[0, X], [-X^T, 0]]``
    (Lieb, Schultz & Mattis 1961).
    """
    n = size(n, "chain length n", math.inf)
    d = np.subtract.outer(np.arange(n), np.arange(n))     # j - k
    c = _laurent(model)
    return np.where(np.abs(d) <= model.w, -c[np.clip(d, -model.w, model.w) + model.w], 0.0)


def _block_offset(n: int, L: int) -> int:
    return (n - L) // 2


def _gaussian_block(model: ModelSpec, n: int, L: int):
    """(block spectrum, normal-mode gap) of the centered L-site block.

    With ``X = U diag(s) V^T``, the ground covariance is ``[[0, P], [-P^T, 0]]``
    with the polar factor ``P = U V^T`` restricted to the modes with
    ``s > _ZERO_MODE_TOL * max(s)``; the others (zero modes) get covariance 0,
    i.e. half filling.  The cut is relative, so a scaled chain, which has the
    same ground state, gets the same spectrum.  The block's ``mu`` are the
    singular values of the centered L x L square of ``P`` (Peschel 2003).
    The singular values of ``X`` are the normal-mode energies, and the gap is
    the smallest, 0 to rounding when there are zero modes.
    """
    if not (1 <= size(L, "block length L") <= n <= MAX_L):
        raise ModelError(f"need 1 <= L <= n <= {MAX_L}")
    U, s, Vt = np.linalg.svd(_coupling_block(model, n))
    zero = s <= _ZERO_MODE_TOL * s.max()
    U[:, zero] = 0.0
    Vt[zero] = 0.0
    P = U @ Vt
    if max(np.abs(P @ P.T - U @ U.T).max(), np.abs(P.T @ P - Vt.T @ Vt).max()) > _ORTHO_TOL:
        raise DecompositionError("polar factor is not orthogonal on the kept modes")
    o = _block_offset(n, L)
    mu = np.linalg.svd(P[o:o + L, o:o + L], compute_uv=False)
    return spectrum_from_singular_values(mu), float(s.min())


def finite_gaussian_ground(model: ModelSpec, n: int, L: int) -> BlockSpectrum:
    """Block spectrum of the centered L-site block of the finite ground state."""
    return _gaussian_block(model, n, L)[0]


def fock_hamiltonian(model: ModelSpec, n: int):
    """Sparse (CSR) 2^n x 2^n Hamiltonian in the occupation-number basis.

    The Jordan-Wigner operator sum ``A_0 sum_j c_j^dag c_j + sum_{j != k}
    a c_j^dag c_k + b (c_j^dag c_k^dag - c_j c_k)`` over the coupling table,
    with ``a = A_|j-k|`` and ``b = sign(j-k) B_|j-k|``; it does not go
    through ``_coupling_block``.  Every element is read from the bits of
    the Fock states, site 0 the most significant bit (so a centered block is a
    contiguous tensor factor): the diagonal is ``A_0`` times the occupation
    number, and a pair ``j < k = j + d`` flips both bits, with ``A_d`` when
    exactly one of them is filled (hopping) and ``-2 B_d`` when both or
    neither are (pairing, both orders of the pair), times the Jordan-Wigner sign
    ``(-1)^(occupied sites between j and k)``.
    """
    if not 1 <= size(n, "chain length n") <= 12:
        raise ModelError("exact diagonalization limited to n <= 12")
    import scipy.sparse
    s = np.arange(1 << n)
    occ = np.zeros_like(s)                      # occupation number (popcount) of each state
    for i in range(n):
        occ += (s >> i) & 1
    rows, cols, vals = [s], [s], [model.A[0] * occ]
    for d in range(1, min(model.w, n - 1) + 1):
        hop, pair = model.A[d], -2.0 * model.B[d - 1]
        for j in range(n - d):
            flip = (1 << (n - 1 - j)) | (1 << (n - 1 - j - d))
            between = (s >> (n - j - d)) & ((1 << (d - 1)) - 1)
            value = np.where(occ[s & flip] == 1, hop, pair) * (1 - 2 * (occ[between] & 1))
            keep = np.flatnonzero(value)        # the source states with an element
            rows.append(keep ^ flip)
            cols.append(keep)
            vals.append(value[keep])
    H = scipy.sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                                shape=(s.size, s.size))
    H.eliminate_zeros()                 # its sparsity graph links only coupled states
    if abs(H - H.T).max() > 1e-12 * max(1.0, abs(H).max()):
        raise DecompositionError("Fock-space Hamiltonian failed the symmetry check")
    return H


def _ed_ground(model: ModelSpec, n: int):
    """(two lowest eigenvalues, ground vector) of the Fock-space Hamiltonian.

    ``H`` is taken to the basis ``P`` of the chain's reflection ``R`` (site j <->
    n-1-j, the bit reversal of a Fock state): ``(e_s +- e_Rs)/sqrt 2`` for
    ``s < Rs`` and ``e_s`` for ``s = Rs``.  The blocks are the connected
    components of the sparsity graph of ``Q = P^T H P``: the even and odd halves
    of the number or parity sectors (or finer), since ``R`` commutes with ``H``,
    ``a + b`` rounds as ``b + a`` and the sparse product stores no exact zero.
    Each is solved densely for its two lowest states, which resolves a
    degenerate ground level within one block or across two; a single-vector
    Krylov solve can miss it.  Refuses numerically degenerate ground states: an
    arbitrary vector of a degenerate space need not match the Gaussian convention.
    """
    import scipy.linalg
    import scipy.sparse
    import scipy.sparse.csgraph
    H = fock_hamiltonian(model, n)
    s = np.arange(H.shape[0])
    r = np.zeros_like(s)                        # the bit reversal of each state
    for i in range(n):
        r |= ((s >> i) & 1) << (n - 1 - i)
    pairs = s[s < r]
    first = np.r_[pairs, s[s == r], pairs]      # the lowest Fock state of each basis vector
    sign = np.r_[np.ones(pairs.size), np.zeros(s.size - 2 * pairs.size), -np.ones(pairs.size)]
    # the orthogonal P of the basis; a palindrome's second element, 0, adds to its first, 1
    P = scipy.sparse.csc_matrix((np.r_[np.where(sign, math.sqrt(0.5), 1.0), sign * math.sqrt(0.5)],
                                 (np.r_[first, r[first]], np.r_[s, s])))
    Q = (P.T @ H @ P).tocsr()
    _, labels = scipy.sparse.csgraph.connected_components(Q, directed=False)
    order = np.argsort(labels, kind="stable")
    P, Q = P[:, order], Q[order][:, order]
    levels = []                                 # (energy, the block's columns of P, vector)
    for cols in np.split(s, np.flatnonzero(np.diff(labels[order])) + 1):
        block = slice(cols[0], cols[-1] + 1)
        vals, vecs = scipy.linalg.eigh(Q[block, block].toarray(), subset_by_index=[0, min(2, cols.size) - 1])
        levels += [(e, block, v) for e, v in zip(vals, vecs.T)]
    (e0, block, v), (e1, _, _) = sorted(levels, key=lambda level: level[0])[:2]
    gap = float(e1 - e0)
    if gap <= _ED_GAP_TOL:
        raise DegenerateGroundStateError(
            f"degenerate ground state (many-body gap {gap:.3e})"
        )
    return np.array([e0, e1]), P[:, block] @ v


def _reduced_spectrum(psi: np.ndarray, n: int, L: int) -> np.ndarray:
    o = _block_offset(n, L)
    blocks = psi.reshape(1 << o, 1 << L, 1 << (n - o - L))
    rho = np.einsum("abc,adc->bd", blocks, blocks)
    vals = np.linalg.eigvalsh(rho)[::-1]
    return np.clip(vals, 0.0, None)


def exact_diag_ground(model: ModelSpec, n: int, L: int) -> np.ndarray:
    """Sorted reduced-state spectrum of the centered block from exact diagonalization."""
    if not (1 <= size(L, "block length L") <= n):
        raise ModelError("need 1 <= L <= n")
    _, psi = _ed_ground(model, n)
    return _reduced_spectrum(psi, n, L)


@dataclass(frozen=True)
class OracleComparison:
    """Spectral distance between two routes to the same reduced state.

    ``spectra`` holds the two top-64 spectra (each route's full spectrum is
    normalized before truncation); ``defect`` marks a mismatch that cannot
    be blamed on a small gap.
    """

    n: int
    L: int
    gap: float
    max_abs_diff: float
    spectra: tuple[np.ndarray, np.ndarray]
    method_pair: str
    defect: bool


_TOP = 64
ORACLE_PAIRS = ("gaussian-vs-ed", "gaussian-vs-thermodynamic")   # the first is the default


def _top64(values: np.ndarray) -> np.ndarray:
    out = np.zeros(_TOP)
    take = min(_TOP, values.size)
    out[:take] = values[:take]
    return out


def compare_oracle(model: ModelSpec, n: int, L: int,
                   method_pair: str = "gaussian-vs-ed") -> OracleComparison:
    """Run one pair of :data:`ORACLE_PAIRS` on one block and report its spectral distance."""
    if method_pair == "gaussian-vs-ed":
        evals, psi = _ed_ground(model, n)      # first: it refuses n > 12 before an SVD of size n
        gauss = finite_gaussian_ground(model, n, L)
        gap = float(evals[1] - evals[0])
        b = _top64(_reduced_spectrum(psi, n, L))
    elif method_pair == "gaussian-vs-thermodynamic":
        gauss, gap = _gaussian_block(model, n, L)
        b = _top64(leading_eigenvalues(table_spectrum(coefficient_table(model, L), L).mu, _TOP))
    else:
        raise ModelError(f"unknown method pair {method_pair!r}")
    a = _top64(leading_eigenvalues(gauss.mu, _TOP))
    diff = float(np.abs(a - b).max())
    defect = method_pair == "gaussian-vs-ed" and diff > 1e-6 and gap > 1e-6
    return OracleComparison(n, L, gap, diff, (a, b), method_pair, defect)
