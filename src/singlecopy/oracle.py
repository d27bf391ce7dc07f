"""First-principles validation of the Toeplitz pipeline.

Two independent routes to the reduced state of a centered block in a finite
open chain:

* ``finite_gaussian_ground`` takes the exact finite-n ground covariance as
  the orthogonal polar factor of the 2n x 2n Majorana quadratic form, from
  one SVD; zero modes are left at half filling and mark the state
  degenerate.
* ``exact_diag_ground`` builds the dense 2^n x 2^n Hamiltonian in the
  occupation basis with fermionic sign bookkeeping and reduces the ground
  vector directly; it refuses degenerate ground states.

Open boundaries keep the fermionic picture exact (no boundary strings or
parity corrections); blocks are centered to suppress edge effects, and the
bulk of a long open chain converges to the translation-invariant Toeplitz
data, which ``compare_oracle`` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .entangle import leading_eigenvalues
from .errors import DecompositionError, DegenerateGroundStateError, ModelError
from .model import ModelSpec
from .toeplitz import BlockSpectrum, block_spectrum, build_T, spectrum_from_singular_values

_ZERO_MODE_TOL = 1e-10
_ORTHO_TOL = 1e-8
_ED_GAP_TOL = 1e-8


def chain_quadratic_form(model: ModelSpec, n: int) -> np.ndarray:
    """Majorana quadratic form of the open chain (couplings cut at the edge).

    The real skew-symmetric ``h`` of ``H = (i/4) m^T h m`` in the
    interleaved Majorana layout ``(m_1, m_2, ..., m_{2n})``.
    """
    if n < 1:
        raise ModelError("chain length n must be >= 1")
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


def _block_offset(n: int, L: int) -> int:
    return (n - L) // 2


def _gaussian_block(model: ModelSpec, n: int, L: int):
    """(block spectrum, normal-mode gap) of the centered L-site block.

    With ``h = U diag(s) V^T``, the ground covariance is the polar factor
    ``U V^T`` restricted to the modes with ``s >= _ZERO_MODE_TOL``; the
    others (zero modes) get covariance 0, i.e. half filling, and mark the
    spectrum degenerate.  The singular values of ``h`` are the normal-mode
    energies, each twice, and the gap is the smallest.
    """
    if not (1 <= L <= n <= 4096):
        raise ModelError("need 1 <= L <= n <= 4096")
    U, s, Vt = scipy.linalg.svd(chain_quadratic_form(model, n))
    keep = s >= _ZERO_MODE_TOL
    gamma = U[:, keep] @ Vt[keep]
    gamma = 0.5 * (gamma - gamma.T)     # the two factors round independently
    if np.abs(gamma @ gamma.T - U[:, keep] @ U[:, keep].T).max() > _ORTHO_TOL:
        raise DecompositionError("polar factor is not orthogonal on the kept modes")
    o = _block_offset(n, L)
    sub = gamma[2 * o:2 * (o + L), 2 * o:2 * (o + L)]
    mu = np.linalg.svd(sub, compute_uv=False)[0::2]   # each mu appears twice
    gap = float(s.min())
    return spectrum_from_singular_values(mu, degenerate=gap < _ZERO_MODE_TOL), gap


def finite_gaussian_ground(model: ModelSpec, n: int, L: int) -> BlockSpectrum:
    """Block spectrum of the centered L-site block of the finite ground state."""
    return _gaussian_block(model, n, L)[0]


def _occupations(n: int):
    states = np.arange(1 << n)
    bits = (n - 1) - np.arange(n)                      # site i lives at bit n-1-i
    occ = (states[:, None] >> bits[None, :]) & 1
    prefix = np.concatenate(
        [np.zeros((states.size, 1), dtype=np.int64), np.cumsum(occ, axis=1)], axis=1
    )
    return states, occ.astype(np.int64), prefix


def fock_hamiltonian(model: ModelSpec, n: int) -> np.ndarray:
    """Dense 2^n x 2^n Hamiltonian in the occupation-number basis.

    Site ordering puts earlier sites on more significant bits, so a centered
    contiguous block is a contiguous tensor factor; operator signs follow
    the usual ordering of fermionic modes along the chain.
    """
    if n < 1 or n > 12:
        raise ModelError("exact diagonalization limited to n <= 12")
    states, occ, prefix = _occupations(n)
    dim = states.size
    H = np.zeros((dim, dim))
    H[states, states] += model.A[0] * occ.sum(axis=1)

    for j in range(n):
        for k in range(n):
            d = j - k
            if d == 0 or abs(d) > model.w:
                continue
            a = model.A[abs(d)]
            b = math.copysign(1.0, d) * model.B[abs(d) - 1]
            bit_j = 1 << (n - 1 - j)
            bit_k = 1 << (n - 1 - k)
            if a != 0.0:
                # a_j^dag a_k on states with site k filled, site j empty
                mask = (occ[:, k] == 1) & (occ[:, j] == 0)
                src = states[mask]
                sign = (-1.0) ** (prefix[mask, k] + prefix[mask, j] - (k < j))
                H[src ^ bit_k | bit_j, src] += a * sign
            if b != 0.0:
                # b * a_j^dag a_k^dag on doubly empty pairs
                mask = (occ[:, j] == 0) & (occ[:, k] == 0)
                src = states[mask]
                sign = (-1.0) ** (prefix[mask, k] + prefix[mask, j] + (k < j))
                H[src | bit_k | bit_j, src] += b * sign
                # -b * a_j a_k on doubly filled pairs
                mask = (occ[:, j] == 1) & (occ[:, k] == 1)
                src = states[mask]
                sign = (-1.0) ** (prefix[mask, k] + prefix[mask, j] - (k < j))
                H[src ^ bit_k ^ bit_j, src] -= b * sign

    if np.abs(H - H.T).max() > 1e-12 * max(1.0, np.abs(H).max()):
        raise DecompositionError("Fock-space Hamiltonian failed the symmetry check")
    return H


def _ed_ground(model: ModelSpec, n: int):
    """(eigenvalues, ground vector) of the dense Fock-space Hamiltonian.

    Refuses numerically degenerate ground states: comparing an arbitrary
    vector from a degenerate space against the Gaussian convention would
    produce spurious mismatches.
    """
    evals, evecs = np.linalg.eigh(fock_hamiltonian(model, n))
    gap = float(evals[1] - evals[0])
    if gap <= _ED_GAP_TOL:
        raise DegenerateGroundStateError(
            f"degenerate ground state (many-body gap {gap:.3e})"
        )
    return evals, evecs[:, 0]


def _reduced_spectrum(psi: np.ndarray, n: int, L: int) -> np.ndarray:
    o = _block_offset(n, L)
    blocks = psi.reshape(1 << o, 1 << L, 1 << (n - o - L))
    rho = np.einsum("abc,adc->bd", blocks, blocks)
    vals = np.linalg.eigvalsh(rho)[::-1]
    return np.clip(vals, 0.0, None)


def exact_diag_ground(model: ModelSpec, n: int, L: int) -> np.ndarray:
    """Sorted reduced-state spectrum of the centered block from exact diagonalization."""
    if not (1 <= L <= n):
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


def _top64(values: np.ndarray) -> np.ndarray:
    out = np.zeros(_TOP)
    take = min(_TOP, values.size)
    out[:take] = values[:take]
    return out


def compare_oracle(model: ModelSpec, n: int, L: int,
                   method_pair: str = "gaussian-vs-ed") -> OracleComparison:
    """Run two methods for the same block and report their spectral distance."""
    if method_pair == "gaussian-vs-ed":
        gauss = finite_gaussian_ground(model, n, L)
        evals, psi = _ed_ground(model, n)
        gap = float(evals[1] - evals[0])
        b = _top64(_reduced_spectrum(psi, n, L))
    elif method_pair == "gaussian-vs-thermodynamic":
        gauss, gap = _gaussian_block(model, n, L)
        b = _top64(leading_eigenvalues(block_spectrum(build_T(model, L)).mu, _TOP))
    else:
        raise ModelError(f"unknown method pair {method_pair!r}")
    a = _top64(leading_eigenvalues(gauss.mu, _TOP))
    diff = float(np.abs(a - b).max())
    defect = method_pair == "gaussian-vs-ed" and diff > 1e-6 and gap > 1e-6
    return OracleComparison(n, L, gap, diff, (a, b), method_pair, defect)
