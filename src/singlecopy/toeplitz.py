"""Symbol Fourier coefficients, Toeplitz blocks, and their singular spectra.

The coefficients ``t_l = (1/2pi) int_0^{2pi} g(k) exp(-i l k) dk`` fill the
L x L block ``T[i, j] = t_{j-i}``.  They are exact sums over the arcs
between zeros when the symbol is a step times a phase ``e^{i nu k}``, which
holds exactly when the couplings' Laurent coefficients are mirror-symmetric
up to sign: every isotropic symbol, and critical ising; any other symbol
takes adaptive quadrature, whose tolerance the closed form does not read.
Both read the zeros and the step-phase certificate from the symbol profile
of :func:`~singlecopy.model.classify_criticality` and find no roots
themselves.
The block's singular values ``mu_1 >= ... >= mu_L`` drive every entanglement
quantity, so they are aggregated here once, in the log domain.  They are read
from the table's coefficient window, and no L x L block is built: from L = 512
on, a certified Krylov subspace of the symmetric Hankel matrix ``TJ``, applied
by FFT, holds the O(log L) ``mu`` away from 1 and the rest are 1; other blocks
take ``eigvalsh`` of Toeplitz and Hankel views (of two half-size blocks for a
symmetric, hence centrosymmetric, window).  A non-symmetric block's ln|det T|
is LU's.  All of it runs on numpy alone, with no scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import (CoefficientAccuracyError, DecompositionError, InvalidSpectrumError,
                     ModelError, SymbolSingularError, size)
from .model import (TWO_PI, ModelSpec, SymbolProfile, _laurent, classify_criticality,
                    dispersion, symbol_eval)

LN2 = math.log(2.0)

#: Largest block length of a report, scan, sector decomposition or dense
#: spectrum, and largest chain of the finite Gaussian oracle.
MAX_L = 4096

_NODE_BUDGET = 1 << 16    # max symbol evaluations per coefficient
_OSC_PER_PANEL = 6.0      # oscillations of exp(-ilk) served by one 64-node panel
_EPS = np.finfo(float).eps
_STEP_ULPS = 64           # closed form: lam at arc midpoints off the step pattern
_RESIDUE_TOL = 1e-12      # closed form: largest imaginary part of a t_l
_KRYLOV_L = 512           # blocks this long first try the Krylov route (crossover in CHANGES.md)
_KRYLOV_BLOCK = 4         # Krylov block size: start vectors, new vectors per product
_KRYLOV_ULPS = 4          # Krylov certificate: trace of I - T T^T left over <= 4 L eps
_KRYLOV_STALL = 0.9       # an uncertified leftover above 0.9 of its value 3 blocks back: give up
_KRYLOV_SLAB = 16         # Krylov basis rows per preallocated slab


@dataclass(frozen=True)
class ToeplitzCoeffs:
    """Fourier coefficients ``t_l`` for ``l = -(L-1) .. L-1``.

    ``t[L-1+l]`` holds ``t_l``; coefficients are real thanks to the
    conjugation symmetry ``g(-k) = conj(g(k))`` of real coupling tables.
    """

    L: int
    t: np.ndarray
    method: str          # "closed_form" (step times phase, exact) | "quadrature" (to abs_tol)

    def coeff(self, l: int) -> float:
        if abs(l) >= self.L:
            raise ModelError(f"coefficient t_{l} outside tabulated range (L={self.L})")
        return float(self.t[self.L - 1 + l])


def _closed_form(model: ModelSpec, profile: SymbolProfile, L: int) -> np.ndarray:
    """Exact ``t_{-(L-1)} .. t_{L-1}`` of ``g(k) = h_i e^{i nu k}``, ``h_i``
    constant on the arc ``(c_i, c_{i+1})`` between zeros, ``nu`` the
    profile's ``step_phase``.

    ``h_i = s_i u``: the sign ``s_i`` flips at each Fermi point, and ``u`` is
    the phase on the arc of largest ``|lam|``.  By parts, ``t_l = u sum_i ds_i
    e^{-i f c_i} / (2pi i f)`` with ``f = l - nu`` and ``ds_i`` the step of
    ``s`` at ``c_i``, taken from ``s_{n-1} e^{2pi i nu}`` at the first zero
    (``g`` has period 2pi); at ``f = 0``, ``t_l = u sum_i s_i |arc_i| / 2pi``.
    Raises unless ``lam e^{-i nu k}`` at every arc midpoint is ``|lam| s_i u``
    to rounding, which catches a zero the classifier missed or mis-typed, and
    unless every ``t_l`` comes out real.
    """
    nu = profile.step_phase
    zeros = sorted(profile.fermi_points + profile.marginal_points) or [0.0]
    edges = np.array(zeros + [zeros[0] + TWO_PI])
    mid = 0.5 * (edges[:-1] + edges[1:])
    lam = dispersion(model, mid % TWO_PI) * np.exp(-1j * nu * mid)
    flips = np.where(np.isin(edges[:-1], profile.fermi_points), -1.0, 1.0)
    twist = (-1.0) ** round(2 * nu)
    s = np.cumprod(flips) * flips[0]
    a = int(np.argmax(np.abs(lam)))
    mag = abs(lam[a])     # part by part: numpy's complex division can miss -1 by an ulp
    if mag == 0.0:        # zeros the classifier missed sit on every midpoint: no phase to read
        raise CoefficientAccuracyError(
            "coefficient accuracy: the symbol vanishes at every arc midpoint", achieved=math.inf)
    u = s[a] * complex(lam[a].real / mag, lam[a].imag / mag)
    off = float(np.abs(lam - np.abs(lam) * s * u).max() / np.abs(_laurent(model)).sum())
    if not (off <= _STEP_ULPS * _EPS and np.prod(flips) * twist == 1.0):
        raise CoefficientAccuracyError(
            "coefficient accuracy: symbol signs between the zeros do not flip "
            "exactly at the Fermi points", achieved=off)
    ds = s - np.roll(s, 1) * np.where(np.arange(s.size) == 0, twist, 1.0)

    def series(f):      # (Re t, Im t) at f = l - nu
        phi, den = np.outer(f, edges[:-1]), -TWO_PI * f
        re = np.divide(np.sin(phi) @ ds, den, out=np.full(f.size, s @ np.diff(edges) / TWO_PI),
                       where=f != 0)
        im = np.divide(np.cos(phi) @ ds, den, out=np.zeros(f.size), where=f != 0)
        return u.real * re - u.imag * im, u.real * im + u.imag * re

    t_plus, im_plus = series(np.arange(L) - nu)
    t_minus, im_minus = (t_plus, im_plus) if model.isotropic else series(-np.arange(L) - nu)
    residue = float(max(np.abs(im_plus).max(), np.abs(im_minus).max()))
    if residue > _RESIDUE_TOL:
        raise CoefficientAccuracyError(
            "coefficient accuracy: closed-form t_l kept an imaginary residue", achieved=residue)
    return np.concatenate([t_minus[:0:-1], t_plus])


@cache
def _gauss_legendre():     # made on first use: numpy.polynomial takes long to import
    return np.polynomial.legendre.leggauss(64)


def _panel_set(model, lo, hi, n_panels):
    """Nodes k and weighted symbol w*g(k) of composite 64-node Gauss-Legendre panels."""
    x, w = _gauss_legendre()
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    k = (mid + half * x[None, :]).ravel()
    wts = (half * w[None, :]).ravel()
    try:
        g = symbol_eval(model, k)
    except SymbolSingularError as exc:     # lam rounds to 0 next to a zero of high order
        raise CoefficientAccuracyError(f"coefficient accuracy: quadrature node k={exc.k!r} "
                                       "lies on a zero of the symbol", achieved=math.inf) from exc
    return k, wts * g


def _fourier_pair(model, l, abs_tol, cuts, panels=None):
    """(t_l, t_{-l}) by adaptive panel quadrature split at the symbol cuts.

    ``panels``, passed again for the next ``l``, shares each panel set's weighted
    symbol among the coefficients that use it; it keeps only the sets this ``l`` used.
    """
    l = abs(int(l))
    panels = {} if panels is None else panels
    reuse = panels.copy()
    panels.clear()
    pts = sorted(cuts) or [0.0]
    intervals = list(zip(pts, pts[1:] + [pts[0] + TWO_PI]))

    used, total_plus, total_minus = 0, 0j, 0j
    for lo, hi in intervals:
        width = hi - lo
        tol_i = 0.5 * abs_tol * TWO_PI / len(intervals)   # equal share of 2*pi*abs_tol
        n = max(1, math.ceil(width * max(l, 1) / (TWO_PI * _OSC_PER_PANEL)))
        prev = None
        while True:
            key = (lo, hi, n)
            k, wg = panels[key] = reuse.get(key) or _panel_set(model, lo, hi, n)
            phase = np.exp(-1j * l * k)
            # np.multiply keeps the order wg * conj: numpy may evaluate `wg * <temporary>`
            # in place as `<temporary> * wg`, which rounds differently
            ip, im = np.sum(wg * phase), np.sum(np.multiply(wg, np.conj(phase)))
            used += k.size
            if prev is not None:
                err = max(abs(ip - prev[0]), abs(im - prev[1]))
                if err < tol_i:
                    break
                if used > _NODE_BUDGET:
                    raise CoefficientAccuracyError(
                        f"coefficient accuracy: t_{l} quadrature exhausted its node budget",
                        achieved=err / TWO_PI,
                    )
            prev = (ip, im)
            n *= 2
        total_plus += ip
        total_minus += im

    t_plus, t_minus = total_plus / TWO_PI, total_minus / TWO_PI
    residue = max(abs(t_plus.imag), abs(t_minus.imag))
    if residue > abs_tol:
        raise CoefficientAccuracyError(
            f"coefficient accuracy: t_{l} kept an imaginary residue", achieved=residue)
    return float(t_plus.real), float(t_minus.real)


def _quadrature_range(model, ls, abs_tol, cuts):
    """``_fourier_pair`` for consecutive ``l``, sharing one panel dict."""
    panels = {}
    return [_fourier_pair(model, l, abs_tol, cuts, panels) for l in ls]


def coefficient_table(model: ModelSpec, L: int, abs_tol: float = 1e-12,
                      profile: SymbolProfile | None = None) -> ToeplitzCoeffs:
    """Tabulate ``t_l`` for ``|l| < L``: the exact closed form for a symbol
    certified a step times a phase (couplings mirror-symmetric up to sign,
    every isotropic symbol among them: the profile's ``step_phase``), which
    ignores ``abs_tol``; otherwise adaptive quadrature to ``abs_tol``, split
    at the symbol's zeros, which computes each panel set's weighted symbol
    once for all the coefficients that use it.

    The quadrature table runs on every CPU in the process's affinity set, one
    thread per contiguous range of ``l``, and has no setting: each ``t_l``
    comes from the same operations as in a serial run, so the table has the
    same bits, and a refusal names the lowest failing ``l``.

    The table for the largest block length of a scan is reused for every
    smaller block, since Toeplitz blocks nest.
    """
    L = size(L, "block length L", math.inf)
    if not 0.0 < abs_tol < math.inf:
        raise ModelError("abs_tol must be positive and finite")
    if profile is None:
        profile = classify_criticality(model)
    if profile.step_phase is not None:
        t = _closed_form(model, profile, L)
        method = "closed_form"
    else:
        cuts = sorted(set(profile.fermi_points) | set(profile.marginal_points))
        from concurrent.futures import ThreadPoolExecutor   # deferred: it loads logging
        w = len(os.sched_getaffinity(0))
        # work per l grows like l, so ranges of equal work end at L sqrt(i/w)
        ends = [math.ceil(L * math.sqrt(i / w)) for i in range(w + 1)]
        with ThreadPoolExecutor(w) as pool:
            ranges = [pool.submit(_quadrature_range, model, range(lo, hi), abs_tol, cuts)
                      for lo, hi in zip(ends, ends[1:])]
            # in ascending order, so the first exception raised is the lowest l's
            t_plus, t_minus = np.array([pair for r in ranges for pair in r.result()]).T
        t = np.concatenate([t_minus[:0:-1], t_plus])
        method = "quadrature"
    overshoot = float(np.abs(t).max()) - 1.0
    if not overshoot <= 1e-12:      # NaN fails too
        raise CoefficientAccuracyError(
            "coefficient accuracy: |t_l| exceeds 1", achieved=overshoot)
    return ToeplitzCoeffs(L, t, method)


def _window(table: ToeplitzCoeffs, L: int) -> np.ndarray:
    """``t_{-(L-1)} .. t_{L-1}``, a view of the table."""
    if not 1 <= size(L, "block length L") <= table.L:
        raise ModelError(f"block length L={L} outside [1, {table.L}], the coefficient table's")
    lo = table.L - L
    return table.t[lo:lo + 2 * L - 1]


def _toeplitz(window: np.ndarray) -> np.ndarray:
    """The block ``T[i, j] = t_{j-i}`` of a coefficient window, as a read-only view of it."""
    # window r is t_{r-(L-1)} .. t_{r}; reversed, row i is t_{-i} .. t_{L-1-i}
    return np.lib.stride_tricks.sliding_window_view(window, (window.size + 1) // 2)[::-1]


def build_T(model: ModelSpec, L: int, abs_tol: float = 1e-12,
            table: ToeplitzCoeffs | None = None) -> np.ndarray:
    """The L x L Toeplitz block ``T[i, j] = t_{j-i}`` as a matrix, for the tests and
    the benchmark replay; :func:`table_spectrum` takes its spectrum without it.

    Symmetric exactly when the model is isotropic.
    """
    if table is None:
        table = coefficient_table(model, L, abs_tol)
    return _toeplitz(_window(table, L)).copy()


@dataclass(frozen=True)
class BlockSpectrum:
    """Singular values of one block plus log-domain aggregates.

    ``ln_alpha1``  : sum of ln((1+mu)/2); log of the top reduced eigenvalue.
    ``ln_absdet_T``: ln|det T|; for a symmetric block the sum of ln(mu), -inf once
    any mu underflows below 1e-300, else LU's ``slogdet``, -inf at a zero pivot.
    ``entropy_bits``: binary-entropy sum H2((1+mu)/2), the block entropy.
    ``rms_term_bits``: -(1/2) sum log2((1+mu^2)/2), the quadratic-mean term
    sitting between ``-ln alpha1`` and ``-(1/2) ln|det T|``.
    """

    L: int
    mu: np.ndarray
    ln_alpha1: float
    ln_absdet_T: float
    entropy_bits: float
    rms_term_bits: float
    method: str = "dense"     # "dense" (eigvalsh of views of the block) | "krylov" (_krylov_mu)


def _xlnx(x: np.ndarray) -> np.ndarray:
    """``x ln x`` (0 at 0) by libm's ``log`` like scipy's ``xlogy``; numpy's SIMD log can differ."""
    ln = np.zeros_like(x)
    inside = (x > 0.0) & (x != 1.0)     # log 1 = 0: a Krylov block has O(log L) mu < 1
    ln[inside] = [math.log(v) for v in x[inside].tolist()]
    return x * ln


def spectrum_from_singular_values(values) -> BlockSpectrum:
    """Aggregate raw singular values into a :class:`BlockSpectrum`.

    Values past 1 or below 0 by rounding are clipped; an overshoot above 1e-8
    breaks ``|T| <= 1``, and it, a value below -1e-8 or one that is not finite
    raises :class:`InvalidSpectrumError`, a numerical failure, since the
    values are computed.
    """
    mu = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    if mu.size == 0:
        raise ModelError("empty singular value array")
    if not np.isfinite(mu).all() or mu[-1] < -1e-8:
        raise InvalidSpectrumError("singular values must be finite and non-negative")
    overshoot = float(mu[0]) - 1.0
    if overshoot > 1e-8:
        raise InvalidSpectrumError(
            f"block violates |T| <= 1: singular value overshoot {overshoot:.3e}"
        )
    mu = np.clip(mu, 0.0, 1.0)
    ln_alpha1 = float(np.sum(np.log1p((mu - 1.0) / 2.0)))
    if float(mu[-1]) < 1e-300:
        ln_absdet = float("-inf")
    else:
        ln_absdet = float(np.sum(np.log(mu)))
    entropy_bits = float(-(_xlnx((1.0 + mu) / 2.0) + _xlnx((1.0 - mu) / 2.0)).sum() / LN2)
    rms_term_bits = float(-0.5 * np.sum(np.log1p((mu * mu - 1.0) / 2.0)) / LN2)
    return BlockSpectrum(
        L=int(mu.size),
        mu=mu,
        ln_alpha1=min(ln_alpha1, 0.0),
        ln_absdet_T=ln_absdet,
        entropy_bits=max(entropy_bits, 0.0) + 0.0,
        rms_term_bits=rms_term_bits + 0.0,
    )


def _krylov_mu(window: np.ndarray) -> np.ndarray | None:
    """Singular values of the block of ``window`` from a certified Krylov subspace, or None.

    Grows an orthonormal block Krylov basis ``B`` of ``H = TJ`` (``H^2 = T T^T``), applied
    by FFT through a circulant embedding.  Of the exact trace ``L - sum_l (L-|l|) t_l^2``
    of ``I - T T^T``, ``B`` captures ``dim B - ||HB||_F^2``; past a leftover of ``4 L eps``
    (and three more blocks) each ``mu`` outside ``B`` is set to 1.  The others are the
    singular values of ``HB``, those below ``1/sqrt 2`` refined to the Ritz values of ``H``
    on their span.  None if the trace passes ``L/4``, or if, uncertified, the basis closes,
    reaches ``L/4`` columns or stalls (a leftover above ``_KRYLOV_STALL`` of its value three
    blocks back).

    ``B`` is stored as rows, in preallocated slabs of ``_KRYLOV_SLAB``, so the FFTs run along
    the contiguous axis.  Each block is projected off ``B`` twice ("twice is enough"), one
    gemm pair per slab and pass, and its coefficients fill ``M``, which doubles when full.
    The peak holds ``B``, ``M`` and one block: ``B`` is never copied whole.
    """
    L = (window.size + 1) // 2
    total = L - math.fsum(((L - np.abs(np.arange(1 - L, L))) * window * window).tolist())
    if not total <= L // 4:          # each column captures at most 1
        return None
    from numpy import fft            # deferred: only long blocks use it
    n = 1 << (2 * L - 2).bit_length()     # >= 2L - 1: the circular product does not wrap
    w = fft.rfft(window, n)
    Q = np.linalg.qr(np.mod(np.arange(L * _KRYLOV_BLOCK, dtype=float).reshape(L, -1) ** 2
                            * 0.6180339887498949, 1.0) - 0.5)[0]     # quadratic Weyl sequence
    slabs, M, k, captured, passed, leftover = [], np.zeros((4 * _KRYLOV_SLAB,) * 2), 0, 0.0, 0, []
    while passed < 4:
        k0, k, q = k, k + Q.shape[1], Q.shape[1]
        if len(M) < k + _KRYLOV_BLOCK:
            M, full = np.zeros((2 * len(M),) * 2), M
            M[:len(full), :len(full)] = full
        if not slabs or slabs[-1][2] + q > _KRYLOV_SLAB:     # no block spans two slabs
            slabs.append([np.empty((_KRYLOV_SLAB, L)), k0, 0])    # rows, index of row 0, filled
        S, _, f = slabs[-1]
        S[f:f + q], slabs[-1][2] = Q.T, f + q
        del Q                        # its rows are in the slab
        Y = fft.irfft(fft.rfft(S[f:f + q], n) * w, n)[:, 2 * L - 2:L - 2:-1].copy()  # rows of HQ
        captured += q - float(np.vdot(Y, Y))
        leftover.append(total - captured)
        passed += leftover[-1] <= _KRYLOV_ULPS * L * _EPS
        if not passed and len(leftover) > 3 and leftover[-1] > _KRYLOV_STALL * leftover[-4]:
            return None
        for S, j, f in 2 * slabs:        # Gram-Schmidt run twice: one gemm pair per slab and pass
            C = Y @ S[:f].T
            Y -= C @ S[:f]
            M[k0:k, j:j + f] += C
        U, s, Vt = np.linalg.svd(Y.T, full_matrices=False)
        keep = s > math.sqrt(L) * _EPS   # deflation: drop directions H leaves invariant
        if not keep.any() or k + keep.sum() > L // 4:
            if not passed:
                return None
            passed = 4
        U = U[:, keep]
        for S, _, f in slabs:            # Y was twice projected: once suffices
            U -= S[:f].T @ (S[:f] @ U)
        Q, R = np.linalg.qr(U)
        M[k0:k, k:k + len(R)] = (R @ (s[keep, None] * Vt[keep])).T
        del Y, U                     # before the next product: the peak holds B and one block
    M = M[:k, :k + Q.shape[1]]       # (HB)^T [B Q]
    V, sv, _ = np.linalg.svd(M, full_matrices=False)
    low = sv < math.sqrt(0.5)
    V = V[:, low]
    sv[low] = np.abs(np.linalg.eigvalsh(V.T @ (M[:, :k] + M[:, :k].T) @ V / 2))
    return np.concatenate([sv, np.ones(L - k)])


def _window_spectrum(window: np.ndarray) -> BlockSpectrum:
    """:func:`table_spectrum` of a coefficient window ``t_{-(L-1)} .. t_{L-1}``."""
    if not np.isfinite(window).all():
        raise ModelError("coefficient window must be finite")
    T = _toeplitz(window)
    H = T[:, ::-1]                      # TJ, a Hankel view
    L, m = T.shape[0], T.shape[0] // 2
    symmetric = np.array_equal(window, window[::-1])
    if L > MAX_L and not symmetric:
        raise ModelError(f"a non-symmetric block of length L={L} past {MAX_L} needs a dense LU")

    def bordered_plus():
        plus = math.sqrt(2.0) * T[:L - m, :L - m]     # middle row and column, for odd L
        np.add(T[:m, :m], H[:m, :m], out=plus[:m, :m])
        plus[m:, m:] = T[m:L - m, m:L - m]
        return plus

    try:
        sv = _krylov_mu(window) if L >= _KRYLOV_L else None
        if sv is None and L > MAX_L:
            raise DecompositionError(f"block of length L={L} not certified, and no dense route past {MAX_L}")
        method = "dense" if sv is None else "krylov"
        if sv is None and symmetric:
            sv = np.abs(np.concatenate([np.linalg.eigvalsh(bordered_plus()),
                                        np.linalg.eigvalsh(T[:m, :m] - H[:m, :m])]))
        elif sv is None:
            sv = np.abs(np.linalg.eigvalsh(H))
        # a winding symbol's smallest mu lies below eigvalsh's absolute eps, not LU's
        ln_absdet = None if symmetric else float(np.linalg.slogdet(T)[1])
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"decomposition failure: {exc}") from exc
    spec = replace(spectrum_from_singular_values(sv), method=method)
    return spec if ln_absdet is None else replace(spec, ln_absdet_T=ln_absdet)


def table_spectrum(table: ToeplitzCoeffs, L: int) -> BlockSpectrum:
    """Singular values and log-domain aggregates of the L x L block of ``table``,
    read from the window ``t_{-(L-1)} .. t_{L-1}``.

    From ``L = 512`` on it comes from a certified Krylov subspace of ``TJ``
    (``method`` "krylov", :func:`_krylov_mu`); shorter or uncertified blocks take
    ``eigvalsh`` of matrices built as views of the window (``method`` "dense").

    A symmetric window (``t_l = t_{-l}``, every isotropic table) gives a
    centrosymmetric block (``JTJ = T``, ``J`` the exchange matrix), which splits
    into the half-size symmetric blocks ``T11 +- T12 J``, where ``T11`` and
    ``T12`` are its top-left and top-right ``L // 2`` square quarters: Toeplitz
    and Hankel views of the window.  For odd L the ``+`` block is bordered by
    ``sqrt(2)`` times the middle column and the centre entry.  Their absolute
    eigenvalues are the singular values, each half formed only when its
    ``eigvalsh`` runs.  Any other block's are those of the symmetric Hankel
    matrix ``TJ``, and its ln|det T| is LU's, both read from views, so the
    LAPACK wrappers make the only copy.  Refuses (``ModelError``) ``L < 1``,
    ``L`` past the table, a window that is not finite and, past ``MAX_L``, a
    non-symmetric window (its LU); a symmetric window past ``MAX_L`` that the
    Krylov route does not certify raises ``DecompositionError``.
    """
    return _window_spectrum(_window(table, L))


def block_spectrum(T) -> BlockSpectrum:
    """:func:`table_spectrum` of a Toeplitz block given as a matrix.

    Any matrix but a finite Toeplitz block ``T[i, j] = t_{j-i}`` raises
    :class:`ModelError`.  Row 0 and column 0 give the coefficient window.
    """
    A = np.asarray(T, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ModelError("block must be a non-empty square matrix")
    if not np.array_equal(A[1:, 1:], A[:-1, :-1]):     # NaN off row 0 and column 0 fails too
        raise ModelError("block must be Toeplitz (T[i, j] = t_{j-i}) with finite entries")
    return _window_spectrum(np.concatenate([A[::-1, 0], A[0, 1:]]))
