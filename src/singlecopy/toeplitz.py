"""Symbol Fourier coefficients, Toeplitz blocks, and their singular spectra.

The coefficients ``t_l = (1/2pi) int_0^{2pi} g(k) exp(-i l k) dk`` fill the
L x L block ``T[i, j] = t_{j-i}``.  They are exact sums over the arcs
between zeros when the symbol is a step times a phase ``e^{i nu k}``: every
isotropic symbol, and every symbol whose ``z^w lam(z)`` has all its roots on
``|z| = 1`` or at 0, such as critical ising; any other symbol takes adaptive
quadrature, whose tolerance the closed form does not read.  Both read the
zeros and the step-phase certificate from the symbol profile of
:func:`~singlecopy.model.classify_criticality` and find no roots themselves.
The block's singular values ``mu_1 >= ... >= mu_L`` drive every entanglement
quantity, so they are aggregated here once, in the log domain.  An isotropic
block is symmetric and centrosymmetric, and its singular values are the
absolute eigenvalues of two half-size symmetric blocks; any other block takes
a dense SVD.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import xlogy

from .errors import CoefficientAccuracyError, DecompositionError, ModelError
from .model import (TWO_PI, ModelSpec, SymbolProfile, _laurent, classify_criticality,
                    dispersion, symbol_eval)

LN2 = math.log(2.0)

#: Largest block length of a report, scan or sector decomposition, and
#: largest chain of the finite Gaussian oracle.
MAX_L = 4096

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_NODE_BUDGET = 1 << 16    # max symbol evaluations per coefficient
_OSC_PER_PANEL = 6.0      # oscillations of exp(-ilk) served by one 64-node panel
_EPS = np.finfo(float).eps
_STEP_ULPS = 64           # closed form: lam at arc midpoints off the step pattern
_RESIDUE_TOL = 1e-12      # closed form: largest imaginary part of a t_l


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


def _panel_set(model, lo, hi, n_panels):
    """Nodes k and weighted symbol w*g(k) of composite 64-node Gauss-Legendre panels."""
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    k = (mid + half * _GL_X[None, :]).ravel()
    wts = (half * _GL_W[None, :]).ravel()
    g = symbol_eval(model, k)
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

    used = 0
    total_plus = 0.0 + 0.0j
    total_minus = 0.0 + 0.0j
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

    t_plus = total_plus / TWO_PI
    t_minus = total_minus / TWO_PI
    residue = max(abs(t_plus.imag), abs(t_minus.imag))
    if residue > abs_tol:
        raise CoefficientAccuracyError(
            f"coefficient accuracy: t_{l} kept an imaginary residue", achieved=residue
        )
    return float(t_plus.real), float(t_minus.real)


def _quadrature_range(model, ls, abs_tol, cuts):
    """``_fourier_pair`` for consecutive ``l``, sharing one panel dict."""
    panels = {}
    return [_fourier_pair(model, l, abs_tol, cuts, panels) for l in ls]


def coefficient_table(model: ModelSpec, L: int, abs_tol: float = 1e-12,
                      profile: SymbolProfile | None = None) -> ToeplitzCoeffs:
    """Tabulate ``t_l`` for ``|l| < L``: the exact closed form for a symbol
    certified a step times a phase (every isotropic symbol, and every symbol
    whose ``z^w lam(z)`` has all its roots on the unit circle or at 0: the
    profile's ``step_phase``), which ignores ``abs_tol``; otherwise adaptive
    quadrature to ``abs_tol``, split at the symbol's zeros, which computes
    each panel set's weighted symbol once for all the coefficients that use it.

    The quadrature table runs on every CPU in the process's affinity set, one
    thread per contiguous range of ``l``, and has no setting: each ``t_l``
    comes from the same operations as in a serial run, so the table has the
    same bits, and a refusal names the lowest failing ``l``.

    The table for the largest block length of a scan is reused for every
    smaller block, since Toeplitz blocks nest.
    """
    if L < 1:
        raise ModelError("block length L must be >= 1")
    if not 0.0 < abs_tol < math.inf:
        raise ModelError("abs_tol must be positive and finite")
    if profile is None:
        profile = classify_criticality(model)
    if profile.step_phase is not None:
        t = _closed_form(model, profile, L)
        method = "closed_form"
    else:
        cuts = sorted(set(profile.fermi_points) | set(profile.marginal_points))
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
    if overshoot > 1e-12:
        raise CoefficientAccuracyError(
            "coefficient accuracy: |t_l| exceeds 1", achieved=overshoot
        )
    return ToeplitzCoeffs(L, t, method)


def _resolve_table(model, L, abs_tol, table):
    if table is None:
        return coefficient_table(model, L, abs_tol)
    if table.L < L:
        raise ModelError(f"coefficient table covers L={table.L} < requested {L}")
    return table


def build_T(model: ModelSpec, L: int, abs_tol: float = 1e-12,
            table: ToeplitzCoeffs | None = None) -> np.ndarray:
    """The L x L Toeplitz block ``T[i, j] = t_{j-i}``.

    Symmetric exactly when the model is isotropic.
    """
    if L < 1:
        raise ModelError("block length L must be >= 1")
    table = _resolve_table(model, L, abs_tol, table)
    idx = table.L - 1
    col = table.t[idx::-1][:L]           # t_0, t_{-1}, ..., t_{-(L-1)}
    row = table.t[idx:idx + L]           # t_0, t_1, ..., t_{L-1}
    return scipy.linalg.toeplitz(col, row)


@dataclass(frozen=True)
class BlockSpectrum:
    """Singular values of one block plus log-domain aggregates.

    ``ln_alpha1``  : sum of ln((1+mu)/2); log of the top reduced eigenvalue.
    ``ln_absdet_T``: sum of ln(mu); -inf once any mu underflows below 1e-300.
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


def spectrum_from_singular_values(values) -> BlockSpectrum:
    """Aggregate raw singular values into a :class:`BlockSpectrum`."""
    mu = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    if mu.size == 0:
        raise ModelError("empty singular value array")
    overshoot = float(mu[0]) - 1.0
    if overshoot > 1e-8:
        raise ModelError(
            f"model violates |T| <= 1: singular value overshoot {overshoot:.3e}"
        )
    mu = np.clip(mu, 0.0, 1.0)
    ln_alpha1 = float(np.sum(np.log1p((mu - 1.0) / 2.0)))
    if float(mu[-1]) < 1e-300:
        ln_absdet = float("-inf")
    else:
        ln_absdet = float(np.sum(np.log(mu)))
    p = (1.0 + mu) / 2.0
    q = (1.0 - mu) / 2.0
    entropy_bits = float(-(xlogy(p, p) + xlogy(q, q)).sum() / LN2)
    rms_term_bits = float(-0.5 * np.sum(np.log1p((mu * mu - 1.0) / 2.0)) / LN2)
    return BlockSpectrum(
        L=int(mu.size),
        mu=mu,
        ln_alpha1=min(ln_alpha1, 0.0),
        ln_absdet_T=ln_absdet,
        entropy_bits=max(entropy_bits, 0.0) + 0.0,
        rms_term_bits=rms_term_bits + 0.0,
    )


def block_spectrum(T) -> BlockSpectrum:
    """Singular values of a block with log-domain aggregates.

    A block that is exactly symmetric and centrosymmetric (``JTJ = T`` with
    ``J`` the exchange matrix), as every isotropic block is, splits into the
    half-size symmetric blocks ``T11 +- T12 J``, where ``T11`` and ``T12``
    are its top-left and top-right ``L // 2`` square quarters; for odd L the
    ``+`` block is bordered by ``sqrt(2)`` times the middle column and the
    centre entry.  Their absolute eigenvalues are the singular values.  Any
    other block takes a dense SVD.
    """
    A = np.asarray(T, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ModelError("block must be a square matrix")
    if not np.all(np.isfinite(A)):
        raise ModelError("block entries must be finite")
    try:
        if np.array_equal(A, A.T) and np.array_equal(A, A[::-1, ::-1]):
            L, m = A.shape[0], A.shape[0] // 2
            head, cj = A[:m, :m], A[:m, L - m:][:, ::-1]
            # the middle row and column A[m:L-m] are empty for even L
            plus = np.block([[head + cj, math.sqrt(2.0) * A[:m, m:L - m]],
                             [math.sqrt(2.0) * A[m:L - m, :m], A[m:L - m, m:L - m]]])
            sv = np.abs(np.concatenate([np.linalg.eigvalsh(plus), np.linalg.eigvalsh(head - cj)]))
        else:
            sv = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"decomposition failure: {exc}") from exc
    return spectrum_from_singular_values(sv)
