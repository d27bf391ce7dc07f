"""Entanglement quantities of a block reduction.

A block reduction with mode occupation amplitudes ``mu_1 .. mu_L`` has the
2^L-point eigenvalue spectrum ``{prod_l (1 +- mu_l)/2}``.  This module turns
that spectrum (or any explicit sorted probability spectrum) into:

* the deterministic single-copy yield ``E1 = log2 floor(1/alpha1)`` and its
  continuous companion ``-log2 alpha1``,
* partial-sum (majorization) feasibility checks for target dimension M,
* the probabilistic average yield ``Ep`` as a linear program over ensembles
  of maximally entangled targets, constrained by the tail-sum monotones
  ``E_l = sum_{j>=l} alpha_j``,
* particle-number sector weights and per-sector top eigenvalues for
  occupation-diagonal (isotropic) reductions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpectrumError, ModelError, SolverError
from .model import ModelSpec
from .toeplitz import LN2, MAX_L, BlockSpectrum, block_spectrum, build_T

#: Above this many bits the floor correction in E1 is below float resolution.
FLOOR_BITS_LIMIT = 52.0

#: Largest target dimension of the ``Ep`` linear program.
MAX_EP_DIMS = 1024

_SUM_TOL = 1e-9
_ORDER_TOL = 1e-12


def _validated(spectrum, total: float = 1.0) -> np.ndarray:
    vals = np.asarray(spectrum, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise InvalidSpectrumError("spectrum must be a non-empty 1-d array")
    if not np.all(np.isfinite(vals)):
        raise InvalidSpectrumError("spectrum entries must be finite")
    if np.any(vals < -_ORDER_TOL) or np.any(vals > 1.0 + _ORDER_TOL):
        raise InvalidSpectrumError("spectrum entries must lie in [0, 1]")
    if np.any(np.diff(vals) > _ORDER_TOL):
        raise InvalidSpectrumError("spectrum must be sorted non-increasingly")
    if abs(float(vals.sum()) - total) > _SUM_TOL:
        raise InvalidSpectrumError(
            f"spectrum sums to {float(vals.sum()):.12f}, expected {total}"
        )
    return np.clip(vals, 0.0, 1.0)


@dataclass(frozen=True)
class SingleCopyE1:
    """Deterministic single-copy yield derived from the top eigenvalue."""

    E1_bits: float
    e1_cont_bits: float
    M_max: int | None


def single_copy_E1(ln_alpha1: float) -> SingleCopyE1:
    """E1 = log2 floor(1/alpha1), computed stably from ln(alpha1).

    Beyond ``FLOOR_BITS_LIMIT`` bits the floor correction is unrepresentable;
    the continuous value is returned and ``M_max`` is None.  When ``1/alpha1``
    lies within rounding below an integer, ``M_max`` is that integer and
    ``e1_cont_bits`` is raised to ``log2 M_max`` if it fell an ulp short, so
    ``E1_bits <= e1_cont_bits`` always holds.
    """
    if not ln_alpha1 <= 1e-12:
        raise InvalidSpectrumError(f"ln_alpha1={ln_alpha1!r} must be <= 0")
    ln_alpha1 = min(float(ln_alpha1), 0.0)
    e1_cont = -ln_alpha1 / LN2 + 0.0
    if e1_cont > FLOOR_BITS_LIMIT:
        return SingleCopyE1(e1_cont, e1_cont, None)
    inv = math.exp(-ln_alpha1)
    m = math.floor(inv)
    if (m + 1) - inv <= 8.0 * math.ulp(inv):
        m += 1  # inv sits within rounding of the next integer
        e1_cont = max(e1_cont, math.log2(m))
    return SingleCopyE1(math.log2(m), e1_cont, m)


def nielsen_transformable(spectrum, M: int) -> bool:
    """Partial-sum criterion for deterministic conversion to an M x M target.

    True iff ``sum_{k<=K} alpha_k <= K/M`` for every ``1 <= K <= M`` (the
    spectrum is padded with zeros when shorter than M).
    """
    if M < 1:
        raise InvalidSpectrumError("target dimension M must be >= 1")
    vals = _validated(spectrum)
    partial = np.cumsum(vals[:M])
    if partial.size < M:
        partial = np.concatenate([partial, np.full(M - partial.size, partial[-1])])
    bound = np.arange(1, M + 1, dtype=float) / M
    return bool(np.all(partial <= bound + 1e-12))


@dataclass(frozen=True)
class EpResult:
    """Optimal probabilistic yield and an optimal target ensemble."""

    Ep_bits: float
    ensemble: tuple[tuple[int, float], ...]
    truncated: bool = False


def _verify_lp_optimum(c, A_ub, b_ub, res, tol=1e-8):
    y = res.ineqlin.marginals          # <= 0 for A_ub x <= b_ub
    z = float(res.eqlin.marginals[0])
    if np.any(y > tol):
        raise SolverError("dual infeasibility: inequality marginal has wrong sign")
    reduced = c - A_ub.T @ y - z
    if np.any(reduced < -tol):
        raise SolverError("dual infeasibility: negative reduced cost")
    gap = abs(float(res.fun) - (float(b_ub @ y) + z))
    if gap > tol * (1.0 + abs(float(res.fun))):
        raise SolverError(f"duality gap {gap:.3e} exceeds tolerance")


def probabilistic_Ep(spectrum, M_max: int = MAX_EP_DIMS, tail_weight: float = 0.0) -> EpResult:
    """Maximal average yield over probabilistic conversions.

    Solves ``max sum_M p_M log2 M`` over ``p >= 0, sum p = 1`` subject to the
    tail-sum monotone conditions, for every l >= 2::

        sum_M p_M max(0, (M - l + 1) / M)  <=  sum_{j>=l} alpha_j

    ``tail_weight`` is the aggregated weight of eigenvalues past the supplied
    top of the spectrum; it is added to every right-hand side (exact for the
    listed tail positions) while targets are capped at the listed length.
    HiGHS runs at its default feasibility tolerance (1e-7 per row), so the
    optimum may break a tail-sum row by that much and overstate the
    truncated program's value by about as much (6e-8 bits for ising at
    L=256 with 1024 dims). Optimality is verified through the dual solution.
    """
    if not 1 <= M_max <= MAX_EP_DIMS:
        raise InvalidSpectrumError(f"M_max must be in [1, {MAX_EP_DIMS}]")
    if tail_weight < -1e-12:
        raise InvalidSpectrumError("tail_weight must be non-negative")
    tail_weight = max(float(tail_weight), 0.0)
    vals = _validated(spectrum, total=1.0 - tail_weight)
    d = vals.size
    cap = min(M_max, d)
    if cap == 1:
        return EpResult(0.0, ((1, 1.0),), tail_weight > 0.0)

    suffix = np.concatenate([np.cumsum(vals[::-1])[::-1], [0.0]])
    b_ub = suffix[1:cap] + tail_weight                  # E_l for l = 2 .. cap
    Ms = np.arange(1, cap + 1, dtype=float)
    ls = np.arange(2, cap + 1, dtype=float)
    A_ub = np.maximum(0.0, (Ms[None, :] - ls[:, None] + 1.0) / Ms[None, :])
    c = -np.log2(Ms)

    from scipy.optimize import linprog   # deferred: it adds about 0.15 s to the package import
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=np.ones((1, cap)), b_eq=[1.0],
                  bounds=(0.0, None), method="highs")
    if not res.success:
        raise SolverError(f"linear program failed: {res.message}")
    _verify_lp_optimum(c, A_ub, b_ub, res)
    ensemble = tuple(
        (int(m), float(p)) for m, p in zip(Ms, res.x) if p > 1e-12
    )
    return EpResult(float(-res.fun), ensemble, tail_weight > 0.0)


def leading_eigenvalues(mu, r: int) -> np.ndarray:
    """Largest ``r`` eigenvalues of ``{prod (1 +- mu)/2}``, non-increasing.

    Best-first expansion over occupation flips: flipping mode ``l`` away from
    its favoured occupation divides the eigenvalue by ``(1+mu_l)/(1-mu_l)``,
    so the k-th eigenvalue is the k-th smallest subset sum of those log
    ratios.  Never materializes the 2^L spectrum.
    """
    mu = np.clip(np.asarray(mu, dtype=float), 0.0, 1.0)
    L = mu.size
    if r < 1:
        raise InvalidSpectrumError("need r >= 1 eigenvalues")
    ln_top = float(np.sum(np.log1p((mu - 1.0) / 2.0)))
    with np.errstate(divide="ignore"):
        cost = np.log1p(mu) - np.log1p(-mu)
    cost = np.sort(cost[np.isfinite(cost)])
    m = cost.size
    want = r if L >= 63 else min(r, 2 ** L)

    sums = [0.0]
    heap = [(float(cost[0]), 0)] if m else []
    while len(sums) < want and heap:
        s, i = heapq.heappop(heap)
        sums.append(s)
        if i + 1 < m:
            heapq.heappush(heap, (s + float(cost[i + 1]), i + 1))
            heapq.heappush(heap, (s - float(cost[i]) + float(cost[i + 1]), i + 1))
    vals = np.exp(ln_top - np.asarray(sums))
    if vals.size < want:
        vals = np.concatenate([vals, np.zeros(want - vals.size)])
    return vals


@dataclass(frozen=True)
class SectorWeight:
    """Weight and top eigenvalue of one particle-number sector."""

    N: int
    weight: float
    max_eigenvalue: float


def sector_decompose(mu, convention: str = "plus") -> tuple[SectorWeight, ...]:
    """Particle-number decomposition of an occupation-diagonal reduction.

    ``convention`` fixes the per-mode occupation probability: ``"plus"``
    means ``nu = (1+mu)/2``, ``"minus"`` means ``nu = (1-mu)/2`` (the labels
    N and L-N swap between the two, weights are preserved as multisets).
    Sector weights come from the iterated binary convolution (Poisson
    binomial recurrence, O(L^2)); the top eigenvalue of sector N occupies
    the N modes of largest odds ``nu/(1-nu)``.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise InvalidSpectrumError("mu must be a non-empty 1-d array")
    L = mu.size
    if L > MAX_L:
        raise ModelError(f"sector decomposition limited to L <= {MAX_L}")
    if convention == "plus":
        nu = (1.0 + mu) / 2.0
    elif convention == "minus":
        nu = (1.0 - mu) / 2.0
    else:
        raise InvalidSpectrumError(f"unknown occupation convention {convention!r}")
    if np.any(nu < -1e-12) or np.any(nu > 1.0 + 1e-12):
        raise InvalidSpectrumError("occupation probabilities outside [0, 1]")
    nu = np.clip(nu, 0.0, 1.0)

    weights = np.zeros(L + 1)
    weights[0] = 1.0
    for p in nu:
        nxt = weights * (1.0 - p)
        nxt[1:] += weights[:-1] * p
        weights = nxt

    s = np.sort(nu)[::-1]                       # odds nu/(1-nu) is monotone in nu
    with np.errstate(divide="ignore"):
        ln_occ = np.log(s)
        ln_emp = np.log(1.0 - s)
    pre = np.concatenate([[0.0], np.cumsum(ln_occ)])
    suf = np.concatenate([np.cumsum(ln_emp[::-1])[::-1], [0.0]])
    with np.errstate(invalid="ignore"):
        max_eig = np.exp(pre + suf)
    max_eig = np.nan_to_num(max_eig, nan=0.0)

    return tuple(
        SectorWeight(N, float(weights[N]), float(max_eig[N])) for N in range(L + 1)
    )


@dataclass(frozen=True)
class EntanglementReport:
    """All entanglement quantities for one (model, L) pair."""

    model: ModelSpec
    L: int
    alpha1: float
    E1_bits: float
    e1_cont_bits: float
    entropy_bits: float
    Ep_bits: float | None = None
    sectors: tuple[SectorWeight, ...] | None = None
    diagnostics: dict = field(default_factory=dict)


def report_from_spectrum(model: ModelSpec, spec: BlockSpectrum, *,
                         with_Ep: bool = False, with_sectors: bool = False,
                         Ep_dims: int = 256) -> EntanglementReport:
    """Assemble a report from an existing block spectrum."""
    sc = single_copy_E1(ln_alpha1=spec.ln_alpha1)
    diagnostics = {
        "ln_absdet_T": spec.ln_absdet_T,
        "rms_term_bits": spec.rms_term_bits,
    }
    ep_bits = None
    if with_Ep:
        vals = leading_eigenvalues(spec.mu, Ep_dims)
        tail = max(0.0, 1.0 - float(vals.sum()))
        truncated = spec.L >= 63 or 2 ** spec.L > vals.size
        ep = probabilistic_Ep(vals, M_max=Ep_dims, tail_weight=tail)
        ep_bits = ep.Ep_bits
        diagnostics["Ep_truncated"] = bool(truncated or ep.truncated)
    sectors = None
    if with_sectors and model.isotropic:
        sectors = sector_decompose(spec.mu, "plus")
    return EntanglementReport(
        model=model,
        L=spec.L,
        alpha1=math.exp(spec.ln_alpha1),
        E1_bits=sc.E1_bits,
        e1_cont_bits=sc.e1_cont_bits,
        entropy_bits=spec.entropy_bits,
        Ep_bits=ep_bits,
        sectors=sectors,
        diagnostics=diagnostics,
    )


def report(model: ModelSpec, L: int, *, with_Ep: bool = False,
           with_sectors: bool = False, Ep_dims: int = 256) -> EntanglementReport:
    """Full pipeline model -> T_L -> mu -> entanglement report.

    Sectors are computed only for isotropic models (the reduction must be
    occupation-diagonal); ``with_sectors`` is ignored otherwise.
    """
    if not 1 <= L <= MAX_L:
        raise ModelError(f"block length L must be in [1, {MAX_L}]")
    spec = block_spectrum(build_T(model, L))
    return report_from_spectrum(model, spec, with_Ep=with_Ep,
                                with_sectors=with_sectors, Ep_dims=Ep_dims)
