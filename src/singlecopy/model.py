"""Finite-range quadratic chain models and their momentum-space symbol.

A chain is specified by symmetric couplings ``A_0 .. A_w`` (with
``A_{-j} = A_j`` implied) and antisymmetric couplings ``B_1 .. B_w``
(``B_{-j} = -B_j``, ``B_0 = 0``).  The dispersion

    lam(k) = A_0 + 2 * sum_j A_j cos(j k) - 4i * sum_j B_j sin(j k)

defines the unimodular symbol ``g(k) = lam(k) / |lam(k)|``.  Zeros of the
dispersion make ``g`` jump; the chain is classified as critical exactly
when such jumps exist (Fermi points).  Tangential zeros (even
multiplicity), where the one-sided limits of ``g`` coincide, are reported
as marginal instead.  This module is the one symbol analysis: one root pass
over ``z^w lam(z)`` finds the zeros and polishes each with one Newton step,
and the mirror symmetry of the couplings certifies whether ``g`` is a step
times a phase, the form the coefficient layer tabulates in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SymbolSingularError

TWO_PI = 2.0 * math.pi

#: Threshold below which the symbol is treated as singular (undefined).
SINGULAR_FLOOR = 1e-300

_ZERO_REL = 1e-8       # polished |lam| below this (times scale) counts as a zero
_CIRCLE_TOL = 1e-6     # max distance of a zero's root cluster from |z| = 1
_EPS = np.finfo(float).eps
_MIRROR_ULPS = 16      # step phase: mirrored couplings off by at most this many eps


@dataclass(frozen=True)
class ModelSpec:
    """Couplings of a translationally invariant quadratic chain.

    Parameters
    ----------
    label : str
        Preset tag: ``xx``, ``xy``, ``ising`` or ``custom``.
    w : int
        Coupling range; couplings beyond ``w`` vanish.
    A : tuple of float
        Symmetric couplings ``A_0 .. A_w``.
    B : tuple of float
        Antisymmetric couplings ``B_1 .. B_w`` (empty for ``w = 0``).
    a, gamma : float, optional
        Preset parameters, kept for reporting when applicable.
    """

    label: str
    w: int
    A: tuple[float, ...]
    B: tuple[float, ...]
    a: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.w < 0:
            raise ModelError("coupling range w must be non-negative")
        if len(self.A) != self.w + 1 or len(self.B) != self.w:
            raise ModelError(
                f"need w+1 symmetric and w antisymmetric couplings, got "
                f"|A|={len(self.A)}, |B|={len(self.B)} for w={self.w}"
            )
        entries = np.asarray(self.A + self.B, dtype=float)
        if not np.all(np.isfinite(entries)):
            raise ModelError("couplings must be finite")
        if not np.any(entries != 0.0):
            raise ModelError("all couplings vanish")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(_laurent(self)).sum()):
                raise ModelError("the Laurent coefficients A_j -+ 2 B_j or their sum overflow")

    @property
    def isotropic(self) -> bool:
        """True when every antisymmetric coupling vanishes."""
        return all(b == 0.0 for b in self.B)


@dataclass(frozen=True)
class SymbolProfile:
    """Zeros of the dispersion on [0, 2pi), sorted.

    A Fermi point (odd multiplicity) flips the sign of the symbol, a jump
    with exponent ``beta = 1/2``; a marginal point (even multiplicity) is
    tangential and leaves the symbol continuous.  The model is critical
    exactly when it has Fermi points.  ``step_phase`` is the ``nu`` of a
    symbol certified ``h_i e^{i nu k}`` with ``h_i`` constant between the
    zeros, or None when it is not certified of that form.
    """

    fermi_points: tuple[float, ...]
    marginal_points: tuple[float, ...] = ()
    step_phase: float | None = None

    @property
    def critical(self) -> bool:
        return bool(self.fermi_points)

    def beta_sq_sum(self) -> float:
        """Sum of squared jump exponents (determinant-decay prediction)."""
        return 0.25 * len(self.fermi_points)


def _xy_couplings(a: float, gamma: float):
    return (-1.0, a / 2.0), (-gamma * a / 4.0 + 0.0,)


def _require_param(name, value):
    if value is None:
        raise ModelError(f"preset requires parameter {name!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ModelError(f"parameter {name!r} must be finite")
    return value


def build_model(kind: str = "custom", *, a=None, gamma=None, A=None, B=None) -> ModelSpec:
    """Construct a validated :class:`ModelSpec`.

    Presets expand as ``xy(a, gamma) -> w=1, A=(-1, a/2), B=(-gamma*a/4,)``,
    ``xx(a) = xy(a, 0)`` and ``ising = xy(1, 1)``.  ``custom`` takes explicit
    coupling arrays (``B`` defaults to zeros of the right length).
    """
    if kind == "ising":
        if (a is not None and float(a) != 1.0) or (gamma is not None and float(gamma) != 1.0):
            raise ModelError("the ising preset fixes a=1, gamma=1")
        Ac, Bc = _xy_couplings(1.0, 1.0)
        return ModelSpec("ising", 1, Ac, Bc, 1.0, 1.0)
    if kind == "xx":
        av = _require_param("a", a)
        if gamma is not None and float(gamma) != 0.0:
            raise ModelError("the xx preset fixes gamma=0")
        Ac, Bc = _xy_couplings(av, 0.0)
        return ModelSpec("xx", 1, Ac, Bc, av, 0.0)
    if kind == "xy":
        av = _require_param("a", a)
        gv = _require_param("gamma", gamma)
        Ac, Bc = _xy_couplings(av, gv)
        return ModelSpec("xy", 1, Ac, Bc, av, gv)
    if kind == "custom":
        if A is None:
            raise ModelError("custom model needs the symmetric coupling array A")
        At = tuple(float(x) for x in np.atleast_1d(np.asarray(A, dtype=float)))
        w = len(At) - 1
        if B is None:
            Bt = (0.0,) * w
        else:
            Bt = tuple(float(x) for x in np.atleast_1d(np.asarray(B, dtype=float))) if np.size(B) else ()
        return ModelSpec("custom", w, At, Bt)
    raise ModelError(f"unknown model kind {kind!r}")


def _laurent(model: ModelSpec) -> np.ndarray:
    """Coefficients ``c_{-w} .. c_w`` of ``lam = sum_j c_j z^j`` on ``z = e^{ik}``.

    ``c_{+-j} = A_j -+ 2 B_j``, so ``z^w lam(z)`` is a real polynomial of
    degree at most ``2w`` whose ascending coefficients are this array.
    """
    A = np.asarray(model.A)
    B = np.asarray((0.0,) + model.B)
    return np.concatenate([(A + 2.0 * B)[:0:-1], A - 2.0 * B])


def _support(model: ModelSpec):
    """:func:`_laurent` with the index range ``m..d`` of its support.

    End coefficients at or below ``eps * sum |c_j|`` are dropped: they move
    ``lam`` by less than its own rounding, and a subnormal leading one would
    make the companion matrix of the roots infinite.
    """
    c = _laurent(model)
    m, d = np.flatnonzero(np.abs(c) > _EPS * np.abs(c).sum())[[0, -1]]
    return c, m, d


def dispersion(model: ModelSpec, k):
    """Evaluate ``lam(k)``; accepts scalars or arrays, returns complex.

    Each Laurent pair ``c_j e^{ijk} + c_{-j} e^{-ijk}`` of :func:`_laurent`
    is written in the couplings, ``2 A_j cos(jk) - 4i B_j sin(jk)``, which
    skips the rounding of ``c_{+-j} = A_j -+ 2 B_j`` and keeps an isotropic
    ``lam`` exactly real.
    """
    karr = np.asarray(k, dtype=float)
    out = np.full(karr.shape, model.A[0], dtype=complex)
    for j in range(1, model.w + 1):
        out += 2.0 * model.A[j] * np.cos(j * karr)
        out += 1j * (-4.0 * model.B[j - 1]) * np.sin(j * karr)
    return complex(out) if karr.ndim == 0 else out


def symbol_eval(model: ModelSpec, k):
    """Unimodular symbol ``g(k) = lam(k)/|lam(k)|``.

    Raises
    ------
    SymbolSingularError
        If ``|lam(k)|`` falls below :data:`SINGULAR_FLOOR` anywhere in ``k``
        (the caller must treat that angle as a candidate Fermi point).
    """
    lam = dispersion(model, k)
    mag = np.abs(lam)
    if np.any(mag < SINGULAR_FLOOR):
        flat_k = np.atleast_1d(np.asarray(k, dtype=float))
        raise SymbolSingularError(float(flat_k[int(np.argmin(np.atleast_1d(mag)))]))
    return lam / mag


def _root_clusters(p: np.ndarray):
    """Group the roots of the polynomial ``p`` into Newton-polished
    ``(centre, multiplicity)``.

    Rounding splits an m-fold root into m roots about ``eps^(1/m)`` apart,
    while the root of ``p^(m-1)`` near their mean stays accurate.  Starting
    from the first ungrouped root, its m nearest ungrouped roots form one
    m-fold root when they are also the m roots nearest that centre (one
    Newton step on ``p^(m-1)`` from their mean), and the Taylor terms of
    ``p`` of order below m vanish there to the rounding bound of Horner's
    rule (``2 deg eps`` times the same terms of ``|p|``); the largest such m
    wins.  Zeros whose separating values of ``p`` stay below that bound
    cannot be told apart and merge.  A simple root takes the same step on
    ``p`` itself, and keeps its unpolished value if the step would leave it
    nearer another root.
    """
    roots = np.roots(p)
    abs_p = np.abs(p)
    tol = 2 * (p.size - 1) * np.finfo(float).eps
    clusters = []
    left = np.arange(roots.size)
    while left.size:
        order = left[np.argsort(np.abs(roots[left] - roots[left[0]]))]
        for m in range(left.size, 0, -1):
            centre = roots[order[:m]].mean()
            d = np.polyder(p, m - 1)
            slope = np.polyval(np.polyder(d), centre)
            if slope == 0:
                continue
            step = centre - np.polyval(d, centre) / slope
            nearest = np.argsort(np.abs(roots - step))[:m]
            if set(nearest) == set(order[:m]) and (m == 1 or all(
                    abs(np.polyval(np.polyder(p, j), step))
                    <= tol * np.polyval(np.polyder(abs_p, j), abs(step)) for j in range(m))):
                centre = step
                break
        # a simple root whose step is refused leaves the loop unpolished, m = 1
        clusters.append((complex(centre), m))
        left = order[m:]
    return clusters


def circle_zeros(model: ModelSpec) -> list[tuple[float, int]]:
    """Zeros of the dispersion on [0, 2pi) as ``(angle, multiplicity)``.

    The zeros are the unit-circle roots of ``z^w lam(z)`` on the support of
    :func:`_support`, grouped into multiple roots and Newton-polished once by
    :func:`_root_clusters`.  A group whose centre lies within 1e-6 of
    ``|z| = 1`` gives a zero at the centre's angle, kept when ``|lam|`` there
    falls below 1e-8 of the coefficient scale.
    """
    c, lo, hi = _support(model)
    scale = float(np.abs(c).sum())
    zeros = []
    for centre, m in _root_clusters(c[lo:hi + 1][::-1]):
        if abs(abs(centre) - 1.0) >= _CIRCLE_TOL:
            continue
        k0 = cmath.phase(centre) % TWO_PI % TWO_PI   # the second % maps a tiny negative angle's 2pi to 0
        if abs(dispersion(model, k0)) < _ZERO_REL * scale:
            zeros.append((k0, m))
    return zeros


def _step_phase(model: ModelSpec):
    """``nu`` of a symbol ``g(k) = h_i e^{i nu k}`` with ``h_i`` constant
    between zeros, or None when ``g`` is not of that form.

    For real couplings that holds exactly when the coefficients of
    :func:`_laurent`, trimmed to the support ``c_m .. c_d`` of
    :func:`_support`, are symmetric or antisymmetric about their centre
    ``nu = (m + d)/2 - w`` to 16 eps of the coefficient scale: the pairs
    ``c_j, c_{2 nu - j} = +-c_j`` make ``lam e^{-i nu k}`` real or imaginary.  Isotropic tables are symmetric
    with ``nu = 0``; in roots, every root of ``z^w lam`` off ``|z| = 1`` and
    0 comes with its mirror ``1/conj(z)``.
    """
    c, m, d = _support(model)
    q = c[m:d + 1]
    mirror = np.sign(q[0]) * np.sign(q[-1]) * q[::-1]
    if np.abs(q - mirror).max() > _MIRROR_ULPS * _EPS * np.abs(c).sum():
        return None
    return float((m + d) / 2 - model.w)


def classify_criticality(model: ModelSpec) -> SymbolProfile:
    """Locate all dispersion zeros on [0, 2pi) and classify the model.

    The zeros are those of :func:`circle_zeros`.  A zero of odd multiplicity
    flips the sign of the symbol (a Fermi point, ``beta = 1/2``); a zero of
    even multiplicity is tangential and reported as marginal.  The model is
    critical exactly when it has Fermi points.  Independently of the zeros,
    the couplings certify the symbol a step times a phase
    (:func:`_step_phase`).
    """
    zeros = circle_zeros(model)
    return SymbolProfile(tuple(sorted(k for k, m in zeros if m % 2)),
                         tuple(sorted(k for k, m in zeros if not m % 2)),
                         _step_phase(model))
