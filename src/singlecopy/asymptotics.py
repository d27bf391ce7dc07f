"""Block-length scans and scaling fits.

Scans share one coefficient table across their whole geometric grid, fit
quantities against log2(L), and detect saturation over the top octave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .entangle import single_copy_E1
from .errors import ModelError, ToolkitError, size
from .model import ModelSpec, classify_criticality
from .toeplitz import LN2, MAX_L, BlockSpectrum, coefficient_table, table_spectrum


def geometric_grid(L_min: int, L_max: int, per_octave: int = 2) -> tuple[int, ...]:
    """Strictly increasing integer grid, ``per_octave`` points per factor 2.

    ``per_octave = L_max`` already exceeds ``L_max ln 2`` and lists every
    integer in ``[L_min, L_max]``, so larger values are refused, as is an
    ``L_max`` past the longest block, ``MAX_L``: the loop takes about
    ``per_octave * log2(L_max / L_min)`` steps.
    """
    L_min, L_max, per_octave = (size(v, name) for v, name in
                                zip((L_min, L_max, per_octave), ("L_min", "L_max", "per_octave")))
    if not 1 <= L_min <= L_max <= MAX_L or not 1 <= per_octave <= L_max:
        raise ModelError(f"need 1 <= L_min <= L_max <= {MAX_L} and 1 <= per_octave <= L_max")
    out = []
    e = math.log2(L_min)
    top = math.log2(L_max)
    while e <= top + 1e-9:
        out.append(int(round(2.0 ** e)))
        e += 1.0 / per_octave
    out.append(L_max)
    return tuple(sorted(set(out)))


@dataclass(frozen=True)
class ScanRow:
    L: int
    e1_cont_bits: float = math.nan
    E1_bits: float = math.nan
    entropy_bits: float = math.nan
    ln_absdet_T: float = math.nan
    rms_term_bits: float = math.nan
    error: str | None = None


#: Per-L quantities of a scan row, in schema order (JSON keys, CSV columns).
SCAN_FIELDS = tuple(f.name for f in fields(ScanRow) if f.name not in ("L", "error"))
#: Fewest rows in the window of a fit.
FIT_MIN_ROWS = 3


@dataclass(frozen=True)
class ScanSeries:
    """Per-L entanglement quantities of one model over a block-length grid."""

    model: ModelSpec
    grid: tuple[int, ...]
    rows: tuple[ScanRow, ...]


def _row_from_spectrum(spec: BlockSpectrum) -> ScanRow:
    sc = single_copy_E1(ln_alpha1=spec.ln_alpha1)
    return ScanRow(
        L=spec.L,
        e1_cont_bits=sc.e1_cont_bits,
        E1_bits=sc.E1_bits,
        entropy_bits=spec.entropy_bits,
        ln_absdet_T=spec.ln_absdet_T,
        rms_term_bits=spec.rms_term_bits,
    )


def scan(model: ModelSpec, grid, progress=None) -> ScanSeries:
    """One spectrum per grid point, coefficients shared across the scan.

    Failures are recorded per row instead of aborting the scan.
    """
    grid = tuple(size(L, "grid point", MAX_L) for L in grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ModelError("grid must be non-empty and strictly increasing")
    table = coefficient_table(model, grid[-1])

    def job(L: int):
        try:
            row = _row_from_spectrum(table_spectrum(table, L))
        except ToolkitError as exc:
            row = ScanRow(L=L, error=str(exc))
        if progress is not None:
            progress(f"L={L} done" if row.error is None else f"L={L} failed: {row.error}")
        return row

    return ScanSeries(model=model, grid=grid, rows=tuple(job(L) for L in grid))


def require_fit_rows(n_rows: int) -> None:
    """Refuse (``ModelError``) a fit window of fewer than ``FIT_MIN_ROWS`` rows."""
    if n_rows < FIT_MIN_ROWS:
        raise ModelError(f"need at least {FIT_MIN_ROWS} grid points in the window to fit")


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of one scan quantity against log2(L).

    ``predicted_slope`` is set for ``ln_absdet_T`` only: the Fisher-Hartwig
    slope ``-ln 2 * sum_j beta_j^2`` per unit of log2(L).  ``n_excluded``
    counts the rows in the window that failed or were not finite (a -inf
    determinant, say).
    """

    quantity: str
    slope: float
    intercept: float
    rms_residual: float
    grid_range: tuple[int, int]
    predicted_slope: float | None = None
    n_excluded: int = 0


def _series_points(series: ScanSeries, quantity: str, window):
    if quantity not in SCAN_FIELDS:
        raise ModelError(f"unknown scan quantity {quantity!r}")
    lo, hi = window if window is not None else (series.grid[0], series.grid[-1])
    pts = []
    skipped = 0
    for row in series.rows:
        if not (lo <= row.L <= hi):
            continue
        y = getattr(row, quantity)
        if row.error is not None or not math.isfinite(y):
            skipped += 1
            continue
        pts.append((row.L, y))
    return pts, skipped


def fit_log(series: ScanSeries, quantity: str, window=None) -> ScalingFit:
    """Ordinary least squares of ``quantity`` against log2(L).

    For ``ln_absdet_T`` the fit carries the jump-exponent prediction of the
    symbol profile, ``predicted_slope = -ln 2 * sum_j beta_j^2``, in the same
    units as ``slope``.  A window of fewer than ``FIT_MIN_ROWS`` rows is
    refused (:func:`require_fit_rows`, which a caller runs on its grid before
    scanning); fewer usable rows is a numerical failure (``ToolkitError``).
    """
    pts, skipped = _series_points(series, quantity, window)
    require_fit_rows(len(pts) + skipped)
    if len(pts) < FIT_MIN_ROWS:
        raise ToolkitError(f"only {len(pts)} of the window's {len(pts) + skipped} rows are usable "
                           f"(the others failed or are not finite); the fit needs {FIT_MIN_ROWS}")
    Ls = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts])
    x = np.log2(Ls)
    design = np.vstack([x, np.ones_like(x)]).T
    if np.linalg.matrix_rank(design) < 2:
        raise ModelError("degenerate design matrix")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    predicted = None
    if quantity == "ln_absdet_T":
        predicted = -LN2 * classify_criticality(series.model).beta_sq_sum() + 0.0
    return ScalingFit(
        quantity=quantity,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        rms_residual=rms,
        grid_range=(int(Ls[0]), int(Ls[-1])),
        predicted_slope=predicted,
        n_excluded=skipped,
    )


def saturation_test(series: ScanSeries, quantity: str, epsilon: float = 0.01) -> bool:
    """True iff the quantity varies less than ``epsilon`` over the top octave."""
    if series.grid[-1] < 4 * series.grid[0]:
        raise ModelError("grid must span at least two octaves")
    top = series.grid[-1]
    pts, skipped = _series_points(series, quantity, (top // 2, top))
    if skipped or len(pts) < 2:
        raise ModelError("top octave has missing or non-finite rows")
    ys = [p[1] for p in pts]
    return bool(max(ys) - min(ys) < epsilon)
