"""Test-side criteria built on the toolkit's outputs: Nielsen's partial-sum
criterion for one spectrum, and the determinant bound chain of one scan row."""

from dataclasses import dataclass

import numpy as np

from singlecopy.asymptotics import ScanRow
from singlecopy.entangle import _validated
from singlecopy.errors import InvalidSpectrumError
from singlecopy.toeplitz import LN2


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
class BoundChain:
    """The three determinant-chain quantities, in natural-log units.

    Per singular value, ``(1-mu)^2 >= 0`` forces ``lhs >= mid`` and the
    arithmetic-geometric mean inequality forces ``lhs <= rhs``; the relative
    order of ``mid`` and ``rhs`` is data, not an identity, and is only
    reported.
    """

    lhs: float   # -ln alpha1
    mid: float   # -(1/2) ln prod (1+mu^2)/2
    rhs: float   # -(1/2) ln |det T|  (may be +inf)


def bound_chain(row: ScanRow) -> BoundChain:
    """Evaluate the chain from one scan row (NaN throughout for a failed row)."""
    return BoundChain(row.e1_cont_bits * LN2 + 0.0, row.rms_term_bits * LN2 + 0.0,
                      -0.5 * row.ln_absdet_T + 0.0)
