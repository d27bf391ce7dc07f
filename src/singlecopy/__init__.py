"""Single-copy entanglement and block-entropy toolkit for quadratic fermion chains."""

__version__ = "0.1.0"

from .errors import (
    CoefficientAccuracyError,
    DecompositionError,
    DegenerateGroundStateError,
    InvalidSpectrumError,
    ModelError,
    SolverError,
    SymbolSingularError,
    ToolkitError,
)
from .model import (
    ModelSpec,
    SymbolProfile,
    build_model,
    classify_criticality,
    dispersion,
    symbol_eval,
)
from .toeplitz import (
    BlockSpectrum,
    ToeplitzCoeffs,
    block_spectrum,
    build_T,
    coefficient_table,
    spectrum_from_singular_values,
    table_spectrum,
)
from .entangle import (
    EntanglementReport,
    EpResult,
    SectorWeight,
    SingleCopyE1,
    leading_eigenvalues,
    probabilistic_Ep,
    report,
    sector_decompose,
    single_copy_E1,
)
from .oracle import (
    OracleComparison,
    compare_oracle,
    exact_diag_ground,
    finite_gaussian_ground,
)
from .asymptotics import (
    ScalingFit,
    ScanRow,
    ScanSeries,
    fit_log,
    geometric_grid,
    saturation_test,
    scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
