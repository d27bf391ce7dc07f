"""Exception types shared across the toolkit, and the size check that raises them."""

import operator


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ModelError(ToolkitError, ValueError):
    """Refused input: coupling table, preset parameters, sizes, options or matrix."""


class SymbolSingularError(ToolkitError):
    """Dispersion vanishes at the requested angle (candidate Fermi point)."""

    def __init__(self, k: float):
        super().__init__(f"symbol singular at k={k!r}")
        self.k = k


class CoefficientAccuracyError(ToolkitError):
    """Fourier-coefficient quadrature missed its tolerance within budget."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class DecompositionError(ToolkitError):
    """A matrix factorization failed or left a large residual."""


class InvalidSpectrumError(ToolkitError, ValueError):
    """Probability spectrum is unsorted, unnormalized, or out of range."""


class DegenerateGroundStateError(ToolkitError):
    """Many-body ground state is numerically degenerate; comparison refused."""


class SolverError(ToolkitError):
    """Linear program failed to converge to a verified optimum."""


def size(value, name: str, hi: float | None = None, error: type = ModelError) -> int:
    """``value`` as an int by ``operator.index``: numpy integers pass, and a float, even
    an integral one, raises ``error``, as does an int outside ``[1, hi]`` when ``hi`` is given."""
    try:
        n = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not 1 <= n <= hi:
        raise error(f"{name} must be in [1, {hi}]")
    return n
