"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numeric/convergence failures with 3, statistical-power failures
with 4.
"""


class NonlocalLogisticError(Exception):
    """Base class for all package errors."""


class ConfigurationError(NonlocalLogisticError):
    """Invalid parameters, domains, or run configuration."""


class DimensionError(ConfigurationError):
    """Vector/matrix shape mismatch."""


class SamplerError(ConfigurationError):
    """No increment sampler is available for the requested symbol."""


class NumericError(NonlocalLogisticError):
    """Quadrature, factorization, or other numerical failure."""


class ConvergenceError(NumericError):
    """Iteration cap exceeded before reaching the requested tolerance."""


class MonotonicityError(NumericError):
    """Ordered iteration lost monotonicity (a slope bound was too small)."""


class ConstructionError(NumericError):
    """Sub/supersolution construction could not satisfy its margin."""


class ContinuationError(NumericError):
    """A small-branch Newton solve failed from its predictor (singular Jacobian or no descent)."""


class SpectralProximityError(NumericError):
    """Resolvent requested too close to an eigenvalue."""


class ScanError(NumericError):
    """Existence scan produced inconsistent (non-monotone) results."""


class StatisticalPowerError(NonlocalLogisticError):
    """Too few Monte Carlo samples survive to support the estimate."""
