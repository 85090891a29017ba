"""Numerical laboratory for the nonlocal logistic equation with harvesting.

Solves and cross-verifies ``psi(-Delta) u = a u - f(x, u) - c h(x, u)`` on
a bounded interval with zero exterior condition, for Bernstein symbols
psi of the Laplacian: steady states and their bifurcation in the harvest
intensity, principal eigenvalues, parabolic evolution, and Monte Carlo
path representations of the same quantities.
"""

__version__ = "0.1.0"

from .bernstein import (
    BernsteinSymbol,
    KernelMoments,
    LevyKernel,
    ScalingReport,
    check_scaling,
    kernel_moments,
    v_profile,
)
from .boundary import RatioField, hopf_ratio, v_modulus
from .errors import (
    ConfigurationError,
    ConstructionError,
    ContinuationError,
    ConvergenceError,
    DimensionError,
    MonotonicityError,
    NonlocalLogisticError,
    NumericError,
    SamplerError,
    ScanError,
    SpectralProximityError,
    StatisticalPowerError,
)
from .grid import Grid1D
from .operator import OperatorMatrix, assemble, green_solve
from .parabolic import LongtimeResult, ParabolicRun, evolve, longtime_classify, max_stable_dt
from .spectral import EigenPair, ResolventProfile, antimaximum_profile, antimaximum_window, principal_eigenpair
from .steady import (
    CrowdingTerm,
    HarvestScan,
    HarvestSubsolution,
    HarvestTerm,
    ReactionSpec,
    harvest_subsolution,
    ScanSample,
    StabilityIndex,
    SteadyState,
    check_harvest_dominance,
    maximal_harvest,
    newton_multistart,
    newton_polish,
    scan_cstar,
    small_branch,
    solve_logistic,
    stability_index,
)
from .stochastic import (
    KilledPath,
    McEstimate,
    SubordinatorSampler,
    SurvivalFit,
    exit_pass,
    feynman_kac,
    mc_green,
    simulate_killed_path,
    survival_lambda1,
    trace_rows,
)
