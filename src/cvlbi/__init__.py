"""Continuous-variable entanglement-assisted baseline interferometry toolkit.

Gaussian covariance construction for a bipartite thermal source and a two-mode
squeezed resource, balanced beam-splitter interference, homodyne outcome
statistics, Fisher information of the mutual coherence, maximum-likelihood
benchmarking against the Cramer-Rao bound, and cross-scheme comparison of
cumulative Fisher information.

Convention: vacuum covariance = identity, quadratures xp-interleaved per mode.
"""

from .core import (
    CovarianceMatrix,
    NumericalError,
    PhysicalityReport,
    ValidationError,
    apply_symplectic,
    check_physicality,
    direct_sum,
    matrix_exponential,
    permute_modes,
    reduce,
    symplectic_form,
)
from .estimate import (
    EstimateResult,
    MeasurementRecord,
    MleResult,
    crb_experiment,
    log_likelihood,
    mle,
    sample_records,
)
from .fisher import (
    FisherMatrix,
    MonteCarloFisher,
    fisher_analytic,
    fisher_limit_closed_form,
    fisher_monte_carlo,
    score_vectors,
)
from .interferometer import (
    InterferometerConfig,
    ReducedState,
    beam_splitter_matrix,
    full_output_covariance,
    reduced_covariance,
    reduced_covariance_closed,
)
from .schemes import (
    SchemeCurve,
    SchemeId,
    cumulative_curves,
    curves_to_csv,
    ordering_report,
)
from .states import (
    SourceParams,
    TmsvParams,
    astronomical_covariance,
    tmsv_covariance_closed,
    tmsv_covariance_exponential,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix",
    "EstimateResult",
    "FisherMatrix",
    "InterferometerConfig",
    "MeasurementRecord",
    "MleResult",
    "MonteCarloFisher",
    "NumericalError",
    "PhysicalityReport",
    "ReducedState",
    "SchemeCurve",
    "SchemeId",
    "SourceParams",
    "TmsvParams",
    "ValidationError",
    "apply_symplectic",
    "astronomical_covariance",
    "beam_splitter_matrix",
    "check_physicality",
    "crb_experiment",
    "cumulative_curves",
    "curves_to_csv",
    "direct_sum",
    "fisher_analytic",
    "fisher_limit_closed_form",
    "fisher_monte_carlo",
    "full_output_covariance",
    "log_likelihood",
    "matrix_exponential",
    "mle",
    "ordering_report",
    "permute_modes",
    "reduce",
    "reduced_covariance",
    "reduced_covariance_closed",
    "sample_records",
    "score_vectors",
    "symplectic_form",
    "tmsv_covariance_closed",
    "tmsv_covariance_exponential",
]
