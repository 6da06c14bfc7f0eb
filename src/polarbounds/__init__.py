"""Polar decompositions, a structured Sylvester solver, and norm bounds.

The package computes generalized polar decompositions ``A = U |A|`` of
arbitrary complex matrices, solves ``A X + X B = A C + D B`` for Hermitian
PSD coefficients, encloses ``||X||_F`` by several computable bounds, and
bounds how far both polar factors can move under two-sided multiplicative
perturbations ``B = D1* A D2``.
"""

from .bounds import (
    BoundKind,
    BoundPair,
    SymmetricBoundParams,
    WeightedBoundParams,
    midpoint_bounds,
    norm_sum_bound,
    separation_bound,
    spectral_separation,
    symmetric_bounds,
    symmetric_params_from_spectra,
    weighted_bounds,
    weighted_params_from_spectra,
)
from .exceptions import (
    DomainError,
    HypothesisError,
    InconsistentSystemError,
    MatrixFormatError,
    NumericalError,
    SpectralOverlapError,
)
from .experiments import (
    DEFAULT_SEED,
    ComparisonTest,
    ExampleReport,
    ExperimentConfig,
    SampleDistribution,
    SweepRow,
    TrialTally,
    run_example,
    run_montecarlo,
    run_perturb_sweep,
)
from .matrixcore import (
    SvdFactors,
    frobenius_norm,
    pinv,
    read_matrix,
    svd,
    write_matrix,
)
from .perturb import (
    PerturbationScenario,
    PolarPerturbReport,
    SearchStrategy,
    chen_li_sun_bound,
    hong_meng_zheng_bound,
    make_scenario,
    psd_factor_bound,
    psd_terms,
    subunitary_bound,
    subunitary_terms,
)
from .polar import PolarFactors, PolarResiduals, generalized_polar, verify_polar
from .sylvester import (
    StructuredProblem,
    SylvesterSolution,
    solve_general_hermitian,
    solve_structured,
    splitting_identity_residual,
    structured_problem,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundKind",
    "BoundPair",
    "ComparisonTest",
    "DEFAULT_SEED",
    "DomainError",
    "ExampleReport",
    "ExperimentConfig",
    "HypothesisError",
    "InconsistentSystemError",
    "MatrixFormatError",
    "NumericalError",
    "PerturbationScenario",
    "PolarFactors",
    "PolarPerturbReport",
    "PolarResiduals",
    "SampleDistribution",
    "SearchStrategy",
    "SpectralOverlapError",
    "StructuredProblem",
    "SvdFactors",
    "SweepRow",
    "SylvesterSolution",
    "SymmetricBoundParams",
    "TrialTally",
    "WeightedBoundParams",
    "chen_li_sun_bound",
    "frobenius_norm",
    "generalized_polar",
    "hong_meng_zheng_bound",
    "make_scenario",
    "midpoint_bounds",
    "norm_sum_bound",
    "pinv",
    "psd_factor_bound",
    "psd_terms",
    "read_matrix",
    "run_example",
    "run_montecarlo",
    "run_perturb_sweep",
    "separation_bound",
    "solve_general_hermitian",
    "solve_structured",
    "spectral_separation",
    "splitting_identity_residual",
    "structured_problem",
    "subunitary_bound",
    "subunitary_terms",
    "svd",
    "symmetric_bounds",
    "symmetric_params_from_spectra",
    "verify_polar",
    "weighted_bounds",
    "weighted_params_from_spectra",
    "write_matrix",
]
