"""Off-policy evaluation in finite partially observed Markov decision
processes.

The package simulates finite POMDPs under a logged randomized policy,
estimates the long-run value of a different target policy by partial-history
importance weighting, quantifies uncertainty with a kernel-weighted long-run
variance estimator, selects the history window adaptively by interval
intersection, and reproduces the associated Monte Carlo error studies with
fully seeded sweeps whose results are independent of chunking.
"""

from .core import (
    Gaussian,
    MixingOverlapReport,
    PointMass,
    Policy,
    PomdpModel,
    Trajectory,
    mixing_overlap_report,
    policy_transition_matrix,
    policy_value_exact,
    simulate,
    stationary_distribution,
)
from .errors import ConfigurationError, MixingFailureError, OverlapViolationError
from .estimators import (
    BandwidthRule,
    EstimateReport,
    EstimatorConfig,
    LepskiResult,
    corollary_window,
    estimate_with_ci,
    hac_variance,
    importance_ratios,
    lepski_select,
    phiw_estimate,
)
from .harness import (
    LepskiStudyResult,
    RateFit,
    SweepResult,
    SweepSpec,
    fit_rate,
    make_environment,
    run_lepski_study,
    run_sweep,
    sweep_result_to_csv,
    sweep_result_to_json,
)
from .rng import derive_seed

__version__ = "0.1.0"

__all__ = [
    "BandwidthRule",
    "ConfigurationError",
    "EstimateReport",
    "EstimatorConfig",
    "Gaussian",
    "LepskiResult",
    "LepskiStudyResult",
    "MixingFailureError",
    "MixingOverlapReport",
    "OverlapViolationError",
    "PointMass",
    "Policy",
    "PomdpModel",
    "RateFit",
    "SweepResult",
    "SweepSpec",
    "Trajectory",
    "corollary_window",
    "derive_seed",
    "estimate_with_ci",
    "fit_rate",
    "hac_variance",
    "importance_ratios",
    "lepski_select",
    "make_environment",
    "mixing_overlap_report",
    "phiw_estimate",
    "policy_transition_matrix",
    "policy_value_exact",
    "run_lepski_study",
    "run_sweep",
    "simulate",
    "stationary_distribution",
    "sweep_result_to_csv",
    "sweep_result_to_json",
]
