"""Confidence intervals with simultaneous coverage over data-selected
parameters: the k-largest-of-m delta family, bivariate larger-of-two and
abs-max constructions, classical baselines, and a seeded Monte-Carlo
coverage engine."""

from .baselines import (
    MethodLabel,
    fcw_constants,
    k_of_m_intervals,
    method_offsets,
    method_tail_levels,
    sidak_halfwidth,
)
from .bivariate import (
    CPlusCurve,
    abs_max_interval,
    b_region_probability,
    c_plus,
    cplus_curve,
    larger_of_two_interval,
)
from .dist import (
    NORMAL,
    CovarianceModel,
    NotPositiveDefiniteError,
    ShiftFamily,
    cholesky,
    sample_mvn,
    seeded_rng,
    std_normal_cdf,
    std_normal_quantile,
    student_t_family,
    student_t_quantile,
)
from .mc import (
    CoverageReport,
    Scenario,
    build_covariance,
    load_scenario,
    resolve_theta,
    run_coverage,
    scenario_from_dict,
)
from .select import select_abs_max, select_top_k
from .sos import (
    ConfidenceInterval,
    OptimizationError,
    interval_length,
    optimize_delta,
)

__version__ = "0.1.0"

# keep a flat, explicit public surface
__all__ = [
    "__version__",
    # dist
    "NORMAL", "ShiftFamily", "CovarianceModel", "NotPositiveDefiniteError",
    "student_t_family", "std_normal_cdf", "std_normal_quantile",
    "student_t_quantile", "cholesky", "sample_mvn", "seeded_rng",
    # select
    "select_top_k", "select_abs_max",
    # sos
    "ConfidenceInterval", "OptimizationError", "interval_length", "optimize_delta",
    # bivariate
    "CPlusCurve", "larger_of_two_interval", "b_region_probability", "c_plus",
    "cplus_curve", "abs_max_interval",
    # baselines
    "MethodLabel", "sidak_halfwidth", "fcw_constants", "method_tail_levels",
    "method_offsets", "k_of_m_intervals",
    # mc
    "Scenario", "CoverageReport", "build_covariance", "resolve_theta",
    "run_coverage", "scenario_from_dict", "load_scenario",
]
