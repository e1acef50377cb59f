"""Robust tail index estimation for randomly right-censored heavy-tailed data."""

from .asymptotics import (
    AsymptoticConstants,
    GaussianOracleConfig,
    asymptotic_ci,
    eta_star,
    mu,
    phi_star,
    sigma_squared,
    sigma_squared_mc,
)
from .empirical import (
    kaplan_meier_survival,
    mdpd_weights,
)
from .estimators import (
    EstimateResult,
    EstimationError,
    MdpdWindow,
    NoRootError,
    SolverOptions,
    censored_proportion,
    efg_estimator,
    hill_gamma,
    mdpd_estimate,
    mns_estimator,
    worms_estimator,
)
from .sample_model import (
    InvalidSampleError,
    ModelParams,
    OrderedSample,
    TailConfig,
    order_sample,
    ordered_from_arrays,
    top_log_excesses,
)
from .simulation import (
    ContaminationSpec,
    SweepResult,
    SweepSpec,
    burr_quantile,
    frechet_quantile,
    gamma2_from_p,
    run_sweep,
    sample_contaminated_censored,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticConstants", "GaussianOracleConfig", "asymptotic_ci", "eta_star",
    "mu", "phi_star", "sigma_squared", "sigma_squared_mc",
    "kaplan_meier_survival", "mdpd_weights",
    "EstimateResult", "EstimationError", "MdpdWindow", "NoRootError", "SolverOptions",
    "censored_proportion", "efg_estimator", "hill_gamma", "mdpd_estimate",
    "mns_estimator", "worms_estimator",
    "InvalidSampleError", "ModelParams", "OrderedSample", "TailConfig",
    "order_sample", "ordered_from_arrays", "top_log_excesses",
    "ContaminationSpec", "SweepResult", "SweepSpec", "burr_quantile",
    "frechet_quantile", "gamma2_from_p", "run_sweep", "sample_contaminated_censored",
]
