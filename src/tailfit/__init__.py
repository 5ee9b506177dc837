"""tailfit: MLE fitting of heavy-tailed severity distributions and
parametric-bootstrap checks of asymptotic normality."""

from .bootstrap import BootstrapMatrix, run_bootstrap, true_model_from_losses
from .ci_analysis import CiErrorRow, bootstrap_ci_width, ci_error_table, normal_ci_width
from .density import DensityOverlay, kde, overlay
from .distributions import (
    FAMILIES,
    PARAM_NAMES,
    SeverityModel,
    cdf,
    log_likelihood,
    log_pdf,
    pdf,
    quantile,
    sample,
)
from .fisher import InfoMatrix, asymptotic_covariance, fisher_information
from .mle import FitResult, fit
from .normality import NormalityReport, anderson_darling_normal, mardia, normality_suite
from .optimizer import OptimResult, nelder_mead

__all__ = [
    "BootstrapMatrix",
    "CiErrorRow",
    "DensityOverlay",
    "FAMILIES",
    "FitResult",
    "InfoMatrix",
    "NormalityReport",
    "OptimResult",
    "PARAM_NAMES",
    "SeverityModel",
    "anderson_darling_normal",
    "asymptotic_covariance",
    "bootstrap_ci_width",
    "cdf",
    "ci_error_table",
    "fisher_information",
    "fit",
    "kde",
    "log_likelihood",
    "log_pdf",
    "mardia",
    "nelder_mead",
    "normal_ci_width",
    "normality_suite",
    "overlay",
    "pdf",
    "quantile",
    "run_bootstrap",
    "sample",
    "true_model_from_losses",
]

__version__ = "0.1.0"
