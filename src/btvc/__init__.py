"""Bayesian time-varying-coefficient regression for time series.

Coefficients are kernel-weighted combinations of latent knot values with
hierarchical priors; fitting is MAP or stochastic variational inference.
"""

__version__ = "0.1.0"

from .calibration import CalibrationTerm, PriorWindow, apply_prior_windows
from .errors import BtvcError, DivergenceError, ValidationError
from .evaluation import (
    BacktestPlan,
    MetricReport,
    backtest,
    coef_mse,
    pinball,
    seasonal_naive_forecaster,
    smape,
    split_bounds,
)
from .fourier import FourierSpec, fourier_design
from .inference import (
    FitResult,
    MapConfig,
    ParameterPacking,
    PosteriorDraws,
    SviConfig,
    default_packing,
    draw_posterior,
    fit_map,
    fit_svi,
    load_fit,
    save_fit,
)
from .kernels import KernelMatrix, KnotGrid, build_grid, kernel_matrix
from .model import (
    Decomposition,
    HyperParams,
    ModelDesign,
    ModelInputs,
    ParameterSet,
    coefficients,
    decompose,
    log_likelihood,
    log_posterior,
    log_prior,
    predict,
)
from .runconfig import RunConfig, load_config, merge_config, save_config
from .simulation import (
    MultiplicativeSimConfig,
    SimConfig,
    SimDataset,
    SparsitySpec,
    simulate_multiplicative,
    simulate_rw,
)
from .timeframe import CsvSchema, TimeSeriesFrame, ingest_csv

__all__ = [
    "__version__",
    "BtvcError", "ValidationError", "DivergenceError",
    "KnotGrid", "KernelMatrix", "build_grid", "kernel_matrix",
    "FourierSpec", "fourier_design",
    "CsvSchema", "TimeSeriesFrame", "ingest_csv",
    "HyperParams", "ParameterSet", "ModelDesign", "ModelInputs", "Decomposition",
    "coefficients", "decompose", "log_prior", "log_likelihood", "log_posterior",
    "predict",
    "ParameterPacking", "MapConfig", "SviConfig", "FitResult", "PosteriorDraws",
    "default_packing", "fit_map", "fit_svi", "draw_posterior", "save_fit", "load_fit",
    "PriorWindow", "CalibrationTerm", "apply_prior_windows",
    "SimConfig", "SparsitySpec", "SimDataset", "MultiplicativeSimConfig",
    "simulate_rw", "simulate_multiplicative",
    "smape", "pinball", "coef_mse", "BacktestPlan", "MetricReport", "split_bounds",
    "backtest", "seasonal_naive_forecaster",
    "RunConfig", "load_config", "merge_config", "save_config",
]
