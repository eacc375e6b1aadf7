"""Synthetic data generators for validation studies.

simulate_rw reproduces the additive random-walk study design: trend and
per-channel coefficients follow Gaussian walks, covariates are i.i.d.
normal, and y_t = trend_t + sum_p beta_{t,p} x_{t,p} + noise_t on the raw
scale (no log link); a config with a sparsity spec also zeroes one
channel's spend over a window. simulate_multiplicative generates from the
multiplicative form the model actually fits (exp of trend + seasonality +
elasticity-weighted log spends) for end-to-end forecast checks.

Draw order per generator is fixed and documented on the function; the
sparsity mask uses a separately spawned stream so a zero-probability mask
is bit-identical to the unmasked dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Bound, Count, NonNegative, NonNegativeInt, ValidationError, check_fields
from .fourier import Period
from .timeframe import TimeSeriesFrame, parse_date, write_table


Probability = Annotated[float, Bound(">=", 0), Bound("<=", 1)]


@dataclass(frozen=True)
class SparsitySpec:
    """Zero out one channel's spend on [start, end] (1-based, inclusive)
    with the given per-step probability."""

    channel: NonNegativeInt
    start: Count
    end: int
    zero_prob: Probability = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.end < self.start:
            raise ValidationError(f"bad sparsity window [{self.start}, {self.end}]")


# a series of at least two steps
Length = Annotated[int, Bound(">=", 2)]


def _check_shared(config) -> None:
    """The checks both generators' settings share: types, ranges and
    coef_init, which becomes one nonnegative float per channel."""
    check_fields(config)
    init = config.coef_init
    init = (float(init),) * config.P if np.isscalar(init) else tuple(float(v) for v in init)
    if len(init) != config.P:
        raise ValidationError(f"coef_init needs {config.P} entries, got {len(init)}")
    if min(init) < 0:
        raise ValidationError("coef_init entries must be >= 0")
    object.__setattr__(config, "coef_init", init)


@dataclass(frozen=True)
class SimConfig:
    T: Length = 300
    P: Count = 3
    trend_step_sd: NonNegative = 0.02
    coef_step_sd: NonNegative = 0.03
    coef_init: float | tuple[float, ...] = 0.5
    covariate_mean: float = 3.0
    covariate_sd: NonNegative = 1.0
    noise_sd: NonNegative = 0.3
    seed: NonNegativeInt = 0
    reflect: bool = True
    sparsity: SparsitySpec | None = None
    start_date: str = "2020-01-01"

    def __post_init__(self):
        _check_shared(self)
        if self.sparsity is not None and self.sparsity.end > self.T:
            raise ValidationError("sparsity window extends past T")
        if self.sparsity is not None and self.sparsity.channel >= self.P:
            raise ValidationError("sparsity channel index out of range")


@dataclass(frozen=True)
class SimDataset:
    frame: TimeSeriesFrame
    true_trend: np.ndarray
    true_coefficients: np.ndarray


def _walk_coefficients(init, steps, reflect):
    # sequential because reflection |prev + step| acts per step; a Python
    # float rounds each add and abs as numpy does, at a fraction of the cost
    coef = np.empty(steps.shape)
    for p, prev in enumerate(init):
        walk = []
        for s in steps[:, p].tolist():
            prev = abs(prev + s) if reflect else prev + s
            walk.append(prev)
        coef[:, p] = walk
    return coef


def _check_generated(y: np.ndarray, x: np.ndarray) -> None:
    """The generators run under np.errstate, so settings too large for
    floats surface here, once, instead of as warnings and a data error."""
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValidationError(
            "simulation settings overflow: the generated response or spend is not finite"
        )


def simulate_rw(config: SimConfig) -> SimDataset:
    """Additive random-walk dataset; see the module docstring for the form.

    Draw order: trend steps, coefficient steps, covariates, noise.
    """
    root = np.random.SeedSequence(config.seed)
    rng = np.random.default_rng(root)
    T, P = config.T, config.P
    with np.errstate(over="ignore", invalid="ignore"):
        trend = np.cumsum(rng.normal(0.0, config.trend_step_sd, T))
        coef = _walk_coefficients(
            config.coef_init, rng.normal(0.0, config.coef_step_sd, (T, P)), config.reflect
        )
        x = rng.normal(config.covariate_mean, config.covariate_sd, (T, P))
        noise = rng.normal(0.0, config.noise_sd, T)
        sparsity = config.sparsity
        if sparsity is not None:
            mask_rng = np.random.default_rng(root.spawn(1)[0])
            rows = np.arange(sparsity.start - 1, sparsity.end)
            u = mask_rng.uniform(size=rows.size)
            x[rows[u < sparsity.zero_prob], sparsity.channel] = 0.0
        y = trend + (coef * x).sum(axis=1) + noise
    _check_generated(y, x)
    frame = TimeSeriesFrame(
        timestamps=parse_date(config.start_date, "in start_date") + np.arange(T),
        response=y,
        regressors=x,
        regressor_names=tuple(f"x{p + 1}" for p in range(P)),
        allow_negative_regressors=True,
    )
    return SimDataset(frame=frame, true_trend=trend, true_coefficients=coef)


@dataclass(frozen=True)
class MultiplicativeSimConfig:
    """Generator matching the multiplicative model form.

    ln y_t = base_level + trend walk + weekly seasonal pattern
             + sum_p beta_{t,p} ln x_{t,p} + noise, with lognormal spends.
    """

    T: Length = 420
    P: Count = 3
    base_level: float = 4.6
    trend_step_sd: NonNegative = 0.005
    coef_step_sd: NonNegative = 0.005
    coef_init: float | tuple[float, ...] = 0.25
    seasonal_cos: float = 0.10
    seasonal_sin: float = 0.06
    period: Period = 7.0
    log_spend_mean: float = 0.0
    log_spend_sd: NonNegative = 0.5
    noise_sd: NonNegative = 0.05
    seed: NonNegativeInt = 0
    start_date: str = "2020-01-01"

    def __post_init__(self):
        _check_shared(self)


def simulate_multiplicative(config: MultiplicativeSimConfig) -> SimDataset:
    """Multiplicative-scale dataset; spends are strictly positive.

    Draw order: trend steps, coefficient steps, log spends, noise.
    true_trend stores base_level + walk (the log-scale level component).
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    T, P = config.T, config.P
    with np.errstate(over="ignore", invalid="ignore"):
        trend = config.base_level + np.cumsum(rng.normal(0.0, config.trend_step_sd, T))
        coef = _walk_coefficients(
            config.coef_init, rng.normal(0.0, config.coef_step_sd, (T, P)), True
        )
        log_x = rng.normal(config.log_spend_mean, config.log_spend_sd, (T, P))
        noise = rng.normal(0.0, config.noise_sd, T)
        t = np.arange(1, T + 1, dtype=float)
        arg = 2.0 * np.pi * t / config.period
        seasonal = config.seasonal_cos * np.cos(arg) + config.seasonal_sin * np.sin(arg)
        log_y = trend + seasonal + (coef * log_x).sum(axis=1) + noise
        y, x = np.exp(log_y), np.exp(log_x)
    _check_generated(y, x)
    frame = TimeSeriesFrame(
        timestamps=parse_date(config.start_date, "in start_date") + np.arange(T),
        response=y,
        regressors=x,
        regressor_names=tuple(f"x{p + 1}" for p in range(P)),
    )
    return SimDataset(frame=frame, true_trend=trend, true_coefficients=coef)


def write_truth_csv(dataset: SimDataset, path: str) -> None:
    """date, true trend, and per-channel true coefficients, one row per t."""
    names = dataset.frame.regressor_names
    write_table(path, ["date", "trend", *(f"beta_{c}" for c in names)],
                dataset.frame.timestamps, [dataset.true_trend, *dataset.true_coefficients.T])
