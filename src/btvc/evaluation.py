"""Forecast metrics and the expanding-window backtester.

The backtester cuts one series into `splits` train/test pairs with
incrementally longer training windows. Split i (0-based) trains on rows
[1, T - h - (splits-1-i) * stride] and scores the next h rows; with the
default stride = h the test windows tile the end of the series without
overlap, the last one ending at T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Count, ValidationError, check_fields, check_value
from .timeframe import TimeSeriesFrame, write_table


def smape(forecast: np.ndarray, actual: np.ndarray) -> float:
    """(1/h) * sum 2|F-A| / (|F|+|A|); symmetric, scale-invariant, in [0,2]."""
    f = np.asarray(forecast, dtype=float)
    a = np.asarray(actual, dtype=float)
    if f.shape != a.shape or f.ndim != 1:
        raise ValidationError(f"smape shapes disagree: {f.shape} vs {a.shape}")
    if f.size == 0:
        raise ValidationError("smape needs at least one point")
    denom = np.abs(f) + np.abs(a)
    num = 2.0 * np.abs(f - a)
    # a term with |F|+|A| == 0 contributes exactly 0 by convention
    terms = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return float(terms.mean())


def pinball(actual: np.ndarray, quantile_forecast: np.ndarray, tau: float) -> float:
    """Mean quantile loss max(tau*(y-q), (tau-1)*(y-q))."""
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must lie in (0, 1), got {tau}")
    y = np.asarray(actual, dtype=float)
    q = np.asarray(quantile_forecast, dtype=float)
    if y.shape != q.shape or y.ndim != 1:
        raise ValidationError(f"pinball shapes disagree: {y.shape} vs {q.shape}")
    diff = y - q
    return float(np.maximum(tau * diff, (tau - 1.0) * diff).mean())


def coef_mse(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-channel mean squared error between coefficient paths."""
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or est.ndim != 2:
        raise ValidationError(f"coef_mse shapes disagree: {est.shape} vs {tru.shape}")
    return ((est - tru) ** 2).mean(axis=0)


@dataclass(frozen=True)
class BacktestPlan:
    horizon: Count = 28
    splits: Count = 6
    min_train: Count = 1
    stride: Count | None = None  # None means horizon

    def __post_init__(self):
        check_fields(self)

    @property
    def effective_stride(self) -> int:
        return self.horizon if self.stride is None else self.stride


def split_bounds(T: int, plan: BacktestPlan) -> list[tuple[int, int, int]]:
    """1-based inclusive (train_end, test_start, test_end) per split.

    Training rows strictly precede test rows; the last test window ends
    at T.
    """
    s = plan.effective_stride
    bounds = []
    for i in range(plan.splits):
        train_end = T - plan.horizon - (plan.splits - 1 - i) * s
        if train_end < plan.min_train:
            raise ValidationError(
                f"plan infeasible: split {i + 1} trains on {train_end} rows, "
                f"need >= {plan.min_train}"
            )
        bounds.append((train_end, train_end + 1, train_end + plan.horizon))
    return bounds


@dataclass(frozen=True)
class MetricReport:
    """Per-split values with their mean and sample sd (ddof=1; a single
    split reports sd 0.0)."""

    per_split: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.per_split)
        object.__setattr__(self, "per_split", values)
        if not values:
            raise ValidationError("MetricReport needs at least one split")

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_split))

    @property
    def sd(self) -> float:
        return float(np.std(self.per_split, ddof=1)) if len(self.per_split) > 1 else 0.0


def seed_for_split(root_seed: int, index: int) -> int:
    """Deterministic per-split seed derived from one root seed."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def _slice_frame(frame: TimeSeriesFrame, n: int) -> TimeSeriesFrame:
    return TimeSeriesFrame(
        timestamps=frame.timestamps[:n],
        response=frame.response[:n],
        regressors=frame.regressors[:n],
        regressor_names=frame.regressor_names,
        allow_negative_regressors=True,  # source frame already validated
    )


def backtest(frame: TimeSeriesFrame, forecaster, plan: BacktestPlan,
             root_seed: int = 0) -> MetricReport:
    """Score a forecaster over expanding-window splits with SMAPE.

    forecaster(train_frame, horizon, future_regressors, seed) must return
    the h original-scale point forecasts. future_regressors are the actual
    regressor rows of the test window (the protocol assumes planned spend
    is known ahead).
    """
    T = frame.n_times
    values = []
    for i, (train_end, test_start, test_end) in enumerate(split_bounds(T, plan)):
        train = _slice_frame(frame, train_end)
        future_x = frame.regressors[test_start - 1:test_end]
        actual = frame.response[test_start - 1:test_end]
        forecast = np.asarray(
            forecaster(train, plan.horizon, future_x, seed_for_split(root_seed, i)),
            dtype=float,
        )
        if forecast.shape != actual.shape:
            raise ValidationError(
                f"forecaster returned shape {forecast.shape}, expected {actual.shape}"
            )
        values.append(smape(forecast, actual))
    return MetricReport(values)


def seasonal_naive_forecaster(period: int = 7):
    """Last-cycle repeat: forecast step k copies y[T - period + (k mod period)]."""
    check_value(period, Count, "period")

    def forecaster(train: TimeSeriesFrame, horizon: int, future_regressors, seed: int):
        y = train.response
        if y.size < period:
            raise ValidationError("training window shorter than the naive period")
        last = y[-period:]
        return np.array([last[k % period] for k in range(horizon)])

    return forecaster


def write_metric_report_csv(report: MetricReport, path: str) -> None:
    labels = [*range(1, len(report.per_split) + 1), "mean", "sd"]
    write_table(path, ["split", "smape"], labels,
                [[*report.per_split, report.mean, report.sd]])


def format_metric_report(report: MetricReport) -> str:
    lines = ["split  smape"]
    for i, v in enumerate(report.per_split, start=1):
        lines.append(f"{i:>5}  {v:.6f}")
    lines.append(f" mean  {report.mean:.6f}")
    lines.append(f"   sd  {report.sd:.6f}")
    return "\n".join(lines)
