"""Experiment-informed priors on coefficient windows.

A lift test measured on one channel over [start, end] enters the objective
as Gaussian pseudo-observations on the kernel-weighted coefficient
beta_{t,channel} for every t in the window, scaled by 1/(window length) so
a long window cannot overwhelm the likelihood. Information spreads to
neighboring times through the kernel because the term attaches to beta,
not to raw knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Count, NonNegative, Positive, ValidationError, check_fields
from .model import LOG_2PI
from .timeframe import TimeSeriesFrame, read_table


@dataclass(frozen=True)
class PriorWindow:
    """One test result: channel name, inclusive 1-based window, mean, sd."""

    channel: str
    start: Count
    end: int
    mean: NonNegative  # elasticity units
    sd: Positive

    def __post_init__(self):
        check_fields(self, "window {}")
        if self.end < self.start:
            raise ValidationError(
                f"window [{self.start}, {self.end}] is not a valid 1-based range"
            )


@dataclass(frozen=True)
class CalibrationTerm:
    """Length-normalized Gaussian log-density on one channel's coefficients."""

    channel_index: int
    start0: int
    end0: int
    mean: float
    sd: float

    @property
    def weight(self) -> float:
        return 1.0 / (self.end0 - self.start0 + 1)

    def value_and_coef_grad(self, coef: np.ndarray):
        """Log-density value and d/d(coef) for a (n, P) coefficient matrix."""
        rows = slice(self.start0, self.end0 + 1)
        c = coef[rows, self.channel_index]
        z = (c - self.mean) / self.sd
        w = self.weight
        value = w * float(np.sum(-0.5 * z * z - math.log(self.sd) - 0.5 * LOG_2PI))
        grad = np.zeros_like(coef)
        grad[rows, self.channel_index] = w * (self.mean - c) / (self.sd * self.sd)
        return value, grad


def apply_prior_windows(windows, regressor_names, T: int) -> tuple[CalibrationTerm, ...]:
    """Validate windows against the frame and turn them into objective terms.

    Overlapping windows on the same channel are rejected: two tests cannot
    both pin the same coefficient at the same time.
    """
    names = list(regressor_names)
    terms = []
    by_channel: dict[str, list[PriorWindow]] = {}
    for w in windows:
        if w.channel not in names:
            raise ValidationError(f"unknown channel {w.channel!r} in prior window")
        if w.end > T:
            raise ValidationError(
                f"window [{w.start}, {w.end}] extends past the series length {T}"
            )
        by_channel.setdefault(w.channel, []).append(w)
    for channel, ws in by_channel.items():
        ws = sorted(ws, key=lambda w: w.start)
        for prev, cur in zip(ws, ws[1:]):
            if cur.start <= prev.end:
                raise ValidationError(
                    f"overlapping prior windows on channel {channel!r}: "
                    f"[{prev.start}, {prev.end}] and [{cur.start}, {cur.end}]"
                )
    for w in windows:
        terms.append(
            CalibrationTerm(
                channel_index=names.index(w.channel),
                start0=w.start - 1,
                end0=w.end - 1,
                mean=w.mean,
                sd=w.sd,
            )
        )
    return tuple(terms)


def read_prior_windows_csv(path: str, frame: TimeSeriesFrame) -> list[PriorWindow]:
    """Read channel,start_date,end_date,mean,sd rows; the file follows
    timeframe.read_table's rules, both dates must be on the frame's calendar,
    and then each row, in file order, must name a frame channel and make a
    valid PriorWindow. Every error names its 1-based prior windows row."""
    table = read_table(path, {"channel": "text", "start_date": "date", "end_date": "date",
                              "mean": "number", "sd": "number"}, "prior windows row {}")
    dates = np.stack([table["start_date"], table["end_date"]], axis=1)
    at = np.searchsorted(frame.timestamps, dates)
    off = frame.timestamps[np.minimum(at, frame.n_times - 1)] != dates
    if off.any():
        r, k = np.argwhere(off)[0]
        raise ValidationError(
            f"date {dates[r, k]} in prior windows row {r + 1} is not on the series calendar"
        )
    start, end = (at + 1).T.tolist()
    windows = []
    rows = zip(table["channel"], start, end, table["mean"].tolist(), table["sd"].tolist())
    for r, row in enumerate(rows, start=1):
        try:
            if row[0] not in frame.regressor_names:
                raise ValidationError(f"unknown channel {row[0]!r}")
            windows.append(PriorWindow(*row))
        except ValidationError as err:
            raise ValidationError(f"{err} at prior windows row {r}") from None
    return windows
