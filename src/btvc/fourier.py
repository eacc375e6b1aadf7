"""Fourier seasonality covariates.

For a period S and order k the pair cos(2*k*pi*t/S), sin(2*k*pi*t/S) is
generated per time step; stacking orders 1..k_max for each period gives the
seasonal covariate matrix, a plain float array whose entries lie in
[-1, 1]. t is the 1-based integer time index, so columns are periodic in t
rather than phase-aligned to the calendar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Bound, Count, ValidationError, check_fields


# a cycle longer than one time step
Period = Annotated[float, Bound(">", 1)]


@dataclass(frozen=True)
class FourierSpec:
    """One seasonal component: period S (in time steps) and Fourier order."""

    period: Period
    order: Count

    def __post_init__(self):
        check_fields(self)
        if 2 * self.order >= self.period:
            raise ValidationError(
                f"aliasing: 2*order={2 * self.order} must be < period={self.period}"
            )


def fourier_design(T: int, specs: list[FourierSpec] | tuple[FourierSpec, ...], *,
                   times=None) -> np.ndarray:
    """The n x (2 * sum of orders) seasonal covariate matrix for the
    (1-based) ``times``, default t = 1..T.

    Times beyond T give forecast rows, e.g. ``times=range(T + 1, T + h + 1)``;
    each row depends only on its own t, so any range of rows equals the
    matching rows of a longer design bit for bit. Column order is (spec, k,
    cos-then-sin). An empty spec list yields an n x 0 matrix so a model
    without seasonality needs no special casing.
    """
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    t = np.arange(1, T + 1, dtype=float) if times is None else np.fromiter(times, dtype=float)
    cols = []
    for s in specs:
        for k in range(1, s.order + 1):
            arg = 2.0 * k * np.pi * t / s.period
            cols.append(np.cos(arg))
            cols.append(np.sin(arg))
    return np.column_stack(cols) if cols else np.zeros((t.size, 0))
