"""Knot grids and the kernel weights that interpolate knot values over time.

Coefficients at time t are convex combinations of latent knot values:
beta_t = sum_j w_j(t) b_j, with weights produced by one of two kernels.
The piecewise-linear (triangular) kernel interpolates between the two
adjacent knots and is used for trend and seasonality; the Gaussian kernel
spreads mass over all knots with scale ``rho`` and is used for regression.
Raw kernel values are always normalized across knots so every weight row
sums to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class KnotGrid:
    """Knot time locations t_j within a series of length T.

    Times are 1-based integers, strictly increasing, inside [1, T].
    """

    knot_times: np.ndarray
    T: int

    def __post_init__(self):
        times = np.asarray(self.knot_times, dtype=int)
        object.__setattr__(self, "knot_times", times)
        if self.T < 1:
            raise ValidationError(f"series length must be >= 1, got {self.T}")
        if times.ndim != 1 or times.size < 1:
            raise ValidationError("knot grid needs at least one knot")
        if np.any(np.diff(times) <= 0):
            raise ValidationError(f"knot times must be strictly increasing, got {times.tolist()}")
        if times[0] < 1 or times[-1] > self.T:
            raise ValidationError(
                f"knot times must lie in [1, {self.T}], got {times.tolist()}"
            )

    @property
    def n_knots(self) -> int:
        return int(self.knot_times.size)


@dataclass(frozen=True)
class KernelMatrix:
    """Row-stochastic weight matrix: entry (t, j) is knot j's weight at time t+1.

    Rows may extend beyond the grid's T (forecast times); every row sums
    to 1 within 1e-12 and entries are nonnegative.
    """

    weights: np.ndarray
    grid: KnotGrid

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[1] != self.grid.n_knots:
            raise ValidationError(f"weight matrix shape {w.shape} does not match grid")
        if np.any(w < 0):
            raise ValidationError("kernel weights must be nonnegative")
        row_sums = w.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValidationError(
                f"kernel row {worst + 1} sums to {row_sums[worst]!r}, expected 1"
            )

    @property
    def n_times(self) -> int:
        return int(self.weights.shape[0])


def build_grid(T: int, *, count: int | None = None, distance: int | None = None,
               anchor: str = "end") -> KnotGrid:
    """Place evenly spaced knots over a series of length T.

    Exactly one of ``count`` / ``distance`` must be given. Count-based
    placement puts knots at rounded quantile positions of {1..T} (so the
    endpoints are always included for count >= 2). Distance-based placement
    with anchor="end" puts the last knot at T and steps backward by
    ``distance`` while the position stays >= 1; anchor="start" mirrors this
    from t=1 forward.
    """
    if T < 1:
        raise ValidationError(f"series length must be >= 1, got {T}")
    if (count is None) == (distance is None):
        raise ValidationError("specify exactly one of count= or distance=")
    if anchor not in ("end", "start"):
        raise ValidationError(f"anchor must be 'end' or 'start', got {anchor!r}")

    if count is not None:
        if count < 1:
            raise ValidationError(f"knot count must be >= 1, got {count}")
        if count > T:
            raise ValidationError(f"knot count {count} exceeds series length {T}")
        if count == 1:
            positions = np.array([(1 + T) / 2.0])
        else:
            positions = 1.0 + (T - 1.0) * np.arange(count) / (count - 1.0)
        times = np.floor(positions + 0.5).astype(int)
    else:
        if distance < 1:
            raise ValidationError(f"knot distance must be >= 1, got {distance}")
        if distance > T:
            raise ValidationError(f"knot distance {distance} exceeds series length {T}")
        if anchor == "end":
            times = np.arange(T, 0, -distance)[::-1]
        else:
            times = np.arange(1, T + 1, distance)
    return KnotGrid(knot_times=times, T=T)


def kernel_matrix(grid: KnotGrid, kind: str, *, rho: float | None = None,
                  times=None) -> KernelMatrix:
    """Kernel weight rows for the (1-based) ``times``, default 1..grid.T.

    ``kind`` is "level" or "gaussian"; the Gaussian kind requires ``rho``.
    Times beyond T give the forecast rows, e.g. ``times=range(T + 1, T + h + 1)``.

    "level" is piecewise linear: 1 - |t - t_j| / (t_{i+1} - t_i) on the two
    knots bracketing t, zero elsewhere; outside [t_1, t_J] all mass goes to
    the nearest boundary knot (constant extrapolation, which also covers
    forecast times). "gaussian" is exp(-(t - t_j)^2 / (2 rho^2)) normalized
    per row, computed in log space so far-away rows cannot underflow to an
    all-zero row. All rows are renormalized so row-stochasticity holds
    exactly at the boundary rule as well; Gaussian weights below the
    smallest normal float are then set to 0.
    """
    if times is None:
        ts = np.arange(1, grid.T + 1, dtype=float)
    else:
        ts = np.fromiter(times, dtype=float)
        if not ts.size:
            raise ValidationError("times must be nonempty")
        if ts.min() < 1:
            raise ValidationError(f"time {ts.min()} out of range, must be >= 1")
    knots = grid.knot_times
    if kind == "level":
        w = np.zeros((ts.size, grid.n_knots))
        first = ts <= knots[0]
        last = ~first & (ts >= knots[-1])
        w[first, 0] = 1.0
        w[last, -1] = 1.0
        rows = np.flatnonzero(~(first | last))
        t = ts[rows]
        i = np.searchsorted(knots, t, side="right") - 1
        span = (knots[i + 1] - knots[i]).astype(float)
        w[rows, i] = 1.0 - (t - knots[i]) / span
        w[rows, i + 1] = 1.0 - (knots[i + 1] - t) / span
    elif kind == "gaussian":
        if rho is None:
            raise ValidationError("gaussian kernel requires rho")
        if rho <= 0:
            raise ValidationError(f"kernel scale rho must be > 0, got {rho}")
        log_w = -((ts[:, None] - knots.astype(float)) ** 2) / (2.0 * rho * rho)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        w = w / w.sum(axis=1, keepdims=True)
    else:
        raise ValidationError(f"unknown kernel kind {kind!r}")
    w = w / w.sum(axis=1, keepdims=True)
    if kind == "gaussian":
        # Gaussian weights far from their knot underflow to subnormal numbers,
        # which slow every product through them several-fold. Each changes a
        # product by under 1e-300 times the other factor, far below its rounding.
        w[w < np.finfo(float).tiny] = 0.0
    return KernelMatrix(weights=w, grid=grid)
