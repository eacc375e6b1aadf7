"""Knot grids and the kernel weights that interpolate knot values over time.

Coefficients at time t are convex combinations of latent knot values:
beta_t = sum_j w_j(t) b_j, with weights produced by one of two kernels.
The piecewise-linear (triangular) kernel interpolates between the two
adjacent knots and is used for trend and seasonality; the Gaussian kernel
spreads mass over all knots with scale ``rho`` and is used for regression.
Raw kernel values are always normalized across knots so every weight row
sums to 1.

Both kernels are local, so a KernelMatrix stores only its band, an (n,
width) array, and the knot index of each row's first band column. The
piecewise-linear band is the 2 knots bracketing t. The Gaussian band holds
each row's weights of at least 2^-54 (9 knots at the default spacing),
padded to the widest row. Products with K or K' run over blocks of
TILE_ROWS rows, each scattered into a dense tile over the knots its rows
reach, so no n x J array is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Count, ValidationError, check_value

ROW_SUM_TOL = 1e-12
# Weights below this are dropped from the band. A row sums to 1, and a
# weight under 2^-54 is less than half an ulp of a sum near 1: a kept weight
# can change a row's sum, and a dropped one cannot.
WEIGHT_FLOOR = 2.0**-54
# Rows per dense block of a product; a design of at most this many rows
# (forecast rows, short series) costs one GEMM per product.
TILE_ROWS = 256


@dataclass(frozen=True)
class KnotGrid:
    """Knot time locations t_j within a series of length T.

    Times are 1-based integers, strictly increasing, inside [1, T].
    """

    knot_times: np.ndarray
    T: int

    def __post_init__(self):
        times = np.asarray(self.knot_times)
        # a cast to int would truncate
        if times.dtype.kind == "f" and not (np.isfinite(times) & (np.trunc(times) == times)).all():
            raise ValidationError(f"knot times must be integers, got {times.tolist()}")
        times = times.astype(int)
        object.__setattr__(self, "knot_times", times)
        if self.T < 1:
            raise ValidationError(f"series length must be >= 1, got {self.T}")
        if times.ndim != 1 or times.size < 1:
            raise ValidationError("knot grid needs at least one knot")
        if (times[1:] <= times[:-1]).any():
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
    """Row-stochastic weight matrix K: entry (t, j) is knot j's weight at
    time t+1, stored as its band.

    Row t holds band[t, c] at knot first[t] + c and 0 at every other knot,
    with first[t] + width <= J for the band's width. Rows may extend beyond
    the grid's T (forecast times); every row sums to 1 within 1e-12 and
    entries are nonnegative.
    """

    band: np.ndarray
    first: np.ndarray
    grid: KnotGrid

    def __post_init__(self):
        band = np.asarray(self.band, dtype=float)
        first = np.asarray(self.first, dtype=np.intp)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "first", first)
        if band.ndim != 2 or not band.shape[1] or first.shape != band.shape[:1]:
            raise ValidationError(f"band shape {band.shape} and first shape "
                                  f"{first.shape} do not match")
        if not band.size:
            return
        if first.min() < 0 or first.max() + band.shape[1] > self.grid.n_knots:
            raise ValidationError(f"a band of width {band.shape[1]} runs past the "
                                  f"grid's {self.grid.n_knots} knots")
        if band.min() < 0:
            raise ValidationError("kernel weights must be nonnegative")
        row_sums = band.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > ROW_SUM_TOL:
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValidationError(
                f"kernel row {worst + 1} sums to {row_sums[worst]!r}, expected 1"
            )

    @property
    def n_times(self) -> int:
        return int(self.band.shape[0])

    @property
    def weights(self) -> np.ndarray:
        """The dense (n, J) matrix, built anew on every read."""
        out = np.zeros((self.n_times, self.grid.n_knots))
        if self.n_times:
            lo, k = self.tile(slice(None))
            out[:, lo:lo + k.shape[1]] = k
        return out

    def tile(self, rows: slice) -> tuple[int, np.ndarray]:
        """(lo, K[rows, lo:hi]) for the knots lo..hi-1 that the band of
        these rows covers, as a dense array not to be written to: when
        every row starts at knot lo, it is the band itself."""
        first, band = self.first[rows], self.band[rows]
        lo, hi = int(first.min()), int(first.max()) + band.shape[1]
        if hi - lo == band.shape[1]:
            return lo, band
        out = np.zeros((first.size, hi - lo))
        # row i's band starts at flat offset i * (hi - lo) + first[i] - lo
        starts = np.arange(0, out.size, out.shape[1]) + first - lo
        out.reshape(-1)[starts[:, None] + np.arange(band.shape[1])] = band
        return lo, out

    @property
    def reach(self) -> slice:
        """The knots lo..hi-1 that some row's band covers; K @ x reads only
        x[lo:hi]."""
        return slice(int(self.first.min()), int(self.first.max()) + self.band.shape[1])

    def product(self, x, transpose: bool = False, knot_offset: int = 0) -> np.ndarray:
        """K @ x, or K' @ x when transpose, for x of shape (J, ...) or (n, ...).

        Without transpose, x[j] holds knot knot_offset + j, and x needs only
        the knots of self.reach: x may be a slice of a (J, ...) array.
        Each block of TILE_ROWS rows is one GEMM of its tile, scattered from
        the band as the block is reached, written straight into its rows of
        the result; K' @ x adds the blocks in row order.
        """
        x = np.asarray(x, dtype=float)
        if transpose:
            out = np.zeros((self.grid.n_knots,) + x.shape[1:])
        else:
            out = np.empty((self.n_times,) + x.shape[1:])
        for start in range(0, self.n_times, TILE_ROWS):
            rows = slice(start, start + TILE_ROWS)
            lo, k = self.tile(rows)
            if transpose:
                out[lo:lo + k.shape[1]] += k.T @ x[rows]
            else:
                lo -= knot_offset
                np.matmul(k, x[lo:lo + k.shape[1]], out=out[rows])
        return out


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
    check_value(T, Count, "series length")
    if (count is None) == (distance is None):
        raise ValidationError("specify exactly one of count= or distance=")
    if anchor not in ("end", "start"):
        raise ValidationError(f"anchor must be 'end' or 'start', got {anchor!r}")

    if count is not None:
        check_value(count, Count, "knot count")
        if count > T:
            raise ValidationError(f"knot count {count} exceeds series length {T}")
        if count == 1:
            positions = np.array([(1 + T) / 2.0])
        else:
            positions = 1.0 + (T - 1.0) * np.arange(count) / (count - 1.0)
        times = np.floor(positions + 0.5).astype(int)
    else:
        check_value(distance, Count, "knot distance")
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
    exactly at the boundary rule as well. Each kept weight is the float a
    dense n x J computation of this formula holds: "level" rows are built on
    their 2 knots, "gaussian" rows TILE_ROWS at a time over all J knots,
    keeping the weights of at least WEIGHT_FLOOR.
    """
    if times is None:
        ts = np.arange(1, grid.T + 1, dtype=float)
    else:
        ts = np.fromiter(times, dtype=float)
        if not ts.size:
            raise ValidationError("times must be nonempty")
        if not np.isfinite(ts).all():
            raise ValidationError("times must be finite")
        if ts.min() < 1:
            raise ValidationError(f"time {ts.min()} out of range, must be >= 1")
    if kind == "level":
        first, band = _level_band(grid.knot_times, ts)
        return KernelMatrix(band=band, first=first, grid=grid)
    if kind != "gaussian":
        raise ValidationError(f"unknown kernel kind {kind!r}")
    if rho is None:
        raise ValidationError("gaussian kernel requires rho")
    if rho <= 0:
        raise ValidationError(f"kernel scale rho must be > 0, got {rho}")
    J = grid.n_knots
    los, tiles = [], []
    for start in range(0, ts.size, TILE_ROWS):
        # w = -(t - t_j)^2 / (2 rho^2), then its normalized exp, in place
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = ts[start:start + TILE_ROWS, None] - grid.knot_times.astype(float)
            w *= w
            np.negative(w, out=w)
            w /= 2.0 * rho * rho
        top = w.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():  # 2 rho^2 underflowed or d^2 / (2 rho^2) overflowed
            raise ValidationError(f"kernel scale rho={rho!r} is too small: "
                                  f"a kernel row has no finite weight")
        w -= top
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=1, keepdims=True)
        # a row's kept weights run from its first kept knot lo to its last;
        # every row keeps its largest weight, at least 1/J
        kept = w >= WEIGHT_FLOOR
        w *= kept
        lo = kept.argmax(axis=1)
        tile_width = int((J - kept[:, ::-1].argmax(axis=1) - lo).max())
        # the tile's band: tile_width knots from min(lo, J - tile_width),
        # holding the kept range of every row
        at = (np.minimum(lo, J - tile_width)[:, None] + np.arange(tile_width)
              + J * np.arange(lo.size)[:, None])
        los.append(lo)
        tiles.append(w.ravel()[at])
    lo = np.concatenate(los)
    width = max(tile.shape[1] for tile in tiles)
    first = np.minimum(lo, J - width)
    band = np.zeros((ts.size, width))
    for start, tile in zip(range(0, ts.size, TILE_ROWS), tiles):
        n, tile_width = tile.shape
        if tile_width == width:
            band[start:start + n] = tile
        else:  # its rows start np.minimum(lo, J - tile_width) - first columns in
            shift = np.minimum(lo[start:start + n], J - tile_width) - first[start:start + n]
            at = (start + np.arange(n)[:, None]) * width + shift[:, None] + np.arange(tile_width)
            band.reshape(-1)[at] = tile
    return KernelMatrix(band=band, first=first, grid=grid)


def _level_band(knots: np.ndarray, ts: np.ndarray):
    """(first, band) of the "level" kernel: each row's weights on the two
    knots bracketing t (the only knot when J = 1), normalized by their sum,
    which is the dense row's. Each weight is 0 or at least 2^-54, so none
    falls below WEIGHT_FLOOR."""
    if knots.size == 1:
        return np.zeros(ts.size, dtype=np.intp), np.ones((ts.size, 1))
    first = np.searchsorted(knots, ts, side="right") - 1
    first = np.minimum(np.maximum(first, 0), knots.size - 2)
    left, right = knots[first], knots[first + 1]
    span = (right - left).astype(float)
    band = np.empty((ts.size, 2))
    band[:, 0] = 1.0 - (ts - left) / span
    band[:, 1] = 1.0 - (right - ts) / span
    band[ts <= knots[0]] = (1.0, 0.0)
    band[ts >= knots[-1]] = (0.0, 1.0)
    band /= band.sum(axis=1, keepdims=True)
    return first, band
