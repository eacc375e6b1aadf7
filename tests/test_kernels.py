import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from btvc.errors import ValidationError
from btvc.kernels import (
    TILE_ROWS,
    WEIGHT_FLOOR,
    KernelMatrix,
    KnotGrid,
    build_grid,
    kernel_matrix,
)

ROW_SUM_TOL = 1e-12


def row(grid, kind, t, rho=None):
    return kernel_matrix(grid, kind, rho=rho, times=[t]).weights[0]


def test_build_grid_distance_anchor_end():
    grid = build_grid(10, distance=4)
    assert grid.knot_times.tolist() == [2, 6, 10]


def test_build_grid_distance_anchor_start():
    grid = build_grid(10, distance=4, anchor="start")
    assert grid.knot_times.tolist() == [1, 5, 9]


def test_build_grid_count_includes_endpoints():
    for count in (2, 3, 5, 10):
        grid = build_grid(100, count=count)
        assert grid.knot_times[0] == 1
        assert grid.knot_times[-1] == 100
        assert grid.n_knots == count


def test_build_grid_count_one():
    grid = build_grid(50, count=1)
    assert grid.n_knots == 1


def test_build_grid_rejects_both_or_neither():
    with pytest.raises(ValidationError):
        build_grid(10, count=3, distance=4)
    with pytest.raises(ValidationError):
        build_grid(10)


@pytest.mark.parametrize("call, message", [
    (lambda: build_grid(10, distance=3, anchor="middle"),
     "anchor must be 'end' or 'start', got 'middle'"),
    (lambda: build_grid(10, distance=11), "knot distance 11 exceeds series length 10"),
    (lambda: KnotGrid(knot_times=[1], T=0), "series length must be >= 1, got 0"),
    (lambda: KernelMatrix(band=np.array([[1.5, -0.5]]), first=[0],
                          grid=build_grid(10, distance=5)),
     "kernel weights must be nonnegative"),
    (lambda: kernel_matrix(build_grid(10, distance=5), "level", times=[1.0, np.nan]),
     "times must be finite"),
    (lambda: kernel_matrix(build_grid(10, distance=5), "cubic"), "unknown kernel kind 'cubic'"),
])
def test_grid_and_kernel_errors_name_their_problem(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_grid_rejects_out_of_range_times():
    with pytest.raises(ValidationError):
        KnotGrid(knot_times=[0, 5], T=10)
    with pytest.raises(ValidationError):
        KnotGrid(knot_times=[5, 11], T=10)
    with pytest.raises(ValidationError):
        KnotGrid(knot_times=[5, 5], T=10)


def test_grid_rejects_fractional_times():
    # the int cast used to truncate them to [1, 3]
    with pytest.raises(ValidationError,
                       match=r"^knot times must be integers, got \[1\.5, 3\.7\]$"):
        KnotGrid(knot_times=[1.5, 3.7], T=5)
    with pytest.raises(ValidationError,
                       match=r"^knot times must be integers, got \[1\.0, nan\]$"):
        KnotGrid(knot_times=[1.0, float("nan")], T=5)
    assert KnotGrid(knot_times=[1.0, 3.0], T=5).knot_times.tolist() == [1, 3]


def test_level_kernel_interpolates_between_adjacent_knots():
    grid = KnotGrid(knot_times=[2, 6, 10], T=10)
    # t=4 lies midway between knots at 2 and 6
    w = row(grid, "level", 4.0)
    assert np.allclose(w, [0.5, 0.5, 0.0])
    # t=5 is 3/4 of the way from 2 to 6
    w = row(grid, "level", 5.0)
    assert np.allclose(w, [0.25, 0.75, 0.0])
    # exactly on a knot
    w = row(grid, "level", 6.0)
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_level_kernel_boundary_rule():
    grid = KnotGrid(knot_times=[3, 7], T=10)
    assert np.allclose(row(grid, "level", 1.0), [1.0, 0.0])
    assert np.allclose(row(grid, "level", 3.0), [1.0, 0.0])
    assert np.allclose(row(grid, "level", 9.0), [0.0, 1.0])
    assert np.allclose(row(grid, "level", 25.0), [0.0, 1.0])


def test_gaussian_kernel_matches_direct_formula():
    grid = KnotGrid(knot_times=[2, 5, 9], T=10)
    rho = 3.0
    for t in (1.0, 4.5, 10.0, 17.0):
        raw = np.exp(-((t - grid.knot_times) ** 2) / (2 * rho**2))
        expected = raw / raw.sum()
        assert np.allclose(row(grid, "gaussian", t, rho), expected, atol=1e-14)


def test_gaussian_kernel_far_row_stays_normalized():
    # log-space path must survive distances that underflow exp()
    grid = KnotGrid(knot_times=[1, 3], T=500)
    w = row(grid, "gaussian", 500.0, rho=1.0)
    assert abs(w.sum() - 1.0) <= ROW_SUM_TOL
    assert w[1] > w[0]


@settings(deadline=None)
@given(
    T=st.integers(10, 200),
    extra=st.integers(0, 28),
    data=st.data(),
)
def test_kernel_rows_sum_to_one_including_forecast_rows(T, extra, data):
    n_knots = data.draw(st.integers(1, min(12, T)))
    times = data.draw(
        st.lists(st.integers(1, T), min_size=n_knots, max_size=n_knots, unique=True)
    )
    grid = KnotGrid(knot_times=sorted(times), T=T)
    for kind, rho in (("level", None), ("gaussian", 7.0)):
        km = kernel_matrix(grid, kind, rho=rho, times=range(1, T + extra + 1))
        assert km.weights.shape == (T + extra, grid.n_knots)
        assert np.all(km.weights >= 0)
        assert np.max(np.abs(km.weights.sum(axis=1) - 1.0)) <= ROW_SUM_TOL


@settings(deadline=None)
@given(T=st.integers(10, 150), data=st.data())
def test_level_rows_have_at_most_two_nonzeros(T, data):
    n_knots = data.draw(st.integers(1, 10))
    times = data.draw(
        st.lists(st.integers(1, T), min_size=n_knots, max_size=n_knots, unique=True)
    )
    grid = KnotGrid(knot_times=sorted(times), T=T)
    km = kernel_matrix(grid, "level", times=range(1, T + 14 + 1))
    assert np.max(np.count_nonzero(km.weights, axis=1)) <= 2


def dense_kernel(weights, grid):
    """A KernelMatrix holding every entry of a dense weight matrix: a band
    as wide as the grid, starting at knot 0 on every row."""
    weights = np.asarray(weights, dtype=float)
    return KernelMatrix(band=weights, first=np.zeros(weights.shape[0], dtype=int), grid=grid)


def reference_rows(grid, kind, ts, rho=None):
    """The dense kernel formulas evaluated one time at a time, with Gaussian
    weights below the smallest normal float set to 0; kernel_matrix keeps
    the entries of at least WEIGHT_FLOOR (see banded)."""
    knots = grid.knot_times
    rows = []
    for t in ts:
        if kind == "gaussian":
            log_w = -((t - knots.astype(float)) ** 2) / (2.0 * rho * rho)
            w = np.exp(log_w - log_w.max())
            w = w / w.sum()
        else:
            w = np.zeros(grid.n_knots)
            if t <= knots[0]:
                w[0] = 1.0
            elif t >= knots[-1]:
                w[-1] = 1.0
            else:
                i = int(np.searchsorted(knots, t, side="right")) - 1
                span = float(knots[i + 1] - knots[i])
                w[i] = 1.0 - (t - knots[i]) / span
                w[i + 1] = 1.0 - (knots[i + 1] - t) / span
        rows.append(w)
    w = np.vstack(rows)
    w = w / w.sum(axis=1, keepdims=True)
    if kind == "gaussian":
        w[w < np.finfo(float).tiny] = 0.0
    return w


@settings(deadline=None)
@given(
    T=st.integers(1, 400),
    extra=st.integers(0, 60),
    rho=st.floats(0.3, 100.0),
    data=st.data(),
)
def test_kernel_matrix_equals_row_by_row_reference(T, extra, rho, data):
    n_knots = data.draw(st.integers(1, min(40, T)))
    times = data.draw(
        st.lists(st.integers(1, T), min_size=n_knots, max_size=n_knots, unique=True)
    )
    grid = KnotGrid(knot_times=sorted(times), T=T)
    fractional = data.draw(st.lists(st.floats(1.0, T + extra + 1.0), min_size=1, max_size=5))
    for ts in (range(1, T + extra + 1), fractional):
        for kind in ("level", "gaussian"):
            got = kernel_matrix(grid, kind, rho=rho, times=ts).weights
            assert np.array_equal(got, banded(reference_rows(grid, kind, ts, rho)))


def banded(w):
    """The dense reference with the entries below WEIGHT_FLOOR dropped."""
    return np.where(w >= WEIGHT_FLOOR, w, 0.0)


def test_gaussian_weights_have_no_subnormals():
    # a narrow kernel over a long series: the raw weights of far knots fall
    # into the subnormal range, exp(-745) .. exp(-708)
    grid = build_grid(3000, distance=30)
    rho = 15.0
    w = kernel_matrix(grid, "gaussian", rho=rho, times=range(1, 3029)).weights
    log_w = -((np.arange(1, 3029)[:, None] - grid.knot_times) ** 2) / (2.0 * rho * rho)
    assert np.any((log_w > -740) & (log_w < -710))
    assert not np.any((w != 0) & (w < np.finfo(float).tiny))


def test_level_weights_are_zero_or_kept_by_the_floor():
    # a time one float step from a knot gives its neighbour the smallest
    # nonzero weight, 1 - (largest float below 1) = 2^-53, which the floor keeps
    grid = build_grid(3000, distance=30)
    knots = grid.knot_times.astype(float)
    ts = np.concatenate([np.nextafter(knots, 0), np.nextafter(knots, np.inf)])
    band = kernel_matrix(grid, "level", times=ts[ts >= 1]).band
    assert band[band > 0].min() == 2.0**-53 >= WEIGHT_FLOOR


def test_kernel_matrix_times_matches_extended_slice():
    grid = build_grid(60, distance=20)
    full = kernel_matrix(grid, "gaussian", rho=10.0, times=range(1, 89))
    tail = kernel_matrix(grid, "gaussian", rho=10.0, times=range(61, 89))
    assert np.array_equal(full.weights[60:], tail.weights)
    full_lev = kernel_matrix(grid, "level", times=range(1, 89))
    tail_lev = kernel_matrix(grid, "level", times=range(61, 89))
    assert np.array_equal(full_lev.weights[60:], tail_lev.weights)


def test_gaussian_requires_rho():
    grid = build_grid(10, distance=5)
    with pytest.raises(ValidationError):
        kernel_matrix(grid, "gaussian")


def test_kernel_matrix_rejects_bad_rho_and_times():
    grid = build_grid(10, distance=5)
    for rho in (0.0, -1.0):
        with pytest.raises(ValidationError, match="rho must be > 0"):
            kernel_matrix(grid, "gaussian", rho=rho)
    for kind in ("level", "gaussian"):
        with pytest.raises(ValidationError, match="out of range"):
            kernel_matrix(grid, kind, rho=1.0, times=[0.5, 3])
        with pytest.raises(ValidationError, match="nonempty"):
            kernel_matrix(grid, kind, rho=1.0, times=[])


@pytest.mark.parametrize("rho", [1e-300, 1e-160, 1e-154])
def test_a_rho_too_small_for_a_finite_weight_is_a_validation_error(rho):
    # 2 rho^2 underflows to 0 (1e-300, 1e-160) or d^2 / (2 rho^2) overflows
    # (1e-154), so some row has no finite log-weight: these used to end in an
    # IndexError or a row-sum error after numpy's RuntimeWarnings
    grid = build_grid(100, distance=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"rho={rho!r} is too small"):
            kernel_matrix(grid, "gaussian", rho=rho)
        assert kernel_matrix(grid, "gaussian", rho=1e-150).n_times == 100


# (grid, times, rho) of each band case: uneven count spacing, both distance
# anchors, forecast rows past T, one knot, T = 1..3, rows out of time order,
# and a rho so wide that every row keeps all J knots
BAND_CASES = {
    "count_uneven": (build_grid(97, count=13), range(1, 98), 3.5),
    "distance_end": (build_grid(3000, distance=30), range(1, 3001), 15.0),
    "distance_start": (build_grid(700, distance=30, anchor="start"), range(1, 701), 15.0),
    "forecast_rows": (build_grid(600, distance=30), range(1, 629), 15.0),
    "forecast_only": (build_grid(600, distance=30), range(601, 629), 15.0),
    "single_knot": (build_grid(300, count=1), range(1, 329), 15.0),
    "T1": (build_grid(1, count=1), range(1, 2), 1.0),
    "T2": (build_grid(2, distance=1), range(1, 3), 1.0),
    "T3": (build_grid(3, count=2), range(1, 4), 1.0),
    "unordered_times": (build_grid(400, distance=20), [390.5, 2.25, 400.0, 1.0, 201.75], 6.0),
    "full_width": (build_grid(520, distance=40), range(1, 521), 1e4),
}


@pytest.mark.parametrize("kind", ["level", "gaussian"])
@pytest.mark.parametrize("case", BAND_CASES)
def test_band_matches_the_dense_reference(case, kind):
    grid, times, rho = BAND_CASES[case]
    km = kernel_matrix(grid, kind, rho=rho, times=times)
    ref = reference_rows(grid, kind, times, rho)
    width = km.band.shape[1]
    assert km.first.min() >= 0 and km.first.max() + width <= grid.n_knots
    # each kept entry is the reference's float, and only those below the
    # floor are dropped
    cols = km.first[:, None] + np.arange(width)
    assert np.array_equal(km.band, np.take_along_axis(banded(ref), cols, axis=1))
    assert np.array_equal(km.weights, banded(ref))
    if case == "full_width" and kind == "gaussian":
        assert width == grid.n_knots
    if case == "distance_end":  # the default spacing: 100 knots
        assert width == (2 if kind == "level" else 9)
    rng = np.random.default_rng(len(case))
    for trailing in ((), (3,)):
        b = rng.normal(size=(grid.n_knots, *trailing))
        r = rng.normal(size=(len(ref), *trailing))
        np.testing.assert_allclose(km.product(b), ref @ b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(km.product(r, transpose=True), ref.T @ r,
                                   rtol=1e-12, atol=1e-12)


def test_products_of_a_design_longer_than_one_tile_use_every_tile():
    grid = build_grid(3 * TILE_ROWS + 5, distance=7)
    km = kernel_matrix(grid, "gaussian", rho=3.5)
    assert km.first[-1] > km.first[TILE_ROWS] > km.first[0] == 0
    b = np.arange(grid.n_knots, dtype=float)
    np.testing.assert_allclose(km.product(b), km.weights @ b, rtol=1e-12)
    np.testing.assert_allclose(km.product(np.ones(km.n_times), transpose=True),
                               km.weights.sum(axis=0), rtol=1e-12)


def dense_tile_product(km, x):
    """K @ x from the dense weights, each block of TILE_ROWS rows over the
    knots its rows reach. The zero columns outside that reach are left out:
    a BLAS product through them may group the same sum differently (with
    OpenBLAS it does for a 1-D x and a 300-column x)."""
    w = km.weights
    out = np.empty((km.n_times,) + x.shape[1:])
    for start in range(0, km.n_times, TILE_ROWS):
        rows = slice(start, start + TILE_ROWS)
        lo, tile = km.tile(rows)
        hi = lo + tile.shape[1]
        out[rows] = w[rows, lo:hi] @ x[lo:hi]
    return out


@pytest.mark.parametrize("kind", ["level", "gaussian"])
@pytest.mark.parametrize("times", [None, range(421, 422), range(421, 449), range(421, 721),
                                   range(100, 700)],
                         ids=["training", "h1", "h28", "h300", "straddling"])
def test_products_equal_the_dense_weights_bit_for_bit(kind, times):
    grid = build_grid(420, distance=30)
    km = kernel_matrix(grid, kind, rho=15.0, times=times)
    reach = km.reach
    assert km.first.min() == reach.start and km.first.max() + km.band.shape[1] == reach.stop
    rng = np.random.default_rng(7)
    J = grid.n_knots
    for x in (rng.normal(size=J), rng.normal(size=(J, 6)), rng.normal(size=(5, J)).T,
              rng.normal(size=(J, 300))):
        got = km.product(x)
        assert got.tobytes() == dense_tile_product(km, x).tobytes()
        # x needs only the knots of the reach, numbered from its start
        assert km.product(x[reach], knot_offset=reach.start).tobytes() == got.tobytes()
        np.testing.assert_allclose(got, km.weights @ x, rtol=1e-12, atol=1e-12)


def test_kernel_matrix_rejects_a_band_outside_its_grid():
    grid = build_grid(10, distance=5)
    with pytest.raises(ValidationError, match="runs past"):
        KernelMatrix(band=np.full((3, 2), 0.5), first=[0, 1, 1], grid=grid)
    with pytest.raises(ValidationError, match="runs past"):
        KernelMatrix(band=np.full((3, 1), 1.0), first=[0, -1, 1], grid=grid)
    with pytest.raises(ValidationError, match="do not match"):
        KernelMatrix(band=np.full((3, 1), 1.0), first=[0, 1], grid=grid)
    with pytest.raises(ValidationError, match="sums to"):
        KernelMatrix(band=np.full((3, 2), 0.25), first=[0, 0, 0], grid=grid)
