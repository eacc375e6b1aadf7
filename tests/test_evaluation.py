import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from btvc.errors import ValidationError
from btvc.evaluation import (
    BacktestPlan,
    MetricReport,
    backtest,
    coef_mse,
    format_metric_report,
    pinball,
    seasonal_naive_forecaster,
    seed_for_split,
    smape,
    split_bounds,
    write_metric_report_csv,
)
from btvc.simulation import SimConfig, simulate_rw
from tests.test_timeframe import make_frame

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# zero or clearly-nonzero: scale invariance cannot survive underflow to 0
scale_safe_floats = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


# ---------------------------------------------------------------------------
# smape
# ---------------------------------------------------------------------------

def test_smape_oracle_values():
    assert smape(np.array([3.0]), np.array([1.0])) == pytest.approx(1.0)
    assert smape(np.array([2.0, 2.0]), np.array([2.0, 2.0])) == 0.0
    assert smape(np.array([0.0]), np.array([0.0])) == 0.0
    # mixed: one zero-zero term contributes 0, the other 2*1/3
    assert smape(np.array([0.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(
        0.5 * (0 + 2 * 1 / 3))


def test_smape_range_and_length_check():
    assert smape(np.array([5.0]), np.array([-5.0])) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        smape(np.array([1.0, 2.0]), np.array([1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: smape(np.zeros(0), np.zeros(0)), "smape needs at least one point"),
    (lambda: pinball(np.ones(3), np.ones(2), 0.5), "pinball shapes disagree: (3,) vs (2,)"),
    (lambda: pinball(np.ones((2, 2)), np.ones((2, 2)), 0.5),
     "pinball shapes disagree: (2, 2) vs (2, 2)"),
    (lambda: seasonal_naive_forecaster(7)(make_frame(T=6, P=1), 3, None, 0),
     "training window shorter than the naive period"),
])
def test_metric_and_naive_forecaster_errors_name_their_problem(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


@settings(deadline=None)
@given(st.lists(scale_safe_floats, min_size=1, max_size=30).map(np.array),
       st.data())
def test_smape_symmetry_and_scale_invariance(f, data):
    a = np.array(data.draw(
        st.lists(scale_safe_floats, min_size=f.size, max_size=f.size)))
    assert smape(f, a) == pytest.approx(smape(a, f), rel=1e-12)
    c = data.draw(st.floats(1e-3, 1e3, allow_nan=False))
    assert smape(c * f, c * a) == pytest.approx(smape(f, a), rel=1e-9)
    assert 0.0 <= smape(f, a) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# pinball
# ---------------------------------------------------------------------------

def test_pinball_oracle_values():
    y = np.array([1.0])
    assert pinball(y, np.array([1.0]), 0.5) == 0.0
    assert pinball(np.array([1.0]), np.array([0.0]), 0.5) == pytest.approx(0.5)
    assert pinball(np.array([0.0]), np.array([1.0]), 0.975) == pytest.approx(0.025)


def test_pinball_tau_domain():
    y = np.array([1.0])
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            pinball(y, y, bad)


@settings(deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=30), st.data())
def test_pinball_median_is_half_mae(vals, data):
    y = np.array(vals)
    q = np.array(data.draw(
        st.lists(finite_floats, min_size=y.size, max_size=y.size)))
    assert pinball(y, q, 0.5) == pytest.approx(np.abs(y - q).mean() / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# coef_mse
# ---------------------------------------------------------------------------

def test_coef_mse_values():
    truth = np.zeros((10, 2))
    est = truth.copy()
    est[:, 1] += 0.1
    out = coef_mse(est, truth)
    assert np.allclose(out, [0.0, 0.01])
    with pytest.raises(ValidationError):
        coef_mse(np.zeros((10, 2)), np.zeros((9, 2)))


# ---------------------------------------------------------------------------
# split bounds
# ---------------------------------------------------------------------------

def test_six_split_example():
    plan = BacktestPlan(horizon=28, splits=6)
    bounds = split_bounds(400, plan)
    test_ends = [b[2] for b in bounds]
    assert test_ends == [260, 288, 316, 344, 372, 400]
    for train_end, test_start, test_end in bounds:
        assert test_start == train_end + 1
        assert test_end - test_start + 1 == 28


def test_single_split_is_last_window():
    bounds = split_bounds(100, BacktestPlan(horizon=28, splits=1))
    assert bounds == [(72, 73, 100)]


def test_infeasible_plan_rejected():
    with pytest.raises(ValidationError, match="infeasible"):
        split_bounds(100, BacktestPlan(horizon=28, splits=6, min_train=30))



@pytest.mark.parametrize("field, value, message", [
    ("horizon", 2.5, "horizon expects int, got 2.5"),
    ("horizon", float("nan"), "horizon expects int, got nan"),
    ("splits", True, "splits expects int, got True"),
    ("min_train", "3", "min_train expects int, got '3'"),
    ("stride", 0, "stride must be >= 1, got 0"),
])
def test_plan_fields_are_checked_by_type_and_range(field, value, message):
    # horizon=2.5 used to give split bounds (45.0, 46.0, 47.5) at T=60,
    # nan and True passed, and "3" ended in a TypeError
    with pytest.raises(ValidationError) as info:
        BacktestPlan(**{field: value})
    assert str(info.value) == message

def enumerate_bounds(T, horizon, splits, stride):
    """Independent enumeration: walk back from T in stride steps."""
    out = []
    for k in range(splits):  # k = 0 is the oldest split
        end = T - (splits - 1 - k) * stride
        out.append((end - horizon, end - horizon + 1, end))
    return out


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_split_bounds_match_enumeration(data):
    T = data.draw(st.integers(50, 1000))
    horizon = data.draw(st.integers(1, 40))
    splits = data.draw(st.integers(1, 8))
    stride = data.draw(st.one_of(st.none(), st.integers(1, 40)))
    plan = BacktestPlan(horizon=horizon, splits=splits, stride=stride)
    expected = enumerate_bounds(T, horizon, splits, plan.effective_stride)
    if expected[0][0] < 1:
        with pytest.raises(ValidationError):
            split_bounds(T, plan)
    else:
        assert split_bounds(T, plan) == expected


# ---------------------------------------------------------------------------
# MetricReport
# ---------------------------------------------------------------------------

def test_metric_report_mean_and_sd():
    r = MetricReport([1, 3])
    assert r.per_split == (1.0, 3.0)
    assert (r.mean, r.sd) == (2.0, float(np.std([1, 3], ddof=1)))
    r = MetricReport([0.5])
    assert r.sd == 0.0
    with pytest.raises(ValidationError):
        MetricReport([])


def test_metric_report_csv_and_table(tmp_path):
    r = MetricReport([0.1, 0.2, 0.3])
    p = tmp_path / "report.csv"
    write_metric_report_csv(r, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "split,smape"
    assert len(lines) == 6  # header + 3 splits + mean + sd
    assert lines[1] == "1,0.1"
    table = format_metric_report(r)
    assert "mean" in table and "0.2" in table


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

def test_backtest_feeds_clean_expanding_windows():
    ds = simulate_rw(SimConfig(T=200, seed=0))
    plan = BacktestPlan(horizon=20, splits=3)
    seen = []

    def recorder(train, horizon, future_x, seed):
        seen.append((train.n_times, horizon, future_x.shape, seed))
        # forecast the actual values: SMAPE must come out 0
        start = train.n_times
        return ds.frame.response[start:start + horizon]

    report = backtest(ds.frame, recorder, plan, root_seed=7)
    assert report.mean == 0.0
    assert [s[0] for s in seen] == [140, 160, 180]
    assert all(s[1] == 20 and s[2] == (20, 3) for s in seen)
    assert [s[3] for s in seen] == [seed_for_split(7, i) for i in range(3)]
    # future regressors are the actual test-window rows
    assert np.array_equal(
        ds.frame.regressors[140:160],
        ds.frame.regressors[seen[0][0]:seen[0][0] + 20])


def test_backtest_shape_mismatch_rejected():
    ds = simulate_rw(SimConfig(T=100, seed=1))

    def bad(train, horizon, future_x, seed):
        return np.zeros(horizon - 1)

    with pytest.raises(ValidationError, match="shape"):
        backtest(ds.frame, bad, BacktestPlan(horizon=10, splits=1))


def test_seed_for_split_is_stable_and_distinct():
    seeds = [seed_for_split(3, i) for i in range(6)]
    assert seeds == [seed_for_split(3, i) for i in range(6)]
    assert len(set(seeds)) == 6
    assert seed_for_split(3, 0) != seed_for_split(4, 0)


def test_seasonal_naive_repeats_last_cycle():
    f = make_frame(T=14, P=1, y=np.arange(14, dtype=float))
    fc = seasonal_naive_forecaster(7)
    out = fc(f, 10, None, 0)
    assert out.tolist() == [7, 8, 9, 10, 11, 12, 13, 7, 8, 9]
    with pytest.raises(ValidationError):
        seasonal_naive_forecaster(0)
