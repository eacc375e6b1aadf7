import numpy as np
import pytest
from scipy import stats

from btvc.errors import ValidationError
from btvc.simulation import (
    MultiplicativeSimConfig,
    SimConfig,
    SparsitySpec,
    simulate_multiplicative,
    simulate_rw,
    write_truth_csv,
)


def test_shapes_and_reconstruction():
    ds = simulate_rw(SimConfig(seed=0))
    assert ds.frame.n_times == 300
    assert ds.frame.n_regressors == 3
    assert ds.true_trend.shape == (300,)
    assert ds.true_coefficients.shape == (300, 3)
    # y - trend - sum(beta x) must be the N(0, 0.3) noise stream
    noise = ds.frame.response - ds.true_trend - np.einsum(
        "tp,tp->t", ds.true_coefficients, ds.frame.regressors)
    assert abs(noise.mean()) < 0.1
    assert 0.25 < noise.std() < 0.35


def test_seed_determinism():
    a = simulate_rw(SimConfig(seed=42))
    b = simulate_rw(SimConfig(seed=42))
    assert np.array_equal(a.frame.response, b.frame.response)
    assert np.array_equal(a.frame.regressors, b.frame.regressors)
    assert np.array_equal(a.true_coefficients, b.true_coefficients)
    c = simulate_rw(SimConfig(seed=43))
    assert not np.array_equal(a.frame.response, c.frame.response)


def test_degenerate_walks():
    ds = simulate_rw(SimConfig(coef_step_sd=0.0, coef_init=0.5, seed=1))
    assert np.all(ds.true_coefficients == 0.5)
    exact = simulate_rw(SimConfig(
        T=10, P=1, trend_step_sd=0.0, coef_step_sd=0.0, coef_init=1.0,
        covariate_sd=0.0, covariate_mean=3.0, noise_sd=0.0, seed=2))
    assert np.allclose(exact.frame.response, 3.0)
    assert np.array_equal(exact.true_trend, np.zeros(10))


def test_step_variance_within_chi_square_bounds():
    # sample variance of the coefficient steps should match coef_step_sd^2
    cfg = SimConfig(seed=7, reflect=False)
    ds = simulate_rw(cfg)
    steps = np.diff(ds.true_coefficients, axis=0)
    n = steps.shape[0]
    lo = stats.chi2.ppf(0.0005, n - 1) / (n - 1)
    hi = stats.chi2.ppf(0.9995, n - 1) / (n - 1)
    for p in range(3):
        ratio = steps[:, p].var(ddof=1) / cfg.coef_step_sd**2
        assert lo < ratio < hi
        assert 0.5 < ratio < 2.0


def test_reflection_keeps_coefficients_nonnegative():
    ds = simulate_rw(SimConfig(seed=11, coef_init=0.05, coef_step_sd=0.2))
    assert np.all(ds.true_coefficients >= 0)
    un = simulate_rw(SimConfig(seed=11, coef_init=0.05, coef_step_sd=0.2, reflect=False))
    assert un.true_coefficients.min() < 0


def test_covariates_independent_of_noise():
    ds = simulate_rw(SimConfig(seed=13))
    noise = ds.frame.response - ds.true_trend - np.einsum(
        "tp,tp->t", ds.true_coefficients, ds.frame.regressors)
    for p in range(3):
        r = np.corrcoef(ds.frame.regressors[:, p], noise)[0, 1]
        assert abs(r) < 0.15


class TestSparse:
    def test_full_zero_window(self):
        sp = SparsitySpec(channel=1, start=100, end=200, zero_prob=1.0)
        ds = simulate_rw(SimConfig(seed=3, sparsity=sp))
        assert np.all(ds.frame.regressors[99:200, 1] == 0.0)
        assert np.all(ds.frame.regressors[:99, 1] != 0.0)
        assert np.all(ds.frame.regressors[200:, 1] != 0.0)

    def test_zero_prob_zero_matches_plain_simulation(self):
        sp = SparsitySpec(channel=0, start=50, end=80, zero_prob=0.0)
        a = simulate_rw(SimConfig(seed=5, sparsity=sp))
        b = simulate_rw(SimConfig(seed=5))
        assert np.array_equal(a.frame.regressors, b.frame.regressors)
        assert np.array_equal(a.frame.response, b.frame.response)

    def test_partial_probability_zeroes_a_fraction(self):
        sp = SparsitySpec(channel=2, start=1, end=300, zero_prob=0.4)
        ds = simulate_rw(SimConfig(seed=6, sparsity=sp))
        frac = np.mean(ds.frame.regressors[:, 2] == 0.0)
        assert 0.25 < frac < 0.55

    def test_validation(self):
        with pytest.raises(ValidationError):
            SparsitySpec(channel=0, start=10, end=5)
        with pytest.raises(ValidationError):
            SimConfig(sparsity=SparsitySpec(channel=0, start=1, end=400))
        with pytest.raises(ValidationError):
            SimConfig(sparsity=SparsitySpec(channel=5, start=1, end=10))
        # these ended in a numpy TypeError, a SeedSequence ValueError, or passed
        with pytest.raises(ValidationError, match=r"^T expects int, got 300\.0$"):
            SimConfig(T=300.0)
        for config in (SimConfig, MultiplicativeSimConfig):
            with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
                config(seed=-1)
            # a negative start, scalar or per channel, is rejected by both
            for init in (-0.5, (0.2, -0.1, 0.3)):
                with pytest.raises(ValidationError, match="^coef_init entries must be >= 0$"):
                    config(coef_init=init)
        with pytest.raises(ValidationError, match=r"^channel expects int, got 0\.5$"):
            SparsitySpec(channel=0.5, start=1, end=3)


def weekly_pattern(cfg):
    t = np.arange(1, cfg.T + 1, dtype=float)
    arg = 2 * np.pi * t / cfg.period
    return cfg.seasonal_cos * np.cos(arg) + cfg.seasonal_sin * np.sin(arg)


class TestMultiplicative:
    def test_log_scale_reconstruction(self):
        cfg = MultiplicativeSimConfig(seed=0)
        ds = simulate_multiplicative(cfg)
        assert ds.frame.n_times == 420
        assert np.all(ds.frame.response > 0)
        assert np.all(ds.frame.regressors >= 0)
        # ln y - trend - seasonal - sum(beta ln x) = noise ~ N(0, noise_sd)
        resid = np.log(ds.frame.response) - ds.true_trend - weekly_pattern(cfg)
        resid -= np.einsum("tp,tp->t", ds.true_coefficients,
                           np.log(ds.frame.regressors))
        assert abs(resid.mean()) < 0.02
        assert 0.04 < resid.std() < 0.06

    def test_data_carries_the_weekly_pattern(self):
        cfg = MultiplicativeSimConfig(seed=1)
        ds = simulate_multiplicative(cfg)
        detrended = np.log(ds.frame.response) - ds.true_trend
        by_dow = np.array([detrended[k::7].mean() for k in range(7)])
        pattern = weekly_pattern(cfg)[:7]
        r = np.corrcoef(by_dow - by_dow.mean(), pattern - pattern.mean())[0, 1]
        assert r > 0.9

    def test_determinism(self):
        a = simulate_multiplicative(MultiplicativeSimConfig(seed=9))
        b = simulate_multiplicative(MultiplicativeSimConfig(seed=9))
        assert np.array_equal(a.frame.response, b.frame.response)


def test_truth_csv_round_trip(tmp_path):
    ds = simulate_rw(SimConfig(T=20, seed=0))
    p = tmp_path / "truth.csv"
    write_truth_csv(ds, str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "date,trend,beta_x1,beta_x2,beta_x3"
    assert len(lines) == 21
    row = lines[1].split(",")
    assert float(row[1]) == ds.true_trend[0]
    assert float(row[2]) == ds.true_coefficients[0, 0]
