import math

import numpy as np
import pytest
from scipy import stats

from btvc.calibration import (
    CalibrationTerm,
    PriorWindow,
    apply_prior_windows,
    read_prior_windows_csv,
)
from btvc.errors import ValidationError
from btvc.inference import MapConfig, fit_map
from btvc.model import HyperParams, ModelInputs, log_posterior_and_grad
from tests.test_model import toy
from tests.test_timeframe import make_frame


def test_window_validation():
    with pytest.raises(ValidationError):
        PriorWindow("x1", 0, 5, 0.3, 0.1)
    with pytest.raises(ValidationError):
        PriorWindow("x1", 8, 5, 0.3, 0.1)
    with pytest.raises(ValidationError):
        PriorWindow("x1", 1, 5, -0.3, 0.1)
    with pytest.raises(ValidationError):
        PriorWindow("x1", 1, 5, 0.3, 0.0)


@pytest.mark.parametrize("mean, sd, message", [
    (math.nan, 0.1, "window mean must be finite, got nan"),
    (math.inf, 0.1, "window mean must be finite, got inf"),
    (0.3, math.nan, "window sd must be finite, got nan"),
    (0.3, math.inf, "window sd must be finite, got inf"),
])
def test_window_rejects_non_finite_mean_and_sd(mean, sd, message):
    # nan passes both range checks and inf passes the sd one; either would
    # only surface as a non-finite objective at the initial point
    with pytest.raises(ValidationError, match=f"^{message}$"):
        PriorWindow("x1", 1, 5, mean, sd)


def test_apply_checks_channel_bounds_and_overlap():
    names = ("tv", "radio")
    wins = [PriorWindow("tv", 1, 10, 0.2, 0.1)]
    terms = apply_prior_windows(wins, names, 50)
    assert terms[0].channel_index == 0
    with pytest.raises(ValidationError, match="search"):
        apply_prior_windows([PriorWindow("search", 1, 5, 0.2, 0.1)], names, 50)
    with pytest.raises(ValidationError):
        apply_prior_windows([PriorWindow("tv", 40, 60, 0.2, 0.1)], names, 50)
    overlapping = [PriorWindow("tv", 1, 10, 0.2, 0.1),
                   PriorWindow("tv", 10, 20, 0.3, 0.1)]
    with pytest.raises(ValidationError, match="overlap"):
        apply_prior_windows(overlapping, names, 50)
    # same span on different channels is fine
    ok = [PriorWindow("tv", 1, 10, 0.2, 0.1), PriorWindow("radio", 1, 10, 0.3, 0.1)]
    assert len(apply_prior_windows(ok, names, 50)) == 2


def test_term_weight_is_inverse_window_length():
    term = apply_prior_windows([PriorWindow("x1", 11, 40, 0.5, 0.2)], ("x1",), 100)[0]
    assert term.weight == pytest.approx(1 / 30)


def test_term_value_matches_scipy_and_grad_stays_in_window():
    rng = np.random.default_rng(0)
    coef = rng.gamma(2.0, 0.3, (20, 3))
    term = CalibrationTerm(channel_index=1, start0=4, end0=9, mean=0.4, sd=0.15)
    value, grad = term.value_and_coef_grad(coef)
    expected = stats.norm.logpdf(coef[4:10, 1], 0.4, 0.15).sum() / 6
    assert value == pytest.approx(expected, rel=1e-12)
    # gradient: only the window slice of the named channel is touched
    mask = np.zeros_like(coef, dtype=bool)
    mask[4:10, 1] = True
    assert np.all(grad[~mask] == 0)
    h = 1e-7
    bumped = coef.copy()
    bumped[5, 1] += h
    num = (term.value_and_coef_grad(bumped)[0] - value) / h
    assert grad[5, 1] == pytest.approx(num, abs=1e-5)


def test_zero_windows_bit_identical_objective():
    params, inputs = toy(seed=5)
    hp = HyperParams()
    v0, g0 = log_posterior_and_grad(params, inputs, hp)
    v1, g1 = log_posterior_and_grad(params, inputs, hp, calibration=())
    assert v0 == v1
    assert np.array_equal(g0.b_reg, g1.b_reg)
    assert np.array_equal(g0.b_lev, g1.b_lev)


def test_other_channels_do_not_move_the_term():
    params, inputs = toy(seed=6, P=3)
    hp = HyperParams()
    terms = apply_prior_windows(
        [PriorWindow("x2", 5, 14, 0.3, 0.1)],
        inputs.design.regressor_names, inputs.design.n_times)
    v_before, _ = log_posterior_and_grad(params, inputs, hp, calibration=terms)
    from btvc.model import ParameterSet, log_prior, log_likelihood
    shifted = params.b_reg.copy()
    shifted[:, 0] += 0.25  # perturb an unrelated channel
    params2 = ParameterSet(b_lev=params.b_lev, b_seas=params.b_seas,
                           b_reg=shifted, mu_reg=params.mu_reg,
                           sigma_obs=params.sigma_obs)
    v_after, _ = log_posterior_and_grad(params2, inputs, hp, calibration=terms)
    base_delta = (log_prior(params2, hp) + log_likelihood(params2, inputs, hp)) - (
        log_prior(params, hp) + log_likelihood(params, inputs, hp))
    # the whole change is explained by prior+likelihood: the term contributed 0
    assert v_after - v_before == pytest.approx(base_delta, rel=1e-10, abs=1e-10)


def test_tight_window_pins_the_coefficient():
    # single reg knot, window covering all T, tiny sd: fitted beta ~= the test mean
    params, inputs = toy(T=40, P=1, seed=8, n_reg=1, fourier=())
    hp = HyperParams()
    target_mean = 0.55
    terms = apply_prior_windows(
        [PriorWindow("x1", 1, 40, target_mean, 0.001)],
        inputs.design.regressor_names, 40)
    fit = fit_map(inputs, hp, MapConfig(iterations=4000, seed=0),
                  calibration=terms)
    beta = fit.params.b_reg[0, 0]
    assert abs(beta - target_mean) < 2 * 0.001


def test_read_prior_windows_csv(tmp_path):
    frame = make_frame(T=10, P=2, start="2024-03-01")
    p = tmp_path / "wins.csv"
    p.write_text(
        "channel,start_date,end_date,mean,sd\n"
        "x2,2024-03-03,2024-03-05,0.4,0.05\n"
    )
    wins = read_prior_windows_csv(str(p), frame)
    assert wins == [PriorWindow("x2", 3, 5, 0.4, 0.05)]


def test_read_prior_windows_csv_with_a_byte_order_mark(tmp_path):
    # the BOM used to become part of the first header name: missing column 'channel'
    frame = make_frame(T=10, P=2, start="2024-03-01")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text("channel,start_date,end_date,mean,sd\nx2,2024-03-03,2024-03-05,0.4,0.05\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_prior_windows_csv(str(bom), frame) == read_prior_windows_csv(str(plain), frame)


def test_read_prior_windows_csv_errors(tmp_path):
    frame = make_frame(T=10, P=1, start="2024-03-01")
    missing = tmp_path / "m.csv"
    missing.write_text("channel,start_date,mean,sd\nx1,2024-03-03,0.4,0.05\n")
    with pytest.raises(ValidationError, match="end_date"):
        read_prior_windows_csv(str(missing), frame)
    off_calendar = tmp_path / "o.csv"
    off_calendar.write_text(
        "channel,start_date,end_date,mean,sd\nx1,2024-02-27,2024-03-05,0.4,0.05\n")
    with pytest.raises(ValidationError, match="row 1"):
        read_prior_windows_csv(str(off_calendar), frame)
    bad_num = tmp_path / "b.csv"
    bad_num.write_text(
        "channel,start_date,end_date,mean,sd\nx1,2024-03-03,2024-03-05,high,0.05\n")
    with pytest.raises(ValidationError, match="row 1"):
        read_prior_windows_csv(str(bad_num), frame)
