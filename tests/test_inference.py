import ast
import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import btvc.inference as inference
import btvc.objective as objective
from btvc.calibration import PriorWindow, apply_prior_windows
from btvc.errors import DivergenceError, ValidationError
from btvc.fourier import FourierSpec
from btvc.kernels import TILE_ROWS, WEIGHT_FLOOR, KnotGrid, build_grid, kernel_matrix
from btvc.model import (
    HyperParams,
    ModelDesign,
    ModelInputs,
    coefficients,
    decompose,
    log_posterior,
    log_posterior_and_grad,
)
from btvc.inference import (
    MapConfig,
    ParameterPacking,
    SviConfig,
    default_packing,
    draw_posterior,
    fit_map,
    fit_svi,
    initial_theta,
    load_fit,
    save_fit,
    softplus,
    softplus_inv,
)
from btvc.pipeline import build_structure, map_config_from, svi_config_from
from btvc.runconfig import RunConfig
from btvc.simulation import MultiplicativeSimConfig, simulate_multiplicative
from tests.oracle import check_gradient
from tests.test_kernels import dense_kernel, reference_rows
from tests.test_model import toy
from tests.test_timeframe import make_structure


def small_problem(seed=0, T=40, P=2):
    params, inputs = toy(T=T, P=P, seed=seed)
    return inputs, HyperParams()


def conjugate_problem(seed, T=40, sigma=0.8, sigma_reg=1.2, mu0=0.4):
    """Known-sigma normal-mean model written as a single-knot regression on 1s."""
    rng = np.random.default_rng(seed)
    true_b = rng.normal(mu0, sigma_reg)
    y = rng.normal(true_b, sigma, T)
    grid = KnotGrid(knot_times=[1], T=T)
    k = kernel_matrix(grid, "level")
    design = ModelDesign(
        regressors=np.ones((T, 1)), seasonal=np.zeros((T, 0)),
        k_lev=k, k_seas=k, k_reg=kernel_matrix(grid, "gaussian", rho=1.0),
    )
    inputs = ModelInputs(design=design, target=y)
    hp = HyperParams(sigma_reg=sigma_reg)
    packing = ParameterPacking(
        n_lev=1, n_seas_knots=1, n_seas_cols=0, n_reg_knots=1, n_channels=1,
        reg_transform="identity", fixed_b_lev=np.zeros(1),
        fixed_mu_reg=np.array([mu0]), fixed_sigma_obs=sigma,
    )
    prec = T / sigma**2 + 1 / sigma_reg**2
    post_mean = (y.sum() / sigma**2 + mu0 / sigma_reg**2) / prec
    return inputs, hp, packing, true_b, post_mean, prec**-0.5


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.0, -1.0, -np.inf])
def test_softplus_inverse_rejects_a_non_positive_input(x):
    with pytest.raises(ValidationError,
                       match="^softplus inverse needs strictly positive inputs$"):
        softplus_inv(np.array([1.0, x]))


def test_softplus_inverse_round_trip():
    t = np.linspace(-20, 20, 101)
    assert np.allclose(softplus_inv(softplus(t)), t, atol=1e-9)
    assert np.all(softplus(t) > 0)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000))
def test_unpack_pack_identity(seed):
    inputs, hp = small_problem()
    packing = default_packing(inputs)
    rng = np.random.default_rng(seed)
    theta = rng.normal(0, 2, packing.dim)
    params = packing.unpack(theta)
    assert np.all(params.b_reg > 0)
    assert np.all(params.mu_reg > 0)
    assert params.sigma_obs > 0


def test_pack_without_cache_inverts_transform():
    inputs, hp = small_problem()
    packing = default_packing(inputs)
    rng = np.random.default_rng(4)
    theta = rng.normal(0, 1, packing.dim)
    params = packing.unpack(theta)
    stripped = inference.ParameterSet(
        b_lev=params.b_lev.copy(), b_seas=params.b_seas.copy(),
        b_reg=params.b_reg.copy(), mu_reg=params.mu_reg.copy(),
        sigma_obs=params.sigma_obs,
    )
    assert np.allclose(packing.pack(stripped), theta, atol=1e-9)


@pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-16, 1e-8, 0.1, 1.0, 50.0, 800.0])
def test_softplus_inverse_round_trips_down_to_tiny_inputs(x):
    # 1 - e^-x as -expm1(-x) stays exact where e^-x rounds to 1 (x below
    # about 1e-16, where log1p(-e^-x) gave -inf). What is left is the
    # rounding of t = softplus_inv(x) itself, which softplus's exp turns into
    # up to |t| eps relative: 1.5e-13 at 1e-300, where t = ln x = -690.8
    t = float(softplus_inv(np.array(x)))
    assert np.isfinite(t)
    tol = max(1e-14, abs(t) * np.finfo(float).eps)
    assert abs(float(softplus(np.array(t))) - x) <= tol * x


def test_pack_without_cache_round_trips_a_tiny_coefficient():
    inputs, hp = small_problem()
    packing = default_packing(inputs)
    params = packing.unpack(np.random.default_rng(5).normal(0, 1, packing.dim))
    b_reg = params.b_reg.copy()
    b_reg[0, 0] = 1e-20
    stripped = inference.ParameterSet(
        b_lev=params.b_lev.copy(), b_seas=params.b_seas.copy(), b_reg=b_reg,
        mu_reg=params.mu_reg.copy(), sigma_obs=params.sigma_obs,
    )
    theta = packing.pack(stripped)
    assert np.all(np.isfinite(theta))
    back = packing.unpack(theta)
    assert np.all(np.abs(back.b_reg - b_reg) <= 1e-14 * b_reg)


def test_packing_description_round_trip():
    inputs, _ = small_problem()
    packing = default_packing(inputs)
    doc = packing.describe()
    back = ParameterPacking.from_description(doc)
    assert back == packing


@pytest.mark.parametrize("kind", ["default", "conjugate", "fixed_level"])
def test_initial_theta_unpacks_to_the_documented_start(kind):
    if kind == "conjugate":
        inputs, hp, packing = conjugate_problem(5)[:3]
    else:
        inputs, hp = small_problem(seed=31)
        packing = default_packing(inputs)
        if kind == "fixed_level":
            packing = dataclasses.replace(
                packing, fixed_b_lev=np.linspace(1.5, 2.5, packing.n_lev))
    params = packing.unpack(initial_theta(inputs, hp, packing))
    K, y = inputs.design.k_lev.weights, inputs.target
    local_means = (K.T @ y) / (K.T @ np.ones(y.size))
    if packing.fixed_b_lev is None:
        assert np.array_equal(params.b_lev, local_means)
    else:
        assert np.array_equal(params.b_lev, packing.fixed_b_lev)
    assert params.b_seas.shape == (packing.n_seas_knots, packing.n_seas_cols)
    assert np.all(params.b_seas == 0.0)
    assert params.b_reg.shape == (packing.n_reg_knots, packing.n_channels)
    assert np.all(np.abs(params.b_reg - 0.1) <= 1e-15)
    if packing.fixed_mu_reg is None:
        assert np.all(np.abs(params.mu_reg - 0.1) <= 1e-15)
    else:
        assert np.array_equal(params.mu_reg, packing.fixed_mu_reg)
    if packing.fixed_sigma_obs is None:
        assert params.sigma_obs == pytest.approx(np.std(y - K @ local_means), rel=1e-15)
    else:
        assert params.sigma_obs == packing.fixed_sigma_obs


def test_jacobian_matches_numerical_derivative():
    inputs, _ = small_problem()
    packing = default_packing(inputs)
    rng = np.random.default_rng(1)
    theta = rng.normal(0, 1.5, packing.dim)
    h = 1e-6
    for i in rng.choice(packing.dim, 6, replace=False):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        num = (packing.log_jacobian(up) - packing.log_jacobian(dn)) / (2 * h)
        assert packing.log_jacobian_grad(theta)[i] == pytest.approx(num, abs=1e-5)


# ---------------------------------------------------------------------------
# MAP
# ---------------------------------------------------------------------------

def test_map_location_fit_recovers_flat_response():
    T = 30
    grid = KnotGrid(knot_times=[1], T=T)
    k = kernel_matrix(grid, "level")
    design = ModelDesign(
        regressors=np.zeros((T, 0)), seasonal=np.zeros((T, 0)),
        k_lev=k, k_seas=k, k_reg=k,
    )
    c = 2.37
    inputs = ModelInputs(design=design, target=np.full(T, c))
    hp = HyperParams(init_scale_lev=1e4)
    fit = fit_map(inputs, hp, MapConfig(iterations=4000, seed=0))
    assert fit.params.b_lev[0] == pytest.approx(c, abs=1e-4)


def test_map_matches_ridge_closed_form():
    inputs, hp, packing, _, post_mean, _ = conjugate_problem(3)
    cfg = MapConfig(iterations=4000, rel_tol=0.0,
                    final_learning_rate=1e-9, seed=0)
    fit = fit_map(inputs, hp, cfg, packing=packing)
    # posterior mean equals the mode in the Gaussian case
    assert fit.params.b_reg[0, 0] == pytest.approx(post_mean, abs=1e-7)


def test_map_deterministic_traces():
    inputs, hp = small_problem(seed=21)
    cfg = MapConfig(iterations=300, seed=5)
    a = fit_map(inputs, hp, cfg)
    b = fit_map(inputs, hp, cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.theta, b.theta)


def test_map_best_so_far_trace_is_monotone():
    inputs, hp = small_problem(seed=22)
    fit = fit_map(inputs, hp, MapConfig(iterations=500, seed=1))
    assert np.all(np.diff(fit.trace) >= 0)
    assert fit.trace[-1] >= fit.trace[0]
    assert fit.stop_reason in ("max_iter", "rel_change")


def test_map_improves_posterior_over_init():
    inputs, hp = small_problem(seed=23)
    packing = default_packing(inputs)
    theta0 = initial_theta(inputs, hp, packing)
    before = log_posterior(packing.unpack(theta0), inputs, hp)
    fit = fit_map(inputs, hp, MapConfig(iterations=2000, seed=0))
    assert log_posterior(fit.params, inputs, hp) > before


def test_map_rejects_nonfinite_initial_likelihood():
    # finite target whose squared residuals overflow: the objective is
    # non-finite at the very first evaluation, which is a bad input
    # (ValidationError, exit code 1), not a divergence (exit code 2)
    inputs, hp = small_problem(seed=24)
    bad = ModelInputs(design=inputs.design,
                      target=np.where(np.arange(40) == 5, 1e200, inputs.target))
    with np.errstate(over="ignore"), pytest.raises(
            ValidationError, match="non-finite at the initial point"):
        fit_map(bad, hp, MapConfig(iterations=10))


@pytest.mark.parametrize("noise_df", [None, 4.0])
def test_map_rejects_an_underflowing_fixed_sigma(noise_df):
    # sigma^2 underflows to 0: the compiled objective returns a non-finite
    # value instead of raising ZeroDivisionError, and the start check
    # turns that into a ValidationError
    inputs, _ = small_problem(seed=24)
    hp = HyperParams(noise_df=noise_df)
    packing = dataclasses.replace(default_packing(inputs), fixed_sigma_obs=1e-200)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            ValidationError, match="non-finite at the initial point"):
        fit_map(inputs, hp, MapConfig(iterations=10), packing=packing)


@pytest.mark.parametrize("noise_df", [None, 4.0])
def test_underflowing_sigma_is_non_finite_in_reference_and_compiled(noise_df):
    # sigma^2 underflows to 0: the readable reference and the compiled
    # objective both give a non-finite value, neither raises
    inputs, _ = small_problem(seed=24)
    hp = HyperParams(noise_df=noise_df)
    packing = dataclasses.replace(default_packing(inputs), fixed_sigma_obs=1e-200)
    theta = initial_theta(inputs, hp, packing)
    f = objective.Objective.stack([(inputs, hp, packing, ())], include_jacobian=False)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reference = log_posterior(packing.unpack(theta), inputs, hp)
        compiled, _ = f(theta)
    assert not np.isfinite(reference)
    assert not np.isfinite(compiled)


def test_map_sigma_underflowing_mid_fit_is_a_divergence():
    # a constant target and zero regressors are fitted exactly at the start,
    # so d/d ln sigma = -n there and the first Adam step, of size 1000, takes
    # ln sigma below -745, where exp underflows to 0
    T = 40
    grid = build_grid(T, count=3)
    design = ModelDesign(
        regressors=np.zeros((T, 1)), seasonal=np.zeros((T, 0)),
        k_lev=kernel_matrix(grid, "level"), k_seas=kernel_matrix(grid, "level"),
        k_reg=kernel_matrix(grid, "gaussian", rho=10.0),
    )
    inputs = ModelInputs(design=design, target=np.full(T, 2.0))
    config = MapConfig(learning_rate=1000.0, final_learning_rate=1000.0, rel_tol=0.0,
                       iterations=10)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="non-finite at iteration 1") as exc:
        fit_map(inputs, HyperParams(), config)
    assert exc.value.iteration == 1


def test_divergence_aborts_with_trace(monkeypatch):
    inputs, hp = small_problem(seed=25)
    packing = default_packing(inputs)
    calls = {"n": 0}

    def exploding(self, theta, out=None):
        calls["n"] += 1
        self.values = [np.nan if calls["n"] > 3 else -1.0]
        return self.values[0], np.zeros(packing.dim)

    monkeypatch.setattr(inference.Objective, "__call__", exploding)
    with pytest.raises(DivergenceError) as exc:
        fit_map(inputs, hp, MapConfig(iterations=50))
    assert exc.value.iteration >= 0
    assert len(exc.value.trace) > 0


def test_map_in_place_adam_equals_the_allocating_update():
    # fit_map steps through the in-place _adam; the plain expressions below,
    # driven by the same compiled objective, must give the same iterates
    inputs, hp = small_problem(seed=26)
    terms = window_terms(inputs, 1)
    config = MapConfig(iterations=300, rel_tol=0.0)
    fit = fit_map(inputs, hp, config, calibration=terms)

    packing = default_packing(inputs)
    f = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian=False)
    theta = initial_theta(inputs, hp, packing)
    m = v = np.zeros(packing.dim)
    lr = config.learning_rate
    decay = (config.final_learning_rate / config.learning_rate) ** (1.0 / (config.iterations - 1))
    best_value, best_theta, trace = -np.inf, theta, []
    for t in range(config.iterations):
        value, grad = f(theta)
        if value > best_value:
            best_value, best_theta = value, theta
        trace.append(best_value)
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        mhat = m / (1.0 - 0.9 ** (t + 1))
        vhat = v / (1.0 - 0.999 ** (t + 1))
        theta = theta + lr * mhat / (np.sqrt(vhat) + 1e-8)
        lr *= decay
    assert fit.n_iterations == config.iterations
    assert np.array_equal(fit.theta, best_theta)
    assert fit.trace == trace


# ---------------------------------------------------------------------------
# SVI
# ---------------------------------------------------------------------------

def test_svi_recovers_conjugate_posterior():
    inputs, hp, packing, _, post_mean, post_sd = conjugate_problem(0)
    mc = MapConfig(iterations=2000, rel_tol=0.0,
                   final_learning_rate=1e-7)
    fit = fit_svi(inputs, hp, SviConfig(iterations=3000, seed=0),
                  packing=packing, init=fit_map(inputs, hp, mc, packing=packing))
    mean = fit.variational_mean[0]
    sd = float(np.exp(fit.variational_log_sd[0]))
    assert abs(mean - post_mean) / abs(post_mean) < 0.02
    assert abs(sd - post_sd) / post_sd < 0.10


def fixed_draw_elbo(f, mean, log_sd, eps):
    """ELBO of N(mean, exp(log_sd)^2) under objective f, averaged over the
    fixed standard-normal rows of eps; scoring two sets of moments on one
    eps compares them with common random numbers."""
    sd = np.exp(log_sd)
    value = float(np.mean([f(mean + sd * e)[0] for e in eps]))
    return value + 0.5 * mean.size * (1.0 + np.log(2.0 * np.pi)) + float(log_sd.sum())


def test_svi_deterministic_and_ascending():
    inputs, hp = small_problem(seed=31)
    sc = SviConfig(iterations=600, seed=3)
    mc = MapConfig(iterations=500)
    a = fit_svi(inputs, hp, sc, init=fit_map(inputs, hp, mc))
    b = fit_svi(inputs, hp, sc, init=fit_map(inputs, hp, mc))
    assert a.trace == b.trace
    assert np.array_equal(a.variational_mean, b.variational_mean)
    assert np.array_equal(a.variational_log_sd, b.variational_log_sd)
    # The run starts near its optimum, so its one-draw ELBO trace is flat
    # in the tail and its slope is noise. Ascent is scored on fixed draws
    # instead: the returned moments beat the start and a half-budget run.
    f = objective.Objective.stack([(inputs, hp, a.packing, ())], include_jacobian=True)
    eps = np.random.default_rng(0).standard_normal((2000, a.packing.dim))
    half = fit_svi(inputs, hp, dataclasses.replace(sc, iterations=300),
                   init=fit_map(inputs, hp, mc))
    start = inference._start_log_sd(-f.hessian(a.theta).diagonal, sc.init_log_sd)
    end = fixed_draw_elbo(f, a.variational_mean, a.variational_log_sd, eps)
    assert end > fixed_draw_elbo(f, a.theta, start, eps)
    assert end > fixed_draw_elbo(f, half.variational_mean, half.variational_log_sd, eps)
    assert a.has_variational
    assert a.mode == "svi"


# the default trace_every is 10
@pytest.mark.parametrize("every, settings", [(1, {"trace_every": 1}), (10, {})])
@pytest.mark.parametrize("iterations", [64, 150])
def test_svi_in_place_step_equals_the_allocating_update(iterations, every, settings):
    # fit_svi's step loop runs in place and draws its noise in blocks; the
    # plain expressions below, one draw per step and the control variate of
    # the start's Hessian, must give the same moments and ELBO trace (every
    # step's, or every 10th), on a run ending at a draw-block boundary (64)
    # and one ending inside a block (150)
    inputs, hp = small_problem(seed=27)
    terms = window_terms(inputs, 1)
    init = fit_map(inputs, hp, MapConfig(iterations=200), calibration=terms)
    config = SviConfig(iterations=iterations, seed=4, **settings)
    fit = fit_svi(inputs, hp, config, calibration=terms, init=init)

    packing = init.packing
    dim = packing.dim
    f = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian=True)
    hessian = f.hessian(init.theta)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    mean = init.theta
    log_sd = inference._start_log_sd(-f.hessian(init.theta).diagonal, config.init_log_sd)
    m = v = np.zeros(2 * dim)
    lr = config.learning_rate
    decay = (config.final_learning_rate / config.learning_rate) ** (1.0 / (config.iterations - 1))
    entropy_const = 0.5 * dim * (1.0 + np.log(2.0 * np.pi))
    trace = []
    for t in range(config.iterations):
        eps = rng.standard_normal(dim)
        sd = np.exp(log_sd)
        draw = sd * eps
        value, grad = f(draw + mean)
        if t % every == 0:
            trace.append(value + entropy_const + float(log_sd.sum()))
        grad = grad - hessian.dot(draw)
        grad = np.concatenate([grad, grad * draw + hessian.diagonal * (sd * sd) + 1.0])
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        step = lr * (m / (1.0 - 0.9 ** (t + 1))) / (np.sqrt(v / (1.0 - 0.999 ** (t + 1))) + 1e-8)
        mean, log_sd = mean + step[:dim], log_sd + step[dim:]
        lr *= decay
    assert np.array_equal(fit.variational_mean, mean)
    assert np.array_equal(fit.variational_log_sd, log_sd)
    assert fit.trace == trace
    assert fit.trace_every == every


@pytest.mark.parametrize("bad_step", [13, 29])
def test_svi_non_finite_gradient_on_an_untraced_step_raises_there(bad_step, monkeypatch):
    # step 13 falls between traced steps 10 and 20; step 29 is the last of
    # the run, after which nothing would have caught the non-finite moments
    inputs, hp = small_problem(seed=28)
    init = fit_map(inputs, hp, MapConfig(iterations=200))
    config = SviConfig(iterations=30, seed=5)
    clean = fit_svi(inputs, hp, config, init=init)
    real = objective.Objective.gradient
    calls = {"n": 0}

    def poisoned(self, theta, out=None):
        grad = real(self, theta, out)
        calls["n"] += 1
        if calls["n"] == bad_step + 2:  # call 1 is the start's Hessian
            grad[0] = np.nan
        return grad

    monkeypatch.setattr(objective.Objective, "gradient", poisoned)
    with pytest.raises(DivergenceError,
                       match=f"^gradient became non-finite at iteration {bad_step}$") as exc:
        fit_svi(inputs, hp, config, init=init)
    assert exc.value.iteration == bad_step
    assert exc.value.trace == clean.trace[:bad_step // 10 + 1]


def test_svi_non_finite_elbo_on_a_traced_step_raises_there(monkeypatch):
    # the gradient stays finite, so only the ELBO check of traced step 20 can
    # stop the fit; the trace holds steps 0 and 10
    inputs, hp = small_problem(seed=28)
    init = fit_map(inputs, hp, MapConfig(iterations=200))
    config = SviConfig(iterations=30, seed=5)
    clean = fit_svi(inputs, hp, config, init=init)
    real = objective.Objective.value
    calls = {"n": 0}

    def poisoned(self):
        total = real(self)
        calls["n"] += 1
        if calls["n"] == 3:
            self.values = [np.inf]
        return total

    monkeypatch.setattr(objective.Objective, "value", poisoned)
    with pytest.raises(DivergenceError, match="^ELBO became non-finite at iteration 20$") as exc:
        fit_svi(inputs, hp, config, init=init)
    assert exc.value.iteration == 20
    assert exc.value.trace == clean.trace[:2]


def test_svi_runs_under_the_packing_of_its_start():
    inputs, hp = small_problem(seed=29)
    config = SviConfig(iterations=40, seed=6)
    # a fixed sigma_obs leaves theta one entry shorter than default_packing's
    fixed = dataclasses.replace(default_packing(inputs), fixed_sigma_obs=0.5)
    init = fit_map(inputs, hp, MapConfig(iterations=100), packing=fixed)
    fit = fit_svi(inputs, hp, config, init=init)
    given = fit_svi(inputs, hp, config, packing=fixed, init=init)
    assert fit.packing == fixed and fit.variational_mean.size == fixed.dim
    assert np.array_equal(fit.variational_mean, given.variational_mean)
    # an identity-transform start goes on under identity, not softplus
    identity = dataclasses.replace(default_packing(inputs), reg_transform="identity")
    init = fit_map(inputs, hp, MapConfig(iterations=100), packing=identity)
    assert fit_svi(inputs, hp, config, init=init).packing.reg_transform == "identity"
    for packing in (default_packing(inputs), fixed):
        with pytest.raises(ValidationError, match="^packing differs from the packing of init"):
            fit_svi(inputs, hp, config, packing=packing, init=init)


def test_svi_start_is_the_capped_hessian_diagonal():
    # the conjugate target is exactly Gaussian, so the diagonal gives the
    # posterior sd at any theta
    inputs, hp, packing, _, post_mean, post_sd = conjugate_problem(0)
    f = objective.Objective.stack([(inputs, hp, packing, ())], include_jacobian=True)
    cap = SviConfig().init_log_sd
    assert np.log(post_sd) < cap
    for theta in (post_mean, post_mean + 3.0):
        start = inference._start_log_sd(-f.hessian(np.array([theta])).diagonal, cap)
        assert abs(start[0] - np.log(post_sd)) < 1e-6
    # the curvature -H = diag(d) of a quadratic: d <= 0 (H_ii >= 0), nan, and
    # -ln(d)/2 above the cap all give the cap
    d = np.array([100.0, 0.0, -3.0, 1e-2, 1e6, np.nan])
    start = inference._start_log_sd(d, -2.0)
    expected = [-0.5 * np.log(100.0), -2.0, -2.0, -2.0, -0.5 * np.log(1e6), -2.0]
    assert np.allclose(start, expected, rtol=0.0, atol=1e-9)
    # byte-equal on repeated calls
    inputs, hp = small_problem(seed=27)
    packing = default_packing(inputs)
    f = objective.Objective.stack([(inputs, hp, packing, window_terms(inputs, 1))],
                                  include_jacobian=True)
    theta = initial_theta(inputs, hp, packing)
    first = inference._start_log_sd(-f.hessian(theta).diagonal, cap)
    assert first.tobytes() == inference._start_log_sd(-f.hessian(theta).diagonal, cap).tobytes()
    assert np.all(first <= cap)


def svi_calibrated_replica(seed):
    """(inputs, hp, cfg, terms) shaped like a replica of the svi_calibrated
    benchmark workload: T=420 from the multiplicative simulator, mode=svi at
    the default settings, and one 28-day window on x1 at its true mean."""
    ds = simulate_multiplicative(MultiplicativeSimConfig(T=420, P=3, seed=seed))
    cfg = RunConfig(mode="svi", seed=seed)
    inputs, hp, _ = build_structure(ds.frame, cfg)
    window = PriorWindow(channel="x1", start=393, end=420, sd=0.02,
                         mean=float(ds.true_coefficients[392:, 0].mean()))
    return inputs, hp, cfg, apply_prior_windows([window], ds.frame.regressor_names, 420)


@pytest.mark.parametrize("seed", [701, 702])
def test_default_svi_budget_reaches_the_long_run_elbo(seed, monkeypatch):
    # The default budget from the Hessian-diagonal start must end within
    # 0.5 nats of 5000 steps from the flat log-sd -3 the fit used to start
    # at, on fixed draws (common random numbers).
    inputs, hp, cfg, terms = svi_calibrated_replica(seed)
    init = fit_map(inputs, hp, map_config_from(cfg), calibration=terms)
    fit = fit_svi(inputs, hp, svi_config_from(cfg), calibration=terms, init=init)
    monkeypatch.setattr(inference, "_start_log_sd",
                        lambda curvature, cap: np.full(curvature.size, -3.0))
    flat = fit_svi(inputs, hp, SviConfig(iterations=5000, seed=seed), calibration=terms,
                   init=init)
    f = objective.Objective.stack([(inputs, hp, init.packing, terms)], include_jacobian=True)
    # the scoring draws come from a stream apart from the fits' steps
    eps = np.random.default_rng([seed, 1]).standard_normal((2000, init.packing.dim))
    shortfall = (fixed_draw_elbo(f, flat.variational_mean, flat.variational_log_sd, eps)
                 - fixed_draw_elbo(f, fit.variational_mean, fit.variational_log_sd, eps))
    assert fit.n_iterations == 1400
    assert shortfall < 0.5


def plain_svi(f, init, config):
    """(mean, log_sd) of the SVI loop before the control variate: one draw
    per step, gradient [g, g eps sd + 1] for g the gradient at mean + sd
    eps, from the capped Hessian-diagonal start."""
    dim = init.theta.size
    state = np.concatenate([init.theta, inference._start_log_sd(-f.hessian(init.theta).diagonal,
                                                                config.init_log_sd)])
    mean, log_sd = state[:dim], state[dim:]
    ascend = inference._adam(state, config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    for _ in range(config.iterations):
        eps = rng.standard_normal(dim)
        sd = np.exp(log_sd)
        grad = f.gradient(sd * eps + mean)
        ascend(np.concatenate([grad, grad * eps * sd + 1.0]))
    return mean, log_sd


@pytest.mark.parametrize("seed", [731, 732, 733])
def test_default_svi_ends_above_the_plain_2000_step_loop(seed):
    # The control variate lets the default 1400 steps end at a higher
    # fixed-draw ELBO than the 2000 plain steps fit_svi took before it. The
    # draws that score the fits come from a stream apart from the fits'
    # steps. By this measure the default ended 0.11-0.32 nats above the
    # plain loop on seeds 901-910, where the budget was chosen, and
    # 0.04-0.42 above on held-out seeds 731-740, of which 733 is the
    # closest, so the test asserts a gain, with no margin.
    inputs, hp, cfg, terms = svi_calibrated_replica(seed)
    init = fit_map(inputs, hp, map_config_from(cfg), calibration=terms)
    fit = fit_svi(inputs, hp, svi_config_from(cfg), calibration=terms, init=init)
    f = objective.Objective.stack([(inputs, hp, init.packing, terms)], include_jacobian=True)
    plain = plain_svi(f, init, dataclasses.replace(svi_config_from(cfg), iterations=2000))
    eps = np.random.default_rng([seed, 1]).standard_normal((2000, init.packing.dim))
    gain = (fixed_draw_elbo(f, fit.variational_mean, fit.variational_log_sd, eps)
            - fixed_draw_elbo(f, *plain, eps))
    assert gain > 0.0


def first_step_gradients(monkeypatch, inputs, hp, packing, init, seeds):
    """The gradient fit_svi's first step ascends by, for each seed."""
    seen, real = [], inference._adam

    def recording(x, config):
        ascend = real(x, config)

        def step(grad):
            seen.append(grad.copy())
            ascend(grad)
        return step

    monkeypatch.setattr(inference, "_adam", recording)
    for seed in seeds:
        fit_svi(inputs, hp, SviConfig(iterations=1, seed=seed), packing=packing, init=init)
    return np.array(seen)


def test_svi_gradient_on_a_gaussian_target_does_not_depend_on_the_draw(monkeypatch):
    # The conjugate target is exactly Gaussian: H is constant, so g(mean +
    # v) - Hv = g(mean) for every draw v, and the start's sd is the exact
    # posterior sd, where diag(H) sd^2 + 1 = 0. The plain estimator's mean
    # part, g(mean) + Hv, spreads by |H| sd, about 8 here.
    inputs, hp, packing, _, post_mean, _ = conjugate_problem(0)
    f = objective.Objective.stack([(inputs, hp, packing, ())], include_jacobian=True)
    map_fit = fit_map(inputs, hp, MapConfig(iterations=50), packing=packing)
    for mean in (post_mean, post_mean + 0.3):
        theta = np.array([mean])
        init = dataclasses.replace(map_fit, theta=theta)
        grads = first_step_gradients(monkeypatch, inputs, hp, packing, init, range(20))
        g = f.gradient(theta)[0]
        assert np.all(np.abs(grads[:, 0] - g) <= 1e-12 * max(1.0, abs(g)))
        if mean == post_mean:  # g = 0 up to rounding: the log-sd part too
            assert np.all(np.abs(grads) <= 1e-12)


def test_control_variate_keeps_the_gradient_mean_and_lowers_its_variance():
    # At the default fit's moments on a benchmark-shaped replica, 4000 draws
    # of each estimator, on common draws: their difference [Hv, Hv v -
    # diag(H) sd^2] has mean 0, so every entry's mean difference lies within
    # 5 standard errors (a family-wise level of about 1e-4 over the 2 dim
    # entries), and every entry's variance falls (to a median of 0.06 of
    # the plain estimator's on seeds 701-703; mu_reg's stay near 1)
    inputs, hp, cfg, terms = svi_calibrated_replica(703)
    init = fit_map(inputs, hp, map_config_from(cfg), calibration=terms)
    fit = fit_svi(inputs, hp, svi_config_from(cfg), calibration=terms, init=init)
    f = objective.Objective.stack([(inputs, hp, init.packing, terms)], include_jacobian=True)
    hessian = f.hessian(init.theta)
    mean, sd = fit.variational_mean, np.exp(fit.variational_log_sd)
    plain, controlled = [], []
    for eps in np.random.default_rng(703).standard_normal((4000, f.dim)):
        v = sd * eps
        g = f.gradient(mean + v)
        plain.append(np.concatenate([g, g * v + 1.0]))
        g = g - hessian.dot(v)
        controlled.append(np.concatenate([g, g * v + hessian.diagonal * sd * sd + 1.0]))
    plain, controlled = np.array(plain), np.array(controlled)
    diff = plain - controlled
    assert np.all(np.abs(diff.mean(axis=0)) <= 5.0 * diff.std(axis=0) / np.sqrt(len(diff)))
    ratio = controlled.var(axis=0) / plain.var(axis=0)
    assert np.all(ratio < 1.0)
    assert np.median(ratio) < 0.25


def test_conjugate_interval_coverage():
    # calibrated-Bayes check: truth drawn from the prior, 95% interval
    # should cover it in about 95% of replications; the replicas are fitted
    # as one stack of MAP runs and one of SVI runs
    covered = 0
    n_reps = 200
    mc = MapConfig(iterations=250, rel_tol=0.0,
                   final_learning_rate=1e-4)
    problems = [conjugate_problem(10_000 + rep) for rep in range(n_reps)]
    inits = inference.fit_maps([(inputs, hp, mc, packing, ())
                                for inputs, hp, packing, *_ in problems])
    fits = inference.fit_svis([(inputs, hp, SviConfig(iterations=800, seed=rep), packing, (), init)
                               for rep, ((inputs, hp, packing, *_), init)
                               in enumerate(zip(problems, inits))])
    for (_, _, _, true_b, _, _), fit in zip(problems, fits):
        m = fit.variational_mean[0]
        s = float(np.exp(fit.variational_log_sd[0]))
        covered += (m - 1.959964 * s) <= true_b <= (m + 1.959964 * s)
    assert 0.90 <= covered / n_reps <= 1.00


# ---------------------------------------------------------------------------
# posterior draws
# ---------------------------------------------------------------------------

def test_draws_require_variational_fit():
    inputs, hp = small_problem(seed=41)
    fit = fit_map(inputs, hp, MapConfig(iterations=100))
    with pytest.raises(ValidationError, match="MAP-only"):
        draw_posterior(fit, inputs.design.k_reg, 10)


def test_zero_sd_draws_reproduce_the_mean():
    inputs, hp = small_problem(seed=42)
    fit = fit_svi(inputs, hp, SviConfig(iterations=200, seed=0),
                  init=fit_map(inputs, hp, MapConfig(iterations=300)))
    fit.variational_log_sd = np.full_like(fit.variational_log_sd, -745.0)
    draws = draw_posterior(fit, inputs.design.k_reg, 1, seed=9)
    assert np.allclose(draws.theta_draws[0], fit.variational_mean)
    ps = draws.packing.unpack(draws.theta_draws[0])
    assert np.allclose(ps.b_reg, fit.packing.unpack(fit.variational_mean).b_reg)


def test_draw_quantiles_ordered_and_nonnegative():
    inputs, hp = small_problem(seed=43)
    fit = fit_svi(inputs, hp, SviConfig(iterations=400, seed=0),
                  init=fit_map(inputs, hp, MapConfig(iterations=500)))
    draws = draw_posterior(fit, inputs.design.k_reg, 200, seed=7)
    assert np.all(draws.coefficient_draws >= 0)
    q = draws.coefficient_quantiles([0.025, 0.5, 0.975])
    assert np.all(q[0.025] <= q[0.5] + 1e-12)
    assert np.all(q[0.5] <= q[0.975] + 1e-12)
    # convex-hull bound per draw: each curve stays inside its knot range
    for i in range(0, 200, 50):
        ps = draws.packing.unpack(draws.theta_draws[i])
        beta = draws.coefficient_draws[i]
        for p in range(beta.shape[1]):
            assert beta[:, p].min() >= ps.b_reg[:, p].min() - 1e-12
            assert beta[:, p].max() <= ps.b_reg[:, p].max() + 1e-12


def with_moments(fit, packing_kind):
    """fit with variational moments around its point under one packing: the
    fit's own, an identity transform (so draws of b_reg go negative), or one
    that fixes b_lev, mu_reg and sigma_obs at the point, or b_lev alone."""
    packing = fit.packing
    if packing_kind == "identity":
        packing = dataclasses.replace(packing, reg_transform="identity")
    elif packing_kind == "fixed_b_lev":
        packing = dataclasses.replace(packing, fixed_b_lev=fit.params.b_lev)
    elif packing_kind == "fixed":
        packing = dataclasses.replace(
            packing, fixed_b_lev=fit.params.b_lev, fixed_mu_reg=fit.params.mu_reg,
            fixed_sigma_obs=fit.params.sigma_obs)
    return dataclasses.replace(fit, packing=packing, variational_mean=packing.pack(fit.params),
                               variational_log_sd=np.full(packing.dim, -1.5))


def moments_fit(packing_kind, seed=44, P=2, fourier=(FourierSpec(7.0, 1),)):
    _, inputs = toy(T=40, P=P, seed=seed, fourier=fourier)
    fit = fit_map(inputs, HyperParams(), MapConfig(iterations=200))
    return with_moments(fit, packing_kind), inputs


@pytest.mark.parametrize("P, fourier", [(2, (FourierSpec(7.0, 1),)), (2, ()), (0, ())],
                         ids=["seasonal", "no-seasonal", "no-regressors"])
@pytest.mark.parametrize("packing_kind", ["default", "identity", "fixed"])
def test_draw_posterior_matches_per_draw_reference(packing_kind, P, fourier):
    fit, inputs = moments_fit(packing_kind, P=P, fourier=fourier)
    k_reg = inputs.design.k_reg
    draws = draw_posterior(fit, k_reg, 150, seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    sd = np.exp(fit.variational_log_sd)
    for i in range(150):
        theta = fit.variational_mean + sd * rng.standard_normal(fit.packing.dim)
        assert np.array_equal(draws.theta_draws[i], theta)
        ref = coefficients(fit.packing.unpack(theta), k_reg)
        got = draws.coefficient_draws[i]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert draws.coefficient_draws.shape == (150, 40, P)
    if packing_kind == "identity" and P:
        assert draws.coefficient_draws.min() < 0
    levels = (0.05, 0.5, 0.95)
    bands = draws.coefficient_quantiles(levels)
    assert list(bands) == list(levels)
    for level in levels:
        assert np.array_equal(bands[level],
                              np.quantile(draws.coefficient_draws, level, axis=0))


def test_unpack_stacked_checks_every_draw():
    for packing_kind in ("default", "identity", "fixed"):
        fit, _ = moments_fit(packing_kind, seed=45)
        packing = fit.packing
        thetas = np.random.default_rng(1).normal(0, 1, (4, packing.dim))
        stacked = packing.unpack_stacked(thetas)
        for i in range(4):
            params = packing.unpack(thetas[i])
            row = [block[i] for block in stacked]
            assert np.array_equal(row[0], params.b_lev)
            assert np.array_equal(row[1], params.b_seas)
            assert np.array_equal(row[2], params.b_reg)
            assert np.array_equal(row[3], params.mu_reg)
            assert row[4] == params.sigma_obs

    packing = moments_fit("default", seed=45)[0].packing
    thetas = np.random.default_rng(2).normal(0, 1, (4, packing.dim))
    underflow = thetas.copy()
    underflow[2, -1] = -800.0  # ln sigma_obs
    negative_mu = dataclasses.replace(packing, fixed_mu_reg=np.array([0.2, -0.1]))
    cases = ((packing, thetas[:, :-1], "packing dim"),
             (packing, underflow, "sigma_obs must be > 0"),
             (negative_mu, thetas[:, :-2], "mu_reg entries must be >= 0"))
    for case_packing, bad, message in cases:
        with pytest.raises(ValidationError, match=message):
            case_packing.unpack_stacked(bad)
        with pytest.raises(ValidationError, match=message):
            for row in bad:
                case_packing.unpack(row)


def test_draws_reject_an_underflowing_sigma():
    fit, inputs = moments_fit("default", seed=46)
    fit.variational_mean[-1] = -800.0
    with pytest.raises(ValidationError, match="sigma_obs must be > 0"):
        draw_posterior(fit, inputs.design.k_reg, 10)


@pytest.mark.parametrize("shape", [(1, 6), (1, 4, 3), (2, 5), (7, 11, 3), (300, 28), (40,)])
@pytest.mark.parametrize("levels", [(0.05, 0.5, 0.95), (0.0, 1.0), (0, 1), (0.5,),
                                    tuple(np.linspace(0.0, 1.0, 21))])
def test_draw_quantiles_equal_np_quantile(shape, levels):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    draws = rng.lognormal(0.0, 2.0, shape)
    if len(shape) > 1 and shape[0] > 2:
        draws[1, 0] = np.nan
        draws[2:, -1] = draws[2, -1]  # ties in the last column
    got = inference.draw_quantiles(draws, levels)
    assert list(got) == [float(q) for q in levels]
    reference = np.quantile(draws, levels, axis=0)
    for q, band in zip(levels, reference):
        assert got[float(q)].tobytes() == np.asarray(band).tobytes()


# ---------------------------------------------------------------------------
# gradient check harness
# ---------------------------------------------------------------------------

def test_gradient_quadratic_case_is_exact():
    inputs, hp, packing, _, _, _ = conjugate_problem(5)
    theta0 = np.array([0.3])
    report = check_gradient(inputs, hp, packing, theta0, n_points=10, seed=0)
    assert report.max_rel_error <= 1e-8


def test_gradient_full_model():
    inputs, hp = small_problem(seed=51)
    packing = default_packing(inputs)
    theta0 = initial_theta(inputs, hp, packing)
    report = check_gradient(inputs, hp, packing, theta0, n_points=20, seed=1)
    assert report.passed
    assert report.max_rel_error <= 1e-4


def test_gradient_check_flags_kink_points():
    inputs, hp = small_problem(seed=52)
    packing = default_packing(inputs)
    theta0 = np.zeros(packing.dim)  # adjacent trend knots equal: on the kink
    report = check_gradient(inputs, hp, packing, theta0, n_points=5, seed=2)
    assert report.kink_perturbed > 0
    assert report.passed


# ---------------------------------------------------------------------------
# compiled objective
# ---------------------------------------------------------------------------

def reference_objective(inputs, hp, packing, calibration, include_jacobian):
    """The composition the compiled objective must equal."""
    def f(theta):
        value, pgrad = log_posterior_and_grad(packing.unpack(theta), inputs, hp, calibration)
        grad = packing.chain_grad(theta, pgrad)
        if include_jacobian:
            value += packing.log_jacobian(theta)
            grad = grad + packing.log_jacobian_grad(theta)
        return value, grad

    return f


def subnormal_kernel_problem():
    # kernel_matrix sets Gaussian weights below the smallest normal float to
    # 0; a hand-built K_reg puts subnormal weights back on every zero entry,
    # so the compiled objective is checked on products through them
    inputs, _ = small_problem(seed=71, T=240, P=2)
    grid = build_grid(240, count=12)
    d = inputs.design
    w = kernel_matrix(grid, "gaussian", rho=2.5).weights.copy()
    zero = w == 0
    w[zero] = np.finfo(float).tiny * np.geomspace(0.5, 2.0**-40, np.count_nonzero(zero))
    design = ModelDesign(regressors=d.regressors, seasonal=d.seasonal, k_lev=d.k_lev,
                         k_seas=d.k_seas, k_reg=dense_kernel(w, grid))
    assert np.count_nonzero((w != 0) & (w < np.finfo(float).tiny)) > w.size // 3
    return ModelInputs(design=design, target=inputs.target)


def gram(design, r0, with_level, w=None):
    """(order, blocks, c): objective._gram over the design's tiles."""
    order, tiles = objective._design_tiles(design, with_level)
    return (order, *objective._gram(tiles, order.size, r0, w))


def dense_gram(design, r0, with_level, row_w=None):
    """(G, c): the dense G = Z'WZ (W = diag(row_w), or the identity) and c = Z'r0
    over theta's knot order, the reference objective._gram's blocks are
    checked against bit for bit.

    Z' is built TILE_ROWS time rows at a time with weights below
    WEIGHT_FLOOR left out, as _design_tiles builds it; each tile's product
    is added into G in tile order, so every entry is the sum _gram's blocks
    must hold.
    """
    parts = [(design.k_seas.weights, np.ascontiguousarray(design.seasonal.T)),
             (design.k_reg.weights, np.ascontiguousarray(design.regressors.T))]
    if with_level:
        parts.insert(0, (design.k_lev.weights, np.ones((1, design.n_times))))
    offsets = np.cumsum([0] + [w.shape[1] * x.shape[0] for w, x in parts])
    G = np.zeros((offsets[-1], offsets[-1]))
    c = np.zeros(offsets[-1])
    for start in range(0, r0.size, TILE_ROWS):
        rows = slice(start, start + TILE_ROWS)
        blocks, spans, height = [], [], 0
        for (w, x), offset in zip(parts, offsets):
            kept = w[rows] >= WEIGHT_FLOOR
            used = np.flatnonzero(kept.any(axis=0))
            lo, hi, width = used[0], used[-1] + 1, x.shape[0]
            w_used = np.where(kept[:, lo:hi], w[rows, lo:hi], 0.0).T
            # row j * width + q of Z' is w[:, j] * x[q] on these time rows
            blocks.append((w_used[:, None, :] * x[None, :, rows])
                          .reshape((hi - lo) * width, w_used.shape[1]))
            spans.append((slice(offset + lo * width, offset + hi * width),
                          slice(height, height + blocks[-1].shape[0])))
            height += blocks[-1].shape[0]
        zt = np.vstack(blocks)
        g_block = zt @ zt.T if row_w is None else (zt * row_w[rows]) @ zt.T
        c_block = zt @ r0[rows]
        for into, local in spans:
            c[into] += c_block[local]
            for into_col, local_col in spans:
                G[into, into_col] += g_block[local, local_col]
    return G, c


def multi_block_problem():
    # regression knots every 2 rows with rho=1 couple only with knots a few
    # rows away, so G is cut into several row blocks; channel 1 is zero on
    # rows 100-159, which leaves G rows of its knots there all zero
    T = 300
    _, inputs = toy(T=T, P=2, seed=75, n_lev=15, n_seas=10)
    d = inputs.design
    regressors = d.regressors.copy()
    regressors[100:160, 1] = 0.0
    design = ModelDesign(regressors=regressors, seasonal=d.seasonal, k_lev=d.k_lev,
                         k_seas=d.k_seas,
                         k_reg=kernel_matrix(build_grid(T, distance=2), "gaussian", rho=1.0))
    inputs = ModelInputs(design=design, target=inputs.target)
    assert len(gram(design, inputs.target, True)[1]) >= 3
    assert not np.all(dense_gram(design, inputs.target, True)[0].any(axis=1))
    return inputs


def window_terms(inputs, n):
    names = inputs.design.regressor_names
    windows = [PriorWindow(channel=names[0], start=5, end=14, mean=0.3, sd=0.1),
               PriorWindow(channel=names[1], start=20, end=32, mean=0.6, sd=0.05)]
    return apply_prior_windows(windows[:n], names, inputs.design.n_times)


def compiled_variant(name):
    """(inputs, hp, packing, calibration) for one variant."""
    if name in ("student_t_fixed_blocks", "student_t_no_seasonal", "student_t_multi_block",
                "student_t_identity_gaussian"):
        # Student-t noise through Z's layouts: no level columns (r0 is the
        # target less the fixed trend), no seasonal columns, several tiles
        # with an all-zero channel stretch; and under signed b_reg
        inputs, hp, packing, terms = compiled_variant(name[len("student_t_"):])
        return inputs, dataclasses.replace(hp, noise_df=4.0), packing, terms
    inputs, hp = small_problem(seed=70)
    packing = default_packing(inputs)
    terms = ()
    if name == "one_window":
        terms = window_terms(inputs, 1)
    elif name == "two_windows":
        terms = window_terms(inputs, 2)
    elif name == "one_channel_windows":
        # disjoint windows on one channel, as the acceptance gate sets them
        names = inputs.design.regressor_names
        windows = [PriorWindow(channel=names[1], start=3, end=12, mean=0.3, sd=0.1),
                   PriorWindow(channel=names[1], start=22, end=35, mean=0.6, sd=0.05)]
        terms = apply_prior_windows(windows, names, inputs.design.n_times)
    elif name == "student_t":
        hp = HyperParams(noise_df=4.0)
    elif name == "student_t_windows":
        hp = HyperParams(noise_df=4.0)
        terms = window_terms(inputs, 2)
    elif name == "no_seasonal":
        _, inputs = toy(T=40, P=2, seed=70, fourier=())
        packing = default_packing(inputs)
        assert packing.n_seas_cols == 0
    elif name in ("subnormal_kernel", "subnormal_kernel_windows"):
        inputs = subnormal_kernel_problem()
        packing = default_packing(inputs)
        if name == "subnormal_kernel_windows":
            # each window's rows reach only a few of the 12 knots
            terms = window_terms(inputs, 2)
    elif name == "identity_gaussian":
        packing = dataclasses.replace(packing, reg_transform="identity")
    elif name == "fixed_blocks":
        packing = dataclasses.replace(
            packing, fixed_b_lev=np.linspace(1.5, 2.5, packing.n_lev),
            fixed_mu_reg=np.array([0.3, 0.2]), fixed_sigma_obs=0.6)
        terms = window_terms(inputs, 1)
    elif name == "fixed_level_only":
        # mu_pool > 0 keeps its location slot apart from the chains' 0 slot
        hp = HyperParams(mu_pool=0.2)
        packing = dataclasses.replace(packing, fixed_b_lev=np.linspace(1.5, 2.5, packing.n_lev))
        terms = window_terms(inputs, 1)
    elif name == "fixed_mu_only":
        packing = dataclasses.replace(packing, fixed_mu_reg=np.array([0.3, 0.2]))
        terms = window_terms(inputs, 2)
    elif name == "conjugate":
        inputs, hp, packing, _, _, _ = conjugate_problem(72)
    elif name == "multi_block":
        inputs = multi_block_problem()
        packing = default_packing(inputs)
        terms = window_terms(inputs, 2)
    return inputs, hp, packing, terms


COMPILED_VARIANTS = ("default", "one_window", "two_windows", "one_channel_windows", "student_t",
                     "student_t_windows", "no_seasonal", "subnormal_kernel",
                     "subnormal_kernel_windows", "identity_gaussian", "fixed_blocks",
                     "fixed_level_only", "fixed_mu_only", "conjugate", "multi_block",
                     "student_t_fixed_blocks", "student_t_no_seasonal", "student_t_multi_block",
                     "student_t_identity_gaussian")


def jittered_theta(theta0, packing, rng):
    return theta0 + rng.normal(0, 1.0, packing.dim)


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", COMPILED_VARIANTS)
def test_compiled_objective_matches_reference(variant, include_jacobian):
    inputs, hp, packing, terms = compiled_variant(variant)
    compiled = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian)
    reference = reference_objective(inputs, hp, packing, terms, include_jacobian)
    theta0 = initial_theta(inputs, hp, packing)
    rng = np.random.default_rng(len(variant))
    for _ in range(30):
        theta = jittered_theta(theta0, packing, rng)
        value, grad = compiled(theta)
        ref_value, ref_grad = reference(theta)
        assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.maximum(1.0, np.abs(ref_grad)))


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", COMPILED_VARIANTS)
def test_compiled_objective_keeps_no_state_between_calls(variant, include_jacobian):
    # a call reuses buffers built at compile time; its result must still
    # depend on its theta alone, and the gradient it returns must stay as it
    # is through later calls (fit_map keeps best_grad without a copy); a
    # call given out= writes the same gradient there (fit_svi's path)
    inputs, hp, packing, terms = compiled_variant(variant)
    f = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian)
    rng = np.random.default_rng(len(variant))
    theta0 = initial_theta(inputs, hp, packing)
    a, b = (jittered_theta(theta0, packing, rng) for _ in range(2))
    a_given = a.copy()
    value_a, grad_a = f(a)
    grad_a_first = grad_a.copy()
    value_b, grad_b = f(b)
    curv_a = -f.hessian(a).diagonal
    value_again, grad_again = f(a)
    f.hessian(b)
    assert value_b != value_a
    assert value_again == value_a and np.array_equal(grad_again, grad_a_first)
    assert np.array_equal(-f.hessian(a).diagonal, curv_a)
    assert np.array_equal(grad_a, grad_a_first)
    assert not np.shares_memory(grad_a, grad_b) and not np.shares_memory(grad_a, grad_again)
    assert np.array_equal(a, a_given)
    buf = np.full(packing.dim, np.nan)
    value_out, grad_out = f(a, out=buf)
    assert grad_out is buf
    assert value_out == value_a and buf.tobytes() == grad_a_first.tobytes()
    f(b)
    assert buf.tobytes() == grad_a_first.tobytes()


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("names", [(variant,) for variant in COMPILED_VARIANTS]
                         + [("default", "one_window", "fixed_blocks", "no_seasonal"),
                            ("student_t_windows", "student_t_fixed_blocks")])
def test_gradient_then_value_equals_the_call(names, include_jacobian):
    # fit_svi takes the gradient on every step and the value on traced ones
    # only: the two, run apart, give the call's bytes, also when another
    # theta's gradient ran in between; a stack of several structures too
    variants = [compiled_variant(name) for name in names]
    f = objective.Objective.stack(variants, include_jacobian)
    rng = np.random.default_rng(len(names[0]))

    def draw():
        theta = np.empty(f.dim)
        for at, (inputs, hp, packing, _) in zip(f.theta_of, variants):
            theta[at] = jittered_theta(initial_theta(inputs, hp, packing), packing, rng)
        return theta

    for _ in range(5):
        a, b = draw(), draw()
        value, grad = f(a)
        values = list(f.values)
        f.gradient(b)
        buf = np.full(f.dim, np.nan)
        assert f.gradient(a, out=buf) is buf
        assert buf.tobytes() == grad.tobytes()
        assert np.float64(f.value()).tobytes() == np.float64(value).tobytes()
        assert f.values == values
        assert f.value() == value  # value() only reads the buffers
        assert f.gradient(a).tobytes() == grad.tobytes()


def fd_curvature(f, theta, step):
    """-H_ii by central differences of f's compiled gradient, 2 dim calls:
    the oracle for -f.hessian(theta).diagonal, trustworthy only away from
    Laplace kinks."""
    out = np.empty(theta.size)
    for i, x in enumerate(theta):
        up, down = theta.copy(), theta.copy()
        up[i], down[i] = x + step * max(1.0, abs(x)), x - step * max(1.0, abs(x))
        out[i] = (f(down)[1][i] - f(up)[1][i]) / (up[i] - down[i])
    return out


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", COMPILED_VARIANTS)
def test_curvature_is_the_hessian_diagonal(variant, include_jacobian):
    # jittered points sit far from every Laplace kink, where the diagonal
    # is smooth and central differences of the gradient read it to ~1e-9
    inputs, hp, packing, terms = compiled_variant(variant)
    f = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian)
    theta0 = initial_theta(inputs, hp, packing)
    rng = np.random.default_rng(len(variant))
    for _ in range(3):
        theta = jittered_theta(theta0, packing, rng)
        exact, oracle = -f.hessian(theta).diagonal, fd_curvature(f, theta, 1e-5)
        assert np.all(np.abs(exact - oracle) <= 1e-6 * np.maximum(1.0, np.abs(oracle)))


def test_curvature_reads_no_kink():
    # a level knot on its chain neighbour: the Laplace term's kink is a jump
    # in the gradient, which central differences read as curvature; the
    # exact diagonal keeps the value it has just off the kink
    inputs, hp = small_problem(seed=27)
    packing = default_packing(inputs)
    f = objective.Objective.stack([(inputs, hp, packing, ())], include_jacobian=True)
    theta = jittered_theta(initial_theta(inputs, hp, packing), packing,
                           np.random.default_rng(5))
    theta[1] = theta[0]
    off = theta.copy()
    off[1] += 0.01
    exact = -f.hessian(theta).diagonal
    assert abs(exact[1] - fd_curvature(f, off, 1e-5)[1]) <= 1e-6 * exact[1]
    assert fd_curvature(f, theta, 1e-4)[1] >= 10.0 * exact[1]


def fd_hessian(f, theta, step):
    """H by central differences of f's compiled gradient, column by column,
    2 dim calls: the oracle for f.hessian, away from Laplace kinks."""
    out = np.empty((theta.size, theta.size))
    for i, x in enumerate(theta):
        up, down = theta.copy(), theta.copy()
        up[i], down[i] = x + step * max(1.0, abs(x)), x - step * max(1.0, abs(x))
        out[:, i] = (f(up)[1] - f(down)[1]) / (up[i] - down[i])
    return out


# Gaussian and Student-t noise, softplus and the identity transform (signed
# b_reg under a plain Normal prior), fixed b_lev, mu_reg and sigma, prior windows,
# several Gram row blocks, and stacks of two structures
HESSIAN_CASES = (("default",), ("one_window",), ("student_t_windows",), ("identity_gaussian",),
                 ("fixed_blocks",), ("fixed_level_only",), ("fixed_mu_only",),
                 ("student_t_fixed_blocks",), ("multi_block",), ("student_t_multi_block",),
                 ("conjugate",), ("student_t_identity_gaussian",), ("one_window", "fixed_blocks"),
                 ("student_t_windows", "student_t_no_seasonal"))


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("names", HESSIAN_CASES, ids="+".join)
def test_hessian_is_the_central_difference_of_the_gradient(names, include_jacobian):
    # every entry of H, the product with each unit vector, against central
    # differences of the compiled gradient at jittered points far from the
    # Laplace kinks; diagonal is the product's diagonal (the product takes
    # the band's diagonal out of one entry and adds it back in another, so
    # up to rounding), and a second call gives it bit for bit
    variants = [compiled_variant(name) for name in names]
    f = objective.Objective.stack(variants, include_jacobian)
    rng = np.random.default_rng(len(names[0]))
    for _ in range(2):
        theta = np.empty(f.dim)
        for at, (inputs, hp, packing, _) in zip(f.theta_of, variants):
            theta[at] = jittered_theta(initial_theta(inputs, hp, packing), packing, rng)
        hessian = f.hessian(theta)
        columns = np.stack([hessian.dot(e) for e in np.eye(f.dim)], axis=1)
        oracle = fd_hessian(f, theta, 1e-5)
        assert np.all(np.abs(columns - oracle) <= 1e-6 * np.maximum(1.0, np.abs(oracle)))
        assert np.allclose(np.diag(columns), hessian.diagonal, rtol=1e-13, atol=0.0)
        assert f.hessian(theta).diagonal.tobytes() == hessian.diagonal.tobytes()
        v = rng.standard_normal(f.dim)
        assert np.allclose(hessian.dot(v), columns @ v, rtol=1e-12, atol=1e-12)


# variants that may share a stack: one regression transform, one noise
# family; fixed blocks, windows and sizes differ within a stack
STACKS = {
    "gaussian": ("default", "one_window", "fixed_blocks", "fixed_level_only", "fixed_mu_only",
                 "no_seasonal", "multi_block", "subnormal_kernel_windows"),
    "student_t": ("student_t", "student_t_windows", "student_t_fixed_blocks",
                  "student_t_no_seasonal", "student_t_multi_block"),
    "identity_gaussian": ("identity_gaussian", "conjugate"),
}


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("group", STACKS)
def test_a_stacked_objective_computes_each_structure_as_it_does_alone(group, include_jacobian):
    variants = [compiled_variant(name) for name in STACKS[group]]
    stack = objective.Objective.stack(variants, include_jacobian)
    alone = [objective.Objective.stack([v], include_jacobian) for v in variants]
    keep = [0, 2] if len(variants) > 2 else [1]
    sub, entries = stack.subset(keep)
    rng = np.random.default_rng(len(group))
    for _ in range(5):
        thetas = [jittered_theta(initial_theta(inputs, hp, packing), packing, rng)
                  for inputs, hp, packing, _ in variants]
        theta = np.empty(stack.dim)
        for at, theta_k in zip(stack.theta_of, thetas):
            theta[at] = theta_k
        value, grad = stack(theta)
        values = list(stack.values)
        assert len(values) == len(variants) and value == sum(values)
        curvature = -stack.hessian(theta).diagonal
        for k, (f, theta_k) in enumerate(zip(alone, thetas)):
            value_k, grad_k = f(theta_k)
            assert values[k] == value_k
            assert grad[stack.theta_of[k]].tobytes() == grad_k.tobytes()
            assert (curvature[stack.theta_of[k]].tobytes()
                    == (-f.hessian(theta_k).diagonal).tobytes())
        # the stack of some of them, built from the compiled parts
        _, sub_grad = sub(theta[entries])
        assert sub.values == [values[k] for k in keep]
        assert sub_grad.tobytes() == grad[entries].tobytes()


def test_a_stack_needs_one_noise_family():
    with pytest.raises(ValidationError, match="stacked structures must share"):
        objective.Objective.stack(
            [compiled_variant(name) for name in ("default", "student_t")], False)


def test_an_empty_stack_is_a_validation_error():
    # each used to fail in IndexError at its first element
    with pytest.raises(ValidationError, match="^fit_maps needs at least one run$"):
        inference.fit_maps([])
    with pytest.raises(ValidationError, match="^fit_svis needs at least one run$"):
        inference.fit_svis([])
    with pytest.raises(ValidationError, match="^an objective stack needs at least one structure$"):
        objective.Objective.stack([], False)


def stacked_runs(case):
    """fit_maps runs on three prefixes of one series, as backtest splits are,
    each with its own seed."""
    frame = simulate_multiplicative(MultiplicativeSimConfig(T=260, P=2, seed=31)).frame
    cfg = dataclasses.replace(RunConfig(), fourier="7:1",
                              noise_df=5.0 if case == "student_t" else 0.0)
    runs = []
    for T in (150, 200, 260):
        train = rows(frame, T)
        inputs, hp, _ = build_structure(train, cfg)
        terms = ()
        if case == "window":
            window = PriorWindow(channel="x1", start=T - 20, end=T - 1, mean=0.3, sd=0.05)
            terms = apply_prior_windows([window], train.regressor_names, T)
        runs.append((inputs, hp, MapConfig(seed=T, trace_every=3), None, terms))
    return runs


def rows(frame, n):
    return dataclasses.replace(frame, timestamps=frame.timestamps[:n], response=frame.response[:n],
                               regressors=frame.regressors[:n])


@pytest.mark.parametrize("case", ["gaussian", "student_t", "window"])
def test_each_run_of_a_stacked_fit_equals_its_fit_alone(case):
    runs = stacked_runs(case)
    fits = inference.fit_maps(runs)
    for (inputs, hp, config, packing, terms), fit in zip(runs, fits):
        alone = fit_map(inputs, hp, config, packing=packing, calibration=terms)
        assert fit.theta.tobytes() == alone.theta.tobytes()
        assert fit.trace == alone.trace
        assert (fit.n_iterations, fit.stop_reason, fit.grad_norm, fit.seed) == (
            alone.n_iterations, alone.stop_reason, alone.grad_norm, alone.seed)
        assert fit.params.b_reg.tobytes() == alone.params.b_reg.tobytes()
    # the runs stop at different iterations, so the stack lost runs on the way
    assert len({fit.n_iterations for fit in fits}) == 3
    # the SVI objective's Hessian of the stack at the fitted points: each
    # structure's part has the bits of its own Hessian
    problems = [(inputs, hp, fit.packing, terms)
                for (inputs, hp, _, _, terms), fit in zip(runs, fits)]
    stack = objective.Objective.stack(problems, include_jacobian=True)
    theta = np.empty(stack.dim)
    for at, fit in zip(stack.theta_of, fits):
        theta[at] = fit.theta
    v = np.random.default_rng(0).standard_normal(stack.dim)
    hessian = stack.hessian(theta)
    product = hessian.dot(v)
    for problem, fit, at in zip(problems, fits, stack.theta_of):
        alone = objective.Objective.stack([problem], include_jacobian=True).hessian(fit.theta)
        assert hessian.diagonal[at].tobytes() == alone.diagonal.tobytes()
        assert product[at].tobytes() == alone.dot(v[at]).tobytes()


def stacked_svi_runs(case):
    """fit_svis runs from the stacked MAP fits of stacked_runs(case), each
    with its own seed."""
    runs = stacked_runs(case)
    return [(inputs, hp, SviConfig(iterations=150, seed=config.seed + 1, trace_every=7,
                                   init_log_sd=-2.0), packing, terms, init)
            for (inputs, hp, config, packing, terms), init in zip(runs, inference.fit_maps(runs))]


@pytest.mark.parametrize("case", ["gaussian", "student_t", "window"])
def test_each_run_of_a_stacked_svi_fit_equals_its_fit_alone(case):
    # 150 steps end inside a draw block
    runs = stacked_svi_runs(case)
    fits = inference.fit_svis(runs)
    for (inputs, hp, config, packing, terms, init), fit in zip(runs, fits):
        alone = fit_svi(inputs, hp, config, packing=packing, calibration=terms, init=init)
        assert fit.variational_mean.tobytes() == alone.variational_mean.tobytes()
        assert fit.variational_log_sd.tobytes() == alone.variational_log_sd.tobytes()
        assert fit.trace == alone.trace
        assert (fit.n_iterations, fit.stop_reason, fit.seed, fit.trace_every) == (
            alone.n_iterations, alone.stop_reason, alone.seed, alone.trace_every)
    assert [len(fit.trace) for fit in fits] == [22, 22, 22]
    # each run's cap binds on some entries of its start
    for inputs, hp, config, packing, terms, init in runs:
        f = objective.Objective.stack([(inputs, hp, init.packing, terms)], include_jacobian=True)
        assert np.any(inference._start_log_sd(-f.hessian(init.theta).diagonal, np.inf)
                      > config.init_log_sd)


def test_a_diverging_run_of_a_stacked_svi_fit_names_itself(monkeypatch):
    runs = stacked_svi_runs("gaussian")
    clean = fit_svi(*runs[2][:5], init=runs[2][5])
    real = objective.Objective.gradient
    calls = {"n": 0}

    def poisoned(self, theta, out=None):
        grad = real(self, theta, out)
        calls["n"] += 1
        if calls["n"] == 13 + 2:  # call 1 is the start's Hessian
            grad[self.theta_of[2][0]] = np.nan
        return grad

    monkeypatch.setattr(objective.Objective, "gradient", poisoned)
    with pytest.raises(DivergenceError, match="^gradient became non-finite at iteration 13$") \
            as exc:
        inference.fit_svis(runs)
    # the runs record their ELBOs every 7 steps: at steps 0 and 7 of 0-12
    assert (exc.value.index, exc.value.iteration) == (2, 13)
    assert exc.value.trace == clean.trace[:2]


def test_stacked_runs_share_one_step_size_schedule():
    # the step-size schedule, and every other setting but the seed
    runs = stacked_runs("gaussian")
    for change in ({"iterations": 500}, {"trace_every": 1}):
        changed = runs.copy()
        changed[1] = (*runs[1][:2], dataclasses.replace(runs[1][2], **change), *runs[1][3:])
        with pytest.raises(ValidationError,
                           match="^stacked MAP runs must share every setting but the seed$"):
            inference.fit_maps(changed)
    runs = stacked_svi_runs("gaussian")
    for change in ({"final_learning_rate": 1e-3}, {"init_log_sd": -1.0}):
        changed = runs.copy()
        changed[1] = (*runs[1][:2], dataclasses.replace(runs[1][2], **change), *runs[1][3:])
        with pytest.raises(ValidationError,
                           match="^stacked SVI runs must share every setting but the seed$"):
            inference.fit_svis(changed)


def test_a_diverging_run_of_a_stacked_fit_names_itself(monkeypatch):
    real = objective.Objective.__call__
    calls = {"n": 0}

    def exploding(self, theta, out=None):
        value, grad = real(self, theta, out)
        calls["n"] += 1
        if calls["n"] > 3:
            self.values[1] = np.nan
        return value, grad

    monkeypatch.setattr(objective.Objective, "__call__", exploding)
    with pytest.raises(DivergenceError, match="^objective became non-finite at iteration 3$") \
            as exc:
        inference.fit_maps(stacked_runs("gaussian"))
    # the runs record their traces every 3 iterations: at iteration 0 of 0-2
    assert (exc.value.index, exc.value.iteration, len(exc.value.trace)) == (1, 3, 1)


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", ["one_window", "student_t_windows"])
def test_compiled_objective_at_extreme_arguments(variant, include_jacobian):
    # raw b_reg and mu_reg from where softplus underflows to a subnormal to
    # where it is the identity; the folded-normal mirror argument
    # a = 2 x loc / sigma^2 then runs from 0 to about 4e6, so log(1 + e^-a)
    # sees arguments from 0 to very negative. (a < 0 cannot occur: softplus
    # keeps x and loc >= 0.)
    inputs, hp, packing, terms = compiled_variant(variant)
    compiled = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian)
    reference = reference_objective(inputs, hp, packing, terms, include_jacobian)
    theta0 = initial_theta(inputs, hp, packing)
    reg = slice(packing.slices()["b_reg"].start, packing.slices()["mu_reg"].stop)
    extremes = np.array([-745.0, -40.0, 0.0, 40.0, 700.0])
    n_reg = reg.stop - reg.start
    compared = 0
    for shift in range(extremes.size):
        for stride in (1, 2):
            theta = theta0.copy()
            theta[reg] = extremes[(shift + stride * np.arange(n_reg)) % extremes.size]
            value, grad = compiled(theta)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            with np.errstate(over="ignore", under="ignore"):
                ref_value, ref_grad = reference(theta)
            if np.isfinite(ref_value):
                assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
                compared += 1
            finite = np.isfinite(ref_grad)
            assert np.all(np.abs(grad - ref_grad)[finite]
                          <= 1e-12 * np.maximum(1.0, np.abs(ref_grad[finite])))
    assert compared > 0


def default_structure(T):
    """(frame, inputs, hp) of a default-config structure of the
    multiplicative simulator."""
    frame = simulate_multiplicative(MultiplicativeSimConfig(T=T, P=3, seed=T)).frame
    inputs, hp, _ = build_structure(frame, RunConfig(seed=T))
    return frame, inputs, hp


def fitted_structure(T, windowed):
    """(inputs, hp, packing, terms, MAP theta) of a default-config structure
    of the multiplicative simulator; windowed adds a 28-day prior window on
    x1, as the svi_calibrated benchmark workload does."""
    frame, inputs, hp = default_structure(T)
    terms = ()
    if windowed:
        window = PriorWindow(channel="x1", start=T - 27, end=T, mean=0.3, sd=0.02)
        terms = apply_prior_windows([window], frame.regressor_names, T)
    fit = fit_map(inputs, hp, MapConfig(seed=T), calibration=terms)
    return inputs, hp, fit.packing, terms, fit.theta


def max_relative_errors(compiled, reference, thetas):
    value_err = grad_err = 0.0
    for theta in thetas:
        value, grad = compiled(theta)
        ref_value, ref_grad = reference(theta)
        value_err = max(value_err, abs(value - ref_value) / max(1.0, abs(ref_value)))
        grad_err = max(grad_err, float(np.max(
            np.abs(grad - ref_grad) / np.maximum(1.0, np.abs(ref_grad)))))
    return value_err, grad_err


@pytest.mark.parametrize("T, windowed", [(730, False), (420, True), (3000, False)])
def test_gram_likelihood_matches_reference_near_the_optimum(T, windowed):
    # Near the MAP point the residuals are small against the target, so the
    # Gram quadratic's s0 - 2 beta'c + beta'G beta and c - G beta lose digits
    # to cancellation that the readable residual path does not. Measured
    # over three jitter seeds: at most 1.5e-14 (value) and 1.2e-11
    # (gradient) relative; the bounds leave about 7x room. T=3000 runs the
    # product over several row blocks of G (3.5e-15 and 5.5e-12 there).
    inputs, hp, packing, terms, theta_map = fitted_structure(T, windowed)
    rng = np.random.default_rng(T)
    thetas = [theta_map] + [theta_map + rng.normal(0, 0.01, packing.dim) for _ in range(10)]
    compiled = objective.Objective.stack([(inputs, hp, packing, terms)], windowed)
    reference = reference_objective(inputs, hp, packing, terms, windowed)
    value_err, grad_err = max_relative_errors(compiled, reference, thetas)
    assert value_err <= 1e-13
    assert grad_err <= 1e-10


def gram_case(case):
    """(design, r0, with_level) of one Gram builder case."""
    if case == "multi_block":
        inputs = multi_block_problem()
        return inputs.design, inputs.target, True
    if case == "no_fourier":
        frame = simulate_multiplicative(MultiplicativeSimConfig(T=730, P=3, seed=730)).frame
        inputs = build_structure(frame, RunConfig(seed=730, fourier=""))[0]
        assert inputs.design.seasonal.shape[1] == 0
        return inputs.design, inputs.target - inputs.target.mean(), True
    T = {"default_3000": 3000, "one_tile": 200}.get(case, 730)
    _, inputs, _ = default_structure(T)
    design, y = inputs.design, inputs.target
    if case == "fixed_trend":
        # b_lev fixed: r0 is the target less a fixed trend, the level kernel
        # has no columns in Z
        trend = design.k_lev.weights @ np.linspace(1.0, 2.0, design.k_lev.grid.n_knots)
        return design, y - trend, False
    if case in ("no_regressors", "no_knots"):
        design = dataclasses.replace(design, regressors=np.zeros((T, 0)), regressor_names=())
    if case == "no_knots":
        # no seasonal columns and b_lev fixed: Z has no columns at all
        return dataclasses.replace(design, seasonal=np.zeros((T, 0))), y, False
    return design, y - y.mean(), True


@pytest.mark.parametrize("case", ["default_3000", "multi_block", "fixed_trend", "no_fourier",
                                  "no_regressors", "one_tile", "no_knots",
                                  "multi_block_weighted", "fixed_trend_weighted"])
def test_gram_blocks_hold_g_exactly(case):
    # the blocks, put back in theta's order, are the dense reference G bit
    # for bit, so no nonzero is dropped, and c is its c in time order; the
    # blocks' product is G @ beta up to rounding. Weighted, G is Z'WZ, as
    # Objective.hessian builds it under Student-t noise
    case, weighted = case.removesuffix("_weighted"), case.endswith("_weighted")
    design, r0, with_level = gram_case(case)
    w = np.random.default_rng(4).uniform(-0.5, 2.0, r0.size) if weighted else None
    G, c = dense_gram(design, r0, with_level, w)
    order, blocks, c_time = gram(design, r0, with_level, w)
    assert sorted(order) == list(range(G.shape[0]))
    assert np.array_equal(c_time, c[order])
    permuted, product = np.zeros_like(G), np.empty(G.shape[0])
    beta = np.random.default_rng(3).normal(0, 1, G.shape[0])
    covered = 0
    for rows, cols, block in blocks:
        assert rows.start == covered and block.flags.c_contiguous
        covered = rows.stop
        permuted[rows, cols] = block
        np.dot(block, beta[order][cols], out=product[rows])
    assert covered == G.shape[0]
    rebuilt = np.empty_like(G)
    rebuilt[np.ix_(order, order)] = permuted
    assert np.array_equal(rebuilt, G)
    scale = (np.abs(G) @ np.abs(beta))[order]
    assert np.all(np.abs(product - (G @ beta)[order]) <= 1e-13 * scale)
    if case in ("default_3000", "multi_block"):
        assert len(blocks) > 1
    if case == "default_3000":
        assert sum(block.size for _, _, block in blocks) < 0.7 * G.size
    if case == "one_tile":
        assert r0.size < TILE_ROWS


@pytest.mark.parametrize("T", [420, 730])
def test_gram_blocks_of_small_default_structures_are_one_block(T):
    _, inputs, _ = default_structure(T)
    design, y = inputs.design, inputs.target
    G, _ = dense_gram(design, y - y.mean(), True)
    _, blocks, _ = gram(design, y - y.mean(), True)
    assert len(blocks) == 1
    assert blocks[0][2].shape == G.shape


def test_compile_allocates_no_dense_gram():
    # the compile builds G's banded blocks from the kernel tiles, so its
    # traced peak stays below one dense G (8 dim^2 bytes; 32 MB here). The
    # blocks stored 820,952 entries when the kernels kept weights down to
    # sqrt(tiny) (27 regression knots a row); cut at 2^-54 (9 a row) they
    # store 422,072
    _, inputs, hp = default_structure(10000)
    packing = default_packing(inputs)
    dim = packing.slices()["b_reg"].stop
    tracemalloc.start()
    try:
        objective.Objective.stack([(inputs, hp, packing, ())], include_jacobian=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim * dim
    y = inputs.target
    _, blocks, _ = gram(inputs.design, y - y.mean(), True)
    assert sum(block.size for _, _, block in blocks) < 500_000


@pytest.mark.parametrize("case", ["windows", "student_t"])
def test_banded_kernels_give_the_objective_of_the_dense_reference(case):
    # T=600 is three product tiles; the second window crosses the tile
    # boundary at row 256. Each kernel of the reference design holds every
    # entry of the dense row-by-row formula, so its compile reads whole rows
    T = 600
    frame = simulate_multiplicative(MultiplicativeSimConfig(T=T, P=3, seed=T)).frame
    cfg = RunConfig(seed=T, noise_df=4.0 if case == "student_t" else 0.0)
    inputs, hp, structure = build_structure(frame, cfg)
    d, times = inputs.design, range(1, T + 1)
    dense = ModelInputs(design=dataclasses.replace(
        d, k_lev=dense_kernel(reference_rows(d.k_lev.grid, "level", times), d.k_lev.grid),
        k_seas=dense_kernel(reference_rows(d.k_seas.grid, "level", times), d.k_seas.grid),
        k_reg=dense_kernel(reference_rows(d.k_reg.grid, "gaussian", times, structure.rho),
                           d.k_reg.grid)), target=inputs.target)
    windows = [PriorWindow(channel="x1", start=T - 27, end=T, mean=0.3, sd=0.02),
               PriorWindow(channel="x2", start=240, end=280, mean=0.2, sd=0.05)]
    terms = apply_prior_windows(windows, frame.regressor_names, T)
    packing = default_packing(inputs)
    theta0 = initial_theta(inputs, hp, packing)
    np.testing.assert_allclose(initial_theta(dense, hp, packing), theta0, rtol=1e-12)
    rng = np.random.default_rng(6)
    thetas = [theta0] + [theta0 + rng.normal(0, 0.1, packing.dim) for _ in range(10)]
    for include_jacobian in (False, True):
        value_err, grad_err = max_relative_errors(
            objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian),
            objective.Objective.stack([(dense, hp, packing, terms)], include_jacobian), thetas)
        assert value_err <= 1e-12 and grad_err <= 1e-12
        value_err, grad_err = max_relative_errors(
            reference_objective(inputs, hp, packing, terms, include_jacobian),
            reference_objective(dense, hp, packing, terms, include_jacobian), thetas)
        assert value_err <= 1e-12 and grad_err <= 1e-12
    if case == "windows":
        r0 = inputs.target - inputs.target.mean()
        (order, blocks, c), (order_d, blocks_d, c_d) = (
            gram(x.design, r0, True) for x in (inputs, dense))
        assert np.array_equal(order, order_d) and np.array_equal(c, c_d)
        assert len(blocks) == len(blocks_d)
        for (rows, cols, block), (rows_d, cols_d, block_d) in zip(blocks, blocks_d):
            assert (rows, cols) == (rows_d, cols_d) and np.array_equal(block, block_d)


def test_student_t_objective_through_design_tiles_matches_reference():
    # Student-t noise is not quadratic in the knots, so its objective reads
    # the Gram build's tiles of Z on every call; near the MAP point it still
    # matches the reference to 1e-12 (measured 9.5e-13 gradient, 7.6e-16
    # value; 7.2e-13 and 5.7e-16 through the kernel products it replaced)
    inputs, _, packing, terms, theta_map = fitted_structure(420, windowed=True)
    hp = HyperParams(noise_df=5.0)
    rng = np.random.default_rng(5)
    thetas = [theta_map] + [theta_map + rng.normal(0, 0.01, packing.dim) for _ in range(10)]
    for include_jacobian in (False, True):
        compiled = objective.Objective.stack([(inputs, hp, packing, terms)], include_jacobian)
        reference = reference_objective(inputs, hp, packing, terms, include_jacobian)
        value_err, grad_err = max_relative_errors(compiled, reference, thetas)
        assert value_err <= 1e-12 and grad_err <= 1e-12


def test_compiled_objective_error_paths():
    inputs, hp = small_problem(seed=73)
    packing = default_packing(inputs)
    theta = initial_theta(inputs, hp, packing)
    f = objective.Objective.stack([(inputs, hp, packing, ())], include_jacobian=False)
    with pytest.raises(ValidationError, match="packing dim"):
        f(theta[:-1])
    # exp(1000) overflows, but the value is taken from ln sigma itself: the
    # likelihood is -n ln sigma there, its residual term 0
    with np.errstate(over="ignore"):
        value, grad = f(np.concatenate([theta[:-1], [1000.0]]))
    assert np.isfinite(value) and grad[-1] == -inputs.target.size
    # exp(-1000) underflows to 0: a non-finite value, as at ln sigma = -400
    with np.errstate(divide="ignore", invalid="ignore"):
        for ln_sigma in (-400.0, -1000.0):
            value, _ = f(np.concatenate([theta[:-1], [ln_sigma]]))
            assert not np.isfinite(value)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_identity_transform_fits_signed_knots_under_the_default_prior(seed):
    # reg_transform="identity" alone brings the Normal prior on b_reg: with
    # the default HyperParams a fit leaves the folded normal's support, as
    # the knots of an unconstrained fit may, and still ends at a finite point
    frame = simulate_multiplicative(MultiplicativeSimConfig(T=200, seed=seed)).frame
    inputs, _, _ = build_structure(frame, RunConfig())
    identity = dataclasses.replace(default_packing(inputs), reg_transform="identity")
    fit = fit_map(inputs, HyperParams(), MapConfig(iterations=300), packing=identity)
    assert np.isfinite(fit.theta).all() and fit.params.allow_negative_reg
    assert fit.params.b_reg.min() < 0


def imported_names(path):
    """Every dotted part of every module a source file imports, and the
    names it imports from them."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)
    return imported


def test_objective_imports_nothing_from_the_fit_layers():
    # the dependency runs one way: inference, pipeline and cli build
    # Objectives, and objective.py knows none of them
    imported = imported_names(pathlib.Path(objective.__file__))
    assert imported & {"inference", "pipeline", "cli"} == set()


def test_the_library_imports_nothing_from_the_tests():
    # the gradient checker lives in tests/oracle.py; no library module may
    # lean on it, or on anything else under tests/
    modules = sorted(pathlib.Path(objective.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        assert imported_names(path) & {"tests", "oracle"} == set(), path.name


@pytest.mark.parametrize("config", [MapConfig, SviConfig])
def test_trace_every_must_be_positive(config):
    with pytest.raises(ValidationError, match="trace_every must be >= 1"):
        config(trace_every=0)


@pytest.mark.parametrize("config, name, value", [
    (MapConfig, "learning_rate", np.nan),
    (MapConfig, "final_learning_rate", np.inf),
    (MapConfig, "rel_tol", np.nan),
    (SviConfig, "learning_rate", np.nan),
    (SviConfig, "final_learning_rate", np.inf),
    (SviConfig, "init_log_sd", np.nan),
    (SviConfig, "init_log_sd", -np.inf),
])
def test_optimizer_configs_reject_non_finite_settings(config, name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
        config(**{name: value})


@pytest.mark.parametrize("kwargs, message", [
    ({"tol_window": 0}, "tol_window must be >= 1"),
    ({"tol_window": -3}, "tol_window must be >= 1"),
    ({"rel_tol": -1e-8}, "rel_tol must be >= 0"),
    ({"restarts": 2}, "restarts must be 1"),
    ({"restarts": 0}, "restarts must be 1"),
])
def test_map_config_rejects_bad_plateau_and_restart_settings(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        MapConfig(**kwargs)


@pytest.mark.parametrize("trace_every", [1, 7])
@pytest.mark.parametrize("iterations, rel_tol", [(100, 0.0), (45, 0.0), (10000, 1e-8)])
def test_map_trace_ends_at_the_returned_point(trace_every, iterations, rel_tol):
    # budgets that are not multiples of 7, and a plateau stop at an
    # iteration the trace does not otherwise record
    inputs, hp = small_problem(seed=27)
    fit = fit_map(inputs, hp, MapConfig(iterations=iterations, rel_tol=rel_tol,
                                        trace_every=trace_every))
    if rel_tol == 0.0:
        assert fit.stop_reason == "max_iter" and fit.n_iterations == iterations
    expected = log_posterior(fit.params, inputs, hp)
    assert abs(fit.trace[-1] - expected) <= 1e-12 * abs(expected)
    assert np.all(np.diff(fit.trace) >= 0)


def test_svi_point_outputs_use_the_variational_mean(tmp_path):
    inputs, hp = small_problem(seed=74)
    fit = fit_svi(inputs, hp, SviConfig(iterations=200, seed=0),
                  init=fit_map(inputs, hp, MapConfig(iterations=300)))
    mean_point = fit.packing.unpack(fit.variational_mean)
    got = decompose(fit.params, inputs.design)
    assert np.array_equal(got.fitted, decompose(mean_point, inputs.design).fitted)
    assert not np.array_equal(got.fitted,
                              decompose(fit.packing.unpack(fit.theta), inputs.design).fitted)
    path = tmp_path / "fit.json"
    save_fit(fit, str(path))
    back = load_fit(str(path))
    assert np.array_equal(back.theta, fit.theta)
    assert np.array_equal(decompose(back.params, inputs.design).fitted, got.fitted)


# ---------------------------------------------------------------------------
# fit document
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    inputs, hp = small_problem(seed=61)
    fit = fit_svi(inputs, hp, SviConfig(iterations=150, seed=0),
                  init=fit_map(inputs, hp, MapConfig(iterations=200)))
    fit.structure = make_structure(T=40, knots_lev=[10, 20, 30, 40], fourier=[(7.0, 1)])
    p = tmp_path / "fit.json"
    save_fit(fit, str(p))
    back = load_fit(str(p))
    assert np.array_equal(back.theta, fit.theta)
    assert np.array_equal(back.variational_mean, fit.variational_mean)
    assert back.packing == fit.packing
    assert back.hyper == fit.hyper
    assert back.structure == fit.structure
    assert back.mode == "svi"
    assert back.trace_every == fit.trace_every == 10
    assert np.array_equal(back.params.b_reg, fit.params.b_reg)
    save_fit(back, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == p.read_bytes()
    # a document from before trace_every was recorded reads it as None
    doc = json.loads(p.read_text())
    del doc["trace_every"]
    p.write_text(json.dumps(doc))
    assert load_fit(str(p)).trace_every is None
    # the free-form block a structure once was is rejected, naming the block
    doc = json.loads(p.read_text())
    doc["structure"] = {"T": 40, "note": "round-trip"}
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"^unknown structure keys: \['note'\]$"):
        load_fit(str(p))


def test_fit_document_keeps_every_hyperparameter_and_packing_field(tmp_path):
    inputs, _ = small_problem(seed=63)
    hp = HyperParams(sigma_lev=0.2, sigma_seas=0.07, mu_pool=0.3, sigma_pool=1.7,
                     sigma_reg=1.2, init_scale_lev=3.5, noise_df=5.0)
    base = default_packing(inputs)
    packing = dataclasses.replace(
        base, reg_transform="identity", fixed_b_lev=np.linspace(1.5, 2.5, base.n_lev),
        fixed_mu_reg=np.array([0.4, 0.25]), fixed_sigma_obs=0.7)
    fit = fit_map(inputs, hp, MapConfig(iterations=50), packing=packing)
    path = tmp_path / "fit.json"
    save_fit(fit, str(path))
    back = load_fit(str(path))
    assert back.hyper == hp
    for f in dataclasses.fields(ParameterPacking):
        got, want = getattr(back.packing, f.name), getattr(packing, f.name)
        assert type(got) is type(want), f.name
        assert np.array_equal(got, want), f.name
    again = tmp_path / "again.json"
    save_fit(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_save_is_byte_deterministic(tmp_path):
    inputs, hp = small_problem(seed=62)
    cfg = MapConfig(iterations=150, seed=4)
    a = fit_map(inputs, hp, cfg)
    b = fit_map(inputs, hp, cfg)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_fit(a, str(pa))
    save_fit(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
