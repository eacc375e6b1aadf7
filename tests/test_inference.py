import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import btvc.inference as inference
from btvc.calibration import PriorWindow, apply_prior_windows
from btvc.errors import DivergenceError, ValidationError
from btvc.fourier import FourierSpec
from btvc.kernels import KernelMatrix, KnotGrid, build_grid, kernel_matrix
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
    check_gradient,
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
from btvc.pipeline import build_structure
from btvc.runconfig import RunConfig
from btvc.simulation import MultiplicativeSimConfig, simulate_multiplicative
from tests.test_model import toy


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
    hp = HyperParams(gaussian_reg_prior=True, sigma_reg=sigma_reg)
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
    assert np.array_equal(packing.pack(params), theta)
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
    f = inference._objective(inputs, hp, packing, (), include_jacobian=False)
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

    def exploding(inputs_, hp_, packing_, calibration, include_jacobian):
        def f(theta):
            calls["n"] += 1
            if calls["n"] > 3:
                return np.nan, np.zeros(packing_.dim)
            return -1.0, np.zeros(packing_.dim)
        return f

    monkeypatch.setattr(inference, "_objective", exploding)
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
    f = inference._objective(inputs, hp, packing, terms, include_jacobian=False)
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
                  packing=packing, map_config=mc)
    mean = fit.variational_mean[0]
    sd = float(np.exp(fit.variational_log_sd[0]))
    assert abs(mean - post_mean) / abs(post_mean) < 0.02
    assert abs(sd - post_sd) / post_sd < 0.10


def test_svi_deterministic_and_ascending():
    inputs, hp = small_problem(seed=31)
    sc = SviConfig(iterations=600, seed=3)
    mc = MapConfig(iterations=500)
    a = fit_svi(inputs, hp, sc, map_config=mc)
    b = fit_svi(inputs, hp, sc, map_config=mc)
    assert a.trace == b.trace
    # least-squares slope over the last 20% of ELBO samples is nonnegative
    tail = np.asarray(a.trace[int(0.8 * len(a.trace)):])
    slope = np.polyfit(np.arange(tail.size), tail, 1)[0]
    assert slope >= -1e-3
    assert a.has_variational
    assert a.mode == "svi"


@pytest.mark.parametrize("samples_per_step", [1, 3])
def test_svi_in_place_step_equals_the_allocating_update(samples_per_step):
    # fit_svi's step loop runs in place and skips the sums' zero start and
    # the division by k when k = 1; the plain expressions below must give
    # the same moments and ELBO trace
    inputs, hp = small_problem(seed=27)
    terms = window_terms(inputs, 1)
    init = fit_map(inputs, hp, MapConfig(iterations=200), calibration=terms)
    config = SviConfig(iterations=150, samples_per_step=samples_per_step, seed=4)
    fit = fit_svi(inputs, hp, config, calibration=terms, init=init)

    packing = init.packing
    dim, k = packing.dim, samples_per_step
    f = inference._objective(inputs, hp, packing, terms, include_jacobian=True)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    mean, log_sd = init.theta, np.full(dim, config.init_log_sd)
    m = v = np.zeros(2 * dim)
    lr = config.learning_rate
    decay = (config.final_learning_rate / config.learning_rate) ** (1.0 / (config.iterations - 1))
    entropy_const = 0.5 * dim * (1.0 + np.log(2.0 * np.pi))
    trace = []
    for t in range(config.iterations):
        eps = rng.standard_normal((k, dim))
        sd = np.exp(log_sd)
        value_sum, g_mean, g_log_sd = 0.0, np.zeros(dim), np.zeros(dim)
        for eps_s in eps:
            value, grad = f(sd * eps_s + mean)
            value_sum += value
            g_mean = g_mean + grad
            g_log_sd = g_log_sd + grad * eps_s
        trace.append(value_sum / k + entropy_const + float(log_sd.sum()))
        grad = np.concatenate([g_mean / k, (g_log_sd / k) * sd + 1.0])
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        step = lr * (m / (1.0 - 0.9 ** (t + 1))) / (np.sqrt(v / (1.0 - 0.999 ** (t + 1))) + 1e-8)
        mean, log_sd = mean + step[:dim], log_sd + step[dim:]
        lr *= decay
    assert np.array_equal(fit.variational_mean, mean)
    assert np.array_equal(fit.variational_log_sd, log_sd)
    assert fit.trace == trace


def test_conjugate_interval_coverage():
    # calibrated-Bayes check: truth drawn from the prior, 95% interval
    # should cover it in about 95% of replications
    covered = 0
    n_reps = 200
    mc = MapConfig(iterations=250, rel_tol=0.0,
                   final_learning_rate=1e-4)
    for rep in range(n_reps):
        inputs, hp, packing, true_b, _, _ = conjugate_problem(10_000 + rep)
        fit = fit_svi(inputs, hp, SviConfig(iterations=800, seed=rep),
                      packing=packing, map_config=mc)
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
                  map_config=MapConfig(iterations=300))
    fit.variational_log_sd = np.full_like(fit.variational_log_sd, -745.0)
    draws = draw_posterior(fit, inputs.design.k_reg, 1, seed=9)
    assert np.allclose(draws.theta_draws[0], fit.variational_mean)
    ps = draws.parameter_set(0)
    assert np.allclose(ps.b_reg, fit.packing.unpack(fit.variational_mean).b_reg)


def test_draw_quantiles_ordered_and_nonnegative():
    inputs, hp = small_problem(seed=43)
    fit = fit_svi(inputs, hp, SviConfig(iterations=400, seed=0),
                  map_config=MapConfig(iterations=500))
    draws = draw_posterior(fit, inputs.design.k_reg, 200, seed=7)
    assert np.all(draws.coefficient_draws >= 0)
    q = draws.coefficient_quantiles([0.025, 0.5, 0.975])
    assert np.all(q[0.025] <= q[0.5] + 1e-12)
    assert np.all(q[0.5] <= q[0.975] + 1e-12)
    # convex-hull bound per draw: each curve stays inside its knot range
    for i in range(0, 200, 50):
        ps = draws.parameter_set(i)
        beta = draws.coefficient_draws[i]
        for p in range(beta.shape[1]):
            assert beta[:, p].min() >= ps.b_reg[:, p].min() - 1e-12
            assert beta[:, p].max() <= ps.b_reg[:, p].max() + 1e-12


def with_moments(fit, packing_kind):
    """fit with variational moments around its point under one packing: the
    fit's own, an identity transform (so draws of b_reg go negative), or one
    that fixes b_lev, mu_reg and sigma_obs at the point."""
    packing = fit.packing
    if packing_kind == "identity":
        packing = dataclasses.replace(packing, reg_transform="identity")
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
                         k_seas=d.k_seas, k_reg=KernelMatrix(weights=w, grid=grid))
    assert np.count_nonzero((w != 0) & (w < np.finfo(float).tiny)) > w.size // 3
    return ModelInputs(design=design, target=inputs.target)


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
    G, _ = inference._gram(design, inputs.target, True)
    assert len(inference._gram_blocks(design, G, True)[1]) >= 3
    assert not np.all(G.any(axis=1))
    return inputs


def window_terms(inputs, n):
    names = inputs.design.regressor_names
    windows = [PriorWindow(channel=names[0], start=5, end=14, mean=0.3, sd=0.1),
               PriorWindow(channel=names[1], start=20, end=32, mean=0.6, sd=0.05)]
    return apply_prior_windows(windows[:n], names, inputs.design.n_times)


def compiled_variant(name):
    """(inputs, hp, packing, calibration, nonnegative_reg) for one variant."""
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
    elif name == "smoothed_laplace":
        hp = HyperParams(laplace_smoothing=1e-3)
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
        hp = HyperParams(gaussian_reg_prior=True)
        packing = dataclasses.replace(packing, reg_transform="identity")
    elif name == "identity_folded":
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
    return inputs, hp, packing, terms, name == "identity_folded"


COMPILED_VARIANTS = ("default", "one_window", "two_windows", "one_channel_windows", "student_t",
                     "student_t_windows", "smoothed_laplace", "no_seasonal", "subnormal_kernel",
                     "subnormal_kernel_windows", "identity_gaussian", "identity_folded",
                     "fixed_blocks", "fixed_level_only", "fixed_mu_only", "conjugate",
                     "multi_block")


def jittered_theta(theta0, packing, nonnegative_reg, rng):
    theta = theta0 + rng.normal(0, 1.0, packing.dim)
    if nonnegative_reg:
        reg = slice(packing.slices()["b_reg"].start, packing.dim - 1)
        theta[reg] = np.abs(theta[reg])
    return theta


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", COMPILED_VARIANTS)
def test_compiled_objective_matches_reference(variant, include_jacobian):
    inputs, hp, packing, terms, nonnegative_reg = compiled_variant(variant)
    compiled = inference._objective(inputs, hp, packing, terms, include_jacobian)
    reference = reference_objective(inputs, hp, packing, terms, include_jacobian)
    theta0 = initial_theta(inputs, hp, packing)
    rng = np.random.default_rng(len(variant))
    for _ in range(30):
        theta = jittered_theta(theta0, packing, nonnegative_reg, rng)
        value, grad = compiled(theta)
        ref_value, ref_grad = reference(theta)
        assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.maximum(1.0, np.abs(ref_grad)))


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", COMPILED_VARIANTS)
def test_compiled_objective_keeps_no_state_between_calls(variant, include_jacobian):
    # a call reuses buffers built at compile time; its result must still
    # depend on its theta alone, and the gradient it returns must stay as it
    # is through later calls (fit_map keeps best_grad without a copy)
    inputs, hp, packing, terms, nonnegative_reg = compiled_variant(variant)
    f = inference._objective(inputs, hp, packing, terms, include_jacobian)
    rng = np.random.default_rng(len(variant))
    theta0 = initial_theta(inputs, hp, packing)
    a, b = (jittered_theta(theta0, packing, nonnegative_reg, rng) for _ in range(2))
    a_given = a.copy()
    value_a, grad_a = f(a)
    grad_a_first = grad_a.copy()
    value_b, grad_b = f(b)
    value_again, grad_again = f(a)
    assert value_b != value_a
    assert value_again == value_a and np.array_equal(grad_again, grad_a_first)
    assert np.array_equal(grad_a, grad_a_first)
    assert not np.shares_memory(grad_a, grad_b) and not np.shares_memory(grad_a, grad_again)
    assert np.array_equal(a, a_given)


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", ["one_window", "student_t_windows"])
def test_compiled_objective_at_extreme_arguments(variant, include_jacobian):
    # raw b_reg and mu_reg from where softplus underflows to a subnormal to
    # where it is the identity; the folded-normal mirror argument
    # a = 2 x loc / sigma^2 then runs from 0 to about 4e6, so log(1 + e^-a)
    # sees arguments from 0 to very negative. (a < 0 cannot occur: x and
    # loc are kept >= 0 by softplus or by the support check.)
    inputs, hp, packing, terms, _ = compiled_variant(variant)
    compiled = inference._objective(inputs, hp, packing, terms, include_jacobian)
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
    compiled = inference._objective(inputs, hp, packing, terms, windowed)
    reference = reference_objective(inputs, hp, packing, terms, windowed)
    value_err, grad_err = max_relative_errors(compiled, reference, thetas)
    assert value_err <= 1e-13
    assert grad_err <= 1e-10


@pytest.mark.parametrize("case", ["default_3000", "multi_block"])
def test_gram_blocks_hold_g_exactly(case):
    # the blocks, put back in theta's order, are _gram's G bit for bit, so no
    # nonzero is dropped; their product is G @ beta up to rounding
    inputs = default_structure(3000)[1] if case == "default_3000" else multi_block_problem()
    design, y = inputs.design, inputs.target
    G, _ = inference._gram(design, y - y.mean(), True)
    order, blocks = inference._gram_blocks(design, G, True)
    assert len(blocks) > 1
    assert sorted(order) == list(range(G.shape[0]))
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
    if case == "default_3000":
        assert sum(block.size for _, _, block in blocks) < 0.7 * G.size


@pytest.mark.parametrize("T", [420, 730])
def test_gram_blocks_of_small_default_structures_are_one_block(T):
    _, inputs, _ = default_structure(T)
    design, y = inputs.design, inputs.target
    G, _ = inference._gram(design, y - y.mean(), True)
    _, blocks = inference._gram_blocks(design, G, True)
    assert len(blocks) == 1
    assert blocks[0][2].shape == G.shape


def test_student_t_objective_keeps_the_kernel_products():
    # Student-t noise is not quadratic in the knots, so its objective still
    # runs the kernel products and matches the reference as closely as
    # before (measured 5.5e-13 gradient, 4e-16 value)
    inputs, _, packing, terms, theta_map = fitted_structure(420, windowed=True)
    hp = HyperParams(noise_df=5.0)
    rng = np.random.default_rng(5)
    thetas = [theta_map] + [theta_map + rng.normal(0, 0.01, packing.dim) for _ in range(10)]
    for include_jacobian in (False, True):
        compiled = inference._objective(inputs, hp, packing, terms, include_jacobian)
        reference = reference_objective(inputs, hp, packing, terms, include_jacobian)
        value_err, grad_err = max_relative_errors(compiled, reference, thetas)
        assert value_err <= 1e-12 and grad_err <= 1e-12


def test_compiled_objective_error_paths():
    inputs, hp = small_problem(seed=73)
    packing = default_packing(inputs)
    theta = initial_theta(inputs, hp, packing)
    f = inference._objective(inputs, hp, packing, (), include_jacobian=False)
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

    identity = dataclasses.replace(packing, reg_transform="identity")
    sl = identity.slices()
    g = inference._objective(inputs, hp, identity, (), include_jacobian=False)
    positive = np.abs(theta)
    for block, message in (("b_reg", "b_reg outside"), ("mu_reg", "mu_reg outside")):
        bad = positive.copy()
        bad[sl[block].start] = -0.1
        with pytest.raises(ValidationError, match=message):
            g(bad)
        with pytest.raises(ValidationError, match=message):
            reference_objective(inputs, hp, identity, (), False)(bad)
    negative_mu = dataclasses.replace(identity, fixed_mu_reg=np.array([0.2, -0.1]))
    with pytest.raises(ValidationError, match="mu_reg outside"):
        inference._objective(inputs, hp, negative_mu, (), include_jacobian=False)


@pytest.mark.parametrize("config", [MapConfig, SviConfig])
def test_trace_every_must_be_positive(config):
    with pytest.raises(ValidationError, match="trace_every must be >= 1"):
        config(trace_every=0)


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
                  map_config=MapConfig(iterations=300))
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
                  map_config=MapConfig(iterations=200))
    fit.structure = {"T": 40, "note": "round-trip"}
    p = tmp_path / "fit.json"
    save_fit(fit, str(p))
    back = load_fit(str(p))
    assert np.array_equal(back.theta, fit.theta)
    assert np.array_equal(back.variational_mean, fit.variational_mean)
    assert back.packing == fit.packing
    assert back.hyper == fit.hyper
    assert back.structure == fit.structure
    assert back.mode == "svi"
    assert np.array_equal(back.params.b_reg, fit.params.b_reg)


def test_save_is_byte_deterministic(tmp_path):
    inputs, hp = small_problem(seed=62)
    cfg = MapConfig(iterations=150, seed=4)
    a = fit_map(inputs, hp, cfg)
    b = fit_map(inputs, hp, cfg)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_fit(a, str(pa))
    save_fit(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
