import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import btvc.inference as inference
from btvc.calibration import PriorWindow, apply_prior_windows
from btvc.errors import DivergenceError, ValidationError
from btvc.kernels import KnotGrid, build_grid, kernel_matrix
from btvc.model import (
    HyperParams,
    ModelDesign,
    ModelInputs,
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
    fit = fit_map(inputs, hp, MapConfig(iterations=4000, restarts=1, seed=0))
    assert fit.params.b_lev[0] == pytest.approx(c, abs=1e-4)


def test_map_matches_ridge_closed_form():
    inputs, hp, packing, _, post_mean, _ = conjugate_problem(3)
    cfg = MapConfig(iterations=4000, restarts=1, rel_tol=0.0,
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
    assert fit.stop_reason in ("max_iter", "rel_change", "grad_tol")


def test_map_improves_posterior_over_init():
    inputs, hp = small_problem(seed=23)
    packing = default_packing(inputs)
    theta0 = initial_theta(inputs, hp, packing)
    before = log_posterior(packing.unpack(theta0), inputs, hp)
    fit = fit_map(inputs, hp, MapConfig(iterations=2000, seed=0))
    assert log_posterior(fit.params, inputs, hp) > before


def test_map_rejects_nonfinite_initial_likelihood():
    # finite target whose squared residuals overflow: the objective is
    # non-finite at the very first evaluation and must name the term
    inputs, hp = small_problem(seed=24)
    bad = ModelInputs(design=inputs.design,
                      target=np.where(np.arange(40) == 5, 1e200, inputs.target))
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="likelihood"):
        fit_map(bad, hp, MapConfig(iterations=10))


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
        fit_map(inputs, hp, MapConfig(iterations=50, restarts=1))
    assert exc.value.iteration >= 0
    assert len(exc.value.trace) > 0


# ---------------------------------------------------------------------------
# SVI
# ---------------------------------------------------------------------------

def test_svi_recovers_conjugate_posterior():
    inputs, hp, packing, _, post_mean, post_sd = conjugate_problem(0)
    mc = MapConfig(iterations=2000, restarts=1, rel_tol=0.0,
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
    mc = MapConfig(iterations=500, restarts=1)
    a = fit_svi(inputs, hp, sc, map_config=mc)
    b = fit_svi(inputs, hp, sc, map_config=mc)
    assert a.trace == b.trace
    # least-squares slope over the last 20% of ELBO samples is nonnegative
    tail = np.asarray(a.trace[int(0.8 * len(a.trace)):])
    slope = np.polyfit(np.arange(tail.size), tail, 1)[0]
    assert slope >= -1e-3
    assert a.has_variational
    assert a.mode == "svi"


def test_conjugate_interval_coverage():
    # calibrated-Bayes check: truth drawn from the prior, 95% interval
    # should cover it in about 95% of replications
    covered = 0
    n_reps = 200
    mc = MapConfig(iterations=250, restarts=1, rel_tol=0.0,
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
                  map_config=MapConfig(iterations=300, restarts=1))
    fit.variational_log_sd = np.full_like(fit.variational_log_sd, -745.0)
    draws = draw_posterior(fit, inputs.design.k_reg, 1, seed=9)
    assert np.allclose(draws.theta_draws[0], fit.variational_mean)
    ps = draws.parameter_set(0)
    assert np.allclose(ps.b_reg, fit.packing.unpack(fit.variational_mean).b_reg)


def test_draw_quantiles_ordered_and_nonnegative():
    inputs, hp = small_problem(seed=43)
    fit = fit_svi(inputs, hp, SviConfig(iterations=400, seed=0),
                  map_config=MapConfig(iterations=500, restarts=1))
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
    # a narrow Gaussian kernel over a long series: far rows underflow to
    # subnormal weights, which the compiled objective drops
    inputs, _ = small_problem(seed=71, T=240, P=2)
    grid = build_grid(240, count=12)
    d = inputs.design
    design = ModelDesign(regressors=d.regressors, seasonal=d.seasonal, k_lev=d.k_lev,
                         k_seas=d.k_seas, k_reg=kernel_matrix(grid, "gaussian", rho=2.5))
    w = design.k_reg.weights
    assert np.any((w != 0) & (np.abs(w) < np.finfo(float).tiny))
    return ModelInputs(design=design, target=inputs.target)


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
    elif name == "student_t":
        hp = HyperParams(noise_df=4.0)
    elif name == "smoothed_laplace":
        hp = HyperParams(laplace_smoothing=1e-3)
    elif name == "no_seasonal":
        _, inputs = toy(T=40, P=2, seed=70, fourier=())
        packing = default_packing(inputs)
        assert packing.n_seas_cols == 0
    elif name == "subnormal_kernel":
        inputs = subnormal_kernel_problem()
        packing = default_packing(inputs)
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
    elif name == "conjugate":
        inputs, hp, packing, _, _, _ = conjugate_problem(72)
    return inputs, hp, packing, terms, name == "identity_folded"


COMPILED_VARIANTS = ("default", "one_window", "two_windows", "student_t", "smoothed_laplace",
                     "no_seasonal", "subnormal_kernel", "identity_gaussian", "identity_folded",
                     "fixed_blocks", "conjugate")


@pytest.mark.parametrize("include_jacobian", [False, True])
@pytest.mark.parametrize("variant", COMPILED_VARIANTS)
def test_compiled_objective_matches_reference(variant, include_jacobian):
    inputs, hp, packing, terms, nonnegative_reg = compiled_variant(variant)
    compiled = inference._objective(inputs, hp, packing, terms, include_jacobian)
    reference = reference_objective(inputs, hp, packing, terms, include_jacobian)
    theta0 = initial_theta(inputs, hp, packing)
    reg = packing.slices()["b_reg"]
    rng = np.random.default_rng(len(variant))
    for _ in range(30):
        theta = theta0 + rng.normal(0, 1.0, packing.dim)
        if nonnegative_reg:
            theta[reg.start:packing.dim - 1] = np.abs(theta[reg.start:packing.dim - 1])
        value, grad = compiled(theta)
        ref_value, ref_grad = reference(theta)
        assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.maximum(1.0, np.abs(ref_grad)))


def test_compiled_objective_error_paths():
    inputs, hp = small_problem(seed=73)
    packing = default_packing(inputs)
    theta = initial_theta(inputs, hp, packing)
    f = inference._objective(inputs, hp, packing, (), include_jacobian=False)
    with pytest.raises(ValidationError, match="packing dim"):
        f(theta[:-1])
    with np.errstate(over="ignore"):
        value, _ = f(np.concatenate([theta[:-1], [1000.0]]))
    assert not np.isfinite(value)
    with pytest.raises(ValidationError, match="sigma_obs must be > 0"):
        f(np.concatenate([theta[:-1], [-1000.0]]))

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


def test_svi_point_outputs_use_the_variational_mean(tmp_path):
    inputs, hp = small_problem(seed=74)
    fit = fit_svi(inputs, hp, SviConfig(iterations=200, seed=0),
                  map_config=MapConfig(iterations=300, restarts=1))
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
                  map_config=MapConfig(iterations=200, restarts=1))
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
