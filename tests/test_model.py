import math

import numpy as np
import pytest
from scipy import integrate, stats

from btvc.errors import ValidationError
from btvc.fourier import FourierSpec, fourier_design
from btvc.kernels import KnotGrid, build_grid, kernel_matrix
from btvc.model import (
    HyperParams,
    ModelDesign,
    ModelInputs,
    ParameterSet,
    T_LIMIT_DF,
    _log_likelihood_and_grads,
    coefficients,
    decompose,
    log_likelihood,
    log_posterior,
    log_posterior_and_grad,
    log_prior,
    predict,
    student_t_const,
)


def toy(T=30, P=2, seed=0, n_lev=3, n_seas=2, n_reg=3, fourier=(FourierSpec(7.0, 1),)):
    """Random but valid (params, inputs) pair sharing one seed."""
    rng = np.random.default_rng(seed)
    grid_lev = build_grid(T, count=n_lev)
    grid_seas = build_grid(T, count=n_seas)
    grid_reg = build_grid(T, count=n_reg)
    seas = fourier_design(T, fourier)
    design = ModelDesign(
        regressors=rng.gamma(2.0, 1.5, (T, P)),
        seasonal=seas,
        k_lev=kernel_matrix(grid_lev, "level"),
        k_seas=kernel_matrix(grid_seas, "level"),
        k_reg=kernel_matrix(grid_reg, "gaussian", rho=T / 4),
    )
    params = ParameterSet(
        b_lev=rng.normal(0, 0.5, n_lev),
        b_seas=rng.normal(0, 0.1, (n_seas, seas.shape[1])),
        b_reg=rng.gamma(2.0, 0.2, (n_reg, P)),
        mu_reg=rng.gamma(2.0, 0.2, P),
        sigma_obs=0.4,
    )
    inputs = ModelInputs(design=design, target=rng.normal(2.0, 1.0, T))
    return params, inputs


# ---------------------------------------------------------------------------
# coefficients / decompose
# ---------------------------------------------------------------------------

def test_single_knot_coefficients_are_constant():
    grid = KnotGrid(knot_times=[5], T=10)
    k = kernel_matrix(grid, "gaussian", rho=3.0)
    params = ParameterSet(
        b_lev=np.zeros(1), b_seas=np.zeros((1, 0)),
        b_reg=np.array([[0.7]]), mu_reg=np.array([0.5]), sigma_obs=1.0,
    )
    assert np.allclose(coefficients(params, k), 0.7)


def test_zero_knots_give_zero_coefficients():
    grid = build_grid(10, count=3)
    k = kernel_matrix(grid, "gaussian", rho=2.0)
    params = ParameterSet(
        b_lev=np.zeros(1), b_seas=np.zeros((1, 0)),
        b_reg=np.zeros((3, 2)), mu_reg=np.zeros(2), sigma_obs=1.0,
    )
    assert np.array_equal(coefficients(params, k), np.zeros((10, 2)))


def test_level_kernel_coefficients_interpolate():
    grid = KnotGrid(knot_times=[1, 3], T=3)
    k = kernel_matrix(grid, "level")
    assert np.allclose(k.weights, [[1, 0], [0.5, 0.5], [0, 1]])
    params = ParameterSet(
        b_lev=np.zeros(1), b_seas=np.zeros((1, 0)),
        b_reg=np.array([[0.2], [0.4]]), mu_reg=np.array([0.3]), sigma_obs=1.0,
    )
    assert np.allclose(coefficients(params, k).ravel(), [0.2, 0.3, 0.4])


def test_coefficients_bounded_by_knot_range():
    params, inputs = toy(seed=3)
    beta = coefficients(params, inputs.design.k_reg)
    for p in range(params.b_reg.shape[1]):
        assert np.all(beta[:, p] >= params.b_reg[:, p].min() - 1e-12)
        assert np.all(beta[:, p] <= params.b_reg[:, p].max() + 1e-12)


def test_decomposition_additivity_and_channel_sums():
    params, inputs = toy(seed=1)
    d = decompose(params, inputs.design)
    manual_reg = np.einsum("tp,tp->t", inputs.design.regressors,
                           coefficients(params, inputs.design.k_reg))
    assert np.allclose(d.fitted, d.trend + d.seasonality + d.regression, atol=1e-10)
    assert np.allclose(d.per_channel.sum(axis=1), d.regression, atol=1e-10)
    assert np.allclose(d.regression, manual_reg, atol=1e-12)


def test_decompose_without_seasonal_columns():
    params, inputs = toy(fourier=(), seed=2)
    params = ParameterSet(
        b_lev=params.b_lev, b_seas=np.zeros((2, 0)),
        b_reg=params.b_reg, mu_reg=params.mu_reg, sigma_obs=params.sigma_obs,
    )
    d = decompose(params, inputs.design)
    assert np.array_equal(d.seasonality, np.zeros(30))


def test_decompose_trend_only():
    T = 12
    grid = KnotGrid(knot_times=[1], T=T)
    k = kernel_matrix(grid, "level")
    design = ModelDesign(
        regressors=np.zeros((T, 0)), seasonal=np.zeros((T, 0)),
        k_lev=k, k_seas=k, k_reg=k,
    )
    params = ParameterSet(
        b_lev=np.array([1.7]), b_seas=np.zeros((1, 0)),
        b_reg=np.zeros((1, 0)), mu_reg=np.zeros(0), sigma_obs=1.0,
    )
    d = decompose(params, design)
    assert np.allclose(d.trend, 1.7)
    assert np.array_equal(d.regression, np.zeros(T))


# ---------------------------------------------------------------------------
# log_prior against scipy densities
# ---------------------------------------------------------------------------

def test_trend_prior_at_zero_knots():
    # two Laplace densities at their mode, unit scales: 2*ln(1/2)
    grid = KnotGrid(knot_times=[1, 10], T=10)
    params = ParameterSet(
        b_lev=np.zeros(2), b_seas=np.zeros((1, 0)),
        b_reg=np.zeros((1, 0)), mu_reg=np.zeros(0), sigma_obs=1.0,
    )
    hp = HyperParams(sigma_lev=1.0, init_scale_lev=1.0)
    assert log_prior(params, hp) == pytest.approx(2 * math.log(0.5), abs=1e-12)


def scipy_log_prior(params, hp):
    """Independent reconstruction: laplace chains + foldnorm terms."""
    total = stats.laplace.logpdf(params.b_lev[0], 0.0, hp.init_scale_lev)
    total += stats.laplace.logpdf(np.diff(params.b_lev), 0.0, hp.sigma_lev).sum()
    for col in range(params.b_seas.shape[1]):
        chain = params.b_seas[:, col]
        total += stats.laplace.logpdf(chain[0], 0.0, hp.sigma_seas)
        total += stats.laplace.logpdf(np.diff(chain), 0.0, hp.sigma_seas).sum()
    for p in range(params.mu_reg.size):
        total += stats.foldnorm.logpdf(
            params.mu_reg[p], c=hp.mu_pool / hp.sigma_pool, scale=hp.sigma_pool)
        total += stats.foldnorm.logpdf(
            params.b_reg[:, p], c=params.mu_reg[p] / hp.sigma_reg,
            scale=hp.sigma_reg).sum()
    return float(total)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_log_prior_matches_scipy(seed):
    params, _ = toy(seed=seed)
    hp = HyperParams(mu_pool=0.3)
    assert log_prior(params, hp) == pytest.approx(scipy_log_prior(params, hp), rel=1e-10)


def test_folded_normal_normalizes_and_reduces_at_zero_mean():
    sigma = 0.7

    def density_mu0(x):
        return (stats.norm.pdf(x, 0, sigma) + stats.norm.pdf(-x, 0, sigma))

    mass, _ = integrate.quad(density_mu0, 0, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-9)
    # at mu=0 the folded logpdf is ln2 + normal logpdf
    x = 0.42
    assert math.log(density_mu0(x)) == pytest.approx(
        math.log(2) + stats.norm.logpdf(x, 0, sigma), rel=1e-12)
    mass_mu, _ = integrate.quad(
        lambda v: stats.norm.pdf(v, 0.9, sigma) + stats.norm.pdf(-v, 0.9, sigma),
        0, np.inf)
    assert mass_mu == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name, value", [
    ("sigma_reg", math.nan), ("sigma_lev", math.inf), ("mu_pool", math.nan),
    ("init_scale_lev", math.inf), ("noise_df", math.nan), ("noise_df", math.inf),
])
def test_hyperparams_reject_non_finite_settings(name, value):
    # nan > 0 is false, so no range check would catch these
    with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
        HyperParams(**{name: value})


def shape_error(case):
    """The call of a shape case of test_a_misshapen_input_names_its_problem."""
    params, inputs = toy()
    design = inputs.design
    fields = dict(b_lev=params.b_lev, b_seas=params.b_seas, b_reg=params.b_reg,
                  mu_reg=params.mu_reg, sigma_obs=params.sigma_obs)
    parts = dict(regressors=design.regressors, seasonal=design.seasonal, k_lev=design.k_lev,
                 k_seas=design.k_seas, k_reg=design.k_reg)
    short = kernel_matrix(build_grid(29, count=3), "level")
    return {
        "empty b_lev": lambda: ParameterSet(**fields | dict(b_lev=np.zeros(0))),
        "b_lev matrix": lambda: ParameterSet(**fields | dict(b_lev=np.zeros((3, 1)))),
        "b_seas vector": lambda: ParameterSet(**fields | dict(b_seas=np.zeros(2))),
        "b_reg vector": lambda: ParameterSet(**fields | dict(b_reg=np.ones(3))),
        "mu_reg length": lambda: ParameterSet(**fields | dict(mu_reg=np.ones(3))),
        "regressor rows": lambda: ModelDesign(**parts | dict(regressors=np.ones((29, 2)))),
        "seasonal vector": lambda: ModelDesign(**parts | dict(seasonal=np.ones(30))),
        "kernel rows": lambda: ModelDesign(**parts | dict(k_seas=short)),
        "regressor names": lambda: ModelDesign(**parts, regressor_names=("tv",)),
        "target shape": lambda: ModelInputs(design=design, target=np.ones(29)),
        "non-finite target": lambda: ModelInputs(design=design,
                                                 target=np.r_[np.ones(29), np.nan]),
        "b_lev length": lambda: log_posterior(
            ParameterSet(**fields | dict(b_lev=np.zeros(4))), inputs, HyperParams()),
        "b_seas rows": lambda: log_posterior(
            ParameterSet(**fields | dict(b_seas=np.zeros((3, 2)))), inputs, HyperParams()),
        "b_reg rows": lambda: log_posterior(
            ParameterSet(**fields | dict(b_reg=np.ones((2, 2)))), inputs, HyperParams()),
        "coefficient knots": lambda: coefficients(
            ParameterSet(**fields | dict(b_reg=np.ones((4, 2)))), design.k_reg),
    }[case]


@pytest.mark.parametrize("case, message", [
    ("empty b_lev", "b_lev must be a nonempty vector"),
    ("b_lev matrix", "b_lev must be a nonempty vector"),
    ("b_seas vector", "b_seas must be a matrix"),
    ("b_reg vector", "b_reg must be a matrix"),
    ("mu_reg length", "mu_reg length (3,) does not match 2 channels"),
    ("regressor rows", "regressors shape (29, 2) does not match n=30"),
    ("seasonal vector", "seasonal shape (30,) does not match n=30"),
    ("kernel rows", "kernel matrices disagree on row count"),
    ("regressor names", "regressor_names length mismatch"),
    ("target shape", "target shape (29,) does not match design rows 30"),
    ("non-finite target", "target contains non-finite values"),
    ("b_lev length", "b_lev length does not match trend grid"),
    ("b_seas rows", "b_seas rows do not match seasonal grid"),
    ("b_reg rows", "b_reg rows do not match regression grid"),
    ("coefficient knots", "b_reg rows do not match regression grid"),
])
def test_a_misshapen_input_names_its_problem(case, message):
    with pytest.raises(ValidationError) as info:
        shape_error(case)()
    assert str(info.value) == message


def test_negative_reg_knot_takes_the_normal_prior():
    # a set allowing negative knots (unpack's under the identity transform)
    # holds b_reg under a plain Normal(mu_reg, sigma_reg^2); mu_reg keeps its
    # folded normal around mu_pool
    b_reg, mu, sigma_reg = np.array([-0.1, 0.4]), 0.2, 0.5
    params = ParameterSet(
        b_lev=np.zeros(1), b_seas=np.zeros((1, 0)),
        b_reg=b_reg[:, None], mu_reg=np.array([mu]), sigma_obs=1.0,
        allow_negative_reg=True,
    )
    hp = HyperParams(mu_pool=0.3, sigma_reg=sigma_reg)
    z = (b_reg - mu) / sigma_reg
    normal = float(np.sum(-0.5 * z * z - math.log(sigma_reg) - 0.5 * math.log(2.0 * math.pi)))
    expected = (normal + stats.laplace.logpdf(0.0, 0.0, hp.init_scale_lev)
                + stats.foldnorm.logpdf(mu, c=hp.mu_pool / hp.sigma_pool, scale=hp.sigma_pool))
    assert log_prior(params, hp) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValidationError, match="^b_reg entries must be >= 0$"):
        ParameterSet(b_lev=np.zeros(1), b_seas=np.zeros((1, 0)), b_reg=b_reg[:, None],
                     mu_reg=np.array([mu]), sigma_obs=1.0)


# ---------------------------------------------------------------------------
# log_likelihood
# ---------------------------------------------------------------------------

def zero_residual_setup(T):
    grid = KnotGrid(knot_times=[1], T=T)
    k = kernel_matrix(grid, "level")
    design = ModelDesign(
        regressors=np.zeros((T, 0)), seasonal=np.zeros((T, 0)),
        k_lev=k, k_seas=k, k_reg=k,
    )
    params = ParameterSet(
        b_lev=np.zeros(1), b_seas=np.zeros((1, 0)),
        b_reg=np.zeros((1, 0)), mu_reg=np.zeros(0), sigma_obs=1.0,
    )
    return params, ModelInputs(design=design, target=np.zeros(T))


def test_zero_residual_unit_sigma_single_point():
    params, inputs = zero_residual_setup(2)
    single = ModelInputs(
        design=zero_residual_setup(2)[1].design, target=np.zeros(2))
    # additivity: T points at zero residual = T times the single-point value
    ll2 = log_likelihood(params, single, HyperParams())
    assert ll2 == pytest.approx(2 * (-0.5 * math.log(2 * math.pi)), abs=1e-12)
    params4, inputs4 = zero_residual_setup(4)
    assert log_likelihood(params4, inputs4, HyperParams()) == pytest.approx(2 * ll2, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 5])
def test_gaussian_likelihood_matches_scipy(seed):
    params, inputs = toy(seed=seed)
    fitted = decompose(params, inputs.design).fitted
    expected = stats.norm.logpdf(inputs.target, fitted, params.sigma_obs).sum()
    assert log_likelihood(params, inputs, HyperParams()) == pytest.approx(expected, rel=1e-12)


def test_student_t_likelihood_matches_scipy():
    params, inputs = toy(seed=7)
    hp = HyperParams(noise_df=5.0)
    fitted = decompose(params, inputs.design).fitted
    expected = stats.t.logpdf(inputs.target, 5.0, fitted, params.sigma_obs).sum()
    assert log_likelihood(params, inputs, hp) == pytest.approx(expected, rel=1e-12)


def test_student_t_approaches_gaussian_at_huge_df():
    # residuals on the scale of sigma_obs, where the O(r^4/df) gap is tiny
    params, inputs = toy(seed=9)
    fitted = decompose(params, inputs.design).fitted
    rng = np.random.default_rng(9)
    inputs = ModelInputs(design=inputs.design,
                         target=fitted + rng.normal(0, params.sigma_obs, fitted.size))
    g = log_likelihood(params, inputs, HyperParams())
    t = log_likelihood(params, inputs, HyperParams(noise_df=1e6))
    assert abs(g - t) < 1e-3


@pytest.mark.parametrize("nu", [1.0, 4.0, 1e6, 1e12, 1e16, 1e308])
def test_student_t_constant_matches_a_high_precision_reference(nu):
    # lgamma((nu + 1)/2) - lgamma(nu/2) used to cancel (2e-4 off at 1e12, 0
    # from 1e16 on) and to overflow at 1e308; the reference carries enough
    # digits for lgamma(5e307)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(340):
        df = mpmath.mpf(nu)
        reference = float(mpmath.loggamma((df + 1) / 2) - mpmath.loggamma(df / 2)
                          - mpmath.log(df * mpmath.pi) / 2)
    assert student_t_const(nu) == pytest.approx(reference, rel=1e-15, abs=0)


def test_a_noise_df_beyond_every_float_gives_the_gaussian_likelihood():
    # the rows are computed at T_LIMIT_DF, where they are the Gaussian's to
    # rounding, and the constant tends to the Gaussian's
    params, inputs = toy(seed=9)
    g = log_likelihood(params, inputs, HyperParams())
    for nu in (T_LIMIT_DF, 1e100, 1e308):
        value, dfit, dlnsig = _log_likelihood_and_grads(params, inputs, HyperParams(noise_df=nu))
        _, dfit_g, dlnsig_g = _log_likelihood_and_grads(params, inputs, HyperParams())
        assert value == pytest.approx(g, rel=1e-14)
        np.testing.assert_allclose(dfit, dfit_g, rtol=1e-14)
        assert dlnsig == pytest.approx(dlnsig_g, rel=1e-13)


# ---------------------------------------------------------------------------
# log_posterior
# ---------------------------------------------------------------------------

def test_posterior_is_prior_plus_likelihood():
    params, inputs = toy(seed=11)
    hp = HyperParams()
    lp = log_posterior(params, inputs, hp)
    assert lp == pytest.approx(log_prior(params, hp) + log_likelihood(params, inputs, hp), rel=1e-14)
    value, _ = log_posterior_and_grad(params, inputs, hp)
    assert value == pytest.approx(lp, rel=1e-14)


def test_posterior_invariant_under_channel_permutation():
    params, inputs = toy(seed=13, P=3)
    hp = HyperParams()
    perm = [2, 0, 1]
    design = inputs.design
    design_p = ModelDesign(
        regressors=design.regressors[:, perm], seasonal=design.seasonal,
        k_lev=design.k_lev, k_seas=design.k_seas, k_reg=design.k_reg,
    )
    params_p = ParameterSet(
        b_lev=params.b_lev, b_seas=params.b_seas,
        b_reg=params.b_reg[:, perm], mu_reg=params.mu_reg[perm],
        sigma_obs=params.sigma_obs,
    )
    inputs_p = ModelInputs(design=design_p, target=inputs.target)
    assert log_posterior(params_p, inputs_p, hp) == pytest.approx(
        log_posterior(params, inputs, hp), rel=1e-14)


def test_better_fit_does_not_lower_posterior():
    params, inputs = toy(seed=17)
    hp = HyperParams()
    fitted = decompose(params, inputs.design).fitted
    closer = ModelInputs(design=inputs.design,
                         target=fitted + 0.5 * (inputs.target - fitted))
    assert log_posterior(params, closer, hp) >= log_posterior(params, inputs, hp)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_all_zero_knots_is_one():
    T, h = 10, 4
    grid = KnotGrid(knot_times=[1], T=T)
    k = kernel_matrix(grid, "level", times=range(1, T + h + 1))
    design = ModelDesign(
        regressors=np.zeros((T + h, 0)), seasonal=np.zeros((T + h, 0)),
        k_lev=k, k_seas=k, k_reg=k,
    )
    params = ParameterSet(
        b_lev=np.zeros(1), b_seas=np.zeros((1, 0)),
        b_reg=np.zeros((1, 0)), mu_reg=np.zeros(0), sigma_obs=1.0,
    )
    assert np.allclose(predict(params, design, h), np.ones(h))


def test_predict_constant_trend_exponentiates():
    T, h = 8, 3
    grid = KnotGrid(knot_times=[1], T=T)
    k = kernel_matrix(grid, "level", times=range(1, T + h + 1))
    design = ModelDesign(
        regressors=np.zeros((T + h, 0)), seasonal=np.zeros((T + h, 0)),
        k_lev=k, k_seas=k, k_reg=k,
    )
    params = ParameterSet(
        b_lev=np.array([0.3]), b_seas=np.zeros((1, 0)),
        b_reg=np.zeros((1, 0)), mu_reg=np.zeros(0), sigma_obs=1.0,
    )
    assert np.allclose(predict(params, design, h), math.exp(0.3))
    assert np.allclose(predict(params, design, h, link="identity"), 0.3)


def test_predict_rejects_bad_horizon_and_link():
    params, inputs = toy()
    with pytest.raises(ValidationError):
        predict(params, inputs.design, 31)
    with pytest.raises(ValidationError):
        predict(params, inputs.design, 5, link="probit")
