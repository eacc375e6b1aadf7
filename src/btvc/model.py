"""Latent parameters, log densities, decomposition, and prediction.

Model form on the model scale (log scale under the log link):

    target_t = trend_t + seasonality_t + regression_t + noise_t

where each component is driven by knot values spread over time through a
row-stochastic kernel matrix: trend = K_lev @ b_lev, the seasonal
coefficients are K_seas @ b_seas applied to the Fourier design, and the
regression coefficients are K_reg @ b_reg applied to the regressor matrix.
Adjacent trend and seasonality knots are tied by Laplace densities;
regression knots are nonnegative with a two-layer folded-normal hierarchy
pooled per channel (a parameter set that allows negative knots holds them
signed under a plain Normal prior instead). Noise is Gaussian, or Student-t
when noise_df is set.

Everything here is pure: value and gradient functions take parameters and
immutable inputs and return floats/arrays without touching shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (Count, NonNegative, Positive, PriorLocation, PriorScale, ValidationError,
                     check_fields)
from .fourier import FourierSpec
from .kernels import KernelMatrix, KnotGrid
from .timeframe import parse_date, write_table

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class HyperParams:
    """Prior scales and noise settings. All config-exposed.

    init_scale_lev is the scale of the mean-0 Laplace density on the first
    trend knot; callers typically widen it to 10x the sd of the log
    response. noise_df=None means Gaussian noise. Which regression prior
    applies is the parameter set's (see ParameterSet), not a setting here.
    """

    sigma_lev: PriorScale = 0.1
    sigma_seas: PriorScale = 0.05
    mu_pool: PriorLocation = 0.0
    sigma_pool: PriorScale = 1.0
    sigma_reg: PriorScale = 0.5
    init_scale_lev: PriorScale = 1.0
    noise_df: Positive | None = None

    def __post_init__(self):
        check_fields(self)


def check_support(b_reg, mu_reg, sigma_obs, allow_negative_reg: bool) -> None:
    """sigma_obs > 0, and b_reg, mu_reg >= 0 unless negatives are allowed;
    for one parameter set or a stack of draws."""
    if np.any(np.asarray(sigma_obs) <= 0):
        raise ValidationError("sigma_obs must be > 0")
    if not allow_negative_reg:
        if b_reg.size and b_reg.min() < 0:
            raise ValidationError("b_reg entries must be >= 0")
        if mu_reg.size and mu_reg.min() < 0:
            raise ValidationError("mu_reg entries must be >= 0")


@dataclass(frozen=True)
class ParameterSet:
    """All latent parameters of one model instance.

    b_reg and mu_reg live on [0, inf) under the folded-normal prior. A set
    with allow_negative_reg, which unpack makes under the identity transform,
    holds signed b_reg under a plain Normal(mu_reg, sigma_reg^2) prior
    instead: the posterior is then conjugate (a test case; see inference).
    """

    b_lev: np.ndarray
    b_seas: np.ndarray
    b_reg: np.ndarray
    mu_reg: np.ndarray
    sigma_obs: float
    allow_negative_reg: bool = False

    def __post_init__(self):
        b_lev = np.asarray(self.b_lev, dtype=float)
        b_seas = np.asarray(self.b_seas, dtype=float)
        b_reg = np.asarray(self.b_reg, dtype=float)
        mu_reg = np.asarray(self.mu_reg, dtype=float)
        object.__setattr__(self, "b_lev", b_lev)
        object.__setattr__(self, "b_seas", b_seas)
        object.__setattr__(self, "b_reg", b_reg)
        object.__setattr__(self, "mu_reg", mu_reg)
        object.__setattr__(self, "sigma_obs", float(self.sigma_obs))
        if b_lev.ndim != 1 or b_lev.size < 1:
            raise ValidationError("b_lev must be a nonempty vector")
        if b_seas.ndim != 2:
            raise ValidationError("b_seas must be a matrix")
        if b_reg.ndim != 2:
            raise ValidationError("b_reg must be a matrix")
        if mu_reg.shape != (b_reg.shape[1],):
            raise ValidationError(
                f"mu_reg length {mu_reg.shape} does not match {b_reg.shape[1]} channels"
            )
        check_support(b_reg, mu_reg, self.sigma_obs, self.allow_negative_reg)


@dataclass(frozen=True)
class ModelDesign:
    """Design-side inputs for n time rows (n > T means forecast rows)."""

    regressors: np.ndarray
    seasonal: np.ndarray
    k_lev: KernelMatrix
    k_seas: KernelMatrix
    k_reg: KernelMatrix
    regressor_names: tuple[str, ...] = ()

    def __post_init__(self):
        x = np.asarray(self.regressors, dtype=float)
        xs = np.asarray(self.seasonal, dtype=float)
        object.__setattr__(self, "regressors", x)
        object.__setattr__(self, "seasonal", xs)
        names = tuple(self.regressor_names)
        if not names:
            names = tuple(f"x{p + 1}" for p in range(x.shape[1]))
        object.__setattr__(self, "regressor_names", names)
        n = self.k_lev.n_times
        if x.ndim != 2 or x.shape[0] != n:
            raise ValidationError(f"regressors shape {x.shape} does not match n={n}")
        if xs.ndim != 2 or xs.shape[0] != n:
            raise ValidationError(f"seasonal shape {xs.shape} does not match n={n}")
        if self.k_seas.n_times != n or self.k_reg.n_times != n:
            raise ValidationError("kernel matrices disagree on row count")
        if len(names) != x.shape[1]:
            raise ValidationError("regressor_names length mismatch")

    @property
    def n_times(self) -> int:
        return int(self.k_lev.n_times)

    @property
    def n_channels(self) -> int:
        return int(self.regressors.shape[1])

    @property
    def reach(self) -> tuple[slice, slice, slice]:
        """The trend, seasonal and regression knots the rows reach."""
        return self.k_lev.reach, self.k_seas.reach, self.k_reg.reach


@dataclass(frozen=True)
class Structure:
    """A fit's design recipe, its fit document's structure block: it rebuilds
    the design of any rows, training or forecast, from their regressors."""

    T: Count
    last_date: str
    step_days: Count
    knots_lev: tuple[int, ...]
    knots_seas: tuple[int, ...]
    knots_reg: tuple[int, ...]
    rho: Positive
    fourier: tuple[tuple[float, int], ...]
    link: Literal["log", "identity"]
    zero_policy: Literal["shift1", "floor"]
    floor_epsilon: float
    regressor_names: tuple[str, ...]

    def __post_init__(self):
        check_fields(self, "structure.{}")
        for name in ("knots_lev", "knots_seas", "knots_reg", "regressor_names"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "fourier", tuple(map(tuple, self.fourier)))
        if self.link == "log" and self.zero_policy == "floor" and self.floor_epsilon <= 0:
            raise ValidationError(f"structure.floor_epsilon must be > 0 under zero_policy floor, "
                                  f"got {self.floor_epsilon}")
        if str(parse_date(self.last_date, "in structure.last_date")) != self.last_date:
            raise ValidationError(
                f"structure.last_date must be YYYY-MM-DD, got {self.last_date!r}")
        name = "fourier"  # the key a failed build below names
        try:
            # kept beside the fields, so the fit document's structure block
            # holds only the pairs and knot times; every design reads these
            object.__setattr__(self, "fourier_specs", tuple(
                FourierSpec(period=period, order=order) for period, order in self.fourier))
            grids = []
            for name in ("knots_lev", "knots_seas", "knots_reg"):
                grids.append(KnotGrid(getattr(self, name), self.T))
            object.__setattr__(self, "knot_grids", tuple(grids))  # lev, seas, reg
        except ValidationError as exc:
            raise ValidationError(f"structure.{name}: {exc}") from None


@dataclass(frozen=True)
class ModelInputs:
    """Training bundle: a design plus the model-scale target."""

    design: ModelDesign
    target: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "target", y)
        if y.shape != (self.design.n_times,):
            raise ValidationError(
                f"target shape {y.shape} does not match design rows {self.design.n_times}"
            )
        if not np.all(np.isfinite(y)):
            raise ValidationError("target contains non-finite values")


@dataclass(frozen=True)
class Decomposition:
    """Additive components on the model scale.

    trend + seasonality + regression equals the fitted target exactly by
    construction; per_channel rows sum to the regression entries.
    """

    trend: np.ndarray
    seasonality: np.ndarray
    regression: np.ndarray
    per_channel: np.ndarray
    coefficients: np.ndarray

    @property
    def fitted(self) -> np.ndarray:
        return self.trend + self.seasonality + self.regression


@dataclass
class ParamGradient:
    """Gradient of an objective with respect to the natural parameters.

    ln_sigma_obs holds d/d(ln sigma_obs), the coordinate the optimizer
    actually moves.
    """

    b_lev: np.ndarray
    b_seas: np.ndarray
    b_reg: np.ndarray
    mu_reg: np.ndarray
    ln_sigma_obs: float = 0.0

    @classmethod
    def zeros_like(cls, params: ParameterSet) -> "ParamGradient":
        return cls(
            b_lev=np.zeros_like(params.b_lev),
            b_seas=np.zeros_like(params.b_seas),
            b_reg=np.zeros_like(params.b_reg),
            mu_reg=np.zeros_like(params.mu_reg),
        )


def check_dims(params: ParameterSet, design: ModelDesign) -> None:
    _check_knot_shapes(params.b_lev, params.b_seas, params.b_reg, design,
                       (design.k_lev.grid.n_knots, design.k_seas.grid.n_knots,
                        design.k_reg.grid.n_knots))


def _check_knot_shapes(b_lev, b_seas, b_reg, design: ModelDesign, knots) -> None:
    """knots: the (trend, seasonal, regression) knot counts the blocks hold."""
    n_lev, n_seas, n_reg = knots
    # trailing axes only, so a leading draw axis passes through
    if n_lev != b_lev.shape[-1]:
        raise ValidationError("b_lev length does not match trend grid")
    if n_seas != b_seas.shape[-2]:
        raise ValidationError("b_seas rows do not match seasonal grid")
    if b_seas.shape[-1] != design.seasonal.shape[1]:
        raise ValidationError("b_seas columns do not match seasonal design")
    if n_reg != b_reg.shape[-2]:
        raise ValidationError("b_reg rows do not match regression grid")
    if b_reg.shape[-1] != design.n_channels:
        raise ValidationError("b_reg columns do not match regressors")


def _check_reg_rows(b_reg, k_reg: KernelMatrix) -> None:
    if k_reg.grid.n_knots != b_reg.shape[-2]:
        raise ValidationError("b_reg rows do not match regression grid")


def coefficients(params: ParameterSet, k_reg: KernelMatrix) -> np.ndarray:
    """Time-varying regression coefficients B = K @ b_reg, shape (n, P)."""
    _check_reg_rows(params.b_reg, k_reg)
    return k_reg.product(params.b_reg)


def _stacked_product(k: KernelMatrix, b: np.ndarray, knot_offset: int = 0) -> np.ndarray:
    """K @ b[s] for every draw s as one product that reads K once: b
    (S, J, C), whose b[:, j] is knot knot_offset + j, moves to (J, S*C), and
    the result is laid out (n, S, C)."""
    S, J, C = b.shape
    return k.product(b.transpose(1, 0, 2).reshape(J, S * C),
                     knot_offset=knot_offset).reshape(k.n_times, S, C)


def stacked_coefficients(b_reg: np.ndarray, k_reg: KernelMatrix) -> np.ndarray:
    """coefficients for a stack of draws: b_reg (S, J, P) -> (S, n, P)."""
    _check_reg_rows(b_reg, k_reg)
    return _stacked_product(k_reg, b_reg).transpose(1, 0, 2)


def stacked_fitted(b_lev: np.ndarray, b_seas: np.ndarray, b_reg: np.ndarray,
                   design: ModelDesign) -> np.ndarray:
    """decompose(...).fitted for a stack of S draws, shape (S, n).

    The blocks hold only the knots each kernel's rows reach
    (design.reach): b_lev is (S, K_lev), b_seas (S, K_seas, Q) and
    b_reg (S, K_reg, P), as ParameterPacking.unpack_stacked returns them
    for those knots. Each kernel is read once for all draws.
    """
    lev, seas, reg = design.reach
    _check_knot_shapes(b_lev, b_seas, b_reg, design,
                       [r.stop - r.start for r in design.reach])
    trend = design.k_lev.product(b_lev.T, knot_offset=lev.start).T
    seasonality = np.einsum("tq,tsq->st", design.seasonal,
                            _stacked_product(design.k_seas, b_seas, seas.start))
    regression = np.einsum("tp,tsp->st", design.regressors,
                           _stacked_product(design.k_reg, b_reg, reg.start))
    return trend + seasonality + regression


def decompose(params: ParameterSet, design: ModelDesign) -> Decomposition:
    """Split the fitted target into trend, seasonality, and regression."""
    check_dims(params, design)
    trend = design.k_lev.product(params.b_lev)
    seas_coef = design.k_seas.product(params.b_seas)
    seasonality = (design.seasonal * seas_coef).sum(axis=1)
    coef = design.k_reg.product(params.b_reg)
    per_channel = design.regressors * coef
    regression = per_channel.sum(axis=1)
    return Decomposition(
        trend=trend,
        seasonality=seasonality,
        regression=regression,
        per_channel=per_channel,
        coefficients=coef,
    )


def _laplace_chain(values: np.ndarray, first_scale: float, step_scale: float):
    """Log density and gradient of a Laplace chain anchored at 0.

    values is (J,) or (J, Q); columns are independent chains. Term j uses
    location values[j-1] (0 for j=0) and scale first_scale for j=0,
    step_scale after. The gradient takes the subgradient 0 at a kink.
    """
    v = np.atleast_2d(values.T).T if values.ndim == 1 else values
    J = v.shape[0]
    prev = np.vstack([np.zeros((1, v.shape[1])), v[:-1]])
    diffs = v - prev
    scales = np.full((J, 1), step_scale)
    scales[0, 0] = first_scale
    sgn = np.sign(diffs)
    value = float(np.sum(-np.log(2.0 * scales) - np.abs(diffs) / scales))
    grad = -sgn / scales
    grad[:-1] += (sgn / scales)[1:]
    if values.ndim == 1:
        return value, grad[:, 0]
    return value, grad


def _folded_normal_terms(x: np.ndarray, mu: np.ndarray, sigma: float):
    """Elementwise folded-normal log density on x >= 0 with its gradients.

    f(x) = phi((x-mu)/sigma)/sigma + phi((x+mu)/sigma)/sigma. Returns
    (logpdf, d/dx, d/dmu) arrays broadcast over x.
    """
    zm = (x - mu) / sigma
    zp = (x + mu) / sigma
    lm = -0.5 * zm * zm
    lp = -0.5 * zp * zp
    lse = np.logaddexp(lm, lp)
    logpdf = lse - math.log(sigma) - 0.5 * LOG_2PI
    wm = np.exp(lm - lse)
    wp = 1.0 - wm
    dx = -(wm * zm + wp * zp) / sigma
    dmu = (wm * zm - wp * zp) / sigma
    return logpdf, dx, dmu


def log_prior(params: ParameterSet, hp: HyperParams) -> float:
    value, _ = _log_prior_and_grad(params, hp)
    return value


def _log_prior_and_grad(params: ParameterSet, hp: HyperParams):
    grad = ParamGradient.zeros_like(params)
    value = 0.0

    lev_v, lev_g = _laplace_chain(params.b_lev, hp.init_scale_lev, hp.sigma_lev)
    value += lev_v
    grad.b_lev += lev_g

    if params.b_seas.size:
        seas_v, seas_g = _laplace_chain(params.b_seas, hp.sigma_seas, hp.sigma_seas)
        value += seas_v
        grad.b_seas += seas_g

    if params.mu_reg.size:
        if params.allow_negative_reg:
            # signed knots: plain Normal(mu_reg[p], sigma_reg^2)
            z = (params.b_reg - params.mu_reg) / hp.sigma_reg
            value += float(
                np.sum(-0.5 * z * z - math.log(hp.sigma_reg) - 0.5 * LOG_2PI)
            )
            grad.b_reg += -z / hp.sigma_reg
            grad.mu_reg += (z / hp.sigma_reg).sum(axis=0)
        else:
            lp_b, dx_b, dmu_b = _folded_normal_terms(
                params.b_reg, params.mu_reg, hp.sigma_reg
            )
            value += float(lp_b.sum())
            grad.b_reg += dx_b
            grad.mu_reg += dmu_b.sum(axis=0)
        lp_mu, dx_mu, _ = _folded_normal_terms(
            params.mu_reg, np.full_like(params.mu_reg, hp.mu_pool), hp.sigma_pool
        )
        value += float(lp_mu.sum())
        grad.mu_reg += dx_mu

    # improper flat density on ln sigma_obs contributes nothing
    return value, grad


def log_likelihood(params: ParameterSet, inputs: ModelInputs, hp: HyperParams) -> float:
    value, _, _ = _log_likelihood_and_grads(params, inputs, hp)
    return value


# the largest noise_df a row's terms are computed at: above it they are the
# Gaussian's to rounding, and nu sigma^2 and its square stay finite
T_LIMIT_DF = 1e30


def student_t_const(nu: float) -> float:
    """lgamma((nu + 1)/2) - lgamma(nu/2) - ln(nu pi)/2, the log normaliser of
    a unit Student-t. Above nu = 100, where the lgamma difference cancels and
    later overflows, its asymptotic series, off by under 1e-18 there."""
    if nu <= 100.0:
        return math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0) - 0.5 * math.log(nu * math.pi)
    inv2 = 1.0 / (nu * nu)  # -ln(2 pi)/2 - 1/4nu + 1/24nu^3 - 1/20nu^5 + 17/112nu^7
    return -0.5 * LOG_2PI + (-0.25 + inv2 * (1 / 24 + inv2 * (-0.05 + inv2 * 17 / 112))) / nu


def _log_likelihood_and_grads(params: ParameterSet, inputs: ModelInputs,
                              hp: HyperParams):
    """Returns (value, d/dfit vector, d/dln_sigma)."""
    decomp = decompose(params, inputs.design)
    resid = inputs.target - decomp.fitted
    sigma = params.sigma_obs
    n = resid.size
    if hp.noise_df is None:
        ss = float(resid @ resid)
        var = sigma * sigma
        inv_var = 1.0 / var if var else math.inf  # non-finite if var underflows
        value = -0.5 * n * LOG_2PI - n * math.log(sigma) - 0.5 * ss * inv_var
        dfit = resid * inv_var
        dlnsig = -n + ss * inv_var
    else:
        nu = min(hp.noise_df, T_LIMIT_DF)
        denom = nu * sigma * sigma + resid * resid
        value = float(n * (student_t_const(nu) - math.log(sigma))
                      - 0.5 * (nu + 1.0) * np.sum(np.log1p(resid * resid / (nu * sigma * sigma))))
        dfit = (nu + 1.0) * resid / denom
        dlnsig = float(np.sum(-1.0 + (nu + 1.0) * resid * resid / denom))
    return value, dfit, float(dlnsig)


def log_posterior(params: ParameterSet, inputs: ModelInputs, hp: HyperParams,
                  calibration=()) -> float:
    value, _ = log_posterior_and_grad(params, inputs, hp, calibration)
    return value


def log_posterior_and_grad(params: ParameterSet, inputs: ModelInputs,
                           hp: HyperParams, calibration=()):
    """Joint log density (up to the evidence constant) and its gradient.

    calibration is a sequence of terms exposing value_and_coef_grad(coef);
    their gradients are chained through B = K @ b_reg.
    """
    check_dims(params, inputs.design)
    value, grad = _log_prior_and_grad(params, hp)
    ll, dfit, dlnsig = _log_likelihood_and_grads(params, inputs, hp)
    value += ll
    design = inputs.design
    grad.b_lev += design.k_lev.product(dfit, transpose=True)
    if params.b_seas.size:
        grad.b_seas += design.k_seas.product(dfit[:, None] * design.seasonal, transpose=True)
    if params.b_reg.size:
        grad.b_reg += design.k_reg.product(dfit[:, None] * design.regressors, transpose=True)
    grad.ln_sigma_obs += dlnsig
    if calibration:
        coef = design.k_reg.product(params.b_reg)
        for term in calibration:
            t_value, t_coef_grad = term.value_and_coef_grad(coef)
            value += t_value
            grad.b_reg += design.k_reg.product(t_coef_grad, transpose=True)
    return value, grad


def predict(params: ParameterSet, design: ModelDesign, horizon: int,
            link: str = "log") -> np.ndarray:
    """Forecast the last `horizon` rows of an extended design.

    The design must cover training plus forecast rows; the kernel matrices
    inside it carry the extension. Returns the original-scale response under
    the log link, or the raw model-scale sum under the identity link.
    """
    if horizon < 0 or horizon > design.n_times:
        raise ValidationError(f"horizon {horizon} outside design rows {design.n_times}")
    if link not in ("log", "identity"):
        raise ValidationError(f"unknown link {link!r}")
    decomp = decompose(params, design)
    tail = decomp.fitted[design.n_times - horizon:]
    return np.exp(tail) if link == "log" else tail.copy()


def write_decomposition_csv(decomp: Decomposition, timestamps: np.ndarray,
                            names: tuple[str, ...], path: str) -> None:
    """One row per time step: components, per-channel contributions, betas."""
    header = (
        ["date", "trend", "seasonality", "regression"]
        + [f"contrib_{c}" for c in names]
        + [f"beta_{c}" for c in names]
    )
    write_table(path, header, timestamps,
                [decomp.trend, decomp.seasonality, decomp.regression,
                 *decomp.per_channel.T, *decomp.coefficients.T])
