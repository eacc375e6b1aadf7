"""MAP and stochastic variational fitting on an unconstrained vector.

Constrained parameters are mapped to a flat vector theta with a fixed,
documented block order:

    1. b_lev            (identity; omitted when packing fixes it)
    2. b_seas raveled   (identity)
    3. b_reg raveled    (softplus by default, identity in the Gaussian
                         conjugate test hook)
    4. mu_reg           (same transform as b_reg; omitted when fixed)
    5. ln(sigma_obs)    (omitted when fixed)

The MAP objective is log_posterior composed with unpack, with no change of
variables correction. The SVI objective adds the softplus log-Jacobian so
the variational Gaussian approximates the posterior over theta.

The optimizer is plain adaptive moment ascent (momentum plus per-coordinate
scaling) with an exponentially decaying step size and random restarts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ValidationError
from .model import (
    LOG_2PI,
    HyperParams,
    ModelInputs,
    ParameterSet,
    _abs_and_dsign,
    _folded_normal_terms,
    _laplace_chain,
    _log_likelihood_and_grads,
    _log_prior_and_grad,
    check_dims,
    coefficients,
    log_posterior_and_grad,
)

__all__ = [
    "ParameterPacking",
    "MapConfig",
    "SviConfig",
    "FitResult",
    "PosteriorDraws",
    "GradientReport",
    "default_packing",
    "initial_theta",
    "fit_map",
    "fit_svi",
    "draw_posterior",
    "check_gradient",
    "fit_document",
    "save_fit",
    "load_fit",
    "softplus",
    "softplus_inv",
]


def softplus(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, t)


def softplus_inv(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValidationError("softplus inverse needs strictly positive inputs")
    # x + log(1 - e^{-x}), stable for both large and small x
    return x + np.log1p(-np.exp(-x))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class ParameterPacking:
    """Layout of the unconstrained vector for one model structure.

    fixed_* blocks are held constant and excluded from theta; the conjugate
    ridge check fixes the trend, mu_reg, and sigma_obs so only b_reg is
    optimized, under an identity transform.
    """

    n_lev: int
    n_seas_knots: int
    n_seas_cols: int
    n_reg_knots: int
    n_channels: int
    reg_transform: str = "softplus"
    fixed_b_lev: np.ndarray | None = None
    fixed_mu_reg: np.ndarray | None = None
    fixed_sigma_obs: float | None = None

    def __post_init__(self):
        if self.reg_transform not in ("softplus", "identity"):
            raise ValidationError(f"unknown reg_transform {self.reg_transform!r}")
        if self.fixed_b_lev is not None:
            b = np.asarray(self.fixed_b_lev, dtype=float)
            if b.shape != (self.n_lev,):
                raise ValidationError("fixed_b_lev has the wrong length")
            object.__setattr__(self, "fixed_b_lev", b)
        if self.fixed_mu_reg is not None:
            m = np.asarray(self.fixed_mu_reg, dtype=float)
            if m.shape != (self.n_channels,):
                raise ValidationError("fixed_mu_reg has the wrong length")
            object.__setattr__(self, "fixed_mu_reg", m)
        if self.fixed_sigma_obs is not None and self.fixed_sigma_obs <= 0:
            raise ValidationError("fixed_sigma_obs must be > 0")

    # -- layout ------------------------------------------------------------
    def _sizes(self) -> list[tuple[str, int]]:
        blocks = []
        if self.fixed_b_lev is None:
            blocks.append(("b_lev", self.n_lev))
        blocks.append(("b_seas", self.n_seas_knots * self.n_seas_cols))
        blocks.append(("b_reg", self.n_reg_knots * self.n_channels))
        if self.fixed_mu_reg is None:
            blocks.append(("mu_reg", self.n_channels))
        if self.fixed_sigma_obs is None:
            blocks.append(("ln_sigma_obs", 1))
        return blocks

    @property
    def dim(self) -> int:
        return sum(size for _, size in self._sizes())

    def slices(self) -> dict[str, slice]:
        out, pos = {}, 0
        for name, size in self._sizes():
            out[name] = slice(pos, pos + size)
            pos += size
        return out

    def block_order(self) -> list[str]:
        return [name for name, _ in self._sizes()]

    def _reg_forward(self, raw: np.ndarray) -> np.ndarray:
        return softplus(raw) if self.reg_transform == "softplus" else raw

    def _reg_inverse(self, x: np.ndarray) -> np.ndarray:
        return softplus_inv(x) if self.reg_transform == "softplus" else np.asarray(x, float)

    # -- conversions --------------------------------------------------------
    def unpack(self, theta: np.ndarray) -> ParameterSet:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValidationError(f"theta length {theta.shape} != packing dim {self.dim}")
        sl = self.slices()
        b_lev = theta[sl["b_lev"]] if "b_lev" in sl else self.fixed_b_lev
        b_seas = theta[sl["b_seas"]].reshape(self.n_seas_knots, self.n_seas_cols)
        b_reg = self._reg_forward(
            theta[sl["b_reg"]].reshape(self.n_reg_knots, self.n_channels)
        )
        if "mu_reg" in sl:
            mu_reg = self._reg_forward(theta[sl["mu_reg"]])
        else:
            mu_reg = self.fixed_mu_reg
        if "ln_sigma_obs" in sl:
            sigma_obs = float(np.exp(theta[sl["ln_sigma_obs"]][0]))
        else:
            sigma_obs = self.fixed_sigma_obs
        params = ParameterSet(
            b_lev=np.array(b_lev, dtype=float),
            b_seas=b_seas,
            b_reg=b_reg,
            mu_reg=np.array(mu_reg, dtype=float),
            sigma_obs=sigma_obs,
            allow_negative_reg=self.reg_transform == "identity",
        )
        # stash the source vector so pack() can return it bit-exactly
        object.__setattr__(params, "_theta_cache", theta.copy())
        return params

    def _matches(self, theta: np.ndarray, params: ParameterSet) -> bool:
        sl = self.slices()
        if "b_lev" in sl and not np.array_equal(theta[sl["b_lev"]], params.b_lev):
            return False
        if not np.array_equal(
            theta[sl["b_seas"]].reshape(self.n_seas_knots, self.n_seas_cols),
            params.b_seas,
        ):
            return False
        if not np.array_equal(
            self._reg_forward(theta[sl["b_reg"]].reshape(self.n_reg_knots, self.n_channels)),
            params.b_reg,
        ):
            return False
        if "mu_reg" in sl and not np.array_equal(
            self._reg_forward(theta[sl["mu_reg"]]), params.mu_reg
        ):
            return False
        if "ln_sigma_obs" in sl and float(np.exp(theta[sl["ln_sigma_obs"]][0])) != params.sigma_obs:
            return False
        return True

    def pack(self, params: ParameterSet) -> np.ndarray:
        cached = getattr(params, "_theta_cache", None)
        if cached is not None and cached.shape == (self.dim,) and self._matches(cached, params):
            return cached.copy()
        parts = []
        sl = self.slices()
        if "b_lev" in sl:
            parts.append(params.b_lev)
        parts.append(params.b_seas.ravel())
        parts.append(self._reg_inverse(params.b_reg).ravel())
        if "mu_reg" in sl:
            parts.append(self._reg_inverse(params.mu_reg))
        if "ln_sigma_obs" in sl:
            parts.append(np.array([math.log(params.sigma_obs)]))
        return np.concatenate(parts) if parts else np.zeros(0)

    def chain_grad(self, theta: np.ndarray, grad) -> np.ndarray:
        """Map a ParamGradient to d/d theta at the given theta."""
        sl = self.slices()
        out = np.zeros(self.dim)
        if "b_lev" in sl:
            out[sl["b_lev"]] = grad.b_lev
        out[sl["b_seas"]] = grad.b_seas.ravel()
        raw = theta[sl["b_reg"]]
        g_reg = grad.b_reg.ravel()
        out[sl["b_reg"]] = g_reg * _sigmoid(raw) if self.reg_transform == "softplus" else g_reg
        if "mu_reg" in sl:
            raw_mu = theta[sl["mu_reg"]]
            g_mu = grad.mu_reg
            out[sl["mu_reg"]] = (
                g_mu * _sigmoid(raw_mu) if self.reg_transform == "softplus" else g_mu
            )
        if "ln_sigma_obs" in sl:
            out[sl["ln_sigma_obs"]] = grad.ln_sigma_obs
        return out

    def log_jacobian(self, theta: np.ndarray) -> float:
        """log |d constrained / d theta| for the softplus blocks.

        ln sigma_obs is itself the parameter the flat prior is placed on,
        so it contributes nothing.
        """
        if self.reg_transform != "softplus":
            return 0.0
        sl = self.slices()
        coords = [theta[sl["b_reg"]]]
        if "mu_reg" in sl:
            coords.append(theta[sl["mu_reg"]])
        t = np.concatenate(coords)
        # ln sigmoid(t) = -softplus(-t)
        return float(-np.logaddexp(0.0, -t).sum())

    def log_jacobian_grad(self, theta: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        if self.reg_transform != "softplus":
            return out
        sl = self.slices()
        out[sl["b_reg"]] = _sigmoid(-theta[sl["b_reg"]])
        if "mu_reg" in sl:
            out[sl["mu_reg"]] = _sigmoid(-theta[sl["mu_reg"]])
        return out

    def describe(self) -> dict:
        return {
            "blocks": [[name, size] for name, size in self._sizes()],
            "reg_transform": self.reg_transform,
            "n_lev": self.n_lev,
            "n_seas_knots": self.n_seas_knots,
            "n_seas_cols": self.n_seas_cols,
            "n_reg_knots": self.n_reg_knots,
            "n_channels": self.n_channels,
            "fixed_b_lev": None if self.fixed_b_lev is None else [float(v) for v in self.fixed_b_lev],
            "fixed_mu_reg": None if self.fixed_mu_reg is None else [float(v) for v in self.fixed_mu_reg],
            "fixed_sigma_obs": None if self.fixed_sigma_obs is None else float(self.fixed_sigma_obs),
        }

    @classmethod
    def from_description(cls, doc: dict) -> "ParameterPacking":
        return cls(
            n_lev=int(doc["n_lev"]),
            n_seas_knots=int(doc["n_seas_knots"]),
            n_seas_cols=int(doc["n_seas_cols"]),
            n_reg_knots=int(doc["n_reg_knots"]),
            n_channels=int(doc["n_channels"]),
            reg_transform=doc["reg_transform"],
            fixed_b_lev=None if doc["fixed_b_lev"] is None else np.asarray(doc["fixed_b_lev"]),
            fixed_mu_reg=None if doc["fixed_mu_reg"] is None else np.asarray(doc["fixed_mu_reg"]),
            fixed_sigma_obs=doc["fixed_sigma_obs"],
        )


def default_packing(inputs: ModelInputs) -> ParameterPacking:
    d = inputs.design
    return ParameterPacking(
        n_lev=d.k_lev.grid.n_knots,
        n_seas_knots=d.k_seas.grid.n_knots,
        n_seas_cols=d.seasonal.shape[1],
        n_reg_knots=d.k_reg.grid.n_knots,
        n_channels=d.n_channels,
    )


@dataclass(frozen=True)
class MapConfig:
    """Optimizer settings for MAP.

    The step size decays exponentially from learning_rate to
    final_learning_rate over the iteration budget. rel_tol=0 disables the
    plateau stop (useful when parameter-space precision matters more than
    objective precision).
    """

    learning_rate: float = 0.05
    final_learning_rate: float = 1e-6
    iterations: int = 10000
    restarts: int = 3
    restart_scale: float = 0.3
    rel_tol: float = 1e-8
    tol_window: int = 50
    grad_tol: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    trace_every: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0 or self.final_learning_rate <= 0:
            raise ValidationError("learning rates must be > 0")
        if self.iterations < 1 or self.restarts < 1:
            raise ValidationError("iterations and restarts must be >= 1")
        if self.trace_every < 1:
            raise ValidationError("trace_every must be >= 1")


@dataclass(frozen=True)
class SviConfig:
    """Settings for diagonal-Gaussian stochastic variational inference."""

    iterations: int = 5000
    samples_per_step: int = 1
    learning_rate: float = 0.02
    final_learning_rate: float = 1e-4
    init_log_sd: float = -3.0
    seed: int = 0
    trace_every: int = 1

    def __post_init__(self):
        if self.iterations < 1 or self.samples_per_step < 1:
            raise ValidationError("iterations and samples_per_step must be >= 1")
        if self.learning_rate <= 0 or self.final_learning_rate <= 0:
            raise ValidationError("learning rates must be > 0")
        if self.trace_every < 1:
            raise ValidationError("trace_every must be >= 1")


@dataclass
class FitResult:
    """Everything needed to predict, decompose, and draw from one fit."""

    params: ParameterSet
    theta: np.ndarray
    packing: ParameterPacking
    hyper: HyperParams
    trace: list[float]
    seed: int
    mode: str
    stop_reason: str
    n_iterations: int
    grad_norm: float
    variational_mean: np.ndarray | None = None
    variational_log_sd: np.ndarray | None = None
    config: dict = field(default_factory=dict)
    structure: dict = field(default_factory=dict)

    @property
    def has_variational(self) -> bool:
        return self.variational_mean is not None


@dataclass(frozen=True)
class PosteriorDraws:
    """Samples from the variational posterior mapped through unpack."""

    theta_draws: np.ndarray
    coefficient_draws: np.ndarray
    packing: ParameterPacking

    def parameter_set(self, i: int) -> ParameterSet:
        return self.packing.unpack(self.theta_draws[i])

    def coefficient_quantiles(self, levels) -> dict[float, np.ndarray]:
        return {
            float(q): np.quantile(self.coefficient_draws, q, axis=0) for q in levels
        }


def _objective(inputs, hp, packing, calibration, include_jacobian):
    """Compile the fit objective of one structure: theta -> (value, gradient).

    The value is log_posterior_and_grad at packing.unpack(theta), its
    gradient chained to theta as packing.chain_grad does, plus the softplus
    log-Jacobian when include_jacobian; that composition stays the readable
    reference this one is tested against. Everything that depends only on
    the structure is done here once, so a call builds no ParameterSet or
    ParamGradient and runs no dimension checks.

    theta's leading [b_lev, b_seas] block holds every Laplace chain: each
    knot's location is its predecessor in the same chain (0 for the first),
    so one diff over the block covers the trend and all seasonal columns.
    The following [b_reg, mu_reg] block is where the softplus acts and where
    the folded-normal terms live: b_reg around mu_reg, then mu_reg around
    mu_pool. Writing z = (x - loc) / sigma and a = 2 x loc / sigma^2, each
    term is the Gaussian -z^2/2 plus the mirror image's log(1 + e^-a); the
    Gaussian test prior on b_reg is the same term without the mirror.
    """
    design = inputs.design
    check_dims(packing.unpack(np.zeros(packing.dim)), design)
    y = inputs.target
    n = y.size
    k_lev, k_seas, k_reg = design.k_lev.weights, design.k_seas.weights, design.k_reg.weights
    # Gaussian weights far from their knot underflow to subnormal numbers,
    # which slow every product through them several-fold. Each changes a
    # product by under 1e-300 times the other factor, far below its rounding.
    subnormal = (k_reg != 0) & (np.abs(k_reg) < np.finfo(float).tiny)
    if subnormal.any():
        k_reg = np.where(subnormal, 0.0, k_reg)
    seasonal, regressors = design.seasonal, design.regressors
    n_seas_knots, n_cols = packing.n_seas_knots, packing.n_seas_cols
    n_reg_knots, n_channels = packing.n_reg_knots, packing.n_channels
    lev_free = packing.fixed_b_lev is None
    mu_free = packing.fixed_mu_reg is None
    sigma_free = packing.fixed_sigma_obs is None
    softplus_reg = packing.reg_transform == "softplus"
    check_support = not softplus_reg and not hp.gaussian_reg_prior
    dim = packing.dim
    n_lev = packing.n_lev if lev_free else 0
    n_chain = n_lev + n_seas_knots * n_cols
    n_b = n_reg_knots * n_channels
    n_mu = n_channels if mu_free else 0
    reg_end = n_chain + n_b + n_mu
    delta = hp.laplace_smoothing

    const = 0.0
    chain_scale = np.concatenate(
        [np.full(n_lev, hp.sigma_lev), np.full(n_chain - n_lev, hp.sigma_seas)]
    )
    if lev_free:
        chain_scale[0] = hp.init_scale_lev
    else:
        const += _laplace_chain(packing.fixed_b_lev, hp.init_scale_lev, hp.sigma_lev, delta)[0]
        trend_fixed = k_lev @ packing.fixed_b_lev
    const -= float(np.log(2.0 * chain_scale).sum())
    chain_inv = 1.0 / chain_scale
    lev_steps = np.arange(1, n_lev)
    seas_steps = np.arange(n_lev + n_cols, n_chain)
    steps = np.concatenate([lev_steps, seas_steps])
    prev = np.concatenate([lev_steps - 1, seas_steps - n_cols])

    reg_scale = np.concatenate(
        [np.full(n_b, hp.sigma_reg), np.full(n_mu, hp.sigma_pool)]
    )
    reg_inv = 1.0 / reg_scale
    const -= float(np.sum(np.log(reg_scale) + 0.5 * LOG_2PI))
    mirror = n_b if hp.gaussian_reg_prior else 0  # entries from here on are folded
    mirror_inv2 = 2.0 * reg_inv[mirror:]
    channel_of = np.tile(np.arange(n_channels), n_reg_knots)
    if mu_free:
        mu_of = n_b + channel_of
        pool_loc = np.full(n_channels, hp.mu_pool)
    else:
        fixed_mu = packing.fixed_mu_reg
        if check_support and n_channels and fixed_mu.min() < 0:
            raise ValidationError("mu_reg outside folded-normal support")
        loc_fixed = fixed_mu[channel_of]
        if n_channels:
            const += float(_folded_normal_terms(
                fixed_mu, np.full(n_channels, hp.mu_pool), hp.sigma_pool)[0].sum())

    windows = tuple(
        (slice(t.start0, t.end0 + 1), t.channel_index, t.mean, t.sd, t.weight)
        for t in calibration
    )
    for rows, _, _, sd, weight in windows:
        const -= weight * (rows.stop - rows.start) * (math.log(sd) + 0.5 * LOG_2PI)

    nu = hp.noise_df
    if nu is None:
        const -= 0.5 * n * LOG_2PI
    else:
        t_const = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
                   - 0.5 * math.log(nu * math.pi))
        const += n * t_const

    def f(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (dim,):
            raise ValidationError(f"theta length {theta.shape} != packing dim {dim}")
        grad = np.empty(dim)

        # Laplace chains
        z = theta[:n_chain]
        diff = z.copy()
        diff[steps] -= z[prev]
        absd, sgn = _abs_and_dsign(diff, delta)
        value = const - float(absd @ chain_inv)
        g_diff = sgn * chain_inv
        g_chain = -g_diff
        g_chain[prev] += g_diff[steps]
        grad[:n_chain] = g_chain

        # softplus (or identity) block and its folded-normal terms
        raw = theta[n_chain:reg_end]
        if softplus_reg:
            e = np.exp(-np.abs(raw))
            log1p_e = np.log1p(e)
            x = np.maximum(raw, 0.0) + log1p_e
            inv_1pe = 1.0 / (1.0 + e)
            e_inv = e * inv_1pe
            positive = raw >= 0
            dx_draw = np.where(positive, inv_1pe, e_inv)
        else:
            x = raw
            if check_support:
                if n_b and x[:n_b].min() < 0:
                    raise ValidationError("b_reg outside folded-normal support")
                if n_mu and x[n_b:].min() < 0:
                    raise ValidationError("mu_reg outside folded-normal support")
        loc = np.concatenate((x[mu_of], pool_loc)) if mu_free else loc_fixed
        u = loc * reg_inv
        v = x * reg_inv
        zm = v - u
        a = 2.0 * u[mirror:] * v[mirror:]
        e_a = np.exp(-np.abs(a))
        value += float(np.sum(np.maximum(-a, 0.0) + np.log1p(e_a)) - 0.5 * (zm @ zm))
        w_mirror = mirror_inv2 * np.where(a >= 0, e_a, 1.0) / (1.0 + e_a)
        g_z = zm * reg_inv
        g_x = -g_z
        g_x[mirror:] -= w_mirror * u[mirror:]
        if mu_free:
            g_loc = g_z
            g_loc[mirror:] -= w_mirror * v[mirror:]
            g_x[n_b:] += g_loc[:n_b].reshape(n_reg_knots, n_channels).sum(axis=0)

        # likelihood through the three kernel products
        fitted = k_lev @ z[:n_lev] if lev_free else trend_fixed
        b_seas = z[n_lev:].reshape(n_seas_knots, n_cols)
        coef = k_reg @ x[:n_b].reshape(n_reg_knots, n_channels)
        fitted = (fitted + np.einsum("tq,tq->t", seasonal, k_seas @ b_seas)
                  + np.einsum("tp,tp->t", regressors, coef))
        resid = y - fitted
        sigma = float(np.exp(theta[-1])) if sigma_free else packing.fixed_sigma_obs
        if sigma <= 0:
            raise ValidationError("sigma_obs must be > 0")
        if nu is None:
            inv_var = 1.0 / (sigma * sigma)
            ss = float(resid @ resid)
            value += -n * math.log(sigma) - 0.5 * ss * inv_var
            dfit = resid * inv_var
            dlnsig = ss * inv_var - n
        else:
            nu_var = nu * sigma * sigma
            sq = resid * resid
            denom = nu_var + sq
            value += -n * math.log(sigma) - 0.5 * (nu + 1.0) * float(np.log1p(sq / nu_var).sum())
            dfit = (nu + 1.0) * resid / denom
            dlnsig = (nu + 1.0) * float((sq / denom).sum()) - n

        if lev_free:
            grad[:n_lev] += k_lev.T @ dfit
        grad[n_lev:n_chain] += (k_seas.T @ (dfit[:, None] * seasonal)).ravel()
        g_coef = dfit[:, None] * regressors
        for rows, channel, mean, sd, weight in windows:
            c = coef[rows, channel]
            zc = (c - mean) / sd
            value -= 0.5 * weight * float(zc @ zc)
            g_coef[rows, channel] += weight * (mean - c) / (sd * sd)
        g_x[:n_b] += (k_reg.T @ g_coef).ravel()

        if softplus_reg:
            g_x *= dx_draw
            if include_jacobian:
                # ln sigmoid(raw) = -softplus(-raw); its derivative is sigmoid(-raw)
                value -= float(np.sum(np.maximum(-raw, 0.0) + log1p_e))
                g_x += np.where(positive, e_inv, inv_1pe)
        grad[n_chain:reg_end] = g_x
        if sigma_free:
            grad[-1] = dlnsig
        return value, grad

    return f


def initial_theta(inputs: ModelInputs, hp: HyperParams,
                  packing: ParameterPacking) -> np.ndarray:
    """Deterministic starting point near the data scale.

    Trend knots start at the kernel-weighted local mean of the target,
    regression knots and pooled means at 0.1, seasonality at 0, and the
    noise scale at the trend-only residual sd.
    """
    design = inputs.design
    K = design.k_lev.weights
    colsum = K.sum(axis=0)
    colsum[colsum == 0] = 1.0
    b_lev0 = (K.T @ inputs.target) / colsum
    parts = []
    sl = packing.slices()
    if "b_lev" in sl:
        parts.append(b_lev0)
    parts.append(np.zeros(packing.n_seas_knots * packing.n_seas_cols))
    reg0 = np.full(packing.n_reg_knots * packing.n_channels, 0.1)
    parts.append(packing._reg_inverse(reg0))
    if "mu_reg" in sl:
        parts.append(packing._reg_inverse(np.full(packing.n_channels, 0.1)))
    if "ln_sigma_obs" in sl:
        resid = inputs.target - K @ b_lev0
        sigma0 = max(float(np.std(resid)), 1e-3)
        parts.append(np.array([math.log(sigma0)]))
    return np.concatenate(parts) if parts else np.zeros(0)


class _BestTracker:
    """Global best-so-far across restarts; the recorded trace is monotone."""

    def __init__(self):
        self.value = -np.inf
        self.theta = None
        self.grad_norm = np.inf

    def offer(self, value, theta, grad):
        if value > self.value:
            self.value = value
            self.theta = theta.copy()
            self.grad_norm = float(np.linalg.norm(grad))


def _adam_run(f, theta0, cfg: MapConfig, best: _BestTracker, trace: list[float]):
    """One restart of moment-based ascent. Returns the stop reason."""
    theta = theta0.copy()
    dim = theta.size
    m = np.zeros(dim)
    v = np.zeros(dim)
    n_iter = max(cfg.iterations, 1)
    decay = (cfg.final_learning_rate / cfg.learning_rate) ** (1.0 / max(n_iter - 1, 1))
    lr = cfg.learning_rate
    window: list[float] = []
    for t in range(cfg.iterations):
        value, grad = f(theta)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                f"objective became non-finite at iteration {t}",
                trace=trace, iteration=t,
            )
        best.offer(value, theta, grad)
        if t % cfg.trace_every == 0:
            trace.append(best.value)
        gnorm = float(np.linalg.norm(grad))
        if cfg.grad_tol > 0 and gnorm <= cfg.grad_tol:
            return "grad_tol", t + 1
        window.append(best.value)
        if cfg.rel_tol > 0 and len(window) > cfg.tol_window:
            old = window[-cfg.tol_window - 1]
            if abs(best.value - old) <= cfg.rel_tol * max(1.0, abs(best.value)):
                return "rel_change", t + 1
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
        mhat = m / (1.0 - cfg.beta1 ** (t + 1))
        vhat = v / (1.0 - cfg.beta2 ** (t + 1))
        theta = theta + lr * mhat / (np.sqrt(vhat) + cfg.eps)
        lr *= decay
    return "max_iter", cfg.iterations


def fit_map(inputs: ModelInputs, hp: HyperParams, config: MapConfig | None = None,
            packing: ParameterPacking | None = None, calibration=(),
            run_config: dict | None = None) -> FitResult:
    """Maximize the log posterior over theta. Deterministic given the seed."""
    config = config or MapConfig()
    packing = packing or default_packing(inputs)
    theta0 = initial_theta(inputs, hp, packing)
    f = _objective(inputs, hp, packing, calibration, include_jacobian=False)

    params0 = packing.unpack(theta0)
    prior0, _ = _log_prior_and_grad(params0, hp)
    lik0, _, _ = _log_likelihood_and_grads(params0, inputs, hp)
    if not np.isfinite(prior0):
        raise ValidationError("log prior non-finite at the initial point")
    if not np.isfinite(lik0):
        raise ValidationError("log likelihood non-finite at the initial point")

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    best = _BestTracker()
    trace: list[float] = []
    stop_reason = "max_iter"
    total_iters = 0
    for restart in range(config.restarts):
        if restart == 0:
            start = theta0
        else:
            start = theta0 + config.restart_scale * rng.standard_normal(packing.dim)
        reason, used = _adam_run(f, start, config, best, trace)
        stop_reason = reason
        total_iters += used
    theta_star = best.theta
    return FitResult(
        params=packing.unpack(theta_star),
        theta=theta_star,
        packing=packing,
        hyper=hp,
        trace=trace,
        seed=config.seed,
        mode="map",
        stop_reason=stop_reason,
        n_iterations=total_iters,
        grad_norm=best.grad_norm,
        config=dict(run_config or {}),
    )


def fit_svi(inputs: ModelInputs, hp: HyperParams, config: SviConfig | None = None,
            packing: ParameterPacking | None = None, calibration=(),
            init: FitResult | None = None, map_config: MapConfig | None = None,
            run_config: dict | None = None) -> FitResult:
    """Fit a diagonal Gaussian over theta by reparameterized gradient ascent.

    The mean starts at the MAP point (fit here unless `init` is supplied);
    the objective is E_q[log_posterior + log-Jacobian] + entropy(q).
    """
    config = config or SviConfig()
    packing = packing or default_packing(inputs)
    if init is None:
        init = fit_map(
            inputs, hp, map_config or MapConfig(seed=config.seed),
            packing=packing, calibration=calibration,
        )
    f = _objective(inputs, hp, packing, calibration, include_jacobian=True)
    dim = packing.dim
    mean = init.theta.copy()
    log_sd = np.full(dim, config.init_log_sd)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    m = np.zeros(2 * dim)
    v = np.zeros(2 * dim)
    n_iter = max(config.iterations, 1)
    decay = (config.final_learning_rate / config.learning_rate) ** (1.0 / max(n_iter - 1, 1))
    lr = config.learning_rate
    trace: list[float] = []
    entropy_const = 0.5 * dim * (1.0 + math.log(2.0 * math.pi))
    for t in range(config.iterations):
        eps = rng.standard_normal((config.samples_per_step, dim))
        sd = np.exp(log_sd)
        g_mean = np.zeros(dim)
        g_eps = np.zeros(dim)
        value_sum = 0.0
        for s in range(config.samples_per_step):
            theta_s = mean + sd * eps[s]
            val_s, grad_s = f(theta_s)
            value_sum += val_s
            g_mean += grad_s
            g_eps += grad_s * eps[s]
        k = config.samples_per_step
        elbo = value_sum / k + entropy_const + float(log_sd.sum())
        if not np.isfinite(elbo):
            raise DivergenceError(
                f"ELBO became non-finite at iteration {t}", trace=trace, iteration=t
            )
        if t % config.trace_every == 0:
            trace.append(elbo)
        grad = np.concatenate([g_mean / k, (g_eps / k) * sd + 1.0])
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        mhat = m / (1.0 - 0.9 ** (t + 1))
        vhat = v / (1.0 - 0.999 ** (t + 1))
        step = lr * mhat / (np.sqrt(vhat) + 1e-8)
        mean = mean + step[:dim]
        log_sd = log_sd + step[dim:]
        lr *= decay
    return FitResult(
        params=packing.unpack(mean),
        theta=init.theta,
        packing=packing,
        hyper=hp,
        trace=trace,
        seed=config.seed,
        mode="svi",
        stop_reason="max_iter",
        n_iterations=config.iterations,
        grad_norm=init.grad_norm,
        variational_mean=mean,
        variational_log_sd=log_sd,
        config=dict(run_config or {}),
    )


def draw_posterior(fit: FitResult, k_reg, n_draws: int, seed: int = 0) -> PosteriorDraws:
    """Sample theta from the variational Gaussian and derive coefficients."""
    if not fit.has_variational:
        raise ValidationError("posterior draws need an SVI fit, this one is MAP-only")
    if n_draws < 1:
        raise ValidationError("n_draws must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dim = fit.packing.dim
    sd = np.exp(fit.variational_log_sd)
    theta_draws = fit.variational_mean + sd * rng.standard_normal((n_draws, dim))
    coef_draws = np.stack(
        [coefficients(fit.packing.unpack(theta_draws[i]), k_reg) for i in range(n_draws)]
    )
    return PosteriorDraws(
        theta_draws=theta_draws, coefficient_draws=coef_draws, packing=fit.packing
    )


@dataclass
class GradientReport:
    max_rel_error: float
    per_point: list[float]
    kink_perturbed: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= 1e-4


def _near_kink(packing: ParameterPacking, theta: np.ndarray, gap: float) -> bool:
    params = packing.unpack(theta)
    chains = [np.concatenate([[params.b_lev[0]], np.diff(params.b_lev)])]
    if params.b_seas.size:
        first = params.b_seas[:1]
        diffs = np.vstack([first, np.diff(params.b_seas, axis=0)])
        chains.append(diffs.ravel())
    return any(np.min(np.abs(c)) < gap for c in chains if c.size)


def check_gradient(inputs: ModelInputs, hp: HyperParams,
                   packing: ParameterPacking | None = None,
                   theta0: np.ndarray | None = None, n_points: int = 20,
                   seed: int = 0, fd_step: float = 1e-5, kink_gap: float = 1e-6,
                   calibration=(), include_jacobian: bool = False) -> GradientReport:
    """Compare the analytic gradient with central finite differences.

    Points are sampled around theta0 and nudged away from Laplace kinks so
    the subgradient convention is never what is being measured.
    """
    packing = packing or default_packing(inputs)
    if theta0 is None:
        theta0 = initial_theta(inputs, hp, packing)
    f = _objective(inputs, hp, packing, calibration, include_jacobian)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    per_point = []
    perturbed = 0
    for point in range(n_points):
        # the supplied point itself is always checked; the rest are jittered
        if point == 0:
            theta = theta0.copy()
        else:
            theta = theta0 + 0.5 * rng.standard_normal(packing.dim)
        tries = 0
        while _near_kink(packing, theta, kink_gap) and tries < 100:
            theta = theta + 1e-3 * rng.standard_normal(packing.dim)
            tries += 1
        if tries:
            perturbed += 1
        _, analytic = f(theta)
        worst = 0.0
        for i in range(packing.dim):
            h = fd_step * max(1.0, abs(theta[i]))
            up = theta.copy()
            up[i] += h
            dn = theta.copy()
            dn[i] -= h
            fd = (f(up)[0] - f(dn)[0]) / (2.0 * h)
            err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd))
            worst = max(worst, err)
        per_point.append(worst)
    return GradientReport(
        max_rel_error=max(per_point) if per_point else 0.0,
        per_point=per_point,
        kink_perturbed=perturbed,
    )


# -- fit document ------------------------------------------------------------

def _hyper_doc(hp: HyperParams) -> dict:
    return {
        "sigma_lev": hp.sigma_lev,
        "sigma_seas": hp.sigma_seas,
        "mu_pool": hp.mu_pool,
        "sigma_pool": hp.sigma_pool,
        "sigma_reg": hp.sigma_reg,
        "init_scale_lev": hp.init_scale_lev,
        "noise_df": hp.noise_df,
        "gaussian_reg_prior": hp.gaussian_reg_prior,
        "laplace_smoothing": hp.laplace_smoothing,
    }


def fit_document(fit: FitResult) -> dict:
    """Plain-JSON view of a fit; floats keep full precision via repr."""
    doc = {
        "format": "btvc-fit-v1",
        "mode": fit.mode,
        "seed": fit.seed,
        "packing": fit.packing.describe(),
        "theta_map": [float(v) for v in fit.theta],
        "variational": None,
        "trace": [float(v) for v in fit.trace],
        "stop_reason": fit.stop_reason,
        "n_iterations": fit.n_iterations,
        "grad_norm": float(fit.grad_norm),
        "hyperparams": _hyper_doc(fit.hyper),
        "config": fit.config,
        "structure": fit.structure,
    }
    if fit.has_variational:
        doc["variational"] = {
            "mean": [float(v) for v in fit.variational_mean],
            "log_sd": [float(v) for v in fit.variational_log_sd],
        }
    return doc


def save_fit(fit: FitResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(fit_document(fit), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_fit(path: str) -> FitResult:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "btvc-fit-v1":
        raise ValidationError(f"not a fit document: {path}")
    packing = ParameterPacking.from_description(doc["packing"])
    hp_doc = doc["hyperparams"]
    hp = HyperParams(**hp_doc)
    theta = np.asarray(doc["theta_map"], dtype=float)
    var = doc.get("variational")
    point = theta if var is None else np.asarray(var["mean"], dtype=float)
    return FitResult(
        params=packing.unpack(point),
        theta=theta,
        packing=packing,
        hyper=hp,
        trace=list(doc["trace"]),
        seed=int(doc["seed"]),
        mode=doc["mode"],
        stop_reason=doc["stop_reason"],
        n_iterations=int(doc["n_iterations"]),
        grad_norm=float(doc["grad_norm"]),
        variational_mean=None if var is None else np.asarray(var["mean"], dtype=float),
        variational_log_sd=None if var is None else np.asarray(var["log_sd"], dtype=float),
        config=dict(doc.get("config", {})),
        structure=dict(doc.get("structure", {})),
    )
