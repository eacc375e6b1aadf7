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
the variational Gaussian approximates the posterior over theta. Both are
compiled once per fit by objective.Objective; fit_maps fits several
structures at once on one stacked objective.

MAP and SVI both ascend through one in-place Adam stepper, _adam: moments
0.9 and 0.999, eps 1e-8, and an exponentially decaying step size.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Literal

import numpy as np

from .errors import (
    Count,
    DivergenceError,
    NonNegative,
    Positive,
    ValidationError,
    check_block,
    check_fields,
    check_value,
    from_block,
)
from .model import (
    HyperParams,
    ModelInputs,
    ParameterSet,
    Structure,
    check_support,
    log_posterior_and_grad,  # not called here; kept for perfbench's tracer to rebind
    stacked_coefficients,
)
from .objective import Objective

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
    "fit_maps",
    "fit_svi",
    "draw_posterior",
    "check_variational",
    "variational_draws",
    "draw_quantiles",
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
    # x + log(1 - e^{-x}); expm1 keeps 1 - e^{-x} exact as x goes to 0
    return x + np.log(-np.expm1(-x))


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
    reg_transform: Literal["softplus", "identity"] = "softplus"
    fixed_b_lev: np.ndarray | None = None
    fixed_mu_reg: np.ndarray | None = None
    fixed_sigma_obs: Positive | None = None

    def __post_init__(self):
        check_fields(self)
        for name, size in (("fixed_b_lev", self.n_lev), ("fixed_mu_reg", self.n_channels)):
            if getattr(self, name) is not None:
                if len(getattr(self, name)) != size:
                    raise ValidationError(f"{name} has the wrong length")
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.fixed_sigma_obs is not None:
            object.__setattr__(self, "fixed_sigma_obs", float(self.fixed_sigma_obs))

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

    def _reg_forward(self, raw: np.ndarray) -> np.ndarray:
        return softplus(raw) if self.reg_transform == "softplus" else raw

    def _reg_inverse(self, x: np.ndarray) -> np.ndarray:
        return softplus_inv(x) if self.reg_transform == "softplus" else np.asarray(x, float)

    # -- conversions --------------------------------------------------------
    def unpack(self, theta: np.ndarray) -> ParameterSet:
        b_lev, b_seas, b_reg, mu_reg, sigma_obs = self.unpack_stacked(
            np.asarray(theta, dtype=float)[None])
        return ParameterSet(
            b_lev=np.array(b_lev[0], dtype=float),
            b_seas=b_seas[0],
            b_reg=b_reg[0],
            mu_reg=np.array(mu_reg[0], dtype=float),
            sigma_obs=float(sigma_obs[0]),
            allow_negative_reg=self.reg_transform == "identity",
        )

    def unpack_stacked(self, thetas: np.ndarray, knots=(slice(None),) * 3):
        """Blocks of S theta rows at once: b_lev (S, J_lev), b_seas
        (S, J_seas, Q), b_reg (S, J_reg, P), mu_reg (S, P) and sigma_obs (S,),
        fixed blocks broadcast. knots, the (trend, seasonal, regression)
        knot slices to return, narrows the first three blocks, and only the
        kept knots of b_reg are transformed. Every row must pass
        ParameterSet's support checks, which raise the same errors here.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise ValidationError(f"theta length {thetas.shape[1:]} != packing dim {self.dim}")
        S = thetas.shape[0]
        sl = self.slices()
        lev, seas, reg = knots
        if "b_lev" in sl:
            b_lev = thetas[:, sl["b_lev"]][:, lev]
        else:
            b_lev = np.broadcast_to(self.fixed_b_lev, (S, self.n_lev))[:, lev]
        b_seas = thetas[:, sl["b_seas"]].reshape(S, self.n_seas_knots, self.n_seas_cols)[:, seas]
        b_reg = self._reg_forward(
            thetas[:, sl["b_reg"]].reshape(S, self.n_reg_knots, self.n_channels)[:, reg]
        )
        if "mu_reg" in sl:
            mu_reg = self._reg_forward(thetas[:, sl["mu_reg"]])
        else:
            mu_reg = np.broadcast_to(self.fixed_mu_reg, (S, self.n_channels))
        if "ln_sigma_obs" in sl:
            sigma_obs = np.exp(thetas[:, sl["ln_sigma_obs"]][:, 0])
        else:
            sigma_obs = np.full(S, float(self.fixed_sigma_obs))
        check_support(b_reg, mu_reg, sigma_obs,
                      allow_negative_reg=self.reg_transform == "identity")
        return b_lev, b_seas, b_reg, mu_reg, sigma_obs

    def pack(self, params: ParameterSet) -> np.ndarray:
        """The inverse of unpack, up to the rounding of softplus's inverse
        and of ln sigma_obs; fixed blocks are left out."""
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
        return np.concatenate(parts)

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
        """The block layout, then every field as plain JSON."""
        doc = {"blocks": [[name, size] for name, size in self._sizes()]}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return doc

    @classmethod
    def from_description(cls, doc: dict) -> "ParameterPacking":
        return from_block(cls, doc, "packing", dropped=("blocks",))


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
    """Optimizer settings for MAP: one Adam run from initial_theta.

    The run steps through _adam, shared with SVI: moments 0.9 and 0.999,
    eps 1e-8, and a step size decaying exponentially from learning_rate to
    final_learning_rate over the iteration budget. The run stops early when
    the best value has risen by at most rel_tol (relative) over the last
    tol_window iterations; rel_tol=0 disables that plateau stop (useful when
    parameter-space precision matters more than objective precision).
    restarts must be 1 (it is kept for callers that pass restarts=1); seed
    is recorded with the fit.
    """

    learning_rate: Positive = 0.05
    final_learning_rate: Positive = 1e-6
    iterations: Count = 10000
    restarts: int = 1
    rel_tol: NonNegative = 1e-8
    tol_window: Count = 50
    seed: int = 0
    trace_every: Count = 1

    def __post_init__(self):
        check_fields(self)
        if self.restarts != 1:
            raise ValidationError("restarts must be 1: MAP runs the optimizer once")


@dataclass(frozen=True)
class SviConfig:
    """Settings for diagonal-Gaussian stochastic variational inference.

    init_log_sd caps the starting log-sds, which fit_svi takes from the
    objective's exact Hessian diagonal at the MAP point, compiled beside
    the objective (see _start_log_sd). Every step takes the gradient, with
    the control variate of that Hessian (see fit_svi); only the steps t
    with t % trace_every == 0 compute the ELBO, for the trace. The default
    budget of iterations was chosen on simulator seeds apart from the
    tests' (see README).
    """

    iterations: Count = 1400
    learning_rate: Positive = 0.02
    final_learning_rate: Positive = 1e-4
    init_log_sd: float = -2.0
    seed: int = 0
    trace_every: Count = 10

    def __post_init__(self):
        check_fields(self)


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
    # None for a library fit, which has no design recipe; saved as {}
    structure: Structure | None = None
    # trace[i] is the value at step i * trace_every (and MAP's last entry
    # that of the returned point); None for a document that predates it
    trace_every: int | None = None

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
        return draw_quantiles(self.coefficient_draws, levels)


def draw_quantiles(draws: np.ndarray, levels) -> dict[float, np.ndarray]:
    """np.quantile(draws, levels, axis=0) with its linear method, keyed by
    level, from one sort along the draw axis.

    np.quantile partitions around every order statistic the levels need;
    one full sort costs a fraction of that. The interpolation repeats
    np.quantile's arithmetic step for step, so the bands are equal bit for
    bit. A level np.quantile rejects (nan, or outside [0, 1]) raises
    ValidationError.
    """
    levels = list(levels)
    q = np.asarray(levels, dtype=float)
    for level in q:
        if not 0.0 <= level <= 1.0:  # nan fails too
            raise ValidationError(f"quantile level {float(level)!r} is not a number in [0, 1]")
    ordered = np.sort(draws, axis=0)
    n = ordered.shape[0]
    virtual = (n - 1) * q
    below = np.minimum(np.floor(virtual), n - 1)
    gamma = (virtual - below).reshape((-1,) + (1,) * (ordered.ndim - 1))
    lo = ordered[below.astype(np.intp)]
    hi = ordered[np.minimum(below + 1, n - 1).astype(np.intp)]
    diff = hi - lo
    bands = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=bands, where=gamma >= 0.5)
    np.copyto(bands, ordered[-1], where=np.isnan(ordered[-1]))
    return {float(level): band for level, band in zip(levels, bands)}


def initial_theta(inputs: ModelInputs, hp: HyperParams,
                  packing: ParameterPacking) -> np.ndarray:
    """Deterministic starting point near the data scale, packed.

    Trend knots start at the kernel-weighted local mean of the target,
    regression knots and pooled means at 0.1, seasonality at 0, and the
    noise scale at the trend-only residual sd; packing drops the blocks it
    fixes.
    """
    K = inputs.design.k_lev
    colsum = K.product(np.ones(K.n_times), transpose=True)
    colsum[colsum == 0] = 1.0
    b_lev = K.product(inputs.target, transpose=True) / colsum
    return packing.pack(ParameterSet(
        b_lev=b_lev,
        b_seas=np.zeros((packing.n_seas_knots, packing.n_seas_cols)),
        b_reg=np.full((packing.n_reg_knots, packing.n_channels), 0.1),
        mu_reg=np.full(packing.n_channels, 0.1),
        sigma_obs=max(float(np.std(inputs.target - K.product(b_lev))), 1e-3),
    ))


def _adam(x: np.ndarray, config):
    """Returns ascend(grad), whose t-th call steps x in place by Adam:
    m = 0.9 m + (1 - 0.9) grad, v = 0.999 v + (1 - 0.999) grad^2 and
    x += lr (m / (1 - 0.9^t)) / (sqrt(v / (1 - 0.999^t)) + 1e-8), lr decaying
    from config.learning_rate to config.final_learning_rate over
    config.iterations calls. m and v are the rows of one (2, n) array, so
    the decay, the (1 - beta) grad terms and the bias corrections each run
    as one call over both rows; every element still goes through the plain
    expression's operations in its order, bit for bit. 1 - 0.9 and 1 - 0.999
    (one ulp off 0.1 and 0.001) keep MAP fits as before.
    ascend.keep(entries) drops every other entry of x and of the moments
    and returns the new x, whose entries step on as they would have.
    """
    moments, work = np.zeros((2, x.size)), np.empty((2, x.size))
    # full rows, where a (2, 1) column would do: numpy takes about twice as
    # long per call over a broadcast operand as over one of the same shape
    beta = np.repeat([[0.9], [0.999]], x.size, axis=1)
    one_minus_beta = np.array([[1.0 - 0.9], [1.0 - 0.999]])
    correction = np.empty((2, 1))
    step, root = work  # the rows m / (1 - 0.9^t) and v / (1 - 0.999^t) become these
    decay = (config.final_learning_rate / config.learning_rate) ** (
        1.0 / max(config.iterations - 1, 1))
    lr, t = config.learning_rate, 0

    def ascend(grad):
        nonlocal lr, t, moments, step, root, x  # in-place operators rebind names
        t += 1
        moments *= beta
        np.multiply(grad, one_minus_beta, out=work)
        work[1] *= grad  # v's term is ((1 - 0.999) grad) grad
        moments += work
        # Python's powers, as the plain expression takes them
        correction[0, 0], correction[1, 0] = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        np.divide(moments, correction, out=work)
        np.sqrt(root, out=root)
        root += 1e-8
        step *= lr
        step /= root
        x += step
        lr *= decay

    def keep(entries):
        nonlocal x, moments, beta, work, step, root
        x, moments, beta = x[entries], moments[:, entries], beta[:, entries]
        work = np.empty_like(moments)
        step, root = work
        return x

    ascend.keep = keep
    return ascend


def fit_map(inputs: ModelInputs, hp: HyperParams, config: MapConfig | None = None,
            packing: ParameterPacking | None = None, calibration=()) -> FitResult:
    """Maximize the log posterior over theta with one Adam run from
    initial_theta, returning the best point seen. Deterministic.

    A non-finite log posterior at initial_theta raises ValidationError (the
    inputs are unusable); a non-finite value or gradient later raises
    DivergenceError. This is fit_maps of one run.
    """
    return fit_maps([(inputs, hp, config, packing, calibration)])[0]


def fit_maps(runs) -> list[FitResult]:
    """fit_map of each run (inputs, hp, config, packing, calibration), all
    in one loop; config and packing may be None, as in fit_map. The runs'
    configs must share one step-size schedule: learning_rate,
    final_learning_rate and iterations.

    Their objectives are compiled into one stack (Objective.stack), and one
    Adam steps the stacked theta. Each run keeps its own best point, trace,
    plateau stop and divergence check; when a run stops, its result is
    fixed and the stack goes on without it. Every entry's Adam update and
    every run's objective has the bits it has in a fit of that run alone,
    so each result equals fit_map of its run. A DivergenceError gives the
    0-based index of the run it is about: the one that became non-finite
    at the earliest iteration (the first in the runs' order, if several
    did at once).
    """
    runs = [(inputs, hp, config or MapConfig(), packing or default_packing(inputs), calibration)
            for inputs, hp, config, packing, calibration in runs]
    if not runs:
        raise ValidationError("fit_maps needs at least one run")
    config = runs[0][2]
    schedule = (config.learning_rate, config.final_learning_rate, config.iterations)
    if any((c.learning_rate, c.final_learning_rate, c.iterations) != schedule
           for _, _, c, _, _ in runs):
        raise ValidationError("stacked MAP runs must share learning_rate, "
                              "final_learning_rate and iterations")
    f = Objective.stack([(inputs, hp, packing, calibration)
                         for inputs, hp, _, packing, calibration in runs], include_jacobian=False)
    theta = np.empty(f.dim)
    for at, (inputs, hp, _, packing, _) in zip(f.theta_of, runs):
        theta[at] = initial_theta(inputs, hp, packing)
    # per run in the stack, in its order: its index, its best value, and
    # (trace_every, rel_tol, tol_window, trace, best value per iteration)
    live = list(range(len(runs)))
    best = [-math.inf] * len(runs)
    state = [(c.trace_every, c.rel_tol, c.tol_window, [], []) for _, _, c, _, _ in runs]
    best_theta, best_grad = theta.copy(), None
    results: list[FitResult] = [None] * len(runs)
    ascend = _adam(theta, config)

    def finish(place, stop_reason, n_iterations):
        k, (trace_every, _, _, trace, _) = live[place], state[place]
        _, hp, config, packing, _ = runs[k]
        # The trace ends at the returned point even when the last iteration
        # fell between two recorded ones.
        if (n_iterations - 1) % trace_every != 0:
            trace.append(best[place])
        at = f.theta_of[place]
        theta_k = best_theta[at]
        results[k] = FitResult(
            params=packing.unpack(theta_k), theta=theta_k, packing=packing, hyper=hp,
            trace=trace, seed=config.seed, mode="map", stop_reason=stop_reason,
            n_iterations=n_iterations, grad_norm=float(np.linalg.norm(best_grad[at])),
            trace_every=trace_every)

    for t in range(schedule[2]):
        _, grad = f(theta)
        values = f.values
        if not (all(map(math.isfinite, values)) and np.isfinite(grad).all()):
            if t == 0 and not all(map(math.isfinite, values)):
                raise ValidationError("log posterior non-finite at the initial point")
            place = next(place for place, (value, at) in enumerate(zip(values, f.theta_of))
                         if not (math.isfinite(value) and np.isfinite(grad[at]).all()))
            raise DivergenceError(f"objective became non-finite at iteration {t}",
                                  trace=state[place][3], iteration=t, index=live[place])
        improved = list(map(operator.gt, values, best))
        if all(improved):
            # grad is a fresh array each call, so keeping a reference needs no copy
            best, best_grad = values, grad
            best_theta[:] = theta
        elif any(improved):
            better = np.array(improved)[f.owner]
            best_grad = np.where(better, grad, best_grad)
            np.copyto(best_theta, theta, where=better)
            best = list(map(max, best, values))  # an equal value keeps the old
        keep = []
        for place, (value, (trace_every, rel_tol, tol_window, trace, window)) \
                in enumerate(zip(best, state)):
            if t % trace_every == 0:
                trace.append(value)
            window.append(value)
            if (rel_tol > 0 and len(window) > tol_window
                    and abs(value - window[-tol_window - 1]) <= rel_tol * max(1.0, abs(value))):
                finish(place, "rel_change", t + 1)
            else:
                keep.append(place)
        if len(keep) < len(live):  # the stopped runs leave the stack
            if not keep:
                return results
            live, best, state = ([items[place] for place in keep] for items in (live, best, state))
            f, entries = f.subset(keep)
            theta = ascend.keep(entries)
            best_theta, best_grad, grad = best_theta[entries], best_grad[entries], grad[entries]
        ascend(grad)
    for place in range(len(live)):
        finish(place, "max_iter", schedule[2])
    return results


def _start_log_sd(curvature: np.ndarray, cap: float) -> np.ndarray:
    """SVI's starting log-sds from the objective's curvature -H_ii (see
    Objective.curvature): min(-ln(-H_ii) / 2, cap), and cap wherever
    -H_ii <= 0 or is nan.

    For a Gaussian target the mean-field optimum has variances 1 / -H_ii
    exactly (Bishop, PRML 10.1.2), so the run starts near where it ends.
    """
    log_sd = np.full(curvature.size, float(cap))
    ok = curvature > 0
    log_sd[ok] = np.minimum(-0.5 * np.log(curvature[ok]), cap)
    return log_sd


# SVI steps whose noise one call draws
_DRAW_BLOCK = 64


def fit_svi(inputs: ModelInputs, hp: HyperParams, config: SviConfig | None = None,
            packing: ParameterPacking | None = None, calibration=(), *,
            init: FitResult) -> FitResult:
    """Fit a diagonal Gaussian over theta by reparameterized gradient ascent
    with a control variate.

    The mean starts at init.theta, the point of a fit_map of the same
    problem under the same packing (by default init.packing; another one
    raises ValidationError). The ELBO is E_q[f] + entropy(q) for f =
    log_posterior + log-Jacobian; at init.theta fit_svi builds H, the
    Hessian of f (Objective.hessian, once per fit), and the
    log-sds start at _start_log_sd of its diagonal, capped at
    config.init_log_sd. Each step takes one standard-normal draw eps of dim
    entries from SeedSequence(config.seed); they are drawn _DRAW_BLOCK
    steps at a time, which numpy's Generator fills in order, so the stream
    is the one a draw per step would give.

    A step at theta = mean + v, v = sd eps, ascends g - Hv for the mean and
    (g - Hv) v + diag(H) sd^2 + 1 for the log-sds, g the objective's
    gradient at theta. Hv has mean 0 and (Hv) v has mean diag(H) sd^2 under
    q, so for any fixed H the estimate is unbiased (Miller et al., NeurIPS
    2017; Geffner & Domke, NeurIPS 2020); where the posterior is nearly
    Gaussian, g - Hv hardly depends on the draw. A step needs only the
    objective's gradient; the single-draw ELBO is computed on the steps t
    with t % config.trace_every == 0, which the trace records. A non-finite
    gradient at any step, or a non-finite ELBO at a traced one, raises
    DivergenceError with the trace so far.
    """
    config = config or SviConfig()
    packing = packing or init.packing
    if packing.describe() != init.packing.describe():
        raise ValidationError("packing differs from the packing of init, the fit it starts from")
    f = Objective(inputs, hp, packing, calibration, include_jacobian=True)
    hessian = f.hessian(init.theta)
    dim = packing.dim
    # The step loop works in place on preallocated buffers, each op the one
    # the plain expression would run, so the moments are the same bit for
    # bit: state is [mean, log_sd], grad is [d/d mean, d/d log_sd].
    state = np.concatenate([init.theta, _start_log_sd(-hessian.diagonal, config.init_log_sd)])
    mean, log_sd = state[:dim], state[dim:]
    grad = np.empty(2 * dim)
    g_mean, g_log_sd = grad[:dim], grad[dim:]
    sd, v, theta, sd_term = np.empty(dim), np.empty(dim), np.empty(dim), np.empty(dim)
    block = np.empty((_DRAW_BLOCK, dim))
    draws = list(block)  # its rows, one step's eps each
    ascend = _adam(state, config)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    trace: list[float] = []
    entropy_const = 0.5 * dim * (1.0 + math.log(2.0 * math.pi))
    for t in range(config.iterations):
        row = t % _DRAW_BLOCK
        if not row:
            rng.standard_normal(out=block)
        np.exp(log_sd, out=sd)
        np.multiply(sd, draws[row], out=v)
        np.add(v, mean, out=theta)
        f.gradient(theta, out=g_mean)
        # grad = [g - Hv, (g - Hv) v + diag(H) sd^2 + 1] for g the gradient at
        # theta = mean + v, v = sd eps
        g_mean -= hessian.dot(v)
        if not np.isfinite(g_mean).all():
            raise DivergenceError(
                f"gradient became non-finite at iteration {t}", trace=trace, iteration=t
            )
        if t % config.trace_every == 0:
            elbo = f.value() + entropy_const + float(log_sd.sum())
            if not math.isfinite(elbo):
                raise DivergenceError(
                    f"ELBO became non-finite at iteration {t}", trace=trace, iteration=t
                )
            trace.append(elbo)
        np.multiply(g_mean, v, out=g_log_sd)
        np.multiply(sd, sd, out=sd_term)
        sd_term *= hessian.diagonal
        g_log_sd += sd_term
        g_log_sd += 1.0
        ascend(grad)
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
        trace_every=config.trace_every,
    )


def check_variational(fit: FitResult, n_draws: int) -> None:
    """Raise ValidationError unless fit is an SVI fit and n_draws >= 1."""
    if not fit.has_variational:
        raise ValidationError("posterior draws need an SVI fit, this one is MAP-only")
    check_value(n_draws, Count, "n_draws")


def variational_draws(fit: FitResult, n_draws: int, seed: int = 0) -> np.ndarray:
    """(n_draws, dim) theta draws mean + sd * z from an SVI fit, z one
    standard-normal block from SeedSequence(seed)."""
    check_variational(fit, n_draws)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sd = np.exp(fit.variational_log_sd)
    return fit.variational_mean + sd * rng.standard_normal((n_draws, fit.packing.dim))


def draw_posterior(fit: FitResult, k_reg, n_draws: int, seed: int = 0) -> PosteriorDraws:
    """Sample theta from the variational Gaussian and derive coefficients,
    all draws in one batched pass (coefficient_draws has shape (S, n, P))."""
    theta_draws = variational_draws(fit, n_draws, seed)
    _, _, b_reg, _, _ = fit.packing.unpack_stacked(theta_draws)
    coef_draws = stacked_coefficients(b_reg, k_reg)
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
    f = Objective(inputs, hp, packing, calibration, include_jacobian)
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
        "trace_every": fit.trace_every,
        "stop_reason": fit.stop_reason,
        "n_iterations": fit.n_iterations,
        "grad_norm": float(fit.grad_norm),
        "hyperparams": asdict(fit.hyper),
        "config": fit.config,
        # the fields as they are: asdict would deep-copy every knot time
        "structure": {} if fit.structure is None else {
            f.name: getattr(fit.structure, f.name) for f in fields(Structure)},
    }
    if fit.has_variational:
        doc["variational"] = {
            "mean": [float(v) for v in fit.variational_mean],
            "log_sd": [float(v) for v in fit.variational_log_sd],
        }
    return doc


def save_fit(fit: FitResult, path: str) -> None:
    # one json.dumps string: json.dump always runs the pure-Python encoder
    text = json.dumps(fit_document(fit), sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _theta_vector(value, key: str, dim: int) -> np.ndarray:
    check_value(value, np.ndarray, key)
    if len(value) != dim:
        raise ValidationError(f"{key} has {len(value)} values, the packing's dim is {dim}")
    return np.asarray(value, dtype=float)


def load_fit(path: str) -> FitResult:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError:  # not JSON, or not text
            doc = None
    if not isinstance(doc, dict) or doc.get("format") != "btvc-fit-v1":
        raise ValidationError(f"not a fit document: {path}")
    packing = ParameterPacking.from_description(doc.get("packing"))
    # older documents carry the retired laplace_smoothing; predict and
    # decompose read only the parameters, and a document is never refit
    hp = from_block(HyperParams, doc.get("hyperparams"), "hyperparams",
                    dropped=("laplace_smoothing",))
    theta = _theta_vector(doc.get("theta_map"), "theta_map", packing.dim)
    var = doc.get("variational")
    mean = log_sd = None
    if var is not None:
        check_block(var, "variational")
        mean = _theta_vector(var.get("mean"), "variational.mean", packing.dim)
        log_sd = _theta_vector(var.get("log_sd"), "variational.log_sd", packing.dim)
    # trace is checked as one list, not entry by entry: a MAP trace may have 10000
    for key, hint in (("trace", list), ("seed", int), ("mode", Literal["map", "svi"]),
                      ("stop_reason", str), ("n_iterations", int), ("grad_norm", float)):
        check_value(doc.get(key), hint, key)
    check_value(doc.get("trace_every"), Count | None, "trace_every")
    structure = check_block(doc.get("structure"), "structure")
    return FitResult(
        params=packing.unpack(theta if mean is None else mean),
        theta=theta,
        packing=packing,
        hyper=hp,
        trace=doc["trace"],
        seed=doc["seed"],
        mode=doc["mode"],
        stop_reason=doc["stop_reason"],
        n_iterations=doc["n_iterations"],
        grad_norm=doc["grad_norm"],
        variational_mean=mean,
        variational_log_sd=log_sd,
        config=dict(check_block(doc.get("config", {}), "config")),
        structure=from_block(Structure, structure, "structure") if structure else None,
        trace_every=doc.get("trace_every"),
    )
