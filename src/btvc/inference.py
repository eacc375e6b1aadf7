"""MAP and stochastic variational fitting on an unconstrained vector.

Constrained parameters are mapped to a flat vector theta with a fixed,
documented block order:

    1. b_lev            (identity; omitted when packing fixes it)
    2. b_seas raveled   (identity)
    3. b_reg raveled    (softplus by default, under the folded-normal
                         prior; identity for signed b_reg under a plain
                         Normal prior, the conjugate test case)
    4. mu_reg           (same transform as b_reg; omitted when fixed)
    5. ln(sigma_obs)    (omitted when fixed)

The MAP objective is log_posterior composed with unpack, with no change of
variables correction. The SVI objective adds the softplus log-Jacobian so
the variational Gaussian approximates the posterior over theta. Both are
compiled once per fit by objective.Objective; fit_maps and fit_svis fit
several runs on one stacked objective, and fit_map and fit_svi one run.

MAP ascends through an in-place Adam stepper, _adam: moments 0.9 and
0.999, eps 1e-8, and an exponentially decaying step size. SVI takes
natural-gradient steps on a Gaussian whose precision has the Hessian's
band-plus-border pattern (objective.BandFactor).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Literal

import numpy as np

from .errors import (
    Count,
    LogSdCap,
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
from .objective import BandFactor, Objective, Precision

__all__ = [
    "ParameterPacking",
    "MapConfig",
    "SviConfig",
    "FitResult",
    "PosteriorDraws",
    "default_packing",
    "initial_theta",
    "fit_map",
    "fit_maps",
    "fit_svi",
    "fit_svis",
    "draw_posterior",
    "check_variational",
    "variational_draws",
    "draw_quantiles",
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

    reg_transform picks the regression prior as well as the map: softplus
    keeps b_reg and mu_reg nonnegative under the folded-normal prior, and
    identity leaves them signed, b_reg under a plain Normal prior (see
    ParameterSet). fixed_* blocks are held constant and excluded from theta;
    the conjugate ridge check fixes the trend, mu_reg, and sigma_obs so only
    b_reg is optimized, under the identity transform.
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

    The run steps through _adam: moments 0.9 and 0.999,
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
    """Settings for stochastic variational inference (fit_svi).

    iterations caps the natural-gradient steps of a run that has not
    converged. init_log_sd caps the start's conditional log-sds: fit_svi
    starts the precision at -H at the MAP point with every pivot of its
    factor at least exp(-2 init_log_sd). Every step goes in the trace.
    The step schedule and the stop rule were chosen on simulator seeds
    apart from the tests' (see README).
    """

    iterations: Count = 50
    init_log_sd: LogSdCap = 0.0
    seed: int = 0

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
    # the marginal log-sds of q; q's precision is variational_factor's, or
    # diagonal, exp(-2 log_sd), for a fit whose document holds no factor
    variational_log_sd: np.ndarray | None = None
    variational_factor: BandFactor | None = None
    config: dict = field(default_factory=dict)
    # None for a library fit, which has no design recipe; saved as {}
    structure: Structure | None = None
    # trace[i] is the value at step i * trace_every (and MAP's last entry
    # that of the returned point); 1 for SVI, which traces every step, and
    # None for a document that predates it
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


def _prepare(kind: str, runs):
    """(the runs (inputs, hp, config, packing, calibration, init) with the defaults
    of fit_maps, kind "MAP", whose inits are None, or of fit_svis, kind "SVI"; the
    first run's config, which every run's equals but for its seed; their stack; its
    start theta)."""
    if not runs:
        raise ValidationError(f"fit_{kind.lower()}s needs at least one run")
    filled = [(inputs, hp, config or (MapConfig() if init is None else SviConfig()),
               packing or (default_packing(inputs) if init is None else init.packing),
               calibration, init) for inputs, hp, config, packing, calibration, init in runs]
    if any(init is not None and packing.describe() != init.packing.describe()
           for _, _, _, packing, _, init in filled):
        raise ValidationError("packing differs from the packing of init, the fit it starts from")
    if len({replace(c, seed=0) for _, _, c, *_ in filled}) > 1:
        raise ValidationError(f"stacked {kind} runs must share every setting but the seed")
    f = Objective.stack([(inputs, hp, packing, cal) for inputs, hp, _, packing, cal, _ in filled],
                        include_jacobian=kind == "SVI")
    theta = np.empty(f.dim)
    for at, (inputs, hp, _, packing, _, init) in zip(f.theta_of, filled):
        theta[at] = initial_theta(inputs, hp, packing) if init is None else init.theta
    return filled, filled[0][2], f, theta


def _divergence(what: str, t: int, place: int, traces, index) -> DivergenceError:
    """The DivergenceError of a stacked fit whose run at place, the first in
    the stack to do so, became non-finite at iteration t; index[place] is its run."""
    return DivergenceError(f"{what} became non-finite at iteration {t}", trace=traces[place],
                           iteration=t, index=index[place])


# a fit checks each value and gradient it steps on, so an overflow (a prior
# scale or a learning rate near 1e308) is that error, not a RuntimeWarning
_FIT_ERRSTATE = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_FIT_ERRSTATE
def fit_maps(runs) -> list[FitResult]:
    """fit_map of each run (inputs, hp, config, packing, calibration), all
    in one loop; config and packing may be None, as in fit_map. The runs'
    configs must be equal but for their seeds.

    Their objectives are compiled into one stack (Objective.stack), and one
    Adam steps the stacked theta. Each run keeps its own best point, trace,
    plateau stop and divergence check; when a run stops, its result is
    fixed and the stack goes on without it. Every entry's Adam update and
    every run's objective has the bits it has in a fit of that run alone,
    so each result equals fit_map of its run. A DivergenceError gives the
    0-based index of the run that became non-finite at the earliest
    iteration (the first in the runs' order, if several did at once).
    """
    runs, config, f, theta = _prepare("MAP", [(*run, None) for run in runs])
    trace_every, rel_tol, tol_window = config.trace_every, config.rel_tol, config.tol_window
    # per run in the stack, in its order: its index, its best value, and
    # (trace, best value per iteration)
    live = list(range(len(runs)))
    best = [-math.inf] * len(runs)
    state = [([], []) for _ in runs]
    best_theta, best_grad = theta.copy(), None
    results: list[FitResult] = [None] * len(runs)
    ascend = _adam(theta, config)

    def finish(place, stop_reason, n_iterations):
        k, (trace, _) = live[place], state[place]
        _, hp, run_config, packing, _, _ = runs[k]
        # The trace ends at the returned point even when the last iteration
        # fell between two recorded ones.
        if (n_iterations - 1) % trace_every != 0:
            trace.append(best[place])
        at = f.theta_of[place]
        theta_k = best_theta[at]
        results[k] = FitResult(
            params=packing.unpack(theta_k), theta=theta_k, packing=packing, hyper=hp,
            trace=trace, seed=run_config.seed, mode="map", stop_reason=stop_reason,
            n_iterations=n_iterations, grad_norm=float(np.linalg.norm(best_grad[at])),
            trace_every=trace_every)

    for t in range(config.iterations):
        _, grad = f(theta)
        values = f.values
        if not (all(map(math.isfinite, values)) and np.isfinite(grad).all()):
            if t == 0 and not all(map(math.isfinite, values)):
                raise ValidationError("log posterior non-finite at the initial point")
            place = next(place for place, (value, at) in enumerate(zip(values, f.theta_of))
                         if not (math.isfinite(value) and np.isfinite(grad[at]).all()))
            raise _divergence("objective", t, place, [trace for trace, _ in state], live)
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
        keep, traced = [], t % trace_every == 0
        for place, (value, (trace, window)) in enumerate(zip(best, state)):
            if traced:
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
        finish(place, "max_iter", config.iterations)
    return results


# The natural-gradient steps of fit_svis: each takes _DRAW_PAIRS antithetic
# pairs of draws; its step size is _FIRST_STEP * _STEP_DECAY^t, halved for
# each step the run has rejected; a run has converged once _CALM_STEPS
# steps in a row each moved q by a KL divergence under _KL_TOL nats.
_DRAW_PAIRS = 2
_FIRST_STEP = 0.5
_STEP_DECAY = 0.92
_KL_TOL = 0.03
_CALM_STEPS = 2
_erf = np.frompyfunc(math.erf, 1, 1)


def fit_svi(inputs: ModelInputs, hp: HyperParams, config: SviConfig | None = None,
            packing: ParameterPacking | None = None, calibration=(), *,
            init: FitResult) -> FitResult:
    """Fit a Gaussian q = N(m, P^-1) over theta whose precision P has the
    band-plus-border pattern of the objective's Hessian H (Tan & Nott,
    Stat. Comput. 2018), by natural-gradient steps (Khan & Rue, JMLR 2023).

    The mean starts at init.theta, the point of a fit_map of the same
    problem under the same packing (by default init.packing; another one
    raises ValidationError), and P at -H there, each pivot of its factor
    lifted to at least exp(-2 config.init_log_sd). The ELBO is E_q[f] +
    entropy(q) for f = log_posterior + log-Jacobian. Step t draws
    _DRAW_PAIRS antithetic pairs m +- L'^-1 eps (P = L L', eps standard
    normal from SeedSequence(config.seed)) and moves P <- (1 - b) P + b
    E_q[-H] and then m <- m + b P^-1 E_q[g], g the gradient, the
    expectations taken over the draws for all but the Laplace chains,
    whose expectations are in closed form (see _chain_terms). The step is
    kept only when the new q's P factors and its ELBO on the same draws is
    no lower; a rejected step halves b for the rest of the run. The run
    stops as converged when _CALM_STEPS steps in a row each moved q by
    KL(q_new || q_old) < _KL_TOL, whose mean part is half the step's Newton
    decrement b^2 g'P^-1 g, and otherwise after config.iterations steps.
    trace[i] is the ELBO estimate of step i, on its draws. A
    non-finite gradient or ELBO at a step's draws raises DivergenceError
    with the trace so far. This is fit_svis of one run.
    """
    return fit_svis([(inputs, hp, config, packing, calibration, init)])[0]


def _chain_terms(pattern, mean, inverse, n_chain: int):
    """(E_q of the Laplace chain terms' gradient, their curvature weights
    and their places in the pattern's flat values) at mean, for inverse
    the selected inverse of P. Each term is -|d| inv for a knot difference
    d = a'theta ~ N(mu, s^2) under q: E|d| = 2 s phi(mu / s) + mu erf(mu /
    (s sqrt 2)), whose mu-derivative is erf(mu / (s sqrt 2)) and second
    derivative 2 phi(mu / s) / s. The curvature falls on a a', inside the
    band."""
    knot, loc, inv = pattern.chain
    linked = loc < n_chain
    prev, places = loc[linked], pattern.chain_places
    var = inverse[places[0]]
    var[linked] += inverse[places[1]] - 2.0 * inverse[places[2]]
    s = np.sqrt(var)
    mu = mean[knot]
    mu[linked] -= mean[prev]
    u = mu / s
    slope = inv * _erf(u * (1.0 / math.sqrt(2.0))).astype(float)
    curvature = inv * 2.0 * np.exp(-0.5 * u * u) / (math.sqrt(2.0 * math.pi) * s)
    grad = np.bincount(prev, slope[linked], minlength=mean.size)
    grad -= np.bincount(knot, slope, minlength=mean.size)
    return grad, np.concatenate([curvature, curvature[linked], -curvature[linked],
                                 -curvature[linked]])


def _chain_subgradient(pattern, thetas, n_chain: int):
    """The mean over the rows of thetas of the Laplace chain terms'
    gradient, the subgradient 0 at a kink, as the objective takes it."""
    knot, loc, inv = pattern.chain
    linked = loc < n_chain
    d = thetas[:, knot]
    d[:, linked] -= thetas[:, loc[linked]]
    w = (np.sign(d) * inv).mean(axis=0)
    return np.bincount(loc[linked], w[linked], minlength=thetas.shape[1]) - np.bincount(
        knot, w, minlength=thetas.shape[1])


@_FIT_ERRSTATE
def fit_svis(runs) -> list[FitResult]:
    """fit_svi of each run (inputs, hp, config, packing, calibration, init),
    all in one loop on one stack, as fit_maps runs fit_map's. The runs'
    configs must be equal but for their seeds. Each run keeps its start,
    noise stream, step size, factor and trace, and leaves the stack when it
    stops, so each result equals fit_svi of its run bit for bit. A step
    checks the runs' gradients before their ELBOs."""
    runs, config, f, mean = _prepare("SVI", list(runs))
    floor = math.exp(-2.0 * config.init_log_sd)
    pattern = Precision(f)
    start = f.hessian(mean)
    minus_h = pattern.minus_hessian([start])
    index = list(range(len(runs)))
    traces = [[] for _ in runs]
    results: list[FitResult] = [None] * len(runs)
    # per run in the stack, in its order: [mean, P's flat values, factor,
    # selected inverse, halvings, calm steps, noise stream, entropy constant]
    state = []
    for at, layout, values, (_, _, c, *_) in zip(f.theta_of, pattern.layouts, pattern.slices,
                                                   runs):
        p = minus_h[values].copy()
        if not np.isfinite(p).all():
            raise ValidationError("the objective's Hessian is non-finite at the MAP point")
        factor = BandFactor(layout, p, floor)
        diagonal = layout.flat(np.arange(at.size), np.arange(at.size))
        p[diagonal] += factor.shift[layout.order]
        state.append([mean[at].copy(), p, factor, factor.selected_inverse(), 0, 0,
                      np.random.default_rng(np.random.SeedSequence(c.seed)),
                      0.5 * at.size * (1.0 + math.log(2.0 * math.pi))])

    def finish(place, stop_reason, n_iterations):
        k = index[place]
        m, _, factor, inverse, *_ = state[place]
        _, hp, run_config, packing, _, init = runs[k]
        results[k] = FitResult(
            params=packing.unpack(m), theta=init.theta, packing=packing, hyper=hp,
            trace=traces[k], trace_every=1, seed=run_config.seed, mode="svi",
            stop_reason=stop_reason, n_iterations=n_iterations, grad_norm=init.grad_norm,
            variational_mean=m,
            variational_log_sd=0.5 * np.log(factor.marginal_variance(inverse)),
            variational_factor=factor)

    n_draws = 2 * _DRAW_PAIRS
    for t in range(config.iterations):
        thetas, eps = np.empty((n_draws, f.dim)), []
        for at, (m, _, factor, _, _, _, rng, _) in zip(f.theta_of, state):
            eps.append(rng.standard_normal((_DRAW_PAIRS, at.size)))
            offsets = factor.draws(eps[-1])
            thetas[0::2, at], thetas[1::2, at] = m + offsets, m - offsets
        hessians, values = [], []
        for theta in thetas:
            hessians.append(f.hessian(theta))
            f.value()
            values.append(f.values)
        for what, bad in (("gradient", [~np.isfinite(h.gradient) for h in hessians]),
                          ("ELBO", [~np.isfinite(v)[f.owner] for v in values])):
            bad = np.any(bad, axis=0)
            if bad.any():
                place = next(k for k, at in enumerate(f.theta_of) if bad[at].any())
                raise _divergence(what, t, place, [traces[k] for k in index], index)
        stack_mean = np.empty(f.dim)
        for at, run in zip(f.theta_of, state):
            stack_mean[at] = run[0]
        chain_grad, curvature = _chain_terms(pattern, stack_mean,
                                             np.concatenate([run[3] for run in state]), f.n_chain)
        grad = np.mean([h.gradient for h in hessians], axis=0)
        grad -= _chain_subgradient(pattern, thetas, f.n_chain)
        grad += chain_grad
        target = pattern.minus_hessian(hessians)
        target += np.bincount(pattern.chain_places[3], curvature, minlength=pattern.size)

        scores = np.mean(values, axis=0)
        candidates = thetas.copy()
        steps = []
        for place, (at, layout, flat, run) in enumerate(zip(f.theta_of, pattern.layouts,
                                                            pattern.slices, state)):
            m, p, factor, _, halvings, _, _, const = run
            b = _FIRST_STEP * _STEP_DECAY ** t * 0.5 ** halvings
            p_new = (1.0 - b) * p + b * target[flat]
            try:
                new = BandFactor(layout, p_new)
            except np.linalg.LinAlgError:
                steps.append(None)
                continue
            step = new.solve(grad[at])
            m_new = m + b * step
            offsets = new.draws(eps[place])
            candidates[0::2, at], candidates[1::2, at] = m_new + offsets, m_new - offsets
            steps.append((m_new, p_new, new, b * b * float(grad[at] @ step)))
        new_values = []
        for theta in candidates:
            f.gradient(theta)
            f.value()
            new_values.append(f.values)
        new_scores = np.mean(new_values, axis=0)

        keep = []
        for place, (run, step, score, new_score) in enumerate(zip(state, steps, scores,
                                                                   new_scores)):
            k, const = index[place], run[7]
            score += const - 0.5 * run[2].logdet
            if step is not None:
                new_score += const - 0.5 * step[2].logdet
            if step is not None and new_score >= score:
                m_new, p_new, new, newton = step
                new_inverse = new.selected_inverse()
                # KL(q_new || q_old), its mean part by the new precision
                kl = 0.5 * (float(np.sum(run[1] * new_inverse * pattern.layouts[place].weights))
                            - m_new.size + new.logdet - run[2].logdet + newton)
                run[:4] = m_new, p_new, new, new_inverse
                run[5] = run[5] + 1 if kl < _KL_TOL else 0
                score = new_score
            else:
                run[4] += 1
                run[5] = 0
            traces[k].append(score)
            if run[5] >= _CALM_STEPS:
                finish(place, "converged", t + 1)
            else:
                keep.append(place)
        if len(keep) < len(state):  # the stopped runs leave the stack
            if not keep:
                return results
            index, state = [index[place] for place in keep], [state[place] for place in keep]
            f, _ = f.subset(keep)
            pattern = Precision(f)
    for place in range(len(state)):
        finish(place, "max_iter", config.iterations)
    return results


def check_variational(fit: FitResult, n_draws: int) -> None:
    """Raise ValidationError unless fit is an SVI fit and n_draws >= 1."""
    if not fit.has_variational:
        raise ValidationError("posterior draws need an SVI fit, this one is MAP-only")
    check_value(n_draws, Count, "n_draws")


def variational_draws(fit: FitResult, n_draws: int, seed: int = 0, entries=None) -> np.ndarray:
    """(n_draws, dim) theta draws mean + L'^-1 z from an SVI fit, for P = L
    L' its precision's factor and z one standard-normal block from
    SeedSequence(seed); mean + sd * z for a fit with no factor. Given the
    theta entries the caller reads, only the factor's blocks that hold them
    are solved (BandFactor.draws): those entries have the bits of the full
    draws, and the entries before the first such block are the mean."""
    check_variational(fit, n_draws)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal((n_draws, fit.packing.dim))
    if fit.variational_factor is None:
        return fit.variational_mean + np.exp(fit.variational_log_sd) * z
    return fit.variational_mean + fit.variational_factor.draws(z, entries)


def draw_posterior(fit: FitResult, k_reg, n_draws: int, seed: int = 0) -> PosteriorDraws:
    """Sample theta from the variational Gaussian and derive coefficients,
    all draws in one batched pass (coefficient_draws has shape (S, n, P))."""
    theta_draws = variational_draws(fit, n_draws, seed)
    _, _, b_reg, _, _ = fit.packing.unpack_stacked(theta_draws)
    coef_draws = stacked_coefficients(b_reg, k_reg)
    return PosteriorDraws(
        theta_draws=theta_draws, coefficient_draws=coef_draws, packing=fit.packing
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
        if fit.variational_factor is not None:
            doc["variational"]["factor"] = fit.variational_factor.document()
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
    # older documents carry the retired laplace_smoothing and
    # gaussian_reg_prior (the packing's transform picks the regression prior);
    # predict and decompose read only the parameters, and a document is never refit
    hp = from_block(HyperParams, doc.get("hyperparams"), "hyperparams",
                    dropped=("laplace_smoothing", "gaussian_reg_prior"))
    theta = _theta_vector(doc.get("theta_map"), "theta_map", packing.dim)
    var = doc.get("variational")
    mean = log_sd = factor = None
    if var is not None:
        check_block(var, "variational")
        mean = _theta_vector(var.get("mean"), "variational.mean", packing.dim)
        log_sd = _theta_vector(var.get("log_sd"), "variational.log_sd", packing.dim)
        # a document from before the factor draws from the diagonal precision
        if "factor" in var:
            factor = BandFactor.from_document(var["factor"], packing.dim)
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
        variational_factor=factor,
        config=dict(check_block(doc.get("config", {}), "config")),
        structure=from_block(Structure, structure, "structure") if structure else None,
        trace_every=doc.get("trace_every"),
    )
