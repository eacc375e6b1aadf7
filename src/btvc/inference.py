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

MAP and SVI both ascend through one in-place Adam stepper, _adam: moments
0.9 and 0.999, eps 1e-8, and an exponentially decaying step size.
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
    check_dims,
    check_support,
    log_posterior_and_grad,  # not called here; kept for perfbench's tracer to rebind
    stacked_coefficients,
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

    def _reg_forward(self, raw: np.ndarray) -> np.ndarray:
        return softplus(raw) if self.reg_transform == "softplus" else raw

    def _reg_inverse(self, x: np.ndarray) -> np.ndarray:
        return softplus_inv(x) if self.reg_transform == "softplus" else np.asarray(x, float)

    # -- conversions --------------------------------------------------------
    def unpack(self, theta: np.ndarray) -> ParameterSet:
        theta = np.asarray(theta, dtype=float)
        b_lev, b_seas, b_reg, mu_reg, sigma_obs = self.unpack_stacked(theta[None])
        params = ParameterSet(
            b_lev=np.array(b_lev[0], dtype=float),
            b_seas=b_seas[0],
            b_reg=b_reg[0],
            mu_reg=np.array(mu_reg[0], dtype=float),
            sigma_obs=float(sigma_obs[0]),
            allow_negative_reg=self.reg_transform == "identity",
        )
        # stash the source vector so pack() can return it bit-exactly
        object.__setattr__(params, "_theta_cache", theta.copy())
        return params

    def unpack_stacked(self, thetas: np.ndarray):
        """Blocks of S theta rows at once: b_lev (S, J_lev), b_seas
        (S, J_seas, Q), b_reg (S, J_reg, P), mu_reg (S, P) and sigma_obs (S,),
        fixed blocks broadcast. Every row must pass ParameterSet's support
        checks, which raise the same errors here.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise ValidationError(f"theta length {thetas.shape[1:]} != packing dim {self.dim}")
        S = thetas.shape[0]
        sl = self.slices()
        if "b_lev" in sl:
            b_lev = thetas[:, sl["b_lev"]]
        else:
            b_lev = np.broadcast_to(self.fixed_b_lev, (S, self.n_lev))
        b_seas = thetas[:, sl["b_seas"]].reshape(S, self.n_seas_knots, self.n_seas_cols)
        b_reg = self._reg_forward(
            thetas[:, sl["b_reg"]].reshape(S, self.n_reg_knots, self.n_channels)
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

    learning_rate: float = 0.05
    final_learning_rate: float = 1e-6
    iterations: int = 10000
    restarts: int = 1
    rel_tol: float = 1e-8
    tol_window: int = 50
    seed: int = 0
    trace_every: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0 or self.final_learning_rate <= 0:
            raise ValidationError("learning rates must be > 0")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if self.restarts != 1:
            raise ValidationError("restarts must be 1: MAP runs the optimizer once")
        if self.rel_tol < 0:
            raise ValidationError("rel_tol must be >= 0")
        if self.tol_window < 1:
            raise ValidationError("tol_window must be >= 1")
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
        return draw_quantiles(self.coefficient_draws, levels)


def draw_quantiles(draws: np.ndarray, levels) -> dict[float, np.ndarray]:
    """np.quantile(draws, levels, axis=0) with its linear method, keyed by
    level, from one sort along the draw axis.

    np.quantile partitions around every order statistic the levels need;
    one full sort costs a fraction of that. The interpolation repeats
    np.quantile's arithmetic step for step, so the bands are equal bit for
    bit.
    """
    levels = list(levels)
    q = np.asarray(levels, dtype=float)
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


_GRAM_BLOCK_ROWS = 256
_GRAM_WEIGHT_FLOOR = math.sqrt(np.finfo(float).tiny)


def _gram(design, r0: np.ndarray, with_level: bool):
    """G = Z'Z and c = Z'r0, where Z = [K_lev | K_seas (x) S | K_reg (x) X]
    maps the knots [b_lev, b_seas, b_reg], raveled as theta holds them, to
    the fitted values (K_lev's columns only when with_level).

    Z' is built _GRAM_BLOCK_ROWS time rows at a time, each block holding
    only the knots whose kernel columns are nonzero on its rows (two per
    level kernel row), so G is the one dim^2-sized array and the build grows
    with T times the block height squared, not with T dim^2. Gaussian
    weights below sqrt(tiny) are left out: every product through one is
    below tiny times its partner, so far below the rounding of G's entries,
    and such products are mostly subnormal, which slows the block products
    several-fold.
    """
    parts = [(design.k_seas.weights, np.ascontiguousarray(design.seasonal.T)),
             (design.k_reg.weights, np.ascontiguousarray(design.regressors.T))]
    if with_level:
        parts.insert(0, (design.k_lev.weights, np.ones((1, design.n_times))))
    offsets = np.cumsum([0] + [w.shape[1] * x.shape[0] for w, x in parts])
    G = np.zeros((offsets[-1], offsets[-1]))
    c = np.zeros(offsets[-1])
    for start in range(0, r0.size, _GRAM_BLOCK_ROWS):
        rows = slice(start, start + _GRAM_BLOCK_ROWS)
        blocks, spans, height = [], [], 0
        for (w, x), offset in zip(parts, offsets):
            kept = w[rows] >= _GRAM_WEIGHT_FLOOR
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
        g_block, c_block = zt @ zt.T, zt @ r0[rows]
        for into, local in spans:
            c[into] += c_block[local]
            for into_col, local_col in spans:
                G[into, into_col] += g_block[local, local_col]
    return G, c


# G entries one np.dot streams in about the time its fixed cost per call
# takes: a merge of two row blocks that stores fewer extra entries than this
# saves time
_GRAM_CALL_ENTRIES = 8192


def _gram_blocks(design, G: np.ndarray, with_level: bool):
    """G's rows in time order, cut into blocks that keep only the columns
    holding their nonzeros: (order, blocks), each block (rows, cols, array)
    with array = G[order][:, order][rows, cols], contiguous.

    The knots [b_lev, b_seas, b_reg] of _gram are ordered by their knot
    times, where their kernel columns peak (ties keep theta's order), so each
    knot couples only with its neighbours in that order and G is
    block-banded.
    Passes over the blocks merge adjacent pairs whenever the merged block
    stores fewer than _GRAM_CALL_ENTRIES entries more than the two, until no
    pair merges. The first blocks are as tall as the first passes would make
    them anyway: two blocks of that height store fewer entries than that in
    all, even at G's full width. Every nonzero of G is
    in exactly one block, so G @ beta over the blocks changes only by
    rounding; a structure whose G is small enough ends as one block.
    """
    parts = [(design.k_seas, design.seasonal.shape[1]),
             (design.k_reg, design.regressors.shape[1])]
    if with_level:
        parts.insert(0, (design.k_lev, 1))
    times = np.concatenate([np.repeat(k.grid.knot_times, width) for k, width in parts])
    order = np.argsort(times, kind="stable")
    dim = order.size
    nonzero = (G != 0).take(order, axis=0).take(order, axis=1)
    filled = nonzero.any(axis=1)
    # a row's nonzero column span [first, last); dim, 0 for an all-zero row
    first = np.where(filled, nonzero.argmax(axis=1), dim)
    last = np.where(filled, dim - nonzero[:, ::-1].argmax(axis=1), 0)
    height = max(_GRAM_CALL_ENTRIES // (2 * max(dim, 1)), 1)
    starts = np.arange(0, dim, height)
    spans = list(zip(starts.tolist(), (starts + height).clip(max=dim).tolist(),
                     np.minimum.reduceat(first, starts).tolist(),
                     np.maximum.reduceat(last, starts).tolist()))

    def size(span):
        start, stop, lo, hi = span
        return (stop - start) * max(hi - lo, 0)

    merging = True
    while merging:
        merged, i = [], 0
        while i < len(spans):
            if i + 1 < len(spans):
                (start, _, lo, hi), (_, stop, lo2, hi2) = spans[i], spans[i + 1]
                both = (start, stop, min(lo, lo2), max(hi, hi2))
                if size(both) - size(spans[i]) - size(spans[i + 1]) < _GRAM_CALL_ENTRIES:
                    merged.append(both)
                    i += 2
                    continue
            merged.append(spans[i])
            i += 1
        merging = len(merged) < len(spans)
        spans = merged
    blocks = []
    for start, stop, lo, hi in spans:  # lo > hi: an all-zero block, no columns
        blocks.append((slice(start, stop), slice(lo, hi),
                       G[np.ix_(order[start:stop], order[lo:hi])]))
    return order, blocks


def _objective(inputs, hp, packing, calibration, include_jacobian):
    """Compile the fit objective of one structure: theta -> (value, gradient).

    The value is log_posterior_and_grad at packing.unpack(theta), its
    gradient chained to theta as packing.chain_grad does, plus the softplus
    log-Jacobian when include_jacobian; that composition stays the readable
    reference this one is tested against. Everything that depends only on
    the structure is done here once, so a call builds no ParameterSet or
    ParamGradient and runs no dimension checks.

    Every prior term is a density of one entry around a location. A call
    writes the entries into one buffer t = [chain knots | x | location
    slots]: the chain knots [b_lev, b_seas] are copied from theta, x =
    softplus(raw) of the [b_reg, mu_reg] block is written in place (x = raw
    under the identity transform), and the constant slots, written here
    once, hold 0 (the location of each chain's first knot), mu_pool, and
    the fixed mu_reg when packing fixes it. One index loc_of gives each
    entry its location slot: the previous trend knot, the same seasonal
    column one knot back, the channel's mu_reg, or mu_pool; inv holds each
    entry's 1/scale. A call gathers t[loc_of] once, and the location
    gradients of every term go back through one np.bincount over loc_of.
    The buffer belongs to the returned function, so calls to one compiled
    objective must not run concurrently; each still returns a fresh
    gradient array and depends on its theta alone.

    The chain knots take Laplace terms |t - loc| inv. The x entries take
    folded-normal terms: writing z = (x - loc) inv and a = 2 x loc inv^2,
    each is the Gaussian -z^2/2 plus the mirror image's log(1 + e^-a); the
    Gaussian test prior on b_reg is the same term without the mirror. Both
    the softplus and the mirror term come from np.logaddexp, and their
    derivatives from one exp each: x = logaddexp(0, raw) has derivative
    sigmoid(raw) = e^(raw - x), and the mirror term logaddexp(0, -a) has
    derivative -sigmoid(-a) = -e^(-a - logaddexp(0, -a)).

    The fitted values are Z beta for the linear knots beta = [b_lev, b_seas,
    b_reg] (see _gram), the buffer's leading entries, so under Gaussian
    noise the residual sum of squares is the quadratic s0 - 2 beta'c +
    beta'G beta with G = Z'Z, c = Z'r0 and s0 = r0'r0 built here once; a
    call does one G @ beta in place of the kernel products, over the row
    blocks of _gram_blocks with beta gathered from t, and c, in the knots'
    time order. r0 is the target less the fixed trend, or, when b_lev
    is free, less the target's mean, which the level knots absorb exactly
    since every level kernel row sums to 1; centering keeps s0 small, so
    the quadratic loses few digits to cancellation. Student-t noise is not
    quadratic in beta and goes through the kernel products.

    Calibration windows are quadratic in the regression knots under either
    noise family: a channel's windows sum to h'b - b'Hb/2 plus a constant,
    over the knots b their kernel rows reach. H and h are built here, so a
    call does one H @ b per windowed channel in place of two products with
    each window's kernel rows.
    """
    design = inputs.design
    check_dims(packing.unpack(np.zeros(packing.dim)), design)
    y = inputs.target
    n = y.size
    k_lev, k_seas, k_reg = design.k_lev.weights, design.k_seas.weights, design.k_reg.weights
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
    if not lev_free:
        const += _laplace_chain(packing.fixed_b_lev, hp.init_scale_lev, hp.sigma_lev, delta)[0]
        trend_fixed = k_lev @ packing.fixed_b_lev
    fixed_mu = np.zeros(0) if mu_free else packing.fixed_mu_reg
    if not mu_free and n_channels:
        if check_support and fixed_mu.min() < 0:
            raise ValidationError("mu_reg outside folded-normal support")
        const += float(_folded_normal_terms(
            fixed_mu, np.full(n_channels, hp.mu_pool), hp.sigma_pool)[0].sum())

    # the buffer and its views; t[reg_end:] holds 0, mu_pool, then fixed mu_reg
    t = np.concatenate((np.zeros(reg_end + 1), [hp.mu_pool], fixed_mu))
    t_prior, t_chain, t_x = t[:reg_end], t[:n_chain], t[n_chain:reg_end]
    b_reg = t[n_chain:n_chain + n_b].reshape(n_reg_knots, n_channels)
    # a knot's predecessor is 1 place back in the trend, n_cols in the
    # seasonal block; one that falls before its block's start is a chain
    # head, located at the 0 slot
    loc_chain = np.arange(n_chain) - np.repeat([1, n_cols], [n_lev, n_chain - n_lev])
    loc_chain[loc_chain < np.repeat([0, n_lev], [n_lev, n_chain - n_lev])] = reg_end
    mu_slot = n_chain + n_b if mu_free else reg_end + 2
    loc_of = np.concatenate((loc_chain, mu_slot + np.tile(np.arange(n_channels), n_reg_knots),
                             np.full(n_mu, reg_end + 1))).astype(np.intp)
    scale = np.concatenate((np.full(n_lev, hp.sigma_lev), np.full(n_chain - n_lev, hp.sigma_seas),
                            np.full(n_b, hp.sigma_reg), np.full(n_mu, hp.sigma_pool)))
    if lev_free:
        scale[0] = hp.init_scale_lev
    const -= float(np.log(2.0 * scale[:n_chain]).sum())
    const -= float(np.sum(np.log(scale[n_chain:]) + 0.5 * LOG_2PI))
    inv = 1.0 / scale
    inv_chain, inv_x = inv[:n_chain], inv[n_chain:]
    # entries from `folded` on take the mirror term
    folded = n_chain + (n_b if hp.gaussian_reg_prior else 0)
    t_folded = t[folded:reg_end]
    neg_two_inv2 = -2.0 * inv[folded:] * inv[folded:]

    # A window with weight w adds -(w / 2 sd^2) |K_rows b - mean|^2, so
    # H = (w / sd^2) K_rows'K_rows and h = (w mean / sd^2) K_rows'1, summed
    # per channel over the knots its windows reach: weights below sqrt(tiny)
    # are left out as in _gram, so H grows with the reach, not with J_reg.
    by_channel: dict[int, list] = {}
    for term in calibration:
        by_channel.setdefault(term.channel_index, []).append(term)
    windows = []
    for channel, terms in by_channel.items():
        rows = [k_reg[term.start0:term.end0 + 1] for term in terms]
        reach = np.flatnonzero(np.vstack(rows).max(axis=0) >= _GRAM_WEIGHT_FLOOR)
        knots = slice(reach[0], reach[-1] + 1)
        H = h = 0.0
        for term, k_rows in zip(terms, rows):
            k_rows = k_rows[:, knots]
            w = term.weight / (term.sd * term.sd)
            H = H + w * (k_rows.T @ k_rows)
            h = h + w * term.mean * k_rows.sum(axis=0)
            const -= k_rows.shape[0] * (term.weight * (math.log(term.sd) + 0.5 * LOG_2PI)
                                        + 0.5 * w * term.mean * term.mean)
        # b is a view of the buffer's knots
        windows.append((knots, channel, H, h, b_reg[knots, channel]))

    if not sigma_free:  # (ln sigma, sigma); __post_init__ keeps it > 0
        sigma_fixed = (math.log(packing.fixed_sigma_obs), float(packing.fixed_sigma_obs))
    nu = hp.noise_df
    if nu is None:
        const -= 0.5 * n * LOG_2PI
        y_mean = float(y.mean()) if lev_free else 0.0
        r0 = y - y_mean if lev_free else y - trend_fixed
        gram, r0_gram = _gram(design, r0, lev_free)
        order, gram_blocks = _gram_blocks(design, gram, lev_free)
        r0_gram = r0_gram[order]
        beta_shift = np.where(order < n_lev, y_mean, 0.0)
        s0 = float(r0 @ r0)
    else:
        t_const = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
                   - 0.5 * math.log(nu * math.pi))
        const += n * t_const
        b_seas = t[n_lev:n_chain].reshape(n_seas_knots, n_cols)

    def f(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (dim,):
            raise ValidationError(f"theta length {theta.shape} != packing dim {dim}")
        grad = np.empty(dim)

        raw = theta[n_chain:reg_end]
        if softplus_reg:
            t_chain[:] = theta[:n_chain]
            np.logaddexp(0.0, raw, out=t_x)  # softplus, as unpack computes it
            log_sig = raw - t_x  # ln sigmoid(raw)
            dx_draw = np.exp(log_sig)
        else:
            t_prior[:] = theta[:reg_end]
            if check_support:
                if n_b and t_x[:n_b].min() < 0:
                    raise ValidationError("b_reg outside folded-normal support")
                if n_mu and t_x[n_b:].min() < 0:
                    raise ValidationError("mu_reg outside folded-normal support")

        # every prior entry against its location
        loc = t[loc_of]
        diff = t_prior - loc
        absd, sgn = _abs_and_dsign(diff[:n_chain], delta)
        value = const - float(absd @ inv_chain)
        diff[:n_chain] = sgn
        z = diff[n_chain:]
        z *= inv_x
        neg_a = loc[folded:] * t_folded
        neg_a *= neg_two_inv2
        mirror_log = np.logaddexp(0.0, neg_a)  # log(1 + e^-a)
        value += float(mirror_log.sum() - 0.5 * (z @ z))
        # the mirror term's d/dx is c loc and its d/dloc is c x, for
        # c = -2 inv^2 sigmoid(-a) = -2 inv^2 e^(-a - log(1 + e^-a))
        c = np.exp(neg_a - mirror_log)
        c *= neg_two_inv2
        # diff becomes d value / d loc: [sign | z] inv, plus the mirror's
        diff *= inv
        g = grad[:reg_end]
        np.negative(diff, out=g)
        g[folded:] += c * loc[folded:]
        diff[folded:] += c * t_folded
        g += np.bincount(loc_of, weights=diff, minlength=t.size)[:reg_end]

        # a sigma that underflows (or whose square does) gives a non-finite
        # value, not an error
        if sigma_free:
            ln_sigma, sigma = float(theta[-1]), float(np.exp(theta[-1]))
        else:
            ln_sigma, sigma = sigma_fixed
        g_x = grad[n_chain:reg_end]
        if nu is None:
            # likelihood through the Gram quadratic in time order; r = Z'resid
            beta = t[order]
            beta -= beta_shift
            r = np.empty_like(beta)
            for rows, cols, block in gram_blocks:
                np.dot(block, beta[cols], out=r[rows])
            np.subtract(r0_gram, r, out=r)
            ss = s0 - float(beta @ (r + r0_gram))
            var = sigma * sigma
            inv_var = 1.0 / var if var else math.inf
            value += -n * ln_sigma - 0.5 * ss * inv_var
            dlnsig = ss * inv_var - n
            r *= inv_var
            # beta's entries lead t and theta, in theta's order
            grad[order] += r
        else:
            # likelihood through the three kernel products
            fitted = k_lev @ t[:n_lev] if lev_free else trend_fixed
            fitted = (fitted + np.einsum("tq,tq->t", seasonal, k_seas @ b_seas)
                      + np.einsum("tp,tp->t", regressors, k_reg @ b_reg))
            resid = y - fitted
            nu_var = nu * sigma * sigma
            sq = resid * resid
            denom = nu_var + sq
            value += -n * ln_sigma - 0.5 * (nu + 1.0) * float(np.log1p(sq / nu_var).sum())
            dfit = (nu + 1.0) * resid / denom
            dlnsig = (nu + 1.0) * float((sq / denom).sum()) - n
            if lev_free:
                grad[:n_lev] += k_lev.T @ dfit
            grad[n_lev:n_chain] += (k_seas.T @ (dfit[:, None] * seasonal)).ravel()
            g_x[:n_b] += (k_reg.T @ (dfit[:, None] * regressors)).ravel()

        g_reg = g_x[:n_b].reshape(n_reg_knots, n_channels)
        for knots, channel, H, h, b in windows:
            g_b = h - H @ b
            value += 0.5 * float(b @ (h + g_b))  # h'b - b'Hb/2
            g_reg[knots, channel] += g_b

        if softplus_reg:
            g_x *= dx_draw
            if include_jacobian:
                # ln sigmoid(raw), whose derivative is sigmoid(-raw) = e^-x
                value += float(log_sig.sum())
                g_x += np.exp(-t_x)
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


def _adam(x: np.ndarray, config):
    """Returns ascend(grad), whose t-th call steps x in place by Adam:
    m = 0.9 m + (1 - 0.9) grad, v = 0.999 v + (1 - 0.999) grad^2 and
    x += lr (m / (1 - 0.9^t)) / (sqrt(v / (1 - 0.999^t)) + 1e-8), lr decaying
    from config.learning_rate to config.final_learning_rate over
    config.iterations calls. Each op is the plain expression's, bit for bit;
    1 - 0.9 and 1 - 0.999 (one ulp off 0.1 and 0.001) keep MAP fits as before.
    """
    m, v = np.zeros(x.size), np.zeros(x.size)
    step, work = np.empty(x.size), np.empty(x.size)
    decay = (config.final_learning_rate / config.learning_rate) ** (
        1.0 / max(config.iterations - 1, 1))
    lr, t = config.learning_rate, 0

    def ascend(grad):
        nonlocal lr, t, m, v, step, work, x  # in-place operators rebind names
        t += 1
        m *= 0.9
        np.multiply(grad, 1.0 - 0.9, out=work)
        m += work
        v *= 0.999
        np.multiply(grad, 1.0 - 0.999, out=work)
        work *= grad
        v += work
        np.divide(v, 1.0 - 0.999 ** t, out=work)
        np.sqrt(work, out=work)
        work += 1e-8
        np.divide(m, 1.0 - 0.9 ** t, out=step)
        step *= lr
        step /= work
        x += step
        lr *= decay

    return ascend


def fit_map(inputs: ModelInputs, hp: HyperParams, config: MapConfig | None = None,
            packing: ParameterPacking | None = None, calibration=(),
            run_config: dict | None = None) -> FitResult:
    """Maximize the log posterior over theta with one Adam run from
    initial_theta, returning the best point seen. Deterministic.

    A non-finite log posterior at initial_theta raises ValidationError (the
    inputs are unusable); a non-finite value or gradient later raises
    DivergenceError.
    """
    config = config or MapConfig()
    packing = packing or default_packing(inputs)
    f = _objective(inputs, hp, packing, calibration, include_jacobian=False)
    theta = initial_theta(inputs, hp, packing)
    best_theta = theta.copy()
    ascend = _adam(theta, config)
    best_value, best_grad = -np.inf, None
    trace: list[float] = []
    window: list[float] = []
    stop_reason, n_iterations = "max_iter", config.iterations
    for t in range(config.iterations):
        value, grad = f(theta)
        if t == 0 and not math.isfinite(value):
            raise ValidationError("log posterior non-finite at the initial point")
        if not (math.isfinite(value) and np.isfinite(grad).all()):
            raise DivergenceError(
                f"objective became non-finite at iteration {t}",
                trace=trace, iteration=t,
            )
        # grad is a fresh array each call, so keeping a reference needs no copy
        if value > best_value:
            best_value, best_grad = value, grad
            best_theta[:] = theta
        if t % config.trace_every == 0:
            trace.append(best_value)
        window.append(best_value)
        if config.rel_tol > 0 and len(window) > config.tol_window:
            old = window[-config.tol_window - 1]
            if abs(best_value - old) <= config.rel_tol * max(1.0, abs(best_value)):
                stop_reason, n_iterations = "rel_change", t + 1
                break
        ascend(grad)
    # The trace ends at the returned point even when the last iteration
    # fell between two recorded ones.
    if (n_iterations - 1) % config.trace_every != 0:
        trace.append(best_value)
    return FitResult(
        params=packing.unpack(best_theta),
        theta=best_theta,
        packing=packing,
        hyper=hp,
        trace=trace,
        seed=config.seed,
        mode="map",
        stop_reason=stop_reason,
        n_iterations=n_iterations,
        grad_norm=float(np.linalg.norm(best_grad)),
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
    k = config.samples_per_step
    # The step loop works in place on preallocated buffers, each op the one
    # the plain expression would run, so the moments are the same bit for
    # bit: state is [mean, log_sd], grad is [d/d mean, d/d log_sd].
    state = np.concatenate([init.theta, np.full(dim, config.init_log_sd)])
    mean, log_sd = state[:dim], state[dim:]
    grad = np.empty(2 * dim)
    g_mean, g_log_sd = grad[:dim], grad[dim:]
    eps, sd, theta_s = np.empty((k, dim)), np.empty(dim), np.empty(dim)
    ascend = _adam(state, config)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    trace: list[float] = []
    entropy_const = 0.5 * dim * (1.0 + math.log(2.0 * math.pi))
    for t in range(config.iterations):
        rng.standard_normal(out=eps)
        np.exp(log_sd, out=sd)
        value_sum = 0.0
        for s, eps_s in enumerate(eps):
            np.multiply(sd, eps_s, out=theta_s)
            theta_s += mean
            val_s, grad_s = f(theta_s)
            value_sum += val_s
            if s:
                g_mean += grad_s
                grad_s *= eps_s
                g_log_sd += grad_s
            else:  # the first sample starts the sums
                g_mean[:] = grad_s
                np.multiply(grad_s, eps_s, out=g_log_sd)
        elbo = value_sum / k + entropy_const + float(log_sd.sum())
        if not math.isfinite(elbo):
            raise DivergenceError(
                f"ELBO became non-finite at iteration {t}", trace=trace, iteration=t
            )
        if t % config.trace_every == 0:
            trace.append(elbo)
        # grad = [sum(grad_s) / k, (sum(grad_s * eps_s) / k) * sd + 1]
        if k > 1:
            grad /= k
        g_log_sd *= sd
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
        config=dict(run_config or {}),
    )


def check_variational(fit: FitResult, n_draws: int) -> None:
    """Raise ValidationError unless fit is an SVI fit and n_draws >= 1."""
    if not fit.has_variational:
        raise ValidationError("posterior draws need an SVI fit, this one is MAP-only")
    if n_draws < 1:
        raise ValidationError("n_draws must be >= 1")


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
