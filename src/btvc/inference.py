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
from .kernels import TILE_ROWS, WEIGHT_FLOOR
from .model import (
    LOG_2PI,
    HyperParams,
    ModelInputs,
    ParameterSet,
    Structure,
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
    the objective (see _start_log_sd).
    """

    iterations: Count = 2000
    learning_rate: Positive = 0.02
    final_learning_rate: Positive = 1e-4
    init_log_sd: float = -2.0
    seed: int = 0
    trace_every: Count = 1

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


# G entries one np.dot streams in about the time of its fixed cost per call:
# a merge of two row blocks storing fewer extra entries than this saves time
_GRAM_CALL_ENTRIES = 8192


def _design_tiles(design, with_level: bool):
    """(order, tiles) of the map Z = [K_lev | K_seas (x) S | K_reg (x) X]
    from the knots [b_lev, b_seas, b_reg] as theta holds them (b_lev only
    when with_level) to the fitted values. order sorts the knots by knot
    time (ties keep theta's order), where each knot couples only with its
    neighbours. tiles is a generator of (rows, at, zt) over blocks of
    TILE_ROWS time rows: zt is Z[rows]' built from the kernels' bands over
    the knots these rows reach, its row i the knot at place at[i] of the
    time order (no place twice). Weights below WEIGHT_FLOOR are left out
    (kernel_matrix drops them already; a hand-built band may hold them):
    each is under half an ulp of its row's sum of 1, and far from its knot
    it may be subnormal, which is slow.
    """
    parts = [(design.k_seas, np.ascontiguousarray(design.seasonal.T)),
             (design.k_reg, np.ascontiguousarray(design.regressors.T))]
    if with_level:
        parts.insert(0, (design.k_lev, np.ones((1, design.n_times))))
    offsets = np.cumsum([0] + [k.grid.n_knots * x.shape[0] for k, x in parts])
    order = np.argsort(np.concatenate([np.repeat(k.grid.knot_times, x.shape[0])
                                       for k, x in parts]), kind="stable")
    place = np.argsort(order)  # each theta knot's place in time order

    def tiles():
        for start in range(0, design.n_times, TILE_ROWS):
            rows = slice(start, start + TILE_ROWS)
            used, at = [], []
            for (k, x), offset in zip(parts, offsets):
                k_lo, w = k.tile(rows)
                kept = w >= WEIGHT_FLOOR
                cols = np.flatnonzero(kept.any(axis=0))
                lo, hi, width = cols[0], cols[-1] + 1, x.shape[0]
                used.append((np.where(kept[:, lo:hi], w[:, lo:hi], 0.0).T, x[:, rows]))
                at.append(place[offset + (k_lo + lo) * width:offset + (k_lo + hi) * width])
            at = np.concatenate(at)
            if not at.size:  # Z has no columns
                continue
            zt, top = np.empty((at.size, used[0][0].shape[1])), 0
            for w, x in used:  # row j * width + q of zt is w[j] * x[q]
                out = zt[top:top + w.shape[0] * x.shape[0]].reshape(w.shape[0], *x.shape)
                np.multiply(w[:, None], x[None], out=out)
                top += out.shape[0] * out.shape[1]
            yield rows, at, zt

    return order, tiles()


def _gram(design, r0: np.ndarray, with_level: bool):
    """(order, blocks, c) for G = Z'Z and c = Z'r0, with Z and order those of
    _design_tiles, whose tiles are read once: c = (Z'r0)[order], and each
    block (rows, cols, array) holds G[order][:, order][rows, cols],
    contiguous. A row's columns run from the first to the last nonzero of
    its tiles' products. Passes over the rows merge adjacent blocks while a
    merge stores fewer than _GRAM_CALL_ENTRIES extra entries, from blocks as
    tall as the first passes would make them. The tile products are added
    into the blocks in tile order, so each entry is the sum a dense G built
    tile by tile holds.
    """
    order, tiles = _design_tiles(design, with_level)
    dim = order.size
    c = np.zeros(dim)
    # a row's nonzero column span [first, last); dim, 0 for an all-zero row
    first, last, products = np.full(dim, dim), np.zeros(dim, dtype=np.intp), []
    for rows, at, zt in tiles:
        c[at] += zt @ r0[rows]
        g = zt @ zt.T
        first[at] = np.minimum(first[at], np.where(g != 0, at, dim).min(axis=1))
        last[at] = np.maximum(last[at], np.where(g != 0, at + 1, 0).max(axis=1))
        products.append((at, g))

    height = max(_GRAM_CALL_ENTRIES // (2 * max(dim, 1)), 1)
    starts = np.arange(0, dim, height)
    spans = list(zip(starts.tolist(), (starts + height).clip(max=dim).tolist(),
                     np.minimum.reduceat(first, starts).tolist(),
                     np.maximum.reduceat(last, starts).tolist()))

    def size(span):
        start, stop, lo, hi = span
        return (stop - start) * max(hi - lo, 0)

    merging = True
    while merging:  # a span merged in this pass waits for the next one
        merged, fresh = [], False
        for span in spans:
            if merged and not fresh:
                (start, _, lo, hi), (_, stop, lo2, hi2) = merged[-1], span
                both = (start, stop, min(lo, lo2), max(hi, hi2))
                if size(both) - size(merged[-1]) - size(span) < _GRAM_CALL_ENTRIES:
                    merged[-1], fresh = both, True
                    continue
            merged.append(span)
            fresh = False
        merging, spans = len(merged) < len(spans), merged
    # lo > hi: an all-zero block, no columns
    blocks = [(slice(start, stop), slice(lo, hi), np.zeros((stop - start, max(hi - lo, 0))))
              for start, stop, lo, hi in spans]
    for at, g in products:  # g spread over its window of G, the places lo..hi
        lo, hi = at.min(), at.max() + 1
        window = np.zeros((hi - lo, hi - lo))
        window.reshape(-1)[((at - lo)[:, None] * (hi - lo) + at - lo).ravel()] = g.ravel()
        for rows, cols, block in blocks:
            r_lo, r_hi = max(lo, rows.start), min(hi, rows.stop)
            c_lo, c_hi = max(lo, cols.start), min(hi, cols.stop)
            if r_lo < r_hi and c_lo < c_hi:
                block[r_lo - rows.start:r_hi - rows.start, c_lo - cols.start:c_hi - cols.start] \
                    += window[r_lo - lo:r_hi - lo, c_lo - lo:c_hi - lo]
    return order, blocks, c


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
    entry's 1/scale. A call gathers t[loc_of] once. Three kinds of gradient
    are written into the slices of one weight buffer: the location
    gradients (bound for loc_of), the likelihood's d/dbeta (for the knots,
    in their time order; see below) and each window's (for its knots). One
    np.bincount per call, over one index compiled here, adds them all to
    the gradient. The buffers belong to the returned function, so calls to
    one compiled objective must not run concurrently; each still depends on its theta
    alone. f(theta) returns a fresh gradient array; f(theta, out=buf)
    writes the gradient into buf, every entry, and returns (value, buf).

    The chain knots take Laplace terms |t - loc| inv. The x entries take
    folded-normal terms: writing z = (x - loc) inv and a = 2 x loc inv^2,
    each is the Gaussian -z^2/2 plus the mirror image's log(1 + e^-a); the
    Gaussian test prior on b_reg is the same term without the mirror. Both
    the softplus and the mirror term come from np.logaddexp, and their
    derivatives from one exp each: x = logaddexp(0, raw) has derivative
    sigmoid(raw) = e^(raw - x), and the mirror term logaddexp(0, -a) has
    derivative -sigmoid(-a) = -e^(-a - logaddexp(0, -a)).

    The fitted values are Z beta for the linear knots beta = [b_lev, b_seas,
    b_reg] (Z of _design_tiles), the buffer's leading entries, gathered
    from t in the knots' time order. The residuals are r0 - Z beta, for r0
    the target less the fixed trend, or, when b_lev is free, less the
    target's mean, which the level knots absorb exactly (beta_shift) since
    every level kernel row sums to 1. Under Gaussian noise the residual sum
    of squares is the quadratic s0 - 2 beta'c + beta'G beta with G = Z'Z,
    c = Z'r0 and s0 = r0'r0 built here once; a call does one G @ beta over
    the banded row blocks _gram builds, and centering keeps s0 small, so the
    quadratic loses few digits to cancellation. Student-t noise is not
    quadratic in beta: a call reads Z's tiles, kept here, for the residuals
    and again for Z' times their d/dfit.

    Calibration windows are quadratic in the regression knots under either
    noise family: a channel's windows sum to h'b - b'Hb/2 plus a constant,
    over the knots b their kernel rows reach. H and h are built here, so a
    call does one H @ b per windowed channel in place of two products with
    each window's kernel rows.

    The returned f carries f.curvature(theta), the diagonal of f's negated
    Hessian, from the same buffers (see curvature below).
    """
    design = inputs.design
    check_dims(packing.unpack(np.zeros(packing.dim)), design)
    y = inputs.target
    n = y.size
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

    const = 0.0
    if not lev_free:
        const += _laplace_chain(packing.fixed_b_lev, hp.init_scale_lev, hp.sigma_lev)[0]
        trend_fixed = design.k_lev.product(packing.fixed_b_lev)
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
    # per channel over the knots its windows reach: weights below
    # WEIGHT_FLOOR are left out as in _gram, so H grows with the reach, not
    # with J_reg.
    by_channel: dict[int, list] = {}
    for term in calibration:
        by_channel.setdefault(term.channel_index, []).append(term)
    windows = []
    for channel, terms in by_channel.items():
        tiles = [design.k_reg.tile(slice(term.start0, term.end0 + 1)) for term in terms]
        kept = np.concatenate([lo + np.flatnonzero((k >= WEIGHT_FLOOR).any(axis=0))
                               for lo, k in tiles])
        knots = slice(kept.min(), kept.max() + 1)
        H = h = 0.0
        for term, (lo, k) in zip(terms, tiles):
            # the window's kernel rows over the channel's knots
            k_rows = np.zeros((k.shape[0], knots.stop - knots.start))
            c_lo, c_hi = max(lo, knots.start), min(lo + k.shape[1], knots.stop)
            k_rows[:, c_lo - knots.start:c_hi - knots.start] = k[:, c_lo - lo:c_hi - lo]
            w = term.weight / (term.sd * term.sd)
            H = H + w * (k_rows.T @ k_rows)
            h = h + w * term.mean * k_rows.sum(axis=0)
            const -= k_rows.shape[0] * (term.weight * (math.log(term.sd) + 0.5 * LOG_2PI)
                                        + 0.5 * w * term.mean * term.mean)
        # b is a view of the buffer's knots, at these places of t
        windows.append((knots, channel, H, h, b_reg[knots, channel],
                        n_chain + np.arange(knots.start, knots.stop) * n_channels + channel))

    if not sigma_free:  # (ln sigma, sigma); __post_init__ keeps it > 0
        sigma_fixed = (math.log(packing.fixed_sigma_obs), float(packing.fixed_sigma_obs))
    nu = hp.noise_df
    y_mean = float(y.mean()) if lev_free else 0.0
    r0 = y - y_mean if lev_free else y - trend_fixed
    if nu is None:
        const -= 0.5 * n * LOG_2PI
        order, gram_blocks, r0_gram = _gram(design, r0, lev_free)
        s0 = float(r0 @ r0)
    else:
        t_const = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
                   - 0.5 * math.log(nu * math.pi))
        const += n * t_const
        order, tiles = _design_tiles(design, lev_free)
        tiles = list(tiles)  # f reads every tile twice
        resid = np.empty(n)
    beta_shift = np.where(order < n_lev, y_mean, 0.0)

    # f's one np.bincount: the entries of t its weights go to, and the
    # weights' slices, the prior's d/dloc, the likelihood's d/dbeta and each g_b
    scatter_to = np.concatenate([loc_of, order] + [at for *_, at in windows])
    weights = np.empty(scatter_to.size)
    w_prior = weights[:reg_end]
    w_lin = weights[reg_end:reg_end + order.size]  # in time order
    top = reg_end + order.size
    for i, (knots, channel, H, h, b, at) in enumerate(windows):
        windows[i] = (knots, channel, H, h, b, weights[top:top + at.size])
        top += at.size

    def f(theta, out=None):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (dim,):
            raise ValidationError(f"theta length {theta.shape} != packing dim {dim}")
        grad = np.empty(dim) if out is None else out

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
        diff = np.subtract(t_prior, loc, out=w_prior)
        value = const - float(np.abs(diff[:n_chain]) @ inv_chain)
        np.sign(diff[:n_chain], out=diff[:n_chain])
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

        # a sigma that underflows (or whose square does) gives a non-finite
        # value, not an error
        if sigma_free:
            ln_sigma, sigma = float(theta[-1]), float(np.exp(theta[-1]))
        else:
            ln_sigma, sigma = sigma_fixed
        # the likelihood in the knots' time order; w_lin becomes its d/dbeta,
        # scattered over order: beta's entries lead t and theta
        beta = t[order]
        beta -= beta_shift
        if nu is None:
            # through the Gram quadratic; r = Z'resid
            for rows, cols, block in gram_blocks:
                np.dot(block, beta[cols], out=w_lin[rows])
            r = np.subtract(r0_gram, w_lin, out=w_lin)
            ss = s0 - float(beta @ (r + r0_gram))
            var = sigma * sigma
            inv_var = 1.0 / var if var else math.inf
            value += -n * ln_sigma - 0.5 * ss * inv_var
            dlnsig = ss * inv_var - n
            r *= inv_var
        else:
            resid[:] = r0
            for rows, at, zt in tiles:
                resid[rows] -= beta[at] @ zt
            nu_var = nu * sigma * sigma
            sq = resid * resid
            denom = nu_var + sq
            value += -n * ln_sigma - 0.5 * (nu + 1.0) * float(np.log1p(sq / nu_var).sum())
            dfit = (nu + 1.0) * resid / denom
            dlnsig = (nu + 1.0) * float((sq / denom).sum()) - n
            w_lin[:] = 0.0
            for rows, at, zt in tiles:
                w_lin[at] += zt @ dfit[rows]

        for *_, H, h, b, g_b in windows:
            np.subtract(h, H @ b, out=g_b)
            value += 0.5 * float(b @ (h + g_b))  # h'b - b'Hb/2
        g += np.bincount(scatter_to, weights=weights, minlength=t.size)[:reg_end]

        if softplus_reg:
            g_x = grad[n_chain:reg_end]
            g_x *= dx_draw
            if include_jacobian:
                # ln sigmoid(raw), whose derivative is sigmoid(-raw) = e^-x
                value += float(log_sig.sum())
                g_x += np.exp(-t_x)
        if sigma_free:
            grad[-1] = dlnsig
        return value, grad

    def constant_curvature():
        """(diag(H) of the windows over the b_reg entries, and under Gaussian
        noise diag(G) in time order)."""
        window_diag = np.zeros((n_reg_knots, n_channels))
        for knots, channel, H, *_ in windows:
            window_diag[knots, channel] += np.diag(H)
        if nu is not None:
            return window_diag.ravel(), None
        gram_diag = np.zeros(order.size)
        for rows, cols, block in gram_blocks:
            on = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
            gram_diag[on] = block[on - rows.start, on - cols.start]
        return window_diag.ravel(), gram_diag

    constant = None  # built on curvature's first call, so compiling f does no more work

    def curvature(theta):
        """The diagonal of -H, for H the Hessian of f at theta, exact away
        from the Laplace kinks: a chain term is linear on either side of its
        kink and adds 0.

        One call of f fills the buffer and gives the gradient; every other
        term is a second derivative in the buffer's coordinates. The
        likelihood adds diag(G) / sigma^2 under Gaussian noise, and under
        Student-t noise sum_t w_t Z_ti^2, for w_t each row's -d^2/dfit^2 at
        the residual f left in its buffer: the observed information, one
        pass of Z's squared tiles. Both are in the knots' time order, added
        at order. The windows add diag(H). Each folded-normal or
        Gaussian term adds its -d^2/dx^2 on its entry and its -d^2/dloc^2 on
        its location slot, gathered by one np.bincount over loc_of: every
        channel's knots onto its mu_reg. A softplus entry then takes the
        chain term -(s^2 L_xx + s (1 - s) L_x), s = sigmoid(raw), where s L_x
        is f's gradient less the log-Jacobian's e^-x = 1 - s, and the
        log-Jacobian's own s (1 - s). ln sigma takes 2 ss / sigma^2 under
        Gaussian noise and 2 (nu + 1) sum q / (1 + q)^2, q = r^2 / (nu
        sigma^2), under Student-t. diag(G) and diag(H) depend on the
        structure alone and are built on the first call.
        """
        nonlocal constant
        _, grad = f(theta)
        if constant is None:
            constant = constant_curvature()
        window_diag, gram_diag = constant
        out = np.zeros(dim)
        curv = out[:reg_end]

        # the x entries' terms against their locations
        loc = t[loc_of[n_chain:]]
        d2_x, d2_loc = inv_x * inv_x, inv_x * inv_x
        # the mirror log(1 + e^-a) has d^2/dx^2 = (2 inv^2 loc)^2 p (1 - p)
        # for p = sigmoid(-a) = e^(-a - log(1 + e^-a)) and 1 - p =
        # e^-log(1 + e^-a); its d^2/dloc^2 has x in place of loc
        neg_a = loc[folded - n_chain:] * t_folded * neg_two_inv2
        mirror = np.exp(neg_a - 2.0 * np.logaddexp(0.0, neg_a)) * neg_two_inv2 * neg_two_inv2
        d2_x[folded - n_chain:] -= mirror * loc[folded - n_chain:] ** 2
        d2_loc[folded - n_chain:] -= mirror * t_folded * t_folded
        curv[n_chain:] = d2_x
        curv += np.bincount(loc_of[n_chain:], weights=d2_loc, minlength=t.size)[:reg_end]
        curv[n_chain:n_chain + n_b] += window_diag

        sigma = float(np.exp(theta[-1])) if sigma_free else sigma_fixed[1]
        if nu is None:  # diag(G) / sigma^2 in time order, added at order
            curv[order] += gram_diag / (sigma * sigma)
            if sigma_free:  # f's d/d ln sigma is ss / sigma^2 - n
                out[-1] = 2.0 * (grad[-1] + n)
        else:  # f left the residuals in resid
            nu_var = nu * sigma * sigma
            sq = resid * resid
            denom = nu_var + sq
            w = (nu + 1.0) * (nu_var - sq) / (denom * denom)
            diag = np.zeros(order.size)  # sum_t w_t Z_ti^2, in time order
            for rows, at, zt in tiles:
                diag[at] += (zt * zt) @ w[rows]
            curv[order] += diag
            if sigma_free:
                out[-1] = 2.0 * (nu + 1.0) * float((sq * nu_var / (denom * denom)).sum())

        if softplus_reg:
            s = np.exp(theta[n_chain:reg_end] - t_x)  # sigmoid(raw), as f's dx_draw
            e = np.exp(-t_x)  # 1 - s
            s_grad = grad[n_chain:reg_end] - e if include_jacobian else grad[n_chain:reg_end]
            curv[n_chain:] *= s * s
            curv[n_chain:] -= e * s_grad
            if include_jacobian:
                curv[n_chain:] += s * e
        return out

    f.curvature = curvature
    return f


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

    return ascend


def fit_map(inputs: ModelInputs, hp: HyperParams, config: MapConfig | None = None,
            packing: ParameterPacking | None = None, calibration=()) -> FitResult:
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
    )


def _start_log_sd(curvature: np.ndarray, cap: float) -> np.ndarray:
    """SVI's starting log-sds from the objective's curvature -H_ii (see
    _objective's curvature): min(-ln(-H_ii) / 2, cap), and cap wherever
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
            packing: ParameterPacking | None = None, calibration=(),
            init: FitResult | None = None, map_config: MapConfig | None = None) -> FitResult:
    """Fit a diagonal Gaussian over theta by reparameterized gradient ascent.

    The mean starts at the MAP point (fit here unless `init` is supplied)
    and the log-sds at _start_log_sd of the objective's exact Hessian
    diagonal there (f.curvature, about one objective call), capped at
    config.init_log_sd; the objective is E_q[log_posterior + log-Jacobian]
    + entropy(q). Each step takes one standard-normal draw of dim entries
    from SeedSequence(config.seed); they are drawn _DRAW_BLOCK steps at a
    time, which numpy's Generator fills in order, so the stream is the one
    a draw per step would give.
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
    # The step loop works in place on preallocated buffers, each op the one
    # the plain expression would run, so the moments are the same bit for
    # bit: state is [mean, log_sd], grad is [d/d mean, d/d log_sd].
    state = np.concatenate([init.theta, _start_log_sd(f.curvature(init.theta),
                                                      config.init_log_sd)])
    mean, log_sd = state[:dim], state[dim:]
    grad = np.empty(2 * dim)
    g_mean, g_log_sd = grad[:dim], grad[dim:]
    sd, theta = np.empty(dim), np.empty(dim)
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
        eps = draws[row]
        np.exp(log_sd, out=sd)
        np.multiply(sd, eps, out=theta)
        theta += mean
        value, _ = f(theta, out=g_mean)
        elbo = value + entropy_const + float(log_sd.sum())
        if not math.isfinite(elbo):
            raise DivergenceError(
                f"ELBO became non-finite at iteration {t}", trace=trace, iteration=t
            )
        if t % config.trace_every == 0:
            trace.append(elbo)
        # grad = [g, g * eps * sd + 1] for g the gradient at theta
        np.multiply(g_mean, eps, out=g_log_sd)
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
    with open(path, "w") as fh:
        json.dump(fit_document(fit), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


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
    # trace is checked as one list, not entry by entry: an SVI trace has 2000
    for key, hint in (("trace", list), ("seed", int), ("mode", Literal["map", "svi"]),
                      ("stop_reason", str), ("n_iterations", int), ("grad_norm", float)):
        check_value(doc.get(key), hint, key)
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
    )
