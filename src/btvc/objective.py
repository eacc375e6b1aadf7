"""The fit objective of one structure, compiled once per fit (Objective), and
the design map and Gram blocks it is built from."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError
from .kernels import TILE_ROWS, WEIGHT_FLOOR
from .model import LOG_2PI, _folded_normal_terms, _laplace_chain, check_dims

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


class Objective:
    """The fit objective of one structure, compiled: theta -> (value, gradient).

    The value is log_posterior_and_grad at packing.unpack(theta), its
    gradient chained to theta as packing.chain_grad does, plus the softplus
    log-Jacobian when include_jacobian; that composition stays the readable
    reference this one is tested against. Everything that depends only on
    the structure is done once in __init__, so a call builds no ParameterSet
    or ParamGradient and runs no dimension checks.

    Every prior term is a density of one entry around a location. A call
    writes the entries into one buffer t = [chain knots | x | location
    slots]: the chain knots [b_lev, b_seas] are copied from theta, x =
    softplus(raw) of the [b_reg, mu_reg] block is written in place (x = raw
    under the identity transform), and the constant slots, written once in
    __init__, hold 0 (the location of each chain's first knot), mu_pool, and
    the fixed mu_reg when packing fixes it. One index loc_of gives each
    entry its location slot: the previous trend knot, the same seasonal
    column one knot back, the channel's mu_reg, or mu_pool; inv holds each
    entry's 1/scale. A call gathers t[loc_of] once. Three kinds of gradient
    are written into the slices of one weight buffer: the location
    gradients (bound for loc_of), the likelihood's d/dbeta (for the knots,
    in their time order; see below) and each window's (for its knots). One
    np.bincount per call, over one index scatter_to, adds them all to the
    gradient. The buffers belong to the object, so calls to one compiled
    objective must not run concurrently; each still depends on its theta
    alone. obj(theta) returns a fresh gradient array; obj(theta, out=buf)
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
    c = Z'r0 and s0 = r0'r0 built once; a call does one G @ beta over the
    banded row blocks _gram builds, and centering keeps s0 small, so the
    quadratic loses few digits to cancellation. Student-t noise is not
    quadratic in beta: a call reads Z's tiles (kept in tiles) for the
    residuals (left in resid) and again for Z' times their d/dfit.

    Calibration windows are quadratic in the regression knots under either
    noise family: a channel's windows sum to h'b - b'Hb/2 plus a constant,
    over the knots b their kernel rows reach. Each entry of windows holds
    its H and h, so a call does one H @ b per windowed channel in place of two
    products with each window's kernel rows. curvature(theta) is the
    diagonal of the negated Hessian, read from the same parts.
    """

    def __init__(self, inputs, hp, packing, calibration, include_jacobian):
        design = inputs.design
        check_dims(packing.unpack(np.zeros(packing.dim)), design)
        y = inputs.target
        self.n = n = y.size
        n_seas_knots, n_cols = packing.n_seas_knots, packing.n_seas_cols
        n_reg_knots, n_channels = packing.n_reg_knots, packing.n_channels
        lev_free = packing.fixed_b_lev is None
        mu_free = packing.fixed_mu_reg is None
        self.sigma_free = packing.fixed_sigma_obs is None
        self.softplus_reg = packing.reg_transform == "softplus"
        self.check_support = not self.softplus_reg and not hp.gaussian_reg_prior
        self.include_jacobian = include_jacobian
        self.dim = packing.dim
        n_lev = packing.n_lev if lev_free else 0
        self.n_chain = n_chain = n_lev + n_seas_knots * n_cols
        self.n_b = n_b = n_reg_knots * n_channels
        self.n_mu = n_mu = n_channels if mu_free else 0
        self.reg_end = reg_end = n_chain + n_b + n_mu

        const = 0.0
        if not lev_free:
            const += _laplace_chain(packing.fixed_b_lev, hp.init_scale_lev, hp.sigma_lev)[0]
            trend_fixed = design.k_lev.product(packing.fixed_b_lev)
        fixed_mu = np.zeros(0) if mu_free else packing.fixed_mu_reg
        if not mu_free and n_channels:
            if self.check_support and fixed_mu.min() < 0:
                raise ValidationError("mu_reg outside folded-normal support")
            const += float(_folded_normal_terms(
                fixed_mu, np.full(n_channels, hp.mu_pool), hp.sigma_pool)[0].sum())

        # the buffer and its views; t[reg_end:] holds 0, mu_pool, then fixed mu_reg
        self.t = t = np.concatenate((np.zeros(reg_end + 1), [hp.mu_pool], fixed_mu))
        self.t_prior, self.t_chain, self.t_x = t[:reg_end], t[:n_chain], t[n_chain:reg_end]
        self.b_reg = b_reg = t[n_chain:n_chain + n_b].reshape(n_reg_knots, n_channels)
        # a knot's predecessor is 1 place back in the trend, n_cols in the
        # seasonal block; one that falls before its block's start is a chain
        # head, located at the 0 slot
        loc_chain = np.arange(n_chain) - np.repeat([1, n_cols], [n_lev, n_chain - n_lev])
        loc_chain[loc_chain < np.repeat([0, n_lev], [n_lev, n_chain - n_lev])] = reg_end
        mu_slot = n_chain + n_b if mu_free else reg_end + 2
        self.loc_of = loc_of = np.concatenate((
            loc_chain, mu_slot + np.tile(np.arange(n_channels), n_reg_knots),
            np.full(n_mu, reg_end + 1))).astype(np.intp)
        scale = np.repeat([hp.sigma_lev, hp.sigma_seas, hp.sigma_reg, hp.sigma_pool],
                          [n_lev, n_chain - n_lev, n_b, n_mu])
        if lev_free:
            scale[0] = hp.init_scale_lev
        const -= float(np.log(2.0 * scale[:n_chain]).sum())
        const -= float(np.sum(np.log(scale[n_chain:]) + 0.5 * LOG_2PI))
        self.inv = inv = 1.0 / scale
        self.inv_chain, self.inv_x = inv[:n_chain], inv[n_chain:]
        # entries from `folded` on take the mirror term
        self.folded = folded = n_chain + (n_b if hp.gaussian_reg_prior else 0)
        self.t_folded = t[folded:reg_end]
        self.neg_two_inv2 = -2.0 * inv[folded:] * inv[folded:]

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

        sigma = packing.fixed_sigma_obs  # a float > 0, or None when free
        self.sigma_fixed = None if sigma is None else (math.log(sigma), sigma)
        self.nu = nu = hp.noise_df
        y_mean = float(y.mean()) if lev_free else 0.0
        self.r0 = r0 = y - y_mean if lev_free else y - trend_fixed
        if nu is None:
            const -= 0.5 * n * LOG_2PI
            self.order, self.gram_blocks, self.c = _gram(design, r0, lev_free)
            self.s0 = float(r0 @ r0)
        else:
            t_const = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
                       - 0.5 * math.log(nu * math.pi))
            const += n * t_const
            self.order, tiles = _design_tiles(design, lev_free)
            self.tiles = list(tiles)  # a call reads every tile twice
            self.resid = np.empty(n)
        self.const, order = const, self.order
        self.beta_shift = np.where(order < n_lev, y_mean, 0.0)

        # the call's one np.bincount: the entries of t its weights go to, and
        # the weights' slices, the prior's d/dloc, the likelihood's d/dbeta
        # and each g_b
        self.scatter_to = np.concatenate([loc_of, order] + [at for *_, at in windows])
        self.weights = weights = np.empty(self.scatter_to.size)
        self.w_prior = weights[:reg_end]
        self.w_lin = weights[reg_end:reg_end + order.size]  # in time order
        g_bs = np.split(weights[reg_end + order.size:], np.cumsum([w[-1].size for w in windows]))
        self.windows = [(*w[:-1], g_b) for w, g_b in zip(windows, g_bs)]

    def __call__(self, theta, out=None):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValidationError(f"theta length {theta.shape} != packing dim {self.dim}")
        grad = np.empty(self.dim) if out is None else out
        n_chain, reg_end, t_x = self.n_chain, self.reg_end, self.t_x

        raw = theta[n_chain:reg_end]
        if self.softplus_reg:
            self.t_chain[:] = theta[:n_chain]
            np.logaddexp(0.0, raw, out=t_x)  # softplus, as unpack computes it
            log_sig = raw - t_x  # ln sigmoid(raw)
            dx_draw = np.exp(log_sig)
        else:
            self.t_prior[:] = theta[:reg_end]
            if self.check_support:
                if self.n_b and t_x[:self.n_b].min() < 0:
                    raise ValidationError("b_reg outside folded-normal support")
                if self.n_mu and t_x[self.n_b:].min() < 0:
                    raise ValidationError("mu_reg outside folded-normal support")

        # every prior entry against its location
        folded, t_folded, neg_two_inv2 = self.folded, self.t_folded, self.neg_two_inv2
        loc = self.t[self.loc_of]
        diff = np.subtract(self.t_prior, loc, out=self.w_prior)
        value = self.const - float(np.abs(diff[:n_chain]) @ self.inv_chain)
        np.sign(diff[:n_chain], out=diff[:n_chain])
        z = diff[n_chain:]
        z *= self.inv_x
        neg_a = loc[folded:] * t_folded
        neg_a *= neg_two_inv2
        mirror_log = np.logaddexp(0.0, neg_a)  # log(1 + e^-a)
        value += float(mirror_log.sum() - 0.5 * (z @ z))
        # the mirror term's d/dx is c loc and its d/dloc is c x, for
        # c = -2 inv^2 sigmoid(-a) = -2 inv^2 e^(-a - log(1 + e^-a))
        c = np.exp(neg_a - mirror_log)
        c *= neg_two_inv2
        # diff becomes d value / d loc: [sign | z] inv, plus the mirror's
        diff *= self.inv
        g = grad[:reg_end]
        np.negative(diff, out=g)
        g[folded:] += c * loc[folded:]
        diff[folded:] += c * t_folded

        # a sigma that underflows (or whose square does) gives a non-finite
        # value, not an error
        if self.sigma_free:
            ln_sigma, sigma = float(theta[-1]), float(np.exp(theta[-1]))
        else:
            ln_sigma, sigma = self.sigma_fixed
        # the likelihood in the knots' time order; w_lin becomes its d/dbeta,
        # scattered over order: beta's entries lead t and theta
        n, nu, w_lin = self.n, self.nu, self.w_lin
        beta = self.t[self.order]
        beta -= self.beta_shift
        if nu is None:
            # through the Gram quadratic; r = Z'resid
            for rows, cols, block in self.gram_blocks:
                np.dot(block, beta[cols], out=w_lin[rows])
            r = np.subtract(self.c, w_lin, out=w_lin)
            ss = self.s0 - float(beta @ (r + self.c))
            var = sigma * sigma
            inv_var = 1.0 / var if var else math.inf
            value += -n * ln_sigma - 0.5 * ss * inv_var
            dlnsig = ss * inv_var - n
            r *= inv_var
        else:
            resid = self.resid
            resid[:] = self.r0
            for rows, at, zt in self.tiles:
                resid[rows] -= beta[at] @ zt
            nu_var = nu * sigma * sigma
            sq = resid * resid
            denom = nu_var + sq
            value += -n * ln_sigma - 0.5 * (nu + 1.0) * float(np.log1p(sq / nu_var).sum())
            dfit = (nu + 1.0) * resid / denom
            dlnsig = (nu + 1.0) * float((sq / denom).sum()) - n
            w_lin[:] = 0.0
            for rows, at, zt in self.tiles:
                w_lin[at] += zt @ dfit[rows]

        for *_, H, h, b, g_b in self.windows:
            np.subtract(h, H @ b, out=g_b)
            value += 0.5 * float(b @ (h + g_b))  # h'b - b'Hb/2
        g += np.bincount(self.scatter_to, weights=self.weights, minlength=self.t.size)[:reg_end]

        if self.softplus_reg:
            g_x = grad[n_chain:reg_end]
            g_x *= dx_draw
            if self.include_jacobian:
                # ln sigmoid(raw), whose derivative is sigmoid(-raw) = e^-x
                value += float(log_sig.sum())
                g_x += np.exp(-t_x)
        if self.sigma_free:
            grad[-1] = dlnsig
        return value, grad

    @functools.cached_property
    def constant_curvature(self):
        """(diag(H) of the windows over the b_reg entries, and under Gaussian
        noise diag(G) in time order, else None). They depend on the
        structure alone, so they are built on curvature's first call: a MAP
        fit never asks for them."""
        window_diag = np.zeros_like(self.b_reg)
        for knots, channel, H, *_ in self.windows:
            window_diag[knots, channel] += np.diag(H)
        if self.nu is not None:
            return window_diag.ravel(), None
        gram_diag = np.zeros(self.order.size)
        for rows, cols, block in self.gram_blocks:
            on = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
            gram_diag[on] = block[on - rows.start, on - cols.start]
        return window_diag.ravel(), gram_diag

    def curvature(self, theta):
        """The diagonal of -H, for H the Hessian of the objective at theta,
        exact away from the Laplace kinks: a chain term is linear on either
        side of its kink and adds 0.

        One call of the objective fills the buffer and gives the gradient;
        every other term is a second derivative in the buffer's coordinates.
        The likelihood adds diag(G) / sigma^2 under Gaussian noise, and under
        Student-t noise sum_t w_t Z_ti^2, for w_t each row's -d^2/dfit^2 at
        the residual the call left in resid: the observed information, one
        pass of Z's squared tiles. Both are in the knots' time order, added
        at order. The windows add diag(H). Each folded-normal or
        Gaussian term adds its -d^2/dx^2 on its entry and its -d^2/dloc^2 on
        its location slot, gathered by one np.bincount over loc_of: every
        channel's knots onto its mu_reg. A softplus entry then takes the
        chain term -(s^2 L_xx + s (1 - s) L_x), s = sigmoid(raw), where s L_x
        is the call's gradient less the log-Jacobian's e^-x = 1 - s, and the
        log-Jacobian's own s (1 - s). ln sigma takes 2 ss / sigma^2 under
        Gaussian noise and 2 (nu + 1) sum q / (1 + q)^2, q = r^2 / (nu
        sigma^2), under Student-t. diag(G) and diag(H) are
        constant_curvature.
        """
        _, grad = self(theta)
        window_diag, gram_diag = self.constant_curvature
        n, nu, n_chain, reg_end = self.n, self.nu, self.n_chain, self.reg_end
        folded, t_folded, neg_two_inv2 = self.folded, self.t_folded, self.neg_two_inv2
        out = np.zeros(self.dim)
        curv = out[:reg_end]

        # the x entries' terms against their locations
        loc = self.t[self.loc_of[n_chain:]]
        d2_x, d2_loc = self.inv_x * self.inv_x, self.inv_x * self.inv_x
        # the mirror log(1 + e^-a) has d^2/dx^2 = (2 inv^2 loc)^2 p (1 - p)
        # for p = sigmoid(-a) = e^(-a - log(1 + e^-a)) and 1 - p =
        # e^-log(1 + e^-a); its d^2/dloc^2 has x in place of loc
        neg_a = loc[folded - n_chain:] * t_folded * neg_two_inv2
        mirror = np.exp(neg_a - 2.0 * np.logaddexp(0.0, neg_a)) * neg_two_inv2 * neg_two_inv2
        d2_x[folded - n_chain:] -= mirror * loc[folded - n_chain:] ** 2
        d2_loc[folded - n_chain:] -= mirror * t_folded * t_folded
        curv[n_chain:] = d2_x
        curv += np.bincount(self.loc_of[n_chain:], weights=d2_loc, minlength=self.t.size)[:reg_end]
        curv[n_chain:n_chain + self.n_b] += window_diag

        sigma = float(np.exp(theta[-1])) if self.sigma_free else self.sigma_fixed[1]
        if nu is None:  # diag(G) / sigma^2 in time order, added at order
            curv[self.order] += gram_diag / (sigma * sigma)
            if self.sigma_free:  # the call's d/d ln sigma is ss / sigma^2 - n
                out[-1] = 2.0 * (grad[-1] + n)
        else:  # the call left the residuals in resid
            nu_var = nu * sigma * sigma
            sq = self.resid * self.resid
            denom = nu_var + sq
            w = (nu + 1.0) * (nu_var - sq) / (denom * denom)
            diag = np.zeros(self.order.size)  # sum_t w_t Z_ti^2, in time order
            for rows, at, zt in self.tiles:
                diag[at] += (zt * zt) @ w[rows]
            curv[self.order] += diag
            if self.sigma_free:
                out[-1] = 2.0 * (nu + 1.0) * float((sq * nu_var / (denom * denom)).sum())

        if self.softplus_reg:
            s = np.exp(theta[n_chain:reg_end] - self.t_x)  # sigmoid(raw), as the call's dx_draw
            e = np.exp(-self.t_x)  # 1 - s
            s_grad = grad[n_chain:reg_end] - e if self.include_jacobian else grad[n_chain:reg_end]
            curv[n_chain:] *= s * s
            curv[n_chain:] -= e * s_grad
            if self.include_jacobian:
                curv[n_chain:] += s * e
        return out
