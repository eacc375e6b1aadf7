"""The fit objective of one structure or of a stack of several, compiled once
per fit (Objective), its Hessian at a point as an operator (Hessian), and
the design map and Gram blocks they are built from."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .kernels import TILE_ROWS, WEIGHT_FLOOR
from .model import (LOG_2PI, T_LIMIT_DF, _folded_normal_terms, _laplace_chain, check_dims,
                    student_t_const)

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


def _gram(tiles, dim: int, u: np.ndarray, w: np.ndarray | None = None):
    """(blocks, c) for Z'WZ and c = Z'u, W = diag(w) (the identity when w is
    None), from the tiles (rows, at, zt) of _design_tiles over dim knots,
    each read once: c = (Z'u)[order], and blocks are _band_blocks of the
    tiles' products, (Z'WZ)[order][:, order].
    """
    c = np.zeros(dim)
    products = []
    for rows, at, zt in tiles:
        c[at] += zt @ u[rows]
        products.append((at, zt @ zt.T if w is None else (zt * w[rows]) @ zt.T))
    return _band_blocks(products, dim), c


def _band_blocks(products, dim: int):
    """The row blocks (rows, cols, array) of the dim x dim sum of the
    products (at, g), each g added at the places at (no place twice): each
    block holds the sum's [rows, cols], contiguous. A row's columns run from
    the first to the last nonzero of its products. Passes over the rows
    merge adjacent blocks while a merge stores fewer than _GRAM_CALL_ENTRIES
    extra entries, from blocks as tall as the first passes would make them.
    The products are added into the blocks in their order, so each entry is
    the sum a dense matrix built product by product holds.
    """
    # a row's nonzero column span [first, last); dim, 0 for an all-zero row
    first, last = np.full(dim, dim), np.zeros(dim, dtype=np.intp)
    for at, g in products:
        first[at] = np.minimum(first[at], np.where(g != 0, at, dim).min(axis=1))
        last[at] = np.maximum(last[at], np.where(g != 0, at + 1, 0).max(axis=1))

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
    for at, g in products:  # g spread over its window of the sum, the places lo..hi
        lo, hi = at.min(), at.max() + 1
        window = np.zeros((hi - lo, hi - lo))
        window.reshape(-1)[((at - lo)[:, None] * (hi - lo) + at - lo).ravel()] = g.ravel()
        for rows, cols, block in blocks:
            r_lo, r_hi = max(lo, rows.start), min(hi, rows.stop)
            c_lo, c_hi = max(lo, cols.start), min(hi, cols.stop)
            if r_lo < r_hi and c_lo < c_hi:
                block[r_lo - rows.start:r_hi - rows.start, c_lo - cols.start:c_hi - cols.start] \
                    += window[r_lo - lo:r_hi - lo, c_lo - lo:c_hi - lo]
    return blocks


def _offset(blocks, by: int):
    """_band_blocks' row blocks (rows, cols, array) moved by places, into a stack."""
    return [(slice(r.start + by, r.stop + by), slice(c.start + by, c.stop + by), block)
            for r, c, block in blocks]


class _Structure:
    """One structure's share of an Objective, compiled in its own
    coordinates: its theta is [chain | x | ln sigma] as its packing lays it
    out (the chain knots [b_lev, b_seas] and x = [b_reg, mu_reg], each
    block only when free), and its buffer is [chain | x | 0 | mu_pool |
    fixed mu_reg]. loc_of, order, the windows' places and the Gram blocks
    index that buffer and the knots' time order; Objective moves them onto
    the stack's slices.
    """

    def __init__(self, inputs, hp, packing, calibration):
        design = inputs.design
        check_dims(packing.unpack(np.zeros(packing.dim)), design)
        y = inputs.target
        self.n = n = y.size
        n_seas_knots, n_cols = packing.n_seas_knots, packing.n_seas_cols
        n_reg_knots, n_channels = packing.n_reg_knots, packing.n_channels
        lev_free = packing.fixed_b_lev is None
        mu_free = packing.fixed_mu_reg is None
        self.softplus_reg = packing.reg_transform == "softplus"
        self.nu = nu = None if hp.noise_df is None else min(hp.noise_df, T_LIMIT_DF)
        n_lev = packing.n_lev if lev_free else 0
        self.n_chain = n_chain = n_lev + n_seas_knots * n_cols
        self.reg_shape = (n_reg_knots, n_channels)
        self.n_b = n_b = n_reg_knots * n_channels
        self.n_x = n_b + (n_channels if mu_free else 0)
        self.reg_end = reg_end = n_chain + self.n_x

        const = 0.0
        if not lev_free:
            const += _laplace_chain(packing.fixed_b_lev, hp.init_scale_lev, hp.sigma_lev)[0]
            trend_fixed = design.k_lev.product(packing.fixed_b_lev)
        fixed_mu = np.zeros(0) if mu_free else packing.fixed_mu_reg
        if not mu_free and n_channels:
            const += float(_folded_normal_terms(
                fixed_mu, np.full(n_channels, hp.mu_pool), hp.sigma_pool)[0].sum())
        self.slots = np.concatenate(([hp.mu_pool], fixed_mu))

        # a knot's predecessor is 1 place back in the trend, n_cols in the
        # seasonal block; one that falls before its block's start is a chain
        # head, located at the 0 slot
        loc_chain = np.arange(n_chain) - np.repeat([1, n_cols], [n_lev, n_chain - n_lev])
        loc_chain[loc_chain < np.repeat([0, n_lev], [n_lev, n_chain - n_lev])] = reg_end
        mu_slot = n_chain + n_b if mu_free else reg_end + 2
        self.loc_of = np.concatenate((
            loc_chain, mu_slot + np.tile(np.arange(n_channels), n_reg_knots),
            np.full(self.n_x - n_b, reg_end + 1))).astype(np.intp)
        scale = np.repeat([hp.sigma_lev, hp.sigma_seas, hp.sigma_reg, hp.sigma_pool],
                          [n_lev, n_chain - n_lev, n_b, self.n_x - n_b])
        if lev_free:
            scale[0] = hp.init_scale_lev
        const -= float(np.log(2.0 * scale[:n_chain]).sum())
        const -= float(np.sum(np.log(scale[n_chain:]) + 0.5 * LOG_2PI))
        self.inv = 1.0 / scale
        # x entries from `fold` on take the mirror term: under the identity
        # transform b_reg is signed, its prior a plain Normal
        self.fold = 0 if self.softplus_reg else n_b

        # A window with weight w adds -(w / 2 sd^2) |K_rows b - mean|^2, so
        # H = (w / sd^2) K_rows'K_rows and h = (w mean / sd^2) K_rows'1, summed
        # per channel over the knots its windows reach: weights below
        # WEIGHT_FLOOR are left out as in _design_tiles, so H grows with the
        # reach, not with J_reg.
        by_channel: dict[int, list] = {}
        for term in calibration:
            by_channel.setdefault(term.channel_index, []).append(term)
        self.windows = []
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
            # b's places in the buffer: b_reg[knots, channel]
            at = n_chain + np.arange(knots.start, knots.stop) * n_channels + channel
            self.windows.append((knots, channel, H, h, at))

        sigma = packing.fixed_sigma_obs  # a float > 0, or None when free
        self.sigma_fixed = None if sigma is None else (math.log(sigma), sigma)
        y_mean = float(y.mean()) if lev_free else 0.0
        self.r0 = r0 = y - y_mean if lev_free else y - trend_fixed
        self.order, tiles = _design_tiles(design, lev_free)
        if nu is None:
            const -= 0.5 * n * LOG_2PI
            self.gram_blocks, self.c = _gram(tiles, self.order.size, r0)
            self.s0 = float(r0 @ r0)
        else:
            const += n * student_t_const(nu)
            self.tiles = list(tiles)  # a call reads every tile twice
        self.const = const
        self.beta_shift = np.where(self.order < n_lev, y_mean, 0.0)


class Objective:
    """The fit objective of one structure, or of a stack of several,
    compiled: theta -> (value, gradient). obj.gradient(theta) computes the
    gradient alone, and obj.value() then reduces the value at that theta
    from the buffers the gradient pass left; obj(theta) is the two in turn.
    A loop that needs the value only now and then (fit_svis' trace) pays
    for it only then.

    For one structure the value is log_posterior_and_grad at
    packing.unpack(theta), its gradient chained to theta as
    packing.chain_grad does, plus the softplus log-Jacobian when
    include_jacobian; that composition stays the readable reference this
    one is tested against. Objective(parts, include_jacobian) stacks the
    compiled structures parts (_Structure, as Objective.stack compiles them)
    into one set of buffers, the structures independent: the value is the
    sum of theirs, and after each value() obj.values lists them. A
    structure's entries of theta are obj.theta_of[k], in its packing's order
    (obj.owner[i] is the structure of entry i), and every value and gradient
    entry has the bits it has in the stack of that structure alone: each
    one's reductions run over its own segment, and everything else is
    elementwise. Everything that depends only on the structures is done once
    in __init__, so a call builds no ParameterSet or ParamGradient and runs
    no dimension checks.

    A stacked theta is [chain knots | x | ln sigma_obs], each block the
    structures' blocks in turn: the chain knots [b_lev, b_seas], x = [b_reg,
    mu_reg], and ln sigma_obs where it is free (fixed blocks are left out).
    Every prior term is a density of one entry around a location. A call
    writes the entries into one buffer t = [chain knots | x | location
    slots]: the chain knots are copied from theta, x = softplus(raw) is
    written in place (x = raw under the identity transform), and the
    constant slots, written once in __init__, hold 0 (the location of every
    chain's first knot) and each structure's mu_pool and its fixed mu_reg
    when its packing fixes it. One index loc_of gives each entry its
    location slot: the previous trend knot, the same seasonal column one
    knot back, the channel's mu_reg, or mu_pool; inv holds each entry's
    1/scale. A call gathers t[loc_of] once. Three kinds of gradient are
    written into the slices of one weight buffer: the location gradients
    (bound for loc_of), the likelihood's d/dbeta (for the knots, in their
    time order; see below) and each window's (for its knots). One
    np.bincount per call, over one index scatter_to, adds them all to the
    gradient. The buffers belong to the object, so calls to one compiled
    objective must not run concurrently; each still depends on its theta
    alone. obj(theta) and obj.gradient(theta) return a fresh gradient
    array; given out=buf they write the gradient into buf, every entry.

    The chain knots take Laplace terms |t - loc| inv. The x entries take
    folded-normal terms: writing z = (x - loc) inv and a = 2 x loc inv^2,
    each is the Gaussian -z^2/2 plus the mirror image's log(1 + e^-a); the
    plain Normal prior on a signed b_reg (the identity transform) is the
    same term without the mirror, which its weight neg_two_inv2 = 0 turns
    off. Both the softplus and the mirror term come from np.logaddexp, and
    their derivatives from one exp each: x = logaddexp(0, raw) has
    derivative sigmoid(raw) = e^(raw - x), and the mirror term
    logaddexp(0, -a) has derivative -sigmoid(-a) = -e^(-a - logaddexp(0,
    -a)).

    The fitted values are Z beta for the linear knots beta = [b_lev, b_seas,
    b_reg] (Z of _design_tiles), gathered from t in each structure's knot
    time order. The residuals are r0 - Z beta, for r0 the target less the
    fixed trend, or, when b_lev is free, less the target's mean, which the
    level knots absorb exactly (beta_shift) since every level kernel row
    sums to 1. Under Gaussian noise the residual sum of squares is the
    quadratic s0 - 2 beta'c + beta'G beta with G = Z'Z, c = Z'r0 and s0 =
    r0'r0 built once; a call does one G @ beta over the banded row blocks
    _gram builds, and centering keeps s0 small, so the quadratic loses few
    digits to cancellation. Student-t noise is not quadratic in beta: a
    call reads Z's tiles (kept in tiles) for the residuals (left in resid)
    and again for Z' times their d/dfit; only value() takes the rows'
    log1p terms.

    Calibration windows are quadratic in the regression knots under either
    noise family: a channel's windows sum to h'b - b'Hb/2 plus a constant,
    over the knots b their kernel rows reach. Each entry of windows holds
    its H and h, so a call does one H @ b per windowed channel in place of
    two products with each window's kernel rows. hessian(theta) is the
    Hessian as an operator built from the same parts.
    """

    def __init__(self, parts, include_jacobian):
        if not parts:
            raise ValidationError("an objective stack needs at least one structure")
        first = parts[0]
        if any((p.softplus_reg, p.nu) != (first.softplus_reg, first.nu) for p in parts):
            raise ValidationError("stacked structures must share the regression transform "
                                  "and the noise family")
        self.parts, self.include_jacobian = parts, include_jacobian
        self.softplus_reg, self.nu = first.softplus_reg, first.nu
        sizes = np.array([(p.n_chain, p.n_x, p.sigma_fixed is None, p.slots.size, p.order.size,
                           p.n) for p in parts]).reshape(len(parts), 6)
        offsets = np.vstack([np.zeros(6, dtype=int), np.cumsum(sizes, axis=0)])
        self.n_chain = n_chain = int(offsets[-1, 0])
        self.reg_end = reg_end = n_chain + int(offsets[-1, 1])
        self.dim = reg_end + int(offsets[-1, 2])
        self.lin_counts, self.row_counts = sizes[:, 4], sizes[:, 5]

        # t = [chain knots | x | 0 | each structure's mu_pool and fixed mu_reg]
        self.t = t = np.zeros(reg_end + 1 + int(offsets[-1, 3]))
        self.t_prior, self.t_chain, self.t_x = t[:reg_end], t[:n_chain], t[n_chain:reg_end]
        self.loc_of = loc_of = np.empty(reg_end, dtype=np.intp)
        self.inv = inv = np.empty(reg_end)
        self.inv_x = inv[n_chain:]
        self.neg_two_inv2 = np.zeros(reg_end - n_chain)
        self.beta_shift = np.concatenate([p.beta_shift for p in parts])
        # work buffers: each structure's reductions read its slices of them
        self.diff, self.mirror_log = np.empty(reg_end), np.empty(reg_end - n_chain)
        self.log_sig, self.z = np.empty(reg_end - n_chain), np.empty(reg_end - n_chain)
        self.diff_chain, self.diff_x = self.diff[:n_chain], self.diff[n_chain:]
        orders, windows, self.gram_blocks, self.tiles = [], [], [], []
        self.places, self.theta_of = [], []
        for k, (p, (ch, xo, so, slot, lin, row)) in enumerate(zip(parts, offsets[:-1].tolist())):
            chain, x = slice(ch, ch + p.n_chain), slice(xo, xo + p.n_x)
            slot += reg_end + 1
            t[slot:slot + p.slots.size] = p.slots

            def place(local, p=p, ch=ch, xo=xo, slot=slot):
                """The stack's buffer entries of these entries of p's."""
                return np.select([local < p.n_chain, local < p.reg_end, local == p.reg_end],
                                 [ch + local, n_chain + xo + local - p.n_chain, reg_end],
                                 slot + local - p.reg_end - 1)

            at = place(p.loc_of)
            loc_of[chain], loc_of[n_chain + xo:n_chain + x.stop] = at[:p.n_chain], at[p.n_chain:]
            inv[chain], self.inv_x[x] = p.inv[:p.n_chain], p.inv[p.n_chain:]
            inv_f = p.inv[p.n_chain + p.fold:]
            self.neg_two_inv2[xo + p.fold:x.stop] = -2.0 * inv_f * inv_f
            b_reg = t[n_chain + xo:n_chain + xo + p.n_b].reshape(p.reg_shape)
            orders.append(place(p.order))
            if p.nu is None:
                self.gram_blocks += _offset(p.gram_blocks, lin)
            else:
                self.tiles += [(slice(r.start + row, min(r.stop, p.n) + row), a + lin, zt)
                               for r, a, zt in p.tiles]
            # b is a view of the buffer's knots, at these places of t
            windows += [(k, knots, channel, H, h, b_reg[knots, channel], place(w_at))
                        for knots, channel, H, h, w_at in p.windows]
            sigma = reg_end + so if p.sigma_fixed is None else None
            self.places.append((chain, x, slice(lin, lin + p.order.size), slice(row, row + p.n),
                                sigma))
            self.theta_of.append(np.concatenate((
                np.arange(ch, chain.stop), n_chain + np.arange(xo, x.stop),
                np.arange(reg_end + so, reg_end + so + (sigma is not None)))))
        self.order = np.concatenate(orders)
        self.owner = np.empty(self.dim, dtype=np.intp)  # the structure of each theta entry
        for k, at in enumerate(self.theta_of):
            self.owner[at] = k

        # the call's one np.bincount: the entries of t its weights go to, and
        # the weights' slices, the prior's d/dloc, the likelihood's d/dbeta
        # and each g_b
        self.scatter_to = np.concatenate([loc_of, self.order] + [w[-1] for w in windows])
        self.weights = weights = np.empty(self.scatter_to.size)
        self.w_prior = weights[:reg_end]
        self.w_chain, self.w_x = weights[:n_chain], weights[n_chain:reg_end]
        self.w_lin = weights[reg_end:reg_end + self.order.size]  # in time order
        g_bs = np.split(weights[reg_end + self.order.size:],
                        np.cumsum([w[-1].size for w in windows]))
        self.windows = [(*w[:-1], g_b) for w, g_b in zip(windows, g_bs)]
        self.window_places = [w[-1] for w in windows]

        # each structure's views of the buffers its reductions read
        self.prior_terms = [
            (p.const, self.diff[chain], self.w_prior[chain],
             self.mirror_log[x.start + p.fold:x.stop], self.z[x])
            for p, (chain, x, *_) in zip(parts, self.places)]
        self.jacobian_terms = [self.log_sig[x] for _, x, *_ in self.places]
        self.sigma_of = [(at, p.sigma_fixed) for p, (*_, at) in zip(parts, self.places)]
        if first.nu is None:
            self.c = np.concatenate([p.c for p in parts])
            self.r_c = np.empty(self.c.size)
            self.fit_values = [0.0] * len(parts)  # each log-likelihood, set by gradient
            self.fit_terms = [(p.n, p.s0, lin, self.r_c[lin], self.w_lin[lin], at, p.sigma_fixed)
                              for p, (_, _, lin, _, at) in zip(parts, self.places)]
        else:
            self.r0 = np.concatenate([p.r0 for p in parts])
            self.resid, self.log_terms, self.shares = (np.empty(self.r0.size) for _ in range(3))
            self.fit_terms = [(p.n, self.log_terms[rows], self.shares[rows], at)
                              for p, (_, _, _, rows, at) in zip(parts, self.places)]
        self.values = []

    @classmethod
    def stack(cls, problems, include_jacobian):
        """The objective of the structures (inputs, hp, packing,
        calibration) in problems, stacked in that order. They must share
        the regression transform and the noise family."""
        return cls([_Structure(*problem) for problem in problems], include_jacobian)

    def subset(self, keep):
        """(the stack of the structures at the increasing places keep, and
        where the entries of its theta sit in this one's theta), built from
        this stack's compiled parts."""
        return (Objective([self.parts[k] for k in keep], self.include_jacobian),
                np.flatnonzero(np.isin(self.owner, keep)))

    def _sigmas(self, theta):
        """Each structure's (ln sigma_obs, sigma_obs) at theta. A sigma that
        underflows (or whose square does) gives a non-finite value, not an
        error."""
        return [fixed or (float(theta[at]), float(np.exp(theta[at])))
                for at, fixed in self.sigma_of]

    def __call__(self, theta, out=None):
        grad = self.gradient(theta, out)
        return self.value(), grad

    def gradient(self, theta, out=None):
        """The gradient at theta (a fresh array, or written into out). The
        buffers it leaves are what value() reduces."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValidationError(f"theta length {theta.shape} != packing dim {self.dim}")
        grad = np.empty(self.dim) if out is None else out
        n_chain, reg_end, t_x = self.n_chain, self.reg_end, self.t_x

        raw = theta[n_chain:reg_end]
        if self.softplus_reg:
            self.t_chain[:] = theta[:n_chain]
            np.logaddexp(0.0, raw, out=t_x)  # softplus, as unpack computes it
            log_sig = np.subtract(raw, t_x, out=self.log_sig)  # ln sigmoid(raw)
            dx_draw = np.exp(log_sig)
        else:
            self.t_prior[:] = theta[:reg_end]

        # every prior entry against its location: diff keeps t - loc for
        # value(), and w_prior becomes d value / d loc, [sign | z] inv plus
        # the mirror's, for z = (x - loc) inv
        neg_two_inv2, w_prior, w_x = self.neg_two_inv2, self.w_prior, self.w_x
        loc = self.t[self.loc_of]
        np.subtract(self.t_prior, loc, out=self.diff)
        np.sign(self.diff_chain, out=self.w_chain)
        np.multiply(self.diff_x, self.inv_x, out=w_x)
        loc_x = loc[n_chain:]
        neg_a = loc_x * t_x
        neg_a *= neg_two_inv2
        mirror_log = np.logaddexp(0.0, neg_a, out=self.mirror_log)  # log(1 + e^-a)
        # the mirror term's d/dx is c loc and its d/dloc is c x, for
        # c = -2 inv^2 sigmoid(-a) = -2 inv^2 e^(-a - log(1 + e^-a))
        c = np.exp(neg_a - mirror_log)
        c *= neg_two_inv2
        w_prior *= self.inv
        g = grad[:reg_end]
        np.negative(w_prior, out=g)
        g[n_chain:] += c * loc_x
        w_x += c * t_x

        # the likelihood in the knots' time order; w_lin becomes its d/dbeta,
        # scattered over order
        nu, w_lin = self.nu, self.w_lin
        beta = self.t[self.order]
        beta -= self.beta_shift
        if nu is None:
            # through the Gram quadratic; r = Z'resid. d/d ln sigma needs
            # ss, so the log-likelihood is kept for value()
            for rows, cols, block in self.gram_blocks:
                np.dot(block, beta[cols], out=w_lin[rows])
            np.subtract(self.c, w_lin, out=w_lin)
            np.add(w_lin, self.c, out=self.r_c)
            for k, (n, s0, lin, r_c, r, at, fixed) in enumerate(self.fit_terms):
                # as _sigmas gives it
                ln_sigma, sigma = fixed or (float(theta[at]), float(np.exp(theta[at])))
                ss = s0 - float(beta[lin] @ r_c)
                var = sigma * sigma
                inv_var = 1.0 / var if var else math.inf
                self.fit_values[k] = -n * ln_sigma - 0.5 * ss * inv_var
                if at is not None:
                    grad[at] = ss * inv_var - n
                r *= inv_var
        else:
            self.sigmas = sigmas = self._sigmas(theta)
            resid = self.resid
            resid[:] = self.r0
            for rows, at, zt in self.tiles:
                resid[rows] -= beta[at] @ zt
            self.nu_var = nu_var = np.repeat([nu * sigma * sigma for _, sigma in sigmas],
                                             self.row_counts)
            self.sq = sq = resid * resid
            denom = nu_var + sq
            np.divide(sq, denom, out=self.shares)
            for n, _, shares, at in self.fit_terms:
                if at is not None:
                    grad[at] = (nu + 1.0) * float(np.add.reduce(shares)) - n
            dfit = (nu + 1.0) * resid / denom
            w_lin[:] = 0.0
            for rows, at, zt in self.tiles:
                w_lin[at] += zt @ dfit[rows]

        for _, _, _, H, h, b, g_b in self.windows:
            np.subtract(h, H @ b, out=g_b)
        g += np.bincount(self.scatter_to, weights=self.weights, minlength=self.t.size)[:reg_end]

        if self.softplus_reg:
            g_x = grad[n_chain:reg_end]
            g_x *= dx_draw
            if self.include_jacobian:
                g_x += np.exp(-t_x)  # d/draw of ln sigmoid(raw) is sigmoid(-raw) = e^-x
        return grad

    def value(self):
        """The value at the theta of the last gradient call, reduced from the
        buffers it left; obj.values becomes each structure's. Each sums its
        prior, likelihood, windows and log-Jacobian in that order."""
        nu = self.nu
        np.multiply(self.diff_x, self.inv_x, out=self.z)
        # np.add.reduce is ndarray.sum, the same reduction, without its
        # Python-level wrapper. The chain terms' sum |d| inv, d = t - loc, is
        # d . (sign(d) inv), the chain part of w_prior: each product is
        # |d| inv exactly, so the dot has the same bits
        total = np.add.reduce
        values = [const - float(d @ sign_inv) + float(total(mirror) - 0.5 * (z_x @ z_x))
                  for const, d, sign_inv, mirror, z_x in self.prior_terms]
        if nu is None:
            values = [value + fit_value for value, fit_value in zip(values, self.fit_values)]
        else:
            np.log1p(np.divide(self.sq, self.nu_var, out=self.log_terms), out=self.log_terms)
            for k, (n, log_terms, _, _) in enumerate(self.fit_terms):
                values[k] += -n * self.sigmas[k][0] - 0.5 * (nu + 1.0) * float(total(log_terms))
        for k, _, _, _, h, b, g_b in self.windows:
            values[k] += 0.5 * float(b @ (h + g_b))  # h'b - b'Hb/2
        if self.softplus_reg and self.include_jacobian:
            # ln sigmoid(raw)
            for k, log_sig_x in enumerate(self.jacobian_terms):
                values[k] += float(total(log_sig_x))
        self.values = values
        return sum(values)

    def hessian(self, theta):
        """H, the Hessian of the objective at theta, as a Hessian operator,
        exact away from the Laplace kinks: a chain term is linear on either
        side of its kink and adds 0.

        One gradient call fills the buffer and gives the gradient; every
        other term is a second derivative in the buffer's coordinates,
        negated (-H, the curvature) until the end. The likelihood gives a
        band over the knots in their time order: G / sigma^2 under Gaussian
        noise, and under Student-t noise the observed information Z'WZ, for
        W each row's -d^2/dfit^2 at the residual the call left in resid,
        which _gram builds from Z's tiles per structure, as it builds G. Its
        column of ln sigma is 2 d/dbeta of the likelihood under Gaussian noise
        and Z' times each row's -d^2/dfit d ln sigma under Student-t (the c
        _gram returns with Z'WZ); ln sigma's
        own entry is 2 ss / sigma^2, or 2 (nu + 1) sum q / (1 + q)^2 for q =
        r^2 / (nu sigma^2). The windows add their H. Each folded-normal or
        Gaussian term adds its -d^2/dx^2 on its entry, its -d^2/dloc^2 on
        its location slot (one np.bincount over loc_of: every channel's
        knots onto its mu_reg), and, where the location is a free entry
        (a b_reg knot's mu_reg), its -d^2/dx dloc on the pair. A softplus
        entry then takes the chain rule: an entry (i, j) is scaled by s_i
        s_j, s = sigmoid(raw) (1 off the x entries), and the diagonal adds
        -s (1 - s) L_x, where s L_x is the call's gradient less the
        log-Jacobian's e^-x = 1 - s, and the log-Jacobian's own s (1 - s).
        """
        grad = self.gradient(theta)
        nu, n_chain, reg_end, t_x = self.nu, self.n_chain, self.reg_end, self.t_x
        neg_two_inv2, order = self.neg_two_inv2, self.order
        curv = np.zeros(self.dim)  # the diagonal of -H
        on_u = curv[:reg_end]
        to, frm, values = [], [], []  # -H's entries off the diagonal and the band

        # the x entries' terms against their locations
        x_at, loc_at = np.arange(n_chain, reg_end), self.loc_of[n_chain:]
        loc = self.t[loc_at]
        inv2 = self.inv_x * self.inv_x
        # the mirror log(1 + e^-a) has d^2/dx^2 = (2 inv^2 loc)^2 p (1 - p)
        # for p = sigmoid(-a) = e^(-a - log(1 + e^-a)) and 1 - p =
        # e^-log(1 + e^-a); its d^2/dloc^2 has x in place of loc, and its
        # d^2/dx dloc is -2 inv^2 p + 4 inv^4 x loc p (1 - p)
        neg_a = loc * t_x * neg_two_inv2
        log_1p = np.logaddexp(0.0, neg_a)
        mirror = np.exp(neg_a - 2.0 * log_1p) * neg_two_inv2 * neg_two_inv2
        on_u[n_chain:] = inv2 - mirror * loc ** 2
        on_u += np.bincount(loc_at, weights=inv2 - mirror * t_x * t_x,
                            minlength=self.t.size)[:reg_end]
        free = loc_at < reg_end
        cross = -(inv2 + neg_two_inv2 * np.exp(neg_a - log_1p) + mirror * t_x * loc)[free]
        to += [x_at[free], loc_at[free]]
        frm += [loc_at[free], x_at[free]]
        values += [cross, cross]
        for (*_, H, _, _, _), at in zip(self.windows, self.window_places):
            on_u[at] += np.diag(H)
            off = ~np.eye(at.size, dtype=bool)
            to.append(np.repeat(at, at.size).reshape(H.shape)[off])
            frm.append(np.tile(at, at.size).reshape(H.shape)[off])
            values.append(H[off])

        sigmas = self._sigmas(theta)
        if nu is None:
            band, band_var = self.gram_blocks, np.repeat([s * s for _, s in sigmas],
                                                         self.lin_counts)
            column = 2.0 * self.w_lin  # the call left d/dbeta in w_lin
            for p, (*_, at) in zip(self.parts, self.places):
                if at is not None:  # the call's d/d ln sigma is ss / sigma^2 - n
                    curv[at] = 2.0 * (grad[at] + p.n)
        else:  # the call left the residuals in resid
            nu_var = np.repeat([nu * s * s for _, s in sigmas], self.row_counts)
            sq = self.resid * self.resid
            denom2 = nu_var + sq
            denom2 *= denom2
            w = (nu + 1.0) * (nu_var - sq) / denom2
            d_sigma = 2.0 * (nu + 1.0) * self.resid * nu_var / denom2
            shares = sq * nu_var / denom2
            column, band, band_var = np.empty(order.size), [], 1.0
            for p, (_, _, lin, rows, at) in zip(self.parts, self.places):
                # its own band, so a product has the bits of its Hessian alone
                blocks, column[lin] = _gram(p.tiles, p.order.size, d_sigma[rows], w[rows])
                band += _offset(blocks, lin.start)
                if at is not None:
                    curv[at] = 2.0 * (nu + 1.0) * float(shares[rows].sum())
        band_diag = np.zeros(order.size)
        for rows, cols, block in band:
            on = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
            band_diag[on] = block[on - rows.start, on - cols.start]
        on_u[order] += band_diag / band_var
        for _, _, lin, _, at in self.places:
            if at is not None:
                to += [order[lin], np.full_like(order[lin], at)]
                frm += [np.full_like(order[lin], at), order[lin]]
                values += [column[lin], column[lin]]

        to, frm, values = np.concatenate(to), np.concatenate(frm), np.concatenate(values)
        scale = np.ones(self.dim)  # d buffer / d theta: s on the x entries, else 1
        if self.softplus_reg:
            s = scale[n_chain:reg_end] = np.exp(theta[n_chain:reg_end] - t_x)  # as dx_draw
            e = np.exp(-t_x)  # 1 - s
            s_grad = grad[n_chain:reg_end] - e if self.include_jacobian else grad[n_chain:reg_end]
            on_u[n_chain:] *= s * s
            on_u[n_chain:] -= e * s_grad
            if self.include_jacobian:
                on_u[n_chain:] += s * e
            values *= scale[to] * scale[frm]
        # H's band is -f_i f_j band_ij, for f = s / sigma under Gaussian
        # noise and f = s under Student-t
        f = scale[order] / np.sqrt(band_var)
        return Hessian(-curv, order, band, f, band_diag, to, frm, -values)


class Hessian:
    """The Hessian H of an objective at one theta (Objective.hessian), as an
    operator: diagonal is diag(H), and dot(v) is H v, a fresh array.

    H is a band over the knots in their time order, -f_i f_j band_ij (the
    likelihood's: row blocks as _gram lays them out, read in place, so
    under Gaussian noise a product streams the Gram blocks the gradient
    has just read), plus the entries (to, frm, values) of the rest: the
    diagonal less the band's, the windows', the folded-normal pairs of a
    b_reg knot and its mu_reg, and the ln sigma rows and columns. dot
    gathers the v entries both parts read in one call, writes the terms
    into the slices of one weight buffer and adds them up by one
    np.bincount, as Objective.gradient does, so a product is a few numpy
    calls however many parts H has. The buffers belong to the object, so
    calls to one Hessian must not run concurrently.
    """

    def __init__(self, diagonal, order, band, f, band_diag, to, frm, values):
        self.diagonal, self.band, self.dim = diagonal, band, diagonal.size
        self.f, self.neg_f = f, -f
        on = np.arange(self.dim)
        rest = diagonal.copy()
        rest[order] += f * f * band_diag
        self.values = np.concatenate([rest, values])
        self.n_entries = self.values.size
        self.gather = np.concatenate([on, frm, order])
        self.scatter_to = np.concatenate([on, to, order])
        self.weights = np.empty(self.scatter_to.size)
        self.w_entries, self.w_band = self.weights[:self.n_entries], self.weights[self.n_entries:]

    def dot(self, v):
        gathered = v[self.gather]
        np.multiply(self.values, gathered[:self.n_entries], out=self.w_entries)
        v_band = gathered[self.n_entries:]
        v_band *= self.f
        for rows, cols, block in self.band:
            np.dot(block, v_band[cols], out=self.w_band[rows])
        self.w_band *= self.neg_f
        return np.bincount(self.scatter_to, weights=self.weights, minlength=self.dim)
