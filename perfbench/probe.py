"""Objective micro-probe: per-call cost of the pieces of one objective call.

Times the model, calibration and inference functions that make up one
objective+gradient evaluation at a given theta, with tracing off, and
computes (not measures) the multiply-adds and bytes of the dense kernel
products in that call.
"""

from __future__ import annotations

import statistics

from btvc import calibration, model

from timing import now

BLOCKS = 5
BLOCK_SECONDS = 0.04


def per_call_us(fn) -> float:
    """Median over blocks of the mean per-call time, in microseconds."""
    t0 = now()
    fn()
    n = max(1, min(5000, int(BLOCK_SECONDS / max(now() - t0, 1e-7))))
    blocks = []
    for _ in range(BLOCKS):
        t0 = now()
        for _ in range(n):
            fn()
        blocks.append((now() - t0) / n)
    return statistics.median(blocks) * 1e6


def window_terms(inputs, coef):
    """A 28-day window on the first channel at the end of training, used to
    time the calibration term on workloads that have none of their own."""
    T = inputs.design.n_times
    start = max(1, T - 27)
    window = calibration.PriorWindow(
        channel=inputs.design.regressor_names[0], start=start, end=T,
        mean=float(coef[start - 1:, 0].mean()), sd=0.02,
    )
    return calibration.apply_prior_windows([window], inputs.design.regressor_names, T)


def objective(inputs, hp, packing, terms, include_jacobian):
    """The fit's objective, composed from the public functions: theta ->
    (log posterior [+ log-Jacobian], gradient with respect to theta)."""
    def f(theta):
        params = packing.unpack(theta)
        value, g = model.log_posterior_and_grad(params, inputs, hp, terms)
        grad = packing.chain_grad(theta, g)
        if include_jacobian:
            value += packing.log_jacobian(theta)
            grad = grad + packing.log_jacobian_grad(theta)
        return value, grad

    return f


def objective_probe(inputs, hp, packing, theta, terms, include_jacobian) -> dict:
    """Per-call microseconds at one theta. grad_backprop is derived as the
    full call minus the prior minus the likelihood."""
    params = packing.unpack(theta)
    _, pgrad = model.log_posterior_and_grad(params, inputs, hp, terms)
    coef = inputs.design.k_reg.weights @ params.b_reg
    cal_terms = terms or window_terms(inputs, coef)

    f = objective(inputs, hp, packing, terms, include_jacobian)

    out = {
        "model.log_posterior_and_grad_us": per_call_us(
            lambda: model.log_posterior_and_grad(params, inputs, hp, terms)),
        "model.log_prior_us": per_call_us(lambda: model.log_prior(params, hp)),
        "model.log_likelihood_us": per_call_us(
            lambda: model.log_likelihood(params, inputs, hp)),
        "model.decompose_us": per_call_us(lambda: model.decompose(params, inputs.design)),
        "calibration.value_and_coef_grad_us": per_call_us(
            lambda: [t.value_and_coef_grad(coef) for t in cal_terms]),
        "inference.unpack_us": per_call_us(lambda: packing.unpack(theta)),
        "inference.chain_grad_us": per_call_us(lambda: packing.chain_grad(theta, pgrad)),
        "inference.objective_us": per_call_us(lambda: f(theta)),
    }
    out["model.grad_backprop_us"] = (out["model.log_posterior_and_grad_us"]
                                     - out["model.log_prior_us"]
                                     - out["model.log_likelihood_us"])
    return out


def weights_bytes(inputs) -> int:
    """Bytes held by the three dense kernel matrices of a design."""
    d = inputs.design
    return int(d.k_lev.weights.nbytes + d.k_seas.weights.nbytes + d.k_reg.weights.nbytes)


def kernel_products(inputs) -> dict:
    """Computed cost of the dense kernel products in one objective call.

    Each kernel matrix is used once forward (K @ b) and once transposed in
    the gradient (K.T @ r); calibration terms add two more K_reg products
    each and are not counted. Bytes count one read of the matrix per
    product, the dominant traffic when the matrix does not fit in cache.
    """
    d = inputs.design
    T = d.n_times
    rows = {
        "k_lev": (d.k_lev.grid.n_knots, 1),
        "k_seas": (d.k_seas.grid.n_knots, d.seasonal.shape[1]),
        "k_reg": (d.k_reg.grid.n_knots, d.n_channels),
    }
    per_product = {}
    for name, (knots, cols) in rows.items():
        per_product[name] = {
            "shape": [T, knots], "rhs_cols": cols,
            "madds": 2 * T * knots * cols, "bytes": 2 * 8 * T * knots,
        }
    return {
        "per_product": per_product,
        "madds": sum(p["madds"] for p in per_product.values()),
        "bytes": sum(p["bytes"] for p in per_product.values()),
    }


def probe_structure(inputs, hp, packing, theta_init, theta_fit, terms,
                    include_jacobian) -> dict:
    """The probe table for one structure: both thetas plus computed costs."""
    return {
        "T": inputs.design.n_times,
        "dim": packing.dim,
        "init": objective_probe(inputs, hp, packing, theta_init, terms, include_jacobian),
        "fitted": objective_probe(inputs, hp, packing, theta_fit, terms, include_jacobian),
        "kernel_products_computed": kernel_products(inputs),
    }
