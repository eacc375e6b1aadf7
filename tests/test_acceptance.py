"""Release gate.

Every promised behavior of the package, checked end to end at its stated
tolerance. Each test prints one verdict line, and conftest repeats them in
the terminal summary. Evaluation seeds (100+) are disjoint from the seeds
used while choosing the model settings.
"""

import dataclasses
import time

import numpy as np

from btvc.calibration import PriorWindow, apply_prior_windows
from btvc.evaluation import (
    BacktestPlan,
    backtest,
    coef_mse,
    pinball,
    seasonal_naive_forecaster,
    smape,
    split_bounds,
)
from btvc.inference import (
    MapConfig,
    ParameterPacking,
    draw_posterior,
    fit_map,
    fit_maps,
    fit_svis,
    save_fit,
)
from btvc.kernels import KnotGrid, kernel_matrix
from btvc.model import HyperParams, ModelDesign, ModelInputs, decompose
from btvc.pipeline import (
    backtest_plan_from,
    build_structure,
    map_config_from,
    run_backtest,
    run_fit,
    svi_config_from,
)
from btvc.runconfig import RunConfig
from btvc.simulation import (
    MultiplicativeSimConfig,
    SimConfig,
    SparsitySpec,
    simulate_multiplicative,
    simulate_rw,
)

from tests.oracle import check_gradient
from tests.test_evaluation import enumerate_bounds
from tests.test_inference import conjugate_problem

RESULTS: list[str] = []

EVAL_SEEDS = list(range(100, 120))
BACKTEST_SEEDS = list(range(100, 110))


def record(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


def recovery_cfg(seed: int, **kw) -> RunConfig:
    values = dict(
        link="identity", fourier="", knot_distance_lev=30, knot_distance_reg=20,
        sigma_reg=0.3, rho=20.0, map_iterations=10000, seed=seed,
    )
    values.update(kw)
    return dataclasses.replace(RunConfig(), **values)


def test_coefficient_recovery():
    per_rep = []
    slowest = 0.0
    for seed in EVAL_SEEDS:
        started = time.perf_counter()
        ds = simulate_rw(SimConfig(seed=seed))
        fit, inputs = run_fit(ds.frame, recovery_cfg(seed))
        decomp = decompose(fit.params, inputs.design)
        per_rep.append(coef_mse(decomp.coefficients, ds.true_coefficients))
        slowest = max(slowest, time.perf_counter() - started)
    channel_mse = np.mean(per_rep, axis=0)
    formatted = "/".join(f"{v:.4f}" for v in channel_mse)
    record(
        "coefficient recovery",
        bool(np.all(channel_mse <= 0.01)) and slowest <= 60.0,
        f"20-rep per-channel MSE {formatted} (bound 0.01); "
        f"slowest rep {slowest:.1f}s (cap 60s)",
    )


CAL_WINDOWS = [(0, 100, 129), (1, 80, 109), (1, 200, 229), (2, 150, 179)]


def _interval_stats(fit, inputs, truth, seed):
    draws = draw_posterior(fit, inputs.design.k_reg, 400, seed=seed)
    q = draws.coefficient_quantiles([0.025, 0.5, 0.975])
    widths, errors = [], []
    for ch, start, end in CAL_WINDOWS:
        widths.append(float((q[0.975] - q[0.025])[start - 1:end, ch].mean()))
        errors.append(smape(q[0.5][end:end + 30, ch], truth[end:end + 30, ch]))
    return float(np.mean(widths)), float(np.mean(errors))


def test_prior_window_calibration():
    # each seed's plain and informed fits; all 40 MAP fits run as one stack,
    # then all 40 SVI fits
    narrower = better_after = 0
    runs, cases = [], []
    for seed in EVAL_SEEDS:
        ds = simulate_rw(SimConfig(seed=seed))
        truth = ds.true_coefficients
        names = ds.frame.regressor_names
        cfg = recovery_cfg(seed, mode="svi")
        inputs, hp, _ = build_structure(ds.frame, cfg)
        windows = [
            PriorWindow(
                channel=names[ch], start=start, end=end,
                mean=max(float(truth[start - 1:end, ch].mean()), 0.0), sd=0.1,
            )
            for ch, start, end in CAL_WINDOWS
        ]
        terms = apply_prior_windows(windows, names, ds.frame.n_times)
        runs += [(inputs, hp, cfg, ()), (inputs, hp, cfg, terms)]
        cases.append((seed, inputs, truth))
    inits = fit_maps([(inputs, hp, map_config_from(cfg), None, terms)
                      for inputs, hp, cfg, terms in runs])
    fits = fit_svis([(inputs, hp, svi_config_from(cfg), None, terms, init)
                     for (inputs, hp, cfg, terms), init in zip(runs, inits)])
    for (seed, inputs, truth), plain, informed in zip(cases, fits[::2], fits[1::2]):
        width_plain, err_plain = _interval_stats(plain, inputs, truth, seed + 1)
        width_inf, err_inf = _interval_stats(informed, inputs, truth, seed + 1)
        narrower += width_inf < width_plain
        better_after += err_inf < err_plain
    record(
        "prior-window calibration",
        narrower >= 18 and better_after >= 14,
        f"narrower in-window intervals {narrower}/20 (need 18); "
        f"better after-window SMAPE {better_after}/20 (need 14)",
    )


def test_zero_spend_shrinkage():
    wins = 0
    for seed in EVAL_SEEDS:
        spec = SparsitySpec(channel=1, start=150, end=249, zero_prob=1.0)
        ds = simulate_rw(SimConfig(seed=seed, sparsity=spec))
        fit, inputs = run_fit(ds.frame, recovery_cfg(seed))
        beta = decompose(fit.params, inputs.design).coefficients
        beta_win = float(beta[149:249, 1].mean())
        pooled = float(fit.params.mu_reg[1])
        wins += abs(beta_win - pooled) < abs(beta_win)
    record(
        "zero-spend shrinkage",
        wins >= 18,
        f"window beta closer to the pooled mean than to zero on {wins}/20 (need 18)",
    )


def test_gradient_correctness():
    ds = simulate_multiplicative(MultiplicativeSimConfig(T=120, seed=5))
    cfg = dataclasses.replace(
        RunConfig(), fourier="7:2", knot_distance_lev=30, knot_distance_reg=20,
        sigma_reg=0.3, rho=20.0,
    )
    inputs, hp, _ = build_structure(ds.frame, cfg)
    names = ds.frame.regressor_names
    terms = apply_prior_windows(
        [PriorWindow(channel=names[0], start=40, end=69, mean=0.4, sd=0.1)],
        names, ds.frame.n_times,
    )
    full = check_gradient(inputs, hp, n_points=20, seed=11, calibration=terms)

    q_inputs, q_hp, q_packing, _, _, _ = conjugate_problem(5)
    quad = check_gradient(q_inputs, q_hp, q_packing, np.array([0.3]),
                          n_points=20, seed=2)
    record(
        "gradient correctness",
        full.max_rel_error <= 1e-4 and quad.max_rel_error <= 1e-8,
        f"full model max rel err {full.max_rel_error:.2e} over 20 points (cap 1e-4); "
        f"quadratic case {quad.max_rel_error:.2e} (cap 1e-8)",
    )


def test_conjugate_ridge_oracle():
    rng = np.random.default_rng(7)
    T, P, sigma, sigma_reg = 40, 2, 0.7, 0.6
    worst = 0.0
    for inst in range(10):
        x = rng.normal(3.0, 1.0, (T, P))
        y = rng.normal(0.0, 1.0, T)
        mu = rng.normal(0.3, 0.1, P)
        grid = KnotGrid(knot_times=[1], T=T)
        k = kernel_matrix(grid, "level")
        design = ModelDesign(
            regressors=x, seasonal=np.zeros((T, 0)), k_lev=k, k_seas=k,
            k_reg=kernel_matrix(grid, "gaussian", rho=1.0),
        )
        inputs = ModelInputs(design=design, target=y)
        hp = HyperParams(sigma_reg=sigma_reg)
        packing = ParameterPacking(
            n_lev=1, n_seas_knots=1, n_seas_cols=0, n_reg_knots=1, n_channels=P,
            reg_transform="identity", fixed_b_lev=np.zeros(1), fixed_mu_reg=mu,
            fixed_sigma_obs=sigma,
        )
        config = MapConfig(iterations=3000, rel_tol=0.0,
                           learning_rate=0.05, final_learning_rate=1e-8, seed=inst)
        fit = fit_map(inputs, hp, config, packing=packing)
        ridge = np.linalg.solve(
            x.T @ x / sigma**2 + np.eye(P) / sigma_reg**2,
            x.T @ y / sigma**2 + mu / sigma_reg**2,
        )
        worst = max(worst, float(np.max(np.abs(fit.params.b_reg[0] - ridge))))
    record(
        "conjugate ridge oracle",
        worst <= 1e-6,
        f"max |MAP - closed form| {worst:.2e} over 10 instances (cap 1e-6)",
    )


def test_kernel_row_invariants():
    rng = np.random.default_rng(3)
    max_dev = 0.0
    max_nonzeros = 0
    for _ in range(50):
        T = int(rng.integers(30, 400))
        n_knots = int(rng.integers(1, 13))
        times = np.sort(rng.choice(np.arange(1, T + 1), size=n_knots, replace=False))
        grid = KnotGrid(knot_times=times, T=T)
        level = kernel_matrix(grid, "level", times=range(1, T + 28 + 1))
        gauss = kernel_matrix(grid, "gaussian", rho=float(rng.uniform(2.0, 40.0)),
                              times=range(1, T + 28 + 1))
        for km in (level, gauss):
            max_dev = max(max_dev, float(np.max(np.abs(km.weights.sum(axis=1) - 1.0))))
        max_nonzeros = max(max_nonzeros, int((level.weights != 0).sum(axis=1).max()))
    record(
        "kernel row invariants",
        max_dev <= 1e-12 and max_nonzeros <= 2,
        f"max |row sum - 1| {max_dev:.2e} over 100 matrices with 28 forecast rows "
        f"(cap 1e-12); level nonzeros per row <= {max_nonzeros} (cap 2)",
    )


def test_metric_identities():
    rng = np.random.default_rng(11)
    max_sym = max_scale = max_pin = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        a = rng.normal(0.0, 50.0, n)
        b = rng.normal(0.0, 50.0, n)
        max_sym = max(max_sym, abs(smape(a, b) - smape(b, a)))
        c = float(np.exp(rng.normal()))
        max_scale = max(max_scale, abs(smape(c * a, c * b) - smape(a, b)))
        max_pin = max(
            max_pin, abs(pinball(a, b, 0.5) - float(np.abs(a - b).mean()) / 2.0)
        )
    splits_ok = True
    for _ in range(50):
        horizon = int(rng.integers(1, 40))
        splits = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 40))
        T = horizon + (splits - 1) * stride + int(rng.integers(1, 200))
        plan = BacktestPlan(horizon=horizon, splits=splits, min_train=1, stride=stride)
        splits_ok &= split_bounds(T, plan) == enumerate_bounds(T, horizon, splits, stride)
    record(
        "metric identities",
        max(max_sym, max_scale, max_pin) <= 1e-12 and splits_ok,
        f"1000 pairs: smape symmetry {max_sym:.1e}, scale invariance {max_scale:.1e}, "
        f"pinball(0.5) vs MAE/2 {max_pin:.1e} (all cap 1e-12); "
        f"split bounds matched enumeration on 50 plans: {splits_ok}",
    )


def test_byte_identical_refits(tmp_path):
    ds = simulate_multiplicative(MultiplicativeSimConfig(T=150, seed=8))
    outcomes = []
    # the Student-t fit reads Z's tiles rather than the Gram blocks
    for name, extra in (("map", {"mode": "map"}),
                        ("svi", {"mode": "svi", "svi_iterations": 300}),
                        ("student_t_map", {"mode": "map", "noise_df": 4.0})):
        cfg = dataclasses.replace(
            RunConfig(), link="log", fourier="7:2", knot_distance_lev=30,
            knot_distance_reg=20, sigma_reg=0.3, rho=20.0, map_iterations=1500,
            seed=8, **extra,
        )
        docs = []
        for attempt in range(2):
            fit, _ = run_fit(ds.frame, cfg)
            path = tmp_path / f"{name}_{attempt}.json"
            save_fit(fit, str(path))
            docs.append(path.read_bytes())
        outcomes.append(docs[0] == docs[1])
    record(
        "byte-identical refits",
        all(outcomes),
        f"same data+config+seed wrote identical fit documents: "
        f"map={outcomes[0]}, svi={outcomes[1]}, student_t_map={outcomes[2]}",
    )


def test_backtest_beats_seasonal_naive():
    wins = 0
    pairs = []
    for seed in BACKTEST_SEEDS:
        ds = simulate_multiplicative(MultiplicativeSimConfig(seed=seed))
        cfg = dataclasses.replace(
            RunConfig(), seed=seed, link="log", fourier="7:2",
            knot_distance_lev=30, knot_distance_reg=20, sigma_reg=0.3, rho=20.0,
            map_iterations=10000, backtest_horizon=28, backtest_splits=6,
        )
        model = run_backtest(ds.frame, cfg)[0].mean
        naive = backtest(
            ds.frame, seasonal_naive_forecaster(7), backtest_plan_from(cfg),
            root_seed=seed,
        ).mean
        wins += model < naive
        pairs.append((model, naive))
    mean_model = np.mean([p[0] for p in pairs])
    mean_naive = np.mean([p[1] for p in pairs])
    record(
        "backtest vs seasonal naive",
        wins >= 7,
        f"lower mean SMAPE on {wins}/10 seeds (need 7); "
        f"mean SMAPE {mean_model:.3f} vs naive {mean_naive:.3f}",
    )
