"""Wiring between configuration, data files, and the model modules.

Builds model structures from a RunConfig plus a frame, runs fits, rebuilds
designs from a saved fit document (including forecast-row-only designs so
predict does not need the training data), and writes run artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .calibration import apply_prior_windows, read_prior_windows_csv
from .errors import DivergenceError, ValidationError
from .evaluation import (BacktestPlan, MetricReport, _slice_frame, backtest, seed_for_split,
                         split_bounds)
from .fourier import fourier_design
from .inference import (
    FitResult,
    MapConfig,
    SviConfig,
    check_variational,
    draw_quantiles,
    fit_map,
    fit_maps,
    fit_svi,
    fit_svis,
    variational_draws,
)
from .kernels import KnotGrid, build_grid, kernel_matrix
from .model import (HyperParams, ModelDesign, ModelInputs, Structure, decompose, predict,
                    stacked_fitted)
from .runconfig import (
    RunConfig,
    config_to_dict,
    csv_schema,
    fourier_specs,
    settings,
)
from .timeframe import (TimeSeriesFrame, check_regressors, ingest_csv, model_scale, read_table,
                        write_table)


def load_frame(path: str, cfg: RunConfig) -> TimeSeriesFrame:
    return ingest_csv(
        path, csv_schema(cfg), allow_negative_regressors=cfg.link == "identity"
    )


def _component_grid(T: int, count: int, distance: int, anchor: str) -> KnotGrid:
    if count > 0:
        return build_grid(T, count=count)
    return build_grid(T, distance=min(distance, T), anchor=anchor)


def _auto_rho(grid: KnotGrid, T: int) -> float:
    if grid.n_knots > 1:
        return float(np.diff(grid.knot_times).mean()) / 2.0
    return max(T / 4.0, 1.0)


def build_structure(frame: TimeSeriesFrame, cfg: RunConfig):
    """Returns (inputs, hyper, the Structure for the fit document)."""
    T = frame.n_times
    specs = fourier_specs(cfg)
    grid_lev = _component_grid(T, cfg.knot_count_lev, cfg.knot_distance_lev, cfg.knot_anchor)
    grid_seas = _component_grid(T, cfg.knot_count_seas, cfg.knot_distance_seas, cfg.knot_anchor)
    grid_reg = _component_grid(T, cfg.knot_count_reg, cfg.knot_distance_reg, cfg.knot_anchor)
    rho = cfg.rho if cfg.rho > 0 else _auto_rho(grid_reg, T)
    structure = Structure(
        T=T,
        last_date=str(frame.timestamps[-1]),
        step_days=int(frame.step / np.timedelta64(1, "D")),
        knots_lev=grid_lev.knot_times.tolist(),
        knots_seas=grid_seas.knot_times.tolist(),
        knots_reg=grid_reg.knot_times.tolist(),
        rho=float(rho),
        fourier=[(s.period, s.order) for s in specs],
        link=cfg.link,
        zero_policy=cfg.zero_policy,
        floor_epsilon=cfg.floor_epsilon,
        regressor_names=frame.regressor_names,
    )
    x, target = model_scale(structure, frame.regressors, frame.response)
    inputs = ModelInputs(design=_design(structure, x, 1, T), target=target)
    hp = settings(HyperParams, cfg,
                  init_scale_lev=cfg.init_scale_lev or 10.0 * max(float(np.std(target)), 1e-3),
                  noise_df=cfg.noise_df or None)
    return inputs, hp, structure


def calibration_terms(frame: TimeSeriesFrame, cfg: RunConfig):
    if not cfg.prior_windows.strip():
        return ()
    windows = read_prior_windows_csv(cfg.prior_windows, frame)
    return apply_prior_windows(windows, frame.regressor_names, frame.n_times)


def map_config_from(cfg: RunConfig) -> MapConfig:
    return settings(MapConfig, cfg, "map_", seed=cfg.seed)


def svi_config_from(cfg: RunConfig) -> SviConfig:
    return settings(SviConfig, cfg, "svi_", seed=cfg.seed)


def run_fit(frame: TimeSeriesFrame, cfg: RunConfig) -> tuple[FitResult, ModelInputs]:
    """The fit of cfg to frame: MAP, and under mode=svi an SVI run from that
    MAP point, as each backtest split runs them."""
    inputs, hp, structure = build_structure(frame, cfg)
    terms = calibration_terms(frame, cfg)
    fit = fit_map(inputs, hp, map_config_from(cfg), calibration=terms)
    if cfg.mode == "svi":
        fit = fit_svi(inputs, hp, svi_config_from(cfg), calibration=terms, init=fit)
    fit.config = config_to_dict(cfg)
    fit.structure = structure
    return fit, inputs


# -- designs from a saved fit -------------------------------------------------

def require_structure(structure: Structure | None, source: str = "this fit") -> None:
    """A library fit (a fit_map or fit_svi result) has no structure to build designs from."""
    if structure is None:
        raise ValidationError(
            f"structure block is empty in {source}: a library fit has no design recipe")


def _design(structure: Structure, x: np.ndarray, first: int, n: int) -> ModelDesign:
    """Design of a saved structure for rows first..first+n-1 (rows past T are
    forecast rows), given the model-scale regressors of those rows."""
    times = range(first, first + n)
    grid_lev, grid_seas, grid_reg = structure.knot_grids
    return ModelDesign(
        regressors=x,
        seasonal=fourier_design(structure.T, structure.fourier_specs, times=times),
        k_lev=kernel_matrix(grid_lev, "level", times=times),
        k_seas=kernel_matrix(grid_seas, "level", times=times),
        k_reg=kernel_matrix(grid_reg, "gaussian", rho=structure.rho, times=times),
        regressor_names=structure.regressor_names,
    )


def training_design(structure: Structure, frame: TimeSeriesFrame) -> ModelDesign:
    """Rebuild the rows-1..T design of a saved fit from the original data,
    whose dates (in date order) must be the fit's training calendar."""
    require_structure(structure)
    if frame.n_times != structure.T:
        raise ValidationError(
            f"data has {frame.n_times} rows but the fit was trained on {structure.T}"
        )
    expected = _row_dates(structure, np.arange(1, structure.T + 1))
    wrong = np.flatnonzero(frame.timestamps != expected)
    if wrong.size:
        r = wrong[0]
        raise ValidationError(
            f"data row {r + 1} has date {frame.timestamps[r]}, expected {expected[r]}"
        )
    if frame.regressor_names != structure.regressor_names:
        raise ValidationError("data regressor columns do not match the fit")
    return _design(structure, model_scale(structure, frame.regressors)[0], 1, structure.T)


def forecast_design(structure: Structure, future_regressors: np.ndarray,
                    horizon: int) -> ModelDesign:
    """Design covering only the forecast rows T+1 .. T+horizon."""
    require_structure(structure)
    if horizon < 1:
        raise ValidationError("horizon must be >= 1 for a forecast design")
    x = np.asarray(future_regressors, dtype=float)
    P = len(structure.regressor_names)
    if x.shape != (horizon, P):
        raise ValidationError(
            f"future regressors shape {x.shape} does not match ({horizon}, {P})"
        )
    return _design(structure, model_scale(structure, x)[0], structure.T + 1, horizon)


def predict_from_fit(fit: FitResult, future_regressors: np.ndarray,
                     horizon: int) -> np.ndarray:
    if horizon == 0:
        return np.zeros(0)
    design = forecast_design(fit.structure, future_regressors, horizon)
    return predict(fit.params, design, horizon, link=fit.structure.link)


def _reached_entries(packing, reach) -> np.ndarray:
    """The theta entries of the knots reach names (trend, seasonal and
    regression knot slices), and mu_reg and ln sigma_obs, which a draw's
    checks read."""
    sl = packing.slices()
    widths = {"b_lev": 1, "b_seas": packing.n_seas_cols, "b_reg": packing.n_channels}
    out = [np.arange(sl[name].start, sl[name].stop)[knots.start * width:knots.stop * width]
           for (name, width), knots in zip(widths.items(), reach) if name in sl]
    out += [np.arange(sl[name].start, sl[name].stop) for name in ("mu_reg", "ln_sigma_obs")
            if name in sl]
    return np.concatenate(out)


def forecast_quantiles(fit: FitResult, future_regressors: np.ndarray, horizon: int,
                       levels, n_draws: int, seed: int = 0) -> dict[float, np.ndarray]:
    """Empirical forecast quantiles from variational draws, all draws
    evaluated in one batched pass over stacked knots. Every draw is taken
    and checked, but only the knots the forecast rows reach are evaluated."""
    if horizon == 0:
        check_variational(fit, n_draws)
        return draw_quantiles(np.zeros((1, 0)), levels)  # checks the levels
    design = forecast_design(fit.structure, future_regressors, horizon)
    thetas = variational_draws(fit, n_draws, seed, _reached_entries(fit.packing, design.reach))
    b_lev, b_seas, b_reg, _, _ = fit.packing.unpack_stacked(thetas, knots=design.reach)
    fitted = stacked_fitted(b_lev, b_seas, b_reg, design)
    return draw_quantiles(np.exp(fitted) if fit.structure.link == "log" else fitted, levels)


def backtest_plan_from(cfg: RunConfig) -> BacktestPlan:
    return settings(BacktestPlan, cfg, "backtest_", stride=cfg.backtest_stride or None)


def run_backtest(frame: TimeSeriesFrame, cfg: RunConfig) -> tuple[MetricReport, list[dict]]:
    """(the expanding-window backtest of cfg, one summary dict per split);
    each split's fit is, bit for bit, run_fit of its training rows under
    cfg with the split's seed (evaluation.seed_for_split).

    The prior windows file is read once, against the whole series, and each
    split keeps the windows that end on or before its last training row.
    All splits' MAP fits run at once (fit_maps); under mode=svi all splits'
    SVI fits then run at once (fit_svis), each from its split's MAP point. A
    divergence names its split. evaluation.backtest scores the forecasts,
    which its forecaster looks up by the split's training rows.
    """
    plan = backtest_plan_from(cfg)
    terms = calibration_terms(frame, cfg)
    bounds = split_bounds(frame.n_times, plan)
    splits = []
    for i, (train_end, _, _) in enumerate(bounds):
        split_cfg = dataclasses.replace(cfg, seed=seed_for_split(cfg.seed, i))
        inputs, hp, structure = build_structure(_slice_frame(frame, train_end), split_cfg)
        kept = tuple(term for term in terms if term.end0 < train_end)
        splits.append((split_cfg, inputs, hp, structure, kept))
    try:
        fits = fit_maps([(inputs, hp, map_config_from(split_cfg), None, kept)
                         for split_cfg, inputs, hp, _, kept in splits])
        if cfg.mode == "svi":
            fits = fit_svis([(inputs, hp, svi_config_from(split_cfg), None, kept, fit)
                             for fit, (split_cfg, inputs, hp, _, kept) in zip(fits, splits)])
    except DivergenceError as exc:
        raise DivergenceError(f"split {exc.index + 1}: {exc}", trace=exc.trace,
                              iteration=exc.iteration, index=exc.index) from None
    forecasts, summary = {}, []
    for i, ((train_end, test_start, test_end), fit, (split_cfg, _, _, structure, _)) \
            in enumerate(zip(bounds, fits, splits)):
        fit.structure = structure
        forecasts[train_end] = predict_from_fit(
            fit, frame.regressors[test_start - 1:test_end], plan.horizon)
        summary.append({"split": i + 1, "train_rows": train_end, "seed": split_cfg.seed,
                        "iterations": fit.n_iterations, "stop_reason": fit.stop_reason,
                        "objective": fit.trace[-1], "grad_norm": fit.grad_norm})

    def forecaster(train, horizon, future_regressors, seed):
        return forecasts[train.n_times]

    return backtest(frame, forecaster, plan, root_seed=cfg.seed), summary


# -- file plumbing ------------------------------------------------------------

def read_future_csv(path: str, structure: Structure, horizon: int,
                    date_col: str = "date") -> np.ndarray:
    """The first horizon rows of a future regressors file, as a (horizon, P)
    array in the fit's regressor order. The file follows timeframe.read_table's
    rules; its dates must continue the training calendar, and rows past the
    horizon are counted but not parsed."""
    names = structure.regressor_names
    table = read_table(path, {date_col: "date", **dict.fromkeys(names, "number")},
                       "future row {}", rows=horizon)
    dates = table[date_col]
    if dates.size < horizon:
        raise ValidationError(
            f"horizon {horizon} exceeds the {dates.size} supplied future rows"
        )
    expected = forecast_dates(structure, horizon)
    if np.any(dates != expected):
        r = int(np.argmax(dates != expected))
        raise ValidationError(
            f"future row {r + 1} has date {dates[r]}, expected {expected[r]}"
        )
    x = np.array([table[c] for c in names], dtype=float).reshape(len(names), horizon).T.copy()
    if not np.isfinite(x).all():
        r, j = np.argwhere(~np.isfinite(x))[0]
        raise ValidationError(f"non-finite value in column {names[j]!r}, future row {r + 1}")
    check_regressors(x, names, structure.link != "log", where="future row {}")
    return x


def forecast_dates(structure: Structure, horizon: int) -> np.ndarray:
    return _row_dates(structure, np.arange(structure.T + 1, structure.T + horizon + 1))


def _row_dates(structure: Structure, rows: np.ndarray) -> np.ndarray:
    """Dates of a saved fit's 1-based rows: row T is last_date, and rows
    are step_days apart."""
    step = np.timedelta64(structure.step_days, "D")
    return np.datetime64(structure.last_date, "D") + step * (rows - structure.T)


def write_forecast_csv(path: str, structure: Structure, point: np.ndarray,
                       quantiles: dict[float, np.ndarray] | None = None) -> None:
    quantiles = quantiles or {}
    levels = sorted(quantiles)
    # repr keeps every digit of a level, so distinct levels get distinct names
    write_table(path, ["date", "forecast", *(f"q_{float(q)!r}" for q in levels)],
                forecast_dates(structure, point.size), [point, *(quantiles[q] for q in levels)])


def input_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def run_manifest(cfg: RunConfig, command: str, data_path: str | None) -> dict:
    return {
        "command": command,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "input_sha256": None if data_path is None else input_digest(data_path),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }


def write_manifest(manifest: dict, path: str) -> None:
    # one string and one write, as save_fit does: json.dump writes each chunk
    text = json.dumps(manifest, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")
