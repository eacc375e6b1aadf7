"""Command-line entry point.

Subcommands: simulate | fit | predict | decompose | backtest. Exit codes:
0 success, 1 validation failure, 2 numerical failure. Errors print one
machine-parsable line `error: <message>` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import statistics
import sys

import numpy as np

from .errors import BtvcError, Count, DivergenceError, NonNegativeInt, ValidationError, check_value
from .inference import FitResult, load_fit, save_fit
from .model import decompose, write_decomposition_csv
from .pipeline import (
    forecast_quantiles,
    load_frame,
    predict_from_fit,
    read_future_csv,
    require_structure,
    run_backtest,
    run_fit,
    run_manifest,
    training_design,
    write_forecast_csv,
    write_manifest,
)
from .evaluation import format_metric_report, write_metric_report_csv
from .runconfig import (
    RunConfig,
    coef_init_values,
    config_from_dict,
    csv_schema,
    load_config,
    merge_config,
    quantile_levels,
    save_config,
    settings,
    sparsity_fields,
)
from .simulation import (
    MultiplicativeSimConfig,
    SimConfig,
    SparsitySpec,
    simulate_multiplicative,
    simulate_rw,
    write_truth_csv,
)
from .timeframe import emit_csv

# the last SVI steps whose traced ELBO estimates `btvc fit` averages for its
# summary line
_ELBO_SUMMARY_STEPS = 250


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; route them through the
    validation path (exit 1) instead."""

    def error(self, message):
        raise ValidationError(message)


def _add_common(sub):
    sub.add_argument("--data", help="input series CSV", default=None)
    sub.add_argument("--config", help="run configuration file", default=None)
    sub.add_argument("--out", help="output directory", default=None)
    sub.add_argument("--seed", type=int, help="root seed", default=None)
    sub.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override any config key",
    )


@functools.cache
def build_parser() -> _Parser:
    """The btvc parser, built on the first call; later calls return the
    same one (parse_args leaves a parser unchanged)."""
    parser = _Parser(prog="btvc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p)

    p = sub.add_parser("fit", help="fit the model to a series CSV")
    _add_common(p)

    p = sub.add_parser("predict", help="forecast from a saved fit")
    p.add_argument("--fit", required=True, help="fit document from `btvc fit`")
    p.add_argument("--future", default=None, help="future regressors CSV")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--quantiles", default="", help="levels for interval columns")
    p.add_argument("--draws", type=int, default=None,
                   help="posterior draws for --quantiles (default: the fit's draws key)")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("decompose", help="component decomposition of a saved fit")
    p.add_argument("--fit", required=True, help="fit document from `btvc fit`")
    p.add_argument("--data", required=True, help="the training series CSV")
    p.add_argument("--out", default=None)

    p = sub.add_parser("backtest", help="expanding-window forecast evaluation")
    _add_common(p)
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    overrides = {}
    for item in getattr(args, "overrides", []):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--set needs KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value
    if getattr(args, "data", None) is not None:
        overrides["data"] = args.data
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    return merge_config(cfg, overrides)


def _outdir(cfg_out: str) -> str:
    os.makedirs(cfg_out, exist_ok=True)
    return cfg_out


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    fields = sparsity_fields(cfg)
    if fields is not None and cfg.sim_kind != "sparse":
        raise ValidationError(
            f"sim_sparsity needs sim_kind=sparse, got sim_kind={cfg.sim_kind}"
        )
    given = dict(T=cfg.sim_length, P=cfg.sim_channels, coef_init=coef_init_values(cfg),
                 seed=cfg.seed)
    if cfg.sim_kind == "multiplicative":
        dataset = simulate_multiplicative(settings(MultiplicativeSimConfig, cfg, "sim_", **given))
    else:
        sparsity = None
        if fields is not None:
            channel, start, end, prob = fields
            sparsity = SparsitySpec(channel=channel - 1, start=start, end=end,
                                    zero_prob=prob)
        sim_config = settings(SimConfig, cfg, "sim_", reflect=cfg.sim_reflect == "yes",
                              sparsity=sparsity, **given)
        if cfg.sim_kind == "sparse" and sparsity is None:
            raise ValidationError("sim_kind=sparse needs a sim_sparsity window")
        dataset = simulate_rw(sim_config)
    out = _outdir(cfg.out)
    data_path = os.path.join(out, "data.csv")
    emit_csv(dataset.frame, data_path, csv_schema(cfg))
    write_truth_csv(dataset, os.path.join(out, "truth.csv"))
    write_manifest(run_manifest(cfg, "simulate", None),
                   os.path.join(out, "manifest.json"))
    print(f"wrote {data_path} ({dataset.frame.n_times} rows)")
    return 0


def cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    if not cfg.data:
        raise ValidationError("fit needs --data (or the data config key)")
    frame = load_frame(cfg.data, cfg)
    fit, inputs = run_fit(frame, cfg)
    out = _outdir(cfg.out)
    fit_path = os.path.join(out, "fit.json")
    save_fit(fit, fit_path)
    decomp = decompose(fit.params, inputs.design)
    write_decomposition_csv(decomp, frame.timestamps, frame.regressor_names,
                            os.path.join(out, "decomposition.csv"))
    manifest = run_manifest(cfg, "fit", cfg.data)
    # betas above 1 are allowed but worth surfacing
    manifest["coefficients_above_one"] = int((decomp.coefficients > 1.0).sum())
    manifest["stop_reason"] = fit.stop_reason
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    save_config(cfg, os.path.join(out, "config.txt"))
    if fit.mode == "svi":
        # one trace entry is a single-sample ELBO estimate, of step i *
        # trace_every for entry i; the mean over the last steps is what can
        # be compared between fits
        window = min(fit.n_iterations, _ELBO_SUMMARY_STEPS)
        # the window's first traced step
        first = -(-(fit.n_iterations - window) // fit.trace_every)
        tail = fit.trace[first:]
        summary = (f"mean ELBO of the last {window} steps ({len(tail)} traced) "
                   f"{statistics.fmean(tail):.4f}")
    else:
        summary = f"objective {fit.trace[-1]:.4f}"
    print(f"wrote {fit_path} (stop: {fit.stop_reason}, {summary})")
    return 0


def _load_fit_with_structure(path: str) -> tuple[FitResult, RunConfig]:
    """load_fit and the fit's run settings, for the commands that rebuild its design."""
    fit = load_fit(path)
    require_structure(fit.structure, path)
    return fit, config_from_dict(fit.config) if fit.config else RunConfig()


def cmd_predict(args) -> int:
    check_value(args.horizon, NonNegativeInt, "--horizon")
    check_value(args.draws, Count | None, "--draws")
    check_value(args.seed, NonNegativeInt | None, "--seed")
    fit, cfg = _load_fit_with_structure(args.fit)
    horizon = args.horizon
    P = len(fit.structure.regressor_names)
    if horizon > 0 and P > 0:
        if not args.future:
            raise ValidationError("predict needs --future when the fit has regressors")
        future = read_future_csv(args.future, fit.structure, horizon,
                                 date_col=cfg.date_col)
    else:
        future = np.zeros((horizon, P))
    point = predict_from_fit(fit, future, horizon)
    quantiles = None
    if args.quantiles.strip():
        if not fit.has_variational:
            raise ValidationError(
                "quantile forecasts need an SVI fit; refit with mode=svi"
            )
        levels = quantile_levels(args.quantiles)
        seed = args.seed if args.seed is not None else cfg.seed
        draws = args.draws if args.draws is not None else cfg.draws
        quantiles = forecast_quantiles(fit, future, horizon, levels,
                                       n_draws=draws, seed=seed)
    out = _outdir(args.out if args.out is not None else cfg.out)
    path = os.path.join(out, "forecast.csv")
    write_forecast_csv(path, fit.structure, point, quantiles)
    manifest = run_manifest(cfg, "predict", args.fit)
    manifest["horizon"] = horizon
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    print(f"wrote {path} ({horizon} rows)")
    return 0


def cmd_decompose(args) -> int:
    fit, cfg = _load_fit_with_structure(args.fit)
    frame = load_frame(args.data, cfg)
    design = training_design(fit.structure, frame)
    decomp = decompose(fit.params, design)
    out = _outdir(args.out if args.out is not None else cfg.out)
    path = os.path.join(out, "decomposition.csv")
    write_decomposition_csv(decomp, frame.timestamps, frame.regressor_names, path)
    manifest = run_manifest(cfg, "decompose", args.data)
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    print(f"wrote {path}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _resolve_config(args)
    if not cfg.data:
        raise ValidationError("backtest needs --data (or the data config key)")
    frame = load_frame(cfg.data, cfg)
    report, splits = run_backtest(frame, cfg)
    out = _outdir(cfg.out)
    write_metric_report_csv(report, os.path.join(out, "backtest.csv"))
    manifest = run_manifest(cfg, "backtest", cfg.data)
    manifest["splits"] = splits
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    print(format_metric_report(report))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "decompose": cmd_decompose,
    "backtest": cmd_backtest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except BtvcError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
