"""The benchmark's workloads: inputs made from the seed, the op sequence of
one visit, and the checks every op's output must pass.

Each workload draws R replica datasets from simulate_multiplicative, with
seeds derived from --seed. The loop is closed, with one caller: a visit runs
its ops one after another on one replica, and the next visit starts when
the previous one ends, cycling through the replicas. Fit cost and fit
quality both depend on the data (the MAP plateau stop fires anywhere from
300 to 750 iterations across datasets of one size), so metrics are
averaged over replicas rather than taken from one dataset.

    svi_calibrated  T=420 (+28 held out), mode=svi, one 28-day prior window
                    on x1; library calls plus `btvc predict --quantiles` and
                    `btvc decompose`
    map_long        T=3000 (+28 held out), default MAP; library calls plus
                    `btvc predict` and `btvc decompose`
    cli_backtest    T=730 (+28 future rows); `btvc fit`, `predict`,
                    `decompose` and `backtest --set backtest_splits=6`
                    through btvc.cli.main in-process

All file paths handed to btvc are relative to the run's work directory, the
current directory while the workload runs, so that the fit documents (which
record their input and output paths) do not depend on where the checkout is.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from btvc import cli, evaluation, inference, model, pipeline, simulation, timeframe
from btvc.runconfig import RunConfig

import probe
from timing import at_reference_speed, timed

HORIZON = 28
LEVELS = (0.05, 0.5, 0.95)
DRAWS = 300
FORECAST_REPEATS = 5
BACKTEST_REPEATS = 5
OTHER_FORECASTS = 3
BACKTEST_SPLITS = 6
DECOMP_TOL = 1e-9
WINDOW_SD = 0.02
SVI_PROBE_STEPS = 50
LONG_PROBE_T = 10000
LONG_PROBE_MAP_ITERATIONS = 50
# L-BFGS iterations from the MAP point to the reference optimum of
# map_optimality (a cap: at T=3000 full convergence takes 2000 or more).
POLISH_ITERATIONS = 100

# (training rows, replicas); "tiny" is what the smoke test runs.
SIZES = {
    "svi_calibrated": {"full": (420, 9), "tiny": (70, 2)},
    "map_long": {"full": (3000, 12), "tiny": (150, 2)},
    "cli_backtest": {"full": (730, 14), "tiny": (200, 2)},
}
WORKLOADS = tuple(SIZES)


class CheckFailed(Exception):
    """An op finished but its output failed a check."""


class VisitAborted(Exception):
    """An op of the visit failed; the ops after it depend on its output."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_finite(name: str, *arrays) -> None:
    for a in arrays:
        check(np.all(np.isfinite(np.asarray(a, dtype=float))), f"{name}: non-finite values")


def check_forecast(point, bands) -> None:
    check_finite("forecast", point, *bands.values())
    check(np.all(point > 0), "forecast is not positive under the log link")
    levels = sorted(bands)
    for lo, hi in zip(levels, levels[1:]):
        check(np.all(bands[lo] <= bands[hi]), f"quantile {lo} exceeds quantile {hi}")


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rmse(estimate, truth) -> float:
    return float(np.sqrt(np.mean((np.asarray(estimate) - truth) ** 2)))


def replica_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def rows(frame, sl: slice):
    return timeframe.TimeSeriesFrame(
        timestamps=frame.timestamps[sl], response=frame.response[sl],
        regressors=frame.regressors[sl], regressor_names=frame.regressor_names,
    )


@dataclass
class Replica:
    index: int
    seed: int
    dir: str               # relative to the work directory
    frame: object          # training rows followed by the HORIZON held-out rows
    train: object
    truth: np.ndarray      # true coefficient paths over the training rows
    cfg: RunConfig
    first: dict = field(default_factory=dict)   # first visit's outputs
    state: dict = field(default_factory=dict)   # latest fit, for forecasts and probes

    @property
    def future_x(self) -> np.ndarray:
        return self.frame.regressors[self.train.n_times:]

    @property
    def actual(self) -> np.ndarray:
        return self.frame.response[self.train.n_times:]

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def repeat(self, what: str, value) -> None:
        """Every visit must reproduce the first visit's output exactly."""
        seen = self.first.setdefault(what, value)
        check(seen == value, f"{what} differs between visits of replica {self.index}")


def _write_window(path: str, train, truth) -> str:
    T = train.n_times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "start_date", "end_date", "mean", "sd"])
        writer.writerow([train.regressor_names[0], str(train.timestamps[T - HORIZON]),
                         str(train.timestamps[T - 1]),
                         repr(float(truth[T - HORIZON:, 0].mean())), repr(WINDOW_SD)])
    return path


def make_replicas(name: str, size: str, seed: int, root: str) -> list[Replica]:
    """Simulate the replicas and write their input files under root."""
    T, count = SIZES[name][size]
    replicas = []
    for r in range(count):
        s = replica_seed(seed, r)
        ds = simulation.simulate_multiplicative(
            simulation.MultiplicativeSimConfig(T=T + HORIZON, P=3, seed=s))
        d = os.path.join(root, f"replica{r}")
        os.makedirs(d)
        train = rows(ds.frame, slice(0, T))
        truth = ds.true_coefficients[:T]
        timeframe.emit_csv(train, os.path.join(d, "train.csv"))
        timeframe.emit_csv(rows(ds.frame, slice(T, None)), os.path.join(d, "future.csv"))
        cfg = RunConfig(seed=s)
        if name == "svi_calibrated":
            window = _write_window(os.path.join(d, "window.csv"), train, truth)
            cfg = RunConfig(mode="svi", prior_windows=window, seed=s)
        replicas.append(Replica(r, s, d, ds.frame, train, truth, cfg))
    return replicas


class Stats:
    """Timing samples per replica, op counts and quality values of a run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = defaultdict(lambda: defaultdict(list))
        self.quality = defaultdict(dict)
        self.attempted = 0
        self.failed = 0
        self.host = []

    def add(self, metric: str, rep: Replica, seconds: float) -> None:
        self.samples[metric][rep.index].append(seconds)

    def record(self, rep: Replica, metric: str, value: float) -> None:
        rep.repeat(metric, value)
        self.quality[metric][rep.index] = value

    def time_metric(self, metric: str) -> float | None:
        """Median sample of each replica, averaged over the replicas.
        Samples are seconds at the reference speed (timing.py).

        The work per op differs between datasets, so every replica's cost
        is kept in the number; the median of the pooled samples would
        follow whichever datasets were visited most.
        """
        per = [statistics.median(v) for v in self.samples[metric].values() if v]
        return statistics.fmean(per) if per else None

    def describe(self, metric: str) -> str:
        per = self.samples[metric].values()
        pooled = sorted(s for v in per for s in v)
        if not pooled:
            return ""
        return (f"mean over {len(per)} replicas of their median, "
                f"{len(pooled)} samples; fastest {pooled[0]:.6g}, slowest {pooled[-1]:.6g}")

    def quality_mean(self, metric: str) -> float | None:
        values = list(self.quality[metric].values())
        return statistics.fmean(values) if values else None

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            with self.tracer.region("bench." + name):
                yield
        except Exception as exc:
            # The loop goes on with the next visit; the failure is counted
            # and reported here.
            self.failed += 1
            print(f"op {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise VisitAborted(name) from exc

    def cli(self, *argv: str) -> float:
        """Run one btvc command in-process; returns its seconds at the
        reference speed."""
        out, err = io.StringIO(), io.StringIO()

        def command():
            with self.tracer.region("cli." + argv[0]):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(list(argv))

        code, seconds = at_reference_speed(command)
        check(code == 0, f"btvc {argv[0]} exited {code}: {err.getvalue().strip()}")
        return seconds


# -- output files ---------------------------------------------------------

def read_columns(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    return {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header) if i}


def read_forecast(path: str):
    cols = read_columns(path)
    bands = {float(k[2:]): v for k, v in cols.items() if k.startswith("q_")}
    return cols["forecast"], bands


def check_decomposition_columns(cols, names) -> None:
    check_finite("decomposition.csv", *cols.values())
    contrib = sum(cols[f"contrib_{n}"] for n in names)
    check(np.max(np.abs(contrib - cols["regression"])) <= DECOMP_TOL,
          "decomposition.csv: channel contributions do not sum to the regression")


def check_decomposition(dec, params, design) -> None:
    """Components against an independent recomputation from the kernels."""
    check_finite("decomposition", dec.trend, dec.seasonality, dec.regression,
                 dec.per_channel, dec.coefficients)
    trend = design.k_lev.weights @ params.b_lev
    seas = (design.seasonal * (design.k_seas.weights @ params.b_seas)).sum(axis=1)
    reg = (design.regressors * (design.k_reg.weights @ params.b_reg)).sum(axis=1)
    check(np.max(np.abs(dec.trend + dec.seasonality + dec.regression - (trend + seas + reg)))
          <= DECOMP_TOL, "trend + seasonality + regression differs from the fitted values")
    check(np.max(np.abs(dec.per_channel.sum(axis=1) - dec.regression)) <= DECOMP_TOL,
          "per-channel contributions do not sum to the regression")


def read_backtest(path: str):
    with open(path, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    splits = [float(v) for k, v in body if k.isdigit()]
    mean = [float(v) for k, v in body if k == "mean"]
    return splits, mean[0] if mean else float("nan")


# -- visits ---------------------------------------------------------------

def visit(name: str, rep: Replica, st: Stats, replicas: list[Replica]) -> None:
    """All ops of one visit of `rep`, then one forecast from each of the next
    OTHER_FORECASTS replicas fitted so far, so that each replica's forecast
    is timed at several moments of the run rather than only during its own
    visits."""
    try:
        if name == "cli_backtest":
            _visit_cli(rep, st)
        else:
            _visit_library(rep, st, svi=name == "svi_calibrated")
        after = replicas[rep.index + 1:] + replicas[:rep.index]
        for other in [r for r in after if r.state][:OTHER_FORECASTS]:
            forecast(name, other, st)
    except VisitAborted:
        pass


def forecast(name: str, rep: Replica, st: Stats):
    """One forecast from the replica's latest fit: library calls, or
    `btvc predict` on cli_backtest. Returns (point, bands, seconds)."""
    with st.op("forecast"):
        if name == "cli_backtest":
            seconds = st.cli("predict", "--fit", rep.path("run", "fit.json"),
                             "--future", rep.path("future.csv"), "--horizon", str(HORIZON),
                             "--out", rep.path("predict"))
            point, bands = read_forecast(rep.path("predict", "forecast.csv"))
        else:
            fit = rep.state["fit"]

            def library_forecast():
                point = pipeline.predict_from_fit(fit, rep.future_x, HORIZON)
                bands = (pipeline.forecast_quantiles(fit, rep.future_x, HORIZON, LEVELS, DRAWS,
                                                     seed=fit.seed)
                         if fit.has_variational else {})
                return point, bands

            (point, bands), seconds = at_reference_speed(library_forecast)
        st.add("forecast_s", rep, seconds)
        check_forecast(point, bands)
        rep.repeat("forecast", [point.tobytes()] + [b.tobytes() for b in bands.values()])
    return point, bands, seconds


def _visit_library(rep: Replica, st: Stats, svi: bool) -> None:
    with st.op("fit"):
        (fit, inputs), seconds = at_reference_speed(pipeline.run_fit, rep.train, rep.cfg)
        st.add("fit_s", rep, seconds)
        check_finite("theta", fit.theta)
        if svi:
            check(fit.has_variational, "svi fit has no variational moments")
            check_finite("variational moments", fit.variational_mean, fit.variational_log_sd)
        rep.state = {"fit": fit, "inputs": inputs}

    for _ in range(FORECAST_REPEATS):
        point, bands, _ = forecast("", rep, st)
    if svi:
        inside = (rep.actual >= bands[LEVELS[0]]) & (rep.actual <= bands[LEVELS[-1]])
        st.record(rep, "interval_coverage", float(inside.mean()))

    with st.op("decompose"):
        dec = model.decompose(fit.params, inputs.design)
        check_decomposition(dec, fit.params, inputs.design)
        terms = pipeline.calibration_terms(rep.train, rep.cfg)
        logpost = model.log_posterior(fit.params, inputs, fit.hyper, terms)
        if not svi:
            check(abs(logpost - fit.trace[-1]) <= 1e-9 * max(1.0, abs(logpost)),
                  "log posterior at the MAP point differs from the fit's final objective")
        st.record(rep, "map_logpost", logpost)
        st.record(rep, "coef_rmse", rmse(dec.coefficients, rep.truth))

    if svi:
        with st.op("draw_posterior"):
            draws = inference.draw_posterior(fit, inputs.design.k_reg, DRAWS, seed=fit.seed)
            coef_bands = draws.coefficient_quantiles(LEVELS)
            check_finite("posterior draws", draws.theta_draws, draws.coefficient_draws)
            for lo, hi in zip(LEVELS, LEVELS[1:]):
                check(np.all(coef_bands[lo] <= coef_bands[hi]),
                      "coefficient band quantiles decrease with the level")

    fit_json = rep.path("fit.json")
    with st.op("save_fit"):
        inference.save_fit(fit, fit_json)
        rep.repeat("fit.json", digest(fit_json))
        st.record(rep, "inference.fit_json_kb", os.path.getsize(fit_json) / 1024)

    argv = ["predict", "--fit", fit_json, "--future", rep.path("future.csv"),
            "--horizon", str(HORIZON), "--out", rep.path("predict")]
    if svi:
        argv += ["--quantiles", ",".join(map(str, LEVELS)), "--draws", str(DRAWS)]
    with st.op("cli_predict"):
        t_predict = st.cli(*argv)
        cli_point, cli_bands = read_forecast(rep.path("predict", "forecast.csv"))
        check(np.array_equal(cli_point, point) and cli_bands.keys() == bands.keys()
              and all(np.array_equal(cli_bands[q], bands[q]) for q in bands),
              "btvc predict differs from the library forecast")

    with st.op("cli_decompose"):
        t_decompose = st.cli("decompose", "--fit", fit_json, "--data",
                             rep.path("train.csv"), "--out", rep.path("decompose"))
        cols = read_columns(rep.path("decompose", "decomposition.csv"))
        check_decomposition_columns(cols, rep.train.regressor_names)
        for part in ("trend", "seasonality", "regression"):
            check(np.max(np.abs(cols[part] - getattr(dec, part))) <= DECOMP_TOL,
                  f"btvc decompose {part} differs from the library decomposition")
    st.add("cli_s", rep, t_predict + t_decompose)

    for _ in range(BACKTEST_REPEATS):
        _held_out(rep, st, fit, point)


def _held_out(rep: Replica, st: Stats, fit, point) -> None:
    with st.op("backtest"):
        # The fit scored on the HORIZON held-out days through the evaluation
        # layer. The split trains on exactly the replica's training rows, so
        # its forecaster reuses the fit instead of refitting: fit_s already
        # times the fit, and cli_backtest times backtests that refit.
        def forecaster(train, horizon, future_x, seed):
            check(train.n_times == rep.train.n_times,
                  "the held-out split does not train on the replica's training rows")
            held_out = pipeline.predict_from_fit(fit, future_x, horizon)
            check(np.array_equal(held_out, point), "held-out forecast differs from the forecast")
            return held_out

        plan = evaluation.BacktestPlan(horizon=HORIZON, splits=1)
        report, seconds = at_reference_speed(evaluation.backtest, rep.frame, forecaster, plan,
                                             root_seed=rep.seed)
        st.add("backtest_s", rep, seconds)
        check(len(report.per_split) == 1, "held-out evaluation is not one split")
        check_finite("held-out smape", report.per_split, [report.mean])
        st.record(rep, "smape", report.mean)
        st.record(rep, "evaluation.splits", len(report.per_split))


def _visit_cli(rep: Replica, st: Stats) -> None:
    train_csv = rep.path("train.csv")
    fit_json = rep.path("run", "fit.json")
    names = rep.train.regressor_names

    with st.op("cli_fit"):
        t_fit = st.cli("fit", "--data", train_csv, "--out", rep.path("run"),
                       "--seed", str(rep.seed))
        st.add("fit_s", rep, t_fit)
        rep.repeat("fit.json", digest(fit_json))
        with open(fit_json) as fh:
            doc = json.load(fh)
        check_finite("theta", doc["theta_map"])
        fitted = read_columns(rep.path("run", "decomposition.csv"))
        check_decomposition_columns(fitted, names)
        beta = np.column_stack([fitted[f"beta_{n}"] for n in names])
        st.record(rep, "map_logpost", float(doc["trace"][-1]))
        st.record(rep, "coef_rmse", rmse(beta, rep.truth))
        st.record(rep, "inference.fit_json_kb", os.path.getsize(fit_json) / 1024)
        rep.state = {"fit_json": fit_json}

    t_predict = [forecast("cli_backtest", rep, st)[2] for _ in range(FORECAST_REPEATS)]

    with st.op("cli_decompose"):
        t_decompose = st.cli("decompose", "--fit", fit_json, "--data", train_csv,
                             "--out", rep.path("decompose"))
        again = read_columns(rep.path("decompose", "decomposition.csv"))
        check_decomposition_columns(again, names)
        for col, values in fitted.items():
            check(np.max(np.abs(again[col] - values)) <= DECOMP_TOL,
                  f"btvc decompose {col} differs from the decomposition written by fit")

    with st.op("cli_backtest"):
        t_backtest = st.cli("backtest", "--data", train_csv, "--out", rep.path("backtest"),
                            "--set", f"backtest_splits={BACKTEST_SPLITS}",
                            "--seed", str(rep.seed))
        st.add("backtest_s", rep, t_backtest)
        splits, mean = read_backtest(rep.path("backtest", "backtest.csv"))
        check(len(splits) == BACKTEST_SPLITS,
              f"backtest has {len(splits)} splits, expected {BACKTEST_SPLITS}")
        check_finite("backtest smape", splits, [mean])
        check(abs(mean - statistics.fmean(splits)) <= 1e-12, "backtest mean is not the split mean")
        st.record(rep, "smape", mean)
        st.record(rep, "evaluation.splits", len(splits))
    st.add("cli_s", rep, t_fit + statistics.median(t_predict) + t_decompose + t_backtest)


# -- after the measured loop, untimed -------------------------------------

def _fitted_state(name: str, rep: Replica):
    """(fit, inputs, calibration terms) of the replica's latest visit."""
    if name != "cli_backtest":
        s = rep.state
        return s["fit"], s["inputs"], pipeline.calibration_terms(rep.train, rep.cfg)
    frame = pipeline.load_frame(rep.path("train.csv"), rep.cfg)
    inputs, _, _ = pipeline.build_structure(frame, rep.cfg)
    return inference.load_fit(rep.path("run", "fit.json")), inputs, ()


def optimality(name: str, st: Stats, rep: Replica) -> None:
    """Record how close the replica's MAP point is to the optimum nearby.

    An independent optimizer (scipy's L-BFGS-B, POLISH_ITERATIONS
    iterations) continues from the MAP point on the same log posterior;
    the gain it finds, per training row, is the fit's shortfall, and
    map_optimality = 1 - shortfall. A fit that stops earlier leaves a
    larger gain. The reference is the objective's own, so a change that
    moves the initial point or the optimizer's path, not the optimum,
    leaves the scale unchanged.
    """
    fit, inputs, terms = _fitted_state(name, rep)
    f = probe.objective(inputs, fit.hyper, fit.packing, terms, include_jacobian=False)
    value, _ = f(fit.theta)
    check_finite("log posterior at the MAP point", [value])

    def descend(theta):
        v, g = f(theta)
        return -v, -g

    res = scipy.optimize.minimize(descend, fit.theta, jac=True, method="L-BFGS-B",
                                  options={"maxiter": POLISH_ITERATIONS, "gtol": 0.0,
                                           "ftol": 0.0})
    check_finite("reference optimum", [res.fun])
    shortfall = max(-res.fun - value, 0.0) / inputs.design.n_times
    st.record(rep, "map_optimality", 1.0 - shortfall)


def svi_path_probe(fit, inputs, terms, future_x) -> dict:
    """Time the variational-path functions on a MAP-only workload.

    Uses the MAP fit with the variational moments fit_svi starts from
    (mean at the MAP point, log sd at SviConfig's init_log_sd), so the
    calls do the same work as on an SVI fit of this structure.
    """
    log_sd = np.full(fit.packing.dim, inference.SviConfig().init_log_sd)
    q = dataclasses.replace(fit, variational_mean=fit.theta.copy(), variational_log_sd=log_sd)
    _, t_draw = timed(inference.draw_posterior, q, inputs.design.k_reg, DRAWS, seed=fit.seed)
    _, t_quant = timed(pipeline.forecast_quantiles, q, future_x, HORIZON, LEVELS, DRAWS,
                       seed=fit.seed)
    svi, t_svi = timed(inference.fit_svi, inputs, fit.hyper,
                       inference.SviConfig(iterations=SVI_PROBE_STEPS, seed=fit.seed),
                       packing=fit.packing, calibration=terms, init=fit)
    return {
        "inference.draw_posterior_s": t_draw,
        "pipeline.forecast_quantiles_s": t_quant,
        "inference.fit_svi_s": t_svi,
        "inference.us_per_svi_step": t_svi / svi.n_iterations * 1e6,
        "svi_steps": svi.n_iterations,
    }


def long_probe(seed: int) -> dict:
    """Objective probe at T=10000: kernel build, init theta, and the theta
    after a short MAP run (a full MAP fit at this size takes 30-60 s)."""
    s = replica_seed(seed, LONG_PROBE_T)
    ds = simulation.simulate_multiplicative(
        simulation.MultiplicativeSimConfig(T=LONG_PROBE_T, P=3, seed=s))
    cfg = RunConfig(seed=s)
    (inputs, hp, _), t_build = timed(pipeline.build_structure, ds.frame, cfg)
    packing = inference.default_packing(inputs)
    short = inference.fit_map(
        inputs, hp, inference.MapConfig(iterations=LONG_PROBE_MAP_ITERATIONS, restarts=1, seed=s),
        packing=packing)
    table = probe.probe_structure(inputs, hp, packing, inference.initial_theta(inputs, hp, packing),
                                  short.theta, (), include_jacobian=False)
    table["build_structure_s"] = t_build
    table["weights_mb_computed"] = probe.weights_bytes(inputs) / 2**20
    table["fitted_theta"] = f"after {short.n_iterations} MAP iterations"
    return table


def run_probes(name: str, size: str, seed: int, rep: Replica) -> dict:
    fit, inputs, terms = _fitted_state(name, rep)
    svi = name == "svi_calibrated"
    out = {"workload": probe.probe_structure(
        inputs, fit.hyper, fit.packing, inference.initial_theta(inputs, fit.hyper, fit.packing),
        fit.theta, terms, include_jacobian=svi)}
    if not svi:
        out["svi_path"] = svi_path_probe(fit, inputs, terms, rep.future_x)
    if name == "map_long" and size == "full":
        out["long"] = long_probe(seed)
    return out
