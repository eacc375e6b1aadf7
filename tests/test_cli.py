"""End-to-end command tests, run in-process through main()."""

import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from btvc.cli import build_parser, main
from btvc.errors import DivergenceError
from btvc.evaluation import backtest, seed_for_split, write_metric_report_csv
from btvc.inference import load_fit
from btvc.objective import Objective
from btvc.pipeline import (
    backtest_plan_from,
    forecast_quantiles,
    load_frame,
    predict_from_fit,
    read_future_csv,
    run_fit,
    write_forecast_csv,
)
from btvc.model import HyperParams, Structure
from btvc.runconfig import RunConfig, config_from_dict, parse_value
from btvc.simulation import (MultiplicativeSimConfig, SimConfig, SparsitySpec,
                             simulate_multiplicative, simulate_rw, write_truth_csv)
from btvc.timeframe import emit_csv, read_table

from tests.test_pipeline import forecaster_from_config
from tests.test_timeframe import write_csv

FAST = ["--set", "map_iterations=50", "--set", "fourier=7:1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_small(capsys, out, seed=4, extra=()):
    # multiplicative spends are lognormal, so the series is safe for link=log
    return run(
        capsys, "simulate", "--out", out, "--seed", str(seed),
        "--set", "sim_kind=multiplicative",
        "--set", "sim_length=80", "--set", "sim_channels=2", *extra,
    )


def future_rows(data_csv, horizon, value=2.0):
    last = np.datetime64(data_csv.read_text().strip().splitlines()[-1].split(",")[0], "D")
    rows = [["date", "x1", "x2"]]
    for k in range(1, horizon + 1):
        rows.append([str(last + k), str(value), str(value)])
    return rows


def test_full_chain(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    code, out, err = simulate_small(capsys, str(sim_dir))
    assert code == 0 and err == ""
    assert "wrote" in out and "(80 rows)" in out
    data = sim_dir / "data.csv"
    assert data.exists() and (sim_dir / "truth.csv").exists()
    assert data.read_text().splitlines()[0] == "date,y,x1,x2"
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 4
    assert manifest["input_sha256"] is None

    fit_dir = tmp_path / "fit"
    code, out, err = run(
        capsys, "fit", "--data", str(data), "--out", str(fit_dir), "--seed", "4", *FAST,
    )
    assert code == 0 and err == ""
    assert "stop:" in out
    for name in ("fit.json", "decomposition.csv", "manifest.json", "config.txt"):
        assert (fit_dir / name).exists()
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["stop_reason"] in ("max_iter", "rel_change")
    assert "coefficients_above_one" in manifest

    fc_dir = tmp_path / "fc"
    future = tmp_path / "future.csv"
    write_csv(future, future_rows(data, 3))
    code, out, err = run(
        capsys, "predict", "--fit", str(fit_dir / "fit.json"),
        "--future", str(future), "--horizon", "3", "--out", str(fc_dir),
    )
    assert code == 0 and err == ""
    lines = (fc_dir / "forecast.csv").read_text().strip().splitlines()
    assert lines[0] == "date,forecast"
    assert len(lines) == 4
    forecasts = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(v > 0 for v in forecasts)  # log link output is original scale

    dec_dir = tmp_path / "dec"
    code, out, err = run(
        capsys, "decompose", "--fit", str(fit_dir / "fit.json"),
        "--data", str(data), "--out", str(dec_dir),
    )
    assert code == 0 and err == ""
    # the rebuilt design reproduces the decomposition written at fit time
    assert (dec_dir / "decomposition.csv").read_bytes() == \
        (fit_dir / "decomposition.csv").read_bytes()


def test_fit_is_reproducible_byte_for_byte(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    data = str(sim_dir / "data.csv")
    argv = ["fit", "--data", data, "--out", str(tmp_path / "out"), "--seed", "9", *FAST]
    docs = []
    for _ in range(2):
        code, _, _ = run(capsys, *argv)
        assert code == 0
        docs.append((tmp_path / "out" / "fit.json").read_bytes())
    assert docs[0] == docs[1]


def test_predict_zero_horizon_and_quantile_guard(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    fit_dir = tmp_path / "fit"
    run(capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(fit_dir), *FAST)

    code, out, err = run(
        capsys, "predict", "--fit", str(fit_dir / "fit.json"),
        "--horizon", "0", "--out", str(tmp_path / "fc0"),
    )
    assert code == 0
    assert "(0 rows)" in out
    assert (tmp_path / "fc0" / "forecast.csv").read_text().strip() == "date,forecast"

    # interval columns require a variational fit
    code, out, err = run(
        capsys, "predict", "--fit", str(fit_dir / "fit.json"),
        "--horizon", "0", "--quantiles", "0.1,0.9", "--out", str(tmp_path / "fcq"),
    )
    assert code == 1
    assert err.strip() == "error: quantile forecasts need an SVI fit; refit with mode=svi"
    assert out == ""


def test_svi_fit_gives_quantile_forecasts(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    data = sim_dir / "data.csv"
    fit_dir = tmp_path / "fit"
    code, _, _ = run(
        capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST,
        "--set", "mode=svi", "--set", "svi_iterations=60",
    )
    assert code == 0
    future = tmp_path / "future.csv"
    write_csv(future, future_rows(data, 2))
    code, out, err = run(
        capsys, "predict", "--fit", str(fit_dir / "fit.json"),
        "--future", str(future), "--horizon", "2",
        "--quantiles", "0.1,0.9", "--draws", "40", "--out", str(tmp_path / "fc"),
    )
    assert code == 0, err
    lines = (tmp_path / "fc" / "forecast.csv").read_text().strip().splitlines()
    assert lines[0] == "date,forecast,q_0.1,q_0.9"
    lo, hi = (float(lines[1].split(",")[k]) for k in (2, 3))
    assert lo <= hi


@pytest.mark.parametrize("mode, iterations, label", [
    ("svi", 300, "mean ELBO of the last 250 steps (25 traced)"),
    ("svi", 305, "mean ELBO of the last 250 steps (25 traced)"),
    ("svi", 60, "mean ELBO of the last 60 steps (6 traced)"),
    ("map", 60, "objective"),
])
def test_fit_summary_line(tmp_path, capsys, mode, iterations, label):
    # SVI trace entries are single-sample ELBO estimates, one every 10 steps
    # by default, so the summary is the mean of those from the last 250
    # steps; MAP prints its final (best) objective
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    fit_dir = tmp_path / "fit"
    code, out, _ = run(
        capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(fit_dir), *FAST,
        "--set", f"mode={mode}", "--set", f"svi_iterations={iterations}",
    )
    assert code == 0
    doc = json.loads((fit_dir / "fit.json").read_text())
    trace = doc["trace"]
    assert doc["trace_every"] == (10 if mode == "svi" else 1)
    if mode == "svi":
        # entry i is step 10 i
        assert len(trace) == -(-iterations // 10)
        value = float(np.mean([elbo for i, elbo in enumerate(trace)
                               if 10 * i >= iterations - 250]))
    else:
        value = trace[-1]
    assert out.strip().endswith(f"{label} {value:.4f})")
    assert ("objective" in out) == (mode == "map")


def test_predict_quantiles_equal_the_library_and_draws_follow_the_fit_config(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    data = sim_dir / "data.csv"
    fit_dir = tmp_path / "fit"
    code, _, err = run(
        capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST,
        "--set", "mode=svi", "--set", "svi_iterations=60", "--set", "draws=40",
    )
    assert code == 0, err
    future = tmp_path / "future.csv"
    write_csv(future, future_rows(data, 3))

    def predict(out, *extra):
        code, _, err = run(
            capsys, "predict", "--fit", str(fit_dir / "fit.json"), "--future", str(future),
            "--horizon", "3", "--quantiles", "0.1,0.5,0.9", "--out", str(tmp_path / out),
            *extra,
        )
        assert code == 0, err
        return (tmp_path / out / "forecast.csv").read_text()

    default = predict("fc")
    assert default == predict("fc40", "--draws", "40")
    assert default != predict("fc300", "--draws", "300")

    fit = load_fit(str(fit_dir / "fit.json"))
    x = read_future_csv(str(future), fit.structure, 3)
    bands = forecast_quantiles(fit, x, 3, (0.1, 0.5, 0.9), n_draws=40,
                               seed=config_from_dict(fit.config).seed)
    write_forecast_csv(str(tmp_path / "library.csv"), fit.structure,
                       predict_from_fit(fit, x, 3), bands)
    assert default == (tmp_path / "library.csv").read_text()


def test_fit_documents_with_retired_keys_predict_and_decompose_the_same(tmp_path, capsys):
    # fit documents written before the MAP restarts were removed carry
    # map_restarts and map_restart_scale in their config, and those written
    # before the packing's transform picked the regression prior carry
    # gaussian_reg_prior in their hyperparams
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    data = sim_dir / "data.csv"
    fit_dir = tmp_path / "fit"
    code, _, err = run(
        capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST,
        "--set", "mode=svi", "--set", "svi_iterations=60", "--set", "draws=40",
    )
    assert code == 0, err
    doc = json.loads((fit_dir / "fit.json").read_text())
    assert "map_restarts" not in doc["config"]
    assert "gaussian_reg_prior" not in doc["hyperparams"]
    doc["config"].update(map_restarts=3, map_restart_scale=0.3)
    doc["hyperparams"]["gaussian_reg_prior"] = False
    old_fit = tmp_path / "old_fit.json"
    old_fit.write_text(json.dumps(doc))
    future = tmp_path / "future.csv"
    write_csv(future, future_rows(data, 3))

    outputs = []
    for fit_path in (fit_dir / "fit.json", old_fit):
        out = tmp_path / fit_path.stem
        code, _, err = run(
            capsys, "predict", "--fit", str(fit_path), "--future", str(future),
            "--horizon", "3", "--quantiles", "0.1,0.9", "--out", str(out),
        )
        assert code == 0, err
        code, _, err = run(
            capsys, "decompose", "--fit", str(fit_path), "--data", str(data), "--out", str(out),
        )
        assert code == 0, err
        outputs.append(((out / "forecast.csv").read_bytes(),
                        (out / "decomposition.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_padded_header_names_fit_and_predict_the_same(tmp_path, capsys):
    # the windows and future files read header names stripped, as the series
    # file always has; padded names used to be missing columns
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    data = sim_dir / "data.csv"
    first = np.datetime64(data.read_text().splitlines()[1].split(",")[0], "D")
    windows, future = tmp_path / "windows.csv", tmp_path / "future.csv"
    window_rows = [["channel", "start_date", "end_date", "mean", "sd"],
                   ["x1", str(first + 10), str(first + 30), "0.3", "0.1"]]
    future_table = future_rows(data, 3)

    def outputs(pad):
        for path, (header, *rows) in ((windows, window_rows), (future, future_table)):
            write_csv(path, [[f" {c} " for c in header] if pad else header, *rows])
        code, _, err = run(
            capsys, "fit", "--data", str(data), "--out", str(tmp_path / "fit"), *FAST,
            "--set", "mode=svi", "--set", "svi_iterations=60", "--set", "draws=40",
            "--set", f"prior_windows={windows}",
        )
        assert code == 0, err
        code, _, err = run(
            capsys, "predict", "--fit", str(tmp_path / "fit" / "fit.json"),
            "--future", str(future), "--horizon", "3", "--quantiles", "0.1,0.9",
            "--out", str(tmp_path / "fc"),
        )
        assert code == 0, err
        return {p.relative_to(tmp_path): p.read_bytes()
                for out in ("fit", "fc") for p in (tmp_path / out).iterdir()}

    padded = outputs(pad=True)
    assert len(padded) == 6
    assert padded == outputs(pad=False)


def test_backtest_command(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    bt_dir = tmp_path / "bt"
    code, out, err = run(
        capsys, "backtest", "--data", str(sim_dir / "data.csv"),
        "--out", str(bt_dir), *FAST,
        "--set", "backtest_horizon=5", "--set", "backtest_splits=2",
        "--set", "backtest_min_train=40", "--set", "map_iterations=40",
    )
    assert code == 0 and err == ""
    assert "mean" in out
    lines = (bt_dir / "backtest.csv").read_text().strip().splitlines()
    assert lines[0] == "split,smape"
    assert len(lines) == 5  # 2 splits + mean + sd


def split_frame(frame, n):
    """The first n rows of a frame: a backtest split's training rows."""
    return dataclasses.replace(frame, timestamps=frame.timestamps[:n],
                               response=frame.response[:n], regressors=frame.regressors[:n])


def test_backtest_manifest_lists_each_split_fit(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    simulate_small(capsys, str(sim_dir))
    data = str(sim_dir / "data.csv")
    settings = {"backtest_horizon": "5", "backtest_splits": "2", "backtest_min_train": "40",
                "map_iterations": "40", "fourier": "7:1", "seed": "9"}
    flags = [f for key, value in settings.items() for f in ("--set", f"{key}={value}")]
    code, _, err = run(capsys, "backtest", "--data", data, "--out", str(tmp_path / "bt"), *flags)
    assert code == 0 and err == ""
    splits = json.loads((tmp_path / "bt" / "manifest.json").read_text())["splits"]
    assert [sorted(split) for split in splits] == [
        ["grad_norm", "iterations", "objective", "seed", "split", "stop_reason", "train_rows"]] * 2
    assert [(split["split"], split["train_rows"]) for split in splits] == [(1, 70), (2, 75)]

    # split 1 as a fit of its own training rows with its seed
    cfg = dataclasses.replace(RunConfig(), **{k: parse_value(k, v) for k, v in settings.items()})
    frame = load_frame(data, cfg)
    assert splits[0]["seed"] == seed_for_split(9, 0)
    alone, _ = run_fit(split_frame(frame, 70), dataclasses.replace(cfg, seed=splits[0]["seed"]))
    assert (splits[0]["iterations"], splits[0]["stop_reason"], splits[0]["objective"],
            splits[0]["grad_norm"]) == (alone.n_iterations, alone.stop_reason, alone.trace[-1],
                                        alone.grad_norm)

    # backtest.csv is what refitting split by split writes
    write_metric_report_csv(backtest(frame, forecaster_from_config(cfg), backtest_plan_from(cfg),
                                     root_seed=cfg.seed), str(tmp_path / "refit.csv"))
    assert (tmp_path / "bt" / "backtest.csv").read_bytes() == (tmp_path / "refit.csv").read_bytes()


def test_backtest_keeps_the_prior_windows_each_split_has_seen(tmp_path, capsys):
    # 400 daily rows from 2020-01-01; the default plan's splits train on 232,
    # 260, ..., 372 rows. The x1 window (rows 376-400) ends after every
    # split's last training row, so every split drops it; the x2 window
    # (rows 245-264) is kept by the splits of 288 rows on.
    sim_dir = tmp_path / "sim"
    assert simulate_small(capsys, str(sim_dir), extra=("--set", "sim_length=400"))[0] == 0
    data = str(sim_dir / "data.csv")
    late, early = "x1,2021-01-10,2021-02-03,0.25,0.02\n", "x2,2020-09-01,2020-09-20,0.3,0.05\n"
    header = "channel,start_date,end_date,mean,sd\n"
    (tmp_path / "both.csv").write_text(header + late + early)
    (tmp_path / "early.csv").write_text(header + early)
    both = ("--set", f"prior_windows={tmp_path / 'both.csv'}", "--set", "map_iterations=300")
    assert run(capsys, "fit", "--data", data, "--out", str(tmp_path / "fit"), *both)[0] == 0
    code, out, err = run(capsys, "backtest", "--data", data, "--out", str(tmp_path / "bt"), *both)
    assert code == 0 and err == "" and "mean" in out
    splits = json.loads((tmp_path / "bt" / "manifest.json").read_text())["splits"]
    assert [split["train_rows"] for split in splits] == [232, 260, 288, 316, 344, 372]

    cfg = dataclasses.replace(RunConfig(), map_iterations=300)
    frame = load_frame(data, cfg)
    for split, windows in ((splits[1], ""), (splits[2], str(tmp_path / "early.csv"))):
        alone, _ = run_fit(split_frame(frame, split["train_rows"]),
                           dataclasses.replace(cfg, seed=split["seed"], prior_windows=windows))
        assert (split["objective"], split["grad_norm"]) == (alone.trace[-1], alone.grad_norm)


@pytest.mark.parametrize("settings, generate, config", [
    (["sim_length=50", "sim_channels=2", "sim_coef_init=0.4,0.6", "sim_reflect=no",
      "sim_noise_sd=0.2"],
     simulate_rw, SimConfig(T=50, P=2, coef_init=(0.4, 0.6), reflect=False, noise_sd=0.2,
                            seed=7)),
    (["sim_kind=sparse", "sim_length=50", "sim_channels=2", "sim_sparsity=2:10:30:0.5",
      "sim_start_date=2021-03-01"],
     simulate_rw, SimConfig(T=50, P=2, seed=7, start_date="2021-03-01",
                            sparsity=SparsitySpec(channel=1, start=10, end=30, zero_prob=0.5))),
    # the multiplicative generator draws with the sim_* keys' defaults, which
    # are the random-walk generator's, not MultiplicativeSimConfig's
    (["sim_kind=multiplicative", "sim_length=60", "sim_channels=2", "sim_base_level=3.0"],
     simulate_multiplicative, MultiplicativeSimConfig(
         T=60, P=2, seed=7, base_level=3.0, trend_step_sd=0.02, coef_step_sd=0.03,
         coef_init=0.5, noise_sd=0.3)),
], ids=["rw", "sparse", "multiplicative"])
def test_simulate_writes_what_the_library_generator_writes(tmp_path, capsys, settings, generate,
                                                           config):
    sets = [arg for setting in settings for arg in ("--set", setting)]
    code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "cli"), "--seed", "7", *sets)
    assert code == 0, err
    dataset = generate(config)
    emit_csv(dataset.frame, str(tmp_path / "data.csv"))
    write_truth_csv(dataset, str(tmp_path / "truth.csv"))
    for name in ("data.csv", "truth.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_config_file_with_retired_knobs(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "sim_length = 40\nquantiles = 0.1,0.9\nlaplace_smoothing = 0.0\nsvi_samples = 1\n")
    code, out, err = run(capsys, "simulate", "--config", str(cfg_file),
                         "--out", str(tmp_path / "sim"))
    assert code == 0, err
    assert "(40 rows)" in out
    for key, value, kept in (("laplace_smoothing", "0.001", "0.0"), ("svi_samples", "4", "1")):
        cfg_file.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, "simulate", "--config", str(cfg_file),
                             "--out", str(tmp_path / key))
        assert code == 1
        assert err == (f"error: config key {key!r} is retired and loads only as "
                       f"{key} = {kept}, got {value!r}\n")
        assert out == ""


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sim_length = 50\nsim_channels = 1\nseed = 3\n")
    out_dir = tmp_path / "sim"
    code, out, _ = run(
        capsys, "simulate", "--config", str(cfg_file), "--out", str(out_dir),
        "--set", "sim_length=40",
    )
    assert code == 0
    assert "(40 rows)" in out  # flag beats file
    header = (out_dir / "data.csv").read_text().splitlines()[0]
    assert header == "date,y,x1"
    saved = json.loads((out_dir / "manifest.json").read_text())
    assert saved["config"]["seed"] == 3  # file beats default


class TestErrorPaths:
    def test_missing_data_flag(self, capsys, tmp_path):
        code, out, err = run(capsys, "fit", "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.strip() == "error: fit needs --data (or the data config key)"

    def test_backtest_without_data(self, capsys, tmp_path):
        code, out, err = run(capsys, "backtest", "--out", str(tmp_path / "o"))
        assert (code, out, err) == (
            1, "", "error: backtest needs --data (or the data config key)\n")

    def test_a_knot_count_above_the_series_length(self, capsys, tmp_path):
        sim_dir = tmp_path / "sim"
        assert simulate_small(capsys, str(sim_dir), extra=("--set", "sim_length=120"))[0] == 0
        code, out, err = run(
            capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "o"),
            *FAST, "--set", "knot_count_reg=500",
        )
        assert (code, out, err) == (1, "", "error: knot count 500 exceeds series length 120\n")

    def test_nonexistent_data_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fit", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_bad_set_syntax(self, capsys):
        code, _, err = run(capsys, "simulate", "--set", "sim_length")
        assert code == 1
        assert err.strip() == "error: --set needs KEY=VALUE, got 'sim_length'"

    def test_unknown_config_key(self, capsys):
        code, _, err = run(capsys, "simulate", "--set", "sim_lenght=80")
        assert code == 1
        assert "unknown config key 'sim_lenght'" in err

    def test_retired_key_is_unknown_to_set(self, capsys):
        code, out, err = run(capsys, "simulate", "--set", "map_restarts=3")
        assert code == 1
        assert err.strip() == "error: unknown config key 'map_restarts'"
        assert out == ""

    @pytest.mark.parametrize("command, setting, bound", [
        # 0 means automatic or off for these keys, and a negative value used
        # to silently mean the same
        ("fit", "noise_df=-3", ">= 0"), ("fit", "rho=-2", ">= 0"),
        ("fit", "init_scale_lev=-1", ">= 0"), ("fit", "knot_count_lev=-4", ">= 0"),
        ("fit", "knot_count_seas=-4", ">= 0"), ("fit", "knot_count_reg=-4", ">= 0"),
        ("backtest", "backtest_stride=-5", ">= 0"),
        # draws and the backtest keys used to be accepted by fit and fail
        # only in a later predict or backtest, and a knot distance of 0 only
        # after the data was read, each with an error that named no key
        ("fit", "draws=0", ">= 1"), ("fit", "draws=-7", ">= 1"),
        ("fit", "knot_distance_lev=0", ">= 1"), ("fit", "knot_distance_seas=0", ">= 1"),
        ("fit", "knot_distance_reg=0", ">= 1"), ("backtest", "backtest_horizon=0", ">= 1"),
        ("backtest", "backtest_splits=0", ">= 1"), ("backtest", "backtest_min_train=0", ">= 1"),
        # the optimizer and prior keys used to fail after the data was read,
        # naming a settings field instead of the key
        ("fit", "map_tol_window=0", ">= 1"), ("fit", "map_learning_rate=0", "> 0"),
        ("fit", "svi_iterations=0", ">= 1"), ("fit", "sigma_lev=0", "> 0"),
        ("fit", "mu_pool=-1", ">= 0"),
        # a simulator key used to be checked only by simulate (fit accepted
        # sim_noise_sd=-1 and saved it in its fit document), or in the
        # simulator with a message that named no key
        ("fit", "sim_noise_sd=-1", ">= 0"), ("simulate", "sim_period=1", "> 1"),
        ("simulate", "sim_length=1", ">= 2"), ("simulate", "sim_length=0", ">= 2"),
        ("simulate", "sim_channels=0", ">= 1"), ("simulate", "sim_channels=-2", ">= 1"),
    ])
    def test_out_of_range_setting_is_rejected_before_the_data_is_read(
            self, capsys, tmp_path, command, setting, bound):
        # the data file does not exist, so an error about the key shows it
        # was never read
        key, _, value = setting.partition("=")
        code, out, err = run(
            capsys, command, "--data", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "o"), "--set", setting,
        )
        assert code == 1
        assert err == f"error: config key {key!r} must be {bound}, got {parse_value(key, value)!r}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("settings", [
        ("sim_kind=multiplicative", "sim_log_spend_sd=1e300"),
        ("sim_kind=multiplicative", "sim_noise_sd=1e300"),
        ("sim_kind=multiplicative", "sim_base_level=1e300"),
        ("sim_covariate_mean=1e308",),
        ("sim_noise_sd=1e308",),
    ])
    def test_overflowing_simulation_settings_are_one_validation_error(
            self, capsys, tmp_path, settings):
        # each used to warn of an overflow and then blame the data
        argv = ["simulate", "--out", str(tmp_path / "sim")]
        for setting in settings:
            argv += ["--set", setting]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == ("error: simulation settings overflow: the generated response "
                       "or spend is not finite\n")
        assert out == ""
        assert not (tmp_path / "sim" / "data.csv").exists()

    def test_map_tol_window_must_be_positive(self, capsys, tmp_path):
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        code, out, err = run(
            capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "o"),
            *FAST, "--set", "map_tol_window=0",
        )
        assert code == 1
        assert err.strip() == "error: config key 'map_tol_window' must be >= 1, got 0"
        assert out == ""

    @pytest.mark.parametrize("mode, setting, message", [
        ("svi", "svi_learning_rate=nan", "config key 'svi_learning_rate' must be finite, got nan"),
        ("svi", "svi_init_log_sd=nan", "config key 'svi_init_log_sd' must be finite, got nan"),
        ("svi", "svi_init_log_sd=inf", "config key 'svi_init_log_sd' must be finite, got inf"),
        ("svi", "svi_final_learning_rate=inf",
         "config key 'svi_final_learning_rate' must be finite, got inf"),
        ("map", "map_learning_rate=nan", "config key 'map_learning_rate' must be finite, got nan"),
    ])
    def test_non_finite_optimizer_setting_is_a_validation_error(
            self, capsys, tmp_path, mode, setting, message):
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        code, out, err = run(
            capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "o"),
            *FAST, "--set", f"mode={mode}", "--set", setting,
        )
        assert code == 1
        assert err.strip() == f"error: {message}"
        assert out == ""

    @pytest.mark.parametrize("setting", [
        "rho=nan", "noise_df=nan", "sigma_reg=nan", "sigma_lev=inf",
        "sigma_seas=-inf", "sigma_pool=nan", "mu_pool=nan", "init_scale_lev=inf",
        "floor_epsilon=nan",
    ])
    def test_non_finite_structure_or_prior_setting_is_a_validation_error(
            self, capsys, tmp_path, setting):
        # each used to fit with the setting silently off (nan > 0 is false),
        # or fail with "log posterior non-finite at the initial point"
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        key, _, value = setting.partition("=")
        code, out, err = run(
            capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "o"),
            *FAST, "--set", setting,
        )
        assert code == 1
        assert err.strip() == f"error: config key {key!r} must be finite, got {float(value)!r}"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("settings, key, value", [
        (["sim_noise_sd=nan"], "sim_noise_sd", "nan"),
        (["sim_coef_init=nan"], "sim_coef_init", "nan"),
        (["sim_channels=2", "sim_coef_init=0.5,-inf"], "sim_coef_init", "-inf"),
        (["sim_kind=multiplicative", "sim_log_spend_sd=inf"], "sim_log_spend_sd", "inf"),
        (["sim_kind=multiplicative", "sim_period=nan"], "sim_period", "nan"),
        (["sim_trend_step_sd=inf"], "sim_trend_step_sd", "inf"),
    ], ids=["sim_noise_sd", "sim_coef_init", "sim_coef_init_entry", "sim_log_spend_sd",
            "sim_period", "sim_trend_step_sd"])
    def test_non_finite_simulation_setting_is_a_validation_error(
            self, capsys, tmp_path, settings, key, value):
        # each used to simulate a non-finite series and then fail with
        # "non-finite response at row 1", which names no config key
        args = [arg for setting in settings for arg in ("--set", setting)]
        code, out, err = run(capsys, "simulate", "--out", str(tmp_path / "o"), *args)
        assert code == 1
        assert err == f"error: config key {key!r} must be finite, got {value}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("settings, message", [
        (("zero_policy=floor", "floor_epsilon=0"),
         "config key 'floor_epsilon' under zero_policy floor must be > 0, got 0.0"),
        (("sim_coef_init=-0.5",), "config key 'sim_coef_init' must be >= 0, got -0.5"),
        (("sim_sparsity=0:10:20:1.0",), "config key 'sim_sparsity' channel must lie in 1..3, got 0"),
    ], ids=["floor_epsilon", "sim_coef_init", "sim_sparsity"])
    def test_out_of_range_setting_fails_before_reading_data(self, capsys, tmp_path, settings,
                                                             message):
        # floor_epsilon used to fail only once the data was read, and the
        # simulator keys used to fit and be saved in fit.json; the data file
        # does not exist, so these errors show validation stops the run first
        argv = ["fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rho", ["1e-300", "1e-154"])
    def test_a_rho_too_small_for_the_kernel_is_one_validation_error(self, capsys, tmp_path,
                                                                   rho):
        # a rho whose kernel rows have no finite log-weight used to end in an
        # IndexError traceback, or in numpy warnings and a row-sum error
        simulate_small(capsys, str(tmp_path / "sim"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fit", "--data", str(tmp_path / "sim" / "data.csv"),
                                 "--out", str(tmp_path / "o"), "--set", f"rho={rho}", *FAST)
        assert code == 1
        assert err == (f"error: kernel scale rho={float(rho)!r} is too small: "
                       f"a kernel row has no finite weight\n")

    @pytest.mark.parametrize("period", ["nan", "inf"])
    def test_non_finite_fourier_period_fails_before_reading_data(self, capsys, tmp_path, period):
        # nan used to fail at the initial point and inf to fit a constant
        # seasonal column; the data file does not exist, so an error about
        # the period shows that validation stops the run before any read
        code, out, err = run(
            capsys, "fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o"),
            "--set", f"fourier=7:1,{period}:1",
        )
        assert code == 1
        assert err == f"error: period must be finite, got {period}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_predict_rejects_non_finite_future_spend(self, capsys, tmp_path):
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        data = sim_dir / "data.csv"
        fit_dir = tmp_path / "fit"
        run(capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST)
        rows = future_rows(data, 3)
        rows[3][2] = "inf"
        future = tmp_path / "future.csv"
        write_csv(future, rows)
        code, out, err = run(
            capsys, "predict", "--fit", str(fit_dir / "fit.json"),
            "--future", str(future), "--horizon", "3", "--out", str(tmp_path / "fc"),
        )
        assert code == 1
        assert err.strip() == "error: non-finite value in column 'x2', future row 3"
        assert out == ""

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error: ")

    def test_sparse_kind_needs_window(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path / "o"),
            "--set", "sim_kind=sparse",
        )
        assert code == 1
        assert "sim_kind=sparse needs a sim_sparsity window" in err

    @pytest.mark.parametrize("settings, message", [
        (("sim_coef_init=-0.5",), "config key 'sim_coef_init' must be >= 0, got -0.5"),
        (("sim_kind=sparse", "sim_sparsity=1:10:20:1.5"),
         "config key 'sim_sparsity' prob must be <= 1, got 1.5"),
    ])
    def test_invalid_simulator_settings_leave_no_output_directory(
            self, capsys, tmp_path, settings, message):
        # the directory used to be made before the simulator checked them
        argv = ["simulate", "--out", str(tmp_path / "o")]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["rw", "multiplicative"])
    def test_sparsity_window_needs_the_sparse_kind(self, capsys, tmp_path, kind):
        # rw used to fail naming a Python function, and multiplicative
        # silently ignored the window
        code, out, err = run(
            capsys, "simulate", "--out", str(tmp_path / "o"),
            "--set", f"sim_kind={kind}", "--set", "sim_sparsity=1:10:20:1.0",
        )
        assert code == 1
        assert err == f"error: sim_sparsity needs sim_kind=sparse, got sim_kind={kind}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_predict_names_an_out_of_range_flag(self, capsys, tmp_path):
        # --draws used to reach forecast_quantiles, whose error named its
        # n_draws parameter, and --horizon was named without its dashes
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        data = sim_dir / "data.csv"
        fit_dir = tmp_path / "fit"
        code, _, err = run(capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST,
                           "--set", "mode=svi", "--set", "svi_iterations=60")
        assert code == 0, err
        future = tmp_path / "future.csv"
        write_csv(future, future_rows(data, 3))
        for flag, value, bound in (("--draws", "0", ">= 1"), ("--draws", "-3", ">= 1"),
                                   ("--horizon", "-1", ">= 0")):
            code, out, err = run(
                capsys, "predict", "--fit", str(fit_dir / "fit.json"), "--future", str(future),
                "--horizon", "3", "--quantiles", "0.5", "--draws", "5", flag, value,
                "--out", str(tmp_path / "fc"),
            )
            assert code == 1
            assert err == f"error: {flag} must be {bound}, got {value}\n"
            assert out == ""
            assert not (tmp_path / "fc").exists()

    def test_non_number_in_a_numeric_config_key_of_a_fit_document(self, capsys, tmp_path):
        # a null float key used to end in a TypeError from math.isfinite
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        data = sim_dir / "data.csv"
        fit_dir = tmp_path / "fit"
        code, _, err = run(capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST)
        assert code == 0, err
        doc = json.loads((fit_dir / "fit.json").read_text())
        numeric = [key for key, value in doc["config"].items()
                   if isinstance(value, (int, float)) and not isinstance(value, bool)]
        assert len(numeric) > 40 and "floor_epsilon" in numeric and "draws" in numeric
        bad_fit = tmp_path / "bad_fit.json"
        for bad in (None, "x", True):
            for key in numeric:
                bad_fit.write_text(json.dumps({**doc, "config": {**doc["config"], key: bad}}))
                code, out, err = run(capsys, "decompose", "--fit", str(bad_fit),
                                     "--data", str(data), "--out", str(tmp_path / "dec"))
                assert code == 1, (key, bad)
                kind = type(doc["config"][key]).__name__
                assert err == f"error: config key {key!r} expects {kind}, got {bad!r}\n"
                assert out == ""
        assert not (tmp_path / "dec").exists()

    def test_predict_names_a_negative_future_regressor(self, capsys, tmp_path):
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        data = sim_dir / "data.csv"
        fit_dir = tmp_path / "fit"
        run(capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST)
        rows = future_rows(data, 3)
        rows[3][1] = "-1.0"
        future = tmp_path / "future.csv"
        write_csv(future, rows)
        code, out, err = run(
            capsys, "predict", "--fit", str(fit_dir / "fit.json"),
            "--future", str(future), "--horizon", "3", "--out", str(tmp_path / "fc"),
        )
        assert code == 1
        assert err == "error: negative regressor 'x1' at future row 3\n"
        assert out == ""

    def test_a_short_prior_windows_row_names_its_cells(self, capsys, tmp_path):
        # used to end in AttributeError from None.strip()
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        windows = tmp_path / "windows.csv"
        write_csv(windows, [["channel", "start_date", "end_date", "mean", "sd"],
                            ["x1", "2020-01-05"]])
        code, out, err = run(
            capsys, "fit", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "fit"),
            *FAST, "--set", f"prior_windows={windows}",
        )
        assert code == 1
        assert err == "error: prior windows row 1 has 2 cells, expected 5\n"
        assert out == ""

    def test_a_short_future_row_names_its_cells(self, capsys, tmp_path):
        # used to end in TypeError from float(None)
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        data = sim_dir / "data.csv"
        fit_dir = tmp_path / "fit"
        run(capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST)
        rows = future_rows(data, 3)
        rows[2] = rows[2][:2]
        future = tmp_path / "future.csv"
        write_csv(future, rows)
        code, out, err = run(
            capsys, "predict", "--fit", str(fit_dir / "fit.json"),
            "--future", str(future), "--horizon", "3", "--out", str(tmp_path / "fc"),
        )
        assert code == 1
        assert err == "error: future row 2 has 2 cells, expected 3\n"
        assert out == ""

    def test_horizon_beyond_future_rows(self, capsys, tmp_path):
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        data = sim_dir / "data.csv"
        fit_dir = tmp_path / "fit"
        run(capsys, "fit", "--data", str(data), "--out", str(fit_dir), *FAST)
        future = tmp_path / "future.csv"
        write_csv(future, future_rows(data, 2))
        code, _, err = run(
            capsys, "predict", "--fit", str(fit_dir / "fit.json"),
            "--future", str(future), "--horizon", "5", "--out", str(tmp_path / "fc"),
        )
        assert code == 1
        assert "horizon 5 exceeds the 2 supplied future rows" in err

    def test_numerical_failure_exits_2(self, capsys, tmp_path, monkeypatch):
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))

        def blow_up(frame, cfg):
            raise DivergenceError("objective diverged at iteration 3")

        monkeypatch.setattr("btvc.cli.run_fit", blow_up)
        code, out, err = run(
            capsys, "fit", "--data", str(sim_dir / "data.csv"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert err.strip() == "error: objective diverged at iteration 3"
        assert out == ""

    def test_a_diverging_split_names_itself(self, capsys, tmp_path, monkeypatch):
        # the second split's objective turns non-finite on the 4th call of
        # the splits' stacked objective, at iteration 3
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        real = Objective.__call__
        calls = {"n": 0}

        def exploding(self, theta, out=None):
            value, grad = real(self, theta, out)
            calls["n"] += 1
            if calls["n"] > 3:
                self.values[1] = float("nan")
            return value, grad

        monkeypatch.setattr(Objective, "__call__", exploding)
        code, out, err = run(
            capsys, "backtest", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "bt"),
            *FAST, "--set", "backtest_horizon=5", "--set", "backtest_splits=2",
            "--set", "backtest_min_train=40",
        )
        assert code == 2
        assert err.strip() == "error: split 2: objective became non-finite at iteration 3"
        assert out == ""

    def test_a_diverging_svi_split_names_itself(self, capsys, tmp_path, monkeypatch):
        # the second split's gradient turns non-finite at step 4 of the
        # splits' stacked SVI objective, whose first gradient call builds H
        sim_dir = tmp_path / "sim"
        simulate_small(capsys, str(sim_dir))
        real = Objective.gradient
        calls = {"n": 0}

        def poisoned(self, theta, out=None):
            grad = real(self, theta, out)
            if self.include_jacobian:  # the SVI objective, not the MAP one
                calls["n"] += 1
                if calls["n"] == 4 + 2:
                    grad[self.theta_of[1][0]] = float("nan")
            return grad

        monkeypatch.setattr(Objective, "gradient", poisoned)
        code, out, err = run(
            capsys, "backtest", "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "bt"),
            *FAST, "--set", "backtest_horizon=5", "--set", "backtest_splits=2",
            "--set", "backtest_min_train=40", "--set", "mode=svi", "--set", "svi_iterations=20",
        )
        assert code == 2
        assert err.strip() == "error: split 2: gradient became non-finite at iteration 4"
        assert out == ""


@pytest.fixture(scope="module")
def svi_fit(tmp_path_factory):
    """A small saved SVI fit: (fit.json, data.csv, future.csv with 3 rows)."""
    root = tmp_path_factory.mktemp("svi_fit")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--out", str(root / "sim"), "--seed", "4",
                     "--set", "sim_kind=multiplicative", "--set", "sim_length=80",
                     "--set", "sim_channels=2"]) == 0
        data = root / "sim" / "data.csv"
        assert main(["fit", "--data", str(data), "--out", str(root / "fit"), *FAST,
                     "--set", "mode=svi", "--set", "svi_iterations=60"]) == 0
    future = root / "future.csv"
    write_csv(future, future_rows(data, 3))
    return root / "fit" / "fit.json", data, future


def read_with_a_mutated_document(capsys, tmp_path, svi_fit, mutate):
    """Write the SVI fit document after mutate(doc), then run decompose and
    predict --quantiles on it; returns [(code, out, err)] of both runs."""
    fit_json, data, future = svi_fit
    doc = json.loads(fit_json.read_text())
    mutate(doc)
    bad_fit = tmp_path / "bad_fit.json"
    bad_fit.write_text(json.dumps(doc))
    return [
        run(capsys, "decompose", "--fit", str(bad_fit), "--data", str(data),
            "--out", str(tmp_path / "dec")),
        run(capsys, "predict", "--fit", str(bad_fit), "--future", str(future), "--horizon", "3",
            "--quantiles", "0.1,0.9", "--draws", "20", "--out", str(tmp_path / "fc")),
    ]


@pytest.mark.parametrize("command", ["simulate", "fit", "backtest", "predict"])
def test_negative_seed_names_the_key_or_flag(capsys, tmp_path, command, svi_fit):
    # each used to end in numpy's "expected non-negative integer" traceback
    fit_json, data, future = svi_fit
    extra = {
        "simulate": ["--out", str(tmp_path / "o")],
        "fit": ["--data", str(data), "--out", str(tmp_path / "o"), "--set", "mode=svi"],
        "backtest": ["--data", str(data), "--out", str(tmp_path / "o")],
        "predict": ["--fit", str(fit_json), "--future", str(future), "--horizon", "3",
                    "--quantiles", "0.5", "--out", str(tmp_path / "o")],
    }[command]
    code, out, err = run(capsys, command, *extra, "--seed", "-1")
    assert code == 1
    name = "--seed" if command == "predict" else "config key 'seed'"
    assert err == f"error: {name} must be >= 0, got -1\n"
    assert out == ""
    assert not (tmp_path / "o").exists()


def _set(path, value):
    def mutate(doc):
        *parents, key = path
        for part in parents:
            doc = doc[part]
        doc[key] = value
    return mutate


def _delete(path):
    def mutate(doc):
        *parents, key = path
        for part in parents:
            doc = doc[part]
        del doc[key]
    return mutate


MALFORMED_DOCUMENTS = [
    (("theta_map",), "x", "theta_map expects a list of finite numbers, got 'x'"),
    (("theta_map",), [], "theta_map has 0 values, the packing's dim is {dim}"),
    (("variational", "mean"), None, "variational.mean expects a list of finite numbers, got None"),
    (("variational", "log_sd"), [], "variational.log_sd has 0 values, the packing's dim is {dim}"),
    (("variational",), "x", "variational block must be an object, got 'x'"),
    (("packing", "n_lev"), None, "n_lev expects int, got None"),
    (("hyperparams",), None, "hyperparams block must be an object, got None"),
    (("hyperparams", "bogus"), 1, "unknown hyperparams keys: ['bogus']"),
    (("config",), "x", "config block must be an object, got 'x'"),
    (("config", "mode"), "mcmc", "config key 'mode' must be one of map|svi, got 'mcmc'"),
    # a structure value used to be coerced where it was read: these three
    # exited 0, reading link as identity, step_days as 1 and the knot as 20
    (("structure", "link"), "x", "structure.link must be one of log|identity, got 'x'"),
    (("structure", "step_days"), 1.9, "structure.step_days expects int, got 1.9"),
    (("structure", "knots_reg"), [20.9, 50, 80],
     "structure.knots_reg expects a list of integers, got [20.9, 50, 80]"),
    (("structure", "knots_lev"), [99],
     "structure.knots_lev: knot times must lie in [1, 80], got [99]"),
    (("structure", "last_date"), "2020-02",
     "structure.last_date must be YYYY-MM-DD, got '2020-02'"),
    (("structure", "rho"), 1e-300,
     "kernel scale rho=1e-300 is too small: a kernel row has no finite weight"),
    (("structure", "bogus"), 1, "unknown structure keys: ['bogus']"),
    (("structure",), {},
     "structure block is empty in {path}: a library fit has no design recipe"),
]


@pytest.mark.parametrize("path, value, message", MALFORMED_DOCUMENTS, ids=[
    f"{'.'.join(path)}={value!r}" for path, value, _ in MALFORMED_DOCUMENTS])
def test_a_malformed_fit_document_names_the_key(capsys, tmp_path, svi_fit, path, value, message):
    dim = len(json.loads(svi_fit[0].read_text())["theta_map"])
    message = message.format(dim=dim, path=tmp_path / "bad_fit.json")
    for code, out, err in read_with_a_mutated_document(capsys, tmp_path, svi_fit,
                                                       _set(path, value)):
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe", b"[1, 2]"])
def test_a_file_that_is_not_a_fit_document(capsys, tmp_path, svi_fit, content):
    # text that is not JSON used to end in a JSONDecodeError traceback
    bad_fit = tmp_path / "bad_fit.json"
    bad_fit.write_bytes(content)
    code, out, err = run(capsys, "decompose", "--fit", str(bad_fit), "--data", str(svi_fit[1]),
                         "--out", str(tmp_path / "dec"))
    assert code == 1
    assert err == f"error: not a fit document: {bad_fit}\n"
    assert out == ""


def test_a_missing_packing_key_names_the_block_and_key(capsys, tmp_path, svi_fit):
    # a missing packing.n_lev used to raise KeyError
    for code, out, err in read_with_a_mutated_document(
            capsys, tmp_path, svi_fit, lambda doc: doc["packing"].pop("n_lev")):
        assert code == 1
        assert err == "error: packing block lacks keys: ['n_lev']\n"
        assert out == ""


@pytest.mark.parametrize("key, hint", [("seed", "int"), ("n_iterations", "int"),
                                       ("grad_norm", "float"), ("trace", "list"),
                                       ("trace_every", "int")])
@pytest.mark.parametrize("value", [None, "x", [], True])
def test_a_malformed_top_level_field_names_the_key(capsys, tmp_path, svi_fit, key, hint, value):
    # each used to end in a traceback from int(), float() or list()
    for code, out, err in read_with_a_mutated_document(capsys, tmp_path, svi_fit,
                                                       _set((key,), value)):
        # an empty trace is a list; a document without trace_every predates it
        if (key, value) in (("trace", []), ("trace_every", None)):
            assert code == 0
            continue
        assert code == 1
        assert err == f"error: {key} expects {hint}, got {value!r}\n"
        assert out == ""


MISSING_KEYS = {
    "format": "not a fit document: {path}",
    "packing": "packing block must be an object, got None",
    "hyperparams": "hyperparams block must be an object, got None",
    "theta_map": "theta_map expects a list of finite numbers, got None",
    "trace": "trace expects list, got None",
    "seed": "seed expects int, got None",
    "mode": "mode must be one of map|svi, got None",
    "stop_reason": "stop_reason expects str, got None",
    "n_iterations": "n_iterations expects int, got None",
    "grad_norm": "grad_norm expects float, got None",
    "structure": "structure block must be an object, got None",
}


def test_a_missing_top_level_key_names_it(capsys, tmp_path, svi_fit):
    # mode, stop_reason and structure used to end in KeyError tracebacks
    keys = json.loads(svi_fit[0].read_text())
    assert set(MISSING_KEYS) | {"config", "variational", "trace_every"} == set(keys)
    for key in keys:
        runs = read_with_a_mutated_document(capsys, tmp_path, svi_fit,
                                            lambda doc: doc.pop(key))
        if key in ("config", "trace_every"):  # a document may omit these
            assert [code for code, _, _ in runs] == [0, 0]
        elif key == "variational":  # a MAP document: it decomposes, but has no draws
            assert [code for code, _, _ in runs] == [0, 1]
            assert runs[1][2].startswith("error: quantile forecasts need an SVI fit")
        else:
            message = MISSING_KEYS[key].format(path=tmp_path / "bad_fit.json")
            assert runs == [(1, "", f"error: {message}\n")] * 2, key


def test_mutating_any_settings_field_or_theta_vector_never_ends_in_a_traceback(
        capsys, tmp_path, svi_fit):
    # every field of the config, hyperparams, packing and structure blocks,
    # and each theta vector, set in turn to values of the wrong type or
    # range, or deleted; then the structure block emptied, and an unknown
    # key added to each block. 152 of the structure block's 388 runs used
    # to end in a traceback
    doc = json.loads(svi_fit[0].read_text())
    blocks = ("config", "hyperparams", "packing", "structure")
    paths = [(block, key) for block in blocks for key in doc[block]]
    paths += [("theta_map",), ("variational", "mean"), ("variational", "log_sd")]
    mutations = [(path, value, _set(path, value))
                 for path in paths for value in (None, "x", [], -1, 0, 1.5, [1.5])]
    mutations += [(path, "deleted", _delete(path)) for path in paths]
    mutations += [(("structure",), {}, _set(("structure",), {}))]
    mutations += [((block, "bogus"), 1, _set((block, "bogus"), 1)) for block in blocks]
    failures = []
    for path, value, mutate in mutations:
        try:
            runs = read_with_a_mutated_document(capsys, tmp_path, svi_fit, mutate)
        except Exception as exc:  # a traceback in the CLI
            failures.append((path, value, repr(exc)))
            continue
        for code, _, err in runs:
            if code != 0 and not (code == 1 and err.startswith("error: ")
                                  and err.count("\n") == 1):
                failures.append((path, value, code, err))
    assert set(doc["config"]) == {f.name for f in dataclasses.fields(RunConfig)}
    assert set(doc["hyperparams"]) == {f.name for f in dataclasses.fields(HyperParams)}
    assert set(doc["structure"]) == {f.name for f in dataclasses.fields(Structure)}
    assert failures == []


def test_quantile_columns_name_every_digit_of_their_level(capsys, tmp_path, svi_fit):
    # the levels used to be named with :g, which wrote the header
    # date,forecast,q_0.123457,q_0.123457,q_1 and exited 0
    fit_json, _, future = svi_fit
    code, _, err = run(capsys, "predict", "--fit", str(fit_json), "--future", str(future),
                       "--horizon", "3", "--quantiles", "0.1234567,0.1234568,0.9999999",
                       "--draws", "20", "--out", str(tmp_path / "fc"))
    assert code == 0, err
    path = str(tmp_path / "fc" / "forecast.csv")
    names = ["q_0.1234567", "q_0.1234568", "q_0.9999999"]
    assert open(path).readline() == ",".join(["date", "forecast", *names]) + "\n"
    # btvc's own reader takes the file back: the names are distinct
    table = read_table(path, {"date": "date", "forecast": "number"}, rest="number")
    assert list(table) == ["date", "forecast", *names]


def test_decompose_rejects_a_series_on_another_calendar(capsys, tmp_path, svi_fit):
    # the same series shifted by a year used to exit 0 and write a
    # decomposition dated from 2020-12-31
    fit_json, data, _ = svi_fit
    header, *rows = [line.split(",") for line in data.read_text().splitlines()]
    first = np.datetime64(rows[0][0], "D")
    for name, dates, message in [
        ("shifted", [first + 365 + k for k in range(len(rows))],
         f"data row 1 has date {first + 365}, expected {first}"),
        ("every_other_day", [first + 2 * k - (len(rows) - 1) for k in range(len(rows))],
         f"data row 1 has date {first - (len(rows) - 1)}, expected {first}"),
    ]:
        moved = tmp_path / f"{name}.csv"
        write_csv(moved, [header, *([str(d), *row[1:]] for d, row in zip(dates, rows))])
        code, out, err = run(capsys, "decompose", "--fit", str(fit_json), "--data", str(moved),
                             "--out", str(tmp_path / name))
        assert (code, out, err) == (1, "", f"error: {message}\n"), name
        assert not (tmp_path / name / "decomposition.csv").exists()


def test_predict_without_future_on_a_fit_with_regressors(capsys, tmp_path, svi_fit):
    fit_json, _, _ = svi_fit
    code, out, err = run(capsys, "predict", "--fit", str(fit_json), "--horizon", "3",
                         "--out", str(tmp_path / "fc"))
    assert (code, out, err) == (
        1, "", "error: predict needs --future when the fit has regressors\n")
    assert not (tmp_path / "fc" / "forecast.csv").exists()


@pytest.mark.parametrize("role", ["data", "config", "future", "prior_windows"])
def test_a_text_input_that_is_not_utf8_is_one_error_line(capsys, tmp_path, svi_fit, role):
    # a Latin-1 series or config file used to end in a UnicodeDecodeError
    # traceback
    fit_json, data, _ = svi_fit
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("date,caf\xe9\n2020-01-01,1\n".encode("latin-1"))
    argv = {
        "data": ["fit", "--data", str(latin1), *FAST],
        "config": ["fit", "--data", str(data), "--config", str(latin1), *FAST],
        "future": ["predict", "--fit", str(fit_json), "--future", str(latin1), "--horizon", "3"],
        "prior_windows": ["fit", "--data", str(data), *FAST,
                          "--set", f"prior_windows={latin1}"],
    }[role]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
    assert (code, out, err) == (1, "", f"error: not UTF-8 text: {latin1}\n")


def test_successive_calls_share_one_parser_and_no_state(capsys, tmp_path, svi_fit):
    # main() builds its parser once per process; nothing a call parses may
    # reach a later call
    assert build_parser() is build_parser()
    _, data, _ = svi_fit
    usage = run(capsys, "fit", "--bogus")
    assert usage[0] == 1 and usage[2].startswith("error: unrecognized arguments: --bogus")

    fit = ["fit", "--data", str(data), *FAST]
    assert run(capsys, *fit, "--out", str(tmp_path / "a"), "--set", "draws=37")[0] == 0
    assert run(capsys, *fit, "--out", str(tmp_path / "b"))[0] == 0
    for out, draws in (("a", 37), ("b", RunConfig().draws)):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["config"]["draws"] == draws
        assert f"draws = {draws}\n" in (tmp_path / out / "config.txt").read_text()

    assert run(capsys, "fit", "--bogus") == usage
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: btvc")
    assert run(capsys, "fit", "--bogus") == usage


@pytest.fixture(scope="module")
def map_fit(svi_fit):
    """A MAP fit of svi_fit's series: fit.json."""
    _, data, _ = svi_fit
    out = data.parent.parent / "map_fit"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--data", str(data), "--out", str(out), *FAST]) == 0
    return out / "fit.json"


@pytest.mark.parametrize("case, message", [
    ("no future", "predict needs --future when the fit has regressors"),
    ("missing future", "[Errno 2] No such file or directory: '{missing}'"),
    ("short future", "horizon 5 exceeds the 3 supplied future rows"),
    ("unparsable quantiles", "unparsable quantiles 'x'"),
    ("quantile out of range", "quantile levels must lie in (0, 1)"),
    ("quantiles of a MAP fit", "quantile forecasts need an SVI fit; refit with mode=svi"),
])
def test_a_rejected_predict_leaves_no_out_directory(capsys, tmp_path, svi_fit, map_fit, case,
                                                     message):
    # predict used to make --out before it checked --future, the future
    # file and --quantiles, so each of these left an empty directory
    fit_json, _, future = svi_fit
    missing = tmp_path / "missing.csv"
    argv = {
        "no future": ["--fit", str(fit_json), "--horizon", "3"],
        "missing future": ["--fit", str(fit_json), "--horizon", "3", "--future", str(missing)],
        "short future": ["--fit", str(fit_json), "--horizon", "5", "--future", str(future)],
        "unparsable quantiles": ["--fit", str(fit_json), "--horizon", "3", "--future",
                                 str(future), "--quantiles", "x"],
        "quantile out of range": ["--fit", str(fit_json), "--horizon", "3", "--future",
                                  str(future), "--quantiles", "0.5,1.5"],
        "quantiles of a MAP fit": ["--fit", str(map_fit), "--horizon", "0", "--quantiles", "0.5"],
    }[case]
    code, out, err = run(capsys, "predict", *argv, "--out", str(tmp_path / "fc"))
    assert (code, out, err) == (1, "", f"error: {message.format(missing=missing)}\n")
    assert not (tmp_path / "fc").exists()


def test_a_noise_df_beyond_every_float_fits_as_gaussian_noise(capsys, tmp_path, svi_fit):
    # noise_df=1e308 used to end in OverflowError: math range error; its
    # rows are now those of the Gaussian, to rounding
    _, data, _ = svi_fit
    summaries = []
    for name, extra in (("t", ["--set", "noise_df=1e308"]), ("gauss", [])):
        code, out, err = run(capsys, "fit", "--data", str(data), "--out", str(tmp_path / name),
                             *FAST, *extra)
        assert (code, err) == (0, "")
        summaries.append(out.split("objective ")[1])
    assert summaries[0] == summaries[1]


def out_of_domain_values(kind):
    """The out-of-domain text for a RunConfig key of this kind."""
    return {str: ["garbage"], int: ["-1"], float: ["nan", "inf", "-inf", "1e308", "-1e308"]}[kind]


def test_no_setting_ends_in_a_traceback(capsys, tmp_path, monkeypatch):
    # each key in turn, through --set: simulate for the sim_ keys, a short
    # MAP fit of 30 rows for the others. Counts so large that numpy refuses
    # the allocation (sim_length=999999999999 ends in MemoryError) are left
    # untested. sim_start_date=garbage used to end in a ValueError traceback
    # and noise_df=1e308 in an OverflowError
    monkeypatch.chdir(tmp_path)  # out=garbage writes there
    assert simulate_small(capsys, "sim", extra=("--set", "sim_length=30"))[0] == 0
    fit = ["fit", "--data", "sim/data.csv", "--out", "o", "--set", "map_iterations=5"]
    for f in dataclasses.fields(RunConfig):
        argv = ["simulate", "--out", "o"] if f.name.startswith("sim_") else fit
        for value in out_of_domain_values(type(f.default)):
            code, out, err = run(capsys, *argv, "--set", f"{f.name}={value}")
            assert code in (0, 1, 2), (f.name, value)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, (f.name, value, err)
                assert out == "", (f.name, value)
