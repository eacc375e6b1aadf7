"""Wiring tests: config -> structure -> fit -> forecast artifacts."""

import dataclasses
import hashlib
import re
import tracemalloc
from typing import get_type_hints

import numpy as np
import pytest

from btvc import pipeline
from btvc.errors import ValidationError
from btvc.evaluation import BacktestPlan, backtest
from btvc.fourier import FourierSpec, fourier_design
from btvc.inference import (MapConfig, SviConfig, draw_posterior, draw_quantiles, fit_map,
                             fit_svi, variational_draws)
from btvc.kernels import TILE_ROWS, KnotGrid, kernel_matrix
from btvc.model import HyperParams, ModelDesign, predict
from btvc.pipeline import (
    backtest_plan_from,
    build_structure,
    forecast_dates,
    forecast_design,
    forecast_quantiles,
    input_digest,
    load_frame,
    map_config_from,
    predict_from_fit,
    read_future_csv,
    run_backtest,
    run_fit,
    run_manifest,
    svi_config_from,
    training_design,
    write_forecast_csv,
)
from btvc.runconfig import RunConfig, config_from_dict, config_to_dict
from btvc.simulation import MultiplicativeSimConfig, SimConfig, simulate_multiplicative
from btvc.timeframe import CsvSchema, model_scale

from tests.test_inference import with_moments
from tests.test_timeframe import make_frame, make_structure, write_csv

FAST = dict(map_iterations=60)

# Each settings class runconfig.settings builds from a RunConfig: its key
# prefix, and the fields its callers give instead of the key rule (a key of
# another name, text to parse, or 0 read as automatic).
SETTINGS_RULES = [
    (MapConfig, "map_", {"seed"}),
    (SviConfig, "svi_", {"seed"}),
    (BacktestPlan, "backtest_", {"stride"}),
    (CsvSchema, "", {"regressor_cols"}),
    (HyperParams, "", {"init_scale_lev", "noise_df"}),
    (SimConfig, "sim_", {"T", "P", "seed", "coef_init", "reflect", "sparsity"}),
    (MultiplicativeSimConfig, "sim_", {"T", "P", "seed", "coef_init"}),
]


def small_cfg(**kw):
    values = dict(FAST, fourier="7:1", seed=2)
    values.update(kw)
    return dataclasses.replace(RunConfig(), **values)


def forecaster_from_config(cfg: RunConfig):
    """Expanding-window forecaster that refits one split at a time, each
    with run_fit under its split seed: the reference that run_backtest's
    stacked fits are compared against."""

    def forecaster(train, horizon, future_regressors, seed):
        fit, _ = run_fit(train, dataclasses.replace(cfg, seed=seed))
        return predict_from_fit(fit, future_regressors, horizon)

    return forecaster


def small_frame(T=60, P=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 4.0, size=(T, P))
    y = np.exp(1.5 + 0.2 * x[:, :1].sum(axis=1) + rng.normal(0, 0.05, T))
    return make_frame(T=T, P=P, x=x, y=y)


def full_block_quantiles(fit, future, horizon, levels, n_draws, seed):
    """forecast_quantiles composed over every knot: each draw unpacked in
    full, then every block multiplied through its kernel."""
    design = forecast_design(fit.structure, future, horizon)
    thetas = variational_draws(fit, n_draws, seed)
    b_lev, b_seas, b_reg, _, _ = fit.packing.unpack_stacked(thetas)

    def stacked(k, b):
        S, J, C = b.shape
        return k.product(b.transpose(1, 0, 2).reshape(J, S * C)).reshape(k.n_times, S, C)

    fitted = (design.k_lev.product(b_lev.T).T
              + np.einsum("tq,tsq->st", design.seasonal, stacked(design.k_seas, b_seas))
              + np.einsum("tp,tsp->st", design.regressors, stacked(design.k_reg, b_reg)))
    return draw_quantiles(np.exp(fitted) if fit.structure.link == "log" else fitted, levels)


def per_draw_quantiles(fit, future, horizon, levels, n_draws, seed):
    """The per-draw loop that forecast_quantiles batches, kept as its reference."""
    design = forecast_design(fit.structure, future, horizon)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sd = np.exp(fit.variational_log_sd)
    sims = np.empty((n_draws, horizon))
    for s in range(n_draws):
        theta = fit.variational_mean + sd * rng.standard_normal(fit.packing.dim)
        sims[s] = predict(fit.packing.unpack(theta), design, horizon,
                          link=fit.structure.link)
    return {float(q): np.quantile(sims, q, axis=0) for q in levels}


class TestBuildStructure:
    def test_shapes_and_structure_keys(self):
        frame = small_frame()
        inputs, hp, structure = build_structure(frame, small_cfg())
        assert inputs.design.regressors.shape == (60, 2)
        assert inputs.design.seasonal.shape == (60, 2)  # one harmonic
        assert inputs.target.shape == (60,)
        assert structure.T == 60
        assert structure.step_days == 1
        assert structure.last_date == str(frame.timestamps[-1])
        assert structure.knots_lev == (30, 60)
        assert structure.knots_seas == (60,)  # distance clamped to T
        assert structure.knots_reg == (30, 60)
        assert structure.fourier == ((7.0, 1),)
        assert structure.link == "log"
        assert structure.regressor_names == ("x1", "x2")

    def test_auto_rho_is_half_the_knot_gap(self):
        frame = small_frame()
        _, _, structure = build_structure(frame, small_cfg(knot_distance_reg=20))
        assert structure.rho == 10.0

    def test_auto_rho_single_knot_falls_back_to_quarter_span(self):
        frame = small_frame()
        _, _, structure = build_structure(frame, small_cfg(knot_count_reg=1))
        assert structure.rho == 15.0

    def test_explicit_rho_wins(self):
        _, _, structure = build_structure(small_frame(), small_cfg(rho=4.5))
        assert structure.rho == 4.5

    def test_model_scale_arrays_log_vs_identity(self):
        frame = small_frame()
        _, _, structure = build_structure(frame, small_cfg())
        x, target = model_scale(structure, frame.regressors, frame.response)
        np.testing.assert_allclose(target, np.log(frame.response))
        np.testing.assert_allclose(x, np.log1p(frame.regressors))
        _, _, structure_i = build_structure(frame, small_cfg(link="identity"))
        x_i, target_i = model_scale(structure_i, frame.regressors, frame.response)
        np.testing.assert_array_equal(target_i, frame.response)
        np.testing.assert_array_equal(x_i, frame.regressors)

    def test_init_scale_defaults_to_ten_response_sds(self):
        frame = small_frame()
        _, _, structure = build_structure(frame, small_cfg())
        _, target = model_scale(structure, frame.regressors, frame.response)
        _, hp, _ = build_structure(frame, small_cfg())
        assert hp.init_scale_lev == pytest.approx(10.0 * float(np.std(target)))
        _, hp2, _ = build_structure(frame, small_cfg(init_scale_lev=3.0))
        assert hp2.init_scale_lev == 3.0


class TestConfigBridges:
    def test_map_config_fields(self):
        cfg = small_cfg(map_learning_rate=0.01, seed=9)
        mc = map_config_from(cfg)
        assert mc.learning_rate == 0.01
        assert mc.iterations == 60
        assert mc.seed == 9

    def test_svi_config_fields(self):
        cfg = small_cfg(svi_iterations=123, seed=9)
        sc = svi_config_from(cfg)
        assert sc.iterations == 123
        assert sc.seed == 9

    def test_every_hyperparameter_is_a_config_key(self):
        # every fit document records the hyperparams block, so each of its
        # settings is one a run can set; a test-only switch belongs elsewhere
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        assert {f.name for f in dataclasses.fields(HyperParams)} <= keys

    @pytest.mark.parametrize("mode", ["map", "svi"])
    def test_run_fit_records_the_config(self, mode):
        # fit_map and fit_svi know nothing of the run; run_fit records it
        cfg = small_cfg(mode=mode, svi_iterations=20)
        fit, _ = run_fit(small_frame(), cfg)
        assert fit.config == config_to_dict(cfg)
        assert config_from_dict(fit.config) == cfg

    def test_backtest_plan_stride_zero_means_horizon(self):
        plan = backtest_plan_from(small_cfg(backtest_stride=0))
        assert plan.stride is None
        assert backtest_plan_from(small_cfg(backtest_stride=3)).stride == 3

    @pytest.mark.parametrize("cls, prefix, given", SETTINGS_RULES,
                             ids=[cls.__name__ for cls, _, _ in SETTINGS_RULES])
    def test_each_key_the_rule_reads_matches_its_field(self, cls, prefix, given):
        # a key that feeds field f carries f's range; and f's default, but
        # for the multiplicative generator, which draws with the sim_* keys
        # of the random-walk one
        keys = {f.name: f for f in dataclasses.fields(RunConfig)}
        key_hints = get_type_hints(RunConfig, include_extras=True)
        hints = get_type_hints(cls, include_extras=True)
        read = [f for f in dataclasses.fields(cls)
                if f.name not in given and prefix + f.name in keys]
        assert read
        for f in read:
            key = prefix + f.name
            assert key_hints[key] == hints[f.name], key
            if cls is not MultiplicativeSimConfig:
                assert keys[key].default == f.default, key

    @pytest.mark.parametrize("cls, prefix", [(MapConfig, "map_"), (SviConfig, "svi_"),
                                             (BacktestPlan, "backtest_")])
    def test_every_optimizer_and_backtest_key_feeds_a_field(self, cls, prefix):
        fed = {prefix + f.name for f in dataclasses.fields(cls)}
        assert {f.name for f in dataclasses.fields(RunConfig) if f.name.startswith(prefix)} <= fed

    def test_an_svi_run_fit_starts_from_the_one_module_fit_map(self, monkeypatch):
        # perfbench's tracer rebinds pipeline.fit_map and pipeline.fit_svi and
        # reads one fit_map span per fit, so run_fit must fit the MAP start
        # through that name, once, and hand that fit to fit_svi
        maps, starts = [], []
        real_map, real_svi = pipeline.fit_map, pipeline.fit_svi

        def counting_map(*args, **kwargs):
            maps.append(real_map(*args, **kwargs))
            return maps[-1]

        def counting_svi(*args, init, **kwargs):
            starts.append(init)
            return real_svi(*args, init=init, **kwargs)

        monkeypatch.setattr(pipeline, "fit_map", counting_map)
        monkeypatch.setattr(pipeline, "fit_svi", counting_svi)
        fit, _ = run_fit(small_frame(), small_cfg(mode="svi", svi_iterations=20))
        assert len(maps) == 1 and len(starts) == 1
        assert starts[0] is maps[0]
        assert np.array_equal(fit.theta, maps[0].theta)


class TestSavedFitDesigns:
    def test_training_design_matches_original(self):
        frame = small_frame()
        cfg = small_cfg()
        inputs, _, structure = build_structure(frame, cfg)
        rebuilt = training_design(structure, frame)
        np.testing.assert_array_equal(rebuilt.regressors, inputs.design.regressors)
        np.testing.assert_array_equal(rebuilt.seasonal, inputs.design.seasonal)
        np.testing.assert_array_equal(rebuilt.k_reg.weights, inputs.design.k_reg.weights)
        np.testing.assert_array_equal(rebuilt.k_lev.weights, inputs.design.k_lev.weights)
        np.testing.assert_array_equal(rebuilt.k_seas.weights, inputs.design.k_seas.weights)

    def test_training_design_rejects_mismatched_data(self):
        frame = small_frame()
        cfg = small_cfg()
        _, _, structure = build_structure(frame, cfg)
        with pytest.raises(ValidationError, match="59 rows but the fit was trained on 60"):
            training_design(structure, small_frame(T=59))
        renamed = dataclasses.replace(frame, regressor_names=("a", "b"))
        with pytest.raises(ValidationError, match="regressor columns do not match"):
            training_design(structure, renamed)

    def test_forecast_design_continues_the_training_rows(self):
        frame = small_frame()
        cfg = small_cfg()
        _, _, structure = build_structure(frame, cfg)
        h = 5
        T = structure.T
        future = np.full((h, 2), 2.5)
        fc = forecast_design(structure, future, h)
        specs = (FourierSpec(7.0, 1),)
        np.testing.assert_array_equal(
            fc.seasonal, fourier_design(T + h, specs)[T:]
        )
        grid = KnotGrid(structure.knots_reg, T)
        full = kernel_matrix(grid, "gaussian", rho=structure.rho, times=range(1, T + h + 1))
        np.testing.assert_array_equal(fc.k_reg.weights, full.weights[T:])
        # log link: future regressors get the same zero policy as training
        np.testing.assert_allclose(fc.regressors, np.log1p(future))

    def test_forecast_design_validation(self):
        _, _, structure = build_structure(small_frame(), small_cfg())
        with pytest.raises(ValidationError, match="horizon must be >= 1"):
            forecast_design(structure, np.zeros((0, 2)), 0)
        with pytest.raises(ValidationError, match=r"shape \(3, 1\) does not match \(3, 2\)"):
            forecast_design(structure, np.zeros((3, 1)), 3)


    @pytest.mark.parametrize("fitter", ["map", "svi"])
    def test_a_library_fit_has_no_design_recipe(self, fitter):
        # each used to end in AttributeError: 'NoneType' object has no
        # attribute 'regressor_names' (or 'T')
        frame = small_frame()
        inputs, hp, _ = build_structure(frame, small_cfg())
        if fitter == "map":
            fit = fit_map(inputs, hp, MapConfig(iterations=60))
        else:
            fit = fit_svi(inputs, hp, SviConfig(iterations=20),
                          init=fit_map(inputs, hp, MapConfig(iterations=60)))
        assert fit.structure is None
        future = np.full((3, 2), 2.5)
        message = "^structure block is empty in this fit: a library fit has no design recipe$"
        for call in (lambda: predict_from_fit(fit, future, 3),
                     lambda: forecast_design(fit.structure, future, 3),
                     lambda: training_design(fit.structure, frame),
                     lambda: forecast_quantiles(with_moments(fit, "own"), future, 3, (0.5,), 10)):
            with pytest.raises(ValidationError, match=message):
                call()

def test_a_long_structure_holds_its_kernels_as_bands():
    # dense, the three kernels of this structure held 59.5 MB and
    # build_structure's traced peak was 111.5 MB; as bands of the weights of
    # at least sqrt(tiny) they held 2.59 MB with a 15.4 MB peak. Cut at 2^-54
    # they hold 1.22 MB and the peak measured 6.5 MB (numpy 2, x86-64); built
    # from each row's kept range, with no (row, knot, value) triples, it
    # measured 3.6 MB, bounded here at about 1.5 times that. Byte counts, no
    # timing.
    frame = simulate_multiplicative(MultiplicativeSimConfig(T=10000, P=3, seed=10000)).frame
    tracemalloc.start()
    try:
        inputs, _, _ = build_structure(frame, RunConfig(seed=10000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = inputs.design
    held = sum(k.band.nbytes + k.first.nbytes for k in (d.k_lev, d.k_seas, d.k_reg))
    assert held < 2.4 * 2**20
    assert peak < 5.5 * 2**20


class TestFitAndForecast:
    def test_predict_from_fit_equals_extended_design_predict(self):
        frame = small_frame()
        cfg = small_cfg()
        fit, inputs = run_fit(frame, cfg)
        h = 4
        future = np.full((h, 2), 3.0)
        quick = predict_from_fit(fit, future, h)

        structure = fit.structure
        T = structure.T
        specs = (FourierSpec(7.0, 1),)
        full = ModelDesign(
            regressors=model_scale(structure, np.vstack([frame.regressors, future]))[0],
            seasonal=fourier_design(T + h, specs),
            k_lev=kernel_matrix(KnotGrid(structure.knots_lev, T), "level",
                                times=range(1, T + h + 1)),
            k_seas=kernel_matrix(KnotGrid(structure.knots_seas, T), "level",
                                 times=range(1, T + h + 1)),
            k_reg=kernel_matrix(
                KnotGrid(structure.knots_reg, T), "gaussian",
                rho=structure.rho, times=range(1, T + h + 1),
            ),
            regressor_names=frame.regressor_names,
        )
        manual = predict(fit.params, full, h, link="log")
        np.testing.assert_allclose(quick, manual, rtol=0, atol=1e-12)
        assert np.all(quick > 0)  # log link returns original scale

    def test_predict_from_fit_zero_horizon(self):
        fit, _ = run_fit(small_frame(), small_cfg())
        assert predict_from_fit(fit, np.zeros((0, 2)), 0).size == 0

    def test_forecast_quantiles_need_svi(self):
        fit, _ = run_fit(small_frame(), small_cfg())
        for horizon in (2, 0):  # checked before the horizon-0 return too
            with pytest.raises(ValidationError, match="MAP-only"):
                forecast_quantiles(fit, np.zeros((horizon, 2)), horizon, [0.5], n_draws=10)

    def test_forecast_quantiles_ordered(self):
        cfg = small_cfg(mode="svi", svi_iterations=80)
        fit, _ = run_fit(small_frame(), cfg)
        future = np.full((3, 2), 2.0)
        q = forecast_quantiles(fit, future, 3, [0.1, 0.5, 0.9], n_draws=64, seed=5)
        assert set(q) == {0.1, 0.5, 0.9}
        assert q[0.5].shape == (3,)
        assert np.all(q[0.1] <= q[0.5]) and np.all(q[0.5] <= q[0.9])

    @pytest.mark.parametrize("P, fourier, noise_df", [(2, "7:1", 0.0), (2, "", 0.0),
                                                      (0, "7:1", 0.0), (2, "7:1", 5.0)],
                             ids=["seasonal", "no-seasonal", "no-regressors", "student-t"])
    @pytest.mark.parametrize("packing_kind", ["default", "identity", "fixed", "fixed_b_lev"])
    @pytest.mark.parametrize("link", ["log", "identity"])
    def test_forecast_quantiles_match_per_draw_reference(self, link, packing_kind, P, fourier,
                                                         noise_df):
        # 7 level and regression knots 30 rows apart: forecast rows reach
        # only the last few, and 300 rows take two tiles
        fit, _ = run_fit(small_frame(T=200, P=P),
                         small_cfg(link=link, fourier=fourier, noise_df=noise_df))
        q = with_moments(fit, packing_kind)
        levels = (0.05, 0.5, 0.95)
        for horizon in (1, 5, 40, TILE_ROWS + 44):
            future = np.full((horizon, P), 2.5)
            design = forecast_design(q.structure, future, horizon)
            assert design.k_reg.reach.stop - design.k_reg.reach.start < len(q.structure.knots_reg)
            got = forecast_quantiles(q, future, horizon, levels, n_draws=200, seed=8)
            full = full_block_quantiles(q, future, horizon, levels, n_draws=200, seed=8)
            ref = per_draw_quantiles(q, future, horizon, levels, n_draws=200, seed=8)
            assert list(got) == list(full) == list(ref)
            for level in levels:
                assert got[level].tobytes() == full[level].tobytes(), (horizon, level)
                assert np.all(np.abs(got[level] - ref[level])
                              <= 1e-12 * np.maximum(1.0, np.abs(ref[level])))
            assert np.all(got[0.05] < got[0.95])

    def test_forecast_quantiles_reject_an_underflowing_sigma_draw(self):
        fit, _ = run_fit(small_frame(), small_cfg())
        q = with_moments(fit, "default")
        q.variational_mean[-1] = -800.0  # ln sigma_obs: exp underflows to 0
        for horizon in (1, 3, TILE_ROWS + 1):  # ln sigma_obs is no knot, but is checked
            with pytest.raises(ValidationError, match="sigma_obs must be > 0"):
                forecast_quantiles(q, np.full((horizon, 2), 2.0), horizon, [0.5], n_draws=10)
        with pytest.raises(ValidationError, match="sigma_obs must be > 0"):
            q.packing.unpack(q.variational_mean)
        with pytest.raises(ValidationError, match="n_draws must be >= 1"):
            forecast_quantiles(q, np.full((3, 2), 2.0), 3, [0.5], n_draws=0)

    @pytest.mark.parametrize("level", [-0.1, 1.5, np.nan])
    def test_a_level_np_quantile_rejects_is_a_validation_error(self, level):
        # on these levels draw_quantiles used to read a wrapped index (-0.1
        # gave a value near the 0.9 quantile), the maximum (1.5), or fail in
        # IndexError (nan); forecasts at horizon 0 returned {level: []}
        fit, inputs = run_fit(small_frame(), small_cfg())
        q = with_moments(fit, "default")
        message = f"^quantile level {re.escape(repr(level))} is not a number in \\[0, 1\\]$"
        draws = np.random.default_rng(0).standard_normal((300, 4))
        for call in (lambda: draw_quantiles(draws, [0.5, level]),
                     lambda: forecast_quantiles(q, np.full((28, 2), 2.0), 28, [level], 50),
                     lambda: forecast_quantiles(q, np.zeros((0, 2)), 0, [level], 50),
                     lambda: draw_posterior(q, inputs.design.k_reg, 20).coefficient_quantiles(
                         [0.5, level])):
            with pytest.raises(ValidationError, match=message):
                call()

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    @pytest.mark.parametrize("link", ["log", "identity"])
    def test_forecasts_reject_non_finite_future_spend(self, link, cell):
        # predict_from_fit used to return a nan (or inf) forecast at that row
        fit, _ = run_fit(small_frame(), small_cfg(link=link))
        future = np.full((3, 2), 2.0)
        future[1, 0] = cell
        with pytest.raises(ValidationError, match="^non-finite regressor at row 2$"):
            predict_from_fit(fit, future, 3)
        with pytest.raises(ValidationError, match="^non-finite regressor at row 2$"):
            forecast_quantiles(with_moments(fit, "default"), future, 3, [0.5], n_draws=10)

    def test_run_backtest_equals_manual_assembly(self):
        # the splits' fits, stacked, against one run_fit per split
        frame = small_frame(T=70)
        for mode in ("map", "svi"):
            cfg = small_cfg(
                backtest_horizon=5, backtest_splits=2, backtest_min_train=40,
                map_iterations=40, mode=mode, svi_iterations=30,
            )
            report, _ = run_backtest(frame, cfg)
            manual = backtest(
                frame, forecaster_from_config(cfg), backtest_plan_from(cfg),
                root_seed=cfg.seed,
            )
            assert report.per_split == manual.per_split


class TestFilePlumbing:
    def test_load_frame_negative_regressors_follow_link(self, tmp_path):
        rows = [
            ["date", "y", "x1"],
            ["2024-01-01", "5.0", "-1.0"],
            ["2024-01-02", "6.0", "0.5"],
        ]
        path = tmp_path / "d.csv"
        write_csv(path, rows)
        frame = load_frame(str(path), small_cfg(link="identity"))
        assert frame.regressors[0, 0] == -1.0
        with pytest.raises(ValidationError):
            load_frame(str(path), small_cfg(link="log"))

    def future_structure(self):
        return make_structure(regressor_names=["x1", "x2"], step_days=1, last_date="2024-02-29")

    def test_read_future_csv_happy_path(self, tmp_path):
        rows = [
            ["date", "x1", "x2"],
            ["2024-03-01", "1.0", "2.0"],
            ["2024-03-02", "3.0", "4.0"],
            ["2024-03-03", "5.0", "6.0"],
        ]
        path = tmp_path / "future.csv"
        write_csv(path, rows)
        x = read_future_csv(str(path), self.future_structure(), 2)
        np.testing.assert_array_equal(x, [[1.0, 2.0], [3.0, 4.0]])

    def test_read_future_csv_errors(self, tmp_path):
        path = tmp_path / "future.csv"
        write_csv(path, [["date", "x1"], ["2024-03-01", "1.0"]])
        with pytest.raises(ValidationError, match=r"^missing column 'x2' in .*future\.csv$"):
            read_future_csv(str(path), self.future_structure(), 1)

        write_csv(path, [["date", "x1", "x2"], ["2024-03-01", "1.0", "2.0"]])
        with pytest.raises(ValidationError, match="horizon 3 exceeds the 1 supplied"):
            read_future_csv(str(path), self.future_structure(), 3)

        rows = [
            ["date", "x1", "x2"],
            ["2024-03-01", "1.0", "2.0"],
            ["2024-03-04", "3.0", "4.0"],  # gap
        ]
        write_csv(path, rows)
        with pytest.raises(ValidationError, match="row 2 has date 2024-03-04, expected 2024-03-02"):
            read_future_csv(str(path), self.future_structure(), 2)

        write_csv(path, [["date", "x1", "x2"], ["2024-03-01", "1.0", "oops"]])
        with pytest.raises(ValidationError,
                           match="^unparsable value 'oops' in column 'x2' at future row 1$"):
            read_future_csv(str(path), self.future_structure(), 1)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_read_future_csv_rejects_non_finite_values(self, tmp_path, cell):
        # float() parses these, but the training data rejects them, and a
        # forecast from them is non-finite
        path = tmp_path / "future.csv"
        write_csv(path, [["date", "x1", "x2"], ["2024-03-01", "1.0", "2.0"],
                         ["2024-03-02", cell, "4.0"]])
        with pytest.raises(ValidationError,
                           match="^non-finite value in column 'x1', future row 2$"):
            read_future_csv(str(path), self.future_structure(), 2)

    def test_forecast_dates_continue_the_calendar(self):
        dates = forecast_dates(make_structure(step_days=7, last_date="2024-01-01"), 3)
        assert [str(d) for d in dates] == ["2024-01-08", "2024-01-15", "2024-01-22"]

    def test_write_forecast_csv(self, tmp_path):
        path = tmp_path / "fc.csv"
        point = np.array([1.5, 2.5])
        q = {0.025: np.array([1.0, 2.0]), 0.975: np.array([2.0, 3.0])}
        write_forecast_csv(str(path), make_structure(step_days=1, last_date="2024-02-29"), point,
                           q)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "date,forecast,q_0.025,q_0.975"
        assert lines[1] == "2024-03-01,1.5,1.0,2.0"
        assert lines[2] == "2024-03-02,2.5,2.0,3.0"

    def test_input_digest_is_sha256(self, tmp_path):
        path = tmp_path / "blob.csv"
        path.write_bytes(b"date,y\n2024-01-01,3\n")
        assert input_digest(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_run_manifest_contents(self, tmp_path):
        path = tmp_path / "blob.csv"
        path.write_bytes(b"abc")
        cfg = small_cfg(seed=17)
        manifest = run_manifest(cfg, "fit", str(path))
        assert manifest["command"] == "fit"
        assert manifest["seed"] == 17
        assert manifest["config"]["map_iterations"] == 60
        assert manifest["input_sha256"] == hashlib.sha256(b"abc").hexdigest()
        assert set(manifest["versions"]) == {"package", "numpy", "python"}
        assert run_manifest(cfg, "simulate", None)["input_sha256"] is None
