"""Config parsing, merging, and the derived views."""

import dataclasses

import pytest

from btvc.fourier import FourierSpec
from btvc.runconfig import (
    RunConfig,
    coef_init_values,
    config_from_dict,
    config_to_dict,
    config_to_text,
    csv_schema,
    fourier_specs,
    load_config,
    merge_config,
    parse_config_text,
    parse_value,
    quantile_levels,
    save_config,
    sparsity_fields,
    validate_config,
)
from btvc.timeframe import ValidationError


def test_every_field_has_a_default():
    # `data` defaults to "" so a bare RunConfig() constructs; the CLI is
    # responsible for demanding a real path.
    cfg = RunConfig()
    assert cfg.data == ""
    assert cfg.link == "log"
    assert cfg.mode == "map"
    assert cfg.rho == 0.0
    assert cfg.backtest_horizon == 28


def test_parse_value_types_follow_the_field():
    assert parse_value("knot_distance_lev", " 45 ") == 45
    assert isinstance(parse_value("knot_distance_lev", "45"), int)
    assert parse_value("sigma_reg", "0.25") == 0.25
    assert parse_value("link", "identity") == "identity"
    # int fields reject float text rather than truncating
    with pytest.raises(ValidationError, match="expects int"):
        parse_value("map_iterations", "3.5")
    with pytest.raises(ValidationError, match="expects float"):
        parse_value("sigma_reg", "abc")


def test_parse_value_unknown_key():
    with pytest.raises(ValidationError, match="unknown config key 'sigma_regg'"):
        parse_value("sigma_regg", "0.1")


@pytest.mark.parametrize(
    "key,bad",
    [
        ("link", "logit"),
        ("zero_policy", "drop"),
        ("knot_anchor", "middle"),
        ("mode", "mcmc"),
        ("sim_kind", "arma"),
        ("sim_reflect", "true"),
    ],
)
def test_choice_fields_are_validated(key, bad):
    cfg = dataclasses.replace(RunConfig(), **{key: bad})
    with pytest.raises(ValidationError, match=f"config key {key!r} must be one of"):
        validate_config(cfg)


def test_merge_config_overrides_base():
    base = dataclasses.replace(RunConfig(), sigma_reg=0.9, seed=3)
    merged = merge_config(base, {"sigma_reg": "0.1", "mode": "svi"})
    assert merged.sigma_reg == 0.1
    assert merged.mode == "svi"
    assert merged.seed == 3  # untouched keys keep the base value
    assert base.sigma_reg == 0.9  # base is not mutated


def test_parse_config_text_skips_comments_and_blanks():
    text = "# run settings\n\nseed = 11\n  link=identity  \n"
    assert parse_config_text(text) == {"seed": "11", "link": "identity"}


def test_parse_config_text_rejects_bad_lines():
    with pytest.raises(ValidationError, match="line 1 is not key = value"):
        parse_config_text("seed 11")
    with pytest.raises(ValidationError, match="duplicate config key 'seed' at line 2"):
        parse_config_text("seed = 1\nseed = 2")


def test_flag_beats_file_beats_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sigma_reg = 0.7\nseed = 5\n")
    from_file = load_config(str(path))
    assert from_file.sigma_reg == 0.7
    assert from_file.seed == 5
    assert from_file.link == "log"  # default survives
    # a CLI flag layer is one more merge on top of the file result
    final = merge_config(from_file, {"sigma_reg": "0.2"})
    assert final.sigma_reg == 0.2
    assert final.seed == 5


def test_a_config_file_with_a_byte_order_mark_reads_as_its_twin(tmp_path):
    # the BOM used to become part of the first key: unknown config key '\ufeffseed'
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text("seed = 5\nsigma_reg = 0.7\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(str(bom)) == load_config(str(plain))
    assert load_config(str(plain)) == merge_config(RunConfig(), {"seed": "5", "sigma_reg": "0.7"})


def test_save_load_round_trip_is_bit_exact(tmp_path):
    cfg = merge_config(
        RunConfig(),
        {
            "sigma_reg": "0.30000000000000004",
            "rho": "19.999999999999996",
            "floor_epsilon": "1e-06",
            "fourier": "7:2,365.25:1",
            "seed": "42",
        },
    )
    path = tmp_path / "saved.cfg"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    # repr() rendering keeps the exact float bits in the text form
    assert "sigma_reg = 0.30000000000000004" in config_to_text(cfg)


def test_dict_round_trip_and_unknown_keys():
    cfg = merge_config(RunConfig(), {"mode": "svi", "draws": "50"})
    doc = config_to_dict(cfg)
    assert doc["mode"] == "svi" and doc["draws"] == 50
    assert config_from_dict(doc) == cfg
    doc["bogus"] = 1
    with pytest.raises(ValidationError, match=r"unknown config keys: \['bogus'\]"):
        config_from_dict(doc)


def test_retired_keys_are_dropped_from_files_and_documents(tmp_path):
    # laplace_smoothing = 0.0 and svi_samples = 1, as older config.txt files
    # carry them, fit the same model as no key at all
    path = tmp_path / "old.cfg"
    path.write_text("map_restarts = 3\nmap_restart_scale = 0.3\nseed = 5\nquantiles = 0.1,0.9\n"
                    "laplace_smoothing = 0.0\nsvi_samples = 1\n")
    assert load_config(str(path)) == dataclasses.replace(RunConfig(), seed=5)
    for line in ("laplace_smoothing = 0.001", "svi_samples = 4", "svi_samples = x"):
        key, _, raw = line.partition(" = ")
        path.write_text(line + "\n")
        with pytest.raises(ValidationError, match=f"config key '{key}' is retired .* got '{raw}'"):
            load_config(str(path))
    # a fit document is never refit, so it drops them at any value
    doc = config_to_dict(RunConfig())
    doc.update(map_restarts=3, map_restart_scale=0.3, quantiles="0.5", laplace_smoothing=0.01,
               svi_samples=4)
    assert config_from_dict(doc) == RunConfig()
    for key in ("map_restarts", "quantiles", "laplace_smoothing", "svi_samples"):
        with pytest.raises(ValidationError, match=f"unknown config key '{key}'"):
            merge_config(RunConfig(), {key: "3"})


def test_fourier_specs_view():
    cfg = dataclasses.replace(RunConfig(), fourier="7:3, 365.25:2")
    assert fourier_specs(cfg) == (
        FourierSpec(period=7.0, order=3),
        FourierSpec(period=365.25, order=2),
    )
    assert fourier_specs(dataclasses.replace(RunConfig(), fourier="")) == ()
    with pytest.raises(ValidationError, match="is not period:order"):
        fourier_specs(dataclasses.replace(RunConfig(), fourier="7"))
    with pytest.raises(ValidationError, match="unparsable fourier entry"):
        fourier_specs(dataclasses.replace(RunConfig(), fourier="7:x"))


def test_quantile_levels_view():
    assert quantile_levels("0.025,0.5,0.975") == (0.025, 0.5, 0.975)
    assert quantile_levels(" ") == ()
    with pytest.raises(ValidationError, match=r"lie in \(0, 1\)"):
        quantile_levels("0.5,1.0")
    with pytest.raises(ValidationError, match="unparsable quantiles '0.5,x'"):
        quantile_levels("0.5,x")


def test_csv_schema_view():
    cfg = dataclasses.replace(
        RunConfig(), date_col="day", response_col="sales", regressor_cols="tv, radio"
    )
    schema = csv_schema(cfg)
    assert schema.date_col == "day"
    assert schema.response_col == "sales"
    assert schema.regressor_cols == ("tv", "radio")
    assert csv_schema(RunConfig()).regressor_cols is None  # infer from header


def test_coef_init_values_broadcast():
    cfg = dataclasses.replace(RunConfig(), sim_channels=3, sim_coef_init="0.4")
    assert coef_init_values(cfg) == (0.4, 0.4, 0.4)
    cfg = dataclasses.replace(RunConfig(), sim_channels=2, sim_coef_init="0.4,0.6")
    assert coef_init_values(cfg) == (0.4, 0.6)
    with pytest.raises(ValidationError, match="needs 1 or 3 values, got 2"):
        coef_init_values(
            dataclasses.replace(RunConfig(), sim_channels=3, sim_coef_init="0.4,0.6")
        )


def test_sparsity_fields_view():
    assert sparsity_fields(RunConfig()) is None
    cfg = dataclasses.replace(RunConfig(), sim_sparsity="2:150:249:1.0")
    assert sparsity_fields(cfg) == (2, 150, 249, 1.0)
    with pytest.raises(ValidationError, match="channel:start:end:prob"):
        sparsity_fields(dataclasses.replace(RunConfig(), sim_sparsity="2:150"))
    with pytest.raises(ValidationError, match="unparsable sim_sparsity"):
        sparsity_fields(dataclasses.replace(RunConfig(), sim_sparsity="a:1:2:0.5"))


@pytest.mark.parametrize("setting, message", [
    ("0:150:249:1.0", "channel must lie in 1..3, got 0"),
    ("4:150:249:1.0", "channel must lie in 1..3, got 4"),
    ("2:0:249:1.0", "window must lie in 1..300 with start <= end, got 0:249"),
    ("2:250:249:1.0", "window must lie in 1..300 with start <= end, got 250:249"),
    ("2:150:301:1.0", "window must lie in 1..300 with start <= end, got 150:301"),
    ("2:150:249:-0.5", "prob must be >= 0, got -0.5"),
    ("2:150:249:1.5", "prob must be <= 1, got 1.5"),
    ("2:150:249:nan", "prob must be finite, got nan"),
])
def test_sparsity_fields_ranges(setting, message):
    # each names the key and shows the channel 1-based, as it is written
    cfg = dataclasses.replace(RunConfig(), sim_sparsity=setting)
    with pytest.raises(ValidationError) as err:
        sparsity_fields(cfg)
    assert str(err.value) == f"config key 'sim_sparsity' {message}"
    edges = dataclasses.replace(RunConfig(), sim_sparsity="3:1:300:0.0")
    assert sparsity_fields(edges) == (3, 1, 300, 0.0)


def test_coef_init_values_are_nonnegative():
    cfg = dataclasses.replace(RunConfig(), sim_channels=2, sim_coef_init="0.4,-0.1")
    with pytest.raises(ValidationError, match=r"^config key 'sim_coef_init' must be >= 0, got -0.1$"):
        coef_init_values(cfg)
    assert coef_init_values(dataclasses.replace(cfg, sim_coef_init="0")) == (0.0, 0.0)


@pytest.mark.parametrize("link, zero_policy, checked", [
    ("log", "floor", True), ("log", "shift1", False), ("identity", "floor", False)])
def test_floor_epsilon_is_checked_only_where_it_is_read(link, zero_policy, checked):
    # as the fit's Structure checks it: only the log link's floor reads it
    cfg = dataclasses.replace(RunConfig(), link=link, zero_policy=zero_policy, floor_epsilon=0.0)
    if checked:
        with pytest.raises(ValidationError, match="'floor_epsilon' under zero_policy floor "
                                                  "must be > 0, got 0.0"):
            validate_config(cfg)
    else:
        assert validate_config(cfg) is cfg


def test_validate_config_runs_all_derived_views():
    # a config whose only problem sits inside a derived view still fails fast
    bad = dataclasses.replace(RunConfig(), sim_sparsity="2:150")
    with pytest.raises(ValidationError, match="channel:start:end:prob"):
        validate_config(bad)


@pytest.mark.parametrize("value", ["today", "now", "20200101", "garbage", ""])
def test_sim_start_date_is_a_day_of_a_four_digit_year(value):
    # 'today' and 'now' used to simulate a calendar that moved with the run
    # date, '20200101' one in the year 20200101, and 'garbage' ended in a
    # ValueError traceback from the simulator
    with pytest.raises(ValidationError, match=(
            f"^unparsable date {value!r} in config key 'sim_start_date'$")):
        merge_config(RunConfig(), {"sim_start_date": value})
    for day in ("2021-03-04", "2021-03", "2021"):
        assert merge_config(RunConfig(), {"sim_start_date": day}).sim_start_date == day


@pytest.mark.parametrize("component", ["lev", "seas", "reg"])
def test_knot_distance_is_checked_only_without_a_knot_count(component):
    # a count overrides the distance, so a config or fit document that
    # carries an unused distance below 1 still loads
    unused = dataclasses.replace(RunConfig(), **{f"knot_count_{component}": 5,
                                                 f"knot_distance_{component}": 0})
    assert validate_config(unused) is unused
    used = dataclasses.replace(RunConfig(), **{f"knot_distance_{component}": 0})
    with pytest.raises(ValidationError, match=f"'knot_distance_{component}' must be >= 1"):
        validate_config(used)
