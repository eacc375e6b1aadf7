"""Flat, typed run configuration with a lossless text representation.

The file format is one `key = value` pair per line; `#` starts a comment.
Every key has a default except `data`, which names the input CSV and is
usually supplied as a flag. Precedence is flag > file > default. Text is
parsed by the type of each default and checked by the annotations, which
also declare each key's range; floats are written back with repr() so a
save/load cycle is bit-exact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Literal

from .errors import (Count, LogSdCap, NonNegative, NonNegativeInt, Positive, PriorLocation,
                     PriorScale, ValidationError, check_fields, check_value, from_block)
from .fourier import FourierSpec, Period
from .simulation import Length, Probability
from .timeframe import CsvSchema, parse_date


# A key where 0 means automatic or off (rho, init_scale_lev, noise_df, the
# knot counts, backtest_stride) takes no negative value, which would mean the
# same; every other range is that of the setting the key feeds.
@dataclass(frozen=True)
class RunConfig:
    # data and transforms
    data: str = ""
    date_col: str = "date"
    response_col: str = "y"
    regressor_cols: str = ""          # comma list; empty means all other columns
    link: Literal["log", "identity"] = "log"
    zero_policy: Literal["shift1", "floor"] = "shift1"
    floor_epsilon: float = 1e-6
    # structure
    fourier: str = "7:3"              # period:order pairs, comma separated; empty = none
    knot_distance_lev: int = 30
    knot_distance_seas: int = 90
    knot_distance_reg: int = 30
    knot_count_lev: NonNegativeInt = 0  # >0 switches that component to count spacing
    knot_count_seas: NonNegativeInt = 0
    knot_count_reg: NonNegativeInt = 0
    knot_anchor: Literal["end", "start"] = "end"
    rho: NonNegative = 0.0            # 0 = half the regression knot spacing
    # hyperparameters
    sigma_lev: PriorScale = 0.1
    sigma_seas: PriorScale = 0.05
    mu_pool: PriorLocation = 0.0
    sigma_pool: PriorScale = 1.0
    sigma_reg: PriorScale = 0.5
    init_scale_lev: PriorLocation = 0.0  # 0 = 10 * sd of the model-scale response
    noise_df: NonNegative = 0.0       # 0 = Gaussian noise
    # inference
    mode: Literal["map", "svi"] = "map"
    draws: Count = 300
    prior_windows: str = ""           # path to a calibration CSV
    seed: NonNegativeInt = 0
    out: str = "out"
    map_learning_rate: Positive = 0.05
    map_final_learning_rate: Positive = 1e-6
    map_iterations: Count = 10000
    map_rel_tol: NonNegative = 1e-8
    map_tol_window: Count = 50
    svi_iterations: Count = 50             # cap on the natural-gradient steps
    svi_init_log_sd: LogSdCap = 0.0        # cap on the start's conditional log-sds
    # backtest protocol
    backtest_horizon: Count = 28
    backtest_splits: Count = 6
    backtest_min_train: Count = 1
    backtest_stride: NonNegativeInt = 0  # 0 = horizon
    # simulation
    sim_kind: Literal["rw", "sparse", "multiplicative"] = "rw"
    sim_length: Length = 300
    sim_channels: Count = 3
    sim_trend_step_sd: NonNegative = 0.02
    sim_coef_step_sd: NonNegative = 0.03
    sim_coef_init: str = "0.5"        # one value, or one per channel
    sim_covariate_mean: float = 3.0
    sim_covariate_sd: NonNegative = 1.0
    sim_noise_sd: NonNegative = 0.3
    sim_reflect: Literal["yes", "no"] = "yes"
    sim_sparsity: str = ""            # channel:start:end:prob (channel 1-based)
    sim_start_date: str = "2020-01-01"
    sim_base_level: float = 4.6
    sim_seasonal_cos: float = 0.10
    sim_seasonal_sin: float = 0.06
    sim_period: Period = 7.0
    sim_log_spend_mean: float = 0.0
    sim_log_spend_sd: NonNegative = 0.5


# Keys that older fit documents and config files carry but that no longer
# change a result: fit documents drop them on load, while --set rejects them
# like any unknown key. A config file drops one at any value (None) or only
# at the value it still fits the same model with; any other value would
# silently change a refit, so it is an error.
_RETIRED_KEYS = {
    "map_restarts": None,
    "map_restart_scale": None,
    "quantiles": None,
    "laplace_smoothing": 0.0,
    "svi_samples": 1,
    "svi_learning_rate": None,
    "svi_final_learning_rate": None,
}

def parse_value(key: str, raw: str):
    kind = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}.get(key)
    if kind is None:
        raise ValidationError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ValidationError(f"config key {key!r} expects {kind.__name__}, got {raw!r}") from None


def validate_config(cfg: RunConfig) -> RunConfig:
    check_fields(cfg, "config key {!r}")
    # a knot distance is unused, so unchecked, once its count is set
    for part in ("lev", "seas", "reg"):
        if getattr(cfg, "knot_count_" + part) == 0:
            key = "knot_distance_" + part
            check_value(getattr(cfg, key), Count, f"config key {key!r}")
    # floor_epsilon is read only under the log link's floor policy
    if cfg.link == "log" and cfg.zero_policy == "floor":
        check_value(cfg.floor_epsilon, Positive, "config key 'floor_epsilon' under zero_policy floor")
    fourier_specs(cfg)
    coef_init_values(cfg)
    sparsity_fields(cfg)
    parse_date(cfg.sim_start_date, "in config key 'sim_start_date'")
    return cfg


def merge_config(base: RunConfig, overrides: dict[str, str]) -> RunConfig:
    values = {key: parse_value(key, raw) for key, raw in overrides.items()}
    return validate_config(dataclasses.replace(base, **values))


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno} is not key = value: {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ValidationError(f"duplicate config key {key!r} at line {lineno}")
        if key in _RETIRED_KEYS:
            _check_retired(key, raw.strip())
        else:
            out[key] = raw.strip()
    return out


def _check_retired(key: str, raw: str) -> None:
    kept = _RETIRED_KEYS[key]
    try:
        same = kept is None or type(kept)(raw) == kept
    except ValueError:
        same = False
    if not same:
        raise ValidationError(
            f"config key {key!r} is retired and loads only as {key} = {kept!r}, got {raw!r}"
        )


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """The config file at path (UTF-8 text, with or without a byte-order
    mark) merged over base, by default RunConfig()."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"not UTF-8 text: {path}") from None
    return merge_config(base or RunConfig(), parse_config_text(text))


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_text(cfg))


def config_to_dict(cfg: RunConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunConfig)}


def config_from_dict(doc: dict) -> RunConfig:
    return validate_config(from_block(RunConfig, doc, "config", dropped=_RETIRED_KEYS))


# -- derived views -----------------------------------------------------------

def fourier_specs(cfg: RunConfig) -> tuple[FourierSpec, ...]:
    if not cfg.fourier.strip():
        return ()
    specs = []
    for part in cfg.fourier.split(","):
        part = part.strip()
        if ":" not in part:
            raise ValidationError(
                f"fourier entry {part!r} is not period:order"
            )
        period_s, _, order_s = part.partition(":")
        try:
            specs.append(FourierSpec(period=float(period_s), order=int(order_s)))
        except ValueError:
            raise ValidationError(f"unparsable fourier entry {part!r}") from None
    return tuple(specs)


def quantile_levels(text: str) -> tuple[float, ...]:
    """The comma-separated levels of `btvc predict --quantiles`."""
    if not text.strip():
        return ()
    try:
        levels = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"unparsable quantiles {text!r}") from None
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ValidationError("quantile levels must lie in (0, 1)")
    return levels


def settings(cls, cfg: RunConfig, prefix: str = "", **given):
    """The dataclass cls built from cfg: each field f not in given takes key
    prefix + f when RunConfig has one, and keeps its default otherwise.
    given sets the rest: fields whose key has another name, holds text to
    parse, or reads 0 as automatic."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    values = {f.name: getattr(cfg, prefix + f.name) for f in dataclasses.fields(cls)
              if f.name not in given and prefix + f.name in keys}
    return cls(**values, **given)


def csv_schema(cfg: RunConfig) -> CsvSchema:
    cols = None
    if cfg.regressor_cols.strip():
        cols = tuple(c.strip() for c in cfg.regressor_cols.split(","))
    return settings(CsvSchema, cfg, regressor_cols=cols)


def coef_init_values(cfg: RunConfig) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in cfg.sim_coef_init.split(","))
    except ValueError:
        raise ValidationError(f"unparsable sim_coef_init {cfg.sim_coef_init!r}") from None
    for value in values:
        check_value(value, NonNegative, "config key 'sim_coef_init'")
    if len(values) == 1:
        values = values * cfg.sim_channels
    if len(values) != cfg.sim_channels:
        raise ValidationError(
            f"sim_coef_init needs 1 or {cfg.sim_channels} values, got {len(values)}"
        )
    return values


def sparsity_fields(cfg: RunConfig) -> tuple[int, int, int, float] | None:
    """(channel, start, end, prob) of sim_sparsity, channel 1-based, each
    checked against the simulation it shapes; None when it is empty."""
    if not cfg.sim_sparsity.strip():
        return None
    parts = cfg.sim_sparsity.split(":")
    if len(parts) != 4:
        raise ValidationError(
            f"sim_sparsity must be channel:start:end:prob, got {cfg.sim_sparsity!r}"
        )
    try:
        channel, start, end = int(parts[0]), int(parts[1]), int(parts[2])
        prob = float(parts[3])
    except ValueError:
        raise ValidationError(f"unparsable sim_sparsity {cfg.sim_sparsity!r}") from None
    key = "config key 'sim_sparsity'"
    if not 1 <= channel <= cfg.sim_channels:
        raise ValidationError(f"{key} channel must lie in 1..{cfg.sim_channels}, got {channel}")
    if not 1 <= start <= end <= cfg.sim_length:
        raise ValidationError(
            f"{key} window must lie in 1..{cfg.sim_length} with start <= end, got {start}:{end}")
    check_value(prob, Probability, f"{key} prob")
    return channel, start, end, prob
