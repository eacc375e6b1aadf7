"""The one type and range rule for settings: every field of every settings
dataclass is checked against its declared annotation, including the bounds
the annotation declares, and an error names the field."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import types
import typing

import numpy as np
import pytest

import btvc
from btvc.calibration import PriorWindow
from btvc.errors import (Bound, Count, NonNegative, NonNegativeInt, Positive, ValidationError,
                         check_value, from_block)
from btvc.evaluation import BacktestPlan
from btvc.fourier import FourierSpec
from btvc.inference import MapConfig, ParameterPacking, SviConfig
from btvc.model import HyperParams, Structure
from btvc.runconfig import RunConfig, validate_config
from btvc.simulation import MultiplicativeSimConfig, SimConfig, SparsitySpec

# each settings class: a valid instance's arguments, how a changed field is
# checked, and how its errors name the field
SETTINGS = {
    RunConfig: ({}, lambda kw: validate_config(RunConfig(**kw)), "config key {!r}"),
    HyperParams: ({}, lambda kw: HyperParams(**kw), "{}"),
    MapConfig: ({}, lambda kw: MapConfig(**kw), "{}"),
    SviConfig: ({}, lambda kw: SviConfig(**kw), "{}"),
    ParameterPacking: (dict(n_lev=2, n_seas_knots=1, n_seas_cols=2, n_reg_knots=2,
                            n_channels=1), lambda kw: ParameterPacking(**kw), "{}"),
    FourierSpec: (dict(period=7.0, order=2), lambda kw: FourierSpec(**kw), "{}"),
    PriorWindow: (dict(channel="x1", start=1, end=5, mean=0.3, sd=0.1),
                  lambda kw: PriorWindow(**kw), "window {}"),
    Structure: (dict(T=60, last_date="2024-02-29", step_days=1, knots_lev=[1, 60], knots_seas=[60],
                     knots_reg=[30, 60], rho=15.0, fourier=[[7.0, 1]], link="log",
                     zero_policy="shift1", floor_epsilon=1e-6, regressor_names=["x1", "x2"]),
                lambda kw: Structure(**kw), "structure.{}"),
    SimConfig: ({}, lambda kw: SimConfig(**kw), "{}"),
    MultiplicativeSimConfig: ({}, lambda kw: MultiplicativeSimConfig(**kw), "{}"),
    SparsitySpec: (dict(channel=0, start=1, end=3), lambda kw: SparsitySpec(**kw), "{}"),
    BacktestPlan: ({}, lambda kw: BacktestPlan(**kw), "{}"),
}


def declared_bounds(hint) -> list[tuple[type, Bound]]:
    """(the bounded type, its Bound) for each bound an annotation declares,
    directly or in an arm of a union."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        return [(args[0], bound) for bound in args[1:]]
    if origin in (typing.Union, types.UnionType):
        return [pair for arm in args for pair in declared_bounds(arm)]
    return []


def out_of_range(kind: type, bound: Bound):
    """The value nearest the bound that the bound rejects: the limit itself
    for >, the next value below it for >=, and above it for <=."""
    limit = kind(bound.limit)
    if bound.op == ">":
        return limit
    step = -1 if bound.op == ">=" else 1
    return limit + step if kind is int else math.nextafter(limit, step * math.inf)


def hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def bad_values(hint):
    """Values of the wrong type for a field declared as hint, with nan for
    a float and one bad entry for a list."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return ["x", 1]
    if origin is typing.Annotated:
        return bad_values(args[0])
    if hint is np.ndarray:
        return bad_values(tuple[float, ...])
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            return ["x", None, 1] + [[v] for v in bad_values(args[0])]
        return ["x", None, 1, [], list(args)]
    if args:  # a union: values that every arm rejects
        arms = [bad_values(arm) for arm in args if arm is not type(None)]
        return [v for v in arms[0] if all(v in arm for arm in arms[1:])
                and not (v is None and type(None) in args)]
    if hint is str:
        return [1, None]
    if hint is bool:
        return ["x", 1, None]
    bad = ["x", True, [1], None]
    if hint is float:
        bad += [float("nan"), float("inf")]
    if hint is int:
        bad += [1.5]
    return bad


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in SETTINGS for f in dataclasses.fields(cls)
])
def test_a_wrong_typed_or_non_finite_field_names_the_field(cls, name):
    base, build, label = SETTINGS[cls]
    build(base)  # the base is valid
    for bad in bad_values(hints(cls)[name]):
        with pytest.raises(ValidationError) as info:
            build({**base, name: bad})
        assert str(info.value).startswith(label.format(name) + " "), (bad, str(info.value))


BOUNDED = [(cls, name, kind, bound) for cls in SETTINGS for name, hint in hints(cls).items()
           for kind, bound in declared_bounds(hint)]


@pytest.mark.parametrize("cls, name, kind, bound", BOUNDED, ids=[
    f"{cls.__name__}.{name}{bound.op}{bound.limit}" for cls, name, _, bound in BOUNDED])
def test_a_value_outside_a_declared_bound_names_the_field_and_the_bound(cls, name, kind, bound):
    base, build, label = SETTINGS[cls]
    value = out_of_range(kind, bound)
    with pytest.raises(ValidationError) as info:
        build({**base, name: value})
    assert str(info.value) == f"{label.format(name)} must be {bound.op} {bound.limit}, got {value!r}"


def test_every_dataclass_with_a_bounded_field_is_in_the_settings_table():
    modules = [importlib.import_module(f"btvc.{m.name}") for m in pkgutil.iter_modules(btvc.__path__)]
    bounded = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
               and any(map(declared_bounds, hints(cls).values()))}
    assert bounded and bounded <= set(SETTINGS), sorted(c.__name__ for c in bounded - set(SETTINGS))


def test_messages():
    with pytest.raises(ValidationError, match=r"^config key 'rho' expects float, got None$"):
        validate_config(RunConfig(rho=None))
    with pytest.raises(ValidationError,
                       match=r"^config key 'link' must be one of log\|identity, got 'x'$"):
        validate_config(RunConfig(link="x"))
    with pytest.raises(ValidationError, match=r"^sigma_lev must be finite, got nan$"):
        HyperParams(sigma_lev=float("nan"))
    with pytest.raises(ValidationError, match=r"^window mean must be finite, got nan$"):
        PriorWindow("x1", 1, 5, float("nan"), 0.1)
    with pytest.raises(ValidationError, match=r"^noise_df expects float, got 'x'$"):
        HyperParams(noise_df="x")
    with pytest.raises(ValidationError, match=r"^noise_df must be > 0, got -1$"):
        HyperParams(noise_df=-1)
    with pytest.raises(ValidationError, match=(
            r"^coef_init expects a list of finite numbers, got \[0\.1, 'a', 0\.2\]$")):
        SimConfig(coef_init=[0.1, "a", 0.2])
    with pytest.raises(ValidationError,
                       match=r"^reg_transform must be one of softplus\|identity, got 'x'$"):
        ParameterPacking(1, 1, 1, 1, 1, reg_transform="x")


def test_numpy_scalars_and_ints_are_numbers():
    MapConfig(iterations=np.int64(5), learning_rate=np.float32(0.1), rel_tol=0)
    ParameterPacking(np.int64(2), 1, 1, 1, 1, fixed_b_lev=np.array([1, 2]), fixed_sigma_obs=1)
    validate_config(RunConfig(sigma_lev=1, seed=np.int64(3)))


def test_a_bound_admits_its_limit_unless_it_is_strict():
    for value, hint in [(0, NonNegativeInt), (1, Count), (0.0, NonNegative), (1e-300, Positive),
                        (1.0, typing.Annotated[float, Bound("<=", 1)]), (None, Count | None)]:
        check_value(value, hint, "v")
    with pytest.raises(ValidationError, match=r"^v must be > 0, got 0$"):
        check_value(0, Positive, "v")


def test_check_value_on_a_vector():
    check_value([0.5, 1, np.float64(2.0)], np.ndarray, "theta_map")
    with pytest.raises(ValidationError,
                       match=r"^theta_map expects a list of finite numbers, got \[0\.5, 'x'\]$"):
        check_value([0.5, "x"], np.ndarray, "theta_map")


def test_check_value_on_tuples_and_unions():
    check_value((1, np.int64(2)), tuple[int, ...], "knots")
    check_value([], tuple[int, ...], "knots")
    check_value([[7.0, 3], (30, 1)], tuple[tuple[float, int], ...], "fourier")
    for value in (0.5, [0.5, 1], (0.5,), np.array([0.5])):
        check_value(value, float | tuple[float, ...], "coef_init")
    check_value(None, float | None, "noise_df")
    for value, hint, message in [
        ([1, 2.5], tuple[int, ...], "expects a list of integers"),
        ([[7.0, 3.5]], tuple[tuple[float, int], ...], "expects a list of tuple[float, int]"),
        ([7.0], tuple[float, int], "expects a list [float, int]"),
        ("x", float | tuple[float, ...], "expects float"),
        # a list is judged by the sequence arm, whatever the arms' order
        ([float("nan")], float | tuple[float, ...], "expects a list of finite numbers"),
        (-1.0, typing.Annotated[float, Bound(">", 0)] | None, "must be > 0"),
    ]:
        with pytest.raises(ValidationError, match=rf"^v {re.escape(message)}, got "):
            check_value(value, hint, "v")


@pytest.mark.parametrize("doc, message", [
    (None, "hyperparams block must be an object, got None"),
    ("x", "hyperparams block must be an object, got 'x'"),
    ({"bogus": 1}, "unknown hyperparams keys: ['bogus']"),
    ({"laplace_smoothing": 0.0, "sigma_lev": "x"}, "sigma_lev expects float, got 'x'"),
])
def test_from_block_key_rule(doc, message):
    with pytest.raises(ValidationError) as info:
        from_block(HyperParams, doc, "hyperparams", dropped=("laplace_smoothing",))
    assert str(info.value) == message


def test_from_block_names_missing_required_keys():
    with pytest.raises(ValidationError) as info:
        from_block(ParameterPacking, {"n_seas_knots": 1}, "packing")
    assert str(info.value) == (
        "packing block lacks keys: ['n_lev', 'n_seas_cols', 'n_reg_knots', 'n_channels']")
    packing = from_block(ParameterPacking, {"n_lev": 2, "n_seas_knots": 1, "n_seas_cols": 2,
                                            "n_reg_knots": 2, "n_channels": 1}, "packing")
    assert packing.reg_transform == "softplus" and packing.fixed_b_lev is None
