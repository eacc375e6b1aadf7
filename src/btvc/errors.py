"""Exception types shared across the package, and the type and range rule for
settings."""

import dataclasses
import functools
import math
import operator
import reprlib
import types
import typing

import numpy as np


class BtvcError(Exception):
    """Base class for all package errors."""


class ValidationError(BtvcError):
    """Invalid inputs: schema violations, domain errors, infeasible configs."""


class DivergenceError(BtvcError):
    """Optimizer produced a non-finite objective; carries the trace so far and the
    0-based index of its run among those fitted together (inference.fit_maps, fit_svis)."""

    def __init__(self, message: str, trace=None, iteration: int | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.trace = [] if trace is None else list(trace)
        self.iteration = iteration
        self.index = index


class Bound(typing.NamedTuple):
    """A setting's range, declared in its annotation: Annotated[float,
    Bound(">", 0)] admits only values v with v > 0. op is >, >= or <=."""

    op: str
    limit: float


# the ranges the model's settings share: scales and rates, steps, counts, seeds
Positive = typing.Annotated[float, Bound(">", 0)]
NonNegative = typing.Annotated[float, Bound(">=", 0)]
Count = typing.Annotated[int, Bound(">=", 1)]
NonNegativeInt = typing.Annotated[int, Bound(">=", 0)]

# the types a declared int or float admits (isinstance with numbers.Real is far slower)
_NUMBERS = {int: (int, np.integer), float: (int, np.integer, float, np.floating)}
# what a list of each entry type is called in a message
_PLURALS = {int: "integers", float: "finite numbers", str: "strings"}
_SEQUENCES = (list, tuple, np.ndarray)
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


@functools.cache
def _rule(hint):
    """value -> what is wrong with it under the declared type hint, or None.

    A hint is int, float, str, bool or another class; Literal[...] of
    strings; tuple[X, ...] (a list or tuple whose every entry passes X) or
    tuple[A, B] (one entry per type); np.ndarray for a flat vector of
    floats; Annotated[X, Bound, ...] for an X within every Bound; or a
    union of these, which admits what any arm admits. A union reports the
    problem of its first arm, or for a list, tuple or array of its first
    tuple or array arm."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return lambda v: None if isinstance(v, str) and v in args else (
            "must be one of " + "|".join(args))
    if origin is typing.Annotated:
        typed = _rule(args[0])
        checks = [(_OPS[b.op], b.limit, f"must be {b.op} {b.limit}") for b in args[1:]]
        return lambda v: typed(v) or next(
            (problem for admits, limit, problem in checks if not admits(v, limit)), None)
    if origin in (typing.Union, types.UnionType):
        rules = [_rule(arg) for arg in args]
        sequence = next((rule for arg, rule in zip(args, rules) if arg is np.ndarray
                         or typing.get_origin(arg) is tuple), rules[0])
        return lambda v: None if any(rule(v) is None for rule in rules) else (
            sequence if isinstance(v, _SEQUENCES) else rules[0])(v)
    if hint is np.ndarray:
        return _rule(tuple[float, ...])
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            entry = _rule(args[0])
            problem = "expects a list of " + _PLURALS.get(args[0], str(args[0]))
            return lambda v: None if isinstance(v, _SEQUENCES) and not any(
                map(entry, v)) else problem
        entries = [_rule(arg) for arg in args]
        problem = "expects a list [" + ", ".join(arg.__name__ for arg in args) + "]"
        return lambda v: None if isinstance(v, _SEQUENCES) and len(v) == len(entries) and not any(
            rule(e) for rule, e in zip(entries, v)) else problem
    admits = _NUMBERS.get(hint, hint)

    def rule(v):
        # a bool is an int to Python but not a count or a scale here
        if isinstance(v, bool) and hint is not bool or not isinstance(v, admits):
            return "expects " + hint.__name__
        # nan passes every range check (nan > 0 is false)
        if hint is float and not (isinstance(v, _NUMBERS[int]) or math.isfinite(v)):
            return "must be finite"
        return None
    return rule


@functools.cache
def _rules(cls) -> tuple:
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name], _rule(hints[f.name])) for f in dataclasses.fields(cls))


def check_value(value, hint, label: str) -> None:
    """Raise ValidationError naming `label` unless value has the type `hint`."""
    problem = _rule(hint)(value)
    if problem:
        raise ValidationError(f"{label} {problem}, got {reprlib.repr(value)}")


def check_fields(obj, label: str = "{}") -> None:
    """check_value on each field of the dataclass obj, named label.format(name)."""
    for name, hint, rule in _rules(type(obj)):
        if rule(getattr(obj, name)):
            check_value(getattr(obj, name), hint, label.format(name))


def check_block(doc, block: str) -> dict:
    """doc itself, if it is a JSON object (a dict)."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{block} block must be an object, got {reprlib.repr(doc)}")
    return doc


def from_block(cls, doc, block: str, dropped=()):
    """Build the settings dataclass cls from one block of a document: an
    object whose keys are cls's fields, less the `dropped` keys it may carry.
    A field with a default may be missing."""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(check_block(doc, block)) - {f.name for f in fields} - set(dropped))
    if unknown:
        raise ValidationError(f"unknown {block} keys: {unknown}")
    missing = [f.name for f in fields if f.name not in doc and f.default is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{block} block lacks keys: {missing}")
    return cls(**{key: value for key, value in doc.items() if key not in dropped})
