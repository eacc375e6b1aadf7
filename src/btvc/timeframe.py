"""Series container, CSV ingestion, and the log transform.

The model is multiplicative on the original scale and is fit after taking
logs, so this module owns the boundary between raw files and the numeric
arrays the rest of the package consumes.
"""

from __future__ import annotations

import csv
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ValidationError

ZERO_POLICIES = ("shift1", "floor")


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for series CSV files.

    regressor_cols=None means every column other than date/response, in
    file order.
    """

    date_col: str = "date"
    response_col: str = "y"
    regressor_cols: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.regressor_cols is not None:
            object.__setattr__(self, "regressor_cols", tuple(self.regressor_cols))


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Observed series on the original scale.

    timestamps must be strictly increasing with a constant step; the step is
    carried so seasonality periods stay in time-step units. Regressors are
    nonnegative by default (spend semantics); synthetic additive-scale data
    may disable that check explicitly.
    """

    timestamps: np.ndarray
    response: np.ndarray
    regressors: np.ndarray
    regressor_names: tuple[str, ...] = ()
    allow_negative_regressors: InitVar[bool] = False

    def __post_init__(self, allow_negative_regressors):
        ts = np.asarray(self.timestamps, dtype="datetime64[D]")
        y = np.asarray(self.response, dtype=float)
        x = np.asarray(self.regressors, dtype=float)
        names = tuple(str(n) for n in self.regressor_names)
        if not names and x.ndim == 2:
            names = tuple(f"x{p + 1}" for p in range(x.shape[1]))
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "regressors", x)
        object.__setattr__(self, "regressor_names", names)
        if ts.ndim != 1 or ts.size < 2:
            raise ValidationError("need at least 2 timestamps")
        T = ts.size
        if y.shape != (T,):
            raise ValidationError(f"response shape {y.shape} does not match T={T}")
        if x.ndim != 2 or x.shape[0] != T:
            raise ValidationError(f"regressors shape {x.shape} does not match T={T}")
        if x.shape[1] != len(names):
            raise ValidationError(
                f"{x.shape[1]} regressor columns but {len(names)} names"
            )
        diffs = np.diff(ts)
        if np.any(diffs <= np.timedelta64(0, "D")):
            i = int(np.argmax(diffs <= np.timedelta64(0, "D")))
            raise ValidationError(f"timestamps not strictly increasing at row {i + 2}")
        if np.any(diffs != diffs[0]):
            i = int(np.argmax(diffs != diffs[0]))
            raise ValidationError(
                f"gapped timestamps at row {i + 2}: step {diffs[i]} != {diffs[0]}"
            )
        if not np.all(np.isfinite(y)):
            i = int(np.argmax(~np.isfinite(y)))
            raise ValidationError(f"non-finite response at row {i + 1}")
        if not np.all(np.isfinite(x)):
            i = int(np.argmax(~np.isfinite(x).any(axis=1)))
            raise ValidationError(f"non-finite regressor at row {i + 1}")
        if not allow_negative_regressors and x.size and x.min() < 0:
            i, j = np.argwhere(x < 0)[0]
            raise ValidationError(
                f"negative regressor {names[j]!r} at row {int(i) + 1}"
            )

    @property
    def n_times(self) -> int:
        return int(self.response.size)

    @property
    def n_regressors(self) -> int:
        return int(self.regressors.shape[1])

    @property
    def step(self) -> np.timedelta64:
        return self.timestamps[1] - self.timestamps[0]


def model_scale(structure: dict, regressors, response=None):
    """Raw regressors, and the response when given, mapped to the scale a
    fit structure is fit on; returns (regressors, response or None).

    The structure's link, zero_policy and floor_epsilon decide the map. Under
    link=log the response is logged and must be strictly positive, and the
    nonnegative regressors go through ln(x+1) (shift1, so zero spend lands
    exactly at 0) or ln(max(x, floor_epsilon)) (floor). Other links copy both.
    """
    x = np.array(regressors, dtype=float)
    y = None if response is None else np.array(response, dtype=float)
    if structure["link"] != "log":
        return x, y
    policy = structure["zero_policy"]
    if policy not in ZERO_POLICIES:
        raise ValidationError(f"unknown zero_policy {policy!r}")
    if y is not None:
        if np.any(y <= 0):
            i = int(np.argmax(y <= 0))
            raise ValidationError(f"nonpositive response at row {i + 1}: {y[i]}")
        y = np.log(y)
    if x.size and x.min() < 0:
        i, j = np.argwhere(x < 0)[0]
        name = structure["regressor_names"][j]
        raise ValidationError(f"negative regressor {name!r} at row {int(i) + 1}")
    if policy == "shift1":
        return np.log1p(x), y
    epsilon = structure["floor_epsilon"]
    if epsilon is None or not epsilon > 0:
        raise ValidationError(f"floor policy needs floor_epsilon > 0, got {epsilon!r}")
    return np.log(np.maximum(x, epsilon)), y


def _parse_cell(text: str, col: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"unparsable value {text!r} in column {col!r} at row {row}"
        ) from None


def dict_rows(reader: csv.DictReader, kind: str) -> list[dict]:
    """The rows of reader, each checked to hold one cell per header column;
    a short row has None values, a long one its extra cells under None."""
    rows, m = list(reader), len(reader.fieldnames)
    for r, row in enumerate(rows, start=1):
        n = m - list(row.values()).count(None) + len(row.get(None, ()))
        if n != m:
            raise ValidationError(f"{kind} row {r} has {n} cells, expected {m}")
    return rows


def ingest_csv(path: str, schema: CsvSchema | None = None, *,
               allow_negative_regressors: bool = False) -> TimeSeriesFrame:
    """Read a series CSV into a validated TimeSeriesFrame, sorted by date.

    Row numbers in error messages are 1-based data rows (the header is
    row 0).
    """
    schema = schema or CsvSchema()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"empty file: {path}") from None
        rows = [row for row in reader if row]
    header = [h.strip() for h in header]
    for col in (schema.date_col, schema.response_col):
        if col not in header:
            raise ValidationError(f"missing column {col!r} in {path}")
    if schema.regressor_cols is None:
        reg_cols = tuple(
            c for c in header if c not in (schema.date_col, schema.response_col)
        )
    else:
        reg_cols = schema.regressor_cols
        for col in reg_cols:
            if col not in header:
                raise ValidationError(f"missing column {col!r} in {path}")
    idx = {c: header.index(c) for c in (schema.date_col, schema.response_col, *reg_cols)}

    dates, ys, xs = [], [], []
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValidationError(f"row {r} has {len(row)} cells, expected {len(header)}")
        raw_date = row[idx[schema.date_col]].strip()
        try:
            dates.append(np.datetime64(raw_date, "D"))
        except ValueError:
            raise ValidationError(
                f"unparsable date {raw_date!r} at row {r}"
            ) from None
        ys.append(_parse_cell(row[idx[schema.response_col]], schema.response_col, r))
        xs.append([_parse_cell(row[idx[c]], c, r) for c in reg_cols])

    if len(dates) < 2:
        raise ValidationError(f"need at least 2 data rows, got {len(dates)}")
    ts = np.array(dates, dtype="datetime64[D]")
    uniq, counts = np.unique(ts, return_counts=True)
    if np.any(counts > 1):
        dup = uniq[np.argmax(counts > 1)]
        # report the second occurrence in file order
        r = int(np.nonzero(ts == dup)[0][1]) + 1
        raise ValidationError(f"duplicate date {dup} at row {r}")
    order = np.argsort(ts, kind="stable")
    return TimeSeriesFrame(
        timestamps=ts[order],
        response=np.asarray(ys, dtype=float)[order],
        regressors=np.asarray(xs, dtype=float).reshape(len(ys), len(reg_cols))[order],
        regressor_names=reg_cols,
        allow_negative_regressors=allow_negative_regressors,
    )


def emit_csv(frame: TimeSeriesFrame, path: str, schema: CsvSchema | None = None) -> None:
    """Write a frame back to CSV. repr() floats round-trip bit-exact."""
    schema = schema or CsvSchema()
    names = schema.regressor_cols or frame.regressor_names
    if len(names) != frame.n_regressors:
        raise ValidationError("schema regressor columns do not match frame")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.date_col, schema.response_col, *names])
        for t in range(frame.n_times):
            writer.writerow(
                [str(frame.timestamps[t]), repr(float(frame.response[t])),
                 *(repr(float(v)) for v in frame.regressors[t])]
            )
