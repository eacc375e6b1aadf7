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


def model_scale(structure, regressors, response=None):
    """Raw regressors, and the response when given, mapped to the scale a
    fit structure is fit on; returns (regressors, response or None).

    The structure's link, zero_policy and floor_epsilon decide the map. Under
    link=log the response is logged and must be strictly positive, and the
    nonnegative regressors go through ln(x+1) (shift1, so zero spend lands
    exactly at 0) or ln(max(x, floor_epsilon)) (floor). Other links copy both.
    """
    x = np.array(regressors, dtype=float)
    y = None if response is None else np.array(response, dtype=float)
    if structure.link != "log":
        return x, y
    if y is not None:
        if np.any(y <= 0):
            i = int(np.argmax(y <= 0))
            raise ValidationError(f"nonpositive response at row {i + 1}: {y[i]}")
        y = np.log(y)
    if x.size and x.min() < 0:
        i, j = np.argwhere(x < 0)[0]
        name = structure.regressor_names[j]
        raise ValidationError(f"negative regressor {name!r} at row {int(i) + 1}")
    if structure.zero_policy == "shift1":
        return np.log1p(x), y
    return np.log(np.maximum(x, structure.floor_epsilon)), y


def parse_date(text: str, where: str) -> np.datetime64:
    """text, stripped, as a day; a blank or 'NaT' cell is unparsable too."""
    text = text.strip()
    try:
        date = np.datetime64(text, "D")
    except ValueError:
        date = np.datetime64("NaT")
    if np.isnat(date):
        raise ValidationError(f"unparsable date {text!r} {where}") from None
    return date


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
    names = (schema.date_col, schema.response_col, *reg_cols)
    idx = [header.index(c) for c in names]
    m = len(header)
    # parsed column by column; on any failure the row pass below names the
    # first bad cell in file order
    try:
        if any(len(row) != m for row in rows):
            raise ValueError("a row has the wrong number of cells")
        columns = list(zip(*rows)) or [()] * m
        ts = np.array([s.strip() for s in columns[idx[0]]], dtype="datetime64[D]")
        if np.isnat(ts).any():
            raise ValueError("a blank or NaT date")
        values = np.empty((len(rows), len(idx) - 1))
        for j, i in enumerate(idx[1:]):
            values[:, j] = list(map(float, columns[i]))
    except ValueError:
        for r, row in enumerate(rows, start=1):
            if len(row) != m:
                raise ValidationError(f"row {r} has {len(row)} cells, expected {m}") from None
            parse_date(row[idx[0]], f"at row {r}")
            for c, i in zip(names[1:], idx[1:]):
                try:
                    float(row[i])
                except ValueError:
                    raise ValidationError(
                        f"unparsable value {row[i]!r} in column {c!r} at row {r}") from None
        raise

    if ts.size < 2:
        raise ValidationError(f"need at least 2 data rows, got {ts.size}")
    uniq, counts = np.unique(ts, return_counts=True)
    if np.any(counts > 1):
        dup = uniq[np.argmax(counts > 1)]
        # report the second occurrence in file order
        r = int(np.nonzero(ts == dup)[0][1]) + 1
        raise ValidationError(f"duplicate date {dup} at row {r}")
    order = np.argsort(ts, kind="stable")
    return TimeSeriesFrame(
        timestamps=ts[order],
        response=values[order, 0],
        regressors=values[order, 1:],
        regressor_names=reg_cols,
        allow_negative_regressors=allow_negative_regressors,
    )


def write_table(path: str, header, first_column, columns) -> None:
    """Write a CSV table: the header, then per entry of first_column (a date or
    a label, written with str) that row's float of each column, as its repr.

    Byte for byte what csv.writer writes row by row, but the body is joined
    and streamed here: only the header's names can need quoting, and rows end
    in CR LF as csv.writer's do."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
        fh.writelines(",".join(row) + "\r\n"
                      for row in zip(map(str, first_column), *cells, strict=True))


def emit_csv(frame: TimeSeriesFrame, path: str, schema: CsvSchema | None = None) -> None:
    """Write a frame back to CSV. repr() floats round-trip bit-exact."""
    schema = schema or CsvSchema()
    names = schema.regressor_cols or frame.regressor_names
    if len(names) != frame.n_regressors:
        raise ValidationError("schema regressor columns do not match frame")
    write_table(path, [schema.date_col, schema.response_col, *names], frame.timestamps,
                [frame.response, *frame.regressors.T])
