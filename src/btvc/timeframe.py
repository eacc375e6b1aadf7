"""Series container, CSV ingestion, and the log transform.

The model is multiplicative on the original scale and is fit after taking
logs, so this module owns the boundary between raw files and the numeric
arrays the rest of the package consumes.
"""

from __future__ import annotations

import csv
import re
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for series CSV files.

    regressor_cols=None means every column other than date/response, in
    file order. Each column is named once.
    """

    date_col: str = "date"
    response_col: str = "y"
    regressor_cols: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.regressor_cols is not None:
            object.__setattr__(self, "regressor_cols", tuple(self.regressor_cols))
        names = [self.date_col, self.response_col, *(self.regressor_cols or ())]
        for c in names:
            if names.count(c) > 1:
                raise ValidationError(f"column {c!r} is named twice in the CSV schema")


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
        check_values(y, x, names, allow_negative_regressors)

    @property
    def n_times(self) -> int:
        return int(self.response.size)

    @property
    def n_regressors(self) -> int:
        return int(self.regressors.shape[1])

    @property
    def step(self) -> np.timedelta64:
        return self.timestamps[1] - self.timestamps[0]


def check_values(response, regressors, names, allow_negative_regressors: bool) -> None:
    """Reject a non-finite response, then check_regressors; rows are named
    1-based in the order given."""
    if not np.all(np.isfinite(response)):
        i = int(np.argmax(~np.isfinite(response)))
        raise ValidationError(f"non-finite response at row {i + 1}")
    check_regressors(regressors, names, allow_negative_regressors)


def check_regressors(regressors, names, allow_negative_regressors: bool,
                     where: str = "row {}") -> None:
    """Reject a non-finite regressor, and a negative one unless allowed; the
    first bad row is named where.format(r), r 1-based in the order given."""
    if not np.all(np.isfinite(regressors)):
        i = int(np.argmax((~np.isfinite(regressors)).any(axis=1)))
        raise ValidationError(f"non-finite regressor at {where.format(i + 1)}")
    if not allow_negative_regressors and regressors.size and regressors.min() < 0:
        i, j = np.argwhere(regressors < 0)[0]
        raise ValidationError(f"negative regressor {names[j]!r} at {where.format(int(i) + 1)}")


def model_scale(structure, regressors, response=None):
    """Raw regressors, and the response when given, mapped to the scale a
    fit structure is fit on; returns (regressors, response or None).

    The regressors must pass check_regressors, negatives allowed unless
    link=log. The structure's link, zero_policy and floor_epsilon decide the
    map. Under link=log the response is logged and must be strictly positive,
    and the regressors go through ln(x+1) (shift1, so zero spend lands exactly
    at 0) or ln(max(x, floor_epsilon)) (floor). Other links copy both.
    """
    x = np.array(regressors, dtype=float)
    y = None if response is None else np.array(response, dtype=float)
    check_regressors(x, structure.regressor_names, structure.link != "log")
    if structure.link != "log":
        return x, y
    if y is not None:
        if np.any(y <= 0):
            i = int(np.argmax(y <= 0))
            raise ValidationError(f"nonpositive response at row {i + 1}: {y[i]}")
        y = np.log(y)
    if structure.zero_policy == "shift1":
        return np.log1p(x), y
    return np.log(np.maximum(x, structure.floor_epsilon)), y


# a date starts with a four-digit year ('+' allowed), alone or before '-':
# numpy also reads 'today', 'now' and years of any length ('20200101')
_DATE_START = re.compile(r"\s*\+?[0-9]{4}(?:-|\s*$)")


def parse_date(text: str, where: str) -> np.datetime64:
    """text, stripped, as a day of a four-digit year; blank or 'NaT' is unparsable."""
    text = text.strip()
    try:
        date = np.datetime64(text, "D")
    except ValueError:
        date = np.datetime64("NaT")
    if np.isnat(date) or not _DATE_START.match(text):
        raise ValidationError(f"unparsable date {text!r} {where}") from None
    return date


def read_table(path: str, columns: dict, where: str = "row {}", rest: str | None = None,
               rows: int | None = None) -> dict:
    """The columns of a CSV file, parsed: {name: values}, first those of
    columns, then, when rest is a kind, every other header column as that kind.

    columns maps each required header name to its kind: "date" (the stripped
    cell as parse_date reads it), "number" (float())
    or "text" (the stripped cell, in a list; the others are arrays). Header
    names are stripped and must be distinct, and blank lines are skipped.
    Every data row must hold one cell per header column, but only the first
    `rows` are parsed. A bad file raises a ValidationError for its first bad
    cell in file order, its row named where.format(r), r the 1-based data row.
    The file is UTF-8 text, with or without a byte-order mark.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            body = [row for row in reader if row]
        except StopIteration:
            raise ValidationError(f"empty file: {path}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"not UTF-8 text: {path}") from None
    header = [h.strip() for h in header]
    for c in header:
        if header.count(c) > 1:
            raise ValidationError(f"duplicate column {c!r} in {path}")
    for c in columns:
        if c not in header:
            raise ValidationError(f"missing column {c!r} in {path}")
    kinds = dict(columns)
    if rest is not None:
        kinds.update((c, rest) for c in header if c not in kinds)
    idx = {c: header.index(c) for c in kinds}
    m, n = len(header), len(body) if rows is None else min(rows, len(body))
    # parsed column by column; on any failure the row pass below names the
    # first bad cell in file order
    try:
        if any(len(row) != m for row in body):
            raise ValueError("a row has the wrong number of cells")
        cells = list(zip(*body[:n])) or [()] * m
        table = {}
        for c, kind in kinds.items():
            if kind == "date":
                table[c] = np.array([s.strip() for s in cells[idx[c]]], dtype="datetime64[D]")
                if np.isnat(table[c]).any() or not all(map(_DATE_START.match, cells[idx[c]])):
                    raise ValueError("a blank or NaT date, or not a four-digit year")
            elif kind == "number":
                table[c] = np.array(list(map(float, cells[idx[c]])), dtype=float)
            else:
                table[c] = [s.strip() for s in cells[idx[c]]]
        return table
    except ValueError:
        for r, row in enumerate(body, start=1):
            at = where.format(r)
            if len(row) != m:
                raise ValidationError(f"{at} has {len(row)} cells, expected {m}") from None
            if r > n:
                continue
            for c, kind in kinds.items():
                cell = row[idx[c]]
                if kind == "date":
                    parse_date(cell, f"at {at}")
                elif kind == "number":
                    try:
                        float(cell)
                    except ValueError:
                        raise ValidationError(
                            f"unparsable value {cell!r} in column {c!r} at {at}") from None
        raise


def ingest_csv(path: str, schema: CsvSchema | None = None, *,
               allow_negative_regressors: bool = False) -> TimeSeriesFrame:
    """Read a series CSV into a validated TimeSeriesFrame, sorted by date.

    The file follows read_table's rules. Row numbers in error messages are
    1-based data rows in file order (the header is row 0), also for the
    value checks, which run before the sort.
    """
    schema = schema or CsvSchema()
    columns = {schema.date_col: "date", schema.response_col: "number"}
    if schema.regressor_cols is None:
        table = read_table(path, columns, rest="number")
    else:
        table = read_table(path, columns | dict.fromkeys(schema.regressor_cols, "number"))
    ts, y = table.pop(schema.date_col), table.pop(schema.response_col)
    reg_cols = tuple(table)
    x = np.array(list(table.values()), dtype=float).reshape(len(reg_cols), ts.size).T
    if ts.size < 2:
        raise ValidationError(f"need at least 2 data rows, got {ts.size}")
    uniq, counts = np.unique(ts, return_counts=True)
    if np.any(counts > 1):
        dup = uniq[np.argmax(counts > 1)]
        # report the second occurrence in file order
        r = int(np.nonzero(ts == dup)[0][1]) + 1
        raise ValidationError(f"duplicate date {dup} at row {r}")
    check_values(y, x, reg_cols, allow_negative_regressors)
    order = np.argsort(ts, kind="stable")
    return TimeSeriesFrame(
        timestamps=ts[order],
        response=y[order],
        regressors=x[order],
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
