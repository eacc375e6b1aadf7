"""The CSV tables against readable row-by-row references.

Every writer shares timeframe.write_table, which streams the body as joined
strings; each must write the bytes csv.writer writes when fed one row at a
time, as the writers did before. Every input file is read by
timeframe.read_table, which parses column by column and falls back to a row
pass for its messages: ingest_csv must accept what the row-by-row reader
below accepts, with the same values, and reject the rest with the same
message, and the future-regressor and prior-window readers give the exact
messages of their case tables."""

import ast
import csv
import math
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from btvc.calibration import PriorWindow, read_prior_windows_csv
from btvc.errors import ValidationError
from btvc.evaluation import MetricReport, write_metric_report_csv
from btvc.model import Decomposition, write_decomposition_csv
from btvc.pipeline import read_future_csv, write_forecast_csv
from btvc.simulation import SimDataset, write_truth_csv
from btvc.timeframe import CsvSchema, TimeSeriesFrame, emit_csv, ingest_csv

from tests.test_timeframe import make_structure

# the floats whose repr is easiest to get wrong: non-finite, signed zero,
# subnormal, exponent forms on both sides, and a shortest round trip
VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
NAMES = ("tv, spend", "radio")  # the first needs quoting in a header


def reference_csv(path, header, rows):
    """csv.writer fed one row at a time: str for the first cell, repr for
    each float after it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for first, *values in rows:
            writer.writerow([str(first), *(repr(float(v)) for v in values)])


def columns(T, k, shift=0):
    """T rows of k columns cycling through VALUES."""
    return np.array([[VALUES[(t * k + j + shift) % len(VALUES)] for j in range(k)]
                     for t in range(T)]).reshape(T, k)


def dates(T):
    return np.datetime64("2020-01-01", "D") + np.arange(T)


@pytest.mark.parametrize("T", [0, 1, 11])
def test_emit_csv_writes_what_the_row_writer_writes(tmp_path, T):
    values = columns(T, 1 + len(NAMES))
    # a frame needs two finite rows; emit_csv reads only these attributes
    frame = SimpleNamespace(timestamps=dates(T), response=values[:, 0],
                            regressors=values[:, 1:], regressor_names=NAMES,
                            n_times=T, n_regressors=len(NAMES))
    emit_csv(frame, str(tmp_path / "a.csv"), CsvSchema(response_col="sales, net"))
    reference_csv(tmp_path / "b.csv", ["date", "sales, net", *NAMES],
                  [(d, *row) for d, row in zip(dates(T), values)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("T", [0, 1, 11])
def test_write_truth_csv_writes_what_the_row_writer_writes(tmp_path, T):
    values = columns(T, 1 + len(NAMES), shift=3)
    frame = SimpleNamespace(timestamps=dates(T), regressor_names=NAMES, n_times=T)
    write_truth_csv(SimDataset(frame=frame, true_trend=values[:, 0],
                               true_coefficients=values[:, 1:]), str(tmp_path / "a.csv"))
    reference_csv(tmp_path / "b.csv", ["date", "trend", *(f"beta_{c}" for c in NAMES)],
                  [(d, *row) for d, row in zip(dates(T), values)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("T", [0, 1, 11])
def test_write_decomposition_csv_writes_what_the_row_writer_writes(tmp_path, T):
    P = len(NAMES)
    values = columns(T, 3 + 2 * P, shift=5)
    decomp = Decomposition(trend=values[:, 0], seasonality=values[:, 1],
                           regression=values[:, 2], per_channel=values[:, 3:3 + P],
                           coefficients=values[:, 3 + P:])
    write_decomposition_csv(decomp, dates(T), NAMES, str(tmp_path / "a.csv"))
    header = (["date", "trend", "seasonality", "regression"]
              + [f"contrib_{c}" for c in NAMES] + [f"beta_{c}" for c in NAMES])
    reference_csv(tmp_path / "b.csv", header,
                  [(d, *row) for d, row in zip(dates(T), values)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("levels", [(), (0.1, 0.5, 0.9), (0.1234567, 0.1234568, 0.9999999)])
@pytest.mark.parametrize("T", [0, 1, 11])
def test_write_forecast_csv_writes_what_the_row_writer_writes(tmp_path, T, levels):
    values = columns(T, 1 + len(levels), shift=2)
    structure = make_structure(step_days=7, last_date="2019-12-25")
    quantiles = {np.float64(q): values[:, 1 + j] for j, q in enumerate(levels)}
    write_forecast_csv(str(tmp_path / "a.csv"), structure, values[:, 0], quantiles or None)
    days = np.datetime64("2020-01-01", "D") + 7 * np.arange(T)
    # a level's column is named by its shortest round-tripping repr
    reference_csv(tmp_path / "b.csv", ["date", "forecast", *(f"q_{q!r}" for q in levels)],
                  [(d, *row) for d, row in zip(days, values)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_forecast_columns_keep_the_names_g_printed_exactly(tmp_path):
    levels = (1e-05, 0.025, 0.05, 0.5, 0.95, 0.975)
    structure = make_structure(step_days=7, last_date="2019-12-25")
    write_forecast_csv(str(tmp_path / "a.csv"), structure, np.zeros(0),
                       {q: np.zeros(0) for q in levels})
    header = (tmp_path / "a.csv").read_text().strip()
    assert header == ",".join(["date", "forecast", *(f"q_{q:g}" for q in levels)])


@pytest.mark.parametrize("splits", [VALUES[:1], VALUES, VALUES[3:]])
def test_write_metric_report_csv_writes_what_the_row_writer_writes(tmp_path, splits):
    report = MetricReport(splits)
    write_metric_report_csv(report, str(tmp_path / "a.csv"))
    reference_csv(tmp_path / "b.csv", ["split", "smape"],
                  [*enumerate(report.per_split, start=1),
                   ("mean", report.mean), ("sd", report.sd)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def reference_ingest(path):
    """ingest_csv with the default schema, one row at a time: each row's
    length, then its date, response and regressors, in file order; the
    value checks name file rows too, as they run before the sort."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    if len(set(header)) < len(header):
        dup = next(c for c in header if header.count(c) > 1)
        raise ValidationError(f"duplicate column {dup!r} in {path}")
    reg_cols = tuple(c for c in header if c not in ("date", "y"))
    dates, ys, xs = [], [], []
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValidationError(f"row {r} has {len(row)} cells, expected {len(header)}")
        raw = row[header.index("date")].strip()
        try:
            date = np.datetime64(raw, "D")
        except ValueError:
            date = np.datetime64("NaT")
        # a blank or 'NaT' cell parses to NaT; numpy's 'today', 'now' and
        # years of other than four digits are not dates of a series
        if np.isnat(date) or not re.match(r"\+?[0-9]{4}(-|$)", raw):
            raise ValidationError(f"unparsable date {raw!r} at row {r}")
        dates.append(date)
        values = []
        for c in ("y", *reg_cols):
            try:
                values.append(float(row[header.index(c)]))
            except ValueError:
                raise ValidationError(
                    f"unparsable value {row[header.index(c)]!r} in column {c!r} at row {r}"
                ) from None
        ys.append(values[0])
        xs.append(values[1:])
    if len(dates) < 2:
        raise ValidationError(f"need at least 2 data rows, got {len(dates)}")
    ts = np.array(dates, dtype="datetime64[D]")
    uniq, counts = np.unique(ts, return_counts=True)
    if np.any(counts > 1):
        dup = uniq[np.argmax(counts > 1)]
        raise ValidationError(
            f"duplicate date {dup} at row {int(np.nonzero(ts == dup)[0][1]) + 1}")
    for r, y in enumerate(ys, start=1):
        if not math.isfinite(y):
            raise ValidationError(f"non-finite response at row {r}")
    for r, x in enumerate(xs, start=1):
        if not all(map(math.isfinite, x)):
            raise ValidationError(f"non-finite regressor at row {r}")
    for r, x in enumerate(xs, start=1):
        for c, v in zip(reg_cols, x):
            if v < 0:
                raise ValidationError(f"negative regressor {c!r} at row {r}")
    order = np.argsort(ts, kind="stable")
    return TimeSeriesFrame(
        timestamps=ts[order], response=np.asarray(ys)[order],
        regressors=np.asarray(xs).reshape(len(ys), len(reg_cols))[order],
        regressor_names=reg_cols)


HEADER = "date,y,x1,x2"
GOOD = ["2020-01-01,1.5,2,3", "2020-01-02,2.5,0,4", "2020-01-03,3.5,1,5"]


def body(*rows):
    return "\r\n".join([HEADER, *rows]) + "\r\n"


def replace(i, row):
    return body(*GOOD[:i], row, *GOOD[i + 1:])


# (case, file text, None when accepted, else the exact message, "{path}" the
# file's)
READER_CASES = [
    ("plain", body(*GOOD), None),
    ("no trailing newline", body(*GOOD).rstrip(), None),
    ("quoted cells", body('"2020-01-01","1.5","2","3"', *GOOD[1:]), None),
    ("blank lines", "\r\n".join([HEADER, "", GOOD[0], "", "", GOOD[1], GOOD[2], "", ""]), None),
    ("blank line before a bad row", "\n".join([HEADER, GOOD[0], "", "2020-01-02,x,0,4"]),
     "unparsable value 'x' in column 'y' at row 2"),
    ("short row", replace(1, "2020-01-02,2.5,0"), "row 2 has 3 cells, expected 4"),
    ("long row", replace(0, "2020-01-01,1.5,2,3,9"), "row 1 has 5 cells, expected 4"),
    ("short last row", replace(2, "2020-01-03"), "row 3 has 1 cells, expected 4"),
    ("underscore digits", replace(1, "2020-01-02,1_0,0,4"), None),
    ("padded number", replace(1, "2020-01-02, 1.5 ,0,4"), None),
    ("hex number", replace(1, "2020-01-02,2.5,0x10,4"),
     "unparsable value '0x10' in column 'x1' at row 2"),
    ("overflowing number", replace(1, "2020-01-02,1e400,0,4"), "non-finite response at row 2"),
    ("month date", body("2020-01,1.5,2,3", *GOOD[1:]), None),
    ("date with an hour", replace(1, "2020-01-02T05,2.5,0,4"), None),
    ("signed year", replace(1, "+2020-01-02,2.5,0,4"), None),
    ("padded date", replace(1, " 2020-01-02 ,2.5,0,4"), None),
    ("day-first date", replace(1, "02/01/2020,2.5,0,4"), "unparsable date '02/01/2020' at row 2"),
    ("run date", replace(1, "today,2.5,0,4"), "unparsable date 'today' at row 2"),
    ("run time", replace(2, "now,3.5,1,5"), "unparsable date 'now' at row 3"),
    ("eight-digit dates", body("20200101,1.5,2,3", "20200102,2.5,0,4", "20200103,3.5,1,5"),
     "unparsable date '20200101' at row 1"),
    ("two-digit year", replace(1, "20-01-02,2.5,0,4"), "unparsable date '20-01-02' at row 2"),
    ("five-digit year", replace(2, "12020-01-03,3.5,1,5"),
     "unparsable date '12020-01-03' at row 3"),
    ("negative year", replace(0, "-2020-01-01,1.5,2,3"), "unparsable date '-2020-01-01' at row 1"),
    ("blank date", replace(0, ",1.5,2,3"), "unparsable date '' at row 1"),
    ("NaT date", replace(2, "NaT,3.5,1,5"), "unparsable date 'NaT' at row 3"),
    ("duplicate date", replace(2, "2020-01-01,3.5,1,5"), "duplicate date 2020-01-01 at row 3"),
    ("unsorted dates", body(GOOD[2], GOOD[0], GOOD[1]), None),
    ("gapped dates", replace(2, "2020-01-05,3.5,1,5"),
     "gapped timestamps at row 3: step 3 days != 1 days"),
    ("bad first row", replace(0, "2020-01-01,1.5,two,3"),
     "unparsable value 'two' in column 'x1' at row 1"),
    ("bad middle row", replace(1, "2020-01-02,2.5,0,"), "unparsable value '' in column 'x2' at row 2"),
    ("bad last row", replace(2, "2020-13-03,3.5,1,5"), "unparsable date '2020-13-03' at row 3"),
    ("first bad cell in file order", body("2020-01-01,1.5,2,x", "2020-01-02", GOOD[2]),
     "unparsable value 'x' in column 'x2' at row 1"),
    ("short row before a bad cell", body(GOOD[0], "2020-01-02,2.5", "bad,3.5,1,5"),
     "row 2 has 2 cells, expected 4"),
    ("date before number in one row", replace(1, "x,y,0,4"), "unparsable date 'x' at row 2"),
    ("one bad row", body("2020-01-01,1.5,2,oops"),
     "unparsable value 'oops' in column 'x2' at row 1"),
    ("one row", body(GOOD[0]), "need at least 2 data rows, got 1"),
    ("header only", body(), "need at least 2 data rows, got 0"),
    ("negative spend", replace(1, "2020-01-02,2.5,-1,4"), "negative regressor 'x1' at row 2"),
    ("overflowing spend", replace(1, "2020-01-02,2.5,1e400,4"), "non-finite regressor at row 2"),
    ("overflow in an unsorted file",
     "date,y,x1\n2020-01-03,1e400,1\n2020-01-01,1,1\n2020-01-02,2,-1\n",
     "non-finite response at row 1"),
    ("negative spend in an unsorted file",
     "date,y,x1\n2020-01-03,1,1\n2020-01-01,1,1\n2020-01-02,2,-1\n",
     "negative regressor 'x1' at row 3"),
    ("duplicate header name", "date,y,x1, x1\n2020-01-01,1,1,5\n2020-01-02,2,2,6\n",
     "duplicate column 'x1' in {path}"),
]


def _outcome(read, path):
    try:
        frame = read(str(path))
    except ValidationError as exc:
        return str(exc)
    return (frame.timestamps.tobytes(), frame.response.tobytes(),
            frame.regressors.tobytes(), frame.regressors.shape, frame.regressor_names)


@pytest.mark.parametrize("case, text, message", READER_CASES, ids=[c[0] for c in READER_CASES])
def test_ingest_csv_matches_the_row_by_row_reader(tmp_path, case, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    got = _outcome(ingest_csv, path)
    assert got == _outcome(reference_ingest, path)
    if message is None:
        assert not isinstance(got, str), got
    else:
        assert got == message.format(path=path)


def test_ingest_csv_reads_regressorless_files_and_rejects_a_blank_date_in_a_long_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("date,y\n2020-01-01,1\n2020-01-02,2\n")
    assert ingest_csv(str(path)).regressors.shape == (2, 0)
    # a blank date used to sort last as NaT and surface as a gap at row 60
    rows = [f"{d},1.0,1.0" for d in dates(60)]
    rows[0] = ",1.0,1.0"
    path.write_text("\n".join(["date,y,x1", *rows]) + "\n")
    with pytest.raises(ValidationError, match=r"^unparsable date '' at row 1$"):
        ingest_csv(str(path))


@pytest.mark.parametrize("cell", ["", " ", "NaT", "nat", "today", "now", "20200102", "020-01-02"])
def test_read_future_csv_rejects_a_nat_date(tmp_path, cell):
    path = tmp_path / "future.csv"
    path.write_text(f"date,x1\n2020-01-01,1\n{cell},2\n")
    structure = make_structure(regressor_names=["x1"], step_days=1, last_date="2019-12-31")
    with pytest.raises(ValidationError,
                       match=rf"^unparsable date {cell.strip()!r} at future row 2$"):
        read_future_csv(str(path), structure, 2)


@pytest.mark.parametrize("start, end, message", [
    ("", "2020-01-05", "unparsable date '' at prior windows row 1"),
    ("2020-01-02", "NaT", "unparsable date 'NaT' at prior windows row 1"),
    ("2020-01-02", "2020-01-05x", "unparsable date '2020-01-05x' at prior windows row 1"),
    ("today", "2020-01-05", "unparsable date 'today' at prior windows row 1"),
    ("2020-01-02", "20200105", "unparsable date '20200105' at prior windows row 1"),
])
def test_read_prior_windows_csv_rejects_a_nat_date(tmp_path, start, end, message):
    # a blank date used to parse to NaT and read as a date off the calendar
    path = tmp_path / "windows.csv"
    path.write_text(f"channel,start_date,end_date,mean,sd\nx1,{start},{end},0.3,0.1\n")
    frame = TimeSeriesFrame(timestamps=dates(10), response=np.ones(10),
                            regressors=np.ones((10, 1)))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        read_prior_windows_csv(str(path), frame)


def lines(*rows):
    return "\r\n".join(rows) + "\r\n"


FUTURE = ["date,x1,x2", "2020-01-01,1,2", "2020-01-02,3,4"]


# (case, file text, None when accepted, else the exact message, "{path}" the
# file's); read with horizon 2 after a fit whose last date is 2019-12-31
FUTURE_CASES = [
    ("plain", lines(*FUTURE), None),
    ("spaced header names", lines(" date , x1 ,x2 ", *FUTURE[1:]), None),
    ("quoted cells", lines('"date","x1","x2"', '"2020-01-01","1","2"', FUTURE[2]), None),
    ("blank lines", "\r\n".join([FUTURE[0], "", FUTURE[1], "", FUTURE[2], ""]), None),
    ("columns in another order", lines("x2,date,x1", "2,2020-01-01,1", "4,2020-01-02,3"), None),
    ("an extra column", lines("date,x1,note,x2", "2020-01-01,1,a,2", "2020-01-02,3,b,4"),
     None),
    ("rows past the horizon", lines(*FUTURE, "2020-01-03,5,6", "2020-01-09,7,8"), None),
    ("a garbage cell past the horizon", lines(*FUTURE, "2020-01-03,oops,NaT"), None),
    ("a short row past the horizon", lines(*FUTURE, "2020-01-03,5"),
     "future row 3 has 2 cells, expected 3"),
    ("short row", lines(FUTURE[0], FUTURE[1], "2020-01-02,3"),
     "future row 2 has 2 cells, expected 3"),
    ("long row", lines(FUTURE[0], "2020-01-01,1,2,9", FUTURE[2]),
     "future row 1 has 4 cells, expected 3"),
    ("first bad cell in file order", lines(FUTURE[0], "2020-01-01,1,x", "2020-01-02"),
     "unparsable value 'x' in column 'x2' at future row 1"),
    ("date before number in one row", lines(FUTURE[0], FUTURE[1], "bad,x,4"),
     "unparsable date 'bad' at future row 2"),
    ("blank date", lines(FUTURE[0], ",1,2", FUTURE[2]), "unparsable date '' at future row 1"),
    ("NaT date", lines(FUTURE[0], FUTURE[1], "NaT,3,4"), "unparsable date 'NaT' at future row 2"),
    ("unparsable number", lines(FUTURE[0], FUTURE[1], "2020-01-02,oops,4"),
     "unparsable value 'oops' in column 'x1' at future row 2"),
    ("missing column", lines("date,x1", "2020-01-01,1", "2020-01-02,3"),
     "missing column 'x2' in {path}"),
    ("duplicate header name", lines("date,x1,x2,x1", "2020-01-01,1,2,5", "2020-01-02,3,4,6"),
     "duplicate column 'x1' in {path}"),
    ("empty file", "", "empty file: {path}"),
    ("header only", lines(FUTURE[0]), "horizon 2 exceeds the 0 supplied future rows"),
    ("too few rows", lines(*FUTURE[:2]), "horizon 2 exceeds the 1 supplied future rows"),
    ("off the calendar", lines(FUTURE[0], FUTURE[1], "2020-01-03,3,4"),
     "future row 2 has date 2020-01-03, expected 2020-01-02"),
    ("non-finite value", lines(FUTURE[0], "2020-01-01,1,inf", FUTURE[2]),
     "non-finite value in column 'x2', future row 1"),
    ("negative spend", lines(FUTURE[0], FUTURE[1], "2020-01-02,-3,4"),
     "negative regressor 'x1' at future row 2"),
]


@pytest.mark.parametrize("case, text, message", FUTURE_CASES, ids=[c[0] for c in FUTURE_CASES])
def test_read_future_csv_cases(tmp_path, case, text, message):
    path = tmp_path / "future.csv"
    path.write_text(text, newline="")
    structure = make_structure(regressor_names=["x1", "x2"], step_days=1,
                               last_date="2019-12-31")
    if message is None:
        x = read_future_csv(str(path), structure, 2)
        assert x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    else:
        with pytest.raises(ValidationError) as exc:
            read_future_csv(str(path), structure, 2)
        assert str(exc.value) == message.format(path=path)


WINDOWS = ["channel,start_date,end_date,mean,sd", "x1,2020-01-02,2020-01-05,0.3,0.1"]


# (case, file text, None when accepted, else the exact message, "{path}" the
# file's); read against a daily frame from 2020-01-01 to 2020-01-10
WINDOW_CASES = [
    ("plain", lines(*WINDOWS), None),
    ("spaced header names", lines(" channel , start_date ,end_date, mean , sd ", WINDOWS[1]),
     None),
    ("quoted cells", lines(WINDOWS[0], '"x1","2020-01-02","2020-01-05","0.3","0.1"'), None),
    ("blank lines", "\r\n".join([WINDOWS[0], "", WINDOWS[1], "", ""]), None),
    ("padded cells", lines(WINDOWS[0], " x1 , 2020-01-02 ,2020-01-05, 0.3 ,0.1"), None),
    ("short row", lines(WINDOWS[0], "x1,2020-01-02,2020-01-05,0.3"),
     "prior windows row 1 has 4 cells, expected 5"),
    ("long row", lines(WINDOWS[0], WINDOWS[1], "x2,2020-01-02,2020-01-05,0.3,0.1,9"),
     "prior windows row 2 has 6 cells, expected 5"),
    ("first bad cell in file order",
     lines(WINDOWS[0], "x1,2020-01-02,2020-01-05,high,x", "x2,2020-01-02"),
     "unparsable value 'high' in column 'mean' at prior windows row 1"),
    ("date before number in one row", lines(WINDOWS[0], "x1,2020-01-02,bad,high,0.1"),
     "unparsable date 'bad' at prior windows row 1"),
    ("blank date", lines(WINDOWS[0], WINDOWS[1], "x2,,2020-01-05,0.3,0.1"),
     "unparsable date '' at prior windows row 2"),
    ("NaT date", lines(WINDOWS[0], "x1,2020-01-02,NaT,0.3,0.1"),
     "unparsable date 'NaT' at prior windows row 1"),
    ("unparsable number", lines(WINDOWS[0], "x1,2020-01-02,2020-01-05,0.3,"),
     "unparsable value '' in column 'sd' at prior windows row 1"),
    ("missing column", lines("channel,start_date,mean,sd", "x1,2020-01-02,0.3,0.1"),
     "missing column 'end_date' in {path}"),
    ("empty file", "", "empty file: {path}"),
    ("first date off the calendar in file order",
     lines(WINDOWS[0], "x1,2020-01-02,2020-01-11,0.3,0.1", "x2,2019-12-31,2020-01-05,0.3,0.1"),
     "date 2020-01-11 in prior windows row 1 is not on the series calendar"),
    ("sd 0", lines(WINDOWS[0], WINDOWS[1], "x1,2020-01-07,2020-01-08,0.3,0"),
     "window sd must be > 0, got 0.0 at prior windows row 2"),
    ("negative mean", lines(WINDOWS[0], "x1,2020-01-02,2020-01-05,-0.1,0.1"),
     "window mean must be >= 0, got -0.1 at prior windows row 1"),
    ("end before start", lines(WINDOWS[0], "x1,2020-01-05,2020-01-02,0.3,0.1"),
     "window [5, 2] is not a valid 1-based range at prior windows row 1"),
    ("unknown channel", lines(WINDOWS[0], WINDOWS[1], "x9,2020-01-02,2020-01-05,0.3,0.1"),
     "unknown channel 'x9' at prior windows row 2"),
]


@pytest.mark.parametrize("case, text, message", WINDOW_CASES, ids=[c[0] for c in WINDOW_CASES])
def test_read_prior_windows_csv_cases(tmp_path, case, text, message):
    path = tmp_path / "windows.csv"
    path.write_text(text, newline="")
    frame = TimeSeriesFrame(timestamps=dates(10), response=np.ones(10),
                            regressors=np.ones((10, 1)))
    if message is None:
        assert read_prior_windows_csv(str(path), frame) == [PriorWindow("x1", 2, 5, 0.3, 0.1)]
    else:
        with pytest.raises(ValidationError) as exc:
            read_prior_windows_csv(str(path), frame)
        assert str(exc.value) == message.format(path=path)


def test_read_prior_windows_csv_reads_a_header_only_file_as_no_windows(tmp_path):
    path = tmp_path / "windows.csv"
    path.write_text(lines(WINDOWS[0]), newline="")
    frame = TimeSeriesFrame(timestamps=dates(10), response=np.ones(10),
                            regressors=np.ones((10, 1)))
    assert read_prior_windows_csv(str(path), frame) == []


def test_only_timeframe_imports_csv():
    # the CSV format lives in one module: timeframe.read_table reads every
    # input file and timeframe.write_table writes every output table
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "btvc"
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(str(n).split(".")[0] == "csv" for n in names):
                importers.add(path.name)
    assert importers == {"timeframe.py"}
