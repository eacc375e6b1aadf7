import numpy as np
import pytest

from btvc.errors import ValidationError
from btvc.model import Structure
from btvc.timeframe import (
    CsvSchema,
    TimeSeriesFrame,
    emit_csv,
    ingest_csv,
    model_scale,
)


def make_frame(T=6, P=2, start="2024-01-01", step=1, x=None, y=None):
    ts = np.datetime64(start, "D") + step * np.arange(T)
    if y is None:
        y = np.linspace(10, 20, T)
    if x is None:
        x = np.arange(T * P, dtype=float).reshape(T, P)
    return TimeSeriesFrame(timestamps=ts, response=y, regressors=x)


def make_structure(**fields):
    """A log-link fit Structure of one knot per component, with fields
    overriding its defaults."""
    values = dict(T=60, last_date="2024-02-29", step_days=1, knots_lev=[1], knots_seas=[1],
                  knots_reg=[1], rho=15.0, fourier=[], link="log", zero_policy="shift1",
                  floor_epsilon=1e-6, regressor_names=["x1", "x2"])
    values.update(fields)
    return Structure(**values)


def log_structure(zero_policy="shift1", floor_epsilon=1e-6, names=("x1", "x2")):
    """A log-link fit structure with the fields model_scale reads."""
    return make_structure(zero_policy=zero_policy, floor_epsilon=floor_epsilon,
                          regressor_names=names)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in r) for r in rows) + "\n")


class TestFrameValidation:
    def test_basic_properties(self):
        f = make_frame(T=5, P=3)
        assert f.n_times == 5
        assert f.n_regressors == 3
        assert f.step == np.timedelta64(1, "D")
        assert f.regressor_names == ("x1", "x2", "x3")

    def test_rejects_single_row(self):
        with pytest.raises(ValidationError, match="at least 2"):
            make_frame(T=1)

    def test_rejects_uneven_spacing(self):
        ts = np.array(["2024-01-01", "2024-01-02", "2024-01-04"], dtype="datetime64[D]")
        with pytest.raises(ValidationError, match="row 3"):
            TimeSeriesFrame(timestamps=ts, response=np.ones(3), regressors=np.ones((3, 1)))

    @pytest.mark.parametrize("fields, message", [
        (dict(response=np.ones(4)), "response shape (4,) does not match T=3"),
        (dict(regressors=np.ones(3)), "regressors shape (3,) does not match T=3"),
        (dict(regressors=np.ones((2, 1))), "regressors shape (2, 1) does not match T=3"),
        (dict(regressor_names=("tv", "radio")), "1 regressor columns but 2 names"),
        (dict(timestamps=np.array(["2024-01-03", "2024-01-02", "2024-01-01"],
                                  dtype="datetime64[D]")),
         "timestamps not strictly increasing at row 2"),
    ])
    def test_rejects_misshapen_or_unordered_fields(self, fields, message):
        base = dict(timestamps=np.datetime64("2024-01-01", "D") + np.arange(3),
                    response=np.ones(3), regressors=np.ones((3, 1)))
        with pytest.raises(ValidationError) as info:
            TimeSeriesFrame(**base | fields)
        assert str(info.value) == message

    def test_rejects_negative_regressors_by_default(self):
        x = np.array([[1.0], [-0.5], [2.0]])
        with pytest.raises(ValidationError, match="row 2"):
            make_frame(T=3, P=1, x=x)
        f = TimeSeriesFrame(
            timestamps=np.datetime64("2024-01-01", "D") + np.arange(3),
            response=np.ones(3),
            regressors=x,
            allow_negative_regressors=True,
        )
        assert f.n_times == 3

    def test_weekly_spacing_accepted(self):
        f = make_frame(T=4, step=7)
        assert f.step == np.timedelta64(7, "D")


class TestLogTransforms:
    def test_shift1_matches_log1p(self):
        f = make_frame(T=5, P=2)
        x, y = model_scale(log_structure(), f.regressors, f.response)
        assert np.array_equal(y, np.log(f.response))
        assert np.array_equal(x, np.log1p(f.regressors))

    def test_floor_matches_clipped_log(self):
        x = np.array([[0.0], [0.5], [3.0]])
        f = make_frame(T=3, P=1, x=x)
        lx, _ = model_scale(log_structure("floor", 0.01), f.regressors, f.response)
        assert np.array_equal(lx, np.log(np.maximum(x, 0.01)))

    def test_floor_requires_epsilon(self):
        f = make_frame()
        for epsilon in (None, 0.0):
            with pytest.raises(ValidationError):
                model_scale(log_structure("floor", epsilon), f.regressors, f.response)

    def test_nonpositive_response_reports_row(self):
        y = np.array([5.0, 0.0, 3.0])
        f = make_frame(T=3, y=y)
        with pytest.raises(ValidationError, match="row 2"):
            model_scale(log_structure(), f.regressors, f.response)

    def test_unknown_policy(self):
        f = make_frame()
        with pytest.raises(ValidationError):
            model_scale(log_structure("clip"), f.regressors, f.response)

    def test_transform_regressors_for_future_rows(self):
        x = np.array([[0.0, 2.0], [1.0, 3.0]])
        lx, y = model_scale(log_structure(), x)
        assert y is None
        assert np.array_equal(lx, np.log1p(x))
        assert np.array_equal(
            model_scale(log_structure("floor", 0.5), x)[0], np.log(np.maximum(x, 0.5))
        )

    def test_negative_regressor_is_named_from_the_structure(self):
        x = np.array([[0.0, 2.0], [1.0, 3.0], [1.0, -0.5]])
        with pytest.raises(ValidationError, match="^negative regressor 'b' at row 3$"):
            model_scale(log_structure(names=("a", "b")), x)


class TestCsvIngest:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        f = make_frame(T=20, P=3, x=rng.gamma(2, 1, (20, 3)), y=rng.gamma(5, 3, 20))
        p = tmp_path / "series.csv"
        emit_csv(f, str(p))
        g = ingest_csv(str(p))
        assert np.array_equal(f.response, g.response)
        assert np.array_equal(f.regressors, g.regressors)
        assert np.array_equal(f.timestamps, g.timestamps)

    def test_emit_rejects_a_schema_of_other_regressors(self, tmp_path):
        schema = CsvSchema(regressor_cols=("tv",))
        with pytest.raises(ValidationError,
                           match="^schema regressor columns do not match frame$"):
            emit_csv(make_frame(P=2), str(tmp_path / "s.csv"), schema)
        assert not (tmp_path / "s.csv").exists()

    def test_rows_sorted_by_date(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [
            ["date", "y", "x1"],
            ["2024-01-03", "3", "1"],
            ["2024-01-01", "1", "1"],
            ["2024-01-02", "2", "1"],
        ])
        f = ingest_csv(str(p))
        assert f.response.tolist() == [1.0, 2.0, 3.0]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [["date", "sales"], ["2024-01-01", "1"]])
        with pytest.raises(ValidationError, match="y"):
            ingest_csv(str(p))

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [
            ["date", "y", "x1"],
            ["2024-01-01", "1", "2"],
            ["2024-01-02", "oops", "2"],
        ])
        with pytest.raises(ValidationError, match="row 2"):
            ingest_csv(str(p))

    def test_duplicate_date_reports_second_row(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [
            ["date", "y", "x1"],
            ["2024-01-01", "1", "0"],
            ["2024-01-02", "2", "0"],
            ["2024-01-01", "3", "0"],
        ])
        with pytest.raises(ValidationError, match="row 3"):
            ingest_csv(str(p))

    def test_explicit_schema_selects_columns(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [
            ["when", "demand", "tv", "radio"],
            ["2024-01-01", "10", "1", "2"],
            ["2024-01-02", "11", "3", "4"],
        ])
        schema = CsvSchema(date_col="when", response_col="demand",
                           regressor_cols=("tv", "radio"))
        f = ingest_csv(str(p), schema)
        assert f.regressor_names == ("tv", "radio")
        assert f.regressors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("fields, name", [
        (dict(regressor_cols=("y",)), "y"),
        (dict(regressor_cols=("tv", "radio", "tv")), "tv"),
        (dict(date_col="y"), "y"),
    ])
    def test_a_schema_naming_a_column_twice_is_rejected(self, fields, name):
        # a repeated name used to read one column as two regressors, or the
        # response as a regressor
        with pytest.raises(ValidationError,
                           match=f"^column {name!r} is named twice in the CSV schema$"):
            CsvSchema(**fields)

    def test_a_byte_order_mark_reads_as_its_twin(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM, which used to
        # become part of the first header name: missing column 'date'
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, [["date", "y", "tv"], ["2024-01-01", "10", "1"],
                          ["2024-01-02", "11", "3"]])
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        f, g = ingest_csv(str(plain)), ingest_csv(str(bom))
        assert g.regressor_names == f.regressor_names == ("tv",)
        for name in ("timestamps", "response", "regressors"):
            assert getattr(g, name).tobytes() == getattr(f, name).tobytes()

    def test_regressor_columns_inferred(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [
            ["date", "y", "a", "b"],
            ["2024-01-01", "10", "1", "2"],
            ["2024-01-02", "11", "3", "4"],
        ])
        f = ingest_csv(str(p))
        assert f.regressor_names == ("a", "b")
