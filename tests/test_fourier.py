import numpy as np
import pytest

from btvc.errors import ValidationError
from btvc.fourier import FourierSpec, fourier_design


def test_columns_follow_spec_then_order_cos_before_sin():
    design = fourier_design(10, (FourierSpec(7.0, 2), FourierSpec(365.25, 1)))
    assert design.shape == (10, 6)
    t = np.arange(1, 11)
    expected = np.column_stack([
        np.cos(2 * np.pi * 1 * t / 7.0), np.sin(2 * np.pi * 1 * t / 7.0),
        np.cos(2 * np.pi * 2 * t / 7.0), np.sin(2 * np.pi * 2 * t / 7.0),
        np.cos(2 * np.pi * 1 * t / 365.25), np.sin(2 * np.pi * 1 * t / 365.25),
    ])
    assert np.allclose(design, expected, atol=1e-14)


def test_empty_specs_gives_zero_columns():
    design = fourier_design(8, ())
    assert design.shape == (8, 0)


def test_design_needs_a_row():
    with pytest.raises(ValidationError, match="^T must be >= 1, got 0$"):
        fourier_design(0, (FourierSpec(7.0, 1),))


def test_entries_bounded_by_one():
    design = fourier_design(500, (FourierSpec(7.0, 3), FourierSpec(30.5, 4)))
    assert np.max(np.abs(design)) <= 1.0 + 1e-12


def test_spec_validation():
    with pytest.raises(ValidationError):
        FourierSpec(1.0, 1)       # period must exceed 1
    with pytest.raises(ValidationError):
        FourierSpec(7.0, 0)       # order must be >= 1
    with pytest.raises(ValidationError):
        FourierSpec(7.0, 4)       # 2*order must stay below the period


@pytest.mark.parametrize("period", [np.nan, np.inf])
def test_spec_rejects_a_non_finite_period(period):
    # nan passes the range and aliasing checks (comparisons with nan are
    # false) and inf makes every column constant
    with pytest.raises(ValidationError, match=f"period must be finite, got {period}"):
        FourierSpec(period, 1)


def test_times_give_the_matching_rows_bit_for_bit():
    # rows past 3000 of a design that starts at t = 1, asked for on their own
    specs = (FourierSpec(7.0, 3), FourierSpec(365.25, 2))
    full = fourier_design(3028, specs)
    tail = fourier_design(3000, specs, times=range(3001, 3029))
    assert tail.shape == (28, 10)
    assert np.array_equal(tail, full[3000:])


def test_times_with_no_specs_give_zero_columns():
    design = fourier_design(10, (), times=range(11, 16))
    assert design.shape == (5, 0)
