"""Tests for the argument-validation helpers."""

import pytest

from repro.utils.validation import check_in, check_positive, is_integer, is_number


def test_check_positive_passes_through():
    assert check_positive("x", 3.5) == 3.5


@pytest.mark.parametrize("value", [0, -1, -0.001])
def test_check_positive_rejects(value):
    with pytest.raises(ValueError, match="x must be > 0"):
        check_positive("x", value)


def test_check_in_accepts_member():
    assert check_in("mode", "lp", ["lp", "greedy"]) == "lp"


def test_check_in_rejects_non_member():
    with pytest.raises(ValueError, match="mode must be one of"):
        check_in("mode", "exact", ["lp", "greedy"])


def test_is_number_accepts_int_and_float_but_not_bool():
    assert is_number(3) and is_number(2.5)
    assert not any(is_number(v) for v in (True, "3", None))


def test_is_integer_rejects_bool_and_float():
    assert is_integer(3)
    assert not any(is_integer(v) for v in (2.0, 0.5, True))
