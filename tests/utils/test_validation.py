"""Tests for argument-validation helpers."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.utils.validation import (
    check_in_range,
    check_interval,
    check_positive,
)


class TestCheckPositive:
    def test_strict(self):
        assert check_positive("x", 1) == 1
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_non_strict(self):
        assert check_positive("x", 0, strict=False) == 0
        with pytest.raises(ConfigurationError):
            check_positive("x", -1, strict=False)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", True)

    def test_non_number(self):
        with pytest.raises(ConfigurationError):
            check_positive("x", "1")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigurationError, match="must be finite"):
            check_positive("x", value, strict=False)


class TestCheckInRange:
    def test_inclusive(self):
        assert check_in_range("x", 0.5, 0, 1) == 0.5
        assert check_in_range("x", 0, 0, 1) == 0

    def test_exclusive(self):
        with pytest.raises(ConfigurationError):
            check_in_range("x", 0, 0, 1, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            check_in_range("x", 2, 0, 1)

    def test_exclusive_upper_bound(self):
        assert check_in_range("x", 0.5, 0, 1, inclusive=False) == 0.5
        with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
            check_in_range("x", 1, 0, 1, inclusive=False)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        # An infinite bound must not admit an infinite value either.
        with pytest.raises(ConfigurationError, match="must be finite"):
            check_in_range("x", value, 0, math.inf)


class TestCheckInterval:
    def test_valid(self):
        assert check_interval("r", (0.5, 1.0)) == (0.5, 1.0)

    def test_unordered(self):
        with pytest.raises(ConfigurationError):
            check_interval("r", (1.0, 0.5))

    @pytest.mark.parametrize(
        "interval", [(math.nan, 1.0), (0.0, math.inf)], ids=["nan-low", "inf-high"]
    )
    def test_non_finite_end_rejected(self, interval):
        with pytest.raises(ConfigurationError, match="must be finite"):
            check_interval("r", interval)

    def test_not_a_pair(self):
        with pytest.raises(ConfigurationError):
            check_interval("r", (1.0,))
        with pytest.raises(ConfigurationError):
            check_interval("r", ("a", "b"))
