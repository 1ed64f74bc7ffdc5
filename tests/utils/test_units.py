"""Tests for unit constants and converters."""

import math

import pytest

from repro.utils.units import (
    GB,
    GBPS,
    KB,
    MB,
    MBPS,
    dbm_to_watts,
    format_size,
)


class TestConstants:
    def test_decimal_storage_units(self):
        assert KB == 1_000
        assert MB == 1_000_000
        assert GB == 1_000_000_000

    def test_rate_units(self):
        assert MBPS == 1e6
        assert GBPS == 1e9


class TestPowerConversion:
    def test_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        # The paper's 43 dBm transmit power is ~20 W.
        assert dbm_to_watts(43.0) == pytest.approx(19.95, rel=1e-3)


class TestFormatting:
    def test_format_size_scales(self):
        assert format_size(1_500_000_000) == "1.50 GB"
        assert format_size(2_000_000) == "2.00 MB"
        assert format_size(3_000) == "3.00 KB"
        assert format_size(250) == "250 B"

    def test_format_size_negative_rejected(self):
        with pytest.raises(ValueError):
            format_size(-1)
