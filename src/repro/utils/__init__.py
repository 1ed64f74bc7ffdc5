"""Shared low-level utilities: RNG management, units, stats, tables."""

from repro.utils.rng import RngFactory, as_generator
from repro.utils.stats import RunningStats, SeriesStats
from repro.utils.tables import format_table
from repro.utils.units import (
    GB,
    GBPS,
    KB,
    MB,
    MBPS,
    MHZ,
    dbm_to_watts,
    format_size,
)
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "RngFactory",
    "as_generator",
    "RunningStats",
    "SeriesStats",
    "format_table",
    "GB",
    "GBPS",
    "KB",
    "MB",
    "MBPS",
    "MHZ",
    "dbm_to_watts",
    "format_size",
    "check_in_range",
    "check_positive",
]
