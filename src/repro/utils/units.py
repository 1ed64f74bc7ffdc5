"""Physical and storage unit helpers.

Internally the package uses SI base units everywhere: bytes for storage,
bits-per-second for data rates, hertz for bandwidth, watts for power,
seconds for time, metres for distance. These constants and converters keep
configuration code readable (``1.5 * GB`` instead of ``1_500_000_000``).

Storage constants are decimal (as used by the paper's "GB"), not binary.
"""

from __future__ import annotations

#: One kilobyte in bytes (decimal).
KB: int = 1_000
#: One megabyte in bytes (decimal).
MB: int = 1_000_000
#: One gigabyte in bytes (decimal).
GB: int = 1_000_000_000

#: One megabit per second, in bits per second.
MBPS: float = 1e6
#: One gigabit per second, in bits per second.
GBPS: float = 1e9

#: One megahertz, in hertz.
MHZ: float = 1e6


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts.

    >>> round(dbm_to_watts(30.0), 6)
    1.0
    """
    return 10.0 ** ((dbm - 30.0) / 10.0)


def format_size(num_bytes: float) -> str:
    """Render a byte count as a human-readable decimal string.

    >>> format_size(1_500_000_000)
    '1.50 GB'
    >>> format_size(250)
    '250 B'
    """
    if num_bytes < 0:
        raise ValueError(f"size must be non-negative, got {num_bytes}")
    if num_bytes >= GB:
        return f"{num_bytes / GB:.2f} GB"
    if num_bytes >= MB:
        return f"{num_bytes / MB:.2f} MB"
    if num_bytes >= KB:
        return f"{num_bytes / KB:.2f} KB"
    return f"{num_bytes:.0f} B"
