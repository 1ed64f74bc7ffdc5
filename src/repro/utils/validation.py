"""Small argument-validation helpers shared across the package.

These raise :class:`repro.errors.ConfigurationError` (a ``ValueError``
subclass) with uniform, descriptive messages, which keeps configuration
dataclasses short and their error messages consistent.
"""

from __future__ import annotations

import math
from typing import Any, Tuple, Union

from repro.errors import ConfigurationError

Number = Union[int, float]


def _check_finite_number(name: str, value: Any) -> None:
    """Ensure ``value`` is a finite int or float (not a bool, NaN or ±inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{name} must be a number, got {type(value).__name__}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def check_positive(name: str, value: Number, *, strict: bool = True) -> Number:
    """Ensure ``value`` is finite and positive (strictly by default)."""
    _check_finite_number(name, value)
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    name: str,
    value: Number,
    low: Number,
    high: Number,
    *,
    inclusive: bool = True,
) -> Number:
    """Ensure finite ``low <= value <= high`` (or strict bounds); return it."""
    _check_finite_number(name, value)
    if inclusive:
        if not (low <= value <= high):
            raise ConfigurationError(
                f"{name} must be in [{low}, {high}], got {value}"
            )
    else:
        if not (low < value < high):
            raise ConfigurationError(
                f"{name} must be in ({low}, {high}), got {value}"
            )
    return value


def check_interval(name: str, interval: Tuple[Number, Number]) -> Tuple[Number, Number]:
    """Ensure ``interval`` is an ordered, finite (low, high) pair; return it."""
    if not isinstance(interval, (tuple, list)) or len(interval) != 2:
        raise ConfigurationError(
            f"{name} must be a (low, high) pair of numbers, got {interval!r}"
        )
    low, high = interval
    _check_finite_number(f"{name} low", low)
    _check_finite_number(f"{name} high", high)
    if low > high:
        raise ConfigurationError(
            f"{name} must satisfy low <= high, got ({low}, {high})"
        )
    return (low, high)
