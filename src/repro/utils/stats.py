"""Streaming statistics and series aggregation for experiment results.

The paper reports each point as a mean with a standard-deviation error bar
over 100 network topologies. :class:`RunningStats` accumulates those moments
without storing samples (Welford's algorithm), and :class:`SeriesStats`
aggregates one such accumulator per sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np


class RunningStats:
    """Numerically stable streaming mean / variance (Welford).

    >>> s = RunningStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.mean
    2.0
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Exact std restored by :meth:`from_moments`; cleared by
        #: :meth:`add` (float round-trips of ``std -> m2 -> std`` can
        #: drift by an ulp, and serialisation must be the identity).
        self._pinned_std: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot accumulate NaN")
        self._pinned_std = None
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    def add_array(self, values: np.ndarray) -> None:
        """Fold a whole array of observations in one vectorised pass.

        Computes the chunk's moments with numpy reductions and merges
        them via Chan's parallel update — the streaming evaluator folds
        one chunk of per-user hit masses at a time this way. Count, min
        and max are exact; mean and variance agree with sequential
        :meth:`add` calls to floating-point accuracy (the summation
        order differs, so final ulps may differ).
        """
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        if np.isnan(values).any():
            raise ValueError("cannot accumulate NaN")
        count = int(values.size)
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        self._merge_moments(count, mean, m2, float(values.min()), float(values.max()))

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator's observations into this one.

        Chan's parallel-merge update: the result summarises the union of
        both sample sets (exact count/min/max; mean/variance to
        floating-point accuracy).
        """
        if other._count == 0:
            return
        self._merge_moments(
            other._count, other._mean, other._m2, other._min, other._max
        )

    def _merge_moments(
        self, count: int, mean: float, m2: float, minimum: float, maximum: float
    ) -> None:
        self._pinned_std = None
        if self._count == 0:
            self._count = count
            self._mean = mean
            self._m2 = m2
        else:
            total = self._count + count
            delta = mean - self._mean
            self._mean += delta * count / total
            self._m2 += m2 + delta * delta * self._count * count / total
            self._count = total
        self._min = min(self._min, minimum)
        self._max = max(self._max, maximum)

    @property
    def count(self) -> int:
        """Number of observations accumulated."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        if self._pinned_std is not None:
            return self._pinned_std**2
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        if self._pinned_std is not None and self._count >= 2:
            return self._pinned_std
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def confidence_interval(self, z: float = 1.96) -> float:
        """Half-width of the normal-approximation CI of the mean."""
        if self._count < 2:
            return 0.0
        return z * self.std / math.sqrt(self._count)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RunningStats(n={self._count}, mean={self.mean:.4g}, std={self.std:.4g})"

    @classmethod
    def from_moments(
        cls,
        count: int,
        mean: float,
        std: float,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ) -> "RunningStats":
        """Rebuild an accumulator from its serialised moments.

        Used by the experiment deserialisers, which serialise the
        extrema alongside (count, mean, std) — pass them back here and
        ``minimum``/``maximum`` report the true observed values,
        completing the ``to_json -> from_json`` identity. Legacy
        payloads predating extrema serialisation omit them; the restored
        accumulator then reports NaN rather than a confidently wrong
        number — and stays NaN through further :meth:`add` calls,
        because the true extrema are unknowable once lost.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        stats = cls()
        stats._count = int(count)
        stats._mean = float(mean)
        stats._m2 = float(std) ** 2 * max(0, int(count) - 1)
        stats._pinned_std = float(std)
        if count:
            stats._min = math.nan if minimum is None else float(minimum)
            stats._max = math.nan if maximum is None else float(maximum)
        return stats


@dataclass
class SeriesStats:
    """Mean/std series over a parameter sweep, one accumulator per x value."""

    x_values: Sequence[float]
    _stats: List[RunningStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self._stats:
            self._stats = [RunningStats() for _ in self.x_values]
        if len(self._stats) != len(self.x_values):
            raise ValueError("one accumulator required per x value")

    def add(self, index: int, value: float) -> None:
        """Add one observation at sweep position ``index``."""
        self._stats[index].add(value)

    def add_run(self, values: Sequence[float]) -> None:
        """Add a full sweep (one value per x) from a single run."""
        if len(values) != len(self.x_values):
            raise ValueError(
                f"expected {len(self.x_values)} values, got {len(values)}"
            )
        for index, value in enumerate(values):
            self.add(index, value)

    @property
    def means(self) -> np.ndarray:
        """Vector of per-point means."""
        return np.array([s.mean for s in self._stats])

    @property
    def stds(self) -> np.ndarray:
        """Vector of per-point standard deviations."""
        return np.array([s.std for s in self._stats])

    @property
    def counts(self) -> np.ndarray:
        """Vector of per-point observation counts."""
        return np.array([s.count for s in self._stats])

    def stat_at(self, index: int) -> RunningStats:
        """The per-point accumulator at sweep position ``index``."""
        return self._stats[index]

    @property
    def minima(self) -> np.ndarray:
        """Vector of per-point observed minima."""
        return np.array([s.minimum for s in self._stats])

    @property
    def maxima(self) -> np.ndarray:
        """Vector of per-point observed maxima."""
        return np.array([s.maximum for s in self._stats])

    @classmethod
    def from_moments(
        cls,
        x_values: Sequence[float],
        means: Sequence[float],
        stds: Sequence[float],
        counts: Sequence[int],
        minima: Optional[Sequence[float]] = None,
        maxima: Optional[Sequence[float]] = None,
    ) -> "SeriesStats":
        """Rebuild a series from serialised per-point moments.

        ``minima``/``maxima`` restore the per-point extrema when the
        payload carries them; omitted (legacy payloads), restored
        accumulators report NaN extrema.
        """
        if not (len(x_values) == len(means) == len(stds) == len(counts)):
            raise ValueError("moment vectors must have one entry per x value")
        for extrema in (minima, maxima):
            if extrema is not None and len(extrema) != len(x_values):
                raise ValueError(
                    "extrema vectors must have one entry per x value"
                )
        return cls(
            list(x_values),
            [
                RunningStats.from_moments(
                    count,
                    mean,
                    std,
                    minimum=None if minima is None else minima[index],
                    maximum=None if maxima is None else maxima[index],
                )
                for index, (count, mean, std) in enumerate(
                    zip(counts, means, stds)
                )
            ],
        )


def aggregate_series(
    x_values: Sequence[float],
    runs: Sequence[Sequence[float]],
) -> SeriesStats:
    """Build a :class:`SeriesStats` from a list of per-run sweeps."""
    series = SeriesStats(x_values)
    for run in runs:
        series.add_run(run)
    return series


def relative_gain(candidate: float, baseline: float) -> float:
    """Relative improvement of ``candidate`` over ``baseline``.

    Matches how the paper quotes e.g. "33.93% higher than Independent
    Caching": ``(candidate - baseline) / baseline``.
    """
    if baseline == 0:
        raise ValueError("baseline must be non-zero for a relative gain")
    return (candidate - baseline) / baseline


def average_relative_gain(
    candidate: Sequence[float], baseline: Sequence[float]
) -> float:
    """Mean of pointwise relative gains across a sweep."""
    if len(candidate) != len(baseline):
        raise ValueError("series must have equal length")
    if len(candidate) == 0:
        raise ValueError("series must be non-empty")
    gains = [relative_gain(c, b) for c, b in zip(candidate, baseline)]
    return float(np.mean(gains))
