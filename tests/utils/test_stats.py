"""Tests for streaming statistics and series aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    RunningStats,
    SeriesStats,
    average_relative_gain,
    relative_gain,
)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.std == 0.0

    def test_known_values(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(32.0 / 7.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_single_sample_has_zero_variance(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.variance == 0.0
        assert stats.confidence_interval() == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            RunningStats().add(float("nan"))

    def test_confidence_interval_shrinks(self):
        wide = RunningStats()
        narrow = RunningStats()
        wide.extend([0.0, 1.0] * 5)
        narrow.extend([0.0, 1.0] * 500)
        assert narrow.confidence_interval() < wide.confidence_interval()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_matches_numpy(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values), abs=1e-6)
        assert stats.std == pytest.approx(np.std(values, ddof=1), abs=1e-6)


class TestSeriesStats:
    def test_add_run_shapes(self):
        series = SeriesStats([1, 2, 3])
        series.add_run([0.1, 0.2, 0.3])
        series.add_run([0.3, 0.4, 0.5])
        assert series.means == pytest.approx([0.2, 0.3, 0.4])
        assert (series.counts == 2).all()

    def test_wrong_length_rejected(self):
        series = SeriesStats([1, 2])
        with pytest.raises(ValueError):
            series.add_run([0.1])


class TestSummaries:
    def test_relative_gain_matches_paper_convention(self):
        # "33.93% higher than baseline" style.
        assert relative_gain(0.6698, 0.5) == pytest.approx(0.3396)

    def test_relative_gain_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_gain(1.0, 0.0)

    def test_average_relative_gain(self):
        gain = average_relative_gain([1.1, 1.2], [1.0, 1.0])
        assert gain == pytest.approx(0.15)

    def test_average_relative_gain_validates(self):
        with pytest.raises(ValueError):
            average_relative_gain([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            average_relative_gain([], [])


class TestFromMoments:
    def test_moments_survive(self):
        from repro.utils.stats import RunningStats

        original = RunningStats()
        for value in (0.1, 0.5, 0.9):
            original.add(value)
        restored = RunningStats.from_moments(
            original.count, original.mean, original.std
        )
        assert restored.count == original.count
        assert restored.mean == original.mean
        assert restored.std == original.std

    def test_unknown_extrema_are_nan(self):
        import math

        from repro.utils.stats import RunningStats

        restored = RunningStats.from_moments(3, 0.5, 0.1)
        assert math.isnan(restored.minimum)
        assert math.isnan(restored.maximum)
        restored.add(0.7)  # extrema stay unknowable after more samples
        assert math.isnan(restored.minimum)
        assert restored.count == 4

    def test_negative_count_rejected(self):
        from repro.utils.stats import RunningStats

        with pytest.raises(ValueError):
            RunningStats.from_moments(-1, 0.0, 0.0)

    def test_extrema_restored_when_serialised(self):
        original = RunningStats()
        original.extend([0.2, 0.9, 0.4])
        restored = RunningStats.from_moments(
            original.count,
            original.mean,
            original.std,
            minimum=original.minimum,
            maximum=original.maximum,
        )
        assert restored.minimum == 0.2
        assert restored.maximum == 0.9
        restored.add(0.1)  # known extrema keep updating normally
        assert restored.minimum == 0.1
        assert restored.maximum == 0.9

    def test_empty_restored_extrema_are_fresh(self):
        restored = RunningStats.from_moments(0, 0.0, 0.0)
        assert restored.minimum == math.inf
        assert restored.maximum == -math.inf
        restored.add(0.5)
        assert restored.minimum == 0.5
        assert restored.maximum == 0.5

    def test_series_extrema_round_trip(self):
        series = SeriesStats([1.0, 2.0])
        series.add_run([0.3, 0.8])
        series.add_run([0.5, 0.2])
        restored = SeriesStats.from_moments(
            [1.0, 2.0],
            series.means.tolist(),
            series.stds.tolist(),
            series.counts.tolist(),
            minima=series.minima.tolist(),
            maxima=series.maxima.tolist(),
        )
        assert (restored.minima == np.array([0.3, 0.2])).all()
        assert (restored.maxima == np.array([0.5, 0.8])).all()

    def test_series_extrema_length_checked(self):
        with pytest.raises(ValueError, match="extrema"):
            SeriesStats.from_moments(
                [1.0, 2.0], [0.5, 0.5], [0.0, 0.0], [1, 1], minima=[0.5]
            )


class TestVectorisedFolds:
    """add_array / merge agree with sequential add calls."""

    def test_add_array_matches_sequential(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=137)
        sequential = RunningStats()
        sequential.extend(values)
        vectorised = RunningStats()
        vectorised.add_array(values[:50])
        vectorised.add_array(values[50:51])
        vectorised.add_array(values[51:])
        assert vectorised.count == sequential.count
        assert vectorised.minimum == sequential.minimum
        assert vectorised.maximum == sequential.maximum
        assert math.isclose(vectorised.mean, sequential.mean, rel_tol=1e-12)
        assert math.isclose(
            vectorised.variance, sequential.variance, rel_tol=1e-9
        )

    def test_add_array_accepts_2d_and_empty(self):
        stats = RunningStats()
        stats.add_array(np.empty((0,)))
        assert stats.count == 0
        stats.add_array(np.arange(6.0).reshape(2, 3))
        assert stats.count == 6
        assert stats.minimum == 0.0 and stats.maximum == 5.0

    def test_add_array_rejects_nan(self):
        stats = RunningStats()
        with pytest.raises(ValueError, match="NaN"):
            stats.add_array(np.array([1.0, float("nan")]))
        assert stats.count == 0

    def test_merge_matches_union(self):
        rng = np.random.default_rng(1)
        left_values = rng.normal(size=40)
        right_values = rng.normal(loc=3.0, size=25)
        left = RunningStats()
        left.extend(left_values)
        right = RunningStats()
        right.extend(right_values)
        left.merge(right)
        union = RunningStats()
        union.extend(np.concatenate([left_values, right_values]))
        assert left.count == union.count
        assert left.minimum == union.minimum
        assert left.maximum == union.maximum
        assert math.isclose(left.mean, union.mean, rel_tol=1e-12)
        assert math.isclose(left.variance, union.variance, rel_tol=1e-9)

    def test_merge_empty_is_noop_and_into_empty_copies(self):
        filled = RunningStats()
        filled.extend([1.0, 2.0, 3.0])
        before = (filled.count, filled.mean, filled.variance)
        filled.merge(RunningStats())
        assert (filled.count, filled.mean, filled.variance) == before
        empty = RunningStats()
        empty.merge(filled)
        assert empty.count == filled.count
        assert empty.mean == filled.mean
        assert empty.variance == filled.variance

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=61),
    )
    def test_chunked_fold_property(self, values, chunk):
        array = np.asarray(values)
        sequential = RunningStats()
        sequential.extend(array)
        chunked = RunningStats()
        for start in range(0, array.size, chunk):
            chunked.add_array(array[start : start + chunk])
        assert chunked.count == sequential.count
        assert chunked.minimum == sequential.minimum
        assert chunked.maximum == sequential.maximum
        assert math.isclose(
            chunked.mean, sequential.mean, rel_tol=1e-9, abs_tol=1e-9
        )
