"""Tests for the Fig.-1 accuracy-degradation curve (substituted model)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.accuracy import (
    ANIMAL_CURVE,
    TRANSPORTATION_CURVE,
    AccuracyCurve,
)


class TestCalibration:
    """The curve must hit the endpoints the paper reports."""

    def test_transportation_drop_at_layer_97(self):
        drop = TRANSPORTATION_CURVE.accuracy(0) - TRANSPORTATION_CURVE.accuracy(97)
        assert drop == pytest.approx(0.052, abs=0.005)

    def test_animal_drop_at_layer_97(self):
        drop = ANIMAL_CURVE.accuracy(0) - ANIMAL_CURVE.accuracy(97)
        assert drop == pytest.approx(0.0405, abs=0.005)

    def test_average_drop_near_paper(self):
        drops = [
            curve.accuracy(0) - curve.accuracy(97)
            for curve in (TRANSPORTATION_CURVE, ANIMAL_CURVE)
        ]
        assert np.mean(drops) == pytest.approx(0.047, abs=0.006)


class TestShape:
    def test_monotone_decreasing(self):
        values = TRANSPORTATION_CURVE.curve(list(range(0, 108, 5)))
        assert (np.diff(values) <= 0).all()

    def test_flat_early_steep_late(self):
        early = TRANSPORTATION_CURVE.accuracy(0) - TRANSPORTATION_CURVE.accuracy(30)
        late = TRANSPORTATION_CURVE.accuracy(77) - TRANSPORTATION_CURVE.accuracy(107)
        assert early < late

    def test_bounds(self):
        for depth in (0, 50, 107):
            acc = ANIMAL_CURVE.accuracy(depth)
            assert 0.0 < acc <= 1.0


class TestValidation:
    def test_depth_range(self):
        with pytest.raises(ConfigurationError):
            TRANSPORTATION_CURVE.accuracy(-1)
        with pytest.raises(ConfigurationError):
            TRANSPORTATION_CURVE.accuracy(108)

    def test_curve_params(self):
        with pytest.raises(ConfigurationError):
            AccuracyCurve(1.5, 0.1, 1.0, 10)
        with pytest.raises(ConfigurationError):
            AccuracyCurve(0.9, 0.95, 1.0, 10)
        with pytest.raises(ConfigurationError):
            AccuracyCurve(0.9, 0.1, 0.0, 10)
        with pytest.raises(ConfigurationError):
            AccuracyCurve(0.9, 0.1, 1.0, 0)
