"""Tests for the edge-to-edge backhaul."""

import pytest

from repro.errors import ConfigurationError
from repro.network.backhaul import Backhaul
from repro.utils.units import GBPS


class TestBackhaul:
    def test_paper_default_rate(self):
        assert Backhaul().rate(0, 1) == 10 * GBPS

    def test_symmetric_overrides(self):
        backhaul = Backhaul(overrides={(2, 5): 1 * GBPS})
        assert backhaul.rate(2, 5) == 1 * GBPS
        assert backhaul.rate(5, 2) == 1 * GBPS
        assert backhaul.rate(0, 1) == 10 * GBPS

    def test_self_link_rejected(self):
        backhaul = Backhaul()
        with pytest.raises(ConfigurationError):
            backhaul.rate(3, 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Backhaul(default_rate_bps=0)
        with pytest.raises(ConfigurationError):
            Backhaul(overrides={(0, 1): -1.0})
