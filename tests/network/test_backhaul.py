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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"default_rate_bps": float("nan")},
            {"default_rate_bps": float("inf")},
            {"default_rate_bps": -1.0},
            {"overrides": {(0, 1): float("inf")}},
            {"overrides": {(0, 1): float("nan")}},
            {"overrides": {(0, 1): 0.0}},
        ],
    )
    def test_non_finite_or_non_positive_rates_refused(self, kwargs):
        with pytest.raises(ConfigurationError):
            Backhaul(**kwargs)

    @pytest.mark.parametrize(
        "key", [(0, -3), (0.0, 1), (0, 1.5), (True, 2), (0,), (0, 1, 2), "01"]
    )
    def test_keys_that_are_not_two_server_ids_refused(self, key):
        with pytest.raises(ConfigurationError):
            Backhaul(overrides={key: 1 * GBPS})

    def test_reversed_key_is_stored_ordered(self):
        backhaul = Backhaul(overrides={(2, 0): 1 * GBPS})
        assert backhaul.overrides == {(0, 2): 1 * GBPS}
        assert backhaul.rate(0, 2) == backhaul.rate(2, 0) == 1 * GBPS

    def test_both_orders_must_agree(self):
        backhaul = Backhaul(overrides={(0, 1): 2 * GBPS, (1, 0): 2 * GBPS})
        assert backhaul.overrides == {(0, 1): 2 * GBPS}
        with pytest.raises(ConfigurationError, match="two rates"):
            Backhaul(overrides={(0, 1): 2 * GBPS, (1, 0): 5 * GBPS})
