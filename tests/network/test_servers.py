"""Tests for edge servers and resource allocation."""

import pytest

from repro.errors import ConfigurationError
from repro.network.geometry import Point
from repro.network.servers import EdgeServer
from repro.utils.units import GB, MHZ, dbm_to_watts


def make_server(**kwargs) -> EdgeServer:
    defaults = dict(server_id=0, position=Point(0, 0))
    defaults.update(kwargs)
    return EdgeServer(**defaults)


class TestDefaults:
    def test_paper_defaults(self):
        server = make_server()
        assert server.storage_bytes == 1 * GB
        assert server.total_bandwidth_hz == 400 * MHZ
        assert server.total_power_watts == pytest.approx(dbm_to_watts(43.0))
        assert server.coverage_radius_m == 275.0


class TestValidation:
    def test_bad_fields(self):
        with pytest.raises(ConfigurationError):
            make_server(server_id=-1)
        with pytest.raises(ConfigurationError):
            make_server(storage_bytes=-1)
        with pytest.raises(ConfigurationError):
            make_server(total_bandwidth_hz=0)
        with pytest.raises(ConfigurationError):
            make_server(total_power_watts=0)
        with pytest.raises(ConfigurationError):
            make_server(coverage_radius_m=0)

    def test_zero_storage_allowed(self):
        # A server with no cache is a legal (degenerate) configuration.
        assert make_server(storage_bytes=0).storage_bytes == 0
