"""Tests for ScenarioConfig validation and defaults."""

import math
from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.utils.units import GB, MHZ, dbm_to_watts


class TestPaperDefaults:
    def test_section_7a_values(self):
        config = ScenarioConfig()
        assert config.area_side_m == 1000.0
        assert config.coverage_radius_m == 275.0
        assert config.total_bandwidth_hz == 400 * MHZ
        assert config.total_power_watts == pytest.approx(dbm_to_watts(43.0))
        assert config.active_probability == 0.5
        assert config.backhaul_rate_bps == 10e9
        assert config.antenna_gain == 1.0
        assert config.path_loss_exponent == 4.0
        assert config.storage_bytes == 1 * GB
        assert config.deadline_range_s == (0.5, 1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_servers", 0),
            ("num_users", 0),
            ("num_models", 0),
            ("area_side_m", 0.0),
            ("coverage_radius_m", 0.0),
            ("total_bandwidth_hz", 0.0),
            ("total_power_watts", 0.0),
            ("active_probability", 0.0),
            ("active_probability", 1.5),
            ("antenna_gain", 0.0),
            ("path_loss_exponent", 0.0),
            ("backhaul_rate_bps", 0.0),
            ("storage_bytes", -1),
            ("deadline_range_s", (1.0, 0.5)),
            ("deadline_range_s", (0.0, 1.0)),
            ("inference_latency_range_s", (-0.1, 0.2)),
            ("zipf_exponent", -0.5),
            ("library_case", "magic"),
            ("rng_scheme", "v3"),
            ("rng_scheme", ""),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [f.name for f in fields(ScenarioConfig) if isinstance(f.default, float)],
    )
    def test_rejects_non_finite_floats(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            ScenarioConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize(
        "field", ["deadline_range_s", "inference_latency_range_s"]
    )
    def test_rejects_non_finite_interval_ends(self, field, end, bad):
        interval = list(getattr(ScenarioConfig(), field))
        interval[end] = bad
        with pytest.raises(ConfigurationError, match=field):
            ScenarioConfig(**{field: tuple(interval)})

    def test_zero_storage_allowed(self):
        assert ScenarioConfig(storage_bytes=0).storage_bytes == 0

    def test_rng_scheme_defaults_to_v1(self):
        assert ScenarioConfig().rng_scheme == "v1"
        assert ScenarioConfig(rng_scheme="v2").rng_scheme == "v2"

    def test_rng_scheme_round_trips(self):
        config = ScenarioConfig(rng_scheme="v2")
        payload = config.to_dict()
        assert payload["rng_scheme"] == "v2"
        assert ScenarioConfig.from_dict(payload) == config


class TestOverrides:
    def test_with_overrides_copies(self):
        base = ScenarioConfig()
        varied = base.with_overrides(num_servers=14, storage_bytes=int(1.5 * GB))
        assert varied.num_servers == 14
        assert base.num_servers == 10  # original untouched

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig().with_overrides(num_servers=-1)


class TestConfigDictRoundTrip:
    def test_round_trip_identity(self):
        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig(
            num_servers=4,
            num_users=8,
            num_models=12,
            storage_bytes_per_server=(10, 20, 30, 40),
            deadline_range_s=(0.6, 0.9),
        )
        payload = config.to_dict()
        assert payload["storage_bytes_per_server"] == [10, 20, 30, 40]
        assert ScenarioConfig.from_dict(payload) == config

    def test_partial_payload_uses_defaults(self):
        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig.from_dict({"num_users": 5})
        assert config.num_users == 5
        assert config.num_servers == ScenarioConfig().num_servers

    def test_unknown_field_rejected(self):
        from repro.errors import ConfigurationError
        from repro.sim.config import ScenarioConfig

        with pytest.raises(ConfigurationError, match="unknown ScenarioConfig"):
            ScenarioConfig.from_dict({"num_server": 5})
