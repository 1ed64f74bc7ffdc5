"""Scenario configuration (paper §VII-A defaults).

Every number the paper states is a field with that value as default;
every number the paper leaves unstated is a clearly documented field so
sensitivity can be tested (see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.utils.units import GB, MHZ, dbm_to_watts
from repro.utils.validation import (
    check_in_range,
    check_interval,
    check_positive,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of one simulated snapshot.

    Paper-stated defaults: 1 km² area, 275 m coverage, B = 400 MHz,
    P = 43 dBm, p_A = 0.5, 10 Gbps backhaul, γ0 = 1, α0 = 4, deadlines
    uniform in [0.5, 1] s, Zipf demand, Q identical across servers.

    Unstated (documented substitutions): thermal noise PSD, inference
    latency range, Zipf exponent, per-user popularity permutation.
    """

    # Scale
    num_servers: int = 10
    num_users: int = 30
    num_models: int = 30
    # Geometry
    area_side_m: float = 1000.0
    coverage_radius_m: float = 275.0
    # Radio
    total_bandwidth_hz: float = 400 * MHZ
    total_power_watts: float = dbm_to_watts(43.0)
    active_probability: float = 0.5
    antenna_gain: float = 1.0
    path_loss_exponent: float = 4.0
    backhaul_rate_bps: float = 10e9
    # Storage: identical per server by default (the paper's setting);
    # supply per-server overrides for heterogeneous deployments.
    storage_bytes: int = 1 * GB
    storage_bytes_per_server: Optional[Tuple[int, ...]] = None
    # QoS
    deadline_range_s: Tuple[float, float] = (0.5, 1.0)
    inference_latency_range_s: Tuple[float, float] = (0.05, 0.15)
    # Demand
    zipf_exponent: float = 0.8
    per_user_popularity: bool = True
    #: Each user requests a Zipf-weighted random subset of this many
    #: models (the paper's "I = 30" per-figure setting against its
    #: 300-model library). ``None`` = every user may request every model.
    requests_per_user: Optional[int] = None
    # Library
    library_case: str = "special"  # "special" | "general"
    #: Scenario RNG scheme. ``"v1"`` (default) is the seed's per-user
    #: Python draw order, preserved verbatim so default series stay
    #: ``==``-identical to the seed. ``"v2"`` draws the same
    #: distributions in batched numpy passes (one ``rng.permuted``/
    #: gather instead of K per-user calls) — statistically equivalent
    #: but a different stream layout, so it is opt-in and hashed into
    #: plan identities like any other config field.
    rng_scheme: str = "v1"
    #: User-block size for the chunked/streaming scenario pipeline.
    #: ``None`` (default) draws v2 demand as one block of all K users and
    #: builds feasibility in one pass. When set, demand and feasibility
    #: are assembled in user blocks of this many rows. Requires
    #: ``rng_scheme="v2"``: only the batched draw order makes a chunk a
    #: row range of the full draw, so the chunked build is bit-identical
    #: to the unchunked one for *any* chunk size — v1's per-user stream
    #: could never be split without changing results.
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive("num_servers", self.num_servers)
        check_positive("num_users", self.num_users)
        check_positive("num_models", self.num_models)
        check_positive("area_side_m", self.area_side_m)
        check_positive("coverage_radius_m", self.coverage_radius_m)
        check_positive("total_bandwidth_hz", self.total_bandwidth_hz)
        check_positive("total_power_watts", self.total_power_watts)
        check_in_range("active_probability", self.active_probability, 0.0, 1.0)
        if self.active_probability == 0:
            raise ConfigurationError("active_probability must be positive")
        check_positive("antenna_gain", self.antenna_gain)
        check_positive("path_loss_exponent", self.path_loss_exponent)
        check_positive("backhaul_rate_bps", self.backhaul_rate_bps)
        check_positive("storage_bytes", self.storage_bytes, strict=False)
        if self.storage_bytes_per_server is not None:
            if len(self.storage_bytes_per_server) != self.num_servers:
                raise ConfigurationError(
                    "storage_bytes_per_server must list one capacity per server"
                )
            for value in self.storage_bytes_per_server:
                check_positive("storage_bytes_per_server entries", value, strict=False)
        check_interval("deadline_range_s", self.deadline_range_s)
        if self.deadline_range_s[0] <= 0:
            raise ConfigurationError("deadlines must be positive")
        check_interval("inference_latency_range_s", self.inference_latency_range_s)
        if self.inference_latency_range_s[0] < 0:
            raise ConfigurationError("inference latency must be non-negative")
        check_positive("zipf_exponent", self.zipf_exponent, strict=False)
        if self.requests_per_user is not None:
            check_positive("requests_per_user", self.requests_per_user)
            if self.requests_per_user > self.num_models:
                raise ConfigurationError(
                    "requests_per_user cannot exceed num_models"
                )
        if self.library_case not in ("special", "general"):
            raise ConfigurationError(
                f"library_case must be 'special' or 'general', got "
                f"{self.library_case!r}"
            )
        if self.rng_scheme not in ("v1", "v2"):
            raise ConfigurationError(
                f"rng_scheme must be 'v1' or 'v2', got {self.rng_scheme!r}"
            )
        if self.chunk_size is not None:
            check_positive("chunk_size", self.chunk_size)
            if self.rng_scheme != "v2":
                raise ConfigurationError(
                    "chunk_size requires rng_scheme='v2' (only the batched "
                    "draw order makes user-block chunking bit-identical; "
                    "the v1 per-user stream cannot be chunked without "
                    "changing results)"
                )

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """A JSON-ready description (tuples become lists)."""
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output (validated)."""
        field_names = {f.name for f in fields(cls)}
        unknown = set(payload) - field_names
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioConfig fields: {sorted(unknown)}"
            )
        kwargs = {}
        for f in fields(cls):
            if f.name not in payload:
                continue
            value = payload[f.name]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[f.name] = value
        return cls(**kwargs)
