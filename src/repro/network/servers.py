"""Edge servers (base stations) and their radio-resource allocation.

Paper §VII-A: server ``m`` splits its total bandwidth ``B`` and transmit
power ``P`` among its *expected active* associated users, i.e. each
associated user ``k`` receives

    B̄_{m,k} = B / (p_A |K_m|),   P̄_{m,k} = P / (p_A |K_m|),

where ``p_A`` is the probability a user is active and ``K_m`` the set of
users inside the server's coverage radius.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.geometry import Point
from repro.utils.units import GB, MHZ, dbm_to_watts


@dataclass(frozen=True)
class EdgeServer:
    """One wireless edge server.

    Attributes
    ----------
    server_id:
        Dense index ``m`` of the server.
    position:
        Location in the simulation area (metres).
    storage_bytes:
        Cache capacity ``Q_m``.
    total_bandwidth_hz:
        Radio bandwidth ``B`` shared by associated users.
    total_power_watts:
        Transmit power ``P`` shared by associated users.
    coverage_radius_m:
        Users within this distance are associated (``K_m``).
    """

    server_id: int
    position: Point
    storage_bytes: int = 1 * GB
    total_bandwidth_hz: float = 400 * MHZ
    total_power_watts: float = dbm_to_watts(43.0)
    coverage_radius_m: float = 275.0

    def __post_init__(self) -> None:
        if self.server_id < 0:
            raise ConfigurationError("server_id must be non-negative")
        if self.storage_bytes < 0:
            raise ConfigurationError("storage_bytes must be non-negative")
        if self.total_bandwidth_hz <= 0:
            raise ConfigurationError("total_bandwidth_hz must be positive")
        if self.total_power_watts <= 0:
            raise ConfigurationError("total_power_watts must be positive")
        if self.coverage_radius_m <= 0:
            raise ConfigurationError("coverage_radius_m must be positive")
