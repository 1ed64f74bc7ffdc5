"""Inter-server backhaul links.

The paper assumes all edge servers are interconnected with a constant
transmission rate ``C_{m,m'}`` (10 Gbps, §VII-A). We model the backhaul as
a complete graph with a uniform rate, but keep per-pair overrides so tests
and extensions can model heterogeneous links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.utils.units import GBPS


@dataclass
class Backhaul:
    """Complete-mesh edge-to-edge backhaul.

    Attributes
    ----------
    default_rate_bps:
        ``C_{m,m'}`` for every pair without an override.
    overrides:
        Optional per-(m, m') symmetric rate overrides.
    """

    default_rate_bps: float = 10 * GBPS
    overrides: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.default_rate_bps <= 0:
            raise ConfigurationError("default_rate_bps must be positive")
        for pair, rate in self.overrides.items():
            if rate <= 0:
                raise ConfigurationError(f"override rate for {pair} must be positive")

    def rate(self, server_a: int, server_b: int) -> float:
        """Rate of the link between two (distinct) servers, in bits/s."""
        if server_a == server_b:
            raise ConfigurationError(
                "backhaul rate is undefined between a server and itself"
            )
        key = (min(server_a, server_b), max(server_a, server_b))
        return self.overrides.get(key, self.default_rate_bps)
