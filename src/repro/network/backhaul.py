"""Inter-server backhaul links.

The paper assumes all edge servers are interconnected with a constant
transmission rate ``C_{m,m'}`` (10 Gbps, §VII-A). We model the backhaul as
a complete graph with a uniform rate, but keep per-pair overrides so tests
and extensions can model heterogeneous links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.utils.units import GBPS
from repro.utils.validation import check_positive


@dataclass
class Backhaul:
    """Complete-mesh edge-to-edge backhaul.

    Attributes
    ----------
    default_rate_bps:
        ``C_{m,m'}`` for every pair without an override.
    overrides:
        Optional per-(m, m') symmetric rate overrides. Keys are pairs of
        distinct non-negative server ids in either order; they are
        stored as ``(min, max)``, and two orders of one pair must carry
        the same rate.
    """

    default_rate_bps: float = 10 * GBPS
    overrides: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("default_rate_bps", self.default_rate_bps)
        normalised: Dict[Tuple[int, int], float] = {}
        for pair, rate in self.overrides.items():
            if not (
                isinstance(pair, tuple)
                and len(pair) == 2
                and all(
                    isinstance(server, Integral)
                    and not isinstance(server, bool)
                    and server >= 0
                    for server in pair
                )
            ):
                raise ConfigurationError(
                    f"override key {pair!r} must be a pair of non-negative "
                    "integer server ids"
                )
            if pair[0] == pair[1]:
                raise ConfigurationError(
                    f"override key {pair!r} pairs a server with itself"
                )
            check_positive(f"override rate for {pair}", rate)
            key = (int(min(pair)), int(max(pair)))
            if normalised.get(key, rate) != rate:
                raise ConfigurationError(
                    f"overrides give the pair {key} two rates: "
                    f"{normalised[key]} and {rate}"
                )
            normalised[key] = rate
        self.overrides = normalised

    def rate(self, server_a: int, server_b: int) -> float:
        """Rate of the link between two (distinct) servers, in bits/s."""
        if server_a == server_b:
            raise ConfigurationError(
                "backhaul rate is undefined between a server and itself"
            )
        key = (min(server_a, server_b), max(server_a, server_b))
        return self.overrides.get(key, self.default_rate_bps)
